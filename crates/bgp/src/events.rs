//! Timestamped BGP update streams.
//!
//! The world simulator scripts routing churn as a sequence of announce and
//! withdraw events; replaying the log against a [`Rib`] up to round *r*
//! reconstructs the table RouteViews would have dumped at that round. The
//! [`EventLog`] therefore doubles as a compact archive format: rather than
//! storing ~13,000 full snapshots, we store one base table plus a delta
//! stream, replaying forward — the same trade MRT `UPDATES` files make.

use crate::rib::Rib;
use fbs_types::{Asn, Prefix, Round};
use serde::{Deserialize, Serialize};

/// What happened to a prefix.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum BgpEventKind {
    /// Announcement with the given AS path (last element = origin).
    Announce {
        /// AS path; the last element is the origin.
        path: Vec<Asn>,
    },
    /// Withdrawal of the prefix.
    Withdraw,
}

/// One routing change, effective at the start of `round`.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct BgpEvent {
    /// The round at whose start this event takes effect.
    pub round: Round,
    /// Affected prefix.
    pub prefix: Prefix,
    /// Announce or withdraw.
    pub kind: BgpEventKind,
}

/// An append-friendly, replayable log of BGP events.
///
/// Events are kept sorted by round (stable across equal rounds, preserving
/// insertion order so a withdraw-then-announce within one round behaves as
/// scripted).
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct EventLog {
    events: Vec<BgpEvent>,
    /// Whether every append so far arrived in round order, so
    /// [`EventLog::normalize`] can skip the sort.
    sorted: bool,
}

impl EventLog {
    /// An empty log.
    pub fn new() -> Self {
        EventLog {
            events: Vec::new(),
            sorted: true,
        }
    }

    /// Appends an event, keeping the log lazily sorted.
    pub fn push(&mut self, event: BgpEvent) {
        if let Some(last) = self.events.last() {
            if event.round < last.round {
                self.sorted = false;
            }
        }
        self.events.push(event);
    }

    /// Convenience: schedule an announcement.
    pub fn announce(&mut self, round: Round, prefix: Prefix, path: Vec<Asn>) {
        self.push(BgpEvent {
            round,
            prefix,
            kind: BgpEventKind::Announce { path },
        });
    }

    /// Convenience: schedule a withdrawal.
    pub fn withdraw(&mut self, round: Round, prefix: Prefix) {
        self.push(BgpEvent {
            round,
            prefix,
            kind: BgpEventKind::Withdraw,
        });
    }

    /// Number of events in the log.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the log holds no events.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Sorts the log by round if out-of-order appends occurred.
    pub fn normalize(&mut self) {
        if !self.sorted {
            self.events.sort_by_key(|e| e.round);
            self.sorted = true;
        }
    }

    /// All events in round order.
    pub fn events(&mut self) -> &[BgpEvent] {
        self.normalize();
        &self.events
    }

    /// Builds a replayer that walks the log round by round.
    pub fn replayer(mut self) -> Replayer {
        self.normalize();
        Replayer {
            events: self.events,
            cursor: 0,
            rib: Rib::new(),
            current: Round(0),
        }
    }
}

/// Incremental replay of an [`EventLog`] into a [`Rib`].
///
/// Call [`Replayer::advance_to`] with non-decreasing rounds; the internal
/// table then equals the RouteViews dump for that round.
#[derive(Debug, Clone)]
pub struct Replayer {
    events: Vec<BgpEvent>,
    cursor: usize,
    rib: Rib,
    current: Round,
}

impl Replayer {
    /// Applies all events effective at or before `round`.
    ///
    /// Rounds must be non-decreasing across calls; rewinding panics (the
    /// caller replays from a fresh log for historical queries).
    pub fn advance_to(&mut self, round: Round) -> &Rib {
        assert!(
            round >= self.current,
            "replayer cannot rewind: at {:?}, asked for {:?}",
            self.current,
            round
        );
        self.current = round;
        while self.cursor < self.events.len() && self.events[self.cursor].round <= round {
            let e = &self.events[self.cursor];
            match &e.kind {
                BgpEventKind::Announce { path } => {
                    // Scripted logs are validated at build time; a malformed
                    // path here is a bug in the generator, so surface it.
                    self.rib
                        .announce(e.prefix, path.clone())
                        .expect("event log contains validated paths");
                }
                BgpEventKind::Withdraw => {
                    self.rib.withdraw(e.prefix);
                }
            }
            self.cursor += 1;
        }
        &self.rib
    }

    /// The table state after the last `advance_to`.
    pub fn rib(&self) -> &Rib {
        &self.rib
    }

    /// The round the replayer is currently at.
    pub fn round(&self) -> Round {
        self.current
    }

    /// How many log events have been applied so far. The table can only
    /// have changed across a [`Replayer::advance_to`] that moved this
    /// count.
    pub fn applied(&self) -> usize {
        self.cursor
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(s: &str) -> Prefix {
        s.parse().unwrap()
    }

    #[test]
    fn replay_applies_in_round_order() {
        let mut log = EventLog::new();
        log.announce(Round(0), p("10.0.0.0/24"), vec![Asn(1)]);
        log.withdraw(Round(5), p("10.0.0.0/24"));
        log.announce(Round(9), p("10.0.0.0/24"), vec![Asn(1)]);

        let mut rp = log.replayer();
        assert_eq!(rp.applied(), 0);
        assert!(rp.advance_to(Round(0)).is_visible(Asn(1)));
        assert!(rp.advance_to(Round(4)).is_visible(Asn(1)));
        assert_eq!(rp.applied(), 1);
        assert!(!rp.advance_to(Round(5)).is_visible(Asn(1)));
        assert!(!rp.advance_to(Round(8)).is_visible(Asn(1)));
        assert_eq!(rp.applied(), 2);
        assert!(rp.advance_to(Round(9)).is_visible(Asn(1)));
        assert_eq!(rp.applied(), 3);
    }

    #[test]
    fn out_of_order_appends_are_normalized() {
        let mut log = EventLog::new();
        log.withdraw(Round(5), p("10.0.0.0/24"));
        log.announce(Round(0), p("10.0.0.0/24"), vec![Asn(1)]);
        let events = log.events();
        assert_eq!(events[0].round, Round(0));
        assert_eq!(events[1].round, Round(5));
    }

    #[test]
    fn same_round_preserves_insertion_order() {
        let mut log = EventLog::new();
        // Withdraw then immediately re-announce with a new path in the same
        // round: the announce must win.
        log.announce(Round(0), p("10.0.0.0/24"), vec![Asn(1)]);
        log.withdraw(Round(3), p("10.0.0.0/24"));
        log.announce(Round(3), p("10.0.0.0/24"), vec![Asn(9), Asn(1)]);
        let mut rp = log.replayer();
        let rib = rp.advance_to(Round(3));
        let e = rib.route_exact(p("10.0.0.0/24")).unwrap();
        assert_eq!(e.path, vec![Asn(9), Asn(1)]);
    }

    #[test]
    #[should_panic(expected = "cannot rewind")]
    fn rewinding_panics() {
        let log = EventLog::new();
        let mut rp = log.replayer();
        rp.advance_to(Round(5));
        rp.advance_to(Round(4));
    }

    #[test]
    fn advancing_past_end_is_fine() {
        let mut log = EventLog::new();
        log.announce(Round(1), p("10.0.0.0/24"), vec![Asn(1)]);
        let mut rp = log.replayer();
        let rib = rp.advance_to(Round(1_000_000));
        assert_eq!(rib.num_routes(), 1);
    }
}

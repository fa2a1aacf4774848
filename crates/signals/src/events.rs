//! Outage events: periods, merging, hour accounting.

use crate::series::SignalKind;
use fbs_types::codec::{ByteReader, ByteWriter, Persist};
use fbs_types::{Asn, BlockId, FbsError, Oblast, Round};
use serde::{Deserialize, Serialize};

/// What an outage is attributed to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum EntityId {
    /// An autonomous system.
    As(Asn),
    /// A region (oblast).
    Region(Oblast),
    /// A single /24 block.
    Block(BlockId),
}

impl std::fmt::Display for EntityId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EntityId::As(a) => write!(f, "{a}"),
            EntityId::Region(o) => write!(f, "{o}"),
            EntityId::Block(b) => write!(f, "{b}"),
        }
    }
}

/// One contiguous outage period of one signal for one entity.
///
/// `start` is the first round in outage; `end` is exclusive (the first
/// round back to normal). With two-hour rounds, the period spans
/// `(end - start) × 2` hours.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct OutageEvent {
    /// The affected entity.
    pub entity: EntityId,
    /// Which signal detected the outage.
    pub signal: SignalKind,
    /// First round in outage.
    pub start: Round,
    /// First round after the outage (exclusive bound).
    pub end: Round,
    /// Deepest observed ratio of value to moving average during the period
    /// (0 = total loss, values near 1 = shallow dip).
    pub min_ratio: f64,
}

impl OutageEvent {
    /// Duration in rounds.
    pub fn rounds(&self) -> u32 {
        self.end.0.saturating_sub(self.start.0)
    }

    /// Duration in hours (two hours per round).
    pub fn hours(&self) -> f64 {
        self.rounds() as f64 * 2.0
    }

    /// Whether `round` falls inside the period.
    pub fn contains(&self, round: Round) -> bool {
        round >= self.start && round < self.end
    }

    /// Whether two events overlap in time (entity/signal ignored).
    pub fn overlaps(&self, other: &OutageEvent) -> bool {
        self.start < other.end && other.start < self.end
    }
}

impl Persist for EntityId {
    fn persist(&self, w: &mut ByteWriter) {
        match self {
            EntityId::As(a) => {
                w.put_u8(0);
                a.persist(w);
            }
            EntityId::Region(o) => {
                w.put_u8(1);
                o.persist(w);
            }
            EntityId::Block(b) => {
                w.put_u8(2);
                b.persist(w);
            }
        }
    }
    fn restore(r: &mut ByteReader<'_>) -> fbs_types::Result<Self> {
        match r.get_u8()? {
            0 => Ok(EntityId::As(Asn::restore(r)?)),
            1 => Ok(EntityId::Region(Oblast::restore(r)?)),
            2 => Ok(EntityId::Block(BlockId::restore(r)?)),
            other => Err(FbsError::Io {
                reason: format!("invalid entity tag {other:#x}"),
            }),
        }
    }
}

impl Persist for OutageEvent {
    fn persist(&self, w: &mut ByteWriter) {
        self.entity.persist(w);
        self.signal.persist(w);
        self.start.persist(w);
        self.end.persist(w);
        w.put_f64(self.min_ratio);
    }
    fn restore(r: &mut ByteReader<'_>) -> fbs_types::Result<Self> {
        Ok(OutageEvent {
            entity: EntityId::restore(r)?,
            signal: SignalKind::restore(r)?,
            start: Round::restore(r)?,
            end: Round::restore(r)?,
            min_ratio: r.get_f64()?,
        })
    }
}

/// Merges events of the same entity into entity-level "any signal down"
/// periods: overlapping or touching intervals coalesce.
///
/// Input order is arbitrary; output is sorted by start and disjoint.
pub fn merge_overlapping(events: &[OutageEvent]) -> Vec<(Round, Round)> {
    let mut spans: Vec<(u32, u32)> = events.iter().map(|e| (e.start.0, e.end.0)).collect();
    spans.sort_unstable();
    let mut out: Vec<(Round, Round)> = Vec::new();
    for (s, e) in spans {
        match out.last_mut() {
            Some((_, last_end)) if s <= last_end.0 => {
                last_end.0 = last_end.0.max(e);
            }
            _ => out.push((Round(s), Round(e))),
        }
    }
    out
}

/// Total outage hours covered by a set of events, counting overlapping
/// periods once (via [`merge_overlapping`]).
///
/// Whole rounds are summed as integers and scaled once, so an empty set
/// yields `+0.0` (an empty `f64` sum is `-0.0`, which prints as `-0`).
pub fn outage_hours(events: &[OutageEvent]) -> f64 {
    let rounds: u64 = merge_overlapping(events)
        .iter()
        .map(|(s, e)| u64::from(e.0 - s.0))
        .sum();
    rounds as f64 * 2.0
}

/// Splits an event's hours across the calendar days it touches, returning
/// `(date, hours)` pairs — the unit of the power-correlation analysis
/// (paper Fig. 10 plots average daily outage hours).
pub fn hours_per_day(event: &OutageEvent) -> Vec<(fbs_types::CivilDate, f64)> {
    let mut out: Vec<(fbs_types::CivilDate, f64)> = Vec::new();
    for r in event.start.0..event.end.0 {
        let date = Round(r).date();
        match out.last_mut() {
            Some((d, h)) if *d == date => *h += 2.0,
            _ => out.push((date, 2.0)),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(start: u32, end: u32) -> OutageEvent {
        OutageEvent {
            entity: EntityId::As(Asn(1)),
            signal: SignalKind::Ips,
            start: Round(start),
            end: Round(end),
            min_ratio: 0.5,
        }
    }

    #[test]
    fn durations() {
        let e = ev(10, 16);
        assert_eq!(e.rounds(), 6);
        assert_eq!(e.hours(), 12.0);
        assert!(e.contains(Round(10)));
        assert!(e.contains(Round(15)));
        assert!(!e.contains(Round(16)));
        assert!(!e.contains(Round(9)));
    }

    #[test]
    fn overlap_detection() {
        assert!(ev(0, 5).overlaps(&ev(4, 8)));
        assert!(!ev(0, 5).overlaps(&ev(5, 8))); // touching, not overlapping
        assert!(ev(3, 4).overlaps(&ev(0, 10)));
    }

    #[test]
    fn merge_coalesces_touching_and_overlapping() {
        let merged = merge_overlapping(&[ev(0, 5), ev(5, 8), ev(20, 22), ev(3, 6)]);
        assert_eq!(merged, vec![(Round(0), Round(8)), (Round(20), Round(22))]);
    }

    #[test]
    fn outage_hours_counts_overlaps_once() {
        // Two signals covering the same 6 rounds plus 2 extra = 8 rounds.
        let h = outage_hours(&[ev(0, 6), ev(4, 8)]);
        assert_eq!(h, 16.0);
        let none = outage_hours(&[]);
        // `-0.0 == 0.0`, so the sign needs its own check.
        assert!(none == 0.0 && none.is_sign_positive(), "{none}");
    }

    #[test]
    fn hours_split_across_days() {
        // Round 0 starts 2022-03-02 22:00; one round on Mar 2, rest on Mar 3.
        let e = ev(0, 13);
        let per_day = hours_per_day(&e);
        assert_eq!(per_day.len(), 2);
        assert_eq!(per_day[0].0, fbs_types::CivilDate::new(2022, 3, 2));
        assert_eq!(per_day[0].1, 2.0);
        assert_eq!(per_day[1].0, fbs_types::CivilDate::new(2022, 3, 3));
        assert_eq!(per_day[1].1, 24.0);
    }

    #[test]
    fn entity_display() {
        assert_eq!(EntityId::As(Asn(25482)).to_string(), "AS25482");
        assert_eq!(EntityId::Region(Oblast::Kherson).to_string(), "Kherson");
        assert_eq!(
            EntityId::Block(BlockId::from_octets(193, 151, 240)).to_string(),
            "193.151.240.0/24"
        );
    }
}

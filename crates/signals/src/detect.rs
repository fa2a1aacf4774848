//! The streaming outage detector.
//!
//! One [`Detector`] instance watches one entity (an AS, a region, or a
//! block). Per round it receives the three signal values and compares each
//! against its seven-day moving average under the configured thresholds
//! (paper Table 2 via [`Thresholds`]). The update order matters and follows
//! the paper: the value under test is compared against the average of
//! *previous* rounds, then folded into the window.
//!
//! Special rules, both from §3.1:
//!
//! * **Zero-BGP flag** — while the entity routes no /24 at all, the BGP
//!   outage is held open even after the moving average has adapted to the
//!   new (zero) baseline.
//! * **Availability sensing** — an FBS dip only counts as an outage if the
//!   IPS signal is simultaneously depressed (below the guard threshold);
//!   otherwise the dip is attributed to dynamic address reallocation, whose
//!   responders reappear elsewhere in the entity.
//! * **Missing measurements** — rounds where the vantage point was offline
//!   carry no values; they never open or close outages and never feed the
//!   averages.

use crate::events::{EntityId, OutageEvent};
use crate::series::{MovingAverage, SignalKind};
use crate::thresholds::Thresholds;
use fbs_types::codec::{ByteReader, ByteWriter, Persist};
use fbs_types::{FeedStatus, Round, RoundQuality};
use serde::{Deserialize, Serialize};

/// Signal values of one entity at one round. `None` = not measured.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct EntityRound {
    /// Routed /24 blocks (`BGP ★`).
    pub bgp: Option<f64>,
    /// Active eligible /24 blocks (`FBS ■`).
    pub fbs: Option<f64>,
    /// Responsive IP addresses (`IPS ▲`).
    pub ips: Option<f64>,
}

impl EntityRound {
    /// A round with no measurements (vantage offline).
    pub const MISSING: EntityRound = EntityRound {
        bgp: None,
        fbs: None,
        ips: None,
    };

    fn get(&self, kind: SignalKind) -> Option<f64> {
        match kind {
            SignalKind::Bgp => self.bgp,
            SignalKind::Fbs => self.fbs,
            SignalKind::Ips => self.ips,
        }
    }
}

/// Per-round input quality derived from the metadata feeds' staleness
/// ledger ([`FeedStatus`] per feed).
///
/// The scan signals (FBS, IPS) ride the prober and are governed by
/// [`RoundQuality`]; the *derived* signals ride external feeds that can go
/// stale or dark independently of the vantage point. This struct carries
/// that per-feed verdict to the detector, which responds per signal:
///
/// * **BGP stale/missing** — the pipeline's routed counts are carried
///   forward from the last good RIB, so feeding them would fabricate a
///   flat BGP series and could *open* spurious outages (or mask real
///   ones). [`mask`](Self::mask) removes the BGP value: the BGP track
///   freezes exactly like a vantage-offline round — open outages
///   (including the zero-BGP long-outage flag) stay open, no new BGP
///   outage can start, and the moving average does not advance.
/// * **Geo stale/missing** — regional classification reuses the previous
///   accepted snapshot; that is handled at classification time, upstream
///   of the detector, so no masking is needed here.
/// * **Delegations stale/missing** — eligibility is campaign-static once
///   built; the status is ledger bookkeeping only.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct SignalQuality {
    /// Status of the BGP RIB feed this round.
    pub bgp: FeedStatus,
    /// Status of the geolocation snapshot feed this round.
    pub geo: FeedStatus,
    /// Status of the RIR delegation feed this round.
    pub delegations: FeedStatus,
}

impl SignalQuality {
    /// All feeds fresh: detection behaves exactly as without feed gating.
    pub const FRESH: SignalQuality = SignalQuality {
        bgp: FeedStatus::Fresh,
        geo: FeedStatus::Fresh,
        delegations: FeedStatus::Fresh,
    };

    /// Whether every feed is fresh this round.
    pub fn is_fresh(&self) -> bool {
        self.bgp.is_fresh() && self.geo.is_fresh() && self.delegations.is_fresh()
    }

    /// Applies the per-signal gating: removes values whose backing feed
    /// is not fresh (currently the BGP value; scan signals pass through).
    pub fn mask(&self, input: EntityRound) -> EntityRound {
        let mut out = input;
        if !self.bgp.is_fresh() {
            out.bgp = None;
        }
        out
    }
}

/// Per-signal state after a round, for introspection and plotting.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum SignalState {
    /// Value present and at or above threshold.
    Ok,
    /// Value present and below threshold (outage condition).
    Outage,
    /// No measurement this round.
    NoData,
    /// Not enough history in the window to judge.
    Warmup,
}

struct SignalTrack {
    ma: MovingAverage,
    in_outage: bool,
    outage_start: Round,
    min_ratio: f64,
}

impl SignalTrack {
    fn new(window: usize) -> Self {
        SignalTrack {
            ma: MovingAverage::new(window),
            in_outage: false,
            outage_start: Round(0),
            min_ratio: 1.0,
        }
    }
}

/// Streaming three-signal outage detector for one entity.
pub struct Detector {
    entity: EntityId,
    thresholds: Thresholds,
    /// Minimum measured samples in the window before detection engages.
    warmup: usize,
    tracks: [SignalTrack; 3],
    events: Vec<OutageEvent>,
    last_round: Round,
}

impl Detector {
    /// Default warm-up: one day of measured rounds.
    pub const DEFAULT_WARMUP: usize = 12;

    /// Creates a detector with the seven-day window of the paper.
    pub fn new(entity: EntityId, thresholds: Thresholds) -> Self {
        Self::with_window(
            entity,
            thresholds,
            MovingAverage::SEVEN_DAYS,
            Self::DEFAULT_WARMUP,
        )
    }

    /// Creates a detector with a custom window and warm-up (tests, sweeps).
    pub fn with_window(
        entity: EntityId,
        thresholds: Thresholds,
        window: usize,
        warmup: usize,
    ) -> Self {
        // Constructor contract: thresholds are validated before any
        // detector is built on the Campaign path (CampaignConfig::validate
        // runs at Campaign::new). A direct caller handing in garbage is a
        // programming error, not a recoverable runtime condition.
        // fbs-lint: allow(panic-in-pipeline) constructor precondition, validated upstream
        thresholds.validate().expect("validated thresholds");
        Detector {
            entity,
            thresholds,
            warmup: warmup.max(1),
            tracks: [
                SignalTrack::new(window),
                SignalTrack::new(window),
                SignalTrack::new(window),
            ],
            events: Vec::new(),
            last_round: Round(0),
        }
    }

    /// The entity this detector watches.
    pub fn entity(&self) -> EntityId {
        self.entity
    }

    /// Feeds one round of signal values; returns the per-signal states.
    ///
    /// Rounds must be fed in increasing order.
    pub fn observe(&mut self, round: Round, input: EntityRound) -> [SignalState; 3] {
        self.observe_with(round, input, RoundQuality::Ok)
    }

    /// Feeds one round together with the prober's quality verdict.
    ///
    /// * [`RoundQuality::Ok`] — identical to [`observe`](Self::observe).
    /// * [`RoundQuality::Degraded`] — the scan ran through measurable loss:
    ///   the scan-derived factors (FBS, IPS, and the IPS guard) are damped
    ///   by [`Thresholds::degraded_damping`], so only a dip deeper than the
    ///   injected loss can fire; the FBS/IPS moving averages are frozen so
    ///   a run of degraded rounds cannot drag the baseline down. BGP rides
    ///   routing data, not the scan, and is judged normally.
    /// * [`RoundQuality::Unusable`] — the round carries no information; it
    ///   is treated exactly like a vantage-offline round
    ///   ([`EntityRound::MISSING`]): no state changes, no average updates.
    pub fn observe_quality(
        &mut self,
        round: Round,
        input: EntityRound,
        quality: RoundQuality,
    ) -> [SignalState; 3] {
        match quality {
            RoundQuality::Unusable => self.observe_with(round, EntityRound::MISSING, quality),
            _ => self.observe_with(round, input, quality),
        }
    }

    /// Feeds one round together with both quality verdicts: the prober's
    /// [`RoundQuality`] and the feed-derived [`SignalQuality`].
    ///
    /// Equivalent to [`observe_quality`](Self::observe_quality) on the
    /// [masked](SignalQuality::mask) input: a stale or missing BGP feed
    /// freezes the BGP track (holding open outages, including the
    /// zero-BGP flag, without opening new ones) while the scan signals
    /// are still judged normally.
    pub fn observe_feeds(
        &mut self,
        round: Round,
        input: EntityRound,
        quality: RoundQuality,
        feeds: SignalQuality,
    ) -> [SignalState; 3] {
        self.observe_quality(round, feeds.mask(input), quality)
    }

    fn observe_with(
        &mut self,
        round: Round,
        input: EntityRound,
        quality: RoundQuality,
    ) -> [SignalState; 3] {
        self.last_round = round;
        let degraded = quality == RoundQuality::Degraded;
        let damping = if degraded {
            self.thresholds.degraded_damping
        } else {
            1.0
        };
        let mut states = [SignalState::NoData; 3];

        // The FBS guard needs the IPS judgement of the *same* round, so
        // compute raw below-threshold flags first, then apply gating.
        let mut below = [None::<(bool, f64)>; 3]; // (below_threshold, ratio)
        for kind in SignalKind::ALL {
            let i = kind.index();
            let value = input.get(kind);
            let track = &self.tracks[i];
            if let Some(v) = value {
                if track.ma.warmed_up(self.warmup) {
                    // fbs-lint: allow(panic-in-pipeline) warmed_up(n>=1) implies samples exist
                    let mean = track.ma.mean().expect("warmed up implies samples");
                    // BGP factors are never damped: routing data does not
                    // traverse the (possibly faulty) measurement path.
                    let factor = match kind {
                        SignalKind::Bgp => self.thresholds.bgp,
                        SignalKind::Fbs => self.thresholds.fbs * damping,
                        SignalKind::Ips => self.thresholds.ips * damping,
                    };
                    if mean > 0.0 {
                        let ratio = v / mean;
                        below[i] = Some((ratio < factor, ratio));
                    } else {
                        // A zero baseline cannot shrink further; only the
                        // zero-BGP flag (below) keeps such outages open.
                        below[i] = Some((false, 1.0));
                    }
                } else {
                    states[i] = SignalState::Warmup;
                }
            }
        }

        // Availability-sensing guard: FBS only fires when IPS is also
        // depressed below the guard factor (or IPS has no data).
        if let Some((fbs_below, _)) = below[SignalKind::Fbs.index()] {
            if fbs_below {
                let ips_guard_ok = match (input.ips, self.tracks[SignalKind::Ips.index()].ma.mean())
                {
                    // A guard factor of 1.0 (or more) disables the veto.
                    _ if self.thresholds.fbs_ips_guard >= 1.0 => true,
                    (Some(ips), Some(ips_mean)) if ips_mean > 0.0 => {
                        ips / ips_mean < self.thresholds.fbs_ips_guard * damping
                    }
                    // Without IPS context the guard cannot veto.
                    _ => true,
                };
                if !ips_guard_ok {
                    below[SignalKind::Fbs.index()] = Some((false, 1.0));
                }
            }
        }

        // Zero-BGP flag: routing nothing at all is always an outage.
        if self.thresholds.zero_bgp_flag {
            if let Some(bgp) = input.bgp {
                // fbs-lint: allow(nan-unsafe-cmp) exact-zero sentinel: zero announced routes
                if bgp == 0.0
                    && self.tracks[SignalKind::Bgp.index()]
                        .ma
                        .warmed_up(self.warmup)
                {
                    let entry = &mut below[SignalKind::Bgp.index()];
                    let ratio = entry.map(|(_, r)| r).unwrap_or(0.0);
                    *entry = Some((true, ratio.min(0.0)));
                }
            }
        }

        // Apply state transitions and fold values into the windows.
        for kind in SignalKind::ALL {
            let i = kind.index();
            let track = &mut self.tracks[i];
            match below[i] {
                Some((true, ratio)) => {
                    states[i] = SignalState::Outage;
                    if !track.in_outage {
                        track.in_outage = true;
                        track.outage_start = round;
                        track.min_ratio = ratio;
                    } else {
                        track.min_ratio = track.min_ratio.min(ratio);
                    }
                }
                Some((false, _)) => {
                    states[i] = SignalState::Ok;
                    if track.in_outage {
                        track.in_outage = false;
                        self.events.push(OutageEvent {
                            entity: self.entity,
                            signal: kind,
                            start: track.outage_start,
                            end: round,
                            min_ratio: track.min_ratio,
                        });
                    }
                }
                None => {
                    // NoData or Warmup (already set): state freezes.
                }
            }
            // Degraded rounds freeze the scan-fed averages: values measured
            // through loss must not drag the FBS/IPS baselines down, and
            // the window must not advance (pushing even a `None` would
            // evict healthy samples and erode the baseline).
            if !(degraded && kind != SignalKind::Bgp) {
                track.ma.push(input.get(kind));
            }
        }
        states
    }

    /// Closes any open outages at `end` and returns all detected events.
    pub fn finish(mut self, end: Round) -> Vec<OutageEvent> {
        for kind in SignalKind::ALL {
            let track = &mut self.tracks[kind.index()];
            if track.in_outage {
                self.events.push(OutageEvent {
                    entity: self.entity,
                    signal: kind,
                    start: track.outage_start,
                    end: end.max(track.outage_start.next()),
                    min_ratio: track.min_ratio,
                });
            }
        }
        self.events.sort_by_key(|e| (e.start, e.signal.index()));
        self.events
    }
}

impl Persist for SignalTrack {
    fn persist(&self, w: &mut ByteWriter) {
        self.ma.persist(w);
        w.put_bool(self.in_outage);
        self.outage_start.persist(w);
        w.put_f64(self.min_ratio);
    }
    fn restore(r: &mut ByteReader<'_>) -> fbs_types::Result<Self> {
        Ok(SignalTrack {
            ma: MovingAverage::restore(r)?,
            in_outage: r.get_bool()?,
            outage_start: Round::restore(r)?,
            min_ratio: r.get_f64()?,
        })
    }
}

impl Persist for Detector {
    // Full mid-stream state: window contents, open-outage flags, and the
    // events already closed. A restored detector continues producing the
    // same observations and the same final event list as one that was
    // never interrupted.
    fn persist(&self, w: &mut ByteWriter) {
        self.entity.persist(w);
        self.thresholds.persist(w);
        self.warmup.persist(w);
        for track in &self.tracks {
            track.persist(w);
        }
        self.events.persist(w);
        self.last_round.persist(w);
    }
    fn restore(r: &mut ByteReader<'_>) -> fbs_types::Result<Self> {
        Ok(Detector {
            entity: EntityId::restore(r)?,
            thresholds: Thresholds::restore(r)?,
            warmup: usize::restore(r)?,
            tracks: [
                SignalTrack::restore(r)?,
                SignalTrack::restore(r)?,
                SignalTrack::restore(r)?,
            ],
            events: Vec::<OutageEvent>::restore(r)?,
            last_round: Round::restore(r)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fbs_types::Asn;

    fn detector() -> Detector {
        // Short window (12) and warmup (4) keep tests compact.
        Detector::with_window(EntityId::As(Asn(25482)), Thresholds::as_level(), 12, 4)
    }

    fn steady(d: &mut Detector, rounds: std::ops::Range<u32>, bgp: f64, fbs: f64, ips: f64) {
        for r in rounds {
            d.observe(
                Round(r),
                EntityRound {
                    bgp: Some(bgp),
                    fbs: Some(fbs),
                    ips: Some(ips),
                },
            );
        }
    }

    #[test]
    fn no_outage_on_steady_signal() {
        let mut d = detector();
        steady(&mut d, 0..50, 10.0, 10.0, 1000.0);
        assert!(d.finish(Round(50)).is_empty());
    }

    #[test]
    fn ips_drop_detected_with_bounds() {
        let mut d = detector();
        steady(&mut d, 0..20, 10.0, 10.0, 1000.0);
        // 50% IPS drop for 5 rounds, blocks stay up.
        for r in 20..25 {
            d.observe(
                Round(r),
                EntityRound {
                    bgp: Some(10.0),
                    fbs: Some(10.0),
                    ips: Some(500.0),
                },
            );
        }
        steady(&mut d, 25..40, 10.0, 10.0, 1000.0);
        let events = d.finish(Round(40));
        assert_eq!(events.len(), 1);
        let e = events[0];
        assert_eq!(e.signal, SignalKind::Ips);
        assert_eq!(e.start, Round(20));
        assert_eq!(e.end, Round(25));
        assert!(e.min_ratio < 0.6 && e.min_ratio > 0.4);
    }

    #[test]
    fn warmup_suppresses_detection() {
        let mut d = detector();
        // Immediate crash with no history: nothing may fire.
        let states = d.observe(
            Round(0),
            EntityRound {
                bgp: Some(0.0),
                fbs: Some(0.0),
                ips: Some(0.0),
            },
        );
        assert_eq!(states, [SignalState::Warmup; 3]);
        assert!(d.finish(Round(1)).is_empty());
    }

    #[test]
    fn fbs_guarded_by_ips() {
        // FBS drops 50% but IPS stays at 100%: reallocation, not outage.
        let mut d = detector();
        steady(&mut d, 0..20, 10.0, 10.0, 1000.0);
        for r in 20..25 {
            let states = d.observe(
                Round(r),
                EntityRound {
                    bgp: Some(10.0),
                    fbs: Some(5.0),
                    ips: Some(1000.0),
                },
            );
            assert_eq!(states[SignalKind::Fbs.index()], SignalState::Ok);
        }
        let events = d.finish(Round(25));
        assert!(events.iter().all(|e| e.signal != SignalKind::Fbs));
    }

    #[test]
    fn fbs_fires_when_ips_also_down() {
        let mut d = detector();
        steady(&mut d, 0..20, 10.0, 10.0, 1000.0);
        for r in 20..25 {
            d.observe(
                Round(r),
                EntityRound {
                    bgp: Some(10.0),
                    fbs: Some(5.0),
                    ips: Some(400.0),
                },
            );
        }
        let events = d.finish(Round(25));
        assert!(events.iter().any(|e| e.signal == SignalKind::Fbs));
        assert!(events.iter().any(|e| e.signal == SignalKind::Ips));
    }

    #[test]
    fn zero_bgp_holds_outage_open_past_adaptation() {
        let mut d = detector();
        steady(&mut d, 0..20, 10.0, 10.0, 1000.0);
        // Total BGP loss for 40 rounds — far longer than the 12-round
        // window, so the moving average fully adapts to zero.
        for r in 20..60 {
            d.observe(
                Round(r),
                EntityRound {
                    bgp: Some(0.0),
                    fbs: Some(0.0),
                    ips: Some(0.0),
                },
            );
        }
        steady(&mut d, 60..70, 10.0, 10.0, 1000.0);
        let events = d.finish(Round(70));
        let bgp: Vec<_> = events
            .iter()
            .filter(|e| e.signal == SignalKind::Bgp)
            .collect();
        assert_eq!(bgp.len(), 1, "one continuous BGP outage, got {bgp:?}");
        assert_eq!(bgp[0].start, Round(20));
        assert_eq!(bgp[0].end, Round(60));
        assert_eq!(bgp[0].hours(), 80.0);
    }

    #[test]
    fn without_zero_flag_fbs_outage_ends_when_average_adapts() {
        let mut d = detector();
        steady(&mut d, 0..20, 10.0, 10.0, 1000.0);
        // FBS and IPS drop to a *nonzero* floor for a long time: after the
        // window adapts, the outage must close on its own.
        for r in 20..60 {
            d.observe(
                Round(r),
                EntityRound {
                    bgp: Some(10.0),
                    fbs: Some(2.0),
                    ips: Some(100.0),
                },
            );
        }
        let events = d.finish(Round(60));
        let fbs: Vec<_> = events
            .iter()
            .filter(|e| e.signal == SignalKind::Fbs)
            .collect();
        assert_eq!(fbs.len(), 1);
        assert!(
            fbs[0].end.0 < 60,
            "moving average should adapt and close the event, ended {:?}",
            fbs[0].end
        );
    }

    #[test]
    fn missing_measurements_freeze_state() {
        let mut d = detector();
        steady(&mut d, 0..20, 10.0, 10.0, 1000.0);
        // Vantage offline for 10 rounds.
        for r in 20..30 {
            let states = d.observe(Round(r), EntityRound::MISSING);
            assert_eq!(states, [SignalState::NoData; 3]);
        }
        steady(&mut d, 30..40, 10.0, 10.0, 1000.0);
        assert!(d.finish(Round(40)).is_empty());
    }

    #[test]
    fn open_outage_closed_by_finish() {
        let mut d = detector();
        steady(&mut d, 0..20, 10.0, 10.0, 1000.0);
        for r in 20..24 {
            d.observe(
                Round(r),
                EntityRound {
                    bgp: Some(0.0),
                    fbs: None,
                    ips: Some(0.0),
                },
            );
        }
        let events = d.finish(Round(24));
        assert!(events
            .iter()
            .any(|e| e.signal == SignalKind::Bgp && e.end == Round(24)));
    }

    #[test]
    fn degraded_round_with_injected_loss_fires_nothing() {
        // 22% signal loss — would fire the undamped IPS (0.8) and FBS (0.8)
        // thresholds — but the round is flagged Degraded, so the damped
        // factors (0.56) hold and no false outage appears.
        let mut d = detector();
        steady(&mut d, 0..20, 10.0, 10.0, 1000.0);
        for r in 20..30 {
            let states = d.observe_quality(
                Round(r),
                EntityRound {
                    bgp: Some(10.0),
                    fbs: Some(7.8),
                    ips: Some(780.0),
                },
                RoundQuality::Degraded,
            );
            assert_eq!(states[SignalKind::Fbs.index()], SignalState::Ok);
            assert_eq!(states[SignalKind::Ips.index()], SignalState::Ok);
        }
        steady(&mut d, 30..40, 10.0, 10.0, 1000.0);
        assert!(d.finish(Round(40)).is_empty());
    }

    #[test]
    fn degraded_round_still_detects_total_outage() {
        // A real outage on a degraded round: the drop is far below even the
        // damped threshold and must still fire.
        let mut d = detector();
        steady(&mut d, 0..20, 10.0, 10.0, 1000.0);
        for r in 20..25 {
            d.observe_quality(
                Round(r),
                EntityRound {
                    bgp: Some(10.0),
                    fbs: Some(0.0),
                    ips: Some(10.0),
                },
                RoundQuality::Degraded,
            );
        }
        steady(&mut d, 25..35, 10.0, 10.0, 1000.0);
        let events = d.finish(Round(35));
        assert!(events.iter().any(|e| e.signal == SignalKind::Ips));
        assert!(events.iter().any(|e| e.signal == SignalKind::Fbs));
    }

    #[test]
    fn degraded_rounds_do_not_drag_the_baseline() {
        // A long run of degraded rounds at 80% must not adapt the FBS/IPS
        // averages: the next genuine dip is still judged against the
        // healthy baseline.
        let mut d = detector();
        steady(&mut d, 0..20, 10.0, 10.0, 1000.0);
        for r in 20..50 {
            d.observe_quality(
                Round(r),
                EntityRound {
                    bgp: Some(10.0),
                    fbs: Some(8.0),
                    ips: Some(800.0),
                },
                RoundQuality::Degraded,
            );
        }
        // 700 vs the frozen 1000-baseline = 0.70 < 0.80 → fires. Had the
        // degraded 800s been folded in, 700/800 = 0.875 would stay silent.
        for r in 50..55 {
            d.observe(
                Round(r),
                EntityRound {
                    bgp: Some(10.0),
                    fbs: Some(10.0),
                    ips: Some(700.0),
                },
            );
        }
        let events = d.finish(Round(55));
        assert!(
            events.iter().any(|e| e.signal == SignalKind::Ips),
            "frozen baseline must still catch the genuine dip: {events:?}"
        );
    }

    #[test]
    fn degraded_round_judges_bgp_normally() {
        // BGP does not ride the scan path: a routing collapse on a degraded
        // round fires with the undamped factor.
        let mut d = detector();
        steady(&mut d, 0..20, 10.0, 10.0, 1000.0);
        for r in 20..25 {
            let states = d.observe_quality(
                Round(r),
                EntityRound {
                    bgp: Some(5.0),
                    fbs: Some(10.0),
                    ips: Some(1000.0),
                },
                RoundQuality::Degraded,
            );
            assert_eq!(states[SignalKind::Bgp.index()], SignalState::Outage);
        }
        let events = d.finish(Round(25));
        assert!(events.iter().any(|e| e.signal == SignalKind::Bgp));
    }

    #[test]
    fn unusable_round_is_treated_as_missing() {
        let mut d = detector();
        steady(&mut d, 0..20, 10.0, 10.0, 1000.0);
        // Unusable rounds carry values, but they must be ignored entirely —
        // even an apparent total outage.
        for r in 20..30 {
            let states = d.observe_quality(
                Round(r),
                EntityRound {
                    bgp: Some(0.0),
                    fbs: Some(0.0),
                    ips: Some(0.0),
                },
                RoundQuality::Unusable,
            );
            assert_eq!(states, [SignalState::NoData; 3]);
        }
        steady(&mut d, 30..40, 10.0, 10.0, 1000.0);
        assert!(d.finish(Round(40)).is_empty());
    }

    #[test]
    fn ok_quality_matches_plain_observe() {
        let mut a = detector();
        let mut b = detector();
        for r in 0..30 {
            let input = EntityRound {
                bgp: Some(10.0),
                fbs: Some(if r > 20 { 4.0 } else { 10.0 }),
                ips: Some(if r > 20 { 400.0 } else { 1000.0 }),
            };
            let sa = a.observe(Round(r), input);
            let sb = b.observe_quality(Round(r), input, RoundQuality::Ok);
            assert_eq!(sa, sb);
        }
        assert_eq!(a.finish(Round(30)), b.finish(Round(30)));
    }

    fn stale_bgp() -> SignalQuality {
        SignalQuality {
            bgp: FeedStatus::Stale(1),
            ..SignalQuality::FRESH
        }
    }

    #[test]
    fn missing_bgp_feed_suppresses_new_bgp_outages() {
        // The feed goes dark; the pipeline carries the last RIB forward,
        // so the BGP value it computes is stale — even an apparent total
        // routing collapse during the gap must not open a BGP outage.
        let mut d = detector();
        steady(&mut d, 0..20, 10.0, 10.0, 1000.0);
        for r in 20..30 {
            let states = d.observe_feeds(
                Round(r),
                EntityRound {
                    bgp: Some(0.0),
                    fbs: Some(10.0),
                    ips: Some(1000.0),
                },
                RoundQuality::Ok,
                SignalQuality {
                    bgp: FeedStatus::Missing,
                    ..SignalQuality::FRESH
                },
            );
            assert_eq!(states[SignalKind::Bgp.index()], SignalState::NoData);
        }
        steady(&mut d, 30..40, 10.0, 10.0, 1000.0);
        assert!(d.finish(Round(40)).is_empty());
    }

    #[test]
    fn stale_bgp_feed_holds_zero_bgp_outage_open() {
        // A genuine zero-BGP outage opens on fresh data; the feed then
        // goes stale mid-outage. The track freezes: the outage is neither
        // closed nor double-opened, and when the feed returns with the
        // routes restored the event closes at the recovery round.
        let mut d = detector();
        steady(&mut d, 0..20, 10.0, 10.0, 1000.0);
        for r in 20..26 {
            d.observe(
                Round(r),
                EntityRound {
                    bgp: Some(0.0),
                    fbs: Some(0.0),
                    ips: Some(0.0),
                },
            );
        }
        for r in 26..34 {
            let states = d.observe_feeds(
                Round(r),
                EntityRound {
                    bgp: Some(0.0), // carried forward, untrustworthy
                    fbs: Some(0.0),
                    ips: Some(0.0),
                },
                RoundQuality::Ok,
                stale_bgp(),
            );
            assert_eq!(states[SignalKind::Bgp.index()], SignalState::NoData);
        }
        steady(&mut d, 34..44, 10.0, 10.0, 1000.0);
        let events = d.finish(Round(44));
        let bgp: Vec<_> = events
            .iter()
            .filter(|e| e.signal == SignalKind::Bgp)
            .collect();
        assert_eq!(bgp.len(), 1, "one continuous BGP outage: {bgp:?}");
        assert_eq!(bgp[0].start, Round(20));
        assert_eq!(
            bgp[0].end,
            Round(34),
            "closes at feed recovery, not during the gap"
        );
    }

    #[test]
    fn stale_bgp_feed_leaves_scan_signals_live() {
        // Feed gating is per signal: with the BGP feed stale, a genuine
        // scan-visible outage must still fire on FBS/IPS.
        let mut d = detector();
        steady(&mut d, 0..20, 10.0, 10.0, 1000.0);
        for r in 20..25 {
            d.observe_feeds(
                Round(r),
                EntityRound {
                    bgp: Some(10.0),
                    fbs: Some(2.0),
                    ips: Some(100.0),
                },
                RoundQuality::Ok,
                stale_bgp(),
            );
        }
        steady(&mut d, 25..35, 10.0, 10.0, 1000.0);
        let events = d.finish(Round(35));
        assert!(events.iter().any(|e| e.signal == SignalKind::Ips));
        assert!(events.iter().any(|e| e.signal == SignalKind::Fbs));
        assert!(events.iter().all(|e| e.signal != SignalKind::Bgp));
    }

    #[test]
    fn fresh_feeds_match_observe_quality_exactly() {
        let mut a = detector();
        let mut b = detector();
        for r in 0..40 {
            let input = EntityRound {
                bgp: Some(if (25..30).contains(&r) { 5.0 } else { 10.0 }),
                fbs: Some(if (20..24).contains(&r) { 4.0 } else { 10.0 }),
                ips: Some(if (20..24).contains(&r) { 400.0 } else { 1000.0 }),
            };
            let q = if r % 7 == 0 {
                RoundQuality::Degraded
            } else {
                RoundQuality::Ok
            };
            let sa = a.observe_quality(Round(r), input, q);
            let sb = b.observe_feeds(Round(r), input, q, SignalQuality::FRESH);
            assert_eq!(sa, sb, "round {r}");
        }
        assert_eq!(a.finish(Round(40)), b.finish(Round(40)));
    }

    #[test]
    fn signal_quality_mask_and_freshness() {
        assert!(SignalQuality::FRESH.is_fresh());
        assert!(!stale_bgp().is_fresh());
        let input = EntityRound {
            bgp: Some(10.0),
            fbs: Some(5.0),
            ips: Some(500.0),
        };
        assert_eq!(SignalQuality::FRESH.mask(input), input);
        let masked = stale_bgp().mask(input);
        assert_eq!(masked.bgp, None);
        assert_eq!(masked.fbs, input.fbs);
        assert_eq!(masked.ips, input.ips);
        // Geo/delegation staleness is handled upstream: no detector mask.
        let geo_stale = SignalQuality {
            geo: FeedStatus::Stale(2),
            delegations: FeedStatus::Missing,
            ..SignalQuality::FRESH
        };
        assert!(!geo_stale.is_fresh());
        assert_eq!(geo_stale.mask(input), input);
        assert_eq!(SignalQuality::default(), SignalQuality::FRESH);
    }

    #[test]
    fn persisted_detector_resumes_bit_identically() {
        // Interrupt a detector mid-outage (open outage, partially warmed
        // window, one closed event) and restore it: both copies must
        // produce identical states for the remaining rounds and identical
        // final event lists, min_ratio bits included.
        let mut d = detector();
        steady(&mut d, 0..20, 10.0, 10.0, 1000.0);
        for r in 20..23 {
            d.observe(
                Round(r),
                EntityRound {
                    bgp: Some(10.0),
                    fbs: Some(10.0),
                    ips: Some(300.0),
                },
            );
        }
        steady(&mut d, 23..26, 10.0, 10.0, 1000.0);
        // Interrupt inside a second, still-open outage.
        for r in 26..28 {
            d.observe(
                Round(r),
                EntityRound {
                    bgp: Some(0.0),
                    fbs: Some(1.0),
                    ips: Some(50.0),
                },
            );
        }

        let mut w = fbs_types::ByteWriter::new();
        d.persist(&mut w);
        let bytes = w.into_bytes();
        let mut r = fbs_types::ByteReader::new(&bytes);
        let mut restored = Detector::restore(&mut r).unwrap();
        r.expect_exhausted().unwrap();

        for round in 28..45 {
            let input = EntityRound {
                bgp: Some(10.0),
                fbs: Some(10.0),
                ips: Some(if round < 32 { 50.0 } else { 1000.0 }),
            };
            let sa = d.observe(Round(round), input);
            let sb = restored.observe(Round(round), input);
            assert_eq!(sa, sb, "round {round} diverged after restore");
        }
        let original = d.finish(Round(45));
        let resumed = restored.finish(Round(45));
        assert_eq!(original.len(), resumed.len());
        for (a, b) in original.iter().zip(&resumed) {
            assert_eq!(a.entity, b.entity);
            assert_eq!(a.signal, b.signal);
            assert_eq!((a.start, a.end), (b.start, b.end));
            assert_eq!(a.min_ratio.to_bits(), b.min_ratio.to_bits());
        }
    }

    #[test]
    fn restore_rejects_tampered_state() {
        let d = detector();
        let mut w = fbs_types::ByteWriter::new();
        d.persist(&mut w);
        let mut bytes = w.into_bytes();
        // Corrupt the thresholds region: entity tag (1) + ASN (4) puts the
        // first threshold f64 at offset 5; an all-ones pattern is NaN.
        for b in bytes.iter_mut().skip(5).take(8) {
            *b = 0xFF;
        }
        let mut r = fbs_types::ByteReader::new(&bytes);
        assert!(Detector::restore(&mut r).is_err());
    }

    #[test]
    fn regional_thresholds_are_more_sensitive_for_ips() {
        // A 15% dip: below regional (90%) but not AS (80%) threshold.
        let run = |thresholds: Thresholds| {
            let mut d = Detector::with_window(
                EntityId::Region(fbs_types::Oblast::Kherson),
                thresholds,
                12,
                4,
            );
            steady(&mut d, 0..20, 10.0, 10.0, 1000.0);
            for r in 20..25 {
                d.observe(
                    Round(r),
                    EntityRound {
                        bgp: Some(10.0),
                        fbs: Some(10.0),
                        ips: Some(850.0),
                    },
                );
            }
            d.finish(Round(25))
        };
        assert!(run(Thresholds::as_level()).is_empty());
        assert!(run(Thresholds::regional())
            .iter()
            .any(|e| e.signal == SignalKind::Ips));
    }
}

//! Seasonal prediction over passive background-radiation volume.
//!
//! Chocolatine (Guillot et al., arXiv 1906.04426) fits S-ARIMA to per-AS
//! darknet traffic and flags outages when the observed volume falls far
//! below the prediction. IBR is strongly diurnal, so the load-bearing part
//! of that model is the *seasonal* term; this module implements the
//! ARIMA-or-simpler end of the spectrum the paper's evaluation justifies —
//! a **seasonal median**: one bucket per hour-of-day slot (12 two-hour
//! rounds), each remembering the last seven days' volume for that slot.
//! The prediction for a round is the median of its bucket, and an outage
//! opens when `volume / prediction` drops below the threshold.
//!
//! Degradation rules mirror the active side's handling of dark feeds:
//!
//! * **Dark darknet** ([`SeasonalPredictor::observe_dark`]): the collector
//!   itself is down. The baseline freezes and no outage opens or closes —
//!   collector silence is never read as a country-wide outage (PR 4's
//!   dark-BGP rule, transplanted).
//! * **Open outage**: samples taken *during* a detected outage do not
//!   enter the baseline, so a long outage cannot drag the prediction down
//!   and end itself spuriously — the passive analogue of the zero-BGP
//!   flag on the active side.

use fbs_types::codec::{ByteReader, ByteWriter, Persist};
use fbs_types::{FbsError, Round, ROUNDS_PER_DAY};

/// One detected passive-signal outage period for one entity.
///
/// `start` is the first round below threshold; `end` is exclusive. The
/// entity is implied by which predictor produced the event (the core maps
/// one predictor per AS).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IbrEvent {
    /// First round in outage.
    pub start: Round,
    /// First round back above threshold (exclusive bound).
    pub end: Round,
    /// Deepest observed volume-to-prediction ratio during the period.
    pub min_ratio: f64,
}

impl IbrEvent {
    /// Duration in rounds.
    pub fn rounds(&self) -> u32 {
        self.end.0.saturating_sub(self.start.0)
    }

    /// Whether `round` falls inside the period.
    pub fn contains(&self, round: Round) -> bool {
        round >= self.start && round < self.end
    }
}

impl Persist for IbrEvent {
    fn persist(&self, w: &mut ByteWriter) {
        self.start.persist(w);
        self.end.persist(w);
        w.put_f64(self.min_ratio);
    }
    fn restore(r: &mut ByteReader<'_>) -> fbs_types::Result<Self> {
        Ok(IbrEvent {
            start: Round::restore(r)?,
            end: Round::restore(r)?,
            min_ratio: r.get_f64()?,
        })
    }
}

/// How one round looked to the darknet collector — the unit of the
/// per-AS IBR ledger.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IbrRoundStatus {
    /// The collector observed this round's volume.
    Observed,
    /// The collector was dark; the predictor froze.
    Dark,
}

impl Persist for IbrRoundStatus {
    fn persist(&self, w: &mut ByteWriter) {
        w.put_u8(match self {
            IbrRoundStatus::Observed => 0,
            IbrRoundStatus::Dark => 1,
        });
    }
    fn restore(r: &mut ByteReader<'_>) -> fbs_types::Result<Self> {
        match r.get_u8()? {
            0 => Ok(IbrRoundStatus::Observed),
            1 => Ok(IbrRoundStatus::Dark),
            other => Err(FbsError::Io {
                reason: format!("invalid ibr round status {other:#x}"),
            }),
        }
    }
}

/// The predictor's verdict for one observed round.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IbrVerdict {
    /// Baseline not ready yet; no detection possible.
    Warmup,
    /// Volume within the seasonal expectation.
    Normal,
    /// Volume below threshold × prediction — outage open at this round.
    Outage,
}

/// Seasonal ring for one hour-of-day slot: the last
/// [`SeasonalPredictor::HISTORY_DAYS`] volumes seen at this slot.
#[derive(Debug, Clone, PartialEq)]
struct SeasonBucket {
    ring: Vec<f64>,
    head: usize,
    filled: usize,
}

impl SeasonBucket {
    fn new(window: usize) -> Self {
        SeasonBucket {
            ring: vec![0.0; window],
            head: 0,
            filled: 0,
        }
    }

    fn push(&mut self, v: f64) {
        self.ring[self.head] = v;
        self.head = (self.head + 1) % self.ring.len();
        self.filled = (self.filled + 1).min(self.ring.len());
    }

    /// Median of the filled samples, `None` until any sample is present.
    ///
    /// Sorts a stack copy of the filled samples (before wrap-around they
    /// sit at the ring's front; after it, the whole ring is filled), so an
    /// observed round allocates nothing. [`Persist::restore`] admits only
    /// rings of [`SeasonalPredictor::HISTORY_DAYS`] samples, which is what
    /// bounds the copy.
    fn median(&self) -> Option<f64> {
        let mut buf = [0.0f64; SeasonalPredictor::HISTORY_DAYS];
        let xs = buf.get_mut(..self.filled)?;
        xs.copy_from_slice(self.ring.get(..self.filled)?);
        xs.sort_unstable_by(f64::total_cmp);
        let mid = xs.len() / 2;
        match xs.len() {
            0 => None,
            n if n % 2 == 1 => Some(xs[mid]),
            _ => Some((xs[mid - 1] + xs[mid]) / 2.0),
        }
    }

    /// The allocating median this bucket used to compute: the reference
    /// [`SeasonBucket::median`] is checked against.
    #[cfg(test)]
    fn median_reference(&self) -> Option<f64> {
        if self.filled == 0 {
            return None;
        }
        let mut xs: Vec<f64> = if self.filled == self.ring.len() {
            self.ring.clone()
        } else {
            self.ring[..self.filled].to_vec()
        };
        xs.sort_unstable_by(f64::total_cmp);
        let mid = xs.len() / 2;
        Some(if xs.len() % 2 == 1 {
            xs[mid]
        } else {
            (xs[mid - 1] + xs[mid]) / 2.0
        })
    }
}

impl Persist for SeasonBucket {
    fn persist(&self, w: &mut ByteWriter) {
        self.ring.persist(w);
        self.head.persist(w);
        self.filled.persist(w);
    }
    fn restore(r: &mut ByteReader<'_>) -> fbs_types::Result<Self> {
        let ring = Vec::<f64>::restore(r)?;
        let head = usize::restore(r)?;
        let filled = usize::restore(r)?;
        if ring.len() != SeasonalPredictor::HISTORY_DAYS
            || head >= ring.len()
            || filled > ring.len()
        {
            return Err(FbsError::Io {
                reason: format!(
                    "inconsistent season bucket: ring {}, head {head}, filled {filled}",
                    ring.len()
                ),
            });
        }
        Ok(SeasonBucket { ring, head, filled })
    }
}

/// The seasonal-median passive outage detector for one entity (one AS in
/// the core wiring).
///
/// Feed it every round in order: [`observe`](Self::observe) with the
/// round's IBR volume, or [`observe_dark`](Self::observe_dark) when the
/// collector was down. Call [`finalize`](Self::finalize) once at campaign
/// end to close a still-open outage.
#[derive(Debug, Clone, PartialEq)]
pub struct SeasonalPredictor {
    /// Outage threshold: open when `volume / prediction < threshold`.
    threshold: f64,
    /// Observed rounds required before detection may fire.
    warmup: u32,
    /// One ring per hour-of-day slot.
    buckets: Vec<SeasonBucket>,
    /// Observed (non-dark) rounds so far.
    rounds_seen: u32,
    /// Open outage: `(start, min_ratio)`.
    open: Option<(Round, f64)>,
    /// Closed outage periods, in detection order.
    events: Vec<IbrEvent>,
}

impl SeasonalPredictor {
    /// Seasonal slots per cycle: one per two-hour round of the day.
    pub const SLOTS: usize = ROUNDS_PER_DAY as usize;
    /// Days of history each slot remembers.
    pub const HISTORY_DAYS: usize = 7;
    /// Default outage threshold on the volume-to-prediction ratio.
    pub const DEFAULT_THRESHOLD: f64 = 0.5;
    /// Default warm-up: one full history window (7 days of rounds).
    pub const DEFAULT_WARMUP: u32 = (Self::SLOTS * Self::HISTORY_DAYS) as u32;
    /// Samples a slot needs before its median counts as a prediction.
    const MIN_SLOT_SAMPLES: usize = 3;

    /// A predictor with the default threshold and warm-up.
    pub fn new() -> Self {
        Self::with_params(Self::DEFAULT_THRESHOLD, Self::DEFAULT_WARMUP)
    }

    /// A predictor with explicit threshold (in `(0, 1)`) and warm-up.
    pub fn with_params(threshold: f64, warmup: u32) -> Self {
        assert!(
            threshold > 0.0 && threshold < 1.0,
            "threshold must be in (0, 1)"
        );
        SeasonalPredictor {
            threshold,
            warmup,
            buckets: (0..Self::SLOTS)
                .map(|_| SeasonBucket::new(Self::HISTORY_DAYS))
                .collect(),
            rounds_seen: 0,
            open: None,
            events: Vec::new(),
        }
    }

    /// The seasonal prediction for `round`, if its slot has enough history.
    pub fn prediction(&self, round: Round) -> Option<f64> {
        let bucket = &self.buckets[round.0 as usize % Self::SLOTS];
        if bucket.filled < Self::MIN_SLOT_SAMPLES {
            return None;
        }
        bucket.median()
    }

    /// Whether enough observed rounds have passed for detection to fire.
    pub fn warmed_up(&self) -> bool {
        self.rounds_seen >= self.warmup
    }

    /// Whether an outage is currently open.
    pub fn outage_open(&self) -> bool {
        self.open.is_some()
    }

    /// Closed outage periods so far (an open one is excluded until
    /// [`finalize`](Self::finalize) or recovery closes it).
    pub fn events(&self) -> &[IbrEvent] {
        &self.events
    }

    /// Feeds one observed round's volume and returns the verdict.
    ///
    /// During an open outage the sample is *not* added to the baseline, so
    /// the prediction stays at its pre-outage level for as long as the
    /// outage lasts.
    pub fn observe(&mut self, round: Round, volume: u64) -> IbrVerdict {
        let vol = volume as f64;
        let prediction = if self.warmed_up() {
            self.prediction(round)
        } else {
            None
        };
        self.rounds_seen = self.rounds_seen.saturating_add(1);
        let Some(baseline) = prediction else {
            // No prediction yet: learn, never detect.
            self.bucket_mut(round).push(vol);
            return IbrVerdict::Warmup;
        };
        // A zero baseline means this slot historically radiates nothing —
        // silence is then expected, not an outage (and the guard keeps the
        // ratio NaN-free on all-zero series).
        let ratio = if baseline > 0.0 { vol / baseline } else { 1.0 };
        if ratio < self.threshold {
            match &mut self.open {
                Some((_, min_ratio)) => *min_ratio = min_ratio.min(ratio),
                None => self.open = Some((round, ratio)),
            }
            IbrVerdict::Outage
        } else {
            self.close_open(round);
            self.bucket_mut(round).push(vol);
            IbrVerdict::Normal
        }
    }

    /// Marks one round as collector-dark: the predictor freezes entirely —
    /// no baseline update, no warm-up progress, no outage transition.
    pub fn observe_dark(&mut self, _round: Round) -> IbrVerdict {
        match self.open {
            Some(_) => IbrVerdict::Outage,
            None if !self.warmed_up() => IbrVerdict::Warmup,
            None => IbrVerdict::Normal,
        }
    }

    /// Closes a still-open outage at campaign end (exclusive bound `end`)
    /// and returns all events in detection order.
    pub fn finalize(&mut self, end: Round) -> Vec<IbrEvent> {
        self.close_open(end);
        self.events.clone()
    }

    fn bucket_mut(&mut self, round: Round) -> &mut SeasonBucket {
        &mut self.buckets[round.0 as usize % Self::SLOTS]
    }

    fn close_open(&mut self, end: Round) {
        if let Some((start, min_ratio)) = self.open.take() {
            self.events.push(IbrEvent {
                start,
                end,
                min_ratio,
            });
        }
    }
}

impl Default for SeasonalPredictor {
    fn default() -> Self {
        Self::new()
    }
}

impl Persist for SeasonalPredictor {
    fn persist(&self, w: &mut ByteWriter) {
        w.put_f64(self.threshold);
        w.put_u32(self.warmup);
        self.buckets.persist(w);
        w.put_u32(self.rounds_seen);
        match &self.open {
            None => w.put_u8(0),
            Some((start, min_ratio)) => {
                w.put_u8(1);
                start.persist(w);
                w.put_f64(*min_ratio);
            }
        }
        self.events.persist(w);
    }
    fn restore(r: &mut ByteReader<'_>) -> fbs_types::Result<Self> {
        let threshold = r.get_f64()?;
        let warmup = r.get_u32()?;
        let buckets = Vec::<SeasonBucket>::restore(r)?;
        let rounds_seen = r.get_u32()?;
        let open = match r.get_u8()? {
            0 => None,
            1 => Some((Round::restore(r)?, r.get_f64()?)),
            other => {
                return Err(FbsError::Io {
                    reason: format!("invalid open-outage tag {other:#x}"),
                })
            }
        };
        let events = Vec::<IbrEvent>::restore(r)?;
        if buckets.len() != Self::SLOTS {
            return Err(FbsError::Io {
                reason: format!("seasonal predictor has {} slots", buckets.len()),
            });
        }
        if !(threshold > 0.0 && threshold < 1.0) {
            return Err(FbsError::Io {
                reason: format!("seasonal predictor threshold {threshold} outside (0, 1)"),
            });
        }
        Ok(SeasonalPredictor {
            threshold,
            warmup,
            buckets,
            rounds_seen,
            open,
            events,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip_eq<T: Persist + PartialEq + std::fmt::Debug>(value: &T) {
        let mut w = ByteWriter::new();
        value.persist(&mut w);
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        let back = T::restore(&mut r).expect("restore");
        r.expect_exhausted().expect("all bytes consumed");
        assert_eq!(&back, value);
    }

    /// A short-warmup predictor so tests don't need 84 rounds of preamble.
    fn quick() -> SeasonalPredictor {
        SeasonalPredictor::with_params(0.5, 36)
    }

    /// Feeds `n` rounds of a diurnal volume profile starting at `from`.
    fn feed_diurnal(p: &mut SeasonalPredictor, from: u32, n: u32) {
        for r in from..from + n {
            let slot = r % 12;
            let vol = 1000 + 100 * slot as u64;
            assert_ne!(p.observe(Round(r), vol), IbrVerdict::Outage);
        }
    }

    #[test]
    fn warmup_then_prediction_tracks_the_season() {
        let mut p = quick();
        feed_diurnal(&mut p, 0, 48);
        assert!(p.warmed_up());
        // Slot 3's history is a constant 1300 — the median must equal it.
        assert_eq!(p.prediction(Round(48 + 3)), Some(1300.0));
        assert_eq!(p.observe(Round(48), 1000), IbrVerdict::Normal);
    }

    #[test]
    fn deep_drop_opens_and_recovery_closes_an_event() {
        let mut p = quick();
        feed_diurnal(&mut p, 0, 48);
        for r in 48..54 {
            assert_eq!(p.observe(Round(r), 10), IbrVerdict::Outage);
        }
        assert!(p.outage_open());
        feed_diurnal(&mut p, 54, 6);
        assert!(!p.outage_open());
        let events = p.finalize(Round(60));
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].start, Round(48));
        assert_eq!(events[0].end, Round(54));
        assert!(events[0].min_ratio < 0.02);
    }

    #[test]
    fn baseline_freezes_during_an_outage() {
        let mut p = quick();
        feed_diurnal(&mut p, 0, 48);
        let before = p.prediction(Round(48));
        // A very long total outage: two full weeks of silence.
        for r in 48..48 + 168 {
            assert_eq!(p.observe(Round(r), 0), IbrVerdict::Outage, "round {r}");
        }
        // The prediction never adapted to the outage floor.
        assert_eq!(p.prediction(Round(48 + 168)), before);
        let events = p.finalize(Round(48 + 168));
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].rounds(), 168);
    }

    #[test]
    fn dark_collector_freezes_instead_of_detecting() {
        let mut p = quick();
        feed_diurnal(&mut p, 0, 48);
        let before = p.clone();
        for r in 48..60 {
            assert_eq!(p.observe_dark(Round(r)), IbrVerdict::Normal);
        }
        // Bit-for-bit frozen: no state moved while the collector was dark.
        assert_eq!(p, before);
        // And detection still works when observation resumes.
        assert_eq!(p.observe(Round(60), 0), IbrVerdict::Outage);
    }

    #[test]
    fn dark_rounds_do_not_close_an_open_outage() {
        let mut p = quick();
        feed_diurnal(&mut p, 0, 48);
        assert_eq!(p.observe(Round(48), 0), IbrVerdict::Outage);
        for r in 49..55 {
            assert_eq!(p.observe_dark(Round(r)), IbrVerdict::Outage);
        }
        assert!(p.outage_open());
        feed_diurnal(&mut p, 55, 5);
        let events = p.finalize(Round(60));
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].end, Round(55));
    }

    #[test]
    fn zero_baseline_slot_never_fires() {
        let mut p = SeasonalPredictor::with_params(0.5, 12);
        for r in 0..120 {
            let v = p.observe(Round(r), 0);
            assert_ne!(v, IbrVerdict::Outage, "round {r}");
        }
        assert!(p.finalize(Round(120)).is_empty());
    }

    #[test]
    fn finalize_closes_an_open_outage_at_the_end_bound() {
        let mut p = quick();
        feed_diurnal(&mut p, 0, 48);
        for r in 48..50 {
            p.observe(Round(r), 0);
        }
        let events = p.finalize(Round(50));
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].end, Round(50));
    }

    #[test]
    fn predictor_state_roundtrips() {
        let mut p = quick();
        feed_diurnal(&mut p, 0, 50);
        p.observe(Round(50), 0);
        roundtrip_eq(&p);
        let fresh = SeasonalPredictor::new();
        roundtrip_eq(&fresh);
    }

    #[test]
    fn event_and_status_roundtrip() {
        roundtrip_eq(&IbrEvent {
            start: Round(10),
            end: Round(22),
            min_ratio: 0.03,
        });
        roundtrip_eq(&IbrRoundStatus::Observed);
        roundtrip_eq(&IbrRoundStatus::Dark);
    }

    proptest::proptest! {
        /// The stack-copy median equals the allocating reference bit for
        /// bit on any ring: empty, partly filled, full, or wrapped one or
        /// more times, over any `f64` bit pattern (NaNs, infinities and
        /// signed zeros included) as well as volume-like values.
        #[test]
        fn stack_median_matches_the_allocating_reference(
            bits in proptest::collection::vec(proptest::prelude::any::<u64>(), 0..30),
            volumes in proptest::collection::vec(0.0f64..1e9, 0..30),
        ) {
            for samples in [bits.into_iter().map(f64::from_bits).collect::<Vec<_>>(), volumes] {
                let mut bucket = SeasonBucket::new(SeasonalPredictor::HISTORY_DAYS);
                proptest::prop_assert_eq!(bucket.median(), None);
                for v in samples {
                    bucket.push(v);
                    proptest::prop_assert_eq!(
                        bucket.median().map(f64::to_bits),
                        bucket.median_reference().map(f64::to_bits)
                    );
                }
            }
        }
    }

    #[test]
    fn a_restored_ring_must_hold_a_week() {
        let mut w = ByteWriter::new();
        vec![1.0f64; SeasonalPredictor::HISTORY_DAYS + 1].persist(&mut w);
        0usize.persist(&mut w);
        3usize.persist(&mut w);
        let bytes = w.into_bytes();
        assert!(SeasonBucket::restore(&mut ByteReader::new(&bytes)).is_err());
    }

    #[test]
    #[should_panic(expected = "threshold")]
    fn threshold_of_one_is_rejected() {
        let _ = SeasonalPredictor::with_params(1.0, 12);
    }
}

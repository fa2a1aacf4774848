//! The assembled output of a campaign run.

use crate::classify::ClassificationOutcome;
use fbs_feeds::{FeedHealth, TaggedQuarantine};
use fbs_signals::{EntityId, IbrEvent, IbrRoundStatus, OutageEvent, SignalSeries};
use fbs_trinocular::ioda::IodaReport;
use fbs_types::codec::{ByteReader, ByteWriter, Persist};
use fbs_types::{
    Asn, BlockId, FeedKind, FeedStatus, MonthId, Oblast, Round, RoundQuality, VantageId,
};
use std::collections::BTreeMap;

/// Full per-round signal series of one tracked entity.
#[derive(Debug, Clone)]
pub struct EntitySeries {
    /// Routed /24 blocks (or 0/1 for a block entity).
    pub bgp: SignalSeries,
    /// Active eligible blocks (or 0/1).
    pub fbs: SignalSeries,
    /// Responsive addresses.
    pub ips: SignalSeries,
}

impl EntitySeries {
    pub(crate) fn new(start: Round) -> Self {
        EntitySeries {
            bgp: SignalSeries::new(start),
            fbs: SignalSeries::new(start),
            ips: SignalSeries::new(start),
        }
    }
}

impl Persist for EntitySeries {
    fn persist(&self, w: &mut ByteWriter) {
        self.bgp.persist(w);
        self.fbs.persist(w);
        self.ips.persist(w);
    }
    fn restore(r: &mut ByteReader<'_>) -> fbs_types::Result<Self> {
        Ok(EntitySeries {
            bgp: SignalSeries::restore(r)?,
            fbs: SignalSeries::restore(r)?,
            ips: SignalSeries::restore(r)?,
        })
    }
}

/// Monthly RTT aggregate of one AS.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct MonthlyRtt {
    /// Sum of block-level mean RTTs observed, nanoseconds.
    pub sum_ns: u64,
    /// Number of observations.
    pub count: u64,
}

impl MonthlyRtt {
    /// Mean RTT in milliseconds, `None` when no observations.
    pub fn mean_ms(&self) -> Option<f64> {
        if self.count == 0 {
            None
        } else {
            Some(self.sum_ns as f64 / self.count as f64 / 1e6)
        }
    }
}

impl Persist for MonthlyRtt {
    fn persist(&self, w: &mut ByteWriter) {
        w.put_u64(self.sum_ns);
        w.put_u64(self.count);
    }
    fn restore(r: &mut ByteReader<'_>) -> fbs_types::Result<Self> {
        Ok(MonthlyRtt {
            sum_ns: r.get_u64()?,
            count: r.get_u64()?,
        })
    }
}

/// Per-oblast, per-month aggregates over the oblast's *regional* blocks.
#[derive(Debug, Clone, Copy, Default)]
pub struct OblastMonth {
    /// Sum over measured rounds of responsive addresses.
    pub responsive_sum: u64,
    /// Measured rounds this month.
    pub measured_rounds: u32,
    /// Sum over measured rounds of active eligible blocks.
    pub active_block_sum: u64,
    /// Regional blocks assigned to this oblast.
    pub regional_blocks: u32,
    /// Regional geolocated addresses (monthly snapshot).
    pub regional_ips: u64,
    /// Blocks meeting the FBS eligibility (E(b) ≥ 3).
    pub fbs_eligible: u32,
    /// Blocks meeting Trinocular eligibility (E(b) ≥ 15 ∧ A > 0.1).
    pub trin_eligible: u32,
    /// Trinocular-eligible blocks with likely-indeterminate belief (A < 0.3).
    pub trin_indeterminate: u32,
}

impl OblastMonth {
    /// Mean responsive addresses per measured round.
    pub fn mean_responsive(&self) -> f64 {
        if self.measured_rounds == 0 {
            0.0
        } else {
            self.responsive_sum as f64 / self.measured_rounds as f64
        }
    }

    /// Mean active blocks per measured round.
    pub fn mean_active_blocks(&self) -> f64 {
        if self.measured_rounds == 0 {
            0.0
        } else {
            self.active_block_sum as f64 / self.measured_rounds as f64
        }
    }
}

impl Persist for OblastMonth {
    fn persist(&self, w: &mut ByteWriter) {
        w.put_u64(self.responsive_sum);
        w.put_u32(self.measured_rounds);
        w.put_u64(self.active_block_sum);
        w.put_u32(self.regional_blocks);
        w.put_u64(self.regional_ips);
        w.put_u32(self.fbs_eligible);
        w.put_u32(self.trin_eligible);
        w.put_u32(self.trin_indeterminate);
    }
    fn restore(r: &mut ByteReader<'_>) -> fbs_types::Result<Self> {
        Ok(OblastMonth {
            responsive_sum: r.get_u64()?,
            measured_rounds: r.get_u32()?,
            active_block_sum: r.get_u64()?,
            regional_blocks: r.get_u32()?,
            regional_ips: r.get_u64()?,
            fbs_eligible: r.get_u32()?,
            trin_eligible: r.get_u32()?,
            trin_indeterminate: r.get_u32()?,
        })
    }
}

/// The per-round, per-feed staleness ledger of a campaign.
///
/// One status per round per feed in [`FeedKind::ALL`] order; every vector
/// is empty when the feed layer is off (`feed_plan: None`), and exactly
/// campaign-length when it is on. A round's status is what the pipeline
/// *settled on* after its carry-forward decision: `Fresh` when the round
/// was served by an accepted delivery of the feed's current cadence
/// period, `Stale(age)` when carried data `age` cadence periods old
/// served it, `Missing` when the feed has never delivered at all.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FeedLedger {
    /// Per-feed status vectors, indexed by [`FeedKind::index`].
    pub statuses: [Vec<FeedStatus>; 3],
}

impl FeedLedger {
    /// Whether the ledger recorded anything (feed layer on).
    pub fn is_empty(&self) -> bool {
        self.statuses.iter().all(|v| v.is_empty())
    }

    /// One feed's full status history.
    pub fn of(&self, kind: FeedKind) -> &[FeedStatus] {
        &self.statuses[kind.index()]
    }

    /// The status of one feed at one round (`None` out of range or when
    /// the feed layer was off).
    pub fn status_of(&self, kind: FeedKind, round: Round) -> Option<FeedStatus> {
        self.statuses[kind.index()].get(round.0 as usize).copied()
    }

    /// Rounds where `kind`'s status satisfies the predicate.
    pub fn rounds_where(
        &self,
        kind: FeedKind,
        mut pred: impl FnMut(FeedStatus) -> bool,
    ) -> Vec<Round> {
        self.statuses[kind.index()]
            .iter()
            .enumerate()
            .filter(|(_, s)| pred(**s))
            .map(|(r, _)| Round(r as u32))
            .collect()
    }
}

impl Persist for FeedLedger {
    fn persist(&self, w: &mut ByteWriter) {
        for v in &self.statuses {
            v.persist(w);
        }
    }
    fn restore(r: &mut ByteReader<'_>) -> fbs_types::Result<Self> {
        Ok(FeedLedger {
            statuses: [
                Vec::<FeedStatus>::restore(r)?,
                Vec::<FeedStatus>::restore(r)?,
                Vec::<FeedStatus>::restore(r)?,
            ],
        })
    }
}

/// One vantage point's per-round quality and throughput ledger.
///
/// Multi-vantage campaigns keep one ledger per roster entry, updated
/// *every* round — including rounds the vantage was masked out of the
/// quorum — so a vantage blackout is visible in the report exactly where
/// it happened rather than inferred from fused gaps. The signal-to-noise
/// view ([`VantageLedger::snr`]) follows the paper's Fig. 27 reading:
/// mean responsive addresses over the noise around that mean.
#[derive(Debug, Clone, PartialEq)]
pub struct VantageLedger {
    /// Roster position (stable across the run).
    pub id: VantageId,
    /// The vantage's name (its fault-RNG domain key).
    pub name: String,
    /// Per-round *effective* quality, indexed by round number: the
    /// vantage's own fault-plan verdict, forced to
    /// [`RoundQuality::Unusable`] on rounds it sat offline.
    pub quality: Vec<RoundQuality>,
    /// Rounds the vantage was offline outright.
    pub missing_rounds: Vec<Round>,
    /// Per-round total responsive addresses the vantage observed across
    /// all blocks (`0` on masked rounds).
    pub responsive_total: Vec<u64>,
    /// Block-rounds where this vantage's reachability vote disagreed with
    /// the quorum verdict — a persistent dissenter is a sick path.
    pub dissent_block_rounds: u64,
}

impl VantageLedger {
    pub(crate) fn new(id: VantageId, name: String) -> Self {
        VantageLedger {
            id,
            name,
            quality: Vec::new(),
            missing_rounds: Vec::new(),
            responsive_total: Vec::new(),
            dissent_block_rounds: 0,
        }
    }

    /// Rounds this vantage cast quorum votes in.
    pub fn usable_rounds(&self) -> usize {
        self.quality.iter().filter(|q| q.is_usable()).count()
    }

    /// Rounds measured through measurable injected loss.
    pub fn degraded_rounds(&self) -> usize {
        self.quality
            .iter()
            .filter(|q| **q == RoundQuality::Degraded)
            .count()
    }

    /// Rounds masked out of the quorum (offline or catastrophic loss).
    pub fn unusable_rounds(&self) -> usize {
        self.quality
            .iter()
            .filter(|q| **q == RoundQuality::Unusable)
            .count()
    }

    /// Signal-to-noise ratio of the vantage's responsive-address series
    /// over its usable rounds: mean divided by standard deviation (the
    /// Fig. 27 sense — how steady the vantage's view of the targets is).
    /// `None` with fewer than two usable rounds or zero variance.
    pub fn snr(&self) -> Option<f64> {
        let usable: Vec<f64> = self
            .quality
            .iter()
            .zip(&self.responsive_total)
            .filter(|(q, _)| q.is_usable())
            .map(|(_, t)| *t as f64)
            .collect();
        if usable.len() < 2 {
            return None;
        }
        // fbs-lint: allow(float-reduction-order) sequential sum over a Vec built in round order
        let mean = usable.iter().sum::<f64>() / usable.len() as f64;
        let var =
            // fbs-lint: allow(float-reduction-order) sequential sum over a Vec built in round order
            usable.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / (usable.len() - 1) as f64;
        let sd = var.sqrt();
        (sd > 0.0).then(|| mean / sd)
    }
}

impl Persist for VantageLedger {
    fn persist(&self, w: &mut ByteWriter) {
        self.id.persist(w);
        self.name.persist(w);
        self.quality.persist(w);
        self.missing_rounds.persist(w);
        self.responsive_total.persist(w);
        w.put_u64(self.dissent_block_rounds);
    }
    fn restore(r: &mut ByteReader<'_>) -> fbs_types::Result<Self> {
        Ok(VantageLedger {
            id: VantageId::restore(r)?,
            name: String::restore(r)?,
            quality: Vec::<RoundQuality>::restore(r)?,
            missing_rounds: Vec::<Round>::restore(r)?,
            responsive_total: Vec::<u64>::restore(r)?,
            dissent_block_rounds: r.get_u64()?,
        })
    }
}

/// One AS's passive background-radiation ledger.
///
/// IBR campaigns keep one ledger per AS, updated *every* round — including
/// rounds where every active vantage was `Unusable` — because the darknet
/// listens regardless of whether the scanner can transmit. `volume` is the
/// per-round aggregate IBR packet volume attributed to the AS (zero while
/// the collector was dark), `status` records whether the collector itself
/// observed the round, and `events` holds the seasonal predictor's
/// detections, closed out at campaign end.
#[derive(Debug, Clone, PartialEq)]
pub struct IbrLedger {
    /// The AS this ledger aggregates.
    pub asn: Asn,
    /// Per-round IBR volume, indexed by round number (`0` on dark rounds).
    pub volume: Vec<u64>,
    /// Per-round collector status, indexed by round number.
    pub status: Vec<IbrRoundStatus>,
    /// Passive outage detections of the seasonal predictor.
    pub events: Vec<IbrEvent>,
}

impl IbrLedger {
    pub(crate) fn new(asn: Asn) -> Self {
        IbrLedger {
            asn,
            volume: Vec::new(),
            status: Vec::new(),
            events: Vec::new(),
        }
    }

    /// Rounds the darknet collector actually observed.
    pub fn observed_rounds(&self) -> usize {
        self.status
            .iter()
            .filter(|s| **s == IbrRoundStatus::Observed)
            .count()
    }

    /// Rounds the darknet collector itself was dark.
    pub fn dark_rounds(&self) -> usize {
        self.status
            .iter()
            .filter(|s| **s == IbrRoundStatus::Dark)
            .count()
    }

    /// Whether `round` fell inside any detected passive outage.
    pub fn in_outage(&self, round: Round) -> bool {
        self.events.iter().any(|e| e.contains(round))
    }

    /// Signal-to-noise ratio of the observed volume series (the Fig. 27
    /// sense: mean over the noise around that mean). `None` with fewer
    /// than two observed rounds or zero variance.
    pub fn snr(&self) -> Option<f64> {
        let observed: Vec<f64> = self
            .status
            .iter()
            .zip(&self.volume)
            .filter(|(s, _)| **s == IbrRoundStatus::Observed)
            .map(|(_, v)| *v as f64)
            .collect();
        if observed.len() < 2 {
            return None;
        }
        // fbs-lint: allow(float-reduction-order) sequential sum over a Vec built in round order
        let mean = observed.iter().sum::<f64>() / observed.len() as f64;
        let var = observed
            .iter()
            .map(|v| (v - mean) * (v - mean))
            // fbs-lint: allow(float-reduction-order) sequential sum over a Vec built in round order
            .sum::<f64>()
            / (observed.len() - 1) as f64;
        let sd = var.sqrt();
        (sd > 0.0).then(|| mean / sd)
    }
}

impl Persist for IbrLedger {
    fn persist(&self, w: &mut ByteWriter) {
        self.asn.persist(w);
        self.volume.persist(w);
        self.status.persist(w);
        self.events.persist(w);
    }
    fn restore(r: &mut ByteReader<'_>) -> fbs_types::Result<Self> {
        let ledger = IbrLedger {
            asn: Asn::restore(r)?,
            volume: Vec::<u64>::restore(r)?,
            status: Vec::<IbrRoundStatus>::restore(r)?,
            events: Vec::<IbrEvent>::restore(r)?,
        };
        if ledger.volume.len() != ledger.status.len() {
            return Err(fbs_types::FbsError::Io {
                reason: format!(
                    "ibr ledger of AS{} has {} volumes but {} statuses",
                    ledger.asn.0,
                    ledger.volume.len(),
                    ledger.status.len()
                ),
            });
        }
        Ok(ledger)
    }
}

/// One round's shard-supervision outcome counts.
///
/// Supervised campaigns record one summary per round; the counts are
/// derived from the journaled per-shard outcomes, so a resumed campaign
/// replays the same ledger byte for byte.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardRoundSummary {
    /// The round the summary describes.
    pub round: Round,
    /// Shards that completed on their first attempt.
    pub completed: u32,
    /// Shards that completed only after at least one retry.
    pub retried: u32,
    /// Total panicking attempts across all shards (isolated, retried).
    pub panicked: u32,
    /// Total attempts the deadline watchdog abandoned.
    pub timed_out: u32,
    /// Shards that exhausted their retry budget — their blocks were
    /// marked missing and the round downgraded.
    pub lost: u32,
}

impl Persist for ShardRoundSummary {
    fn persist(&self, w: &mut ByteWriter) {
        self.round.persist(w);
        w.put_u32(self.completed);
        w.put_u32(self.retried);
        w.put_u32(self.panicked);
        w.put_u32(self.timed_out);
        w.put_u32(self.lost);
    }
    fn restore(r: &mut ByteReader<'_>) -> fbs_types::Result<Self> {
        Ok(ShardRoundSummary {
            round: Round::restore(r)?,
            completed: r.get_u32()?,
            retried: r.get_u32()?,
            panicked: r.get_u32()?,
            timed_out: r.get_u32()?,
            lost: r.get_u32()?,
        })
    }
}

/// The campaign-wide shard-supervision ledger (present only when a shard
/// fault plan is configured).
#[derive(Clone)]
pub struct ShardLedger {
    /// Shards in the campaign's deterministic AS-aligned partition.
    pub shards: u32,
    /// One outcome summary per round, in round order.
    pub rounds: Vec<ShardRoundSummary>,
    /// Cumulative wall time each shard slot held a worker, nanoseconds,
    /// over the rounds this process measured: a round's shards count when
    /// the round is applied, so a measured round the runner never applied
    /// adds nothing. Diagnostic only: never persisted, and excluded from
    /// `Debug` so output comparisons across thread counts stay
    /// byte-identical.
    pub wall_ns: Vec<u64>,
}

impl ShardLedger {
    /// Total shard-rounds lost after exhausting retries.
    pub fn total_lost(&self) -> u64 {
        self.rounds.iter().map(|s| s.lost as u64).sum()
    }

    /// Total shards that needed at least one retry to complete.
    pub fn total_retried(&self) -> u64 {
        self.rounds.iter().map(|s| s.retried as u64).sum()
    }

    /// Total panicking attempts isolated by the supervisor.
    pub fn total_panicked(&self) -> u64 {
        self.rounds.iter().map(|s| s.panicked as u64).sum()
    }

    /// Total attempts abandoned by the deadline watchdog.
    pub fn total_timed_out(&self) -> u64 {
        self.rounds.iter().map(|s| s.timed_out as u64).sum()
    }

    /// Rounds in which at least one shard was lost.
    pub fn rounds_with_loss(&self) -> usize {
        self.rounds.iter().filter(|s| s.lost > 0).count()
    }
}

impl std::fmt::Debug for ShardLedger {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // `wall_ns` is wall-clock data and deliberately omitted: the
        // determinism tests compare report Debug strings across thread
        // counts, and supervision timing must never leak into them.
        f.debug_struct("ShardLedger")
            .field("shards", &self.shards)
            .field("rounds", &self.rounds)
            .finish_non_exhaustive()
    }
}

/// How often and how the vantages disagreed over a campaign.
///
/// All counters stay zero in single-vantage campaigns (there is nobody to
/// disagree with).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DisagreementSummary {
    /// Rounds in which at least one block was disputed or suppressed.
    pub rounds_with_disagreement: u32,
    /// Block-rounds reachable from some usable vantages but not all — the
    /// routing-damage signature a single vantage cannot see.
    pub some_not_all_block_rounds: u64,
    /// Block-rounds where a minority reachable claim was overridden by the
    /// quorum (the graceful-degradation counter: how often one vantage's
    /// view was *not* allowed to fabricate reachability on its own).
    pub quorum_suppressed_block_rounds: u64,
}

impl Persist for DisagreementSummary {
    fn persist(&self, w: &mut ByteWriter) {
        w.put_u32(self.rounds_with_disagreement);
        w.put_u64(self.some_not_all_block_rounds);
        w.put_u64(self.quorum_suppressed_block_rounds);
    }
    fn restore(r: &mut ByteReader<'_>) -> fbs_types::Result<Self> {
        Ok(DisagreementSummary {
            rounds_with_disagreement: r.get_u32()?,
            some_not_all_block_rounds: r.get_u64()?,
            quorum_suppressed_block_rounds: r.get_u64()?,
        })
    }
}

/// Everything a campaign run produces.
#[derive(Debug)]
pub struct CampaignReport {
    /// Rounds simulated.
    pub rounds: u32,
    /// Months covered.
    pub months: Vec<MonthId>,
    /// Outage events per AS (all blocks of the AS).
    pub as_events: BTreeMap<Asn, Vec<OutageEvent>>,
    /// Outage events per oblast (regional blocks only).
    pub region_events: BTreeMap<Oblast, Vec<OutageEvent>>,
    /// Outage events of individually tracked blocks.
    pub block_events: BTreeMap<BlockId, Vec<OutageEvent>>,
    /// The IODA baseline's report, when the baseline ran.
    pub ioda: Option<IodaReport>,
    /// Regional classification detail.
    pub classification: ClassificationOutcome,
    /// Full signal series of tracked entities.
    pub tracked: BTreeMap<EntityId, EntitySeries>,
    /// Monthly RTT aggregates of tracked ASes.
    pub rtt_monthly: BTreeMap<(Asn, MonthId), MonthlyRtt>,
    /// Per-oblast monthly aggregates.
    pub oblast_monthly: BTreeMap<(Oblast, MonthId), OblastMonth>,
    /// Same eligibility tallies over blocks *not* regional anywhere.
    pub non_regional_monthly: BTreeMap<MonthId, OblastMonth>,
    /// AS sizes in /24 blocks (for coverage CDFs).
    pub as_sizes: BTreeMap<Asn, usize>,
    /// Rounds with no measurement (vantage offline).
    pub missing_rounds: Vec<Round>,
    /// Per-round measurement quality (indexed by round number): `Ok` on a
    /// clean scan, `Degraded` under measurable injected loss, `Unusable`
    /// when the round carried no usable measurement (vantage offline or
    /// catastrophic loss).
    pub round_quality: Vec<RoundQuality>,
    /// Per-round per-feed staleness ledger (empty when the feed layer is
    /// off).
    pub feed_ledger: FeedLedger,
    /// Summary health per feed in [`FeedKind::ALL`] order (empty when the
    /// feed layer is off).
    pub feed_health: Vec<FeedHealth>,
    /// Every non-empty quarantine a feed delivery produced, in round
    /// order, for the quarantine report writer.
    pub feed_quarantines: Vec<TaggedQuarantine>,
    /// Per-vantage quality/throughput ledgers in roster order (empty in
    /// single-vantage campaigns).
    pub vantages: Vec<VantageLedger>,
    /// How often the vantages disagreed (all zeros in single-vantage
    /// campaigns).
    pub disagreement: DisagreementSummary,
    /// Per-AS passive background-radiation ledgers in AS order (empty when
    /// the IBR layer is off).
    pub ibr: Vec<IbrLedger>,
    /// The shard-supervision ledger (`None` when no shard fault plan is
    /// configured — unsupervised campaigns journal no shard outcomes).
    pub shard: Option<ShardLedger>,
}

impl CampaignReport {
    /// Total AS-level outage events.
    pub fn total_as_outages(&self) -> usize {
        self.as_events.values().map(|v| v.len()).sum()
    }

    /// ASes with at least one detected outage.
    pub fn ases_with_outages(&self) -> usize {
        self.as_events.values().filter(|v| !v.is_empty()).count()
    }

    /// All AS events flattened.
    pub fn all_as_events(&self) -> Vec<OutageEvent> {
        self.as_events.values().flatten().copied().collect()
    }

    /// Events of one oblast (empty slice when none).
    pub fn region_events_of(&self, oblast: Oblast) -> &[OutageEvent] {
        self.region_events
            .get(&oblast)
            .map(|v| v.as_slice())
            .unwrap_or(&[])
    }

    /// Mean responsive addresses across an oblast's regional blocks over a
    /// calendar year.
    pub fn yearly_mean_responsive(&self, oblast: Oblast, year: i32) -> f64 {
        let months: Vec<&OblastMonth> = self
            .oblast_monthly
            .iter()
            .filter(|((o, m), _)| *o == oblast && m.year() == year)
            .map(|(_, v)| v)
            .collect();
        if months.is_empty() {
            return 0.0;
        }
        months.iter().map(|m| m.mean_responsive()).sum::<f64>() / months.len() as f64
    }

    /// The tracked series of an entity, if tracked.
    pub fn series(&self, entity: EntityId) -> Option<&EntitySeries> {
        self.tracked.get(&entity)
    }

    /// The quality verdict of one round (`Ok` if out of range).
    pub fn quality_of(&self, round: Round) -> RoundQuality {
        self.round_quality
            .get(round.0 as usize)
            .copied()
            .unwrap_or_default()
    }

    /// Number of rounds scanned through measurable loss.
    pub fn degraded_rounds(&self) -> usize {
        self.round_quality
            .iter()
            .filter(|q| **q == RoundQuality::Degraded)
            .count()
    }

    /// Number of rounds carrying no usable measurement.
    pub fn unusable_rounds(&self) -> usize {
        self.round_quality
            .iter()
            .filter(|q| **q == RoundQuality::Unusable)
            .count()
    }

    /// The summary health ledger of one feed (`None` when the feed layer
    /// was off).
    pub fn feed_health_of(&self, kind: FeedKind) -> Option<&FeedHealth> {
        self.feed_health.iter().find(|h| h.kind == kind)
    }

    /// The quarantine report text for every feed delivery that lost
    /// records, ready for [`fbs_feeds::quarantine::write_report`]-style
    /// consumption.
    pub fn feed_quarantine_report(&self) -> String {
        fbs_feeds::render_report(&self.feed_quarantines)
    }

    /// One vantage's ledger by name (`None` in single-vantage campaigns
    /// or for an unknown name).
    pub fn vantage_ledger(&self, name: &str) -> Option<&VantageLedger> {
        self.vantages.iter().find(|v| v.name == name)
    }

    /// One AS's passive-radiation ledger (`None` when the IBR layer was
    /// off or the AS is unknown).
    pub fn ibr_ledger(&self, asn: Asn) -> Option<&IbrLedger> {
        self.ibr.iter().find(|l| l.asn == asn)
    }

    /// Total passive outage detections across all ASes.
    pub fn total_ibr_outages(&self) -> usize {
        self.ibr.iter().map(|l| l.events.len()).sum()
    }
}

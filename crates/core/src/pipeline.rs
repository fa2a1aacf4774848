//! The main campaign loop, structured for crash-safe execution.
//!
//! The monolithic loop is split along the journaling boundary:
//!
//! * [`measure_round`] — the *measurement* half: everything that touches
//!   the (faulty) wire. Its output is a [`RoundRecord`], the unit that
//!   goes into the write-ahead journal. Every campaign measures through
//!   one per-vantage loop: the configured roster, or for an empty roster
//!   one implicit vantage that journals what the paper's single vantage
//!   always did.
//! * [`apply_round`] — the *accumulation* half: month rollover,
//!   eligibility refresh, the passive-signal predictors, quorum fusion,
//!   detector feeds, trinocular belief updates and monthly tallies,
//!   driven purely by a [`RoundRecord`] plus the world's deterministic
//!   derived quantities, in one serial pass over the blocks. Replay after
//!   a crash runs exactly this function over journaled records, so a
//!   resumed campaign is bit-identical to an uninterrupted one.
//!
//! [`CampaignRunner`] owns the split state — immutable [`Statics`], the
//! persistable [`PipelineState`], the feed layer's derived [`FeedState`],
//! which is carried across rounds but never persisted, and the next
//! round's measured record — and drives `step_round()` until the cursor
//! is done, finishing each round on the calling thread while the shard
//! executor's helpers measure the next; [`Campaign::run`],
//! [`Campaign::run_checkpointed`] and [`Campaign::resume`] are thin
//! drivers over it.

use crate::checkpoint::{
    BlockObs, BlockSection, CheckpointPolicy, CheckpointStore, FeedObs, IbrObs, ResumeDiagnostics,
    RoundRecord, ShardOutcomeObs, VantageRound, FIXED_WIDTH_STATE_VERSION, IBR_STATE_VERSION,
    SHARD_STATE_VERSION, STATE_VERSION, UNION_STATE_VERSION,
};
use crate::classify::{
    campaign_months, classify_world, classify_world_with_snapshots, ClassificationOutcome,
};
use crate::config::CampaignConfig;
use crate::report::{
    CampaignReport, DisagreementSummary, EntitySeries, FeedLedger, IbrLedger, MonthlyRtt,
    OblastMonth, ShardLedger, ShardRoundSummary, VantageLedger,
};
use crate::shard::{self, ShardExec};
use fbs_feeds::{
    FeedHealth, FeedLoader, FeedOutcome, FeedQuarantine, RetryPolicy, TaggedQuarantine,
};
use fbs_geodb::GeoSnapshot;
use fbs_netsim::feedfaults::{self, BgpDumps};
use fbs_netsim::{
    faults, geo, ibr, BlockSpec, BlockTruth, FaultIntensity, FaultPlan, FeedFaultPlan, IbrConfig,
    VantageSpec, World, WorldRng,
};
use fbs_prober::{QualityConfig, RoundCursor};
use fbs_regional::Regionality;
use fbs_signals::{
    fuse_block, fuse_round_quality, ips_signal_usable, vantage_usable, BlockVote, Detector,
    EntityId, EntityRound, IbrRoundStatus, SeasonalPredictor, SignalQuality,
};
use fbs_trinocular::{assess_block, BlockBelief, IodaPlatform};
use fbs_types::codec::{ByteReader, ByteWriter, Persist};
use fbs_types::{
    Asn, FbsError, FeedKind, FeedStatus, MonthId, Oblast, Prefix, Round, RoundQuality, VantageId,
};
use std::collections::BTreeMap;
use std::path::Path;

/// How often the RIR delegation file is refetched, in rounds (daily: the
/// registries publish one delegated-extended file per day).
const DELEGATIONS_CADENCE: u32 = 12;

/// A configured campaign over a simulated world.
pub struct Campaign {
    world: World,
    config: CampaignConfig,
}

/// Rejects blocks owned by an AS that is not part of the world.
///
/// The world builder performs the same check, but a world assembled by
/// other means (deserialized, hand-built in a test, produced by a future
/// constructor) must not be able to panic the pipeline's AS indexing —
/// an unknown owner is a lookup failure, not a crash.
pub(crate) fn validate_block_owners(blocks: &[BlockSpec], known: &[Asn]) -> fbs_types::Result<()> {
    let known: std::collections::BTreeSet<Asn> = known.iter().copied().collect();
    for b in blocks {
        if !known.contains(&b.owner) {
            return Err(FbsError::not_found(format!(
                "block {} is owned by {}, which is not in the world's AS list",
                b.block, b.owner
            )));
        }
    }
    Ok(())
}

impl Campaign {
    /// Creates a campaign, validating the configuration and the world's
    /// block-ownership references eagerly.
    pub fn new(world: World, config: CampaignConfig) -> fbs_types::Result<Self> {
        config.validate()?;
        let as_list: Vec<Asn> = world.config().ases.iter().map(|a| a.asn).collect();
        validate_block_owners(world.blocks(), &as_list)?;
        if config.shard_mode() && world.blocks().is_empty() {
            // A supervised round record must carry at least one shard
            // outcome (the decoder rejects an empty list), so an empty
            // world cannot run under supervision.
            return Err(FbsError::config(
                "shard supervision requires a world with at least one block",
            ));
        }
        Ok(Campaign { world, config })
    }

    /// The underlying world.
    pub fn world(&self) -> &World {
        &self.world
    }

    /// The configuration.
    pub fn config(&self) -> &CampaignConfig {
        &self.config
    }

    /// Runs classification, the signal pipeline, detection and (optionally)
    /// the Trinocular/IODA baseline, producing the full report.
    pub fn run(&self) -> fbs_types::Result<CampaignReport> {
        let mut runner = self.runner()?;
        runner.run_to_end()?;
        runner.finish()
    }

    /// Like [`Campaign::run`], but journaling every round and snapshotting
    /// the pipeline state into `dir` so the campaign survives a crash.
    ///
    /// Any previous checkpoint in `dir` is discarded; use
    /// [`Campaign::resume`] to continue one instead.
    pub fn run_checkpointed(
        &self,
        dir: impl AsRef<Path>,
        policy: CheckpointPolicy,
    ) -> fbs_types::Result<CampaignReport> {
        let mut runner = self.runner_checkpointed(dir.as_ref(), policy)?;
        runner.run_to_end()?;
        runner.finish()
    }

    /// Resumes an interrupted checkpointed run from `dir` and carries it to
    /// completion with the default [`CheckpointPolicy`].
    ///
    /// The latest valid snapshot is loaded (a damaged one is quarantined),
    /// journal records past it are replayed, and scanning continues; the
    /// resulting report is bit-identical to an uninterrupted
    /// [`Campaign::run`]. An empty or missing `dir` degenerates to a fresh
    /// checkpointed run.
    pub fn resume(&self, dir: impl AsRef<Path>) -> fbs_types::Result<CampaignReport> {
        self.resume_with(dir, CheckpointPolicy::default())
            .map(|(report, _)| report)
    }

    /// [`Campaign::resume`] with an explicit policy, also reporting what
    /// recovery found (truncated journal tail, quarantined files, rounds
    /// replayed or healed).
    pub fn resume_with(
        &self,
        dir: impl AsRef<Path>,
        policy: CheckpointPolicy,
    ) -> fbs_types::Result<(CampaignReport, ResumeDiagnostics)> {
        let mut runner = self.runner_resumed(dir.as_ref(), policy)?;
        runner.run_to_end()?;
        let diagnostics = runner.diagnostics().clone();
        Ok((runner.finish()?, diagnostics))
    }

    /// An incremental runner with no durability (state lives in memory).
    pub fn runner(&self) -> fbs_types::Result<CampaignRunner<'_>> {
        let statics = Statics::build(self)?;
        let state = initial_state(&self.world, &self.config, &statics);
        let shard_wall_ns = vec![0u64; statics.shard.n_shards()];
        Ok(CampaignRunner {
            campaign: self,
            feeds: FeedState::cold(self),
            statics,
            state,
            store: None,
            diagnostics: ResumeDiagnostics::default(),
            ahead: None,
            shard_wall_ns,
        })
    }

    /// An incremental runner journaling into a fresh checkpoint directory.
    pub fn runner_checkpointed(
        &self,
        dir: &Path,
        policy: CheckpointPolicy,
    ) -> fbs_types::Result<CampaignRunner<'_>> {
        let mut runner = self.runner()?;
        runner.store = Some(CheckpointStore::fresh(dir, policy)?);
        Ok(runner)
    }

    /// An incremental runner restored from an existing checkpoint
    /// directory: snapshot loaded, journal replayed, ready to continue.
    pub fn runner_resumed(
        &self,
        dir: &Path,
        policy: CheckpointPolicy,
    ) -> fbs_types::Result<CampaignRunner<'_>> {
        let statics = Statics::build(self)?;
        let mut diagnostics = ResumeDiagnostics::default();
        let snapshot = CheckpointStore::load_snapshot(dir, &mut diagnostics)?;

        // Decode the snapshot before the journal streams past: its cursor
        // says which records replay needs. A payload that does not decode
        // (or does not match this world) leaves the journal alone to
        // rebuild the state; it is quarantined only once the journal has
        // validated, so a journal error leaves the snapshot in place.
        let snapshot_state =
            snapshot.map(|(version, payload)| decode_state(&payload, version, &statics));
        let completed = match &snapshot_state {
            Some(Ok(state)) => state.cursor.completed() as usize,
            _ => 0,
        };

        // Decode and contiguity-check every recovered record, keeping only
        // those at or past the snapshot cursor. The WAL layer already
        // CRC-validated every payload, so a decode failure here is
        // logic-level corruption (foreign file, schema mismatch).
        let mut journaled = 0usize;
        let mut records: Vec<RoundRecord> = Vec::new();
        let mut store = CheckpointStore::open(dir, policy, &mut diagnostics, |raw| {
            let i = journaled;
            let record = RoundRecord::decode(raw).map_err(|e| {
                FbsError::corrupt_journal(format!("record {i} undecodable: {e}"), i as u64)
            })?;
            if record.round != Round(i as u32) {
                return Err(FbsError::corrupt_journal(
                    format!(
                        "record {i} describes round {}, journal is not contiguous",
                        record.round.0
                    ),
                    i as u64,
                ));
            }
            if i >= completed {
                records.push(record);
            }
            journaled += 1;
            Ok(())
        })?;
        if journaled as u64 > statics.rounds as u64 {
            return Err(FbsError::corrupt_journal(
                format!(
                    "journal holds {journaled} records for a {}-round campaign",
                    statics.rounds
                ),
                journaled as u64,
            ));
        }

        let mut state = match snapshot_state {
            Some(Ok(state)) => state,
            Some(Err(_)) => {
                diagnostics.snapshot_loaded = false;
                diagnostics.snapshot_quarantined = store.quarantine_snapshot_file()?;
                initial_state(&self.world, &self.config, &statics)
            }
            None => initial_state(&self.world, &self.config, &statics),
        };

        // The feed state is derived, never persisted: it starts cold here
        // and serves the heal loop and then the live rounds, in ascending
        // round order.
        let mut feeds = FeedState::cold(self);
        if journaled < completed {
            // The journal lags the snapshot (its tail was truncated after
            // the snapshot was written). The missing rounds are already in
            // the state; re-measure them — determinism makes the records
            // identical — and heal the journal so it stays authoritative.
            for i in journaled..completed {
                let (record, _) =
                    measure_round(&self.world, &statics, feeds.as_mut(), Round(i as u32));
                store.append(&record)?;
                diagnostics.healed_rounds += 1;
            }
            store.synced()?;
        } else {
            for record in &records {
                apply_round(&self.world, &self.config, &statics, &mut state, record)?;
                diagnostics.replayed_rounds += 1;
            }
        }

        let shard_wall_ns = vec![0u64; statics.shard.n_shards()];
        Ok(CampaignRunner {
            campaign: self,
            feeds,
            statics,
            state,
            store: Some(store),
            diagnostics,
            ahead: None,
            shard_wall_ns,
        })
    }

    /// Convenience: run classification only (cheaper than a full run).
    pub fn classify_only(&self) -> ClassificationOutcome {
        classify_world(&self.world, &self.config.regionality)
    }
}

/// Everything the loop derives once from world + config and never mutates.
pub(crate) struct Statics {
    classification: ClassificationOutcome,
    as_list: Vec<Asn>,
    block_as: Vec<usize>,
    /// Which oblast (if any) counts each block as regional.
    block_regional_oblast: Vec<Option<u8>>,
    tracked_block: Vec<Option<EntityId>>,
    tracked_as: Vec<Option<EntityId>>,
    rtt_tracked: Vec<Option<Asn>>,
    /// Whether each block's AS is RTT-tracked: the only blocks whose RTT
    /// the measurement keeps, because the only ones whose RTT is read.
    rtt_block: Vec<bool>,
    months: Vec<MonthId>,
    rounds: u32,
    n_blocks: usize,
    // Feed-delivery machinery (only populated when `cfg.feed_plan` is set).
    feed_plan: Option<FeedFaultPlan>,
    feed_rng: WorldRng,
    /// Pristine geolocation feed text per campaign month.
    geo_texts: Vec<String>,
    /// Pristine delegated-extended feed text (world-static).
    delegations_text: String,
    /// The scanning vantages, never empty: the resolved roster, or the
    /// implicit vantage of an empty roster. Each entry carries its
    /// effective fault plan and its own RNG domain.
    vantages: Vec<VantageStatic>,
    /// Whether `vantages` holds the implicit vantage of an empty roster.
    /// It stays as invisible as the paper's single vantage: it journals as
    /// the record's `blocks` section, its own verdict is the round's
    /// quality, and it keeps no ledger.
    implicit_vantage: bool,
    /// The passive background-radiation layer (`None` when IBR is off):
    /// the validated config plus the disjoint `"ibr"` RNG domain, so the
    /// darknet never perturbs the wire or feed draws.
    ibr: Option<IbrStatic>,
    /// The shard executor: the deterministic AS-aligned partition of the
    /// block space, the resolved worker count, and — when a shard fault
    /// plan is configured — the supervision budget and the disjoint
    /// `"shards"` RNG domain its injected faults draw from.
    shard: ShardExec,
}

/// The resolved IBR layer: config plus its own world-RNG domain.
pub(crate) struct IbrStatic {
    config: IbrConfig,
    rng: WorldRng,
    /// Each block's stable emission gain (`ibr::block_gain`), drawn once.
    gain: Vec<f64>,
}

/// The feed layer's carried state: the BGP dump stream and the loader
/// with its memo of each feed's last judged delivery.
///
/// World, config and round determine all of it, so it is never journaled
/// or snapshotted; a resumed runner starts it cold. It is only ever asked
/// for ascending rounds (the dump stream cannot rewind).
pub(crate) struct FeedState {
    bgp: BgpDumps,
    loader: FeedLoader,
}

impl FeedState {
    /// A fresh feed state, or `None` when the feed layer is off.
    fn cold(campaign: &Campaign) -> Option<Self> {
        let cfg = &campaign.config;
        cfg.feed_plan.is_some().then(|| FeedState {
            bgp: BgpDumps::new(&campaign.world),
            loader: FeedLoader::new(RetryPolicy::default(), cfg.feed_tolerance),
        })
    }
}

/// One scanning vantage — a roster entry, or the implicit vantage of an
/// empty roster — with its per-vantage derivations resolved once.
pub(crate) struct VantageStatic {
    spec: VantageSpec,
    /// The vantage's effective fault plan: its own, else the campaign-wide
    /// plan, else a clean path.
    plan: FaultPlan,
    /// The vantage's independent fault-RNG domain (keyed by name; the
    /// plain `"faults"` domain for the implicit vantage).
    rng: WorldRng,
}

impl Statics {
    pub(crate) fn build(campaign: &Campaign) -> fbs_types::Result<Self> {
        let world = &campaign.world;
        let cfg = &campaign.config;
        let rounds = world.rounds();

        // Feed delivery: when a feed-fault plan is configured, the monthly
        // geolocation snapshots that drive classification come through the
        // (lossy) feed channel — an undelivered month freezes on the last
        // accepted snapshot instead of silently using data that never
        // arrived. Without a plan the pristine snapshots are used directly.
        let feed_plan = cfg.feed_plan.clone();
        if let Some(plan) = &feed_plan {
            plan.validate()?;
        }
        let feed_rng = feedfaults::feed_domain(world.rng());
        let month_list = campaign_months(world);
        let (classification, geo_texts, delegations_text) = match &feed_plan {
            None => (
                classify_world(world, &cfg.regionality),
                Vec::new(),
                String::new(),
            ),
            Some(plan) => {
                let geo_texts: Vec<String> = month_list
                    .iter()
                    .map(|m| feedfaults::geo_feed_text(world, *m))
                    .collect();
                let delegations_text = feedfaults::delegations_feed_text(world);
                let mut snapshots: Vec<GeoSnapshot> = Vec::with_capacity(month_list.len());
                let mut last_good: Option<GeoSnapshot> = None;
                for (mi, month) in month_list.iter().enumerate() {
                    let due = Round(world.month_rounds(*month).start);
                    let mut delivered = None;
                    for attempt in 0..RetryPolicy::default().attempts_allowed() {
                        if let Some(text) = feedfaults::deliver(
                            plan,
                            &feed_rng,
                            FeedKind::Geo,
                            due,
                            attempt,
                            &geo_texts[mi],
                        ) {
                            delivered = Some(text);
                            break;
                        }
                    }
                    let accepted = delivered.and_then(|text| {
                        let result = fbs_feeds::ingest_geo(&text, &cfg.feed_tolerance);
                        result.accepted.then_some(result.value)
                    });
                    let snap = match accepted {
                        Some(s) => {
                            last_good = Some(s.clone());
                            s
                        }
                        // Carry the last accepted snapshot forward. Before
                        // any delivery at all, fall back to the bootstrap
                        // database the scanner shipped with: the first
                        // month's pristine snapshot.
                        None => last_good
                            .clone()
                            .unwrap_or_else(|| geo::geo_snapshot(world, month_list[0])),
                    };
                    snapshots.push(snap);
                }
                (
                    classify_world_with_snapshots(world, &cfg.regionality, &snapshots),
                    geo_texts,
                    delegations_text,
                )
            }
        };

        // Vantages: each roster entry resolves its effective fault plan
        // (vantage-specific, else campaign-wide, else clean) and draws
        // from its own name-keyed RNG domain, so adding or removing one
        // vantage never perturbs another's measurements. An empty roster
        // scans through one implicit vantage: the campaign-wide plan on
        // the plain `"faults"` stream (the oracle-path mirror of
        // `FaultyTransport`), with no path latency.
        let campaign_plan = || cfg.fault_plan.clone().unwrap_or_else(FaultPlan::none);
        let implicit_vantage = cfg.vantages.is_empty();
        let vantages: Vec<VantageStatic> = if implicit_vantage {
            vec![VantageStatic {
                spec: VantageSpec::new("implicit"),
                plan: campaign_plan(),
                rng: faults::fault_domain(world.rng()),
            }]
        } else {
            cfg.vantages
                .iter()
                .map(|spec| VantageStatic {
                    spec: spec.clone(),
                    plan: spec.fault_plan.clone().unwrap_or_else(campaign_plan),
                    rng: spec.fault_domain(&world.rng()),
                })
                .collect()
        };
        for vs in &vantages {
            vs.spec.validate()?;
            vs.plan.validate()?;
        }

        // Passive background radiation: validated once, drawing from its
        // own RNG domain — campaigns without IBR never touch it and stay
        // bit-identical to pre-IBR builds.
        let ibr = cfg
            .ibr
            .as_ref()
            .map(|c| -> fbs_types::Result<IbrStatic> {
                c.validate()?;
                let rng = ibr::ibr_domain(world.rng());
                Ok(IbrStatic {
                    config: c.clone(),
                    rng,
                    gain: (0..world.blocks().len())
                        .map(|bi| ibr::block_gain(&rng, bi))
                        .collect(),
                })
            })
            .transpose()?;

        // Static block/AS indexes. Ownership was validated in
        // `Campaign::new`, but stay panic-free regardless of how the
        // campaign was obtained.
        let blocks = world.blocks();
        let n_blocks = blocks.len();
        let as_list: Vec<Asn> = world.config().ases.iter().map(|a| a.asn).collect();
        let as_pos: BTreeMap<Asn, usize> =
            as_list.iter().enumerate().map(|(i, a)| (*a, i)).collect();
        let block_as: Vec<usize> = blocks
            .iter()
            .map(|b| {
                as_pos.get(&b.owner).copied().ok_or_else(|| {
                    FbsError::not_found(format!(
                        "block {} is owned by {}, which is not in the world's AS list",
                        b.block, b.owner
                    ))
                })
            })
            .collect::<fbs_types::Result<_>>()?;
        let block_regional_oblast: Vec<Option<u8>> = blocks
            .iter()
            .map(|b| {
                for o in fbs_types::ALL_OBLASTS {
                    if let Some(rc) = classification.regions.get(&o) {
                        if rc.blocks.get(&b.block).map(|(v, _)| *v) == Some(Regionality::Regional) {
                            return Some(o.index() as u8);
                        }
                    }
                }
                None
            })
            .collect();

        // Tracked entity lookup tables.
        let mut tracked_block: Vec<Option<EntityId>> = vec![None; n_blocks];
        let mut tracked_as: Vec<Option<EntityId>> = vec![None; as_list.len()];
        for entity in &cfg.tracked {
            match entity {
                EntityId::Block(b) => {
                    if let Some(bi) = world.block_index(*b) {
                        tracked_block[bi] = Some(*entity);
                    }
                }
                EntityId::As(a) => {
                    if let Some(&ai) = as_pos.get(a) {
                        tracked_as[ai] = Some(*entity);
                    }
                }
                EntityId::Region(_) => {}
            }
        }
        let rtt_tracked: Vec<Option<Asn>> = as_list
            .iter()
            .map(|a| cfg.rtt_tracked.contains(a).then_some(*a))
            .collect();
        let rtt_block: Vec<bool> = block_as
            .iter()
            .map(|&ai| rtt_tracked[ai].is_some())
            .collect();

        // The shard executor. `FBS_THREADS` overrides the configured
        // worker count at runtime; thread count affects scheduling only,
        // never a single output byte.
        let threads = crate::config::resolve_threads(
            cfg.threads,
            std::env::var("FBS_THREADS").ok().as_deref(),
        )?;
        let owners: Vec<Asn> = blocks.iter().map(|b| b.owner).collect();
        let shard = ShardExec::build(&owners, threads, cfg.shard_plan.clone(), world.rng());

        let months = classification.months.clone();
        Ok(Statics {
            classification,
            as_list,
            block_as,
            block_regional_oblast,
            tracked_block,
            tracked_as,
            rtt_tracked,
            rtt_block,
            months,
            rounds,
            n_blocks,
            feed_plan,
            feed_rng,
            geo_texts,
            delegations_text,
            vantages,
            implicit_vantage,
            ibr,
            shard,
        })
    }

    /// The configured roster: empty when the campaign scans through the
    /// implicit vantage.
    fn roster(&self) -> &[VantageStatic] {
        if self.implicit_vantage {
            &[]
        } else {
            &self.vantages
        }
    }
}

/// The loop's entire mutable state — everything that must survive a crash
/// for a resumed campaign to be bit-identical to an uninterrupted one.
///
/// Everything *not* here is either in [`Statics`] (pure derivation from
/// world + config) or per-round scratch recomputed inside
/// [`apply_round`].
pub(crate) struct PipelineState {
    cursor: RoundCursor,
    current_month: Option<usize>,
    // Monthly pools / eligibility gates.
    pool: Vec<u16>,
    fbs_eligible: Vec<bool>,
    trin_eligible: Vec<bool>,
    trin_indet: Vec<bool>,
    trin_avail: Vec<f64>,
    ips_usable_as: Vec<bool>,
    as_fbs_count: Vec<u32>,
    as_trin_count: Vec<u32>,
    reg_fbs_count: Vec<u32>,
    // Detection state.
    as_detectors: Vec<Detector>,
    region_detectors: Vec<Detector>,
    block_detectors: BTreeMap<EntityId, Detector>,
    beliefs: Vec<BlockBelief>,
    ioda: Option<IodaPlatform>,
    // Report accumulators.
    tracked: BTreeMap<EntityId, EntitySeries>,
    rtt_monthly: BTreeMap<(Asn, MonthId), MonthlyRtt>,
    oblast_monthly: BTreeMap<(Oblast, MonthId), OblastMonth>,
    non_regional_monthly: BTreeMap<MonthId, OblastMonth>,
    missing_rounds: Vec<Round>,
    round_quality: Vec<RoundQuality>,
    // Feed staleness state (sized but inert when the feed layer is off).
    /// Rounds since the last accepted delivery per feed; `None` = never.
    feed_ages: Vec<Option<u32>>,
    feed_ledger: FeedLedger,
    feed_retries: Vec<u32>,
    feed_rejections: Vec<u32>,
    /// Last known routing state per block, for carry-forward when the BGP
    /// feed loses a block's record.
    last_routed: Vec<bool>,
    feed_quarantines: Vec<TaggedQuarantine>,
    // Multi-vantage state (empty / zeroed when the roster is empty).
    /// One ledger per roster entry, in roster order.
    vantage_ledgers: Vec<VantageLedger>,
    /// Running disagreement counters.
    disagreement: DisagreementSummary,
    // Passive-radiation state (empty when the IBR layer is off).
    /// One seasonal predictor per AS, in AS order.
    ibr_predictors: Vec<SeasonalPredictor>,
    /// One volume/status ledger per AS, in AS order (events stay empty
    /// until [`CampaignRunner::finish`] closes the predictors out).
    ibr_ledgers: Vec<IbrLedger>,
    // Shard-supervision state (inert when no shard plan is configured).
    /// Whether this campaign journals shard outcomes (a shard fault plan
    /// is set). Flags the snapshot's shard section.
    shard_supervised: bool,
    /// One supervision summary per completed round, in round order —
    /// checkpointed so a killed-and-resumed campaign replays the ledger
    /// byte-identically.
    shard_rounds: Vec<ShardRoundSummary>,
}

impl PipelineState {
    /// Whether this state carries the passive background-radiation layer.
    fn ibr_mode(&self) -> bool {
        !self.ibr_predictors.is_empty()
    }

    /// Serializes the state in the union layout: the base fields, the
    /// vantage tail (possibly an empty roster), then the IBR and shard
    /// sections, each behind a presence flag.
    pub(crate) fn persist_into(&self, w: &mut ByteWriter) {
        // The version travels in the snapshot header, not the payload.
        // fbs-schema: writes(7)
        self.cursor.persist(w);
        self.current_month.persist(w);
        self.pool.persist(w);
        self.fbs_eligible.persist(w);
        self.trin_eligible.persist(w);
        self.trin_indet.persist(w);
        self.trin_avail.persist(w);
        self.ips_usable_as.persist(w);
        self.as_fbs_count.persist(w);
        self.as_trin_count.persist(w);
        self.reg_fbs_count.persist(w);
        self.as_detectors.persist(w);
        self.region_detectors.persist(w);
        self.block_detectors.persist(w);
        self.beliefs.persist(w);
        self.ioda.persist(w);
        self.tracked.persist(w);
        self.rtt_monthly.persist(w);
        self.oblast_monthly.persist(w);
        self.non_regional_monthly.persist(w);
        self.missing_rounds.persist(w);
        self.round_quality.persist(w);
        self.feed_ages.persist(w);
        self.feed_ledger.persist(w);
        self.feed_retries.persist(w);
        self.feed_rejections.persist(w);
        self.last_routed.persist(w);
        self.feed_quarantines.persist(w);
        self.vantage_ledgers.persist(w);
        self.disagreement.persist(w);
        w.put_bool(self.ibr_mode());
        if self.ibr_mode() {
            self.ibr_predictors.persist(w);
            self.ibr_ledgers.persist(w);
        }
        w.put_bool(self.shard_supervised);
        if self.shard_supervised {
            self.shard_rounds.persist(w);
        }
    }

    /// Deserializes a state of the given schema version (the version
    /// decides which tails follow the base fields).
    pub(crate) fn restore_from(r: &mut ByteReader<'_>, version: u32) -> fbs_types::Result<Self> {
        let mut state = PipelineState {
            cursor: RoundCursor::restore(r)?,
            current_month: Option::<usize>::restore(r)?,
            pool: Vec::<u16>::restore(r)?,
            fbs_eligible: Vec::<bool>::restore(r)?,
            trin_eligible: Vec::<bool>::restore(r)?,
            trin_indet: Vec::<bool>::restore(r)?,
            trin_avail: Vec::<f64>::restore(r)?,
            ips_usable_as: Vec::<bool>::restore(r)?,
            as_fbs_count: Vec::<u32>::restore(r)?,
            as_trin_count: Vec::<u32>::restore(r)?,
            reg_fbs_count: Vec::<u32>::restore(r)?,
            as_detectors: Vec::<Detector>::restore(r)?,
            region_detectors: Vec::<Detector>::restore(r)?,
            block_detectors: BTreeMap::<EntityId, Detector>::restore(r)?,
            beliefs: Vec::<BlockBelief>::restore(r)?,
            ioda: Option::<IodaPlatform>::restore(r)?,
            tracked: BTreeMap::<EntityId, EntitySeries>::restore(r)?,
            rtt_monthly: BTreeMap::<(Asn, MonthId), MonthlyRtt>::restore(r)?,
            oblast_monthly: BTreeMap::<(Oblast, MonthId), OblastMonth>::restore(r)?,
            non_regional_monthly: BTreeMap::<MonthId, OblastMonth>::restore(r)?,
            missing_rounds: Vec::<Round>::restore(r)?,
            round_quality: Vec::<RoundQuality>::restore(r)?,
            feed_ages: Vec::<Option<u32>>::restore(r)?,
            feed_ledger: FeedLedger::restore(r)?,
            feed_retries: Vec::<u32>::restore(r)?,
            feed_rejections: Vec::<u32>::restore(r)?,
            last_routed: Vec::<bool>::restore(r)?,
            feed_quarantines: Vec::<TaggedQuarantine>::restore(r)?,
            vantage_ledgers: Vec::new(),
            disagreement: DisagreementSummary::default(),
            ibr_predictors: Vec::new(),
            ibr_ledgers: Vec::new(),
            shard_supervised: false,
            shard_rounds: Vec::new(),
        };
        // A legacy snapshot stops at the base fields; acceptance is the
        // absence of every tail below. fbs-schema: accepts(2)
        if version == STATE_VERSION {
            state.vantage_ledgers = Vec::<VantageLedger>::restore(r)?;
            state.disagreement = DisagreementSummary::restore(r)?;
            if state.vantage_ledgers.is_empty() {
                return Err(FbsError::corrupt_snapshot(format!(
                    "version-{STATE_VERSION} snapshot with an empty vantage roster"
                )));
            }
        }
        if version == IBR_STATE_VERSION {
            state.vantage_ledgers = Vec::<VantageLedger>::restore(r)?;
            state.disagreement = DisagreementSummary::restore(r)?;
            state.ibr_predictors = Vec::<SeasonalPredictor>::restore(r)?;
            state.ibr_ledgers = Vec::<IbrLedger>::restore(r)?;
            if state.ibr_predictors.is_empty() {
                return Err(FbsError::corrupt_snapshot(format!(
                    "version-{IBR_STATE_VERSION} snapshot without IBR state"
                )));
            }
            if state.ibr_predictors.len() != state.ibr_ledgers.len() {
                return Err(FbsError::corrupt_snapshot(format!(
                    "snapshot carries {} ibr predictors but {} ledgers",
                    state.ibr_predictors.len(),
                    state.ibr_ledgers.len()
                )));
            }
        }
        if version == SHARD_STATE_VERSION
            || version == FIXED_WIDTH_STATE_VERSION
            || version == UNION_STATE_VERSION
        {
            state.vantage_ledgers = Vec::<VantageLedger>::restore(r)?;
            state.disagreement = DisagreementSummary::restore(r)?;
            if r.get_bool()? {
                state.ibr_predictors = Vec::<SeasonalPredictor>::restore(r)?;
                state.ibr_ledgers = Vec::<IbrLedger>::restore(r)?;
                if state.ibr_predictors.is_empty()
                    || state.ibr_predictors.len() != state.ibr_ledgers.len()
                {
                    return Err(FbsError::corrupt_snapshot(format!(
                        "version-{version} snapshot flags IBR but carries \
                         {} predictors and {} ledgers",
                        state.ibr_predictors.len(),
                        state.ibr_ledgers.len()
                    )));
                }
            }
            // Version 5 always carries the shard section; the union layouts
            // flag it.
            state.shard_supervised = version == SHARD_STATE_VERSION || r.get_bool()?;
            if state.shard_supervised {
                state.shard_rounds = Vec::<ShardRoundSummary>::restore(r)?;
            }
        }
        Ok(state)
    }

    /// Decodes a snapshot payload of the given schema version, requiring
    /// full consumption.
    pub(crate) fn decode(payload: &[u8], version: u32) -> fbs_types::Result<Self> {
        let mut r = ByteReader::new(payload);
        let state = Self::restore_from(&mut r, version)?;
        r.expect_exhausted()?;
        Ok(state)
    }

    /// Rejects a restored state that cannot belong to this campaign.
    fn validate_against(&self, statics: &Statics) -> fbs_types::Result<()> {
        let n_as = statics.as_list.len();
        let checks = [
            (self.cursor.total() == statics.rounds, "cursor span"),
            (self.pool.len() == statics.n_blocks, "pool length"),
            (self.fbs_eligible.len() == statics.n_blocks, "fbs gates"),
            (self.trin_eligible.len() == statics.n_blocks, "trin gates"),
            (self.trin_indet.len() == statics.n_blocks, "indet gates"),
            (self.trin_avail.len() == statics.n_blocks, "availability"),
            (self.beliefs.len() == statics.n_blocks, "beliefs"),
            (self.ips_usable_as.len() == n_as, "ips gates"),
            (self.as_fbs_count.len() == n_as, "as fbs counts"),
            (self.as_trin_count.len() == n_as, "as trin counts"),
            (self.as_detectors.len() == n_as, "as detectors"),
            (self.reg_fbs_count.len() == Oblast::COUNT, "region counts"),
            (
                self.region_detectors.len() == Oblast::COUNT,
                "region detectors",
            ),
            (
                self.round_quality.len() as u32 == self.cursor.completed(),
                "round-quality length",
            ),
            (self.feed_ages.len() == FeedKind::ALL.len(), "feed ages"),
            (
                self.feed_retries.len() == FeedKind::ALL.len(),
                "feed retries",
            ),
            (
                self.feed_rejections.len() == FeedKind::ALL.len(),
                "feed rejections",
            ),
            (self.last_routed.len() == statics.n_blocks, "routed memory"),
            (
                self.feed_ledger
                    .statuses
                    .iter()
                    .all(|v| v.is_empty() || v.len() as u32 == self.cursor.completed()),
                "feed-ledger length",
            ),
            (
                self.vantage_ledgers.len() == statics.roster().len(),
                "vantage roster size",
            ),
            (
                self.vantage_ledgers
                    .iter()
                    .zip(statics.roster())
                    .all(|(l, v)| l.name == v.spec.name),
                "vantage roster names",
            ),
            (
                self.vantage_ledgers.iter().all(|l| {
                    l.quality.len() as u32 == self.cursor.completed()
                        && l.responsive_total.len() as u32 == self.cursor.completed()
                }),
                "vantage-ledger length",
            ),
            (
                self.ibr_predictors.len() == statics.ibr.as_ref().map_or(0, |_| n_as),
                "ibr predictor count",
            ),
            (
                self.ibr_ledgers.len() == statics.ibr.as_ref().map_or(0, |_| n_as),
                "ibr ledger count",
            ),
            (
                self.ibr_ledgers
                    .iter()
                    .zip(&statics.as_list)
                    .all(|(l, a)| l.asn == *a),
                "ibr ledger ASes",
            ),
            (
                self.ibr_ledgers.iter().all(|l| {
                    l.volume.len() as u32 == self.cursor.completed()
                        && l.status.len() as u32 == self.cursor.completed()
                }),
                "ibr-ledger length",
            ),
            (
                self.shard_supervised == statics.shard.supervised(),
                "shard supervision mode",
            ),
            (
                if self.shard_supervised {
                    self.shard_rounds.len() as u32 == self.cursor.completed()
                } else {
                    self.shard_rounds.is_empty()
                },
                "shard-ledger length",
            ),
        ];
        for (ok, what) in checks {
            if !ok {
                return Err(FbsError::corrupt_snapshot(format!(
                    "snapshot does not match this campaign: {what} disagrees with the world"
                )));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
impl PipelineState {
    /// The read-only snapshot layout the pre-union writer chose for this
    /// state: version 5 under shard supervision, else version 4 with the
    /// passive signal, else version 3 with a vantage roster, else 2.
    pub(crate) fn legacy_version(&self) -> u32 {
        if self.shard_supervised {
            SHARD_STATE_VERSION
        } else if self.ibr_mode() {
            IBR_STATE_VERSION
        } else if !self.vantage_ledgers.is_empty() {
            STATE_VERSION
        } else {
            crate::checkpoint::LEGACY_STATE_VERSION
        }
    }

    /// The pre-union snapshot writer, kept as the test oracle for the
    /// read-only layouts: the base fields, then the tails that
    /// [`Self::legacy_version`] carries.
    pub(crate) fn persist_legacy(&self, w: &mut ByteWriter) {
        self.cursor.persist(w);
        self.current_month.persist(w);
        self.pool.persist(w);
        self.fbs_eligible.persist(w);
        self.trin_eligible.persist(w);
        self.trin_indet.persist(w);
        self.trin_avail.persist(w);
        self.ips_usable_as.persist(w);
        self.as_fbs_count.persist(w);
        self.as_trin_count.persist(w);
        self.reg_fbs_count.persist(w);
        self.as_detectors.persist(w);
        self.region_detectors.persist(w);
        self.block_detectors.persist(w);
        self.beliefs.persist(w);
        self.ioda.persist(w);
        self.tracked.persist(w);
        self.rtt_monthly.persist(w);
        self.oblast_monthly.persist(w);
        self.non_regional_monthly.persist(w);
        self.missing_rounds.persist(w);
        self.round_quality.persist(w);
        self.feed_ages.persist(w);
        self.feed_ledger.persist(w);
        self.feed_retries.persist(w);
        self.feed_rejections.persist(w);
        self.last_routed.persist(w);
        self.feed_quarantines.persist(w);
        if self.shard_supervised {
            self.vantage_ledgers.persist(w);
            self.disagreement.persist(w);
            w.put_bool(self.ibr_mode());
            if self.ibr_mode() {
                self.ibr_predictors.persist(w);
                self.ibr_ledgers.persist(w);
            }
            self.shard_rounds.persist(w);
        } else if self.ibr_mode() {
            self.vantage_ledgers.persist(w);
            self.disagreement.persist(w);
            self.ibr_predictors.persist(w);
            self.ibr_ledgers.persist(w);
        } else if !self.vantage_ledgers.is_empty() {
            self.vantage_ledgers.persist(w);
            self.disagreement.persist(w);
        }
    }
}

fn decode_state(
    payload: &[u8],
    version: u32,
    statics: &Statics,
) -> fbs_types::Result<PipelineState> {
    let state = PipelineState::decode(payload, version)?;
    state.validate_against(statics)?;
    Ok(state)
}

pub(crate) fn initial_state(
    world: &World,
    cfg: &CampaignConfig,
    statics: &Statics,
) -> PipelineState {
    let n_blocks = statics.n_blocks;
    let n_as = statics.as_list.len();
    let blocks = world.blocks();

    let mut tracked: BTreeMap<EntityId, EntitySeries> = BTreeMap::new();
    let mut block_detectors: BTreeMap<EntityId, Detector> = BTreeMap::new();
    for entity in &cfg.tracked {
        tracked.insert(*entity, EntitySeries::new(Round(0)));
        if let EntityId::Block(b) = entity {
            if world.block_index(*b).is_some() {
                block_detectors.insert(*entity, Detector::new(*entity, cfg.thresholds_as));
            }
        }
    }

    let as_detectors: Vec<Detector> = statics
        .as_list
        .iter()
        .map(|a| Detector::new(EntityId::As(*a), cfg.thresholds_as))
        .collect();
    let region_detectors: Vec<Detector> = fbs_types::ALL_OBLASTS
        .iter()
        .map(|o| Detector::new(EntityId::Region(*o), cfg.thresholds_region))
        .collect();

    let ioda = cfg.run_baseline.then(|| {
        let mut platform = IodaPlatform::new(cfg.ioda);
        for (ai, asn) in statics.as_list.iter().enumerate() {
            let total = statics.block_as.iter().filter(|&&a| a == ai).count();
            // IODA's any-presence oblast mapping.
            let oblasts: Vec<Oblast> = fbs_types::ALL_OBLASTS
                .iter()
                .copied()
                .filter(|o| {
                    statics
                        .classification
                        .as_histories
                        .contains_key(&(*asn, *o))
                })
                .collect();
            platform.register_as(*asn, total, oblasts);
        }
        platform
    });
    debug_assert_eq!(blocks.len(), n_blocks);

    PipelineState {
        cursor: RoundCursor::new(statics.rounds),
        current_month: None,
        pool: vec![0; n_blocks],
        fbs_eligible: vec![false; n_blocks],
        trin_eligible: vec![false; n_blocks],
        trin_indet: vec![false; n_blocks],
        trin_avail: vec![0.0; n_blocks],
        ips_usable_as: vec![true; n_as],
        as_fbs_count: vec![0; n_as],
        as_trin_count: vec![0; n_as],
        reg_fbs_count: vec![0; Oblast::COUNT],
        as_detectors,
        region_detectors,
        block_detectors,
        beliefs: vec![BlockBelief::new(); n_blocks],
        ioda,
        tracked,
        rtt_monthly: BTreeMap::new(),
        oblast_monthly: BTreeMap::new(),
        non_regional_monthly: BTreeMap::new(),
        missing_rounds: Vec::new(),
        round_quality: Vec::new(),
        feed_ages: vec![None; FeedKind::ALL.len()],
        feed_ledger: FeedLedger::default(),
        feed_retries: vec![0; FeedKind::ALL.len()],
        feed_rejections: vec![0; FeedKind::ALL.len()],
        last_routed: vec![false; n_blocks],
        feed_quarantines: Vec::new(),
        vantage_ledgers: statics
            .roster()
            .iter()
            .enumerate()
            .map(|(i, v)| VantageLedger::new(VantageId(i as u16), v.spec.name.clone()))
            .collect(),
        disagreement: DisagreementSummary::default(),
        ibr_predictors: match &statics.ibr {
            Some(_) => (0..n_as).map(|_| SeasonalPredictor::new()).collect(),
            None => Vec::new(),
        },
        ibr_ledgers: match &statics.ibr {
            Some(_) => statics.as_list.iter().map(|a| IbrLedger::new(*a)).collect(),
            None => Vec::new(),
        },
        shard_supervised: cfg.shard_mode(),
        shard_rounds: Vec::new(),
    }
}

/// A lost shard's journaled placeholder: zero responsive, unroutable, and
/// `routed_known: false` so the routing carry-forward treats the gap like
/// a lost BGP record rather than a withdrawal.
const LOST_BLOCK_OBS: BlockObs = BlockObs {
    responsive: 0,
    rtt_ns: 0,
    routed: false,
    routed_known: false,
};

/// One shard's measured slice of the round, produced inside a worker.
///
/// Every field is a pure function of `(seed, round, block range)` — no
/// shared state, no scheduling dependence — which is what lets a retried
/// shard reproduce a first try byte for byte. The task fills every field
/// in one pass over the range: each block's truth is evaluated once and
/// shared by every usable vantage and the darknet.
struct ShardChunk {
    /// Per-vantage observations for the range, indexed like
    /// `statics.vantages` (the implicit vantage of an empty roster
    /// included); a masked vantage's inner vector is empty.
    vantages: Vec<Vec<BlockObs>>,
    /// Per-block darknet volume for the range (empty when the IBR layer
    /// is off or the collector is dark this round).
    ibr: Vec<u64>,
}

/// Scanner re-probe passes per round (ZMap's `--retries`): none, so a
/// round's delivery rate and its quality verdict are those of a single
/// probe per address.
const SCAN_REPROBES: u32 = 0;

/// One block's scan through a vantage's fault-modelled path, the implicit
/// vantage's and each roster entry's alike: the block's true responsive
/// count (`truth`, evaluated once per block and round and shared by every
/// consumer) binomially thinned by the delivery rate, capped by ICMP rate
/// limiting, RTTs distorted by spikes and stretched by the vantage's path.
///
/// The RTT is kept only when `keep_rtt` (the block's AS is RTT-tracked,
/// `Statics::rtt_block`); every other block reports `0`, so live apply and
/// replay see the same record, and its `truth.rtt_ns` is not read (the
/// shard task draws none for it). Every draw is coordinate-addressed, so
/// skipping the truth's RTT draw and the spike draw moves no other.
#[allow(clippy::too_many_arguments)]
fn scan_block(
    truth: &BlockTruth,
    rng: &WorldRng,
    path_rtt_ns: u64,
    intensity: &FaultIntensity,
    round: Round,
    bi: usize,
    unknown: bool,
    keep_rtt: bool,
) -> BlockObs {
    let r = round.0 as u64;
    let responsive = intensity.thin_responsive(truth.responsive, SCAN_REPROBES, rng, r, bi as u64);
    let rtt_ns = if keep_rtt {
        truth
            .rtt_ns
            .saturating_add(path_rtt_ns)
            .saturating_add(intensity.extra_rtt_ns(rng, r, bi as u64))
    } else {
        0
    };
    BlockObs {
        responsive,
        rtt_ns,
        routed: truth.routed,
        routed_known: !unknown,
    }
}

/// Produces the journal record for `round`, with its per-shard wall times
/// (slot order; empty when the executor was bypassed): the measurement
/// half of the loop, and the only part that consults the faulty wire path.
///
/// It composes three steps, which the runner also calls apart to measure
/// the next round beside the current round's accumulation: the serial
/// [`measure_prelude`]; [`measure_beside`], which runs the pure per-range
/// task [`measure_range`] once per shard on the campaign's shard executor
/// (deterministic AS-aligned shards, each supervised: panic-isolated,
/// deadline-bounded, deterministically retried); and [`assemble_round`],
/// which merges the shards in roster (slot) order, so the journal bytes
/// are identical at any thread count. Wall times are runner diagnostics
/// only: never journaled, never compared.
fn measure_round(
    world: &World,
    statics: &Statics,
    feeds: Option<&mut FeedState>,
    round: Round,
) -> (RoundRecord, Vec<u64>) {
    let prelude = measure_prelude(world, statics, feeds, round);
    let ((), ordered) = measure_beside(world, statics, &prelude, || ());
    assemble_round(statics, prelude, ordered)
}

/// Runs `first` on the calling thread while the shard executor's helpers
/// measure `prelude`'s round, then returns `first`'s value and the
/// round's supervised shards in roster (slot) order. With nothing for the
/// executor to do and no supervision ledger to feed, it is skipped, and
/// the skip is itself the observation.
fn measure_beside<P>(
    world: &World,
    statics: &Statics,
    prelude: &RoundPrelude,
    first: impl FnOnce() -> P,
) -> (P, Vec<shard::SupervisedShard<ShardChunk>>) {
    if prelude.no_block_work() && !statics.shard.supervised() {
        return (first(), Vec::new());
    }
    let task =
        |_slot: u32, range: std::ops::Range<usize>| measure_range(world, statics, prelude, range);
    let (p, shards) = statics.shard.shard_execute(prelude.round, first, &task);
    (p, shard::roster_order(shards))
}

/// The serial prelude of one round's measurement: everything the shard
/// task reads besides the world, resolved once on the calling thread
/// before any shard runs.
struct RoundPrelude {
    round: Round,
    online: bool,
    feeds: Vec<FeedObs>,
    /// Per block, whether the BGP delivery lost its routing state.
    routed_unknown: Vec<bool>,
    /// `None`: the IBR layer is off. `Some(false)`: the collector itself
    /// is dark this round. `Some(true)`: the darknet is listening.
    ibr_live: Option<bool>,
    /// Each vantage's verdict, indexed like `statics.vantages`.
    vantage_quality: Vec<RoundQuality>,
    /// Each vantage's path intensity, `None` for a vantage that measures
    /// nothing this round.
    vantage_scan: Vec<Option<FaultIntensity>>,
    /// The round's headline quality before any shard loss.
    quality: RoundQuality,
}

impl RoundPrelude {
    /// Whether no layer measures a block this round.
    fn no_block_work(&self) -> bool {
        self.vantage_scan.iter().all(Option::is_none) && self.ibr_live != Some(true)
    }
}

/// Fetches the round's feeds and resolves what per-block work it carries:
/// the serial first step of [`measure_round`]. Feeds are fetched by
/// infrastructure independent of the probing vantage(s), so feed
/// observations are collected even for rounds the scanner itself cannot
/// measure, and fetched once, not per shard.
fn measure_prelude(
    world: &World,
    statics: &Statics,
    feed_state: Option<&mut FeedState>,
    round: Round,
) -> RoundPrelude {
    let online = world.vantage_online(round);
    let (feeds, routed_unknown) = measure_feeds(world, statics, feed_state, round);
    let ibr_live = statics.ibr.as_ref().map(|is| !is.config.dark_at(round));
    // One scan per usable vantage: a masked vantage measures nothing
    // (offline, or catastrophic loss on its path).
    let mut vantage_quality: Vec<RoundQuality> = Vec::new();
    let mut vantage_scan: Vec<Option<FaultIntensity>> = Vec::new();
    for vs in &statics.vantages {
        let q = vs.plan.quality_at(
            round,
            statics.rounds,
            SCAN_REPROBES,
            &QualityConfig::default(),
        );
        vantage_quality.push(q);
        vantage_scan
            .push(vantage_usable(online, q).then(|| vs.plan.intensity_at(round, statics.rounds)));
    }
    // The round's headline quality: the implicit vantage's own verdict
    // (kept on offline rounds too, where the fused verdict reads
    // `Unusable`), or the roster's fused one — one clean vantage keeps the
    // round usable while another sits behind 100% loss.
    let quality = if statics.implicit_vantage {
        vantage_quality[0]
    } else {
        fuse_round_quality(vantage_quality.iter().map(|q| (online, *q)))
    };
    RoundPrelude {
        round,
        online,
        feeds,
        routed_unknown,
        ibr_live,
        vantage_quality,
        vantage_scan,
        quality,
    }
}

/// The shard task: measures one block range's slice of every active layer
/// in one pass, evaluating each block's truth once and handing it to every
/// consumer. A pure function of the prelude and the range — all draws
/// coordinate-addressed — so a retry after an injected panic reproduces
/// the first try, and any worker interleaving produces the same chunk.
fn measure_range(
    world: &World,
    statics: &Statics,
    prelude: &RoundPrelude,
    range: std::ops::Range<usize>,
) -> ShardChunk {
    let round = prelude.round;
    let darknet = statics
        .ibr
        .as_ref()
        .filter(|_| prelude.ibr_live == Some(true));
    let cap = |active: bool| if active { range.len() } else { 0 };
    let mut chunk = ShardChunk {
        vantages: prelude
            .vantage_scan
            .iter()
            .map(|s| Vec::with_capacity(cap(s.is_some())))
            .collect(),
        ibr: Vec::with_capacity(cap(darknet.is_some())),
    };
    // A supervised round with every layer masked runs the task only for
    // its ledger: no truth is evaluated.
    if prelude.no_block_work() {
        return chunk;
    }
    for bi in range {
        // Only a block whose RTT is kept draws one: `scan_block` reads no
        // other block's, and the darknet reads none.
        let state = world.block_state(round, bi);
        let keep_rtt = statics.rtt_block[bi];
        let rtt_ns = if keep_rtt {
            world.truth_rtt_ns(&state, round, bi)
        } else {
            0
        };
        let truth = state.with_rtt(rtt_ns);
        let unknown = prelude.routed_unknown[bi];
        for ((vs, scan), out) in statics
            .vantages
            .iter()
            .zip(&prelude.vantage_scan)
            .zip(&mut chunk.vantages)
        {
            if let Some(intensity) = scan {
                out.push(scan_block(
                    &truth,
                    &vs.rng,
                    vs.spec.path_rtt_ns,
                    intensity,
                    round,
                    bi,
                    unknown,
                    keep_rtt,
                ));
            }
        }
        if let Some(is) = darknet {
            chunk.ibr.push(ibr::volume_with_gain(
                &truth,
                is.gain[bi],
                &is.config,
                &is.rng,
                round,
                bi,
            ));
        }
    }
    chunk
}

/// The roster-ordered deterministic reduce that ends [`measure_round`]:
/// splices the completed shards (`ordered`, in slot order, empty when the
/// executor was skipped) into campaign-wide vectors and fills lost shards
/// with placeholders. When a shard exhausts its retries the round degrades
/// gracefully: its blocks are journaled as missing placeholders, the round
/// quality drops to `Degraded` (`Unusable` when every shard is lost), and
/// the per-shard outcomes are journaled for the report's [`ShardLedger`].
fn assemble_round(
    statics: &Statics,
    prelude: RoundPrelude,
    ordered: Vec<shard::SupervisedShard<ShardChunk>>,
) -> (RoundRecord, Vec<u64>) {
    let RoundPrelude {
        round,
        online,
        feeds,
        ibr_live,
        vantage_quality,
        vantage_scan,
        mut quality,
        ..
    } = prelude;
    let mut wall = Vec::with_capacity(ordered.len());
    let mut lost_shards = 0usize;
    let mut vblocks: Vec<Vec<BlockObs>> = vantage_scan
        .iter()
        .map(|s| {
            if s.is_some() {
                Vec::with_capacity(statics.n_blocks)
            } else {
                Vec::new()
            }
        })
        .collect();
    let mut volumes = if ibr_live == Some(true) {
        vec![0u64; statics.as_list.len()]
    } else {
        Vec::new()
    };
    for (s, range) in ordered.iter().zip(statics.shard.ranges()) {
        wall.push(s.wall_ns);
        debug_assert_eq!(s.outcome.completed(), s.output.is_some());
        match &s.output {
            Some(chunk) => {
                for (acc, part) in vblocks.iter_mut().zip(&chunk.vantages) {
                    acc.extend_from_slice(part);
                }
                for (offset, v) in chunk.ibr.iter().enumerate() {
                    volumes[statics.block_as[range.start + offset]] += v;
                }
            }
            None => {
                lost_shards += 1;
                for (acc, scan) in vblocks.iter_mut().zip(&vantage_scan) {
                    if scan.is_some() {
                        acc.extend(range.clone().map(|_| LOST_BLOCK_OBS));
                    }
                }
                // Lost blocks contribute nothing to the darknet sums; the
                // accumulation half marks their ASes dark instead.
            }
        }
    }

    // Graceful degradation: a lost shard costs the round its `Ok` rating,
    // a fully lost round is unusable — the same downgrade semantics as
    // the wire-fault machinery, so detection treats supervision loss like
    // any other measurement gap.
    if lost_shards > 0 {
        quality = if lost_shards == ordered.len() {
            RoundQuality::Unusable
        } else {
            quality.worst(RoundQuality::Degraded)
        };
    }

    let mut vantages: Vec<VantageRound> = vantage_quality
        .iter()
        .zip(vblocks)
        .map(|(q, blocks)| VantageRound {
            online,
            quality: *q,
            blocks: BlockSection(blocks),
        })
        .collect();
    // The implicit vantage journals as the record's `blocks` section.
    let blocks = if statics.implicit_vantage {
        vantages.pop().map(|v| v.blocks).unwrap_or_default()
    } else {
        BlockSection::default()
    };
    let ibr = ibr_live.map(|live| {
        if live {
            IbrObs {
                dark: false,
                volumes,
            }
        } else {
            IbrObs {
                dark: true,
                volumes: Vec::new(),
            }
        }
    });
    let shards = statics
        .shard
        .supervised()
        .then(|| shard::reduce_outcomes(&ordered));
    let record = RoundRecord {
        round,
        online,
        quality,
        blocks,
        feeds,
        vantages,
        ibr,
        shards,
    };
    (record, wall)
}

/// Fetches every feed due this round through the (lossy) delivery channel.
///
/// Returns the per-feed observations — `Vec::new()` when the feed layer is
/// off, exactly three entries in [`FeedKind::ALL`] order when on — plus the
/// per-block "routing state unknown" mask derived from what the BGP dump
/// delivery lost. `feeds` carries the dump stream and the loader's memo
/// across rounds; the observations equal those of a cold state.
fn measure_feeds(
    world: &World,
    statics: &Statics,
    feeds: Option<&mut FeedState>,
    round: Round,
) -> (Vec<FeedObs>, Vec<bool>) {
    let n_blocks = statics.n_blocks;
    let (Some(plan), Some(FeedState { bgp, loader })) = (statics.feed_plan.as_ref(), feeds) else {
        return (Vec::new(), vec![false; n_blocks]);
    };
    let mi = world.month_index(round) as usize;
    let bgp_text = bgp.at(round);
    let geo_due = statics
        .months
        .get(mi)
        .is_some_and(|m| world.month_rounds(*m).start == round.0);
    let delegations_due = round.0.is_multiple_of(DELEGATIONS_CADENCE);

    let rng = &statics.feed_rng;
    let mut source = |kind: FeedKind, r: Round, attempt: u32| -> Option<String> {
        let pristine: &str = match kind {
            FeedKind::Bgp => bgp_text,
            FeedKind::Geo => statics.geo_texts.get(mi).map(String::as_str).unwrap_or(""),
            FeedKind::Delegations => &statics.delegations_text,
        };
        feedfaults::deliver(plan, rng, kind, r, attempt, pristine)
    };

    // BGP is due every round. Only the verdict is kept — the journal's
    // `routed` bits carry the truth — but which *records* the delivery
    // lost decides which blocks' routing state is known.
    let mut routed_unknown = vec![false; n_blocks];
    let bgp_outcome = loader.load(&mut source, FeedKind::Bgp, round);
    match &bgp_outcome {
        FeedOutcome::Accepted { quarantine, .. } => {
            mark_unknown_routes(world, bgp_text, quarantine, &mut routed_unknown);
        }
        FeedOutcome::Rejected { .. } | FeedOutcome::Absent { .. } => routed_unknown.fill(true),
    }
    let mut load_if_due = |kind: FeedKind, due: bool| {
        if due {
            feed_obs_of(loader.load(&mut source, kind, round))
        } else {
            FeedObs::NotDue
        }
    };
    let geo_obs = load_if_due(FeedKind::Geo, geo_due);
    let delegations_obs = load_if_due(FeedKind::Delegations, delegations_due);

    (
        vec![feed_obs_of(bgp_outcome), geo_obs, delegations_obs],
        routed_unknown,
    )
}

/// Maps a loader verdict onto its journalable observation.
fn feed_obs_of(outcome: FeedOutcome) -> FeedObs {
    match outcome {
        FeedOutcome::Accepted {
            retries,
            quarantine,
        } => FeedObs::Accepted {
            retries,
            quarantine,
        },
        FeedOutcome::Rejected {
            retries,
            quarantine,
        } => FeedObs::Rejected {
            retries,
            quarantine,
        },
        FeedOutcome::Absent { retries } => FeedObs::Absent { retries },
    }
}

/// Maps an accepted-but-lossy BGP dump's quarantined lines back onto world
/// blocks. Line corruption preserves line structure and truncation is
/// caught by the declared-count completeness check, so a quarantined line
/// number in the delivered text addresses the same record in the pristine
/// text.
fn mark_unknown_routes(
    world: &World,
    pristine: &str,
    quarantine: &FeedQuarantine,
    unknown: &mut [bool],
) {
    if quarantine.records.is_empty() {
        return;
    }
    let lines: Vec<&str> = pristine.lines().collect();
    for q in &quarantine.records {
        // Line 0 is the synthetic completeness record; a dump failing
        // completeness is rejected before reaching here anyway.
        let Some(line) = (q.line as usize).checked_sub(1).and_then(|i| lines.get(i)) else {
            continue;
        };
        let Some((prefix, _)) = line.split_once('|') else {
            continue;
        };
        let Ok(prefix) = prefix.trim().parse::<Prefix>() else {
            continue;
        };
        for block in prefix.blocks() {
            if let Some(bi) = world.block_index(block) {
                unknown[bi] = true;
            }
        }
    }
}

/// Folds one round's feed observations into the staleness ledger and
/// derives the [`SignalQuality`] every detector sees this round.
///
/// With the feed layer off (`record.feeds` empty) this is a no-op
/// returning [`SignalQuality::FRESH`], so detection behaves exactly as it
/// did before feeds existed.
fn apply_feeds(
    state: &mut PipelineState,
    record: &RoundRecord,
) -> fbs_types::Result<SignalQuality> {
    if record.feeds.is_empty() {
        return Ok(SignalQuality::FRESH);
    }
    if record.feeds.len() != FeedKind::ALL.len() {
        return Err(FbsError::corrupt_journal(
            format!(
                "round {} record carries {} feed observations, expected {}",
                record.round.0,
                record.feeds.len(),
                FeedKind::ALL.len()
            ),
            record.round.0 as u64,
        ));
    }
    let mut statuses = [FeedStatus::Missing; 3];
    for (kind, obs) in FeedKind::ALL.iter().zip(&record.feeds) {
        let ki = kind.index();
        match obs {
            FeedObs::NotDue => {
                // Age only advances at due rounds: staleness is counted in
                // the feed's own cadence units, not in scan rounds.
            }
            FeedObs::Accepted {
                retries,
                quarantine,
            } => {
                state.feed_ages[ki] = Some(0);
                state.feed_retries[ki] += retries;
                if !quarantine.records.is_empty() {
                    state.feed_quarantines.push(TaggedQuarantine {
                        kind: *kind,
                        round: record.round,
                        quarantine: quarantine.clone(),
                    });
                }
            }
            FeedObs::Rejected {
                retries,
                quarantine,
            } => {
                state.feed_ages[ki] = state.feed_ages[ki].map(|n| n.saturating_add(1));
                state.feed_retries[ki] += retries;
                state.feed_rejections[ki] += 1;
                state.feed_quarantines.push(TaggedQuarantine {
                    kind: *kind,
                    round: record.round,
                    quarantine: quarantine.clone(),
                });
            }
            FeedObs::Absent { retries } => {
                state.feed_ages[ki] = state.feed_ages[ki].map(|n| n.saturating_add(1));
                state.feed_retries[ki] += retries;
            }
        }
        let status = match state.feed_ages[ki] {
            None => FeedStatus::Missing,
            Some(0) => FeedStatus::Fresh,
            Some(age) => FeedStatus::Stale(age),
        };
        statuses[ki] = status;
        state.feed_ledger.statuses[ki].push(status);
    }
    Ok(SignalQuality {
        bgp: statuses[FeedKind::Bgp.index()],
        geo: statuses[FeedKind::Geo.index()],
        delegations: statuses[FeedKind::Delegations.index()],
    })
}

/// The roster entries that vote this round, after checking that each
/// carries one observation per block.
///
/// Masking happens here: vantages that were offline or whose round was
/// [`RoundQuality::Unusable`] never reach the ballot, so a blacked-out
/// vantage cannot pull blocks dark — graceful degradation falls out of the
/// vote rather than being a special case.
fn fusion_ballot(statics: &Statics, record: &RoundRecord) -> fbs_types::Result<Vec<usize>> {
    let n_blocks = statics.n_blocks;
    let usable: Vec<usize> = record
        .vantages
        .iter()
        .enumerate()
        .filter(|(_, v)| vantage_usable(v.online, v.quality))
        .map(|(vi, _)| vi)
        .collect();
    for &vi in &usable {
        if record.vantages[vi].blocks.len() != n_blocks {
            return Err(FbsError::corrupt_journal(
                format!(
                    "round {} vantage {:?} carries {} block observations, world has {}",
                    record.round.0,
                    statics
                        .vantages
                        .get(vi)
                        .map(|v| v.spec.name.as_str())
                        .unwrap_or("?"),
                    record.vantages[vi].blocks.len(),
                    n_blocks
                ),
                record.round.0 as u64,
            ));
        }
    }
    Ok(usable)
}

/// One usable round's quorum over the roster: resolves each block's votes
/// into the fused view the detection sweep consumes, and counts the
/// round's dissent and disagreement as it goes.
struct Quorum<'r> {
    record: &'r RoundRecord,
    /// The roster entries that vote this round ([`fusion_ballot`]).
    usable: Vec<usize>,
    votes: Vec<BlockVote>,
    /// Blocks on which each roster entry's vote lost, in roster order.
    dissent: Vec<u64>,
    /// Blocks reachable from some but not all usable vantages.
    disputed: u64,
    /// Blocks whose minority vote the quorum suppressed.
    suppressed: u64,
}

impl<'r> Quorum<'r> {
    fn new(record: &'r RoundRecord, usable: Vec<usize>) -> Self {
        Quorum {
            record,
            votes: Vec::with_capacity(usable.len()),
            dissent: vec![0u64; record.vantages.len()],
            usable,
            disputed: 0,
            suppressed: 0,
        }
    }

    /// The fused observation of block `bi`, which must not sit in a lost
    /// shard: every vantage's entry for such a block is a placeholder, not
    /// a vote.
    fn fuse(&mut self, bi: usize) -> BlockObs {
        let vantages = &self.record.vantages;
        self.votes.clear();
        for &vi in &self.usable {
            let obs = &vantages[vi].blocks[bi];
            self.votes.push(BlockVote {
                responsive: obs.responsive,
                rtt_ns: obs.rtt_ns,
            });
        }
        let fused = fuse_block(&self.votes);
        for (vote, &vi) in self.votes.iter().zip(&self.usable) {
            if vote.reachable() != fused.reachable() {
                self.dissent[vi] += 1;
            }
        }
        if fused.disputed() {
            self.disputed += 1;
        }
        if fused.suppressed {
            self.suppressed += 1;
        }
        // Routing state is feed-derived and shared by every vantage; any
        // usable vantage reports the same bits, so the first one speaks
        // for all (the deterministic vantage-ordered merge).
        let (routed, routed_known) = self
            .usable
            .first()
            .map(|&vi| {
                let obs = &vantages[vi].blocks[bi];
                (obs.routed, obs.routed_known)
            })
            .unwrap_or((false, false));
        BlockObs {
            responsive: fused.responsive,
            rtt_ns: fused.rtt_ns,
            routed,
            routed_known,
        }
    }
}

/// Folds one measured round into the pipeline state: the accumulation half
/// of the loop. Live execution and crash replay both go through here, so
/// the two paths cannot diverge.
fn apply_round(
    world: &World,
    cfg: &CampaignConfig,
    statics: &Statics,
    state: &mut PipelineState,
    record: &RoundRecord,
) -> fbs_types::Result<()> {
    let n_blocks = statics.n_blocks;
    let n_as = statics.as_list.len();
    let rounds = statics.rounds;

    let round = state.cursor.current().ok_or_else(|| {
        FbsError::corrupt_journal(
            "journal extends past the campaign's final round",
            state.cursor.completed() as u64,
        )
    })?;
    if record.round != round {
        return Err(FbsError::corrupt_journal(
            format!(
                "journal record for round {} where round {} was expected",
                record.round.0, round.0
            ),
            state.cursor.completed() as u64,
        ));
    }
    let r = round.0;
    let mi = world.month_index(round) as usize;
    let month = statics.months[mi];

    // Month rollover: refresh pools, eligibility, gates.
    if state.current_month != Some(mi) {
        state.current_month = Some(mi);
        let month_rounds = world.month_rounds(month);
        let mid = Round((month_rounds.start + month_rounds.end) / 2);
        for bi in 0..n_blocks {
            let ever = world.ever_active(month_rounds.clone(), bi);
            state.pool[bi] = ever;
            // Long-term availability: the best of a few sampled
            // rounds, so a blackout at the sampling instant does
            // not masquerade as the block's baseline.
            let availability = [mid.0, mid.0 + 7, mid.0.saturating_sub(9)]
                .iter()
                .map(|&r| world.trin_availability(Round(r.min(rounds - 1)), bi))
                .fold(0.0f64, f64::max);
            state.trin_avail[bi] = availability;
            state.fbs_eligible[bi] = ever as u32 >= cfg.eligibility.min_ever_active;
            state.trin_eligible[bi] = cfg.trinocular.eligible(ever as u32, availability);
            state.trin_indet[bi] =
                state.trin_eligible[bi] && cfg.trinocular.likely_indeterminate(availability);
        }
        state.as_fbs_count.fill(0);
        state.as_trin_count.fill(0);
        state.reg_fbs_count.fill(0);
        for bi in 0..n_blocks {
            if state.fbs_eligible[bi] {
                state.as_fbs_count[statics.block_as[bi]] += 1;
                if let Some(oi) = statics.block_regional_oblast[bi] {
                    state.reg_fbs_count[oi as usize] += 1;
                }
            }
            if state.trin_eligible[bi] {
                state.as_trin_count[statics.block_as[bi]] += 1;
            }
        }
        // Expected mean responsive per AS for the IPS gate.
        let mut as_expected = vec![0f64; n_as];
        for bi in 0..n_blocks {
            as_expected[statics.block_as[bi]] +=
                state.pool[bi] as f64 * world.response_prob(mid, bi);
        }
        for (ai, exp) in as_expected.iter().enumerate() {
            state.ips_usable_as[ai] = ips_signal_usable(*exp, &cfg.eligibility);
        }
        // Monthly eligibility tallies per oblast + non-regional.
        for bi in 0..n_blocks {
            let tally = match statics.block_regional_oblast[bi] {
                Some(oi) => {
                    let oblast = Oblast::from_index(oi as usize).ok_or_else(|| FbsError::Io {
                        reason: format!("invalid oblast index {oi} in block statics"),
                    })?;
                    state.oblast_monthly.entry((oblast, month)).or_default()
                }
                None => state.non_regional_monthly.entry(month).or_default(),
            };
            tally.regional_blocks += 1;
            tally.regional_ips += state.pool[bi].max(world.blocks()[bi].geo_population) as u64;
            if state.fbs_eligible[bi] {
                tally.fbs_eligible += 1;
            }
            if state.trin_eligible[bi] {
                tally.trin_eligible += 1;
            }
            if state.trin_indet[bi] {
                tally.trin_indeterminate += 1;
            }
        }
    }

    // Feed deliveries fold into the staleness ledger regardless of the
    // vantage's own state: the ingest infrastructure keeps running while
    // the scanner is offline.
    let feed_quality = apply_feeds(state, record)?;

    // Shard supervision: shape-check the journaled outcomes against the
    // campaign's partition, fold them into the supervision ledger, and
    // derive the lost-block mask that gates everything below. Replay
    // consumes the journaled outcomes, never re-runs the pool, so a
    // resumed campaign reproduces a degraded round byte for byte.
    let lost = apply_shards(statics, state, record)?;
    let mut lost_as = vec![false; n_as];
    let mut lost_region = [false; Oblast::COUNT];
    for (bi, l) in lost.iter().enumerate() {
        if *l {
            lost_as[statics.block_as[bi]] = true;
            if let Some(oi) = statics.block_regional_oblast[bi] {
                lost_region[oi as usize] = true;
            }
        }
    }

    // Vantage-mode shape check, then per-vantage ledger update — on
    // *every* round, masked or not: the ledger is where a vantage
    // blackout stays visible after fusion has already routed around it.
    if record.vantages.len() != statics.roster().len() {
        return Err(FbsError::corrupt_journal(
            format!(
                "round {} record carries {} vantage observations, roster has {}",
                r,
                record.vantages.len(),
                statics.roster().len()
            ),
            state.cursor.completed() as u64,
        ));
    }
    for (ledger, vobs) in state.vantage_ledgers.iter_mut().zip(&record.vantages) {
        let effective = if vobs.online {
            vobs.quality
        } else {
            RoundQuality::Unusable
        };
        ledger.quality.push(effective);
        if !vobs.online {
            ledger.missing_rounds.push(round);
        }
        ledger
            .responsive_total
            .push(vobs.blocks.iter().map(|b| b.responsive as u64).sum());
    }

    // The passive signal folds in *before* the usable-round gate: an
    // active-dark round is exactly when the darknet is the only listener
    // left, so IBR predictors and ledgers advance on every round.
    let ibr_obs = ibr_observation(statics, record, round, state.cursor.completed() as u64)?;
    step_ibr(
        &mut state.ibr_predictors,
        &mut state.ibr_ledgers,
        ibr_obs,
        &lost_as,
        round,
    );

    // A round without usable measurements — vantage offline, or the
    // fault plan silences so much that the scan is `Unusable` — is
    // skipped entirely below: detectors freeze, series record gaps. A
    // usable round's sweep reads the implicit vantage's observations (the
    // record's `blocks` section) directly, or the quorum-fused view of the
    // roster's votes. Detection downstream is unchanged either way —
    // fusion is resolved *before* detection.
    let quality = record.quality;
    let usable = record.online && quality != RoundQuality::Unusable;
    let ballot = if !usable {
        None
    } else if record.vantages.is_empty() {
        if record.blocks.len() != n_blocks {
            return Err(FbsError::corrupt_journal(
                format!(
                    "round {} record carries {} block observations, world has {}",
                    r,
                    record.blocks.len(),
                    n_blocks
                ),
                state.cursor.completed() as u64,
            ));
        }
        None
    } else {
        Some(fusion_ballot(statics, record)?)
    };

    if !usable {
        if !record.online {
            state.missing_rounds.push(round);
        }
        state.round_quality.push(RoundQuality::Unusable);
        for d in state.as_detectors.iter_mut() {
            d.observe(round, EntityRound::MISSING);
        }
        for d in state.region_detectors.iter_mut() {
            d.observe(round, EntityRound::MISSING);
        }
        for d in state.block_detectors.values_mut() {
            d.observe(round, EntityRound::MISSING);
        }
        for series in state.tracked.values_mut() {
            series.bgp.push(None);
            series.fbs.push(None);
            series.ips.push(None);
        }
        state.cursor.advance();
        return Ok(());
    }
    state.round_quality.push(quality);

    // --- The per-block sweep, fusing the roster's votes as it goes. ---
    let mut quorum = ballot.map(|usable| Quorum::new(record, usable));
    let mut as_ips = vec![0u64; n_as];
    let mut as_active = vec![0u32; n_as];
    let mut as_routed = vec![0u32; n_as];
    let mut as_trin_up = vec![0u32; n_as];
    let mut reg_ips = [0u64; Oblast::COUNT];
    let mut reg_active = [0u32; Oblast::COUNT];
    let mut reg_routed = [0u32; Oblast::COUNT];

    for (bi, &in_lost_shard) in lost.iter().enumerate() {
        if in_lost_shard {
            // The block sat in a lost shard: no measurement exists. Its
            // placeholder must not reach any aggregate — a zero would read
            // as an outage — so the tracked series and detector record the
            // gap and everything else (including the routing carry-forward
            // memory, which must stay frozen, not absorb the placeholder)
            // is left untouched. AS- and region-level gaps are handled in
            // the detector loops below.
            if let Some(entity) = statics.tracked_block[bi] {
                if let Some(series) = state.tracked.get_mut(&entity) {
                    series.bgp.push(None);
                    series.fbs.push(None);
                    series.ips.push(None);
                }
                if let Some(d) = state.block_detectors.get_mut(&entity) {
                    d.observe(round, EntityRound::MISSING);
                }
            }
            continue;
        }
        let obs = match quorum.as_mut() {
            Some(quorum) => quorum.fuse(bi),
            None => record.blocks[bi],
        };
        let responsive = obs.responsive;
        let rtt_ns = obs.rtt_ns;
        // When the BGP delivery lost this block's record, the collector
        // carries the last known routing state forward instead of reading
        // a withdrawal into the gap.
        let routed = if obs.routed_known {
            obs.routed
        } else {
            state.last_routed[bi]
        };
        state.last_routed[bi] = routed;
        let ai = statics.block_as[bi];
        if routed {
            as_routed[ai] += 1;
        }
        as_ips[ai] += responsive as u64;
        let active = responsive > 0;
        if active && state.fbs_eligible[bi] {
            as_active[ai] += 1;
        }
        if let Some(oi) = statics.block_regional_oblast[bi] {
            let oi = oi as usize;
            if routed {
                reg_routed[oi] += 1;
            }
            reg_ips[oi] += responsive as u64;
            if active && state.fbs_eligible[bi] {
                reg_active[oi] += 1;
            }
        }
        // Tracked block series + detector.
        if let Some(entity) = statics.tracked_block[bi] {
            let input = EntityRound {
                bgp: Some(if routed { 1.0 } else { 0.0 }),
                fbs: Some(if active && state.fbs_eligible[bi] {
                    1.0
                } else {
                    0.0
                }),
                ips: Some(responsive as f64),
            };
            if let Some(series) = state.tracked.get_mut(&entity) {
                // A non-fresh BGP feed gaps the tracked BGP series: the
                // collector has no dump to read the state from.
                series.bgp.push(feed_quality.mask(input).bgp);
                series.fbs.push(input.fbs);
                series.ips.push(input.ips);
            }
            if let Some(d) = state.block_detectors.get_mut(&entity) {
                d.observe_feeds(round, input, quality, feed_quality);
            }
        }
        // RTT aggregation for tracked ASes.
        if active {
            if let Some(asn) = statics.rtt_tracked[ai] {
                let agg = state.rtt_monthly.entry((asn, month)).or_default();
                agg.sum_ns += rtt_ns;
                agg.count += 1;
            }
        }
        // Trinocular belief update.
        if state.ioda.is_some() && state.trin_eligible[bi] {
            // Believed long-term A vs instantaneous reply rate:
            // during a real dip the probes go silent while the
            // belief still expects replies — evidence of Down.
            let p = state.trin_avail[bi];
            // Trinocular probes a fixed panel of ever-active
            // addresses; under dynamic addressing the panel is
            // often stale, so the instantaneous reply rate sits
            // well below the believed long-term A — the source
            // of the signal's flapping (paper Fig. 27).
            let stale = 0.2 + 0.8 * world.rng().uniform3(r as u64, bi as u64, 777);
            let p_probe = world.trin_availability(round, bi) * stale;
            let outcome = assess_block(state.beliefs[bi], p, &cfg.trinocular, |probe| {
                routed
                    && world
                        .rng()
                        .chance3(p_probe, r as u64, bi as u64, 5000 + probe as u64)
            });
            state.beliefs[bi] = outcome.belief;
            if outcome.state == fbs_trinocular::BlockState::Up {
                as_trin_up[ai] += 1;
            }
        }
    }
    // The quorum's counts merge into the per-vantage dissent and the
    // campaign disagreement summary.
    if let Some(quorum) = quorum {
        for (ledger, d) in state.vantage_ledgers.iter_mut().zip(&quorum.dissent) {
            ledger.dissent_block_rounds += d;
        }
        state.disagreement.some_not_all_block_rounds += quorum.disputed;
        state.disagreement.quorum_suppressed_block_rounds += quorum.suppressed;
        if quorum.disputed > 0 {
            state.disagreement.rounds_with_disagreement += 1;
        }
    }

    // --- Feed detectors. ---
    for (ai, d) in state.as_detectors.iter_mut().enumerate() {
        if lost_as[ai] {
            // An AS touched by a lost shard has an incomplete ballot this
            // round: feeding the partial counts downstream would read the
            // gap as an outage, so every consumer observes a missing round
            // instead — zero false outages by construction.
            d.observe(round, EntityRound::MISSING);
            if let Some(entity) = statics.tracked_as[ai] {
                if let Some(series) = state.tracked.get_mut(&entity) {
                    series.bgp.push(None);
                    series.fbs.push(None);
                    series.ips.push(None);
                }
            }
            if let Some(platform) = state.ioda.as_mut() {
                platform.observe(round, statics.as_list[ai], None, None);
            }
            continue;
        }
        // FBS enters detection as the share of *eligible* blocks
        // answering; eligibility churn at month boundaries then
        // cancels out instead of stepping the signal.
        let fbs_share = (state.as_fbs_count[ai] > 0)
            .then(|| as_active[ai] as f64 / state.as_fbs_count[ai] as f64);
        let input = EntityRound {
            bgp: Some(as_routed[ai] as f64),
            fbs: fbs_share,
            ips: state.ips_usable_as[ai].then_some(as_ips[ai] as f64),
        };
        d.observe_feeds(round, input, quality, feed_quality);
        if let Some(entity) = statics.tracked_as[ai] {
            if let Some(series) = state.tracked.get_mut(&entity) {
                series.bgp.push(feed_quality.mask(input).bgp);
                series.fbs.push(Some(as_active[ai] as f64));
                series.ips.push(input.ips);
            }
        }
        if let Some(platform) = state.ioda.as_mut() {
            let trin_share = (state.as_trin_count[ai] > 0)
                .then(|| as_trin_up[ai] as f64 / state.as_trin_count[ai] as f64);
            // IODA's BGP feed shares the collector: a stale or missing
            // dump blinds its BGP dimension for the round too.
            let ioda_bgp = feed_quality.bgp.is_fresh().then_some(as_routed[ai] as f64);
            platform.observe(round, statics.as_list[ai], ioda_bgp, trin_share);
        }
    }
    for (oi, d) in state.region_detectors.iter_mut().enumerate() {
        if lost_region[oi] {
            d.observe(round, EntityRound::MISSING);
            continue;
        }
        let fbs_share = (state.reg_fbs_count[oi] > 0)
            .then(|| reg_active[oi] as f64 / state.reg_fbs_count[oi] as f64);
        d.observe_feeds(
            round,
            EntityRound {
                bgp: Some(reg_routed[oi] as f64),
                fbs: fbs_share,
                ips: Some(reg_ips[oi] as f64),
            },
            quality,
            feed_quality,
        );
    }

    // --- Monthly responsiveness tallies. ---
    for oi in 0..Oblast::COUNT {
        if lost_region[oi] {
            // A lost shard removes the oblast's round from the monthly
            // means rather than biasing them toward zero.
            continue;
        }
        let o = Oblast::from_index(oi).ok_or_else(|| FbsError::Io {
            reason: format!("invalid oblast index {oi}"),
        })?;
        let tally = state.oblast_monthly.entry((o, month)).or_default();
        tally.responsive_sum += reg_ips[oi];
        tally.active_block_sum += reg_active[oi] as u64;
        tally.measured_rounds += 1;
    }

    state.cursor.advance();
    Ok(())
}

/// Checks one round's passive-radiation observation against the campaign:
/// `None` when the IBR layer is off, else the observation, whose volumes
/// must cover every AS unless the collector was dark.
fn ibr_observation<'r>(
    statics: &Statics,
    record: &'r RoundRecord,
    round: Round,
    pos: u64,
) -> fbs_types::Result<Option<&'r IbrObs>> {
    let obs = match (&statics.ibr, &record.ibr) {
        (None, None) => return Ok(None),
        (Some(_), Some(obs)) => obs,
        (expected, _) => {
            return Err(FbsError::corrupt_journal(
                format!(
                    "round {} record {} an ibr observation, campaign runs with ibr {}",
                    round.0,
                    if record.ibr.is_some() {
                        "carries"
                    } else {
                        "lacks"
                    },
                    if expected.is_some() { "on" } else { "off" },
                ),
                pos,
            ));
        }
    };
    if !obs.dark && obs.volumes.len() != statics.as_list.len() {
        return Err(FbsError::corrupt_journal(
            format!(
                "round {} record carries {} ibr volumes, world has {} ASes",
                round.0,
                obs.volumes.len(),
                statics.as_list.len()
            ),
            pos,
        ));
    }
    Ok(Some(obs))
}

/// Folds one round's checked passive-radiation observation into the
/// predictors and ledgers. A dark collector freezes every predictor (no
/// baseline drift, no spurious transitions); an observed round feeds each
/// AS's volume through its seasonal predictor. An AS touched by a lost
/// shard is treated as dark for the round: its journaled volume sum is
/// missing the lost blocks' contribution, and a partial sum would read as
/// a volume drop.
fn step_ibr(
    predictors: &mut [SeasonalPredictor],
    ledgers: &mut [IbrLedger],
    obs: Option<&IbrObs>,
    lost_as: &[bool],
    round: Round,
) {
    let Some(obs) = obs else { return };
    for (ai, (predictor, ledger)) in predictors.iter_mut().zip(ledgers).enumerate() {
        let volume = match obs.volumes.get(ai) {
            Some(v) if !obs.dark && !lost_as.get(ai).copied().unwrap_or(false) => *v,
            _ => {
                predictor.observe_dark(round);
                ledger.volume.push(0);
                ledger.status.push(IbrRoundStatus::Dark);
                continue;
            }
        };
        predictor.observe(round, volume);
        ledger.volume.push(volume);
        ledger.status.push(IbrRoundStatus::Observed);
    }
}

/// Folds one round's journaled shard outcomes into the supervision ledger
/// and returns the lost-block mask (all-false in unsupervised campaigns,
/// whose records carry no shard section).
fn apply_shards(
    statics: &Statics,
    state: &mut PipelineState,
    record: &RoundRecord,
) -> fbs_types::Result<Vec<bool>> {
    let pos = state.cursor.completed() as u64;
    let obs = match (&record.shards, statics.shard.supervised()) {
        (None, false) => return Ok(vec![false; statics.n_blocks]),
        (Some(obs), true) => obs,
        (present, _) => {
            return Err(FbsError::corrupt_journal(
                format!(
                    "round {} record {} shard outcomes, campaign runs {}",
                    record.round.0,
                    if present.is_some() {
                        "carries"
                    } else {
                        "lacks"
                    },
                    if present.is_some() {
                        "unsupervised"
                    } else {
                        "supervised"
                    },
                ),
                pos,
            ));
        }
    };
    if obs.outcomes.len() != statics.shard.n_shards() {
        return Err(FbsError::corrupt_journal(
            format!(
                "round {} record carries {} shard outcomes, partition has {}",
                record.round.0,
                obs.outcomes.len(),
                statics.shard.n_shards()
            ),
            pos,
        ));
    }
    let mut lost = vec![false; statics.n_blocks];
    let mut summary = ShardRoundSummary {
        round: record.round,
        completed: 0,
        retried: 0,
        panicked: 0,
        timed_out: 0,
        lost: 0,
    };
    for (outcome, range) in obs.outcomes.iter().zip(statics.shard.ranges()) {
        match outcome {
            ShardOutcomeObs::Completed {
                attempt,
                panics,
                timeouts,
            } => {
                if *attempt == 0 {
                    summary.completed += 1;
                } else {
                    summary.retried += 1;
                }
                summary.panicked += panics;
                summary.timed_out += timeouts;
            }
            ShardOutcomeObs::Lost { panics, timeouts } => {
                summary.lost += 1;
                summary.panicked += panics;
                summary.timed_out += timeouts;
                for flag in &mut lost[range.clone()] {
                    *flag = true;
                }
            }
        }
    }
    state.shard_rounds.push(summary);
    Ok(lost)
}

/// Drives a campaign one round at a time over the split state.
///
/// Obtained from [`Campaign::runner`] (in-memory),
/// [`Campaign::runner_checkpointed`] (journaling) or
/// [`Campaign::runner_resumed`] (restored from disk). Dropping the runner
/// mid-campaign is safe: with a checkpoint store attached, every completed
/// round is already durable, the measured look-ahead round was never
/// journaled and is simply dropped, and the drop waits for a snapshot
/// write still in flight and stops the store's journal syncer.
pub struct CampaignRunner<'a> {
    campaign: &'a Campaign,
    statics: Statics,
    /// The feed layer's carried state (`None` when the feed layer is off).
    feeds: Option<FeedState>,
    state: PipelineState,
    store: Option<CheckpointStore>,
    diagnostics: ResumeDiagnostics,
    /// The look-ahead: the next round's record and per-shard wall times,
    /// measured beside the previous round's finish and keyed by the
    /// record's round. It is never journaled or snapshotted before its
    /// own step.
    ahead: Option<(RoundRecord, Vec<u64>)>,
    /// Accumulated wall time per shard slot across the rounds *this
    /// process* measured and applied: a round's shards count when the
    /// round is applied, so replayed or restored rounds and a dropped
    /// look-ahead contribute nothing. Pure diagnostics for the report's
    /// [`ShardLedger`]: never journaled, never part of any byte-compared
    /// artifact.
    shard_wall_ns: Vec<u64>,
}

impl CampaignRunner<'_> {
    /// Finishes the next round — applies it, and journals it when a
    /// checkpoint store is attached — while the round after it is
    /// measured alongside. Returns `false` once the campaign is complete.
    ///
    /// Round r's record is the look-ahead the previous step measured (a
    /// runner's first step measures it here). The step runs round r + 1's
    /// serial prelude — its feeds, vantage verdicts and darknet liveness —
    /// and then makes one shard dispatch: the calling thread finishes
    /// round r (`apply_round`, the journal append and the snapshot
    /// hand-off) while `threads − 1` helpers claim round r + 1's shards,
    /// and then claims what is left. Round r + 1's record becomes the
    /// look-ahead only if round r finished `Ok`. Measuring ahead is sound
    /// because a round's measurement never reads the pipeline state, and
    /// the feeds are still fetched in ascending round order. Round r is
    /// journaled before the step returns, and fsynced under the policy:
    /// the append hands the fsync to the store's journal syncer, and the
    /// step waits for it after the dispatch, so it runs beside round
    /// r + 1's shards; a failed fsync is this step's error. An
    /// unsupervised genuine panic in round r + 1's shards surfaces from
    /// this step, after round r is journaled.
    ///
    /// A round that takes a snapshot hands its write to the store's writer
    /// thread, once the round's fsync is done, and returns; if that write
    /// fails, the error comes back from the `step_round` that takes the
    /// next snapshot, or from [`CampaignRunner::finish`].
    ///
    /// A runner whose step returned `Err` may already have applied its
    /// round without journaling it. Drop it and resume from the checkpoint
    /// directory; the store refuses to journal past the gap.
    pub fn step_round(&mut self) -> fbs_types::Result<bool> {
        let Some(round) = self.state.cursor.current() else {
            return Ok(false);
        };
        let CampaignRunner {
            campaign,
            statics,
            feeds,
            state,
            store,
            ahead,
            shard_wall_ns,
            ..
        } = self;
        let (world, cfg, statics) = (&campaign.world, &campaign.config, &*statics);
        let (record, wall) = match ahead.take() {
            Some(measured) if measured.0.round == round => measured,
            _ => measure_round(world, statics, feeds.as_mut(), round),
        };
        let next = Round(round.0 + 1);
        let prelude = (next.0 < statics.rounds)
            .then(|| measure_prelude(world, statics, feeds.as_mut(), next));
        let mut finish = || -> fbs_types::Result<()> {
            apply_round(world, cfg, statics, state, &record)?;
            if let Some(store) = store.as_mut() {
                store.append(&record)?;
                store.maybe_snapshot(state.cursor.completed(), state)?;
            }
            Ok(())
        };
        let (finished, ordered) = match &prelude {
            Some(prelude) => measure_beside(world, statics, prelude, finish),
            None => (finish(), Vec::new()),
        };
        finished?;
        for (acc, w) in shard_wall_ns.iter_mut().zip(wall) {
            *acc = acc.saturating_add(w);
        }
        let next_record = prelude.map(|prelude| assemble_round(statics, prelude, ordered));
        if let Some(store) = store.as_mut() {
            store.synced()?;
        }
        *ahead = next_record;
        Ok(true)
    }

    /// Steps until the final round is done.
    pub fn run_to_end(&mut self) -> fbs_types::Result<()> {
        while self.step_round()? {}
        Ok(())
    }

    /// Rounds completed so far (including restored/replayed ones).
    pub fn completed_rounds(&self) -> u32 {
        self.state.cursor.completed()
    }

    /// Whether every round has been processed.
    pub fn is_done(&self) -> bool {
        self.state.cursor.is_done()
    }

    /// What recovery found when this runner was resumed from disk.
    pub fn diagnostics(&self) -> &ResumeDiagnostics {
        &self.diagnostics
    }

    /// Collects events and assembles the report. Fails if rounds remain,
    /// or if the last journal fsync or snapshot write failed.
    pub fn finish(mut self) -> fbs_types::Result<CampaignReport> {
        if !self.state.cursor.is_done() {
            return Err(FbsError::config(format!(
                "campaign unfinished: {} of {} rounds completed",
                self.state.cursor.completed(),
                self.state.cursor.total()
            )));
        }
        if let Some(store) = self.store.as_mut() {
            store.synced()?;
            store.join_writer()?;
        }
        let statics = self.statics;
        let mut state = self.state;
        let shard_wall_ns = self.shard_wall_ns;
        let n_shards = statics.shard.n_shards() as u32;
        let end = Round(statics.rounds);
        // Close the passive predictors out: a still-open outage ends at
        // the campaign bound, and each AS's events move into its ledger.
        for (predictor, ledger) in state.ibr_predictors.iter_mut().zip(&mut state.ibr_ledgers) {
            ledger.events = predictor.finalize(end);
        }
        let mut as_events = BTreeMap::new();
        for (ai, d) in state.as_detectors.into_iter().enumerate() {
            as_events.insert(statics.as_list[ai], d.finish(end));
        }
        let mut region_events = BTreeMap::new();
        for (oi, d) in state.region_detectors.into_iter().enumerate() {
            let o = Oblast::from_index(oi).ok_or_else(|| FbsError::Io {
                reason: format!("invalid oblast index {oi}"),
            })?;
            region_events.insert(o, d.finish(end));
        }
        let mut block_events = BTreeMap::new();
        for (entity, d) in state.block_detectors {
            if let EntityId::Block(b) = entity {
                block_events.insert(b, d.finish(end));
            }
        }
        let as_sizes: BTreeMap<Asn, usize> = {
            let mut m: BTreeMap<Asn, usize> = BTreeMap::new();
            for b in self.campaign.world.blocks() {
                *m.entry(b.owner).or_insert(0) += 1;
            }
            m
        };

        // Rebuild per-feed health summaries by replaying the ledger (the
        // summaries hold derived run-length state that is cheaper to replay
        // than to persist).
        let feed_health: Vec<FeedHealth> = if state.feed_ledger.is_empty() {
            Vec::new()
        } else {
            FeedKind::ALL
                .iter()
                .map(|kind| {
                    let ki = kind.index();
                    let mut health = FeedHealth::new(*kind);
                    for status in &state.feed_ledger.statuses[ki] {
                        health.record(*status);
                    }
                    health.record_retries(state.feed_retries[ki]);
                    for _ in 0..state.feed_rejections[ki] {
                        health.record_rejection();
                    }
                    health
                })
                .collect()
        };

        // The supervision ledger: journal-derived outcome summaries plus
        // the runner's local wall-time diagnostics.
        let shard = state.shard_supervised.then(|| ShardLedger {
            shards: n_shards,
            rounds: std::mem::take(&mut state.shard_rounds),
            wall_ns: shard_wall_ns,
        });

        Ok(CampaignReport {
            rounds: statics.rounds,
            months: statics.months,
            as_events,
            region_events,
            block_events,
            ioda: state.ioda.map(|p| p.finish(end)),
            classification: statics.classification,
            tracked: state.tracked,
            rtt_monthly: state.rtt_monthly,
            oblast_monthly: state.oblast_monthly,
            non_regional_monthly: state.non_regional_monthly,
            as_sizes,
            missing_rounds: state.missing_rounds,
            round_quality: state.round_quality,
            feed_ledger: state.feed_ledger,
            feed_health,
            feed_quarantines: state.feed_quarantines,
            vantages: state.vantage_ledgers,
            disagreement: state.disagreement,
            ibr: state.ibr_ledgers,
            shard,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fbs_netsim::WorldScale;
    use fbs_signals::SignalKind;
    use fbs_types::BlockId;

    /// Shared tiny campaign over ~10 months (enough for the 2022 events);
    /// computed once, shared by every test in this module.
    fn run_tiny() -> &'static CampaignReport {
        use std::sync::OnceLock;
        static REPORT: OnceLock<CampaignReport> = OnceLock::new();
        REPORT.get_or_init(|| {
            let scenario = fbs_scenarios::ukraine_with_rounds(WorldScale::Tiny, 21, 310 * 12);
            let world = scenario.into_world().unwrap();
            Campaign::new(world, CampaignConfig::default())
                .expect("valid config")
                .run()
                .expect("campaign run")
        })
    }

    #[test]
    fn campaign_detects_cable_cut_for_status() {
        let report = run_tiny();
        let status = &report.as_events[&fbs_types::Asn(25482)];
        assert!(!status.is_empty(), "Status must have outage events");
        // The April 30 cable cut: round ≈ (58 days + 2h) — find a BGP event
        // overlapping April 30 – May 3, 2022.
        let cut_start = fbs_types::CivilDate::new(2022, 4, 30).midnight();
        let cut_round = Round::containing(cut_start).unwrap();
        let hit = status.iter().any(|e| {
            e.signal == SignalKind::Bgp && e.start.0 <= cut_round.0 + 6 && e.end.0 >= cut_round.0
        });
        assert!(hit, "cable-cut BGP outage not detected: {status:?}");
    }

    #[test]
    fn seizure_shows_as_ips_only_dip() {
        let report = run_tiny();
        let status = &report.as_events[&fbs_types::Asn(25482)];
        let seizure = fbs_types::CivilDate::new(2022, 5, 13).at(6, 0);
        let seizure_round = Round::containing(seizure).unwrap();
        let ips_hit = status
            .iter()
            .any(|e| e.signal == SignalKind::Ips && e.contains(seizure_round.next()));
        assert!(ips_hit, "seizure IPS dip not detected: {status:?}");
        // No BGP outage at that moment.
        let bgp_hit = status
            .iter()
            .any(|e| e.signal == SignalKind::Bgp && e.contains(seizure_round.next()));
        assert!(!bgp_hit, "seizure must not look like a BGP outage");
    }

    #[test]
    fn status_blocks_tracked_with_liberation_outage() {
        let report = run_tiny();
        let kherson_block = BlockId::from_octets(193, 151, 240);
        let kyiv_block = BlockId::from_octets(193, 151, 243);
        // The Kherson block goes silent on Nov 11 for ten days.
        let nov12 = Round::containing(fbs_types::CivilDate::new(2022, 11, 12).midnight()).unwrap();
        let series = report
            .series(EntityId::Block(kherson_block))
            .expect("tracked");
        assert_eq!(series.ips.at(nov12), Some(0.0));
        let kyiv_series = report.series(EntityId::Block(kyiv_block)).expect("tracked");
        assert!(
            kyiv_series.ips.at(nov12).unwrap() > 0.0,
            "Kyiv block stays up"
        );
        // Before the outage, the Kherson block answered.
        let oct1 = Round::containing(fbs_types::CivilDate::new(2022, 10, 1).midnight()).unwrap();
        assert!(series.ips.at(oct1).unwrap() > 0.0);
        // And the block detector recorded an event containing Nov 12.
        let events = &report.block_events[&kherson_block];
        assert!(events.iter().any(|e| e.contains(nov12)), "{events:?}");
    }

    #[test]
    fn missing_rounds_match_vantage_windows() {
        let report = run_tiny();
        assert!(!report.missing_rounds.is_empty());
        // March 6-7 2022 window.
        let in_window = Round::containing(fbs_types::CivilDate::new(2022, 3, 6).at(12, 0)).unwrap();
        assert!(report.missing_rounds.contains(&in_window));
        // Tracked series hold None there.
        let series = report
            .series(EntityId::As(fbs_types::Asn(25482)))
            .expect("tracked");
        assert_eq!(series.ips.at(in_window), None);
    }

    #[test]
    fn rtt_rises_during_occupation_for_rerouted_as() {
        let report = run_tiny();
        let asn = fbs_types::Asn(25482);
        let before = report.rtt_monthly[&(asn, MonthId::new(2022, 4))]
            .mean_ms()
            .unwrap();
        let during = report.rtt_monthly[&(asn, MonthId::new(2022, 8))]
            .mean_ms()
            .unwrap();
        let after = report.rtt_monthly[&(asn, MonthId::new(2022, 12))]
            .mean_ms()
            .unwrap();
        assert!(during > before + 40.0, "during {during} before {before}");
        assert!(after < during - 40.0, "after {after} during {during}");
    }

    #[test]
    fn ioda_report_present_and_smaller_for_small_ases() {
        let report = run_tiny();
        let ioda = report.ioda.as_ref().expect("baseline ran");
        // Small Kherson regional ASes (< 20 /24s) are suppressed by IODA.
        assert!(!ioda.as_events.contains_key(&fbs_types::Asn(25482)));
        assert!(ioda.suppressed_ases > 0);
        // Our system reports more ASes with outages than IODA.
        assert!(report.ases_with_outages() > ioda.ases_with_outages);
    }

    #[test]
    fn oblast_stats_populated() {
        let report = run_tiny();
        let kherson_march = report
            .oblast_monthly
            .get(&(Oblast::Kherson, MonthId::new(2022, 3)))
            .expect("stats exist");
        assert!(kherson_march.regional_blocks > 0);
        assert!(kherson_march.mean_responsive() > 0.0);
        assert!(kherson_march.fbs_eligible > 0);
        // FBS keeps at least as many blocks eligible as Trinocular.
        assert!(kherson_march.fbs_eligible >= kherson_march.trin_eligible);
    }

    #[test]
    fn events_are_sorted_disjoint_and_bounded() {
        let report = run_tiny();
        for (asn, events) in &report.as_events {
            // Per (entity, signal): sorted by start, non-overlapping, and
            // inside the campaign window.
            for kind in fbs_signals::SignalKind::ALL {
                let of_kind: Vec<_> = events.iter().filter(|e| e.signal == kind).collect();
                for w in of_kind.windows(2) {
                    assert!(
                        w[0].end <= w[1].start,
                        "{asn} {kind:?} events overlap: {:?} then {:?}",
                        w[0],
                        w[1]
                    );
                }
                for e in of_kind {
                    assert!(e.start < e.end, "empty event {e:?}");
                    assert!(e.end.0 <= report.rounds, "event past campaign end");
                    assert!(e.min_ratio.is_finite());
                }
            }
        }
    }

    #[test]
    fn tracked_series_cover_every_round() {
        let report = run_tiny();
        for (entity, series) in &report.tracked {
            assert_eq!(
                series.ips.len() as u32,
                report.rounds,
                "{entity} series length"
            );
            assert_eq!(series.bgp.len(), series.fbs.len());
        }
    }

    #[test]
    fn round_quality_covers_every_round_and_marks_gaps() {
        let report = run_tiny();
        assert_eq!(report.round_quality.len() as u32, report.rounds);
        // No fault plan: every measured round is Ok, every vantage-offline
        // round Unusable — and nothing is Degraded.
        assert_eq!(report.degraded_rounds(), 0);
        assert_eq!(report.unusable_rounds(), report.missing_rounds.len());
        for r in &report.missing_rounds {
            assert_eq!(report.quality_of(*r), fbs_types::RoundQuality::Unusable);
        }
        assert_eq!(report.quality_of(Round(0)), fbs_types::RoundQuality::Ok);
        // Out-of-range lookups default to Ok rather than panicking.
        assert_eq!(
            report.quality_of(Round(report.rounds + 7)),
            fbs_types::RoundQuality::Ok
        );
    }

    #[test]
    fn invalid_config_is_rejected_by_new() {
        let scenario = fbs_scenarios::ukraine_with_rounds(WorldScale::Tiny, 21, 40);
        let world = scenario.into_world().unwrap();
        let cfg = CampaignConfig {
            fault_plan: Some(fbs_netsim::FaultPlan::constant(
                fbs_netsim::FaultIntensity {
                    reply_loss: 1.7,
                    ..fbs_netsim::FaultIntensity::default()
                },
            )),
            ..CampaignConfig::default()
        };
        assert!(Campaign::new(world, cfg).is_err());
    }

    #[test]
    fn unknown_block_owner_is_not_found_not_a_panic() {
        // Regression: the AS index used to be built with `as_pos[&b.owner]`
        // and panicked on a block whose owner is absent from the world's
        // AS list. The check now reports `FbsError::NotFound` instead.
        let orphan = BlockSpec {
            block: BlockId::from_octets(10, 99, 1),
            owner: Asn(64999),
            home: Oblast::Kherson,
            base_responders: 100,
            geo_population: 150,
            response_prob: 0.9,
            diurnal: false,
            power_backup: 1.0,
            annual_decay: 1.0,
        };
        let err = validate_block_owners(std::slice::from_ref(&orphan), &[Asn(100), Asn(200)])
            .unwrap_err();
        match &err {
            FbsError::NotFound { what } => {
                assert!(
                    what.contains("64999"),
                    "message names the orphan AS: {what}"
                );
                assert!(what.contains("10.99.1"), "message names the block: {what}");
            }
            other => panic!("expected NotFound, got {other:?}"),
        }
        // A block whose owner is known passes.
        validate_block_owners(&[orphan], &[Asn(64999)]).expect("known owner is fine");
    }

    #[test]
    fn frontline_regions_have_more_outage_events() {
        let report = run_tiny();
        let hours = |o: Oblast| fbs_signals::outage_hours(report.region_events_of(o));
        let kherson = hours(Oblast::Kherson);
        let lviv = hours(Oblast::Lviv);
        assert!(
            kherson > lviv,
            "kherson {kherson}h should exceed lviv {lviv}h"
        );
    }

    /// A 240-round world of two ASes with eight blocks each, whose routes
    /// change a few times: AS 100 has two scripted BGP outages, AS 200 one.
    fn feed_world() -> World {
        outage_world(
            17,
            &[100, 200],
            8,
            &[(100, 30..45), (100, 90..92), (200, 150..200)],
        )
    }

    /// A 240-round quiet world: each AS in `asns` owns `per_as` blocks
    /// under third octet 1, 2, … in turn, and each `(asn, rounds)` in
    /// `outages` is a scripted BGP outage.
    fn outage_world(
        seed: u64,
        asns: &[u32],
        per_as: u8,
        outages: &[(u32, std::ops::Range<u32>)],
    ) -> World {
        use fbs_netsim::{AsProfile, AsSpec, EventKind, EventTarget, Script, ScriptedEvent};
        let blocks: Vec<BlockSpec> = (1u8..)
            .zip(asns)
            .flat_map(|(octet, &asn)| {
                (0..per_as).map(move |c| BlockSpec {
                    block: BlockId::from_octets(10, octet, c),
                    owner: Asn(asn),
                    home: Oblast::Kherson,
                    base_responders: 120,
                    geo_population: 220,
                    response_prob: 0.9,
                    diurnal: false,
                    power_backup: 1.0,
                    annual_decay: 1.0,
                })
            })
            .collect();
        let ases = asns
            .iter()
            .map(|&asn| AsSpec {
                asn: Asn(asn),
                name: format!("as-{asn}"),
                profile: AsProfile::Regional,
                hq: Some(Oblast::Kherson),
                prefixes: blocks
                    .iter()
                    .filter(|b| b.owner == Asn(asn))
                    .map(|b| Prefix::from_block(b.block))
                    .collect(),
                base_rtt_ns: 40_000_000,
                upstream: Asn(1),
            })
            .collect();
        let mut script = Script::new();
        for (asn, outage) in outages {
            script.push(ScriptedEvent {
                name: "bgp-outage".into(),
                target: EventTarget::As(Asn(*asn)),
                kind: EventKind::BgpOutage,
                start: Round(outage.start).start(),
                end: Some(Round(outage.end).start()),
            });
        }
        let config = fbs_netsim::WorldConfig {
            seed,
            scale: WorldScale::Tiny,
            rounds: 240,
            ases,
            blocks,
        };
        World::new(config, script, vec![]).expect("valid config")
    }

    #[test]
    fn carried_feed_state_matches_a_cold_state_every_round() {
        use fbs_netsim::{FeedFaultIntensity, FeedFaultWindow};
        let window = |feed, rounds, intensity| {
            FeedFaultWindow::over_rounds("differential", feed, rounds, intensity)
        };
        let bgp = |rounds, intensity| window(FeedKind::Bgp, rounds, intensity);
        let none = FeedFaultIntensity::default();
        // Clean stretches between BGP corruption (light, then heavy),
        // truncation, a dark mirror, delays recovered by retries and one
        // exhausting them, plus a corrupt delegation-file window.
        let plan = FeedFaultPlan {
            windows: vec![
                bgp(
                    20..60,
                    FeedFaultIntensity {
                        corrupt_records: 0.05,
                        ..none
                    },
                ),
                bgp(
                    60..70,
                    FeedFaultIntensity {
                        corrupt_records: 0.5,
                        ..none
                    },
                ),
                bgp(
                    100..112,
                    FeedFaultIntensity {
                        truncate: 0.5,
                        ..none
                    },
                ),
                bgp(130..140, FeedFaultIntensity { drop: 1.0, ..none }),
                bgp(
                    160..170,
                    FeedFaultIntensity {
                        delay_attempts: 2,
                        ..none
                    },
                ),
                bgp(
                    170..175,
                    FeedFaultIntensity {
                        delay_attempts: 3,
                        ..none
                    },
                ),
                window(
                    FeedKind::Delegations,
                    48..120,
                    FeedFaultIntensity {
                        corrupt_records: 0.3,
                        ..none
                    },
                ),
            ],
        };
        let mut cfg = CampaignConfig::without_baseline();
        cfg.feed_plan = Some(plan);
        let campaign = Campaign::new(feed_world(), cfg).expect("valid config");
        let world = campaign.world();
        let statics = Statics::build(&campaign).expect("statics");
        let mut carried = FeedState::cold(&campaign);
        let (mut repeated, mut changed) = (0, 0);
        let mut last_dump = String::new();
        let mut verdicts = [0usize; 3];
        for r in 0..statics.rounds {
            let round = Round(r);
            let got = measure_feeds(world, &statics, carried.as_mut(), round);
            let mut cold = FeedState::cold(&campaign);
            let want = measure_feeds(world, &statics, cold.as_mut(), round);
            assert_eq!(got, want, "round {r}");
            match &got.0[FeedKind::Bgp.index()] {
                FeedObs::Accepted { .. } => verdicts[0] += 1,
                FeedObs::Rejected { .. } => verdicts[1] += 1,
                _ => verdicts[2] += 1,
            }
            let dump = feedfaults::bgp_dump_text(world, round);
            if r > 0 {
                if dump == last_dump {
                    repeated += 1;
                } else {
                    changed += 1;
                }
            }
            last_dump = dump;
        }
        assert!(
            repeated > 0 && changed > 0,
            "{repeated} repeated, {changed} changed"
        );
        assert!(verdicts.iter().all(|&n| n > 0), "BGP verdicts {verdicts:?}");
    }

    /// The shard task evaluates each block's truth once per round and hands
    /// it to every consumer. Every round, at one and two threads, each
    /// usable vantage's observation of each block outside a lost shard must
    /// equal a scan of a freshly evaluated truth, and each AS's darknet
    /// volume the sum of from-scratch `ibr::block_volume` calls.
    #[test]
    fn shared_truth_matches_a_fresh_truth_for_every_consumer() {
        use fbs_netsim::{
            FaultWindow, IbrDarkWindow, ShardFaultKind, ShardFaultPlan, ShardFaultWindow,
        };
        let none = FaultIntensity::default();
        // Inherited by the roster entry without a plan of its own: its
        // replies all drop over rounds 100..140, so it is masked there.
        let dark_path = FaultPlan {
            baseline: none,
            windows: vec![FaultWindow::over_rounds(
                "dark-path",
                100..140,
                FaultIntensity {
                    reply_loss: 1.0,
                    ..none
                },
            )],
        };
        // (masked vantage-rounds, dark darknet rounds, lost shards,
        // unrouted blocks, counts thinned below the truth, blocks that kept
        // an RTT)
        let mut seen = [0usize; 6];
        for threads in [1, 2] {
            let mut cfg = CampaignConfig::without_baseline();
            cfg.threads = threads;
            cfg.fault_plan = Some(dark_path.clone());
            // One of the three ASes keeps its RTT; the others journal none.
            cfg.rtt_tracked = vec![Asn(200)];
            cfg.vantages = vec![
                VantageSpec {
                    fault_plan: Some(FaultPlan::constant(FaultIntensity {
                        reply_loss: 0.3,
                        icmp_reply_budget: 90,
                        ..none
                    })),
                    ..VantageSpec::new("lossy")
                },
                VantageSpec {
                    path_rtt_ns: 15_000_000,
                    fault_plan: Some(FaultPlan::constant(FaultIntensity {
                        latency_spike: 0.2,
                        latency_spike_ns: 80_000_000,
                        ..none
                    })),
                    ..VantageSpec::new("spiky")
                },
                VantageSpec::new("inherits"),
            ];
            cfg.ibr = Some(IbrConfig::with_dark_windows(vec![IbrDarkWindow {
                start: 160,
                end: 180,
            }]));
            // Slot 1 panics on every attempt over rounds 190..210: lost.
            cfg.shard_plan = Some(ShardFaultPlan {
                windows: vec![ShardFaultWindow::scripted(
                    "lose-shard",
                    190..210,
                    vec![1],
                    crate::SHARD_RETRIES + 1,
                    ShardFaultKind::Panic,
                )],
            });
            let world = outage_world(23, &[100, 200, 300], 64, &[(200, 30..60)]);
            let campaign = Campaign::new(world, cfg).expect("valid config");
            let world = campaign.world();
            let statics = Statics::build(&campaign).expect("statics");
            assert!(statics.shard.n_shards() >= 3);
            let darknet = statics.ibr.as_ref().expect("IBR on");
            for r in 0..statics.rounds {
                let round = Round(r);
                let (record, _) = measure_round(world, &statics, None, round);
                let outcomes = &record.shards.as_ref().expect("supervised").outcomes;
                seen[2] += outcomes.iter().filter(|o| !o.completed()).count();
                let measured = || {
                    statics
                        .shard
                        .ranges()
                        .iter()
                        .zip(outcomes)
                        .filter(|(_, o)| o.completed())
                        .flat_map(|(range, _)| range.clone())
                };
                for (vs, obs) in statics.vantages.iter().zip(&record.vantages) {
                    let q = vs.plan.quality_at(
                        round,
                        statics.rounds,
                        SCAN_REPROBES,
                        &QualityConfig::default(),
                    );
                    if !vantage_usable(record.online, q) {
                        assert!(obs.blocks.is_empty(), "round {r}: {}", vs.spec.name);
                        seen[0] += 1;
                        continue;
                    }
                    let intensity = vs.plan.intensity_at(round, statics.rounds);
                    for bi in measured() {
                        let truth = world.block_truth(round, bi);
                        let want = scan_block(
                            &truth,
                            &vs.rng,
                            vs.spec.path_rtt_ns,
                            &intensity,
                            round,
                            bi,
                            false,
                            statics.rtt_block[bi],
                        );
                        assert_eq!(
                            obs.blocks[bi], want,
                            "round {r}, {} block {bi}",
                            vs.spec.name
                        );
                        seen[3] += usize::from(!truth.routed);
                        seen[4] += usize::from(want.responsive < truth.responsive);
                        seen[5] += usize::from(want.rtt_ns != 0);
                    }
                }
                let ibr_obs = record.ibr.as_ref().expect("IBR on");
                assert_eq!(ibr_obs.dark, darknet.config.dark_at(round), "round {r}");
                if ibr_obs.dark {
                    seen[1] += 1;
                    continue;
                }
                let mut want = vec![0u64; statics.as_list.len()];
                for bi in measured() {
                    want[statics.block_as[bi]] +=
                        ibr::block_volume(world, &darknet.config, &darknet.rng, round, bi);
                }
                assert_eq!(ibr_obs.volumes, want, "round {r}");
            }
        }
        assert!(
            seen.iter().all(|&n| n > 0),
            "masked, dark, lost, unrouted, thinned, rtt kept: {seen:?}"
        );
    }

    #[test]
    fn journal_keeps_rtt_only_for_rtt_tracked_blocks() {
        use fbs_netsim::FaultWindow;
        let none = FaultIntensity::default();
        let mut cfg = CampaignConfig::without_baseline();
        cfg.rtt_tracked = vec![Asn(200)];
        cfg.fault_plan = Some(FaultPlan {
            baseline: none,
            windows: vec![FaultWindow::over_rounds(
                "dark-path",
                40..60,
                FaultIntensity {
                    reply_loss: 1.0,
                    ..none
                },
            )],
        });
        cfg.vantages = vec![
            VantageSpec {
                fault_plan: Some(FaultPlan::constant(FaultIntensity {
                    reply_loss: 0.3,
                    ..none
                })),
                ..VantageSpec::new("lossy")
            },
            VantageSpec {
                path_rtt_ns: 15_000_000,
                fault_plan: Some(FaultPlan::constant(FaultIntensity {
                    latency_spike: 0.2,
                    latency_spike_ns: 80_000_000,
                    ..none
                })),
                ..VantageSpec::new("spiky")
            },
            VantageSpec::new("inherits"),
        ];
        let world = outage_world(29, &[100, 200, 300], 16, &[(200, 30..50)]);
        let campaign = Campaign::new(world, cfg).expect("valid config");
        let statics = Statics::build(&campaign).expect("statics");
        let dir = std::env::temp_dir().join(format!("fbs-rtt-mask-{}", std::process::id()));
        let policy = CheckpointPolicy {
            snapshot_every: 0,
            fsync: false,
        };
        campaign.run_checkpointed(&dir, policy).expect("run");
        let (_, records, _) =
            fbs_journal::Journal::open(dir.join(crate::checkpoint::JOURNAL_FILE)).expect("wal");
        let _ = std::fs::remove_dir_all(&dir);
        // (blocks journaled, blocks that carried an RTT)
        let mut seen = [0usize; 2];
        for raw in &records {
            let record = RoundRecord::decode(raw).expect("record");
            assert!(record.blocks.is_empty(), "roster records carry no sweep");
            for vantage in &record.vantages {
                for (bi, obs) in vantage.blocks.iter().enumerate() {
                    seen[0] += 1;
                    if obs.rtt_ns != 0 {
                        seen[1] += 1;
                        assert!(
                            statics.rtt_block[bi],
                            "round {}: block {bi} of an untracked AS carries an RTT",
                            record.round.0
                        );
                    }
                }
            }
        }
        assert_eq!(records.len() as u32, statics.rounds);
        assert!(
            seen[1] > 0 && seen[1] < seen[0],
            "journaled, with RTT: {seen:?}"
        );
    }

    #[test]
    fn small_single_vantage_records_average_under_3_5_bytes_per_block() {
        let scenario = fbs_scenarios::ukraine_with_rounds(WorldScale::Small, 42, 48);
        let campaign = Campaign::new(scenario.into_world().unwrap(), CampaignConfig::default())
            .expect("valid config");
        let world = campaign.world();
        let statics = Statics::build(&campaign).expect("statics");
        // (blocks, version-7 bytes, version-6 bytes) over the scanned rounds
        let mut sum = [0usize; 3];
        for r in 0..statics.rounds {
            let (record, _) = measure_round(world, &statics, None, Round(r));
            if record.blocks.is_empty() {
                continue;
            }
            sum[0] += record.blocks.len();
            sum[1] += record.encode().len();
            sum[2] += record
                .encode_read_only(crate::checkpoint::FIXED_WIDTH_STATE_VERSION)
                .len();
        }
        assert!(sum[0] > 0, "no scanned round");
        let per_block = |bytes: usize| bytes as f64 / sum[0] as f64;
        assert!(
            per_block(sum[1]) <= 3.5,
            "{:.2} B per block, v6 {:.2}",
            per_block(sum[1]),
            per_block(sum[2])
        );
        assert!(per_block(sum[2]) >= 14.0);
    }

    #[test]
    fn checkpointed_run_matches_plain_run() {
        let scenario = fbs_scenarios::ukraine_with_rounds(WorldScale::Tiny, 21, 180);
        let world = scenario.into_world().unwrap();
        let campaign = Campaign::new(world, CampaignConfig::default()).unwrap();
        let plain = campaign.run().unwrap();
        let dir = std::env::temp_dir().join(format!("fbs-ckpt-unit-{}", std::process::id()));
        let checkpointed = campaign
            .run_checkpointed(
                &dir,
                CheckpointPolicy {
                    snapshot_every: 24,
                    fsync: false,
                },
            )
            .unwrap();
        assert_eq!(format!("{plain:?}"), format!("{checkpointed:?}"));
        // The journal holds one record per round; a snapshot exists.
        assert!(dir.join(crate::checkpoint::JOURNAL_FILE).exists());
        assert!(dir.join(crate::checkpoint::SNAPSHOT_FILE).exists());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn every_round_is_fsynced_before_its_step_returns() {
        let policy = CheckpointPolicy {
            snapshot_every: 6,
            fsync: true,
        };
        for threads in [1, 2] {
            let scenario = fbs_scenarios::ukraine_with_rounds(WorldScale::Tiny, 21, 40);
            let config = CampaignConfig {
                threads,
                ..CampaignConfig::default()
            };
            let campaign = Campaign::new(scenario.into_world().unwrap(), config).unwrap();
            let dir = std::env::temp_dir()
                .join(format!("fbs-fsync-order-{threads}-{}", std::process::id()));
            let mut runner = campaign.runner_checkpointed(&dir, policy).unwrap();
            while runner.step_round().unwrap() {
                let synced = runner.store.as_ref().map(CheckpointStore::synced_records);
                assert_eq!(
                    synced,
                    Some(u64::from(runner.completed_rounds())),
                    "threads {threads}"
                );
            }
            runner.finish().unwrap();
            let _ = std::fs::remove_dir_all(&dir);
        }
    }
}

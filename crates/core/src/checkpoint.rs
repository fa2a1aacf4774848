//! Durable campaign execution: round records, snapshots, and the store.
//!
//! A checkpoint directory holds two files:
//!
//! * `rounds.wal` — the write-ahead round journal ([`fbs_journal::Journal`]).
//!   One record per campaign round, appended *after* the round has been
//!   applied to the in-memory pipeline, holding everything the measurement
//!   path produced: the vantage's online flag, the round's
//!   [`RoundQuality`] verdict, and the per-block observations (responsive
//!   count, RTT, routed flag). Values derived deterministically from the
//!   world — trinocular availability, probe-panel staleness, eligibility —
//!   are *not* journaled; replay recomputes them, which keeps records
//!   small and resume bit-identical.
//! * `state.snap` — an atomic snapshot of the full
//!   [`PipelineState`](crate::pipeline) written every
//!   [`CheckpointPolicy::snapshot_every`] rounds, so resuming replays at
//!   most one snapshot interval of journal records instead of the whole
//!   campaign.
//!
//! Resume decodes the snapshot first, then streams the journal once: every
//! frame is still CRC-checked and every record decoded and checked for
//! contiguity, but only the records at or past the snapshot's cursor are
//! kept for replay. Resume memory is therefore bounded by one snapshot
//! interval of records, not by the campaign's length.
//!
//! Damage handling: the journal self-heals by truncating to the last
//! CRC-valid record; a snapshot that fails validation is moved to
//! `state.snap.quarantined` and the journal is replayed from round 0 (the
//! journal is never compacted, precisely so that it alone can rebuild the
//! full state).

use crate::pipeline::PipelineState;
use fbs_feeds::FeedQuarantine;
use fbs_journal::{quarantine_snapshot, read_snapshot, write_snapshot, Journal, JournalRecovery};
use fbs_types::codec::{ByteReader, ByteWriter, Persist};
use fbs_types::{FbsError, Result, Round, RoundQuality};
use std::path::{Path, PathBuf};

/// Schema version of both the journal record payloads and the snapshot
/// payload. Bumped on any change to [`RoundRecord`] or `PipelineState`
/// encoding; files with another version are rejected as corrupt rather
/// than misread.
///
/// Version history: 1 — initial crash-safe campaigns; 2 — feed-delivery
/// observations ([`FeedObs`]) and the per-block `routed_known` bit; 3 —
/// multi-vantage campaigns (per-vantage [`VantageObs`] in round records,
/// per-vantage quality ledgers in the snapshot); 4 — the passive
/// background-radiation signal (per-AS [`IbrObs`] in round records,
/// per-AS seasonal predictors and IBR ledgers in the snapshot); 5 —
/// supervised sharded execution (per-shard [`ShardObs`] outcomes in round
/// records, per-round shard summaries in the snapshot).
///
/// A single-vantage campaign (empty roster) still writes
/// [`LEGACY_STATE_VERSION`] files, byte-identical to what it always wrote;
/// version 3 is only emitted when the roster is non-empty,
/// [`IBR_STATE_VERSION`] only when the passive signal is enabled, and
/// [`SHARD_STATE_VERSION`] only when shard supervision is enabled
/// (`shard_plan: Some`), so pre-existing checkpoints stay readable and
/// writable without any migration.
pub const STATE_VERSION: u32 = 3;

/// The pre-multi-vantage schema version, still both read and written (it
/// is *the* on-disk format for single-vantage campaigns).
pub const LEGACY_STATE_VERSION: u32 = 2;

/// The passive-signal schema version, written only by campaigns with IBR
/// enabled (`ibr: Some`). Unlike version 3 it carries both the
/// single-vantage `blocks` and the multi-vantage `vantages` layouts, so
/// it composes with either scanning mode.
pub const IBR_STATE_VERSION: u32 = 4;

/// The supervised-shard schema version, written only by campaigns with a
/// shard-fault plan (`shard_plan: Some`). It carries every section of the
/// earlier layouts — `blocks`, `vantages`, and an *optional* darknet
/// observation behind a presence flag — plus the per-shard supervision
/// outcomes, so it composes with any scanning/passive mode.
pub const SHARD_STATE_VERSION: u32 = 5;

/// Journal file name inside a checkpoint directory.
pub const JOURNAL_FILE: &str = "rounds.wal";
/// Snapshot file name inside a checkpoint directory.
pub const SNAPSHOT_FILE: &str = "state.snap";

/// When and how durably checkpoints are written.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CheckpointPolicy {
    /// Snapshot the full pipeline state every this many rounds
    /// (`0` disables snapshots; the journal alone still allows resume).
    pub snapshot_every: u32,
    /// Fsync the journal after every appended round. Disabling trades the
    /// last round's durability for throughput.
    pub fsync: bool,
}

impl Default for CheckpointPolicy {
    fn default() -> Self {
        // One snapshot per simulated week (84 two-hour rounds): recovery
        // replays at most a week of journal, and snapshot I/O stays well
        // under one percent of round processing. See EXPERIMENTS.md for
        // the cadence trade-off.
        CheckpointPolicy {
            snapshot_every: 84,
            fsync: true,
        }
    }
}

/// What one round's measurement produced — the journal record payload.
///
/// Offline or unusable rounds carry an empty `blocks` vector: the skip is
/// itself the observation.
///
/// In multi-vantage campaigns `vantages` holds one [`VantageObs`] per
/// roster entry (in roster order), `blocks` stays empty (the fused view is
/// recomputed deterministically in `apply_round`, never journaled), and
/// the top-level `quality` is the *fused* round quality — the best among
/// usable vantages. Single-vantage records leave `vantages` empty and are
/// encoded in the legacy version-2 layout, byte-identical to before.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct RoundRecord {
    /// The round this record describes.
    pub round: Round,
    /// Whether the vantage point was online.
    pub online: bool,
    /// The fault-plan quality verdict for the round (fused over usable
    /// vantages in multi-vantage campaigns).
    pub quality: RoundQuality,
    /// Per-block observations, indexed like `World::blocks`; empty when
    /// the round was skipped, and always empty in multi-vantage records.
    pub blocks: Vec<BlockObs>,
    /// Feed-delivery observations in [`fbs_types::FeedKind::ALL`] order.
    /// Empty when the feed layer is disabled (`feed_plan: None`), exactly
    /// three entries when it is on. Feeds are fetched even on rounds the
    /// vantage sat offline — the mirrors do not care about our scanner.
    /// Feeds are shared infrastructure, fetched once, not per vantage.
    pub feeds: Vec<FeedObs>,
    /// Per-vantage observations in roster order; empty in single-vantage
    /// campaigns.
    pub vantages: Vec<VantageObs>,
    /// The darknet collector's view of the round: per-AS background
    /// radiation, or the collector's own darkness. `None` when the passive
    /// signal is disabled — only then do the pre-IBR layouts apply.
    pub ibr: Option<IbrObs>,
    /// Per-shard supervision outcomes for the round, in roster (slot)
    /// order. `None` when shard supervision is off — only then do the
    /// pre-shard layouts apply. Journaling outcomes (not timings) is what
    /// makes a killed-and-resumed campaign replay a degraded round
    /// byte-identically: replay reads which shards were lost instead of
    /// re-running the supervisor.
    pub shards: Option<ShardObs>,
}

/// The shard supervisor's verdicts for one round, one entry per shard in
/// slot order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct ShardObs {
    /// Per-shard outcomes, indexed by shard slot.
    pub outcomes: Vec<ShardOutcomeObs>,
}

/// How one shard's supervised execution ended.
///
/// Counters are per-round, per-shard: `panics` and `timeouts` count the
/// *failed attempts* that preceded the final verdict, so a shard that
/// panicked once and then succeeded records `Completed { attempt: 1,
/// panics: 1, timeouts: 0 }`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ShardOutcomeObs {
    /// The shard produced its chunk on attempt `attempt` (0 = first try).
    Completed {
        /// The attempt index that succeeded.
        attempt: u32,
        /// Attempts that ended in a caught panic.
        panics: u32,
        /// Attempts the deadline watchdog struck down.
        timeouts: u32,
    },
    /// Every attempt in the retry budget failed; the shard's blocks are
    /// missing this round and the round quality is downgraded.
    Lost {
        /// Attempts that ended in a caught panic.
        panics: u32,
        /// Attempts the deadline watchdog struck down.
        timeouts: u32,
    },
}

impl ShardOutcomeObs {
    /// Whether the shard produced its chunk.
    pub fn completed(&self) -> bool {
        matches!(self, ShardOutcomeObs::Completed { .. })
    }
}

impl Persist for ShardObs {
    fn persist(&self, w: &mut ByteWriter) {
        self.outcomes.persist(w);
    }
    fn restore(r: &mut ByteReader<'_>) -> Result<Self> {
        Ok(ShardObs {
            outcomes: Vec::<ShardOutcomeObs>::restore(r)?,
        })
    }
}

impl Persist for ShardOutcomeObs {
    fn persist(&self, w: &mut ByteWriter) {
        match self {
            ShardOutcomeObs::Completed {
                attempt,
                panics,
                timeouts,
            } => {
                w.put_u8(0);
                w.put_u32(*attempt);
                w.put_u32(*panics);
                w.put_u32(*timeouts);
            }
            ShardOutcomeObs::Lost { panics, timeouts } => {
                w.put_u8(1);
                w.put_u32(*panics);
                w.put_u32(*timeouts);
            }
        }
    }
    fn restore(r: &mut ByteReader<'_>) -> Result<Self> {
        match r.get_u8()? {
            0 => Ok(ShardOutcomeObs::Completed {
                attempt: r.get_u32()?,
                panics: r.get_u32()?,
                timeouts: r.get_u32()?,
            }),
            1 => Ok(ShardOutcomeObs::Lost {
                panics: r.get_u32()?,
                timeouts: r.get_u32()?,
            }),
            other => Err(FbsError::Io {
                reason: format!("unknown shard outcome tag {other}"),
            }),
        }
    }
}

/// One round of passive background radiation as the darknet collector saw
/// it. Unlike active observations this is measured on *every* round — the
/// darknet does not care whether our scanner is online.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct IbrObs {
    /// The collector itself was dark: `volumes` is empty and the predictor
    /// freezes rather than reading the silence as an outage.
    pub dark: bool,
    /// Unsolicited packet volume per AS, in campaign AS order; empty when
    /// `dark`.
    pub volumes: Vec<u64>,
}

impl Persist for IbrObs {
    fn persist(&self, w: &mut ByteWriter) {
        w.put_bool(self.dark);
        self.volumes.persist(w);
    }
    fn restore(r: &mut ByteReader<'_>) -> Result<Self> {
        let dark = r.get_bool()?;
        let volumes = Vec::<u64>::restore(r)?;
        if dark && !volumes.is_empty() {
            return Err(FbsError::Io {
                reason: "dark IBR observation carries volumes".to_string(),
            });
        }
        Ok(IbrObs { dark, volumes })
    }
}

/// One vantage point's view of one round in a multi-vantage campaign.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct VantageObs {
    /// Whether the vantage was online this round.
    pub online: bool,
    /// The vantage's own fault-plan quality verdict for the round.
    pub quality: RoundQuality,
    /// The vantage's per-block observations; empty when the vantage was
    /// offline or its round was [`RoundQuality::Unusable`] (it is masked
    /// out of the quorum, so it measures nothing).
    pub blocks: Vec<BlockObs>,
}

impl Persist for VantageObs {
    fn persist(&self, w: &mut ByteWriter) {
        w.put_bool(self.online);
        self.quality.persist(w);
        self.blocks.persist(w);
    }
    fn restore(r: &mut ByteReader<'_>) -> Result<Self> {
        Ok(VantageObs {
            online: r.get_bool()?,
            quality: RoundQuality::restore(r)?,
            blocks: Vec::<BlockObs>::restore(r)?,
        })
    }
}

/// One block's measured values after the faulty measurement path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct BlockObs {
    /// Responding addresses that survived loss/thinning.
    pub responsive: u32,
    /// Observed round-trip time, nanoseconds (spikes included).
    pub rtt_ns: u64,
    /// Whether the block was BGP-routed.
    pub routed: bool,
    /// Whether this round's BGP feed actually delivered knowledge of the
    /// block's routing state. `false` means the route record was lost to
    /// quarantine (or the whole dump was rejected or absent): the pipeline
    /// must carry the last known routed bit forward instead of trusting
    /// `routed`. Always `true` when the feed layer is off.
    pub routed_known: bool,
}

impl Persist for BlockObs {
    fn persist(&self, w: &mut ByteWriter) {
        w.put_u32(self.responsive);
        w.put_u64(self.rtt_ns);
        w.put_bool(self.routed);
        w.put_bool(self.routed_known);
    }
    fn restore(r: &mut ByteReader<'_>) -> Result<Self> {
        Ok(BlockObs {
            responsive: r.get_u32()?,
            rtt_ns: r.get_u64()?,
            routed: r.get_bool()?,
            routed_known: r.get_bool()?,
        })
    }
}

/// What one round's delivery attempt(s) for one feed produced.
///
/// The journal keeps the full quarantine detail so crash replay reproduces
/// the staleness ledger and the quarantine report byte-for-byte without
/// re-fetching anything.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum FeedObs {
    /// The feed was not due this round (monthly / yearly cadence).
    NotDue,
    /// A delivery arrived and passed tolerance; `quarantine` may still
    /// carry individually lost records.
    Accepted {
        /// Extra fetch attempts consumed before the delivery landed.
        retries: u32,
        /// What the lossy parse set aside.
        quarantine: FeedQuarantine,
    },
    /// A delivery arrived but exceeded tolerance; carried forward.
    Rejected {
        /// Extra fetch attempts consumed before the delivery landed.
        retries: u32,
        /// The evidence for the rejection.
        quarantine: FeedQuarantine,
    },
    /// No delivery at all after the retry budget.
    Absent {
        /// Extra fetch attempts consumed (the whole budget).
        retries: u32,
    },
}

impl Persist for FeedObs {
    fn persist(&self, w: &mut ByteWriter) {
        match self {
            FeedObs::NotDue => w.put_u8(0),
            FeedObs::Accepted {
                retries,
                quarantine,
            } => {
                w.put_u8(1);
                w.put_u32(*retries);
                quarantine.persist(w);
            }
            FeedObs::Rejected {
                retries,
                quarantine,
            } => {
                w.put_u8(2);
                w.put_u32(*retries);
                quarantine.persist(w);
            }
            FeedObs::Absent { retries } => {
                w.put_u8(3);
                w.put_u32(*retries);
            }
        }
    }
    fn restore(r: &mut ByteReader<'_>) -> Result<Self> {
        match r.get_u8()? {
            0 => Ok(FeedObs::NotDue),
            1 => Ok(FeedObs::Accepted {
                retries: r.get_u32()?,
                quarantine: FeedQuarantine::restore(r)?,
            }),
            2 => Ok(FeedObs::Rejected {
                retries: r.get_u32()?,
                quarantine: FeedQuarantine::restore(r)?,
            }),
            3 => Ok(FeedObs::Absent {
                retries: r.get_u32()?,
            }),
            other => Err(FbsError::Io {
                reason: format!("unknown feed observation tag {other}"),
            }),
        }
    }
}

impl Persist for RoundRecord {
    fn persist(&self, w: &mut ByteWriter) {
        // One field sequence for all four layouts, with the version gating
        // which sections appear: version 5 (shard supervision on) carries
        // every section, with the darknet observation behind a presence
        // flag; version 4 (passive signal on) carries both scanning
        // layouts plus the darknet observation; version 2 is the legacy
        // single-vantage layout byte-for-byte; version 3 swaps the block
        // section for the vantage roster.
        let version = self.layout_version();
        w.put_u32(version);
        self.round.persist(w);
        w.put_bool(self.online);
        self.quality.persist(w);
        if version != STATE_VERSION {
            self.blocks.persist(w);
        }
        self.feeds.persist(w);
        if version != LEGACY_STATE_VERSION {
            self.vantages.persist(w);
        }
        if version == SHARD_STATE_VERSION {
            w.put_bool(self.ibr.is_some());
        }
        if let Some(ibr) = &self.ibr {
            ibr.persist(w);
        }
        if let Some(shards) = &self.shards {
            shards.persist(w);
        }
    }
    fn restore(r: &mut ByteReader<'_>) -> Result<Self> {
        let version = r.get_u32()?;
        match version {
            LEGACY_STATE_VERSION => Ok(RoundRecord {
                round: Round::restore(r)?,
                online: r.get_bool()?,
                quality: RoundQuality::restore(r)?,
                blocks: Vec::<BlockObs>::restore(r)?,
                feeds: Vec::<FeedObs>::restore(r)?,
                vantages: Vec::new(),
                ibr: None,
                shards: None,
            }),
            STATE_VERSION => {
                let round = Round::restore(r)?;
                let online = r.get_bool()?;
                let quality = RoundQuality::restore(r)?;
                let feeds = Vec::<FeedObs>::restore(r)?;
                let vantages = Vec::<VantageObs>::restore(r)?;
                if vantages.is_empty() {
                    return Err(FbsError::Io {
                        reason: format!(
                            "version-{STATE_VERSION} round record with an empty vantage roster"
                        ),
                    });
                }
                Ok(RoundRecord {
                    round,
                    online,
                    quality,
                    blocks: Vec::new(),
                    feeds,
                    vantages,
                    ibr: None,
                    shards: None,
                })
            }
            IBR_STATE_VERSION => Ok(RoundRecord {
                round: Round::restore(r)?,
                online: r.get_bool()?,
                quality: RoundQuality::restore(r)?,
                blocks: Vec::<BlockObs>::restore(r)?,
                feeds: Vec::<FeedObs>::restore(r)?,
                vantages: Vec::<VantageObs>::restore(r)?,
                ibr: Some(IbrObs::restore(r)?),
                shards: None,
            }),
            SHARD_STATE_VERSION => {
                let round = Round::restore(r)?;
                let online = r.get_bool()?;
                let quality = RoundQuality::restore(r)?;
                let blocks = Vec::<BlockObs>::restore(r)?;
                let feeds = Vec::<FeedObs>::restore(r)?;
                let vantages = Vec::<VantageObs>::restore(r)?;
                let ibr = if r.get_bool()? {
                    Some(IbrObs::restore(r)?)
                } else {
                    None
                };
                let shards = ShardObs::restore(r)?;
                if shards.outcomes.is_empty() {
                    return Err(FbsError::Io {
                        reason: format!(
                            "version-{SHARD_STATE_VERSION} round record with no shard outcomes"
                        ),
                    });
                }
                Ok(RoundRecord {
                    round,
                    online,
                    quality,
                    blocks,
                    feeds,
                    vantages,
                    ibr,
                    shards: Some(shards),
                })
            }
            other => Err(FbsError::Io {
                reason: format!(
                    "round record version {other}, expected {LEGACY_STATE_VERSION}, \
                     {STATE_VERSION}, {IBR_STATE_VERSION} or {SHARD_STATE_VERSION}"
                ),
            }),
        }
    }
}

impl RoundRecord {
    /// The journal layout this record persists as: version 5 whenever
    /// shard supervision rides along, version 4 whenever the passive
    /// observation does (without shards), else the legacy single-vantage
    /// version 2 (no roster) or the multi-vantage version 3.
    fn layout_version(&self) -> u32 {
        if self.shards.is_some() {
            SHARD_STATE_VERSION
        } else if self.ibr.is_some() {
            IBR_STATE_VERSION
        } else if self.vantages.is_empty() {
            LEGACY_STATE_VERSION
        } else {
            STATE_VERSION
        }
    }

    /// Serializes the record to journal payload bytes.
    pub fn encode(&self) -> Vec<u8> {
        let mut w = ByteWriter::new();
        self.persist(&mut w);
        w.into_bytes()
    }

    /// Deserializes a journal payload, requiring full consumption.
    pub fn decode(bytes: &[u8]) -> Result<Self> {
        let mut r = ByteReader::new(bytes);
        let record = Self::restore(&mut r)?;
        r.expect_exhausted()?;
        Ok(record)
    }
}

/// What opening a checkpoint directory found and repaired.
#[derive(Debug, Clone, Default)]
pub struct ResumeDiagnostics {
    /// Journal tail recovery (truncation / quarantine of `rounds.wal`).
    pub journal: JournalRecovery,
    /// Whether a valid snapshot was loaded.
    pub snapshot_loaded: bool,
    /// Where a damaged snapshot was moved, if one was quarantined.
    pub snapshot_quarantined: Option<PathBuf>,
    /// Journal records replayed on top of the snapshot (or from scratch).
    pub replayed_rounds: u32,
    /// Journal records re-measured to heal a journal that lagged behind
    /// the snapshot (after its corrupt tail was truncated).
    pub healed_rounds: u32,
    /// The schema version of a structurally valid snapshot that was
    /// quarantined because no decoder accepts it (future or foreign).
    pub snapshot_foreign_version: Option<u32>,
}

/// The open checkpoint directory a running campaign appends to.
pub(crate) struct CheckpointStore {
    journal: Journal,
    snapshot_path: PathBuf,
    policy: CheckpointPolicy,
}

impl CheckpointStore {
    /// Starts a fresh checkpoint directory, truncating any prior journal
    /// and removing any prior snapshot.
    pub fn fresh(dir: &Path, policy: CheckpointPolicy) -> Result<Self> {
        std::fs::create_dir_all(dir)?;
        let snapshot_path = dir.join(SNAPSHOT_FILE);
        if snapshot_path.exists() {
            std::fs::remove_file(&snapshot_path)?;
        }
        Ok(CheckpointStore {
            journal: Journal::create(dir.join(JOURNAL_FILE))?,
            snapshot_path,
            policy,
        })
    }

    /// Reads and validates the snapshot of the checkpoint directory `dir`,
    /// the first step of a resume.
    ///
    /// Returns the snapshot's schema version and payload if a valid one was
    /// present (already version-checked), and records what it found in
    /// `diagnostics`. A corrupt or foreign-version snapshot is
    /// quarantined, not fatal.
    pub fn load_snapshot(
        dir: &Path,
        diagnostics: &mut ResumeDiagnostics,
    ) -> Result<Option<(u32, Vec<u8>)>> {
        let snapshot_path = dir.join(SNAPSHOT_FILE);
        Ok(match read_snapshot(&snapshot_path) {
            Ok(None) => None,
            Ok(Some((version, payload)))
                if version == STATE_VERSION
                    || version == LEGACY_STATE_VERSION
                    || version == IBR_STATE_VERSION
                    || version == SHARD_STATE_VERSION =>
            {
                diagnostics.snapshot_loaded = true;
                Some((version, payload))
            }
            Ok(Some((version, _))) => {
                // A future or foreign schema: unreadable, same as damage,
                // but the version is kept so resume reporting can say
                // *which* schema stranded the snapshot.
                diagnostics.snapshot_foreign_version = Some(version);
                diagnostics.snapshot_quarantined = Some(quarantine_snapshot(&snapshot_path)?);
                None
            }
            Err(FbsError::CorruptSnapshot { .. }) => {
                diagnostics.snapshot_quarantined = Some(quarantine_snapshot(&snapshot_path)?);
                None
            }
            Err(e) => return Err(e),
        })
    }

    /// Opens the journal of the checkpoint directory `dir` (creating the
    /// directory if absent), the second step of a resume.
    ///
    /// Every recovered record payload is handed to `visit` in round order
    /// as the journal streams past (see [`Journal::open_with`]), and what
    /// journal recovery repaired goes into `diagnostics`. Returns the
    /// store, ready to append.
    pub fn open(
        dir: &Path,
        policy: CheckpointPolicy,
        diagnostics: &mut ResumeDiagnostics,
        visit: impl FnMut(&[u8]) -> Result<()>,
    ) -> Result<Self> {
        std::fs::create_dir_all(dir)?;
        let (journal, recovery) = Journal::open_with(dir.join(JOURNAL_FILE), visit)?;
        diagnostics.journal = recovery;
        Ok(CheckpointStore {
            journal,
            snapshot_path: dir.join(SNAPSHOT_FILE),
            policy,
        })
    }

    /// Appends one round record, fsyncing per policy.
    pub fn append(&mut self, record: &RoundRecord) -> Result<()> {
        self.journal.append(&record.encode())?;
        if self.policy.fsync {
            self.journal.sync()?;
        }
        Ok(())
    }

    /// Writes a snapshot if the policy says this round boundary gets one.
    pub fn maybe_snapshot(&mut self, completed_rounds: u32, state: &PipelineState) -> Result<()> {
        if self.policy.snapshot_every == 0
            || !completed_rounds.is_multiple_of(self.policy.snapshot_every)
        {
            return Ok(());
        }
        self.write_snapshot_now(state)
    }

    /// Moves the snapshot file aside as `state.snap.quarantined`, used
    /// when the payload was structurally valid but failed logic-level
    /// restoration (schema drift, wrong world). Returns the new path, or
    /// `None` when no snapshot file exists.
    pub fn quarantine_snapshot_file(&self) -> Result<Option<PathBuf>> {
        if self.snapshot_path.exists() {
            Ok(Some(quarantine_snapshot(&self.snapshot_path)?))
        } else {
            Ok(None)
        }
    }

    /// Unconditionally snapshots the current state, in the schema version
    /// the state's vantage mode dictates (legacy for single-vantage).
    pub fn write_snapshot_now(&mut self, state: &PipelineState) -> Result<()> {
        let mut w = ByteWriter::new();
        state.persist_into(&mut w);
        write_snapshot(&self.snapshot_path, state.schema_version(), &w.into_bytes())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_record_roundtrips() {
        let record = RoundRecord {
            round: Round(42),
            online: true,
            quality: RoundQuality::Degraded,
            blocks: vec![
                BlockObs {
                    responsive: 118,
                    rtt_ns: 40_120_000,
                    routed: true,
                    routed_known: true,
                },
                BlockObs {
                    responsive: 0,
                    rtt_ns: 0,
                    routed: false,
                    routed_known: false,
                },
            ],
            feeds: Vec::new(),
            vantages: Vec::new(),
            ibr: None,
            shards: None,
        };
        let back = RoundRecord::decode(&record.encode()).unwrap();
        assert_eq!(back, record);
        // The single-vantage encoding is pinned to the legacy version byte:
        // old readers and writers keep interoperating with no migration.
        assert_eq!(record.encode()[0] as u32, LEGACY_STATE_VERSION);

        let skipped = RoundRecord {
            round: Round(7),
            online: false,
            quality: RoundQuality::Unusable,
            blocks: Vec::new(),
            feeds: Vec::new(),
            vantages: Vec::new(),
            ibr: None,
            shards: None,
        };
        assert_eq!(RoundRecord::decode(&skipped.encode()).unwrap(), skipped);
    }

    #[test]
    fn multi_vantage_record_roundtrips_as_version_3() {
        let obs = |responsive: u32| BlockObs {
            responsive,
            rtt_ns: 41_000_000,
            routed: true,
            routed_known: true,
        };
        let record = RoundRecord {
            round: Round(12),
            online: true,
            quality: RoundQuality::Ok,
            blocks: Vec::new(),
            feeds: Vec::new(),
            vantages: vec![
                VantageObs {
                    online: true,
                    quality: RoundQuality::Ok,
                    blocks: vec![obs(30), obs(0)],
                },
                VantageObs {
                    online: true,
                    quality: RoundQuality::Unusable,
                    blocks: Vec::new(),
                },
                VantageObs {
                    online: false,
                    quality: RoundQuality::Ok,
                    blocks: Vec::new(),
                },
            ],
            ibr: None,
            shards: None,
        };
        assert_eq!(record.encode()[0] as u32, STATE_VERSION);
        assert_eq!(RoundRecord::decode(&record.encode()).unwrap(), record);
        // A version-3 record must carry a roster; an empty one is damage.
        let empty = RoundRecord {
            vantages: Vec::new(),
            ..record.clone()
        };
        let mut bytes = empty.encode();
        bytes[0] = STATE_VERSION as u8;
        assert!(RoundRecord::decode(&bytes).is_err());
    }

    #[test]
    fn round_record_with_feed_observations_roundtrips() {
        let quarantine = FeedQuarantine::measure(
            "10.0.0.0/24|65000\ngarbage\n",
            1,
            vec![fbs_types::QuarantinedRecord::new(
                2,
                "missing '|'",
                "garbage",
            )],
        );
        let record = RoundRecord {
            round: Round(9),
            online: true,
            quality: RoundQuality::Ok,
            blocks: vec![BlockObs {
                responsive: 3,
                rtt_ns: 1,
                routed: true,
                routed_known: false,
            }],
            feeds: vec![
                FeedObs::Accepted {
                    retries: 1,
                    quarantine: quarantine.clone(),
                },
                FeedObs::NotDue,
                FeedObs::Rejected {
                    retries: 0,
                    quarantine,
                },
            ],
            vantages: Vec::new(),
            ibr: None,
            shards: None,
        };
        assert_eq!(RoundRecord::decode(&record.encode()).unwrap(), record);
        let absent = RoundRecord {
            feeds: vec![FeedObs::Absent { retries: 2 }; 3],
            ..record
        };
        assert_eq!(RoundRecord::decode(&absent.encode()).unwrap(), absent);
    }

    #[test]
    fn ibr_record_roundtrips_as_version_4() {
        // Version 4 composes with the single-vantage layout…
        let single = RoundRecord {
            round: Round(42),
            online: true,
            quality: RoundQuality::Ok,
            blocks: vec![BlockObs {
                responsive: 9,
                rtt_ns: 40_000_000,
                routed: true,
                routed_known: true,
            }],
            feeds: Vec::new(),
            vantages: Vec::new(),
            ibr: Some(IbrObs {
                dark: false,
                volumes: vec![120_000, 0, 7],
            }),
            shards: None,
        };
        assert_eq!(single.encode()[0] as u32, IBR_STATE_VERSION);
        assert_eq!(RoundRecord::decode(&single.encode()).unwrap(), single);
        // …and with a vantage roster, and with a dark collector.
        let rostered = RoundRecord {
            blocks: Vec::new(),
            vantages: vec![VantageObs {
                online: true,
                quality: RoundQuality::Degraded,
                blocks: vec![],
            }],
            ibr: Some(IbrObs {
                dark: true,
                volumes: Vec::new(),
            }),
            ..single.clone()
        };
        assert_eq!(rostered.encode()[0] as u32, IBR_STATE_VERSION);
        assert_eq!(RoundRecord::decode(&rostered.encode()).unwrap(), rostered);
        // A dark observation claiming volumes is structural damage.
        let mut w = ByteWriter::new();
        w.put_bool(true);
        vec![5u64].persist(&mut w);
        assert!(IbrObs::restore(&mut ByteReader::new(&w.into_bytes())).is_err());
    }

    #[test]
    fn shard_record_roundtrips_as_version_5() {
        let outcomes = ShardObs {
            outcomes: vec![
                ShardOutcomeObs::Completed {
                    attempt: 0,
                    panics: 0,
                    timeouts: 0,
                },
                ShardOutcomeObs::Completed {
                    attempt: 2,
                    panics: 1,
                    timeouts: 1,
                },
                ShardOutcomeObs::Lost {
                    panics: 3,
                    timeouts: 0,
                },
            ],
        };
        assert!(outcomes.outcomes[0].completed());
        assert!(!outcomes.outcomes[2].completed());
        // Version 5 composes with the single-vantage layout, no darknet…
        let single = RoundRecord {
            round: Round(90),
            online: true,
            quality: RoundQuality::Degraded,
            blocks: vec![BlockObs {
                responsive: 7,
                rtt_ns: 41_000_000,
                routed: true,
                routed_known: true,
            }],
            feeds: Vec::new(),
            vantages: Vec::new(),
            ibr: None,
            shards: Some(outcomes.clone()),
        };
        assert_eq!(single.encode()[0] as u32, SHARD_STATE_VERSION);
        assert_eq!(RoundRecord::decode(&single.encode()).unwrap(), single);
        // …and with a roster plus a darknet observation behind the flag.
        let full = RoundRecord {
            blocks: Vec::new(),
            vantages: vec![VantageObs {
                online: true,
                quality: RoundQuality::Ok,
                blocks: vec![],
            }],
            ibr: Some(IbrObs {
                dark: false,
                volumes: vec![11, 0],
            }),
            ..single.clone()
        };
        assert_eq!(full.encode()[0] as u32, SHARD_STATE_VERSION);
        assert_eq!(RoundRecord::decode(&full.encode()).unwrap(), full);
        // A version-5 record must carry shard outcomes; none is damage.
        let mut w = ByteWriter::new();
        let hollow = RoundRecord {
            shards: Some(ShardObs {
                outcomes: Vec::new(),
            }),
            ..single.clone()
        };
        hollow.persist(&mut w);
        assert!(RoundRecord::decode(&w.into_bytes()).is_err());
        // An unknown outcome tag is damage.
        let mut w = ByteWriter::new();
        w.put_u8(9);
        assert!(ShardOutcomeObs::restore(&mut ByteReader::new(&w.into_bytes())).is_err());
    }

    #[test]
    fn version_drift_is_rejected() {
        let record = RoundRecord {
            round: Round(0),
            online: true,
            quality: RoundQuality::Ok,
            blocks: Vec::new(),
            feeds: Vec::new(),
            vantages: Vec::new(),
            ibr: None,
            shards: None,
        };
        let mut bytes = record.encode();
        bytes[0] = 99; // version byte
        assert!(RoundRecord::decode(&bytes).is_err());
        // A version-1 record (pre-feed-layer schema) is version drift too.
        let mut bytes = record.encode();
        bytes[0] = 1;
        assert!(RoundRecord::decode(&bytes).is_err());
        // Trailing garbage after a valid record is also rejected.
        let mut bytes = record.encode();
        bytes.push(0);
        assert!(RoundRecord::decode(&bytes).is_err());
    }

    #[test]
    fn round_record_version_probe_is_exhaustive() {
        // Foreign tags fail *at the probe*, carrying the tag in the error
        // so an operator can see which schema stranded the journal.
        for foreign in [0u32, 1, 6, u32::MAX] {
            let mut w = ByteWriter::new();
            w.put_u32(foreign);
            let err = RoundRecord::decode(&w.into_bytes()).unwrap_err();
            let msg = err.to_string();
            assert!(
                msg.contains("round record version"),
                "tag {foreign}: unexpected error shape: {msg}"
            );
            assert!(
                msg.contains(&foreign.to_string()),
                "tag {foreign} missing from error: {msg}"
            );
        }
        // The four live tags pass the probe: a truncated payload fails in
        // the section decoders, never as version drift.
        for live in [
            LEGACY_STATE_VERSION,
            STATE_VERSION,
            IBR_STATE_VERSION,
            SHARD_STATE_VERSION,
        ] {
            let mut w = ByteWriter::new();
            w.put_u32(live);
            let err = RoundRecord::decode(&w.into_bytes()).unwrap_err();
            assert!(
                !err.to_string().contains("round record version"),
                "live tag {live} bounced off the version probe: {err}"
            );
        }
    }

    #[test]
    fn snapshot_version_acceptance_is_exhaustive_at_open() {
        let base = std::env::temp_dir().join(format!("fbs-ckpt-vers-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&base);
        let policy = CheckpointPolicy {
            snapshot_every: 8,
            fsync: false,
        };
        for v in [
            LEGACY_STATE_VERSION,
            STATE_VERSION,
            IBR_STATE_VERSION,
            SHARD_STATE_VERSION,
        ] {
            let dir = base.join(format!("accept-{v}"));
            std::fs::create_dir_all(&dir).unwrap();
            write_snapshot(dir.join(SNAPSHOT_FILE), v, b"payload").unwrap();
            let mut diag = ResumeDiagnostics::default();
            let snapshot = CheckpointStore::load_snapshot(&dir, &mut diag).unwrap();
            assert_eq!(snapshot, Some((v, b"payload".to_vec())));
            let mut records = 0;
            CheckpointStore::open(&dir, policy, &mut diag, |_| {
                records += 1;
                Ok(())
            })
            .unwrap();
            assert_eq!(records, 0);
            assert!(diag.snapshot_loaded, "v{v} snapshot must load");
            assert_eq!(diag.snapshot_foreign_version, None);
            assert!(diag.snapshot_quarantined.is_none());
        }
        // A structurally valid snapshot at any other version is
        // quarantined, and the diagnostics name the foreign schema.
        for v in [0u32, 1, 6, u32::MAX] {
            let dir = base.join(format!("reject-{v}"));
            std::fs::create_dir_all(&dir).unwrap();
            write_snapshot(dir.join(SNAPSHOT_FILE), v, b"payload").unwrap();
            let mut diag = ResumeDiagnostics::default();
            let snapshot = CheckpointStore::load_snapshot(&dir, &mut diag).unwrap();
            assert_eq!(snapshot, None, "v{v} must not load");
            assert!(!diag.snapshot_loaded);
            assert_eq!(diag.snapshot_foreign_version, Some(v));
            let quarantined = diag
                .snapshot_quarantined
                .expect("foreign snapshot quarantined");
            assert!(quarantined.exists());
            assert!(!dir.join(SNAPSHOT_FILE).exists());
        }
        let _ = std::fs::remove_dir_all(&base);
    }

    /// The canonical record persisted into `fixtures/wire/v<N>/`: one
    /// fixed observation set, with the sections each version carries.
    fn wire_fixture_record(version: u32) -> RoundRecord {
        let obs = |responsive: u32, rtt_ns: u64| BlockObs {
            responsive,
            rtt_ns,
            routed: true,
            routed_known: true,
        };
        let quarantine = FeedQuarantine::measure(
            "10.0.0.0/24|65000\ngarbage\n",
            1,
            vec![fbs_types::QuarantinedRecord::new(
                2,
                "missing '|'",
                "garbage",
            )],
        );
        let vantages = vec![
            VantageObs {
                online: true,
                quality: RoundQuality::Ok,
                blocks: vec![obs(30, 41_000_000), obs(0, 0)],
            },
            VantageObs {
                online: false,
                quality: RoundQuality::Unusable,
                blocks: Vec::new(),
            },
        ];
        let mut record = RoundRecord {
            round: Round(42),
            online: true,
            quality: RoundQuality::Degraded,
            blocks: vec![obs(118, 40_120_000), obs(0, 0)],
            feeds: vec![
                FeedObs::Accepted {
                    retries: 1,
                    quarantine: quarantine.clone(),
                },
                FeedObs::NotDue,
                FeedObs::Rejected {
                    retries: 0,
                    quarantine,
                },
                FeedObs::Absent { retries: 2 },
            ],
            vantages: Vec::new(),
            ibr: None,
            shards: None,
        };
        let ibr = IbrObs {
            dark: false,
            volumes: vec![11, 0, 7],
        };
        let shards = ShardObs {
            outcomes: vec![
                ShardOutcomeObs::Completed {
                    attempt: 1,
                    panics: 1,
                    timeouts: 0,
                },
                ShardOutcomeObs::Lost {
                    panics: 0,
                    timeouts: 3,
                },
            ],
        };
        match version {
            LEGACY_STATE_VERSION => {}
            STATE_VERSION => {
                record.blocks = Vec::new();
                record.vantages = vantages;
            }
            IBR_STATE_VERSION => {
                record.vantages = vantages;
                record.ibr = Some(ibr);
            }
            SHARD_STATE_VERSION => {
                record.vantages = vantages;
                record.ibr = Some(ibr);
                record.shards = Some(shards);
            }
            other => panic!("no wire fixture layout for version {other}"),
        }
        record
    }

    #[test]
    fn golden_wire_fixtures_round_trip_byte_for_byte() {
        // `FBS_WRITE_WIRE_FIXTURES=1 cargo test -p fbs-core` regenerates
        // the committed blobs; a plain run pins the bytes exactly, so any
        // encoder change that touches a frozen layout fails here even if
        // encode/decode still agree with each other.
        let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../fixtures/wire");
        let write = std::env::var("FBS_WRITE_WIRE_FIXTURES").is_ok();
        for version in [
            LEGACY_STATE_VERSION,
            STATE_VERSION,
            IBR_STATE_VERSION,
            SHARD_STATE_VERSION,
        ] {
            let record = wire_fixture_record(version);
            let encoded = record.encode();
            assert_eq!(
                u32::from(encoded[0]),
                version,
                "layout_version drifted for the v{version} fixture record"
            );
            let vdir = dir.join(format!("v{version}"));
            let record_path = vdir.join("round_record.bin");
            let snap_path = vdir.join("state.snap");
            if write {
                std::fs::create_dir_all(&vdir).unwrap();
                std::fs::write(&record_path, &encoded).unwrap();
                write_snapshot(&snap_path, version, &encoded).unwrap();
            }
            let golden = std::fs::read(&record_path).unwrap_or_else(|e| {
                panic!(
                    "{}: {e} (regenerate with FBS_WRITE_WIRE_FIXTURES=1)",
                    record_path.display()
                )
            });
            assert_eq!(
                golden, encoded,
                "v{version} golden journal bytes drifted from the encoder"
            );
            assert_eq!(
                RoundRecord::decode(&golden).unwrap(),
                record,
                "v{version} golden decode drifted"
            );
            // The snapshot container round-trips the same payload under
            // the same version tag.
            let (snap_version, payload) = read_snapshot(&snap_path)
                .unwrap_or_else(|e| {
                    panic!(
                        "{}: {e} (regenerate with FBS_WRITE_WIRE_FIXTURES=1)",
                        snap_path.display()
                    )
                })
                .expect("snapshot fixture present");
            assert_eq!(snap_version, version);
            assert_eq!(payload, encoded);
        }
    }
}

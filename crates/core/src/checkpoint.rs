//! Durable campaign execution: round records, snapshots, and the store.
//!
//! A checkpoint directory holds two files (and `state.snap.prev`, the
//! snapshot the last write replaced, which the next write reuses in place
//! and resume never reads):
//!
//! * `rounds.wal` — the write-ahead round journal ([`fbs_journal::Journal`]).
//!   One record per campaign round, appended *after* the round has been
//!   applied to the in-memory pipeline, holding everything the measurement
//!   path produced: the vantage's online flag, the round's
//!   [`RoundQuality`] verdict, the feed deliveries, and the per-block
//!   observations ([`BlockSection`]: responsive count, routed and
//!   routed-known flags in one varint per block). RTT is kept only for
//!   blocks of `CampaignConfig::rtt_tracked` ASes, the only blocks whose
//!   RTT anything reads; every other block journals none. Values derived
//!   deterministically from the world — trinocular availability,
//!   probe-panel staleness, eligibility — are *not* journaled; replay
//!   recomputes them, which keeps records small and resume bit-identical.
//! * `state.snap` — an atomic snapshot of the full
//!   [`PipelineState`](crate::pipeline) written every
//!   [`CheckpointPolicy::snapshot_every`] rounds, so resuming replays at
//!   most one snapshot interval of journal records instead of the whole
//!   campaign. The state is encoded on the round; a writer thread
//!   checksums, writes and renames it into place while the next rounds
//!   run, one write at a time.
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
//!
//! Both files carry one schema version, and every campaign writes the same
//! one: the union layout [`UNION_STATE_VERSION`], in which every section of
//! the older layouts is present and the optional layers (darknet, shard
//! supervision) sit behind presence flags. Versions 2–6 are read-only:
//! their decoders stay so checkpoint directories written by older builds
//! still resume, but nothing writes them.

use crate::pipeline::PipelineState;
use fbs_feeds::FeedQuarantine;
use fbs_journal::{quarantine_snapshot, read_snapshot, write_snapshot, Journal, JournalRecovery};
use fbs_types::codec::{decode_varint, ByteReader, ByteWriter, Persist};
use fbs_types::{FbsError, Result, Round, RoundQuality};
use std::path::{Path, PathBuf};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::thread::JoinHandle;

/// The union schema version, the only one any campaign writes, for both
/// the journal record payloads and the snapshot payload. Bumped on any
/// change to [`RoundRecord`] or `PipelineState` encoding; files with a
/// version no decoder accepts are rejected as corrupt rather than misread.
///
/// Version history: 1 — initial crash-safe campaigns; 2 — feed-delivery
/// observations ([`FeedObs`]) and the per-block `routed_known` bit; 3 —
/// multi-vantage campaigns (per-vantage [`VantageObs`] in round records,
/// per-vantage quality ledgers in the snapshot); 4 — the passive
/// background-radiation signal (per-AS [`IbrObs`] in round records,
/// per-AS seasonal predictors and IBR ledgers in the snapshot); 5 —
/// supervised sharded execution (per-shard [`ShardObs`] outcomes in round
/// records, per-round shard summaries in the snapshot); 6 — the union of
/// all of them: the version-5 layout with the shard section behind a
/// presence flag, written by every campaign whatever its roster, passive
/// signal or shard plan; 7 — the version-6 layout with every block list
/// a varint [`BlockSection`]. The version-7 snapshot payload is the
/// version-6 one.
pub const UNION_STATE_VERSION: u32 = 7;

/// The fixed-width union schema version (read-only): the version-7
/// layout with every block observation at a fixed 14 bytes.
pub const FIXED_WIDTH_STATE_VERSION: u32 = 6;

/// The multi-vantage schema version (read-only): records carry the
/// vantage roster in place of the single-vantage block section. The name
/// predates the later layouts.
pub const STATE_VERSION: u32 = 3;

/// The pre-multi-vantage schema version (read-only): the single-vantage
/// layout, with no vantage section.
pub const LEGACY_STATE_VERSION: u32 = 2;

/// The passive-signal schema version (read-only): both scanning layouts
/// plus an unconditional darknet section.
pub const IBR_STATE_VERSION: u32 = 4;

/// The supervised-shard schema version (read-only): every earlier section,
/// the darknet observation behind a presence flag, and an unconditional
/// shard section.
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
    /// Fsync the journal after every appended round, before the round's
    /// step returns. The fsync runs on the store's journal syncer beside the
    /// next round's measurement, so a round waits only for the part of it
    /// that outlasts that measurement. Disabling it starts no syncer and
    /// gives up the durability of the rounds the operating system has not
    /// yet written back, for that remaining wait.
    pub fsync: bool,
}

impl Default for CheckpointPolicy {
    fn default() -> Self {
        // One snapshot per simulated week (84 two-hour rounds): recovery
        // replays at most a week of journal. The round that takes a
        // snapshot still pays for encoding it; the checksum, write and
        // fsyncs run on the writer thread. The encode grows with the
        // payload, from 1.79 MB at round 84 to 4.38 MB at round 2,016 of
        // campaignbench's `small-durable`. See EXPERIMENTS.md for the
        // cadence trade-off and the measured per-snapshot cost. Every
        // round is fsynced; the journal syncer overlaps each fsync with the
        // next round's shards, so a round waits only for the part of its
        // fsync that outlasts them (EXPERIMENTS.md, "The journal's fsync
        // beside the next round's measurement").
        CheckpointPolicy {
            snapshot_every: 84,
            fsync: true,
        }
    }
}

/// What one round's measurement produced — the journal record payload.
///
/// Offline or unusable rounds carry an empty `blocks` section: the skip is
/// itself the observation.
///
/// In multi-vantage campaigns `vantages` holds one [`VantageRound`] per
/// roster entry (in roster order), `blocks` stays empty (the fused view is
/// recomputed deterministically in `apply_round`, never journaled), and
/// the top-level `quality` is the *fused* round quality — the best among
/// usable vantages. Single-vantage records leave `vantages` empty.
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
    pub blocks: BlockSection,
    /// Feed-delivery observations in [`fbs_types::FeedKind::ALL`] order.
    /// Empty when the feed layer is disabled (`feed_plan: None`), exactly
    /// three entries when it is on. Feeds are fetched even on rounds the
    /// vantage sat offline — the mirrors do not care about our scanner.
    /// Feeds are shared infrastructure, fetched once, not per vantage.
    pub feeds: Vec<FeedObs>,
    /// Per-vantage observations in roster order; empty in single-vantage
    /// campaigns.
    pub vantages: Vec<VantageRound>,
    /// The darknet collector's view of the round: per-AS background
    /// radiation, or the collector's own darkness. `None` when the passive
    /// signal is disabled.
    pub ibr: Option<IbrObs>,
    /// Per-shard supervision outcomes for the round, in roster (slot)
    /// order. `None` when shard supervision is off. Journaling outcomes
    /// (not timings) is what makes a killed-and-resumed campaign replay a
    /// degraded round byte-identically: replay reads which shards were
    /// lost instead of re-running the supervisor.
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
pub(crate) struct VantageRound {
    /// Whether the vantage was online this round.
    pub online: bool,
    /// The vantage's own fault-plan quality verdict for the round.
    pub quality: RoundQuality,
    /// The vantage's per-block observations; empty when the vantage was
    /// offline or its round was [`RoundQuality::Unusable`] (it is masked
    /// out of the quorum, so it measures nothing).
    pub blocks: BlockSection,
}

impl Persist for VantageRound {
    fn persist(&self, w: &mut ByteWriter) {
        w.put_bool(self.online);
        self.quality.persist(w);
        self.blocks.persist(w);
    }
    fn restore(r: &mut ByteReader<'_>) -> Result<Self> {
        Ok(VantageRound {
            online: r.get_bool()?,
            quality: RoundQuality::restore(r)?,
            blocks: BlockSection::restore(r)?,
        })
    }
}

/// A [`VantageRound`] in the read-only fixed-width layouts (versions 3–6):
/// the same fields, with the blocks at 14 bytes each. Decoded, then
/// converted; only the test oracle still writes it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct VantageObs {
    /// Whether the vantage was online this round.
    pub online: bool,
    /// The vantage's own fault-plan quality verdict for the round.
    pub quality: RoundQuality,
    /// The vantage's per-block observations.
    pub blocks: Vec<BlockObs>,
}

impl From<VantageObs> for VantageRound {
    fn from(v: VantageObs) -> Self {
        VantageRound {
            online: v.online,
            quality: v.quality,
            blocks: BlockSection(v.blocks),
        }
    }
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
///
/// Its `Persist` impl is the read-only fixed-width layout of versions 2–6;
/// version 7 writes blocks as a [`BlockSection`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct BlockObs {
    /// Responding addresses that survived loss/thinning.
    pub responsive: u32,
    /// Observed round-trip time, nanoseconds (spikes included); `0` when
    /// the measurement kept none, which it does for every block outside
    /// the RTT-tracked ASes.
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

impl BlockObs {
    /// Head bit: the block's BGP routing state.
    const ROUTED: u64 = 1;
    /// Head bit: this round's BGP feed delivered the routing state.
    const ROUTED_KNOWN: u64 = 1 << 1;
    /// Head bit: a varint RTT follows the head.
    const HAS_RTT: u64 = 1 << 2;
    /// The responsive count sits above the three flag bits.
    const RESPONSIVE_SHIFT: u32 = 3;

    /// The block's head varint in a [`BlockSection`]:
    /// `responsive << 3 | has_rtt << 2 | routed_known << 1 | routed`.
    fn head(&self) -> u64 {
        let mut head = u64::from(self.responsive) << Self::RESPONSIVE_SHIFT;
        if self.rtt_ns != 0 {
            head |= Self::HAS_RTT;
        }
        if self.routed_known {
            head |= Self::ROUTED_KNOWN;
        }
        if self.routed {
            head |= Self::ROUTED;
        }
        head
    }
}

/// A round's block observations in the version-7 layout, indexed like
/// `World::blocks`.
///
/// Wire: a varint block count, then per block one varint head (see
/// [`BlockObs::head`]) and, only when its `has_rtt` bit is set, a varint
/// RTT. A block carries an RTT exactly when its `rtt_ns` is non-zero, so
/// the section round-trips every observation, and each section decodes on
/// its own: nothing is a delta against another record.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub(crate) struct BlockSection(pub Vec<BlockObs>);

impl std::ops::Deref for BlockSection {
    type Target = [BlockObs];
    fn deref(&self) -> &[BlockObs] {
        &self.0
    }
}

impl Persist for BlockSection {
    fn persist(&self, w: &mut ByteWriter) {
        w.put_varint(self.0.len() as u64);
        for obs in &self.0 {
            w.put_varint(obs.head());
            if obs.rtt_ns != 0 {
                w.put_varint(obs.rtt_ns);
            }
        }
    }
    fn restore(r: &mut ByteReader<'_>) -> Result<Self> {
        r.get_section(decode_blocks).map(BlockSection)
    }
}

/// Decodes a [`BlockSection`] in one pass over `bytes`, returning the
/// observations and the bytes they took.
fn decode_blocks(bytes: &[u8]) -> Result<(Vec<BlockObs>, usize)> {
    let damage = |reason: String| FbsError::Io { reason };
    let (count, mut pos) = decode_varint(bytes)?;
    // Every block takes at least its head byte, so a count the rest of the
    // record cannot hold is damage, caught before anything is allocated.
    if count > (bytes.len() - pos) as u64 {
        return Err(damage(format!(
            "block section claims {count} blocks in {} bytes",
            bytes.len() - pos
        )));
    }
    let mut blocks = Vec::with_capacity(count as usize);
    for _ in 0..count {
        let (head, n) = decode_varint(&bytes[pos..])?;
        pos += n;
        let responsive = u32::try_from(head >> BlockObs::RESPONSIVE_SHIFT).map_err(|_| {
            damage(format!(
                "responsive count {} exceeds u32",
                head >> BlockObs::RESPONSIVE_SHIFT
            ))
        })?;
        let rtt_ns = if head & BlockObs::HAS_RTT != 0 {
            let (rtt_ns, n) = decode_varint(&bytes[pos..])?;
            pos += n;
            if rtt_ns == 0 {
                return Err(damage("block flags an RTT of zero".to_string()));
            }
            rtt_ns
        } else {
            0
        };
        blocks.push(BlockObs {
            responsive,
            rtt_ns,
            routed: head & BlockObs::ROUTED != 0,
            routed_known: head & BlockObs::ROUTED_KNOWN != 0,
        });
    }
    Ok((blocks, pos))
}

/// Reads a read-only fixed-width block list (versions 2 and 4–6).
fn fixed_width_blocks(r: &mut ByteReader<'_>) -> Result<BlockSection> {
    Vec::<BlockObs>::restore(r).map(BlockSection)
}

/// Reads a read-only fixed-width vantage roster (versions 3–6).
fn fixed_width_vantages(r: &mut ByteReader<'_>) -> Result<Vec<VantageRound>> {
    let vantages = Vec::<VantageObs>::restore(r)?;
    Ok(vantages.into_iter().map(VantageRound::from).collect())
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
        // The union layout: every field in declaration order, whatever the
        // campaign mode. The optional layers ride the generic `Option`
        // codec, a presence flag then the payload.
        w.put_u32(UNION_STATE_VERSION);
        self.round.persist(w);
        self.online.persist(w);
        self.quality.persist(w);
        self.blocks.persist(w);
        self.feeds.persist(w);
        self.vantages.persist(w);
        self.ibr.persist(w);
        self.shards.persist(w);
    }
    fn restore(r: &mut ByteReader<'_>) -> Result<Self> {
        let version = r.get_u32()?;
        match version {
            LEGACY_STATE_VERSION => Ok(RoundRecord {
                round: Round::restore(r)?,
                online: r.get_bool()?,
                quality: RoundQuality::restore(r)?,
                blocks: fixed_width_blocks(r)?,
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
                let vantages = fixed_width_vantages(r)?;
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
                    blocks: BlockSection::default(),
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
                blocks: fixed_width_blocks(r)?,
                feeds: Vec::<FeedObs>::restore(r)?,
                vantages: fixed_width_vantages(r)?,
                ibr: Some(IbrObs::restore(r)?),
                shards: None,
            }),
            SHARD_STATE_VERSION | FIXED_WIDTH_STATE_VERSION | UNION_STATE_VERSION => {
                let round = Round::restore(r)?;
                let online = r.get_bool()?;
                let quality = RoundQuality::restore(r)?;
                // Only the block lists changed encoding at version 7.
                let varint = version == UNION_STATE_VERSION;
                let blocks = if varint {
                    BlockSection::restore(r)?
                } else {
                    fixed_width_blocks(r)?
                };
                let feeds = Vec::<FeedObs>::restore(r)?;
                let vantages = if varint {
                    Vec::<VantageRound>::restore(r)?
                } else {
                    fixed_width_vantages(r)?
                };
                let ibr = if r.get_bool()? {
                    Some(IbrObs::restore(r)?)
                } else {
                    None
                };
                // Version 5 always carries the shard section; the union
                // layouts flag it.
                let shards = if version == SHARD_STATE_VERSION || r.get_bool()? {
                    let shards = ShardObs::restore(r)?;
                    if shards.outcomes.is_empty() {
                        return Err(FbsError::Io {
                            reason: format!(
                                "version-{version} round record with no shard outcomes"
                            ),
                        });
                    }
                    Some(shards)
                } else {
                    None
                };
                Ok(RoundRecord {
                    round,
                    online,
                    quality,
                    blocks,
                    feeds,
                    vantages,
                    ibr,
                    shards,
                })
            }
            other => Err(FbsError::Io {
                reason: format!(
                    "round record version {other}, expected {LEGACY_STATE_VERSION} to \
                     {UNION_STATE_VERSION}"
                ),
            }),
        }
    }
}

impl RoundRecord {
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

#[cfg(test)]
impl RoundRecord {
    /// The read-only journal layout the pre-union writer chose for this
    /// record: version 5 whenever shard supervision rides along, version 4
    /// whenever the passive observation does, else version 2 (no roster)
    /// or version 3.
    pub(crate) fn legacy_version(&self) -> u32 {
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

    /// The retired record writers, kept as the test oracle for the
    /// read-only layouts: encodes the record as `version`, which must be
    /// [`FIXED_WIDTH_STATE_VERSION`] (any record) or this record's
    /// [`Self::legacy_version`]. Blocks go out through the frozen
    /// fixed-width [`BlockObs`] and [`VantageObs`] encoders.
    pub(crate) fn encode_read_only(&self, version: u32) -> Vec<u8> {
        assert!(
            version == FIXED_WIDTH_STATE_VERSION || version == self.legacy_version(),
            "no read-only v{version} layout for this record"
        );
        let mut w = ByteWriter::new();
        w.put_u32(version);
        self.round.persist(&mut w);
        w.put_bool(self.online);
        self.quality.persist(&mut w);
        if version != STATE_VERSION {
            self.blocks.0.persist(&mut w);
        }
        self.feeds.persist(&mut w);
        if version != LEGACY_STATE_VERSION {
            let vantages: Vec<VantageObs> = self
                .vantages
                .iter()
                .map(|v| VantageObs {
                    online: v.online,
                    quality: v.quality,
                    blocks: v.blocks.0.clone(),
                })
                .collect();
            vantages.persist(&mut w);
        }
        if version >= SHARD_STATE_VERSION {
            w.put_bool(self.ibr.is_some());
        }
        if let Some(ibr) = &self.ibr {
            ibr.persist(&mut w);
        }
        if version == FIXED_WIDTH_STATE_VERSION {
            w.put_bool(self.shards.is_some());
        }
        if let Some(shards) = &self.shards {
            shards.persist(&mut w);
        }
        w.into_bytes()
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

/// A snapshot write running on the writer thread. Joining it yields the
/// write's result and hands the payload buffer back for the next encode.
type SnapshotWriter = JoinHandle<(Result<()>, Vec<u8>)>;

/// The journal's fsync thread, `fbs-journal-sync`. It fsyncs `rounds.wal`
/// through a second handle on the file, one fsync per request, and answers
/// each request in order. Closing the request channel ends it.
struct JournalSyncer {
    requests: Sender<()>,
    answers: Receiver<std::io::Result<()>>,
    /// The journal's record count when the fsync in flight was asked for;
    /// `None` when no fsync is in flight.
    pending: Option<u64>,
    thread: JoinHandle<()>,
}

impl JournalSyncer {
    /// Starts the thread over a second handle on `journal`'s file.
    fn start(journal: &Journal) -> Result<Self> {
        let file = journal.sync_handle()?;
        let (requests, asked) = channel::<()>();
        let (answer, answers) = channel();
        let thread = std::thread::Builder::new()
            .name("fbs-journal-sync".to_string())
            .spawn(move || {
                for () in asked {
                    if answer.send(file.sync_all()).is_err() {
                        return;
                    }
                }
            })
            .map_err(|e| FbsError::Io {
                reason: format!(
                    "cannot start the syncer of journal {}: {e}",
                    journal.path().display()
                ),
            })?;
        Ok(JournalSyncer {
            requests,
            answers,
            pending: None,
            thread,
        })
    }

    /// Closes the request channel and joins the thread.
    fn stop(self) {
        drop(self.requests);
        let _ = self.thread.join();
    }
}

/// The open checkpoint directory a running campaign appends to.
///
/// Under [`CheckpointPolicy::fsync`] the journal's fsyncs run on a syncer
/// thread that the first append starts: [`CheckpointStore::append`] waits
/// for the previous record's fsync, writes the frame on the calling thread
/// and asks the syncer for the next one, and [`CheckpointStore::synced`]
/// waits for that answer. So a round's fsync runs while its caller goes on
/// to other work, and at most one is in flight.
///
/// Snapshots are encoded on the round, then checksummed, written, fsynced
/// and renamed into place on a writer thread, so the round does not wait
/// for the disk. At most one write is in flight: the next snapshot,
/// [`CheckpointStore::join_writer`] and `Drop` each wait for it. A failed
/// write is returned by whichever of the first two comes first. A snapshot
/// reaches its writer only after its round's record is fsynced, and
/// `Drop` waits for both threads and stops the syncer.
pub(crate) struct CheckpointStore {
    journal: Journal,
    snapshot_path: PathBuf,
    policy: CheckpointPolicy,
    /// The snapshot encode buffer, reused by every snapshot; it travels to
    /// the writer thread and back with each write.
    buffer: Vec<u8>,
    /// The snapshot write in flight, if any.
    writer: Option<SnapshotWriter>,
    /// The journal syncer, once an append under `fsync` has started it.
    syncer: Option<JournalSyncer>,
    /// The journal's record count at the last fsync the syncer confirmed.
    synced_records: u64,
}

impl CheckpointStore {
    /// A store over an open journal, with no snapshot written yet.
    fn new(journal: Journal, snapshot_path: PathBuf, policy: CheckpointPolicy) -> Self {
        CheckpointStore {
            journal,
            snapshot_path,
            policy,
            buffer: Vec::new(),
            writer: None,
            syncer: None,
            synced_records: 0,
        }
    }

    /// Starts a fresh checkpoint directory, truncating any prior journal
    /// and removing any prior snapshot.
    pub fn fresh(dir: &Path, policy: CheckpointPolicy) -> Result<Self> {
        std::fs::create_dir_all(dir)?;
        let snapshot_path = dir.join(SNAPSHOT_FILE);
        if snapshot_path.exists() {
            std::fs::remove_file(&snapshot_path)?;
        }
        let journal = Journal::create(dir.join(JOURNAL_FILE))?;
        Ok(CheckpointStore::new(journal, snapshot_path, policy))
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
                if (LEGACY_STATE_VERSION..=UNION_STATE_VERSION).contains(&version) =>
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
        Ok(CheckpointStore::new(
            journal,
            dir.join(SNAPSHOT_FILE),
            policy,
        ))
    }

    /// Appends one round record and, under the policy's `fsync`, asks the
    /// syncer to fsync it; [`CheckpointStore::synced`] waits for that.
    ///
    /// First waits for the previous record's fsync and returns its error,
    /// if it failed. The record must describe the journal's next round: a
    /// runner whose step failed after applying its round would otherwise
    /// journal past the gap and leave a directory no resume accepts.
    pub fn append(&mut self, record: &RoundRecord) -> Result<()> {
        self.synced()?;
        let next = self.journal.records();
        if u64::from(record.round.0) != next {
            return Err(FbsError::Io {
                reason: format!(
                    "journal {} expects round {next} next, not round {}: an earlier \
                     step failed; drop the runner and resume from the directory",
                    self.journal.path().display(),
                    record.round.0
                ),
            });
        }
        self.journal.append(&record.encode())?;
        if self.policy.fsync {
            let syncer = match &mut self.syncer {
                Some(syncer) => syncer,
                none => none.insert(JournalSyncer::start(&self.journal)?),
            };
            syncer.requests.send(()).map_err(|_| FbsError::Io {
                reason: format!(
                    "the syncer of journal {} stopped",
                    self.journal.path().display()
                ),
            })?;
            syncer.pending = Some(self.journal.records());
        }
        Ok(())
    }

    /// Waits for the journal fsync in flight, if any, and returns its
    /// result. A failed fsync leaves its record written.
    pub fn synced(&mut self) -> Result<()> {
        let Some(syncer) = self.syncer.as_mut() else {
            return Ok(());
        };
        let Some(records) = syncer.pending.take() else {
            return Ok(());
        };
        let path = self.journal.path().display();
        let answer = syncer.answers.recv().map_err(|_| FbsError::Io {
            reason: format!("the syncer of journal {path} stopped"),
        })?;
        answer.map_err(|e| FbsError::Io {
            reason: format!("fsyncing journal {path}: {e}"),
        })?;
        self.synced_records = records;
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

    /// Unconditionally snapshots the current state in the union layout.
    ///
    /// First waits for the journal's fsync and then for the previous
    /// snapshot's write, and returns the first error. Then encodes `state`
    /// into the reused buffer, whose capacity is at least the previous
    /// payload's length, and hands the bytes to a writer thread that runs
    /// [`write_snapshot`]: checksum, temp file, fsync, rename, directory
    /// fsync. The caller has already journaled the round, so the snapshot
    /// never gets ahead of the durable journal; a crash mid-write leaves
    /// the previous snapshot in place.
    pub fn write_snapshot_now(&mut self, state: &PipelineState) -> Result<()> {
        self.synced()?;
        debug_assert!(
            self.syncer.is_none() || self.synced_records == self.journal.records(),
            "a snapshot would reach its writer ahead of the fsynced journal"
        );
        self.join_writer()?;
        let mut w = ByteWriter::reusing(std::mem::take(&mut self.buffer));
        state.persist_into(&mut w);
        let payload = w.into_bytes();
        let path = self.snapshot_path.clone();
        let writer = std::thread::Builder::new()
            .name("fbs-snapshot".to_string())
            .spawn(move || {
                let result = write_snapshot(&path, UNION_STATE_VERSION, &payload).map_err(|e| {
                    let reason = match e {
                        FbsError::Io { reason } => reason,
                        other => other.to_string(),
                    };
                    FbsError::Io {
                        reason: format!("writing snapshot {}: {reason}", path.display()),
                    }
                });
                (result, payload)
            })
            .map_err(|e| FbsError::Io {
                reason: format!(
                    "cannot start the writer of snapshot {}: {e}",
                    self.snapshot_path.display()
                ),
            })?;
        self.writer = Some(writer);
        Ok(())
    }

    /// Waits for the snapshot write in flight, if any, takes its buffer
    /// back and returns its result.
    pub fn join_writer(&mut self) -> Result<()> {
        let Some(writer) = self.writer.take() else {
            return Ok(());
        };
        let (result, buffer) = writer.join().map_err(|_| FbsError::Io {
            reason: format!(
                "the writer of snapshot {} panicked",
                self.snapshot_path.display()
            ),
        })?;
        self.buffer = buffer;
        result
    }

    /// The journal's record count at the last fsync the syncer confirmed.
    #[cfg(test)]
    pub(crate) fn synced_records(&self) -> u64 {
        self.synced_records
    }
}

impl Drop for CheckpointStore {
    /// Waits for the journal fsync and the snapshot write in flight and
    /// stops the syncer, so a runner dropped mid-campaign leaves its last
    /// record fsynced and its last snapshot in place, not a temp file, and
    /// no thread behind. Nobody is left to hear a failure, and the journal
    /// still covers a failed snapshot.
    fn drop(&mut self) {
        let _ = self.synced();
        let _ = self.join_writer();
        if let Some(syncer) = self.syncer.take() {
            syncer.stop();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Every schema version the decoders accept, oldest first.
    const ACCEPTED: [u32; 6] = [
        LEGACY_STATE_VERSION,
        STATE_VERSION,
        IBR_STATE_VERSION,
        SHARD_STATE_VERSION,
        FIXED_WIDTH_STATE_VERSION,
        UNION_STATE_VERSION,
    ];

    /// The read-only schema versions, oldest first.
    const READ_ONLY: [u32; 5] = [
        LEGACY_STATE_VERSION,
        STATE_VERSION,
        IBR_STATE_VERSION,
        SHARD_STATE_VERSION,
        FIXED_WIDTH_STATE_VERSION,
    ];

    /// Record shapes covering every section in every writer: the golden
    /// fixture record of each version, a skipped round, and the
    /// single-vantage variants of the passive (dark collector) and
    /// supervised (no darknet) layouts.
    fn record_shapes() -> Vec<RoundRecord> {
        let mut shapes: Vec<RoundRecord> = ACCEPTED.map(wire_fixture_record).to_vec();
        let single = wire_fixture_record(LEGACY_STATE_VERSION);
        let full = wire_fixture_record(UNION_STATE_VERSION);
        shapes.push(RoundRecord {
            round: Round(7),
            online: false,
            quality: RoundQuality::Unusable,
            blocks: BlockSection::default(),
            ..single.clone()
        });
        shapes.push(RoundRecord {
            ibr: Some(IbrObs {
                dark: true,
                volumes: Vec::new(),
            }),
            ..single.clone()
        });
        shapes.push(RoundRecord {
            shards: full.shards,
            ..single
        });
        shapes
    }

    #[test]
    fn every_record_shape_round_trips_through_every_writer() {
        for record in record_shapes() {
            // Every campaign mode writes the union layout…
            let union = record.encode();
            assert_eq!(union[0] as u32, UNION_STATE_VERSION);
            assert_eq!(RoundRecord::decode(&union).unwrap(), record);
            // …and still decodes what the fixed-width union writer and the
            // pre-union writer wrote for it.
            for version in [FIXED_WIDTH_STATE_VERSION, record.legacy_version()] {
                let old = record.encode_read_only(version);
                assert_eq!(old[0] as u32, version);
                assert_eq!(RoundRecord::decode(&old).unwrap(), record, "v{version}");
            }
        }
    }

    #[test]
    fn structural_damage_is_rejected() {
        // A version-3 record must carry a roster; an empty one is damage.
        let bare = RoundRecord {
            blocks: BlockSection::default(),
            feeds: Vec::new(),
            ..wire_fixture_record(LEGACY_STATE_VERSION)
        };
        let mut bytes = bare.encode_read_only(LEGACY_STATE_VERSION);
        bytes[0] = STATE_VERSION as u8;
        assert!(RoundRecord::decode(&bytes).is_err());
        // A dark darknet observation claiming volumes is damage.
        let mut w = ByteWriter::new();
        w.put_bool(true);
        vec![5u64].persist(&mut w);
        assert!(IbrObs::restore(&mut ByteReader::new(&w.into_bytes())).is_err());
        // A shard section that is present must carry outcomes, in either
        // layout.
        let hollow = RoundRecord {
            shards: Some(ShardObs {
                outcomes: Vec::new(),
            }),
            ..bare
        };
        for version in [hollow.legacy_version(), FIXED_WIDTH_STATE_VERSION] {
            assert!(RoundRecord::decode(&hollow.encode_read_only(version)).is_err());
        }
        assert!(RoundRecord::decode(&hollow.encode()).is_err());
        // An unknown shard outcome tag is damage.
        let mut w = ByteWriter::new();
        w.put_u8(9);
        assert!(ShardOutcomeObs::restore(&mut ByteReader::new(&w.into_bytes())).is_err());
        let outcomes = wire_fixture_record(UNION_STATE_VERSION).shards.unwrap();
        assert!(outcomes.outcomes[0].completed());
        assert!(!outcomes.outcomes[1].completed());
    }

    #[test]
    fn version_drift_is_rejected() {
        let record = RoundRecord {
            round: Round(0),
            online: true,
            quality: RoundQuality::Ok,
            blocks: BlockSection::default(),
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
        for foreign in [0u32, 1, 8, u32::MAX] {
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
        // The accepted tags pass the probe: a truncated payload fails in
        // the section decoders, never as version drift.
        for live in ACCEPTED {
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
        for v in ACCEPTED {
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
        for v in [0u32, 1, 8, u32::MAX] {
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
            VantageRound {
                online: true,
                quality: RoundQuality::Ok,
                blocks: BlockSection(vec![obs(30, 41_000_000), obs(0, 0)]),
            },
            VantageRound {
                online: false,
                quality: RoundQuality::Unusable,
                blocks: BlockSection::default(),
            },
        ];
        let mut record = RoundRecord {
            round: Round(42),
            online: true,
            quality: RoundQuality::Degraded,
            blocks: BlockSection(vec![obs(118, 40_120_000), obs(0, 0)]),
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
                record.blocks = BlockSection::default();
                record.vantages = vantages;
            }
            IBR_STATE_VERSION => {
                record.vantages = vantages;
                record.ibr = Some(ibr);
            }
            SHARD_STATE_VERSION | FIXED_WIDTH_STATE_VERSION | UNION_STATE_VERSION => {
                record.vantages = vantages;
                record.ibr = Some(ibr);
                record.shards = Some(shards);
            }
            other => panic!("no wire fixture layout for version {other}"),
        }
        record
    }

    fn wire_dir() -> PathBuf {
        Path::new(env!("CARGO_MANIFEST_DIR")).join("../../fixtures/wire")
    }

    /// A committed golden blob under `fixtures/wire/v<version>/`.
    fn golden(version: u32, file: &str) -> Vec<u8> {
        let path = wire_dir().join(format!("v{version}")).join(file);
        std::fs::read(&path).unwrap_or_else(|e| {
            panic!(
                "{}: {e} (regenerate with FBS_WRITE_WIRE_FIXTURES=1)",
                path.display()
            )
        })
    }

    /// A pipeline state in the snapshot layout of `version`: the union
    /// payload from version 6 on (version 7 kept version 6's), the
    /// pre-union writer's below.
    fn persist_state_as(state: &PipelineState, version: u32) -> Vec<u8> {
        let mut w = ByteWriter::new();
        if version >= FIXED_WIDTH_STATE_VERSION {
            state.persist_into(&mut w);
        } else {
            assert_eq!(state.legacy_version(), version, "v{version} snapshot");
            state.persist_legacy(&mut w);
        }
        w.into_bytes()
    }

    #[test]
    fn golden_wire_fixtures_round_trip_byte_for_byte() {
        // `FBS_WRITE_WIRE_FIXTURES=1 cargo test -p fbs-core` regenerates
        // the union-layout blobs; the read-only v2–v6 blobs were written by
        // the retired writers and are never regenerated. A plain run pins
        // the bytes exactly: the union encoder must reproduce v7 and the
        // retired writers, kept as the oracle, must reproduce v2–v6, so an
        // encoder change that touches a frozen layout fails here even if
        // encode/decode still agree with each other.
        let write = std::env::var("FBS_WRITE_WIRE_FIXTURES").is_ok();
        for version in ACCEPTED {
            let record = wire_fixture_record(version);
            let union = version == UNION_STATE_VERSION;
            let encoded = if union {
                record.encode()
            } else {
                record.encode_read_only(version)
            };
            assert_eq!(u32::from(encoded[0]), version, "v{version} layout drifted");
            let vdir = wire_dir().join(format!("v{version}"));
            if write && union {
                std::fs::create_dir_all(&vdir).unwrap();
                std::fs::write(vdir.join("round_record.bin"), &encoded).unwrap();
                write_snapshot(vdir.join("state.snap"), version, &encoded).unwrap();
                let ckpt = scratch_dir("golden");
                run_and_kill(&compat_campaign(version), &ckpt, 24);
                let (_, payload) = read_snapshot(ckpt.join(SNAPSHOT_FILE)).unwrap().unwrap();
                std::fs::write(vdir.join("pipeline_state.bin"), payload).unwrap();
                let _ = std::fs::remove_dir_all(&ckpt);
            }
            let golden_record = golden(version, "round_record.bin");
            assert_eq!(
                golden_record, encoded,
                "v{version} golden journal bytes drifted from the encoder"
            );
            assert_eq!(
                RoundRecord::decode(&golden_record).unwrap(),
                record,
                "v{version} golden decode drifted"
            );
            // The snapshot container round-trips the same payload under
            // the same version tag.
            let (snap_version, payload) = read_snapshot(vdir.join("state.snap"))
                .unwrap()
                .expect("snapshot fixture present");
            assert_eq!(snap_version, version);
            assert_eq!(payload, encoded);
            // A pipeline state decoded from its golden payload re-encodes
            // to the same bytes.
            let golden_state = golden(version, "pipeline_state.bin");
            let state = PipelineState::decode(&golden_state, version).unwrap();
            assert_eq!(
                persist_state_as(&state, version),
                golden_state,
                "v{version} golden snapshot payload drifted from the encoder"
            );
        }
        // Version 7 changed only the journal record: its snapshot payload
        // is the version-6 one, byte for byte.
        assert_eq!(
            golden(UNION_STATE_VERSION, "pipeline_state.bin"),
            golden(FIXED_WIDTH_STATE_VERSION, "pipeline_state.bin")
        );
    }

    #[test]
    fn every_locked_version_has_a_wire_fixture_dir() {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../SCHEMA.lock");
        let lock = std::fs::read_to_string(&path).unwrap();
        let tags: Vec<u32> = lock
            .lines()
            .find_map(|l| l.strip_prefix("versions "))
            .expect("SCHEMA.lock has a versions line")
            .split_whitespace()
            .map(|t| t.parse().expect("numeric version tag"))
            .collect();
        assert_eq!(tags, ACCEPTED, "SCHEMA.lock and the decoders disagree");
        for tag in tags {
            let dir = wire_dir().join(format!("v{tag}"));
            assert!(dir.is_dir(), "{} is missing", dir.display());
        }
    }

    // --- Read-only checkpoints resume -------------------------------------

    const COMPAT_ROUNDS: u32 = 48;

    fn compat_policy() -> CheckpointPolicy {
        CheckpointPolicy {
            snapshot_every: 12,
            fsync: false,
        }
    }

    fn scratch_dir(tag: &str) -> PathBuf {
        use std::sync::atomic::{AtomicU32, Ordering};
        static N: AtomicU32 = AtomicU32::new(0);
        let n = N.fetch_add(1, Ordering::Relaxed);
        std::env::temp_dir().join(format!("fbs-wire-{tag}-{}-{n}", std::process::id()))
    }

    /// A tiny campaign in the mode that wrote `version` before the union
    /// layout: no roster (v2, with the feed layer on), a roster (v3), the
    /// passive signal (v4), and everything under shard supervision (v5,
    /// and the union goldens v6 and v7). The `pipeline_state.bin` goldens
    /// are the round-24 snapshots of these campaigns, the v2–v6 ones
    /// written by the retired writers.
    fn compat_campaign(version: u32) -> crate::pipeline::Campaign {
        use fbs_netsim::*;
        use fbs_types::{Asn, BlockId, Oblast, Prefix};
        let block = |c: u8| BlockSpec {
            block: BlockId::from_octets(10, 0, c),
            owner: Asn(100),
            home: Oblast::Kherson,
            base_responders: 120,
            geo_population: 220,
            response_prob: 0.9,
            diurnal: false,
            power_backup: 1.0,
            annual_decay: 1.0,
        };
        let blocks: Vec<BlockSpec> = (0..8).map(block).collect();
        let ases = vec![AsSpec {
            asn: Asn(100),
            name: "wire-compat".into(),
            profile: AsProfile::Regional,
            hq: Some(Oblast::Kherson),
            prefixes: blocks.iter().map(|b| Prefix::from_block(b.block)).collect(),
            base_rtt_ns: 40_000_000,
            upstream: Asn(1),
        }];
        let mut script = Script::new();
        script.push(ScriptedEvent {
            name: "outage".into(),
            target: EventTarget::As(Asn(100)),
            kind: EventKind::BgpOutage,
            start: Round(20).start(),
            end: Some(Round(26).start()),
        });
        let config = WorldConfig {
            seed: 7,
            scale: WorldScale::Tiny,
            rounds: COMPAT_ROUNDS,
            ases,
            blocks,
        };
        let world = World::new(config, script, vec![]).unwrap();
        let lossy = FaultPlan {
            baseline: FaultIntensity::default(),
            windows: vec![FaultWindow::over_rounds(
                "lossy",
                8..30,
                FaultIntensity {
                    reply_loss: 0.3,
                    ..FaultIntensity::default()
                },
            )],
        };
        let roster = vec![
            VantageSpec::new("kyiv"),
            VantageSpec {
                path_rtt_ns: 12_000_000,
                fault_plan: Some(lossy.clone()),
                ..VantageSpec::new("warsaw")
            },
        ];
        let ibr = IbrConfig::with_dark_windows(vec![IbrDarkWindow { start: 12, end: 16 }]);
        let stall = |name: &str, rounds, attempts| {
            ShardFaultWindow::scripted(name, rounds, vec![], attempts, ShardFaultKind::Stall)
        };
        let mut cfg = crate::config::CampaignConfig {
            tracked: vec![
                fbs_signals::EntityId::As(Asn(100)),
                fbs_signals::EntityId::Block(BlockId::from_octets(10, 0, 0)),
            ],
            rtt_tracked: vec![Asn(100)],
            threads: 1,
            fault_plan: Some(lossy),
            ..Default::default()
        };
        match version {
            LEGACY_STATE_VERSION => cfg.feed_plan = Some(FeedFaultPlan::none()),
            STATE_VERSION => cfg.vantages = roster,
            IBR_STATE_VERSION => cfg.ibr = Some(ibr),
            _ => {
                cfg.vantages = roster;
                cfg.ibr = Some(ibr);
                cfg.shard_plan = Some(ShardFaultPlan {
                    windows: vec![stall("retried", 5..7, 1), stall("lost", 14..15, 3)],
                });
            }
        }
        crate::pipeline::Campaign::new(world, cfg).unwrap()
    }

    fn run_and_kill(campaign: &crate::pipeline::Campaign, dir: &Path, kill_at: u32) {
        let mut runner = campaign.runner_checkpointed(dir, compat_policy()).unwrap();
        for _ in 0..kill_at {
            assert!(runner.step_round().unwrap());
        }
    }

    #[test]
    fn read_only_checkpoints_resume_byte_identically() {
        for version in READ_ONLY {
            let campaign = compat_campaign(version);
            let baseline = format!("{:?}", campaign.run().unwrap());
            let dir = scratch_dir("compat");
            run_and_kill(&campaign, &dir, 30);

            // Rewrite the journal and the round-24 snapshot into the
            // read-only layout, as an older build would have left them.
            let wal = dir.join(JOURNAL_FILE);
            let (_, records, _) = Journal::open(&wal).unwrap();
            let mut journal = Journal::create(&wal).unwrap();
            for raw in &records {
                let old = RoundRecord::decode(raw).unwrap().encode_read_only(version);
                assert_eq!(old[..4], version.to_le_bytes(), "v{version} journal");
                journal.append(&old).unwrap();
            }
            journal.sync().unwrap();
            drop(journal);
            let snap = dir.join(SNAPSHOT_FILE);
            let (union, payload) = read_snapshot(&snap).unwrap().unwrap();
            assert_eq!(union, UNION_STATE_VERSION);
            let state = PipelineState::decode(&payload, union).unwrap();
            write_snapshot(&snap, version, &persist_state_as(&state, version)).unwrap();

            let (resumed, diag) = campaign
                .resume_with(&dir, compat_policy())
                .unwrap_or_else(|e| panic!("v{version} checkpoint did not resume: {e}"));
            assert_eq!(
                format!("{resumed:?}"),
                baseline,
                "v{version} resume diverged"
            );
            assert!(diag.snapshot_loaded && diag.journal.was_clean(), "{diag:?}");
            assert_eq!(diag.replayed_rounds, 6);
            // The journal now mixes read-only and union records; it still
            // validates end to end.
            let (again, _) = campaign.resume_with(&dir, compat_policy()).unwrap();
            assert_eq!(format!("{again:?}"), baseline);
            let _ = std::fs::remove_dir_all(&dir);
        }
    }

    #[test]
    fn a_reused_snapshot_buffer_leaks_no_stale_bytes() {
        // One store snapshots every round: first a state 24 rounds into the
        // campaign, then the campaign's shorter initial state, through the
        // same buffer.
        let campaign = compat_campaign(UNION_STATE_VERSION);
        let statics = crate::pipeline::Statics::build(&campaign).unwrap();
        let short = crate::pipeline::initial_state(campaign.world(), campaign.config(), &statics);
        let golden_long = golden(UNION_STATE_VERSION, "pipeline_state.bin");
        let long = PipelineState::decode(&golden_long, UNION_STATE_VERSION).unwrap();
        let expected = persist_state_as(&short, UNION_STATE_VERSION);
        assert!(expected.len() < golden_long.len());

        let dir = scratch_dir("reuse");
        let policy = CheckpointPolicy {
            snapshot_every: 1,
            fsync: false,
        };
        let mut store = CheckpointStore::fresh(&dir, policy).unwrap();
        store.maybe_snapshot(1, &long).unwrap();
        store.maybe_snapshot(2, &short).unwrap();
        store.join_writer().unwrap();
        // The buffer came back from both writes without shrinking.
        assert!(store.buffer.capacity() >= golden_long.len());
        drop(store);

        // The second write landed last, and carries nothing of the first.
        let (version, payload) = read_snapshot(dir.join(SNAPSHOT_FILE)).unwrap().unwrap();
        assert_eq!(version, UNION_STATE_VERSION);
        assert_eq!(payload, expected);
        assert!(!dir.join(format!("{SNAPSHOT_FILE}.tmp")).exists());
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The canonical v7 record, describing `round`.
    fn record_of(round: u32) -> RoundRecord {
        RoundRecord {
            round: Round(round),
            ..wire_fixture_record(UNION_STATE_VERSION)
        }
    }

    #[test]
    fn an_append_that_skips_a_round_is_refused() {
        for fsync in [false, true] {
            let dir = scratch_dir("gap");
            let policy = CheckpointPolicy {
                snapshot_every: 0,
                fsync,
            };
            let mut store = CheckpointStore::fresh(&dir, policy).unwrap();
            store.append(&record_of(0)).unwrap();
            store.append(&record_of(1)).unwrap();
            // A step that failed after applying round 2 hands round 3 next.
            let err = store.append(&record_of(3)).unwrap_err().to_string();
            assert!(
                err.contains("round 2") && err.contains("round 3") && err.contains("resume"),
                "{err}"
            );
            assert_eq!(store.journal.records(), 2);
            store.append(&record_of(2)).unwrap();
            // Only `fsync` starts the syncer.
            assert_eq!(store.syncer.is_some(), fsync);
            drop(store);
            let (_, records, recovery) = Journal::open(dir.join(JOURNAL_FILE)).unwrap();
            assert!(recovery.was_clean());
            let rounds: Vec<u32> = records
                .iter()
                .map(|raw| RoundRecord::decode(raw).unwrap().round.0)
                .collect();
            assert_eq!(rounds, [0, 1, 2]);
            let _ = std::fs::remove_dir_all(&dir);
        }
    }

    #[test]
    fn a_snapshot_reaches_its_writer_only_after_its_rounds_fsync() {
        let campaign = compat_campaign(UNION_STATE_VERSION);
        let statics = crate::pipeline::Statics::build(&campaign).unwrap();
        let state = crate::pipeline::initial_state(campaign.world(), campaign.config(), &statics);
        let dir = scratch_dir("synced");
        let policy = CheckpointPolicy {
            snapshot_every: 2,
            fsync: true,
        };
        let mut store = CheckpointStore::fresh(&dir, policy).unwrap();
        for round in 0..6 {
            store.append(&record_of(round)).unwrap();
            // The append waited for the previous round's fsync, not its own.
            assert_eq!(store.synced_records(), u64::from(round));
            store.maybe_snapshot(round + 1, &state).unwrap();
            if (round + 1) % 2 == 0 {
                assert_eq!(store.synced_records(), store.journal.records());
            }
        }
        store.synced().unwrap();
        assert_eq!(store.synced_records(), 6);
        drop(store);
        let _ = std::fs::remove_dir_all(&dir);
    }

    // --- Decoder totality -------------------------------------------------

    /// Decodes `bytes` as a round record and as a snapshot state at every
    /// accepted version. Returning is the property: no decoder panics, and
    /// every failure is a typed `FbsError` by construction.
    fn decode_everything(bytes: &[u8]) {
        let _ = RoundRecord::decode(bytes);
        for version in ACCEPTED {
            let _ = PipelineState::decode(bytes, version);
        }
    }

    fn flip_bit(bytes: &[u8], bit: usize) -> Vec<u8> {
        let mut out = bytes.to_vec();
        out[bit / 8] ^= 1 << (bit % 8);
        out
    }

    #[test]
    fn decoders_are_total_on_damaged_golden_records() {
        for version in ACCEPTED {
            let golden = golden(version, "round_record.bin");
            for cut in 0..golden.len() {
                assert!(RoundRecord::decode(&golden[..cut]).is_err());
                decode_everything(&golden[..cut]);
            }
            for bit in 0..golden.len() * 8 {
                decode_everything(&flip_bit(&golden, bit));
            }
        }
    }

    /// Where a version-7 record's block section starts: after the
    /// version, the round, the online flag and the quality tag.
    const V7_BLOCKS_AT: usize = 4 + 4 + 1 + 1;

    /// A version-7 record whose block section is `section`, with the
    /// golden record's header in front and nothing behind.
    fn v7_with_section(section: &[u8]) -> Vec<u8> {
        let mut bytes = golden(UNION_STATE_VERSION, "round_record.bin")[..V7_BLOCKS_AT].to_vec();
        bytes.extend_from_slice(section);
        bytes
    }

    fn varint(v: u64) -> Vec<u8> {
        let mut w = ByteWriter::new();
        w.put_varint(v);
        w.into_bytes()
    }

    #[test]
    fn block_section_damage_is_an_error() {
        let head = |responsive: u64, flags: u64| responsive << BlockObs::RESPONSIVE_SHIFT | flags;
        let one = varint(1);
        let cases: Vec<(&str, Vec<u8>)> = vec![
            // A head varint whose continuation bit runs off the section.
            ("varint runs off", [one.clone(), vec![0x80]].concat()),
            // An RTT flagged, then cut mid-varint.
            (
                "rtt runs off",
                [
                    one.clone(),
                    varint(head(9, BlockObs::HAS_RTT)),
                    vec![0xff, 0xff],
                ]
                .concat(),
            ),
            // Eleven bytes: longer than any u64 encoding.
            (
                "11-byte varint",
                [one.clone(), vec![0xff; 10], vec![0x01]].concat(),
            ),
            // A responsive count one past u32::MAX.
            (
                "responsive above u32",
                [one.clone(), varint(head(u64::from(u32::MAX) + 1, 0))].concat(),
            ),
            // A flagged RTT of zero has no canonical writer.
            (
                "zero rtt",
                [one.clone(), varint(head(9, BlockObs::HAS_RTT)), varint(0)].concat(),
            ),
            // Counts the section cannot hold: one byte short, and the
            // largest count a varint carries (allocating for it would abort
            // the test, so the bound must bite before `with_capacity`).
            ("count one short", [varint(3), vec![0x08, 0x08]].concat()),
            (
                "count u64::MAX",
                [varint(u64::MAX), vec![0x08; 64]].concat(),
            ),
        ];
        for (what, section) in cases {
            assert!(decode_blocks(&section).is_err(), "{what}: section decoded");
            let record = v7_with_section(&section);
            assert!(
                RoundRecord::decode(&record).is_err(),
                "{what}: record decoded"
            );
            decode_everything(&record);
        }
        // The undamaged neighbour of the last cases decodes.
        let (blocks, used) = decode_blocks(&[varint(2), vec![0x08, 0x08]].concat()).unwrap();
        assert_eq!((blocks.len(), used), (2, 3));
    }

    proptest! {
        #[test]
        fn decoders_are_total_on_arbitrary_bytes(
            bytes in prop::collection::vec(any::<u8>(), 0..512usize),
            pick in any::<usize>(),
        ) {
            decode_everything(&bytes);
            // Behind an accepted record tag the section decoders run too.
            let mut tagged = ACCEPTED[pick % ACCEPTED.len()].to_le_bytes().to_vec();
            tagged.extend_from_slice(&bytes);
            decode_everything(&tagged);
            // Behind the v7 golden header the block section decodes them.
            decode_everything(&v7_with_section(&bytes));
        }

        #[test]
        fn block_sections_round_trip(
            blocks in prop::collection::vec(
                (any::<u32>(), prop_oneof![Just(0u64), any::<u64>()], any::<bool>(), any::<bool>()),
                0..64usize,
            ),
        ) {
            let section = BlockSection(
                blocks
                    .into_iter()
                    .map(|(responsive, rtt_ns, routed, routed_known)| BlockObs {
                        responsive,
                        rtt_ns,
                        routed,
                        routed_known,
                    })
                    .collect(),
            );
            let mut w = ByteWriter::new();
            section.persist(&mut w);
            let bytes = w.into_bytes();
            let mut r = ByteReader::new(&bytes);
            prop_assert_eq!(BlockSection::restore(&mut r).unwrap(), section);
            prop_assert!(r.is_exhausted());
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]
        #[test]
        fn decoders_are_total_on_damaged_golden_states(
            cut in any::<usize>(),
            bit in any::<usize>(),
            tail_bit in any::<usize>(),
        ) {
            for version in ACCEPTED {
                let golden = golden(version, "pipeline_state.bin");
                let bits = golden.len() * 8;
                let cut = cut % golden.len();
                assert!(PipelineState::decode(&golden[..cut], version).is_err());
                decode_everything(&golden[..cut]);
                decode_everything(&flip_bit(&golden, bit % bits));
                // Half the flips land in the last 2 KiB, where the
                // version-specific sections live.
                let tail = bits.min(2048 * 8);
                decode_everything(&flip_bit(&golden, bits - 1 - tail_bit % tail));
            }
        }
    }
}

//! Byte-identity of everything the pipeline persists.
//!
//! The `unordered-persist` lint rule exists because hash-ordered
//! iteration can leak process-random ordering into serialized state.
//! These tests pin the property the rule protects, end to end: two
//! independent runs of the same campaign must produce **byte-identical**
//! checkpoint files (snapshot + journal) and byte-identical dataset
//! exports — not merely equal in-memory reports.

use std::sync::atomic::{AtomicU64, Ordering};
use ukraine_fbs::core::checkpoint::{JOURNAL_FILE, SNAPSHOT_FILE};
use ukraine_fbs::core::classify::campaign_months;
use ukraine_fbs::core::dataset::{availability_csv, availability_rows, outage_csv, outage_rows};
use ukraine_fbs::core::CheckpointPolicy;
use ukraine_fbs::journal;
use ukraine_fbs::netsim::{
    AsProfile, AsSpec, BlockSpec, EventKind, EventTarget, FaultIntensity, FaultPlan, FaultWindow,
    FeedFaultIntensity, FeedFaultPlan, FeedFaultWindow, IbrConfig, IbrDarkWindow, Script,
    ScriptedEvent, ShardFaultKind, ShardFaultPlan, ShardFaultWindow, VantageSpec, World,
    WorldConfig, WorldScale,
};
use ukraine_fbs::prelude::*;
use ukraine_fbs::signals::IbrRoundStatus;
use ukraine_fbs::types::{FeedKind, FeedStatus, Oblast, Prefix};

const ROUNDS: u32 = 240; // 20 days at 12 rounds/day

fn world(seed: u64) -> World {
    let asn = Asn(200);
    let blocks: Vec<BlockSpec> = (0..6u8)
        .map(|c| BlockSpec {
            block: BlockId::from_octets(10, 1, c),
            owner: asn,
            home: Oblast::Kharkiv,
            base_responders: 100,
            geo_population: 200,
            response_prob: 0.9,
            diurnal: true,
            power_backup: 1.0,
            annual_decay: 1.0,
        })
        .collect();
    let config = WorldConfig {
        seed,
        scale: WorldScale::Tiny,
        rounds: ROUNDS,
        ases: vec![AsSpec {
            asn,
            name: "byte-identity".into(),
            profile: AsProfile::Regional,
            hq: Some(Oblast::Kharkiv),
            prefixes: blocks.iter().map(|b| Prefix::from_block(b.block)).collect(),
            base_rtt_ns: 40_000_000,
            upstream: Asn(1),
        }],
        blocks,
    };
    World::new(config, Script::new(), vec![]).expect("valid config")
}

fn campaign() -> Campaign {
    let mut cfg = CampaignConfig::without_baseline();
    cfg.tracked.clear();
    cfg.rtt_tracked.clear();
    Campaign::new(world(23), cfg).expect("valid config")
}

fn fresh_dir(tag: &str) -> std::path::PathBuf {
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let n = COUNTER.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!("fbs-bytes-{tag}-{}-{n}", std::process::id()))
}

fn policy() -> CheckpointPolicy {
    CheckpointPolicy {
        snapshot_every: 84,
        fsync: false,
    }
}

#[test]
fn two_runs_write_identical_checkpoint_bytes() {
    let campaign = campaign();
    let (dir_a, dir_b) = (fresh_dir("a"), fresh_dir("b"));
    let report_a = campaign.run_checkpointed(&dir_a, policy()).expect("run a");
    let report_b = campaign.run_checkpointed(&dir_b, policy()).expect("run b");
    assert_eq!(format!("{report_a:?}"), format!("{report_b:?}"));

    for file in [SNAPSHOT_FILE, JOURNAL_FILE] {
        let a = std::fs::read(dir_a.join(file)).expect(file);
        let b = std::fs::read(dir_b.join(file)).expect(file);
        assert_eq!(a, b, "{file} differs between two identical runs");
    }
    let _ = std::fs::remove_dir_all(&dir_a);
    let _ = std::fs::remove_dir_all(&dir_b);
}

/// A world the shard executor really splits: four ASes of 300, 150, 100
/// and 50 blocks. The 300-block AS is above the executor's 128-block shard
/// cap, so it spans three shards, and the world cuts into six. A BGP
/// outage on one AS feeds the detectors, and a vantage outage makes a run
/// of unusable rounds on which only the darknet is heard.
fn multi_shard_world() -> World {
    let sizes = [
        (301u32, Oblast::Kharkiv, 300usize),
        (302, Oblast::Kyiv, 150),
        (303, Oblast::Kherson, 100),
        (304, Oblast::Lviv, 50),
    ];
    let mut blocks = Vec::new();
    let mut ases = Vec::new();
    for (asn, home, n) in sizes {
        let first = blocks.len();
        for k in first..first + n {
            blocks.push(BlockSpec {
                block: BlockId::from_octets(10, (k >> 8) as u8, (k & 0xff) as u8),
                owner: Asn(asn),
                home,
                // Every fifth block has two responders, so a lossy
                // vantage sometimes sees it dark while the others do not.
                base_responders: if k % 5 == 0 {
                    2
                } else {
                    60 + (k % 7) as u16 * 10
                },
                geo_population: 200,
                response_prob: 0.85,
                diurnal: k % 3 != 0,
                power_backup: 1.0,
                annual_decay: 1.0,
            });
        }
        ases.push(AsSpec {
            asn: Asn(asn),
            name: format!("multi-shard-{asn}"),
            profile: AsProfile::Regional,
            hq: Some(home),
            prefixes: blocks[first..]
                .iter()
                .map(|b| Prefix::from_block(b.block))
                .collect(),
            base_rtt_ns: 40_000_000,
            upstream: Asn(1),
        });
    }
    let config = WorldConfig {
        seed: 31,
        scale: WorldScale::Tiny,
        rounds: ROUNDS,
        ases,
        blocks,
    };
    let mut script = Script::new();
    script.push(ScriptedEvent {
        name: "bgp-outage".into(),
        target: EventTarget::As(Asn(302)),
        kind: EventKind::BgpOutage,
        start: Round(100).start(),
        end: Some(Round(112).start()),
    });
    script.push(ScriptedEvent {
        name: "vantage-outage".into(),
        target: EventTarget::Country,
        kind: EventKind::VantageOutage,
        start: Round(150).start(),
        end: Some(Round(156).start()),
    });
    World::new(config, script, vec![]).expect("valid config")
}

/// The multi-shard campaign at `threads`: the darknet with a dark window,
/// tracked blocks and ASes, an RTT-tracked AS, and the Trinocular/IODA
/// baseline on; with `roster`, three vantages — one clean, one behind
/// path latency and reply loss, one blacked out mid-campaign — plus feed
/// faults (a corrupted and a dark BGP window, a delayed geolocation
/// month) and shard faults (a panic that a retry recovers, a lost shard)
/// around the round the thread-count test kills the campaign at.
fn multi_shard_campaign(threads: usize, roster: bool) -> Campaign {
    let world = multi_shard_world();
    let mut cfg = CampaignConfig::default();
    assert!(cfg.run_baseline);
    cfg.tracked = vec![
        EntityId::As(Asn(301)),
        EntityId::As(Asn(302)),
        EntityId::Block(BlockId::from_octets(10, 1, 200)),
        EntityId::Block(BlockId::from_octets(10, 0, 5)),
    ];
    cfg.rtt_tracked = vec![Asn(301)];
    cfg.ibr = Some(IbrConfig::with_dark_windows(vec![IbrDarkWindow {
        start: 60,
        end: 72,
    }]));
    if roster {
        cfg.vantages = vec![
            VantageSpec::new("kyiv"),
            VantageSpec {
                path_rtt_ns: 12_000_000,
                fault_plan: Some(FaultPlan {
                    baseline: FaultIntensity::default(),
                    windows: vec![FaultWindow::over_rounds(
                        "lossy",
                        20..200,
                        FaultIntensity {
                            reply_loss: 0.6,
                            ..FaultIntensity::default()
                        },
                    )],
                }),
                ..VantageSpec::new("warsaw")
            },
            VantageSpec {
                fault_plan: Some(FaultPlan {
                    baseline: FaultIntensity::default(),
                    windows: vec![FaultWindow::over_rounds(
                        "blackout",
                        120..180,
                        FaultIntensity {
                            reply_loss: 1.0,
                            ..FaultIntensity::default()
                        },
                    )],
                }),
                ..VantageSpec::new("frankfurt")
            },
        ];
        let none = FeedFaultIntensity::default();
        // The campaign spans one month, whose delivery is due at round 0.
        let geo_due = world.month_rounds(campaign_months(&world)[0]).start;
        cfg.feed_plan = Some(FeedFaultPlan {
            windows: vec![
                FeedFaultWindow::over_rounds(
                    "bgp-corrupt",
                    FeedKind::Bgp,
                    30..60,
                    FeedFaultIntensity {
                        corrupt_records: 0.05,
                        ..none
                    },
                ),
                FeedFaultWindow::over_rounds(
                    "bgp-dark",
                    FeedKind::Bgp,
                    200..210,
                    FeedFaultIntensity { drop: 1.0, ..none },
                ),
                FeedFaultWindow::over_rounds(
                    "geo-late",
                    FeedKind::Geo,
                    geo_due..geo_due + 1,
                    FeedFaultIntensity {
                        delay_attempts: 2,
                        ..none
                    },
                ),
            ],
        });
        cfg.shard_plan = Some(ShardFaultPlan {
            windows: vec![
                ShardFaultWindow::scripted("retried", 128..132, vec![1], 1, ShardFaultKind::Panic),
                ShardFaultWindow::scripted(
                    "lost",
                    125..135,
                    vec![4],
                    cfg.shard_retries + 1,
                    ShardFaultKind::Panic,
                ),
            ],
        });
    }
    cfg.threads = threads;
    Campaign::new(world, cfg).expect("valid config")
}

/// Length and CRC-32 of every export, the journal and the last snapshot
/// of the roster's multi-shard campaign at one thread, in name order.
/// Recorded when each round's accumulation and the next round's
/// measurement still ran back to back, so these pin that measuring ahead
/// moves no byte, with the feed and shard faults applied in their rounds.
const ROSTER_MULTI_SHARD_BYTES: [(&str, u64, u32); 8] = [
    ("export/block_availability.csv", 928, 0x9cc8_d36e),
    ("export/block_availability.json", 4_545, 0xb1b2_bebf),
    ("export/ibr_signal.csv", 261, 0x4e02_8a7d),
    ("export/outages.csv", 211, 0x7a3e_a353),
    ("export/outages.json", 479, 0xed9f_366a),
    ("export/vantage_disagreement.csv", 273, 0x4f5f_a4ee),
    ("rounds.wal", 1_565_337, 0xb0e1_2829),
    ("state.snap", 166_663, 0xfd2a_0a9b),
];

/// The `(name, length, CRC-32)` of each pinned file among `files`: the
/// journal, the snapshot and the exports.
fn pinned(files: &[(String, Vec<u8>)]) -> Vec<(String, u64, u32)> {
    files
        .iter()
        .filter(|(name, _)| {
            name == JOURNAL_FILE || name == SNAPSHOT_FILE || name.starts_with("export/")
        })
        .map(|(name, bytes)| (name.clone(), bytes.len() as u64, journal::crc32(bytes)))
        .collect()
}

/// Everything a finished checkpointed campaign leaves behind: the report,
/// then every file of the checkpoint directory and of its dataset export,
/// by name.
fn output_bytes(
    report: &CampaignReport,
    dir: &std::path::Path,
) -> (String, Vec<(String, Vec<u8>)>) {
    let exports = dir.join("export");
    ukraine_fbs::core::dataset::export_all(report, &exports).expect("export");
    let mut files = Vec::new();
    for (prefix, d) in [("", dir.to_path_buf()), ("export/", exports)] {
        for entry in std::fs::read_dir(&d).expect("output dir") {
            let path = entry.expect("dir entry").path();
            if path.is_file() {
                let name = path.file_name().expect("name").to_string_lossy();
                files.push((
                    format!("{prefix}{name}"),
                    std::fs::read(&path).expect("output file"),
                ));
            }
        }
    }
    files.sort();
    let _ = std::fs::remove_dir_all(dir);
    (format!("{report:?}"), files)
}

/// Runs the multi-shard campaign to the end at threads 1, 2 and 8, and at
/// threads 2 and 8 also kills it between two snapshots, with a measured
/// round not yet journaled, and resumes it through replay. Every run must
/// leave the threads-1 run's report, journal, snapshot and export bytes.
fn assert_thread_count_never_reaches_bytes(roster: bool) {
    let tag = if roster { "roster" } else { "implicit" };
    let run = |threads: usize| {
        let dir = fresh_dir(&format!("{tag}-t{threads}"));
        let report = multi_shard_campaign(threads, roster)
            .run_checkpointed(&dir, policy())
            .expect("checkpointed run");
        if threads == 1 {
            // The campaign exercises what it claims to: detections, the
            // darknet heard and dark, unusable rounds, the baseline, and
            // on the roster a ballot that disagrees.
            assert!(report.total_as_outages() > 0, "{tag}");
            assert!(!report.missing_rounds.is_empty(), "{tag}");
            assert!(report.ioda.is_some(), "{tag}");
            assert_eq!(report.tracked.len(), 4, "{tag}");
            let statuses: Vec<_> = report.ibr.iter().flat_map(|l| &l.status).collect();
            assert!(statuses.contains(&&IbrRoundStatus::Dark), "{tag}");
            assert!(statuses.contains(&&IbrRoundStatus::Observed), "{tag}");
            assert_eq!(report.vantages.len(), if roster { 3 } else { 0 });
            assert_eq!(report.disagreement.some_not_all_block_rounds > 0, roster);
            if roster {
                // Every injected fault took effect: quarantined BGP
                // records, a stale BGP feed, a retried geolocation
                // delivery, and a shard retried and a shard lost.
                assert!(report
                    .feed_quarantines
                    .iter()
                    .any(|q| q.kind == FeedKind::Bgp && (30..60).contains(&q.round.0)));
                assert!(matches!(
                    report.feed_ledger.status_of(FeedKind::Bgp, Round(205)),
                    Some(FeedStatus::Stale(_))
                ));
                let geo = report.feed_health_of(FeedKind::Geo).expect("geo feed");
                assert_eq!(geo.retries, 2);
                let shards = report.shard.as_ref().expect("supervised");
                assert!(shards.total_retried() > 0 && shards.total_lost() > 0);
            }
        }
        output_bytes(&report, &dir)
    };
    let serial = run(1);
    if roster {
        let want: Vec<(String, u64, u32)> = ROSTER_MULTI_SHARD_BYTES
            .iter()
            .map(|&(name, len, crc)| (name.to_string(), len, crc))
            .collect();
        assert_eq!(pinned(&serial.1), want, "{tag}");
    }
    assert!(serial.1.iter().any(|(name, _)| name == JOURNAL_FILE));
    assert!(serial.1.iter().any(|(name, _)| name == SNAPSHOT_FILE));
    assert!(serial
        .1
        .iter()
        .any(|(name, _)| name == "export/ibr_signal.csv"));
    for threads in [2usize, 8] {
        assert!(
            run(threads) == serial,
            "{tag}: bytes differ at threads={threads}"
        );
        let campaign = multi_shard_campaign(threads, roster);
        let dir = fresh_dir(&format!("{tag}-kill{threads}"));
        let mut runner = campaign
            .runner_checkpointed(&dir, policy())
            .expect("checkpoint dir");
        for _ in 0..130 {
            assert!(runner.step_round().expect("step"));
        }
        drop(runner);
        let (report, diag) = campaign.resume_with(&dir, policy()).expect("resume");
        assert_eq!(diag.replayed_rounds, 130 - 84, "{tag}: {diag:?}");
        assert!(
            output_bytes(&report, &dir) == serial,
            "{tag}: resumed bytes differ at threads={threads}"
        );
    }
}

#[test]
fn thread_count_never_reaches_output_bytes() {
    // The sharded executor's worker count is pure mechanism: every block's
    // observation is derived from coordinate-addressed RNG and the shard
    // merge is a roster-ordered reduce, so the same campaign at 1, 2 and 8
    // threads — killed and resumed or not — writes byte-identical
    // checkpoints and datasets. One thread runs everything inline on the
    // calling thread, so this also pins parallel == serial. This campaign
    // measures through the implicit vantage.
    assert_thread_count_never_reaches_bytes(false);
}

#[test]
fn thread_count_never_reaches_fanned_out_surfaces() {
    // Same property with every measurement surface live at once: a
    // three-vantage roster (per-vantage fan-out shards, quorum fusion)
    // and the passive IBR signal both ride the shard executor, under feed
    // and shard faults, and none of their bytes may depend on how many
    // workers carried the round. The one-thread bytes are pinned too: a
    // look-ahead mistake every thread count shares still moves them.
    assert_thread_count_never_reaches_bytes(true);
}

#[test]
fn two_reports_render_identical_dataset_bytes() {
    let campaign = campaign();
    let report_a = campaign.run().expect("run a");
    let report_b = campaign.run().expect("run b");

    // CSV rendering is pure string assembly: any divergence here means
    // iteration order leaked into an emission boundary.
    let avail_a = availability_csv(&availability_rows(&report_a));
    let avail_b = availability_csv(&availability_rows(&report_b));
    assert_eq!(avail_a.into_bytes(), avail_b.into_bytes());
    let out_a = outage_csv(&outage_rows(&report_a));
    let out_b = outage_csv(&outage_rows(&report_b));
    assert_eq!(out_a.into_bytes(), out_b.into_bytes());
}

#[test]
fn single_vantage_roster_matches_the_legacy_pipeline() {
    // N=1 identity, end to end: a roster of one clean vantage with zero
    // path latency must reproduce the empty-roster (legacy) pipeline's
    // detection output and dataset bytes exactly — the quorum over one
    // vote degenerates to the single-vantage rule. Only the new ledger
    // sections may differ.
    let legacy = campaign().run().expect("legacy run");
    let mut cfg = CampaignConfig::without_baseline();
    cfg.tracked.clear();
    cfg.rtt_tracked.clear();
    cfg.vantages = vec![VantageSpec::new("solo")];
    let rostered = Campaign::new(world(23), cfg)
        .expect("valid config")
        .run()
        .expect("rostered run");

    assert_eq!(
        format!("{:?}", rostered.as_events),
        format!("{:?}", legacy.as_events)
    );
    assert_eq!(
        format!("{:?}", rostered.region_events),
        format!("{:?}", legacy.region_events)
    );
    assert_eq!(rostered.round_quality, legacy.round_quality);
    assert_eq!(
        availability_csv(&availability_rows(&rostered)).into_bytes(),
        availability_csv(&availability_rows(&legacy)).into_bytes()
    );
    assert_eq!(
        outage_csv(&outage_rows(&rostered)).into_bytes(),
        outage_csv(&outage_rows(&legacy)).into_bytes()
    );

    // The ledger is the only addition.
    assert!(legacy.vantages.is_empty());
    assert_eq!(rostered.vantages.len(), 1);
    assert_eq!(rostered.vantages[0].name, "solo");
    assert_eq!(rostered.vantages[0].usable_rounds(), ROUNDS as usize);
    assert_eq!(rostered.vantages[0].dissent_block_rounds, 0);

    // The disagreement CSV is emitted only for rostered reports, and its
    // bytes are stable across exports.
    let (dir_a, dir_b) = (fresh_dir("va"), fresh_dir("vb"));
    let exported = ukraine_fbs::core::dataset::export_all(&rostered, &dir_a).is_ok()
        && ukraine_fbs::core::dataset::export_all(&rostered, &dir_b).is_ok();
    if exported {
        let file = "vantage_disagreement.csv";
        let a = std::fs::read(dir_a.join(file)).expect(file);
        let b = std::fs::read(dir_b.join(file)).expect(file);
        assert_eq!(a, b, "{file} differs between two exports");
    }
    let _ = std::fs::remove_dir_all(&dir_a);
    let _ = std::fs::remove_dir_all(&dir_b);
}

#[test]
fn every_campaign_mode_checkpoints_as_version_7() {
    // One union layout whatever the roster, passive signal or shard plan:
    // the snapshot header and every journal record carry version 7.
    for tag in ["legacy", "roster", "passive", "shards", "all"] {
        let mut cfg = CampaignConfig::without_baseline();
        cfg.tracked.clear();
        cfg.rtt_tracked.clear();
        if matches!(tag, "roster" | "all") {
            cfg.vantages = vec![VantageSpec::new("solo")];
        }
        if matches!(tag, "passive" | "all") {
            cfg.ibr = Some(IbrConfig::default());
        }
        if matches!(tag, "shards" | "all") {
            cfg.shard_plan = Some(ShardFaultPlan::none());
        }
        let dir = fresh_dir(tag);
        Campaign::new(world(23), cfg)
            .expect("valid config")
            .run_checkpointed(&dir, policy())
            .expect(tag);
        let (version, _) = ukraine_fbs::journal::read_snapshot(dir.join(SNAPSHOT_FILE))
            .expect("readable snapshot")
            .expect("snapshot written");
        assert_eq!(version, 7, "{tag} snapshot");
        let (_, records, _) =
            ukraine_fbs::journal::Journal::open(dir.join(JOURNAL_FILE)).expect("journal");
        assert_eq!(records.len() as u32, ROUNDS);
        for record in &records {
            assert_eq!(record[..4], 7u32.to_le_bytes(), "{tag} journal record");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn passive_signal_rides_along_without_touching_active_bytes() {
    // Enabling IBR must be purely additive: the active detection output,
    // the quality ledger and the existing dataset bytes are identical to
    // an IBR-disabled run — the passive ledger is the only new section.
    // (The IBR RNG domain is disjoint from every active consumer; this is
    // the campaign-level pin of that property.)
    let legacy = campaign().run().expect("legacy run");
    let mut cfg = CampaignConfig::without_baseline();
    cfg.tracked.clear();
    cfg.rtt_tracked.clear();
    cfg.ibr = Some(IbrConfig::default());
    let passive = Campaign::new(world(23), cfg)
        .expect("valid config")
        .run()
        .expect("passive run");

    assert_eq!(
        format!("{:?}", passive.as_events),
        format!("{:?}", legacy.as_events)
    );
    assert_eq!(
        format!("{:?}", passive.region_events),
        format!("{:?}", legacy.region_events)
    );
    assert_eq!(passive.round_quality, legacy.round_quality);
    assert_eq!(
        availability_csv(&availability_rows(&passive)).into_bytes(),
        availability_csv(&availability_rows(&legacy)).into_bytes()
    );
    assert_eq!(
        outage_csv(&outage_rows(&passive)).into_bytes(),
        outage_csv(&outage_rows(&legacy)).into_bytes()
    );

    // The passive ledger is the only addition, and the quiet diurnal world
    // produces no passive events.
    assert!(legacy.ibr.is_empty());
    assert_eq!(passive.ibr.len(), 1);
    assert_eq!(passive.ibr[0].asn, Asn(200));
    assert_eq!(passive.ibr[0].volume.len(), ROUNDS as usize);
    assert_eq!(passive.total_ibr_outages(), 0);

    // The ibr_signal.csv export exists exactly when the signal is on, and
    // its bytes are stable across exports.
    let (dir_a, dir_b) = (fresh_dir("ia"), fresh_dir("ib"));
    let exported = ukraine_fbs::core::dataset::export_all(&passive, &dir_a).is_ok()
        && ukraine_fbs::core::dataset::export_all(&passive, &dir_b).is_ok();
    if exported {
        let file = "ibr_signal.csv";
        let a = std::fs::read(dir_a.join(file)).expect(file);
        let b = std::fs::read(dir_b.join(file)).expect(file);
        assert_eq!(a, b, "{file} differs between two exports");
    }
    let dir_l = fresh_dir("il");
    if ukraine_fbs::core::dataset::export_all(&legacy, &dir_l).is_ok() {
        assert!(
            !dir_l.join("ibr_signal.csv").exists(),
            "an IBR-disabled run must not emit the passive dataset"
        );
    }
    for d in [dir_a, dir_b, dir_l] {
        let _ = std::fs::remove_dir_all(&d);
    }
}

#[test]
fn two_exports_write_identical_files() {
    let campaign = campaign();
    let report = campaign.run().expect("run");
    let (dir_a, dir_b) = (fresh_dir("xa"), fresh_dir("xb"));
    // Offline stub builds cannot serialize the JSON halves; when export
    // succeeds (any real build), every emitted file must be byte-stable.
    let exported = ukraine_fbs::core::dataset::export_all(&report, &dir_a).is_ok()
        && ukraine_fbs::core::dataset::export_all(&report, &dir_b).is_ok();
    if exported {
        for file in [
            "block_availability.csv",
            "block_availability.json",
            "outages.csv",
            "outages.json",
        ] {
            let a = std::fs::read(dir_a.join(file)).expect(file);
            let b = std::fs::read(dir_b.join(file)).expect(file);
            assert_eq!(a, b, "{file} differs between two exports");
        }
    }
    let _ = std::fs::remove_dir_all(&dir_a);
    let _ = std::fs::remove_dir_all(&dir_b);
}

/// Length and CRC-32 of every file [`faulted_single_vantage_campaign_writes_pinned_bytes`]
/// writes: the journal, the last snapshot, then the exports in name order.
/// Recorded when an empty roster still ran a measurement path of its own,
/// so these pin that the implicit vantage journals, snapshots and exports
/// exactly what that path did.
const FAULTED_SINGLE_VANTAGE_BYTES: [(&str, u64, u32); 7] = [
    ("rounds.wal", 617_576, 0xbf65_f95a),
    ("state.snap", 857_266, 0x430c_947a),
    ("block_availability.csv", 1_006, 0x8382_d0d1),
    ("block_availability.json", 4_885, 0xf67e_e2de),
    ("ibr_signal.csv", 31_032, 0x73a1_b1b1),
    ("outages.csv", 340, 0x7d19_f844),
    ("outages.json", 812, 0xba1c_2960),
];

#[test]
fn faulted_single_vantage_campaign_writes_pinned_bytes() {
    // An empty-roster campaign under every fault family at once: wire
    // faults from the campaign-wide plan (baseline reply loss with latency
    // spikes, an ICMP-budget window and a blackout), a corrupted and then
    // a dark BGP feed, a dark darknet and a lost shard. The tiny Ukraine
    // scenario adds its own offline vantage rounds. The implicit vantage
    // must draw from the plain `"faults"` stream, journal the plan's own
    // verdict as the round quality, and leave no vantage ledger behind.
    let none = FaultIntensity::default();
    let feed_none = FeedFaultIntensity::default();
    for threads in [1usize, 2] {
        let mut cfg = CampaignConfig::default();
        cfg.threads = threads;
        cfg.fault_plan = Some(FaultPlan {
            baseline: FaultIntensity {
                reply_loss: 0.05,
                latency_spike: 0.1,
                latency_spike_ns: 60_000_000,
                ..none
            },
            windows: vec![
                FaultWindow::over_rounds(
                    "icmp-budget",
                    10..30,
                    FaultIntensity {
                        icmp_reply_budget: 40,
                        ..none
                    },
                ),
                FaultWindow::over_rounds(
                    "blackout",
                    100..110,
                    FaultIntensity {
                        reply_loss: 1.0,
                        ..none
                    },
                ),
            ],
        });
        cfg.feed_plan = Some(FeedFaultPlan {
            windows: vec![
                FeedFaultWindow::over_rounds(
                    "bgp-corrupt",
                    FeedKind::Bgp,
                    30..80,
                    FeedFaultIntensity {
                        corrupt_records: 0.1,
                        ..feed_none
                    },
                ),
                FeedFaultWindow::over_rounds(
                    "bgp-dark",
                    FeedKind::Bgp,
                    120..130,
                    FeedFaultIntensity {
                        drop: 1.0,
                        ..feed_none
                    },
                ),
            ],
        });
        cfg.ibr = Some(IbrConfig::with_dark_windows(vec![IbrDarkWindow {
            start: 110,
            end: 125,
        }]));
        cfg.shard_plan = Some(ShardFaultPlan {
            windows: vec![ShardFaultWindow::scripted(
                "lose-shard",
                70..80,
                vec![1],
                cfg.shard_retries + 1,
                ShardFaultKind::Panic,
            )],
        });
        let world = scenarios::ukraine_with_rounds(WorldScale::Tiny, 42, ROUNDS)
            .into_world()
            .expect("tiny world");
        let dir = fresh_dir(&format!("pin{threads}"));
        let report = Campaign::new(world, cfg)
            .expect("valid config")
            .run_checkpointed(&dir, policy())
            .expect("checkpointed run");
        assert!(report.vantages.is_empty(), "threads={threads}");
        let exports = dir.join("export");
        ukraine_fbs::core::dataset::export_all(&report, &exports).expect("export");
        assert!(!exports.join("vantage_disagreement.csv").exists());
        let pin = |path: std::path::PathBuf| {
            let bytes = std::fs::read(&path).expect("pinned file");
            let name = path.file_name().expect("name").to_string_lossy();
            (
                name.into_owned(),
                bytes.len() as u64,
                journal::crc32(&bytes),
            )
        };
        let mut exported: Vec<_> = std::fs::read_dir(&exports)
            .expect("export dir")
            .map(|entry| pin(entry.expect("export entry").path()))
            .collect();
        exported.sort();
        let got: Vec<_> = [JOURNAL_FILE, SNAPSHOT_FILE]
            .into_iter()
            .map(|file| pin(dir.join(file)))
            .chain(exported)
            .collect();
        let _ = std::fs::remove_dir_all(&dir);
        let want: Vec<(String, u64, u32)> = FAULTED_SINGLE_VANTAGE_BYTES
            .iter()
            .map(|&(name, len, crc)| (name.to_string(), len, crc))
            .collect();
        assert_eq!(got, want, "threads={threads}");
    }
}

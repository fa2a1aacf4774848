//! Crash/resume determinism of checkpointed campaigns.
//!
//! The contract under test, from the crash-safety work: a campaign killed
//! at *any* round boundary and resumed from its checkpoint directory must
//! produce a report **bit-identical** to an uninterrupted run — including
//! under the chaos-matrix fault plan, whose injected loss exercises the
//! fault-RNG recomputation path during journal replay. Damage to the
//! checkpoint files must degrade recovery, never correctness: a corrupt
//! journal tail is truncated and the lost rounds rescanned, a corrupt
//! snapshot is quarantined and the journal replayed from round zero.

use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use ukraine_fbs::core::checkpoint::{JOURNAL_FILE, SNAPSHOT_FILE};
use ukraine_fbs::core::CheckpointPolicy;
use ukraine_fbs::journal::{write_snapshot, Journal};
use ukraine_fbs::netsim::{
    AsProfile, AsSpec, BlockSpec, EventKind, EventTarget, FaultIntensity, FaultPlan, FaultWindow,
    IbrConfig, IbrDarkWindow, Script, ScriptedEvent, VantageSpec, World, WorldConfig, WorldScale,
};
use ukraine_fbs::prelude::*;
use ukraine_fbs::types::{FbsError, Oblast, Prefix};

const ROUNDS: u32 = 600; // 50 days at 12 rounds/day

/// The quiet one-AS world of the chaos matrix: the only sources of events
/// are scripted outages and injected faults.
fn world(seed: u64, events: Vec<ScriptedEvent>) -> World {
    let asn = Asn(100);
    let blocks: Vec<BlockSpec> = (0..8u8)
        .map(|c| BlockSpec {
            block: BlockId::from_octets(10, 0, c),
            owner: asn,
            home: Oblast::Kherson,
            base_responders: 120,
            geo_population: 220,
            response_prob: 0.9,
            diurnal: false,
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
            name: "resume-test".into(),
            profile: AsProfile::Regional,
            hq: Some(Oblast::Kherson),
            prefixes: blocks.iter().map(|b| Prefix::from_block(b.block)).collect(),
            base_rtt_ns: 40_000_000,
            upstream: Asn(1),
        }],
        blocks,
    };
    let mut script = Script::new();
    for e in events {
        script.push(e);
    }
    World::new(config, script, vec![]).expect("valid config")
}

/// The chaos-matrix fault mix: 20% reply loss plus duplication and
/// reordering over rounds 100..500.
fn chaos_plan() -> FaultPlan {
    FaultPlan {
        baseline: FaultIntensity::default(),
        windows: vec![FaultWindow::over_rounds(
            "chaos-matrix",
            100..500,
            FaultIntensity {
                reply_loss: 0.20,
                duplicate: 0.15,
                reorder: 0.20,
                reorder_jitter_ns: 5_000_000,
                ..FaultIntensity::default()
            },
        )],
    }
}

fn chaos_campaign() -> Campaign {
    let outage = ScriptedEvent {
        name: "scripted-outage".into(),
        target: EventTarget::As(Asn(100)),
        kind: EventKind::BgpOutage,
        start: Round(360).start(),
        end: Some(Round(396).start()),
    };
    let mut cfg = CampaignConfig::without_baseline();
    cfg.tracked.clear();
    cfg.rtt_tracked.clear();
    cfg.fault_plan = Some(chaos_plan());
    Campaign::new(world(11, vec![outage]), cfg).expect("valid config")
}

/// The chaos campaign scanned from three vantage points: one clean, one
/// behind the chaos-matrix fault mix with extra path latency, one blacked
/// out entirely mid-campaign. Exercises the per-vantage journal sections,
/// per-vantage fault-RNG recomputation on replay, and the quorum-fusion
/// recompute in `apply_round`.
fn multi_vantage_campaign() -> Campaign {
    let outage = ScriptedEvent {
        name: "scripted-outage".into(),
        target: EventTarget::As(Asn(100)),
        kind: EventKind::BgpOutage,
        start: Round(360).start(),
        end: Some(Round(396).start()),
    };
    let blackout = FaultPlan {
        baseline: FaultIntensity::default(),
        windows: vec![FaultWindow::over_rounds(
            "vantage-dark",
            200..440,
            FaultIntensity {
                reply_loss: 1.0,
                ..FaultIntensity::default()
            },
        )],
    };
    let mut cfg = CampaignConfig::without_baseline();
    cfg.tracked.clear();
    cfg.rtt_tracked.clear();
    cfg.vantages = vec![
        VantageSpec::new("kyiv"),
        VantageSpec {
            path_rtt_ns: 12_000_000,
            fault_plan: Some(chaos_plan()),
            ..VantageSpec::new("warsaw")
        },
        VantageSpec {
            fault_plan: Some(blackout),
            ..VantageSpec::new("frankfurt")
        },
    ];
    Campaign::new(world(11, vec![outage]), cfg).expect("valid config")
}

/// The multi-vantage campaign with the passive background-radiation
/// signal riding along. A darknet-dark window sits well before the
/// scripted outage so journal replay covers dark records, frozen-predictor
/// state and an open passive outage.
fn ibr_campaign() -> Campaign {
    let outage = ScriptedEvent {
        name: "scripted-outage".into(),
        target: EventTarget::As(Asn(100)),
        kind: EventKind::BgpOutage,
        start: Round(360).start(),
        end: Some(Round(396).start()),
    };
    let mut cfg = CampaignConfig::without_baseline();
    cfg.tracked.clear();
    cfg.rtt_tracked.clear();
    cfg.vantages = vec![
        VantageSpec::new("kyiv"),
        VantageSpec {
            path_rtt_ns: 12_000_000,
            fault_plan: Some(chaos_plan()),
            ..VantageSpec::new("warsaw")
        },
    ];
    cfg.ibr = Some(IbrConfig::with_dark_windows(vec![IbrDarkWindow {
        start: 150,
        end: 186,
    }]));
    Campaign::new(world(11, vec![outage]), cfg).expect("valid config")
}

/// A unique scratch checkpoint directory per call (tests run in parallel).
fn fresh_dir(tag: &str) -> std::path::PathBuf {
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let n = COUNTER.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!("fbs-resume-{tag}-{}-{n}", std::process::id()))
}

/// Snapshot weekly, skip per-round fsync: the tests simulate the kill by
/// abandoning the runner, so durability-vs-throughput is not under test.
fn policy() -> CheckpointPolicy {
    CheckpointPolicy {
        snapshot_every: 84,
        fsync: false,
    }
}

/// Runs a checkpointed campaign for exactly `kill_at` rounds, then drops
/// the runner without finishing — the crash.
fn run_and_kill(campaign: &Campaign, dir: &std::path::Path, kill_at: u32) {
    let mut runner = campaign
        .runner_checkpointed(dir, policy())
        .expect("checkpoint dir");
    for _ in 0..kill_at {
        assert!(runner.step_round().expect("step"), "killed past the end");
    }
    assert_eq!(runner.completed_rounds(), kill_at);
}

/// Flips one bit at `offset` bytes from the end of `path`.
fn flip_bit_near_end(path: &std::path::Path, offset_from_end: u64) {
    use std::io::{Read, Seek, SeekFrom, Write};
    let mut f = std::fs::OpenOptions::new()
        .read(true)
        .write(true)
        .open(path)
        .expect("open for corruption");
    let len = f.metadata().unwrap().len();
    let pos = len.checked_sub(offset_from_end).expect("file long enough");
    f.seek(SeekFrom::Start(pos)).unwrap();
    let mut byte = [0u8];
    f.read_exact(&mut byte).unwrap();
    byte[0] ^= 0x40;
    f.seek(SeekFrom::Start(pos)).unwrap();
    f.write_all(&byte).unwrap();
}

#[test]
fn resume_determinism() {
    let campaign = chaos_campaign();
    let baseline = format!("{:?}", campaign.run().expect("uninterrupted run"));

    // Kill before the first snapshot (journal-only resume), mid-campaign
    // (snapshot at 168 + 82 rounds of replay), and one round short of the
    // end (everything replayed or restored, a single live round left).
    for kill_at in [47u32, 250, 599] {
        let dir = fresh_dir("kill");
        run_and_kill(&campaign, &dir, kill_at);

        let (resumed, diag) = campaign
            .resume_with(&dir, policy())
            .expect("resume after kill");
        assert_eq!(
            format!("{resumed:?}"),
            baseline,
            "resumed report diverges after kill at round {kill_at}"
        );

        // The journal was intact, so recovery was clean and replay covered
        // exactly the rounds past the last snapshot.
        assert!(diag.journal.was_clean(), "kill at {kill_at}: {diag:?}");
        assert_eq!(diag.journal.records, kill_at as u64);
        let snapshot_rounds = kill_at - kill_at % 84;
        assert_eq!(diag.snapshot_loaded, snapshot_rounds > 0);
        assert_eq!(diag.replayed_rounds, kill_at - snapshot_rounds);
        assert_eq!(diag.healed_rounds, 0);
        assert!(diag.snapshot_quarantined.is_none());

        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn resume_of_a_finished_campaign_just_reassembles_the_report() {
    let campaign = chaos_campaign();
    let dir = fresh_dir("finished");
    let direct = campaign
        .run_checkpointed(&dir, policy())
        .expect("checkpointed run");
    let (resumed, diag) = campaign.resume_with(&dir, policy()).expect("resume");
    assert_eq!(format!("{resumed:?}"), format!("{direct:?}"));
    assert_eq!(diag.journal.records, ROUNDS as u64);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn corrupt_journal_tail_is_truncated_and_rescanned() {
    let campaign = chaos_campaign();
    let baseline = format!("{:?}", campaign.run().expect("uninterrupted run"));

    let dir = fresh_dir("tail");
    run_and_kill(&campaign, &dir, 300);
    // Damage the last journal record (a torn or bit-rotted tail). The last
    // snapshot is at round 252, so the valid prefix still covers it.
    flip_bit_near_end(&dir.join(JOURNAL_FILE), 3);

    let (resumed, diag) = campaign
        .resume_with(&dir, policy())
        .expect("resume over corrupt tail");
    assert_eq!(
        format!("{resumed:?}"),
        baseline,
        "corrupt journal tail changed the report"
    );
    assert!(!diag.journal.was_clean(), "{diag:?}");
    assert!(diag.journal.dropped_bytes > 0);
    assert_eq!(diag.journal.records, 299, "exactly the damaged record lost");
    assert!(diag.snapshot_loaded);
    assert_eq!(diag.replayed_rounds, 299 - 252);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn corrupt_snapshot_is_quarantined_and_journal_replays_from_zero() {
    let campaign = chaos_campaign();
    let baseline = format!("{:?}", campaign.run().expect("uninterrupted run"));

    let dir = fresh_dir("snap");
    run_and_kill(&campaign, &dir, 300);
    // Damage the snapshot payload: its CRC check must fail on open.
    flip_bit_near_end(&dir.join(SNAPSHOT_FILE), 5);

    let (resumed, diag) = campaign
        .resume_with(&dir, policy())
        .expect("resume over corrupt snapshot");
    assert_eq!(
        format!("{resumed:?}"),
        baseline,
        "corrupt snapshot changed the report"
    );
    // The snapshot was moved aside, not deleted, and the full journal
    // rebuilt the state from round zero.
    let quarantined = diag
        .snapshot_quarantined
        .as_ref()
        .expect("snapshot quarantined");
    assert!(quarantined.exists(), "quarantine file kept for inspection");
    assert!(!diag.snapshot_loaded);
    assert!(diag.journal.was_clean());
    assert_eq!(diag.replayed_rounds, 300, "journal replayed from round 0");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn multi_vantage_resume_is_byte_identical() {
    let campaign = multi_vantage_campaign();
    let baseline = campaign.run().expect("uninterrupted run");
    assert_eq!(baseline.vantages.len(), 3, "the roster must be ledgered");
    let baseline = format!("{baseline:?}");

    // Kill points chosen as in `resume_determinism`: journal-only resume,
    // snapshot + replay (inside the frankfurt blackout, so masked vantage
    // records replay too), and one round short of the end.
    for kill_at in [47u32, 250, 599] {
        let dir = fresh_dir("vantage");
        run_and_kill(&campaign, &dir, kill_at);

        let (resumed, diag) = campaign
            .resume_with(&dir, policy())
            .expect("resume after kill");
        assert_eq!(
            format!("{resumed:?}"),
            baseline,
            "multi-vantage resumed report diverges after kill at round {kill_at}"
        );
        assert!(diag.journal.was_clean(), "kill at {kill_at}: {diag:?}");
        assert_eq!(diag.journal.records, kill_at as u64);
        assert_eq!(diag.healed_rounds, 0);

        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn multi_vantage_checkpoints_are_byte_stable() {
    // Two independent checkpointed runs of the 3-vantage campaign write
    // byte-identical snapshot + journal files.
    let campaign = multi_vantage_campaign();
    let (dir_a, dir_b) = (fresh_dir("mva"), fresh_dir("mvb"));
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

#[test]
fn multi_vantage_corrupt_journal_tail_is_truncated_and_rescanned() {
    // The crash-recovery ladder holds for multi-vantage records too: a
    // damaged tail record is dropped and the round re-measured per vantage.
    let campaign = multi_vantage_campaign();
    let baseline = format!("{:?}", campaign.run().expect("uninterrupted run"));

    let dir = fresh_dir("vtail");
    run_and_kill(&campaign, &dir, 300);
    flip_bit_near_end(&dir.join(JOURNAL_FILE), 3);

    let (resumed, diag) = campaign
        .resume_with(&dir, policy())
        .expect("resume over corrupt tail");
    assert_eq!(
        format!("{resumed:?}"),
        baseline,
        "corrupt multi-vantage journal tail changed the report"
    );
    assert!(!diag.journal.was_clean(), "{diag:?}");
    assert_eq!(diag.journal.records, 299, "exactly the damaged record lost");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn journal_behind_snapshot_is_healed_by_rescanning() {
    let campaign = chaos_campaign();
    let baseline = format!("{:?}", campaign.run().expect("uninterrupted run"));

    let dir = fresh_dir("heal");
    run_and_kill(&campaign, &dir, 252); // snapshot exactly at the kill point
                                        // Truncate the journal well behind the snapshot — as if the journal's
                                        // tail sectors were lost while the snapshot survived.
    let wal = dir.join(JOURNAL_FILE);
    let len = std::fs::metadata(&wal).unwrap().len();
    let f = std::fs::OpenOptions::new().write(true).open(&wal).unwrap();
    f.set_len(len * 2 / 3).unwrap();
    drop(f);

    let (resumed, diag) = campaign
        .resume_with(&dir, policy())
        .expect("resume with lagging journal");
    assert_eq!(
        format!("{resumed:?}"),
        baseline,
        "healed journal changed the report"
    );
    assert!(diag.snapshot_loaded);
    assert_eq!(diag.replayed_rounds, 0, "the snapshot was ahead");
    assert!(diag.healed_rounds > 0, "missing records re-measured");
    assert_eq!(
        diag.journal.records + diag.healed_rounds as u64,
        252,
        "journal healed exactly up to the snapshot"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// Where a snapshot write assembles the file before renaming it into
/// place.
fn snapshot_tmp(dir: &Path) -> std::path::PathBuf {
    dir.join(format!("{SNAPSHOT_FILE}.tmp"))
}

#[test]
fn crash_mid_snapshot_write_falls_back_to_the_previous_snapshot() {
    let campaign = chaos_campaign();
    let baseline = format!("{:?}", campaign.run().expect("uninterrupted run"));

    let dir = fresh_dir("midwrite");
    run_and_kill(&campaign, &dir, 300);
    // The crash tore the next snapshot's write: a truncated temp file of
    // garbage sits next to the round-252 snapshot.
    let snapshot = std::fs::read(dir.join(SNAPSHOT_FILE)).expect("round-252 snapshot");
    let torn = [&snapshot[..snapshot.len() / 3], b"\xde\xad garbage"].concat();
    std::fs::write(snapshot_tmp(&dir), torn).expect("plant the torn write");

    let (resumed, diag) = campaign
        .resume_with(&dir, policy())
        .expect("resume after a torn snapshot write");
    assert_eq!(
        format!("{resumed:?}"),
        baseline,
        "a torn snapshot write changed the report"
    );
    assert!(diag.snapshot_loaded, "{diag:?}");
    assert!(diag.snapshot_quarantined.is_none(), "{diag:?}");
    assert_eq!(diag.replayed_rounds, 300 - 252);
    assert!(!snapshot_tmp(&dir).exists(), "a temp file outlived finish");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Steps a checkpointed run whose snapshot temp path is blocked by a
/// directory until the first error, which must name the snapshot; returns
/// the rounds completed when it came (`None` if `finish` returned it).
fn first_snapshot_error(campaign: &Campaign, dir: &Path, policy: CheckpointPolicy) -> Option<u32> {
    let mut runner = campaign
        .runner_checkpointed(dir, policy)
        .expect("checkpoint dir");
    std::fs::create_dir(snapshot_tmp(dir)).expect("block the temp path");
    let (at, err) = loop {
        match runner.step_round() {
            Ok(true) => {}
            Ok(false) => {
                let finished = runner.finish();
                break (
                    None,
                    finished.expect_err("a blocked snapshot write was lost"),
                );
            }
            Err(err) => break (Some(runner.completed_rounds()), err),
        }
    };
    assert!(matches!(err, FbsError::Io { .. }), "{err}");
    let snapshot = dir.join(SNAPSHOT_FILE).display().to_string();
    assert!(err.to_string().contains(&snapshot), "{err}");
    at
}

#[test]
fn a_failed_snapshot_write_surfaces_at_the_next_boundary_or_finish() {
    let campaign = chaos_campaign();
    let baseline = format!("{:?}", campaign.run().expect("uninterrupted run"));

    // Snapshot 84's write fails on the writer thread: the round that
    // handed it off returned `Ok`, and the next boundary reports it.
    let next = fresh_dir("blocked-next");
    assert_eq!(first_snapshot_error(&campaign, &next, policy()), Some(168));
    // With no later boundary, `finish` reports it.
    let last = fresh_dir("blocked-last");
    let once = CheckpointPolicy {
        snapshot_every: 588,
        ..policy()
    };
    assert_eq!(first_snapshot_error(&campaign, &last, once), None);

    // The journal covers every round the failed runs completed.
    for (dir, journaled) in [(&next, 168u32), (&last, ROUNDS)] {
        std::fs::remove_dir(snapshot_tmp(dir)).expect("remove the blocker");
        let (resumed, diag) = campaign
            .resume_with(dir, policy())
            .expect("resume after a failed snapshot write");
        assert_eq!(
            format!("{resumed:?}"),
            baseline,
            "a failed snapshot write changed the report"
        );
        assert!(!diag.snapshot_loaded, "{diag:?}");
        assert_eq!(diag.replayed_rounds, journaled);
        let _ = std::fs::remove_dir_all(dir);
    }
}

/// The payloads of the intact journal at `path`.
fn read_journal(path: &Path) -> Vec<Vec<u8>> {
    let (_, records, recovery) = Journal::open(path).expect("readable journal");
    assert!(recovery.was_clean(), "{recovery:?}");
    records
}

/// Rewrites the journal at `path` through the journal API, so every frame
/// carries a valid CRC: the damage under test is logical, not physical.
fn write_journal(path: &Path, records: &[Vec<u8>]) {
    let mut journal = Journal::create(path).expect("recreate journal");
    for record in records {
        journal.append(record).expect("append");
    }
    journal.sync().expect("sync");
}

/// Sets the round field of a record (after the u32 version tag).
fn set_round(record: &mut [u8], round: u32) {
    record[4..8].copy_from_slice(&round.to_le_bytes());
}

/// Resuming `dir` must fail with `CorruptJournal` naming `recovered`
/// records and `reason`, and must leave `state.snap` where it was.
fn assert_resume_rejects(campaign: &Campaign, dir: &Path, recovered: u64, reason: &str) {
    let err = match campaign.runner_resumed(dir, policy()) {
        Ok(_) => panic!("resume accepted a corrupt journal ({reason})"),
        Err(err) => err,
    };
    match &err {
        FbsError::CorruptJournal {
            reason: got,
            recovered_records,
        } => {
            assert_eq!(*recovered_records, recovered, "{err}");
            assert!(got.contains(reason), "{err}");
        }
        other => panic!("expected a corrupt journal, got: {other}"),
    }
    assert!(dir.join(SNAPSHOT_FILE).exists(), "snapshot moved: {err}");
    assert!(
        !dir.join(format!("{SNAPSHOT_FILE}.quarantined")).exists(),
        "snapshot quarantined: {err}"
    );
}

#[test]
fn resume_validates_every_journal_record() {
    // Records before the snapshot cursor are never replayed, but resume
    // still decodes and contiguity-checks every one, and counts them all.
    let campaign = chaos_campaign();
    let baseline = format!("{:?}", campaign.run().expect("uninterrupted run"));
    let dir = fresh_dir("validate");
    run_and_kill(&campaign, &dir, 250); // last snapshot at round 168
    let wal = dir.join(JOURNAL_FILE);
    let pristine = read_journal(&wal);

    // Record 100 does not decode: its `online` bool byte reads 2.
    let mut records = pristine.clone();
    records[100][8] = 2;
    write_journal(&wal, &records);
    assert_resume_rejects(&campaign, &dir, 100, "record 100 undecodable");

    // Record 120 describes round 121.
    let mut records = pristine.clone();
    set_round(&mut records[120], 121);
    write_journal(&wal, &records);
    assert_resume_rejects(&campaign, &dir, 120, "record 120 describes round 121");

    // A CRC-valid snapshot that does not decode is quarantined only once
    // the journal has validated: over the bad journal it stays in place…
    write_snapshot(dir.join(SNAPSHOT_FILE), 2, b"not a pipeline state").expect("snapshot");
    assert_resume_rejects(&campaign, &dir, 120, "record 120 describes round 121");
    // …and over the intact one it is moved aside and the journal replays
    // from round zero.
    write_journal(&wal, &pristine);
    let (resumed, diag) = campaign.resume_with(&dir, policy()).expect("resume");
    assert_eq!(format!("{resumed:?}"), baseline);
    assert!(!diag.snapshot_loaded);
    assert!(diag.snapshot_quarantined.is_some(), "{diag:?}");
    assert_eq!(diag.replayed_rounds, 250);
    let _ = std::fs::remove_dir_all(&dir);

    // A journal with more records than the campaign has rounds, each
    // record decodable and contiguous.
    let dir = fresh_dir("overlong");
    campaign
        .run_checkpointed(&dir, policy())
        .expect("checkpointed run");
    let wal = dir.join(JOURNAL_FILE);
    let mut records = read_journal(&wal);
    let mut extra = records.last().expect("a finished journal").clone();
    set_round(&mut extra, ROUNDS);
    records.push(extra);
    write_journal(&wal, &records);
    assert_resume_rejects(
        &campaign,
        &dir,
        ROUNDS as u64 + 1,
        "journal holds 601 records for a 600-round campaign",
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn ibr_resume_is_byte_identical() {
    // The passive signal through the whole crash ladder: kill before the
    // first snapshot, mid-campaign (replay crosses the darknet-dark window,
    // so frozen predictors restore bit-for-bit), mid-outage (an *open*
    // passive event lives in the snapshot), and one round short of the end.
    let campaign = ibr_campaign();
    let baseline = campaign.run().expect("uninterrupted run");
    assert_eq!(baseline.ibr.len(), 1, "the passive ledger must be present");
    assert!(
        baseline.total_ibr_outages() >= 1,
        "the scripted outage must register passively"
    );
    let baseline = format!("{baseline:?}");

    for kill_at in [47u32, 250, 380, 599] {
        let dir = fresh_dir("ibr");
        run_and_kill(&campaign, &dir, kill_at);

        let (resumed, diag) = campaign
            .resume_with(&dir, policy())
            .expect("resume after kill");
        assert_eq!(
            format!("{resumed:?}"),
            baseline,
            "ibr resumed report diverges after kill at round {kill_at}"
        );
        assert!(diag.journal.was_clean(), "kill at {kill_at}: {diag:?}");
        assert_eq!(diag.journal.records, kill_at as u64);
        assert_eq!(diag.healed_rounds, 0);

        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn ibr_checkpoints_are_byte_stable() {
    // Two independent checkpointed runs of the passive-signal campaign
    // write byte-identical snapshot + journal files.
    let campaign = ibr_campaign();
    let (dir_a, dir_b) = (fresh_dir("ibra"), fresh_dir("ibrb"));
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

#[test]
fn ibr_corrupt_journal_tail_is_truncated_and_rescanned() {
    // The crash-recovery ladder holds for passive-signal records too: a
    // damaged tail record is dropped and the round re-measured, darknet
    // included.
    let campaign = ibr_campaign();
    let baseline = format!("{:?}", campaign.run().expect("uninterrupted run"));

    let dir = fresh_dir("ibrtail");
    run_and_kill(&campaign, &dir, 300);
    flip_bit_near_end(&dir.join(JOURNAL_FILE), 3);

    let (resumed, diag) = campaign
        .resume_with(&dir, policy())
        .expect("resume over corrupt tail");
    assert_eq!(
        format!("{resumed:?}"),
        baseline,
        "corrupt passive-signal journal tail changed the report"
    );
    assert!(!diag.journal.was_clean(), "{diag:?}");
    assert_eq!(diag.journal.records, 299, "exactly the damaged record lost");
    let _ = std::fs::remove_dir_all(&dir);
}

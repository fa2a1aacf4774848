//! Lower-layer kernels, timed after the traced run on that run's own
//! world, rounds, report and checkpoint bytes.
//!
//! Every kernel is timed on every workload. Where a layer is off the
//! workload's campaign path (feeds on paper-roster, the journal on the
//! in-memory workloads, the darknet on the small ones) the kernel still
//! runs on the workload's own inputs, and the layer's campaign-path
//! counters, reported by the run itself, read 0.

use crate::calib::Calib;
use crate::out::{median, Obj};
use crate::trace::Tracer;
use crate::workload::{build_world, Workload, SNAPSHOT_EVERY};
use fbs_core::{Campaign, CampaignConfig, CampaignReport, CheckpointPolicy};
use fbs_journal::{crc32, read_snapshot, write_snapshot, Journal};
use fbs_netsim::{feedfaults, ibr, IbrConfig, World, WorldScale};
use fbs_signals::{fuse_block, BlockVote, Detector, EntityRound, SeasonalPredictor, SignalQuality};
use fbs_trinocular::{assess_block, BlockBelief};
use fbs_types::{Round, RoundQuality};
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

/// What the traced run hands over to the kernels.
pub struct RunInputs<'a> {
    pub workload: Workload,
    pub scale: WorldScale,
    pub seed: u64,
    pub campaign: &'a Campaign,
    pub report: &'a CampaignReport,
    /// `step_round` latencies of the traced run, by round, and the
    /// reference-kernel sample taken after each.
    pub lat_ns: &'a [u64],
    pub ref_ns: &'a [u64],
    /// A checkpoint directory of this workload holding a journal and a
    /// snapshot: the crashed run's on the durable workload.
    pub checkpoint: Option<&'a Path>,
    pub work: &'a Path,
}

/// Median over `reps` runs of `f`, in seconds per run.
fn time_reps(reps: usize, mut f: impl FnMut()) -> f64 {
    let samples: Vec<f64> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64()
        })
        .collect();
    median(&samples)
}

/// `n` rounds spread evenly over the campaign.
fn sample_rounds(rounds: u32, n: u32) -> Vec<Round> {
    let n = n.min(rounds).max(1);
    (0..n).map(|i| Round(i * rounds / n)).collect()
}

pub fn time_kernels(inp: &RunInputs<'_>, o: &mut Obj) -> Result<(), String> {
    let world = inp.campaign.world();
    let cfg = inp.campaign.config();
    let n_blocks = world.blocks().len();
    let rounds = world.rounds();
    let sampled = sample_rounds(rounds, 12);
    let calls = (sampled.len() * n_blocks) as f64;

    // netsim: the oracle and the darknet over the workload's own rounds.
    let truth_s = time_reps(3, || {
        for &r in &sampled {
            for bi in 0..n_blocks {
                black_box(world.block_truth(r, bi));
            }
        }
    });
    o.num("netsim.block_truth_ns", truth_s * 1e9 / calls);
    let ibr_cfg = cfg.ibr.clone().unwrap_or_default();
    let ibr_rng = ibr::ibr_domain(world.rng());
    let ibr_s = time_reps(3, || {
        for &r in &sampled {
            for bi in 0..n_blocks {
                black_box(ibr::block_volume(world, &ibr_cfg, &ibr_rng, r, bi));
            }
        }
    });
    o.num("netsim.ibr_volume_ns", ibr_s * 1e9 / calls);

    fusion_kernel(world, cfg, &sampled, o);
    predictor_kernel(inp.report, world, &ibr_cfg, o);
    detector_kernel(inp.report, cfg, o);
    trinocular_kernel(world, cfg, o);
    feed_kernels(world, cfg, o);
    shard_kernel(inp, o)?;
    journal_kernels(inp, o)?;
    Ok(())
}

/// Quorum fusion of one block's votes, one vote per roster entry, built
/// from the oracle truth the vantages measure on a clean path.
fn fusion_kernel(world: &World, cfg: &CampaignConfig, sampled: &[Round], o: &mut Obj) {
    let path_rtts: Vec<u64> = if cfg.vantages.is_empty() {
        vec![0]
    } else {
        cfg.vantages.iter().map(|v| v.path_rtt_ns).collect()
    };
    let n_blocks = world.blocks().len();
    let ballots: Vec<Vec<BlockVote>> = sampled
        .iter()
        .flat_map(|&r| (0..n_blocks).map(move |bi| (r, bi)))
        .map(|(r, bi)| {
            let truth = world.block_truth(r, bi);
            path_rtts
                .iter()
                .map(|p| BlockVote {
                    responsive: truth.responsive,
                    rtt_ns: truth.rtt_ns.saturating_add(*p),
                })
                .collect()
        })
        .collect();
    let s = time_reps(5, || {
        for votes in &ballots {
            black_box(fuse_block(votes));
        }
    });
    o.num("signals.fuse_block_ns", s * 1e9 / ballots.len() as f64);
}

/// The seasonal IBR predictor over per-AS darknet volumes: the run's own
/// ledgers when the darknet is on, else the same volumes summed from the
/// world over the warm-up week and one more.
fn predictor_kernel(report: &CampaignReport, world: &World, ibr_cfg: &IbrConfig, o: &mut Obj) {
    let series: Vec<Vec<u64>> = if report.ibr.is_empty() {
        let window = world.rounds().min(2 * SeasonalPredictor::DEFAULT_WARMUP);
        let rng = ibr::ibr_domain(world.rng());
        let mut per_as: std::collections::BTreeMap<fbs_types::Asn, Vec<u64>> = Default::default();
        for r in 0..window {
            for (bi, b) in world.blocks().iter().enumerate() {
                let v = per_as
                    .entry(b.owner)
                    .or_insert_with(|| vec![0; window as usize]);
                v[r as usize] += ibr::block_volume(world, ibr_cfg, &rng, Round(r), bi);
            }
        }
        per_as.into_values().collect()
    } else {
        report.ibr.iter().map(|l| l.volume.clone()).collect()
    };
    let calls: usize = series.iter().map(Vec::len).sum();
    let s = time_reps(3, || {
        for volumes in &series {
            let mut p = SeasonalPredictor::new();
            for (r, v) in volumes.iter().enumerate() {
                black_box(p.observe(Round(r as u32), *v));
            }
        }
    });
    o.num("signals.ibr_observe_ns", s * 1e9 / calls.max(1) as f64);
}

/// The moving-average detector over the run's tracked series (the
/// default tracked entities: Status and its blocks).
fn detector_kernel(report: &CampaignReport, cfg: &CampaignConfig, o: &mut Obj) {
    let inputs: Vec<(fbs_signals::EntityId, Vec<EntityRound>)> = report
        .tracked
        .iter()
        .map(|(entity, s)| {
            let rows = (0..s.fbs.len())
                .map(|i| EntityRound {
                    bgp: s.bgp.values[i],
                    fbs: s.fbs.values[i],
                    ips: s.ips.values[i],
                })
                .collect();
            (*entity, rows)
        })
        .collect();
    let calls: usize = inputs.iter().map(|(_, rows)| rows.len()).sum();
    let s = time_reps(5, || {
        for (entity, rows) in &inputs {
            let mut d = Detector::new(*entity, cfg.thresholds_as);
            for (r, input) in rows.iter().enumerate() {
                black_box(d.observe_feeds(
                    Round(r as u32),
                    *input,
                    RoundQuality::Ok,
                    SignalQuality::FRESH,
                ));
            }
        }
    });
    o.num("signals.detector_observe_ns", s * 1e9 / calls.max(1) as f64);
}

/// Trinocular's adaptive probing round per block, with the pipeline's
/// availability and probe model, over a day of consecutive rounds.
fn trinocular_kernel(world: &World, cfg: &CampaignConfig, o: &mut Obj) {
    let n_blocks = world.blocks().len();
    let start = world.rounds() / 2;
    let end = (start + 12).min(world.rounds());
    let avail: Vec<f64> = (0..n_blocks)
        .map(|bi| world.trin_availability(Round(start), bi))
        .collect();
    let rng = world.rng();
    let s = time_reps(3, || {
        let mut beliefs = vec![BlockBelief::new(); n_blocks];
        for r in start..end {
            for bi in 0..n_blocks {
                let stale = 0.2 + 0.8 * rng.uniform3(r as u64, bi as u64, 777);
                let p_probe = world.trin_availability(Round(r), bi) * stale;
                let out = assess_block(beliefs[bi], avail[bi], &cfg.trinocular, |probe| {
                    rng.chance3(p_probe, r as u64, bi as u64, 5000 + probe as u64)
                });
                beliefs[bi] = out.belief;
            }
        }
        black_box(&beliefs);
    });
    o.num(
        "trinocular.assess_block_ns",
        s * 1e9 / ((end - start) as usize * n_blocks).max(1) as f64,
    );
}

/// Rendering and ingesting the workload's real BGP dumps: pairs of
/// consecutive rounds, so the share of rounds repeating the previous
/// round's dump can be read off the same renders.
fn feed_kernels(world: &World, cfg: &CampaignConfig, o: &mut Obj) {
    let pairs = sample_rounds(world.rounds().saturating_sub(1).max(1), 48);
    let mut render = Vec::new();
    let mut unchanged = 0usize;
    let mut dumps = Vec::new();
    for &r in &pairs {
        let prev = feedfaults::bgp_dump_text(world, r);
        let t = Instant::now();
        let next = feedfaults::bgp_dump_text(world, Round(r.0 + 1));
        render.push(t.elapsed().as_secs_f64());
        if next == prev {
            unchanged += 1;
        }
        dumps.push(next);
    }
    let ingest: Vec<f64> = dumps
        .iter()
        .map(|text| {
            let t = Instant::now();
            black_box(fbs_feeds::ingest_bgp(text, &cfg.feed_tolerance));
            t.elapsed().as_secs_f64()
        })
        .collect();
    let bytes = dumps.iter().map(String::len).sum::<usize>() as f64 / dumps.len().max(1) as f64;
    o.num("feeds.bgp_render_ms", median(&render) * 1e3)
        .num("feeds.bgp_ingest_ms", median(&ingest) * 1e3)
        .num("feeds.bgp_dump_bytes", bytes)
        .num(
            "feeds.bgp_unchanged_share",
            unchanged as f64 / pairs.len().max(1) as f64,
        );
}

/// One-thread pass over the whole campaign; the speed-up is its time over
/// the traced run's at the workload's own thread count, each round scaled
/// by the reference sample after it.
fn shard_kernel(inp: &RunInputs<'_>, o: &mut Obj) -> Result<(), String> {
    let rounds = inp.lat_ns.len();
    let world = build_world(inp.workload, inp.scale, inp.seed, &mut Tracer::new(false))
        .map_err(|e| e.to_string())?;
    let mut cfg = inp.campaign.config().clone();
    cfg.threads = 1;
    let serial = Campaign::new(world, cfg).map_err(|e| e.to_string())?;
    let dir = inp.work.join("shard-ckpt");
    let mut runner = if inp.workload.durable() {
        serial.runner_checkpointed(&dir, CheckpointPolicy::default())
    } else {
        serial.runner()
    }
    .map_err(|e| e.to_string())?;
    let mut calib = Calib::default();
    let mut one_thread = Vec::with_capacity(rounds);
    let mut scaled = 0.0;
    for _ in 0..rounds {
        let t = Instant::now();
        runner.step_round().map_err(|e| e.to_string())?;
        let dt = t.elapsed().as_nanos() as f64;
        one_thread.push(dt);
        scaled += dt / calib.sample() as f64;
    }
    let configured: f64 = inp.lat_ns[..rounds]
        .iter()
        .zip(inp.ref_ns)
        .map(|(l, r)| *l as f64 / *r as f64)
        .sum();
    o.num("shard.speedup", scaled / configured)
        .num("shard.one_thread_p50_ms", median(&one_thread) / 1e6)
        .int("shard.threads", inp.workload.threads() as u64);
    Ok(())
}

/// Journal and snapshot kernels on real checkpoint bytes: the crashed
/// run's on the durable workload, else a checkpointed prefix of the
/// workload's own campaign (one snapshot plus one journaled round).
fn journal_kernels(inp: &RunInputs<'_>, o: &mut Obj) -> Result<(), String> {
    let e = |e: fbs_types::FbsError| e.to_string();
    let prefix_dir = inp.work.join("prefix-ckpt");
    let dir = match inp.checkpoint {
        Some(dir) => dir.to_path_buf(),
        None => {
            let policy = CheckpointPolicy {
                snapshot_every: SNAPSHOT_EVERY,
                fsync: false,
            };
            let mut runner = inp
                .campaign
                .runner_checkpointed(&prefix_dir, policy)
                .map_err(e)?;
            while runner.completed_rounds() <= SNAPSHOT_EVERY && runner.step_round().map_err(e)? {}
            prefix_dir.clone()
        }
    };
    let wal = dir.join(fbs_core::checkpoint::JOURNAL_FILE);
    let snap = dir.join(fbs_core::checkpoint::SNAPSHOT_FILE);

    let t = Instant::now();
    let (journal, payloads, _) = Journal::open(&wal).map_err(e)?;
    let open_s = t.elapsed().as_secs_f64();
    drop(journal);
    let t = Instant::now();
    let snapshot = read_snapshot(&snap).map_err(e)?;
    let read_ms = t.elapsed().as_secs_f64() * 1e3;
    let (version, state) = snapshot.ok_or("checkpoint holds no snapshot")?;

    let total: usize = payloads.iter().map(Vec::len).sum();
    let crc_s = time_reps(3, || {
        for p in &payloads {
            black_box(crc32(p));
        }
    });
    let mut copy = Journal::create(inp.work.join("append.wal")).map_err(e)?;
    let t = Instant::now();
    for p in &payloads {
        copy.append(p).map_err(e)?;
    }
    let append_s = t.elapsed().as_secs_f64();
    drop(copy);
    let target = inp.work.join("rewrite.snap");
    let mut write_ms = Vec::new();
    for _ in 0..3 {
        let t = Instant::now();
        write_snapshot(&target, version, &state).map_err(e)?;
        write_ms.push(t.elapsed().as_secs_f64() * 1e3);
    }
    o.num("journal.open_s", open_s)
        .num("journal.snapshot_read_ms", read_ms)
        .num("journal.crc32_mb_s", total as f64 / 1e6 / crc_s)
        .num(
            "journal.append_us",
            append_s * 1e6 / payloads.len().max(1) as f64,
        )
        .num("journal.snapshot_write_ms", median(&write_ms));
    Ok(())
}

//! Campaign benchmark phases.
//!
//! Each invocation runs one phase of one workload and prints a single
//! JSON result line on stdout. `campaignbench/run.py` drives the phases
//! in separate processes (so each has its own peak RSS), repeats them,
//! checks their outputs and reports the metrics.
//!
//! ```text
//! campaignbench setup   --workload W --seed N --work DIR [--reps K]
//! campaignbench run     --workload W --seed N --work DIR [--run-id K] [--trace]
//! campaignbench crash   --workload W --seed N --work DIR
//! campaignbench restart --workload W --seed N --work DIR [--finish]
//! ```
//!
//! With `--trace`, `run` records spans around every call into
//! `fbs-core`, writes them to `DIR/spans-run.jsonl`, and then times the
//! lower-layer kernels on the run's own world, report and checkpoint
//! bytes (see `kernels.rs`).
//!
//! `--scale tiny|small|paper` overrides the workload's scale (the
//! benchmark's own test runs every workload at `tiny`).

#![forbid(unsafe_code)]

mod calib;
mod kernels;
mod out;
mod trace;
mod workload;

use calib::Calib;
use fbs_core::{export_all, CampaignReport, CheckpointPolicy};
use fbs_netsim::{World, WorldScale};
use fbs_types::{Round, RoundQuality};
use out::Obj;
use std::path::{Path, PathBuf};
use std::time::Instant;
use trace::Tracer;
use workload::{build_world, new_campaign, new_runner, Workload, SNAPSHOT_EVERY};

struct Args {
    phase: String,
    workload: Workload,
    scale: WorldScale,
    seed: u64,
    work: PathBuf,
    reps: usize,
    run_id: u32,
    trace: bool,
    finish: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let phase = it.next().ok_or("missing phase")?;
    let mut workload = None;
    let mut scale = None;
    let mut seed = None;
    let mut work = None;
    let mut reps = 1usize;
    let mut run_id = 0u32;
    let mut trace = false;
    let mut finish = false;
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workload = Some(Workload::parse(&name).ok_or(format!("unknown workload {name}"))?);
            }
            "--scale" => {
                scale = Some(match value()?.as_str() {
                    "tiny" => WorldScale::Tiny,
                    "small" => WorldScale::Small,
                    "paper" => WorldScale::Paper,
                    other => return Err(format!("unknown scale {other}")),
                })
            }
            "--seed" => seed = Some(value()?.parse().map_err(|e| format!("--seed: {e}"))?),
            "--work" => work = Some(PathBuf::from(value()?)),
            "--reps" => reps = value()?.parse().map_err(|e| format!("--reps: {e}"))?,
            "--run-id" => run_id = value()?.parse().map_err(|e| format!("--run-id: {e}"))?,
            "--trace" => trace = true,
            "--finish" => finish = true,
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let workload = workload.ok_or("missing --workload")?;
    Ok(Args {
        phase,
        workload,
        scale: scale.unwrap_or(workload.default_scale()),
        seed: seed.ok_or("missing --seed")?,
        work: work.ok_or("missing --work")?,
        reps: reps.max(1),
        run_id,
        trace,
        finish,
    })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("campaignbench: {e}");
            std::process::exit(2);
        }
    };
    let result = match args.phase.as_str() {
        "setup" => phase_setup(&args),
        "run" => phase_run(&args),
        "crash" => phase_crash(&args),
        "restart" => phase_restart(&args),
        other => Err(format!("unknown phase {other}")),
    };
    match result {
        Ok(obj) => println!("{}", obj.line()),
        Err(e) => {
            eprintln!("campaignbench {}: {e}", args.phase);
            std::process::exit(1);
        }
    }
}

fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// Set-up repeated `--reps` times: world generation from the seed,
/// `Campaign::new` and the runner constructor (with its fresh checkpoint
/// store on the durable workload), up to the first round.
fn phase_setup(a: &Args) -> Result<Obj, String> {
    let ckpt = a.work.join("setup-ckpt");
    let mut samples = Vec::with_capacity(a.reps);
    let mut refs = Vec::with_capacity(a.reps);
    let mut tr = Tracer::new(false);
    let mut calib = Calib::default();
    for _ in 0..a.reps {
        let before = calib.median(3);
        let t0 = Instant::now();
        let world = build_world(a.workload, a.scale, a.seed, &mut tr).map_err(err)?;
        let campaign = new_campaign(a.workload, world, &mut tr).map_err(err)?;
        let runner = new_runner(a.workload, &campaign, &ckpt, &mut tr).map_err(err)?;
        samples.push(secs(t0));
        drop(runner);
        refs.push((before + calib.median(3)) / 2);
    }
    let mut o = Obj::default();
    o.nums("setup_s", &samples).ints("setup_ref_ns", &refs);
    Ok(o)
}

/// Which rounds open a new month of the world's calendar (the month
/// rollover refreshes pools and eligibility in `step_round`).
fn rollover_rounds(world: &World) -> Vec<u64> {
    (0..world.rounds())
        .filter(|&r| r == 0 || world.month_index(Round(r)) != world.month_index(Round(r - 1)))
        .map(u64::from)
        .collect()
}

/// Output checks on a finished report: it covers every round in every
/// per-round ledger. Pushes each failure and returns the checks made.
fn check_report(report: &CampaignReport, rounds: u32, failures: &mut Vec<String>) -> u64 {
    let n = rounds as usize;
    let mut checks: Vec<(String, bool)> = vec![
        ("report.rounds".into(), report.rounds == rounds),
        ("round_quality".into(), report.round_quality.len() == n),
    ];
    for v in &report.vantages {
        checks.push((format!("vantage {} ledger", v.name), v.quality.len() == n));
    }
    for l in &report.ibr {
        checks.push((format!("ibr {} ledger", l.asn), l.status.len() == n));
    }
    if !report.feed_health.is_empty() {
        for (k, statuses) in report.feed_ledger.statuses.iter().enumerate() {
            checks.push((format!("feed {k} ledger"), statuses.len() == n));
        }
    }
    for (entity, series) in &report.tracked {
        checks.push((format!("tracked {entity:?}"), series.fbs.len() == n));
    }
    let attempted = checks.len() as u64;
    for (name, ok) in checks {
        if !ok {
            failures.push(format!("report does not cover every round: {name}"));
        }
    }
    attempted
}

/// Structural per-round counts read off the report: how many vantage
/// sweeps (each one `World::block_truth` call per block), darknet rounds,
/// detector observations and Trinocular assessments the campaign made
/// per round. A single-vantage campaign sweeps once on every usable round.
fn report_counts(o: &mut Obj, report: &CampaignReport, world: &World, baseline: bool) {
    let n = report.rounds.max(1) as f64;
    let n_blocks = world.blocks().len() as f64;
    let mut scans = 0u64;
    let mut ibr_rounds = 0u64;
    for r in 0..report.rounds as usize {
        scans += if report.vantages.is_empty() {
            (report.round_quality[r] != RoundQuality::Unusable) as u64
        } else {
            report
                .vantages
                .iter()
                .filter(|v| v.quality[r] != RoundQuality::Unusable)
                .count() as u64
        };
        if report
            .ibr
            .iter()
            .any(|l| l.status[r] == fbs_signals::IbrRoundStatus::Observed)
        {
            ibr_rounds += 1;
        }
    }
    let detectors = report.as_events.len() + report.region_events.len() + report.block_events.len();
    let mut assessed = 0f64;
    if baseline {
        for r in 0..report.rounds {
            if report.round_quality[r as usize] == RoundQuality::Unusable {
                continue;
            }
            let month = report.months[world.month_index(Round(r)) as usize];
            let eligible: u64 = report
                .oblast_monthly
                .iter()
                .filter(|((_, m), _)| *m == month)
                .map(|(_, t)| t.trin_eligible as u64)
                .sum::<u64>()
                + report
                    .non_regional_monthly
                    .get(&month)
                    .map_or(0, |t| t.trin_eligible as u64);
            assessed += eligible as f64;
        }
    }
    let retries: u64 = report.feed_health.iter().map(|h| h.retries as u64).sum();
    let dumps = report.feed_ledger.statuses[fbs_types::FeedKind::Bgp.index()].len() as f64;
    o.num("blocks_measured_per_round", scans as f64 * n_blocks / n)
        .num(
            "block_truth_calls_per_round",
            (scans + ibr_rounds) as f64 * n_blocks / n,
        )
        .num("ibr_rounds_share", ibr_rounds as f64 / n)
        .num("usable_vantages_per_round", scans as f64 / n)
        .int("detector_calls_per_round", detectors as u64)
        .num("assessed_per_round", assessed / n)
        .num("feed_dumps_per_round", dumps / n)
        .int("feed_retries", retries)
        .int("n_blocks", world.blocks().len() as u64);
}

/// The process's peak resident set so far (`VmHWM`), in MiB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(err)?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_string())
}

fn file_len(path: &Path) -> u64 {
    std::fs::metadata(path).map(|m| m.len()).unwrap_or(0)
}

/// One uninterrupted campaign: set-up, every round, `finish` and
/// `export_all`, with each `step_round` timed. Checks that every round
/// steps and that the report covers every round; `run.py` compares the
/// export digest. Each run journals into its own directory: truncating
/// an earlier run's journal would free its blocks and stall the next
/// fsyncs behind the disk's discard.
fn phase_run(a: &Args) -> Result<Obj, String> {
    let ckpt = a.work.join(format!("run-ckpt-{}", a.run_id));
    let export_dir = a.work.join("export-run");
    let mut tr = Tracer::new(a.trace);
    let mut calib = Calib::default();
    let mut failures = Vec::new();

    let setup_ref_before = calib.median(3);
    let t0 = Instant::now();
    let root = tr.enter("run", None);
    let setup = tr.enter("setup", None);
    let world = build_world(a.workload, a.scale, a.seed, &mut tr).map_err(err)?;
    let rollovers = rollover_rounds(&world);
    let campaign = new_campaign(a.workload, world, &mut tr).map_err(err)?;
    let mut runner = new_runner(a.workload, &campaign, &ckpt, &mut tr).map_err(err)?;
    tr.exit(setup);
    let setup_s = secs(t0);
    let setup_ref_ns = (setup_ref_before + calib.median(3)) / 2;

    let rounds = campaign.world().rounds();
    let crash = a.workload.crash_round(a.scale);
    let mut ready = None;
    let mut lat_ns = Vec::with_capacity(rounds as usize);
    let mut ref_ns = Vec::with_capacity(rounds as usize);
    let mut step_failures = 0u64;
    let loop_span = tr.enter("round_loop", None);
    let t_loop = Instant::now();
    while !runner.is_done() {
        let round = runner.completed_rounds();
        let span = tr.enter("step_round", Some(round));
        let t = Instant::now();
        let stepped = runner.step_round();
        let dt = t.elapsed().as_nanos() as u64;
        tr.exit(span);
        if let Err(e) = stepped {
            step_failures += 1;
            failures.push(format!("step_round {round}: {e}"));
            break;
        }
        lat_ns.push(dt);
        ref_ns.push(calib.sample());
        if lat_ns.len() == crash as usize {
            ready = Some(peak_rss_mb()?);
        }
    }
    let loop_s = secs(t_loop);
    tr.exit(loop_span);
    if lat_ns.len() != rounds as usize {
        failures.push(format!("stepped {} of {rounds} rounds", lat_ns.len()));
    }

    let tail_ref_before = calib.median(3);
    let t_finish = Instant::now();
    let report = tr.span("finish", || runner.finish()).map_err(err)?;
    let finish_s = secs(t_finish);
    let t_export = Instant::now();
    tr.span("export", || export_all(&report, &export_dir))
        .map_err(err)?;
    let export_s = secs(t_export);
    let campaign_s = secs(t0);
    let tail_ref_ns = (tail_ref_before + calib.median(3)) / 2;
    if a.trace {
        tr.span("classify", || drop(campaign.classify_only()));
    }
    tr.exit(root);

    // One check that every round stepped, then the report and the export.
    let mut checks = 1 + check_report(&report, rounds, &mut failures);
    let (digest, export_bytes) = digest_export(&export_dir, &mut failures)?;
    checks += DIGEST_CHECKS;

    let mut o = Obj::default();
    o.int("rounds", rounds as u64)
        .int("steps", lat_ns.len() as u64)
        .int("step_failures", step_failures)
        .num("setup_s", setup_s)
        .int("setup_ref_ns", setup_ref_ns)
        .num("loop_s", loop_s)
        .num("finish_s", finish_s)
        .num("export_s", export_s)
        .int("tail_ref_ns", tail_ref_ns)
        .num("campaign_s", campaign_s)
        .ints("lat_ns", &lat_ns)
        .ints("ref_ns", &ref_ns)
        .ints("rollover_rounds", &rollovers)
        .int("crash_round", crash as u64)
        .num("crash_ready_rss_mb", ready.unwrap_or(f64::NAN))
        .text("digest", &digest)
        .int("export_bytes", export_bytes);
    if a.workload.durable() {
        let wal = ckpt.join(fbs_core::checkpoint::JOURNAL_FILE);
        let snap = ckpt.join(fbs_core::checkpoint::SNAPSHOT_FILE);
        o.int("wal_bytes", file_len(&wal))
            .int("wal_records", rounds as u64)
            .int("snapshot_bytes", file_len(&snap))
            // The default policy fsyncs every journaled round.
            .int(
                "fsyncs",
                if CheckpointPolicy::default().fsync {
                    rounds as u64
                } else {
                    0
                },
            )
            .int("snapshots", (rounds / SNAPSHOT_EVERY) as u64);
    }
    report_counts(
        &mut o,
        &report,
        campaign.world(),
        campaign.config().run_baseline,
    );
    if a.trace {
        trace_fields(&mut o, &tr, &a.work.join("spans-run.jsonl"))?;
        let crashed = a.work.join("crash-ckpt");
        let inputs = kernels::RunInputs {
            workload: a.workload,
            scale: a.scale,
            seed: a.seed,
            campaign: &campaign,
            report: &report,
            lat_ns: &lat_ns,
            ref_ns: &ref_ns,
            checkpoint: (a.workload.durable() && crashed.exists()).then_some(crashed.as_path()),
            work: &a.work,
        };
        kernels::time_kernels(&inputs, &mut o)?;
    }
    finish_checks(&mut o, checks, failures);
    Ok(o)
}

/// How many checks [`digest_export`] makes.
const DIGEST_CHECKS: u64 = 2;

/// Digests an export directory, checking that it is not empty and that
/// the outage export holds no address.
fn digest_export(dir: &Path, failures: &mut Vec<String>) -> Result<(String, u64), String> {
    let (digest, bytes) = out::digest_dir(dir).map_err(err)?;
    let outages = std::fs::read_to_string(dir.join("outages.csv")).map_err(err)?;
    if !fbs_core::dataset::contains_no_addresses(&outages) {
        failures.push("outages.csv contains an address".into());
    }
    if bytes == 0 {
        failures.push("export is empty".into());
    }
    Ok((digest, bytes))
}

fn finish_checks(o: &mut Obj, attempted: u64, failures: Vec<String>) {
    for f in &failures {
        eprintln!("campaignbench: check failed: {f}");
    }
    o.int("checks", attempted)
        .int("failed_checks", failures.len() as u64)
        .flag("ok", failures.is_empty());
}

/// Writes the spans out (`run.py` prints their per-name self times)
/// and adds the span-derived layer times to the result.
fn trace_fields(o: &mut Obj, tr: &Tracer, path: &Path) -> Result<(), String> {
    let spans = tr.spans();
    std::fs::write(path, trace::to_jsonl(spans)).map_err(err)?;
    let min_self = trace::self_times(spans).into_iter().min().unwrap_or(0);
    o.num("span.world_build_s", trace::total_s(spans, "world_build"))
        .num(
            "span.runner_build_s",
            trace::total_s(spans, "campaign_new") + trace::total_s(spans, "runner_build"),
        )
        .num("span.finish_s", trace::total_s(spans, "finish"))
        .num("span.export_s", trace::total_s(spans, "export"))
        .num("span.classify_s", trace::total_s(spans, "classify"))
        .num("span.min_self_ns", min_self as f64)
        .text("spans_path", &path.to_string_lossy());
    Ok(())
}

/// A checkpointed campaign crashed after `crash_round` rounds: the
/// process stops without `finish`, leaving the journal and the last
/// snapshot behind.
fn phase_crash(a: &Args) -> Result<Obj, String> {
    let ckpt = a.work.join("crash-ckpt");
    let mut tr = Tracer::new(false);
    let world = build_world(a.workload, a.scale, a.seed, &mut tr).map_err(err)?;
    let campaign = new_campaign(a.workload, world, &mut tr).map_err(err)?;
    let mut runner = campaign
        .runner_checkpointed(&ckpt, CheckpointPolicy::default())
        .map_err(err)?;
    let crash = a.workload.crash_round(a.scale);
    while runner.completed_rounds() < crash {
        if !runner.step_round().map_err(err)? {
            break;
        }
    }
    let mut o = Obj::default();
    o.int("crash_round", runner.completed_rounds() as u64)
        .int(
            "wal_bytes",
            file_len(&ckpt.join(fbs_core::checkpoint::JOURNAL_FILE)),
        )
        .int(
            "snapshot_bytes",
            file_len(&ckpt.join(fbs_core::checkpoint::SNAPSHOT_FILE)),
        );
    Ok(o)
}

/// Restart after the crash: world generation, `Campaign::new` and
/// `runner_resumed`, timed to the point the runner is ready, with the
/// process's peak RSS at that point. With `--finish` the resumed
/// campaign is carried to the end and exported.
fn phase_restart(a: &Args) -> Result<Obj, String> {
    let ckpt = a.work.join("crash-ckpt");
    let mut tr = Tracer::new(a.trace);
    let t0 = Instant::now();
    let world = build_world(a.workload, a.scale, a.seed, &mut tr).map_err(err)?;
    let campaign = new_campaign(a.workload, world, &mut tr).map_err(err)?;
    let mut runner = tr
        .span("runner_resumed", || {
            campaign.runner_resumed(&ckpt, CheckpointPolicy::default())
        })
        .map_err(err)?;
    let resume_s = secs(t0);
    let ready_rss_mb = peak_rss_mb()?;
    let d = runner.diagnostics().clone();
    let mut o = Obj::default();
    o.num("resume_s", resume_s)
        .num("ready_rss_mb", ready_rss_mb)
        .int("ready_round", runner.completed_rounds() as u64)
        .int("records_read", d.journal.records)
        .int("rounds_replayed", d.replayed_rounds as u64);
    let mut failures = Vec::new();
    let mut checks = 0;
    if a.finish {
        let rounds = campaign.world().rounds();
        let mut steps = 0u64;
        while runner.step_round().map_err(err)? {
            steps += 1;
        }
        let report = runner.finish().map_err(err)?;
        let export_dir = a.work.join("export-resumed");
        export_all(&report, &export_dir).map_err(err)?;
        checks += check_report(&report, rounds, &mut failures);
        let (digest, _) = digest_export(&export_dir, &mut failures)?;
        checks += DIGEST_CHECKS;
        o.int("steps", steps).text("digest", &digest);
    }
    finish_checks(&mut o, checks, failures);
    Ok(o)
}

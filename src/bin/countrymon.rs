//! `countrymon` — the country-monitoring CLI over the ukraine-fbs stack.
//!
//! ```text
//! countrymon scan     [--scale S] [--seed N] [--round R]     one wire-path scan round
//! countrymon campaign [--scale S] [--seed N] [--days D] [--export DIR]
//! countrymon classify [--scale S] [--seed N] [--days D] [--oblast NAME]
//! countrymon timeline [--scale S] [--seed N] [--grep TEXT]   the scripted war events
//! ```
//!
//! Scales: `tiny` (seconds), `small` (default, ~10 s), `paper` (minutes).

#![forbid(unsafe_code)]

use std::process::ExitCode;
use ukraine_fbs::netsim::WorldTransport;
use ukraine_fbs::prelude::*;
use ukraine_fbs::prober::{ScanConfig, Scanner, TargetSet};
use ukraine_fbs::types::ROUNDS_PER_DAY;

/// Parsed command line.
#[derive(Debug, Clone, PartialEq)]
struct Args {
    command: String,
    scale: WorldScale,
    seed: u64,
    days: u32,
    round: u32,
    export: Option<String>,
    oblast: Option<String>,
    grep: Option<String>,
    scenario: Option<String>,
    save_scenario: Option<String>,
}

const USAGE: &str = "\
countrymon — full-block-scan outage monitoring (ukraine-fbs)

USAGE:
    countrymon <COMMAND> [OPTIONS]

COMMANDS:
    scan        run one wire-path ICMP scan round and print statistics
    campaign    run the measurement campaign and summarize detections
    classify    run regional classification and print a per-oblast table
    timeline    list the scenario's scripted war events

OPTIONS:
    --scale tiny|small|paper   world size            [default: small]
    --seed <u64>               scenario seed         [default: 42]
    --days <u32>               campaign length       [default: full span]
    --round <u32>              round for `scan`      [default: 6]
    --export <dir>             write the dataset (campaign only)
    --oblast <name>            focus region (classify only)
    --grep <text>              event filter (timeline only)
    --scenario <file>          load a scenario JSON instead of generating
    --save-scenario <file>     write the generated scenario as JSON
    -h, --help                 this help
";

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        command: String::new(),
        scale: WorldScale::Small,
        seed: 42,
        days: 0,
        round: 6,
        export: None,
        oblast: None,
        grep: None,
        scenario: None,
        save_scenario: None,
    };
    let mut it = argv.iter().peekable();
    match it.next() {
        Some(cmd) if !cmd.starts_with('-') => args.command = cmd.clone(),
        Some(h) if h == "-h" || h == "--help" => return Err(String::new()),
        _ => return Err("missing command".into()),
    }
    while let Some(flag) = it.next() {
        let mut value = |name: &str| -> Result<String, String> {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{name} needs a value"))
        };
        match flag.as_str() {
            "--scale" => {
                args.scale = match value("--scale")?.as_str() {
                    "tiny" => WorldScale::Tiny,
                    "small" => WorldScale::Small,
                    "paper" => WorldScale::Paper,
                    other => return Err(format!("unknown scale {other:?}")),
                }
            }
            "--seed" => {
                args.seed = value("--seed")?
                    .parse()
                    .map_err(|_| "seed must be an unsigned integer".to_string())?
            }
            "--days" => {
                args.days = value("--days")?
                    .parse()
                    .map_err(|_| "days must be an unsigned integer".to_string())?;
                let campaign_days = Round::campaign_total().div_ceil(ROUNDS_PER_DAY);
                if args.days > campaign_days {
                    return Err(format!(
                        "--days {} is past the campaign's {campaign_days} days",
                        args.days
                    ));
                }
            }
            "--round" => {
                args.round = value("--round")?
                    .parse()
                    .map_err(|_| "round must be an unsigned integer".to_string())?
            }
            "--export" => args.export = Some(value("--export")?),
            "--oblast" => args.oblast = Some(value("--oblast")?),
            "--grep" => args.grep = Some(value("--grep")?),
            "--scenario" => args.scenario = Some(value("--scenario")?),
            "--save-scenario" => args.save_scenario = Some(value("--save-scenario")?),
            "-h" | "--help" => return Err(String::new()),
            other => return Err(format!("unknown option {other:?}")),
        }
    }
    Ok(args)
}

/// What a command reports when it fails: one line, printed after
/// `error: `, and exit status 1.
type CmdResult<T = ()> = Result<T, String>;

fn build_scenario(args: &Args) -> CmdResult<scenarios::Scenario> {
    if let Some(path) = &args.scenario {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read scenario {path}: {e}"))?;
        return scenarios::Scenario::from_json(&text)
            .map_err(|e| format!("cannot parse scenario {path}: {e}"));
    }
    // `parse_args` bounds `days` by the campaign, so this cannot overflow.
    let rounds = if args.days == 0 {
        Round::campaign_total()
    } else {
        (args.days * ROUNDS_PER_DAY).min(Round::campaign_total())
    };
    let scenario = scenarios::ukraine_with_rounds(args.scale, args.seed, rounds);
    if let Some(path) = &args.save_scenario {
        std::fs::write(path, scenario.to_json())
            .map_err(|e| format!("cannot write scenario {path}: {e}"))?;
        eprintln!("scenario written to {path}");
    }
    Ok(scenario)
}

fn build_world(args: &Args) -> CmdResult<ukraine_fbs::netsim::World> {
    build_scenario(args)?
        .into_world()
        .map_err(|e| format!("invalid scenario: {e}"))
}

fn cmd_scan(args: &Args) -> CmdResult {
    let world = build_world(args)?;
    let targets = TargetSet::from_blocks(world.blocks().iter().map(|b| b.block).collect());
    let round = Round(args.round.min(world.rounds().saturating_sub(1)));
    eprintln!(
        "scanning {} addresses in {} blocks at {} ...",
        targets.num_addresses(),
        targets.num_blocks(),
        round.start()
    );
    let scanner = Scanner::new(ScanConfig {
        rate_pps: 2_000_000, // virtual time: fast-forward the pacing
        ..ScanConfig::default()
    });
    let mut transport = WorldTransport::new(&world, round);
    let started = std::time::Instant::now();
    let (obs, stats) = scanner.scan_round(round, &targets, &mut transport);
    println!(
        "sent {} probes, {} valid replies ({} invalid, {} parse errors)",
        stats.sent, stats.valid, stats.invalid, stats.parse_errors
    );
    println!(
        "{} responsive addresses in {} active blocks ({:.1}% of blocks)",
        obs.total_responsive(),
        obs.active_blocks(),
        obs.active_blocks() as f64 / targets.num_blocks().max(1) as f64 * 100.0
    );
    println!(
        "virtual round duration {:.1} min; wall clock {:.2?}",
        stats.duration_ns as f64 / 60e9,
        started.elapsed()
    );
    Ok(())
}

fn cmd_campaign(args: &Args) -> CmdResult {
    let world = build_world(args)?;
    eprintln!(
        "running campaign: {} blocks x {} rounds ...",
        world.blocks().len(),
        world.rounds()
    );
    let campaign = Campaign::new(world, CampaignConfig::default())
        .map_err(|e| format!("invalid campaign: {e}"))?;
    let report = campaign
        .run()
        .map_err(|e| format!("campaign failed: {e}"))?;
    println!(
        "{} outage events across {} of {} ASes; {} rounds missing (vantage offline)",
        report.total_as_outages(),
        report.ases_with_outages(),
        report.as_events.len(),
        report.missing_rounds.len()
    );
    let mut hours: Vec<(Oblast, f64)> = ukraine_fbs::types::ALL_OBLASTS
        .iter()
        .map(|o| {
            (
                *o,
                ukraine_fbs::signals::outage_hours(report.region_events_of(*o)),
            )
        })
        .collect();
    hours.sort_by(|a, b| b.1.partial_cmp(&a.1).expect("finite hours"));
    println!("\nhardest-hit oblasts (regional outage hours):");
    for (o, h) in hours.iter().take(8) {
        println!(
            "  {:16} {h:8.0} h {}",
            o.name(),
            if o.is_frontline() { "(frontline)" } else { "" }
        );
    }
    if let Some(dir) = &args.export {
        let dir = std::path::Path::new(dir);
        ukraine_fbs::core::export_all(&report, dir)
            .map_err(|e| format!("cannot export the dataset to {}: {e}", dir.display()))?;
        println!("\ndataset written to {}", dir.display());
    }
    Ok(())
}

fn cmd_classify(args: &Args) -> CmdResult {
    let world = build_world(args)?;
    let campaign = Campaign::new(world, CampaignConfig::without_baseline())
        .map_err(|e| format!("invalid campaign: {e}"))?;
    let outcome = campaign.classify_only();
    use ukraine_fbs::regional::Regionality;
    match &args.oblast {
        Some(name) => {
            let oblast =
                Oblast::parse_name(name).ok_or_else(|| format!("unknown oblast {name:?}"))?;
            let Some(rc) = outcome.regions.get(&oblast) else {
                println!("{oblast}: no presence recorded");
                return Ok(());
            };
            println!("{oblast}:");
            for class in [
                Regionality::Regional,
                Regionality::NonRegional,
                Regionality::Temporal,
            ] {
                let ases = rc.ases_with(class);
                println!("  {class:?}: {} ASes", ases.len());
                for asn in ases.iter().take(20) {
                    println!("    {asn}");
                }
            }
            println!("  regional blocks: {}", rc.regional_blocks().len());
        }
        None => {
            println!("oblast            regional  non-regional  temporal  reg. blocks");
            for o in ukraine_fbs::types::ALL_OBLASTS {
                let Some(rc) = outcome.regions.get(&o) else {
                    continue;
                };
                println!(
                    "{:16}  {:8}  {:12}  {:8}  {}",
                    o.name(),
                    rc.ases_with(Regionality::Regional).len(),
                    rc.ases_with(Regionality::NonRegional).len(),
                    rc.ases_with(Regionality::Temporal).len(),
                    rc.regional_blocks().len()
                );
            }
        }
    }
    Ok(())
}

fn cmd_timeline(args: &Args) -> CmdResult {
    let scenario = build_scenario(args)?;
    let mut shown = 0;
    for e in scenario.script.events() {
        if let Some(needle) = &args.grep {
            if !e.name.contains(needle.as_str()) {
                continue;
            }
        }
        // Background noise floods the list; show it only when grepped for.
        if args.grep.is_none()
            && (e.name.starts_with("frontline damage") || e.name.starts_with("local outage"))
        {
            continue;
        }
        let end = e
            .end
            .map(|t| t.to_string())
            .unwrap_or_else(|| "(open)".to_string());
        println!("{} .. {end}  {}", e.start, e.name);
        shown += 1;
    }
    println!(
        "\n{shown} events shown ({} total in the script)",
        scenario.script.events().len()
    );
    Ok(())
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(msg) => {
            if !msg.is_empty() {
                eprintln!("error: {msg}\n");
            }
            eprint!("{USAGE}");
            return if msg.is_empty() {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            };
        }
    };
    let result = match args.command.as_str() {
        "scan" => cmd_scan(&args),
        "campaign" => cmd_campaign(&args),
        "classify" => cmd_classify(&args),
        "timeline" => cmd_timeline(&args),
        other => {
            eprintln!("error: unknown command {other:?}\n");
            eprint!("{USAGE}");
            return ExitCode::FAILURE;
        }
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("error: {msg}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(|x| x.to_string()).collect()
    }

    #[test]
    fn parses_full_command_line() {
        let a = parse_args(&argv(
            "campaign --scale tiny --seed 7 --days 30 --export /tmp/out",
        ))
        .unwrap();
        assert_eq!(a.command, "campaign");
        assert_eq!(a.scale, WorldScale::Tiny);
        assert_eq!(a.seed, 7);
        assert_eq!(a.days, 30);
        assert_eq!(a.export.as_deref(), Some("/tmp/out"));
    }

    #[test]
    fn defaults_apply() {
        let a = parse_args(&argv("scan")).unwrap();
        assert_eq!(a.scale, WorldScale::Small);
        assert_eq!(a.seed, 42);
        assert_eq!(a.round, 6);
    }

    #[test]
    fn rejects_bad_input() {
        assert!(parse_args(&argv("")).is_err());
        assert!(parse_args(&argv("scan --scale huge")).is_err());
        assert!(parse_args(&argv("scan --seed banana")).is_err());
        assert!(parse_args(&argv("scan --what")).is_err());
        assert!(parse_args(&argv("scan --seed")).is_err());
    }

    /// A scratch path unique to this test process.
    fn scratch(name: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("countrymon-{name}-{}", std::process::id()))
    }

    #[test]
    fn days_past_the_campaign_are_rejected() {
        // 357,913,942 days would wrap `days * 12` around to 8 rounds.
        assert!(parse_args(&argv("campaign --days 357913942")).is_err());
        let last = Round::campaign_total().div_ceil(ROUNDS_PER_DAY);
        let full = parse_args(&argv(&format!("campaign --days {last}"))).unwrap();
        assert_eq!(full.days, last);
        assert!(parse_args(&argv(&format!("campaign --days {}", last + 1))).is_err());
    }

    #[test]
    fn a_missing_or_malformed_scenario_file_is_an_error() {
        let args = parse_args(&argv("timeline --scenario /nonexistent/scenario.json")).unwrap();
        let err = cmd_timeline(&args).unwrap_err();
        assert!(err.starts_with("cannot read scenario"), "{err}");
        let path = scratch("not-json");
        std::fs::write(&path, "not json").unwrap();
        let args = parse_args(&argv(&format!("timeline --scenario {}", path.display()))).unwrap();
        let err = cmd_timeline(&args).unwrap_err();
        let _ = std::fs::remove_file(&path);
        assert!(err.starts_with("cannot parse scenario"), "{err}");
    }

    #[test]
    fn an_invalid_scenario_is_an_error() {
        let mut scenario = scenarios::ukraine_with_rounds(WorldScale::Tiny, 1, 24);
        let twin = scenario.config.ases[0].clone();
        scenario.config.ases.push(twin);
        let path = scratch("invalid");
        std::fs::write(&path, scenario.to_json()).unwrap();
        let args = parse_args(&argv(&format!("classify --scenario {}", path.display()))).unwrap();
        let err = cmd_classify(&args).unwrap_err();
        let _ = std::fs::remove_file(&path);
        assert!(err.starts_with("invalid scenario"), "{err}");
    }

    #[test]
    fn a_failed_scenario_save_is_an_error() {
        let line = "timeline --scale tiny --days 1 --save-scenario /nonexistent/scenario.json";
        let err = cmd_timeline(&parse_args(&argv(line)).unwrap()).unwrap_err();
        assert!(err.starts_with("cannot write scenario"), "{err}");
    }

    #[test]
    fn a_failed_export_is_an_error() {
        // A regular file sits where the export directory's parent should be.
        let blocker = scratch("export-blocker");
        std::fs::write(&blocker, "").unwrap();
        let out = blocker.join("dataset");
        let line = format!("campaign --scale tiny --days 2 --export {}", out.display());
        let err = cmd_campaign(&parse_args(&argv(&line)).unwrap()).unwrap_err();
        let _ = std::fs::remove_file(&blocker);
        assert!(err.starts_with("cannot export the dataset"), "{err}");
    }

    #[test]
    fn an_unknown_oblast_is_an_error() {
        let args = parse_args(&argv("classify --scale tiny --days 30 --oblast Atlantis")).unwrap();
        assert_eq!(
            cmd_classify(&args),
            Err("unknown oblast \"Atlantis\"".to_string())
        );
    }

    #[test]
    fn help_is_empty_error() {
        assert_eq!(parse_args(&argv("--help")), Err(String::new()));
        assert_eq!(parse_args(&argv("scan -h")), Err(String::new()));
    }
}

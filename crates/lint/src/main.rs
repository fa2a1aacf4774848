//! CLI for the workspace invariant linter.
//!
//! ```text
//! fbs-lint --workspace             # lint the enclosing cargo workspace
//! fbs-lint --workspace --json     # machine-readable output
//! fbs-lint --list-rules           # what is enforced, and why
//! fbs-lint path/to/file.rs …      # lint specific files
//! fbs-lint schema --write-lock    # (re)generate SCHEMA.lock
//! fbs-lint schema --check         # fail if the extraction drifted
//! ```
//!
//! Exit codes: 0 clean, 1 violations found, 2 usage or I/O error.

#![forbid(unsafe_code)]

use fbs_lint::{analyze_workspace, diff_schemas, extract, parse_lock, render_lock, EditKind};
use fbs_lint::{
    find_workspace_root, lint_sources, lint_workspace, render_json, FileMeta, LintRun, SourceFile,
    RULES, SEMANTIC_RULES,
};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
// Wall-clock timing is exactly what the `wall-clock` rule bans in library
// crates; a binary reporting its own runtime is the sanctioned use.
use std::time::Instant;

/// What `fbs-lint schema …` should do.
#[derive(Clone, Copy, PartialEq, Eq)]
enum SchemaMode {
    /// Regenerate `SCHEMA.lock` from a fresh extraction.
    WriteLock,
    /// Diff a fresh extraction against `SCHEMA.lock`; violations exit 1.
    Check,
}

struct Args {
    workspace: bool,
    json: bool,
    list_rules: bool,
    /// The `schema` subcommand, when invoked.
    schema: Option<SchemaMode>,
    root: Option<PathBuf>,
    /// Write a `BENCH_lint.json` benchmark artifact here after the run.
    bench_json: Option<PathBuf>,
    /// Fail (exit 1) if the sweep takes longer than this many ms.
    budget_ms: Option<u128>,
    paths: Vec<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workspace: false,
        json: false,
        list_rules: false,
        schema: None,
        root: None,
        bench_json: None,
        budget_ms: None,
        paths: Vec::new(),
    };
    let mut schema_subcommand = false;
    let mut it = std::env::args().skip(1).peekable();
    if it.peek().map(String::as_str) == Some("schema") {
        it.next();
        schema_subcommand = true;
    }
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--workspace" => args.workspace = true,
            "--json" => args.json = true,
            "--list-rules" => args.list_rules = true,
            "--write-lock" if schema_subcommand => args.schema = Some(SchemaMode::WriteLock),
            "--check" if schema_subcommand => args.schema = Some(SchemaMode::Check),
            "--root" => {
                let dir = it.next().ok_or("--root requires a directory argument")?;
                args.root = Some(PathBuf::from(dir));
            }
            "--bench-json" => {
                let path = it.next().ok_or("--bench-json requires a path argument")?;
                args.bench_json = Some(PathBuf::from(path));
            }
            "--budget-ms" => {
                let n = it.next().ok_or("--budget-ms requires a number argument")?;
                args.budget_ms = Some(
                    n.parse()
                        .map_err(|_| format!("--budget-ms: not a number: {n}"))?,
                );
            }
            "-h" | "--help" => {
                println!("{USAGE}");
                std::process::exit(0);
            }
            flag if flag.starts_with('-') => {
                return Err(format!("unknown flag: {flag}\n{USAGE}"));
            }
            path => args.paths.push(PathBuf::from(path)),
        }
    }
    if schema_subcommand && args.schema.is_none() {
        return Err(format!("schema requires --write-lock or --check\n{USAGE}"));
    }
    if args.schema.is_none() && !args.workspace && !args.list_rules && args.paths.is_empty() {
        return Err(format!("nothing to lint\n{USAGE}"));
    }
    Ok(args)
}

const USAGE: &str = "usage: fbs-lint [--workspace] [--json] [--list-rules] [--root DIR] \
     [--bench-json PATH] [--budget-ms N] [FILES…]\n\
       fbs-lint schema (--write-lock | --check) [--root DIR] [--bench-json PATH] [--budget-ms N]";

fn list_rules() {
    let width = RULES
        .iter()
        .map(|r| r.name.len())
        .chain(SEMANTIC_RULES.iter().map(|r| r.name.len()))
        .max()
        .unwrap_or(0);
    println!("fbs-lint rules (suppress a line with `// fbs-lint: allow(<rule>) <why>`):");
    for rule in RULES {
        println!("  {:width$} {}", rule.name, rule.summary);
    }
    println!("semantic rules (cross-file, over the workspace symbol graph):");
    for rule in SEMANTIC_RULES {
        println!("  {:width$} {}", rule.name, rule.summary);
    }
}

/// Lints explicitly-listed files, classifying each by its path relative
/// to the workspace root when it sits under one. All listed files share
/// one symbol graph, so cross-file semantic rules see the whole set;
/// absence checks (registry staleness) stay off — this is not a sweep.
fn lint_paths(paths: &[PathBuf], root: &Path) -> Result<LintRun, String> {
    let mut files = Vec::new();
    for path in paths {
        let canon = path
            .canonicalize()
            .map_err(|e| format!("{}: {e}", path.display()))?;
        let rel = canon
            .strip_prefix(root)
            .unwrap_or(&canon)
            .to_string_lossy()
            .replace('\\', "/");
        let src = std::fs::read(&canon).map_err(|e| format!("{}: {e}", path.display()))?;
        files.push(SourceFile::analyze(FileMeta::infer(&rel), src));
    }
    Ok(lint_sources(&files, false))
}

/// The `schema` subcommand: extract the wire schema from a fresh
/// workspace analysis, carry the read-only layouts over from the current
/// `SCHEMA.lock`, then either rewrite the lock (`--write-lock`) or diff
/// against it (`--check`). Check mode also emits a `BENCH_schema.json`
/// timing row when benchmarking is requested.
fn run_schema(mode: SchemaMode, args: &Args, root: &Path, started: Instant) -> ExitCode {
    let files = match analyze_workspace(root) {
        Ok(files) => files,
        Err(e) => {
            eprintln!("fbs-lint: walking {}: {e}", root.display());
            return ExitCode::from(2);
        }
    };
    let graph = fbs_lint::graph::build(&files);
    let mut schema = extract(&files, &graph);
    let lock_path = root.join("SCHEMA.lock");
    let lock = std::fs::read_to_string(&lock_path).map(|text| {
        let parsed = parse_lock(&text);
        (text, parsed)
    });
    if let Ok((_, Ok(locked))) = &lock {
        schema.carry_read_only(locked);
    }
    let versions = schema
        .all_versions()
        .iter()
        .map(|v| format!("v{v}"))
        .collect::<Vec<_>>()
        .join(" ");

    if mode == SchemaMode::WriteLock {
        let text = render_lock(&schema);
        if let Err(e) = std::fs::write(&lock_path, text) {
            eprintln!("fbs-lint: writing {}: {e}", lock_path.display());
            return ExitCode::from(2);
        }
        eprintln!(
            "fbs-lint: wrote {} ({} impls, versions {versions})",
            lock_path.display(),
            schema.impl_count(),
        );
        return ExitCode::SUCCESS;
    }

    let mut violations: Vec<String> = Vec::new();
    match lock {
        Err(e) => {
            eprintln!(
                "fbs-lint: reading {}: {e} (run `fbs-lint schema --write-lock` first)",
                lock_path.display()
            );
            return ExitCode::from(2);
        }
        Ok((_, Err(e))) => violations.push(format!("SCHEMA.lock: [schema-lock-drift] {e}")),
        Ok((lock_text, Ok(locked))) => {
            for edit in diff_schemas(&locked, &schema) {
                let rule = match edit.kind {
                    EditKind::Breaking => "frozen-version-edit",
                    EditKind::Additive => "schema-lock-drift",
                };
                violations.push(format!(
                    "{}:{}: [{rule}] {}: {}",
                    edit.path, edit.line, edit.type_name, edit.detail
                ));
            }
            if violations.is_empty() && lock_text != render_lock(&schema) {
                violations.push(
                    "SCHEMA.lock: [schema-lock-drift] lock text is not the canonical \
                         serialization; regenerate with `fbs-lint schema --write-lock`"
                        .to_string(),
                );
            }
        }
    }
    for v in &violations {
        println!("{v}");
    }
    let wall_ms = started.elapsed().as_millis();
    eprintln!(
        "fbs-lint: schema check, {} impls, versions {versions}, {} violation{} ({wall_ms} ms)",
        schema.impl_count(),
        violations.len(),
        if violations.len() == 1 { "" } else { "s" },
    );

    // The timing row lands next to BENCH_lint.json in CI; the default
    // path is env-overridable so local runs can redirect it.
    let bench_out = args.bench_json.clone().unwrap_or_else(|| {
        PathBuf::from(
            std::env::var("FBS_SCHEMA_BENCH_OUT").unwrap_or_else(|_| "BENCH_schema.json".into()),
        )
    });
    let want_bench = args.bench_json.is_some()
        || args.budget_ms.is_some()
        || std::env::var("FBS_SCHEMA_BENCH_OUT").is_ok();
    if want_bench {
        let bench = format!(
            "{{\"bench\":\"schema_check\",\"impls\":{},\"versioned\":{},\"versions\":{},\"violations\":{},\"wall_ms\":{wall_ms},\"budget_ms\":{}}}\n",
            schema.impl_count(),
            schema.versioned.len(),
            schema.all_versions().len(),
            violations.len(),
            args.budget_ms.map_or("null".to_string(), |b| b.to_string()),
        );
        if let Err(e) = std::fs::write(&bench_out, bench) {
            eprintln!("fbs-lint: writing {}: {e}", bench_out.display());
            return ExitCode::from(2);
        }
    }
    let over_budget = args.budget_ms.is_some_and(|b| wall_ms > b);
    if over_budget {
        eprintln!(
            "fbs-lint: schema check took {wall_ms} ms, over the --budget-ms {} budget",
            args.budget_ms.unwrap_or(0),
        );
    }
    if violations.is_empty() && !over_budget {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let started = Instant::now();
    let args = match parse_args() {
        Ok(args) => args,
        Err(msg) => {
            eprintln!("fbs-lint: {msg}");
            return ExitCode::from(2);
        }
    };
    if args.list_rules {
        list_rules();
        return ExitCode::SUCCESS;
    }

    let cwd = std::env::current_dir().unwrap_or_else(|_| PathBuf::from("."));
    let root = match &args.root {
        Some(dir) => dir.clone(),
        None => find_workspace_root(&cwd).unwrap_or(cwd),
    };

    if let Some(mode) = args.schema {
        return run_schema(mode, &args, &root, started);
    }

    let run = if args.workspace {
        match lint_workspace(&root) {
            Ok(run) => run,
            Err(e) => {
                eprintln!("fbs-lint: walking {}: {e}", root.display());
                return ExitCode::from(2);
            }
        }
    } else {
        match lint_paths(&args.paths, &root) {
            Ok(run) => run,
            Err(msg) => {
                eprintln!("fbs-lint: {msg}");
                return ExitCode::from(2);
            }
        }
    };

    let wall_ms = started.elapsed().as_millis();
    if args.json {
        print!("{}", render_json(&run));
    } else {
        for f in &run.findings {
            println!("{}", f.render());
        }
        eprintln!(
            "fbs-lint: {} file{} checked, {} violation{} ({wall_ms} ms)",
            run.files_checked,
            if run.files_checked == 1 { "" } else { "s" },
            run.findings.len(),
            if run.findings.len() == 1 { "" } else { "s" },
        );
    }
    if let Some(path) = &args.bench_json {
        let bench = format!(
            "{{\"bench\":\"lint_sweep\",\"files\":{},\"rules\":{},\"violations\":{},\"wall_ms\":{wall_ms},\"budget_ms\":{}}}\n",
            run.files_checked,
            RULES.len() + SEMANTIC_RULES.len(),
            run.findings.len(),
            args.budget_ms.map_or("null".to_string(), |b| b.to_string()),
        );
        if let Err(e) = std::fs::write(path, bench) {
            eprintln!("fbs-lint: writing {}: {e}", path.display());
            return ExitCode::from(2);
        }
    }
    let over_budget = args.budget_ms.is_some_and(|b| wall_ms > b);
    if over_budget {
        eprintln!(
            "fbs-lint: sweep took {wall_ms} ms, over the --budget-ms {} budget",
            args.budget_ms.unwrap_or(0),
        );
    }
    if run.is_clean() && !over_budget {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

//! CLI for the workspace invariant linter.
//!
//! ```text
//! fbs-lint --workspace             # lint the enclosing cargo workspace
//! fbs-lint --workspace --json     # machine-readable output
//! fbs-lint --list-rules           # what is enforced, and why
//! fbs-lint path/to/file.rs …      # lint specific files
//! fbs-lint schema --write-lock    # (re)generate SCHEMA.lock
//! ```
//!
//! Exit codes: 0 clean, 1 violations found, 2 usage or I/O error.

#![forbid(unsafe_code)]

use fbs_lint::{analyze_workspace, extract, parse_lock, render_lock};
use fbs_lint::{
    find_workspace_root, lint_sources, lint_workspace, render_json, FileMeta, LintRun, SourceFile,
    RULES, SEMANTIC_RULES,
};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
// Wall-clock timing is exactly what the `wall-clock` rule bans in library
// crates; a binary reporting its own runtime is the sanctioned use.
use std::time::Instant;

struct Args {
    workspace: bool,
    json: bool,
    list_rules: bool,
    /// `schema --write-lock`: regenerate `SCHEMA.lock`.
    write_lock: bool,
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
        write_lock: false,
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
            "--write-lock" if schema_subcommand => args.write_lock = true,
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
    let sweep_args = args.workspace
        || args.json
        || args.list_rules
        || args.bench_json.is_some()
        || args.budget_ms.is_some()
        || !args.paths.is_empty();
    if schema_subcommand && (!args.write_lock || sweep_args) {
        return Err(format!("schema takes --write-lock [--root DIR]\n{USAGE}"));
    }
    if !args.write_lock && !args.workspace && !args.list_rules && args.paths.is_empty() {
        return Err(format!("nothing to lint\n{USAGE}"));
    }
    Ok(args)
}

const USAGE: &str = "usage: fbs-lint [--workspace] [--json] [--list-rules] [--root DIR] \
     [--bench-json PATH] [--budget-ms N] [FILES…]\n\
       fbs-lint schema --write-lock [--root DIR]";

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

/// `fbs-lint schema --write-lock`: rewrite `SCHEMA.lock` from a fresh
/// workspace extraction, carrying the read-only layouts over from the
/// current lock. A missing lock is generated from scratch; a lock that
/// exists but does not read or parse is refused (exit 2) untouched,
/// since its frozen read-only layouts cannot be re-derived from source.
fn write_lock(root: &Path) -> ExitCode {
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
    match std::fs::read_to_string(&lock_path) {
        Ok(text) => match parse_lock(&text) {
            Ok(locked) => schema.carry_read_only(&locked),
            Err(e) => {
                eprintln!(
                    "fbs-lint: {e}; refusing to overwrite {}: its read-only layouts would be lost",
                    lock_path.display()
                );
                return ExitCode::from(2);
            }
        },
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
        Err(e) => {
            eprintln!("fbs-lint: reading {}: {e}", lock_path.display());
            return ExitCode::from(2);
        }
    }
    if let Err(e) = std::fs::write(&lock_path, render_lock(&schema)) {
        eprintln!("fbs-lint: writing {}: {e}", lock_path.display());
        return ExitCode::from(2);
    }
    let versions = schema
        .all_versions()
        .iter()
        .map(|v| format!("v{v}"))
        .collect::<Vec<_>>()
        .join(" ");
    eprintln!(
        "fbs-lint: wrote {} ({} impls, versions {versions})",
        lock_path.display(),
        schema.impl_count(),
    );
    ExitCode::SUCCESS
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

    if args.write_lock {
        return write_lock(&root);
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

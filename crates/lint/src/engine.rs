//! Running rules over files and walking the workspace.
//!
//! Two layers run over every file set: the per-file lexical rules
//! ([`crate::rules`]), then the workspace semantic rules
//! ([`crate::semantic`]) over the symbol graph assembled from all files
//! at once. A full `--workspace` sweep runs in *complete* mode, which
//! additionally checks registry staleness (absence is only meaningful
//! when every file was seen).

use crate::context::{FileMeta, SourceFile};
use crate::rules::{Finding, RULES};
use crate::semantic::{check_workspace, Anchor};
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// A finding bound to its file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FileFinding {
    /// Workspace-relative path.
    pub path: String,
    pub finding: Finding,
}

impl FileFinding {
    /// `path:line:col: [rule] message` — the human diagnostic line.
    pub fn render(&self) -> String {
        format!(
            "{}:{}:{}: [{}] {}",
            self.path, self.finding.line, self.finding.col, self.finding.rule, self.finding.message
        )
    }
}

/// Result of linting a set of files.
#[derive(Debug, Default)]
pub struct LintRun {
    pub files_checked: usize,
    pub findings: Vec<FileFinding>,
}

impl LintRun {
    /// Whether the tree is clean.
    pub fn is_clean(&self) -> bool {
        self.findings.is_empty()
    }
}

/// Lints one already-analyzed file: runs every applicable rule, then
/// filters by test regions and `allow` pragmas.
pub fn lint_source(file: &SourceFile) -> Vec<Finding> {
    let mut findings = Vec::new();
    for rule in RULES {
        if !(rule.applies)(file) {
            continue;
        }
        let mut raw = Vec::new();
        (rule.check)(file, &mut raw);
        for f in raw {
            if rule.skip_test_regions && file.in_test_region(f.line) {
                continue;
            }
            if file.is_allowed(f.rule, f.line) {
                continue;
            }
            findings.push(f);
        }
    }
    findings.sort_by_key(|f| (f.line, f.col, f.rule));
    findings
}

/// Lints an analyzed file set: per-file lexical rules on each file, then
/// the workspace semantic rules over the symbol graph built from all of
/// them. `complete` marks a full workspace sweep (enables absence checks
/// like registry staleness). Semantic findings anchored to a file pass
/// through its test-region and pragma filters, same as lexical ones;
/// path-anchored findings (stale registry entries, the wire-schema rules)
/// are never filtered.
pub fn lint_sources(files: &[SourceFile], complete: bool) -> LintRun {
    lint_sources_with_lock(files, complete, None)
}

/// [`lint_sources`] plus the wire-schema compatibility gate: when the
/// `SCHEMA.lock` text is supplied, the extraction is diffed against it
/// and `frozen-version-edit` / `schema-lock-drift` findings join the run
/// (on a complete sweep, also a lock that is not the canonical text).
/// `unprobed-version` always runs; without a lockfile no read-only
/// version is frozen, so every one of them counts as dead.
pub fn lint_sources_with_lock(files: &[SourceFile], complete: bool, lock: Option<&str>) -> LintRun {
    let mut run = LintRun {
        files_checked: files.len(),
        findings: Vec::new(),
    };
    for file in files {
        for finding in lint_source(file) {
            run.findings.push(FileFinding {
                path: file.meta.path.clone(),
                finding,
            });
        }
    }
    let graph = crate::graph::build(files);
    let mut semantic = check_workspace(files, &graph, complete);
    semantic.extend(crate::schema::check_schema(files, &graph, lock, complete));
    for sf in semantic {
        match sf.anchor {
            Anchor::File(i) => {
                let file = &files[i];
                if file.in_test_region(sf.finding.line)
                    || file.is_allowed(sf.finding.rule, sf.finding.line)
                {
                    continue;
                }
                run.findings.push(FileFinding {
                    path: file.meta.path.clone(),
                    finding: sf.finding,
                });
            }
            Anchor::Path(path) => run.findings.push(FileFinding {
                path,
                finding: sf.finding,
            }),
        }
    }
    run.findings.sort_by(|a, b| {
        (&a.path, a.finding.line, a.finding.col, a.finding.rule).cmp(&(
            &b.path,
            b.finding.line,
            b.finding.col,
            b.finding.rule,
        ))
    });
    run
}

/// Lints the bytes of one file at a workspace-relative path. Semantic
/// rules run over the single-file graph (staleness checks stay off).
pub fn lint_bytes(rel_path: &str, src: Vec<u8>) -> Vec<Finding> {
    let file = SourceFile::analyze(FileMeta::infer(rel_path), src);
    lint_sources(std::slice::from_ref(&file), false)
        .findings
        .into_iter()
        .map(|f| f.finding)
        .collect()
}

/// [`lint_bytes`] with a `SCHEMA.lock` text, so fixtures can exercise the
/// lockfile-dependent schema rules (`frozen-version-edit`,
/// `schema-lock-drift`) against a known frozen baseline.
pub fn lint_bytes_with_lock(rel_path: &str, src: Vec<u8>, lock: &str) -> Vec<Finding> {
    let file = SourceFile::analyze(FileMeta::infer(rel_path), src);
    lint_sources_with_lock(std::slice::from_ref(&file), false, Some(lock))
        .findings
        .into_iter()
        .map(|f| f.finding)
        .collect()
}

/// Directories never descended into. `fixtures` holds the linter's own
/// deliberate-violation corpus; `target` and VCS metadata are not source;
/// `vendor` holds offline stand-ins for third-party crates, which are not
/// subject to workspace invariants.
fn skip_dir(rel: &str, name: &str) -> bool {
    matches!(name, "target" | ".git" | ".github" | "node_modules")
        || (rel == "crates/lint" && name == "fixtures")
        || (rel.is_empty() && name == "vendor")
}

/// Collects every `.rs` file under `root` in deterministic (sorted) order.
pub fn collect_rs_files(root: &Path) -> io::Result<Vec<PathBuf>> {
    let mut files = Vec::new();
    let mut stack = vec![(root.to_path_buf(), String::new())];
    while let Some((dir, rel)) = stack.pop() {
        let mut entries: Vec<_> = fs::read_dir(&dir)?
            .collect::<io::Result<Vec<_>>>()?
            .into_iter()
            .map(|e| e.path())
            .collect();
        entries.sort();
        for path in entries {
            let name = path
                .file_name()
                .map(|n| n.to_string_lossy().into_owned())
                .unwrap_or_default();
            let child_rel = if rel.is_empty() {
                name.clone()
            } else {
                format!("{rel}/{name}")
            };
            if path.is_dir() {
                if !skip_dir(&rel, &name) {
                    stack.push((path, child_rel));
                }
            } else if name.ends_with(".rs") {
                files.push(path);
            }
        }
    }
    files.sort();
    Ok(files)
}

/// Lints every Rust source file under `root` (the workspace): all files
/// are analyzed up front so the semantic rules see the whole symbol
/// graph, and complete-sweep absence checks are enabled. The wire-schema
/// compatibility gate runs against the root's `SCHEMA.lock`; a missing
/// lock is itself a finding once the workspace has a wire type.
pub fn lint_workspace(root: &Path) -> io::Result<LintRun> {
    let files = analyze_workspace(root)?;
    let lock = fs::read_to_string(root.join("SCHEMA.lock")).ok();
    Ok(lint_sources_with_lock(&files, true, lock.as_deref()))
}

/// Reads and analyzes every workspace source file (the shared front half
/// of [`lint_workspace`] and `schema --write-lock`).
pub fn analyze_workspace(root: &Path) -> io::Result<Vec<SourceFile>> {
    let mut files = Vec::new();
    for path in collect_rs_files(root)? {
        let rel = path
            .strip_prefix(root)
            .unwrap_or(&path)
            .to_string_lossy()
            .replace('\\', "/");
        let src = fs::read(&path)?;
        files.push(SourceFile::analyze(FileMeta::infer(&rel), src));
    }
    Ok(files)
}

/// Walks upward from `start` to the directory whose `Cargo.toml` declares
/// `[workspace]`.
pub fn find_workspace_root(start: &Path) -> Option<PathBuf> {
    let mut dir = Some(start.to_path_buf());
    while let Some(d) = dir {
        let manifest = d.join("Cargo.toml");
        if let Ok(text) = fs::read_to_string(&manifest) {
            if text.contains("[workspace]") {
                return Some(d);
            }
        }
        dir = d.parent().map(Path::to_path_buf);
    }
    None
}

/// Escapes a string for JSON output.
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Renders a run as a JSON document (hand-rolled: the linter is
/// dependency-free by design).
pub fn render_json(run: &LintRun) -> String {
    let mut out = String::from("{\n  \"files_checked\": ");
    out.push_str(&run.files_checked.to_string());
    out.push_str(",\n  \"violations\": [");
    for (i, f) in run.findings.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "\n    {{\"file\": \"{}\", \"line\": {}, \"col\": {}, \"rule\": \"{}\", \"message\": \"{}\"}}",
            json_escape(&f.path),
            f.finding.line,
            f.finding.col,
            f.finding.rule,
            json_escape(&f.finding.message)
        ));
    }
    if !run.findings.is_empty() {
        out.push_str("\n  ");
    }
    out.push_str("]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clean_file_produces_no_findings() {
        let src = b"#![forbid(unsafe_code)]\npub fn add(a: u32, b: u32) -> u32 { a + b }\n";
        assert!(lint_bytes("crates/core/src/lib.rs", src.to_vec()).is_empty());
    }

    #[test]
    fn pragma_suppresses_and_its_absence_fires() {
        let dirty = b"fn f() -> u32 { OPT.unwrap() }\n".to_vec();
        let hits = lint_bytes("crates/core/src/x.rs", dirty);
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].rule, "panic-in-pipeline");

        let excused =
            b"fn f() -> u32 { OPT.unwrap() } // fbs-lint: allow(panic-in-pipeline) static\n"
                .to_vec();
        assert!(lint_bytes("crates/core/src/x.rs", excused).is_empty());
    }

    #[test]
    fn json_escapes_and_renders() {
        let mut run = LintRun {
            files_checked: 1,
            findings: vec![FileFinding {
                path: "a\"b.rs".into(),
                finding: crate::rules::Finding {
                    rule: "wall-clock",
                    line: 3,
                    col: 7,
                    message: "tab\there".into(),
                },
            }],
        };
        let json = render_json(&run);
        assert!(json.contains("a\\\"b.rs"));
        assert!(json.contains("tab\\there"));
        run.findings.clear();
        assert!(render_json(&run).contains("\"violations\": []"));
    }
}

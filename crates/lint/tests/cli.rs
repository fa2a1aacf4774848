//! CLI-level tests: the `--list-rules` output is pinned to a golden
//! file, so a rule cannot ship (or change meaning) without the diff
//! showing up in review — and every registered rule must appear in it;
//! and `schema --write-lock` never destroys a lock it cannot read.

#![forbid(unsafe_code)]

use std::path::{Path, PathBuf};
use std::process::Command;

fn list_rules_output() -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_fbs-lint"))
        .arg("--list-rules")
        .output()
        .expect("run fbs-lint --list-rules");
    assert!(out.status.success(), "--list-rules exited nonzero");
    String::from_utf8(out.stdout).expect("utf-8 output")
}

#[test]
fn list_rules_matches_the_golden_file() {
    let golden_path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("list_rules.golden");
    let golden = std::fs::read_to_string(&golden_path)
        .unwrap_or_else(|e| panic!("{}: {e}", golden_path.display()));
    let actual = list_rules_output();
    assert_eq!(
        actual, golden,
        "--list-rules drifted from tests/list_rules.golden; \
         if the change is intentional, regenerate the golden file"
    );
}

#[test]
fn every_registered_rule_is_listed() {
    let actual = list_rules_output();
    let lexical = fbs_lint::RULES.iter().map(|r| r.name);
    let semantic = fbs_lint::SEMANTIC_RULES.iter().map(|r| r.name);
    for name in lexical.chain(semantic) {
        assert!(
            actual.lines().any(|l| l.trim_start().starts_with(name)),
            "rule `{name}` missing from --list-rules output"
        );
    }
}

/// An empty scratch workspace root for one test.
fn scratch_root(name: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch root");
    dir
}

fn write_lock(root: &Path, extra: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_fbs-lint"))
        .args(["schema", "--write-lock"])
        .args(extra)
        .arg("--root")
        .arg(root)
        .output()
        .expect("run fbs-lint schema --write-lock")
}

#[test]
fn write_lock_refuses_a_lock_it_cannot_parse() {
    let root = scratch_root("write-lock-unparseable");
    let lock = root.join("SCHEMA.lock");
    std::fs::write(&lock, "format 9\n").expect("write lock");
    let out = write_lock(&root, &[]);
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    assert!(String::from_utf8_lossy(&out.stderr).contains("unsupported lock format 9"));
    assert_eq!(
        std::fs::read_to_string(&lock).expect("read lock"),
        "format 9\n"
    );
}

#[test]
fn write_lock_refuses_sweep_flags_and_generates_a_missing_lock() {
    let root = scratch_root("write-lock-missing");
    let src = root.join("crates/types/src");
    std::fs::create_dir_all(&src).expect("create crate");
    std::fs::write(
        src.join("lib.rs"),
        "impl Persist for Pair {\n    fn persist(&self, w: &mut ByteWriter) {\n        w.put_u32(self.a);\n    }\n}\n",
    )
    .expect("write source");
    // A sweep flag is refused, not silently ignored.
    let misused = write_lock(&root, &["--budget-ms", "500"]);
    assert_eq!(misused.status.code(), Some(2), "{misused:?}");
    assert!(!root.join("SCHEMA.lock").exists());
    let out = write_lock(&root, &[]);
    assert!(out.status.success(), "{out:?}");
    let lock = std::fs::read_to_string(root.join("SCHEMA.lock")).expect("lock written");
    assert!(
        lock.contains("\nstruct Pair crates/types/src/lib.rs\n  u32 self.a\n"),
        "{lock}"
    );
}

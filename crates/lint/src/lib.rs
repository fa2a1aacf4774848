//! `fbs-lint` — the workspace invariant linter.
//!
//! The crash-safe campaign work (journaling + resume) made this
//! workspace's headline guarantee *"a resumed campaign is bit-identical
//! to an uninterrupted run"*. That guarantee rests on conventions no
//! compiler checks: randomness flows through named world-RNG domains,
//! library crates never read the wall clock, unordered iteration never
//! reaches persisted bytes or reports, and nothing reachable from the
//! `Campaign` API panics. This crate turns those conventions into a
//! mechanical gate: a dependency-free static-analysis pass with
//! `file:line:col` diagnostics, a `--json` mode, and a non-zero exit for
//! CI.
//!
//! Architecture: nine modules in six layers.
//!
//! * [`lexer`] — a small, *total* Rust lexer (raw strings, byte strings,
//!   nested block comments, char-vs-lifetime disambiguation, shebangs).
//!   Property-tested to never panic and always terminate on arbitrary
//!   bytes.
//! * [`parser`] — a total item-level recursive-descent parser over the
//!   lexer: structs with fields, enums with variants, impl blocks, fn
//!   bodies as token spans. Garbage degrades to missing items, never to
//!   a crash.
//! * [`context`] — per-file scoping: library vs bin vs test vs bench
//!   classification from the path, `#[cfg(test)]` region detection, and
//!   `// fbs-lint: allow(rule)` pragmas.
//! * [`graph`] + [`dataflow`] + [`semantic`] — the workspace symbol
//!   graph (struct → Persist impl → encode/decode bodies, fn → callees,
//!   write/domain/shared-state/float-fold sites), the dataflow substrate
//!   over it (resolved call edges, fixed-point transitive reachability,
//!   and a source→sink shard-order taint pass), and the seven cross-file
//!   rules: `persist-field-drift`, `unregistered-emission`,
//!   `nondet-collection-flow`, `shard-merge-order`,
//!   `rng-domain-collision`, `shared-mutable-in-shard-path`,
//!   `float-reduction-order`.
//! * [`schema`] — static wire-format extraction over the symbol graph:
//!   every `Persist` impl's ordered writes, enum wire tags, and the
//!   written layout of each versioned root (read-only versions keep the
//!   layout the lockfile froze), serialized as the committed
//!   `SCHEMA.lock` and diffed against it by the compatibility rules
//!   `frozen-version-edit`, `unprobed-version`, and `schema-lock-drift`.
//!   These anchor to paths, so no pragma or test region excuses them,
//!   and a complete sweep also requires the lock's canonical text.
//! * [`rules`] + [`engine`] — the lexical rule registry and the driver
//!   that walks the workspace, applies each rule in scope, runs the
//!   semantic pass over the assembled graph, and filters excused lines.
//!
//! Run it as `cargo run -p fbs-lint -- --workspace`; that sweep is also
//! the wire-schema gate (`fbs-lint schema --write-lock` regenerates the
//! lock). Two rules have caught real defects in this tree:
//! `persist-field-drift` (the `FeedKind` codec sides disagreeing on its
//! variants) and `rng-domain-collision` (two call sites drawing the
//! `"faults"` domain); `README.md` keeps that record.

#![forbid(unsafe_code)]

pub mod context;
pub mod dataflow;
pub mod engine;
pub mod graph;
pub mod lexer;
pub mod parser;
pub mod rules;
pub mod schema;
pub mod semantic;

pub use context::{FileKind, FileMeta, SourceFile};
pub use dataflow::{build_call_graph, shard_taint, CallGraph, TaintFinding};
pub use engine::{
    analyze_workspace, collect_rs_files, find_workspace_root, lint_bytes, lint_bytes_with_lock,
    lint_source, lint_sources, lint_sources_with_lock, lint_workspace, render_json, FileFinding,
    LintRun,
};
pub use rules::{rule_by_name, Finding, Rule, EMISSION_FILES, RNG_DOMAINS, RULES};
pub use schema::{
    diff_schemas, extract, parse_lock, render_lock, EditKind, Layout, SchemaEdit, TypeSchema,
    VersionedSchema, WireOp, WireSchema,
};
pub use semantic::{SemanticRule, SEMANTIC_RULES};

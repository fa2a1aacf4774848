//! The rule registry.
//!
//! Every rule is a token-shape pattern plus a scoping predicate. Each one
//! is grounded in a bug class this codebase has actually hit or explicitly
//! guards against (see README "Static analysis & invariants"):
//!
//! * campaigns must be resumable bit-identically, so no wall clocks or
//!   ambient randomness in library code, and no unordered iteration
//!   reaching persisted bytes or reports;
//! * the `Campaign` API must not panic (the `as_pos[&owner]` incident),
//!   so no `unwrap`/`expect`/`panic!`/map-indexing in pipeline crates;
//! * detector math must be NaN-safe, so no `partial_cmp().unwrap()` or
//!   float `==` in signal crates;
//! * every crate root must carry `#![forbid(unsafe_code)]`.

use crate::context::{FileKind, SourceFile};
use crate::lexer::TokenKind;

/// One diagnostic. Positions are 1-based.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    pub rule: &'static str,
    pub line: u32,
    pub col: u32,
    pub message: String,
}

/// A named invariant check.
pub struct Rule {
    /// Stable name, used in diagnostics and `allow(...)` pragmas.
    pub name: &'static str,
    /// One-line description for `--list-rules`.
    pub summary: &'static str,
    /// Whether findings inside `#[cfg(test)]` / `#[test]` regions are
    /// suppressed (true for every rule except whole-file ones).
    pub skip_test_regions: bool,
    /// Scope predicate.
    pub applies: fn(&SourceFile) -> bool,
    /// The check itself; pushes raw findings (pragma/test-region
    /// filtering happens in the engine).
    pub check: fn(&SourceFile, &mut Vec<Finding>),
}

/// Crates whose non-test code must be panic-free: everything on the
/// campaign's measure → journal → apply → report path.
const PIPELINE_CRATES: &[&str] = &["fbs-core", "fbs-signals", "fbs-journal"];

/// Crates holding detector / statistics math, where NaNs are reachable.
const DETECTOR_CRATES: &[&str] = &[
    "fbs-signals",
    "fbs-analysis",
    "fbs-trinocular",
    "fbs-regional",
    "fbs-prober",
];

/// The registry of library files that are allowed to write files: the
/// workspace's emission boundaries. The `unregistered-emission` semantic
/// rule checks this list *both ways* against write sites derived from the
/// AST (`fs::write`, `File::create`, `.write_all`), so an entry here is a
/// verified fact, not a trusted comment.
pub const EMISSION_FILES: &[&str] = &[
    "crates/core/src/dataset.rs",
    "crates/feeds/src/quarantine.rs",
    "crates/journal/src/snapshot.rs",
    "crates/journal/src/wal.rs",
];

/// The registry of world-RNG domain strings: every random decision in
/// the workspace flows through `WorldRng::domain("<literal>")`, and the
/// disjointness of those literals is what keeps the noise streams of
/// independent subsystems (wire faults, feed faults, IBR, vantage
/// faults, world truth) from correlating — the property every
/// "signal X off ⇒ other signals bit-identical" test rests on. The
/// `rng-domain-collision` semantic rule checks this list *both ways*
/// against `domain(…)` call sites found in library code: an unlisted
/// literal is a violation, a listed literal with no live call site is
/// stale, a literal used at two independent call sites is a collision,
/// and a computed (non-literal) argument defeats the check entirely, so
/// it is flagged unless justified with a pragma. Keep sorted.
pub const RNG_DOMAINS: &[&str] = &[
    "delegations",
    "delegations-2025",
    "faults",
    "feeds",
    "geo",
    "hosts",
    "ibr",
    "power",
    "scenario",
    "shards",
    "v6",
    "vantage-faults",
];

/// Files that render report/dataset *content* into strings handed to the
/// writers above, without necessarily naming the `Persist` codec: string
/// formatting is still an emission boundary where iteration order becomes
/// output bytes, so `unordered-persist` covers them too.
pub const RENDER_FILES: &[&str] = &["crates/analysis/src/emit.rs", "crates/core/src/report.rs"];

/// The ordered-merge surface: files that fold per-shard or per-vantage
/// results into one and never name the codec. The fold must be order-free
/// or roster-ordered — never keyed on a hash-ordered container — or shard
/// or vantage order leaks into detection input, checkpoints and reports,
/// so `unordered-persist` covers these files too. `shard.rs` reduces the
/// supervised shards' outcomes and `fusion.rs` holds `fuse_block`; the
/// roster fold that calls it, `Quorum::fuse` in `pipeline.rs`, is covered
/// because that file names `Persist`. Nothing checks this list against
/// the code, so an entry must name a file that folds.
pub const MERGE_FILES: &[&str] = &["crates/core/src/shard.rs", "crates/signals/src/fusion.rs"];

/// The registry, in diagnostic-priority order.
pub const RULES: &[Rule] = &[
    Rule {
        name: "wall-clock",
        summary: "no SystemTime::now / Instant::now in library crates (breaks resume determinism)",
        skip_test_regions: true,
        applies: |f| f.meta.kind == FileKind::Library,
        check: check_wall_clock,
    },
    Rule {
        name: "ambient-rng",
        summary: "no thread_rng / from_entropy / rand::random outside the world-RNG domains API",
        skip_test_regions: true,
        applies: |f| matches!(f.meta.kind, FileKind::Library | FileKind::Bin),
        check: check_ambient_rng,
    },
    Rule {
        name: "unordered-persist",
        summary: "no HashMap/HashSet in files that feed Persist bytes or report emission",
        skip_test_regions: true,
        applies: |f| {
            f.meta.kind == FileKind::Library
                && (f.mentions_ident("Persist")
                    || f.mentions_ident("ByteWriter")
                    || EMISSION_FILES.contains(&f.meta.path.as_str())
                    || RENDER_FILES.contains(&f.meta.path.as_str())
                    || MERGE_FILES.contains(&f.meta.path.as_str()))
        },
        check: check_unordered_persist,
    },
    Rule {
        name: "panic-in-pipeline",
        summary: "no unwrap/expect/panic!/map-indexing in non-test code of the pipeline crates",
        skip_test_regions: true,
        applies: |f| {
            f.meta.kind == FileKind::Library
                && PIPELINE_CRATES.contains(&f.meta.crate_name.as_str())
        },
        check: check_panic_in_pipeline,
    },
    Rule {
        name: "nan-unsafe-cmp",
        summary: "no partial_cmp().unwrap() or float == in detector math (NaN poisons ordering)",
        skip_test_regions: true,
        applies: |f| {
            f.meta.kind == FileKind::Library
                && DETECTOR_CRATES.contains(&f.meta.crate_name.as_str())
        },
        check: check_nan_unsafe_cmp,
    },
    Rule {
        name: "missing-forbid-unsafe",
        summary: "every crate root must carry #![forbid(unsafe_code)]",
        skip_test_regions: false,
        applies: |f| f.meta.is_crate_root && f.meta.kind != FileKind::Test,
        check: check_missing_forbid_unsafe,
    },
];

/// Looks up a rule by name.
pub fn rule_by_name(name: &str) -> Option<&'static Rule> {
    RULES.iter().find(|r| r.name == name)
}

fn finding(f: &SourceFile, rule: &'static str, sig_idx: usize, message: String) -> Finding {
    let t = f.sig_token(sig_idx);
    Finding {
        rule,
        line: t.line,
        col: t.col,
        message,
    }
}

/// `SystemTime::now()` / `Instant::now()`: a library crate that reads the
/// wall clock produces different state on replay, which breaks the
/// "resume is bit-identical" guarantee.
fn check_wall_clock(f: &SourceFile, out: &mut Vec<Finding>) {
    let src = &f.src;
    for i in 0..f.sig_len().saturating_sub(2) {
        let (a, b, c) = (f.sig_token(i), f.sig_token(i + 1), f.sig_token(i + 2));
        let is_clock_type = a.is_ident(src, "SystemTime") || a.is_ident(src, "Instant");
        if is_clock_type && b.is_punct(src, "::") && c.is_ident(src, "now") {
            let name = String::from_utf8_lossy(a.bytes(src)).into_owned();
            out.push(finding(
                f,
                "wall-clock",
                i,
                format!(
                    "{name}::now() in a library crate: wall-clock reads differ on replay, \
                     breaking resume determinism; derive times from Round/Timestamp instead"
                ),
            ));
        }
    }
}

/// Ambient randomness: every random decision must flow through the seeded
/// world-RNG domains (`WorldRng::domain`), or two runs of the same
/// campaign diverge.
fn check_ambient_rng(f: &SourceFile, out: &mut Vec<Finding>) {
    let src = &f.src;
    for i in 0..f.sig_len() {
        let t = f.sig_token(i);
        for name in ["thread_rng", "from_entropy", "OsRng"] {
            if t.is_ident(src, name) {
                out.push(finding(
                    f,
                    "ambient-rng",
                    i,
                    format!(
                        "{name} is ambient randomness: seed through WorldRng::domain(...) \
                         so campaigns stay reproducible"
                    ),
                ));
            }
        }
        if i + 2 < f.sig_len()
            && t.is_ident(src, "rand")
            && f.sig_token(i + 1).is_punct(src, "::")
            && f.sig_token(i + 2).is_ident(src, "random")
        {
            out.push(finding(
                f,
                "ambient-rng",
                i,
                "rand::random() is ambient randomness: seed through WorldRng::domain(...)"
                    .to_string(),
            ));
        }
    }
}

/// `HashMap`/`HashSet` in a file that produces `Persist` bytes or report
/// output: iteration order is randomized per process, so the same state
/// could serialize to different bytes — undetectable until a resumed
/// campaign's report fails a byte-for-byte comparison.
fn check_unordered_persist(f: &SourceFile, out: &mut Vec<Finding>) {
    let src = &f.src;
    for i in 0..f.sig_len() {
        let t = f.sig_token(i);
        for name in ["HashMap", "HashSet"] {
            if t.is_ident(src, name) {
                let ordered = if name == "HashMap" {
                    "BTreeMap"
                } else {
                    "BTreeSet"
                };
                out.push(finding(
                    f,
                    "unordered-persist",
                    i,
                    format!(
                        "{name} in a file that feeds Persist/report bytes: iteration order \
                         can leak into output; use {ordered} or sort at the emission boundary"
                    ),
                ));
            }
        }
    }
}

/// Panics reachable from the `Campaign` API. Four shapes:
/// `.unwrap(`, `.expect(`, panicking macros, and `map[&key]` indexing —
/// the exact shape of the historical `as_pos[&b.owner]` crash.
fn check_panic_in_pipeline(f: &SourceFile, out: &mut Vec<Finding>) {
    let src = &f.src;
    let n = f.sig_len();
    for i in 0..n {
        let t = f.sig_token(i);
        // `.unwrap(` / `.expect(`
        if i >= 1
            && i + 1 < n
            && (t.is_ident(src, "unwrap") || t.is_ident(src, "expect"))
            && f.sig_token(i - 1).is_punct(src, ".")
            && f.sig_token(i + 1).is_punct(src, "(")
        {
            let name = String::from_utf8_lossy(t.bytes(src)).into_owned();
            out.push(finding(
                f,
                "panic-in-pipeline",
                i,
                format!(
                    ".{name}() can panic in a pipeline crate: return a typed FbsError \
                     (see the as_pos precedent), or justify with an allow pragma"
                ),
            ));
        }
        // `panic!` and friends.
        if i + 1 < n && f.sig_token(i + 1).is_punct(src, "!") {
            for name in ["panic", "unreachable", "todo", "unimplemented"] {
                if t.is_ident(src, name) {
                    out.push(finding(
                        f,
                        "panic-in-pipeline",
                        i,
                        format!(
                            "{name}! aborts the campaign: return a typed FbsError, or \
                             justify with an allow pragma"
                        ),
                    ));
                }
            }
        }
        // `expr[&key]` — indexing with a borrowed key is map indexing,
        // which panics on a missing entry (the as_pos incident). After a
        // keyword (`for p in [&a, &b]`, `&mut [&str]`) the `[` opens an
        // array or a slice type, not an index.
        if i >= 1 && i + 1 < n && t.is_punct(src, "[") && f.sig_token(i + 1).is_punct(src, "&") {
            let prev = f.sig_token(i - 1);
            let indexable = (prev.kind == TokenKind::Ident && !is_keyword(prev.bytes(src)))
                || prev.is_punct(src, ")")
                || prev.is_punct(src, "]");
            if indexable {
                out.push(finding(
                    f,
                    "panic-in-pipeline",
                    i,
                    "map indexing with a borrowed key panics on missing entries \
                     (the as_pos incident); use .get() and handle None"
                        .to_string(),
                ));
            }
        }
    }
}

/// Whether an identifier token is a Rust keyword that cannot be indexed.
/// `self`, `Self` and `.await` can be, so they are left out.
fn is_keyword(ident: &[u8]) -> bool {
    matches!(
        ident,
        b"as"
            | b"async"
            | b"break"
            | b"const"
            | b"continue"
            | b"crate"
            | b"dyn"
            | b"else"
            | b"enum"
            | b"extern"
            | b"false"
            | b"fn"
            | b"for"
            | b"if"
            | b"impl"
            | b"in"
            | b"let"
            | b"loop"
            | b"match"
            | b"mod"
            | b"move"
            | b"mut"
            | b"pub"
            | b"ref"
            | b"return"
            | b"static"
            | b"struct"
            | b"super"
            | b"trait"
            | b"true"
            | b"type"
            | b"unsafe"
            | b"use"
            | b"where"
            | b"while"
            | b"yield"
    )
}

/// NaN-hostile comparisons in detector math: `partial_cmp(...).unwrap()`
/// panics the moment a NaN reaches a sort, and float `==` silently turns
/// NaN into `false`, corrupting threshold decisions.
fn check_nan_unsafe_cmp(f: &SourceFile, out: &mut Vec<Finding>) {
    let src = &f.src;
    let n = f.sig_len();
    for i in 0..n {
        let t = f.sig_token(i);
        if t.is_ident(src, "partial_cmp") {
            // Skip trait-impl definitions (`fn partial_cmp(...)`).
            if i >= 1 && f.sig_token(i - 1).is_ident(src, "fn") {
                continue;
            }
            // `partial_cmp(x).unwrap()` — the unwrap follows within the
            // same call chain, a handful of tokens away.
            let horizon = (i + 12).min(n);
            for j in i + 1..horizon {
                let u = f.sig_token(j);
                if (u.is_ident(src, "unwrap") || u.is_ident(src, "expect"))
                    && j >= 1
                    && f.sig_token(j - 1).is_punct(src, ".")
                {
                    out.push(finding(
                        f,
                        "nan-unsafe-cmp",
                        i,
                        "partial_cmp().unwrap() panics on NaN: use f64::total_cmp \
                         for ordering floats"
                            .to_string(),
                    ));
                    break;
                }
                if u.is_punct(src, ";") || u.is_punct(src, "{") {
                    break;
                }
            }
        }
        // Float literal on either side of `==` / `!=`.
        if t.kind == TokenKind::Punct && (t.is(src, "==") || t.is(src, "!=")) {
            let float_beside = (i >= 1 && f.sig_token(i - 1).kind == TokenKind::Float)
                || (i + 1 < n && f.sig_token(i + 1).kind == TokenKind::Float);
            if float_beside {
                out.push(finding(
                    f,
                    "nan-unsafe-cmp",
                    i,
                    "float equality in detector math is NaN-hostile and precision-fragile: \
                     compare with a tolerance, or justify with an allow pragma"
                        .to_string(),
                ));
            }
        }
    }
}

/// `#![forbid(unsafe_code)]` must appear in every crate root, so unsafe
/// cannot creep in anywhere without a visible, reviewed policy change.
fn check_missing_forbid_unsafe(f: &SourceFile, out: &mut Vec<Finding>) {
    let src = &f.src;
    let n = f.sig_len();
    for i in 0..n.saturating_sub(7) {
        if f.sig_token(i).is_punct(src, "#")
            && f.sig_token(i + 1).is_punct(src, "!")
            && f.sig_token(i + 2).is_punct(src, "[")
            && f.sig_token(i + 3).is_ident(src, "forbid")
            && f.sig_token(i + 4).is_punct(src, "(")
            && f.sig_token(i + 5).is_ident(src, "unsafe_code")
            && f.sig_token(i + 6).is_punct(src, ")")
            && f.sig_token(i + 7).is_punct(src, "]")
        {
            return;
        }
    }
    out.push(Finding {
        rule: "missing-forbid-unsafe",
        line: 1,
        col: 1,
        message: "crate root lacks #![forbid(unsafe_code)]: add it so unsafe cannot \
                  creep in without a reviewed policy change"
            .to_string(),
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The exact domain set is pinned: adding a signal whose noise needs
    /// its own stream means registering the new domain *here*, in the
    /// same reviewed diff that introduces the `domain("…")` call —
    /// otherwise the workspace sweep fails on the unregistered literal.
    #[test]
    fn rng_domain_registry_is_pinned_sorted_and_distinct() {
        assert_eq!(
            RNG_DOMAINS,
            [
                "delegations",
                "delegations-2025",
                "faults",
                "feeds",
                "geo",
                "hosts",
                "ibr",
                "power",
                "scenario",
                "shards",
                "v6",
                "vantage-faults",
            ]
        );
        let mut sorted = RNG_DOMAINS.to_vec();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted, RNG_DOMAINS, "registry must be sorted and distinct");
    }

    /// The emission registry shares the same discipline.
    #[test]
    fn emission_registry_is_sorted_and_distinct() {
        let mut sorted = EMISSION_FILES.to_vec();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted, EMISSION_FILES);
    }
}

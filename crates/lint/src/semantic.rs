//! The semantic rules: cross-file invariants over the symbol graph.
//!
//! The lexical rules ([`crate::rules`]) pattern-match token shapes inside
//! one file; these rules reason about relationships the token stream
//! cannot express — a struct defined in one file and serialized in
//! another, a write site that the emission registry never heard of, a
//! `HashMap` transitively reachable from an encoder, shard-ordered data
//! reaching a sink without an ordering step. They run over the
//! [`crate::graph::SymbolGraph`] assembled from every analyzed file and
//! the [`crate::dataflow`] substrate built on top of it (resolved call
//! edges, fixed-point reachability, taint).
//!
//! Findings anchor to real positions ([`Anchor::File`]), so the engine
//! can apply the same pragma and test-region filtering as lexical rules.
//! The one exception is a *stale registry entry* — a path with no code
//! behind it — which anchors to the path itself ([`Anchor::Path`]) and
//! only fires on a complete workspace sweep. (The wire-schema rules in
//! [`crate::schema`] anchor to paths too.)

use crate::context::SourceFile;
use crate::dataflow::{build_call_graph, shard_taint, CallGraph};
use crate::graph::{is_library, FnNode, SymbolGraph};
use crate::lexer::TokenKind;
use crate::parser::Span;
use crate::rules::{Finding, EMISSION_FILES, RNG_DOMAINS};
use std::collections::{BTreeMap, BTreeSet};

/// Metadata for a workspace-level rule (the check itself lives in
/// [`check_workspace`] — except the three wire-schema rules, implemented
/// in [`crate::schema`] and run by the engine alongside this pass; these
/// entries feed `--list-rules` and the fixture completeness test).
pub struct SemanticRule {
    pub name: &'static str,
    pub summary: &'static str,
}

/// The semantic registry, in diagnostic-priority order.
pub const SEMANTIC_RULES: &[SemanticRule] = &[
    SemanticRule {
        name: "persist-field-drift",
        summary: "every field of a Persist struct must appear in both persist() and restore(), in the same order; enum variants must be covered by both",
    },
    SemanticRule {
        name: "unregistered-emission",
        summary: "file-writing call sites in library code must match the EMISSION_FILES registry (checked both ways)",
    },
    SemanticRule {
        name: "nondet-collection-flow",
        summary: "no HashMap/HashSet in any function transitively reachable from encode/write/emit surfaces (iteration order leaks into bytes)",
    },
    SemanticRule {
        name: "shard-merge-order",
        summary: "values produced by sharded/fan-out iteration must pass a deterministic ordering step before reaching a persist/emit/merge sink",
    },
    SemanticRule {
        name: "rng-domain-collision",
        summary: "WorldRng::domain() arguments must be string literals, workspace-unique, and listed in the RNG_DOMAINS registry (checked both ways)",
    },
    SemanticRule {
        name: "shared-mutable-in-shard-path",
        summary: "no Mutex/RwLock/RefCell/Cell/static-mut/Relaxed atomics in functions transitively reachable from measure_round/apply_round",
    },
    SemanticRule {
        name: "float-reduction-order",
        summary: "no order-sensitive f64 sum/product/additive-fold in functions transitively reachable from emission surfaces",
    },
    SemanticRule {
        name: "frozen-version-edit",
        summary: "wire layouts frozen in SCHEMA.lock (written and read-only versions alike) must not be reordered, retyped, removed, or retagged, and no accepted version may be dropped; breaking edits ship behind a new version tag",
    },
    SemanticRule {
        name: "unprobed-version",
        summary: "every schema version a versioned encoder writes must be accepted by its decoder, and every accepted version must be written or frozen read-only in SCHEMA.lock (a written-but-unreadable version strands checkpoints)",
    },
    SemanticRule {
        name: "schema-lock-drift",
        summary: "the statically extracted wire schema must match the committed SCHEMA.lock (regenerate with `fbs-lint schema --write-lock`)",
    },
];

/// Where a semantic finding lives.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Anchor {
    /// Index into the analyzed file set — filtered by that file's pragmas
    /// and test regions like any lexical finding.
    File(usize),
    /// A workspace-relative path, exempt from pragma and test-region
    /// filtering: stale registry entries (no analyzed file behind them)
    /// and every wire-schema finding (no pragma may excuse a break).
    Path(String),
}

/// One semantic finding plus its anchor.
#[derive(Debug, Clone)]
pub struct SemanticFinding {
    pub anchor: Anchor,
    pub finding: Finding,
}

/// The dataflow context shared by every reachability-based rule: the
/// resolved call graph, plus the sink-reachability closure (which fn is
/// transitively reachable from which emission/persistence sink, and why).
/// Built once per [`check_workspace`] call.
struct Flow {
    cg: CallGraph,
    /// Fn indices of every sink root, in graph order.
    sink_roots: Vec<usize>,
    /// `sink_reasons[i]` explains why `sink_roots[i]` is a sink.
    sink_reasons: Vec<String>,
    /// For every fn: index into `sink_roots` of the first sink reaching it.
    sink_reach: Vec<Option<usize>>,
}

impl Flow {
    fn build(files: &[SourceFile], g: &SymbolGraph) -> Flow {
        let cg = build_call_graph(files, g);
        let mut sink_roots = Vec::new();
        let mut sink_reasons = Vec::new();
        for (i, f) in g.fns.iter().enumerate() {
            if !is_library(&files[f.file]) {
                continue;
            }
            if let Some(reason) = sink_reason(f) {
                sink_roots.push(i);
                sink_reasons.push(reason);
            }
        }
        let sink_reach = cg.reach_from(&sink_roots);
        Flow {
            cg,
            sink_roots,
            sink_reasons,
            sink_reach,
        }
    }

    /// How fn `i` relates to the sink surface: `None` if unreachable,
    /// otherwise a phrase for diagnostics — either the sink's own reason
    /// (when `i` *is* the sink) or "`helper`, transitively reachable from
    /// <reason>".
    fn sink_context(&self, g: &SymbolGraph, i: usize) -> Option<String> {
        let ri = self.sink_reach[i]?;
        if self.sink_roots[ri] == i {
            Some(self.sink_reasons[ri].clone())
        } else {
            Some(format!(
                "`{}`, transitively reachable from {}",
                g.fns[i].name, self.sink_reasons[ri]
            ))
        }
    }
}

/// Runs all seven semantic rules. `complete` marks a full workspace sweep,
/// which is the only mode where *absence* is meaningful (a registry entry
/// with no live call sites is stale on a sweep, unknowable on a file
/// subset).
pub fn check_workspace(
    files: &[SourceFile],
    g: &SymbolGraph,
    complete: bool,
) -> Vec<SemanticFinding> {
    let flow = Flow::build(files, g);
    let mut out = Vec::new();
    check_persist_field_drift(files, g, &mut out);
    check_unregistered_emission(files, g, complete, &mut out);
    check_nondet_collection_flow(files, g, &flow, &mut out);
    check_shard_merge_order(files, g, &flow, &mut out);
    check_rng_domain_collision(files, g, complete, &mut out);
    check_shared_mutable_in_shard_path(files, g, &flow, &mut out);
    check_float_reduction_order(files, g, &flow, &mut out);
    out
}

fn push(
    out: &mut Vec<SemanticFinding>,
    file: usize,
    rule: &'static str,
    line: u32,
    col: u32,
    message: String,
) {
    out.push(SemanticFinding {
        anchor: Anchor::File(file),
        finding: Finding {
            rule,
            line,
            col,
            message,
        },
    });
}

/// First-occurrence order of `self.<field>` references in a body span.
fn self_field_order(file: &SourceFile, span: Span, names: &BTreeSet<String>) -> Vec<String> {
    let src = &file.src;
    let hi = span.hi.min(file.sig_len());
    let lo = span.lo.min(hi);
    let mut order: Vec<String> = Vec::new();
    for i in lo..hi.saturating_sub(2) {
        if !file.sig_token(i).is_ident(src, "self") || !file.sig_token(i + 1).is_punct(src, ".") {
            continue;
        }
        let t = file.sig_token(i + 2);
        if t.kind != TokenKind::Ident {
            continue;
        }
        let name = String::from_utf8_lossy(t.bytes(src)).into_owned();
        if names.contains(&name) && !order.iter().any(|n| n == &name) {
            order.push(name);
        }
    }
    order
}

/// First-occurrence order of bare mentions of `names` in a body span —
/// catches struct-literal fields, `let` bindings, and shorthand init.
fn mention_order(file: &SourceFile, span: Span, names: &BTreeSet<String>) -> Vec<String> {
    let src = &file.src;
    let mut order: Vec<String> = Vec::new();
    for (_, t) in file.span_tokens(span) {
        if t.kind != TokenKind::Ident {
            continue;
        }
        let name = String::from_utf8_lossy(t.bytes(src)).into_owned();
        if names.contains(&name) && !order.iter().any(|n| n == &name) {
            order.push(name);
        }
    }
    order
}

/// All idents from `names` mentioned anywhere in a body span.
fn mentions_of(file: &SourceFile, span: Span, names: &BTreeSet<String>) -> BTreeSet<String> {
    mention_order(file, span, names).into_iter().collect()
}

/// `persist-field-drift` — the core resume-correctness rule. For every
/// `impl Persist for T` where `T` resolves to exactly one workspace
/// definition:
///
/// * struct with named fields: every field must be referenced as
///   `self.<field>` in `persist()` and mentioned in `restore()`, and the
///   first-reference order of the two bodies must agree (field-by-field
///   codecs have no tags, so order *is* the wire format);
/// * enum: if either body names any variant, both bodies must name every
///   variant (an all-index codec mentions none on both sides — that
///   symmetric style is accepted).
///
/// Tuple structs are skipped: `self.0` and positional construction carry
/// no names to cross-check.
fn check_persist_field_drift(
    files: &[SourceFile],
    g: &SymbolGraph,
    out: &mut Vec<SemanticFinding>,
) {
    const RULE: &str = "persist-field-drift";
    for pi in &g.persist_impls {
        let file = &files[pi.file];
        if !is_library(file) {
            continue;
        }
        let (Some(enc), Some(dec)) = (pi.encode, pi.decode) else {
            continue;
        };
        if let Some(r) = g.unique_struct(&pi.type_name) {
            let s = &files[r.file].ast.structs[r.item];
            if s.tuple || s.fields.is_empty() {
                continue;
            }
            let names: BTreeSet<String> = s.fields.iter().map(|f| f.name.clone()).collect();
            let enc_order = self_field_order(file, enc, &names);
            let dec_order = mention_order(file, dec, &names);
            let mut complete = true;
            for f in &s.fields {
                if !enc_order.contains(&f.name) {
                    complete = false;
                    push(out, pi.file, RULE, pi.line, pi.col, format!(
                        "field `{}` of `{}` is never encoded in persist(): a resumed campaign would silently drop it",
                        f.name, pi.type_name
                    ));
                }
                if !dec_order.contains(&f.name) {
                    complete = false;
                    push(out, pi.file, RULE, pi.line, pi.col, format!(
                        "field `{}` of `{}` is never assigned in restore(): decode has drifted from encode",
                        f.name, pi.type_name
                    ));
                }
            }
            if complete && enc_order != dec_order {
                push(out, pi.file, RULE, pi.line, pi.col, format!(
                    "persist() and restore() touch the fields of `{}` in different orders ([{}] vs [{}]): field-by-field codecs have no tags, so bytes land in the wrong fields",
                    pi.type_name,
                    enc_order.join(", "),
                    dec_order.join(", ")
                ));
            }
        } else if let Some(r) = g.unique_enum(&pi.type_name) {
            let e = &files[r.file].ast.enums[r.item];
            if e.variants.is_empty() {
                continue;
            }
            let names: BTreeSet<String> = e.variants.iter().map(|v| v.name.clone()).collect();
            let enc_seen = mentions_of(file, enc, &names);
            let dec_seen = mentions_of(file, dec, &names);
            if enc_seen.is_empty() && dec_seen.is_empty() {
                continue; // symmetric index-based codec
            }
            for v in &e.variants {
                for (side, seen) in [("persist()", &enc_seen), ("restore()", &dec_seen)] {
                    if !seen.contains(&v.name) {
                        push(out, pi.file, RULE, pi.line, pi.col, format!(
                            "variant `{}` of `{}` is not covered in {side}: the codec sides disagree on the variant set",
                            v.name, pi.type_name
                        ));
                    }
                }
            }
        }
    }
}

/// `unregistered-emission` — the `EMISSION_FILES` registry is derived
/// facts, not trust: every file-writing call site found in library code
/// must live in a registered file (direction A), and on a complete sweep
/// every registered file must still contain at least one write site
/// (direction B, staleness).
fn check_unregistered_emission(
    files: &[SourceFile],
    g: &SymbolGraph,
    complete: bool,
    out: &mut Vec<SemanticFinding>,
) {
    const RULE: &str = "unregistered-emission";
    let mut live_entries: BTreeSet<&str> = BTreeSet::new();
    for f in &g.fns {
        let file = &files[f.file];
        if !is_library(file) || f.write_sites.is_empty() {
            continue;
        }
        let path = file.meta.path.as_str();
        if let Some(entry) = EMISSION_FILES.iter().find(|e| **e == path) {
            live_entries.insert(entry);
            continue;
        }
        for ws in &f.write_sites {
            push(out, f.file, RULE, ws.line, ws.col, format!(
                "{} writes a file, but {path} is not in the EMISSION_FILES registry: register it so emission invariants cover this output",
                ws.callee
            ));
        }
    }
    if complete {
        for entry in EMISSION_FILES {
            if !live_entries.contains(entry) {
                out.push(SemanticFinding {
                    anchor: Anchor::Path((*entry).to_string()),
                    finding: Finding {
                        rule: RULE,
                        line: 1,
                        col: 1,
                        message: format!(
                            "EMISSION_FILES entry `{entry}` has no file-writing call sites: the writes moved or the entry is stale"
                        ),
                    },
                });
            }
        }
    }
}

/// The sink name vocabulary, by kind: a function whose name starts with
/// one of these prefixes is an emission/persistence sink. [`sink_reason`]
/// and `shard-merge-order`'s sink-call test both read it, so a new sink
/// surface reaches every sink-based rule at once.
const SINK_PREFIXES: &[(&str, &[&str])] = &[
    (
        "emission function",
        &["write_", "emit_", "export_", "render_"],
    ),
    // Vantage-fusion and the shard executor's reduce fold feed detection
    // input, checkpoints and reports: hash-ordered iteration there leaks
    // roster/scheduling order into all three.
    ("ordered-merge function", &["fuse_", "merge_", "reduce_"]),
    // The passive signal's ledgers and seasonal predictions feed both the
    // version-4 checkpoint bytes and the ibr_signal.csv emission:
    // hash-ordered iteration in either would leak into persisted state.
    ("passive-signal function", &["ibr_", "predict_"]),
];

/// The sink kind a function name's prefix marks, if any.
fn sink_kind(name: &str) -> Option<&'static str> {
    SINK_PREFIXES
        .iter()
        .find(|(_, prefixes)| prefixes.iter().any(|p| name.starts_with(p)))
        .map(|&(kind, _)| kind)
}

/// Why a function counts as an emission/persistence sink, if it does.
fn sink_reason(f: &FnNode) -> Option<String> {
    if f.impl_trait.as_deref() == Some("Persist") {
        return Some(format!(
            "the Persist impl of `{}`",
            f.impl_type.as_deref().unwrap_or("?")
        ));
    }
    if !f.write_sites.is_empty() {
        return Some(format!("file-writing function `{}`", f.name));
    }
    sink_kind(&f.name).map(|kind| format!("{kind} `{}`", f.name))
}

/// `nondet-collection-flow` — `HashMap`/`HashSet` iteration order is
/// randomized per process, so any such collection inside a function
/// *transitively* reachable from an encode/write/emit surface can leak
/// nondeterministic order into persisted or emitted bytes. PR 5 checked
/// one call-graph hop; the fixed-point closure in [`crate::dataflow`]
/// closes the gap a two-hop helper chain used to slip through.
fn check_nondet_collection_flow(
    files: &[SourceFile],
    g: &SymbolGraph,
    flow: &Flow,
    out: &mut Vec<SemanticFinding>,
) {
    const RULE: &str = "nondet-collection-flow";
    let mut reported: BTreeSet<(usize, u32, u32)> = BTreeSet::new();
    for (i, f) in g.fns.iter().enumerate() {
        if !is_library(&files[f.file]) || f.hash_sites.is_empty() {
            continue;
        }
        let Some(context) = flow.sink_context(g, i) else {
            continue;
        };
        for h in &f.hash_sites {
            if reported.insert((f.file, h.line, h.col)) {
                push(out, f.file, RULE, h.line, h.col, format!(
                    "{} inside {context}: iteration order can leak into persisted/emitted bytes; use BTreeMap/BTreeSet or sort at the boundary",
                    h.collection
                ));
            }
        }
    }
}

/// `shard-merge-order` — ROADMAP item 1's merge-determinism gate. Values
/// produced by sharded/fan-out iteration (`par_iter`, `spawn`, `shard_*`)
/// arrive in scheduling order; if they reach a persistence/emission/merge
/// sink without passing a deterministic ordering step (`sort*`,
/// `BTreeMap` collection, `ordered_*`/`roster_*`), shard timing leaks
/// into bytes the determinism contract pins. The taint pass runs inside
/// every library fn body; "is this call a sink?" consults both the
/// sink-name vocabulary and the workspace call graph (a call to any fn
/// that can reach a sink counts).
fn check_shard_merge_order(
    files: &[SourceFile],
    g: &SymbolGraph,
    flow: &Flow,
    out: &mut Vec<SemanticFinding>,
) {
    const RULE: &str = "shard-merge-order";
    // Names of workspace fns that can reach a sink: calling one of them
    // hands the (possibly unordered) value to the emission surface.
    let mut sinkish: BTreeSet<&str> = BTreeSet::new();
    for (i, f) in g.fns.iter().enumerate() {
        if flow.sink_reach[i].is_some() {
            sinkish.insert(f.name.as_str());
        }
    }
    let is_sink_call = |name: &str| -> bool {
        if crate::dataflow::is_order_step(name) {
            // A deterministic ordering step is the launder this rule asks
            // for — handing a fan-out result *into* one is the required
            // fix, not a violation, even when the step itself feeds a
            // sink (it delivers its caller a slot-ordered value).
            return false;
        }
        sinkish.contains(name) || name == "persist" || sink_kind(name).is_some()
    };
    for f in &g.fns {
        if !is_library(&files[f.file]) {
            continue;
        }
        let Some(body) = f.body else { continue };
        for t in shard_taint(&files[f.file], body, &is_sink_call) {
            // fbs-lint: allow(shard-merge-order) shard_taint is this analyzer's own single-threaded pass, name-matched as a source; findings arrive in body order
            push(out, f.file, RULE, t.line, t.col, format!(
                "results of `{}` reach sink `{}` without a deterministic ordering step: shard scheduling order would leak into persisted/emitted bytes; sort or roster-order them first",
                t.source, t.sink
            ));
        }
    }
}

/// `rng-domain-collision` — the world-RNG determinism contract says every
/// noise stream is addressed by a *distinct, literal* domain string. This
/// rule checks the whole contract against the [`RNG_DOMAINS`] registry:
///
/// * a `domain(<computed>)` argument cannot be audited for uniqueness —
///   flagged unless excused by a pragma explaining the subdomain scheme;
/// * a literal not listed in `RNG_DOMAINS` is unregistered;
/// * the same literal at two or more live call sites correlates two
///   subsystems' draws — every colliding site is flagged;
/// * on a complete sweep, a registry entry with no live call site is
///   stale (anchored at the registry's own file, pragma-exempt).
///
/// Sites inside `#[cfg(test)]` regions are skipped at collection time:
/// tests may legitimately re-draw a production domain to reproduce its
/// stream, and must not count as collisions against the live site.
fn check_rng_domain_collision(
    files: &[SourceFile],
    g: &SymbolGraph,
    complete: bool,
    out: &mut Vec<SemanticFinding>,
) {
    const RULE: &str = "rng-domain-collision";
    // literal → every live call site, in graph order.
    let mut sites: BTreeMap<String, Vec<(usize, u32, u32)>> = BTreeMap::new();
    for f in &g.fns {
        let file = &files[f.file];
        if !is_library(file) {
            continue;
        }
        for d in &f.domain_sites {
            if file.in_test_region(d.line) {
                continue;
            }
            let Some(lit) = d.literal.as_deref() else {
                push(out, f.file, RULE, d.line, d.col, format!(
                    "`{}` derives an RNG domain from a computed value: domain strings must be auditable literals from the RNG_DOMAINS registry, or carry a pragma explaining the subdomain scheme",
                    f.name
                ));
                continue;
            };
            if !RNG_DOMAINS.contains(&lit) {
                push(out, f.file, RULE, d.line, d.col, format!(
                    "RNG domain \"{lit}\" is not in the RNG_DOMAINS registry: register it so the domain namespace stays collision-checked"
                ));
            }
            sites
                .entry(lit.to_string())
                .or_default()
                .push((f.file, d.line, d.col));
        }
    }
    for (lit, locs) in &sites {
        if locs.len() < 2 {
            continue;
        }
        for &(fi, line, col) in locs {
            let others: Vec<String> = locs
                .iter()
                .filter(|&&(of, ol, _)| (of, ol) != (fi, line))
                .map(|&(of, ol, _)| format!("{}:{ol}", files[of].meta.path))
                .collect();
            push(out, fi, RULE, line, col, format!(
                "RNG domain \"{lit}\" is also drawn at {}: two call sites sharing a domain correlate their noise streams; derive the stream once and pass it down",
                others.join(", ")
            ));
        }
    }
    if complete {
        for entry in RNG_DOMAINS {
            if !sites.contains_key(*entry) {
                out.push(SemanticFinding {
                    anchor: Anchor::Path(format!("RNG_DOMAINS[\"{entry}\"]")),
                    finding: Finding {
                        rule: RULE,
                        line: 1,
                        col: 1,
                        message: format!(
                            "RNG_DOMAINS entry \"{entry}\" has no live call site: the draw moved or the entry is stale"
                        ),
                    },
                });
            }
        }
    }
}

/// `shared-mutable-in-shard-path` — the round loop is the surface ROADMAP
/// item 1 shards. Any interior mutability, lock, `static mut`, or relaxed
/// atomic in a function transitively reachable from `measure_round` /
/// `apply_round` makes per-round results depend on thread scheduling the
/// moment rounds run in parallel — before that it is merely latent, which
/// is exactly when it is cheap to fix.
fn check_shared_mutable_in_shard_path(
    files: &[SourceFile],
    g: &SymbolGraph,
    flow: &Flow,
    out: &mut Vec<SemanticFinding>,
) {
    const RULE: &str = "shared-mutable-in-shard-path";
    let mut roots = Vec::new();
    for (i, f) in g.fns.iter().enumerate() {
        if is_library(&files[f.file]) && matches!(f.name.as_str(), "measure_round" | "apply_round")
        {
            roots.push(i);
        }
    }
    if roots.is_empty() {
        return;
    }
    let reach = flow.cg.reach_from(&roots);
    for (i, f) in g.fns.iter().enumerate() {
        if !is_library(&files[f.file]) || f.shared_sites.is_empty() {
            continue;
        }
        let Some(ri) = reach[i] else { continue };
        let root = &g.fns[roots[ri]];
        let context = if roots[ri] == i {
            format!("round entrypoint `{}`", f.name)
        } else {
            format!(
                "`{}`, transitively reachable from round entrypoint `{}`",
                f.name, root.name
            )
        };
        for s in &f.shared_sites {
            push(out, f.file, RULE, s.line, s.col, format!(
                "`{}` inside {context}: shared mutable state makes round results depend on thread scheduling once the round loop shards; thread it through round state or justify with a pragma",
                s.what
            ));
        }
    }
}

/// `float-reduction-order` — float addition is not associative, so a
/// `.sum::<f64>()`, a `.sum()` typed `f64` by its binding or return type,
/// or an additive fold computes different bytes under different
/// accumulation orders. Inside a function reachable from an
/// emission/persistence surface that order *is* the wire format; the
/// sharded engine must either pin it (accumulate in roster order) or the
/// site must carry a pragma recording why the current order is stable.
fn check_float_reduction_order(
    files: &[SourceFile],
    g: &SymbolGraph,
    flow: &Flow,
    out: &mut Vec<SemanticFinding>,
) {
    const RULE: &str = "float-reduction-order";
    for (i, f) in g.fns.iter().enumerate() {
        if !is_library(&files[f.file]) || f.float_folds.is_empty() {
            continue;
        }
        let Some(context) = flow.sink_context(g, i) else {
            continue;
        };
        for ff in &f.float_folds {
            push(out, f.file, RULE, ff.line, ff.col, format!(
                "order-sensitive `{}` inside {context}: float accumulation order changes emitted bytes; accumulate in a pinned (roster) order or justify with a pragma",
                ff.shape
            ));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::{FileMeta, SourceFile};
    use crate::graph::build;

    fn analyze(path: &str, src: &str) -> SourceFile {
        SourceFile::analyze(FileMeta::infer(path), src.as_bytes().to_vec())
    }

    fn run(files: &[SourceFile]) -> Vec<SemanticFinding> {
        let g = build(files);
        check_workspace(files, &g, false)
    }

    fn rules_of(findings: &[SemanticFinding]) -> Vec<&'static str> {
        findings.iter().map(|f| f.finding.rule).collect()
    }

    #[test]
    fn symmetric_struct_codec_is_clean() {
        let f = analyze(
            "crates/types/src/x.rs",
            "pub struct P { a: u32, b: u64 }\n\
             impl Persist for P {\n\
                 fn persist(&self, w: &mut W) { w.put_u32(self.a); w.put_u64(self.b); }\n\
                 fn restore(r: &mut R) -> Result<Self> {\n\
                     Ok(P { a: r.get_u32()?, b: r.get_u64()? })\n\
                 }\n\
             }\n",
        );
        assert!(rules_of(&run(std::slice::from_ref(&f))).is_empty());
    }

    #[test]
    fn missing_decode_field_is_drift() {
        let g = analyze(
            "crates/types/src/y.rs",
            "pub struct Q { a: u32, b: u64 }\n\
             impl Persist for Q {\n\
                 fn persist(&self, w: &mut W) { w.put_u32(self.a); w.put_u64(self.b); }\n\
                 fn restore(r: &mut R) -> Result<Self> { Ok(Q { a: r.get_u32()? }) }\n\
             }\n",
        );
        let findings = run(std::slice::from_ref(&g));
        assert_eq!(rules_of(&findings), ["persist-field-drift"]);
        assert!(findings[0].finding.message.contains("`b`"));
        assert_eq!(findings[0].finding.line, 2);
    }

    #[test]
    fn field_order_mismatch_is_drift() {
        let f = analyze(
            "crates/types/src/x.rs",
            "pub struct P { a: u32, b: u64 }\n\
             impl Persist for P {\n\
                 fn persist(&self, w: &mut W) { w.put_u64(self.b); w.put_u32(self.a); }\n\
                 fn restore(r: &mut R) -> Result<Self> {\n\
                     Ok(P { a: r.get_u32()?, b: r.get_u64()? })\n\
                 }\n\
             }\n",
        );
        let findings = run(std::slice::from_ref(&f));
        assert_eq!(rules_of(&findings), ["persist-field-drift"]);
        assert!(findings[0].finding.message.contains("different orders"));
    }

    #[test]
    fn asymmetric_enum_codec_is_drift_but_index_style_is_clean() {
        let asym = analyze(
            "crates/types/src/x.rs",
            "pub enum K { A, B }\n\
             impl Persist for K {\n\
                 fn persist(&self, w: &mut W) { w.put_u8(self.index()); }\n\
                 fn restore(r: &mut R) -> Result<Self> {\n\
                     Ok(match r.get_u8()? { 0 => K::A, _ => K::B })\n\
                 }\n\
             }\n",
        );
        let findings = run(std::slice::from_ref(&asym));
        assert_eq!(
            rules_of(&findings),
            ["persist-field-drift", "persist-field-drift"]
        );
        let index_both = analyze(
            "crates/types/src/x.rs",
            "pub enum K { A, B }\n\
             impl Persist for K {\n\
                 fn persist(&self, w: &mut W) { w.put_u8(self.index()); }\n\
                 fn restore(r: &mut R) -> Result<Self> { Self::from_index(r.get_u8()?) }\n\
             }\n",
        );
        assert!(rules_of(&run(std::slice::from_ref(&index_both))).is_empty());
    }

    #[test]
    fn cross_file_impl_resolves_to_definition() {
        let def = analyze(
            "crates/types/src/def.rs",
            "pub struct P { a: u32, b: u64 }\n",
        );
        let imp = analyze(
            "crates/core/src/imp.rs",
            "impl Persist for P {\n\
                 fn persist(&self, w: &mut W) { w.put_u32(self.a); }\n\
                 fn restore(r: &mut R) -> Result<Self> { Ok(P { a: r.get_u32()? }) }\n\
             }\n",
        );
        let findings = run(&[def, imp]);
        assert_eq!(
            rules_of(&findings),
            ["persist-field-drift", "persist-field-drift"]
        );
    }

    #[test]
    fn unregistered_write_site_fires_and_registry_file_does_not() {
        let rogue = analyze(
            "crates/core/src/rogue.rs",
            "fn dump(p: &Path, b: &[u8]) { std::fs::write(p, b).ok(); }\n",
        );
        let findings = run(std::slice::from_ref(&rogue));
        assert_eq!(rules_of(&findings), ["unregistered-emission"]);
        let registered = analyze(
            "crates/feeds/src/quarantine.rs",
            "fn dump(p: &Path, b: &[u8]) { std::fs::write(p, b).ok(); }\n",
        );
        assert!(rules_of(&run(std::slice::from_ref(&registered))).is_empty());
    }

    #[test]
    fn stale_registry_entry_fires_only_on_complete_sweeps() {
        let f = analyze("crates/core/src/quiet.rs", "fn nothing() {}\n");
        let g = build(std::slice::from_ref(&f));
        let partial = check_workspace(std::slice::from_ref(&f), &g, false);
        assert!(partial.is_empty());
        let complete = check_workspace(std::slice::from_ref(&f), &g, true);
        // Every EMISSION_FILES and RNG_DOMAINS entry is stale when the
        // only analyzed file contains no writes or draws.
        assert_eq!(complete.len(), EMISSION_FILES.len() + RNG_DOMAINS.len());
        assert!(complete
            .iter()
            .all(|sf| matches!(sf.anchor, Anchor::Path(_))));
    }

    #[test]
    fn hash_two_hops_below_an_emitter_is_flagged_transitively() {
        let f = analyze(
            "crates/geodb/src/x.rs",
            "fn emit_series(out: &mut O) { shape(out); }\n\
             fn shape(out: &mut O) { refine(out); }\n\
             fn refine(out: &mut O) { let m: HashMap<u8, u8> = HashMap::new(); }\n",
        );
        let findings = run(std::slice::from_ref(&f));
        assert_eq!(
            rules_of(&findings),
            ["nondet-collection-flow", "nondet-collection-flow"]
        );
        assert!(findings.iter().all(|sf| sf.finding.line == 3));
        assert!(findings[0]
            .finding
            .message
            .contains("transitively reachable"));
    }

    #[test]
    fn unordered_shard_results_reaching_an_emitter_fire_merge_order() {
        let f = analyze(
            "crates/core/src/x.rs",
            "fn collect_rounds(shards: &[S], out: &mut O) {\n\
                 let results = shards.par_iter().map(run).collect::<Vec<_>>();\n\
                 for r in results {\n\
                     emit_row(&r, out);\n\
                 }\n\
             }\n",
        );
        let findings = run(std::slice::from_ref(&f));
        assert_eq!(rules_of(&findings), ["shard-merge-order"]);
        assert_eq!(findings[0].finding.line, 4);
        // Sorting first clears it.
        let sorted = analyze(
            "crates/core/src/x.rs",
            "fn collect_rounds(shards: &[S], out: &mut O) {\n\
                 let mut results = shards.par_iter().map(run).collect::<Vec<_>>();\n\
                 results.sort_by_key(|r| r.block);\n\
                 for r in results {\n\
                     emit_row(&r, out);\n\
                 }\n\
             }\n",
        );
        assert!(run(std::slice::from_ref(&sorted)).is_empty());
    }

    #[test]
    fn shard_results_into_a_workspace_fn_that_reaches_a_sink_are_caught() {
        // `store` carries no sink-ish name prefix, but the call graph knows
        // it writes a file — handing it unordered shard results counts.
        let f = analyze(
            "crates/core/src/x.rs",
            "fn collect(shards: &[S], p: &Path) {\n\
                 let results = shards.par_iter().map(run).collect::<Vec<_>>();\n\
                 store(results, p);\n\
             }\n\
             fn store(rows: Vec<R>, p: &Path) { std::fs::write(p, encode(rows)).ok(); }\n",
        );
        let findings = run(std::slice::from_ref(&f));
        assert!(
            rules_of(&findings).contains(&"shard-merge-order"),
            "{findings:?}"
        );
    }

    #[test]
    fn computed_and_unregistered_rng_domains_are_flagged() {
        let f = analyze(
            "crates/netsim/src/x.rs",
            "fn a(rng: &WorldRng) { let r = rng.domain(\"not-registered\"); }\n\
             fn b(rng: &WorldRng, name: &str) { let r = rng.domain(name); }\n",
        );
        let findings = run(std::slice::from_ref(&f));
        assert_eq!(
            rules_of(&findings),
            ["rng-domain-collision", "rng-domain-collision"]
        );
        assert!(findings[0].finding.message.contains("not-registered"));
        assert!(findings[1].finding.message.contains("computed"));
    }

    #[test]
    fn duplicate_rng_domain_draws_collide_at_both_sites() {
        let a = analyze(
            "crates/core/src/a.rs",
            "fn seed_a(rng: &WorldRng) { let r = rng.domain(\"faults\"); }\n",
        );
        let b = analyze(
            "crates/netsim/src/b.rs",
            "fn seed_b(rng: &WorldRng) { let r = rng.domain(\"faults\"); }\n",
        );
        let findings = run(&[a, b]);
        assert_eq!(
            rules_of(&findings),
            ["rng-domain-collision", "rng-domain-collision"]
        );
        assert!(findings[0]
            .finding
            .message
            .contains("crates/netsim/src/b.rs:1"));
        assert!(findings[1]
            .finding
            .message
            .contains("crates/core/src/a.rs:1"));
    }

    #[test]
    fn registered_single_site_domain_is_clean_and_test_draws_do_not_collide() {
        let live = analyze(
            "crates/core/src/a.rs",
            "fn seed(rng: &WorldRng) { let r = rng.domain(\"faults\"); }\n",
        );
        let test_redraw = analyze(
            "crates/netsim/src/b.rs",
            "fn other() {}\n\
             #[cfg(test)]\n\
             mod tests {\n\
                 fn reproduce(rng: &WorldRng) { let r = rng.domain(\"faults\"); }\n\
             }\n",
        );
        assert!(run(&[live, test_redraw]).is_empty());
    }

    #[test]
    fn shared_state_below_the_round_loop_is_flagged() {
        let f = analyze(
            "crates/core/src/x.rs",
            "fn measure_round(w: &mut World) { probe(w); }\n\
             fn probe(w: &mut World) { let hits = Mutex::new(0u64); }\n\
             fn elsewhere() { let cache = Mutex::new(0u64); }\n",
        );
        let findings = run(std::slice::from_ref(&f));
        assert_eq!(rules_of(&findings), ["shared-mutable-in-shard-path"]);
        assert_eq!(findings[0].finding.line, 2);
        assert!(findings[0].finding.message.contains("`Mutex`"));
        assert!(findings[0].finding.message.contains("measure_round"));
    }

    #[test]
    fn float_sum_reachable_from_an_emitter_is_flagged() {
        let f = analyze(
            "crates/analysis/src/x.rs",
            "fn render_table(xs: &[f64], out: &mut O) { out.push(mean(xs)); }\n\
             fn mean(xs: &[f64]) -> f64 { xs.iter().sum::<f64>() / xs.len() as f64 }\n\
             fn offline(xs: &[f64]) -> f64 { xs.iter().sum::<f64>() }\n",
        );
        let findings = run(std::slice::from_ref(&f));
        assert_eq!(rules_of(&findings), ["float-reduction-order"]);
        assert_eq!(findings[0].finding.line, 2);
        assert!(findings[0].finding.message.contains("sum::<f64>"));
    }

    #[test]
    fn hash_in_callee_of_emitter_is_flagged_one_hop_away() {
        let f = analyze(
            "crates/geodb/src/x.rs",
            "fn emit_series(out: &mut O) { shape(out); }\n\
             fn shape(out: &mut O) { let m: HashMap<u8, u8> = HashMap::new(); }\n\
             fn unrelated() { let m2: HashMap<u8, u8> = HashMap::new(); }\n",
        );
        let findings = run(std::slice::from_ref(&f));
        assert_eq!(
            rules_of(&findings),
            ["nondet-collection-flow", "nondet-collection-flow"]
        );
        assert!(findings.iter().all(|sf| sf.finding.line == 2));
    }

    #[test]
    fn passive_signal_functions_are_hash_sinks() {
        // `ibr_*` and `predict_*` feed checkpoint bytes and the
        // ibr_signal.csv emission — hash collections are banned there too.
        for name in ["ibr_signal_csv", "predict_volume"] {
            let f = analyze(
                "crates/core/src/x.rs",
                &format!("fn {name}() {{ let m: HashMap<u8, u8> = HashMap::new(); }}\n"),
            );
            let findings = run(std::slice::from_ref(&f));
            assert_eq!(
                rules_of(&findings),
                ["nondet-collection-flow", "nondet-collection-flow"],
                "{name}"
            );
        }
        // A neighbouring non-sink name stays clean.
        let f = analyze(
            "crates/core/src/x.rs",
            "fn tabulate() { let m: HashMap<u8, u8> = HashMap::new(); }\n",
        );
        assert!(run(std::slice::from_ref(&f)).is_empty());
    }
}

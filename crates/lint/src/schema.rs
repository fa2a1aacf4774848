//! Static wire-format extraction and the frozen-version compatibility gate.
//!
//! The journal and snapshot bytes are a long-lived contract: campaigns
//! checkpointed under any schema version must stay resumable forever.
//! [`crate::semantic`]'s `persist-field-drift` sees one `Persist` impl at
//! a time; this module sees the *whole wire format* at once. It walks
//! every `impl Persist for T` encode body in the workspace symbol graph
//! and extracts the ordered field writes — codec primitives (`put_u32`),
//! nested `persist` calls, length-prefixed sequences (`for` loops after a
//! length write), wire-tag match arms for enums.
//!
//! A type whose decoder accepts schema versions is a *versioned root*. Its
//! encoder writes one version — the leading version constant, or a
//! `// fbs-schema: writes(n)` annotation — and that layout is extracted.
//! Every other version the decoder accepts is *read-only*: nothing writes
//! it, so its layout cannot be re-derived from source and is carried over
//! verbatim from the lockfile instead.
//!
//! The extraction serializes into a deterministic, human-diffable text IR
//! committed as `SCHEMA.lock` at the workspace root. A compatibility
//! engine ([`diff_schemas`]) compares a fresh extraction against the
//! lockfile and classifies every edit as **additive** (a new type, a new
//! version tag, a new enum variant on an unused tag) or **breaking**
//! (reorder / codec change / removal inside a frozen version, retag of an
//! existing variant). Three lint rules surface the results:
//!
//! * `frozen-version-edit` — a breaking edit to a layout the lockfile
//!   froze;
//! * `unprobed-version` — a versioned encoder writes a version tag its
//!   decoder never accepts, or the decoder accepts a tag that is neither
//!   written nor frozen read-only in the lockfile;
//! * `schema-lock-drift` — the extraction differs additively from
//!   `SCHEMA.lock`, or (on a complete sweep) the lock is not the
//!   extraction's canonical text (regenerate with
//!   `fbs-lint schema --write-lock`).
//!
//! Everything here follows the linter's totality discipline: arbitrary
//! input bytes must produce *some* extraction, never a panic.

use crate::context::SourceFile;
use crate::graph::{is_library, SymbolGraph};
use crate::lexer::TokenKind;
use crate::parser::Span;
use crate::rules::Finding;
use crate::semantic::{Anchor, SemanticFinding};
use std::collections::{BTreeMap, BTreeSet};

/// One ordered write in a wire layout.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireOp {
    /// A codec primitive: `w.put_u32(self.responsive)` →
    /// `codec: "u32", expr: "self.responsive"`. `put_varint` is the
    /// LEB128 `varint` codec, a primitive like any fixed-width one.
    Prim { codec: String, expr: String },
    /// A nested `persist` call: `self.round.persist(w)` →
    /// `expr: "self.round"`.
    Nested { expr: String },
    /// A section whose presence the bytes themselves encode (an
    /// `if let Some(…)` or a predicate gate). `expr` is the guarding
    /// expression.
    Opt { expr: String, ops: Vec<WireOp> },
    /// A repeated section (a `for` loop body — the element layout of a
    /// length-prefixed sequence). `expr` is the iterated expression.
    Rep { expr: String, ops: Vec<WireOp> },
}

/// The wire layout of one non-versioned `Persist` type.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Layout {
    /// A primitive alias registered through the codec's `persist_prim!`
    /// macro (`u8`, `u32`, …): one codec call, no structure.
    Prim { codec: String },
    /// A struct: one fixed op sequence.
    Struct { ops: Vec<WireOp> },
    /// An enum: one tagged arm per variant.
    Enum { variants: Vec<VariantLayout> },
}

/// One enum variant's wire arm: its tag byte (when the arm's first write
/// is an integer-literal primitive) and the ops that follow.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VariantLayout {
    pub name: String,
    pub tag: Option<u32>,
    pub ops: Vec<WireOp>,
}

/// One extracted type: where it lives and what it writes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TypeSchema {
    pub name: String,
    /// Workspace-relative path of the defining impl (stable across
    /// reformatting, unlike lines — the lockfile records only this).
    pub path: String,
    /// Impl line in the *current* tree; `0` when parsed from a lockfile.
    pub line: u32,
    pub layout: Layout,
}

/// One versioned root: a type whose decoder accepts schema versions, with
/// one concrete op sequence per version tag.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VersionedSchema {
    pub name: String,
    pub path: String,
    /// Anchor line in the current tree; `0` when parsed from a lockfile.
    pub line: u32,
    /// Version tags the encoder writes: its leading version constant, or
    /// `// fbs-schema: writes(…)` annotations.
    pub writes: BTreeSet<u32>,
    /// Version tags the decoder accepts (match arms on the version, `==`
    /// comparisons, plus `// fbs-schema: accepts(…)` annotations).
    pub reads: BTreeSet<u32>,
    /// Version tag → the concrete layout under it: extracted for written
    /// tags, carried over from the lockfile for read-only ones.
    pub layouts: BTreeMap<u32, Vec<WireOp>>,
}

/// The whole extracted wire schema, in deterministic order.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct WireSchema {
    pub types: BTreeMap<String, TypeSchema>,
    pub versioned: BTreeMap<String, VersionedSchema>,
}

impl WireSchema {
    /// Total number of covered impls (plain types plus versioned roots).
    pub fn impl_count(&self) -> usize {
        self.types.len() + self.versioned.len()
    }

    /// Union of every live version tag across the versioned roots.
    pub fn all_versions(&self) -> BTreeSet<u32> {
        let mut out = BTreeSet::new();
        for v in self.versioned.values() {
            out.extend(v.writes.iter().copied());
            out.extend(v.reads.iter().copied());
        }
        out
    }

    /// Copies the frozen layouts of read-only tags (accepted on decode,
    /// no longer written) from `lock`: source can no longer derive them,
    /// so the lockfile is their record.
    pub fn carry_read_only(&mut self, lock: &WireSchema) {
        for (name, v) in &mut self.versioned {
            let Some(locked) = lock.versioned.get(name) else {
                continue;
            };
            for tag in v.reads.difference(&v.writes) {
                if let Some(ops) = locked.layouts.get(tag) {
                    v.layouts.insert(*tag, ops.clone());
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Extraction: raw statement walk
// ---------------------------------------------------------------------------

/// The statement-level shapes the encode-body walker recognizes before
/// they are flattened into wire ops.
#[derive(Debug, Clone)]
enum RawOp {
    Prim {
        codec: String,
        expr: String,
    },
    Nested {
        expr: String,
    },
    Rep {
        expr: String,
        ops: Vec<RawOp>,
    },
    IfLet {
        expr: String,
        ops: Vec<RawOp>,
    },
    IfChain {
        /// `(condition text, branch ops)` in source order.
        branches: Vec<(String, Vec<RawOp>)>,
        else_ops: Option<Vec<RawOp>>,
    },
    Match {
        arms: Vec<(String, Vec<RawOp>)>,
    },
}

/// Joins significant tokens into canonical expression text: a single
/// space separates two word-like tokens (`as u64`), punctuation binds
/// tight (`self.len()`).
fn join_tokens(file: &SourceFile, indices: &[usize]) -> String {
    let mut out = String::new();
    for &i in indices {
        let t = file.sig_token(i);
        let text = String::from_utf8_lossy(t.bytes(&file.src));
        if !out.is_empty() {
            let prev = out.chars().next_back().unwrap_or(' ');
            let next = text.chars().next().unwrap_or(' ');
            let wordy = |c: char| c.is_ascii_alphanumeric() || c == '_';
            if wordy(prev) && wordy(next) {
                out.push(' ');
            }
        }
        out.push_str(&text);
    }
    out
}

fn token_text(file: &SourceFile, i: usize) -> String {
    String::from_utf8_lossy(file.sig_token(i).bytes(&file.src)).into_owned()
}

/// Parses an integer literal token (decimal with optional `_` separators
/// and type suffix).
fn int_value(text: &str) -> Option<u32> {
    let digits: String = text
        .chars()
        .take_while(|c| c.is_ascii_digit() || *c == '_')
        .filter(|c| *c != '_')
        .collect();
    if digits.is_empty() {
        return None;
    }
    digits.parse().ok()
}

/// Builds the workspace-wide `const NAME: u32 = N;` table from library
/// files (the item parser skips consts, so this is a lexical scan).
pub fn const_table(files: &[SourceFile]) -> BTreeMap<String, u32> {
    let mut out = BTreeMap::new();
    for file in files {
        if !is_library(file) {
            continue;
        }
        let n = file.sig_len();
        for i in 0..n.saturating_sub(6) {
            let src = &file.src;
            if !file.sig_token(i).is_ident(src, "const")
                || file.sig_token(i + 1).kind != TokenKind::Ident
                || !file.sig_token(i + 2).is_punct(src, ":")
                || !file.sig_token(i + 3).is_ident(src, "u32")
                || !file.sig_token(i + 4).is_punct(src, "=")
                || file.sig_token(i + 5).kind != TokenKind::Int
            {
                continue;
            }
            if let Some(v) = int_value(&token_text(file, i + 5)) {
                out.entry(token_text(file, i + 1)).or_insert(v);
            }
        }
    }
    out
}

/// Resolves a version operand: a workspace const name or an integer
/// literal.
fn version_of(text: &str, consts: &BTreeMap<String, u32>) -> Option<u32> {
    consts.get(text).copied().or_else(|| int_value(text))
}

/// Advances past a balanced token pair starting at `i` (which must hold
/// the opener); returns the index one past the closer, or `hi`.
fn skip_balanced_sig(file: &SourceFile, i: usize, hi: usize, open: &str, close: &str) -> usize {
    let src = &file.src;
    let mut depth = 0usize;
    let mut j = i;
    while j < hi {
        let t = file.sig_token(j);
        if t.is_punct(src, open) {
            depth += 1;
        } else if t.is_punct(src, close) {
            depth = depth.saturating_sub(1);
            if depth == 0 {
                return j + 1;
            }
        }
        j += 1;
    }
    hi
}

/// Finds the `{` that opens the block after a condition starting at `i`
/// (tracking parenthesis depth so closure braces inside calls don't
/// terminate the scan early); returns its index, or `hi`.
fn find_block_open(file: &SourceFile, i: usize, hi: usize) -> usize {
    let src = &file.src;
    let mut paren = 0usize;
    let mut j = i;
    while j < hi {
        let t = file.sig_token(j);
        if t.is_punct(src, "(") || t.is_punct(src, "[") {
            paren += 1;
        } else if t.is_punct(src, ")") || t.is_punct(src, "]") {
            paren = paren.saturating_sub(1);
        } else if t.is_punct(src, "{") && paren == 0 {
            return j;
        }
        j += 1;
    }
    hi
}

/// The receiver expression ending just before sig index `end` (exclusive):
/// the longest trailing `ident(.ident)*` run, e.g. `self.blocks` before
/// `.persist(`.
fn receiver_before(file: &SourceFile, end: usize, lo: usize) -> Option<String> {
    let src = &file.src;
    if end <= lo || file.sig_token(end - 1).kind != TokenKind::Ident {
        return None;
    }
    let mut start = end - 1;
    while start >= lo + 2
        && file.sig_token(start - 1).is_punct(src, ".")
        && matches!(
            file.sig_token(start - 2).kind,
            TokenKind::Ident | TokenKind::Int
        )
    {
        start -= 2;
    }
    let indices: Vec<usize> = (start..end).collect();
    Some(join_tokens(file, &indices))
}

/// Walks the significant tokens of `[lo, hi)` and collects the raw wire
/// operations. Total: unknown constructs are skipped token-by-token.
fn parse_raw_ops(file: &SourceFile, lo: usize, hi: usize) -> Vec<RawOp> {
    let src = &file.src;
    let hi = hi.min(file.sig_len());
    let mut ops = Vec::new();
    let mut i = lo.min(hi);
    while i < hi {
        let t = file.sig_token(i);
        // `if let Some(bind) = <expr> { … }` — an optional wire section.
        if t.is_ident(src, "if") && i + 1 < hi && file.sig_token(i + 1).is_ident(src, "let") {
            let eq = (i + 2..hi).find(|&j| file.sig_token(j).is_punct(src, "="));
            let Some(eq) = eq else {
                i += 1;
                continue;
            };
            let open = find_block_open(file, eq + 1, hi);
            if open >= hi {
                i += 1;
                continue;
            }
            let expr_indices: Vec<usize> = (eq + 1..open)
                .filter(|&j| !file.sig_token(j).is_punct(src, "&"))
                .collect();
            let expr = join_tokens(file, &expr_indices);
            let close = skip_balanced_sig(file, open, hi, "{", "}");
            let inner = parse_raw_ops(file, open + 1, close.saturating_sub(1));
            ops.push(RawOp::IfLet { expr, ops: inner });
            i = close;
            continue;
        }
        // `if <cond> { … } else if … { … } else { … }` — a gated chain.
        if t.is_ident(src, "if") {
            let mut branches = Vec::new();
            let mut else_ops = None;
            let mut j = i;
            loop {
                // At `j`: the `if` keyword. Condition runs to the block.
                let open = find_block_open(file, j + 1, hi);
                if open >= hi {
                    break;
                }
                let cond_indices: Vec<usize> = (j + 1..open).collect();
                let cond = join_tokens(file, &cond_indices);
                let close = skip_balanced_sig(file, open, hi, "{", "}");
                let inner = parse_raw_ops(file, open + 1, close.saturating_sub(1));
                branches.push((cond, inner));
                j = close;
                if j < hi && file.sig_token(j).is_ident(src, "else") {
                    if j + 1 < hi && file.sig_token(j + 1).is_ident(src, "if") {
                        j += 1; // continue the chain at the nested `if`
                        continue;
                    }
                    let eopen = find_block_open(file, j + 1, hi);
                    if eopen < hi {
                        let eclose = skip_balanced_sig(file, eopen, hi, "{", "}");
                        else_ops = Some(parse_raw_ops(file, eopen + 1, eclose.saturating_sub(1)));
                        j = eclose;
                    }
                }
                break;
            }
            if !branches.is_empty() {
                ops.push(RawOp::IfChain { branches, else_ops });
                i = j.max(i + 1);
                continue;
            }
            i += 1;
            continue;
        }
        // `match <scrutinee> { arms }` — enum wire arms.
        if t.is_ident(src, "match") {
            let open = find_block_open(file, i + 1, hi);
            if open >= hi {
                i += 1;
                continue;
            }
            let close = skip_balanced_sig(file, open, hi, "{", "}");
            let arms = parse_match_arms(file, open + 1, close.saturating_sub(1));
            ops.push(RawOp::Match { arms });
            i = close;
            continue;
        }
        // `for <pat> in <expr> { … }` — a repeated (sequence) section.
        if t.is_ident(src, "for") {
            let kw_in = (i + 1..hi).find(|&j| file.sig_token(j).is_ident(src, "in"));
            let Some(kw_in) = kw_in else {
                i += 1;
                continue;
            };
            let open = find_block_open(file, kw_in + 1, hi);
            if open >= hi {
                i += 1;
                continue;
            }
            let expr_indices: Vec<usize> = (kw_in + 1..open)
                .filter(|&j| !file.sig_token(j).is_punct(src, "&"))
                .collect();
            let expr = join_tokens(file, &expr_indices);
            let close = skip_balanced_sig(file, open, hi, "{", "}");
            let inner = parse_raw_ops(file, open + 1, close.saturating_sub(1));
            ops.push(RawOp::Rep { expr, ops: inner });
            i = close;
            continue;
        }
        // `<writer>.put_<codec>(<expr>)` — a primitive write.
        if t.kind == TokenKind::Ident
            && i + 3 < hi
            && file.sig_token(i + 1).is_punct(src, ".")
            && file.sig_token(i + 2).kind == TokenKind::Ident
            && token_text(file, i + 2).starts_with("put_")
            && file.sig_token(i + 3).is_punct(src, "(")
        {
            let codec = token_text(file, i + 2)["put_".len()..].to_string();
            let end = skip_balanced_sig(file, i + 3, hi, "(", ")");
            let arg_indices: Vec<usize> = (i + 4..end.saturating_sub(1)).collect();
            let expr = join_tokens(file, &arg_indices);
            ops.push(RawOp::Prim { codec, expr });
            i = end;
            continue;
        }
        // `<receiver>.persist(<writer>)` — a nested layout.
        if t.is_punct(src, ".")
            && i + 2 < hi
            && file.sig_token(i + 1).is_ident(src, "persist")
            && file.sig_token(i + 2).is_punct(src, "(")
        {
            if let Some(expr) = receiver_before(file, i, lo) {
                ops.push(RawOp::Nested { expr });
            }
            i = skip_balanced_sig(file, i + 2, hi, "(", ")");
            continue;
        }
        i += 1;
    }
    ops
}

/// Splits a match body `[lo, hi)` into `(pattern text, arm ops)` pairs.
fn parse_match_arms(file: &SourceFile, lo: usize, hi: usize) -> Vec<(String, Vec<RawOp>)> {
    let src = &file.src;
    let mut arms = Vec::new();
    let mut i = lo;
    while i < hi {
        // Pattern: tokens until `=>` at depth 0.
        let mut depth = 0usize;
        let mut j = i;
        let mut arrow = None;
        while j < hi {
            let t = file.sig_token(j);
            if t.is_punct(src, "(") || t.is_punct(src, "[") || t.is_punct(src, "{") {
                depth += 1;
            } else if t.is_punct(src, ")") || t.is_punct(src, "]") || t.is_punct(src, "}") {
                depth = depth.saturating_sub(1);
            } else if depth == 0 && t.is_punct(src, "=>") {
                arrow = Some(j);
                break;
            }
            j += 1;
        }
        let Some(arrow) = arrow else { break };
        let pat_indices: Vec<usize> = (i..arrow).collect();
        let pattern = join_tokens(file, &pat_indices);
        // Body: a block, or an expression up to the next depth-0 comma.
        let (ops, next) = if arrow + 1 < hi && file.sig_token(arrow + 1).is_punct(src, "{") {
            let close = skip_balanced_sig(file, arrow + 1, hi, "{", "}");
            let ops = parse_raw_ops(file, arrow + 2, close.saturating_sub(1));
            let mut n = close;
            if n < hi && file.sig_token(n).is_punct(src, ",") {
                n += 1;
            }
            (ops, n)
        } else {
            let mut depth = 0usize;
            let mut k = arrow + 1;
            while k < hi {
                let t = file.sig_token(k);
                if t.is_punct(src, "(") || t.is_punct(src, "[") || t.is_punct(src, "{") {
                    depth += 1;
                } else if t.is_punct(src, ")") || t.is_punct(src, "]") || t.is_punct(src, "}") {
                    depth = depth.saturating_sub(1);
                } else if depth == 0 && t.is_punct(src, ",") {
                    break;
                }
                k += 1;
            }
            let ops = parse_raw_ops(file, arrow + 1, k);
            (ops, (k + 1).min(hi))
        };
        if !pattern.is_empty() {
            arms.push((pattern, ops));
        }
        i = next.max(i + 1);
    }
    arms
}

/// The variant name of a match-arm pattern: the identifier directly
/// before the payload (`Feed::Accepted { … }` → `Accepted`), else the
/// last path segment (`None` → `None`).
fn variant_name(pattern: &str) -> String {
    let head: &str = pattern
        .split(['{', '('])
        .next()
        .unwrap_or(pattern)
        .trim_end_matches([' ', ':']);
    head.rsplit([':', ' ']).next().unwrap_or(head).to_string()
}

/// Flattens raw ops into wire ops: gates become `Opt` sections, matches
/// become variant arms upstream.
fn flatten_plain(raw: &[RawOp]) -> Vec<WireOp> {
    let mut out = Vec::new();
    for op in raw {
        match op {
            RawOp::Prim { codec, expr } => out.push(WireOp::Prim {
                codec: codec.clone(),
                expr: expr.clone(),
            }),
            RawOp::Nested { expr } => out.push(WireOp::Nested { expr: expr.clone() }),
            RawOp::Rep { expr, ops } => out.push(WireOp::Rep {
                expr: expr.clone(),
                ops: flatten_plain(ops),
            }),
            RawOp::IfLet { expr, ops } => out.push(WireOp::Opt {
                expr: expr.clone(),
                ops: flatten_plain(ops),
            }),
            RawOp::IfChain { branches, else_ops } => {
                for (cond, ops) in branches {
                    out.push(WireOp::Opt {
                        expr: cond.clone(),
                        ops: flatten_plain(ops),
                    });
                }
                if let Some(eops) = else_ops {
                    out.push(WireOp::Opt {
                        expr: "else".to_string(),
                        ops: flatten_plain(eops),
                    });
                }
            }
            RawOp::Match { arms } => {
                for (pat, ops) in arms {
                    out.push(WireOp::Opt {
                        expr: pat.clone(),
                        ops: flatten_plain(ops),
                    });
                }
            }
        }
    }
    out
}

/// Converts match arms into enum variant layouts, splitting off a leading
/// integer-literal tag write.
fn variants_from_arms(arms: &[(String, Vec<RawOp>)]) -> Vec<VariantLayout> {
    let mut out = Vec::new();
    for (pat, raw) in arms {
        let mut ops = flatten_plain(raw);
        let mut tag = None;
        if let Some(WireOp::Prim { codec, expr }) = ops.first() {
            if matches!(codec.as_str(), "u8" | "u16" | "u32") {
                if let Some(v) = int_value(expr) {
                    if expr.chars().all(|c| c.is_ascii_digit() || c == '_') {
                        tag = Some(v);
                        ops.remove(0);
                    }
                }
            }
        }
        out.push(VariantLayout {
            name: variant_name(pat),
            tag,
            ops,
        });
    }
    out
}

// ---------------------------------------------------------------------------
// Decode-side version acceptance
// ---------------------------------------------------------------------------

/// Version tags a decode body accepts: `match version { <const> => … }`
/// arms (including `A | B` alternatives), `version == <const>`
/// comparisons, and `// fbs-schema: accepts(n, m)` annotations in the
/// body's line range.
fn read_versions(file: &SourceFile, span: Span, consts: &BTreeMap<String, u32>) -> BTreeSet<u32> {
    let src = &file.src;
    let hi = span.hi.min(file.sig_len());
    let lo = span.lo.min(hi);
    let mut out = BTreeSet::new();
    let mut i = lo;
    while i < hi {
        let t = file.sig_token(i);
        if t.is_ident(src, "match")
            && i + 2 < hi
            && file.sig_token(i + 1).is_ident(src, "version")
            && file.sig_token(i + 2).is_punct(src, "{")
        {
            let close = skip_balanced_sig(file, i + 2, hi, "{", "}");
            for (pat, _) in parse_match_arms(file, i + 3, close.saturating_sub(1)) {
                out.extend(pat.split('|').filter_map(|alt| version_of(alt, consts)));
            }
            i = close;
            continue;
        }
        if t.is_ident(src, "version") && i + 2 < hi && file.sig_token(i + 1).is_punct(src, "==") {
            out.extend(version_of(&token_text(file, i + 2), consts));
        }
        i += 1;
    }
    out.extend(annotated_versions(file, span, "accepts"));
    out
}

/// Version tags an encode body writes: its leading `put_u32(<const>)`,
/// plus `// fbs-schema: writes(n)` annotations for encoders whose version
/// travels outside the payload (a snapshot header).
fn write_versions(
    file: &SourceFile,
    span: Span,
    raw: &[RawOp],
    consts: &BTreeMap<String, u32>,
) -> BTreeSet<u32> {
    let mut out = annotated_versions(file, span, "writes");
    if let Some(RawOp::Prim { codec, expr }) = raw.first() {
        if codec == "u32" {
            out.extend(version_of(expr, consts));
        }
    }
    out
}

/// The tags of `// fbs-schema: <key>(n, m)` annotations in a body's line
/// range, braces included. Annotations live in comment tokens, which `sig`
/// filters out, so this scans the raw token stream.
fn annotated_versions(file: &SourceFile, span: Span, key: &str) -> BTreeSet<u32> {
    let mut out = BTreeSet::new();
    let n = file.sig_len();
    if n == 0 {
        return out;
    }
    let first = file.sig_token(span.lo.saturating_sub(1).min(n - 1)).line;
    let last = file.sig_token(span.hi.min(n - 1)).line;
    let marker = format!("fbs-schema: {key}(");
    for t in &file.tokens {
        if t.kind != TokenKind::LineComment || t.line < first || t.line > last {
            continue;
        }
        let text = String::from_utf8_lossy(t.bytes(&file.src));
        if let Some(list) = text.split(marker.as_str()).nth(1) {
            let list = list.split(')').next().unwrap_or_default();
            out.extend(list.split(',').filter_map(|part| int_value(part.trim())));
        }
    }
    out
}

// ---------------------------------------------------------------------------
// Whole-workspace extraction
// ---------------------------------------------------------------------------

/// A versioned root over one encode body: the written tags each map to
/// the extracted layout.
fn versioned_root(
    name: &str,
    file: &SourceFile,
    line: u32,
    encode: Span,
    reads: BTreeSet<u32>,
    consts: &BTreeMap<String, u32>,
) -> VersionedSchema {
    let raw = parse_raw_ops(file, encode.lo, encode.hi);
    let writes = write_versions(file, encode, &raw, consts);
    let ops = flatten_plain(&raw);
    VersionedSchema {
        name: name.to_string(),
        path: file.meta.path.clone(),
        line,
        layouts: writes.iter().map(|&v| (v, ops.clone())).collect(),
        writes,
        reads,
    }
}

/// Statically extracts the wire schema of every `Persist` impl (and every
/// `persist_into`/`restore_from` inherent pair) in library files.
pub fn extract(files: &[SourceFile], g: &SymbolGraph) -> WireSchema {
    let consts = const_table(files);
    let mut schema = WireSchema::default();

    // `persist_prim!` codec aliases (the macro body is opaque to the item
    // parser; the invocations are a fixed lexical shape).
    for file in files {
        if !is_library(file) {
            continue;
        }
        let src = &file.src;
        let n = file.sig_len();
        for i in 0..n.saturating_sub(5) {
            if !file.sig_token(i).is_ident(src, "persist_prim")
                || !file.sig_token(i + 1).is_punct(src, "!")
                || !file.sig_token(i + 2).is_punct(src, "(")
                || file.sig_token(i + 3).kind != TokenKind::Ident
            {
                continue;
            }
            let name = token_text(file, i + 3);
            // Second argument names the writer method (`put_u8`, …).
            let codec = (i + 4..n.min(i + 8))
                .map(|j| token_text(file, j))
                .find(|t| t.starts_with("put_"))
                .map(|t| t["put_".len()..].to_string());
            let Some(codec) = codec else { continue };
            schema.types.entry(name.clone()).or_insert(TypeSchema {
                name,
                path: file.meta.path.clone(),
                line: file.sig_token(i).line,
                layout: Layout::Prim { codec },
            });
        }
    }

    // `impl Persist for T` layouts; a decoder that accepts versions makes
    // the type a versioned root.
    for pi in &g.persist_impls {
        let file = &files[pi.file];
        if !is_library(file) || pi.type_name.is_empty() {
            continue;
        }
        let Some(encode) = pi.encode else { continue };
        let reads = pi
            .decode
            .map(|d| read_versions(file, d, &consts))
            .unwrap_or_default();
        if !reads.is_empty() {
            let root = versioned_root(&pi.type_name, file, pi.line, encode, reads, &consts);
            schema.versioned.entry(pi.type_name.clone()).or_insert(root);
            continue;
        }
        let raw = parse_raw_ops(file, encode.lo, encode.hi);
        let layout = match raw.as_slice() {
            [RawOp::Match { arms }] => Layout::Enum {
                variants: variants_from_arms(arms),
            },
            _ => Layout::Struct {
                ops: flatten_plain(&raw),
            },
        };
        schema
            .types
            .entry(pi.type_name.clone())
            .or_insert(TypeSchema {
                name: pi.type_name.clone(),
                path: file.meta.path.clone(),
                line: pi.line,
                layout,
            });
    }

    // Inherent `persist_into` / `restore_from` pairs (snapshot encoders
    // that are not `Persist` impls), e.g. the pipeline state.
    let mut pairs: BTreeMap<String, (usize, Span, u32)> = BTreeMap::new();
    for f in &g.fns {
        if f.name == "persist_into" && is_library(&files[f.file]) {
            if let (Some(ty), Some(body)) = (&f.impl_type, f.body) {
                pairs.entry(ty.clone()).or_insert((f.file, body, f.line));
            }
        }
    }
    for (ty, (fi, encode, line)) in pairs {
        if schema.versioned.contains_key(&ty) || schema.types.contains_key(&ty) {
            continue;
        }
        let reads = g
            .fns
            .iter()
            .find(|f| f.name == "restore_from" && f.impl_type.as_deref() == Some(ty.as_str()))
            .and_then(|f| f.body.map(|b| read_versions(&files[f.file], b, &consts)))
            .unwrap_or_default();
        if reads.is_empty() {
            continue;
        }
        let root = versioned_root(&ty, &files[fi], line, encode, reads, &consts);
        schema.versioned.insert(ty, root);
    }

    schema
}

// ---------------------------------------------------------------------------
// Lockfile serialization
// ---------------------------------------------------------------------------

const LOCK_HEADER: &str = "\
# SCHEMA.lock — wire layouts statically extracted from every Persist impl.
# Generated by `fbs-lint schema --write-lock`; `fbs-lint --workspace`
# fails on drift. Every layout below is frozen (DESIGN.md):
# an edit is a breaking change unless it ships behind a new version tag.
# A tag a root `reads` but no longer `writes` is read-only: its layout is
# never re-derived, and `--write-lock` carries it over verbatim.";

fn render_ops(out: &mut String, ops: &[WireOp], indent: usize) {
    for op in ops {
        for _ in 0..indent {
            out.push(' ');
        }
        match op {
            WireOp::Prim { codec, expr } => {
                out.push_str(codec);
                out.push(' ');
                out.push_str(expr);
                out.push('\n');
            }
            WireOp::Nested { expr } => {
                out.push_str("nested ");
                out.push_str(expr);
                out.push('\n');
            }
            WireOp::Opt { expr, ops } => {
                out.push_str("opt ");
                out.push_str(expr);
                out.push('\n');
                render_ops(out, ops, indent + 2);
            }
            WireOp::Rep { expr, ops } => {
                out.push_str("rep ");
                out.push_str(expr);
                out.push('\n');
                render_ops(out, ops, indent + 2);
            }
        }
    }
}

/// One op as a single lock line (used in diff messages).
pub fn op_text(op: &WireOp) -> String {
    match op {
        WireOp::Prim { codec, expr } => format!("{codec} {expr}"),
        WireOp::Nested { expr } => format!("nested {expr}"),
        WireOp::Opt { expr, .. } => format!("opt {expr}"),
        WireOp::Rep { expr, .. } => format!("rep {expr}"),
    }
}

/// Serializes a schema into the canonical lockfile text.
pub fn render_lock(schema: &WireSchema) -> String {
    let mut out = String::from(LOCK_HEADER);
    out.push_str("\nformat 1\n");
    out.push_str(&format!("impls {}\n", schema.impl_count()));
    let versions: Vec<String> = schema.all_versions().iter().map(u32::to_string).collect();
    out.push_str(&format!("versions {}\n", versions.join(" ")));
    for t in schema.types.values() {
        out.push('\n');
        match &t.layout {
            Layout::Prim { codec } => {
                out.push_str(&format!("prim {} {} {}\n", t.name, codec, t.path));
            }
            Layout::Struct { ops } => {
                out.push_str(&format!("struct {} {}\n", t.name, t.path));
                render_ops(&mut out, ops, 2);
            }
            Layout::Enum { variants } => {
                out.push_str(&format!("enum {} {}\n", t.name, t.path));
                for v in variants {
                    let tag = v
                        .tag
                        .map(|n| n.to_string())
                        .unwrap_or_else(|| "?".to_string());
                    out.push_str(&format!("  variant {} tag={}\n", v.name, tag));
                    render_ops(&mut out, &v.ops, 4);
                }
            }
        }
    }
    for v in schema.versioned.values() {
        out.push('\n');
        out.push_str(&format!("versioned {} {}\n", v.name, v.path));
        let fmt_set =
            |s: &BTreeSet<u32>| s.iter().map(u32::to_string).collect::<Vec<_>>().join(" ");
        out.push_str(&format!("  writes {}\n", fmt_set(&v.writes)));
        out.push_str(&format!("  reads {}\n", fmt_set(&v.reads)));
        for (tag, ops) in &v.layouts {
            out.push_str(&format!("  v{tag}\n"));
            render_ops(&mut out, ops, 4);
        }
    }
    out
}

/// Parses lockfile text back into the schema IR (lines are `0`: the
/// lockfile records layouts, not source positions).
pub fn parse_lock(text: &str) -> Result<WireSchema, String> {
    let mut schema = WireSchema::default();
    // What the indentation stack currently appends ops into.
    enum Target {
        None,
        Struct(String),
        EnumVariant(String, usize),
        Versioned(String, u32),
    }
    let mut target = Target::None;
    // Open `opt`/`rep` containers: (indent of their children, chain of
    // child indices from the target's op vec).
    let mut containers: Vec<(usize, usize)> = Vec::new();

    fn ops_slot<'a>(schema: &'a mut WireSchema, target: &Target) -> Option<&'a mut Vec<WireOp>> {
        match target {
            Target::None => None,
            Target::Struct(name) => match &mut schema.types.get_mut(name)?.layout {
                Layout::Struct { ops } => Some(ops),
                _ => None,
            },
            Target::EnumVariant(name, vi) => match &mut schema.types.get_mut(name)?.layout {
                Layout::Enum { variants } => Some(&mut variants.get_mut(*vi)?.ops),
                _ => None,
            },
            Target::Versioned(name, tag) => schema.versioned.get_mut(name)?.layouts.get_mut(tag),
        }
    }

    fn descend<'a>(ops: &'a mut Vec<WireOp>, chain: &[usize]) -> Option<&'a mut Vec<WireOp>> {
        let mut cur = ops;
        for &idx in chain {
            cur = match cur.get_mut(idx)? {
                WireOp::Opt { ops, .. } | WireOp::Rep { ops, .. } => ops,
                _ => return None,
            };
        }
        Some(cur)
    }

    for (lineno, raw_line) in text.lines().enumerate() {
        let lineno = lineno + 1;
        let line = raw_line.trim_end();
        if line.is_empty() || line.trim_start().starts_with('#') {
            continue;
        }
        let indent = line.len() - line.trim_start().len();
        let words: Vec<&str> = line.split_whitespace().collect();
        let err = |msg: &str| format!("SCHEMA.lock:{lineno}: {msg}");
        if indent == 0 {
            containers.clear();
            match words.as_slice() {
                ["format", v] => {
                    if *v != "1" {
                        return Err(err(&format!("unsupported lock format {v}")));
                    }
                    target = Target::None;
                }
                ["impls", ..] | ["versions", ..] => target = Target::None,
                ["prim", name, codec, path] => {
                    schema.types.insert(
                        (*name).to_string(),
                        TypeSchema {
                            name: (*name).to_string(),
                            path: (*path).to_string(),
                            line: 0,
                            layout: Layout::Prim {
                                codec: (*codec).to_string(),
                            },
                        },
                    );
                    target = Target::None;
                }
                ["struct", name, path] => {
                    schema.types.insert(
                        (*name).to_string(),
                        TypeSchema {
                            name: (*name).to_string(),
                            path: (*path).to_string(),
                            line: 0,
                            layout: Layout::Struct { ops: Vec::new() },
                        },
                    );
                    target = Target::Struct((*name).to_string());
                }
                ["enum", name, path] => {
                    schema.types.insert(
                        (*name).to_string(),
                        TypeSchema {
                            name: (*name).to_string(),
                            path: (*path).to_string(),
                            line: 0,
                            layout: Layout::Enum {
                                variants: Vec::new(),
                            },
                        },
                    );
                    target = Target::EnumVariant((*name).to_string(), 0);
                }
                ["versioned", name, path] => {
                    schema.versioned.insert(
                        (*name).to_string(),
                        VersionedSchema {
                            name: (*name).to_string(),
                            path: (*path).to_string(),
                            line: 0,
                            writes: BTreeSet::new(),
                            reads: BTreeSet::new(),
                            layouts: BTreeMap::new(),
                        },
                    );
                    target = Target::Versioned((*name).to_string(), u32::MAX);
                }
                _ => return Err(err("unrecognized top-level line")),
            }
            continue;
        }
        // Structural indent-2 lines inside enum / versioned blocks.
        if indent == 2 {
            containers.clear();
            match (&target, words.as_slice()) {
                (Target::EnumVariant(name, _), ["variant", vname, tag]) => {
                    let tag_val = tag
                        .strip_prefix("tag=")
                        .ok_or_else(|| err("variant line needs tag=<n>"))?;
                    let tag = if tag_val == "?" {
                        None
                    } else {
                        Some(tag_val.parse::<u32>().map_err(|_| err("bad variant tag"))?)
                    };
                    let name = name.clone();
                    let vi = match &mut schema
                        .types
                        .get_mut(&name)
                        .ok_or_else(|| err("variant outside enum"))?
                        .layout
                    {
                        Layout::Enum { variants } => {
                            variants.push(VariantLayout {
                                name: (*vname).to_string(),
                                tag,
                                ops: Vec::new(),
                            });
                            variants.len() - 1
                        }
                        _ => return Err(err("variant outside enum")),
                    };
                    target = Target::EnumVariant(name, vi);
                    continue;
                }
                (Target::Versioned(name, _), ["writes", rest @ ..]) => {
                    let set = parse_version_set(rest).map_err(|m| err(&m))?;
                    schema
                        .versioned
                        .get_mut(name)
                        .ok_or_else(|| err("writes outside versioned"))?
                        .writes = set;
                    continue;
                }
                (Target::Versioned(name, _), ["reads", rest @ ..]) => {
                    let set = parse_version_set(rest).map_err(|m| err(&m))?;
                    schema
                        .versioned
                        .get_mut(name)
                        .ok_or_else(|| err("reads outside versioned"))?
                        .reads = set;
                    continue;
                }
                (Target::Versioned(name, _), [vtag]) if vtag.starts_with('v') => {
                    let tag: u32 = vtag[1..].parse().map_err(|_| err("bad version tag line"))?;
                    let name = name.clone();
                    schema
                        .versioned
                        .get_mut(&name)
                        .ok_or_else(|| err("version tag outside versioned"))?
                        .layouts
                        .insert(tag, Vec::new());
                    target = Target::Versioned(name, tag);
                    continue;
                }
                _ => {}
            }
        }
        // An op line: find its container by indent.
        let base_indent = match &target {
            Target::Struct(_) => 2,
            Target::EnumVariant(..) | Target::Versioned(..) => 4,
            Target::None => return Err(err("op line outside any block")),
        };
        while let Some(&(ci, _)) = containers.last() {
            if indent <= ci.saturating_sub(2) || indent < ci {
                containers.pop();
            } else {
                break;
            }
        }
        let expected = base_indent + 2 * containers.len();
        if indent != expected {
            return Err(err(&format!("bad indent {indent}, expected {expected}")));
        }
        let (head, rest) = match words.as_slice() {
            [head, rest @ ..] if !rest.is_empty() => (*head, rest.join(" ")),
            _ => return Err(err("op line needs an operand")),
        };
        let op = match head {
            "nested" => WireOp::Nested { expr: rest },
            "opt" => WireOp::Opt {
                expr: rest,
                ops: Vec::new(),
            },
            "rep" => WireOp::Rep {
                expr: rest,
                ops: Vec::new(),
            },
            codec @ ("u8" | "u16" | "u32" | "u64" | "i64" | "f64" | "bool" | "str" | "raw"
            | "varint") => WireOp::Prim {
                codec: codec.to_string(),
                expr: rest,
            },
            other => return Err(err(&format!("unknown op `{other}`"))),
        };
        let is_container = matches!(op, WireOp::Opt { .. } | WireOp::Rep { .. });
        let chain: Vec<usize> = containers.iter().map(|&(_, idx)| idx).collect();
        let slot = ops_slot(&mut schema, &target).ok_or_else(|| err("op outside a layout"))?;
        let ops = descend(slot, &chain).ok_or_else(|| err("container nesting broken"))?;
        ops.push(op);
        if is_container {
            containers.push((indent + 2, ops.len() - 1));
        }
    }
    Ok(schema)
}

fn parse_version_set(words: &[&str]) -> Result<BTreeSet<u32>, String> {
    let mut out = BTreeSet::new();
    for w in words {
        out.insert(
            w.parse::<u32>()
                .map_err(|_| format!("bad version number `{w}`"))?,
        );
    }
    Ok(out)
}

// ---------------------------------------------------------------------------
// Compatibility classification
// ---------------------------------------------------------------------------

/// How an edit relates to the frozen contract.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EditKind {
    /// New surface only: a new type, a new version tag, a new enum
    /// variant on an unused tag. The lockfile needs regeneration, old
    /// readers keep working.
    Additive,
    /// The frozen bytes changed: reorder, codec change, removal, retag.
    Breaking,
}

/// One classified difference between the lockfile and a fresh extraction.
#[derive(Debug, Clone)]
pub struct SchemaEdit {
    pub kind: EditKind,
    /// Anchor path (the new side when the type still exists).
    pub path: String,
    /// Anchor line in the new extraction (`0` when the type is gone).
    pub line: u32,
    pub detail: String,
}

/// The first difference between two op sequences, described for humans.
fn describe_op_diff(old: &[WireOp], new: &[WireOp]) -> Option<String> {
    if old == new {
        return None;
    }
    let mut old_sorted: Vec<String> = old.iter().map(op_text).collect();
    let mut new_sorted: Vec<String> = new.iter().map(op_text).collect();
    old_sorted.sort();
    new_sorted.sort();
    let idx = old
        .iter()
        .zip(new.iter())
        .position(|(a, b)| a != b)
        .unwrap_or_else(|| old.len().min(new.len()));
    if old.len() == new.len() && old_sorted == new_sorted {
        return Some(format!(
            "field order changed at position {idx}: `{}` is now `{}`",
            old.get(idx).map(op_text).unwrap_or_default(),
            new.get(idx).map(op_text).unwrap_or_default(),
        ));
    }
    if let (Some(a), Some(b)) = (old.get(idx), new.get(idx)) {
        if let (
            WireOp::Prim {
                codec: ca,
                expr: ea,
            },
            WireOp::Prim {
                codec: cb,
                expr: eb,
            },
        ) = (a, b)
        {
            if ea == eb && ca != cb {
                return Some(format!(
                    "codec of `{ea}` changed at position {idx}: {ca} → {cb}"
                ));
            }
        }
    }
    if new.len() < old.len() && idx >= new.len() {
        return Some(format!(
            "`{}` was removed at position {idx}",
            old.get(idx).map(op_text).unwrap_or_default()
        ));
    }
    if new.len() > old.len() && idx >= old.len() {
        return Some(format!(
            "`{}` was appended at position {idx}",
            new.get(idx).map(op_text).unwrap_or_default()
        ));
    }
    Some(format!(
        "layout changed at position {idx}: `{}` is now `{}`",
        old.get(idx).map(op_text).unwrap_or_default(),
        new.get(idx).map(op_text).unwrap_or_default(),
    ))
}

/// Diffs a lockfile schema (`old`) against a fresh extraction (`new`),
/// classifying every difference.
pub fn diff_schemas(old: &WireSchema, new: &WireSchema) -> Vec<SchemaEdit> {
    let mut edits = Vec::new();
    let mut push = |kind: EditKind, path: &str, line: u32, detail: String| {
        edits.push(SchemaEdit {
            kind,
            path: path.to_string(),
            line,
            detail,
        });
    };

    for (name, ot) in &old.types {
        let Some(nt) = new.types.get(name) else {
            push(
                EditKind::Breaking,
                &ot.path,
                0,
                format!("wire type `{name}` was removed from the extraction"),
            );
            continue;
        };
        match (&ot.layout, &nt.layout) {
            (Layout::Prim { codec: oc }, Layout::Prim { codec: nc }) => {
                if oc != nc {
                    push(
                        EditKind::Breaking,
                        &nt.path,
                        nt.line,
                        format!("primitive `{name}` codec changed: {oc} → {nc}"),
                    );
                }
            }
            (Layout::Struct { ops: oo }, Layout::Struct { ops: no }) => {
                if let Some(d) = describe_op_diff(oo, no) {
                    push(
                        EditKind::Breaking,
                        &nt.path,
                        nt.line,
                        format!("frozen layout of `{name}` edited: {d}"),
                    );
                }
            }
            (Layout::Enum { variants: ov }, Layout::Enum { variants: nv }) => {
                diff_enum(name, ov, nv, &nt.path, nt.line, &mut push);
            }
            _ => push(
                EditKind::Breaking,
                &nt.path,
                nt.line,
                format!("wire kind of `{name}` changed (struct/enum/prim)"),
            ),
        }
    }
    for (name, nt) in &new.types {
        if !old.types.contains_key(name) {
            push(
                EditKind::Additive,
                &nt.path,
                nt.line,
                format!("new wire type `{name}`"),
            );
        }
    }

    for (name, ov) in &old.versioned {
        let Some(nv) = new.versioned.get(name) else {
            push(
                EditKind::Breaking,
                &ov.path,
                0,
                format!("versioned root `{name}` was removed from the extraction"),
            );
            continue;
        };
        for (tag, oops) in &ov.layouts {
            match nv.layouts.get(tag) {
                // Read-only: accepted, no longer written; the lockfile
                // layout carries over verbatim.
                None if nv.reads.contains(tag) && !nv.writes.contains(tag) => {}
                None => push(
                    EditKind::Breaking,
                    &nv.path,
                    nv.line,
                    format!("frozen version v{tag} of `{name}` was removed"),
                ),
                Some(nops) => {
                    if let Some(d) = describe_op_diff(oops, nops) {
                        push(
                            EditKind::Breaking,
                            &nv.path,
                            nv.line,
                            format!("frozen v{tag} layout of `{name}` edited: {d}"),
                        );
                    }
                }
            }
        }
        for tag in nv.layouts.keys() {
            if !ov.layouts.contains_key(tag) {
                push(
                    EditKind::Additive,
                    &nv.path,
                    nv.line,
                    format!("new version tag v{tag} of `{name}`"),
                );
            }
        }
        // A tag leaving `writes` but staying in `reads` just became
        // read-only, which is not an edit; dropping a tag from `reads`
        // strands every checkpoint written under it.
        for v in ov.reads.difference(&nv.reads) {
            push(
                EditKind::Breaking,
                &nv.path,
                nv.line,
                format!("`{name}` no longer reads version {v}"),
            );
        }
        for (label, oset, nset) in [
            ("writes", &ov.writes, &nv.writes),
            ("reads", &ov.reads, &nv.reads),
        ] {
            for v in nset.difference(oset) {
                // A brand-new layout tag is already reported above.
                if ov.layouts.contains_key(v) || !nv.layouts.contains_key(v) {
                    push(
                        EditKind::Additive,
                        &nv.path,
                        nv.line,
                        format!("`{name}` newly {label} version {v}"),
                    );
                }
            }
        }
    }
    for (name, nv) in &new.versioned {
        if !old.versioned.contains_key(name) {
            push(
                EditKind::Additive,
                &nv.path,
                nv.line,
                format!("new versioned root `{name}`"),
            );
        }
    }
    edits
}

fn diff_enum(
    name: &str,
    old: &[VariantLayout],
    new: &[VariantLayout],
    path: &str,
    line: u32,
    push: &mut impl FnMut(EditKind, &str, u32, String),
) {
    let new_by_name: BTreeMap<&str, &VariantLayout> =
        new.iter().map(|v| (v.name.as_str(), v)).collect();
    let old_tags: BTreeSet<u32> = old.iter().filter_map(|v| v.tag).collect();
    for ov in old {
        let Some(nv) = new_by_name.get(ov.name.as_str()) else {
            push(
                EditKind::Breaking,
                path,
                line,
                format!("enum `{name}` variant `{}` was removed", ov.name),
            );
            continue;
        };
        if ov.tag != nv.tag {
            let fmt = |t: Option<u32>| t.map(|n| n.to_string()).unwrap_or_else(|| "?".into());
            push(
                EditKind::Breaking,
                path,
                line,
                format!(
                    "enum `{name}` variant `{}` retagged: {} → {}",
                    ov.name,
                    fmt(ov.tag),
                    fmt(nv.tag)
                ),
            );
        } else if let Some(d) = describe_op_diff(&ov.ops, &nv.ops) {
            push(
                EditKind::Breaking,
                path,
                line,
                format!("enum `{name}` variant `{}` payload edited: {d}", ov.name),
            );
        }
    }
    let old_names: BTreeSet<&str> = old.iter().map(|v| v.name.as_str()).collect();
    for nv in new {
        if old_names.contains(nv.name.as_str()) {
            continue;
        }
        match nv.tag {
            Some(t) if old_tags.contains(&t) => push(
                EditKind::Breaking,
                path,
                line,
                format!(
                    "enum `{name}` new variant `{}` reuses frozen tag {t}",
                    nv.name
                ),
            ),
            _ => push(
                EditKind::Additive,
                path,
                line,
                format!("enum `{name}` gained variant `{}` on a fresh tag", nv.name),
            ),
        }
    }
}

// ---------------------------------------------------------------------------
// The lint rules
// ---------------------------------------------------------------------------

/// Runs the three schema rules over an analyzed file set. The lockfile
/// text is optional: without it nothing is frozen, so only
/// `unprobed-version` can fire, and every read-only tag counts as dead.
/// On a `complete` sweep the lock must also exist (once there is a wire
/// type) and be the canonical rendering of the extraction; a file subset
/// compares layouts only, so a hand-written lock can serve as a fixture
/// baseline.
///
/// Every finding anchors to a path ([`Anchor::Path`]), so neither an
/// `allow` pragma nor a test region can excuse a wire-contract break.
pub fn check_schema(
    files: &[SourceFile],
    g: &SymbolGraph,
    lock: Option<&str>,
    complete: bool,
) -> Vec<SemanticFinding> {
    let mut out = Vec::new();
    let mut fresh = extract(files, g);

    let locked = match lock.map(parse_lock) {
        Some(Ok(locked)) => {
            fresh.carry_read_only(&locked);
            Some(locked)
        }
        Some(Err(e)) => {
            out.push(lock_finding(format!("SCHEMA.lock is unreadable ({e})")));
            None
        }
        None if complete && fresh.impl_count() > 0 => {
            out.push(lock_finding("SCHEMA.lock is missing".to_string()));
            None
        }
        None => None,
    };

    for v in fresh.versioned.values() {
        let mut unprobed = |message: String| {
            out.push(SemanticFinding {
                anchor: Anchor::Path(v.path.clone()),
                finding: Finding {
                    rule: "unprobed-version",
                    line: v.line,
                    col: 1,
                    message: format!("`{}` {message}", v.name),
                },
            });
        };
        for tag in v.writes.difference(&v.reads) {
            let reads = fmt_versions(&v.reads);
            unprobed(format!(
                "writes schema version {tag}, but its decoder only accepts {{{reads}}}: \
                 a campaign checkpointed at v{tag} could never resume"
            ));
        }
        // A read-only tag is live only while the lockfile freezes its
        // layout (carried into `layouts` above).
        for tag in v.reads.difference(&v.writes) {
            if !v.layouts.contains_key(tag) {
                unprobed(format!(
                    "accepts schema version {tag} on decode, but nothing writes it and \
                     SCHEMA.lock freezes no layout for it: the acceptance is dead (or its \
                     frozen layout was lost)"
                ));
            }
        }
    }

    let (Some(lock), Some(locked)) = (lock, locked) else {
        return out;
    };
    let edits = diff_schemas(&locked, &fresh);
    // Any edit already makes the text differ, and names the cause.
    if complete && edits.is_empty() && lock != render_lock(&fresh) {
        out.push(lock_finding(
            "SCHEMA.lock is not the canonical serialization of the extraction".to_string(),
        ));
    }
    for edit in edits {
        let (rule, message): (&'static str, String) = match edit.kind {
            EditKind::Breaking => (
                "frozen-version-edit",
                format!(
                    "{}: locked layouts are frozen; breaking wire edits must ship behind a new version tag",
                    edit.detail
                ),
            ),
            EditKind::Additive => (
                "schema-lock-drift",
                format!(
                    "extraction differs from SCHEMA.lock ({}): regenerate with `fbs-lint schema --write-lock`",
                    edit.detail
                ),
            ),
        };
        out.push(SemanticFinding {
            anchor: Anchor::Path(edit.path),
            finding: Finding {
                rule,
                line: edit.line.max(1),
                col: 1,
                message,
            },
        });
    }
    out
}

/// A `schema-lock-drift` finding about the lockfile as a whole.
fn lock_finding(problem: String) -> SemanticFinding {
    SemanticFinding {
        anchor: Anchor::Path("SCHEMA.lock".to_string()),
        finding: Finding {
            rule: "schema-lock-drift",
            line: 1,
            col: 1,
            message: format!("{problem}: regenerate with `fbs-lint schema --write-lock`"),
        },
    }
}

fn fmt_versions(set: &BTreeSet<u32>) -> String {
    set.iter()
        .map(u32::to_string)
        .collect::<Vec<_>>()
        .join(", ")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::{FileMeta, SourceFile};

    fn analyze(path: &str, src: &str) -> SourceFile {
        SourceFile::analyze(FileMeta::infer(path), src.as_bytes().to_vec())
    }

    fn extract_src(src: &str) -> WireSchema {
        let files = vec![analyze("crates/core/src/wire.rs", src)];
        let g = crate::graph::build(&files);
        extract(&files, &g)
    }

    #[test]
    fn struct_ops_extract_in_write_order() {
        let s = extract_src(
            "impl Persist for BlockObs {\n\
             fn persist(&self, w: &mut ByteWriter) {\n\
             w.put_u32(self.responsive); w.put_u64(self.rtt_ns); w.put_bool(self.routed);\n\
             }\n\
             fn restore(r: &mut ByteReader) -> Result<Self> { Err(x) }\n\
             }\n",
        );
        let t = s.types.get("BlockObs").expect("extracted");
        match &t.layout {
            Layout::Struct { ops } => {
                let texts: Vec<String> = ops.iter().map(op_text).collect();
                assert_eq!(
                    texts,
                    ["u32 self.responsive", "u64 self.rtt_ns", "bool self.routed"]
                );
            }
            other => panic!("expected struct layout, got {other:?}"),
        }
    }

    #[test]
    fn enum_arms_extract_tags() {
        let s = extract_src(
            "impl Persist for FeedObs {\n\
             fn persist(&self, w: &mut ByteWriter) {\n\
             match self {\n\
             FeedObs::NotDue => w.put_u8(0),\n\
             FeedObs::Accepted { retries } => { w.put_u8(1); w.put_u32(*retries); }\n\
             }\n\
             }\n\
             fn restore(r: &mut ByteReader) -> Result<Self> { Err(x) }\n\
             }\n",
        );
        let t = s.types.get("FeedObs").expect("extracted");
        match &t.layout {
            Layout::Enum { variants } => {
                assert_eq!(variants.len(), 2);
                assert_eq!(variants[0].name, "NotDue");
                assert_eq!(variants[0].tag, Some(0));
                assert!(variants[0].ops.is_empty());
                assert_eq!(variants[1].name, "Accepted");
                assert_eq!(variants[1].tag, Some(1));
                assert_eq!(op_text(&variants[1].ops[0]), "u32 *retries");
            }
            other => panic!("expected enum layout, got {other:?}"),
        }
    }

    /// A record root (leading version constant, `A | B` decode arm) and a
    /// snapshot root (`writes` annotation, `accepts` annotation).
    const VERSIONED: &str = "const OLD: u32 = 2;\n\
        const NEW: u32 = 3;\n\
        impl Persist for Rec {\n\
        fn persist(&self, w: &mut ByteWriter) {\n\
        w.put_u32(NEW);\n\
        w.put_u32(self.base);\n\
        if let Some(extra) = &self.extra { extra.persist(w); }\n\
        }\n\
        fn restore(r: &mut ByteReader) -> Result<Self> {\n\
        let version = r.get_u32()?;\n\
        match version { OLD | NEW => Err(a), _ => Err(c) }\n\
        }\n\
        }\n\
        impl State {\n\
        fn persist_into(&self, w: &mut ByteWriter) {\n\
        // fbs-schema: writes(3)\n\
        self.base.persist(w);\n\
        }\n\
        fn restore_from(r: &mut ByteReader, version: u32) -> Result<Self> {\n\
        // fbs-schema: accepts(2)\n\
        if version == NEW { tail(r) }\n\
        }\n\
        }\n";

    #[test]
    fn versioned_roots_are_found_from_their_decoders() {
        let s = extract_src(VERSIONED);
        let rec = s.versioned.get("Rec").expect("record root");
        assert_eq!(rec.writes, BTreeSet::from([3]));
        assert_eq!(rec.reads, BTreeSet::from([2, 3]));
        let v3: Vec<String> = rec.layouts[&3].iter().map(op_text).collect();
        assert_eq!(v3, ["u32 NEW", "u32 self.base", "opt self.extra"]);
        // Read-only v2 has no source to derive it from: it comes from
        // the lockfile, never from extraction.
        assert!(!rec.layouts.contains_key(&2));
        let state = s.versioned.get("State").expect("snapshot root");
        assert_eq!(state.writes, BTreeSet::from([3]));
        assert_eq!(state.reads, BTreeSet::from([2, 3]));
    }

    #[test]
    fn lock_round_trips_and_carries_read_only_layouts() {
        let mut s = extract_src(VERSIONED);
        let text = render_lock(&s);
        let parsed = parse_lock(&text).expect("lock parses");
        assert_eq!(render_lock(&parsed), text);
        // A lock that froze a v2 layout: carried into the extraction
        // verbatim, so the diff is clean and the re-rendered lock keeps it.
        let frozen = text.replace(
            "  v3\n",
            "  v2\n    u32 version\n    u8 self.legacy\n  v3\n",
        );
        let locked = parse_lock(&frozen).expect("frozen lock parses");
        s.carry_read_only(&locked);
        assert_eq!(
            s.versioned["Rec"].layouts[&2],
            locked.versioned["Rec"].layouts[&2]
        );
        assert!(diff_schemas(&locked, &s).is_empty());
        assert_eq!(render_lock(&s), frozen);
    }

    #[test]
    fn diff_classifies_reorder_and_new_type() {
        let old = extract_src(
            "impl Persist for A {\n\
             fn persist(&self, w: &mut ByteWriter) { w.put_u32(self.x); w.put_bool(self.y); }\n\
             fn restore(r: &mut ByteReader) -> Result<Self> { Err(e) }\n\
             }\n",
        );
        let new = extract_src(
            "impl Persist for A {\n\
             fn persist(&self, w: &mut ByteWriter) { w.put_bool(self.y); w.put_u32(self.x); }\n\
             fn restore(r: &mut ByteReader) -> Result<Self> { Err(e) }\n\
             }\n\
             impl Persist for B {\n\
             fn persist(&self, w: &mut ByteWriter) { w.put_u8(self.z); }\n\
             fn restore(r: &mut ByteReader) -> Result<Self> { Err(e) }\n\
             }\n",
        );
        let edits = diff_schemas(&old, &new);
        assert_eq!(edits.len(), 2);
        assert!(edits
            .iter()
            .any(|e| e.kind == EditKind::Breaking && e.detail.contains("field order changed")));
        assert!(edits
            .iter()
            .any(|e| e.kind == EditKind::Additive && e.detail.contains("new wire type `B`")));
    }
}

//! The workspace symbol graph.
//!
//! Per-file ASTs ([`crate::parser`]) answer "what items does this file
//! define?"; the semantic rules need the cross-file view: which struct a
//! `Persist` impl serializes (they are frequently in different files),
//! which functions a function calls (by name — no type resolution), and
//! where the workspace actually writes files. This module assembles that
//! view once per lint run, in deterministic order, so every semantic rule
//! is a pure pass over the graph.
//!
//! Resolution is name-based and deliberately modest: a callee name maps to
//! *every* workspace function with that name, and a type name resolves
//! only when the workspace defines it exactly once (fixture duplicates and
//! shadowed helpers stay unresolved rather than mis-attributed).

use crate::context::{FileKind, SourceFile};
use crate::lexer::TokenKind;
use crate::parser::Span;
use std::collections::{BTreeMap, BTreeSet};

/// A location of one defined item: file index plus item index within that
/// file's AST vector (structs index `ast.structs`, enums `ast.enums`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ItemRef {
    pub file: usize,
    pub item: usize,
}

/// One `impl Persist for T` block, with its encode/decode bodies.
#[derive(Debug, Clone)]
pub struct PersistImpl {
    pub file: usize,
    /// Self type head (`crate::Round` → `Round`).
    pub type_name: String,
    /// Body span of `fn persist` (the encode side), if present.
    pub encode: Option<Span>,
    /// Body span of `fn restore` (the decode side), if present.
    pub decode: Option<Span>,
    /// Position of the `impl` keyword, where drift diagnostics anchor.
    pub line: u32,
    pub col: u32,
}

/// One function (free or method), with everything the semantic rules ask
/// about its body.
#[derive(Debug, Clone)]
pub struct FnNode {
    pub file: usize,
    pub name: String,
    /// Type head of the enclosing impl, if this is a method.
    pub impl_type: Option<String>,
    /// Trait head of the enclosing impl, if it is a trait impl.
    pub impl_trait: Option<String>,
    pub line: u32,
    pub col: u32,
    pub body: Option<Span>,
    /// Distinct callee names in body order: idents directly followed by
    /// `(` — covers `free(…)`, `x.method(…)`, and `Path::assoc(…)`.
    pub callees: Vec<String>,
    /// `HashMap`/`HashSet` mention sites inside the body.
    pub hash_sites: Vec<HashSite>,
    /// File-writing call sites inside the body.
    pub write_sites: Vec<WriteSite>,
    /// World-RNG `domain(…)` call sites inside the body.
    pub domain_sites: Vec<DomainSite>,
    /// Shared-mutable-state mentions inside the body.
    pub shared_sites: Vec<SharedSite>,
    /// Order-sensitive float reductions inside the body.
    pub float_folds: Vec<FloatFold>,
}

/// One `HashMap`/`HashSet` mention inside a function body.
#[derive(Debug, Clone)]
pub struct HashSite {
    pub line: u32,
    pub col: u32,
    /// `"HashMap"` or `"HashSet"`.
    pub collection: &'static str,
}

/// One file-writing call site.
#[derive(Debug, Clone)]
pub struct WriteSite {
    pub line: u32,
    pub col: u32,
    /// The call shape, e.g. `fs::write` or `.write_all`.
    pub callee: &'static str,
}

/// One `domain(…)` RNG-domain call site inside a function body.
#[derive(Debug, Clone)]
pub struct DomainSite {
    pub line: u32,
    pub col: u32,
    /// The domain string when the sole argument is a string literal
    /// (`domain("faults")` → `Some("faults")`); `None` for computed
    /// arguments (`domain(&self.name)`, `domain(kind.name())`).
    pub literal: Option<String>,
}

/// One shared-mutable-state mention inside a function body: interior
/// mutability, lock types, or relaxed atomics — the constructs that make
/// behaviour depend on thread scheduling once the round loop shards.
#[derive(Debug, Clone)]
pub struct SharedSite {
    pub line: u32,
    pub col: u32,
    /// What was found: `Mutex`, `RwLock`, `RefCell`, `Cell`,
    /// `UnsafeCell`, `static mut`, or `Ordering::Relaxed`.
    pub what: &'static str,
}

/// One order-sensitive floating-point reduction inside a function body:
/// `.sum::<f64>()` / `.product::<f64>()`, a `.sum()` / `.product()` whose
/// `f64` type comes from a `let x: f64` binding or the function's `-> f64`
/// return type, or a `.fold(<float literal>, …)` whose closure accumulates
/// with `+`. Float addition is not associative, so the accumulation order
/// *is* part of the result bytes.
#[derive(Debug, Clone)]
pub struct FloatFold {
    pub line: u32,
    pub col: u32,
    /// The reduction shape: `sum::<f64>`, `product::<f64>`, `sum() as f64`,
    /// `product() as f64`, or `fold(+)`.
    pub shape: &'static str,
}

/// The assembled cross-file view.
#[derive(Debug, Default)]
pub struct SymbolGraph {
    /// Struct name → every definition site.
    pub structs: BTreeMap<String, Vec<ItemRef>>,
    /// Enum name → every definition site.
    pub enums: BTreeMap<String, Vec<ItemRef>>,
    /// Every `impl Persist for …` block.
    pub persist_impls: Vec<PersistImpl>,
    /// Every function in the workspace, in (file, position) order.
    pub fns: Vec<FnNode>,
    /// Function name → indices into [`SymbolGraph::fns`].
    pub fns_by_name: BTreeMap<String, Vec<usize>>,
}

impl SymbolGraph {
    /// The unique struct definition with this name, if exactly one file
    /// defines it.
    pub fn unique_struct(&self, name: &str) -> Option<ItemRef> {
        match self.structs.get(name).map(Vec::as_slice) {
            Some([one]) => Some(*one),
            _ => None,
        }
    }

    /// The unique enum definition with this name, if exactly one file
    /// defines it.
    pub fn unique_enum(&self, name: &str) -> Option<ItemRef> {
        match self.enums.get(name).map(Vec::as_slice) {
            Some([one]) => Some(*one),
            _ => None,
        }
    }
}

/// Two-token path call shapes that put bytes into a file.
const WRITE_PATHS: &[(&str, &str, &str)] = &[
    ("fs", "write", "fs::write"),
    ("File", "create", "File::create"),
];

/// Builds the graph over an analyzed file set. Deterministic: iteration
/// follows file order, and name maps are BTree-ordered.
pub fn build(files: &[SourceFile]) -> SymbolGraph {
    let mut g = SymbolGraph::default();
    for (fi, file) in files.iter().enumerate() {
        for (si, s) in file.ast.structs.iter().enumerate() {
            g.structs
                .entry(s.name.clone())
                .or_default()
                .push(ItemRef { file: fi, item: si });
        }
        for (ei, e) in file.ast.enums.iter().enumerate() {
            g.enums
                .entry(e.name.clone())
                .or_default()
                .push(ItemRef { file: fi, item: ei });
        }
        for imp in &file.ast.impls {
            if imp.trait_name.as_deref() == Some("Persist") && !imp.type_name.is_empty() {
                let body_of = |fname: &str| {
                    imp.fns
                        .iter()
                        .find(|f| f.name == fname)
                        .and_then(|f| f.body)
                };
                g.persist_impls.push(PersistImpl {
                    file: fi,
                    type_name: imp.type_name.clone(),
                    encode: body_of("persist"),
                    decode: body_of("restore"),
                    line: imp.line,
                    col: imp.col,
                });
            }
            for f in &imp.fns {
                push_fn(
                    &mut g,
                    file,
                    fi,
                    f,
                    Some(imp.type_name.clone()),
                    imp.trait_name.clone(),
                );
            }
        }
        for f in &file.ast.fns {
            push_fn(&mut g, file, fi, f, None, None);
        }
    }
    g
}

fn push_fn(
    g: &mut SymbolGraph,
    file: &SourceFile,
    fi: usize,
    f: &crate::parser::FnItem,
    impl_type: Option<String>,
    impl_trait: Option<String>,
) {
    let mut node = FnNode {
        file: fi,
        name: f.name.clone(),
        impl_type,
        impl_trait,
        line: f.line,
        col: f.col,
        body: f.body,
        callees: Vec::new(),
        hash_sites: Vec::new(),
        write_sites: Vec::new(),
        domain_sites: Vec::new(),
        shared_sites: Vec::new(),
        float_folds: Vec::new(),
    };
    if let Some(span) = f.body {
        let returns_f64 = f
            .ret
            .is_some_and(|r| r.hi == r.lo + 1 && file.sig_token(r.lo).is_ident(&file.src, "f64"));
        scan_body(file, span, returns_f64, &mut node);
    }
    let idx = g.fns.len();
    g.fns_by_name.entry(f.name.clone()).or_default().push(idx);
    g.fns.push(node);
}

/// Decodes a plain `"…"` string-literal token into its inner text.
/// Raw/byte strings return `None` and are treated as computed — the
/// conservative direction for the domain-literal rule.
fn plain_str_value(bytes: &[u8]) -> Option<String> {
    if bytes.len() >= 2 && bytes.first() == Some(&b'"') && bytes.last() == Some(&b'"') {
        Some(String::from_utf8_lossy(&bytes[1..bytes.len() - 1]).into_owned())
    } else {
        None
    }
}

/// Shared-mutable constructs that make behaviour depend on scheduling.
const SHARED_STATE: &[&str] = &["Mutex", "RwLock", "RefCell", "Cell", "UnsafeCell"];

/// Whether the untyped `.sum()` / `.product()` call at `i` (the method
/// name; `i + 1`, `i + 2` are its empty parentheses) yields an `f64` by
/// its statement: the whole initializer chain of a `let <pat>: f64 = …;`,
/// or the body's tail or `return` value when the function returns `f64`.
/// A call nested inside another call's arguments, a closure or a tuple
/// takes its type from there and is not judged.
fn reduces_into_f64(file: &SourceFile, span: Span, i: usize, returns_f64: bool) -> bool {
    let src = &file.src;
    // Walk back over the receiver chain to the start of the statement.
    let mut depth = 0i64;
    let mut k = i;
    let start = loop {
        if k == span.lo {
            break k;
        }
        let t = file.sig_token(k - 1);
        if t.kind == TokenKind::Punct {
            match (t.bytes(src), depth) {
                (b";" | b"{" | b"}", 0) => break k,
                (b"(" | b"[" | b"|" | b"||", 0) => return false,
                (b")" | b"]" | b"}", _) => depth += 1,
                (b"(" | b"[" | b"{", _) => depth -= 1,
                _ => {}
            }
        }
        k -= 1;
    };
    let first = file.sig_token(start);
    if first.is_ident(src, "let") {
        // `let <pat>: f64 = <chain>;` — the type sits between the first
        // top-level `:` and `=`, and the chain must end the statement.
        let mut colon = None;
        let mut k = start + 1;
        while k < i {
            let t = file.sig_token(k);
            if t.is_punct(src, "=") {
                break;
            }
            if t.is_punct(src, ":") && colon.is_none() {
                colon = Some(k);
            }
            k += 1;
        }
        let typed_f64 =
            colon.is_some_and(|c| k == c + 2 && file.sig_token(c + 1).is_ident(src, "f64"));
        return typed_f64 && i + 3 < span.hi && file.sig_token(i + 3).is_punct(src, ";");
    }
    // The body's tail expression, or a `return` value.
    returns_f64 && (first.is_ident(src, "return") || i + 3 == span.hi)
}

/// One pass over a body span collecting callees, hash-collection mentions,
/// write sites, RNG-domain calls, shared-state mentions, and float folds.
fn scan_body(file: &SourceFile, span: Span, returns_f64: bool, node: &mut FnNode) {
    let src = &file.src;
    let hi = span.hi.min(file.sig_len());
    let lo = span.lo.min(hi);
    let mut seen = BTreeSet::new();
    for i in lo..hi {
        let t = file.sig_token(i);
        if t.kind != TokenKind::Ident {
            continue;
        }
        for name in SHARED_STATE {
            if t.is_ident(src, name) {
                node.shared_sites.push(SharedSite {
                    line: t.line,
                    col: t.col,
                    what: name,
                });
            }
        }
        if t.is_ident(src, "static") && i + 1 < hi && file.sig_token(i + 1).is_ident(src, "mut") {
            node.shared_sites.push(SharedSite {
                line: t.line,
                col: t.col,
                what: "static mut",
            });
        }
        if t.is_ident(src, "Relaxed") {
            node.shared_sites.push(SharedSite {
                line: t.line,
                col: t.col,
                what: "Ordering::Relaxed",
            });
        }
        // `domain("lit")` vs `domain(<computed>)`.
        if t.is_ident(src, "domain") && i + 1 < hi && file.sig_token(i + 1).is_punct(src, "(") {
            let literal = if i + 3 < hi
                && file.sig_token(i + 2).kind == TokenKind::Str
                && file.sig_token(i + 3).is_punct(src, ")")
            {
                plain_str_value(file.sig_token(i + 2).bytes(src))
            } else {
                None
            };
            node.domain_sites.push(DomainSite {
                line: t.line,
                col: t.col,
                literal,
            });
        }
        // `.sum::<f64>()` / `.product::<f64>()` — typed float reductions.
        if (t.is_ident(src, "sum") || t.is_ident(src, "product"))
            && i > lo
            && file.sig_token(i - 1).is_punct(src, ".")
            && i + 3 < hi
            && file.sig_token(i + 1).is_punct(src, "::")
            && file.sig_token(i + 2).is_punct(src, "<")
            && file.sig_token(i + 3).is_ident(src, "f64")
        {
            node.float_folds.push(FloatFold {
                line: t.line,
                col: t.col,
                shape: if t.is_ident(src, "sum") {
                    "sum::<f64>"
                } else {
                    "product::<f64>"
                },
            });
        }
        // `.sum()` / `.product()` whose `f64` comes from the statement.
        if (t.is_ident(src, "sum") || t.is_ident(src, "product"))
            && i > lo
            && file.sig_token(i - 1).is_punct(src, ".")
            && i + 2 < hi
            && file.sig_token(i + 1).is_punct(src, "(")
            && file.sig_token(i + 2).is_punct(src, ")")
            && reduces_into_f64(file, Span { lo, hi }, i, returns_f64)
        {
            node.float_folds.push(FloatFold {
                line: t.line,
                col: t.col,
                shape: if t.is_ident(src, "sum") {
                    "sum() as f64"
                } else {
                    "product() as f64"
                },
            });
        }
        // `.fold(<float literal>, …)` whose closure accumulates with `+`.
        if t.is_ident(src, "fold")
            && i > lo
            && file.sig_token(i - 1).is_punct(src, ".")
            && i + 2 < hi
            && file.sig_token(i + 1).is_punct(src, "(")
            && file.sig_token(i + 2).kind == TokenKind::Float
        {
            let mut depth = 0usize;
            let mut adds = false;
            for k in i + 1..hi {
                let p = file.sig_token(k);
                if p.kind != TokenKind::Punct {
                    continue;
                }
                match p.bytes(src) {
                    b"(" | b"[" | b"{" => depth += 1,
                    b")" | b"]" | b"}" => {
                        depth = depth.saturating_sub(1);
                        if depth == 0 {
                            break;
                        }
                    }
                    b"+" | b"+=" => adds = true,
                    _ => {}
                }
            }
            if adds {
                node.float_folds.push(FloatFold {
                    line: t.line,
                    col: t.col,
                    shape: "fold(+)",
                });
            }
        }
        for name in ["HashMap", "HashSet"] {
            if t.is_ident(src, name) {
                node.hash_sites.push(HashSite {
                    line: t.line,
                    col: t.col,
                    collection: if name == "HashMap" {
                        "HashMap"
                    } else {
                        "HashSet"
                    },
                });
            }
        }
        if i + 2 < hi {
            for (head, tail, label) in WRITE_PATHS {
                if t.is_ident(src, head)
                    && file.sig_token(i + 1).is_punct(src, "::")
                    && file.sig_token(i + 2).is_ident(src, tail)
                {
                    node.write_sites.push(WriteSite {
                        line: t.line,
                        col: t.col,
                        callee: label,
                    });
                }
            }
        }
        if t.is_ident(src, "write_all")
            && i > lo
            && file.sig_token(i - 1).is_punct(src, ".")
            && i + 1 < hi
            && file.sig_token(i + 1).is_punct(src, "(")
        {
            node.write_sites.push(WriteSite {
                line: t.line,
                col: t.col,
                callee: ".write_all",
            });
        }
        if i + 1 < hi && file.sig_token(i + 1).is_punct(src, "(") {
            let name = String::from_utf8_lossy(t.bytes(src)).into_owned();
            if !is_call_keyword(&name) && seen.insert(name.clone()) {
                node.callees.push(name);
            }
        }
    }
}

/// Keywords and ubiquitous constructors that precede `(` without being
/// workspace function calls.
fn is_call_keyword(name: &str) -> bool {
    matches!(
        name,
        "if" | "while"
            | "for"
            | "match"
            | "return"
            | "loop"
            | "in"
            | "as"
            | "let"
            | "fn"
            | "move"
            | "unsafe"
            | "Some"
            | "None"
            | "Ok"
            | "Err"
            | "Box"
            | "Vec"
    )
}

/// Library files eligible for workspace semantic analysis.
pub fn is_library(file: &SourceFile) -> bool {
    file.meta.kind == FileKind::Library
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::{FileMeta, SourceFile};

    fn analyze(path: &str, src: &str) -> SourceFile {
        SourceFile::analyze(FileMeta::infer(path), src.as_bytes().to_vec())
    }

    #[test]
    fn persist_impls_and_bodies_are_found() {
        let f = analyze(
            "crates/types/src/x.rs",
            "pub struct P { a: u32 }\n\
             impl Persist for P {\n\
                 fn persist(&self, w: &mut W) { w.put_u32(self.a); }\n\
                 fn restore(r: &mut R) -> Result<Self> { Ok(P { a: r.get_u32()? }) }\n\
             }\n",
        );
        let g = build(std::slice::from_ref(&f));
        assert_eq!(g.persist_impls.len(), 1);
        let pi = &g.persist_impls[0];
        assert_eq!(pi.type_name, "P");
        assert!(pi.encode.is_some() && pi.decode.is_some());
        assert!(g.unique_struct("P").is_some());
    }

    #[test]
    fn callees_and_hash_sites_are_collected() {
        let f = analyze(
            "crates/core/src/x.rs",
            "fn emit(out: &mut O) { render(out); helper(); }\n\
             fn helper() { let m: HashMap<u8, u8> = HashMap::new(); }\n",
        );
        let g = build(std::slice::from_ref(&f));
        let emit = &g.fns[g.fns_by_name["emit"][0]];
        assert_eq!(emit.callees, ["render", "helper"]);
        let helper = &g.fns[g.fns_by_name["helper"][0]];
        assert_eq!(helper.hash_sites.len(), 2);
        assert_eq!(helper.hash_sites[0].line, 2);
    }

    #[test]
    fn write_sites_cover_all_three_shapes() {
        let f = analyze(
            "crates/core/src/x.rs",
            "fn save(p: &Path, bytes: &[u8]) {\n\
                 std::fs::write(p, bytes).unwrap();\n\
                 let mut f = File::create(p).unwrap();\n\
                 f.write_all(bytes).unwrap();\n\
             }\n",
        );
        let g = build(std::slice::from_ref(&f));
        let save = &g.fns[g.fns_by_name["save"][0]];
        let shapes: Vec<&str> = save.write_sites.iter().map(|w| w.callee).collect();
        assert_eq!(shapes, ["fs::write", "File::create", ".write_all"]);
    }

    #[test]
    fn methods_carry_their_impl_context() {
        let f = analyze(
            "crates/signals/src/x.rs",
            "impl Detector { fn step(&mut self) { self.tick(); } }\n\
             impl Persist for Detector { fn persist(&self, w: &mut W) {} }\n",
        );
        let g = build(std::slice::from_ref(&f));
        let step = &g.fns[g.fns_by_name["step"][0]];
        assert_eq!(step.impl_type.as_deref(), Some("Detector"));
        assert_eq!(step.impl_trait, None);
        let persist = &g.fns[g.fns_by_name["persist"][0]];
        assert_eq!(persist.impl_trait.as_deref(), Some("Persist"));
    }

    #[test]
    fn domain_sites_split_literal_from_computed() {
        let f = analyze(
            "crates/netsim/src/x.rs",
            "fn a(rng: &WorldRng) { let r = rng.domain(\"faults\"); }\n\
             fn b(rng: &WorldRng, name: &str) { let r = rng.domain(name); }\n\
             fn c(rng: &WorldRng) { let r = rng.domain(\"root\").domain(&self.name); }\n",
        );
        let g = build(std::slice::from_ref(&f));
        let a = &g.fns[g.fns_by_name["a"][0]];
        assert_eq!(a.domain_sites.len(), 1);
        assert_eq!(a.domain_sites[0].literal.as_deref(), Some("faults"));
        let b = &g.fns[g.fns_by_name["b"][0]];
        assert_eq!(b.domain_sites.len(), 1);
        assert_eq!(b.domain_sites[0].literal, None);
        let c = &g.fns[g.fns_by_name["c"][0]];
        let lits: Vec<Option<&str>> = c
            .domain_sites
            .iter()
            .map(|d| d.literal.as_deref())
            .collect();
        assert_eq!(lits, [Some("root"), None]);
    }

    #[test]
    fn shared_state_mentions_are_collected() {
        let f = analyze(
            "crates/core/src/x.rs",
            "fn f() {\n\
                 let m = Mutex::new(0);\n\
                 let c = RefCell::new(0);\n\
                 let n = COUNT.fetch_add(1, Ordering::Relaxed);\n\
             }\n",
        );
        let g = build(std::slice::from_ref(&f));
        let shapes: Vec<&str> = g.fns[0].shared_sites.iter().map(|s| s.what).collect();
        assert_eq!(shapes, ["Mutex", "RefCell", "Ordering::Relaxed"]);
        assert_eq!(g.fns[0].shared_sites[2].line, 4);
    }

    #[test]
    fn float_folds_catch_sum_and_additive_fold_only() {
        let f = analyze(
            "crates/analysis/src/x.rs",
            "fn a(xs: &[f64]) -> f64 { xs.iter().sum::<f64>() }\n\
             fn b(xs: &[f64]) -> f64 { xs.iter().fold(0.0, |acc, x| acc + x) }\n\
             fn c(xs: &[f64]) -> f64 { xs.iter().copied().fold(0.0f64, f64::max) }\n\
             fn d(xs: &[u64]) -> u64 { xs.iter().sum::<u64>() }\n\
             fn e(xs: &[u64]) -> u64 { xs.iter().fold(0, |acc, x| acc + x) }\n",
        );
        let g = build(std::slice::from_ref(&f));
        let by = |name: &str| &g.fns[g.fns_by_name[name][0]];
        assert_eq!(by("a").float_folds[0].shape, "sum::<f64>");
        assert_eq!(by("b").float_folds[0].shape, "fold(+)");
        assert!(
            by("c").float_folds.is_empty(),
            "f64::max fold is order-free"
        );
        assert!(by("d").float_folds.is_empty(), "integer sum is exact");
        assert!(by("e").float_folds.is_empty(), "integer fold is exact");
    }

    #[test]
    fn duplicate_type_names_are_not_unique() {
        let a = analyze("crates/core/src/a.rs", "struct Dup { x: u8 }");
        let b = analyze("crates/feeds/src/b.rs", "struct Dup { y: u8 }");
        let g = build(&[a, b]);
        assert!(g.unique_struct("Dup").is_none());
        assert_eq!(g.structs["Dup"].len(), 2);
    }
}

//! An item-level recursive-descent parser over the total lexer.
//!
//! The v1 rules were token-shape patterns; the semantic rules need to know
//! *what* the tokens form: which structs exist and with which fields,
//! which enums with which variants, which impl blocks carry which
//! functions, and where each function's body starts and ends. This parser
//! produces exactly that — an [`Ast`] of items whose bodies stay plain
//! token ranges — and nothing more: no expressions, no types beyond their
//! token spans, no name resolution.
//!
//! Like the lexer beneath it, the parser is **total**: it accepts any
//! token stream (valid Rust or not), never panics, and always terminates.
//! Anything it cannot shape into an item is skipped, so a garbage region
//! degrades to missing items, never to a crash. Both properties are
//! property-tested against arbitrary bytes and arbitrary token soups.
//!
//! Positions are carried as indices into the *significant* token list
//! (comments removed) that [`crate::context::SourceFile`] maintains, so a
//! rule can slice a function body out of the file and walk it with the
//! same token utilities the lexical rules use.

use crate::lexer::{Token, TokenKind};

/// A half-open range `[lo, hi)` of significant-token indices.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    pub lo: usize,
    pub hi: usize,
}

impl Span {
    /// The empty span at `at`.
    pub fn empty(at: usize) -> Span {
        Span { lo: at, hi: at }
    }

    /// Number of significant tokens covered.
    pub fn len(&self) -> usize {
        self.hi.saturating_sub(self.lo)
    }

    /// Whether the span covers no tokens.
    pub fn is_empty(&self) -> bool {
        self.hi <= self.lo
    }
}

/// One named field of a struct (or an index-named tuple field).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Field {
    /// Field name; tuple fields are named `"0"`, `"1"`, ….
    pub name: String,
    /// Token span of the field's type.
    pub ty: Span,
    /// 1-based position of the field name (or the type, for tuple fields).
    pub line: u32,
    pub col: u32,
}

/// One variant of an enum.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Variant {
    pub name: String,
    pub line: u32,
    pub col: u32,
}

/// A `struct` item.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StructItem {
    pub name: String,
    pub fields: Vec<Field>,
    /// Whether this is a tuple struct (`struct X(A, B);`).
    pub tuple: bool,
    pub line: u32,
    pub col: u32,
}

/// An `enum` item.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EnumItem {
    pub name: String,
    pub variants: Vec<Variant>,
    pub line: u32,
    pub col: u32,
}

/// An `fn` item (free, or inside an impl).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FnItem {
    pub name: String,
    /// Body token span, `None` for bodiless declarations (`fn f();`).
    pub body: Option<Span>,
    /// Return-type token span (between `->` and the `where` clause or the
    /// body), `None` when the signature declares no return type.
    pub ret: Option<Span>,
    pub line: u32,
    pub col: u32,
}

/// An `impl` block: inherent (`impl X`) or trait (`impl Tr for X`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ImplItem {
    /// Last path segment of the implemented trait, if any.
    pub trait_name: Option<String>,
    /// Last path segment of the self type (`crate::Round` → `Round`,
    /// `Vec<T>` → `Vec`). Empty when the type had no nameable head.
    pub type_name: String,
    pub fns: Vec<FnItem>,
    pub line: u32,
    pub col: u32,
}

/// Everything item-shaped found in one file.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Ast {
    pub structs: Vec<StructItem>,
    pub enums: Vec<EnumItem>,
    pub impls: Vec<ImplItem>,
    /// Free functions, including those inside inline `mod` blocks.
    pub fns: Vec<FnItem>,
}

impl Ast {
    /// The struct with the given name, if this file defines one.
    pub fn struct_named(&self, name: &str) -> Option<&StructItem> {
        self.structs.iter().find(|s| s.name == name)
    }

    /// The enum with the given name, if this file defines one.
    pub fn enum_named(&self, name: &str) -> Option<&EnumItem> {
        self.enums.iter().find(|e| e.name == name)
    }
}

struct Parser<'a> {
    src: &'a [u8],
    tokens: &'a [Token],
    sig: &'a [usize],
    ast: Ast,
}

/// Parses the significant tokens of one file into an [`Ast`].
///
/// `sig` holds indices into `tokens` of the non-comment tokens, exactly as
/// [`crate::context::SourceFile`] builds them. Total: never panics and
/// always terminates, whatever the token stream.
pub fn parse(src: &[u8], tokens: &[Token], sig: &[usize]) -> Ast {
    let mut p = Parser {
        src,
        tokens,
        sig,
        ast: Ast::default(),
    };
    p.items(0, sig.len(), false);
    p.ast
}

impl<'a> Parser<'a> {
    fn tok(&self, i: usize) -> Option<&Token> {
        self.sig.get(i).map(|&ti| &self.tokens[ti])
    }

    fn is_ident(&self, i: usize, name: &str) -> bool {
        self.tok(i).is_some_and(|t| t.is_ident(self.src, name))
    }

    fn is_punct(&self, i: usize, sp: &str) -> bool {
        self.tok(i).is_some_and(|t| t.is_punct(self.src, sp))
    }

    fn ident_text(&self, i: usize) -> Option<String> {
        let t = self.tok(i)?;
        if t.kind == TokenKind::Ident {
            Some(String::from_utf8_lossy(t.bytes(self.src)).into_owned())
        } else {
            None
        }
    }

    fn pos_of(&self, i: usize) -> (u32, u32) {
        self.tok(i).map(|t| (t.line, t.col)).unwrap_or((1, 1))
    }

    /// Skips a balanced `open`…`close` delimiter run starting at `i`
    /// (which must sit on `open`); returns the index one past the matching
    /// close, or `hi` when unbalanced. All three bracket kinds nest.
    fn skip_balanced(&self, mut i: usize, hi: usize) -> usize {
        let mut depth = 0usize;
        while i < hi {
            if let Some(t) = self.tok(i) {
                if t.kind == TokenKind::Punct {
                    match t.bytes(self.src) {
                        b"(" | b"[" | b"{" => depth += 1,
                        b")" | b"]" | b"}" => {
                            depth = depth.saturating_sub(1);
                            if depth == 0 {
                                return i + 1;
                            }
                        }
                        _ => {}
                    }
                }
            }
            i += 1;
        }
        hi
    }

    /// Skips a generics list starting at `i` (on `<`); returns one past
    /// the matching `>`. The lexer joins shifts, so `<<`/`>>` count twice.
    /// Bails at `;`, `{`, or EOF so broken input cannot swallow the file.
    fn skip_angles(&self, mut i: usize, hi: usize) -> usize {
        let mut depth = 0i64;
        while i < hi {
            let Some(t) = self.tok(i) else { break };
            if t.kind == TokenKind::Punct {
                match t.bytes(self.src) {
                    b"<" => depth += 1,
                    b"<<" => depth += 2,
                    b">" => depth -= 1,
                    b">>" => depth -= 2,
                    b";" | b"{" => return i,
                    b"(" | b"[" => {
                        i = self.skip_balanced(i, hi);
                        continue;
                    }
                    _ => {}
                }
            }
            i += 1;
            if depth <= 0 {
                return i;
            }
        }
        i.min(hi)
    }

    /// Skips attributes (`#[…]` / `#![…]`) and visibility (`pub`,
    /// `pub(crate)`, `pub(in path)`) at `i`.
    fn skip_decoration(&self, mut i: usize, hi: usize) -> usize {
        loop {
            if self.is_punct(i, "#") {
                let mut j = i + 1;
                if self.is_punct(j, "!") {
                    j += 1;
                }
                if self.is_punct(j, "[") {
                    i = self.skip_balanced(j, hi);
                    continue;
                }
                return i;
            }
            if self.is_ident(i, "pub") {
                i += 1;
                if self.is_punct(i, "(") {
                    i = self.skip_balanced(i, hi);
                }
                continue;
            }
            return i;
        }
    }

    /// Parses the items in `[lo, hi)`. `in_impl` switches the accepted
    /// item set (impl bodies hold fns and assoc consts/types, not new
    /// structs). The loop always advances.
    fn items(&mut self, lo: usize, hi: usize, in_impl: bool) {
        let mut i = lo;
        while i < hi {
            let before = i;
            i = self.skip_decoration(i, hi);
            if i >= hi {
                break;
            }
            // Modifier run before an item keyword.
            while self.is_ident(i, "unsafe")
                || self.is_ident(i, "async")
                || self.is_ident(i, "const") && self.is_ident(i + 1, "fn")
                || self.is_ident(i, "default")
                || self.is_ident(i, "extern")
                    && self.tok(i + 1).is_some_and(|t| t.kind == TokenKind::Str)
            {
                i += 1;
                if self.tok(i).is_some_and(|t| t.kind == TokenKind::Str) {
                    i += 1; // the ABI string of `extern "C"`
                }
            }
            if i >= hi {
                break;
            }
            if self.is_ident(i, "struct") && !in_impl {
                i = self.parse_struct(i, hi);
            } else if self.is_ident(i, "enum") && !in_impl {
                i = self.parse_enum(i, hi);
            } else if self.is_ident(i, "impl") && !in_impl {
                i = self.parse_impl(i, hi);
            } else if self.is_ident(i, "fn") {
                let (next, item) = self.parse_fn(i, hi);
                if let Some(f) = item {
                    self.ast.fns.push(f);
                }
                i = next;
            } else if self.is_ident(i, "mod") && !in_impl {
                // `mod name { items }` recurses; `mod name;` skips.
                let mut j = i + 1;
                while j < hi && !self.is_punct(j, "{") && !self.is_punct(j, ";") {
                    j += 1;
                }
                if self.is_punct(j, "{") {
                    let end = self.skip_balanced(j, hi);
                    self.items(j + 1, end.saturating_sub(1), false);
                    i = end;
                } else {
                    i = j + 1;
                }
            } else if self.is_ident(i, "macro_rules") {
                // `macro_rules ! name { opaque }` — the body is pattern
                // language, not items; skip it whole.
                let mut j = i + 1;
                while j < hi
                    && !self.is_punct(j, "{")
                    && !self.is_punct(j, "(")
                    && !self.is_punct(j, "[")
                    && !self.is_punct(j, ";")
                {
                    j += 1;
                }
                i = if j < hi && !self.is_punct(j, ";") {
                    self.skip_balanced(j, hi)
                } else {
                    j + 1
                };
            } else if self.is_ident(i, "trait") {
                // Trait bodies hold method *declarations* (and defaults);
                // skip to the body and recurse for any default fn bodies.
                let mut j = i + 1;
                while j < hi && !self.is_punct(j, "{") && !self.is_punct(j, ";") {
                    if self.is_punct(j, "(") || self.is_punct(j, "[") {
                        j = self.skip_balanced(j, hi);
                        continue;
                    }
                    j += 1;
                }
                if self.is_punct(j, "{") {
                    let end = self.skip_balanced(j, hi);
                    self.items(j + 1, end.saturating_sub(1), true);
                    i = end;
                } else {
                    i = j + 1;
                }
            } else if self.is_ident(i, "use")
                || self.is_ident(i, "static")
                || self.is_ident(i, "type")
                || self.is_ident(i, "const")
                || self.is_ident(i, "extern")
            {
                i = self.skip_to_semi(i + 1, hi);
            } else {
                i += 1;
            }
            if i <= before {
                // Belt-and-braces: the loop must advance on any input.
                i = before + 1;
            }
        }
    }

    /// Skips to one past the next `;` at delimiter depth zero (balanced
    /// brackets of any kind are skipped whole), or to `hi`.
    fn skip_to_semi(&self, mut i: usize, hi: usize) -> usize {
        while i < hi {
            if self.is_punct(i, "(") || self.is_punct(i, "[") || self.is_punct(i, "{") {
                i = self.skip_balanced(i, hi);
                continue;
            }
            if self.is_punct(i, ";") {
                return i + 1;
            }
            i += 1;
        }
        hi
    }

    /// `struct Name …` — unit, tuple, or named-field body.
    fn parse_struct(&mut self, i: usize, hi: usize) -> usize {
        let Some(name) = self.ident_text(i + 1) else {
            return i + 1;
        };
        let (line, col) = self.pos_of(i + 1);
        let mut j = i + 2;
        if self.is_punct(j, "<") {
            j = self.skip_angles(j, hi);
        }
        // `where` clause before the body.
        let mut fields = Vec::new();
        let mut tuple = false;
        let mut end = j;
        while end < hi
            && !self.is_punct(end, "{")
            && !self.is_punct(end, "(")
            && !self.is_punct(end, ";")
        {
            end += 1;
        }
        if self.is_punct(end, "(") {
            tuple = true;
            let close = self.skip_balanced(end, hi);
            self.tuple_fields(end + 1, close.saturating_sub(1), &mut fields);
            end = self.skip_to_semi(close, hi);
        } else if self.is_punct(end, "{") {
            let close = self.skip_balanced(end, hi);
            self.named_fields(end + 1, close.saturating_sub(1), &mut fields);
            end = close;
        } else {
            end = (end + 1).min(hi); // unit struct `;`
        }
        self.ast.structs.push(StructItem {
            name,
            fields,
            tuple,
            line,
            col,
        });
        end
    }

    /// Parses `name: Type, …` field lists into `out`.
    fn named_fields(&self, mut i: usize, hi: usize, out: &mut Vec<Field>) {
        while i < hi {
            i = self.skip_decoration(i, hi);
            let Some(name) = self.ident_text(i) else {
                // Not a field start; resync at the next comma.
                i = self.next_comma(i, hi);
                continue;
            };
            if !self.is_punct(i + 1, ":") {
                i = self.next_comma(i, hi);
                continue;
            }
            let (line, col) = self.pos_of(i);
            let ty_lo = i + 2;
            let ty_hi = self.next_comma_bound(ty_lo, hi);
            out.push(Field {
                name,
                ty: Span {
                    lo: ty_lo,
                    hi: ty_hi,
                },
                line,
                col,
            });
            i = ty_hi + 1; // past the comma
        }
    }

    /// Parses tuple-struct field types, naming them by position.
    fn tuple_fields(&self, mut i: usize, hi: usize, out: &mut Vec<Field>) {
        let mut index = 0usize;
        while i < hi {
            i = self.skip_decoration(i, hi);
            if i >= hi {
                break;
            }
            let (line, col) = self.pos_of(i);
            let ty_hi = self.next_comma_bound(i, hi);
            if ty_hi > i {
                out.push(Field {
                    name: index.to_string(),
                    ty: Span { lo: i, hi: ty_hi },
                    line,
                    col,
                });
                index += 1;
            }
            i = ty_hi + 1;
        }
    }

    /// Index of the next top-level `,` in `[i, hi)`, or `hi`. Brackets
    /// and generics nest (shift tokens count double).
    fn next_comma_bound(&self, mut i: usize, hi: usize) -> usize {
        let mut angle = 0i64;
        while i < hi {
            if let Some(t) = self.tok(i) {
                if t.kind == TokenKind::Punct {
                    match t.bytes(self.src) {
                        b"(" | b"[" | b"{" => {
                            i = self.skip_balanced(i, hi);
                            continue;
                        }
                        b"<" => angle += 1,
                        b"<<" => angle += 2,
                        b">" => angle = (angle - 1).max(0),
                        b">>" => angle = (angle - 2).max(0),
                        b"," if angle == 0 => return i,
                        _ => {}
                    }
                }
            }
            i += 1;
        }
        hi
    }

    fn next_comma(&self, i: usize, hi: usize) -> usize {
        let at = self.next_comma_bound(i, hi);
        (at + 1).min(hi)
    }

    /// `enum Name { Variant, Variant(..), Variant { .. }, … }`.
    fn parse_enum(&mut self, i: usize, hi: usize) -> usize {
        let Some(name) = self.ident_text(i + 1) else {
            return i + 1;
        };
        let (line, col) = self.pos_of(i + 1);
        let mut j = i + 2;
        if self.is_punct(j, "<") {
            j = self.skip_angles(j, hi);
        }
        while j < hi && !self.is_punct(j, "{") && !self.is_punct(j, ";") {
            j += 1;
        }
        let mut variants = Vec::new();
        let end = if self.is_punct(j, "{") {
            let close = self.skip_balanced(j, hi);
            let mut k = j + 1;
            let body_hi = close.saturating_sub(1);
            while k < body_hi {
                k = self.skip_decoration(k, body_hi);
                if let Some(vname) = self.ident_text(k) {
                    let (vline, vcol) = self.pos_of(k);
                    variants.push(Variant {
                        name: vname,
                        line: vline,
                        col: vcol,
                    });
                }
                k = self.next_comma(k, body_hi);
            }
            close
        } else {
            (j + 1).min(hi)
        };
        self.ast.enums.push(EnumItem {
            name,
            variants,
            line,
            col,
        });
        end
    }

    /// `impl [<..>] [Trait for] Type [where ..] { items }`.
    fn parse_impl(&mut self, i: usize, hi: usize) -> usize {
        let (line, col) = self.pos_of(i);
        let mut j = i + 1;
        if self.is_punct(j, "<") {
            j = self.skip_angles(j, hi);
        }
        // Scan the header: everything up to the body `{` (or `;`/EOF),
        // tracking the last plain ident of the current path and whether a
        // `for` split the header into trait and self type.
        let mut first_head: Option<String> = None; // last ident before `for`
        let mut head: Option<String> = None; // last ident of current path
        let mut saw_for = false;
        while j < hi {
            if self.is_punct(j, "{") || self.is_punct(j, ";") {
                break;
            }
            if self.is_ident(j, "where") {
                // Bounds may mention types; stop collecting the head.
                while j < hi && !self.is_punct(j, "{") && !self.is_punct(j, ";") {
                    if self.is_punct(j, "(") || self.is_punct(j, "[") {
                        j = self.skip_balanced(j, hi);
                        continue;
                    }
                    j += 1;
                }
                break;
            }
            if self.is_ident(j, "for") {
                first_head = head.take();
                saw_for = true;
                j += 1;
                continue;
            }
            if self.is_punct(j, "<") || self.is_punct(j, "<<") {
                j = self.skip_angles(j, hi);
                continue;
            }
            if self.is_punct(j, "(") || self.is_punct(j, "[") {
                // `impl Trait for (A, B)` / `[T; N]` — no nameable head.
                head = None;
                j = self.skip_balanced(j, hi);
                continue;
            }
            if let Some(id) = self.ident_text(j) {
                if id != "dyn" && id != "mut" && id != "crate" && id != "super" && id != "self" {
                    head = Some(id);
                }
            }
            j += 1;
        }
        let (trait_name, type_name) = if saw_for {
            (first_head, head.unwrap_or_default())
        } else {
            (None, head.unwrap_or_default())
        };
        if !self.is_punct(j, "{") {
            self.ast.impls.push(ImplItem {
                trait_name,
                type_name,
                fns: Vec::new(),
                line,
                col,
            });
            return (j + 1).min(hi);
        }
        let close = self.skip_balanced(j, hi);
        let mut fns = Vec::new();
        self.impl_fns(j + 1, close.saturating_sub(1), &mut fns);
        self.ast.impls.push(ImplItem {
            trait_name,
            type_name,
            fns,
            line,
            col,
        });
        close
    }

    /// Collects the `fn` items of an impl (or trait) body.
    fn impl_fns(&self, mut i: usize, hi: usize, out: &mut Vec<FnItem>) {
        while i < hi {
            let before = i;
            i = self.skip_decoration(i, hi);
            while self.is_ident(i, "unsafe")
                || self.is_ident(i, "async")
                || self.is_ident(i, "default")
                || (self.is_ident(i, "const") && self.is_ident(i + 1, "fn"))
            {
                i += 1;
            }
            if self.is_ident(i, "fn") {
                let (next, item) = self.parse_fn(i, hi);
                if let Some(f) = item {
                    out.push(f);
                }
                i = next;
            } else if self.is_ident(i, "const")
                || self.is_ident(i, "type")
                || self.is_ident(i, "use")
            {
                i = self.skip_to_semi(i + 1, hi);
            } else {
                i += 1;
            }
            if i <= before {
                i = before + 1;
            }
        }
    }

    /// `fn name [<..>] ( params ) [-> ty] [where ..] { body }` or `;`.
    /// Returns (index past the item, the parsed item if the name parsed).
    fn parse_fn(&self, i: usize, hi: usize) -> (usize, Option<FnItem>) {
        let Some(name) = self.ident_text(i + 1) else {
            return (i + 1, None);
        };
        let (line, col) = self.pos_of(i + 1);
        let mut j = i + 2;
        if self.is_punct(j, "<") {
            j = self.skip_angles(j, hi);
        }
        if self.is_punct(j, "(") {
            j = self.skip_balanced(j, hi);
        }
        // Return type / where clause: scan to the body or `;`, skipping
        // nested brackets (closures in const generics are out of scope).
        let mut ret_lo = None;
        let mut ret_hi = None;
        while j < hi && !self.is_punct(j, "{") && !self.is_punct(j, ";") {
            if self.is_punct(j, "(") || self.is_punct(j, "[") {
                j = self.skip_balanced(j, hi);
                continue;
            }
            if self.is_punct(j, "<") || self.is_punct(j, "<<") {
                j = self.skip_angles(j, hi);
                continue;
            }
            if self.is_punct(j, "->") && ret_lo.is_none() {
                ret_lo = Some(j + 1);
            }
            if self.is_ident(j, "where") && ret_hi.is_none() {
                ret_hi = Some(j);
            }
            j += 1;
        }
        let ret = ret_lo.map(|lo| Span {
            lo,
            hi: ret_hi.unwrap_or(j).max(lo),
        });
        if self.is_punct(j, "{") {
            let close = self.skip_balanced(j, hi);
            let body = Span {
                lo: j + 1,
                hi: close.saturating_sub(1),
            };
            (
                close,
                Some(FnItem {
                    name,
                    body: Some(body),
                    ret,
                    line,
                    col,
                }),
            )
        } else {
            (
                (j + 1).min(hi),
                Some(FnItem {
                    name,
                    body: None,
                    ret,
                    line,
                    col,
                }),
            )
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn ast_of(src: &str) -> Ast {
        let tokens = lex(src.as_bytes());
        let sig: Vec<usize> = tokens
            .iter()
            .enumerate()
            .filter(|(_, t)| !matches!(t.kind, TokenKind::LineComment | TokenKind::BlockComment))
            .map(|(i, _)| i)
            .collect();
        parse(src.as_bytes(), &tokens, &sig)
    }

    #[test]
    fn struct_fields_in_order() {
        let ast = ast_of(
            "pub struct BlockObs {\n\
                 /// doc\n\
                 pub responsive: u32,\n\
                 pub rtt_ns: u64,\n\
                 routed: bool,\n\
             }\n",
        );
        let s = ast.struct_named("BlockObs").expect("struct");
        let names: Vec<&str> = s.fields.iter().map(|f| f.name.as_str()).collect();
        assert_eq!(names, ["responsive", "rtt_ns", "routed"]);
        assert_eq!(s.fields[0].line, 3);
    }

    #[test]
    fn generic_fields_do_not_split_on_inner_commas() {
        let ast =
            ast_of("struct S { a: BTreeMap<(Asn, MonthId), f64>, b: [Vec<FeedStatus>; 3], c: u8 }");
        let s = ast.struct_named("S").unwrap();
        let names: Vec<&str> = s.fields.iter().map(|f| f.name.as_str()).collect();
        assert_eq!(names, ["a", "b", "c"]);
    }

    #[test]
    fn tuple_and_unit_structs() {
        let ast = ast_of("struct Round(pub u32);\nstruct Marker;\n");
        let r = ast.struct_named("Round").unwrap();
        assert!(r.tuple);
        assert_eq!(r.fields.len(), 1);
        assert_eq!(r.fields[0].name, "0");
        assert!(ast.struct_named("Marker").unwrap().fields.is_empty());
    }

    #[test]
    fn enum_variants_with_payloads() {
        let ast = ast_of(
            "enum FeedObs { NotDue, Accepted { retries: u32, q: Q }, Absent(u32), Last = 9 }",
        );
        let e = ast.enum_named("FeedObs").unwrap();
        let names: Vec<&str> = e.variants.iter().map(|v| v.name.as_str()).collect();
        assert_eq!(names, ["NotDue", "Accepted", "Absent", "Last"]);
    }

    #[test]
    fn impls_split_trait_and_type() {
        let ast = ast_of(
            "impl Persist for crate::Round { fn persist(&self) {} fn restore() -> u8 { 0 } }\n\
             impl<T: Persist> Persist for Vec<T> { fn persist(&self) {} }\n\
             impl Round { pub fn new() -> Self { Round(0) } }\n",
        );
        assert_eq!(ast.impls.len(), 3);
        assert_eq!(ast.impls[0].trait_name.as_deref(), Some("Persist"));
        assert_eq!(ast.impls[0].type_name, "Round");
        let fn_names: Vec<&str> = ast.impls[0].fns.iter().map(|f| f.name.as_str()).collect();
        assert_eq!(fn_names, ["persist", "restore"]);
        assert_eq!(ast.impls[1].type_name, "Vec");
        assert_eq!(ast.impls[2].trait_name, None);
        assert_eq!(ast.impls[2].type_name, "Round");
    }

    #[test]
    fn fn_bodies_are_token_ranges() {
        let src = "fn a() { one(); two() } fn decl();";
        let ast = ast_of(src);
        assert_eq!(ast.fns.len(), 2);
        let body = ast.fns[0].body.expect("body");
        assert!(body.len() >= 5);
        assert_eq!(ast.fns[1].body, None);
    }

    #[test]
    fn mods_recurse_and_macros_stay_opaque() {
        let ast = ast_of(
            "mod inner { pub struct Hidden { x: u8 } }\n\
             macro_rules! gen { ($t:ty) => { struct NotReal { y: $t } }; }\n\
             struct Real { z: u8 }\n",
        );
        assert!(ast.struct_named("Hidden").is_some());
        assert!(ast.struct_named("NotReal").is_none());
        assert!(ast.struct_named("Real").is_some());
    }

    #[test]
    fn where_clauses_and_shift_generics_survive() {
        let ast = ast_of(
            "struct W<T> where T: Into<Vec<Vec<u8>>> { field: T }\n\
             impl<T> W<T> where T: Clone { fn get(&self) -> T { self.field.clone() } }\n",
        );
        let s = ast.struct_named("W").unwrap();
        assert_eq!(s.fields.len(), 1);
        assert_eq!(s.fields[0].name, "field");
        assert_eq!(ast.impls[0].type_name, "W");
        assert_eq!(ast.impls[0].fns.len(), 1);
    }

    #[test]
    fn garbage_degrades_without_panicking() {
        for src in [
            "struct",
            "struct {",
            "impl for {",
            "enum E { , , }",
            "fn (",
            "struct S { x: , y }",
            "impl Tr for for for {}",
            "}}}}{{{{",
        ] {
            let _ = ast_of(src); // must not panic
        }
    }
}

//! A lightweight item/block parser over the token stream.
//!
//! The flow-aware rules (O1 lock-order, B1 hold-while-blocking, W2 wire
//! truncation, call-graph P1) need more structure than a flat token list:
//! function boundaries, the `impl`/`mod` item a function lives in, and
//! whether it sits under `#[cfg(test)]`. This module recovers exactly that
//! much — a list of function items with body token ranges — and nothing
//! more. It is *not* a Rust parser:
//!
//! * `macro_rules!` bodies are skipped entirely (macro grammar is not
//!   token-tree Rust, and rules over it would be guesses);
//! * nested `fn` items inside a function body are attributed to the outer
//!   function (their tokens are part of the outer body range);
//! * const-generic braces in paths (`Foo<{N}>`) would confuse body
//!   detection — the workspace does not use them.
//!
//! Anything the parser cannot place in a function is simply invisible to
//! the flow rules; the token-level rules in `rules.rs` still see
//! every token, so the conservative direction is preserved.

use crate::lexer::{Token, TokenKind};

/// One `fn` item recovered from a source file.
#[derive(Debug, Clone)]
pub struct FnItem {
    /// The function's own name.
    pub name: String,
    /// The self type of the enclosing `impl` (or the enclosing trait's
    /// name for default methods), if any.
    pub qualifier: Option<String>,
    /// 1-based line of the `fn` keyword.
    pub line: usize,
    /// Whether the function (or an enclosing item) is `#[cfg(test)]`.
    pub cfg_test: bool,
    /// Inclusive token-index range of the body braces `{` … `}` in the
    /// code-token slice the parser was fed. `None` for bodyless trait
    /// signatures.
    pub body: Option<(usize, usize)>,
}

/// Filters a token list down to code tokens (everything but comments),
/// preserving order. The flow rules and [`parse`] index into this slice.
pub fn code_tokens(tokens: &[Token]) -> Vec<&Token> {
    tokens.iter().filter(|t| t.kind != TokenKind::Comment).collect()
}

/// Recovers every `fn` item (with its body range and test-ness) from a
/// code-token slice produced by [`code_tokens`].
pub fn parse(code: &[&Token]) -> Vec<FnItem> {
    let mut p = Parser { code, i: 0, out: Vec::new() };
    let end = code.len();
    p.items(false, None, end);
    p.out
}

struct Parser<'a, 't> {
    code: &'a [&'t Token],
    i: usize,
    out: Vec<FnItem>,
}

impl Parser<'_, '_> {
    /// Scans item positions in `code[self.i..end]`, recursing into `mod`,
    /// `impl`, and `trait` bodies.
    fn items(&mut self, in_test: bool, qualifier: Option<&str>, end: usize) {
        while self.i < end {
            // Attributes in front of the next item.
            let mut attr_test = false;
            while self.at_attr() {
                attr_test |= self.skip_attr_is_cfg_test();
            }
            // Visibility and fn qualifiers sit between the attributes and
            // the item keyword (`#[cfg(test)] pub(crate) mod tests`,
            // `pub const unsafe fn …`); skip them here so `attr_test`
            // still applies to the item they modify.
            while self.i < end {
                match self.code[self.i].text.as_str() {
                    "pub" => {
                        self.i += 1;
                        // `pub(crate)` / `pub(in path)` restriction group.
                        if self.code.get(self.i).is_some_and(|t| t.is_punct("(")) {
                            let close = self.matching_close(self.i, end);
                            self.i = close + 1;
                        }
                    }
                    "unsafe" | "async" => self.i += 1,
                    // `const` and `extern` qualify an fn only when one
                    // follows; `const X: … = …;` and `extern crate` keep
                    // their own handling in the match below.
                    "const" | "extern"
                        if self.code[self.i + 1..end.min(self.code.len())]
                            .iter()
                            .take(2)
                            .any(|t| t.is_ident("fn")) =>
                    {
                        self.i += 1;
                    }
                    _ => break,
                }
            }
            if self.i >= end {
                break;
            }
            let t = self.code[self.i];
            match t.text.as_str() {
                "macro_rules" => self.skip_macro_rules(end),
                "mod" => self.mod_item(in_test || attr_test, end),
                "impl" | "trait" => self.impl_item(in_test || attr_test, end),
                "fn" => self.fn_item(in_test || attr_test, qualifier, end),
                "{" | "(" | "[" => {
                    // Anonymous group (const initializer, array literal…):
                    // skip it whole so its contents are not mistaken for
                    // items.
                    let close = self.matching_close(self.i, end);
                    self.i = close + 1;
                }
                _ => self.i += 1,
            }
        }
        self.i = end;
    }

    fn at_attr(&self) -> bool {
        let t = self.code.get(self.i);
        let open = self.code.get(self.i + 1).map(|t| t.text.as_str());
        t.is_some_and(|t| t.is_punct("#"))
            && (open == Some("[") || (open == Some("!") && self.code.get(self.i + 2).is_some_and(|t| t.is_punct("["))))
    }

    /// Skips one attribute, returning whether it is a `#[cfg(… test …)]`.
    fn skip_attr_is_cfg_test(&mut self) -> bool {
        // `#` (`!`)? `[` … `]`
        self.i += 1;
        if self.code.get(self.i).is_some_and(|t| t.is_punct("!")) {
            self.i += 1;
        }
        let open = self.i;
        let close = self.matching_close(open, self.code.len());
        let is_cfg = self.code.get(open + 1).is_some_and(|t| t.is_ident("cfg"));
        let has_test = is_cfg
            && self.code[open..close.min(self.code.len())]
                .iter()
                .any(|t| t.is_ident("test"));
        self.i = close + 1;
        is_cfg && has_test
    }

    /// `macro_rules! name { … }` — skip the whole definition.
    fn skip_macro_rules(&mut self, end: usize) {
        self.i += 1; // macro_rules
        if self.code.get(self.i).is_some_and(|t| t.is_punct("!")) {
            self.i += 1;
        }
        if self.code.get(self.i).is_some_and(|t| t.kind == TokenKind::Ident) {
            self.i += 1;
        }
        if self.i < end && matches!(self.code[self.i].text.as_str(), "{" | "(" | "[") {
            let close = self.matching_close(self.i, end);
            self.i = close + 1;
        }
    }

    /// `mod name { items… }` or `mod name;`
    fn mod_item(&mut self, test: bool, end: usize) {
        self.i += 1; // mod
        if self.code.get(self.i).is_some_and(|t| t.kind == TokenKind::Ident) {
            self.i += 1;
        }
        match self.code.get(self.i).map(|t| t.text.as_str()) {
            Some("{") => {
                let close = self.matching_close(self.i, end);
                self.i += 1;
                self.items(test, None, close);
                self.i = close + 1;
            }
            _ => self.i += 1, // `mod x;`
        }
    }

    /// `impl … {` / `trait Name {` — recurse with the self-type (or trait
    /// name) as the qualifier of contained fns.
    fn impl_item(&mut self, test: bool, end: usize) {
        let is_trait = self.code[self.i].is_ident("trait");
        self.i += 1;
        // Collect the header up to the body `{` (or a terminating `;`,
        // e.g. `impl Foo;` which is not real Rust but keeps us safe).
        let mut angle = 0i32;
        let mut last_path_ident: Option<String> = None;
        let mut after_for: Option<String> = None;
        let mut seen_for = false;
        while self.i < end {
            let t = self.code[self.i];
            match t.text.as_str() {
                "<" => angle += 1,
                ">" => angle -= 1,
                "where" if angle <= 0 => {
                    // Type names after `where` are bounds, not the self
                    // type — stop collecting.
                    while self.i < end && !matches!(self.code[self.i].text.as_str(), "{" | ";") {
                        self.i += 1;
                    }
                    continue;
                }
                "for" if angle <= 0 => seen_for = true,
                "{" | ";" if angle <= 0 => break,
                _ => {
                    if t.kind == TokenKind::Ident && angle <= 0 {
                        if seen_for {
                            // Last path segment after `for` is the type.
                            after_for = Some(t.text.clone());
                        } else {
                            last_path_ident = Some(t.text.clone());
                        }
                    }
                }
            }
            self.i += 1;
        }
        let qualifier = if is_trait { last_path_ident } else { after_for.or(last_path_ident) };
        if self.code.get(self.i).is_some_and(|t| t.is_punct("{")) {
            let close = self.matching_close(self.i, end);
            self.i += 1;
            self.items(test, qualifier.as_deref(), close);
            self.i = close + 1;
        } else {
            self.i += 1;
        }
    }

    /// `fn name…(…) … { body }` or `fn name…(…);`
    fn fn_item(&mut self, test: bool, qualifier: Option<&str>, end: usize) {
        let line = self.code[self.i].line;
        self.i += 1; // fn
        let Some(name_tok) = self.code.get(self.i) else { return };
        if name_tok.kind != TokenKind::Ident {
            return;
        }
        let name = name_tok.text.clone();
        self.i += 1;
        // Find the body `{` (or `;`) at paren/bracket depth 0.
        let mut pd = 0usize;
        let mut bd = 0usize;
        while self.i < end {
            match self.code[self.i].text.as_str() {
                "(" => pd += 1,
                ")" => pd = pd.saturating_sub(1),
                "[" => bd += 1,
                "]" => bd = bd.saturating_sub(1),
                "{" if pd == 0 && bd == 0 => {
                    let open = self.i;
                    let close = self.matching_close(open, end);
                    self.out.push(FnItem {
                        name,
                        qualifier: qualifier.map(str::to_string),
                        line,
                        cfg_test: test,
                        body: Some((open, close)),
                    });
                    self.i = close + 1;
                    return;
                }
                ";" if pd == 0 && bd == 0 => {
                    self.out.push(FnItem {
                        name,
                        qualifier: qualifier.map(str::to_string),
                        line,
                        cfg_test: test,
                        body: None,
                    });
                    self.i += 1;
                    return;
                }
                _ => {}
            }
            self.i += 1;
        }
    }

    /// Index of the delimiter matching the opener at `open` (`{`/`(`/`[`),
    /// or `end - 1` if the source is truncated. All three delimiter kinds
    /// count toward depth, so mixed nesting stays balanced.
    fn matching_close(&self, open: usize, end: usize) -> usize {
        let mut depth = 0usize;
        let mut k = open;
        while k < end {
            match self.code[k].text.as_str() {
                "{" | "(" | "[" => depth += 1,
                "}" | ")" | "]" => {
                    depth = depth.saturating_sub(1);
                    if depth == 0 {
                        return k;
                    }
                }
                _ => {}
            }
            k += 1;
        }
        end.saturating_sub(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::tokenize;

    fn fns(src: &str) -> Vec<FnItem> {
        let tokens = tokenize(src);
        let code = code_tokens(&tokens);
        parse(&code)
    }

    #[test]
    fn free_and_impl_fns_are_found() {
        let src = "\
fn alpha() { let x = 1; }\n\
struct S;\n\
impl S {\n\
    fn beta(&self) -> u32 { 2 }\n\
}\n\
impl Clone for S {\n\
    fn clone(&self) -> S { S }\n\
}\n";
        let fs = fns(src);
        let names: Vec<(String, Option<String>)> =
            fs.iter().map(|f| (f.name.clone(), f.qualifier.clone())).collect();
        assert_eq!(
            names,
            vec![
                ("alpha".into(), None),
                ("beta".into(), Some("S".into())),
                ("clone".into(), Some("S".into())),
            ]
        );
        assert!(fs.iter().all(|f| !f.cfg_test));
    }

    #[test]
    fn generic_impl_headers_resolve_the_self_type() {
        let src = "\
impl<M: WireSize> PeerQueue<M> {\n\
    fn push(&self, m: M) {}\n\
}\n\
impl<M: Decode + path::WireSize> path::WireSize for TaggedOwned<M> {\n\
    fn wire_size(&self) -> usize { 2 }\n\
}\n";
        let fs = fns(src);
        assert_eq!(fs[0].qualifier.as_deref(), Some("PeerQueue"));
        assert_eq!(fs[1].qualifier.as_deref(), Some("TaggedOwned"));
    }

    #[test]
    fn cfg_test_marks_fns_and_modules() {
        let src = "\
fn live() {}\n\
#[cfg(test)]\n\
fn helper() {}\n\
#[cfg(test)]\n\
mod tests {\n\
    fn inner() {}\n\
}\n\
#[cfg(all(test, feature = \"x\"))]\n\
mod more { fn deep() {} }\n";
        let fs = fns(src);
        let test_flags: Vec<(String, bool)> =
            fs.iter().map(|f| (f.name.clone(), f.cfg_test)).collect();
        assert_eq!(
            test_flags,
            vec![
                ("live".into(), false),
                ("helper".into(), true),
                ("inner".into(), true),
                ("deep".into(), true),
            ]
        );
    }

    #[test]
    fn cfg_test_survives_visibility_between_attr_and_item() {
        // The attribute's test-ness must reach the item it modifies even
        // when `pub`, `pub(crate)`, or fn qualifiers sit in between —
        // dropping it here lints test helpers as production code.
        let src = "\
#[cfg(test)]\n\
pub(crate) mod tests {\n\
    pub(crate) fn fixture() {}\n\
}\n\
#[cfg(test)]\n\
pub const fn helper() {}\n\
pub(crate) fn live() {}\n\
const LIMIT: usize = 4;\n\
fn after_const() {}\n";
        let fs = fns(src);
        let test_flags: Vec<(String, bool)> =
            fs.iter().map(|f| (f.name.clone(), f.cfg_test)).collect();
        assert_eq!(
            test_flags,
            vec![
                ("fixture".into(), true),
                ("helper".into(), true),
                ("live".into(), false),
                ("after_const".into(), false),
            ]
        );
    }

    #[test]
    fn macro_rules_bodies_are_invisible() {
        let src = "\
macro_rules! gen {\n\
    ($t:ty) => { fn hidden() { x.unwrap(); } };\n\
}\n\
fn visible() {}\n";
        let fs = fns(src);
        assert_eq!(fs.len(), 1);
        assert_eq!(fs[0].name, "visible");
    }

    #[test]
    fn trait_signatures_have_no_body() {
        let src = "\
trait Codec {\n\
    fn size(&self) -> usize;\n\
    fn class(&self) -> u8 { 0 }\n\
}\n";
        let fs = fns(src);
        assert_eq!(fs.len(), 2);
        assert_eq!(fs[0].name, "size");
        assert!(fs[0].body.is_none());
        assert_eq!(fs[0].qualifier.as_deref(), Some("Codec"));
        assert!(fs[1].body.is_some());
    }

    #[test]
    fn body_ranges_cover_nested_blocks() {
        let src = "fn f() { if a { b(); } match c { _ => {} } }\nfn g() {}\n";
        let tokens = tokenize(src);
        let code = code_tokens(&tokens);
        let fs = parse(&code);
        assert_eq!(fs.len(), 2);
        let (open, close) = fs[0].body.unwrap();
        assert!(code[open].is_punct("{") && code[close].is_punct("}"));
        // g's body must start after f's body ends.
        let (g_open, _) = fs[1].body.unwrap();
        assert!(g_open > close);
    }

    #[test]
    fn where_clauses_do_not_change_the_qualifier() {
        let src = "impl<T> Wrapper<T> where T: Ord { fn get(&self) {} }\n";
        let fs = fns(src);
        assert_eq!(fs[0].qualifier.as_deref(), Some("Wrapper"));
    }
}

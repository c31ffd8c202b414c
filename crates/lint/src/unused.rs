//! U1 — a bare `pub` item of library code that no other file names; the
//! crate docs' rules table gives the corpus and the exemptions.

use std::collections::{BTreeMap, BTreeSet};

use crate::findings::Finding;
use crate::lexer::{tokenize, Token, TokenKind};
use crate::rules::{cfg_test_item_end, collect_allows};

const ITEM_KINDS: &[&str] = &["fn", "struct", "enum", "trait", "type", "const", "static"];

/// A bare-`pub` item and the code-token range of its signature.
struct PubItem<'t> {
    name: &'t Token,
    kind: &'t str,
    sig: std::ops::Range<usize>,
}

/// Runs U1 over `corpus`, `(workspace-relative path, source)` pairs.
pub fn unused_pub_items(corpus: &[(String, String)]) -> Vec<Finding> {
    let tokens: Vec<Vec<Token>> = corpus.iter().map(|(_, src)| tokenize(src)).collect();
    let named: Vec<BTreeSet<&str>> = tokens.iter().map(|t| named_idents(t)).collect();
    let mut files_naming: BTreeMap<&str, usize> = BTreeMap::new();
    for name in named.iter().flatten() {
        *files_naming.entry(name).or_insert(0) += 1;
    }
    let mut findings = Vec::new();
    for (f, (path, _)) in corpus.iter().enumerate().filter(|(_, (p, _))| is_library_source(p)) {
        let allows = collect_allows(&tokens[f]);
        let code: Vec<&Token> = tokens[f].iter().filter(|t| t.kind != TokenKind::Comment).collect();
        let items = pub_items(&code);
        let elsewhere = |name: &str| files_naming.get(name).is_some_and(|&n| n > usize::from(named[f].contains(name)));
        let mut reached: Vec<bool> =
            items.iter().map(|it| elsewhere(&it.name.text) || allows.suppresses("U1", it.name.line)).collect();
        // What a reached item's signature names is reached too.
        let mut todo: Vec<usize> = (0..items.len()).filter(|&i| reached[i]).collect();
        while let Some(r) = todo.pop() {
            for t in &code[items[r].sig.clone()] {
                for (u, it) in items.iter().enumerate() {
                    if !reached[u] && t.is_ident(&it.name.text) {
                        reached[u] = true;
                        todo.push(u);
                    }
                }
            }
        }
        for it in items.iter().zip(&reached).filter(|(_, &r)| !r).map(|(it, _)| it) {
            let message = format!("`pub {} {}` is named by no other file: drop the `pub`", it.kind, it.name.text);
            findings.push(Finding::new("U1", path, it.name.line, message));
        }
    }
    findings
}

/// Library code under `crates/*/src`, binaries excluded.
fn is_library_source(path: &str) -> bool {
    let parts: Vec<&str> = path.split('/').collect();
    let in_src = parts.len() > 3 && parts[0] == "crates" && parts[2] == "src";
    in_src && parts[3] != "bin" && !path.ends_with("/main.rs")
}

/// Identifiers a file names: code tokens outside `use` declarations.
fn named_idents(tokens: &[Token]) -> BTreeSet<&str> {
    let mut names = BTreeSet::new();
    let mut in_use = false;
    for t in tokens.iter().filter(|t| t.kind != TokenKind::Comment) {
        if t.is_ident("use") || in_use {
            in_use = !t.is_punct(";");
        } else if t.kind == TokenKind::Ident {
            names.insert(t.text.as_str());
        }
    }
    names
}

/// The bare-`pub` items of `code`, `#[cfg(test)]` items skipped.
fn pub_items<'t>(code: &[&'t Token]) -> Vec<PubItem<'t>> {
    let mut items = Vec::new();
    let mut i = 0;
    while i < code.len() {
        if let Some(end) = cfg_test_item_end(code, i) {
            i = end + 1;
            continue;
        }
        if code[i].is_ident("pub") && !code.get(i + 1).is_some_and(|t| t.is_punct("(")) {
            // Skip qualifiers: `pub const fn`, `pub unsafe extern "C" fn`.
            let mut j = i + 1;
            while code.get(j).is_some_and(|t| match t.text.as_str() {
                "unsafe" | "async" | "extern" => true,
                "const" => code.get(j + 1).is_some_and(|n| ["fn", "unsafe", "async", "extern"].contains(&n.text.as_str())),
                _ => t.kind == TokenKind::Literal,
            }) {
                j += 1;
            }
            let kind = code.get(j).map_or("", |t| t.text.as_str());
            if let Some(n) = code.get(j + 1).filter(|t| t.kind == TokenKind::Ident && ITEM_KINDS.contains(&kind)) {
                items.push(PubItem { name: n, kind, sig: i..signature_end(code, j, kind) });
            }
        }
        i += 1;
    }
    items
}

/// One past the signature of the item keyword `code[start]` opens: a fn's
/// stops before its body, a struct's, enum's or trait's after its braces.
fn signature_end(code: &[&Token], start: usize, kind: &str) -> usize {
    let braced = matches!(kind, "struct" | "enum" | "trait");
    let mut depth = 0usize;
    for (k, t) in code.iter().enumerate().skip(start).filter(|(_, t)| t.kind == TokenKind::Punct) {
        match t.text.as_str() {
            "{" if kind == "fn" && depth == 0 => return k,
            "(" | "[" | "{" => depth += 1,
            ")" | "]" | "}" => {
                depth = depth.saturating_sub(1);
                if depth == 0 && braced && t.text == "}" {
                    return k + 1;
                }
            }
            ";" if depth == 0 => return k + 1,
            _ => {}
        }
    }
    code.len()
}

//! Token-level lint rules over one source file.
//!
//! Every rule is deliberately conservative: it flags patterns a tokenizer
//! can prove are *present*, and the `// lint:allow(<rule>): <reason>`
//! escape hatch (reason mandatory) covers the cases a human can prove are
//! safe. See the README's "Static analysis & determinism rules" section
//! for the hazard each rule guards against.

use crate::findings::Finding;
use crate::lexer::{tokenize, Token, TokenKind};

/// Crates whose code is reachable from the deterministic simulator: wall
/// clocks, ambient randomness, and hash-order iteration are forbidden
/// here (rules D1/D2). `runtime` is sim-reachable too: its context/timer
/// plumbing runs inside every simulated node.
const DETERMINISTIC_CRATES: &[&str] =
    &["types", "runtime", "consensus", "broadcast", "fd", "core", "sim", "workload"];

/// Individual files outside [`DETERMINISTIC_CRATES`] whose logic must be
/// replayable from a seed: the transport's reconnect backoff decides
/// *when* links heal — nemesis runs only reproduce if its draws come from
/// a seed, never from ambient clocks or entropy (rules D1/D2). The fault
/// plan's draws live in `types`, which D1/D2 cover whole.
const DETERMINISTIC_FILES: &[&str] = &["crates/net/src/reconnect.rs"];

/// Crates whose code handles remote input: panics are forbidden (rule P1)
/// — a malformed frame must poison the connection, not the process.
pub const REMOTE_INPUT_CRATES: &[&str] = &["net"];

/// Individual files outside [`REMOTE_INPUT_CRATES`] that act on remote (or
/// crash-torn on-disk) input: the envelope codec decodes every frame a
/// peer sends — the catch-up request/reply paths included — the durable
/// decided log re-reads whatever prefix of its file survived a crash, and
/// the recovery component acts on peer-chosen catch-up ranges, reply
/// entries and piggybacked frontiers. All must degrade, never panic
/// (rule P1).
const REMOTE_INPUT_FILES: &[&str] = &[
    "crates/core/src/envelope.rs",
    "crates/core/src/decided.rs",
    "crates/core/src/recovery.rs",
];

/// Wire-facing enums: a `match` whose patterns name these must not have a
/// wildcard `_` arm (rule W1) — a new message type must be classified
/// explicitly, not silently defaulted (e.g. into the Bulk traffic class).
/// The catch-up frames (`CatchUpRequest`/`CatchUpReply`) are `Envelope`
/// variants — listed here so a match that names them through an imported
/// path still counts as wire-facing.
const WIRE_ENUMS: &[&str] =
    &["Envelope", "ConsMsg", "BcastMsg", "FdMsg", "CatchUpRequest", "CatchUpReply"];

/// Crates whose integers can end up on the wire: narrowing `as`-casts are
/// forbidden here (rule W2) — a silently truncated length or id corrupts
/// the frame for every peer.
const WIRE_CRATES: &[&str] = &["types", "net"];

/// All checkable rule names (used to validate `lint:allow` annotations).
pub const RULES: &[&str] = &["D1", "D2", "P1", "W1", "W2", "O1", "B1", "E1", "L1", "U1", "R1"];

/// The `Action` variants a host performs. Only the driver both hosts
/// share, in `crates/runtime/src`, may name them (rule R1).
const ACTION_VARIANTS: &[&str] = &["Send", "SetTimer", "Work", "Output"];

/// Lints one Rust source file. `rel_path` must be workspace-relative
/// (e.g. `crates/net/src/tcp.rs`) — rule scoping is derived from the
/// `crates/<name>/` prefix.
pub fn lint_source(rel_path: &str, source: &str) -> Vec<Finding> {
    let crate_name = crate_of(rel_path);
    let tokens = tokenize(source);
    let allows = collect_allows(&tokens);

    let mut findings: Vec<Finding> = Vec::new();
    // Allow annotations that are malformed are findings themselves (and
    // never suppress anything).
    for bad in &allows.malformed {
        findings.push(Finding::new("A1", rel_path, bad.line, bad.message.clone()));
    }

    // Code tokens outside `#[cfg(test)]` items: unit tests legitimately
    // unwrap, iterate hash maps for assertions, and match loosely.
    let code: Vec<&Token> = non_test_code_tokens(&tokens);

    let deterministic = crate_name.is_some_and(|c| DETERMINISTIC_CRATES.contains(&c))
        || DETERMINISTIC_FILES.contains(&rel_path);
    let remote_input = crate_name.is_some_and(|c| REMOTE_INPUT_CRATES.contains(&c))
        || REMOTE_INPUT_FILES.contains(&rel_path);

    if deterministic {
        rule_d1(rel_path, &code, &mut findings);
        rule_d2(rel_path, &code, &mut findings);
    }
    if remote_input {
        rule_p1(rel_path, &code, &mut findings);
    }
    rule_w1(rel_path, &code, &mut findings);
    if !rel_path.starts_with("crates/runtime/src/") {
        rule_r1(rel_path, &code, &mut findings);
    }
    if crate_name.is_some_and(|c| WIRE_CRATES.contains(&c)) {
        rule_w2(rel_path, &tokens, &mut findings);
    }

    findings.retain(|f| !allows.suppresses(&f.rule, f.line));
    findings.sort_by(|a, b| (a.line, a.rule.as_str()).cmp(&(b.line, b.rule.as_str())));
    findings.dedup_by(|a, b| a.rule == b.rule && a.line == b.line && a.message == b.message);
    findings
}

/// The `<name>` of a `crates/<name>/...` path, if any.
pub(crate) fn crate_of(rel_path: &str) -> Option<&str> {
    let rest = rel_path.strip_prefix("crates/")?;
    rest.split('/').next()
}

// ---------------------------------------------------------------------
// allow annotations
// ---------------------------------------------------------------------

struct Malformed {
    line: usize,
    message: String,
}

pub(crate) struct Allows {
    /// (rule, line-of-annotation) pairs. An allow suppresses findings of
    /// that rule on its own line (trailing comment) and on the next line
    /// (annotation on its own line above the code).
    allowed: Vec<(String, usize)>,
    malformed: Vec<Malformed>,
}

impl Allows {
    pub(crate) fn suppresses(&self, rule: &str, line: usize) -> bool {
        self.allowed
            .iter()
            .any(|(r, l)| r == rule && (line == *l || line == *l + 1))
    }
}

/// Extracts `lint:allow(<rule>): <reason>` annotations from comments. The
/// reason is mandatory: an allow without one is reported and ignored.
pub(crate) fn collect_allows(tokens: &[Token]) -> Allows {
    let mut allows = Allows { allowed: Vec::new(), malformed: Vec::new() };
    for t in tokens {
        if t.kind != TokenKind::Comment {
            continue;
        }
        // Only comments that *start* with the annotation count — prose
        // that merely mentions the `lint:allow` syntax (docs, rule
        // messages) is not an annotation.
        let content = t.text.trim_start_matches(['/', '*', '!']).trim_start();
        if !content.starts_with("lint:allow") {
            continue;
        }
        let mut rest = content;
        while let Some(idx) = rest.find("lint:allow") {
            rest = &rest[idx + "lint:allow".len()..];
            let Some(inner) = rest.strip_prefix('(') else {
                allows.malformed.push(Malformed {
                    line: t.line,
                    message: "malformed lint:allow — expected `lint:allow(<rule>): <reason>`"
                        .into(),
                });
                continue;
            };
            let Some(close) = inner.find(')') else {
                allows.malformed.push(Malformed {
                    line: t.line,
                    message: "malformed lint:allow — missing `)`".into(),
                });
                break;
            };
            let rule = inner[..close].trim().to_string();
            rest = &inner[close + 1..];
            if !RULES.contains(&rule.as_str()) {
                allows.malformed.push(Malformed {
                    line: t.line,
                    message: format!("lint:allow names unknown rule `{rule}`"),
                });
                continue;
            }
            // Mandatory reason: `): <non-empty text>`.
            let reason_ok = rest
                .trim_start()
                .strip_prefix(':')
                .is_some_and(|r| {
                    // The reason runs to the end of the comment (or the
                    // next annotation); it must contain a word.
                    let upto = r.find("lint:allow").unwrap_or(r.len());
                    r[..upto].trim().chars().any(|c| c.is_alphanumeric())
                });
            if reason_ok {
                allows.allowed.push((rule, t.line));
            } else {
                allows.malformed.push(Malformed {
                    line: t.line,
                    message: format!(
                        "lint:allow({rule}) without a reason — write \
                         `lint:allow({rule}): <why this is safe>`"
                    ),
                });
            }
        }
    }
    allows
}

// ---------------------------------------------------------------------
// #[cfg(test)] exclusion
// ---------------------------------------------------------------------

/// Returns the non-comment tokens that are *outside* any `#[cfg(test)]`
/// item (module, function, impl, …).
fn non_test_code_tokens(tokens: &[Token]) -> Vec<&Token> {
    let code: Vec<&Token> = tokens.iter().filter(|t| t.kind != TokenKind::Comment).collect();
    let mut skip_until: Vec<(usize, usize)> = Vec::new(); // index ranges
    let mut i = 0;
    while i < code.len() {
        if let Some(end) = cfg_test_item_end(&code, i) {
            skip_until.push((i, end));
            i = end + 1;
        } else {
            i += 1;
        }
    }
    code.iter()
        .enumerate()
        .filter(|(idx, _)| !skip_until.iter().any(|(s, e)| idx >= s && idx <= e))
        .map(|(_, t)| *t)
        .collect()
}

/// If `code[i]` starts a `#[cfg(… test …)]` attribute, returns the index
/// of the last token of the item it decorates.
pub(crate) fn cfg_test_item_end(code: &[&Token], i: usize) -> Option<usize> {
    if !(code[i].is_punct("#") && code.get(i + 1).is_some_and(|t| t.is_punct("["))) {
        return None;
    }
    // Find the attribute's closing `]` and check it is a cfg containing
    // the `test` flag.
    let mut depth = 0usize;
    let mut j = i + 1;
    let mut is_cfg = false;
    let mut has_test = false;
    while j < code.len() {
        match code[j].text.as_str() {
            "[" => depth += 1,
            "]" => {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            }
            "cfg" if depth == 1 && j == i + 2 => is_cfg = true,
            "test" if is_cfg => has_test = true,
            _ => {}
        }
        j += 1;
    }
    if !(is_cfg && has_test) || j >= code.len() {
        return None;
    }
    // Skip any further attributes between this one and the item.
    let mut k = j + 1;
    while k < code.len() && code[k].is_punct("#") && code.get(k + 1).is_some_and(|t| t.is_punct("["))
    {
        let mut d = 0usize;
        k += 1;
        while k < code.len() {
            match code[k].text.as_str() {
                "[" => d += 1,
                "]" => {
                    d -= 1;
                    if d == 0 {
                        break;
                    }
                }
                _ => {}
            }
            k += 1;
        }
        k += 1;
    }
    // The item runs to the first `;` at depth 0 (e.g. `mod tests;`) or to
    // the `}` matching its first `{`.
    let mut braces = 0usize;
    let mut parens = 0usize;
    let mut brackets = 0usize;
    while k < code.len() {
        match code[k].text.as_str() {
            "{" => braces += 1,
            "}" => {
                braces = braces.saturating_sub(1);
                if braces == 0 {
                    return Some(k);
                }
            }
            "(" => parens += 1,
            ")" => parens = parens.saturating_sub(1),
            "[" => brackets += 1,
            "]" => brackets = brackets.saturating_sub(1),
            ";" if braces == 0 && parens == 0 && brackets == 0 => return Some(k),
            _ => {}
        }
        k += 1;
    }
    Some(code.len() - 1)
}

// ---------------------------------------------------------------------
// D1 — no wall clock / ambient randomness in deterministic crates
// ---------------------------------------------------------------------

fn rule_d1(rel_path: &str, code: &[&Token], findings: &mut Vec<Finding>) {
    for (i, t) in code.iter().enumerate() {
        if t.kind != TokenKind::Ident {
            continue;
        }
        let seq2 = |a: &str, b: &str| {
            t.is_ident(a)
                && code.get(i + 1).is_some_and(|x| x.is_punct("::"))
                && code.get(i + 2).is_some_and(|x| x.is_ident(b))
        };
        let hit = match t.text.as_str() {
            "Instant" if seq2("Instant", "now") => {
                Some("`Instant::now()` reads the wall clock; deterministic code must use sim time")
            }
            "Instant"
                if i >= 2
                    && code[i - 1].is_punct("::")
                    && code[i - 2].is_ident("time") =>
            {
                Some("`std::time::Instant` import in a deterministic crate; use sim time")
            }
            "SystemTime" => {
                Some("`SystemTime` reads the wall clock; deterministic code must use sim time")
            }
            "thread_rng" => Some(
                "`thread_rng()` is ambient randomness; thread the seeded RNG through instead",
            ),
            "from_entropy" => Some(
                "`from_entropy()` seeds from the OS; thread the experiment seed through instead",
            ),
            _ => None,
        };
        if let Some(msg) = hit {
            findings.push(Finding::new("D1", rel_path, t.line, msg.to_string()));
        }
    }
}

// ---------------------------------------------------------------------
// D2 — no HashMap/HashSet in deterministic crates
// ---------------------------------------------------------------------

fn rule_d2(rel_path: &str, code: &[&Token], findings: &mut Vec<Finding>) {
    for t in code {
        if t.kind == TokenKind::Ident && (t.text == "HashMap" || t.text == "HashSet") {
            findings.push(Finding::new(
                "D2",
                rel_path,
                t.line,
                format!(
                    "`{}` in a deterministic crate: hash iteration order is nondeterministic \
                     and can leak into proposal/decision order — use BTreeMap/BTreeSet, or \
                     annotate a provably lookup-only use with `lint:allow(D2): <proof>`",
                    t.text
                ),
            ));
        }
    }
}

// ---------------------------------------------------------------------
// P1 — no panics in remote-input crates
// ---------------------------------------------------------------------

fn rule_p1(rel_path: &str, code: &[&Token], findings: &mut Vec<Finding>) {
    for (i, t) in code.iter().enumerate() {
        if t.kind != TokenKind::Ident {
            continue;
        }
        let method_call = |name: &str| {
            t.is_ident(name)
                && i >= 1
                && code[i - 1].is_punct(".")
                && code.get(i + 1).is_some_and(|x| x.is_punct("(") || x.is_punct("::"))
        };
        let macro_call =
            |name: &str| t.is_ident(name) && code.get(i + 1).is_some_and(|x| x.is_punct("!"));
        let hit = match t.text.as_str() {
            "unwrap" | "expect" if method_call(&t.text) => Some(format!(
                "`.{}()` on a remote-input path can take the process down on a malformed \
                 frame — propagate the error and poison the connection instead",
                t.text
            )),
            "panic" | "unreachable" | "todo" | "unimplemented" if macro_call(&t.text) => {
                Some(format!(
                    "`{}!` on a remote-input path can take the process down on a malformed \
                     frame — propagate the error and poison the connection instead",
                    t.text
                ))
            }
            _ => None,
        };
        if let Some(msg) = hit {
            findings.push(Finding::new("P1", rel_path, t.line, msg));
        }
    }
}

// ---------------------------------------------------------------------
// W1 — no wildcard arms in matches over wire enums
// ---------------------------------------------------------------------

fn rule_w1(rel_path: &str, code: &[&Token], findings: &mut Vec<Finding>) {
    for (i, t) in code.iter().enumerate() {
        if !t.is_ident("match") {
            continue;
        }
        // The match body is the first `{` after the scrutinee (struct
        // literals are not allowed in scrutinee position without parens,
        // so depth-0 `{` is the body).
        let mut j = i + 1;
        let mut parens = 0usize;
        let mut brackets = 0usize;
        let mut body_open = None;
        while j < code.len() {
            match code[j].text.as_str() {
                "(" => parens += 1,
                ")" => parens = parens.saturating_sub(1),
                "[" => brackets += 1,
                "]" => brackets = brackets.saturating_sub(1),
                "{" if parens == 0 && brackets == 0 => {
                    body_open = Some(j);
                    break;
                }
                ";" if parens == 0 && brackets == 0 => break, // not a match expr after all
                _ => {}
            }
            j += 1;
        }
        let Some(open) = body_open else { continue };
        // Walk the body, find its matching close, note (a) wire-enum
        // paths and (b) direct wildcard arms `_ =>` at body depth 1.
        let mut depth = 0usize;
        let mut k = open;
        let mut names_wire_enum = false;
        let mut wildcard_line = None;
        while k < code.len() {
            match code[k].text.as_str() {
                "{" => depth += 1,
                "}" => {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                _ => {}
            }
            if code[k].kind == TokenKind::Ident
                && WIRE_ENUMS.contains(&code[k].text.as_str())
                && code.get(k + 1).is_some_and(|x| x.is_punct("::"))
            {
                names_wire_enum = true;
            }
            if depth == 1
                && code[k].is_ident("_")
                && code.get(k + 1).is_some_and(|x| x.is_punct("=>"))
                && (k == open + 1
                    || code[k - 1].is_punct(",")
                    || code[k - 1].is_punct("{")
                    || code[k - 1].is_punct("}")
                    || code[k - 1].is_punct("|"))
            {
                wildcard_line.get_or_insert(code[k].line);
            }
            k += 1;
        }
        if names_wire_enum {
            if let Some(line) = wildcard_line {
                findings.push(Finding::new(
                    "W1",
                    rel_path,
                    line,
                    "wildcard `_ =>` arm in a match over a wire enum: a newly added message \
                     type would silently fall through (e.g. default to the Bulk traffic class \
                     or get dropped) — name every variant"
                        .to_string(),
                ));
            }
        }
    }
}

// ---------------------------------------------------------------------
// R1 — one interpreter of `Action`
// ---------------------------------------------------------------------

fn rule_r1(rel_path: &str, code: &[&Token], findings: &mut Vec<Finding>) {
    for w in code.windows(3) {
        if w[0].is_ident("Action")
            && w[1].is_punct("::")
            && ACTION_VARIANTS.iter().any(|v| w[2].is_ident(v))
        {
            findings.push(Finding::new(
                "R1",
                rel_path,
                w[0].line,
                format!(
                    "`Action::{}` outside `crates/runtime/src`: a second interpreter of \
                     `Action` lets the hosts disagree on what a node did — run handlers \
                     through `iabc_runtime::Driver` and implement `Effects` instead",
                    w[2].text
                ),
            ));
        }
    }
}

// ---------------------------------------------------------------------
// W2 — narrowing `as`-casts on wire-facing integers
// ---------------------------------------------------------------------

/// Targets that can silently drop high bits from the usize/u64 values the
/// codec traffics in.
const NARROW_INT_TARGETS: &[&str] = &["u8", "u16", "u32", "i8", "i16", "i32"];
/// All integer targets — relevant when the operand is a float expression
/// (float→int `as` saturates/truncates silently at any width).
const INT_TARGETS: &[&str] =
    &["u8", "u16", "u32", "u64", "u128", "usize", "i8", "i16", "i32", "i64", "i128", "isize"];
/// Operand-chain evidence that the cast source is a float.
const FLOAT_EVIDENCE: &[&str] = &["f32", "f64", "round", "ceil", "floor", "trunc"];
/// Operand-chain methods that clamp the value — counted as a guard.
const CLAMPING_METHODS: &[&str] = &["min", "max", "clamp", "rem_euclid"];

fn rule_w2(rel_path: &str, tokens: &[Token], findings: &mut Vec<Finding>) {
    let code = crate::parser::code_tokens(tokens);
    for item in crate::parser::parse(&code) {
        if item.cfg_test {
            continue;
        }
        let Some((open, close)) = item.body else { continue };
        for k in open + 1..close {
            if !code[k].is_ident("as") {
                continue;
            }
            let Some(target) = code.get(k + 1) else { continue };
            if target.kind != TokenKind::Ident {
                continue;
            }
            let ty = target.text.as_str();
            if !INT_TARGETS.contains(&ty) {
                continue;
            }
            let chain = operand_chain_idents(&code, k, open);
            let float_source = chain.iter().any(|c| FLOAT_EVIDENCE.contains(&c.as_str()));
            let narrowing = NARROW_INT_TARGETS.contains(&ty);
            if !narrowing && !float_source {
                continue;
            }
            if cast_is_guarded(&code, open, k, &chain) {
                continue;
            }
            let msg = if float_source {
                format!(
                    "float→int `as {ty}` saturates/truncates silently — guard the range \
                     explicitly (compare against `{ty}::MAX`) or prove the bound and \
                     annotate `lint:allow(W2): <bound>`"
                )
            } else {
                format!(
                    "narrowing `as {ty}` cast on a wire-facing value silently drops high \
                     bits and corrupts the frame for every peer — use `{ty}::try_from` \
                     with an error path, or prove the bound and annotate \
                     `lint:allow(W2): <bound>`"
                )
            };
            findings.push(Finding::new("W2", rel_path, code[k].line, msg));
        }
    }
}

/// Identifiers participating in the postfix operand expression of an `as`
/// cast at `as_idx`, collected by walking left: closing delimiters skip to
/// their opener (collecting inner idents on the way), identifier/`.`/`::`
/// runs continue the chain, and any other token ends it.
fn operand_chain_idents(code: &[&Token], as_idx: usize, floor: usize) -> Vec<String> {
    let mut idents = Vec::new();
    let mut j = as_idx;
    while j > floor + 1 {
        let prev = &code[j - 1];
        match prev.text.as_str() {
            ")" | "]" => {
                // Skip (and harvest) the delimited group.
                let mut depth = 0usize;
                let mut m = j - 1;
                loop {
                    match code[m].text.as_str() {
                        ")" | "]" | "}" => depth += 1,
                        "(" | "[" | "{" => {
                            depth -= 1;
                            if depth == 0 {
                                break;
                            }
                        }
                        _ => {
                            if code[m].kind == TokenKind::Ident {
                                idents.push(code[m].text.clone());
                            }
                        }
                    }
                    if m == floor {
                        break;
                    }
                    m -= 1;
                }
                j = m;
                continue;
            }
            "." | "::" => {
                j -= 1;
                continue;
            }
            _ => {}
        }
        if prev.kind == TokenKind::Ident {
            idents.push(prev.text.clone());
            j -= 1;
            continue;
        }
        break;
    }
    idents
}

/// Heuristic bound-check detection: the cast counts as guarded when the
/// operand chain itself clamps (`.min(…)`, `.clamp(…)`, `try_from`), or
/// when an earlier token in the same function compares one of the
/// operand's identifiers (`x < LIMIT`, `assert!(n <= u16::MAX …)`). This
/// errs toward trusting a visible comparison — the reviewer-facing signal
/// — and `lint:allow(W2)` documents anything subtler.
fn cast_is_guarded(code: &[&Token], body_open: usize, as_idx: usize, chain: &[String]) -> bool {
    if chain
        .iter()
        .any(|c| CLAMPING_METHODS.contains(&c.as_str()) || c == "try_from")
    {
        return true;
    }
    // Identifiers that can meaningfully appear in a bound comparison:
    // drop `self` (ubiquitous) and primitive type names.
    let meaningful: Vec<&str> = chain
        .iter()
        .map(String::as_str)
        .filter(|c| *c != "self" && !INT_TARGETS.contains(c) && !FLOAT_EVIDENCE.contains(c))
        .collect();
    if meaningful.is_empty() {
        return false;
    }
    for j in body_open + 1..as_idx {
        if !(code[j].is_punct("<") || code[j].is_punct(">")) {
            continue;
        }
        let left_hit = code
            .get(j.wrapping_sub(1))
            .is_some_and(|t| t.kind == TokenKind::Ident && meaningful.contains(&t.text.as_str()));
        // The right operand may start with `=` (`<=`, `>=` lex as two
        // tokens) or a path prefix.
        let mut r = j + 1;
        if code.get(r).is_some_and(|t| t.is_punct("=")) {
            r += 1;
        }
        let right_hit = code
            .get(r)
            .is_some_and(|t| t.kind == TokenKind::Ident && meaningful.contains(&t.text.as_str()));
        if left_hit || right_hit {
            return true;
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crate_scoping() {
        assert_eq!(crate_of("crates/net/src/tcp.rs"), Some("net"));
        assert_eq!(crate_of("src/lib.rs"), None);
    }

    #[test]
    fn allow_on_same_or_next_line_suppresses() {
        let src = "\
use std::collections::HashMap; // lint:allow(D2): lookup-only proof here\n\
// lint:allow(D2): field is never iterated\n\
struct S { m: HashMap<u32, u32> }\n";
        let f = lint_source("crates/core/src/x.rs", src);
        assert!(f.is_empty(), "expected clean, got {f:?}");
    }

    #[test]
    fn allow_without_reason_is_a_finding_and_does_not_suppress() {
        let src = "use std::collections::HashMap; // lint:allow(D2)\n";
        let f = lint_source("crates/core/src/x.rs", src);
        let rules: Vec<_> = f.iter().map(|f| f.rule.as_str()).collect();
        assert!(rules.contains(&"A1"), "missing A1 in {f:?}");
        assert!(rules.contains(&"D2"), "allow without reason must not suppress: {f:?}");
    }

    #[test]
    fn unknown_rule_in_allow_is_flagged() {
        let f = lint_source("crates/core/src/x.rs", "// lint:allow(Z9): because\n");
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, "A1");
    }

    #[test]
    fn cfg_test_mod_is_excluded() {
        let src = "\
pub fn ok() {}\n\
#[cfg(test)]\n\
mod tests {\n\
    use std::collections::HashMap;\n\
    fn f() { let x: Option<u32> = None; x.unwrap(); }\n\
}\n";
        assert!(lint_source("crates/core/src/x.rs", src).is_empty());
        assert!(lint_source("crates/net/src/x.rs", src).is_empty());
    }

    #[test]
    fn d1_fires_on_wall_clock_and_ambient_rng() {
        let src = "fn f() { let t = Instant::now(); let r = thread_rng(); }\n";
        let f = lint_source("crates/sim/src/x.rs", src);
        assert_eq!(f.iter().filter(|f| f.rule == "D1").count(), 2, "{f:?}");
        // Same code in a non-deterministic crate is fine.
        assert!(lint_source("crates/net/src/x.rs", src)
            .iter()
            .all(|f| f.rule != "D1"));
    }

    #[test]
    fn p1_fires_only_on_calls_not_fields() {
        let src = "fn f(x: Option<u32>) { x.unwrap(); }\nstruct S { unwrap: u32 }\n";
        let f = lint_source("crates/net/src/x.rs", src);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].line, 1);
    }

    #[test]
    fn w2_flags_unguarded_narrowing_in_wire_crates() {
        let src = "fn f(len: usize, buf: &mut Vec<u8>) { buf.push(len as u8); }\n";
        let f = lint_source("crates/types/src/x.rs", src);
        assert_eq!(f.iter().filter(|f| f.rule == "W2").count(), 1, "{f:?}");
        // Same code outside the wire crates is quiet.
        assert!(lint_source("crates/sim/src/x.rs", src).iter().all(|f| f.rule != "W2"));
        // And in test code.
        let test_src = "#[cfg(test)]\nmod tests { fn f(n: usize) -> u8 { n as u8 } }\n";
        assert!(lint_source("crates/types/src/x.rs", test_src).is_empty());
    }

    #[test]
    fn w2_accepts_guarded_and_clamped_casts() {
        // Explicit comparison on the operand before the cast.
        let guarded = "\
fn f(body_len: usize) -> u32 {\n\
    if body_len > MAX_FRAME { return 0; }\n\
    body_len as u32\n\
}\n";
        assert!(lint_source("crates/net/src/x.rs", guarded).is_empty());
        // Clamped chain.
        let clamped = "fn f(n: u64) -> u16 { n.min(65535) as u16 }\n";
        assert!(lint_source("crates/types/src/x.rs", clamped).is_empty());
        // Assert-style guard.
        let asserted = "fn f(ns: f64) -> u64 { assert!(ns <= MAX_NS); ns.round() as u64 }\n";
        assert!(lint_source("crates/types/src/x.rs", asserted).is_empty());
        // A reasoned allow.
        let allowed = "\
fn f(b: bool, buf: &mut Vec<u8>) {\n\
    buf.push(b as u8); // lint:allow(W2): bool is 0 or 1, always fits\n\
}\n";
        assert!(lint_source("crates/types/src/x.rs", allowed).is_empty());
    }

    #[test]
    fn w2_flags_unguarded_float_to_int_at_any_width() {
        let src = "fn f(x: f64) -> u64 { (x * 2.0).round() as u64 }\n";
        let f = lint_source("crates/types/src/x.rs", src);
        assert_eq!(f.iter().filter(|f| f.rule == "W2").count(), 1, "{f:?}");
        // Widening int→int at u64 stays quiet (no float evidence).
        let widen = "fn f(x: u32) -> u64 { x as u64 }\n";
        assert!(lint_source("crates/types/src/x.rs", widen).is_empty());
    }

    #[test]
    fn p1_covers_the_decode_files_outside_net() {
        // The envelope codec and the durable decided log decode remote /
        // crash-torn bytes, and recovery acts on peer-chosen ranges and
        // entries: a panic there takes the process down on input it does
        // not control, exactly the hazard P1 exists for.
        let src = "fn f(x: Option<u32>) { x.unwrap(); }\n";
        for file in REMOTE_INPUT_FILES {
            let f = lint_source(file, src);
            assert_eq!(f.iter().filter(|f| f.rule == "P1").count(), 1, "{file}: {f:?}");
        }
        // The rest of `core` — the ordering core included — keeps its
        // crate-level scope (no P1).
        assert!(lint_source("crates/core/src/node.rs", src).is_empty());
    }

    #[test]
    fn w1_covers_the_catch_up_frames() {
        // Matching the catch-up variants through an imported path must
        // still count as wire-facing: a wildcard arm here would silently
        // drop a future frame kind.
        let src = "fn f(e: E) -> u32 { match e { CatchUpRequest::X => 1, _ => 0 } }\n";
        let f = lint_source("crates/core/src/x.rs", src);
        assert_eq!(f.iter().filter(|f| f.rule == "W1").count(), 1, "{f:?}");
    }

    #[test]
    fn w1_needs_both_wire_enum_and_wildcard() {
        let over_wire = "fn f(e: E) -> u32 { match e { ConsMsg::Nack => 1, _ => 0 } }\n";
        let f = lint_source("crates/core/src/x.rs", over_wire);
        assert_eq!(f.iter().filter(|f| f.rule == "W1").count(), 1, "{f:?}");
        // Wildcard over a non-wire enum: quiet.
        let plain = "fn f(x: u32) -> u32 { match x { 1 => 1, _ => 0 } }\n";
        assert!(lint_source("crates/core/src/x.rs", plain).is_empty());
        // Exhaustive match over a wire enum: quiet.
        let exhaustive = "fn f(m: FdMsg) { match m { FdMsg::Heartbeat(h) => drop(h) } }\n";
        assert!(lint_source("crates/fd/src/x.rs", exhaustive).is_empty());
        // `Some(_)` patterns are not wildcard arms.
        let inner = "fn f(m: Option<u32>) -> u32 { match m { Some(_) => ConsMsg::x(), None => 0 } }\n";
        assert!(lint_source("crates/core/src/x.rs", inner).is_empty());
    }
}

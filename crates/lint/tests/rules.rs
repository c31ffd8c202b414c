//! Fixture tests: every rule has a firing (`*_bad`) and a quiet
//! (`*_good`) fixture under `tests/fixtures/`. The fixtures are plain
//! source text fed through `lint_source` with a synthetic in-scope path —
//! they are not compiled.

use iabc_lint::{
    analyze_files, check_crate_deps, lint_source, package_name, parse_dependencies,
    unused_pub_items, Finding,
};

/// Run the flow rules (O1/B1/P1-transitive) over one fixture as if it
/// lived at `path` inside the workspace.
fn flow_findings(path: &str, source: &str) -> Vec<Finding> {
    analyze_files(&[(path.to_string(), source.to_string())])
}

fn rules_of(findings: &[Finding]) -> Vec<&str> {
    findings.iter().map(|f| f.rule.as_str()).collect()
}

fn assert_only_rule(findings: &[Finding], rule: &str) {
    assert!(!findings.is_empty(), "expected {rule} findings, got none");
    assert!(
        findings.iter().all(|f| f.rule == rule),
        "expected only {rule}, got {findings:?}"
    );
}

// --- D1: wall clock / ambient randomness ------------------------------

#[test]
fn d1_bad_fires() {
    let f = lint_source("crates/sim/src/fixture.rs", include_str!("fixtures/d1_bad.rs"));
    assert_only_rule(&f, "D1");
    // Instant::now, the std::time::Instant import, thread_rng, SystemTime.
    assert!(f.len() >= 4, "{f:?}");
}

#[test]
fn d1_good_is_quiet() {
    let f = lint_source("crates/sim/src/fixture.rs", include_str!("fixtures/d1_good.rs"));
    assert!(f.is_empty(), "{f:?}");
}

#[test]
fn d1_out_of_scope_is_quiet() {
    // The same hazards outside a deterministic crate are not D1's business.
    let f = lint_source("crates/net/src/fixture.rs", include_str!("fixtures/d1_bad.rs"));
    assert!(f.iter().all(|f| f.rule != "D1"), "{f:?}");
}

// --- D2: hash collections ---------------------------------------------

#[test]
fn d2_bad_fires() {
    let f = lint_source("crates/core/src/fixture.rs", include_str!("fixtures/d2_bad.rs"));
    assert_only_rule(&f, "D2");
}

#[test]
fn d2_good_is_quiet() {
    // BTree collections plus one annotated lookup-only HashMap.
    let f = lint_source("crates/core/src/fixture.rs", include_str!("fixtures/d2_good.rs"));
    assert!(f.is_empty(), "{f:?}");
}

// --- P1: panics on remote-input paths ---------------------------------

#[test]
fn p1_bad_fires() {
    let f = lint_source("crates/net/src/fixture.rs", include_str!("fixtures/p1_bad.rs"));
    assert_only_rule(&f, "P1");
    // expect, panic!, unreachable!, unwrap.
    assert!(f.len() >= 4, "{f:?}");
}

#[test]
fn p1_good_is_quiet() {
    let f = lint_source("crates/net/src/fixture.rs", include_str!("fixtures/p1_good.rs"));
    assert!(f.is_empty(), "{f:?}");
}

#[test]
fn p1_out_of_scope_is_quiet() {
    // Panics outside the remote-input crates are not P1's business (D1/D2
    // do not fire on this fixture either — it has no clocks or hash maps).
    let f = lint_source("crates/core/src/fixture.rs", include_str!("fixtures/p1_bad.rs"));
    assert!(f.is_empty(), "{f:?}");
}

// --- W1: wildcard arms over wire enums --------------------------------

#[test]
fn w1_bad_fires() {
    let f = lint_source("crates/core/src/fixture.rs", include_str!("fixtures/w1_bad.rs"));
    assert_only_rule(&f, "W1");
    assert_eq!(f.len(), 1, "{f:?}");
}

#[test]
fn w1_good_is_quiet() {
    let f = lint_source("crates/core/src/fixture.rs", include_str!("fixtures/w1_good.rs"));
    assert!(f.is_empty(), "{f:?}");
}

// --- W2: narrowing casts in wire crates --------------------------------

#[test]
fn w2_bad_fires() {
    let f = lint_source("crates/types/src/fixture.rs", include_str!("fixtures/w2_bad.rs"));
    assert_only_rule(&f, "W2");
    // len as u32, id as u8, and the unguarded float→int cast.
    assert_eq!(f.len(), 3, "{f:?}");
}

#[test]
fn w2_good_is_quiet() {
    let f = lint_source("crates/types/src/fixture.rs", include_str!("fixtures/w2_good.rs"));
    assert!(f.is_empty(), "{f:?}");
}

#[test]
fn w2_out_of_scope_is_quiet() {
    // The same casts outside the wire crates are not W2's business.
    let f = lint_source("crates/core/src/fixture.rs", include_str!("fixtures/w2_bad.rs"));
    assert!(f.iter().all(|f| f.rule != "W2"), "{f:?}");
}

// --- O1: lock-order inversion ------------------------------------------

#[test]
fn o1_bad_fires() {
    let f = flow_findings("crates/net/src/fixture.rs", include_str!("fixtures/o1_bad.rs"));
    assert_only_rule(&f, "O1");
    // One finding at each side of the inversion.
    assert_eq!(f.len(), 2, "{f:?}");
    assert!(
        f.iter().any(|f| f.message.contains("pending")) && f.iter().any(|f| f.message.contains("flushing")),
        "messages should name both locks: {f:?}"
    );
}

#[test]
fn o1_good_is_quiet() {
    // Consistent canonical order, including an acquisition through a call.
    let f = flow_findings("crates/net/src/fixture.rs", include_str!("fixtures/o1_good.rs"));
    assert!(f.is_empty(), "{f:?}");
}

// --- B1: blocking while holding a guard --------------------------------

#[test]
fn b1_bad_fires() {
    let f = flow_findings("crates/net/src/fixture.rs", include_str!("fixtures/b1_bad.rs"));
    assert_only_rule(&f, "B1");
    // The direct write under the guard, and the call into a helper that blocks.
    assert_eq!(f.len(), 2, "{f:?}");
}

#[test]
fn b1_good_is_quiet() {
    // Guard dropped (explicitly or by scope) before the write; the condvar
    // wait releases its own guard's lock.
    let f = flow_findings("crates/net/src/fixture.rs", include_str!("fixtures/b1_good.rs"));
    assert!(f.is_empty(), "{f:?}");
}

// --- E1: blocking inside the event-loop module --------------------------

#[test]
fn e1_bad_fires() {
    let f = flow_findings("crates/net/src/event_loop.rs", include_str!("fixtures/e1_bad.rs"));
    assert_only_rule(&f, "E1");
    // Direct write, direct sleep, the call into the blocking helper, and
    // the helper's own write (it lives in the module set too).
    assert_eq!(f.len(), 4, "{f:?}");
}

#[test]
fn e1_good_is_quiet() {
    let f = flow_findings("crates/net/src/event_loop.rs", include_str!("fixtures/e1_good.rs"));
    assert!(f.is_empty(), "{f:?}");
}

#[test]
fn e1_out_of_scope_is_quiet() {
    // The same blocking code outside the event-loop module set is not
    // E1's business (`TcpCluster::start` blocks in `accept` by design,
    // before any loop runs).
    let f = flow_findings("crates/net/src/tcp.rs", include_str!("fixtures/e1_bad.rs"));
    assert!(f.iter().all(|f| f.rule != "E1"), "{f:?}");
}

#[test]
fn e1_sanctions_the_poller_shims() {
    // A call from the loop into the poller module is exempt even though
    // the shim contains a `read` call — `O_NONBLOCK` makes it return
    // `WouldBlock` instead of parking. The identical helper anywhere
    // else propagates its blocking fact into the loop.
    let loop_src = "fn service(s: &mut S) { try_read_chunk(s); }\n".to_string();
    let shim = "pub fn try_read_chunk(s: &mut S) -> usize { s.stream.read(&mut s.buf).unwrap_or(0) }\n";
    let quiet = analyze_files(&[
        ("crates/net/src/event_loop.rs".to_string(), loop_src.clone()),
        ("crates/net/src/poll.rs".to_string(), shim.to_string()),
    ]);
    assert!(quiet.iter().all(|f| f.rule != "E1"), "{quiet:?}");
    let loud = analyze_files(&[
        ("crates/net/src/event_loop.rs".to_string(), loop_src),
        ("crates/net/src/io.rs".to_string(), shim.to_string()),
    ]);
    assert!(
        loud.iter().any(|f| f.rule == "E1" && f.file == "crates/net/src/event_loop.rs"),
        "{loud:?}"
    );
}

#[test]
fn e1_stops_at_the_hosted_node_callbacks() {
    // The loop hosts the node: `on_message` and friends run on the loop
    // thread, and what a node does inside them is the node's contract.
    // The same blocking body behind any other name is still the loop's.
    let host = |callee: &str| format!("fn deliver(n: &mut N, m: M) {{ n.{callee}(m); }}\n");
    let node = |name: &str| format!("impl Stack {{ pub fn {name}(&mut self, m: M) {{ self.log.write_all(&m.0); }} }}\n");
    let quiet = analyze_files(&[
        ("crates/net/src/event_loop.rs".to_string(), host("on_message")),
        ("crates/core/src/stack.rs".to_string(), node("on_message")),
    ]);
    assert!(quiet.iter().all(|f| f.rule != "E1"), "{quiet:?}");
    let loud = analyze_files(&[
        ("crates/net/src/event_loop.rs".to_string(), host("persist")),
        ("crates/core/src/stack.rs".to_string(), node("persist")),
    ]);
    assert!(loud.iter().any(|f| f.rule == "E1"), "{loud:?}");
}

// --- U1: pub items no other file names ---------------------------------

/// Run U1 over a two-file corpus: `lib` as a library file, plus
/// `u1_user.rs` as a test file naming some of its items.
fn u1_findings(lib_path: &str, lib: &str) -> Vec<Finding> {
    unused_pub_items(&[
        (lib_path.to_string(), lib.to_string()),
        ("tests/user.rs".to_string(), include_str!("fixtures/u1_user.rs").to_string()),
    ])
}

#[test]
fn u1_bad_fires() {
    let src = include_str!("fixtures/u1_bad.rs");
    let f = u1_findings("crates/demo/src/lib.rs", src);
    assert_only_rule(&f, "U1");
    // `orphan`, `ReExported` (named only in a `use` and a comment) and
    // `UNEXPLAINED` (its allow has no reason); not the test module's helper.
    let lines: Vec<usize> = f.iter().map(|f| f.line).collect();
    assert_eq!(lines, vec![4, 10, 14], "{f:?}");
    // The reasonless allow is itself an A1.
    assert_eq!(rules_of(&lint_source("crates/demo/src/lib.rs", src)), vec!["A1"]);
}

#[test]
fn u1_good_is_quiet() {
    // Named elsewhere, named in a reached sibling's signature, not bare
    // `pub`, or allowed with a reason.
    let f = u1_findings("crates/demo/src/lib.rs", include_str!("fixtures/u1_good.rs"));
    assert!(f.is_empty(), "{f:?}");
}

#[test]
fn u1_out_of_scope_is_quiet() {
    // Binaries, tests and examples are corpus, never candidates.
    for path in ["crates/demo/src/main.rs", "crates/demo/src/bin/tool.rs", "examples/demo.rs"] {
        let f = u1_findings(path, include_str!("fixtures/u1_bad.rs"));
        assert!(f.is_empty(), "{path}: {f:?}");
    }
}

// --- A1: allow hygiene -------------------------------------------------

#[test]
fn allow_without_reason_is_flagged_and_does_not_suppress() {
    let f = lint_source("crates/core/src/fixture.rs", include_str!("fixtures/allow_bad.rs"));
    let rules = rules_of(&f);
    // Two malformed allows (missing reason, unknown rule) ...
    assert_eq!(rules.iter().filter(|r| **r == "A1").count(), 2, "{f:?}");
    // ... and the HashMap findings they failed to suppress.
    assert_eq!(rules.iter().filter(|r| **r == "D2").count(), 2, "{f:?}");
}

// --- L1: layering ------------------------------------------------------

#[test]
fn l1_bad_fires() {
    let manifest = include_str!("fixtures/l1_bad.toml");
    let pkg = package_name(manifest).expect("fixture has a package name");
    let f = check_crate_deps(&pkg, "crates/sim/Cargo.toml", &parse_dependencies(manifest));
    assert_only_rule(&f, "L1");
    // sim → net (same layer) and sim → bench (terminal).
    assert_eq!(f.len(), 2, "{f:?}");
}

#[test]
fn l1_good_is_quiet() {
    let manifest = include_str!("fixtures/l1_good.toml");
    let pkg = package_name(manifest).expect("fixture has a package name");
    let f = check_crate_deps(&pkg, "crates/sim/Cargo.toml", &parse_dependencies(manifest));
    assert!(f.is_empty(), "{f:?}");
}

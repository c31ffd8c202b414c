//! Workspace-level flow rules: O1 lock-order, B1 hold-while-blocking,
//! E1 no-blocking-in-the-event-loop, and call-graph-aware P1.
//!
//! These rules need to see every file at once — a lock-order inversion is
//! a property of two functions that may live in different files, and a
//! panic two calls below a `net` entry point is invisible to any per-file
//! scan. [`analyze_files`] takes the whole workspace's sources, extracts
//! per-function facts through [`crate::parser`]/[`crate::callgraph`], and
//! emits findings. Per-file `lint:allow` annotations suppress findings in
//! that file exactly as they do for the token-level rules.

use std::collections::BTreeMap;

use crate::callgraph::{extract_fn_info, CallGraph, FnInfo};
use crate::findings::Finding;
use crate::lexer::tokenize;
use crate::parser::{code_tokens, parse};
use crate::rules::{collect_allows, crate_of, Allows, REMOTE_INPUT_CRATES};

/// Runs the flow rules over a set of `(workspace-relative path, source)`
/// files — normally the whole workspace, or a synthetic set in tests.
pub fn analyze_files(files: &[(String, String)]) -> Vec<Finding> {
    let mut infos: Vec<FnInfo> = Vec::new();
    let mut allows: BTreeMap<String, Allows> = BTreeMap::new();
    for (rel_path, source) in files {
        let tokens = tokenize(source);
        allows.insert(rel_path.clone(), collect_allows(&tokens));
        let code = code_tokens(&tokens);
        let crate_name = crate_of(rel_path);
        for item in parse(&code) {
            // Test functions neither seed nor receive flow findings, and
            // excluding them from the graph keeps a test helper from
            // aliasing a production function by name.
            if item.cfg_test || item.body.is_none() {
                continue;
            }
            infos.push(extract_fn_info(rel_path, crate_name, &item, &code));
        }
    }
    let graph = CallGraph::build(infos);

    let mut findings = Vec::new();
    rule_o1(&graph, &mut findings);
    rule_b1(&graph, &mut findings);
    rule_e1(&graph, &mut findings);
    rule_p1_transitive(&graph, &mut findings);

    findings.retain(|f| {
        allows
            .get(&f.file)
            .is_none_or(|a| !a.suppresses(&f.rule, f.line))
    });
    findings.sort_by(|a, b| (&a.file, a.line, &a.rule).cmp(&(&b.file, b.line, &b.rule)));
    findings.dedup_by(|a, b| a.rule == b.rule && a.file == b.file && a.line == b.line);
    findings
}

/// One observed "holding A, acquire B" ordering with its provenance.
struct OrderSite {
    fn_idx: usize,
    line: usize,
    how: String,
}

// ---------------------------------------------------------------------
// O1 — inconsistent lock acquisition order (static deadlock detector)
// ---------------------------------------------------------------------

fn rule_o1(graph: &CallGraph, findings: &mut Vec<Finding>) {
    // First observed site per ordered lock pair (A held, B acquired),
    // both directly and through calls whose transitive acquisition set
    // contains B.
    let acq = graph.transitive_acquires();
    let mut pairs: BTreeMap<(String, String), OrderSite> = BTreeMap::new();
    for (i, f) in graph.fns.iter().enumerate() {
        for l in &f.locks {
            for h in &l.held {
                if *h != l.lock {
                    pairs.entry((h.clone(), l.lock.clone())).or_insert(OrderSite {
                        fn_idx: i,
                        line: l.line,
                        how: format!("`.lock()` on `{}`", l.lock),
                    });
                }
            }
        }
        for c in &f.calls {
            if c.held.is_empty() {
                continue;
            }
            for j in graph.resolve_call(c) {
                for lock in &acq[j] {
                    for h in &c.held {
                        if h != lock {
                            pairs.entry((h.clone(), lock.clone())).or_insert(OrderSite {
                                fn_idx: i,
                                line: c.line,
                                how: format!(
                                    "call to `{}`, which acquires `{lock}`",
                                    graph.fns[j].display_name()
                                ),
                            });
                        }
                    }
                }
            }
        }
    }
    // An inversion is a pair present in both orders anywhere in the
    // workspace. Report at both sites so each side sees the other.
    for ((a, b), site) in &pairs {
        let Some(rev) = pairs.get(&(b.clone(), a.clone())) else { continue };
        let f = &graph.fns[site.fn_idx];
        let other = &graph.fns[rev.fn_idx];
        findings.push(Finding::new(
            "O1",
            &f.file,
            site.line,
            format!(
                "lock-order inversion: `{}` holds `{a}` and then takes `{b}` ({how}), but \
                 `{other_fn}` ({other_file}:{other_line}) acquires them in the opposite \
                 order — two threads interleaving these paths can deadlock; pick one \
                 canonical order (see the module doc of the file that owns the locks)",
                f.display_name(),
                how = site.how,
                other_fn = other.display_name(),
                other_file = other.file,
                other_line = rev.line,
            ),
        ));
    }
}

// ---------------------------------------------------------------------
// B1 — blocking operation while a lock guard is live
// ---------------------------------------------------------------------

fn rule_b1(graph: &CallGraph, findings: &mut Vec<Finding>) {
    let blocking = graph.transitive_blocking();
    for (i, f) in graph.fns.iter().enumerate() {
        // Direct: a blocking op with a guard still held.
        for b in &f.blocking {
            if b.held.is_empty() {
                continue;
            }
            findings.push(Finding::new(
                "B1",
                &f.file,
                b.line,
                format!(
                    "`{}` blocks while `{}` holds the guard of `{}` — every thread \
                     contending for that lock stalls for the full I/O; move the blocking \
                     call after the guard is dropped",
                    b.op,
                    f.display_name(),
                    b.held.join("`, `"),
                ),
            ));
        }
        // Transitive: calling a function that may block, guard held.
        for c in &f.calls {
            if c.held.is_empty() {
                continue;
            }
            for j in graph.resolve_call(c) {
                if j == i {
                    continue;
                }
                if let Some(reason) = &blocking[j] {
                    findings.push(Finding::new(
                        "B1",
                        &f.file,
                        c.line,
                        format!(
                            "`{}` calls `{}` while holding the guard of `{}`, and that \
                             callee may block ({reason}) — move the call after the guard \
                             is dropped or split the callee",
                            f.display_name(),
                            graph.fns[j].display_name(),
                            c.held.join("`, `"),
                        ),
                    ));
                    break; // one finding per call site is enough
                }
            }
        }
    }
}

// ---------------------------------------------------------------------
// E1 — blocking operation inside the event-loop module set
// ---------------------------------------------------------------------

/// Files that make up the event-driven transport's hot loop. One I/O
/// loop serves every connection of the process, so a single blocking
/// call here stalls them all — rule E1 flags every function defined in
/// these files that may block, directly or through a callee.
pub const EVENT_LOOP_FILES: &[&str] = &[
    "crates/net/src/event_loop.rs",
    // Loop-resident helpers: the reconnect state machine and the fault
    // shim both run on the loop thread, so they inherit its no-blocking
    // contract.
    "crates/net/src/reconnect.rs",
    "crates/net/src/netfault.rs",
];

/// Files exempt from E1 propagation: the poller and its syscall shims.
/// The `try_read`/`try_write*` helpers wrap `O_NONBLOCK` fds — their
/// `read`/`write` calls return `WouldBlock` instead of parking — and
/// `Poller::wait` is the loop's single sanctioned parking point,
/// accounted for with a reasoned `lint:allow(E1)` at its call site.
pub const EVENT_LOOP_SANCTIONED_FILES: &[&str] = &["crates/net/src/poll.rs"];

/// The `Node` callbacks the loop hosts. Handlers now run on the loop, so
/// a blocking call inside a `Node` stalls that process's I/O (as it
/// stalled the node thread before) — that is the node's contract, not the
/// transport's: E1 polices the code the transport owns and stops at this
/// boundary instead of flagging every path into a protocol stack.
pub const EVENT_LOOP_HOSTED_CALLBACKS: &[&str] =
    &["on_start", "on_message", "on_command", "on_timer"];

fn rule_e1(graph: &CallGraph, findings: &mut Vec<Finding>) {
    let blocking = graph.transitive_blocking_where(|f| {
        let file = f.file.as_str();
        EVENT_LOOP_SANCTIONED_FILES.contains(&file)
            || (EVENT_LOOP_HOSTED_CALLBACKS.contains(&f.name.as_str())
                && !EVENT_LOOP_FILES.contains(&file))
    });
    for (i, f) in graph.fns.iter().enumerate() {
        if !EVENT_LOOP_FILES.contains(&f.file.as_str()) {
            continue;
        }
        // Direct: a blocking op in the loop's own body, guards or not.
        for b in &f.blocking {
            findings.push(Finding::new(
                "E1",
                &f.file,
                b.line,
                format!(
                    "`{}` blocks inside the event-loop module (`{}`): one I/O loop serves \
                     every connection of the process, so a parked loop stalls them all — \
                     hand the fd to the poller and retry on readiness, or prove the call \
                     cannot park and annotate `lint:allow(E1): <why>`",
                    b.op,
                    f.display_name(),
                ),
            ));
        }
        // Transitive: calling anything that may block, wherever it lives.
        for c in &f.calls {
            for j in graph.resolve_call(c) {
                if j == i {
                    continue;
                }
                if let Some(reason) = &blocking[j] {
                    findings.push(Finding::new(
                        "E1",
                        &f.file,
                        c.line,
                        format!(
                            "`{}` calls `{}` from the event-loop module, and that callee \
                             may block ({reason}) — one I/O loop serves every connection \
                             of the process, so a parked loop stalls them all; make the \
                             callee nonblocking or move the call off-loop",
                            f.display_name(),
                            graph.fns[j].display_name(),
                        ),
                    ));
                    break; // one finding per call site is enough
                }
            }
        }
    }
}

// ---------------------------------------------------------------------
// P1 (call-graph-aware) — panics reachable from remote-input entries
// ---------------------------------------------------------------------

fn rule_p1_transitive(graph: &CallGraph, findings: &mut Vec<Finding>) {
    let seeds: Vec<usize> = graph
        .fns
        .iter()
        .enumerate()
        .filter(|(_, f)| {
            f.crate_name
                .as_deref()
                .is_some_and(|c| REMOTE_INPUT_CRATES.contains(&c))
        })
        .map(|(i, _)| i)
        .collect();
    let parent = graph.reachable(&seeds);
    for &i in parent.keys() {
        let f = &graph.fns[i];
        // Functions inside the remote-input crates are already covered by
        // the token-level P1; this rule extends coverage to helpers they
        // reach in other crates.
        if f.crate_name
            .as_deref()
            .is_some_and(|c| REMOTE_INPUT_CRATES.contains(&c))
        {
            continue;
        }
        for p in &f.panics {
            let path = graph.path_to(&parent, i).join("` → `");
            findings.push(Finding::new(
                "P1",
                &f.file,
                p.line,
                format!(
                    "`{}` in `{}` is reachable from a remote-input entry point \
                     (`{path}`): a malformed frame can take the process down — propagate \
                     the error, or prove the invariant and annotate \
                     `lint:allow(P1): <why>`",
                    p.what,
                    f.display_name(),
                ),
            ));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(files: &[(&str, &str)]) -> Vec<Finding> {
        let owned: Vec<(String, String)> =
            files.iter().map(|(p, s)| (p.to_string(), s.to_string())).collect();
        analyze_files(&owned)
    }

    #[test]
    fn o1_fires_on_cross_function_inversion() {
        let src = "\
fn forward(&self) {\n\
    let a = self.alpha.lock().unwrap();\n\
    let b = self.beta.lock().unwrap();\n\
    drop(b); drop(a);\n\
}\n\
fn backward(&self) {\n\
    let b = self.beta.lock().unwrap();\n\
    let a = self.alpha.lock().unwrap();\n\
    drop(a); drop(b);\n\
}\n";
        let f = run(&[("crates/net/src/x.rs", src)]);
        let o1: Vec<_> = f.iter().filter(|f| f.rule == "O1").collect();
        assert_eq!(o1.len(), 2, "{f:?}");
    }

    #[test]
    fn o1_sees_inversions_through_calls() {
        let a = "\
fn outer(&self) {\n\
    let a = self.alpha.lock().unwrap();\n\
    self.inner();\n\
    drop(a);\n\
}\n";
        let b = "\
fn inner(&self) {\n\
    let b = self.beta.lock().unwrap();\n\
    drop(b);\n\
}\n\
fn reversed(&self) {\n\
    let b = self.beta.lock().unwrap();\n\
    let a = self.alpha.lock().unwrap();\n\
    drop(a); drop(b);\n\
}\n";
        let f = run(&[("crates/net/src/a.rs", a), ("crates/net/src/b.rs", b)]);
        assert!(f.iter().any(|f| f.rule == "O1" && f.file == "crates/net/src/a.rs"), "{f:?}");
    }

    #[test]
    fn consistent_order_is_quiet() {
        let src = "\
fn one(&self) { let a = self.alpha.lock().unwrap(); let b = self.beta.lock().unwrap(); }\n\
fn two(&self) { let a = self.alpha.lock().unwrap(); let b = self.beta.lock().unwrap(); }\n";
        let f = run(&[("crates/net/src/x.rs", src)]);
        assert!(f.iter().all(|f| f.rule != "O1"), "{f:?}");
    }

    #[test]
    fn b1_direct_and_transitive() {
        let src = "\
fn bad(&self, w: &mut W) {\n\
    let s = self.state.lock().unwrap();\n\
    w.write_all(&s.buf).ok();\n\
}\n\
fn helper(&self, w: &mut W) { w.flush().ok(); }\n\
fn bad_transitive(&self, w: &mut W) {\n\
    let s = self.state.lock().unwrap();\n\
    self.helper(w);\n\
}\n\
fn good(&self, w: &mut W) {\n\
    let batch = { let s = self.state.lock().unwrap(); s.take() };\n\
    w.write_all(&batch).ok();\n\
}\n";
        let f = run(&[("crates/net/src/x.rs", src)]);
        let b1_lines: Vec<usize> = f.iter().filter(|f| f.rule == "B1").map(|f| f.line).collect();
        assert_eq!(b1_lines, vec![3, 8], "{f:?}");
    }

    #[test]
    fn p1_transitive_reaches_helpers_in_other_crates() {
        let net = "fn reader_loop(buf: &[u8]) { decode_helper(buf); }\n";
        let types = "\
pub fn decode_helper(buf: &[u8]) -> u32 { buf.first().copied().unwrap() as u32 }\n\
pub fn unrelated(buf: &[u8]) -> u32 { buf.first().copied().unwrap() as u32 }\n";
        let f = run(&[("crates/net/src/r.rs", net), ("crates/types/src/h.rs", types)]);
        let p1: Vec<_> = f.iter().filter(|f| f.rule == "P1").collect();
        assert_eq!(p1.len(), 1, "{f:?}");
        assert_eq!(p1[0].line, 1);
        assert!(p1[0].message.contains("reader_loop"), "{}", p1[0].message);
        // An allow in the helper's file suppresses it.
        let types_allowed = "\
// lint:allow(P1): input is length-checked by the caller\n\
pub fn decode_helper(buf: &[u8]) -> u32 { buf.first().copied().unwrap() as u32 }\n";
        let f2 = run(&[("crates/net/src/r.rs", net), ("crates/types/src/h.rs", types_allowed)]);
        assert!(f2.iter().all(|f| f.rule != "P1"), "{f2:?}");
    }

    #[test]
    fn e1_covers_the_reconnect_and_fault_modules() {
        // The reconnect state machine and the fault shim run on the loop
        // thread: a blocking op there must flag exactly like one in
        // event_loop.rs, and the pure fixture must stay quiet.
        let blocking = "\
fn dial(&mut self, s: &mut TcpStream) {\n\
    std::thread::sleep(core::time::Duration::from_millis(1));\n\
}\n";
        let f = run(&[("crates/net/src/reconnect.rs", blocking)]);
        assert!(
            f.iter().any(|f| f.rule == "E1" && f.file == "crates/net/src/reconnect.rs"),
            "{f:?}"
        );
        let f = run(&[("crates/net/src/netfault.rs", blocking)]);
        assert!(f.iter().any(|f| f.rule == "E1"), "{f:?}");
        // A clean fixture shaped like the real module: arithmetic on
        // passed-in times, no clocks, no syscalls.
        let clean = "\
fn due_attempt(&mut self, now: Duration) -> bool {\n\
    if self.next <= now { self.attempts += 1; true } else { false }\n\
}\n\
fn backoff(&self, attempt: u64) -> Duration {\n\
    self.base.saturating_mul(1u64 << attempt.min(5))\n\
}\n";
        let f = run(&[("crates/net/src/reconnect.rs", clean)]);
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn test_functions_are_invisible_to_the_graph() {
        let net = "fn entry() { helper(); }\n";
        let other = "\
#[cfg(test)]\n\
fn helper() { x.unwrap(); }\n";
        let f = run(&[("crates/net/src/r.rs", net), ("crates/core/src/h.rs", other)]);
        assert!(f.is_empty(), "{f:?}");
    }
}

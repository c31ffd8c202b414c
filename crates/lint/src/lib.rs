//! `iabc-lint` — workspace determinism & protocol-hygiene analyzer.
//!
//! A self-contained, std-only static analyzer for this workspace. The
//! overload-control arc rests on properties nothing else enforces: the
//! simulator must be deterministic per seed, committed bench baselines
//! must be byte-identical across refactors, and every wire message must
//! classify into the priority lane. This crate checks the cheap,
//! mechanical versions of those invariants on every CI run:
//!
//! | rule | hazard |
//! |------|--------|
//! | `D1` | wall clock / ambient randomness in sim-reachable crates |
//! | `D2` | `HashMap`/`HashSet` (nondeterministic iteration order) in sim-reachable crates |
//! | `P1` | `unwrap`/`expect`/`panic!`-family in the remote-input `net` crate, *and* in any workspace function reachable from it through the call graph |
//! | `W1` | wildcard `_ =>` arms in matches over wire enums |
//! | `W2` | narrowing or float→int `as`-casts on wire-facing integers in `types`/`net` without a visible bound check |
//! | `O1` | inconsistent lock acquisition order across the workspace (static deadlock detector) |
//! | `B1` | blocking I/O / sleeps / cross-object waits while a `.lock()` guard is live |
//! | `E1` | blocking operations (direct or through the call graph) in the event-driven transport's I/O loop — one loop serves every connection, so a parked loop stalls the whole process. Handlers now run on the loop, so a blocking call inside a `Node` stalls that process's I/O (as it stalled the node thread before); the rule stops at that boundary |
//! | `L1` | crate-layering violations in `Cargo.toml` dependencies |
//! | `U1` | a bare `pub` item of library code under `crates/*/src` (not `src/bin/`, not `main.rs`) that no other file names. The corpus is `crates/*/{src,tests,benches}`, `tests/`, `examples/`, `src/` and `benchmark/src`; a name inside a `use` item or a comment does not count, and an item named in the signature of a reached `pub` item of its own file is reached |
//! | `A1` | malformed `lint:allow` annotations (reason is mandatory) |
//!
//! D1/D2/P1/W1/W2 are token-level per-file rules; O1/B1/E1 and the
//! call-graph half of P1 are flow-aware: a lightweight item/block parser
//! ([`parser`]) recovers function bodies and lock-guard scopes, and a
//! name-resolved call graph ([`callgraph`]) propagates lock-acquisition
//! and may-block facts across files ([`flow`]).
//!
//! Escape hatch: `// lint:allow(<rule>): <reason>` on the offending line
//! or the line above. The reason is mandatory — an allow without one is
//! itself a finding and suppresses nothing.
//!
//! Run with `cargo run --release -p iabc-lint` from anywhere in the
//! workspace; see `--help` for JSON output options.

#![warn(missing_docs)]

pub mod callgraph;
mod findings;
pub mod flow;
mod layering;
mod lexer;
pub mod parser;
mod rules;
mod unused;

pub use findings::{assign_ids, baseline_ids, Finding, Report};
pub use flow::analyze_files;
pub use layering::{check_crate_deps, package_name, parse_dependencies, Dep};
pub use lexer::{tokenize, Token, TokenKind};
pub use rules::{lint_source, REMOTE_INPUT_CRATES, RULES};
pub use unused::unused_pub_items;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

/// Walks up from `start` to the workspace root (the first ancestor whose
/// `Cargo.toml` declares `[workspace]`).
pub fn find_workspace_root(start: &Path) -> Option<PathBuf> {
    let mut dir = Some(start.to_path_buf());
    while let Some(d) = dir {
        let manifest = d.join("Cargo.toml");
        if let Ok(text) = std::fs::read_to_string(&manifest) {
            if text.lines().any(|l| l.trim() == "[workspace]") {
                return Some(d);
            }
        }
        dir = d.parent().map(Path::to_path_buf);
    }
    None
}

/// Runs every rule over the workspace at `root`: all `crates/*/src/**/*.rs`
/// files (D1/D2/P1/W1/W2 + allow hygiene), the workspace-level flow rules
/// (O1/B1 and call-graph P1) over the same set, all
/// `crates/*/Cargo.toml` manifests (L1), and U1 over its wider corpus.
/// Stable finding ids are assigned before the report is returned.
///
/// # Errors
///
/// Fails only on I/O errors walking the tree; findings are not errors.
pub fn run_workspace(root: &Path) -> std::io::Result<Report> {
    let mut report = Report::default();
    let crates_dir = root.join("crates");
    let mut crate_dirs: Vec<PathBuf> = std::fs::read_dir(&crates_dir)?
        .filter_map(Result::ok)
        .map(|e| e.path())
        .filter(|p| p.is_dir())
        .collect();
    // Deterministic file order — the analyzer must hold itself to its own
    // standard.
    crate_dirs.sort();

    let mut manifests: BTreeMap<String, String> = BTreeMap::new();
    let mut sources: Vec<(String, String)> = Vec::new();
    for crate_dir in &crate_dirs {
        // L1 over the manifest.
        let manifest_path = crate_dir.join("Cargo.toml");
        if let Ok(manifest) = std::fs::read_to_string(&manifest_path) {
            if let Some(pkg) = package_name(&manifest) {
                let rel = rel_path(root, &manifest_path);
                let deps = parse_dependencies(&manifest);
                report.findings.extend(check_crate_deps(&pkg, &rel, &deps));
                report.files_scanned += 1;
                manifests.insert(rel, manifest);
            }
        }
        // Collect src/**/*.rs once; both the per-file and the
        // workspace-level rules run over the same snapshot.
        let src_dir = crate_dir.join("src");
        if src_dir.is_dir() {
            let mut files = Vec::new();
            collect_rs_files(&src_dir, &mut files)?;
            files.sort();
            for file in files {
                let source = std::fs::read_to_string(&file)?;
                sources.push((rel_path(root, &file), source));
                report.files_scanned += 1;
            }
        }
    }
    for (rel, source) in &sources {
        report.findings.extend(lint_source(rel, source));
    }
    report.findings.extend(flow::analyze_files(&sources));

    // U1 reads every file that could name a library item, `benchmark/`
    // included: it is never edited, but what it calls must stay `pub`.
    let mut corpus = sources.clone();
    let mut extra = Vec::new();
    let crate_extras = crate_dirs.iter().flat_map(|c| [c.join("tests"), c.join("benches")]);
    for dir in crate_extras.chain(["tests", "examples", "src", "benchmark/src"].map(|d| root.join(d))) {
        collect_rs_files(&dir, &mut extra)?;
    }
    extra.sort();
    for file in extra {
        corpus.push((rel_path(root, &file), std::fs::read_to_string(&file)?));
    }
    report.findings.extend(unused::unused_pub_items(&corpus));
    report.corpus = corpus.into_iter().map(|(rel, _)| rel).collect();

    report
        .findings
        .sort_by(|a, b| (&a.file, a.line, &a.rule).cmp(&(&b.file, b.line, &b.rule)));
    let source_of = |path: &str| -> Option<String> {
        sources
            .iter()
            .find(|(p, _)| p == path)
            .map(|(_, s)| s.clone())
            .or_else(|| manifests.get(path).cloned())
    };
    assign_ids(&mut report.findings, &source_of);
    Ok(report)
}

/// Every `.rs` file under `dir` (none if it does not exist), lint
/// fixtures skipped: they are text fed to the rules, not code.
fn collect_rs_files(dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    if !dir.is_dir() {
        return Ok(());
    }
    for entry in std::fs::read_dir(dir)? {
        let path = entry?.path();
        if path.is_dir() && !path.ends_with("fixtures") {
            collect_rs_files(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

fn rel_path(root: &Path, path: &Path) -> String {
    path.strip_prefix(root)
        .unwrap_or(path)
        .components()
        .map(|c| c.as_os_str().to_string_lossy())
        .collect::<Vec<_>>()
        .join("/")
}

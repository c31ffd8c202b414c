//! The workspace must ship lint-clean: `run_workspace` over the real repo
//! returns zero findings. This is the same check CI runs via the binary —
//! having it in `cargo test` means a plain test run catches a regression
//! before the lint step does.

use std::path::Path;

fn workspace_root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(Path::parent)
        .expect("crates/lint has a workspace two levels up")
}

#[test]
fn workspace_is_lint_clean() {
    let report = iabc_lint::run_workspace(workspace_root()).expect("workspace scan");
    assert!(report.files_scanned > 0, "scan found no files — wrong root?");
    assert!(
        report.is_clean(),
        "workspace has lint findings:\n{}",
        report
            .findings
            .iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>()
            .join("\n")
    );
}

#[test]
fn u1_reads_the_whole_corpus() {
    // U1's clean verdict means nothing if its corpus came up short: the
    // standalone benchmark and the root integration tests name library
    // items no crate of the workspace does.
    let report = iabc_lint::run_workspace(workspace_root()).expect("workspace scan");
    for dir in ["benchmark/src/", "tests/", "examples/", "src/", "crates/net/tests/"] {
        assert!(
            report.corpus.iter().any(|p| p.starts_with(dir)),
            "U1 read nothing under {dir}: {:?}",
            report.corpus
        );
    }
    assert!(report.findings.iter().all(|f| f.rule != "U1"), "{:?}", report.findings);
}

#[test]
fn all_rules_are_enabled() {
    // The clean run above only means something if the full rule set is on.
    // Guard against a rule being dropped from the registry.
    for rule in ["D1", "D2", "P1", "W1", "W2", "O1", "B1", "E1", "L1", "U1"] {
        assert!(
            iabc_lint::RULES.contains(&rule),
            "rule {rule} missing from RULES — workspace_is_lint_clean no longer covers it"
        );
    }
}

#[test]
fn workspace_findings_get_stable_ids() {
    // Every finding the scanner could emit must carry a content-hash id,
    // or `--baseline` delta mode silently stops matching. The workspace is
    // clean, so exercise the id path on a synthetic finding instead.
    let src = "pub fn f(x: u64) -> u8 { x as u8 }\n";
    let mut findings = iabc_lint::lint_source("crates/types/src/fixture.rs", src);
    assert!(!findings.is_empty(), "fixture should produce a W2 finding");
    iabc_lint::assign_ids(&mut findings, &|path| {
        (path == "crates/types/src/fixture.rs").then(|| src.to_string())
    });
    for f in &findings {
        assert!(
            f.id.starts_with(&format!("{}-", f.rule)),
            "finding id should be rule-prefixed: {f:?}"
        );
    }
}

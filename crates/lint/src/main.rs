//! CLI for `iabc-lint`.
//!
//! ```text
//! iabc-lint [ROOT] [--json] [--out PATH] [--baseline PATH] [--max-seconds N]
//! ```
//!
//! * `ROOT` — workspace root (default: discovered from the current
//!   directory).
//! * `--json` — print the machine-readable report to stdout instead of
//!   human-readable lines.
//! * `--out PATH` — additionally write the JSON report to `PATH`
//!   (written on success *and* failure, so CI can upload it as an
//!   artifact when the step fails).
//! * `--baseline PATH` — delta mode: read a previous JSON report and fail
//!   only on findings whose stable id is *not* in it. Lets CI stay green
//!   while a sweep of known findings is in flight, without letting new
//!   ones in.
//! * `--max-seconds N` — self-runtime smoke assertion: fail (exit 2) if
//!   the analysis itself took longer than `N` seconds. Keeps the analyzer
//!   from quietly becoming the slowest CI stage.
//!
//! Exit codes: `0` clean (or all findings baselined), `1` new findings,
//! `2` usage/I-O error or blown time budget.

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

fn main() -> ExitCode {
    let mut root: Option<PathBuf> = None;
    let mut json = false;
    let mut out: Option<PathBuf> = None;
    let mut baseline: Option<PathBuf> = None;
    let mut max_seconds: Option<f64> = None;

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--json" => json = true,
            "--out" => match args.next() {
                Some(p) => out = Some(PathBuf::from(p)),
                None => {
                    eprintln!("--out requires a path");
                    return ExitCode::from(2);
                }
            },
            "--baseline" => match args.next() {
                Some(p) => baseline = Some(PathBuf::from(p)),
                None => {
                    eprintln!("--baseline requires a path");
                    return ExitCode::from(2);
                }
            },
            "--max-seconds" => match args.next().and_then(|s| s.parse::<f64>().ok()) {
                Some(n) if n > 0.0 => max_seconds = Some(n),
                _ => {
                    eprintln!("--max-seconds requires a positive number");
                    return ExitCode::from(2);
                }
            },
            "--help" | "-h" => {
                eprintln!(
                    "usage: iabc-lint [ROOT] [--json] [--out PATH] [--baseline PATH] \
                     [--max-seconds N]"
                );
                return ExitCode::SUCCESS;
            }
            other if root.is_none() && !other.starts_with('-') => {
                root = Some(PathBuf::from(other));
            }
            other => {
                eprintln!("unknown argument: {other}");
                return ExitCode::from(2);
            }
        }
    }

    let root = match root {
        Some(r) => r,
        None => {
            let cwd = match std::env::current_dir() {
                Ok(c) => c,
                Err(e) => {
                    eprintln!("cannot determine current directory: {e}");
                    return ExitCode::from(2);
                }
            };
            match iabc_lint::find_workspace_root(&cwd) {
                Some(r) => r,
                None => {
                    eprintln!("no workspace root found above {}", cwd.display());
                    return ExitCode::from(2);
                }
            }
        }
    };

    let known: std::collections::BTreeSet<String> = match &baseline {
        Some(path) => match std::fs::read_to_string(path) {
            Ok(text) => iabc_lint::baseline_ids(&text),
            Err(e) => {
                eprintln!("cannot read baseline {}: {e}", path.display());
                return ExitCode::from(2);
            }
        },
        None => Default::default(),
    };

    let started = Instant::now();
    let report = match iabc_lint::run_workspace(&root) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("analysis failed: {e}");
            return ExitCode::from(2);
        }
    };
    let elapsed = started.elapsed().as_secs_f64();

    if let Some(path) = &out {
        if let Err(e) = std::fs::write(path, report.to_json()) {
            eprintln!("cannot write {}: {e}", path.display());
            return ExitCode::from(2);
        }
    }

    let (new, suppressed): (Vec<_>, Vec<_>) =
        report.findings.iter().partition(|f| !known.contains(&f.id));

    if json {
        print!("{}", report.to_json());
    } else {
        for f in &new {
            println!("{f}");
        }
        let suffix = if suppressed.is_empty() {
            String::new()
        } else {
            format!(" ({} known finding(s) suppressed by baseline)", suppressed.len())
        };
        eprintln!(
            "iabc-lint: {} new finding(s) across {} file(s), U1 corpus {} file(s), in \
             {elapsed:.2}s{suffix}",
            new.len(),
            report.files_scanned,
            report.corpus.len()
        );
    }

    if let Some(budget) = max_seconds {
        if elapsed > budget {
            eprintln!(
                "iabc-lint: analysis took {elapsed:.2}s, over the --max-seconds {budget} \
                 budget — the linter must not become the slowest CI stage"
            );
            return ExitCode::from(2);
        }
    }

    if new.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

//! Running every workload, each in a fresh child process, and checking
//! that repeated runs of the same code agree within the benchmark's own
//! bounds.

use std::collections::BTreeMap;
use std::process::{Command, ExitCode, Stdio};

use crate::report::{fmt_value, parse_metric_lines};
use crate::stats::{median, relative_spread};
use crate::workloads::WORKLOADS;

/// Per-layer metrics that are pure counts of the single-threaded traced
/// replay: for one seed they must repeat exactly.
const EXACT_COUNTS: [&str; 6] = [
    "runtime.actions_per_msg",
    "broadcast.frames_per_msg",
    "broadcast.wire_bytes_per_msg",
    "consensus.frames_per_msg",
    "consensus.wire_bytes_per_msg",
    "consensus.msgs_per_instance",
];

/// `(workload, metric) → value` of one suite run.
type Table = BTreeMap<(String, String), f64>;

/// Runs `workload` in a child of this same executable, echoes its output,
/// and returns it. A child that exits non-zero fails the suite.
fn run_child(workload: &str, seed: u64, seconds: f64, trace: bool) -> Result<String, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let out = Command::new(exe)
        .args(["--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("spawn {workload}: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
    print!("{stdout}");
    if !out.status.success() {
        return Err(format!("workload {workload} exited with {}", out.status));
    }
    Ok(stdout)
}

/// Runs all five workloads and prints one JSON document with each
/// child's result line.
fn run_suite(seed: u64, seconds: f64, trace: bool) -> Result<Table, String> {
    let mut table = Table::new();
    let mut results = Vec::new();
    for w in &WORKLOADS {
        let stdout = run_child(w.name, seed, seconds, trace)?;
        for (metric, value) in parse_metric_lines(&stdout) {
            table.insert((w.name.to_string(), metric), value);
        }
        let result = stdout.lines().last().unwrap_or("null");
        results.push(format!("\"{}\": {result}", w.name));
    }
    println!(
        "{{\"seed\": {seed}, \"seconds\": {}, \"trace\": {}, \"workloads\": {{{}}}}}",
        fmt_value(seconds),
        u8::from(trace),
        results.join(", ")
    );
    Ok(table)
}

pub fn suite(seed: u64, seconds: f64, trace: bool) -> ExitCode {
    match run_suite(seed, seconds, trace) {
        Ok(_) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("FAILED: {e}");
            ExitCode::from(2)
        }
    }
}

/// `(name, bound)` of every `end_to_end` metric of `BENCHMARK.json`: a
/// scan for the `"name"` / `"bound"` pairs of that array, not a JSON
/// parser.
fn end_to_end_bounds(json: &str) -> Result<Vec<(String, f64)>, String> {
    let section = json
        .split_once("\"end_to_end\"")
        .and_then(|(_, rest)| rest.split_once(']'))
        .map(|(section, _)| section)
        .ok_or("BENCHMARK.json has no end_to_end array")?;
    let field = |object: &str, key: &str| -> Option<String> {
        let (_, rest) = object.split_once(&format!("\"{key}\""))?;
        let value = rest.trim_start().strip_prefix(':')?.trim_start();
        let end = value.find([',', '}']).unwrap_or(value.len());
        Some(value[..end].trim().trim_matches('"').to_string())
    };
    let bounds: Vec<(String, f64)> = section
        .split('{')
        .skip(1)
        .filter_map(|object| {
            Some((
                field(object, "name")?,
                field(object, "bound")?.parse().ok()?,
            ))
        })
        .collect();
    if bounds.is_empty() {
        return Err("BENCHMARK.json lists no end_to_end metric with a bound".into());
    }
    Ok(bounds)
}

/// Runs the untraced and the traced suite `k` times on the same code and
/// seed. Prints, per end-to-end metric × workload, the spread of the `k`
/// values ([`relative_spread`]) beside its bound; fails when one (other
/// than `setup_s`) exceeds its bound or a traced count differs between
/// runs.
pub fn repeat_check(k: usize, seed: u64, seconds: f64, benchmark_json: &str) -> ExitCode {
    let run = || -> Result<bool, String> {
        let json = std::fs::read_to_string(benchmark_json)
            .map_err(|e| format!("read {benchmark_json}: {e}"))?;
        let bounds = end_to_end_bounds(&json)?;
        let mut untraced = Vec::new();
        let mut traced = Vec::new();
        for _ in 0..k {
            untraced.push(run_suite(seed, seconds, false)?);
            traced.push(run_suite(seed, seconds, true)?);
        }
        let mut ok = true;
        println!(
            "repeat-check: {k} runs, seed {seed}, {} s",
            fmt_value(seconds)
        );
        for w in &WORKLOADS {
            for (metric, bound) in &bounds {
                let key = (w.name.to_string(), metric.clone());
                let values: Vec<f64> = untraced
                    .iter()
                    .filter_map(|t| t.get(&key).copied())
                    .collect();
                let rel = relative_spread(&values);
                // As the driver does, `setup_s` is shown but not held to
                // its bound run by run: the bound applies to its median
                // over many runs.
                let verdict = if metric == "setup_s" {
                    "not gated per run"
                } else if values.len() == k && rel <= *bound {
                    "ok"
                } else {
                    ok = false;
                    "EXCEEDED"
                };
                println!(
                    "repeat {:<15} {:<18} median {:>14.5} spread {:>6.2}% bound {:>5.1}% {verdict}",
                    w.name,
                    metric,
                    median(&values),
                    rel * 100.0,
                    bound * 100.0
                );
            }
            for metric in EXACT_COUNTS {
                let key = (w.name.to_string(), metric.to_string());
                let values: Vec<f64> = traced.iter().filter_map(|t| t.get(&key).copied()).collect();
                let same = values.len() == k && values.iter().all(|v| *v == values[0]);
                ok &= same;
                println!(
                    "repeat {:<15} {:<30} {} {}",
                    w.name,
                    metric,
                    values
                        .first()
                        .map_or("missing".to_string(), |v| fmt_value(*v)),
                    if same { "exact" } else { "DIFFERS" }
                );
            }
        }
        Ok(ok)
    };
    match run() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => {
            eprintln!("repeat-check: runs of the same code disagree beyond the bounds");
            ExitCode::from(1)
        }
        Err(e) => {
            eprintln!("FAILED: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bounds_are_read_from_the_end_to_end_array_only() {
        let json = r#"{
          "workloads": [{"name": "w", "why": "x"}],
          "end_to_end": [
            {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
            {"name": "latency_ms", "unit": "ms", "better": "lower", "bound": 0.1}
          ],
          "per_layer": [{"name": "hits", "unit": "count", "better": "higher"}]
        }"#;
        assert_eq!(
            end_to_end_bounds(json).unwrap(),
            vec![
                ("setup_s".to_string(), 0.25),
                ("latency_ms".to_string(), 0.1)
            ]
        );
        assert!(end_to_end_bounds("{}").is_err());
    }
}

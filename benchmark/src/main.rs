//! Wall-clock a-broadcast → a-deliver benchmark over `TcpCluster`, with an
//! outside-in per-layer budget. See `README.md` for what is measured and
//! why, and `../BENCHMARK.json` for the contract.
//!
//! ```text
//! iabc-e2e --workload W [--seed S] [--seconds T] [--trace 0|1]   one workload, in this process
//! iabc-e2e [--seed S] [--seconds T] [--trace]                    all five, each in a fresh child
//! iabc-e2e --repeat-check [k] [--seed S] [--seconds T]           k suites; do they agree?
//! ```

mod affinity;
mod gen;
mod layers;
mod measure;
mod oracle;
mod procstat;
mod realrun;
mod report;
mod stats;
mod suite;
mod trace;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;

use gen::Generator;
use measure::RealRun;
use report::{fmt_value, Metrics};
use stats::quantile_sorted;
use workloads::{Workload, N, WORKLOADS};

/// Share of `--seconds` a `--trace 1` run spends on real-stack epochs (for
/// the per-thread numbers); the rest goes to controls and the replay.
const TRACED_REAL_SHARE: f64 = 0.3;

#[derive(Debug)]
struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    repeat_check: Option<usize>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: 15.0,
        trace: false,
        repeat_check: None,
    };
    let mut it = std::env::args().skip(1).peekable();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| it.next().ok_or(format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" => args.workload = Some(value("a workload name")?),
            "--seed" => {
                args.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?;
            }
            "--seconds" => {
                let s: f64 = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds {s} is outside (0, 600]"));
                }
                args.seconds = s;
            }
            // `--trace 1`, `--trace 0`, or a bare `--trace`.
            "--trace" => {
                args.trace = it
                    .next_if(|v| v == "0" || v == "1")
                    .is_none_or(|v| v == "1");
            }
            // `--repeat-check k`, or bare for k = 2.
            "--repeat-check" => {
                let k = it
                    .next_if(|v| v.parse::<usize>().is_ok())
                    .map_or(Ok(2), |v| v.parse());
                let k = k.map_err(|e| format!("--repeat-check: {e}"))?;
                if k < 2 {
                    return Err("--repeat-check needs at least 2 runs".into());
                }
                args.repeat_check = Some(k);
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(args)
}

/// Where traces and scratch files go: `out/` in this package's directory,
/// as it was when the binary was built (run.sh builds it in place).
fn out_dir() -> Result<PathBuf, String> {
    let dir = PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/out"));
    std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    Ok(dir)
}

/// The numbers printed beside the gated ones: the per-epoch values the
/// medians were taken over, and the whole-run tail.
fn print_info(run: &RealRun) {
    let per_epoch: Vec<String> = run
        .epoch_throughputs()
        .iter()
        .map(|t| format!("{t:.0}"))
        .collect();
    println!("info epoch_throughput_msgs_s {}", per_epoch.join(" "));
    let p99s: Vec<String> = run
        .epochs
        .iter()
        .map(|e| format!("{:.4}", e.latency_quantile_ms(0.99)))
        .collect();
    println!("info epoch_adeliver_p99_ms {}", p99s.join(" "));
    let cpus: Vec<String> = run
        .epochs
        .iter()
        .map(|e| format!("{:.1}", e.per_msg_us(e.usage.total_cpu_ns())))
        .collect();
    println!("info epoch_cpu_us_per_msg {}", cpus.join(" "));
    let lat = run.sorted_latencies();
    let ms = |q: f64| quantile_sorted(&lat, q) as f64 / 1e6;
    println!(
        "info whole_run_latency_ms p99 {:.4} p99.9 {:.4} max {:.4} samples {}",
        ms(0.99),
        ms(0.999),
        ms(1.0),
        lat.len()
    );
}

/// One workload in this process. Prints every metric by name with its
/// unit, then the one-line JSON result.
fn run_workload(w: &Workload, args: &Args) -> Result<(), String> {
    let cores = std::thread::available_parallelism().map_or(0, usize::from);
    // Before any other thread exists: they all inherit it.
    let pinned = affinity::pin_to_one_cpu();
    println!(
        "workload {} seed {} seconds {} trace {} n {N} cores {cores} pinned_to_cpu {}",
        w.name,
        args.seed,
        fmt_value(args.seconds),
        u8::from(args.trace),
        pinned.map_or("none".to_string(), |c| c.to_string()),
    );
    println!("info network loop-back interface, no injected delay: latency is processor and scheduler time");
    let mut gen = Generator::new(args.seed, N, w.payload_len, w.senders);
    let real_seconds = if args.trace {
        args.seconds * TRACED_REAL_SHARE
    } else {
        args.seconds
    };
    let run = measure::run_real(w, &mut gen, real_seconds)?;
    let end_to_end = run.end_to_end();
    let mut layers = run.outside_in();
    print_info(&run);

    if args.trace {
        let throughput = end_to_end.get("throughput_msgs_s").unwrap_or(0.0);
        let out = out_dir()?;
        let (traced, trace) = layers::traced_layers(w, args.seed, args.seconds, throughput, &out)?;
        layers.0.extend(traced.0);
        let path = out.join(format!("trace-{}.jsonl", w.name));
        trace
            .write_jsonl(&path)
            .map_err(|e| format!("write {}: {e}", path.display()))?;
        println!(
            "info trace {} spans in {}",
            trace.spans.len(),
            path.display()
        );
    }

    end_to_end.print();
    layers.print();

    // Generator honesty: an open loop whose generator ran later than the
    // latency it measured resolves nothing about the fault phase. (A closed
    // loop schedules nothing: both sides are 0.)
    let late_ms = run.gen_late_p99_us() / 1e3;
    let p50_ms = layers.get("fault_phase_p50_ms").unwrap_or(0.0);
    if late_ms > p50_ms {
        println!("status unresolved: generator lateness p99 {late_ms:.4} ms exceeds fault_phase_p50_ms {p50_ms:.4} ms");
    } else {
        println!("status ok");
    }

    let reported: &Metrics = if args.trace { &layers } else { &end_to_end };
    println!(
        "{{\"correct\": true, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        run.attempted(),
        run.attempted() - run.completed(),
        reported.to_json()
    );
    Ok(())
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("usage error: {e}");
            return ExitCode::from(64);
        }
    };
    if let Some(k) = args.repeat_check {
        let json = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        return suite::repeat_check(k, args.seed, args.seconds, json);
    }
    let Some(name) = args.workload.as_deref() else {
        return suite::suite(args.seed, args.seconds, args.trace);
    };
    let Some(w) = Workload::by_name(name) else {
        let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        eprintln!(
            "usage error: unknown workload {name}; one of {}",
            names.join(", ")
        );
        return ExitCode::from(64);
    };
    // An oracle violation or a wedged harness prints no metrics at all.
    match run_workload(w, &args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("FAILED: {e}");
            ExitCode::from(2)
        }
    }
}

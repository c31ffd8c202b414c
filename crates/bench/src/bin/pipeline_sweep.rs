//! Sweeps the throughput knobs this repo adds on top of the paper — the
//! consensus pipeline window `W` (static and adaptive) and the client
//! batch size `B` — and records delivered-payloads/second (goodput) for
//! every grid point.
//!
//! The paper's figures all run `W = 1, B = 1` (Algorithm 1 verbatim, one
//! broadcast per payload); this sweep opens the throughput axis the paper
//! never measured. Besides the static `W × B` grid it measures one
//! `adaptive` row per batch size: the AIMD window controller bounded by
//! `[1, 16]` paired with a server-side proposal cap — adapting in-flight
//! work to what the pipeline absorbs is the Ring Paxos observation. At
//! `B = 1` the whole column is *collapsed* (every row, adaptive included,
//! delivers 0–2.5 % of the offered load and their order changes with the
//! seed), so the adaptive-vs-static comparison there is printed, not
//! asserted; what answers that collapse is the adaptive *batch* row.
//!
//! Output: a text table on stdout and machine-readable JSON in
//! `results/BENCH_pipeline_sweep.json`. CI diffs that JSON against the
//! committed baseline with the `bench_trend` binary, so every grid point
//! pins its RNG seed (`iabc_workload::CI_SMOKE_SEED`, threaded through
//! `iabc_bench::pipeline_sweep_spec`).
//!
//! Run with `--smoke` for the scaled-down CI grid.

use std::fmt::Write as _;
use std::fs;
use std::path::Path;

use iabc_bench::{pipeline_adaptive_batch_spec, pipeline_sweep_spec};
use iabc_core::{ConsensusFamily, VariantKind};
use iabc_sim::NetworkParams;
use iabc_types::Duration;
use iabc_workload::run_variant;

/// Window bounds of the adaptive rows.
const ADAPTIVE_W_MIN: usize = 1;
const ADAPTIVE_W_MAX: usize = 16;
/// Proposal cap of the adaptive rows: bounds the per-message `rcv()` cost
/// so a backlog cannot wedge the CPU with ever-growing proposals, while
/// staying large enough that per-instance fixed costs amortize (the grid
/// collapses fast below a few hundred ids per proposal at this load).
const ADAPTIVE_PROPOSAL_CAP: usize = 512;

/// Batch bound of the adaptive-batch row: the static grid's own `B` axis
/// ceiling, so the coalescer's headroom equals the best fixed batch.
const ADAPTIVE_BATCH_MAX: usize = 16;

/// One measured grid point.
struct SweepPoint {
    /// `"static"`, `"adaptive"` (window) or `"adaptive_batch"` (window +
    /// client-batch coalescer).
    mode: &'static str,
    /// Static `W`, or `w_max` for adaptive rows.
    window: usize,
    /// `w_min` (equals `window` for static rows).
    w_min: usize,
    batch: usize,
    offered_per_sec: f64,
    delivered_per_sec: f64,
    mean_ms: f64,
    missing_pairs: u64,
    saturated: bool,
    /// Process 0's window when the run ended.
    final_window: usize,
    /// Proposals truncated by the cap, summed over all processes.
    cap_hits: u64,
    /// Process 0's client batch when the run ended (1 for fixed `B = 1`
    /// rows; the coalescer's landing point for the adaptive-batch row).
    final_batch: usize,
}

fn run_point(
    mode: &'static str,
    n: usize,
    offered: f64,
    window: usize,
    w_min: usize,
    batch: usize,
    spec: &iabc_workload::WorkloadSpec,
) -> SweepPoint {
    let r = run_variant(VariantKind::Indirect, ConsensusFamily::Ct, &NetworkParams::setup1(), spec);
    SweepPoint {
        mode,
        window,
        w_min,
        batch,
        offered_per_sec: offered,
        delivered_per_sec: r.goodput_per_sec(n),
        mean_ms: r.mean_ms(),
        missing_pairs: r.missing_pairs,
        saturated: r.saturated,
        final_window: r.final_window,
        cap_hits: r.proposal_cap_hits,
        final_batch: r.final_batch,
    }
}

fn measure_point(
    n: usize,
    offered: f64,
    payload: usize,
    duration: Duration,
    window: Option<usize>, // None = adaptive
    batch: usize,
) -> SweepPoint {
    let mut spec = pipeline_sweep_spec(n, offered, payload, duration, window.unwrap_or(1), batch);
    if window.is_none() {
        spec.stack = spec
            .stack
            .with_adaptive_window(ADAPTIVE_W_MIN, ADAPTIVE_W_MAX)
            .with_proposal_cap(ADAPTIVE_PROPOSAL_CAP);
    }
    run_point(
        if window.is_some() { "static" } else { "adaptive" },
        n,
        offered,
        window.unwrap_or(ADAPTIVE_W_MAX),
        window.unwrap_or(ADAPTIVE_W_MIN),
        batch,
        &spec,
    )
}

/// The adaptive-batch row: the adaptive-window row with the fixed client
/// batch replaced by the backlog-driven coalescer in
/// `[1, ADAPTIVE_BATCH_MAX]`. Its `batch` column records the *bound*.
fn measure_adaptive_batch(n: usize, offered: f64, payload: usize, duration: Duration) -> SweepPoint {
    let spec = pipeline_adaptive_batch_spec(n, offered, payload, duration, ADAPTIVE_BATCH_MAX);
    run_point(
        "adaptive_batch",
        n,
        offered,
        ADAPTIVE_W_MAX,
        ADAPTIVE_W_MIN,
        ADAPTIVE_BATCH_MAX,
        &spec,
    )
}

fn write_json(path: &Path, n: usize, payload: usize, points: &[SweepPoint]) {
    let mut out = String::new();
    let _ = writeln!(out, "{{");
    let _ = writeln!(out, "  \"bench\": \"pipeline_sweep\",");
    let _ = writeln!(out, "  \"stack\": \"indirect-ct\",");
    let _ = writeln!(out, "  \"n\": {n},");
    let _ = writeln!(out, "  \"payload_bytes\": {payload},");
    let _ = writeln!(out, "  \"network\": \"setup1\",");
    let _ = writeln!(out, "  \"cost_model\": \"setup1\",");
    let _ = writeln!(out, "  \"points\": [");
    for (i, p) in points.iter().enumerate() {
        let comma = if i + 1 == points.len() { "" } else { "," };
        let _ = writeln!(
            out,
            "    {{\"mode\": \"{}\", \"window\": {}, \"w_min\": {}, \"batch\": {}, \
             \"offered_per_sec\": {:.1}, \"delivered_per_sec\": {:.1}, \"mean_ms\": {:.3}, \
             \"missing_pairs\": {}, \"saturated\": {}, \"final_window\": {}, \
             \"cap_hits\": {}, \"final_batch\": {}}}{comma}",
            p.mode, p.window, p.w_min, p.batch, p.offered_per_sec, p.delivered_per_sec,
            p.mean_ms, p.missing_pairs, p.saturated, p.final_window, p.cap_hits, p.final_batch,
        );
    }
    let _ = writeln!(out, "  ]");
    let _ = writeln!(out, "}}");
    fs::create_dir_all(path.parent().expect("results dir")).expect("create results dir");
    fs::write(path, out).expect("write sweep json");
}

fn row_label(p: &SweepPoint) -> String {
    match p.mode {
        "adaptive" => format!("adpt {}..{}", p.w_min, p.window),
        "adaptive_batch" => format!("adpt B 1..{}", p.batch),
        _ => p.window.to_string(),
    }
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let n = 3;
    let payload = 64;
    // Offered load chosen just past the saturation knee of the
    // un-pipelined, un-batched stack under the Setup-1 cost model
    // (capacity ≈ 3000 payloads/s; beyond it the per-id rcv() cost of the
    // ever-growing proposals wedges the CPU): the grid then shows how
    // much of that load each configuration actually sustains.
    let offered = 4_000.0;
    // The window must exceed the saturated baseline's multi-second latency
    // or its in-window goodput degenerates to zero; smoke mode therefore
    // shrinks the grid to the corners, not the measurement window.
    let duration = Duration::from_secs(2);
    let (windows, batches): (&[usize], &[usize]) =
        if smoke { (&[1, 16], &[1, 16]) } else { (&[1, 2, 4, 8, 16], &[1, 4, 16]) };

    println!("pipeline_sweep: indirect-CT, n={n}, {offered} payloads/s offered, {payload} B");
    println!(
        "{:>10} {:>6} | {:>14} {:>10} {:>10} {:>6} {:>7} {:>9}",
        "window", "batch", "delivered/s", "mean[ms]", "missing", "sat", "W_end", "cap_hits"
    );
    let mut points = Vec::new();
    for &b in batches {
        for &w in windows {
            points.push(measure_point(n, offered, payload, duration, Some(w), b));
        }
        // One adaptive row per batch size, measured after the statics so
        // the table reads as "…and here is what the controller does".
        points.push(measure_point(n, offered, payload, duration, None, b));
        if b == 1 {
            // The adaptive-batch row rides with the B = 1 group: it is
            // the answer to exactly that group's collapse, with no fixed
            // `B` at all.
            points.push(measure_adaptive_batch(n, offered, payload, duration));
        }
    }
    for p in &points {
        println!(
            "{:>10} {:>6} | {:>14.1} {:>10.3} {:>10} {:>6} {:>7} {:>9}",
            row_label(p),
            p.batch,
            p.delivered_per_sec,
            p.mean_ms,
            p.missing_pairs,
            if p.saturated { "*" } else { "" },
            p.final_window,
            p.cap_hits,
        );
    }

    let static_at = |w: usize, b: usize| {
        points
            .iter()
            .find(|p| p.mode == "static" && p.window == w && p.batch == b)
            .expect("grid point")
    };
    let adaptive_at = |b: usize| {
        points.iter().find(|p| p.mode == "adaptive" && p.batch == b).expect("adaptive row")
    };

    // Headline 1 (kept from the static sweep): pipelining+batching must at
    // least double the goodput of Algorithm 1 verbatim at this load.
    let baseline = static_at(1, 1);
    let best_w = *windows.last().expect("non-empty");
    let best_b = *batches.last().expect("non-empty");
    let pipelined = static_at(best_w, best_b);
    let speedup = pipelined.delivered_per_sec / baseline.delivered_per_sec.max(1e-9);
    println!(
        "\nW={best_w},B={best_b} delivers {speedup:.2}x the goodput of W=1,B=1 \
         ({:.0}/s vs {:.0}/s)",
        pipelined.delivered_per_sec, baseline.delivered_per_sec
    );

    // Headline 2, reported only: at the saturation knee (B = 1, where the
    // paper's workload lives) every row delivers a few per cent of the
    // offered load at best, and over seeds the adaptive row reads both
    // above and below the static ones (CHANGES.md, PRs 16 and 20). Whether
    // the controller should *earn* "adaptive ≥ every static W" here is an
    // open ROADMAP item; a pinned-seed assertion cannot decide it.
    let adaptive = adaptive_at(1);
    let best_static_b1 = windows
        .iter()
        .map(|&w| static_at(w, 1))
        .max_by(|a, b| a.delivered_per_sec.total_cmp(&b.delivered_per_sec))
        .expect("non-empty");
    let wide_static = static_at(best_w, 1);
    println!(
        "adaptive(B=1) delivers {:.0}/s vs best static W={} at {:.0}/s \
         and static W={best_w} at {:.0}/s (final W {}, {} capped proposals) \
         (collapsed column — not asserted)",
        adaptive.delivered_per_sec,
        best_static_b1.window,
        best_static_b1.delivered_per_sec,
        wide_static.delivered_per_sec,
        adaptive.final_window,
        adaptive.cap_hits,
    );

    // Headline 3: the adaptive batch must close at least half the goodput
    // gap between the fixed-B=1 adaptive row and the B=16 ceiling — the
    // ROADMAP "adaptive client batching" target — without any per-run B.
    let adaptive_batch =
        points.iter().find(|p| p.mode == "adaptive_batch").expect("adaptive-batch row");
    let ceiling = static_at(1, 16);
    let gap_target =
        adaptive.delivered_per_sec + 0.5 * (ceiling.delivered_per_sec - adaptive.delivered_per_sec);
    println!(
        "adaptive batch 1..{ADAPTIVE_BATCH_MAX} delivers {:.0}/s at B=1 offered load \
         (fixed-B=1 adaptive row {:.0}/s, B=16 ceiling {:.0}/s, 50%-gap target {:.0}/s, \
         final batch {})",
        adaptive_batch.delivered_per_sec,
        adaptive.delivered_per_sec,
        ceiling.delivered_per_sec,
        gap_target,
        adaptive_batch.final_batch,
    );

    write_json(Path::new("results/BENCH_pipeline_sweep.json"), n, payload, &points);
    println!("wrote results/BENCH_pipeline_sweep.json");

    assert!(
        speedup >= 2.0,
        "pipelining+batching must at least double saturated goodput, got {speedup:.2}x"
    );
    assert!(
        adaptive_batch.delivered_per_sec >= gap_target,
        "adaptive batch must close >= 50% of the B=1 -> B=16 goodput gap: \
         {:.1}/s < {:.1}/s (adaptive B=1 {:.1}/s, ceiling {:.1}/s)",
        adaptive_batch.delivered_per_sec,
        gap_target,
        adaptive.delivered_per_sec,
        ceiling.delivered_per_sec,
    );
}

//! Reruns the `B = 1` saturation knee of `pipeline_sweep` with the
//! two-class priority lane off and on, plus the lane-on *large-cap* rows
//! that the proposal freshness gate unlocks.
//!
//! The lane (`WorkloadSpec::with_priority_lane`) gives consensus and
//! failure-detector frames their own service class on every simulated CPU
//! and NIC: they are served ahead of the queued RB payload flood instead
//! of paying the full FIFO ingest queue — ROADMAP's dominant term in the
//! `B = 1` overload collapse. That very overtaking is why the lane
//! historically ran a tight proposal cap (64): a larger oldest-first slice
//! reaches into just-arrived ids whose Data frames the proposal outruns,
//! and each such slice burns a consensus round on nacks. The freshness
//! gate (`StackParams::with_proposal_freshness`) excludes ids younger than
//! ~one measured flood delay from proposals, so the sweep adds two rows at the
//! knee: cap 512 *ungated* (the nack churn, measured) and cap 512 *gated*
//! (which must match or beat the cap-64 row with fewer nacked rounds).
//!
//! Output: a text table on stdout and machine-readable JSON in
//! `results/BENCH_priority_sweep.json` (same line-per-point layout as the
//! pipeline sweep, so `bench_trend` gates it against the committed
//! baseline). Run with `--smoke` for the scaled-down CI grid — a subset of
//! the full grid, so every smoke row matches a committed baseline row.

use std::fmt::Write as _;
use std::fs;
use std::path::Path;

use iabc_bench::{priority_large_cap_spec, priority_sweep_spec};
use iabc_core::{ConsensusFamily, VariantKind};
use iabc_sim::NetworkParams;
use iabc_types::Duration;
use iabc_workload::{run_variant, WorkloadSpec};

/// The opened-up proposal cap of the large-cap rows (vs the lane's
/// historical 64).
const LARGE_CAP: usize = 512;

/// One measured grid point.
struct LanePoint {
    /// `"lane_off"`, `"lane_on"`, `"lane_on_cap512"` or
    /// `"lane_on_fresh512"`.
    mode: &'static str,
    offered_per_sec: f64,
    delivered_per_sec: f64,
    mean_ms: f64,
    decision_ms: f64,
    missing_pairs: u64,
    saturated: bool,
    final_window: usize,
    cap_hits: u64,
    nacked_rounds: u64,
    freshness_held: u64,
}

fn measure_spec(mode: &'static str, offered: f64, n: usize, spec: &WorkloadSpec) -> LanePoint {
    let r = run_variant(VariantKind::Indirect, ConsensusFamily::Ct, &NetworkParams::setup1(), spec);
    LanePoint {
        mode,
        offered_per_sec: offered,
        delivered_per_sec: r.goodput_per_sec(n),
        mean_ms: r.mean_ms(),
        decision_ms: r.mean_decision_latency_ms,
        missing_pairs: r.missing_pairs,
        saturated: r.saturated,
        final_window: r.final_window,
        cap_hits: r.proposal_cap_hits,
        nacked_rounds: r.nacked_rounds,
        freshness_held: r.freshness_held,
    }
}

fn measure_lane(n: usize, offered: f64, payload: usize, duration: Duration, lane: bool) -> LanePoint {
    let spec = priority_sweep_spec(n, offered, payload, duration, lane);
    measure_spec(if lane { "lane_on" } else { "lane_off" }, offered, n, &spec)
}

fn measure_large_cap(
    n: usize,
    offered: f64,
    payload: usize,
    duration: Duration,
    freshness: bool,
) -> LanePoint {
    let spec = priority_large_cap_spec(n, offered, payload, duration, LARGE_CAP, freshness);
    let mode = if freshness { "lane_on_fresh512" } else { "lane_on_cap512" };
    measure_spec(mode, offered, n, &spec)
}

fn write_json(path: &Path, n: usize, payload: usize, points: &[LanePoint]) {
    let mut out = String::new();
    let _ = writeln!(out, "{{");
    let _ = writeln!(out, "  \"bench\": \"priority_sweep\",");
    let _ = writeln!(out, "  \"stack\": \"indirect-ct adaptive(1..16), cap 64 / large-cap rows\",");
    let _ = writeln!(out, "  \"n\": {n},");
    let _ = writeln!(out, "  \"payload_bytes\": {payload},");
    let _ = writeln!(out, "  \"network\": \"setup1\",");
    let _ = writeln!(out, "  \"cost_model\": \"setup1\",");
    let _ = writeln!(out, "  \"points\": [");
    for (i, p) in points.iter().enumerate() {
        let comma = if i + 1 == points.len() { "" } else { "," };
        // `window`/`batch` keep the bench_trend line format; together with
        // `mode` and `offered_per_sec` they key each row uniquely.
        let _ = writeln!(
            out,
            "    {{\"mode\": \"{}\", \"window\": 16, \"w_min\": 1, \"batch\": 1, \
             \"offered_per_sec\": {:.1}, \"delivered_per_sec\": {:.1}, \"mean_ms\": {:.3}, \
             \"decision_ms\": {:.3}, \"missing_pairs\": {}, \"saturated\": {}, \
             \"final_window\": {}, \"cap_hits\": {}, \"nacked_rounds\": {}, \
             \"freshness_held\": {}}}{comma}",
            p.mode, p.offered_per_sec, p.delivered_per_sec, p.mean_ms, p.decision_ms,
            p.missing_pairs, p.saturated, p.final_window, p.cap_hits, p.nacked_rounds,
            p.freshness_held,
        );
    }
    let _ = writeln!(out, "  ]");
    let _ = writeln!(out, "}}");
    fs::create_dir_all(path.parent().expect("results dir")).expect("create results dir");
    fs::write(path, out).expect("write sweep json");
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let n = 3;
    let payload = 64;
    let duration = Duration::from_secs(2);
    // The knee point (4000 payloads/s) plus context on both sides; smoke
    // keeps only the knee so the CI grid stays a subset of the baseline.
    let offered_grid: &[f64] =
        if smoke { &[4000.0] } else { &[2000.0, 3000.0, 4000.0, 6000.0] };
    // The load the large-cap rows run at: the knee.
    const KNEE: f64 = 4000.0;

    println!("priority_sweep: indirect-CT adaptive(1..16), n={n}, B=1, {payload} B");
    println!(
        "{:>10} {:>16} | {:>12} {:>10} {:>12} {:>8} {:>5} {:>6} {:>9} {:>7} {:>7}",
        "offered/s", "row", "delivered/s", "mean[ms]", "decision[ms]", "missing", "sat",
        "W_end", "cap_hits", "nacks", "held"
    );
    let mut points = Vec::new();
    for &offered in offered_grid {
        for lane in [false, true] {
            points.push(measure_lane(n, offered, payload, duration, lane));
        }
        if offered == KNEE {
            // The large-cap pair, at the knee only: ungated (the nack
            // churn the tight cap dodged) and freshness-gated (which must
            // make the large cap safe).
            points.push(measure_large_cap(n, offered, payload, duration, false));
            points.push(measure_large_cap(n, offered, payload, duration, true));
        }
    }
    for p in &points {
        println!(
            "{:>10.0} {:>16} | {:>12.1} {:>10.3} {:>12.3} {:>8} {:>5} {:>6} {:>9} {:>7} {:>7}",
            p.offered_per_sec,
            p.mode,
            p.delivered_per_sec,
            p.mean_ms,
            p.decision_ms,
            p.missing_pairs,
            if p.saturated { "*" } else { "" },
            p.final_window,
            p.cap_hits,
            p.nacked_rounds,
            p.freshness_held,
        );
    }

    let at = |mode: &str, offered: f64| {
        points
            .iter()
            .find(|p| p.mode == mode && p.offered_per_sec == offered)
            .expect("grid point")
    };
    let off = at("lane_off", KNEE);
    let on = at("lane_on", KNEE);
    let ungated = at("lane_on_cap512", KNEE);
    let gated = at("lane_on_fresh512", KNEE);
    println!(
        "\nat 4000/s, B=1: lane on delivers {:.1}/s vs {:.1}/s ({:.2}x) and cuts decision \
         latency {:.1} ms -> {:.1} ms ({:.1}x)",
        on.delivered_per_sec,
        off.delivered_per_sec,
        on.delivered_per_sec / off.delivered_per_sec.max(1e-9),
        off.decision_ms,
        on.decision_ms,
        off.decision_ms / on.decision_ms.max(1e-9),
    );
    println!(
        "cap {LARGE_CAP} gated: {:.1}/s, {:.1} ms decision, {} nacked rounds \
         (vs cap 64: {:.1}/s, {:.1} ms, {} nacks; ungated cap {LARGE_CAP}: {:.1}/s, {} nacks)",
        gated.delivered_per_sec,
        gated.decision_ms,
        gated.nacked_rounds,
        on.delivered_per_sec,
        on.decision_ms,
        on.nacked_rounds,
        ungated.delivered_per_sec,
        ungated.nacked_rounds,
    );

    write_json(Path::new("results/BENCH_priority_sweep.json"), n, payload, &points);
    println!("wrote results/BENCH_priority_sweep.json");

    assert!(
        on.decision_ms < off.decision_ms,
        "the priority lane must cut decision latency at the knee: {:.3} ms !< {:.3} ms",
        on.decision_ms,
        off.decision_ms,
    );
    assert!(
        on.delivered_per_sec > off.delivered_per_sec,
        "the priority lane must raise sustained goodput at the knee: {:.1}/s !> {:.1}/s",
        on.delivered_per_sec,
        off.delivered_per_sec,
    );
    // The freshness gate must make the large cap at least as good as the
    // tight one on both axes, with less nack churn than cap 64 needed —
    // the whole point of gating is that big slices stop reaching into
    // mid-flood ids.
    assert!(
        gated.delivered_per_sec >= on.delivered_per_sec,
        "freshness-gated cap {LARGE_CAP} must match or beat cap 64 goodput at the knee: \
         {:.1}/s !>= {:.1}/s",
        gated.delivered_per_sec,
        on.delivered_per_sec,
    );
    assert!(
        gated.decision_ms <= on.decision_ms,
        "freshness-gated cap {LARGE_CAP} must match or beat cap 64 decision latency: \
         {:.3} ms !<= {:.3} ms",
        gated.decision_ms,
        on.decision_ms,
    );
    assert!(
        gated.nacked_rounds < on.nacked_rounds,
        "the gate must burn fewer rounds on nacks than the tight cap: {} !< {}",
        gated.nacked_rounds,
        on.nacked_rounds,
    );
    assert!(
        gated.nacked_rounds < ungated.nacked_rounds,
        "the gate must cut the ungated large-cap nack churn: {} !< {}",
        gated.nacked_rounds,
        ungated.nacked_rounds,
    );
}

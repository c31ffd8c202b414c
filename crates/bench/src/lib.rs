//! The benchmark harness reproducing every figure of the paper.
//!
//! Each figure has a binary (`cargo run --release -p iabc-bench --bin figN`)
//! that sweeps the paper's parameter ranges and prints one table per panel
//! with the same series the paper plots, plus a CSV copy under
//! `results/`. The Criterion benches (`cargo bench`) run scaled-down
//! versions of the same code paths.
//!
//! | Binary | Paper figure | What it sweeps |
//! |--------|--------------|----------------|
//! | `fig1` | Fig. 1 | latency vs payload, n=3, Setup 1: indirect vs consensus-on-messages |
//! | `fig3` | Fig. 3 | latency vs throughput, n∈{3,5}, Setup 1: indirect vs faulty |
//! | `fig4` | Fig. 4 | latency vs payload, n=5, Setup 1: indirect vs faulty |
//! | `fig5` | Fig. 5 | latency vs payload, n=3, Setup 2, RB O(n²): indirect+RB vs URB+consensus |
//! | `fig6` | Fig. 6 | as fig5 with RB O(n) |
//! | `fig7` | Fig. 7 | latency vs throughput, n=3, Setup 2: both RB variants vs URB |
//! | `ablation_rcv` | §4.3 discussion | the indirect-vs-faulty gap as a function of the `rcv()` cost |

use std::fmt::Write as _;
use std::fs;
use std::path::Path;

use iabc_core::{ConsensusFamily, CostModel, RbKind, VariantKind};
use iabc_sim::NetworkParams;
use iabc_types::Duration;
use iabc_workload::{run_variant, ExperimentResult, WorkloadSpec};

/// One measured point of a series.
#[derive(Debug, Clone)]
pub struct Point {
    /// The swept parameter (payload bytes or throughput msg/s).
    pub x: f64,
    /// Mean latency, milliseconds.
    pub mean_ms: f64,
    /// Median latency, milliseconds.
    pub median_ms: f64,
    /// 95th percentile latency, milliseconds.
    pub p95_ms: f64,
    /// Whether the run failed to drain ≥ 2% of expected deliveries.
    pub saturated: bool,
}

impl Point {
    fn from_result(x: f64, mut r: ExperimentResult) -> Self {
        Point {
            x,
            mean_ms: r.mean_ms(),
            median_ms: r.latency.median_ms(),
            p95_ms: r.latency.percentile(0.95).as_secs_f64() * 1e3,
            saturated: r.saturated,
        }
    }
}

/// A named series of points (one curve of a panel).
#[derive(Debug, Clone)]
pub struct Series {
    /// Legend label (matches the paper's legend).
    pub label: String,
    /// The measured points.
    pub points: Vec<Point>,
}

/// A stack selection to measure.
#[derive(Debug, Clone, Copy)]
pub struct StackSel {
    /// Variant (indirect / direct / faulty / URB).
    pub variant: VariantKind,
    /// Consensus family.
    pub family: ConsensusFamily,
    /// RB dissemination (ignored by the URB variant).
    pub rb: RbKind,
}

/// Measurement effort knob: the harness sizes run lengths from it.
#[derive(Debug, Clone, Copy)]
pub struct Effort {
    /// Target number of messages in the measured window per point.
    pub target_msgs: u64,
    /// Minimum measured window.
    pub min_duration: Duration,
    /// Maximum measured window.
    pub max_duration: Duration,
}

impl Effort {
    /// Full effort: what the figure binaries use.
    pub fn full() -> Self {
        Effort {
            target_msgs: 3000,
            min_duration: Duration::from_secs(2),
            max_duration: Duration::from_secs(20),
        }
    }

    /// Quick effort: what the Criterion benches and smoke tests use.
    pub fn quick() -> Self {
        Effort {
            target_msgs: 300,
            min_duration: Duration::from_millis(800),
            max_duration: Duration::from_secs(4),
        }
    }

    /// The measured window for a given throughput.
    pub fn duration_for(&self, throughput: f64) -> Duration {
        let secs = self.target_msgs as f64 / throughput;
        Duration::from_secs_f64(
            secs.clamp(self.min_duration.as_secs_f64(), self.max_duration.as_secs_f64()),
        )
    }
}

/// Measures one `(stack, throughput, payload)` point on a network.
pub fn measure(
    sel: StackSel,
    n: usize,
    net: &NetworkParams,
    cost: CostModel,
    throughput: f64,
    payload: usize,
    effort: Effort,
) -> Point {
    let mut spec = WorkloadSpec::new(n, throughput, payload, effort.duration_for(throughput));
    spec.warmup = Duration::from_millis(800);
    spec.drain = Duration::from_secs(3);
    spec.stack.rb = sel.rb;
    spec.stack.cost = cost;
    let r = run_variant(sel.variant, sel.family, net, &spec);
    Point::from_result(payload as f64, r)
}

/// Sweeps payload sizes for several stacks at a fixed throughput.
pub fn sweep_payload(
    stacks: &[(&str, StackSel)],
    n: usize,
    net: &NetworkParams,
    cost: CostModel,
    throughput: f64,
    payloads: &[usize],
    effort: Effort,
) -> Vec<Series> {
    stacks
        .iter()
        .map(|(label, sel)| Series {
            label: (*label).to_string(),
            points: payloads
                .iter()
                .map(|&size| measure(*sel, n, net, cost, throughput, size, effort))
                .collect(),
        })
        .collect()
}

/// Sweeps throughputs for several stacks at a fixed payload size.
pub fn sweep_throughput(
    stacks: &[(&str, StackSel)],
    n: usize,
    net: &NetworkParams,
    cost: CostModel,
    throughputs: &[f64],
    payload: usize,
    effort: Effort,
) -> Vec<Series> {
    stacks
        .iter()
        .map(|(label, sel)| Series {
            label: (*label).to_string(),
            points: throughputs
                .iter()
                .map(|&thr| {
                    let mut p = measure(*sel, n, net, cost, thr, payload, effort);
                    p.x = thr;
                    p
                })
                .collect(),
        })
        .collect()
}

/// Renders a panel as an aligned text table (mirroring the paper's plot).
pub fn format_panel(title: &str, xlabel: &str, series: &[Series]) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "\n== {title} ==");
    let _ = write!(out, "{xlabel:>12}");
    for s in series {
        let _ = write!(out, " | {:>28}", s.label);
    }
    let _ = writeln!(out);
    let _ = write!(out, "{:>12}", "");
    for _ in series {
        let _ = write!(out, " | {:>10} {:>8} {:>8}", "mean[ms]", "p50", "p95");
    }
    let _ = writeln!(out);
    let rows = series.first().map_or(0, |s| s.points.len());
    for i in 0..rows {
        let _ = write!(out, "{:>12}", series[0].points[i].x);
        for s in series {
            let p = &s.points[i];
            let sat = if p.saturated { "*" } else { " " };
            let _ = write!(
                out,
                " | {:>9.3}{} {:>8.3} {:>8.3}",
                p.mean_ms, sat, p.median_ms, p.p95_ms
            );
        }
        let _ = writeln!(out);
    }
    let _ = writeln!(out, "(* = saturated: ≥2% of expected deliveries missing at cutoff)");
    out
}

/// Appends a panel to a CSV file under `results/`.
///
/// # Panics
///
/// Panics if the results directory cannot be created or written.
pub fn write_csv(file: &str, panel: &str, xlabel: &str, series: &[Series]) {
    let dir = Path::new("results");
    fs::create_dir_all(dir).expect("create results dir");
    let path = dir.join(file);
    let mut body = String::new();
    if !path.exists() {
        let _ = writeln!(body, "panel,series,{xlabel},mean_ms,median_ms,p95_ms,saturated");
    }
    for s in series {
        for p in &s.points {
            let _ = writeln!(
                body,
                "{panel},{},{},{:.4},{:.4},{:.4},{}",
                s.label, p.x, p.mean_ms, p.median_ms, p.p95_ms, p.saturated
            );
        }
    }
    let mut existing = fs::read_to_string(&path).unwrap_or_default();
    existing.push_str(&body);
    fs::write(&path, existing).expect("write results csv");
}

/// The workload spec behind every `pipeline_sweep` grid point — CI smoke
/// rows included — on the Setup-1 cost model, with the RNG seed pinned to
/// [`iabc_workload::CI_SMOKE_SEED`] so that `BENCH_pipeline_sweep.json`
/// artifacts are comparable run-to-run (CI's exactness check requires
/// every smoke sim row verbatim in the committed baseline).
/// The priority and recovery sweeps build on it. All three run eager RB:
/// they reproduce experiments calibrated at the eager-RB knee, just as the
/// figure binaries name their `RbKind`.
pub fn pipeline_sweep_spec(
    n: usize,
    offered: f64,
    payload: usize,
    duration: Duration,
    window: usize,
    batch: usize,
) -> WorkloadSpec {
    let mut spec = WorkloadSpec::new(n, offered, payload, duration)
        .with_pipeline(window, batch)
        .with_seed(iabc_workload::CI_SMOKE_SEED);
    spec.warmup = Duration::from_millis(400);
    spec.drain = Duration::from_secs(3);
    spec.stack.cost = CostModel::setup1();
    spec.stack.rb = RbKind::EagerN2;
    spec
}

/// The workload spec behind every `priority_sweep` grid point: the
/// adaptive AIMD window in `[1, 16]` at batch 1 — the `pipeline_sweep`
/// adaptive row — but with a tighter proposal cap of 64 ids, and the
/// two-class priority lane toggled per row. Seed pinned like every CI
/// smoke artifact.
///
/// The cap is deliberately smaller than the single-class row's 512: with
/// the lane on, ordering decides faster than bulk drains, so the backlog
/// is structurally deeper, and small oldest-first slices keep every
/// proposal cheap to `rcv()`-check *and* composed of ids whose payloads
/// have already flooded — large slices reach into fresh ids whose Data
/// frames the proposal would overtake, burning rounds on nacks. Both
/// lanes run the same cap so the on/off comparison is controlled.
pub fn priority_sweep_spec(
    n: usize,
    offered: f64,
    payload: usize,
    duration: Duration,
    lane: bool,
) -> WorkloadSpec {
    let mut spec =
        pipeline_sweep_spec(n, offered, payload, duration, 1, 1).with_priority_lane(lane);
    spec.stack = spec.stack.with_adaptive_window(1, 16).with_proposal_cap(64);
    spec
}

/// The workload spec of the `priority_sweep` *large-cap* rows: the lane-on
/// knee configuration with the proposal cap opened up to `cap` ids and the
/// freshness gate toggled per row.
///
/// This is the pairing the gate exists for: with the lane on, ordering
/// frames overtake the payload flood, so an ungated large cap reaches into
/// just-arrived ids whose Data frames its own proposal outruns — a round
/// burned on nacks per unflooded id slice. Gated, the oldest-first slice
/// only ever names ids at least ~one measured flood delay old, which is
/// what lets the lane keep `cap ≥ 512` instead of the tight 64.
pub fn priority_large_cap_spec(
    n: usize,
    offered: f64,
    payload: usize,
    duration: Duration,
    cap: usize,
    freshness: bool,
) -> WorkloadSpec {
    let mut spec = priority_sweep_spec(n, offered, payload, duration, true);
    spec.stack = spec.stack.with_proposal_cap(cap).with_proposal_freshness(freshness);
    spec
}

/// The workload spec of the `pipeline_sweep` *adaptive-batch* row: the
/// single-class adaptive row (AIMD window in `[1, 16]`, proposal cap 512)
/// with the fixed client batch replaced by the queue-depth-driven
/// coalescer in `[1, max_batch]`. At the `B = 1` knee the fixed-batch
/// adaptive row collapses to ~3% of offered load while `B = 16` sails
/// through — the coalescer must close that gap without a per-run `B`.
pub fn pipeline_adaptive_batch_spec(
    n: usize,
    offered: f64,
    payload: usize,
    duration: Duration,
    max_batch: usize,
) -> WorkloadSpec {
    let mut spec =
        pipeline_sweep_spec(n, offered, payload, duration, 1, 1).with_adaptive_batch(1, max_batch);
    spec.stack = spec.stack.with_adaptive_window(1, 16).with_proposal_cap(512);
    spec
}

/// The workload spec behind every `recovery_sweep` grid point: the static
/// `W = 8, B = 16` pipeline (a healthy mid-grid `pipeline_sweep`
/// configuration, well below the `B = 1` knee) with the decided log and
/// catch-up protocol toggled per row. Seed pinned like every CI smoke
/// artifact.
///
/// With `catch_up` off this is byte-for-byte the paper's protocol; on, every
/// process appends each fully a-delivered instance to an in-memory decided
/// log and piggybacks its frontier on existing frames. A fault-free sweep
/// therefore prices the steady-state bookkeeping alone — the start-up
/// frontier probe is the only catch-up traffic the run should ever see.
pub fn recovery_sweep_spec(
    n: usize,
    offered: f64,
    payload: usize,
    duration: Duration,
    catch_up: bool,
) -> WorkloadSpec {
    let mut spec = pipeline_sweep_spec(n, offered, payload, duration, 8, 16);
    spec.stack = spec.stack.with_catch_up(catch_up);
    spec
}

/// The standard stack selections used across figures.
pub mod sel {
    use super::*;

    /// Indirect consensus (CT-based, Algorithm 2) over a given RB.
    pub fn indirect(rb: RbKind) -> StackSel {
        StackSel { variant: VariantKind::Indirect, family: ConsensusFamily::Ct, rb }
    }

    /// Consensus on full messages (classic reduction).
    pub fn direct_messages(rb: RbKind) -> StackSel {
        StackSel { variant: VariantKind::DirectMessages, family: ConsensusFamily::Ct, rb }
    }

    /// The faulty consensus-on-ids baseline.
    pub fn faulty(rb: RbKind) -> StackSel {
        StackSel { variant: VariantKind::FaultyIds, family: ConsensusFamily::Ct, rb }
    }

    /// URB + consensus-on-ids (the other correct solution).
    pub fn urb() -> StackSel {
        StackSel { variant: VariantKind::UrbIds, family: ConsensusFamily::Ct, rb: RbKind::EagerN2 }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn effort_duration_scales_with_throughput() {
        let e = Effort::full();
        assert!(e.duration_for(100.0) > e.duration_for(2000.0));
        assert!(e.duration_for(1.0) <= e.max_duration);
        assert!(e.duration_for(1e9) >= e.min_duration);
    }

    #[test]
    fn format_panel_contains_series_labels() {
        let series = vec![Series {
            label: "Indirect consensus".into(),
            points: vec![Point {
                x: 100.0,
                mean_ms: 1.5,
                median_ms: 1.4,
                p95_ms: 2.0,
                saturated: false,
            }],
        }];
        let s = format_panel("test", "size", &series);
        assert!(s.contains("Indirect consensus"));
        assert!(s.contains("1.5"));
    }

    #[test]
    fn quick_measure_smoke() {
        let p = measure(
            sel::indirect(RbKind::EagerN2),
            3,
            &NetworkParams::setup1(),
            CostModel::setup1(),
            50.0,
            16,
            Effort::quick(),
        );
        assert!(p.mean_ms > 0.0);
        assert!(!p.saturated);
    }
}

//! One workload on the real stack: as many fresh-cluster epochs as fit the
//! time budget, folded into the end-to-end metrics and the outside-in
//! (per-thread) layer metrics.

use iabc_core::stacks;

use crate::gen::Generator;
use crate::procstat::peak_rss_mib;
use crate::realrun::{run_epoch, Epoch, Load, Slice};
use crate::report::Metrics;
use crate::stats::{median, quantile_sorted};
use crate::workloads::{Stack, Workload, N};

/// Cluster start-up is timed on this many fresh clusters at the start of a
/// run, before any measured epoch: a cluster started after one that held
/// hundreds of MiB was torn down pays ~10 ms of page faults that a fresh
/// process does not, and the two must not mix in one median.
const START_SAMPLES: usize = 21;

/// One fresh `n`-process cluster of the workload's stack.
pub fn epoch(
    w: &Workload,
    n: usize,
    load: Option<Load>,
    gen: &mut Generator,
) -> Result<Epoch, String> {
    let params = w.params(n);
    match w.stack {
        Stack::IndirectCt => run_epoch(n, load, |p| stacks::indirect_ct(p, &params), gen),
        Stack::DirectCtMessages => {
            run_epoch(n, load, |p| stacks::direct_ct_messages(p, &params), gen)
        }
    }
}

/// Everything the real-stack epochs of one run measured.
#[derive(Debug, Default)]
pub struct RealRun {
    pub epochs: Vec<Epoch>,
    /// Start-up times of the start-up-only cycles.
    pub starts_s: Vec<f64>,
    /// `VmHWM` when the first measured epoch ended: one epoch's worth of
    /// state in a fresh process. Later epochs only add what the allocator
    /// keeps of torn-down clusters, which grows with however many epochs
    /// the time budget happens to fit.
    pub peak_rss_mib: f64,
}

/// Times [`START_SAMPLES`] start-up-only cycles, then runs measured epochs
/// until their measured intervals add up to `seconds`.
pub fn run_real(w: &Workload, gen: &mut Generator, seconds: f64) -> Result<RealRun, String> {
    let mut run = RealRun::default();
    for _ in 0..START_SAMPLES {
        run.starts_s.push(epoch(w, N, None, gen)?.start_s);
    }
    let mut measured_ns = 0u64;
    while (measured_ns as f64) < seconds * 1e9 {
        let e = epoch(w, N, Some(w.load), gen)?;
        measured_ns += e.span_ns;
        // Each failed message costs the completion timeout, and an epoch
        // in which nothing completed never advances the budget: after a
        // failure, stop with what there is (the failures are counted).
        let wedged = e.completed < e.attempted;
        if run.epochs.is_empty() {
            run.peak_rss_mib = peak_rss_mib();
        }
        run.epochs.push(e);
        if wedged {
            break;
        }
    }
    Ok(run)
}

impl RealRun {
    pub fn attempted(&self) -> u64 {
        self.epochs.iter().map(|e| e.attempted).sum()
    }

    pub fn completed(&self) -> u64 {
        self.epochs.iter().map(|e| e.completed).sum()
    }

    /// The median over epochs of `f(epoch)`.
    fn median_of(&self, f: impl Fn(&Epoch) -> f64) -> f64 {
        median(&self.epochs.iter().map(f).collect::<Vec<_>>())
    }

    /// The median over every closed-loop slice of every epoch of
    /// `f(slice)`. The gated timings are folded this way: on a shared
    /// 2-core box one CPU-quota stall, one slow cluster or one burst of
    /// page faults owns a few slices, not the run.
    fn median_of_slices(&self, f: impl Fn(&Slice) -> f64) -> f64 {
        median(
            &self
                .epochs
                .iter()
                .flat_map(|e| e.slices.iter().map(&f))
                .collect::<Vec<_>>(),
        )
    }

    /// Completed messages per second of each epoch, in run order.
    pub fn epoch_throughputs(&self) -> Vec<f64> {
        self.epochs.iter().map(Epoch::throughput_msgs_s).collect()
    }

    /// All latency samples of all epochs, ascending, ns.
    pub fn sorted_latencies(&self) -> Vec<u64> {
        let mut all: Vec<u64> = self
            .epochs
            .iter()
            .flat_map(|e| e.latencies_ns.iter().copied())
            .collect();
        all.sort_unstable();
        all
    }

    /// p99 of the generator's lateness over all open-loop sends, µs; 0 on
    /// a closed loop, where nothing is scheduled.
    pub fn gen_late_p99_us(&self) -> f64 {
        let mut late: Vec<u64> = self
            .epochs
            .iter()
            .flat_map(|e| e.late_ns.iter().copied())
            .collect();
        late.sort_unstable();
        quantile_sorted(&late, 0.99) as f64 / 1e3
    }

    /// The metrics a user of the system sees.
    pub fn end_to_end(&self) -> Metrics {
        let mut m = Metrics::default();
        // Start-up plus warm-up: the ~1 ms start-up alone doubles from one
        // run to the next on this box, and work moved out of the measured
        // interval lands in the warm-up as readily as in the start-up.
        m.push("setup_s", self.median_of(|e| e.ready_s), "s");
        m.push(
            "throughput_msgs_s",
            self.median_of_slices(|s| s.throughput_msgs_s),
            "1/s",
        );
        m.push("adeliver_p50_ms", self.median_of_slices(|s| s.p50_ms), "ms");
        m.push(
            "cpu_us_per_msg",
            self.median_of(|e| e.per_msg_us(e.usage.total_cpu_ns())),
            "us",
        );
        m.push("peak_rss_mib", self.peak_rss_mib, "MiB");
        m
    }

    /// Per-layer metrics measured from outside, with tracing off: thread
    /// time by the cluster's own thread names, the fault counters, and the
    /// failure share.
    pub fn outside_in(&self) -> Metrics {
        let mut m = Metrics::default();
        // Reported on every run but not gated: on the shared 2-core box the
        // tail follows the host's mood (p99 spread 26–39 % over ten seeds
        // against 5–9 % for p50), wider than any bound the contract allows.
        m.push("adeliver_p99_ms", self.median_of_slices(|s| s.p99_ms), "ms");
        m.push("net.cluster_start_ms", median(&self.starts_s) * 1e3, "ms");
        m.push(
            "net.io_cpu_us_per_msg",
            self.median_of(|e| e.per_msg_us(e.usage.net_io.cpu_ns)),
            "us",
        );
        m.push(
            "net.io_runq_wait_us_per_msg",
            self.median_of(|e| e.per_msg_us(e.usage.net_io.runq_ns)),
            "us",
        );
        m.push(
            "net.io_wakeups_per_msg",
            self.median_of(|e| e.per_msg(e.usage.net_io.wakeups)),
            "count",
        );
        m.push(
            "core.node_cpu_us_per_msg",
            self.median_of(|e| e.per_msg_us(e.usage.node.cpu_ns)),
            "us",
        );
        m.push(
            "core.node_runq_wait_us_per_msg",
            self.median_of(|e| e.per_msg_us(e.usage.node.runq_ns)),
            "us",
        );
        m.push(
            "core.node_wakeups_per_msg",
            self.median_of(|e| e.per_msg(e.usage.node.wakeups)),
            "count",
        );
        m.push(
            "harness.gen_cpu_us_per_msg",
            self.median_of(|e| e.per_msg_us(e.usage.harness.cpu_ns)),
            "us",
        );
        m.push("harness.gen_late_p99_us", self.gen_late_p99_us(), "us");
        let worst_offset_err = self
            .epochs
            .iter()
            .map(|e| e.clock_offset_err_ns)
            .max()
            .unwrap_or(0);
        m.push(
            "harness.clock_offset_err_us",
            worst_offset_err as f64 / 1e3,
            "us",
        );
        m.push(
            "net.links_severed",
            self.median_of(|e| e.links_severed as f64),
            "count",
        );
        m.push(
            "net.reconnects",
            self.median_of(|e| e.reconnects as f64),
            "count",
        );
        m.push(
            "failed_frac",
            (self.attempted() - self.completed()) as f64 / self.attempted() as f64,
            "frac",
        );
        m.push(
            "fault_phase_p50_ms",
            self.median_of(|e| e.fault_phase_p50_ms),
            "ms",
        );
        m.push("fault_stall_ms", self.median_of(|e| e.fault_stall_ms), "ms");
        m.push(
            "heal_catchup_ms",
            self.median_of(|e| e.heal_catchup_ms),
            "ms",
        );
        m
    }
}

//! The experiment runner: one stack, one load point, one latency number.

use iabc_consensus::SingleConsensus;
use iabc_core::stacks::{self, StackParams};
use iabc_core::{
    AbcastCommand, AbcastEvent, AbcastNode, ConsensusFamily, OrderingValue, VariantKind,
};
use iabc_runtime::Node;
use iabc_sim::{NetworkParams, SimBuilder, SimWorld, StopReason};
use iabc_types::{Duration, Payload, ProcessId, Time};

/// The RNG seed pinned for CI smoke benchmarks: artifacts produced on
/// different runs (and machines) are byte-comparable only if the workload
/// schedule is identical, so the smoke configurations must all thread this
/// seed through [`WorkloadSpec::with_seed`].
pub const CI_SMOKE_SEED: u64 = 0xABCD_2006;

use crate::coalesce::BatchCoalescer;
use crate::gen::{arrival_schedule, batched_schedule, ArrivalKind};
use crate::stats::LatencyStats;

/// One load point of the paper's symmetric workload, run on one stack.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadSpec {
    /// The stack every process runs — system size `n`, broadcast
    /// strategy, cost model and pipeline knobs. Set a knob with the
    /// [`StackParams`] setters: `spec.stack = spec.stack.with_proposal_cap(64)`.
    pub stack: StackParams,
    /// Global a-broadcast rate, *payloads*/second (split evenly).
    pub throughput: f64,
    /// Payload size in bytes (per client payload; a batched broadcast
    /// carries `batch × payload` bytes).
    pub payload: usize,
    /// Measured interval (after warm-up).
    pub duration: Duration,
    /// Warm-up: messages broadcast before this point are excluded.
    pub warmup: Duration,
    /// Grace period after the last broadcast for in-flight deliveries.
    pub drain: Duration,
    /// RNG seed (schedules are deterministic given the seed).
    pub seed: u64,
    /// Arrival process.
    pub arrivals: ArrivalKind,
    /// Client-side batching `B`: up to this many payloads coalesce into one
    /// a-broadcast tick. `1` = one broadcast per payload (the paper's
    /// workload). Ignored when `adaptive_batch` is set.
    pub batch: usize,
    /// When set, the fixed `batch` is replaced by a queue-depth-driven
    /// [`BatchCoalescer`] bounded by `(min, max)`: the per-tick batch
    /// grows toward `max` while the a-deliver backlog rises and halves
    /// toward `min` when it drains — see [`WorkloadSpec::with_adaptive_batch`].
    pub adaptive_batch: Option<(usize, usize)>,
    /// Whether the simulated hosts run the two-class priority lane
    /// (ordering frames served ahead of bulk payload traffic on every CPU
    /// and NIC). `false` is the paper's single-class FIFO model.
    pub priority_lane: bool,
}

impl WorkloadSpec {
    /// A spec with sane defaults on [`StackParams::fault_free`]: 1 s
    /// warm-up, 2 s drain, Poisson arrivals, no batching, window 1.
    pub fn new(n: usize, throughput: f64, payload: usize, duration: Duration) -> Self {
        WorkloadSpec {
            stack: StackParams::fault_free(n),
            throughput,
            payload,
            duration,
            warmup: Duration::from_secs(1),
            drain: Duration::from_secs(2),
            seed: CI_SMOKE_SEED,
            arrivals: ArrivalKind::Poisson,
            batch: 1,
            adaptive_batch: None,
            priority_lane: false,
        }
    }

    /// Sets the throughput knobs: a static pipeline window `W`
    /// ([`StackParams::with_window`]) and batch size `B` (both clamped to
    /// at least 1). Clears a previously set adaptive window or adaptive
    /// batch — the last pipeline builder wins.
    pub fn with_pipeline(mut self, window: usize, batch: usize) -> Self {
        self.stack = self.stack.with_window(window);
        self.batch = batch.max(1);
        self.adaptive_batch = None;
        self
    }

    /// Replaces the fixed batch `B` with a queue-depth-driven coalescer
    /// bounded by `[min, max]` (clamped to `1 ≤ min ≤ max`): each payload
    /// arrival observes its process's a-deliver backlog, the per-tick
    /// batch grows additively while the backlog rises and halves when it
    /// drains, and a tick fires once the pending payloads fill the
    /// current batch. Deterministic per workload seed.
    pub fn with_adaptive_batch(mut self, min: usize, max: usize) -> Self {
        let min = min.max(1);
        self.adaptive_batch = Some((min, max.max(min)));
        self
    }

    /// Pins the workload RNG seed (CI smoke configurations use
    /// [`CI_SMOKE_SEED`] so artifacts stay comparable run-to-run).
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Runs the simulated hosts with the two-class priority lane: ordering
    /// (consensus/FD) frames are served ahead of queued bulk payload
    /// frames on every CPU and NIC port (`SimBuilder::priority_lane`).
    pub fn with_priority_lane(mut self, on: bool) -> Self {
        self.priority_lane = on;
        self
    }
}

/// The outcome of one experiment run.
#[derive(Debug, Clone)]
pub struct ExperimentResult {
    /// Latency over all `(message, process)` delivery pairs in the
    /// measurement window — the paper's metric.
    pub latency: LatencyStats,
    /// Broadcasts (batched ticks) a-broadcast inside the measurement window.
    pub broadcast_count: u64,
    /// Client payloads carried by those broadcasts (`= broadcast_count`
    /// when `batch == 1`).
    pub broadcast_payloads: u64,
    /// Delivery pairs observed for those broadcasts.
    pub delivered_pairs: u64,
    /// Payload-weighted delivery pairs (each delivered broadcast counts the
    /// payloads it coalesced).
    pub delivered_payload_pairs: u64,
    /// The subset of `delivered_payload_pairs` whose delivery *happened*
    /// inside the measurement window (not during the drain grace period) —
    /// the basis of the sustained-goodput metric. A saturated system keeps
    /// delivering its backlog long after the window closes; those
    /// deliveries count toward loss accounting but not toward goodput.
    pub delivered_payload_pairs_in_window: u64,
    /// Delivery pairs still missing when the run ended — nonzero means the
    /// system could not drain the offered load (or lost messages).
    pub missing_pairs: u64,
    /// Whether the run is considered saturated (≥ 2% missing pairs).
    pub saturated: bool,
    /// The measured window the counters cover.
    pub window_duration: Duration,
    /// Simulator events processed.
    pub events: u64,
    /// The pipeline window `W` of process 0 over (virtual) time, recorded
    /// at every observed change as `(seconds since start, W)` — flat
    /// `[(t₀, W)]` for static configs, the controller's trajectory for
    /// adaptive ones. Sampled once per runner slice (500 ms), so
    /// intra-slice flapping collapses to its endpoints.
    pub window_trajectory: Vec<(f64, usize)>,
    /// Process 0's window when the run ended.
    pub final_window: usize,
    /// Proposals truncated by the proposal cap, summed over all processes.
    pub proposal_cap_hits: u64,
    /// Mean consensus decision latency (propose → apply of locally
    /// proposed instances) in milliseconds, over all processes — the
    /// ordering-path health metric the priority lane targets. `0.0` when
    /// no decision latency was observed.
    pub mean_decision_latency_ms: f64,
    /// Consensus refusal messages (CT nacks, MR ⊥ echoes, suspicion
    /// echoes included) sent, summed over all processes — a proxy for
    /// rounds burned on unflooded proposals (one burned round produces up
    /// to `n - 1` refusals), the churn the freshness gate targets.
    /// Compare it between configurations at the same `n`; it is not a
    /// round count.
    pub nacked_rounds: u64,
    /// Identifiers excluded from proposals by the freshness gate, summed
    /// over all processes.
    pub freshness_held: u64,
    /// Process 0's per-tick batch size over (virtual) time, recorded at
    /// every observed change as `(seconds since start, B)` — flat
    /// `[(0.0, B)]` for fixed-batch runs, the coalescer's trajectory for
    /// adaptive ones.
    pub batch_trajectory: Vec<(f64, usize)>,
    /// Process 0's batch size when the run ended.
    pub final_batch: usize,
    /// Catch-up requests issued, summed over all processes (0 when the
    /// catch-up protocol is off — fault-free runs should stay near 0 past
    /// the start-up probes even with it on).
    pub catch_up_requests: u64,
    /// Decided entries learned through catch-up replies (instances ahead
    /// of the receiver's apply cursor on arrival), summed over all
    /// processes.
    pub caught_up_entries: u64,
    /// The lowest decided frontier over all processes when the run ended
    /// (0 when catch-up is off): how far the most lagging log can serve.
    pub min_decided_frontier: u64,
}

impl ExperimentResult {
    /// Mean latency in milliseconds.
    pub fn mean_ms(&self) -> f64 {
        self.latency.mean_ms()
    }

    /// Sustained delivered client payloads per second per process: the
    /// end-to-end goodput of the run (payload-weighted deliveries that
    /// happened inside the measurement window, averaged over the `n`
    /// delivering processes and the window length).
    pub fn goodput_per_sec(&self, n: usize) -> f64 {
        if self.window_duration.is_zero() || n == 0 {
            return 0.0;
        }
        self.delivered_payload_pairs_in_window as f64
            / n as f64
            / self.window_duration.as_secs_f64()
    }
}

/// Runs one atomic broadcast experiment on the simulated LAN.
///
/// Generic over the stack: `factory` builds process `p`'s node — any of
/// the eight [`iabc_core::stacks`] constructors applied to `spec.stack`.
pub fn run_abcast_experiment<V, A>(
    net: &NetworkParams,
    spec: &WorkloadSpec,
    factory: impl FnMut(ProcessId) -> AbcastNode<V, A>,
) -> ExperimentResult
where
    V: OrderingValue,
    A: SingleConsensus<V>,
{
    let n = spec.stack.n;
    assert!(n >= 1, "need at least one process");
    let mut world = SimBuilder::new(n, net.clone()).priority_lane(spec.priority_lane).build(factory);

    // Fixed-batch runs schedule the whole open-loop workload up front,
    // coalescing up to `spec.batch` payloads per broadcast tick. Each
    // process's ticks are scheduled in time order, so tick `i` of process
    // `p` is exactly the broadcast that gets sequence number `i` — that
    // mapping recovers the per-broadcast payload count from a delivered
    // id below. Adaptive-batch runs keep the *raw* arrival schedule and
    // coalesce at injection time instead, because the coalescer's batch
    // size depends on the live a-deliver backlog.
    let horizon = spec.warmup + spec.duration;
    let rate_per_proc = spec.throughput / n as f64;
    let mut batch_of: Vec<Vec<u32>> = vec![Vec::new(); n];
    let mut arrivals: Vec<(Time, ProcessId)> = Vec::new();
    if spec.adaptive_batch.is_none() {
        for p in ProcessId::all(n) {
            for (at, count) in
                batched_schedule(spec.arrivals, rate_per_proc, horizon, spec.seed, p, spec.batch)
            {
                world.schedule_command(
                    p,
                    at,
                    AbcastCommand::Broadcast(Payload::zeroed(spec.payload * count as usize)),
                );
                batch_of[p.as_usize()].push(count);
            }
        }
    } else {
        for p in ProcessId::all(n) {
            for at in arrival_schedule(spec.arrivals, rate_per_proc, horizon, spec.seed, p) {
                arrivals.push((at, p));
            }
        }
        // One global time order (ties broken by process id) so injection
        // is deterministic per seed.
        arrivals.sort_by_key(|&(at, p)| (at, p.as_usize()));
    }

    let window_start = Time::ZERO + spec.warmup;
    let window_end = Time::ZERO + horizon;
    let deadline = window_end + spec.drain;

    let mut latency = LatencyStats::new();
    let mut broadcast_count = 0u64;
    let mut broadcast_payloads = 0u64;
    let mut delivered_pairs = 0u64;
    let mut delivered_payload_pairs = 0u64;
    let mut delivered_payload_pairs_in_window = 0u64;
    // Ids broadcast in-window → payloads carried.
    let mut expected: std::collections::BTreeMap<iabc_types::MsgId, u32> =
        std::collections::BTreeMap::new();

    // Fires one broadcast tick carrying process `p`'s pending payloads at
    // time `at` (no-op when nothing is pending) — the one place the
    // tick-to-sequence accounting and the coalesced payload sizing live,
    // shared by the batch-full and tail-flush paths.
    fn flush_batch<N>(
        world: &mut SimWorld<N>,
        batch_of: &mut [Vec<u32>],
        pending: &mut [u32],
        p: ProcessId,
        at: Time,
        payload: usize,
    ) where
        N: Node<Command = AbcastCommand, Output = AbcastEvent>,
    {
        let pi = p.as_usize();
        if pending[pi] == 0 {
            return;
        }
        batch_of[pi].push(pending[pi]);
        world.schedule_command(
            p,
            at,
            AbcastCommand::Broadcast(Payload::zeroed(payload * pending[pi] as usize)),
        );
        pending[pi] = 0;
    }

    // The adaptive coalescing state: one controller and one pending-count
    // per process (inert — bounds collapsed to the fixed batch — when
    // adaptive batching is off).
    let (b_min, b_max) = spec.adaptive_batch.unwrap_or((spec.batch, spec.batch));
    let mut coalescers: Vec<BatchCoalescer> =
        (0..n).map(|_| BatchCoalescer::new(b_min, b_max)).collect();
    let mut pending: Vec<u32> = vec![0; n];
    // Arrival instant of each process's newest pending payload: the tail
    // flush must not tick earlier than this — `world.now()` alone can be
    // stale (an empty event queue leaves the clock at the last processed
    // event, which may precede the final arrivals).
    let mut pending_last_at: Vec<Time> = vec![Time::ZERO; n];
    let mut arr_idx = 0usize;
    let mut tail_flushed = false;
    let mut batch_trajectory: Vec<(f64, usize)> = vec![(0.0, coalescers[0].current())];

    // Run in slices, draining outputs as we go to bound memory.
    let slice = Duration::from_millis(500);
    let mut cursor = Time::ZERO;
    let mut window_trajectory: Vec<(f64, usize)> =
        vec![(0.0, world.node(ProcessId::new(0)).window())];
    loop {
        cursor = (cursor + slice).max(cursor);
        let target = if cursor > deadline { deadline } else { cursor };
        // Adaptive ingestion: step arrival-by-arrival up to `target`. Each
        // arrival observes its process's current a-deliver backlog, adapts
        // the batch, and fires a broadcast tick once the pending payloads
        // fill it (the tick instant is the *last* coalesced arrival, so no
        // payload is ever broadcast before it arrived — exactly the
        // causality rule of the precomputed fixed-batch schedule).
        while arr_idx < arrivals.len() && arrivals[arr_idx].0 <= target {
            let (at, p) = arrivals[arr_idx];
            arr_idx += 1;
            world.run_until(at);
            let pi = p.as_usize();
            pending[pi] += 1;
            pending_last_at[pi] = at;
            let co = &mut coalescers[pi];
            co.observe(world.node(p).ingest_backlog());
            if pi == 0 {
                let b = co.current();
                if batch_trajectory.last().is_none_or(|&(_, last)| last != b) {
                    batch_trajectory.push((world.now().as_secs_f64(), b));
                }
            }
            if pending[pi] as usize >= co.current() {
                flush_batch(&mut world, &mut batch_of, &mut pending, p, at, spec.payload);
            }
        }
        if !tail_flushed && arr_idx == arrivals.len() {
            // The last arrivals are in: flush partial batches so no
            // payload is stranded below its batch-fill threshold.
            tail_flushed = true;
            let now = world.now();
            for p in ProcessId::all(n) {
                // Never tick before the payloads being flushed arrived
                // (the causality rule mid-run flushes get from using the
                // arrival instant directly).
                let at = pending_last_at[p.as_usize()].max(now);
                flush_batch(&mut world, &mut batch_of, &mut pending, p, at, spec.payload);
            }
        }
        let stop = world.run_until(target);
        for rec in world.drain_outputs() {
            match rec.output {
                AbcastEvent::Broadcast { id } => {
                    if rec.at >= window_start && rec.at < window_end {
                        let count = batch_of[id.sender().as_usize()]
                            .get(id.seq() as usize)
                            .copied()
                            .unwrap_or(1);
                        broadcast_count += 1;
                        broadcast_payloads += u64::from(count);
                        expected.insert(id, count);
                    }
                }
                AbcastEvent::Delivered { msg } => {
                    let t0 = msg.broadcast_at();
                    if t0 >= window_start && t0 < window_end {
                        if let Some(&count) = expected.get(&msg.id()) {
                            delivered_pairs += 1;
                            delivered_payload_pairs += u64::from(count);
                            if rec.at < window_end {
                                delivered_payload_pairs_in_window += u64::from(count);
                            }
                            latency.record(rec.at.elapsed_since(t0));
                        }
                    }
                }
            }
        }
        let w = world.node(ProcessId::new(0)).window();
        if window_trajectory.last().is_none_or(|&(_, last)| last != w) {
            window_trajectory.push((world.now().as_secs_f64(), w));
        }
        // Quiescence only ends the run once every arrival has been
        // injected — adaptive runs hold future arrivals outside the event
        // queue, so an idle instant mid-schedule is not the end.
        if (stop == StopReason::Quiescent && arr_idx == arrivals.len()) || target == deadline {
            break;
        }
    }

    let final_window = world.node(ProcessId::new(0)).window();
    let proposal_cap_hits =
        ProcessId::all(n).map(|p| world.node(p).proposal_cap_hits()).sum();
    let nacked_rounds = ProcessId::all(n).map(|p| world.node(p).nacks_sent()).sum();
    let freshness_held = ProcessId::all(n).map(|p| world.node(p).freshness_held()).sum();
    let catch_up_requests =
        ProcessId::all(n).map(|p| world.node(p).catch_up_requests()).sum();
    let caught_up_entries =
        ProcessId::all(n).map(|p| world.node(p).caught_up_entries()).sum();
    let min_decided_frontier =
        ProcessId::all(n).map(|p| world.node(p).decided_frontier()).min().unwrap_or(0);
    let (latency_sum, latency_count) = ProcessId::all(n)
        .map(|p| world.node(p).decision_latency_stats())
        .fold((Duration::ZERO, 0u64), |(s, c), (ds, dc)| (s + ds, c + dc));
    let mean_decision_latency_ms = if latency_count > 0 {
        latency_sum.as_secs_f64() * 1e3 / latency_count as f64
    } else {
        0.0
    };

    let expected_pairs = broadcast_count * n as u64;
    let missing_pairs = expected_pairs.saturating_sub(delivered_pairs);
    let saturated =
        expected_pairs > 0 && (missing_pairs as f64 / expected_pairs as f64) >= 0.02;

    ExperimentResult {
        latency,
        broadcast_count,
        broadcast_payloads,
        delivered_pairs,
        delivered_payload_pairs,
        delivered_payload_pairs_in_window,
        missing_pairs,
        saturated,
        window_duration: spec.duration,
        events: world.stats().events,
        window_trajectory,
        final_window,
        proposal_cap_hits,
        mean_decision_latency_ms,
        nacked_rounds,
        freshness_held,
        final_batch: coalescers[0].current(),
        batch_trajectory,
        catch_up_requests,
        caught_up_entries,
        min_decided_frontier,
    }
}

/// Runs one experiment for a named paper stack (variant × consensus
/// family) configured by `spec.stack` — the entry point used by every
/// figure harness.
pub fn run_variant(
    variant: VariantKind,
    family: ConsensusFamily,
    net: &NetworkParams,
    spec: &WorkloadSpec,
) -> ExperimentResult {
    let params = &spec.stack;
    match (variant, family) {
        (VariantKind::Indirect, ConsensusFamily::Ct) => {
            run_abcast_experiment(net, spec, |p| stacks::indirect_ct(p, params))
        }
        (VariantKind::Indirect, ConsensusFamily::Mr) => {
            run_abcast_experiment(net, spec, |p| stacks::indirect_mr(p, params))
        }
        (VariantKind::DirectMessages, ConsensusFamily::Ct) => {
            run_abcast_experiment(net, spec, |p| stacks::direct_ct_messages(p, params))
        }
        (VariantKind::DirectMessages, ConsensusFamily::Mr) => {
            run_abcast_experiment(net, spec, |p| stacks::direct_mr_messages(p, params))
        }
        (VariantKind::FaultyIds, ConsensusFamily::Ct) => {
            run_abcast_experiment(net, spec, |p| stacks::faulty_ct_ids(p, params))
        }
        (VariantKind::FaultyIds, ConsensusFamily::Mr) => {
            run_abcast_experiment(net, spec, |p| stacks::faulty_mr_ids(p, params))
        }
        (VariantKind::UrbIds, ConsensusFamily::Ct) => {
            run_abcast_experiment(net, spec, |p| stacks::urb_ct_ids(p, params))
        }
        (VariantKind::UrbIds, ConsensusFamily::Mr) => {
            run_abcast_experiment(net, spec, |p| stacks::urb_mr_ids(p, params))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use iabc_core::{CostModel, RbKind};

    /// A short run on the Setup-1 cost model.
    fn quick_spec(n: usize, throughput: f64, payload: usize) -> WorkloadSpec {
        let mut s = WorkloadSpec::new(n, throughput, payload, Duration::from_millis(1500));
        s.warmup = Duration::from_millis(300);
        s.drain = Duration::from_secs(3);
        s.stack.cost = CostModel::setup1();
        s
    }

    /// `spec` with zero bookkeeping costs.
    fn costless(mut spec: WorkloadSpec) -> WorkloadSpec {
        spec.stack.cost = CostModel::zero();
        spec
    }

    /// The paper's primary stack on the Setup-1 network.
    fn run_indirect_ct(spec: &WorkloadSpec) -> ExperimentResult {
        run_variant(VariantKind::Indirect, ConsensusFamily::Ct, &NetworkParams::setup1(), spec)
    }

    #[test]
    fn indirect_ct_delivers_everything_at_low_load() {
        let r = run_indirect_ct(&quick_spec(3, 50.0, 32));
        assert!(r.broadcast_count > 30, "workload too small: {}", r.broadcast_count);
        assert_eq!(r.missing_pairs, 0, "all messages must deliver at 50 msg/s");
        assert!(!r.saturated);
        assert!(r.mean_ms() > 0.1 && r.mean_ms() < 50.0, "mean {} ms", r.mean_ms());
    }

    #[test]
    fn latency_grows_with_throughput() {
        let lo = run_indirect_ct(&quick_spec(3, 30.0, 1));
        let hi = run_indirect_ct(&quick_spec(3, 600.0, 1));
        assert!(
            hi.mean_ms() > lo.mean_ms(),
            "high load ({}) must beat low load ({})",
            hi.mean_ms(),
            lo.mean_ms()
        );
    }

    #[test]
    fn direct_messages_hurt_with_large_payloads() {
        // Figure 1's claim, in miniature: at moderate load, consensus on
        // full messages is slower than indirect consensus once payloads
        // are big.
        let spec = quick_spec(3, 100.0, 4000);
        let direct = run_variant(
            VariantKind::DirectMessages,
            ConsensusFamily::Ct,
            &NetworkParams::setup1(),
            &spec,
        );
        let indirect = run_indirect_ct(&spec);
        assert!(
            direct.mean_ms() > indirect.mean_ms(),
            "direct {} ms vs indirect {} ms",
            direct.mean_ms(),
            indirect.mean_ms()
        );
    }

    #[test]
    fn batching_conserves_payload_accounting() {
        let r = run_indirect_ct(&costless(quick_spec(3, 120.0, 8).with_pipeline(1, 4)));
        assert_eq!(r.missing_pairs, 0, "low load must fully drain");
        assert!(r.broadcast_count < r.broadcast_payloads, "B=4 must coalesce");
        assert_eq!(r.delivered_payload_pairs, r.broadcast_payloads * 3);
        assert!(r.goodput_per_sec(3) > 0.0);
    }

    #[test]
    fn pipelined_window_still_delivers_everything() {
        for window in [2usize, 8] {
            let r = run_indirect_ct(&quick_spec(3, 200.0, 16).with_pipeline(window, 1));
            assert_eq!(r.missing_pairs, 0, "W={window} lost deliveries");
            assert!(!r.saturated);
        }
    }

    #[test]
    fn adaptive_window_still_delivers_everything_and_records_trajectory() {
        let mut spec = quick_spec(3, 300.0, 16);
        spec.stack = spec.stack.with_adaptive_window(1, 16).with_proposal_cap(8);
        let r = run_indirect_ct(&spec);
        assert_eq!(r.missing_pairs, 0, "adaptive run lost deliveries");
        assert!(!r.window_trajectory.is_empty());
        assert!(
            r.window_trajectory.iter().all(|&(_, w)| (1..=16).contains(&w)),
            "trajectory out of bounds: {:?}",
            r.window_trajectory
        );
        assert!((1..=16).contains(&r.final_window));
    }

    #[test]
    fn static_runs_report_a_flat_trajectory_and_no_cap_hits() {
        let r = run_indirect_ct(&costless(quick_spec(3, 100.0, 8).with_pipeline(4, 1)));
        assert_eq!(r.window_trajectory, vec![(0.0, 4)], "static W must never move");
        assert_eq!(r.final_window, 4);
        assert_eq!(r.proposal_cap_hits, 0, "uncapped run must not report cap hits");
    }

    #[test]
    fn proposal_cap_spill_conserves_deliveries() {
        // A tight cap forces spills at this rate; nothing may be lost and
        // the cap hits must be visible to the harness.
        let mut spec = costless(quick_spec(3, 400.0, 8).with_pipeline(1, 1));
        spec.stack = spec.stack.with_proposal_cap(2);
        let r = run_indirect_ct(&spec);
        assert_eq!(r.missing_pairs, 0, "spill path lost deliveries");
        assert!(r.proposal_cap_hits > 0, "cap never engaged at 400 msg/s with cap 2");
    }

    #[test]
    fn priority_lane_run_delivers_everything_and_reports_decision_latency() {
        let base = quick_spec(3, 200.0, 64);
        let off = run_indirect_ct(&base);
        let on = run_indirect_ct(&base.clone().with_priority_lane(true));
        assert_eq!(on.missing_pairs, 0, "the lane must not lose deliveries");
        assert_eq!(
            on.delivered_payload_pairs, off.delivered_payload_pairs,
            "the lane re-orders service, never the delivered set"
        );
        assert!(off.mean_decision_latency_ms > 0.0, "decision latency must be observed");
        assert!(on.mean_decision_latency_ms > 0.0);
    }

    #[test]
    fn adaptive_batch_conserves_payloads_and_stays_in_bounds() {
        let r = run_indirect_ct(&quick_spec(3, 300.0, 8).with_adaptive_batch(1, 16));
        assert_eq!(r.missing_pairs, 0, "adaptive batching must not lose payloads");
        assert_eq!(r.delivered_payload_pairs, r.broadcast_payloads * 3);
        assert!(
            r.batch_trajectory.iter().all(|&(_, b)| (1..=16).contains(&b)),
            "batch left its bounds: {:?}",
            r.batch_trajectory
        );
        assert!((1..=16).contains(&r.final_batch));
    }

    #[test]
    fn adaptive_batch_is_deterministic_per_seed() {
        let spec = quick_spec(3, 500.0, 8).with_adaptive_batch(1, 8).with_seed(77);
        let (a, b) = (run_indirect_ct(&spec), run_indirect_ct(&spec));
        assert_eq!(a.batch_trajectory, b.batch_trajectory);
        assert_eq!(a.broadcast_count, b.broadcast_count);
        assert_eq!(a.delivered_payload_pairs, b.delivered_payload_pairs);
        assert_eq!(a.final_batch, b.final_batch);
        // A different seed drives a different schedule (and usually a
        // different coalescing history).
        let c = run_indirect_ct(&spec.clone().with_seed(78));
        assert_ne!(a.broadcast_count, 0);
        assert_ne!((a.broadcast_count, a.delivered_pairs), (c.broadcast_count, c.delivered_pairs));
    }

    #[test]
    fn fixed_batch_runs_report_flat_batch_trajectory() {
        let r = run_indirect_ct(&costless(quick_spec(3, 120.0, 8).with_pipeline(1, 4)));
        assert_eq!(r.batch_trajectory, vec![(0.0, 4)], "fixed B must never move");
        assert_eq!(r.final_batch, 4);
    }

    #[test]
    fn freshness_gated_run_delivers_everything() {
        let mut spec = quick_spec(3, 400.0, 16);
        spec.stack = spec
            .stack
            .with_adaptive_window(1, 16)
            .with_proposal_cap(64)
            .with_proposal_freshness(true);
        let r = run_indirect_ct(&spec);
        assert_eq!(r.missing_pairs, 0, "the gate must never strand a payload");
        // The run is long enough past warm-up that the gate engages.
        assert!(r.freshness_held > 0, "gate never engaged at 400/s");
    }

    #[test]
    fn catch_up_run_logs_everything_and_baselines_report_zero() {
        let base = quick_spec(3, 80.0, 16);
        let off = run_indirect_ct(&base);
        assert_eq!(off.catch_up_requests, 0, "catch-up metrics must be inert by default");
        assert_eq!(off.caught_up_entries, 0);
        assert_eq!(off.min_decided_frontier, 0);

        let mut with_catch_up = base.clone();
        with_catch_up.stack = base.stack.with_catch_up(true);
        let on = run_indirect_ct(&with_catch_up);
        assert_eq!(on.missing_pairs, 0, "catch-up run lost deliveries");
        assert_eq!(
            on.delivered_payload_pairs, off.delivered_payload_pairs,
            "catch-up must not change what a fault-free run delivers"
        );
        // Every process logged the full decision sequence...
        assert!(on.min_decided_frontier > 0, "no process logged anything");
        // ...without leaning on range-fetches: only the start-up probes
        // (one burst of n-1 per process) fire in a fault-free run.
        assert!(
            on.caught_up_entries <= 3,
            "fault-free run caught up {} entries",
            on.caught_up_entries
        );
    }

    #[test]
    fn all_eight_stacks_run_cleanly_at_low_load() {
        let net = NetworkParams::setup2();
        let mut spec = quick_spec(3, 40.0, 16);
        spec.stack.rb = RbKind::LazyN;
        spec.stack.cost = CostModel::setup2();
        for variant in [
            VariantKind::Indirect,
            VariantKind::DirectMessages,
            VariantKind::FaultyIds,
            VariantKind::UrbIds,
        ] {
            for family in [ConsensusFamily::Ct, ConsensusFamily::Mr] {
                let r = run_variant(variant, family, &net, &spec);
                assert_eq!(
                    r.missing_pairs, 0,
                    "{variant:?}/{family:?} lost messages in a fault-free run"
                );
            }
        }
    }
}

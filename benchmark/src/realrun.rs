//! The system under test: `AbcastCommand::Broadcast` into a `TcpCluster`
//! (loop-back TCP, real codec, real event loops), `AbcastEvent::Delivered`
//! out. One call to [`run_epoch`] is one fresh cluster: set-up, warm-up,
//! one measured interval, tear-down.

use std::time::{Duration, Instant};

use iabc_core::{AbcastCommand, AbcastEvent};
use iabc_net::{NetFaultPlan, NetOutput, TcpCluster};
use iabc_runtime::Node;
use iabc_types::{Decode, Encode, ProcessId};

use crate::gen::Generator;
use crate::oracle::Oracle;
use crate::procstat::{RoleUsage, Snapshot};
use crate::stats::quantile_sorted;

/// Messages sent (closed loop, same depth as the measured interval) on
/// every fresh cluster before measuring: lets buffer pools, hash maps and
/// the allocator reach their working size, and calibrates the clock offset.
pub const WARMUP_MSGS: u64 = 2_000;

/// A message not a-delivered at every process this long after the last
/// send has failed.
pub const COMPLETION_TIMEOUT: Duration = Duration::from_secs(10);

/// How the generator offers load during the measured interval.
#[derive(Debug, Clone, Copy)]
pub enum Load {
    /// Keep `outstanding` messages in flight until `count` have been sent:
    /// callers that each wait for their reply.
    Closed { outstanding: usize, count: u64 },
    /// The fault phase: send message `i` at `i / rate` seconds regardless
    /// of progress, for `count` messages (independent users), while
    /// process 0 is isolated from the others over `isolate = [from, until)`,
    /// measured from the first due time. Then the healed phase: a closed
    /// loop of `healed_count` messages, `healed_outstanding` in flight, on
    /// the same cluster.
    ///
    /// At the fault phase's rate the cluster is idle between messages, and
    /// what an idle cluster costs (a chain of wake-ups from a halted vCPU)
    /// follows the host, not the program: its latency and CPU per message
    /// doubled between sittings of the same code. The healed phase keeps
    /// the processors busy, so the gated timings are taken there; the fault
    /// phase gives the fault metrics, its share of the CPU, and the oracle
    /// something to check.
    Open {
        rate: f64,
        count: u64,
        isolate: (Duration, Duration),
        healed_outstanding: usize,
        healed_count: u64,
    },
}

/// How many slices a closed loop is cut into. A closed loop runs at the
/// speed of the system, so one CPU-quota stall or one burst of page faults
/// slows whatever is in flight: cut fine, it owns one slice in sixteen, and
/// a median over slices does not see it.
const CLOSED_SLICES: u64 = 16;

/// One slice of a closed loop: `count / CLOSED_SLICES` consecutive
/// messages.
#[derive(Debug, Clone, Copy)]
pub struct Slice {
    /// Slice length ÷ the time between the completions that bracket it.
    pub throughput_msgs_s: f64,
    /// Over the latency samples of the slice's messages, ms.
    pub p50_ms: f64,
    pub p99_ms: f64,
}

/// Cluster-clock time of an open-loop workload's first due message. Leaves
/// room for set-up and warm-up; the fault plan is anchored to it.
const OPEN_LOOP_START: Duration = Duration::from_millis(600);

/// What one fresh cluster measured.
#[derive(Debug, Default)]
pub struct Epoch {
    /// `TcpCluster::start` called → first warm-up message a-delivered at
    /// every process: the cluster is up.
    pub start_s: f64,
    /// `TcpCluster::start` called → warm-up complete: everything a fresh
    /// cluster does before the measured interval begins.
    pub ready_s: f64,
    pub attempted: u64,
    pub completed: u64,
    /// First measured send (or due time) → last completion, ns.
    pub span_ns: u64,
    /// The measured interval's closed loop, cut into [`CLOSED_SLICES`]
    /// slices.
    pub slices: Vec<Slice>,
    /// One latency per (message, process), ascending, ns: hand-off to
    /// `send_command` (closed loop) or due time (open loop) → that
    /// process's a-delivery, both on the harness clock.
    pub latencies_ns: Vec<u64>,
    /// Per-layer thread usage over the measured interval.
    pub usage: RoleUsage,
    /// Open loop: how late each send ran behind its due time, ns.
    pub late_ns: Vec<u64>,
    /// |offset calibrated in warm-up − offset recalibrated while
    /// measuring|: how far the two clocks' alignment can be trusted.
    pub clock_offset_err_ns: u64,
    /// Median latency over the fault phase's samples; 0 without a fault.
    pub fault_phase_p50_ms: f64,
    /// Longest gap between consecutive a-deliveries at a majority process
    /// inside the fault window; 0 without a fault.
    pub fault_stall_ms: f64,
    /// Heal → the isolated process has a-delivered everything the
    /// majority had at heal; 0 without a fault.
    pub heal_catchup_ms: f64,
    pub links_severed: u64,
    pub reconnects: u64,
}

impl Epoch {
    /// Completed messages per second of measured wall time.
    pub fn throughput_msgs_s(&self) -> f64 {
        self.completed as f64 / (self.span_ns as f64 / 1e9)
    }

    /// `total` per completed message.
    pub fn per_msg(&self, total: u64) -> f64 {
        total as f64 / self.completed as f64
    }

    /// `total_ns` per completed message, µs.
    pub fn per_msg_us(&self, total_ns: u64) -> f64 {
        self.per_msg(total_ns) / 1e3
    }

    /// The `q`-quantile of this epoch's latency samples, ms.
    pub fn latency_quantile_ms(&self, q: f64) -> f64 {
        quantile_sorted(&self.latencies_ns, q) as f64 / 1e6
    }
}

/// One a-delivery: which message slot, where, and the cluster-clock time
/// the node thread stamped on it.
struct Delivery {
    slot: u32,
    process: u8,
    at_ns: u64,
}

struct Driver<'g, N: Node>
where
    N::Msg: Encode,
{
    cluster: TcpCluster<N>,
    n: usize,
    gen: &'g mut Generator,
    oracle: Oracle,
    /// Harness instant everything in this epoch is measured from.
    h0: Instant,
    /// Index of this cluster's first message.
    first_index: u64,
    /// Per slot: send instant (closed loop) or due time (open), ns since `h0`.
    sent_ns: Vec<u64>,
    /// Per slot: a-deliveries still missing.
    missing: Vec<u8>,
    in_flight: usize,
    completed: u64,
    last_completion_ns: u64,
    /// Messages per slice, and the completion count slicing started at;
    /// `u64::MAX` while nothing is being sliced (set-up, warm-up).
    slice_len: u64,
    slice_base: u64,
    /// Receive instant of the completion that closed each slice.
    slice_ends_ns: Vec<u64>,
    last_send: Instant,
    deliveries: Vec<Delivery>,
    /// min(receive instant − `NetOutput.at`) seen so far, ns since `h0`:
    /// an upper bound on (cluster epoch − `h0`), tight to within the
    /// output channel's transit time.
    clock_offset_ns: u64,
    /// `clock_offset_ns` as calibrated during warm-up: what puts the
    /// measured interval's `NetOutput.at` on the harness clock.
    warm_offset_ns: u64,
}

impl<N> Driver<'_, N>
where
    N: Node<Command = AbcastCommand, Output = AbcastEvent> + Send + 'static,
    N::Msg: Encode + Decode + Send,
{
    fn now_ns(&self) -> u64 {
        self.h0.elapsed().as_nanos() as u64
    }

    /// Generates and hands the next message to the cluster. `stamp_ns` is
    /// what latency is measured from; `None` stamps the hand-off instant.
    fn send(&mut self, stamp_ns: Option<u64>) {
        let (_, sender, payload) = self.gen.next_message();
        let now = Instant::now();
        self.sent_ns
            .push(stamp_ns.unwrap_or_else(|| (now - self.h0).as_nanos() as u64));
        // n <= 3.
        self.missing.push(self.n as u8);
        self.in_flight += 1;
        self.last_send = now;
        self.cluster
            .send_command(sender, AbcastCommand::Broadcast(payload));
    }

    /// Blocks for at most `timeout` for one output and accounts for it.
    /// Returns `false` on timeout.
    fn absorb_one(&mut self, timeout: Duration) -> Result<bool, String> {
        let Some(out) = self.cluster.wait_for_outputs(1, timeout).pop() else {
            return Ok(false);
        };
        let recv_ns = self.now_ns();
        let NetOutput {
            at,
            process,
            output,
        } = out;
        let AbcastEvent::Delivered { msg } = output else {
            return Ok(true); // the sender's Broadcast { id } acknowledgement
        };
        let index = self.oracle.on_deliver(self.gen, process, &msg)?;
        let at_ns = at.as_nanos();
        self.clock_offset_ns = self.clock_offset_ns.min(recv_ns.saturating_sub(at_ns));
        // The oracle checked index >= first_index.
        let slot = (index - self.first_index) as usize;
        self.deliveries.push(Delivery {
            slot: slot as u32,
            process: process.index() as u8,
            at_ns,
        });
        self.missing[slot] -= 1;
        if self.missing[slot] == 0 {
            self.in_flight -= 1;
            self.completed += 1;
            self.last_completion_ns = recv_ns;
            if (self.completed - self.slice_base).is_multiple_of(self.slice_len) {
                self.slice_ends_ns.push(recv_ns);
            }
        }
        Ok(true)
    }

    /// Absorbs outputs until nothing is in flight, or until
    /// [`COMPLETION_TIMEOUT`] after the last send.
    fn drain(&mut self) -> Result<(), String> {
        while self.in_flight > 0 {
            let deadline = self.last_send + COMPLETION_TIMEOUT;
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() || !self.absorb_one(left)? {
                break;
            }
        }
        Ok(())
    }

    /// Closed loop: `count` messages, `outstanding` in flight.
    fn closed(&mut self, count: u64, outstanding: usize) -> Result<(), String> {
        let mut sent = 0;
        while sent < count {
            if self.in_flight < outstanding {
                self.send(None);
                sent += 1;
            } else if !self.absorb_one(COMPLETION_TIMEOUT)? {
                return Ok(()); // wedged: what is in flight has failed
            }
        }
        self.drain()
    }

    /// Hand-off to `send_command` (closed loop) or due time (open loop) →
    /// the a-delivery, both on the harness clock.
    fn latency_ns(&self, dl: &Delivery) -> u64 {
        (dl.at_ns + self.warm_offset_ns).saturating_sub(self.sent_ns[dl.slot as usize])
    }

    /// [`Self::closed`], cut into [`CLOSED_SLICES`] slices. Nothing may be
    /// in flight when it starts.
    fn sliced_closed(&mut self, count: u64, outstanding: usize) -> Result<Vec<Slice>, String> {
        let first_slot = self.sent_ns.len();
        let first_delivery = self.deliveries.len();
        let slice_len = count / CLOSED_SLICES;
        self.slice_len = slice_len;
        self.slice_base = self.completed;
        self.slice_ends_ns.clear();
        let mut slice_start_ns = self.now_ns();
        self.closed(count, outstanding)?;
        self.slice_len = u64::MAX;

        let mut by_slice: Vec<Vec<u64>> = vec![Vec::new(); self.slice_ends_ns.len()];
        for dl in &self.deliveries[first_delivery..] {
            // A message belongs to the slice its send order puts it in.
            let slice = (dl.slot as usize - first_slot) / slice_len as usize;
            if let Some(samples) = by_slice.get_mut(slice) {
                samples.push(self.latency_ns(dl));
            }
        }
        let mut slices = Vec::with_capacity(by_slice.len());
        for (samples, &end_ns) in by_slice.iter_mut().zip(&self.slice_ends_ns) {
            samples.sort_unstable();
            slices.push(Slice {
                throughput_msgs_s: slice_len as f64
                    / (end_ns.saturating_sub(slice_start_ns) as f64 / 1e9),
                p50_ms: quantile_sorted(samples, 0.50) as f64 / 1e6,
                p99_ms: quantile_sorted(samples, 0.99) as f64 / 1e6,
            });
            slice_start_ns = end_ns;
        }
        Ok(slices)
    }

    /// Open loop: message `i` is due at `start_ns + i / rate` and is sent
    /// then, whatever the cluster is doing. Returns each send's lateness.
    fn open(&mut self, count: u64, rate: f64, start_ns: u64) -> Result<Vec<u64>, String> {
        let mut late = Vec::with_capacity(count as usize);
        for i in 0..count {
            let due_ns = start_ns + (i as f64 * 1e9 / rate) as u64;
            loop {
                let now_ns = self.now_ns();
                if now_ns >= due_ns {
                    late.push(now_ns - due_ns);
                    break;
                }
                self.absorb_one(Duration::from_nanos(due_ns - now_ns))?;
            }
            self.send(Some(due_ns));
        }
        self.drain()?;
        Ok(late)
    }
}

/// Starts a fresh `n`-process cluster of `factory`'s nodes, warms it up,
/// runs `load` on it (or nothing, when `load` is `None`: a set-up-only
/// cycle), checks the oracle, and tears it down.
pub fn run_epoch<N>(
    n: usize,
    load: Option<Load>,
    factory: impl FnMut(ProcessId) -> N,
    gen: &mut Generator,
) -> Result<Epoch, String>
where
    N: Node<Command = AbcastCommand, Output = AbcastEvent> + Send + 'static,
    N::Msg: Encode + Decode + Send,
{
    // Cluster-clock fault window.
    let window = match load {
        Some(Load::Open {
            isolate: (from, until),
            ..
        }) => Some((OPEN_LOOP_START + from, OPEN_LOOP_START + until)),
        _ => None,
    };
    let plan = window.map(|(from, until)| {
        NetFaultPlan::new(gen.generated()).isolate(ProcessId::new(0), n, from.into(), until.into())
    });

    let oracle = Oracle::new(n, gen);
    let first_index = gen.generated();
    let h0 = Instant::now();
    let cluster = TcpCluster::start_with_faults(n, plan, factory);
    let mut d = Driver {
        cluster,
        n,
        gen,
        oracle,
        h0,
        first_index,
        sent_ns: Vec::new(),
        missing: Vec::new(),
        in_flight: 0,
        completed: 0,
        last_completion_ns: 0,
        slice_len: u64::MAX,
        slice_base: 0,
        slice_ends_ns: Vec::new(),
        last_send: h0,
        deliveries: Vec::new(),
        clock_offset_ns: u64::MAX,
        warm_offset_ns: 0,
    };

    let result = measure(&mut d, load, window);
    let reports = d.cluster.fault_reports();
    d.cluster.shutdown();
    let mut epoch = result?;
    d.oracle.finish()?;
    epoch.links_severed = reports.iter().map(|r| r.links_severed).sum();
    epoch.reconnects = reports.iter().map(|r| r.reconnects).sum();
    Ok(epoch)
}

fn measure<N>(
    d: &mut Driver<'_, N>,
    load: Option<Load>,
    window: Option<(Duration, Duration)>,
) -> Result<Epoch, String>
where
    N: Node<Command = AbcastCommand, Output = AbcastEvent> + Send + 'static,
    N::Msg: Encode + Decode + Send,
{
    let mut epoch = Epoch::default();

    // The cluster is up when the first message is through the whole stack.
    d.closed(1, 1)?;
    if d.completed != 1 {
        return Err("the first warm-up message was never a-delivered everywhere".into());
    }
    epoch.start_s = d.h0.elapsed().as_secs_f64();
    let Some(load) = load else {
        return Ok(epoch);
    };

    let depth = match load {
        Load::Closed { outstanding, .. } => outstanding,
        Load::Open {
            healed_outstanding, ..
        } => healed_outstanding,
    };
    d.closed(WARMUP_MSGS - 1, depth)?;
    if d.completed != WARMUP_MSGS {
        return Err(format!(
            "warm-up wedged at {} of {WARMUP_MSGS} messages",
            d.completed
        ));
    }
    epoch.ready_s = d.h0.elapsed().as_secs_f64();
    d.warm_offset_ns = d.clock_offset_ns;
    d.clock_offset_ns = u64::MAX;
    let first_slot = d.sent_ns.len();
    let first_delivery = d.deliveries.len();

    let before = Snapshot::take();
    let start_ns;
    match load {
        Load::Closed { outstanding, count } => {
            start_ns = d.now_ns();
            epoch.slices = d.sliced_closed(count, outstanding)?;
        }
        Load::Open {
            rate,
            count,
            healed_outstanding,
            healed_count,
            ..
        } => {
            start_ns = d.warm_offset_ns + OPEN_LOOP_START.as_nanos() as u64;
            epoch.late_ns = d.open(count, rate, start_ns)?;
            let mut fault_phase: Vec<u64> = d.deliveries[first_delivery..]
                .iter()
                .map(|dl| d.latency_ns(dl))
                .collect();
            fault_phase.sort_unstable();
            epoch.fault_phase_p50_ms = quantile_sorted(&fault_phase, 0.50) as f64 / 1e6;
            // A cluster that did not heal has failed what is in flight;
            // a closed loop on top of it would only wait for time-outs.
            if d.in_flight == 0 {
                epoch.slices = d.sliced_closed(healed_count, healed_outstanding)?;
            }
        }
    }
    epoch.usage = Snapshot::take().since(&before);

    epoch.attempted = (d.sent_ns.len() - first_slot) as u64;
    epoch.completed = d.completed - WARMUP_MSGS;
    epoch.span_ns = d.last_completion_ns.saturating_sub(start_ns);
    epoch.clock_offset_err_ns = d.warm_offset_ns.abs_diff(d.clock_offset_ns);
    let measured = &d.deliveries[first_delivery..];
    epoch.latencies_ns = measured.iter().map(|dl| d.latency_ns(dl)).collect();
    epoch.latencies_ns.sort_unstable();
    if let Some((from, until)) = window {
        let (from, until) = (from.as_nanos() as u64, until.as_nanos() as u64);
        epoch.fault_stall_ms = fault_stall_ns(measured, from, until) as f64 / 1e6;
        epoch.heal_catchup_ms = heal_catchup_ns(measured, until) as f64 / 1e6;
    }
    Ok(epoch)
}

/// Longest interval inside `[from, until]` (cluster clock) during which a
/// process of the connected majority (processes 1 and 2) a-delivered
/// nothing; the worse of the two.
fn fault_stall_ns(deliveries: &[Delivery], from: u64, until: u64) -> u64 {
    let stall_at = |p: u8| {
        // One node thread stamps a process's deliveries, so they are in
        // `at` order.
        let mut last = from;
        let mut longest = 0;
        for d in deliveries
            .iter()
            .filter(|d| d.process == p && d.at_ns >= from && d.at_ns <= until)
        {
            longest = longest.max(d.at_ns - last);
            last = d.at_ns;
        }
        longest.max(until - last)
    };
    stall_at(1).max(stall_at(2))
}

/// Heal instant → process 0 has a-delivered as many messages as the
/// further-ahead majority process had at the heal instant.
fn heal_catchup_ns(deliveries: &[Delivery], heal: u64) -> u64 {
    let frontier = (1..=2u8)
        .map(|p| {
            deliveries
                .iter()
                .filter(|d| d.process == p && d.at_ns <= heal)
                .count()
        })
        .max()
        .unwrap_or(0);
    deliveries
        .iter()
        .filter(|d| d.process == 0)
        .nth(frontier.saturating_sub(1))
        .map_or(0, |d| d.at_ns.saturating_sub(heal))
}

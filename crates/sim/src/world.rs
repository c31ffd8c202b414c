//! The simulation world: nodes, resources, event loop.

use iabc_runtime::{Driver, Effects, Node, TimerId};
use iabc_types::{Duration, ProcessId, Time, TrafficClass, WireSize};

use crate::faults::{FaultPlan, FaultTraceEntry, LinkFault, LinkFaults};
use crate::network::NetworkParams;
use crate::queue::EventQueue;
use crate::resource::{ClassedResource, FifoResource};

/// Why a `run_*` call returned.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StopReason {
    /// No events remain — the system is quiescent.
    Quiescent,
    /// The requested time horizon was reached with events still pending.
    TimeLimitReached,
    /// The event budget was exhausted (safety valve against livelock bugs).
    EventLimitReached,
}

/// An application output produced by some process at some time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OutputRecord<O> {
    /// When the output was produced (virtual time).
    pub at: Time,
    /// The producing process.
    pub process: ProcessId,
    /// The output value.
    pub output: O,
}

/// Internal pipeline events. `M` is the node message type, `C` the command
/// type. Message events carry the precomputed wire size so `wire_size()` is
/// evaluated once per send.
enum SimEvent<M, C> {
    Command { p: ProcessId, cmd: C },
    /// Sender CPU finished serializing; message enters the sender NIC.
    SendCpuDone { from: ProcessId, to: ProcessId, bytes: usize, msg: M },
    /// Frame left the sender NIC; starts propagating.
    TxDone { from: ProcessId, to: ProcessId, bytes: usize, msg: M },
    /// Frame reached the receiver NIC port.
    RxArrive { from: ProcessId, to: ProcessId, bytes: usize, msg: M },
    /// Frame fully received; enters receiver CPU.
    RxDone { from: ProcessId, to: ProcessId, bytes: usize, msg: M },
    /// Receiver CPU finished processing; deliver to the node.
    RecvCpuDone { from: ProcessId, to: ProcessId, msg: M },
    /// Carries the process's timer epoch at arming time: timers armed
    /// before a crash must not fire into the replacement node.
    TimerFired { p: ProcessId, timer: TimerId, epoch: u64 },
    Crash { p: ProcessId },
    /// Swap in the pre-built replacement node and call its `on_start`
    /// (crash-recovery; see [`SimWorld::schedule_restart`]).
    Restart { p: ProcessId },
    /// A classed resource finished its in-service job and may start the
    /// next queued one (priority-lane mode only; see [`HostRes`]).
    ResourceFree { p: ProcessId, kind: ResKind },
}

/// Which of a host's three servers a job or a [`SimEvent::ResourceFree`]
/// refers to; also its index in [`Host::res`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ResKind {
    Cpu,
    NicTx,
    NicRx,
}

/// A queued job's payload in priority-lane mode: the event to fire when
/// service completes. `None` models fire-and-forget CPU work
/// ([`Action::Work`](iabc_runtime::Action::Work)).
type DeferredJob<M, C> = Option<SimEvent<M, C>>;

/// One server of a simulated host: the paper's single-class FIFO model, or
/// the two-class priority server of the traffic-lane refactor.
///
/// The FIFO arm computes completion times analytically at submission —
/// exactly the seed behaviour, preserved bit-for-bit (same events pushed in
/// the same order) so the paper-figure bins and the pinned bench baselines
/// are untouched when the lane is off. The classed arm holds queued jobs
/// and re-schedules itself through [`SimEvent::ResourceFree`] events (see
/// [`Host::submit`] and [`Host::on_free`]).
enum HostRes<M, C> {
    Fifo(FifoResource),
    Classed(ClassedResource<DeferredJob<M, C>>),
}

/// Predicate deciding whether a remote message is silently lost
/// (see [`SimWorld::set_drop_filter`]).
pub type DropFilter<M> = Box<dyn FnMut(ProcessId, ProcessId, &M) -> bool>;

/// Aggregate counters of a finished (or paused) run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SimStats {
    /// Events processed so far; each self-delivery counts as one.
    pub events: u64,
    /// Remote frames: `Send`s to another process that passed the drop
    /// filter. Self-sends never reach the host (the node's driver
    /// delivers them), so they are not counted.
    pub messages_sent: u64,
    /// Messages removed by the drop filter.
    pub messages_dropped: u64,
    /// Messages lost because their sender crashed mid-pipeline.
    pub messages_lost_to_crash: u64,
    /// Frames held by an open partition window until it closed (link
    /// faults).
    pub frames_partitioned: u64,
    /// Frames dropped by the lossy-link probability (link faults).
    pub frames_fault_dropped: u64,
    /// Frames delivered twice by the duplication probability (link faults).
    pub frames_duplicated: u64,
    /// Frames delivered late (extra delay or reorder hold-back; link faults).
    pub frames_delayed: u64,
    /// Per-process CPU busy time.
    pub cpu_busy: Vec<Duration>,
    /// Per-process CPU busy time attributable to [`TrafficClass::Ordering`]
    /// messages (consensus/FD frames and protocol bookkeeping).
    pub cpu_ordering_busy: Vec<Duration>,
    /// Per-process CPU busy time attributable to [`TrafficClass::Bulk`]
    /// messages (payload dissemination).
    pub cpu_bulk_busy: Vec<Duration>,
}

/// Builder for [`SimWorld`].
///
/// # Example
///
/// See the [crate-level documentation](crate) for a complete example.
pub struct SimBuilder {
    n: usize,
    params: NetworkParams,
    faults: FaultPlan,
    max_events: u64,
    priority_lane: bool,
}

impl SimBuilder {
    /// Starts configuring a world of `n` processes on the given network.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` or `n > 64`.
    pub fn new(n: usize, params: NetworkParams) -> Self {
        assert!((1..=64).contains(&n), "need 1 ≤ n ≤ 64 processes, got {n}");
        SimBuilder {
            n,
            params,
            faults: FaultPlan::none(),
            max_events: 200_000_000,
            priority_lane: false,
        }
    }

    /// Installs a fault plan (scheduled crashes).
    pub fn faults(mut self, plan: FaultPlan) -> Self {
        self.faults = plan;
        self
    }

    /// Sets the event budget after which runs abort with
    /// [`StopReason::EventLimitReached`].
    pub fn max_events(mut self, limit: u64) -> Self {
        self.max_events = limit;
        self
    }

    /// Selects the host model: `false` (default) is the paper's
    /// single-class FIFO servers, bit-for-bit the seed behaviour; `true`
    /// replaces every CPU and NIC port with a two-class
    /// [`ClassedResource`] that serves [`TrafficClass::Ordering`] messages
    /// ahead of queued [`TrafficClass::Bulk`] payloads.
    pub fn priority_lane(mut self, on: bool) -> Self {
        self.priority_lane = on;
        self
    }

    /// Builds the world, creating one node per process with `factory`.
    pub fn build<N, F>(self, mut factory: F) -> SimWorld<N>
    where
        N: Node,
        F: FnMut(ProcessId) -> N,
    {
        let drivers = ProcessId::all(self.n).map(|p| Driver::new(p, self.n, factory(p))).collect();
        let server = || -> HostRes<N::Msg, N::Command> {
            if self.priority_lane {
                HostRes::Classed(ClassedResource::new())
            } else {
                HostRes::Fifo(FifoResource::new())
            }
        };
        let mut world = SimWorld {
            link_faults: self.faults.links.clone(),
            drivers,
            replacements: (0..self.n).map(|_| None).collect(),
            crashed: vec![false; self.n],
            priority_lane: self.priority_lane,
            host: Host {
                params: self.params,
                epoch: vec![0; self.n],
                res: (0..self.n).map(|_| [server(), server(), server()]).collect(),
                queue: EventQueue::new(),
                now: Time::ZERO,
                outputs: Vec::new(),
                drop_filter: None,
                stats: SimStats {
                    cpu_busy: vec![Duration::ZERO; self.n],
                    cpu_ordering_busy: vec![Duration::ZERO; self.n],
                    cpu_bulk_busy: vec![Duration::ZERO; self.n],
                    ..SimStats::default()
                },
                max_events: self.max_events,
            },
            started: false,
        };
        for &(p, at) in self.faults.crashes.crashes() {
            world.schedule_crash(p, at);
        }
        // Restarting processes reboot with empty volatile state: the
        // factory runs again, so anything the test wants to survive must
        // live outside the node (e.g. a durable decided log on disk).
        for &(p, at) in self.faults.crashes.restarts() {
            let node = factory(p);
            world.schedule_restart(p, at, node);
        }
        world
    }
}

/// A deterministic simulated execution of `n` copies of a protocol stack.
///
/// Drive it with [`SimWorld::run_to_quiescence`] or [`SimWorld::run_until`];
/// inject application commands with [`SimWorld::schedule_command`]; inspect
/// results via [`SimWorld::outputs`] and [`SimWorld::stats`].
pub struct SimWorld<N: Node> {
    /// Link-fault layer, if the plan configured one. `None` keeps the
    /// `TxDone → RxArrive` edge bit-for-bit the fault-free behaviour.
    link_faults: Option<LinkFaults>,
    /// One per process: every handler call goes through it.
    drivers: Vec<Driver<N>>,
    /// Pre-built replacement nodes, consumed by [`SimEvent::Restart`].
    replacements: Vec<Option<N>>,
    crashed: Vec<bool>,
    priority_lane: bool,
    host: Host<N>,
    started: bool,
}

/// The part of the world a handler's effects reach: the clock, the event
/// queue, the servers, the outputs and the counters.
struct Host<N: Node> {
    params: NetworkParams,
    /// Per-process timer epoch, bumped at restart: timers armed by the
    /// crashed incarnation must not fire into the replacement node.
    epoch: Vec<u64>,
    /// Each process's CPU, NIC(tx) and NIC(rx), indexed by [`ResKind`].
    res: Vec<[HostRes<N::Msg, N::Command>; 3]>,
    queue: EventQueue<SimEvent<N::Msg, N::Command>>,
    now: Time,
    outputs: Vec<OutputRecord<N::Output>>,
    drop_filter: Option<DropFilter<N::Msg>>,
    stats: SimStats,
    max_events: u64,
}

impl<N: Node> Host<N> {
    /// The effects of a handler running on process `p`.
    fn at(&mut self, p: ProcessId) -> HostAt<'_, N> {
        HostAt { p, host: self }
    }

    /// Queues `dur` of service on `p`'s `kind` server, firing `ev` when it
    /// completes; CPU time also lands in the aggregate and per-class stats.
    /// A FIFO server pushes the completion at the analytically computed
    /// time; a classed one starts the job now or holds it in its class
    /// queue until a `ResourceFree` pops it.
    fn submit(
        &mut self,
        p: ProcessId,
        kind: ResKind,
        class: TrafficClass,
        dur: Duration,
        ev: DeferredJob<N::Msg, N::Command>,
    ) {
        let pi = p.as_usize();
        if kind == ResKind::Cpu {
            self.stats.cpu_busy[pi] += dur;
            match class {
                TrafficClass::Ordering => self.stats.cpu_ordering_busy[pi] += dur,
                TrafficClass::Bulk => self.stats.cpu_bulk_busy[pi] += dur,
            }
        }
        match &mut self.res[pi][kind as usize] {
            HostRes::Fifo(r) => {
                let done = r.acquire(self.now, dur);
                if let Some(ev) = ev {
                    self.queue.push(done, ev);
                }
            }
            HostRes::Classed(r) => match r.try_start(self.now, class, dur) {
                Some(done) => self.started(p, kind, done, ev),
                None => r.enqueue(class, dur, ev),
            },
        }
    }

    /// Handles a `ResourceFree` of `p`'s `kind` server: start the next
    /// queued job under the priority discipline.
    ///
    /// A `ResourceFree` can be stale: a completion event at the same
    /// instant may have `try_start`ed a fresh job before this fires (the
    /// completion is pushed first, so it runs first). Popping then would
    /// commit a queued job one service slot early — before the in-service
    /// job's own wake-up at `busy_until` — freezing the class choice too
    /// soon, so an ordering frame arriving meanwhile could no longer
    /// overtake it. Stale wake-ups must no-op; every started job schedules
    /// its own `ResourceFree` at its true completion.
    fn on_free(&mut self, p: ProcessId, kind: ResKind) {
        if let HostRes::Classed(r) = &mut self.res[p.as_usize()][kind as usize] {
            if self.now < r.busy_until() {
                return; // stale: the in-service job's wake-up will pop
            }
            if let Some((done, ev)) = r.pop_next(self.now) {
                self.started(p, kind, done, ev);
            }
        }
    }

    /// A classed job started: its completion event, then the server's
    /// wake-up for the next one.
    fn started(&mut self, p: ProcessId, kind: ResKind, done: Time, ev: DeferredJob<N::Msg, N::Command>) {
        if let Some(ev) = ev {
            self.queue.push(done, ev);
        }
        self.queue.push(done, SimEvent::ResourceFree { p, kind });
    }
}

/// [`Host`] as the effects of one process's handlers.
struct HostAt<'a, N: Node> {
    p: ProcessId,
    host: &'a mut Host<N>,
}

impl<N: Node> Effects<N::Msg, N::Output> for HostAt<'_, N> {
    fn now(&mut self) -> Time {
        self.host.now
    }

    fn send(&mut self, to: ProcessId, msg: N::Msg) {
        let (p, host) = (self.p, &mut *self.host);
        if let Some(filter) = &mut host.drop_filter {
            if filter(p, to, &msg) {
                host.stats.messages_dropped += 1;
                return;
            }
        }
        host.stats.messages_sent += 1;
        let bytes = msg.wire_size();
        let (class, cost) = (msg.traffic_class(), host.params.send_cpu(bytes));
        host.submit(p, ResKind::Cpu, class, cost, Some(SimEvent::SendCpuDone { from: p, to, bytes, msg }));
    }

    fn set_timer(&mut self, at: Time, timer: TimerId) {
        let epoch = self.host.epoch[self.p.as_usize()];
        self.host.queue.push(at, SimEvent::TimerFired { p: self.p, timer, epoch });
    }

    fn work(&mut self, duration: Duration) {
        // Protocol bookkeeping (rcv checks, propose/order costs) belongs
        // to the ordering path.
        self.host.submit(self.p, ResKind::Cpu, TrafficClass::Ordering, duration, None);
    }

    fn output(&mut self, output: N::Output) {
        self.host.outputs.push(OutputRecord { at: self.host.now, process: self.p, output });
    }

    /// A self-delivery is an event: it counts against the budget, which
    /// is what stops a node that self-sends forever.
    fn admit_self_delivery(&mut self) -> bool {
        let stats = &mut self.host.stats;
        if stats.events >= self.host.max_events {
            return false;
        }
        stats.events += 1;
        true
    }
}

impl<N: Node> SimWorld<N> {
    /// Number of processes.
    pub fn n(&self) -> usize {
        self.drivers.len()
    }

    /// Current virtual time.
    pub fn now(&self) -> Time {
        self.host.now
    }

    /// Whether hosts run the two-class priority lane (see
    /// [`SimBuilder::priority_lane`]).
    pub fn priority_lane(&self) -> bool {
        self.priority_lane
    }

    /// Read access to a node's protocol state (for tests and probes).
    pub fn node(&self, p: ProcessId) -> &N {
        self.drivers[p.as_usize()].node()
    }

    /// All outputs produced so far, in production order.
    pub fn outputs(&self) -> &[OutputRecord<N::Output>] {
        &self.host.outputs
    }

    /// Removes and returns all outputs produced so far.
    pub fn drain_outputs(&mut self) -> Vec<OutputRecord<N::Output>> {
        std::mem::take(&mut self.host.outputs)
    }

    /// Run counters and resource utilization.
    pub fn stats(&self) -> &SimStats {
        &self.host.stats
    }

    /// The injected-fault trace, if the plan's [`LinkFaults`] enabled
    /// [`LinkFaults::record_trace`]. `None` when no link faults are
    /// installed or tracing is off.
    pub fn fault_trace(&self) -> Option<&[FaultTraceEntry]> {
        self.link_faults.as_ref().and_then(|lf| lf.trace())
    }

    /// Schedules an application command for process `p` at time `at`.
    ///
    /// # Panics
    ///
    /// Panics if `at` is in the past.
    pub fn schedule_command(&mut self, p: ProcessId, at: Time, cmd: N::Command) {
        assert!(at >= self.host.now, "cannot schedule a command in the past");
        self.host.queue.push(at, SimEvent::Command { p, cmd });
    }

    /// Schedules a crash of process `p` at time `at`.
    ///
    /// From `at` on, `p` processes no events; messages still queued inside
    /// `p`'s host (CPU, NIC) are lost — the quasi-reliable channel model.
    ///
    /// # Panics
    ///
    /// Panics if `at` is in the past.
    fn schedule_crash(&mut self, p: ProcessId, at: Time) {
        assert!(at >= self.host.now, "cannot schedule a crash in the past");
        self.host.queue.push(at, SimEvent::Crash { p });
    }

    /// Schedules a restart of process `p` at time `at`, replacing its node
    /// with `node` (built fresh by the caller — volatile state is lost;
    /// durable state is whatever `node`'s construction recovers, e.g. a
    /// reopened decided log). The replacement's `on_start` runs at `at`;
    /// timers armed by the crashed incarnation never reach it.
    ///
    /// The restart is a no-op if `p` is not crashed when `at` arrives.
    ///
    /// # Panics
    ///
    /// Panics if `at` is in the past or if `p` already has a pending
    /// replacement.
    fn schedule_restart(&mut self, p: ProcessId, at: Time, node: N) {
        assert!(at >= self.host.now, "cannot schedule a restart in the past");
        let slot = &mut self.replacements[p.as_usize()];
        assert!(slot.is_none(), "process {p} already has a pending restart");
        *slot = Some(node);
        self.host.queue.push(at, SimEvent::Restart { p });
    }

    /// Installs a message drop filter: any remote `Send` whose
    /// `(from, to, msg)` the filter maps to `true` is silently lost.
    /// Self-sends never leave the process, so the filter never sees them.
    ///
    /// This models quasi-reliable channels under crashes — use it only to
    /// drop messages whose sender crashes in the same run (the integration
    /// tests reproducing §2.2 of the paper do exactly that) or to stress
    /// safety under adversarial schedules.
    pub fn set_drop_filter(&mut self, filter: DropFilter<N::Msg>) {
        self.host.drop_filter = Some(filter);
    }

    /// Runs until no events remain, the time horizon `until` is passed, or
    /// the event budget is exhausted. The budget is checked first: a
    /// self-delivery chain it cut short leaves no event behind.
    pub fn run_until(&mut self, until: Time) -> StopReason {
        self.ensure_started();
        loop {
            if self.host.stats.events >= self.host.max_events {
                return StopReason::EventLimitReached;
            }
            match self.host.queue.peek_time() {
                None => return StopReason::Quiescent,
                Some(t) if t > until => {
                    self.host.now = until;
                    return StopReason::TimeLimitReached;
                }
                Some(_) => self.step(),
            }
        }
    }

    /// Runs until no events remain (or the event budget is exhausted).
    ///
    /// Note that stacks with periodic timers (heartbeat failure detectors)
    /// never go quiescent; use [`SimWorld::run_until`] for those.
    pub fn run_to_quiescence(&mut self) -> StopReason {
        self.run_until(Time::from_nanos(u64::MAX))
    }

    fn ensure_started(&mut self) {
        if self.started {
            return;
        }
        self.started = true;
        for p in ProcessId::all(self.n()) {
            self.drivers[p.as_usize()].on_start(&mut self.host.at(p));
        }
    }

    fn step(&mut self) {
        let Some((t, ev)) = self.host.queue.pop() else { return };
        debug_assert!(t >= self.host.now, "time went backwards");
        self.host.now = t;
        self.host.stats.events += 1;
        self.handle(ev);
    }

    fn handle(&mut self, ev: SimEvent<N::Msg, N::Command>) {
        match ev {
            SimEvent::Crash { p } => {
                self.crashed[p.as_usize()] = true;
            }
            SimEvent::Restart { p } => {
                let pi = p.as_usize();
                if !self.crashed[pi] {
                    return; // never crashed (or already restarted): no-op
                }
                let Some(node) = self.replacements[pi].take() else { return };
                self.crashed[pi] = false;
                // Invalidate every timer armed by the dead incarnation
                // *before* on_start, so the new node's own timers arm
                // under the fresh epoch.
                self.host.epoch[pi] += 1;
                self.drivers[pi] = Driver::new(p, self.n(), node);
                self.drivers[pi].on_start(&mut self.host.at(p));
            }
            SimEvent::Command { p, cmd } => {
                if self.alive(p) {
                    self.drivers[p.as_usize()].on_command(cmd, &mut self.host.at(p));
                }
            }
            SimEvent::TimerFired { p, timer, epoch } => {
                if self.alive(p) && epoch == self.host.epoch[p.as_usize()] {
                    self.drivers[p.as_usize()].on_timer(timer, &mut self.host.at(p));
                }
            }
            SimEvent::SendCpuDone { from, to, bytes, msg } => {
                if !self.alive(from) {
                    self.host.stats.messages_lost_to_crash += 1;
                    return;
                }
                let (class, tx) = (msg.traffic_class(), self.host.params.tx_time(bytes));
                self.host.submit(from, ResKind::NicTx, class, tx, Some(SimEvent::TxDone { from, to, bytes, msg }));
            }
            SimEvent::TxDone { from, to, bytes, msg } => {
                if !self.alive(from) {
                    self.host.stats.messages_lost_to_crash += 1;
                    return;
                }
                let mut arrive = self.host.now + self.host.params.propagation;
                if let Some(lf) = &mut self.link_faults {
                    match lf.judge(self.host.now, from, to) {
                        LinkFault::Pass => {}
                        LinkFault::Partitioned => {
                            // Held, as the sockets park a severed link's
                            // frames and replay them after the redial: it
                            // leaves as the window closes.
                            self.host.stats.frames_partitioned += 1;
                            arrive = lf.link_opens_at(self.host.now, from, to) + self.host.params.propagation;
                        }
                        LinkFault::Dropped => {
                            self.host.stats.frames_fault_dropped += 1;
                            return;
                        }
                        LinkFault::Duplicated => {
                            self.host.stats.frames_duplicated += 1;
                            let copy = msg.clone();
                            self.host.queue.push(
                                arrive,
                                SimEvent::RxArrive { from, to, bytes, msg: copy },
                            );
                        }
                        LinkFault::Delayed(extra) => {
                            self.host.stats.frames_delayed += 1;
                            arrive += extra;
                        }
                        LinkFault::Reordered => {
                            // One extra propagation slot: anything sent on
                            // this link within the next slot overtakes it.
                            self.host.stats.frames_delayed += 1;
                            arrive += self.host.params.propagation;
                        }
                    }
                }
                self.host.queue.push(arrive, SimEvent::RxArrive { from, to, bytes, msg });
            }
            SimEvent::RxArrive { from, to, bytes, msg } => {
                if !self.alive(to) {
                    return;
                }
                let (class, tx) = (msg.traffic_class(), self.host.params.tx_time(bytes));
                self.host.submit(to, ResKind::NicRx, class, tx, Some(SimEvent::RxDone { from, to, bytes, msg }));
            }
            SimEvent::RxDone { from, to, bytes, msg } => {
                if !self.alive(to) {
                    return;
                }
                let (class, cost) = (msg.traffic_class(), self.host.params.recv_cpu(bytes));
                self.host.submit(to, ResKind::Cpu, class, cost, Some(SimEvent::RecvCpuDone { from, to, msg }));
            }
            SimEvent::RecvCpuDone { from, to, msg } => {
                if !self.alive(to) {
                    return;
                }
                self.drivers[to.as_usize()].on_message(from, msg, &mut self.host.at(to));
            }
            SimEvent::ResourceFree { p, kind } => self.host.on_free(p, kind),
        }
    }

    fn alive(&self, p: ProcessId) -> bool {
        !self.crashed[p.as_usize()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use iabc_runtime::{Context, TimerId};

    /// One-byte test message.
    #[derive(Clone, Debug, PartialEq)]
    struct Byte(u8);
    impl WireSize for Byte {
        fn wire_size(&self) -> usize {
            1
        }
    }

    /// Test node: on command `k`, sends `Byte(k)` to everyone (self
    /// included); outputs every byte received.
    struct Fanout;
    impl Node for Fanout {
        type Msg = Byte;
        type Command = u8;
        type Output = (ProcessId, u8);

        fn on_command(&mut self, cmd: u8, ctx: &mut Context<Byte, (ProcessId, u8)>) {
            ctx.send_to_all(Byte(cmd));
        }

        fn on_message(&mut self, from: ProcessId, msg: Byte, ctx: &mut Context<Byte, (ProcessId, u8)>) {
            ctx.output((from, msg.0));
        }
    }

    fn p(i: u16) -> ProcessId {
        ProcessId::new(i)
    }

    #[test]
    fn fanout_reaches_all_processes_including_self() {
        let mut w = SimBuilder::new(3, NetworkParams::setup1()).build(|_| Fanout);
        w.schedule_command(p(0), Time::ZERO, 7);
        assert_eq!(w.run_to_quiescence(), StopReason::Quiescent);
        assert_eq!(w.outputs().len(), 3);
        for rec in w.outputs() {
            assert_eq!(rec.output, (p(0), 7));
        }
        // The self copy never leaves the process: it arrives at the
        // command's instant, the remote copies later.
        let self_rec = w.outputs().iter().find(|r| r.process == p(0)).unwrap();
        let remote_rec = w.outputs().iter().find(|r| r.process == p(1)).unwrap();
        assert_eq!(self_rec.at, Time::ZERO);
        assert!(self_rec.at < remote_rec.at);
    }

    #[test]
    fn a_self_send_is_delivered_at_its_handlers_instant_ahead_of_queued_events() {
        // Each command outputs its tag, then self-sends it; a delivery
        // outputs the tag again. Both commands are queued for the same
        // instant, so the first command's self-send must be delivered
        // before the second command runs, at that very instant.
        struct Tagger;
        impl Node for Tagger {
            type Msg = Byte;
            type Command = u8;
            type Output = u8;
            fn on_command(&mut self, cmd: u8, ctx: &mut Context<Byte, u8>) {
                ctx.output(cmd);
                ctx.send(ctx.me(), Byte(cmd + 100));
            }
            fn on_message(&mut self, _f: ProcessId, m: Byte, ctx: &mut Context<Byte, u8>) {
                ctx.output(m.0);
            }
        }
        let at = Time::ZERO + Duration::from_millis(1);
        let mut w = SimBuilder::new(2, NetworkParams::setup1()).build(|_| Tagger);
        w.schedule_command(p(0), at, 1);
        w.schedule_command(p(0), at, 2);
        w.run_to_quiescence();
        let got: Vec<(Time, u8)> = w.outputs().iter().map(|r| (r.at, r.output)).collect();
        assert_eq!(got, [(at, 1), (at, 101), (at, 2), (at, 102)]);
        assert_eq!(w.stats().messages_sent, 0, "self-sends are not frames");
    }

    #[test]
    fn identical_runs_produce_identical_traces() {
        let run = || {
            let mut w = SimBuilder::new(4, NetworkParams::setup1()).build(|_| Fanout);
            for i in 0..50u8 {
                let at = Time::ZERO + Duration::from_micros(i as u64 * 37);
                w.schedule_command(p(u16::from(i) % 4), at, i);
            }
            w.run_to_quiescence();
            w.drain_outputs()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn big_messages_take_longer_than_small_ones() {
        #[derive(Clone, Debug)]
        struct Sized(usize);
        impl WireSize for Sized {
            fn wire_size(&self) -> usize {
                self.0
            }
        }
        struct Sender;
        impl Node for Sender {
            type Msg = Sized;
            type Command = usize;
            type Output = usize;
            fn on_command(&mut self, size: usize, ctx: &mut Context<Sized, usize>) {
                ctx.send(ProcessId::new(1), Sized(size));
            }
            fn on_message(&mut self, _f: ProcessId, m: Sized, ctx: &mut Context<Sized, usize>) {
                ctx.output(m.0);
            }
        }
        let latency_of = |size: usize| {
            let mut w = SimBuilder::new(2, NetworkParams::setup1()).build(|_| Sender);
            w.schedule_command(p(0), Time::ZERO, size);
            w.run_to_quiescence();
            w.outputs()[0].at
        };
        assert!(latency_of(5000) > latency_of(10));
    }

    #[test]
    fn crashed_process_stops_processing() {
        let mut w = SimBuilder::new(3, NetworkParams::setup1()).build(|_| Fanout);
        w.schedule_crash(p(2), Time::ZERO + Duration::from_micros(1));
        // Command arrives after the crash: ignored.
        w.schedule_command(p(2), Time::ZERO + Duration::from_millis(1), 9);
        // A healthy process broadcasts; p2 must not deliver.
        w.schedule_command(p(0), Time::ZERO + Duration::from_millis(1), 5);
        w.run_to_quiescence();
        assert!(w.crashed[p(2).as_usize()]);
        assert!(w.outputs().iter().all(|r| r.process != p(2)));
        // p0 and p1 still delivered p0's fanout.
        assert_eq!(w.outputs().iter().filter(|r| r.output == (p(0), 5)).count(), 2);
    }

    #[test]
    fn crash_loses_messages_still_inside_the_host() {
        // p0 fans out and crashes immediately after the send action: the
        // remote copies are still in p0's CPU/NIC pipeline, so no peer
        // receives them. The self copy was delivered before the crash.
        let mut w = SimBuilder::new(3, NetworkParams::setup1()).build(|_| Fanout);
        w.schedule_command(p(0), Time::ZERO, 1);
        w.schedule_crash(p(0), Time::ZERO + Duration::from_nanos(1));
        w.run_to_quiescence();
        let receivers: Vec<_> = w.outputs().iter().map(|r| (r.process, r.at)).collect();
        assert_eq!(receivers, [(p(0), Time::ZERO)]);
        assert_eq!(w.stats().messages_lost_to_crash, 2);
    }

    #[test]
    fn restart_swaps_in_a_fresh_node_and_drops_stale_timers() {
        // A node that arms a long timer at start and outputs on fire; the
        // replacement must only see its own (epoch-fresh) timer.
        struct Epochal(u8);
        impl Node for Epochal {
            type Msg = Byte;
            type Command = u8;
            type Output = (u8, u64);
            fn on_start(&mut self, ctx: &mut Context<Byte, (u8, u64)>) {
                ctx.set_timer(Duration::from_millis(10), TimerId::new(1, u64::from(self.0)));
            }
            fn on_command(&mut self, cmd: u8, ctx: &mut Context<Byte, (u8, u64)>) {
                ctx.send_to_all(Byte(cmd));
            }
            fn on_message(&mut self, _f: ProcessId, m: Byte, ctx: &mut Context<Byte, (u8, u64)>) {
                ctx.output((self.0, u64::from(m.0)));
            }
            fn on_timer(&mut self, t: TimerId, ctx: &mut Context<Byte, (u8, u64)>) {
                ctx.output((self.0, t.data()));
            }
        }
        use crate::faults::CrashSchedule;
        let crash_at = Time::ZERO + Duration::from_millis(1);
        let restart_at = Time::ZERO + Duration::from_millis(5);
        let mut incarnation = 0u8;
        let mut w = SimBuilder::new(2, NetworkParams::setup1())
            .faults(FaultPlan::with_crashes(
                CrashSchedule::new().crash_restart(p(1), crash_at, restart_at),
            ))
            .build(|q| {
                // The factory runs once per process plus once for p1's
                // replacement; tag incarnations so outputs distinguish them.
                if q == p(1) {
                    incarnation += 1;
                    Epochal(incarnation)
                } else {
                    Epochal(0)
                }
            });
        // A fan-out after the restart reaches the *new* node.
        w.schedule_command(p(0), Time::ZERO + Duration::from_millis(8), 7);
        w.run_to_quiescence();
        assert!(!w.crashed[p(1).as_usize()]);
        let p1_outputs: Vec<(u8, u64)> = w
            .outputs()
            .iter()
            .filter(|r| r.process == p(1))
            .map(|r| r.output)
            .collect();
        // The crashed incarnation (1) armed its timer before dying: that
        // timer must NOT fire into incarnation 2. Incarnation 2's own
        // timer (data = 2) and the post-restart delivery both appear.
        assert!(p1_outputs.contains(&(2, 2)), "replacement's own timer fires");
        assert!(p1_outputs.contains(&(2, 7)), "replacement receives messages");
        assert!(
            p1_outputs.iter().all(|&(inc, _)| inc == 2),
            "no output may come from the dead incarnation: {p1_outputs:?}"
        );
    }

    #[test]
    fn partition_window_cuts_and_heals_a_link() {
        use crate::faults::LinkFaults;
        // p0 ↔ p2 partitioned for the first 5 ms: a fan-out at 1 ms reaches
        // p2 only when the window closes, ahead of the fan-out sent at that
        // instant; p1's link is untouched.
        let heal = Time::ZERO + Duration::from_millis(5);
        let links = LinkFaults::new(0).partition(p(0), p(2), Time::ZERO, heal);
        let net = NetworkParams::setup1();
        let mut w = SimBuilder::new(3, net.clone()).faults(FaultPlan::with_links(links)).build(|_| Fanout);
        w.schedule_command(p(0), Time::ZERO + Duration::from_millis(1), 1);
        w.schedule_command(p(0), heal, 2);
        w.run_to_quiescence();
        let at = |proc: ProcessId| -> Vec<(Time, u8)> {
            w.outputs().iter().filter(|r| r.process == proc).map(|r| (r.at, r.output.1)).collect()
        };
        let (p1, p2) = (at(p(1)), at(p(2)));
        assert_eq!(p1.iter().map(|&(_, b)| b).collect::<Vec<_>>(), [1, 2], "unaffected link delivers");
        assert!(p1[0].0 < heal);
        assert_eq!(p2.iter().map(|&(_, b)| b).collect::<Vec<_>>(), [1, 2], "the held frame goes first");
        // The held frame left p0's NIC inside the window; it arrives at the
        // close plus propagation, then p2 receives it.
        assert_eq!(p2[0].0, heal + net.propagation + net.tx_time(1) + net.recv_cpu(1));
        assert_eq!(w.stats().frames_partitioned, 1);
    }

    #[test]
    fn duplicated_frames_are_delivered_twice() {
        use crate::faults::LinkFaults;
        // 100% duplication: every remote delivery happens twice.
        let links = LinkFaults::new(0).duplicate(1000);
        let mut w = SimBuilder::new(2, NetworkParams::setup1())
            .faults(FaultPlan::with_links(links))
            .build(|_| Fanout);
        w.schedule_command(p(0), Time::ZERO, 9);
        w.run_to_quiescence();
        let remote = w.outputs().iter().filter(|r| r.process == p(1)).count();
        assert_eq!(remote, 2, "duplicate copy must arrive");
        assert_eq!(w.stats().frames_duplicated, 1);
    }

    #[test]
    fn empty_link_plan_changes_nothing() {
        use crate::faults::LinkFaults;
        let run = |links: Option<LinkFaults>| {
            let plan = match links {
                Some(l) => FaultPlan::with_links(l),
                None => FaultPlan::none(),
            };
            let mut w = SimBuilder::new(3, NetworkParams::setup1()).faults(plan).build(|_| Fanout);
            for i in 0..20u8 {
                let at = Time::ZERO + Duration::from_micros(u64::from(i) * 53);
                w.schedule_command(p(u16::from(i) % 3), at, i);
            }
            w.run_to_quiescence();
            w.drain_outputs()
        };
        // A LinkFaults with no faults configured must be bit-identical to
        // no fault layer at all (partitions consume no randomness; zero
        // probabilities skip the draw entirely).
        assert_eq!(run(None), run(Some(LinkFaults::new(123))));
    }

    #[test]
    fn delayed_frames_arrive_late_but_arrive() {
        use crate::faults::LinkFaults;
        let latency = |links: Option<LinkFaults>| {
            let plan = match links {
                Some(l) => FaultPlan::with_links(l),
                None => FaultPlan::none(),
            };
            let mut w = SimBuilder::new(2, NetworkParams::setup1()).faults(plan).build(|_| Fanout);
            w.schedule_command(p(0), Time::ZERO, 1);
            w.run_to_quiescence();
            w.outputs().iter().find(|r| r.process == p(1)).map(|r| r.at).unwrap()
        };
        let base = latency(None);
        let delayed = latency(Some(
            LinkFaults::new(0).delay(1000, Duration::from_millis(3)),
        ));
        assert!(delayed > base, "delayed {delayed} vs base {base}");
        assert!(delayed <= base + Duration::from_millis(3));
    }

    #[test]
    fn drop_filter_removes_selected_messages() {
        let mut w = SimBuilder::new(3, NetworkParams::setup1()).build(|_| Fanout);
        // Drop everything p0 sends to p2.
        w.set_drop_filter(Box::new(|from, to, _m| from == p(0) && to == p(2)));
        w.schedule_command(p(0), Time::ZERO, 3);
        w.run_to_quiescence();
        let receivers: Vec<_> = w.outputs().iter().map(|r| r.process).collect();
        assert!(receivers.contains(&p(0)));
        assert!(receivers.contains(&p(1)));
        assert!(!receivers.contains(&p(2)));
        assert_eq!(w.stats().messages_dropped, 1);
    }

    #[test]
    fn run_until_respects_horizon() {
        let mut w = SimBuilder::new(2, NetworkParams::setup1()).build(|_| Fanout);
        let late = Time::ZERO + Duration::from_secs(10);
        w.schedule_command(p(0), late, 1);
        let r = w.run_until(Time::ZERO + Duration::from_secs(1));
        assert_eq!(r, StopReason::TimeLimitReached);
        assert_eq!(w.now(), Time::ZERO + Duration::from_secs(1));
        assert!(w.outputs().is_empty());
        assert_eq!(w.run_to_quiescence(), StopReason::Quiescent);
        assert_eq!(w.outputs().len(), 2);
    }

    #[test]
    fn event_budget_guards_against_livelock() {
        // A node that ping-pongs with itself forever.
        struct Loopy;
        impl Node for Loopy {
            type Msg = Byte;
            type Command = ();
            type Output = ();
            fn on_start(&mut self, ctx: &mut Context<Byte, ()>) {
                ctx.send(ctx.me(), Byte(0));
            }
            fn on_message(&mut self, _f: ProcessId, m: Byte, ctx: &mut Context<Byte, ()>) {
                ctx.send(ctx.me(), m);
            }
        }
        let mut w = SimBuilder::new(1, NetworkParams::setup1()).max_events(1000).build(|_| Loopy);
        assert_eq!(w.run_to_quiescence(), StopReason::EventLimitReached);
    }

    #[test]
    fn timers_fire_at_requested_delay() {
        struct Alarm;
        impl Node for Alarm {
            type Msg = Byte;
            type Command = ();
            type Output = u64;
            fn on_start(&mut self, ctx: &mut Context<Byte, u64>) {
                ctx.set_timer(Duration::from_millis(5), TimerId::new(1, 11));
            }
            fn on_timer(&mut self, t: TimerId, ctx: &mut Context<Byte, u64>) {
                ctx.output(t.data());
            }
        }
        let mut w = SimBuilder::new(1, NetworkParams::setup1()).build(|_| Alarm);
        w.run_to_quiescence();
        assert_eq!(w.outputs().len(), 1);
        assert_eq!(w.outputs()[0].at, Time::ZERO + Duration::from_millis(5));
        assert_eq!(w.outputs()[0].output, 11);
    }

    #[test]
    fn nic_serializes_concurrent_sends() {
        // Two large messages to different destinations must serialize on the
        // sender NIC: second arrives roughly one transmission time later.
        #[derive(Clone, Debug)]
        struct Big;
        impl WireSize for Big {
            fn wire_size(&self) -> usize {
                12_442 // + 58 header = 12.5 KB = 1 ms at 12.5 MB/s
            }
        }
        struct Burst;
        impl Node for Burst {
            type Msg = Big;
            type Command = ();
            type Output = ();
            fn on_command(&mut self, _c: (), ctx: &mut Context<Big, ()>) {
                ctx.send(ProcessId::new(1), Big);
                ctx.send(ProcessId::new(2), Big);
            }
            fn on_message(&mut self, _f: ProcessId, _m: Big, ctx: &mut Context<Big, ()>) {
                ctx.output(());
            }
        }
        let mut w = SimBuilder::new(3, NetworkParams::setup1()).build(|_| Burst);
        w.schedule_command(p(0), Time::ZERO, ());
        w.run_to_quiescence();
        let mut times: Vec<Time> = w.outputs().iter().map(|r| r.at).collect();
        times.sort();
        let gap = times[1].elapsed_since(times[0]);
        // The NIC gap should be ≈ 1 transmission time (1 ms), well above the
        // CPU-only gap (~200 µs).
        assert!(gap >= Duration::from_micros(900), "gap was {gap}");
    }
}

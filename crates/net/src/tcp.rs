//! TCP cluster: nodes connected by loop-back TCP sockets, one thread per
//! process — the workspace's one real runtime.
//!
//! Links are real sockets and messages travel through the wire codec —
//! the closest in-process analogue of the paper's cluster deployment.
//!
//! # The I/O architecture: the node runs on its process's poll loop
//!
//! A process is a single event-loop (`event_loop.rs`) thread, `iabc-io-<p>`. It
//! drives all of the process's `n−1` duplex streams through a `poll(2)`-based
//! readiness loop ([`crate::poll`]) **and hosts the [`Node`] itself**:
//!
//! * **Inbound**: sockets read straight into pooled receive buffers,
//!   frames decode **in place** from those bytes
//!   ([`iabc_types::Decode::decode_in_place`]) and are passed directly to
//!   `on_message` — no re-assembly copy, no channel, no second thread.
//! * **Outbound**: the handler's `Send` actions go into the peer's
//!   two-lane [`crate::queue::Lanes`], owned by the loop. At the end of
//!   the same pass the loop drains each peer's lanes — ordering frames
//!   ahead of bulk — encodes the batch into pooled scratch and pushes it
//!   with one write; partial writes park the remainder and arm
//!   writability. Under load this coalesces many frames per syscall and
//!   keeps consensus traffic from queueing behind payload floods inside
//!   the transport, mirroring the simulator's priority lane.
//! * **Timers** feed a deadline heap that bounds the loop's park;
//!   **self-sends** go to a loop-local FIFO delivered after the current
//!   handler returns.
//! * **Connections** are the loop's business too. [`TcpCluster::start`]
//!   only binds one listener per process. Each pair shares one duplex
//!   connection, dialed by its lower id on the path that redials a lost
//!   one and opened by a hello naming the dialer; the higher id accepts
//!   it and adopts it once the hello arrives. Every frame after the hello
//!   names its sender.
//!
//! Only three things cross a thread, and each costs a pass, not an item
//! (`handoff.rs`):
//!
//! * **Commands.** [`TcpCluster::send_command`] pushes to the process's
//!   inbox and wakes its loop; the wake costs a pipe byte only for the
//!   first command that finds the loop parked. The loop swaps the inbox
//!   out whole, at most once per pass.
//! * **Outputs.** A pass appends the outputs it emitted to the cluster's
//!   one outbox as a batch, after the pass's frames were written; each is
//!   still stamped as it is emitted. [`TcpCluster::wait_for_outputs`] and
//!   [`TcpCluster::run_for`] swap the outbox out whole, park while it is
//!   empty, and hand its outputs out one by one, in each process's
//!   emission order, no matter how the batches fell. They return at once
//!   when every loop has stopped and nothing is left.
//! * **Stop**, a flag plus a wake.
//!
//! Back-pressure therefore lands on the application: while a connected
//! peer's lanes are at [`crate::queue::MAX_OUTBOUND_FRAMES`] the loop
//! leaves commands where they are, and never stops reading sockets (see
//! `event_loop.rs`).
//!
//! # Lock discipline
//!
//! The frame path takes no lock: lanes, timers, the node and the fault
//! plan belong to the loop thread (each loop judges frames with its own
//! clone of the plan; only the [`NetFaultStats`] counters are shared, as
//! relaxed atomics). What remains is one lock per hand-off — each inbox,
//! the outbox — and [`crate::pool`]'s free list. A hand-off lock is held
//! for one push, append or swap and never across a wake: a producer
//! unparks the waiting consumer only after it dropped the lock, so the
//! woken thread does not find it taken. A lock poisoned by a panic is
//! recovered, since none of those updates can leave a queue half-made.
//! The event loop never blocks: lint rule `E1` mechanically enforces that
//! its module set reaches the kernel only through the sanctioned
//! nonblocking shims in [`crate::poll`]. A node handler that blocks stalls
//! its own process's I/O.

use std::net::TcpListener;
use std::sync::Arc;
use std::time::Instant;

use iabc_runtime::Node;
use iabc_types::{Decode, Encode, ProcessId};

use crate::event_loop::{self, EventLoopHandle, LoopTopology, Process, Waker};
use crate::handoff::{Collector, Inbox};
use crate::netfault::{NetFaultPlan, NetFaultReport, NetFaultStats};
use crate::poll::wake_channel;
use crate::NetOutput;

/// A mesh of loop-back TCP connections between `n` local "processes",
/// each one thread: an event loop that hosts the process's node.
///
/// This is a test/demo vehicle, not a deployment platform, but every
/// message crosses a real socket through the wire codec, so the full
/// encode → TCP → decode-in-place path is exercised.
///
/// # Example
///
/// ```
/// use iabc_core::stacks::{self, StackParams};
/// use iabc_core::{AbcastCommand, AbcastEvent};
/// use iabc_net::TcpCluster;
/// use iabc_types::{Payload, ProcessId};
///
/// let params = StackParams::fault_free(3);
/// let mut cluster = TcpCluster::start(3, |p| stacks::indirect_ct(p, &params));
/// cluster.send_command(ProcessId::new(0), AbcastCommand::Broadcast(Payload::zeroed(8)));
/// let outputs = cluster.wait_for_outputs(4, std::time::Duration::from_secs(5));
/// let deliveries = outputs
///     .iter()
///     .filter(|o| matches!(o.output, AbcastEvent::Delivered { .. }))
///     .count();
/// assert_eq!(deliveries, 3);
/// cluster.shutdown();
/// ```
pub struct TcpCluster<N: Node>
where
    N::Msg: Encode,
{
    /// Each process's command inbox, by process id.
    commands: Vec<Arc<Inbox<N::Command>>>,
    outputs: Collector<N::Output>,
    io_loops: Vec<EventLoopHandle>,
    fault_stats: Vec<Arc<NetFaultStats>>,
}

impl<N> TcpCluster<N>
where
    N: Node + Send + 'static,
    N::Msg: Encode + Decode + Send,
    N::Command: Send,
    N::Output: Send,
{
    /// Binds `n` loop-back listeners and starts one event-loop thread per
    /// process. This is not a wiring barrier: each loop dials its peers of
    /// higher id on its own, before it runs its node's `on_start`, the way
    /// it redials a lost connection, and adopts the connections of lower
    /// ids as their hellos arrive. A link that cannot be dialed retries
    /// with backoff rather than panicking; a command sent at once waits in
    /// its inbox until the loop takes it.
    ///
    /// # Panics
    ///
    /// Panics if a loop-back listener cannot be bound or report its
    /// address, or a wake channel cannot be made (local resource
    /// exhaustion).
    pub fn start(n: usize, factory: impl FnMut(ProcessId) -> N) -> Self {
        Self::start_with_faults(n, None, factory)
    }

    /// [`TcpCluster::start`] with an optional nemesis fault plan. Every
    /// process's event loop gets a clone of the plan, so both endpoints
    /// of a partitioned pair sever their end of the link; its windows
    /// count from the same instant as [`NetOutput::at`]. A window open at
    /// start-up holds back the pair's first connection until it closes.
    /// `None` keeps the frame path entirely fault-layer-free (the plan is
    /// never consulted), so fault-off wire traffic is byte-identical to a
    /// cluster started through [`TcpCluster::start`].
    ///
    /// # Panics
    ///
    /// Panics as [`TcpCluster::start`] does, and if the plan sets `delay`,
    /// `reorder` or `record_trace`: sockets honour only partitions, drops
    /// and duplicates (see [`crate::netfault`]).
    pub fn start_with_faults(
        n: usize,
        faults: Option<NetFaultPlan>,
        mut factory: impl FnMut(ProcessId) -> N,
    ) -> Self {
        let sim_only = faults.as_ref().and_then(NetFaultPlan::sim_only_setting);
        assert!(
            sim_only.is_none(),
            "sockets cannot honour a fault plan's `{}`: only partition, isolate, drop and duplicate",
            sim_only.unwrap_or_default()
        );
        assert!(n > 0, "need at least one process");
        // Process ids travel as u16 in frame tags; every `i as u16` below
        // is bounded by this assert.
        assert!(n <= usize::from(u16::MAX) + 1, "process ids are u16 on the wire");
        // One nonblocking listener per process on an ephemeral port. The
        // expects below are documented under `# Panics`: they run before
        // any remote bytes exist, on loop-back sockets only, where a
        // failure means local resource exhaustion.
        let listeners: Vec<TcpListener> = (0..n)
            .map(|_| {
                // lint:allow(P1): bootstrap bind, documented panic, no remote input yet
                let l = TcpListener::bind("127.0.0.1:0").expect("bind loop-back listener");
                // lint:allow(P1): bootstrap, documented panic, no remote input yet
                l.set_nonblocking(true).expect("nonblocking listener");
                l
            })
            .collect();
        let addrs: Vec<_> =
            // lint:allow(P1): bootstrap, documented panic, no remote input yet
            listeners.iter().map(|l| l.local_addr().expect("local addr")).collect();

        let epoch = Instant::now();
        let outputs = Collector::new();
        let mut commands = Vec::with_capacity(n);
        let mut io_loops = Vec::with_capacity(n);
        let mut fault_stats = Vec::with_capacity(n);
        for (j, listener) in listeners.into_iter().enumerate() {
            // lint:allow(W2): j < n and the assert above bounds n to u16
            let me = ProcessId::new(j as u16);
            let peers = addrs
                .iter()
                .enumerate()
                .filter(|&(i, _)| i != j)
                // lint:allow(W2): i < n and the assert above bounds n to u16
                .map(|(i, addr)| (ProcessId::new(i as u16), *addr))
                .collect();
            // lint:allow(P1): bootstrap wake channel, documented panic, no remote input yet
            let (wake_tx, wake_rx) = wake_channel().expect("wake channel");
            let inbox = Arc::new(Inbox::new());
            commands.push(Arc::clone(&inbox));
            let stats = Arc::new(NetFaultStats::default());
            fault_stats.push(Arc::clone(&stats));
            io_loops.push(event_loop::spawn(
                Process {
                    me,
                    n,
                    epoch,
                    node: factory(me),
                    commands: inbox,
                    outputs: outputs.producer(),
                },
                LoopTopology { listener, peers, faults: faults.clone(), stats },
                wake_rx,
                Arc::new(Waker::new(wake_tx)),
            ));
        }

        TcpCluster { commands, outputs, io_loops, fault_stats }
    }

    /// Per-process fault/reconnect counter snapshots (indexed by process
    /// id). All zeros unless a fault plan armed or a link actually died.
    pub fn fault_reports(&self) -> Vec<NetFaultReport> {
        self.fault_stats.iter().map(|s| s.report()).collect()
    }

    /// Sends an application command to process `p`: queues it and wakes
    /// `p`'s loop, which takes it on its current or next pass — unless a
    /// connected peer of `p` is a full queue behind, in which case it
    /// waits, in send order, until that peer drains.
    pub fn send_command(&self, p: ProcessId, cmd: N::Command) {
        // A command to a stopped process waits in its inbox for good, as
        // a send to a crashed process goes unanswered.
        self.commands[p.as_usize()].push(cmd);
        self.io_loops[p.as_usize()].waker.wake();
    }

    /// Collects outputs for (wall-clock) `dur`, starting with those an
    /// earlier call left buffered; returns early only once every process
    /// has stopped and no output is left.
    pub fn run_for(&mut self, dur: std::time::Duration) -> Vec<NetOutput<N::Output>> {
        self.outputs.gather(usize::MAX, dur)
    }

    /// Collects outputs until `count` have arrived or `timeout` elapses —
    /// the latency-friendly alternative to [`TcpCluster::run_for`] when
    /// the caller knows how many outputs to expect (benches, tests).
    /// Returns at most `count`: the rest of a batch waits for the next
    /// call, so none is lost or returned twice. Returns early, with fewer,
    /// once every process has stopped and no output is left.
    pub fn wait_for_outputs(
        &mut self,
        count: usize,
        timeout: std::time::Duration,
    ) -> Vec<NetOutput<N::Output>> {
        self.outputs.gather(count, timeout)
    }

    /// Stops every process and closes its sockets. Never hangs on a dead
    /// peer: each loop does one last nonblocking pass — whatever the
    /// kernel takes of its backlog without blocking is flushed, the rest
    /// dropped — then its sockets come down and its node is dropped.
    pub fn shutdown(self) {
        for l in &self.io_loops {
            l.stop();
        }
        for l in self.io_loops {
            l.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::queue::tests::Blob;
    use iabc_core::stacks::{self, StackParams};
    use iabc_core::{AbcastCommand, AbcastEvent};
    use iabc_runtime::{Context, TimerId};
    use iabc_types::{CodecError, Duration, Payload, Time, TrafficClass, WireSize};

    #[derive(Clone, Debug, PartialEq)]
    struct Num(u32);
    impl WireSize for Num {
        fn wire_size(&self) -> usize {
            4
        }
    }
    impl Encode for Num {
        fn encode(&self, buf: &mut Vec<u8>) {
            self.0.encode(buf);
        }
    }
    impl Decode for Num {
        fn decode(buf: &mut &[u8]) -> Result<Self, CodecError> {
            Ok(Num(u32::decode(buf)?))
        }
    }

    struct Echo;
    impl Node for Echo {
        type Msg = Num;
        type Command = u32;
        type Output = (ProcessId, u32);
        fn on_command(&mut self, cmd: u32, ctx: &mut Context<Num, (ProcessId, u32)>) {
            ctx.send_to_all(Num(cmd));
        }
        fn on_message(&mut self, from: ProcessId, m: Num, ctx: &mut Context<Num, (ProcessId, u32)>) {
            ctx.output((from, m.0));
        }
    }

    #[test]
    fn fanout_over_tcp() {
        let mut cluster = TcpCluster::start(3, |_| Echo);
        cluster.send_command(ProcessId::new(1), 77);
        let outs = cluster.wait_for_outputs(3, std::time::Duration::from_secs(5));
        assert_eq!(outs.len(), 3, "all three processes must receive the fanout");
        assert!(outs.iter().all(|o| o.output == (ProcessId::new(1), 77)));
        cluster.shutdown();
    }

    /// A classed test frame: odd values are ordering, even values bulk.
    #[derive(Clone, Debug, PartialEq)]
    struct Classed(u32);
    impl WireSize for Classed {
        fn wire_size(&self) -> usize {
            4
        }
        fn traffic_class(&self) -> TrafficClass {
            if self.0 % 2 == 1 { TrafficClass::Ordering } else { TrafficClass::Bulk }
        }
    }
    impl Encode for Classed {
        fn encode(&self, buf: &mut Vec<u8>) {
            self.0.encode(buf);
        }
    }
    impl Decode for Classed {
        fn decode(buf: &mut &[u8]) -> Result<Self, CodecError> {
            Ok(Classed(u32::decode(buf)?))
        }
    }

    #[test]
    fn mixed_class_traffic_over_tcp_delivers_everything() {
        struct MixedEcho;
        impl Node for MixedEcho {
            type Msg = Classed;
            type Command = u32;
            type Output = (ProcessId, u32);
            fn on_command(&mut self, cmd: u32, ctx: &mut Context<Classed, (ProcessId, u32)>) {
                ctx.send_to_all(Classed(cmd));
            }
            fn on_message(
                &mut self,
                from: ProcessId,
                m: Classed,
                ctx: &mut Context<Classed, (ProcessId, u32)>,
            ) {
                ctx.output((from, m.0));
            }
        }
        let mut cluster = TcpCluster::start(3, |_| MixedEcho);
        for v in 0..20u32 {
            cluster.send_command(ProcessId::new((v % 3) as u16), v);
        }
        let outs = cluster.wait_for_outputs(20 * 3, std::time::Duration::from_secs(10));
        assert_eq!(outs.len(), 20 * 3, "every classed frame must reach all processes");
        cluster.shutdown();
    }

    #[test]
    fn sequential_clusters_reuse_cleanly() {
        // The respawn pattern: a second cluster starting after the first
        // one's shutdown must come up clean (no leaked loops or wedged
        // sockets from the first).
        for round in 0..2u32 {
            let mut cluster = TcpCluster::start(2, |_| Echo);
            cluster.send_command(ProcessId::new(0), round);
            let outs = cluster.wait_for_outputs(2, std::time::Duration::from_secs(5));
            assert_eq!(outs.len(), 2);
            cluster.shutdown();
        }
    }

    #[test]
    fn self_sends_wait_for_the_handler_and_keep_fifo_order() {
        // p1, on frame 0 from p0, self-sends 1 and 2 *before* reporting 0;
        // handling 1 self-sends 3. Delivered after the issuing handler
        // returned and in issue order, p1 reports 0, 1, 2, 3.
        struct Chain;
        impl Node for Chain {
            type Msg = Num;
            type Command = ();
            type Output = u32;
            fn on_command(&mut self, _cmd: (), ctx: &mut Context<Num, u32>) {
                ctx.send(ProcessId::new(1), Num(0));
            }
            fn on_message(&mut self, _from: ProcessId, m: Num, ctx: &mut Context<Num, u32>) {
                match m.0 {
                    0 => {
                        ctx.send(ctx.me(), Num(1));
                        ctx.send(ctx.me(), Num(2));
                    }
                    1 => ctx.send(ctx.me(), Num(3)),
                    _ => {}
                }
                ctx.output(m.0);
            }
        }
        let mut cluster = TcpCluster::start(2, |_| Chain);
        cluster.send_command(ProcessId::new(0), ());
        let outs = cluster.wait_for_outputs(4, std::time::Duration::from_secs(5));
        assert!(outs.iter().all(|o| o.process == ProcessId::new(1)));
        assert_eq!(outs.iter().map(|o| o.output).collect::<Vec<_>>(), vec![0, 1, 2, 3]);
        cluster.shutdown();
    }

    #[test]
    fn timers_fire_on_wall_clock() {
        struct Alarm;
        impl Node for Alarm {
            type Msg = Num;
            type Command = ();
            type Output = u64;
            fn on_start(&mut self, ctx: &mut Context<Num, u64>) {
                ctx.set_timer(iabc_types::Duration::from_millis(20), TimerId::new(1, 5));
            }
            fn on_timer(&mut self, t: TimerId, ctx: &mut Context<Num, u64>) {
                ctx.output(t.data());
            }
        }
        let mut cluster = TcpCluster::start(1, |_| Alarm);
        let outs = cluster.wait_for_outputs(1, std::time::Duration::from_millis(300));
        assert_eq!(outs.len(), 1);
        assert_eq!(outs[0].output, 5);
        // `at` is stamped on the loop as the timer fires: the deadline
        // bounds the park, so it is not a TICK late.
        assert!(outs[0].at >= Time::from_nanos(15_000_000), "fired too early: {:?}", outs[0].at);
        let latest = std::time::Duration::from_millis(20) + event_loop::TICK;
        assert!(
            std::time::Duration::from_nanos(outs[0].at.as_nanos()) <= latest,
            "fired more than a tick late: {:?}",
            outs[0].at
        );
        cluster.shutdown();
    }

    /// Broadcasts one payload from `from` and returns the processes that
    /// delivered it within `timeout`, in delivery order.
    fn deliver_one<N>(cluster: &mut TcpCluster<N>, from: ProcessId, n: usize) -> Vec<ProcessId>
    where
        N: Node<Command = AbcastCommand, Output = AbcastEvent> + Send + 'static,
        N::Msg: Encode + Decode + Send,
    {
        cluster.send_command(from, AbcastCommand::Broadcast(Payload::zeroed(8)));
        // The sender's `Broadcast` acknowledgement, then n deliveries.
        let outs = cluster.wait_for_outputs(n + 1, std::time::Duration::from_secs(10));
        outs.iter()
            .filter(|o| matches!(o.output, AbcastEvent::Delivered { .. }))
            .map(|o| o.process)
            .collect()
    }

    #[test]
    fn a_fault_free_cluster_counts_no_reconnect_and_no_severed_link() {
        // Every link's first connection is dialed on the reconnect path;
        // it must not count as a reconnect.
        let params = StackParams::fault_free(3);
        let mut cluster = TcpCluster::start(3, |p| stacks::indirect_ct(p, &params));
        assert_eq!(deliver_one(&mut cluster, ProcessId::new(0), 3).len(), 3);
        let reports = cluster.fault_reports();
        cluster.shutdown();
        for (p, r) in reports.iter().enumerate() {
            assert_eq!((r.links_severed, r.reconnects), (0, 0), "process {p}: {r:?}");
        }
    }

    /// Connections each process of `cluster` dialed, by process id.
    fn dials<N: Node>(cluster: &TcpCluster<N>) -> Vec<u64>
    where
        N::Msg: Encode,
    {
        use std::sync::atomic::Ordering;
        cluster.fault_stats.iter().map(|s| s.dials.load(Ordering::Relaxed)).collect()
    }

    #[test]
    fn an_n3_cluster_opens_exactly_three_connections() {
        // One duplex connection per pair, dialed by its lower id: p0
        // dials p1 and p2, p1 dials p2, p2 dials nobody.
        let mut cluster = TcpCluster::start(3, |_| Echo);
        for p in 0..3u16 {
            cluster.send_command(ProcessId::new(p), u32::from(p));
        }
        // Every process fans out to all three: every link carried frames
        // both ways.
        assert_eq!(cluster.wait_for_outputs(9, std::time::Duration::from_secs(5)).len(), 9);
        assert_eq!(dials(&cluster), [2, 1, 0]);
        cluster.shutdown();
    }

    #[test]
    fn an_isolated_p0_heals_through_its_own_redials_with_both_directions_in_order() {
        // p0 is cut from both peers over [300, 700) ms. Only the lower id
        // of a pair dials, so p0 redials both of its links and p1 and p2
        // adopt; frames queued on either side during the window arrive
        // after the heal, in the order they were queued.
        struct Relay;
        type Ctx = Context<Num, (ProcessId, u32)>;
        impl Node for Relay {
            type Msg = Num;
            type Command = Vec<(ProcessId, u32)>;
            type Output = (ProcessId, u32);
            fn on_command(&mut self, sends: Self::Command, ctx: &mut Ctx) {
                for (to, v) in sends {
                    ctx.send(to, Num(v));
                }
            }
            fn on_message(&mut self, from: ProcessId, m: Num, ctx: &mut Ctx) {
                ctx.output((from, m.0));
            }
        }
        const QUEUED: u32 = 50;
        let ms = std::time::Duration::from_millis;
        let (p0, p1, p2) = (ProcessId::new(0), ProcessId::new(1), ProcessId::new(2));
        let (opens, heals) = (ms(300), ms(700));
        let plan = NetFaultPlan::new(5).isolate(p0, 3, opens.into(), heals.into());
        let started = Instant::now();
        let mut cluster = TcpCluster::start_with_faults(3, Some(plan), |_| Relay);
        // Before the window: one frame over each of p0's links each way.
        cluster.send_command(p0, vec![(p1, 0), (p2, 0)]);
        cluster.send_command(p1, vec![(p0, 0)]);
        cluster.send_command(p2, vec![(p0, 0)]);
        assert_eq!(cluster.wait_for_outputs(4, ms(5000)).len(), 4);
        // Well inside the window, queue frames both ways.
        std::thread::sleep((opens + ms(100)).saturating_sub(started.elapsed()));
        assert!(started.elapsed() < heals, "the test fell behind the window");
        for v in 1..=QUEUED {
            cluster.send_command(p0, vec![(p1, v), (p2, v)]);
            cluster.send_command(p1, vec![(p0, v)]);
            cluster.send_command(p2, vec![(p0, v)]);
        }
        let outs = cluster.wait_for_outputs(4 * QUEUED as usize, ms(10_000));
        assert_eq!(outs.len(), 4 * QUEUED as usize, "a queued frame never crossed");
        assert!(
            outs.iter().all(|o| o.at >= Time::from_nanos(heals.as_nanos() as u64)),
            "a frame crossed the cut"
        );
        for (to, from) in [(p1, p0), (p2, p0), (p0, p1), (p0, p2)] {
            let got: Vec<u32> = outs
                .iter()
                .filter(|o| o.process == to && o.output.0 == from)
                .map(|o| o.output.1)
                .collect();
            assert!(got.into_iter().eq(1..=QUEUED), "{from:?} → {to:?} lost or reordered frames");
        }
        let reports = cluster.fault_reports();
        // Every end of a cut connection counts its severance and its
        // comeback: p0 two of each, p1 and p2 one. Only p0 dialed again.
        let counts: Vec<_> = reports.iter().map(|r| (r.links_severed, r.reconnects)).collect();
        assert_eq!(counts, [(2, 2), (1, 1), (1, 1)]);
        assert_eq!(dials(&cluster), [4, 1, 0]);
        cluster.shutdown();
    }

    #[test]
    fn a_partition_open_at_start_holds_back_the_first_dial_until_it_closes() {
        // p0 and p1 are cut from the start: their links are first dialed
        // when the window closes. Nothing was up when it opened, so
        // nothing is severed and nothing is a reconnect.
        let (p0, p1) = (ProcessId::new(0), ProcessId::new(1));
        let window = std::time::Duration::from_millis(300);
        let plan = NetFaultPlan::new(3).partition(p0, p1, Duration::ZERO, window.into());
        let params = StackParams::fault_free(3);
        let started = Instant::now();
        let mut cluster =
            TcpCluster::start_with_faults(3, Some(plan), |p| stacks::indirect_ct(p, &params));
        // p0 and p2 are a majority: they decide, and p1 delivers too.
        let mut delivered = deliver_one(&mut cluster, p0, 3);
        delivered.sort_unstable();
        assert_eq!(delivered, (0..3).map(ProcessId::new).collect::<Vec<_>>());
        // Under lazy RB a payload travels from its sender only: p1
        // delivering a broadcast p0 made after the window is a p0 → p1
        // frame that crossed the link.
        std::thread::sleep(window.saturating_sub(started.elapsed()));
        assert!(deliver_one(&mut cluster, p0, 3).contains(&p1), "p0 → p1 never came up");
        let reports = cluster.fault_reports();
        cluster.shutdown();
        for p in [p0, p1] {
            let r = &reports[p.as_usize()];
            assert_eq!((r.links_severed, r.reconnects), (0, 0), "process {p:?}: {r:?}");
        }
    }

    fn start_refusing(plan: NetFaultPlan) {
        let _ = TcpCluster::start_with_faults(2, Some(plan), |_| Echo);
    }

    #[test]
    #[should_panic(expected = "fault plan's `delay`")]
    fn start_with_faults_refuses_delay() {
        start_refusing(NetFaultPlan::new(0).delay(10, iabc_types::Duration::from_millis(1)));
    }

    #[test]
    #[should_panic(expected = "fault plan's `reorder`")]
    fn start_with_faults_refuses_reorder() {
        start_refusing(NetFaultPlan::new(0).reorder(10));
    }

    #[test]
    #[should_panic(expected = "fault plan's `record_trace`")]
    fn start_with_faults_refuses_a_trace() {
        start_refusing(NetFaultPlan::new(0).record_trace());
    }

    #[test]
    fn a_single_process_cluster_serves_commands_and_timers_without_sockets() {
        // n = 1: no peers, no streams — just the wake channel, the local
        // FIFO and the deadline heap.
        struct Solo;
        impl Node for Solo {
            type Msg = Num;
            type Command = u32;
            type Output = u64;
            fn on_command(&mut self, cmd: u32, ctx: &mut Context<Num, u64>) {
                ctx.send_to_all(Num(cmd));
            }
            fn on_message(&mut self, _from: ProcessId, m: Num, ctx: &mut Context<Num, u64>) {
                ctx.output(u64::from(m.0));
                ctx.set_timer(iabc_types::Duration::from_millis(5), TimerId::new(1, u64::from(m.0) + 1));
            }
            fn on_timer(&mut self, t: TimerId, ctx: &mut Context<Num, u64>) {
                ctx.output(t.data());
            }
        }
        let mut cluster = TcpCluster::start(1, |_| Solo);
        cluster.send_command(ProcessId::new(0), 7);
        let outs = cluster.wait_for_outputs(2, std::time::Duration::from_secs(5));
        assert_eq!(outs.iter().map(|o| o.output).collect::<Vec<_>>(), vec![7, 8]);
        cluster.shutdown();
    }

    #[test]
    fn a_wait_without_deadline_returns_once_an_output_arrived() {
        let mut cluster = TcpCluster::start(2, |_| Echo);
        cluster.send_command(ProcessId::new(0), 3);
        let outs = cluster.wait_for_outputs(1, std::time::Duration::MAX);
        assert_eq!(outs.len(), 1);
        assert_eq!(outs[0].output, (ProcessId::new(0), 3));
        cluster.shutdown();
    }

    #[test]
    fn handlers_of_one_pass_share_its_clock_while_outputs_are_stamped_as_emitted() {
        // A command reports the `now` its handler saw and self-sends. The
        // self-delivery, a second handler of the same pass, spins for 2 ms
        // before it reports its `now`.
        const SPIN: std::time::Duration = std::time::Duration::from_millis(2);
        struct Spin;
        impl Node for Spin {
            type Msg = Num;
            type Command = ();
            type Output = u64;
            fn on_command(&mut self, _cmd: (), ctx: &mut Context<Num, u64>) {
                ctx.output(ctx.now().as_nanos());
                ctx.send(ctx.me(), Num(0));
            }
            fn on_message(&mut self, _from: ProcessId, _m: Num, ctx: &mut Context<Num, u64>) {
                let spun = Instant::now();
                while spun.elapsed() < SPIN {
                    std::hint::spin_loop();
                }
                ctx.output(ctx.now().as_nanos());
            }
        }
        let mut cluster = TcpCluster::start(1, |_| Spin);
        cluster.send_command(ProcessId::new(0), ());
        let outs = cluster.wait_for_outputs(2, std::time::Duration::from_secs(5));
        cluster.shutdown();
        assert_eq!(outs.len(), 2);
        assert_eq!(outs[0].output, outs[1].output, "two handlers of one pass saw two clocks");
        let apart = outs[1].at.elapsed_since(outs[0].at);
        assert!(apart >= SPIN.into(), "outputs stamped {apart} apart, around a {SPIN:?} spin");
    }

    #[test]
    fn outputs_cross_batch_boundaries_exactly_once_in_emission_order() {
        // Every frame makes its receiver emit three outputs in one pass,
        // so batches hold several outputs and single-output waits leave
        // the rest of a batch buffered between calls.
        struct Burst {
            seq: u32,
        }
        impl Node for Burst {
            type Msg = Num;
            type Command = u32;
            type Output = u32;
            fn on_command(&mut self, cmd: u32, ctx: &mut Context<Num, u32>) {
                ctx.send_to_all(Num(cmd));
            }
            fn on_message(&mut self, _from: ProcessId, _m: Num, ctx: &mut Context<Num, u32>) {
                for _ in 0..3 {
                    ctx.output(self.seq);
                    self.seq += 1;
                }
            }
        }
        const COMMANDS: u32 = 20;
        let total = 3 * 3 * COMMANDS as usize;
        let mut cluster = TcpCluster::start(3, |_| Burst { seq: 0 });
        for v in 0..COMMANDS {
            cluster.send_command(ProcessId::new((v % 3) as u16), v);
        }
        let mut outs = Vec::new();
        for _ in 0..total / 3 {
            let one = cluster.wait_for_outputs(1, std::time::Duration::from_secs(5));
            assert_eq!(one.len(), 1, "a single-output wait returned {}", one.len());
            outs.extend(one);
        }
        let deadline = Instant::now() + std::time::Duration::from_secs(10);
        while outs.len() < total && Instant::now() < deadline {
            outs.extend(cluster.run_for(std::time::Duration::from_millis(50)));
        }
        // Nothing beyond the expected outputs arrives late.
        outs.extend(cluster.run_for(std::time::Duration::from_millis(50)));
        assert_eq!(outs.len(), total);
        for p in 0..3 {
            let seqs: Vec<u32> =
                outs.iter().filter(|o| o.process == ProcessId::new(p)).map(|o| o.output).collect();
            assert!(
                seqs.into_iter().eq(0..3 * COMMANDS),
                "process {p} lost, repeated or reordered an output"
            );
        }
        cluster.shutdown();
    }

    #[test]
    fn mutual_flood_from_one_handler_each_drains_both_ways() {
        // Both processes emit 16 MiB for the other from a single handler
        // call, at the same time: both park on a partial write. A loop
        // that stopped reading while parked would leave both waiting for
        // the other to drain, forever.
        const FLOOD: u32 = 4096;
        struct Flooder {
            got: u32,
        }
        impl Node for Flooder {
            type Msg = Blob;
            type Command = ();
            type Output = u32;
            fn on_command(&mut self, _cmd: (), ctx: &mut Context<Blob, u32>) {
                for i in 0..FLOOD {
                    // Even ids: all on the bulk lane, FIFO end to end.
                    ctx.send_to_others(Blob { id: 2 * i, len: 4096 });
                }
            }
            fn on_message(&mut self, _from: ProcessId, m: Blob, ctx: &mut Context<Blob, u32>) {
                assert_eq!(m.id, 2 * self.got, "frames must arrive in order");
                self.got += 1;
                if self.got == FLOOD {
                    ctx.output(self.got);
                }
            }
        }
        let mut cluster = TcpCluster::start(2, |_| Flooder { got: 0 });
        cluster.send_command(ProcessId::new(0), ());
        cluster.send_command(ProcessId::new(1), ());
        let outs = cluster.wait_for_outputs(2, std::time::Duration::from_secs(30));
        assert_eq!(outs.len(), 2, "both floods must drain");
        cluster.shutdown();
    }
}

//! TCP cluster: nodes connected by loop-back TCP sockets, one thread per
//! process.
//!
//! Links are real sockets and messages travel through the wire codec —
//! the closest in-process analogue of the paper's cluster deployment.
//!
//! # The I/O architecture: the node runs on its process's poll loop
//!
//! A process is a single [`crate::event_loop`] thread, `iabc-io-<p>`. It
//! drives all of the process's `2·(n−1)` streams through a `poll(2)`-based
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
//!
//! Only three things cross a thread: application **commands**
//! ([`TcpCluster::send_command`] → a per-process channel plus a wake that
//! costs a pipe byte only when the loop is parked), **outputs** (the
//! shared channel [`TcpCluster::run_for`] reads, each output stamped as
//! it is emitted) and **stop**. Back-pressure therefore lands on the
//! application: while a connected peer's lanes are at
//! [`crate::queue::MAX_OUTBOUND_FRAMES`] the loop leaves commands in
//! their channel, and never stops reading sockets (see
//! [`crate::event_loop`]).
//!
//! # Lock discipline
//!
//! The frame path takes no lock: lanes, timers and the node belong to
//! the loop thread. What remains is the command and output channels and
//! [`crate::pool`]'s free list. The event loop never blocks: lint rule
//! `E1` mechanically enforces that its module set reaches the kernel only
//! through the sanctioned nonblocking shims in [`crate::poll`]. A node
//! handler that blocks stalls its own process's I/O.

use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::Arc;
use std::time::Instant;

use crossbeam::channel::{unbounded, Receiver, Sender};
use iabc_runtime::Node;
use iabc_types::{Decode, Encode, ProcessId};

use crate::cluster::collect_outputs;
use crate::event_loop::{self, EventLoopHandle, LoopTopology, OutboundLink, Process, Waker};
use crate::netfault::{NetFaultPlan, NetFaultReport, NetFaultStats};
use crate::poll::wake_channel;
use crate::NetOutput;

/// A mesh of loop-back TCP connections between `n` local "processes",
/// each one thread: an event loop that hosts the process's node.
///
/// This is a test/demo vehicle, not a deployment platform, but every
/// message crosses a real socket through the wire codec, so the full
/// encode → TCP → decode-in-place path is exercised.
pub struct TcpCluster<N: Node>
where
    N::Msg: Encode,
{
    commands: Vec<Sender<N::Command>>,
    outputs: Receiver<NetOutput<N::Output>>,
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
    /// Binds `n` loop-back listeners, connects the full mesh (blocking
    /// handshakes, so the cluster is fully wired before this returns),
    /// and starts one event-loop thread per process, which runs the
    /// node's `on_start` first.
    ///
    /// # Panics
    ///
    /// Panics if sockets cannot be bound or connected (loop-back only, so
    /// this indicates local resource exhaustion).
    pub fn start(n: usize, factory: impl FnMut(ProcessId) -> N) -> Self {
        Self::start_with_faults(n, None, factory)
    }

    /// [`TcpCluster::start`] with an optional nemesis fault plan. Every
    /// process's event loop gets a clone of the plan, so both endpoints
    /// of a partitioned pair sever their half of the link; its windows
    /// count from the same instant as [`NetOutput::at`]. `None` keeps the
    /// frame path entirely fault-layer-free (the plan is never
    /// consulted), so fault-off wire traffic is byte-identical to a
    /// cluster started through [`TcpCluster::start`].
    ///
    /// # Panics
    ///
    /// Panics as [`TcpCluster::start`] does.
    pub fn start_with_faults(
        n: usize,
        faults: Option<NetFaultPlan>,
        mut factory: impl FnMut(ProcessId) -> N,
    ) -> Self {
        assert!(n > 0, "need at least one process");
        // Process ids travel as u16 in the handshake and frame tags; every
        // `i as u16` below is bounded by this assert.
        assert!(n <= usize::from(u16::MAX) + 1, "process ids are u16 on the wire");
        // Bind one listener per process on an ephemeral port.
        // Setup-time expects below are documented under `# Panics`: they run
        // before any remote bytes exist, on loop-back sockets only, where a
        // failure means local resource exhaustion and there is no
        // connection to poison yet.
        let listeners: Vec<TcpListener> = (0..n)
            // lint:allow(P1): bootstrap bind, documented panic, no remote input yet
            .map(|_| TcpListener::bind("127.0.0.1:0").expect("bind loop-back listener"))
            .collect();
        let addrs: Vec<_> =
            // lint:allow(P1): bootstrap, documented panic, no remote input yet
            listeners.iter().map(|l| l.local_addr().expect("local addr")).collect();

        // Outbound side: from i to j (i != j), a connected stream owned by
        // process i's event loop.
        let mut outbound: Vec<Vec<OutboundLink>> = (0..n).map(|_| vec![]).collect();
        for (i, links) in outbound.iter_mut().enumerate() {
            for (j, addr) in addrs.iter().enumerate() {
                if i == j {
                    continue;
                }
                // lint:allow(P1): bootstrap connect, documented panic, no remote input yet
                let mut stream = TcpStream::connect(addr).expect("connect to peer");
                // lint:allow(P1): bootstrap, documented panic, no remote input yet
                stream.set_nodelay(true).expect("nodelay");
                // Identify ourselves so the acceptor can route. Written
                // while the stream is still blocking — the handshake is
                // part of the start barrier.
                // lint:allow(P1): bootstrap handshake, documented panic, no remote input yet — lint:allow(W2): i < n and start() asserts n fits in u16
                stream.write_all(&(i as u16).to_le_bytes()).expect("handshake");
                // lint:allow(P1): bootstrap, documented panic, no remote input yet
                stream.set_nonblocking(true).expect("nonblocking");
                links.push(OutboundLink {
                    // lint:allow(W2): j < n and start() asserts n fits in u16
                    peer: ProcessId::new(j as u16),
                    addr: Some(*addr),
                    stream,
                });
            }
        }

        // Inbound side: accept n-1 connections per listener (blocking — the
        // start barrier again), read the 2-byte sender handshake, then flip
        // the stream nonblocking for the event loop.
        let mut inbound_conns: Vec<Vec<TcpStream>> = Vec::with_capacity(n);
        for listener in &listeners {
            let mut accepted = Vec::with_capacity(n - 1);
            for _ in 0..(n - 1) {
                // lint:allow(P1): bootstrap accept, documented panic, no remote input yet
                let (mut stream, _) = listener.accept().expect("accept peer connection");
                // lint:allow(P1): bootstrap, documented panic, no remote input yet
                stream.set_nodelay(true).expect("nodelay");
                let mut id = [0u8; 2];
                // lint:allow(P1): bootstrap handshake, documented panic, no remote input yet
                stream.read_exact(&mut id).expect("handshake");
                let _claimed_sender = ProcessId::new(u16::from_le_bytes(id));
                // lint:allow(P1): bootstrap, documented panic, no remote input yet
                stream.set_nonblocking(true).expect("nonblocking");
                accepted.push(stream);
            }
            inbound_conns.push(accepted);
        }

        // The mesh is wired: start the processes. Each loop keeps its
        // listener (flipped nonblocking) so severed peers can redial
        // mid-run.
        let epoch = Instant::now();
        let (out_tx, outputs) = unbounded();
        let mut commands = Vec::with_capacity(n);
        let mut io_loops = Vec::with_capacity(n);
        let mut fault_stats = Vec::with_capacity(n);
        for (j, ((inbound, outbound), listener)) in
            inbound_conns.into_iter().zip(outbound).zip(listeners).enumerate()
        {
            // lint:allow(W2): j < n and start() asserts n fits in u16
            let me = ProcessId::new(j as u16);
            // lint:allow(P1): bootstrap, documented panic, no remote input yet
            listener.set_nonblocking(true).expect("nonblocking listener");
            // lint:allow(P1): bootstrap wake channel, documented panic, no remote input yet
            let (wake_tx, wake_rx) = wake_channel().expect("wake channel");
            let (cmd_tx, cmd_rx) = unbounded();
            commands.push(cmd_tx);
            let stats = Arc::new(NetFaultStats::default());
            fault_stats.push(Arc::clone(&stats));
            io_loops.push(event_loop::spawn(
                Process {
                    me,
                    n,
                    epoch,
                    node: factory(me),
                    commands: cmd_rx,
                    outputs: out_tx.clone(),
                },
                LoopTopology {
                    listener: Some(listener),
                    inbound,
                    outbound,
                    faults: faults.clone(),
                    stats,
                },
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
    /// waits in the channel until that peer drains.
    pub fn send_command(&self, p: ProcessId, cmd: N::Command) {
        // A send to a stopped process is not an error for the caller.
        let _ = self.commands[p.as_usize()].send(cmd);
        self.io_loops[p.as_usize()].waker.wake();
    }

    /// Collects outputs for (wall-clock) `dur`.
    pub fn run_for(&mut self, dur: std::time::Duration) -> Vec<NetOutput<N::Output>> {
        collect_outputs(&self.outputs, usize::MAX, dur)
    }

    /// Collects outputs until `count` have arrived or `timeout` elapses —
    /// the latency-friendly alternative to [`TcpCluster::run_for`] when
    /// the caller knows how many outputs to expect (benches, tests).
    pub fn wait_for_outputs(
        &mut self,
        count: usize,
        timeout: std::time::Duration,
    ) -> Vec<NetOutput<N::Output>> {
        collect_outputs(&self.outputs, count, timeout)
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
    use iabc_runtime::{Context, TimerId};
    use iabc_types::{CodecError, Time, TrafficClass, WireSize};

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

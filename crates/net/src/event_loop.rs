//! The per-process event loop of the TCP transport: one thread that is
//! the whole process.
//!
//! Each process of a [`crate::tcp::TcpCluster`] is exactly one thread,
//! `iabc-io-<p>`. It owns the process's [`Node`] and *all* of its I/O —
//! the `n-1` inbound streams (peers → us), the `n-1` outbound streams (us
//! → peers), the listener (mid-run re-accepts) and a wake channel — and
//! runs the node's handlers **inline**: a frame decoded from a socket is
//! passed straight to `on_message`, the `Send` actions it returns go into
//! per-peer outbound lanes this thread owns, and they are encoded and
//! written before the loop parks again. There is no node thread, no queue
//! lock and no hand-off: a protocol hop costs the receiver one wake-up.
//!
//! Nothing here ever blocks — the loop parks only in [`Poller::wait`]
//! with a bounded timeout; reads, writes, accepts and loop-back connects
//! are nonblocking (`WouldBlock` re-arms interest instead of parking a
//! thread), and the command channel is read with `try_recv`. Lint rule
//! `E1` enforces this shape mechanically: the only sanctioned kernel
//! doorway is [`crate::poll`]. What E1 cannot see is the node itself: its
//! handlers run on this thread, so a handler that blocks stalls this
//! process's I/O for as long.
//!
//! # One pass
//!
//! park in `poll` (until a socket is ready, a wake byte arrives, or the
//! earliest timer is due, at most [`TICK`]) → accept and read sockets,
//! running `on_message` per decoded frame → fire due timers → take
//! application commands → link maintenance → flush every peer's lanes.
//!
//! # What crosses a thread
//!
//! Three things. **Commands** come in through a channel; the sender then
//! calls [`Waker::wake`], which costs a pipe byte only if the loop is
//! parked. **Outputs** leave through the cluster's shared output channel,
//! each stamped with a clock read taken as it is emitted. **Stop** is a
//! flag plus a wake. Everything else — frames, timers, self-sends — stays
//! on this thread. Self-sends go to a local FIFO that is drained after
//! the current handler returns, never re-entrantly.
//!
//! # Receive path (decode in place)
//!
//! Each inbound stream reads directly into a pooled [`RecvBuffer`]; frames
//! are decoded in place from the arena the kernel wrote
//! ([`iabc_types::Decode::decode_in_place`]) and handed to the node — no
//! re-assembly copy. A decode error poisons the buffer and tears the
//! connection down (framing is unrecoverable).
//!
//! # Send path and back-pressure
//!
//! A flush takes everything pending in a peer's two-lane [`Lanes`],
//! ordering frames first, encodes it into one contiguous pooled scratch
//! buffer and hands that to the kernel with a single `write` (the frames
//! are adjacent in memory, so there is nothing for a gather to gather). A
//! **partial write parks the remainder in the scratch** and arms
//! `POLLOUT`; frames emitted meanwhile wait in the lanes.
//!
//! The loop cannot park on its own full queue, and two loops that stopped
//! reading while parked on `POLLOUT` would deadlock each other. So
//! [`crate::queue::MAX_OUTBOUND_FRAMES`] is a soft cap: while any
//! *connected* peer's lanes are at it, the loop stops taking **commands**
//! — the application is what gets pushed back on — and keeps reading
//! sockets, firing timers and running the handlers they trigger.
//!
//! # Partition healing (reconnect with backoff)
//!
//! A write error or reader EOF does not end a link that has a reconnect
//! address. The loop flips the lanes into **down-mode** (ordering
//! retained, bulk shed past a watermark — see [`crate::queue`]), salvages
//! the un-sent whole frames of the scratch for replay, and hands the peer
//! to the [`Reconnector`]: an immediate first attempt, then exponential
//! backoff with deterministic jitter capped at ~1 s, at most one attempt
//! in flight. A successful loop-back connect re-runs the 2-byte id
//! handshake, replays the salvaged frames, and the next flush drains the
//! parked backlog — the decided-frontier piggyback on those frames is
//! what pulls both sides back together. Inbound, the loop polls its
//! listener, accepts replacement connections mid-run, and consumes their
//! handshake bytes before promoting them to readers.
//!
//! An optional [`NetFaultPlan`] drives nemesis runs: partition windows
//! sever the matching links once per pass (and gate reconnect attempts
//! until the window closes); per-frame drop/duplicate verdicts apply at
//! encode time. Without a plan, none of that code runs on the frame path.
//!
//! # Fairness
//!
//! Reads are capped per stream per pass ([`MAX_READS_PER_TICK`]) and
//! commands per pass ([`MAX_COMMANDS_PER_PASS`]), so neither a peer that
//! refills its socket as fast as we drain it nor an application that
//! floods commands can starve the other inputs; level-triggered polling
//! and the pending-command flag bring the loop straight back.

use std::collections::VecDeque;
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration as StdDuration, Instant};

use crossbeam::channel::{Receiver, Sender};
use iabc_runtime::{Action, Context, Node, TimerId};
use iabc_types::{Decode, Duration, Encode, ProcessId, Time, WireSize};

use crate::codec::{write_frame_into, RecvBuffer, Tagged, TaggedOwned, RECV_CHUNK};
use crate::netfault::{LinkJudge, NetFaultPlan, NetFaultStats, NetVerdict};
use crate::poll::{self, Interest, PollSource, Poller, Readiness, WakeRx, WakeTx};
use crate::pool::{BufferPool, PooledBuf};
use crate::queue::Lanes;
use crate::reconnect::Reconnector;
use crate::timers::TimerHeap;
use crate::NetOutput;

/// The longest the loop sleeps in `poll`; an earlier timer deadline
/// shortens the park. Shutdown latency is bounded by this even if a wake
/// byte is lost (it never is — the wake channel is a pipe / loop-back
/// stream — but the timeout means correctness never rests on that).
/// Reconnect scheduling and partition windows run at this granularity
/// too: a due attempt fires within one tick of its deadline.
pub(crate) const TICK: StdDuration = StdDuration::from_millis(25);

/// Reads one stream may issue per pass before yielding to its siblings.
const MAX_READS_PER_TICK: usize = 4;

/// Commands the loop takes per pass before it looks at its sockets again.
const MAX_COMMANDS_PER_PASS: usize = 256;

/// Wakes the event loop from other threads: after a command was queued,
/// or to stop it.
///
/// Two flags make the hot path syscall-free:
///
/// * `signal` — "there may be commands the loop has not seen". Set by
///   every wake, consumed (swapped false) by the loop before it reads the
///   command channel.
/// * `sleeping` — "the loop is parked (or about to park) in `poll` with a
///   real timeout". Only a wake that observes this writes the one-byte
///   pipe nudge; while the loop is busy, a wake is two atomic ops and the
///   loop picks the signal up on its current pass.
///
/// The no-lost-wakeup argument is the classic sleeper/waker handshake:
/// the loop *stores* `sleeping = true` and then *loads* `signal`; a waker
/// *stores* `signal = true` and then *loads* `sleeping`. Both sides are
/// `SeqCst`, so in every interleaving at least one of them sees the
/// other's store — the loop aborts the park, or the waker sends the byte.
/// (And even an impossible miss only costs one [`TICK`]: the park timeout
/// means correctness never rests on the byte.)
pub(crate) struct Waker {
    tx: WakeTx,
    signal: AtomicBool,
    sleeping: AtomicBool,
}

impl Waker {
    pub(crate) fn new(tx: WakeTx) -> Waker {
        Waker { tx, signal: AtomicBool::new(false), sleeping: AtomicBool::new(false) }
    }

    /// Tells the loop to look at its command channel (and stop flag).
    /// While the loop is busy this is two uncontended atomic ops; only a
    /// parked loop costs a syscall.
    pub(crate) fn wake(&self) {
        self.signal.store(true, Ordering::SeqCst);
        if self.sleeping.load(Ordering::SeqCst) {
            // A full pipe already wakes the loop; errors mean the loop is
            // gone, and then there is nothing left to wake.
            let _ = self.tx.notify();
        }
    }

    /// Loop side: consumes the pending signal.
    fn take_signal(&self) -> bool {
        self.signal.swap(false, Ordering::SeqCst)
    }

    /// Loop side: announces intent to park. Returns `false` — park
    /// aborted — if a signal raced in; the caller must not sleep.
    fn announce_sleep(&self) -> bool {
        self.sleeping.store(true, Ordering::SeqCst);
        if self.signal.load(Ordering::SeqCst) {
            self.sleeping.store(false, Ordering::SeqCst);
            return false;
        }
        true
    }

    /// Loop side: back from the park.
    fn finish_sleep(&self) {
        self.sleeping.store(false, Ordering::SeqCst);
    }
}

/// One inbound (peer → us) connection.
struct Inbound {
    stream: TcpStream,
    recv: RecvBuffer,
    open: bool,
}

/// A freshly accepted connection whose 2-byte id handshake has not fully
/// arrived yet; promoted to an [`Inbound`] once it has.
struct PendingAccept {
    stream: TcpStream,
    id: [u8; 2],
    got: usize,
}

/// The live half of one outbound connection (present while connected).
struct Conn {
    stream: TcpStream,
    /// Encoded-but-unsent bytes live in `scratch[sent..]`; the buffer is
    /// pooled, so an anomalous batch is clamped on return instead of
    /// staying resident.
    scratch: PooledBuf,
    sent: usize,
    /// Per-frame end offsets within the encoded batch: where
    /// [`Conn::salvage`] may cut.
    bounds: Vec<usize>,
}

impl Conn {
    fn new(stream: TcpStream, pool: &BufferPool) -> Conn {
        Conn { stream, scratch: pool.get(), sent: 0, bounds: Vec::new() }
    }

    /// Rescues the un-sent whole-frame suffix of a dying connection:
    /// everything from the first frame boundary at or past `sent`. The
    /// frame straddling `sent` is replayed in full — the receiver
    /// discards a partial tail on EOF — and frames fully handed to the
    /// kernel are not (a graceful shutdown delivers them). Replays over
    /// a seeded scratch (no boundary data) fall back to offset 0; the
    /// worst case is a duplicated frame, which every protocol layer
    /// dedupes.
    fn salvage(self) -> Vec<u8> {
        if self.scratch.len() <= self.sent {
            return Vec::new();
        }
        let start =
            self.bounds.iter().copied().filter(|&b| b <= self.sent).max().unwrap_or(0);
        self.scratch[start..].to_vec()
    }
}

/// One outbound (us → peer) link: the lanes always, a [`Conn`] while the
/// connection is up, and the reconnect address if the link may heal.
struct Writer<M> {
    peer: ProcessId,
    /// Where to reconnect after a connection loss. `None` pins the legacy
    /// semantics: loss is permanent and ends the link.
    addr: Option<SocketAddr>,
    /// Frames the node has emitted for this peer and no flush has encoded
    /// yet. Owned by this thread alone.
    lanes: Lanes<M>,
    conn: Option<Conn>,
    /// This link will never send again (and must not reconnect); frames
    /// for it are dropped, as sends to a crashed process are.
    finished: bool,
    /// Shed frames already folded into the shared stats (delta tracking
    /// against the lanes' monotone counter).
    shed_reported: u64,
    /// Frame bytes rescued from a dying connection ([`Conn::salvage`]),
    /// replayed ahead of any new batch once the link heals. This is what
    /// makes a healed link quasi-reliable: a consensus frame lost
    /// mid-severance has no protocol-level retransmit (catch-up repairs
    /// only *decided* instances), so the transport must not lose it.
    carryover: Vec<u8>,
}

impl<M> Writer<M> {
    /// Takes the connection down and keeps its un-sent whole frames for
    /// replay on the next one: the *link* is the unit of reliability, not
    /// the connection.
    fn sever(&mut self) {
        if let Some(c) = self.conn.take() {
            poll::shutdown_stream(&c.stream, Shutdown::Both);
            let mut rescued = c.salvage();
            rescued.extend_from_slice(&self.carryover);
            self.carryover = rescued;
        }
    }
}

enum WriterState {
    /// Nothing pending; no write interest needed.
    Idle,
    /// Parked on a partial write; needs `POLLOUT`.
    Parked,
    /// Write error; the connection is gone.
    Dead,
}

/// One outbound link handed to [`spawn`].
pub(crate) struct OutboundLink {
    pub(crate) peer: ProcessId,
    /// Reconnect target (the peer's listener). `None` disables healing
    /// for this link: a connection loss ends it permanently.
    pub(crate) addr: Option<SocketAddr>,
    /// Connected, handshaken, nonblocking.
    pub(crate) stream: TcpStream,
}

/// The sockets one event loop owns, handed to [`spawn`].
pub(crate) struct LoopTopology {
    /// This process's listener (nonblocking), polled for mid-run
    /// re-accepts. `None` fixes the inbound set at spawn time.
    pub(crate) listener: Option<TcpListener>,
    /// Accepted streams (already handshaken, nonblocking).
    pub(crate) inbound: Vec<TcpStream>,
    pub(crate) outbound: Vec<OutboundLink>,
    /// Nemesis fault plan; `None` keeps the frame path fault-layer-free.
    pub(crate) faults: Option<NetFaultPlan>,
    /// Shared fault/reconnect counters (always live: reconnects happen
    /// with or without a fault plan).
    pub(crate) stats: Arc<NetFaultStats>,
}

/// The process one event loop hosts, handed to [`spawn`].
pub(crate) struct Process<N: Node> {
    pub(crate) me: ProcessId,
    /// Cluster size.
    pub(crate) n: usize,
    /// The cluster's clock origin: `NetOutput.at`, `Context::now` and
    /// fault-plan windows all count from it.
    pub(crate) epoch: Instant,
    pub(crate) node: N,
    pub(crate) commands: Receiver<N::Command>,
    pub(crate) outputs: Sender<NetOutput<N::Output>>,
}

/// A running event loop plus the handles the cluster needs to stop it.
pub(crate) struct EventLoopHandle {
    pub(crate) waker: Arc<Waker>,
    stop: Arc<AtomicBool>,
    thread: Option<JoinHandle<()>>,
}

impl EventLoopHandle {
    /// Asks the loop to exit: it does one final best-effort nonblocking
    /// pass, shuts its sockets down, drops the node and returns. Never
    /// blocks on a dead peer — unflushed frames to one are dropped, as
    /// sends to a crashed process are.
    pub(crate) fn stop(&self) {
        self.stop.store(true, Ordering::Release);
        self.waker.wake();
    }

    /// Joins the loop thread (call [`EventLoopHandle::stop`] first).
    pub(crate) fn join(mut self) {
        if let Some(t) = self.thread.take() {
            // lint:allow(E1): shutdown path on the caller's thread — the loop itself never joins
            let _ = t.join();
        }
    }
}

/// Spawns the thread of one process: its node, hosted on the event loop
/// over the given sockets. `wake_rx` is the read end of the wake channel;
/// `waker` holds the write end and stays with the cluster handle.
pub(crate) fn spawn<N>(
    process: Process<N>,
    topo: LoopTopology,
    wake_rx: WakeRx,
    waker: Arc<Waker>,
) -> EventLoopHandle
where
    N: Node + Send + 'static,
    N::Msg: Encode + Decode,
    N::Command: Send,
    N::Output: Send,
{
    let stop = Arc::new(AtomicBool::new(false));
    let loop_waker = Arc::clone(&waker);
    let loop_stop = Arc::clone(&stop);
    let thread = std::thread::Builder::new()
        .name(format!("iabc-io-{}", process.me.as_usize()))
        // lint:allow(E1): run_loop executes on the thread being spawned here, not on the caller
        .spawn(move || run_loop(process, topo, wake_rx, &loop_waker, &loop_stop))
        // lint:allow(P1): thread spawn at cluster bootstrap, no remote input yet
        .expect("spawn event loop thread");
    EventLoopHandle { waker, stop, thread: Some(thread) }
}

/// Nanoseconds from `epoch` to `at` (no narrowing cast — seconds and
/// subseconds recombined).
fn nanos_since(epoch: Instant, at: Instant) -> u64 {
    let e = at.saturating_duration_since(epoch);
    e.as_secs().saturating_mul(1_000_000_000).saturating_add(u64::from(e.subsec_nanos()))
}

/// What a node handler is invoked for.
enum Event<M, C> {
    Start,
    Message(ProcessId, M),
    Command(C),
    Timer(TimerId),
}

/// The protocol half of the loop: the node and everything its actions
/// touch. Kept apart from the inbound sockets so a reader can hand frames
/// to it while its own receive buffer is borrowed.
struct Host<N: Node> {
    me: ProcessId,
    n: usize,
    epoch: Instant,
    node: N,
    outputs: Sender<NetOutput<N::Output>>,
    timers: TimerHeap,
    /// Self-sends, waiting for the handler that issued them to return.
    local: VecDeque<N::Msg>,
    /// Outbound links by destination process id (`None`: self, or no link).
    writers: Vec<Option<Writer<N::Msg>>>,
}

impl<N: Node> Host<N> {
    fn time_at(&self, at: Instant) -> Time {
        Time::from_nanos(nanos_since(self.epoch, at))
    }

    /// Runs one handler, applies its actions, then delivers the
    /// self-sends it (and they, in turn) issued — FIFO, each only after
    /// the handler before it has returned.
    fn dispatch(&mut self, event: Event<N::Msg, N::Command>) {
        let now = Instant::now();
        let mut ctx = Context::new(self.me, self.n, self.time_at(now));
        match event {
            Event::Start => self.node.on_start(&mut ctx),
            Event::Message(from, msg) => self.node.on_message(from, msg, &mut ctx),
            Event::Command(cmd) => self.node.on_command(cmd, &mut ctx),
            Event::Timer(timer) => self.node.on_timer(timer, &mut ctx),
        }
        self.apply(now, &mut ctx);
        while let Some(msg) = self.local.pop_front() {
            let now = Instant::now();
            ctx.set_now(self.time_at(now));
            self.node.on_message(self.me, msg, &mut ctx);
            self.apply(now, &mut ctx);
        }
    }

    /// Performs the actions of the handler that ran at `now`. Nothing
    /// here touches a socket: remote sends wait in the lanes for the
    /// flush that ends the pass.
    fn apply(&mut self, now: Instant, ctx: &mut Context<N::Msg, N::Output>) {
        for action in ctx.take_actions() {
            match action {
                Action::Send { to, msg } if to == self.me => self.local.push_back(msg),
                Action::Send { to, msg } => {
                    if let Some(Some(w)) = self.writers.get_mut(to.as_usize()) {
                        if !w.finished {
                            w.lanes.push(msg);
                        }
                    }
                }
                Action::SetTimer { delay, timer } => self.timers.push(now + delay.into(), timer),
                Action::Work { .. } => {} // real CPUs charge themselves
                Action::Output(output) => {
                    // The collector going away is not the node's problem.
                    let _ = self.outputs.send(NetOutput {
                        at: self.time_at(Instant::now()),
                        process: self.me,
                        output,
                    });
                }
            }
        }
    }

    /// Whether the application must be held back: some connected peer's
    /// lanes are at the cap (see the module docs on back-pressure).
    fn backpressured(&self) -> bool {
        self.writers.iter().flatten().any(|w| w.conn.is_some() && w.lanes.is_full())
    }

    /// Takes queued commands until the channel is empty, the per-pass cap
    /// is reached or back-pressure sets in. Returns whether commands may
    /// still be waiting.
    fn take_commands(&mut self, commands: &Receiver<N::Command>) -> bool {
        for _ in 0..MAX_COMMANDS_PER_PASS {
            if self.backpressured() {
                return true;
            }
            match commands.try_recv() {
                Ok(cmd) => self.dispatch(Event::Command(cmd)),
                // Empty — or the cluster handle is gone, and then no
                // command will ever follow.
                Err(_) => return false,
            }
        }
        true
    }
}

/// How long the loop may park: until the earliest timer, at most [`TICK`].
fn park_timeout(timers: &TimerHeap) -> StdDuration {
    match timers.next_due() {
        Some(due) => due.saturating_duration_since(Instant::now()).min(TICK),
        None => TICK,
    }
}

fn run_loop<N>(
    process: Process<N>,
    topo: LoopTopology,
    mut wake_rx: WakeRx,
    waker: &Waker,
    stop: &AtomicBool,
) where
    N: Node,
    N::Msg: Encode + Decode,
{
    let pool = BufferPool::new();
    let Process { me, n, epoch, node, commands, outputs } = process;
    let listener = topo.listener;
    let stats = topo.stats;
    let mut readers: Vec<Inbound> = topo
        .inbound
        .into_iter()
        .map(|stream| Inbound { stream, recv: RecvBuffer::new(&pool), open: true })
        .collect();
    let mut pending: Vec<PendingAccept> = Vec::new();
    let slots = topo.outbound.iter().map(|l| l.peer.as_usize() + 1).max().unwrap_or(0).max(n);
    let mut writers: Vec<Option<Writer<N::Msg>>> = (0..slots).map(|_| None).collect();
    for link in topo.outbound {
        let slot = link.peer.as_usize();
        writers[slot] = Some(Writer {
            peer: link.peer,
            addr: link.addr,
            lanes: Lanes::new(),
            conn: Some(Conn::new(link.stream, &pool)),
            finished: false,
            shed_reported: 0,
            carryover: Vec::new(),
        });
    }
    // The jitter seed only desynchronizes concurrent probers.
    let mut reconnect = Reconnector::new(slots, u64::from(me.index()) ^ 0x1abc);
    let mut judge: Option<LinkJudge> = topo.faults.map(|plan| LinkJudge::new(plan, me, slots));
    let mut host = Host {
        me,
        n,
        epoch,
        node,
        outputs,
        timers: TimerHeap::new(),
        local: VecDeque::new(),
        writers,
    };

    let mut poller = Poller::new();
    let mut readiness: Vec<Readiness> = Vec::new();
    // A wake announced commands that have not all been taken yet (the
    // per-pass cap, or back-pressure).
    let mut commands_waiting = false;

    host.dispatch(Event::Start);
    let now = Duration::from_nanos(nanos_since(epoch, Instant::now()));
    service_writers(me, now, &mut host.writers, &mut judge, &stats, &mut reconnect);
    loop {
        let stopping = stop.load(Ordering::Acquire);
        // With work already in hand the poll is a zero-timeout sample of
        // the sockets; otherwise announce the park — a wake racing in
        // aborts it (see [`Waker`] for the handshake).
        let mut timeout = StdDuration::ZERO;
        let mut parked = false;
        let commands_ready = commands_waiting && !host.backpressured();
        if !(stopping || commands_ready) && waker.announce_sleep() {
            timeout = park_timeout(&host.timers);
            parked = true;
        }
        // Interest layout: [wake_rx, listener?, pending..., readers...,
        // parked writers...]. A writer needs POLLOUT only while parked on
        // a partial write, and only to end the park: every connected
        // writer is flushed each pass regardless.
        let listener_slot;
        let pending_base;
        let reader_base;
        {
            let mut interests: Vec<(&dyn PollSource, Interest)> =
                Vec::with_capacity(2 + pending.len() + readers.len() + host.writers.len());
            interests.push((&wake_rx, Interest::READ));
            listener_slot = listener.as_ref().map(|l| {
                interests.push((l, Interest::READ));
                interests.len() - 1
            });
            pending_base = interests.len();
            for p in &pending {
                interests.push((&p.stream, Interest::READ));
            }
            reader_base = interests.len();
            for r in &readers {
                interests.push((&r.stream, if r.open { Interest::READ } else { Interest::NONE }));
            }
            for c in host.writers.iter().flatten().filter_map(|w| w.conn.as_ref()) {
                if c.scratch.len() > c.sent {
                    interests.push((&c.stream, Interest::WRITE));
                }
            }
            // A poll failure is unrecoverable for this loop; treat it as a
            // stop request rather than spinning on the error.
            // lint:allow(E1): poll(2) bounded by the tick and the next timer deadline is the loop's one sanctioned parking point
            if poller.wait(&interests, &mut readiness, timeout).is_err() {
                stop.store(true, Ordering::Release);
            }
        }
        if parked {
            waker.finish_sleep();
        }
        // Wake bytes exist only when a waker caught the loop parked;
        // everything else stays out of the pipe entirely.
        if readiness.first().is_some_and(|r| r.readable) {
            wake_rx.drain_wakes();
        }

        // Mid-run accepts: drain the listener backlog into the pending
        // set; their handshake bytes promote them to readers below.
        if let (Some(l), Some(slot)) = (listener.as_ref(), listener_slot) {
            if readiness.get(slot).is_some_and(|r| r.readable) {
                while let Ok(Some(stream)) = poll::try_accept(l) {
                    pending.push(PendingAccept { stream, id: [0; 2], got: 0 });
                }
            }
        }
        let mut i = 0;
        while i < pending.len() {
            if readiness.get(pending_base + i).is_some_and(|r| r.readable) {
                match service_pending(&mut pending[i]) {
                    PendingOutcome::Wait => i += 1,
                    PendingOutcome::Dead => {
                        pending.swap_remove(i);
                    }
                    PendingOutcome::Ready => {
                        let p = pending.swap_remove(i);
                        readers.push(Inbound {
                            stream: p.stream,
                            recv: RecvBuffer::new(&pool),
                            open: true,
                        });
                    }
                }
            } else {
                i += 1;
            }
        }

        for (i, r) in readers.iter_mut().enumerate() {
            if r.open && readiness.get(reader_base + i).is_some_and(|rd| rd.readable) {
                service_reader(r, &mut host);
            }
        }
        // Dead readers leave the set: with a listener the peer's
        // reconnect will accept a replacement; without one the slot is
        // simply gone (legacy fixed topology).
        readers.retain(|r| r.open);

        let now = Instant::now();
        while let Some(timer) = host.timers.pop_due(now) {
            host.dispatch(Event::Timer(timer));
        }

        commands_waiting |= waker.take_signal();
        if commands_waiting {
            commands_waiting = host.take_commands(&commands);
        }

        // Everything the handlers of this pass emitted leaves now. Link
        // maintenance first: sever freshly partitioned connections, dial
        // due reconnect attempts.
        let now = Duration::from_nanos(nanos_since(epoch, now));
        maintain_links(me, now, &mut host.writers, &mut reconnect, judge.as_ref(), &stats, &pool);
        service_writers(me, now, &mut host.writers, &mut judge, &stats, &mut reconnect);

        if stopping {
            // The pass above flushed what the kernel would take without
            // blocking; everything else is dropped (crashed-peer
            // semantics). Tear the sockets down and exit.
            for c in host.writers.iter().flatten().filter_map(|w| w.conn.as_ref()) {
                poll::shutdown_stream(&c.stream, Shutdown::Both);
            }
            for r in &readers {
                poll::shutdown_stream(&r.stream, Shutdown::Both);
            }
            for p in &pending {
                poll::shutdown_stream(&p.stream, Shutdown::Both);
            }
            return;
        }
    }
}

/// What [`service_pending`] decided about a half-handshaken accept.
enum PendingOutcome {
    /// Still waiting for handshake bytes.
    Wait,
    /// EOF or error before the handshake completed; drop it.
    Dead,
    /// Handshake complete; promote to a reader.
    Ready,
}

/// Reads the outstanding handshake bytes of one pending accept.
fn service_pending(p: &mut PendingAccept) -> PendingOutcome {
    while p.got < p.id.len() {
        let got = p.got;
        match poll::try_read(&mut p.stream, &mut p.id[got..]) {
            Ok(Some(0)) | Err(_) => {
                poll::shutdown_stream(&p.stream, Shutdown::Both);
                return PendingOutcome::Dead;
            }
            Ok(Some(n)) => p.got += n,
            Ok(None) => return PendingOutcome::Wait,
        }
    }
    // The id is advisory (frames carry their own `from` tag); consuming
    // it is what matters, so the frame decoder starts at a frame boundary.
    PendingOutcome::Ready
}

/// Once-per-pass link maintenance: sever connections a partition window
/// now covers, and dial the reconnect attempts that have come due (gated
/// off while the pair is partitioned).
fn maintain_links<M>(
    me: ProcessId,
    now: Duration,
    writers: &mut [Option<Writer<M>>],
    reconnect: &mut Reconnector,
    judge: Option<&LinkJudge>,
    stats: &NetFaultStats,
    pool: &BufferPool,
) {
    for w in writers.iter_mut().flatten() {
        if w.finished {
            continue;
        }
        // Fold newly shed frames (down-mode bulk watermark) into the
        // shared counters; the lanes' counter is monotone, so a delta
        // against what was already reported is exact.
        if w.conn.is_none() {
            let shed = w.lanes.shed_count();
            if shed > w.shed_reported {
                stats.frames_shed.fetch_add(shed - w.shed_reported, Ordering::Relaxed);
                w.shed_reported = shed;
            }
        }
        let partitioned = judge.is_some_and(|j| j.plan().partitioned_at(now, me, w.peer));
        if partitioned {
            if w.conn.is_some() {
                // The window opened: kill the connection the way a real
                // partition would — mid-stream. The counter lands before
                // the shutdown so an observer who sees the EOF also sees
                // the severance recorded. Un-sent frames are salvaged for
                // replay after the heal; losing them here would wedge any
                // consensus instance they carried.
                stats.links_severed.fetch_add(1, Ordering::Relaxed);
                w.lanes.set_down(true);
                reconnect.mark_down(w.peer, now);
                w.sever();
            }
            // No dialing into an open window; the deadline stays due and
            // fires on the first pass after the heal.
            continue;
        }
        if let Some(addr) = w.addr.filter(|_| w.conn.is_none() && reconnect.due_attempt(w.peer, now)) {
            match poll::connect_loopback(&addr) {
                Ok(mut stream) => {
                    // Re-run the 2-byte id handshake. Two bytes into a
                    // fresh socket buffer cannot short-write; anything but
                    // a complete write means the connection is already
                    // broken, which is just a failed attempt.
                    match poll::try_write(&mut stream, &me.index().to_le_bytes()) {
                        Ok(Some(2)) => {
                            let mut conn = Conn::new(stream, pool);
                            // Replay the salvaged suffix of the dead
                            // connection before any fresh batch: frame
                            // order within the link is preserved, and the
                            // peer's decoder starts clean (it discarded
                            // any partial tail at EOF).
                            if !w.carryover.is_empty() {
                                conn.scratch.extend_from_slice(&w.carryover);
                                w.carryover.clear();
                            }
                            w.conn = Some(conn);
                            w.lanes.set_down(false);
                            reconnect.mark_up(w.peer);
                            stats.reconnects.fetch_add(1, Ordering::Relaxed);
                        }
                        _ => {
                            poll::shutdown_stream(&stream, Shutdown::Both);
                            reconnect.attempt_failed(w.peer, now);
                        }
                    }
                }
                Err(_) => reconnect.attempt_failed(w.peer, now),
            }
        }
    }
}

/// Drains one inbound stream: read into the pooled arena, decode frames
/// in place, run the node on each. Stops at `WouldBlock`, EOF, a decode
/// error (poisoned framing ⇒ drop the connection), or the per-pass read
/// cap.
fn service_reader<N>(r: &mut Inbound, host: &mut Host<N>)
where
    N: Node,
    N::Msg: Decode,
{
    let mut reads = 0;
    let mut drained = false;
    loop {
        loop {
            match r.recv.next_frame::<TaggedOwned<N::Msg>>() {
                Ok(Some(t)) => host.dispatch(Event::Message(t.from, t.msg)),
                Ok(None) => break,
                Err(_) => {
                    poll::shutdown_stream(&r.stream, Shutdown::Both);
                    r.open = false;
                    return;
                }
            }
        }
        if drained || reads >= MAX_READS_PER_TICK {
            return;
        }
        let spare = r.recv.spare(RECV_CHUNK);
        let want = spare.len();
        match poll::try_read(&mut r.stream, spare) {
            Ok(Some(0)) | Err(_) => {
                // EOF or error: the connection is gone. Frames already
                // decoded were delivered; the peer's reconnect (via our
                // listener) replaces the stream if the pair heals.
                r.open = false;
                return;
            }
            Ok(Some(n)) => {
                r.recv.commit(n);
                reads += 1;
                // A short read means the socket is (momentarily) empty:
                // decode what arrived and skip the would-be-EAGAIN read.
                // Level-triggered polling re-arms the stream if more lands.
                drained = n < want;
            }
            Ok(None) => return,
        }
    }
}

/// One flush pass over every connected writer, applying the state
/// transitions ([`service_writer`] reports them, this applies them).
fn service_writers<M: Encode + WireSize>(
    me: ProcessId,
    now: Duration,
    writers: &mut [Option<Writer<M>>],
    judge: &mut Option<LinkJudge>,
    stats: &NetFaultStats,
    reconnect: &mut Reconnector,
) {
    for w in writers.iter_mut().flatten() {
        if w.conn.is_none() || w.finished {
            continue;
        }
        match service_writer(me, now, w, judge.as_mut(), stats) {
            WriterState::Idle | WriterState::Parked => {}
            WriterState::Dead => {
                if w.addr.is_some() {
                    // Healable link: park the lanes in down-mode, salvage
                    // the un-sent scratch suffix for replay, and let the
                    // reconnector dial. Catch-up repairs only *decided*
                    // instances and the pending re-flood only payloads,
                    // so an in-flight consensus frame lost here would
                    // wedge its instance for good.
                    w.sever();
                    w.lanes.set_down(true);
                    reconnect.mark_down(w.peer, now);
                } else {
                    // Legacy fixed topology: loss is permanent.
                    if let Some(c) = w.conn.take() {
                        poll::shutdown_stream(&c.stream, Shutdown::Both);
                    }
                    w.finished = true;
                }
            }
        }
    }
}

/// Pushes one outbound connection as far as the kernel allows: flush any
/// parked suffix, then keep encoding and writing the lanes' backlog until
/// they are empty (Idle), the socket is full (Parked), or the connection
/// died (Dead).
///
/// # Panics
///
/// Panics if called for a writer with no live connection (the service
/// pass filters those).
fn service_writer<M: Encode + WireSize>(
    from: ProcessId,
    now: Duration,
    w: &mut Writer<M>,
    mut judge: Option<&mut LinkJudge>,
    stats: &NetFaultStats,
) -> WriterState {
    let peer = w.peer;
    // lint:allow(P1): service_writers only dispatches connected writers
    let c = w.conn.as_mut().expect("service_writer needs a live conn");
    loop {
        while c.scratch.len() > c.sent {
            match poll::try_write(&mut c.stream, &c.scratch[c.sent..]) {
                Ok(Some(n)) => c.sent += n,
                Ok(None) => return WriterState::Parked,
                Err(_) => return WriterState::Dead,
            }
        }
        c.scratch.clear();
        c.sent = 0;
        c.bounds.clear();
        if w.lanes.is_empty() {
            return WriterState::Idle;
        }
        // The frames land back to back in one scratch buffer, so a single
        // plain write hands the kernel the whole batch.
        for msg in w.lanes.drain() {
            // The nemesis fault layer judges each frame as it leaves the
            // lanes for the wire; without a plan this is a no-op branch.
            let copies = match judge.as_mut() {
                None => 1,
                Some(j) => match j.judge_frame(now, peer) {
                    NetVerdict::Pass => 1,
                    NetVerdict::Drop => {
                        stats.frames_dropped.fetch_add(1, Ordering::Relaxed);
                        0
                    }
                    NetVerdict::Duplicate => {
                        stats.frames_duplicated.fetch_add(1, Ordering::Relaxed);
                        2
                    }
                },
            };
            for _ in 0..copies {
                // An oversized frame is unencodable, not a transport
                // error: skip it (write_frame_into already rolled the
                // scratch back).
                if write_frame_into(&Tagged { from, msg: &msg }, &mut c.scratch).is_ok() {
                    c.bounds.push(c.scratch.len());
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::{write_frame, FrameBuffer};
    use crate::poll::wake_channel;
    use crate::queue::tests::{Blob, Classed};
    use crate::queue::MAX_OUTBOUND_FRAMES;
    use crossbeam::channel::unbounded;
    use std::io::{Read, Write};
    use std::marker::PhantomData;

    const ME: ProcessId = ProcessId::new(0);
    const PEER: ProcessId = ProcessId::new(1);

    /// The node under the loops of these tests: a command is a list of
    /// sends, every received frame is an output.
    struct Relay<M>(PhantomData<M>);
    impl<M: Clone + std::fmt::Debug + WireSize> Node for Relay<M> {
        type Msg = M;
        type Command = Vec<(ProcessId, M)>;
        type Output = (ProcessId, M);
        fn on_command(&mut self, sends: Self::Command, ctx: &mut Context<M, (ProcessId, M)>) {
            for (to, msg) in sends {
                ctx.send(to, msg);
            }
        }
        fn on_message(&mut self, from: ProcessId, msg: M, ctx: &mut Context<M, (ProcessId, M)>) {
            ctx.output((from, msg));
        }
    }

    /// Process 0 of a two-process cluster: a [`Relay`] on a real event
    /// loop, with the test playing the application and the peer.
    struct Rig<M> {
        handle: EventLoopHandle,
        commands: Sender<Vec<(ProcessId, M)>>,
        outputs: Receiver<NetOutput<(ProcessId, M)>>,
    }

    impl<M> Rig<M>
    where
        M: Clone + std::fmt::Debug + Encode + Decode + WireSize + Send + 'static,
    {
        fn start(topo: LoopTopology) -> Rig<M> {
            for s in topo.inbound.iter().chain(topo.outbound.iter().map(|l| &l.stream)) {
                s.set_nonblocking(true).unwrap();
                s.set_nodelay(true).unwrap();
            }
            let (wake_tx, wake_rx) = wake_channel().unwrap();
            let (commands, cmd_rx) = unbounded();
            let (out_tx, outputs) = unbounded();
            let handle = spawn(
                Process {
                    me: ME,
                    n: 2,
                    epoch: Instant::now(),
                    node: Relay(PhantomData),
                    commands: cmd_rx,
                    outputs: out_tx,
                },
                topo,
                wake_rx,
                Arc::new(Waker::new(wake_tx)),
            );
            Rig { handle, commands, outputs }
        }

        /// One command: send `frames` to `to`, in this order.
        fn send(&self, to: ProcessId, frames: impl IntoIterator<Item = M>) {
            self.commands.send(frames.into_iter().map(|m| (to, m)).collect()).unwrap();
            self.handle.waker.wake();
        }

        fn stop(self) {
            self.handle.stop();
            self.handle.join();
        }
    }

    /// A heal-free topology: no listener, no reconnect address, no faults.
    fn fixed(inbound: Vec<TcpStream>, to_peer: Option<TcpStream>) -> LoopTopology {
        LoopTopology {
            listener: None,
            inbound,
            outbound: to_peer
                .into_iter()
                .map(|stream| OutboundLink { peer: PEER, addr: None, stream })
                .collect(),
            faults: None,
            stats: Arc::new(NetFaultStats::default()),
        }
    }

    fn blocking_pair() -> (TcpStream, TcpStream) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let a = TcpStream::connect(addr).unwrap();
        let (b, _) = listener.accept().unwrap();
        (a, b)
    }

    /// Reads frames off the peer's end until `done` says stop.
    fn read_frames<M: Decode + WireSize>(
        theirs: &mut TcpStream,
        chunk: usize,
        mut done: impl FnMut(&[M]) -> bool,
    ) -> Vec<M> {
        let mut frames = FrameBuffer::new();
        let mut got: Vec<M> = Vec::new();
        let mut chunk = vec![0u8; chunk];
        while !done(&got) {
            let read = theirs.read(&mut chunk).unwrap();
            assert!(read > 0, "stream closed before the frames arrived");
            frames.extend(&chunk[..read]);
            while let Some(t) = frames.next_frame::<TaggedOwned<M>>().unwrap() {
                assert_eq!(t.from, ME);
                got.push(t.msg);
            }
        }
        got
    }

    #[test]
    fn outbound_batch_drains_ordering_ahead_of_bulk_over_the_wire() {
        let (ours, mut theirs) = blocking_pair();
        let rig: Rig<Classed> = Rig::start(fixed(vec![], Some(ours)));
        // One handler call, so the whole burst is one batch.
        rig.send(PEER, [2, 4, 1, 6, 3, 8, 5].map(Classed));
        let got = read_frames::<Classed>(&mut theirs, 4096, |got| got.len() == 7);
        let got: Vec<u32> = got.iter().map(|c| c.0).collect();
        assert_eq!(got, vec![1, 3, 5, 2, 4, 6, 8], "ordering lane must drain first");
        rig.stop();
    }

    #[test]
    fn corrupt_inbound_frame_tears_the_connection_after_delivering_the_good_prefix() {
        let (mut theirs, ours) = blocking_pair();
        let rig: Rig<Classed> = Rig::start(fixed(vec![ours], None));
        write_frame(&Tagged { from: PEER, msg: &Classed(42) }, &mut theirs).unwrap();
        // A malformed frame: the length prefix says 2 bytes, which can
        // never decode as a Tagged<Classed>.
        theirs.write_all(&2u32.to_le_bytes()).unwrap();
        theirs.write_all(&[0xAB, 0xCD]).unwrap();
        // A good frame after the corruption must never be delivered (the
        // loop may already have torn the socket down — ignore errors).
        let _ = write_frame(&Tagged { from: PEER, msg: &Classed(7) }, &mut theirs);

        let first = rig.outputs.recv_timeout(StdDuration::from_secs(5)).unwrap();
        assert_eq!(first.output, (PEER, Classed(42)));
        assert!(
            rig.outputs.recv_timeout(StdDuration::from_secs(2)).is_err(),
            "no frame may be delivered after a decode error"
        );
        rig.stop();
    }

    #[test]
    fn writer_death_reconnects_through_the_peer_listener_and_drains_the_parked_backlog() {
        // The peer: a listener we control. The initial connection is torn
        // down by "the peer" mid-run; the loop must flip the lanes into
        // down-mode, redial our listener with the 2-byte handshake, and
        // flush the ordering frames parked while the link was down.
        let peer_listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let peer_addr = peer_listener.local_addr().unwrap();
        let initial = TcpStream::connect(peer_addr).unwrap();
        let (their_end, _) = peer_listener.accept().unwrap();
        let topo = LoopTopology {
            outbound: vec![OutboundLink { peer: PEER, addr: Some(peer_addr), stream: initial }],
            ..fixed(vec![], None)
        };
        let stats = Arc::clone(&topo.stats);
        let rig: Rig<Classed> = Rig::start(topo);

        // Kill the peer end: the loop's next write hits EPIPE/RST.
        drop(their_end);
        // Keep pushing ordering frames (odd ids) until the loop redials.
        peer_listener.set_nonblocking(true).unwrap();
        let deadline = Instant::now() + StdDuration::from_secs(10);
        let mut accepted = loop {
            assert!(Instant::now() < deadline, "loop never redialed the peer listener");
            rig.send(PEER, [Classed(1)]);
            std::thread::sleep(StdDuration::from_millis(5));
            if let Ok((s, _)) = peer_listener.accept() {
                break s;
            }
        };
        accepted.set_nonblocking(false).unwrap();
        let mut hs = [0u8; 2];
        accepted.read_exact(&mut hs).unwrap();
        assert_eq!(u16::from_le_bytes(hs), 0, "handshake must carry the dialer's id");
        // A post-reconnect frame must arrive on the new stream (parked
        // backlog first — all odd, all ordering — then this one).
        rig.send(PEER, [Classed(9)]);
        let got = read_frames::<Classed>(&mut accepted, 4096, |got| got.contains(&Classed(9)));
        // Frame 9 went in *after* the reconnect: its arrival proves the
        // lanes were parked in down-mode rather than closed for good. (How
        // many pre-heal frames survive depends on when the kernel raised
        // the write error — the parking policy itself is unit-tested in
        // `queue`.) The ordering lane is FIFO, so 9 drains last.
        assert_eq!(got.last(), Some(&Classed(9)));
        assert!(stats.report().reconnects >= 1);
        rig.stop();
    }

    #[test]
    fn partition_window_severs_the_link_and_heals_after_it_closes() {
        // A fault-plan partition: the loop must kill its own healthy
        // connection when the window opens, refuse to redial inside the
        // window, and reconnect after it closes.
        let peer_listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let peer_addr = peer_listener.local_addr().unwrap();
        let initial = TcpStream::connect(peer_addr).unwrap();
        let (mut their_end, _) = peer_listener.accept().unwrap();
        let topo = LoopTopology {
            outbound: vec![OutboundLink { peer: PEER, addr: Some(peer_addr), stream: initial }],
            faults: Some(NetFaultPlan::new(11).partition(
                ME,
                PEER,
                Duration::from_millis(0),
                Duration::from_millis(400),
            )),
            ..fixed(vec![], None)
        };
        let stats = Arc::clone(&topo.stats);
        let started = Instant::now();
        let rig: Rig<Classed> = Rig::start(topo);

        // The severance arrives within a few ticks: our end sees EOF.
        their_end.set_read_timeout(Some(StdDuration::from_secs(5))).unwrap();
        let mut sink = [0u8; 64];
        let eof_at = loop {
            match their_end.read(&mut sink) {
                Ok(0) => break Instant::now(),
                Ok(_) => continue,
                Err(e) => panic!("expected EOF from the severed link, got {e}"),
            }
        };
        assert!(stats.report().links_severed >= 1);
        // The redial may only land after the window closes.
        let (mut healed, _) = peer_listener.accept().unwrap();
        let healed_at = started.elapsed();
        assert!(
            healed_at >= StdDuration::from_millis(350),
            "redial landed inside the partition window ({healed_at:?}, eof at {eof_at:?})"
        );
        let mut hs = [0u8; 2];
        healed.read_exact(&mut hs).unwrap();
        assert_eq!(u16::from_le_bytes(hs), 0);
        // Frames flow again on the healed link.
        rig.send(PEER, [Classed(5)]);
        read_frames::<Classed>(&mut healed, 1024, |got| got.contains(&Classed(5)));
        assert!(stats.report().reconnects >= 1);
        rig.stop();
    }

    #[test]
    fn mid_run_accept_promotes_after_the_handshake_and_frames_flow() {
        // The loop owns a listener: a peer that connects mid-run, sends
        // its 2-byte id, and then frames, must be read like any inbound.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        listener.set_nonblocking(true).unwrap();
        let rig: Rig<Classed> =
            Rig::start(LoopTopology { listener: Some(listener), ..fixed(vec![], None) });
        let mut peer = TcpStream::connect(addr).unwrap();
        peer.write_all(&1u16.to_le_bytes()).unwrap();
        write_frame(&Tagged { from: PEER, msg: &Classed(21) }, &mut peer).unwrap();
        let got = rig.outputs.recv_timeout(StdDuration::from_secs(5)).unwrap();
        assert_eq!(got.output, (PEER, Classed(21)));
        rig.stop();
    }

    #[test]
    fn shutdown_never_hangs_on_a_peer_that_stopped_reading() {
        // The peer end exists but never reads: our write eventually
        // WouldBlocks with a parked remainder. stop() must still return
        // promptly — the backlog to a dead peer is dropped, not awaited.
        let (ours, theirs) = blocking_pair();
        let rig: Rig<Blob> = Rig::start(fixed(vec![], Some(ours)));
        // ~16 MiB, far past the socket buffers.
        rig.send(PEER, (0..4096).map(|id| Blob { id, len: 4096 }));
        std::thread::sleep(StdDuration::from_millis(100));
        let t0 = Instant::now();
        rig.stop();
        assert!(
            t0.elapsed() < StdDuration::from_secs(2),
            "shutdown must not wait for a peer that never drains"
        );
        drop(theirs);
    }

    #[test]
    fn drain_survives_partial_writes_on_huge_batches() {
        // One ~8 MiB batch, far past the socket buffer: a single write
        // cannot take it all, so the loop must park the remainder and
        // resume on writability — every frame must still arrive intact
        // and in FIFO order.
        const FRAMES: u32 = 2048;
        let (ours, mut theirs) = blocking_pair();
        let rig: Rig<Blob> = Rig::start(fixed(vec![], Some(ours)));
        rig.send(PEER, (0..FRAMES).map(|i| Blob { id: 2 * i, len: 4096 }));
        let got = read_frames::<Blob>(&mut theirs, 64 * 1024, |got| got.len() == FRAMES as usize);
        // Every frame arrived intact (the Decode impl checks the body),
        // in FIFO order — whichever frame the short write split.
        assert!(got.iter().map(|b| b.id).eq((0..FRAMES).map(|i| 2 * i)));
        rig.stop();
    }

    #[test]
    fn wake_coalescing_still_delivers_every_command() {
        // Many one-frame commands with a wake each: however the flag
        // coalesces them, every frame must arrive exactly once.
        let (ours, mut theirs) = blocking_pair();
        theirs.set_nodelay(true).unwrap();
        let rig: Rig<Classed> = Rig::start(fixed(vec![], Some(ours)));
        let total = 500u32;
        let (commands, waker) = (rig.commands.clone(), Arc::clone(&rig.handle.waker));
        std::thread::scope(|s| {
            s.spawn(move || {
                for v in 0..total {
                    commands.send(vec![(PEER, Classed(v))]).unwrap();
                    waker.wake();
                }
            });
            let got = read_frames::<Classed>(&mut theirs, 4096, |got| got.len() == total as usize);
            let mut ids: Vec<u32> = got.iter().map(|c| c.0).collect();
            ids.sort_unstable();
            assert!(ids.into_iter().eq(0..total), "a frame was lost or duplicated");
        });
        rig.stop();
    }

    #[test]
    fn full_lanes_hold_back_commands_but_never_socket_reads() {
        // The peer stops reading: the first batch parks on a partial
        // write, the next command fills the lanes behind it to the cap.
        // From then on the loop must leave commands in their channel —
        // and keep serving its inbound socket, or two such loops would
        // deadlock each other.
        let (ours, mut theirs) = blocking_pair();
        let (mut their_out, our_in) = blocking_pair();
        let rig: Rig<Blob> = Rig::start(fixed(vec![our_in], Some(ours)));
        rig.send(PEER, (0..4).map(|i| Blob { id: 2 * i, len: 8 << 20 }));
        // The first bytes are out, so that batch is being written and the
        // frames of the next command queue up behind it.
        let mut first = [0u8; 1];
        theirs.read_exact(&mut first).unwrap();
        let filler = MAX_OUTBOUND_FRAMES as u32;
        rig.send(PEER, (0..filler).map(|i| Blob { id: 100 + 2 * i, len: 0 }));
        // A command whose effect is visible here: a self-send, which the
        // relay reports as an output.
        let marker = Blob { id: 7, len: 0 };
        rig.send(ME, [marker.clone()]);
        // Inbound frames are still read and handled...
        for id in [21, 23] {
            write_frame(&Tagged { from: PEER, msg: &Blob { id, len: 0 } }, &mut their_out).unwrap();
            let out = rig.outputs.recv_timeout(StdDuration::from_secs(5)).unwrap();
            assert_eq!(out.output, (PEER, Blob { id, len: 0 }), "the held-back command ran");
        }
        // ...while the command stays where it is.
        assert!(rig.outputs.recv_timeout(StdDuration::from_millis(100)).is_err());
        // The peer drains: everything arrives in order, and the command
        // is taken.
        let mut frames = FrameBuffer::new();
        frames.extend(&first);
        let mut got: Vec<u32> = Vec::new();
        let mut chunk = vec![0u8; 1 << 20];
        while got.len() < 4 + filler as usize {
            let read = theirs.read(&mut chunk).unwrap();
            assert!(read > 0, "stream closed before the backlog arrived");
            frames.extend(&chunk[..read]);
            while let Some(t) = frames.next_frame::<TaggedOwned<Blob>>().unwrap() {
                got.push(t.msg.id);
            }
        }
        assert!(got.iter().copied().eq((0..4).map(|i| 2 * i).chain((0..filler).map(|i| 100 + 2 * i))));
        let out = rig.outputs.recv_timeout(StdDuration::from_secs(5)).unwrap();
        assert_eq!(out.output, (ME, marker));
        rig.stop();
    }

    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig { cases: 8, ..ProptestConfig::default() })]

        /// Short-write storm: an arbitrary lane mix far past the socket
        /// buffer, drained against a reader whose chunk size is also
        /// arbitrary. However the kernel slices the writes, no frame may
        /// be dropped, duplicated, corrupted, or reordered within its
        /// lane — the parked scratch suffix must resume at exactly the
        /// byte where the short write stopped.
        #[test]
        fn short_write_storm_preserves_per_lane_fifo(
            vals in proptest::collection::vec(any::<u32>(), 64..320),
            read_cap in 32usize..4096,
        ) {
            let (ours, mut theirs) = blocking_pair();
            let rig: Rig<Blob> = Rig::start(fixed(vec![], Some(ours)));
            // One handler call, so the storm is one huge batch.
            rig.send(PEER, vals.iter().map(|&id| Blob { id, len: 2048 }));
            let got = read_frames::<Blob>(&mut theirs, read_cap, |got| got.len() >= vals.len());
            rig.stop();
            // Nothing extra arrived, and each lane is FIFO end to end.
            let got: Vec<u32> = got.iter().map(|b| b.id).collect();
            prop_assert_eq!(got.len(), vals.len());
            let lane = |seq: &[u32], odd: bool| -> Vec<u32> {
                seq.iter().copied().filter(|v| (v % 2 == 1) == odd).collect()
            };
            prop_assert_eq!(lane(&got, true), lane(&vals, true), "ordering lane reordered");
            prop_assert_eq!(lane(&got, false), lane(&vals, false), "bulk lane reordered");
        }
    }
}

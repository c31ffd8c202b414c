//! The per-process event loop of the TCP transport: one thread that is
//! the whole process.
//!
//! Each process of a [`crate::tcp::TcpCluster`] is exactly one thread,
//! `iabc-io-<p>`. It owns the process's [`Node`] and *all* of its I/O —
//! one duplex connection per peer, the listener the lower ids dial, and a
//! wake channel — and runs the node's handlers **inline**: a frame
//! decoded from a socket is
//! passed straight to `on_message`, the `Send` actions it returns go into
//! per-peer outbound lanes this thread owns, and they are encoded and
//! written before the loop parks again. There is no node thread, no queue
//! lock and no hand-off: a protocol hop costs the receiver one wake-up.
//!
//! Nothing here ever blocks — the loop parks only in [`Poller::wait`]
//! with a bounded timeout; reads, writes, accepts and loop-back connects
//! are nonblocking (`WouldBlock` re-arms interest instead of parking a
//! thread), and the command inbox is swapped out under a lock held for
//! the swap alone. Lint rule
//! `E1` enforces this shape mechanically: the only sanctioned kernel
//! doorway is [`crate::poll`]. What E1 cannot see is the node itself: its
//! handlers run on this thread, so a handler that blocks stalls this
//! process's I/O for as long.
//!
//! # One pass
//!
//! park in `poll` (until a socket is ready, a wake byte arrives, or the
//! earliest timer is due, at most [`TICK`]) → read the clock → read
//! sockets, running `on_message` per decoded frame → accept new
//! connections and adopt those whose hello arrived → read the clock →
//! fire due timers → take application commands → link maintenance
//! (sever, dial) → flush every peer's lanes → release outputs. Before its
//! first pass the loop reads the clock, dials its links to higher ids,
//! then runs `on_start`, flushes and releases.
//!
//! Those two clock reads are the pass clock: every handler of the pass
//! reads the last one taken before it as its `now`, so a pass reads the
//! clock for its handlers twice however many frames it handles. A frame
//! that arrived after the first read can carry a sender's stamp later
//! than that `now`. Outputs are the
//! exception: each is stamped with a clock read of its own as it is
//! emitted, so `NetOutput::at`, and every latency measured from it, is
//! when the node produced the output, not when its pass began.
//!
//! # What crosses a thread
//!
//! Three things, each paid once per pass (`handoff.rs`). **Commands**
//! come in through the process's inbox; the sender then calls
//! [`Waker::wake`], which costs a pipe byte only if it is the wake that
//! finds the loop parked with no signal pending, and the loop swaps the
//! inbox out whole once all commands it took earlier ran. **Outputs**
//! leave for the cluster's one outbox as one batch per pass, appended
//! after the pass's frames were written: the application thread is woken
//! once per pass at most, not once per output, and a woken application
//! cannot preempt the loop between a decision and the `write` that
//! carries it to the peers. **Stop** is a flag plus a wake. Everything
//! else — frames, timers, self-sends — stays on this thread.
//! Every handler runs through the node's [`Driver`], as in the simulator:
//! it delivers self-sends itself, FIFO, each after the handler that
//! issued it returns, never re-entrantly.
//!
//! # Receive path (decode in place)
//!
//! Each connection reads directly into a pooled [`RecvBuffer`]; frames
//! are decoded in place from the arena the kernel wrote
//! ([`iabc_types::Decode::decode_in_place`]) and handed to the node — no
//! re-assembly copy. A decode error poisons the buffer and severs the link
//! (framing is unrecoverable).
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
//! reading while parked on `POLLOUT` would deadlock each other — over one
//! duplex socket as over two. So [`crate::queue::MAX_OUTBOUND_FRAMES`] is
//! a soft cap: while any peer's lanes are at it and not shedding (the
//! link is connected, or its first connection is still to come), the
//! loop stops taking **commands** — the application is what gets pushed
//! back on — and keeps reading sockets, firing timers and running the
//! handlers they trigger.
//!
//! # Links: one connection per pair, one way to connect
//!
//! Each pair of processes shares **one duplex connection**, so a reply
//! carries the TCP acknowledgement of the frame it answers instead of
//! paying a pure ACK segment on a one-way connection of its own. The
//! lower id of the pair dials it; only the dialing end runs the
//! [`Reconnector`], and it dials every connection of the link through it,
//! the first one included: the loop's first pass dials every higher peer's
//! listener before the node's `on_start` runs. A loop-back connect to a
//! bound listener completes in the kernel even before the peer's loop
//! runs; the bytes wait in the socket until the peer accepts.
//!
//! Every connection opens with one frame, the **hello**
//! `[u32 len = 2][u16 dialer id]`, written as the connect completes. An
//! accepted stream stays unidentified, polled for reads, until its hello
//! arrives; only then is it adopted as that peer's connection. The hello
//! is remote input: a stream whose first frame is anything but a 2-byte
//! id below our own is shut down and never adopted. Until a link's first
//! connection, its lanes hold their frames as a connected link's do.
//!
//! EOF, a read error, a decode error, a write error and a partition
//! window all **sever** the link alike. The loop flips the lanes into
//! **down-mode** (ordering retained, bulk shed past a watermark — see
//! [`crate::queue`]), salvages the un-sent whole frames of the scratch for
//! replay, and ends the sending half only: the receiving half drains
//! until the peer's EOF, so frames either kernel had accepted before the
//! cut still arrive. A dialed link goes back to the [`Reconnector`]: an
//! immediate first attempt, then exponential backoff with deterministic
//! jitter capped at ~1 s, at most one attempt in flight. The accepting end
//! waits for the next hello; adopting it severs any older connection of
//! the link first. A fresh connection replays the salvaged frames, and the
//! next flush drains the parked backlog — the decided-frontier piggyback
//! on those frames is what pulls both sides back together.
//!
//! An optional [`NetFaultPlan`] drives nemesis runs. The loop holds the
//! plan itself: its partition windows sever the matching links once per
//! pass at both ends (and gate the dialer's attempts until the window
//! closes — a window open at start-up holds back a link's first
//! connection the same way), and its
//! draw-only half judges each frame's drop/duplicate verdict at encode
//! time. Without a plan, none of that code runs on the frame path.
//!
//! # Fairness
//!
//! Reads are capped per connection per pass ([`MAX_READS_PER_TICK`]) and
//! commands per pass ([`MAX_COMMANDS_PER_PASS`]; the rest of a swapped-out
//! inbox is held for the next pass), so neither a peer that refills its
//! socket as fast as we drain it nor an application that floods commands
//! can starve the other inputs; level-triggered polling and the
//! pending-command flag bring the loop straight back.

use std::collections::VecDeque;
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration as StdDuration, Instant};

use iabc_runtime::{Driver, Effects, Node, TimerId};
use iabc_types::{Decode, Duration, Encode, LinkFault, ProcessId, Time, WireSize};

use crate::codec::{write_frame_into, RecvBuffer, Tagged, TaggedOwned, RECV_CHUNK};
use crate::handoff::{Inbox, Producer};
use crate::netfault::{NetFaultPlan, NetFaultStats};
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
///   command inbox.
/// * `sleeping` — "the loop is parked (or about to park) in `poll` with a
///   real timeout". Only the wake that flips `signal` from false to true
///   *and* observes this writes the one-byte pipe nudge: one byte per
///   park, however many commands arrive while the loop sleeps. While the
///   loop is busy, a wake is two atomic ops and the loop picks the
///   signal up on its current pass.
///
/// The no-lost-wakeup argument is the classic sleeper/waker handshake:
/// the loop *stores* `sleeping = true` and then *loads* `signal`; a waker
/// *swaps* `signal` to true and then *loads* `sleeping`. Both sides are
/// `SeqCst`, so in every interleaving at least one of them sees the
/// other's store — the loop aborts the park, or the waker sends the byte.
/// A later wake that finds `signal` already set skips both steps, and is
/// covered by the earlier wake that set it: only the loop clears
/// `signal`, so that wake's signal is still pending, and either it saw
/// `sleeping` and wrote the byte, or the loop will see `signal` in
/// `announce_sleep` / `take_signal` before it parks. (And even an
/// impossible miss only costs one [`TICK`]: the park timeout means
/// correctness never rests on the byte.)
pub(crate) struct Waker {
    tx: WakeTx,
    signal: AtomicBool,
    sleeping: AtomicBool,
}

impl Waker {
    pub(crate) fn new(tx: WakeTx) -> Waker {
        Waker { tx, signal: AtomicBool::new(false), sleeping: AtomicBool::new(false) }
    }

    /// Tells the loop to look at its command inbox (and stop flag).
    /// While the loop is busy this is two uncontended atomic ops; only the
    /// first wake of a parked loop costs a syscall.
    pub(crate) fn wake(&self) {
        if !self.signal.swap(true, Ordering::SeqCst) && self.sleeping.load(Ordering::SeqCst) {
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

/// Bytes of the hello that opens every connection: one frame,
/// `[u32 len = 2][u16 dialer id]`, little-endian like every frame.
const HELLO_LEN: usize = 6;

/// The hello process `me` writes on every connection it dials.
fn hello(me: ProcessId) -> [u8; HELLO_LEN] {
    let [len0, len1, len2, len3] = 2u32.to_le_bytes();
    let [id0, id1] = me.index().to_le_bytes();
    [len0, len1, len2, len3, id0, id1]
}

/// What the first bytes of an accepted stream say about its dialer.
#[derive(Debug, PartialEq, Eq)]
enum Hello {
    /// Not all of it has arrived yet.
    Incomplete,
    /// A well-formed hello from a process this one accepts links from.
    From(ProcessId),
    /// Anything else: a length other than 2, or an id that does not dial
    /// us (our own, one we dial ourselves, or none of the cluster's).
    Refused,
}

/// Judges the first `bytes` of an accepted stream, read by process `me`.
/// Only a lower id dials a higher one, so a valid dialer id lies below
/// `me` — which also puts it in `0..n` and makes it not our own. This is
/// remote input: nothing but an exact hello is adopted.
fn judge_hello(bytes: &[u8], me: ProcessId) -> Hello {
    if bytes.len() >= 4 && bytes[..4] != 2u32.to_le_bytes() {
        return Hello::Refused;
    }
    match *bytes {
        [_, _, _, _, id0, id1] => match u16::from_le_bytes([id0, id1]) {
            id if id < me.index() => Hello::From(ProcessId::new(id)),
            _ => Hello::Refused,
        },
        _ => Hello::Incomplete,
    }
}

/// An accepted stream whose hello has not named its dialer yet. It is
/// polled for reads, and nothing but the hello is read from it: the
/// frames behind it wait in the socket for the link that adopts it.
struct Pending {
    stream: TcpStream,
    hello: [u8; HELLO_LEN],
    got: usize,
}

impl Pending {
    /// Reads what is missing of the hello, never a byte past it.
    fn read_hello(&mut self, me: ProcessId) -> Hello {
        loop {
            let verdict = judge_hello(&self.hello[..self.got], me);
            if verdict != Hello::Incomplete {
                return verdict;
            }
            match poll::try_read(&mut self.stream, &mut self.hello[self.got..]) {
                Ok(Some(0)) | Err(_) => return Hello::Refused,
                Ok(Some(n)) => self.got += n,
                Ok(None) => return Hello::Incomplete,
            }
        }
    }
}

/// The live connection of one link: one duplex stream, the buffer its
/// frames are read into, and the send scratch.
struct Conn {
    stream: TcpStream,
    recv: RecvBuffer,
    /// Encoded-but-unsent bytes live in `scratch[sent..]`; the buffer is
    /// pooled, so an anomalous batch is clamped on return instead of
    /// staying resident.
    scratch: PooledBuf,
    sent: usize,
    /// Per-frame end offsets within the encoded batch: where
    /// [`Conn::sever`] may cut.
    bounds: Vec<usize>,
}

impl Conn {
    /// A connection whose first bytes replay `carryover`.
    fn new(stream: TcpStream, pool: &BufferPool, carryover: &mut Vec<u8>) -> Conn {
        let mut scratch = pool.get();
        scratch.extend_from_slice(carryover);
        carryover.clear();
        Conn { stream, recv: RecvBuffer::new(pool), scratch, sent: 0, bounds: Vec::new() }
    }

    /// Ends the sending half and rescues its un-sent whole-frame suffix:
    /// everything from the first frame boundary at or past `sent`. The
    /// frame straddling `sent` is replayed in full — the receiver
    /// discards a partial tail on EOF — and frames fully handed to the
    /// kernel are not (the peer reads them before our FIN). Replays over
    /// a seeded scratch (no boundary data) fall back to offset 0; the
    /// worst case is a duplicated frame, which every protocol layer
    /// dedupes. The receiving half lives on as a [`Draining`] stream.
    fn sever(self) -> (Vec<u8>, Draining) {
        poll::shutdown_stream(&self.stream, Shutdown::Write);
        let rescued = if self.scratch.len() <= self.sent {
            Vec::new()
        } else {
            let start =
                self.bounds.iter().copied().filter(|&b| b <= self.sent).max().unwrap_or(0);
            self.scratch[start..].to_vec()
        };
        (rescued, Draining { stream: self.stream, recv: self.recv })
    }
}

/// The receiving half of a severed connection, read until the peer's
/// EOF: frames either kernel had accepted before the cut still arrive,
/// as they did when each direction had a connection of its own.
struct Draining {
    stream: TcpStream,
    recv: RecvBuffer,
}

/// One peer's link: its lanes always, a [`Conn`] while the connection is
/// up, and — when this process dials it — the peer's listener.
struct Link<M> {
    peer: ProcessId,
    /// The peer's listener if this process dials the link (`me < peer`);
    /// `None` when the peer dials us and the link waits for its hello.
    dial: Option<SocketAddr>,
    /// Frames the node has emitted for this peer and no flush has encoded
    /// yet. Owned by this thread alone.
    lanes: Lanes<M>,
    conn: Option<Conn>,
    /// Some connection of this link has been up: the next one to come up
    /// replaces it, and counts as a reconnect.
    was_up: bool,
    /// Shed frames already folded into the shared stats (delta tracking
    /// against the lanes' monotone counter).
    shed_reported: u64,
    /// Frame bytes rescued from a dying connection ([`Conn::sever`]),
    /// replayed ahead of any new batch once the link heals. This is what
    /// makes a healed link quasi-reliable: a consensus frame lost
    /// mid-severance has no protocol-level retransmit (catch-up repairs
    /// only *decided* instances), so the transport must not lose it.
    carryover: Vec<u8>,
}

impl<M> Link<M> {
    /// Takes the connection down, if one is up: its un-sent whole frames
    /// wait for the next one (the *link* is the unit of reliability, not
    /// the connection), its receiving half drains into `draining`, the
    /// lanes park, and a dialed link goes back to the reconnector. The
    /// counter lands before the shutdown, so an observer who sees the EOF
    /// also sees the severance recorded.
    fn sever(
        &mut self,
        now: Duration,
        reconnect: &mut Reconnector,
        stats: &NetFaultStats,
        draining: &mut Vec<Draining>,
    ) {
        let Some(c) = self.conn.take() else { return };
        stats.links_severed.fetch_add(1, Ordering::Relaxed);
        let (mut rescued, rx) = c.sever();
        draining.push(rx);
        rescued.extend_from_slice(&self.carryover);
        self.carryover = rescued;
        self.lanes.set_down(true);
        if self.dial.is_some() {
            reconnect.mark_down(self.peer, now);
        }
    }

    /// Brings `stream` up as the link's connection: it replays the
    /// salvaged suffix of the dead one before any fresh batch, so frame
    /// order within the link is preserved and the peer's decoder starts
    /// clean (it discarded any partial tail at EOF).
    fn attach(&mut self, stream: TcpStream, pool: &BufferPool, stats: &NetFaultStats) {
        self.conn = Some(Conn::new(stream, pool, &mut self.carryover));
        self.lanes.set_down(false);
        // A link's first connection is not a reconnect.
        if self.was_up {
            stats.reconnects.fetch_add(1, Ordering::Relaxed);
        }
        self.was_up = true;
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

/// Where one event loop's links go, handed to [`spawn`]. No connection
/// exists yet: the loop dials the links to higher ids and accepts the
/// others from its listener, at start-up as after a loss.
pub(crate) struct LoopTopology {
    /// This process's listener (nonblocking). Lower ids dial it; the
    /// loop adopts each stream its hello names.
    pub(crate) listener: TcpListener,
    /// Every peer with its listener's address: one link each, dialed
    /// by the lower id of the pair.
    pub(crate) peers: Vec<(ProcessId, SocketAddr)>,
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
    pub(crate) commands: Arc<Inbox<N::Command>>,
    /// Takes one batch per pass that emitted outputs, in emission order.
    pub(crate) outputs: Producer<N::Output>,
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

/// The protocol half of the loop: what the node's handlers act on, as
/// the [`Effects`] of its [`Driver`]. A reader takes its link's [`Conn`]
/// out while it hands frames to the node, so the handlers can push into
/// that same link's lanes. Nothing here touches a socket or the outbox
/// during a handler: remote sends wait in the lanes, and outputs in the
/// batch, for the end of the pass.
struct Host<M, O> {
    me: ProcessId,
    epoch: Instant,
    /// The pass clock: what every handler reads as its `now`. Set from the
    /// clock read after `poll` returns and again before the timers fire.
    now: Time,
    outputs: Producer<O>,
    /// The outputs of the current pass, waiting for its flush.
    batch: Vec<NetOutput<O>>,
    timers: TimerHeap,
    /// Links by peer process id (`None`: self, or no link).
    links: Vec<Option<Link<M>>>,
}

impl<M: WireSize, O> Effects<M, O> for Host<M, O> {
    fn now(&mut self) -> Time {
        self.now
    }

    fn send(&mut self, to: ProcessId, msg: M) {
        if let Some(Some(l)) = self.links.get_mut(to.as_usize()) {
            l.lanes.push(msg);
        }
    }

    fn set_timer(&mut self, at: Time, timer: TimerId) {
        self.timers.push(self.epoch + StdDuration::from_nanos(at.as_nanos()), timer);
    }

    fn work(&mut self, _duration: Duration) {} // real CPUs charge themselves

    /// Stamped as emitted, not with the pass clock: `NetOutput::at` is
    /// what latencies are measured against.
    fn output(&mut self, output: O) {
        let at = Time::from_nanos(nanos_since(self.epoch, Instant::now()));
        self.batch.push(NetOutput { at, process: self.me, output });
    }
}

impl<M: WireSize, O> Host<M, O> {
    /// Hands the pass's outputs to the application as one batch. Called
    /// after the flush, so the frames a decision emitted are with the
    /// kernel before the application thread wakes up to consume it.
    fn release_outputs(&mut self) {
        self.outputs.hand_over(&mut self.batch);
    }

    /// Sets the pass clock from a clock read at `at`, and returns it as
    /// the time since the epoch.
    fn set_clock(&mut self, at: Instant) -> Duration {
        let since = nanos_since(self.epoch, at);
        self.now = Time::from_nanos(since);
        Duration::from_nanos(since)
    }

    /// Whether the application must be held back: some link's lanes are
    /// at the cap while they are not shedding — the link is connected, or
    /// its first connection is still to come (see the module docs on
    /// back-pressure).
    fn backpressured(&self) -> bool {
        self.links.iter().flatten().any(|l| !l.lanes.is_down() && l.lanes.is_full())
    }

    /// Runs the commands `held` from an earlier pass, then what one swap
    /// of the inbox brings, until none is left, the per-pass cap is
    /// reached or back-pressure sets in. Returns whether commands may
    /// still be waiting, held or in the inbox: everything queued after
    /// the swap came with a wake of its own.
    fn take_commands<N>(
        &mut self,
        driver: &mut Driver<N>,
        inbox: &Inbox<N::Command>,
        held: &mut VecDeque<N::Command>,
    ) -> bool
    where
        N: Node<Msg = M, Output = O>,
    {
        let mut swapped = false;
        for _ in 0..MAX_COMMANDS_PER_PASS {
            if held.is_empty() && !swapped {
                inbox.refill(held);
                swapped = true;
            }
            if held.is_empty() {
                return false;
            }
            if self.backpressured() {
                return true;
            }
            if let Some(cmd) = held.pop_front() {
                driver.on_command(cmd, self);
            }
        }
        // At the cap, an inbox not swapped this pass may hold commands
        // whose wake this pass consumed.
        !(swapped && held.is_empty())
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
    let LoopTopology { listener, peers, mut faults, stats } = topo;
    let slots = peers.iter().map(|(p, _)| p.as_usize() + 1).max().unwrap_or(0).max(n);
    let mut links: Vec<Option<Link<N::Msg>>> = (0..slots).map(|_| None).collect();
    // The jitter seed only desynchronizes concurrent probers.
    let mut reconnect = Reconnector::new(slots, u64::from(me.index()) ^ 0x1abc);
    for (peer, addr) in peers {
        // The lower id of the pair dials the link, its first dial due at
        // once: the first connection takes the same path as every redial.
        // The higher id waits for the hello. Until that first connection
        // the lanes hold their frames as a connected link's do: only a
        // link that lost a connection sheds.
        let dial = (me < peer).then_some(addr);
        if dial.is_some() {
            reconnect.mark_down(peer, Duration::from_nanos(0));
        }
        links[peer.as_usize()] = Some(Link {
            peer,
            dial,
            lanes: Lanes::new(),
            conn: None,
            was_up: false,
            shed_reported: 0,
            carryover: Vec::new(),
        });
    }
    let mut driver = Driver::new(me, n, node);
    let mut host =
        Host { me, epoch, now: Time::ZERO, outputs, batch: Vec::new(), timers: TimerHeap::new(), links };
    // Commands swapped out of the inbox and not run yet.
    let mut held = VecDeque::new();
    // Accepted streams waiting for their hello, and severed connections
    // read until their peer's EOF.
    let mut pending: Vec<Pending> = Vec::new();
    let mut draining: Vec<Draining> = Vec::new();
    // Poll slots: these two are fixed; the connected links follow, in
    // `polled` order, then the draining streams, then the pending ones.
    // Both vectors are scratch kept across passes.
    const WAKE_SLOT: usize = 0;
    const LISTENER_SLOT: usize = 1;
    const LINK_BASE: usize = 2;
    let mut polled: Vec<usize> = Vec::new();
    let mut readiness: Vec<Readiness> = Vec::new();
    let mut poller = Poller::new();
    // A wake announced commands that have not all been taken yet (the
    // per-pass cap, or back-pressure).
    let mut commands_waiting = false;

    // Dial first, so `on_start`'s frames to higher ids find their links
    // connected.
    let now = host.set_clock(Instant::now());
    let plan = faults.as_ref();
    maintain_links(me, now, &mut host.links, &mut reconnect, plan, &stats, &pool, &mut draining);
    driver.on_start(&mut host);
    service_links(me, now, &mut host.links, &mut faults, &stats, &mut reconnect, &mut draining);
    host.release_outputs();
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
        // Every stream is read whenever it has bytes. A connection needs
        // POLLOUT only while parked on a partial write, and only to end
        // the park: every connected link is flushed each pass regardless.
        polled.clear();
        let connected = host.links.iter().flatten().filter(|l| l.conn.is_some());
        polled.extend(connected.map(|l| l.peer.as_usize()));
        let draining_base = LINK_BASE + polled.len();
        let pending_base = draining_base + draining.len();
        let links = &host.links;
        let interests = [(&wake_rx as &dyn PollSource, Interest::READ), (&listener, Interest::READ)]
            .into_iter()
            .chain(polled.iter().filter_map(|&p| links[p].as_ref()?.conn.as_ref()).map(|c| {
                let parked = c.scratch.len() > c.sent;
                (&c.stream as &dyn PollSource, Interest { readable: true, writable: parked })
            }))
            .chain(draining.iter().map(|d| (&d.stream as &dyn PollSource, Interest::READ)))
            .chain(pending.iter().map(|p| (&p.stream as &dyn PollSource, Interest::READ)));
        // A poll failure is unrecoverable for this loop; treat it as a
        // stop request rather than spinning on the error.
        // lint:allow(E1): poll(2) bounded by the tick and the next timer deadline is the loop's one sanctioned parking point
        if poller.wait(interests, &mut readiness, timeout).is_err() {
            stop.store(true, Ordering::Release);
        }
        if parked {
            waker.finish_sleep();
        }
        // The pass's first clock read: the frames read below are handled
        // at it.
        let woke = host.set_clock(Instant::now());
        let ready = |slot: usize| readiness.get(slot).is_some_and(|r| r.readable);
        // Wake bytes exist only when a waker caught the loop parked;
        // everything else stays out of the pipe entirely.
        if ready(WAKE_SLOT) {
            wake_rx.drain_wakes();
        }

        for (slot, &p) in polled.iter().enumerate() {
            if !ready(LINK_BASE + slot) {
                continue;
            }
            // The connection leaves its link while the node handles its
            // frames, so their sends can land in the link's lanes.
            let Some(mut conn) = host.links[p].as_mut().and_then(|l| l.conn.take()) else {
                continue;
            };
            let open = service_reader(&mut conn.stream, &mut conn.recv, &mut driver, &mut host);
            if let Some(link) = host.links[p].as_mut() {
                link.conn = Some(conn);
                // EOF or a read error severs the link, as a write error
                // does.
                if !open {
                    link.sever(woke, &mut reconnect, &stats, &mut draining);
                }
            }
        }
        // Severed halves are read until their peer's EOF, then dropped;
        // one severed just above joins the poll next pass.
        let mut slot = draining_base;
        draining.retain_mut(|d| {
            let polled = slot < pending_base && ready(slot);
            slot += 1;
            !polled || service_reader(&mut d.stream, &mut d.recv, &mut driver, &mut host)
        });
        // Accepts join the pending streams only now, after the pass over
        // the polled ones, so every stream above matched its own poll
        // slot. A fresh stream is asked for its hello at once: its dialer
        // wrote it on connecting.
        let polled_pending = pending.len();
        if ready(LISTENER_SLOT) {
            while let Ok(Some(stream)) = poll::try_accept(&listener) {
                pending.push(Pending { stream, hello: [0; HELLO_LEN], got: 0 });
            }
        }
        let mut i = 0;
        for slot in pending_base.. {
            let Some(p) = pending.get_mut(i) else { break };
            let due = slot - pending_base >= polled_pending || ready(slot);
            let verdict = if due { p.read_hello(me) } else { Hello::Incomplete };
            match verdict {
                Hello::Incomplete => i += 1,
                Hello::From(peer) => {
                    let stream = pending.remove(i).stream;
                    let links = &mut host.links;
                    adopt(peer, stream, links, &mut reconnect, &stats, &pool, &mut draining);
                }
                Hello::Refused => poll::shutdown_stream(&pending.remove(i).stream, Shutdown::Both),
            }
        }

        // The second and last: timers come due at it, and they, the
        // commands and link maintenance run at it.
        let clock = Instant::now();
        let now = host.set_clock(clock);
        while let Some(timer) = host.timers.pop_due(clock) {
            driver.on_timer(timer, &mut host);
        }

        commands_waiting |= waker.take_signal();
        if commands_waiting {
            commands_waiting = host.take_commands(&mut driver, &commands, &mut held);
        }

        // Everything the handlers of this pass emitted leaves now. Link
        // maintenance first: sever freshly partitioned connections, dial
        // due attempts. Then the frames, then the outputs.
        let (links, plan) = (&mut host.links, faults.as_ref());
        maintain_links(me, now, links, &mut reconnect, plan, &stats, &pool, &mut draining);
        service_links(me, now, &mut host.links, &mut faults, &stats, &mut reconnect, &mut draining);
        host.release_outputs();

        if stopping {
            // The pass above flushed what the kernel would take without
            // blocking; everything else is dropped (crashed-peer
            // semantics). Tear the sockets down and exit.
            let conns = host.links.iter().flatten().filter_map(|l| l.conn.as_ref());
            for stream in conns
                .map(|c| &c.stream)
                .chain(draining.iter().map(|d| &d.stream))
                .chain(pending.iter().map(|p| &p.stream))
            {
                poll::shutdown_stream(stream, Shutdown::Both);
            }
            return;
        }
    }
}

/// Makes an accepted stream whose hello named `peer` that link's
/// connection. A connection still up is older — its dialer has given up
/// on it — so it is severed first and its salvage replays on this one.
/// Adoption is the accepting end's half of a (re)connect and counts as
/// one, as the dial does at the other end.
fn adopt<M>(
    peer: ProcessId,
    stream: TcpStream,
    links: &mut [Option<Link<M>>],
    reconnect: &mut Reconnector,
    stats: &NetFaultStats,
    pool: &BufferPool,
    draining: &mut Vec<Draining>,
) {
    let Some(Some(link)) = links.get_mut(peer.as_usize()) else {
        // A peer with no link here: nothing can adopt the stream.
        poll::shutdown_stream(&stream, Shutdown::Both);
        return;
    };
    // A link the peer dials never goes back to the reconnector, so the
    // severance needs no clock.
    link.sever(Duration::from_nanos(0), reconnect, stats, draining);
    link.attach(stream, pool, stats);
}

/// Once-per-pass link maintenance: sever connections a partition window
/// now covers, and dial the attempts that have come due (gated off while
/// the pair is partitioned). A link's first connection is dialed here
/// too, like every redial; only links to higher ids are dialed at all.
#[allow(clippy::too_many_arguments)]
fn maintain_links<M>(
    me: ProcessId,
    now: Duration,
    links: &mut [Option<Link<M>>],
    reconnect: &mut Reconnector,
    faults: Option<&NetFaultPlan>,
    stats: &NetFaultStats,
    pool: &BufferPool,
    draining: &mut Vec<Draining>,
) {
    for l in links.iter_mut().flatten() {
        // Fold newly shed frames (down-mode bulk watermark) into the
        // shared counters; the lanes' counter is monotone, so a delta
        // against what was already reported is exact.
        if l.conn.is_none() {
            let shed = l.lanes.shed_count();
            if shed > l.shed_reported {
                stats.frames_shed.fetch_add(shed - l.shed_reported, Ordering::Relaxed);
                l.shed_reported = shed;
            }
        }
        if faults.is_some_and(|f| f.partitioned_at(now, me, l.peer)) {
            // The window opened: kill the connection the way a real
            // partition would — mid-stream. Un-sent frames are salvaged
            // for replay after the heal; losing them here would wedge any
            // consensus instance they carried. No dialing into an open
            // window; the deadline stays due and fires on the first pass
            // after the heal.
            l.sever(now, reconnect, stats, draining);
            continue;
        }
        let Some(addr) = l.dial else { continue };
        if l.conn.is_none() && reconnect.due_attempt(l.peer, now) {
            // A fresh socket's send buffer takes the 6-byte hello whole;
            // anything else counts as a failed attempt.
            let connected = poll::connect_loopback(&addr).ok().and_then(|mut stream| {
                let sent = poll::try_write(&mut stream, &hello(me));
                matches!(sent, Ok(Some(HELLO_LEN))).then_some(stream)
            });
            match connected {
                Some(stream) => {
                    l.attach(stream, pool, stats);
                    reconnect.mark_up(l.peer);
                    stats.dials.fetch_add(1, Ordering::Relaxed);
                }
                None => reconnect.attempt_failed(l.peer, now),
            }
        }
    }
}

/// Reads one stream: into the pooled arena, decoding frames in place and
/// running the node on each. Stops at `WouldBlock` or the per-pass read
/// cap, and returns whether the stream is still open — `false` at EOF, a
/// read error, or a decode error (poisoned framing). Frames decoded
/// before any of those were delivered.
fn service_reader<N>(
    stream: &mut TcpStream,
    recv: &mut RecvBuffer,
    driver: &mut Driver<N>,
    host: &mut Host<N::Msg, N::Output>,
) -> bool
where
    N: Node,
    N::Msg: Decode,
{
    let mut reads = 0;
    let mut drained = false;
    loop {
        loop {
            match recv.next_frame::<TaggedOwned<N::Msg>>() {
                Ok(Some(t)) => driver.on_message(t.from, t.msg, host),
                Ok(None) => break,
                Err(_) => return false,
            }
        }
        if drained || reads >= MAX_READS_PER_TICK {
            return true;
        }
        let spare = recv.spare(RECV_CHUNK);
        let want = spare.len();
        match poll::try_read(stream, spare) {
            Ok(Some(0)) | Err(_) => return false,
            Ok(Some(n)) => {
                recv.commit(n);
                reads += 1;
                // A short read means the socket is (momentarily) empty:
                // decode what arrived and skip the would-be-EAGAIN read.
                // Level-triggered polling re-arms the stream if more lands.
                drained = n < want;
            }
            Ok(None) => return true,
        }
    }
}

/// One flush pass over every connected link. A connection that died is
/// severed and, if this process dials it, handed back to the reconnector:
/// the lanes park in down-mode and the un-sent scratch suffix is salvaged
/// for replay. Catch-up repairs only *decided* instances and the pending
/// re-flood only payloads, so an in-flight consensus frame lost here
/// would wedge its instance for good.
fn service_links<M: Encode + WireSize>(
    me: ProcessId,
    now: Duration,
    links: &mut [Option<Link<M>>],
    faults: &mut Option<NetFaultPlan>,
    stats: &NetFaultStats,
    reconnect: &mut Reconnector,
    draining: &mut Vec<Draining>,
) {
    for l in links.iter_mut().flatten() {
        if l.conn.is_some()
            && matches!(service_writer(me, l, faults.as_mut(), stats), WriterState::Dead)
        {
            l.sever(now, reconnect, stats, draining);
        }
    }
}

/// Pushes one connection as far as the kernel allows: flush any parked
/// suffix, then keep encoding and writing the lanes' backlog until they
/// are empty (Idle), the socket is full (Parked), or the connection died
/// (Dead).
///
/// # Panics
///
/// Panics if called for a link with no live connection (the service
/// pass filters those).
fn service_writer<M: Encode + WireSize>(
    from: ProcessId,
    l: &mut Link<M>,
    mut faults: Option<&mut NetFaultPlan>,
    stats: &NetFaultStats,
) -> WriterState {
    let peer = l.peer;
    // lint:allow(P1): service_links only dispatches connected links
    let c = l.conn.as_mut().expect("service_writer needs a live conn");
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
        if l.lanes.is_empty() {
            return WriterState::Idle;
        }
        // The frames land back to back in one scratch buffer, so a single
        // plain write hands the kernel the whole batch.
        for msg in l.lanes.drain() {
            // The nemesis fault plan judges each frame as it leaves the
            // lanes for the wire; without a plan this is a no-op branch.
            // Partitions are enforced by `maintain_links` instead (a frame
            // racing the sever must not die), and `start_with_faults`
            // refuses the verdicts that would hold a frame back.
            let copies = match faults.as_mut().map(|f| f.judge_frame(from, peer)) {
                None
                | Some(
                    LinkFault::Pass
                    | LinkFault::Partitioned
                    | LinkFault::Delayed(_)
                    | LinkFault::Reordered,
                ) => 1,
                Some(LinkFault::Dropped) => {
                    stats.frames_dropped.fetch_add(1, Ordering::Relaxed);
                    0
                }
                Some(LinkFault::Duplicated) => {
                    stats.frames_duplicated.fetch_add(1, Ordering::Relaxed);
                    2
                }
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
    use crate::codec::write_frame;
    use crate::handoff::Collector;
    use crate::netfault::NetFaultReport;
    use crate::poll::wake_channel;
    use crate::queue::tests::{Blob, Classed};
    use crate::queue::MAX_OUTBOUND_FRAMES;
    use iabc_runtime::Context;
    use std::io::{Read, Write};
    use std::marker::PhantomData;

    /// The loop under test in most rigs; it dials [`PEER`].
    const ME: ProcessId = ProcessId::new(0);
    /// The other process, played by the test (or, in an accepting rig,
    /// the loop, dialed by the test as [`ME`]).
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
    /// loop over the production topology, with the test playing the
    /// application and the peer.
    struct Rig<M> {
        handle: EventLoopHandle,
        commands: Arc<Inbox<Vec<(ProcessId, M)>>>,
        /// One batch per pass, as the loop releases them.
        outputs: Collector<(ProcessId, M)>,
        /// The loop's listener: connect here to feed the loop frames.
        addr: SocketAddr,
        stats: Arc<NetFaultStats>,
    }

    impl<M> Rig<M>
    where
        M: Clone + std::fmt::Debug + Encode + Decode + WireSize + Send + 'static,
    {
        /// Starts the loop as [`ME`] on a fresh listener of its own.
        /// With `peer`, the loop has a link to [`PEER`] and dials that
        /// listener for it; [`accept_hello`] gives the test the peer's end.
        fn start(peer: Option<&TcpListener>, faults: Option<NetFaultPlan>) -> Rig<M> {
            let peers = peer.map(|l| (PEER, l.local_addr().unwrap())).into_iter().collect();
            Rig::start_as(ME, peers, faults)
        }

        fn start_as(
            me: ProcessId,
            peers: Vec<(ProcessId, SocketAddr)>,
            faults: Option<NetFaultPlan>,
        ) -> Rig<M> {
            let listener = TcpListener::bind("127.0.0.1:0").unwrap();
            listener.set_nonblocking(true).unwrap();
            let addr = listener.local_addr().unwrap();
            let stats = Arc::new(NetFaultStats::default());
            let (wake_tx, wake_rx) = wake_channel().unwrap();
            let commands = Arc::new(Inbox::new());
            let outputs = Collector::new();
            let handle = spawn(
                Process {
                    me,
                    n: 2,
                    epoch: Instant::now(),
                    node: Relay(PhantomData),
                    commands: Arc::clone(&commands),
                    outputs: outputs.producer(),
                },
                LoopTopology { listener, peers, faults, stats: Arc::clone(&stats) },
                wake_rx,
                Arc::new(Waker::new(wake_tx)),
            );
            Rig { handle, commands, outputs, addr, stats }
        }

        /// A loop whose link to [`PEER`] is up, and the peer's end of it,
        /// read past the hello.
        fn dialed() -> (Rig<M>, TcpStream) {
            let peer = TcpListener::bind("127.0.0.1:0").unwrap();
            let rig = Rig::start(Some(&peer), None);
            (rig, accept_hello(&peer))
        }

        /// A loop running as [`PEER`], whose link to [`ME`] waits for
        /// [`ME`] to dial it: the test connects to [`Rig::addr`] and plays
        /// [`ME`]. The listener address it is given for [`ME`] is never
        /// dialed.
        fn accepting() -> Rig<M> {
            let unused = TcpListener::bind("127.0.0.1:0").unwrap().local_addr().unwrap();
            Rig::start_as(PEER, vec![(ME, unused)], None)
        }

        /// The next output, batches flattened; `None` if none arrives
        /// within `timeout`.
        fn output(&mut self, timeout: StdDuration) -> Option<NetOutput<(ProcessId, M)>> {
            self.outputs.gather(1, timeout).pop()
        }

        /// One command: send `frames` to `to`, in this order.
        fn send(&self, to: ProcessId, frames: impl IntoIterator<Item = M>) {
            self.commands.push(frames.into_iter().map(|m| (to, m)).collect());
            self.handle.waker.wake();
        }

        fn stop(self) {
            self.handle.stop();
            self.handle.join();
        }
    }

    /// Accepts the loop's dial on `listener` and reads the hello that
    /// opens the stream: exactly [`ME`]'s, and nothing past it.
    fn accept_hello(listener: &TcpListener) -> TcpStream {
        listener.set_nonblocking(false).unwrap();
        let (mut theirs, _) = listener.accept().unwrap();
        let mut first = [0u8; HELLO_LEN];
        theirs.read_exact(&mut first).unwrap();
        assert_eq!(first, hello(ME), "a dialed stream must open with the dialer's hello");
        theirs
    }

    /// Reads frames from [`ME`] off the peer's end, `chunk` bytes at most
    /// per read, until `done` says stop; decodes them as a receiving loop
    /// does.
    fn read_frames<M: Decode + WireSize>(
        theirs: &mut TcpStream,
        chunk: usize,
        done: impl FnMut(&[M]) -> bool,
    ) -> Vec<M> {
        read_frames_from(ME, theirs, chunk, done)
    }

    /// [`read_frames`] for frames sent by `from`.
    fn read_frames_from<M: Decode + WireSize>(
        from: ProcessId,
        theirs: &mut TcpStream,
        chunk: usize,
        mut done: impl FnMut(&[M]) -> bool,
    ) -> Vec<M> {
        let pool = BufferPool::new();
        let mut frames = RecvBuffer::new(&pool);
        let mut got: Vec<M> = Vec::new();
        while !done(&got) {
            let read = theirs.read(&mut frames.spare(chunk)[..chunk]).unwrap();
            assert!(read > 0, "stream closed before the frames arrived");
            frames.commit(read);
            while let Some(t) = frames.next_frame::<TaggedOwned<M>>().unwrap() {
                assert_eq!(t.from, from);
                got.push(t.msg);
            }
        }
        got
    }

    #[test]
    fn outbound_batch_drains_ordering_ahead_of_bulk_over_the_wire() {
        let (rig, mut theirs) = Rig::<Classed>::dialed();
        // One handler call, so the whole burst is one batch.
        rig.send(PEER, [2, 4, 1, 6, 3, 8, 5].map(Classed));
        let got = read_frames::<Classed>(&mut theirs, 4096, |got| got.len() == 7);
        let got: Vec<u32> = got.iter().map(|c| c.0).collect();
        assert_eq!(got, vec![1, 3, 5, 2, 4, 6, 8], "ordering lane must drain first");
        rig.stop();
    }

    #[test]
    fn corrupt_inbound_frame_tears_the_connection_after_delivering_the_good_prefix() {
        let mut rig: Rig<Classed> = Rig::accepting();
        let mut theirs = TcpStream::connect(rig.addr).unwrap();
        theirs.write_all(&hello(ME)).unwrap();
        write_frame(&Tagged { from: ME, msg: &Classed(42) }, &mut theirs).unwrap();
        // A malformed frame: the length prefix says 2 bytes, which can
        // never decode as a Tagged<Classed>.
        theirs.write_all(&2u32.to_le_bytes()).unwrap();
        theirs.write_all(&[0xAB, 0xCD]).unwrap();
        // A good frame after the corruption must never be delivered (the
        // loop may already have torn the socket down — ignore errors).
        let _ = write_frame(&Tagged { from: ME, msg: &Classed(7) }, &mut theirs);

        let first = rig.output(StdDuration::from_secs(5)).unwrap();
        assert_eq!(first.output, (ME, Classed(42)));
        assert!(
            rig.output(StdDuration::from_secs(2)).is_none(),
            "no frame may be delivered after a decode error"
        );
        rig.stop();
    }

    #[test]
    fn writer_death_reconnects_through_the_peer_listener_and_drains_the_parked_backlog() {
        // The peer: a listener we control. The first connection is torn
        // down by "the peer" mid-run; the loop must flip the lanes into
        // down-mode, redial our listener, and flush the ordering frames
        // parked while the link was down.
        let peer_listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let rig: Rig<Classed> = Rig::start(Some(&peer_listener), None);
        let their_end = accept_hello(&peer_listener);

        // Kill the peer end: the loop reads EOF (or its next write hits
        // EPIPE/RST).
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
        let mut first = [0u8; HELLO_LEN];
        accepted.read_exact(&mut first).unwrap();
        assert_eq!(first, hello(ME), "the redial opens with a hello too");
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
        assert!(rig.stats.report().reconnects >= 1);
        rig.stop();
    }

    #[test]
    fn partition_window_severs_the_link_and_heals_after_it_closes() {
        // A fault-plan partition that opens after the first dial: the
        // loop must kill its own healthy connection when the window
        // opens, refuse to redial inside the window, and reconnect after
        // it closes.
        let peer_listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let plan = NetFaultPlan::new(11).partition(
            ME,
            PEER,
            Duration::from_millis(150),
            Duration::from_millis(500),
        );
        let started = Instant::now();
        let rig: Rig<Classed> = Rig::start(Some(&peer_listener), Some(plan));
        let mut their_end = accept_hello(&peer_listener);
        assert_eq!(rig.stats.report().links_severed, 0, "severed before the window opened");

        // The severance arrives within a few ticks: our end sees EOF.
        their_end.set_read_timeout(Some(StdDuration::from_secs(5))).unwrap();
        let mut sink = [0u8; 64];
        let eof_at = loop {
            match their_end.read(&mut sink) {
                Ok(0) => break started.elapsed(),
                Ok(_) => continue,
                Err(e) => panic!("expected EOF from the severed link, got {e}"),
            }
        };
        assert!(eof_at >= StdDuration::from_millis(150), "severed before the window: {eof_at:?}");
        assert_eq!(rig.stats.report().links_severed, 1);
        // The redial may only land after the window closes.
        let mut healed = accept_hello(&peer_listener);
        let healed_at = started.elapsed();
        assert!(
            healed_at >= StdDuration::from_millis(450),
            "redial landed inside the partition window ({healed_at:?}, eof at {eof_at:?})"
        );
        // Frames flow again on the healed link.
        rig.send(PEER, [Classed(5)]);
        read_frames::<Classed>(&mut healed, 1024, |got| got.contains(&Classed(5)));
        assert_eq!(rig.stats.report().reconnects, 1);
        rig.stop();
    }

    #[test]
    fn a_severed_link_still_delivers_every_frame_its_peer_handed_the_kernel() {
        // The peer streams frames across the moment a partition window
        // opens and the loop severs the link. The loop ends only its
        // sending half: every frame the peer's kernel accepted, before or
        // after the cut, is still read and handled until the peer's EOF.
        let peer_listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let window = (Duration::from_millis(150), Duration::from_millis(60_000));
        let plan = NetFaultPlan::new(13).partition(ME, PEER, window.0, window.1);
        let started = Instant::now();
        let mut rig: Rig<Blob> = Rig::start(Some(&peer_listener), Some(plan));
        let mut theirs = accept_hello(&peer_listener);
        // Bursts paced over the first 300 ms, so the stream spans the cut.
        let mut written = 0u32;
        'stream: while started.elapsed() < StdDuration::from_millis(300) {
            for _ in 0..100 {
                let frame = Tagged { from: PEER, msg: &Blob { id: 2 * written, len: 64 } };
                if write_frame(&frame, &mut theirs).is_err() {
                    break 'stream;
                }
                written += 1;
            }
            std::thread::sleep(StdDuration::from_millis(1));
        }
        let _ = theirs.shutdown(Shutdown::Write);
        assert_eq!(rig.stats.report().links_severed, 1, "the window never cut the link");
        let mut got = 0;
        while got < written {
            let Some(out) = rig.output(StdDuration::from_secs(5)) else { break };
            assert_eq!(out.output, (PEER, Blob { id: 2 * got, len: 64 }));
            got += 1;
        }
        assert_eq!(got, written, "frames the peer's kernel had accepted were lost");
        rig.stop();
    }

    #[test]
    fn an_accepted_connection_carries_both_directions_after_its_hello() {
        // The test dials the loop as the lower id: hello and first frame
        // in one write. The loop adopts the stream as its link to ME,
        // reads the frame behind the hello, and sends back on the same
        // stream.
        let mut rig: Rig<Classed> = Rig::accepting();
        let mut theirs = TcpStream::connect(rig.addr).unwrap();
        let mut opening = hello(ME).to_vec();
        write_frame_into(&Tagged { from: ME, msg: &Classed(21) }, &mut opening).unwrap();
        theirs.write_all(&opening).unwrap();
        let got = rig.output(StdDuration::from_secs(5)).unwrap();
        assert_eq!(got.output, (ME, Classed(21)));
        rig.send(ME, [Classed(22), Classed(23)]);
        let back = read_frames_from::<Classed>(PEER, &mut theirs, 4096, |got| got.len() == 2);
        assert_eq!(back, [Classed(23), Classed(22)], "ordering lane first");
        let report = rig.stats.report();
        assert_eq!(report, NetFaultReport::default(), "a first adoption is no reconnect");
        rig.stop();
    }

    #[test]
    fn a_refused_hello_is_shut_down_and_never_adopted() {
        // PEER's loop accepts links from ME only. A stream that names
        // the loop itself is shut down; one that names ME afterwards is
        // adopted as the link's first connection.
        let mut rig: Rig<Classed> = Rig::accepting();
        let mut impostor = TcpStream::connect(rig.addr).unwrap();
        impostor.write_all(&hello(PEER)).unwrap();
        let _ = write_frame(&Tagged { from: PEER, msg: &Classed(1) }, &mut impostor);
        impostor.set_read_timeout(Some(StdDuration::from_secs(5))).unwrap();
        let read = impostor.read(&mut [0u8; 16]).unwrap_or(0);
        assert_eq!(read, 0, "a refused stream must be shut down");
        let output = rig.output(StdDuration::from_millis(100));
        assert!(output.is_none(), "nothing behind a refused hello is read");
        let mut theirs = TcpStream::connect(rig.addr).unwrap();
        theirs.write_all(&hello(ME)).unwrap();
        write_frame(&Tagged { from: ME, msg: &Classed(3) }, &mut theirs).unwrap();
        assert_eq!(rig.output(StdDuration::from_secs(5)).unwrap().output, (ME, Classed(3)));
        assert_eq!(rig.stats.report().reconnects, 0);
        rig.stop();
    }

    /// A hello frame with an arbitrary length prefix and id.
    fn hello_bytes(len: u32, id: u16) -> Vec<u8> {
        [len.to_le_bytes().as_slice(), id.to_le_bytes().as_slice()].concat()
    }

    #[test]
    fn an_exact_hello_from_a_lower_id_is_adopted_once_whole() {
        let me = ProcessId::new(2);
        let bytes = hello(ProcessId::new(1));
        for cut in 0..HELLO_LEN {
            assert_eq!(judge_hello(&bytes[..cut], me), Hello::Incomplete, "cut at {cut}");
        }
        assert_eq!(judge_hello(&bytes, me), Hello::From(ProcessId::new(1)));
        assert_eq!(judge_hello(&hello(ProcessId::new(0)), me), Hello::From(ProcessId::new(0)));
    }

    #[test]
    fn a_hello_of_another_length_is_refused() {
        let me = ProcessId::new(2);
        for len in [0, 1, 3, 4, 2 << 16] {
            let bytes = hello_bytes(len, 1);
            // The length alone condemns it: no need to wait for the id.
            assert_eq!(judge_hello(&bytes[..4], me), Hello::Refused, "length {len}");
            assert_eq!(judge_hello(&bytes, me), Hello::Refused, "length {len}");
        }
    }

    #[test]
    fn a_data_frame_in_place_of_the_hello_is_refused() {
        let mut frame = Vec::new();
        write_frame_into(&Tagged { from: ME, msg: &Classed(5) }, &mut frame).unwrap();
        assert_eq!(judge_hello(&frame[..HELLO_LEN], PEER), Hello::Refused);
    }

    #[test]
    fn a_hello_naming_ourselves_is_refused() {
        assert_eq!(judge_hello(&hello(PEER), PEER), Hello::Refused);
    }

    #[test]
    fn a_hello_naming_a_process_we_dial_is_refused() {
        // Only the lower id of a pair dials: a higher one never should.
        assert_eq!(judge_hello(&hello(ProcessId::new(3)), ProcessId::new(2)), Hello::Refused);
    }

    #[test]
    fn a_hello_naming_no_process_of_the_cluster_is_refused() {
        // n = 3: ids 3 and up name nobody.
        let me = ProcessId::new(2);
        for id in [3, 7, u16::MAX] {
            assert_eq!(judge_hello(&hello_bytes(2, id), me), Hello::Refused, "id {id}");
        }
    }

    #[test]
    fn shutdown_never_hangs_on_a_peer_that_stopped_reading() {
        // The peer end exists but never reads: our write eventually
        // WouldBlocks with a parked remainder. stop() must still return
        // promptly — the backlog to a dead peer is dropped, not awaited.
        let (rig, theirs) = Rig::<Blob>::dialed();
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
        let (rig, mut theirs) = Rig::<Blob>::dialed();
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
        let (rig, mut theirs) = Rig::<Classed>::dialed();
        theirs.set_nodelay(true).unwrap();
        let total = 500u32;
        let (commands, waker) = (Arc::clone(&rig.commands), Arc::clone(&rig.handle.waker));
        std::thread::scope(|s| {
            s.spawn(move || {
                for v in 0..total {
                    commands.push(vec![(PEER, Classed(v))]);
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
        // From then on the loop must leave commands where they are —
        // and keep reading the same connection's inbound direction, or
        // two such loops would deadlock each other.
        let (mut rig, mut theirs) = Rig::<Blob>::dialed();
        let mut their_out = theirs.try_clone().unwrap();
        rig.send(PEER, (0..4).map(|i| Blob { id: 2 * i, len: 8 << 20 }));
        // The first bytes are out, so that batch is being written and the
        // frames of the next command queue up behind it.
        theirs.peek(&mut [0u8; 1]).unwrap();
        let filler = MAX_OUTBOUND_FRAMES as u32;
        rig.send(PEER, (0..filler).map(|i| Blob { id: 100 + 2 * i, len: 0 }));
        // Commands whose effect is visible here: self-sends, which the
        // relay reports as outputs. The first is taken and held, the
        // others wait in the inbox behind it.
        let markers = [7, 9, 11].map(|id| Blob { id, len: 0 });
        for marker in &markers {
            rig.send(ME, [marker.clone()]);
        }
        // Inbound frames are still read and handled...
        for id in [21, 23] {
            write_frame(&Tagged { from: PEER, msg: &Blob { id, len: 0 } }, &mut their_out).unwrap();
            let out = rig.output(StdDuration::from_secs(5)).unwrap();
            assert_eq!(out.output, (PEER, Blob { id, len: 0 }), "the held-back command ran");
        }
        // ...while the commands stay where they are.
        assert!(rig.output(StdDuration::from_millis(100)).is_none());
        // The peer drains: everything arrives in order, and the commands
        // are taken, in send order.
        let got = read_frames::<Blob>(&mut theirs, 1 << 20, |got| got.len() == 4 + filler as usize);
        let got = got.iter().map(|b| b.id);
        assert!(got.eq((0..4).map(|i| 2 * i).chain((0..filler).map(|i| 100 + 2 * i))));
        for marker in markers {
            let out = rig.output(StdDuration::from_secs(5)).unwrap();
            assert_eq!(out.output, (ME, marker));
        }
        rig.stop();
    }

    #[test]
    fn a_pass_releases_its_outputs_as_one_batch_after_its_frames_are_written() {
        // One command: a frame for the peer, then three self-sends the
        // relay reports as outputs. All four effects belong to one pass.
        let (mut rig, mut theirs) = Rig::<Classed>::dialed();
        let sends = [(PEER, 1), (ME, 3), (ME, 5), (ME, 7)].map(|(to, v)| (to, Classed(v)));
        rig.commands.push(sends.to_vec());
        rig.handle.waker.wake();
        // The batch is whole and in emission order.
        let batch = rig.outputs.next_take(StdDuration::from_secs(5));
        let got: Vec<_> = batch.into_iter().map(|o| o.output).collect();
        assert_eq!(got, [3, 5, 7].map(|v| (ME, Classed(v))));
        // It was released after the flush: the pass's frame is with the
        // peer already, no wait needed.
        theirs.set_nonblocking(true).unwrap();
        let pool = BufferPool::new();
        let mut frames = RecvBuffer::new(&pool);
        let read = theirs
            .read(frames.spare(256))
            .expect("an output overtook the frame its pass wrote");
        frames.commit(read);
        let frame = frames.next_frame::<TaggedOwned<Classed>>().unwrap();
        assert_eq!(frame.map(|t| t.msg), Some(Classed(1)));
        rig.stop();
    }

    #[test]
    fn every_wait_returns_at_once_after_the_loop_stopped() {
        let Rig { handle, mut outputs, .. } = Rig::<Classed>::start(None, None);
        handle.stop();
        handle.join();
        let started = Instant::now();
        // As `run_for` and `wait_for_outputs` wait.
        assert!(outputs.gather(usize::MAX, StdDuration::from_secs(30)).is_empty());
        assert!(outputs.gather(1, StdDuration::MAX).is_empty());
        assert!(started.elapsed() < StdDuration::from_secs(5), "a wait outlived the loop");
    }

    #[test]
    fn a_parked_loop_gets_one_wake_byte_however_many_wakes_arrive() {
        let (tx, mut rx) = wake_channel().unwrap();
        let waker = Waker::new(tx);
        // The loop parks; a burst of commands arrives.
        assert!(waker.announce_sleep(), "nothing pending, so the park goes ahead");
        for _ in 0..100 {
            waker.wake();
        }
        assert_eq!(rx.drain_wakes(), 1, "only the wake that raised the signal writes");
        // The loop wakes up and consumes the signal: the next park's
        // first wake must write again, or that wake-up would be lost.
        waker.finish_sleep();
        assert!(waker.take_signal());
        assert!(waker.announce_sleep());
        waker.wake();
        waker.wake();
        assert_eq!(rx.drain_wakes(), 1);
        waker.finish_sleep();
        assert!(waker.take_signal());
        // A wake that lands before the park is announced aborts it, and
        // costs no byte: the loop sees the signal on its way down.
        waker.wake();
        assert!(!waker.announce_sleep(), "a pending signal must abort the park");
        waker.wake();
        assert_eq!(rx.drain_wakes(), 0);
        assert!(waker.take_signal());
        assert!(!waker.take_signal());
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
            let (rig, mut theirs) = Rig::<Blob>::dialed();
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

//! The traced run: a single-threaded executor owned by the benchmark.
//!
//! It hosts the same `AbcastNode`s as the real cluster through the public
//! `iabc_runtime::Node` trait, replaces each socket with an in-memory FIFO
//! that still pushes every remote `Action::Send` through
//! `codec::write_frame_into` → bytes → `RecvBuffer::next_frame`, and
//! records a span around every call into a layer. One thread on one FIFO
//! schedule with a virtual clock (1 µs per step) means every *count* it
//! reports repeats exactly for a given seed; its *times* are CPU time of
//! the called code only — no sockets, no wake-ups, no waiting — and are
//! never mixed into the end-to-end numbers.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

use iabc_core::{AbcastCommand, AbcastEvent, Envelope};
use iabc_net::codec::{write_frame_into, RecvBuffer, Tagged, TaggedOwned};
use iabc_net::BufferPool;
use iabc_runtime::{Action, Context, Node, TimerId};
use iabc_types::{Decode, Encode, ProcessId, Time};

use crate::gen::Generator;
use crate::oracle::Oracle;

/// "No span": the parent of a root span, and every index when spans are off.
pub const NO_SPAN: u32 = u32::MAX;

/// Virtual nanoseconds per executor step.
const STEP_NS: u64 = 1_000;

/// Spans reserved per replayed message (the serial workloads record ~70).
const SPANS_PER_MSG: usize = 80;

/// A replay that has not finished after this many steps is wedged.
const MAX_STEPS: u64 = 2_000_000_000;

/// What a span is about, so the spans of one request can be joined.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpanId {
    None,
    /// An application message (`Envelope::Bcast` frames, `on_command`).
    Msg {
        sender: u16,
        seq: u64,
    },
    /// A consensus instance (`Envelope::Cons` frames).
    Instance(u64),
}

/// One call into a layer.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub process: u16,
    pub start_ns: u64,
    pub end_ns: u64,
    /// The span that caused this one: a handler for the frames it sent,
    /// a frame's encode for its decode, its decode for its handler.
    pub parent: u32,
    pub id: SpanId,
}

struct Tracer {
    on: bool,
    t0: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    fn begin(&self) -> u64 {
        if self.on {
            self.t0.elapsed().as_nanos() as u64
        } else {
            0
        }
    }

    fn end(
        &mut self,
        name: &'static str,
        p: ProcessId,
        start_ns: u64,
        parent: u32,
        id: SpanId,
    ) -> u32 {
        if !self.on {
            return NO_SPAN;
        }
        let end_ns = self.t0.elapsed().as_nanos() as u64;
        self.spans.push(Span {
            name,
            process: p.index(),
            start_ns,
            end_ns,
            parent,
            id,
        });
        (self.spans.len() - 1) as u32
    }
}

/// Counts taken at the same boundaries as the spans. Frame and byte
/// counts are of framed wire bytes (length prefix and sender tag included).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counts {
    pub msgs: u64,
    pub actions: u64,
    pub bcast_frames: u64,
    pub bcast_bytes: u64,
    pub cons_frames: u64,
    pub cons_bytes: u64,
    /// Failure-detector and catch-up frames.
    pub other_frames: u64,
    /// Highest consensus instance seen on the wire.
    pub instances: u64,
}

#[derive(Debug)]
pub struct Trace {
    pub spans: Vec<Span>,
    pub counts: Counts,
    /// Wall time of the whole replay, ns.
    pub wall_ns: u64,
}

/// The layer an envelope arm belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Layer {
    Broadcast,
    Consensus,
    Fd,
    CatchUp,
}

impl Layer {
    /// Name of the span around `on_message` for a frame of this layer.
    fn handler(self) -> &'static str {
        match self {
            Layer::Broadcast => "broadcast.on_message",
            Layer::Consensus => "consensus.on_message",
            Layer::Fd => "fd.on_message",
            Layer::CatchUp => "core.catch_up",
        }
    }
}

/// The layer and request a frame belongs to, after peeling the frontier
/// wrapper.
fn classify<V>(msg: &Envelope<V>) -> (Layer, SpanId) {
    match msg {
        Envelope::WithFrontier { inner, .. } => classify(inner),
        Envelope::Bcast(b) => {
            let id = b.app_message().id();
            (
                Layer::Broadcast,
                SpanId::Msg {
                    sender: id.sender().index(),
                    seq: id.seq(),
                },
            )
        }
        Envelope::Cons { k, .. } => (Layer::Consensus, SpanId::Instance(*k)),
        Envelope::Fd(_) => (Layer::Fd, SpanId::None),
        Envelope::CatchUpRequest { .. } | Envelope::CatchUpReply { .. } => {
            (Layer::CatchUp, SpanId::None)
        }
    }
}

enum Event<M> {
    /// A frame sits encoded in the `from → to` link buffer.
    Frame {
        from: ProcessId,
        to: ProcessId,
        cause: u32,
    },
    /// A self-send: handed over in memory, as the real cluster does.
    Local { p: ProcessId, msg: M, cause: u32 },
}

struct Executor<'g, V, N> {
    nodes: Vec<N>,
    /// `links[to][from]`: the receive side of the `from → to` connection.
    links: Vec<Vec<RecvBuffer>>,
    scratch: Vec<u8>,
    queue: VecDeque<Event<Envelope<V>>>,
    timers: BinaryHeap<Reverse<(u64, u64, u16, TimerId)>>,
    timer_seq: u64,
    steps: u64,
    tracer: Tracer,
    counts: Counts,
    gen: &'g mut Generator,
    oracle: Oracle,
    first_index: u64,
    missing: Vec<u8>,
    in_flight: usize,
}

impl<V, N> Executor<'_, V, N>
where
    N: Node<Msg = Envelope<V>, Command = AbcastCommand, Output = AbcastEvent>,
    Envelope<V>: Encode + Decode,
{
    fn ctx(&self, p: ProcessId) -> Context<Envelope<V>, AbcastEvent> {
        Context::new(p, self.nodes.len(), Time::from_nanos(self.steps * STEP_NS))
    }

    /// Performs the actions a handler at `p` (span `cause`) produced.
    fn apply(
        &mut self,
        p: ProcessId,
        ctx: &mut Context<Envelope<V>, AbcastEvent>,
        cause: u32,
    ) -> Result<(), String> {
        for action in ctx.take_actions() {
            self.counts.actions += 1;
            match action {
                Action::Send { to, msg } if to == p => {
                    self.queue.push_back(Event::Local { p, msg, cause });
                }
                Action::Send { to, msg } => {
                    let (layer, id) = classify(&msg);
                    self.scratch.clear();
                    let t = self.tracer.begin();
                    write_frame_into(&Tagged { from: p, msg: &msg }, &mut self.scratch)
                        .map_err(|e| format!("encode: {e}"))?;
                    let span = self.tracer.end("net.encode", p, t, cause, id);
                    let bytes = self.scratch.len() as u64;
                    match layer {
                        Layer::Broadcast => {
                            self.counts.bcast_frames += 1;
                            self.counts.bcast_bytes += bytes;
                        }
                        Layer::Consensus => {
                            self.counts.cons_frames += 1;
                            self.counts.cons_bytes += bytes;
                            if let SpanId::Instance(k) = id {
                                self.counts.instances = self.counts.instances.max(k);
                            }
                        }
                        Layer::Fd | Layer::CatchUp => self.counts.other_frames += 1,
                    }
                    // The socket: bytes land in the receiver's pooled buffer.
                    let link = &mut self.links[to.as_usize()][p.as_usize()];
                    link.spare(self.scratch.len())[..self.scratch.len()]
                        .copy_from_slice(&self.scratch);
                    link.commit(self.scratch.len());
                    self.queue.push_back(Event::Frame {
                        from: p,
                        to,
                        cause: span,
                    });
                }
                Action::SetTimer { delay, timer } => {
                    let due = self.steps * STEP_NS + delay.as_nanos();
                    self.timer_seq += 1;
                    self.timers
                        .push(Reverse((due, self.timer_seq, p.index(), timer)));
                }
                Action::Work { .. } => {}
                Action::Output(AbcastEvent::Broadcast { .. }) => {}
                Action::Output(AbcastEvent::Delivered { msg }) => {
                    let index = self.oracle.on_deliver(self.gen, p, &msg)?;
                    let slot = (index - self.first_index) as usize;
                    self.missing[slot] -= 1;
                    if self.missing[slot] == 0 {
                        self.in_flight -= 1;
                    }
                }
            }
        }
        Ok(())
    }

    fn deliver(
        &mut self,
        from: ProcessId,
        to: ProcessId,
        msg: Envelope<V>,
        cause: u32,
    ) -> Result<(), String> {
        let (layer, id) = classify(&msg);
        let mut ctx = self.ctx(to);
        let t = self.tracer.begin();
        self.nodes[to.as_usize()].on_message(from, msg, &mut ctx);
        let span = self.tracer.end(layer.handler(), to, t, cause, id);
        self.apply(to, &mut ctx, span)
    }

    fn handle(&mut self, event: Event<Envelope<V>>) -> Result<(), String> {
        match event {
            Event::Local { p, msg, cause } => self.deliver(p, p, msg, cause),
            Event::Frame { from, to, cause } => {
                let link = &mut self.links[to.as_usize()][from.as_usize()];
                let t = self.tracer.begin();
                let frame = link
                    .next_frame::<TaggedOwned<Envelope<V>>>()
                    .map_err(|e| format!("decode: {e}"))?
                    .ok_or("a queued frame was not in its link buffer")?;
                let (_, id) = classify(&frame.msg);
                let span = self.tracer.end("net.decode", to, t, cause, id);
                self.deliver(frame.from, to, frame.msg, span)
            }
        }
    }

    fn broadcast_next(&mut self) -> Result<(), String> {
        let (_, sender, payload) = self.gen.next_message();
        // n <= 3.
        self.missing.push(self.nodes.len() as u8);
        self.in_flight += 1;
        self.counts.msgs += 1;
        let mut ctx = self.ctx(sender);
        let t = self.tracer.begin();
        self.nodes[sender.as_usize()].on_command(AbcastCommand::Broadcast(payload), &mut ctx);
        let span = self
            .tracer
            .end("core.on_command", sender, t, NO_SPAN, SpanId::None);
        self.apply(sender, &mut ctx, span)
    }

    fn fire_due_timers(&mut self) -> Result<(), String> {
        while self
            .timers
            .peek()
            .is_some_and(|Reverse(t)| t.0 <= self.steps * STEP_NS)
        {
            let Some(Reverse((_, _, p, timer))) = self.timers.pop() else {
                break;
            };
            let p = ProcessId::new(p);
            let mut ctx = self.ctx(p);
            let t = self.tracer.begin();
            self.nodes[p.as_usize()].on_timer(timer, &mut ctx);
            let span = self
                .tracer
                .end("core.on_timer", p, t, NO_SPAN, SpanId::None);
            self.apply(p, &mut ctx, span)?;
        }
        Ok(())
    }

    fn run(&mut self, count: u64, outstanding: usize) -> Result<(), String> {
        for i in 0..self.nodes.len() {
            // i < n <= 3.
            let p = ProcessId::new(i as u16);
            let mut ctx = self.ctx(p);
            self.nodes[i].on_start(&mut ctx);
            self.apply(p, &mut ctx, NO_SPAN)?;
        }
        let mut sent = 0;
        loop {
            self.steps += 1;
            if self.steps > MAX_STEPS {
                return Err(format!(
                    "traced replay wedged with {} messages in flight",
                    self.in_flight
                ));
            }
            self.fire_due_timers()?;
            if sent < count && self.in_flight < outstanding {
                self.broadcast_next()?;
                sent += 1;
            } else if let Some(event) = self.queue.pop_front() {
                self.handle(event)?;
            } else if sent == count && self.in_flight == 0 {
                return Ok(());
            } else if let Some(Reverse(next)) = self.timers.peek() {
                // Idle but incomplete: only a timer can make progress.
                self.steps = self.steps.max(next.0 / STEP_NS);
            } else {
                return Err(format!(
                    "traced replay stalled with {} messages in flight",
                    self.in_flight
                ));
            }
        }
    }
}

/// Replays `count` generated messages, `outstanding` in flight, through
/// `n` nodes of `factory` on one thread. With `spans_on == false` nothing
/// is recorded and no clock is read: the two wall times differ by the
/// tracing overhead.
pub fn replay<V, N>(
    n: usize,
    factory: impl FnMut(ProcessId) -> N,
    gen: &mut Generator,
    count: u64,
    outstanding: usize,
    spans_on: bool,
) -> Result<Trace, String>
where
    N: Node<Msg = Envelope<V>, Command = AbcastCommand, Output = AbcastEvent>,
    Envelope<V>: Encode + Decode,
{
    let pool = BufferPool::new();
    let oracle = Oracle::new(n, gen);
    let first_index = gen.generated();
    let t0 = Instant::now();
    let mut ex = Executor {
        nodes: ProcessId::all(n).map(factory).collect(),
        links: (0..n)
            .map(|_| (0..n).map(|_| RecvBuffer::new(&pool)).collect())
            .collect(),
        scratch: Vec::new(),
        queue: VecDeque::new(),
        timers: BinaryHeap::new(),
        timer_seq: 0,
        steps: 0,
        // Room for every span up front: a growing Vec would copy itself
        // inside the spans it is recording.
        tracer: Tracer {
            on: spans_on,
            t0,
            spans: Vec::with_capacity(if spans_on {
                SPANS_PER_MSG * count as usize
            } else {
                0
            }),
        },
        counts: Counts::default(),
        gen,
        oracle,
        first_index,
        missing: Vec::new(),
        in_flight: 0,
    };
    ex.run(count, outstanding)?;
    let wall_ns = t0.elapsed().as_nanos() as u64;
    ex.oracle.finish()?;
    Ok(Trace {
        spans: ex.tracer.spans,
        counts: ex.counts,
        wall_ns,
    })
}

impl Trace {
    /// Total duration and number of the spans called `name`.
    pub fn total(&self, name: &str) -> (u64, u64) {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .fold((0, 0), |(ns, k), s| (ns + (s.end_ns - s.start_ns), k + 1))
    }

    /// Writes the spans as JSON lines.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = if s.parent == NO_SPAN {
                "null".to_string()
            } else {
                s.parent.to_string()
            };
            let id = match s.id {
                SpanId::None => "null".to_string(),
                SpanId::Msg { sender, seq } => format!("\"p{sender}#{seq}\""),
                SpanId::Instance(k) => format!("\"k{k}\""),
            };
            writeln!(
                out,
                "{{\"span\": {i}, \"name\": \"{}\", \"process\": {}, \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}, \"id\": {id}}}",
                s.name, s.process, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

//! The per-layer numbers of a `--trace 1` run that the real-stack epochs
//! cannot give: transport-only and single-node controls, the traced
//! replay's spans and counts, and timed loops over the data structures on
//! the message path.

use std::hint::black_box;
use std::path::Path;
use std::time::{Duration, Instant};

use iabc_core::{
    stacks, DecidedEntry, DecidedLog, DurableDecidedLog, MemDecidedLog, ReceivedStore,
};
use iabc_net::TcpCluster;
use iabc_runtime::{Context, Node};
use iabc_types::{
    AppMessage, CodecError, Decode, Encode, IdSet, MsgId, Payload, ProcessId, Time, WireSize,
};

use crate::gen::Generator;
use crate::measure::epoch;
use crate::realrun::Load;
use crate::report::Metrics;
use crate::stats::median;
use crate::trace::{replay, Trace};
use crate::workloads::{Stack, Workload, N};

/// Frames a flooding process sends each peer per command.
const FLOOD_BURST: u32 = 256;

/// Messages of the single-node control.
const SINGLE_NODE_MSGS: u64 = 50_000;

/// Traced and untraced replays are paired this many times; the overhead is
/// the median pair's.
const OVERHEAD_PAIRS: usize = 3;

/// One flood frame: a payload and nothing else, so the transport carries
/// the same bytes per frame as a reliable-broadcast data frame does.
#[derive(Debug, Clone)]
struct FloodFrame(Payload);

impl WireSize for FloodFrame {
    fn wire_size(&self) -> usize {
        self.0.wire_size()
    }
}

impl Encode for FloodFrame {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.0.encode(buf);
    }
}

impl Decode for FloodFrame {
    fn decode(buf: &mut &[u8]) -> Result<Self, CodecError> {
        Ok(FloodFrame(Payload::decode(buf)?))
    }
}

/// The trivial node of the transport-only control: a command sends one
/// burst to every peer; a receiver reports each whole burst it got.
struct Flood {
    payload: Payload,
    got: Vec<u32>,
}

impl Node for Flood {
    type Msg = FloodFrame;
    type Command = ();
    /// "A whole burst from this sender arrived here."
    type Output = ProcessId;

    fn on_command(&mut self, _cmd: (), ctx: &mut Context<FloodFrame, ProcessId>) {
        for _ in 0..FLOOD_BURST {
            ctx.send_to_others(FloodFrame(self.payload.clone()));
        }
    }

    fn on_message(
        &mut self,
        from: ProcessId,
        _msg: FloodFrame,
        ctx: &mut Context<FloodFrame, ProcessId>,
    ) {
        let got = &mut self.got[from.as_usize()];
        *got += 1;
        if got.is_multiple_of(FLOOD_BURST) {
            ctx.output(from);
        }
    }
}

/// What `TcpCluster` alone carries at this payload size: every process
/// floods both peers, two bursts in flight each, for `dur`. Returns
/// (frames/s, MiB/s) received, summed over the cluster.
fn flood(payload_len: usize, dur: Duration) -> (f64, f64) {
    let payload = Payload::zeroed(payload_len);
    let frame_bytes = 4 + 2 + payload.wire_size();
    let mut cluster = TcpCluster::start(N, |_| Flood {
        payload: payload.clone(),
        got: vec![0; N],
    });
    for p in ProcessId::all(N) {
        cluster.send_command(p, ());
        cluster.send_command(p, ());
    }
    let mut arrived = [0usize; N];
    let mut bursts = 0u64;
    let t0 = Instant::now();
    while t0.elapsed() < dur {
        for out in cluster.wait_for_outputs(1, Duration::from_millis(100)) {
            bursts += 1;
            let sender = out.output;
            arrived[sender.as_usize()] += 1;
            // Both peers have the burst: the sender may start another.
            if arrived[sender.as_usize()] % (N - 1) == 0 {
                cluster.send_command(sender, ());
            }
        }
    }
    let secs = t0.elapsed().as_secs_f64();
    cluster.shutdown();
    let frames = bursts as f64 * f64::from(FLOOD_BURST);
    (
        frames / secs,
        frames * frame_bytes as f64 / (1u64 << 20) as f64 / secs,
    )
}

/// The workload's stack at n = 1: the generator plus the protocol core,
/// no sockets. Completed messages per second.
fn single_node(w: &Workload, gen: &mut Generator) -> Result<f64, String> {
    let load = Load::Closed {
        outstanding: w.in_flight(),
        count: SINGLE_NODE_MSGS,
    };
    Ok(epoch(w, 1, Some(load), gen)?.throughput_msgs_s())
}

fn replay_workload(w: &Workload, seed: u64, spans_on: bool) -> Result<Trace, String> {
    // A fresh generator per replay: every replay sees the same inputs.
    let mut gen = Generator::new(seed, N, w.payload_len, w.senders);
    let params = w.params(N);
    match w.stack {
        Stack::IndirectCt => replay(
            N,
            |p| stacks::indirect_ct(p, &params),
            &mut gen,
            w.trace_count,
            w.in_flight(),
            spans_on,
        ),
        Stack::DirectCtMessages => replay(
            N,
            |p| stacks::direct_ct_messages(p, &params),
            &mut gen,
            w.trace_count,
            w.in_flight(),
            spans_on,
        ),
    }
}

fn app_messages(count: usize, payload_len: usize) -> Vec<AppMessage> {
    let payload = Payload::zeroed(payload_len);
    (0..count as u64)
        .map(|seq| {
            AppMessage::new(
                MsgId::new(ProcessId::new(0), seq),
                payload.clone(),
                Time::ZERO,
            )
        })
        .collect()
}

/// ns per `ReceivedStore::insert` + `get` of one message.
fn store_ns_per_msg(payload_len: usize) -> f64 {
    let msgs = app_messages(100_000, payload_len);
    let mut store = ReceivedStore::new();
    let t0 = Instant::now();
    for m in &msgs {
        store.insert(black_box(m.clone()));
    }
    for m in &msgs {
        black_box(store.get(black_box(m.id())));
    }
    t0.elapsed().as_nanos() as f64 / msgs.len() as f64
}

fn decided_entries(count: u64, batch: usize, payload_len: usize) -> Vec<DecidedEntry<IdSet>> {
    let payloads = app_messages(batch, payload_len);
    let value = IdSet::from_ids(payloads.iter().map(AppMessage::id));
    (1..=count)
        .map(|k| DecidedEntry {
            k,
            value: value.clone(),
            payloads: payloads.clone(),
        })
        .collect()
}

/// ns per `append` of one instance's entry (`batch` messages) to `log`.
fn append_ns(log: &mut dyn DecidedLog<IdSet>, entries: Vec<DecidedEntry<IdSet>>) -> f64 {
    let count = entries.len();
    let t0 = Instant::now();
    for e in entries {
        black_box(log.append(e));
    }
    t0.elapsed().as_nanos() as f64 / count as f64
}

/// ns per unsynced `DurableDecidedLog::append`, on a scratch file under
/// `out_dir` that is removed afterwards.
fn durable_append_ns(out_dir: &Path, batch: usize, payload_len: usize) -> Result<f64, String> {
    let path = out_dir.join(format!("durable-{}.log", std::process::id()));
    let _ = std::fs::remove_file(&path);
    // About 8 MiB of records, whatever the record size.
    let record = batch * (payload_len + 32);
    let count = ((8 << 20) / record).clamp(200, 5_000) as u64;
    let mut log = DurableDecidedLog::<IdSet>::open(&path)
        .map_err(|e| format!("open {}: {e}", path.display()))?;
    let ns = append_ns(&mut log, decided_entries(count, batch, payload_len));
    let err = log.io_error().map(str::to_string);
    drop(log);
    let _ = std::fs::remove_file(&path);
    match err {
        Some(e) => Err(format!("durable log append: {e}")),
        None => Ok(ns),
    }
}

/// ns per `IdSet::union` of two disjoint sets of `batch` identifiers.
fn idset_union_ns(batch: usize) -> f64 {
    let ids = |sender: u16| {
        IdSet::from_ids((0..batch as u64).map(|seq| MsgId::new(ProcessId::new(sender), seq)))
    };
    let (a, b) = (ids(0), ids(1));
    let rounds = 200_000;
    let t0 = Instant::now();
    for _ in 0..rounds {
        black_box(black_box(&a).union(black_box(&b)));
    }
    t0.elapsed().as_nanos() as f64 / f64::from(rounds)
}

/// Everything a `--trace 1` run adds to the outside-in layer metrics.
/// `throughput_msgs_s` is the real stack's, measured in this same run.
pub fn traced_layers(
    w: &Workload,
    seed: u64,
    seconds: f64,
    throughput_msgs_s: f64,
    out_dir: &Path,
) -> Result<(Metrics, Trace), String> {
    let mut m = Metrics::default();

    // Controls, once per payload size.
    let (flood_frames_s, flood_mib_s) = flood(
        w.payload_len,
        Duration::from_secs_f64((seconds * 0.1).max(0.5)),
    );
    m.push("net.flood_frames_s", flood_frames_s, "1/s");
    m.push("net.flood_mib_s", flood_mib_s, "MiB/s");
    let mut gen = Generator::new(seed, 1, w.payload_len, w.senders);
    m.push("core.single_node_msgs_s", single_node(w, &mut gen)?, "1/s");

    // The traced replay, paired with untraced ones for its overhead.
    let mut overheads = Vec::new();
    let mut traces = Vec::new();
    for _ in 0..OVERHEAD_PAIRS {
        let plain = replay_workload(w, seed, false)?;
        let traced = replay_workload(w, seed, true)?;
        if plain.counts != traced.counts {
            return Err(format!(
                "traced replay counts differ with spans on and off: {:?} vs {:?}",
                traced.counts, plain.counts
            ));
        }
        overheads.push(traced.wall_ns as f64 / plain.wall_ns as f64 - 1.0);
        traces.push(traced);
    }
    let traced = traces.pop().expect("OVERHEAD_PAIRS is at least 1");
    let c = traced.counts;
    let msgs = c.msgs as f64;
    let per_msg = |name: &str| traced.total(name).0 as f64 / msgs;
    m.push(
        "core.on_command_ns_per_msg",
        per_msg("core.on_command"),
        "ns",
    );
    m.push(
        "broadcast.on_message_ns_per_msg",
        per_msg("broadcast.on_message"),
        "ns",
    );
    m.push(
        "consensus.on_message_ns_per_msg",
        per_msg("consensus.on_message"),
        "ns",
    );
    m.push("runtime.actions_per_msg", c.actions as f64 / msgs, "count");
    m.push(
        "broadcast.frames_per_msg",
        c.bcast_frames as f64 / msgs,
        "count",
    );
    m.push(
        "broadcast.wire_bytes_per_msg",
        c.bcast_bytes as f64 / msgs,
        "B",
    );
    m.push(
        "consensus.frames_per_msg",
        c.cons_frames as f64 / msgs,
        "count",
    );
    m.push(
        "consensus.wire_bytes_per_msg",
        c.cons_bytes as f64 / msgs,
        "B",
    );
    let msgs_per_instance = msgs / c.instances as f64;
    m.push("consensus.msgs_per_instance", msgs_per_instance, "count");
    let (encode_ns, encoded) = traced.total("net.encode");
    let (decode_ns, decoded) = traced.total("net.decode");
    m.push(
        "net.encode_ns_per_frame",
        encode_ns as f64 / encoded as f64,
        "ns",
    );
    m.push(
        "net.decode_ns_per_frame",
        decode_ns as f64 / decoded as f64,
        "ns",
    );
    // Every remote frame's bytes are encoded once and decoded once.
    let wire_mib = (c.bcast_bytes + c.cons_bytes) as f64 / (1u64 << 20) as f64;
    m.push(
        "net.codec_mib_s",
        2.0 * wire_mib / ((encode_ns + decode_ns) as f64 / 1e9),
        "MiB/s",
    );
    m.push("harness.trace_overhead_frac", median(&overheads), "frac");
    let frames_per_msg = (c.bcast_frames + c.cons_frames) as f64 / msgs;
    m.push(
        "net.protocol_efficiency",
        throughput_msgs_s * frames_per_msg / flood_frames_s,
        "frac",
    );

    // Timed loops, at the batch size the replay observed.
    let batch = (msgs_per_instance.round() as usize).max(1);
    m.push(
        "core.store_ns_per_msg",
        store_ns_per_msg(w.payload_len),
        "ns",
    );
    let mut mem = MemDecidedLog::<IdSet>::new();
    m.push(
        "core.decided_append_ns",
        append_ns(&mut mem, decided_entries(20_000, batch, w.payload_len)),
        "ns",
    );
    m.push(
        "core.durable_append_ns",
        durable_append_ns(out_dir, batch, w.payload_len)?,
        "ns",
    );
    m.push("types.idset_union_ns", idset_union_ns(batch), "ns");
    Ok((m, traced))
}

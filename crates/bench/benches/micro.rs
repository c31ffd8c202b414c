//! Micro-benchmarks of the hot substrate paths: the wire codec, identifier
//! sets (the values indirect consensus shuffles around), the event queue
//! and the FIFO resources of the simulator, the two per-frame stages of
//! the TCP event loop (outbound lanes, in-place frame decode), one whole
//! fault-free consensus instance, and the a-deliver path's bookkeeping
//! (the received-message store, the ever-seen id ranges).

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use iabc_consensus::testing::LoopNet;
use iabc_consensus::{AlwaysHeld, CtIndirect};
use iabc_core::ReceivedStore;
use iabc_net::codec::{write_frame_into, RecvBuffer, Tagged, TaggedOwned};
use iabc_net::queue::Lanes;
use iabc_net::BufferPool;
use iabc_sim::queue::EventQueue;
use iabc_sim::resource::FifoResource;
use iabc_types::wire::{Decode, Encode};
use iabc_types::{
    quorum, AppMessage, CodecError, Duration, IdRanges, IdSet, MsgId, Payload, ProcessId, Time,
    TrafficClass, WireSize,
};

fn ids(n: u64) -> IdSet {
    IdSet::from_ids((0..n).map(|s| MsgId::new(ProcessId::new((s % 5) as u16), s)))
}

fn codec(c: &mut Criterion) {
    let set = ids(64);
    c.bench_function("codec/encode_idset_64", |b| {
        b.iter(|| black_box(&set).to_bytes())
    });
    let bytes = set.to_bytes();
    c.bench_function("codec/decode_idset_64", |b| {
        b.iter(|| IdSet::from_bytes(black_box(&bytes)).unwrap())
    });
}

fn idset_ops(c: &mut Criterion) {
    let a = ids(128);
    let b_set = IdSet::from_ids((64..192).map(|s| MsgId::new(ProcessId::new(1), s)));
    c.bench_function("idset/union_128", |b| {
        b.iter(|| black_box(&a).union(black_box(&b_set)))
    });
    c.bench_function("idset/subset_check_128", |b| {
        b.iter(|| black_box(&b_set).iter().all(|id| black_box(&a).contains(id)))
    });
    c.bench_function("idset/insert_1k", |b| {
        b.iter(|| {
            let mut s = IdSet::new();
            for i in 0..1000u64 {
                s.insert(MsgId::new(ProcessId::new((i % 7) as u16), i));
            }
            s
        })
    });
    // The per-sender range set beside the sorted set: 1,000 ids arriving
    // the way a run produces them (each sender's in sequence), then looked
    // up again.
    c.bench_function("types/idranges_insert_contains_1k", |b| {
        let id = |i: u64| MsgId::new(ProcessId::new((i % 7) as u16), i / 7);
        b.iter(|| {
            let mut r = IdRanges::new();
            for i in 0..1000 {
                r.insert(id(i));
            }
            (0..1000).filter(|&i| r.contains(black_box(id(i)))).count()
        })
    });
}

/// The received-message store in steady state: 64 messages R-delivered,
/// then a-delivered (taken out, ids remembered as one growing range) —
/// what every message pays, whatever the length of the run so far.
fn store(c: &mut Criterion) {
    let payload = Payload::zeroed(64);
    let mut store = ReceivedStore::new();
    let mut next_seq = 0u64;
    c.bench_function("core/store_insert_take_64", |b| {
        b.iter(|| {
            let batch = next_seq..next_seq + 64;
            next_seq = batch.end;
            for seq in batch.clone() {
                let id = MsgId::new(ProcessId::new(0), seq);
                store.insert(AppMessage::new(id, payload.clone(), Time::ZERO));
            }
            batch.filter_map(|seq| store.take(MsgId::new(ProcessId::new(0), seq))).count()
        })
    });
}

fn event_queue(c: &mut Criterion) {
    c.bench_function("sim/event_queue_push_pop_10k", |b| {
        b.iter(|| {
            let mut q = EventQueue::new();
            for i in 0..10_000u64 {
                q.push(Time::from_nanos(i * 37 % 5000), i);
            }
            let mut sum = 0u64;
            while let Some((_, e)) = q.pop() {
                sum = sum.wrapping_add(e);
            }
            sum
        })
    });
}

fn resources(c: &mut Criterion) {
    c.bench_function("sim/fifo_resource_acquire_10k", |b| {
        b.iter(|| {
            let mut r = FifoResource::new();
            let mut t = Time::ZERO;
            for _ in 0..10_000 {
                t = r.acquire(t, Duration::from_nanos(100));
            }
            t
        })
    });
}

fn quorums(c: &mut Criterion) {
    c.bench_function("quorum/all_formulas_1..256", |b| {
        b.iter(|| {
            let mut acc = 0usize;
            for n in 1..256usize {
                acc += quorum::majority(black_box(n))
                    + quorum::two_thirds(n)
                    + quorum::one_third(n)
                    + quorum::min_quorum_intersection(n, quorum::majority(n));
            }
            acc
        })
    });
}

/// A 64 B frame of either traffic class: the size of the benchmark's
/// small workloads, where per-frame cost is all there is.
#[derive(Clone, Debug)]
struct Frame {
    ordering: bool,
    body: Payload,
}

impl Frame {
    fn new(i: usize) -> Frame {
        Frame { ordering: i % 2 == 1, body: Payload::zeroed(64) }
    }
}

impl WireSize for Frame {
    fn wire_size(&self) -> usize {
        1 + self.body.wire_size()
    }
    fn traffic_class(&self) -> TrafficClass {
        if self.ordering { TrafficClass::Ordering } else { TrafficClass::Bulk }
    }
}

impl Encode for Frame {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.ordering.encode(buf);
        self.body.encode(buf);
    }
}

impl Decode for Frame {
    fn decode(buf: &mut &[u8]) -> Result<Self, CodecError> {
        Ok(Frame { ordering: bool::decode(buf)?, body: Payload::decode(buf)? })
    }
}

/// The event loop's queue stage: a handler's sends go into a peer's
/// lanes, the flush that ends the pass drains them. 1 frame is the serial
/// critical path, 1024 a saturated pass.
fn outbound_lanes(c: &mut Criterion) {
    for frames in [1usize, 64, 1024] {
        let batch: Vec<Frame> = (0..frames).map(Frame::new).collect();
        let mut lanes: Lanes<Frame> = Lanes::new();
        c.bench_function(&format!("net/lanes_push_drain_{frames}"), |b| {
            b.iter(|| {
                for f in &batch {
                    lanes.push(f.clone());
                }
                lanes.drain().map(|f| f.wire_size()).sum::<usize>()
            })
        });
    }
}

/// The event loop's receive stage: 64 frames land in the pooled arena in
/// one read (here: one copy) and are decoded in place, one by one.
fn recv_buffer(c: &mut Criterion) {
    let mut wire = Vec::new();
    for i in 0..64 {
        write_frame_into(&Tagged { from: ProcessId::new(1), msg: &Frame::new(i) }, &mut wire)
            .expect("a 64 B frame is under MAX_FRAME");
    }
    let pool = BufferPool::new();
    let mut recv = RecvBuffer::new(&pool);
    c.bench_function("net/recv_buffer_next_frame_64", |b| {
        b.iter(|| {
            recv.spare(wire.len())[..wire.len()].copy_from_slice(black_box(&wire));
            recv.commit(wire.len());
            let mut bytes = 0usize;
            while let Some(t) = recv.next_frame::<TaggedOwned<Frame>>().expect("well-formed") {
                bytes += t.msg.body.len();
            }
            bytes
        })
    });
}

/// One fault-free indirect-CT instance at n = 3, start to finish: three
/// proposes, then the 3(n − 1) = 6 remote frames (and the coordinator's
/// two self-sends) handled in FIFO order until everyone has decided.
fn ct_instance(c: &mut Criterion) {
    let n = 3;
    let proposal = ids(4);
    c.bench_function("consensus/ct_instance_n3", |b| {
        b.iter(|| {
            let mut net =
                LoopNet::new(n, |p| CtIndirect::<IdSet>::new(p, n), || Box::new(AlwaysHeld));
            for p in ProcessId::all(n) {
                net.propose(p, black_box(proposal.clone()));
            }
            net.run();
            net.frames.len()
        })
    });
}

criterion_group! {
    name = micro;
    config = Criterion::default().sample_size(20).measurement_time(std::time::Duration::from_secs(3)).warm_up_time(std::time::Duration::from_millis(500));
    targets = codec, idset_ops, store, event_queue, resources, quorums, outbound_lanes, recv_buffer, ct_instance
}
criterion_main!(micro);

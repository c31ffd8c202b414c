//! Integration tests of the two-class host model (`SimBuilder::priority_lane`):
//! ordering traffic must overtake a bulk backlog, bulk must not starve, the
//! lane must not change *what* is delivered, and lane-on runs must stay
//! deterministic. Lane-off runs must be bit-for-bit the seed FIFO model.

use iabc_runtime::{Context, Node};
use iabc_sim::{NetworkParams, SimBuilder, SimWorld};
use iabc_types::{Duration, ProcessId, Time, TrafficClass, WireSize};

/// A test message that knows its size and class.
#[derive(Clone, Debug, PartialEq)]
struct Frame {
    bytes: usize,
    class: TrafficClass,
    tag: u32,
}

impl WireSize for Frame {
    fn wire_size(&self) -> usize {
        self.bytes
    }

    fn traffic_class(&self) -> TrafficClass {
        self.class
    }
}

fn bulk(tag: u32) -> Frame {
    Frame { bytes: 4000, class: TrafficClass::Bulk, tag }
}

fn ordering(tag: u32) -> Frame {
    Frame { bytes: 12, class: TrafficClass::Ordering, tag }
}

/// On command, process 0 sends the given frame to process 1; process 1
/// outputs every tag it receives.
struct Pipe;
impl Node for Pipe {
    type Msg = Frame;
    type Command = Frame;
    type Output = u32;

    fn on_command(&mut self, frame: Frame, ctx: &mut Context<Frame, u32>) {
        ctx.send(ProcessId::new(1), frame);
    }

    fn on_message(&mut self, _from: ProcessId, m: Frame, ctx: &mut Context<Frame, u32>) {
        ctx.output(m.tag);
    }
}

fn p(i: u16) -> ProcessId {
    ProcessId::new(i)
}

/// Schedules a bulk flood followed by one ordering frame; returns the
/// world after quiescence.
fn flood_then_ordering(lane: bool) -> SimWorld<Pipe> {
    let mut w = SimBuilder::new(2, NetworkParams::setup1()).priority_lane(lane).build(|_| Pipe);
    for i in 0..40u32 {
        w.schedule_command(p(0), Time::ZERO + Duration::from_micros(u64::from(i)), bulk(i));
    }
    // The ordering frame arrives when the flood is already queued deep.
    w.schedule_command(p(0), Time::ZERO + Duration::from_micros(100), ordering(999));
    w.run_to_quiescence();
    w
}

fn delivery_time(w: &SimWorld<Pipe>, tag: u32) -> Time {
    w.outputs().iter().find(|r| r.output == tag).expect("tag delivered").at
}

#[test]
fn ordering_frame_overtakes_a_bulk_flood() {
    let fifo = flood_then_ordering(false);
    let lane = flood_then_ordering(true);
    // Same deliveries either way — the lane re-orders, never drops.
    assert_eq!(fifo.outputs().len(), 41);
    assert_eq!(lane.outputs().len(), 41);
    let t_fifo = delivery_time(&fifo, 999);
    let t_lane = delivery_time(&lane, 999);
    assert!(
        t_lane < t_fifo,
        "priority lane must cut ordering latency: {t_lane} !< {t_fifo}"
    );
    // In FIFO order the ordering frame lands last; with the lane it must
    // beat most of the flood (it still waits for in-service jobs and the
    // frames already past the CPU when it arrived).
    let earlier_bulk =
        lane.outputs().iter().filter(|r| r.output != 999 && r.at < t_lane).count();
    assert!(
        earlier_bulk < 10,
        "ordering frame still queued behind {earlier_bulk} bulk frames"
    );
}

#[test]
fn bulk_flood_still_completes_with_the_lane_on() {
    // The anti-starvation burst bound: even with ordering traffic arriving
    // continuously, every bulk frame is eventually delivered.
    let mut w =
        SimBuilder::new(2, NetworkParams::setup1()).priority_lane(true).build(|_| Pipe);
    for i in 0..30u32 {
        w.schedule_command(p(0), Time::ZERO + Duration::from_micros(u64::from(i)), bulk(i));
    }
    for i in 0..2000u32 {
        w.schedule_command(
            p(0),
            Time::ZERO + Duration::from_micros(u64::from(i) * 40),
            ordering(10_000 + i),
        );
    }
    w.run_to_quiescence();
    let bulk_delivered =
        w.outputs().iter().filter(|r| r.output < 30).count();
    assert_eq!(bulk_delivered, 30, "bulk starved under sustained ordering load");
}

#[test]
fn lane_on_runs_are_deterministic() {
    let run = || {
        let w = flood_then_ordering(true);
        w.outputs().to_vec()
    };
    assert_eq!(run(), run());
}

#[test]
fn lane_off_matches_the_single_class_fifo_model_exactly() {
    // The paper-figure bins run lane-off; their traces must be bit-for-bit
    // what the seed's FifoResource produced. The FIFO arm pushes the same
    // events in the same order, so the full output record (time, process,
    // value) must match a run of the identical schedule — and ordering
    // frames must *not* overtake bulk.
    let w = flood_then_ordering(false);
    let t_ord = delivery_time(&w, 999);
    assert!(
        w.outputs().iter().all(|r| r.output == 999 || r.at < t_ord),
        "without the lane the ordering frame arrives strictly last"
    );
    // Per-class CPU accounting is kept in both modes.
    let stats = w.stats();
    assert!(stats.cpu_bulk_busy[0] > stats.cpu_ordering_busy[0]);
    assert!(stats.cpu_ordering_busy[1] > Duration::ZERO);
}

#[test]
fn full_stack_lane_run_delivers_the_same_set_as_fifo() {
    // The lane belongs to the simulated host, not the stack: SimBuilder
    // takes the flag and the nodes are built exactly as for FIFO. The full
    // indirect-CT stack must deliver exactly the same messages either
    // way — the lane re-orders service, never the protocol's outcome.
    use iabc_core::stacks::{self, StackParams};
    use iabc_core::{AbcastCommand, AbcastEvent};
    use iabc_types::Payload;

    let run = |lane: bool| {
        let params = StackParams::fault_free(3);
        let mut w = SimBuilder::new(params.n, NetworkParams::setup1())
            .priority_lane(lane)
            .build(|p| stacks::indirect_ct(p, &params));
        assert_eq!(w.priority_lane(), lane);
        for i in 0..30u64 {
            w.schedule_command(
                p((i % 3) as u16),
                Time::ZERO + Duration::from_micros(i * 120),
                AbcastCommand::Broadcast(Payload::zeroed(256)),
            );
        }
        w.run_to_quiescence();
        let mut delivered: Vec<_> = w
            .outputs()
            .iter()
            .filter_map(|r| match &r.output {
                AbcastEvent::Delivered { msg } => Some((r.process, msg.id())),
                _ => None,
            })
            .collect();
        delivered.sort();
        delivered
    };
    let fifo = run(false);
    let lane = run(true);
    assert_eq!(fifo.len(), 30 * 3, "every process delivers every message");
    assert_eq!(fifo, lane, "the lane must not change what is delivered");
}

#[test]
fn per_class_cpu_stats_split_the_load() {
    let w = flood_then_ordering(true);
    let stats = w.stats();
    for i in 0..2 {
        assert_eq!(
            stats.cpu_busy[i],
            stats.cpu_ordering_busy[i] + stats.cpu_bulk_busy[i],
            "class split must partition total CPU busy time (process {i})"
        );
    }
}

//! Lazy RB after a heal: a broadcaster is relayed only while the failure
//! detector suspects it.
//!
//! A cluster whose detector suspected a peer and then trusted it again
//! sends the fault-free frame count, and a suspicion that was retracted
//! and is then renewed by a crash still relays every copy it must.

use std::cell::Cell;
use std::rc::Rc;

use iabc_broadcast::BcastMsg;
use iabc_consensus::CtIndirect;
use iabc_core::stacks::{self, StackParams};
use iabc_core::{AbcastChecker, AbcastCommand, AbcastEvent, AbcastNode, Envelope};
use iabc_sim::{CrashSchedule, FaultPlan, LinkFaults, NetworkParams, SimBuilder, SimWorld};
use iabc_types::{Duration, IdSet, MsgId, Payload, ProcessId, Time};

const N: usize = 3;
const MESSAGES: u64 = 300;

type World = SimWorld<AbcastNode<IdSet, CtIndirect<IdSet>>>;

fn at(ms: u64) -> Time {
    Time::ZERO + Duration::from_millis(ms)
}

fn p(i: u16) -> ProcessId {
    ProcessId::new(i)
}

/// A 60 ms heartbeat timeout, well below the isolations below.
fn hb() -> StackParams {
    StackParams::with_heartbeat(N, Duration::from_millis(10), Duration::from_millis(60))
}

/// The frame inside a piggyback wrapper, or the frame itself.
fn unwrapped(env: &Envelope<IdSet>) -> &Envelope<IdSet> {
    match env {
        Envelope::WithFrontier { inner, .. } => inner,
        other => other,
    }
}

/// Runs `world` until `want` more a-deliveries have happened.
fn run_until_delivered(world: &mut World, want: usize) {
    let deadline = world.now() + Duration::from_secs(1);
    let mut got = 0;
    while got < want {
        assert!(
            world.now() < deadline,
            "{got} of {want} a-deliveries within 1 s"
        );
        world.run_until(world.now() + Duration::from_micros(100));
        got += world
            .drain_outputs()
            .iter()
            .filter(|r| matches!(r.output, AbcastEvent::Delivered { .. }))
            .count();
    }
}

/// p0 is isolated for longer than the detector's timeout, so every
/// process suspects the other side. Once the heal brings the trust back,
/// one message in flight costs the fault-free 2 RB + 6 consensus frames
/// (`frame_count.rs`): no process relays a peer it trusts again.
#[test]
fn a_healed_cluster_sends_the_fault_free_frame_count() {
    let params = hb().with_catch_up(true);
    let heal = at(300);
    let links = LinkFaults::new(1).isolate(p(0), N, at(50), heal);
    let mut world: World = SimBuilder::new(N, NetworkParams::setup1())
        .faults(FaultPlan::with_links(links))
        .build(|q| stacks::indirect_ct(q, &params));
    // Every remote frame but the detector's heartbeats.
    let frames = Rc::new(Cell::new(0u64));
    let counter = Rc::clone(&frames);
    world.set_drop_filter(Box::new(move |_, _, msg| {
        if !matches!(unwrapped(msg), Envelope::Fd(_)) {
            counter.set(counter.get() + 1);
        }
        false
    }));
    // The held heartbeats arrive as the window closes and end every
    // suspicion; the start-up catch-up settles long before.
    world.run_until(heal + Duration::from_millis(100));
    assert!(world.stats().frames_partitioned > 0);
    let before = frames.get();
    for i in 0..MESSAGES {
        let sender = p((i % N as u64) as u16);
        let now = world.now();
        world.schedule_command(sender, now, AbcastCommand::Broadcast(Payload::zeroed(64)));
        run_until_delivered(&mut world, N);
    }
    let settle = world.now() + Duration::from_millis(100);
    world.run_until(settle);
    assert_eq!((frames.get() - before) as f64 / MESSAGES as f64, 8.0);
}

/// p2 is suspected, then trusted again. It broadcasts m; the drop filter
/// loses m's copy to p1 and p2 crashes, so only p0 holds m. p0 trusts p2,
/// so it does not relay on arrival; its renewed suspicion after the crash
/// relays m, and both correct processes a-deliver it.
#[test]
fn a_retracted_suspicion_relays_a_crashed_senders_copy_when_renewed() {
    let params = hb();
    let (p0, p1, p2) = (p(0), p(1), p(2));
    let links = LinkFaults::new(2).isolate(p2, N, at(20), at(200));
    let crashes = CrashSchedule::new().crash(p2, at(301));
    let mut world: World = SimBuilder::new(N, NetworkParams::setup1())
        .faults(FaultPlan::with_crashes(crashes).links(links))
        .build(|q| stacks::indirect_ct(q, &params));
    let relays = Rc::new(Cell::new(0u64));
    let counter = Rc::clone(&relays);
    world.set_drop_filter(Box::new(move |from, to, msg| match unwrapped(msg) {
        Envelope::Bcast(BcastMsg::Relay(m)) if from == p0 && m.id().sender() == p2 => {
            counter.set(counter.get() + 1);
            false
        }
        Envelope::Bcast(BcastMsg::Data(_)) => from == p2 && to == p1,
        _ => false,
    }));
    world.schedule_command(p2, at(300), AbcastCommand::Broadcast(Payload::zeroed(16)));
    world.run_until(at(301));
    assert_eq!(world.stats().messages_dropped, 1, "p1's copy of m is lost");
    assert_eq!(relays.get(), 0, "p0 trusts p2 again: no relay on arrival");
    world.run_until(at(2_000));
    assert_eq!(
        relays.get(),
        2,
        "p0's renewed suspicion relays m to each peer once"
    );

    let mut checker = AbcastChecker::new(N);
    for rec in world.outputs() {
        checker.record(rec.process, &rec.output);
    }
    let violations = checker.check_complete(&[false, false, true]);
    assert!(violations.is_empty(), "{violations:?}");
    let m = MsgId::new(p2, 0);
    for q in [p0, p1] {
        assert!(
            checker.sequences()[q.as_usize()].contains(&m),
            "{q} a-delivers m"
        );
    }
}

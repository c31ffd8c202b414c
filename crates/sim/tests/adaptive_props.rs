//! Property-based tests of the adaptive pipeline-window controller on the
//! simulator: under scripted load steps and random schedules (with and
//! without crashes), the window must stay inside `[w_min, w_max]` at every
//! observation point, the atomic broadcast invariants (one duplicate-free
//! total order at every correct process) must hold at every adaptation
//! point, and at steady load the controller must converge instead of
//! oscillating forever.

use iabc_core::stacks::{self, StackParams};
use iabc_core::{AbcastCommand, AbcastEvent};
use iabc_sim::{CrashSchedule, FaultPlan, NetworkParams, SimBuilder, SimWorld};
use iabc_types::{Duration, MsgId, Payload, ProcessId, Time};
use proptest::prelude::*;

const W_MIN: usize = 1;
const W_MAX: usize = 16;

type Node = iabc_core::AbcastNode<
    iabc_types::IdSet,
    iabc_consensus::CtIndirect<iabc_types::IdSet>,
>;

fn adaptive_params() -> StackParams {
    StackParams::with_heartbeat(3, Duration::from_millis(10), Duration::from_millis(60))
        .with_adaptive_window(W_MIN, W_MAX)
        .with_proposal_cap(4)
        // Tight target so adaptation actually fires in short runs.
        .with_latency_target(Duration::from_millis(2))
        .with_backlog_limit(64)
}

/// Asserts per-process delivery orders are duplicate-free and that
/// correct processes agree on a common prefix (the shorter order must be
/// a prefix of the longer). Returns the orders.
fn check_orders_at(
    world: &SimWorld<Node>,
    crashed: impl Fn(usize) -> bool,
    label: &str,
) -> Result<Vec<Vec<MsgId>>, TestCaseError> {
    let mut orders = vec![Vec::new(); 3];
    for rec in world.outputs() {
        if let AbcastEvent::Delivered { msg } = &rec.output {
            orders[rec.process.as_usize()].push(msg.id());
        }
    }
    for (i, order) in orders.iter().enumerate() {
        if crashed(i) {
            continue;
        }
        let mut dedup = order.clone();
        dedup.sort_unstable();
        dedup.dedup();
        prop_assert_eq!(dedup.len(), order.len(), "{} p{}: duplicate delivery", label, i);
    }
    // Every correct order must be a prefix of the *longest* one —
    // prefix-consistency is not transitive, so pairwise-adjacent checks
    // could miss a divergence hidden behind a lagging middle process.
    let correct: Vec<&Vec<MsgId>> =
        orders.iter().enumerate().filter(|(i, _)| !crashed(*i)).map(|(_, o)| o).collect();
    if let Some(longest) = correct.iter().max_by_key(|o| o.len()) {
        for order in &correct {
            prop_assert_eq!(
                order.as_slice(),
                &longest[..order.len()],
                "{}: correct processes diverge",
                label
            );
        }
    }
    Ok(orders)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 8, ..ProptestConfig::default() })]

    /// Random schedules, optional random crash: at every 50 ms observation
    /// point the window is in bounds and the delivered orders are
    /// duplicate-free and prefix-consistent — i.e. the invariants hold at
    /// every adaptation point, not just at the end.
    #[test]
    fn adaptive_window_stays_in_bounds_and_safe(
        msgs in proptest::collection::vec((0u16..3, 0u64..200_000, 0usize..64), 1..40),
        crash in proptest::option::of((0u16..3, 0u64..150_000)),
    ) {
        let params = adaptive_params();
        let mut builder = SimBuilder::new(3, NetworkParams::setup1());
        if let Some((p, at)) = crash {
            builder = builder.faults(FaultPlan::with_crashes(
                CrashSchedule::new()
                    .crash(ProcessId::new(p), Time::ZERO + Duration::from_micros(at)),
            ));
        }
        let mut world = builder.build(|p| stacks::indirect_ct(p, &params));
        for &(p, at, size) in &msgs {
            world.schedule_command(
                ProcessId::new(p),
                Time::ZERO + Duration::from_micros(at),
                AbcastCommand::Broadcast(Payload::zeroed(size)),
            );
        }
        let crashed = |i: usize| crash.is_some_and(|(p, _)| p as usize == i);
        let horizon = Time::ZERO + Duration::from_secs(15);
        let mut cursor = Time::ZERO;
        while cursor < horizon {
            cursor += Duration::from_millis(50);
            world.run_until(cursor);
            for p in ProcessId::all(3) {
                let w = world.node(p).window();
                prop_assert!(
                    (W_MIN..=W_MAX).contains(&w),
                    "p{} window {} escaped [{}, {}]",
                    p.as_usize(), w, W_MIN, W_MAX
                );
            }
            check_orders_at(&world, crashed, "mid-run")?;
        }
        // At the settled horizon correct processes must agree exactly.
        let orders = check_orders_at(&world, crashed, "settled")?;
        let correct: Vec<&Vec<MsgId>> = orders
            .iter()
            .enumerate()
            .filter(|(i, _)| !crashed(*i))
            .map(|(_, o)| o)
            .collect();
        for pair in correct.windows(2) {
            prop_assert_eq!(pair[0], pair[1], "correct processes disagree at the horizon");
        }
    }

    /// Scripted load steps (idle → burst → idle …): bounds hold throughout
    /// and nothing is lost fault-free, whatever the burst sizes are.
    #[test]
    fn load_steps_keep_the_window_bounded_and_lossless(
        bursts in proptest::collection::vec(1usize..30, 1..5),
    ) {
        let params = adaptive_params();
        let mut world =
            SimBuilder::new(3, NetworkParams::setup1()).build(|p| stacks::indirect_ct(p, &params));
        let mut at = Duration::from_millis(1);
        let mut total = 0u64;
        for (step, &burst) in bursts.iter().enumerate() {
            // A burst arrives nearly at once...
            for i in 0..burst {
                world.schedule_command(
                    ProcessId::new((i % 3) as u16),
                    Time::ZERO + at + Duration::from_micros(i as u64 * 50),
                    AbcastCommand::Broadcast(Payload::zeroed(8)),
                );
                total += 1;
            }
            // ...followed by an idle gap before the next step.
            at += Duration::from_millis(200 + 100 * step as u64);
        }
        let horizon = Time::ZERO + at + Duration::from_secs(15);
        let mut cursor = Time::ZERO;
        while cursor < horizon {
            cursor += Duration::from_millis(100);
            world.run_until(cursor);
            for p in ProcessId::all(3) {
                let w = world.node(p).window();
                prop_assert!((W_MIN..=W_MAX).contains(&w), "window {} out of bounds", w);
            }
        }
        let orders = check_orders_at(&world, |_| false, "load-steps")?;
        for (i, order) in orders.iter().enumerate() {
            prop_assert_eq!(order.len() as u64, total, "p{} lost deliveries", i);
        }
    }
}

/// At steady moderate load the controller settles: over the final stretch
/// of a long run the window takes at most two adjacent values (AIMD keeps
/// probing by ±1 — flapping across the whole range would be oscillation),
/// and adaptation events become rare.
#[test]
fn adaptive_window_converges_at_steady_load() {
    let params = StackParams::with_heartbeat(
        3,
        Duration::from_millis(10),
        Duration::from_millis(60),
    )
    .with_adaptive_window(W_MIN, W_MAX)
    .with_proposal_cap(8);
    let mut world =
        SimBuilder::new(3, NetworkParams::setup1()).build(|p| stacks::indirect_ct(p, &params));
    // Steady 300 msg/s for 8 s, uniformly spaced.
    let horizon_ms = 8_000u64;
    let mut i = 0u64;
    let mut at = 0u64;
    while at < horizon_ms * 1000 {
        world.schedule_command(
            ProcessId::new((i % 3) as u16),
            Time::ZERO + Duration::from_micros(at),
            AbcastCommand::Broadcast(Payload::zeroed(8)),
        );
        i += 1;
        at += 3_333;
    }
    // Run the first 6 s, then track the tail.
    world.run_until(Time::ZERO + Duration::from_secs(6));
    let adaptations_at_6s: Vec<(u64, u64)> =
        ProcessId::all(3).map(|p| world.node(p).window_adaptations()).collect();
    let mut tail_windows: Vec<std::collections::BTreeSet<usize>> =
        vec![std::collections::BTreeSet::new(); 3];
    let mut cursor = Duration::from_secs(6);
    while cursor < Duration::from_millis(horizon_ms) {
        cursor += Duration::from_millis(100);
        world.run_until(Time::ZERO + cursor);
        for p in ProcessId::all(3) {
            tail_windows[p.as_usize()].insert(world.node(p).window());
        }
    }
    for p in ProcessId::all(3) {
        let seen = &tail_windows[p.as_usize()];
        assert!(
            seen.len() <= 2,
            "p{} window kept oscillating over the tail: {seen:?}",
            p.as_usize()
        );
        if seen.len() == 2 {
            let lo = *seen.iter().next().unwrap();
            let hi = *seen.iter().next_back().unwrap();
            assert!(
                hi - lo <= lo.max(1),
                "p{} window flapped across the range: {seen:?}",
                p.as_usize()
            );
        }
        let (inc0, dec0) = adaptations_at_6s[p.as_usize()];
        let (inc1, dec1) = world.node(p).window_adaptations();
        assert!(
            (inc1 - inc0) + (dec1 - dec0) <= 6,
            "p{}: {} adaptations in the final 2 s of steady load",
            p.as_usize(),
            (inc1 - inc0) + (dec1 - dec0)
        );
    }
}

/// The controller must actually adapt when load demands it (the bounds
/// test alone would pass with a dead controller): a saturating burst
/// spills past the cap and widens the window, and the trailing idle
/// period shrinks it back toward `w_min`.
#[test]
fn adaptive_window_reacts_to_load() {
    let params = StackParams::with_heartbeat(
        3,
        Duration::from_millis(10),
        Duration::from_millis(60),
    )
    .with_adaptive_window(W_MIN, W_MAX)
    .with_proposal_cap(4)
    .with_latency_target(Duration::from_millis(5));
    let mut world =
        SimBuilder::new(3, NetworkParams::setup1()).build(|p| stacks::indirect_ct(p, &params));
    // 120 broadcasts in 12 ms: far more than W_MIN × cap can hold.
    for i in 0..120u64 {
        world.schedule_command(
            ProcessId::new((i % 3) as u16),
            Time::ZERO + Duration::from_micros(100 * i),
            AbcastCommand::Broadcast(Payload::zeroed(8)),
        );
    }
    // Mid-burst: the window must have grown off its floor.
    world.run_until(Time::ZERO + Duration::from_millis(40));
    let grown = ProcessId::all(3).any(|p| world.node(p).window() > W_MIN);
    assert!(grown, "no node widened its window under a spilling burst");
    let capped = ProcessId::all(3).any(|p| world.node(p).proposal_cap_hits() > 0);
    assert!(capped, "the burst never hit the proposal cap");
    // Long idle tail: decisions drain, congestion halves the window back.
    world.run_until(Time::ZERO + Duration::from_secs(20));
    for p in ProcessId::all(3) {
        assert_eq!(
            world.node(p).delivered_count(),
            120,
            "p{} did not deliver the whole burst",
            p.as_usize()
        );
        let (increases, decreases) = world.node(p).window_adaptations();
        assert!(increases > 0, "p{} never grew", p.as_usize());
        assert!(decreases > 0, "p{} never shrank", p.as_usize());
    }
}

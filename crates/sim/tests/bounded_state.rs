//! Soak test for flat state: every per-message collection on the
//! broadcast → a-deliver path must be O(in flight), never O(history).
//!
//! Each stack is driven with 2,000 and then 8,000 broadcasts; what a node
//! retains at quiescence must be the same small numbers at both lengths,
//! and mid-run it must be bounded by what is in flight. That includes the
//! copies the default lazy RB keeps for a relay, which only the
//! piggybacked a-delivered vector frees, and the default in-memory decided
//! log (catch-up on), which drops every instance all processes have
//! logged. Only the durable decided log still grows: it is kept whole on
//! purpose, and the run with a crash-restart asserts that it does.

use iabc_consensus::SingleConsensus;
use iabc_core::stacks::{self, StackParams};
use iabc_core::{AbcastCommand, AbcastNode, DurableDecidedLog, OrderingValue, Retained};
use iabc_sim::{CrashSchedule, FaultPlan, NetworkParams, SimBuilder};
use iabc_types::{Duration, Payload, ProcessId, Time};

const N: usize = 3;
/// One broadcast every 500 µs, round-robin over the senders.
const SPACING: Duration = Duration::from_micros(500);
const VICTIM: ProcessId = ProcessId::new(2);

/// Asserts the quiescent bounds: nothing held, nothing queued, the
/// manager's GC cache, one range per sender and id set, and at most the
/// lazy RB copies of the last few messages — those the last a-delivered
/// vectors to arrive did not cover yet (none once heartbeats carry them).
/// The decided log is left to the callers: only the in-memory one is
/// bounded.
///
/// The slot bound holds for a restarted process too: while it catches up
/// under load it proposes into instances its peers collected long ago, and
/// each decision that arrives through catch-up closes that `Running` slot
/// in the consensus manager, which then collects it like any other.
fn assert_flat(r: Retained, what: &str) {
    let queued = [r.stored, r.unordered, r.ordered, r.buffered_decisions];
    assert_eq!(queued, [0, 0, 0, 0], "{what}: store/unordered/ordered/buffered {r:?}");
    assert!(r.consensus_slots <= 16, "{what}: {} consensus slots", r.consensus_slots);
    assert!(r.id_ranges <= 2 * N, "{what}: {} id ranges", r.id_ranges);
    assert!(r.rb_copies <= N, "{what}: {} RB copies", r.rb_copies);
}

/// Drives `count` broadcasts through the stack `factory` builds and
/// returns, per process, what it retains at the end and its decided
/// frontier. With `restart`, p2 is down for the second quarter of the run
/// (and rejoins from its durable log); a sample three quarters through the
/// schedule checks the in-flight bound at p0.
fn soak<V: OrderingValue, A: SingleConsensus<V>>(
    count: u64,
    restart: bool,
    factory: impl FnMut(ProcessId) -> AbcastNode<V, A>,
) -> Vec<(Retained, u64)> {
    let at = |i: u64| Time::ZERO + SPACING * i;
    let (down_from, down_to) = (at(count / 4), at(count / 2));
    let mut builder = SimBuilder::new(N, NetworkParams::setup2());
    if restart {
        let schedule = CrashSchedule::new().crash_restart(VICTIM, down_from, down_to);
        builder = builder.faults(FaultPlan::with_crashes(schedule));
    }
    let mut world = builder.build(factory);
    let sender = |i: u64| ProcessId::new((i % N as u64) as u16);
    // The victim broadcasts only while it is surely up.
    let skipped = |i: u64| {
        let back_up = down_to + Duration::from_millis(100);
        restart && sender(i) == VICTIM && at(i) >= down_from && at(i) < back_up
    };
    let sent_before = |i: u64| (0..i).filter(|&j| !skipped(j)).count() as u64;
    for i in (0..count).filter(|&i| !skipped(i)) {
        world.schedule_command(sender(i), at(i), AbcastCommand::Broadcast(Payload::zeroed(1)));
    }

    // Mid-run, at a survivor: whatever is held is held for a message that
    // was broadcast and not yet a-delivered here.
    let mid = count * 3 / 4;
    world.run_until(at(mid)); // the broadcast due at `at(mid)` included
    let p0 = world.node(ProcessId::new(0));
    let in_flight = (sent_before(mid + 1) - p0.delivered_count()) as usize;
    let r = p0.retained();
    assert!(p0.delivered_count() > 0, "nothing delivered by mid-run");
    let held = [r.stored, r.unordered, r.ordered];
    assert!(held.iter().all(|&held| held <= in_flight), "mid-run {r:?} vs {in_flight} in flight");
    assert!(
        r.buffered_decisions <= 1 && r.consensus_slots <= 16,
        "mid-run {r:?}: W = 1 buffers at most one decision"
    );
    assert!(r.id_ranges <= 2 * (N + in_flight), "mid-run {r:?}: a gap needs a message in flight");
    // The in-memory decided log holds at most twice the slowest member's
    // lag (it drops in chunks), a few instances here; the durable one
    // holds every instance.
    let held = r.log_entries as u64;
    assert!(
        held <= 2 * (N + in_flight) as u64 || held == p0.decided_frontier(),
        "mid-run {r:?}: decided frontier {}",
        p0.decided_frontier()
    );

    // Heartbeats never quiesce: run a fixed stretch past the last send.
    world.run_until(at(count) + Duration::from_secs(2));
    ProcessId::all(N)
        .map(|p| {
            let node = world.node(p);
            if !(restart && p == VICTIM) {
                assert_eq!(node.delivered_count(), sent_before(count), "{p} is behind");
            }
            (node.retained(), node.decided_frontier())
        })
        .collect()
}

#[test]
fn retained_state_does_not_grow_with_the_run() {
    let params = StackParams::fault_free(N);
    let indirect = |count| soak(count, false, |p| stacks::indirect_ct(p, &params));
    let direct = |count| soak(count, false, |p| stacks::direct_ct_messages(p, &params));
    for (name, short, long) in [
        ("indirect_ct", indirect(2_000), indirect(8_000)),
        ("direct_ct_messages", direct(2_000), direct(8_000)),
    ] {
        for (p, (r, _)) in long.iter().enumerate() {
            assert_flat(*r, &format!("{name} p{p} after 8,000"));
        }
        assert_eq!(short, long, "{name}: retained state depends on the length of the run");
    }
}

#[test]
fn only_the_decided_log_grows_across_a_crash_restart() {
    let dir = std::env::temp_dir().join(format!("iabc-bounded-state-{}", std::process::id()));
    let params = StackParams::with_heartbeat(N, Duration::from_millis(10), Duration::from_millis(60))
        .with_catch_up(true);
    let run = |count: u64| {
        let dir = dir.join(count.to_string());
        std::fs::create_dir_all(&dir).unwrap();
        soak(count, true, |p| {
            let mut node = stacks::indirect_ct(p, &params);
            let path = dir.join(format!("decided-{}.log", p.as_usize()));
            node.set_decided_log(Box::new(DurableDecidedLog::open(path).unwrap()));
            node
        })
    };
    let (short, long) = (run(2_000), run(8_000));
    std::fs::remove_dir_all(&dir).ok();
    for (p, ((rs, fs), (rl, fl))) in short.iter().zip(&long).enumerate() {
        assert_flat(*rs, &format!("p{p} after 2,000"));
        assert_flat(*rl, &format!("p{p} after 8,000"));
        // The copies a survivor held while the victim was down pinned the
        // minimum are gone once the restarted victim's vector arrives.
        assert_eq!(rs.rb_copies, rl.rb_copies, "p{p}: RB copies depend on the length of the run");
        // The one exemption, made visible: the durable log is kept from
        // k = 1 on purpose (it serves restarted peers, including one that
        // comes back below the frontier it advertised).
        assert!(fl > fs && *fs > 0, "p{p}: decided frontier {fs} then {fl}");
    }
    let frontiers: Vec<u64> = long.iter().map(|&(_, f)| f).collect();
    assert_eq!(frontiers, vec![frontiers[0]; N], "the restarted process caught up");
}

#[test]
fn the_in_memory_decided_log_does_not_grow_with_the_run() {
    let params = StackParams::with_heartbeat(N, Duration::from_millis(10), Duration::from_millis(60))
        .with_catch_up(true);
    let run = |count| soak(count, false, |p| stacks::indirect_ct(p, &params));
    let (short, long) = (run(2_000), run(8_000));
    for (p, ((rs, fs), (rl, fl))) in short.iter().zip(&long).enumerate() {
        assert_flat(*rl, &format!("p{p} after 8,000"));
        // Heartbeats carry every member's final frontier: no member can
        // still fetch anything, so nothing is held.
        assert_eq!(rl.log_entries, 0, "p{p}: {} decided-log entries held", rl.log_entries);
        assert_eq!(rs, rl, "p{p}: retained state depends on the length of the run");
        assert!(fl > fs && *fs > 0, "p{p}: decided frontier {fs} then {fl}");
    }
}

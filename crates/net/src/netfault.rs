//! Fault injection for the real TCP transport.
//!
//! [`NetFaultPlan`] mirrors the simulator's `iabc_sim::LinkFaults`
//! grammar — peer-pair partition windows over time plus seeded per-frame
//! drop / duplicate probabilities — for the event-driven transport. The
//! shim sits at the outbound boundary: the event loop consults it when a
//! frame leaves a peer's [`crate::queue::Lanes`] for the wire, and once per
//! tick to enforce partitions, which it realizes the only way a real
//! transport can — by severing the connection and gating reconnect
//! attempts until the window closes. Delay and reorder verdicts exist
//! only in the simulator (a nonblocking loop cannot hold frames back
//! without growing a timer wheel); partitions, drops, and duplicates
//! cover the nemesis schedules, and the sim runs the full grammar.
//!
//! Like the sim layer, the draw stream is splitmix64 keyed on
//! `(seed, from, to, per-link frame counter)`: the same plan over the
//! same frame sequence injects the same faults. Times are loop-relative
//! [`Duration`]s (since the cluster started), not wall-clock instants, so
//! plans are plain data and the module stays clock-free.
//!
//! An **empty plan is never consulted**: `TcpCluster::start` wires the
//! fault path only when a plan is armed, so fault-free clusters run the
//! exact pre-fault-layer code and their wire traffic is byte-identical.

use std::sync::atomic::{AtomicU64, Ordering};

use iabc_types::{Duration, ProcessId};

/// splitmix64 finalizer: a full-avalanche scramble of one 64-bit word.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// A symmetric partition window between two processes: the link is dead
/// in both directions while `from <= now < until` (loop-relative time).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct PartitionWindow {
    a: ProcessId,
    b: ProcessId,
    from: Duration,
    until: Duration,
}

/// What the fault layer decided to do with one outbound frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum NetVerdict {
    /// Send normally.
    Pass,
    /// Lose the frame (random drop, or a partition window raced the
    /// per-tick connection severance).
    Drop,
    /// Send the frame twice; dedup is the receiver's job.
    Duplicate,
}

/// Deterministic fault plan for a [`crate::TcpCluster`]: partitions over
/// time windows plus seeded drop / duplicate probabilities, the transport
/// half of the simulator's `LinkFaults` grammar (see the module docs).
/// Probabilities are permille (0..=1000) of frames judged.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NetFaultPlan {
    seed: u64,
    partitions: Vec<PartitionWindow>,
    drop_permille: u16,
    duplicate_permille: u16,
}

impl NetFaultPlan {
    /// A plan with the given seed and no faults configured yet.
    pub fn new(seed: u64) -> Self {
        NetFaultPlan {
            seed,
            partitions: Vec::new(),
            drop_permille: 0,
            duplicate_permille: 0,
        }
    }

    /// Adds a symmetric partition of `a` and `b` over `[from, until)`
    /// since cluster start (builder style). Both sides' event loops sever
    /// the connection within one poll tick of the window opening and
    /// refuse reconnect attempts until it closes; the reconnect machinery
    /// heals the link afterwards.
    ///
    /// # Panics
    ///
    /// Panics if `until <= from` or `a == b`.
    pub fn partition(mut self, a: ProcessId, b: ProcessId, from: Duration, until: Duration) -> Self {
        assert!(until > from, "partition window must be non-empty");
        assert!(a != b, "cannot partition a process from itself");
        self.partitions.push(PartitionWindow { a, b, from, until });
        self
    }

    /// Partitions `p` from every other process of an `n`-process cluster
    /// over `[from, until)` (builder style) — full isolation.
    pub fn isolate(mut self, p: ProcessId, n: usize, from: Duration, until: Duration) -> Self {
        for q in ProcessId::all(n) {
            if q != p {
                self = self.partition(p, q, from, until);
            }
        }
        self
    }

    /// Sets the per-frame drop probability in permille (builder style).
    ///
    /// # Panics
    ///
    /// Panics if the combined probabilities exceed 1000 permille.
    pub fn drop(mut self, permille: u16) -> Self {
        self.drop_permille = permille;
        self.assert_budget();
        self
    }

    /// Sets the per-frame duplication probability in permille (builder
    /// style).
    ///
    /// # Panics
    ///
    /// Panics if the combined probabilities exceed 1000 permille.
    pub fn duplicate(mut self, permille: u16) -> Self {
        self.duplicate_permille = permille;
        self.assert_budget();
        self
    }

    fn assert_budget(&self) {
        let total = self.drop_permille + self.duplicate_permille;
        assert!(total <= 1000, "fault probabilities exceed 1000 permille (got {total})");
    }

    /// Whether any partition window covers the `a`–`b` link at `now`.
    pub fn partitioned_at(&self, now: Duration, a: ProcessId, b: ProcessId) -> bool {
        self.partitions.iter().any(|w| {
            ((w.a == a && w.b == b) || (w.a == b && w.b == a)) && now >= w.from && now < w.until
        })
    }

    /// The earliest loop time at which every partition window has closed
    /// (`Duration::ZERO` if none are configured) — how long a nemesis run
    /// must keep going before it may assert convergence.
    pub fn healed_after(&self) -> Duration {
        self.partitions
            .iter()
            .map(|w| w.until)
            .max()
            .unwrap_or(Duration::ZERO)
    }

    /// Whether the probabilistic per-frame path is armed at all.
    pub(crate) fn has_frame_faults(&self) -> bool {
        self.drop_permille > 0 || self.duplicate_permille > 0
    }
}

/// Counters one cluster's event loops share, for nemesis assertions and
/// the CI fault-trace artifact. Plain relaxed atomics: these are
/// statistics, not synchronization.
#[derive(Debug, Default)]
pub struct NetFaultStats {
    /// Frames dropped by the probabilistic fault path.
    pub frames_dropped: AtomicU64,
    /// Frames sent twice by the probabilistic fault path.
    pub frames_duplicated: AtomicU64,
    /// Connections severed by a partition window opening.
    pub links_severed: AtomicU64,
    /// Connections re-established by the reconnect machinery.
    pub reconnects: AtomicU64,
    /// Frames shed from bulk lanes while a peer was down.
    pub frames_shed: AtomicU64,
}

impl NetFaultStats {
    /// One relaxed read per counter, as a plain tuple-free report.
    pub fn report(&self) -> NetFaultReport {
        NetFaultReport {
            frames_dropped: self.frames_dropped.load(Ordering::Relaxed),
            frames_duplicated: self.frames_duplicated.load(Ordering::Relaxed),
            links_severed: self.links_severed.load(Ordering::Relaxed),
            reconnects: self.reconnects.load(Ordering::Relaxed),
            frames_shed: self.frames_shed.load(Ordering::Relaxed),
        }
    }
}

/// A point-in-time copy of [`NetFaultStats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NetFaultReport {
    pub frames_dropped: u64,
    pub frames_duplicated: u64,
    pub links_severed: u64,
    pub reconnects: u64,
    pub frames_shed: u64,
}

/// The per-loop judge: one process's view of the plan, with the per-link
/// draw counters for its outbound links. Owned by the event loop thread;
/// only the stats are shared.
#[derive(Debug)]
pub(crate) struct LinkJudge {
    plan: NetFaultPlan,
    me: ProcessId,
    /// Per-destination frame counters driving the deterministic draws.
    counters: Vec<u64>,
}

impl LinkJudge {
    pub(crate) fn new(plan: NetFaultPlan, me: ProcessId, n: usize) -> LinkJudge {
        LinkJudge { plan, me, counters: vec![0; n] }
    }

    pub(crate) fn plan(&self) -> &NetFaultPlan {
        &self.plan
    }

    /// Judges one outbound frame to `to` at loop time `now`.
    ///
    /// Partition windows deliberately do NOT drop frames here: the event
    /// loop enforces them by severing the connection and parking the
    /// queue (lossless, replayed after the heal). Dropping at the frame
    /// level too would turn the tick-granularity race — a frame judged
    /// just before `maintain_links` notices the window — into permanent
    /// loss, which a partition is not. Only the explicit drop/duplicate
    /// probabilities consume randomness.
    pub(crate) fn judge_frame(&mut self, _now: Duration, to: ProcessId) -> NetVerdict {
        if !self.plan.has_frame_faults() {
            return NetVerdict::Pass;
        }
        let Some(counter) = self.counters.get_mut(to.as_usize()) else {
            return NetVerdict::Pass;
        };
        *counter += 1;
        let link = (u64::from(self.me.index()) << 32) | u64::from(to.index());
        let draw = splitmix64(
            self.plan.seed ^ splitmix64(link) ^ counter.wrapping_mul(0x9E37_79B9_7F4A_7C15),
        );
        let roll = draw % 1000;
        if roll < u64::from(self.plan.drop_permille) {
            return NetVerdict::Drop;
        }
        if roll < u64::from(self.plan.drop_permille) + u64::from(self.plan.duplicate_permille) {
            return NetVerdict::Duplicate;
        }
        NetVerdict::Pass
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(i: u16) -> ProcessId {
        ProcessId::new(i)
    }

    fn ms(v: u64) -> Duration {
        Duration::from_millis(v)
    }

    #[test]
    fn partition_window_is_half_open_and_symmetric() {
        let plan = NetFaultPlan::new(0).partition(p(0), p(1), ms(10), ms(20));
        assert!(!plan.partitioned_at(ms(9), p(0), p(1)));
        assert!(plan.partitioned_at(ms(10), p(0), p(1)));
        assert!(plan.partitioned_at(ms(15), p(1), p(0)));
        assert!(!plan.partitioned_at(ms(20), p(0), p(1)));
        assert!(!plan.partitioned_at(ms(15), p(0), p(2)));
        assert_eq!(plan.healed_after(), ms(20));
    }

    #[test]
    fn isolate_cuts_every_link_of_the_victim() {
        let plan = NetFaultPlan::new(0).isolate(p(2), 4, ms(0), ms(5));
        for q in [p(0), p(1), p(3)] {
            assert!(plan.partitioned_at(ms(1), p(2), q));
            assert!(plan.partitioned_at(ms(1), q, p(2)));
        }
        assert!(!plan.partitioned_at(ms(1), p(0), p(1)));
    }

    #[test]
    fn same_seed_same_frames_identical_verdicts() {
        let run = |seed: u64| {
            let mut judge = LinkJudge::new(NetFaultPlan::new(seed).drop(150).duplicate(100), p(0), 3);
            (0..500u64).map(|i| judge.judge_frame(ms(i), p((i % 2 + 1) as u16))).collect::<Vec<_>>()
        };
        assert_eq!(run(7), run(7));
        assert_ne!(run(7), run(8), "different seeds should diverge");
    }

    #[test]
    fn probabilities_populate_every_verdict() {
        let mut judge = LinkJudge::new(NetFaultPlan::new(3).drop(200).duplicate(100), p(0), 2);
        let mut drops = 0u32;
        let mut dups = 0u32;
        let mut passes = 0u32;
        for i in 0..2000u64 {
            match judge.judge_frame(ms(i), p(1)) {
                NetVerdict::Drop => drops += 1,
                NetVerdict::Duplicate => dups += 1,
                NetVerdict::Pass => passes += 1,
            }
        }
        assert!((200..=600).contains(&drops), "drops = {drops}");
        assert!((100..=350).contains(&dups), "dups = {dups}");
        assert!(passes >= 1200, "passes = {passes}");
    }

    #[test]
    fn empty_plan_judges_pass_without_consuming_draws() {
        let mut judge = LinkJudge::new(NetFaultPlan::new(9), p(0), 2);
        for i in 0..10u64 {
            assert_eq!(judge.judge_frame(ms(i), p(1)), NetVerdict::Pass);
        }
        assert_eq!(judge.counters, vec![0, 0], "an empty plan must not advance the stream");
    }

    #[test]
    fn partition_windows_never_drop_frames_at_the_judge() {
        // Partitions are enforced by severing the connection (lossless:
        // the queue parks, the scratch is salvaged); a frame that races
        // the sever must pass, not silently die.
        let mut judge =
            LinkJudge::new(NetFaultPlan::new(1).partition(p(0), p(1), ms(0), ms(10)), p(0), 2);
        assert!(judge.plan().partitioned_at(ms(5), p(0), p(1)));
        assert_eq!(judge.judge_frame(ms(5), p(1)), NetVerdict::Pass);
        assert_eq!(judge.counters[1], 0, "partition checks consume no draw");
    }

    #[test]
    #[should_panic(expected = "exceed 1000 permille")]
    fn overcommitted_probability_budget_panics() {
        let _ = NetFaultPlan::new(0).drop(600).duplicate(500);
    }

    #[test]
    #[should_panic(expected = "must be non-empty")]
    fn empty_partition_window_panics() {
        let _ = NetFaultPlan::new(0).partition(p(0), p(1), ms(5), ms(5));
    }
}

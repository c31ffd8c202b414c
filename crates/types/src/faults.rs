//! The link-fault grammar: one seeded plan of how the channels misbehave,
//! read by both the simulator and the socket transport.
//!
//! The paper's system model is crash failures over *quasi-reliable*
//! channels. A [`LinkFaults`] plan scripts the channel half of that model
//! for one run: peer-pair partition windows plus seeded per-frame drop,
//! duplicate, delay and reorder probabilities. The plan is plain data over
//! a clock `T` its windows are read against — the simulator's virtual
//! [`Time`](crate::Time), or a socket cluster's [`Duration`] since start —
//! so a nemesis schedule is one value whichever transport runs it. Each
//! transport interprets the verdicts its own way:
//!
//! | grammar | simulator | sockets |
//! |---|---|---|
//! | `partition`, `isolate` | frames judged inside the window are held until it closes | the connection is severed, its frames parked, and redials wait for the heal |
//! | `drop`, `duplicate` | at the `TxDone → RxArrive` edge | at encode time |
//! | `delay`, `reorder`, `record_trace` | yes | refused when the cluster starts |
//!
//! Every random verdict comes from a splitmix64 stream keyed on
//! `(seed, from, to, per-link frame counter)`: the same plan over the same
//! frame sequence injects the identical faults, on either transport.
//! Partition checks consume no draw, and neither does a plan with no
//! probabilities configured.

use std::collections::BTreeMap;

use crate::{splitmix64, Duration, ProcessId};

/// What the plan decided to do with one frame in flight.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LinkFault {
    /// Deliver normally.
    Pass,
    /// A partition window covers the link right now: the frame waits for
    /// the link to open again ([`LinkFaults::link_opens_at`]).
    Partitioned,
    /// Randomly dropped by the lossy link.
    Dropped,
    /// Deliver the frame *and* a duplicate copy.
    Duplicated,
    /// Deliver after the given extra propagation delay.
    Delayed(Duration),
    /// Held back long enough for later frames on the link to overtake it
    /// (the simulator maps this to one extra propagation slot).
    Reordered,
}

/// One entry of the injected-fault trace (see [`LinkFaults::record_trace`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultTraceEntry<T> {
    /// When the fault fired.
    pub at: T,
    /// Sending side of the affected link.
    pub from: ProcessId,
    /// Receiving side of the affected link.
    pub to: ProcessId,
    /// What was injected.
    pub fault: LinkFault,
}

/// A symmetric partition window between two processes: the link is dead
/// in both directions while `from <= now < until`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct PartitionWindow<T> {
    a: ProcessId,
    b: ProcessId,
    from: T,
    until: T,
}

/// Deterministic per-link fault behaviour over the clock `T` (see the
/// module docs). Probabilities are permille (0..=1000) of frames judged.
///
/// # Example
///
/// ```
/// use iabc_types::{Duration, LinkFault, LinkFaults, ProcessId};
///
/// let (p0, p1) = (ProcessId::new(0), ProcessId::new(1));
/// let ms = Duration::from_millis;
/// let mut plan = LinkFaults::new(42).partition(p0, p1, ms(0), ms(10));
/// assert_eq!(plan.judge(ms(5), p1, p0), LinkFault::Partitioned);
/// assert_eq!(plan.judge(ms(10), p1, p0), LinkFault::Pass);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LinkFaults<T> {
    seed: u64,
    partitions: Vec<PartitionWindow<T>>,
    drop_permille: u16,
    duplicate_permille: u16,
    delay_permille: u16,
    reorder_permille: u16,
    max_extra_delay: Duration,
    /// Per-link frame counters driving the deterministic draw stream.
    counters: BTreeMap<(ProcessId, ProcessId), u64>,
    trace: Option<Vec<FaultTraceEntry<T>>>,
}

impl<T: Copy + Ord> LinkFaults<T> {
    /// A plan with the given seed and no faults configured yet.
    pub fn new(seed: u64) -> Self {
        LinkFaults {
            seed,
            partitions: Vec::new(),
            drop_permille: 0,
            duplicate_permille: 0,
            delay_permille: 0,
            reorder_permille: 0,
            max_extra_delay: Duration::ZERO,
            counters: BTreeMap::new(),
            trace: None,
        }
    }

    /// Adds a symmetric partition of `a` and `b` over `[from, until)`
    /// (builder style). The link heals the instant the window closes.
    ///
    /// # Panics
    ///
    /// Panics if `until <= from` or `a == b`.
    pub fn partition(mut self, a: ProcessId, b: ProcessId, from: T, until: T) -> Self {
        assert!(until > from, "partition window must be non-empty");
        assert!(a != b, "cannot partition a process from itself");
        self.partitions.push(PartitionWindow { a, b, from, until });
        self
    }

    /// Partitions `p` from every other process of an `n`-process system
    /// over `[from, until)` (builder style) — full isolation, the nemesis
    /// staple.
    pub fn isolate(mut self, p: ProcessId, n: usize, from: T, until: T) -> Self {
        for q in ProcessId::all(n).filter(|&q| q != p) {
            self = self.partition(p, q, from, until);
        }
        self
    }

    /// Sets the per-frame drop probability in permille (builder style).
    ///
    /// # Panics
    ///
    /// Panics if the combined probabilities exceed 1000 permille (as do
    /// the three setters below).
    pub fn drop(mut self, permille: u16) -> Self {
        self.drop_permille = permille;
        self.assert_budget();
        self
    }

    /// Sets the per-frame duplication probability in permille (builder
    /// style). Dedup is the receiver's job: quasi-reliable channels only
    /// promise no *creation*, and the RB store filters re-deliveries by id.
    pub fn duplicate(mut self, permille: u16) -> Self {
        self.duplicate_permille = permille;
        self.assert_budget();
        self
    }

    /// Sets the per-frame extra-delay probability in permille and the
    /// maximum extra delay (builder style); each affected frame's delay is
    /// drawn uniformly from `[0, max_extra]`.
    pub fn delay(mut self, permille: u16, max_extra: Duration) -> Self {
        self.delay_permille = permille;
        self.max_extra_delay = max_extra;
        self.assert_budget();
        self
    }

    /// Sets the per-frame reorder probability in permille (builder style).
    pub fn reorder(mut self, permille: u16) -> Self {
        self.reorder_permille = permille;
        self.assert_budget();
        self
    }

    /// Records every fault [`LinkFaults::judge`] injects (builder style);
    /// read it back with [`LinkFaults::trace`]. Off by default because a
    /// long lossy run accumulates a large trace.
    pub fn record_trace(mut self) -> Self {
        self.trace = Some(Vec::new());
        self
    }

    /// The sum of the four probabilities, in permille.
    fn budget(&self) -> u32 {
        [self.drop_permille, self.duplicate_permille, self.delay_permille, self.reorder_permille]
            .into_iter()
            .map(u32::from)
            .sum()
    }

    fn assert_budget(&self) {
        let total = self.budget();
        assert!(total <= 1000, "fault probabilities exceed 1000 permille (got {total})");
    }

    /// The builder name of the first setting that needs a transport able
    /// to hold frames back or to keep a trace — `delay`, `reorder` or
    /// `record_trace` — if the plan uses one.
    pub fn sim_only_setting(&self) -> Option<&'static str> {
        [
            (self.delay_permille > 0, "delay"),
            (self.reorder_permille > 0, "reorder"),
            (self.trace.is_some(), "record_trace"),
        ]
        .into_iter()
        .find_map(|(set, name)| set.then_some(name))
    }

    /// The partition windows covering the `a`–`b` link at `now`.
    fn windows_over(&self, now: T, a: ProcessId, b: ProcessId) -> impl Iterator<Item = &PartitionWindow<T>> {
        self.partitions.iter().filter(move |w| {
            ((w.a == a && w.b == b) || (w.a == b && w.b == a)) && now >= w.from && now < w.until
        })
    }

    /// Whether any partition window covers the `a`–`b` link at `now`.
    pub fn partitioned_at(&self, now: T, a: ProcessId, b: ProcessId) -> bool {
        self.windows_over(now, a, b).next().is_some()
    }

    /// The first instant at or after `now` at which no partition window
    /// covers the `a`–`b` link: `now` itself on an open link, else the
    /// close of the windows covering it, windows that overlap or touch
    /// counting as one.
    pub fn link_opens_at(&self, now: T, a: ProcessId, b: ProcessId) -> T {
        let mut t = now;
        // Each step moves `t` to a window end past it, so this ends.
        while let Some(until) = self.windows_over(t, a, b).map(|w| w.until).max() {
            t = until;
        }
        t
    }

    /// The recorded fault trace, if [`LinkFaults::record_trace`] was set.
    pub fn trace(&self) -> Option<&[FaultTraceEntry<T>]> {
        self.trace.as_deref()
    }

    /// Judges one frame leaving `from` for `to` at `now`: partition
    /// windows first, then [`LinkFaults::judge_frame`]. Records the
    /// verdict when tracing and it is not [`LinkFault::Pass`].
    pub fn judge(&mut self, now: T, from: ProcessId, to: ProcessId) -> LinkFault {
        let fault = if self.partitioned_at(now, from, to) {
            LinkFault::Partitioned
        } else {
            self.judge_frame(from, to)
        };
        if fault != LinkFault::Pass {
            if let Some(trace) = &mut self.trace {
                trace.push(FaultTraceEntry { at: now, from, to, fault });
            }
        }
        fault
    }

    /// The draw-only half of [`LinkFaults::judge`], for a transport that
    /// enforces partitions itself: one draw decides the frame's fate and,
    /// for a delay, a second picks its length. Never
    /// [`LinkFault::Partitioned`]; consumes no draw when no probability is
    /// configured.
    pub fn judge_frame(&mut self, from: ProcessId, to: ProcessId) -> LinkFault {
        if self.budget() == 0 {
            return LinkFault::Pass;
        }
        let roll = self.draw(from, to) % 1000;
        let dropped = u64::from(self.drop_permille);
        let duplicated = dropped + u64::from(self.duplicate_permille);
        let delayed = duplicated + u64::from(self.delay_permille);
        let reordered = delayed + u64::from(self.reorder_permille);
        if roll < dropped {
            LinkFault::Dropped
        } else if roll < duplicated {
            LinkFault::Duplicated
        } else if roll < delayed {
            let span = self.max_extra_delay.as_nanos();
            let extra = if span == 0 { 0 } else { self.draw(from, to) % (span + 1) };
            LinkFault::Delayed(Duration::from_nanos(extra))
        } else if roll < reordered {
            LinkFault::Reordered
        } else {
            LinkFault::Pass
        }
    }

    /// The next word of the per-link deterministic draw stream.
    fn draw(&mut self, from: ProcessId, to: ProcessId) -> u64 {
        let c = self.counters.entry((from, to)).or_insert(0);
        *c += 1;
        let link = (u64::from(from.index()) << 32) | u64::from(to.index());
        splitmix64(self.seed ^ splitmix64(link) ^ c.wrapping_mul(0x9E37_79B9_7F4A_7C15))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Time;

    fn p(i: u16) -> ProcessId {
        ProcessId::new(i)
    }

    fn at(ms: u64) -> Time {
        Time::ZERO + Duration::from_millis(ms)
    }

    #[test]
    fn partition_window_is_half_open_and_symmetric() {
        let mut lf = LinkFaults::new(0).partition(p(0), p(1), at(10), at(20));
        assert_eq!(lf.judge(at(9), p(0), p(1)), LinkFault::Pass);
        assert_eq!(lf.judge(at(10), p(0), p(1)), LinkFault::Partitioned);
        assert_eq!(lf.judge(at(15), p(1), p(0)), LinkFault::Partitioned);
        assert_eq!(lf.judge(at(20), p(0), p(1)), LinkFault::Pass);
        // Unrelated links are untouched.
        assert_eq!(lf.judge(at(15), p(0), p(2)), LinkFault::Pass);
    }

    #[test]
    fn a_link_opens_when_the_last_window_covering_it_closes() {
        let lf = LinkFaults::new(0)
            .partition(p(0), p(1), at(10), at(20))
            .partition(p(1), p(0), at(15), at(30))
            .partition(p(0), p(1), at(30), at(35))
            .partition(p(0), p(1), at(40), at(50))
            .partition(p(0), p(2), at(0), at(100));
        assert_eq!(lf.link_opens_at(at(5), p(0), p(1)), at(5), "an open link opens now");
        assert_eq!(lf.link_opens_at(at(10), p(1), p(0)), at(35), "overlapping and touching windows chain");
        assert_eq!(lf.link_opens_at(at(35), p(0), p(1)), at(35));
        assert_eq!(lf.link_opens_at(at(49), p(0), p(1)), at(50));
        assert_eq!(lf.link_opens_at(at(50), p(1), p(2)), at(50), "other links are untouched");
    }

    #[test]
    fn isolate_partitions_every_link_of_the_victim() {
        let mut lf = LinkFaults::new(0).isolate(p(2), 4, at(0), at(5));
        for q in [p(0), p(1), p(3)] {
            assert_eq!(lf.judge(at(1), p(2), q), LinkFault::Partitioned);
            assert_eq!(lf.judge(at(1), q, p(2)), LinkFault::Partitioned);
        }
        assert_eq!(lf.judge(at(1), p(0), p(1)), LinkFault::Pass);
    }

    #[test]
    fn same_seed_same_frames_identical_fault_trace() {
        let run = |seed: u64| {
            let mut lf = LinkFaults::new(seed)
                .drop(100)
                .duplicate(50)
                .delay(100, Duration::from_millis(2))
                .reorder(50);
            let mut verdicts = Vec::new();
            for i in 0..500u64 {
                let from = p((i % 3) as u16);
                let to = p(((i + 1) % 3) as u16);
                verdicts.push(lf.judge(at(i), from, to));
            }
            verdicts
        };
        assert_eq!(run(7), run(7));
        assert_ne!(run(7), run(8), "different seeds should diverge");
    }

    proptest::proptest! {
        /// Determinism over the whole input space: any plan shape judging
        /// any frame script must produce the identical verdict sequence
        /// when replayed from the same seed — the property nemesis runs
        /// lean on to reproduce a storm from its seed alone.
        #[test]
        fn any_plan_judges_any_script_identically_per_seed(
            seed in proptest::any::<u64>(),
            drop_pm in 0u16..400,
            dup_pm in 0u16..300,
            delay_pm in 0u16..200,
            script in proptest::collection::vec(
                (0u64..2_000, 0u16..4, 0u16..4),
                1..80,
            ),
        ) {
            let build = || {
                LinkFaults::new(seed)
                    .partition(p(0), p(1), at(100), at(600))
                    .drop(drop_pm)
                    .duplicate(dup_pm)
                    .delay(delay_pm, Duration::from_millis(3))
            };
            let mut a = build();
            let mut b = build();
            for &(t, from, to) in &script {
                if from == to {
                    continue;
                }
                proptest::prop_assert_eq!(
                    a.judge(at(t), p(from), p(to)),
                    b.judge(at(t), p(from), p(to))
                );
            }
        }
    }

    #[test]
    fn probabilities_hit_every_verdict_roughly_in_proportion() {
        let mut lf = LinkFaults::new(3)
            .drop(200)
            .duplicate(100)
            .delay(100, Duration::from_millis(1))
            .reorder(100);
        let mut drops = 0u32;
        let mut dups = 0u32;
        let mut delays = 0u32;
        let mut reorders = 0u32;
        let mut passes = 0u32;
        for i in 0..2000u64 {
            match lf.judge(at(i), p(0), p(1)) {
                LinkFault::Dropped => drops += 1,
                LinkFault::Duplicated => dups += 1,
                LinkFault::Delayed(d) => {
                    assert!(d <= Duration::from_millis(1));
                    delays += 1;
                }
                LinkFault::Reordered => reorders += 1,
                LinkFault::Pass => passes += 1,
                LinkFault::Partitioned => unreachable!("no partitions configured"),
            }
        }
        // 2000 draws at 20%/10%/10%/10%: each bucket must be populated and
        // in the right ballpark (loose bounds — the stream is fixed).
        assert!((200..=600).contains(&drops), "drops = {drops}");
        assert!((100..=350).contains(&dups), "dups = {dups}");
        assert!((100..=350).contains(&delays), "delays = {delays}");
        assert!((100..=350).contains(&reorders), "reorders = {reorders}");
        assert!(passes >= 800, "passes = {passes}");
    }

    #[test]
    fn trace_records_only_injected_faults() {
        let mut lf = LinkFaults::new(0)
            .partition(p(0), p(1), at(0), at(10))
            .record_trace();
        let _ = lf.judge(at(1), p(0), p(1)); // partitioned
        let _ = lf.judge(at(11), p(0), p(1)); // pass — not recorded
        let trace = lf.trace().unwrap();
        assert_eq!(trace.len(), 1);
        assert_eq!(
            trace[0],
            FaultTraceEntry { at: at(1), from: p(0), to: p(1), fault: LinkFault::Partitioned }
        );
    }

    /// The first 64 verdicts of `new(7).drop(150).duplicate(100)` on the
    /// p0 → p1 link (P pass, X drop, D duplicate). A nemesis seed names
    /// one storm only while neither transport's stream can move.
    const GOLDEN_P0_P1: &str = "\
        P P P X P X D P P P P P P D P P P P D P P D P P P P P P P P P X \
        P P P P X P X P P P X X X D P P P P X D P D P X P P P P P X P P";

    #[test]
    fn one_seed_means_one_storm_on_both_transports() {
        let expected: Vec<LinkFault> = GOLDEN_P0_P1
            .split_whitespace()
            .map(|v| match v {
                "P" => LinkFault::Pass,
                "X" => LinkFault::Dropped,
                _ => LinkFault::Duplicated,
            })
            .collect();
        assert_eq!(expected.len(), 64);
        let mut sockets = LinkFaults::<Duration>::new(7).drop(150).duplicate(100);
        let mut sim = LinkFaults::<Time>::new(7).drop(150).duplicate(100);
        for (i, &want) in (0u64..).zip(&expected) {
            assert_eq!(sockets.judge_frame(p(0), p(1)), want, "sockets, frame {i}");
            assert_eq!(sim.judge(at(i), p(0), p(1)), want, "sim, frame {i}");
        }
    }

    #[test]
    #[should_panic(expected = "exceed 1000 permille")]
    fn overcommitted_probability_budget_panics() {
        let _ = LinkFaults::<Time>::new(0).drop(600).duplicate(500);
    }

    #[test]
    #[should_panic(expected = "exceed 1000 permille")]
    fn a_budget_past_u16_range_panics_instead_of_wrapping() {
        // 1000 + 65,000 wraps to 464 in a u16 sum.
        let _ = LinkFaults::<Time>::new(0).drop(1000).duplicate(65_000);
    }

    #[test]
    #[should_panic(expected = "must be non-empty")]
    fn empty_partition_window_panics() {
        let _ = LinkFaults::new(0).partition(p(0), p(1), at(5), at(5));
    }
}

//! ◇S consensus and indirect consensus.
//!
//! This crate contains the four agreement algorithms studied by the paper:
//!
//! | Type | Paper reference | Quorum | Resilience |
//! |------|-----------------|--------|------------|
//! | [`CtConsensus`] | Chandra–Toueg ◇S consensus \[2\] | `⌈(n+1)/2⌉` | `f < n/2` |
//! | [`CtIndirect`]  | **Algorithm 2** (adapted CT)      | `⌈(n+1)/2⌉` | `f < n/2` |
//! | [`MrConsensus`] | Mostéfaoui–Raynal ◇S consensus \[7\] | `⌈(n+1)/2⌉` | `f < n/2` |
//! | [`MrIndirect`]  | **Algorithm 3** (adapted MR)      | `⌈(2n+1)/3⌉` | `f < n/3` |
//!
//! The *direct* algorithms ([`CtConsensus`], [`MrConsensus`]) are generic
//! over the decided value: run them on full message sets and you get the
//! classic reduction of atomic broadcast to consensus; run them on bare
//! identifier sets and you get the **faulty** stack of the paper's §2.2
//! (fast, but able to violate atomic broadcast Validity after one crash).
//!
//! The *indirect* algorithms consult an [`RcvOracle`] — the paper's `rcv`
//! function — before adopting any estimate, which establishes the
//! *No loss* property: every v-valent configuration is v-stable.
//!
//! All algorithms are single-instance sans-io state machines implementing
//! [`SingleConsensus`]; [`InstanceManager`] multiplexes the numbered
//! instances `k = 1, 2, …` that the atomic broadcast reduction executes.

pub mod ct;
pub mod ct_indirect;
pub mod manager;
pub mod mr;
pub mod mr_indirect;
pub mod msg;
pub mod value;

use std::fmt;

use iabc_types::{Duration, ProcessId, ProcessSet};

pub use ct::CtConsensus;
pub use ct_indirect::CtIndirect;
pub use manager::{InstanceManager, MgrOut};
pub use mr::MrConsensus;
pub use mr_indirect::MrIndirect;
pub use msg::{ConsDest, ConsMsg};
pub use value::{AlwaysHeld, ConsensusValue, RcvOracle};

/// Output buffer filled by consensus callbacks.
#[derive(Debug)]
pub struct ConsOut<V> {
    /// Messages to send.
    pub sends: Vec<(ConsDest, ConsMsg<V>)>,
    /// The decision, if this callback reached one (at most once ever).
    pub decision: Option<V>,
    /// CPU time consumed by `rcv()` evaluations during this callback
    /// (simulation accounting; see the paper's Figure 3 discussion).
    pub work: Duration,
}

impl<V> ConsOut<V> {
    /// Creates an empty buffer.
    pub fn new() -> Self {
        ConsOut { sends: Vec::new(), decision: None, work: Duration::ZERO }
    }

    /// Whether nothing at all was produced — no protocol effects *and* no
    /// accounting. Callers probing for protocol activity usually want
    /// [`ConsOut::has_effects`]: a cost-only callback (`work > 0`, nothing
    /// sent, no decision) is not activity.
    pub fn is_empty(&self) -> bool {
        !self.has_effects() && self.work.is_zero()
    }

    /// Whether the callback produced protocol effects (sends or a
    /// decision), ignoring accrued `rcv()` accounting.
    pub fn has_effects(&self) -> bool {
        !self.sends.is_empty() || self.decision.is_some()
    }
}

impl<V> Default for ConsOut<V> {
    fn default() -> Self {
        ConsOut::new()
    }
}

/// Read-only environment for a consensus callback: the `rcv` oracle and the
/// current failure-detector output `D_p`.
pub struct ConsEnv<'a, V> {
    /// The paper's `rcv` function (always-true for direct algorithms).
    pub rcv: &'a dyn RcvOracle<V>,
    /// Currently suspected processes.
    pub suspected: ProcessSet,
}

impl<'a, V> ConsEnv<'a, V> {
    /// Creates an environment.
    pub fn new(rcv: &'a dyn RcvOracle<V>, suspected: ProcessSet) -> Self {
        ConsEnv { rcv, suspected }
    }

    /// Evaluates `rcv(v)`, charging its CPU cost to `out`.
    pub fn check_rcv(&self, v: &V, out: &mut ConsOut<V>) -> bool {
        out.work += self.rcv.cost(v);
        self.rcv.rcv(v)
    }
}

/// Who takes part in an instance and who coordinates which round — the
/// part of the two round machines that is the same.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Membership {
    pub(crate) me: ProcessId,
    n: usize,
    /// Added to the round number when selecting the coordinator, so that
    /// consecutive consensus instances rotate their round-1 coordinator
    /// (coordinator work would otherwise pile onto one process across
    /// every instance of the atomic broadcast reduction).
    coord_offset: u64,
    /// Processes that never participate in consensus (learners / read
    /// replicas): rotation skips them and quorums count only the actives.
    passive: ProcessSet,
}

impl Membership {
    /// # Panics
    ///
    /// Panics if `n == 0`, if `passive` names a process outside the
    /// system, or if no active process remains.
    pub(crate) fn new(me: ProcessId, n: usize, coord_offset: u64, passive: ProcessSet) -> Self {
        assert!(n > 0, "system must have at least one process");
        assert!(
            passive.difference(ProcessSet::full(n)).is_empty(),
            "passive set names processes outside the system"
        );
        assert!(passive.len() < n, "at least one process must stay active");
        Membership { me, n, coord_offset, passive }
    }

    /// Number of active processes: the `n` every quorum is computed over.
    pub(crate) fn actives(&self) -> usize {
        self.n - self.passive.len()
    }

    /// The coordinator of `round`.
    pub(crate) fn coord(&self, round: u64) -> ProcessId {
        if self.passive.is_empty() {
            return ProcessId::coordinator_of_round(round + self.coord_offset, self.n);
        }
        // Rotate over the sorted active ids only: a passive process never
        // coordinates, so no round is wasted waiting to suspect a replica
        // that by design stays silent.
        let idx = ((round + self.coord_offset) % self.actives() as u64) as usize;
        ProcessId::all(self.n)
            .filter(|p| !self.passive.contains(*p))
            .nth(idx)
            // lint:allow(P1): local invariant, not remote data — the constructor asserts at least one active process
            .expect("at least one active process")
    }
}

/// A single-instance consensus state machine.
///
/// The composed node (or the [`InstanceManager`]) calls `propose` exactly
/// once, routes incoming [`ConsMsg`]s to `on_message` and newly-suspected
/// processes to `on_suspect`. A decision is reported through
/// [`ConsOut::decision`] exactly once.
pub trait SingleConsensus<V: ConsensusValue>: fmt::Debug {
    /// Starts the instance with initial value `v`
    /// (the paper's `propose(v)` / `propose(v, rcv)`).
    fn propose(&mut self, v: V, env: &ConsEnv<'_, V>, out: &mut ConsOut<V>);

    /// Handles an incoming consensus message.
    fn on_message(
        &mut self,
        from: ProcessId,
        msg: ConsMsg<V>,
        env: &ConsEnv<'_, V>,
        out: &mut ConsOut<V>,
    );

    /// Informs the instance that `p` is now suspected.
    fn on_suspect(&mut self, p: ProcessId, env: &ConsEnv<'_, V>, out: &mut ConsOut<V>);
}

#[doc(hidden)]
pub mod testing {
    //! A synchronous loop-back network for driving consensus state machines
    //! in tests: FIFO or seeded-random message delivery, per-process
    //! oracles and suspicion sets, crash and (scripted) suspicion
    //! injection, plus built-in Uniform Agreement checking on every
    //! decision.
    //!
    //! Each process runs its state machine as instance 1 of a real
    //! [`InstanceManager`], so buffering before `propose` and the whole
    //! decision dissemination policy are the production ones.
    //!
    //! Exposed (doc-hidden) so integration and property tests outside this
    //! crate can drive the algorithms without an executor.

    use std::collections::VecDeque;

    use super::*;

    /// The instance every [`LoopNet`] process runs.
    const K: u64 = 1;

    pub struct LoopNet<V: ConsensusValue, A: SingleConsensus<V>> {
        pub mgrs: Vec<InstanceManager<V, A>>,
        pub oracles: Vec<Box<dyn RcvOracle<V>>>,
        pub suspected: Vec<ProcessSet>,
        pub crashed: Vec<bool>,
        pub decisions: Vec<Option<V>>,
        /// Every remote frame put on the wire so far: (from, to, frame).
        pub frames: Vec<(ProcessId, ProcessId, ConsMsg<V>)>,
        queue: VecDeque<(ProcessId, ProcessId, ConsMsg<V>)>,
        n: usize,
    }

    impl<V: ConsensusValue, A: SingleConsensus<V> + Send + 'static> LoopNet<V, A> {
        pub fn new(
            n: usize,
            mut make: impl FnMut(ProcessId) -> A,
            mut oracle: impl FnMut() -> Box<dyn RcvOracle<V>>,
        ) -> Self {
            let mgrs = ProcessId::all(n)
                .map(|p| {
                    let mut algo = Some(make(p));
                    InstanceManager::new(move |_k| algo.take().expect("LoopNet runs one instance"))
                })
                .collect();
            LoopNet {
                mgrs,
                oracles: (0..n).map(|_| oracle()).collect(),
                suspected: vec![ProcessSet::new(); n],
                crashed: vec![false; n],
                decisions: vec![None; n],
                frames: Vec::new(),
                queue: VecDeque::new(),
                n,
            }
        }

        /// Replaces the oracle of process `p` (to script `rcv` behaviour).
        pub fn set_oracle(&mut self, p: ProcessId, oracle: Box<dyn RcvOracle<V>>) {
            self.oracles[p.as_usize()] = oracle;
        }

        /// Marks `p` crashed: it stops processing (messages it already sent
        /// still deliver — crash-after-send semantics; see
        /// [`LoopNet::drop_queued`] for a crash mid-send).
        pub fn crash(&mut self, p: ProcessId) {
            self.crashed[p.as_usize()] = true;
        }

        /// Makes `at`'s detector suspect `target` and notifies the algorithm.
        pub fn suspect_at(&mut self, at: ProcessId, target: ProcessId) {
            let i = at.as_usize();
            self.suspected[i].insert(target);
            if self.crashed[i] {
                return;
            }
            let mut out = MgrOut::new();
            self.mgrs[i].on_suspect(target, self.oracles[i].as_ref(), self.suspected[i], &mut out);
            self.dispatch(at, out);
        }

        pub fn propose(&mut self, p: ProcessId, v: V) {
            let i = p.as_usize();
            assert!(!self.crashed[i], "cannot propose at a crashed process");
            let mut out = MgrOut::new();
            self.mgrs[i].propose(K, v, self.oracles[i].as_ref(), self.suspected[i], &mut out);
            self.dispatch(p, out);
        }

        fn deliver(&mut self, from: ProcessId, to: ProcessId, msg: ConsMsg<V>) {
            let i = to.as_usize();
            if self.crashed[i] {
                return;
            }
            let mut out = MgrOut::new();
            self.mgrs[i].on_message(K, from, msg, self.oracles[i].as_ref(), self.suspected[i], &mut out);
            self.dispatch(to, out);
        }

        fn dispatch(&mut self, from: ProcessId, out: MgrOut<V>) {
            for (_, v) in out.decisions {
                let i = from.as_usize();
                assert!(self.decisions[i].is_none(), "uniform integrity violated at {from}");
                // Uniform agreement across the whole run:
                for (j, d) in self.decisions.iter().enumerate() {
                    if let Some(d) = d {
                        assert_eq!(
                            d, &v,
                            "uniform agreement violated: p{j} decided {d:?}, {from} decided {v:?}"
                        );
                    }
                }
                self.decisions[i] = Some(v);
            }
            for (_, dest, msg) in out.sends {
                for q in ProcessId::all(self.n) {
                    let addressed = match dest {
                        ConsDest::To(to) => q == to,
                        ConsDest::All => true,
                        ConsDest::Others => q != from,
                    };
                    if !addressed {
                        continue;
                    }
                    if q != from {
                        self.frames.push((from, q, msg.clone()));
                    }
                    self.queue.push_back((from, q, msg.clone()));
                }
            }
        }

        /// Delivers queued messages FIFO until quiescent.
        ///
        /// # Panics
        ///
        /// Panics after 100 000 deliveries (livelock guard), on duplicate
        /// decision, or on an agreement violation.
        pub fn run(&mut self) {
            let mut steps = 0u64;
            while let Some((from, to, msg)) = self.queue.pop_front() {
                self.deliver(from, to, msg);
                steps += 1;
                assert!(steps < 100_000, "livelock: message churn without progress");
            }
        }

        /// Pops the oldest queued message without delivering it (for
        /// fine-grained test drivers).
        pub fn pop_front(&mut self) -> Option<(ProcessId, ProcessId, ConsMsg<V>)> {
            self.queue.pop_front()
        }

        /// Number of queued (undelivered) messages.
        pub fn queue_len(&self) -> usize {
            self.queue.len()
        }

        /// Drops every queued message `lost(from, to, msg)` selects — what a
        /// sender that crashed mid-send never put on the wire. Returns how
        /// many were dropped.
        pub fn drop_queued(
            &mut self,
            lost: impl Fn(ProcessId, ProcessId, &ConsMsg<V>) -> bool,
        ) -> usize {
            let before = self.queue.len();
            self.queue.retain(|(from, to, msg)| !lost(*from, *to, msg));
            before - self.queue.len()
        }

        /// Delivers one message taken via [`LoopNet::pop_front`].
        pub fn deliver_one(&mut self, from: ProcessId, to: ProcessId, msg: ConsMsg<V>) {
            self.deliver(from, to, msg);
        }

        /// Delivers queued messages in a *seeded-random* order until
        /// quiescent — exploring asynchronous interleavings FIFO delivery
        /// never produces.
        ///
        /// # Panics
        ///
        /// Panics after 200 000 deliveries, on duplicate decision, or on
        /// an agreement violation.
        pub fn run_random(&mut self, seed: u64) {
            // Tiny embedded xorshift so the crate needs no rand dependency.
            let mut state = seed | 1;
            let mut next = |bound: usize| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                (state as usize) % bound
            };
            let mut steps = 0u64;
            while !self.queue.is_empty() {
                let idx = next(self.queue.len());
                let (from, to, msg) = self.queue.remove(idx).expect("index in bounds");
                self.deliver(from, to, msg);
                steps += 1;
                assert!(steps < 200_000, "livelock under random scheduling");
            }
        }

        /// Remote frames sent so far that `pick` selects.
        pub fn count_frames(&self, pick: impl Fn(&ConsMsg<V>) -> bool) -> usize {
            self.frames.iter().filter(|(_, _, m)| pick(m)).count()
        }

        /// The decision shared by all live processes.
        ///
        /// # Panics
        ///
        /// Panics if some live process is undecided.
        pub fn common_decision(&self) -> V {
            let mut result: Option<V> = None;
            for i in 0..self.n {
                if self.crashed[i] {
                    continue;
                }
                let d = self.decisions[i].clone().unwrap_or_else(|| panic!("p{i} undecided"));
                if let Some(prev) = &result {
                    assert_eq!(prev, &d);
                }
                result = Some(d);
            }
            result.expect("no live process")
        }

        /// Asserts every live process decided exactly `v`.
        pub fn assert_all_decided(&self, v: &V) {
            assert_eq!(&self.common_decision(), v);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use iabc_types::IdSet;

    #[test]
    fn cons_out_starts_empty() {
        let out: ConsOut<IdSet> = ConsOut::new();
        assert!(out.is_empty());
        assert!(!out.has_effects());
    }

    #[test]
    fn cost_only_output_is_not_protocol_activity() {
        // Regression: a callback that only evaluated rcv() (work > 0,
        // nothing sent, no decision) used to flip is_empty() and look like
        // protocol activity to callers.
        let mut out: ConsOut<IdSet> = ConsOut::new();
        out.work += Duration::from_micros(3);
        assert!(!out.has_effects(), "accounting alone is not activity");
        assert!(!out.is_empty(), "but the buffer is not empty either");
        out.sends.push((ConsDest::All, ConsMsg::CtAck { round: 1 }));
        assert!(out.has_effects());
    }

    #[test]
    fn env_check_rcv_charges_cost() {
        #[derive(Debug)]
        struct Expensive;
        impl RcvOracle<IdSet> for Expensive {
            fn rcv(&self, _v: &IdSet) -> bool {
                true
            }
            fn cost(&self, _v: &IdSet) -> Duration {
                Duration::from_micros(7)
            }
        }
        let env = ConsEnv::new(&Expensive, ProcessSet::new());
        let mut out = ConsOut::new();
        assert!(env.check_rcv(&IdSet::new(), &mut out));
        assert_eq!(out.work, Duration::from_micros(7));
    }
}

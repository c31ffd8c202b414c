//! The Chandra–Toueg ◇S consensus algorithm, as a reusable round machine.
//!
//! [`CtMachine`] implements the rotating-coordinator skeleton shared by the
//! original algorithm \[2\] and the paper's indirect adaptation
//! (Algorithm 2). The two differ in exactly the places the paper prints in
//! bold, captured here by the [`CtPolicy`] trait:
//!
//! * **Phase 3** — what a process does with the coordinator's proposal
//!   `v`: the original *always* adopts and acks; the indirect algorithm
//!   acks only if `rcv(v)` holds, else nacks (Algorithm 2 lines 25–30).
//! * **Phase 2** — whether the coordinator folds the selected estimate into
//!   its own `estimate_p`: the original does; the indirect algorithm keeps
//!   it in the separate `estimate_c` (Algorithm 2 lines 2, 18, 20, 21, 37),
//!   because the coordinator may relay a value whose messages it does not
//!   hold.
//!
//! [`CtConsensus`] is the original; [`CtIndirect`](crate::CtIndirect) (in
//! its own module) is Algorithm 2.
//!
//! # Round shape: park after the ack
//!
//! A fault-free instance costs one proposal, one round of acks and one
//! decision: `3(n − 1)` remote frames. Round 1 has no estimate phase, acks
//! go to the coordinator only, and a process that **acked** round `r`
//! *parks* — it waits in `r` for the decision instead of opening `r + 1` at
//! once as the textbook algorithm does (an estimate, a second proposal and
//! the replies to both, in every instance). Decisions are disseminated by
//! the [`InstanceManager`](crate::InstanceManager), not here.
//!
//! A parked process leaves `r` only on evidence that `r` is dead: its
//! detector suspects `coord(r)`, or it sees a frame of a round `> r`, or a
//! `CtNack` of `r`. A refuser nacks the coordinator only, as in the textbook;
//! the coordinator that abandons `r` on it **forwards it to everyone**: at
//! `n ≥ 5` coordinator + refuser are not a majority of the next round's
//! estimates, an acker that never heard would wait forever, and a refuser
//! that crashes mid-send may reach the coordinator alone. Leaving early is
//! always safe — the textbook algorithm does it unconditionally.
//!
//! Liveness. Take the lowest round `r` in which a correct `p` is parked
//! forever undecided, `c = coord(r)`; nobody is stuck below `r`, so every
//! correct process reaches `r`, receives the proposal and answers `c`.
//!
//! * *`c` crashes* — before its `Decide`, or while forwarding a nack: by
//!   strong completeness `p` suspects `c` and enters `r + 1`, where the
//!   ackers' timestamped estimates re-propose the locked value. *While
//!   sending the `Decide`*: whoever received it relays it once its detector
//!   suspects `c` (the manager's rule). *After*: quasi-reliable channels
//!   deliver it.
//! * *`c` correct*: every correct process's answer reaches it, and a
//!   majority of them are correct. A nack before a majority of acks (a
//!   failed `rcv(v)`, a suspicion of `c` before its proposal came, `c`'s own
//!   — it may propose a value it does not hold): `c` abandons `r` and its
//!   forward un-parks `p`, whether or not the refuser is still alive. A
//!   majority of acks first: `c` decides and `p` learns the decision
//!   wherever it is by then; a refuser whose nack never left changes nothing.
//! * *A false suspicion at one process `q` only*: before its ack this is a
//!   refusal; after it `q` moves on silently, its estimate un-parks
//!   `coord(r + 1)` at most, and `c` still decides on `q`'s ack.
//!
//! So nobody stays parked forever and rounds keep passing until one
//! decides; the textbook ◇S argument (eventually a correct, unsuspected
//! coordinator whose value — Hypothesis A — everyone holds) is unchanged.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::marker::PhantomData;

use iabc_types::{quorum, ProcessId, ProcessSet};

use crate::msg::{ConsDest, ConsMsg};
use crate::value::ConsensusValue;
use crate::{ConsEnv, ConsOut, Membership, SingleConsensus};

/// The variation points between the original CT algorithm and Algorithm 2.
pub trait CtPolicy: fmt::Debug + Default + 'static {
    /// Phase 3: whether to **ack** (and adopt) the coordinator's proposal.
    ///
    /// The original returns `true` unconditionally; Algorithm 2 returns
    /// `rcv(v)` — the modification that makes v-valent configurations
    /// v-stable.
    fn accept_proposal<V: ConsensusValue>(
        v: &V,
        env: &ConsEnv<'_, V>,
        out: &mut ConsOut<V>,
    ) -> bool;

    /// Phase 2: whether the coordinator adopts the selected estimate into
    /// its own `estimate_p` (original CT) or keeps it only as the separate
    /// `estimate_c` (Algorithm 2).
    const COORDINATOR_ADOPTS_SELECTION: bool;

    /// Human-readable algorithm name.
    const NAME: &'static str;
}

/// Policy of the original (unmodified) Chandra–Toueg algorithm.
#[derive(Debug, Default, Clone, Copy)]
pub struct DirectCt;

impl CtPolicy for DirectCt {
    fn accept_proposal<V: ConsensusValue>(
        _v: &V,
        _env: &ConsEnv<'_, V>,
        _out: &mut ConsOut<V>,
    ) -> bool {
        true // line 25 of Algorithm 2 without the rcv check
    }

    const COORDINATOR_ADOPTS_SELECTION: bool = true;
    const NAME: &'static str = "ct";
}

/// The original Chandra–Toueg ◇S consensus: majority quorum, `f < n/2`.
///
/// Run it on full message sets for the classic (correct, heavyweight)
/// reduction of atomic broadcast to consensus; run it on identifier sets to
/// get the **faulty** baseline of §2.2.
pub type CtConsensus<V> = CtMachine<V, DirectCt>;

/// What the process is currently blocked on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Wait {
    /// `propose` not yet called.
    NotStarted,
    /// Phase 2: gathering `⌈(n+1)/2⌉` estimates (coordinator, round > 1).
    CoordEstimates,
    /// Phase 3: waiting for the coordinator's proposal (or its suspicion).
    Proposal,
    /// Phase 3 done: acked the proposal, waiting for the decision or for
    /// evidence that the round is dead (see the module docs).
    Parked,
    /// Phase 4: waiting for `⌈(n+1)/2⌉` acks or one nack (coordinator).
    CoordAcks,
    /// Decided.
    Done,
}

/// The Chandra–Toueg round machine, parameterized by a [`CtPolicy`].
pub struct CtMachine<V, P: CtPolicy> {
    members: Membership,
    /// Current round `r_p` (1-based; 0 before `propose`).
    round: u64,
    /// `estimate_p`: the value this process vouches for.
    estimate: Option<V>,
    /// `ts_p`: the round in which `estimate_p` was last adopted.
    ts: u64,
    /// The value this process proposed as coordinator of the current round
    /// (`estimate_c` in Algorithm 2) — also the value it decides on.
    current_proposal: Option<V>,
    wait: Wait,
    /// Phase-1 estimates received, per round: sender → (estimate, ts).
    estimates: BTreeMap<u64, BTreeMap<ProcessId, (V, u64)>>,
    /// Proposals received, per round (buffered if we are behind).
    proposals: BTreeMap<u64, V>,
    /// Ack senders per round.
    acks: BTreeMap<u64, BTreeSet<ProcessId>>,
    /// Nack senders per round.
    nacks: BTreeMap<u64, BTreeSet<ProcessId>>,
    /// Highest round any received frame belonged to: a frame of a round
    /// above ours proves that somebody abandoned ours.
    highest_seen: u64,
    _policy: PhantomData<P>,
}

impl<V: ConsensusValue, P: CtPolicy> fmt::Debug for CtMachine<V, P> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("CtMachine")
            .field("policy", &P::NAME)
            .field("me", &self.members.me)
            .field("round", &self.round)
            .field("ts", &self.ts)
            .field("wait", &self.wait)
            .finish()
    }
}

impl<V: ConsensusValue, P: CtPolicy> CtMachine<V, P> {
    /// Creates an instance for process `me` in a system of `n` processes.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn new(me: ProcessId, n: usize) -> Self {
        Self::with_coord_offset(me, n, 0)
    }

    /// Like [`CtMachine::new`], with the coordinator rotation shifted by
    /// `offset` rounds (instance managers pass the instance number).
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn with_coord_offset(me: ProcessId, n: usize, offset: u64) -> Self {
        Self::with_membership(me, n, offset, ProcessSet::new())
    }

    /// Like [`CtMachine::with_coord_offset`], with `passive` processes
    /// (learners / read replicas) excluded from the protocol: they are
    /// never selected as coordinator, and quorums are majorities of the
    /// *active* processes only. With an empty `passive` set this is
    /// byte-identical to the classic algorithm.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`, if `passive` names a process outside the
    /// system, or if no active process remains.
    pub fn with_membership(me: ProcessId, n: usize, offset: u64, passive: ProcessSet) -> Self {
        CtMachine {
            members: Membership::new(me, n, offset, passive),
            round: 0,
            estimate: None,
            ts: 0,
            current_proposal: None,
            wait: Wait::NotStarted,
            estimates: BTreeMap::new(),
            proposals: BTreeMap::new(),
            acks: BTreeMap::new(),
            nacks: BTreeMap::new(),
            highest_seen: 0,
            _policy: PhantomData,
        }
    }

    /// The majority quorum `⌈(a+1)/2⌉` over the `a` *active* processes
    /// (all `n` when no passive set is configured).
    fn quorum(&self) -> usize {
        quorum::majority(self.members.actives())
    }

    /// Current round (for tests and debugging).
    pub fn round(&self) -> u64 {
        self.round
    }

    /// Current `estimate_p` (for tests and debugging).
    pub fn estimate(&self) -> Option<&V> {
        self.estimate.as_ref()
    }

    /// Decides `value`. Reporting it is all this machine does: the
    /// [`InstanceManager`](crate::InstanceManager) announces the decision.
    fn decide(&mut self, value: V, out: &mut ConsOut<V>) {
        self.wait = Wait::Done;
        out.decision = Some(value);
    }

    /// Advances to the next round and performs its entry steps. Loops when
    /// a round resolves immediately (the next coordinator is already
    /// suspected).
    fn enter_next_round(&mut self, env: &ConsEnv<'_, V>, out: &mut ConsOut<V>) {
        loop {
            self.round += 1;
            let r = self.round;
            let c = self.members.coord(r);
            self.current_proposal = None;

            // Phase 1: send the current estimate to the round's coordinator
            // (rounds > 1 only; in round 1 the coordinator uses its own).
            if r > 1 {
                // lint:allow(P1): local invariant, not remote data — propose() sets the estimate before any round is entered
                let estimate = self.estimate.clone().expect("estimate set at propose");
                out.sends
                    .push((ConsDest::To(c), ConsMsg::CtEstimate { round: r, estimate, ts: self.ts }));
            }

            if c == self.members.me {
                if r == 1 {
                    // Phase 2, first round: propose our own estimate
                    // (Algorithm 2 line 20).
                    // lint:allow(P1): local invariant, not remote data — propose() sets the estimate before round 1 starts
                    let proposal = self.estimate.clone().expect("estimate set at propose");
                    self.broadcast_proposal(proposal, out);
                } else {
                    // Phase 2: gather ⌈(n+1)/2⌉ estimates (line 15).
                    self.wait = Wait::CoordEstimates;
                    self.try_select_proposal(out);
                }
                return;
            }

            // Phase 3 as a non-coordinator: the proposal may already be
            // buffered, or the coordinator may already be suspected.
            self.wait = Wait::Proposal;
            if let Some(v) = self.proposals.remove(&r) {
                self.handle_proposal(v, env, out);
                return;
            }
            if env.suspected.contains(c) {
                // Suspect the coordinator outright: nack and try the next
                // round (Algorithm 2 lines 31–32).
                out.sends.push((ConsDest::To(c), ConsMsg::CtNack { round: r }));
                continue;
            }
            return; // wait for the proposal or a suspicion
        }
    }

    /// Phase 2 completion check: with a majority of estimates for the
    /// current round, select the one with the largest timestamp
    /// (deterministic tie-break: smallest sender id) and broadcast it.
    fn try_select_proposal(&mut self, out: &mut ConsOut<V>) {
        let Some(received) = self.estimates.get(&self.round) else { return };
        if received.len() < self.quorum() {
            return;
        }
        let (_, (value, _ts)) = received
            .iter()
            .max_by_key(|(sender, (_, ts))| (*ts, std::cmp::Reverse(**sender)))
            // lint:allow(P1): unreachable — the quorum check above guarantees `received` is nonempty
            .expect("nonempty by quorum check");
        let selected = value.clone();
        if P::COORDINATOR_ADOPTS_SELECTION {
            // Original CT: the coordinator folds the selection into its own
            // estimate. (Algorithm 2 deliberately does NOT do this — the
            // coordinator may lack msgs(selected); see §3.2.2.)
            self.estimate = Some(selected.clone());
        }
        self.broadcast_proposal(selected, out);
    }

    /// Sends the round proposal to everyone (self included) and moves to
    /// Phase 4.
    fn broadcast_proposal(&mut self, proposal: V, out: &mut ConsOut<V>) {
        self.current_proposal = Some(proposal.clone());
        out.sends.push((ConsDest::All, ConsMsg::CtProposal { round: self.round, estimate: proposal }));
        self.wait = Wait::CoordAcks;
    }

    /// Whether the current round is known not to decide through us waiting:
    /// its coordinator is suspected, somebody nacked it, or somebody is
    /// already in a later round.
    fn round_is_dead(&self, env: &ConsEnv<'_, V>) -> bool {
        let r = self.round;
        self.highest_seen > r
            || self.nacks.get(&r).is_some_and(|s| !s.is_empty())
            || env.suspected.contains(self.members.coord(r))
    }

    /// Phase 3: react to the coordinator's proposal for the current round.
    fn handle_proposal(&mut self, v: V, env: &ConsEnv<'_, V>, out: &mut ConsOut<V>) {
        let r = self.round;
        let c = self.members.coord(r);
        let accepted = P::accept_proposal(&v, env, out);
        if accepted {
            // Adopt: estimate_p ← v, ts_p ← r (Algorithm 2 lines 26–28).
            self.estimate = Some(v);
            self.ts = r;
            out.sends.push((ConsDest::To(c), ConsMsg::CtAck { round: r }));
        } else {
            // Refuse: the proposal's messages are missing (lines 29–30).
            out.sends.push((ConsDest::To(c), ConsMsg::CtNack { round: r }));
        }
        if c == self.members.me {
            // The coordinator stays in Phase 4 (Wait::CoordAcks) — its own
            // ack/nack just sent will be counted like everyone else's.
            return;
        }
        if accepted && !self.round_is_dead(env) {
            self.wait = Wait::Parked; // the decision is on its way
        } else {
            self.enter_next_round(env, out);
        }
    }

    /// Phase 4 completion check: decide on a majority of acks; abandon the
    /// round on the first nack.
    fn check_acks(&mut self, env: &ConsEnv<'_, V>, out: &mut ConsOut<V>) {
        let r = self.round;
        if self.wait != Wait::CoordAcks {
            return;
        }
        if self.nacks.get(&r).is_some_and(|s| !s.is_empty()) {
            // Someone refused: next round (Algorithm 2 line 35, nack arm) —
            // and tell whoever acked and parked that this one is dead.
            out.sends.push((ConsDest::Others, ConsMsg::CtNack { round: r }));
            self.enter_next_round(env, out);
            return;
        }
        if self.acks.get(&r).is_some_and(|s| s.len() >= self.quorum()) {
            // lint:allow(P1): local invariant, not remote data — broadcast_proposal() sets current_proposal before wait becomes CoordAcks
            let value = self.current_proposal.clone().expect("proposal set before Phase 4");
            self.decide(value, out);
        }
    }
}

impl<V: ConsensusValue, P: CtPolicy> SingleConsensus<V> for CtMachine<V, P> {
    fn propose(&mut self, v: V, env: &ConsEnv<'_, V>, out: &mut ConsOut<V>) {
        assert_eq!(self.wait, Wait::NotStarted, "propose may be called only once");
        self.estimate = Some(v);
        self.ts = 0;
        self.enter_next_round(env, out);
    }

    fn on_message(
        &mut self,
        from: ProcessId,
        msg: ConsMsg<V>,
        env: &ConsEnv<'_, V>,
        out: &mut ConsOut<V>,
    ) {
        if self.wait == Wait::Done {
            return;
        }
        // A `Decide` has no round: the InstanceManager learns decisions.
        let Some(round) = msg.round().filter(|&r| r >= self.round) else { return };
        self.highest_seen = self.highest_seen.max(round);
        let current = round == self.round;
        match msg {
            ConsMsg::CtEstimate { estimate, ts, .. } => {
                self.estimates.entry(round).or_default().insert(from, (estimate, ts));
                if current && self.wait == Wait::CoordEstimates {
                    self.try_select_proposal(out);
                }
            }
            ConsMsg::CtProposal { estimate, .. } => {
                if current
                    && (self.wait == Wait::Proposal
                        || (self.wait == Wait::CoordAcks && from == self.members.me))
                {
                    self.handle_proposal(estimate, env, out);
                } else {
                    self.proposals.insert(round, estimate);
                }
            }
            ConsMsg::CtAck { .. } => {
                self.acks.entry(round).or_default().insert(from);
                if current {
                    self.check_acks(env, out);
                }
            }
            ConsMsg::CtNack { .. } => {
                self.nacks.entry(round).or_default().insert(from);
                if current {
                    self.check_acks(env, out);
                }
            }
            // MR traffic does not belong to this algorithm.
            ConsMsg::Decide { .. } | ConsMsg::MrPhase1 { .. } | ConsMsg::MrPhase2 { .. } => {}
        }
        if self.wait == Wait::Parked && self.round_is_dead(env) {
            self.enter_next_round(env, out);
        }
    }

    fn on_suspect(&mut self, p: ProcessId, env: &ConsEnv<'_, V>, out: &mut ConsOut<V>) {
        let c = self.members.coord(self.round);
        if self.wait == Wait::Done || p != c {
            return;
        }
        if self.wait == Wait::Proposal {
            // Phase 3, suspicion arm (Algorithm 2 lines 31–32).
            out.sends.push((ConsDest::To(c), ConsMsg::CtNack { round: self.round }));
            self.enter_next_round(env, out);
        } else if self.wait == Wait::Parked {
            // Already acked: nothing to refuse, the round is just dead to us.
            self.enter_next_round(env, out);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testing::LoopNet;
    use crate::value::AlwaysHeld;
    use iabc_types::{IdSet, MsgId};

    fn p(i: u16) -> ProcessId {
        ProcessId::new(i)
    }

    fn ids(seqs: &[u64]) -> IdSet {
        IdSet::from_ids(seqs.iter().map(|&s| MsgId::new(p(0), s)))
    }

    fn net(n: usize) -> LoopNet<IdSet, CtConsensus<IdSet>> {
        LoopNet::new(n, |q| CtConsensus::new(q, n), || Box::new(AlwaysHeld))
    }

    #[test]
    fn three_processes_same_proposal_decide_it() {
        let mut net = net(3);
        for q in 0..3 {
            net.propose(p(q), ids(&[1, 2]));
        }
        net.run();
        net.assert_all_decided(&ids(&[1, 2]));
    }

    #[test]
    fn decision_is_one_of_the_proposals() {
        let mut net = net(3);
        net.propose(p(0), ids(&[0]));
        net.propose(p(1), ids(&[1]));
        net.propose(p(2), ids(&[2]));
        net.run();
        let d = net.common_decision();
        assert!(
            [ids(&[0]), ids(&[1]), ids(&[2])].contains(&d),
            "decision {d:?} was never proposed"
        );
    }

    #[test]
    fn round_one_coordinator_wins_in_good_runs() {
        // Coordinator of round 1 is p1; its estimate should be decided.
        let mut net = net(3);
        net.propose(p(0), ids(&[0]));
        net.propose(p(1), ids(&[1]));
        net.propose(p(2), ids(&[2]));
        net.run();
        assert_eq!(net.common_decision(), ids(&[1]));
    }

    #[test]
    fn single_process_decides_own_value() {
        let mut net = net(1);
        net.propose(p(0), ids(&[7]));
        net.run();
        net.assert_all_decided(&ids(&[7]));
    }

    #[test]
    fn survives_crashed_round_one_coordinator() {
        let mut net = net(3);
        net.crash(p(1)); // round-1 coordinator silent from the start
        net.propose(p(0), ids(&[0]));
        net.propose(p(2), ids(&[2]));
        net.run(); // drains: everyone stuck waiting for p1
        assert!(net.decisions[0].is_none());
        // ◇S eventually suspects p1 at both correct processes.
        net.suspect_at(p(0), p(1));
        net.suspect_at(p(2), p(1));
        net.run();
        // Round 2's coordinator is p2: its estimate gets decided.
        assert!(net.decisions[0].is_some() && net.decisions[2].is_some());
        assert_eq!(net.decisions[0], net.decisions[2]);
    }

    #[test]
    fn late_proposer_still_decides() {
        let mut net = net(3);
        net.propose(p(1), ids(&[1]));
        net.propose(p(2), ids(&[2]));
        net.run(); // p1+p2 reach a decision without p0 (majority = 2)
        assert!(net.decisions[1].is_some());
        assert!(net.decisions[0].is_none());
        // p0 proposes later and decides from the relayed Decide.
        net.propose(p(0), ids(&[0]));
        net.run();
        assert!(net.decisions[0].is_some());
        assert_eq!(net.decisions[0], net.decisions[1]);
    }

    #[test]
    fn false_suspicion_does_not_break_agreement() {
        let mut net = net(3);
        // p0 falsely suspects the round-1 coordinator p1 from the start.
        net.suspect_at(p(0), p(1));
        net.propose(p(0), ids(&[0]));
        net.propose(p(1), ids(&[1]));
        net.propose(p(2), ids(&[2]));
        net.run();
        // All three still decide the same value.
        let d = net.common_decision();
        assert!([ids(&[0]), ids(&[1]), ids(&[2])].contains(&d));
    }

    #[test]
    #[should_panic(expected = "propose may be called only once")]
    fn double_propose_panics() {
        let mut algo = CtConsensus::<IdSet>::new(p(0), 3);
        let env = ConsEnv::new(&AlwaysHeld, ProcessSet::new());
        algo.propose(ids(&[0]), &env, &mut ConsOut::new());
        algo.propose(ids(&[0]), &env, &mut ConsOut::new());
    }

    #[test]
    fn five_processes_with_two_crashes_terminate() {
        let n = 5;
        let mut net = LoopNet::new(n, |q| CtConsensus::<IdSet>::new(q, n), || Box::new(AlwaysHeld));
        net.crash(p(1));
        net.crash(p(2));
        for q in [0u16, 3, 4] {
            net.propose(p(q), ids(&[q as u64]));
        }
        net.run();
        for q in [0u16, 3, 4] {
            net.suspect_at(p(q), p(1));
            net.suspect_at(p(q), p(2));
        }
        net.run();
        for q in [0u16, 3, 4] {
            assert!(net.decisions[q as usize].is_some(), "p{q} undecided");
        }
        assert_eq!(net.decisions[0], net.decisions[3]);
        assert_eq!(net.decisions[3], net.decisions[4]);
    }

    // ---- Round shape: exact frame counts and the liveness of parking ----

    use crate::ct_indirect::CtIndirect;
    use crate::value::{HeldIds, RcvOracle};
    use std::cell::Cell;

    type Arm = fn(&ConsMsg<IdSet>) -> bool;
    const PROPOSAL: Arm = |m| matches!(m, ConsMsg::CtProposal { .. });
    const ESTIMATE: Arm = |m| matches!(m, ConsMsg::CtEstimate { .. });
    const ACK: Arm = |m| matches!(m, ConsMsg::CtAck { .. });
    const NACK: Arm = |m| matches!(m, ConsMsg::CtNack { .. });
    const DECIDE: Arm = |m| matches!(m, ConsMsg::Decide { .. });

    /// Holds `msgs(v)` from the second time it is asked: the payload that
    /// arrives one round late (Hypothesis A at work).
    #[derive(Debug, Default)]
    struct HeldFromSecondAsk(Cell<bool>);

    impl RcvOracle<IdSet> for HeldFromSecondAsk {
        fn rcv(&self, _v: &IdSet) -> bool {
            self.0.replace(true)
        }
    }

    fn indirect(n: usize) -> LoopNet<IdSet, CtIndirect<IdSet>> {
        LoopNet::new(n, |q| CtIndirect::new(q, n), || Box::new(AlwaysHeld))
    }

    fn propose_all<A: SingleConsensus<IdSet> + Send + 'static>(net: &mut LoopNet<IdSet, A>, n: usize) {
        for q in 0..n as u16 {
            net.propose(p(q), ids(&[q as u64]));
        }
    }

    /// Delivers FIFO until `done(net)` holds (checked after every delivery).
    fn run_until<A: SingleConsensus<IdSet> + Send + 'static>(
        net: &mut LoopNet<IdSet, A>,
        done: impl Fn(&LoopNet<IdSet, A>) -> bool,
    ) {
        while !done(net) {
            let (from, to, msg) = net.pop_front().expect("quiescent before the condition held");
            net.deliver_one(from, to, msg);
        }
    }

    fn assert_fault_free_budget<A: SingleConsensus<IdSet> + Send + 'static>(
        mut net: LoopNet<IdSet, A>,
        n: usize,
    ) {
        propose_all(&mut net, n);
        net.run();
        assert_eq!(net.common_decision(), ids(&[1]), "n={n}: the round-1 coordinator's value");
        for (arm, name) in [(PROPOSAL, "CtProposal"), (ACK, "CtAck"), (DECIDE, "Decide")] {
            assert_eq!(net.count_frames(arm), n - 1, "n={n}: {name} frames");
        }
        assert_eq!(net.frames.len(), 3 * (n - 1), "n={n}: and nothing else");
    }

    #[test]
    fn a_fault_free_instance_costs_exactly_three_n_minus_one_frames() {
        for n in [3, 5, 7] {
            assert_fault_free_budget(net(n), n); // direct_ct_messages' machine
            assert_fault_free_budget(indirect(n), n); // indirect_ct's
        }
    }

    #[test]
    fn a_refused_round_costs_a_bounded_extra_and_round_two_decides() {
        // Only the round-1 coordinator p1 holds message 9, which it
        // proposes: all n − 1 others refuse. However many refuse, a refused
        // round costs 4(n − 1) frames — its proposal, one answer each, the
        // coordinator's forward of the first nack, and the n − 1 estimates
        // that open round 2 — and round 2 is a fault-free round: 7(n − 1)
        // frames in all, 14 at n = 3.
        for n in [3usize, 5] {
            let mut net = LoopNet::new(n, |q| CtIndirect::<IdSet>::new(q, n), || {
                Box::new(HeldIds { held: ids(&[1]), cost_per_id: iabc_types::Duration::ZERO })
            });
            net.set_oracle(
                p(1),
                Box::new(HeldIds { held: ids(&[1, 9]), cost_per_id: iabc_types::Duration::ZERO }),
            );
            for q in 0..n as u16 {
                net.propose(p(q), if q == 1 { ids(&[9]) } else { ids(&[1]) });
            }
            net.run();
            assert_eq!(net.common_decision(), ids(&[1]), "n={n}");
            let by_arm = [PROPOSAL, NACK, ESTIMATE, ACK, DECIDE].map(|arm| net.count_frames(arm));
            assert_eq!(by_arm, [2 * (n - 1), 2 * (n - 1), n - 1, n - 1, n - 1], "n={n}");
            assert_eq!(net.frames.len(), 7 * (n - 1), "n={n}");
        }
    }

    #[test]
    fn one_refusal_unparks_every_acker() {
        // p0 lacks the proposal's message when asked (it arrives later), so
        // it nacks; everyone else acks and parks. The coordinator abandons
        // the round on that nack, and only its forward tells the ackers: at
        // n = 5 coordinator + refuser are two of the three estimates round 2
        // needs, so a nack that stopped at the coordinator would wedge the
        // instance.
        for n in [3usize, 5] {
            let mut net = indirect(n);
            net.set_oracle(p(0), Box::<HeldFromSecondAsk>::default());
            propose_all(&mut net, n);
            net.run();
            assert_eq!(net.common_decision(), ids(&[1]), "n={n}: the value round 1 locked");
            assert_eq!(net.count_frames(NACK), n, "n={n}: p0's nack and p1's forward");
            assert_eq!(
                net.count_frames(|m| matches!(m, ConsMsg::CtEstimate { round: 2, .. })),
                n - 1,
                "n={n}: everybody entered round 2"
            );
        }
    }

    #[test]
    fn a_refuser_that_crashes_mid_send_still_unparks_every_acker() {
        // p0 suspects the coordinator p1, refuses round 1 and dies: of all
        // it sent, only the nack to p1 left. p1 abandons the round; without
        // its forward p1 + coord(2) are 2 of the 3 estimates round 2 needs
        // at n = 5, and the parked ackers would never supply the third.
        for n in [3usize, 5] {
            let mut net = indirect(n);
            net.suspect_at(p(0), p(1));
            net.propose(p(0), ids(&[0]));
            net.drop_queued(|from, to, m| from == p(0) && !(to == p(1) && NACK(m)));
            net.crash(p(0));
            for q in 1..n as u16 {
                net.propose(p(q), ids(&[q as u64]));
            }
            net.run();
            for q in 1..n as u16 {
                net.suspect_at(p(q), p(0));
            }
            net.run();
            assert!((1..n).all(|q| net.decisions[q].is_some()), "n={n}: every survivor decides");
        }
    }

    #[test]
    fn coordinator_crash_before_the_decide_unparks_on_suspicion() {
        for n in [3usize, 5] {
            let mut net = indirect(n);
            propose_all(&mut net, n);
            net.crash(p(1)); // its proposal is out, its acks will go unread
            net.run();
            assert!((0..n).all(|q| net.decisions[q].is_none()), "n={n}: everyone is parked");
            assert_eq!(net.count_frames(ESTIMATE), 0, "n={n}: nobody opened round 2");
            for q in (0..n as u16).filter(|&q| q != 1) {
                net.suspect_at(p(q), p(1));
            }
            net.run();
            assert_eq!(net.common_decision(), ids(&[1]), "n={n}: the locked value survives");
        }
    }

    #[test]
    fn coordinator_crash_mid_decide_is_repaired_by_the_one_learner() {
        for n in [3usize, 5] {
            let mut net = indirect(n);
            propose_all(&mut net, n);
            run_until(&mut net, |net| net.decisions[1].is_some());
            // p1 dies mid-announcement: only p0's copy made it to the wire.
            let lost = net.drop_queued(|from, to, m| from == p(1) && to != p(0) && DECIDE(m));
            assert_eq!(lost, n - 2);
            net.crash(p(1));
            net.run();
            assert!(net.decisions[0].is_some());
            assert!((2..n).all(|q| net.decisions[q].is_none()), "n={n}: the rest still parked");
            assert_eq!(net.count_frames(DECIDE), n - 1, "n={n}: learning relayed nothing");
            for q in (0..n as u16).filter(|&q| q != 1) {
                net.suspect_at(p(q), p(1));
            }
            net.run();
            assert_eq!(net.common_decision(), ids(&[1]), "n={n}");
            let relayed = net.frames.iter().filter(|(from, _, m)| *from == p(0) && DECIDE(m)).count();
            assert!(relayed >= n - 1, "n={n}: p0 relays what the suspect taught it");
        }
    }

    #[test]
    fn coordinator_crash_after_the_decide_needs_nothing_more() {
        for n in [3usize, 5] {
            let mut net = indirect(n);
            propose_all(&mut net, n);
            run_until(&mut net, |net| net.decisions[1].is_some());
            net.crash(p(1));
            net.run();
            assert_eq!(net.common_decision(), ids(&[1]), "n={n}");
            assert_eq!(net.frames.len(), 3 * (n - 1), "n={n}: still the fault-free budget");
        }
    }

    #[test]
    fn a_false_suspicion_at_one_process_only_is_survived() {
        for n in [3usize, 5] {
            // Before its ack: p0 refuses round 1 outright, the coordinator
            // abandons it and a later round decides (whatever value).
            let mut net = indirect(n);
            net.suspect_at(p(0), p(1));
            propose_all(&mut net, n);
            net.run();
            net.common_decision();
            assert_eq!(net.count_frames(NACK), n, "n={n}: p0's nack and p1's forward");

            // After its ack: p0 un-parks silently; its ack still counts.
            let mut net = indirect(n);
            propose_all(&mut net, n);
            run_until(&mut net, |net| net.frames.iter().any(|(from, _, m)| *from == p(0) && ACK(m)));
            net.suspect_at(p(0), p(1));
            net.run();
            assert_eq!(net.common_decision(), ids(&[1]), "n={n}: suspicion after the ack");
            assert_eq!(net.count_frames(NACK), 0, "n={n}: an acker has nothing to refuse");
        }
    }

    #[test]
    fn membership_rotation_skips_passive_and_shrinks_quorum() {
        let mut passive = ProcessSet::new();
        passive.insert(p(3));
        let m: CtConsensus<IdSet> = CtMachine::with_membership(p(0), 4, 0, passive);
        // Rounds rotate over the sorted actives {p0, p1, p2} only: the
        // learner p3 never coordinates, so no round stalls on a process
        // that by design answers nothing.
        let coords: Vec<_> = (1..=6).map(|r| m.members.coord(r)).collect();
        assert_eq!(coords, vec![p(1), p(2), p(0), p(1), p(2), p(0)]);
        assert_eq!(m.quorum(), 2, "majority of the 3 actives, not of all 4");
    }

    #[test]
    fn empty_passive_set_matches_the_classic_rotation() {
        for offset in 0..5u64 {
            let classic: CtConsensus<IdSet> = CtMachine::with_coord_offset(p(1), 4, offset);
            let member: CtConsensus<IdSet> =
                CtMachine::with_membership(p(1), 4, offset, ProcessSet::new());
            for r in 1..=9 {
                assert_eq!(classic.members.coord(r), member.members.coord(r));
            }
            assert_eq!(classic.quorum(), member.quorum());
        }
    }

    #[test]
    #[should_panic(expected = "at least one process must stay active")]
    fn all_passive_membership_panics() {
        let _: CtConsensus<IdSet> =
            CtMachine::with_membership(p(0), 2, 0, ProcessSet::full(2));
    }

    #[test]
    #[should_panic(expected = "outside the system")]
    fn passive_outside_the_system_panics() {
        let mut passive = ProcessSet::new();
        passive.insert(p(7));
        let _: CtConsensus<IdSet> = CtMachine::with_membership(p(0), 3, 0, passive);
    }
}

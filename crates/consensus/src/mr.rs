//! The Mostéfaoui–Raynal ◇S consensus algorithm, as a reusable round
//! machine.
//!
//! [`MrMachine`] implements the two-phase quorum skeleton shared by the
//! original algorithm \[7\] and the paper's indirect adaptation
//! (Algorithm 3). The differences — the paper's bold lines — are captured
//! by [`MrPolicy`]:
//!
//! * **Phase 1** (Algorithm 3 lines 16–19): what a process forwards when it
//!   receives the coordinator's estimate `v`. The original forwards `v`
//!   unconditionally; the indirect algorithm forwards ⊥ unless `rcv(v)`.
//! * **Phase 2 quorum** (lines 21–22): majority (original) vs `⌈(2n+1)/3⌉`
//!   (indirect) — the resilience drop from `f < n/2` to `f < n/3` that is
//!   one of the paper's main findings.
//! * **Phase 2 adoption** (lines 27–29): on a mixed `{v, ⊥}` view the
//!   original adopts `v` always; the indirect algorithm adopts only if
//!   `rcv(v)` holds or `v` was echoed by `⌈(n+1)/3⌉` processes (proof that
//!   a correct process holds `msgs(v)`).

use std::collections::BTreeMap;
use std::fmt;
use std::marker::PhantomData;

use iabc_types::{quorum, ProcessId, ProcessSet};

use crate::msg::{ConsDest, ConsMsg};
use crate::value::ConsensusValue;
use crate::{ConsEnv, ConsOut, Membership, SingleConsensus};

/// The variation points between the original MR algorithm and Algorithm 3.
pub trait MrPolicy: fmt::Debug + Default + 'static {
    /// Phase 1: the value to echo after receiving the coordinator's
    /// estimate `v` (`Some(v)` to forward it, `None` for ⊥).
    fn phase1_take<V: ConsensusValue>(
        v: V,
        env: &ConsEnv<'_, V>,
        out: &mut ConsOut<V>,
    ) -> Option<V>;

    /// Phase 2: whether to adopt `v` out of a mixed `{v, ⊥}` view, given
    /// how many of the quorum echoes carried `v`.
    fn phase2_adopt<V: ConsensusValue>(
        v: &V,
        count: usize,
        n: usize,
        env: &ConsEnv<'_, V>,
        out: &mut ConsOut<V>,
    ) -> bool;

    /// The Phase 2 wait quorum.
    fn quorum(n: usize) -> usize;

    /// Human-readable algorithm name.
    const NAME: &'static str;
}

/// Policy of the original (unmodified) Mostéfaoui–Raynal algorithm.
#[derive(Debug, Default, Clone, Copy)]
pub struct DirectMr;

impl MrPolicy for DirectMr {
    fn phase1_take<V: ConsensusValue>(
        v: V,
        _env: &ConsEnv<'_, V>,
        _out: &mut ConsOut<V>,
    ) -> Option<V> {
        Some(v) // the original always forwards the coordinator's estimate
    }

    fn phase2_adopt<V: ConsensusValue>(
        _v: &V,
        _count: usize,
        _n: usize,
        _env: &ConsEnv<'_, V>,
        _out: &mut ConsOut<V>,
    ) -> bool {
        true // the original always adopts a valid estimate
    }

    fn quorum(n: usize) -> usize {
        quorum::majority(n)
    }

    const NAME: &'static str = "mr";
}

/// The original Mostéfaoui–Raynal ◇S consensus: majority quorum,
/// `f < n/2`, decisions in two communication steps in good runs.
///
/// Run on identifier sets this is the second **faulty** baseline: §3.3.2
/// shows no trivial fix exists without changing the quorum.
pub type MrConsensus<V> = MrMachine<V, DirectMr>;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Wait {
    NotStarted,
    /// Waiting for the coordinator's Phase 1 broadcast (or its suspicion).
    Phase1,
    /// Waiting for a quorum of Phase 2 echoes.
    Phase2,
    Done,
}

/// The Mostéfaoui–Raynal round machine, parameterized by an [`MrPolicy`].
pub struct MrMachine<V, P: MrPolicy> {
    members: Membership,
    round: u64,
    /// `estimate_p`.
    estimate: Option<V>,
    wait: Wait,
    /// Coordinator Phase 1 broadcasts, per round.
    phase1: BTreeMap<u64, V>,
    /// Phase 2 echoes, per round: sender → forwarded value (`None` = ⊥).
    phase2: BTreeMap<u64, BTreeMap<ProcessId, Option<V>>>,
    _policy: PhantomData<P>,
}

impl<V: ConsensusValue, P: MrPolicy> fmt::Debug for MrMachine<V, P> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("MrMachine")
            .field("policy", &P::NAME)
            .field("me", &self.members.me)
            .field("round", &self.round)
            .field("wait", &self.wait)
            .finish()
    }
}

impl<V: ConsensusValue, P: MrPolicy> MrMachine<V, P> {
    /// Creates an instance for process `me` in a system of `n` processes.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn new(me: ProcessId, n: usize) -> Self {
        Self::with_coord_offset(me, n, 0)
    }

    /// Like [`MrMachine::new`], with the coordinator rotation shifted by
    /// `offset` rounds (instance managers pass the instance number).
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn with_coord_offset(me: ProcessId, n: usize, offset: u64) -> Self {
        Self::with_membership(me, n, offset, ProcessSet::new())
    }

    /// Like [`MrMachine::with_coord_offset`], with `passive` processes
    /// (learners / read replicas) excluded from the protocol: never
    /// selected as coordinator, and Phase 2 quorums are computed over the
    /// *active* processes only. With an empty `passive` set this is
    /// byte-identical to the classic algorithm.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`, if `passive` names a process outside the
    /// system, or if no active process remains.
    pub fn with_membership(me: ProcessId, n: usize, offset: u64, passive: ProcessSet) -> Self {
        MrMachine {
            members: Membership::new(me, n, offset, passive),
            round: 0,
            estimate: None,
            wait: Wait::NotStarted,
            phase1: BTreeMap::new(),
            phase2: BTreeMap::new(),
            _policy: PhantomData,
        }
    }

    /// Decides `value`; the [`InstanceManager`](crate::InstanceManager)
    /// announces it.
    fn decide(&mut self, value: V, out: &mut ConsOut<V>) {
        self.wait = Wait::Done;
        out.decision = Some(value);
    }

    fn enter_next_round(&mut self, env: &ConsEnv<'_, V>, out: &mut ConsOut<V>) {
        loop {
            self.round += 1;
            let r = self.round;
            let c = self.members.coord(r);

            if c == self.members.me {
                // Phase 1, coordinator: broadcast the estimate (lines 10–12),
                // which is also our own Phase 2 echo (line 20).
                // lint:allow(P1): local invariant, not remote data — propose() sets the estimate before any round is entered
                let est = self.estimate.clone().expect("estimate set at propose");
                out.sends.push((ConsDest::Others, ConsMsg::MrPhase1 { round: r, estimate: est.clone() }));
                self.echo(Some(est), out);
                if self.evaluate_phase2(env, out) {
                    continue; // round failed immediately (n = 1 cannot)
                }
                return;
            }

            // Phase 1, non-coordinator: wait for the coordinator or suspect it.
            self.wait = Wait::Phase1;
            if let Some(v) = self.phase1.get(&r).cloned() {
                if self.handle_phase1(v, env, out) {
                    continue;
                }
                return;
            }
            if env.suspected.contains(c) {
                // Suspicion: forward ⊥ (line 14, suspicion arm → line 19).
                self.echo(None, out);
                if self.evaluate_phase2(env, out) {
                    continue;
                }
                return;
            }
            return;
        }
    }

    /// Records our own Phase 2 echo and multicasts it (line 20).
    fn echo(&mut self, est: Option<V>, out: &mut ConsOut<V>) {
        let r = self.round;
        out.sends.push((ConsDest::Others, ConsMsg::MrPhase2 { round: r, est: est.clone() }));
        self.phase2.entry(r).or_default().insert(self.members.me, est);
        self.wait = Wait::Phase2;
    }

    /// Phase 1 resolution with the coordinator's estimate. Returns `true`
    /// if the round also finished (caller should advance).
    fn handle_phase1(&mut self, v: V, env: &ConsEnv<'_, V>, out: &mut ConsOut<V>) -> bool {
        // Lines 15–19: forward v, or ⊥ if the policy refuses it.
        let take = P::phase1_take(v, env, out);
        self.echo(take, out);
        self.evaluate_phase2(env, out)
    }

    /// Phase 2 evaluation (lines 22–29). Returns `true` if the round ended
    /// without a decision (caller advances to the next round).
    fn evaluate_phase2(&mut self, env: &ConsEnv<'_, V>, out: &mut ConsOut<V>) -> bool {
        if self.wait != Wait::Phase2 {
            return false;
        }
        let r = self.round;
        let Some(echoes) = self.phase2.get(&r) else { return false };
        if echoes.len() < P::quorum(self.members.actives()) {
            return false;
        }
        // rec_p over exactly the quorum received.
        let mut valid: Option<&V> = None;
        let mut valid_count = 0usize;
        let mut bottom_count = 0usize;
        for est in echoes.values() {
            match est {
                Some(v) => {
                    // In a crash-only model one round carries one valid value;
                    // assert it defensively.
                    if let Some(prev) = valid {
                        debug_assert_eq!(prev, v, "two distinct valid estimates in round {r}");
                    }
                    valid = Some(v);
                    valid_count += 1;
                }
                None => bottom_count += 1,
            }
        }
        match (valid.cloned(), bottom_count) {
            (Some(v), 0) => {
                // rec_p = {v}: adopt and decide (lines 24–26).
                self.estimate = Some(v.clone());
                self.decide(v, out);
                false
            }
            (Some(v), _) => {
                // rec_p = {v, ⊥}: adopt if the policy allows (lines 27–29).
                if P::phase2_adopt(&v, valid_count, self.members.actives(), env, out) {
                    self.estimate = Some(v);
                }
                true // next round
            }
            (None, _) => true, // rec_p = {⊥}: keep estimate, next round
        }
    }
}

impl<V: ConsensusValue, P: MrPolicy> SingleConsensus<V> for MrMachine<V, P> {
    fn propose(&mut self, v: V, env: &ConsEnv<'_, V>, out: &mut ConsOut<V>) {
        assert_eq!(self.wait, Wait::NotStarted, "propose may be called only once");
        self.estimate = Some(v);
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
        match msg {
            ConsMsg::MrPhase1 { round, estimate } => {
                if round < self.round || from != self.members.coord(round) {
                    return; // stale or not from that round's coordinator
                }
                if round == self.round && self.wait == Wait::Phase1 {
                    if self.handle_phase1(estimate, env, out) {
                        self.enter_next_round(env, out);
                    }
                } else {
                    self.phase1.insert(round, estimate);
                }
            }
            ConsMsg::MrPhase2 { round, est } => {
                if round < self.round {
                    return;
                }
                self.phase2.entry(round).or_default().insert(from, est);
                if round == self.round && self.wait == Wait::Phase2 && self.evaluate_phase2(env, out)
                {
                    self.enter_next_round(env, out);
                }
            }
            // Decisions are learned by the InstanceManager; CT traffic does
            // not belong to this algorithm.
            ConsMsg::Decide { .. }
            | ConsMsg::CtEstimate { .. }
            | ConsMsg::CtProposal { .. }
            | ConsMsg::CtAck { .. }
            | ConsMsg::CtNack { .. } => {}
        }
    }

    fn on_suspect(&mut self, p: ProcessId, env: &ConsEnv<'_, V>, out: &mut ConsOut<V>) {
        if self.wait != Wait::Phase1 {
            return;
        }
        if p == self.members.coord(self.round) {
            self.echo(None, out);
            if self.evaluate_phase2(env, out) {
                self.enter_next_round(env, out);
            }
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

    fn net(n: usize) -> LoopNet<IdSet, MrConsensus<IdSet>> {
        LoopNet::new(n, |q| MrConsensus::new(q, n), || Box::new(AlwaysHeld))
    }

    #[test]
    fn good_run_decides_coordinator_value() {
        let mut net = net(3);
        net.propose(p(0), ids(&[0]));
        net.propose(p(1), ids(&[1]));
        net.propose(p(2), ids(&[2]));
        net.run();
        // Round-1 coordinator is p1: everyone echoes {1}, unanimity, decide.
        assert_eq!(net.common_decision(), ids(&[1]));
    }

    #[test]
    fn single_process_decides_immediately() {
        let mut net = net(1);
        net.propose(p(0), ids(&[3]));
        net.run();
        net.assert_all_decided(&ids(&[3]));
    }

    #[test]
    fn crashed_coordinator_is_survived() {
        let mut net = net(3);
        net.crash(p(1));
        net.propose(p(0), ids(&[0]));
        net.propose(p(2), ids(&[2]));
        net.run();
        assert!(net.decisions[0].is_none());
        net.suspect_at(p(0), p(1));
        net.suspect_at(p(2), p(1));
        net.run();
        // Round 2's coordinator p2 drives its estimate through.
        assert_eq!(net.decisions[0], Some(ids(&[2])));
        assert_eq!(net.decisions[2], Some(ids(&[2])));
    }

    #[test]
    fn mixed_view_adopts_coordinator_value() {
        // p0 suspects the coordinator p1 (false suspicion) and echoes ⊥,
        // but p1 and p2 echo {1}. p0's quorum view is mixed; the original
        // algorithm adopts {1} unconditionally, so agreement holds when a
        // later round decides.
        let mut net = net(3);
        net.suspect_at(p(0), p(1));
        net.propose(p(0), ids(&[0]));
        net.propose(p(1), ids(&[1]));
        net.propose(p(2), ids(&[2]));
        net.run();
        let d = net.common_decision();
        assert_eq!(d, ids(&[1]));
    }

    #[test]
    fn five_processes_two_crashes() {
        let n = 5;
        let mut net = LoopNet::new(n, |q| MrConsensus::<IdSet>::new(q, n), || Box::new(AlwaysHeld));
        net.crash(p(1));
        net.crash(p(3));
        for q in [0u16, 2, 4] {
            net.propose(p(q), ids(&[q as u64]));
        }
        net.run();
        for q in [0u16, 2, 4] {
            net.suspect_at(p(q), p(1));
            net.suspect_at(p(q), p(3));
        }
        net.run();
        let d = net.common_decision();
        assert!([ids(&[0]), ids(&[2]), ids(&[4])].contains(&d));
    }

    #[test]
    fn late_proposer_decides_via_relay() {
        let mut net = net(3);
        net.propose(p(1), ids(&[1]));
        net.propose(p(2), ids(&[2]));
        net.run();
        // majority(3) = 2: p1+p2 decide without p0.
        assert!(net.decisions[1].is_some());
        net.propose(p(0), ids(&[0]));
        net.run();
        assert_eq!(net.decisions[0], net.decisions[1]);
    }

    #[test]
    fn decision_takes_two_steps_in_good_runs() {
        // Structural check: in a fault-free run the only message types are
        // one Phase1 broadcast, Phase2 echoes, and Decide relays — no
        // second round.
        let mut net = net(3);
        net.propose(p(0), ids(&[0]));
        net.propose(p(1), ids(&[1]));
        net.propose(p(2), ids(&[2]));
        net.run();
        assert_eq!(net.count_frames(|m| m.round().is_some_and(|r| r > 1)), 0, "no frame of a second round");
    }

    #[test]
    fn every_quorum_owner_announces_once_and_nobody_relays() {
        // MR has no single decider: each process that sees a unanimous
        // quorum of echoes reaches the decision itself, so the manager's
        // announce-once rule costs n − 1 `Decide` frames per such process —
        // all n of them in a fault-free run — and a `Decide` received
        // afterwards is never passed on (the manager's own tests cover
        // learning). The echoes past the quorum find
        // the instance decided and are answered like any straggler.
        let decide = |m: &ConsMsg<IdSet>| matches!(m, ConsMsg::Decide { .. });
        for n in [3usize, 5] {
            let mut net =
                LoopNet::new(n, |q| MrConsensus::<IdSet>::new(q, n), || Box::new(AlwaysHeld));
            for q in 0..n as u16 {
                net.propose(p(q), ids(&[q as u64]));
            }
            net.run();
            let late_echoes = n * (n - DirectMr::quorum(n));
            assert_eq!(net.count_frames(decide), n * (n - 1) + late_echoes, "n={n}");
        }
    }

    #[test]
    fn membership_rotation_skips_passive_and_shrinks_quorum() {
        let mut passive = ProcessSet::new();
        passive.insert(p(1));
        let m: MrConsensus<IdSet> = MrMachine::with_membership(p(0), 4, 0, passive);
        // Rounds rotate over the sorted actives {p0, p2, p3} only.
        let coords: Vec<_> = (1..=6).map(|r| m.members.coord(r)).collect();
        assert_eq!(coords, vec![p(2), p(3), p(0), p(2), p(3), p(0)]);
        assert_eq!(m.members.actives(), 3);
        assert_eq!(DirectMr::quorum(m.members.actives()), 2, "majority of the 3 actives");
    }

    #[test]
    fn empty_passive_set_matches_the_classic_rotation() {
        for offset in 0..5u64 {
            let classic: MrConsensus<IdSet> = MrMachine::with_coord_offset(p(1), 4, offset);
            let member: MrConsensus<IdSet> =
                MrMachine::with_membership(p(1), 4, offset, ProcessSet::new());
            for r in 1..=9 {
                assert_eq!(classic.members.coord(r), member.members.coord(r));
            }
            assert_eq!(classic.members.actives(), member.members.actives());
        }
    }

    #[test]
    #[should_panic(expected = "at least one process must stay active")]
    fn all_passive_membership_panics() {
        let _: MrConsensus<IdSet> =
            MrMachine::with_membership(p(0), 2, 0, ProcessSet::full(2));
    }
}

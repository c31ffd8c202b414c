//! Multiplexing of numbered consensus instances.
//!
//! The atomic broadcast reduction (Algorithm 1) executes a *sequence* of
//! consensus instances `k = 1, 2, …`. Processes may be in different
//! instances at the same time, so the manager:
//!
//! * buffers messages for instances this process has not yet proposed in
//!   (they are flushed when `propose(k, …)` happens),
//! * routes messages of running instances to their state machine,
//! * fans failure-detector suspicions out to every running instance,
//! * disseminates decisions — the one place that does,
//! * holds every decided value, reached here or [`InstanceManager::learn`]ed
//!   elsewhere, in one `Done` slot until the caller collects it.
//!
//! # How a decision spreads
//!
//! *Announce once*: the process whose state machine reaches the decision
//! sends `Decide` to the others. *Learn*: a process that receives one
//! decides and stays silent — fault-free, a relay carries nothing the
//! receiver lacks. *Relay on suspicion*: a learner remembers its teacher
//! and, when its failure detector suspects it (at learning time or later),
//! sends the decision to everyone, once: the teacher may have crashed
//! mid-send. *Repair stragglers*: a frame for a decided instance comes from
//! a process still working on it and is answered with the decision — but
//! not a `CtAck`, whose sender is parked waiting for the very `Decide` the
//! quorum's owner has already sent it.
//!
//! If one correct process decides, all do: follow "learned from" back to
//! the announcer. If every link's source is correct the announcer's own
//! sends arrive; else the first broken link is held by a process that (by
//! strong completeness) suspects its source and relays to all. The relay
//! cache is the `Done` slots [`InstanceManager::gc_decided_below`] keeps,
//! so callers keep at least a pipeline window of them.

use std::collections::BTreeMap;

use iabc_types::{Duration, ProcessId, ProcessSet};

use crate::msg::{ConsDest, ConsMsg};
use crate::value::{ConsensusValue, RcvOracle};
use crate::{ConsEnv, ConsOut, SingleConsensus};

/// Output buffer of manager calls: instance-tagged sends, and whether an
/// instance decided (its value stays here: [`InstanceManager::decision`]).
#[derive(Debug)]
pub struct MgrOut<V> {
    /// Messages to send, tagged with their instance number.
    pub sends: Vec<(u64, ConsDest, ConsMsg<V>)>,
    /// Whether some instance decided during this call.
    pub decided: bool,
    /// Accumulated `rcv()` evaluation cost.
    pub work: Duration,
}

impl<V> MgrOut<V> {
    /// Creates an empty buffer.
    pub fn new() -> Self {
        MgrOut { sends: Vec::new(), decided: false, work: Duration::ZERO }
    }

    /// Whether nothing at all was produced — no protocol effects *and* no
    /// accounting. Callers probing for protocol activity almost always want
    /// [`MgrOut::has_effects`] instead: a cost-only call (`work > 0`,
    /// nothing sent, nothing decided) is *not* activity.
    pub fn is_empty(&self) -> bool {
        !self.has_effects() && self.work.is_zero()
    }

    /// Whether the call produced protocol effects (sends or a decision),
    /// ignoring accrued `rcv()` accounting.
    pub fn has_effects(&self) -> bool {
        !self.sends.is_empty() || self.decided
    }
}

impl<V> Default for MgrOut<V> {
    fn default() -> Self {
        MgrOut::new()
    }
}

enum Slot<V, A> {
    Running(A),
    Done {
        value: V,
        /// Whose `Decide` taught us the value — `None` once everyone has
        /// been sent it by us (we announced it, or relayed it already).
        learned_from: Option<ProcessId>,
    },
}

/// Manages the numbered instances of one consensus algorithm type `A`.
pub struct InstanceManager<V, A> {
    factory: Box<dyn FnMut(u64) -> A + Send>,
    slots: BTreeMap<u64, Slot<V, A>>,
    /// Messages for instances not yet proposed in.
    pending: BTreeMap<u64, Vec<(ProcessId, ConsMsg<V>)>>,
    /// Instances strictly below this were garbage-collected; their traffic
    /// is dropped.
    gc_floor: u64,
}

impl<V, A> std::fmt::Debug for InstanceManager<V, A> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("InstanceManager")
            .field("instances", &self.slots.len())
            .field("pending", &self.pending.len())
            .finish()
    }
}

impl<V: ConsensusValue, A: SingleConsensus<V>> InstanceManager<V, A> {
    /// Creates a manager that builds instance `k`'s state machine with
    /// `factory(k)`.
    pub fn new(factory: impl FnMut(u64) -> A + Send + 'static) -> Self {
        InstanceManager {
            factory: Box::new(factory),
            slots: BTreeMap::new(),
            pending: BTreeMap::new(),
            gc_floor: 0,
        }
    }

    /// The decision of instance `k`, if it has decided.
    pub fn decision(&self, k: u64) -> Option<&V> {
        match self.slots.get(&k)? {
            Slot::Done { value, .. } => Some(value),
            Slot::Running(_) => None,
        }
    }

    /// The decided instances from `k` on, ascending, with their values.
    pub fn decided_from(&self, k: u64) -> impl Iterator<Item = (u64, &V)> + '_ {
        self.slots.range(k..).filter_map(|(&i, s)| match s {
            Slot::Done { value, .. } => Some((i, value)),
            Slot::Running(_) => None,
        })
    }

    /// Learns the decision `v` of instance `k` from outside consensus (a
    /// peer's decided log): a running or unopened instance at or above the
    /// GC floor becomes `Done` (never relayed from here) and its parked
    /// frames go. A `Done` value is never overwritten.
    pub fn learn(&mut self, k: u64, v: V) {
        if k < self.gc_floor || matches!(self.slots.get(&k), Some(Slot::Done { .. })) {
            return;
        }
        self.slots.insert(k, Slot::Done { value: v, learned_from: None });
        self.pending.remove(&k);
    }

    /// Instance numbers currently running (proposed, undecided), ascending.
    fn running_instances(&self) -> Vec<u64> {
        self.slots
            .iter()
            .filter_map(|(k, s)| matches!(s, Slot::Running(_)).then_some(*k))
            .collect()
    }

    /// Proposes in instance `k` (Algorithm 1 line 17), flushing any
    /// buffered messages for it.
    ///
    /// # Panics
    ///
    /// Panics if instance `k` was already proposed in.
    pub fn propose(
        &mut self,
        k: u64,
        v: V,
        rcv: &dyn RcvOracle<V>,
        suspected: ProcessSet,
        out: &mut MgrOut<V>,
    ) {
        assert!(!self.slots.contains_key(&k), "instance {k} already started");
        let mut algo = (self.factory)(k);
        let env = ConsEnv::new(rcv, suspected);
        let mut local = ConsOut::new();
        algo.propose(v, &env, &mut local);
        self.slots.insert(k, Slot::Running(algo));
        self.absorb(k, local, out);
        // Flush messages that arrived before we were ready.
        if let Some(buffered) = self.pending.remove(&k) {
            for (from, msg) in buffered {
                self.on_message(k, from, msg, rcv, suspected, out);
            }
        }
    }

    /// Routes a message of instance `k`.
    pub fn on_message(
        &mut self,
        k: u64,
        from: ProcessId,
        msg: ConsMsg<V>,
        rcv: &dyn RcvOracle<V>,
        suspected: ProcessSet,
        out: &mut MgrOut<V>,
    ) {
        match self.slots.get_mut(&k) {
            None => {
                if k < self.gc_floor {
                    return; // collected long ago; the sender will catch up
                }
                // Not started here yet: buffer until Algorithm 1 proposes.
                self.pending.entry(k).or_default().push((from, msg));
            }
            Some(Slot::Done { value, .. }) => {
                // Repair stragglers: the sender is evidently still working
                // on k. Not for a Decide (it knows) nor a CtAck (it waits
                // for the Decide the decider has already sent it).
                if !matches!(msg, ConsMsg::Decide { .. } | ConsMsg::CtAck { .. }) {
                    let value = value.clone();
                    out.sends.push((k, ConsDest::To(from), ConsMsg::Decide { value }));
                }
            }
            Some(Slot::Running(algo)) => {
                if let ConsMsg::Decide { value } = msg {
                    // Learn; relay at once if the teacher is already
                    // suspected (it may have crashed mid-announcement).
                    let mut learned_from = Some(from);
                    if suspected.contains(from) {
                        out.sends.push((k, ConsDest::Others, ConsMsg::Decide { value: value.clone() }));
                        learned_from = None;
                    }
                    self.slots.insert(k, Slot::Done { value, learned_from });
                    out.decided = true;
                    return;
                }
                let env = ConsEnv::new(rcv, suspected);
                let mut local = ConsOut::new();
                algo.on_message(from, msg, &env, &mut local);
                self.absorb(k, local, out);
            }
        }
    }

    /// Fans a new suspicion out to every running instance, and relays the
    /// cached decisions learned from `p`.
    pub fn on_suspect(
        &mut self,
        p: ProcessId,
        rcv: &dyn RcvOracle<V>,
        suspected: ProcessSet,
        out: &mut MgrOut<V>,
    ) {
        for k in self.running_instances() {
            if let Some(Slot::Running(algo)) = self.slots.get_mut(&k) {
                let env = ConsEnv::new(rcv, suspected);
                let mut local = ConsOut::new();
                algo.on_suspect(p, &env, &mut local);
                self.absorb(k, local, out);
            }
        }
        for (&k, slot) in &mut self.slots {
            if let Slot::Done { value, learned_from } = slot {
                if *learned_from == Some(p) {
                    *learned_from = None;
                    out.sends.push((k, ConsDest::Others, ConsMsg::Decide { value: value.clone() }));
                }
            }
        }
    }

    /// Garbage-collects decided instances strictly below `k`, keeping the
    /// `keep_last` most recent of them as the cache that straggler repair
    /// and relay-on-suspicion are served from (see the module docs), and
    /// the frames parked below that floor, for instances the caller skipped.
    /// Running instances are never collected.
    ///
    /// Returns the number of slots freed. The atomic broadcast layer calls
    /// this as instances complete; in an infinite execution it bounds the
    /// manager's footprint to `O(keep_last)` decided values plus the live
    /// instance.
    pub fn gc_decided_below(&mut self, k: u64, keep_last: u64) -> usize {
        let cutoff = k.saturating_sub(keep_last);
        let doomed: Vec<u64> = self
            .slots
            .range(..cutoff)
            .filter_map(|(i, s)| matches!(s, Slot::Done { .. }).then_some(*i))
            .collect();
        for i in &doomed {
            self.slots.remove(i);
        }
        self.pending.retain(|&i, _| i >= cutoff);
        self.gc_floor = self.gc_floor.max(cutoff);
        doomed.len()
    }

    /// Number of slots currently retained (running + cached decided).
    pub fn slot_count(&self) -> usize {
        self.slots.len()
    }

    /// Merges a per-instance output buffer into the manager output. If the
    /// instance reached its decision here, announces it and retires the
    /// state machine.
    fn absorb(&mut self, k: u64, local: ConsOut<V>, out: &mut MgrOut<V>) {
        out.work += local.work;
        for (dest, msg) in local.sends {
            out.sends.push((k, dest, msg));
        }
        if let Some(value) = local.decision {
            out.sends.push((k, ConsDest::Others, ConsMsg::Decide { value: value.clone() }));
            self.slots.insert(k, Slot::Done { value, learned_from: None });
            out.decided = true;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ct::CtConsensus;
    use crate::value::AlwaysHeld;
    use iabc_types::{IdSet, MsgId};

    fn p(i: u16) -> ProcessId {
        ProcessId::new(i)
    }

    fn ids(seqs: &[u64]) -> IdSet {
        IdSet::from_ids(seqs.iter().map(|&s| MsgId::new(p(0), s)))
    }

    fn mgr(me: u16, n: usize) -> InstanceManager<IdSet, CtConsensus<IdSet>> {
        InstanceManager::new(move |_k| CtConsensus::new(p(me), n))
    }

    #[test]
    fn single_node_system_decides_every_instance() {
        let mut m = mgr(0, 1);
        let mut out = MgrOut::new();
        m.propose(1, ids(&[1]), &AlwaysHeld, ProcessSet::new(), &mut out);
        // n = 1: the proposal loops through self-sends; feed them back.
        let mut guard = 0;
        while let Some((k, dest, msg)) = out.sends.pop() {
            // With n = 1, `Others` expands to nobody.
            if matches!(dest, ConsDest::Others) {
                continue;
            }
            m.on_message(k, p(0), msg, &AlwaysHeld, ProcessSet::new(), &mut out);
            guard += 1;
            assert!(guard < 100);
        }
        assert_eq!(m.decision(1), Some(&ids(&[1])));
        assert!(m.running_instances().is_empty());
    }

    #[test]
    fn messages_before_propose_are_buffered_and_flushed() {
        let mut m = mgr(0, 3);
        let mut out = MgrOut::new();
        // A decide for instance 1 arrives before we proposed.
        m.on_message(
            1,
            p(2),
            ConsMsg::Decide { value: ids(&[9]) },
            &AlwaysHeld,
            ProcessSet::new(),
            &mut out,
        );
        assert!(m.decision(1).is_none());
        assert!(!out.has_effects(), "buffering must look like no protocol activity");
        assert!(out.is_empty());
        assert_eq!(m.pending[&1].len(), 1);
        // Proposing flushes the buffer: we decide instantly.
        m.propose(1, ids(&[1]), &AlwaysHeld, ProcessSet::new(), &mut out);
        assert_eq!(m.decision(1), Some(&ids(&[9])));
        assert!(out.decided);
    }

    #[test]
    fn done_instances_answer_with_the_decision() {
        let mut m = mgr(0, 3);
        let mut out = MgrOut::new();
        m.propose(1, ids(&[1]), &AlwaysHeld, ProcessSet::new(), &mut out);
        m.on_message(
            1,
            p(2),
            ConsMsg::Decide { value: ids(&[7]) },
            &AlwaysHeld,
            ProcessSet::new(),
            &mut out,
        );
        assert_eq!(m.decision(1), Some(&ids(&[7])));
        // A straggler's estimate for instance 1 gets the decision back.
        let mut out = MgrOut::new();
        m.on_message(
            1,
            p(1),
            ConsMsg::CtEstimate { round: 2, estimate: ids(&[1]), ts: 0 },
            &AlwaysHeld,
            ProcessSet::new(),
            &mut out,
        );
        assert_eq!(out.sends.len(), 1);
        let (k, dest, msg) = &out.sends[0];
        assert_eq!(*k, 1);
        assert_eq!(*dest, ConsDest::To(p(1)));
        assert!(matches!(msg, ConsMsg::Decide { value } if value == &ids(&[7])));
    }

    #[test]
    #[should_panic(expected = "instance 1 already started")]
    fn double_propose_same_instance_panics() {
        let mut m = mgr(0, 3);
        let mut out = MgrOut::new();
        m.propose(1, ids(&[1]), &AlwaysHeld, ProcessSet::new(), &mut out);
        m.propose(1, ids(&[1]), &AlwaysHeld, ProcessSet::new(), &mut out);
    }

    #[test]
    fn suspicions_reach_running_instances_only() {
        let mut m = mgr(0, 3);
        let mut out = MgrOut::new();
        m.propose(1, ids(&[1]), &AlwaysHeld, ProcessSet::new(), &mut out);
        m.propose(2, ids(&[2]), &AlwaysHeld, ProcessSet::new(), &mut out);
        // Decide instance 1.
        m.on_message(
            1,
            p(2),
            ConsMsg::Decide { value: ids(&[1]) },
            &AlwaysHeld,
            ProcessSet::new(),
            &mut out,
        );
        // Suspect round-1 coordinator p1: only instance 2 should react
        // (instance 1 is done). Instance 2 is waiting for p1's proposal.
        let mut suspected = ProcessSet::new();
        suspected.insert(p(1));
        let mut out = MgrOut::new();
        m.on_suspect(p(1), &AlwaysHeld, suspected, &mut out);
        assert!(out.sends.iter().all(|(k, _, _)| *k == 2));
        assert!(out.sends.iter().any(|(_, _, msg)| matches!(msg, ConsMsg::CtNack { .. })));
    }

    #[test]
    fn gc_prunes_old_decided_slots_only() {
        let mut m = mgr(0, 3);
        let mut out = MgrOut::new();
        for k in 1..=5u64 {
            m.propose(k, ids(&[k]), &AlwaysHeld, ProcessSet::new(), &mut out);
            if k < 5 {
                // Decide instances 1..4; instance 5 stays running.
                m.on_message(
                    k,
                    p(2),
                    ConsMsg::Decide { value: ids(&[k]) },
                    &AlwaysHeld,
                    ProcessSet::new(),
                    &mut out,
                );
            }
        }
        assert_eq!(m.slot_count(), 5);
        // Keep the 2 most recent decided below 5: instances 3 and 4 stay.
        let freed = m.gc_decided_below(5, 2);
        assert_eq!(freed, 2);
        assert_eq!(m.slot_count(), 3);
        assert!(m.decision(1).is_none(), "pruned");
        assert!(m.decision(3).is_some(), "cached");
        assert_eq!(m.running_instances(), vec![5], "running instances are never collected");
        // A straggler asking about a pruned instance gets no answer and is
        // not buffered either (the decided log is its way to catch up).
        let mut out = MgrOut::new();
        m.on_message(
            1,
            p(1),
            ConsMsg::CtEstimate { round: 2, estimate: ids(&[1]), ts: 0 },
            &AlwaysHeld,
            ProcessSet::new(),
            &mut out,
        );
        assert!(out.sends.is_empty());
        assert!(m.pending.is_empty());
    }

    #[test]
    fn done_instances_do_not_answer_a_stale_ack() {
        let mut m = mgr(1, 3); // p1 coordinates round 1
        let mut out = MgrOut::new();
        m.propose(1, ids(&[1]), &AlwaysHeld, ProcessSet::new(), &mut out);
        for from in [1, 0] {
            m.on_message(1, p(from), ConsMsg::CtAck { round: 1 }, &AlwaysHeld, ProcessSet::new(), &mut out);
        }
        assert_eq!(m.decision(1), Some(&ids(&[1])), "own ack + p0's = majority");
        // p2's ack arrives late. p2 is parked waiting for the Decide the
        // announcement already carries to it: a reply would be a duplicate.
        let mut out = MgrOut::new();
        m.on_message(1, p(2), ConsMsg::CtAck { round: 1 }, &AlwaysHeld, ProcessSet::new(), &mut out);
        assert!(out.sends.is_empty());
    }

    fn decide_sends(out: &MgrOut<IdSet>) -> Vec<(u64, ConsDest)> {
        out.sends
            .iter()
            .filter(|(_, _, m)| matches!(m, ConsMsg::Decide { .. }))
            .map(|(k, dest, _)| (*k, *dest))
            .collect()
    }

    #[test]
    fn the_decider_announces_once_and_a_learner_stays_silent() {
        let mut decider = mgr(1, 3);
        let mut out = MgrOut::new();
        decider.propose(1, ids(&[1]), &AlwaysHeld, ProcessSet::new(), &mut out);
        for from in [1, 0] {
            decider.on_message(1, p(from), ConsMsg::CtAck { round: 1 }, &AlwaysHeld, ProcessSet::new(), &mut out);
        }
        assert_eq!(decide_sends(&out), vec![(1, ConsDest::Others)]);

        let mut learner = mgr(0, 3);
        let mut out = MgrOut::new();
        learner.propose(1, ids(&[0]), &AlwaysHeld, ProcessSet::new(), &mut out);
        let decide = ConsMsg::Decide { value: ids(&[1]) };
        learner.on_message(1, p(1), decide.clone(), &AlwaysHeld, ProcessSet::new(), &mut out);
        assert_eq!(learner.decision(1), Some(&ids(&[1])));
        assert!(decide_sends(&out).is_empty(), "learning relays nothing");
        // A duplicate Decide is neither re-decided nor answered.
        let mut out = MgrOut::new();
        learner.on_message(1, p(1), decide, &AlwaysHeld, ProcessSet::new(), &mut out);
        assert!(!out.has_effects());
    }

    #[test]
    fn a_learner_relays_once_when_its_teacher_is_suspected() {
        let mut m = mgr(0, 3);
        let mut out = MgrOut::new();
        for k in 1..=2u64 {
            m.propose(k, ids(&[k]), &AlwaysHeld, ProcessSet::new(), &mut out);
        }
        // Instance 1 learned from p1, instance 2 from p2.
        for (k, from) in [(1, 1), (2, 2)] {
            let decide = ConsMsg::Decide { value: ids(&[k]) };
            m.on_message(k, p(from), decide, &AlwaysHeld, ProcessSet::new(), &mut out);
        }
        let mut suspected = ProcessSet::new();
        suspected.insert(p(1));
        let mut out = MgrOut::new();
        m.on_suspect(p(1), &AlwaysHeld, suspected, &mut out);
        assert_eq!(decide_sends(&out), vec![(1, ConsDest::Others)], "only what p1 taught us");
        // Everyone has been sent it now: a second suspicion relays nothing.
        let mut out = MgrOut::new();
        m.on_suspect(p(1), &AlwaysHeld, suspected, &mut out);
        assert!(!out.has_effects());
    }

    #[test]
    fn learning_from_an_already_suspected_teacher_relays_at_once() {
        let mut m = mgr(0, 3);
        let mut suspected = ProcessSet::new();
        suspected.insert(p(1));
        let mut out = MgrOut::new();
        m.propose(1, ids(&[0]), &AlwaysHeld, suspected, &mut out);
        let mut out = MgrOut::new();
        m.on_message(1, p(1), ConsMsg::Decide { value: ids(&[1]) }, &AlwaysHeld, suspected, &mut out);
        assert_eq!(m.decision(1), Some(&ids(&[1])));
        assert_eq!(decide_sends(&out), vec![(1, ConsDest::Others)]);
        let mut out = MgrOut::new();
        m.on_suspect(p(1), &AlwaysHeld, suspected, &mut out);
        assert!(decide_sends(&out).is_empty(), "already relayed");
    }

    #[test]
    fn cost_only_mgr_output_is_not_protocol_activity() {
        let mut out: MgrOut<IdSet> = MgrOut::new();
        out.work += Duration::from_micros(5);
        assert!(!out.has_effects(), "accounting alone is not activity");
        assert!(!out.is_empty());
        out.decided = true;
        assert!(out.has_effects());
    }

    #[test]
    fn learning_closes_a_running_slot() {
        let mut m = mgr(0, 3);
        let mut out = MgrOut::new();
        m.propose(1, ids(&[1]), &AlwaysHeld, ProcessSet::new(), &mut out);
        m.learn(1, ids(&[7]));
        assert_eq!(m.decision(1), Some(&ids(&[7])));
        assert!(m.running_instances().is_empty());
        // Learned values are announced by their decider: a suspicion of
        // anyone relays nothing, while a straggler is still answered.
        let mut suspected = ProcessSet::new();
        suspected.insert(p(1));
        let mut out = MgrOut::new();
        m.on_suspect(p(1), &AlwaysHeld, suspected, &mut out);
        assert!(!out.has_effects());
        let estimate = ConsMsg::CtEstimate { round: 2, estimate: ids(&[1]), ts: 0 };
        m.on_message(1, p(2), estimate, &AlwaysHeld, ProcessSet::new(), &mut out);
        assert_eq!(decide_sends(&out), vec![(1, ConsDest::To(p(2)))]);
    }

    #[test]
    fn learning_an_unopened_instance_drops_its_parked_frames() {
        let mut m = mgr(0, 3);
        let mut out = MgrOut::new();
        let estimate = ConsMsg::CtEstimate { round: 1, estimate: ids(&[2]), ts: 0 };
        m.on_message(2, p(1), estimate, &AlwaysHeld, ProcessSet::new(), &mut out);
        assert_eq!(m.pending.len(), 1);
        m.learn(2, ids(&[2]));
        assert_eq!(m.decision(2), Some(&ids(&[2])));
        assert!(m.pending.is_empty());
        assert_eq!(m.decided_from(1).collect::<Vec<_>>(), vec![(2, &ids(&[2]))]);
    }

    #[test]
    fn learning_ignores_the_collected_and_never_overwrites() {
        let mut m = mgr(0, 3);
        let mut out = MgrOut::new();
        m.propose(1, ids(&[1]), &AlwaysHeld, ProcessSet::new(), &mut out);
        m.on_message(1, p(2), ConsMsg::Decide { value: ids(&[1]) }, &AlwaysHeld, ProcessSet::new(), &mut out);
        m.learn(1, ids(&[9]));
        assert_eq!(m.decision(1), Some(&ids(&[1])), "a Done value stays");
        m.learn(3, ids(&[3]));
        m.learn(3, ids(&[9]));
        assert_eq!(m.decision(3), Some(&ids(&[3])), "the first learned value stays");
        m.gc_decided_below(5, 0);
        m.learn(4, ids(&[4]));
        assert_eq!((m.decision(4), m.slot_count()), (None, 0), "below the floor: nothing kept");
    }

    #[test]
    fn gc_drops_frames_parked_below_its_floor() {
        let mut m = mgr(0, 3);
        let mut out = MgrOut::new();
        for k in [2, 3, 6] {
            let estimate = ConsMsg::CtEstimate { round: 1, estimate: ids(&[k]), ts: 0 };
            m.on_message(k, p(1), estimate, &AlwaysHeld, ProcessSet::new(), &mut out);
        }
        m.gc_decided_below(9, 4);
        assert_eq!(m.pending.keys().copied().collect::<Vec<_>>(), vec![6], "2 and 3 were skipped");
    }

    #[test]
    fn running_state_is_reported_per_instance() {
        let mut m = mgr(0, 3);
        let mut out = MgrOut::new();
        m.propose(1, ids(&[1]), &AlwaysHeld, ProcessSet::new(), &mut out);
        m.propose(2, ids(&[2]), &AlwaysHeld, ProcessSet::new(), &mut out);
        m.propose(3, ids(&[3]), &AlwaysHeld, ProcessSet::new(), &mut out);
        assert_eq!(m.running_instances(), vec![1, 2, 3]);
        // Decide the middle instance out of order: occupancy shrinks.
        m.on_message(
            2,
            p(2),
            ConsMsg::Decide { value: ids(&[2]) },
            &AlwaysHeld,
            ProcessSet::new(),
            &mut out,
        );
        assert_eq!(m.running_instances(), vec![1, 3]);
    }
}

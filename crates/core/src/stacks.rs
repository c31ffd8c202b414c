//! Constructors for the paper's four atomic broadcast stacks
//! (× two consensus families × two reliable-broadcast strategies).
//!
//! Every stack is Algorithm 1 with three choices — the broadcast module,
//! the consensus machine, and whether `rcv` consults the store — so all
//! eight constructors are one call to the same private body.

use iabc_broadcast::{Broadcast, EagerRb, LazyRb, MajorityAckUrb};
use iabc_consensus::{CtConsensus, CtIndirect, MrConsensus, MrIndirect, SingleConsensus};
use iabc_fd::{FailureDetector, HeartbeatFd, NeverSuspect};
use iabc_types::{Duration, IdSet, ProcessId, ProcessSet};

use crate::msgset::MsgSet;
use crate::node::{AbcastNode, PipelineConfig};
use crate::store::{CostModel, OrderingValue};

/// Which ◇S consensus family a stack uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConsensusFamily {
    /// Chandra–Toueg (centralized, coordinator-driven).
    Ct,
    /// Mostéfaoui–Raynal (decentralized, quorum-driven).
    Mr,
}

/// Which reliable-broadcast dissemination strategy a stack uses
/// (ignored by the URB variant).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RbKind {
    /// Eager flooding: one step, O(n²) messages (Figures 5/7a).
    EagerN2,
    /// Failure-detector triggered relays: O(n) messages in good runs
    /// (Figures 6/7b).
    LazyN,
}

/// The four stack variants compared in the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VariantKind {
    /// RB + indirect consensus on identifiers (the contribution).
    Indirect,
    /// RB + consensus on full message sets (classic reduction \[2\]).
    DirectMessages,
    /// RB + unmodified consensus on identifiers — **unsafe** (§2.2), kept
    /// as the baseline the paper measures against in Figures 3–4.
    FaultyIds,
    /// URB + unmodified consensus on identifiers (the other correct fix).
    UrbIds,
}

/// Which failure detector a stack runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FdKind {
    /// Never suspect (fault-free performance runs).
    Never,
    /// Heartbeat ◇S with the given period and suspicion timeout.
    Heartbeat {
        /// Heartbeat period.
        interval: Duration,
        /// Silence threshold after which a peer is suspected.
        timeout: Duration,
    },
}

/// Everything needed to instantiate one process of a stack — the one
/// place a stack is configured (the simulator's experiment runner embeds
/// it whole in `iabc_workload::WorkloadSpec`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StackParams {
    /// System size.
    pub n: usize,
    /// Reliable-broadcast strategy (for the variants that use RB).
    pub rb: RbKind,
    /// Failure detector.
    pub fd: FdKind,
    /// CPU cost model for the bookkeeping.
    pub cost: CostModel,
    /// Pipeline configuration: window bounds (static `W` when
    /// `w_min == w_max`, the default `1` everywhere — exactly what the
    /// paper-figure bins measure), the adaptive controller's thresholds,
    /// the server-side proposal cap, the freshness gate and catch-up.
    pub pipeline: PipelineConfig,
    /// Processes that are learners (read replicas), known to the *whole*
    /// membership. Learners are exempt from heartbeat suspicion, skipped
    /// by consensus coordinator rotation, and left out of every quorum —
    /// the actives reach consensus among themselves at full speed while
    /// the replicas follow via catch-up. Empty by default. A process that
    /// finds itself in this set is built in learner mode (which implies
    /// catch-up for it).
    pub learners: ProcessSet,
}

impl StackParams {
    /// Parameters for a fault-free logic run: eager RB, no failure
    /// detector, zero bookkeeping costs, window 1.
    pub fn fault_free(n: usize) -> Self {
        StackParams {
            n,
            rb: RbKind::EagerN2,
            fd: FdKind::Never,
            cost: CostModel::zero(),
            pipeline: PipelineConfig::fixed(1),
            learners: ProcessSet::new(),
        }
    }

    /// Same but with a heartbeat ◇S detector — for runs with crashes.
    pub fn with_heartbeat(n: usize, interval: Duration, timeout: Duration) -> Self {
        StackParams { fd: FdKind::Heartbeat { interval, timeout }, ..StackParams::fault_free(n) }
    }

    /// Sets a *static* pipeline window `W` (clamped to at least 1) — the
    /// controller is inert and the node keeps exactly this many instances
    /// in flight when work is available.
    pub fn with_window(mut self, window: usize) -> Self {
        let w = window.max(1);
        self.pipeline.w_min = w;
        self.pipeline.w_max = w;
        self
    }

    /// Arms the AIMD window controller with bounds `[min, max]` (clamped
    /// to `1 ≤ min ≤ max`): the window starts at `min`, grows additively
    /// while decisions land under the latency target, and halves on
    /// congestion.
    pub fn with_adaptive_window(mut self, min: usize, max: usize) -> Self {
        let min = min.max(1);
        self.pipeline.w_min = min;
        self.pipeline.w_max = max.max(min);
        self
    }

    /// Sets the decision-latency target of the adaptive controller.
    pub fn with_latency_target(mut self, target: Duration) -> Self {
        self.pipeline.latency_target = target;
        self
    }

    /// Sets the `unordered`-backlog depth past which the adaptive
    /// controller treats the pipeline as congested.
    pub fn with_backlog_limit(mut self, limit: usize) -> Self {
        self.pipeline.backlog_limit = limit;
        self
    }

    /// Caps proposals at `cap` identifiers (clamped to at least 1); the
    /// remainder spills to the next consensus instance.
    pub fn with_proposal_cap(mut self, cap: usize) -> Self {
        self.pipeline.max_proposal_ids = cap.max(1);
        self
    }

    /// Gates proposals on identifier freshness: ids younger than ~one
    /// measured flood delay (the node's EWMA of RB delivery latency) are
    /// excluded from proposals until they mature, so large proposal caps
    /// stop reaching into ids whose Data frames the proposal would
    /// overtake — the nack churn that forced the priority lane to run a
    /// tight cap. Off by default; no behaviour change for any paper bin.
    pub fn with_proposal_freshness(mut self, on: bool) -> Self {
        self.pipeline.proposal_freshness = on;
        self
    }

    /// Turns on the decided log and the catch-up protocol: the node keeps
    /// an (in-memory by default — see `AbcastNode::set_decided_log` for
    /// the durable one) append-only log of delivered instances, piggybacks
    /// its decided frontier on every outbound frame, and range-fetches any
    /// prefix a peer advertises past its own. Off by default; the
    /// paper-figure bins stay byte-identical.
    pub fn with_catch_up(mut self, on: bool) -> Self {
        self.pipeline.catch_up = on;
        self
    }

    /// Declares `learners` as read replicas to the *whole* membership
    /// (same `StackParams` for every process): heartbeat detectors never
    /// suspect them, consensus coordinator rotation skips them, and
    /// quorums are computed over the actives only — so `a` actives
    /// tolerate `f < a/2` (CT) crashes regardless of how many replicas
    /// tag along. A process in the set builds itself in learner mode: it
    /// never broadcasts, proposes, or answers consensus, and consumes peer
    /// frontiers and catch-up batches only (catch-up is implied for it).
    pub fn with_learner_set(mut self, learners: ProcessSet) -> Self {
        self.learners = learners;
        self
    }
}

fn make_rb(kind: RbKind) -> Box<dyn Broadcast + Send> {
    match kind {
        RbKind::EagerN2 => Box::new(EagerRb::new()),
        RbKind::LazyN => Box::new(LazyRb::new()),
    }
}

fn make_fd(p: &StackParams, me: ProcessId) -> Box<dyn FailureDetector + Send> {
    match p.fd {
        FdKind::Never => Box::new(NeverSuspect::new()),
        FdKind::Heartbeat { interval, timeout } => {
            Box::new(HeartbeatFd::new(me, p.n, interval, timeout).with_excluded(p.learners))
        }
    }
}

/// The one stack body: Algorithm 1 over `bcast`, with each consensus
/// instance built by `machine` (a consensus type's `with_membership`) and
/// the `rcv` oracle consulting the store iff `check_store`. A process in
/// the learner set runs in learner mode, which implies catch-up — a
/// learner has no other way to learn decisions.
fn assemble<V: OrderingValue, A: SingleConsensus<V> + 'static>(
    me: ProcessId,
    p: &StackParams,
    bcast: Box<dyn Broadcast + Send>,
    check_store: bool,
    machine: fn(ProcessId, usize, u64, ProcessSet) -> A,
) -> AbcastNode<V, A> {
    let (n, learners) = (p.n, p.learners);
    let mut pipeline = p.pipeline;
    if learners.contains(me) {
        pipeline.learner = true;
        pipeline.catch_up = true;
    }
    AbcastNode::new(
        me,
        bcast,
        make_fd(p, me),
        move |k| machine(me, n, k, learners),
        check_store,
        p.cost,
        pipeline,
    )
}

/// RB + **indirect CT** consensus (Algorithm 1 + Algorithm 2) — the
/// paper's primary stack.
pub fn indirect_ct(me: ProcessId, p: &StackParams) -> AbcastNode<IdSet, CtIndirect<IdSet>> {
    assemble(me, p, make_rb(p.rb), true, CtIndirect::with_membership)
}

/// RB + **indirect MR** consensus (Algorithm 1 + Algorithm 3). Remember
/// the reduced resilience: safe only while `f < n/3`.
pub fn indirect_mr(me: ProcessId, p: &StackParams) -> AbcastNode<IdSet, MrIndirect<IdSet>> {
    assemble(me, p, make_rb(p.rb), true, MrIndirect::with_membership)
}

/// RB + CT consensus on **full message sets** — the classic reduction of
/// \[2\]: correct, but consensus traffic carries every payload (Figure 1).
pub fn direct_ct_messages(me: ProcessId, p: &StackParams) -> AbcastNode<MsgSet, CtConsensus<MsgSet>> {
    assemble(me, p, make_rb(p.rb), false, CtConsensus::with_membership)
}

/// RB + MR consensus on **full message sets**.
pub fn direct_mr_messages(me: ProcessId, p: &StackParams) -> AbcastNode<MsgSet, MrConsensus<MsgSet>> {
    assemble(me, p, make_rb(p.rb), false, MrConsensus::with_membership)
}

/// RB + **unmodified** CT consensus on bare identifiers.
///
/// ⚠ This stack is *known-unsafe*: it is the §2.2 counterexample — a
/// single crash can strand an ordered identifier whose payload no correct
/// process holds, blocking delivery forever (Validity violation). It
/// exists to reproduce the paper's Figures 3–4 baseline and its
/// counterexample tests; do not use it for anything else.
pub fn faulty_ct_ids(me: ProcessId, p: &StackParams) -> AbcastNode<IdSet, CtConsensus<IdSet>> {
    assemble(me, p, make_rb(p.rb), false, CtConsensus::with_membership)
}

/// RB + **unmodified** MR consensus on bare identifiers.
///
/// ⚠ Known-unsafe, like [`faulty_ct_ids`]; additionally this is the
/// algorithm §3.3.2 proves cannot be repaired by local checks alone.
pub fn faulty_mr_ids(me: ProcessId, p: &StackParams) -> AbcastNode<IdSet, MrConsensus<IdSet>> {
    assemble(me, p, make_rb(p.rb), false, MrConsensus::with_membership)
}

/// **URB** + unmodified CT consensus on identifiers — the other correct
/// solution: uniform reliable broadcast guarantees every ordered payload
/// is everywhere, at the price of O(n²) payload messages and a two-step
/// broadcaster delivery (Figures 5–7).
pub fn urb_ct_ids(me: ProcessId, p: &StackParams) -> AbcastNode<IdSet, CtConsensus<IdSet>> {
    assemble(me, p, Box::new(MajorityAckUrb::new(me, p.n)), false, CtConsensus::with_membership)
}

/// **URB** + unmodified MR consensus on identifiers.
pub fn urb_mr_ids(me: ProcessId, p: &StackParams) -> AbcastNode<IdSet, MrConsensus<IdSet>> {
    assemble(me, p, Box::new(MajorityAckUrb::new(me, p.n)), false, MrConsensus::with_membership)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_build() {
        let p = StackParams::fault_free(3);
        let me = ProcessId::new(0);
        let _ = indirect_ct(me, &p);
        let _ = indirect_mr(me, &p);
        let _ = direct_ct_messages(me, &p);
        let _ = direct_mr_messages(me, &p);
        let _ = faulty_ct_ids(me, &p);
        let _ = faulty_mr_ids(me, &p);
        let _ = urb_ct_ids(me, &p);
        let _ = urb_mr_ids(me, &p);

        // The shared body derives learner mode (and with it the decided
        // log) for every stack, whatever its broadcast or consensus.
        fn learner_probe<V: OrderingValue, A: SingleConsensus<V>>(
            node: AbcastNode<V, A>,
        ) -> (bool, u64) {
            (node.is_learner(), node.decided_frontier())
        }
        let mut learner = ProcessSet::new();
        learner.insert(me);
        let q = StackParams { rb: RbKind::LazyN, ..p }.with_learner_set(learner);
        let probes = [
            ("indirect_ct", learner_probe(indirect_ct(me, &q))),
            ("indirect_mr", learner_probe(indirect_mr(me, &q))),
            ("direct_ct_messages", learner_probe(direct_ct_messages(me, &q))),
            ("direct_mr_messages", learner_probe(direct_mr_messages(me, &q))),
            ("faulty_ct_ids", learner_probe(faulty_ct_ids(me, &q))),
            ("faulty_mr_ids", learner_probe(faulty_mr_ids(me, &q))),
            ("urb_ct_ids", learner_probe(urb_ct_ids(me, &q))),
            ("urb_mr_ids", learner_probe(urb_mr_ids(me, &q))),
        ];
        for (name, (is_learner, frontier)) in probes {
            assert!(is_learner, "{name}: a process in the learner set must be a learner");
            assert_eq!(frontier, 0, "{name}: a fresh learner's decided log is empty");
        }
    }

    #[test]
    fn window_defaults_to_one_and_is_clamped() {
        let p = StackParams::fault_free(3);
        assert_eq!((p.pipeline.w_min, p.pipeline.w_max), (1, 1));
        assert!(!p.pipeline.is_adaptive());
        assert_eq!(p.with_window(8).pipeline.w_max, 8);
        assert_eq!(p.with_window(0).pipeline.w_min, 1, "window 0 makes no progress; clamp");
        let node = indirect_ct(ProcessId::new(0), &p.with_window(4));
        assert_eq!(node.window(), 4);
        assert!(!node.is_adaptive_window());
    }

    #[test]
    fn adaptive_params_arm_the_controller() {
        let p = StackParams::fault_free(3)
            .with_adaptive_window(2, 16)
            .with_latency_target(Duration::from_millis(4))
            .with_backlog_limit(256)
            .with_proposal_cap(32);
        assert!(p.pipeline.is_adaptive());
        assert_eq!(p.pipeline.latency_target, Duration::from_millis(4));
        assert_eq!(p.pipeline.backlog_limit, 256);
        assert_eq!(p.pipeline.max_proposal_ids, 32);
        let node = indirect_ct(ProcessId::new(0), &p);
        assert!(node.is_adaptive_window());
        assert_eq!(node.window_bounds(), (2, 16));
        assert_eq!(node.window(), 2, "adaptive windows start at w_min");
        // Degenerate bounds clamp: max < min collapses to static-at-min,
        // and a zero cap still lets one id through per instance.
        let q = StackParams::fault_free(3).with_adaptive_window(0, 0).with_proposal_cap(0);
        assert_eq!((q.pipeline.w_min, q.pipeline.w_max), (1, 1));
        assert_eq!(q.pipeline.max_proposal_ids, 1);
    }

    #[test]
    fn catch_up_and_learner_toggles() {
        let p = StackParams::fault_free(3);
        assert!(!p.pipeline.catch_up, "paper bins default to no catch-up");
        assert!(!p.pipeline.learner);
        let q = p.with_catch_up(true);
        assert!(q.pipeline.catch_up);
        assert!(!q.pipeline.learner);
        assert!(!indirect_ct(ProcessId::new(0), &q).is_learner());
        let mut replicas = ProcessSet::new();
        replicas.insert(ProcessId::new(2));
        let r = p.with_learner_set(replicas);
        // Learner mode is derived per process: only members of the set.
        assert!(!indirect_ct(ProcessId::new(0), &r).is_learner());
        assert!(indirect_ct(ProcessId::new(2), &r).is_learner());
    }

    #[test]
    fn heartbeat_params_build() {
        let p = StackParams::with_heartbeat(
            3,
            Duration::from_millis(5),
            Duration::from_millis(50),
        );
        let _ = indirect_ct(ProcessId::new(1), &p);
        assert!(matches!(p.fd, FdKind::Heartbeat { .. }));
    }
}

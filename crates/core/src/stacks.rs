//! Constructors for the paper's four atomic broadcast stacks
//! (× two consensus families × two reliable-broadcast strategies).

use iabc_broadcast::{Broadcast, EagerRb, LazyRb, MajorityAckUrb};
use iabc_consensus::{CtConsensus, CtIndirect, MrConsensus, MrIndirect};
use iabc_fd::{FailureDetector, HeartbeatFd, NeverSuspect};
use iabc_types::{Duration, IdSet, ProcessId, ProcessSet};

use crate::msgset::MsgSet;
use crate::node::{AbcastNode, PipelineConfig};
use crate::store::CostModel;

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

/// Everything needed to instantiate one process of a stack.
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
    /// and the server-side proposal cap.
    pub pipeline: PipelineConfig,
    /// Whether the host transport should run the two-class priority lane
    /// (ordering frames served ahead of bulk payload traffic). `false` —
    /// the default everywhere — keeps the single-class FIFO model the
    /// paper-figure bins measure, bit-for-bit.
    ///
    /// ⚠ The lane lives in the *executor*, not the node: this field is the
    /// stack's record of the intended host model, and whoever builds the
    /// world must thread it through (the simulator:
    /// `SimBuilder::new(n, net).priority_lane(params.priority_lane)`;
    /// `iabc_workload::run_variant` does this for every experiment).
    /// Building a world without threading it silently measures the FIFO
    /// model.
    pub priority_lane: bool,
    /// Processes that are learners (read replicas), known to the *whole*
    /// membership. Learners are exempt from heartbeat suspicion, skipped
    /// by consensus coordinator rotation, and left out of every quorum —
    /// the actives reach consensus among themselves at full speed while
    /// the replicas follow via catch-up. Empty by default. A process that
    /// finds itself in this set is built in learner mode automatically
    /// (as if [`StackParams::with_learner`] were set for it).
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
            priority_lane: false,
            learners: ProcessSet::new(),
        }
    }

    /// Same but with a heartbeat ◇S detector — for runs with crashes.
    pub fn with_heartbeat(n: usize, interval: Duration, timeout: Duration) -> Self {
        StackParams {
            n,
            rb: RbKind::EagerN2,
            fd: FdKind::Heartbeat { interval, timeout },
            cost: CostModel::zero(),
            pipeline: PipelineConfig::fixed(1),
            priority_lane: false,
            learners: ProcessSet::new(),
        }
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

    /// Runs the transport's two-class priority lane: ordering frames
    /// (consensus, failure detector) are served ahead of queued bulk
    /// payload traffic on every CPU and NIC. Off by default — the
    /// paper-figure bins keep the single-class FIFO model bit-for-bit.
    ///
    /// The executor must thread the flag into world construction (see
    /// [`StackParams::priority_lane`]):
    ///
    /// ```
    /// use iabc_core::stacks::{self, StackParams};
    /// use iabc_sim::{NetworkParams, SimBuilder};
    ///
    /// let params = StackParams::fault_free(3).with_priority_lane(true);
    /// let world = SimBuilder::new(params.n, NetworkParams::setup1())
    ///     .priority_lane(params.priority_lane) // <- without this, FIFO
    ///     .build(|p| stacks::indirect_ct(p, &params));
    /// assert!(world.priority_lane());
    /// ```
    pub fn with_priority_lane(mut self, on: bool) -> Self {
        self.priority_lane = on;
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
        self.pipeline = self.pipeline.with_catch_up(on);
        self
    }

    /// Learner mode (read replica): the node never broadcasts, proposes,
    /// or answers consensus — it consumes peer frontiers and catch-up
    /// batches only. Implies [`StackParams::with_catch_up`].
    ///
    /// This flag marks the *local* node only. Prefer
    /// [`StackParams::with_learner_set`], which tells the whole membership
    /// who the learners are: without it, heartbeat-FD peers suspect the
    /// silent replica and consensus wastes rounds rotating coordination
    /// onto it before the suspicion kicks in.
    pub fn with_learner(mut self, on: bool) -> Self {
        self.pipeline = self.pipeline.with_learner(on);
        self
    }

    /// Declares `learners` as read replicas to the *whole* membership
    /// (same `StackParams` for every process): heartbeat detectors never
    /// suspect them, consensus coordinator rotation skips them, and
    /// quorums are computed over the actives only — so `a` actives
    /// tolerate `f < a/2` (CT) crashes regardless of how many replicas
    /// tag along. A process in the set builds itself in learner mode
    /// (implies catch-up for it, exactly as [`StackParams::with_learner`]
    /// would).
    pub fn with_learner_set(mut self, learners: ProcessSet) -> Self {
        self.learners = learners;
        self
    }
}

/// The pipeline a given process runs: nodes named in the learner set get
/// learner mode switched on automatically.
fn pipeline_for(me: ProcessId, p: &StackParams) -> PipelineConfig {
    if p.learners.contains(me) {
        p.pipeline.with_learner(true)
    } else {
        p.pipeline
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

/// RB + **indirect CT** consensus (Algorithm 1 + Algorithm 2) — the
/// paper's primary stack.
pub fn indirect_ct(me: ProcessId, p: &StackParams) -> AbcastNode<IdSet, CtIndirect<IdSet>> {
    let n = p.n;
    let learners = p.learners;
    AbcastNode::new(
        me,
        make_rb(p.rb),
        make_fd(p, me),
        move |k| CtIndirect::with_membership(me, n, k, learners),
        true,
        p.cost,
        pipeline_for(me, p),
    )
}

/// RB + **indirect MR** consensus (Algorithm 1 + Algorithm 3). Remember
/// the reduced resilience: safe only while `f < n/3`.
pub fn indirect_mr(me: ProcessId, p: &StackParams) -> AbcastNode<IdSet, MrIndirect<IdSet>> {
    let n = p.n;
    let learners = p.learners;
    AbcastNode::new(
        me,
        make_rb(p.rb),
        make_fd(p, me),
        move |k| MrIndirect::with_membership(me, n, k, learners),
        true,
        p.cost,
        pipeline_for(me, p),
    )
}

/// RB + CT consensus on **full message sets** — the classic reduction of
/// \[2\]: correct, but consensus traffic carries every payload (Figure 1).
pub fn direct_ct_messages(me: ProcessId, p: &StackParams) -> AbcastNode<MsgSet, CtConsensus<MsgSet>> {
    let n = p.n;
    let learners = p.learners;
    AbcastNode::new(
        me,
        make_rb(p.rb),
        make_fd(p, me),
        move |k| CtConsensus::with_membership(me, n, k, learners),
        false,
        p.cost,
        pipeline_for(me, p),
    )
}

/// RB + MR consensus on **full message sets**.
pub fn direct_mr_messages(me: ProcessId, p: &StackParams) -> AbcastNode<MsgSet, MrConsensus<MsgSet>> {
    let n = p.n;
    let learners = p.learners;
    AbcastNode::new(
        me,
        make_rb(p.rb),
        make_fd(p, me),
        move |k| MrConsensus::with_membership(me, n, k, learners),
        false,
        p.cost,
        pipeline_for(me, p),
    )
}

/// RB + **unmodified** CT consensus on bare identifiers.
///
/// ⚠ This stack is *known-unsafe*: it is the §2.2 counterexample — a
/// single crash can strand an ordered identifier whose payload no correct
/// process holds, blocking delivery forever (Validity violation). It
/// exists to reproduce the paper's Figures 3–4 baseline and its
/// counterexample tests; do not use it for anything else.
pub fn faulty_ct_ids(me: ProcessId, p: &StackParams) -> AbcastNode<IdSet, CtConsensus<IdSet>> {
    let n = p.n;
    let learners = p.learners;
    AbcastNode::new(
        me,
        make_rb(p.rb),
        make_fd(p, me),
        move |k| CtConsensus::with_membership(me, n, k, learners),
        false,
        p.cost,
        pipeline_for(me, p),
    )
}

/// RB + **unmodified** MR consensus on bare identifiers.
///
/// ⚠ Known-unsafe, like [`faulty_ct_ids`]; additionally this is the
/// algorithm §3.3.2 proves cannot be repaired by local checks alone.
pub fn faulty_mr_ids(me: ProcessId, p: &StackParams) -> AbcastNode<IdSet, MrConsensus<IdSet>> {
    let n = p.n;
    let learners = p.learners;
    AbcastNode::new(
        me,
        make_rb(p.rb),
        make_fd(p, me),
        move |k| MrConsensus::with_membership(me, n, k, learners),
        false,
        p.cost,
        pipeline_for(me, p),
    )
}

/// **URB** + unmodified CT consensus on identifiers — the other correct
/// solution: uniform reliable broadcast guarantees every ordered payload
/// is everywhere, at the price of O(n²) payload messages and a two-step
/// broadcaster delivery (Figures 5–7).
pub fn urb_ct_ids(me: ProcessId, p: &StackParams) -> AbcastNode<IdSet, CtConsensus<IdSet>> {
    let n = p.n;
    let learners = p.learners;
    AbcastNode::new(
        me,
        Box::new(MajorityAckUrb::new(me, n)),
        make_fd(p, me),
        move |k| CtConsensus::with_membership(me, n, k, learners),
        false,
        p.cost,
        pipeline_for(me, p),
    )
}

/// **URB** + unmodified MR consensus on identifiers.
pub fn urb_mr_ids(me: ProcessId, p: &StackParams) -> AbcastNode<IdSet, MrConsensus<IdSet>> {
    let n = p.n;
    let learners = p.learners;
    AbcastNode::new(
        me,
        Box::new(MajorityAckUrb::new(me, n)),
        make_fd(p, me),
        move |k| MrConsensus::with_membership(me, n, k, learners),
        false,
        p.cost,
        pipeline_for(me, p),
    )
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
    fn priority_lane_toggle() {
        let p = StackParams::fault_free(3);
        assert!(!p.priority_lane, "paper bins default to the FIFO model");
        let q = p.with_priority_lane(true);
        assert!(q.priority_lane);
        // Orthogonal to the rest of the pipeline config.
        assert_eq!((q.pipeline.w_min, q.pipeline.w_max), (1, 1));
        let _ = indirect_ct(ProcessId::new(0), &q);
    }

    #[test]
    fn catch_up_and_learner_toggles() {
        let p = StackParams::fault_free(3);
        assert!(!p.pipeline.catch_up, "paper bins default to no catch-up");
        assert!(!p.pipeline.learner);
        let q = p.with_catch_up(true);
        assert!(q.pipeline.catch_up);
        assert!(!q.pipeline.learner);
        let r = p.with_learner(true);
        assert!(r.pipeline.learner);
        assert!(r.pipeline.catch_up, "learner implies catch-up");
        let node = indirect_ct(ProcessId::new(0), &r);
        assert!(node.is_learner());
        assert_eq!(node.decided_frontier(), 0);
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

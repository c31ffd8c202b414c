//! The composed atomic broadcast node (Algorithm 1 of the paper).

use std::collections::{BTreeMap, VecDeque};
use std::fmt;

use iabc_broadcast::{BcastDest, BcastOut, Broadcast};
use iabc_consensus::{ConsDest, InstanceManager, MgrOut, SingleConsensus};
use iabc_fd::{FailureDetector, FdDest, FdEvent, FdOut};
use iabc_runtime::{Context, Node, TimerId};
use iabc_types::{
    AppMessage, Duration, Ewma, IdRanges, IdSet, MsgId, ProcessId, ProcessSet, Time,
};

/// Configuration of the consensus pipeline: window bounds, the adaptive
/// controller's thresholds, and the server-side proposal cap.
///
/// `w_min == w_max` is a *static* window — the controller is inert and the
/// node behaves exactly like the fixed-`W` pipeline (`W = 1` is Algorithm 1
/// verbatim, what every paper-figure bin measures). `w_min < w_max` arms
/// the AIMD controller (see [`WindowController`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PipelineConfig {
    /// Lower window bound (≥ 1). Also the controller's starting window.
    pub w_min: usize,
    /// Upper window bound (≥ `w_min`).
    pub w_max: usize,
    /// Decision latency (local propose → decision applied) above which the
    /// adaptive controller halves the window.
    pub latency_target: Duration,
    /// `unordered` backlog depth above which the adaptive controller
    /// halves the window even if latency still looks healthy.
    pub backlog_limit: usize,
    /// Maximum identifiers per proposal; the remainder *spills* to the
    /// next instance. `usize::MAX` = uncapped (the seed behaviour).
    pub max_proposal_ids: usize,
    /// When `true`, proposals exclude identifiers *younger than ~one flood
    /// delay* (measured: an EWMA of this node's own RB delivery latency).
    /// A proposal naming a just-arrived id overtakes that id's Data frames
    /// — consensus frames ride the fast path, payload floods the slow one,
    /// most extremely so with the priority lane on — and every acceptor
    /// still missing the payload burns the round with a nack. Gated ids
    /// simply wait in `unordered` until they mature; a re-propose timer
    /// guarantees they are picked up even if no other event arrives, so no
    /// id is ever excluded permanently.
    pub proposal_freshness: bool,
    /// When `true`, the node keeps a [`crate::decided::DecidedLog`] of
    /// fully a-delivered instances, piggybacks its decided frontier on
    /// every outgoing frame, and fetches ranges it is missing from peers
    /// whose frontier is ahead (`CatchUpRequest`/`CatchUpReply`). Off by
    /// default: the wire format and event sequences of a catch-up-off
    /// node are bit-identical to the pre-catch-up behaviour.
    pub catch_up: bool,
    /// When `true`, the node is a *learner* (read replica): it never
    /// a-broadcasts, never proposes, and drops all consensus traffic
    /// (no acks), converging on the decided sequence purely through the
    /// frontier piggyback and catch-up. It also sends no heartbeats, so
    /// heartbeat failure detectors suspect it and consensus rotates past
    /// any round that would have it coordinate. The stacks set it, with
    /// `catch_up`, for every process in `StackParams::learners`.
    pub learner: bool,
}

/// R-deliveries of *remote* messages a node must observe before its flood
/// delay estimate is trusted and the freshness gate arms (see
/// [`PipelineConfig::proposal_freshness`]). Until then the gate is inert —
/// a cold node must not defer proposals on a noisy first sample.
pub const FRESHNESS_WARMUP: u64 = 8;

/// Smoothing factor of the flood delay EWMA (weight of the newest
/// observation). Deliberately light: delivery latency under load swings
/// with queue depth, and a jumpy threshold would make the gate flap
/// between deferring everything and nothing.
pub const FRESHNESS_ALPHA: f64 = 0.1;

/// Safety factor on the flood delay estimate: an id is mature once it is
/// `FRESHNESS_FACTOR ×` the EWMA delivery latency old.
///
/// The EWMA is a *mean*, so at factor 1 roughly half of a flood's tail is
/// still in flight when the gate opens — measurably, proposals still nack
/// about as often as the tight-cap configuration. A small margin covers
/// most of that jitter (at the 4 000 payloads/s knee: ~10× fewer nacked
/// rounds for ~8% goodput). Large factors are *unstable* under
/// saturation: delivery latency includes bulk queueing, so deferring
/// aggressively deepens the very queues the estimate measures and the
/// threshold runs away — factor 1.5 already collapses the knee to ~15%
/// of the factor-1.1 goodput. Keep this close to 1.
pub const FRESHNESS_FACTOR: f64 = 1.1;

impl PipelineConfig {
    /// A static window of `w` instances (clamped to at least 1), uncapped
    /// proposals — today's `with_window` behaviour.
    pub fn fixed(w: usize) -> Self {
        let w = w.max(1);
        PipelineConfig {
            w_min: w,
            w_max: w,
            latency_target: Duration::from_millis(10),
            backlog_limit: 1024,
            max_proposal_ids: usize::MAX,
            proposal_freshness: false,
            catch_up: false,
            learner: false,
        }
    }

    /// An adaptive window in `[min, max]` (clamped to `1 ≤ min ≤ max`).
    pub fn adaptive(min: usize, max: usize) -> Self {
        let min = min.max(1);
        PipelineConfig { w_min: min, w_max: max.max(min), ..PipelineConfig::fixed(1) }
    }

    /// Whether the AIMD controller is armed.
    pub fn is_adaptive(&self) -> bool {
        self.w_min < self.w_max
    }
}

/// AIMD controller for the pipeline window `W`.
///
/// Fed one observation per *locally proposed* decision as it is applied:
/// the instance's decision latency (propose → apply, including any
/// in-order buffering — head-of-line blocking is precisely the congestion
/// signal) and the `unordered` backlog depth after the decision.
///
/// * **Additive increase**: after `W` consecutive healthy decisions while
///   the window was fully occupied and work was still waiting, grow by 1
///   (up to `w_max`). Requiring full occupancy keeps an idle system from
///   drifting to `w_max` with a stale window.
/// * **Multiplicative decrease**: a decision over the latency target, or a
///   backlog past the limit, halves the window (down to `w_min`). Only
///   instances proposed *after* the previous decrease can trigger another
///   one — decisions already in flight reflect the old window, and
///   punishing them again would collapse straight to `w_min` on every
///   congestion burst.
/// * **Spill pressure** (capped pipelines only): when the backlog exceeds
///   what a full window of capped proposals can even hold
///   (`backlog > W × max_proposal_ids`), the window grows on every
///   decision instead of halving — the cap already bounds the per-message
///   `rcv()` bookkeeping each instance can cost, so the right response to
///   a deep backlog is more concurrency, not less. Shrinking resumes once
///   the backlog fits the window again. Uncapped adaptive pipelines have
///   no spill pressure: for them a deep backlog means unbounded proposals
///   are already wedging the CPU, and the backlog limit halves the window
///   exactly as the static sweep's `W=16, B=1` collapse demands.
#[derive(Debug, Clone)]
pub struct WindowController {
    cfg: PipelineConfig,
    cur: usize,
    /// Consecutive healthy, window-limited decisions since the last change.
    good_streak: usize,
    /// Instances ≤ this watermark cannot trigger a decrease.
    decrease_watermark: u64,
    increases: u64,
    decreases: u64,
}

impl WindowController {
    /// Creates a controller starting at `cfg.w_min`.
    pub fn new(cfg: PipelineConfig) -> Self {
        WindowController {
            cfg,
            cur: cfg.w_min,
            good_streak: 0,
            decrease_watermark: 0,
            increases: 0,
            decreases: 0,
        }
    }

    /// The window the pipeline may currently fill.
    pub fn current(&self) -> usize {
        self.cur
    }

    /// `(w_min, w_max)`.
    pub fn bounds(&self) -> (usize, usize) {
        (self.cfg.w_min, self.cfg.w_max)
    }

    /// Whether this controller adapts at all.
    pub fn is_adaptive(&self) -> bool {
        self.cfg.is_adaptive()
    }

    /// `(additive increases, multiplicative decreases)` so far.
    pub fn adaptations(&self) -> (u64, u64) {
        (self.increases, self.decreases)
    }

    /// Whether a decision's latency crosses the latency target.
    fn latency_congested(&self, latency: Option<Duration>) -> bool {
        latency.is_some_and(|l| l > self.cfg.latency_target)
    }

    /// How many capped instances the backlog needs, clamped to the
    /// bounds; `w_min` for uncapped pipelines.
    fn window_needed(&self, backlog: usize) -> usize {
        if self.cfg.max_proposal_ids == usize::MAX {
            return self.cfg.w_min;
        }
        backlog.div_ceil(self.cfg.max_proposal_ids).clamp(self.cfg.w_min, self.cfg.w_max)
    }

    /// Fed by the proposer each time it fills the window while the
    /// backlog spills past it (capped pipelines only): widens the window
    /// toward what the backlog needs *now*, without waiting for a
    /// decision. Decisions are the controller's usual clock, but under
    /// overload they are exactly what becomes scarce — a controller that
    /// only adapts on decisions wedges at the old window.
    pub fn on_spill(&mut self, backlog: usize) {
        if !self.cfg.is_adaptive() || self.cfg.max_proposal_ids == usize::MAX {
            return;
        }
        if backlog > self.cur.saturating_mul(self.cfg.max_proposal_ids)
            && self.cur < self.cfg.w_max
        {
            self.cur = self.window_needed(backlog).max(self.cur + 1).min(self.cfg.w_max);
            self.good_streak = 0;
            self.increases += 1;
        }
    }

    /// Feeds the decision of instance `k`. `proposed_hi` is the highest
    /// locally proposed instance (the watermark for decrease damping),
    /// `latency` the propose→apply time when known, `backlog` the
    /// `unordered` depth after the decision, and `window_was_full` whether
    /// the pipeline was at capacity when the decision landed.
    pub fn on_decision(
        &mut self,
        k: u64,
        proposed_hi: u64,
        latency: Option<Duration>,
        backlog: usize,
        window_was_full: bool,
    ) {
        if !self.cfg.is_adaptive() {
            return;
        }
        // Spill pressure: the backlog does not even fit a full window of
        // capped proposals (uncapped pipelines never spill — a single
        // proposal holds any backlog).
        let spill_pressure = self.cfg.max_proposal_ids != usize::MAX
            && backlog > self.cur.saturating_mul(self.cfg.max_proposal_ids);
        let over_latency = self.latency_congested(latency);
        if (over_latency || backlog > self.cfg.backlog_limit) && !spill_pressure {
            if k > self.decrease_watermark {
                // Halve, but never below what the backlog still needs
                // (capped pipelines): dropping under that would just
                // re-trigger spill growth on the next proposal.
                self.cur = (self.cur / 2).max(self.window_needed(backlog)).max(self.cfg.w_min);
                self.decrease_watermark = proposed_hi;
                self.good_streak = 0;
                self.decreases += 1;
            }
            return;
        }
        if window_was_full && backlog > 0 && self.cur < self.cfg.w_max {
            self.good_streak += 1;
            if spill_pressure {
                // The backlog dictates the window: jump to the number of
                // capped instances the backlog actually needs (at least
                // one step).
                self.cur = self.window_needed(backlog).max(self.cur + 1).min(self.cfg.w_max);
                self.good_streak = 0;
                self.increases += 1;
            } else if self.good_streak >= self.cur {
                // Classic additive increase: +1 per window of healthy
                // decisions.
                self.cur += 1;
                self.good_streak = 0;
                self.increases += 1;
            }
        }
    }
}

use crate::decided::{DecidedEntry, DecidedLog, MemDecidedLog};
use crate::envelope::Envelope;
use crate::pending::{MemPendingStore, PendingStore};
use crate::store::{CostModel, NodeOracle, OrderingValue, ReceivedStore};
use crate::{AbcastCommand, AbcastEvent};

/// Timer-id kind reserved for the failure detector.
const TIMER_FD: u32 = 1;

/// Timer-id kind of the freshness gate's re-propose wake-up: armed when a
/// proposal slot was available but *every* candidate id was still too
/// young, so `maybe_propose` runs again once the earliest of them matures
/// — without this, a gated backlog with no further inbound traffic would
/// never be proposed (liveness).
const TIMER_PROPOSE: u32 = 2;

/// Timer-id kind of the catch-up retry: armed with each outstanding
/// [`Envelope::CatchUpRequest`]; if the reply never arrives (request or
/// reply lost, server crashed) the node re-requests from the then-best
/// peer. The timer's `data` carries the request epoch so a late reply
/// followed by a stale timer cannot double-request.
const TIMER_CATCHUP: u32 = 3;

/// How many decided consensus instances (at least) to keep as the cache
/// straggler repair and relay-on-suspicion are served from before garbage
/// collection (see [`InstanceManager::gc_decided_below`]). The node keeps
/// a full pipeline window when that is larger: a peer that missed the one
/// `Decide` of instance `k` can hold everybody else at most a window past
/// `k`, so whoever learned `k` still has it when its detector fires.
const KEEP_DECIDED_INSTANCES: u64 = 8;

/// Maximum decided entries per [`Envelope::CatchUpReply`] — the requester
/// asks for at most this many and the server clamps to it regardless, so
/// a deep gap streams as bounded batches instead of one giant frame.
const CATCH_UP_BATCH: u64 = 64;

/// Initial wait for a [`Envelope::CatchUpReply`] before re-requesting.
/// Each unanswered request doubles the wait (exponential backoff) up to
/// [`CATCH_UP_RETRY_MAX`]; a reply resets it. A fixed short retry would
/// hammer a partitioned or overloaded peer with requests it cannot answer.
const CATCH_UP_RETRY: Duration = Duration::from_millis(25);

/// Upper bound of the catch-up retry backoff.
const CATCH_UP_RETRY_MAX: Duration = Duration::from_millis(400);

/// One process of an atomic broadcast system: reliable (or uniform
/// reliable) broadcast below, a *pipelined window* of consensus instances
/// above, a failure detector on the side.
///
/// With `window == 1` this is exactly Algorithm 1: one consensus instance
/// at a time. With `window = W > 1` up to `W` instances run concurrently;
/// identifiers already proposed in an in-flight instance are excluded from
/// newer proposals, and decisions are applied strictly in instance order
/// (`k = 1, 2, …`), so the delivered total order is identical at every
/// process regardless of the order decisions *arrive* in.
///
/// Construct nodes through the [`crate::stacks`] functions, which pick the
/// broadcast module, the consensus algorithm, and the oracle mode for each
/// of the paper's four stack variants.
pub struct AbcastNode<V: OrderingValue, A: SingleConsensus<V>> {
    me: ProcessId,
    bcast: Box<dyn Broadcast + Send>,
    fd: Box<dyn FailureDetector + Send>,
    mgr: InstanceManager<V, A>,
    /// `received_p`, minus the payloads already a-delivered.
    store: ReceivedStore,
    /// `unordered_p`.
    unordered: IdSet,
    /// `ordered_p`: ordered, not yet delivered.
    ordered: VecDeque<MsgId>,
    /// Every identifier ever ordered, as per-sender ranges (line 13's
    /// membership test must cover already-delivered ids too).
    ordered_ever: IdRanges,
    /// Current failure-detector output.
    suspected: ProcessSet,
    /// Whether the oracle really checks the store (`false` = faulty/direct).
    check_store: bool,
    cost: CostModel,
    /// Pipeline window `W`: the controller caps how many instances may be
    /// proposed but not yet applied. Static configs reproduce the fixed-`W`
    /// pipeline (`W = 1` is Algorithm 1 verbatim).
    controller: WindowController,
    /// Maximum identifiers per proposal; the rest spills to the next
    /// instance (`usize::MAX` = uncapped).
    max_proposal_ids: usize,
    /// Proposals whose candidate set exceeded `max_proposal_ids`.
    cap_hits: u64,
    /// Serial number of the latest instance proposed locally (line 6).
    proposed_hi: u64,
    /// The next instance whose decision may be applied; decisions for
    /// higher instances are buffered, lower ones dropped as stale.
    next_apply: u64,
    /// Ids proposed per in-flight instance (proposed, decision not yet
    /// applied) — excluded from newer proposals.
    in_flight: BTreeMap<u64, IdSet>,
    /// Decisions that arrived ahead of `next_apply`, held until their turn.
    decision_buffer: BTreeMap<u64, V>,
    /// Old or duplicate decisions dropped by the routing (diagnostics).
    stale_decisions: u64,
    /// Sequence number for this process's own broadcasts.
    next_seq: u64,
    delivered_count: u64,
    /// Sum of observed decision latencies (locally proposed instances,
    /// propose → apply), for the experiment harness's mean.
    decision_latency_total: Duration,
    /// Number of latencies in `decision_latency_total`.
    decision_latency_count: u64,
    /// Whether the freshness gate is enabled (see
    /// [`PipelineConfig::proposal_freshness`]).
    proposal_freshness: bool,
    /// EWMA of observed RB delivery latency (broadcast → local R-deliver)
    /// over *remote* messages, in seconds — the node's flood delay
    /// estimate. Local deliveries are instant and would drag it to zero.
    flood_delay: Ewma,
    /// Latest broadcast instant among all R-delivered messages: once even
    /// this one is past the maturity threshold, every candidate id is
    /// mature and the gate's per-id scan can be skipped wholesale — the
    /// steady-state common case under a deep (hence old) backlog.
    newest_broadcast_at: Time,
    /// Identifiers excluded from proposals by the freshness gate so far
    /// (cumulative over proposals; a slow-maturing id counts once per
    /// proposal it sat out).
    freshness_held: u64,
    /// Whether a [`TIMER_PROPOSE`] wake-up is already in flight.
    propose_timer_armed: bool,
    /// Consensus refusal *messages* this node sent (CT nacks / MR ⊥
    /// echoes, suspicion-triggered ones included) — a per-acceptor proxy
    /// for rounds burned on unflooded proposals: one burned round shows
    /// up as up to `n - 1` refusals across the system, so compare the
    /// counter between configurations, not against a round count.
    nacks_sent: u64,
    /// The decided log (`Some` iff `catch_up` is configured): every fully
    /// a-delivered instance is appended here, in instance order; its
    /// frontier is what the node piggybacks and serves to peers. Defaults
    /// to a [`MemDecidedLog`]; [`AbcastNode::set_decided_log`] swaps in a
    /// durable one before start.
    log: Option<Box<dyn DecidedLog<V>>>,
    /// Learner (read replica) mode — see [`PipelineConfig::learner`].
    learner: bool,
    /// Applied-but-not-fully-delivered instances, oldest first: each
    /// tracks how many of its (newly) ordered ids still await delivery
    /// and collects their payloads, so the log entry appended on
    /// completion is self-contained. Deliveries drain `ordered` strictly
    /// in instance order, so completion is always front-first.
    pending_log: VecDeque<PendingLogEntry<V>>,
    /// Highest decided frontier observed per peer (from the
    /// [`Envelope::WithFrontier`] piggyback).
    peer_frontiers: BTreeMap<ProcessId, u64>,
    /// Whether a catch-up request is outstanding (one at a time: batches
    /// apply in order, and a second overlapping range would be wasted) —
    /// or, for a lead inside the window, the wait that stands in for one.
    catch_up_inflight: bool,
    /// The first missing instance at which a lead inside the window was
    /// last given one [`CATCH_UP_RETRY`] to close by itself (see
    /// [`AbcastNode::maybe_catch_up`]). Never cleared: the frontier only
    /// grows, so a stale value cannot match a later lead.
    catch_up_waited_at: Option<u64>,
    /// Monotonic request counter; the retry timer carries the epoch it
    /// was armed for, so only the timer of the *current* request may
    /// re-request.
    catch_up_epoch: u64,
    /// Catch-up requests sent (recovery metric).
    catch_up_requests: u64,
    /// Decided entries learned through catch-up replies, i.e. entries
    /// that were ahead of `next_apply` when they arrived (recovery
    /// metric).
    caught_up_entries: u64,
    /// Current catch-up retry delay: doubles per unanswered request up to
    /// [`CATCH_UP_RETRY_MAX`], resets to [`CATCH_UP_RETRY`] on a reply.
    catch_up_retry: Duration,
    /// Accepted-but-undecided broadcasts (`Some` iff `catch_up` is
    /// configured on a non-learner): recorded at `on_command`, cleared
    /// when the instance that orders them reaches the decided log,
    /// re-flooded on restart and after catch-up episodes. Defaults to a
    /// [`MemPendingStore`]; [`AbcastNode::set_pending_store`] swaps in a
    /// durable sidecar before start.
    pending: Option<Box<dyn PendingStore>>,
    /// Pending broadcasts re-flooded so far (repair metric).
    pending_refloods: u64,
}

/// Bookkeeping for one applied instance whose deliveries are still
/// draining (see [`AbcastNode::pending_log`]).
struct PendingLogEntry<V> {
    k: u64,
    value: V,
    /// Ids this instance newly ordered that have not been a-delivered yet.
    remaining: usize,
    /// Payloads of the delivered ids, in delivery order.
    payloads: Vec<AppMessage>,
}

impl<V: OrderingValue, A: SingleConsensus<V>> fmt::Debug for AbcastNode<V, A> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("AbcastNode")
            .field("me", &self.me)
            .field("proposed_hi", &self.proposed_hi)
            .field("next_apply", &self.next_apply)
            .field("window", &self.controller.current())
            .field("in_flight", &self.in_flight.len())
            .field("unordered", &self.unordered.len())
            .field("ordered_pending", &self.ordered.len())
            .field("delivered", &self.delivered_count)
            .finish()
    }
}

type Ctx<V> = Context<Envelope<V>, AbcastEvent>;

impl<V: OrderingValue, A: SingleConsensus<V>> AbcastNode<V, A> {
    /// Assembles a node from its modules. `algo_factory` builds the state
    /// machine of each consensus instance; `check_store` selects whether
    /// the `rcv` oracle really consults the received-message store;
    /// `pipeline` configures the window controller and the proposal cap.
    pub fn new(
        me: ProcessId,
        bcast: Box<dyn Broadcast + Send>,
        fd: Box<dyn FailureDetector + Send>,
        algo_factory: impl FnMut(u64) -> A + Send + 'static,
        check_store: bool,
        cost: CostModel,
        pipeline: PipelineConfig,
    ) -> Self {
        AbcastNode {
            me,
            bcast,
            fd,
            mgr: InstanceManager::new(algo_factory),
            store: ReceivedStore::new(),
            unordered: IdSet::new(),
            ordered: VecDeque::new(),
            ordered_ever: IdRanges::new(),
            suspected: ProcessSet::new(),
            check_store,
            cost,
            controller: WindowController::new(pipeline),
            max_proposal_ids: pipeline.max_proposal_ids.max(1),
            cap_hits: 0,
            proposed_hi: 0,
            next_apply: 1,
            in_flight: BTreeMap::new(),
            decision_buffer: BTreeMap::new(),
            stale_decisions: 0,
            next_seq: 0,
            delivered_count: 0,
            decision_latency_total: Duration::ZERO,
            decision_latency_count: 0,
            proposal_freshness: pipeline.proposal_freshness,
            flood_delay: Ewma::new(FRESHNESS_ALPHA),
            newest_broadcast_at: Time::ZERO,
            freshness_held: 0,
            propose_timer_armed: false,
            nacks_sent: 0,
            log: (pipeline.catch_up || pipeline.learner)
                .then(|| Box::new(MemDecidedLog::new()) as Box<dyn DecidedLog<V>>),
            learner: pipeline.learner,
            pending_log: VecDeque::new(),
            peer_frontiers: BTreeMap::new(),
            catch_up_inflight: false,
            catch_up_waited_at: None,
            catch_up_epoch: 0,
            catch_up_requests: 0,
            caught_up_entries: 0,
            catch_up_retry: CATCH_UP_RETRY,
            pending: (pipeline.catch_up && !pipeline.learner)
                .then(|| Box::new(MemPendingStore::new()) as Box<dyn PendingStore>),
            pending_refloods: 0,
        }
    }

    /// Replaces the decided log — typically with a
    /// [`crate::decided::DurableDecidedLog`] so the node survives a
    /// restart. Call before the node starts: `on_start` reloads the log
    /// and resumes from its frontier (rebuilding `ordered_ever` and the
    /// apply cursor), and a log swapped in later would miss the entries
    /// already appended to the old one. No-op unless `catch_up` (or
    /// `learner`) was configured.
    pub fn set_decided_log(&mut self, log: Box<dyn DecidedLog<V>>) {
        if self.log.is_some() {
            self.log = Some(log);
        }
    }

    /// Replaces the pending-broadcast store — typically with a
    /// [`crate::pending::DurablePendingStore`] sidecar next to the durable
    /// decided log, so accepted-but-undecided broadcasts survive a
    /// restart and are re-flooded. Call before the node starts, like
    /// [`AbcastNode::set_decided_log`]. No-op unless `catch_up` was
    /// configured on a non-learner.
    pub fn set_pending_store(&mut self, store: Box<dyn PendingStore>) {
        if self.pending.is_some() {
            self.pending = Some(store);
        }
    }

    /// Messages a-delivered so far.
    pub fn delivered_count(&self) -> u64 {
        self.delivered_count
    }

    /// Identifiers ordered but not yet deliverable (payload still missing).
    pub fn ordered_pending(&self) -> usize {
        self.ordered.len()
    }

    /// Identifiers received but not yet ordered.
    pub fn unordered_len(&self) -> usize {
        self.unordered.len()
    }

    /// Serial number of the latest consensus instance proposed locally.
    pub fn instance(&self) -> u64 {
        self.proposed_hi
    }

    /// Pipeline window `W` the node may currently fill (fixed for static
    /// configs; moves within `[w_min, w_max]` for adaptive ones).
    pub fn window(&self) -> usize {
        self.controller.current()
    }

    /// `(w_min, w_max)` of the window controller.
    pub fn window_bounds(&self) -> (usize, usize) {
        self.controller.bounds()
    }

    /// Whether this node runs the adaptive window controller.
    pub fn is_adaptive_window(&self) -> bool {
        self.controller.is_adaptive()
    }

    /// `(additive increases, multiplicative decreases)` performed by the
    /// window controller so far.
    pub fn window_adaptations(&self) -> (u64, u64) {
        self.controller.adaptations()
    }

    /// Proposals truncated by the `max_proposal_ids` cap so far.
    pub fn proposal_cap_hits(&self) -> u64 {
        self.cap_hits
    }

    /// Identifiers the freshness gate excluded from proposals so far.
    pub fn freshness_held(&self) -> u64 {
        self.freshness_held
    }

    /// Consensus refusal messages (CT nacks, MR ⊥ echoes) this node sent
    /// so far — see the field docs for how this relates to burned rounds.
    pub fn nacks_sent(&self) -> u64 {
        self.nacks_sent
    }

    /// The node's current flood delay estimate: the EWMA of its RB
    /// delivery latency over remote messages. `None` until
    /// [`FRESHNESS_WARMUP`] remote deliveries were observed (the gate is
    /// inert until then — and always when `proposal_freshness` is off).
    /// The gate's maturity threshold is [`FRESHNESS_FACTOR`] × this.
    pub fn flood_delay_estimate(&self) -> Option<Duration> {
        self.flood_delay
            .warmed(FRESHNESS_WARMUP)
            .then(|| Duration::from_secs_f64(self.flood_delay.value()))
    }

    /// Identifiers received but not yet a-delivered (unordered backlog
    /// plus ordered ids awaiting their payload) — the ingestion pressure
    /// signal adaptive batch coalescers key off.
    pub fn ingest_backlog(&self) -> usize {
        self.unordered.len() + self.ordered.len()
    }

    /// `(sum, count)` of observed decision latencies (locally proposed
    /// instances, propose → apply) — the harness's decision-latency metric.
    pub fn decision_latency_stats(&self) -> (Duration, u64) {
        (self.decision_latency_total, self.decision_latency_count)
    }

    /// Instances proposed locally whose decision has not been applied yet.
    pub fn in_flight(&self) -> usize {
        self.in_flight.len()
    }

    /// Decisions received ahead of order, waiting for a lower instance.
    pub fn buffered_decisions(&self) -> usize {
        self.decision_buffer.len()
    }

    /// Old or duplicate decisions dropped by the routing so far.
    pub fn stale_decisions(&self) -> u64 {
        self.stale_decisions
    }

    /// The received-message store (for tests and probes).
    pub fn store(&self) -> &ReceivedStore {
        &self.store
    }

    /// Ranges held by the node's two ever-seen identifier sets (ordered
    /// ever, a-delivered): their whole footprint, at most one per sender
    /// and set once every gap has closed — whatever the length of the run.
    pub fn id_set_ranges(&self) -> usize {
        self.ordered_ever.range_count() + self.store.delivered_ranges()
    }

    /// Consensus instance slots currently retained (live + GC cache).
    pub fn consensus_slots(&self) -> usize {
        self.mgr.slot_count()
    }

    /// The decided frontier: the highest instance fully a-delivered *and*
    /// logged (0 with catch-up off or before the first instance
    /// completes). This is what the node piggybacks and can serve.
    pub fn decided_frontier(&self) -> u64 {
        self.log.as_ref().map_or(0, |log| log.frontier())
    }

    /// Catch-up requests this node sent so far.
    pub fn catch_up_requests(&self) -> u64 {
        self.catch_up_requests
    }

    /// Decided entries this node learned through catch-up replies (only
    /// entries that were ahead of its apply cursor when they arrived).
    pub fn caught_up_entries(&self) -> u64 {
        self.caught_up_entries
    }

    /// Whether this node is a learner (read replica).
    pub fn is_learner(&self) -> bool {
        self.learner
    }

    /// Accepted broadcasts whose instance has not reached the decided log
    /// yet (0 when pending tracking is off).
    pub fn pending_broadcasts(&self) -> usize {
        self.pending.as_ref().map_or(0, |p| p.entries().len())
    }

    /// Pending broadcasts re-flooded so far (restart and post-catch-up
    /// repair; see [`crate::pending`]).
    pub fn pending_refloods(&self) -> u64 {
        self.pending_refloods
    }

    /// Wraps an outgoing frame with the decided frontier when catch-up is
    /// on. Piggybacking on *every* frame (RB data, consensus, heartbeats,
    /// catch-up itself) means frontier propagation needs no schedule of
    /// its own and works even in stacks with the failure detector off.
    /// With catch-up off this is the identity — the wire format is then
    /// byte-for-byte the pre-catch-up one.
    fn wrap(&self, env: Envelope<V>) -> Envelope<V> {
        match self.log.as_ref() {
            Some(log) => Envelope::WithFrontier { frontier: log.frontier(), inner: Box::new(env) },
            None => env,
        }
    }

    fn send_bcast(&self, dest: BcastDest, msg: iabc_broadcast::BcastMsg, ctx: &mut Ctx<V>) {
        match dest {
            BcastDest::To(q) => ctx.send(q, self.wrap(Envelope::Bcast(msg))),
            BcastDest::Others => ctx.send_to_others(self.wrap(Envelope::Bcast(msg))),
        }
    }

    fn apply_bcast_out(&mut self, out: BcastOut, ctx: &mut Ctx<V>) {
        for (dest, msg) in out.sends {
            self.send_bcast(dest, msg, ctx);
        }
        for m in out.deliveries {
            self.rdeliver(m, ctx);
        }
    }

    fn apply_fd_out(&mut self, out: FdOut, ctx: &mut Ctx<V>) {
        for (dest, msg) in out.sends {
            match dest {
                FdDest::To(q) => ctx.send(q, self.wrap(Envelope::Fd(msg))),
                FdDest::Others => ctx.send_to_others(self.wrap(Envelope::Fd(msg))),
            }
        }
        for (delay, data) in out.timers {
            ctx.set_timer(delay, TimerId::new(TIMER_FD, data));
        }
        for change in out.changes {
            match change {
                FdEvent::Suspect(p) => {
                    self.suspected.insert(p);
                    // The broadcast layer may need to relay the suspect's
                    // messages (lazy reliable broadcast)...
                    let mut bout = BcastOut::new();
                    self.bcast.on_suspect(p, &mut bout);
                    self.apply_bcast_out(bout, ctx);
                    // ...and waiting consensus instances may need to nack.
                    let mut mout = MgrOut::new();
                    {
                        let oracle = NodeOracle {
                            store: &self.store,
                            check_store: self.check_store,
                            cost_per_id: self.cost.rcv_check_per_id,
                        };
                        self.mgr.on_suspect(p, &oracle, self.suspected, &mut mout);
                    }
                    self.apply_mgr_out(mout, ctx);
                }
                FdEvent::Trust(p) => {
                    self.suspected.remove(p);
                }
            }
        }
    }

    fn apply_mgr_out(&mut self, out: MgrOut<V>, ctx: &mut Ctx<V>) {
        ctx.work(out.work);
        for (k, dest, msg) in out.sends {
            if msg.is_refusal() {
                self.nacks_sent += 1;
            }
            let env = self.wrap(Envelope::Cons { k, msg });
            match dest {
                ConsDest::To(q) => ctx.send(q, env),
                ConsDest::All => ctx.send_to_all(env),
                ConsDest::Others => ctx.send_to_others(env),
            }
        }
        for (k, v) in out.decisions {
            self.handle_decision(k, v, ctx);
        }
    }

    /// The window controller's backlog signal: unordered ids *minus* ids
    /// already sitting in buffered (decided, not yet applied) decisions —
    /// those are ordered work awaiting the in-order apply, not demand for
    /// window slots, and counting them would inflate spill pressure
    /// exactly during the out-of-order decision bursts the controller is
    /// meant to ride out. Ids double-decided by an applied instance make
    /// the subtraction conservative (never an overestimate).
    fn backlog_signal(&self) -> usize {
        let buffered: usize = self.decision_buffer.values().map(V::id_count).sum();
        self.unordered.len().saturating_sub(buffered)
    }

    /// Algorithm 1 lines 11–14: R-deliver.
    fn rdeliver(&mut self, m: AppMessage, ctx: &mut Ctx<V>) {
        let id = m.id();
        let broadcast_at = m.broadcast_at();
        if !self.store.insert(m) {
            return; // duplicate copies are possible across layers
        }
        if id.sender() != self.me {
            // First copy of a remote message: its broadcast → R-deliver
            // time is one observation of the flood delay (queueing
            // included — under load that is the dominant term, and exactly
            // what the freshness gate must wait out).
            self.flood_delay.observe(ctx.now().elapsed_since(broadcast_at).as_secs_f64());
        }
        self.newest_broadcast_at = self.newest_broadcast_at.max(broadcast_at);
        if !self.ordered_ever.contains(id) {
            self.unordered.insert(id);
        }
        self.maybe_propose(ctx);
        // The payload for the head of `ordered_p` may just have arrived.
        self.try_deliver(ctx);
    }

    /// Algorithm 1 lines 15–18, generalized to a pipeline: keep proposing
    /// consecutive instances while the window has room and there are
    /// unordered identifiers not already claimed by an in-flight proposal.
    ///
    /// Proposals are capped at `max_proposal_ids` identifiers; the
    /// remainder stays in `unordered` and *spills* into the next instance
    /// (this loop, or a later window slot). The cap bounds the per-message
    /// `rcv()` cost at saturation — uncapped, a wedged CPU grows proposals
    /// without limit and every consensus message gets costlier to check,
    /// the death spiral the static sweep shows at `W=1, B=1`.
    fn maybe_propose(&mut self, ctx: &mut Ctx<V>) {
        if self.learner {
            return; // learners never propose; they only consume decisions
        }
        loop {
            if self.in_flight.len() >= self.controller.current() {
                // A full window with a spilling backlog is the signal to
                // widen it (see [`WindowController::on_spill`]); if the
                // controller grows, keep proposing into the new slots.
                self.controller.on_spill(self.backlog_signal());
                if self.in_flight.len() >= self.controller.current() {
                    return;
                }
            }
            // Ids already riding an in-flight instance are spoken for, and
            // ids in a buffered (decided, not yet applied) decision are
            // already ordered; proposing either again would spend a whole
            // consensus round on ids the apply-time dedupe will skip.
            let mut candidate = self.unordered.clone();
            for claimed in self.in_flight.values() {
                candidate.subtract(claimed);
            }
            for decided in self.decision_buffer.values() {
                candidate.subtract(&decided.ids());
            }
            if candidate.is_empty() {
                return;
            }
            // Freshness gate: an id younger than ~one flood delay is still
            // mid-flood — a proposal naming it overtakes its own Data
            // frames and the round burns on nacks from acceptors missing
            // the payload. Keep such ids in `unordered` until they mature.
            // Skip the per-id scan when even the newest message ever
            // R-delivered is already mature — under a deep backlog the
            // candidates are old, and this makes the gate O(1) in steady
            // state.
            if let Some(threshold) = self
                .freshness_threshold()
                .filter(|&t| self.newest_broadcast_at + t > ctx.now())
            {
                let now = ctx.now();
                let mut earliest_fresh: Option<Time> = None;
                let mut mature: Vec<MsgId> = Vec::with_capacity(candidate.len());
                for id in candidate.iter() {
                    // Ids in `unordered` always have their message in the
                    // store (rdeliver inserts there first); treat a missing
                    // entry as mature rather than stranding the id.
                    let Some(m) = self.store.get(id) else {
                        mature.push(id);
                        continue;
                    };
                    let ready_at = m.broadcast_at() + threshold;
                    if ready_at <= now {
                        mature.push(id);
                    } else {
                        earliest_fresh =
                            Some(earliest_fresh.map_or(ready_at, |t| t.min(ready_at)));
                    }
                }
                if mature.is_empty() {
                    // Every candidate is mid-flood: do not burn a round —
                    // wake up when the earliest one matures (nothing else
                    // is guaranteed to re-trigger proposing).
                    //
                    // Liveness audit of the one-shot wake-up: `on_timer`
                    // clears `propose_timer_armed` *before* re-running this
                    // function, so when the flood-delay estimate grew since
                    // arming and the candidates are *still* all-fresh at
                    // fire time, this branch re-arms for the new, later
                    // maturity instant — the gate never strands an
                    // ungated-but-unproposed backlog waiting for unrelated
                    // traffic. (The only no-re-arm exit above is a full
                    // window, and a full window guarantees a future
                    // `apply_decision` → `maybe_propose` re-evaluation.)
                    // Covered by `freshness_gate_rearms_when_estimate_grew`.
                    if let Some(at) = earliest_fresh {
                        self.arm_propose_timer(at, ctx);
                    }
                    return;
                }
                let held = candidate.len() - mature.len();
                if held > 0 {
                    self.freshness_held += held as u64;
                    candidate = IdSet::from_ids(mature);
                }
            }
            if candidate.len() > self.max_proposal_ids {
                // Take the *oldest* ids first, round-robin across senders
                // (order by (seq, sender), not the set's (sender, seq)
                // order): old ids have had time to flood, so acceptors
                // hold them and `rcv` passes in one round, and no sender
                // is starved by the cap. Deterministic, so every process
                // slices a shared backlog the same way. Partition-select
                // rather than sort: the backlog can be enormous exactly
                // when the cap matters.
                let mut oldest: Vec<MsgId> = candidate.iter().collect();
                let cap = self.max_proposal_ids;
                oldest.select_nth_unstable_by_key(cap - 1, |id| (id.seq(), id.sender()));
                oldest.truncate(cap);
                candidate = IdSet::from_ids(oldest);
                self.cap_hits += 1;
            }
            self.proposed_hi += 1;
            let k = self.proposed_hi;
            let proposal = V::from_unordered(&candidate, &self.store);
            ctx.work(self.cost.propose_per_id * proposal.id_count() as u64);
            self.in_flight.insert(k, proposal.ids());
            let mut mout = MgrOut::new();
            {
                let oracle = NodeOracle {
                    store: &self.store,
                    check_store: self.check_store,
                    cost_per_id: self.cost.rcv_check_per_id,
                };
                self.mgr.propose(k, proposal, &oracle, self.suspected, &mut mout);
            }
            self.mgr.note_proposed(k, ctx.now());
            // May recurse into handle_decision (an instance can decide
            // immediately); the loop re-reads window occupancy afterwards.
            self.apply_mgr_out(mout, ctx);
        }
    }

    /// The age below which a candidate id counts as still mid-flood:
    /// [`FRESHNESS_FACTOR`] × the node's measured flood delay. `None`
    /// while the gate is disabled or the estimate has not warmed up — no
    /// exclusions then.
    fn freshness_threshold(&self) -> Option<Duration> {
        if !self.proposal_freshness {
            return None;
        }
        (self.flood_delay.warmed(FRESHNESS_WARMUP))
            .then(|| Duration::from_secs_f64(FRESHNESS_FACTOR * self.flood_delay.value()))
    }

    /// Arms the freshness gate's re-propose wake-up for time `at`. At most
    /// one is in flight — a pending wake-up re-evaluates every candidate,
    /// so a second timer would be redundant, and letting the earlier one
    /// fire first only delays a gated id by less than one flood delay.
    fn arm_propose_timer(&mut self, at: Time, ctx: &mut Ctx<V>) {
        if self.propose_timer_armed {
            return;
        }
        self.propose_timer_armed = true;
        let delay = at.elapsed_since(ctx.now()).max(Duration::from_micros(1));
        ctx.set_timer(delay, TimerId::new(TIMER_PROPOSE, 0));
    }

    /// Routes a decision for instance `k`: stale or duplicate decisions are
    /// dropped, future ones buffered, and the buffer is drained strictly in
    /// instance order.
    ///
    /// This replaces the seed's `debug_assert_eq!(k, self.k)` — which
    /// compiled away in release builds and let a mismatched instance number
    /// silently corrupt the ordering state — with real routing.
    fn handle_decision(&mut self, k: u64, v: V, ctx: &mut Ctx<V>) {
        if k < self.next_apply || self.decision_buffer.contains_key(&k) {
            self.stale_decisions += 1;
            return;
        }
        self.decision_buffer.insert(k, v);
        loop {
            let next = self.next_apply;
            let Some(v) = self.decision_buffer.remove(&next) else { break };
            self.next_apply += 1;
            self.apply_decision(next, v, ctx);
        }
    }

    /// Algorithm 1 lines 18–21: applies the decision of instance `k`
    /// (callers guarantee `k` is exactly the next instance in order).
    fn apply_decision(&mut self, k: u64, v: V, ctx: &mut Ctx<V>) {
        let window_was_full = self.in_flight.len() >= self.controller.current();
        self.in_flight.remove(&k);
        // Full-message values teach us payloads we may not have R-delivered
        // yet (and in the classic reduction, this is the only way a slow
        // process learns them in time).
        v.store_payloads(&mut self.store);
        let ids = v.ids();
        ctx.work(self.cost.order_per_id * ids.len() as u64);
        self.unordered.subtract(&ids);
        let mut newly_ordered = 0usize;
        for id in ids.iter() {
            if self.ordered_ever.insert(id) {
                self.ordered.push_back(id);
                newly_ordered += 1;
            }
            // else: with W > 1, an id decided by instance k may also sit in
            // a concurrent proposal that a later instance decides — every
            // process applies decisions in the same order and skips the
            // duplicate here, so the total order stays identical.
        }
        if self.log.is_some() {
            // A decision may reach us through catch-up for an instance we
            // never proposed (laggard or restarted node): proposing below
            // an applied instance would permanently leak that in-flight
            // slot, so keep the propose cursor at or above the apply
            // cursor. Catch-up-off nodes never apply unproposed-by-anyone
            // instances out from under their own cursor, so gating this on
            // the log keeps their event sequences bit-identical.
            self.proposed_hi = self.proposed_hi.max(k);
            // Log the instance once its deliveries finish (remaining = 0
            // completes immediately for an all-duplicates decision).
            self.pending_log.push_back(PendingLogEntry {
                k,
                value: v,
                remaining: newly_ordered,
                payloads: Vec::with_capacity(newly_ordered),
            });
        }
        self.try_deliver(ctx);
        // Feed the window controller before proposing again, so the next
        // round of proposals sees the adapted window.
        let latency = self.mgr.decision_latency(k, ctx.now());
        if let Some(l) = latency {
            self.decision_latency_total += l;
            self.decision_latency_count += 1;
        }
        let backlog = self.backlog_signal();
        self.controller.on_decision(k, self.proposed_hi, latency, backlog, window_was_full);
        // Bound the manager's footprint: old decided instances only serve
        // stragglers and relays on suspicion.
        let keep = KEEP_DECIDED_INSTANCES.max(self.controller.bounds().1 as u64);
        self.mgr.gc_decided_below(self.next_apply, keep);
        self.maybe_propose(ctx);
    }

    /// Algorithm 1 lines 22–25: deliver ordered messages whose payload is
    /// present, in order.
    fn try_deliver(&mut self, ctx: &mut Ctx<V>) {
        while let Some(&head) = self.ordered.front() {
            let Some(msg) = self.store.take(head) else { break };
            self.ordered.pop_front();
            self.delivered_count += 1;
            if self.log.is_some() {
                // Deliveries drain in instance order, so this delivery
                // belongs to the oldest applied instance that still has
                // ids outstanding (entries at zero are merely waiting for
                // their turn to be appended contiguously).
                if let Some(p) = self.pending_log.iter_mut().find(|p| p.remaining > 0) {
                    p.remaining -= 1;
                    p.payloads.push(msg.clone());
                }
            }
            ctx.output(AbcastEvent::Delivered { msg });
        }
        self.drain_completed_log();
    }

    /// Appends every fully delivered instance at the front of
    /// `pending_log` to the decided log, preserving contiguity.
    fn drain_completed_log(&mut self) {
        let Some(log) = self.log.as_mut() else { return };
        while self.pending_log.front().is_some_and(|p| p.remaining == 0) {
            let Some(p) = self.pending_log.pop_front() else { break };
            // Own broadcasts ordered by this instance are now self-contained
            // in the log entry: drop them from the pending set. Clearing
            // only here (not at decision time) keeps the window closed — a
            // crash between decision and append still re-floods.
            if let Some(pending) = self.pending.as_mut() {
                for id in p.value.ids().iter() {
                    if id.sender() == self.me {
                        pending.settle(id);
                    }
                }
            }
            log.append(DecidedEntry { k: p.k, value: p.value, payloads: p.payloads });
        }
    }

    /// Restart path: rebuilds ordering state from a reloaded decided log.
    ///
    /// The logged prefix was a-delivered before the crash (entries are only
    /// appended once every id in the instance has been delivered), so it is
    /// **not** re-delivered: the apply cursor jumps past the frontier and
    /// the logged ids enter `ordered_ever` so later decisions and RB
    /// arrivals treat them as already ordered — and the store's delivered
    /// set, so an old copy re-flooded at the fresh RB layer of this
    /// incarnation is refused instead of held for ever. `next_seq` resumes
    /// past the highest own-sender sequence in the log so reused ids are
    /// impossible.
    fn recover_from_log(&mut self) {
        let Some(log) = self.log.as_mut() else { return };
        log.reload();
        let frontier = log.frontier();
        if frontier == 0 {
            return;
        }
        for e in log.range(1, frontier) {
            for id in e.value.ids().iter() {
                self.ordered_ever.insert(id);
                self.store.mark_delivered(id);
                if id.sender() == self.me {
                    self.next_seq = self.next_seq.max(id.seq().saturating_add(1));
                }
            }
        }
        self.next_apply = frontier.saturating_add(1);
        self.proposed_hi = self.proposed_hi.max(frontier);
    }

    /// Restart path, part two (after [`AbcastNode::recover_from_log`]):
    /// reloads the pending set, resumes `next_seq` past every pending id
    /// (the pending journal can be ahead of the decided log), clears
    /// entries whose instance already made it into the reloaded log, and
    /// re-floods the rest. The old incarnation's RB state died with it, so
    /// `broadcast` floods afresh; receivers dedupe by id, making the
    /// re-flood idempotent.
    fn recover_pending(&mut self, ctx: &mut Ctx<V>) {
        let entries = {
            let Some(pending) = self.pending.as_mut() else { return };
            pending.reload();
            pending.entries().to_vec()
        };
        if entries.is_empty() {
            return;
        }
        for m in &entries {
            let id = m.id();
            if id.sender() == self.me {
                self.next_seq = self.next_seq.max(id.seq().saturating_add(1));
            }
        }
        let (logged, live): (Vec<AppMessage>, Vec<AppMessage>) = entries
            .into_iter()
            .partition(|m| self.ordered_ever.contains(m.id()));
        if let Some(pending) = self.pending.as_mut() {
            // The previous incarnation crashed between appending the
            // instance and clearing its pending entries: finish the job.
            for m in logged {
                pending.settle(m.id());
            }
        }
        for m in live {
            self.pending_refloods += 1;
            let mut bout = BcastOut::new();
            self.bcast.broadcast(m, &mut bout);
            self.apply_bcast_out(bout, ctx);
        }
    }

    /// Re-floods every pending broadcast not yet ordered, as direct RB
    /// relay frames (the live RB layer has already seen these ids, so
    /// `broadcast` would no-op). Called when a catch-up episode settles:
    /// a node that just healed from a partition repairs any payload its
    /// peers shed while it was unreachable. Receivers dedupe by id.
    fn reflood_pending(&mut self, ctx: &mut Ctx<V>) {
        let msgs: Vec<AppMessage> = match self.pending.as_ref() {
            Some(p) => p
                .entries()
                .iter()
                .filter(|m| !self.ordered_ever.contains(m.id()))
                .cloned()
                .collect(),
            None => return,
        };
        for m in msgs {
            self.pending_refloods += 1;
            let relay = self.wrap(Envelope::Bcast(iabc_broadcast::BcastMsg::Relay(m)));
            ctx.send_to_others(relay);
        }
    }

    /// Records a peer's piggybacked frontier and starts catching up if it
    /// proves the peer holds instances we have not applied.
    fn note_peer_frontier(&mut self, from: ProcessId, frontier: u64, ctx: &mut Ctx<V>) {
        if self.log.is_none() {
            return; // catch-up off: tolerate the wrapper, ignore the hint
        }
        let known = self.peer_frontiers.entry(from).or_insert(0);
        *known = (*known).max(frontier);
        self.maybe_catch_up(ctx);
    }

    /// Issues a catch-up request when some peer has a-delivered instances
    /// we have not — its frontier against ours, like with like — and no
    /// request is outstanding. An instance we have applied but cannot
    /// deliver (its decision reached us, a payload did not) counts as
    /// missing: the reply's entry carries the payloads. Deterministic peer
    /// choice: the highest advertised frontier, ties to the smallest
    /// process id.
    ///
    /// A peer that is ahead by no more than our window proves nothing: a
    /// decision is announced once, by its decider, so a third process that
    /// already delivered it routinely shows a frontier covering instances
    /// whose `Decide` (or payload) is still on its way to us. Such a lead
    /// gets one [`CATCH_UP_RETRY`] to close by itself; only if our frontier
    /// has not moved by then is the request sent. A lead past the window
    /// is real lag and is requested at once — as is any lead at a learner,
    /// which has no other source of decisions. (The wait holds
    /// `catch_up_inflight`, so a lead that grows past the window *during*
    /// it is requested when it ends: at most 25 ms late.)
    fn maybe_catch_up(&mut self, ctx: &mut Ctx<V>) {
        let Some(log) = self.log.as_ref() else { return };
        if self.catch_up_inflight {
            return;
        }
        let from_k = log.frontier().saturating_add(1);
        let best = self
            .peer_frontiers
            .iter()
            .filter(|&(_, &f)| f >= from_k)
            .max_by_key(|&(&p, &f)| (f, std::cmp::Reverse(p)));
        let Some((&peer, &frontier)) = best else { return };
        let window = self.controller.current() as u64;
        if frontier - from_k < window
            && !self.learner
            && self.catch_up_waited_at != Some(from_k)
        {
            self.catch_up_waited_at = Some(from_k);
            self.arm_catch_up_timer(CATCH_UP_RETRY, ctx);
            return;
        }
        // Checked instance math throughout the catch-up range plumbing: a
        // wrapped bound would re-request the wrong range forever.
        let to_k = frontier.min(from_k.saturating_add(CATCH_UP_BATCH - 1));
        self.catch_up_requests += 1;
        let req = self.wrap(Envelope::CatchUpRequest { from_k, to_k });
        ctx.send(peer, req);
        self.arm_catch_up_retry(ctx);
    }

    /// Marks a request outstanding and arms its retry timer (tagged with
    /// a fresh epoch so stale timers are inert). Each arming doubles the
    /// next retry delay up to [`CATCH_UP_RETRY_MAX`] — consecutive
    /// unanswered requests back off exponentially instead of hammering an
    /// unreachable peer; [`AbcastNode::absorb_catch_up`] resets the delay.
    fn arm_catch_up_retry(&mut self, ctx: &mut Ctx<V>) {
        self.arm_catch_up_timer(self.catch_up_retry, ctx);
        self.catch_up_retry = (self.catch_up_retry * 2).min(CATCH_UP_RETRY_MAX);
    }

    /// Blocks further requests until the catch-up timer armed here fires
    /// (or a reply settles things first), under a fresh epoch.
    fn arm_catch_up_timer(&mut self, delay: Duration, ctx: &mut Ctx<V>) {
        self.catch_up_inflight = true;
        self.catch_up_epoch = self.catch_up_epoch.wrapping_add(1);
        ctx.set_timer(delay, TimerId::new(TIMER_CATCHUP, self.catch_up_epoch));
    }

    /// Serves a peer's catch-up request from the decided log, clamped to
    /// what we hold and to [`CATCH_UP_BATCH`]. Always answers (possibly
    /// with an empty batch): the reply clears the requester's outstanding
    /// flag promptly and its wrapper carries our frontier.
    fn serve_catch_up(&mut self, from: ProcessId, from_k: u64, to_k: u64, ctx: &mut Ctx<V>) {
        let entries: Vec<DecidedEntry<V>> = match self.log.as_ref() {
            Some(log) => {
                let hi = to_k.min(from_k.saturating_add(CATCH_UP_BATCH - 1));
                log.range(from_k, hi).to_vec()
            }
            None => Vec::new(), // catch-up off here; answer empty, not silence
        };
        let reply = self.wrap(Envelope::CatchUpReply { entries });
        ctx.send(from, reply);
    }

    /// Applies a batch of caught-up entries through the normal decision
    /// path (`handle_decision` buffers, dedupes, and applies strictly in
    /// instance order — there is no second apply path), then keeps
    /// fetching if still behind the best-known frontier.
    fn absorb_catch_up(&mut self, entries: Vec<DecidedEntry<V>>, ctx: &mut Ctx<V>) {
        if self.log.is_none() {
            return;
        }
        // This reply settles the outstanding request; bump the epoch so
        // its retry timer (still scheduled) cannot re-request. The peer is
        // answering again: restart the retry backoff from its base.
        self.catch_up_inflight = false;
        self.catch_up_epoch = self.catch_up_epoch.wrapping_add(1);
        self.catch_up_retry = CATCH_UP_RETRY;
        for e in entries {
            if e.k >= self.next_apply {
                self.caught_up_entries += 1;
            }
            // Store the payloads directly: `rdeliver` would feed the
            // flood-delay EWMA and the `unordered` candidate set, but
            // these messages are already ordered — they must influence
            // neither proposals nor the freshness estimate.
            for m in e.payloads {
                self.store.insert(m);
            }
            self.handle_decision(e.k, e.value, ctx);
        }
        // An entry we had applied already may have brought the payload its
        // deliveries were waiting for.
        self.try_deliver(ctx);
        // A settling catch-up episode is the "I was behind and healed"
        // signal: repair any accepted broadcast whose payload flood may
        // have been shed while this node was unreachable. Pending sets are
        // empty in healthy runs, so this is free there.
        self.reflood_pending(ctx);
        self.maybe_catch_up(ctx);
    }
}

impl<V: OrderingValue, A: SingleConsensus<V>> Node for AbcastNode<V, A> {
    type Msg = Envelope<V>;
    type Command = AbcastCommand;
    type Output = AbcastEvent;

    fn on_start(&mut self, ctx: &mut Ctx<V>) {
        self.recover_from_log();
        self.recover_pending(ctx);
        // Learners send no heartbeats. Peers that know the learner set
        // (StackParams::with_learner_set) exclude them from suspicion,
        // rotation and quorums natively; peers that don't will suspect
        // the silent replica, which still rotates coordination past it —
        // just after a wasted suspicion timeout.
        if !self.learner {
            let mut fout = FdOut::new();
            self.fd.on_start(ctx.now(), &mut fout);
            self.apply_fd_out(fout, ctx);
        }
        // Bootstrap probe: on a quiet cluster no frames flow, so a
        // restarted (or freshly started) catch-up node would never see a
        // peer frontier. One broadcast request primes `peer_frontiers`
        // from the wrapped replies and fetches any backlog immediately.
        if self.log.is_some() && ctx.n() > 1 {
            let from_k = self.next_apply;
            let to_k = from_k.saturating_add(CATCH_UP_BATCH - 1);
            self.catch_up_requests += 1;
            let req = self.wrap(Envelope::CatchUpRequest { from_k, to_k });
            ctx.send_to_others(req);
            self.arm_catch_up_retry(ctx);
        }
    }

    fn on_command(&mut self, cmd: AbcastCommand, ctx: &mut Ctx<V>) {
        if self.learner {
            return; // read replicas consume the stream, they never feed it
        }
        let AbcastCommand::Broadcast(payload) = cmd;
        let id = MsgId::new(self.me, self.next_seq);
        self.next_seq += 1;
        let m = AppMessage::new(id, payload, ctx.now());
        // Record *before* flooding: once the application sees `Broadcast`,
        // the payload must survive a crash until its instance is logged.
        if let Some(pending) = self.pending.as_mut() {
            pending.record(m.clone());
        }
        ctx.output(AbcastEvent::Broadcast { id });
        // Algorithm 1 line 8: R-broadcast(m).
        let mut bout = BcastOut::new();
        self.bcast.broadcast(m, &mut bout);
        self.apply_bcast_out(bout, ctx);
    }

    fn on_message(&mut self, from: ProcessId, msg: Envelope<V>, ctx: &mut Ctx<V>) {
        match msg {
            Envelope::Bcast(b) => {
                let mut bout = BcastOut::new();
                self.bcast.on_message(from, b, &mut bout);
                self.apply_bcast_out(bout, ctx);
            }
            Envelope::Cons { k, msg } => {
                if self.learner {
                    return; // learners take no part in consensus, not even relays
                }
                let mut mout = MgrOut::new();
                {
                    let oracle = NodeOracle {
                        store: &self.store,
                        check_store: self.check_store,
                        cost_per_id: self.cost.rcv_check_per_id,
                    };
                    self.mgr.on_message(k, from, msg, &oracle, self.suspected, &mut mout);
                }
                self.apply_mgr_out(mout, ctx);
            }
            Envelope::Fd(f) => {
                let mut fout = FdOut::new();
                self.fd.on_message(ctx.now(), from, f, &mut fout);
                self.apply_fd_out(fout, ctx);
            }
            Envelope::CatchUpRequest { from_k, to_k } => {
                self.serve_catch_up(from, from_k, to_k, ctx);
            }
            Envelope::CatchUpReply { entries } => {
                self.absorb_catch_up(entries, ctx);
            }
            Envelope::WithFrontier { frontier, inner } => {
                self.note_peer_frontier(from, frontier, ctx);
                // Decode bounds nesting to one level, so this recursion
                // cannot be driven deeper by remote input.
                self.on_message(from, *inner, ctx);
            }
        }
    }

    fn on_timer(&mut self, timer: TimerId, ctx: &mut Ctx<V>) {
        if timer.kind() == TIMER_FD {
            let mut fout = FdOut::new();
            self.fd.on_timer(ctx.now(), timer.data(), &mut fout);
            self.apply_fd_out(fout, ctx);
        } else if timer.kind() == TIMER_PROPOSE {
            self.propose_timer_armed = false;
            self.maybe_propose(ctx);
        } else if timer.kind() == TIMER_CATCHUP {
            // Epoch guard: only the retry timer of the *current*
            // outstanding request may fire a re-request; replies bump the
            // epoch, so timers from settled requests are inert.
            if self.catch_up_inflight && timer.data() == self.catch_up_epoch {
                self.catch_up_inflight = false;
                self.maybe_catch_up(ctx);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::msgset::MsgSet;
    use crate::stacks::{self, StackParams};
    use iabc_broadcast::{BcastMsg, EagerRb};
    use iabc_consensus::{ConsMsg, CtConsensus, CtIndirect, RcvOracle};
    use iabc_fd::{FdMsg, NeverSuspect};
    use iabc_runtime::Action;
    use iabc_types::{Payload, Time};

    fn msg(p: u16, seq: u64) -> AppMessage {
        AppMessage::new(MsgId::new(ProcessId::new(p), seq), Payload::zeroed(8), Time::ZERO)
    }

    /// A three-process indirect-CT node under direct test control.
    fn test_node(window: usize) -> AbcastNode<IdSet, CtConsensus<IdSet>> {
        test_node_with(PipelineConfig::fixed(window))
    }

    fn test_node_with(pipeline: PipelineConfig) -> AbcastNode<IdSet, CtConsensus<IdSet>> {
        AbcastNode::new(
            ProcessId::new(0),
            Box::new(EagerRb::new()),
            Box::new(NeverSuspect::new()),
            |k| CtConsensus::with_coord_offset(ProcessId::new(0), 3, k),
            true,
            CostModel::zero(),
            pipeline,
        )
    }

    fn ctx() -> Ctx<IdSet> {
        Context::new(ProcessId::new(0), 3, Time::ZERO)
    }

    /// Feeds an R-broadcast data frame from `from` into the node.
    fn deliver_data<A: SingleConsensus<IdSet>>(
        node: &mut AbcastNode<IdSet, A>,
        from: u16,
        m: AppMessage,
        c: &mut Ctx<IdSet>,
    ) {
        node.on_message(ProcessId::new(from), Envelope::Bcast(BcastMsg::Data(m)), c);
    }

    /// Feeds a consensus Decide frame for instance `k` into the node.
    fn deliver_decide<A: SingleConsensus<IdSet>>(
        node: &mut AbcastNode<IdSet, A>,
        k: u64,
        value: IdSet,
        c: &mut Ctx<IdSet>,
    ) {
        node.on_message(
            ProcessId::new(1),
            Envelope::Cons { k, msg: ConsMsg::Decide { value } },
            c,
        );
    }

    fn delivered_ids(c: &mut Ctx<IdSet>) -> Vec<MsgId> {
        c.take_actions()
            .into_iter()
            .filter_map(|a| match a {
                Action::Output(AbcastEvent::Delivered { msg }) => Some(msg.id()),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn window_one_runs_a_single_instance_at_a_time() {
        let mut node = test_node(1);
        let mut c = ctx();
        deliver_data(&mut node, 1, msg(1, 0), &mut c);
        deliver_data(&mut node, 1, msg(1, 1), &mut c);
        // Algorithm 1 verbatim: the second id waits for instance 1.
        assert_eq!(node.instance(), 1);
        assert_eq!(node.in_flight(), 1);
        assert_eq!(node.unordered_len(), 2);
    }

    #[test]
    fn window_limits_and_excludes_in_flight_ids() {
        let mut node = test_node(2);
        let mut c = ctx();
        deliver_data(&mut node, 1, msg(1, 0), &mut c);
        deliver_data(&mut node, 1, msg(1, 1), &mut c);
        deliver_data(&mut node, 1, msg(1, 2), &mut c);
        // Two instances in flight (window), carrying disjoint proposals;
        // the third id must wait for a slot.
        assert_eq!(node.instance(), 2);
        assert_eq!(node.in_flight(), 2);
        assert_eq!(node.unordered_len(), 3);
    }

    #[test]
    fn out_of_order_decision_is_buffered_until_its_turn() {
        let mut node = test_node(2);
        let mut c = ctx();
        deliver_data(&mut node, 1, msg(1, 0), &mut c); // instance 1 = {m0}
        deliver_data(&mut node, 1, msg(1, 1), &mut c); // instance 2 = {m1}
        assert_eq!(node.in_flight(), 2);

        // Instance 2 decides first: nothing may be delivered yet.
        deliver_decide(&mut node, 2, IdSet::from_ids([msg(1, 1).id()]), &mut c);
        assert_eq!(node.delivered_count(), 0, "future decision must be buffered");
        assert_eq!(node.buffered_decisions(), 1);

        // Instance 1 decides: both apply, strictly in instance order.
        deliver_decide(&mut node, 1, IdSet::from_ids([msg(1, 0).id()]), &mut c);
        assert_eq!(node.delivered_count(), 2);
        assert_eq!(node.buffered_decisions(), 0);
        assert_eq!(node.in_flight(), 0);
        assert_eq!(delivered_ids(&mut c), vec![msg(1, 0).id(), msg(1, 1).id()]);
    }

    /// Regression for the seed's `debug_assert_eq!(k, self.k)`: in release
    /// builds a decision for a non-current instance silently cleared
    /// `running` and corrupted the ordering state. The routing must drop
    /// stale/duplicate decisions — in every build profile.
    #[test]
    fn stale_decision_is_dropped_never_misapplied() {
        let mut node = test_node(1);
        let mut c = ctx();
        deliver_data(&mut node, 1, msg(1, 0), &mut c);
        deliver_decide(&mut node, 1, IdSet::from_ids([msg(1, 0).id()]), &mut c);
        assert_eq!(node.delivered_count(), 1);

        // A duplicate/old decision for instance 1 arrives (e.g. a straggler
        // relay): it must be dropped wholesale, not applied to the current
        // instance's state.
        let ghost = IdSet::from_ids([msg(2, 9).id()]);
        node.handle_decision(1, ghost, &mut c);
        assert_eq!(node.stale_decisions(), 1);
        assert_eq!(node.delivered_count(), 1, "stale decision must not deliver");
        assert_eq!(node.instance(), 1, "stale decision must not trigger proposals");
        assert_eq!(node.ordered_pending(), 0);

        // Same for a decision duplicating an already-buffered instance.
        let mut node = test_node(2);
        let mut c = ctx();
        deliver_data(&mut node, 1, msg(1, 0), &mut c);
        deliver_data(&mut node, 1, msg(1, 1), &mut c);
        node.handle_decision(2, IdSet::from_ids([msg(1, 1).id()]), &mut c);
        node.handle_decision(2, IdSet::from_ids([msg(2, 7).id()]), &mut c);
        assert_eq!(node.stale_decisions(), 1, "duplicate buffered decision dropped");
        assert_eq!(node.buffered_decisions(), 1);
    }

    #[test]
    fn overlapping_decisions_dedupe_deterministically() {
        // With W > 1 an id can be decided by instance k and also ride a
        // concurrent proposal decided in k+1 (another process proposed it
        // first). The duplicate must be skipped, once, at apply time.
        let mut node = test_node(2);
        let mut c = ctx();
        deliver_data(&mut node, 1, msg(1, 0), &mut c); // instance 1 = {m0}
        deliver_data(&mut node, 1, msg(1, 1), &mut c); // instance 2 = {m1}
        // Instance 1 decides a peer's proposal that already contains m1.
        deliver_decide(
            &mut node,
            1,
            IdSet::from_ids([msg(1, 0).id(), msg(1, 1).id()]),
            &mut c,
        );
        assert_eq!(node.delivered_count(), 2);
        // Instance 2 then decides our own {m1}: already ordered, skipped.
        deliver_decide(&mut node, 2, IdSet::from_ids([msg(1, 1).id()]), &mut c);
        assert_eq!(node.delivered_count(), 2, "duplicate id must not re-deliver");
        assert_eq!(
            delivered_ids(&mut c),
            vec![msg(1, 0).id(), msg(1, 1).id()],
            "order fixed by instance order, duplicates dropped"
        );
    }

    #[test]
    fn capped_proposal_spills_remainder_to_next_instance() {
        let mut cfg = PipelineConfig::fixed(1);
        cfg.max_proposal_ids = 2;
        let mut node = test_node_with(cfg);
        let mut c = ctx();
        for seq in 0..5 {
            deliver_data(&mut node, 1, msg(1, seq), &mut c);
        }
        // Instance 1 was proposed eagerly with just {m0}; the other four
        // ids queued behind the W=1 window.
        assert_eq!(node.instance(), 1);
        assert_eq!(node.proposal_cap_hits(), 0);
        deliver_decide(&mut node, 1, IdSet::from_ids([msg(1, 0).id()]), &mut c);
        // The freed slot proposes the backlog, truncated to the cap: the
        // first two ids ride instance 2, the rest spill.
        assert_eq!(node.instance(), 2);
        assert_eq!(node.proposal_cap_hits(), 1, "four candidates over a cap of two");
        deliver_decide(&mut node, 2, IdSet::from_ids([msg(1, 1).id(), msg(1, 2).id()]), &mut c);
        // The spilled remainder fits the cap exactly: no further hit.
        assert_eq!(node.instance(), 3);
        assert_eq!(node.proposal_cap_hits(), 1);
        deliver_decide(&mut node, 3, IdSet::from_ids([msg(1, 3).id(), msg(1, 4).id()]), &mut c);
        assert_eq!(node.delivered_count(), 5, "no id may be lost to the cap");
        assert_eq!(
            delivered_ids(&mut c),
            (0..5).map(|s| msg(1, s).id()).collect::<Vec<_>>(),
            "spill preserves the deterministic order"
        );
    }

    #[test]
    fn static_window_controller_is_inert() {
        let mut ctrl = WindowController::new(PipelineConfig::fixed(4));
        assert!(!ctrl.is_adaptive());
        for k in 1..100u64 {
            ctrl.on_decision(k, k, Some(Duration::from_secs(10)), 10_000, true);
        }
        assert_eq!(ctrl.current(), 4);
        assert_eq!(ctrl.adaptations(), (0, 0));
    }

    #[test]
    fn controller_grows_additively_under_healthy_full_load() {
        let mut ctrl = WindowController::new(PipelineConfig::adaptive(1, 8));
        assert_eq!(ctrl.current(), 1, "adaptive windows start at w_min");
        let fast = Some(Duration::from_millis(1));
        // Healthy decisions with a full window and waiting work: +1 per
        // `cur` consecutive good decisions, capped at w_max.
        for k in 1..200u64 {
            ctrl.on_decision(k, k, fast, 5, true);
        }
        assert_eq!(ctrl.current(), 8);
        assert_eq!(ctrl.adaptations().0, 7);
        // An idle window (not full, or no backlog) never grows.
        let mut idle = WindowController::new(PipelineConfig::adaptive(1, 8));
        for k in 1..200u64 {
            idle.on_decision(k, k, fast, 0, true);
            idle.on_decision(k, k, fast, 5, false);
        }
        assert_eq!(idle.current(), 1, "idle pipelines must not drift to w_max");
    }

    #[test]
    fn controller_halves_on_congestion_with_damping() {
        let mut cfg = PipelineConfig::adaptive(1, 16);
        cfg.latency_target = Duration::from_millis(10);
        let mut ctrl = WindowController::new(cfg);
        let fast = Some(Duration::from_millis(1));
        for k in 1..200u64 {
            ctrl.on_decision(k, k, fast, 5, true);
        }
        assert_eq!(ctrl.current(), 16);
        // One slow decision halves…
        ctrl.on_decision(200, 216, Some(Duration::from_millis(50)), 5, true);
        assert_eq!(ctrl.current(), 8);
        // …but instances proposed before the decrease (≤ watermark 216)
        // cannot halve again: they reflect the old window.
        for k in 201..=216u64 {
            ctrl.on_decision(k, 216, Some(Duration::from_millis(50)), 5, true);
        }
        assert_eq!(ctrl.current(), 8, "in-flight stragglers must not re-halve");
        // A slow decision from the post-decrease generation does.
        ctrl.on_decision(217, 230, Some(Duration::from_millis(50)), 5, true);
        assert_eq!(ctrl.current(), 4);
        // Backlog over the limit is the other congestion signal.
        ctrl.on_decision(231, 240, fast, cfg.backlog_limit + 1, true);
        assert_eq!(ctrl.current(), 2);
        // The floor is w_min.
        ctrl.on_decision(241, 250, Some(Duration::from_secs(1)), 0, true);
        ctrl.on_decision(251, 260, Some(Duration::from_secs(1)), 0, true);
        assert_eq!(ctrl.current(), 1);
    }

    #[test]
    fn spill_pressure_grows_the_window_without_waiting_for_decisions() {
        let mut cfg = PipelineConfig::adaptive(1, 16);
        cfg.max_proposal_ids = 100;
        let mut ctrl = WindowController::new(cfg);
        // Backlog fits the window: no growth.
        ctrl.on_spill(100);
        assert_eq!(ctrl.current(), 1);
        // Backlog needs 6 capped instances: jump straight there.
        ctrl.on_spill(550);
        assert_eq!(ctrl.current(), 6);
        // Clamped at w_max no matter how deep the backlog is.
        ctrl.on_spill(1_000_000);
        assert_eq!(ctrl.current(), 16);
        ctrl.on_spill(1_000_000);
        assert_eq!(ctrl.current(), 16, "w_max is a hard bound");
        // Uncapped controllers have no spill signal at all.
        let mut uncapped = WindowController::new(PipelineConfig::adaptive(1, 16));
        uncapped.on_spill(1_000_000);
        assert_eq!(uncapped.current(), 1);
        // Nor do static ones.
        let mut cfg = PipelineConfig::fixed(2);
        cfg.max_proposal_ids = 10;
        let mut fixed = WindowController::new(cfg);
        fixed.on_spill(1_000_000);
        assert_eq!(fixed.current(), 2);
    }

    #[test]
    fn congestion_halving_never_drops_below_what_the_backlog_needs() {
        let mut cfg = PipelineConfig::adaptive(1, 16);
        cfg.max_proposal_ids = 100;
        cfg.latency_target = Duration::from_millis(10);
        let mut ctrl = WindowController::new(cfg);
        ctrl.on_spill(1_600);
        assert_eq!(ctrl.current(), 16);
        // A late decision with the backlog at 900 ids: halving would give
        // 8, and the backlog needs 9 — the floor wins, so the next
        // proposals do not immediately re-trigger spill growth.
        ctrl.on_decision(1, 20, Some(Duration::from_secs(1)), 900, true);
        assert_eq!(ctrl.current(), 9);
        // With the backlog drained, halving reaches for w_min again.
        ctrl.on_decision(21, 40, Some(Duration::from_secs(1)), 0, true);
        assert_eq!(ctrl.current(), 4);
        // And deep spill pressure suppresses the decrease entirely: the
        // cap already bounds per-instance bookkeeping, so a deep backlog
        // wants more concurrency, not less.
        ctrl.on_decision(41, 60, Some(Duration::from_secs(1)), 100_000, true);
        assert_eq!(ctrl.current(), 16, "spill pressure must override halving");
    }

    #[test]
    fn node_accumulates_decision_latency_stats() {
        let mut node = test_node(1);
        let mut c = ctx();
        deliver_data(&mut node, 1, msg(1, 0), &mut c);
        c.set_now(Time::ZERO + Duration::from_millis(4));
        deliver_decide(&mut node, 1, IdSet::from_ids([msg(1, 0).id()]), &mut c);
        let (sum, count) = node.decision_latency_stats();
        assert_eq!(count, 1);
        assert_eq!(sum, Duration::from_millis(4));
    }

    #[test]
    fn adaptive_node_reacts_to_decision_latency() {
        let mut cfg = PipelineConfig::adaptive(1, 4);
        cfg.latency_target = Duration::from_millis(5);
        let mut node = test_node_with(cfg);
        assert!(node.is_adaptive_window());
        assert_eq!(node.window_bounds(), (1, 4));
        let mut c = ctx();
        // Instance 1 proposed at t=0; its decision arrives *late*.
        deliver_data(&mut node, 1, msg(1, 0), &mut c);
        deliver_data(&mut node, 1, msg(1, 1), &mut c);
        assert_eq!(node.window(), 1);
        c.set_now(Time::ZERO + Duration::from_millis(50));
        deliver_decide(&mut node, 1, IdSet::from_ids([msg(1, 0).id()]), &mut c);
        // Already at w_min, so the halving is a no-op, but it was counted.
        assert_eq!(node.window(), 1);
        assert_eq!(node.window_adaptations().1, 1, "late decision must register");
    }

    /// A remote message with an explicit broadcast instant (the freshness
    /// gate keys on `now - broadcast_at`).
    fn msg_at(p: u16, seq: u64, at: Time) -> AppMessage {
        AppMessage::new(MsgId::new(ProcessId::new(p), seq), Payload::zeroed(8), at)
    }

    /// `now - d` (tests construct messages broadcast in the past).
    fn ago(now: Time, d: Duration) -> Time {
        Time::from_nanos(now.as_nanos() - d.as_nanos())
    }

    /// Warms a node's flood-delay EWMA to ~`delay` (constant observations)
    /// while running the pipeline normally: delivers `FRESHNESS_WARMUP`
    /// remote messages aged `delay`, advances the clock one `delay` so
    /// they are all clearly mature, and decides them away — leaving the
    /// node idle with a trusted estimate. Returns the next fresh sequence
    /// number; the context clock ends at `now + delay`.
    fn warm_flood_ewma(
        node: &mut AbcastNode<IdSet, CtConsensus<IdSet>>,
        c: &mut Ctx<IdSet>,
        now: Time,
        delay: Duration,
    ) -> u64 {
        c.set_now(now);
        for seq in 0..FRESHNESS_WARMUP {
            deliver_data(node, 1, msg_at(1, seq, ago(now, delay)), c);
        }
        // Jump well past FRESHNESS_FACTOR delays so everything is clearly
        // mature: decide the whole backlog away so the window is free.
        c.set_now(now + delay + delay + delay);
        let all: Vec<MsgId> = (0..FRESHNESS_WARMUP).map(|s| msg_at(1, s, now).id()).collect();
        let mut k = node.instance();
        let mut guard = 0;
        while node.unordered_len() > 0 {
            deliver_decide(node, k, IdSet::from_ids(all.clone()), c);
            k += 1;
            guard += 1;
            assert!(guard < 4, "warm-up backlog failed to drain");
        }
        FRESHNESS_WARMUP
    }

    #[test]
    fn freshness_gate_defers_fresh_ids_until_they_mature() {
        let cfg = PipelineConfig { proposal_freshness: true, ..PipelineConfig::fixed(1) };
        let mut node = test_node_with(cfg);
        let mut c = ctx();
        let delay = Duration::from_millis(20);
        let now = Time::ZERO + Duration::from_millis(100);
        let next = warm_flood_ewma(&mut node, &mut c, now, delay);
        let est = node.flood_delay_estimate().expect("estimate warmed");
        assert!(
            est.as_nanos().abs_diff(delay.as_nanos()) <= 1_000,
            "constant observations must converge to the delay, got {est}"
        );
        let proposed = node.instance();

        // A brand-new remote id (age zero): the gate must hold it back and
        // arm a re-propose wake-up instead of burning a round.
        c.take_actions();
        deliver_data(&mut node, 1, msg_at(1, next, c.now()), &mut c);
        assert_eq!(node.instance(), proposed, "fresh id must not be proposed yet");
        assert_eq!(node.unordered_len(), 1, "gated id stays in unordered");
        // The age-zero delivery itself fed the EWMA, so the wake-up uses
        // the *updated* estimate.
        let est = node.flood_delay_estimate().expect("still warmed");
        let (tdelay, timer) = armed_timer(&mut c, TIMER_PROPOSE);
        let threshold = Duration::from_secs_f64(FRESHNESS_FACTOR * est.as_secs_f64());
        assert!(
            tdelay.as_nanos().abs_diff(threshold.as_nanos()) <= 1_000,
            "wake-up at FRESHNESS_FACTOR flood delays, got {tdelay} vs {threshold}"
        );

        // The wake-up fires after the id matured: it gets proposed — the
        // gate never excludes an id permanently.
        c.set_now(c.now() + tdelay);
        node.on_timer(timer, &mut c);
        assert_eq!(node.instance(), proposed + 1, "matured id must be proposed");
    }

    #[test]
    fn freshness_gate_slices_mature_ids_and_counts_held_ones() {
        let cfg = PipelineConfig { proposal_freshness: true, ..PipelineConfig::fixed(1) };
        let mut node = test_node_with(cfg);
        let mut c = ctx();
        let delay = Duration::from_millis(20);
        let now = Time::ZERO + Duration::from_millis(100);
        let next = warm_flood_ewma(&mut node, &mut c, now, delay);
        let proposed = node.instance();

        // An old id (well past one flood delay) occupies the window…
        let old = msg_at(1, next, ago(c.now(), Duration::from_millis(100)));
        deliver_data(&mut node, 1, old.clone(), &mut c);
        assert_eq!(node.instance(), proposed + 1);
        // …then another old id and a fresh one queue behind it.
        let old2 = msg_at(1, next + 1, ago(c.now(), Duration::from_millis(100)));
        let fresh = msg_at(1, next + 2, c.now());
        deliver_data(&mut node, 1, old2.clone(), &mut c);
        deliver_data(&mut node, 1, fresh.clone(), &mut c);
        // Deciding the head frees the slot: the next proposal must carry
        // the mature id only, counting the held-back fresh one.
        deliver_decide(&mut node, proposed + 1, IdSet::from_ids([old.id()]), &mut c);
        assert_eq!(node.instance(), proposed + 2);
        assert_eq!(node.freshness_held(), 1, "the fresh id sat the proposal out");
        assert_eq!(node.unordered_len(), 2, "old2 proposed, fresh still unordered");
        // Deciding old2 with only the fresh id left: defer + wake-up, and
        // the id is eventually proposed and decided (no permanent loss).
        deliver_decide(&mut node, proposed + 2, IdSet::from_ids([old2.id()]), &mut c);
        assert_eq!(node.instance(), proposed + 2, "all-fresh candidate set defers");
        c.set_now(c.now() + Duration::from_millis(80));
        node.on_timer(TimerId::new(2, 0), &mut c);
        assert_eq!(node.instance(), proposed + 3);
        deliver_decide(&mut node, proposed + 3, IdSet::from_ids([fresh.id()]), &mut c);
        assert_eq!(node.unordered_len(), 0);
    }

    #[test]
    fn freshness_gate_is_inert_before_warmup_and_when_disabled() {
        // Disabled: fresh ids propose immediately no matter the estimate.
        let mut node = test_node(1);
        let mut c = ctx();
        let now = Time::ZERO + Duration::from_millis(50);
        c.set_now(now);
        deliver_data(&mut node, 1, msg_at(1, 0, now), &mut c);
        assert_eq!(node.instance(), 1, "gate off: age-zero id proposed at once");

        // Enabled but cold (under FRESHNESS_WARMUP remote deliveries): the
        // estimate is not trusted yet, so nothing is deferred.
        let cfg = PipelineConfig { proposal_freshness: true, ..PipelineConfig::fixed(1) };
        let mut node = test_node_with(cfg);
        let mut c = ctx();
        c.set_now(now);
        assert!(node.flood_delay_estimate().is_none());
        deliver_data(&mut node, 1, msg_at(1, 0, now), &mut c);
        assert_eq!(node.instance(), 1, "cold gate must not defer proposals");
    }

    /// p0 of the paper's stack — its consensus really asks `rcv`. Round 1
    /// of instance `k` is `p((1 + k) mod 3)`'s to coordinate.
    fn indirect_node() -> AbcastNode<IdSet, CtIndirect<IdSet>> {
        stacks::indirect_ct(ProcessId::new(0), &StackParams::fault_free(3))
    }

    fn ct_proposal(k: u64, ids: &[MsgId]) -> Envelope<IdSet> {
        let estimate = IdSet::from_ids(ids.iter().copied());
        Envelope::Cons { k, msg: ConsMsg::CtProposal { round: 1, estimate } }
    }

    #[test]
    fn node_counts_consensus_refusals_it_sends() {
        // An indirect-CT node nacks a coordinator proposal whose payloads
        // it does not hold; the node-level counter must see that refusal.
        let mut node = indirect_node();
        let mut c = ctx();
        deliver_data(&mut node, 1, msg(1, 0), &mut c);
        assert_eq!(node.instance(), 1);
        assert_eq!(node.nacks_sent(), 0);
        // The round-1 coordinator proposes a value naming an id this node
        // never received: rcv() fails, a CtNack goes out.
        node.on_message(ProcessId::new(1), ct_proposal(1, &[msg(2, 99).id()]), &mut c);
        assert_eq!(node.nacks_sent(), 1, "missing payload must register as a refusal");
    }

    /// Trap: a-delivery releases the payload, but `rcv(v)` must stay true
    /// for its id. With `W > 1`, or a proposer that lags, proposals naming
    /// delivered ids are routine — and one nack kills the round for all.
    #[test]
    fn a_proposal_naming_a_delivered_id_is_acked_not_nacked() {
        let mut node = indirect_node();
        let mut c = ctx();
        for k in 1..=2 {
            deliver_data(&mut node, 1, msg(1, k), &mut c);
            deliver_decide(&mut node, k, IdSet::from_ids([msg(1, k).id()]), &mut c);
        }
        assert_eq!((node.delivered_count(), node.store().len()), (2, 0), "delivered, released");
        deliver_data(&mut node, 2, msg(2, 0), &mut c); // we propose instance 3
        c.take_actions();
        node.on_message(ProcessId::new(1), ct_proposal(3, &[msg(1, 1).id(), msg(2, 0).id()]), &mut c);
        assert_eq!(node.nacks_sent(), 0, "held or delivered: both are received");
        assert!(sends(&mut c).iter().any(|(to, m)| *to == ProcessId::new(1)
            && matches!(m, Envelope::Cons { k: 3, msg: ConsMsg::CtAck { round: 1 } })));
    }

    /// Trap: once a-delivered, a message cannot re-enter the store through
    /// any door payloads come in by — while a payload for an id that is
    /// ordered and still awaited is exactly the repair to accept.
    #[test]
    fn late_copies_of_a_delivered_message_cannot_re_enter() {
        let mut node = catchup_node();
        let mut c = ctx();
        let m = msg(1, 0);
        deliver_data(&mut node, 1, m.clone(), &mut c);
        deliver_decide(&mut node, 1, IdSet::from_ids([m.id()]), &mut c);
        assert_eq!(delivered_ids(&mut c), vec![m.id()]);
        // A relay; an R-delivery proper (what an RB layer that restarted
        // since would make of that relay); a catch-up entry.
        node.on_message(ProcessId::new(2), Envelope::Bcast(BcastMsg::Relay(m.clone())), &mut c);
        node.rdeliver(m.clone(), &mut c);
        let entries = vec![log_entry(1, std::slice::from_ref(&m))];
        node.on_message(ProcessId::new(2), Envelope::CatchUpReply { entries }, &mut c);
        assert_eq!((node.store().len(), node.unordered_len(), node.delivered_count()), (0, 0, 1));
        assert_eq!(delivered_ids(&mut c), vec![]);
        // Decided, payload lost on the way: the late copy must get in.
        let late = msg(2, 0);
        node.handle_decision(2, IdSet::from_ids([late.id()]), &mut c);
        assert_eq!(node.ordered_pending(), 1);
        deliver_data(&mut node, 2, late.clone(), &mut c);
        assert_eq!(delivered_ids(&mut c), vec![late.id()]);
        assert_eq!((node.store().len(), node.ordered_pending()), (0, 0));

        // The third door: a full-message decision brings its own payloads.
        let mut node = stacks::direct_ct_messages(ProcessId::new(0), &StackParams::fault_free(3));
        let mut c: Ctx<MsgSet> = Context::new(ProcessId::new(0), 3, Time::ZERO);
        for k in 1..=2 {
            node.handle_decision(k, MsgSet::from_msgs([m.clone()]), &mut c);
            assert_eq!((node.store().len(), node.delivered_count()), (0, 1), "instance {k}");
        }
    }

    // ---- the rcv surface of `store.rs`, as the node drives it ----

    #[test]
    fn idset_ordering_value() {
        let mut store = ReceivedStore::new();
        store.insert(msg(0, 0));
        let unordered = IdSet::from_ids([msg(0, 0).id(), msg(1, 5).id()]);
        let v = IdSet::from_unordered(&unordered, &store);
        assert_eq!(v, unordered);
        assert_eq!(v.id_count(), 2);
        assert!(!OrderingValue::held_in(&v, &store), "msg(1,5) is missing");
        store.insert(msg(1, 5));
        assert!(OrderingValue::held_in(&v, &store));
        store.take(msg(1, 5).id());
        assert!(OrderingValue::held_in(&v, &store), "a-delivered is still received");
    }

    #[test]
    fn msgset_ordering_value_carries_payloads() {
        let mut store = ReceivedStore::new();
        store.insert(msg(0, 0));
        store.insert(msg(1, 1));
        let unordered = IdSet::from_ids([msg(0, 0).id(), msg(1, 1).id()]);
        let v = MsgSet::from_unordered(&unordered, &store);
        assert_eq!(v.len(), 2);
        assert!(v.held_in(&ReceivedStore::new()), "MsgSet is self-contained");
        // A fresh store learns the payloads from the value.
        let mut fresh = ReceivedStore::new();
        v.store_payloads(&mut fresh);
        assert!(fresh.contains(msg(0, 0).id()));
        assert!(fresh.contains(msg(1, 1).id()));
    }

    #[test]
    fn node_oracle_modes() {
        let mut store = ReceivedStore::new();
        store.insert(msg(0, 0));
        let missing = IdSet::from_ids([msg(9, 9).id()]);

        let checking = NodeOracle {
            store: &store,
            check_store: true,
            cost_per_id: Duration::from_micros(10),
        };
        assert!(!RcvOracle::<IdSet>::rcv(&checking, &missing));
        assert_eq!(RcvOracle::<IdSet>::cost(&checking, &missing), Duration::from_micros(10));

        let faulty = NodeOracle { store: &store, check_store: false, cost_per_id: Duration::ZERO };
        assert!(RcvOracle::<IdSet>::rcv(&faulty, &missing), "the faulty oracle lies");
        assert_eq!(RcvOracle::<IdSet>::cost(&faulty, &missing), Duration::ZERO);
    }

    // ---- catch-up, decided log, learner mode ----

    fn catchup_node() -> AbcastNode<IdSet, CtConsensus<IdSet>> {
        test_node_with(PipelineConfig { catch_up: true, ..PipelineConfig::fixed(1) })
    }

    /// Drains the context and returns every `(to, msg)` send.
    fn sends(c: &mut Ctx<IdSet>) -> Vec<(ProcessId, Envelope<IdSet>)> {
        c.take_actions()
            .into_iter()
            .filter_map(|a| match a {
                Action::Send { to, msg } => Some((to, msg)),
                _ => None,
            })
            .collect()
    }

    /// Drains the context and returns the id a broadcast was assigned.
    fn broadcast_id(c: &mut Ctx<IdSet>) -> MsgId {
        c.take_actions()
            .into_iter()
            .find_map(|a| match a {
                Action::Output(AbcastEvent::Broadcast { id }) => Some(id),
                _ => None,
            })
            .expect("broadcast assigned an id")
    }

    /// Drains the context and returns the single armed timer of `kind`.
    fn armed_timer(c: &mut Ctx<IdSet>, kind: u32) -> (Duration, TimerId) {
        let timers: Vec<(Duration, TimerId)> = c
            .take_actions()
            .into_iter()
            .filter_map(|a| match a {
                Action::SetTimer { delay, timer } if timer.kind() == kind => {
                    Some((delay, timer))
                }
                _ => None,
            })
            .collect();
        assert_eq!(timers.len(), 1, "expected exactly one kind-{kind} timer");
        timers[0]
    }

    /// A decided-log entry carrying the given messages' ids and payloads.
    fn log_entry(k: u64, msgs: &[AppMessage]) -> DecidedEntry<IdSet> {
        DecidedEntry {
            k,
            value: IdSet::from_ids(msgs.iter().map(|m| m.id())),
            payloads: msgs.to_vec(),
        }
    }

    /// A peer heartbeat wrapped with the peer's decided frontier.
    fn wrapped_hb(frontier: u64) -> Envelope<IdSet> {
        Envelope::WithFrontier {
            frontier,
            inner: Box::new(Envelope::Fd(FdMsg::Heartbeat(0))),
        }
    }

    #[test]
    fn catch_up_sends_carry_the_frontier_and_off_sends_stay_plain() {
        // On: once instance 1 is logged, outbound frames advertise it.
        let mut node = catchup_node();
        let mut c = ctx();
        deliver_data(&mut node, 1, msg(1, 0), &mut c);
        deliver_decide(&mut node, 1, IdSet::from_ids([msg(1, 0).id()]), &mut c);
        assert_eq!(node.decided_frontier(), 1);
        c.take_actions();
        deliver_data(&mut node, 1, msg(1, 1), &mut c);
        let out = sends(&mut c);
        assert!(!out.is_empty());
        assert!(
            out.iter().all(|(_, m)| matches!(m, Envelope::WithFrontier { frontier: 1, .. })),
            "every frame of a catch-up node must carry its frontier"
        );

        // Off (the default): the wrapper never appears, so committed
        // baselines and wire traces stay byte-identical.
        let mut node = test_node(1);
        let mut c = ctx();
        deliver_data(&mut node, 1, msg(1, 0), &mut c);
        deliver_decide(&mut node, 1, IdSet::from_ids([msg(1, 0).id()]), &mut c);
        assert_eq!(node.decided_frontier(), 0, "no log without catch-up");
        assert!(sends(&mut c)
            .iter()
            .all(|(_, m)| !matches!(m, Envelope::WithFrontier { .. })));
    }

    #[test]
    fn catch_up_request_is_served_from_the_log() {
        let mut node = catchup_node();
        let mut c = ctx();
        deliver_data(&mut node, 1, msg(1, 0), &mut c);
        deliver_decide(&mut node, 1, IdSet::from_ids([msg(1, 0).id()]), &mut c);
        deliver_data(&mut node, 1, msg(1, 1), &mut c);
        deliver_decide(&mut node, 2, IdSet::from_ids([msg(1, 1).id()]), &mut c);
        assert_eq!(node.decided_frontier(), 2);
        c.take_actions();
        // A laggard asks for everything: the reply is clamped to what we
        // hold and wrapped with our frontier.
        node.on_message(
            ProcessId::new(2),
            Envelope::CatchUpRequest { from_k: 1, to_k: u64::MAX },
            &mut c,
        );
        let (to, frontier, entries) = sends(&mut c)
            .into_iter()
            .find_map(|(to, m)| match m {
                Envelope::WithFrontier { frontier, inner } => match *inner {
                    Envelope::CatchUpReply { entries } => Some((to, frontier, entries)),
                    _ => None,
                },
                _ => None,
            })
            .expect("a wrapped catch-up reply");
        assert_eq!(to, ProcessId::new(2));
        assert_eq!(frontier, 2);
        assert_eq!(entries.len(), 2);
        assert_eq!((entries[0].k, entries[1].k), (1, 2));
        assert_eq!(entries[0].payloads[0].id(), msg(1, 0).id(), "entries carry payloads");
    }

    #[test]
    fn frontier_ahead_triggers_a_request_and_the_reply_applies_in_order() {
        let mut node = catchup_node();
        let mut c = ctx();
        // A peer heartbeat advertises frontier 2 while we hold nothing.
        node.on_message(ProcessId::new(1), wrapped_hb(2), &mut c);
        assert_eq!(node.catch_up_requests(), 1);
        let req = sends(&mut c)
            .into_iter()
            .find_map(|(to, m)| match m {
                Envelope::WithFrontier { inner, .. } => match *inner {
                    Envelope::CatchUpRequest { from_k, to_k } => Some((to, from_k, to_k)),
                    _ => None,
                },
                _ => None,
            })
            .expect("a catch-up request");
        assert_eq!(req, (ProcessId::new(1), 1, 2));
        // The reply flows through the normal decision path: strict
        // instance order, payloads first-class, frontier advanced.
        let entries = vec![log_entry(1, &[msg(1, 0)]), log_entry(2, &[msg(1, 1)])];
        node.on_message(ProcessId::new(1), Envelope::CatchUpReply { entries }, &mut c);
        assert_eq!(delivered_ids(&mut c), vec![msg(1, 0).id(), msg(1, 1).id()]);
        assert_eq!(node.decided_frontier(), 2);
        assert_eq!(node.caught_up_entries(), 2);
    }

    #[test]
    fn a_lead_inside_the_window_waits_for_the_decide_in_flight() {
        let mut node = catchup_node();
        let mut c = ctx();
        // p2 already applied instance 1; its decider's Decide is still on
        // its way to us. A lead the window (1) covers: no request yet.
        deliver_data(&mut node, 1, msg(1, 0), &mut c);
        node.on_message(ProcessId::new(2), wrapped_hb(1), &mut c);
        assert_eq!(node.catch_up_requests(), 0);
        let (delay, wait) = armed_timer(&mut c, TIMER_CATCHUP);
        assert_eq!(delay, CATCH_UP_RETRY);
        // Further frames showing the same lead arm nothing more.
        node.on_message(ProcessId::new(2), wrapped_hb(1), &mut c);
        assert!(c.take_actions().is_empty());
        // The Decide arrives: the wait expires with nothing left to fetch.
        deliver_decide(&mut node, 1, IdSet::from_ids([msg(1, 0).id()]), &mut c);
        node.on_timer(wait, &mut c);
        assert_eq!(node.catch_up_requests(), 0);
        assert_eq!(node.decided_frontier(), 1);
    }

    #[test]
    fn a_lead_that_outlives_the_wait_is_requested() {
        let mut node = catchup_node();
        let mut c = ctx();
        node.on_message(ProcessId::new(2), wrapped_hb(1), &mut c);
        let (_, wait) = armed_timer(&mut c, TIMER_CATCHUP);
        // No progress for one CATCH_UP_RETRY: the Decide is not coming.
        node.on_timer(wait, &mut c);
        assert_eq!(node.catch_up_requests(), 1);
        // From here on it is an ordinary outstanding request with a retry.
        let (_, retry) = armed_timer(&mut c, TIMER_CATCHUP);
        node.on_timer(retry, &mut c);
        assert_eq!(node.catch_up_requests(), 2);
    }

    #[test]
    fn progress_during_the_wait_restarts_it_for_the_new_cursor() {
        let mut node = catchup_node();
        let mut c = ctx();
        deliver_data(&mut node, 1, msg(1, 0), &mut c);
        node.on_message(ProcessId::new(2), wrapped_hb(1), &mut c);
        let (_, wait) = armed_timer(&mut c, TIMER_CATCHUP);
        // Instance 1 arrives, but by then p2 shows instance 2 as well.
        deliver_decide(&mut node, 1, IdSet::from_ids([msg(1, 0).id()]), &mut c);
        node.on_message(ProcessId::new(2), wrapped_hb(2), &mut c);
        c.take_actions();
        node.on_timer(wait, &mut c);
        assert_eq!(node.catch_up_requests(), 0, "the cursor moved: wait again");
        let (delay, _) = armed_timer(&mut c, TIMER_CATCHUP);
        assert_eq!(delay, CATCH_UP_RETRY);
    }

    #[test]
    fn a_decided_instance_missing_its_payload_is_fetched_with_it() {
        let mut node = catchup_node();
        let mut c = ctx();
        // Instance 1 (proposed for p2's message) decides p1's, whose
        // payload never arrives: applied, ordered, stuck.
        deliver_data(&mut node, 2, msg(2, 0), &mut c);
        deliver_decide(&mut node, 1, IdSet::from_ids([msg(1, 0).id()]), &mut c);
        assert_eq!((node.ordered_pending(), node.decided_frontier()), (1, 0));
        c.take_actions();
        // A peer has delivered instance 1. Our frontier, not our apply
        // cursor, is what its lead is measured against.
        node.on_message(ProcessId::new(2), wrapped_hb(1), &mut c);
        let (_, wait) = armed_timer(&mut c, TIMER_CATCHUP);
        node.on_timer(wait, &mut c);
        assert_eq!(node.catch_up_requests(), 1);
        c.take_actions();
        // The entry is stale as a decision but carries what we lack.
        let entries = vec![log_entry(1, &[msg(1, 0)])];
        node.on_message(ProcessId::new(2), Envelope::CatchUpReply { entries }, &mut c);
        assert_eq!(delivered_ids(&mut c), vec![msg(1, 0).id()]);
        assert_eq!(node.decided_frontier(), 1);
    }

    #[test]
    fn catch_up_retry_fires_once_per_outstanding_request() {
        let mut node = catchup_node();
        let mut c = ctx();
        node.on_message(ProcessId::new(1), wrapped_hb(2), &mut c);
        assert_eq!(node.catch_up_requests(), 1);
        let (_, t1) = armed_timer(&mut c, TIMER_CATCHUP);
        // No reply: the retry re-requests (and re-arms).
        node.on_timer(t1, &mut c);
        assert_eq!(node.catch_up_requests(), 2);
        let (_, t2) = armed_timer(&mut c, TIMER_CATCHUP);
        // The reply settles the request…
        let entries = vec![log_entry(1, &[msg(1, 0)]), log_entry(2, &[msg(1, 1)])];
        node.on_message(ProcessId::new(1), Envelope::CatchUpReply { entries }, &mut c);
        assert_eq!(node.decided_frontier(), 2);
        // …so the now-stale retry is inert: no ghost re-request.
        node.on_timer(t2, &mut c);
        assert_eq!(node.catch_up_requests(), 2);
        // And the already-fired t1 epoch certainly is.
        node.on_timer(t1, &mut c);
        assert_eq!(node.catch_up_requests(), 2);
    }

    #[test]
    fn catch_up_retry_backs_off_exponentially_and_resets_on_reply() {
        let mut node = catchup_node();
        let mut c = ctx();
        node.on_message(ProcessId::new(1), wrapped_hb(2), &mut c);
        let (d1, t1) = armed_timer(&mut c, TIMER_CATCHUP);
        assert_eq!(d1, CATCH_UP_RETRY);
        // Unanswered retries double the delay…
        node.on_timer(t1, &mut c);
        let (d2, t2) = armed_timer(&mut c, TIMER_CATCHUP);
        assert_eq!(d2, CATCH_UP_RETRY * 2);
        node.on_timer(t2, &mut c);
        let (d3, mut last) = armed_timer(&mut c, TIMER_CATCHUP);
        assert_eq!(d3, CATCH_UP_RETRY * 4);
        // …up to the cap, where the delay plateaus.
        let mut prev = d3;
        for _ in 0..8 {
            node.on_timer(last, &mut c);
            let (d, t) = armed_timer(&mut c, TIMER_CATCHUP);
            assert!(d >= prev, "backoff must be monotone");
            assert!(d <= CATCH_UP_RETRY_MAX, "backoff must respect the cap");
            prev = d;
            last = t;
        }
        assert_eq!(prev, CATCH_UP_RETRY_MAX);
        // A reply resets the backoff: the follow-up request it issues
        // (still behind the advertised frontier) arms at the base delay.
        let entries = vec![log_entry(1, &[msg(1, 0)])];
        node.on_message(ProcessId::new(1), Envelope::CatchUpReply { entries }, &mut c);
        let (d, _) = armed_timer(&mut c, TIMER_CATCHUP);
        assert_eq!(d, CATCH_UP_RETRY, "reply must reset the retry backoff");
    }

    #[test]
    fn pending_set_tracks_accept_to_log_lifecycle() {
        let mut node = catchup_node();
        let mut c = ctx();
        assert_eq!(node.pending_broadcasts(), 0);
        node.on_command(AbcastCommand::Broadcast(Payload::zeroed(8)), &mut c);
        assert_eq!(node.pending_broadcasts(), 1, "accepted broadcast is pending");
        // The instance ordering our id reaches the log: entry cleared.
        deliver_decide(&mut node, 1, IdSet::from_ids([MsgId::new(ProcessId::new(0), 0)]), &mut c);
        assert_eq!(node.decided_frontier(), 1);
        assert_eq!(node.pending_broadcasts(), 0, "logged broadcast must clear");
        // Without catch-up there is no pending tracking at all.
        let mut plain = test_node(1);
        plain.on_command(AbcastCommand::Broadcast(Payload::zeroed(8)), &mut c);
        assert_eq!(plain.pending_broadcasts(), 0);
    }

    #[test]
    fn restart_refloods_pending_broadcasts_and_resumes_seq() {
        // The previous incarnation accepted (0, 5) but crashed before its
        // instance was decided: the pending sidecar survived.
        let mut store = crate::pending::MemPendingStore::new();
        store.record(msg(0, 5));
        let mut node = catchup_node();
        node.set_pending_store(Box::new(store));
        let mut c = ctx();
        node.on_start(&mut c);
        assert_eq!(node.pending_refloods(), 1);
        let reflooded = sends(&mut c).into_iter().any(|(_, m)| match m {
            Envelope::WithFrontier { inner, .. } => matches!(
                *inner,
                Envelope::Bcast(BcastMsg::Data(ref am)) if am.id() == msg(0, 5).id()
            ),
            _ => false,
        });
        assert!(reflooded, "pending broadcast must be re-flooded at start");
        // next_seq resumes past the pending id even though the log is empty.
        node.on_command(AbcastCommand::Broadcast(Payload::zeroed(8)), &mut c);
        let bid = broadcast_id(&mut c);
        assert_eq!(bid, MsgId::new(ProcessId::new(0), 6), "no id reuse past pending");
    }

    #[test]
    fn recovery_clears_pending_entries_already_in_the_log() {
        // Crash happened between the log append and the pending clear: the
        // entry is in both. Recovery must finish the clear, not re-flood.
        let mut log = MemDecidedLog::new();
        assert!(log.append(log_entry(1, &[msg(0, 0)])));
        let mut store = crate::pending::MemPendingStore::new();
        store.record(msg(0, 0));
        let mut node = catchup_node();
        node.set_decided_log(Box::new(log));
        node.set_pending_store(Box::new(store));
        let mut c = ctx();
        node.on_start(&mut c);
        assert_eq!(node.pending_broadcasts(), 0, "logged entry must be cleared");
        assert_eq!(node.pending_refloods(), 0, "logged entry must not re-flood");
    }

    #[test]
    fn settled_catch_up_refloods_undecided_pending_as_relays() {
        let mut node = catchup_node();
        let mut c = ctx();
        // Accept a broadcast; its id is not decided yet.
        node.on_command(AbcastCommand::Broadcast(Payload::zeroed(8)), &mut c);
        c.take_actions();
        // A catch-up episode settles (peer entries for other ids): the
        // still-pending broadcast is re-flooded as an RB relay.
        let entries = vec![log_entry(1, &[msg(1, 0)])];
        node.on_message(ProcessId::new(1), Envelope::CatchUpReply { entries }, &mut c);
        assert_eq!(node.pending_refloods(), 1);
        let relayed = sends(&mut c).into_iter().any(|(_, m)| match m {
            Envelope::WithFrontier { inner, .. } => matches!(
                *inner,
                Envelope::Bcast(BcastMsg::Relay(ref am))
                    if am.id() == MsgId::new(ProcessId::new(0), 0)
            ),
            _ => false,
        });
        assert!(relayed, "undecided pending broadcast must re-flood after catch-up");
    }

    #[test]
    fn frontier_wrapper_is_transparent_when_catch_up_is_off() {
        let mut node = test_node(1);
        let mut c = ctx();
        // A wrapped RB frame from a catch-up peer: the inner frame is
        // processed normally, the hint ignored, no request issued.
        node.on_message(
            ProcessId::new(1),
            Envelope::WithFrontier {
                frontier: 9,
                inner: Box::new(Envelope::Bcast(BcastMsg::Data(msg(1, 0)))),
            },
            &mut c,
        );
        assert_eq!(node.instance(), 1, "inner data frame proposed as usual");
        assert_eq!(node.catch_up_requests(), 0);
        assert!(sends(&mut c)
            .iter()
            .all(|(_, m)| !matches!(m, Envelope::CatchUpRequest { .. })));
    }

    #[test]
    fn log_entry_waits_for_its_payloads() {
        let mut node = catchup_node();
        let mut c = ctx();
        // Instance 1 decides an id whose payload has not R-delivered yet:
        // nothing may be logged (the frontier is the *delivered* prefix).
        deliver_decide(&mut node, 1, IdSet::from_ids([msg(1, 0).id()]), &mut c);
        assert_eq!(node.delivered_count(), 0);
        assert_eq!(node.decided_frontier(), 0, "undelivered instance must not be logged");
        // The payload arrives: delivery completes and the entry lands.
        deliver_data(&mut node, 1, msg(1, 0), &mut c);
        assert_eq!(node.delivered_count(), 1);
        assert_eq!(node.decided_frontier(), 1);
    }

    #[test]
    fn restart_resumes_from_the_log_without_redelivering() {
        // The pre-crash run logged instance 1 (our own m) and 2 (a peer's).
        let mut log = MemDecidedLog::new();
        assert!(log.append(log_entry(1, &[msg(0, 0)])));
        assert!(log.append(log_entry(2, &[msg(1, 0)])));
        let mut node = catchup_node();
        node.set_decided_log(Box::new(log));
        let mut c = ctx();
        node.on_start(&mut c);
        assert_eq!(node.decided_frontier(), 2);
        assert_eq!(delivered_ids(&mut c), vec![], "logged prefix is not re-delivered");
        // Trap: this incarnation's RB layer is fresh, so an old message
        // re-flooded by a peer is R-delivered again. The logged ids must
        // count as delivered, or the copy would sit in the store for ever.
        deliver_data(&mut node, 1, msg(1, 0), &mut c);
        assert_eq!((node.store().len(), node.unordered_len()), (0, 0));
        // Our own sequence resumes past the logged prefix: no id reuse.
        node.on_command(AbcastCommand::Broadcast(Payload::zeroed(8)), &mut c);
        let bid = broadcast_id(&mut c);
        assert_eq!(bid, MsgId::new(ProcessId::new(0), 1));
        // A stale decision for a logged instance is dropped outright.
        node.handle_decision(1, IdSet::from_ids([msg(9, 9).id()]), &mut c);
        assert_eq!(node.stale_decisions(), 1);
        // The next decision applies as instance 3 and extends the log.
        deliver_decide(&mut node, 3, IdSet::from_ids([msg(1, 5).id()]), &mut c);
        deliver_data(&mut node, 1, msg(1, 5), &mut c);
        assert_eq!(node.decided_frontier(), 3);
        assert!(delivered_ids(&mut c).contains(&msg(1, 5).id()));
    }

    #[test]
    fn learner_consumes_the_stream_without_ever_proposing() {
        let mut node = test_node_with(PipelineConfig {
            learner: true,
            catch_up: true,
            ..PipelineConfig::fixed(1)
        });
        let mut c = ctx();
        assert!(node.is_learner());
        // Commands are ignored: a read replica never feeds the stream.
        node.on_command(AbcastCommand::Broadcast(Payload::zeroed(8)), &mut c);
        assert!(c.take_actions().is_empty(), "learner must drop commands");
        // Consensus traffic is dropped wholesale — no acks, no relays.
        deliver_decide(&mut node, 1, IdSet::from_ids([msg(1, 0).id()]), &mut c);
        assert_eq!(node.delivered_count(), 0);
        assert!(sends(&mut c).is_empty(), "learner must not answer consensus");
        // The decided stream arrives via frontier + catch-up only.
        node.on_message(ProcessId::new(1), wrapped_hb(2), &mut c);
        assert_eq!(node.catch_up_requests(), 1);
        c.take_actions(); // drop the request frame; what follows is the reply
        let entries = vec![log_entry(1, &[msg(1, 0)]), log_entry(2, &[msg(1, 1)])];
        node.on_message(ProcessId::new(1), Envelope::CatchUpReply { entries }, &mut c);
        let actions = c.take_actions();
        let delivered: Vec<MsgId> = actions
            .iter()
            .filter_map(|a| match a {
                Action::Output(AbcastEvent::Delivered { msg }) => Some(msg.id()),
                _ => None,
            })
            .collect();
        assert_eq!(delivered, vec![msg(1, 0).id(), msg(1, 1).id()]);
        assert_eq!(node.decided_frontier(), 2);
        assert_eq!(node.in_flight(), 0, "a learner opens no consensus instances");
        assert!(
            actions.iter().all(|a| !matches!(a, Action::Send { .. })),
            "absorbing the stream must not make a learner talk"
        );
    }

    /// Regression for the freshness-gate one-shot audit: when the maturity
    /// estimate *grows* between arming the `TIMER_PROPOSE` wake-up and its
    /// firing, the candidate set can still be all-fresh at fire time — the
    /// gate must re-arm from the new estimate, not go dormant until
    /// unrelated traffic ticks the node.
    #[test]
    fn freshness_gate_rearms_when_estimate_grew() {
        let cfg = PipelineConfig { proposal_freshness: true, ..PipelineConfig::fixed(1) };
        let mut node = test_node_with(cfg);
        let mut c = ctx();
        let delay = Duration::from_millis(20);
        let now = Time::ZERO + Duration::from_millis(300);
        let next = warm_flood_ewma(&mut node, &mut c, now, delay);
        let proposed = node.instance();
        c.take_actions();

        // A fresh id arrives: held, wake-up armed from the current estimate.
        let fresh = msg_at(1, next, c.now());
        deliver_data(&mut node, 1, fresh.clone(), &mut c);
        assert_eq!(node.instance(), proposed, "fresh id held");
        let (d1, t1) = armed_timer(&mut c, TIMER_PROPOSE);

        // Before the wake-up fires, a much older id arrives: it is mature
        // (proposed at once) and its large observation grows the EWMA, so
        // the armed wake-up now undershoots the new threshold.
        let old = msg_at(1, next + 1, ago(c.now(), Duration::from_millis(200)));
        deliver_data(&mut node, 1, old.clone(), &mut c);
        assert_eq!(node.instance(), proposed + 1, "mature id proposed at once");
        deliver_decide(&mut node, proposed + 1, IdSet::from_ids([old.id()]), &mut c);
        c.take_actions();

        // The stale wake-up fires too early for the grown estimate: the
        // candidate is still all-fresh, so the gate must RE-ARM.
        c.set_now(c.now() + d1);
        node.on_timer(t1, &mut c);
        assert_eq!(node.instance(), proposed + 1, "still fresh at the stale wake-up");
        assert_eq!(node.unordered_len(), 1, "the id is gated, not lost");
        let (d2, t2) = armed_timer(&mut c, TIMER_PROPOSE);

        // The re-armed wake-up matures the id with NO background traffic.
        c.set_now(c.now() + d2);
        node.on_timer(t2, &mut c);
        assert_eq!(node.instance(), proposed + 2, "re-armed wake-up proposes");
        deliver_decide(&mut node, proposed + 2, IdSet::from_ids([fresh.id()]), &mut c);
        assert!(delivered_ids(&mut c).contains(&fresh.id()));
        assert_eq!(node.unordered_len(), 0);
    }
}

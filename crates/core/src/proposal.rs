//! How a proposal is chosen (Algorithm 1 lines 15–17 leave it open): the
//! pipeline window `W`, the per-proposal cap and the freshness gate.
//!
//! `ProposalPolicy` is sans-IO and sees the node only through its three
//! entry points — `select` for each proposal, `on_decision` per applied
//! decision and `on_rdeliver` per R-delivery — plus `has_room` for the
//! window check. With the defaults
//! (static `W = 1`, uncapped, gate off) it proposes every candidate, one
//! instance at a time: Algorithm 1 verbatim.

use iabc_types::{Duration, Ewma, IdSet, MsgId, Time};

use crate::store::ReceivedStore;

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
    /// delay* (an EWMA of this node's own RB delivery latency): a proposal
    /// naming a just-arrived id overtakes that id's Data frames, and every
    /// acceptor still missing the payload burns the round with a nack.
    /// Gated ids wait in `unordered`; a re-propose timer guarantees they
    /// are picked up even if no other event arrives.
    pub proposal_freshness: bool,
    /// When `true`, the node keeps a decided log, piggybacks its frontier
    /// on every frame and fetches what peers are ahead by (`recovery.rs`).
    /// Off by default: the wire format and event sequences are then
    /// bit-identical to the pre-catch-up behaviour.
    pub catch_up: bool,
    /// When `true`, the node is a *learner* (read replica): it never
    /// a-broadcasts, proposes, answers consensus or sends heartbeats, and
    /// follows the decided sequence through catch-up alone. The stacks set
    /// it, with `catch_up`, for every process in `StackParams::learners`.
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
const FRESHNESS_ALPHA: f64 = 0.1;

/// Safety factor on the flood delay estimate: an id is mature once it is
/// `FRESHNESS_FACTOR ×` the EWMA delivery latency old. At factor 1 about
/// half of a flood's tail is still in flight (the EWMA is a mean); a small
/// margin gives ~10× fewer nacked rounds for ~8% goodput at the 4 000
/// payloads/s knee. Large factors are *unstable*: deferring deepens the
/// very queues the estimate measures, and factor 1.5 already collapses
/// the knee to ~15% of the factor-1.1 goodput. Keep this close to 1.
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
        if backlog > self.cur.saturating_mul(self.cfg.max_proposal_ids) {
            self.grow_for(backlog);
        }
    }

    /// Jumps to the number of capped instances `backlog` needs (at least
    /// one step, at most `w_max`).
    fn grow_for(&mut self, backlog: usize) {
        if self.cur < self.cfg.w_max {
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
        let over_latency = latency.is_some_and(|l| l > self.cfg.latency_target);
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
                self.grow_for(backlog); // the backlog dictates the window
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

/// What [`ProposalPolicy::select`] decided for the next instance.
#[derive(Debug, PartialEq, Eq)]
pub(crate) enum Selection {
    /// Propose exactly these identifiers.
    Propose(IdSet),
    /// Every candidate is still mid-flood: propose nothing now. `Some(at)`
    /// asks the caller to arm the re-propose wake-up for `at`; `None`
    /// means one is already armed.
    Defer(Option<Time>),
}

/// The window controller, the proposal cap and the freshness gate, with
/// the counters they report.
#[derive(Debug)]
pub(crate) struct ProposalPolicy {
    controller: WindowController,
    /// Maximum identifiers per proposal (`usize::MAX` = uncapped).
    max_proposal_ids: usize,
    /// Proposals whose candidate set exceeded `max_proposal_ids`.
    cap_hits: u64,
    proposal_freshness: bool,
    /// EWMA of RB delivery latency (broadcast → local R-deliver) over
    /// *remote* messages, in seconds: local deliveries are instant and
    /// would drag it to zero.
    flood_delay: Ewma,
    /// Latest broadcast instant ever R-delivered: once even it is mature,
    /// so is every candidate, and the per-id scan is skipped — the steady
    /// state under a deep (hence old) backlog.
    newest_broadcast_at: Time,
    /// Ids the gate excluded so far (once per proposal they sat out).
    freshness_held: u64,
    /// Whether a re-propose wake-up is already in flight.
    propose_timer_armed: bool,
    /// `(sum, count)` of decision latencies of locally proposed instances.
    decision_latency: (Duration, u64),
}

impl ProposalPolicy {
    /// A policy for `cfg` (its window, cap and freshness fields).
    pub(crate) fn new(cfg: PipelineConfig) -> Self {
        ProposalPolicy {
            controller: WindowController::new(cfg),
            max_proposal_ids: cfg.max_proposal_ids.max(1),
            cap_hits: 0,
            proposal_freshness: cfg.proposal_freshness,
            flood_delay: Ewma::new(FRESHNESS_ALPHA),
            newest_broadcast_at: Time::ZERO,
            freshness_held: 0,
            propose_timer_armed: false,
            decision_latency: (Duration::ZERO, 0),
        }
    }

    /// The window controller (current window, bounds, adaptations).
    pub(crate) fn controller(&self) -> &WindowController {
        &self.controller
    }

    /// Proposals truncated by the cap so far.
    pub(crate) fn cap_hits(&self) -> u64 {
        self.cap_hits
    }

    /// Identifiers the freshness gate excluded from proposals so far.
    pub(crate) fn freshness_held(&self) -> u64 {
        self.freshness_held
    }

    /// `(sum, count)` of propose → apply latencies of local proposals.
    pub(crate) fn decision_latency_stats(&self) -> (Duration, u64) {
        self.decision_latency
    }

    /// Whether another instance may start while `in_flight` are running.
    /// A full window first reports `backlog()` as spill pressure (see
    /// [`WindowController::on_spill`]), which may widen it.
    pub(crate) fn has_room(&mut self, in_flight: usize, backlog: impl FnOnce() -> usize) -> bool {
        if in_flight >= self.controller.current() {
            self.controller.on_spill(backlog());
        }
        in_flight < self.controller.current()
    }

    /// Chooses the next proposal from the non-empty `candidate` set (ids
    /// neither in flight nor decided): the freshness gate drops ids still
    /// mid-flood, then the cap keeps the oldest.
    pub(crate) fn select(&mut self, mut candidate: IdSet, store: &ReceivedStore, now: Time) -> Selection {
        // Freshness gate: an id younger than ~one flood delay is still
        // mid-flood — a proposal naming it overtakes its own Data frames
        // and the round burns on nacks from acceptors missing the payload.
        // Keep such ids in `unordered` until they mature. Skip the per-id
        // scan when even the newest message ever R-delivered is already
        // mature — under a deep backlog the candidates are old, and this
        // makes the gate O(1) in steady state.
        if let Some(threshold) =
            self.freshness_threshold().filter(|&t| self.newest_broadcast_at + t > now)
        {
            let mut earliest_fresh: Option<Time> = None;
            let mut mature: Vec<MsgId> = Vec::with_capacity(candidate.len());
            for id in candidate.iter() {
                // Ids in `unordered` always have their message in the
                // store (rdeliver inserts there first); a missing entry
                // counts as mature rather than stranding the id.
                match store.get(id).map(|m| m.broadcast_at() + threshold) {
                    Some(ready_at) if ready_at > now => {
                        earliest_fresh = Some(earliest_fresh.map_or(ready_at, |t| t.min(ready_at)));
                    }
                    _ => mature.push(id),
                }
            }
            if mature.is_empty() {
                // Every candidate is mid-flood: do not burn a round — wake
                // up when the earliest one matures (nothing else is
                // guaranteed to re-trigger proposing). One wake-up at a
                // time; the caller runs `on_wake` *before* selecting again,
                // so an estimate that grew since arming re-arms here for
                // the later instant (`freshness_gate_rearms_when_estimate_grew`).
                let wake = earliest_fresh.filter(|_| !self.propose_timer_armed);
                self.propose_timer_armed |= wake.is_some();
                return Selection::Defer(wake);
            }
            let held = candidate.len() - mature.len();
            if held > 0 {
                self.freshness_held += held as u64;
                candidate = IdSet::from_ids(mature);
            }
        }
        if candidate.len() > self.max_proposal_ids {
            // Take the *oldest* ids first, round-robin across senders
            // (order by (seq, sender), not the set's (sender, seq) order):
            // old ids have had time to flood, so acceptors hold them and
            // `rcv` passes in one round, and no sender is starved by the
            // cap. Deterministic, so every process slices a shared backlog
            // the same way. Partition-select rather than sort: the backlog
            // can be enormous exactly when the cap matters.
            let mut oldest: Vec<MsgId> = candidate.iter().collect();
            let cap = self.max_proposal_ids;
            oldest.select_nth_unstable_by_key(cap - 1, |id| (id.seq(), id.sender()));
            oldest.truncate(cap);
            candidate = IdSet::from_ids(oldest);
            self.cap_hits += 1;
        }
        Selection::Propose(candidate)
    }

    /// The re-propose wake-up fired; the caller selects again next.
    pub(crate) fn on_wake(&mut self) {
        self.propose_timer_armed = false;
    }

    /// Feeds the applied decision of instance `k`: its propose → apply
    /// `latency` (`None` unless proposed here), the `backlog` after it and
    /// whether the window was full when it landed.
    pub(crate) fn on_decision(
        &mut self,
        k: u64,
        proposed_hi: u64,
        latency: Option<Duration>,
        backlog: usize,
        window_was_full: bool,
    ) {
        if let Some(l) = latency {
            self.decision_latency.0 += l;
            self.decision_latency.1 += 1;
        }
        self.controller.on_decision(k, proposed_hi, latency, backlog, window_was_full);
    }

    /// Observes the first R-delivery of a message broadcast at
    /// `broadcast_at`. A remote one is a sample of the flood delay
    /// (queueing included — under load that is the dominant term, and
    /// exactly what the gate must wait out).
    pub(crate) fn on_rdeliver(&mut self, broadcast_at: Time, remote: bool, now: Time) {
        if remote {
            self.flood_delay.observe(now.elapsed_since(broadcast_at).as_secs_f64());
        }
        self.newest_broadcast_at = self.newest_broadcast_at.max(broadcast_at);
    }

    /// The age below which a candidate id counts as still mid-flood:
    /// [`FRESHNESS_FACTOR`] × the measured flood delay. `None` while the
    /// gate is disabled or the estimate has not warmed up.
    fn freshness_threshold(&self) -> Option<Duration> {
        (self.proposal_freshness && self.flood_delay.warmed(FRESHNESS_WARMUP))
            .then(|| Duration::from_secs_f64(FRESHNESS_FACTOR * self.flood_delay.value()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use iabc_types::{AppMessage, Payload, ProcessId};

    impl ProposalPolicy {
        /// The flood delay estimate, `None` until [`FRESHNESS_WARMUP`]
        /// remote R-deliveries were observed.
        pub(crate) fn flood_delay_estimate(&self) -> Option<Duration> {
            let secs = self.flood_delay.value();
            self.flood_delay.warmed(FRESHNESS_WARMUP).then(|| Duration::from_secs_f64(secs))
        }
    }

    fn msg_at(p: u16, seq: u64, at: Time) -> AppMessage {
        AppMessage::new(MsgId::new(ProcessId::new(p), seq), Payload::zeroed(8), at)
    }

    /// The gate drops the fresh id first, then the cap keeps the two
    /// oldest of the mature rest: both filters compose, each counted once.
    #[test]
    fn freshness_then_cap_proposes_the_oldest_mature_ids() {
        let cfg = PipelineConfig {
            max_proposal_ids: 2,
            proposal_freshness: true,
            ..PipelineConfig::fixed(1)
        };
        let mut policy = ProposalPolicy::new(cfg);
        let delay = Duration::from_millis(20);
        let now = Time::ZERO + Duration::from_secs(1);
        let ago = |d: Duration| Time::from_nanos(now.as_nanos() - d.as_nanos());
        for _ in 0..FRESHNESS_WARMUP {
            policy.on_rdeliver(ago(delay), true, now);
        }
        assert!(policy.flood_delay_estimate().is_some(), "gate armed");
        // Three mature ids of different ages and one broadcast just now.
        let mut store = ReceivedStore::new();
        let msgs = [
            msg_at(1, 7, ago(Duration::from_millis(100))),
            msg_at(2, 3, ago(Duration::from_millis(300))),
            msg_at(1, 2, ago(Duration::from_millis(200))),
            msg_at(2, 9, now),
        ];
        for m in &msgs {
            policy.on_rdeliver(m.broadcast_at(), true, now);
            store.insert(m.clone());
        }
        let candidate = IdSet::from_ids(msgs.iter().map(AppMessage::id));
        let expected = IdSet::from_ids([msgs[1].id(), msgs[2].id()]);
        assert_eq!(policy.select(candidate, &store, now), Selection::Propose(expected));
        assert_eq!((policy.freshness_held(), policy.cap_hits()), (1, 1));
    }
}

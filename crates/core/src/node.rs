//! The composed atomic broadcast node: Algorithm 1 of the paper.
//!
//! [`AbcastNode`] holds Algorithm 1's state and transitions (lines 8,
//! 11–14, 15–18, 18–21, 22–25, each cited where it lives). How a proposal
//! is chosen — window, cap, freshness — is `ProposalPolicy`'s
//! (`proposal.rs`); the decided log, catch-up and the pending set are
//! `Recovery`'s (`recovery.rs`).

use std::collections::{BTreeMap, VecDeque};
use std::fmt;

use iabc_broadcast::{BcastDest, BcastOut, Broadcast};
use iabc_consensus::{ConsDest, InstanceManager, MgrOut, RcvOracle, SingleConsensus};
use iabc_fd::{FailureDetector, FdDest, FdEvent, FdOut};
use iabc_runtime::{Context, Node, TimerId};
use iabc_types::{AppMessage, Duration, IdRanges, IdSet, MsgId, ProcessId, ProcessSet, Time};

use crate::decided::{DecidedEntry, DecidedLog};
use crate::envelope::Envelope;
use crate::proposal::{PipelineConfig, ProposalPolicy, Selection};
use crate::recovery::{Recovery, TIMER_CATCHUP};
use crate::store::{CostModel, NodeOracle, OrderingValue, ReceivedStore};
use crate::{AbcastCommand, AbcastEvent};

/// Timer-id kind reserved for the failure detector.
const TIMER_FD: u32 = 1;

/// Timer-id kind of the re-propose wake-up the freshness gate asks for
/// ([`Selection::Defer`]): without it a gated, quiet backlog would stall.
const TIMER_PROPOSE: u32 = 2;

/// Decided instances (at least) the manager keeps for straggler repair and
/// relay-on-suspicion (see [`InstanceManager::gc_decided_below`]), or a
/// full window if larger: a peer that missed `k`'s one `Decide` holds the
/// others at most a window past `k`, so whoever learned `k` still has it.
const KEEP_DECIDED_INSTANCES: u64 = 8;

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
    /// Window, cap and freshness gate: when to propose, and which ids.
    policy: ProposalPolicy,
    /// Serial number of the latest instance proposed locally (line 6).
    proposed_hi: u64,
    /// The next instance whose decision may be applied; decisions for
    /// higher instances are buffered, lower ones dropped as stale.
    next_apply: u64,
    /// Per instance proposed here whose decision is not applied yet: the
    /// ids it proposed (excluded from newer proposals) and when.
    in_flight: BTreeMap<u64, (IdSet, Time)>,
    /// Decisions that arrived ahead of `next_apply`, held until their turn.
    decision_buffer: BTreeMap<u64, V>,
    /// Sequence number for this process's own broadcasts.
    next_seq: u64,
    delivered_count: u64,
    /// Consensus refusal *messages* sent (CT nacks / MR ⊥ echoes): one
    /// burned round shows up as up to `n - 1` of them system-wide, so
    /// compare the counter between configurations, not with round counts.
    nacks_sent: u64,
    /// Learner (read replica) mode — see [`PipelineConfig::learner`].
    learner: bool,
    /// Decided log, catch-up and pending set (`Some` iff catch-up or
    /// learner mode is configured).
    recovery: Option<Recovery<V>>,
    /// Highest a-delivered vector known per process, own included (one
    /// row per process, empty until a vector arrives) — what frees the
    /// broadcast layer's retained copies.
    known_delivered: Vec<Vec<u64>>,
}

impl<V: OrderingValue, A: SingleConsensus<V>> fmt::Debug for AbcastNode<V, A> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("AbcastNode")
            .field("me", &self.me)
            .field("proposed_hi", &self.proposed_hi)
            .field("next_apply", &self.next_apply)
            .field("window", &self.window())
            .field("in_flight", &self.in_flight.len())
            .field("unordered", &self.unordered.len())
            .field("ordered_pending", &self.ordered.len())
            .field("delivered", &self.delivered_count)
            .finish()
    }
}

type Ctx<V> = Context<Envelope<V>, AbcastEvent>;

/// The window controller's backlog signal: unordered ids *minus* ids in
/// buffered (decided, not yet applied) decisions — ordered work, not demand
/// for window slots; counting it would inflate spill pressure exactly in
/// the out-of-order bursts the controller must ride out.
fn backlog_signal<V: OrderingValue>(unordered: &IdSet, buffered: &BTreeMap<u64, V>) -> usize {
    unordered.len().saturating_sub(buffered.values().map(V::id_count).sum())
}

impl<V: OrderingValue, A: SingleConsensus<V>> AbcastNode<V, A> {
    /// Assembles a node from its modules. `algo_factory` builds the state
    /// machine of each consensus instance; `check_store` selects whether
    /// the `rcv` oracle really consults the received-message store;
    /// `pipeline` configures the proposal policy and recovery.
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
            policy: ProposalPolicy::new(pipeline),
            proposed_hi: 0,
            next_apply: 1,
            in_flight: BTreeMap::new(),
            decision_buffer: BTreeMap::new(),
            next_seq: 0,
            delivered_count: 0,
            nacks_sent: 0,
            learner: pipeline.learner,
            recovery: (pipeline.catch_up || pipeline.learner).then(|| Recovery::new(pipeline.learner)),
            known_delivered: Vec::new(),
        }
    }

    /// Replaces the decided log — typically with a
    /// [`crate::decided::DurableDecidedLog`] so the node survives a
    /// restart. Call before the node starts: `on_start` resumes from the
    /// log's frontier. No-op unless `catch_up` (or `learner`) is on.
    pub fn set_decided_log(&mut self, log: Box<dyn DecidedLog<V>>) {
        if let Some(r) = self.recovery.as_mut() {
            r.set_log(log);
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

    /// Pipeline window `W` the node may currently fill.
    pub fn window(&self) -> usize {
        self.policy.controller().current()
    }

    /// `(w_min, w_max)` of the window controller.
    pub fn window_bounds(&self) -> (usize, usize) {
        self.policy.controller().bounds()
    }

    /// Whether this node runs the adaptive window controller.
    pub fn is_adaptive_window(&self) -> bool {
        self.policy.controller().is_adaptive()
    }

    /// `(additive increases, multiplicative decreases)` of the window.
    pub fn window_adaptations(&self) -> (u64, u64) {
        self.policy.controller().adaptations()
    }

    /// Proposals truncated by the `max_proposal_ids` cap so far.
    pub fn proposal_cap_hits(&self) -> u64 {
        self.policy.cap_hits()
    }

    /// Identifiers the freshness gate excluded from proposals so far.
    pub fn freshness_held(&self) -> u64 {
        self.policy.freshness_held()
    }

    /// Consensus refusal messages (CT nacks, MR ⊥ echoes) sent so far.
    pub fn nacks_sent(&self) -> u64 {
        self.nacks_sent
    }

    /// Identifiers received but not yet a-delivered — the ingestion
    /// pressure signal adaptive batch coalescers key off.
    pub fn ingest_backlog(&self) -> usize {
        self.unordered.len() + self.ordered.len()
    }

    /// `(sum, count)` of propose → apply latencies of local proposals.
    pub fn decision_latency_stats(&self) -> (Duration, u64) {
        self.policy.decision_latency_stats()
    }

    /// Instances proposed locally whose decision has not been applied yet.
    pub fn in_flight(&self) -> usize {
        self.in_flight.len()
    }

    /// Decisions received ahead of order, waiting for a lower instance.
    pub fn buffered_decisions(&self) -> usize {
        self.decision_buffer.len()
    }

    /// The received-message store (for tests and probes).
    pub fn store(&self) -> &ReceivedStore {
        &self.store
    }

    /// Ranges held by the two ever-seen id sets (ordered, a-delivered):
    /// one per sender and set once every gap closed, however long the run.
    pub fn id_set_ranges(&self) -> usize {
        self.ordered_ever.range_count() + self.store.delivered_ranges()
    }

    /// Consensus instance slots currently retained (live + GC cache).
    pub fn consensus_slots(&self) -> usize {
        self.mgr.slot_count()
    }

    /// Copies the broadcast layer holds for a relay on suspicion (0 for a
    /// module that keeps none).
    pub fn rb_retained(&self) -> usize {
        self.bcast.retained().unwrap_or(0)
    }

    /// The highest instance fully a-delivered *and* logged (0 with
    /// catch-up off) — what the node piggybacks and can serve.
    pub fn decided_frontier(&self) -> u64 {
        self.recovery.as_ref().map_or(0, Recovery::frontier)
    }

    /// Catch-up requests this node sent so far.
    pub fn catch_up_requests(&self) -> u64 {
        self.recovery.as_ref().map_or(0, Recovery::catch_up_requests)
    }

    /// Decided entries learned through catch-up ahead of the apply cursor.
    pub fn caught_up_entries(&self) -> u64 {
        self.recovery.as_ref().map_or(0, Recovery::caught_up_entries)
    }

    /// Whether this node is a learner (read replica).
    pub fn is_learner(&self) -> bool {
        self.learner
    }

    /// Wraps an outgoing frame with the decided frontier when catch-up is
    /// on. With catch-up off this is the identity — the wire format is
    /// then byte-for-byte the pre-catch-up one.
    fn wrap(&self, env: Envelope<V>) -> Envelope<V> {
        match &self.recovery {
            Some(r) => r.wrap(env),
            None => env,
        }
    }

    /// Wraps an outgoing consensus or failure-detector frame. When the
    /// broadcast module retains copies (which only the collective
    /// a-delivered vector frees), the frame also carries this process's
    /// a-delivered vector, in the frontier wrapper — frontier 0 with
    /// catch-up off. Consensus frames move the vector while messages flow,
    /// heartbeats (when a heartbeat detector runs) once they stop.
    fn wrap_with_vector(&self, env: Envelope<V>, n: usize) -> Envelope<V> {
        if self.bcast.retained().is_none() {
            return self.wrap(env);
        }
        let delivered = self.delivered_vector(n);
        Envelope::WithFrontier { frontier: self.decided_frontier(), delivered, inner: Box::new(env) }
    }

    /// Per sender, how many of its messages this process has a-delivered
    /// from sequence number 0 on. The a-delivered prefix, not the RB layer's
    /// R-delivered one: a restart marks logged ids delivered in the store,
    /// while a fresh RB layer has seen nothing and would pin every peer.
    fn delivered_vector(&self, n: usize) -> Vec<u64> {
        ProcessId::all(n).map(|s| self.store.delivered_prefix(s)).collect()
    }

    /// Folds `from`'s piggybacked a-delivered vector into `known_delivered`
    /// (element-wise max), then hands the broadcast layer the per-sender
    /// minimum over all `n` processes, own vector included: what every
    /// process has a-delivered. A process not heard from counts as 0, so a
    /// crashed one pins the minimum. A vector of the wrong length is
    /// malformed remote input and changes nothing.
    fn on_delivered_vector(&mut self, from: ProcessId, delivered: &[u64], n: usize) {
        if delivered.len() != n || from.as_usize() >= n || self.bcast.retained().is_none() {
            return;
        }
        let own = self.delivered_vector(n);
        self.known_delivered.resize(n, vec![0; n]);
        for (p, vector) in [(self.me, own.as_slice()), (from, delivered)] {
            for (known, &d) in self.known_delivered[p.as_usize()].iter_mut().zip(vector) {
                *known = (*known).max(d);
            }
        }
        let stable: Vec<u64> =
            (0..n).map(|s| self.known_delivered.iter().map(|row| row[s]).min().unwrap_or(0)).collect();
        self.bcast.on_stable(&stable);
    }

    /// Runs one broadcast-layer call, then sends its frames and R-delivers
    /// what it delivered.
    fn drive_bcast(&mut self, ctx: &mut Ctx<V>, call: impl FnOnce(&mut (dyn Broadcast + Send), &mut BcastOut)) {
        let mut out = BcastOut::new();
        call(self.bcast.as_mut(), &mut out);
        for (dest, msg) in out.sends {
            match dest {
                BcastDest::To(q) => ctx.send(q, self.wrap(Envelope::Bcast(msg))),
                BcastDest::Others => ctx.send_to_others(self.wrap(Envelope::Bcast(msg))),
            }
        }
        for m in out.deliveries {
            self.rdeliver(m, ctx);
        }
    }

    /// Runs one failure-detector call at `now`, then sends its frames, arms
    /// its timers and acts on its suspicions.
    fn drive_fd(&mut self, ctx: &mut Ctx<V>, call: impl FnOnce(&mut (dyn FailureDetector + Send), Time, &mut FdOut)) {
        let mut out = FdOut::new();
        call(self.fd.as_mut(), ctx.now(), &mut out);
        for (dest, msg) in out.sends {
            let env = self.wrap_with_vector(Envelope::Fd(msg), ctx.n());
            match dest {
                FdDest::To(q) => ctx.send(q, env),
                FdDest::Others => ctx.send_to_others(env),
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
                    self.drive_bcast(ctx, |bcast, out| bcast.on_suspect(p, out));
                    // ...and waiting consensus instances may need to nack.
                    self.drive_mgr(ctx, |mgr, rcv, suspected, out| mgr.on_suspect(p, rcv, suspected, out));
                }
                FdEvent::Trust(p) => {
                    self.suspected.remove(p);
                }
            }
        }
    }

    /// Runs one consensus-manager call with the node's `rcv` oracle and
    /// suspect set, then sends its frames and applies its decisions.
    fn drive_mgr(
        &mut self,
        ctx: &mut Ctx<V>,
        call: impl FnOnce(&mut InstanceManager<V, A>, &dyn RcvOracle<V>, ProcessSet, &mut MgrOut<V>),
    ) {
        let mut out = MgrOut::new();
        let oracle = NodeOracle {
            store: &self.store,
            check_store: self.check_store,
            cost_per_id: self.cost.rcv_check_per_id,
        };
        call(&mut self.mgr, &oracle, self.suspected, &mut out);
        ctx.work(out.work);
        for (k, dest, msg) in out.sends {
            if msg.is_refusal() {
                self.nacks_sent += 1;
            }
            let env = self.wrap_with_vector(Envelope::Cons { k, msg }, ctx.n());
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

    /// Algorithm 1 lines 11–14: R-deliver.
    fn rdeliver(&mut self, m: AppMessage, ctx: &mut Ctx<V>) {
        let (id, broadcast_at) = (m.id(), m.broadcast_at());
        if !self.store.insert(m) {
            return; // duplicate copies are possible across layers
        }
        self.policy.on_rdeliver(broadcast_at, id.sender() != self.me, ctx.now());
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
    /// Which of them go into the proposal is the policy's call; the rest
    /// stay in `unordered` for a later instance.
    fn maybe_propose(&mut self, ctx: &mut Ctx<V>) {
        if self.learner {
            return; // learners never propose; they only consume decisions
        }
        while self
            .policy
            .has_room(self.in_flight.len(), || backlog_signal(&self.unordered, &self.decision_buffer))
        {
            // Ids already riding an in-flight instance are spoken for, and
            // ids in a buffered (decided, not yet applied) decision are
            // already ordered; proposing either again would spend a whole
            // consensus round on ids the apply-time dedupe will skip.
            let mut candidate = self.unordered.clone();
            for (claimed, _) in self.in_flight.values() {
                candidate.subtract(claimed);
            }
            for decided in self.decision_buffer.values() {
                candidate.subtract(&decided.ids());
            }
            if candidate.is_empty() {
                return;
            }
            let proposal = match self.policy.select(candidate, &self.store, ctx.now()) {
                Selection::Propose(ids) => V::from_unordered(&ids, &self.store),
                Selection::Defer(wake) => {
                    if let Some(at) = wake {
                        let delay = at.elapsed_since(ctx.now()).max(Duration::from_micros(1));
                        ctx.set_timer(delay, TimerId::new(TIMER_PROPOSE, 0));
                    }
                    return;
                }
            };
            self.proposed_hi += 1;
            let k = self.proposed_hi;
            ctx.work(self.cost.propose_per_id * proposal.id_count() as u64);
            self.in_flight.insert(k, (proposal.ids(), ctx.now()));
            // May recurse into handle_decision (an instance can decide
            // immediately); the loop re-reads window occupancy afterwards.
            self.drive_mgr(ctx, |mgr, rcv, suspected, out| mgr.propose(k, proposal, rcv, suspected, out));
        }
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
        let window_was_full = self.in_flight.len() >= self.window();
        let proposed_at = self.in_flight.remove(&k).map(|(_, at)| at);
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
        if let Some(r) = self.recovery.as_mut() {
            // Catch-up can apply an instance we never proposed; proposing
            // below an applied instance would leak that in-flight slot for
            // good, so the propose cursor follows the apply cursor. (Gated
            // on recovery: catch-up-off event sequences stay as they were.)
            self.proposed_hi = self.proposed_hi.max(k);
            r.queue(k, v, newly_ordered);
        }
        self.try_deliver(ctx);
        // Feed the policy before proposing again, so the next round of
        // proposals sees the adapted window.
        let latency = proposed_at.map(|at| ctx.now().elapsed_since(at));
        let backlog = backlog_signal(&self.unordered, &self.decision_buffer);
        self.policy.on_decision(k, self.proposed_hi, latency, backlog, window_was_full);
        // Bound the manager's footprint: old decided instances only serve
        // stragglers and relays on suspicion.
        let keep = KEEP_DECIDED_INSTANCES.max(self.window_bounds().1 as u64);
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
            if let Some(r) = self.recovery.as_mut() {
                r.delivered(&msg);
            }
            ctx.output(AbcastEvent::Delivered { msg });
        }
        if let Some(r) = self.recovery.as_mut() {
            r.drain_completed(self.me);
        }
    }

    /// Restart path: rebuilds the ordering state from the reloaded decided
    /// log. The logged prefix was a-delivered before the crash, so it is
    /// not re-delivered: its ids count as ordered *and* delivered (an old
    /// copy re-flooded to this incarnation's fresh RB layer is refused),
    /// the apply cursor jumps past it, and `next_seq` past every own id in
    /// the log. Only *logged* own ids are known here: the pending set is in
    /// memory, so the sequence number of a broadcast accepted but not yet
    /// logged before the crash can be reused. Closing that gap takes a
    /// durable pending set, written with the decided log's group commit.
    fn recover(&mut self) {
        let Some(r) = self.recovery.as_mut() else { return };
        let logged = r.reload_log();
        for e in logged {
            for id in e.value.ids().iter() {
                self.ordered_ever.insert(id);
                self.store.mark_delivered(id);
                if id.sender() == self.me {
                    self.next_seq = self.next_seq.max(id.seq().saturating_add(1));
                }
            }
        }
        if let Some(last) = logged.last() {
            self.next_apply = last.k.saturating_add(1);
            self.proposed_hi = self.proposed_hi.max(last.k);
        }
    }

    /// Applies a catch-up reply's entries through the normal decision path
    /// (`handle_decision` buffers, dedupes, and applies strictly in
    /// instance order — there is no second apply path), then hands the
    /// settled request back to recovery.
    fn absorb_catch_up(&mut self, entries: Vec<DecidedEntry<V>>, ctx: &mut Ctx<V>) {
        if self.recovery.is_none() {
            return;
        }
        let mut ahead = 0;
        for e in entries {
            ahead += u64::from(e.k >= self.next_apply);
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
        let window = self.window();
        if let Some(r) = self.recovery.as_mut() {
            r.on_reply(ahead, &self.ordered_ever, window, ctx);
        }
    }
}

impl<V: OrderingValue, A: SingleConsensus<V>> Node for AbcastNode<V, A> {
    type Msg = Envelope<V>;
    type Command = AbcastCommand;
    type Output = AbcastEvent;

    fn on_start(&mut self, ctx: &mut Ctx<V>) {
        self.recover();
        // Learners send no heartbeats. Peers that know the learner set
        // (StackParams::with_learner_set) exclude them from suspicion,
        // rotation and quorums natively; peers that don't will suspect
        // the silent replica, which still rotates coordination past it —
        // just after a wasted suspicion timeout.
        if !self.learner {
            self.drive_fd(ctx, |fd, now, out| fd.on_start(now, out));
        }
        if ctx.n() > 1 {
            if let Some(r) = self.recovery.as_mut() {
                r.probe(self.next_apply, ctx);
            }
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
        if let Some(r) = self.recovery.as_mut() {
            r.record(&m);
        }
        ctx.output(AbcastEvent::Broadcast { id });
        // Algorithm 1 line 8: R-broadcast(m).
        self.drive_bcast(ctx, |bcast, out| bcast.broadcast(m, out));
    }

    fn on_message(&mut self, from: ProcessId, msg: Envelope<V>, ctx: &mut Ctx<V>) {
        match msg {
            Envelope::Bcast(b) => self.drive_bcast(ctx, |bcast, out| bcast.on_message(from, b, out)),
            Envelope::Cons { k, msg } => {
                if self.learner {
                    return; // learners take no part in consensus, not even relays
                }
                self.drive_mgr(ctx, |mgr, rcv, suspected, out| mgr.on_message(k, from, msg, rcv, suspected, out));
            }
            Envelope::Fd(f) => self.drive_fd(ctx, |fd, now, out| fd.on_message(now, from, f, out)),
            Envelope::CatchUpRequest { from_k, to_k } => match &self.recovery {
                Some(r) => r.serve(from, from_k, to_k, ctx),
                // Catch-up off here: answer empty, not silence.
                None => ctx.send(from, Envelope::CatchUpReply { entries: Vec::new() }),
            },
            Envelope::CatchUpReply { entries } => self.absorb_catch_up(entries, ctx),
            Envelope::WithFrontier { frontier, delivered, inner } => {
                self.on_delivered_vector(from, &delivered, ctx.n());
                // Catch-up off: tolerate the wrapper, ignore the hint.
                let window = self.window();
                if let Some(r) = self.recovery.as_mut() {
                    r.note_frontier(from, frontier, window, ctx);
                }
                // Decode bounds nesting to one level, so this recursion
                // cannot be driven deeper by remote input.
                self.on_message(from, *inner, ctx);
            }
        }
    }

    fn on_timer(&mut self, timer: TimerId, ctx: &mut Ctx<V>) {
        match timer.kind() {
            TIMER_FD => self.drive_fd(ctx, |fd, now, out| fd.on_timer(now, timer.data(), out)),
            TIMER_PROPOSE => {
                self.policy.on_wake();
                self.maybe_propose(ctx);
            }
            TIMER_CATCHUP => {
                let window = self.window();
                if let Some(r) = self.recovery.as_mut() {
                    r.on_timer(timer.data(), window, ctx);
                }
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decided::MemDecidedLog;
    use crate::msgset::MsgSet;
    use crate::proposal::{WindowController, FRESHNESS_FACTOR, FRESHNESS_WARMUP};
    use crate::recovery::{CATCH_UP_RETRY, CATCH_UP_RETRY_MAX};
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
        c.take_actions();
        node.handle_decision(1, ghost, &mut c);
        assert!(c.take_actions().is_empty(), "stale decision must emit nothing");
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
        assert_eq!(node.buffered_decisions(), 1);
        // Instance 1 releases the buffered instance 2 as first decided:
        // the duplicate's id is never ordered, let alone delivered.
        c.take_actions();
        node.handle_decision(1, IdSet::from_ids([msg(1, 0).id()]), &mut c);
        assert_eq!(delivered_ids(&mut c), vec![msg(1, 0).id(), msg(1, 1).id()]);
        assert_eq!(node.ordered_pending(), 0, "duplicate buffered decision dropped");
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
        // Instance 2 was never proposed here: applying its decision has no
        // latency to report.
        c.set_now(Time::ZERO + Duration::from_millis(9));
        node.handle_decision(2, IdSet::from_ids([msg(2, 0).id()]), &mut c);
        assert_eq!(node.decision_latency_stats(), (Duration::from_millis(4), 1));
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
        let est = node.policy.flood_delay_estimate().expect("estimate warmed");
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
        let est = node.policy.flood_delay_estimate().expect("still warmed");
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
        assert!(node.policy.flood_delay_estimate().is_none());
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
            && matches!(unwrapped(m), Envelope::Cons { k: 3, msg: ConsMsg::CtAck { round: 1 } })));
    }

    /// The frame inside a piggyback wrapper, or the frame itself.
    fn unwrapped<V>(env: &Envelope<V>) -> &Envelope<V> {
        match env {
            Envelope::WithFrontier { inner, .. } => inner,
            other => other,
        }
    }

    /// A peer heartbeat carrying the peer's a-delivered vector.
    fn with_vector(delivered: Vec<u64>) -> Envelope<IdSet> {
        Envelope::WithFrontier { frontier: 0, delivered, inner: Box::new(Envelope::Fd(FdMsg::Heartbeat(0))) }
    }

    /// Lazy RB (the default) keeps copies, so every consensus frame carries
    /// the a-delivered vector; RB frames travel bare.
    #[test]
    fn consensus_frames_carry_the_delivered_vector() {
        let mut node = indirect_node();
        let mut c = ctx();
        deliver_data(&mut node, 1, msg(1, 0), &mut c);
        deliver_decide(&mut node, 1, IdSet::from_ids([msg(1, 0).id()]), &mut c);
        c.take_actions();
        // Our broadcast R-delivers here at once, and we coordinate
        // instance 2's first round: one Data frame, then a proposal.
        node.on_command(AbcastCommand::Broadcast(Payload::zeroed(8)), &mut c);
        let out = sends(&mut c);
        assert!(out.iter().any(|(_, m)| matches!(m, Envelope::Bcast(BcastMsg::Data(_)))));
        let cons: Vec<_> = out.iter().filter(|(_, m)| !matches!(m, Envelope::Bcast(_))).collect();
        assert!(!cons.is_empty());
        for (_, m) in cons {
            assert!(
                matches!(m, Envelope::WithFrontier { frontier: 0, delivered, inner }
                    if delivered == &[0, 1, 0] && matches!(**inner, Envelope::Cons { k: 2, .. })),
                "{m:?}"
            );
        }
    }

    /// The vector is remote input: a malformed one changes nothing. A copy
    /// goes once every process is past it, a peer not heard from counting
    /// as 0.
    #[test]
    fn a_vector_of_the_wrong_length_changes_nothing() {
        let mut node = indirect_node();
        let mut c = ctx();
        deliver_data(&mut node, 1, msg(1, 0), &mut c);
        deliver_decide(&mut node, 1, IdSet::from_ids([msg(1, 0).id()]), &mut c);
        assert_eq!((node.delivered_count(), node.rb_retained()), (1, 1));
        c.take_actions();
        for bad in [vec![1, 1], vec![1, 1, 1, 1]] {
            node.on_message(ProcessId::new(1), with_vector(bad.clone()), &mut c);
            node.on_message(ProcessId::new(2), with_vector(bad), &mut c);
        }
        node.on_message(ProcessId::new(7), with_vector(vec![1, 1, 1]), &mut c);
        assert!(c.take_actions().is_empty());
        assert!(node.known_delivered.is_empty(), "nothing recorded");
        assert_eq!(node.rb_retained(), 1);
        node.on_message(ProcessId::new(1), with_vector(vec![0, 1, 0]), &mut c);
        assert_eq!(node.rb_retained(), 1, "p2 has not been heard from");
        node.on_message(ProcessId::new(2), with_vector(vec![0, 1, 0]), &mut c);
        assert_eq!(node.rb_retained(), 0, "a-delivered everywhere");
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

    /// A catch-up node's recovery component.
    fn recovery(node: &AbcastNode<IdSet, CtConsensus<IdSet>>) -> &Recovery<IdSet> {
        node.recovery.as_ref().expect("catch-up is on")
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
            delivered: Vec::new(),
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
                Envelope::WithFrontier { frontier, inner, .. } => match *inner {
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
        assert_eq!(recovery(&node).pending_broadcasts(), 0);
        node.on_command(AbcastCommand::Broadcast(Payload::zeroed(8)), &mut c);
        assert_eq!(recovery(&node).pending_broadcasts(), 1, "accepted broadcast is pending");
        // The instance ordering our id reaches the log: entry cleared.
        deliver_decide(&mut node, 1, IdSet::from_ids([MsgId::new(ProcessId::new(0), 0)]), &mut c);
        assert_eq!(node.decided_frontier(), 1);
        assert_eq!(recovery(&node).pending_broadcasts(), 0, "logged broadcast must clear");
        // Without catch-up there is no pending tracking at all.
        assert!(test_node(1).recovery.is_none());
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
        assert_eq!(recovery(&node).pending_refloods(), 1);
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
                delivered: Vec::new(),
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
        c.take_actions();
        node.handle_decision(1, IdSet::from_ids([msg(9, 9).id()]), &mut c);
        assert!(c.take_actions().is_empty(), "stale decision must emit nothing");
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

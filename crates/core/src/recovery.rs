//! Recovery: everything catch-up turns on — the decided log, the catch-up
//! request machine and the pending set.
//!
//! A node holds a [`Recovery`] iff catch-up or learner mode is configured;
//! without one, Algorithm 1 runs alone and the wire format is the
//! pre-catch-up one. The component is sans-IO and acts on the ordering
//! state only through the node: caught-up entries go back to the node's one
//! apply path (`handle_decision`), and the log learns of applied instances
//! and deliveries through [`Recovery::queue`] and [`Recovery::delivered`].
//!
//! Every frame peers send here is remote input — catch-up ranges, reply
//! entries, piggybacked frontiers — and must degrade, never panic.

use std::collections::{BTreeMap, VecDeque};

use iabc_broadcast::BcastMsg;
use iabc_runtime::{Context, TimerId};
use iabc_types::{AppMessage, Duration, IdRanges, ProcessId};

use crate::decided::{DecidedEntry, DecidedLog, MemDecidedLog};
use crate::envelope::Envelope;
use crate::store::OrderingValue;
use crate::AbcastEvent;

type Ctx<V> = Context<Envelope<V>, AbcastEvent>;

/// Timer-id kind of the catch-up retry: armed with each outstanding
/// [`Envelope::CatchUpRequest`] so a lost request or reply is re-requested
/// from the then-best peer. Its `data` is the request epoch.
pub(crate) const TIMER_CATCHUP: u32 = 3;

/// Maximum decided entries per [`Envelope::CatchUpReply`] — the requester
/// asks for at most this many and the server clamps to it regardless, so
/// a deep gap streams as bounded batches instead of one giant frame.
const CATCH_UP_BATCH: u64 = 64;

/// Initial wait for a [`Envelope::CatchUpReply`] before re-requesting;
/// each unanswered request doubles it up to [`CATCH_UP_RETRY_MAX`] (a
/// fixed short retry would hammer an unreachable peer), a reply resets it.
pub(crate) const CATCH_UP_RETRY: Duration = Duration::from_millis(25);

/// Upper bound of the catch-up retry backoff.
pub(crate) const CATCH_UP_RETRY_MAX: Duration = Duration::from_millis(400);

/// The decided log, the catch-up request machine and the pending set of
/// one node.
pub(crate) struct Recovery<V> {
    /// Every fully a-delivered instance, in order; its frontier is what the
    /// node piggybacks and serves. In memory unless [`Recovery::set_log`]
    /// swapped in a durable one before start.
    log: Box<dyn DecidedLog<V>>,
    /// This process's accepted-but-undecided broadcasts by sequence number
    /// (always empty at a learner, which never broadcasts): recorded at
    /// `on_command`, settled when their instance reaches the log,
    /// re-flooded after catch-up episodes. Every entry is an own
    /// broadcast, so sequence order is acceptance order. In memory only:
    /// a restarted process starts with none.
    pending: BTreeMap<u64, AppMessage>,
    /// Learner (read replica) mode: every lead is requested at once.
    learner: bool,
    /// Applied instances whose deliveries are still draining, oldest first
    /// (deliveries drain in instance order, so completion is front-first).
    pending_log: VecDeque<PendingLogEntry<V>>,
    /// Highest decided frontier piggybacked by each peer.
    peer_frontiers: BTreeMap<ProcessId, u64>,
    /// Whether a request is outstanding (one at a time: batches apply in
    /// order) — or, for a lead inside the window, the wait standing in for
    /// one.
    catch_up_inflight: bool,
    /// The first missing instance at which a lead inside the window was
    /// last given one [`CATCH_UP_RETRY`] to close by itself. Never
    /// cleared: the frontier only grows, so it cannot match a later lead.
    catch_up_waited_at: Option<u64>,
    /// Bumped per request and per reply; only the retry timer armed under
    /// the current epoch may re-request.
    catch_up_epoch: u64,
    /// The next retry delay.
    catch_up_retry: Duration,
    catch_up_requests: u64,
    /// Entries learned from replies while ahead of the apply cursor.
    caught_up_entries: u64,
    pending_refloods: u64,
}

/// One applied instance awaiting its deliveries; it collects their
/// payloads so the log entry appended on completion is self-contained.
struct PendingLogEntry<V> {
    k: u64,
    value: V,
    /// Ids this instance newly ordered that have not been a-delivered yet.
    remaining: usize,
    /// Payloads of the delivered ids, in delivery order.
    payloads: Vec<AppMessage>,
}

impl<V: OrderingValue> Recovery<V> {
    /// An empty in-memory log and pending set.
    pub(crate) fn new(learner: bool) -> Self {
        Recovery {
            log: Box::new(MemDecidedLog::new()),
            pending: BTreeMap::new(),
            learner,
            pending_log: VecDeque::new(),
            peer_frontiers: BTreeMap::new(),
            catch_up_inflight: false,
            catch_up_waited_at: None,
            catch_up_epoch: 0,
            catch_up_retry: CATCH_UP_RETRY,
            catch_up_requests: 0,
            caught_up_entries: 0,
            pending_refloods: 0,
        }
    }

    /// Replaces the decided log (before start).
    pub(crate) fn set_log(&mut self, log: Box<dyn DecidedLog<V>>) {
        self.log = log;
    }

    /// The decided frontier: the highest instance fully a-delivered and
    /// logged.
    pub(crate) fn frontier(&self) -> u64 {
        self.log.frontier()
    }

    /// Catch-up requests sent so far.
    pub(crate) fn catch_up_requests(&self) -> u64 {
        self.catch_up_requests
    }

    /// Decided entries learned through catch-up replies so far.
    pub(crate) fn caught_up_entries(&self) -> u64 {
        self.caught_up_entries
    }

    /// Wraps an outgoing frame with the decided frontier. Riding *every*
    /// frame, the frontier needs no schedule of its own and spreads even
    /// with the failure detector off.
    pub(crate) fn wrap(&self, env: Envelope<V>) -> Envelope<V> {
        Envelope::WithFrontier { frontier: self.log.frontier(), delivered: Vec::new(), inner: Box::new(env) }
    }

    /// Records an accepted broadcast *before* it is flooded, so a flood
    /// shed while this process was cut off is repeated once a catch-up
    /// episode settles. Recording an id already pending is a no-op.
    pub(crate) fn record(&mut self, m: &AppMessage) {
        self.pending.entry(m.id().seq()).or_insert_with(|| m.clone());
    }

    /// Queues applied instance `k`, which newly ordered `remaining` ids, for
    /// the log; it is appended once they are all delivered (at once for an
    /// all-duplicates decision).
    pub(crate) fn queue(&mut self, k: u64, value: V, remaining: usize) {
        let payloads = Vec::with_capacity(remaining);
        self.pending_log.push_back(PendingLogEntry { k, value, remaining, payloads });
    }

    /// Notes an a-delivery. Deliveries drain in instance order, so it
    /// belongs to the oldest queued instance that still has ids
    /// outstanding (entries at zero merely wait to be appended in order).
    pub(crate) fn delivered(&mut self, msg: &AppMessage) {
        if let Some(p) = self.pending_log.iter_mut().find(|p| p.remaining > 0) {
            p.remaining -= 1;
            p.payloads.push(msg.clone());
        }
    }

    /// Appends every fully delivered instance at the front of the queue to
    /// the log, preserving contiguity, and settles `me`'s broadcasts they
    /// order (settling an id not pending is a no-op).
    pub(crate) fn drain_completed(&mut self, me: ProcessId) {
        while self.pending_log.front().is_some_and(|p| p.remaining == 0) {
            let Some(p) = self.pending_log.pop_front() else { break };
            for id in p.value.ids().iter().filter(|id| id.sender() == me) {
                self.pending.remove(&id.seq());
            }
            self.log.append(DecidedEntry { k: p.k, value: p.value, payloads: p.payloads });
        }
    }

    /// Restart: reloads the log and returns its whole prefix. Entries are
    /// only appended once every id in the instance has been delivered, so
    /// the caller marks it delivered, not re-delivers it.
    pub(crate) fn reload_log(&mut self) -> &[DecidedEntry<V>] {
        self.log.reload();
        self.log.range(1, self.log.frontier())
    }

    /// Bootstrap probe at start (a quiet cluster sends no frontiers): one
    /// request to everyone from the apply cursor `from_k` primes
    /// `peer_frontiers` from the wrapped replies and fetches any backlog.
    pub(crate) fn probe(&mut self, from_k: u64, ctx: &mut Ctx<V>) {
        let to_k = from_k.saturating_add(CATCH_UP_BATCH - 1);
        self.catch_up_requests += 1;
        ctx.send_to_others(self.wrap(Envelope::CatchUpRequest { from_k, to_k }));
        self.arm_catch_up_retry(ctx);
    }

    /// Serves a peer's catch-up request from the log, clamped to what we
    /// hold and to `CATCH_UP_BATCH`. Always answers, if only with an
    /// empty batch: the reply settles the request and carries our frontier.
    pub(crate) fn serve(&self, from: ProcessId, from_k: u64, to_k: u64, ctx: &mut Ctx<V>) {
        let hi = to_k.min(from_k.saturating_add(CATCH_UP_BATCH - 1));
        let entries = self.log.range(from_k, hi).to_vec();
        ctx.send(from, self.wrap(Envelope::CatchUpReply { entries }));
    }

    /// Records a peer's piggybacked frontier and starts catching up if it
    /// proves the peer holds instances we have not delivered. `window` is
    /// the node's current pipeline window.
    pub(crate) fn note_frontier(&mut self, from: ProcessId, frontier: u64, window: usize, ctx: &mut Ctx<V>) {
        let known = self.peer_frontiers.entry(from).or_insert(0);
        *known = (*known).max(frontier);
        self.maybe_catch_up(window, ctx);
    }

    /// A reply arrived and the caller applied its entries, `ahead` of
    /// which were past its apply cursor: settles the request, re-floods
    /// the pending set, and keeps fetching if still behind.
    pub(crate) fn on_reply(&mut self, ahead: u64, ordered_ever: &IdRanges, window: usize, ctx: &mut Ctx<V>) {
        // Bump the epoch so the request's retry timer (still scheduled)
        // cannot re-request. The peer is answering again: restart the
        // retry backoff from its base.
        self.catch_up_inflight = false;
        self.catch_up_epoch = self.catch_up_epoch.wrapping_add(1);
        self.catch_up_retry = CATCH_UP_RETRY;
        self.caught_up_entries += ahead;
        // A settling catch-up episode is the "I was behind and healed"
        // signal: repair any accepted broadcast whose payload flood may
        // have been shed while this node was unreachable. Pending sets are
        // empty in healthy runs, so this is free there.
        self.reflood_pending(ordered_ever, ctx);
        self.maybe_catch_up(window, ctx);
    }

    /// The catch-up timer armed under `epoch` fired. Only the
    /// timer of the *current* outstanding request (or wait) may act:
    /// replies bump the epoch, so timers from settled requests are inert.
    pub(crate) fn on_timer(&mut self, epoch: u64, window: usize, ctx: &mut Ctx<V>) {
        if self.catch_up_inflight && epoch == self.catch_up_epoch {
            self.catch_up_inflight = false;
            self.maybe_catch_up(window, ctx);
        }
    }

    /// Issues a catch-up request when some peer has a-delivered instances
    /// we have not — its frontier against ours, like with like — and no
    /// request is outstanding. An instance we have applied but cannot
    /// deliver (its decision reached us, a payload did not) counts as
    /// missing: the reply's entry carries the payloads. Deterministic peer
    /// choice: the highest advertised frontier, ties to the smallest
    /// process id.
    ///
    /// A peer that is ahead by no more than our `window` proves nothing: a
    /// decision is announced once, by its decider, so a third process that
    /// already delivered it routinely shows a frontier covering instances
    /// whose `Decide` (or payload) is still on its way to us. Such a lead
    /// gets one [`CATCH_UP_RETRY`] to close by itself; only if our frontier
    /// has not moved by then is the request sent. A lead past the window
    /// is real lag and is requested at once — as is any lead at a learner,
    /// which has no other source of decisions. (The wait holds
    /// `catch_up_inflight`, so a lead that grows past the window *during*
    /// it is requested when it ends: at most 25 ms late.)
    fn maybe_catch_up(&mut self, window: usize, ctx: &mut Ctx<V>) {
        if self.catch_up_inflight {
            return;
        }
        let from_k = self.log.frontier().saturating_add(1);
        let best = self
            .peer_frontiers
            .iter()
            .filter(|&(_, &f)| f >= from_k)
            .max_by_key(|&(&p, &f)| (f, std::cmp::Reverse(p)));
        let Some((&peer, &frontier)) = best else { return };
        if frontier - from_k < window as u64
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
        ctx.send(peer, self.wrap(Envelope::CatchUpRequest { from_k, to_k }));
        self.arm_catch_up_retry(ctx);
    }

    /// Marks a request outstanding and arms its retry timer, doubling the
    /// next delay up to [`CATCH_UP_RETRY_MAX`].
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

    /// Re-floods every pending broadcast not yet ordered, as direct RB
    /// relay frames (the live RB layer has already seen these ids, so a
    /// fresh broadcast would no-op). Receivers dedupe by id.
    fn reflood_pending(&mut self, ordered_ever: &IdRanges, ctx: &mut Ctx<V>) {
        let mut sent = 0;
        for m in self.pending.values().filter(|m| !ordered_ever.contains(m.id())) {
            ctx.send_to_others(self.wrap(Envelope::Bcast(BcastMsg::Relay(m.clone()))));
            sent += 1;
        }
        self.pending_refloods += sent;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use iabc_types::{IdSet, MsgId, Payload, Time};

    impl<V: OrderingValue> Recovery<V> {
        /// Accepted broadcasts whose instance has not reached the log yet.
        pub(crate) fn pending_broadcasts(&self) -> usize {
            self.pending.len()
        }

        /// Pending broadcasts re-flooded so far (after catch-up episodes).
        pub(crate) fn pending_refloods(&self) -> u64 {
            self.pending_refloods
        }
    }

    fn msg(p: u16, seq: u64) -> AppMessage {
        AppMessage::new(MsgId::new(ProcessId::new(p), seq), Payload::zeroed(8), Time::ZERO)
    }

    /// An instance reaches the log only once all its ids are delivered,
    /// and never ahead of an older one; only then are its own ids settled.
    #[test]
    fn instances_are_logged_in_order_once_fully_delivered() {
        let me = ProcessId::new(0);
        let mut r: Recovery<IdSet> = Recovery::new(false);
        let (own, peer, late) = (msg(0, 0), msg(1, 0), msg(1, 1));
        r.record(&own);
        r.queue(1, IdSet::from_ids([own.id(), peer.id()]), 2);
        r.queue(2, IdSet::from_ids([late.id()]), 1);
        r.delivered(&own);
        r.drain_completed(me);
        assert_eq!((r.frontier(), r.pending_broadcasts()), (0, 1), "instance 1 half delivered");
        r.delivered(&peer);
        r.drain_completed(me);
        assert_eq!((r.frontier(), r.pending_broadcasts()), (1, 0), "logged, own id settled");
        r.delivered(&late);
        r.drain_completed(me);
        assert_eq!(r.frontier(), 2);
        let logged = r.reload_log();
        assert_eq!(logged[0].payloads, vec![own, peer], "payloads in delivery order");
    }

    /// Recording an id already pending and settling one that is not are
    /// no-ops; what stays pending keeps acceptance order.
    #[test]
    fn mem_store_records_and_clears_in_order() {
        let me = ProcessId::new(0);
        let mut r: Recovery<IdSet> = Recovery::new(false);
        for seq in [1, 2, 3, 1] {
            r.record(&msg(0, seq));
        }
        assert_eq!(r.pending_broadcasts(), 3, "duplicate record is a no-op");
        // An all-duplicates instance logs at once, settling (0, 2) and the
        // absent (0, 9).
        r.queue(1, IdSet::from_ids([msg(0, 2).id(), msg(0, 9).id()]), 0);
        r.drain_completed(me);
        let seqs: Vec<u64> = r.pending.values().map(|m| m.id().seq()).collect();
        assert_eq!(seqs, vec![1, 3]);
    }
}

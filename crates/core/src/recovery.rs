//! Recovery: everything catch-up turns on — the decided log and the
//! catch-up request machine.
//!
//! A node holds a [`Recovery`] iff catch-up or learner mode is configured;
//! without one, Algorithm 1 runs alone and the wire format is the
//! pre-catch-up one. The component is sans-IO and acts on the ordering
//! state only through the node: caught-up entries go back to the node's one
//! apply path (`handle_decision`, which hands them to the consensus
//! manager), and the log learns of applied instances and deliveries through
//! [`Recovery::queue`] and [`Recovery::delivered`]. What peers have logged,
//! and the wrapper its frames ride in, come from the node's [`Collective`].
//!
//! Every frame peers send here is remote input — catch-up ranges, reply
//! entries, piggybacked frontiers — and must degrade, never panic.

use std::collections::VecDeque;

use iabc_runtime::{Context, TimerId};
use iabc_types::{AppMessage, Duration, ProcessId};

use crate::collective::Collective;
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

/// The decided log and the catch-up request machine of one node.
pub(crate) struct Recovery<V> {
    /// Every fully a-delivered instance, in order; its frontier is what the
    /// node piggybacks. In memory unless [`Recovery::set_log`] swapped in a
    /// durable one before start. The in-memory log drops what every member
    /// has logged (see [`Recovery::on_piggyback`]) and serves the rest; the
    /// durable one keeps and serves everything.
    log: Box<dyn DecidedLog<V>>,
    /// Learner (read replica) mode: every lead is requested at once.
    learner: bool,
    /// Applied instances whose deliveries are still draining, oldest first
    /// (deliveries drain in instance order, so completion is front-first).
    pending_log: VecDeque<PendingLogEntry<V>>,
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
    /// Whether this catch-up episode fetched an entry ahead of the cursor
    /// or a payload the node lacked.
    episode_fetched: bool,
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
    /// An empty in-memory log.
    pub(crate) fn new(learner: bool) -> Self {
        Recovery {
            log: Box::new(MemDecidedLog::new()),
            learner,
            pending_log: VecDeque::new(),
            catch_up_inflight: false,
            catch_up_waited_at: None,
            catch_up_epoch: 0,
            catch_up_retry: CATCH_UP_RETRY,
            catch_up_requests: 0,
            caught_up_entries: 0,
            episode_fetched: false,
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

    /// Entries the decided log holds.
    pub(crate) fn held(&self) -> usize {
        self.log.held()
    }

    /// Catch-up requests sent so far.
    pub(crate) fn catch_up_requests(&self) -> u64 {
        self.catch_up_requests
    }

    /// Decided entries learned through catch-up replies so far.
    pub(crate) fn caught_up_entries(&self) -> u64 {
        self.caught_up_entries
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
    /// the log, preserving contiguity.
    pub(crate) fn drain_completed(&mut self) {
        while self.pending_log.front().is_some_and(|p| p.remaining == 0) {
            let Some(p) = self.pending_log.pop_front() else { break };
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
    /// request to everyone from the apply cursor `from_k` learns every
    /// peer's frontier from the wrapped replies and fetches any backlog.
    pub(crate) fn probe(&mut self, from_k: u64, c: &Collective, ctx: &mut Ctx<V>) {
        let to_k = from_k.saturating_add(CATCH_UP_BATCH - 1);
        self.catch_up_requests += 1;
        ctx.send_to_others(c.wrap(Envelope::CatchUpRequest { from_k, to_k }, false, ctx.n()));
        self.arm_catch_up_retry(ctx);
    }

    /// Serves a peer's catch-up request from the log, clamped to what we
    /// hold and to `CATCH_UP_BATCH`. Always answers, if only with an
    /// empty batch: the reply settles the request and carries our frontier.
    /// A request from an instance the log dropped gets the empty batch too,
    /// not a suffix that skips instances.
    pub(crate) fn serve(&self, from: ProcessId, from_k: u64, to_k: u64, c: &Collective, ctx: &mut Ctx<V>) {
        let hi = to_k.min(from_k.saturating_add(CATCH_UP_BATCH - 1));
        let entries = self.log.range(from_k, hi).to_vec();
        ctx.send(from, c.wrap(Envelope::CatchUpReply { entries }, false, ctx.n()));
    }

    /// A piggyback was folded into `c`: lets the log drop through `floor`,
    /// what every member has logged, and catches up if some peer's frontier
    /// proves it holds instances we have not delivered. `window` is the
    /// node's current pipeline window.
    pub(crate) fn on_piggyback(&mut self, floor: u64, window: usize, c: &Collective, ctx: &mut Ctx<V>) {
        self.log.release_through(floor);
        self.maybe_catch_up(window, c, ctx);
    }

    /// A reply arrived and the caller applied its entries, `ahead` of
    /// which were past its apply cursor, and stored `stored` payloads it
    /// lacked: settles the request and keeps fetching if still behind.
    /// True: re-flood now (`episode_ended`).
    ///
    /// Either count marks the episode as healing. A process cut off long
    /// enough can learn every decision it missed from parked `Decide`s and
    /// still lack their payloads: its replies then hold entries below the
    /// apply cursor only, and its own broadcasts shed while it was cut off
    /// still need the re-flood.
    pub(crate) fn on_reply(
        &mut self,
        ahead: u64,
        stored: u64,
        window: usize,
        c: &Collective,
        ctx: &mut Ctx<V>,
    ) -> bool {
        // Bump the epoch so the request's retry timer (still scheduled)
        // cannot re-request. The peer is answering again: restart the
        // retry backoff from its base.
        self.catch_up_inflight = false;
        self.catch_up_epoch = self.catch_up_epoch.wrapping_add(1);
        self.catch_up_retry = CATCH_UP_RETRY;
        self.caught_up_entries += ahead;
        self.episode_fetched |= ahead > 0 || stored > 0;
        self.maybe_catch_up(window, c, ctx);
        self.episode_ended()
    }

    /// The catch-up timer armed under `epoch` fired. Only the
    /// timer of the *current* outstanding request (or wait) may act:
    /// replies bump the epoch, so timers from settled requests are inert.
    /// Returns whether the caller re-floods now.
    pub(crate) fn on_timer(&mut self, epoch: u64, window: usize, c: &Collective, ctx: &mut Ctx<V>) -> bool {
        if self.catch_up_inflight && epoch == self.catch_up_epoch {
            self.catch_up_inflight = false;
            self.maybe_catch_up(window, c, ctx);
        }
        self.episode_ended()
    }

    /// Whether a catch-up episode (requests and waits back to back) just
    /// ended having fetched entries ahead of the apply cursor or payloads
    /// the node lacked: the "I was behind and healed" signal, on which the
    /// node re-floods, once.
    fn episode_ended(&mut self) -> bool {
        !self.catch_up_inflight && std::mem::take(&mut self.episode_fetched)
    }

    /// Issues a catch-up request when some peer has a-delivered instances
    /// we have not — its frontier against ours, like with like — and no
    /// request is outstanding. An instance we have applied but cannot
    /// deliver (its decision reached us, a payload did not) counts as
    /// missing: the reply's entry carries the payloads. Deterministic peer
    /// choice ([`Collective::best_peer`]): the highest advertised frontier,
    /// ties to the smallest process id.
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
    fn maybe_catch_up(&mut self, window: usize, c: &Collective, ctx: &mut Ctx<V>) {
        if self.catch_up_inflight {
            return;
        }
        let from_k = self.log.frontier().saturating_add(1);
        let Some((peer, frontier)) = c.best_peer(from_k) else { return };
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
        ctx.send(peer, c.wrap(Envelope::CatchUpRequest { from_k, to_k }, false, ctx.n()));
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use iabc_runtime::Action;
    use iabc_types::{IdSet, MsgId, Payload, Time};

    fn msg(p: u16, seq: u64) -> AppMessage {
        AppMessage::new(MsgId::new(ProcessId::new(p), seq), Payload::zeroed(8), Time::ZERO)
    }

    /// An instance reaches the log only once all its ids are delivered,
    /// and never ahead of an older one.
    #[test]
    fn instances_are_logged_in_order_once_fully_delivered() {
        let mut r: Recovery<IdSet> = Recovery::new(false);
        let (own, peer, late) = (msg(0, 0), msg(1, 0), msg(1, 1));
        r.queue(1, IdSet::from_ids([own.id(), peer.id()]), 2);
        r.queue(2, IdSet::from_ids([late.id()]), 1);
        r.delivered(&own);
        r.drain_completed();
        assert_eq!(r.frontier(), 0, "instance 1 half delivered");
        r.delivered(&peer);
        r.drain_completed();
        assert_eq!(r.frontier(), 1);
        r.delivered(&late);
        r.drain_completed();
        assert_eq!(r.frontier(), 2);
        let logged = r.reload_log();
        assert_eq!(logged[0].payloads, vec![own, peer], "payloads in delivery order");
    }

    /// Logs instances `1..=last`, each ordering one message of p1.
    fn log_through(r: &mut Recovery<IdSet>, last: u64) {
        for k in 1..=last {
            let m = msg(1, k);
            r.queue(k, IdSet::from_ids([m.id()]), 1);
            r.delivered(&m);
            r.drain_completed();
        }
    }

    /// The log drops only what every member `0..n` has logged: a member
    /// never heard from pins it, and a frontier from an id outside `0..n`
    /// stands in for no one. The frontier stays, and a request from a
    /// dropped instance gets an empty batch that still carries it.
    #[test]
    fn the_log_drops_what_every_member_has_logged() {
        let (me, p1, p2) = (ProcessId::new(0), ProcessId::new(1), ProcessId::new(2));
        let mut r: Recovery<IdSet> = Recovery::new(false);
        log_through(&mut r, 10);
        let mut c = Collective::new(me, true);
        c.refresh_own(3, r.frontier(), |_| 0);
        let mut ctx: Ctx<IdSet> = Context::new(me, 3, Time::ZERO);
        let mut piggyback = |r: &mut Recovery<IdSet>, from, frontier, ctx: &mut Ctx<IdSet>| {
            let (floor, _) = c.note(from, frontier, &[], 3);
            r.on_piggyback(floor, 1, &c, ctx);
        };
        piggyback(&mut r, p1, 10, &mut ctx);
        piggyback(&mut r, ProcessId::new(3), 10, &mut ctx);
        assert_eq!(r.held(), 10, "p2 never sent a frontier: nothing dropped");
        piggyback(&mut r, p2, 8, &mut ctx);
        assert_eq!((r.held(), r.frontier()), (2, 10), "8 of 10 dropped, frontier kept");
        assert!(ctx.take_actions().is_empty(), "nobody is ahead: no request");

        for from_k in [8, 3, 9] {
            r.serve(p2, from_k, from_k + 20, &c, &mut ctx);
        }
        let replies: Vec<(ProcessId, u64, Vec<u64>)> = ctx
            .take_actions()
            .into_iter()
            .filter_map(|a| match a {
                Action::Send { to, msg: Envelope::WithFrontier { frontier, inner, .. } } => match *inner {
                    Envelope::CatchUpReply { entries } => Some((to, frontier, entries.iter().map(|e| e.k).collect())),
                    _ => None,
                },
                _ => None,
            })
            .collect();
        assert_eq!(
            replies,
            vec![(p2, 10, vec![]), (p2, 10, vec![]), (p2, 10, vec![9, 10])],
            "at and below the floor: empty; above it: what is held"
        );
    }
}

//! Lazy reliable broadcast — O(n) messages in good runs, failure-detector
//! triggered relays otherwise.

use std::collections::{BTreeMap, BTreeSet, VecDeque};

use iabc_types::{AppMessage, IdRanges, ProcessId};

use crate::{BcastDest, BcastMsg, BcastOut, Broadcast};

/// Reliable broadcast that relays only on suspicion.
///
/// In a good run (no crashes, no suspicions) a broadcast costs exactly
/// `n − 1` messages: the broadcaster's initial diffusion. Each receiver
/// buffers the message; if the failure detector later suspects the
/// *original broadcaster*, every process holding one of its messages relays
/// it once to everybody, restoring the Agreement property of reliable
/// broadcast (a correct process with a copy ensures everyone correct gets
/// one). Suspicion follows the detector: while a broadcaster is suspected
/// its later messages are relayed on arrival, and once the detector
/// trusts it again ([`Broadcast::on_trust`]) they are not. Copies are
/// held until [`Broadcast::on_stable`] either way, so a renewed suspicion
/// relays every held copy not relayed before — a crashed broadcaster is
/// eventually suspected for good, and then every holder relays it.
///
/// This is the "Reliable broadcast in O(n) messages (when using a failure
/// detector)" of Figures 6 and 7b — the variant under which indirect
/// consensus beats the uniform-reliable-broadcast solution most clearly.
#[derive(Debug)]
pub struct LazyRb {
    /// Ids already delivered (per-sender ranges, O(senders)).
    seen: IdRanges,
    /// Copies buffered per original broadcaster for a possible relay,
    /// sorted by sequence number: those not yet a-delivered everywhere,
    /// plus the lag of the stability vector ([`Broadcast::on_stable`]).
    /// A crashed process pins that vector, so from a crash on this grows.
    by_sender: BTreeMap<ProcessId, VecDeque<AppMessage>>,
    /// Ids already relayed (relay at most once per process).
    relayed: IdRanges,
    /// Broadcasters suspected now; messages arriving from them are relayed
    /// immediately.
    suspected: BTreeSet<ProcessId>,
}

/// Relays `m` to everybody unless this process already did.
fn relay(relayed: &mut IdRanges, m: &AppMessage, out: &mut BcastOut) {
    if relayed.insert(m.id()) {
        out.sends.push((BcastDest::Others, BcastMsg::Relay(m.clone())));
    }
}

impl LazyRb {
    /// Creates the module.
    pub fn new() -> Self {
        LazyRb {
            seen: IdRanges::new(),
            by_sender: BTreeMap::new(),
            relayed: IdRanges::new(),
            suspected: BTreeSet::new(),
        }
    }

    fn accept(&mut self, m: AppMessage, out: &mut BcastOut) {
        if !self.seen.insert(m.id()) {
            return;
        }
        let origin = m.id().sender();
        if self.suspected.contains(&origin) {
            relay(&mut self.relayed, &m, out);
        }
        // Kept sorted so `on_stable` drops a prefix. Copies mostly arrive
        // in sequence order, and the insert is then a push at the back.
        let held = self.by_sender.entry(origin).or_default();
        let seq = m.id().seq();
        held.insert(held.partition_point(|c| c.id().seq() < seq), m.clone());
        out.deliveries.push(m);
    }
}

impl Default for LazyRb {
    fn default() -> Self {
        LazyRb::new()
    }
}

impl Broadcast for LazyRb {
    fn broadcast(&mut self, m: AppMessage, out: &mut BcastOut) {
        if self.seen.insert(m.id()) {
            // Our own broadcast needs no relay bookkeeping: we are the origin.
            self.relayed.insert(m.id());
            out.sends.push((BcastDest::Others, BcastMsg::Data(m.clone())));
            out.deliveries.push(m);
        }
    }

    fn on_message(&mut self, _from: ProcessId, msg: BcastMsg, out: &mut BcastOut) {
        let m = match msg {
            BcastMsg::Data(m) | BcastMsg::Relay(m) => m,
            BcastMsg::UrbData(_) | BcastMsg::UrbEcho(_) => return,
        };
        self.accept(m, out);
    }

    fn on_suspect(&mut self, p: ProcessId, out: &mut BcastOut) {
        if !self.suspected.insert(p) {
            return;
        }
        // Relay everything we hold from the suspected broadcaster.
        for m in self.by_sender.get(&p).into_iter().flatten() {
            relay(&mut self.relayed, m, out);
        }
    }

    fn on_trust(&mut self, p: ProcessId) {
        self.suspected.remove(&p);
    }

    fn on_stable(&mut self, stable: &[u64]) {
        for (sender, held) in &mut self.by_sender {
            let floor = stable.get(sender.as_usize()).copied().unwrap_or(0);
            held.drain(..held.partition_point(|m| m.id().seq() < floor));
        }
    }

    fn retained(&self) -> Option<usize> {
        Some(self.by_sender.values().map(VecDeque::len).sum())
    }

    fn name(&self) -> &'static str {
        "rb-lazy-n"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use iabc_types::{MsgId, Payload, Time};

    fn p(i: u16) -> ProcessId {
        ProcessId::new(i)
    }

    fn msg(sender: u16, seq: u64) -> AppMessage {
        AppMessage::new(MsgId::new(p(sender), seq), Payload::zeroed(4), Time::ZERO)
    }

    #[test]
    fn good_run_costs_one_send() {
        let mut rb = LazyRb::new();
        let mut out = BcastOut::new();
        rb.broadcast(msg(0, 0), &mut out);
        assert_eq!(out.sends.len(), 1);
        assert_eq!(out.deliveries.len(), 1);

        let mut rb1 = LazyRb::new();
        let mut out1 = BcastOut::new();
        rb1.on_message(p(0), BcastMsg::Data(msg(0, 0)), &mut out1);
        // Receivers deliver without relaying.
        assert_eq!(out1.sends.len(), 0);
        assert_eq!(out1.deliveries.len(), 1);
    }

    #[test]
    fn suspicion_triggers_relay_of_buffered_messages() {
        let mut rb = LazyRb::new();
        let mut out = BcastOut::new();
        rb.on_message(p(0), BcastMsg::Data(msg(0, 0)), &mut out);
        rb.on_message(p(0), BcastMsg::Data(msg(0, 1)), &mut out);
        assert_eq!(out.sends.len(), 0);

        let mut out = BcastOut::new();
        rb.on_suspect(p(0), &mut out);
        assert_eq!(out.sends.len(), 2);
        assert!(out.sends.iter().all(|(d, m)| matches!(
            (d, m),
            (BcastDest::Others, BcastMsg::Relay(_))
        )));
    }

    #[test]
    fn messages_arriving_after_suspicion_are_relayed_immediately() {
        let mut rb = LazyRb::new();
        let mut out = BcastOut::new();
        rb.on_suspect(p(0), &mut out);
        assert!(out.is_empty());
        rb.on_message(p(2), BcastMsg::Relay(msg(0, 5)), &mut out);
        assert_eq!(out.deliveries.len(), 1);
        assert_eq!(out.sends.len(), 1);
    }

    #[test]
    fn each_message_is_relayed_at_most_once() {
        let mut rb = LazyRb::new();
        let mut out = BcastOut::new();
        rb.on_message(p(0), BcastMsg::Data(msg(0, 0)), &mut out);
        rb.on_suspect(p(0), &mut out);
        rb.on_suspect(p(0), &mut out); // duplicate suspicion
        let relays = out.sends.iter().filter(|(_, m)| matches!(m, BcastMsg::Relay(_))).count();
        assert_eq!(relays, 1);
    }

    #[test]
    fn own_messages_never_relayed_on_self_suspicion() {
        // Pathological but legal for an unreliable FD: we get suspected.
        let mut rb = LazyRb::new();
        let mut out = BcastOut::new();
        rb.broadcast(msg(0, 0), &mut out);
        let mut out = BcastOut::new();
        rb.on_suspect(p(0), &mut out);
        // The original diffusion already went to everyone; no second send.
        assert!(out.sends.is_empty());
    }

    #[test]
    fn duplicate_copies_deliver_once() {
        let mut rb = LazyRb::new();
        let mut out = BcastOut::new();
        rb.on_message(p(0), BcastMsg::Data(msg(0, 0)), &mut out);
        rb.on_message(p(1), BcastMsg::Relay(msg(0, 0)), &mut out);
        assert_eq!(out.deliveries.len(), 1);
    }

    /// Relayed `(sender, seq)` pairs in `out`, in send order.
    fn relayed(out: &BcastOut) -> Vec<(u16, u64)> {
        out.sends
            .iter()
            .map(|(_, m)| (m.app_message().id().sender().index(), m.app_message().id().seq()))
            .collect()
    }

    /// `rb` after R-delivering sender 1's `seqs` and sender 2's 0..3.
    fn holding(seqs: &[u64]) -> LazyRb {
        let mut rb = LazyRb::new();
        let mut out = BcastOut::new();
        for &seq in seqs {
            rb.on_message(p(1), BcastMsg::Data(msg(1, seq)), &mut out);
        }
        for seq in 0..3 {
            rb.on_message(p(2), BcastMsg::Data(msg(2, seq)), &mut out);
        }
        rb
    }

    #[test]
    fn on_stable_drops_exactly_the_copies_below_the_vector() {
        // Sender 1's copies arrive out of order, with a gap at 4.
        let mut rb = holding(&[1, 0, 3, 5, 2]);
        assert_eq!(rb.retained(), Some(8));
        rb.on_stable(&[9, 3, 0]);
        let held = |rb: &LazyRb, s| -> Vec<u64> {
            rb.by_sender[&p(s)].iter().map(|m| m.id().seq()).collect()
        };
        assert_eq!(held(&rb, 1), vec![3, 5], "0, 1 and 2 are a-delivered everywhere");
        assert_eq!(held(&rb, 2), vec![0, 1, 2], "a 0 entry keeps everything");
        // A lower vector frees nothing and restores nothing; a vector of
        // the wrong length covers only the senders it names.
        rb.on_stable(&[0, 0, 0]);
        rb.on_stable(&[9, 9]);
        assert_eq!((held(&rb, 1), held(&rb, 2)), (vec![], vec![0, 1, 2]));
        assert_eq!(rb.retained(), Some(3));
    }

    #[test]
    fn a_suspicion_after_pruning_relays_only_the_retained_copies_once() {
        let mut rb = holding(&[0, 1, 2, 3]);
        rb.on_stable(&[0, 2, 0]);
        let mut out = BcastOut::new();
        rb.on_suspect(p(1), &mut out);
        rb.on_suspect(p(1), &mut out);
        assert_eq!(relayed(&out), vec![(1, 2), (1, 3)]);
        // While suspected, a later message is relayed on arrival,
        // and pruning after the relay sends nothing again.
        let mut out = BcastOut::new();
        rb.on_message(p(2), BcastMsg::Relay(msg(1, 4)), &mut out);
        rb.on_stable(&[0, 5, 0]);
        rb.on_suspect(p(1), &mut out);
        assert_eq!(relayed(&out), vec![(1, 4)]);
        assert_eq!(rb.retained(), Some(3), "only sender 2's copies are left");
    }

    #[test]
    fn a_trusted_broadcaster_is_not_relayed_but_its_copies_are_held() {
        let mut rb = LazyRb::new();
        let mut out = BcastOut::new();
        rb.on_suspect(p(0), &mut out);
        rb.on_trust(p(0));
        rb.on_message(p(0), BcastMsg::Data(msg(0, 0)), &mut out);
        assert_eq!(out.deliveries.len(), 1);
        assert!(out.sends.is_empty(), "a trusted broadcaster's message is not relayed");
        assert_eq!(rb.retained(), Some(1), "the copy is held for a renewed suspicion");
    }

    #[test]
    fn a_renewed_suspicion_relays_only_the_copies_not_relayed_before() {
        let mut rb = holding(&[0, 1]);
        let mut out = BcastOut::new();
        rb.on_suspect(p(1), &mut out);
        rb.on_message(p(1), BcastMsg::Data(msg(1, 2)), &mut out);
        assert_eq!(relayed(&out), vec![(1, 0), (1, 1), (1, 2)]);
        rb.on_trust(p(1));
        let mut out = BcastOut::new();
        rb.on_message(p(1), BcastMsg::Data(msg(1, 3)), &mut out);
        rb.on_message(p(1), BcastMsg::Data(msg(1, 4)), &mut out);
        assert!(out.sends.is_empty());
        // Trusting an unsuspected process or re-trusting changes nothing.
        rb.on_trust(p(1));
        rb.on_trust(p(2));
        rb.on_suspect(p(1), &mut out);
        assert_eq!(relayed(&out), vec![(1, 3), (1, 4)]);
    }

    #[test]
    fn retained_counts_the_copies_and_eager_keeps_none() {
        let mut rb = LazyRb::new();
        assert_eq!(rb.retained(), Some(0), "a lazy module always answers");
        let mut out = BcastOut::new();
        rb.broadcast(msg(0, 0), &mut out);
        assert_eq!(rb.retained(), Some(0), "own broadcasts are never relayed, so never held");
        rb.on_message(p(1), BcastMsg::Data(msg(1, 0)), &mut out);
        rb.on_message(p(2), BcastMsg::Relay(msg(1, 0)), &mut out);
        assert_eq!(rb.retained(), Some(1), "one copy per message");
        assert_eq!(crate::EagerRb::new().retained(), None);
    }
}

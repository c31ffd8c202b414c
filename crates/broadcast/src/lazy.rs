//! Lazy reliable broadcast — O(n) messages in good runs, failure-detector
//! triggered relays otherwise.

use std::collections::{BTreeMap, BTreeSet};

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
/// one).
///
/// This is the "Reliable broadcast in O(n) messages (when using a failure
/// detector)" of Figures 6 and 7b — the variant under which indirect
/// consensus beats the uniform-reliable-broadcast solution most clearly.
#[derive(Debug)]
pub struct LazyRb {
    /// Ids already delivered (per-sender ranges, O(senders)).
    seen: IdRanges,
    /// Messages buffered per original broadcaster, for potential relay.
    /// Still O(history): a copy may only be dropped once *every* process is
    /// known to hold the message, which needs the collective delivered
    /// frontier (ROADMAP, "snapshot + truncate").
    by_sender: BTreeMap<ProcessId, Vec<AppMessage>>,
    /// Ids already relayed (relay at most once per process).
    relayed: IdRanges,
    /// Broadcasters currently suspected; messages arriving from them later
    /// are relayed immediately.
    suspected: BTreeSet<ProcessId>,
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

    fn relay(&mut self, m: &AppMessage, out: &mut BcastOut) {
        if self.relayed.insert(m.id()) {
            out.sends.push((BcastDest::Others, BcastMsg::Relay(m.clone())));
        }
    }

    fn accept(&mut self, m: AppMessage, out: &mut BcastOut) {
        if !self.seen.insert(m.id()) {
            return;
        }
        let origin = m.id().sender();
        if self.suspected.contains(&origin) {
            self.relay(&m, out);
        }
        self.by_sender.entry(origin).or_default().push(m.clone());
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
        let msgs = self.by_sender.get(&p).cloned().unwrap_or_default();
        for m in msgs {
            self.relay(&m, out);
        }
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
}

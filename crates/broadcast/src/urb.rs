//! Uniform reliable broadcast by majority witnessing.

use std::collections::{BTreeMap, BTreeSet};

use iabc_types::{quorum, AppMessage, MsgId, ProcessId, ProcessSet};

use crate::{BcastDest, BcastMsg, BcastOut, Broadcast};

/// Uniform reliable broadcast: deliver `m` only once a majority of processes
/// is known to hold `m`.
///
/// Protocol: the broadcaster diffuses `UrbData(m)`; every process echoes
/// (`UrbEcho(m)`, carrying the payload so late processes can catch up) the
/// first copy it receives. A process counts the distinct processes it has
/// *observed holding* `m` — itself, the broadcaster (via `UrbData`), and
/// every echoer — and delivers when the count reaches `⌈(n+1)/2⌉`.
///
/// **Uniformity**: delivery implies a majority holds `m`; with `f < n/2`
/// crashes at least one holder is correct, and a correct holder's echo
/// reaches everyone, so every correct process eventually delivers `m` even
/// if the *deliverer* and the broadcaster both crash. This is the guarantee
/// the naive consensus-on-ids atomic broadcast is missing (paper §2.2),
/// bought at the price the paper quantifies in Figures 5–7: O(n²)
/// payload-sized messages and a two-step delivery at the broadcaster.
///
/// Its per-id maps are still O(history) (`pending` alone is O(in flight)):
/// an echo can arrive arbitrarily late, so `witnesses` may only be dropped
/// below a collective frontier the stack does not compute yet (ROADMAP,
/// "snapshot + truncate"). The module serves the simulator's URB stack only.
#[derive(Debug)]
pub struct MajorityAckUrb {
    me: ProcessId,
    n: usize,
    /// Processes observed holding each message (including self once echoed).
    witnesses: BTreeMap<MsgId, ProcessSet>,
    /// Payloads held but not yet delivered.
    pending: BTreeMap<MsgId, AppMessage>,
    /// Ids already echoed.
    echoed: BTreeSet<MsgId>,
    /// Ids already delivered.
    delivered: BTreeSet<MsgId>,
}

impl MajorityAckUrb {
    /// Creates the module for process `me` of `n`.
    pub fn new(me: ProcessId, n: usize) -> Self {
        MajorityAckUrb {
            me,
            n,
            witnesses: BTreeMap::new(),
            pending: BTreeMap::new(),
            echoed: BTreeSet::new(),
            delivered: BTreeSet::new(),
        }
    }

    fn witness(&mut self, id: MsgId, holder: ProcessId) {
        self.witnesses.entry(id).or_default().insert(holder);
    }

    fn try_deliver(&mut self, id: MsgId, out: &mut BcastOut) {
        if self.delivered.contains(&id) {
            return;
        }
        let count = self.witnesses.get(&id).map_or(0, ProcessSet::len);
        if count >= quorum::majority(self.n) {
            if let Some(m) = self.pending.remove(&id) {
                self.delivered.insert(id);
                out.deliveries.push(m);
            }
        }
    }

    /// Handles the first copy of `m` (from `holder`); echoes if needed.
    fn accept(&mut self, m: AppMessage, holder: ProcessId, out: &mut BcastOut) {
        let id = m.id();
        if self.delivered.contains(&id) {
            self.witness(id, holder);
            return;
        }
        self.pending.entry(id).or_insert_with(|| m.clone());
        self.witness(id, holder);
        self.witness(id, self.me); // we now hold it
        if self.echoed.insert(id) {
            out.sends.push((BcastDest::Others, BcastMsg::UrbEcho(m)));
        }
        self.try_deliver(id, out);
    }

    /// Number of distinct witnesses currently known for `id` (for tests).
    pub fn witness_count(&self, id: MsgId) -> usize {
        self.witnesses.get(&id).map_or(0, ProcessSet::len)
    }
}

impl Broadcast for MajorityAckUrb {
    fn broadcast(&mut self, m: AppMessage, out: &mut BcastOut) {
        let id = m.id();
        if self.echoed.contains(&id) || self.delivered.contains(&id) {
            return;
        }
        self.echoed.insert(id); // the diffusion doubles as our echo
        self.pending.insert(id, m.clone());
        self.witness(id, self.me);
        out.sends.push((BcastDest::Others, BcastMsg::UrbData(m)));
        // n = 1: we are the majority.
        self.try_deliver(id, out);
    }

    fn on_message(&mut self, from: ProcessId, msg: BcastMsg, out: &mut BcastOut) {
        match msg {
            BcastMsg::UrbData(m) | BcastMsg::UrbEcho(m) => self.accept(m, from, out),
            // Plain RB traffic does not belong to this module.
            BcastMsg::Data(_) | BcastMsg::Relay(_) => {}
        }
    }

    fn name(&self) -> &'static str {
        "urb-majority"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use iabc_types::{Payload, Time};

    fn p(i: u16) -> ProcessId {
        ProcessId::new(i)
    }

    fn msg(sender: u16, seq: u64) -> AppMessage {
        AppMessage::new(MsgId::new(p(sender), seq), Payload::zeroed(4), Time::ZERO)
    }

    #[test]
    fn broadcaster_does_not_deliver_alone_when_n_gt_1() {
        let mut urb = MajorityAckUrb::new(p(0), 3);
        let mut out = BcastOut::new();
        urb.broadcast(msg(0, 0), &mut out);
        assert!(out.deliveries.is_empty(), "sender must wait for a witness");
        assert_eq!(out.sends.len(), 1);
    }

    #[test]
    fn broadcaster_delivers_after_one_echo_n3() {
        let mut urb = MajorityAckUrb::new(p(0), 3);
        let mut out = BcastOut::new();
        urb.broadcast(msg(0, 0), &mut out);
        urb.on_message(p(1), BcastMsg::UrbEcho(msg(0, 0)), &mut out);
        assert_eq!(out.deliveries.len(), 1);
    }

    #[test]
    fn receiver_delivers_on_first_copy_n3() {
        // Receiver q counts {sender, q} = 2 = majority(3).
        let mut urb = MajorityAckUrb::new(p(1), 3);
        let mut out = BcastOut::new();
        urb.on_message(p(0), BcastMsg::UrbData(msg(0, 0)), &mut out);
        assert_eq!(out.deliveries.len(), 1);
        // And it echoed exactly once.
        assert_eq!(out.sends.len(), 1);
        assert!(matches!(out.sends[0].1, BcastMsg::UrbEcho(_)));
    }

    #[test]
    fn receiver_needs_more_witnesses_for_n5() {
        // majority(5) = 3: {sender, me} is not enough.
        let mut urb = MajorityAckUrb::new(p(1), 5);
        let mut out = BcastOut::new();
        urb.on_message(p(0), BcastMsg::UrbData(msg(0, 0)), &mut out);
        assert!(out.deliveries.is_empty());
        assert_eq!(urb.witness_count(MsgId::new(p(0), 0)), 2);
        urb.on_message(p(2), BcastMsg::UrbEcho(msg(0, 0)), &mut out);
        assert_eq!(out.deliveries.len(), 1);
    }

    #[test]
    fn echo_first_copy_works_when_sender_crashed() {
        // Copy arrives only via an echo; the message still propagates.
        let mut urb = MajorityAckUrb::new(p(2), 3);
        let mut out = BcastOut::new();
        urb.on_message(p(1), BcastMsg::UrbEcho(msg(0, 0)), &mut out);
        // Witnesses: {p1, me} = 2 = majority(3) → deliver.
        assert_eq!(out.deliveries.len(), 1);
    }

    #[test]
    fn delivers_exactly_once() {
        let mut urb = MajorityAckUrb::new(p(1), 3);
        let mut out = BcastOut::new();
        urb.on_message(p(0), BcastMsg::UrbData(msg(0, 0)), &mut out);
        urb.on_message(p(2), BcastMsg::UrbEcho(msg(0, 0)), &mut out);
        urb.on_message(p(0), BcastMsg::UrbEcho(msg(0, 0)), &mut out);
        assert_eq!(out.deliveries.len(), 1);
    }

    #[test]
    fn single_process_system_delivers_immediately() {
        let mut urb = MajorityAckUrb::new(p(0), 1);
        let mut out = BcastOut::new();
        urb.broadcast(msg(0, 0), &mut out);
        assert_eq!(out.deliveries.len(), 1);
    }

    #[test]
    fn rb_traffic_is_ignored() {
        let mut urb = MajorityAckUrb::new(p(1), 3);
        let mut out = BcastOut::new();
        urb.on_message(p(0), BcastMsg::Data(msg(0, 0)), &mut out);
        assert!(out.is_empty());
    }
}

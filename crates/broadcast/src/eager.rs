//! Eager (flooding) reliable broadcast — O(n²) messages, one-step delivery.

use iabc_types::{AppMessage, IdRanges, ProcessId};

use crate::{BcastDest, BcastMsg, BcastOut, Broadcast};

/// Reliable broadcast by flooding: the broadcaster sends to everyone, and
/// every process relays the first copy it receives to everyone else.
///
/// * **Validity** — the broadcaster delivers locally at broadcast time.
/// * **Agreement** — if a correct process has a copy, its relay reaches all
///   correct processes (channels between correct processes are reliable).
/// * **Cost** — `(n−1) + (n−1)²` messages per broadcast, one network step
///   from broadcaster to delivery at every other process.
///
/// This is the reliable broadcast the Chandra–Toueg reduction assumes and
/// the "O(n²)" series of Figures 5 and 7a.
#[derive(Debug)]
pub struct EagerRb {
    /// Ids already delivered (relay duplicates must be ignored), as
    /// per-sender ranges: the module keeps no message and O(senders) state.
    seen: IdRanges,
}

impl EagerRb {
    /// Creates the module.
    pub fn new() -> Self {
        EagerRb { seen: IdRanges::new() }
    }
}

impl Default for EagerRb {
    fn default() -> Self {
        EagerRb::new()
    }
}

impl Broadcast for EagerRb {
    fn broadcast(&mut self, m: AppMessage, out: &mut BcastOut) {
        // The broadcast itself plays the role of the local relay: deliver
        // locally, send to the others once.
        if self.seen.insert(m.id()) {
            out.sends.push((BcastDest::Others, BcastMsg::Data(m.clone())));
            out.deliveries.push(m);
        }
    }

    fn on_message(&mut self, _from: ProcessId, msg: BcastMsg, out: &mut BcastOut) {
        let m = match msg {
            BcastMsg::Data(m) | BcastMsg::Relay(m) => m,
            // URB traffic does not belong to this module.
            BcastMsg::UrbData(_) | BcastMsg::UrbEcho(_) => return,
        };
        if self.seen.insert(m.id()) {
            out.sends.push((BcastDest::Others, BcastMsg::Relay(m.clone())));
            out.deliveries.push(m);
        }
    }

    fn name(&self) -> &'static str {
        "rb-eager-n2"
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
    fn broadcast_delivers_locally_and_sends_once() {
        let mut rb = EagerRb::new();
        let mut out = BcastOut::new();
        rb.broadcast(msg(0, 0), &mut out);
        assert_eq!(out.deliveries.len(), 1);
        assert_eq!(out.sends.len(), 1);
        assert!(matches!(out.sends[0], (BcastDest::Others, BcastMsg::Data(_))));
    }

    #[test]
    fn first_copy_delivers_and_relays() {
        let mut rb = EagerRb::new();
        let mut out = BcastOut::new();
        rb.on_message(p(0), BcastMsg::Data(msg(0, 0)), &mut out);
        assert_eq!(out.deliveries.len(), 1);
        assert!(matches!(out.sends[0], (BcastDest::Others, BcastMsg::Relay(_))));
    }

    #[test]
    fn duplicates_are_ignored() {
        let mut rb = EagerRb::new();
        let mut out = BcastOut::new();
        rb.on_message(p(0), BcastMsg::Data(msg(0, 0)), &mut out);
        rb.on_message(p(2), BcastMsg::Relay(msg(0, 0)), &mut out);
        assert_eq!(out.deliveries.len(), 1);
        assert_eq!(out.sends.len(), 1);
    }

    #[test]
    fn relay_first_also_delivers() {
        // The sender may have crashed: the first copy can be a relay.
        let mut rb = EagerRb::new();
        let mut out = BcastOut::new();
        rb.on_message(p(2), BcastMsg::Relay(msg(0, 3)), &mut out);
        assert_eq!(out.deliveries.len(), 1);
    }

    #[test]
    fn urb_traffic_is_ignored() {
        let mut rb = EagerRb::new();
        let mut out = BcastOut::new();
        rb.on_message(p(1), BcastMsg::UrbData(msg(1, 0)), &mut out);
        rb.on_message(p(1), BcastMsg::UrbEcho(msg(1, 0)), &mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn rebroadcast_of_seen_message_is_a_noop() {
        let mut rb = EagerRb::new();
        let mut out = BcastOut::new();
        rb.broadcast(msg(0, 0), &mut out);
        rb.broadcast(msg(0, 0), &mut out);
        assert_eq!(out.deliveries.len(), 1);
    }
}

//! Property-based tests of the broadcast modules: exactly-once delivery
//! under arbitrary duplicate/relay storms, lazy RB's relay set under
//! stability vectors, and URB's witnessing invariant.

use iabc_broadcast::{BcastMsg, BcastOut, Broadcast, EagerRb, LazyRb, MajorityAckUrb};
use iabc_types::{quorum, AppMessage, MsgId, Payload, ProcessId, Time};
use proptest::prelude::*;

fn msg(sender: u16, seq: u64) -> AppMessage {
    AppMessage::new(MsgId::new(ProcessId::new(sender), seq), Payload::zeroed(4), Time::ZERO)
}

/// An arbitrary stream of incoming broadcast-layer frames.
fn frame_stream(n: u16) -> impl Strategy<Value = Vec<(u16, u8, u16, u64)>> {
    // (from, kind, origin, seq)
    proptest::collection::vec((0..n, 0u8..4, 0..n, 0u64..6), 0..120)
}

fn to_frame(kind: u8, origin: u16, seq: u64) -> BcastMsg {
    let m = msg(origin, seq);
    match kind {
        0 => BcastMsg::Data(m),
        1 => BcastMsg::Relay(m),
        2 => BcastMsg::UrbData(m),
        _ => BcastMsg::UrbEcho(m),
    }
}

proptest! {
    /// Reliable-broadcast modules deliver every distinct message at most
    /// once, no matter how the frames are duplicated and reordered.
    #[test]
    fn eager_rb_delivers_each_message_once(frames in frame_stream(4)) {
        let mut rb = EagerRb::new();
        let mut delivered = Vec::new();
        for (from, kind, origin, seq) in frames {
            let mut out = BcastOut::new();
            rb.on_message(ProcessId::new(from), to_frame(kind, origin, seq), &mut out);
            delivered.extend(out.deliveries.iter().map(AppMessage::id));
        }
        let mut dedup = delivered.clone();
        dedup.sort_unstable();
        dedup.dedup();
        prop_assert_eq!(dedup.len(), delivered.len(), "duplicate delivery");
    }

    #[test]
    fn lazy_rb_delivers_each_message_once_despite_suspicions(
        frames in frame_stream(4),
        suspects in proptest::collection::vec(0u16..4, 0..8),
    ) {
        let mut rb = LazyRb::new();
        let mut delivered = Vec::new();
        let mut iter = suspects.into_iter();
        for (i, (from, kind, origin, seq)) in frames.into_iter().enumerate() {
            let mut out = BcastOut::new();
            if i % 7 == 3 {
                if let Some(s) = iter.next() {
                    rb.on_suspect(ProcessId::new(s), &mut out);
                }
            }
            rb.on_message(ProcessId::new(from), to_frame(kind, origin, seq), &mut out);
            delivered.extend(out.deliveries.iter().map(AppMessage::id));
        }
        let mut dedup = delivered.clone();
        dedup.sort_unstable();
        dedup.dedup();
        prop_assert_eq!(dedup.len(), delivered.len(), "duplicate delivery");
    }

    /// Each message is relayed at most once by LazyRb, regardless of how
    /// often the origin is (re-)suspected.
    #[test]
    fn lazy_rb_relays_at_most_once(seqs in proptest::collection::vec(0u64..5, 1..20)) {
        let mut rb = LazyRb::new();
        let mut relays = 0usize;
        for &seq in &seqs {
            let mut out = BcastOut::new();
            rb.on_message(ProcessId::new(0), BcastMsg::Data(msg(0, seq)), &mut out);
            rb.on_suspect(ProcessId::new(0), &mut out);
            rb.on_suspect(ProcessId::new(0), &mut out);
            relays += out
                .sends
                .iter()
                .filter(|(_, m)| matches!(m, BcastMsg::Relay(_)))
                .count();
        }
        let distinct: std::collections::BTreeSet<u64> = seqs.iter().copied().collect();
        prop_assert!(relays <= distinct.len(), "{relays} relays for {} messages", distinct.len());
    }

    /// Over any interleaving of deliveries and stability vectors with one
    /// suspicion, LazyRb relays exactly the suspect's messages it delivered
    /// minus those a vector covered while it held them before the
    /// suspicion — each once. (After the suspicion, a delivery from the
    /// suspect is relayed on arrival.)
    #[test]
    fn lazy_rb_relays_what_no_vector_covered(
        // (kind: Data / Relay / vector, origin, seq, vector)
        ops in proptest::collection::vec(
            (0u8..3, 0u16..3, 0u64..8, proptest::collection::vec(0u64..10, 3)),
            0..60,
        ),
        suspect in 0u16..3,
        at in 0usize..61,
    ) {
        use std::collections::BTreeSet;
        let mut rb = LazyRb::new();
        let mut sends = Vec::new();
        let (mut seen, mut held, mut expected) = (BTreeSet::new(), BTreeSet::new(), BTreeSet::new());
        let mut suspected = false;
        for (i, (kind, origin, seq, vector)) in ops.iter().enumerate() {
            let mut out = BcastOut::new();
            if i == at {
                rb.on_suspect(ProcessId::new(suspect), &mut out);
                expected.append(&mut held);
                suspected = true;
            }
            if *kind == 2 {
                rb.on_stable(vector);
                held.retain(|&s| s >= vector[usize::from(suspect)]);
            } else {
                rb.on_message(ProcessId::new(1), to_frame(*kind, *origin, *seq), &mut out);
                if seen.insert((*origin, *seq)) && *origin == suspect {
                    let into = if suspected { &mut expected } else { &mut held };
                    into.insert(*seq);
                }
            }
            sends.extend(out.sends);
        }
        if !suspected {
            let mut out = BcastOut::new();
            rb.on_suspect(ProcessId::new(suspect), &mut out);
            expected.append(&mut held);
            sends.extend(out.sends);
        }
        let mut relayed = Vec::new();
        for (_, m) in &sends {
            prop_assert!(matches!(m, BcastMsg::Relay(_)), "only relays are sent: {m:?}");
            prop_assert_eq!(m.app_message().id().sender(), ProcessId::new(suspect));
            relayed.push(m.app_message().id().seq());
        }
        let distinct: BTreeSet<u64> = relayed.iter().copied().collect();
        prop_assert_eq!(distinct.len(), relayed.len(), "a copy relayed twice: {relayed:?}");
        prop_assert_eq!(distinct, expected);
    }

    /// URB never delivers before a majority of witnesses is known, and
    /// delivers exactly once.
    #[test]
    fn urb_delivers_once_and_only_with_majority(
        n in 3usize..8,
        me in 0u16..3,
        witnesses in proptest::collection::vec(0u16..8, 0..20),
    ) {
        let me = ProcessId::new(me);
        let mut urb = MajorityAckUrb::new(me, n);
        let id = MsgId::new(ProcessId::new(7), 0);
        let mut delivered = 0usize;
        for w in witnesses {
            let from = ProcessId::new(w % n as u16);
            if from == me {
                continue; // the network never hands us our own frame here
            }
            let mut out = BcastOut::new();
            urb.on_message(from, BcastMsg::UrbEcho(msg(7, 0)), &mut out);
            delivered += out.deliveries.len();
            if !out.deliveries.is_empty() {
                // At delivery time the witness set must be a majority.
                prop_assert!(urb.witness_count(id) >= quorum::majority(n));
            }
        }
        prop_assert!(delivered <= 1, "URB delivered {delivered} times");
    }
}

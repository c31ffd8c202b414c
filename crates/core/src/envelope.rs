//! The top-level wire envelope multiplexing all protocol layers.

use iabc_broadcast::BcastMsg;
use iabc_consensus::ConsMsg;
use iabc_fd::FdMsg;
use iabc_types::{CodecError, Decode, Encode, TrafficClass, WireSize};

use crate::decided::DecidedEntry;

/// Everything an atomic broadcast stack puts on the wire: broadcast-layer
/// frames (carrying payloads), instance-tagged consensus frames,
/// failure-detector heartbeats, and the catch-up protocol (range requests,
/// entry batches, and the frontier-piggyback wrapper).
///
/// `V` is the consensus value type: [`IdSet`](iabc_types::IdSet) for the
/// indirect / faulty / URB stacks, [`MsgSet`](crate::MsgSet) for the
/// classic full-message reduction.
#[derive(Debug, Clone, PartialEq)]
pub enum Envelope<V> {
    /// Broadcast layer (reliable / uniform reliable broadcast).
    Bcast(BcastMsg),
    /// Consensus layer, tagged with its instance number `k`.
    Cons {
        /// Instance number (Algorithm 1's serial number `k`).
        k: u64,
        /// The consensus message.
        msg: ConsMsg<V>,
    },
    /// Failure-detector layer.
    Fd(FdMsg),
    /// Catch-up: asks the receiver for its decided entries in
    /// `from_k..=to_k` (the receiver clamps the range to what it holds).
    CatchUpRequest {
        /// First wanted instance (inclusive).
        from_k: u64,
        /// Last wanted instance (inclusive).
        to_k: u64,
    },
    /// Catch-up: a batch of decided entries, contiguous and in instance
    /// order. May be empty when the server holds nothing in the requested
    /// range — the requester still learns the server's frontier from the
    /// [`Envelope::WithFrontier`] wrapper around every frame.
    CatchUpReply {
        /// The served entries (each self-tagged with its instance `k`).
        entries: Vec<DecidedEntry<V>>,
    },
    /// Piggyback: wraps any other arm with the sender's decided frontier
    /// and a-delivered vector, so both ride on whatever traffic already
    /// flows (RB data, consensus, heartbeats) instead of needing a schedule
    /// of their own. Tag 5 without a vector, tag 6 with one; nesting is
    /// rejected at decode time.
    WithFrontier {
        /// The sender's decided frontier (highest contiguous instance it
        /// can serve; 0 when it has nothing).
        frontier: u64,
        /// The sender's a-delivered prefix per sender (`delivered[s]`: it
        /// has a-delivered `s`'s messages `0..delivered[s]`), or empty.
        delivered: Vec<u64>,
        /// The wrapped frame.
        inner: Box<Envelope<V>>,
    },
}

impl<V: WireSize> WireSize for Envelope<V> {
    fn wire_size(&self) -> usize {
        1 + match self {
            Envelope::Bcast(m) => m.wire_size(),
            Envelope::Cons { msg, .. } => 8 + msg.wire_size(),
            Envelope::Fd(m) => m.wire_size(),
            Envelope::CatchUpRequest { .. } => 16,
            Envelope::CatchUpReply { entries } => entries.wire_size(),
            Envelope::WithFrontier { delivered, inner, .. } => {
                let vector = if delivered.is_empty() { 0 } else { delivered.wire_size() };
                8 + vector + inner.wire_size()
            }
        }
    }

    /// Two-class scheduling: broadcast frames (the payload flood) are
    /// [`TrafficClass::Bulk`]; consensus and failure-detector frames are
    /// [`TrafficClass::Ordering`] and may jump the bulk backlog wherever a
    /// transport runs the priority lane. Catch-up requests are small and
    /// latency-sensitive (Ordering); replies carry payload batches (Bulk).
    /// The frontier wrapper inherits the class of what it wraps.
    fn traffic_class(&self) -> TrafficClass {
        match self {
            Envelope::Bcast(m) => m.traffic_class(),
            Envelope::Cons { msg, .. } => msg.traffic_class(),
            Envelope::Fd(m) => m.traffic_class(),
            Envelope::CatchUpRequest { .. } => TrafficClass::Ordering,
            Envelope::CatchUpReply { .. } => TrafficClass::Bulk,
            Envelope::WithFrontier { inner, .. } => inner.traffic_class(),
        }
    }
}

impl<V: Encode> Encode for Envelope<V> {
    fn encode(&self, buf: &mut Vec<u8>) {
        match self {
            Envelope::Bcast(m) => {
                buf.push(0);
                m.encode(buf);
            }
            Envelope::Cons { k, msg } => {
                buf.push(1);
                k.encode(buf);
                msg.encode(buf);
            }
            Envelope::Fd(m) => {
                buf.push(2);
                m.encode(buf);
            }
            Envelope::CatchUpRequest { from_k, to_k } => {
                buf.push(3);
                from_k.encode(buf);
                to_k.encode(buf);
            }
            Envelope::CatchUpReply { entries } => {
                buf.push(4);
                entries.encode(buf);
            }
            Envelope::WithFrontier { frontier, delivered, inner } if delivered.is_empty() => {
                buf.push(5);
                frontier.encode(buf);
                inner.encode(buf);
            }
            Envelope::WithFrontier { frontier, delivered, inner } => {
                buf.push(6);
                frontier.encode(buf);
                delivered.encode(buf);
                inner.encode(buf);
            }
        }
    }
}

impl<V: Decode + WireSize> Envelope<V> {
    /// Decodes one envelope. `allow_frontier` is cleared for the inner
    /// frame of a [`Envelope::WithFrontier`] (tag 5 or 6): nesting carries
    /// no extra information and would hand remote input an unbounded
    /// recursion, so a nested wrapper is rejected as an invalid tag.
    fn decode_with_nesting(buf: &mut &[u8], allow_frontier: bool) -> Result<Self, CodecError> {
        match u8::decode(buf)? {
            0 => Ok(Envelope::Bcast(BcastMsg::decode(buf)?)),
            1 => {
                let k = u64::decode(buf)?;
                let msg = ConsMsg::decode(buf)?;
                Ok(Envelope::Cons { k, msg })
            }
            2 => Ok(Envelope::Fd(FdMsg::decode(buf)?)),
            3 => {
                let from_k = u64::decode(buf)?;
                let to_k = u64::decode(buf)?;
                Ok(Envelope::CatchUpRequest { from_k, to_k })
            }
            4 => Ok(Envelope::CatchUpReply { entries: Vec::decode(buf)? }),
            tag @ (5 | 6) if allow_frontier => {
                let frontier = u64::decode(buf)?;
                let delivered = if tag == 6 { Vec::decode(buf)? } else { Vec::new() };
                let inner = Box::new(Self::decode_with_nesting(buf, false)?);
                Ok(Envelope::WithFrontier { frontier, delivered, inner })
            }
            tag => Err(CodecError::InvalidTag { tag, context: "Envelope" }),
        }
    }
}

impl<V: Decode + WireSize> Decode for Envelope<V> {
    fn decode(buf: &mut &[u8]) -> Result<Self, CodecError> {
        Self::decode_with_nesting(buf, true)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use iabc_types::wire::roundtrip;
    use iabc_types::{AppMessage, IdSet, MsgId, Payload, ProcessId, Time};

    fn app_msg() -> AppMessage {
        AppMessage::new(MsgId::new(ProcessId::new(0), 1), Payload::zeroed(16), Time::ZERO)
    }

    fn entry(k: u64) -> DecidedEntry<IdSet> {
        DecidedEntry {
            k,
            value: IdSet::from_ids([app_msg().id()]),
            payloads: vec![app_msg()],
        }
    }

    #[test]
    fn all_arms_roundtrip() {
        let envs: Vec<Envelope<IdSet>> = vec![
            Envelope::Bcast(BcastMsg::Data(app_msg())),
            Envelope::Cons { k: 9, msg: ConsMsg::CtAck { round: 2 } },
            Envelope::Fd(FdMsg::Heartbeat(3)),
            Envelope::CatchUpRequest { from_k: 4, to_k: 67 },
            Envelope::CatchUpReply { entries: vec![entry(4), entry(5)] },
            Envelope::CatchUpReply { entries: Vec::new() },
            Envelope::WithFrontier {
                frontier: 12,
                delivered: Vec::new(),
                inner: Box::new(Envelope::Fd(FdMsg::Heartbeat(3))),
            },
            Envelope::WithFrontier {
                frontier: 0,
                delivered: Vec::new(),
                inner: Box::new(Envelope::CatchUpReply { entries: vec![entry(1)] }),
            },
            Envelope::WithFrontier {
                frontier: 0,
                delivered: vec![3, 0, u64::MAX],
                inner: Box::new(Envelope::Cons { k: 9, msg: ConsMsg::CtAck { round: 2 } }),
            },
        ];
        for e in envs {
            assert_eq!(roundtrip(&e).unwrap(), e);
        }
    }

    /// Without a vector the wrapper keeps the tag-5 bytes it had before
    /// the vector existed; with one it is tag 6, u32-length-prefixed.
    #[test]
    fn the_vector_costs_nothing_when_empty_and_tag_six_when_not() {
        let wrap = |delivered| Envelope::<IdSet>::WithFrontier {
            frontier: 0x0102,
            delivered,
            inner: Box::new(Envelope::Fd(FdMsg::Heartbeat(7))),
        };
        let mut tag5 = vec![5, 2, 1, 0, 0, 0, 0, 0, 0];
        Envelope::<IdSet>::Fd(FdMsg::Heartbeat(7)).encode(&mut tag5);
        assert_eq!(wrap(Vec::new()).to_bytes(), tag5);
        let with = wrap(vec![4, 0, 9]).to_bytes();
        assert_eq!((with[0], &with[1..9], &with[9..13]), (6, &tag5[1..9], &[3, 0, 0, 0][..]));
        assert_eq!(with.len(), tag5.len() + 4 + 3 * 8);
        assert_eq!(&with[37..], &tag5[9..], "the inner frame follows unchanged");
    }

    #[test]
    fn nested_frontier_wrapper_rejected() {
        // A hand-crafted WithFrontier(WithFrontier(...)) must not decode,
        // whichever of tags 5 and 6 is outside or inside: nesting is
        // meaningless and would be remote-controlled recursion.
        for (outer, inner) in [(vec![], vec![]), (vec![1, 2], vec![]), (vec![], vec![3]), (vec![1], vec![2])] {
            let inner_tag = if inner.is_empty() { 5 } else { 6 };
            let nested: Envelope<IdSet> = Envelope::WithFrontier {
                frontier: 1,
                delivered: outer,
                inner: Box::new(Envelope::WithFrontier {
                    frontier: 2,
                    delivered: inner,
                    inner: Box::new(Envelope::Fd(FdMsg::Heartbeat(0))),
                }),
            };
            let bytes = nested.to_bytes();
            let mut buf: &[u8] = &bytes;
            assert!(matches!(
                Envelope::<IdSet>::decode(&mut buf),
                Err(CodecError::InvalidTag { tag, .. }) if tag == inner_tag
            ));
        }
    }

    #[test]
    fn consensus_frames_on_ids_stay_small_while_payload_grows() {
        // Core claim of the paper, at the envelope level: the broadcast
        // frame grows with the payload, the consensus frame does not.
        let big_payload = AppMessage::new(
            MsgId::new(ProcessId::new(0), 1),
            Payload::zeroed(5000),
            Time::ZERO,
        );
        let bcast: Envelope<IdSet> = Envelope::Bcast(BcastMsg::Data(big_payload));
        let cons: Envelope<IdSet> = Envelope::Cons {
            k: 1,
            msg: ConsMsg::CtProposal {
                round: 1,
                estimate: IdSet::from_ids([MsgId::new(ProcessId::new(0), 1)]),
            },
        };
        assert!(bcast.wire_size() > 5000);
        assert!(cons.wire_size() < 64);
    }

    #[test]
    fn classes_split_ordering_from_bulk() {
        let bcast: Envelope<IdSet> = Envelope::Bcast(BcastMsg::Data(app_msg()));
        let relay: Envelope<IdSet> = Envelope::Bcast(BcastMsg::Relay(app_msg()));
        let cons: Envelope<IdSet> = Envelope::Cons { k: 1, msg: ConsMsg::CtAck { round: 1 } };
        let decide: Envelope<IdSet> =
            Envelope::Cons { k: 2, msg: ConsMsg::Decide { value: IdSet::new() } };
        let fd: Envelope<IdSet> = Envelope::Fd(FdMsg::Heartbeat(9));
        assert_eq!(bcast.traffic_class(), TrafficClass::Bulk);
        assert_eq!(relay.traffic_class(), TrafficClass::Bulk);
        assert_eq!(cons.traffic_class(), TrafficClass::Ordering);
        assert_eq!(decide.traffic_class(), TrafficClass::Ordering);
        assert_eq!(fd.traffic_class(), TrafficClass::Ordering);

        // Catch-up: requests are latency-sensitive, replies move payload
        // batches; the wrapper takes the class of what it wraps.
        let req: Envelope<IdSet> = Envelope::CatchUpRequest { from_k: 1, to_k: 2 };
        let reply: Envelope<IdSet> = Envelope::CatchUpReply { entries: vec![entry(1)] };
        assert_eq!(req.traffic_class(), TrafficClass::Ordering);
        assert_eq!(reply.traffic_class(), TrafficClass::Bulk);
        let wrapped_fd: Envelope<IdSet> =
            Envelope::WithFrontier { frontier: 1, delivered: vec![1], inner: Box::new(fd) };
        let wrapped_reply: Envelope<IdSet> =
            Envelope::WithFrontier { frontier: 1, delivered: Vec::new(), inner: Box::new(reply) };
        assert_eq!(wrapped_fd.traffic_class(), TrafficClass::Ordering);
        assert_eq!(wrapped_reply.traffic_class(), TrafficClass::Bulk);
    }

    #[test]
    fn bad_tag_rejected() {
        let mut buf: &[u8] = &[9];
        assert!(Envelope::<IdSet>::decode(&mut buf).is_err());
    }
}

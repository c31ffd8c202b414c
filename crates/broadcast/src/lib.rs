//! Broadcast primitives: reliable broadcast (two dissemination strategies)
//! and uniform reliable broadcast.
//!
//! The paper's atomic broadcast reductions sit on top of these:
//!
//! * [`EagerRb`] — reliable broadcast where every receiver immediately
//!   relays: delivery in one step, **O(n²)** messages (the algorithm assumed
//!   by the Chandra–Toueg reduction, and the "Reliable broadcast in O(n²)
//!   messages" of Figures 5 and 7a).
//! * [`LazyRb`] — reliable broadcast that relays only when the failure
//!   detector suspects the sender: **O(n)** messages in good runs (the
//!   "Reliable broadcast in O(n) messages" of Figures 6 and 7b). It keeps
//!   each copy until [`Broadcast::on_stable`] shows every process has
//!   a-delivered it.
//! * [`MajorityAckUrb`] — *uniform* reliable broadcast: echo on first copy,
//!   deliver once a majority of processes is known to hold the message.
//!   Two communication steps for the sender, O(n²) messages — the cost the
//!   paper's §2.2 wants to avoid by introducing indirect consensus.
//!
//! Reliable broadcast guarantees Validity, Uniform integrity and Agreement
//! (for *correct* processes). Uniform reliable broadcast strengthens
//! Agreement to all processes: if **any** process (even one that crashes
//! later) delivers `m`, all correct processes do. The gap between those two
//! guarantees is precisely what makes the naive consensus-on-ids atomic
//! broadcast unsafe (§2.2) and what the *No loss* property of indirect
//! consensus restores.

pub mod eager;
pub mod lazy;
pub mod urb;

use std::fmt;

use iabc_types::{AppMessage, CodecError, Decode, Encode, ProcessId, TrafficClass, WireSize};

pub use eager::EagerRb;
pub use lazy::LazyRb;
pub use urb::MajorityAckUrb;

/// Destination of a broadcast-layer message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BcastDest {
    /// A single process.
    To(ProcessId),
    /// Every process except the sender.
    Others,
}

/// Wire messages of the broadcast layer. Every variant carries the full
/// application message — that is the point: the broadcast layer is the one
/// place where payloads travel.
#[derive(Debug, Clone, PartialEq)]
pub enum BcastMsg {
    /// Initial diffusion by the broadcaster (reliable broadcast).
    Data(AppMessage),
    /// A relay by a receiver (eager) or by a suspecting process (lazy).
    Relay(AppMessage),
    /// Initial diffusion by the broadcaster (uniform reliable broadcast).
    UrbData(AppMessage),
    /// An echo: "I have this message" (uniform reliable broadcast).
    UrbEcho(AppMessage),
}

impl BcastMsg {
    /// The application message carried by this frame.
    pub fn app_message(&self) -> &AppMessage {
        match self {
            BcastMsg::Data(m) | BcastMsg::Relay(m) | BcastMsg::UrbData(m) | BcastMsg::UrbEcho(m) => m,
        }
    }

    fn tag(&self) -> u8 {
        match self {
            BcastMsg::Data(_) => 0,
            BcastMsg::Relay(_) => 1,
            BcastMsg::UrbData(_) => 2,
            BcastMsg::UrbEcho(_) => 3,
        }
    }
}

impl WireSize for BcastMsg {
    fn wire_size(&self) -> usize {
        1 + self.app_message().wire_size()
    }

    fn traffic_class(&self) -> TrafficClass {
        // Every variant carries a full application message: this layer is
        // the payload flood the priority lane drains *behind* consensus.
        TrafficClass::Bulk
    }
}

impl Encode for BcastMsg {
    fn encode(&self, buf: &mut Vec<u8>) {
        buf.push(self.tag());
        self.app_message().encode(buf);
    }
}

impl Decode for BcastMsg {
    fn decode(buf: &mut &[u8]) -> Result<Self, CodecError> {
        let tag = u8::decode(buf)?;
        let m = AppMessage::decode(buf)?;
        Ok(match tag {
            0 => BcastMsg::Data(m),
            1 => BcastMsg::Relay(m),
            2 => BcastMsg::UrbData(m),
            3 => BcastMsg::UrbEcho(m),
            t => return Err(CodecError::InvalidTag { tag: t, context: "BcastMsg" }),
        })
    }
}

/// Output buffer filled by broadcast-module callbacks.
#[derive(Debug, Default)]
pub struct BcastOut {
    /// Messages to send.
    pub sends: Vec<(BcastDest, BcastMsg)>,
    /// Messages delivered to the layer above (`rdeliver` / `urb-deliver`).
    pub deliveries: Vec<AppMessage>,
}

impl BcastOut {
    /// Creates an empty buffer.
    pub fn new() -> Self {
        BcastOut::default()
    }

    /// Whether nothing was produced.
    pub fn is_empty(&self) -> bool {
        self.sends.is_empty() && self.deliveries.is_empty()
    }
}

/// A sans-io broadcast module for one process.
///
/// The composed node routes application broadcasts to
/// [`Broadcast::broadcast`], incoming [`BcastMsg`]s to
/// [`Broadcast::on_message`], failure-detector suspicions and their
/// retractions to [`Broadcast::on_suspect`] and [`Broadcast::on_trust`],
/// and the stability vector to [`Broadcast::on_stable`] (only [`LazyRb`]
/// reacts to the last three).
pub trait Broadcast: fmt::Debug {
    /// Broadcasts an application message.
    fn broadcast(&mut self, m: AppMessage, out: &mut BcastOut);

    /// Handles an incoming broadcast-layer message.
    fn on_message(&mut self, from: ProcessId, msg: BcastMsg, out: &mut BcastOut);

    /// Informs the module that the failure detector now suspects `p`.
    fn on_suspect(&mut self, p: ProcessId, out: &mut BcastOut) {
        let _ = (p, out);
    }

    /// Informs the module that the failure detector trusts `p` again: a
    /// suspicion of `p` reported through [`Broadcast::on_suspect`] is
    /// retracted.
    fn on_trust(&mut self, p: ProcessId) {
        let _ = p;
    }

    /// Informs the module that every process has a-delivered sender `s`'s
    /// messages `0..stable[s]`: no copy of them is needed any more.
    fn on_stable(&mut self, stable: &[u64]) {
        let _ = stable;
    }

    /// Copies held for a possible relay, or `None` for a module that keeps
    /// none — the node piggybacks its a-delivered vector only for a module
    /// that answers `Some`.
    fn retained(&self) -> Option<usize> {
        None
    }

    /// Short human-readable name used in experiment reports.
    fn name(&self) -> &'static str;
}

#[cfg(test)]
mod tests {
    use super::*;
    use iabc_types::wire::roundtrip;
    use iabc_types::{MsgId, Payload, Time};

    fn msg() -> AppMessage {
        AppMessage::new(MsgId::new(ProcessId::new(1), 4), Payload::zeroed(10), Time::ZERO)
    }

    #[test]
    fn bcast_msg_codec_roundtrip_all_variants() {
        for m in [
            BcastMsg::Data(msg()),
            BcastMsg::Relay(msg()),
            BcastMsg::UrbData(msg()),
            BcastMsg::UrbEcho(msg()),
        ] {
            assert_eq!(roundtrip(&m).unwrap(), m);
        }
    }

    #[test]
    fn bcast_msg_rejects_bad_tag() {
        let mut buf = Vec::new();
        BcastMsg::Data(msg()).encode(&mut buf);
        buf[0] = 77;
        let mut slice = buf.as_slice();
        assert!(BcastMsg::decode(&mut slice).is_err());
    }

    #[test]
    fn wire_size_is_payload_plus_one() {
        let m = BcastMsg::Data(msg());
        assert_eq!(m.wire_size(), 1 + msg().wire_size());
    }
}

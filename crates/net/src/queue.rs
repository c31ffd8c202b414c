//! The two-lane outbound queue of one peer connection.
//!
//! [`Lanes`] is the policy, as plain single-owner data: an ordering lane
//! that always drains ahead of the bulk lane, and the **down-mode** rules
//! for a link whose connection is gone but expected back. The event loop
//! of [`crate::tcp`] owns one `Lanes` per peer outright — the node runs on
//! the loop thread, so nothing else ever touches it and there is no lock.

use std::collections::VecDeque;

use iabc_types::{TrafficClass, WireSize};

/// Frames one peer's lanes hold before the event loop applies
/// backpressure. The cap is **soft**: while a connected peer's lanes are
/// at it the loop stops taking application commands (see
/// `event_loop.rs`); frames the protocol emits in reply to socket
/// input are never refused, because a loop that stops reading to wait for
/// a peer that has stopped reading is a deadlock.
pub const MAX_OUTBOUND_FRAMES: usize = 16 * 1024;

/// Bulk-lane watermark while the peer connection is **down**: past this
/// many parked bulk frames the oldest is shed on every push. Ordering
/// frames (consensus rounds, acks, frontiers) are retained up to the full
/// capacity — they are what lets the pair converge after the link heals —
/// while payload floods degrade gracefully instead of growing without
/// bound. Shed payloads are re-delivered by the protocol layer (catch-up
/// plus the sender's pending-set re-flood), not the transport.
const DOWN_BULK_WATERMARK: usize = 1024;

/// The two outbound lanes of one peer link (see module docs).
#[derive(Debug)]
pub struct Lanes<M> {
    ordering: VecDeque<M>,
    bulk: VecDeque<M>,
    capacity: usize,
    /// Set while the peer connection is down but expected back (reconnect
    /// in progress): ordering frames are retained up to capacity, bulk
    /// frames shed their oldest past `DOWN_BULK_WATERMARK`. The
    /// connected path is untouched by this flag.
    down: bool,
    /// Frames shed (bulk watermark or ordering overflow) while down.
    shed: u64,
}

impl<M> Default for Lanes<M> {
    fn default() -> Self {
        Lanes::new()
    }
}

impl<M> Lanes<M> {
    /// Empty lanes with the [`MAX_OUTBOUND_FRAMES`] cap.
    pub fn new() -> Self {
        Lanes::with_capacity(MAX_OUTBOUND_FRAMES)
    }

    pub(crate) fn with_capacity(capacity: usize) -> Self {
        Lanes {
            ordering: VecDeque::new(),
            bulk: VecDeque::new(),
            capacity: capacity.max(1),
            down: false,
            shed: 0,
        }
    }

    /// Frames pending across both lanes.
    pub fn len(&self) -> usize {
        self.ordering.len() + self.bulk.len()
    }

    /// Whether nothing is pending.
    pub fn is_empty(&self) -> bool {
        self.ordering.is_empty() && self.bulk.is_empty()
    }

    /// Whether the lanes are at their cap.
    pub fn is_full(&self) -> bool {
        self.len() >= self.capacity
    }

    /// Flips down-mode (see [`Lanes::push`]). Parked frames drain with the
    /// first batch after the link is back up.
    pub fn set_down(&mut self, down: bool) {
        self.down = down;
    }

    /// Frames shed so far while down (monotone; never reset).
    pub fn shed_count(&self) -> u64 {
        self.shed
    }

    /// Takes the whole backlog: every ordering frame first, then every
    /// bulk frame, FIFO within each lane.
    pub fn drain(&mut self) -> impl Iterator<Item = M> + '_ {
        self.ordering.drain(..).chain(self.bulk.drain(..))
    }
}

impl<M: WireSize> Lanes<M> {
    /// Appends one message to its class lane. The cap is the owner's to
    /// enforce while the link is up; while it is **down** there is no
    /// drainer to wait for, so ordering frames park up to capacity (newest
    /// dropped past it) and bulk frames shed their oldest past
    /// `DOWN_BULK_WATERMARK`.
    pub fn push(&mut self, msg: M) {
        match msg.traffic_class() {
            TrafficClass::Ordering => {
                if self.down && self.is_full() {
                    self.shed += 1;
                } else {
                    self.ordering.push_back(msg);
                }
            }
            TrafficClass::Bulk => {
                self.bulk.push_back(msg);
                while self.down && self.bulk.len() > DOWN_BULK_WATERMARK {
                    self.bulk.pop_front();
                    self.shed += 1;
                }
            }
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use iabc_types::{CodecError, Decode, Encode};

    /// A classed test frame: odd values are ordering, even values bulk.
    #[derive(Clone, Debug, PartialEq)]
    pub(crate) struct Classed(pub u32);
    impl WireSize for Classed {
        fn wire_size(&self) -> usize {
            4
        }
        fn traffic_class(&self) -> TrafficClass {
            if self.0 % 2 == 1 { TrafficClass::Ordering } else { TrafficClass::Bulk }
        }
    }
    impl Encode for Classed {
        fn encode(&self, buf: &mut Vec<u8>) {
            self.0.encode(buf);
        }
    }
    impl Decode for Classed {
        fn decode(buf: &mut &[u8]) -> Result<Self, CodecError> {
            Ok(Classed(u32::decode(buf)?))
        }
    }

    /// A test frame with a body of `len` checked filler bytes: odd ids
    /// ride the ordering lane, even ids the bulk lane. Big ones overflow
    /// any socket buffer and force the loop to park on a partial write;
    /// the `Decode` impl checks the body, so a suffix spliced back at the
    /// wrong offset fails loudly.
    #[derive(Clone, Debug, PartialEq)]
    pub(crate) struct Blob {
        pub id: u32,
        pub len: u32,
    }
    impl WireSize for Blob {
        fn wire_size(&self) -> usize {
            8 + self.len as usize
        }
        fn traffic_class(&self) -> TrafficClass {
            if self.id % 2 == 1 { TrafficClass::Ordering } else { TrafficClass::Bulk }
        }
    }
    impl Encode for Blob {
        fn encode(&self, buf: &mut Vec<u8>) {
            self.id.encode(buf);
            self.len.encode(buf);
            buf.extend(std::iter::repeat_n((self.id % 251) as u8, self.len as usize));
        }
    }
    impl Decode for Blob {
        fn decode(buf: &mut &[u8]) -> Result<Self, CodecError> {
            let id = u32::decode(buf)?;
            let len = u32::decode(buf)?;
            if buf.len() < len as usize {
                return Err(CodecError::Truncated { need: len as usize, have: buf.len() });
            }
            let (body, rest) = buf.split_at(len as usize);
            assert!(body.iter().all(|&b| b == (id % 251) as u8), "frame body corrupted");
            *buf = rest;
            Ok(Blob { id, len })
        }
    }

    fn vals(lanes: &mut Lanes<Classed>) -> Vec<u32> {
        lanes.drain().map(|c| c.0).collect()
    }

    #[test]
    fn lanes_drain_ordering_ahead_of_bulk_and_leave_nothing_behind() {
        let mut lanes: Lanes<Classed> = Lanes::new();
        assert!(lanes.is_empty());
        for v in [2, 4, 1, 6, 3] {
            lanes.push(Classed(v));
        }
        assert_eq!(lanes.len(), 5);
        assert_eq!(vals(&mut lanes), vec![1, 3, 2, 4, 6]);
        assert!(lanes.is_empty());
        assert_eq!(lanes.shed_count(), 0);
    }

    #[test]
    fn up_lanes_take_frames_past_the_cap_and_report_full() {
        // The cap is soft while the link is up: the owner reads `is_full`
        // and stops feeding, a push is never refused.
        let mut lanes: Lanes<Classed> = Lanes::with_capacity(4);
        for v in 0..6 {
            lanes.push(Classed(v));
        }
        assert!(lanes.is_full());
        assert_eq!(lanes.len(), 6);
        assert_eq!(lanes.shed_count(), 0);
        assert_eq!(vals(&mut lanes), vec![1, 3, 5, 0, 2, 4]);
        assert!(!lanes.is_full());
    }

    #[test]
    fn down_mode_parks_ordering_and_sheds_oldest_bulk_past_the_watermark() {
        let mut lanes: Lanes<Classed> = Lanes::new();
        lanes.set_down(true);
        // Ordering frames (odd) park; bulk frames (even) shed their oldest
        // once the watermark is exceeded.
        for v in 0..(2 * DOWN_BULK_WATERMARK as u32 + 11) {
            lanes.push(Classed(v));
        }
        lanes.set_down(false);
        let batch = vals(&mut lanes);
        let ordering: Vec<u32> = batch.iter().copied().filter(|v| v % 2 == 1).collect();
        let bulk: Vec<u32> = batch.iter().copied().filter(|v| v % 2 == 0).collect();
        // Every ordering frame survived, FIFO.
        assert_eq!(ordering.len(), DOWN_BULK_WATERMARK + 5);
        assert!(ordering.windows(2).all(|w| w[0] < w[1]));
        // Bulk kept exactly the watermark, and it is the *newest* suffix.
        assert_eq!(bulk.len(), DOWN_BULK_WATERMARK);
        assert_eq!(bulk[0], 12);
        assert!(bulk.windows(2).all(|w| w[0] < w[1]));
        assert_eq!(lanes.shed_count(), 6, "six oldest bulk frames shed");
    }

    #[test]
    fn down_mode_drops_the_newest_ordering_frame_past_capacity() {
        let mut lanes: Lanes<Classed> = Lanes::with_capacity(4);
        lanes.set_down(true);
        for v in [1, 3, 5, 7, 9, 11] {
            lanes.push(Classed(v));
        }
        assert_eq!(lanes.shed_count(), 2);
        lanes.set_down(false);
        assert_eq!(vals(&mut lanes), vec![1, 3, 5, 7]);
    }
}

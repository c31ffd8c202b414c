//! The two-lane outbound queue of one peer connection.
//!
//! [`Lanes`] is the policy, as plain single-owner data: an ordering lane
//! that always drains ahead of the bulk lane, and the **down-mode** rules
//! for a link whose connection is gone but expected back. The event loop
//! of [`crate::tcp`] owns one `Lanes` per peer outright — the node runs on
//! the loop thread, so nothing else ever touches it and there is no lock.
//!
//! [`PeerQueue`] is `Lanes` behind a mutex and two condvars, for the
//! thread-per-connection control [`crate::tcp_threaded`] only: node
//! threads push ([`PeerQueue::enqueue`], blocking at capacity — that
//! transport's backpressure), a flusher thread parks on
//! [`PeerQueue::next_batch`].
//!
//! # Lock discipline (`PeerQueue`)
//!
//! Each queue owns exactly one `Mutex` plus the two condvars that pair
//! with it; no code path ever holds two queue locks at once (queues belong
//! to distinct connections and never reference each other), so there is no
//! acquisition order to get wrong. The rule that *does* carry weight: **no
//! socket I/O while a queue guard is live.** The flusher takes the lock
//! only to swap the batch out, drops the guard, and encodes/writes from
//! buffers it owns. Condvar waits release the lock for the duration of the
//! wait and are the one sanctioned way to block with a guard in scope.
//!
//! Lock poisoning is recovered, not propagated: the queue state (two
//! deques and a flag) is valid after any partial mutation, and a panic in
//! one node thread must not cascade into the I/O threads of every peer
//! sharing the mesh.

use std::collections::VecDeque;
use std::sync::{Condvar, Mutex};

use iabc_types::{TrafficClass, WireSize};

/// Frames one peer's lanes hold before the owner applies backpressure.
/// On the event loop this is a **soft** cap: while a connected peer's
/// lanes are at it the loop stops taking application commands (see
/// [`crate::event_loop`]); frames the protocol emits in reply to socket
/// input are never refused, because a loop that stops reading to wait for
/// a peer that has stopped reading is a deadlock. [`PeerQueue::enqueue`]
/// blocks the pushing node thread at the cap instead.
pub const MAX_OUTBOUND_FRAMES: usize = 16 * 1024;

/// Bulk-lane watermark while the peer connection is **down**: past this
/// many parked bulk frames the oldest is shed on every push. Ordering
/// frames (consensus rounds, acks, frontiers) are retained up to the full
/// capacity — they are what lets the pair converge after the link heals —
/// while payload floods degrade gracefully instead of growing without
/// bound. Shed payloads are re-delivered by the protocol layer (catch-up
/// plus the sender's pending-set re-flood), not the transport.
pub const DOWN_BULK_WATERMARK: usize = 1024;

/// The two outbound lanes of one peer link (see module docs).
#[derive(Debug)]
pub struct Lanes<M> {
    ordering: VecDeque<M>,
    bulk: VecDeque<M>,
    capacity: usize,
    /// Set while the peer connection is down but expected back (reconnect
    /// in progress): ordering frames are retained up to capacity, bulk
    /// frames shed their oldest past [`DOWN_BULK_WATERMARK`]. The
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
    /// [`DOWN_BULK_WATERMARK`].
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

/// [`Lanes`] shared between node threads and one flusher thread: the
/// outbound queue of the thread-per-connection transport.
pub(crate) struct PeerQueue<M> {
    state: Mutex<PeerQueueState<M>>,
    /// Signalled when work arrives or the queue closes (the flusher waits
    /// here).
    ready: Condvar,
    /// Signalled when a drain frees space or the queue closes (pushers
    /// blocked on a full queue wait here).
    space: Condvar,
}

struct PeerQueueState<M> {
    lanes: Lanes<M>,
    /// Set on shutdown or on a dead peer: pushes are dropped (a crashed
    /// process loses messages — the quasi-reliable channel model).
    closed: bool,
}

impl<M: WireSize> PeerQueue<M> {
    pub(crate) fn new() -> Self {
        PeerQueue::with_capacity(MAX_OUTBOUND_FRAMES)
    }

    pub(crate) fn with_capacity(capacity: usize) -> Self {
        PeerQueue {
            state: Mutex::new(PeerQueueState {
                lanes: Lanes::with_capacity(capacity),
                closed: false,
            }),
            ready: Condvar::new(),
            space: Condvar::new(),
        }
    }

    /// Enqueues one message into its class lane, blocking while the queue
    /// is at capacity (backpressure from a slow peer reaches the node
    /// thread, as a blocking write would). Dropped if closed.
    pub(crate) fn enqueue(&self, msg: M) {
        let mut s = self.state.lock().unwrap_or_else(|e| e.into_inner());
        while !s.closed && s.lanes.is_full() {
            s = self.space.wait(s).unwrap_or_else(|e| e.into_inner());
        }
        if s.closed {
            return;
        }
        s.lanes.push(msg);
        drop(s);
        self.ready.notify_one();
    }

    /// Marks the queue closed and wakes everyone (the flusher and any
    /// pushers blocked on a full queue).
    pub(crate) fn close(&self) {
        self.state.lock().unwrap_or_else(|e| e.into_inner()).closed = true;
        self.ready.notify_all();
        self.space.notify_all();
    }

    /// Blocks until messages are pending (or the queue closed empty), then
    /// takes the whole backlog: every ordering frame first, then every
    /// bulk frame. Returns `None` when closed and fully drained.
    pub(crate) fn next_batch(&self) -> Option<Vec<M>> {
        let mut s = self.state.lock().unwrap_or_else(|e| e.into_inner());
        loop {
            if !s.lanes.is_empty() {
                let batch: Vec<M> = s.lanes.drain().collect();
                drop(s);
                self.space.notify_all();
                return Some(batch);
            }
            if s.closed {
                return None;
            }
            s = self.ready.wait(s).unwrap_or_else(|e| e.into_inner());
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use std::sync::Arc;
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

    #[test]
    fn queue_drains_ordering_ahead_of_bulk() {
        let q: PeerQueue<Classed> = PeerQueue::new();
        for v in [2, 4, 1, 6, 3] {
            q.enqueue(Classed(v));
        }
        let batch = q.next_batch().expect("queue not closed");
        let vals: Vec<u32> = batch.iter().map(|c| c.0).collect();
        // Ordering lane first (FIFO within the lane), then bulk FIFO.
        assert_eq!(vals, vec![1, 3, 2, 4, 6]);
        // Queue now empty: close makes next_batch return None.
        q.close();
        assert!(q.next_batch().is_none());
        // Pushes after close are dropped (crashed-peer semantics).
        q.enqueue(Classed(9));
        assert!(q.next_batch().is_none());
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

    #[test]
    fn full_queue_blocks_the_pusher_until_a_drain_frees_space() {
        let q: Arc<PeerQueue<Classed>> = Arc::new(PeerQueue::with_capacity(4));
        for v in 0..4 {
            q.enqueue(Classed(v));
        }
        // The fifth push must block (backpressure), not grow the queue.
        let pq = Arc::clone(&q);
        let pusher = std::thread::spawn(move || pq.enqueue(Classed(99)));
        std::thread::sleep(std::time::Duration::from_millis(50));
        assert!(!pusher.is_finished(), "push past capacity must block");
        // Draining frees space and unblocks it.
        assert_eq!(q.next_batch().expect("open queue").len(), 4);
        pusher.join().unwrap();
        let batch = q.next_batch().expect("open queue");
        assert_eq!(batch.iter().map(|c| c.0).collect::<Vec<_>>(), vec![99]);
        // close() releases blocked pushers too (message dropped).
        for v in 0..4 {
            q.enqueue(Classed(v));
        }
        let pq = Arc::clone(&q);
        let pusher = std::thread::spawn(move || pq.enqueue(Classed(100)));
        std::thread::sleep(std::time::Duration::from_millis(20));
        q.close();
        pusher.join().unwrap();
    }

    #[test]
    fn closed_queue_with_backlog_still_hands_the_backlog_out() {
        // close() drops *future* pushes; frames already accepted are the
        // flusher's to write (shutdown drains the backlog best-effort).
        let q: PeerQueue<Classed> = PeerQueue::new();
        q.enqueue(Classed(1));
        q.close();
        assert_eq!(q.next_batch().map(|b| b.len()), Some(1));
        assert!(q.next_batch().is_none());
    }
}

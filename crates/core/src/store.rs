//! The received-message store (`received_p` of Algorithm 1), the `rcv`
//! predicate the ordering values evaluate over it, and the cost model for
//! the bookkeeping the paper charges to indirect consensus.

// The store is lookup-only (insert/contains/get/take/len) and is never
// iterated, so hash order cannot leak into delivery order; O(1) lookup
// matters on the rcv() hot path.
// lint:allow(D2): lookup-only store, never iterated
use std::collections::hash_map::RandomState;
// lint:allow(D2): lookup-only store, never iterated
use std::collections::HashMap;
use std::hash::{BuildHasher, Hasher};

use iabc_consensus::RcvOracle;
use iabc_types::{AppMessage, Duration, IdRanges, IdSet, MsgId, ProcessId};

use crate::msgset::MsgSet;

/// Per-operation CPU costs of the atomic broadcast bookkeeping, charged to
/// the simulated CPU via `Action::Work`.
///
/// The dominant term is `rcv_check_per_id`: the paper attributes the
/// latency gap between indirect consensus and the faulty direct
/// implementation to the `rcv()` calls, whose cost grows with the batch
/// size and hence with throughput (§4.3, Figures 3–4). The presets are
/// calibrated alongside [`NetworkParams::setup1`/`setup2`] to land the
/// overhead in the paper's range (≈1.3 ms at n=3, ≈9.5 ms at n=5 under
/// 800 msg/s).
///
/// [`NetworkParams::setup1`/`setup2`]: ../../iabc_sim/struct.NetworkParams.html
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CostModel {
    /// CPU time per identifier for one `rcv(v)` evaluation.
    pub rcv_check_per_id: Duration,
    /// CPU time per identifier for sequencing a decision (Algorithm 1
    /// lines 19–21: set subtraction, deterministic sort, append).
    pub order_per_id: Duration,
    /// CPU time per identifier for assembling a proposal (line 17).
    pub propose_per_id: Duration,
}

impl CostModel {
    /// Cost model matching the paper's Setup 1 (Pentium III, JDK 1.4:
    /// hash lookups through a layered Java stack are expensive).
    pub fn setup1() -> Self {
        CostModel {
            rcv_check_per_id: Duration::from_micros(120),
            order_per_id: Duration::from_micros(15),
            propose_per_id: Duration::from_micros(10),
        }
    }

    /// Cost model matching the paper's Setup 2 (Pentium 4, JDK 1.5).
    pub fn setup2() -> Self {
        CostModel {
            rcv_check_per_id: Duration::from_micros(10),
            order_per_id: Duration::from_micros(2),
            propose_per_id: Duration::from_micros(1),
        }
    }

    /// Zero costs — for logic tests and for the "what if `rcv` were free?"
    /// ablation bench.
    pub fn zero() -> Self {
        CostModel {
            rcv_check_per_id: Duration::ZERO,
            order_per_id: Duration::ZERO,
            propose_per_id: Duration::ZERO,
        }
    }
}

/// `received_p`: the application messages R-delivered (or learned through
/// a full-message decision or a catch-up entry) and **not yet a-delivered**,
/// plus the identifiers — only those — of the ones that were.
///
/// Algorithm 1 reads a payload for the last time when it a-delivers the
/// message (lines 22–25); afterwards only the identifier is consulted, by
/// `rcv(v)` for a proposal that names it. So a-delivery [`take`]s the
/// message out and the store remembers *that* it was held, as per-sender
/// ranges: what is retained is O(in flight) payloads and O(senders) ranges,
/// whatever the length of the run.
///
/// This is the structure the paper's `rcv` function queries: `rcv(v)` is
/// true iff every identifier in `v` is [`contains`]ed here — "I have
/// received `msgs(v)`" does not stop being true at delivery.
///
/// Invariant kept by `AbcastNode`: delivered ⊆ ordered-ever, and
/// ordered-ever ∖ delivered is exactly its `ordered` queue (ordered, payload
/// still awaited) — so a payload for an ordered-but-undelivered id is
/// accepted, and one for a delivered id can never re-enter.
///
/// [`take`]: ReceivedStore::take
/// [`contains`]: ReceivedStore::contains
#[derive(Debug, Default)]
pub struct ReceivedStore {
    // lint:allow(D2): lookup-only — no method iterates this map.
    msgs: HashMap<MsgId, AppMessage, IdHash>,
    /// Identifiers a-delivered (their messages released).
    delivered: IdRanges,
}

impl ReceivedStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        ReceivedStore::default()
    }

    /// Inserts a message; returns `true` if it was new. A copy of a
    /// message that is held, or was a-delivered already, is refused.
    pub fn insert(&mut self, m: AppMessage) -> bool {
        use std::collections::hash_map::Entry;
        if self.delivered.contains(m.id()) {
            return false;
        }
        match self.msgs.entry(m.id()) {
            Entry::Occupied(_) => false,
            Entry::Vacant(e) => {
                e.insert(m);
                true
            }
        }
    }

    /// Whether the message with identifier `id` is held or was a-delivered
    /// — the `rcv` predicate.
    pub fn contains(&self, id: MsgId) -> bool {
        self.delivered.contains(id) || self.msgs.contains_key(&id)
    }

    /// The message with identifier `id`, if held (not yet a-delivered).
    pub fn get(&self, id: MsgId) -> Option<&AppMessage> {
        self.msgs.get(&id)
    }

    /// A-delivery: moves the message with identifier `id` out, if held,
    /// and remembers the identifier as delivered.
    pub fn take(&mut self, id: MsgId) -> Option<AppMessage> {
        let m = self.msgs.remove(&id)?;
        self.delivered.insert(id);
        Some(m)
    }

    /// Remembers `id` as a-delivered without its message ever having been
    /// held — the restart path, run on an empty store, for identifiers the
    /// decided log shows a previous incarnation delivered.
    pub fn mark_delivered(&mut self, id: MsgId) {
        self.delivered.insert(id);
    }

    /// Number of messages held (a-delivered ones are not).
    pub fn len(&self) -> usize {
        self.msgs.len()
    }

    /// Whether no message is held.
    pub fn is_empty(&self) -> bool {
        self.msgs.is_empty()
    }

    /// Ranges the delivered identifiers occupy (see
    /// [`IdRanges::range_count`]): at most one per sender at quiescence.
    pub(crate) fn delivered_ranges(&self) -> usize {
        self.delivered.range_count()
    }

    /// How many of `sender`'s messages, from sequence number 0 on without
    /// a gap, were a-delivered — the entry this process piggybacks for
    /// `sender` in its a-delivered vector.
    pub(crate) fn delivered_prefix(&self, sender: ProcessId) -> u64 {
        self.delivered.prefix(sender)
    }
}

/// The hash of the store's map: multiply-shift over the two words of a
/// [`MsgId`] (the sender and its sequence number), under a key drawn from
/// the standard library's per-process randomness when the store is made.
/// One 128-bit multiply, where SipHash runs its rounds. The key is secret,
/// so a peer cannot pick ids that collide; it never shows elsewhere,
/// because no method iterates the map.
#[derive(Clone, Copy, Debug)]
struct IdHash {
    /// Odd, as multiply-shift requires.
    key: u64,
}

impl Default for IdHash {
    fn default() -> Self {
        IdHash { key: RandomState::new().hash_one(0u64) | 1 }
    }
}

impl BuildHasher for IdHash {
    type Hasher = IdHasher;

    fn build_hasher(&self) -> IdHasher {
        IdHasher { key: self.key, acc: 0 }
    }
}

/// One [`IdHash`] evaluation: the words written are folded into `acc`,
/// and `finish` multiplies it by the key.
struct IdHasher {
    key: u64,
    acc: u64,
}

impl IdHasher {
    /// A [`MsgId`] writes its sender, then its sequence number: the sender
    /// lands in the top 16 bits, so two ids fold to one word only when a
    /// sequence number reaches 2^48.
    fn mix(&mut self, word: u64) {
        self.acc = self.acc.rotate_left(48) ^ word;
    }
}

impl Hasher for IdHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.mix(u64::from(b));
        }
    }

    fn write_u16(&mut self, n: u16) {
        self.mix(u64::from(n));
    }

    fn write_u64(&mut self, n: u64) {
        self.mix(n);
    }

    /// The high half of the 128-bit product, folded onto the low half so
    /// that the map's bucket index (low bits) and its tag (high bits) both
    /// depend on every bit of the id.
    fn finish(&self) -> u64 {
        let product = u128::from(self.acc) * u128::from(self.key);
        (product >> 64) as u64 ^ product as u64
    }
}

/// A value type the atomic broadcast reduction can order by.
///
/// Implemented by [`IdSet`] (identifier-based stacks: indirect, faulty,
/// URB) and [`MsgSet`] (the classic full-message reduction). The node
/// manipulates proposals and decisions exclusively through this interface,
/// so one `AbcastNode` implementation covers all four stacks.
pub trait OrderingValue: iabc_consensus::ConsensusValue + Send + 'static {
    /// Builds the proposal for the next consensus instance from the
    /// currently unordered identifiers (Algorithm 1 line 17).
    fn from_unordered(unordered: &IdSet, store: &ReceivedStore) -> Self;

    /// The identifiers contained in this value, in deterministic order
    /// (Algorithm 1 line 20).
    fn ids(&self) -> IdSet;

    /// Number of identifiers (for cost accounting).
    fn id_count(&self) -> usize;

    /// The `rcv` check: whether every message identified by this value
    /// has been received — is held in `store`, or was a-delivered from it.
    fn held_in(&self, store: &ReceivedStore) -> bool;

    /// Adds any payloads carried *inside* the value to the store (only
    /// full-message sets carry payloads).
    fn store_payloads(&self, store: &mut ReceivedStore);
}

impl OrderingValue for IdSet {
    fn from_unordered(unordered: &IdSet, _store: &ReceivedStore) -> Self {
        unordered.clone()
    }

    fn ids(&self) -> IdSet {
        self.clone()
    }

    fn id_count(&self) -> usize {
        self.len()
    }

    fn held_in(&self, store: &ReceivedStore) -> bool {
        self.iter().all(|id| store.contains(id))
    }

    fn store_payloads(&self, _store: &mut ReceivedStore) {}
}

impl OrderingValue for MsgSet {
    fn from_unordered(unordered: &IdSet, store: &ReceivedStore) -> Self {
        MsgSet::from_msgs(unordered.iter().map(|id| {
            store
                .get(id)
                // lint:allow(P1): rcv predicate — ids enter `unordered` only after their payload is stored (maybe_propose gates on held_in)
                .expect("unordered ids always have payloads in the store")
                .clone()
        }))
    }

    fn ids(&self) -> IdSet {
        MsgSet::ids(self)
    }

    fn id_count(&self) -> usize {
        self.len()
    }

    fn held_in(&self, _store: &ReceivedStore) -> bool {
        true // the value carries its own payloads
    }

    fn store_payloads(&self, store: &mut ReceivedStore) {
        for m in self.iter() {
            store.insert(m.clone());
        }
    }
}

/// The node's `rcv` oracle: a view over its received-message store.
///
/// For the *faulty* and *direct* stacks `check_store` is false and the
/// oracle degenerates to "always true, free" — exactly the unchecked
/// behaviour the paper warns about in §2.2.
#[derive(Debug)]
pub(crate) struct NodeOracle<'a> {
    pub(crate) store: &'a ReceivedStore,
    pub(crate) check_store: bool,
    pub(crate) cost_per_id: Duration,
}

impl<'a, V: OrderingValue> RcvOracle<V> for NodeOracle<'a> {
    fn rcv(&self, v: &V) -> bool {
        !self.check_store || v.held_in(self.store)
    }

    fn cost(&self, v: &V) -> Duration {
        if self.check_store {
            self.cost_per_id * v.id_count() as u64
        } else {
            Duration::ZERO
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use iabc_types::{Payload, ProcessId, Time};

    fn msg(seq: u64) -> AppMessage {
        AppMessage::new(MsgId::new(ProcessId::new(0), seq), Payload::zeroed(1), Time::ZERO)
    }

    #[test]
    fn the_id_hash_spreads_ids_over_the_low_bits() {
        // The map indexes buckets by the low bits: 3 senders × 1,024
        // consecutive ids must not crowd into a few of 4,096 buckets.
        let hash = IdHash::default();
        let ids = (0..3u16).flat_map(|p| (0..1024).map(move |seq| MsgId::new(ProcessId::new(p), seq)));
        let hashes: Vec<u64> = ids.map(|id| hash.hash_one(id)).collect();
        let distinct: std::collections::BTreeSet<u64> = hashes.iter().copied().collect();
        assert_eq!(distinct.len(), hashes.len(), "two ids hashed alike");
        let buckets: std::collections::BTreeSet<u64> = hashes.iter().map(|h| h & 4095).collect();
        assert!(buckets.len() > 1900, "{} of 4096 buckets used", buckets.len());
    }

    #[test]
    fn insert_is_idempotent() {
        let mut s = ReceivedStore::new();
        assert!(s.insert(msg(0)));
        assert!(!s.insert(msg(0)));
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn lookup() {
        let mut s = ReceivedStore::new();
        s.insert(msg(3));
        assert!(s.contains(MsgId::new(ProcessId::new(0), 3)));
        assert!(!s.contains(MsgId::new(ProcessId::new(0), 4)));
        assert_eq!(s.get(MsgId::new(ProcessId::new(0), 3)).unwrap().id().seq(), 3);
    }

    #[test]
    fn take_releases_the_message_and_keeps_the_id() {
        let mut s = ReceivedStore::new();
        let id = msg(3).id();
        assert!(s.take(id).is_none(), "nothing held yet");
        assert!(s.insert(msg(3)));
        assert_eq!(s.take(id).map(|m| m.id()), Some(id));
        assert_eq!((s.len(), s.delivered_ranges()), (0, 1));
        // Still received as far as rcv() is concerned, but gone for good.
        assert!(s.contains(id) && s.get(id).is_none() && s.take(id).is_none());
        assert!(!s.insert(msg(3)), "a late copy must not re-enter");
        assert_eq!(s.len(), 0);
        // The restart path marks ids whose message this store never held.
        s.mark_delivered(msg(4).id());
        assert!(s.contains(msg(4).id()) && !s.insert(msg(4)));
        assert_eq!(s.delivered_ranges(), 1, "3 and 4 are one range");
        assert_eq!(s.delivered_prefix(ProcessId::new(0)), 0, "0..3 were not delivered");
        (0..3).for_each(|seq| s.mark_delivered(msg(seq).id()));
        assert_eq!(s.delivered_prefix(ProcessId::new(0)), 5);
    }

    #[test]
    fn presets_are_ordered_sensibly() {
        let s1 = CostModel::setup1();
        let s2 = CostModel::setup2();
        assert!(s1.rcv_check_per_id > s2.rcv_check_per_id);
        assert_eq!(CostModel::zero().rcv_check_per_id, Duration::ZERO);
    }
}

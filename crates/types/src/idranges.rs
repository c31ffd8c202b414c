//! Grow-only sets of message identifiers, stored as per-sender ranges —
//! the "have I ever seen this id?" memory of the layers on the a-deliver
//! path.
//!
//! Identifiers are `(sender, seq)` with `seq` handed out contiguously from
//! 0, so "everything ever seen from `p`" is one inclusive range per sender
//! plus one per *transient* gap (a relay that overtook its predecessor, a
//! decision that ordered `seq + 1` first). The footprint is therefore
//! O(senders + gaps), not O(history). A sequence number that is never
//! seen (its broadcaster crashed mid-send) leaves one range behind for
//! good — one per such event, not per message.

use crate::message::MsgId;
use crate::process::ProcessId;

/// A set of message identifiers that only grows and only answers
/// membership.
///
/// Deliberately not iterable: nothing about its internal order can leak
/// into protocol decisions.
///
/// # Example
///
/// ```
/// use iabc_types::{IdRanges, MsgId, ProcessId};
/// let id = |seq| MsgId::new(ProcessId::new(1), seq);
/// let mut seen = IdRanges::new();
/// assert!(seen.insert(id(0)));
/// assert!(seen.insert(id(2)));
/// assert!(!seen.insert(id(2)));
/// assert_eq!(seen.range_count(), 2); // {0} and {2}
/// assert!(seen.insert(id(1)));       // fills the gap: {0..=2}
/// assert_eq!(seen.range_count(), 1);
/// assert!(seen.contains(id(1)) && !seen.contains(id(3)));
/// ```
#[derive(Debug, Default)]
pub struct IdRanges {
    /// Indexed by sender: inclusive `(lo, hi)` ranges, sorted, disjoint
    /// and non-adjacent. Sender indices are `u16`, so an identifier naming
    /// a sender that does not exist grows this by at most 64 Ki empty
    /// vectors, once.
    by_sender: Vec<Vec<(u64, u64)>>,
}

/// Index of the first range starting past `seq`; if `seq` is covered, it
/// is by the range just before.
fn upper_bound(ranges: &[(u64, u64)], seq: u64) -> usize {
    ranges.partition_point(|&(lo, _)| lo <= seq)
}

impl IdRanges {
    /// Creates an empty set.
    pub fn new() -> Self {
        IdRanges::default()
    }

    /// Inserts an id; returns `true` if it was not already present.
    pub fn insert(&mut self, id: MsgId) -> bool {
        let sender = id.sender().as_usize();
        if sender >= self.by_sender.len() {
            self.by_sender.resize_with(sender + 1, Vec::new);
        }
        let ranges = &mut self.by_sender[sender];
        let seq = id.seq();
        let i = upper_bound(ranges, seq);
        if i > 0 && seq <= ranges[i - 1].1 {
            return false;
        }
        // Neither `+ 1` can overflow: the left range ends below `seq` and
        // the right one starts above it.
        let joins_left = i > 0 && ranges[i - 1].1 + 1 == seq;
        let joins_right = i < ranges.len() && seq + 1 == ranges[i].0;
        match (joins_left, joins_right) {
            (true, true) => {
                ranges[i - 1].1 = ranges[i].1;
                ranges.remove(i);
            }
            (true, false) => ranges[i - 1].1 = seq,
            (false, true) => ranges[i].0 = seq,
            (false, false) => ranges.insert(i, (seq, seq)),
        }
        true
    }

    /// Whether `id` is a member.
    pub fn contains(&self, id: MsgId) -> bool {
        self.by_sender.get(id.sender().as_usize()).is_some_and(|ranges| {
            let i = upper_bound(ranges, id.seq());
            i > 0 && id.seq() <= ranges[i - 1].1
        })
    }

    /// Number of ranges held, over all senders — the set's footprint. One
    /// per sender once every gap has closed.
    pub fn range_count(&self) -> usize {
        self.by_sender.iter().map(Vec::len).sum()
    }

    /// Length of the contiguous run `0..x` of `sender`'s sequence numbers
    /// in the set: `hi + 1` when its first range starts at 0, else 0.
    pub fn prefix(&self, sender: ProcessId) -> u64 {
        match self.by_sender.get(sender.as_usize()).and_then(|ranges| ranges.first()) {
            Some(&(0, hi)) => hi.saturating_add(1),
            _ => 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn id(p: u16, s: u64) -> MsgId {
        MsgId::new(ProcessId::new(p), s)
    }

    #[test]
    fn in_order_insertion_keeps_one_range_per_sender() {
        let mut r = IdRanges::new();
        for seq in 0..1_000 {
            assert!(r.insert(id(0, seq)));
            assert!(r.insert(id(2, seq)));
        }
        assert_eq!(r.by_sender, vec![vec![(0, 999)], vec![], vec![(0, 999)]]);
        assert_eq!(r.range_count(), 2);
        assert!(!r.insert(id(2, 500)));
        assert!(r.contains(id(0, 999)) && !r.contains(id(0, 1_000)) && !r.contains(id(1, 0)));
    }

    #[test]
    fn a_gap_fills_from_the_left_the_right_and_the_middle() {
        let mut r = IdRanges::new();
        for seq in [0, 1, 7, 8] {
            r.insert(id(0, seq));
        }
        assert_eq!(r.by_sender[0], vec![(0, 1), (7, 8)]);
        assert!(r.insert(id(0, 2))); // extends the left range
        assert!(r.insert(id(0, 6))); // extends the right range
        assert_eq!(r.by_sender[0], vec![(0, 2), (6, 8)]);
        assert!(r.insert(id(0, 4))); // touches neither: a range of its own
        assert_eq!(r.by_sender[0], vec![(0, 2), (4, 4), (6, 8)]);
        assert!(r.insert(id(0, 3)) && r.insert(id(0, 5))); // two merges
        assert_eq!(r.by_sender[0], vec![(0, 8)]);
        assert!((0..=8).all(|seq| r.contains(id(0, seq)) && !r.insert(id(0, seq))));
    }

    #[test]
    fn the_largest_sequence_number_does_not_overflow() {
        let mut r = IdRanges::new();
        assert!(r.insert(id(0, u64::MAX)));
        assert!(!r.insert(id(0, u64::MAX)));
        assert!(r.insert(id(0, 0)));
        assert!(r.insert(id(0, u64::MAX - 1)));
        assert_eq!(r.by_sender[0], vec![(0, 0), (u64::MAX - 1, u64::MAX)]);
        assert!(r.contains(id(0, u64::MAX)) && !r.contains(id(0, u64::MAX - 2)));
    }

    #[test]
    fn the_prefix_is_the_run_from_zero() {
        let mut r = IdRanges::new();
        let p = |i| ProcessId::new(i);
        assert_eq!(r.prefix(p(0)), 0, "nothing seen");
        r.insert(id(0, 1));
        assert_eq!(r.prefix(p(0)), 0, "a run that does not start at 0");
        r.insert(id(0, 0));
        r.insert(id(0, 3));
        assert_eq!(r.prefix(p(0)), 2, "0 and 1; 3 is past the gap");
        r.insert(id(0, 2));
        assert_eq!((r.prefix(p(0)), r.prefix(p(1)), r.prefix(p(9))), (4, 0, 0));
        r.insert(id(1, u64::MAX));
        r.insert(id(2, 0));
        assert_eq!((r.prefix(p(1)), r.prefix(p(2))), (0, 1));
    }

    #[test]
    fn an_unseen_high_sender_index_is_just_absent() {
        let mut r = IdRanges::new();
        assert!(!r.contains(id(u16::MAX, 0)));
        assert!(r.insert(id(u16::MAX, 3)));
        assert!(r.contains(id(u16::MAX, 3)) && !r.contains(id(u16::MAX - 1, 3)));
        assert_eq!(r.range_count(), 1);
    }
}

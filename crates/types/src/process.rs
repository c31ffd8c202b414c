//! Process identifiers and small process sets.
//!
//! The paper considers a static system `Π = {p1, …, pn}`. Processes are
//! addressed by dense indices `0..n`, wrapped in [`ProcessId`] for type
//! safety (C-NEWTYPE).

use std::fmt;

use serde::{Deserialize, Serialize};

use crate::wire::{Decode, Encode, WireSize};
use crate::CodecError;

/// Identifier of a process in the static system `Π = {p_0, …, p_{n-1}}`.
///
/// Process ids are dense indices assigned at configuration time; they are
/// `Copy` and cheap to pass around. The coordinator of round `r` in the
/// rotating-coordinator algorithms is `ProcessId::coordinator_of_round(r, n)`.
///
/// # Example
///
/// ```
/// use iabc_types::ProcessId;
/// let p = ProcessId::new(3);
/// assert_eq!(p.index(), 3);
/// assert_eq!(format!("{p}"), "p3");
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct ProcessId(u16);

impl ProcessId {
    /// Creates a process id from its dense index.
    pub const fn new(index: u16) -> Self {
        ProcessId(index)
    }

    /// Returns the dense index of this process.
    pub const fn index(self) -> u16 {
        self.0
    }

    /// Returns the index as a `usize`, for direct use in slices.
    pub const fn as_usize(self) -> usize {
        self.0 as usize
    }

    /// The rotating coordinator of round `r` (rounds start at 1) in a system
    /// of `n` processes.
    ///
    /// This mirrors `c_p ← (r_p mod n) + 1` from Algorithms 2 and 3 of the
    /// paper, translated to 0-based indices: round 1 is coordinated by `p_1`,
    /// round `n` by `p_0`, matching the paper's 1-based `(r mod n) + 1`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` or `r == 0` (rounds are 1-based).
    pub fn coordinator_of_round(r: u64, n: usize) -> Self {
        assert!(n > 0, "system must have at least one process");
        assert!(r > 0, "rounds are 1-based");
        ProcessId((r % n as u64) as u16)
    }

    /// Iterator over all process ids of a system of size `n`. Ids are
    /// `u16` on the wire, so `n` saturates at `u16::MAX + 1` processes —
    /// far past any configuration the transports accept.
    pub fn all(n: usize) -> impl Iterator<Item = ProcessId> + Clone {
        (0..u16::try_from(n).unwrap_or(u16::MAX)).map(ProcessId)
    }
}

impl fmt::Debug for ProcessId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "p{}", self.0)
    }
}

impl fmt::Display for ProcessId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "p{}", self.0)
    }
}

impl From<u16> for ProcessId {
    fn from(v: u16) -> Self {
        ProcessId(v)
    }
}

impl WireSize for ProcessId {
    fn wire_size(&self) -> usize {
        2
    }
}

impl Encode for ProcessId {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.0.encode(buf);
    }
}

impl Decode for ProcessId {
    fn decode(buf: &mut &[u8]) -> Result<Self, CodecError> {
        Ok(ProcessId(u16::decode(buf)?))
    }
}

/// A compact set of processes, backed by a 64-bit bitmap.
///
/// Suitable for the small "ordering kernel" systems the paper evaluates
/// (n ≤ 64); the constructor enforces this bound.
///
/// # Example
///
/// ```
/// use iabc_types::{ProcessId, ProcessSet};
/// let mut s = ProcessSet::new();
/// s.insert(ProcessId::new(0));
/// s.insert(ProcessId::new(2));
/// assert_eq!(s.len(), 2);
/// assert!(s.contains(ProcessId::new(2)));
/// assert!(!s.contains(ProcessId::new(1)));
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub struct ProcessSet(u64);

impl ProcessSet {
    /// Creates an empty process set.
    pub const fn new() -> Self {
        ProcessSet(0)
    }

    /// Creates a set containing all processes of a system of size `n`.
    ///
    /// # Panics
    ///
    /// Panics if `n > 64`.
    pub fn full(n: usize) -> Self {
        assert!(n <= 64, "ProcessSet supports at most 64 processes");
        if n == 64 {
            ProcessSet(u64::MAX)
        } else {
            ProcessSet((1u64 << n) - 1)
        }
    }

    /// Inserts a process; returns `true` if it was not already present.
    ///
    /// # Panics
    ///
    /// Panics if the process index is ≥ 64.
    pub fn insert(&mut self, p: ProcessId) -> bool {
        assert!(p.as_usize() < 64, "ProcessSet supports at most 64 processes");
        let bit = 1u64 << p.as_usize();
        let was = self.0 & bit != 0;
        self.0 |= bit;
        !was
    }

    /// Removes a process; returns `true` if it was present.
    pub fn remove(&mut self, p: ProcessId) -> bool {
        if p.as_usize() >= 64 {
            return false;
        }
        let bit = 1u64 << p.as_usize();
        let was = self.0 & bit != 0;
        self.0 &= !bit;
        was
    }

    /// Whether `p` is a member.
    pub fn contains(&self, p: ProcessId) -> bool {
        p.as_usize() < 64 && self.0 & (1u64 << p.as_usize()) != 0
    }

    /// Number of members.
    pub fn len(&self) -> usize {
        self.0.count_ones() as usize
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.0 == 0
    }

    /// Iterates members in increasing index order.
    pub fn iter(&self) -> impl Iterator<Item = ProcessId> + '_ {
        let bits = self.0;
        (0..64u16).filter(move |i| bits & (1u64 << i) != 0).map(ProcessId)
    }

    /// Set union.
    pub fn union(self, other: ProcessSet) -> ProcessSet {
        ProcessSet(self.0 | other.0)
    }

    /// Set difference (`self \ other`).
    pub fn difference(self, other: ProcessSet) -> ProcessSet {
        ProcessSet(self.0 & !other.0)
    }
}

impl fmt::Debug for ProcessSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_set().entries(self.iter()).finish()
    }
}

impl FromIterator<ProcessId> for ProcessSet {
    fn from_iter<I: IntoIterator<Item = ProcessId>>(iter: I) -> Self {
        let mut s = ProcessSet::new();
        for p in iter {
            s.insert(p);
        }
        s
    }
}

impl Extend<ProcessId> for ProcessSet {
    fn extend<I: IntoIterator<Item = ProcessId>>(&mut self, iter: I) {
        for p in iter {
            self.insert(p);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn coordinator_rotates_through_all_processes() {
        let n = 3;
        let coords: Vec<_> = (1..=6).map(|r| ProcessId::coordinator_of_round(r, n)).collect();
        assert_eq!(
            coords,
            vec![
                ProcessId::new(1),
                ProcessId::new(2),
                ProcessId::new(0),
                ProcessId::new(1),
                ProcessId::new(2),
                ProcessId::new(0),
            ]
        );
    }

    #[test]
    #[should_panic(expected = "rounds are 1-based")]
    fn coordinator_of_round_zero_panics() {
        let _ = ProcessId::coordinator_of_round(0, 3);
    }

    #[test]
    fn process_set_basic_operations() {
        let mut s = ProcessSet::new();
        assert!(s.is_empty());
        assert!(s.insert(ProcessId::new(5)));
        assert!(!s.insert(ProcessId::new(5)));
        assert!(s.contains(ProcessId::new(5)));
        assert_eq!(s.len(), 1);
        assert!(s.remove(ProcessId::new(5)));
        assert!(!s.remove(ProcessId::new(5)));
        assert!(s.is_empty());
    }

    #[test]
    fn process_set_full_and_iter() {
        let s = ProcessSet::full(5);
        assert_eq!(s.len(), 5);
        let v: Vec<_> = s.iter().collect();
        assert_eq!(v, ProcessId::all(5).collect::<Vec<_>>());
    }

    #[test]
    fn process_set_full_64() {
        let s = ProcessSet::full(64);
        assert_eq!(s.len(), 64);
        assert!(s.contains(ProcessId::new(63)));
    }

    #[test]
    fn process_set_algebra() {
        let a: ProcessSet = [0u16, 1, 2].into_iter().map(ProcessId::new).collect();
        let b: ProcessSet = [2u16, 3].into_iter().map(ProcessId::new).collect();
        assert_eq!(a.union(b).len(), 4);
        assert_eq!(a.difference(b).len(), 2);
        assert!(!a.difference(b).contains(ProcessId::new(2)));
    }

    #[test]
    fn process_id_roundtrips_through_codec() {
        let p = ProcessId::new(513);
        let mut buf = Vec::new();
        p.encode(&mut buf);
        assert_eq!(buf.len(), p.wire_size());
        let mut slice = buf.as_slice();
        assert_eq!(ProcessId::decode(&mut slice).unwrap(), p);
        assert!(slice.is_empty());
    }

    #[test]
    fn debug_formats_are_nonempty() {
        assert_eq!(format!("{:?}", ProcessId::new(1)), "p1");
        assert_eq!(format!("{:?}", ProcessSet::new()), "{}");
    }
}

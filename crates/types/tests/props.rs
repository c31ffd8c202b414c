//! Property-based tests for the vocabulary types.

use iabc_types::wire::roundtrip;
use iabc_types::{
    quorum, Duration, IdRanges, IdSet, MsgId, Payload, ProcessId, ProcessSet, Time,
};
use proptest::prelude::*;

fn arb_msg_id() -> impl Strategy<Value = MsgId> {
    (0u16..64, 0u64..10_000).prop_map(|(p, s)| MsgId::new(ProcessId::new(p), s))
}

proptest! {
    #[test]
    fn msg_id_codec_roundtrip(id in arb_msg_id()) {
        prop_assert_eq!(roundtrip(&id).unwrap(), id);
    }

    #[test]
    fn idset_from_ids_is_sorted_dedup(ids in proptest::collection::vec(arb_msg_id(), 0..200)) {
        let set = IdSet::from_ids(ids.clone());
        let slice = set.as_slice();
        for w in slice.windows(2) {
            prop_assert!(w[0] < w[1], "not strictly sorted: {:?}", slice);
        }
        for id in &ids {
            prop_assert!(set.contains(*id));
        }
    }

    #[test]
    fn idset_codec_roundtrip(ids in proptest::collection::vec(arb_msg_id(), 0..200)) {
        let set = IdSet::from_ids(ids);
        prop_assert_eq!(roundtrip(&set).unwrap(), set);
    }

    #[test]
    fn idset_union_is_commutative_and_contains_both(
        a in proptest::collection::vec(arb_msg_id(), 0..100),
        b in proptest::collection::vec(arb_msg_id(), 0..100),
    ) {
        let sa = IdSet::from_ids(a.clone());
        let sb = IdSet::from_ids(b.clone());
        let u1 = sa.union(&sb);
        let u2 = sb.union(&sa);
        prop_assert_eq!(&u1, &u2);
        for id in a.iter().chain(b.iter()) {
            prop_assert!(u1.contains(*id));
        }
    }

    #[test]
    fn idset_subtract_removes_exactly_members(
        a in proptest::collection::vec(arb_msg_id(), 0..100),
        b in proptest::collection::vec(arb_msg_id(), 0..100),
    ) {
        let mut sa = IdSet::from_ids(a.clone());
        let sb = IdSet::from_ids(b);
        sa.subtract(&sb);
        for id in sa.iter() {
            prop_assert!(!sb.contains(id));
        }
        for id in a {
            prop_assert_eq!(sa.contains(id), !sb.contains(id));
        }
    }

    #[test]
    fn idranges_mirror_btreeset(
        // A small, dense id space: most inserts touch, extend or merge ranges.
        ids in proptest::collection::vec((0u16..4, 0u64..48), 0..300),
    ) {
        let mut ranges = IdRanges::new();
        let mut reference = std::collections::BTreeSet::new();
        for (p, seq) in ids {
            let id = MsgId::new(ProcessId::new(p), seq);
            prop_assert_eq!(ranges.insert(id), reference.insert(id), "insert {:?}", id);
        }
        for p in 0u16..5 {
            for seq in 0u64..50 {
                let id = MsgId::new(ProcessId::new(p), seq);
                prop_assert_eq!(ranges.contains(id), reference.contains(&id), "contains {:?}", id);
            }
        }
        // Sorted, disjoint and non-adjacent ranges are exactly the maximal
        // runs of the reference: an id starts one unless its predecessor
        // (same sender, seq - 1) is present too.
        let runs = reference
            .iter()
            .filter(|id| id.seq() == 0 || !reference.contains(&MsgId::new(id.sender(), id.seq() - 1)))
            .count();
        prop_assert_eq!(ranges.range_count(), runs);
    }

    #[test]
    fn idranges_in_order_insertion_keeps_one_range_per_sender(
        senders in proptest::collection::vec(0u16..4, 0..300),
    ) {
        // Each sender's ids arrive in sequence order, the senders
        // interleaved arbitrarily — the fault-free arrival pattern.
        let mut ranges = IdRanges::new();
        let mut next = [0u64; 4];
        for p in senders {
            let seq = &mut next[p as usize];
            prop_assert!(ranges.insert(MsgId::new(ProcessId::new(p), *seq)));
            *seq += 1;
            prop_assert_eq!(ranges.range_count(), next.iter().filter(|&&n| n > 0).count());
        }
    }

    #[test]
    fn payload_codec_roundtrip(data in proptest::collection::vec(any::<u8>(), 0..2048)) {
        let p = Payload::from(data);
        prop_assert_eq!(roundtrip(&p).unwrap(), p);
    }

    #[test]
    fn process_set_mirrors_btreeset(ops in proptest::collection::vec((0u16..64, any::<bool>()), 0..200)) {
        let mut ps = ProcessSet::new();
        let mut reference = std::collections::BTreeSet::new();
        for (idx, insert) in ops {
            let p = ProcessId::new(idx);
            if insert {
                prop_assert_eq!(ps.insert(p), reference.insert(p));
            } else {
                prop_assert_eq!(ps.remove(p), reference.remove(&p));
            }
        }
        prop_assert_eq!(ps.len(), reference.len());
        prop_assert_eq!(ps.iter().collect::<Vec<_>>(), reference.into_iter().collect::<Vec<_>>());
    }

    #[test]
    fn quorum_identities(n in 1usize..200) {
        // Any two CT majorities intersect.
        prop_assert!(quorum::min_quorum_intersection(n, quorum::majority(n)) >= 1);
        // The max tolerated faults really satisfy the strict bounds.
        prop_assert!(2 * quorum::max_faults_majority(n) < n);
        prop_assert!(3 * quorum::max_faults_third(n) < n);
        // And one more fault would break them.
        prop_assert!(2 * (quorum::max_faults_majority(n) + 1) >= n);
        prop_assert!(3 * (quorum::max_faults_third(n) + 1) >= n);
    }

    #[test]
    fn time_arithmetic_is_consistent(a in 0u64..1_000_000_000, d in 0u64..1_000_000_000) {
        let t = Time::from_nanos(a);
        let dur = Duration::from_nanos(d);
        let t2 = t + dur;
        prop_assert_eq!(t2.elapsed_since(t), dur);
        prop_assert_eq!(t2 - dur, t);
    }
}

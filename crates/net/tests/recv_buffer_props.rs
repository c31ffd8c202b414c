//! Property tests pinning [`RecvBuffer`] (the pooled, decode-in-place
//! receive path the event loop reads into) to [`FrameBuffer`] (the owned
//! copy-then-decode reference) byte for byte: fed the same stream under any
//! re-chunking, the two must decode the same values, buffer the same
//! number of pending bytes, and poison on exactly the same input. The
//! zero-copy rewrite is an optimization, never a semantic change.

mod support;

use iabc_net::codec::{write_frame_into, RecvBuffer};
use support::FrameBuffer;
use iabc_net::BufferPool;
use proptest::prelude::*;

/// Drains a [`FrameBuffer`]: decoded values plus whether decoding errored.
fn drain_owned(fb: &mut FrameBuffer) -> (Vec<u64>, bool) {
    let mut values = Vec::new();
    loop {
        match fb.next_frame::<u64>() {
            Ok(Some(v)) => values.push(v),
            Ok(None) => return (values, false),
            Err(_) => return (values, true),
        }
    }
}

/// Drains a [`RecvBuffer`] the same way.
fn drain_pooled(rb: &mut RecvBuffer) -> (Vec<u64>, bool) {
    let mut values = Vec::new();
    loop {
        match rb.next_frame::<u64>() {
            Ok(Some(v)) => values.push(v),
            Ok(None) => return (values, false),
            Err(_) => return (values, true),
        }
    }
}

/// Feeds one chunk to the pooled buffer the way the event loop does: ask
/// for spare room, copy the "socket" bytes in, commit what was written.
fn feed_pooled(rb: &mut RecvBuffer, chunk: &[u8]) {
    if chunk.is_empty() {
        return;
    }
    let spare = rb.spare(chunk.len());
    spare[..chunk.len()].copy_from_slice(chunk);
    rb.commit(chunk.len());
}

proptest! {
    /// A valid frame stream cut at arbitrary points decodes identically
    /// through both paths, chunk by chunk: same values in the same order,
    /// same pending-byte count after every chunk, nothing left at the end.
    #[test]
    fn decode_in_place_matches_owned_decode_under_rechunking(
        values in proptest::collection::vec(any::<u64>(), 0..12),
        cuts in proptest::collection::vec(0usize..4096, 0..24),
    ) {
        let mut wire = Vec::new();
        for v in &values {
            write_frame_into(v, &mut wire).unwrap();
        }
        let pool = BufferPool::new();
        let mut rb = RecvBuffer::new(&pool);
        let mut fb = FrameBuffer::new();
        let mut via_pooled = Vec::new();
        let mut via_owned = Vec::new();
        let mut rest: &[u8] = &wire;
        for cut in cuts {
            let k = cut.min(rest.len());
            let (head, tail) = rest.split_at(k);
            rest = tail;
            feed_pooled(&mut rb, head);
            fb.extend(head);
            let (pv, perr) = drain_pooled(&mut rb);
            let (ov, oerr) = drain_owned(&mut fb);
            prop_assert!(!perr && !oerr, "valid prefix must not error");
            // Both buffers must agree mid-stream, not just at the end —
            // a frame may never be held back or delivered early.
            prop_assert_eq!(&pv, &ov);
            prop_assert_eq!(rb.pending_bytes(), fb.pending_bytes());
            via_pooled.extend(pv);
            via_owned.extend(ov);
        }
        feed_pooled(&mut rb, rest);
        fb.extend(rest);
        let (pv, perr) = drain_pooled(&mut rb);
        let (ov, oerr) = drain_owned(&mut fb);
        prop_assert!(!perr && !oerr);
        via_pooled.extend(pv);
        via_owned.extend(ov);
        prop_assert_eq!(&via_pooled, &values);
        prop_assert_eq!(&via_owned, &values);
        prop_assert_eq!(rb.pending_bytes(), 0);
        prop_assert_eq!(fb.pending_bytes(), 0);
        prop_assert!(!rb.is_poisoned());
        prop_assert!(!fb.is_poisoned());
    }

    /// Arbitrary garbage never panics either path, and both paths poison
    /// on exactly the same chunk, having delivered the same good prefix.
    #[test]
    fn both_paths_poison_identically_on_garbage(
        chunks in proptest::collection::vec(
            proptest::collection::vec(any::<u8>(), 0..64), 0..16),
    ) {
        let pool = BufferPool::new();
        let mut rb = RecvBuffer::new(&pool);
        let mut fb = FrameBuffer::new();
        let mut errored = false;
        for chunk in &chunks {
            feed_pooled(&mut rb, chunk);
            fb.extend(chunk);
            let (pv, perr) = drain_pooled(&mut rb);
            let (ov, oerr) = drain_owned(&mut fb);
            prop_assert_eq!(pv, ov);
            prop_assert_eq!(perr, oerr, "paths must agree on where the stream breaks");
            if errored {
                // Poison is sticky on both sides.
                prop_assert!(rb.next_frame::<u64>().is_err());
                prop_assert!(fb.next_frame::<u64>().is_err());
            }
            errored = errored || perr;
            prop_assert_eq!(rb.is_poisoned(), errored);
            prop_assert_eq!(fb.is_poisoned(), errored);
        }
    }

    /// Short socket reads — `read(2)` returning fewer bytes than the spare
    /// room offered — change nothing: committing a stream in arbitrary
    /// sub-slices of larger `spare` requests still decodes every value.
    #[test]
    fn short_reads_into_oversized_spare_still_decode(
        values in proptest::collection::vec(any::<u64>(), 1..8),
        ask_extra in 1usize..256,
        commit_caps in proptest::collection::vec(1usize..7, 4..32),
    ) {
        let mut wire = Vec::new();
        for v in &values {
            write_frame_into(v, &mut wire).unwrap();
        }
        let pool = BufferPool::new();
        let mut rb = RecvBuffer::new(&pool);
        let mut decoded = Vec::new();
        let mut offset = 0usize;
        let mut caps = commit_caps.iter().cycle();
        while offset < wire.len() {
            // Ask for more spare than we commit, like a real read would.
            let n = (*caps.next().unwrap()).min(wire.len() - offset);
            let spare = rb.spare(n + ask_extra);
            prop_assert!(spare.len() >= n + ask_extra);
            spare[..n].copy_from_slice(&wire[offset..offset + n]);
            rb.commit(n);
            offset += n;
            let (vs, err) = drain_pooled(&mut rb);
            prop_assert!(!err);
            decoded.extend(vs);
        }
        prop_assert_eq!(decoded, values);
        prop_assert_eq!(rb.pending_bytes(), 0);
    }
}

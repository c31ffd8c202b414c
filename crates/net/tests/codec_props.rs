//! Property tests of the frame codec against adversarial input: a remote
//! peer controls every byte that reaches `RecvBuffer`, so no byte
//! sequence — malformed, truncated, oversized, or arbitrarily re-chunked —
//! may panic the process. The properties are stated on [`FrameBuffer`],
//! the reference decoder `recv_buffer_props.rs` pins `RecvBuffer` to byte
//! for byte. Errors must surface as `Err` and poison the buffer (rule P1's
//! contract: poison the connection, not the process).

mod support;

use iabc_net::codec::{write_frame_into, MAX_FRAME};
use support::FrameBuffer;
use proptest::prelude::*;

/// Drains the buffer: decodes until it yields `None` (needs more bytes) or
/// errors. Returns the decoded values and whether an error occurred.
fn drain(fb: &mut FrameBuffer) -> (Vec<u64>, bool) {
    let mut values = Vec::new();
    loop {
        match fb.next_frame::<u64>() {
            Ok(Some(v)) => values.push(v),
            Ok(None) => return (values, false),
            Err(_) => return (values, true),
        }
    }
}

proptest! {
    /// Arbitrary garbage never panics, and the first decode error is
    /// sticky: every later call fails too (the stream cannot resync).
    #[test]
    fn garbage_bytes_never_panic_and_errors_are_sticky(
        chunks in proptest::collection::vec(
            proptest::collection::vec(any::<u8>(), 0..64), 0..16),
    ) {
        let mut fb = FrameBuffer::new();
        let mut errored = false;
        for chunk in &chunks {
            fb.extend(chunk);
            let (_, err) = drain(&mut fb);
            if errored {
                // Once poisoned, the buffer must keep failing fast.
                prop_assert!(fb.next_frame::<u64>().is_err());
            }
            errored = errored || err;
            prop_assert_eq!(fb.is_poisoned(), errored);
        }
    }

    /// A valid frame stream decodes to the same values no matter how the
    /// bytes are chunked on the way in (TCP owes us no message boundaries).
    #[test]
    fn valid_stream_survives_arbitrary_rechunking(
        values in proptest::collection::vec(any::<u64>(), 0..12),
        cuts in proptest::collection::vec(0usize..4096, 0..24),
    ) {
        let mut wire = Vec::new();
        for v in &values {
            write_frame_into(v, &mut wire).unwrap();
        }
        // Split the wire bytes at pseudo-arbitrary points.
        let mut fb = FrameBuffer::new();
        let mut decoded = Vec::new();
        let mut rest: &[u8] = &wire;
        for cut in cuts {
            let k = cut.min(rest.len());
            let (head, tail) = rest.split_at(k);
            rest = tail;
            fb.extend(head);
            let (vs, err) = drain(&mut fb);
            prop_assert!(!err, "valid prefix must not error");
            decoded.extend(vs);
        }
        fb.extend(rest);
        let (vs, err) = drain(&mut fb);
        prop_assert!(!err);
        decoded.extend(vs);
        prop_assert_eq!(decoded, values);
        prop_assert_eq!(fb.pending_bytes(), 0);
    }

    /// A truncated frame is "need more bytes", never an error — until the
    /// length prefix itself is corrupt.
    #[test]
    fn truncated_frames_wait_instead_of_failing(
        v in any::<u64>(),
        keep in 0usize..12,
    ) {
        let mut wire = Vec::new();
        write_frame_into(&v, &mut wire).unwrap();
        let keep = keep.min(wire.len().saturating_sub(1));
        let mut fb = FrameBuffer::new();
        fb.extend(&wire[..keep]);
        prop_assert!(matches!(fb.next_frame::<u64>(), Ok(None)));
        prop_assert!(!fb.is_poisoned());
        // Completing the frame delivers it.
        fb.extend(&wire[keep..]);
        prop_assert_eq!(fb.next_frame::<u64>().unwrap(), Some(v));
    }

    /// An oversized length prefix errors immediately and poisons the
    /// buffer; bytes fed afterwards are discarded, not accumulated.
    #[test]
    fn oversized_length_prefix_poisons(extra in 1u32..1024) {
        let bad_len = (MAX_FRAME as u32).saturating_add(extra);
        let mut fb = FrameBuffer::new();
        fb.extend(&bad_len.to_le_bytes());
        prop_assert!(fb.next_frame::<u64>().is_err());
        prop_assert!(fb.is_poisoned());
        fb.extend(&[0u8; 32]);
        prop_assert_eq!(fb.pending_bytes(), 0);
        prop_assert!(fb.next_frame::<u64>().is_err());
    }
}

//! Length-prefixed framing for TCP transports.

use std::io;

use iabc_types::{Decode, Encode, ProcessId};

use crate::pool::{BufferPool, PooledBuf};

/// Maximum accepted frame size (16 MiB) — guards against corrupt length
/// prefixes taking the process down.
pub const MAX_FRAME: usize = 16 << 20;

/// Appends one `[u32 length][body]` frame to `scratch` without allocating:
/// the value encodes directly into the buffer and the length prefix is
/// patched afterwards. Callers that hold the buffer across frames (the
/// event loop coalescing a peer's whole backlog into one write) amortize
/// the allocation to zero.
///
/// On error the buffer is restored to its previous length, so a poisoned
/// frame never corrupts the batch around it.
///
/// # Errors
///
/// Fails if the encoded value exceeds [`MAX_FRAME`].
pub fn write_frame_into<T: Encode>(value: &T, scratch: &mut Vec<u8>) -> io::Result<()> {
    let start = scratch.len();
    scratch.extend_from_slice(&[0u8; 4]);
    value.encode(scratch);
    let body_len = scratch.len() - start - 4;
    if body_len > MAX_FRAME {
        scratch.truncate(start);
        return Err(io::Error::new(io::ErrorKind::InvalidData, "frame too large"));
    }
    scratch[start..start + 4].copy_from_slice(&(body_len as u32).to_le_bytes());
    Ok(())
}

/// Writes one `[u32 length][body]` frame (tests feeding a loop by hand).
///
/// # Errors
///
/// Propagates I/O errors from the writer; fails if the encoded value
/// exceeds [`MAX_FRAME`].
#[cfg(test)]
pub(crate) fn write_frame<T: Encode, W: io::Write>(value: &T, w: &mut W) -> io::Result<()> {
    let mut buf = Vec::with_capacity(4 + value.wire_size());
    write_frame_into(value, &mut buf)?;
    w.write_all(&buf)?;
    w.flush()
}

/// `(sender, message)` as one frame: the transport frame format is
/// `[u16 sender id][message]` inside the usual length prefix.
pub struct Tagged<'a, M> {
    /// The sending process.
    pub from: ProcessId,
    /// The message body.
    pub msg: &'a M,
}

impl<M: Encode> iabc_types::WireSize for Tagged<'_, M> {
    fn wire_size(&self) -> usize {
        2 + self.msg.wire_size()
    }
}

impl<M: Encode> Encode for Tagged<'_, M> {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.from.encode(buf);
        self.msg.encode(buf);
    }
}

/// Owned decode-side counterpart of [`Tagged`].
pub struct TaggedOwned<M> {
    /// The sending process.
    pub from: ProcessId,
    /// The message body.
    pub msg: M,
}

impl<M: Decode + iabc_types::WireSize> iabc_types::WireSize for TaggedOwned<M> {
    fn wire_size(&self) -> usize {
        2 + self.msg.wire_size()
    }
}

impl<M: Decode + iabc_types::WireSize> Decode for TaggedOwned<M> {
    fn decode(buf: &mut &[u8]) -> Result<Self, iabc_types::CodecError> {
        Ok(TaggedOwned { from: ProcessId::decode(buf)?, msg: M::decode(buf)? })
    }
}

/// The receive half of the zero-copy path: a pooled buffer that sockets
/// read **directly into** ([`RecvBuffer::spare`] / [`RecvBuffer::commit`])
/// and that yields frames decoded **in place**
/// ([`iabc_types::Decode::decode_in_place`]) from the very bytes the
/// kernel wrote.
///
/// There is no re-assembly copy — payload bytes are copied exactly once,
/// slice → payload store, and nothing else on the receive path copies at
/// all. (The tests pin it to `FrameBuffer`, an owned copy-then-decode
/// reference kept in the crate's test support.)
///
/// Framing contract: `[u32 LE length][body]`,
/// frames over [`MAX_FRAME`] rejected, and decode errors are **sticky** —
/// a stream that lost framing can never resynchronize, so after the first
/// error every call fails fast and the caller must drop the connection.
#[derive(Debug)]
pub struct RecvBuffer {
    /// The pooled arena. `buf.len()` is the arena size; `start..filled`
    /// holds undecoded wire bytes and `filled..` is writable spare.
    buf: PooledBuf,
    start: usize,
    filled: usize,
    poisoned: bool,
}

/// Default read-chunk size: how much spare [`RecvBuffer::spare`]
/// guarantees by default.
pub const RECV_CHUNK: usize = 16 * 1024;

impl RecvBuffer {
    /// A receive buffer backed by `pool` (the arena returns to the pool
    /// when the `RecvBuffer` drops).
    pub fn new(pool: &BufferPool) -> RecvBuffer {
        RecvBuffer { buf: pool.get(), start: 0, filled: 0, poisoned: false }
    }

    /// Makes at least `min` bytes of spare room and returns the writable
    /// tail for the socket to read into; follow with
    /// [`RecvBuffer::commit`]. Compacts the consumed prefix (cursor
    /// memmove) before growing the arena, so steady-state traffic settles
    /// into a fixed-size buffer.
    pub fn spare(&mut self, min: usize) -> &mut [u8] {
        let min = min.max(1);
        if self.start == self.filled {
            // Fully drained: reset the cursors for free.
            self.start = 0;
            self.filled = 0;
        }
        if self.buf.len() - self.filled < min && self.start > 0 {
            self.buf.copy_within(self.start..self.filled, 0);
            self.filled -= self.start;
            self.start = 0;
        }
        if self.buf.len() - self.filled < min {
            let target = (self.filled + min).next_power_of_two().max(RECV_CHUNK);
            self.buf.resize(target, 0);
        }
        &mut self.buf[self.filled..]
    }

    /// Records that the socket wrote `n` bytes into the slice returned by
    /// the last [`RecvBuffer::spare`] call.
    ///
    /// # Panics
    ///
    /// Panics if `n` exceeds the spare room (a transport bug, not remote
    /// input: `n` comes from `read(2)` on a slice of exactly that length).
    pub fn commit(&mut self, n: usize) {
        assert!(n <= self.buf.len() - self.filled, "commit past the spare region");
        self.filled += n;
    }

    /// Whether a previous decode error poisoned this buffer.
    pub fn is_poisoned(&self) -> bool {
        self.poisoned
    }

    /// Bytes buffered but not yet consumed by a decoded frame (0 after
    /// poisoning — the buffer is discarded). For metrics and tests.
    pub fn pending_bytes(&self) -> usize {
        self.filled - self.start
    }

    fn poison(&mut self, reason: &str) -> io::Error {
        self.poisoned = true;
        self.buf.clear();
        self.start = 0;
        self.filled = 0;
        io::Error::new(io::ErrorKind::InvalidData, reason.to_string())
    }

    /// Extracts the next complete frame, decoding it in place from the
    /// pooled arena (no intermediate copy).
    ///
    /// # Errors
    ///
    /// Fails on oversized or malformed frames, and on every call after the
    /// first failure (the buffer is poisoned — close the connection).
    pub fn next_frame<T: Decode>(&mut self) -> io::Result<Option<T>> {
        if self.poisoned {
            return Err(io::Error::new(io::ErrorKind::InvalidData, "recv buffer poisoned"));
        }
        let pending = &self.buf[self.start..self.filled];
        if pending.len() < 4 {
            return Ok(None);
        }
        let len = u32::from_le_bytes([pending[0], pending[1], pending[2], pending[3]]) as usize;
        if len > MAX_FRAME {
            return Err(self.poison("frame too large"));
        }
        if pending.len() < 4 + len {
            return Ok(None);
        }
        match T::decode_in_place(&pending[4..4 + len]) {
            Ok(value) => {
                self.start += 4 + len;
                Ok(Some(value))
            }
            Err(e) => Err(self.poison(&e.to_string())),
        }
    }
}

/// The reference decoder the tests compare [`RecvBuffer`] to; it lives in
/// the integration tests' support directory, which shares it.
#[cfg(test)]
#[path = "../tests/support/frame_buffer.rs"]
mod frame_buffer;

#[cfg(test)]
mod tests {
    use super::frame_buffer::FrameBuffer;
    use super::*;

    #[test]
    fn write_frame_into_reuses_the_scratch_buffer() {
        let mut scratch = Vec::new();
        write_frame_into(&1u32, &mut scratch).unwrap();
        write_frame_into(&2u64, &mut scratch).unwrap();
        write_frame_into(&3u16, &mut scratch).unwrap();
        // The coalesced batch decodes frame by frame.
        let mut fb = FrameBuffer::new();
        fb.extend(&scratch);
        assert_eq!(fb.next_frame::<u32>().unwrap(), Some(1));
        assert_eq!(fb.next_frame::<u64>().unwrap(), Some(2));
        assert_eq!(fb.next_frame::<u16>().unwrap(), Some(3));
        assert_eq!(fb.pending_bytes(), 0);
        // And is byte-identical to three write_frame calls.
        let mut wire = Vec::new();
        write_frame(&1u32, &mut wire).unwrap();
        write_frame(&2u64, &mut wire).unwrap();
        write_frame(&3u16, &mut wire).unwrap();
        assert_eq!(scratch, wire);
        // Reuse after clear: capacity survives, no reallocation needed.
        let cap = scratch.capacity();
        scratch.clear();
        write_frame_into(&9u32, &mut scratch).unwrap();
        assert_eq!(scratch.capacity(), cap);
    }

    #[test]
    fn write_frame_into_restores_the_buffer_on_oversize() {
        let mut scratch = Vec::new();
        write_frame_into(&7u32, &mut scratch).unwrap();
        let good_len = scratch.len();
        let huge = Blob(vec![0u8; MAX_FRAME + 1]);
        assert!(write_frame_into(&huge, &mut scratch).is_err());
        assert_eq!(scratch.len(), good_len, "failed frame must leave no partial bytes");
        // The surviving prefix still decodes.
        let mut fb = FrameBuffer::new();
        fb.extend(&scratch);
        assert_eq!(fb.next_frame::<u32>().unwrap(), Some(7));
    }

    #[test]
    fn frame_buffer_handles_partial_input() {
        let mut wire = Vec::new();
        write_frame(&42u64, &mut wire).unwrap();
        let mut fb = FrameBuffer::new();
        fb.extend(&wire[..3]);
        assert_eq!(fb.next_frame::<u64>().unwrap(), None);
        fb.extend(&wire[3..7]);
        assert_eq!(fb.next_frame::<u64>().unwrap(), None);
        fb.extend(&wire[7..]);
        assert_eq!(fb.next_frame::<u64>().unwrap(), Some(42));
        assert_eq!(fb.next_frame::<u64>().unwrap(), None);
    }

    #[test]
    fn oversized_frame_is_rejected() {
        let mut fb = FrameBuffer::new();
        fb.extend(&(u32::MAX).to_le_bytes());
        assert!(fb.next_frame::<u64>().is_err());
    }

    #[test]
    fn decode_errors_are_sticky() {
        // Regression: next_frame used to leave the malformed bytes in
        // place, so a caller that retried spun on the same frame forever.
        let mut fb = FrameBuffer::new();
        // A well-formed length prefix with a malformed body: 2 bytes can
        // never decode as u64.
        fb.extend(&2u32.to_le_bytes());
        fb.extend(&[0xAB, 0xCD]);
        assert!(!fb.is_poisoned());
        assert!(fb.next_frame::<u64>().is_err(), "malformed body must fail");
        assert!(fb.is_poisoned());

        // Even a perfectly good frame appended afterwards must not revive
        // the stream: framing is already lost.
        let mut wire = Vec::new();
        write_frame(&7u64, &mut wire).unwrap();
        fb.extend(&wire);
        for _ in 0..3 {
            assert!(fb.next_frame::<u64>().is_err(), "poisoned buffer must fail fast");
        }
    }

    #[test]
    fn oversized_frame_poisons_too() {
        let mut fb = FrameBuffer::new();
        fb.extend(&(u32::MAX).to_le_bytes());
        assert!(fb.next_frame::<u64>().is_err());
        assert!(fb.is_poisoned());
        assert!(fb.next_frame::<u64>().is_err());
    }

    /// A test value that decodes from a body of *any* length, including
    /// zero, by consuming every remaining byte.
    #[derive(Debug, Clone, PartialEq)]
    struct Blob(Vec<u8>);

    impl iabc_types::WireSize for Blob {
        fn wire_size(&self) -> usize {
            self.0.len()
        }
    }

    impl Encode for Blob {
        fn encode(&self, buf: &mut Vec<u8>) {
            buf.extend_from_slice(&self.0);
        }
    }

    impl Decode for Blob {
        fn decode(buf: &mut &[u8]) -> Result<Self, iabc_types::CodecError> {
            let v = Blob(buf.to_vec());
            *buf = &[];
            Ok(v)
        }
    }

    #[test]
    fn zero_length_frame_is_a_complete_frame() {
        // `[0, 0, 0, 0]` is a whole frame with an empty body — it must
        // decode (for a type that accepts an empty body), not stall
        // waiting for more bytes.
        let mut fb = FrameBuffer::new();
        fb.extend(&0u32.to_le_bytes());
        assert_eq!(fb.next_frame::<Blob>().unwrap(), Some(Blob(Vec::new())));
        assert_eq!(fb.pending_bytes(), 0);
        assert!(!fb.is_poisoned());
        // For a type that *cannot* decode from an empty body, the frame is
        // malformed and poisons the buffer — it must not be skipped
        // silently or retried forever.
        let mut fb = FrameBuffer::new();
        fb.extend(&0u32.to_le_bytes());
        assert!(fb.next_frame::<u64>().is_err());
        assert!(fb.is_poisoned());
    }

    #[test]
    fn maximum_length_frame_roundtrips_and_one_more_byte_poisons() {
        // Exactly MAX_FRAME is legal...
        let body = vec![0xA5u8; MAX_FRAME];
        let mut fb = FrameBuffer::new();
        fb.extend(&(MAX_FRAME as u32).to_le_bytes());
        fb.extend(&body);
        let got = fb.next_frame::<Blob>().unwrap().expect("complete frame");
        assert_eq!(got.0.len(), MAX_FRAME);
        assert_eq!(got.0, body);
        assert_eq!(fb.pending_bytes(), 0);
        // ...one byte more is rejected on the *length prefix alone*,
        // before any body bytes arrive.
        let mut fb = FrameBuffer::new();
        fb.extend(&((MAX_FRAME + 1) as u32).to_le_bytes());
        assert!(fb.next_frame::<Blob>().is_err());
        assert!(fb.is_poisoned());
    }

    #[test]
    fn length_prefix_split_across_extends_is_reassembled() {
        let mut wire = Vec::new();
        write_frame(&0xFEED_FACE_CAFE_BEEFu64, &mut wire).unwrap();
        let mut fb = FrameBuffer::new();
        // Two bytes of the 4-byte length prefix...
        fb.extend(&wire[..2]);
        assert_eq!(fb.next_frame::<u64>().unwrap(), None);
        assert_eq!(fb.pending_bytes(), 2);
        // ...the other two arrive in a later read, plus the body.
        fb.extend(&wire[2..4]);
        assert_eq!(fb.next_frame::<u64>().unwrap(), None, "prefix alone is not a frame");
        fb.extend(&wire[4..]);
        assert_eq!(fb.next_frame::<u64>().unwrap(), Some(0xFEED_FACE_CAFE_BEEF));
    }

    #[test]
    fn compaction_after_a_large_consumed_prefix_preserves_framing() {
        // Push the consumed cursor well past the 4096-byte compaction
        // threshold, leaving a partial frame at the tail, and verify the
        // memmove did not corrupt it.
        let mut fb = FrameBuffer::new();
        let mut expected = Vec::new();
        for i in 0..800u64 {
            let mut wire = Vec::new();
            write_frame(&i, &mut wire).unwrap();
            fb.extend(&wire);
            expected.push(i);
        }
        // A trailing partial frame: length prefix now, body later.
        let mut tail = Vec::new();
        write_frame(&0xDEAD_BEEFu64, &mut tail).unwrap();
        fb.extend(&tail[..6]);
        let mut got = Vec::new();
        while let Some(v) = fb.next_frame::<u64>().unwrap() {
            got.push(v);
        }
        assert_eq!(got, expected, "compaction corrupted decoded frames");
        assert_eq!(fb.pending_bytes(), 6, "partial tail must survive compaction");
        fb.extend(&tail[6..]);
        assert_eq!(fb.next_frame::<u64>().unwrap(), Some(0xDEAD_BEEF));
        assert_eq!(fb.pending_bytes(), 0);
    }

    #[test]
    fn poisoned_buffer_stays_poisoned_across_further_extends() {
        let mut fb = FrameBuffer::new();
        fb.extend(&(u32::MAX).to_le_bytes());
        assert!(fb.next_frame::<u64>().is_err());
        assert!(fb.is_poisoned());
        // Every further extend is discarded, never buffered, and the
        // buffer keeps failing fast no matter how much well-formed data
        // arrives.
        for round in 0..3 {
            let mut wire = Vec::new();
            write_frame(&(round as u64), &mut wire).unwrap();
            fb.extend(&wire);
            assert_eq!(fb.pending_bytes(), 0, "poisoned buffer must not accumulate bytes");
            assert!(fb.next_frame::<u64>().is_err());
            assert!(fb.is_poisoned());
        }
    }

    /// Simulates a socket read: copy `bytes` into the spare region the way
    /// `read(2)` would, then commit.
    fn recv(rb: &mut RecvBuffer, bytes: &[u8]) {
        let spare = rb.spare(bytes.len());
        spare[..bytes.len()].copy_from_slice(bytes);
        rb.commit(bytes.len());
    }

    #[test]
    fn recv_buffer_decodes_frames_split_across_reads() {
        let pool = BufferPool::new();
        let mut rb = RecvBuffer::new(&pool);
        let mut wire = Vec::new();
        write_frame(&42u64, &mut wire).unwrap();
        write_frame(&7u64, &mut wire).unwrap();
        recv(&mut rb, &wire[..3]);
        assert_eq!(rb.next_frame::<u64>().unwrap(), None);
        recv(&mut rb, &wire[3..13]);
        assert_eq!(rb.next_frame::<u64>().unwrap(), Some(42));
        assert_eq!(rb.next_frame::<u64>().unwrap(), None);
        recv(&mut rb, &wire[13..]);
        assert_eq!(rb.next_frame::<u64>().unwrap(), Some(7));
        assert_eq!(rb.pending_bytes(), 0);
    }

    #[test]
    fn recv_buffer_poisons_sticky_like_frame_buffer() {
        let pool = BufferPool::new();
        let mut rb = RecvBuffer::new(&pool);
        recv(&mut rb, &2u32.to_le_bytes());
        recv(&mut rb, &[0xAB, 0xCD]);
        assert!(rb.next_frame::<u64>().is_err(), "malformed body must fail");
        assert!(rb.is_poisoned());
        assert_eq!(rb.pending_bytes(), 0);
        let mut wire = Vec::new();
        write_frame(&9u64, &mut wire).unwrap();
        recv(&mut rb, &wire);
        assert!(rb.next_frame::<u64>().is_err(), "poisoned buffer must fail fast");
        // Oversize length prefixes poison before any body bytes arrive.
        let mut rb = RecvBuffer::new(&pool);
        recv(&mut rb, &(u32::MAX).to_le_bytes());
        assert!(rb.next_frame::<u64>().is_err());
        assert!(rb.is_poisoned());
    }

    #[test]
    fn recv_buffer_compacts_without_corrupting_a_partial_tail() {
        // Drive the cursor far past the arena start, leave a split frame
        // pending, and verify the compaction memmove preserved it.
        let pool = BufferPool::new();
        let mut rb = RecvBuffer::new(&pool);
        let mut expected = Vec::new();
        for i in 0..800u64 {
            let mut wire = Vec::new();
            write_frame(&i, &mut wire).unwrap();
            recv(&mut rb, &wire);
            expected.push(i);
        }
        let mut tail = Vec::new();
        write_frame(&0xDEAD_BEEFu64, &mut tail).unwrap();
        recv(&mut rb, &tail[..6]);
        let mut got = Vec::new();
        while let Some(v) = rb.next_frame::<u64>().unwrap() {
            got.push(v);
        }
        assert_eq!(got, expected, "compaction corrupted decoded frames");
        assert_eq!(rb.pending_bytes(), 6, "partial tail must survive");
        // Force a compaction+growth cycle by demanding a big spare region.
        let spare = rb.spare(64 * 1024);
        assert!(spare.len() >= 64 * 1024);
        recv(&mut rb, &tail[6..]);
        assert_eq!(rb.next_frame::<u64>().unwrap(), Some(0xDEAD_BEEF));
        assert_eq!(rb.pending_bytes(), 0);
    }

    #[test]
    fn recv_buffer_arena_returns_to_the_pool() {
        let pool = BufferPool::new();
        let mut rb = RecvBuffer::new(&pool);
        rb.spare(RECV_CHUNK);
        drop(rb);
        // The next buffer out of the pool is the arena, capacity and all.
        assert!(pool.get().capacity() >= RECV_CHUNK);
    }

    #[test]
    fn truncated_read_errors() {
        let pool = BufferPool::new();
        // A body cut short of its length prefix is not a frame yet: the
        // bytes wait for the rest, nothing is decoded.
        let mut rb = RecvBuffer::new(&pool);
        recv(&mut rb, &[4u8, 0, 0, 0, 1, 2]);
        assert_eq!(rb.next_frame::<u32>().unwrap(), None);
        assert_eq!(rb.pending_bytes(), 6);
        // A complete frame whose body is too short for its type is a
        // decode error, never a value.
        let mut rb = RecvBuffer::new(&pool);
        recv(&mut rb, &[2u8, 0, 0, 0, 1, 2]);
        assert!(rb.next_frame::<u32>().is_err());
        assert!(rb.is_poisoned());
    }

    #[test]
    fn tagged_roundtrip_carries_the_sender() {
        let mut wire = Vec::new();
        write_frame(&Tagged { from: ProcessId::new(3), msg: &0xFACEu32 }, &mut wire).unwrap();
        let pool = BufferPool::new();
        let mut rb = RecvBuffer::new(&pool);
        recv(&mut rb, &wire);
        let t = rb.next_frame::<TaggedOwned<u32>>().unwrap().expect("complete frame");
        assert_eq!(t.from, ProcessId::new(3));
        assert_eq!(t.msg, 0xFACE);
    }
}

//! `FrameBuffer`: the owned, copy-then-decode reference for the
//! length-prefixed framing that `iabc_net::codec::RecvBuffer` decodes in
//! place.
//!
//! Shared by the integration tests (through `mod support;`) and the
//! codec's unit tests (through a `#[path]` module in `src/codec.rs`). The
//! parent module supplies `MAX_FRAME` in both.

use std::io;

use iabc_types::Decode;

use super::MAX_FRAME;

/// An incremental frame decoder that owns its bytes (accumulates copies,
/// yields complete frames).
///
/// No production path uses it: sockets read into `RecvBuffer`.
/// `FrameBuffer` is the simple reference `recv_buffer_props.rs` pins
/// `RecvBuffer`'s decoded frames to, and the codec's properties are
/// stated on.
///
/// Decode errors are **sticky**: after an oversized or malformed frame the
/// buffer is poisoned and every further call fails fast — a byte stream
/// that has lost framing can never resynchronize, so retrying on the same
/// bytes would spin forever. Callers must drop the connection on the first
/// error.
#[derive(Debug, Default)]
pub struct FrameBuffer {
    buf: Vec<u8>,
    // Consumed prefix of `buf`: frames are dropped O(1) by advancing this
    // cursor, and the buffer is compacted only once the live region starts
    // deep enough to amortize the memmove.
    start: usize,
    poisoned: bool,
}

impl FrameBuffer {
    /// Creates an empty buffer.
    pub fn new() -> Self {
        FrameBuffer::default()
    }

    /// Appends raw bytes from the wire. Bytes arriving after a decode
    /// error are discarded — the stream is already unframeable.
    pub fn extend(&mut self, bytes: &[u8]) {
        if self.poisoned {
            return;
        }
        self.buf.extend_from_slice(bytes);
    }

    /// Whether a previous decode error poisoned this buffer.
    pub fn is_poisoned(&self) -> bool {
        self.poisoned
    }

    /// Bytes buffered but not yet consumed by a decoded frame (0 after
    /// poisoning — the buffer is discarded). For metrics and tests.
    pub fn pending_bytes(&self) -> usize {
        self.buf.len() - self.start
    }

    fn poison(&mut self, reason: &str) -> io::Error {
        self.poisoned = true;
        self.buf = Vec::new();
        self.start = 0;
        io::Error::new(io::ErrorKind::InvalidData, reason.to_string())
    }

    /// Extracts the next complete frame, if one is buffered.
    ///
    /// # Errors
    ///
    /// Fails on oversized or malformed frames, and on every call after the
    /// first failure (the buffer is poisoned — close the connection).
    pub fn next_frame<T: Decode>(&mut self) -> io::Result<Option<T>> {
        if self.poisoned {
            return Err(io::Error::new(io::ErrorKind::InvalidData, "frame buffer poisoned"));
        }
        let pending = &self.buf[self.start..];
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
        match T::from_bytes(&pending[4..4 + len]) {
            Ok(value) => {
                self.start += 4 + len;
                if self.start >= 4096 && self.start * 2 >= self.buf.len() {
                    self.buf.drain(..self.start);
                    self.start = 0;
                }
                Ok(Some(value))
            }
            Err(e) => Err(self.poison(&e.to_string())),
        }
    }
}

//! A reusable byte-buffer pool for the transport hot path.
//!
//! The event loop needs scratch space constantly — receive buffers that
//! sockets read into, encode scratch that outbound batches coalesce into —
//! and allocating it per batch would put the allocator on the per-frame
//! path. [`BufferPool`] keeps returned buffers on a free list instead:
//! [`BufferPool::get`] hands out a cleared [`PooledBuf`] (recycled if one
//! is free, fresh otherwise), the buffer grows on demand like any `Vec`,
//! and dropping it returns it to the pool.
//!
//! # Capacity hygiene
//!
//! A pooled buffer keeps its capacity across uses — that is the point —
//! but it also means one anomalous spike (a rolled-back oversized frame, a
//! single huge batch) would otherwise pin tens of megabytes forever. The
//! return path therefore shrinks any buffer whose capacity exceeds the
//! *shrink threshold* (1 MiB) back down to the threshold. Steady-state
//! traffic below the threshold never reallocates; an anomalous spike costs
//! one `realloc` after the spike instead of unbounded resident memory.
//!
//! # Lock discipline
//!
//! One mutex guards the free list; it is held only for the push/pop and
//! never across I/O or allocation of the buffer contents.
//! Poisoning is recovered (`unwrap_or_else(PoisonError::into_inner)`): the
//! free list is valid after any partial mutation, and a panicking user of
//! one buffer must not wedge every other connection sharing the pool.

use std::sync::{Arc, Mutex};

/// Capacity above which a returned buffer is shrunk back down (1 MiB).
/// Large enough that coalesced batches of ordinary frames never hit it;
/// small enough that a rolled-back `MAX_FRAME`-sized encode (16 MiB+) does
/// not stay resident.
const SHRINK_THRESHOLD: usize = 1 << 20;

/// LIFO free list (most recently returned buffer is reused first — its
/// pages are the warmest).
type FreeList = Arc<Mutex<Vec<Vec<u8>>>>;

/// A shared grow-on-demand pool of byte buffers (see module docs).
#[derive(Debug, Clone)]
pub struct BufferPool {
    free: FreeList,
}

impl Default for BufferPool {
    fn default() -> Self {
        BufferPool::new()
    }
}

impl BufferPool {
    /// An empty pool.
    pub fn new() -> Self {
        BufferPool { free: FreeList::default() }
    }

    /// Takes a cleared buffer out of the pool (recycled if available,
    /// fresh otherwise). Dropping the returned [`PooledBuf`] gives the
    /// buffer back.
    pub fn get(&self) -> PooledBuf {
        let recycled = self.free.lock().unwrap_or_else(|e| e.into_inner()).pop();
        let mut buf = recycled.unwrap_or_default();
        buf.clear();
        PooledBuf { buf, pool: Arc::clone(&self.free) }
    }
}

/// A byte buffer checked out of a [`BufferPool`]; derefs to `Vec<u8>` and
/// returns itself to the pool on drop.
#[derive(Debug)]
pub struct PooledBuf {
    buf: Vec<u8>,
    pool: FreeList,
}

impl std::ops::Deref for PooledBuf {
    type Target = Vec<u8>;
    fn deref(&self) -> &Vec<u8> {
        &self.buf
    }
}

impl std::ops::DerefMut for PooledBuf {
    fn deref_mut(&mut self) -> &mut Vec<u8> {
        &mut self.buf
    }
}

impl Drop for PooledBuf {
    fn drop(&mut self) {
        // Shrink *outside* the pool lock: shrink_to may memcpy/realloc.
        let buf = shrink(std::mem::take(&mut self.buf), SHRINK_THRESHOLD);
        self.pool.lock().unwrap_or_else(|e| e.into_inner()).push(buf);
    }
}

/// `buf`, cleared and shrunk to `threshold` bytes of capacity if it holds
/// more.
fn shrink(mut buf: Vec<u8>, threshold: usize) -> Vec<u8> {
    if buf.capacity() > threshold {
        buf.clear();
        buf.shrink_to(threshold);
    }
    buf
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::{write_frame_into, MAX_FRAME};
    use iabc_types::{Encode, WireSize};

    #[test]
    fn get_return_get_reuses_capacity_below_the_threshold() {
        let pool = BufferPool::new();
        let mut b = pool.get();
        b.extend_from_slice(&[7u8; 4096]);
        let cap = b.capacity();
        drop(b);
        let b = pool.get();
        assert!(b.is_empty(), "recycled buffers must come back cleared");
        assert_eq!(b.capacity(), cap, "capacity under the threshold survives pooling");
        assert_eq!(pool.get().capacity(), 0, "the one pooled buffer is out: the next is fresh");
    }

    /// An encode-only blob for driving `write_frame_into` past `MAX_FRAME`.
    struct Blob(usize);
    impl WireSize for Blob {
        fn wire_size(&self) -> usize {
            self.0
        }
    }
    impl Encode for Blob {
        fn encode(&self, buf: &mut Vec<u8>) {
            buf.resize(buf.len() + self.0, 0xA5);
        }
    }

    #[test]
    fn oversize_frame_rollback_no_longer_pins_the_high_water_capacity() {
        // Regression (ISSUE 9 satellite): `write_frame_into` rolls an
        // oversized frame back by truncating, which restores the *length*
        // but leaves the scratch buffer's *capacity* inflated past
        // MAX_FRAME. When that scratch was a long-lived per-connection
        // buffer, one bad frame pinned ~16 MiB forever. Pooled scratch now
        // flows through the return path, which clamps it.
        let pool = BufferPool::new();
        let mut scratch = pool.get();
        write_frame_into(&Blob(64), &mut scratch).unwrap();
        assert!(write_frame_into(&Blob(MAX_FRAME + 1), &mut scratch).is_err());
        assert_eq!(scratch.len(), 4 + 64, "rollback must restore the batch prefix");
        let inflated = scratch.capacity();
        assert!(inflated > MAX_FRAME, "the rollback leaves capacity inflated");
        drop(scratch);

        let recycled = pool.get();
        assert!(
            recycled.capacity() <= SHRINK_THRESHOLD,
            "returned scratch must be clamped to the shrink threshold, got {}",
            recycled.capacity()
        );
    }

    #[test]
    fn distinct_outstanding_buffers_and_counters() {
        let pool = BufferPool::new();
        let mut a = pool.get();
        let mut b = pool.get();
        a.extend_from_slice(&[1; 100]);
        b.extend_from_slice(&[2; 5000]);
        assert_eq!((a[0], b[0]), (1, 2), "outstanding buffers are distinct");
        let caps = [a.capacity(), b.capacity()];
        drop(a);
        drop(b);
        assert_eq!(pool.free.lock().unwrap().len(), 2, "both returned to the free list");
        // LIFO: the buffer returned last is handed out first.
        assert_eq!([pool.get().capacity(), pool.get().capacity()], [caps[1], caps[0]]);
    }

    #[test]
    fn zero_threshold_pools_only_empty_buffers() {
        let kept = shrink(vec![1, 2, 3], 0);
        assert!(kept.is_empty());
        assert_eq!(kept.capacity(), 0);
    }
}

//! Heap allocations per a-broadcast message on a `TcpCluster`, counted by
//! a global allocator: the whole process, the three event loops and the
//! application thread included.
//!
//! One message in flight at a time, 64 B payloads, senders in rotation
//! over the indirect CT stack: the shape of the benchmark's
//! `small_serial`. Alone in its own test binary, so no other test
//! allocates while the count is taken. Run with `--nocapture` to see the
//! figures.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use iabc_core::stacks::{self, StackParams};
use iabc_core::{AbcastCommand, AbcastEvent};
use iabc_net::TcpCluster;
use iabc_types::{Payload, ProcessId};

/// Counts every allocation and its bytes; frees are not counted.
struct Counting;

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

// SAFETY: every call is forwarded unchanged to the system allocator; the
// counters are plain relaxed atomics that never allocate.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        // SAFETY: the caller's contract for `layout` is passed through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `alloc`/`realloc` above, i.e. from System.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
        // SAFETY: as in `dealloc`; `new_size` is the caller's.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

const N: usize = 3;

/// Broadcasts `count` messages one at a time, each waited for until all
/// `N` processes delivered it.
fn run_serial<N2>(cluster: &mut TcpCluster<N2>, count: usize)
where
    N2: iabc_runtime::Node<Command = AbcastCommand, Output = AbcastEvent> + Send + 'static,
    N2::Msg: iabc_types::Encode + iabc_types::Decode + Send,
{
    for i in 0..count {
        let sender = ProcessId::new((i % N) as u16);
        cluster.send_command(sender, AbcastCommand::Broadcast(Payload::zeroed(64)));
        // The sender's `Broadcast` acknowledgement, then N deliveries.
        let outs = cluster.wait_for_outputs(N + 1, Duration::from_secs(10));
        let delivered =
            outs.iter().filter(|o| matches!(o.output, AbcastEvent::Delivered { .. })).count();
        assert_eq!(delivered, N, "message {i} was not delivered everywhere");
    }
}

#[test]
fn heap_allocations_per_serial_message() {
    const WARM_UP: usize = 200;
    const MEASURED: usize = 2_000;
    let params = StackParams::fault_free(N);
    let mut cluster = TcpCluster::start(N, |p| stacks::indirect_ct(p, &params));
    // Pools, lanes, logs and channels reach their steady size first.
    run_serial(&mut cluster, WARM_UP);
    let (allocs, bytes) = (ALLOCS.load(Ordering::Relaxed), BYTES.load(Ordering::Relaxed));
    run_serial(&mut cluster, MEASURED);
    let allocs = ALLOCS.load(Ordering::Relaxed) - allocs;
    let bytes = BYTES.load(Ordering::Relaxed) - bytes;
    cluster.shutdown();
    let per_msg = allocs as f64 / MEASURED as f64;
    println!(
        "allocations per message: {per_msg:.1} ({:.0} B), over {MEASURED} messages",
        bytes as f64 / MEASURED as f64
    );
    // A regression guard. The count reads ≈ 73, nearly all of them the
    // protocol's own (decoded envelopes, id sets, the outgoing a-delivered
    // vectors); it read ≈ 86 while every pass sent its outputs as a fresh
    // `Vec` and the node built new out-buffers per module call. The bound
    // keeps the margin it had then, ≈ 9: two allocations more per frame
    // (8 frames per message) cross it.
    assert!(per_msg < 82.0, "{per_msg:.1} allocations per message");
}

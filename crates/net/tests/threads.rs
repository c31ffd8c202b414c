//! One thread per process: what `TcpCluster::start` adds to the process.
//!
//! Alone in its own test binary, so no other test's threads come and go
//! while the count is taken.

#![cfg(target_os = "linux")]

use std::collections::BTreeSet;

use iabc_net::TcpCluster;
use iabc_runtime::Node;
use iabc_types::{CodecError, Decode, Encode, WireSize};

#[derive(Clone, Debug)]
struct Unit;
impl WireSize for Unit {
    fn wire_size(&self) -> usize {
        0
    }
}
impl Encode for Unit {
    fn encode(&self, _buf: &mut Vec<u8>) {}
}
impl Decode for Unit {
    fn decode(_buf: &mut &[u8]) -> Result<Self, CodecError> {
        Ok(Unit)
    }
}

struct Idle;
impl Node for Idle {
    type Msg = Unit;
    type Command = ();
    type Output = ();
}

fn thread_ids() -> BTreeSet<String> {
    std::fs::read_dir("/proc/self/task")
        .unwrap()
        .map(|e| e.unwrap().file_name().into_string().unwrap())
        .collect()
}

#[test]
fn a_three_process_cluster_adds_exactly_three_io_threads() {
    let before = thread_ids();
    let cluster = TcpCluster::start(3, |_| Idle);
    let added: Vec<String> = thread_ids().difference(&before).cloned().collect();
    assert_eq!(added.len(), 3, "one thread per process, nothing else: {added:?}");
    // A thread names itself as its first act; until then `comm` still
    // shows the spawner's name.
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
    loop {
        let mut names: Vec<String> = added
            .iter()
            .map(|tid| std::fs::read_to_string(format!("/proc/self/task/{tid}/comm")).unwrap())
            .map(|comm| comm.trim().to_string())
            .collect();
        names.sort();
        if names == ["iabc-io-0", "iabc-io-1", "iabc-io-2"] {
            break;
        }
        assert!(std::time::Instant::now() < deadline, "threads are named {names:?}");
        std::thread::yield_now();
    }
    cluster.shutdown();
    assert_eq!(thread_ids(), before, "shutdown must join every thread it started");
}

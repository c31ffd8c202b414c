//! Real-network runtimes for the sans-io protocol stacks.
//!
//! The paper's Neko framework ran the *same* protocol code in simulation
//! and on a real cluster. This crate is the "real" side for our stacks,
//! and it has one runtime: [`TcpCluster`] — length-prefixed frames over
//! loop-back TCP sockets, **one thread per process**: an event loop
//! ([`poll`] readiness, pooled buffers, decode-in-place) that also runs
//! the node's handlers inline, so a frame goes socket → `on_message` →
//! socket without leaving the thread. Exercises the real codec path end
//! to end. ([`ThreadCluster`] is the same type under its old name.)
//!
//! It drives any [`Node`](iabc_runtime::Node) whose messages encode to
//! the wire — the very same `iabc_core::AbcastNode` state machines the
//! simulator runs, through the same [`Driver`](iabc_runtime::Driver) and
//! under the same link-fault plan ([`NetFaultPlan`]). `Action::Work` is
//! ignored (real CPUs charge themselves).

pub mod cluster;
pub mod codec;
pub mod netfault;
pub mod poll;
pub mod pool;
pub mod queue;
pub mod tcp;

pub(crate) mod event_loop;
pub(crate) mod handoff;
pub(crate) mod reconnect;
pub(crate) mod timers;

pub use cluster::ThreadCluster;
pub use netfault::{NetFaultPlan, NetFaultReport, NetFaultStats};
pub use pool::BufferPool;
pub use tcp::TcpCluster;

use iabc_types::{ProcessId, Time};

/// An application output collected from a real-runtime node.
#[derive(Debug, Clone, PartialEq)]
pub struct NetOutput<O> {
    /// Wall-clock time since cluster start.
    pub at: Time,
    /// The producing process.
    pub process: ProcessId,
    /// The output value.
    pub output: O,
}

//! Actions emitted by protocol state machines.

use iabc_types::{Duration, ProcessId};

use crate::timer::TimerId;

/// An effect requested by a node, to be performed by the executor.
///
/// `M` is the node's wire message type, `O` its application-visible output
/// type (e.g. an `adeliver` notification).
#[derive(Debug, Clone, PartialEq)]
pub enum Action<M, O> {
    /// Send `msg` to process `to` over the (quasi-)reliable channel.
    ///
    /// Sends to self are legal and are delivered back through
    /// [`Node::on_message`](crate::Node::on_message) (executors route them
    /// through a loop-back path that bypasses the NIC).
    Send {
        /// Destination process.
        to: ProcessId,
        /// The message.
        msg: M,
    },
    /// Request `on_timer(timer)` to run `delay` from now.
    SetTimer {
        /// How far in the future the timer fires.
        delay: Duration,
        /// Opaque id handed back on expiry.
        timer: TimerId,
    },
    /// Charge `duration` of CPU time to this process.
    ///
    /// The simulator's contention model serializes this work on the
    /// process's CPU resource *before* subsequent message processing; real
    /// executors ignore it (their CPU cost is, well, real). Protocols use
    /// this to model costs that their simulated representation skips — most
    /// importantly the paper's `rcv()` evaluation cost, which is the
    /// dominant source of indirect-consensus overhead in Figures 3 and 4.
    Work {
        /// Amount of CPU time consumed.
        duration: Duration,
    },
    /// Emit an application-visible output (e.g. `adeliver`).
    Output(O),
}

//! Atomic broadcast by reduction to (indirect) consensus — the paper's
//! Algorithm 1 and its three baselines.
//!
//! # The four stacks
//!
//! | Constructor | Broadcast | Consensus on | Correct? | Paper role |
//! |---|---|---|---|---|
//! | [`stacks::indirect_ct`] / [`stacks::indirect_mr`] | RB (O(n) or O(n²)) | id sets, **indirect** (Algorithms 2/3) | ✔ | the contribution |
//! | [`stacks::direct_ct_messages`] / [`stacks::direct_mr_messages`] | RB | **full message sets** | ✔ | classic reduction \[2\]; slow for large payloads (Fig. 1) |
//! | [`stacks::faulty_ct_ids`] / [`stacks::faulty_mr_ids`] | RB | id sets, unmodified | ✘ (§2.2) | what earlier group-communication stacks did; fast but loses Validity under a crash (Figs. 3–4) |
//! | [`stacks::urb_ct_ids`] / [`stacks::urb_mr_ids`] | **URB** | id sets, unmodified | ✔ | the other correct fix; pays URB's cost (Figs. 5–7) |
//!
//! # Algorithm 1 in this crate
//!
//! | Module | Owns |
//! |---|---|
//! | [`node`] | Algorithm 1's state and transitions: `on_command` R-broadcasts `m` (line 8); `rdeliver` adds its id to `unordered_p` (11–14); `maybe_propose` proposes instance `k + 1` with `(unordered_p, rcv)` while the window has room (15–18); `apply_decision` appends the decided ids to `ordered_p` in `(sender, seq)` order (18–21); `try_deliver` a-delivers the head of `ordered_p` once its payload is present (22–25) |
//! | [`proposal`] | `ProposalPolicy`: which candidate ids a proposal carries and when — the window `W` (static, or the AIMD [`WindowController`]), the per-proposal cap, the freshness gate |
//! | `recovery` | `Recovery`, present iff catch-up or learner mode is on: the decided log and the catch-up request machine |
//! | `collective` | `Collective`: per process, the highest decided frontier and a-delivered vector heard from it; their minimum over all `n` frees lazy RB copies and the in-memory decided log, and it builds the piggyback every frame rides in |
//!
//! # Example
//!
//! ```
//! use iabc_core::stacks::{self, StackParams};
//! use iabc_core::{AbcastCommand, AbcastEvent};
//! use iabc_sim::{NetworkParams, SimBuilder};
//! use iabc_types::{Payload, ProcessId, Time, Duration};
//!
//! // Three processes running the paper's stack: RB + indirect CT consensus.
//! let params = StackParams::fault_free(3);
//! let mut world = SimBuilder::new(3, NetworkParams::setup1())
//!     .build(|p| stacks::indirect_ct(p, &params));
//! world.schedule_command(
//!     ProcessId::new(0),
//!     Time::ZERO + Duration::from_millis(1),
//!     AbcastCommand::Broadcast(Payload::zeroed(100)),
//! );
//! world.run_to_quiescence();
//! let delivered: Vec<_> = world
//!     .outputs()
//!     .iter()
//!     .filter(|r| matches!(r.output, AbcastEvent::Delivered { .. }))
//!     .collect();
//! assert_eq!(delivered.len(), 3); // all three processes a-deliver m
//! ```

mod collective;
pub mod decided;
pub mod envelope;
pub mod monitor;
pub mod msgset;
pub mod node;
pub mod proposal;
mod recovery;
pub mod stacks;
pub mod store;

use iabc_types::{AppMessage, MsgId, Payload};

pub use decided::{DecidedEntry, DecidedLog, DurableDecidedLog, MemDecidedLog};
pub use envelope::Envelope;
pub use monitor::{AbcastChecker, Violation};
pub use msgset::MsgSet;
pub use node::AbcastNode;
pub use proposal::{PipelineConfig, WindowController};
pub use stacks::{ConsensusFamily, RbKind, StackParams, VariantKind};
pub use store::{CostModel, OrderingValue, ReceivedStore};

/// Application command accepted by every atomic broadcast stack.
#[derive(Debug, Clone)]
pub enum AbcastCommand {
    /// `abroadcast` the given payload.
    Broadcast(Payload),
}

/// Application-visible events emitted by every atomic broadcast stack.
#[derive(Debug, Clone, PartialEq)]
pub enum AbcastEvent {
    /// A payload handed to [`AbcastCommand::Broadcast`] was assigned this
    /// identifier and R-broadcast (Algorithm 1 line 8).
    Broadcast {
        /// The new message's identifier.
        id: MsgId,
    },
    /// A message was a-delivered (Algorithm 1 line 24).
    Delivered {
        /// The delivered message (carries its a-broadcast timestamp, from
        /// which latency is computed).
        msg: AppMessage,
    },
}

/// What a node holds at one moment, collection by collection
/// ([`AbcastNode::retained`]): each count stays O(in flight) however long
/// the run (`crates/sim/tests/bounded_state.rs`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Retained {
    /// Messages in the store: R-delivered, not yet a-delivered.
    pub stored: usize,
    /// Identifiers received but not yet ordered (`unordered_p`).
    pub unordered: usize,
    /// Identifiers ordered but not yet deliverable (payload still missing).
    pub ordered: usize,
    /// Decided instances past the apply cursor, waiting for a lower one.
    pub buffered_decisions: usize,
    /// Consensus instance slots (live + decided, not applied + GC cache).
    pub consensus_slots: usize,
    /// Ranges of the two ever-seen id sets (ordered, a-delivered): one per
    /// sender and set once every gap closed.
    pub id_ranges: usize,
    /// Copies the broadcast layer holds for a relay on suspicion.
    pub rb_copies: usize,
    /// Decided-log entries held (0 with catch-up off): with the default
    /// in-memory log, the instances some member may still fetch.
    pub log_entries: usize,
}

//! Deterministic discrete-event simulator with a LAN contention model.
//!
//! This crate plays the role of the paper's testbeds: the Neko simulation
//! engine *and* the two physical clusters (Setup 1: Pentium III / 100 Mb/s
//! Ethernet; Setup 2: Pentium 4 / 1 Gb/s Ethernet). Protocol stacks written
//! against `iabc-runtime`'s sans-io [`Node`](iabc_runtime::Node) trait run
//! unchanged under this simulator or over TCP, through the same
//! [`Driver`](iabc_runtime::Driver).
//!
//! # The contention model
//!
//! Every message from `p` to `q` flows through four FIFO resources:
//!
//! ```text
//!  p's CPU ──► p's NIC(tx) ──propagation──► q's NIC(rx) ──► q's CPU ──► on_message
//! ```
//!
//! * CPU stages cost `overhead + per_byte · size` (protocol processing,
//!   serialization — the dominant cost for small messages, exactly what
//!   saturates first in the paper's 1-byte experiments).
//! * NIC stages cost `(size + frame_overhead) / bandwidth` (what saturates
//!   first when consensus ships full payloads around — Figure 1).
//! * Self-sends never leave the process: the driver delivers each at the
//!   issuing handler's instant, after that handler returns, FIFO — the
//!   rule the sockets follow. They cost no CPU, NIC or wire time.
//!
//! Queueing at these resources is what produces the paper's latency-vs-load
//! curves; nothing about the *shape* of those curves is hard-coded.
//!
//! # Determinism
//!
//! Events are ordered by `(time, sequence-number)`, where sequence numbers
//! are assigned at scheduling time. Two runs with the same nodes, fault plan
//! and command schedule produce bit-identical traces. There are no clocks,
//! no threads and no ambient randomness anywhere in this crate.
//!
//! # Example
//!
//! ```
//! use iabc_runtime::{Context, Node};
//! use iabc_sim::{NetworkParams, SimBuilder};
//! use iabc_types::{ProcessId, WireSize};
//!
//! #[derive(Clone, Debug)]
//! struct Hello;
//! impl WireSize for Hello {
//!     fn wire_size(&self) -> usize { 1 }
//! }
//!
//! /// Every process greets every other process once, and reports greetings.
//! struct Greeter;
//! impl Node for Greeter {
//!     type Msg = Hello;
//!     type Command = ();
//!     type Output = ProcessId;
//!     fn on_start(&mut self, ctx: &mut Context<Hello, ProcessId>) {
//!         ctx.send_to_others(Hello);
//!     }
//!     fn on_message(&mut self, from: ProcessId, _m: Hello, ctx: &mut Context<Hello, ProcessId>) {
//!         ctx.output(from);
//!     }
//! }
//!
//! let mut world = SimBuilder::new(3, NetworkParams::setup1())
//!     .build(|_p| Greeter);
//! world.run_to_quiescence();
//! assert_eq!(world.outputs().len(), 6); // 3 processes × 2 greetings
//! ```

pub mod faults;
pub mod network;
pub mod queue;
pub mod resource;
pub mod world;

pub use faults::{CrashSchedule, FaultPlan, FaultTraceEntry, LinkFault, LinkFaults};
pub use network::NetworkParams;
pub use world::{OutputRecord, SimBuilder, SimWorld, StopReason};

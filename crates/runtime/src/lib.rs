//! Sans-io protocol runtime abstractions.
//!
//! Every protocol in this workspace (reliable broadcast, ◇S consensus,
//! atomic broadcast, failure detectors) is written as a *pure state machine*:
//! it reacts to events by mutating its state and pushing [`Action`]s into
//! a [`Context`]. No I/O, no clocks, no threads — which is what lets the
//! *same* protocol code run under the deterministic simulator (`iabc-sim`)
//! and the TCP runtime (`iabc-net`), exactly like the paper's Neko
//! framework ran the same Java protocols in simulation and on the cluster.
//!
//! Both hosts run every handler through one [`Driver`], the only
//! interpreter of [`Action`]s: it delivers self-sends itself, FIFO and
//! after the issuing handler returns, and hands the host the rest through
//! [`Effects`]. So the simulator schedules self-sends as the sockets do.
//!
//! # Example
//!
//! ```
//! use iabc_runtime::{Context, Node};
//! use iabc_types::{ProcessId, WireSize};
//!
//! /// A node that echoes every message back to its sender.
//! struct Echo;
//!
//! #[derive(Clone, Debug, PartialEq)]
//! struct Ping(u32);
//! impl WireSize for Ping {
//!     fn wire_size(&self) -> usize { 4 }
//! }
//!
//! impl Node for Echo {
//!     type Msg = Ping;
//!     type Command = ();
//!     type Output = ();
//!     fn on_message(&mut self, from: ProcessId, msg: Ping, ctx: &mut Context<Ping, ()>) {
//!         ctx.send(from, msg);
//!     }
//! }
//!
//! let mut ctx = Context::new(ProcessId::new(0), 3, iabc_types::Time::ZERO);
//! Echo.on_message(ProcessId::new(1), Ping(7), &mut ctx);
//! assert_eq!(ctx.take_actions().len(), 1);
//! ```

pub mod action;
pub mod context;
pub mod driver;
pub mod node;
pub mod timer;

pub use action::Action;
pub use context::Context;
pub use driver::{Driver, Effects};
pub use node::Node;
pub use timer::TimerId;

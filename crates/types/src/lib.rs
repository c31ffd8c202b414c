//! Common vocabulary types for the `indirect-abcast` workspace.
//!
//! This crate defines the process/message identifier types, the virtual time
//! base used by the deterministic simulator, quorum arithmetic for the
//! ◇S algorithms of the paper, and a small byte-accurate wire codec used both
//! to serialize protocol messages on real transports and to compute realistic
//! on-the-wire sizes for the simulated network contention model.
//!
//! # Example
//!
//! ```
//! use iabc_types::{ProcessId, MsgId, IdSet, quorum};
//!
//! let p = ProcessId::new(2);
//! let id = MsgId::new(p, 7);
//! let mut set = IdSet::new();
//! set.insert(id);
//! assert!(set.contains(id));
//! // Chandra-Toueg needs a majority, the indirect MR algorithm two thirds:
//! assert_eq!(quorum::majority(5), 3);
//! assert_eq!(quorum::two_thirds(5), 4);
//! ```

pub mod config;
pub mod error;
pub mod ewma;
pub mod idranges;
pub mod idset;
pub mod message;
pub mod process;
pub mod quorum;
pub mod time;
pub mod wire;

pub use config::SystemConfig;
pub use error::{CodecError, ConfigError};
pub use ewma::Ewma;
pub use idranges::IdRanges;
pub use idset::IdSet;
pub use message::{AppMessage, MsgId, Payload};
pub use process::{ProcessId, ProcessSet};
pub use time::{Duration, Time};
pub use wire::{Decode, Encode, TrafficClass, WireSize};

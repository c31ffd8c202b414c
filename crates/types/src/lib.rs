//! Common vocabulary types for the `indirect-abcast` workspace.
//!
//! This crate defines the process/message identifier types, the virtual time
//! base used by the deterministic simulator, quorum arithmetic for the
//! ◇S algorithms of the paper, the link-fault grammar both transports read
//! ([`LinkFaults`]), and a small byte-accurate wire codec used both
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

pub mod error;
pub mod ewma;
pub mod faults;
pub mod idranges;
pub mod idset;
pub mod message;
pub mod process;
pub mod quorum;
pub mod time;
pub mod wire;

pub use error::CodecError;
pub use ewma::Ewma;
pub use faults::{FaultTraceEntry, LinkFault, LinkFaults};
pub use idranges::IdRanges;
pub use idset::IdSet;
pub use message::{AppMessage, MsgId, Payload};
pub use process::{ProcessId, ProcessSet};
pub use time::{Duration, Time};
pub use wire::{Decode, Encode, TrafficClass, WireSize};

/// splitmix64 finalizer: a full-avalanche scramble of one 64-bit word.
/// Every seeded draw stream in the workspace — the link-fault plan on
/// either transport, reconnect jitter — keys on it, so a seed means the
/// same thing everywhere.
pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

//! Workload generation, latency measurement and experiment running.
//!
//! Reproduces the paper's measurement methodology (§4.2): a *symmetric*
//! workload in which all `n` processes a-broadcast at the same rate (the
//! global rate being the *throughput*), and the performance metric is the
//! **latency** of atomic broadcast — the average, over all processes and
//! messages, of the time between `abroadcast(m)` and `adeliver(m)`.
//!
//! [`run_variant`] is the one-call entry point the figure harnesses use:
//! it instantiates one of the paper's stacks on the simulated LAN, applies
//! a Poisson (or uniformly spaced) arrival schedule, trims warm-up, and
//! returns latency statistics plus saturation diagnostics.

pub mod coalesce;
pub mod gen;
pub mod runner;
pub mod stats;

pub use coalesce::BatchCoalescer;
pub use gen::{arrival_schedule, batched_schedule, ArrivalKind};
pub use runner::{run_variant, ExperimentResult, WorkloadSpec, CI_SMOKE_SEED};
pub use stats::LatencyStats;

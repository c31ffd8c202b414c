//! # indirect-abcast
//!
//! A complete Rust implementation of
//! *Solving Atomic Broadcast with Indirect Consensus*
//! (Ekwall & Schiper, DSN 2006): atomic broadcast by reduction to
//! **indirect consensus** — consensus on message *identifiers* guarded by
//! the `rcv` predicate and the **No loss** property — together with every
//! substrate and baseline the paper uses:
//!
//! * Chandra–Toueg and Mostéfaoui–Raynal ◇S consensus, original and
//!   indirect (Algorithms 2 and 3), with the paper's resilience results
//!   (`f < n/2` vs `f < n/3`);
//! * reliable broadcast in O(n) and O(n²) messages, uniform reliable
//!   broadcast;
//! * heartbeat / scripted failure detectors;
//! * a deterministic discrete-event LAN simulator calibrated to the
//!   paper's two testbeds, plus thread and TCP runtimes for the same
//!   sans-io protocol code;
//! * a benchmark harness regenerating every figure of the paper's
//!   evaluation;
//! * throughput knobs the paper never measured, each set in one place,
//!   `StackParams` — a pipelined consensus window (`with_window`), an
//!   AIMD adaptive window controller with server-side proposal capping
//!   (`with_adaptive_window` / `with_proposal_cap`), the proposal
//!   freshness gate and catch-up — plus client-side proposal batching
//!   (`WorkloadSpec::with_pipeline`, whose spec embeds the `StackParams`
//!   it runs) and the `pipeline_sweep` bench that maps the `W × B`
//!   goodput surface with an adaptive row.
//!
//! ## Quickstart
//!
//! ```
//! use indirect_abcast::prelude::*;
//!
//! // Three simulated processes running RB + indirect CT consensus.
//! let params = StackParams::fault_free(3);
//! let mut world = SimBuilder::new(3, NetworkParams::setup1())
//!     .build(|p| stacks::indirect_ct(p, &params));
//!
//! // Everyone broadcasts one message "at the same time".
//! for p in 0..3u16 {
//!     world.schedule_command(
//!         ProcessId::new(p),
//!         Time::ZERO + Duration::from_millis(1),
//!         AbcastCommand::Broadcast(Payload::zeroed(64)),
//!     );
//! }
//! world.run_to_quiescence();
//!
//! // All processes deliver all three messages, in the same total order.
//! let mut orders = vec![Vec::new(); 3];
//! for rec in world.outputs() {
//!     if let AbcastEvent::Delivered { msg } = &rec.output {
//!         orders[rec.process.as_usize()].push(msg.id());
//!     }
//! }
//! assert_eq!(orders[0].len(), 3);
//! assert_eq!(orders[0], orders[1]);
//! assert_eq!(orders[1], orders[2]);
//! ```
//!
//! See `examples/` for larger scenarios (replicated key-value store, crash
//! faults, the paper's §2.2 counterexample, real-thread and TCP clusters)
//! and `crates/bench` for the figure harnesses.

pub use iabc_broadcast as broadcast;
pub use iabc_consensus as consensus;
pub use iabc_core as core;
pub use iabc_fd as fd;
pub use iabc_net as net;
pub use iabc_runtime as runtime;
pub use iabc_sim as sim;
pub use iabc_types as types;
pub use iabc_workload as workload;

/// One-line import for applications and examples.
pub mod prelude {
    pub use iabc_core::stacks::{self, FdKind, StackParams};
    pub use iabc_core::{
        AbcastChecker, AbcastCommand, AbcastEvent, ConsensusFamily, CostModel, PipelineConfig,
        RbKind, VariantKind, Violation,
    };
    pub use iabc_net::{NetFaultPlan, NetFaultReport, TcpCluster, ThreadCluster};
    pub use iabc_sim::{
        CrashSchedule, FaultPlan, FaultTraceEntry, LinkFault, LinkFaults, NetworkParams,
        SimBuilder, SimWorld, StopReason,
    };
    pub use iabc_types::{
        AppMessage, Duration, IdSet, MsgId, Payload, ProcessId, ProcessSet, SystemConfig, Time,
    };
    pub use iabc_workload::{
        run_abcast_experiment, run_variant, ArrivalKind, ExperimentResult, LatencyStats,
        WorkloadSpec,
    };
}

//! The five workloads. Names are part of `BENCHMARK.json`, which also
//! records why each was chosen; sizes were probed so that each measured
//! interval is one to three seconds on the 2-core reference box and each
//! workload's state stays well inside RAM.

use std::time::Duration;

use iabc_core::stacks::StackParams;

use crate::gen::SenderOrder;
use crate::realrun::Load;

/// Processes per cluster. Three is the smallest size with a majority to
/// lose a member from, and already puts 3 node threads + 3 `iabc-io-*`
/// threads + the generator on the box's 2 cores; 5 or 7 would measure the
/// scheduler.
pub const N: usize = 3;

/// Which of the paper's stacks a workload runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stack {
    /// `stacks::indirect_ct`: consensus orders identifiers (the paper's
    /// contribution).
    IndirectCt,
    /// `stacks::direct_ct_messages`: consensus orders full messages (the
    /// paper's baseline).
    DirectCtMessages,
}

#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    pub stack: Stack,
    pub payload_len: usize,
    pub senders: SenderOrder,
    /// Load of one measured interval (one fresh cluster).
    pub load: Load,
    /// Heartbeat failure detector (25 ms / 200 ms) and catch-up on; off
    /// means `StackParams::fault_free`.
    pub fault_tolerant: bool,
    /// Messages the traced single-threaded replay pushes through.
    pub trace_count: u64,
}

impl Workload {
    /// Stack parameters for an `n`-process cluster of this workload.
    pub fn params(&self, n: usize) -> StackParams {
        if self.fault_tolerant {
            StackParams::with_heartbeat(
                n,
                Duration::from_millis(25).into(),
                Duration::from_millis(200).into(),
            )
            .with_catch_up(true)
        } else {
            StackParams::fault_free(n)
        }
    }

    /// Messages in flight where the load has to be a closed loop (the
    /// single-node control, the traced replay): the depth of the closed
    /// loop the gated timings come from.
    pub fn in_flight(&self) -> usize {
        match self.load {
            Load::Closed { outstanding, .. }
            | Load::Open {
                healed_outstanding: outstanding,
                ..
            } => outstanding,
        }
    }

    pub fn by_name(name: &str) -> Option<&'static Workload> {
        WORKLOADS.iter().find(|w| w.name == name)
    }
}

pub const WORKLOADS: [Workload; 5] = [
    Workload {
        name: "small_closed",
        stack: Stack::IndirectCt,
        payload_len: 64,
        senders: SenderOrder::Random,
        load: Load::Closed {
            outstanding: 64,
            count: 60_000,
        },
        fault_tolerant: false,
        trace_count: 10_000,
    },
    Workload {
        name: "small_serial",
        stack: Stack::IndirectCt,
        payload_len: 64,
        senders: SenderOrder::Random,
        load: Load::Closed {
            outstanding: 1,
            count: 4_000,
        },
        fault_tolerant: false,
        trace_count: 2_000,
    },
    Workload {
        name: "large_indirect",
        stack: Stack::IndirectCt,
        payload_len: 16 * 1024,
        senders: SenderOrder::Random,
        load: Load::Closed {
            outstanding: 8,
            count: 6_000,
        },
        fault_tolerant: false,
        trace_count: 1_000,
    },
    Workload {
        name: "large_direct",
        stack: Stack::DirectCtMessages,
        payload_len: 16 * 1024,
        senders: SenderOrder::Random,
        load: Load::Closed {
            outstanding: 8,
            count: 6_000,
        },
        fault_tolerant: false,
        trace_count: 1_000,
    },
    Workload {
        name: "partition_heal",
        stack: Stack::IndirectCt,
        payload_len: 64,
        senders: SenderOrder::RoundRobin,
        // 400/s x 1 s of isolation parks ~270 bulk frames per link, well
        // under the 1024 past which the transport sheds them and the seed
        // never heals (README, known limits). The healed phase is
        // `small_closed`'s loop, so the two compare directly.
        load: Load::Open {
            rate: 400.0,
            count: 800,
            isolate: (Duration::from_millis(500), Duration::from_millis(1_500)),
            healed_outstanding: 64,
            healed_count: 60_000,
        },
        fault_tolerant: true,
        trace_count: 1_000,
    },
];

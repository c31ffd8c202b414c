//! Fault injection for the real TCP transport.
//!
//! A socket cluster reads the workspace's one link-fault grammar,
//! `iabc_types::LinkFaults`, with windows counted as [`Duration`]s since
//! the cluster started (the same origin as `NetOutput::at`), so plans
//! stay plain data and the transport stays clock-free. This module holds
//! only the alias and the counters; the event loop is the interpreter:
//!
//! * **partitions** are enforced once per pass by severing the
//!   connection and gating reconnect attempts until the window closes —
//!   the only way a real transport can cut a link;
//! * **drop and duplicate** verdicts come from `LinkFaults::judge_frame`,
//!   the plan's draw-only half, as each frame leaves a peer's
//!   [`crate::queue::Lanes`] for the wire;
//! * **delay, reorder and trace** are refused by `TcpCluster::start_with_faults`:
//!   a nonblocking loop cannot hold frames back without a timer wheel.
//!
//! An **absent plan is never consulted**: fault-free clusters run the
//! exact pre-fault-layer code and their wire traffic is byte-identical.

use std::sync::atomic::{AtomicU64, Ordering};

use iabc_types::{Duration, LinkFaults};

/// A [`crate::TcpCluster`]'s fault plan: the shared grammar over the
/// cluster's loop-relative clock (see the module docs).
pub type NetFaultPlan = LinkFaults<Duration>;

/// Counters one cluster's event loops share, for nemesis assertions and
/// the CI fault-trace artifact. Plain relaxed atomics: these are
/// statistics, not synchronization.
#[derive(Debug, Default)]
pub struct NetFaultStats {
    /// Frames dropped by the probabilistic fault path.
    pub frames_dropped: AtomicU64,
    /// Frames sent twice by the probabilistic fault path.
    pub frames_duplicated: AtomicU64,
    /// Link ends taken down: by a partition window opening, by EOF or a
    /// read error, by a write error, or by a newer connection replacing
    /// the old one. Each end of a connection counts its own.
    pub links_severed: AtomicU64,
    /// Link ends back up after having been up: the dialing end counts
    /// its connect, the accepting end its adoption of the hello.
    pub reconnects: AtomicU64,
    /// Frames shed from bulk lanes while a peer was down.
    pub frames_shed: AtomicU64,
    /// Connections this process dialed that came up, first ones
    /// included: a cluster of `n` opens `n(n − 1)/2` of them.
    pub(crate) dials: AtomicU64,
}

impl NetFaultStats {
    /// One relaxed read per counter, as a plain tuple-free report.
    pub fn report(&self) -> NetFaultReport {
        NetFaultReport {
            frames_dropped: self.frames_dropped.load(Ordering::Relaxed),
            frames_duplicated: self.frames_duplicated.load(Ordering::Relaxed),
            links_severed: self.links_severed.load(Ordering::Relaxed),
            reconnects: self.reconnects.load(Ordering::Relaxed),
            frames_shed: self.frames_shed.load(Ordering::Relaxed),
        }
    }
}

/// A point-in-time copy of [`NetFaultStats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NetFaultReport {
    pub frames_dropped: u64,
    pub frames_duplicated: u64,
    pub links_severed: u64,
    pub reconnects: u64,
    pub frames_shed: u64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use iabc_types::{LinkFault, ProcessId};

    fn p(i: u16) -> ProcessId {
        ProcessId::new(i)
    }

    fn ms(v: u64) -> Duration {
        Duration::from_millis(v)
    }

    #[test]
    fn partition_window_is_half_open_and_symmetric() {
        let plan = NetFaultPlan::new(0).partition(p(0), p(1), ms(10), ms(20));
        assert!(!plan.partitioned_at(ms(9), p(0), p(1)));
        assert!(plan.partitioned_at(ms(10), p(0), p(1)));
        assert!(plan.partitioned_at(ms(15), p(1), p(0)));
        assert!(plan.partitioned_at(ms(20) - Duration::from_nanos(1), p(1), p(0)));
        assert!(!plan.partitioned_at(ms(20), p(0), p(1)));
        assert!(!plan.partitioned_at(ms(15), p(0), p(2)));
    }

    #[test]
    fn isolate_cuts_every_link_of_the_victim() {
        let plan = NetFaultPlan::new(0).isolate(p(2), 4, ms(0), ms(5));
        for q in [p(0), p(1), p(3)] {
            assert!(plan.partitioned_at(ms(1), p(2), q));
            assert!(plan.partitioned_at(ms(1), q, p(2)));
        }
        assert!(!plan.partitioned_at(ms(1), p(0), p(1)));
    }

    #[test]
    fn same_seed_same_frames_identical_verdicts() {
        let run = |seed: u64| {
            let mut plan = NetFaultPlan::new(seed).drop(150).duplicate(100);
            (0..500u16).map(|i| plan.judge_frame(p(0), p(i % 2 + 1))).collect::<Vec<_>>()
        };
        assert_eq!(run(7), run(7));
        assert_ne!(run(7), run(8), "different seeds should diverge");
    }

    #[test]
    fn probabilities_populate_every_verdict() {
        let mut plan = NetFaultPlan::new(3).drop(200).duplicate(100);
        let mut drops = 0u32;
        let mut dups = 0u32;
        let mut passes = 0u32;
        for _ in 0..2000 {
            match plan.judge_frame(p(0), p(1)) {
                LinkFault::Dropped => drops += 1,
                LinkFault::Duplicated => dups += 1,
                LinkFault::Pass => passes += 1,
                other => panic!("sockets judged {other:?} from a drop/duplicate plan"),
            }
        }
        assert!((200..=600).contains(&drops), "drops = {drops}");
        assert!((100..=350).contains(&dups), "dups = {dups}");
        assert!(passes >= 1200, "passes = {passes}");
    }

    #[test]
    fn empty_plan_judges_pass_without_consuming_draws() {
        let mut plan = NetFaultPlan::new(9);
        for _ in 0..10 {
            assert_eq!(plan.judge_frame(p(0), p(1)), LinkFault::Pass);
        }
        assert_eq!(plan, NetFaultPlan::new(9), "an empty plan must not advance the stream");
    }

    #[test]
    fn partition_windows_never_drop_frames_at_the_judge() {
        // Partitions are enforced by severing the connection (lossless:
        // the queue parks, the scratch is salvaged); a frame that races
        // the sever must pass, not silently die.
        let window = || NetFaultPlan::new(1).partition(p(0), p(1), ms(0), ms(10));
        let mut plan = window();
        assert!(plan.partitioned_at(ms(5), p(0), p(1)));
        assert_eq!(plan.judge_frame(p(0), p(1)), LinkFault::Pass);
        assert_eq!(plan, window(), "partition checks consume no draw");
    }

    #[test]
    #[should_panic(expected = "exceed 1000 permille")]
    fn overcommitted_probability_budget_panics() {
        let _ = NetFaultPlan::new(0).drop(600).duplicate(500);
    }

    #[test]
    #[should_panic(expected = "must be non-empty")]
    fn empty_partition_window_panics() {
        let _ = NetFaultPlan::new(0).partition(p(0), p(1), ms(5), ms(5));
    }
}

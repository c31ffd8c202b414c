//! Fault injection: crash schedules and quasi-reliable message loss.
//!
//! The paper's system model allows crash failures over *quasi-reliable*
//! channels: a message from a process that crashes may be lost. The
//! simulator realizes this three ways:
//!
//! 1. **Physically**: when a process crashes, everything still inside the
//!    host (CPU send queue, NIC transmit queue) dies with it; only frames
//!    that already left the NIC get delivered.
//! 2. **Link faults** ([`LinkFaults`]): the workspace's one link-fault
//!    grammar, read against virtual time; the simulator applies all of it.
//! 3. **Scripted** ([`SimWorld::set_drop_filter`]): tests can drop specific
//!    messages of a crashing sender to reproduce the paper's §2.2
//!    counterexample deterministically (the initiator's payload is lost but
//!    its consensus traffic survives).
//!
//! [`SimWorld::set_drop_filter`]: crate::SimWorld::set_drop_filter

use iabc_types::{ProcessId, Time};

pub use iabc_types::LinkFault;

/// When each faulty process crashes.
///
/// # Example
///
/// ```
/// use iabc_sim::CrashSchedule;
/// use iabc_types::{ProcessId, Time, Duration};
///
/// let s = CrashSchedule::new()
///     .crash(ProcessId::new(0), Time::ZERO + Duration::from_millis(10));
/// assert_eq!(s.crashes(), &[(ProcessId::new(0), Time::ZERO + Duration::from_millis(10))]);
/// assert!(s.restarts().is_empty());
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CrashSchedule {
    crashes: Vec<(ProcessId, Time)>,
    restarts: Vec<(ProcessId, Time)>,
}

impl CrashSchedule {
    /// An empty (fault-free) schedule.
    pub fn new() -> Self {
        CrashSchedule::default()
    }

    /// Adds a crash of `p` at time `at` (builder style).
    ///
    /// # Panics
    ///
    /// Panics if `p` already has a scheduled crash.
    pub fn crash(mut self, p: ProcessId, at: Time) -> Self {
        assert!(
            !self.is_faulty(p),
            "process {p} already has a scheduled crash"
        );
        self.crashes.push((p, at));
        self
    }

    /// Adds a crash of `p` at `at` followed by a restart at `restart_at`
    /// (builder style). At restart the world replaces `p`'s node with a
    /// freshly built one (the node factory runs again) and calls its
    /// `on_start` — modelling a process that reboots with empty volatile
    /// state and recovers from whatever it persisted (see
    /// `iabc_core::DurableDecidedLog`).
    ///
    /// # Panics
    ///
    /// Panics if `p` already has a scheduled crash or if `restart_at` is
    /// not after `at`.
    pub fn crash_restart(mut self, p: ProcessId, at: Time, restart_at: Time) -> Self {
        assert!(restart_at > at, "restart must come after the crash");
        self = self.crash(p, at);
        self.restarts.push((p, restart_at));
        self
    }

    /// The scheduled crashes.
    pub fn crashes(&self) -> &[(ProcessId, Time)] {
        &self.crashes
    }

    /// The scheduled restarts.
    pub fn restarts(&self) -> &[(ProcessId, Time)] {
        &self.restarts
    }

    /// Whether `p` is scheduled to crash at some point.
    fn is_faulty(&self, p: ProcessId) -> bool {
        self.crashes.iter().any(|&(q, _)| q == p)
    }
}

/// The simulator's link-fault plan: the shared grammar read against
/// virtual time. The world applies each [`LinkFault`] at the
/// `TxDone → RxArrive` edge — the frame has left the sender NIC but not yet
/// started propagating, the one point where the network itself can
/// misbehave without touching host state. Crashes stay in
/// [`CrashSchedule`]: only the simulator crashes processes.
///
/// # Example
///
/// ```
/// use iabc_sim::{LinkFault, LinkFaults};
/// use iabc_types::{Duration, ProcessId, Time};
///
/// let (p0, p1) = (ProcessId::new(0), ProcessId::new(1));
/// let at = |ms| Time::ZERO + Duration::from_millis(ms);
/// let mut lf = LinkFaults::new(42).partition(p0, p1, at(0), at(10));
/// assert_eq!(lf.judge(at(5), p1, p0), LinkFault::Partitioned);
/// assert_eq!(lf.judge(at(10), p1, p0), LinkFault::Pass);
/// ```
pub type LinkFaults = iabc_types::LinkFaults<Time>;

/// One entry of the injected-fault trace, stamped in virtual time.
pub type FaultTraceEntry = iabc_types::FaultTraceEntry<Time>;

/// A complete fault plan for a run: crashes, optionally followed by
/// restarts (crash-recovery), plus deterministic link faults (partitions,
/// drops, duplicates, delays). Scripted per-message drops are configured
/// on the world directly because they need access to the message type.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultPlan {
    /// Scheduled crashes.
    pub crashes: CrashSchedule,
    /// Link-level faults, if any. `None` leaves the `TxDone → RxArrive`
    /// edge untouched — bit-for-bit the fault-free behaviour.
    pub links: Option<LinkFaults>,
}

impl FaultPlan {
    /// A fault-free plan.
    pub fn none() -> Self {
        FaultPlan::default()
    }

    /// A plan with the given crash schedule.
    pub fn with_crashes(crashes: CrashSchedule) -> Self {
        FaultPlan { crashes, links: None }
    }

    /// A plan with only link faults.
    pub fn with_links(links: LinkFaults) -> Self {
        FaultPlan { crashes: CrashSchedule::new(), links: Some(links) }
    }

    /// Installs link faults on this plan (builder style).
    pub fn links(mut self, links: LinkFaults) -> Self {
        self.links = Some(links);
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use iabc_types::Duration;

    #[test]
    fn schedule_tracks_faulty_processes() {
        let s = CrashSchedule::new()
            .crash(ProcessId::new(1), Time::ZERO + Duration::from_secs(1))
            .crash(ProcessId::new(3), Time::ZERO + Duration::from_secs(2));
        assert_eq!(s.crashes().len(), 2);
        assert!(s.is_faulty(ProcessId::new(1)));
        assert!(s.is_faulty(ProcessId::new(3)));
        assert!(!s.is_faulty(ProcessId::new(0)));
    }

    #[test]
    #[should_panic(expected = "already has a scheduled crash")]
    fn double_crash_panics() {
        let _ = CrashSchedule::new()
            .crash(ProcessId::new(0), Time::ZERO)
            .crash(ProcessId::new(0), Time::ZERO);
    }

    #[test]
    fn default_plan_is_fault_free() {
        assert!(FaultPlan::none().crashes.crashes().is_empty());
        assert!(FaultPlan::none().crashes.restarts().is_empty());
    }

    #[test]
    fn crash_restart_schedules_both_events() {
        let t1 = Time::ZERO + Duration::from_millis(5);
        let t2 = Time::ZERO + Duration::from_millis(20);
        let s = CrashSchedule::new().crash_restart(ProcessId::new(2), t1, t2);
        assert_eq!(s.crashes(), &[(ProcessId::new(2), t1)]);
        assert_eq!(s.restarts(), &[(ProcessId::new(2), t2)]);
        assert!(s.is_faulty(ProcessId::new(2)));
    }

    #[test]
    #[should_panic(expected = "restart must come after the crash")]
    fn restart_before_crash_panics() {
        let _ = CrashSchedule::new().crash_restart(
            ProcessId::new(0),
            Time::ZERO + Duration::from_millis(5),
            Time::ZERO + Duration::from_millis(5),
        );
    }

    #[test]
    fn plan_with_links_keeps_crashes_empty() {
        let plan = FaultPlan::with_links(LinkFaults::new(1).drop(10));
        assert!(plan.crashes.crashes().is_empty());
        assert!(plan.links.is_some());
        assert!(FaultPlan::none().links.is_none());
    }
}

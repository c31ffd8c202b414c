//! The execution context handed to protocol callbacks.

use iabc_types::{Duration, ProcessId, Time};

use crate::action::Action;
use crate::timer::TimerId;

/// Collects the [`Action`]s a node produces while handling one event, and
/// exposes the read-only facts a protocol may depend on (its identity, the
/// system size, the current time).
///
/// The [`Driver`](crate::Driver) drains it with [`Context::drain_actions`]
/// after every callback, so one buffer serves every handler run. Actions
/// are performed in the order they were pushed.
#[derive(Debug)]
pub struct Context<M, O> {
    me: ProcessId,
    n: usize,
    now: Time,
    pub(crate) actions: Vec<Action<M, O>>,
}

impl<M, O> Context<M, O> {
    /// Creates a context for process `me` in a system of `n` processes at
    /// (virtual) time `now`.
    pub fn new(me: ProcessId, n: usize, now: Time) -> Self {
        Context { me, n, now, actions: Vec::new() }
    }

    /// The process this context belongs to.
    pub fn me(&self) -> ProcessId {
        self.me
    }

    /// Number of processes in the system.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Current (virtual) time.
    pub fn now(&self) -> Time {
        self.now
    }

    /// Sends `msg` to `to` (self-sends allowed).
    pub fn send(&mut self, to: ProcessId, msg: M) {
        self.actions.push(Action::Send { to, msg });
    }

    /// Sends `msg` to every process **including** the sender itself —
    /// the paper's `send to all` (its system model includes the sender in
    /// "all").
    pub fn send_to_all(&mut self, msg: M)
    where
        M: Clone,
    {
        for p in ProcessId::all(self.n) {
            self.actions.push(Action::Send { to: p, msg: msg.clone() });
        }
    }

    /// Sends `msg` to every process except the sender.
    pub fn send_to_others(&mut self, msg: M)
    where
        M: Clone,
    {
        for p in ProcessId::all(self.n) {
            if p != self.me {
                self.actions.push(Action::Send { to: p, msg: msg.clone() });
            }
        }
    }

    /// Schedules `on_timer(timer)` to run `delay` from now.
    pub fn set_timer(&mut self, delay: Duration, timer: TimerId) {
        self.actions.push(Action::SetTimer { delay, timer });
    }

    /// Charges CPU work to this process (see [`Action::Work`]).
    /// Zero-duration work is elided.
    pub fn work(&mut self, duration: Duration) {
        if !duration.is_zero() {
            self.actions.push(Action::Work { duration });
        }
    }

    /// Emits an application-visible output.
    pub fn output(&mut self, out: O) {
        self.actions.push(Action::Output(out));
    }

    /// Number of actions collected so far.
    pub fn len(&self) -> usize {
        self.actions.len()
    }

    /// Whether no actions have been collected.
    pub fn is_empty(&self) -> bool {
        self.actions.is_empty()
    }

    /// Drains the collected actions, leaving the context empty and reusable.
    pub fn take_actions(&mut self) -> Vec<Action<M, O>> {
        std::mem::take(&mut self.actions)
    }

    /// Drains the collected actions in place: the context keeps its
    /// buffer, capacity included, for the next handler.
    pub fn drain_actions(&mut self) -> std::vec::Drain<'_, Action<M, O>> {
        self.actions.drain(..)
    }

    /// Advances the context clock (used by executors that reuse a context
    /// across events).
    pub fn set_now(&mut self, now: Time) {
        self.now = now;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    type Ctx = Context<&'static str, u32>;

    #[test]
    fn send_to_all_includes_self() {
        let mut ctx = Ctx::new(ProcessId::new(1), 3, Time::ZERO);
        ctx.send_to_all("m");
        let dests: Vec<_> = ctx
            .take_actions()
            .into_iter()
            .filter_map(|a| match a {
                Action::Send { to, .. } => Some(to),
                _ => None,
            })
            .collect();
        assert_eq!(dests, ProcessId::all(3).collect::<Vec<_>>());
    }

    #[test]
    fn send_to_others_excludes_self() {
        let mut ctx = Ctx::new(ProcessId::new(1), 3, Time::ZERO);
        ctx.send_to_others("m");
        let dests: Vec<_> = ctx
            .take_actions()
            .into_iter()
            .filter_map(|a| match a {
                Action::Send { to, .. } => Some(to),
                _ => None,
            })
            .collect();
        assert_eq!(dests, vec![ProcessId::new(0), ProcessId::new(2)]);
    }

    #[test]
    fn zero_work_is_elided() {
        let mut ctx = Ctx::new(ProcessId::new(0), 1, Time::ZERO);
        ctx.work(Duration::ZERO);
        assert!(ctx.is_empty());
        ctx.work(Duration::from_nanos(1));
        assert_eq!(ctx.len(), 1);
    }

    #[test]
    fn actions_preserve_order() {
        let mut ctx = Ctx::new(ProcessId::new(0), 2, Time::ZERO);
        ctx.output(1);
        ctx.send(ProcessId::new(1), "x");
        ctx.output(2);
        let acts = ctx.take_actions();
        assert!(matches!(acts[0], Action::Output(1)));
        assert!(matches!(acts[1], Action::Send { .. }));
        assert!(matches!(acts[2], Action::Output(2)));
        assert!(ctx.is_empty());
    }

    #[test]
    fn clock_can_be_advanced() {
        let mut ctx = Ctx::new(ProcessId::new(0), 1, Time::ZERO);
        ctx.set_now(Time::from_nanos(5));
        assert_eq!(ctx.now(), Time::from_nanos(5));
    }
}

//! The one interpreter of [`Action`]s, shared by every host.

use std::collections::VecDeque;

use iabc_types::{Duration, ProcessId, Time};

use crate::action::Action;
use crate::context::Context;
use crate::node::Node;
use crate::timer::TimerId;

/// What a host does with the effects that differ between hosts.
/// Self-sends are not among them: the [`Driver`] delivers those itself.
pub trait Effects<M, O> {
    /// The host's clock, read before each handler runs.
    fn now(&mut self) -> Time;
    /// Sends `msg` to another process.
    fn send(&mut self, to: ProcessId, msg: M);
    /// Runs `on_timer(timer)` at `at`.
    fn set_timer(&mut self, at: Time, timer: TimerId);
    /// Charges CPU work (see [`Action::Work`]).
    fn work(&mut self, duration: Duration);
    /// Emits an application-visible output.
    fn output(&mut self, out: O);
    /// Asked before each self-delivery. `false` ends the handler's drain,
    /// and the self-sends still queued are dropped (the simulator's event
    /// budget).
    fn admit_self_delivery(&mut self) -> bool {
        true
    }
}

/// Runs a node's handlers and interprets the [`Action`]s they return.
///
/// A self-send is delivered at once, by the same call, but only after the
/// handler that issued it has returned, and never re-entrantly: self-sends
/// wait in a FIFO, and one issued during a self-delivery joins its back.
pub struct Driver<N: Node> {
    node: N,
    ctx: Context<N::Msg, N::Output>,
    local: VecDeque<N::Msg>,
}

impl<N: Node> Driver<N> {
    /// Drives `node` as process `me` of `n`.
    pub fn new(me: ProcessId, n: usize, node: N) -> Self {
        Driver { node, ctx: Context::new(me, n, Time::ZERO), local: VecDeque::new() }
    }

    /// The node's protocol state.
    pub fn node(&self) -> &N {
        &self.node
    }

    /// Runs [`Node::on_start`].
    pub fn on_start(&mut self, fx: &mut impl Effects<N::Msg, N::Output>) {
        self.run(fx, |node, ctx| node.on_start(ctx));
    }

    /// Runs [`Node::on_message`].
    pub fn on_message(&mut self, from: ProcessId, msg: N::Msg, fx: &mut impl Effects<N::Msg, N::Output>) {
        self.run(fx, |node, ctx| node.on_message(from, msg, ctx));
    }

    /// Runs [`Node::on_command`].
    pub fn on_command(&mut self, cmd: N::Command, fx: &mut impl Effects<N::Msg, N::Output>) {
        self.run(fx, |node, ctx| node.on_command(cmd, ctx));
    }

    /// Runs [`Node::on_timer`].
    pub fn on_timer(&mut self, timer: TimerId, fx: &mut impl Effects<N::Msg, N::Output>) {
        self.run(fx, |node, ctx| node.on_timer(timer, ctx));
    }

    /// Runs one handler, then the self-deliveries it (and they) caused:
    /// performs a handler's actions, delivers the next self-send, repeats.
    fn run<E: Effects<N::Msg, N::Output>>(
        &mut self,
        fx: &mut E,
        handler: impl FnOnce(&mut N, &mut Context<N::Msg, N::Output>),
    ) {
        let me = self.ctx.me();
        self.ctx.set_now(fx.now());
        handler(&mut self.node, &mut self.ctx);
        loop {
            let now = self.ctx.now();
            for action in self.ctx.drain_actions() {
                match action {
                    Action::Send { to, msg } if to == me => self.local.push_back(msg),
                    Action::Send { to, msg } => fx.send(to, msg),
                    Action::SetTimer { delay, timer } => fx.set_timer(now + delay, timer),
                    Action::Work { duration } => fx.work(duration),
                    Action::Output(out) => fx.output(out),
                }
            }
            let Some(msg) = self.local.pop_front() else { return };
            if !fx.admit_self_delivery() {
                self.local.clear();
                return;
            }
            self.ctx.set_now(fx.now());
            self.node.on_message(me, msg, &mut self.ctx);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use iabc_types::WireSize;

    #[derive(Clone, Debug, PartialEq)]
    struct Num(u32);
    impl WireSize for Num {
        fn wire_size(&self) -> usize {
            4
        }
    }

    /// A command is a list of self-sends; a delivered `k > 0` outputs
    /// `k` and self-sends `10·k`, and a delivered multiple of 10 only
    /// outputs.
    struct Chain;
    impl Node for Chain {
        type Msg = Num;
        type Command = Vec<u32>;
        type Output = u32;
        fn on_command(&mut self, sends: Vec<u32>, ctx: &mut Context<Num, u32>) {
            for k in sends {
                ctx.send(ctx.me(), Num(k));
            }
            // Returned last: no self-send may have been delivered yet.
            ctx.output(0);
        }
        fn on_message(&mut self, _from: ProcessId, m: Num, ctx: &mut Context<Num, u32>) {
            ctx.output(m.0);
            if !m.0.is_multiple_of(10) {
                ctx.send(ctx.me(), Num(m.0 * 10));
            }
        }
    }

    /// Records what the driver hands the host.
    #[derive(Default)]
    struct Log {
        outputs: Vec<u32>,
        budget: Option<usize>,
    }
    impl Effects<Num, u32> for Log {
        fn now(&mut self) -> Time {
            Time::ZERO
        }
        fn send(&mut self, to: ProcessId, _msg: Num) {
            panic!("only self-sends here, got one to {to}");
        }
        fn set_timer(&mut self, _at: Time, _timer: TimerId) {}
        fn work(&mut self, _duration: Duration) {}
        fn output(&mut self, out: u32) {
            self.outputs.push(out);
        }
        fn admit_self_delivery(&mut self) -> bool {
            match &mut self.budget {
                Some(0) => false,
                Some(b) => {
                    *b -= 1;
                    true
                }
                None => true,
            }
        }
    }

    #[test]
    fn self_sends_wait_for_the_handler_and_keep_fifo_order() {
        let mut d = Driver::new(ProcessId::new(0), 1, Chain);
        let mut log = Log::default();
        d.on_command(vec![1, 2, 3], &mut log);
        // The handler's own output comes first; 1, 2, 3 in issue order;
        // 10, 20, 30 — issued during self-deliveries — go to the back.
        assert_eq!(log.outputs, [0, 1, 2, 3, 10, 20, 30]);
    }

    #[test]
    fn a_refused_self_delivery_ends_the_drain() {
        let mut d = Driver::new(ProcessId::new(0), 1, Chain);
        let mut log = Log { budget: Some(2), ..Log::default() };
        d.on_command(vec![1, 2, 3], &mut log);
        assert_eq!(log.outputs, [0, 1, 2]);
        // The dropped self-sends do not leak into the next handler.
        log.budget = None;
        d.on_command(vec![4], &mut log);
        assert_eq!(log.outputs, [0, 1, 2, 0, 4, 40]);
    }

    #[test]
    fn the_action_buffer_keeps_its_capacity_across_handler_runs() {
        let mut d = Driver::new(ProcessId::new(0), 1, Chain);
        let mut log = Log::default();
        // Seven actions from the first handler size the buffer.
        d.on_command(vec![1, 2, 3, 4, 5, 6], &mut log);
        let (cap, buf) = (d.ctx.actions.capacity(), d.ctx.actions.as_ptr());
        assert!(cap >= 7);
        for _ in 0..10 {
            d.on_command(vec![1, 2], &mut log);
            assert!(d.ctx.is_empty());
            assert_eq!(d.ctx.actions.capacity(), cap, "the buffer was given away");
            assert_eq!(d.ctx.actions.as_ptr(), buf, "the buffer was reallocated");
        }
    }
}

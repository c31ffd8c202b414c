//! In-process thread cluster: one thread per node, channels as links.

use std::thread::JoinHandle;
use std::time::Instant;

use crossbeam::channel::{unbounded, Receiver, RecvTimeoutError, Sender};
use iabc_runtime::{Action, Context, Node};
use iabc_types::{ProcessId, Time};

use crate::timers::TimerHeap;
use crate::NetOutput;

enum Input<M, C> {
    Msg(ProcessId, M),
    Cmd(C),
    Stop,
}

/// Collects outputs from `rx` until `count` have arrived, `timeout`
/// elapses, or every producer is gone.
pub(crate) fn collect_outputs<O>(
    rx: &Receiver<NetOutput<O>>,
    count: usize,
    timeout: std::time::Duration,
) -> Vec<NetOutput<O>> {
    let deadline = Instant::now() + timeout;
    let mut out = Vec::new();
    while out.len() < count {
        let left = deadline.saturating_duration_since(Instant::now());
        if left.is_zero() {
            break;
        }
        match rx.recv_timeout(left) {
            Ok(rec) => out.push(rec),
            Err(_) => break,
        }
    }
    out
}

/// Runs `n` nodes on `n` OS threads connected by in-process channels.
///
/// # Example
///
/// ```
/// use iabc_core::stacks::{self, StackParams};
/// use iabc_core::{AbcastCommand, AbcastEvent};
/// use iabc_net::ThreadCluster;
/// use iabc_types::{Payload, ProcessId};
///
/// let params = StackParams::fault_free(3);
/// let mut cluster = ThreadCluster::start(3, |p| stacks::indirect_ct(p, &params));
/// cluster.send_command(ProcessId::new(0), AbcastCommand::Broadcast(Payload::zeroed(8)));
/// let outputs = cluster.run_for(std::time::Duration::from_millis(300));
/// let deliveries = outputs
///     .iter()
///     .filter(|o| matches!(o.output, AbcastEvent::Delivered { .. }))
///     .count();
/// assert_eq!(deliveries, 3);
/// cluster.shutdown();
/// ```
pub struct ThreadCluster<N: Node> {
    inputs: Vec<Sender<Input<N::Msg, N::Command>>>,
    outputs: Receiver<NetOutput<N::Output>>,
    handles: Vec<JoinHandle<()>>,
}

impl<N> ThreadCluster<N>
where
    N: Node + Send + 'static,
    N::Msg: Send,
    N::Command: Send,
    N::Output: Send,
{
    /// Builds the nodes with `factory` and starts one thread per node.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn start(n: usize, mut factory: impl FnMut(ProcessId) -> N) -> Self {
        assert!(n > 0, "need at least one process");
        // Process ids travel as u16 on the wire; the cast below is bounded
        // by this assert.
        assert!(n <= usize::from(u16::MAX) + 1, "process ids are u16 on the wire");
        let epoch = Instant::now();
        let (out_tx, out_rx) = unbounded();
        let channels: Vec<(Sender<_>, Receiver<_>)> = (0..n).map(|_| unbounded()).collect();
        let inputs: Vec<_> = channels.iter().map(|(tx, _)| tx.clone()).collect();

        let mut handles = Vec::with_capacity(n);
        for (i, (_, rx)) in channels.into_iter().enumerate() {
            // lint:allow(W2): i < n and start() asserts n fits in u16
            let me = ProcessId::new(i as u16);
            let node = factory(me);
            let peers = inputs.clone();
            let out_tx = out_tx.clone();
            handles.push(std::thread::spawn(move || {
                node_loop(node, me, n, epoch, rx, peers, out_tx);
            }));
        }
        ThreadCluster { inputs, outputs: out_rx, handles }
    }

    /// Sends an application command to process `p`.
    pub fn send_command(&self, p: ProcessId, cmd: N::Command) {
        // A send to a stopped node is not an error for the caller.
        let _ = self.inputs[p.as_usize()].send(Input::Cmd(cmd));
    }

    /// Collects outputs for (wall-clock) `dur`, then returns them.
    pub fn run_for(&mut self, dur: std::time::Duration) -> Vec<NetOutput<N::Output>> {
        collect_outputs(&self.outputs, usize::MAX, dur)
    }

    /// Collects outputs until `count` have arrived or `timeout` elapses —
    /// the latency-friendly alternative to [`ThreadCluster::run_for`] when
    /// the caller knows how many outputs to expect (benches, tests): it
    /// returns the moment the last expected output lands instead of
    /// sleeping out a fixed window.
    pub fn wait_for_outputs(
        &mut self,
        count: usize,
        timeout: std::time::Duration,
    ) -> Vec<NetOutput<N::Output>> {
        collect_outputs(&self.outputs, count, timeout)
    }

    /// Stops all node threads and waits for them.
    pub fn shutdown(mut self) {
        for tx in &self.inputs {
            let _ = tx.send(Input::Stop);
        }
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

fn node_loop<N>(
    mut node: N,
    me: ProcessId,
    n: usize,
    epoch: Instant,
    rx: Receiver<Input<N::Msg, N::Command>>,
    peers: Vec<Sender<Input<N::Msg, N::Command>>>,
    out_tx: Sender<NetOutput<N::Output>>,
) where
    N: Node,
{
    let mut timers = TimerHeap::new();
    let now_time = |epoch: Instant| Time::from_nanos(epoch.elapsed().as_nanos() as u64);

    // Start the node.
    let mut ctx = Context::new(me, n, now_time(epoch));
    node.on_start(&mut ctx);
    apply::<N>(me, &mut ctx, &mut timers, &peers, &out_tx, epoch);

    loop {
        // Fire due timers.
        let now = Instant::now();
        while let Some(timer) = timers.pop_due(now) {
            let mut ctx = Context::new(me, n, now_time(epoch));
            node.on_timer(timer, &mut ctx);
            apply::<N>(me, &mut ctx, &mut timers, &peers, &out_tx, epoch);
        }
        // Wait for input until the next timer is due.
        let wait = timers
            .next_due()
            .map(|due| due.saturating_duration_since(Instant::now()))
            .unwrap_or(std::time::Duration::from_millis(50));
        match rx.recv_timeout(wait) {
            Ok(Input::Msg(from, msg)) => {
                let mut ctx = Context::new(me, n, now_time(epoch));
                node.on_message(from, msg, &mut ctx);
                apply::<N>(me, &mut ctx, &mut timers, &peers, &out_tx, epoch);
            }
            Ok(Input::Cmd(cmd)) => {
                let mut ctx = Context::new(me, n, now_time(epoch));
                node.on_command(cmd, &mut ctx);
                apply::<N>(me, &mut ctx, &mut timers, &peers, &out_tx, epoch);
            }
            Ok(Input::Stop) => return,
            Err(RecvTimeoutError::Timeout) => {}
            Err(RecvTimeoutError::Disconnected) => return,
        }
    }
}

fn apply<N: Node>(
    me: ProcessId,
    ctx: &mut Context<N::Msg, N::Output>,
    timers: &mut TimerHeap,
    peers: &[Sender<Input<N::Msg, N::Command>>],
    out_tx: &Sender<NetOutput<N::Output>>,
    epoch: Instant,
) {
    for action in ctx.take_actions() {
        match action {
            Action::Send { to, msg } => {
                let _ = peers[to.as_usize()].send(Input::Msg(me, msg));
            }
            Action::SetTimer { delay, timer } => {
                timers.push(Instant::now() + delay.into(), timer);
            }
            Action::Work { .. } => {} // real CPUs charge themselves
            Action::Output(output) => {
                let _ = out_tx.send(NetOutput {
                    at: Time::from_nanos(epoch.elapsed().as_nanos() as u64),
                    process: me,
                    output,
                });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use iabc_runtime::TimerId;
    use iabc_types::WireSize;

    #[derive(Clone, Debug)]
    struct Ping(u8);
    impl WireSize for Ping {
        fn wire_size(&self) -> usize {
            1
        }
    }

    /// Relay-once node: p0 sends to all on command; everyone outputs.
    struct Echo;
    impl Node for Echo {
        type Msg = Ping;
        type Command = u8;
        type Output = (ProcessId, u8);

        fn on_command(&mut self, cmd: u8, ctx: &mut Context<Ping, (ProcessId, u8)>) {
            ctx.send_to_all(Ping(cmd));
        }

        fn on_message(&mut self, from: ProcessId, m: Ping, ctx: &mut Context<Ping, (ProcessId, u8)>) {
            ctx.output((from, m.0));
        }
    }

    #[test]
    fn fanout_over_threads() {
        let mut cluster = ThreadCluster::start(3, |_| Echo);
        cluster.send_command(ProcessId::new(0), 9);
        let outs = cluster.run_for(std::time::Duration::from_millis(200));
        assert_eq!(outs.len(), 3);
        assert!(outs.iter().all(|o| o.output == (ProcessId::new(0), 9)));
        cluster.shutdown();
    }

    #[test]
    fn timers_fire_on_wall_clock() {
        struct Alarm;
        impl Node for Alarm {
            type Msg = Ping;
            type Command = ();
            type Output = u64;
            fn on_start(&mut self, ctx: &mut Context<Ping, u64>) {
                ctx.set_timer(iabc_types::Duration::from_millis(20), TimerId::new(1, 5));
            }
            fn on_timer(&mut self, t: TimerId, ctx: &mut Context<Ping, u64>) {
                ctx.output(t.data());
            }
        }
        let mut cluster = ThreadCluster::start(1, |_| Alarm);
        let outs = cluster.run_for(std::time::Duration::from_millis(300));
        assert_eq!(outs.len(), 1);
        assert_eq!(outs[0].output, 5);
        assert!(outs[0].at >= Time::from_nanos(15_000_000), "fired too early: {:?}", outs[0].at);
        cluster.shutdown();
    }
}

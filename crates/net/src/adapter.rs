//! The node adapter of the thread-per-connection transport: forwards
//! remote sends into per-peer outbound queues.

use std::sync::Arc;

use iabc_runtime::Node;
use iabc_types::{Encode, ProcessId};

use crate::queue::PeerQueue;

/// `outbound[i][j]`: the queue feeding the `i → j` connection's drainer
/// (`None` on the diagonal).
pub(crate) type OutboundMesh<M> = Vec<Vec<Option<Arc<PeerQueue<M>>>>>;

/// Adapter node: intercepts `Send` actions for remote peers and enqueues
/// them for the peer connection's flusher (parked on the queue condvar);
/// self-sends and everything else pass through to the hosting
/// [`crate::ThreadCluster`].
pub(crate) struct MsgOverTcp<N: Node> {
    pub(crate) node: N,
    pub(crate) me: ProcessId,
    pub(crate) writers: Vec<Option<Arc<PeerQueue<N::Msg>>>>,
}

impl<N: Node> std::fmt::Debug for MsgOverTcp<N> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MsgOverTcp").field("me", &self.me).finish()
    }
}

impl<N> Node for MsgOverTcp<N>
where
    N: Node,
    N::Msg: Encode,
{
    type Msg = N::Msg;
    type Command = N::Command;
    type Output = N::Output;

    fn on_start(&mut self, ctx: &mut iabc_runtime::Context<Self::Msg, Self::Output>) {
        self.node.on_start(ctx);
        self.redirect(ctx);
    }

    fn on_command(&mut self, cmd: Self::Command, ctx: &mut iabc_runtime::Context<Self::Msg, Self::Output>) {
        self.node.on_command(cmd, ctx);
        self.redirect(ctx);
    }

    fn on_message(
        &mut self,
        from: ProcessId,
        msg: Self::Msg,
        ctx: &mut iabc_runtime::Context<Self::Msg, Self::Output>,
    ) {
        self.node.on_message(from, msg, ctx);
        self.redirect(ctx);
    }

    fn on_timer(&mut self, timer: iabc_runtime::TimerId, ctx: &mut iabc_runtime::Context<Self::Msg, Self::Output>) {
        self.node.on_timer(timer, ctx);
        self.redirect(ctx);
    }
}

impl<N> MsgOverTcp<N>
where
    N: Node,
    N::Msg: Encode,
{
    /// Rewrites remote sends into outbound-queue pushes, keeping
    /// everything else.
    fn redirect(&mut self, ctx: &mut iabc_runtime::Context<N::Msg, N::Output>) {
        use iabc_runtime::Action;
        let actions = ctx.take_actions();
        for action in actions {
            match action {
                Action::Send { to, msg } if to != self.me => {
                    if let Some(queue) = &self.writers[to.as_usize()] {
                        // A dead peer's queue is closed: drops silently.
                        queue.enqueue(msg);
                    }
                }
                other => {
                    // Self-sends, timers, work, outputs: hand back to the
                    // channel machinery.
                    match other {
                        Action::Send { to, msg } => ctx.send(to, msg),
                        Action::SetTimer { delay, timer } => ctx.set_timer(delay, timer),
                        Action::Work { duration } => ctx.work(duration),
                        Action::Output(o) => ctx.output(o),
                    }
                }
            }
        }
    }
}

//! `ThreadCluster`: once an in-process channel driver beside the real
//! runtime, now the real runtime itself under its old name.

/// An old name of [`TcpCluster`](crate::TcpCluster), kept for its callers: every node
/// they run encodes to the wire.
///
/// # Example
///
/// ```
/// use iabc_core::{stacks, AbcastCommand, AbcastEvent};
/// use iabc_net::ThreadCluster;
/// use iabc_types::{Payload, ProcessId};
///
/// let params = stacks::StackParams::fault_free(3);
/// let mut cluster = ThreadCluster::start(3, |p| stacks::indirect_ct(p, &params));
/// cluster.send_command(ProcessId::new(0), AbcastCommand::Broadcast(Payload::zeroed(8)));
/// let outputs = cluster.wait_for_outputs(4, std::time::Duration::from_secs(5));
/// let delivered = outputs.iter().filter(|o| matches!(o.output, AbcastEvent::Delivered { .. }));
/// assert_eq!(delivered.count(), 3);
/// cluster.shutdown();
/// ```
pub type ThreadCluster<N> = crate::TcpCluster<N>;

#[cfg(test)]
mod tests {
    use super::*;
    use iabc_runtime::{Context, Node, TimerId};
    use iabc_types::{CodecError, Decode, Encode, ProcessId, Time, WireSize};

    #[derive(Clone, Debug)]
    struct Ping(u8);
    impl WireSize for Ping {
        fn wire_size(&self) -> usize {
            1
        }
    }
    impl Encode for Ping {
        fn encode(&self, buf: &mut Vec<u8>) {
            self.0.encode(buf);
        }
    }
    impl Decode for Ping {
        fn decode(buf: &mut &[u8]) -> Result<Self, CodecError> {
            Ok(Ping(u8::decode(buf)?))
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
        let mut outs = cluster.wait_for_outputs(3, std::time::Duration::from_secs(5));
        // Nothing beyond the three copies arrives late.
        outs.extend(cluster.run_for(std::time::Duration::from_millis(50)));
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

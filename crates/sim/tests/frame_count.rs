//! The simulator predicts the frames the sockets carry.
//!
//! On the fault-free indirect CT stack (n = 3, lazy RB) with one message
//! in flight, the traced socket run counts 2 RB frames and 6 consensus
//! frames per message. Self-sends are not frames: the simulator's hosts
//! never see them, exactly as the sockets' event loop never writes them,
//! so `SimStats::messages_sent` must read 8 per message too.

use iabc_core::stacks::{self, StackParams};
use iabc_core::{AbcastCommand, AbcastEvent};
use iabc_sim::{NetworkParams, SimBuilder, StopReason};
use iabc_types::{splitmix64, Payload, ProcessId};

const N: usize = 3;
const MESSAGES: u64 = 300;

/// Remote frames per message, one 64-byte message in flight at a time
/// from a pseudo-random sender.
fn frames_per_message(net: NetworkParams) -> f64 {
    let params = StackParams::fault_free(N);
    let mut world = SimBuilder::new(N, net).build(|p| stacks::indirect_ct(p, &params));
    for i in 0..MESSAGES {
        let sender = ProcessId::new((splitmix64(0x5eed ^ i) % N as u64) as u16);
        let cmd = AbcastCommand::Broadcast(Payload::zeroed(64));
        world.schedule_command(sender, world.now(), cmd);
        assert_eq!(world.run_to_quiescence(), StopReason::Quiescent);
    }
    let delivered =
        world.outputs().iter().filter(|r| matches!(r.output, AbcastEvent::Delivered { .. })).count();
    assert_eq!(delivered as u64, MESSAGES * N as u64, "every process delivers every message");
    world.stats().messages_sent as f64 / MESSAGES as f64
}

#[test]
fn setup1_sends_the_socket_frame_count() {
    assert_eq!(frames_per_message(NetworkParams::setup1()), 8.0);
}

#[test]
fn setup2_sends_the_socket_frame_count() {
    assert_eq!(frames_per_message(NetworkParams::setup2()), 8.0);
}

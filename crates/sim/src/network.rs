//! The LAN model and its calibrated presets.

use iabc_types::Duration;
use serde::{Deserialize, Serialize};

/// Parameters of the simulated LAN and hosts.
///
/// Two presets mirror the paper's clusters: [`NetworkParams::setup1`]
/// (Pentium III 766 MHz, 100 Base-TX Ethernet — Figures 1, 3, 4) and
/// [`NetworkParams::setup2`] (Pentium 4 3.2 GHz, Gigabit Ethernet —
/// Figures 5, 6, 7). The constants are calibrated so that baseline
/// latencies and saturation points land in the same range the paper
/// reports; the *shapes* of all curves are emergent from queueing.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NetworkParams {
    /// Link bandwidth in bytes/second (100 Mb/s ⇒ 12.5 MB/s).
    pub bandwidth_bytes_per_sec: u64,
    /// Per-frame header bytes added on the wire (Ethernet + IP + UDP).
    pub frame_overhead_bytes: usize,
    /// Propagation + switch latency per hop.
    pub propagation: Duration,
    /// Fixed CPU cost to send one message (syscall, protocol processing).
    pub send_cpu_overhead: Duration,
    /// Additional CPU cost per payload byte sent, in **picoseconds**.
    pub send_cpu_per_byte_ps: u64,
    /// Fixed CPU cost to receive one message.
    pub recv_cpu_overhead: Duration,
    /// Additional CPU cost per payload byte received, in **picoseconds**.
    pub recv_cpu_per_byte_ps: u64,
    /// CPU cost of a self-send (enqueue on a local queue).
    pub local_send_cpu: Duration,
    /// CPU cost of a self-receive.
    pub local_recv_cpu: Duration,
    /// Latency of the loop-back path (self-sends bypass the NIC).
    pub loopback_delay: Duration,
}

impl NetworkParams {
    /// The paper's **Setup 1**: Pentium III 766 MHz, 128 MB RAM,
    /// 100 Base-TX Ethernet, JDK 1.4.
    ///
    /// CPU costs are high (old CPU, Java serialization); bandwidth is
    /// 12.5 MB/s, so kilobyte payloads cost ~100 µs of wire time each.
    pub fn setup1() -> Self {
        NetworkParams {
            bandwidth_bytes_per_sec: 12_500_000,
            frame_overhead_bytes: 58,
            propagation: Duration::from_micros(45),
            send_cpu_overhead: Duration::from_micros(100),
            send_cpu_per_byte_ps: 30_000, // 30 ns/byte (JDK 1.4 serialization)
            recv_cpu_overhead: Duration::from_micros(110),
            recv_cpu_per_byte_ps: 30_000,
            local_send_cpu: Duration::from_micros(4),
            local_recv_cpu: Duration::from_micros(4),
            loopback_delay: Duration::from_micros(2),
        }
    }

    /// The paper's **Setup 2**: Pentium 4 3.2 GHz, 1 GB RAM, Gigabit
    /// Ethernet, JDK 1.5.
    pub fn setup2() -> Self {
        NetworkParams {
            bandwidth_bytes_per_sec: 125_000_000,
            frame_overhead_bytes: 58,
            propagation: Duration::from_micros(28),
            send_cpu_overhead: Duration::from_micros(60),
            send_cpu_per_byte_ps: 8_000, // 8 ns/byte (JDK 1.5 serialization)
            recv_cpu_overhead: Duration::from_micros(70),
            recv_cpu_per_byte_ps: 8_000,
            local_send_cpu: Duration::from_micros(1),
            local_recv_cpu: Duration::from_micros(1),
            loopback_delay: Duration::from_micros(1),
        }
    }

    /// Wire transmission time of a message with `bytes` of payload
    /// (headers added): `(bytes + frame_overhead) / bandwidth`.
    pub fn tx_time(&self, bytes: usize) -> Duration {
        if self.bandwidth_bytes_per_sec == u64::MAX {
            return Duration::ZERO;
        }
        let wire_bytes = (bytes + self.frame_overhead_bytes) as u64;
        // ns = bytes * 1e9 / bw  (u128 to avoid overflow)
        let ns = (wire_bytes as u128 * 1_000_000_000) / self.bandwidth_bytes_per_sec as u128;
        Duration::from_nanos(ns as u64)
    }

    /// CPU time to send a `bytes`-byte message to a remote process.
    pub fn send_cpu(&self, bytes: usize) -> Duration {
        self.send_cpu_overhead + per_byte(self.send_cpu_per_byte_ps, bytes)
    }

    /// CPU time to receive a `bytes`-byte message from a remote process.
    pub fn recv_cpu(&self, bytes: usize) -> Duration {
        self.recv_cpu_overhead + per_byte(self.recv_cpu_per_byte_ps, bytes)
    }
}

/// `bytes × picos_per_byte`, rounded up to a nanosecond.
fn per_byte(picos_per_byte: u64, bytes: usize) -> Duration {
    Duration::from_nanos((bytes as u64 * picos_per_byte).div_ceil(1000))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tx_time_scales_with_size() {
        let p = NetworkParams::setup1();
        // 1192 bytes payload + 58 header = 1250 bytes = 100 µs at 12.5 MB/s.
        assert_eq!(p.tx_time(1192), Duration::from_micros(100));
        assert!(p.tx_time(5000) > p.tx_time(100));
    }

    #[test]
    fn setup2_is_faster_than_setup1() {
        let s1 = NetworkParams::setup1();
        let s2 = NetworkParams::setup2();
        assert!(s2.tx_time(1000) < s1.tx_time(1000));
        assert!(s2.send_cpu(1000) < s1.send_cpu(1000));
        assert!(s2.recv_cpu(1000) < s1.recv_cpu(1000));
    }

    #[test]
    fn cpu_costs_include_per_byte_component() {
        let p = NetworkParams::setup1();
        let small = p.send_cpu(1);
        let big = p.send_cpu(4096);
        assert!(big > small);
        // 4096 bytes at 30 ns/byte ≈ 123 µs on top of the fixed overhead.
        let extra = big - small;
        assert!(extra >= Duration::from_micros(115) && extra <= Duration::from_micros(130));
    }

    #[test]
    fn instant_network_is_free() {
        // Unbounded bandwidth and zero CPU costs: nothing is charged.
        let p = NetworkParams {
            bandwidth_bytes_per_sec: u64::MAX,
            frame_overhead_bytes: 0,
            propagation: Duration::from_nanos(1),
            send_cpu_overhead: Duration::ZERO,
            send_cpu_per_byte_ps: 0,
            recv_cpu_overhead: Duration::ZERO,
            recv_cpu_per_byte_ps: 0,
            local_send_cpu: Duration::ZERO,
            local_recv_cpu: Duration::ZERO,
            loopback_delay: Duration::from_nanos(1),
        };
        assert_eq!(p.tx_time(1 << 20), Duration::ZERO);
        assert_eq!(p.send_cpu(1 << 20), Duration::ZERO);
        assert_eq!(p.recv_cpu(1 << 20), Duration::ZERO);
    }

    #[test]
    fn per_byte_rounds_up() {
        assert_eq!(per_byte(1, 1), Duration::from_nanos(1)); // 1 ps rounds up to 1 ns
        assert_eq!(per_byte(1000, 3), Duration::from_nanos(3));
        assert_eq!(per_byte(0, 12345), Duration::ZERO);
    }
}

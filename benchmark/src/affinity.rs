//! Runs the whole benchmark process on one CPU.
//!
//! The cluster under test is 7 threads (3 node, 3 `iabc-io-*`, the
//! generator) and the reference box has 2 virtual CPUs of a shared host.
//! Left to the scheduler, most hand-offs between those threads cross from
//! one virtual CPU to the other, and on a virtual machine that is an
//! inter-processor interrupt through the hypervisor and, for a halted
//! virtual CPU, a wait for the host to run it again: a pipe ping-pong
//! between two processes costs ~40 µs per round trip across the two
//! virtual CPUs here and ~4 µs on one. That cost is the host's, it changes
//! from minute to minute with the host's other tenants, and it dominated
//! the run-to-run spread of every workload. On one CPU every hand-off is a
//! context switch: the same code ran `small_serial` 1.4× faster with half
//! the CPU time per message, and the quartile spread of all gated timings
//! over 43 alternating pairs of short runs halved (README, "One CPU").
//!
//! What this gives up: a change that only moves work between threads, or
//! only removes contention between CPUs, does not show. What it keeps:
//! every change to the work done per message, to frames, syscalls and
//! wake-ups, shows in throughput, latency and CPU time alike.
//!
//! std has no affinity call; like `iabc_net::poll` this declares the libc
//! symbols std already links.

/// Pins the calling thread — and so every thread it spawns afterwards — to
/// the lowest-numbered CPU it is allowed on (the two of the reference box
/// read the same). Returns that CPU, or `None` when the platform has no
/// such call or refuses it; the run then goes on unpinned and says so.
pub fn pin_to_one_cpu() -> Option<usize> {
    imp::pin_to_one_cpu()
}

#[cfg(target_os = "linux")]
mod imp {
    /// `cpu_set_t`: 1024 bits.
    type CpuSet = [u64; 16];

    extern "C" {
        fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut CpuSet) -> i32;
        fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const CpuSet) -> i32;
    }

    pub fn pin_to_one_cpu() -> Option<usize> {
        let mut set: CpuSet = [0; 16];
        // SAFETY: `set` is a live, exclusively borrowed `cpu_set_t`-sized
        // array and its size is passed with it; pid 0 is the calling thread.
        if unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), &mut set) } != 0 {
            return None;
        }
        let (word, bits) = set.iter().enumerate().find(|(_, w)| **w != 0)?;
        let bit = bits.trailing_zeros() as usize;
        let mut one: CpuSet = [0; 16];
        one[word] = 1 << bit;
        // SAFETY: `one` is a live `cpu_set_t`-sized array the kernel only
        // reads; its size is passed with it.
        if unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), &one) } != 0 {
            return None;
        }
        Some(word * 64 + bit)
    }
}

#[cfg(not(target_os = "linux"))]
mod imp {
    pub fn pin_to_one_cpu() -> Option<usize> {
        None
    }
}

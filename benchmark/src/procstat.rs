//! Outside-in accounting from `/proc/self`: per-thread CPU time, run-queue
//! wait and voluntary context switches, and the process's peak RSS.
//!
//! Threads are attributed to layers by what the cluster itself names
//! them: `iabc-io-*` is the `net` event loop, the thread-group leader is
//! the benchmark's generator, and every other thread is a node thread
//! running the `core` stack.

use std::fs;

/// Which layer a thread's time is charged to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Role {
    /// The benchmark's own generator/collector (main thread).
    Harness,
    /// An `iabc-io-*` event-loop thread.
    NetIo,
    /// A node thread (protocol stack).
    Node,
}

#[derive(Debug, Clone, Copy, Default)]
pub struct Usage {
    /// Time on a CPU, ns.
    pub cpu_ns: u64,
    /// Time runnable but waiting for a CPU, ns.
    pub runq_ns: u64,
    /// Voluntary context switches: the thread blocked and was woken.
    pub wakeups: u64,
}

impl Usage {
    fn add(&mut self, o: Usage) {
        self.cpu_ns += o.cpu_ns;
        self.runq_ns += o.runq_ns;
        self.wakeups += o.wakeups;
    }
}

/// One reading of every live thread of this process.
#[derive(Debug, Clone)]
pub struct Snapshot {
    threads: Vec<(u64, Role, Usage)>,
}

/// `utime + stime` of `/proc/self/task/<tid>/stat`, in clock ticks. Only
/// the fallback for kernels whose schedstat run time reads 0.
fn stat_ticks(tid: u64) -> Option<u64> {
    let stat = fs::read_to_string(format!("/proc/self/task/{tid}/stat")).ok()?;
    // comm may contain spaces; fields are counted after its closing paren.
    let rest = stat.rsplit_once(')')?.1;
    let mut f = rest.split_whitespace();
    let utime: u64 = f.nth(11)?.parse().ok()?;
    let stime: u64 = f.next()?.parse().ok()?;
    Some(utime + stime)
}

/// Linux reports `stat` times in USER_HZ ticks, which is 100 on every
/// supported architecture.
const NS_PER_TICK: u64 = 10_000_000;

fn read_thread(pid: u64, tid: u64) -> Option<(u64, Role, Usage)> {
    let dir = format!("/proc/self/task/{tid}");
    let comm = fs::read_to_string(format!("{dir}/comm")).ok()?;
    let role = if tid == pid {
        Role::Harness
    } else if comm.starts_with("iabc-io-") {
        Role::NetIo
    } else {
        Role::Node
    };
    let sched = fs::read_to_string(format!("{dir}/schedstat")).ok()?;
    let mut f = sched.split_whitespace();
    let mut cpu_ns: u64 = f.next()?.parse().ok()?;
    let runq_ns: u64 = f.next()?.parse().ok()?;
    if cpu_ns == 0 {
        cpu_ns = stat_ticks(tid).unwrap_or(0) * NS_PER_TICK;
    }
    let status = fs::read_to_string(format!("{dir}/status")).ok()?;
    let wakeups = status
        .lines()
        .find_map(|l| l.strip_prefix("voluntary_ctxt_switches:"))
        .and_then(|v| v.trim().parse().ok())
        .unwrap_or(0);
    Some((
        tid,
        role,
        Usage {
            cpu_ns,
            runq_ns,
            wakeups,
        },
    ))
}

impl Snapshot {
    /// Reads every thread of this process. A thread that exits while
    /// being read is skipped.
    pub fn take() -> Snapshot {
        let pid = u64::from(std::process::id());
        let mut threads = Vec::new();
        if let Ok(dir) = fs::read_dir("/proc/self/task") {
            for entry in dir.flatten() {
                let tid = entry
                    .file_name()
                    .to_str()
                    .and_then(|s| s.parse::<u64>().ok());
                if let Some(t) = tid.and_then(|tid| read_thread(pid, tid)) {
                    threads.push(t);
                }
            }
        }
        Snapshot { threads }
    }

    /// Usage accrued between `earlier` and `self`, summed per role over
    /// the threads alive at both readings.
    pub fn since(&self, earlier: &Snapshot) -> RoleUsage {
        let mut out = RoleUsage::default();
        for &(tid, role, now) in &self.threads {
            let Some(&(_, _, then)) = earlier.threads.iter().find(|t| t.0 == tid) else {
                continue;
            };
            let delta = Usage {
                cpu_ns: now.cpu_ns.saturating_sub(then.cpu_ns),
                runq_ns: now.runq_ns.saturating_sub(then.runq_ns),
                wakeups: now.wakeups.saturating_sub(then.wakeups),
            };
            match role {
                Role::Harness => out.harness.add(delta),
                Role::NetIo => out.net_io.add(delta),
                Role::Node => out.node.add(delta),
            }
        }
        out
    }
}

/// Per-layer usage over one measured interval.
#[derive(Debug, Clone, Copy, Default)]
pub struct RoleUsage {
    pub harness: Usage,
    pub net_io: Usage,
    pub node: Usage,
}

impl RoleUsage {
    /// CPU time of the whole process over the interval, ns.
    pub fn total_cpu_ns(&self) -> u64 {
        self.harness.cpu_ns + self.net_io.cpu_ns + self.node.cpu_ns
    }
}

/// `VmHWM` of this process in MiB: the peak resident set so far.
pub fn peak_rss_mib() -> f64 {
    fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

//! Prices the decided-log / catch-up machinery on a healthy cluster: the
//! static `W = 8, B = 16` pipeline swept across offered loads with catch-up
//! off (the paper's wire format, byte for byte) and on (every process logs
//! each fully a-delivered instance and piggybacks its decided frontier on
//! existing frames).
//!
//! Recovery itself is exercised by the fault-injecting integration tests
//! (`tests/recovery.rs`, `tests/real_runtimes.rs`); what a *benchmark* can
//! pin down is the failure-free overhead — the cost every deployment pays
//! all the time for the ability to catch up after a crash. That cost must
//! stay negligible: the `catch_up_on` rows must deliver everything the off
//! rows do, at goodput within a few percent, with the start-up frontier
//! probe as the only catch-up traffic of the whole run.
//!
//! A final row pair prices the fsync policy itself: wall-clock appends/s
//! of a real `DurableDecidedLog` with `sync_every` off (the default:
//! page-cache durability) versus `sync_every(8)` (bounded power-loss
//! window). Those rows are machine-dependent and are therefore emitted
//! without a `window` key, so CI's exactness check skips them.
//!
//! Output: a text table on stdout and machine-readable JSON in
//! `results/BENCH_recovery_sweep.json` (same line-per-point layout as the
//! other sweeps, so CI's exactness check compares its sim rows verbatim
//! with the committed baseline).
//! Run with `--smoke` for the scaled-down CI grid — a subset of the full
//! grid, so every smoke row matches a committed baseline row.

use std::fmt::Write as _;
use std::fs;
use std::path::Path;
use std::time::Instant;

use iabc_bench::recovery_sweep_spec;
use iabc_core::stacks::{self, StackParams};
use iabc_core::{
    AbcastCommand, AbcastEvent, ConsensusFamily, DecidedEntry, DecidedLog, DurableDecidedLog,
    VariantKind,
};
use iabc_net::{NetFaultPlan, TcpCluster};
use iabc_sim::NetworkParams;
use iabc_types::{AppMessage, Duration, IdSet, MsgId, Payload, ProcessId, Time};
use iabc_workload::run_variant;

/// The static pipeline the sweep runs (mid-grid, below the B=1 knee).
const WINDOW: usize = 8;
const BATCH: usize = 16;

/// One measured grid point.
struct RecoveryPoint {
    /// `"catch_up_off"` or `"catch_up_on"`.
    mode: &'static str,
    offered_per_sec: f64,
    delivered_per_sec: f64,
    mean_ms: f64,
    missing_pairs: u64,
    saturated: bool,
    catch_up_requests: u64,
    caught_up_entries: u64,
    min_decided_frontier: u64,
}

fn measure(n: usize, offered: f64, payload: usize, duration: Duration, on: bool) -> RecoveryPoint {
    let spec = recovery_sweep_spec(n, offered, payload, duration, on);
    let r =
        run_variant(VariantKind::Indirect, ConsensusFamily::Ct, &NetworkParams::setup1(), &spec);
    RecoveryPoint {
        mode: if on { "catch_up_on" } else { "catch_up_off" },
        offered_per_sec: offered,
        delivered_per_sec: r.goodput_per_sec(n),
        mean_ms: r.mean_ms(),
        missing_pairs: r.missing_pairs,
        saturated: r.saturated,
        catch_up_requests: r.catch_up_requests,
        caught_up_entries: r.caught_up_entries,
        min_decided_frontier: r.min_decided_frontier,
    }
}

/// Wall-clock append throughput of the durable decided log under one
/// fsync policy — the disk-side price tag of recoverability, measured
/// directly rather than through the simulated cluster.
struct DurableRow {
    /// `"durable_append_sync_off"` or `"durable_append_sync_every_8"`.
    mode: &'static str,
    appends: u64,
    appends_per_sec: f64,
}

/// Appends real records to a real `DurableDecidedLog` on a temp file,
/// once with fsync off (the default) and once with `sync_every(8)`, and
/// reports wall-clock appends/s for each. Entries mirror what a healthy
/// 64 B-payload run logs: one ordered message per instance.
fn measure_durable_appends(smoke: bool) -> Vec<DurableRow> {
    let appends: u64 = if smoke { 2_000 } else { 20_000 };
    let mut rows = Vec::new();
    for (mode, every) in [("durable_append_sync_off", 0u64), ("durable_append_sync_every_8", 8)] {
        let mut path = std::env::temp_dir();
        path.push(format!("iabc-recovery-sweep-{mode}-{}", std::process::id()));
        let _ = fs::remove_file(&path);
        let mut log =
            DurableDecidedLog::<IdSet>::open(&path).expect("open durable log").sync_every(every);
        let t0 = Instant::now();
        for k in 1..=appends {
            let id = MsgId::new(ProcessId::new(0), k);
            let entry = DecidedEntry {
                k,
                value: IdSet::from_ids([id]),
                payloads: vec![AppMessage::new(id, Payload::zeroed(64), Time::ZERO)],
            };
            assert!(log.append(entry), "contiguous appends must be accepted");
        }
        let elapsed = t0.elapsed().as_secs_f64();
        assert!(log.io_error().is_none(), "durable appends must not error ({mode})");
        drop(log);
        let _ = fs::remove_file(&path);
        rows.push(DurableRow { mode, appends, appends_per_sec: appends as f64 / elapsed });
    }
    rows
}

/// Wall-clock goodput of the real TCP transport with the fault layer in
/// one of three states — absent, armed-but-idle, or actively severing
/// and healing a partition. Like the durable-append rows these are
/// machine-dependent, so they are emitted without a `window` key.
struct TcpRow {
    /// `"tcp_faults_off"`, `"tcp_faults_armed_idle"` or
    /// `"tcp_partition_heal"`.
    mode: &'static str,
    msgs: u64,
    delivered: u64,
    wall_goodput_per_sec: f64,
    links_severed: u64,
    reconnects: u64,
}

/// Drives a rate-paced broadcast workload through a 5-process
/// [`TcpCluster`] under the given fault plan and reports wall-clock
/// delivery goodput plus the fault-layer counters.
fn measure_tcp(mode: &'static str, plan: Option<NetFaultPlan>, smoke: bool) -> TcpRow {
    let n = 5usize;
    let msgs: u64 = if smoke { 40 } else { 150 };
    let params = StackParams::with_heartbeat(
        n,
        Duration::from_millis(25),
        Duration::from_millis(2_000),
    )
    .with_catch_up(true);
    let mut cluster =
        TcpCluster::start_with_faults(n, plan, |p| stacks::indirect_ct(p, &params));
    let t0 = Instant::now();
    for i in 0..msgs {
        // Bounded by n = 5.
        cluster.send_command(
            ProcessId::new((i % n as u64) as u16),
            AbcastCommand::Broadcast(Payload::zeroed(64)),
        );
        std::thread::sleep(std::time::Duration::from_millis(5));
    }
    // Each broadcast yields one Broadcast event plus n Delivered events.
    let outputs = cluster.wait_for_outputs(
        msgs as usize * (n + 1),
        std::time::Duration::from_secs(30),
    );
    let wall = t0.elapsed().as_secs_f64();
    let mut reports = cluster.fault_reports();
    // Delivery can complete while a single-link partition window is still
    // open (the quorum routes around it), so give the heal loop a moment
    // to re-establish any severed links before we tear the cluster down —
    // the reconnect counter is part of the row.
    let grace = Instant::now();
    while reports.iter().map(|r| r.links_severed).sum::<u64>() > 0
        && reports.iter().map(|r| r.reconnects).sum::<u64>() == 0
        && grace.elapsed() < std::time::Duration::from_secs(5)
    {
        std::thread::sleep(std::time::Duration::from_millis(20));
        reports = cluster.fault_reports();
    }
    cluster.shutdown();
    let delivered = outputs
        .iter()
        .filter(|o| matches!(o.output, AbcastEvent::Delivered { .. }))
        .count() as u64;
    TcpRow {
        mode,
        msgs,
        delivered,
        wall_goodput_per_sec: delivered as f64 / wall.max(1e-9),
        links_severed: reports.iter().map(|r| r.links_severed).sum(),
        reconnects: reports.iter().map(|r| r.reconnects).sum(),
    }
}

/// The three TCP rows: fault layer off, armed over a window that never
/// opens (prices the always-on cost of *having* the nemesis shim in the
/// frame path), and an actual partition-heal cycle mid-run.
fn measure_tcp_rows(smoke: bool) -> Vec<TcpRow> {
    let ms = |v: u64| Duration::from_millis(v);
    let p = ProcessId::new;
    // Armed-idle: a real window, parked an hour past any run horizon.
    let idle_plan = NetFaultPlan::new(1).partition(p(0), p(1), ms(3_600_000), ms(3_601_000));
    // A mid-run severance that heals well before the workload ends.
    let heal_to = if smoke { 350 } else { 450 };
    let heal_plan = NetFaultPlan::new(2).partition(p(0), p(1), ms(100), ms(heal_to));
    vec![
        measure_tcp("tcp_faults_off", None, smoke),
        measure_tcp("tcp_faults_armed_idle", Some(idle_plan), smoke),
        measure_tcp("tcp_partition_heal", Some(heal_plan), smoke),
    ]
}

fn write_json(
    path: &Path,
    n: usize,
    payload: usize,
    points: &[RecoveryPoint],
    durable: &[DurableRow],
    tcp: &[TcpRow],
) {
    let mut out = String::new();
    let _ = writeln!(out, "{{");
    let _ = writeln!(out, "  \"bench\": \"recovery_sweep\",");
    let _ = writeln!(out, "  \"stack\": \"indirect-ct static W={WINDOW} B={BATCH}\",");
    let _ = writeln!(out, "  \"n\": {n},");
    let _ = writeln!(out, "  \"payload_bytes\": {payload},");
    let _ = writeln!(out, "  \"network\": \"setup1\",");
    let _ = writeln!(out, "  \"cost_model\": \"setup1\",");
    let _ = writeln!(out, "  \"points\": [");
    for p in points {
        // `window` marks a sim row for CI's exactness check; together with
        // `mode` and `offered_per_sec` it keys each row uniquely.
        let _ = writeln!(
            out,
            "    {{\"mode\": \"{}\", \"window\": {WINDOW}, \"batch\": {BATCH}, \
             \"offered_per_sec\": {:.1}, \"delivered_per_sec\": {:.1}, \"mean_ms\": {:.3}, \
             \"missing_pairs\": {}, \"saturated\": {}, \"catch_up_requests\": {}, \
             \"caught_up_entries\": {}, \"min_decided_frontier\": {}}},",
            p.mode, p.offered_per_sec, p.delivered_per_sec, p.mean_ms, p.missing_pairs,
            p.saturated, p.catch_up_requests, p.caught_up_entries, p.min_decided_frontier,
        );
    }
    for d in durable {
        // Wall-clock fsync throughput is machine-dependent, so these rows
        // deliberately omit `window`: the exactness check skips them.
        let _ = writeln!(
            out,
            "    {{\"mode\": \"{}\", \"appends\": {}, \"appends_per_sec\": {:.1}}},",
            d.mode, d.appends, d.appends_per_sec,
        );
    }
    for (i, t) in tcp.iter().enumerate() {
        let comma = if i + 1 == tcp.len() { "" } else { "," };
        // Wall-clock TCP goodput: machine-dependent, ungated like the
        // durable rows above.
        let _ = writeln!(
            out,
            "    {{\"mode\": \"{}\", \"msgs\": {}, \"tcp_delivered\": {}, \
             \"wall_goodput_per_sec\": {:.1}, \"links_severed\": {}, \"reconnects\": {}}}{comma}",
            t.mode, t.msgs, t.delivered, t.wall_goodput_per_sec, t.links_severed, t.reconnects,
        );
    }
    let _ = writeln!(out, "  ]");
    let _ = writeln!(out, "}}");
    fs::create_dir_all(path.parent().expect("results dir")).expect("create results dir");
    fs::write(path, out).expect("write sweep json");
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let n = 3;
    let payload = 64;
    let duration = Duration::from_secs(2);
    // Light, medium and heavy (but unsaturated) load; smoke keeps the
    // medium point so the CI grid stays a subset of the baseline.
    let offered_grid: &[f64] = if smoke { &[2000.0] } else { &[1000.0, 2000.0, 4000.0] };

    println!("recovery_sweep: indirect-CT static W={WINDOW} B={BATCH}, n={n}, {payload} B");
    println!(
        "{:>10} {:>13} | {:>12} {:>10} {:>8} {:>5} {:>9} {:>9} {:>9}",
        "offered/s", "row", "delivered/s", "mean[ms]", "missing", "sat", "cu_reqs", "cu_entries",
        "min_front"
    );
    let mut points = Vec::new();
    for &offered in offered_grid {
        for on in [false, true] {
            points.push(measure(n, offered, payload, duration, on));
        }
    }
    for p in &points {
        println!(
            "{:>10.0} {:>13} | {:>12.1} {:>10.3} {:>8} {:>5} {:>9} {:>9} {:>9}",
            p.offered_per_sec,
            p.mode,
            p.delivered_per_sec,
            p.mean_ms,
            p.missing_pairs,
            if p.saturated { "*" } else { "" },
            p.catch_up_requests,
            p.caught_up_entries,
            p.min_decided_frontier,
        );
    }

    for &offered in offered_grid {
        let at = |mode: &str| {
            points
                .iter()
                .find(|p| p.mode == mode && p.offered_per_sec == offered)
                .expect("grid point")
        };
        let off = at("catch_up_off");
        let on = at("catch_up_on");
        println!(
            "\nat {offered:.0}/s: catch-up costs {:+.1}% goodput, {:+.3} ms mean latency \
             (frontier {} instances, {} entries over {} start-up probes)",
            (on.delivered_per_sec / off.delivered_per_sec.max(1e-9) - 1.0) * 100.0,
            on.mean_ms - off.mean_ms,
            on.min_decided_frontier,
            on.caught_up_entries,
            on.catch_up_requests,
        );
    }

    let durable = measure_durable_appends(smoke);
    for d in &durable {
        println!("{:>27}: {:>10.0} appends/s ({} appends)", d.mode, d.appends_per_sec, d.appends);
    }
    let off = durable.iter().find(|d| d.mode == "durable_append_sync_off").expect("sync-off row");
    let on = durable.iter().find(|d| d.mode != "durable_append_sync_off").expect("sync-on row");
    println!(
        "sync_every(8) keeps {:.0}% of unsynced append throughput",
        on.appends_per_sec / off.appends_per_sec.max(1e-9) * 100.0,
    );
    assert!(
        off.appends_per_sec > 0.0 && on.appends_per_sec > 0.0,
        "durable append rows must measure something",
    );

    let tcp = measure_tcp_rows(smoke);
    for t in &tcp {
        println!(
            "{:>27}: {:>8.0} delivered/s wall ({}/{} msgs, severed {}, reconnects {})",
            t.mode,
            t.wall_goodput_per_sec,
            t.delivered,
            t.msgs * 5,
            t.links_severed,
            t.reconnects,
        );
    }
    let tcp_at = |mode: &str| tcp.iter().find(|t| t.mode == mode).expect("tcp row");
    let tcp_off = tcp_at("tcp_faults_off");
    let tcp_idle = tcp_at("tcp_faults_armed_idle");
    let tcp_heal = tcp_at("tcp_partition_heal");
    println!(
        "armed-idle fault layer keeps {:.1}% of fault-off TCP goodput",
        tcp_idle.wall_goodput_per_sec / tcp_off.wall_goodput_per_sec.max(1e-9) * 100.0,
    );
    // ISSUE gate: an armed-but-idle fault plan must cost < 5% goodput.
    assert!(
        tcp_idle.wall_goodput_per_sec >= tcp_off.wall_goodput_per_sec * 0.95,
        "armed-idle fault layer cost exceeds 5% ({:.1}/s vs {:.1}/s)",
        tcp_idle.wall_goodput_per_sec,
        tcp_off.wall_goodput_per_sec,
    );
    // The heal row must have actually exercised a sever/reconnect cycle
    // and still delivered every broadcast everywhere.
    assert!(
        tcp_heal.links_severed >= 1 && tcp_heal.reconnects >= 1,
        "partition-heal row never severed/reconnected",
    );
    for t in &tcp {
        assert_eq!(t.delivered, t.msgs * 5, "{}: incomplete delivery", t.mode);
    }

    write_json(
        Path::new("results/BENCH_recovery_sweep.json"),
        n,
        payload,
        &points,
        &durable,
        &tcp,
    );
    println!("wrote results/BENCH_recovery_sweep.json");

    for &offered in offered_grid {
        let at = |mode: &str| {
            points
                .iter()
                .find(|p| p.mode == mode && p.offered_per_sec == offered)
                .expect("grid point")
        };
        let off = at("catch_up_off");
        let on = at("catch_up_on");
        // The off rows are the paper's protocol: no log, no frontier, and
        // the probe metrics must read exactly zero.
        assert_eq!(
            (off.catch_up_requests, off.caught_up_entries, off.min_decided_frontier),
            (0, 0, 0),
            "catch-up-off rows must not touch the recovery machinery at {offered:.0}/s",
        );
        // The on rows log everything, lose nothing, and never fetch more
        // than the start-up probes (one request per process, answered only
        // if a peer already decided something — a fault-free run has no
        // gaps to repair).
        assert!(
            on.min_decided_frontier > 0,
            "every process must have logged decided instances at {offered:.0}/s",
        );
        assert_eq!(
            on.missing_pairs, off.missing_pairs,
            "catch-up must not change what gets delivered at {offered:.0}/s",
        );
        assert!(
            on.catch_up_requests <= n as u64 && on.caught_up_entries <= n as u64,
            "a fault-free run must see no catch-up traffic past the start-up probes \
             at {offered:.0}/s: {} requests, {} entries",
            on.catch_up_requests,
            on.caught_up_entries,
        );
        // The always-on price of recoverability: within a few percent of
        // the paper's protocol at every unsaturated load.
        if !off.saturated {
            assert!(
                on.delivered_per_sec >= off.delivered_per_sec * 0.95,
                "catch-up bookkeeping must cost < 5% goodput at {offered:.0}/s: \
                 {:.1}/s !>= 0.95 * {:.1}/s",
                on.delivered_per_sec,
                off.delivered_per_sec,
            );
        }
    }
}

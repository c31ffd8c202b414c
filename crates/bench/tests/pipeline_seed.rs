//! The CI smoke sweep must be reproducible run-to-run: every
//! `pipeline_sweep` grid point threads the pinned smoke seed, so the JSON
//! artifacts CI archives (and its exactness check compares with the
//! committed baseline) are comparable across pushes and machines.

use iabc_bench::{pipeline_sweep_spec, priority_sweep_spec};
use iabc_types::Duration;
use iabc_workload::{batched_schedule, CI_SMOKE_SEED};
use iabc_types::ProcessId;

#[test]
fn sweep_specs_pin_the_ci_smoke_seed() {
    for (w, b) in [(1, 1), (1, 16), (16, 1), (16, 16)] {
        let spec = pipeline_sweep_spec(3, 4000.0, 64, Duration::from_secs(2), w, b);
        assert_eq!(spec.seed, CI_SMOKE_SEED, "smoke row W={w},B={b} must pin the seed");
        let pipeline = spec.stack.pipeline;
        assert_eq!((pipeline.w_min, pipeline.w_max, spec.batch), (w, w, b));
    }
}

#[test]
fn priority_sweep_specs_pin_the_seed_and_differ_only_in_the_lane() {
    let off = priority_sweep_spec(3, 4000.0, 64, Duration::from_secs(2), false);
    let on = priority_sweep_spec(3, 4000.0, 64, Duration::from_secs(2), true);
    assert_eq!(off.seed, CI_SMOKE_SEED);
    assert_eq!(on.seed, CI_SMOKE_SEED);
    assert!(!off.priority_lane);
    assert!(on.priority_lane);
    // Identical except the lane toggle: the on/off rows are a controlled
    // comparison over the same workload schedule.
    let mut on_without_lane = on.clone();
    on_without_lane.priority_lane = false;
    assert_eq!(off, on_without_lane);
    assert_eq!((off.stack.pipeline.w_min, off.stack.pipeline.w_max), (1, 16));
    assert_eq!(off.stack.pipeline.max_proposal_ids, 64);
    assert_eq!(off.batch, 1, "the priority sweep lives at the B=1 knee");
}

#[test]
fn pinned_seed_makes_smoke_schedules_identical() {
    let spec = pipeline_sweep_spec(3, 4000.0, 64, Duration::from_secs(2), 1, 16);
    let horizon = spec.warmup + spec.duration;
    let n = spec.stack.n;
    for p in ProcessId::all(n) {
        let a = batched_schedule(
            spec.arrivals,
            spec.throughput / n as f64,
            horizon,
            spec.seed,
            p,
            spec.batch,
        );
        let b = batched_schedule(
            spec.arrivals,
            spec.throughput / n as f64,
            horizon,
            CI_SMOKE_SEED,
            p,
            spec.batch,
        );
        assert_eq!(a, b, "schedule for {p:?} must be reproducible from the pinned seed");
        assert!(!a.is_empty());
    }
}

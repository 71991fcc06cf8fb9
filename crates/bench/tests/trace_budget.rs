//! Regression suite for the trace-archive budget undercount on rate/mix
//! runs (ROADMAP item, fixed alongside the exact live fallback).
//!
//! A timed stage of `System::run` keeps every core executing until the
//! *slowest* core reaches its target, so fast cores in rate and (above all)
//! mix runs consume trace records well past their own target — the original
//! `budget_for` (total instructions + 64 Ki slack) undercounted this and
//! tab07-shaped runs with `--trace-dir` at `--test` length blew through a
//! strict replay. Two fixes are pinned here:
//!
//! * `TraceConfig::budget_for` scales the timed phases by
//!   `CONSUMPTION_SPREAD` (observed worst cases on the tab07 shapes are
//!   under 4x; the spread is 16x), so common shapes replay purely from the
//!   archive, and
//! * the replay carries an exact live fallback, so even a pathological
//!   guard-bounded run (consumption up to
//!   `STARVATION_GUARD_CYCLES_PER_INSTRUCTION` cycles' worth per
//!   instruction — no static budget covers that) completes with
//!   bitwise-identical results instead of panicking.

use bard::experiment::{run_workload, RunLength};
use bard::{SystemConfig, TraceConfig};
use bard_workloads::WorkloadId;

/// tab07-shaped rate/mix configs at `--test` length: the full 8-core Table
/// II baseline (what tab07 actually simulates), one rate workload and the
/// mix that historically tripped the 64 Ki slack first. Recording and
/// replaying through the archive must reproduce live generation bitwise —
/// no strict-replay trip, no divergence.
#[test]
fn tab07_shaped_rate_and_mix_runs_replay_without_tripping() {
    let dir = std::env::temp_dir().join(format!("bard-budget-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let length = RunLength::test();
    for workload in [WorkloadId::Lbm, WorkloadId::Mix4] {
        let live_cfg = SystemConfig::baseline_8core();
        let traced_cfg =
            live_cfg.clone().with_trace(Some(TraceConfig::for_run_length(&dir, length)));
        let live = run_workload(&live_cfg, workload, length);
        let recorded = run_workload(&traced_cfg, workload, length); // captures the archive
        let replayed = run_workload(&traced_cfg, workload, length); // replays it
        assert_eq!(live, recorded, "{workload}: recording pass diverged from live");
        assert_eq!(live, replayed, "{workload}: replay pass diverged from live");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

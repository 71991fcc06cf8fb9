//! Step-vs-skip engine parity acceptance suite.
//!
//! The contract behind the default cycle-skipping engine: for any workload,
//! core count, runner shape and trace source, the skip engine produces a
//! [`RunResult`] **bitwise identical** (every counter, every `f64` metric)
//! to the reference step engine's. These angles pin it down:
//!
//! * registry workloads at 1, 4 and 8 cores, step vs skip — every workload
//!   at every core count under `BARD_PARITY=full` (the CI release-mode
//!   acceptance sweep), a representative cross-section by default so the
//!   debug-mode tier-1 run stays affordable,
//! * serial vs parallel runner execution crossed with the engines,
//! * live generation vs BTF trace replay crossed with the engines,
//! * write-queue saturation shapes on both engines (randomized sweeps live
//!   in `differential_stress.rs`),
//! * MSHR-saturation wake contention (eight cores on a two-entry MSHR file)
//!   and DRAM-pending saturation (four-entry read queues) on both engines,
//!   so the skip engine's wake rule is pinned against the reference step
//!   engine on both kinds of release that wake a crowd of sleepers.
//!
//! Anything the skip engine mis-accounts over a slept or jumped span (a
//! stall counter, a DRAM busy cycle, a completion delivered a cycle early
//! or late, a core woken a cycle off) shows up here as a field-level diff.

use std::path::{Path, PathBuf};

use bard::experiment::{run_workloads_on, RunLength};
use bard::runner::Runner;
use bard::{EngineKind, RunResult, SystemConfig, TraceConfig};
use bard_bench::differential::StressCase;
use bard_workloads::WorkloadId;

/// A scratch directory removed on drop.
struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> Self {
        let dir = std::env::temp_dir().join(format!("bard-engine-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        Self(dir)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// True when the full (29 workloads x 3 core counts) acceptance sweep is
/// requested — CI runs it in release mode, where it is cheap.
fn full_sweep() -> bool {
    std::env::var("BARD_PARITY").is_ok_and(|v| v == "full")
}

/// Short runs keep the sweep affordable; parity is cycle-exact from the
/// first cycle, so measurement length adds coverage volume, not kind.
fn tiny() -> RunLength {
    RunLength { functional_warmup: 30_000, timed_warmup: 500, measure: 2_500 }
}

fn config(cores: usize, engine: EngineKind, trace_dir: Option<&Path>) -> SystemConfig {
    let mut cfg = SystemConfig::small_test().with_engine(engine);
    cfg.cores = cores;
    if let Some(dir) = trace_dir {
        cfg.trace = Some(TraceConfig::for_run_length(dir, tiny()));
    }
    cfg
}

fn run_set(
    workloads: &[WorkloadId],
    cores: usize,
    engine: EngineKind,
    jobs: usize,
    trace_dir: Option<&Path>,
) -> Vec<RunResult> {
    run_workloads_on(&Runner::new(jobs), &config(cores, engine, trace_dir), workloads, tiny())
}

fn assert_identical(step: &[RunResult], skip: &[RunResult], context: &str) {
    assert_eq!(step.len(), skip.len(), "{context}: result counts differ");
    for (s, k) in step.iter().zip(skip) {
        assert_eq!(s, k, "{context}: '{}' diverged between engines", s.workload.name());
    }
}

/// The acceptance sweep: registry workloads at 1, 4 and 8 cores must be
/// engine-invariant down to the last bit. At 1 core every registry workload
/// runs; the 4- and 8-core legs default to a cross-section spanning
/// write-drain-heavy, read-heavy, prefetch-friendly and mixed behaviour
/// (all 29 under `BARD_PARITY=full`).
#[test]
fn registry_workloads_are_engine_invariant_at_1_4_8_cores() {
    let all = WorkloadId::all();
    let cross_section = [
        WorkloadId::Lbm,
        WorkloadId::Copy,
        WorkloadId::Omnetpp,
        WorkloadId::Mix0,
        WorkloadId::Mix5,
    ];
    let mut saw_drains = false;
    for cores in [1usize, 4, 8] {
        let set: &[WorkloadId] = if cores == 1 || full_sweep() { &all } else { &cross_section };
        let step = run_set(set, cores, EngineKind::Step, 1, None);
        let skip = run_set(set, cores, EngineKind::Skip, 1, None);
        assert_identical(&step, &skip, &format!("cores={cores}"));
        saw_drains |= step.iter().any(|r| r.dram_stats.drain_episodes > 0);
    }
    assert!(saw_drains, "the sweep must stress write-drain episodes");
}

/// Write-queue saturation on both engines, through the **runner** (the
/// coverage `differential_stress.rs` does not add): the saturation shape
/// itself is owned by `bard_bench::differential::StressCase::saturated` so
/// the two suites can never drift onto different regimes.
#[test]
fn saturated_write_queues_are_engine_invariant() {
    let set = [WorkloadId::Copy, WorkloadId::Lbm];
    let run = |engine| {
        let cfg = StressCase::saturated(WorkloadId::Copy).config.with_engine(engine);
        let got = run_workloads_on(&Runner::new(1), &cfg, &set, tiny());
        assert!(
            got.iter().all(|r| r.dram_stats.busy_cycles >= r.dram_stats.cycles),
            "the saturation shape must keep the queues occupied"
        );
        got
    };
    assert_identical(&run(EngineKind::Step), &run(EngineKind::Skip), "saturated");
}

/// MSHR-saturation wake contention: eight cores fighting over a two-entry
/// MSHR file keep a standing crowd of slot-waiters, so every DRAM
/// completion re-checks them against a file the cores visited first may
/// already have refilled. The shape is owned by
/// `StressCase::mshr_saturated` so this suite and `differential_stress.rs`
/// can never drift onto different regimes; here it runs on both engines
/// through the runner.
#[test]
fn mshr_saturation_wake_contention_is_engine_invariant() {
    let set = [WorkloadId::Omnetpp, WorkloadId::Mix0];
    let run = |engine| {
        let cfg = StressCase::mshr_saturated(WorkloadId::Omnetpp).config.with_engine(engine);
        let got = run_workloads_on(&Runner::new(1), &cfg, &set, tiny());
        assert!(
            got.iter().all(|r| r.dram_stats.reads > 0),
            "the MSHR-saturation shape must drive DRAM reads"
        );
        got
    };
    assert_identical(&run(EngineKind::Step), &run(EngineKind::Skip), "mshr saturation");
}

/// DRAM-pending saturation: cores sleep until a pending read enters a
/// four-entry read queue. The shape is owned by
/// `StressCase::pending_saturated`, like the MSHR shape above.
#[test]
fn dram_pending_saturation_is_engine_invariant() {
    let set = [WorkloadId::Lbm, WorkloadId::Omnetpp];
    let run = |engine| {
        let cfg = StressCase::pending_saturated(WorkloadId::Lbm).config.with_engine(engine);
        let got = run_workloads_on(&Runner::new(1), &cfg, &set, tiny());
        assert!(
            got.iter().all(|r| r.dram_stats.reads > 0),
            "the pending-saturation shape must drive DRAM reads"
        );
        got
    };
    assert_identical(&run(EngineKind::Step), &run(EngineKind::Skip), "pending saturation");
}

/// Serial-vs-parallel cross-check: the runner's job decomposition must not
/// interact with the engine choice — all four combinations agree.
#[test]
fn serial_and_parallel_runs_agree_across_engines() {
    let set = [WorkloadId::Lbm, WorkloadId::Copy, WorkloadId::Mix0];
    let baseline = run_set(&set, 2, EngineKind::Step, 1, None);
    for engine in [EngineKind::Step, EngineKind::Skip] {
        for jobs in [1usize, 4] {
            let got = run_set(&set, 2, engine, jobs, None);
            assert_identical(&baseline, &got, &format!("engine={} jobs={jobs}", engine.name()));
        }
    }
}

/// Live-vs-replay cross-check: an archive recorded under one engine replays
/// bitwise-identically under both (trace capture happens at the
/// workload-generator layer, which the engines do not touch).
#[test]
fn trace_replay_is_engine_invariant() {
    let tmp = TempDir::new("replay");
    let set = [WorkloadId::Lbm, WorkloadId::Mix0];
    let live = run_set(&set, 2, EngineKind::Step, 1, None);
    // Recording pass under skip populates the archive; replay under either
    // engine must reproduce the live results.
    let recorded = run_set(&set, 2, EngineKind::Skip, 1, Some(&tmp.0));
    assert_identical(&live, &recorded, "recording pass (skip)");
    for engine in [EngineKind::Step, EngineKind::Skip] {
        let replay = run_set(&set, 2, engine, 1, Some(&tmp.0));
        assert_identical(&live, &replay, &format!("replay pass ({})", engine.name()));
    }
}

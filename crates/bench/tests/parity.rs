//! Step/skip parity, runner legs. With `differential_stress.rs` and
//! `engine_parity.rs` (the randomized cases and the saturation shapes) this
//! is the suite that proves the skip engine and snapshot restore bit-exact.
//!
//! For any workload, configuration, runner shape and trace source, every
//! path of [`all_paths`] must produce a [`RunResult`] **bitwise identical**
//! (every counter, every `f64` metric) to the first path's, and a run
//! checkpointed halfway, serialized, restored and resumed must match its
//! straight run. The legs here:
//!
//! * registry workloads at 1, 4 and 8 cores, one test per core count: all
//!   29 at 1 core and a cross-section at 4 and 8 by default, every workload
//!   at every core count under `BARD_PARITY=full`;
//! * refused write-backs across cycle jumps, through
//!   [`StressCase::assert_parity`];
//! * serial vs parallel runner execution, and live generation vs BTF trace
//!   replay, on every path.
//!
//! Each (shape, workload) pair of the saturation shapes runs in exactly one
//! test of the other two files, through the shape's helper in
//! `bard_bench::differential`:
//!
//! | shape               | `engine_parity.rs` | `differential_stress.rs` |
//! |---------------------|--------------------|--------------------------|
//! | saturated           | copy, lbm          | bc; omnetpp              |
//! | MSHR-saturated      | omnetpp, mix0      | copy                     |
//! | pending-saturated   | omnetpp            | lbm                      |
//!
//! `differential_stress.rs` also holds the randomized cases, one test per
//! RNG stream. Anything the skip engine mis-accounts over a slept or jumped
//! span (a stall counter, a DRAM busy cycle, a completion delivered a cycle
//! early or late, a core woken a cycle off), and any state a snapshot fails
//! to carry, shows up as a field-level diff. The default run keeps the
//! debug-mode tier-1 suite affordable; CI runs the release-mode sweep with
//! `BARD_PARITY=full`.

use std::path::{Path, PathBuf};

use bard::experiment::RunLength;
use bard::runner::Runner;
use bard::{EngineKind, RunResult, SystemConfig, TraceConfig};
use bard_bench::differential::{all_paths, full_sweep, StressCase};
use bard_workloads::WorkloadId;

/// A scratch directory removed on drop.
struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> Self {
        let dir = std::env::temp_dir().join(format!("bard-parity-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        Self(dir)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Short runs keep the runner legs affordable; parity is cycle-exact from
/// the first cycle, so measurement length adds coverage volume, not kind.
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
    let configs = [config(cores, engine, trace_dir)];
    Runner::new(jobs).run_grid(&configs, workloads, tiny()).remove(0)
}

fn assert_identical(expected: &[RunResult], got: &[RunResult], context: &str) {
    assert_eq!(expected.len(), got.len(), "{context}: result counts differ");
    for (e, g) in expected.iter().zip(got) {
        assert_eq!(e, g, "{context}: '{}' diverged", e.workload.name());
    }
}

/// Runs `run` on every path and asserts each path's results equal the
/// first path's. Returns the first path's results.
fn assert_every_path_agrees(
    context: &str,
    run: impl Fn(EngineKind) -> Vec<RunResult>,
) -> Vec<RunResult> {
    let mut reference: Option<(Vec<RunResult>, &str)> = None;
    for engine in all_paths() {
        let got = run(engine);
        match &reference {
            None => reference = Some((got, engine.name())),
            Some((first, first_name)) => assert_identical(
                first,
                &got,
                &format!("{context}: between {first_name} and {}", engine.name()),
            ),
        }
    }
    reference.expect("at least one path ran").0
}

/// The 4- and 8-core registry legs' default set, spanning write-drain-heavy,
/// read-heavy, prefetch-friendly and mixed behaviour.
const CROSS_SECTION: [WorkloadId; 5] =
    [WorkloadId::Lbm, WorkloadId::Copy, WorkloadId::Omnetpp, WorkloadId::Mix0, WorkloadId::Mix5];

/// The registry sweep at one core count, through the runner: `workloads`
/// by default, every registry workload under `BARD_PARITY=full`. Returns
/// the first path's results.
fn assert_registry_parity(cores: usize, workloads: &[WorkloadId]) -> Vec<RunResult> {
    let all = WorkloadId::all();
    let set = if full_sweep() { &all } else { workloads };
    assert_every_path_agrees(&format!("cores={cores}"), |engine| {
        run_set(set, cores, engine, 0, None)
    })
}

/// One core never fills a write queue at these lengths, so only the
/// multi-core legs must stress write-drain episodes.
fn assert_drains(results: &[RunResult]) {
    assert!(
        results.iter().any(|r| r.dram_stats.drain_episodes > 0),
        "the sweep must stress write-drain episodes"
    );
}

#[test]
fn registry_workloads_agree_at_1_core() {
    assert_registry_parity(1, &WorkloadId::all());
}

#[test]
fn registry_workloads_agree_at_4_cores() {
    assert_drains(&assert_registry_parity(4, &CROSS_SECTION));
}

#[test]
fn registry_workloads_agree_at_8_cores() {
    assert_drains(&assert_registry_parity(8, &CROSS_SECTION));
}

/// The skip engine jumps while a write-back is buffered behind a full write
/// queue; the step engine is refused on every one of those cycles, so the
/// jump must count each refusal in `write_queue_full_events` too.
#[test]
fn refused_write_backs_are_counted_across_cycle_jumps() {
    let case = StressCase::refused_writebacks();
    let result = case.assert_parity();
    assert!(result.dram_stats.write_queue_full_events > 0, "{}: no refused write", case.label);
}

/// The runner's job decomposition must not interact with the path: serial
/// and parallel runs agree on every path.
#[test]
fn serial_and_parallel_runs_agree_on_every_path() {
    let set = [WorkloadId::Lbm, WorkloadId::Copy, WorkloadId::Mix0];
    let serial = assert_every_path_agrees("jobs=1", |engine| run_set(&set, 2, engine, 1, None));
    let parallel = assert_every_path_agrees("jobs=4", |engine| run_set(&set, 2, engine, 4, None));
    assert_identical(&serial, &parallel, "serial vs parallel");
}

/// Live vs replay: an archive recorded on one path replays bitwise
/// identically on every path (trace capture happens at the
/// workload-generator layer, which the engines do not touch).
#[test]
fn trace_replay_agrees_with_live_generation_on_every_path() {
    let tmp = TempDir::new("replay");
    let set = [WorkloadId::Lbm, WorkloadId::Mix0];
    let live = assert_every_path_agrees("live", |engine| run_set(&set, 2, engine, 1, None));
    let traced = |engine| run_set(&set, 2, engine, 1, Some(&tmp.0));
    // The first traced run records the archive; every later one replays it.
    let [first, ..] = all_paths();
    assert_identical(&live, &traced(first), "recording pass");
    let replayed = assert_every_path_agrees("replay", traced);
    assert_identical(&live, &replayed, "replay pass");
}

//! Randomized differential stress suite: the step and skip engines must
//! agree bitwise on randomized workload/config sweeps and on hand-picked
//! queue-saturation cases.
//!
//! This is the acceptance harness for the model-work fast paths (cycle
//! skipping, batched compute dispatch, per-core sleep with its release-time
//! refusal check, span-lazy DRAM statistics): anything they mis-schedule,
//! mis-count or mis-wake shows up here as a field-level diff between the
//! skip engine and the reference step engine.
//! The default run keeps the debug-mode tier-1 suite affordable; CI's
//! release-mode sweep widens it via `BARD_PARITY=full`.

use bard_bench::differential::StressCase;
use bard_workloads::rng::SmallRng;
use bard_workloads::WorkloadId;

/// RNG seed of the snapshot-parity sweep's case stream.
const SNAPSHOT_STREAM_SEED: u64 = 0x5AAB_5071;

/// Number of randomized cases: a representative handful by default, a wide
/// sweep under `BARD_PARITY=full` (CI runs that in release mode).
fn case_count() -> usize {
    if std::env::var("BARD_PARITY").is_ok_and(|v| v == "full") {
        24
    } else {
        6
    }
}

#[test]
fn randomized_cases_agree_across_all_paths() {
    let mut rng = SmallRng::seed_from_u64(0xD1FF_BA5E);
    for index in 0..case_count() {
        let case = StressCase::random(&mut rng, index);
        let result = case.assert_paths_agree();
        assert!(result.total_cycles > 0, "{}: empty run", case.label);
    }
}

/// Queue-saturation cases: write-heavy workloads against a tiny write queue
/// and a starved MSHR file keep the command scheduler at saturation for the
/// whole run.
#[test]
fn saturated_queue_cases_agree_across_all_paths() {
    for workload in [WorkloadId::Copy, WorkloadId::Lbm, WorkloadId::Bc] {
        let case = StressCase::saturated(workload);
        let result = case.assert_paths_agree();
        assert!(
            result.dram_stats.drain_episodes > 0,
            "{}: saturation case must exercise write drains",
            case.label
        );
        // `busy_cycles` sums over the two sub-channels, so `>= cycles` means
        // the queues were non-empty at least half the time on average — in
        // practice these cases sit at ~100% occupancy on both sub-channels.
        assert!(
            result.dram_stats.busy_cycles >= result.dram_stats.cycles,
            "{}: saturation case must keep the queues occupied",
            case.label
        );
    }
}

/// MSHR-starvation cases: eight cores against a two-entry MSHR file keep a
/// standing crowd of sleepers blocked on slot availability, so every DRAM
/// completion re-checks them against a file the cores visited first may
/// already have refilled, on both engines.
#[test]
fn mshr_saturated_cases_agree_across_all_paths() {
    for workload in [WorkloadId::Omnetpp, WorkloadId::Mix0] {
        let case = StressCase::mshr_saturated(workload);
        let result = case.assert_paths_agree();
        assert!(
            result.dram_stats.reads > 0,
            "{}: MSHR-saturation case must drive DRAM reads",
            case.label
        );
    }
}

/// DRAM-pending saturation: four-entry read queues hold back a deep MSHR
/// file's misses until the pending buffer hits its bound, so sleepers wait
/// for a pending read to enter a read queue. A skip engine that missed that
/// release would wake them late and diverge here.
#[test]
fn pending_saturated_case_agrees_across_all_paths() {
    let case = StressCase::pending_saturated(WorkloadId::Lbm);
    let result = case.assert_paths_agree();
    assert!(result.dram_stats.reads > 0, "{}: the case must drive DRAM reads", case.label);
}

/// Case 8 of the snapshot-parity stream below (mix4 under VWQ with a
/// 16-entry write queue, only sampled by the `BARD_PARITY=full` sweep) has
/// the skip engine jump while a write-back is buffered behind a full write
/// queue. The step engine retries and is refused on every one of those
/// cycles, and `write_queue_full_events` counts each refusal, so the jump
/// must count them too.
#[test]
fn refused_write_backs_are_counted_across_cycle_jumps() {
    let mut rng = SmallRng::seed_from_u64(SNAPSHOT_STREAM_SEED);
    let case = (0..=8).map(|index| StressCase::random(&mut rng, index)).last().expect("nine cases");
    let result = case.assert_paths_agree();
    assert!(result.dram_stats.write_queue_full_events > 0, "{}: no refused write", case.label);
}

/// Snapshot-parity sweep: randomized `(workload, config, seed, run-length)`
/// tuples, each paused halfway through its run, captured into a BSS1 image,
/// serialized, reparsed, restored into a fresh `System` and resumed — and
/// the resumed run must be bitwise-identical (RunResult, final cycle,
/// artifact text, artifact CSV) to the straightline run on **both**
/// engines. A different RNG stream than the
/// path-parity sweep, so the two suites cover different configurations.
#[test]
fn randomized_cases_resume_bitwise_identically_from_snapshots() {
    let mut rng = SmallRng::seed_from_u64(SNAPSHOT_STREAM_SEED);
    for index in 0..case_count() {
        let case = StressCase::random(&mut rng, index);
        let result = case.assert_snapshot_parity();
        assert!(result.total_cycles > 0, "{}: empty run", case.label);
    }
}

/// Saturated queues are where restore has the most state to get right:
/// full write queues, drain mode mid-episode, a crowd of sleeping cores.
/// The checkpoint/restore cycle must be invisible there too.
#[test]
fn saturated_queue_cases_resume_bitwise_identically_from_snapshots() {
    for workload in [WorkloadId::Copy, WorkloadId::Omnetpp] {
        let saturated = StressCase::saturated(workload);
        let _ = saturated.assert_snapshot_parity();
        let starved = StressCase::mshr_saturated(workload);
        let _ = starved.assert_snapshot_parity();
    }
    let _ = StressCase::pending_saturated(WorkloadId::Lbm).assert_snapshot_parity();
}

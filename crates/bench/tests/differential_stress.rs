//! Step/skip parity of the randomized cases and the saturation shapes,
//! second share. Every case runs straight and checkpointed on every path
//! (`StressCase::assert_parity`): the paths must agree bitwise, and a run
//! checkpointed halfway, serialized, restored and resumed must match its
//! straight run. The shape tests hold the workloads `engine_parity.rs`
//! does not run, so each (shape, workload) pair runs once; `parity.rs`
//! maps them. The default run keeps the debug-mode tier-1 suite
//! affordable; CI's release-mode sweep widens the randomized cases via
//! `BARD_PARITY=full`.

use bard_bench::differential::{
    assert_mshr_saturated_parity, assert_pending_saturated_parity, assert_random_stream_parity,
    assert_saturated_parity,
};
use bard_workloads::WorkloadId;

/// Randomized `(workload, config, seed, run length)` cases, first stream.
#[test]
fn randomized_cases_agree_across_all_paths() {
    assert_random_stream_parity(0xD1FF_BA5E);
}

/// Randomized cases, second stream: different configurations, and
/// checkpoints that land mid-warm-up as well as mid-measure.
#[test]
fn randomized_cases_resume_bitwise_identically_from_snapshots() {
    assert_random_stream_parity(0x5AAB_5071);
}

/// Write-queue saturation on a graph workload.
#[test]
fn saturated_queue_cases_agree_across_all_paths() {
    assert_saturated_parity(&[WorkloadId::Bc]);
}

/// Saturated queues are where restore has the most state to get right:
/// full write queues, drain mode mid-episode, a crowd of sleeping cores.
#[test]
fn saturated_queue_cases_resume_bitwise_identically_from_snapshots() {
    assert_saturated_parity(&[WorkloadId::Omnetpp]);
}

/// MSHR starvation on a write-heavy streaming workload.
#[test]
fn mshr_saturated_cases_agree_across_all_paths() {
    assert_mshr_saturated_parity(&[WorkloadId::Copy]);
}

/// DRAM-pending saturation: four-entry read queues hold back a deep MSHR
/// file's misses until the pending buffer hits its bound. A skip engine
/// that missed the release of a pending read would wake its sleepers late
/// and diverge here.
#[test]
fn pending_saturated_case_agrees_across_all_paths() {
    assert_pending_saturated_parity(&[WorkloadId::Lbm]);
}

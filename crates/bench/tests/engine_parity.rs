//! Step/skip parity of the saturation shapes, first share: each test puts
//! its workloads through one shape's helper in `bard_bench::differential`,
//! which runs every case straight and checkpointed on every path
//! (`StressCase::assert_parity`) and checks the shape's own regime. The
//! other workloads of each shape run in `differential_stress.rs`, so each
//! (shape, workload) pair runs once; `parity.rs` maps them.

use bard_bench::differential::{
    assert_mshr_saturated_parity, assert_pending_saturated_parity, assert_saturated_parity,
};
use bard_workloads::WorkloadId;

/// Write-queue saturation: write-heavy workloads against one small write
/// queue keep the command scheduler at saturation for the whole run.
#[test]
fn saturated_write_queues_are_engine_invariant() {
    assert_saturated_parity(&[WorkloadId::Copy, WorkloadId::Lbm]);
}

/// MSHR-saturation wake contention: eight cores fighting over a two-entry
/// MSHR file keep a standing crowd of slot-waiters, so every DRAM
/// completion re-checks them against a file the cores visited first may
/// already have refilled.
#[test]
fn mshr_saturation_wake_contention_is_engine_invariant() {
    assert_mshr_saturated_parity(&[WorkloadId::Omnetpp, WorkloadId::Mix0]);
}

/// DRAM-pending saturation: cores sleep until a pending read enters a
/// four-entry read queue.
#[test]
fn dram_pending_saturation_is_engine_invariant() {
    assert_pending_saturated_parity(&[WorkloadId::Omnetpp]);
}

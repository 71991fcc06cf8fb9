//! End-to-end tests of the parallel runner subsystem: a parallel grid must be
//! metric-for-metric identical to the serial path, whatever the worker count.

use bard::experiment::{Comparison, RunLength};
use bard::runner::Runner;
use bard::{RunResult, SystemConfig, WritePolicyKind};
use bard_workloads::WorkloadId;

fn tiny() -> RunLength {
    RunLength { functional_warmup: 120_000, timed_warmup: 2_000, measure: 8_000 }
}

/// Asserts bitwise equality of every metric the evaluation reports.
fn assert_results_identical(a: &RunResult, b: &RunResult) {
    assert_eq!(a.workload, b.workload);
    assert_eq!(a.config_label, b.config_label);
    assert_eq!(a.cores, b.cores);
    assert_eq!(a.completed, b.completed);
    assert_eq!(a.instructions_per_core, b.instructions_per_core);
    assert_eq!(a.total_cycles, b.total_cycles);
    assert_eq!(a.per_core_ipc, b.per_core_ipc, "per-core IPC must match bitwise");
    assert_eq!(a.llc_stats.loads, b.llc_stats.loads);
    assert_eq!(a.llc_stats.load_hits, b.llc_stats.load_hits);
    assert_eq!(a.policy_stats.writebacks, b.policy_stats.writebacks);
    assert_eq!(a.policy_stats.evictions, b.policy_stats.evictions);
    assert_eq!(a.policy_stats.overrides, b.policy_stats.overrides);
    assert_eq!(a.policy_stats.cleanses, b.policy_stats.cleanses);
    assert_eq!(a.dram_stats.reads, b.dram_stats.reads);
    assert_eq!(a.dram_stats.writes, b.dram_stats.writes);
    assert_eq!(a.dram_stats.drain_episodes, b.dram_stats.drain_episodes);
    assert!((a.mpki() - b.mpki()).abs() == 0.0);
    assert!((a.wpki() - b.wpki()).abs() == 0.0);
    assert!((a.write_blp() - b.write_blp()).abs() == 0.0);
    assert!((a.write_time_fraction() - b.write_time_fraction()).abs() == 0.0);
}

#[test]
fn parallel_grid_is_bitwise_equal_to_serial() {
    let base = SystemConfig::small_test();
    let bard = base.clone().with_policy(WritePolicyKind::BardH);
    let workloads = [WorkloadId::Lbm, WorkloadId::Copy, WorkloadId::Bc];
    let configs = [base, bard];

    let serial = Runner::serial().run_grid(&configs, &workloads, tiny()).concat();
    for threads in [2, 4, 8] {
        let parallel = Runner::new(threads).run_grid(&configs, &workloads, tiny()).concat();
        assert_eq!(serial.len(), parallel.len());
        for (s, p) in serial.iter().zip(&parallel) {
            assert_results_identical(s, p);
        }
    }
}

#[test]
fn run_workloads_matches_explicit_serial_runner() {
    let cfg = SystemConfig::small_test();
    let workloads = [WorkloadId::Scale, WorkloadId::Lbm];
    let configs = std::slice::from_ref(&cfg);
    let default_path = Runner::default().run_grid(configs, &workloads, tiny()).remove(0);
    let serial_path = Runner::serial().run_grid(configs, &workloads, tiny()).remove(0);
    assert_eq!(default_path.len(), serial_path.len());
    for (d, s) in default_path.iter().zip(&serial_path) {
        assert_results_identical(d, s);
    }
}

#[test]
fn comparison_speedups_are_thread_count_invariant() {
    let base = SystemConfig::small_test();
    let bard = [base.clone().with_policy(WritePolicyKind::BardH)];
    let workloads = [WorkloadId::Lbm, WorkloadId::Copy];
    let serial = Comparison::run_many(&Runner::serial(), &base, &bard, &workloads, tiny());
    let parallel = Comparison::run_many(&Runner::new(4), &base, &bard, &workloads, tiny());
    assert_eq!(serial[0].speedups_percent(), parallel[0].speedups_percent());
    assert_eq!(serial[0].gmean_speedup_percent(), parallel[0].gmean_speedup_percent());
}

#[test]
fn run_many_baseline_is_shared_not_rerun() {
    let base = SystemConfig::small_test();
    let variants = [
        base.clone().with_policy(WritePolicyKind::BardE),
        base.clone().with_policy(WritePolicyKind::BardC),
        base.clone().with_policy(WritePolicyKind::BardH),
    ];
    let workloads = [WorkloadId::Copy, WorkloadId::Lbm];
    let cmps = Comparison::run_many(&Runner::default(), &base, &variants, &workloads, tiny());
    assert_eq!(cmps.len(), 3);
    for cmp in &cmps[1..] {
        for (a, b) in cmps[0].baseline.iter().zip(&cmp.baseline) {
            assert_results_identical(a, b);
        }
    }
}

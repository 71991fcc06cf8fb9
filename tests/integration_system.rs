//! End-to-end integration tests spanning every crate: workloads drive the
//! OoO-lite cores, the cache hierarchy, the BARD policies and the DDR5 model.
//!
//! These use the reduced `small_test` configuration and short run lengths so
//! the whole file stays within a few seconds in release mode.

use bard::experiment::{run_workload, RunLength};
use bard::{speedup_percent, System, SystemConfig, WritePolicyKind};
use bard_cache::ReplacementKind;
use bard_workloads::WorkloadId;

fn tiny() -> RunLength {
    RunLength { functional_warmup: 150_000, timed_warmup: 3_000, measure: 15_000 }
}

fn run(policy: WritePolicyKind, workload: WorkloadId) -> bard::RunResult {
    let cfg = SystemConfig::small_test().with_policy(policy);
    run_workload(&cfg, workload, tiny())
}

#[test]
fn every_policy_completes_on_a_write_heavy_workload() {
    for policy in [
        WritePolicyKind::Baseline,
        WritePolicyKind::BardE,
        WritePolicyKind::BardC,
        WritePolicyKind::BardH,
        WritePolicyKind::EagerWriteback,
        WritePolicyKind::VirtualWriteQueue,
    ] {
        let result = run(policy, WorkloadId::Triad);
        assert!(result.completed, "{policy} did not finish");
        assert!(result.ipc_sum() > 0.0, "{policy} made no progress");
        assert!(result.dram_stats.reads > 0, "{policy} never read DRAM");
    }
}

#[test]
fn write_blp_stays_within_the_physical_bank_count() {
    for workload in [WorkloadId::Copy, WorkloadId::Lbm, WorkloadId::Bc] {
        let result = run(WritePolicyKind::Baseline, workload);
        let blp = result.write_blp();
        assert!((0.0..=32.0).contains(&blp), "BLP {blp} out of range for {workload}");
    }
}

#[test]
fn bard_increases_write_bank_parallelism() {
    let base = run(WritePolicyKind::Baseline, WorkloadId::Lbm);
    let bard = run(WritePolicyKind::BardH, WorkloadId::Lbm);
    assert!(base.dram_stats.drain_episodes > 0, "baseline must drain writes");
    assert!(
        bard.write_blp() >= base.write_blp() - 0.5,
        "BARD should not reduce write BLP: base {:.2}, bard {:.2}",
        base.write_blp(),
        bard.write_blp()
    );
}

#[test]
fn bard_policy_stats_are_consistent() {
    let result = run(WritePolicyKind::BardH, WorkloadId::Lbm);
    let p = result.policy_stats;
    assert!(p.overrides <= p.evictions);
    assert!(p.cleanses <= p.evictions);
    assert_eq!(p.checked_decisions, p.overrides + p.cleanses);
    assert!(p.incorrect_decisions <= p.checked_decisions);
    assert!(p.writebacks >= p.cleanses);
}

#[test]
fn baseline_never_overrides_or_cleanses() {
    let result = run(WritePolicyKind::Baseline, WorkloadId::Copy);
    assert_eq!(result.policy_stats.overrides, 0);
    assert_eq!(result.policy_stats.cleanses, 0);
}

#[test]
fn simulations_are_deterministic_for_a_fixed_seed() {
    let a = run(WritePolicyKind::BardH, WorkloadId::Mis);
    let b = run(WritePolicyKind::BardH, WorkloadId::Mis);
    assert_eq!(a.per_core_ipc, b.per_core_ipc);
    assert_eq!(a.llc_stats, b.llc_stats);
    assert_eq!(a.dram_stats, b.dram_stats);
}

#[test]
fn different_seeds_change_the_detailed_outcome() {
    let cfg_a = SystemConfig::small_test();
    let mut cfg_b = SystemConfig::small_test();
    cfg_b.seed = 0xDEAD_BEEF;
    let a = run_workload(&cfg_a, WorkloadId::Charlie, tiny());
    let b = run_workload(&cfg_b, WorkloadId::Charlie, tiny());
    assert_ne!(
        (a.total_cycles, a.llc_stats.loads),
        (b.total_cycles, b.llc_stats.loads),
        "different seeds should perturb the run"
    );
}

#[test]
fn speedup_of_identical_configs_is_near_zero() {
    let a = run(WritePolicyKind::Baseline, WorkloadId::Whiskey);
    let b = run(WritePolicyKind::Baseline, WorkloadId::Whiskey);
    assert!(speedup_percent(&a, &b).abs() < 1e-9);
}

#[test]
fn mix_workloads_run_heterogeneous_traces() {
    let cfg = SystemConfig::small_test();
    let result = run_workload(&cfg, WorkloadId::Mix3, tiny());
    assert!(result.completed);
    assert_eq!(result.cores, 2);
    assert!(result.llc_stats.demand_accesses() > 0);
}

#[test]
fn srrip_and_ship_replacement_work_with_bard() {
    for repl in [ReplacementKind::Srrip, ReplacementKind::Ship] {
        let cfg =
            SystemConfig::small_test().with_policy(WritePolicyKind::BardH).with_replacement(repl);
        let result = run_workload(&cfg, WorkloadId::Fotonik3d, tiny());
        assert!(result.completed, "{repl:?} run did not finish");
        assert!(result.policy_stats.overrides + result.policy_stats.cleanses > 0);
    }
}

#[test]
fn x8_devices_spend_less_time_writing_than_x4() {
    let x4 = SystemConfig::small_test();
    let mut x8 = SystemConfig::small_test();
    x8.dram = bard_dram::DramConfig::ddr5_4800_x8();
    let r4 = run_workload(&x4, WorkloadId::Copy, tiny());
    let r8 = run_workload(&x8, WorkloadId::Copy, tiny());
    assert!(
        r8.write_time_fraction() <= r4.write_time_fraction() + 0.02,
        "x8 should not spend more time writing: x4 {:.3} x8 {:.3}",
        r4.write_time_fraction(),
        r8.write_time_fraction()
    );
}

#[test]
fn ideal_writes_bound_the_baseline_from_below() {
    let base_cfg = SystemConfig::small_test();
    let mut ideal_cfg = SystemConfig::small_test();
    ideal_cfg.dram = ideal_cfg.dram.ideal();
    let base = run_workload(&base_cfg, WorkloadId::Add, tiny());
    let ideal = run_workload(&ideal_cfg, WorkloadId::Add, tiny());
    assert!(
        ideal.write_time_fraction() <= base.write_time_fraction() + 0.02,
        "ideal writes should not increase write time: base {:.3} ideal {:.3}",
        base.write_time_fraction(),
        ideal.write_time_fraction()
    );
    assert!(ideal.ipc_sum() >= base.ipc_sum() * 0.98);
}

#[test]
fn functional_warmup_leaves_dirty_lines_for_write_policies_to_work_with() {
    let mut system = System::new(SystemConfig::small_test(), WorkloadId::Lbm);
    system.functional_warmup(120_000);
    assert!(system.llc().dirty_lines() > 100);
}

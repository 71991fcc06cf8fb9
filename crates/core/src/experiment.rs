//! Experiment drivers: run workloads under one or more configurations and
//! compare them, the way the paper's evaluation scripts do.
//!
//! [`run_workload`] runs one simulation. Every multi-run evaluation is a
//! `(configs x workloads)` grid on a [`Runner`], whose
//! [`run_grid`](Runner::run_grid) saturates the host instead of a single
//! core and [`Comparison::run_many`] compares its rows against a shared
//! baseline. Results are deterministic regardless of the worker count and
//! of whether the runner forks warm-ups from a snapshot store.

use bard_workloads::WorkloadId;

use crate::config::SystemConfig;
use crate::metrics::{geomean_speedup_percent, speedup_percent, RunResult};
use crate::runner::Runner;
use crate::system::System;

/// How long to warm up and measure, in instructions per core.
///
/// The paper warms for 25 M and measures 100 M instructions on a compute
/// cluster. These presets trade absolute numbers for laptop-scale runtimes
/// while keeping every rate-style metric (IPC, MPKI, BLP, W%) stable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunLength {
    /// Timing-free warm-up instructions per core (populates the caches).
    pub functional_warmup: u64,
    /// Timed warm-up instructions per core (populates queues and trackers).
    pub timed_warmup: u64,
    /// Measured instructions per core.
    pub measure: u64,
}

impl RunLength {
    /// Very fast runs for unit/integration tests (seconds).
    #[must_use]
    pub fn test() -> Self {
        Self { functional_warmup: 150_000, timed_warmup: 5_000, measure: 25_000 }
    }

    /// Quick experiment runs (used by the default bench harness).
    #[must_use]
    pub fn quick() -> Self {
        Self { functional_warmup: 1_000_000, timed_warmup: 50_000, measure: 400_000 }
    }

    /// Longer runs for more stable numbers.
    #[must_use]
    pub fn standard() -> Self {
        Self { functional_warmup: 4_000_000, timed_warmup: 100_000, measure: 1_000_000 }
    }
}

impl Default for RunLength {
    fn default() -> Self {
        Self::quick()
    }
}

/// Runs one workload under one configuration.
#[must_use]
pub fn run_workload(config: &SystemConfig, workload: WorkloadId, length: RunLength) -> RunResult {
    let mut system = System::new(config.clone(), workload);
    system.run(length.functional_warmup, length.timed_warmup, length.measure)
}

/// The per-workload comparison of one test configuration against a baseline.
#[derive(Debug, Clone)]
pub struct Comparison {
    /// Label of the test configuration.
    pub label: String,
    /// Baseline results, one per workload.
    pub baseline: Vec<RunResult>,
    /// Test-configuration results, aligned with `baseline`.
    pub test: Vec<RunResult>,
}

impl Comparison {
    /// Compares several test configurations against one baseline over
    /// `workloads`, simulating the baseline **once** per workload (not once
    /// per test configuration) as one `(1 + N) x workloads` grid on
    /// `runner` — its worker count, progress meter and warm-image store
    /// apply. Returns one comparison per test configuration, in order.
    #[must_use]
    pub fn run_many(
        runner: &Runner,
        baseline_config: &SystemConfig,
        test_configs: &[SystemConfig],
        workloads: &[WorkloadId],
        length: RunLength,
    ) -> Vec<Self> {
        let configs: Vec<SystemConfig> =
            std::iter::once(baseline_config).chain(test_configs).cloned().collect();
        let mut grid = runner.run_grid(&configs, workloads, length).into_iter();
        let baseline = grid.next().expect("the grid has a baseline row");
        test_configs
            .iter()
            .zip(grid)
            .map(|(config, test)| Self::from_results(config.label(), baseline.clone(), test))
            .collect()
    }

    /// Builds a comparison from pre-computed results (so several comparisons
    /// can share one set of baseline runs).
    ///
    /// # Panics
    ///
    /// Panics if the two result vectors have different lengths or workload
    /// orderings.
    #[must_use]
    pub fn from_results(
        label: impl Into<String>,
        baseline: Vec<RunResult>,
        test: Vec<RunResult>,
    ) -> Self {
        assert_eq!(baseline.len(), test.len(), "mismatched result counts");
        for (b, t) in baseline.iter().zip(&test) {
            assert_eq!(b.workload, t.workload, "mismatched workload ordering");
        }
        Self { label: label.into(), baseline, test }
    }

    /// Per-workload speedup (per cent) of the test configuration.
    #[must_use]
    pub fn speedups_percent(&self) -> Vec<(WorkloadId, f64)> {
        self.baseline
            .iter()
            .zip(&self.test)
            .map(|(b, t)| (b.workload, speedup_percent(t, b)))
            .collect()
    }

    /// Geometric-mean speedup (per cent) across the workloads.
    #[must_use]
    pub fn gmean_speedup_percent(&self) -> f64 {
        let speedups: Vec<f64> = self.speedups_percent().iter().map(|(_, s)| *s).collect();
        geomean_speedup_percent(&speedups)
    }

    /// Maximum per-workload speedup (per cent).
    #[must_use]
    pub fn max_speedup_percent(&self) -> f64 {
        self.speedups_percent().iter().map(|(_, s)| *s).fold(f64::NEG_INFINITY, f64::max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::WritePolicyKind;
    use crate::snapshot::SnapshotStore;

    fn tiny() -> RunLength {
        RunLength { functional_warmup: 200_000, timed_warmup: 2_000, measure: 12_000 }
    }

    #[test]
    fn run_workload_produces_activity() {
        let cfg = SystemConfig::small_test();
        let r = run_workload(&cfg, WorkloadId::Copy, tiny());
        assert!(r.completed);
        assert!(r.dram_stats.writes > 0);
    }

    #[test]
    fn comparison_aligns_workloads() {
        let base = SystemConfig::small_test();
        let test = base.clone().with_policy(WritePolicyKind::BardH);
        let cmp = Comparison::run_many(
            &Runner::default(),
            &base,
            std::slice::from_ref(&test),
            &[WorkloadId::Lbm],
            tiny(),
        )
        .remove(0);
        let speedups = cmp.speedups_percent();
        assert_eq!(speedups.len(), 1);
        assert_eq!(speedups[0].0, WorkloadId::Lbm);
        assert!(speedups[0].1.is_finite());
        assert!(cmp.gmean_speedup_percent().is_finite());
        assert!(cmp.max_speedup_percent().is_finite());
    }

    #[test]
    fn run_many_shares_one_baseline() {
        let base = SystemConfig::small_test();
        let variants = [
            base.clone().with_policy(WritePolicyKind::BardE),
            base.clone().with_policy(WritePolicyKind::BardH),
        ];
        let cmps =
            Comparison::run_many(&Runner::default(), &base, &variants, &[WorkloadId::Copy], tiny());
        assert_eq!(cmps.len(), 2);
        assert_eq!(cmps[0].label, variants[0].label());
        assert_eq!(cmps[1].label, variants[1].label());
        // Both comparisons reference the same baseline simulation.
        assert_eq!(cmps[0].baseline[0].total_cycles, cmps[1].baseline[0].total_cycles);
        assert_eq!(cmps[0].baseline[0].per_core_ipc, cmps[1].baseline[0].per_core_ipc);
    }

    #[test]
    fn run_on_serial_matches_default() {
        let base = SystemConfig::small_test();
        let test = [base.clone().with_policy(WritePolicyKind::BardH)];
        let serial =
            Comparison::run_many(&Runner::serial(), &base, &test, &[WorkloadId::Lbm], tiny());
        let parallel =
            Comparison::run_many(&Runner::new(4), &base, &test, &[WorkloadId::Lbm], tiny());
        assert_eq!(serial[0].speedups_percent(), parallel[0].speedups_percent());
    }

    #[test]
    fn snapshot_store_grid_matches_cold_grid() {
        let dir = std::env::temp_dir().join(format!("bard-exp-snap-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let base = SystemConfig::small_test();
        let variants = [
            base.clone().with_policy(WritePolicyKind::BardE),
            base.clone().with_policy(WritePolicyKind::BardH),
        ];
        let workloads = [WorkloadId::Lbm];
        let cold = Comparison::run_many(&Runner::serial(), &base, &variants, &workloads, tiny());
        let runner = Runner::serial().with_snapshots(Some(SnapshotStore::new(&dir)));
        // First warm pass captures the image, second reuses the published file;
        // both must be bitwise-identical to the cold grid.
        for _ in 0..2 {
            let warm = Comparison::run_many(&runner, &base, &variants, &workloads, tiny());
            assert_eq!(cold.len(), warm.len());
            for (c, w) in cold.iter().zip(&warm) {
                assert_eq!(c.baseline[0].total_cycles, w.baseline[0].total_cycles);
                assert_eq!(c.baseline[0].per_core_ipc, w.baseline[0].per_core_ipc);
                assert_eq!(c.test[0].total_cycles, w.test[0].total_cycles);
                assert_eq!(c.test[0].per_core_ipc, w.test[0].per_core_ipc);
            }
        }
        // All three warm-compatible configs share one image file.
        let images: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().into_string().unwrap())
            .filter(|name| name.ends_with(".bss"))
            .collect();
        assert_eq!(images.len(), 1, "expected one shared warm image, found {images:?}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    #[should_panic(expected = "mismatched result counts")]
    fn from_results_rejects_mismatched_lengths() {
        let cfg = SystemConfig::small_test();
        let r = run_workload(&cfg, WorkloadId::Copy, tiny());
        let _ = Comparison::from_results("x", vec![r], vec![]);
    }

    #[test]
    fn run_lengths_are_ordered() {
        assert!(RunLength::test().measure < RunLength::quick().measure);
        assert!(RunLength::quick().measure < RunLength::standard().measure);
        assert_eq!(RunLength::default(), RunLength::quick());
    }
}

//! Run results and the derived metrics reported by the paper.

use bard_cache::CacheStats;
use bard_dram::{EnergyBreakdown, SubChannelStats};
use bard_workloads::WorkloadId;

use crate::policy::PolicyStats;

/// Everything measured during one simulation run of one workload under one
/// configuration.
///
/// Equality is field-wise and exact (including the `f64` metrics): two
/// results compare equal only when the runs were bitwise-identical, which is
/// what the engine/replay/runner parity suites assert.
#[derive(Debug, Clone, PartialEq)]
pub struct RunResult {
    /// Workload simulated.
    pub workload: WorkloadId,
    /// Configuration label ("bard-h/LRU", ...).
    pub config_label: String,
    /// Number of cores.
    pub cores: usize,
    /// Measured instructions per core.
    pub instructions_per_core: u64,
    /// True if every core reached its instruction target within the safety
    /// bound.
    pub completed: bool,
    /// Per-core IPC over the measurement window.
    pub per_core_ipc: Vec<f64>,
    /// Cycles in the measurement window (until the slowest core finished).
    pub total_cycles: u64,
    /// Merged L1D statistics.
    pub l1d_stats: CacheStats,
    /// Merged L2 statistics.
    pub l2_stats: CacheStats,
    /// Merged LLC statistics.
    pub llc_stats: CacheStats,
    /// LLC writeback-policy statistics.
    pub policy_stats: PolicyStats,
    /// DRAM statistics merged over all sub-channels.
    pub dram_stats: SubChannelStats,
    /// Number of sub-channels merged into `dram_stats`.
    pub dram_subchannels: usize,
    /// DRAM energy over the measurement window.
    pub energy: EnergyBreakdown,
}

impl RunResult {
    /// Total instructions measured across cores.
    #[must_use]
    pub fn total_instructions(&self) -> u64 {
        self.instructions_per_core * self.cores as u64
    }

    /// Sum of per-core IPC (system throughput).
    #[must_use]
    pub fn ipc_sum(&self) -> f64 {
        self.per_core_ipc.iter().sum()
    }

    /// LLC demand misses per kilo-instruction (Table IV / Table X).
    #[must_use]
    pub fn mpki(&self) -> f64 {
        per_kilo_instruction(self.llc_stats.demand_misses(), self.total_instructions())
    }

    /// LLC write-backs to DRAM per kilo-instruction (Table IV / Table X).
    #[must_use]
    pub fn wpki(&self) -> f64 {
        per_kilo_instruction(self.policy_stats.writebacks, self.total_instructions())
    }

    /// Mean write bank-level parallelism per drain episode (Figures 3, 14).
    #[must_use]
    pub fn write_blp(&self) -> f64 {
        self.dram_stats.mean_write_blp()
    }

    /// Fraction of execution time spent writing to DRAM (Figures 2, 14),
    /// averaged over sub-channels.
    #[must_use]
    pub fn write_time_fraction(&self) -> f64 {
        if self.dram_stats.cycles == 0 || self.dram_subchannels == 0 {
            0.0
        } else {
            self.dram_stats.write_mode_cycles as f64
                / (self.dram_stats.cycles as f64 * self.dram_subchannels as f64)
        }
    }

    /// Mean write-to-write delay in nanoseconds (Table V).
    #[must_use]
    pub fn mean_write_to_write_ns(&self) -> f64 {
        self.dram_stats.mean_write_to_write_ns()
    }

    /// DRAM row-buffer hit rate for writes (Section VI discussion).
    #[must_use]
    pub fn write_row_hit_rate(&self) -> f64 {
        self.dram_stats.write_row_hit_rate()
    }

    /// Mean DRAM power over the window, in milliwatts (Table IX).
    #[must_use]
    pub fn mean_dram_power_mw(&self) -> f64 {
        self.energy.mean_power_mw()
    }

    /// DRAM energy over the window, in picojoules (Table IX).
    #[must_use]
    pub fn dram_energy_pj(&self) -> f64 {
        self.energy.total_pj()
    }

    /// DRAM energy-delay product (Table IX): energy x measured cycles.
    #[must_use]
    pub fn dram_edp(&self) -> f64 {
        self.energy.total_pj() * self.total_cycles as f64
    }
}

fn per_kilo_instruction(count: u64, instructions: u64) -> f64 {
    if instructions == 0 {
        0.0
    } else {
        count as f64 * 1_000.0 / instructions as f64
    }
}

/// Per-core-normalised speedup (per cent) of `test` over `base`, the metric
/// used for every speedup figure in this reproduction.
///
/// Each core's IPC is normalised to the same core's IPC in the baseline run
/// (the constituent workloads are identical), and the normalised values are
/// averaged — the weighted-speedup ratio of the paper with the baseline run
/// itself serving as the "alone" reference.
///
/// # Panics
///
/// Panics if the two runs simulated different core counts.
#[must_use]
pub fn speedup_percent(test: &RunResult, base: &RunResult) -> f64 {
    assert_eq!(
        test.per_core_ipc.len(),
        base.per_core_ipc.len(),
        "speedup requires matching core counts"
    );
    let n = test.per_core_ipc.len() as f64;
    let mean_norm: f64 = test
        .per_core_ipc
        .iter()
        .zip(&base.per_core_ipc)
        .map(|(t, b)| if *b > 0.0 { t / b } else { 1.0 })
        .sum::<f64>()
        / n;
    (mean_norm - 1.0) * 100.0
}

/// Geometric mean of a sequence of values.
///
/// Returns 0 for an empty sequence; non-positive values are clamped to a tiny
/// positive number so a single degenerate input cannot poison the mean.
#[must_use]
pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let log_sum: f64 = values.iter().map(|v| v.max(1e-12).ln()).sum();
    (log_sum / values.len() as f64).exp()
}

/// Geometric-mean speedup (per cent) over a set of per-workload speedups,
/// computed the way architecture papers do: gmean of the speedup ratios,
/// converted back to a percentage.
#[must_use]
pub fn geomean_speedup_percent(speedups_percent: &[f64]) -> f64 {
    if speedups_percent.is_empty() {
        return 0.0;
    }
    let ratios: Vec<f64> = speedups_percent.iter().map(|s| 1.0 + s / 100.0).collect();
    (geomean(&ratios) - 1.0) * 100.0
}

#[cfg(test)]
mod tests {
    use super::*;

    fn result(ipcs: &[f64]) -> RunResult {
        RunResult {
            workload: WorkloadId::Lbm,
            config_label: "test".into(),
            cores: ipcs.len(),
            instructions_per_core: 1_000,
            completed: true,
            per_core_ipc: ipcs.to_vec(),
            total_cycles: 10_000,
            l1d_stats: CacheStats::default(),
            l2_stats: CacheStats::default(),
            llc_stats: CacheStats::default(),
            policy_stats: PolicyStats::default(),
            dram_stats: SubChannelStats::default(),
            dram_subchannels: 2,
            energy: EnergyBreakdown::default(),
        }
    }

    #[test]
    fn speedup_of_identical_runs_is_zero() {
        let a = result(&[1.0, 2.0]);
        assert!(speedup_percent(&a, &a).abs() < 1e-12);
    }

    #[test]
    fn speedup_reflects_ipc_gains() {
        let base = result(&[1.0, 1.0]);
        let test = result(&[1.05, 1.05]);
        assert!((speedup_percent(&test, &base) - 5.0).abs() < 1e-9);
    }

    #[test]
    fn geomean_matches_hand_computation() {
        assert!((geomean(&[1.0, 4.0]) - 2.0).abs() < 1e-12);
        assert_eq!(geomean(&[]), 0.0);
    }

    #[test]
    fn geomean_speedup_percent_round_trips() {
        let s = geomean_speedup_percent(&[4.0, 4.0, 4.0]);
        assert!((s - 4.0).abs() < 1e-9);
        assert_eq!(geomean_speedup_percent(&[]), 0.0);
    }

    #[test]
    fn mpki_and_wpki_use_total_instructions() {
        let mut r = result(&[1.0; 8]);
        r.llc_stats.loads = 10_000;
        r.llc_stats.load_hits = 9_000;
        r.policy_stats.writebacks = 400;
        // 8 cores x 1000 instructions = 8000 instructions.
        assert!((r.mpki() - 125.0).abs() < 1e-9);
        assert!((r.wpki() - 50.0).abs() < 1e-9);
    }

    #[test]
    fn channel_write_time_fraction_averages_subchannels() {
        // 300 write-mode cycles from each of 2 sub-channels, merged.
        let mut r = result(&[1.0]);
        r.dram_stats.cycles = 1_000;
        r.dram_stats.write_mode_cycles = 600;
        r.dram_subchannels = 2;
        assert!((r.write_time_fraction() - 0.3).abs() < 1e-12);
        r.dram_subchannels = 0;
        assert_eq!(r.write_time_fraction(), 0.0);
    }

    #[test]
    fn zero_instruction_results_do_not_divide_by_zero() {
        let mut r = result(&[1.0]);
        r.instructions_per_core = 0;
        assert_eq!(r.mpki(), 0.0);
        assert_eq!(r.wpki(), 0.0);
    }
}

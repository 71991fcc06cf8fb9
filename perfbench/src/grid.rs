//! The benchmark's workloads — grids of simulation cells — and the closed
//! loop that runs one grid a cell at a time through the simulator's public
//! entry points, timing each call from outside.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;

use bard::workloads::WorkloadId;
use bard::{
    geomean_speedup_percent, speedup_percent, RunLength, RunOutcome, RunResult, SnapshotStore,
    System, SystemConfig, TraceConfig, WritePolicyKind,
};

use crate::host::{cpu_seconds, Span, SpeedClock};

/// Seed the simulator uses by default (`SystemConfig::baseline_8core`);
/// benchmark seed 0 maps onto it, so the baseline figures are the repo's
/// default-seed figures.
const DEFAULT_CONFIG_SEED: u64 = 0x1BAD_B002;

/// One named workload: a grid of `workloads x policies` cells sharing a base
/// configuration and run length.
pub struct Spec {
    pub name: &'static str,
    base: fn() -> SystemConfig,
    pub workloads: &'static [WorkloadId],
    pub policies: &'static [WritePolicyKind],
    pub length: RunLength,
    /// How the grid's cells are warmed.
    pub warm: Warm,
}

use WritePolicyKind::{
    BardC, BardE, BardH, Baseline, EagerWriteback as Ew, VirtualWriteQueue as Vwq,
};

fn table2_4core() -> SystemConfig {
    let mut cfg = SystemConfig::baseline_8core();
    cfg.cores = 4;
    cfg
}

pub const SPECS: [Spec; 3] = [
    Spec {
        name: "fig10-8c",
        base: SystemConfig::baseline_8core,
        workloads: &[WorkloadId::Lbm, WorkloadId::Mix0],
        policies: &[Baseline, BardE, BardC, BardH],
        length: RunLength { functional_warmup: 300_000, timed_warmup: 10_000, measure: 60_000 },
        warm: Warm::Live,
    },
    Spec {
        name: "graph-4c",
        base: table2_4core,
        workloads: &[WorkloadId::BellmanFord, WorkloadId::Cf],
        policies: &[Baseline, BardH],
        length: RunLength { functional_warmup: 150_000, timed_warmup: 10_000, measure: 100_000 },
        warm: Warm::Live,
    },
    Spec {
        name: "rerun-2c",
        base: SystemConfig::small_test,
        workloads: &[WorkloadId::Lbm, WorkloadId::Pagerank],
        policies: &[Baseline, BardE, BardC, BardH, Ew, Vwq],
        length: RunLength { functional_warmup: 3_000_000, timed_warmup: 2_000, measure: 12_000 },
        warm: Warm::Forked,
    },
];

impl Spec {
    pub fn by_name(name: &str) -> Option<&'static Spec> {
        SPECS.iter().find(|s| s.name == name)
    }

    /// The base configuration for benchmark seed `seed`.
    pub fn config(&self, seed: u64) -> SystemConfig {
        (self.base)().with_seed(DEFAULT_CONFIG_SEED ^ seed.wrapping_mul(0x9E37_79B9_7F4A_7C15))
    }

    /// Cells in workload-major order, so on the forked path the first cell
    /// of each workload captures and the rest restore.
    pub fn cells(&self) -> Vec<(WorkloadId, WritePolicyKind)> {
        self.workloads.iter().flat_map(|&w| self.policies.iter().map(move |&p| (w, p))).collect()
    }

    /// Instructions the timed phases retire per cell, over all cores.
    fn timed_instructions(&self, cores: usize) -> u64 {
        (self.length.timed_warmup + self.length.measure) * cores as u64
    }
}

/// How a grid's cells reach their first timed cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Warm {
    /// `System::new` + `functional_warmup`.
    Live,
    /// `SnapshotStore::obtain_warm` over an archive rooted at the given work
    /// directory (wiped before the grid, so the grid captures then restores).
    Forked,
}

/// Simulated cycles per slice of the timed phases: the host-speed reference
/// runs between slices, so swings in host speed are tracked within a cell,
/// not only between cells.
const SLICE_CYCLES: u64 = 100_000;

/// Host CPU seconds of one cell, split by the public call that spent them.
#[derive(Debug, Clone, Copy, Default)]
pub struct CellTime {
    /// Raw CPU seconds of `System::new` (cold path only).
    pub new_s: f64,
    /// Everything before the first timed cycle: `System::new` +
    /// `functional_warmup` (cold path) or `obtain_warm` (forked path).
    pub setup: Span,
    /// The timed warm-up and measurement.
    pub timed: Span,
    /// Simulated cycles at the end of the run.
    pub sim_cycles: u64,
}

/// One cell's outcome: its result (`None` when it panicked) and timings.
pub struct Cell {
    pub result: Option<RunResult>,
    pub time: CellTime,
    pub failure: Option<String>,
}

/// One run of every cell of a grid.
pub struct GridRun {
    pub cells: Vec<Cell>,
    /// CPU seconds for the whole grid, normalized to the reference host
    /// speed span by span.
    pub grid_s: f64,
    /// Normalized CPU seconds before each cell's first timed cycle, summed.
    pub setup_s: f64,
    /// Instructions retired in the timed phases, over all cores and cells.
    pub timed_instructions: u64,
}

impl GridRun {
    pub fn failed(&self) -> usize {
        self.cells.iter().filter(|c| c.failure.is_some()).count()
    }

    pub fn results(&self) -> Vec<Option<&RunResult>> {
        self.cells.iter().map(|c| c.result.as_ref()).collect()
    }

    pub fn sum(&self, f: impl Fn(&CellTime) -> f64) -> f64 {
        self.cells.iter().map(|c| f(&c.time)).sum()
    }

    pub fn sim_cycles(&self) -> u64 {
        self.cells.iter().map(|c| c.time.sim_cycles).sum()
    }
}

/// Runs every cell of `spec` once, one at a time. The timed phases run
/// through `System::run_to_pause`, the pausable form of `System::run` with
/// bit-identical results, in slices of `SLICE_CYCLES`, so `clock` can time
/// its reference between them.
///
/// # Panics
///
/// Panics when the forked path cannot reset its work directory.
pub fn run_grid(
    spec: &Spec,
    seed: u64,
    warm: Warm,
    work: &Path,
    clock: &mut SpeedClock,
) -> GridRun {
    let base = spec.config(seed);
    let trace_dir = work.join("traces");
    let store = SnapshotStore::new(work.join("snapshots"));
    if warm == Warm::Forked {
        let _ = std::fs::remove_dir_all(work);
        std::fs::create_dir_all(work).expect("benchmark work directory must be creatable");
    }
    let len = spec.length;
    let mut cells = Vec::new();
    for (workload, policy) in spec.cells() {
        let mut cfg = base.clone().with_policy(policy);
        if warm == Warm::Forked {
            cfg = cfg.with_trace(Some(TraceConfig::for_run_length(&trace_dir, len)));
        }
        let mut time = CellTime::default();
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            let (mut system, setup) = clock.span(|| match warm {
                Warm::Live => {
                    let t0 = cpu_seconds();
                    let mut system = System::new(cfg.clone(), workload);
                    time.new_s = cpu_seconds() - t0;
                    system.functional_warmup(len.functional_warmup);
                    system
                }
                Warm::Forked => store
                    .obtain_warm(&cfg, workload, len.functional_warmup)
                    .unwrap_or_else(|e| panic!("obtain_warm failed: {e}")),
            });
            time.setup = setup;
            let mut pause = system.cycle() + SLICE_CYCLES;
            let result = loop {
                let (outcome, slice) = clock
                    .span(|| system.run_to_pause(0, len.timed_warmup, len.measure, Some(pause)));
                time.timed += slice;
                match outcome {
                    RunOutcome::Done(result) => break result,
                    RunOutcome::Paused => pause = system.cycle() + SLICE_CYCLES,
                }
            };
            time.sim_cycles = system.cycle();
            result
        }));
        let (result, failure) = match outcome {
            Ok(result) => {
                let failure = failure_of(&result, &cfg);
                (Some(result), failure)
            }
            Err(_) => (None, Some("panicked".to_owned())),
        };
        cells.push(Cell { result, time, failure });
    }
    let setup_s = cells.iter().map(|c| c.time.setup.normalized).sum::<f64>();
    let grid_s = setup_s + cells.iter().map(|c| c.time.timed.normalized).sum::<f64>();
    let timed_instructions = spec.timed_instructions(base.cores) * cells.len() as u64;
    GridRun { cells, grid_s, setup_s, timed_instructions }
}

/// Why a completed cell counts as failed, if it does: the starvation guard
/// stopped it, or it reports a derived value no real run can have.
fn failure_of(r: &RunResult, cfg: &SystemConfig) -> Option<String> {
    let width = cfg.core.dispatch_width as f64;
    if !r.completed {
        Some("starvation guard".to_owned())
    } else if r.mpki() > 1000.0 || r.wpki() > 1000.0 {
        Some(format!("impossible MPKI {:.1} / WPKI {:.1}", r.mpki(), r.wpki()))
    } else if r.per_core_ipc.iter().any(|&ipc| !(0.0..=width).contains(&ipc)) {
        Some(format!("IPC outside [0, {width}]"))
    } else {
        None
    }
}

/// The simulated-design figures of one grid (deterministic for a seed).
pub fn model_metrics(spec: &Spec, run: &GridRun) -> Vec<(&'static str, f64, &'static str)> {
    let results: Vec<&RunResult> = run.cells.iter().filter_map(|c| c.result.as_ref()).collect();
    let mean = |f: fn(&RunResult) -> f64| {
        results.iter().map(|r| f(r)).sum::<f64>() / results.len().max(1) as f64
    };
    let min_over_max = results
        .iter()
        .map(|r| {
            let max = r.per_core_ipc.iter().copied().fold(0.0, f64::max);
            let min = r.per_core_ipc.iter().copied().fold(f64::INFINITY, f64::min);
            if max > 0.0 {
                min / max
            } else {
                0.0
            }
        })
        .fold(f64::INFINITY, f64::min);
    let cell = |w: WorkloadId, p: WritePolicyKind| {
        spec.cells().iter().position(|&c| c == (w, p)).and_then(|i| run.cells[i].result.as_ref())
    };
    let speedups: Vec<f64> = spec
        .workloads
        .iter()
        .filter_map(|&w| Some(speedup_percent(cell(w, BardH)?, cell(w, Baseline)?)))
        .collect();
    vec![
        ("model.ipc_sum", mean(RunResult::ipc_sum), "ipc"),
        ("model.ipc_min_over_max", min_over_max, "ratio"),
        ("model.mpki", mean(RunResult::mpki), "1/kinstr"),
        ("model.wpki", mean(RunResult::wpki), "1/kinstr"),
        ("model.write_time_frac", mean(RunResult::write_time_fraction), "ratio"),
        ("model.write_blp", mean(RunResult::write_blp), "banks"),
        ("model.w2w_ns", mean(RunResult::mean_write_to_write_ns), "ns"),
        ("model.bard_h_speedup_pct", geomean_speedup_percent(&speedups), "%"),
    ]
}

//! Parallel execution of simulation grids.
//!
//! Every figure and table of the evaluation boils down to the same shape of
//! work: simulate a grid of `(configuration, workload)` pairs and post-process
//! the [`RunResult`]s. The simulations are completely independent — each owns
//! its [`System`](crate::System) — so the grid is embarrassingly
//! parallel. [`Runner`] fans the grid out over a scoped pool of `std::thread`
//! workers pulling cells from a shared atomic cursor (no work stealing, no
//! external dependencies) while preserving the *exact* output ordering and
//! values of a serial run: each cell writes into its own pre-allocated slot,
//! and every simulation is deterministic given its config and seed, so the
//! thread count can never change a metric.
//!
//! [`Runner::run_grid`] is the one entry point that runs a grid
//! ([`Comparison::run_many`](crate::experiment::Comparison::run_many) builds
//! on it), and the runner carries everything that shapes how a grid runs:
//! its worker count, its progress meter ([`Runner::with_progress`]) and its
//! warm-image store ([`Runner::with_snapshots`], the `--snapshot-dir=DIR`
//! flag). With a store, every cell restores its functional warm-up from (or
//! captures it into) a shared BSS1 image, so the policy and DRAM variants of
//! a workload fork one warmed state; results are bitwise-identical either
//! way.
//!
//! The worker count is picked, in order, from:
//!
//! 1. an explicit [`Runner::new`] argument (the `--jobs=N` flag of the
//!    experiment binaries ends up here),
//! 2. the `BARD_JOBS` environment variable,
//! 3. [`std::thread::available_parallelism`].
//!
//! ```no_run
//! use bard::runner::Runner;
//! use bard::{RunLength, SystemConfig, WritePolicyKind};
//! use bard_workloads::WorkloadId;
//!
//! let base = SystemConfig::baseline_8core();
//! let bard = base.clone().with_policy(WritePolicyKind::BardH);
//! let workloads = [WorkloadId::Lbm, WorkloadId::Copy];
//! let grid = Runner::default().run_grid(&[base, bard], &workloads, RunLength::quick());
//! assert_eq!(grid.len(), 2); // one row per config,
//! assert_eq!(grid[1].len(), 2); // one result per workload
//! ```

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Mutex;

use bard_workloads::WorkloadId;

use crate::config::SystemConfig;
use crate::experiment::{run_workload, RunLength};
use crate::metrics::RunResult;
use crate::snapshot::{self, SnapshotStore};
use crate::telemetry;

/// A scoped-thread executor for simulation grids.
#[derive(Debug, Clone)]
pub struct Runner {
    threads: usize,
    progress: bool,
    snapshots: Option<SnapshotStore>,
}

impl Runner {
    /// Creates a runner with an explicit worker count; `0` means "auto"
    /// (`BARD_JOBS` if set, otherwise the host's available parallelism).
    #[must_use]
    pub fn new(threads: usize) -> Self {
        let threads = if threads == 0 { auto_threads() } else { threads };
        Self { threads, progress: false, snapshots: None }
    }

    /// A runner that executes jobs one at a time on the calling thread.
    #[must_use]
    pub fn serial() -> Self {
        Self::new(1)
    }

    /// Enables or disables live grid progress: throttled
    /// `[bard-progress] k/n jobs ...` percent/ETA lines on stderr, weighted
    /// by each cell's instruction budget (the `--progress` flag lands here).
    /// Progress output never changes a result — it is stderr-only and
    /// observes cells from outside.
    #[must_use]
    pub fn with_progress(mut self, progress: bool) -> Self {
        self.progress = progress;
        self
    }

    /// Sets the warm-image store grids fork their functional warm-ups from
    /// (the `--snapshot-dir=DIR` flag lands here; `None` warms every cell
    /// cold). Cells that share a [`warm_digest`](crate::snapshot::warm_digest)
    /// — every policy and DRAM variant of one workload — restore one image,
    /// captured by whichever cell needs it first. Results are
    /// bitwise-identical either way; only wall clock changes.
    #[must_use]
    pub fn with_snapshots(mut self, snapshots: Option<SnapshotStore>) -> Self {
        self.snapshots = snapshots;
        self
    }

    /// Whether live grid progress is enabled.
    #[must_use]
    pub fn progress(&self) -> bool {
        self.progress
    }

    /// The warm-image store grids fork from, if any.
    #[must_use]
    pub fn snapshots(&self) -> Option<&SnapshotStore> {
        self.snapshots.as_ref()
    }

    /// The worker count this runner fans out to.
    #[must_use]
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Simulates every `(config, workload)` cell for `length` and returns
    /// the results grouped per configuration: `grid[c][w]` is
    /// `workloads[w]` under `configs[c]`. After a store-backed grid it
    /// prints the `[bard-perf] snapshot` counters line when `BARD_TELEMETRY`
    /// is enabled.
    ///
    /// The output is deterministic: each simulation is self-contained and
    /// seeded from its config, so the metrics are bitwise-identical whatever
    /// the thread count and whether or not a warm-image store is set.
    ///
    /// # Panics
    ///
    /// Propagates a panic from any cell, re-raising its original payload on
    /// the calling thread; a store holding a corrupt image, or one whose
    /// directory cannot be written, panics its cell. The other workers stop
    /// claiming new cells as soon as one panics (each finishes only its
    /// in-flight cell), so a failing grid aborts promptly instead of
    /// draining the whole queue.
    #[must_use]
    pub fn run_grid(
        &self,
        configs: &[SystemConfig],
        workloads: &[WorkloadId],
        length: RunLength,
    ) -> Vec<Vec<RunResult>> {
        let cells: Vec<(&SystemConfig, WorkloadId)> = configs
            .iter()
            .flat_map(|config| workloads.iter().map(move |&workload| (config, workload)))
            .collect();
        // The progress meter's weight: a cell's instruction budget summed
        // over cores, so percent/ETA track simulated work, not cell count.
        let weight = |config: &SystemConfig| {
            length
                .functional_warmup
                .saturating_add(length.timed_warmup)
                .saturating_add(length.measure)
                .saturating_mul(config.cores as u64)
        };
        let meter = self.progress.then(|| {
            telemetry::Progress::start(cells.len(), cells.iter().map(|(c, _)| weight(c)).sum())
        });
        let meter = meter.as_ref();
        let results = self.run_jobs(cells, |&(config, workload)| {
            // bard-lint: allow(D1) -- cell wall-clock for the runner-throughput telemetry
            // histogram only; simulated results never read it.
            let started = std::time::Instant::now();
            let result = self.run_cell(config, workload, length);
            if telemetry::enabled() {
                telemetry::RUNNER_JOBS_COMPLETED.add(1);
                telemetry::RUNNER_JOB_MILLIS.observe(started.elapsed().as_millis() as u64);
            }
            if let Some(meter) = meter {
                meter.job_done(weight(config));
            }
            result
        });
        if self.snapshots.is_some() {
            snapshot::print_counters_if_enabled();
        }
        let mut results = results.into_iter();
        configs.iter().map(|_| results.by_ref().take(workloads.len()).collect()).collect()
    }

    /// Simulates one grid cell: the one place that chooses between forking
    /// the functional warm-up from the store and warming the cell cold.
    fn run_cell(
        &self,
        config: &SystemConfig,
        workload: WorkloadId,
        length: RunLength,
    ) -> RunResult {
        match &self.snapshots {
            Some(store) if length.functional_warmup > 0 => {
                let mut system = store
                    .obtain_warm(config, workload, length.functional_warmup)
                    .unwrap_or_else(|e| panic!("snapshot store {}: {e}", store.dir().display()));
                system.run(0, length.timed_warmup, length.measure)
            }
            _ => run_workload(config, workload, length),
        }
    }

    /// Runs an arbitrary set of independent work items in parallel,
    /// preserving input ordering. [`Runner::run_grid`] is this over its
    /// cells; non-grid-shaped work (the parity suite's stress cases, ...)
    /// can reuse the pool directly.
    ///
    /// # Panics
    ///
    /// Propagates a panic from any work item.
    #[must_use]
    pub fn run_jobs<T, R, F>(&self, items: Vec<T>, work: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(&T) -> R + Sync,
    {
        let n = items.len();
        let workers = self.threads.min(n);
        if workers <= 1 {
            return items.iter().map(&work).collect();
        }
        let cursor = AtomicUsize::new(0);
        let abort = AtomicBool::new(false);
        let slots: Vec<Mutex<Option<R>>> = (0..n).map(|_| Mutex::new(None)).collect();
        // First panic payload from any worker; re-raised on the calling
        // thread so callers see the original message, not the generic
        // "a scoped thread panicked" that `thread::scope` would raise.
        let panicked: Mutex<Option<Box<dyn std::any::Any + Send>>> = Mutex::new(None);
        let items = &items;
        let slots_ref = &slots;
        let cursor_ref = &cursor;
        let abort_ref = &abort;
        let work_ref = &work;
        let panicked_ref = &panicked;
        std::thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(move || loop {
                    if abort_ref.load(Ordering::Relaxed) {
                        break;
                    }
                    let i = cursor_ref.fetch_add(1, Ordering::Relaxed);
                    if i >= n {
                        break;
                    }
                    match catch_unwind(AssertUnwindSafe(|| work_ref(&items[i]))) {
                        Ok(result) => {
                            *slots_ref[i].lock().expect("result slot poisoned") = Some(result);
                        }
                        Err(payload) => {
                            // Stop the other workers from claiming new jobs
                            // (each finishes only its in-flight one) and keep
                            // the first payload for the re-raise.
                            abort_ref.store(true, Ordering::Relaxed);
                            let mut slot = panicked_ref.lock().expect("panic slot poisoned");
                            if slot.is_none() {
                                *slot = Some(payload);
                            }
                            break;
                        }
                    }
                });
            }
        });
        if let Some(payload) = panicked.into_inner().expect("panic slot poisoned") {
            resume_unwind(payload);
        }
        slots
            .into_iter()
            .map(|slot| {
                slot.into_inner()
                    .expect("result slot poisoned")
                    .expect("every job index was claimed exactly once")
            })
            .collect()
    }
}

impl Default for Runner {
    /// Auto-sized runner: `BARD_JOBS` if set, else available parallelism.
    fn default() -> Self {
        Self::new(0)
    }
}

fn auto_threads() -> usize {
    // bard-lint: allow(D1) -- thread-count override; parallel and serial grids are pinned
    // bitwise-identical by the differential and fork suites, so this cannot move results.
    if let Ok(var) = std::env::var("BARD_JOBS") {
        if let Ok(n) = var.trim().parse::<usize>() {
            if n > 0 {
                return n;
            }
        }
    }
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::WritePolicyKind;

    fn tiny() -> RunLength {
        RunLength { functional_warmup: 100_000, timed_warmup: 1_000, measure: 5_000 }
    }

    #[test]
    fn grid_is_config_major() {
        let base = SystemConfig::small_test();
        let bard = base.clone().with_policy(WritePolicyKind::BardH);
        let short = RunLength { functional_warmup: 5_000, timed_warmup: 500, measure: 1_000 };
        let grid = Runner::new(2).run_grid(
            &[base.clone(), bard.clone()],
            &[WorkloadId::Lbm, WorkloadId::Copy],
            short,
        );
        assert_eq!(grid.len(), 2);
        for (row, config) in grid.iter().zip([&base, &bard]) {
            assert_eq!(row.len(), 2);
            assert_eq!(row[0].workload, WorkloadId::Lbm);
            assert_eq!(row[1].workload, WorkloadId::Copy);
            assert!(row.iter().all(|r| r.config_label == config.label()));
        }
    }

    #[test]
    fn run_jobs_preserves_ordering() {
        let runner = Runner::new(4);
        let items: Vec<u64> = (0..100).collect();
        let doubled = runner.run_jobs(items, |x| x * 2);
        assert_eq!(doubled, (0..100).map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn serial_runner_uses_one_thread() {
        assert_eq!(Runner::serial().threads(), 1);
        assert!(Runner::default().threads() >= 1);
        assert_eq!(Runner::new(3).threads(), 3);
    }

    #[test]
    fn parallel_grid_matches_serial_grid() {
        let cfg = SystemConfig::small_test();
        let workloads = [WorkloadId::Lbm, WorkloadId::Copy, WorkloadId::Scale];
        let configs = std::slice::from_ref(&cfg);
        let serial = Runner::serial().run_grid(configs, &workloads, tiny());
        let parallel = Runner::new(3).run_grid(configs, &workloads, tiny());
        assert_eq!(serial.len(), parallel.len());
        for (s, p) in serial[0].iter().zip(&parallel[0]) {
            assert_eq!(s.workload, p.workload);
            assert_eq!(s.total_cycles, p.total_cycles);
            assert_eq!(s.per_core_ipc, p.per_core_ipc);
        }
    }

    #[test]
    #[should_panic(expected = "boom")]
    fn worker_panics_propagate_with_original_message() {
        let runner = Runner::new(2);
        let _ = runner.run_jobs(vec![1, 2, 3, 4], |x| {
            assert!(*x != 3, "boom");
            *x
        });
    }
}

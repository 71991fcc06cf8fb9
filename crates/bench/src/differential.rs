//! Differential stress harness: the executable contract that every fast
//! path in the simulator is bitwise-faithful to the reference
//! implementations it bypasses.
//!
//! The simulator keeps one selectable fast path with a reference twin: time
//! advance, the reference `step` engine vs the exact next-event `skip`
//! engine ([`bard::EngineKind`]). Both engines must produce a **bitwise
//! identical** [`RunResult`] (every counter, every `f64`) and byte-identical
//! artifact text for any workload, configuration and run length. This module
//! provides the machinery the stress tests (and any future fast path) build
//! on: randomized configuration sampling over the dimensions that steer the
//! hot paths (core count, queue capacities and watermarks, MSHR budget,
//! page policy, refresh, device width, prefetchers, replacement and
//! writeback policies), plus the per-path runner and its assertion.
//!
//! Adding a fast path? Give it a reference twin, add the knob to
//! [`all_paths`] (or a new sampling dimension to [`StressCase::random`]) and
//! the existing suites extend their guarantee to it — see the "parity-test
//! obligations" section of `docs/ARCHITECTURE.md`.

use bard::experiment::RunLength;
use bard::report::{Artifact, Provenance};
use bard::{EngineKind, RunOutcome, RunResult, Snapshot, System, SystemConfig, WritePolicyKind};
use bard_cache::ReplacementKind;
use bard_dram::{DramConfig, PagePolicy};
use bard_workloads::rng::SmallRng;
use bard_workloads::WorkloadId;

/// One randomized differential test case: a configuration, a workload and a
/// run length, independent of the engine used to simulate it.
#[derive(Debug, Clone)]
pub struct StressCase {
    /// Human-readable description for assertion messages.
    pub label: String,
    /// System configuration (its `engine` field is overridden per path).
    pub config: SystemConfig,
    /// Workload to simulate.
    pub workload: WorkloadId,
    /// Warm-up and measurement lengths.
    pub length: RunLength,
}

/// The paths every case is pushed through: the reference step engine and
/// the skip engine.
#[must_use]
pub fn all_paths() -> [EngineKind; 2] {
    [EngineKind::Step, EngineKind::Skip]
}

impl StressCase {
    /// Samples a random case. The dimensions are chosen to steer every hot
    /// path: tiny MSHR / write-back budgets force memory back-pressure and
    /// core sleeping, small write queues with proportional watermarks force
    /// frequent drain-mode switches, page policies exercise the dead-row
    /// machinery, and the full workload registry covers streaming,
    /// irregular, write-heavy and mixed behaviour.
    #[must_use]
    pub fn random(rng: &mut SmallRng, index: usize) -> Self {
        let mut config = SystemConfig::small_test();
        config.cores = rng.gen_range(1usize..=4);
        config.seed = rng.next_u64();
        config.write_policy = *pick(
            rng,
            &[
                WritePolicyKind::Baseline,
                WritePolicyKind::BardE,
                WritePolicyKind::BardC,
                WritePolicyKind::BardH,
                WritePolicyKind::EagerWriteback,
                WritePolicyKind::VirtualWriteQueue,
            ],
        );
        config.llc_replacement =
            *pick(rng, &[ReplacementKind::Lru, ReplacementKind::Srrip, ReplacementKind::Ship]);
        config.l1_prefetch_degree = *pick(rng, &[0usize, 0, 2]);
        config.l2_prefetch_degree = *pick(rng, &[0usize, 0, 1]);
        config.llc_mshrs = *pick(rng, &[4usize, 16, 128]);
        config.writeback_buffer_entries = *pick(rng, &[2usize, 8, 32]);

        let mut dram = if rng.gen_bool(0.25) {
            DramConfig::ddr5_4800_x8()
        } else {
            DramConfig::ddr5_4800_x4()
        };
        dram = dram.with_write_queue_entries(*pick(rng, &[16usize, 24, 48]));
        dram.page_policy = *pick(
            rng,
            &[
                PagePolicy::AdaptiveOpen,
                PagePolicy::AdaptiveOpen,
                PagePolicy::Open,
                PagePolicy::Closed,
            ],
        );
        dram.refresh_enabled = rng.gen_bool(0.75);
        if rng.gen_bool(0.125) {
            dram.ideal_writes = true;
        }
        config.dram = dram;

        let all = WorkloadId::all();
        let workload = all[rng.gen_range(0usize..all.len())];
        let length = RunLength {
            functional_warmup: rng.gen_range(20_000u64..=50_000),
            timed_warmup: rng.gen_range(0u64..=2_000),
            measure: rng.gen_range(1_500u64..=3_500),
        };
        let label = format!(
            "case {index}: {} cores={} policy={} mshrs={} wq={} page={:?} refresh={} ideal={}",
            workload.name(),
            config.cores,
            config.write_policy.label(),
            config.llc_mshrs,
            config.dram.write_queue_entries,
            config.dram.page_policy,
            config.dram.refresh_enabled,
            config.dram.ideal_writes,
        );
        Self { label, config, workload, length }
    }

    /// A hand-picked case that saturates the DRAM queues: many cores of a
    /// write-heavy streaming workload against a single small write queue and
    /// a starved MSHR file, so the scheduler spends the whole run at queue
    /// saturation.
    #[must_use]
    pub fn saturated(workload: WorkloadId) -> Self {
        let mut config = SystemConfig::small_test();
        config.cores = 4;
        config.llc_mshrs = 32;
        config.writeback_buffer_entries = 32;
        config.dram = DramConfig::ddr5_4800_x4().with_write_queue_entries(16);
        Self {
            label: format!("saturated {}", workload.name()),
            config,
            workload,
            length: RunLength { functional_warmup: 40_000, timed_warmup: 1_000, measure: 4_000 },
        }
    }

    /// A hand-picked case that starves the MSHR file: many cores of a
    /// miss-heavy workload against a tiny MSHR budget, so cores spend most of
    /// the run asleep waiting for an MSHR slot, and on every DRAM completion
    /// a crowd of sleepers is re-checked against the file while the cores
    /// visited before them refill it.
    #[must_use]
    pub fn mshr_saturated(workload: WorkloadId) -> Self {
        let mut config = SystemConfig::small_test();
        config.cores = 8;
        config.llc_mshrs = 2;
        config.writeback_buffer_entries = 4;
        config.dram = DramConfig::ddr5_4800_x4().with_write_queue_entries(16);
        Self {
            label: format!("mshr-saturated {}", workload.name()),
            config,
            workload,
            length: RunLength { functional_warmup: 30_000, timed_warmup: 500, measure: 3_000 },
        }
    }

    /// A hand-picked case that fills the DRAM-pending buffer: eight cores
    /// with a deep MSHR file against four-entry read queues, so accepted
    /// misses pile up behind the read queues until the buffer reaches its
    /// bound, and cores sleep until a pending read enters a read queue — a
    /// release no other shape depends on.
    #[must_use]
    pub fn pending_saturated(workload: WorkloadId) -> Self {
        let mut config = SystemConfig::small_test();
        config.cores = 8;
        config.llc_mshrs = 256;
        config.dram.read_queue_entries = 4;
        Self {
            label: format!("pending-saturated {}", workload.name()),
            config,
            workload,
            length: RunLength { functional_warmup: 30_000, timed_warmup: 500, measure: 3_000 },
        }
    }

    /// Simulates this case with `engine`, returning the run result, the
    /// final simulated cycle and the rendered artifact text + CSV (which must
    /// all be path-invariant).
    #[must_use]
    pub fn run_path(&self, engine: EngineKind) -> PathOutcome {
        let config = self.config.clone().with_engine(engine);
        let mut system = System::new(config, self.workload);
        let result = system.run(
            self.length.functional_warmup,
            self.length.timed_warmup,
            self.length.measure,
        );
        let final_cycle = system.cycle();
        let (text, csv) = self.render_artifact(&result);
        PathOutcome { result, final_cycle, text, csv }
    }

    /// Runs the case through both paths and asserts that every result,
    /// final cycle, artifact text and artifact CSV is bitwise identical.
    /// Returns the (canonical) result for further assertions.
    #[must_use]
    pub fn assert_paths_agree(&self) -> RunResult {
        let mut reference: Option<(PathOutcome, &str)> = None;
        for engine in all_paths() {
            let name = engine.name();
            let outcome = self.run_path(engine);
            match &reference {
                None => reference = Some((outcome, name)),
                Some((reference, ref_name)) => {
                    assert_eq!(
                        reference.final_cycle, outcome.final_cycle,
                        "{}: final cycle diverged between {ref_name} and {name}",
                        self.label
                    );
                    assert_eq!(
                        reference.result, outcome.result,
                        "{}: RunResult diverged between {ref_name} and {name}",
                        self.label
                    );
                    assert_eq!(
                        reference.text, outcome.text,
                        "{}: artifact text diverged between {ref_name} and {name}",
                        self.label
                    );
                    assert_eq!(
                        reference.csv, outcome.csv,
                        "{}: artifact CSV diverged between {ref_name} and {name}",
                        self.label
                    );
                }
            }
        }
        reference.expect("at least one path ran").0.result
    }

    /// Simulates this case along one path with a mid-run checkpoint at
    /// simulated cycle `pause_at`: pauses there, captures a snapshot, pushes
    /// it through the full BSS1 serialize → reparse cycle, restores a fresh
    /// [`System`] from the image and resumes it to completion. The outcome
    /// must be bitwise-identical to [`StressCase::run_path`].
    ///
    /// # Panics
    ///
    /// Panics when the run completes before `pause_at` (the checkpoint must
    /// land mid-run) or the image fails to round-trip or restore.
    #[must_use]
    pub fn run_path_checkpointed(&self, engine: EngineKind, pause_at: u64) -> PathOutcome {
        let config = self.config.clone().with_engine(engine);
        let mut paused = System::new(config.clone(), self.workload);
        let outcome = paused.run_to_pause(
            self.length.functional_warmup,
            self.length.timed_warmup,
            self.length.measure,
            Some(pause_at),
        );
        assert!(
            matches!(outcome, RunOutcome::Paused),
            "{}: run finished before the checkpoint cycle {pause_at}",
            self.label
        );
        let bytes = paused.capture().to_bytes();
        let snapshot = Snapshot::from_bytes(&bytes)
            .unwrap_or_else(|e| panic!("{}: snapshot failed to reparse: {e}", self.label));
        let mut system = System::restore(config, self.workload, &snapshot)
            .unwrap_or_else(|e| panic!("{}: snapshot failed to restore: {e}", self.label));
        let RunOutcome::Done(result) = system.run_to_pause(
            self.length.functional_warmup,
            self.length.timed_warmup,
            self.length.measure,
            None,
        ) else {
            unreachable!("an unpaused resume always finishes")
        };
        let final_cycle = system.cycle();
        let (text, csv) = self.render_artifact(&result);
        PathOutcome { result, final_cycle, text, csv }
    }

    /// Runs the case straightline and checkpointed along every path and
    /// asserts each checkpoint → serialize → restore → resume outcome is
    /// bitwise identical to its straightline twin: same [`RunResult`], final
    /// cycle, artifact text and artifact CSV. The checkpoint lands halfway
    /// through the straightline run's simulated cycles, so it exercises
    /// mid-warm-up and mid-measure states across cases. Returns the
    /// (canonical) straightline result for further assertions.
    #[must_use]
    pub fn assert_snapshot_parity(&self) -> RunResult {
        let mut reference: Option<(RunResult, &str)> = None;
        for engine in all_paths() {
            let name = engine.name();
            let straight = self.run_path(engine);
            let pause_at = (straight.final_cycle / 2).max(1);
            let resumed = self.run_path_checkpointed(engine, pause_at);
            assert_eq!(
                straight.final_cycle, resumed.final_cycle,
                "{}: final cycle diverged after checkpoint/restore on {name}",
                self.label
            );
            assert_eq!(
                straight.result, resumed.result,
                "{}: RunResult diverged after checkpoint/restore on {name}",
                self.label
            );
            assert_eq!(
                straight.text, resumed.text,
                "{}: artifact text diverged after checkpoint/restore on {name}",
                self.label
            );
            assert_eq!(
                straight.csv, resumed.csv,
                "{}: artifact CSV diverged after checkpoint/restore on {name}",
                self.label
            );
            match &reference {
                None => reference = Some((straight.result, name)),
                Some((reference, ref_name)) => {
                    assert_eq!(
                        *reference, straight.result,
                        "{}: RunResult diverged between {ref_name} and {name}",
                        self.label
                    );
                }
            }
        }
        reference.expect("at least one path ran").0
    }

    /// Renders the result as a minimal artifact (text + CSV). The
    /// provenance is built field-by-field so no per-path wall clock or
    /// subprocess output can leak into the comparison.
    fn render_artifact(&self, result: &RunResult) -> (String, String) {
        let provenance = Provenance {
            config_label: self.config.label(),
            cores: self.config.cores,
            workloads: vec![self.workload.name().to_string()],
            run_length: self.length,
            jobs: 1,
            git_describe: None,
            wall_clock_seconds: 0.0,
        };
        let mut artifact = Artifact::new("differential", "Differential", &self.label, provenance);
        artifact.records_from(std::slice::from_ref(result));
        (artifact.render_text(), artifact.to_csv())
    }
}

/// What one engine path produced.
#[derive(Debug, Clone)]
pub struct PathOutcome {
    /// The collected run result.
    pub result: RunResult,
    /// Final simulated cycle of the run.
    pub final_cycle: u64,
    /// Rendered artifact text.
    pub text: String,
    /// Rendered artifact CSV.
    pub csv: String,
}

fn pick<'a, T>(rng: &mut SmallRng, choices: &'a [T]) -> &'a T {
    &choices[rng.gen_range(0usize..choices.len())]
}

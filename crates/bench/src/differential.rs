//! Differential parity harness: the executable contract that every fast
//! path in the simulator is bitwise-faithful to the reference
//! implementations it bypasses.
//!
//! The simulator keeps one selectable fast path with a reference twin: time
//! advance, the reference `step` engine vs the exact next-event `skip`
//! engine ([`bard::EngineKind`]). Both engines must produce a **bitwise
//! identical** [`RunResult`] (every counter, every `f64`) and byte-identical
//! artifact text for any workload, configuration and run length, and a run
//! checkpointed mid-way and resumed from its snapshot image must match the
//! straight run. This module provides the machinery the parity suite (and
//! any future fast path) builds on: randomized configuration sampling over
//! the dimensions that steer the hot paths (core count, queue capacities
//! and watermarks, MSHR budget, page policy, refresh, device width,
//! prefetchers, replacement and writeback policies), the hand-picked
//! saturation shapes with one helper each that checks the shape's regime
//! ([`assert_saturated_parity`], [`assert_mshr_saturated_parity`],
//! [`assert_pending_saturated_parity`]), and one assertion,
//! [`StressCase::assert_parity`].
//!
//! Adding a fast path? Give it a reference twin, add the knob to
//! [`all_paths`] (or a new sampling dimension to [`StressCase::random`]) and
//! the parity suite extends its guarantee to it — see the "parity-test
//! obligations" section of `docs/ARCHITECTURE.md`.

use bard::experiment::RunLength;
use bard::report::{Artifact, Provenance};
use bard::runner::Runner;
use bard::{EngineKind, RunOutcome, RunResult, Snapshot, System, SystemConfig, WritePolicyKind};
use bard_cache::ReplacementKind;
use bard_dram::{DramConfig, PagePolicy};
use bard_workloads::rng::SmallRng;
use bard_workloads::WorkloadId;

/// One differential test case: a configuration, a workload and a run
/// length, independent of the engine used to simulate it.
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

/// True when the wide parity sweep is requested (`BARD_PARITY=full`) — CI
/// runs it in release mode, where it is cheap.
#[must_use]
pub fn full_sweep() -> bool {
    std::env::var("BARD_PARITY").is_ok_and(|v| v == "full")
}

/// Puts every case through [`StressCase::assert_parity`], spread over the
/// runner's threads so that a long case does not leave a CPU idle at the
/// end of a test. Returns the results in case order.
#[must_use]
pub fn assert_parity_of(cases: Vec<StressCase>) -> Vec<(StressCase, RunResult)> {
    let results = Runner::new(0).run_jobs(cases.clone(), StressCase::assert_parity);
    cases.into_iter().zip(results).collect()
}

/// The randomized leg for one RNG stream: a representative handful of
/// [`StressCase::random`] draws by default, a wide sweep under
/// `BARD_PARITY=full`, each through [`StressCase::assert_parity`].
pub fn assert_random_stream_parity(stream: u64) {
    let count = if full_sweep() { 24 } else { 6 };
    let mut rng = SmallRng::seed_from_u64(stream);
    let cases = (0..count)
        .map(|index| {
            let mut case = StressCase::random(&mut rng, index);
            case.label = format!("stream {stream:#x} {}", case.label);
            case
        })
        .collect();
    for (case, result) in assert_parity_of(cases) {
        assert!(result.total_cycles > 0, "{}: empty run", case.label);
    }
}

/// The [`StressCase::saturated`] shape on `workloads`, through
/// [`StressCase::assert_parity`]: every case must exercise write drains and
/// keep the DRAM queues occupied.
pub fn assert_saturated_parity(workloads: &[WorkloadId]) {
    let cases = workloads.iter().map(|&w| StressCase::saturated(w)).collect();
    for (case, result) in assert_parity_of(cases) {
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

/// The [`StressCase::mshr_saturated`] shape on `workloads`, through
/// [`StressCase::assert_parity`]: every case must drive DRAM reads.
pub fn assert_mshr_saturated_parity(workloads: &[WorkloadId]) {
    assert_reads_parity(workloads.iter().map(|&w| StressCase::mshr_saturated(w)).collect());
}

/// The [`StressCase::pending_saturated`] shape on `workloads`, through
/// [`StressCase::assert_parity`]: every case must drive DRAM reads.
pub fn assert_pending_saturated_parity(workloads: &[WorkloadId]) {
    assert_reads_parity(workloads.iter().map(|&w| StressCase::pending_saturated(w)).collect());
}

fn assert_reads_parity(cases: Vec<StressCase>) {
    for (case, result) in assert_parity_of(cases) {
        assert!(result.dram_stats.reads > 0, "{}: the case must drive DRAM reads", case.label);
    }
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

    /// A hand-picked case in which the skip engine jumps while a write-back
    /// is buffered behind a full write queue: two mix4 cores under VWQ
    /// against a 16-entry write queue, four MSHRs and a two-entry
    /// write-back buffer. The step engine retries the write-back and is
    /// refused on every jumped cycle, and `write_queue_full_events` counts
    /// each refusal, so the jump must count them too.
    #[must_use]
    pub fn refused_writebacks() -> Self {
        let mut config = SystemConfig::small_test();
        config.cores = 2;
        config.seed = 0xd856_3fee_4c75_aa19;
        config.write_policy = WritePolicyKind::VirtualWriteQueue;
        config.llc_replacement = ReplacementKind::Srrip;
        config.l1_prefetch_degree = 2;
        config.l2_prefetch_degree = 1;
        config.llc_mshrs = 4;
        config.writeback_buffer_entries = 2;
        config.dram = DramConfig::ddr5_4800_x4().with_write_queue_entries(16);
        config.dram.page_policy = PagePolicy::AdaptiveOpen;
        config.dram.refresh_enabled = true;
        config.dram.ideal_writes = false;
        Self {
            label: "refused-writebacks mix4".to_string(),
            config,
            workload: WorkloadId::Mix4,
            length: RunLength { functional_warmup: 42_978, timed_warmup: 1_090, measure: 2_989 },
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

    /// Runs the case straight and checkpointed along every path of
    /// [`all_paths`] and asserts that the outcomes are bitwise identical:
    /// each straight run matches the first path's, and each checkpoint →
    /// serialize → restore → resume matches its own straight run — the same
    /// [`RunResult`], final cycle, artifact text and artifact CSV. The
    /// checkpoint lands halfway through the straight run's simulated cycles,
    /// so across cases it hits mid-warm-up and mid-measure states. Returns
    /// the (canonical) result for further assertions.
    #[must_use]
    pub fn assert_parity(&self) -> RunResult {
        let mut reference: Option<(PathOutcome, &str)> = None;
        for engine in all_paths() {
            let name = engine.name();
            let straight = self.run_path(engine);
            if let Some((first, first_name)) = &reference {
                self.assert_same(first, &straight, &format!("between {first_name} and {name}"));
            }
            let pause_at = (straight.final_cycle / 2).max(1);
            let resumed = self.run_path_checkpointed(engine, pause_at);
            self.assert_same(&straight, &resumed, &format!("after checkpoint/restore on {name}"));
            reference.get_or_insert((straight, name));
        }
        reference.expect("at least one path ran").0.result
    }

    /// Asserts that two outcomes agree field by field, naming the first
    /// field that diverged.
    fn assert_same(&self, expected: &PathOutcome, got: &PathOutcome, context: &str) {
        let label = &self.label;
        assert_eq!(
            expected.final_cycle, got.final_cycle,
            "{label}: final cycle diverged {context}"
        );
        assert_eq!(expected.result, got.result, "{label}: RunResult diverged {context}");
        assert_eq!(expected.text, got.text, "{label}: artifact text diverged {context}");
        assert_eq!(expected.csv, got.csv, "{label}: artifact CSV diverged {context}");
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

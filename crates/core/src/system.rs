//! The full-system simulator: cores + private caches + shared LLC + DDR5.
//!
//! The simulator is cycle-driven at the CPU clock. Each cycle the memory
//! controllers advance, completed DRAM reads fill the hierarchy and wake the
//! waiting cores, buffered LLC write-backs are pushed into the DRAM write
//! queues, and every core retires and dispatches instructions from its trace.
//! See the crate-level documentation for the overall flow.
//!
//! ## Engines
//!
//! Two engines advance time ([`crate::EngineKind`]); both run the identical
//! per-cycle model above and produce bitwise-identical results:
//!
//! * **step** — the reference engine: one tick per CPU cycle.
//! * **skip** (default) — the exact next-event engine: after a tick on which
//!   *nothing* changed (no command issued or completed, no event fired, no
//!   enqueue succeeded, no core dispatched or retired), the whole system is
//!   in a stall fixed point: every following cycle repeats it exactly until
//!   the next external trigger. The engine computes that **event horizon**
//!   — the minimum over the event ring's earliest slot, every sub-channel's
//!   exact wake cycle (earliest legal command issue or refresh) and the
//!   earliest read-completion delivery — and jumps `cycle` there in one
//!   step. Per-cycle statistics (core stall counters, DRAM
//!   busy/write-mode/total cycles, and therefore background energy) are
//!   accounted lazily over observed spans, so the jump itself is O(1). See
//!   `docs/ARCHITECTURE.md`.

use std::collections::VecDeque;

use bard_cache::{
    CacheConfig, CacheStats, IpStridePrefetcher, MshrFile, NextLinePrefetcher, Prefetcher,
    SetAssocCache,
};
use bard_cpu::{Core, CoreRequest, CoreStats, MemKind, TraceRecord, TraceSource};
use bard_dram::{CompletedRead, EnergyBreakdown, MemRequest, MemoryController, SubChannelStats};
use bard_image::{deque, each, opt, seq, ImageError, Io};
use bard_workloads::WorkloadId;

use crate::config::{EngineKind, SystemConfig};
use crate::llc::SlicedLlc;
use crate::metrics::RunResult;
use crate::snapshot::{self, Snapshot, SnapshotError};
use crate::telemetry;

/// Maximum memory requests a core may hand to the hierarchy per cycle.
const MAX_STAGED_PER_CYCLE: usize = 8;
/// Bound on DRAM read requests waiting for read-queue space.
const DRAM_PENDING_BOUND: usize = 96;
/// Prefetches dropped beyond this many outstanding DRAM reads.
const PREFETCH_INFLIGHT_HEADROOM: usize = 16;

/// Safety bound on simulated cycles per requested instruction: a timed
/// stage of [`System::run`] stops (reporting `completed = false`) once
/// `instructions_per_core * STARVATION_GUARD_CYCLES_PER_INSTRUCTION` cycles
/// have elapsed without every core retiring its quota.
///
/// The blessed value is 250: profiling the tier-1 workloads showed the
/// slowest legitimately-completing run (copy under BARD-H with the starved
/// `small_test` geometry) stays under 60 cycles per instruction, so 250
/// keeps a 4x margin while cutting the worst-case wall clock of a genuinely
/// starved run to a quarter of the previous 1000-cycle bound. Changing this
/// value changes guard-terminated artifacts; re-bless the repro goldens and
/// record the delta in `docs/RESULTS.md` (see the "Starvation guard"
/// section there).
pub const STARVATION_GUARD_CYCLES_PER_INSTRUCTION: u64 = 250;

/// The phase self-profiler times the per-tick phases (dispatch, probe, DRAM
/// scheduling, completion drain) on one executed tick in this many and
/// scales the sampled nanoseconds back up at flush: a host clock read costs
/// more than most ticks' model work, so timing every tick would distort the
/// profile. Stat settlement runs rarely and is timed every time.
const PHASE_SAMPLE_PERIOD: u64 = 64;

#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Event {
    CompleteLoad { core: usize, token: u64 },
    CompleteStore { core: usize, token: u64 },
}

/// Which back-pressure gate refused a request ([`System::refusal`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
enum BlockReason {
    /// Not blocked on a shared resource.
    #[default]
    None,
    /// The write-back buffer was at capacity.
    WritebackBuffer,
    /// The MSHR file was full (and did not already track the line), or the
    /// line's waiter list was full.
    Mshr,
    /// The DRAM-pending read buffer was at its bound.
    DramPending,
}

/// A trace source that counts every record it hands out, so a snapshot can
/// record the stream position and a restore can fast-forward a freshly-built
/// generator to it. Workload generators and trace replays are deterministic
/// functions of `(workload, core, seed)`, so "records consumed" fully
/// determines the stream state.
struct CountingTrace {
    inner: Box<dyn TraceSource>,
    consumed: u64,
}

impl CountingTrace {
    fn new(inner: Box<dyn TraceSource>) -> Self {
        Self { inner, consumed: 0 }
    }

    /// Advances a fresh stream to the position a snapshot restore decoded
    /// into `consumed`: an archived stream seeks in O(1), a live generator
    /// reads its way there.
    fn catch_up(&mut self) {
        self.inner.skip(self.consumed);
    }
}

impl TraceSource for CountingTrace {
    fn next_record(&mut self) -> TraceRecord {
        self.consumed += 1;
        self.inner.next_record()
    }

    fn name(&self) -> &str {
        self.inner.name()
    }
}

// CoreCtx is coded per core by System's image fns rather than an impl of its
// own; the marker points the snapshot-coverage lint at those bodies so a new
// field here still fails S1 unless coded or annotated.
// bard-lint: snapshot-state(warm_image, image)
struct CoreCtx {
    core: Core,
    /// Why the front retry request was last refused, and its line address:
    /// the line a sleeping back-pressured core is re-checked against.
    // bard-lint: allow(S1) -- read only while the core sleeps; a restored system starts awake.
    block: (BlockReason, u64),
    trace: CountingTrace,
    l1d: SetAssocCache,
    l2: SetAssocCache,
    l1_prefetcher: Option<IpStridePrefetcher>,
    // bard-lint: allow(S1) -- NextLinePrefetcher is stateless (config only); nothing to image.
    l2_prefetcher: Option<NextLinePrefetcher>,
    retry: VecDeque<CoreRequest>,
    finish_cycle: Option<u64>,
    retired_at_measure_start: u64,
    /// Skip engine only: first cycle the sleeping core did not execute.
    // bard-lint: allow(S1) -- sleep bookkeeping; a capture wakes every core first.
    sleep_since: u64,
    /// Statistics delta of the observed stall cycle, repeated verbatim by
    /// every slept cycle; settled lazily on wake.
    // bard-lint: allow(S1) -- sleep bookkeeping; a capture wakes every core first.
    sleep_delta: CoreStats,
}

impl CoreCtx {
    /// Applies the statistics of the cycles slept through `[sleep_since,
    /// now)`, returning how many there were.
    fn settle(&mut self, now: u64) -> u64 {
        let slept = now - self.sleep_since;
        self.core.apply_stalled_cycles(&self.sleep_delta, slept);
        slept
    }
}

impl std::fmt::Debug for CoreCtx {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CoreCtx")
            .field("workload", &self.trace.name())
            .field("retired", &self.core.retired())
            .finish_non_exhaustive()
    }
}

/// Stage of a staged ([`System::run_to_pause`]) run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
enum RunStage {
    /// The short timed warm-up span before the statistics reset.
    #[default]
    TimedWarmup,
    /// The measured span.
    Measure,
}

/// Progress of a staged run, persisted across pauses (and through
/// snapshots) so a resume continues the exact span the pause interrupted —
/// same retired-count baselines, same starvation-guard cycle.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
struct RunProgress {
    stage: RunStage,
    timed_warmup: u64,
    measure: u64,
    start_retired: Vec<u64>,
    guard: u64,
    measure_start_cycle: u64,
}

impl RunProgress {
    /// Codes the progress (snapshot images), its stage a tag (0 = timed
    /// warm-up, 1 = measure).
    fn image(&mut self, io: &mut impl Io) -> Result<(), ImageError> {
        io.choice(&mut self.stage, &[RunStage::TimedWarmup, RunStage::Measure], "progress stage")?;
        io.u64(&mut self.timed_warmup)?;
        io.u64(&mut self.measure)?;
        seq(io, &mut self.start_retired, Io::u64)?;
        io.u64(&mut self.guard)?;
        io.u64(&mut self.measure_start_cycle)
    }
}

/// Outcome of a pausable run ([`System::run_to_pause`]).
// A transient by-value return: the size gap between `Paused` and `Done`
// never lives on the heap or in collections, so boxing buys nothing.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone, PartialEq)]
pub enum RunOutcome {
    /// The pause cycle was reached first. Capture a [`Snapshot`] and call
    /// [`System::run_to_pause`] again — on this system or on a restored one
    /// — to continue; the completed run is bitwise-identical to one that
    /// never paused.
    Paused,
    /// The run finished within this call.
    Done(RunResult),
}

/// The simulated system.
#[derive(Debug)]
pub struct System {
    config: SystemConfig,
    workload: WorkloadId,
    cores: Vec<CoreCtx>,
    llc: SlicedLlc,
    mcs: Vec<MemoryController>,
    /// Outstanding DRAM reads, keyed by line address.
    inflight: MshrFile,
    /// Reads accepted by the LLC MSHRs but not yet by a DRAM read queue.
    dram_pending: VecDeque<u64>,
    /// LLC write-backs waiting for DRAM write-queue space.
    writeback_pending: VecDeque<u64>,
    /// Calendar ring of pending completion events, indexed by `cycle &
    /// ring_mask`. Every scheduled latency is bounded by the LLC hit
    /// latency (the ring is sized to cover it), so a bounded ring replaces
    /// the binary heap the event queue used to be: O(1) push, O(1) pop of
    /// the current cycle's slot, insertion order preserved per slot —
    /// exactly the heap's `(cycle, seq)` order at a fraction of the cost.
    events: Vec<Vec<Event>>,
    ring_mask: u64,
    /// Total events queued in the ring.
    pending_events: usize,
    // bard-lint: allow(S1) -- activity stamp, compared only within one tick.
    event_seq: u64,
    cycle: u64,
    scratch_completed: Vec<CompletedRead>, // bard-lint: allow(S1) -- scratch, drained per tick
    scratch_writebacks: Vec<u64>,          // bard-lint: allow(S1) -- scratch, drained per tick
    scratch_staged: Vec<CoreRequest>,      // bard-lint: allow(S1) -- scratch, drained per tick
    scratch_retry: Vec<CoreRequest>,       // bard-lint: allow(S1) -- scratch, drained per tick
    scratch_prefetches: Vec<u64>,          // bard-lint: allow(S1) -- scratch, cleared per request
    /// Bit per core not asleep (skip engine; see `tick_inner` for the wake
    /// rule). Cores are capped at 64 by `SystemConfig::validate`.
    // bard-lint: allow(S1) -- wake mask; a capture wakes every core, a restore starts awake.
    awake_mask: u64,
    /// Bit per core whose completion event fired this tick; set by
    /// `process_events`, taken by the core loop.
    // bard-lint: allow(S1) -- wake mask, empty between ticks.
    event_wake_mask: u64,
    /// Bit per sleeping core with a non-empty retry queue: besides its own
    /// events, it waits for its front request to become admissible.
    // bard-lint: allow(S1) -- wake mask; a capture wakes every core, a restore starts awake.
    shared_watch_mask: u64,
    /// MSHR completions that freed a slot (the `mshr.releases` work
    /// counter).
    // bard-lint: allow(S1) -- host-side work count; a restored system counts from the restore.
    perf_mshr_releases: u64,
    /// Back-pressured cores woken while blocked on the MSHR file (the
    /// `mshr.wakes` work counter).
    // bard-lint: allow(S1) -- host-side work count; a restored system counts from the restore.
    perf_mshr_wakes: u64,
    /// Driver progress of a staged run (see [`System::run_to_pause`]);
    /// `None` outside one.
    progress: Option<RunProgress>,
    /// [`telemetry::enabled`] cached at construction, so hot-path telemetry
    /// hooks cost one predictable branch on a plain bool. Not simulation
    /// state: excluded from snapshot images and never compared.
    // bard-lint: allow(S1) -- cached telemetry switch; a restored system reads it afresh.
    telemetry_active: bool,
    /// Host nanoseconds attributed to each model phase while
    /// `telemetry_active` (see [`telemetry::Phase`]); flushed into the
    /// registry at result collection. Not simulation state.
    // bard-lint: allow(S1) -- host-profiling accumulator, explicitly not simulation state.
    phase_nanos: [u64; telemetry::PHASE_COUNT],
    /// Ticks executed so far (the `engine.ticks` work counter); the phase
    /// profiler samples every [`PHASE_SAMPLE_PERIOD`]th. Counting executed
    /// ticks rather than cycles keeps the skip engine's jumps from biasing
    /// the sample.
    // bard-lint: allow(S1) -- host-side work count; a restored system counts from the restore.
    profiled_ticks: u64,
    /// `core_cycle` calls so far, on either engine (the `engine.core_cycles`
    /// work counter).
    // bard-lint: allow(S1) -- host-side work count; a restored system counts from the restore.
    core_cycles: u64,
    /// Cycles the skip engine jumped over (the `engine.cycles_jumped` work
    /// counter).
    // bard-lint: allow(S1) -- host-side work count; a restored system counts from the restore.
    cycles_jumped: u64,
    /// Core cycles the skip engine accounted by settling sleeping cores
    /// instead of running them (the `engine.core_cycles_slept` work
    /// counter).
    // bard-lint: allow(S1) -- host-side work count; a restored system counts from the restore.
    core_cycles_slept: u64,
    /// Cycle the current run stage started at — tracer bookkeeping for the
    /// warm-up/measure spans. Not simulation state (a restore restarts it,
    /// which can shorten the *traced* warm-up span, never the simulation).
    // bard-lint: allow(S1) -- tracer bookkeeping only, see the doc note above.
    stage_start_cycle: u64,
}

impl System {
    /// Builds a system running `workload` (rate mode for singles, the Table
    /// III composition for mixes).
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid.
    #[must_use]
    pub fn new(config: SystemConfig, workload: WorkloadId) -> Self {
        config.validate().expect("invalid SystemConfig");
        let per_core = workload.per_core_workloads(config.cores);
        let cores = per_core
            .iter()
            .enumerate()
            .map(|(i, w)| CoreCtx {
                core: Core::new(config.core),
                block: (BlockReason::None, 0),
                trace: CountingTrace::new(build_trace(&config, *w, i)),
                l1d: SetAssocCache::new(
                    CacheConfig::new(config.l1d_bytes, config.l1d_ways, config.line_bytes),
                    bard_cache::ReplacementKind::Lru,
                ),
                l2: SetAssocCache::new(
                    CacheConfig::new(config.l2_bytes, config.l2_ways, config.line_bytes),
                    bard_cache::ReplacementKind::Lru,
                ),
                l1_prefetcher: (config.l1_prefetch_degree > 0).then(|| {
                    IpStridePrefetcher::new(
                        256,
                        config.line_bytes as u64,
                        config.l1_prefetch_degree,
                    )
                }),
                l2_prefetcher: (config.l2_prefetch_degree > 0).then(|| {
                    NextLinePrefetcher::new(config.line_bytes as u64, config.l2_prefetch_degree)
                }),
                retry: VecDeque::new(),
                finish_cycle: None,
                retired_at_measure_start: 0,
                sleep_since: 0,
                sleep_delta: CoreStats::default(),
            })
            .collect();
        let llc = SlicedLlc::new(
            config.llc_bytes,
            config.llc_ways,
            config.line_bytes,
            config.llc_slices,
            config.llc_replacement,
            config.write_policy,
            &config.dram,
        );
        let telemetry_active = telemetry::enabled();
        let mut mcs: Vec<MemoryController> =
            (0..config.dram.channels).map(|ch| MemoryController::new(&config.dram, ch)).collect();
        if telemetry_active {
            // Pure side log (drain episodes for the tracer); recording
            // changes no scheduling decision or statistic.
            for mc in &mut mcs {
                mc.set_episode_recording(true);
            }
        }
        // Ring must cover the largest schedulable latency (the LLC hit
        // latency; `validate` guarantees l1 < l2 < llc).
        let ring_len = (config.llc_latency + 1).next_power_of_two().max(2) as usize;
        let ring: Vec<Vec<Event>> = (0..ring_len).map(|_| Vec::new()).collect();
        let ring_mask = ring_len as u64 - 1;
        Self {
            inflight: MshrFile::new(config.llc_mshrs),
            awake_mask: all_cores(config.cores),
            event_wake_mask: 0,
            shared_watch_mask: 0,
            perf_mshr_releases: 0,
            perf_mshr_wakes: 0,
            config,
            workload,
            cores,
            llc,
            mcs,
            dram_pending: VecDeque::new(),
            writeback_pending: VecDeque::new(),
            events: ring,
            ring_mask,
            pending_events: 0,
            event_seq: 0,
            cycle: 0,
            scratch_completed: Vec::new(),
            scratch_writebacks: Vec::new(),
            scratch_staged: Vec::new(),
            scratch_retry: Vec::new(),
            scratch_prefetches: Vec::new(),
            progress: None,
            telemetry_active,
            phase_nanos: [0; telemetry::PHASE_COUNT],
            profiled_ticks: 0,
            core_cycles: 0,
            cycles_jumped: 0,
            core_cycles_slept: 0,
            stage_start_cycle: 0,
        }
    }

    /// The tracer track (Perfetto "thread") this system's events render on.
    fn trace_track(&self) -> String {
        format!("{}/{}", self.workload.name(), self.config.label())
    }

    /// Starts a phase-timer sample when telemetry is active; `None` (one
    /// predictable branch, no clock read) otherwise.
    #[inline]
    // bard-lint: allow(D1) -- phase self-profiling wall clock, gated on telemetry and
    // flushed to the registry; the on/off telemetry parity suite pins it result-neutral.
    fn phase_start(&self) -> Option<std::time::Instant> {
        if self.telemetry_active {
            // bard-lint: allow(D1) -- see the fn note: profiling-only clock read.
            Some(std::time::Instant::now())
        } else {
            None
        }
    }

    /// [`System::phase_start`] for a per-tick phase: opens a sample only on
    /// the profiler's sampled ticks (see [`PHASE_SAMPLE_PERIOD`]).
    #[inline]
    // bard-lint: allow(D1) -- sampled variant of the profiling-only `phase_start`.
    fn tick_phase_start(&self) -> Option<std::time::Instant> {
        if self.telemetry_active && self.profiled_ticks.is_multiple_of(PHASE_SAMPLE_PERIOD) {
            self.phase_start()
        } else {
            None
        }
    }

    /// Closes a phase-timer sample opened by [`System::phase_start`].
    #[inline]
    // bard-lint: allow(D1) -- closes the profiling-only sample from `phase_start`.
    fn phase_end(&mut self, started: Option<std::time::Instant>, phase: telemetry::Phase) {
        if let Some(t) = started {
            self.phase_nanos[phase as usize] += t.elapsed().as_nanos() as u64;
        }
    }

    /// The workload being simulated.
    #[must_use]
    pub fn workload(&self) -> WorkloadId {
        self.workload
    }

    /// The system configuration.
    #[must_use]
    pub fn config(&self) -> &SystemConfig {
        &self.config
    }

    /// The shared LLC (for tests and analyses).
    #[must_use]
    pub fn llc(&self) -> &SlicedLlc {
        &self.llc
    }

    /// Current simulated cycle.
    #[must_use]
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    /// Timing-free warm-up: streams `instructions_per_core` instructions from
    /// every core's trace through the cache hierarchy, installing lines and
    /// dirty bits without any DRAM traffic or timing. This stands in for the
    /// paper's 25 M-instruction timed warm-up at a tiny fraction of the cost.
    pub fn functional_warmup(&mut self, instructions_per_core: u64) {
        for ci in 0..self.cores.len() {
            let mut instructions = 0u64;
            while instructions < instructions_per_core {
                let record = self.cores[ci].trace.next_record();
                instructions += record.instructions();
                if let Some(access) = record.access {
                    self.functional_access(ci, access.addr, access.is_store());
                }
            }
        }
        // Warm-up traffic must not pollute the measured statistics.
        for ctx in &mut self.cores {
            ctx.l1d.reset_stats();
            ctx.l2.reset_stats();
        }
        self.llc.reset_stats();
    }

    /// Snapshots the per-core retired counts and computes the starvation
    /// guard for a span of `instructions_per_core` instructions, clearing
    /// stale finish cycles.
    fn begin_span(&mut self, instructions_per_core: u64) -> (Vec<u64>, u64) {
        let start_retired: Vec<u64> = self.cores.iter().map(|c| c.core.retired()).collect();
        for ctx in &mut self.cores {
            ctx.finish_cycle = None;
        }
        let guard = self.cycle.saturating_add(
            instructions_per_core
                .saturating_mul(STARVATION_GUARD_CYCLES_PER_INSTRUCTION)
                .max(10_000),
        );
        (start_retired, guard)
    }

    /// The span driver behind each timed stage of [`System::run_to_pause`]:
    /// ticks until every core has retired its quota relative to
    /// `start_retired` (returning `Some(true)`), the guard cycle is reached
    /// (`Some(false)`), or — checked only after the completion checks, so a
    /// pause never preempts a finishing cycle — the simulated cycle reaches
    /// `pause_at` (`None`). A pause mutates nothing
    /// beyond the ticks already run, so re-entering with the same arguments
    /// (on this system or a snapshot-restored one) continues exactly where
    /// a straight run would have been.
    fn run_span(
        &mut self,
        instructions_per_core: u64,
        start_retired: &[u64],
        guard: u64,
        pause_at: Option<u64>,
    ) -> Option<bool> {
        let skip = self.config.engine == EngineKind::Skip;
        loop {
            if skip {
                self.tick_skipping(guard);
            } else {
                self.tick();
            }
            let now = self.cycle;
            let mut all_done = true;
            for (ci, ctx) in self.cores.iter_mut().enumerate() {
                if ctx.finish_cycle.is_none() {
                    if ctx.core.retired() >= start_retired[ci] + instructions_per_core {
                        ctx.finish_cycle = Some(now);
                    } else {
                        all_done = false;
                    }
                }
            }
            if all_done {
                self.settle_cores();
                self.settle_dram_stats();
                return Some(true);
            }
            if now >= guard {
                self.settle_cores();
                self.settle_dram_stats();
                for ctx in &mut self.cores {
                    ctx.finish_cycle.get_or_insert(now);
                }
                if self.telemetry_active {
                    telemetry::RUN_GUARD_TERMINATIONS.add(1);
                    telemetry::trace_instant(
                        &self.trace_track(),
                        "guard_termination",
                        now,
                        &[("guard_cycle", guard)],
                    );
                }
                return Some(false);
            }
            if pause_at.is_some_and(|p| now >= p) {
                return None;
            }
        }
    }

    /// Resets all statistics (end of warm-up) while keeping cache, tracker and
    /// queue state.
    pub fn reset_stats(&mut self) {
        self.settle_cores();
        for ctx in &mut self.cores {
            ctx.core.reset_stats();
            ctx.l1d.reset_stats();
            ctx.l2.reset_stats();
            ctx.retired_at_measure_start = ctx.core.retired();
        }
        self.llc.reset_stats();
        for mc in &mut self.mcs {
            mc.reset_stats(self.cycle);
        }
    }

    /// Convenience driver: functional warm-up, a short timed warm-up, a
    /// statistics reset, then the measured run. Returns the collected
    /// [`RunResult`].
    pub fn run(&mut self, functional_warmup: u64, timed_warmup: u64, measure: u64) -> RunResult {
        match self.run_to_pause(functional_warmup, timed_warmup, measure, None) {
            RunOutcome::Done(result) => result,
            RunOutcome::Paused => unreachable!("an unpausable run always finishes"),
        }
    }

    /// The pausable variant of [`System::run`]: identical staging, but the
    /// run returns [`RunOutcome::Paused`] once the simulated cycle reaches
    /// `pause_at` (`None` never pauses). A paused system can be
    /// [captured](System::capture), [restored](System::restore) and resumed
    /// by calling this again with the same shape — the eventual
    /// [`RunOutcome::Done`] result is bitwise-identical to an uninterrupted
    /// run's (`StressCase::assert_parity` in the `parity` suite pins this).
    ///
    /// # Panics
    ///
    /// Panics when resuming a paused run with a different
    /// `timed_warmup`/`measure` shape than it was started with.
    pub fn run_to_pause(
        &mut self,
        functional_warmup: u64,
        timed_warmup: u64,
        measure: u64,
        pause_at: Option<u64>,
    ) -> RunOutcome {
        if self.progress.is_none() {
            if functional_warmup > 0 {
                self.functional_warmup(functional_warmup);
                if self.telemetry_active {
                    telemetry::trace_instant(
                        &self.trace_track(),
                        "functional_warmup",
                        self.cycle,
                        &[("instructions_per_core", functional_warmup)],
                    );
                }
            }
            self.stage_start_cycle = self.cycle;
            if timed_warmup > 0 {
                let (start_retired, guard) = self.begin_span(timed_warmup);
                self.progress = Some(RunProgress {
                    stage: RunStage::TimedWarmup,
                    timed_warmup,
                    measure,
                    start_retired,
                    guard,
                    measure_start_cycle: 0,
                });
            } else {
                self.enter_measure(timed_warmup, measure);
            }
        }
        {
            let p = self.progress.as_ref().expect("progress was just installed");
            assert_eq!(
                (p.timed_warmup, p.measure),
                (timed_warmup, measure),
                "a resumed run must use the shape it was paused with"
            );
        }
        loop {
            let p = self.progress.clone().expect("a staged run has progress");
            match p.stage {
                RunStage::TimedWarmup => {
                    if self.run_span(p.timed_warmup, &p.start_retired, p.guard, pause_at).is_none()
                    {
                        return RunOutcome::Paused;
                    }
                    self.enter_measure(timed_warmup, measure);
                }
                RunStage::Measure => {
                    let Some(completed) =
                        self.run_span(p.measure, &p.start_retired, p.guard, pause_at)
                    else {
                        return RunOutcome::Paused;
                    };
                    self.progress = None;
                    return RunOutcome::Done(self.collect_results(
                        measure,
                        p.measure_start_cycle,
                        completed,
                    ));
                }
            }
        }
    }

    /// Transitions a staged run into the measure stage, mirroring the
    /// original driver exactly: record the measure start cycle, reset the
    /// statistics, then snapshot the (freshly zeroed) retired counts and
    /// arm the guard.
    fn enter_measure(&mut self, timed_warmup: u64, measure: u64) {
        let measure_start_cycle = self.cycle;
        if self.telemetry_active && timed_warmup > 0 {
            telemetry::trace_span(
                &self.trace_track(),
                "timed_warmup",
                self.stage_start_cycle,
                measure_start_cycle,
                &[("instructions_per_core", timed_warmup)],
            );
        }
        self.stage_start_cycle = measure_start_cycle;
        self.reset_stats();
        let (start_retired, guard) = self.begin_span(measure);
        self.progress = Some(RunProgress {
            stage: RunStage::Measure,
            timed_warmup,
            measure,
            start_retired,
            guard,
            measure_start_cycle,
        });
    }

    fn collect_results(
        &mut self,
        instructions_per_core: u64,
        measure_start_cycle: u64,
        completed: bool,
    ) -> RunResult {
        let per_core_ipc: Vec<f64> = self
            .cores
            .iter()
            .map(|ctx| {
                let cycles = ctx
                    .finish_cycle
                    .unwrap_or(self.cycle)
                    .saturating_sub(measure_start_cycle)
                    .max(1);
                instructions_per_core as f64 / cycles as f64
            })
            .collect();
        let mut l1d = CacheStats::default();
        let mut l2 = CacheStats::default();
        for ctx in &self.cores {
            l1d.merge(ctx.l1d.stats());
            l2.merge(ctx.l2.stats());
        }
        let mut dram = SubChannelStats::default();
        let mut subchannels = 0;
        let mut energy = EnergyBreakdown::default();
        for mc in &self.mcs {
            dram.merge(&mc.stats());
            subchannels += mc.subchannel_count();
            energy.merge(&mc.energy());
        }
        if self.telemetry_active || telemetry::perf_line_enabled() {
            let set_scans = self.llc.set_scans()
                + self.cores.iter().map(|c| c.l1d.set_scans() + c.l2.set_scans()).sum::<u64>();
            let settlements: u64 = self.mcs.iter().map(MemoryController::settle_events).sum();
            if self.telemetry_active {
                self.flush_run_telemetry(
                    instructions_per_core,
                    measure_start_cycle,
                    completed,
                    set_scans,
                    settlements,
                    dram.drain_episodes,
                );
            }
            if telemetry::perf_line_enabled() {
                eprintln!(
                    "[bard-perf] workload={} set_scans={} mshr_releases={} mshr_wakes={} \
                     stat_settlements={}",
                    self.workload.name(),
                    set_scans,
                    self.perf_mshr_releases,
                    self.perf_mshr_wakes,
                    settlements,
                );
            }
        }
        RunResult {
            workload: self.workload,
            config_label: self.config.label(),
            cores: self.cores.len(),
            instructions_per_core,
            completed,
            per_core_ipc,
            total_cycles: self.cycle.saturating_sub(measure_start_cycle),
            l1d_stats: l1d,
            l2_stats: l2,
            llc_stats: self.llc.cache_stats(),
            policy_stats: self.llc.policy_stats(),
            dram_stats: dram,
            dram_subchannels: subchannels,
            energy,
        }
    }

    /// Flushes this run's locally-accumulated telemetry — perf counters,
    /// phase nanoseconds, the measure span and the recorded drain episodes —
    /// into the process-wide registry and tracer. Called once per collected
    /// run, only while `telemetry_active`; it reads simulation state but
    /// mutates none of it.
    fn flush_run_telemetry(
        &mut self,
        instructions_per_core: u64,
        measure_start_cycle: u64,
        completed: bool,
        set_scans: u64,
        settlements: u64,
        drain_episodes: u64,
    ) {
        telemetry::RUNS_COLLECTED.add(1);
        telemetry::RUN_INSTRUCTIONS
            .add(instructions_per_core.saturating_mul(self.cores.len() as u64));
        telemetry::RUN_CYCLES.add(self.cycle.saturating_sub(measure_start_cycle));
        telemetry::PROBE_SET_SCANS.add(set_scans);
        telemetry::MSHR_RELEASES.add(self.perf_mshr_releases);
        telemetry::MSHR_WAKES.add(self.perf_mshr_wakes);
        telemetry::ENGINE_TICKS.add(self.profiled_ticks);
        telemetry::ENGINE_CORE_CYCLES.add(self.core_cycles);
        telemetry::ENGINE_CYCLES_JUMPED.add(self.cycles_jumped);
        telemetry::ENGINE_CORE_CYCLES_SLEPT.add(self.core_cycles_slept);
        telemetry::DRAM_STAT_SETTLEMENTS.add(settlements);
        telemetry::DRAM_AWAKE_TICKS.add(self.mcs.iter().map(MemoryController::awake_ticks).sum());
        telemetry::DRAM_SCHEDULING_PASSES
            .add(self.mcs.iter().map(MemoryController::scheduling_passes).sum());
        telemetry::DRAM_DRAIN_EPISODES.add(drain_episodes);
        let mut phase_nanos = std::mem::take(&mut self.phase_nanos);
        for phase in [
            telemetry::Phase::Dispatch,
            telemetry::Phase::Probe,
            telemetry::Phase::DramScheduling,
            telemetry::Phase::CompletionDrain,
        ] {
            phase_nanos[phase as usize] *= PHASE_SAMPLE_PERIOD;
        }
        telemetry::flush_phase_nanos(&phase_nanos);
        let track = self.trace_track();
        telemetry::trace_span(
            &track,
            "measure",
            measure_start_cycle,
            self.cycle,
            &[
                ("instructions_per_core", instructions_per_core),
                ("completed", u64::from(completed)),
            ],
        );
        for (mci, mc) in self.mcs.iter_mut().enumerate() {
            for (sci, log) in mc.take_episode_logs().into_iter().enumerate() {
                if log.is_empty() {
                    continue;
                }
                let sub_track = format!("{track}/ch{mci}.sc{sci}");
                for episode in log {
                    telemetry::DRAIN_EPISODE_CYCLES.observe(episode.duration());
                    telemetry::trace_span(
                        &sub_track,
                        "write_drain",
                        episode.start_cycle,
                        episode.end_cycle,
                        &[
                            ("writes", episode.writes),
                            ("unique_banks", u64::from(episode.unique_banks)),
                        ],
                    );
                }
            }
        }
    }

    // ------------------------------------------------------------------
    // Snapshots
    // ------------------------------------------------------------------

    /// Captures the full simulation state as a restorable [`Snapshot`].
    ///
    /// Capturing settles the lazily-accounted statistics first — a
    /// behaviourally neutral operation: a conservatively woken core re-runs
    /// its recorded stall cycle verbatim and falls back asleep — so resuming
    /// a restored image is bitwise-identical to never having stopped.
    pub fn capture(&mut self) -> Snapshot {
        self.capture_image(None)
    }

    /// Captures a **warm** image, to be taken right after a functional
    /// warm-up of `functional_warmup` instructions per core. Warm images
    /// fork: any configuration with the same
    /// [`warm_digest`](snapshot::warm_digest) — same workload, seed,
    /// warm-up length and cache geometry, but freely varying write policy,
    /// DRAM parameters or buffer sizes — restores one via
    /// [`System::restore_warm`].
    pub fn capture_warm(&mut self, functional_warmup: u64) -> Snapshot {
        self.capture_image(Some(functional_warmup))
    }

    /// The body of [`System::capture`] and, given the functional warm-up
    /// length, [`System::capture_warm`]: settle the lazily-accounted
    /// statistics, then encode the warm part and, for a full image, the rest.
    fn capture_image(&mut self, warm: Option<u64>) -> Snapshot {
        if self.telemetry_active {
            telemetry::trace_instant(
                &self.trace_track(),
                "snapshot_capture",
                self.cycle,
                &[("warm", u64::from(warm.is_some()))],
            );
        }
        self.settle_cores();
        self.settle_dram_stats();
        let payload = bard_image::encode(|io| {
            self.warm_image(io)?;
            if warm.is_none() {
                self.image(io)?;
            }
            Ok(())
        });
        Snapshot::new(
            warm.is_some(),
            snapshot::full_digest(&self.config, self.workload),
            warm.map_or(0, |fw| snapshot::warm_digest(&self.config, self.workload, fw)),
            payload,
        )
    }

    /// Rebuilds a system from a full snapshot captured under a
    /// configuration with the same [`full_digest`](snapshot::full_digest).
    ///
    /// # Errors
    ///
    /// [`SnapshotError::Incompatible`] when the image is warm, the digests
    /// disagree (the image belongs to a semantically different run) or the
    /// payload holds another geometry, or a decode error when the payload is
    /// malformed.
    pub fn restore(
        config: SystemConfig,
        workload: WorkloadId,
        snap: &Snapshot,
    ) -> Result<Self, SnapshotError> {
        Self::restore_image(config, workload, snap, None)
    }

    /// Rebuilds a **warm** system from a warm snapshot, which holds only the
    /// warm-relevant state (trace positions and cache contents). Running
    /// `run(0, timed_warmup, measure)` afterwards is bitwise-identical to a
    /// cold `run(functional_warmup, timed_warmup, measure)`.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::Incompatible`] when the image is not warm, the warm
    /// digests disagree or the payload holds another geometry, or a decode
    /// error when the payload is malformed.
    pub fn restore_warm(
        config: SystemConfig,
        workload: WorkloadId,
        functional_warmup: u64,
        snap: &Snapshot,
    ) -> Result<Self, SnapshotError> {
        Self::restore_image(config, workload, snap, Some(functional_warmup))
    }

    /// The body of [`System::restore`] and, given the functional warm-up
    /// length, [`System::restore_warm`]: check the matching digest, decode
    /// into a freshly built system, then rebuild the DRAM's derived state
    /// and fast-forward the trace streams. The wake bookkeeping keeps its
    /// fully-awake start, exactly where the capture-time settle left the
    /// live system.
    fn restore_image(
        config: SystemConfig,
        workload: WorkloadId,
        snap: &Snapshot,
        warm: Option<u64>,
    ) -> Result<Self, SnapshotError> {
        let (kind, found, expected) = match warm {
            None if snap.is_warm() => {
                return Err(SnapshotError::Incompatible {
                    reason: "a warm image holds only the warm state (restore it warm)".into(),
                });
            }
            None => ("full", snap.digest_full(), snapshot::full_digest(&config, workload)),
            Some(_) if !snap.is_warm() => {
                return Err(SnapshotError::Incompatible {
                    reason: "not a warm image (captured mid-run, not post-warm-up)".into(),
                });
            }
            Some(fw) => ("warm", snap.digest_warm(), snapshot::warm_digest(&config, workload, fw)),
        };
        if found != expected {
            return Err(SnapshotError::Incompatible {
                reason: format!(
                    "{kind} digest {found:016x} does not match this configuration's \
                     {expected:016x}"
                ),
            });
        }
        let mut system = Self::new(config, workload);
        system.decode(snap.payload(), warm.is_some())?;
        for mc in &mut system.mcs {
            mc.rebuild_derived();
        }
        for ctx in &mut system.cores {
            ctx.trace.catch_up();
        }
        if system.telemetry_active {
            telemetry::trace_instant(
                &system.trace_track(),
                "snapshot_restore",
                system.cycle,
                &[("warm", u64::from(warm.is_some()))],
            );
        }
        Ok(system)
    }

    /// Decodes `payload` into this freshly built system: the warm part and,
    /// unless `warm`, the rest. Trace positions are only recorded here
    /// ([`CountingTrace::catch_up`] applies them), so a corrupt position
    /// never drives a stream.
    pub(crate) fn decode(&mut self, payload: &[u8], warm: bool) -> Result<(), SnapshotError> {
        bard_image::decode(payload, |io| {
            self.warm_image(io)?;
            if !warm {
                self.image(io)?;
            }
            Ok(())
        })
        .map_err(SnapshotError::from)
    }

    /// Codes the warm part of the state (snapshot images), which a
    /// functional warm-up builds and a warm image holds: per core its trace
    /// position, L1D and L2, then the LLC slices. Everything else is at its
    /// freshly built value right after the warm-up (which is timing-free and
    /// policy-free), so the warm part leads the payload, and a warm restore
    /// decodes it into a system whose DRAM, policy and buffers may differ
    /// from the capturing one.
    fn warm_image(&mut self, io: &mut impl Io) -> Result<(), ImageError> {
        each(io, &mut self.cores, "cores", |io, ctx| {
            io.u64(&mut ctx.trace.consumed)?;
            ctx.l1d.image(io)?;
            ctx.l2.image(io)
        })?;
        self.llc.warm_image(io)
    }

    /// Codes the rest of the state (full snapshot images): the cycle, per
    /// core its pipeline, L1 prefetcher, retry queue and run bookkeeping,
    /// then the LLC's tracker and counters, the DRAM controllers, the
    /// MSHRs, the buffered DRAM reads and write-backs, the event ring and
    /// the staged-run progress. The derived state is not coded: the DRAM
    /// controllers rebuild theirs after a decode.
    fn image(&mut self, io: &mut impl Io) -> Result<(), ImageError> {
        io.u64(&mut self.cycle)?;
        each(io, &mut self.cores, "cores", |io, ctx| {
            ctx.core.image(io)?;
            let mut present = ctx.l1_prefetcher.is_some();
            io.bool(&mut present)?;
            match (&mut ctx.l1_prefetcher, present) {
                (Some(prefetcher), true) => prefetcher.image(io)?,
                (None, false) => {}
                _ => return Err(incompatible("L1 prefetcher presence mismatch")),
            }
            deque(io, &mut ctx.retry, |io, r| r.image(io))?;
            opt(io, &mut ctx.finish_cycle, Io::u64)?;
            io.u64(&mut ctx.retired_at_measure_start)
        })?;
        self.llc.image(io)?;
        each(io, &mut self.mcs, "DRAM channels", |io, mc| mc.image(io))?;
        self.inflight.image(io)?;
        deque(io, &mut self.dram_pending, Io::u64)?;
        deque(io, &mut self.writeback_pending, Io::u64)?;
        // The event ring as a list of (cycle delta from `cycle`, store, core,
        // token): slots in due-cycle order, events within a slot in
        // insertion order, which is the exact firing order.
        let mut events = Vec::with_capacity(self.pending_events);
        for delta in 0..=self.ring_mask {
            let slot = (self.cycle.wrapping_add(delta) & self.ring_mask) as usize;
            for event in &self.events[slot] {
                events.push(match *event {
                    Event::CompleteLoad { core, token } => (delta, false, core, token),
                    Event::CompleteStore { core, token } => (delta, true, core, token),
                });
            }
        }
        seq(io, &mut events, |io, (delta, store, core, token)| {
            io.u64(delta)?;
            io.bool(store)?;
            io.usize(core)?;
            io.u64(token)
        })?;
        if io.decoding() {
            for slot in &mut self.events {
                slot.clear();
            }
            for &(delta, store, core, token) in &events {
                if delta > self.ring_mask || core >= self.cores.len() {
                    return Err(incompatible("scheduled event outside the ring or core range"));
                }
                let event = if store {
                    Event::CompleteStore { core, token }
                } else {
                    Event::CompleteLoad { core, token }
                };
                self.events[(self.cycle.wrapping_add(delta) & self.ring_mask) as usize].push(event);
            }
            self.pending_events = events.len();
        }
        opt(io, &mut self.progress, |io, p| p.image(io))?;
        match &self.progress {
            Some(p) if p.start_retired.len() != self.cores.len() => {
                Err(incompatible("progress core count mismatch"))
            }
            _ => Ok(()),
        }
    }

    // ------------------------------------------------------------------
    // Per-cycle simulation
    // ------------------------------------------------------------------

    /// Advances the system by one CPU cycle. Returns `true` if anything
    /// observable happened: a memory controller changed state, a completion
    /// was delivered, a pending enqueue succeeded, an event fired or was
    /// scheduled, or any core dispatched or retired an instruction. A
    /// `false` tick is a stall fixed point: with all queues, caches, bank
    /// timing and core state frozen, every subsequent tick repeats it
    /// exactly until the next event horizon (see [`System::tick_skipping`]).
    fn tick(&mut self) -> bool {
        self.tick_inner(false)
    }

    /// One cycle of the shared model. `allow_sleep` enables the skip
    /// engine's per-core sleeping; the reference step engine always runs
    /// every core.
    fn tick_inner(&mut self, allow_sleep: bool) -> bool {
        let now = self.cycle;
        let event_seq_before = self.event_seq;
        let mut active = false;
        self.profiled_ticks += 1;
        let timer = self.tick_phase_start();
        for mc in &mut self.mcs {
            active |= mc.tick(now);
        }
        self.phase_end(timer, telemetry::Phase::DramScheduling);
        let timer = self.tick_phase_start();
        let mut done = std::mem::take(&mut self.scratch_completed);
        done.clear();
        for mc in &mut self.mcs {
            mc.drain_completed(now, &mut done);
        }
        // A *release* — a read completion, or a buffered write-back or read
        // entering a DRAM queue — is the only way a back-pressure gate
        // opens (see `refusal`), and every release happens here, before the
        // core loop.
        let mut release = !done.is_empty();
        for completed in done.drain(..) {
            self.handle_dram_response(completed, now);
        }
        self.scratch_completed = done;

        release |= self.flush_writebacks(now);
        release |= self.flush_dram_pending(now);
        active |= release;
        active |= self.process_events(now);
        self.phase_end(timer, telemetry::Phase::CompletionDrain);

        if !allow_sleep {
            for ci in 0..self.cores.len() {
                active |= self.core_cycle(ci, now);
            }
        } else {
            // A sleeping core's next cycle can differ from its recorded
            // stall cycle in only two ways: its own completion event fires,
            // or its front retry request becomes admissible. A refusal
            // touches no state, so the stall cycle repeats whichever gate
            // refuses. So the loop visits the awake cores, the cores whose
            // event fired this tick and, on a tick with a release, the
            // back-pressure watchers; a watcher with no event sleeps on
            // while `refusal` still refuses its front request. The check
            // runs at the core's turn in the loop, on the state a
            // step-engine cycle there would see, so this holds for any
            // visit order.
            let events = std::mem::take(&mut self.event_wake_mask);
            let mut visit = self.awake_mask | events;
            if release {
                visit |= self.shared_watch_mask;
            }
            while visit != 0 {
                let ci = visit.trailing_zeros() as usize;
                let bit = 1u64 << ci;
                visit &= visit - 1;
                if self.awake_mask & bit == 0 {
                    let refused =
                        if events & bit == 0 { self.refusal(self.cores[ci].block.1) } else { None };
                    let block = &mut self.cores[ci].block;
                    // `mshr.wakes` counts every end of a wait on the MSHR
                    // file: the core wakes, or sleeps on behind another gate.
                    if self.shared_watch_mask & bit != 0
                        && block.0 == BlockReason::Mshr
                        && refused != Some(BlockReason::Mshr)
                    {
                        self.perf_mshr_wakes += 1;
                    }
                    if let Some(reason) = refused {
                        block.0 = reason;
                        continue;
                    }
                    self.awake_mask |= bit;
                    self.shared_watch_mask &= !bit;
                    self.core_cycles_slept += self.cores[ci].settle(now);
                }
                let stats_before = *self.cores[ci].core.stats();
                let progress = self.core_cycle(ci, now);
                active |= progress;
                if !progress {
                    // A no-progress cycle is a fixed point: every following
                    // cycle repeats its statistics delta until the core is
                    // woken (see above).
                    let delta = self.cores[ci].core.stats().minus(&stats_before);
                    let ctx = &mut self.cores[ci];
                    ctx.sleep_since = now + 1;
                    ctx.sleep_delta = delta;
                    self.awake_mask &= !bit;
                    if !ctx.retry.is_empty() {
                        self.shared_watch_mask |= bit;
                    }
                }
            }
        }
        active |= self.event_seq != event_seq_before;
        self.cycle = now + 1;
        active
    }

    /// The back-pressure gate that refuses a request for `line` right now,
    /// if any. `process_core_request` admits through it, and the skip
    /// engine re-checks a sleeping core's front request with it. A refusal
    /// touches no state, and only a release can lift one: the buffers
    /// shrink and the MSHR file frees slots only through releases, and the
    /// file cannot start tracking a refused line in between, because a new
    /// entry needs both a free slot and an admitted demand request.
    fn refusal(&self, line: u64) -> Option<BlockReason> {
        if self.writeback_pending.len() >= self.config.writeback_buffer_entries {
            Some(BlockReason::WritebackBuffer)
        } else if self.inflight.is_full() && !self.inflight.contains(line) {
            Some(BlockReason::Mshr)
        } else if self.dram_pending.len() >= DRAM_PENDING_BOUND {
            Some(BlockReason::DramPending)
        } else {
            None
        }
    }

    /// Settles every sub-channel's lazily-accounted per-cycle DRAM
    /// statistics (total/busy/write-mode cycles) up to the current cycle.
    /// Must run before DRAM statistics or energy are read; state mutations
    /// settle themselves, so this only closes the trailing quiet span.
    fn settle_dram_stats(&mut self) {
        let timer = self.phase_start();
        let now = self.cycle;
        for mc in &mut self.mcs {
            mc.settle_stats(now);
        }
        self.phase_end(timer, telemetry::Phase::StatSettlement);
    }

    /// Settles every sleeping core's lazily-accounted stall statistics up to
    /// the current cycle and wakes it. Must run before statistics are read
    /// or reset.
    fn settle_cores(&mut self) {
        let timer = self.phase_start();
        let now = self.cycle;
        for (ci, ctx) in self.cores.iter_mut().enumerate() {
            if self.awake_mask & (1u64 << ci) == 0 {
                self.core_cycles_slept += ctx.settle(now);
            }
        }
        self.awake_mask = all_cores(self.cores.len());
        self.shared_watch_mask = 0;
        self.phase_end(timer, telemetry::Phase::StatSettlement);
    }

    /// The skip engine's step: run one real tick (with per-core sleeping);
    /// if it turned out to be a global stall fixed point, compute the event
    /// horizon — the earliest cycle at which the event ring, a DRAM
    /// sub-channel (command issue or refresh; dead rows close themselves) or a
    /// read-completion delivery can act, capped at `limit` — and jump
    /// straight there. Exact by construction: cores, queues and caches only
    /// change through those triggers, so the skipped ticks are provably
    /// identical no-ops. Sleeping cores (a quiet tick leaves every core
    /// asleep) absorb the jump through their lazy stall accounting, and the
    /// DRAM per-cycle statistics through their span-lazy settlement.
    fn tick_skipping(&mut self, limit: u64) {
        if self.tick_inner(true) {
            return;
        }
        let mut horizon = limit;
        horizon = horizon.min(self.next_ring_event_cycle());
        for mc in &self.mcs {
            horizon = horizon.min(mc.next_event_cycle());
        }
        let now = self.cycle;
        if horizon <= now {
            return;
        }
        // A quiet tick that leaves write-backs buffered had its front one
        // refused by a full write queue. The step engine retries it on every
        // skipped cycle and counts each refusal, so count them here too.
        if let Some(&addr) = self.writeback_pending.front() {
            let channel = self.channel_of(addr);
            self.mcs[channel].note_refused_writes(addr, horizon - now);
        }
        // No per-span statistics work: the sub-channels' lazy settlement
        // absorbs the jump the same way it absorbs quiet stepped spans.
        self.cycles_jumped += horizon - now;
        self.cycle = horizon;
    }

    /// Runs one core for one cycle. Returns `true` if the core made forward
    /// progress: it dispatched or retired at least one instruction, or its
    /// retry queue shrank (a previously-refused request entered the
    /// hierarchy). A `false` cycle only bumped stall counters and is
    /// repeatable verbatim.
    fn core_cycle(&mut self, ci: usize, now: u64) -> bool {
        self.core_cycles += 1;
        let mut staged = std::mem::take(&mut self.scratch_staged);
        staged.clear();
        let timer = self.tick_phase_start();
        let before = {
            let ctx = &mut self.cores[ci];
            let before = (ctx.core.dispatched(), ctx.core.retired(), ctx.retry.len());
            let can_accept = ctx.retry.is_empty();
            ctx.core.cycle(&mut ctx.trace, &mut |req| {
                if can_accept && staged.len() < MAX_STAGED_PER_CYCLE {
                    staged.push(req);
                    true
                } else {
                    false
                }
            });
            before
        };
        self.phase_end(timer, telemetry::Phase::Dispatch);
        let mut pending = std::mem::take(&mut self.scratch_retry);
        pending.clear();
        pending.extend(self.cores[ci].retry.drain(..));
        pending.append(&mut staged);
        self.scratch_staged = staged;
        let timer = self.tick_phase_start();
        let mut blocked = false;
        for req in pending.drain(..) {
            // `process_core_request` records the refusing gate and line in
            // `ctx.block`; after the first refusal no further request is
            // attempted, so the field describes the *front* request — the
            // one a sleeping core is re-checked against.
            if blocked || !self.process_core_request(ci, req, now) {
                blocked = true;
                self.cores[ci].retry.push_back(req);
            }
        }
        self.phase_end(timer, telemetry::Phase::Probe);
        self.scratch_retry = pending;
        let ctx = &self.cores[ci];
        before != (ctx.core.dispatched(), ctx.core.retired(), ctx.retry.len())
    }

    fn process_core_request(&mut self, ci: usize, req: CoreRequest, now: u64) -> bool {
        // Conservative back-pressure before touching any state, so a rejected
        // request can be retried without double-counting.
        let line = self.line_of(req.addr);
        if let Some(reason) = self.refusal(line) {
            self.cores[ci].block = (reason, line);
            return false;
        }

        let is_store = req.kind == MemKind::Store;
        let sig = signature(req.ip);
        self.scratch_prefetches.clear();

        // L1D
        let l1_hit = self.cores[ci].l1d.touch(req.addr, sig, is_store);
        if let Some(pf) = &mut self.cores[ci].l1_prefetcher {
            pf.on_access(req.addr, req.ip, l1_hit, &mut self.scratch_prefetches);
        }
        if l1_hit {
            self.schedule(now + self.config.l1_latency, completion_event(ci, &req));
            self.issue_prefetches(ci);
            return true;
        }

        // L2. The L1 and L2 fills below skip the probe: this request just
        // missed there, and nothing in between touched those caches.
        let l2_hit = self.cores[ci].l2.touch(req.addr, sig, false);
        if let Some(pf) = &mut self.cores[ci].l2_prefetcher {
            pf.on_access(req.addr, req.ip, l2_hit, &mut self.scratch_prefetches);
        }
        if l2_hit {
            self.install_l1(ci, line, is_store, sig);
            self.schedule(now + self.config.l2_latency, completion_event(ci, &req));
            self.issue_prefetches(ci);
            return true;
        }

        // LLC
        let llc_hit = {
            let mut wbs = std::mem::take(&mut self.scratch_writebacks);
            wbs.clear();
            let hit = self.llc.read_access(req.addr, sig, &mut wbs);
            self.queue_writebacks(&mut wbs);
            self.scratch_writebacks = wbs;
            hit
        };
        if llc_hit {
            self.install_l2(ci, line, sig);
            self.install_l1(ci, line, is_store, sig);
            self.schedule(now + self.config.llc_latency, completion_event(ci, &req));
            self.issue_prefetches(ci);
            return true;
        }

        // DRAM
        let waiter = encode_waiter(ci, is_store, req.token);
        match self.inflight.allocate(line, waiter, is_store, false) {
            Ok(true) => self.dram_pending.push_back(line),
            Ok(false) => {}
            Err(_) => {
                // Waiter-list overflow on an existing entry: only that
                // line's completion clears it. `refusal` passes the line
                // (the file tracks it), so a sleeping core blocked here
                // wakes on every release.
                self.cores[ci].block = (BlockReason::Mshr, line);
                return false;
            }
        }
        self.issue_prefetches(ci);
        true
    }

    /// Installs a line into a core's L1D unless it is already there (then a
    /// dirty fill only marks it dirty).
    fn fill_l1(&mut self, ci: usize, line: u64, dirty: bool, sig: u16) {
        if self.cores[ci].l1d.probe(line).is_some() {
            if dirty {
                self.cores[ci].l1d.writeback_access(line);
            }
            return;
        }
        self.install_l1(ci, line, dirty, sig);
    }

    /// Installs a line the L1D is known not to hold, cascading any dirty
    /// eviction into the L2 (and from there into the LLC).
    fn install_l1(&mut self, ci: usize, line: u64, dirty: bool, sig: u16) {
        let result = self.cores[ci].l1d.fill(line, dirty, sig);
        if let Some(evicted) = result.evicted {
            if evicted.dirty {
                self.writeback_into_l2(ci, evicted.addr, sig);
            }
        }
    }

    /// Installs a line into a core's L2 unless it is already there.
    fn fill_l2(&mut self, ci: usize, line: u64, sig: u16) {
        if self.cores[ci].l2.probe(line).is_none() {
            self.install_l2(ci, line, sig);
        }
    }

    /// Installs a line the L2 is known not to hold, cascading any dirty
    /// eviction into the LLC.
    fn install_l2(&mut self, ci: usize, line: u64, sig: u16) {
        let result = self.cores[ci].l2.fill(line, false, sig);
        if let Some(evicted) = result.evicted {
            if evicted.dirty {
                self.writeback_into_llc(evicted.addr);
            }
        }
    }

    fn writeback_into_l2(&mut self, ci: usize, line: u64, sig: u16) {
        if let Some(evicted) = self.cores[ci].l2.write_back(line, sig) {
            if evicted.dirty {
                self.writeback_into_llc(evicted.addr);
            }
        }
    }

    fn writeback_into_llc(&mut self, line: u64) {
        let mut wbs = std::mem::take(&mut self.scratch_writebacks);
        wbs.clear();
        {
            let llc = &mut self.llc;
            let mcs = &self.mcs;
            let mut oracle = |addr: u64| wrq_has_pending(mcs, addr);
            llc.writeback_from_inner(line, &mut wbs, &mut oracle);
        }
        self.queue_writebacks(&mut wbs);
        self.scratch_writebacks = wbs;
    }

    /// Issues the candidates this request's prefetchers left in
    /// `scratch_prefetches`: the L1 prefetcher's, then the L2 prefetcher's.
    fn issue_prefetches(&mut self, ci: usize) {
        let addrs = std::mem::take(&mut self.scratch_prefetches);
        for &addr in &addrs {
            let line = self.line_of(addr);
            if self.cores[ci].l2.probe(line).is_some() {
                continue;
            }
            if self.llc.probe(line) {
                // Bring it into the L2 only; the LLC already has it.
                let result = self.cores[ci].l2.fill_prefetch(line, 0);
                if let Some(evicted) = result.evicted {
                    if evicted.dirty {
                        self.writeback_into_llc(evicted.addr);
                    }
                }
                continue;
            }
            // Needs DRAM: drop the prefetch if resources are scarce.
            if self.inflight.len() + PREFETCH_INFLIGHT_HEADROOM >= self.inflight.capacity()
                || self.dram_pending.len() >= DRAM_PENDING_BOUND
            {
                continue;
            }
            let waiter = encode_prefetch_waiter(ci);
            if let Ok(true) = self.inflight.allocate(line, waiter, false, true) {
                self.dram_pending.push_back(line)
            }
        }
        self.scratch_prefetches = addrs;
    }

    fn handle_dram_response(&mut self, completed: CompletedRead, now: u64) {
        let line = completed.addr;
        let Some((waiters, _any_store, prefetch_only)) = self.inflight.complete(line) else {
            return;
        };
        self.perf_mshr_releases += 1;
        // Fill the LLC through the writeback policy.
        {
            let mut wbs = std::mem::take(&mut self.scratch_writebacks);
            wbs.clear();
            {
                let llc = &mut self.llc;
                let mcs = &self.mcs;
                let mut oracle = |addr: u64| wrq_has_pending(mcs, addr);
                llc.fill(line, 0, false, &mut wbs, &mut oracle);
            }
            self.queue_writebacks(&mut wbs);
            self.scratch_writebacks = wbs;
        }
        if prefetch_only {
            if let Some(&w) = waiters.first() {
                let ci = decode_waiter_core(w);
                let result = self.cores[ci].l2.fill_prefetch(line, 0);
                if let Some(evicted) = result.evicted {
                    if evicted.dirty {
                        self.writeback_into_llc(evicted.addr);
                    }
                }
            }
            return;
        }
        for w in waiters {
            if is_prefetch_waiter(w) {
                continue;
            }
            let ci = decode_waiter_core(w);
            let (is_store, token) = decode_waiter(w);
            self.fill_l2(ci, line, 0);
            self.fill_l1(ci, line, is_store, 0);
            let event = if is_store {
                Event::CompleteStore { core: ci, token }
            } else {
                Event::CompleteLoad { core: ci, token }
            };
            self.schedule(now + self.config.l1_latency, event);
        }
    }

    /// One warm-up access, one set visit per cache operation. Results depend
    /// on each cache seeing its operations in the order a touch-then-fill
    /// walk makes them: L1 the access (its fill may run ahead of the L2 and
    /// LLC operations, which never touch L1); L2 the line, then L1's dirty
    /// victim; the LLC the line, L2's dirty victim, then the dirty victim of
    /// that write-back.
    fn functional_access(&mut self, ci: usize, addr: u64, is_write: bool) {
        let line = self.line_of(addr);
        let ctx = &mut self.cores[ci];
        let (l1_hit, l1_victim) = ctx.l1d.access(addr, 0, is_write);
        if l1_hit {
            return;
        }
        let (l2_hit, l2_victim) = ctx.l2.access(line, 0, false);
        if !l2_hit {
            self.llc.functional_access(line, false);
            if let Some(victim) = l2_victim.filter(|v| v.dirty) {
                self.llc.functional_access(victim.addr, true);
            }
        }
        if let Some(victim) = l1_victim.filter(|v| v.dirty) {
            let l2_evicted = self.cores[ci].l2.write_back(victim.addr, 0);
            if let Some(evicted) = l2_evicted.filter(|v| v.dirty) {
                self.llc.functional_access(evicted.addr, true);
            }
        }
    }

    /// Moves the writebacks into the pending queue, leaving the (reusable)
    /// scratch buffer empty with its capacity intact.
    fn queue_writebacks(&mut self, writebacks: &mut Vec<u64>) {
        for addr in writebacks.drain(..) {
            self.writeback_pending.push_back(addr);
        }
    }

    /// Returns `true` if at least one buffered write-back entered a DRAM
    /// write queue.
    fn flush_writebacks(&mut self, now: u64) -> bool {
        let mut any = false;
        let mut attempts = self.writeback_pending.len();
        while attempts > 0 {
            attempts -= 1;
            let Some(addr) = self.writeback_pending.pop_front() else {
                break;
            };
            let channel = self.channel_of(addr);
            let req = MemRequest::write(addr, addr, 0);
            if self.mcs[channel].try_enqueue(req, now).is_err() {
                self.writeback_pending.push_front(addr);
                break;
            }
            any = true;
        }
        any
    }

    /// Returns `true` if at least one pending read entered a DRAM read
    /// queue.
    fn flush_dram_pending(&mut self, now: u64) -> bool {
        let mut any = false;
        let mut attempts = self.dram_pending.len();
        while attempts > 0 {
            attempts -= 1;
            let Some(line) = self.dram_pending.pop_front() else {
                break;
            };
            let channel = self.channel_of(line);
            let req = MemRequest::read(line, line, 0);
            if self.mcs[channel].try_enqueue(req, now).is_err() {
                self.dram_pending.push_front(line);
                break;
            }
            any = true;
        }
        any
    }

    /// Returns `true` if at least one event fired. The skip engine never
    /// jumps past a scheduled event (the ring's earliest cycle joins the
    /// horizon), so draining the current cycle's slot is exhaustive.
    fn process_events(&mut self, now: u64) -> bool {
        if self.pending_events == 0 {
            return false;
        }
        let slot = (now & self.ring_mask) as usize;
        if self.events[slot].is_empty() {
            return false;
        }
        let mut queue = std::mem::take(&mut self.events[slot]);
        self.pending_events -= queue.len();
        for event in queue.drain(..) {
            match event {
                Event::CompleteLoad { core, token } => {
                    self.event_wake_mask |= 1u64 << core;
                    self.cores[core].core.complete_load(token);
                }
                Event::CompleteStore { core, token } => {
                    self.event_wake_mask |= 1u64 << core;
                    self.cores[core].core.complete_store(token);
                }
            }
        }
        self.events[slot] = queue;
        true
    }

    /// Earliest cycle holding a scheduled event, or `u64::MAX` when the
    /// ring is empty. At most one ring-length scan, only on quiet ticks.
    fn next_ring_event_cycle(&self) -> u64 {
        if self.pending_events == 0 {
            return u64::MAX;
        }
        // `self.cycle` is the next cycle to execute (the caller's tick
        // already advanced it), so the scan starts there: an event due on
        // that very cycle pins the horizon and prevents any jump.
        let now = self.cycle;
        (0..=self.ring_mask)
            .map(|d| now + d)
            .find(|c| !self.events[(c & self.ring_mask) as usize].is_empty())
            .expect("pending events must live within one ring revolution")
    }

    fn schedule(&mut self, cycle: u64, event: Event) {
        debug_assert!(
            cycle > self.cycle && cycle - self.cycle <= self.ring_mask,
            "event latency must fit the ring"
        );
        self.event_seq += 1;
        self.pending_events += 1;
        self.events[(cycle & self.ring_mask) as usize].push(event);
    }

    fn line_of(&self, addr: u64) -> u64 {
        addr & !(self.config.line_bytes as u64 - 1)
    }

    fn channel_of(&self, addr: u64) -> usize {
        self.mcs[0].mapping().channel_of(addr)
    }
}

/// Builds one core's trace source: straight from the workload generator, or
/// — when the configuration carries a [`crate::TraceConfig`] — through the
/// BTF trace archive (replaying an existing recording, capturing one first
/// when the archive has none). Replay is bitwise-equivalent to live
/// generation, so the two paths produce identical simulations.
///
/// The replay carries an **exact live fallback**: a run that consumes more
/// records than the archive holds (rate/mix runs keep feeding fast cores
/// until the slowest core finishes, and a guard-bounded run can consume up
/// to [`STARVATION_GUARD_CYCLES_PER_INSTRUCTION`] cycles' worth per
/// instruction — no static budget covers every case) continues from the
/// fast-forwarded live generator instead of
/// panicking or wrapping. The recorded prefix *is* the generator prefix, so
/// results stay bitwise-identical; only wall clock is lost. The archive
/// budget ([`crate::TraceConfig::budget_for`]) is sized so the common
/// shapes never fall back.
///
/// # Panics
///
/// Panics if the archived trace cannot be read, fails its checksum, or does
/// not match the requested `(workload, core, seed)` key.
fn build_trace(config: &SystemConfig, workload: WorkloadId, core: usize) -> Box<dyn TraceSource> {
    let Some(tc) = &config.trace else {
        return workload.build(core, config.seed);
    };
    let store = bard_trace::TraceStore::new(&tc.dir);
    let replay = store
        .obtain(workload.name(), core as u32, config.seed, tc.instructions_per_core, || {
            workload.build(core, config.seed)
        })
        .unwrap_or_else(|e| {
            panic!(
                "trace archive {}: cannot obtain '{}' for core {core}: {e}",
                tc.dir.display(),
                workload.name()
            )
        });
    let seed = config.seed;
    Box::new(replay.with_live_fallback(move || workload.build(core, seed)))
}

/// An image that disagrees with the decoding system.
fn incompatible(reason: &str) -> ImageError {
    ImageError::Incompatible { reason: reason.into() }
}

/// The wake-mask bits of `cores` cores (1..=64): all of them awake.
fn all_cores(cores: usize) -> u64 {
    u64::MAX >> (64 - cores)
}

fn completion_event(core: usize, req: &CoreRequest) -> Event {
    if req.kind == MemKind::Store {
        Event::CompleteStore { core, token: req.token }
    } else {
        Event::CompleteLoad { core, token: req.token }
    }
}

fn wrq_has_pending(mcs: &[MemoryController], addr: u64) -> bool {
    let (channel, bank) = mcs[0].mapping().channel_and_bank(addr);
    mcs[channel].has_pending_write_to_bank(bank)
}

fn signature(ip: u64) -> u16 {
    (ip ^ (ip >> 13) ^ (ip >> 27)) as u16
}

const WAITER_PREFETCH_BIT: u64 = 1 << 62;
const WAITER_STORE_BIT: u64 = 1 << 61;

fn encode_waiter(core: usize, is_store: bool, token: u64) -> u64 {
    let mut w = ((core as u64) << 48) | (token & 0xFFFF_FFFF_FFFF);
    if is_store {
        w |= WAITER_STORE_BIT;
    }
    w
}

fn encode_prefetch_waiter(core: usize) -> u64 {
    ((core as u64) << 48) | WAITER_PREFETCH_BIT
}

fn is_prefetch_waiter(w: u64) -> bool {
    w & WAITER_PREFETCH_BIT != 0
}

fn decode_waiter_core(w: u64) -> usize {
    ((w >> 48) & 0xFF) as usize
}

fn decode_waiter(w: u64) -> (bool, u64) {
    (w & WAITER_STORE_BIT != 0, w & 0xFFFF_FFFF_FFFF)
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::policy::WritePolicyKind;
    use bard_dram::subchannel::BusMode;

    /// Whether each part of `system`'s state that a full image codes with a
    /// branch of its own holds something, by name. Bank state and a core's
    /// deferred record are private to their crates; their derived `Debug`
    /// text shows them.
    pub(crate) fn filled_parts(system: &System) -> Vec<(&'static str, bool)> {
        let subs: Vec<_> = system
            .mcs
            .iter()
            .flat_map(|mc| (0..mc.subchannel_count()).map(move |i| mc.subchannel(i)))
            .collect();
        let cores = &system.cores;
        vec![
            ("DRAM read queues", subs.iter().any(|s| s.read_queue_len() > 0)),
            ("DRAM write queues", subs.iter().any(|s| s.write_queue_len() > 0)),
            ("buffered completions", subs.iter().any(|s| s.earliest_completion() < u64::MAX)),
            ("open rows", subs.iter().any(|s| format!("{s:?}").contains("open_row: Some("))),
            ("write drains", subs.iter().any(|s| s.mode() == BusMode::WriteDrain)),
            ("events", system.pending_events > 0),
            ("retry queues", cores.iter().any(|c| !c.retry.is_empty())),
            (
                "deferred records",
                cores.iter().any(|c| format!("{:?}", c.core).contains("deferred: Some(")),
            ),
            ("finished cores", cores.iter().any(|c| c.finish_cycle.is_some())),
            ("stride tables", cores.iter().any(|c| c.l1_prefetcher.is_some())),
            ("MSHR entries", !system.inflight.is_empty()),
            ("pending DRAM reads", !system.dram_pending.is_empty()),
            ("pending write-backs", !system.writeback_pending.is_empty()),
            (
                "measure progress",
                matches!(&system.progress, Some(p) if p.stage == RunStage::Measure),
            ),
        ]
    }

    fn quick_run(policy: WritePolicyKind, workload: WorkloadId) -> RunResult {
        let cfg = SystemConfig::small_test().with_policy(policy);
        let mut system = System::new(cfg, workload);
        system.run(200_000, 5_000, 30_000)
    }

    #[test]
    fn waiter_encoding_round_trips() {
        let w = encode_waiter(5, true, 123_456);
        assert_eq!(decode_waiter_core(w), 5);
        assert_eq!(decode_waiter(w), (true, 123_456));
        assert!(!is_prefetch_waiter(w));
        assert!(is_prefetch_waiter(encode_prefetch_waiter(2)));
    }

    #[test]
    fn baseline_simulation_makes_forward_progress() {
        let result = quick_run(WritePolicyKind::Baseline, WorkloadId::Lbm);
        assert!(result.completed, "the run should finish within the cycle guard");
        assert!(result.ipc_sum() > 0.0);
        assert!(result.llc_stats.demand_accesses() > 0);
        assert!(result.dram_stats.reads > 0, "lbm must reach DRAM");
        assert!(result.dram_stats.writes > 0, "lbm must write back to DRAM");
    }

    #[test]
    fn bard_h_produces_policy_activity() {
        let result = quick_run(WritePolicyKind::BardH, WorkloadId::Lbm);
        assert!(result.completed);
        let p = result.policy_stats;
        assert!(
            p.overrides + p.cleanses > 0,
            "BARD-H should override or cleanse at least once: {p:?}"
        );
    }

    #[test]
    fn write_intensive_workload_triggers_drain_episodes() {
        let result = quick_run(WritePolicyKind::Baseline, WorkloadId::Copy);
        assert!(result.dram_stats.drain_episodes > 0, "STREAM copy must drain writes");
        assert!(result.write_blp() > 1.0);
        assert!(result.write_time_fraction() > 0.0);
    }

    #[test]
    fn mixes_run_different_workloads_per_core() {
        let cfg = SystemConfig::small_test();
        let system = System::new(cfg, WorkloadId::Mix0);
        assert_eq!(system.cores.len(), 2);
        assert_eq!(system.cores[0].trace.name(), "cam4");
        assert_eq!(system.cores[1].trace.name(), "omnetpp");
    }

    #[test]
    fn record_then_replay_reproduces_live_results_bitwise() {
        use crate::config::TraceConfig;

        let dir = std::env::temp_dir().join(format!("bard-system-trace-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let run = |cfg: SystemConfig| {
            let mut system = System::new(cfg, WorkloadId::Mix0);
            system.run(150_000, 2_000, 10_000)
        };
        let live_cfg = SystemConfig::small_test();
        let budget = 2 * (150_000 + 2_000 + 10_000) + 65_536;
        let traced_cfg = live_cfg.clone().with_trace(Some(TraceConfig::new(&dir, budget)));

        let live = run(live_cfg);
        let recorded = run(traced_cfg.clone()); // first pass captures the BTF files
        let replayed = run(traced_cfg); // second pass replays them
        assert!(dir.read_dir().unwrap().count() >= 2, "one trace file per core");

        for other in [&recorded, &replayed] {
            assert_eq!(live.total_cycles, other.total_cycles);
            assert_eq!(live.per_core_ipc, other.per_core_ipc);
            assert_eq!(live.dram_stats.reads, other.dram_stats.reads);
            assert_eq!(live.dram_stats.writes, other.dram_stats.writes);
            assert_eq!(live.llc_stats.loads, other.llc_stats.loads);
            assert_eq!(live.llc_stats.dirty_evictions, other.llc_stats.dirty_evictions);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The acceptance contract of the skip engine: bitwise-identical
    /// results to the reference step engine, across read-heavy,
    /// write-drain-heavy and mixed workloads and across policies.
    #[test]
    fn skip_engine_is_bitwise_identical_to_step_engine() {
        use crate::config::EngineKind;
        for (policy, workload) in [
            (WritePolicyKind::Baseline, WorkloadId::Lbm),
            (WritePolicyKind::Baseline, WorkloadId::Copy),
            (WritePolicyKind::BardH, WorkloadId::Mix0),
        ] {
            let run = |engine: EngineKind| {
                let cfg = SystemConfig::small_test().with_policy(policy).with_engine(engine);
                let mut system = System::new(cfg, workload);
                let result = system.run(150_000, 2_000, 10_000);
                (result, system.cycle())
            };
            let (step, step_cycle) = run(EngineKind::Step);
            let (skip, skip_cycle) = run(EngineKind::Skip);
            assert_eq!(step_cycle, skip_cycle, "{workload:?}: final cycle diverged");
            assert_eq!(step, skip, "{workload:?}/{policy:?}: results diverged");
        }
    }

    /// The skip engine must also jump over the tail of a run that never
    /// completes (all cores permanently stalled would hit the cycle guard),
    /// landing on exactly the guard cycle the step engine reaches.
    #[test]
    fn skip_engine_respects_the_cycle_guard() {
        use crate::config::EngineKind;
        let run = |engine: EngineKind| {
            // Starve the hierarchy (4 MSHRs, 2 write-back buffer slots for 8
            // cores of lbm) so the run cannot retire its target within the
            // cycles-per-instruction safety bound: the guard exit — and
            // with it the skip engine's horizon-capped jump plus the settle
            // of still-sleeping cores — is genuinely exercised.
            let mut cfg = SystemConfig::small_test().with_engine(engine);
            cfg.cores = 8;
            cfg.llc_mshrs = 4;
            cfg.writeback_buffer_entries = 2;
            let mut system = System::new(cfg, WorkloadId::Lbm);
            let completed = system.run(30_000, 0, 500).completed;
            let retired: Vec<u64> = system.cores.iter().map(|c| c.core.retired()).collect();
            let stalls: Vec<u64> = system
                .cores
                .iter()
                .map(|c| {
                    let s = c.core.stats();
                    s.cycles
                        + s.head_blocked_cycles
                        + s.rob_full_stalls
                        + s.memory_backpressure_stalls
                })
                .collect();
            (completed, system.cycle(), retired, stalls)
        };
        let step = run(EngineKind::Step);
        let skip = run(EngineKind::Skip);
        assert!(!step.0, "the run must hit the cycle guard for this test to bite");
        assert_eq!(
            step.1,
            500 * STARVATION_GUARD_CYCLES_PER_INSTRUCTION,
            "the guard must stop the run at exactly measure * the guard bound"
        );
        assert_eq!(step, skip, "guard-terminated runs must be engine-invariant");
    }

    /// The starvation guard's value is part of the blessed artifact
    /// contract: guard-terminated runs stop at `measure * guard` cycles, so
    /// changing it changes those artifacts. This assertion (mirrored by a
    /// CI step) forces any change to go through the re-bless procedure
    /// documented in `docs/RESULTS.md`.
    #[test]
    fn starvation_guard_value_is_blessed() {
        assert_eq!(
            STARVATION_GUARD_CYCLES_PER_INSTRUCTION, 250,
            "re-bless the repro goldens and update docs/RESULTS.md before changing the guard"
        );
    }

    /// Pause → capture → serialise → parse → restore → resume must be
    /// bitwise-identical to the uninterrupted run, including the final
    /// cycle and the exact statistics.
    #[test]
    fn snapshot_restore_resumes_bitwise_identically() {
        let cfg = SystemConfig::small_test().with_policy(WritePolicyKind::BardH);
        let workload = WorkloadId::Mix0;
        let (fw, tw, measure) = (150_000, 2_000, 10_000);

        let mut straight = System::new(cfg.clone(), workload);
        let expected = straight.run(fw, tw, measure);
        let expected_cycle = straight.cycle();

        let mut paused = System::new(cfg.clone(), workload);
        let pause_at = expected_cycle / 2;
        let outcome = paused.run_to_pause(fw, tw, measure, Some(pause_at));
        assert_eq!(outcome, RunOutcome::Paused, "the run must actually pause mid-way");
        let bytes = paused.capture().to_bytes();
        let snap = Snapshot::from_bytes(&bytes).expect("the image must parse");
        let mut restored = System::restore(cfg, workload, &snap).expect("the image must restore");
        assert_eq!(restored.cycle(), paused.cycle());
        match restored.run_to_pause(fw, tw, measure, None) {
            RunOutcome::Done(result) => {
                assert_eq!(result, expected, "resumed results must match the straight run");
            }
            RunOutcome::Paused => panic!("an unpausable resume must finish"),
        }
        assert_eq!(restored.cycle(), expected_cycle, "final cycle must match");
    }

    /// One warm image forked into a *different* configuration (another
    /// write policy) must reproduce that configuration's cold-run results
    /// exactly.
    #[test]
    fn warm_fork_reproduces_cold_results_across_policies() {
        let workload = WorkloadId::Lbm;
        let (fw, tw, measure) = (150_000, 2_000, 10_000);
        let base = SystemConfig::small_test();
        let mut warmed = System::new(base.clone(), workload);
        warmed.functional_warmup(fw);
        let snap = warmed.capture_warm(fw);
        assert!(snap.is_warm());

        for policy in [WritePolicyKind::Baseline, WritePolicyKind::BardH] {
            let cfg = base.clone().with_policy(policy);
            let mut cold = System::new(cfg.clone(), workload);
            let expected = cold.run(fw, tw, measure);
            let mut forked = System::restore_warm(cfg, workload, fw, &snap)
                .expect("the warm image must fork into this policy");
            let got = forked.run(0, tw, measure);
            assert_eq!(got, expected, "{policy:?}: warm fork diverged from the cold run");
        }

        // A different seed is warm-incompatible and must be refused.
        let other = base.with_seed(7);
        assert!(matches!(
            System::restore_warm(other, workload, fw, &snap),
            Err(SnapshotError::Incompatible { .. })
        ));
    }

    #[test]
    fn functional_warmup_populates_the_llc() {
        let cfg = SystemConfig::small_test();
        let mut system = System::new(cfg, WorkloadId::Lbm);
        system.functional_warmup(100_000);
        assert!(system.llc().dirty_lines() > 0, "warm-up should leave dirty lines in the LLC");
        assert_eq!(system.llc().cache_stats().demand_accesses(), 0, "warm-up stats are reset");
    }
}

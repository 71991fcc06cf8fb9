//! Unified observability: metrics registry, simulated-time tracer, live grid
//! progress, and model-phase self-profiling.
//!
//! Everything in this module obeys one contract: **telemetry never perturbs
//! the simulation**. Metrics, trace events and phase timings are pure side
//! logs — enabling or disabling them changes no [`RunResult`](crate::RunResult)
//! bit, no artifact byte, and no snapshot image (the
//! differential-stress suite pins this). The module has four coordinated
//! pieces:
//!
//! 1. **Metrics registry** ([`metrics`], [`histograms`]) — a *static*
//!    catalog of typed counters, gauges and histograms. Static (rather than
//!    runtime) registration keeps the catalog order deterministic and lets a
//!    golden test pin the schema. Hot paths stay zero-cost when telemetry is
//!    disabled: the simulator keeps counting into its existing per-`System`
//!    fields and flushes them into the registry once per run, behind a
//!    single cached branch. Cold-path counters (snapshot images, decode
//!    cache) count unconditionally; they were unconditional before the
//!    registry existed and downstream consumers (the `[bard-perf]` snapshot
//!    line, `summary.json`'s warm-fork rollup) rely on that.
//! 2. **Simulated-time tracer** ([`trace_span`], [`trace_events_json`]) —
//!    events keyed by *simulated cycles*, not host time, rendered as Chrome
//!    trace-event JSON (load it in Perfetto or `chrome://tracing`). Because
//!    timestamps are simulated and emission sorts deterministically, the
//!    trace file is bitwise-reproducible across `--jobs=N`.
//! 3. **Grid progress** ([`Progress`]) — throttled per-job percent/ETA lines
//!    on stderr, driven by the runner from instruction budgets. Safe under
//!    scoped threads (atomics + one mutex around the emit throttle).
//! 4. **Phase self-profiler** ([`Phase`], [`flush_phase_nanos`]) — host
//!    nanoseconds attributed to the five model phases, replacing the
//!    hand-run profiling of earlier performance PRs. `perfbench --trace 1`
//!    reports the breakdown as `phase.*_share`.
//!
//! ## Enabling
//!
//! Telemetry is off by default. `BARD_TELEMETRY=1` turns it on, together
//! with the one-line `[bard-perf]` stderr summaries. Tests toggle in-process
//! with [`set_enabled`] instead of racing on the environment.

use std::path::Path;
use std::sync::atomic::{AtomicU64, AtomicU8, AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::{Duration, Instant};

use crate::report::json::Json;
use crate::report::schema::SCHEMA_VERSION;

// ---------------------------------------------------------------------------
// Enablement
// ---------------------------------------------------------------------------

/// Tri-state cells: 0 = off, 1 = on, 2 = not yet read from the environment.
const STATE_UNSET: u8 = 2;

static ENABLED: AtomicU8 = AtomicU8::new(STATE_UNSET);
static PERF_LINE: AtomicU8 = AtomicU8::new(STATE_UNSET);

fn env_truthy(key: &str) -> bool {
    std::env::var(key).is_ok_and(|v| !v.is_empty() && v != "0")
}

/// True when telemetry (metrics flushing, tracing, phase timing) is active.
///
/// Initialised lazily from `BARD_TELEMETRY`; after the first read this is a
/// single relaxed atomic load.
/// `System` additionally caches the value at construction so its hot paths
/// branch on a plain bool.
#[must_use]
pub fn enabled() -> bool {
    match ENABLED.load(Ordering::Relaxed) {
        0 => false,
        1 => true,
        _ => {
            let on = env_truthy("BARD_TELEMETRY");
            ENABLED.store(u8::from(on), Ordering::Relaxed);
            on
        }
    }
}

/// Forces telemetry on or off for this process, overriding the environment.
/// Intended for tests and `perfbench`, which must compare both states
/// in-process without racing on `std::env`.
pub fn set_enabled(on: bool) {
    ENABLED.store(u8::from(on), Ordering::Relaxed);
}

/// True when the one-line `[bard-perf]` stderr summaries should be printed.
/// Initialised lazily from `BARD_TELEMETRY`, like [`enabled`], but switched
/// separately: `perfbench` keeps the registry on and the lines off.
#[must_use]
pub fn perf_line_enabled() -> bool {
    match PERF_LINE.load(Ordering::Relaxed) {
        0 => false,
        1 => true,
        _ => {
            let on = env_truthy("BARD_TELEMETRY");
            PERF_LINE.store(u8::from(on), Ordering::Relaxed);
            on
        }
    }
}

/// Forces the `[bard-perf]` stderr summaries on or off (test hook; see
/// [`set_enabled`]).
pub fn set_perf_line_enabled(on: bool) {
    PERF_LINE.store(u8::from(on), Ordering::Relaxed);
}

// ---------------------------------------------------------------------------
// Counters and the metric catalog
// ---------------------------------------------------------------------------

/// A monotonically increasing `u64` cell (relaxed atomics). Cheap enough to
/// bump unconditionally on cold paths; hot paths accumulate locally and
/// [`Counter::add`] once per run instead.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// A zeroed counter (const, so counters can be statics).
    #[must_use]
    pub const fn new() -> Self {
        Self(AtomicU64::new(0))
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    #[must_use]
    pub fn value(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }

    fn reset(&self) {
        self.0.store(0, Ordering::Relaxed);
    }
}

/// Set scans performed by cache probes (flushed per run from `System`).
pub static PROBE_SET_SCANS: Counter = Counter::new();
/// Probes answered by the line filter without a set scan. The caches no
/// longer keep presence filters, so nothing adds to this: it stays
/// registered, always 0, to keep the `metrics.json` schema at v3.
pub static PROBE_FILTER_SKIPS: Counter = Counter::new();
/// Probes whose line-filter hit still required a set scan. Always 0, like
/// [`PROBE_FILTER_SKIPS`].
pub static PROBE_FILTER_PASSES: Counter = Counter::new();
/// MSHR entries released.
pub static MSHR_RELEASES: Counter = Counter::new();
/// Back-pressured cores woken while blocked on the MSHR file.
pub static MSHR_WAKES: Counter = Counter::new();
/// Ticks the engine executed (jumped cycles are not ticks).
pub static ENGINE_TICKS: Counter = Counter::new();
/// Single-core cycles the engine ran (`core_cycle` calls, on either engine).
pub static ENGINE_CORE_CYCLES: Counter = Counter::new();
/// Cycles the skip engine jumped over without a tick (0 on the step engine).
pub static ENGINE_CYCLES_JUMPED: Counter = Counter::new();
/// Single-core cycles the skip engine accounted for sleeping cores without
/// running them (0 on the step engine).
pub static ENGINE_CORE_CYCLES_SLEPT: Counter = Counter::new();
/// Non-empty span-wise DRAM statistic settlements.
pub static DRAM_STAT_SETTLEMENTS: Counter = Counter::new();
/// Sub-channel ticks at or after their wake cycle, which ran the scheduler.
pub static DRAM_AWAKE_TICKS: Counter = Counter::new();
/// Sub-channel queue scans for the next command (about one per command).
pub static DRAM_SCHEDULING_PASSES: Counter = Counter::new();
/// Completed write-drain episodes (summed over sub-channels).
pub static DRAM_DRAIN_EPISODES: Counter = Counter::new();
/// Measured runs whose results were collected.
pub static RUNS_COLLECTED: Counter = Counter::new();
/// Runs terminated by the starvation guard instead of retiring their budget.
pub static RUN_GUARD_TERMINATIONS: Counter = Counter::new();
/// Instructions retired inside measurement windows (all cores, all runs).
pub static RUN_INSTRUCTIONS: Counter = Counter::new();
/// Simulated cycles spent inside measurement windows.
pub static RUN_CYCLES: Counter = Counter::new();
/// Host nanoseconds in the dispatch phase (core issue + request staging).
pub static PHASE_DISPATCH_NANOS: Counter = Counter::new();
/// Host nanoseconds in the probe phase (cache/MSHR lookups).
pub static PHASE_PROBE_NANOS: Counter = Counter::new();
/// Host nanoseconds in DRAM command scheduling.
pub static PHASE_DRAM_SCHEDULING_NANOS: Counter = Counter::new();
/// Host nanoseconds draining completions back to the cores.
pub static PHASE_COMPLETION_DRAIN_NANOS: Counter = Counter::new();
/// Host nanoseconds settling span-wise statistics.
pub static PHASE_STAT_SETTLEMENT_NANOS: Counter = Counter::new();
/// Grid jobs completed by the runner.
pub static RUNNER_JOBS_COMPLETED: Counter = Counter::new();
/// Warm snapshot images captured and published (counted unconditionally).
pub static SNAPSHOT_IMAGES_WRITTEN: Counter = Counter::new();
/// Warm snapshot images restored instead of re-simulated (unconditional).
pub static SNAPSHOT_IMAGES_REUSED: Counter = Counter::new();
/// Functional warm-up instructions skipped via snapshot reuse
/// (unconditional).
pub static SNAPSHOT_WARMUP_INSTRUCTIONS_SKIPPED: Counter = Counter::new();
/// Trace events dropped because the in-memory sink hit its cap.
pub static TRACE_EVENTS_DROPPED: Counter = Counter::new();

/// What a metric's value means over time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetricKind {
    /// Monotonically increasing.
    Counter,
    /// Point-in-time level.
    Gauge,
}

impl MetricKind {
    /// Lower-case name used in `metrics.json` / `metrics.csv`.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            MetricKind::Counter => "counter",
            MetricKind::Gauge => "gauge",
        }
    }
}

enum MetricSource {
    /// A registry-owned cell.
    Cell(&'static Counter),
    /// A probe into a crate below `bard` in the dependency graph (the leaf
    /// crate owns the cell; the registry pulls, because it cannot be pushed
    /// to from below).
    Probe(fn() -> u64),
}

/// One registered metric: a stable name, a kind, units, help text and a
/// value source. The catalog ([`metrics`]) is a static array so its order —
/// and therefore every emitted artifact — is deterministic.
pub struct Metric {
    /// Stable dotted name (pinned by a golden test).
    pub name: &'static str,
    /// Counter or gauge.
    pub kind: MetricKind,
    /// Unit label (`"cycles"`, `"nanoseconds"`, ...).
    pub units: &'static str,
    /// One-line description.
    pub help: &'static str,
    source: MetricSource,
}

impl Metric {
    /// The metric's current value.
    #[must_use]
    pub fn value(&self) -> u64 {
        match self.source {
            MetricSource::Cell(cell) => cell.value(),
            MetricSource::Probe(f) => f(),
        }
    }
}

impl std::fmt::Debug for Metric {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Metric")
            .field("name", &self.name)
            .field("kind", &self.kind)
            .field("units", &self.units)
            .finish_non_exhaustive()
    }
}

const fn counter(
    name: &'static str,
    units: &'static str,
    help: &'static str,
    cell: &'static Counter,
) -> Metric {
    Metric { name, kind: MetricKind::Counter, units, help, source: MetricSource::Cell(cell) }
}

const fn probe_metric(
    name: &'static str,
    kind: MetricKind,
    units: &'static str,
    help: &'static str,
    f: fn() -> u64,
) -> Metric {
    Metric { name, kind, units, help, source: MetricSource::Probe(f) }
}

fn trace_decode_hits() -> u64 {
    bard_trace::decode_cache_counters().hits
}
fn trace_decode_misses() -> u64 {
    bard_trace::decode_cache_counters().misses
}
fn trace_decode_captures() -> u64 {
    bard_trace::decode_cache_counters().captures
}
fn trace_decode_entries() -> u64 {
    bard_trace::decode_cache_counters().entries
}
fn trace_decode_bytes() -> u64 {
    bard_trace::decode_cache_counters().bytes
}

/// The full metric catalog, in emission order.
static METRICS: [Metric; 32] = [
    counter("probe.set_scans", "scans", "Cache set scans performed by probes", &PROBE_SET_SCANS),
    counter(
        "probe.filter_skips",
        "probes",
        "Probes answered by the line filter without a set scan",
        &PROBE_FILTER_SKIPS,
    ),
    counter(
        "probe.filter_passes",
        "probes",
        "Probes whose line-filter hit still scanned the set",
        &PROBE_FILTER_PASSES,
    ),
    counter("mshr.releases", "events", "MSHR entries released", &MSHR_RELEASES),
    counter(
        "mshr.wakes",
        "events",
        "Back-pressured cores woken while blocked on the MSHR file",
        &MSHR_WAKES,
    ),
    counter("engine.ticks", "ticks", "Ticks the engine executed", &ENGINE_TICKS),
    counter(
        "engine.core_cycles",
        "cycles",
        "Single-core cycles the engine ran",
        &ENGINE_CORE_CYCLES,
    ),
    counter(
        "engine.cycles_jumped",
        "cycles",
        "Cycles the skip engine jumped over without a tick",
        &ENGINE_CYCLES_JUMPED,
    ),
    counter(
        "engine.core_cycles_slept",
        "cycles",
        "Single-core cycles accounted for sleeping cores without running them",
        &ENGINE_CORE_CYCLES_SLEPT,
    ),
    counter(
        "dram.stat_settlements",
        "events",
        "Non-empty span-wise DRAM statistic settlements",
        &DRAM_STAT_SETTLEMENTS,
    ),
    counter(
        "dram.awake_ticks",
        "ticks",
        "Sub-channel ticks at or after their wake cycle, which ran the scheduler",
        &DRAM_AWAKE_TICKS,
    ),
    counter(
        "dram.scheduling_passes",
        "scans",
        "Sub-channel queue scans for the next command",
        &DRAM_SCHEDULING_PASSES,
    ),
    counter(
        "dram.drain_episodes",
        "episodes",
        "Completed write-drain episodes across sub-channels",
        &DRAM_DRAIN_EPISODES,
    ),
    counter("run.runs_collected", "runs", "Measured runs collected", &RUNS_COLLECTED),
    counter(
        "run.guard_terminations",
        "runs",
        "Runs terminated by the starvation guard",
        &RUN_GUARD_TERMINATIONS,
    ),
    counter(
        "run.instructions",
        "instructions",
        "Instructions retired inside measurement windows",
        &RUN_INSTRUCTIONS,
    ),
    counter("run.cycles", "cycles", "Simulated cycles inside measurement windows", &RUN_CYCLES),
    counter(
        "phase.dispatch_nanos",
        "nanoseconds",
        "Host time in core issue and request staging",
        &PHASE_DISPATCH_NANOS,
    ),
    counter(
        "phase.probe_nanos",
        "nanoseconds",
        "Host time in cache/MSHR probes",
        &PHASE_PROBE_NANOS,
    ),
    counter(
        "phase.dram_scheduling_nanos",
        "nanoseconds",
        "Host time in DRAM command scheduling",
        &PHASE_DRAM_SCHEDULING_NANOS,
    ),
    counter(
        "phase.completion_drain_nanos",
        "nanoseconds",
        "Host time draining completions to cores",
        &PHASE_COMPLETION_DRAIN_NANOS,
    ),
    counter(
        "phase.stat_settlement_nanos",
        "nanoseconds",
        "Host time settling span-wise statistics",
        &PHASE_STAT_SETTLEMENT_NANOS,
    ),
    counter("runner.jobs_completed", "jobs", "Grid jobs completed", &RUNNER_JOBS_COMPLETED),
    counter(
        "snapshot.images_written",
        "images",
        "Warm snapshot images captured and published",
        &SNAPSHOT_IMAGES_WRITTEN,
    ),
    counter(
        "snapshot.images_reused",
        "images",
        "Warm snapshot images restored instead of re-simulated",
        &SNAPSHOT_IMAGES_REUSED,
    ),
    counter(
        "snapshot.warmup_instructions_skipped",
        "instructions",
        "Functional warm-up instructions skipped via snapshot reuse",
        &SNAPSHOT_WARMUP_INSTRUCTIONS_SKIPPED,
    ),
    probe_metric(
        "trace.decode_hits",
        MetricKind::Counter,
        "opens",
        "Trace opens served from the decode cache",
        trace_decode_hits,
    ),
    probe_metric(
        "trace.decode_misses",
        MetricKind::Counter,
        "opens",
        "Trace opens that decoded the file from disk",
        trace_decode_misses,
    ),
    probe_metric(
        "trace.decode_captures",
        MetricKind::Counter,
        "captures",
        "Fresh trace captures published to the store",
        trace_decode_captures,
    ),
    probe_metric(
        "trace.decode_entries",
        MetricKind::Gauge,
        "entries",
        "Distinct trace paths currently cached",
        trace_decode_entries,
    ),
    probe_metric(
        "trace.decode_bytes",
        MetricKind::Gauge,
        "bytes",
        "Bytes the decode cache holds: encoded payloads and checkpoint indexes",
        trace_decode_bytes,
    ),
    counter(
        "trace.events_dropped",
        "events",
        "Trace events dropped at the sink cap",
        &TRACE_EVENTS_DROPPED,
    ),
];

/// The metric catalog, in emission order.
#[must_use]
pub fn metrics() -> &'static [Metric] {
    &METRICS
}

/// Every metric name, in catalog order (pinned by tests).
#[must_use]
pub fn metric_names() -> Vec<&'static str> {
    METRICS.iter().map(|m| m.name).collect()
}

// ---------------------------------------------------------------------------
// Histograms
// ---------------------------------------------------------------------------

/// Bucket count of every [`Histogram`] (power-of-two bucket boundaries).
pub const HISTOGRAM_BUCKETS: usize = 32;

/// A fixed-bucket power-of-two histogram: bucket `0` holds the value `0`,
/// bucket `i` holds values in `[2^(i-1), 2^i - 1]`, and the last bucket is
/// unbounded. Fixed buckets keep `observe` allocation-free and the emitted
/// schema static.
#[derive(Debug)]
pub struct Histogram {
    /// Stable dotted name.
    pub name: &'static str,
    /// Unit label of observed values.
    pub units: &'static str,
    /// One-line description.
    pub help: &'static str,
    count: AtomicU64,
    sum: AtomicU64,
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
}

impl Histogram {
    const fn new(name: &'static str, units: &'static str, help: &'static str) -> Self {
        #[allow(clippy::declare_interior_mutable_const)]
        const ZERO: AtomicU64 = AtomicU64::new(0);
        Self {
            name,
            units,
            help,
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            buckets: [ZERO; HISTOGRAM_BUCKETS],
        }
    }

    /// Records one observation.
    pub fn observe(&self, value: u64) {
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
        self.buckets[bucket_index(value)].fetch_add(1, Ordering::Relaxed);
    }

    /// A point-in-time copy of the histogram's state.
    #[must_use]
    pub fn snapshot(&self) -> HistogramSnapshot {
        let mut buckets = [0u64; HISTOGRAM_BUCKETS];
        for (out, bucket) in buckets.iter_mut().zip(&self.buckets) {
            *out = bucket.load(Ordering::Relaxed);
        }
        HistogramSnapshot {
            count: self.count.load(Ordering::Relaxed),
            sum: self.sum.load(Ordering::Relaxed),
            buckets,
        }
    }

    fn reset(&self) {
        self.count.store(0, Ordering::Relaxed);
        self.sum.store(0, Ordering::Relaxed);
        for bucket in &self.buckets {
            bucket.store(0, Ordering::Relaxed);
        }
    }
}

/// A copied-out histogram state (see [`Histogram::snapshot`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Total observations.
    pub count: u64,
    /// Sum of observed values.
    pub sum: u64,
    /// Per-bucket observation counts (see [`bucket_index`]).
    pub buckets: [u64; HISTOGRAM_BUCKETS],
}

/// The bucket a value lands in: `0` for `0`, otherwise
/// `floor(log2(value)) + 1`, clamped to the last bucket.
#[must_use]
pub fn bucket_index(value: u64) -> usize {
    if value == 0 {
        0
    } else {
        ((64 - value.leading_zeros()) as usize).min(HISTOGRAM_BUCKETS - 1)
    }
}

/// The inclusive upper bound of bucket `i` (`u64::MAX` for the last bucket).
#[must_use]
pub fn bucket_upper_bound(i: usize) -> u64 {
    if i + 1 >= HISTOGRAM_BUCKETS {
        u64::MAX
    } else {
        (1u64 << i) - 1
    }
}

/// Wall-clock duration of each completed grid job.
pub static RUNNER_JOB_MILLIS: Histogram =
    Histogram::new("runner.job_millis", "milliseconds", "Wall-clock duration of each grid job");
/// Simulated length of each recorded write-drain episode.
pub static DRAIN_EPISODE_CYCLES: Histogram = Histogram::new(
    "dram.drain_episode_cycles",
    "cycles",
    "Simulated length of each write-drain episode",
);

/// The histogram catalog, in emission order.
#[must_use]
pub fn histograms() -> [&'static Histogram; 2] {
    [&RUNNER_JOB_MILLIS, &DRAIN_EPISODE_CYCLES]
}

/// Zeroes every registry-owned counter and histogram (test isolation).
/// Probe-sourced metrics read leaf-crate state and are not affected.
pub fn reset_metrics() {
    for metric in &METRICS {
        if let MetricSource::Cell(cell) = &metric.source {
            cell.reset();
        }
    }
    for histogram in histograms() {
        histogram.reset();
    }
}

// ---------------------------------------------------------------------------
// Phase self-profiling
// ---------------------------------------------------------------------------

/// The model phases host wall clock is attributed to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Core issue and memory-request staging.
    Dispatch = 0,
    /// Cache and MSHR probes for staged requests.
    Probe = 1,
    /// DRAM command scheduling (`MemoryController::tick`).
    DramScheduling = 2,
    /// Draining DRAM completions back to caches and cores.
    CompletionDrain = 3,
    /// Span-wise statistic settlement.
    StatSettlement = 4,
}

/// Number of [`Phase`] variants.
pub const PHASE_COUNT: usize = 5;

impl Phase {
    /// All phases, in index order.
    pub const ALL: [Phase; PHASE_COUNT] = [
        Phase::Dispatch,
        Phase::Probe,
        Phase::DramScheduling,
        Phase::CompletionDrain,
        Phase::StatSettlement,
    ];

    /// Stable lower-case name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Phase::Dispatch => "dispatch",
            Phase::Probe => "probe",
            Phase::DramScheduling => "dram_scheduling",
            Phase::CompletionDrain => "completion_drain",
            Phase::StatSettlement => "stat_settlement",
        }
    }
}

/// Adds a per-`System` phase-nanosecond accumulation into the registry
/// (called once per collected run).
pub fn flush_phase_nanos(nanos: &[u64; PHASE_COUNT]) {
    PHASE_DISPATCH_NANOS.add(nanos[Phase::Dispatch as usize]);
    PHASE_PROBE_NANOS.add(nanos[Phase::Probe as usize]);
    PHASE_DRAM_SCHEDULING_NANOS.add(nanos[Phase::DramScheduling as usize]);
    PHASE_COMPLETION_DRAIN_NANOS.add(nanos[Phase::CompletionDrain as usize]);
    PHASE_STAT_SETTLEMENT_NANOS.add(nanos[Phase::StatSettlement as usize]);
}

/// Registry totals per phase, in [`Phase::ALL`] order.
#[must_use]
pub fn phase_nanos() -> [(Phase, u64); PHASE_COUNT] {
    [
        (Phase::Dispatch, PHASE_DISPATCH_NANOS.value()),
        (Phase::Probe, PHASE_PROBE_NANOS.value()),
        (Phase::DramScheduling, PHASE_DRAM_SCHEDULING_NANOS.value()),
        (Phase::CompletionDrain, PHASE_COMPLETION_DRAIN_NANOS.value()),
        (Phase::StatSettlement, PHASE_STAT_SETTLEMENT_NANOS.value()),
    ]
}

// ---------------------------------------------------------------------------
// Simulated-time tracer
// ---------------------------------------------------------------------------

/// Upper bound on buffered trace events; beyond it events are dropped (and
/// counted in `trace.events_dropped`) so a pathological run cannot grow the
/// sink unboundedly.
const TRACE_EVENT_CAP: usize = 1 << 20;

/// One buffered trace event. `ts` is **simulated cycles** — the tracer has
/// no host-time axis, which is what makes traces reproducible.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceEvent {
    /// Perfetto "thread" the event renders on (e.g. `lbm/bard-h` or
    /// `lbm/bard-h/ch0.sc1`).
    pub track: String,
    /// Event name (e.g. `measure`, `write_drain`).
    pub name: &'static str,
    /// Start cycle.
    pub start_cycle: u64,
    /// Span length in cycles; `None` renders as an instant event.
    pub duration_cycles: Option<u64>,
    /// Numeric key/value payload shown in the Perfetto args pane.
    pub args: Vec<(&'static str, u64)>,
}

fn trace_sink() -> &'static Mutex<Vec<TraceEvent>> {
    static SINK: OnceLock<Mutex<Vec<TraceEvent>>> = OnceLock::new();
    SINK.get_or_init(Mutex::default)
}

fn push_trace_event(event: TraceEvent) {
    let mut sink = trace_sink().lock().expect("trace sink poisoned");
    if sink.len() >= TRACE_EVENT_CAP {
        TRACE_EVENTS_DROPPED.add(1);
        return;
    }
    sink.push(event);
}

/// Records a span over `[start_cycle, end_cycle]` when telemetry is enabled;
/// a no-op otherwise.
pub fn trace_span(
    track: &str,
    name: &'static str,
    start_cycle: u64,
    end_cycle: u64,
    args: &[(&'static str, u64)],
) {
    if !enabled() {
        return;
    }
    push_trace_event(TraceEvent {
        track: track.to_owned(),
        name,
        start_cycle,
        duration_cycles: Some(end_cycle.saturating_sub(start_cycle)),
        args: args.to_vec(),
    });
}

/// Records an instant event at `cycle` when telemetry is enabled; a no-op
/// otherwise.
pub fn trace_instant(track: &str, name: &'static str, cycle: u64, args: &[(&'static str, u64)]) {
    if !enabled() {
        return;
    }
    push_trace_event(TraceEvent {
        track: track.to_owned(),
        name,
        start_cycle: cycle,
        duration_cycles: None,
        args: args.to_vec(),
    });
}

/// Drains every buffered trace event (emission and tests).
#[must_use]
pub fn take_trace_events() -> Vec<TraceEvent> {
    std::mem::take(&mut *trace_sink().lock().expect("trace sink poisoned"))
}

/// Renders events as Chrome trace-event JSON (the `traceEvents` array
/// format), viewable in Perfetto or `chrome://tracing`.
///
/// Output is a pure function of the event *set*: tracks become numbered
/// "threads" in sorted-name order and events are sorted by `(track, ts,
/// name, duration, args)`, so the bytes do not depend on which worker thread
/// buffered an event first — traces are bitwise-identical across
/// `--jobs=N`.
#[must_use]
pub fn trace_events_json(events: &[TraceEvent]) -> String {
    let mut tracks: Vec<&str> = events.iter().map(|e| e.track.as_str()).collect();
    tracks.sort_unstable();
    tracks.dedup();
    let tid_of = |track: &str| -> u64 {
        // Track list is sorted, so the tid assignment is deterministic.
        tracks.binary_search(&track).map_or(0, |i| i as u64 + 1)
    };

    let mut ordered: Vec<&TraceEvent> = events.iter().collect();
    ordered.sort_by(|a, b| {
        (&a.track, a.start_cycle, a.name, a.duration_cycles, &a.args).cmp(&(
            &b.track,
            b.start_cycle,
            b.name,
            b.duration_cycles,
            &b.args,
        ))
    });

    let mut rendered = Vec::with_capacity(tracks.len() + ordered.len());
    for (i, track) in tracks.iter().enumerate() {
        rendered.push(Json::obj(vec![
            ("name", Json::str("thread_name")),
            ("ph", Json::str("M")),
            ("ts", Json::num(0.0)),
            ("pid", Json::num(0.0)),
            ("tid", Json::num(i as f64 + 1.0)),
            ("args", Json::obj(vec![("name", Json::str(*track))])),
        ]));
    }
    for event in ordered {
        let mut pairs = vec![
            ("name", Json::str(event.name)),
            ("cat", Json::str("bard")),
            ("ph", Json::str(if event.duration_cycles.is_some() { "X" } else { "i" })),
            ("ts", Json::num(event.start_cycle as f64)),
        ];
        if let Some(duration) = event.duration_cycles {
            pairs.push(("dur", Json::num(duration as f64)));
        } else {
            pairs.push(("s", Json::str("t")));
        }
        pairs.push(("pid", Json::num(0.0)));
        pairs.push(("tid", Json::num(tid_of(&event.track) as f64)));
        let args: Vec<(&str, Json)> =
            event.args.iter().map(|&(k, v)| (k, Json::num(v as f64))).collect();
        pairs.push(("args", Json::obj(args)));
        rendered.push(Json::obj(pairs));
    }
    Json::obj(vec![("displayTimeUnit", Json::str("ns")), ("traceEvents", Json::Arr(rendered))])
        .render()
}

// ---------------------------------------------------------------------------
// Grid progress
// ---------------------------------------------------------------------------

/// Minimum interval between emitted progress lines (the final line is always
/// emitted).
const PROGRESS_EMIT_INTERVAL: Duration = Duration::from_millis(200);

/// A throttled stderr progress meter for grid runs, shared by the runner's
/// scoped worker threads. Jobs are weighted by instruction budget so the
/// percentage and ETA track simulated work, not job count.
#[derive(Debug)]
pub struct Progress {
    total_jobs: usize,
    total_weight: u64,
    done_jobs: AtomicUsize,
    done_weight: AtomicU64,
    started: Instant,
    last_emit: Mutex<Option<Instant>>,
}

impl Progress {
    /// Starts a meter over `total_jobs` jobs of `total_weight` combined
    /// instruction budget.
    #[must_use]
    pub fn start(total_jobs: usize, total_weight: u64) -> Self {
        Self {
            total_jobs,
            total_weight,
            done_jobs: AtomicUsize::new(0),
            done_weight: AtomicU64::new(0),
            started: Instant::now(),
            last_emit: Mutex::new(None),
        }
    }

    /// Reports one finished job of the given weight, emitting a progress
    /// line unless one was emitted within the throttle interval (200 ms;
    /// the final job always emits).
    pub fn job_done(&self, weight: u64) {
        let jobs = self.done_jobs.fetch_add(1, Ordering::Relaxed) + 1;
        let done = self.done_weight.fetch_add(weight, Ordering::Relaxed) + weight;
        let force = jobs >= self.total_jobs;
        let now = Instant::now();
        {
            let mut last = self.last_emit.lock().expect("progress throttle poisoned");
            if !force {
                if let Some(prev) = *last {
                    if now.duration_since(prev) < PROGRESS_EMIT_INTERVAL {
                        return;
                    }
                }
            }
            *last = Some(now);
        }
        let elapsed = self.started.elapsed().as_secs_f64();
        let percent = if self.total_weight == 0 {
            100.0 * jobs as f64 / self.total_jobs.max(1) as f64
        } else {
            100.0 * done as f64 / self.total_weight as f64
        };
        let eta = if done == 0 || self.total_weight == 0 {
            None
        } else {
            let remaining = self.total_weight.saturating_sub(done);
            Some(elapsed * remaining as f64 / done as f64)
        };
        eprintln!("{}", Self::render_line(jobs, self.total_jobs, percent, elapsed, eta));
    }

    /// Formats one progress line (separated from emission for tests).
    #[must_use]
    pub fn render_line(
        done_jobs: usize,
        total_jobs: usize,
        percent: f64,
        elapsed_secs: f64,
        eta_secs: Option<f64>,
    ) -> String {
        let eta = eta_secs.map_or_else(|| "?".to_owned(), |eta| format!("{eta:.1}s"));
        format!(
            "[bard-progress] {done_jobs}/{total_jobs} jobs {percent:.1}% \
             elapsed={elapsed_secs:.1}s eta={eta}"
        )
    }
}

// ---------------------------------------------------------------------------
// Emission
// ---------------------------------------------------------------------------

/// The `metrics.json` document: schema version, the metric catalog with
/// current values, and histogram snapshots.
#[must_use]
pub fn metrics_json() -> Json {
    let metric_values: Vec<Json> = METRICS
        .iter()
        .map(|m| {
            Json::obj(vec![
                ("name", Json::str(m.name)),
                ("kind", Json::str(m.kind.name())),
                ("units", Json::str(m.units)),
                ("help", Json::str(m.help)),
                ("value", Json::num(m.value() as f64)),
            ])
        })
        .collect();
    let histogram_values: Vec<Json> = histograms()
        .iter()
        .map(|h| {
            let snap = h.snapshot();
            let buckets: Vec<Json> = snap
                .buckets
                .iter()
                .enumerate()
                .map(|(i, &count)| {
                    Json::obj(vec![
                        ("le", Json::num(bucket_upper_bound(i) as f64)),
                        ("count", Json::num(count as f64)),
                    ])
                })
                .collect();
            Json::obj(vec![
                ("name", Json::str(h.name)),
                ("units", Json::str(h.units)),
                ("help", Json::str(h.help)),
                ("count", Json::num(snap.count as f64)),
                ("sum", Json::num(snap.sum as f64)),
                ("buckets", Json::Arr(buckets)),
            ])
        })
        .collect();
    Json::obj(vec![
        ("schema_version", Json::num(SCHEMA_VERSION as f64)),
        ("metrics", Json::Arr(metric_values)),
        ("histograms", Json::Arr(histogram_values)),
    ])
}

/// The `metrics.csv` document: one `name,kind,units,value` row per metric,
/// plus `<histogram>.count` / `<histogram>.sum` rows.
#[must_use]
pub fn metrics_csv() -> String {
    let mut out = String::from("name,kind,units,value\n");
    for m in &METRICS {
        out.push_str(&format!("{},{},{},{}\n", m.name, m.kind.name(), m.units, m.value()));
    }
    for h in histograms() {
        let snap = h.snapshot();
        out.push_str(&format!("{}.count,histogram,observations,{}\n", h.name, snap.count));
        out.push_str(&format!("{}.sum,histogram,{},{}\n", h.name, h.units, snap.sum));
    }
    out
}

/// Writes `metrics.json`, `metrics.csv` and `trace_events.json` into `dir`
/// (created if needed), draining the trace sink. Returns the written file
/// names.
///
/// # Errors
///
/// Propagates filesystem errors.
pub fn write_files(dir: &Path) -> std::io::Result<Vec<String>> {
    std::fs::create_dir_all(dir)?;
    let mut json = metrics_json().render();
    json.push('\n');
    std::fs::write(dir.join("metrics.json"), json)?;
    std::fs::write(dir.join("metrics.csv"), metrics_csv())?;
    let events = take_trace_events();
    let mut trace = trace_events_json(&events);
    trace.push('\n');
    std::fs::write(dir.join("trace_events.json"), trace)?;
    Ok(vec!["metrics.json".to_owned(), "metrics.csv".to_owned(), "trace_events.json".to_owned()])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metric_names_are_unique() {
        let names = metric_names();
        let mut deduped = names.clone();
        deduped.sort_unstable();
        deduped.dedup();
        assert_eq!(names.len(), deduped.len(), "duplicate metric name in catalog");
    }

    #[test]
    fn histogram_buckets_cover_the_range() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(u64::MAX), HISTOGRAM_BUCKETS - 1);
        assert_eq!(bucket_upper_bound(0), 0);
        assert_eq!(bucket_upper_bound(1), 1);
        assert_eq!(bucket_upper_bound(2), 3);
        assert_eq!(bucket_upper_bound(HISTOGRAM_BUCKETS - 1), u64::MAX);
        // Every value's bucket admits it.
        for v in [0u64, 1, 2, 3, 7, 8, 1000, 1 << 40, u64::MAX] {
            assert!(v <= bucket_upper_bound(bucket_index(v)));
        }
    }

    #[test]
    fn histogram_observe_accumulates() {
        static H: Histogram = Histogram::new("test.h", "units", "test histogram");
        H.observe(0);
        H.observe(3);
        H.observe(3);
        let snap = H.snapshot();
        assert_eq!(snap.count, 3);
        assert_eq!(snap.sum, 6);
        assert_eq!(snap.buckets[0], 1);
        assert_eq!(snap.buckets[2], 2);
    }

    #[test]
    fn trace_json_is_order_independent() {
        let a = TraceEvent {
            track: "lbm/base".to_owned(),
            name: "measure",
            start_cycle: 100,
            duration_cycles: Some(50),
            args: vec![("instructions", 7)],
        };
        let b = TraceEvent {
            track: "copy/base".to_owned(),
            name: "guard_termination",
            start_cycle: 10,
            duration_cycles: None,
            args: vec![],
        };
        let forward = trace_events_json(&[a.clone(), b.clone()]);
        let backward = trace_events_json(&[b, a]);
        assert_eq!(forward, backward);
        let parsed = Json::parse(&forward).expect("trace JSON parses");
        let events = parsed.get("traceEvents").and_then(Json::as_array).expect("traceEvents");
        // 2 tracks (metadata) + 2 events.
        assert_eq!(events.len(), 4);
    }

    #[test]
    fn progress_line_formats() {
        assert_eq!(
            Progress::render_line(3, 12, 25.0, 4.06, Some(12.34)),
            "[bard-progress] 3/12 jobs 25.0% elapsed=4.1s eta=12.3s"
        );
        assert_eq!(
            Progress::render_line(0, 2, 0.0, 0.0, None),
            "[bard-progress] 0/2 jobs 0.0% elapsed=0.0s eta=?"
        );
    }

    #[test]
    fn metrics_json_round_trips() {
        let doc = metrics_json();
        let text = doc.render();
        let parsed = Json::parse(&text).expect("metrics JSON parses");
        assert_eq!(
            parsed.get("schema_version").and_then(Json::as_f64),
            Some(SCHEMA_VERSION as f64)
        );
        let metrics = parsed.get("metrics").and_then(Json::as_array).expect("metrics array");
        assert_eq!(metrics.len(), METRICS.len());
        for entry in metrics {
            for key in ["name", "kind", "units", "help", "value"] {
                assert!(entry.get(key).is_some(), "metric entry missing key {key}");
            }
        }
        let histograms_json =
            parsed.get("histograms").and_then(Json::as_array).expect("histograms array");
        assert_eq!(histograms_json.len(), histograms().len());
    }
}

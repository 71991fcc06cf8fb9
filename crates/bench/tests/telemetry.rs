//! Telemetry acceptance tests: the metric catalog is pinned (names and
//! schema), and the whole subsystem is proven side-effect-free — enabling
//! it must not change a single bit of any simulation result or artifact on
//! either engine.
//!
//! The enable flag, counters and trace sink are process globals, so every
//! test that flips them lives in **one** test function
//! ([`telemetry_never_perturbs_results_and_traces_deterministically`]);
//! the remaining tests only read static catalog structure.

use bard::report::Json;
use bard::runner::{Job, Runner};
use bard::{EngineKind, SystemConfig};
use bard_bench::differential::{all_paths, StressCase};
use bard_bench::telemetry;
use bard_workloads::rng::SmallRng;
use bard_workloads::WorkloadId;

/// The full metric catalog, pinned name-by-name. A rename or reorder here
/// is a telemetry schema change: bump `bard::report::schema::SCHEMA_VERSION`
/// and update `docs/RESULTS.md` alongside this list; an added metric only
/// needs the list and the docs. The `probe.set_scans`, `mshr.*` and
/// `dram.stat_settlements` names mirror the counters of the `[bard-perf]`
/// stderr line, which reads the same per-run fields.
/// `probe.filter_skips`/`probe.filter_passes` outlived the cache presence
/// filters: they stay registered and always read 0.
const PINNED_METRIC_NAMES: &[&str] = &[
    "probe.set_scans",
    "probe.filter_skips",
    "probe.filter_passes",
    "mshr.releases",
    "mshr.wakes",
    "engine.ticks",
    "engine.core_cycles",
    "engine.cycles_jumped",
    "engine.core_cycles_slept",
    "dram.stat_settlements",
    "dram.awake_ticks",
    "dram.scheduling_passes",
    "dram.drain_episodes",
    "run.runs_collected",
    "run.guard_terminations",
    "run.instructions",
    "run.cycles",
    "phase.dispatch_nanos",
    "phase.probe_nanos",
    "phase.dram_scheduling_nanos",
    "phase.completion_drain_nanos",
    "phase.stat_settlement_nanos",
    "runner.jobs_completed",
    "snapshot.images_written",
    "snapshot.images_reused",
    "snapshot.warmup_instructions_skipped",
    "trace.decode_hits",
    "trace.decode_misses",
    "trace.decode_captures",
    "trace.decode_entries",
    "trace.events_dropped",
];

#[test]
fn metric_names_match_the_pinned_catalog() {
    assert_eq!(telemetry::metric_names(), PINNED_METRIC_NAMES);
}

/// Renders the value-independent part of the metric catalog — names, kinds,
/// units and help of every metric and histogram — so the golden file pins
/// the `metrics.json` schema without depending on what other tests in this
/// process have counted.
fn render_catalog_schema() -> String {
    let mut out = String::new();
    out.push_str("# metrics.json schema: name | kind | units | help.\n");
    out.push_str("# Regenerate: BARD_BLESS=1 cargo test -p bard-bench --test telemetry\n");
    for m in telemetry::metrics() {
        out.push_str(&format!(
            "metric {} | {} | {} | {}\n",
            m.name,
            m.kind.name(),
            m.units,
            m.help
        ));
    }
    for h in telemetry::histograms() {
        out.push_str(&format!(
            "histogram {} | {} buckets | {} | {}\n",
            h.name,
            telemetry::HISTOGRAM_BUCKETS,
            h.units,
            h.help
        ));
    }
    out
}

#[test]
fn metrics_schema_matches_golden_file() {
    let current = render_catalog_schema();
    let golden_path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/metrics_schema.txt");
    if std::env::var_os("BARD_BLESS").is_some() {
        std::fs::write(golden_path, &current).expect("write golden file");
        return;
    }
    let golden = std::fs::read_to_string(golden_path).expect("golden file exists");
    assert_eq!(
        current, golden,
        "the metric catalog drifted from the golden schema — if intentional, bump \
         bard::report::schema::SCHEMA_VERSION, update docs/RESULTS.md and regenerate with \
         BARD_BLESS=1 cargo test -p bard-bench --test telemetry"
    );
}

/// Runs a tiny two-config grid with `threads` workers and returns the
/// canonical trace-event JSON it produced (draining the global sink).
fn grid_trace_json(threads: usize) -> String {
    let _ = telemetry::take_trace_events();
    let mut base = SystemConfig::small_test();
    base.cores = 2;
    let variant = base.clone().with_policy(bard::WritePolicyKind::BardE);
    let length = bard::experiment::RunLength {
        functional_warmup: 20_000,
        timed_warmup: 500,
        measure: 2_000,
    };
    let jobs = Job::grid(&[base, variant], &[WorkloadId::Lbm, WorkloadId::Copy], length);
    let _ = Runner::new(threads).run_grid(jobs);
    telemetry::trace_events_json(&telemetry::take_trace_events())
}

/// The engine work counters `[ticks, cycles_jumped, core_cycles,
/// core_cycles_slept]` as the registry holds them now.
fn engine_work() -> [u64; 4] {
    [
        telemetry::ENGINE_TICKS.value(),
        telemetry::ENGINE_CYCLES_JUMPED.value(),
        telemetry::ENGINE_CORE_CYCLES.value(),
        telemetry::ENGINE_CORE_CYCLES_SLEPT.value(),
    ]
}

/// The one stateful test: flips the global enable flag, so every assertion
/// that depends on it lives here.
///
/// 1. **On/off bitwise parity** (the telemetry invariant): an MSHR-saturated
///    case and a randomized case each run on both engines with telemetry
///    off and again with it on — `RunResult`, final cycle, artifact text
///    and artifact CSV must be bitwise identical pairwise. Each enabled run
///    also accounts for every core in every cycle it advanced: each
///    cycle is a tick or a jump, and each core cycle is run or slept.
/// 2. **Trace determinism**: the same grid run serially and with four
///    workers must render byte-identical trace-event JSON (simulated-time
///    timestamps + canonical ordering make it `--jobs`-invariant).
/// 3. **Well-formedness**: the rendered trace JSON parses and every event
///    carries the keys `docs/RESULTS.md` promises; `metrics.json` and
///    `metrics.csv` emit and parse.
#[test]
fn telemetry_never_perturbs_results_and_traces_deterministically() {
    let mut rng = SmallRng::seed_from_u64(0x7E1E_0B5E);
    let cases = [StressCase::mshr_saturated(WorkloadId::Omnetpp), StressCase::random(&mut rng, 0)];
    for case in &cases {
        for engine in all_paths() {
            let name = engine.name();
            telemetry::set_enabled(false);
            let off = case.run_path(engine);
            telemetry::set_enabled(true);
            let before = engine_work();
            let on = case.run_path(engine);
            let after = engine_work();
            let [ticks, jumped, core_cycles, slept] = std::array::from_fn(|i| after[i] - before[i]);
            assert_eq!(
                core_cycles + slept,
                case.config.cores as u64 * (ticks + jumped),
                "{}: engine work counters do not cover every core cycle on {name}",
                case.label
            );
            if engine == EngineKind::Step {
                assert_eq!(
                    (jumped, slept),
                    (0, 0),
                    "{}: the step engine neither jumps nor sleeps",
                    case.label
                );
            }
            assert_eq!(
                off.final_cycle, on.final_cycle,
                "{}: enabling telemetry changed the final cycle on {name}",
                case.label
            );
            assert_eq!(
                off.result, on.result,
                "{}: enabling telemetry changed the RunResult on {name}",
                case.label
            );
            assert_eq!(
                off.text, on.text,
                "{}: enabling telemetry changed the artifact text on {name}",
                case.label
            );
            assert_eq!(
                off.csv, on.csv,
                "{}: enabling telemetry changed the artifact CSV on {name}",
                case.label
            );
        }
    }

    // The enabled runs above flowed into the registry.
    assert!(telemetry::RUNS_COLLECTED.value() > 0, "enabled runs must reach the registry");
    assert!(telemetry::PROBE_SET_SCANS.value() > 0, "probe counters must accumulate");
    assert_eq!(telemetry::PROBE_FILTER_SKIPS.value(), 0, "no presence filter remains");
    assert_eq!(telemetry::PROBE_FILTER_PASSES.value(), 0, "no presence filter remains");

    // Trace determinism across worker counts, then well-formedness.
    let serial = grid_trace_json(1);
    let threaded = grid_trace_json(4);
    assert_eq!(serial, threaded, "trace-event JSON must be --jobs invariant");

    let parsed = Json::parse(&serial).expect("trace-event JSON must parse");
    assert_eq!(parsed.get("displayTimeUnit").and_then(Json::as_str), Some("ns"));
    let events = parsed.get("traceEvents").and_then(Json::as_array).expect("traceEvents array");
    assert!(!events.is_empty(), "the grid must emit trace events");
    let mut spans = 0;
    for event in events {
        for key in ["name", "ph", "ts", "pid", "tid"] {
            assert!(event.get(key).is_some(), "trace event missing key '{key}'");
        }
        match event.get("ph").and_then(Json::as_str) {
            Some("X") => {
                spans += 1;
                assert!(event.get("dur").is_some(), "span events carry dur");
                assert_eq!(event.get("cat").and_then(Json::as_str), Some("bard"));
            }
            Some("i") => assert!(event.get("s").is_some(), "instant events carry scope"),
            Some("M") => {}
            other => panic!("unexpected event phase {other:?}"),
        }
    }
    assert!(spans > 0, "the grid must emit at least one measure span");

    let metrics = telemetry::metrics_json();
    let reparsed = Json::parse(&metrics.render()).expect("metrics.json must parse");
    assert_eq!(reparsed, metrics);
    let csv = telemetry::metrics_csv();
    assert!(csv.starts_with("name,kind,units,value\n"));

    // Leave the process the way stateless tests expect it.
    telemetry::set_enabled(false);
    let _ = telemetry::take_trace_events();
    telemetry::reset_metrics();
}

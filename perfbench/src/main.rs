//! The repository benchmark. One process, one thread:
//!
//! ```text
//! bard-perfbench --workload <fig10-8c|graph-4c|rerun-2c> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` it runs the workload's grid of simulation cells over and
//! over, closed loop and one cell at a time, for `--seconds` seconds with
//! telemetry off, and reports the end-to-end metrics as medians over the
//! repetitions. With `--trace 1` it alternates untraced and traced grid runs
//! for `--seconds` seconds, then replays the workload layer by layer, and
//! reports the per-layer metrics. Either way it checks the simulator's
//! outputs, prints readable lines, and ends with one JSON line:
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}`.
//! It exits 1 when a check fails and 2 on bad arguments.

mod grid;
mod host;
mod layers;

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};

use bard::telemetry;

use grid::{model_metrics, run_grid, GridRun, Spec, Warm};
use host::Summary;

const USAGE: &str = "usage: bard-perfbench --workload <fig10-8c|graph-4c|rerun-2c> \
                     --seed <n> --seconds <s> --trace <0|1>";

struct Args {
    spec: &'static Spec,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (mut spec, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what}, got '{value}'");
        match flag.as_str() {
            "--workload" => spec = Some(Spec::by_name(value).ok_or_else(|| bad("unknown"))?),
            "--seed" => seed = Some(value.parse().map_err(|_| bad("not a u64"))?),
            "--seconds" => {
                seconds =
                    Some(value.parse().ok().filter(|&s| s > 0).ok_or_else(|| bad("not > 0"))?);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("not 0 or 1")),
                });
            }
            _ => return Err(format!("unknown flag '{flag}'")),
        }
    }
    Ok(Args {
        spec: spec.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// What one invocation reports.
#[derive(Default)]
struct Report {
    attempted: usize,
    failed: usize,
    metrics: Vec<(String, f64, &'static str)>,
    /// Output checks that failed.
    mismatches: Vec<String>,
}

impl Report {
    fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        if !value.is_finite() {
            self.mismatches.push(format!("{name} is not a finite number"));
        }
        self.metrics.push((name.to_owned(), value, unit));
    }

    /// Adds a metric measured once per repetition: the median is reported,
    /// and the readable line also gives the quartiles and sample count.
    fn summarized(&mut self, name: &str, values: &[f64], unit: &'static str) {
        let s = Summary::of(values);
        println!(
            "  {name:<28} median {:>12.6} {unit:<5} q1 {:.6} q3 {:.6} n={}",
            s.median, s.q1, s.q3, s.n
        );
        self.metric(name, s.median, unit);
    }

    fn count(&mut self, runs: &[GridRun]) {
        for run in runs {
            self.attempted += run.cells.len();
            self.failed += run.failed();
        }
    }

    fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                let value = if value.is_finite() { *value } else { 0.0 };
                format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.mismatches.is_empty(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Checks that every run of the grid produced the same results and the
/// same simulated-design figures as the first.
fn check_repeatable(spec: &Spec, runs: &[GridRun], what: &str, report: &mut Report) {
    let model = model_metrics(spec, &runs[0]);
    for (i, run) in runs.iter().enumerate().skip(1) {
        if run.results() != runs[0].results() {
            report.mismatches.push(format!("{what} repetition {i}: RunResults differ"));
        }
        let bits = |m: &[(&str, f64, &str)]| m.iter().map(|x| x.1.to_bits()).collect::<Vec<_>>();
        if bits(&model_metrics(spec, run)) != bits(&model) {
            report.mismatches.push(format!("{what} repetition {i}: model.* figures differ"));
        }
    }
}

/// One line per cell of a grid run: host seconds, simulated cycles, and
/// why the cell failed if it did.
fn print_cells(spec: &Spec, run: &GridRun) {
    for (cell, (workload, policy)) in run.cells.iter().zip(spec.cells()) {
        let t = &cell.time;
        println!(
            "  cell {:<12} {:<9} setup {:.3}s timed {:.3}s {} cycles{}",
            workload.name(),
            policy.label(),
            t.setup.raw,
            t.timed.raw,
            t.sim_cycles,
            cell.failure.as_ref().map(|why| format!(" FAILED: {why}")).unwrap_or_default()
        );
    }
}

/// `--trace 0`: repeat the grid with telemetry off and report end to end.
fn timed(args: &Args, work: &Path) -> Report {
    let spec = args.spec;
    let mut clock = host::SpeedClock::new();
    let deadline = Instant::now() + Duration::from_secs(args.seconds);
    let mut runs = Vec::new();
    while runs.is_empty() || Instant::now() < deadline {
        let run = run_grid(spec, args.seed, spec.warm, work, &mut clock);
        println!("  run {:>3}: grid {:.4}s setup {:.4}s", runs.len(), run.grid_s, run.setup_s);
        runs.push(run);
    }
    let mut report = Report::default();
    report.count(&runs);
    check_repeatable(spec, &runs, "grid", &mut report);
    println!("{} (seed {}): {} grid runs, telemetry off", spec.name, args.seed, runs.len());
    let per_run = |f: fn(&GridRun) -> f64| runs.iter().map(f).collect::<Vec<_>>();
    report.summarized("grid_s", &per_run(|r| r.grid_s), "s");
    report.summarized("setup_s", &per_run(|r| r.setup_s), "s");
    report.summarized(
        "sim_kips",
        &per_run(|r| r.timed_instructions as f64 / (r.grid_s - r.setup_s) / 1e3),
        "kips",
    );
    let rss = host::peak_rss_mib();
    println!("  {:<28} {rss:>19.3} MiB", "peak_rss_mb");
    report.metric("peak_rss_mb", rss, "MiB");
    for (name, value, unit) in model_metrics(spec, &runs[0]) {
        println!("  {name:<28} {value:>19.6} {unit}");
    }
    print_cells(spec, &runs[0]);
    report
}

/// Registry counters read after the traced runs.
fn registry(name: &str) -> f64 {
    telemetry::metrics()
        .iter()
        .find(|m| m.name == name)
        .unwrap_or_else(|| panic!("the telemetry registry has no metric '{name}'"))
        .value() as f64
}

/// `--trace 1`: untraced and traced grid runs, the forked-vs-cold check,
/// then the layer replay.
fn traced(args: &Args, work: &Path) -> Report {
    let spec = args.spec;
    let mut clock = host::SpeedClock::new();
    let deadline = Instant::now() + Duration::from_secs(args.seconds);
    let (mut untraced, mut traced) = (Vec::new(), Vec::new());
    telemetry::reset_metrics();
    while untraced.is_empty() || Instant::now() < deadline {
        untraced.push(run_grid(spec, args.seed, spec.warm, work, &mut clock));
        telemetry::set_enabled(true);
        traced.push(run_grid(spec, args.seed, spec.warm, work, &mut clock));
        telemetry::set_enabled(false);
    }
    let mut report = Report::default();
    report.count(&untraced);
    report.count(&traced);
    check_repeatable(spec, &untraced, "untraced grid", &mut report);
    for (i, run) in traced.iter().enumerate() {
        if run.results() != untraced[0].results() {
            report
                .mismatches
                .push(format!("traced repetition {i}: RunResults differ from untraced"));
        }
    }
    let ratios: Vec<f64> = untraced.iter().zip(&traced).map(|(u, t)| u.grid_s / t.grid_s).collect();
    println!(
        "{} (seed {}): {} untraced + {} traced grid runs",
        spec.name,
        args.seed,
        untraced.len(),
        traced.len()
    );

    // Host time of the public calls, from grid runs that warm every cell
    // live; on the forked path that is an extra cold run, which must also
    // reproduce the forked and replayed cells exactly.
    let mut cold = Vec::new();
    if spec.warm == Warm::Forked {
        cold.push(run_grid(spec, args.seed, Warm::Live, work, &mut clock));
        report.count(&cold);
        if cold[0].results() != untraced[0].results() {
            report.mismatches.push("forked cells differ from a cold live run".to_owned());
        }
    }
    let live = if cold.is_empty() { &untraced } else { &cold };
    let median_sum = |f: fn(&grid::CellTime) -> f64| {
        Summary::of(&live.iter().map(|r| r.sum(f)).collect::<Vec<_>>()).median
    };
    let timed_s = median_sum(|t| t.timed.raw);
    let sim_cycles = live[0].sim_cycles() as f64;
    report.metric("system.new_s", median_sum(|t| t.new_s), "s");
    report.metric("system.warmup_s", median_sum(|t| t.setup.raw - t.new_s), "s");
    report.metric("system.timed_s", timed_s, "s");
    report.metric("system.sim_cycles", sim_cycles, "cycles");
    report.metric("system.ns_per_sim_cycle", timed_s * 1e9 / sim_cycles, "ns");
    let speeds: Vec<f64> =
        untraced.iter().map(|r| r.grid_s / r.sum(|t| t.setup.raw + t.timed.raw)).collect();
    report.metric("host.speed_factor", Summary::of(&speeds).median, "ratio");

    // The registry, accumulated over the traced runs only.
    let phases = telemetry::phase_nanos();
    let total: u64 = phases.iter().map(|(_, nanos)| nanos).sum();
    for (phase, nanos) in phases {
        let share = nanos as f64 / total.max(1) as f64;
        report.metric(&format!("phase.{}_share", phase.name()), share, "ratio");
    }
    let per_grid = |name: &str| registry(name) / traced.len() as f64;
    for name in ["mshr.releases", "mshr.wakes", "run.guard_terminations", "probe.set_scans"] {
        report.metric(name, per_grid(name), "count");
    }
    let skips = registry("probe.filter_skips");
    let probes = skips + registry("probe.filter_passes");
    report.metric("probe.filter_skip_ratio", skips / probes.max(1.0), "ratio");
    report.metric("dram.drain_episodes", per_grid("dram.drain_episodes"), "count");

    for (name, value, unit) in layers::replay(spec, args.seed, work).metrics() {
        report.metric(name, value, unit);
    }
    report.metric("telemetry.on_off_ratio", Summary::of(&ratios).median, "ratio");
    for (name, value, unit) in model_metrics(spec, &untraced[0]) {
        report.metric(name, value, unit);
    }
    for (name, value, unit) in &report.metrics {
        println!("  {name:<32} {value:>16.6} {unit}");
    }
    print_cells(spec, &untraced[0]);
    report
}

fn work_dir() -> PathBuf {
    let target = std::env::var_os("CARGO_TARGET_DIR").unwrap_or_else(|| ".bench_build".into());
    PathBuf::from(target).join(format!("perfbench-work-{}", std::process::id()))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("bard-perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    telemetry::set_enabled(false);
    telemetry::set_perf_line_enabled(false);
    let work = work_dir();
    let report = if args.trace { traced(&args, &work) } else { timed(&args, &work) };
    let _ = std::fs::remove_dir_all(&work);
    println!("cells attempted {} failed {}", report.attempted, report.failed);
    for m in &report.mismatches {
        println!("CHECK FAILED: {m}");
    }
    println!("{}", report.json());
    if report.mismatches.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

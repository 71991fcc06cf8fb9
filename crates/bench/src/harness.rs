//! Shared command-line handling, grid-driving and artifact-emission helpers
//! for the per-figure experiment binaries.
//!
//! Every binary accepts the same flags:
//!
//! * `--test` / `--quick` / `--standard`: run length preset (default `--quick`),
//! * `--workloads=a,b,c`: simulate only the named workloads,
//! * `--singles` / `--mixes`: restrict to single workloads or mixes,
//! * `--cores=N`: override the core count (scales the run to `small` sizes
//!   when N <= 2, useful for smoke-testing a binary),
//! * `--seed=N`: override the workload-generator seed, re-randomizing every
//!   synthetic trace for scenario sweeps,
//! * `--trace-dir=DIR`: run from the BTF trace archive in `DIR` —
//!   record-if-missing, replay-if-present, bitwise-identical results either
//!   way (see `docs/TRACES.md`),
//! * `--snapshot-dir=DIR`: reuse warm-state BSS1 snapshot images from `DIR` —
//!   capture-if-missing, restore-if-present, so a grid's config variants fork
//!   one warmed image instead of each re-running the functional warm-up;
//!   results are bitwise-identical either way (see `docs/ARCHITECTURE.md`),
//! * `--jobs=N`: simulation worker threads (default: `BARD_JOBS` or all
//!   host cores; `--jobs=1` forces the serial path),
//! * `--progress`: stream `[bard-progress]` percent-complete/ETA lines to
//!   stderr while the grid runs (weighted by per-job instruction budgets),
//! * `--engine=step|skip`: simulation engine (default `skip`). The
//!   cycle-skipping engine is bitwise-identical to the reference step engine
//!   and much faster; `step` exists for parity checks and bisection,
//! * `--format=text|json|csv`: stdout format (default `text`, byte-identical
//!   to the historical output),
//! * `--out=DIR`: additionally write `DIR/<experiment>.json` and
//!   `DIR/<experiment>.csv` artifacts (see `docs/RESULTS.md` for the schema).
//!
//! `--help` prints [`USAGE`] and exits 0. An unknown flag, workload, engine
//! or format, a non-numeric `--cores=`, `--seed=` or `--jobs=`, or a
//! configuration [`SystemConfig::validate`] rejects (such as `--cores=0` or
//! `--cores=65`) is a usage error: [`Cli::parse`] prints the message and
//! [`USAGE`] to stderr and exits 2.
//!
//! The driving helpers ([`Cli::run`], [`Cli::run_grid`], [`Cli::compare`])
//! execute the whole `(configs x workloads)` grid on the [`Runner`] so
//! binaries never hand-roll serial simulation loops.

use std::path::{Path, PathBuf};
use std::str::FromStr;

use bard::experiment::{run_workloads_with, Comparison, RunLength};
use bard::report::{Artifact, Provenance};
use bard::runner::{Job, Runner};
use bard::{EngineKind, RunResult, SnapshotStore, SystemConfig, TraceConfig};
use bard_workloads::WorkloadId;

/// The usage line of every experiment binary.
pub const USAGE: &str = "usage: <experiment> [--test|--quick|--standard] [--singles|--mixes] \
     [--workloads=a,b,c] [--cores=N] [--seed=N] [--trace-dir=DIR] [--snapshot-dir=DIR] \
     [--jobs=N] [--progress] [--engine=step|skip] [--format=text|json|csv] [--out=DIR]";

/// Reports a command-line usage error: prints `message` and `usage` to
/// stderr and exits with status 2.
pub fn usage_error(message: &str, usage: &str) -> ! {
    eprintln!("{message}\n{usage}");
    std::process::exit(2);
}

/// What an experiment binary writes to stdout.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum OutputFormat {
    /// The historical fixed-width text (default).
    #[default]
    Text,
    /// The artifact as pretty-printed JSON.
    Json,
    /// The artifact as tidy CSV.
    Csv,
}

impl OutputFormat {
    /// Parses a `--format=` value.
    ///
    /// # Errors
    ///
    /// Returns the unrecognised name.
    pub fn from_name(name: &str) -> Result<Self, String> {
        match name {
            "text" => Ok(Self::Text),
            "json" => Ok(Self::Json),
            "csv" => Ok(Self::Csv),
            other => Err(other.to_string()),
        }
    }
}

/// Parsed command-line options shared by all experiment binaries.
#[derive(Debug, Clone)]
pub struct Cli {
    /// Run-length preset.
    pub length: RunLength,
    /// Workloads to simulate.
    pub workloads: Vec<WorkloadId>,
    /// Baseline system configuration.
    pub config: SystemConfig,
    /// Simulation worker threads (`0` = auto).
    pub jobs: usize,
    /// Stream `[bard-progress]` lines to stderr while grids run.
    pub progress: bool,
    /// Stdout format.
    pub format: OutputFormat,
    /// Artifact output directory (`--out=DIR`), if any.
    pub out: Option<PathBuf>,
    /// Warm-image store (`--snapshot-dir=DIR`), if any.
    pub snapshots: Option<SnapshotStore>,
}

impl Cli {
    /// Parses `std::env::args`: `--help` prints [`USAGE`] and exits 0, and a
    /// usage error prints its message and [`USAGE`] to stderr and exits 2.
    #[must_use]
    pub fn parse() -> Self {
        let args: Vec<String> = std::env::args().skip(1).collect();
        if args.iter().any(|a| a == "--help" || a == "-h") {
            println!("{USAGE}");
            std::process::exit(0);
        }
        Self::from_args(args.into_iter())
            .unwrap_or_else(|e| usage_error(&format!("error: {e}"), USAGE))
    }

    /// Parses an explicit argument list.
    ///
    /// # Errors
    ///
    /// Returns a message naming the offending argument on an unknown flag,
    /// workload, engine or format, or a non-numeric `--cores=`, `--seed=`
    /// or `--jobs=`; returns [`SystemConfig::validate`]'s message when the
    /// resulting configuration is invalid.
    pub fn from_args(args: impl Iterator<Item = String>) -> Result<Self, String> {
        let mut length = RunLength::quick();
        let mut workloads = WorkloadId::all();
        let mut config = SystemConfig::baseline_8core();
        let mut jobs = 0;
        let mut progress = false;
        let mut format = OutputFormat::Text;
        let mut out = None;
        let mut seed = None;
        let mut trace_dir: Option<PathBuf> = None;
        let mut snapshot_dir: Option<PathBuf> = None;
        let mut engine = None;
        for arg in args {
            if arg == "--test" {
                length = RunLength::test();
                config = SystemConfig::small_test();
            } else if arg == "--quick" {
                length = RunLength::quick();
            } else if arg == "--standard" {
                length = RunLength::standard();
            } else if arg == "--singles" {
                workloads = WorkloadId::singles().to_vec();
            } else if arg == "--mixes" {
                workloads = WorkloadId::mixes().to_vec();
            } else if let Some(list) = arg.strip_prefix("--workloads=") {
                workloads = list
                    .split(',')
                    .map(|name| {
                        WorkloadId::from_name(name.trim())
                            .ok_or_else(|| format!("unknown workload '{name}'"))
                    })
                    .collect::<Result<_, _>>()?;
            } else if let Some(n) = arg.strip_prefix("--cores=") {
                config.cores = number("--cores", n)?;
            } else if let Some(n) = arg.strip_prefix("--seed=") {
                seed = Some(number("--seed", n)?);
            } else if let Some(dir) = arg.strip_prefix("--trace-dir=") {
                trace_dir = Some(PathBuf::from(dir));
            } else if let Some(dir) = arg.strip_prefix("--snapshot-dir=") {
                snapshot_dir = Some(PathBuf::from(dir));
            } else if let Some(n) = arg.strip_prefix("--jobs=") {
                jobs = number("--jobs", n)?;
            } else if arg == "--progress" {
                progress = true;
            } else if let Some(name) = arg.strip_prefix("--engine=") {
                engine = Some(
                    EngineKind::from_name(name)
                        .map_err(|name| format!("unknown engine '{name}' (step|skip)"))?,
                );
            } else if let Some(name) = arg.strip_prefix("--format=") {
                format = OutputFormat::from_name(name)
                    .map_err(|name| format!("unknown format '{name}' (text|json|csv)"))?;
            } else if let Some(dir) = arg.strip_prefix("--out=") {
                out = Some(PathBuf::from(dir));
            } else {
                return Err(format!("unknown argument '{arg}'"));
            }
        }
        // Applied after the loop so flag order never matters: the presets
        // (--test) replace the whole config, and the trace budget depends on
        // the final run length.
        if let Some(seed) = seed {
            config.seed = seed;
        }
        if let Some(dir) = trace_dir {
            config.trace = Some(TraceConfig::for_run_length(dir, length));
        }
        if let Some(engine) = engine {
            config.engine = engine;
        }
        config.validate()?;
        let snapshots = snapshot_dir.map(SnapshotStore::new);
        Ok(Self { length, workloads, config, jobs, progress, format, out, snapshots })
    }

    /// The runner configured by `--jobs` (auto-sized when the flag is
    /// absent) and `--progress`.
    #[must_use]
    pub fn runner(&self) -> Runner {
        Runner::new(self.jobs).with_progress(self.progress)
    }

    /// The provenance record every artifact produced under this CLI carries:
    /// baseline configuration, run length, workload list, worker threads and
    /// the git revision of the tree.
    #[must_use]
    pub fn provenance(&self) -> Provenance {
        let workloads: Vec<String> = self.workloads.iter().map(|w| w.name().to_string()).collect();
        Provenance::new(
            self.config.label(),
            self.config.cores,
            &workloads,
            self.length,
            self.runner().threads(),
        )
    }

    /// Runs one configuration over the CLI workload set, in parallel.
    #[must_use]
    pub fn run(&self, config: &SystemConfig) -> Vec<RunResult> {
        let results = run_workloads_with(
            &self.runner(),
            config,
            &self.workloads,
            self.length,
            self.snapshots.as_ref(),
        );
        self.report_snapshot_counters();
        results
    }

    /// Runs several configurations over the CLI workload set as **one**
    /// parallel grid and returns the results grouped per configuration
    /// (aligned with `self.workloads`).
    #[must_use]
    pub fn run_grid(&self, configs: &[SystemConfig]) -> Vec<Vec<RunResult>> {
        let mut flat = self.runner().run_grid(Job::grid_with_snapshots(
            configs,
            &self.workloads,
            self.length,
            self.snapshots.as_ref(),
        ));
        let mut grouped = Vec::with_capacity(configs.len());
        for _ in configs {
            grouped.push(flat.drain(..self.workloads.len()).collect());
        }
        self.report_snapshot_counters();
        grouped
    }

    /// Compares each variant against `baseline` over the CLI workload set,
    /// simulating the baseline once and the whole grid in parallel.
    #[must_use]
    pub fn compare(&self, baseline: &SystemConfig, variants: &[SystemConfig]) -> Vec<Comparison> {
        let comparisons = Comparison::run_many_with(
            &self.runner(),
            baseline,
            variants,
            &self.workloads,
            self.length,
            self.snapshots.as_ref(),
        );
        self.report_snapshot_counters();
        comparisons
    }

    /// Emits the `[bard-perf] snapshot ...` stderr line after a
    /// snapshot-backed grid, when `BARD_TELEMETRY` is enabled.
    fn report_snapshot_counters(&self) {
        if self.snapshots.is_some() {
            bard::snapshot::print_counters_if_enabled();
        }
    }
}

/// Parses the numeric value of `flag`.
fn number<T: FromStr>(flag: &str, value: &str) -> Result<T, String> {
    value.parse().map_err(|_| format!("{flag}=N needs a number, got '{value}'"))
}

/// Writes `DIR/<id>.json` and `DIR/<id>.csv` for an artifact, creating the
/// directory if needed, and returns the two file names (relative to `dir`).
///
/// # Errors
///
/// Propagates filesystem errors from directory creation or the writes.
pub fn write_artifact_files(dir: &Path, artifact: &Artifact) -> std::io::Result<(String, String)> {
    std::fs::create_dir_all(dir)?;
    let json_name = format!("{}.json", artifact.id);
    let csv_name = format!("{}.csv", artifact.id);
    let mut json_text = artifact.to_json().render();
    json_text.push('\n');
    std::fs::write(dir.join(&json_name), json_text)?;
    std::fs::write(dir.join(&csv_name), artifact.to_csv())?;
    Ok((json_name, csv_name))
}

/// Builds and writes the artifact of a comparison-shaped example program:
/// provenance from `config`/`length`/the default runner, an optional result
/// table, baseline records from the first comparison, then per-comparison
/// test records and deltas. Returns the two file names relative to `dir`.
///
/// The `examples/` programs share this so a schema change is one edit, not
/// four.
///
/// # Errors
///
/// Propagates filesystem errors from directory creation or the writes.
#[allow(clippy::too_many_arguments)] // flat mirror of an example's locals
pub fn write_example_artifact(
    dir: &Path,
    id: &str,
    display: &str,
    title: &str,
    config: &SystemConfig,
    workloads: &[WorkloadId],
    length: RunLength,
    table: Option<bard::report::Table>,
    comparisons: &[Comparison],
) -> std::io::Result<(String, String)> {
    let names: Vec<String> = workloads.iter().map(|w| w.name().to_string()).collect();
    let provenance =
        Provenance::new(config.label(), config.cores, &names, length, Runner::default().threads());
    let mut artifact = Artifact::new(id, display, title, provenance);
    if let Some(table) = table {
        artifact.table("main", table);
    }
    if let Some(first) = comparisons.first() {
        artifact.records_from(&first.baseline);
    }
    for cmp in comparisons {
        artifact.records_from(&cmp.test);
        artifact.delta_from(cmp);
    }
    artifact.finish();
    write_artifact_files(dir, &artifact)
}

/// Mean of a metric over a slice of results (0 when empty).
#[must_use]
pub fn mean_of(results: &[RunResult], metric: impl Fn(&RunResult) -> f64) -> f64 {
    if results.is_empty() {
        return 0.0;
    }
    results.iter().map(metric).sum::<f64>() / results.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cli(args: &[&str]) -> Cli {
        Cli::from_args(args.iter().map(|a| a.to_string())).expect("valid arguments")
    }

    /// Panics with exactly the usage error `args` produce, for
    /// `#[should_panic(expected = ..)]` to match; if they parse, the panic
    /// names the parsed `Cli` instead and the test fails.
    fn reject(args: &[&str]) {
        let message =
            Cli::from_args(args.iter().map(|a| a.to_string())).expect_err("a usage error");
        panic!("{message}");
    }

    #[test]
    fn default_cli_covers_all_workloads() {
        let cli = cli(&[]);
        assert_eq!(cli.workloads.len(), 29);
        assert_eq!(cli.config.cores, 8);
        assert_eq!(cli.jobs, 0);
        assert_eq!(cli.format, OutputFormat::Text);
        assert!(cli.out.is_none());
        assert!(cli.runner().threads() >= 1);
    }

    #[test]
    fn flags_are_parsed() {
        let parsed = cli(&["--test", "--workloads=lbm,copy"]);
        assert_eq!(parsed.workloads, vec![WorkloadId::Lbm, WorkloadId::Copy]);
        assert_eq!(parsed.length, RunLength::test());
        assert_eq!(cli(&["--mixes"]).workloads.len(), 6);
    }

    #[test]
    fn output_flags_are_parsed() {
        let cli = cli(&["--format=json", "--out=results/run1"]);
        assert_eq!(cli.format, OutputFormat::Json);
        assert_eq!(cli.out.as_deref(), Some(Path::new("results/run1")));
        assert_eq!(OutputFormat::from_name("csv"), Ok(OutputFormat::Csv));
        assert!(OutputFormat::from_name("yaml").is_err());
    }

    #[test]
    fn progress_flag_configures_the_runner() {
        let quiet = cli(&[]);
        assert!(!quiet.progress);
        assert!(!quiet.runner().progress());
        let verbose = cli(&["--progress"]);
        assert!(verbose.progress);
        assert!(verbose.runner().progress());
    }

    #[test]
    fn jobs_flag_sizes_the_runner() {
        let three = cli(&["--jobs=3"]);
        assert_eq!(three.jobs, 3);
        assert_eq!(three.runner().threads(), 3);
        assert_eq!(cli(&["--jobs=1"]).runner().threads(), 1);
    }

    #[test]
    fn provenance_reflects_cli() {
        let cli = cli(&["--test", "--workloads=lbm", "--jobs=2"]);
        let p = cli.provenance();
        assert_eq!(p.config_label, cli.config.label());
        assert_eq!(p.cores, 2);
        assert_eq!(p.workloads, ["lbm"]);
        assert_eq!(p.run_length, RunLength::test());
        assert_eq!(p.jobs, 2);
    }

    #[test]
    fn seed_flag_overrides_the_generator_seed() {
        let default_seed = SystemConfig::baseline_8core().seed;
        assert_eq!(cli(&[]).config.seed, default_seed);
        // Flag order must not matter: presets replace the config wholesale.
        assert_eq!(cli(&["--seed=12345", "--test"]).config.seed, 12345);
        assert_eq!(cli(&["--test", "--seed=12345"]).config.seed, 12345);
    }

    #[test]
    fn trace_dir_flag_budgets_from_the_final_run_length() {
        let traced = cli(&["--trace-dir=/tmp/traces", "--test"]);
        let trace = traced.config.trace.as_ref().expect("trace config set");
        assert_eq!(trace.dir, Path::new("/tmp/traces"));
        assert_eq!(trace.instructions_per_core, TraceConfig::budget_for(RunLength::test()));
        assert!(cli(&[]).config.trace.is_none());
    }

    #[test]
    fn snapshot_dir_flag_configures_the_store() {
        let cli_with_store = cli(&["--snapshot-dir=/tmp/snaps"]);
        let store = cli_with_store.snapshots.as_ref().expect("snapshot store set");
        assert_eq!(store.dir(), Path::new("/tmp/snaps"));
        assert!(cli(&[]).snapshots.is_none());
    }

    #[test]
    fn engine_flag_selects_the_simulation_engine() {
        assert_eq!(cli(&[]).config.engine, EngineKind::Skip, "skip is the default engine");
        assert_eq!(cli(&["--engine=step"]).config.engine, EngineKind::Step);
        // Flag order must not matter: presets replace the config wholesale.
        assert_eq!(cli(&["--engine=step", "--test"]).config.engine, EngineKind::Step);
    }

    #[test]
    #[should_panic(expected = "--seed=N needs a number, got 'entropy'")]
    fn malformed_seed_flag_panics() {
        reject(&["--seed=entropy"]);
    }

    #[test]
    #[should_panic(expected = "--jobs=N needs a number, got 'lots'")]
    fn malformed_jobs_flag_panics() {
        reject(&["--jobs=lots"]);
    }

    #[test]
    #[should_panic(expected = "--cores=N needs a number, got '-1'")]
    fn malformed_cores_flag_panics() {
        reject(&["--cores=-1"]);
    }

    #[test]
    #[should_panic(expected = "at least one core is required")]
    fn zero_cores_is_a_usage_error() {
        reject(&["--test", "--cores=0"]);
    }

    #[test]
    #[should_panic(expected = "cores = 65 exceeds the 64-core cap")]
    fn too_many_cores_is_a_usage_error() {
        reject(&["--cores=65"]);
    }

    #[test]
    #[should_panic(expected = "unknown workload 'mcf'")]
    fn unknown_workload_panics() {
        reject(&["--workloads=lbm,mcf"]);
    }

    #[test]
    #[should_panic(expected = "unknown engine 'warp' (step|skip)")]
    fn unknown_engine_panics() {
        reject(&["--engine=warp"]);
    }

    #[test]
    #[should_panic(expected = "unknown format 'yaml' (text|json|csv)")]
    fn unknown_format_panics() {
        reject(&["--format=yaml"]);
    }

    /// The error names the first offending argument.
    #[test]
    #[should_panic(expected = "unknown argument '--frobnicate'")]
    fn unknown_flag_panics() {
        reject(&["--test", "--frobnicate", "--bogus"]);
    }

    /// `--sched=` is retired, so it is an unknown flag like any other.
    #[test]
    #[should_panic(expected = "unknown argument '--sched=scan'")]
    fn unknown_scheduler_panics() {
        reject(&["--test", "--sched=scan", "--bogus"]);
    }

    /// `--probe=` is retired, so it is an unknown flag like any other.
    #[test]
    #[should_panic(expected = "unknown argument '--probe=walk'")]
    fn unknown_probe_panics() {
        reject(&["--test", "--probe=walk", "--bogus"]);
    }

    #[test]
    fn mean_of_handles_empty_slices() {
        assert_eq!(mean_of(&[], |_| 1.0), 0.0);
    }
}

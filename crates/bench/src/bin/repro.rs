//! `repro` — the one-command reproduction driver.
//!
//! Runs the whole figure/table suite (or an `--only=fig10,tab06` subset) on
//! the shared parallel runner, writes one JSON + one CSV artifact per
//! experiment plus a top-level `summary.json` with baseline-vs-variant
//! deltas, and exits non-zero if any experiment panics. All the standard
//! experiment flags (`--test`/`--quick`/`--standard`, `--workloads=`,
//! `--jobs=`, ...) apply to every experiment in the suite:
//!
//! ```text
//! cargo run --release --bin repro -- --quick --out=results/
//! cargo run --release --bin repro -- --test --only=fig10,tab06 --out=/tmp/r
//! cargo run --release --bin repro -- --list
//! ```

use bard_bench::experiments::ALL;
use bard_bench::harness::{usage_error, Cli};
use bard_bench::repro::{run_suite, select, ExperimentOutcome};

const USAGE: &str = "usage: repro [--list] [--only=id1,id2] [--test|--quick|--standard] \
     [--singles|--mixes] [--workloads=a,b,c] [--cores=N] [--seed=N] \
     [--trace-dir=DIR] [--snapshot-dir=DIR] [--jobs=N] [--progress] \
     [--engine=step|skip] [--out=DIR]";

fn main() {
    let mut only: Option<String> = None;
    let mut passthrough = Vec::new();
    for arg in std::env::args().skip(1) {
        if let Some(list) = arg.strip_prefix("--only=") {
            only = Some(list.to_string());
        } else if arg.starts_with("--format=") {
            // Unlike the per-figure binaries, repro's stdout is the progress
            // log; the machine-readable output is the --out directory.
            usage_error(
                "repro: --format= is not supported; use --out=DIR for JSON/CSV artifacts",
                USAGE,
            );
        } else if arg == "--list" {
            list_experiments();
            return;
        } else if arg == "--help" || arg == "-h" {
            print_help();
            return;
        } else {
            passthrough.push(arg);
        }
    }
    let selected =
        select(only.as_deref()).unwrap_or_else(|e| usage_error(&format!("repro: {e}"), USAGE));
    let cli = Cli::from_args(passthrough.into_iter())
        .unwrap_or_else(|e| usage_error(&format!("repro: {e}"), USAGE));

    println!(
        "repro: {} experiment(s), cores={} policy-baseline={} workloads={} measure={} \
         instr/core jobs={}",
        selected.len(),
        cli.config.cores,
        cli.config.label(),
        cli.workloads.len(),
        cli.length.measure,
        cli.runner().threads(),
    );
    if let Some(dir) = &cli.out {
        println!("repro: writing artifacts to {}", dir.display());
    }

    let summary = run_suite(&cli, &selected, print_progress);

    println!(
        "repro: {}/{} ok in {:.1}s{}",
        summary.outcomes.len() - summary.failed(),
        summary.outcomes.len(),
        summary.provenance.wall_clock_seconds,
        cli.out
            .as_ref()
            .map(|d| format!(" — summary: {}", d.join("summary.json").display()))
            .unwrap_or_default(),
    );
    for outcome in summary.outcomes.iter().filter(|o| !o.ok()) {
        eprintln!(
            "repro: FAILED {}: {}",
            outcome.id,
            outcome.error.as_deref().unwrap_or("unknown panic")
        );
    }
    if summary.failed() > 0 {
        std::process::exit(1);
    }
}

fn print_progress(index: usize, total: usize, outcome: &ExperimentOutcome) {
    let status = if outcome.ok() { "ok" } else { "FAILED" };
    let headline = outcome
        .deltas
        .first()
        .map(|d| format!("  {} gmean {:+.2}%", d.label, d.gmean_speedup_percent))
        .unwrap_or_default();
    println!(
        "[{index:2}/{total}] {id:<6} {status:<6} {secs:7.1}s{headline}",
        id = outcome.id,
        secs = outcome.wall_clock_seconds,
    );
}

fn list_experiments() {
    println!("{:<6}  {:<14}  {:<36}  binary", "id", "display", "paper section");
    for e in ALL {
        println!("{:<6}  {:<14}  {:<36}  {}", e.id, e.display, e.section, e.bin);
    }
}

fn print_help() {
    println!(
        "{USAGE}\n\
         \n\
         Runs every registered figure/table experiment (see --list), writes one\n\
         JSON and one CSV artifact per experiment plus summary.json into --out,\n\
         and exits non-zero if any experiment panics. --progress streams\n\
         per-grid [bard-progress] percent/ETA lines to stderr; with\n\
         BARD_TELEMETRY=1 and --out, metrics.json/metrics.csv and the Chrome\n\
         trace-event trace_events.json land next to summary.json.\n\
         docs/RESULTS.md documents the artifact schema; docs/TRACES.md the\n\
         --trace-dir record/replay archive; docs/ARCHITECTURE.md the\n\
         --snapshot-dir warm-image store (config variants fork one warmed\n\
         image instead of re-warming)."
    );
}

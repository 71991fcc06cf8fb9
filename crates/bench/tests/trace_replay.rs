//! Replay-equivalence acceptance tests for the `bard-trace` subsystem.
//!
//! The contract behind `--trace-dir=DIR`: simulating from a recorded BTF
//! archive produces **bitwise-identical experiment results** — the same text
//! artifact bytes — as live generation, for every registry workload. Three
//! passes pin it down: live (no archive), recording (archive populated on
//! the fly), and replay (archive only). All three must render identical
//! artifact text.

use std::path::PathBuf;

use bard::{RunLength, TraceConfig};
use bard_bench::experiments::find;
use bard_bench::harness::Cli;
use bard_trace::TraceStore;
use bard_workloads::WorkloadId;

/// A scratch directory removed on drop.
struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> Self {
        let dir = std::env::temp_dir().join(format!("bard-replay-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        Self(dir)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Short runs keep 3 x 29 workload simulations affordable; equivalence is
/// about record streams, not measurement stability.
fn tiny() -> RunLength {
    RunLength { functional_warmup: 80_000, timed_warmup: 2_000, measure: 8_000 }
}

fn tiny_cli(workloads: &str, trace_dir: Option<&std::path::Path>) -> Cli {
    let mut args =
        vec!["--test".to_string(), format!("--workloads={workloads}"), "--jobs=1".to_string()];
    if let Some(dir) = trace_dir {
        args.push(format!("--trace-dir={}", dir.display()));
    }
    let mut cli = Cli::from_args(args.into_iter()).expect("valid arguments");
    cli.length = tiny();
    // Re-derive the budget for the shortened run length.
    if let Some(dir) = trace_dir {
        cli.config.trace = Some(TraceConfig::for_run_length(dir, cli.length));
    }
    cli
}

#[test]
fn every_registry_workload_replays_bitwise_identically() {
    let tmp = TempDir::new("all-workloads");
    let all: Vec<String> = WorkloadId::all().iter().map(|w| w.name().to_string()).collect();
    let list = all.join(",");

    // fig03 simulates one configuration over the workload set and tabulates
    // per-workload metrics — any per-record divergence shows up in its text.
    let live = find("fig03").unwrap().run_to_artifact(&tiny_cli(&list, None)).render_text();
    let recording =
        find("fig03").unwrap().run_to_artifact(&tiny_cli(&list, Some(&tmp.0))).render_text();
    assert!(tmp.0.read_dir().unwrap().count() > 0, "the recording pass populates the archive");
    let replay =
        find("fig03").unwrap().run_to_artifact(&tiny_cli(&list, Some(&tmp.0))).render_text();

    assert!(
        live == recording,
        "recording pass diverged from live generation:\n{}",
        diff_hint(&live, &recording)
    );
    assert!(
        live == replay,
        "replay pass diverged from live generation:\n{}",
        diff_hint(&live, &replay)
    );
    assert!(live.contains("lbm") && live.contains("mix5"), "artifact covers the registry");
}

#[test]
fn comparison_experiments_share_one_archive_across_configs() {
    // fig10 runs four configurations (baseline + three BARD variants) over
    // the same workloads; all of them must replay from the same per-core
    // trace files, concurrently, without disturbing each other.
    let tmp = TempDir::new("fig10");
    let live = find("fig10").unwrap().run_to_artifact(&tiny_cli("lbm,copy", None)).render_text();
    let recording =
        find("fig10").unwrap().run_to_artifact(&tiny_cli("lbm,copy", Some(&tmp.0))).render_text();
    let replay =
        find("fig10").unwrap().run_to_artifact(&tiny_cli("lbm,copy", Some(&tmp.0))).render_text();
    assert!(live == recording, "{}", diff_hint(&live, &recording));
    assert!(live == replay, "{}", diff_hint(&live, &replay));

    // One archive file per (workload, core): two workloads x two cores.
    let budget = TraceConfig::budget_for(tiny());
    let seed = tiny_cli("lbm", None).config.seed;
    for (workload, core) in [("lbm", 0), ("lbm", 1), ("copy", 0), ("copy", 1)] {
        let path = tmp.0.join(TraceStore::file_name(workload, core, seed, budget));
        assert!(path.exists(), "missing {}", path.display());
    }
    assert_eq!(tmp.0.read_dir().unwrap().count(), 4, "no stray temp files remain");
}

#[test]
fn parallel_replay_matches_serial_replay() {
    let tmp = TempDir::new("parallel");
    let mut serial = tiny_cli("lbm,copy,scale", Some(&tmp.0));
    serial.jobs = 1;
    let mut parallel = tiny_cli("lbm,copy,scale", Some(&tmp.0));
    parallel.jobs = 4;
    // The first (serial) run records; the parallel run replays concurrently.
    // Compare bodies: the banner legitimately differs in its jobs= field.
    let a = find("fig03").unwrap().run_to_artifact(&serial).render_text_body();
    let b = find("fig03").unwrap().run_to_artifact(&parallel).render_text_body();
    assert!(a == b, "{}", diff_hint(&a, &b));
}

fn diff_hint(a: &str, b: &str) -> String {
    for (i, (la, lb)) in a.lines().zip(b.lines()).enumerate() {
        if la != lb {
            return format!("first differing line {}: {la:?} vs {lb:?}", i + 1);
        }
    }
    format!("line counts differ: {} vs {}", a.lines().count(), b.lines().count())
}

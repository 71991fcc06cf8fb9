//! Warm-fork equivalence acceptance tests for the snapshot subsystem.
//!
//! The contract behind `--snapshot-dir=DIR`: a comparison grid that forks
//! every configuration variant from **one** warmed BSS1 image produces
//! **bitwise-identical experiment artifacts** — the same text bytes — as
//! cold per-cell runs that each re-simulate the functional warm-up. Pinned
//! across serial and `--jobs=4` execution and across live generation and
//! `--trace-dir` replay, on the fig10-style four-configuration grid
//! (baseline + three BARD variants).

use std::path::PathBuf;

use bard::{RunLength, SnapshotStore, System, SystemConfig, TraceConfig};
use bard_bench::experiments::find;
use bard_bench::harness::Cli;
use bard_workloads::WorkloadId;

/// A scratch directory removed on drop.
struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> Self {
        let dir = std::env::temp_dir().join(format!("bard-snapfork-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        Self(dir)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Short but warm-up-heavy runs: equivalence is about restored cache state,
/// so the functional warm-up dominates on purpose.
fn tiny() -> RunLength {
    RunLength { functional_warmup: 80_000, timed_warmup: 2_000, measure: 8_000 }
}

fn tiny_cli(
    workloads: &str,
    jobs: usize,
    snapshot_dir: Option<&std::path::Path>,
    trace_dir: Option<&std::path::Path>,
) -> Cli {
    let mut args =
        vec!["--test".to_string(), format!("--workloads={workloads}"), format!("--jobs={jobs}")];
    if let Some(dir) = snapshot_dir {
        args.push(format!("--snapshot-dir={}", dir.display()));
    }
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
fn warm_forked_fig10_grid_matches_cold_grid_bitwise() {
    let tmp = TempDir::new("fig10");
    let cold =
        find("fig10").unwrap().run_to_artifact(&tiny_cli("lbm,copy", 1, None, None)).render_text();
    // First snapshot pass warms live and publishes the images; the second
    // restores from them. All three artifacts must be byte-identical.
    let capturing = find("fig10")
        .unwrap()
        .run_to_artifact(&tiny_cli("lbm,copy", 1, Some(&tmp.0), None))
        .render_text();
    let forked = find("fig10")
        .unwrap()
        .run_to_artifact(&tiny_cli("lbm,copy", 1, Some(&tmp.0), None))
        .render_text();
    assert!(
        cold == capturing,
        "capture pass diverged from cold runs:\n{}",
        diff_hint(&cold, &capturing)
    );
    assert!(
        cold == forked,
        "warm-forked pass diverged from cold runs:\n{}",
        diff_hint(&cold, &forked)
    );

    // All four fig10 configurations of one workload differ only in writeback
    // policy, which the warm digest deliberately ignores — so the whole grid
    // shares one image per workload.
    let images: Vec<String> =
        tmp.0.read_dir().unwrap().map(|e| e.unwrap().file_name().into_string().unwrap()).collect();
    let mut bss: Vec<&String> = images.iter().filter(|n| n.ends_with(".bss")).collect();
    bss.sort();
    assert_eq!(bss.len(), 2, "one shared warm image per workload, found {images:?}");
    assert!(bss[0].starts_with("copy.w") && bss[1].starts_with("lbm.w"), "{images:?}");
    assert_eq!(images.len(), 2, "no stray temp files remain: {images:?}");
}

#[test]
fn parallel_warm_fork_matches_serial_warm_fork() {
    let tmp = TempDir::new("parallel");
    let workloads: Vec<String> =
        WorkloadId::singles().iter().take(3).map(|w| w.name().to_string()).collect();
    let list = workloads.join(",");
    // The first (serial) run captures; the parallel run forks the published
    // images concurrently. Compare bodies: the banner legitimately differs
    // in its jobs= field.
    let serial = find("fig10")
        .unwrap()
        .run_to_artifact(&tiny_cli(&list, 1, Some(&tmp.0), None))
        .render_text_body();
    let parallel = find("fig10")
        .unwrap()
        .run_to_artifact(&tiny_cli(&list, 4, Some(&tmp.0), None))
        .render_text_body();
    assert!(serial == parallel, "{}", diff_hint(&serial, &parallel));
}

#[test]
fn warm_fork_composes_with_trace_replay() {
    let snaps = TempDir::new("with-traces");
    let traces = TempDir::new("trace-archive");
    // Live cold reference, then a recording cold pass to populate the trace
    // archive, then a warm-forked replay pass using both directories: every
    // combination must render the same bytes.
    let cold =
        find("fig10").unwrap().run_to_artifact(&tiny_cli("lbm,copy", 1, None, None)).render_text();
    let recorded = find("fig10")
        .unwrap()
        .run_to_artifact(&tiny_cli("lbm,copy", 1, None, Some(&traces.0)))
        .render_text();
    let warm_replay = find("fig10")
        .unwrap()
        .run_to_artifact(&tiny_cli("lbm,copy", 1, Some(&snaps.0), Some(&traces.0)))
        .render_text();
    let warm_replay_again = find("fig10")
        .unwrap()
        .run_to_artifact(&tiny_cli("lbm,copy", 1, Some(&snaps.0), Some(&traces.0)))
        .render_text();
    assert!(cold == recorded, "{}", diff_hint(&cold, &recorded));
    assert!(
        cold == warm_replay,
        "warm fork over trace replay diverged:\n{}",
        diff_hint(&cold, &warm_replay)
    );
    assert!(
        cold == warm_replay_again,
        "warm-image reuse over trace replay diverged:\n{}",
        diff_hint(&cold, &warm_replay_again)
    );
}

#[test]
fn warm_restore_over_an_undersized_archive_matches_a_cold_live_run() {
    let snaps = TempDir::new("undersized-snaps");
    let traces = TempDir::new("undersized-traces");
    let length = tiny();
    let workload = WorkloadId::Lbm;
    let live = SystemConfig::small_test();
    // The archive covers a quarter of the functional warm-up, so the
    // capture's warm-up and the restore's fast-forward both cross its end
    // into the live fallback.
    let archived =
        live.clone().with_trace(Some(TraceConfig::new(&traces.0, length.functional_warmup / 4)));
    let cold = System::new(live, workload).run(
        length.functional_warmup,
        length.timed_warmup,
        length.measure,
    );
    let store = SnapshotStore::new(&snaps.0);
    let warm_run = || {
        let mut system =
            store.obtain_warm(&archived, workload, length.functional_warmup).expect("warm image");
        system.run(0, length.timed_warmup, length.measure)
    };
    let captured = warm_run();
    let images = snaps.0.read_dir().expect("the capture publishes an image").count();
    assert_eq!(images, 1, "the second pass must restore the captured image");
    let restored = warm_run();
    assert_eq!(captured, cold, "capture over an undersized archive diverged from the cold run");
    assert_eq!(restored, cold, "restore over an undersized archive diverged from the cold run");
}

fn diff_hint(a: &str, b: &str) -> String {
    for (i, (la, lb)) in a.lines().zip(b.lines()).enumerate() {
        if la != lb {
            return format!("first differing line {}: {la:?} vs {lb:?}", i + 1);
        }
    }
    format!("line counts differ: {} vs {}", a.lines().count(), b.lines().count())
}

//! Quickstart: simulate one write-intensive workload (`lbm`) on the Table II
//! baseline system, then again with BARD-H, and print the metrics the paper
//! reports: speedup, write bank-level parallelism, and time spent writing.
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example quickstart [workload] [--out=DIR]
//! ```
//!
//! `--out=DIR` additionally writes a `quickstart.json` / `quickstart.csv`
//! artifact in the schema of `docs/RESULTS.md`.

use bard::experiment::{Comparison, RunLength};
use bard::runner::Runner;
use bard::{speedup_percent, SystemConfig, WritePolicyKind};
use bard_workloads::WorkloadId;

fn main() {
    let mut workload = WorkloadId::Lbm;
    let mut out = None;
    for arg in std::env::args().skip(1) {
        if let Some(dir) = arg.strip_prefix("--out=") {
            out = Some(std::path::PathBuf::from(dir));
        } else if let Some(w) = WorkloadId::from_name(&arg) {
            workload = w;
        }
    }
    let length = RunLength::quick();

    println!("workload: {workload}");
    println!(
        "run length: {} functional warmup + {} timed warmup + {} measured instructions/core",
        length.functional_warmup, length.timed_warmup, length.measure
    );

    let baseline_cfg = SystemConfig::baseline_8core();
    let bard_cfg = baseline_cfg.clone().with_policy(WritePolicyKind::BardH);

    let start = std::time::Instant::now();
    // Both configurations run concurrently on the default runner.
    let variants = std::slice::from_ref(&bard_cfg);
    let cmp =
        Comparison::run_many(&Runner::default(), &baseline_cfg, variants, &[workload], length)
            .remove(0);
    let elapsed = start.elapsed();
    let (baseline, bard) = (&cmp.baseline[0], &cmp.test[0]);

    println!();
    println!("                        baseline    BARD-H");
    println!("IPC (sum over cores)    {:8.3}  {:8.3}", baseline.ipc_sum(), bard.ipc_sum());
    println!("LLC MPKI                {:8.1}  {:8.1}", baseline.mpki(), bard.mpki());
    println!("LLC WPKI                {:8.1}  {:8.1}", baseline.wpki(), bard.wpki());
    println!("write BLP (of 32)       {:8.1}  {:8.1}", baseline.write_blp(), bard.write_blp());
    println!(
        "time spent writing (%)  {:8.1}  {:8.1}",
        baseline.write_time_fraction() * 100.0,
        bard.write_time_fraction() * 100.0
    );
    println!(
        "write-to-write (ns)     {:8.2}  {:8.2}",
        baseline.mean_write_to_write_ns(),
        bard.mean_write_to_write_ns()
    );
    let p = &bard.policy_stats;
    println!();
    println!(
        "BARD-H decisions: {} evictions, {} overrides ({:.1}%), {} cleanses ({:.1}%)",
        p.evictions,
        p.overrides,
        p.override_fraction() * 100.0,
        p.cleanses,
        p.cleanse_fraction() * 100.0
    );
    println!(
        "BLP-Tracker accuracy: {:.1}% of decisions targeted a bank with a pending write",
        p.incorrect_decision_fraction() * 100.0
    );
    println!();
    println!("speedup of BARD-H over baseline: {:+.2}%", speedup_percent(bard, baseline));
    println!("(simulated both configurations in {:.1}s)", elapsed.as_secs_f64());

    if let Some(dir) = out {
        let (json, csv) = bard_bench::harness::write_example_artifact(
            &dir,
            "quickstart",
            "Quickstart",
            "baseline vs BARD-H",
            &baseline_cfg,
            &[workload],
            length,
            None,
            std::slice::from_ref(&cmp),
        )
        .expect("write quickstart artifacts");
        println!("wrote {} and {}", dir.join(json).display(), dir.join(csv).display());
    }
}

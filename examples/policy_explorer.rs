//! Policy explorer: compare every LLC writeback policy (baseline, BARD-E,
//! BARD-C, BARD-H, Eager Writeback, Virtual Write Queue) on a single workload
//! and show the trade-offs the paper discusses — extra misses vs extra
//! write-backs vs bank-level parallelism.
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example policy_explorer [workload] [--out=DIR]
//! ```
//!
//! `--out=DIR` additionally writes a `policy_explorer.json` / `.csv`
//! artifact in the schema of `docs/RESULTS.md`.

use bard::experiment::{Comparison, RunLength};
use bard::report::Table;
use bard::runner::Runner;
use bard::{speedup_percent, SystemConfig, WritePolicyKind};
use bard_workloads::WorkloadId;

fn main() {
    let mut workload = WorkloadId::Bc;
    let mut out = None;
    for arg in std::env::args().skip(1) {
        if let Some(dir) = arg.strip_prefix("--out=") {
            out = Some(std::path::PathBuf::from(dir));
        } else if let Some(w) = WorkloadId::from_name(&arg) {
            workload = w;
        }
    }
    let length = RunLength::quick();
    let baseline_cfg = SystemConfig::baseline_8core();

    println!("Exploring LLC writeback policies on '{workload}' (8-core DDR5 baseline)\n");

    let policies = [
        WritePolicyKind::Baseline,
        WritePolicyKind::BardE,
        WritePolicyKind::BardC,
        WritePolicyKind::BardH,
        WritePolicyKind::EagerWriteback,
        WritePolicyKind::VirtualWriteQueue,
    ];
    // All six policies run as one parallel grid; the baseline is simulated
    // once and serves as both a table row and the speedup reference.
    let variants: Vec<_> =
        policies[1..].iter().map(|&p| baseline_cfg.clone().with_policy(p)).collect();
    let comparisons =
        Comparison::run_many(&Runner::default(), &baseline_cfg, &variants, &[workload], length);
    let baseline = &comparisons[0].baseline[0];

    let mut table = Table::new(vec![
        "policy",
        "speedup %",
        "MPKI",
        "WPKI",
        "BLP",
        "W%",
        "overrides",
        "cleanses",
    ]);
    let results = std::iter::once(baseline).chain(comparisons.iter().map(|cmp| &cmp.test[0]));
    for (policy, result) in policies.iter().zip(results) {
        table.push_row(vec![
            policy.label().to_string(),
            format!("{:+.2}", speedup_percent(result, baseline)),
            format!("{:.1}", result.mpki()),
            format!("{:.1}", result.wpki()),
            format!("{:.1}", result.write_blp()),
            format!("{:.1}", result.write_time_fraction() * 100.0),
            result.policy_stats.overrides.to_string(),
            result.policy_stats.cleanses.to_string(),
        ]);
    }
    println!("{}", table.render());
    println!("BARD-E trades extra misses for bank-parallel write-backs; BARD-C trades extra");
    println!("write-backs; BARD-H combines both. EW and VWQ are the bank-unaware prior work.");

    if let Some(dir) = out {
        let (json, csv) = bard_bench::harness::write_example_artifact(
            &dir,
            "policy_explorer",
            "Policy explorer",
            "every LLC writeback policy on one workload",
            &baseline_cfg,
            &[workload],
            length,
            Some(table),
            &comparisons,
        )
        .expect("write policy_explorer artifacts");
        println!("wrote {} and {}", dir.join(json).display(), dir.join(csv).display());
    }
}

//! Graph-analytics scenario: run the LIGRA-style kernels (the irregular,
//! pointer-heavy half of the paper's workload list) and compare every BARD
//! variant, showing where eviction-based and cleansing-based decisions each
//! pay off.
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example graph_analytics [--quick] [--out=DIR]
//! ```
//!
//! `--out=DIR` additionally writes a `graph_analytics.json` / `.csv`
//! artifact in the schema of `docs/RESULTS.md`.

use bard::experiment::{Comparison, RunLength};
use bard::report::Table;
use bard::runner::Runner;
use bard::{SystemConfig, WritePolicyKind};
use bard_workloads::{Suite, WorkloadId};

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let out = std::env::args()
        .skip(1)
        .find_map(|arg| arg.strip_prefix("--out=").map(std::path::PathBuf::from));
    let length = if quick { RunLength::test() } else { RunLength::quick() };
    let workloads: Vec<WorkloadId> =
        WorkloadId::singles().iter().copied().filter(|w| w.suite() == Suite::Ligra).collect();

    let baseline_cfg = SystemConfig::baseline_8core();
    let policies = [WritePolicyKind::BardE, WritePolicyKind::BardC, WritePolicyKind::BardH];
    let variants: Vec<_> = policies.iter().map(|&p| baseline_cfg.clone().with_policy(p)).collect();

    // One parallel grid: the baseline runs once and is shared by all three
    // variant comparisons.
    let comparisons =
        Comparison::run_many(&Runner::default(), &baseline_cfg, &variants, &workloads, length);

    let mut table = Table::new(vec![
        "workload", "MPKI", "WPKI", "BLP", "W%", "BARD-E %", "BARD-C %", "BARD-H %",
    ]);
    let speedups: Vec<_> = comparisons.iter().map(Comparison::speedups_percent).collect();
    for (wi, base) in comparisons[0].baseline.iter().enumerate() {
        let mut row = vec![
            base.workload.name().to_string(),
            format!("{:.1}", base.mpki()),
            format!("{:.1}", base.wpki()),
            format!("{:.1}", base.write_blp()),
            format!("{:.1}", base.write_time_fraction() * 100.0),
        ];
        for per_policy in &speedups {
            row.push(format!("{:+.2}", per_policy[wi].1));
        }
        table.push_row(row);
    }

    println!("LIGRA graph kernels: baseline characterisation and BARD variant speedups\n");
    println!("{}", table.render());
    println!("Write-heavy kernels (bc, cf, radii) benefit most; read-dominated ones");
    println!("(bellmanford, pagerank) see smaller gains because writes are rarer.");

    if let Some(dir) = out {
        let (json, csv) = bard_bench::harness::write_example_artifact(
            &dir,
            "graph_analytics",
            "Graph analytics",
            "LIGRA kernels under every BARD variant",
            &baseline_cfg,
            &workloads,
            length,
            Some(table),
            &comparisons,
        )
        .expect("write graph_analytics artifacts");
        println!("wrote {} and {}", dir.join(json).display(), dir.join(csv).display());
    }
}

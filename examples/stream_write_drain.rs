//! STREAM write-drain anatomy: run the four STREAM kernels and show how the
//! DDR5 write queue behaves — drain episodes, bank-level parallelism, time
//! spent with the bus turned around for writes — with and without BARD.
//!
//! This is the scenario the paper's introduction motivates: streaming
//! workloads push a steady write-back stream into the memory controller, and
//! the latency of draining it is set by how many banks the writes cover.
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example stream_write_drain [--out=DIR]
//! ```
//!
//! `--out=DIR` additionally writes a `stream_write_drain.json` / `.csv`
//! artifact in the schema of `docs/RESULTS.md`.

use bard::experiment::{Comparison, RunLength};
use bard::report::Table;
use bard::runner::Runner;
use bard::{speedup_percent, SystemConfig, WritePolicyKind};
use bard_workloads::WorkloadId;

fn main() {
    let out = std::env::args()
        .skip(1)
        .find_map(|arg| arg.strip_prefix("--out=").map(std::path::PathBuf::from));
    let kernels = [WorkloadId::Copy, WorkloadId::Scale, WorkloadId::Add, WorkloadId::Triad];
    let length = RunLength::quick();
    let baseline_cfg = SystemConfig::baseline_8core();
    let bard_cfg = baseline_cfg.clone().with_policy(WritePolicyKind::BardH);

    // All eight (config, kernel) simulations run as one parallel grid.
    let variants = std::slice::from_ref(&bard_cfg);
    let cmp = Comparison::run_many(&Runner::default(), &baseline_cfg, variants, &kernels, length)
        .remove(0);

    let mut table = Table::new(vec![
        "kernel",
        "drains",
        "writes/drain",
        "BLP base",
        "BLP BARD",
        "W% base",
        "W% BARD",
        "speedup %",
    ]);

    for (base, bard) in cmp.baseline.iter().zip(&cmp.test) {
        let writes_per_drain = if base.dram_stats.drain_episodes > 0 {
            base.dram_stats.drain_writes as f64 / base.dram_stats.drain_episodes as f64
        } else {
            0.0
        };
        table.push_row(vec![
            base.workload.name().to_string(),
            base.dram_stats.drain_episodes.to_string(),
            format!("{writes_per_drain:.1}"),
            format!("{:.1}", base.write_blp()),
            format!("{:.1}", bard.write_blp()),
            format!("{:.1}", base.write_time_fraction() * 100.0),
            format!("{:.1}", bard.write_time_fraction() * 100.0),
            format!("{:+.2}", speedup_percent(bard, base)),
        ]);
    }

    println!("STREAM kernels on the 8-core DDR5 baseline vs BARD-H\n");
    println!("{}", table.render());
    println!("Each drain episode services ~32 writes (high watermark 40 -> low watermark 8).");
    println!("BARD raises the number of distinct banks those writes cover, shortening the");
    println!("episode and returning the bus to reads sooner.");

    if let Some(dir) = out {
        let (json, csv) = bard_bench::harness::write_example_artifact(
            &dir,
            "stream_write_drain",
            "STREAM write drain",
            "write-drain anatomy of the STREAM kernels",
            &baseline_cfg,
            &kernels,
            length,
            Some(table),
            std::slice::from_ref(&cmp),
        )
        .expect("write stream_write_drain artifacts");
        println!("wrote {} and {}", dir.join(json).display(), dir.join(csv).display());
    }
}

//! # bard — Bank-Aware Replacement Decisions for DDR5 (HPCA 2026 reproduction)
//!
//! This crate implements the paper's contribution and ties the substrate
//! crates together into a full-system simulator:
//!
//! * [`BlpTracker`] — the 8-byte-per-channel bank bitmap BARD consults
//!   (Section IV-A),
//! * [`SlicedLlc`] — the shared LLC with the BARD-E / BARD-C / BARD-H
//!   writeback policies and the Eager Writeback / Virtual Write Queue
//!   prior-work baselines (Sections IV–VI),
//! * [`SystemConfig`] / [`System`] — the Table II baseline system: 8 OoO-lite
//!   cores, private L1D/L2, the sliced LLC, and one DDR5-4800 channel with
//!   two sub-channels,
//! * [`experiment`] / [`metrics`] / [`report`] — drivers and metrics for
//!   regenerating every table and figure of the evaluation, plus the
//!   structured results pipeline: provenance-stamped
//!   [`Artifact`]s serialized to JSON/CSV under the
//!   versioned schema of [`report::schema`] (see `docs/RESULTS.md`),
//! * [`runner`] — the parallel grid executor every multi-run driver fans out
//!   on: a scoped `std::thread` pool that runs independent
//!   `(configuration, workload)` simulations concurrently while returning
//!   results in deterministic job order (see [`runner::Runner::run_grid`]).
//!   The worker count comes from `--jobs=N` in the experiment binaries, the
//!   `BARD_JOBS` environment variable, or the host's available parallelism,
//!   and never changes a metric — a parallel grid is bitwise-identical to a
//!   serial one,
//! * [`telemetry`] — unified observability: the static metrics registry, the
//!   simulated-time event tracer (Chrome trace-event JSON), the grid
//!   progress meter and the model-phase self-profiler. Telemetry never
//!   perturbs the simulation: enabling it changes no result bit or artifact
//!   byte (pinned by the differential-stress suite).
//!
//! ## Quick start
//!
//! ```no_run
//! use bard::{RunLength, SystemConfig, WritePolicyKind};
//! use bard::experiment::Comparison;
//! use bard_workloads::WorkloadId;
//!
//! let baseline = SystemConfig::baseline_8core();
//! let bard = baseline.clone().with_policy(WritePolicyKind::BardH);
//! let cmp = Comparison::run(&baseline, &bard, &[WorkloadId::Lbm], RunLength::quick());
//! println!("lbm speedup: {:.1}%", cmp.speedups_percent()[0].1);
//! ```
//!
//! The LLC policies can also be exercised directly, without a full system:
//!
//! ```
//! use bard::{SlicedLlc, WritePolicyKind};
//! use bard_cache::ReplacementKind;
//! use bard_dram::DramConfig;
//!
//! let dram = DramConfig::ddr5_4800_x4();
//! let mut llc = SlicedLlc::new(
//!     1 << 20, 16, 64, 4, ReplacementKind::Lru, WritePolicyKind::BardH, &dram,
//! );
//! let mut writebacks = Vec::new();
//! let mut oracle = |_addr: u64| false;
//! llc.fill(0x4000, 0, true, &mut writebacks, &mut oracle);
//! assert!(llc.probe(0x4000));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod blp_tracker;
pub mod config;
pub mod experiment;
pub mod llc;
pub mod metrics;
pub mod policy;
pub mod report;
pub mod runner;
pub mod snapshot;
pub mod system;
pub mod telemetry;

pub use blp_tracker::BlpTracker;
pub use config::{EngineKind, SystemConfig, TraceConfig};
pub use experiment::{Comparison, RunLength};
pub use llc::SlicedLlc;
pub use metrics::{geomean, geomean_speedup_percent, speedup_percent, RunResult};
pub use policy::{PolicyStats, WritePolicyKind};
pub use report::{Artifact, Provenance, RunRecord};
pub use runner::{Job, Runner};
pub use snapshot::{Snapshot, SnapshotError, SnapshotStore};
pub use system::{RunOutcome, System};
pub use telemetry::{Metric, MetricKind, Phase, Progress};

// Re-export the substrate crates so downstream users need a single dependency.
pub use bard_cache as cache;
pub use bard_cpu as cpu;
pub use bard_dram as dram;
pub use bard_trace as trace;
pub use bard_workloads as workloads;

//! # bard-bench — benchmark harness for the BARD reproduction
//!
//! This crate hosts:
//!
//! * one experiment binary per table/figure of the paper (`src/bin/`), each a
//!   thin wrapper around the [`experiments`] registry,
//! * the `repro` orchestrator binary, which runs the whole suite (or an
//!   `--only=` subset) and writes JSON/CSV artifacts plus a `summary.json`
//!   (see [`repro`] and `docs/RESULTS.md`),
//! * the `trace` binary for recording, inspecting, importing and verifying
//!   BTF trace archives (see [`tracecli`] and `docs/TRACES.md`),
//! * Criterion micro-benchmarks of the simulator building blocks (`benches/`),
//! * shared command-line and output helpers in [`harness`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod differential;
pub mod experiments;
pub mod harness;
pub mod repro;
pub mod tracecli;

// Re-export the core observability subsystem so bench consumers (experiment
// binaries, integration tests) address one crate.
pub use bard::telemetry;

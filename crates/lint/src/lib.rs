//! `bard-lint` — in-tree static analysis for the BARD reproduction.
//!
//! The repo's value proposition is bitwise reproducibility across engines,
//! snapshots and replays. The dynamic parity suites
//! check that on the inputs they run; these passes enforce the underlying
//! source-level invariants on *every* line:
//!
//! | code | pass | invariant |
//! |------|------|-----------|
//! | `D1` | determinism | no randomized hashing, wall clocks, env reads or float accumulation in model code |
//! | `S1` | snapshot-coverage | every field of a snapshot-participating struct is serialized or annotated ephemeral |
//! | `T1` | telemetry-purity | telemetry is write-only from the model; leaf crates use fn-pointer probes |
//! | `R1` | reference-twin-registry | every fast-path enum variant is crossed in `all_paths()` |
//! | `U1` | forbid-unsafe | every crate root carries `#![forbid(unsafe_code)]` |
//! | `A1` | (driver) | allow annotation that suppresses nothing |
//! | `A2` | (driver) | malformed annotation (unknown code, missing justification) |
//!
//! Findings are suppressed line-by-line with
//! `// bard-lint: allow(<code>) -- <justification>`; see `docs/LINTS.md`.
//!
//! The crate has no dependencies: a hand-rolled lexer ([`source`]) and item
//! scanner ([`items`]) stand in for a real parser, which is exactly enough
//! for lexical invariants and keeps the tool building offline.

#![forbid(unsafe_code)]

pub mod allow;
pub mod findings;
pub mod items;
pub mod passes;
pub mod source;
pub mod workspace;

pub use findings::{Finding, Report, Severity};
pub use passes::run_all;
pub use workspace::Workspace;

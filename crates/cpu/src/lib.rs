//! # bard-cpu — trace-driven OoO-lite core model
//!
//! A deliberately lightweight out-of-order core model for the BARD (HPCA
//! 2026) reproduction. It models the aspects of the Table II cores that the
//! study is sensitive to — a 512-entry reorder buffer, 4-wide dispatch and
//! retire, in-order retirement that blocks on outstanding loads, and a finite
//! store buffer — while leaving instruction semantics to the trace.
//!
//! The crate has two halves:
//!
//! * [`trace`]: the [`TraceRecord`]/[`TraceSource`] trace representation
//!   consumed by the core and produced by the `bard-workloads` generators,
//! * [`core`]: the [`Core`] model itself, which issues [`CoreRequest`]s to a
//!   memory hierarchy supplied by the caller.
//!
//! ## Example
//!
//! ```
//! use bard_cpu::{Core, CoreConfig, CoreRequest, TraceRecord, VecTrace};
//!
//! let mut core = Core::new(CoreConfig::baseline());
//! let mut trace = VecTrace::new("demo", vec![TraceRecord::compute(0x400, 3)]);
//! // A memory hierarchy that accepts everything instantly.
//! let mut issue = |_req: CoreRequest| true;
//! for _ in 0..100 {
//!     core.cycle(&mut trace, &mut issue);
//! }
//! assert!(core.stats().ipc() > 3.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod core;
pub mod trace;

pub use crate::core::{Core, CoreConfig, CoreRequest, CoreStats};
pub use crate::trace::{skip_by_reading, MemAccess, MemKind, TraceRecord, TraceSource, VecTrace};

//! # bard-dram — cycle-level DDR5 memory model
//!
//! This crate implements the DDR5 memory substrate used by the BARD
//! (Bank-Aware Replacement Decisions, HPCA 2026) reproduction. It models the
//! structures and timing behaviours that the paper's evaluation depends on:
//!
//! * the DDR5 topology — channels, two independent **sub-channels** per
//!   channel, eight **bank groups** of four **banks** each (32 banks per
//!   sub-channel, 64 per channel),
//! * the DDR5-4800 timing constraints of Table I of the paper, including the
//!   bank-group write-to-write penalty (`tCCD_L_WR`) that motivates BARD,
//! * a per-sub-channel memory controller with a read queue and a write queue,
//!   high/low watermark write-drain episodes, FR-FCFS scheduling with read
//!   priority, and a greedy lowest-latency-first write scheduler,
//! * the AMD-Zen physical address mapping with permutation-based page
//!   interleaving (PBPL),
//! * per-drain-episode statistics: write bank-level parallelism (BLP), time
//!   spent in write mode, and write-to-write delays, plus a simple energy
//!   model.
//!
//! The crate is deliberately independent of the cache and CPU models: it
//! accepts [`request::MemRequest`]s and reports completions, so it can be
//! unit-tested (and micro-benchmarked) in isolation.
//!
//! ## Example
//!
//! ```
//! use bard_dram::{DramConfig, MemoryController, MemRequest, RequestKind};
//!
//! let config = DramConfig::ddr5_4800_x4();
//! let mut mc = MemoryController::new(&config, 0);
//! // Enqueue a read for physical address 0x4000 issued by core 0.
//! let req = MemRequest::new(1, RequestKind::Read, 0x4000, 0);
//! assert!(mc.try_enqueue(req, 0).is_ok());
//! let mut done = Vec::new();
//! for cycle in 0..2_000 {
//!     mc.tick(cycle);
//!     mc.drain_completed(cycle, &mut done);
//! }
//! assert_eq!(done.len(), 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod address;
pub mod bank;
pub mod config;
pub mod controller;
pub mod power;
pub mod request;
pub mod stats;
pub mod subchannel;
pub mod timing;

pub use address::{AddressMapping, DecodedAddr, MappingScheme};
pub use bank::BankState;
pub use config::{DramConfig, PagePolicy};
pub use controller::MemoryController;
pub use power::{EnergyBreakdown, PowerModel};
pub use request::{CompletedRead, EnqueueError, MemRequest, RequestId, RequestKind};
pub use stats::{DrainEpisodeStats, SubChannelStats};
pub use subchannel::SubChannel;
pub use timing::{TimingParams, CPU_FREQ_MHZ, DRAM_FREQ_MHZ};

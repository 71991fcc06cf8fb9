//! # bard-cache — cache substrate for the BARD reproduction
//!
//! Generic set-associative cache structures used to build the three-level
//! hierarchy of the paper's baseline (Table II): L1D, L2 and a sliced LLC.
//!
//! The crate provides:
//!
//! * [`SetAssocCache`]: a set-associative cache with per-line dirty bits and
//!   explicit *primitives* (probe / evict / cleanse / fill-at-way) so that
//!   higher-level writeback policies — BARD-E/C/H, Eager Writeback, Virtual
//!   Write Queue — can be layered on top without the cache knowing about
//!   DRAM geometry. It keeps a tag per way and one 16-byte [`SetWord`] per
//!   set (up to [`MAX_WAYS`] ways): the replacement field plus the valid,
//!   dirty, prefetched and reused masks. Two operations do a lookup and its
//!   miss's fill in one set visit: [`SetAssocCache::access`] (`touch`, then
//!   `fill` on a miss) and [`SetAssocCache::write_back`]
//!   (`writeback_access`, then a dirty `fill` on a miss),
//! * replacement policies ([`ReplacementKind`]): true LRU, SRRIP (2-bit
//!   RRPV) and SHiP (signature-based hit prediction), all exposing the
//!   *eviction order* BARD scans (LRU→MRU, or highest→lowest RRPV), which
//!   they decode from the set word's replacement field,
//! * a [`MshrFile`] for tracking outstanding misses with request merging,
//! * simple prefetchers (IP-stride and next-line) standing in for the
//!   paper's Berti and SPP prefetchers,
//! * per-cache [`CacheStats`].
//!
//! ## Example
//!
//! ```
//! use bard_cache::{CacheConfig, SetAssocCache, ReplacementKind};
//!
//! let mut l1 = SetAssocCache::new(CacheConfig::new(48 * 1024, 12, 64), ReplacementKind::Lru);
//! assert!(!l1.touch(0x1000, 0, false)); // cold miss
//! let fill = l1.fill(0x1000, false, 0);
//! assert!(fill.evicted.is_none());
//! assert!(l1.touch(0x1000, 0, false)); // now a hit
//! // The same miss and fill in one set visit: a store miss installs 0x2000 dirty.
//! assert_eq!(l1.access(0x2000, 0, true), (false, None));
//! assert_eq!(l1.dirty_count(), 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod block;
pub mod cache;
pub mod mshr;
pub mod prefetch;
pub mod replacement;
pub mod stats;

pub use block::{EvictedLine, SetWord, MAX_WAYS};
pub use cache::{CacheConfig, FillResult, SetAssocCache};
pub use mshr::{MshrError, MshrFile};
pub use prefetch::{IpStridePrefetcher, NextLinePrefetcher, Prefetcher};
pub use replacement::{Replacement, ReplacementKind};
pub use stats::CacheStats;

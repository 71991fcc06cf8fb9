//! Per-cache statistics.

use bard_image::{ImageError, Io};

/// Counters kept by every cache level.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Demand load lookups.
    pub loads: u64,
    /// Demand load hits.
    pub load_hits: u64,
    /// Demand store lookups.
    pub stores: u64,
    /// Demand store hits.
    pub stores_hits: u64,
    /// Write-back lookups arriving from an inner level.
    pub writeback_accesses: u64,
    /// Lines filled into the cache.
    pub fills: u64,
    /// Evictions of clean lines.
    pub clean_evictions: u64,
    /// Evictions of dirty lines (each produces a write-back to the next level).
    pub dirty_evictions: u64,
    /// Proactive cleanses: dirty lines written back without eviction
    /// (BARD-C, Eager Writeback, Virtual Write Queue).
    pub cleanses: u64,
    /// Prefetch fills.
    pub prefetch_fills: u64,
    /// Demand hits on lines originally brought in by a prefetch.
    pub prefetch_useful: u64,
}

impl CacheStats {
    /// Total demand accesses (loads + stores).
    #[must_use]
    pub fn demand_accesses(&self) -> u64 {
        self.loads + self.stores
    }

    /// Total demand hits.
    #[must_use]
    pub fn demand_hits(&self) -> u64 {
        self.load_hits + self.stores_hits
    }

    /// Total demand misses.
    #[must_use]
    pub fn demand_misses(&self) -> u64 {
        self.demand_accesses() - self.demand_hits()
    }

    /// Demand miss ratio in [0, 1]; 0 when there were no accesses.
    #[must_use]
    pub fn miss_ratio(&self) -> f64 {
        if self.demand_accesses() == 0 {
            0.0
        } else {
            self.demand_misses() as f64 / self.demand_accesses() as f64
        }
    }

    /// Total write-backs produced by this cache (dirty evictions + cleanses).
    #[must_use]
    pub fn writebacks_produced(&self) -> u64 {
        self.dirty_evictions + self.cleanses
    }

    /// Merges another cache's counters into this one.
    pub fn merge(&mut self, other: &CacheStats) {
        self.loads += other.loads;
        self.load_hits += other.load_hits;
        self.stores += other.stores;
        self.stores_hits += other.stores_hits;
        self.writeback_accesses += other.writeback_accesses;
        self.fills += other.fills;
        self.clean_evictions += other.clean_evictions;
        self.dirty_evictions += other.dirty_evictions;
        self.cleanses += other.cleanses;
        self.prefetch_fills += other.prefetch_fills;
        self.prefetch_useful += other.prefetch_useful;
    }

    /// Codes the counters (snapshot images).
    pub(crate) fn image(&mut self, io: &mut impl Io) -> Result<(), ImageError> {
        io.u64(&mut self.loads)?;
        io.u64(&mut self.load_hits)?;
        io.u64(&mut self.stores)?;
        io.u64(&mut self.stores_hits)?;
        io.u64(&mut self.writeback_accesses)?;
        io.u64(&mut self.fills)?;
        io.u64(&mut self.clean_evictions)?;
        io.u64(&mut self.dirty_evictions)?;
        io.u64(&mut self.cleanses)?;
        io.u64(&mut self.prefetch_fills)?;
        io.u64(&mut self.prefetch_useful)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn miss_ratio_handles_zero_accesses() {
        assert_eq!(CacheStats::default().miss_ratio(), 0.0);
    }

    #[test]
    fn aggregates_are_consistent() {
        let s = CacheStats {
            loads: 100,
            load_hits: 80,
            stores: 50,
            stores_hits: 40,
            dirty_evictions: 10,
            cleanses: 5,
            ..Default::default()
        };
        assert_eq!(s.demand_accesses(), 150);
        assert_eq!(s.demand_misses(), 30);
        assert!((s.miss_ratio() - 0.2).abs() < 1e-12);
        assert_eq!(s.writebacks_produced(), 15);
    }

    #[test]
    fn merge_accumulates() {
        let mut a = CacheStats { loads: 1, load_hits: 1, ..Default::default() };
        let b = CacheStats { loads: 2, stores: 3, ..Default::default() };
        a.merge(&b);
        assert_eq!(a.loads, 3);
        assert_eq!(a.stores, 3);
        assert_eq!(a.demand_hits(), 1);
    }
}

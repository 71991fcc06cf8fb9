//! A generic set-associative, write-back, write-allocate cache.
//!
//! The cache exposes two levels of API:
//!
//! * a convenience API ([`SetAssocCache::touch`], [`SetAssocCache::fill`])
//!   used for the private L1/L2 levels, where the built-in replacement policy
//!   decides the victim, and
//! * low-level primitives ([`SetAssocCache::eviction_order`],
//!   [`SetAssocCache::evict`], [`SetAssocCache::cleanse`],
//!   [`SetAssocCache::fill_at`]) used by the LLC wrapper in the `bard` crate
//!   so that bank-aware writeback policies (BARD-E/C/H) and the prior-work
//!   baselines (Eager Writeback, Virtual Write Queue) can override victim
//!   selection and perform proactive write-backs.

use std::cell::Cell;

use crate::block::{CacheLine, EvictedLine};
use crate::replacement::{ReplacementKind, ReplacementPolicy, ReplacementState};
use crate::stats::CacheStats;

/// Geometry of a cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub size_bytes: usize,
    /// Associativity.
    pub ways: usize,
    /// Line size in bytes.
    pub line_bytes: usize,
}

impl CacheConfig {
    /// Creates a configuration and checks it is internally consistent.
    ///
    /// # Panics
    ///
    /// Panics if the geometry does not describe a power-of-two number of sets.
    #[must_use]
    pub fn new(size_bytes: usize, ways: usize, line_bytes: usize) -> Self {
        let cfg = Self { size_bytes, ways, line_bytes };
        assert!(cfg.sets().is_power_of_two(), "number of sets must be a power of two");
        assert!(line_bytes.is_power_of_two(), "line size must be a power of two");
        cfg
    }

    /// Number of sets.
    #[must_use]
    pub fn sets(&self) -> usize {
        self.size_bytes / (self.ways * self.line_bytes)
    }
}

/// Plain-data image of a cache's semantic state (snapshot support):
/// the line array, per-way reuse bits, the replacement-policy state and the
/// statistics counters. The derived dense tag array is **not** part of the
/// image — [`SetAssocCache::import_state`] rebuilds it from the lines, so
/// a restored cache is field-for-field identical to the captured one.
#[derive(Debug, Clone, PartialEq)]
pub struct CacheState {
    /// Every way of every set, set-major (`sets * ways` entries).
    pub lines: Vec<CacheLine>,
    /// Per-way reuse bits (SHiP training input), aligned with `lines`.
    pub reused: Vec<bool>,
    /// Replacement-policy state.
    pub replacement: ReplacementState,
    /// Statistics counters.
    pub stats: CacheStats,
}

/// Result of a [`SetAssocCache::fill`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FillResult {
    /// The way the new line was placed in.
    pub way: usize,
    /// The line that had to be evicted to make room, if any.
    pub evicted: Option<EvictedLine>,
}

/// Tag-array sentinel for an invalid way. Line addresses are line-aligned
/// (line sizes are powers of two > 1), so all-ones can never collide with a
/// real tag.
const TAG_INVALID: u64 = u64::MAX;

/// A set-associative, write-back, write-allocate cache.
#[derive(Debug)]
pub struct SetAssocCache {
    config: CacheConfig, // bard-lint: allow(S1) -- geometry fixed at construction
    sets: usize,         // bard-lint: allow(S1) -- derived from config geometry at construction
    line_shift: u32,     // bard-lint: allow(S1) -- derived from config geometry at construction
    set_mask: u64,       // bard-lint: allow(S1) -- derived from config geometry at construction
    lines: Vec<CacheLine>,
    /// Dense tag array mirroring `lines` (`TAG_INVALID` for invalid ways):
    /// the lookup hot path scans 8 contiguous bytes per way instead of a
    /// 24-byte `CacheLine`, which matters because every simulated memory
    /// access probes up to three cache levels.
    tags: Vec<u64>,
    reused: Vec<bool>,
    policy: Box<dyn ReplacementPolicy>,
    stats: CacheStats,
    /// Tag-array set scans performed (perf counter; probes take `&self`,
    /// hence the `Cell` — the cache is owned by one simulation thread).
    // bard-lint: allow(S1) -- perf-observability counter scraped into the registry;
    // deliberately not architectural state (snapshot parity is over model state only).
    set_scans: Cell<u64>,
}

impl SetAssocCache {
    /// Creates a cache with the given geometry and replacement policy.
    #[must_use]
    pub fn new(config: CacheConfig, replacement: ReplacementKind) -> Self {
        let sets = config.sets();
        Self {
            config,
            sets,
            line_shift: config.line_bytes.trailing_zeros(),
            set_mask: (sets as u64) - 1,
            lines: vec![CacheLine::empty(); sets * config.ways],
            tags: vec![TAG_INVALID; sets * config.ways],
            reused: vec![false; sets * config.ways],
            policy: replacement.build(sets, config.ways),
            stats: CacheStats::default(),
            set_scans: Cell::new(0),
        }
    }

    /// The cache geometry.
    #[must_use]
    pub fn config(&self) -> CacheConfig {
        self.config
    }

    /// Number of sets.
    #[must_use]
    pub fn sets(&self) -> usize {
        self.sets
    }

    /// Associativity.
    #[must_use]
    pub fn ways(&self) -> usize {
        self.config.ways
    }

    /// Name of the replacement policy in use.
    #[must_use]
    pub fn replacement_name(&self) -> &'static str {
        self.policy.name()
    }

    /// Statistics accumulated so far.
    #[must_use]
    pub fn stats(&self) -> &CacheStats {
        &self.stats
    }

    /// Exports the cache's semantic state (snapshot support). The derived
    /// tag array is not exported; it is rebuilt on import.
    #[must_use]
    pub fn export_state(&self) -> CacheState {
        CacheState {
            lines: self.lines.clone(),
            reused: self.reused.clone(),
            replacement: self.policy.export_state(),
            stats: self.stats,
        }
    }

    /// Replaces the cache's semantic state with `state` and rebuilds the
    /// derived tag array from the imported lines (snapshot support).
    ///
    /// # Panics
    ///
    /// Panics when the state's geometry or replacement-policy variant does
    /// not match this cache — restores are gated by snapshot digests, so a
    /// mismatch is a programming error.
    pub fn import_state(&mut self, state: &CacheState) {
        assert_eq!(state.lines.len(), self.lines.len(), "cache geometry mismatch");
        assert_eq!(state.reused.len(), self.reused.len(), "cache geometry mismatch");
        self.lines.clone_from(&state.lines);
        self.reused.clone_from(&state.reused);
        self.policy.import_state(&state.replacement);
        self.stats = state.stats;
        for (tag, line) in self.tags.iter_mut().zip(&self.lines) {
            *tag = if line.valid { line.addr } else { TAG_INVALID };
        }
    }

    /// Clears the statistics counters while keeping cache contents
    /// (used at the end of warm-up).
    pub fn reset_stats(&mut self) {
        self.stats = CacheStats::default();
    }

    /// Set index for an address.
    #[must_use]
    pub fn set_of(&self, addr: u64) -> usize {
        ((addr >> self.line_shift) & self.set_mask) as usize
    }

    /// Line-aligned address.
    #[must_use]
    pub fn line_addr(&self, addr: u64) -> u64 {
        addr & !((1u64 << self.line_shift) - 1)
    }

    /// Read-only view of the ways of a set.
    #[must_use]
    pub fn lines_in_set(&self, set: usize) -> &[CacheLine] {
        let base = set * self.config.ways;
        &self.lines[base..base + self.config.ways]
    }

    /// Looks up `addr` without changing any state. Returns the way on a hit.
    #[must_use]
    pub fn probe(&self, addr: u64) -> Option<usize> {
        self.set_scans.set(self.set_scans.get() + 1);
        let base = self.set_of(addr) * self.config.ways;
        let line_addr = self.line_addr(addr);
        self.tags[base..base + self.config.ways].iter().position(|&t| t == line_addr)
    }

    /// Demand access: on a hit, recency state is updated, the dirty bit is set
    /// for writes, and `true` is returned. On a miss, returns `false` and the
    /// caller is expected to fetch the line and call [`fill`](Self::fill) (or
    /// [`fill_at`](Self::fill_at)).
    pub fn touch(&mut self, addr: u64, signature: u16, is_write: bool) -> bool {
        let way = self.probe(addr);
        if is_write {
            self.stats.stores += 1;
        } else {
            self.stats.loads += 1;
        }
        let Some(way) = way else { return false };
        if is_write {
            self.stats.stores_hits += 1;
        } else {
            self.stats.load_hits += 1;
        }
        let set = self.set_of(addr);
        let idx = set * self.config.ways + way;
        if is_write {
            self.lines[idx].dirty = true;
        }
        if self.lines[idx].prefetched {
            self.lines[idx].prefetched = false;
            self.stats.prefetch_useful += 1;
        }
        self.reused[idx] = true;
        self.policy.on_hit(set, way, signature);
        true
    }

    /// Tag-array set scans performed so far (hot-path perf counter, never
    /// serialized into artifacts or snapshot images).
    #[must_use]
    pub fn set_scans(&self) -> u64 {
        self.set_scans.get()
    }

    /// Write-back arriving from an inner cache level. If the line is present
    /// it is marked dirty (and recency updated); otherwise the caller should
    /// allocate it with [`fill`](Self::fill) with `dirty = true`.
    ///
    /// Returns `true` if the write-back hit.
    pub fn writeback_access(&mut self, addr: u64) -> bool {
        self.stats.writeback_accesses += 1;
        let set = self.set_of(addr);
        if let Some(way) = self.probe(addr) {
            let idx = set * self.config.ways + way;
            self.lines[idx].dirty = true;
            // Write-backs do not update the replacement state: they are not
            // demand references (matches ChampSim's default behaviour).
            true
        } else {
            false
        }
    }

    /// Chooses the victim way for `addr`'s set: an invalid way if one exists,
    /// otherwise the replacement policy's choice.
    pub fn victim_way(&mut self, addr: u64) -> usize {
        let set = self.set_of(addr);
        let base = set * self.config.ways;
        if let Some(way) =
            self.tags[base..base + self.config.ways].iter().position(|&t| t == TAG_INVALID)
        {
            return way;
        }
        self.policy.victim(set)
    }

    /// Fills `addr` into the set, evicting the policy victim if needed.
    pub fn fill(&mut self, addr: u64, dirty: bool, signature: u16) -> FillResult {
        let way = self.victim_way(addr);
        let set = self.set_of(addr);
        let evicted = self.evict(set, way);
        self.fill_at(set, way, addr, dirty, signature);
        FillResult { way, evicted }
    }

    /// Fills a line brought in by a prefetch.
    pub fn fill_prefetch(&mut self, addr: u64, signature: u16) -> FillResult {
        let result = self.fill(addr, false, signature);
        let set = self.set_of(addr);
        let idx = set * self.config.ways + result.way;
        self.lines[idx].prefetched = true;
        self.stats.prefetch_fills += 1;
        result
    }

    /// Ways of `set` ordered most-evictable first according to the
    /// replacement policy. This is the order BARD scans for low-cost dirty
    /// lines (LRU→MRU, or highest→lowest RRPV).
    #[must_use]
    pub fn eviction_order(&mut self, set: usize) -> Vec<usize> {
        let mut order = Vec::with_capacity(self.config.ways);
        self.eviction_order_into(set, &mut order);
        order
    }

    /// [`SetAssocCache::eviction_order`] into a caller-owned buffer
    /// (cleared first), avoiding the per-call allocation on hot paths.
    pub fn eviction_order_into(&mut self, set: usize, out: &mut Vec<usize>) {
        self.policy.eviction_order(set, out);
    }

    /// Removes the line in `way` of `set`. Returns the evicted line if it was
    /// valid.
    pub fn evict(&mut self, set: usize, way: usize) -> Option<EvictedLine> {
        let idx = set * self.config.ways + way;
        if !self.lines[idx].valid {
            return None;
        }
        let line = self.lines[idx];
        self.policy.on_evict(set, way, self.reused[idx]);
        self.lines[idx] = CacheLine::empty();
        self.tags[idx] = TAG_INVALID;
        self.reused[idx] = false;
        if line.dirty {
            self.stats.dirty_evictions += 1;
        } else {
            self.stats.clean_evictions += 1;
        }
        Some(EvictedLine { addr: line.addr, dirty: line.dirty })
    }

    /// Clears the dirty bit of `way` in `set` without evicting the line
    /// (a proactive write-back / "cleanse"). Returns the line address if the
    /// line was valid and dirty; the caller is responsible for sending the
    /// write-back to the next level.
    pub fn cleanse(&mut self, set: usize, way: usize) -> Option<u64> {
        let idx = set * self.config.ways + way;
        if self.lines[idx].valid && self.lines[idx].dirty {
            self.lines[idx].dirty = false;
            self.stats.cleanses += 1;
            Some(self.lines[idx].addr)
        } else {
            None
        }
    }

    /// Installs `addr` into a specific way (which must have been emptied by
    /// [`evict`](Self::evict) or be invalid).
    ///
    /// # Panics
    ///
    /// Panics in debug builds if the target way still holds a valid line.
    pub fn fill_at(&mut self, set: usize, way: usize, addr: u64, dirty: bool, signature: u16) {
        let idx = set * self.config.ways + way;
        debug_assert!(!self.lines[idx].valid, "fill_at target must be empty");
        self.lines[idx] = CacheLine::filled(self.line_addr(addr), dirty, signature);
        self.tags[idx] = self.line_addr(addr);
        self.reused[idx] = false;
        self.stats.fills += 1;
        self.policy.on_insert(set, way, signature);
    }

    /// Marks a hit on a specific way without the address lookup (used by the
    /// LLC wrapper after it has already located the line).
    pub fn promote(&mut self, set: usize, way: usize, signature: u16) {
        let idx = set * self.config.ways + way;
        if self.lines[idx].valid {
            self.reused[idx] = true;
            self.policy.on_hit(set, way, signature);
        }
    }

    /// Iterates over all valid, dirty lines in the cache, calling `f` with
    /// `(set, way, line)`. Used by the Virtual Write Queue baseline, which is
    /// allowed to search the whole LLC for same-row dirty lines.
    pub fn for_each_dirty(&self, mut f: impl FnMut(usize, usize, &CacheLine)) {
        for set in 0..self.sets {
            let base = set * self.config.ways;
            for way in 0..self.config.ways {
                let line = &self.lines[base + way];
                if line.valid && line.dirty {
                    f(set, way, line);
                }
            }
        }
    }

    /// Number of valid lines currently resident (test / debug helper).
    #[must_use]
    pub fn occupancy(&self) -> usize {
        self.lines.iter().filter(|l| l.valid).count()
    }

    /// Number of dirty lines currently resident.
    #[must_use]
    pub fn dirty_count(&self) -> usize {
        self.lines.iter().filter(|l| l.valid && l.dirty).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_cache() -> SetAssocCache {
        // 4 sets x 4 ways x 64 B = 1 KiB
        SetAssocCache::new(CacheConfig::new(1024, 4, 64), ReplacementKind::Lru)
    }

    #[test]
    fn state_round_trip_rebuilds_derived_structures() {
        for kind in [ReplacementKind::Lru, ReplacementKind::Srrip, ReplacementKind::Ship] {
            let mut warmed = SetAssocCache::new(CacheConfig::new(1024, 4, 64), kind);
            for i in 0..200u64 {
                let addr = (i * 192) % 4096 + (i % 7) * 4096;
                if !warmed.touch(addr, (i % 13) as u16, i % 3 == 0) {
                    warmed.fill(addr, i % 3 == 0, (i % 13) as u16);
                }
            }
            let state = warmed.export_state();
            let mut restored = SetAssocCache::new(CacheConfig::new(1024, 4, 64), kind);
            restored.import_state(&state);
            assert_eq!(restored.export_state(), state);
            // The rebuilt tags must answer probes identically.
            for i in 0..300u64 {
                let addr = (i * 64) % (8 * 4096);
                assert_eq!(warmed.probe(addr), restored.probe(addr));
            }
            // And future decisions must coincide.
            for set in 0..4 {
                assert_eq!(warmed.eviction_order(set), restored.eviction_order(set));
            }
        }
    }

    #[test]
    #[should_panic(expected = "cache geometry mismatch")]
    fn state_import_rejects_wrong_geometry() {
        let donor = small_cache();
        let state = donor.export_state();
        let mut wrong = SetAssocCache::new(CacheConfig::new(2048, 4, 64), ReplacementKind::Lru);
        wrong.import_state(&state);
    }

    #[test]
    fn config_computes_sets() {
        let c = CacheConfig::new(16 * 1024 * 1024, 16, 64);
        assert_eq!(c.sets(), 16 * 1024);
    }

    #[test]
    fn miss_then_fill_then_hit() {
        let mut c = small_cache();
        assert!(!c.touch(0x1000, 1, false));
        let r = c.fill(0x1000, false, 1);
        assert!(r.evicted.is_none());
        assert!(c.touch(0x1000, 1, false));
        assert_eq!(c.stats().loads, 2);
        assert_eq!(c.stats().load_hits, 1);
    }

    #[test]
    fn store_hit_sets_dirty_bit() {
        let mut c = small_cache();
        c.fill(0x2000, false, 0);
        assert!(c.touch(0x2000, 0, true));
        assert_eq!(c.dirty_count(), 1);
    }

    #[test]
    fn filling_a_full_set_evicts_lru() {
        let mut c = small_cache();
        // Addresses mapping to the same set: stride = sets * line = 256 B.
        let addrs: Vec<u64> = (0..5).map(|i| 0x10_000 + i * 256).collect();
        for a in &addrs[..4] {
            c.fill(*a, false, 0);
        }
        c.touch(addrs[0], 0, false); // make way of addrs[0] MRU
        let r = c.fill(addrs[4], false, 0);
        let evicted = r.evicted.expect("set was full");
        assert_eq!(evicted.addr, addrs[1], "LRU line should be evicted");
        assert!(!evicted.dirty);
    }

    #[test]
    fn dirty_eviction_reports_dirty_line() {
        let mut c = small_cache();
        let addrs: Vec<u64> = (0..5).map(|i| 0x20_000 + i * 256).collect();
        c.fill(addrs[0], false, 0);
        c.touch(addrs[0], 0, true); // dirty it
        for a in &addrs[1..4] {
            c.fill(*a, false, 0);
        }
        let r = c.fill(addrs[4], false, 0);
        let evicted = r.evicted.expect("set was full");
        assert_eq!(evicted.addr, addrs[0]);
        assert!(evicted.dirty);
        assert_eq!(c.stats().dirty_evictions, 1);
    }

    #[test]
    fn cleanse_clears_dirty_without_eviction() {
        let mut c = small_cache();
        c.fill(0x3000, true, 0);
        let set = c.set_of(0x3000);
        let way = c.probe(0x3000).unwrap();
        assert_eq!(c.cleanse(set, way), Some(0x3000));
        assert_eq!(c.dirty_count(), 0);
        assert_eq!(c.occupancy(), 1);
        // A second cleanse is a no-op.
        assert_eq!(c.cleanse(set, way), None);
        assert_eq!(c.stats().cleanses, 1);
    }

    #[test]
    fn writeback_access_marks_existing_line_dirty() {
        let mut c = small_cache();
        c.fill(0x4000, false, 0);
        assert!(c.writeback_access(0x4000));
        assert_eq!(c.dirty_count(), 1);
        assert!(!c.writeback_access(0x5000));
    }

    #[test]
    fn prefetch_fill_and_useful_tracking() {
        let mut c = small_cache();
        c.fill_prefetch(0x6000, 0);
        assert_eq!(c.stats().prefetch_fills, 1);
        assert!(c.touch(0x6000, 0, false));
        assert_eq!(c.stats().prefetch_useful, 1);
    }

    #[test]
    fn eviction_order_matches_victim() {
        let mut c = small_cache();
        let addrs: Vec<u64> = (0..4).map(|i| 0x50_000 + i * 256).collect();
        for a in &addrs {
            c.fill(*a, false, 0);
        }
        c.touch(addrs[2], 0, false);
        let set = c.set_of(addrs[0]);
        let order = c.eviction_order(set);
        let victim = c.victim_way(addrs[0]);
        assert_eq!(order[0], victim);
        assert_eq!(order.len(), 4);
    }

    #[test]
    fn for_each_dirty_visits_only_dirty_lines() {
        let mut c = small_cache();
        c.fill(0x100, true, 0);
        c.fill(0x200, false, 0);
        c.fill(0x300, true, 0);
        let mut seen = Vec::new();
        c.for_each_dirty(|_, _, line| seen.push(line.addr));
        seen.sort_unstable();
        assert_eq!(seen, vec![0x100, 0x300]);
    }

    #[test]
    fn occupancy_never_exceeds_capacity() {
        let mut c = small_cache();
        for i in 0..1_000u64 {
            let addr = i * 64;
            if !c.touch(addr, 0, i % 3 == 0) {
                c.fill(addr, i % 3 == 0, 0);
            }
        }
        assert!(c.occupancy() <= 16);
    }
}

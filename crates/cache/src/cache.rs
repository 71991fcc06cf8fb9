//! A generic set-associative, write-back, write-allocate cache.
//!
//! Every cache level takes its victim from one rule,
//! [`SetAssocCache::victim_way`]: a free way first, otherwise the
//! replacement policy's choice (RRIP ages the set until a way reaches the
//! maximum RRPV). The cache exposes two levels of API:
//!
//! * a convenience API ([`SetAssocCache::touch`], [`SetAssocCache::fill`])
//!   used for the private L1/L2 levels, where `fill` evicts that victim, and
//! * low-level primitives ([`SetAssocCache::victim_way`],
//!   [`SetAssocCache::eviction_order`], [`SetAssocCache::evict`],
//!   [`SetAssocCache::cleanse`], [`SetAssocCache::fill_at`]) used by the LLC
//!   wrapper in the `bard` crate. It starts from the same victim; the
//!   bank-aware writeback policies (BARD-E/C/H) and the prior-work baselines
//!   (Eager Writeback, Virtual Write Queue) may then override it or perform
//!   proactive write-backs. The eviction order is only the order those
//!   policies scan, never a second victim rule.
//!
//! State is two arrays indexed by `set * ways + way`: the dense tag array
//! (`TAG_INVALID` marks an invalid way) and one 8-byte [`WayRecord`] per
//! way holding the flags and the replacement metadata.

use std::cell::Cell;

use crate::block::{EvictedLine, WayRecord};
use crate::replacement::{Replacement, ReplacementKind};
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

/// Plain-data image of a cache's semantic state (snapshot support), held
/// exactly as the cache holds it: the tag array, the way records, the
/// replacement policy's per-cache state and the statistics counters. A
/// restored cache is field-for-field identical to the captured one.
#[derive(Debug, Clone, PartialEq)]
pub struct CacheState {
    /// Line address per way, set-major (`sets * ways` entries); all ones
    /// (`u64::MAX`) marks an invalid way.
    pub tags: Vec<u64>,
    /// Flags and replacement metadata per way, aligned with `tags`.
    pub records: Vec<WayRecord>,
    /// The replacement policy's per-cache state: the LRU clock or the SHiP
    /// table.
    pub replacement: Replacement,
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
pub(crate) const TAG_INVALID: u64 = u64::MAX;

/// A set-associative, write-back, write-allocate cache.
#[derive(Debug)]
pub struct SetAssocCache {
    config: CacheConfig,
    sets: usize,
    line_shift: u32, // bard-lint: allow(S1) -- derived from config geometry at construction
    set_mask: u64,   // bard-lint: allow(S1) -- derived from config geometry at construction
    /// Line address per way (`TAG_INVALID` for invalid ways): the lookup
    /// hot path scans 8 contiguous bytes per way.
    tags: Vec<u64>,
    /// Flags and replacement metadata per way, aligned with `tags`.
    records: Vec<WayRecord>,
    replacement: Replacement,
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
            tags: vec![TAG_INVALID; sets * config.ways],
            records: vec![Replacement::empty_record(); sets * config.ways],
            replacement: Replacement::new(replacement),
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

    /// Statistics accumulated so far.
    #[must_use]
    pub fn stats(&self) -> &CacheStats {
        &self.stats
    }

    /// Exports the cache's semantic state (snapshot support).
    #[must_use]
    pub fn export_state(&self) -> CacheState {
        CacheState {
            tags: self.tags.clone(),
            records: self.records.clone(),
            replacement: self.replacement.clone(),
            stats: self.stats,
        }
    }

    /// Replaces the cache's semantic state with `state` (snapshot support).
    ///
    /// # Panics
    ///
    /// Panics when the state's geometry or replacement policy does not match
    /// this cache — restores are gated by snapshot digests, so a mismatch is
    /// a programming error.
    pub fn import_state(&mut self, state: &CacheState) {
        let ways = self.sets * self.config.ways;
        assert_eq!(state.tags.len(), ways, "cache geometry mismatch");
        assert_eq!(state.records.len(), ways, "cache geometry mismatch");
        self.tags.copy_from_slice(&state.tags);
        self.records.copy_from_slice(&state.records);
        self.replacement.import_state(&state.replacement);
        self.stats = state.stats;
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

    /// Looks up `addr` without changing any state. Returns the way on a hit.
    #[must_use]
    pub fn probe(&self, addr: u64) -> Option<usize> {
        self.set_scans.set(self.set_scans.get() + 1);
        let base = self.set_of(addr) * self.config.ways;
        let line_addr = self.line_addr(addr);
        self.tags[base..base + self.config.ways].iter().position(|&t| t == line_addr)
    }

    /// True if `way` of `set` holds a valid line.
    #[must_use]
    pub fn is_valid(&self, set: usize, way: usize) -> bool {
        self.tags[set * self.config.ways + way] != TAG_INVALID
    }

    /// The line address held by `way` of `set` if that line is valid and
    /// dirty — the lines a writeback policy may clean or prefer to evict.
    #[must_use]
    pub fn dirty_addr(&self, set: usize, way: usize) -> Option<u64> {
        let idx = set * self.config.ways + way;
        let tag = self.tags[idx];
        (tag != TAG_INVALID && self.records[idx].has(WayRecord::DIRTY)).then_some(tag)
    }

    /// The first invalid way of `set`, if any.
    fn invalid_way(&self, set: usize) -> Option<usize> {
        let base = set * self.config.ways;
        self.tags[base..base + self.config.ways].iter().position(|&t| t == TAG_INVALID)
    }

    /// Demand access: on a hit, recency state is updated, the dirty bit is set
    /// for writes, and `true` is returned. On a miss, returns `false` and the
    /// caller is expected to fetch the line and call [`fill`](Self::fill) (or
    /// [`fill_at`](Self::fill_at)). The signature of a hit is not used: SHiP
    /// trains on the line's fill signature.
    pub fn touch(&mut self, addr: u64, _signature: u16, is_write: bool) -> bool {
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
        let idx = self.set_of(addr) * self.config.ways + way;
        let record = &mut self.records[idx];
        if is_write {
            record.flags |= WayRecord::DIRTY;
        }
        if record.has(WayRecord::PREFETCHED) {
            record.flags &= !WayRecord::PREFETCHED;
            self.stats.prefetch_useful += 1;
        }
        record.flags |= WayRecord::REUSED;
        self.replacement.on_hit(&mut self.records, self.config.ways, idx);
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
        if let Some(way) = self.probe(addr) {
            let idx = self.set_of(addr) * self.config.ways + way;
            self.records[idx].flags |= WayRecord::DIRTY;
            // Write-backs do not update the replacement state: they are not
            // demand references (matches ChampSim's default behaviour).
            true
        } else {
            false
        }
    }

    /// Chooses the victim way for `addr`'s set: an invalid way if one exists,
    /// otherwise the replacement policy's choice. This is the victim rule of
    /// every cache level, the LLC included. Under SRRIP and SHiP it ages the
    /// set until some way reaches the maximum RRPV, so it takes `&mut self`.
    pub fn victim_way(&mut self, addr: u64) -> usize {
        let set = self.set_of(addr);
        if let Some(way) = self.invalid_way(set) {
            return way;
        }
        let base = set * self.config.ways;
        self.replacement.victim(&mut self.records[base..base + self.config.ways])
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
        let idx = self.set_of(addr) * self.config.ways + result.way;
        self.records[idx].flags |= WayRecord::PREFETCHED;
        self.stats.prefetch_fills += 1;
        result
    }

    /// Ways of `set` ordered most-evictable first according to the
    /// replacement policy (LRU→MRU, or highest→lowest RRPV). This is the
    /// order BARD and Eager Writeback scan for low-cost dirty lines, not a
    /// victim rule: [`victim_way`](Self::victim_way) chooses the victim. In a
    /// full set the first way is the one `victim_way` picks, but reading the
    /// order never ages an RRIP set.
    #[must_use]
    pub fn eviction_order(&self, set: usize) -> Vec<usize> {
        let mut order = Vec::with_capacity(self.config.ways);
        self.eviction_order_into(set, &mut order);
        order
    }

    /// [`SetAssocCache::eviction_order`] into a caller-owned buffer
    /// (cleared first), avoiding the per-call allocation on hot paths.
    pub fn eviction_order_into(&self, set: usize, out: &mut Vec<usize>) {
        let base = set * self.config.ways;
        self.replacement.eviction_order(&self.records[base..base + self.config.ways], out);
    }

    /// Removes the line in `way` of `set`. Returns the evicted line if it was
    /// valid.
    pub fn evict(&mut self, set: usize, way: usize) -> Option<EvictedLine> {
        let idx = set * self.config.ways + way;
        let addr = self.tags[idx];
        if addr == TAG_INVALID {
            return None;
        }
        let record = self.records[idx];
        self.replacement.on_evict(record);
        self.tags[idx] = TAG_INVALID;
        self.records[idx].flags = 0;
        let dirty = record.has(WayRecord::DIRTY);
        if dirty {
            self.stats.dirty_evictions += 1;
        } else {
            self.stats.clean_evictions += 1;
        }
        Some(EvictedLine { addr, dirty })
    }

    /// Clears the dirty bit of `way` in `set` without evicting the line
    /// (a proactive write-back / "cleanse"). Returns the line address if the
    /// line was valid and dirty; the caller is responsible for sending the
    /// write-back to the next level.
    pub fn cleanse(&mut self, set: usize, way: usize) -> Option<u64> {
        let addr = self.dirty_addr(set, way)?;
        self.records[set * self.config.ways + way].flags &= !WayRecord::DIRTY;
        self.stats.cleanses += 1;
        Some(addr)
    }

    /// Installs `addr` into a specific way (which must have been emptied by
    /// [`evict`](Self::evict) or be invalid).
    ///
    /// # Panics
    ///
    /// Panics in debug builds if the target way still holds a valid line.
    pub fn fill_at(&mut self, set: usize, way: usize, addr: u64, dirty: bool, signature: u16) {
        let idx = set * self.config.ways + way;
        debug_assert_eq!(self.tags[idx], TAG_INVALID, "fill_at target must be empty");
        self.tags[idx] = self.line_addr(addr);
        let record = &mut self.records[idx];
        record.flags = u8::from(dirty) * WayRecord::DIRTY;
        record.signature = signature;
        self.stats.fills += 1;
        self.replacement.on_insert(&mut self.records, self.config.ways, idx);
    }

    /// Number of valid lines currently resident (test / debug helper).
    #[must_use]
    pub fn occupancy(&self) -> usize {
        self.tags.iter().filter(|&&t| t != TAG_INVALID).count()
    }

    /// Number of dirty lines currently resident.
    #[must_use]
    pub fn dirty_count(&self) -> usize {
        self.tags
            .iter()
            .zip(&self.records)
            .filter(|&(&t, r)| t != TAG_INVALID && r.has(WayRecord::DIRTY))
            .count()
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

    /// Evicted ways export as invalid tags with clear flags, but keep the
    /// replacement metadata (stamp, RRPV, SHiP signature) they held.
    #[test]
    fn eviction_keeps_replacement_metadata_but_clears_the_line() {
        let mut c = SetAssocCache::new(CacheConfig::new(1024, 4, 64), ReplacementKind::Ship);
        c.fill(0x1000, true, 42);
        assert!(c.touch(0x1000, 0, false));
        let set = c.set_of(0x1000);
        let way = c.probe(0x1000).unwrap();
        c.evict(set, way).expect("valid line");
        let state = c.export_state();
        let idx = set * 4 + way;
        assert_eq!(state.tags[idx], TAG_INVALID);
        let record = state.records[idx];
        assert_eq!(record.flags, 0);
        assert_eq!((record.rrpv, record.signature), (0, 42));
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
        assert_eq!(c.dirty_addr(set, way), Some(0x3000));
        assert_eq!(c.cleanse(set, way), Some(0x3000));
        assert_eq!(c.dirty_count(), 0);
        assert_eq!(c.occupancy(), 1);
        assert!(c.is_valid(set, way));
        assert_eq!(c.dirty_addr(set, way), None);
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
        let prefetched = |c: &SetAssocCache| {
            c.export_state().records.iter().any(|r| r.has(WayRecord::PREFETCHED))
        };
        assert!(prefetched(&c));
        assert!(c.touch(0x6000, 0, false));
        assert_eq!(c.stats().prefetch_useful, 1);
        assert!(!prefetched(&c));
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
    fn invalid_ways_are_filled_first() {
        let mut c = small_cache();
        let set = c.set_of(0x100);
        assert_eq!(c.invalid_way(set), Some(0));
        c.fill(0x100, false, 0);
        assert_eq!(c.invalid_way(set), Some(1));
        for i in 1..4 {
            c.fill(0x100 + i * 256, false, 0);
        }
        assert_eq!(c.invalid_way(set), None);
        c.evict(set, 2).expect("valid line");
        assert_eq!(c.invalid_way(set), Some(2));
        assert_eq!(c.victim_way(0x100), 2);
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

    /// Reference LRU with unbounded `u64` stamps: the model the `u32` stamps
    /// plus renormalization must match.
    struct ReferenceLru {
        ways: usize,
        tags: Vec<Option<u64>>,
        stamp: u64,
        last_use: Vec<u64>,
    }

    impl ReferenceLru {
        fn from_state(state: &CacheState, ways: usize) -> Self {
            let Replacement::Lru { clock } = state.replacement else {
                panic!("LRU state expected");
            };
            Self {
                ways,
                tags: state.tags.iter().map(|&t| (t != TAG_INVALID).then_some(t)).collect(),
                stamp: u64::from(clock),
                last_use: state.records.iter().map(|r| u64::from(r.stamp)).collect(),
            }
        }

        fn set_of(&self, addr: u64) -> usize {
            ((addr >> 6) as usize) & (self.tags.len() / self.ways - 1)
        }

        fn order(&self, set: usize) -> Vec<usize> {
            let mut order: Vec<usize> = (0..self.ways).collect();
            order.sort_by_key(|&w| (self.last_use[set * self.ways + w], w));
            order
        }

        fn victim(&self, addr: u64) -> usize {
            let set = self.set_of(addr);
            let base = set * self.ways;
            (0..self.ways)
                .find(|&w| self.tags[base + w].is_none())
                .unwrap_or_else(|| self.order(set)[0])
        }

        fn touch(&mut self, idx: usize) {
            self.stamp += 1;
            self.last_use[idx] = self.stamp;
        }

        /// Demand access; returns the hit flag.
        fn access(&mut self, addr: u64) -> bool {
            let base = self.set_of(addr) * self.ways;
            if let Some(way) = (0..self.ways).find(|&w| self.tags[base + w] == Some(addr)) {
                self.touch(base + way);
                return true;
            }
            let way = self.victim(addr);
            self.tags[base + way] = Some(addr);
            self.touch(base + way);
            false
        }
    }

    /// Imports LRU state whose clock sits three touches below `u32::MAX`
    /// (untouched ways keep stamp 0), then drives hits and fills across the
    /// stamp wrap and checks every decision against the `u64` reference.
    #[test]
    fn lru_stamp_wrap_keeps_decisions_exact() {
        let geometry = CacheConfig::new(1024, 4, 64);
        let mut donor = SetAssocCache::new(geometry, ReplacementKind::Lru);
        // Partially fill so some ways stay untouched (stamp 0), which
        // exercises the lowest-way-first tie-break across the wrap.
        for i in 0..11u64 {
            donor.fill(i * 64 * 3, false, 0);
        }
        let mut state = donor.export_state();
        let Replacement::Lru { clock } = &mut state.replacement else {
            panic!("LRU state expected");
        };
        let shift = u32::MAX - 3 - *clock;
        *clock += shift;
        for record in state.records.iter_mut().filter(|r| r.stamp != 0) {
            record.stamp += shift;
        }
        let mut cache = SetAssocCache::new(geometry, ReplacementKind::Lru);
        cache.import_state(&state);
        let mut reference = ReferenceLru::from_state(&state, geometry.ways);

        let mut x = 0x2545_f491_4f6c_dd1du64;
        for step in 0..2_000 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let addr = (x % 24) * 64;
            let set = cache.set_of(addr);
            assert_eq!(cache.victim_way(addr), reference.victim(addr), "victim, step {step}");
            assert_eq!(cache.eviction_order(set), reference.order(set), "order, step {step}");
            let hit = cache.touch(addr, 0, false);
            if !hit {
                cache.fill(addr, false, 0);
            }
            assert_eq!(hit, reference.access(addr), "hit, step {step}");
        }
        for set in 0..cache.sets() {
            assert_eq!(cache.eviction_order(set), reference.order(set));
        }
    }
}

//! A generic set-associative, write-back, write-allocate cache.
//!
//! Every cache level takes its victim from one rule,
//! [`SetAssocCache::victim_way`]: a free way first, otherwise the
//! replacement policy's choice (RRIP ages the set until a way reaches the
//! maximum RRPV). The cache exposes two levels of API:
//!
//! * a convenience API used for the private L1/L2 levels and the functional
//!   warm-up: [`SetAssocCache::touch`] and [`SetAssocCache::fill`], where
//!   `fill` evicts that victim, and the one-visit operations
//!   [`SetAssocCache::access`] (a touch that fills on a miss) and
//!   [`SetAssocCache::write_back`] (a write-back that fills dirty on a
//!   miss), each of which derives the set once, scans its tags once and
//!   reads and writes its set word once, and
//! * low-level primitives ([`SetAssocCache::victim_way`],
//!   [`SetAssocCache::eviction_order`], [`SetAssocCache::evict`],
//!   [`SetAssocCache::cleanse`], [`SetAssocCache::fill_at`]) used by the LLC
//!   wrapper in the `bard` crate. It starts from the same victim; the
//!   bank-aware writeback policies (BARD-E/C/H) and the prior-work baselines
//!   (Eager Writeback, Virtual Write Queue) may then override it or perform
//!   proactive write-backs. The eviction order is only the order those
//!   policies scan, never a second victim rule.
//!
//! State is the dense tag array, indexed by `set * ways + way`
//! (`TAG_INVALID` marks an invalid way), and one 16-byte [`SetWord`] per set
//! holding the replacement field and the valid, dirty, prefetched and reused
//! masks.

use std::cell::Cell;

use bard_image::{each, ImageError, Io};

use crate::block::{way_mask, EvictedLine, SetWord, MAX_WAYS};
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
    /// Panics if the associativity is outside `1..=16` (a set word holds one
    /// bit per way), or the geometry does not describe a power-of-two number
    /// of sets.
    #[must_use]
    pub fn new(size_bytes: usize, ways: usize, line_bytes: usize) -> Self {
        assert!((1..=MAX_WAYS).contains(&ways), "associativity must be 1..={MAX_WAYS}");
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

/// The lowest invalid way of a `ways`-way set whose word is `word`, if any.
fn invalid_way(word: &SetWord, ways: usize) -> Option<usize> {
    let free = !word.valid & way_mask(ways);
    (free != 0).then(|| free.trailing_zeros() as usize)
}

/// A set-associative, write-back, write-allocate cache.
#[derive(Debug)]
pub struct SetAssocCache {
    config: CacheConfig,
    sets: usize,
    line_shift: u32, // bard-lint: allow(S1) -- derived from config geometry at construction
    set_mask: u64,   // bard-lint: allow(S1) -- derived from config geometry at construction
    /// Line address per way (`TAG_INVALID` for invalid ways): the lookup
    /// hot path scans 8 contiguous bytes per way.
    pub(crate) tags: Vec<u64>,
    /// Replacement field and line flags per set.
    pub(crate) words: Vec<SetWord>,
    pub(crate) replacement: Replacement,
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
        let replacement = Replacement::new(replacement, sets * config.ways);
        let word = SetWord { repl: replacement.empty_field(config.ways), ..SetWord::default() };
        Self {
            config,
            sets,
            line_shift: config.line_bytes.trailing_zeros(),
            set_mask: (sets as u64) - 1,
            tags: vec![TAG_INVALID; sets * config.ways],
            words: vec![word; sets],
            replacement,
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

    /// Codes the cache as it holds itself (snapshot images): its tag array,
    /// each tag stored plus one, wrapping, so an invalid way's all-ones tag
    /// is the one-byte varint 0; its replacement policy's own state (its
    /// tag, then SHiP's counter table and signatures); one word per set,
    /// checked against the set's tags and the policy ([`SetWord::check`]);
    /// and its statistics.
    ///
    /// # Errors
    ///
    /// Decoding: an image of another geometry or policy, or a malformed one.
    pub fn image(&mut self, io: &mut impl Io) -> Result<(), ImageError> {
        each(io, &mut self.tags, "cache lines", |io, tag| {
            let mut stored = tag.wrapping_add(1);
            io.u64(&mut stored)?;
            *tag = stored.wrapping_sub(1);
            Ok(())
        })?;
        self.replacement.image(io)?;
        let kind = self.replacement.kind();
        io.size(self.sets, "cache sets")?;
        for (word, tags) in self.words.iter_mut().zip(self.tags.chunks(self.config.ways)) {
            word.image(io)?;
            io.check(|| word.check(kind, tags))?;
        }
        self.stats.image(io)
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
        self.scan(self.set_of(addr), addr)
    }

    /// The way of `set` holding `addr`'s line: the one tag scan of every
    /// lookup, counted in [`set_scans`](Self::set_scans).
    fn scan(&self, set: usize, addr: u64) -> Option<usize> {
        self.set_scans.set(self.set_scans.get() + 1);
        let base = set * self.config.ways;
        let line_addr = self.line_addr(addr);
        self.tags[base..base + self.config.ways].iter().position(|&t| t == line_addr)
    }

    /// True if `way` of `set` holds a valid line.
    #[must_use]
    pub fn is_valid(&self, set: usize, way: usize) -> bool {
        self.words[set].valid & 1 << way != 0
    }

    /// The line address held by `way` of `set` if that line is valid and
    /// dirty — the lines a writeback policy may clean or prefer to evict.
    #[must_use]
    pub fn dirty_addr(&self, set: usize, way: usize) -> Option<u64> {
        (self.words[set].dirty & 1 << way != 0).then(|| self.tags[set * self.config.ways + way])
    }

    /// Demand access: on a hit, recency state is updated, the dirty bit is set
    /// for writes, and `true` is returned. On a miss, returns `false` and the
    /// caller is expected to fetch the line and call [`fill`](Self::fill) (or
    /// [`fill_at`](Self::fill_at)); [`access`](Self::access) does both in one
    /// set visit. The signature of a hit is not used: SHiP trains on the
    /// line's fill signature.
    pub fn touch(&mut self, addr: u64, _signature: u16, is_write: bool) -> bool {
        self.demand(self.set_of(addr), addr, is_write)
    }

    /// Demand access that allocates on a miss: exactly
    /// [`touch`](Self::touch), then on a miss [`fill`](Self::fill) of the
    /// line with `is_write` as its dirty bit and `signature` as its fill
    /// signature, in one set visit (the set is derived once and its tags
    /// scanned once). Returns whether it hit, and the line the fill evicted.
    pub fn access(
        &mut self,
        addr: u64,
        signature: u16,
        is_write: bool,
    ) -> (bool, Option<EvictedLine>) {
        let set = self.set_of(addr);
        if self.demand(set, addr, is_write) {
            return (true, None);
        }
        (false, self.install(set, addr, is_write, signature).evicted)
    }

    /// The lookup and hit update shared by [`touch`](Self::touch) and
    /// [`access`](Self::access): counts the load or store, and on a hit
    /// updates the way's flags and replacement state. `#[inline(always)]`
    /// for the reason given at [`install`](Self::install).
    #[inline(always)]
    fn demand(&mut self, set: usize, addr: u64, is_write: bool) -> bool {
        let way = self.scan(set, addr);
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
        let bit = 1 << way;
        let word = &mut self.words[set];
        if is_write {
            word.dirty |= bit;
        }
        if word.prefetched & bit != 0 {
            word.prefetched &= !bit;
            self.stats.prefetch_useful += 1;
        }
        word.reused |= bit;
        let ways = self.config.ways;
        self.replacement.on_hit(&mut word.repl, ways, way, set * ways + way);
        true
    }

    /// Tag-array set scans performed so far (hot-path perf counter, never
    /// serialized into artifacts or snapshot images).
    #[must_use]
    pub fn set_scans(&self) -> u64 {
        self.set_scans.get()
    }

    /// Write-back arriving from an inner cache level. If the line is present
    /// it is marked dirty, and its replacement state is left alone: a
    /// write-back is not a demand reference (ChampSim's default behaviour).
    /// Otherwise the caller should allocate it with [`fill`](Self::fill)
    /// with `dirty = true`; [`write_back`](Self::write_back) does both in one
    /// set visit.
    ///
    /// Returns `true` if the write-back hit.
    pub fn writeback_access(&mut self, addr: u64) -> bool {
        self.written_back(self.set_of(addr), addr)
    }

    /// Write-back that allocates on a miss: exactly
    /// [`writeback_access`](Self::writeback_access), then on a miss
    /// [`fill`](Self::fill) of the line, dirty, with `signature`, in one set
    /// visit. A hit marks the line dirty and leaves its replacement state
    /// alone. Returns the line the fill evicted.
    pub fn write_back(&mut self, addr: u64, signature: u16) -> Option<EvictedLine> {
        let set = self.set_of(addr);
        if self.written_back(set, addr) {
            return None;
        }
        self.install(set, addr, true, signature).evicted
    }

    /// The lookup shared by [`writeback_access`](Self::writeback_access) and
    /// [`write_back`](Self::write_back): counts the write-back and marks a
    /// present line dirty.
    fn written_back(&mut self, set: usize, addr: u64) -> bool {
        self.stats.writeback_accesses += 1;
        let Some(way) = self.scan(set, addr) else { return false };
        self.words[set].dirty |= 1 << way;
        true
    }

    /// Chooses the victim way for `addr`'s set: an invalid way if one exists,
    /// otherwise the replacement policy's choice. This is the victim rule of
    /// every cache level, the LLC included. Under SRRIP and SHiP it ages the
    /// set until some way reaches the maximum RRPV, so it takes `&mut self`.
    pub fn victim_way(&mut self, addr: u64) -> usize {
        let set = self.set_of(addr);
        let mut word = self.words[set];
        let way = self.victim_in(&mut word);
        self.words[set] = word;
        way
    }

    /// Fills `addr` into the set, evicting the policy victim if needed (the
    /// line must be absent): [`victim_way`](Self::victim_way),
    /// [`evict`](Self::evict) and [`fill_at`](Self::fill_at) in one visit to
    /// the set word.
    pub fn fill(&mut self, addr: u64, dirty: bool, signature: u16) -> FillResult {
        self.install(self.set_of(addr), addr, dirty, signature)
    }

    /// [`fill`](Self::fill) into `addr`'s set, `set`. The steps act on a copy
    /// of the set word, read and written back once. This function and the
    /// steps are `#[inline(always)]`: left to the optimizer, they stay calls
    /// that pass the word through memory, and the fused operations then run
    /// slower than the separate calls they replace.
    #[inline(always)]
    fn install(&mut self, set: usize, addr: u64, dirty: bool, signature: u16) -> FillResult {
        let mut word = self.words[set];
        let way = self.victim_in(&mut word);
        let evicted = self.evict_in(&mut word, set, way);
        self.fill_in(&mut word, set, way, addr, dirty, signature);
        self.words[set] = word;
        FillResult { way, evicted }
    }

    /// The victim rule on a copy of a set's word: the lowest invalid way,
    /// otherwise [`Replacement::victim`].
    #[inline(always)]
    fn victim_in(&mut self, word: &mut SetWord) -> usize {
        let ways = self.config.ways;
        invalid_way(word, ways).unwrap_or_else(|| self.replacement.victim(&mut word.repl, ways))
    }

    /// Fills a line brought in by a prefetch.
    pub fn fill_prefetch(&mut self, addr: u64, signature: u16) -> FillResult {
        let set = self.set_of(addr);
        let result = self.install(set, addr, false, signature);
        self.words[set].prefetched |= 1 << result.way;
        self.stats.prefetch_fills += 1;
        result
    }

    /// Ways of `set` ordered most-evictable first according to the
    /// replacement policy (LRU→MRU, or highest→lowest RRPV), read from the
    /// set word without sorting: the LRU field already is this order, and an
    /// RRIP field is packed into the same 4-bit-per-way form; the iterator
    /// unpacks one way per step. This is the order BARD and Eager Writeback
    /// scan for low-cost dirty lines, not a victim rule:
    /// [`victim_way`](Self::victim_way) chooses the victim. In a full set the
    /// first way is the one `victim_way` picks, but reading the order never
    /// ages an RRIP set.
    pub fn eviction_order(&self, set: usize) -> impl Iterator<Item = usize> {
        let order = self.replacement.eviction_order(self.words[set].repl, self.config.ways);
        (0..self.config.ways).map(move |rank| ((order >> (4 * rank)) & 0xf) as usize)
    }

    /// Removes the line in `way` of `set`. Returns the evicted line if it was
    /// valid. The way keeps its place in the replacement field.
    pub fn evict(&mut self, set: usize, way: usize) -> Option<EvictedLine> {
        let mut word = self.words[set];
        let evicted = self.evict_in(&mut word, set, way);
        self.words[set] = word;
        evicted
    }

    /// [`evict`](Self::evict) on a copy of `set`'s word.
    #[inline(always)]
    fn evict_in(&mut self, word: &mut SetWord, set: usize, way: usize) -> Option<EvictedLine> {
        let bit = 1 << way;
        if word.valid & bit == 0 {
            return None;
        }
        let idx = set * self.config.ways + way;
        let addr = std::mem::replace(&mut self.tags[idx], TAG_INVALID);
        let dirty = word.dirty & bit != 0;
        self.replacement.on_evict(idx, word.reused & bit != 0);
        word.valid &= !bit;
        word.dirty &= !bit;
        word.prefetched &= !bit;
        word.reused &= !bit;
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
        self.words[set].dirty &= !(1 << way);
        self.stats.cleanses += 1;
        Some(addr)
    }

    /// Installs `addr` into a specific way (which must have been emptied by
    /// [`evict`](Self::evict) or be invalid, so its flags are clear).
    ///
    /// # Panics
    ///
    /// Panics in debug builds if the target way still holds a valid line.
    pub fn fill_at(&mut self, set: usize, way: usize, addr: u64, dirty: bool, signature: u16) {
        let mut word = self.words[set];
        self.fill_in(&mut word, set, way, addr, dirty, signature);
        self.words[set] = word;
    }

    /// [`fill_at`](Self::fill_at) on a copy of `set`'s word.
    #[inline(always)]
    fn fill_in(
        &mut self,
        word: &mut SetWord,
        set: usize,
        way: usize,
        addr: u64,
        dirty: bool,
        signature: u16,
    ) {
        let ways = self.config.ways;
        let idx = set * ways + way;
        debug_assert_eq!(self.tags[idx], TAG_INVALID, "fill_at target must be empty");
        self.tags[idx] = self.line_addr(addr);
        word.valid |= 1 << way;
        word.dirty |= u16::from(dirty) << way;
        self.stats.fills += 1;
        self.replacement.on_insert(&mut word.repl, ways, way, idx, signature);
    }

    /// Number of valid lines currently resident (test / debug helper).
    #[must_use]
    pub fn occupancy(&self) -> usize {
        self.words.iter().map(|w| w.valid.count_ones() as usize).sum()
    }

    /// Number of dirty lines currently resident.
    #[must_use]
    pub fn dirty_count(&self) -> usize {
        self.words.iter().map(|w| w.dirty.count_ones() as usize).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bard_image::{decode, encode};

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
            let state = encode(|io| warmed.image(io));
            let mut restored = SetAssocCache::new(CacheConfig::new(1024, 4, 64), kind);
            decode(&state, |io| restored.image(io)).expect("a cache's own image decodes");
            assert_eq!(encode(|io| restored.image(io)), state);
            // The rebuilt tags must answer probes identically.
            for i in 0..300u64 {
                let addr = (i * 64) % (8 * 4096);
                assert_eq!(warmed.probe(addr), restored.probe(addr));
            }
            // And future decisions must coincide.
            for set in 0..4 {
                assert!(warmed.eviction_order(set).eq(restored.eviction_order(set)));
            }
        }
    }

    /// Evicted ways hold invalid tags with clear flags, but keep the
    /// replacement metadata (RRPV, SHiP signature) they held.
    #[test]
    fn eviction_keeps_replacement_metadata_but_clears_the_line() {
        let mut c = SetAssocCache::new(CacheConfig::new(1024, 4, 64), ReplacementKind::Ship);
        c.fill(0x1000, true, 42);
        assert!(c.touch(0x1000, 0, false));
        let set = c.set_of(0x1000);
        let way = c.probe(0x1000).unwrap();
        c.evict(set, way).expect("valid line");
        let idx = set * 4 + way;
        assert_eq!(c.tags[idx], TAG_INVALID);
        let word = c.words[set];
        assert_eq!(word.valid | word.dirty | word.prefetched | word.reused, 0);
        let Replacement::Ship { signatures, .. } = &c.replacement else {
            panic!("SHiP state expected");
        };
        assert_eq!(((word.repl >> (2 * way)) & 3, signatures[idx]), (0, 42));
    }

    #[test]
    #[should_panic(expected = "image has 16 cache lines, this system has 32")]
    fn state_import_rejects_wrong_geometry() {
        let state = encode(|io| small_cache().image(io));
        let mut wrong = SetAssocCache::new(CacheConfig::new(2048, 4, 64), ReplacementKind::Lru);
        decode(&state, |io| wrong.image(io)).unwrap();
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

    /// A write-back hit marks the line dirty but is not a demand reference:
    /// A stays the LRU way, so the next fill evicts it, dirty. Both
    /// write-back operations behave so.
    #[test]
    fn write_back_hit_leaves_recency_alone() {
        let [a, b, c, d, e] = [0, 1, 2, 3, 4].map(|i| 0x70_000 + i * 256);
        for fused in [false, true] {
            let mut cache = small_cache();
            for line in [a, b, c, d] {
                cache.fill(line, false, 0);
            }
            if fused {
                assert_eq!(cache.write_back(a, 0), None);
            } else {
                assert!(cache.writeback_access(a));
            }
            let evicted = cache.fill(e, false, 0).evicted;
            assert_eq!(evicted, Some(EvictedLine { addr: a, dirty: true }), "fused: {fused}");
        }
    }

    #[test]
    fn prefetch_fill_and_useful_tracking() {
        let mut c = small_cache();
        c.fill_prefetch(0x6000, 0);
        assert_eq!(c.stats().prefetch_fills, 1);
        let prefetched = |c: &SetAssocCache| c.words.iter().any(|w| w.prefetched != 0);
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
        let order: Vec<usize> = c.eviction_order(set).collect();
        let victim = c.victim_way(addrs[0]);
        assert_eq!(order[0], victim);
        assert_eq!(order.len(), 4);
    }

    #[test]
    fn invalid_ways_are_filled_first() {
        let mut c = small_cache();
        let set = c.set_of(0x100);
        assert_eq!(invalid_way(&c.words[set], 4), Some(0));
        c.fill(0x100, false, 0);
        assert_eq!(invalid_way(&c.words[set], 4), Some(1));
        for i in 1..4 {
            c.fill(0x100 + i * 256, false, 0);
        }
        assert_eq!(invalid_way(&c.words[set], 4), None);
        c.evict(set, 2).expect("valid line");
        assert_eq!(invalid_way(&c.words[set], 4), Some(2));
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

    #[test]
    #[should_panic(expected = "associativity must be 1..=16")]
    fn config_rejects_zero_ways() {
        let _ = CacheConfig::new(1024, 0, 64);
    }

    #[test]
    #[should_panic(expected = "associativity must be 1..=16")]
    fn config_rejects_more_than_sixteen_ways() {
        let _ = CacheConfig::new(17 * 64 * 4, 17, 64);
    }

    /// The per-way model the set words replaced, kept as the lockstep
    /// reference: per way an LRU stamp from an unbounded `u64` clock (ties
    /// go to the lower way), an RRPV, a fill signature and the dirty,
    /// prefetched and reused flags, plus SHiP's counter table.
    struct Reference {
        kind: ReplacementKind,
        ways: usize,
        tags: Vec<Option<u64>>,
        stamp: Vec<u64>,
        rrpv: Vec<u8>,
        signature: Vec<u16>,
        dirty: Vec<bool>,
        prefetched: Vec<bool>,
        reused: Vec<bool>,
        clock: u64,
        shct: Vec<u8>,
        stats: CacheStats,
        scans: u64,
    }

    impl Reference {
        fn new(kind: ReplacementKind, sets: usize, ways: usize) -> Self {
            let lines = sets * ways;
            Self {
                kind,
                ways,
                tags: vec![None; lines],
                stamp: vec![0; lines],
                rrpv: vec![3; lines],
                signature: vec![0; lines],
                dirty: vec![false; lines],
                prefetched: vec![false; lines],
                reused: vec![false; lines],
                clock: 0,
                shct: vec![1; 16 * 1024],
                stats: CacheStats::default(),
                scans: 0,
            }
        }

        fn set_of(&self, addr: u64) -> usize {
            (addr >> 6) as usize % (self.tags.len() / self.ways)
        }

        fn find(&mut self, addr: u64) -> Option<usize> {
            self.scans += 1;
            let base = self.set_of(addr) * self.ways;
            (0..self.ways).find(|&w| self.tags[base + w] == Some(addr & !63))
        }

        fn counter(&mut self, line: usize) -> &mut u8 {
            &mut self.shct[self.signature[line] as usize % (16 * 1024)]
        }

        fn touch(&mut self, addr: u64, is_write: bool) -> bool {
            if is_write {
                self.stats.stores += 1;
            } else {
                self.stats.loads += 1;
            }
            let Some(way) = self.find(addr) else { return false };
            if is_write {
                self.stats.stores_hits += 1;
            } else {
                self.stats.load_hits += 1;
            }
            let line = self.set_of(addr) * self.ways + way;
            self.dirty[line] |= is_write;
            if self.prefetched[line] {
                self.prefetched[line] = false;
                self.stats.prefetch_useful += 1;
            }
            self.reused[line] = true;
            match self.kind {
                ReplacementKind::Lru => {
                    self.clock += 1;
                    self.stamp[line] = self.clock;
                }
                ReplacementKind::Srrip => self.rrpv[line] = 0,
                ReplacementKind::Ship => {
                    self.rrpv[line] = 0;
                    let counter = self.counter(line);
                    *counter = (*counter + 1).min(7);
                }
            }
            true
        }

        fn writeback_access(&mut self, addr: u64) -> bool {
            self.stats.writeback_accesses += 1;
            let Some(way) = self.find(addr) else { return false };
            let line = self.set_of(addr) * self.ways + way;
            self.dirty[line] = true;
            true
        }

        fn order(&self, set: usize) -> Vec<usize> {
            let base = set * self.ways;
            let mut order: Vec<usize> = (0..self.ways).collect();
            match self.kind {
                ReplacementKind::Lru => order.sort_by_key(|&w| (self.stamp[base + w], w)),
                _ => order.sort_by_key(|&w| (std::cmp::Reverse(self.rrpv[base + w]), w)),
            }
            order
        }

        fn victim_way(&mut self, addr: u64) -> usize {
            let set = self.set_of(addr);
            let base = set * self.ways;
            if let Some(way) = (0..self.ways).find(|&w| self.tags[base + w].is_none()) {
                return way;
            }
            if self.kind == ReplacementKind::Lru {
                return self.order(set)[0];
            }
            loop {
                if let Some(way) = (0..self.ways).find(|&w| self.rrpv[base + w] == 3) {
                    return way;
                }
                for rrpv in &mut self.rrpv[base..base + self.ways] {
                    *rrpv += 1;
                }
            }
        }

        fn evict(&mut self, set: usize, way: usize) -> Option<EvictedLine> {
            let line = set * self.ways + way;
            let addr = self.tags[line]?;
            if self.kind == ReplacementKind::Ship && !self.reused[line] {
                let counter = self.counter(line);
                *counter = counter.saturating_sub(1);
            }
            let dirty = self.dirty[line];
            self.tags[line] = None;
            (self.dirty[line], self.prefetched[line], self.reused[line]) = (false, false, false);
            if dirty {
                self.stats.dirty_evictions += 1;
            } else {
                self.stats.clean_evictions += 1;
            }
            Some(EvictedLine { addr, dirty })
        }

        fn fill(&mut self, addr: u64, dirty: bool, signature: u16) -> FillResult {
            let way = self.victim_way(addr);
            let set = self.set_of(addr);
            let evicted = self.evict(set, way);
            let line = set * self.ways + way;
            self.tags[line] = Some(addr & !63);
            self.dirty[line] = dirty;
            self.signature[line] = signature;
            self.stats.fills += 1;
            match self.kind {
                ReplacementKind::Lru => {
                    self.clock += 1;
                    self.stamp[line] = self.clock;
                }
                ReplacementKind::Srrip => self.rrpv[line] = 2,
                ReplacementKind::Ship => {
                    self.rrpv[line] = if *self.counter(line) == 0 { 3 } else { 2 };
                }
            }
            FillResult { way, evicted }
        }

        fn access(
            &mut self,
            addr: u64,
            signature: u16,
            is_write: bool,
        ) -> (bool, Option<EvictedLine>) {
            if self.touch(addr, is_write) {
                return (true, None);
            }
            (false, self.fill(addr, is_write, signature).evicted)
        }

        fn write_back(&mut self, addr: u64, signature: u16) -> Option<EvictedLine> {
            if self.writeback_access(addr) {
                return None;
            }
            self.fill(addr, true, signature).evicted
        }

        fn fill_prefetch(&mut self, addr: u64, signature: u16) -> FillResult {
            let result = self.fill(addr, false, signature);
            let line = self.set_of(addr) * self.ways + result.way;
            self.prefetched[line] = true;
            self.stats.prefetch_fills += 1;
            result
        }

        fn dirty_addr(&self, set: usize, way: usize) -> Option<u64> {
            let line = set * self.ways + way;
            self.tags[line].filter(|_| self.dirty[line])
        }

        fn cleanse(&mut self, set: usize, way: usize) -> Option<u64> {
            let addr = self.dirty_addr(set, way)?;
            self.dirty[set * self.ways + way] = false;
            self.stats.cleanses += 1;
            Some(addr)
        }
    }

    /// Drives the cache and the per-way `Reference` with one random stream
    /// of every operation — demand loads and stores, fills, prefetch fills,
    /// write-backs, cleanses, evictions with no refill, victim choices,
    /// eviction orders, and the one-visit `access` and `write_back`, which
    /// the reference runs as touch-then-fill and write-back-then-fill — at
    /// 4, 8, 12 and 16 ways under every policy, with an image round
    /// trip halfway. After every operation its answer, its set scans, the
    /// statistics, and the eviction order and dirty lines of its set must
    /// agree. `BARD_PARITY=full` makes the stream longer.
    #[test]
    fn set_words_match_the_per_way_reference_in_lockstep() {
        const SETS: usize = 4;
        let full = std::env::var("BARD_PARITY").is_ok_and(|v| v == "full");
        let steps = if full { 400_000 } else { 20_000 };
        for ways in [4, 8, 12, 16] {
            for (k, kind) in [ReplacementKind::Lru, ReplacementKind::Srrip, ReplacementKind::Ship]
                .into_iter()
                .enumerate()
            {
                let config = CacheConfig::new(SETS * ways * 64, ways, 64);
                let mut cache = SetAssocCache::new(config, kind);
                let mut reference = Reference::new(kind, SETS, ways);
                let lines = 2 * (SETS * ways) as u64;
                let mut x = 0x2545_f491_4f6c_dd1d ^ ((ways * 3 + k) as u64) << 40;
                for step in 0..steps {
                    if step == steps / 2 {
                        let state = encode(|io| cache.image(io));
                        cache = SetAssocCache::new(config, kind);
                        decode(&state, |io| cache.image(io)).expect("the image decodes");
                        assert_eq!(encode(|io| cache.image(io)), state);
                    }
                    x ^= x << 13;
                    x ^= x >> 7;
                    x ^= x << 17;
                    let addr = (x % lines) * 64 + (x >> 58);
                    let (set, way) = (cache.set_of(addr), (x >> 20) as usize % ways);
                    let (write, signature) = ((x >> 33) & 1 == 1, (x >> 44) as u16 % 6);
                    let at = || format!("{} {ways}-way, step {step}", kind.name());
                    let absent = cache.probe(addr).is_none();
                    let scans = (cache.set_scans(), reference.scans);
                    match (x >> 8) % 20 {
                        0..=5 => {
                            let hit = cache.touch(addr, signature, write);
                            assert_eq!(hit, reference.touch(addr, write), "{}: touch", at());
                        }
                        6..=8 if absent => assert_eq!(
                            cache.fill(addr, write, signature),
                            reference.fill(addr, write, signature),
                            "{}: fill",
                            at()
                        ),
                        9 if absent => assert_eq!(
                            cache.fill_prefetch(addr, signature),
                            reference.fill_prefetch(addr, signature),
                            "{}: prefetch fill",
                            at()
                        ),
                        10 | 11 => assert_eq!(
                            cache.writeback_access(addr),
                            reference.writeback_access(addr),
                            "{}: write-back",
                            at()
                        ),
                        12 => assert_eq!(
                            cache.cleanse(set, way),
                            reference.cleanse(set, way),
                            "{}: cleanse",
                            at()
                        ),
                        13 => {
                            assert_eq!(
                                cache.evict(set, way),
                                reference.evict(set, way),
                                "{}: evict",
                                at()
                            );
                        }
                        14 => assert_eq!(
                            cache.victim_way(addr),
                            reference.victim_way(addr),
                            "{}: victim",
                            at()
                        ),
                        15..=17 => assert_eq!(
                            cache.access(addr, signature, write),
                            reference.access(addr, signature, write),
                            "{}: access",
                            at()
                        ),
                        18 | 19 => assert_eq!(
                            cache.write_back(addr, signature),
                            reference.write_back(addr, signature),
                            "{}: write_back",
                            at()
                        ),
                        _ => {}
                    }
                    let scanned = cache.set_scans() - scans.0;
                    assert_eq!(scanned, reference.scans - scans.1, "{}: set scans", at());
                    assert_eq!(cache.stats(), &reference.stats, "{}: stats", at());
                    let order: Vec<usize> = cache.eviction_order(set).collect();
                    assert_eq!(order, reference.order(set), "{}: order", at());
                    for w in 0..ways {
                        let dirty = reference.dirty_addr(set, w);
                        assert_eq!(cache.dirty_addr(set, w), dirty, "{}: dirty way {w}", at());
                    }
                }
                if let Replacement::Ship { shct, .. } = &cache.replacement {
                    assert!(shct == &reference.shct, "{} {ways}-way: SHCT", kind.name());
                }
            }
        }
    }
}

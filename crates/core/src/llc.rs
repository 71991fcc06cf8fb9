//! The sliced last-level cache with pluggable writeback policies.
//!
//! This is where the paper's mechanism lives: on every fill that needs to
//! evict a line, the configured [`WritePolicyKind`] may override the
//! replacement victim (BARD-E), proactively clean a dirty line (BARD-C,
//! Eager Writeback, Virtual Write Queue) or both (BARD-H), consulting the
//! [`BlpTracker`] to find lines whose write-back improves the bank-level
//! parallelism of the DRAM write stream.

use bard_cache::{CacheConfig, CacheStats, ReplacementKind, SetAssocCache};
use bard_dram::{AddressMapping, DramConfig};

use bard_cache::CacheState;

use crate::blp_tracker::{BlpTracker, BlpTrackerState};
use crate::policy::{PolicyStats, WritePolicyKind};

/// Upper bound on proactive cleanses per eviction for the Virtual Write Queue
/// baseline (it chases row-buffer hits, not banks).
const VWQ_MAX_CLEANSES: usize = 4;
/// How many sets around the victim's set VWQ searches for same-row dirty
/// lines. The paper lets VWQ search the entire LLC; a windowed search keeps
/// simulation time reasonable and is generous compared to the original
/// design, which probed only neighbouring sets.
const VWQ_SET_WINDOW: usize = 256;

/// Plain-data image of a [`SlicedLlc`] (snapshot support).
///
/// Covers everything mutable: per-slice cache contents, the BLP-Tracker and
/// the policy counters. Geometry, policy kind and the address mapping are
/// reconstructed from the simulator configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct LlcState {
    /// One cache image per slice, in slice order.
    pub slices: Vec<CacheState>,
    /// BLP-Tracker bitmaps and counters.
    pub tracker: BlpTrackerState,
    /// Writeback-policy statistics.
    pub stats: PolicyStats,
}

/// A shared, sliced, set-associative LLC with a bank-aware writeback policy.
#[derive(Debug)]
pub struct SlicedLlc {
    slices: Vec<SetAssocCache>,
    slice_count: usize,
    policy: WritePolicyKind, // bard-lint: allow(S1) -- config knob fixed at construction
    tracker: BlpTracker,
    mapping: AddressMapping, // bard-lint: allow(S1) -- config knob fixed at construction
    stats: PolicyStats,
    /// Reused scan-order buffer (one allocation per `SlicedLlc` instead of
    /// one per scan).
    scratch_order: Vec<usize>, // bard-lint: allow(S1) -- scratch buffer, cleared per use
}

impl SlicedLlc {
    /// Builds the LLC.
    ///
    /// # Panics
    ///
    /// Panics if `slice_count` is not a power of two or does not divide the
    /// capacity evenly.
    #[must_use]
    pub fn new(
        total_bytes: usize,
        ways: usize,
        line_bytes: usize,
        slice_count: usize,
        replacement: ReplacementKind,
        policy: WritePolicyKind,
        dram: &DramConfig,
    ) -> Self {
        assert!(slice_count.is_power_of_two(), "slice count must be a power of two");
        assert_eq!(total_bytes % slice_count, 0, "capacity must divide evenly across slices");
        let slice_bytes = total_bytes / slice_count;
        let slices = (0..slice_count)
            .map(|_| {
                SetAssocCache::new(CacheConfig::new(slice_bytes, ways, line_bytes), replacement)
            })
            .collect();
        Self {
            slices,
            slice_count,
            policy,
            tracker: BlpTracker::new(
                dram.channels,
                dram.banks_per_channel(),
                dram.banks_per_subchannel(),
            ),
            mapping: AddressMapping::new(dram),
            stats: PolicyStats::default(),
            scratch_order: Vec::new(),
        }
    }

    /// The writeback policy in use.
    #[must_use]
    pub fn policy(&self) -> WritePolicyKind {
        self.policy
    }

    /// Number of slices.
    #[must_use]
    pub fn slice_count(&self) -> usize {
        self.slice_count
    }

    /// The BLP-Tracker (read-only; for tests and analyses).
    #[must_use]
    pub fn tracker(&self) -> &BlpTracker {
        &self.tracker
    }

    /// Writeback-policy statistics.
    #[must_use]
    pub fn policy_stats(&self) -> PolicyStats {
        self.stats
    }

    /// Cache statistics merged over all slices.
    #[must_use]
    pub fn cache_stats(&self) -> CacheStats {
        let mut merged = CacheStats::default();
        for s in &self.slices {
            merged.merge(s.stats());
        }
        merged
    }

    /// Total number of dirty lines currently resident (test helper).
    #[must_use]
    pub fn dirty_lines(&self) -> usize {
        self.slices.iter().map(SetAssocCache::dirty_count).sum()
    }

    /// Clears cache and policy statistics (end of warm-up). Contents and the
    /// BLP-Tracker state are preserved.
    pub fn reset_stats(&mut self) {
        for s in &mut self.slices {
            s.reset_stats();
        }
        self.stats = PolicyStats::default();
    }

    /// Exports the full mutable LLC state (snapshot support).
    #[must_use]
    pub fn export_state(&self) -> LlcState {
        LlcState {
            slices: self.slices.iter().map(SetAssocCache::export_state).collect(),
            tracker: self.tracker.export_state(),
            stats: self.stats,
        }
    }

    /// Replaces the LLC contents, tracker and counters with `state`.
    ///
    /// # Panics
    ///
    /// Panics when the image was taken from an LLC with a different slice
    /// count or slice geometry — restores are gated by snapshot digests, so a
    /// mismatch is a programming error.
    pub fn import_state(&mut self, state: &LlcState) {
        assert_eq!(state.slices.len(), self.slice_count, "LLC slice count mismatch");
        for (slice, image) in self.slices.iter_mut().zip(&state.slices) {
            slice.import_state(image);
        }
        self.tracker.import_state(&state.tracker);
        self.stats = state.stats;
    }

    /// Replaces only the per-slice cache contents, leaving the BLP-Tracker
    /// and policy counters untouched (warm-image fork: the functional
    /// warm-up never exercises the tracker or policy, so those stay at their
    /// freshly-built values, which may have different geometry than the
    /// system the image was captured under).
    ///
    /// # Panics
    ///
    /// Panics when the image was taken from an LLC with a different slice
    /// count or slice geometry — restores are gated by snapshot digests, so a
    /// mismatch is a programming error.
    pub fn import_slices(&mut self, slices: &[CacheState]) {
        assert_eq!(slices.len(), self.slice_count, "LLC slice count mismatch");
        for (slice, image) in self.slices.iter_mut().zip(slices) {
            slice.import_state(image);
        }
    }

    /// True if `addr` is resident (no state update).
    #[must_use]
    pub fn probe(&self, addr: u64) -> bool {
        self.slices[self.slice_of(addr)].probe(addr).is_some()
    }

    /// Demand read access (load, RFO or prefetch probe). Returns `true` on a
    /// hit. Under Eager Writeback a hit may also produce a proactive
    /// write-back, appended to `writebacks`.
    pub fn read_access(&mut self, addr: u64, signature: u16, writebacks: &mut Vec<u64>) -> bool {
        let slice = self.slice_of(addr);
        let hit = self.slices[slice].touch(addr, signature, false);
        if hit && self.policy == WritePolicyKind::EagerWriteback {
            let set = self.slices[slice].set_of(addr);
            self.eager_cleanse(slice, set, writebacks);
        }
        hit
    }

    /// Tag-array set scans summed over all slices (hot-path perf counter).
    #[must_use]
    pub fn set_scans(&self) -> u64 {
        self.slices.iter().map(SetAssocCache::set_scans).sum()
    }

    /// Write-back arriving from a private L2. If the line is resident it is
    /// marked dirty; otherwise it is allocated dirty (which may trigger an
    /// eviction through the writeback policy).
    pub fn writeback_from_inner(
        &mut self,
        addr: u64,
        writebacks: &mut Vec<u64>,
        wrq_has_bank: &mut dyn FnMut(u64) -> bool,
    ) {
        let slice = self.slice_of(addr);
        if self.slices[slice].writeback_access(addr) {
            return;
        }
        self.allocate(slice, addr, true, 0, writebacks, wrq_has_bank);
    }

    /// Fill returning from DRAM (or installed after an LLC hit at an inner
    /// level). May evict through the writeback policy.
    pub fn fill(
        &mut self,
        addr: u64,
        signature: u16,
        dirty: bool,
        writebacks: &mut Vec<u64>,
        wrq_has_bank: &mut dyn FnMut(u64) -> bool,
    ) {
        let slice = self.slice_of(addr);
        if self.slices[slice].probe(addr).is_some() {
            // Already present (race between a prefetch and a demand miss).
            if dirty {
                self.slices[slice].writeback_access(addr);
            }
            return;
        }
        self.allocate(slice, addr, dirty, signature, writebacks, wrq_has_bank);
    }

    /// Timing-free access used during functional warm-up: installs lines and
    /// dirty bits without generating DRAM traffic.
    pub fn functional_access(&mut self, addr: u64, is_write: bool) {
        let slice = self.slice_of(addr);
        if !self.slices[slice].touch(addr, 0, is_write) {
            let _ = self.slices[slice].fill(addr, is_write, 0);
        }
    }

    fn slice_of(&self, addr: u64) -> usize {
        let line = addr >> 6;
        ((line ^ (line >> 10) ^ (line >> 17)) as usize) & (self.slice_count - 1)
    }

    /// Emits a write-back towards DRAM, updating the BLP-Tracker (the bank
    /// broadcast of Section VII-H).
    fn emit_writeback(&mut self, addr: u64, writebacks: &mut Vec<u64>) {
        let (channel, bank) = self.mapping.channel_and_bank(addr);
        self.tracker.record_writeback(channel, bank);
        self.stats.writebacks += 1;
        self.stats.bank_broadcasts += 1;
        writebacks.push(addr);
    }

    fn improves_blp(&self, addr: u64) -> bool {
        let (channel, bank) = self.mapping.channel_and_bank(addr);
        !self.tracker.has_pending(channel, bank)
    }

    fn record_decision_accuracy(&mut self, addr: u64, wrq_has_bank: &mut dyn FnMut(u64) -> bool) {
        self.stats.checked_decisions += 1;
        if wrq_has_bank(addr) {
            self.stats.incorrect_decisions += 1;
        }
    }

    fn allocate(
        &mut self,
        slice: usize,
        addr: u64,
        dirty: bool,
        signature: u16,
        writebacks: &mut Vec<u64>,
        wrq_has_bank: &mut dyn FnMut(u64) -> bool,
    ) {
        let cache = &mut self.slices[slice];
        let set = cache.set_of(addr);
        // The replacement policy's own victim, as in every other cache: a
        // free way first, otherwise the policy's choice (RRIP ages the set).
        let candidate = cache.victim_way(addr);
        if !cache.is_valid(set, candidate) {
            cache.fill_at(set, candidate, addr, dirty, signature);
            return;
        }
        let candidate_dirty = cache.dirty_addr(set, candidate);

        self.stats.evictions += 1;
        if candidate_dirty.is_some() {
            self.stats.dirty_victim_evictions += 1;
        }

        let victim = match (self.policy, candidate_dirty) {
            (WritePolicyKind::BardE | WritePolicyKind::BardH, Some(candidate_addr)) => {
                self.bard_e_select(slice, set, candidate, candidate_addr, wrq_has_bank)
            }
            (WritePolicyKind::BardC | WritePolicyKind::BardH, None) => {
                self.bard_c_cleanse(slice, set, writebacks, wrq_has_bank);
                candidate
            }
            _ => candidate,
        };

        let evicted = self.slices[slice].evict(set, victim);
        let mut dirty_victim = None;
        if let Some(ev) = evicted {
            if ev.dirty {
                self.emit_writeback(ev.addr, writebacks);
                dirty_victim = Some(ev.addr);
            }
        }
        self.slices[slice].fill_at(set, victim, addr, dirty, signature);

        match self.policy {
            WritePolicyKind::EagerWriteback => self.eager_cleanse(slice, set, writebacks),
            WritePolicyKind::VirtualWriteQueue => {
                if let Some(victim) = dirty_victim {
                    self.vwq_cleanse(slice, set, victim, writebacks);
                }
            }
            _ => {}
        }
    }

    /// Walks the ways of `set` in eviction order, most evictable first
    /// (LRU→MRU, or highest→lowest RRPV), and returns the first one `pick`
    /// accepts. This is the scan order of BARD-E's override, BARD-C's
    /// cleanse and EW's cleanse; it never chooses the victim, and a set is
    /// sorted only when one of those scans reads it.
    fn scan<T>(
        &mut self,
        slice: usize,
        set: usize,
        pick: impl Fn(&Self, usize) -> Option<T>,
    ) -> Option<T> {
        let mut order = std::mem::take(&mut self.scratch_order);
        self.slices[slice].eviction_order_into(set, &mut order);
        let found = order.iter().find_map(|&way| pick(self, way));
        self.scratch_order = order;
        found
    }

    /// The most evictable dirty line of `set` whose bank the BLP-Tracker
    /// shows without a pending write, as `(way, line address)`.
    fn blp_improving_dirty_way(&mut self, slice: usize, set: usize) -> Option<(usize, u64)> {
        self.scan(slice, set, |llc, way| {
            let addr = llc.slices[slice].dirty_addr(set, way)?;
            llc.improves_blp(addr).then_some((way, addr))
        })
    }

    /// BARD-E victim selection: keep the replacement victim (dirty, at
    /// `candidate_addr`) if its bank has no pending write, otherwise take the
    /// most evictable dirty line that improves BLP. The candidate's own bank
    /// is pending, so that scan passes over it.
    fn bard_e_select(
        &mut self,
        slice: usize,
        set: usize,
        candidate: usize,
        candidate_addr: u64,
        wrq_has_bank: &mut dyn FnMut(u64) -> bool,
    ) -> usize {
        if self.improves_blp(candidate_addr) {
            return candidate;
        }
        let Some((way, addr)) = self.blp_improving_dirty_way(slice, set) else {
            return candidate;
        };
        self.stats.overrides += 1;
        self.record_decision_accuracy(addr, wrq_has_bank);
        way
    }

    /// BARD-C cleansing: write back the most evictable dirty line that
    /// improves BLP without evicting it.
    fn bard_c_cleanse(
        &mut self,
        slice: usize,
        set: usize,
        writebacks: &mut Vec<u64>,
        wrq_has_bank: &mut dyn FnMut(u64) -> bool,
    ) {
        let Some((way, addr)) = self.blp_improving_dirty_way(slice, set) else { return };
        self.slices[slice].cleanse(set, way);
        self.stats.cleanses += 1;
        self.record_decision_accuracy(addr, wrq_has_bank);
        self.emit_writeback(addr, writebacks);
    }

    /// Eager Writeback: proactively write back the most evictable valid line
    /// of `set` if it is dirty, without considering banks.
    fn eager_cleanse(&mut self, slice: usize, set: usize, writebacks: &mut Vec<u64>) {
        let lru_valid =
            self.scan(slice, set, |llc, way| llc.slices[slice].is_valid(set, way).then_some(way));
        if let Some(addr) = lru_valid.and_then(|way| self.slices[slice].cleanse(set, way)) {
            self.stats.cleanses += 1;
            self.emit_writeback(addr, writebacks);
        }
    }

    /// Virtual Write Queue: after a dirty eviction of `victim`, proactively
    /// write back other dirty lines mapping to the same DRAM row.
    fn vwq_cleanse(
        &mut self,
        slice: usize,
        victim_set: usize,
        victim: u64,
        writebacks: &mut Vec<u64>,
    ) {
        let sets = self.slices[slice].sets();
        let ways = self.slices[slice].ways();
        let mut cleansed = 0;
        let window = VWQ_SET_WINDOW.min(sets);
        for offset in 0..window {
            if cleansed >= VWQ_MAX_CLEANSES {
                break;
            }
            let set = (victim_set + offset) % sets;
            for way in 0..ways {
                if cleansed >= VWQ_MAX_CLEANSES {
                    break;
                }
                let Some(addr) = self.slices[slice].dirty_addr(set, way) else { continue };
                if self.mapping.same_row(addr, victim) {
                    self.slices[slice].cleanse(set, way);
                    self.stats.cleanses += 1;
                    self.emit_writeback(addr, writebacks);
                    cleansed += 1;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dram() -> DramConfig {
        DramConfig::ddr5_4800_x4()
    }

    fn llc(policy: WritePolicyKind) -> SlicedLlc {
        // A tiny LLC (64 KiB, 4 slices, 4 ways) so sets fill quickly in tests.
        SlicedLlc::new(64 * 1024, 4, 64, 4, ReplacementKind::Lru, policy, &dram())
    }

    fn no_oracle() -> impl FnMut(u64) -> bool {
        |_| false
    }

    /// Fills the LLC with dirty lines.
    fn warm_dirty(llc: &mut SlicedLlc, lines: usize) {
        for i in 0..lines as u64 {
            llc.functional_access(i * 64, true);
        }
    }

    #[test]
    fn llc_state_round_trips_and_restores_lockstep_behaviour() {
        let mut c = llc(WritePolicyKind::BardH);
        warm_dirty(&mut c, 3000);
        let mut wbs = Vec::new();
        let mut oracle = no_oracle();
        for i in 0..500u64 {
            c.fill(0x8000_0000 + i * 64, (i % 7) as u16, i % 3 == 0, &mut wbs, &mut oracle);
        }
        let state = c.export_state();

        let mut restored = llc(WritePolicyKind::BardH);
        restored.import_state(&state);
        assert_eq!(restored.export_state(), state);
        assert_eq!(restored.policy_stats(), c.policy_stats());
        assert_eq!(restored.dirty_lines(), c.dirty_lines());

        // Both copies must now behave identically.
        let mut wb_a = Vec::new();
        let mut wb_b = Vec::new();
        let mut oracle_a = no_oracle();
        let mut oracle_b = no_oracle();
        for i in 0..500u64 {
            c.fill(0x9000_0000 + i * 64, (i % 5) as u16, false, &mut wb_a, &mut oracle_a);
            restored.fill(0x9000_0000 + i * 64, (i % 5) as u16, false, &mut wb_b, &mut oracle_b);
        }
        assert_eq!(wb_a, wb_b);
        assert_eq!(restored.policy_stats(), c.policy_stats());
        assert_eq!(restored.export_state(), c.export_state());
    }

    #[test]
    #[should_panic(expected = "slice count mismatch")]
    fn llc_state_rejects_wrong_slice_count() {
        let c = llc(WritePolicyKind::Baseline);
        let state = c.export_state();
        let mut other = SlicedLlc::new(
            64 * 1024,
            4,
            64,
            8,
            ReplacementKind::Lru,
            WritePolicyKind::Baseline,
            &dram(),
        );
        other.import_state(&state);
    }

    #[test]
    fn baseline_eviction_writes_back_dirty_victims() {
        let mut c = llc(WritePolicyKind::Baseline);
        warm_dirty(&mut c, 2048); // over-fill the 1024-line LLC
        c.reset_stats();
        let mut wbs = Vec::new();
        let mut oracle = no_oracle();
        for i in 0..512u64 {
            c.fill(0x4000_0000 + i * 64, 0, false, &mut wbs, &mut oracle);
        }
        assert!(!wbs.is_empty(), "evicting dirty lines must produce write-backs");
        let stats = c.policy_stats();
        assert_eq!(stats.overrides, 0);
        assert_eq!(stats.cleanses, 0);
        assert_eq!(stats.writebacks as usize, wbs.len());
    }

    #[test]
    fn bard_e_overrides_victims_mapping_to_pending_banks() {
        let mut c = llc(WritePolicyKind::BardE);
        warm_dirty(&mut c, 4096);
        c.reset_stats();
        let mut wbs = Vec::new();
        let mut oracle = no_oracle();
        for i in 0..2_000u64 {
            c.fill(0x8000_0000 + i * 64, 0, false, &mut wbs, &mut oracle);
        }
        let stats = c.policy_stats();
        assert!(stats.overrides > 0, "BARD-E should override some dirty victims");
        assert_eq!(stats.cleanses, 0, "BARD-E never cleanses");
    }

    #[test]
    fn bard_c_cleanses_only_on_clean_victims() {
        let mut c = llc(WritePolicyKind::BardC);
        // Half the lines dirty, half clean, assigned by a hash so that dirty
        // lines are decorrelated from the bank bits of the address (as in a
        // real workload) and every set holds a mix of both.
        for i in 0..4096u64 {
            let dirty = (i.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32) % 2 == 0;
            c.functional_access(i * 64, dirty);
        }
        c.reset_stats();
        let mut wbs = Vec::new();
        let mut oracle = no_oracle();
        for i in 0..2_000u64 {
            c.fill(0x8000_0000 + i * 64, 0, false, &mut wbs, &mut oracle);
        }
        let stats = c.policy_stats();
        assert!(stats.cleanses > 0, "BARD-C should cleanse dirty lines");
        assert_eq!(stats.overrides, 0, "BARD-C never overrides the victim");
    }

    #[test]
    fn bard_h_combines_overrides_and_cleanses() {
        let mut c = llc(WritePolicyKind::BardH);
        for i in 0..4096u64 {
            c.functional_access(i * 64, i % 3 != 0);
        }
        c.reset_stats();
        let mut wbs = Vec::new();
        let mut oracle = no_oracle();
        for i in 0..4_000u64 {
            c.fill(0x8000_0000 + i * 64, 0, i % 4 == 0, &mut wbs, &mut oracle);
        }
        let stats = c.policy_stats();
        assert!(stats.cleanses > 0, "BARD-H should cleanse when victims are clean");
        assert!(stats.overrides > 0, "BARD-H should override when victims are dirty");
    }

    #[test]
    fn eager_writeback_cleanses_without_bank_awareness() {
        let mut c = llc(WritePolicyKind::EagerWriteback);
        warm_dirty(&mut c, 4096);
        c.reset_stats();
        let mut wbs = Vec::new();
        let mut oracle = no_oracle();
        for i in 0..500u64 {
            c.fill(0x8000_0000 + i * 64, 0, false, &mut wbs, &mut oracle);
        }
        assert!(c.policy_stats().cleanses > 0);
        assert_eq!(c.policy_stats().checked_decisions, 0, "EW is not a BARD decision");
    }

    #[test]
    fn bard_decisions_track_accuracy_against_the_wrq() {
        let mut c = llc(WritePolicyKind::BardH);
        warm_dirty(&mut c, 4096);
        c.reset_stats();
        let mut wbs = Vec::new();
        // Oracle that claims every bank has a pending write: every decision is
        // "incorrect".
        let mut oracle = |_addr: u64| true;
        for i in 0..1_000u64 {
            c.fill(0x9000_0000 + i * 64, 0, false, &mut wbs, &mut oracle);
        }
        let stats = c.policy_stats();
        assert!(stats.checked_decisions > 0);
        assert_eq!(stats.checked_decisions, stats.incorrect_decisions);
        assert!((stats.incorrect_decision_fraction() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn writebacks_update_the_blp_tracker() {
        let mut c = llc(WritePolicyKind::BardH);
        warm_dirty(&mut c, 4096);
        c.reset_stats();
        let mut wbs = Vec::new();
        let mut oracle = no_oracle();
        for i in 0..64u64 {
            c.fill(0xA000_0000 + i * 64, 0, false, &mut wbs, &mut oracle);
        }
        assert!(c.tracker().set_events() > 0);
        assert_eq!(c.policy_stats().bank_broadcasts, c.policy_stats().writebacks);
    }

    #[test]
    fn writeback_from_inner_hits_mark_dirty_without_eviction() {
        let mut c = llc(WritePolicyKind::Baseline);
        let mut wbs = Vec::new();
        let mut oracle = no_oracle();
        c.fill(0x100, 0, false, &mut wbs, &mut oracle);
        assert_eq!(c.dirty_lines(), 0);
        c.writeback_from_inner(0x100, &mut wbs, &mut oracle);
        assert_eq!(c.dirty_lines(), 1);
        assert!(wbs.is_empty());
    }

    #[test]
    fn fill_of_resident_line_does_not_duplicate() {
        let mut c = llc(WritePolicyKind::Baseline);
        let mut wbs = Vec::new();
        let mut oracle = no_oracle();
        c.fill(0x200, 0, false, &mut wbs, &mut oracle);
        c.fill(0x200, 0, true, &mut wbs, &mut oracle);
        assert_eq!(c.cache_stats().fills, 1);
        assert_eq!(c.dirty_lines(), 1);
    }

    #[test]
    fn vwq_cleanses_same_row_lines() {
        let mut c = llc(WritePolicyKind::VirtualWriteQueue);
        // Two dirty lines in the same DRAM row as an eventual victim: lines
        // that differ only in low column bits share a row under Zen mapping.
        warm_dirty(&mut c, 4096);
        c.reset_stats();
        let mut wbs = Vec::new();
        let mut oracle = no_oracle();
        for i in 0..2_000u64 {
            c.fill(0xB000_0000 + i * 64, 0, false, &mut wbs, &mut oracle);
        }
        // VWQ may or may not find same-row lines depending on the mapping; at
        // minimum it must not crash and writebacks must flow.
        assert!(c.policy_stats().writebacks > 0);
    }

    /// The LLC evicts the replacement policy's own victim, exactly as a plain
    /// `SetAssocCache::fill` does: one random stream of demand reads and
    /// fills (random dirty bits and signatures) through a one-slice Baseline
    /// LLC and a cache of the same geometry leaves both with the same
    /// write-backs and the same tags, flags, stamps, RRPVs and SHCT after
    /// every access, under every replacement policy.
    #[test]
    fn llc_victims_match_the_cache_victim_rule_under_every_policy() {
        const LINES: u64 = 2_048;
        for kind in [ReplacementKind::Lru, ReplacementKind::Srrip, ReplacementKind::Ship] {
            let mut llc =
                SlicedLlc::new(16 * 1024, 4, 64, 1, kind, WritePolicyKind::Baseline, &dram());
            let mut cache = SetAssocCache::new(CacheConfig::new(16 * 1024, 4, 64), kind);
            let mut oracle = no_oracle();
            let mut x = 0x9E37_79B9_7F4A_7C15u64;
            for access in 0..20_000 {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                let addr = (x % LINES) * 64;
                let signature = (x >> 32) as u16 % 64;
                let dirty = (x >> 48).is_multiple_of(3);
                let mut wbs = Vec::new();
                let hit = llc.read_access(addr, signature, &mut wbs);
                assert_eq!(hit, cache.touch(addr, signature, false), "{kind:?} access {access}");
                let mut expected = Vec::new();
                if !hit {
                    llc.fill(addr, signature, dirty, &mut wbs, &mut oracle);
                    let evicted = cache.fill(addr, dirty, signature).evicted;
                    expected.extend(evicted.filter(|e| e.dirty).map(|e| e.addr));
                }
                assert_eq!(wbs, expected, "{kind:?} access {access}: write-backs");
                assert!(
                    llc.export_state().slices[0] == cache.export_state(),
                    "{kind:?} access {access}: cache state diverged"
                );
            }
        }
    }

    #[test]
    fn slice_hash_spreads_lines() {
        let c = llc(WritePolicyKind::Baseline);
        let mut counts = vec![0usize; c.slice_count()];
        for i in 0..4096u64 {
            counts[c.slice_of(i * 64)] += 1;
        }
        for &n in &counts {
            assert!(n > 4096 / c.slice_count() / 2, "slice distribution skewed: {counts:?}");
        }
    }
}

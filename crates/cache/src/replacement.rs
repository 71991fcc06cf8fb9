//! Cache replacement policies.
//!
//! Three policies from the paper's evaluation are provided: true LRU
//! (baseline, Table II), SRRIP and SHiP (Section VII-E / Figure 15). All of
//! them expose an *eviction order*, the ordering that BARD scans when
//! looking for a low-cost dirty line — LRU→MRU for LRU, and highest→lowest
//! RRPV for the RRIP-based policies.
//!
//! Per-way policy state (the LRU stamp, the RRPV and SHiP's fill signature)
//! lives in the cache's `WayRecord`s; `Replacement` holds only what is
//! per cache — the LRU touch counter and SHiP's signature history counter
//! table — and acts on the records it is handed.

use crate::block::WayRecord;

/// Which replacement policy to instantiate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum ReplacementKind {
    /// True least-recently-used.
    #[default]
    Lru,
    /// Static re-reference interval prediction (2-bit RRPV).
    Srrip,
    /// Signature-based hit predictor layered on RRIP.
    Ship,
}

impl ReplacementKind {
    /// Human-readable name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Self::Lru => "LRU",
            Self::Srrip => "SRRIP",
            Self::Ship => "SHiP",
        }
    }
}

/// Maximum re-reference prediction value for a 2-bit RRPV.
const RRPV_MAX: u8 = 3;
/// RRPV assigned on insertion by SRRIP ("long" re-reference interval).
const RRPV_INSERT: u8 = 2;
/// Number of entries in the SHiP signature history counter table.
const SHCT_ENTRIES: usize = 16 * 1024;
/// Saturating counter maximum for the SHCT.
const SHCT_MAX: u8 = 7;

/// A cache's replacement policy: the per-cache state of one
/// [`ReplacementKind`], driving decisions over the cache's way records.
///
/// The cache calls `on_hit` / `on_insert` / `on_evict` to keep the state up
/// to date and `victim` / `eviction_order` to make decisions. Ways holding
/// invalid lines are handled by the cache itself and never reach `victim`.
/// A [`CacheState`](crate::CacheState) carries the value as the cache
/// holds it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Replacement {
    /// True LRU: every touch stamps the way with the next value of `clock`.
    /// Stamps are `u32`; when `clock` would pass `u32::MAX`, every set's
    /// stamps are rewritten as their rank (`renormalize`), which keeps every
    /// within-set comparison and hence every decision exact.
    Lru {
        /// Stamp of the most recent touch.
        clock: u32,
    },
    /// Static RRIP with 2-bit re-reference prediction values.
    Srrip,
    /// SHiP: signature-based hit prediction on top of RRIP.
    ///
    /// Each fill records the PC signature; on eviction without reuse the
    /// signature's counter is decremented, on reuse it is incremented. Fills
    /// whose signature predicts no reuse are inserted with the maximum RRPV.
    Ship {
        /// Signature history counter table.
        shct: Vec<u8>,
    },
}

impl Replacement {
    /// Fresh policy state for `kind`.
    pub(crate) fn new(kind: ReplacementKind) -> Self {
        match kind {
            ReplacementKind::Lru => Self::Lru { clock: 0 },
            ReplacementKind::Srrip => Self::Srrip,
            ReplacementKind::Ship => Self::Ship { shct: vec![1; SHCT_ENTRIES] },
        }
    }

    /// The way record every way starts from.
    pub(crate) fn empty_record() -> WayRecord {
        WayRecord { stamp: 0, signature: 0, rrpv: RRPV_MAX, flags: 0 }
    }

    /// The policy kind.
    #[must_use]
    pub fn kind(&self) -> ReplacementKind {
        match self {
            Self::Lru { .. } => ReplacementKind::Lru,
            Self::Srrip => ReplacementKind::Srrip,
            Self::Ship { .. } => ReplacementKind::Ship,
        }
    }

    /// Records a hit on `records[idx]`; `records` is the whole cache
    /// (`ways` per set), which only the LRU stamp wrap reads.
    pub(crate) fn on_hit(&mut self, records: &mut [WayRecord], ways: usize, idx: usize) {
        match self {
            Self::Lru { clock } => records[idx].stamp = next_stamp(clock, records, ways),
            Self::Srrip => records[idx].rrpv = 0,
            Self::Ship { shct } => {
                records[idx].rrpv = 0;
                let counter = &mut shct[shct_index(records[idx].signature)];
                *counter = (*counter + 1).min(SHCT_MAX);
            }
        }
    }

    /// Records a fill into `records[idx]`, whose signature the cache has
    /// already set.
    pub(crate) fn on_insert(&mut self, records: &mut [WayRecord], ways: usize, idx: usize) {
        match self {
            Self::Lru { clock } => records[idx].stamp = next_stamp(clock, records, ways),
            Self::Srrip => records[idx].rrpv = RRPV_INSERT,
            Self::Ship { shct } => {
                let predicted_dead = shct[shct_index(records[idx].signature)] == 0;
                records[idx].rrpv = if predicted_dead { RRPV_MAX } else { RRPV_INSERT };
            }
        }
    }

    /// Records the eviction of the line in `record` (SHiP training: a line
    /// evicted without reuse weakens its signature).
    pub(crate) fn on_evict(&mut self, record: WayRecord) {
        if let Self::Ship { shct } = self {
            if !record.has(WayRecord::REUSED) {
                let counter = &mut shct[shct_index(record.signature)];
                *counter = counter.saturating_sub(1);
            }
        }
    }

    /// Chooses the victim among one full set's records (RRIP ages the set
    /// until some way reaches `RRPV_MAX`).
    pub(crate) fn victim(&self, set: &mut [WayRecord]) -> usize {
        match self {
            Self::Lru { .. } => (0..set.len()).min_by_key(|&w| set[w].stamp).expect("ways > 0"),
            Self::Srrip | Self::Ship { .. } => loop {
                if let Some(way) = set.iter().position(|r| r.rrpv == RRPV_MAX) {
                    return way;
                }
                for record in set.iter_mut() {
                    record.rrpv += 1;
                }
            },
        }
    }

    /// Writes all ways of one set into `out` (cleared first), most-evictable
    /// first: LRU→MRU, or highest→lowest RRPV. Ties go to the lower way.
    pub(crate) fn eviction_order(&self, set: &[WayRecord], out: &mut Vec<usize>) {
        out.clear();
        out.extend(0..set.len());
        match self {
            Self::Lru { .. } => out.sort_unstable_by_key(|&w| (set[w].stamp, w)),
            Self::Srrip | Self::Ship { .. } => {
                out.sort_unstable_by_key(|&w| (std::cmp::Reverse(set[w].rrpv), w));
            }
        }
    }

    /// Replaces this policy's state with `state` (snapshot restore).
    ///
    /// # Panics
    ///
    /// Panics when `state` is another policy or holds a SHiP table of
    /// another size — snapshot digests gate restores, so a mismatch here is
    /// a programming error, not a recoverable condition.
    pub(crate) fn import_state(&mut self, state: &Replacement) {
        assert_eq!(
            self.kind(),
            state.kind(),
            "cannot import a {} state into a {} policy",
            state.kind().name(),
            self.kind().name()
        );
        if let (Self::Ship { shct }, Self::Ship { shct: table }) = (&*self, state) {
            assert_eq!(shct.len(), table.len(), "SHCT size mismatch");
        }
        self.clone_from(state);
    }
}

fn shct_index(signature: u16) -> usize {
    signature as usize % SHCT_ENTRIES
}

/// Advances the LRU `clock` and returns the new stamp, renormalizing every
/// set's stamps first when the clock would pass `u32::MAX`.
#[inline]
fn next_stamp(clock: &mut u32, records: &mut [WayRecord], ways: usize) -> u32 {
    if *clock == u32::MAX {
        *clock = renormalize(records, ways);
    }
    *clock += 1;
    *clock
}

/// Rewrites each set's LRU stamps as the way's rank in that set's
/// `(stamp, way)` order and returns the clock to restart from (`ways`,
/// above every rank). LRU only ever compares stamps within a set, and ranks
/// keep that order — including the tie-break that puts the lowest way first
/// among equal stamps — so every later decision is unchanged.
#[cold]
#[inline(never)]
fn renormalize(records: &mut [WayRecord], ways: usize) -> u32 {
    let mut order = Vec::with_capacity(ways);
    for set in records.chunks_mut(ways) {
        order.clear();
        order.extend(0..ways);
        order.sort_unstable_by_key(|&w| (set[w].stamp, w));
        for (rank, &w) in order.iter().enumerate() {
            set[w].stamp = rank as u32;
        }
    }
    u32::try_from(ways).expect("associativity fits a u32 stamp")
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One policy over its own way records, driven the way the cache
    /// drives it.
    struct Harness {
        policy: Replacement,
        records: Vec<WayRecord>,
        ways: usize,
    }

    impl Harness {
        fn new(kind: ReplacementKind, sets: usize, ways: usize) -> Self {
            Self {
                policy: Replacement::new(kind),
                records: vec![Replacement::empty_record(); sets * ways],
                ways,
            }
        }

        fn on_hit(&mut self, set: usize, way: usize) {
            self.policy.on_hit(&mut self.records, self.ways, set * self.ways + way);
        }

        fn on_insert(&mut self, set: usize, way: usize, signature: u16) {
            let idx = set * self.ways + way;
            self.records[idx].signature = signature;
            self.records[idx].flags = 0;
            self.policy.on_insert(&mut self.records, self.ways, idx);
        }

        fn on_evict(&mut self, set: usize, way: usize, reused: bool) {
            let mut record = self.records[set * self.ways + way];
            record.flags = u8::from(reused) * WayRecord::REUSED;
            self.policy.on_evict(record);
        }

        fn victim(&mut self, set: usize) -> usize {
            let base = set * self.ways;
            self.policy.victim(&mut self.records[base..base + self.ways])
        }

        fn eviction_order(&self, set: usize) -> Vec<usize> {
            let base = set * self.ways;
            let mut order = Vec::new();
            self.policy.eviction_order(&self.records[base..base + self.ways], &mut order);
            order
        }

        /// The policy and its records, as a cache exports them.
        fn export_state(&self) -> (Replacement, Vec<WayRecord>) {
            (self.policy.clone(), self.records.clone())
        }

        fn import_state(&mut self, (policy, records): &(Replacement, Vec<WayRecord>)) {
            self.policy.import_state(policy);
            self.records.clone_from(records);
        }
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let mut p = Harness::new(ReplacementKind::Lru, 1, 4);
        for way in 0..4 {
            p.on_insert(0, way, 0);
        }
        p.on_hit(0, 0); // way 0 becomes MRU
        assert_eq!(p.victim(0), 1);
        assert_eq!(p.eviction_order(0), vec![1, 2, 3, 0]);
    }

    #[test]
    fn lru_eviction_order_is_lru_to_mru() {
        let mut p = Harness::new(ReplacementKind::Lru, 2, 4);
        for way in [2, 0, 3, 1] {
            p.on_insert(1, way, 0);
        }
        assert_eq!(p.eviction_order(1), vec![2, 0, 3, 1]);
        // A different set is unaffected.
        assert_eq!(p.eviction_order(0), vec![0, 1, 2, 3]);
    }

    #[test]
    fn srrip_hits_promote_and_misses_age() {
        let mut p = Harness::new(ReplacementKind::Srrip, 1, 4);
        for way in 0..4 {
            p.on_insert(0, way, 0);
        }
        p.on_hit(0, 2);
        // All ways were inserted at RRPV=2; way 2 is now 0. The victim search
        // ages everyone until some way reaches 3, so way 0 (first in way
        // order) is the victim, not way 2.
        let v = p.victim(0);
        assert_ne!(v, 2);
        let order = p.eviction_order(0);
        assert_eq!(*order.last().unwrap(), 2, "the hit way is the least evictable");
    }

    #[test]
    fn srrip_victim_prefers_rrpv_max() {
        let mut p = Harness::new(ReplacementKind::Srrip, 1, 4);
        p.on_insert(0, 0, 0);
        p.on_insert(0, 1, 0);
        // Ways 2 and 3 never inserted: their RRPV stays at the max.
        assert_eq!(p.victim(0), 2);
    }

    #[test]
    fn ship_learns_dead_signatures() {
        let mut p = Harness::new(ReplacementKind::Ship, 1, 4);
        let dead_sig = 42;
        // Train: insert and evict the signature without reuse until the
        // counter saturates at zero.
        for _ in 0..4 {
            p.on_insert(0, 0, dead_sig);
            p.on_evict(0, 0, false);
        }
        // The next insert with this signature should be predicted dead and
        // placed at RRPV_MAX (immediately evictable).
        p.on_insert(0, 1, dead_sig);
        p.on_insert(0, 2, 7); // live signature
        let order = p.eviction_order(0);
        assert_eq!(order[0], 0, "ways with RRPV_MAX lead the order");
        assert!(
            order.iter().position(|&w| w == 1).unwrap()
                < order.iter().position(|&w| w == 2).unwrap()
        );
    }

    #[test]
    fn ship_reused_signatures_are_kept_longer() {
        let mut p = Harness::new(ReplacementKind::Ship, 1, 2);
        let live = 9;
        p.on_insert(0, 0, live);
        p.on_hit(0, 0);
        p.on_evict(0, 0, true);
        p.on_insert(0, 0, live);
        p.on_insert(0, 1, 1234);
        // Both inserted at RRPV_INSERT; neither is at max, so victim search
        // ages them equally and picks way 0 by index — just check it is valid.
        let v = p.victim(0);
        assert!(v < 2);
    }

    /// SHiP trains on the way's fill signature: a hit strengthens it, and
    /// an eviction without reuse weakens it.
    #[test]
    fn ship_trains_on_the_fill_signature() {
        let mut p = Harness::new(ReplacementKind::Ship, 1, 2);
        p.on_insert(0, 0, 5);
        p.on_hit(0, 0);
        p.on_evict(0, 1, false); // way 1 holds the initial signature 0
        let (Replacement::Ship { shct }, records) = p.export_state() else {
            panic!("SHiP state expected");
        };
        assert_eq!((shct[5], shct[0]), (2, 0));
        assert_eq!(records.iter().map(|r| r.signature).collect::<Vec<_>>(), vec![5, 0]);
    }

    #[test]
    fn kind_builds_named_policies() {
        for (kind, name) in [
            (ReplacementKind::Lru, "LRU"),
            (ReplacementKind::Srrip, "SRRIP"),
            (ReplacementKind::Ship, "SHiP"),
        ] {
            assert_eq!(Replacement::new(kind).kind(), kind);
            assert_eq!(kind.name(), name);
        }
    }

    #[test]
    fn state_export_import_round_trips_every_policy() {
        for kind in [ReplacementKind::Lru, ReplacementKind::Srrip, ReplacementKind::Ship] {
            let mut trained = Harness::new(kind, 2, 4);
            for way in 0..4 {
                trained.on_insert(0, way, way as u16);
            }
            trained.on_hit(0, 2);
            trained.on_evict(0, 1, false);
            let state = trained.export_state();
            let mut fresh = Harness::new(kind, 2, 4);
            fresh.import_state(&state);
            assert_eq!(fresh.export_state(), state, "{}", kind.name());
            assert_eq!(
                trained.eviction_order(0),
                fresh.eviction_order(0),
                "{}: imported state must decide identically",
                kind.name()
            );
        }
    }

    #[test]
    #[should_panic(expected = "cannot import")]
    fn mismatched_state_variant_is_rejected() {
        let mut lru = Harness::new(ReplacementKind::Lru, 1, 4);
        let srrip = Harness::new(ReplacementKind::Srrip, 1, 4);
        lru.import_state(&srrip.export_state());
    }

    #[test]
    fn eviction_order_contains_every_way_exactly_once() {
        for kind in [ReplacementKind::Lru, ReplacementKind::Srrip, ReplacementKind::Ship] {
            let mut p = Harness::new(kind, 2, 8);
            for way in 0..8 {
                p.on_insert(1, way, way as u16);
            }
            p.on_hit(1, 3);
            let mut sorted = p.eviction_order(1);
            sorted.sort_unstable();
            assert_eq!(sorted, (0..8).collect::<Vec<_>>(), "{}", kind.name());
        }
    }
}

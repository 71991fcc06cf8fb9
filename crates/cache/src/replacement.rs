//! Cache replacement policies.
//!
//! Three policies from the paper's evaluation are provided: true LRU
//! (baseline, Table II), SRRIP and SHiP (Section VII-E / Figure 15). All of
//! them expose an *eviction order*, the ordering that BARD scans when
//! looking for a low-cost dirty line — LRU→MRU for LRU, and highest→lowest
//! RRPV for the RRIP-based policies.
//!
//! Per-set policy state is the replacement field of the cache's
//! [`SetWord`](crate::SetWord)s: the set's LRU order, or one 2-bit RRPV per
//! way. `Replacement` holds only what is per cache — SHiP's signature
//! history counter table and each way's fill signature — and acts on the
//! fields it is handed.

use bard_image::{each, ImageError, Io};

use crate::block::MAX_WAYS;

/// Which replacement policy to instantiate. The declaration order is the
/// policy's tag in snapshot images.
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

    /// True if `field` is a well-formed replacement field of a `ways`-way
    /// set (at most [`MAX_WAYS`]): under LRU, each way once in the low
    /// nibbles; under RRIP, an RRPV per way; zero above them.
    pub(crate) fn field_fits(self, field: u64, ways: usize) -> bool {
        match self {
            Self::Lru => {
                let seen =
                    (0..ways).fold(0u32, |seen, rank| seen | 1 << ((field >> (4 * rank)) & 0xf));
                seen == (1 << ways) - 1 && (ways == MAX_WAYS || field >> (4 * ways) == 0)
            }
            Self::Srrip | Self::Ship => field >> (2 * ways) == 0,
        }
    }
}

/// Maximum re-reference prediction value for a 2-bit RRPV.
const RRPV_MAX: u64 = 3;
/// RRPV assigned on insertion by SRRIP ("long" re-reference interval).
const RRPV_INSERT: u64 = 2;
/// The low bit of every 2-bit RRPV slot.
const RRPV_LOW: u64 = 0x5555_5555_5555_5555;
/// The low bit of every 4-bit LRU slot.
const NIBBLE_LOW: u64 = 0x1111_1111_1111_1111;
/// Number of entries in the SHiP signature history counter table.
const SHCT_ENTRIES: usize = 16 * 1024;
/// Saturating counter maximum for the SHCT.
const SHCT_MAX: u8 = 7;

/// A cache's replacement policy: the per-cache state of one
/// [`ReplacementKind`], driving decisions over the replacement fields of
/// the cache's set words.
///
/// The cache calls `on_hit` / `on_insert` / `on_evict` to keep the state up
/// to date and `victim` / `eviction_order` to make decisions. Ways holding
/// invalid lines are handled by the cache itself and never reach `victim`.
/// A cache's snapshot image carries the value as the cache holds it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Replacement {
    /// True LRU: each set's field lists its ways from least to most
    /// recently used. A hit or a fill moves the way to the MRU end.
    Lru,
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
        /// Fill signature per way, set-major like the tag array.
        signatures: Vec<u16>,
    },
}

impl Replacement {
    /// Fresh policy state for `kind` in a cache of `lines` ways in all.
    pub(crate) fn new(kind: ReplacementKind, lines: usize) -> Self {
        match kind {
            ReplacementKind::Lru => Self::Lru,
            ReplacementKind::Srrip => Self::Srrip,
            ReplacementKind::Ship => {
                Self::Ship { shct: vec![1; SHCT_ENTRIES], signatures: vec![0; lines] }
            }
        }
    }

    /// The replacement field every set of `ways` ways starts from: under
    /// LRU the ways in order (the lower way is the less recently used),
    /// under RRIP every way at the maximum RRPV.
    pub(crate) fn empty_field(&self, ways: usize) -> u64 {
        match self {
            Self::Lru => (0..ways as u64).fold(0, |field, w| field | w << (4 * w)),
            Self::Srrip | Self::Ship { .. } => (1 << (2 * ways)) - 1,
        }
    }

    /// The policy kind.
    #[must_use]
    pub fn kind(&self) -> ReplacementKind {
        match self {
            Self::Lru => ReplacementKind::Lru,
            Self::Srrip => ReplacementKind::Srrip,
            Self::Ship { .. } => ReplacementKind::Ship,
        }
    }

    /// Records a hit on `way` of a `ways`-way set whose field is `field`;
    /// `line` is the way's index in the whole cache (`set * ways + way`).
    pub(crate) fn on_hit(&mut self, field: &mut u64, ways: usize, way: usize, line: usize) {
        match self {
            Self::Lru => *field = lru_promote(*field, ways, way),
            Self::Srrip => set_rrpv(field, way, 0),
            Self::Ship { shct, signatures } => {
                set_rrpv(field, way, 0);
                let counter = &mut shct[shct_index(signatures[line])];
                *counter = (*counter + 1).min(SHCT_MAX);
            }
        }
    }

    /// Records a fill of `way` (cache index `line`) with `signature`.
    pub(crate) fn on_insert(
        &mut self,
        field: &mut u64,
        ways: usize,
        way: usize,
        line: usize,
        signature: u16,
    ) {
        match self {
            Self::Lru => *field = lru_promote(*field, ways, way),
            Self::Srrip => set_rrpv(field, way, RRPV_INSERT),
            Self::Ship { shct, signatures } => {
                signatures[line] = signature;
                let predicted_dead = shct[shct_index(signature)] == 0;
                set_rrpv(field, way, if predicted_dead { RRPV_MAX } else { RRPV_INSERT });
            }
        }
    }

    /// Records the eviction of the line at cache index `line` (SHiP
    /// training: a line evicted without reuse weakens its signature).
    pub(crate) fn on_evict(&mut self, line: usize, reused: bool) {
        if let Self::Ship { shct, signatures } = self {
            if !reused {
                let counter = &mut shct[shct_index(signatures[line])];
                *counter = counter.saturating_sub(1);
            }
        }
    }

    /// Chooses the victim of one full `ways`-way set: under LRU the lowest
    /// nibble; under RRIP the lowest way at `RRPV_MAX`, after aging the set
    /// (one added to every RRPV) until some way reaches it.
    pub(crate) fn victim(&self, field: &mut u64, ways: usize) -> usize {
        if let Self::Lru = self {
            return (*field & 0xf) as usize;
        }
        let low = RRPV_LOW & ((1 << (2 * ways)) - 1);
        loop {
            let at_max = *field & (*field >> 1) & low;
            if at_max != 0 {
                return (at_max.trailing_zeros() / 2) as usize;
            }
            *field += low;
        }
    }

    /// One set's ways, most-evictable first, as 4-bit way numbers from the
    /// lowest nibble up: LRU→MRU (the LRU field itself), or the ways at
    /// RRPV 3, then 2, 1 and 0. Ties go to the lower way.
    pub(crate) fn eviction_order(&self, field: u64, ways: usize) -> u64 {
        if let Self::Lru = self {
            return field;
        }
        let low = RRPV_LOW & ((1 << (2 * ways)) - 1);
        let (hi, lo) = ((field >> 1) & low, field & low);
        let (mut order, mut rank) = (0, 0);
        for mut at in [hi & lo, hi & !lo, lo & !hi, low & !(hi | lo)] {
            while at != 0 {
                order |= u64::from(at.trailing_zeros() / 2) << (4 * rank);
                rank += 1;
                at &= at - 1;
            }
        }
        order
    }

    /// Codes the policy as its cache's image holds it: its tag (0 = LRU,
    /// 1 = SRRIP, 2 = SHiP), which must be this policy's, then SHiP's
    /// counter table and one fill signature per way, which has no length of
    /// its own (the cache's tag array has it).
    pub(crate) fn image(&mut self, io: &mut impl Io) -> Result<(), ImageError> {
        let live = self.kind();
        let mut tag = live as u8;
        io.tag(&mut tag, 2, "replacement tag")?;
        if tag != live as u8 {
            let reason =
                format!("cannot import replacement tag {tag} into a {} cache", live.name());
            return Err(ImageError::Incompatible { reason });
        }
        if let Self::Ship { shct, signatures } = self {
            each(io, shct, "SHiP counters", Io::u8)?;
            for signature in signatures {
                io.u16(signature)?;
            }
        }
        Ok(())
    }
}

fn shct_index(signature: u16) -> usize {
    signature as usize % SHCT_ENTRIES
}

/// Sets `way`'s 2-bit RRPV in `field` to `rrpv`.
fn set_rrpv(field: &mut u64, way: usize, rrpv: u64) {
    *field = *field & !(3 << (2 * way)) | rrpv << (2 * way);
}

/// Moves `way` to the MRU end of a `ways`-way LRU field: the nibbles above
/// its rank shift down one place, and `way` takes nibble `ways - 1`.
fn lru_promote(field: u64, ways: usize, way: usize) -> u64 {
    // A nibble of `x` is zero where the field holds `way`. Of the nibbles
    // the zero test flags, the lowest is exact (a borrow only flags nibbles
    // above a zero one), and `way` sits below the unused zero nibbles.
    let x = field ^ (way as u64 * NIBBLE_LOW);
    let zero = x.wrapping_sub(NIBBLE_LOW) & !x & (NIBBLE_LOW << 3);
    let below = (1u64 << (zero.trailing_zeros() & !3)) - 1;
    field & below | (field >> 4) & !below | (way as u64) << (4 * (ways - 1))
}

#[cfg(test)]
mod tests {
    use super::*;
    use bard_image::{decode, encode};

    /// One policy over its own replacement fields (one per set), driven
    /// the way the cache drives it.
    struct Harness {
        policy: Replacement,
        fields: Vec<u64>,
        ways: usize,
    }

    impl Harness {
        fn new(kind: ReplacementKind, sets: usize, ways: usize) -> Self {
            let policy = Replacement::new(kind, sets * ways);
            Self { fields: vec![policy.empty_field(ways); sets], policy, ways }
        }

        fn on_hit(&mut self, set: usize, way: usize) {
            self.policy.on_hit(&mut self.fields[set], self.ways, way, set * self.ways + way);
        }

        fn on_insert(&mut self, set: usize, way: usize, signature: u16) {
            let line = set * self.ways + way;
            self.policy.on_insert(&mut self.fields[set], self.ways, way, line, signature);
        }

        fn on_evict(&mut self, set: usize, way: usize, reused: bool) {
            self.policy.on_evict(set * self.ways + way, reused);
        }

        fn victim(&mut self, set: usize) -> usize {
            self.policy.victim(&mut self.fields[set], self.ways)
        }

        fn eviction_order(&self, set: usize) -> Vec<usize> {
            let order = self.policy.eviction_order(self.fields[set], self.ways);
            (0..self.ways).map(|rank| ((order >> (4 * rank)) & 0xf) as usize).collect()
        }

        /// Codes the policy and its fields, as a cache's image holds them.
        fn image(&mut self, io: &mut impl Io) -> Result<(), ImageError> {
            self.policy.image(io)?;
            each(io, &mut self.fields, "sets", Io::u64)
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
        let Replacement::Ship { shct, signatures } = &p.policy else {
            panic!("SHiP state expected");
        };
        assert_eq!((shct[5], shct[0]), (2, 0));
        assert_eq!(signatures, &[5, 0]);
    }

    #[test]
    fn kind_builds_named_policies() {
        for (kind, name) in [
            (ReplacementKind::Lru, "LRU"),
            (ReplacementKind::Srrip, "SRRIP"),
            (ReplacementKind::Ship, "SHiP"),
        ] {
            assert_eq!(Replacement::new(kind, 4).kind(), kind);
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
            let state = encode(|io| trained.image(io));
            let mut fresh = Harness::new(kind, 2, 4);
            decode(&state, |io| fresh.image(io)).expect("a policy's own image decodes");
            assert_eq!(encode(|io| fresh.image(io)), state, "{}", kind.name());
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
        let state = encode(|io| Harness::new(ReplacementKind::Srrip, 1, 4).image(io));
        decode(&state, |io| lru.image(io)).unwrap();
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

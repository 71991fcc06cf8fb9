//! Cache set and line metadata.

use bard_image::{ImageError, Io};

use crate::cache::TAG_INVALID;
use crate::replacement::ReplacementKind;

/// Most ways a set may have: a [`SetWord`] holds one mask bit per way, and
/// the LRU order one nibble per way.
pub const MAX_WAYS: usize = 16;

/// Per-set state of a [`SetAssocCache`](crate::SetAssocCache) besides its
/// tags: the replacement field and four per-way masks, 16 bytes per set, so
/// a hit, a fill or a victim choice reads one word instead of the set's
/// ways. Bit `w` of a mask is way `w`.
///
/// Eviction clears only the way's tag and mask bits; its place in the
/// replacement field (LRU rank or RRPV) and its SHiP signature keep their
/// last values.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SetWord {
    /// The replacement field. Under LRU, the ways from least to most
    /// recently used, 4 bits each: the lowest nibble is the LRU way, nibble
    /// `ways - 1` the MRU way, and the nibbles above are zero. Under SRRIP
    /// and SHiP, way `w`'s 2-bit RRPV at bits `2w..2w + 2`, and zero above.
    pub repl: u64,
    /// Ways holding a line (exactly the ways whose tag is valid).
    pub valid: u16,
    /// Valid ways written since they were filled.
    pub dirty: u16,
    /// Valid ways brought in by a prefetch and not yet demanded.
    pub prefetched: u16,
    /// Valid ways hit at least once while resident (SHiP training input).
    pub reused: u16,
}

const _: () = assert!(std::mem::size_of::<SetWord>() == 16);

impl SetWord {
    /// Checks that this word can be the state of a set whose tags are
    /// `tags` (one per way) under `kind`: no mask bit at or above
    /// `tags.len()`, a well-formed replacement field, a valid mask that is
    /// the set of valid tags, and flags on valid ways only. Snapshot decoding
    /// calls it on every set of an image.
    ///
    /// # Errors
    ///
    /// Returns what is wrong with the word.
    pub fn check(&self, kind: ReplacementKind, tags: &[u64]) -> Result<(), String> {
        let ways = tags.len();
        if !(1..=MAX_WAYS).contains(&ways) {
            return Err(format!("{ways} ways per set is outside 1..={MAX_WAYS}"));
        }
        let flags = self.dirty | self.prefetched | self.reused;
        let tagged = (0..ways).filter(|&w| tags[w] != TAG_INVALID).fold(0, |m, w| m | 1 << w);
        if (self.valid | flags) & !way_mask(ways) != 0 {
            Err(format!("set-word mask bits at or above way {ways}"))
        } else if !kind.field_fits(self.repl, ways) {
            Err(format!("malformed {} field {:#x} for {ways} ways", kind.name(), self.repl))
        } else if self.valid != tagged {
            Err(format!("set-word valid mask {:#06x} disagrees with the tags", self.valid))
        } else if flags & !self.valid != 0 {
            Err(format!("set word flags an invalid way (valid mask {:#06x})", self.valid))
        } else {
            Ok(())
        }
    }

    /// Codes the word (snapshot images).
    pub(crate) fn image(&mut self, io: &mut impl Io) -> Result<(), ImageError> {
        io.u64(&mut self.repl)?;
        io.u16(&mut self.valid)?;
        io.u16(&mut self.dirty)?;
        io.u16(&mut self.prefetched)?;
        io.u16(&mut self.reused)
    }
}

/// The mask with one bit per way of a `ways`-way set.
pub(crate) fn way_mask(ways: usize) -> u16 {
    u16::MAX >> (MAX_WAYS - ways)
}

/// A line removed from the cache by an eviction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EvictedLine {
    /// Line-aligned physical address of the victim.
    pub addr: u64,
    /// True if the victim was dirty and needs a write-back.
    pub dirty: bool,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CacheConfig, Replacement, SetAssocCache};

    fn cache(kind: ReplacementKind) -> SetAssocCache {
        SetAssocCache::new(CacheConfig::new(1024, 4, 64), kind)
    }

    #[test]
    fn empty_line_is_invalid() {
        let c = cache(ReplacementKind::Lru);
        assert!(c.tags.iter().all(|&t| t == TAG_INVALID));
        assert!(c.words.iter().all(|w| w.valid == 0 && w.dirty == 0));
    }

    #[test]
    fn filled_line_carries_state() {
        let mut c = cache(ReplacementKind::Ship);
        c.fill(0x40, true, 7);
        let (set, way) = (c.set_of(0x40), c.probe(0x40).unwrap());
        assert_eq!(c.tags[set * c.ways() + way], 0x40);
        let word = c.words[set];
        assert_eq!(
            (word.valid, word.dirty, word.prefetched, word.reused),
            (1 << way, 1 << way, 0, 0)
        );
        let Replacement::Ship { signatures, .. } = &c.replacement else {
            panic!("SHiP state expected");
        };
        assert_eq!(signatures[set * c.ways() + way], 7);
    }
}

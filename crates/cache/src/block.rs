//! Cache line metadata.

/// Per-way state of a [`SetAssocCache`](crate::SetAssocCache) besides its
/// tag: everything the cache and its replacement policy track about one way,
/// packed into 8 bytes so a 16-way set's records span two host cache lines.
///
/// Eviction clears only the tag and [`flags`](Self::flags); the LRU stamp,
/// RRIP byte and fill signature keep their last values.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WayRecord {
    /// LRU last-use stamp (per-cache touch counter; see
    /// [`Replacement`](crate::Replacement)).
    pub stamp: u32,
    /// Fill signature: the line's signature and SHiP's training key.
    pub signature: u16,
    /// RRIP re-reference prediction value (SRRIP/SHiP).
    pub rrpv: u8,
    /// [`WayRecord::DIRTY`] | [`WayRecord::PREFETCHED`] | [`WayRecord::REUSED`].
    pub flags: u8,
}

const _: () = assert!(std::mem::size_of::<WayRecord>() == 8);

impl WayRecord {
    /// Written since it was filled.
    pub const DIRTY: u8 = 1;
    /// Brought in by a prefetch and not yet demanded.
    pub const PREFETCHED: u8 = 2;
    /// Hit at least once while resident (SHiP training input).
    pub const REUSED: u8 = 4;
    /// Every flag bit a record may hold.
    pub const FLAGS: u8 = Self::DIRTY | Self::PREFETCHED | Self::REUSED;

    /// True if every bit of `flag` is set.
    #[must_use]
    pub fn has(self, flag: u8) -> bool {
        self.flags & flag == flag
    }
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
    use crate::cache::TAG_INVALID;
    use crate::{CacheConfig, ReplacementKind, SetAssocCache};

    fn cache() -> SetAssocCache {
        SetAssocCache::new(CacheConfig::new(1024, 4, 64), ReplacementKind::Lru)
    }

    #[test]
    fn empty_line_is_invalid() {
        let state = cache().export_state();
        assert!(state.tags.iter().all(|&t| t == TAG_INVALID));
        assert!(state.records.iter().all(|r| !r.has(WayRecord::DIRTY)));
    }

    #[test]
    fn filled_line_carries_state() {
        let mut c = cache();
        c.fill(0x40, true, 7);
        let idx = c.set_of(0x40) * c.ways() + c.probe(0x40).unwrap();
        let state = c.export_state();
        assert_eq!(state.tags[idx], 0x40);
        assert!(state.records[idx].has(WayRecord::DIRTY));
        assert_eq!(state.records[idx].signature, 7);
    }
}

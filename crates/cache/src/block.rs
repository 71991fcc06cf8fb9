//! Cache line metadata.

/// Metadata for one cache line (the data payload is not modelled).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheLine {
    /// Line-aligned physical address.
    pub addr: u64,
    /// Whether the line holds valid data.
    pub valid: bool,
    /// Whether the line has been written since it was filled (must be written
    /// back to the next level on eviction).
    pub dirty: bool,
    /// Whether the line was brought in by a prefetch and not yet demanded.
    pub prefetched: bool,
    /// Truncated signature of the instruction that caused the fill (used by
    /// SHiP-style replacement).
    pub signature: u16,
}

impl CacheLine {
    /// An invalid line.
    #[must_use]
    pub fn empty() -> Self {
        Self::default()
    }

    /// A valid line for `addr`.
    #[must_use]
    pub fn filled(addr: u64, dirty: bool, signature: u16) -> Self {
        Self { addr, valid: true, dirty, prefetched: false, signature }
    }
}

/// Per-way state of a [`SetAssocCache`](crate::SetAssocCache) besides its
/// tag: everything the cache and its replacement policy track about one way,
/// packed into 8 bytes so a 16-way set's records span two host cache lines.
///
/// Eviction clears only the tag and [`flags`](Self::flags); the LRU stamp,
/// RRIP byte and fill signature keep their last values, exactly as the
/// exported replacement state always has.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct WayRecord {
    /// LRU last-use stamp (per-cache touch counter; see `Replacement`).
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

    /// True if every bit of `flag` is set.
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

    #[test]
    fn empty_line_is_invalid() {
        let l = CacheLine::empty();
        assert!(!l.valid);
        assert!(!l.dirty);
    }

    #[test]
    fn filled_line_carries_state() {
        let l = CacheLine::filled(0x40, true, 7);
        assert!(l.valid);
        assert!(l.dirty);
        assert_eq!(l.addr, 0x40);
        assert_eq!(l.signature, 7);
    }
}

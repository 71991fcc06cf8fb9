//! Miss-status holding registers (MSHRs) with request merging.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

use bard_image::{seq, ImageError, Io};

/// Multiply-xor hasher for the line-address keys (Fx/wyhash-style). The MSHR
/// map sits on the simulator's hottest path — every demand miss, coalesce,
/// back-pressure re-check and completion hashes a line address — and the
/// standard SipHash costs several times the surrounding work. Line addresses
/// are already well-distributed in their middle bits; one multiply by a
/// random-odd constant and a high-bit fold is plenty. Determinism is
/// unconditional (no per-process seed), and no simulator code depends on map
/// iteration order (results are byte-identical across processes even under
/// `RandomState`, which randomizes per instance).
#[derive(Debug, Clone, Copy, Default)]
pub struct LineHasher(u64);

impl Hasher for LineHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        }
    }

    fn write_u64(&mut self, v: u64) {
        self.0 = (self.0 ^ v).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }

    fn finish(&self) -> u64 {
        // Fold the high bits down: the multiply concentrates entropy there,
        // and HashMap consumes the low bits.
        self.0 ^ (self.0 >> 32)
    }
}

/// The map type keyed by line address.
type LineMap<V> = HashMap<u64, V, BuildHasherDefault<LineHasher>>;

/// Error returned when an MSHR cannot be allocated.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MshrError {
    /// All MSHR entries are in use; the requester must stall.
    Full,
}

impl std::fmt::Display for MshrError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Full => write!(f, "all MSHR entries are in use"),
        }
    }
}

impl std::error::Error for MshrError {}

/// One outstanding miss.
#[derive(Debug, Clone, Default)]
struct MshrEntry {
    /// Opaque waiter tokens (for example ROB indices) merged onto this miss.
    waiters: Vec<u64>,
    /// Whether any of the merged requests is a demand write (the fill must be
    /// installed dirty).
    write_requested: bool,
    /// Whether the entry was created by a prefetch and no demand has merged
    /// into it yet.
    prefetch_only: bool,
}

impl MshrEntry {
    /// Codes the entry (snapshot images).
    fn image(&mut self, io: &mut impl Io) -> Result<(), ImageError> {
        seq(io, &mut self.waiters, Io::u64)?;
        io.bool(&mut self.write_requested)?;
        io.bool(&mut self.prefetch_only)
    }
}

/// A file of MSHRs keyed by line address.
#[derive(Debug, Clone)]
pub struct MshrFile {
    capacity: usize,
    entries: LineMap<MshrEntry>,
    peak_occupancy: usize,
    merges: u64,
}

impl MshrFile {
    /// Creates a file with `capacity` entries.
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        Self {
            capacity,
            entries: LineMap::with_capacity_and_hasher(capacity, BuildHasherDefault::default()),
            peak_occupancy: 0,
            merges: 0,
        }
    }

    /// Capacity of the file.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Outstanding misses.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when no miss is outstanding.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// True when no more misses can be tracked.
    #[must_use]
    pub fn is_full(&self) -> bool {
        self.entries.len() >= self.capacity
    }

    /// Highest simultaneous occupancy observed.
    #[must_use]
    pub fn peak_occupancy(&self) -> usize {
        self.peak_occupancy
    }

    /// Number of requests merged into already-outstanding misses.
    #[must_use]
    pub fn merges(&self) -> u64 {
        self.merges
    }

    /// True if a miss to `line_addr` is already outstanding.
    #[must_use]
    pub fn contains(&self, line_addr: u64) -> bool {
        self.entries.contains_key(&line_addr)
    }

    /// Registers a miss to `line_addr`.
    ///
    /// Returns `Ok(true)` if a new entry was allocated (the caller must send
    /// the request down the hierarchy) and `Ok(false)` if the request was
    /// merged into an existing entry.
    ///
    /// # Errors
    ///
    /// Returns [`MshrError::Full`] if a new entry is needed but the file is
    /// full.
    pub fn allocate(
        &mut self,
        line_addr: u64,
        waiter: u64,
        is_write: bool,
        is_prefetch: bool,
    ) -> Result<bool, MshrError> {
        if let Some(entry) = self.entries.get_mut(&line_addr) {
            entry.waiters.push(waiter);
            entry.write_requested |= is_write;
            if !is_prefetch {
                entry.prefetch_only = false;
            }
            self.merges += 1;
            return Ok(false);
        }
        if self.is_full() {
            return Err(MshrError::Full);
        }
        self.entries.insert(
            line_addr,
            MshrEntry {
                waiters: vec![waiter],
                write_requested: is_write,
                prefetch_only: is_prefetch,
            },
        );
        self.peak_occupancy = self.peak_occupancy.max(self.entries.len());
        Ok(true)
    }

    /// Codes the file (snapshot images): its outstanding misses sorted by
    /// line address, so the image does not depend on the map's iteration
    /// order (no simulator code does; see [`LineHasher`]), then the peak
    /// occupancy and the merge count.
    ///
    /// # Errors
    ///
    /// Decoding: more misses than this file's capacity, or a malformed
    /// image.
    pub fn image(&mut self, io: &mut impl Io) -> Result<(), ImageError> {
        let mut entries: Vec<(u64, MshrEntry)> =
            self.entries.iter().map(|(&line, e)| (line, e.clone())).collect();
        entries.sort_unstable_by_key(|&(line, _)| line);
        seq(io, &mut entries, |io, (line, e)| {
            io.u64(line)?;
            e.image(io)
        })?;
        if io.decoding() {
            if entries.len() > self.capacity {
                let (n, capacity) = (entries.len(), self.capacity);
                return Err(io.fail(format!("{n} MSHR entries exceed the capacity {capacity}")));
            }
            self.entries.clear();
            self.entries.extend(entries);
        }
        io.usize(&mut self.peak_occupancy)?;
        io.u64(&mut self.merges)
    }

    /// Completes the miss for `line_addr`, returning the waiters, whether the
    /// fill should be installed dirty, and whether the entry stayed
    /// prefetch-only. Returns `None` if no such miss is outstanding.
    pub fn complete(&mut self, line_addr: u64) -> Option<(Vec<u64>, bool, bool)> {
        self.entries.remove(&line_addr).map(|e| (e.waiters, e.write_requested, e.prefetch_only))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bard_image::{decode, encode};

    #[test]
    fn allocate_and_complete_round_trip() {
        let mut m = MshrFile::new(4);
        assert!(m.allocate(0x100, 1, false, false).unwrap());
        assert!(m.contains(0x100));
        let (waiters, dirty, prefetch_only) = m.complete(0x100).unwrap();
        assert_eq!(waiters, vec![1]);
        assert!(!dirty);
        assert!(!prefetch_only);
        assert!(m.is_empty());
    }

    #[test]
    fn secondary_misses_merge() {
        let mut m = MshrFile::new(2);
        assert!(m.allocate(0x100, 1, false, false).unwrap());
        assert!(!m.allocate(0x100, 2, true, false).unwrap());
        assert_eq!(m.len(), 1);
        assert_eq!(m.merges(), 1);
        let (waiters, dirty, _) = m.complete(0x100).unwrap();
        assert_eq!(waiters, vec![1, 2]);
        assert!(dirty, "a merged write should make the fill dirty");
    }

    #[test]
    fn full_file_rejects_new_misses_but_accepts_merges() {
        let mut m = MshrFile::new(1);
        m.allocate(0x100, 1, false, false).unwrap();
        assert_eq!(m.allocate(0x200, 2, false, false), Err(MshrError::Full));
        assert!(!m.allocate(0x100, 3, false, false).unwrap());
    }

    #[test]
    fn prefetch_only_flag_clears_on_demand_merge() {
        let mut m = MshrFile::new(2);
        m.allocate(0x300, 1, false, true).unwrap();
        m.allocate(0x300, 2, false, false).unwrap();
        let (_, _, prefetch_only) = m.complete(0x300).unwrap();
        assert!(!prefetch_only);
    }

    #[test]
    fn complete_unknown_address_is_none() {
        let mut m = MshrFile::new(2);
        assert!(m.complete(0xdead).is_none());
    }

    #[test]
    fn state_export_import_round_trips() {
        let mut m = MshrFile::new(8);
        m.allocate(0x300, 7, false, true).unwrap();
        m.allocate(0x100, 1, false, false).unwrap();
        m.allocate(0x100, 2, true, false).unwrap();
        m.allocate(0x200, 3, false, false).unwrap();
        m.complete(0x200).unwrap();

        let state = encode(|io| m.image(io));
        // Canonical ordering: sorted by line address.
        let (mut coded, mut peak, mut merges) = (Vec::new(), 0, 0);
        decode(&state, |io| {
            seq(io, &mut coded, |io, (line, e): &mut (u64, MshrEntry)| {
                io.u64(line)?;
                e.image(io)
            })?;
            io.usize(&mut peak)?;
            io.u64(&mut merges)
        })
        .expect("a file's own image decodes");
        assert_eq!(coded.iter().map(|&(line, _)| line).collect::<Vec<_>>(), vec![0x100, 0x300]);
        assert_eq!((peak, merges), (3, 1));
        // The same bytes whatever the map's insertion order.
        let mut reordered = MshrFile::new(8);
        reordered.allocate(0x100, 1, false, false).unwrap();
        reordered.allocate(0x300, 7, false, true).unwrap();
        reordered.allocate(0x100, 2, true, false).unwrap();
        reordered.allocate(0x200, 3, false, false).unwrap();
        reordered.complete(0x200).unwrap();
        assert_eq!(encode(|io| reordered.image(io)), state);

        let mut fresh = MshrFile::new(8);
        decode(&state, |io| fresh.image(io)).expect("a file's own image decodes");
        assert_eq!(encode(|io| fresh.image(io)), state);
        assert_eq!((fresh.peak_occupancy(), fresh.merges()), (3, 1));
        let (waiters, dirty, _) = fresh.complete(0x100).unwrap();
        assert_eq!(waiters, vec![1, 2]);
        assert!(dirty);
        let (_, _, prefetch_only) = fresh.complete(0x300).unwrap();
        assert!(prefetch_only);
    }

    #[test]
    #[should_panic(expected = "capacity")]
    fn state_import_rejects_overfull_image() {
        let mut big = MshrFile::new(4);
        for i in 0..3u64 {
            big.allocate(i * 64, i, false, false).unwrap();
        }
        let state = encode(|io| big.image(io));
        let mut small = MshrFile::new(2);
        decode(&state, |io| small.image(io)).unwrap();
    }

    #[test]
    fn peak_occupancy_tracks_maximum() {
        let mut m = MshrFile::new(8);
        for i in 0..5u64 {
            m.allocate(i * 64, i, false, false).unwrap();
        }
        for i in 0..5u64 {
            m.complete(i * 64).unwrap();
        }
        assert_eq!(m.peak_occupancy(), 5);
        assert!(m.is_empty());
    }
}

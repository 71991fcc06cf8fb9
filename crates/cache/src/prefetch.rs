//! Hardware prefetchers.
//!
//! The paper's baseline uses Berti at L1D and SPP at L2. Those designs are
//! substituted here by an IP-stride prefetcher (L1D) and a streaming
//! next-line prefetcher (L2), and every preset leaves the L2 one off. The
//! substitution, which presets enable what, and the fidelity gap it leaves
//! are recorded under "Modeling substitutions" in `docs/ARCHITECTURE.md`.

use bard_image::{each, ImageError, Io};

/// A hardware prefetcher observing demand accesses and proposing prefetch
/// addresses.
pub trait Prefetcher: std::fmt::Debug + Send {
    /// Called on every demand access. `addr` is the byte address, `ip` the
    /// instruction pointer, `hit` whether the access hit this cache level.
    /// Returns line-aligned addresses to prefetch.
    fn on_access(&mut self, addr: u64, ip: u64, hit: bool, out: &mut Vec<u64>);

    /// Prefetcher name for reports.
    fn name(&self) -> &'static str;
}

/// Per-IP stride prefetcher: learns the stride between successive accesses of
/// the same instruction and prefetches `degree` lines ahead once confident.
#[derive(Debug, Clone)]
pub struct IpStridePrefetcher {
    table_entries: usize, // bard-lint: allow(S1) -- config parameter fixed at construction
    line_bytes: u64,      // bard-lint: allow(S1) -- config parameter fixed at construction
    degree: usize,        // bard-lint: allow(S1) -- config parameter fixed at construction
    entries: Vec<StrideEntry>,
}

#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct StrideEntry {
    ip_tag: u64,
    last_addr: u64,
    stride: i64,
    confidence: u8,
}

impl StrideEntry {
    /// Codes the entry (snapshot images).
    fn image(&mut self, io: &mut impl Io) -> Result<(), ImageError> {
        io.u64(&mut self.ip_tag)?;
        io.u64(&mut self.last_addr)?;
        io.i64(&mut self.stride)?;
        io.u8(&mut self.confidence)
    }
}

impl IpStridePrefetcher {
    /// Creates a prefetcher with a direct-mapped table of `table_entries`
    /// (power of two), prefetching `degree` strides ahead.
    ///
    /// # Panics
    ///
    /// Panics if `table_entries` is not a power of two or `degree` is zero.
    #[must_use]
    pub fn new(table_entries: usize, line_bytes: u64, degree: usize) -> Self {
        assert!(table_entries.is_power_of_two());
        assert!(degree > 0);
        Self {
            table_entries,
            line_bytes,
            degree,
            entries: vec![StrideEntry::default(); table_entries],
        }
    }

    fn index(&self, ip: u64) -> usize {
        (ip as usize ^ (ip >> 12) as usize) & (self.table_entries - 1)
    }

    /// Codes the stride table, slot by slot (snapshot images).
    ///
    /// # Errors
    ///
    /// Decoding: an image of a table of another size, or a malformed one.
    pub fn image(&mut self, io: &mut impl Io) -> Result<(), ImageError> {
        each(io, &mut self.entries, "stride-table entries", |io, e| e.image(io))
    }
}

impl Prefetcher for IpStridePrefetcher {
    fn on_access(&mut self, addr: u64, ip: u64, _hit: bool, out: &mut Vec<u64>) {
        let idx = self.index(ip);
        let line_bytes = self.line_bytes;
        let degree = self.degree;
        let entry = &mut self.entries[idx];
        if entry.ip_tag != ip {
            *entry = StrideEntry { ip_tag: ip, last_addr: addr, stride: 0, confidence: 0 };
            return;
        }
        let stride = addr as i64 - entry.last_addr as i64;
        entry.last_addr = addr;
        if stride == 0 {
            return;
        }
        if stride == entry.stride {
            entry.confidence = (entry.confidence + 1).min(3);
        } else {
            entry.stride = stride;
            entry.confidence = 0;
        }
        if entry.confidence >= 2 {
            for d in 1..=degree {
                let target = addr as i64 + stride * d as i64;
                if target > 0 {
                    out.push(target as u64 & !(line_bytes - 1));
                }
            }
        }
    }

    fn name(&self) -> &'static str {
        "ip-stride"
    }
}

/// Streaming next-line prefetcher: on a miss, prefetches the next `degree`
/// sequential lines.
#[derive(Debug, Clone)]
pub struct NextLinePrefetcher {
    line_bytes: u64,
    degree: usize,
}

impl NextLinePrefetcher {
    /// Creates a next-line prefetcher of the given degree.
    ///
    /// # Panics
    ///
    /// Panics if `degree` is zero.
    #[must_use]
    pub fn new(line_bytes: u64, degree: usize) -> Self {
        assert!(degree > 0);
        Self { line_bytes, degree }
    }
}

impl Prefetcher for NextLinePrefetcher {
    fn on_access(&mut self, addr: u64, _ip: u64, hit: bool, out: &mut Vec<u64>) {
        if hit {
            return;
        }
        let line = addr & !(self.line_bytes - 1);
        for d in 1..=self.degree {
            out.push(line + self.line_bytes * d as u64);
        }
    }

    fn name(&self) -> &'static str {
        "next-line"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bard_image::{decode, encode};

    #[test]
    fn ip_stride_learns_a_constant_stride() {
        let mut p = IpStridePrefetcher::new(256, 64, 2);
        let ip = 0x4008;
        let mut out = Vec::new();
        for i in 0..8u64 {
            out.clear();
            p.on_access(0x1_0000 + i * 256, ip, false, &mut out);
        }
        assert_eq!(out.len(), 2);
        // Last access was at 0x1_0000 + 7*256; prefetches are +256 and +512.
        assert_eq!(out[0], 0x1_0000 + 8 * 256);
        assert_eq!(out[1], 0x1_0000 + 9 * 256);
    }

    #[test]
    fn ip_stride_does_not_prefetch_random_patterns() {
        let mut p = IpStridePrefetcher::new(256, 64, 2);
        let ip = 0x4008;
        let mut out = Vec::new();
        let addrs = [0x1000u64, 0x9340, 0x2280, 0x77c0, 0x1140];
        for a in addrs {
            p.on_access(a, ip, false, &mut out);
        }
        assert!(out.is_empty());
    }

    #[test]
    fn ip_stride_separates_different_ips() {
        let mut p = IpStridePrefetcher::new(256, 64, 1);
        let mut out = Vec::new();
        // Interleave two IPs with different strides; both should train.
        for i in 0..8u64 {
            p.on_access(0x10_000 + i * 64, 0x104, false, &mut out);
            p.on_access(0x80_000 + i * 4096, 0x208, false, &mut out);
        }
        assert!(out.iter().any(|&a| a > 0x80_000), "second stream should prefetch");
        assert!(out.iter().any(|&a| a < 0x80_000), "first stream should prefetch");
    }

    #[test]
    fn stride_state_round_trips_and_preserves_training() {
        let mut p = IpStridePrefetcher::new(64, 64, 2);
        let ip = 0x4008;
        let mut out = Vec::new();
        for i in 0..6u64 {
            p.on_access(0x1_0000 + i * 256, ip, false, &mut out);
        }
        let state = encode(|io| p.image(io));

        let mut fresh = IpStridePrefetcher::new(64, 64, 2);
        decode(&state, |io| fresh.image(io)).expect("a table's own image decodes");
        assert_eq!(encode(|io| fresh.image(io)), state);

        // The restored table must prefetch exactly like the trained one.
        let mut a = Vec::new();
        let mut b = Vec::new();
        p.on_access(0x1_0000 + 6 * 256, ip, false, &mut a);
        fresh.on_access(0x1_0000 + 6 * 256, ip, false, &mut b);
        assert_eq!(a, b);
        assert!(!a.is_empty());
    }

    #[test]
    #[should_panic(expected = "image has 64 stride-table entries, this system has 128")]
    fn stride_state_rejects_wrong_table_size() {
        let state = encode(|io| IpStridePrefetcher::new(64, 64, 2).image(io));
        let mut other = IpStridePrefetcher::new(128, 64, 2);
        decode(&state, |io| other.image(io)).unwrap();
    }

    #[test]
    fn next_line_prefetches_on_miss_only() {
        let mut p = NextLinePrefetcher::new(64, 2);
        let mut out = Vec::new();
        p.on_access(0x1004, 0, true, &mut out);
        assert!(out.is_empty());
        p.on_access(0x1004, 0, false, &mut out);
        assert_eq!(out, vec![0x1040, 0x1080]);
    }
}

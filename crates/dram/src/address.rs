//! Physical-address-to-DRAM-location mapping.
//!
//! The baseline system uses the AMD Zen mapping (Figure 6 of the paper):
//! starting above the 64 B line offset, the sub-channel bit, one column bit,
//! three bank-group bits, two bank bits, the channel bits, the remaining
//! column bits, and finally the row bits. On top of that, permutation-based
//! page interleaving (PBPL) XORs the bank-address bits with the low row bits
//! so that lines in the same LLC set spread across banks.

use crate::config::DramConfig;

/// Which address-mapping function to use.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum MappingScheme {
    /// AMD Zen mapping with permutation-based page interleaving (baseline).
    #[default]
    ZenPbpl,
    /// AMD Zen mapping without PBPL.
    Zen,
    /// Simple row : bank : column interleaving (row bits high, bank bits in
    /// the middle, column bits low). Used for ablations.
    RowBankColumn,
}

/// A physical address decoded into its DRAM coordinates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct DecodedAddr {
    /// Channel index.
    pub channel: usize,
    /// Sub-channel index within the channel.
    pub subchannel: usize,
    /// Bank group within the sub-channel.
    pub bankgroup: usize,
    /// Bank within the bank group.
    pub bank: usize,
    /// Row within the bank.
    pub row: u64,
    /// Column (cache-line granularity) within the row.
    pub column: u64,
}

impl DecodedAddr {
    /// Bank index within the sub-channel: `bankgroup * banks_per_group + bank`.
    #[must_use]
    pub fn bank_in_subchannel(&self, banks_per_group: usize) -> usize {
        self.bankgroup * banks_per_group + self.bank
    }

    /// Bank index within the channel (0..64 for DDR5); this is the index the
    /// BLP-Tracker uses (one bit per bank per channel).
    #[must_use]
    pub fn bank_in_channel(&self, banks_per_group: usize, banks_per_subchannel: usize) -> usize {
        self.subchannel * banks_per_subchannel + self.bank_in_subchannel(banks_per_group)
    }
}

/// An address-mapping function bound to a DRAM geometry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AddressMapping {
    scheme: MappingScheme,
    line_shift: u32,
    sc_bits: u32,
    bg_bits: u32,
    ba_bits: u32,
    ch_bits: u32,
    col_bits: u32,
    banks_per_group: usize,
    banks_per_subchannel: usize,
}

impl AddressMapping {
    /// Builds a mapping from a [`DramConfig`].
    ///
    /// # Panics
    ///
    /// Panics if the configuration fails [`DramConfig::validate`].
    #[must_use]
    pub fn new(config: &DramConfig) -> Self {
        config.validate().expect("DramConfig must be valid to build an AddressMapping");
        Self {
            scheme: config.mapping,
            line_shift: config.line_bytes.trailing_zeros(),
            sc_bits: log2(config.subchannels_per_channel),
            bg_bits: log2(config.bankgroups),
            ba_bits: log2(config.banks_per_group),
            ch_bits: log2(config.channels),
            col_bits: log2(config.lines_per_row()),
            banks_per_group: config.banks_per_group,
            banks_per_subchannel: config.bankgroups * config.banks_per_group,
        }
    }

    /// Number of banks per sub-channel for this geometry.
    #[must_use]
    pub fn banks_per_subchannel(&self) -> usize {
        self.banks_per_subchannel
    }

    /// Number of banks per channel for this geometry.
    #[must_use]
    pub fn banks_per_channel(&self) -> usize {
        self.banks_per_subchannel << self.sc_bits
    }

    /// Decodes a physical address into DRAM coordinates.
    #[must_use]
    pub fn decode(&self, addr: u64) -> DecodedAddr {
        let mut a = addr >> self.line_shift;
        match self.scheme {
            MappingScheme::ZenPbpl | MappingScheme::Zen => {
                let sc = take(&mut a, self.sc_bits);
                let col_low = take(&mut a, 1.min(self.col_bits));
                let bg = take(&mut a, self.bg_bits);
                let ba = take(&mut a, self.ba_bits);
                let ch = take(&mut a, self.ch_bits);
                let col_high = take(&mut a, self.col_bits.saturating_sub(1));
                let row = a;
                let column = (col_high << 1.min(self.col_bits)) | col_low;
                let (bg, ba) = if self.scheme == MappingScheme::ZenPbpl {
                    self.permute(bg, ba, row)
                } else {
                    (bg, ba)
                };
                DecodedAddr {
                    channel: ch as usize,
                    subchannel: sc as usize,
                    bankgroup: bg as usize,
                    bank: ba as usize,
                    row,
                    column,
                }
            }
            MappingScheme::RowBankColumn => {
                let col = take(&mut a, self.col_bits);
                let ch = take(&mut a, self.ch_bits);
                let sc = take(&mut a, self.sc_bits);
                let ba = take(&mut a, self.ba_bits);
                let bg = take(&mut a, self.bg_bits);
                let row = a;
                DecodedAddr {
                    channel: ch as usize,
                    subchannel: sc as usize,
                    bankgroup: bg as usize,
                    bank: ba as usize,
                    row,
                    column: col,
                }
            }
        }
    }

    /// Decodes only the channel index (cheaper than a full [`decode`]).
    ///
    /// [`decode`]: Self::decode
    #[must_use]
    pub fn channel_of(&self, addr: u64) -> usize {
        self.decode(addr).channel
    }

    /// Decodes the channel and the channel-local bank index
    /// (0..`banks_per_channel`) in one pass. The bank index is the one
    /// broadcast to the BLP-Trackers after an LLC writeback.
    #[must_use]
    pub fn channel_and_bank(&self, addr: u64) -> (usize, usize) {
        let d = self.decode(addr);
        (d.channel, d.bank_in_channel(self.banks_per_group, self.banks_per_subchannel))
    }

    /// Applies permutation-based page interleaving: XOR the bank-address bits
    /// with the low row bits.
    fn permute(&self, bg: u64, ba: u64, row: u64) -> (u64, u64) {
        let bank_bits = self.bg_bits + self.ba_bits;
        let combined = (bg << self.ba_bits) | ba;
        let key = row & ((1 << bank_bits) - 1);
        let permuted = combined ^ key;
        (permuted >> self.ba_bits, permuted & ((1 << self.ba_bits) - 1))
    }
}

fn take(value: &mut u64, bits: u32) -> u64 {
    if bits == 0 {
        return 0;
    }
    let field = *value & ((1u64 << bits) - 1);
    *value >>= bits;
    field
}

fn log2(value: usize) -> u32 {
    assert!(value.is_power_of_two(), "{value} must be a power of two");
    value.trailing_zeros()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mapping(scheme: MappingScheme) -> AddressMapping {
        let mut cfg = DramConfig::ddr5_4800_x4();
        cfg.mapping = scheme;
        AddressMapping::new(&cfg)
    }

    #[test]
    fn zen_mapping_consecutive_lines_alternate_subchannels() {
        let m = mapping(MappingScheme::Zen);
        let a = m.decode(0x0000);
        let b = m.decode(0x0040);
        assert_eq!(a.subchannel, 0);
        assert_eq!(b.subchannel, 1);
    }

    #[test]
    fn zen_mapping_spreads_a_page_across_many_banks() {
        // The Zen mapping distributes a 4 KB page across 32 banks with only
        // two lines of the page co-resident in the same bank (Section II-B).
        let m = mapping(MappingScheme::Zen);
        let base = 0x4000_0000u64;
        let mut per_bank = std::collections::HashMap::new();
        for line in 0..64u64 {
            let d = m.decode(base + line * 64);
            let key = (d.channel, d.subchannel, d.bankgroup, d.bank);
            *per_bank.entry(key).or_insert(0u32) += 1;
        }
        assert_eq!(per_bank.len(), 32, "a 4KB page should touch 32 banks");
        assert!(per_bank.values().all(|&n| n == 2));
    }

    #[test]
    fn pbpl_changes_bank_assignment_per_row_but_keeps_geometry() {
        let zen = mapping(MappingScheme::Zen);
        let pbpl = mapping(MappingScheme::ZenPbpl);
        // Same column/row, different row index => PBPL must permute banks.
        let mut differs = false;
        for row in 0..8u64 {
            let addr = row << 19; // row bits start at bit 19 for this geometry
            let a = zen.decode(addr);
            let b = pbpl.decode(addr);
            assert_eq!(a.row, b.row);
            assert_eq!(a.column, b.column);
            assert_eq!(a.subchannel, b.subchannel);
            if (a.bankgroup, a.bank) != (b.bankgroup, b.bank) {
                differs = true;
            }
        }
        assert!(differs, "PBPL should permute the bank for at least one row");
    }

    #[test]
    fn pbpl_lines_in_same_llc_set_map_to_different_banks() {
        // Addresses that differ only in row bits (i.e. conflict in a cache
        // set) should be spread over banks by PBPL.
        let m = mapping(MappingScheme::ZenPbpl);
        let mut banks = std::collections::HashSet::new();
        for row in 0..32u64 {
            let d = m.decode(row << 19);
            banks.insert((d.subchannel, d.bankgroup, d.bank));
        }
        assert!(banks.len() >= 16, "PBPL should spread rows across banks, got {}", banks.len());
    }

    #[test]
    fn decode_fields_are_in_range() {
        let m = mapping(MappingScheme::ZenPbpl);
        for i in 0..10_000u64 {
            let addr = i.wrapping_mul(0x9E37_79B9_7F4A_7C15);
            let d = m.decode(addr);
            assert!(d.channel < 1);
            assert!(d.subchannel < 2);
            assert!(d.bankgroup < 8);
            assert!(d.bank < 4);
            assert!(d.column < 128);
        }
    }

    #[test]
    fn bank_in_channel_is_dense_and_bounded() {
        let m = mapping(MappingScheme::ZenPbpl);
        let mut seen = std::collections::HashSet::new();
        for i in 0..100_000u64 {
            let (_, b) = m.channel_and_bank(i * 64);
            assert!(b < 64);
            seen.insert(b);
        }
        assert_eq!(seen.len(), 64, "all 64 channel banks should be reachable");
    }

    #[test]
    fn row_bank_column_mapping_keeps_row_sequential() {
        let m = mapping(MappingScheme::RowBankColumn);
        let a = m.decode(0x0000);
        let b = m.decode(0x0040);
        assert_eq!(a.row, b.row);
        assert_eq!(a.bank, b.bank);
        assert_eq!(b.column, a.column + 1);
    }

    #[test]
    fn multi_channel_decode_uses_channel_bits() {
        let mut cfg = DramConfig::ddr5_4800_x4();
        cfg.channels = 2;
        let m = AddressMapping::new(&cfg);
        let mut channels = std::collections::HashSet::new();
        for i in 0..1_000u64 {
            channels.insert(m.decode(i * 64).channel);
        }
        assert_eq!(channels.len(), 2);
    }
}

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
    /// Bit offset of the channel field in a physical address.
    channel_shift: u32,
    /// The address bits that select a DRAM row: every bit but the line
    /// offset and the column fields (see [`AddressMapping::same_row`]).
    row_mask: u64,
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
        let line_shift = config.line_bytes.trailing_zeros();
        let sc_bits = log2(config.subchannels_per_channel);
        let bg_bits = log2(config.bankgroups);
        let ba_bits = log2(config.banks_per_group);
        let ch_bits = log2(config.channels);
        let col_bits = log2(config.lines_per_row());
        let field = |offset: u32, bits: u32| ((1u64 << bits) - 1) << offset;
        // Offsets of the channel field and of each column field, above the
        // line offset, in the order `decode` takes the fields.
        let (channel_shift, columns) = match config.mapping {
            MappingScheme::ZenPbpl | MappingScheme::Zen => {
                let col_low = sc_bits;
                let channel = col_low + 1.min(col_bits) + bg_bits + ba_bits;
                let col_high = field(channel + ch_bits, col_bits.saturating_sub(1));
                (channel, field(col_low, 1.min(col_bits)) | col_high)
            }
            MappingScheme::RowBankColumn => (col_bits, field(0, col_bits)),
        };
        Self {
            scheme: config.mapping,
            line_shift,
            sc_bits,
            bg_bits,
            ba_bits,
            ch_bits,
            col_bits,
            banks_per_group: config.banks_per_group,
            banks_per_subchannel: config.bankgroups * config.banks_per_group,
            channel_shift: line_shift + channel_shift,
            row_mask: !((columns << line_shift) | field(0, line_shift)),
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

    /// Decodes only the channel index (cheaper than a full [`decode`]): the
    /// channel field is never permuted, so it is read in place.
    ///
    /// [`decode`]: Self::decode
    #[must_use]
    pub fn channel_of(&self, addr: u64) -> usize {
        ((addr >> self.channel_shift) & ((1u64 << self.ch_bits) - 1)) as usize
    }

    /// True when `a` and `b` map to the same row of the same bank: equal
    /// decoded channel, sub-channel, bank group, bank and row (cheaper than
    /// two [`decode`]s). Exact under PBPL too: for a given row, its XOR
    /// permutation is a bijection on (bank group, bank), so equal rows and
    /// permuted banks mean equal address bits.
    ///
    /// [`decode`]: Self::decode
    #[must_use]
    pub fn same_row(&self, a: u64, b: u64) -> bool {
        (a ^ b) & self.row_mask == 0
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

    /// The row key `same_row` must agree with: every decoded field but the
    /// column.
    fn row_key(m: &AddressMapping, addr: u64) -> (usize, usize, usize, usize, u64) {
        let d = m.decode(addr);
        (d.channel, d.subchannel, d.bankgroup, d.bank, d.row)
    }

    /// `channel_of` and `same_row` agree with `decode` on random addresses,
    /// random pairs, pairs that differ in a few low bits (often the same
    /// row) and pairs that differ in one bit, under every scheme at 1, 2
    /// and 4 channels.
    #[test]
    fn field_shortcuts_match_decode() {
        let mut x = 0x2545_F491_4F6C_DD1Du64;
        let mut next = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        for scheme in [MappingScheme::ZenPbpl, MappingScheme::Zen, MappingScheme::RowBankColumn] {
            for channels in [1, 2, 4] {
                let mut cfg = DramConfig::ddr5_4800_x4();
                cfg.mapping = scheme;
                cfg.channels = channels;
                let m = AddressMapping::new(&cfg);
                let (mut same, mut differ) = (0, 0);
                for _ in 0..20_000 {
                    let a = next();
                    assert_eq!(
                        m.channel_of(a),
                        m.decode(a).channel,
                        "{scheme:?}/{channels} {a:#x}"
                    );
                    let low = a ^ (next() & ((1 << (next() % 24)) - 1));
                    let bit = a ^ 1 << (next() % 64);
                    for b in [next(), low, bit] {
                        let expected = row_key(&m, a) == row_key(&m, b);
                        assert_eq!(
                            m.same_row(a, b),
                            expected,
                            "{scheme:?}/{channels} {a:#x} {b:#x}"
                        );
                        if expected {
                            same += 1
                        } else {
                            differ += 1
                        }
                    }
                }
                assert!(
                    same > 1_000 && differ > 1_000,
                    "{scheme:?}/{channels}: {same} same, {differ} not"
                );
            }
        }
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

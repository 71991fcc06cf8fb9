//! The BLP-Tracker (Section IV-A of the paper).
//!
//! One bit per DRAM bank per channel indicates whether that bank has recently
//! received a write-back. BARD consults the tracker during victim selection to
//! find dirty lines whose write-back would go to a bank *without* a pending
//! write (improving write bank-level parallelism), and sets the bit whenever
//! the LLC issues a write-back to that bank. The tracker is self-resetting:
//! once all bits belonging to one sub-channel are set, they are cleared.
//!
//! The structure costs 8 bytes of SRAM per channel per LLC slice (64 banks x
//! 1 bit). In this simulator all LLC slices share one perfectly-synchronised
//! tracker instance, which matches the paper's broadcast-after-victim-select
//! synchronisation scheme (Section VII-H).

use bard_image::{each, ImageError, Io};

/// A self-resetting bitmap of banks with pending write-backs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BlpTracker {
    banks_per_channel: usize, // bard-lint: allow(S1) -- geometry fixed at construction
    banks_per_subchannel: usize, // bard-lint: allow(S1) -- geometry fixed at construction
    /// One 64-bit word per channel (64 banks per DDR5 channel).
    bits: Vec<u64>,
    set_events: u64,
    reset_events: u64,
}

impl BlpTracker {
    /// Creates a tracker for `channels` channels.
    ///
    /// # Panics
    ///
    /// Panics if a channel has more than 64 banks (the paper's 8-byte budget)
    /// or if the geometry is degenerate.
    #[must_use]
    pub fn new(channels: usize, banks_per_channel: usize, banks_per_subchannel: usize) -> Self {
        assert!(channels > 0, "at least one channel");
        assert!(
            banks_per_channel <= 64,
            "the BLP-Tracker budget is 8 bytes (64 banks) per channel"
        );
        assert!(
            banks_per_subchannel > 0 && banks_per_subchannel <= banks_per_channel,
            "sub-channel banks must divide channel banks"
        );
        Self {
            banks_per_channel,
            banks_per_subchannel,
            bits: vec![0; channels],
            set_events: 0,
            reset_events: 0,
        }
    }

    /// Storage cost in bytes per channel per LLC slice.
    #[must_use]
    pub fn bytes_per_channel(&self) -> usize {
        self.banks_per_channel.div_ceil(8)
    }

    /// Number of channels tracked.
    #[must_use]
    pub fn channels(&self) -> usize {
        self.bits.len()
    }

    /// True if the tracker believes `bank` (channel-local index) has a
    /// pending write.
    #[must_use]
    pub fn has_pending(&self, channel: usize, bank: usize) -> bool {
        debug_assert!(bank < self.banks_per_channel);
        self.bits[channel] & (1u64 << bank) != 0
    }

    /// Records a write-back to `bank` of `channel` and applies the
    /// self-reset rule: if every bank bit of the bank's sub-channel is now
    /// set, those bits are cleared.
    pub fn record_writeback(&mut self, channel: usize, bank: usize) {
        debug_assert!(bank < self.banks_per_channel);
        self.bits[channel] |= 1u64 << bank;
        self.set_events += 1;
        let sub = bank / self.banks_per_subchannel;
        let mask = self.subchannel_mask(sub);
        if self.bits[channel] & mask == mask {
            self.bits[channel] &= !mask;
            self.reset_events += 1;
        }
    }

    /// Number of banks currently marked pending in `channel`.
    #[must_use]
    pub fn pending_count(&self, channel: usize) -> u32 {
        self.bits[channel].count_ones()
    }

    /// Raw bitmap for `channel` (bit `i` = bank `i`).
    #[must_use]
    pub fn bitmap(&self, channel: usize) -> u64 {
        self.bits[channel]
    }

    /// Total bank-bit set events (equals the number of broadcasts in the
    /// paper's synchronisation analysis, Table VIII).
    #[must_use]
    pub fn set_events(&self) -> u64 {
        self.set_events
    }

    /// Number of self-resets performed.
    #[must_use]
    pub fn reset_events(&self) -> u64 {
        self.reset_events
    }

    /// Clears all bits and statistics.
    pub fn clear(&mut self) {
        for word in &mut self.bits {
            *word = 0;
        }
        self.set_events = 0;
        self.reset_events = 0;
    }

    /// Codes the bitmaps and counters (snapshot images). The geometry is
    /// the restoring system's.
    pub(crate) fn image(&mut self, io: &mut impl Io) -> Result<(), ImageError> {
        each(io, &mut self.bits, "DRAM channels", Io::u64)?;
        io.u64(&mut self.set_events)?;
        io.u64(&mut self.reset_events)
    }

    fn subchannel_mask(&self, subchannel: usize) -> u64 {
        let width = self.banks_per_subchannel;
        let base = subchannel * width;
        if width == 64 {
            u64::MAX
        } else {
            ((1u64 << width) - 1) << base
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bard_image::{decode, encode};

    fn tracker() -> BlpTracker {
        // DDR5 channel: 64 banks, 32 per sub-channel.
        BlpTracker::new(1, 64, 32)
    }

    #[test]
    fn costs_eight_bytes_per_channel() {
        assert_eq!(tracker().bytes_per_channel(), 8);
    }

    #[test]
    fn set_and_query_round_trip() {
        let mut t = tracker();
        assert!(!t.has_pending(0, 5));
        t.record_writeback(0, 5);
        assert!(t.has_pending(0, 5));
        assert!(!t.has_pending(0, 6));
        assert_eq!(t.pending_count(0), 1);
    }

    #[test]
    fn self_resets_when_a_subchannel_fills() {
        let mut t = tracker();
        // Fill all 32 banks of sub-channel 0 plus one bank of sub-channel 1.
        t.record_writeback(0, 40);
        for bank in 0..32 {
            t.record_writeback(0, bank);
        }
        // Sub-channel 0's bits were cleared by the self-reset; bank 40 stays.
        assert_eq!(t.reset_events(), 1);
        for bank in 0..32 {
            assert!(!t.has_pending(0, bank), "bank {bank} should have been reset");
        }
        assert!(t.has_pending(0, 40));
    }

    #[test]
    fn subchannels_reset_independently() {
        let mut t = tracker();
        for bank in 32..64 {
            t.record_writeback(0, bank);
        }
        assert_eq!(t.reset_events(), 1);
        assert_eq!(t.pending_count(0), 0);
    }

    #[test]
    fn channels_are_independent() {
        let mut t = BlpTracker::new(2, 64, 32);
        t.record_writeback(1, 3);
        assert!(t.has_pending(1, 3));
        assert!(!t.has_pending(0, 3));
    }

    #[test]
    fn clear_resets_everything() {
        let mut t = tracker();
        t.record_writeback(0, 1);
        t.clear();
        assert_eq!(t.pending_count(0), 0);
        assert_eq!(t.set_events(), 0);
    }

    #[test]
    #[should_panic(expected = "8 bytes")]
    fn rejects_oversized_channels() {
        let _ = BlpTracker::new(1, 128, 64);
    }

    #[test]
    fn state_export_import_round_trips() {
        let mut t = tracker();
        for bank in [3, 7, 40, 41] {
            t.record_writeback(0, bank);
        }
        let state = encode(|io| t.image(io));
        let mut fresh = tracker();
        decode(&state, |io| fresh.image(io)).expect("a tracker's own image decodes");
        assert_eq!(fresh, t);
        // The restored tracker must keep applying the self-reset rule.
        for bank in 0..32 {
            fresh.record_writeback(0, bank);
            t.record_writeback(0, bank);
        }
        assert_eq!(fresh, t);
        assert_eq!(fresh.reset_events(), 1);
    }

    #[test]
    #[should_panic(expected = "image has 2 DRAM channels, this system has 1")]
    fn state_import_rejects_wrong_channel_count() {
        let state = encode(|io| BlpTracker::new(2, 64, 32).image(io));
        let mut other = tracker();
        decode(&state, |io| other.image(io)).unwrap();
    }

    #[test]
    fn set_events_count_broadcasts() {
        let mut t = tracker();
        for i in 0..10 {
            t.record_writeback(0, i % 4);
        }
        assert_eq!(t.set_events(), 10);
    }
}

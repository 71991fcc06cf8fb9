//! DRAM organisation and controller configuration (Table II of the paper).

use crate::address::MappingScheme;
use crate::timing::TimingParams;

/// Row-buffer management policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum PagePolicy {
    /// Adaptive open page: a row is closed (auto-precharge) when no request
    /// to the same row is pending in the queues (baseline, Table II).
    #[default]
    AdaptiveOpen,
    /// Keep rows open until a conflicting request forces a precharge.
    Open,
    /// Close the row after every column access.
    Closed,
}

/// Full configuration of the DRAM subsystem.
///
/// Defaults (via [`DramConfig::ddr5_4800_x4`]) follow Table II: one channel
/// with two sub-channels, 8 bank groups x 4 banks per sub-channel, 64-entry
/// read queue, 48-entry write queue with watermarks low=8 / high=40, FR-FCFS
/// with read priority, adaptive open-page, Zen + PBPL address mapping.
#[derive(Debug, Clone, PartialEq)]
pub struct DramConfig {
    /// Number of independent channels.
    pub channels: usize,
    /// Sub-channels per channel (DDR5: 2).
    pub subchannels_per_channel: usize,
    /// Bank groups per sub-channel (DDR5: 8).
    pub bankgroups: usize,
    /// Banks per bank group (DDR5: 4).
    pub banks_per_group: usize,
    /// Row size in bytes (columns x line size).
    pub row_bytes: usize,
    /// Cache-line (burst) size in bytes.
    pub line_bytes: usize,
    /// Read queue capacity per sub-channel.
    pub read_queue_entries: usize,
    /// Write queue capacity per sub-channel.
    pub write_queue_entries: usize,
    /// Write-drain low watermark: draining stops at or below this occupancy.
    pub write_low_watermark: usize,
    /// Write-drain high watermark: draining starts at or above this occupancy.
    pub write_high_watermark: usize,
    /// Row-buffer policy.
    pub page_policy: PagePolicy,
    /// Physical address mapping scheme.
    pub mapping: MappingScheme,
    /// DRAM timing parameters in DRAM command-clock cycles.
    pub timing: TimingParams,
    /// When true, every write is serviced in `burst` cycles regardless of the
    /// bank it maps to (the "ideal" system of Figures 2 and 14).
    pub ideal_writes: bool,
    /// Model periodic all-bank refresh.
    pub refresh_enabled: bool,
    /// Extra fixed controller latency (CPU cycles) added to every read
    /// response, modelling controller and on-chip-network traversal.
    pub controller_latency_cpu: u64,
}

impl DramConfig {
    /// The baseline DDR5-4800 x4 configuration of Table II.
    #[must_use]
    pub fn ddr5_4800_x4() -> Self {
        Self {
            channels: 1,
            subchannels_per_channel: 2,
            bankgroups: 8,
            banks_per_group: 4,
            row_bytes: 8 * 1024,
            line_bytes: 64,
            read_queue_entries: 64,
            write_queue_entries: 48,
            write_low_watermark: 8,
            write_high_watermark: 40,
            page_policy: PagePolicy::AdaptiveOpen,
            mapping: MappingScheme::ZenPbpl,
            timing: TimingParams::ddr5_4800_x4(),
            ideal_writes: false,
            refresh_enabled: true,
            controller_latency_cpu: 20,
        }
    }

    /// The x8-device variant (Section VII-D / Table VI): servers use x4
    /// devices (for Chipkill); x8 devices avoid the on-die-ECC
    /// read-modify-write, which halves `tCCD_L_WR`. Identical to the x4
    /// baseline except that timing.
    #[must_use]
    pub fn ddr5_4800_x8() -> Self {
        Self { timing: TimingParams::ddr5_4800_x8(), ..Self::ddr5_4800_x4() }
    }

    /// The idealised system where every write occupies the data bus for only
    /// BL/2 (3.3 ns), used as the upper bound in Figures 2 and 14.
    #[must_use]
    pub fn ideal(mut self) -> Self {
        self.ideal_writes = true;
        self
    }

    /// Returns a copy with a different write-queue capacity, keeping the
    /// watermarks proportional to the baseline (low = cap/6, high = cap - 8),
    /// as used by the Figure 17 sweep.
    #[must_use]
    pub fn with_write_queue_entries(mut self, entries: usize) -> Self {
        assert!(entries >= 16, "write queue must hold at least 16 entries");
        self.write_queue_entries = entries;
        self.write_low_watermark = (entries / 6).max(2);
        self.write_high_watermark = entries - 8;
        self
    }

    /// Banks per sub-channel (32 for DDR5).
    #[must_use]
    pub fn banks_per_subchannel(&self) -> usize {
        self.bankgroups * self.banks_per_group
    }

    /// Banks per channel (64 for DDR5: two sub-channels).
    #[must_use]
    pub fn banks_per_channel(&self) -> usize {
        self.banks_per_subchannel() * self.subchannels_per_channel
    }

    /// Number of cache lines per DRAM row.
    #[must_use]
    pub fn lines_per_row(&self) -> usize {
        self.row_bytes / self.line_bytes
    }

    /// Number of writes a single drain episode targets
    /// (high watermark - low watermark).
    #[must_use]
    pub fn writes_per_drain(&self) -> usize {
        self.write_high_watermark - self.write_low_watermark
    }

    /// Validates internal consistency.
    ///
    /// # Errors
    ///
    /// Returns a human-readable description of the first inconsistency found
    /// (for example watermarks outside the queue capacity).
    pub fn validate(&self) -> Result<(), String> {
        for (field, count) in
            [("channels", self.channels), ("subchannels_per_channel", self.subchannels_per_channel)]
        {
            // The address mapping gives each a whole number of address bits.
            if !count.is_power_of_two() {
                return Err(format!("{field} = {count} is not a power of two"));
            }
        }
        if !self.bankgroups.is_power_of_two() || !self.banks_per_group.is_power_of_two() {
            return Err("bank groups and banks per group must be powers of two".into());
        }
        let banks = [self.bankgroups, self.banks_per_group, self.subchannels_per_channel]
            .into_iter()
            .fold(1usize, usize::saturating_mul);
        if banks > 64 {
            return Err(format!(
                "subchannels_per_channel = {} with bankgroups = {} and banks_per_group = {} gives \
                 {banks} banks per channel; the bank masks (BLP-Tracker, write queue) hold 64",
                self.subchannels_per_channel, self.bankgroups, self.banks_per_group
            ));
        }
        if !self.line_bytes.is_power_of_two() || !self.row_bytes.is_power_of_two() {
            return Err("line and row sizes must be powers of two".into());
        }
        if self.row_bytes < self.line_bytes {
            return Err("a row must hold at least one line".into());
        }
        if self.write_high_watermark > self.write_queue_entries {
            return Err("high watermark exceeds write queue capacity".into());
        }
        if self.write_low_watermark >= self.write_high_watermark {
            return Err("low watermark must be below high watermark".into());
        }
        if self.read_queue_entries == 0 || self.write_queue_entries == 0 {
            return Err("queues must be non-empty".into());
        }
        Ok(())
    }
}

impl Default for DramConfig {
    fn default() -> Self {
        Self::ddr5_4800_x4()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn baseline_matches_table2() {
        let c = DramConfig::ddr5_4800_x4();
        assert_eq!(c.channels, 1);
        assert_eq!(c.subchannels_per_channel, 2);
        assert_eq!(c.bankgroups, 8);
        assert_eq!(c.banks_per_group, 4);
        assert_eq!(c.banks_per_subchannel(), 32);
        assert_eq!(c.banks_per_channel(), 64);
        assert_eq!(c.read_queue_entries, 64);
        assert_eq!(c.write_queue_entries, 48);
        assert_eq!(c.write_low_watermark, 8);
        assert_eq!(c.write_high_watermark, 40);
        assert_eq!(c.writes_per_drain(), 32);
        assert!(c.validate().is_ok());
    }

    #[test]
    fn x8_variant_only_changes_write_ccd() {
        let x4 = DramConfig::ddr5_4800_x4();
        let x8 = DramConfig::ddr5_4800_x8();
        assert_eq!(x8.timing.t_ccd_l_wr, x4.timing.t_ccd_l_wr / 2);
        assert_eq!(TimingParams { t_ccd_l_wr: x4.timing.t_ccd_l_wr, ..x8.timing }, x4.timing);
        assert_eq!(DramConfig { timing: x4.timing, ..x8 }, x4);
    }

    #[test]
    fn write_queue_sweep_scales_watermarks() {
        for entries in [32, 48, 64, 96, 128] {
            let c = DramConfig::ddr5_4800_x4().with_write_queue_entries(entries);
            assert!(c.validate().is_ok(), "wq={entries}");
            assert!(c.write_high_watermark < entries + 1);
            assert!(c.write_low_watermark < c.write_high_watermark);
        }
    }

    #[test]
    fn validate_rejects_bad_watermarks() {
        let mut c = DramConfig::ddr5_4800_x4();
        c.write_high_watermark = 100;
        assert!(c.validate().is_err());
        let mut c = DramConfig::ddr5_4800_x4();
        c.write_low_watermark = 45;
        assert!(c.validate().is_err());
    }

    #[test]
    fn validate_rejects_non_power_of_two_geometry() {
        let mut c = DramConfig::ddr5_4800_x4();
        c.bankgroups = 6;
        assert!(c.validate().is_err());
        let mut c = DramConfig::ddr5_4800_x4();
        c.line_bytes = 48;
        assert!(c.validate().is_err());
        // Each of these built an `AddressMapping` or a BLP-Tracker that panicked.
        let mut c = DramConfig::ddr5_4800_x4();
        c.channels = 3;
        assert_eq!(c.validate().unwrap_err(), "channels = 3 is not a power of two");
        c.channels = 0;
        assert_eq!(c.validate().unwrap_err(), "channels = 0 is not a power of two");
        let mut c = DramConfig::ddr5_4800_x4();
        c.subchannels_per_channel = 3;
        assert_eq!(c.validate().unwrap_err(), "subchannels_per_channel = 3 is not a power of two");
        c.subchannels_per_channel = 4;
        let err = c.validate().unwrap_err();
        assert!(
            err.starts_with(
                "subchannels_per_channel = 4 with bankgroups = 8 and banks_per_group = 4 gives \
                 128 banks per channel"
            ),
            "{err}"
        );
        c.subchannels_per_channel = 1;
        assert!(c.validate().is_ok(), "32 banks per channel fit");
    }

    #[test]
    fn lines_per_row_matches_geometry() {
        let c = DramConfig::ddr5_4800_x4();
        assert_eq!(c.lines_per_row(), 128);
    }

    #[test]
    fn ideal_flag_round_trips() {
        let c = DramConfig::ddr5_4800_x4().ideal();
        assert!(c.ideal_writes);
    }
}

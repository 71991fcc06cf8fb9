//! Statistics collected by the DRAM model.
//!
//! These statistics are what the paper's evaluation figures are built from:
//! write bank-level parallelism per drain episode (Figures 3 and 14), the
//! fraction of time spent issuing writes (Figures 2 and 14), write-to-write
//! delays (Table V), and command/energy counts (Table IX).

use bard_image::{ImageError, Io};

use crate::timing::cpu_cycles_to_ns;

/// Statistics for one completed write-drain episode.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct DrainEpisodeStats {
    /// Cycle at which the episode started (bus switched to write mode).
    pub start_cycle: u64,
    /// Cycle at which the episode ended (bus switched back to reads).
    pub end_cycle: u64,
    /// Number of writes serviced during the episode.
    pub writes: u64,
    /// Number of distinct banks that received at least one write: the
    /// episode's bank-level parallelism (BLP).
    pub unique_banks: u32,
}

impl DrainEpisodeStats {
    /// Duration of the episode in cycles.
    #[must_use]
    pub fn duration(&self) -> u64 {
        self.end_cycle.saturating_sub(self.start_cycle)
    }
}

/// Running statistics for one sub-channel.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SubChannelStats {
    /// Total cycles observed (set by the controller on every tick).
    pub cycles: u64,
    /// Cycles spent in write-drain mode (including turnaround bubbles).
    pub write_mode_cycles: u64,
    /// Cycles during which at least one request (read or write) was queued or
    /// in flight. Used to report busy-time-normalised metrics.
    pub busy_cycles: u64,
    /// Reads serviced.
    pub reads: u64,
    /// Writes serviced.
    pub writes: u64,
    /// Sum of read latencies (enqueue to data available), in cycles.
    pub read_latency_cycles: u64,
    /// Row-buffer hits among reads.
    pub read_row_hits: u64,
    /// Row-buffer misses (bank closed) among reads.
    pub read_row_misses: u64,
    /// Row-buffer conflicts (wrong row open) among reads.
    pub read_row_conflicts: u64,
    /// Row-buffer hits among writes.
    pub write_row_hits: u64,
    /// Row-buffer misses among writes.
    pub write_row_misses: u64,
    /// Row-buffer conflicts among writes.
    pub write_row_conflicts: u64,
    /// ACT commands issued.
    pub activates: u64,
    /// PRE commands issued (explicit and auto).
    pub precharges: u64,
    /// Refresh operations performed.
    pub refreshes: u64,
    /// Number of completed drain episodes.
    pub drain_episodes: u64,
    /// Sum over episodes of writes serviced.
    pub drain_writes: u64,
    /// Sum over episodes of unique banks written (for mean BLP).
    pub drain_unique_banks: u64,
    /// Sum over episodes of the episode duration in cycles.
    pub drain_cycles: u64,
    /// Sum of gaps (in cycles) between consecutive write bursts within an
    /// episode, and the number of such gaps; used for Table V.
    pub write_to_write_gap_cycles: u64,
    /// Number of write-to-write gaps observed.
    pub write_to_write_gaps: u64,
    /// Writes that were issued while the write queue was full and the
    /// requester had to be back-pressured.
    pub write_queue_full_events: u64,
}

impl SubChannelStats {
    /// Mean write bank-level parallelism across completed drain episodes
    /// (Figure 3 / Figure 14 top).
    #[must_use]
    pub fn mean_write_blp(&self) -> f64 {
        if self.drain_episodes == 0 {
            0.0
        } else {
            self.drain_unique_banks as f64 / self.drain_episodes as f64
        }
    }

    /// Fraction of total execution time spent in write mode
    /// (Figure 2 / Figure 14 bottom).
    #[must_use]
    pub fn write_time_fraction(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.write_mode_cycles as f64 / self.cycles as f64
        }
    }

    /// Mean write-to-write delay in nanoseconds (Table V).
    #[must_use]
    pub fn mean_write_to_write_ns(&self) -> f64 {
        if self.write_to_write_gaps == 0 {
            0.0
        } else {
            cpu_cycles_to_ns(self.write_to_write_gap_cycles) / self.write_to_write_gaps as f64
        }
    }

    /// Mean read latency in cycles.
    #[must_use]
    pub fn mean_read_latency_cycles(&self) -> f64 {
        if self.reads == 0 {
            0.0
        } else {
            self.read_latency_cycles as f64 / self.reads as f64
        }
    }

    /// Row-buffer hit rate for writes.
    #[must_use]
    pub fn write_row_hit_rate(&self) -> f64 {
        let total = self.write_row_hits + self.write_row_misses + self.write_row_conflicts;
        if total == 0 {
            0.0
        } else {
            self.write_row_hits as f64 / total as f64
        }
    }

    /// Row-buffer hit rate for reads.
    #[must_use]
    pub fn read_row_hit_rate(&self) -> f64 {
        let total = self.read_row_hits + self.read_row_misses + self.read_row_conflicts;
        if total == 0 {
            0.0
        } else {
            self.read_row_hits as f64 / total as f64
        }
    }

    /// Merges another sub-channel's statistics into this one (used to build
    /// channel- and system-level aggregates).
    pub fn merge(&mut self, other: &SubChannelStats) {
        self.cycles = self.cycles.max(other.cycles);
        self.write_mode_cycles += other.write_mode_cycles;
        self.busy_cycles += other.busy_cycles;
        self.reads += other.reads;
        self.writes += other.writes;
        self.read_latency_cycles += other.read_latency_cycles;
        self.read_row_hits += other.read_row_hits;
        self.read_row_misses += other.read_row_misses;
        self.read_row_conflicts += other.read_row_conflicts;
        self.write_row_hits += other.write_row_hits;
        self.write_row_misses += other.write_row_misses;
        self.write_row_conflicts += other.write_row_conflicts;
        self.activates += other.activates;
        self.precharges += other.precharges;
        self.refreshes += other.refreshes;
        self.drain_episodes += other.drain_episodes;
        self.drain_writes += other.drain_writes;
        self.drain_unique_banks += other.drain_unique_banks;
        self.drain_cycles += other.drain_cycles;
        self.write_to_write_gap_cycles += other.write_to_write_gap_cycles;
        self.write_to_write_gaps += other.write_to_write_gaps;
        self.write_queue_full_events += other.write_queue_full_events;
    }

    /// Codes the counters (snapshot images).
    pub(crate) fn image(&mut self, io: &mut impl Io) -> Result<(), ImageError> {
        io.u64(&mut self.cycles)?;
        io.u64(&mut self.write_mode_cycles)?;
        io.u64(&mut self.busy_cycles)?;
        io.u64(&mut self.reads)?;
        io.u64(&mut self.writes)?;
        io.u64(&mut self.read_latency_cycles)?;
        io.u64(&mut self.read_row_hits)?;
        io.u64(&mut self.read_row_misses)?;
        io.u64(&mut self.read_row_conflicts)?;
        io.u64(&mut self.write_row_hits)?;
        io.u64(&mut self.write_row_misses)?;
        io.u64(&mut self.write_row_conflicts)?;
        io.u64(&mut self.activates)?;
        io.u64(&mut self.precharges)?;
        io.u64(&mut self.refreshes)?;
        io.u64(&mut self.drain_episodes)?;
        io.u64(&mut self.drain_writes)?;
        io.u64(&mut self.drain_unique_banks)?;
        io.u64(&mut self.drain_cycles)?;
        io.u64(&mut self.write_to_write_gap_cycles)?;
        io.u64(&mut self.write_to_write_gaps)?;
        io.u64(&mut self.write_queue_full_events)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn blp_is_mean_over_episodes() {
        let s =
            SubChannelStats { drain_episodes: 4, drain_unique_banks: 100, ..Default::default() };
        assert!((s.mean_write_blp() - 25.0).abs() < 1e-12);
    }

    #[test]
    fn empty_stats_produce_zeroes_not_nan() {
        let s = SubChannelStats::default();
        assert_eq!(s.mean_write_blp(), 0.0);
        assert_eq!(s.write_time_fraction(), 0.0);
        assert_eq!(s.mean_write_to_write_ns(), 0.0);
        assert_eq!(s.mean_read_latency_cycles(), 0.0);
        assert_eq!(s.write_row_hit_rate(), 0.0);
        assert_eq!(s.read_row_hit_rate(), 0.0);
    }

    #[test]
    fn merge_accumulates_counts_and_maxes_cycles() {
        let mut a = SubChannelStats {
            cycles: 1000,
            writes: 10,
            drain_episodes: 1,
            drain_unique_banks: 20,
            ..Default::default()
        };
        let b = SubChannelStats {
            cycles: 900,
            writes: 6,
            drain_episodes: 1,
            drain_unique_banks: 30,
            ..Default::default()
        };
        a.merge(&b);
        assert_eq!(a.cycles, 1000);
        assert_eq!(a.writes, 16);
        assert!((a.mean_write_blp() - 25.0).abs() < 1e-12);
    }

    #[test]
    fn episode_duration_saturates() {
        let e = DrainEpisodeStats { start_cycle: 10, end_cycle: 5, ..Default::default() };
        assert_eq!(e.duration(), 0);
    }
}

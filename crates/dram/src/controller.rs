//! Per-channel memory controller: owns the two sub-channels and the address
//! mapping, and is the interface the cache hierarchy talks to.

use crate::address::AddressMapping;
use crate::config::DramConfig;
use crate::power::{EnergyBreakdown, PowerModel};
use crate::request::{CompletedRead, EnqueueError, MemRequest};
use crate::stats::{ChannelStats, DrainEpisodeStats, SubChannelStats};
use crate::subchannel::{SubChannel, SubChannelState};

/// Plain-data image of a whole channel controller (snapshot support).
#[derive(Debug, Clone, PartialEq)]
pub struct ControllerState {
    /// One image per sub-channel, in index order.
    pub subchannels: Vec<SubChannelState>,
}

/// Memory controller for a single DDR5 channel (two sub-channels).
#[derive(Debug, Clone)]
pub struct MemoryController {
    channel_id: usize, // bard-lint: allow(S1) -- identity fixed at construction
    mapping: AddressMapping,
    subchannels: Vec<SubChannel>,
    controller_latency: u64, // bard-lint: allow(S1) -- config parameter fixed at construction
    power_model: PowerModel, // bard-lint: allow(S1) -- config parameter fixed at construction
    banks_per_subchannel: usize, // bard-lint: allow(S1) -- geometry fixed at construction
}

impl MemoryController {
    /// Builds the controller for `channel_id` using `config`.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid (see [`DramConfig::validate`]).
    #[must_use]
    pub fn new(config: &DramConfig, channel_id: usize) -> Self {
        config.validate().expect("invalid DramConfig");
        Self {
            channel_id,
            mapping: AddressMapping::new(config),
            subchannels: (0..config.subchannels_per_channel)
                .map(|_| SubChannel::new(config))
                .collect(),
            controller_latency: config.controller_latency_cpu,
            power_model: PowerModel::ddr5_default(),
            banks_per_subchannel: config.banks_per_subchannel(),
        }
    }

    /// The channel index this controller serves.
    #[must_use]
    pub fn channel_id(&self) -> usize {
        self.channel_id
    }

    /// The address mapping used by this controller.
    #[must_use]
    pub fn mapping(&self) -> &AddressMapping {
        &self.mapping
    }

    /// Number of sub-channels.
    #[must_use]
    pub fn subchannel_count(&self) -> usize {
        self.subchannels.len()
    }

    /// Read-only access to a sub-channel (for tests and detailed analyses).
    #[must_use]
    pub fn subchannel(&self, index: usize) -> &SubChannel {
        &self.subchannels[index]
    }

    /// Whether a write to `addr` can currently be accepted (its target
    /// sub-channel's write queue has space).
    #[must_use]
    pub fn can_accept_write(&self, addr: u64) -> bool {
        let d = self.mapping.decode(addr);
        self.subchannels[d.subchannel].can_accept_write()
    }

    /// Whether a read to `addr` can currently be accepted.
    #[must_use]
    pub fn can_accept_read(&self, addr: u64) -> bool {
        let d = self.mapping.decode(addr);
        self.subchannels[d.subchannel].can_accept_read()
    }

    /// Enqueues a request, routing it to the proper sub-channel.
    ///
    /// # Errors
    ///
    /// * [`EnqueueError::WrongChannel`] if the address maps to another channel.
    /// * [`EnqueueError::ReadQueueFull`] / [`EnqueueError::WriteQueueFull`]
    ///   if the target queue has no space; the caller should retry later.
    pub fn try_enqueue(&mut self, mut req: MemRequest, now: u64) -> Result<(), EnqueueError> {
        let decoded = self.mapping.decode(req.addr);
        if decoded.channel != self.channel_id {
            return Err(EnqueueError::WrongChannel {
                expected: decoded.channel,
                actual: self.channel_id,
            });
        }
        req.decoded = decoded;
        let sub = &mut self.subchannels[decoded.subchannel];
        if req.is_write() {
            sub.enqueue_write(req, now)
        } else {
            sub.enqueue_read(req, now)
        }
    }

    /// Counts `n` write enqueues to `addr` refused by its full write queue
    /// without attempting them (see [`SubChannel::note_refused_writes`]).
    pub fn note_refused_writes(&mut self, addr: u64, n: u64) {
        let d = self.mapping.decode(addr);
        self.subchannels[d.subchannel].note_refused_writes(n);
    }

    /// Exports every sub-channel's semantic state (snapshot support).
    /// Callers must [`MemoryController::settle_stats`] to the capture cycle
    /// first so the exported statistics are exact.
    #[must_use]
    pub fn export_state(&self) -> ControllerState {
        ControllerState {
            subchannels: self.subchannels.iter().map(SubChannel::export_state).collect(),
        }
    }

    /// Replaces every sub-channel's state with the images in `state`,
    /// re-deriving decoded addresses from this controller's mapping.
    ///
    /// # Panics
    ///
    /// Panics when the image does not match this controller's sub-channel
    /// count or geometry (restores are gated by snapshot digests).
    pub fn import_state(&mut self, state: &ControllerState) {
        assert_eq!(
            state.subchannels.len(),
            self.subchannels.len(),
            "controller sub-channel count mismatch"
        );
        let mapping = self.mapping.clone();
        for (sub, image) in self.subchannels.iter_mut().zip(&state.subchannels) {
            sub.import_state(image, &mapping);
        }
    }

    /// Clears all statistics on every sub-channel (end of warm-up).
    pub fn reset_stats(&mut self, now: u64) {
        for sub in &mut self.subchannels {
            sub.reset_stats(now);
        }
    }

    /// Advances every sub-channel by one CPU cycle. Returns `true` if any
    /// sub-channel issued a command, refreshed or switched bus mode (dead
    /// rows close themselves; see [`SubChannel::tick`]).
    pub fn tick(&mut self, now: u64) -> bool {
        let mut active = false;
        for sub in &mut self.subchannels {
            active |= sub.tick(now);
        }
        active
    }

    /// Collects reads whose data (plus controller latency) is available at
    /// cycle `now`: a read whose DRAM-side data is ready at cycle `r` is
    /// delivered on the tick at `r + controller_latency`. The caller passes
    /// the cycle explicitly so bulk-advanced spans can neither miss nor
    /// double-deliver completions at span boundaries.
    pub fn drain_completed(&mut self, now: u64, out: &mut Vec<CompletedRead>) {
        // Completion timestamps already include the DRAM-side latency; adding
        // the fixed controller latency here keeps the sub-channel clean.
        let latency = self.controller_latency;
        let before = out.len();
        for sub in &mut self.subchannels {
            sub.drain_completed(now.saturating_sub(latency), out);
        }
        for done in &mut out[before..] {
            done.ready_cycle += latency;
            done.latency += latency;
        }
    }

    /// The channel's exact next interesting cycle: the minimum over every
    /// sub-channel's wake horizon and the delivery cycle of its earliest
    /// buffered read completion. Until that cycle (absent an enqueue) ticks
    /// and drains are no-ops, so a cycle-skipping caller may jump straight
    /// to it.
    #[must_use]
    pub fn next_event_cycle(&self) -> u64 {
        let mut horizon = u64::MAX;
        for sub in &self.subchannels {
            horizon = horizon.min(sub.next_wake());
            horizon =
                horizon.min(sub.earliest_completion().saturating_add(self.controller_latency));
        }
        horizon
    }

    /// Settles every sub-channel's lazily-accounted per-cycle statistics
    /// through cycle `up_to` (see [`SubChannel::settle_stats`]). Must run
    /// before [`MemoryController::stats`] or [`MemoryController::energy`]
    /// are read for reporting.
    pub fn settle_stats(&mut self, up_to: u64) {
        for sub in &mut self.subchannels {
            sub.settle_stats(up_to);
        }
    }

    /// Total non-empty statistic settlements across sub-channels (perf
    /// counter; see [`SubChannel::settle_events`]).
    #[must_use]
    pub fn settle_events(&self) -> u64 {
        self.subchannels.iter().map(SubChannel::settle_events).sum()
    }

    /// Total awake sub-channel ticks (perf counter; see
    /// [`SubChannel::awake_ticks`]).
    #[must_use]
    pub fn awake_ticks(&self) -> u64 {
        self.subchannels.iter().map(SubChannel::awake_ticks).sum()
    }

    /// Total planning passes for the next command (perf counter; see
    /// [`SubChannel::scheduling_passes`]).
    #[must_use]
    pub fn scheduling_passes(&self) -> u64 {
        self.subchannels.iter().map(SubChannel::scheduling_passes).sum()
    }

    /// Turns drain-episode logging on or off for every sub-channel (see
    /// [`SubChannel::set_episode_recording`]).
    pub fn set_episode_recording(&mut self, on: bool) {
        for sub in &mut self.subchannels {
            sub.set_episode_recording(on);
        }
    }

    /// Drains each sub-channel's recorded drain-episode log, in sub-channel
    /// order.
    pub fn take_episode_logs(&mut self) -> Vec<Vec<DrainEpisodeStats>> {
        self.subchannels.iter_mut().map(SubChannel::take_episode_log).collect()
    }

    /// True if any sub-channel write queue holds a request for the given
    /// channel-local bank index (0..64). Used by the BLP-Tracker accuracy
    /// analysis (Section VII-I) and the oracle tracker.
    #[must_use]
    pub fn has_pending_write_to_bank(&self, channel_bank: usize) -> bool {
        let sub = channel_bank / self.banks_per_subchannel;
        let bank = channel_bank % self.banks_per_subchannel;
        if sub >= self.subchannels.len() {
            return false;
        }
        self.subchannels[sub].pending_write_banks() & (1u64 << bank) != 0
    }

    /// Channel-local bank index for an address (what BARD broadcasts).
    #[must_use]
    pub fn bank_of(&self, addr: u64) -> usize {
        self.mapping.channel_and_bank(addr).1
    }

    /// Aggregated statistics over both sub-channels.
    #[must_use]
    pub fn stats(&self) -> ChannelStats {
        let mut merged = SubChannelStats::default();
        for sub in &self.subchannels {
            merged.merge(sub.stats());
        }
        ChannelStats { merged, subchannels: self.subchannels.len() }
    }

    /// Energy consumed so far, summed across sub-channels.
    #[must_use]
    pub fn energy(&self) -> EnergyBreakdown {
        let mut total = EnergyBreakdown::default();
        for sub in &self.subchannels {
            total.merge(&self.power_model.energy(sub.stats()));
        }
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn config() -> DramConfig {
        let mut c = DramConfig::ddr5_4800_x4();
        c.refresh_enabled = false;
        c
    }

    #[test]
    fn routes_requests_to_the_right_subchannel() {
        let cfg = config();
        let mut mc = MemoryController::new(&cfg, 0);
        // Consecutive lines alternate sub-channels under the Zen mapping.
        mc.try_enqueue(MemRequest::read(1, 0x0000, 0), 0).unwrap();
        mc.try_enqueue(MemRequest::read(2, 0x0040, 0), 0).unwrap();
        assert_eq!(mc.subchannel(0).read_queue_len() + mc.subchannel(1).read_queue_len(), 2);
        assert_eq!(mc.subchannel(0).read_queue_len(), 1);
        assert_eq!(mc.subchannel(1).read_queue_len(), 1);
    }

    #[test]
    fn completes_reads_with_controller_latency() {
        let cfg = config();
        let mut mc = MemoryController::new(&cfg, 0);
        mc.try_enqueue(MemRequest::read(7, 0x1000, 0), 0).unwrap();
        let mut done = Vec::new();
        for cycle in 0..3_000 {
            mc.tick(cycle);
            mc.drain_completed(cycle, &mut done);
            if !done.is_empty() {
                break;
            }
        }
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].id, 7);
        assert!(done[0].latency > cfg.controller_latency_cpu);
    }

    /// Boundary regression test for the "now = last tick + 1" reconstruction
    /// bug: a completion whose DRAM data is ready at cycle `r` is delivered
    /// on exactly the tick at `r + controller_latency` — never a cycle early
    /// (the old off-by-one), never late, and exactly once.
    #[test]
    fn completions_deliver_exactly_at_ready_plus_controller_latency() {
        let cfg = config();
        let mut mc = MemoryController::new(&cfg, 0);
        mc.try_enqueue(MemRequest::read(1, 0x1000, 0), 0).unwrap();
        let mut done = Vec::new();
        let mut delivered_at = None;
        for cycle in 0..3_000 {
            mc.tick(cycle);
            let before = done.len();
            mc.drain_completed(cycle, &mut done);
            if done.len() > before && delivered_at.is_none() {
                delivered_at = Some(cycle);
            }
        }
        let delivered_at = delivered_at.expect("the read must complete");
        assert_eq!(done.len(), 1, "a completion must be delivered exactly once");
        assert_eq!(
            done[0].ready_cycle, delivered_at,
            "delivery tick must equal the latency-adjusted ready cycle"
        );
        // The delivery cycle is also the channel's event horizon just before
        // it: draining one cycle earlier yields nothing.
        let mut mc2 = MemoryController::new(&cfg, 0);
        mc2.try_enqueue(MemRequest::read(1, 0x1000, 0), 0).unwrap();
        let mut out = Vec::new();
        for cycle in 0..delivered_at {
            mc2.tick(cycle);
            mc2.drain_completed(cycle, &mut out);
        }
        assert!(out.is_empty(), "nothing may deliver before the ready cycle");
        assert_eq!(
            mc2.next_event_cycle(),
            delivered_at,
            "the horizon must point at the pending completion"
        );
    }

    #[test]
    fn rejects_wrong_channel_addresses() {
        let mut cfg = config();
        cfg.channels = 2;
        let mut mc = MemoryController::new(&cfg, 0);
        // Find an address mapping to channel 1.
        let mapping = AddressMapping::new(&cfg);
        let addr = (0..1_000u64)
            .map(|i| i * 64)
            .find(|a| mapping.decode(*a).channel == 1)
            .expect("some address maps to channel 1");
        let err = mc.try_enqueue(MemRequest::read(1, addr, 0), 0).unwrap_err();
        assert!(matches!(err, EnqueueError::WrongChannel { expected: 1, actual: 0 }));
    }

    #[test]
    fn pending_write_bank_query_tracks_wrq() {
        let cfg = config();
        let mut mc = MemoryController::new(&cfg, 0);
        let addr = 0x8040;
        let bank = mc.bank_of(addr);
        assert!(!mc.has_pending_write_to_bank(bank));
        mc.try_enqueue(MemRequest::write(1, addr, 0), 0).unwrap();
        assert!(mc.has_pending_write_to_bank(bank));
    }

    #[test]
    fn energy_grows_with_activity() {
        let cfg = config();
        let mut mc = MemoryController::new(&cfg, 0);
        for i in 0..16u64 {
            mc.try_enqueue(MemRequest::read(i, i * 4096, 0), 0).unwrap();
        }
        let mut done = Vec::new();
        for cycle in 0..20_000 {
            mc.tick(cycle);
            mc.drain_completed(cycle, &mut done);
        }
        assert_eq!(done.len(), 16);
        assert!(mc.energy().total_pj() > 0.0);
        assert!(mc.stats().merged.reads == 16);
    }
}

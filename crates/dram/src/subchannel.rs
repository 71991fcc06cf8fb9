//! A DDR5 sub-channel: 32 banks behind an independent 32-bit data bus, with
//! its own read queue, write queue and command scheduler.
//!
//! The scheduler implements FR-FCFS with read priority (Table II): reads are
//! serviced with first-ready, first-come-first-served priority; writes are
//! buffered in the write queue and drained in episodes controlled by the
//! high/low watermarks. During a drain the scheduler greedily issues the
//! lowest-latency write available, which is the baseline behaviour the paper
//! assumes ("the memory controller tries to issue lower latency writes from
//! the WRQ").
//!
//! ## One table pass per command
//!
//! Each queue has a **slot table**, two dense arrays kept in lockstep with
//! it (push at enqueue, remove at issue): per request, a *key* packing its
//! next command class (column, activate or precharge) with the first cycle
//! its bank's own state allows that command, and a *place*, its bank and
//! row. Each command costs one pass over the current bus mode's table. The
//! pass returns the **plan**: the smallest `(effective cycle, command class,
//! queue index)` over the queued requests, where a request's effective cycle
//! is the first cycle, from the one planned for, at which its next command
//! is legal under the frozen timing state: its key's cycle raised by the
//! pass's term for its class and bank group (the shared data bus, tRRD_S and
//! tFAW, the group's tCCD_L, tWTR_L or tRRD_L, and the planned-for cycle).
//! The plan is both the exact wake cycle and the command issued there:
//! requests ready together share that cycle, so class and then age pick
//! among them, as FR-FCFS's first-ready passes do. After an issue, the pass
//! from the next cycle stores the next plan, which its tick issues without
//! another pass; an enqueue offers its request to the plan in O(1). A
//! refresh, a bus-mode switch, a watermark crossing and a snapshot import
//! mark the plan stale (`wake_at = 0`), and the next tick replans.
//!
//! A key depends on its bank's state alone, so it goes stale only when that
//! bank changes: every mutation of a bank (a command issued to it, a
//! dead-row flag or close, a refresh) marks the bank in both tables' stale
//! masks, and a pass re-derives the stale keys of its table as it prices
//! them. A hit on a row flagged for auto-precharge is the one class priced
//! from bank state on every pass (see `DEAD_HIT`).
//!
//! ## Exact event-horizon sleeping
//!
//! Until the plan's cycle or the next refresh ([`SubChannel::next_wake`]) a
//! tick changes nothing at all — per-cycle statistics settle lazily,
//! span-wise, at the next state mutation ([`SubChannel::settle_stats`]) — so
//! ticks early-return and the system-level cycle-skipping engine may jump
//! over the whole span in one step. Unlike the heuristic sleep this
//! replaces, a command unblocked by a timing expiry (tFAW, tRC, tRAS, ...)
//! issues on exactly the cycle the constraint expires.
//!
//! ## Self-timed dead-row closes
//!
//! A dead row (an open row the adaptive open-page policy flags for
//! auto-precharge) closes at exactly its `pre_ok_at`, with no tick of its
//! own and outside the wake horizon. Every reader — [`SubChannel::settle_stats`],
//! [`SubChannel::reset_stats`] and each awake tick — first applies the
//! closes due before its cycle, each at its own cycle, and the plan prices
//! the pending ones.

use std::collections::VecDeque;

use crate::address::AddressMapping;
use crate::bank::BankState;
use crate::config::{DramConfig, PagePolicy};
use crate::request::{CompletedRead, EnqueueError, MemRequest, RequestKind};
use crate::stats::{DrainEpisodeStats, SubChannelStats};
use crate::timing::TimingParams;

/// Direction of the (simplex) data bus.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BusMode {
    /// Servicing reads (default).
    Read,
    /// Draining the write queue.
    WriteDrain,
}

/// Row-buffer outcome of a request, classified when its first command issues.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum RowOutcome {
    Hit,
    Miss,
    Conflict,
}

/// Command class, in FR-FCFS priority order: at equal effective cycles a
/// column command beats an activate, which beats a precharge.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Command {
    Column,
    Activate,
    Precharge,
}

/// The next command to issue from the current bus mode's queue. Fields are
/// in comparison order, so the derived `Ord` picks the earliest effective
/// cycle, then the higher-priority class, then the oldest request.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct Plan {
    at: u64,
    command: Command,
    idx: usize,
}

impl Plan {
    /// The plan to issue a priced key's command (see [`key`]) for the
    /// request at queue index `idx`.
    fn of(key: u64, idx: usize) -> Self {
        let command = match key >> 6 & 3 {
            0 => Command::Column,
            1 => Command::Activate,
            2 => Command::Precharge,
            _ => unreachable!("a priced key has a command class"),
        };
        Plan { at: key >> 8, command, idx }
    }
}

/// The plan of an empty queue: nothing to issue, ever.
const NO_PLAN: Plan = Plan { at: u64::MAX, command: Command::Precharge, idx: usize::MAX };

/// Packs a planning key: `at << 8 | class << 6 | bank`, where `class` is a
/// [`Command`] discriminant or [`DEAD_HIT`] and `bank` is a bank of the
/// sub-channel (0 in a term). With the bank bits masked off, keys compare
/// as `(cycle, class)` pairs, and the larger of a slot's key and a term of
/// its class carries the later of their cycles.
const fn key(at: u64, class: u64, bank: u64) -> u64 {
    debug_assert!(at < 1 << 56, "a planned cycle must fit a key");
    at << 8 | class << 6 | bank
}

/// The bank bits of a planning key or a place.
const BANK_BITS: u64 = 63;

/// The key class of a request that hits a dead row (an open row flagged for
/// auto-precharge): a column command when it can issue before the close,
/// else an activate after it. The answer depends on the planned-for cycle,
/// so it is priced from bank state at each pass; under the adaptive
/// open-page policy it is rare.
const DEAD_HIT: u64 = 3;

/// The planning table of one queue: a key and a place per queued request,
/// in queue order, so an entry's index is its request's queue index.
#[derive(Debug, Clone, Default)]
struct SlotTable {
    /// Per request, its next command and the first cycle its bank's own
    /// state allows it (see [`key`]); a `DEAD_HIT` key has cycle 0.
    keys: Vec<u64>,
    /// Per request, its row and bank: `row << 8 | bank`.
    places: Vec<u64>,
    /// Bit per bank whose keys may be out of date.
    stale: u64,
}

impl SlotTable {
    fn with_capacity(capacity: usize) -> Self {
        Self { keys: Vec::with_capacity(capacity), places: Vec::with_capacity(capacity), stale: 0 }
    }

    fn push(&mut self, (key, place): (u64, u64)) {
        self.keys.push(key);
        self.places.push(place);
    }

    /// Removes the entry at `idx` and returns its place.
    fn remove(&mut self, idx: usize) -> u64 {
        self.keys.remove(idx);
        self.places.remove(idx)
    }
}

#[derive(Debug, Clone)]
struct QueuedRequest {
    req: MemRequest,
    outcome: Option<RowOutcome>,
    /// Strictly increasing arrival stamp; the queues stay sorted by it
    /// (enqueue appends, issue removes). Carried in snapshot images.
    order: u64,
}

/// Plain-data image of one queued request (snapshot support). The decoded
/// DRAM coordinates are *not* stored — they are a pure function of the
/// address and are re-derived from the controller's mapping on import.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QueuedRequestState {
    /// Requester-assigned identifier.
    pub id: u64,
    /// True for a write-back, false for a read.
    pub write: bool,
    /// Physical address of the line.
    pub addr: u64,
    /// Core that generated the request.
    pub core: u64,
    /// Cycle the request entered the queue.
    pub enqueue_cycle: u64,
    /// Row-buffer outcome classification: 0 = unclassified, 1 = hit,
    /// 2 = miss, 3 = conflict.
    pub outcome: u8,
    /// FR-FCFS arrival stamp.
    pub order: u64,
}

/// Plain-data image of a sub-channel (snapshot support). Holds only the
/// *semantic* state: the per-bank pending-write counts and mask, the
/// dead-row mask, the slot tables, the cached earliest-ready stamp, the plan
/// and the wake horizon are all derived structures and are rebuilt on import
/// (`wake_at` restores to 0, which forces a planning pass on the next tick;
/// the pass is exact, so restored runs stay bitwise-identical to
/// straightline runs).
#[derive(Debug, Clone, PartialEq)]
pub struct SubChannelState {
    /// Queued reads, oldest first.
    pub reads: Vec<QueuedRequestState>,
    /// Queued write-backs, oldest first.
    pub writes: Vec<QueuedRequestState>,
    /// Next FR-FCFS arrival stamp.
    pub next_order: u64,
    /// Per-bank row and timing state.
    pub banks: Vec<BankState>,
    /// Per-bank-group earliest read-CAS cycles.
    pub bg_rd_ok: Vec<u64>,
    /// Per-bank-group earliest write-CAS cycles.
    pub bg_wr_ok: Vec<u64>,
    /// Per-bank-group earliest ACT cycles.
    pub bg_act_ok: Vec<u64>,
    /// Sub-channel earliest read-CAS cycle.
    pub sub_rd_ok: u64,
    /// Sub-channel earliest write-CAS cycle.
    pub sub_wr_ok: u64,
    /// Sub-channel earliest ACT cycle.
    pub sub_act_ok: u64,
    /// ACT issue cycles inside the rolling four-activate window.
    pub faw_window: Vec<u64>,
    /// True when the bus is in write-drain mode.
    pub write_drain: bool,
    /// Banks written during the in-progress drain episode (bitmap).
    pub episode_banks: u64,
    /// Writes issued during the in-progress drain episode.
    pub episode_writes: u64,
    /// Cycle the in-progress drain episode started.
    pub episode_start: u64,
    /// Sum of write-to-write gaps in the in-progress episode.
    pub episode_gap_sum: u64,
    /// Number of write-to-write gaps in the in-progress episode.
    pub episode_gaps: u64,
    /// Cycle of the episode's most recent write issue.
    pub last_write_issue: Option<u64>,
    /// Absolute cycle of the next refresh.
    pub next_refresh_at: u64,
    /// Completed reads not yet drained by the requester.
    pub completed: Vec<CompletedRead>,
    /// Accumulated statistics (settled through `settled_to`).
    pub stats: SubChannelStats,
    /// Cycle (exclusive) through which per-cycle statistics are settled.
    pub settled_to: u64,
}

/// One DDR5 sub-channel with its queues, banks and scheduler.
#[derive(Debug, Clone)]
pub struct SubChannel {
    timing: TimingParams, // bard-lint: allow(S1) -- config parameters fixed at construction
    page_policy: PagePolicy, // bard-lint: allow(S1) -- config knob fixed at construction
    ideal_writes: bool,   // bard-lint: allow(S1) -- config knob fixed at construction
    refresh_enabled: bool, // bard-lint: allow(S1) -- config knob fixed at construction
    banks_per_group: usize,
    read_capacity: usize,
    write_capacity: usize,
    low_watermark: usize, // bard-lint: allow(S1) -- config watermark fixed at construction
    high_watermark: usize, // bard-lint: allow(S1) -- config watermark fixed at construction

    read_q: VecDeque<QueuedRequest>,
    write_q: VecDeque<QueuedRequest>,
    /// Slot tables of the read (`[0]`) and write (`[1]`) queues, entry for
    /// entry. Every mutation of a bank's state marks the bank stale in both,
    /// and a planning pass re-derives the stale keys of its table. Derived
    /// state: rebuilt from the queues and bank state on import, so snapshot
    /// images do not carry it.
    tables: [SlotTable; 2],
    /// Per bank group, the class terms of the latest planning pass (see
    /// [`SubChannel::group_terms`]).
    // bard-lint: allow(S1) -- scratch buffer, refilled by every planning pass.
    terms: Vec<[u64; 4]>,
    /// Arrival stamp for the next enqueued request.
    next_order: u64,
    /// Queued writes per bank, kept in step with `write_q` so the BLP
    /// oracle's [`SubChannel::pending_write_banks`] query is O(1).
    write_counts: Vec<u32>,
    /// Bit per bank with a nonzero `write_counts` entry.
    write_mask: u64,
    /// Bit per bank flagged for auto-precharge (a dead row not yet closed).
    dead_mask: u64,
    banks: Vec<BankState>,
    bg_rd_ok: Vec<u64>,
    bg_wr_ok: Vec<u64>,
    bg_act_ok: Vec<u64>,
    sub_rd_ok: u64,
    sub_wr_ok: u64,
    sub_act_ok: u64,
    faw_window: VecDeque<u64>,

    mode: BusMode,
    episode_banks: u64,
    episode_writes: u64,
    episode_start: u64,
    episode_gap_sum: u64,
    episode_gaps: u64,
    last_write_issue: Option<u64>,

    next_refresh_at: u64,
    completed: Vec<CompletedRead>,
    /// Cached minimum `ready_cycle` over `completed` (`u64::MAX` when
    /// empty), so per-tick drains are O(1) until data is actually ready.
    earliest_ready: u64,
    stats: SubChannelStats,
    /// Cycle (exclusive) through which the per-cycle statistics — total,
    /// write-mode and busy cycles — have been settled. They are accounted
    /// span-wise: every mutation of their inputs (queue contents, bus mode)
    /// settles the elapsed span against the *pre-mutation* state first, so
    /// quiet and skipped spans cost O(1) instead of one update per tick.
    settled_to: u64,
    /// Count of non-empty statistic settlements (perf counter, flushed to
    /// the `dram.stat_settlements` telemetry metric). Not part of
    /// [`SubChannelStats`].
    // bard-lint: allow(S1) -- perf-observability counter, never compared or restored.
    settle_events: u64,
    /// Ticks at or after the wake cycle, which ran the scheduler (perf
    /// counter, like `settle_events`).
    // bard-lint: allow(S1) -- perf-observability counter, never compared or restored.
    awake_ticks: u64,
    /// Planning passes for the next command (perf counter, like
    /// `settle_events`).
    // bard-lint: allow(S1) -- perf-observability counter, never compared or restored.
    scheduling_passes: u64,
    /// When true, every finished drain episode is appended to
    /// [`SubChannel::episode_log`] for the telemetry tracer. Off by default;
    /// recording changes no simulation state, only this side log.
    // bard-lint: allow(S1) -- tracer switch, re-armed by the driver after any restore.
    record_episodes: bool,
    /// Completed drain episodes captured while `record_episodes` is set,
    /// capped at [`EPISODE_LOG_CAP`]. Not simulation state: excluded from
    /// snapshot images and never compared.
    // bard-lint: allow(S1) -- telemetry side log, see the doc note: excluded by design.
    episode_log: Vec<DrainEpisodeStats>,
    /// The next command to issue, valid while `wake_at` is nonzero.
    plan: Plan,
    /// Exact next cycle at which this sub-channel can do anything: the
    /// plan's cycle or the next refresh, whichever is first. Ticks before
    /// this cycle return at once. 0 marks the plan stale, so the next tick
    /// replans.
    wake_at: u64,
}

/// Upper bound on [`SubChannel::episode_log`] entries per sub-channel, so a
/// pathological drain-thrashing run cannot grow telemetry memory unboundedly.
/// At the cap new episodes are dropped silently (aggregate stats still count
/// them).
const EPISODE_LOG_CAP: usize = 65_536;

impl SubChannel {
    /// Creates a sub-channel from the DRAM configuration. Timing parameters
    /// are converted to CPU cycles here.
    #[must_use]
    pub fn new(config: &DramConfig) -> Self {
        let timing = config.timing.to_cpu_cycles();
        let banks = config.banks_per_subchannel();
        assert!(banks as u64 <= BANK_BITS + 1, "bank masks and planning keys hold 64 banks");
        Self {
            next_refresh_at: timing.t_refi,
            timing,
            page_policy: config.page_policy,
            ideal_writes: config.ideal_writes,
            refresh_enabled: config.refresh_enabled,
            banks_per_group: config.banks_per_group,

            read_capacity: config.read_queue_entries,
            write_capacity: config.write_queue_entries,
            low_watermark: config.write_low_watermark,
            high_watermark: config.write_high_watermark,
            read_q: VecDeque::with_capacity(config.read_queue_entries),
            write_q: VecDeque::with_capacity(config.write_queue_entries),
            tables: [
                SlotTable::with_capacity(config.read_queue_entries),
                SlotTable::with_capacity(config.write_queue_entries),
            ],
            terms: vec![[0; 4]; config.bankgroups],
            next_order: 0,
            write_counts: vec![0; banks],
            write_mask: 0,
            dead_mask: 0,
            banks: vec![BankState::new(); banks],
            bg_rd_ok: vec![0; config.bankgroups],
            bg_wr_ok: vec![0; config.bankgroups],
            bg_act_ok: vec![0; config.bankgroups],
            sub_rd_ok: 0,
            sub_wr_ok: 0,
            sub_act_ok: 0,
            faw_window: VecDeque::with_capacity(4),
            mode: BusMode::Read,
            episode_banks: 0,
            episode_writes: 0,
            episode_start: 0,
            episode_gap_sum: 0,
            episode_gaps: 0,
            last_write_issue: None,
            completed: Vec::new(),
            earliest_ready: u64::MAX,
            stats: SubChannelStats::default(),
            settled_to: 0,
            settle_events: 0,
            awake_ticks: 0,
            scheduling_passes: 0,
            record_episodes: false,
            episode_log: Vec::new(),
            plan: NO_PLAN,
            wake_at: 0,
        }
    }

    /// Current bus mode.
    #[must_use]
    pub fn mode(&self) -> BusMode {
        self.mode
    }

    /// Number of queued reads.
    #[must_use]
    pub fn read_queue_len(&self) -> usize {
        self.read_q.len()
    }

    /// Number of queued writes.
    #[must_use]
    pub fn write_queue_len(&self) -> usize {
        self.write_q.len()
    }

    /// True if a read can currently be accepted.
    #[must_use]
    pub fn can_accept_read(&self) -> bool {
        self.read_q.len() < self.read_capacity
    }

    /// True if a write can currently be accepted.
    #[must_use]
    pub fn can_accept_write(&self) -> bool {
        self.write_q.len() < self.write_capacity
    }

    /// Accumulated statistics.
    #[must_use]
    pub fn stats(&self) -> &SubChannelStats {
        &self.stats
    }

    /// Turns per-episode drain logging on or off (telemetry tracer input).
    /// Recording is a pure side log: it never changes scheduling decisions,
    /// statistics, or snapshot images.
    pub fn set_episode_recording(&mut self, on: bool) {
        self.record_episodes = on;
        if !on {
            self.episode_log.clear();
        }
    }

    /// Drains the recorded drain-episode log (empty unless
    /// [`SubChannel::set_episode_recording`] enabled it).
    pub fn take_episode_log(&mut self) -> Vec<DrainEpisodeStats> {
        std::mem::take(&mut self.episode_log)
    }

    /// Clears all statistics (used at the end of warm-up). Microarchitectural
    /// state (queues, bank state, bus mode) is preserved; the cycle counter
    /// restarts from the next tick. Dead rows due to close before `now`
    /// close first, so their precharges count before the reset.
    pub fn reset_stats(&mut self, now: u64) {
        self.close_dead_rows(now);
        self.stats = SubChannelStats::default();
        self.settled_to = now;
        // Restart any in-progress episode accounting so it is attributed to
        // the measurement window only.
        self.episode_start = now;
        self.episode_banks = 0;
        self.episode_writes = 0;
        self.episode_gap_sum = 0;
        self.episode_gaps = 0;
        self.last_write_issue = None;
    }

    /// Bitmap (bit per bank within the sub-channel) of banks with at least one
    /// pending write in the write queue. Used by the "oracle" BLP tracker and
    /// by the accuracy analysis of Section VII-I. The mask is maintained as
    /// writes enter and leave the queue, so the query is O(1).
    #[must_use]
    pub fn pending_write_banks(&self) -> u64 {
        self.write_mask
    }

    /// Counts a write entering `write_q` against its bank.
    fn count_write(&mut self, bank: usize) {
        self.write_counts[bank] += 1;
        self.write_mask |= 1u64 << bank;
    }

    /// Releases a write leaving `write_q` from its bank's count.
    fn uncount_write(&mut self, bank: usize) {
        self.write_counts[bank] -= 1;
        if self.write_counts[bank] == 0 {
            self.write_mask &= !(1u64 << bank);
        }
    }

    /// Enqueues a read request.
    ///
    /// # Errors
    ///
    /// Returns [`EnqueueError::ReadQueueFull`] if the read queue is full.
    pub fn enqueue_read(&mut self, mut req: MemRequest, now: u64) -> Result<(), EnqueueError> {
        if !self.can_accept_read() {
            return Err(EnqueueError::ReadQueueFull);
        }
        // The queue-emptiness statistics input changes below: settle the
        // elapsed span (through this cycle) against the pre-enqueue state.
        self.settle_stats(now + 1);
        req.enqueue_cycle = now;
        let order = self.next_order;
        self.next_order += 1;
        let slot = self.slot_of(&req);
        // A read is schedulable in read mode only.
        if self.mode == BusMode::Read {
            self.offer(Plan::of(self.price_from(slot.0, false, now + 1), self.read_q.len()));
        }
        self.read_q.push_back(QueuedRequest { req, outcome: None, order });
        self.tables[0].push(slot);
        Ok(())
    }

    /// Enqueues a write-back.
    ///
    /// # Errors
    ///
    /// Returns [`EnqueueError::WriteQueueFull`] if the write queue is full; the
    /// caller should retry on a later cycle (this back-pressure is what forces
    /// the LLC to stall fills when DRAM cannot keep up with writes).
    pub fn enqueue_write(&mut self, mut req: MemRequest, now: u64) -> Result<(), EnqueueError> {
        if !self.can_accept_write() {
            self.stats.write_queue_full_events += 1;
            return Err(EnqueueError::WriteQueueFull);
        }
        self.settle_stats(now + 1);
        req.enqueue_cycle = now;
        let order = self.next_order;
        self.next_order += 1;
        self.count_write(self.bank_index(&req));
        let slot = self.slot_of(&req);
        self.write_q.push_back(QueuedRequest { req, outcome: None, order });
        self.tables[1].push(slot);
        match self.mode {
            BusMode::Read => {
                // A buffered write can do nothing until a drain starts; that
                // happens exactly when this enqueue reaches the high
                // watermark, which needs a real tick to switch modes.
                if self.write_q.len() >= self.high_watermark {
                    self.wake_at = 0;
                }
            }
            BusMode::WriteDrain => {
                let idx = self.write_q.len() - 1;
                let plan = if self.ideal_writes {
                    Plan { at: self.sub_wr_ok.max(now + 1), command: Command::Column, idx }
                } else {
                    Plan::of(self.price_from(slot.0, true, now + 1), idx)
                };
                self.offer(plan);
            }
        }
        Ok(())
    }

    /// Offers a newly queued request's plan. An enqueue changes nothing but
    /// the candidate set, so the stored plan stays the exact minimum; the
    /// newcomer is the youngest, so it loses every full tie. A stale plan
    /// (`wake_at == 0`) is left to the next tick's planning pass.
    fn offer(&mut self, plan: Plan) {
        if self.wake_at != 0 && plan < self.plan {
            self.plan = plan;
            self.wake_at = self.wake_at.min(plan.at);
        }
    }

    /// Counts `n` write enqueues refused by the full write queue without
    /// attempting them: a cycle-skipping caller's account of the retries a
    /// jumped span would have made, each refused identically while the
    /// queue state is frozen.
    pub fn note_refused_writes(&mut self, n: u64) {
        self.stats.write_queue_full_events += n;
    }

    /// The key and place of `req` in a slot table, derived from the current
    /// bank state.
    fn slot_of(&self, req: &MemRequest) -> (u64, u64) {
        let bank = req.decoded.bank_in_subchannel(self.banks_per_group) as u64;
        let place = req.decoded.row << 8 | bank;
        (self.derive(place), place)
    }

    /// Derives the key of a request at `place` from its bank's state alone.
    /// A pending dead-row close is priced in: a request that misses a
    /// flagged row waits for the activate after the close, and one that
    /// hits it is a `DEAD_HIT`.
    fn derive(&self, place: u64) -> u64 {
        let bank = place & BANK_BITS;
        let b = &self.banks[bank as usize];
        let (at, class) = match b.open_row {
            Some(open) if open == place >> 8 => {
                if b.auto_precharge {
                    (0, DEAD_HIT)
                } else {
                    (b.cas_ok_at, Command::Column as u64)
                }
            }
            Some(_) if !b.auto_precharge => (b.pre_ok_at, Command::Precharge as u64),
            _ => (self.activate_local(b), Command::Activate as u64),
        };
        key(at, class, bank)
    }

    /// First cycle bank `b` allows an activate: after tRP, and after the
    /// close of its open row, which is a flagged dead row whenever an
    /// activate is the next command.
    fn activate_local(&self, b: &BankState) -> u64 {
        let closed_at = if b.open_row.is_some() { b.pre_ok_at + self.timing.t_rp } else { 0 };
        b.act_ok_at.max(closed_at)
    }

    /// The sub-channel terms of a pass over the read or write table from
    /// cycle `from`: the first cycle the shared data bus allows a column
    /// command, and the rank-wide activate limits (tRRD_S, tFAW) an
    /// activate.
    fn sub_terms(&self, write: bool, from: u64) -> (u64, u64) {
        let sub_cas = if write { self.sub_wr_ok } else { self.sub_rd_ok };
        (sub_cas.max(from), self.sub_act_ok.max(self.faw_expiry()).max(from))
    }

    /// The terms of one bank group, as keys indexed by class: the pass's
    /// sub-channel terms (see [`SubChannel::sub_terms`]) raised by the
    /// group's own spacing (tCCD_L, tWTR_L, tRRD_L), `group_cas` and
    /// `group_act`, and the pass's cycle for a precharge. The `DEAD_HIT`
    /// entry is never read.
    fn group_terms(sub: (u64, u64), from: u64, group_cas: u64, group_act: u64) -> [u64; 4] {
        [
            key(sub.0.max(group_cas), Command::Column as u64, 0),
            key(sub.1.max(group_act), Command::Activate as u64, 0),
            key(from, Command::Precharge as u64, 0),
            u64::MAX,
        ]
    }

    /// The planning key of a slot's key `k` in a pass whose terms for its
    /// bank group are `terms`, bank bits cleared: its next command at the
    /// first cycle that command is legal under the frozen timing state.
    #[inline]
    fn price(&self, k: u64, terms: &[u64; 4]) -> u64 {
        let class = k >> 6 & 3;
        if class == DEAD_HIT {
            return self.price_dead_hit(k & BANK_BITS, terms);
        }
        k.max(terms[class as usize]) & !BANK_BITS
    }

    /// Prices a dead-row hit on `bank`: a column command when that command,
    /// clamped to the pass's cycle, can issue before the close; otherwise
    /// the activate after the close.
    #[cold]
    fn price_dead_hit(&self, bank: u64, terms: &[u64; 4]) -> u64 {
        let b = &self.banks[bank as usize];
        let column = terms[0].max(key(b.cas_ok_at, Command::Column as u64, 0));
        if column >> 8 < b.pre_ok_at {
            column
        } else {
            terms[1].max(key(self.activate_local(b), Command::Activate as u64, 0))
        }
    }

    /// The planning key of one slot key `k` of the read or write table from
    /// cycle `from` (an enqueue's offer).
    fn price_from(&self, k: u64, write: bool, from: u64) -> u64 {
        let bg = (k & BANK_BITS) as usize / self.banks_per_group;
        let group_cas = if write { self.bg_wr_ok[bg] } else { self.bg_rd_ok[bg] };
        let sub = self.sub_terms(write, from);
        self.price(k, &Self::group_terms(sub, from, group_cas, self.bg_act_ok[bg]))
    }

    /// Both slot tables built afresh from the queues and bank state, with
    /// no bank stale.
    fn fresh_tables(&self) -> [SlotTable; 2] {
        [(&self.read_q, self.read_capacity), (&self.write_q, self.write_capacity)].map(
            |(queue, capacity)| {
                let mut table = SlotTable::with_capacity(capacity);
                for q in queue {
                    table.push(self.slot_of(&q.req));
                }
                table
            },
        )
    }

    /// Marks `banks` (a bitmap) stale in both slot tables.
    fn mark_stale(&mut self, banks: u64) {
        self.tables[0].stale |= banks;
        self.tables[1].stale |= banks;
    }

    /// Moves reads whose data is available by `now` into `out`.
    pub fn drain_completed(&mut self, now: u64, out: &mut Vec<CompletedRead>) {
        if now < self.earliest_ready {
            return;
        }
        let mut i = 0;
        let mut earliest = u64::MAX;
        while i < self.completed.len() {
            if self.completed[i].ready_cycle <= now {
                out.push(self.completed.swap_remove(i));
            } else {
                earliest = earliest.min(self.completed[i].ready_cycle);
                i += 1;
            }
        }
        self.earliest_ready = earliest;
    }

    /// Settles the per-cycle statistics (total, write-mode and busy cycles)
    /// through cycle `up_to` (exclusive) against the *current* queue and bus
    /// state. Called internally before every mutation of those inputs —
    /// enqueues, issues and drain-mode flips — which makes the span-wise
    /// accounting exact: between two mutations the state is constant by
    /// construction, so `span * current_state` equals what per-tick updates
    /// would have accumulated. It first applies the dead-row closes due
    /// before `up_to`, each at its own cycle, so bank state and
    /// `precharges` read exactly as at `up_to`. Callers reading
    /// [`SubChannel::stats`] outside the simulation loop must settle to
    /// their read cycle first.
    pub fn settle_stats(&mut self, up_to: u64) {
        self.close_dead_rows(up_to);
        let span = up_to.saturating_sub(self.settled_to);
        if span == 0 {
            return;
        }
        self.settle_events += 1;
        self.stats.cycles += span;
        if self.mode == BusMode::WriteDrain {
            self.stats.write_mode_cycles += span;
        }
        if !self.read_q.is_empty() || !self.write_q.is_empty() {
            self.stats.busy_cycles += span;
        }
        self.settled_to = up_to;
    }

    /// Number of non-empty [`SubChannel::settle_stats`] spans so far (perf
    /// counter: each one replaced `span` per-tick statistic updates).
    #[must_use]
    pub fn settle_events(&self) -> u64 {
        self.settle_events
    }

    /// Number of ticks at or after the wake cycle, which ran the scheduler
    /// (perf counter).
    #[must_use]
    pub fn awake_ticks(&self) -> u64 {
        self.awake_ticks
    }

    /// Number of planning passes over a slot table for the next command
    /// (perf counter): about one per issued command.
    #[must_use]
    pub fn scheduling_passes(&self) -> u64 {
        self.scheduling_passes
    }

    /// Exports the sub-channel's semantic state (snapshot support). Callers
    /// must [`SubChannel::settle_stats`] to the capture cycle first so the
    /// exported statistics and the due dead-row closes are exact.
    #[must_use]
    pub fn export_state(&self) -> SubChannelState {
        let snap = |q: &VecDeque<QueuedRequest>| -> Vec<QueuedRequestState> {
            q.iter()
                .map(|e| QueuedRequestState {
                    id: e.req.id,
                    write: e.req.is_write(),
                    addr: e.req.addr,
                    core: e.req.core as u64,
                    enqueue_cycle: e.req.enqueue_cycle,
                    outcome: match e.outcome {
                        None => 0,
                        Some(RowOutcome::Hit) => 1,
                        Some(RowOutcome::Miss) => 2,
                        Some(RowOutcome::Conflict) => 3,
                    },
                    order: e.order,
                })
                .collect()
        };
        SubChannelState {
            reads: snap(&self.read_q),
            writes: snap(&self.write_q),
            next_order: self.next_order,
            banks: self.banks.clone(),
            bg_rd_ok: self.bg_rd_ok.clone(),
            bg_wr_ok: self.bg_wr_ok.clone(),
            bg_act_ok: self.bg_act_ok.clone(),
            sub_rd_ok: self.sub_rd_ok,
            sub_wr_ok: self.sub_wr_ok,
            sub_act_ok: self.sub_act_ok,
            faw_window: self.faw_window.iter().copied().collect(),
            write_drain: self.mode == BusMode::WriteDrain,
            episode_banks: self.episode_banks,
            episode_writes: self.episode_writes,
            episode_start: self.episode_start,
            episode_gap_sum: self.episode_gap_sum,
            episode_gaps: self.episode_gaps,
            last_write_issue: self.last_write_issue,
            next_refresh_at: self.next_refresh_at,
            completed: self.completed.clone(),
            stats: self.stats.clone(),
            settled_to: self.settled_to,
        }
    }

    /// Replaces the sub-channel's state with `state` (snapshot support),
    /// re-deriving every derived structure: decoded addresses via `mapping`,
    /// the per-bank pending-write counts from the rebuilt write queue, the
    /// dead-row mask from the banks' auto-precharge flags, the slot tables
    /// from the queues and bank state, the earliest-ready cache from the
    /// completed-read buffer, and a stale plan (a zero wake horizon: replan
    /// on the next tick).
    ///
    /// # Panics
    ///
    /// Panics when `state` was exported from a sub-channel of a different
    /// geometry — restores are gated by snapshot digests, so a mismatch is
    /// a programming error.
    pub fn import_state(&mut self, state: &SubChannelState, mapping: &AddressMapping) {
        assert_eq!(state.banks.len(), self.banks.len(), "sub-channel bank count mismatch");
        assert_eq!(state.bg_rd_ok.len(), self.bg_rd_ok.len(), "sub-channel bank-group mismatch");
        assert!(state.reads.len() <= self.read_capacity, "read queue image over capacity");
        assert!(state.writes.len() <= self.write_capacity, "write queue image over capacity");

        let rebuild = |entries: &[QueuedRequestState]| -> VecDeque<QueuedRequest> {
            entries
                .iter()
                .map(|e| {
                    let kind = if e.write { RequestKind::Write } else { RequestKind::Read };
                    let mut req = MemRequest::new(e.id, kind, e.addr, e.core as usize);
                    req.enqueue_cycle = e.enqueue_cycle;
                    req.decoded = mapping.decode(e.addr);
                    let outcome = match e.outcome {
                        0 => None,
                        1 => Some(RowOutcome::Hit),
                        2 => Some(RowOutcome::Miss),
                        3 => Some(RowOutcome::Conflict),
                        other => panic!("invalid row-outcome code {other}"),
                    };
                    QueuedRequest { req, outcome, order: e.order }
                })
                .collect()
        };
        self.read_q = rebuild(&state.reads);
        self.write_q = rebuild(&state.writes);
        self.next_order = state.next_order;
        self.banks.clone_from(&state.banks);
        self.bg_rd_ok.clone_from(&state.bg_rd_ok);
        self.bg_wr_ok.clone_from(&state.bg_wr_ok);
        self.bg_act_ok.clone_from(&state.bg_act_ok);
        self.sub_rd_ok = state.sub_rd_ok;
        self.sub_wr_ok = state.sub_wr_ok;
        self.sub_act_ok = state.sub_act_ok;
        self.faw_window = state.faw_window.iter().copied().collect();
        self.mode = if state.write_drain { BusMode::WriteDrain } else { BusMode::Read };
        self.episode_banks = state.episode_banks;
        self.episode_writes = state.episode_writes;
        self.episode_start = state.episode_start;
        self.episode_gap_sum = state.episode_gap_sum;
        self.episode_gaps = state.episode_gaps;
        self.last_write_issue = state.last_write_issue;
        self.next_refresh_at = state.next_refresh_at;
        self.completed.clone_from(&state.completed);
        self.stats = state.stats.clone();
        self.settled_to = state.settled_to;

        // Derived structures.
        self.earliest_ready =
            self.completed.iter().map(|c| c.ready_cycle).min().unwrap_or(u64::MAX);
        self.write_counts.fill(0);
        self.write_mask = 0;
        for q in &self.write_q {
            let bank = q.req.decoded.bank_in_subchannel(self.banks_per_group);
            self.write_counts[bank] += 1;
            self.write_mask |= 1u64 << bank;
        }
        self.dead_mask = (0..self.banks.len())
            .filter(|&bank| self.banks[bank].auto_precharge)
            .fold(0, |mask, bank| mask | 1u64 << bank);
        self.tables = self.fresh_tables();
        self.plan = NO_PLAN;
        self.wake_at = 0;
    }

    /// Advances the sub-channel by one CPU cycle. Returns `true` if a command
    /// issued, a refresh ran or the bus switched mode; a `false` tick issued
    /// nothing, and every tick until [`SubChannel::next_wake`] will be
    /// equally inert (absent an enqueue). Dead-row closes do not count: they
    /// are self-timed (see the module docs). Per-cycle statistics are *not*
    /// touched here; they settle lazily at the next state mutation (see
    /// [`SubChannel::settle_stats`]).
    pub fn tick(&mut self, now: u64) -> bool {
        if now < self.wake_at {
            return false;
        }
        self.awake_ticks += 1;
        // Dead rows due before this cycle have closed at their own cycles;
        // those due now close after the refresh and the mode update.
        self.close_dead_rows(now);
        let mut active = false;
        if self.refresh_enabled && now >= self.next_refresh_at {
            self.perform_refresh(now);
            active = true;
        }
        let mode_before = self.mode;
        self.update_mode(now);
        active |= self.mode != mode_before;
        self.close_dead_rows(now + 1);

        // A stale plan, or one whose cycle the caller skipped, is replanned.
        if self.wake_at == 0 || self.plan.at < now {
            self.plan = self.plan_from(now);
        }
        if self.plan.at != now {
            self.wake_at = self.horizon();
            return active;
        }
        self.issue(now);
        // Only an issue shrinks the write queue, so a drain that reached the
        // low watermark needs a real tick next cycle to switch the bus back.
        // Otherwise the post-issue timing state is final until the next
        // enqueue, so the next command is planned now.
        if self.mode == BusMode::WriteDrain && self.write_q.len() <= self.low_watermark {
            self.wake_at = 0;
        } else {
            self.plan = self.plan_from(now + 1);
            self.wake_at = self.horizon();
        }
        true
    }

    /// The exact next cycle at which this sub-channel can change state
    /// without an intervening enqueue: the planned command's cycle or the
    /// next refresh. Between the last tick and this cycle, ticks are pure
    /// no-ops. Read completions are tracked separately (see
    /// [`SubChannel::earliest_completion`]); dead-row closes are self-timed
    /// and not part of the horizon.
    #[must_use]
    pub fn next_wake(&self) -> u64 {
        self.wake_at
    }

    /// Earliest `ready_cycle` among completed reads not yet drained, or
    /// `u64::MAX` when none are buffered.
    #[must_use]
    pub fn earliest_completion(&self) -> u64 {
        self.earliest_ready
    }

    /// The wake horizon of the stored plan: its cycle or the next refresh.
    fn horizon(&self) -> u64 {
        let refresh = if self.refresh_enabled { self.next_refresh_at } else { u64::MAX };
        self.plan.at.min(refresh)
    }

    /// One pass over the current bus mode's slot table: the smallest
    /// `(effective cycle, command, queue index)` from cycle `from`, or
    /// [`NO_PLAN`] for an empty queue. Stale slots are re-derived first, so
    /// every slot equals its derivation from the current bank state. Timing
    /// state is frozen until the next issue, enqueue, refresh or mode switch,
    /// and pending dead-row closes are priced in, so the plan is exact.
    fn plan_from(&mut self, from: u64) -> Plan {
        self.scheduling_passes += 1;
        let write = self.mode == BusMode::WriteDrain;
        if write && self.ideal_writes {
            // Ideal writes (Figures 2 and 14): arrival order, one burst apart.
            if self.write_q.is_empty() {
                return NO_PLAN;
            }
            return Plan { at: self.sub_wr_ok.max(from), command: Command::Column, idx: 0 };
        }
        let sub = self.sub_terms(write, from);
        let group_cas = if write { &self.bg_wr_ok } else { &self.bg_rd_ok };
        for ((terms, &cas), &act) in self.terms.iter_mut().zip(group_cas).zip(&self.bg_act_ok) {
            *terms = Self::group_terms(sub, from, cas, act);
        }
        let group_shift = self.banks_per_group.trailing_zeros();
        let mut table = std::mem::take(&mut self.tables[usize::from(write)]);
        let (mut best, mut best_idx) = (u64::MAX, usize::MAX);
        for (idx, k) in table.keys.iter_mut().enumerate() {
            let bank = *k & BANK_BITS;
            if table.stale >> bank & 1 != 0 {
                *k = self.derive(table.places[idx]);
            }
            let key = self.price(*k, &self.terms[(bank >> group_shift) as usize]);
            if key < best {
                (best, best_idx) = (key, idx);
            }
        }
        table.stale = 0;
        self.tables[usize::from(write)] = table;
        if best_idx == usize::MAX {
            return NO_PLAN;
        }
        Plan::of(best, best_idx)
    }

    /// Earliest CPU cycle the oldest four-activate window constraint allows
    /// a fifth ACT (0 when fewer than four ACTs are in flight).
    fn faw_expiry(&self) -> u64 {
        if self.faw_window.len() < 4 {
            0
        } else {
            *self.faw_window.front().expect("len checked") + self.timing.t_faw
        }
    }

    fn update_mode(&mut self, now: u64) {
        match self.mode {
            BusMode::Read => {
                if self.write_q.len() >= self.high_watermark {
                    self.begin_drain(now);
                }
            }
            BusMode::WriteDrain => {
                if self.write_q.len() <= self.low_watermark {
                    self.end_drain(now);
                }
            }
        }
    }

    fn begin_drain(&mut self, now: u64) {
        // Settle the read-mode span (through this cycle) before the bus
        // mode — a write-mode-cycles input — flips.
        self.settle_stats(now + 1);
        self.mode = BusMode::WriteDrain;
        self.episode_banks = 0;
        self.episode_writes = 0;
        self.episode_start = now;
        self.episode_gap_sum = 0;
        self.episode_gaps = 0;
        self.last_write_issue = None;
        // Bus turnaround: the in-flight read data must finish before write
        // data can start.
        let turnaround = self.timing.read_to_write_turnaround();
        self.sub_wr_ok = self.sub_wr_ok.max(now + turnaround);
        self.wake_at = 0;
    }

    fn end_drain(&mut self, now: u64) {
        self.settle_stats(now + 1);
        self.mode = BusMode::Read;
        let unique = self.episode_banks.count_ones();
        if self.episode_writes > 0 {
            self.stats.drain_episodes += 1;
            self.stats.drain_writes += self.episode_writes;
            self.stats.drain_unique_banks += u64::from(unique);
            self.stats.drain_cycles += now.saturating_sub(self.episode_start);
            self.stats.write_to_write_gap_cycles += self.episode_gap_sum;
            self.stats.write_to_write_gaps += self.episode_gaps;
            if self.episode_gaps > 0 {
                let mean = self.episode_gap_sum as f64 / self.episode_gaps as f64;
                if mean > self.stats.max_episode_mean_gap_cycles {
                    self.stats.max_episode_mean_gap_cycles = mean;
                }
            }
            self.stats.last_episode = DrainEpisodeStats {
                start_cycle: self.episode_start,
                end_cycle: now,
                writes: self.episode_writes,
                unique_banks: unique,
            };
            if self.record_episodes && self.episode_log.len() < EPISODE_LOG_CAP {
                self.episode_log.push(self.stats.last_episode);
            }
        }
        // Write-to-read turnaround before reads may resume.
        let turnaround = self.timing.write_to_read_turnaround();
        self.sub_rd_ok = self.sub_rd_ok.max(now + turnaround);
        self.wake_at = 0;
    }

    fn perform_refresh(&mut self, now: u64) {
        self.stats.refreshes += 1;
        for bank in &mut self.banks {
            if bank.open_row.is_some() {
                self.stats.precharges += 1;
            }
            bank.open_row = None;
            bank.auto_precharge = false;
            bank.act_ok_at = bank.act_ok_at.max(now + self.timing.t_rfc);
            bank.cas_ok_at = bank.cas_ok_at.max(now + self.timing.t_rfc);
        }
        self.dead_mask = 0;
        self.mark_stale(u64::MAX);
        self.next_refresh_at = now + self.timing.t_refi;
        self.wake_at = 0;
    }

    /// Applies the auto-precharges of dead rows due before `up_to`, each at
    /// its own cycle (`pre_ok_at`, the cycle its precharge window opens). An
    /// auto-precharge rides on the preceding column command, so it takes no
    /// command slot.
    fn close_dead_rows(&mut self, up_to: u64) {
        let mut mask = self.dead_mask;
        while mask != 0 {
            let bank = mask.trailing_zeros() as usize;
            mask &= mask - 1;
            let b = &mut self.banks[bank];
            if b.pre_ok_at < up_to {
                b.precharge(b.pre_ok_at, self.timing.t_rp);
                self.stats.precharges += 1;
                self.dead_mask &= !(1u64 << bank);
                self.mark_stale(1u64 << bank);
            }
        }
    }

    /// Flags the row a column command just accessed as dead when the page
    /// policy closes it: always under the closed-page policy, and under the
    /// adaptive open-page policy when no other queued request targets it.
    fn flag_dead_row(&mut self, now: u64, place: u64, id: u64) {
        if self.page_policy == PagePolicy::Closed
            || (self.page_policy == PagePolicy::AdaptiveOpen
                && !self.another_request_to_row(place, id))
        {
            let bank = (place & BANK_BITS) as usize;
            // The close is self-timed at `pre_ok_at`, which every column
            // command pushes past its own cycle.
            debug_assert!(self.banks[bank].pre_ok_at > now, "a dead row must close after its CAS");
            self.banks[bank].auto_precharge = true;
            self.dead_mask |= 1u64 << bank;
            self.mark_stale(1u64 << bank);
        }
    }

    fn bank_index(&self, req: &MemRequest) -> usize {
        req.decoded.bank_in_subchannel(self.banks_per_group)
    }

    fn record_act(&mut self, now: u64) {
        if self.faw_window.len() == 4 {
            self.faw_window.pop_front();
        }
        self.faw_window.push_back(now);
    }

    /// Whether another queued request (read or write), one whose id is not
    /// `skip_id`, targets the bank and row at `place` (a slot table's
    /// place); used by the adaptive open-page policy. It reads the tables'
    /// places and touches a queue entry only for its id, on a match.
    fn another_request_to_row(&self, place: u64, skip_id: u64) -> bool {
        let live = |table: &SlotTable, queue: &VecDeque<QueuedRequest>| {
            let mut matches = table.places.iter().enumerate().filter(|&(_, &p)| p == place);
            matches.any(|(idx, _)| queue[idx].req.id != skip_id)
        };
        live(&self.tables[0], &self.read_q) || live(&self.tables[1], &self.write_q)
    }

    /// Issues the planned command at `now`.
    fn issue(&mut self, now: u64) {
        let Plan { command, idx, .. } = self.plan;
        let write = self.mode == BusMode::WriteDrain;
        debug_assert!(
            write && self.ideal_writes || {
                let (k, _) = self.slot_of(&self.active_queue()[idx].req);
                self.price_from(k, write, now) == key(now, command as u64, 0)
            },
            "the planned command must be legal now"
        );
        match (command, self.mode) {
            (Command::Column, BusMode::Read) => self.issue_read_column(now, idx),
            (Command::Column, BusMode::WriteDrain) if self.ideal_writes => {
                self.issue_ideal_write(now);
            }
            (Command::Column, BusMode::WriteDrain) => self.issue_write_column(now, idx),
            (Command::Activate, _) => self.issue_activate(now, idx),
            (Command::Precharge, _) => self.issue_precharge(now, idx),
        }
    }

    /// Ideal-write mode: every write occupies the data bus for one burst and
    /// has no bank or bank-group constraints (Figures 2 and 14, "Ideal").
    fn issue_ideal_write(&mut self, now: u64) {
        self.settle_stats(now + 1);
        let q = self.write_q.pop_front().expect("planned write is queued");
        self.tables[1].remove(0);
        let bank = self.bank_index(&q.req);
        self.uncount_write(bank);
        self.sub_wr_ok = now + self.timing.t_ccd_s_wr;
        self.stats.writes += 1;
        self.stats.write_row_hits += 1;
        self.note_write_issued(now, bank);
    }

    fn issue_read_column(&mut self, now: u64, idx: usize) {
        self.settle_stats(now + 1);
        let mut q = self.read_q.remove(idx).expect("index validated");
        let place = self.tables[0].remove(idx);
        let bank = self.bank_index(&q.req);
        let bg = q.req.decoded.bankgroup;
        let t = self.timing;
        self.mark_stale(1u64 << bank);

        self.sub_rd_ok = self.sub_rd_ok.max(now + t.t_ccd_s);
        self.bg_rd_ok[bg] = self.bg_rd_ok[bg].max(now + t.t_ccd_l);
        // Read-to-write direction change penalty.
        let rtw = t.read_to_write_turnaround();
        self.sub_wr_ok = self.sub_wr_ok.max(now + rtw);
        self.banks[bank].read(now, t.t_rtp);

        match q.outcome.get_or_insert(RowOutcome::Hit) {
            RowOutcome::Hit => self.stats.read_row_hits += 1,
            RowOutcome::Miss => self.stats.read_row_misses += 1,
            RowOutcome::Conflict => self.stats.read_row_conflicts += 1,
        }

        let ready = now + t.cl + t.burst;
        self.stats.reads += 1;
        self.stats.read_latency_cycles += ready.saturating_sub(q.req.enqueue_cycle);
        self.earliest_ready = self.earliest_ready.min(ready);
        self.completed.push(CompletedRead {
            id: q.req.id,
            addr: q.req.addr,
            core: q.req.core,
            ready_cycle: ready,
            latency: ready.saturating_sub(q.req.enqueue_cycle),
        });
        self.flag_dead_row(now, place, q.req.id);
    }

    fn issue_write_column(&mut self, now: u64, idx: usize) {
        self.settle_stats(now + 1);
        let mut q = self.write_q.remove(idx).expect("index validated");
        let place = self.tables[1].remove(idx);
        let bank = self.bank_index(&q.req);
        self.uncount_write(bank);
        let bg = q.req.decoded.bankgroup;
        let t = self.timing;
        self.mark_stale(1u64 << bank);

        self.sub_wr_ok = self.sub_wr_ok.max(now + t.t_ccd_s_wr);
        self.bg_wr_ok[bg] = self.bg_wr_ok[bg].max(now + t.t_ccd_l_wr);
        self.sub_rd_ok = self.sub_rd_ok.max(now + t.write_to_read_turnaround());
        self.bg_rd_ok[bg] = self.bg_rd_ok[bg].max(now + t.cwl + t.burst + t.t_wtr_l);
        self.banks[bank].write(now, t.cwl + t.burst + t.t_wr);

        match q.outcome.get_or_insert(RowOutcome::Hit) {
            RowOutcome::Hit => self.stats.write_row_hits += 1,
            RowOutcome::Miss => self.stats.write_row_misses += 1,
            RowOutcome::Conflict => self.stats.write_row_conflicts += 1,
        }

        self.stats.writes += 1;
        self.note_write_issued(now, bank);
        self.flag_dead_row(now, place, q.req.id);
    }

    fn note_write_issued(&mut self, now: u64, bank: usize) {
        if self.mode == BusMode::WriteDrain {
            self.episode_banks |= 1u64 << bank;
            self.episode_writes += 1;
            if let Some(last) = self.last_write_issue {
                self.episode_gap_sum += now - last;
                self.episode_gaps += 1;
            }
            self.last_write_issue = Some(now);
        }
    }

    fn issue_activate(&mut self, now: u64, idx: usize) {
        let q = &self.active_queue()[idx];
        let (bank, bg, row) = (self.bank_index(&q.req), q.req.decoded.bankgroup, q.req.decoded.row);
        let t = self.timing;
        self.mark_stale(1u64 << bank);
        self.banks[bank].activate(now, row, t.t_rcd, t.t_ras);
        self.bg_act_ok[bg] = self.bg_act_ok[bg].max(now + t.t_rrd_l);
        self.sub_act_ok = self.sub_act_ok.max(now + t.t_rrd_s);
        self.record_act(now);
        self.stats.activates += 1;
        self.active_queue_mut()[idx].outcome.get_or_insert(RowOutcome::Miss);
    }

    fn issue_precharge(&mut self, now: u64, idx: usize) {
        let bank = self.bank_index(&self.active_queue()[idx].req);
        self.mark_stale(1u64 << bank);
        self.banks[bank].precharge(now, self.timing.t_rp);
        self.stats.precharges += 1;
        self.active_queue_mut()[idx].outcome = Some(RowOutcome::Conflict);
    }

    /// The queue the current bus mode schedules from.
    fn active_queue(&self) -> &VecDeque<QueuedRequest> {
        match self.mode {
            BusMode::Read => &self.read_q,
            BusMode::WriteDrain => &self.write_q,
        }
    }

    fn active_queue_mut(&mut self) -> &mut VecDeque<QueuedRequest> {
        match self.mode {
            BusMode::Read => &mut self.read_q,
            BusMode::WriteDrain => &mut self.write_q,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::address::AddressMapping;
    use crate::request::RequestKind;
    use std::collections::BTreeMap;

    fn config() -> DramConfig {
        let mut c = DramConfig::ddr5_4800_x4();
        c.refresh_enabled = false;
        c
    }

    fn make_req(mapping: &AddressMapping, id: u64, kind: RequestKind, addr: u64) -> MemRequest {
        let mut r = MemRequest::new(id, kind, addr, 0);
        r.decoded = mapping.decode(addr);
        r
    }

    /// Finds `n` addresses whose decoded location is sub-channel 0 and whose
    /// bank placement follows the supplied predicate, all on distinct rows.
    fn addrs_where(
        mapping: &AddressMapping,
        n: usize,
        mut pred: impl FnMut(&crate::address::DecodedAddr) -> bool,
    ) -> Vec<u64> {
        let mut out = Vec::new();
        let mut addr = 0u64;
        while out.len() < n {
            let d = mapping.decode(addr);
            if d.subchannel == 0 && pred(&d) {
                out.push(addr);
            }
            addr += 64;
            assert!(addr < (1 << 40), "search space exhausted");
        }
        out
    }

    /// Runs until the first drain episode completes (the queue drains to the
    /// low watermark) and returns the cycle at which it ended.
    fn run_until_writes_done(sc: &mut SubChannel, max_cycles: u64) -> u64 {
        for cycle in 0..max_cycles {
            sc.tick(cycle);
            if sc.stats().drain_episodes > 0 {
                return cycle;
            }
        }
        panic!("writes did not drain within {max_cycles} cycles");
    }

    #[test]
    fn single_read_completes_with_reasonable_latency() {
        let cfg = config();
        let mapping = AddressMapping::new(&cfg);
        let mut sc = SubChannel::new(&cfg);
        let addr = addrs_where(&mapping, 1, |_| true)[0];
        sc.enqueue_read(make_req(&mapping, 1, RequestKind::Read, addr), 0).unwrap();
        let mut done = Vec::new();
        for cycle in 0..2_000 {
            sc.tick(cycle);
            sc.drain_completed(cycle, &mut done);
            if !done.is_empty() {
                break;
            }
        }
        assert_eq!(done.len(), 1);
        // ACT (tRCD) + RD (CL) + burst, in CPU cycles: ~65+67+14 = ~146.
        assert!(done[0].latency >= 100 && done[0].latency <= 400, "latency {}", done[0].latency);
        assert_eq!(sc.stats().read_row_misses, 1);
    }

    #[test]
    fn row_hit_read_is_faster_than_row_miss() {
        let cfg = config();
        let mapping = AddressMapping::new(&cfg);
        let mut sc = SubChannel::new(&cfg);
        // Two reads to the same row: second should be a row hit.
        let addr = addrs_where(&mapping, 1, |_| true)[0];
        sc.enqueue_read(make_req(&mapping, 1, RequestKind::Read, addr), 0).unwrap();
        sc.enqueue_read(make_req(&mapping, 2, RequestKind::Read, addr + 64 * 4), 0).unwrap();
        let mut done = Vec::new();
        for cycle in 0..4_000 {
            sc.tick(cycle);
            sc.drain_completed(cycle, &mut done);
            if done.len() == 2 {
                break;
            }
        }
        // The second access shares the same bank & row under the Zen mapping
        // only if the column bits differ; verify both completed and at least
        // one row hit was recorded when they do share a row.
        assert_eq!(done.len(), 2);
        assert_eq!(sc.stats().reads, 2);
    }

    #[test]
    fn writes_buffer_until_high_watermark() {
        let cfg = config();
        let mapping = AddressMapping::new(&cfg);
        let mut sc = SubChannel::new(&cfg);
        // Enqueue fewer writes than the high watermark: no drain should start.
        for i in 0..(cfg.write_high_watermark - 1) {
            let addr = (i as u64) * 4096;
            let d = mapping.decode(addr);
            if d.subchannel != 0 {
                continue;
            }
            sc.enqueue_write(make_req(&mapping, i as u64, RequestKind::Write, addr), 0).unwrap();
        }
        for cycle in 0..10_000 {
            sc.tick(cycle);
        }
        assert_eq!(sc.stats().writes, 0, "no write should issue before the high watermark");
        assert_eq!(sc.stats().drain_episodes, 0);
    }

    #[test]
    fn drain_starts_at_high_watermark_and_stops_at_low() {
        let cfg = config();
        let mapping = AddressMapping::new(&cfg);
        let mut sc = SubChannel::new(&cfg);
        let addrs = addrs_where(&mapping, cfg.write_high_watermark, |_| true);
        for (i, addr) in addrs.iter().enumerate() {
            sc.enqueue_write(make_req(&mapping, i as u64, RequestKind::Write, *addr), 0).unwrap();
        }
        let mut drained_to_low = false;
        for cycle in 0..200_000 {
            sc.tick(cycle);
            if sc.stats().drain_episodes > 0 {
                drained_to_low = true;
                break;
            }
        }
        assert!(drained_to_low, "a drain episode should complete");
        let stats = sc.stats();
        assert_eq!(
            stats.writes,
            (cfg.write_high_watermark - cfg.write_low_watermark) as u64,
            "drain should stop at the low watermark"
        );
        assert_eq!(sc.write_queue_len(), cfg.write_low_watermark);
        assert!(stats.last_episode.unique_banks > 0);
    }

    #[test]
    fn different_bankgroup_writes_drain_faster_than_same_bankgroup() {
        let cfg = config();
        let mapping = AddressMapping::new(&cfg);

        // Same bank group (0), different banks, different rows.
        let mut sc_same = SubChannel::new(&cfg);
        let same_bg = addrs_where(&mapping, cfg.write_high_watermark, |d| d.bankgroup == 0);
        for (i, a) in same_bg.iter().enumerate() {
            sc_same.enqueue_write(make_req(&mapping, i as u64, RequestKind::Write, *a), 0).unwrap();
        }
        let same_cycles = run_until_writes_done(&mut sc_same, 2_000_000);

        // Spread across bank groups round-robin.
        let mut sc_diff = SubChannel::new(&cfg);
        let mut per_bg: Vec<Vec<u64>> = vec![Vec::new(); 8];
        let mut addr = 0u64;
        while per_bg.iter().map(Vec::len).sum::<usize>() < cfg.write_high_watermark {
            let d = mapping.decode(addr);
            if d.subchannel == 0 && per_bg[d.bankgroup].len() < cfg.write_high_watermark / 8 + 1 {
                per_bg[d.bankgroup].push(addr);
            }
            addr += 64;
        }
        let mut spread = Vec::new();
        'outer: loop {
            for bg in &mut per_bg {
                if let Some(a) = bg.pop() {
                    spread.push(a);
                    if spread.len() == cfg.write_high_watermark {
                        break 'outer;
                    }
                }
            }
        }
        for (i, a) in spread.iter().enumerate() {
            sc_diff.enqueue_write(make_req(&mapping, i as u64, RequestKind::Write, *a), 0).unwrap();
        }
        let diff_cycles = run_until_writes_done(&mut sc_diff, 2_000_000);

        assert!(
            diff_cycles * 2 < same_cycles,
            "spreading writes over bank groups should drain much faster: same={same_cycles} diff={diff_cycles}"
        );
        assert!(
            sc_diff.stats().mean_write_to_write_ns() < sc_same.stats().mean_write_to_write_ns(),
            "write-to-write delay should be lower when bank groups differ"
        );
    }

    #[test]
    fn ideal_writes_drain_at_one_burst_per_write() {
        let mut cfg = config();
        cfg.ideal_writes = true;
        let mapping = AddressMapping::new(&cfg);
        let mut sc = SubChannel::new(&cfg);
        let addrs = addrs_where(&mapping, cfg.write_high_watermark, |d| d.bankgroup == 0);
        for (i, a) in addrs.iter().enumerate() {
            sc.enqueue_write(make_req(&mapping, i as u64, RequestKind::Write, *a), 0).unwrap();
        }
        run_until_writes_done(&mut sc, 100_000);
        let s = sc.stats();
        // 3.33 ns per write plus scheduling slack.
        assert!(s.mean_write_to_write_ns() < 5.0, "ideal w2w = {}", s.mean_write_to_write_ns());
    }

    #[test]
    fn reads_stall_during_write_drain() {
        let cfg = config();
        let mapping = AddressMapping::new(&cfg);
        let mut sc = SubChannel::new(&cfg);
        // Fill the write queue to trigger a drain, then enqueue a read.
        let addrs = addrs_where(&mapping, cfg.write_high_watermark, |d| d.bankgroup < 2);
        for (i, a) in addrs.iter().enumerate() {
            sc.enqueue_write(make_req(&mapping, i as u64, RequestKind::Write, *a), 0).unwrap();
        }
        let read_addr = addrs_where(&mapping, 1, |d| d.bankgroup == 7)[0];
        sc.enqueue_read(make_req(&mapping, 1_000, RequestKind::Read, read_addr), 0).unwrap();
        let mut done = Vec::new();
        for cycle in 0..2_000_000 {
            sc.tick(cycle);
            sc.drain_completed(cycle, &mut done);
            if !done.is_empty() {
                break;
            }
        }
        assert_eq!(done.len(), 1);
        // The read had to wait for a large chunk of the drain: latency far
        // exceeds an isolated access (~150 cycles).
        assert!(done[0].latency > 1_000, "read latency during drain = {}", done[0].latency);
        assert!(sc.stats().write_mode_cycles > 0);
    }

    #[test]
    fn write_queue_full_is_reported() {
        let cfg = config();
        let mapping = AddressMapping::new(&cfg);
        let mut sc = SubChannel::new(&cfg);
        let addrs = addrs_where(&mapping, cfg.write_queue_entries + 1, |_| true);
        for (i, a) in addrs.iter().take(cfg.write_queue_entries).enumerate() {
            sc.enqueue_write(make_req(&mapping, i as u64, RequestKind::Write, *a), 0).unwrap();
        }
        let extra = make_req(&mapping, 9_999, RequestKind::Write, addrs[cfg.write_queue_entries]);
        assert_eq!(sc.enqueue_write(extra, 0), Err(EnqueueError::WriteQueueFull));
        assert_eq!(sc.stats().write_queue_full_events, 1);
    }

    #[test]
    fn pending_write_banks_reflects_queue() {
        let cfg = config();
        let mapping = AddressMapping::new(&cfg);
        let mut sc = SubChannel::new(&cfg);
        assert_eq!(sc.pending_write_banks(), 0);
        let addr = addrs_where(&mapping, 1, |_| true)[0];
        let req = make_req(&mapping, 1, RequestKind::Write, addr);
        let bank = req.decoded.bank_in_subchannel(cfg.banks_per_group);
        sc.enqueue_write(req, 0).unwrap();
        assert_eq!(sc.pending_write_banks(), 1 << bank);
    }

    /// The maintained pending-write mask must equal a scan of the write
    /// queue on every cycle of a drain, on the scheduled and the ideal
    /// write paths alike (each removes writes at a different site).
    #[test]
    fn pending_write_banks_tracks_the_queue_through_a_drain() {
        for ideal in [false, true] {
            let mut cfg = config();
            cfg.ideal_writes = ideal;
            let mapping = AddressMapping::new(&cfg);
            let mut sc = SubChannel::new(&cfg);
            // Confined to four bank groups, so banks hold several writes and
            // a bank's bit must survive all but its last one leaving.
            let addrs = addrs_where(&mapping, cfg.write_high_watermark, |d| d.bankgroup < 4);
            for (i, a) in addrs.iter().enumerate() {
                sc.enqueue_write(make_req(&mapping, i as u64, RequestKind::Write, *a), 0).unwrap();
            }
            for cycle in 0..200_000 {
                sc.tick(cycle);
                let scanned = sc.write_q.iter().fold(0u64, |m, q| m | 1 << sc.bank_index(&q.req));
                assert_eq!(sc.pending_write_banks(), scanned, "cycle {cycle} (ideal={ideal})");
                if sc.stats().drain_episodes > 0 {
                    break;
                }
            }
            assert_eq!(sc.write_queue_len(), cfg.write_low_watermark, "the drain must finish");
        }
    }

    /// Regression test for the heuristic idle-sleep bug: a queued request
    /// whose only blocker is a bank-timing expiry (here tFAW) must issue on
    /// exactly the cycle the constraint expires, not up to 8 cycles later.
    /// The first four ACTs are paced by tRRD_S; the fifth is gated solely by
    /// the four-activate window opened at cycle 0.
    #[test]
    fn activate_blocked_only_by_tfaw_issues_at_the_exact_expiry() {
        let mut cfg = config();
        // Stretch tFAW so it (not tRRD) gates the fifth activate.
        cfg.timing.t_faw = 100;
        let t = cfg.timing.to_cpu_cycles();
        let mapping = AddressMapping::new(&cfg);
        let mut sc = SubChannel::new(&cfg);
        // Five reads to five distinct bank groups (hence five distinct,
        // closed banks) so only tRRD_S / tFAW pace the activates.
        for bg in 0..5usize {
            let addr = addrs_where(&mapping, 1, |d| d.bankgroup == bg)[0];
            sc.enqueue_read(make_req(&mapping, bg as u64, RequestKind::Read, addr), 0).unwrap();
        }
        let mut act_cycles = Vec::new();
        let mut seen = 0;
        for cycle in 0..1_000 {
            sc.tick(cycle);
            if sc.stats().activates > seen {
                seen = sc.stats().activates;
                act_cycles.push(cycle);
            }
        }
        let rrd = t.t_rrd_s;
        let expected = vec![0, rrd, 2 * rrd, 3 * rrd, t.t_faw];
        assert_eq!(
            act_cycles, expected,
            "the fifth ACT must issue exactly when the tFAW window expires"
        );
    }

    /// Dead rows close themselves: under the adaptive open-page policy a
    /// dead row is auto-precharged at exactly the cycle its precharge window
    /// opens (max of tRAS after the ACT and tRTP after the RD). No tick is
    /// scheduled for the close, so the wake horizon skips it, yet a reader
    /// settling past it sees the bank closed at that cycle, and a later
    /// activate to the bank waits for exactly tRP after it.
    #[test]
    fn dead_row_closes_exactly_when_the_precharge_window_opens() {
        let cfg = config();
        assert_eq!(cfg.page_policy, PagePolicy::AdaptiveOpen);
        let t = cfg.timing.to_cpu_cycles();
        let mapping = AddressMapping::new(&cfg);
        let mut sc = SubChannel::new(&cfg);
        let addr = addrs_where(&mapping, 1, |_| true)[0];
        let req = make_req(&mapping, 1, RequestKind::Read, addr);
        let (bank, row) = (req.decoded.bank_in_subchannel(cfg.banks_per_group), req.decoded.row);
        sc.enqueue_read(req, 0).unwrap();

        // ACT at 0, RD as soon as tRCD expires; no other request targets the
        // row, so the read marks the row dead (auto-precharge).
        let read_cycle = t.t_rcd;
        let close_cycle = t.t_ras.max(read_cycle + t.t_rtp);
        for cycle in 0..=read_cycle {
            sc.tick(cycle);
        }
        assert_eq!(sc.stats().reads, 1);
        assert!(sc.banks[bank].auto_precharge, "the row must be flagged dead");
        assert!(sc.next_wake() > close_cycle, "the wake horizon must skip the self-timed close");

        sc.settle_stats(close_cycle + 1);
        assert!(sc.banks[bank].open_row.is_none(), "the dead row must be closed");
        assert_eq!(
            sc.banks[bank].act_ok_at,
            close_cycle + t.t_rp,
            "the close must not be deferred"
        );
        assert_eq!(sc.stats().precharges, 1);

        // A read to another row of the bank, enqueued after the close,
        // activates exactly when tRP after the close expires.
        let other = addrs_where(&mapping, 1, |d| {
            d.bank_in_subchannel(cfg.banks_per_group) == bank && d.row != row
        })[0];
        let enqueue_cycle = close_cycle + 1;
        sc.tick(enqueue_cycle);
        sc.enqueue_read(make_req(&mapping, 2, RequestKind::Read, other), enqueue_cycle).unwrap();
        let act_cycle = (enqueue_cycle + 1..enqueue_cycle + 1_000).find(|&cycle| {
            sc.tick(cycle);
            sc.stats().activates == 2
        });
        assert_eq!(act_cycle, Some(close_cycle + t.t_rp));
    }

    /// Span-lazy settlement must account exactly what per-cycle settlement
    /// would have: total, busy and write-mode cycles. One instance settles
    /// after every tick (emulating the old per-tick accounting), the other
    /// only once at the end of the span.
    #[test]
    fn lazy_stat_settlement_matches_per_cycle_settlement() {
        let cfg = config();
        let mapping = AddressMapping::new(&cfg);
        let mut eager = SubChannel::new(&cfg);
        let addr = addrs_where(&mapping, 1, |_| true)[0];
        eager.enqueue_read(make_req(&mapping, 1, RequestKind::Read, addr), 0).unwrap();
        let mut lazy = eager.clone();

        for cycle in 0..2_000 {
            eager.tick(cycle);
            eager.settle_stats(cycle + 1);
            lazy.tick(cycle);
        }
        lazy.settle_stats(2_000);
        assert!(eager.stats().reads > 0, "the span under test must issue the read");
        assert!(eager.stats().busy_cycles > 0);
        assert_eq!(eager.stats(), lazy.stats());
        assert!(
            lazy.settle_events() < eager.settle_events(),
            "the lazy instance must settle in strictly fewer spans"
        );
    }

    /// A sub-channel restored from an exported state must continue bitwise
    /// in lockstep with the original: identical stats, queue contents and
    /// completions from the restore point onward, including mid-drain and
    /// with refresh enabled.
    #[test]
    fn exported_state_restores_into_a_lockstep_copy() {
        let mut cfg = DramConfig::ddr5_4800_x4();
        cfg.refresh_enabled = true;
        let mapping = AddressMapping::new(&cfg);
        let mut original = SubChannel::new(&cfg);
        let addrs = addrs_where(&mapping, cfg.write_high_watermark + 8, |_| true);
        for (i, a) in addrs.iter().enumerate() {
            if i < cfg.write_high_watermark {
                original
                    .enqueue_write(make_req(&mapping, i as u64, RequestKind::Write, *a), 0)
                    .unwrap();
            } else {
                original
                    .enqueue_read(make_req(&mapping, i as u64, RequestKind::Read, *a), 0)
                    .unwrap();
            }
        }
        // Advance into the middle of the drain so the episode trackers
        // and timing state are non-trivial, then capture.
        let checkpoint = 3_000u64;
        let mut done_a = Vec::new();
        for cycle in 0..checkpoint {
            original.tick(cycle);
            original.drain_completed(cycle, &mut done_a);
        }
        original.settle_stats(checkpoint);
        let state = original.export_state();

        let mut restored = SubChannel::new(&cfg);
        restored.import_state(&state, &mapping);
        assert_eq!(restored.export_state(), state, "export/import must round-trip");
        assert_eq!(restored.pending_write_banks(), original.pending_write_banks());

        let mut done_b = done_a.clone();
        for cycle in checkpoint..checkpoint + 20_000 {
            original.tick(cycle);
            restored.tick(cycle);
            original.drain_completed(cycle, &mut done_a);
            restored.drain_completed(cycle, &mut done_b);
        }
        original.settle_stats(checkpoint + 20_000);
        restored.settle_stats(checkpoint + 20_000);
        assert_eq!(done_a, done_b, "completions must match");
        assert_eq!(original.stats(), restored.stats(), "stats must match");
        assert_eq!(original.export_state(), restored.export_state(), "final state must match");
        assert!(original.stats().writes > 0, "the span under test must drain writes");
    }

    #[test]
    fn refresh_occurs_periodically_when_enabled() {
        let mut cfg = config();
        cfg.refresh_enabled = true;
        let mut sc = SubChannel::new(&cfg);
        let refi_cpu = cfg.timing.to_cpu_cycles().t_refi;
        for cycle in 0..(refi_cpu * 3 + 10) {
            sc.tick(cycle);
        }
        assert!(sc.stats().refreshes >= 2);
    }

    /// The three-pass FR-FCFS picker the plan replaced, kept as the lockstep
    /// reference. It reads a state whose due dead-row closes, refresh and
    /// mode update are applied, and returns the command the three passes
    /// issue at `now`: the oldest ready column command, else the oldest ready
    /// activate, else the oldest ready precharge.
    fn reference_pick(sc: &SubChannel, now: u64) -> Option<Plan> {
        let queue = sc.active_queue();
        let write = sc.mode == BusMode::WriteDrain;
        if write && sc.ideal_writes {
            let ready = sc.sub_wr_ok <= now && !queue.is_empty();
            return ready.then_some(Plan { at: now, command: Command::Column, idx: 0 });
        }
        let (sub_cas, bg_cas) =
            if write { (sc.sub_wr_ok, &sc.bg_wr_ok) } else { (sc.sub_rd_ok, &sc.bg_rd_ok) };
        let faw_allows = sc.faw_window.len() < 4 || now >= sc.faw_window[0] + sc.timing.t_faw;
        let oldest = |command, ready: &dyn Fn(&BankState, usize, u64) -> bool| {
            let idx = queue.iter().position(|q| {
                let d = &q.req.decoded;
                ready(&sc.banks[sc.bank_index(&q.req)], d.bankgroup, d.row)
            })?;
            Some(Plan { at: now, command, idx })
        };
        let column = || {
            oldest(Command::Column, &|b, bg, row| {
                b.is_row_hit(row) && b.cas_ok_at <= now && bg_cas[bg] <= now
            })
        };
        let activate = || {
            oldest(Command::Activate, &|b, bg, _| {
                b.is_closed() && b.act_ok_at <= now && sc.bg_act_ok[bg] <= now
            })
        };
        let precharge = || {
            oldest(Command::Precharge, &|b, _, row| b.is_row_conflict(row) && b.pre_ok_at <= now)
        };
        (sub_cas <= now)
            .then(column)
            .flatten()
            .or_else(|| (sc.sub_act_ok <= now && faw_allows).then(activate).flatten())
            .or_else(precharge)
    }

    /// Sub-channel 0 addresses over three rows of every bank, two columns
    /// each, keyed by (bank, row): random picks mix row hits, misses,
    /// conflicts and dead rows.
    fn lockstep_pool(
        mapping: &AddressMapping,
        cfg: &DramConfig,
    ) -> BTreeMap<(usize, u64), Vec<u64>> {
        let mut pool = BTreeMap::<(usize, u64), Vec<u64>>::new();
        let mut addr = 0u64;
        while pool.len() < cfg.banks_per_subchannel() * 3 || pool.values().any(|a| a.len() < 2) {
            let d = mapping.decode(addr);
            if d.subchannel == 0 && d.row < 3 {
                let columns =
                    pool.entry((d.bank_in_subchannel(cfg.banks_per_group), d.row)).or_default();
                if columns.len() < 2 {
                    columns.push(addr);
                }
            }
            addr += 64;
            assert!(addr < (1 << 32), "search space exhausted");
        }
        pool
    }

    /// Asserts that a full rebuild of both slot tables from the queues and
    /// bank state changes nothing but the keys of stale banks: every key
    /// outside the stale masks is exact.
    fn assert_tables_exact(sc: &SubChannel, ctx: impl Fn() -> String) {
        for (table, fresh) in sc.tables.iter().zip(sc.fresh_tables()) {
            assert_eq!(table.places, fresh.places, "{}: a table must follow its queue", ctx());
            for (&k, &fresh) in table.keys.iter().zip(&fresh.keys) {
                let stale = table.stale >> (k & BANK_BITS) & 1 != 0;
                assert!(
                    stale || k == fresh,
                    "{}: key {k:#x} outside the stale mask, not {fresh:#x}",
                    ctx()
                );
            }
        }
    }

    /// Checks `another_request_to_row` by brute force for every (bank,
    /// row) of the pool, skipping no id and each id queued there: another
    /// request targets the row when the queues' decoded addresses hold one
    /// there with a different id.
    fn assert_row_liveness(
        sc: &SubChannel,
        pool: &BTreeMap<(usize, u64), Vec<u64>>,
        ctx: impl Fn() -> String,
    ) {
        let mut ids = BTreeMap::<(usize, u64), Vec<u64>>::new();
        for q in sc.read_q.iter().chain(&sc.write_q) {
            ids.entry((sc.bank_index(&q.req), q.req.decoded.row)).or_default().push(q.req.id);
        }
        for &(bank, row) in pool.keys() {
            let queued = ids.get(&(bank, row)).map_or(&[][..], Vec::as_slice);
            for &skip_id in queued.iter().chain(&[u64::MAX]) {
                assert_eq!(
                    sc.another_request_to_row(row << 8 | bank as u64, skip_id),
                    queued.iter().any(|&id| id != skip_id),
                    "{}: row liveness of bank {bank} row {row} skipping id {skip_id}",
                    ctx()
                );
            }
        }
    }

    /// Drives a sub-channel with a seeded random enqueue stream, enqueuing
    /// after each tick as the system does, and checks every cycle against
    /// [`reference_pick`]:
    /// * on a sleeping cycle, a clone settled through the cycle has no
    ///   command the reference would issue, and no refresh or bus-mode
    ///   switch is due;
    /// * on an awake tick, the state after the tick equals a clone that ran
    ///   the three-pass tick (dead-row closes, refresh, mode update, then
    ///   the reference pick), so the issued command is the reference's.
    ///
    /// After every tick the slot tables must be exact outside their stale
    /// masks ([`assert_tables_exact`]); every 97 cycles the row-liveness
    /// answer is checked by brute force ([`assert_row_liveness`]); and every
    /// 4,000 cycles the sub-channel is replaced by a fresh one restored from
    /// its exported state, which must then continue in lockstep too.
    ///
    /// Returns the final statistics, settled.
    fn run_lockstep(cfg: &DramConfig, seed: u64, cycles: u64) -> SubChannelStats {
        let mapping = AddressMapping::new(cfg);
        let pool = lockstep_pool(&mapping, cfg);
        let addrs: Vec<u64> = pool.values().flatten().copied().collect();
        let mut sc = SubChannel::new(cfg);
        let mut rng = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        let mut rand = move |n: usize| {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            (rng % n as u64) as usize
        };
        let ctx = |now: u64| {
            let c = cfg;
            format!(
                "{:?}/refresh={}/ideal={} seed {seed} cycle {now}",
                c.page_policy, c.refresh_enabled, c.ideal_writes
            )
        };
        let (mut rates, mut id) = ([0; 2], 0);
        for now in 0..cycles {
            if now % 1_500 == 0 {
                // A new phase: read and write enqueue rates in 64ths of a
                // request per cycle, from idle to past the service rate.
                rates = [rand(20), rand(7)];
            }
            if now % 4_000 == 2_000 {
                sc.settle_stats(now);
                let image = sc.export_state();
                sc = SubChannel::new(cfg);
                sc.import_state(&image, &mapping);
                assert_eq!(sc.export_state(), image, "{}: the image must round-trip", ctx(now));
            }
            if now < sc.next_wake() {
                let mut settled = sc.clone();
                settled.settle_stats(now + 1);
                let pick = reference_pick(&settled, now);
                assert_eq!(pick, None, "{}: a command is ready while asleep", ctx(now));
                assert!(
                    !(cfg.refresh_enabled && now >= settled.next_refresh_at),
                    "{}: a refresh is due while asleep",
                    ctx(now)
                );
                let switch_due = match settled.mode {
                    BusMode::Read => settled.write_q.len() >= cfg.write_high_watermark,
                    BusMode::WriteDrain => settled.write_q.len() <= cfg.write_low_watermark,
                };
                assert!(!switch_due, "{}: a bus-mode switch is due while asleep", ctx(now));
                assert!(!sc.tick(now), "{}: a sleeping tick must be inert", ctx(now));
            } else {
                let mut expected = sc.clone();
                expected.close_dead_rows(now);
                if cfg.refresh_enabled && now >= expected.next_refresh_at {
                    expected.perform_refresh(now);
                }
                expected.update_mode(now);
                expected.close_dead_rows(now + 1);
                let pick = reference_pick(&expected, now);
                if let Some(plan) = pick {
                    expected.plan = plan;
                    expected.issue(now);
                }
                sc.tick(now);
                let mut actual = sc.clone();
                actual.settle_stats(now + 1);
                expected.settle_stats(now + 1);
                assert_eq!(
                    actual.export_state(),
                    expected.export_state(),
                    "{}: the tick must issue the reference pick {pick:?}",
                    ctx(now)
                );
            }
            let flagged =
                sc.banks.iter().rev().fold(0u64, |m, b| m << 1 | u64::from(b.auto_precharge));
            assert_eq!(sc.dead_mask, flagged, "{}: the dead-row mask must track flags", ctx(now));
            assert_tables_exact(&sc, || ctx(now));
            if now % 97 == 0 {
                assert_row_liveness(&sc, &pool, || ctx(now));
            }

            for (write, rate) in [false, true].into_iter().zip(rates) {
                let accepts = if write { sc.can_accept_write() } else { sc.can_accept_read() };
                if rand(64) >= rate || !accepts {
                    continue;
                }
                // One request in four goes to an open row: to a dead row
                // that closes next cycle when there is one, so requests
                // meet dead rows right at their close.
                let open: Vec<(usize, u64)> = (0..sc.banks.len())
                    .filter_map(|bank| sc.banks[bank].open_row.map(|row| (bank, row)))
                    .collect();
                let closing = open.iter().copied().find(|&(bank, _)| {
                    sc.banks[bank].auto_precharge && sc.banks[bank].pre_ok_at == now + 1
                });
                let addr = match (rand(4), closing) {
                    (0, Some(key)) => pool[&key][rand(2)],
                    (0, None) if !open.is_empty() => pool[&open[rand(open.len())]][rand(2)],
                    _ => addrs[rand(addrs.len())],
                };
                let kind = if write { RequestKind::Write } else { RequestKind::Read };
                let req = make_req(&mapping, id, kind, addr);
                id += 1;
                if write { sc.enqueue_write(req, now) } else { sc.enqueue_read(req, now) }.unwrap();
            }
            let mut done = Vec::new();
            sc.drain_completed(now, &mut done);
        }
        sc.settle_stats(cycles);
        sc.stats().clone()
    }

    /// The planned scheduler issues exactly what the three-pass scheduler it
    /// replaced would, on every cycle, under every page policy, with refresh
    /// on and off, and on the ideal-write path. Tier-1 runs a few seeds;
    /// `BARD_PARITY=full` widens the seeds and run lengths.
    #[test]
    fn planned_scheduler_matches_the_three_pass_reference() {
        let full = std::env::var("BARD_PARITY").is_ok_and(|v| v == "full");
        let (seeds, cycles) = if full { (0..16u64, 200_000) } else { (0..1u64, 40_000) };
        let mut shapes = Vec::new();
        for page_policy in [PagePolicy::AdaptiveOpen, PagePolicy::Closed, PagePolicy::Open] {
            for refresh_enabled in [false, true] {
                shapes.push((page_policy, refresh_enabled, false));
            }
        }
        shapes.push((PagePolicy::AdaptiveOpen, true, true));
        for (page_policy, refresh_enabled, ideal_writes) in shapes {
            let mut cfg = DramConfig::ddr5_4800_x4();
            cfg.page_policy = page_policy;
            cfg.refresh_enabled = refresh_enabled;
            cfg.ideal_writes = ideal_writes;
            for seed in seeds.clone() {
                let stats = run_lockstep(&cfg, seed, cycles);
                let shape = format!(
                    "{page_policy:?}/refresh={refresh_enabled}/ideal={ideal_writes} seed {seed}"
                );
                assert!(stats.reads > 100 && stats.writes > 100, "{shape}: too little traffic");
                assert!(stats.drain_episodes > 2, "{shape}: both watermarks must be crossed");
                assert_eq!(stats.refreshes > 0, refresh_enabled, "{shape}");
                if page_policy != PagePolicy::Open {
                    assert!(stats.precharges > 0, "{shape}: dead rows must close");
                }
            }
        }
    }
}

//! The OoO-lite core model.
//!
//! The model captures the first-order behaviour that matters for this study:
//! a large reorder buffer (512 entries, Table II), a dispatch/retire width,
//! in-order retirement that blocks when the load at the ROB head has not yet
//! received its data, and a finite store buffer so that memory back-pressure
//! from write-backs can eventually stall the core. Instruction semantics are
//! not modelled — the trace supplies the memory access stream.

use bard_image::{deque, opt, ImageError, Io};

use crate::trace::{MemKind, TraceRecord, TraceSource};

/// Configuration of one core.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CoreConfig {
    /// Reorder-buffer capacity (instructions in flight).
    pub rob_entries: usize,
    /// Instructions dispatched per cycle.
    pub dispatch_width: usize,
    /// Instructions retired per cycle.
    pub retire_width: usize,
    /// Store-buffer capacity (outstanding stores issued to memory).
    pub store_buffer_entries: usize,
}

impl CoreConfig {
    /// The 512-entry-ROB, 4-wide core of Table II.
    #[must_use]
    pub fn baseline() -> Self {
        Self { rob_entries: 512, dispatch_width: 4, retire_width: 4, store_buffer_entries: 64 }
    }
}

impl Default for CoreConfig {
    fn default() -> Self {
        Self::baseline()
    }
}

/// A memory request issued by the core this cycle. `token` must be handed
/// back via [`Core::complete_load`] / [`Core::complete_store`] when the
/// access finishes.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CoreRequest {
    /// Completion token (the instruction's sequence number).
    pub token: u64,
    /// Load or store.
    pub kind: MemKind,
    /// Byte address.
    pub addr: u64,
    /// Instruction pointer (used as the SHiP signature source).
    pub ip: u64,
}

impl CoreRequest {
    /// Codes the request (snapshot images), its kind a tag (0 = load,
    /// 1 = store).
    ///
    /// # Errors
    ///
    /// Decoding: a malformed image.
    pub fn image(&mut self, io: &mut impl Io) -> Result<(), ImageError> {
        io.u64(&mut self.token)?;
        io.choice(&mut self.kind, &[MemKind::Load, MemKind::Store], "request kind")?;
        io.u64(&mut self.addr)?;
        io.u64(&mut self.ip)
    }
}

/// Why dispatch stopped on a given cycle (statistics).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CoreStats {
    /// Cycles simulated.
    pub cycles: u64,
    /// Instructions retired.
    pub retired: u64,
    /// Cycles in which nothing could be retired because the ROB head was an
    /// incomplete load.
    pub head_blocked_cycles: u64,
    /// Dispatch stalls because the ROB was full.
    pub rob_full_stalls: u64,
    /// Dispatch stalls because the store buffer was full.
    pub store_buffer_stalls: u64,
    /// Dispatch stalls because the memory hierarchy refused the request.
    pub memory_backpressure_stalls: u64,
    /// Loads issued to the memory hierarchy.
    pub loads_issued: u64,
    /// Stores issued to the memory hierarchy.
    pub stores_issued: u64,
}

impl CoreStats {
    /// Instructions per cycle.
    #[must_use]
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.retired as f64 / self.cycles as f64
        }
    }

    /// Field-wise difference `self - earlier`. All counters are monotonic,
    /// so the result is the activity between two snapshots — the
    /// cycle-skipping engine uses it to capture the per-cycle stall pattern
    /// of a quiescent tick.
    #[must_use]
    pub fn minus(&self, earlier: &CoreStats) -> CoreStats {
        CoreStats {
            cycles: self.cycles.saturating_sub(earlier.cycles),
            retired: self.retired.saturating_sub(earlier.retired),
            head_blocked_cycles: self
                .head_blocked_cycles
                .saturating_sub(earlier.head_blocked_cycles),
            rob_full_stalls: self.rob_full_stalls.saturating_sub(earlier.rob_full_stalls),
            store_buffer_stalls: self
                .store_buffer_stalls
                .saturating_sub(earlier.store_buffer_stalls),
            memory_backpressure_stalls: self
                .memory_backpressure_stalls
                .saturating_sub(earlier.memory_backpressure_stalls),
            loads_issued: self.loads_issued.saturating_sub(earlier.loads_issued),
            stores_issued: self.stores_issued.saturating_sub(earlier.stores_issued),
        }
    }

    /// Adds `times` copies of `delta` to every counter (bulk-accounting a
    /// span of identical cycles in one step).
    pub fn add_scaled(&mut self, delta: &CoreStats, times: u64) {
        self.cycles += delta.cycles * times;
        self.retired += delta.retired * times;
        self.head_blocked_cycles += delta.head_blocked_cycles * times;
        self.rob_full_stalls += delta.rob_full_stalls * times;
        self.store_buffer_stalls += delta.store_buffer_stalls * times;
        self.memory_backpressure_stalls += delta.memory_backpressure_stalls * times;
        self.loads_issued += delta.loads_issued * times;
        self.stores_issued += delta.stores_issued * times;
    }

    /// Codes the counters (snapshot images).
    fn image(&mut self, io: &mut impl Io) -> Result<(), ImageError> {
        io.u64(&mut self.cycles)?;
        io.u64(&mut self.retired)?;
        io.u64(&mut self.head_blocked_cycles)?;
        io.u64(&mut self.rob_full_stalls)?;
        io.u64(&mut self.store_buffer_stalls)?;
        io.u64(&mut self.memory_backpressure_stalls)?;
        io.u64(&mut self.loads_issued)?;
        io.u64(&mut self.stores_issued)
    }
}

/// The OoO-lite core.
///
/// The ROB is represented arithmetically: in-flight instructions are the
/// sequence range `[head_seq, next_seq)`, and only *incomplete loads* are
/// tracked individually (every other slot — compute, store, completed load —
/// retires unconditionally in program order). A run of compute instructions
/// therefore dispatches and retires as one bounded arithmetic step instead
/// of a `VecDeque` push/pop per instruction, which is what makes
/// compute-heavy cycles cheap; the observable behaviour (stall statistics,
/// issue order, retirement timing) is identical to the slot-per-instruction
/// model it replaced.
#[derive(Debug)]
pub struct Core {
    config: CoreConfig, // bard-lint: allow(S1) -- configuration fixed at construction
    /// Sequence number of the oldest in-flight instruction.
    head_seq: u64,
    /// Next sequence number to assign; `next_seq - head_seq` is the ROB
    /// occupancy.
    next_seq: u64,
    /// Sequence numbers of loads still waiting for data, oldest first. A
    /// completed load is removed immediately (its slot needs no tracking),
    /// so the front entry is the retirement barrier.
    pending_loads: std::collections::VecDeque<u64>,
    /// Outstanding stores issued to memory.
    store_buffer_used: usize,
    /// Non-memory instructions still to dispatch from the current record.
    pending_bubble: u32,
    /// A memory instruction that could not be issued last cycle.
    deferred: Option<TraceRecord>,
    stats: CoreStats,
}

impl Core {
    /// Creates a core.
    #[must_use]
    pub fn new(config: CoreConfig) -> Self {
        Self {
            config,
            head_seq: 0,
            next_seq: 0,
            pending_loads: std::collections::VecDeque::new(),
            store_buffer_used: 0,
            pending_bubble: 0,
            deferred: None,
            stats: CoreStats::default(),
        }
    }

    /// Current ROB occupancy.
    fn rob_len(&self) -> usize {
        (self.next_seq - self.head_seq) as usize
    }

    /// The core's configuration.
    #[must_use]
    pub fn config(&self) -> CoreConfig {
        self.config
    }

    /// Statistics collected so far.
    #[must_use]
    pub fn stats(&self) -> &CoreStats {
        &self.stats
    }

    /// Instructions retired so far.
    #[must_use]
    pub fn retired(&self) -> u64 {
        self.stats.retired
    }

    /// Instructions dispatched into the ROB so far (monotonic). Together
    /// with [`Core::retired`] this is the core's progress marker: a cycle on
    /// which neither moved was a pure stall cycle, and — absent external
    /// completions — every following cycle repeats it exactly.
    #[must_use]
    pub fn dispatched(&self) -> u64 {
        self.next_seq
    }

    /// Bulk-accounts `span` stalled cycles in one step: `delta` is the
    /// statistics delta one observed stall cycle produced (see
    /// [`CoreStats::minus`]), which every skipped cycle would repeat. The
    /// cycle-skipping engine calls this instead of running `span` identical
    /// [`Core::cycle`]s; microarchitectural state is unchanged by
    /// construction over such a span.
    pub fn apply_stalled_cycles(&mut self, delta: &CoreStats, span: u64) {
        self.stats.add_scaled(delta, span);
    }

    /// Resets the statistics counters (used at the end of warm-up) while
    /// keeping all microarchitectural state.
    pub fn reset_stats(&mut self) {
        self.stats = CoreStats::default();
    }

    /// Codes every field the model mutates (snapshot images); the
    /// configuration is the restoring system's.
    ///
    /// # Errors
    ///
    /// Decoding: a malformed image.
    pub fn image(&mut self, io: &mut impl Io) -> Result<(), ImageError> {
        io.u64(&mut self.head_seq)?;
        io.u64(&mut self.next_seq)?;
        deque(io, &mut self.pending_loads, Io::u64)?;
        io.usize(&mut self.store_buffer_used)?;
        io.u32(&mut self.pending_bubble)?;
        opt(io, &mut self.deferred, |io, r| r.image(io))?;
        self.stats.image(io)
    }

    /// Simulates one cycle: retire, then dispatch.
    ///
    /// `issue` is called for every memory access the core wants to start this
    /// cycle; it returns `false` if the memory hierarchy cannot accept the
    /// request (the core will retry next cycle).
    pub fn cycle(
        &mut self,
        trace: &mut dyn TraceSource,
        issue: &mut dyn FnMut(CoreRequest) -> bool,
    ) {
        self.stats.cycles += 1;
        self.retire();
        self.dispatch(trace, issue);
    }

    /// Marks the load with completion token `token` as done.
    pub fn complete_load(&mut self, token: u64) {
        // `pending_loads` is sorted (tokens are assigned in program order);
        // a token that is absent was already completed or retired.
        if let Ok(index) = self.pending_loads.binary_search(&token) {
            self.pending_loads.remove(index);
        }
    }

    /// Marks the store with completion token `token` as having left the store
    /// buffer (its write has been accepted by the L1).
    pub fn complete_store(&mut self, _token: u64) {
        self.store_buffer_used = self.store_buffer_used.saturating_sub(1);
    }

    fn retire(&mut self) {
        let mut budget = self.config.retire_width as u64;
        while budget > 0 {
            if self.head_seq == self.next_seq {
                break; // ROB empty
            }
            // Everything before the oldest incomplete load retires freely.
            let barrier = self.pending_loads.front().copied().unwrap_or(self.next_seq);
            if barrier == self.head_seq {
                self.stats.head_blocked_cycles += 1;
                break;
            }
            let run = (barrier - self.head_seq).min(budget);
            self.head_seq += run;
            self.stats.retired += run;
            budget -= run;
        }
    }

    fn dispatch(
        &mut self,
        trace: &mut dyn TraceSource,
        issue: &mut dyn FnMut(CoreRequest) -> bool,
    ) {
        let mut slots = self.config.dispatch_width;
        while slots > 0 {
            if self.rob_len() >= self.config.rob_entries {
                self.stats.rob_full_stalls += 1;
                return;
            }
            // Drain pending non-memory instructions first — a whole run in
            // one arithmetic step, bounded by the dispatch width and the
            // remaining ROB space.
            if self.pending_bubble > 0 {
                let space = self.config.rob_entries - self.rob_len();
                let batch = (self.pending_bubble as usize).min(slots).min(space);
                self.pending_bubble -= batch as u32;
                self.next_seq += batch as u64;
                slots -= batch;
                continue;
            }
            // Fetch (or re-use the deferred) record.
            let record = match self.deferred.take() {
                Some(r) => r,
                None => {
                    let r = trace.next_record();
                    if r.bubble > 0 {
                        // Queue the bubble run and remember the memory
                        // instruction; the batch above dispatches the run
                        // starting with this slot.
                        self.pending_bubble = r.bubble;
                        self.deferred = Some(TraceRecord { bubble: 0, ..r });
                        continue;
                    }
                    r
                }
            };
            match record.access {
                None => {
                    self.next_seq += 1;
                    slots -= 1;
                }
                Some(access) => {
                    let token = self.next_seq;
                    match access.kind {
                        MemKind::Load => {
                            let ok = issue(CoreRequest {
                                token,
                                kind: MemKind::Load,
                                addr: access.addr,
                                ip: record.ip,
                            });
                            if !ok {
                                self.stats.memory_backpressure_stalls += 1;
                                self.deferred = Some(record);
                                return;
                            }
                            self.stats.loads_issued += 1;
                            self.pending_loads.push_back(token);
                            self.next_seq += 1;
                            slots -= 1;
                        }
                        MemKind::Store => {
                            if self.store_buffer_used >= self.config.store_buffer_entries {
                                self.stats.store_buffer_stalls += 1;
                                self.deferred = Some(record);
                                return;
                            }
                            let ok = issue(CoreRequest {
                                token,
                                kind: MemKind::Store,
                                addr: access.addr,
                                ip: record.ip,
                            });
                            if !ok {
                                self.stats.memory_backpressure_stalls += 1;
                                self.deferred = Some(record);
                                return;
                            }
                            self.stats.stores_issued += 1;
                            self.store_buffer_used += 1;
                            // Stores retire without waiting for memory.
                            self.next_seq += 1;
                            slots -= 1;
                        }
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::{TraceRecord, VecTrace};

    fn compute_trace() -> VecTrace {
        VecTrace::new("compute", vec![TraceRecord::compute(0x400, 3)])
    }

    #[test]
    fn pure_compute_reaches_dispatch_width_ipc() {
        let mut core = Core::new(CoreConfig::baseline());
        let mut trace = compute_trace();
        let mut issue = |_req: CoreRequest| true;
        for _ in 0..1_000 {
            core.cycle(&mut trace, &mut issue);
        }
        let ipc = core.stats().ipc();
        assert!(ipc > 3.8, "compute-only IPC should approach the 4-wide limit, got {ipc}");
    }

    #[test]
    fn pending_load_blocks_retirement_until_completed() {
        let mut core = Core::new(CoreConfig {
            rob_entries: 16,
            dispatch_width: 1,
            retire_width: 1,
            store_buffer_entries: 4,
        });
        let mut trace = VecTrace::new("loads", vec![TraceRecord::load(0x10, 0, 0x1000)]);
        let mut tokens = Vec::new();
        let mut issue = |req: CoreRequest| {
            tokens.push(req.token);
            true
        };
        for _ in 0..20 {
            core.cycle(&mut trace, &mut issue);
        }
        // Every dispatched instruction is an un-completed load: nothing retires.
        assert_eq!(core.retired(), 0);
        assert!(core.stats().head_blocked_cycles > 0);
        let first = tokens[0];
        core.complete_load(first);
        let mut issue2 = |_req: CoreRequest| true;
        core.cycle(&mut trace, &mut issue2);
        assert_eq!(core.retired(), 1);
    }

    #[test]
    fn rob_fills_when_loads_never_complete() {
        let cfg = CoreConfig {
            rob_entries: 8,
            dispatch_width: 4,
            retire_width: 4,
            store_buffer_entries: 4,
        };
        let mut core = Core::new(cfg);
        let mut trace = VecTrace::new("loads", vec![TraceRecord::load(0x10, 0, 0x1000)]);
        let mut issue = |_req: CoreRequest| true;
        for _ in 0..10 {
            core.cycle(&mut trace, &mut issue);
        }
        assert!(core.stats().rob_full_stalls > 0);
        assert_eq!(core.retired(), 0);
    }

    #[test]
    fn store_buffer_backpressure_stalls_dispatch() {
        let mut core = Core::new(CoreConfig {
            rob_entries: 64,
            dispatch_width: 2,
            retire_width: 2,
            store_buffer_entries: 2,
        });
        let mut trace = VecTrace::new("stores", vec![TraceRecord::store(0x20, 0, 0x2000)]);
        let mut issue = |_req: CoreRequest| true;
        for _ in 0..10 {
            core.cycle(&mut trace, &mut issue);
        }
        // Only two stores fit in the store buffer; the rest stall.
        assert_eq!(core.stats().stores_issued, 2);
        assert!(core.stats().store_buffer_stalls > 0);
        // Stores do retire (they do not block the ROB head).
        assert!(core.retired() >= 2);
        core.complete_store(0);
        core.complete_store(1);
        for _ in 0..5 {
            core.cycle(&mut trace, &mut issue);
        }
        assert!(core.stats().stores_issued >= 4);
    }

    #[test]
    fn memory_backpressure_is_retried() {
        let mut core = Core::new(CoreConfig::baseline());
        let mut trace = VecTrace::new("loads", vec![TraceRecord::load(0x10, 0, 0x40)]);
        let mut refuse = |_req: CoreRequest| false;
        for _ in 0..5 {
            core.cycle(&mut trace, &mut refuse);
        }
        assert_eq!(core.stats().loads_issued, 0);
        assert!(core.stats().memory_backpressure_stalls > 0);
        // Once memory accepts again, the deferred load issues exactly once per record.
        let mut accept = |_req: CoreRequest| true;
        core.cycle(&mut trace, &mut accept);
        assert!(core.stats().loads_issued > 0);
    }

    #[test]
    fn bubbles_expand_to_the_right_instruction_count() {
        let mut core = Core::new(CoreConfig::baseline());
        let mut trace = VecTrace::new("bubbles", vec![TraceRecord::compute(0x30, 9)]);
        let mut issue = |_req: CoreRequest| true;
        for _ in 0..100 {
            core.cycle(&mut trace, &mut issue);
        }
        // 10 instructions per record; with width 4 over 100 cycles all retire.
        assert!(core.retired() >= 390);
    }

    /// The cycle-skipping engine's contract: once a core reports no progress
    /// (dispatched and retired both unchanged over a cycle), every further
    /// cycle with the same external conditions produces the same statistics
    /// delta — so `apply_stalled_cycles` is exactly equivalent to running
    /// the cycles one by one.
    #[test]
    fn stall_cycles_bulk_account_exactly() {
        let make = || {
            let mut core = Core::new(CoreConfig::baseline());
            let mut trace = VecTrace::new("loads", vec![TraceRecord::load(0x10, 0, 0x40)]);
            let mut refuse = |_req: CoreRequest| false;
            // Reach the stall fixed point (first cycle fetches the record).
            for _ in 0..2 {
                core.cycle(&mut trace, &mut refuse);
            }
            (core, trace)
        };
        let (mut stepped, mut trace) = make();
        let before = *stepped.stats();
        let mut refuse = |_req: CoreRequest| false;
        stepped.cycle(&mut trace, &mut refuse);
        let delta = stepped.stats().minus(&before);
        assert_eq!(delta.cycles, 1);
        assert_eq!(delta.memory_backpressure_stalls, 1);
        assert_eq!(delta.retired, 0);
        // Step 9 more cycles on one core; bulk-account them on the other.
        for _ in 0..9 {
            stepped.cycle(&mut trace, &mut refuse);
        }
        let (mut bulk, mut trace2) = make();
        let mut refuse2 = |_req: CoreRequest| false;
        bulk.cycle(&mut trace2, &mut refuse2);
        bulk.apply_stalled_cycles(&delta, 9);
        assert_eq!(stepped.stats(), bulk.stats());
        assert_eq!(stepped.dispatched(), bulk.dispatched());
    }

    #[test]
    fn reset_stats_keeps_progressing() {
        let mut core = Core::new(CoreConfig::baseline());
        let mut trace = compute_trace();
        let mut issue = |_req: CoreRequest| true;
        for _ in 0..100 {
            core.cycle(&mut trace, &mut issue);
        }
        core.reset_stats();
        assert_eq!(core.retired(), 0);
        for _ in 0..100 {
            core.cycle(&mut trace, &mut issue);
        }
        assert!(core.retired() > 300);
    }
}

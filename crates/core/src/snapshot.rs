//! BSS1 snapshot images: versioned, checksummed captures of full simulation
//! state.
//!
//! A snapshot freezes everything a [`System`] mutates — core pipelines,
//! all three cache levels, the BLP-Tracker, MSHRs, the event ring, the DRAM
//! sub-channels with their queues and bank timing, and the workload trace
//! positions — into a self-describing byte image that can be restored into a
//! freshly-built system. Restoring and resuming is **bitwise-identical** to
//! never having stopped (`StressCase::assert_parity` in the `parity` suite
//! pins this on both engines). Each cache is stored as it holds itself: its
//! tag array, its 16-byte set words (replacement field plus valid, dirty,
//! prefetched and reused masks) and its replacement policy's own state,
//! which is SHiP's counter table and fill signatures. Decoding checks every
//! set word against its tags and policy. Host-side work counters (the
//! `engine.*` and `mshr.*` counts) are never stored; a restored system
//! counts from the restore.
//!
//! Two capture points exist:
//!
//! * **full** images (any cycle): restorable only into the *exact* semantic
//!   configuration they were captured under ([`full_digest`]), used for
//!   mid-run checkpoint / resume;
//! * **warm** images (right after the functional warm-up): restorable into
//!   any configuration sharing the warm-relevant fields ([`warm_digest`]) —
//!   cache geometry, seed, workload and warm-up length — so one warmed image
//!   **forks** across a whole policy/DRAM grid, skipping the warm-up work in
//!   every cell ([`SnapshotStore::obtain_warm`]).
//!
//! ## Container layout (BSS1)
//!
//! The on-disk/in-memory format follows the BTF trace container idiom
//! (`bard-trace`): a fixed header, a varint-encoded payload, and a trailing
//! FNV-1a checksum over every preceding byte. Corruption is **loud**: any
//! single-byte flip or truncation is rejected with a named
//! [`SnapshotError`], never silently accepted.
//!
//! ```text
//! magic "BSS1" | version u32 LE | flags u32 LE (bit0 = warm)
//! digest_full u64 LE | digest_warm u64 LE | payload_len u64 LE
//! payload (varint-encoded SystemImage)
//! checksum u64 LE (FNV-1a over all preceding bytes)
//! ```
//!
//! Images are pinned per format version, not across versions: a build
//! refuses any other [`VERSION`] by name ([`SnapshotError::Version`]), and
//! both digests carry the version, so a format change re-keys every
//! [`SnapshotStore`]. Its old images are never opened; the first grid of
//! the new build captures fresh ones.

use std::path::{Path, PathBuf};

use bard_cache::{
    CacheState, CacheStats, MshrEntryState, MshrState, Replacement, ReplacementKind, SetWord,
    StrideEntryState, StrideTableState, MAX_WAYS,
};
use bard_cpu::{CoreRequest, CoreState, CoreStats, MemAccess, MemKind, TraceRecord};
use bard_dram::{
    BankState, CompletedRead, ControllerState, QueuedRequestState, SubChannelState, SubChannelStats,
};
use bard_trace::format::{push_varint, unzigzag, zigzag, Fnv64};
use bard_workloads::WorkloadId;

use crate::blp_tracker::BlpTrackerState;
use crate::config::{EngineKind, SystemConfig};
use crate::llc::LlcState;
use crate::policy::PolicyStats;
use crate::system::System;

/// Magic bytes opening every snapshot image.
pub const MAGIC: [u8; 4] = *b"BSS1";

/// Current container version. Bump on any layout change; decoding refuses
/// other versions with [`SnapshotError::Version`], and both digests carry
/// it, so a store never looks up another version's images.
pub const VERSION: u32 = 3;

/// Header bytes before the payload (magic + version + flags + two digests +
/// payload length).
const HEADER_LEN: usize = 4 + 4 + 4 + 8 + 8 + 8;
/// Trailing checksum bytes.
const TRAILER_LEN: usize = 8;
/// Flag bit marking a warm (forkable) image.
const FLAG_WARM: u32 = 1;

// ---------------------------------------------------------------------------
// Errors
// ---------------------------------------------------------------------------

/// Why a snapshot could not be decoded or restored.
#[derive(Debug)]
pub enum SnapshotError {
    /// The image does not start with the `BSS1` magic.
    BadMagic,
    /// The image was written by a different container version.
    Version {
        /// The version found in the image header.
        found: u32,
    },
    /// The trailing FNV-1a checksum does not match the image bytes.
    Checksum,
    /// The image ends before the declared content does.
    Truncated {
        /// Byte offset at which data ran out.
        offset: usize,
    },
    /// The payload is structurally invalid (despite a valid checksum).
    Format {
        /// Byte offset (within the payload) of the offending data.
        offset: usize,
        /// What was wrong.
        message: String,
    },
    /// The image is valid but does not match the restore-time configuration.
    Incompatible {
        /// Which digest or precondition failed.
        reason: String,
    },
    /// An I/O error while reading or publishing an image file.
    Io(std::io::Error),
}

impl std::fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::BadMagic => write!(f, "not a BSS1 snapshot (bad magic)"),
            Self::Version { found } => {
                write!(f, "unsupported snapshot version {found} (expected {VERSION})")
            }
            Self::Checksum => write!(f, "snapshot checksum mismatch (corrupt image)"),
            Self::Truncated { offset } => {
                write!(f, "snapshot truncated at byte {offset}")
            }
            Self::Format { offset, message } => {
                write!(f, "malformed snapshot payload at byte {offset}: {message}")
            }
            Self::Incompatible { reason } => {
                write!(f, "snapshot incompatible with this configuration: {reason}")
            }
            Self::Io(e) => write!(f, "snapshot i/o error: {e}"),
        }
    }
}

impl std::error::Error for SnapshotError {}

impl From<std::io::Error> for SnapshotError {
    fn from(e: std::io::Error) -> Self {
        Self::Io(e)
    }
}

// ---------------------------------------------------------------------------
// Payload codec primitives
// ---------------------------------------------------------------------------

/// Payload encoder: varints for integers, zigzag for signed values.
pub(crate) struct Enc {
    buf: Vec<u8>,
}

impl Enc {
    fn new() -> Self {
        Self { buf: Vec::new() }
    }

    fn u64(&mut self, v: u64) {
        push_varint(&mut self.buf, v);
    }

    fn usize(&mut self, v: usize) {
        self.u64(v as u64);
    }

    fn u32(&mut self, v: u32) {
        self.u64(u64::from(v));
    }

    fn u16(&mut self, v: u16) {
        self.u64(u64::from(v));
    }

    fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    fn bool(&mut self, v: bool) {
        self.buf.push(u8::from(v));
    }

    fn i64(&mut self, v: i64) {
        self.u64(zigzag(v));
    }

    fn opt_u64(&mut self, v: Option<u64>) {
        match v {
            Some(x) => {
                self.bool(true);
                self.u64(x);
            }
            None => self.bool(false),
        }
    }

    fn u64s(&mut self, vs: &[u64]) {
        self.usize(vs.len());
        for &v in vs {
            self.u64(v);
        }
    }
}

/// Payload decoder; every read fails loudly with the offending offset.
pub(crate) struct Dec<'a> {
    buf: &'a [u8], // bard-lint: allow(S1) -- decoder cursor over an image, not snapshot state
    pos: usize,    // bard-lint: allow(S1) -- decoder cursor over an image, not snapshot state
}

impl<'a> Dec<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    fn format(&self, message: impl Into<String>) -> SnapshotError {
        SnapshotError::Format { offset: self.pos, message: message.into() }
    }

    fn u8(&mut self) -> Result<u8, SnapshotError> {
        let b = *self.buf.get(self.pos).ok_or(SnapshotError::Truncated { offset: self.pos })?;
        self.pos += 1;
        Ok(b)
    }

    fn u64(&mut self) -> Result<u64, SnapshotError> {
        let mut v = 0u64;
        let mut shift = 0u32;
        loop {
            let b = self.u8()?;
            if shift == 63 && b > 1 {
                return Err(self.format("varint overflows u64"));
            }
            v |= u64::from(b & 0x7F) << shift;
            if b & 0x80 == 0 {
                return Ok(v);
            }
            shift += 7;
            if shift > 63 {
                return Err(self.format("varint longer than 10 bytes"));
            }
        }
    }

    fn usize(&mut self) -> Result<usize, SnapshotError> {
        let v = self.u64()?;
        usize::try_from(v).map_err(|_| self.format("length does not fit usize"))
    }

    /// A length that will be used to reserve memory: bounded by the bytes
    /// actually remaining so a corrupt length cannot force a huge
    /// allocation.
    fn len(&mut self) -> Result<usize, SnapshotError> {
        let v = self.usize()?;
        if v > self.buf.len().saturating_sub(self.pos) {
            return Err(self.format(format!("declared {v} elements exceed remaining bytes")));
        }
        Ok(v)
    }

    fn u32(&mut self) -> Result<u32, SnapshotError> {
        let v = self.u64()?;
        u32::try_from(v).map_err(|_| self.format("value does not fit u32"))
    }

    fn u16(&mut self) -> Result<u16, SnapshotError> {
        let v = self.u64()?;
        u16::try_from(v).map_err(|_| self.format("value does not fit u16"))
    }

    fn bool(&mut self) -> Result<bool, SnapshotError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            other => Err(self.format(format!("boolean byte must be 0 or 1, found {other}"))),
        }
    }

    fn i64(&mut self) -> Result<i64, SnapshotError> {
        Ok(unzigzag(self.u64()?))
    }

    fn opt_u64(&mut self) -> Result<Option<u64>, SnapshotError> {
        Ok(if self.bool()? { Some(self.u64()?) } else { None })
    }

    fn u64s(&mut self) -> Result<Vec<u64>, SnapshotError> {
        let n = self.len()?;
        (0..n).map(|_| self.u64()).collect()
    }

    fn finish(&self) -> Result<(), SnapshotError> {
        if self.pos == self.buf.len() {
            Ok(())
        } else {
            Err(SnapshotError::Format {
                offset: self.pos,
                message: format!("{} trailing payload bytes", self.buf.len() - self.pos),
            })
        }
    }
}

// ---------------------------------------------------------------------------
// The in-memory image
// ---------------------------------------------------------------------------

/// Plain-data image of one core's slice of the system.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct CoreImage {
    pub core: CoreState,
    /// Trace records consumed so far; the restore rebuilds the generator and
    /// fast-forwards it by this count.
    pub consumed: u64,
    pub l1d: CacheState,
    pub l2: CacheState,
    pub l1_prefetcher: Option<StrideTableState>,
    pub retry: Vec<CoreRequest>,
    pub finish_cycle: Option<u64>,
    pub retired_at_measure_start: u64,
}

/// One scheduled completion event, stored as its cycle delta from the
/// capture cycle (slot order and intra-slot insertion order preserved).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct EventImage {
    pub delta: u64,
    pub store: bool,
    pub core: u64,
    pub token: u64,
}

/// Mid-run driver progress (`System::run_to_pause` state machine).
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct ProgressImage {
    /// 0 = timed warm-up stage, 1 = measure stage.
    pub stage: u8,
    pub timed_warmup: u64,
    pub measure: u64,
    pub start_retired: Vec<u64>,
    pub guard: u64,
    pub measure_start_cycle: u64,
}

/// The complete semantic state of a [`System`], as plain data. Derived
/// structures (cache tag indices, DRAM pending-write counts, wake masks) are
/// intentionally absent: the restore rebuilds them.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct SystemImage {
    pub cycle: u64,
    pub cores: Vec<CoreImage>,
    pub llc: LlcState,
    pub mcs: Vec<ControllerState>,
    pub inflight: MshrState,
    pub dram_pending: Vec<u64>,
    pub writeback_pending: Vec<u64>,
    pub events: Vec<EventImage>,
    pub progress: Option<ProgressImage>,
}

// ---------------------------------------------------------------------------
// Struct-by-struct codec
// ---------------------------------------------------------------------------

fn enc_trace_record(e: &mut Enc, r: &TraceRecord) {
    e.u64(r.ip);
    e.u32(r.bubble);
    match r.access {
        None => e.u8(0),
        Some(a) => {
            e.u8(if a.is_store() { 2 } else { 1 });
            e.u64(a.addr);
        }
    }
}

fn dec_trace_record(d: &mut Dec) -> Result<TraceRecord, SnapshotError> {
    let ip = d.u64()?;
    let bubble = d.u32()?;
    let access = match d.u8()? {
        0 => None,
        1 => Some(MemAccess::load(d.u64()?)),
        2 => Some(MemAccess::store(d.u64()?)),
        other => return Err(d.format(format!("invalid access tag {other}"))),
    };
    Ok(TraceRecord { ip, bubble, access })
}

fn enc_core_stats(e: &mut Enc, s: &CoreStats) {
    e.u64(s.cycles);
    e.u64(s.retired);
    e.u64(s.head_blocked_cycles);
    e.u64(s.rob_full_stalls);
    e.u64(s.store_buffer_stalls);
    e.u64(s.memory_backpressure_stalls);
    e.u64(s.loads_issued);
    e.u64(s.stores_issued);
}

fn dec_core_stats(d: &mut Dec) -> Result<CoreStats, SnapshotError> {
    Ok(CoreStats {
        cycles: d.u64()?,
        retired: d.u64()?,
        head_blocked_cycles: d.u64()?,
        rob_full_stalls: d.u64()?,
        store_buffer_stalls: d.u64()?,
        memory_backpressure_stalls: d.u64()?,
        loads_issued: d.u64()?,
        stores_issued: d.u64()?,
    })
}

fn enc_core_state(e: &mut Enc, s: &CoreState) {
    e.u64(s.head_seq);
    e.u64(s.next_seq);
    e.u64s(&s.pending_loads);
    e.u64(s.store_buffer_used);
    e.u32(s.pending_bubble);
    match &s.deferred {
        None => e.bool(false),
        Some(r) => {
            e.bool(true);
            enc_trace_record(e, r);
        }
    }
    enc_core_stats(e, &s.stats);
}

fn dec_core_state(d: &mut Dec) -> Result<CoreState, SnapshotError> {
    Ok(CoreState {
        head_seq: d.u64()?,
        next_seq: d.u64()?,
        pending_loads: d.u64s()?,
        store_buffer_used: d.u64()?,
        pending_bubble: d.u32()?,
        deferred: if d.bool()? { Some(dec_trace_record(d)?) } else { None },
        stats: dec_core_stats(d)?,
    })
}

fn enc_cache_stats(e: &mut Enc, s: &CacheStats) {
    e.u64(s.loads);
    e.u64(s.load_hits);
    e.u64(s.stores);
    e.u64(s.stores_hits);
    e.u64(s.writeback_accesses);
    e.u64(s.fills);
    e.u64(s.clean_evictions);
    e.u64(s.dirty_evictions);
    e.u64(s.cleanses);
    e.u64(s.prefetch_fills);
    e.u64(s.prefetch_useful);
}

fn dec_cache_stats(d: &mut Dec) -> Result<CacheStats, SnapshotError> {
    Ok(CacheStats {
        loads: d.u64()?,
        load_hits: d.u64()?,
        stores: d.u64()?,
        stores_hits: d.u64()?,
        writeback_accesses: d.u64()?,
        fills: d.u64()?,
        clean_evictions: d.u64()?,
        dirty_evictions: d.u64()?,
        cleanses: d.u64()?,
        prefetch_fills: d.u64()?,
        prefetch_useful: d.u64()?,
    })
}

fn enc_set_word(e: &mut Enc, w: &SetWord) {
    e.u64(w.repl);
    e.u16(w.valid);
    e.u16(w.dirty);
    e.u16(w.prefetched);
    e.u16(w.reused);
}

/// Decodes the word of the set whose tags are `tags`, checked against them
/// and the policy ([`SetWord::check`]).
fn dec_set_word(
    d: &mut Dec,
    kind: ReplacementKind,
    tags: &[u64],
) -> Result<SetWord, SnapshotError> {
    let word = SetWord {
        repl: d.u64()?,
        valid: d.u16()?,
        dirty: d.u16()?,
        prefetched: d.u16()?,
        reused: d.u16()?,
    };
    word.check(kind, tags).map_err(|message| d.format(message))?;
    Ok(word)
}

/// A cache as the cache holds it: its tag array (each tag stored plus one,
/// wrapping, so an invalid way's all-ones tag is the one-byte varint 0),
/// its policy's own state (SHiP's table and one signature per way), one
/// word per set and its statistics.
fn enc_cache_state(e: &mut Enc, s: &CacheState) {
    e.usize(s.tags.len());
    for &tag in &s.tags {
        e.u64(tag.wrapping_add(1));
    }
    match &s.replacement {
        Replacement::Lru => e.u8(0),
        Replacement::Srrip => e.u8(1),
        Replacement::Ship { shct, signatures } => {
            e.u8(2);
            e.usize(shct.len());
            e.buf.extend_from_slice(shct);
            for &signature in signatures {
                e.u16(signature);
            }
        }
    }
    e.usize(s.words.len());
    for w in &s.words {
        enc_set_word(e, w);
    }
    enc_cache_stats(e, &s.stats);
}

fn dec_cache_state(d: &mut Dec) -> Result<CacheState, SnapshotError> {
    let n = d.len()?;
    let tags: Vec<u64> =
        (0..n).map(|_| d.u64().map(|t| t.wrapping_sub(1))).collect::<Result<_, _>>()?;
    let replacement = match d.u8()? {
        0 => Replacement::Lru,
        1 => Replacement::Srrip,
        2 => {
            let n = d.len()?;
            let shct = (0..n).map(|_| d.u8()).collect::<Result<_, _>>()?;
            let signatures = (0..tags.len()).map(|_| d.u16()).collect::<Result<_, _>>()?;
            Replacement::Ship { shct, signatures }
        }
        other => return Err(d.format(format!("invalid replacement tag {other}"))),
    };
    let sets = d.len()?;
    let ways = tags.len().checked_div(sets).unwrap_or(0);
    if !(1..=MAX_WAYS).contains(&ways) || ways * sets != tags.len() {
        return Err(d.format(format!(
            "{} tags do not form {sets} sets of 1..={MAX_WAYS} ways",
            tags.len()
        )));
    }
    let kind = replacement.kind();
    let words =
        tags.chunks(ways).map(|set| dec_set_word(d, kind, set)).collect::<Result<_, _>>()?;
    Ok(CacheState { tags, words, replacement, stats: dec_cache_stats(d)? })
}

fn enc_stride_table(e: &mut Enc, t: &StrideTableState) {
    e.usize(t.entries.len());
    for s in &t.entries {
        e.u64(s.ip_tag);
        e.u64(s.last_addr);
        e.i64(s.stride);
        e.u8(s.confidence);
    }
}

fn dec_stride_table(d: &mut Dec) -> Result<StrideTableState, SnapshotError> {
    let n = d.len()?;
    let entries = (0..n)
        .map(|_| {
            Ok(StrideEntryState {
                ip_tag: d.u64()?,
                last_addr: d.u64()?,
                stride: d.i64()?,
                confidence: d.u8()?,
            })
        })
        .collect::<Result<_, SnapshotError>>()?;
    Ok(StrideTableState { entries })
}

fn enc_core_request(e: &mut Enc, r: &CoreRequest) {
    e.u64(r.token);
    e.bool(r.kind == MemKind::Store);
    e.u64(r.addr);
    e.u64(r.ip);
}

fn dec_core_request(d: &mut Dec) -> Result<CoreRequest, SnapshotError> {
    Ok(CoreRequest {
        token: d.u64()?,
        kind: if d.bool()? { MemKind::Store } else { MemKind::Load },
        addr: d.u64()?,
        ip: d.u64()?,
    })
}

fn enc_mshr(e: &mut Enc, m: &MshrState) {
    e.usize(m.entries.len());
    for entry in &m.entries {
        e.u64(entry.line);
        e.u64s(&entry.waiters);
        e.bool(entry.write_requested);
        e.bool(entry.prefetch_only);
    }
    e.u64(m.peak_occupancy);
    e.u64(m.merges);
}

fn dec_mshr(d: &mut Dec) -> Result<MshrState, SnapshotError> {
    let n = d.len()?;
    let entries = (0..n)
        .map(|_| {
            Ok(MshrEntryState {
                line: d.u64()?,
                waiters: d.u64s()?,
                write_requested: d.bool()?,
                prefetch_only: d.bool()?,
            })
        })
        .collect::<Result<_, SnapshotError>>()?;
    Ok(MshrState { entries, peak_occupancy: d.u64()?, merges: d.u64()? })
}

fn enc_policy_stats(e: &mut Enc, s: &PolicyStats) {
    e.u64(s.evictions);
    e.u64(s.dirty_victim_evictions);
    e.u64(s.overrides);
    e.u64(s.cleanses);
    e.u64(s.checked_decisions);
    e.u64(s.incorrect_decisions);
    e.u64(s.writebacks);
    e.u64(s.bank_broadcasts);
}

fn dec_policy_stats(d: &mut Dec) -> Result<PolicyStats, SnapshotError> {
    Ok(PolicyStats {
        evictions: d.u64()?,
        dirty_victim_evictions: d.u64()?,
        overrides: d.u64()?,
        cleanses: d.u64()?,
        checked_decisions: d.u64()?,
        incorrect_decisions: d.u64()?,
        writebacks: d.u64()?,
        bank_broadcasts: d.u64()?,
    })
}

fn enc_llc(e: &mut Enc, s: &LlcState) {
    e.usize(s.slices.len());
    for slice in &s.slices {
        enc_cache_state(e, slice);
    }
    e.u64s(&s.tracker.bits);
    e.u64(s.tracker.set_events);
    e.u64(s.tracker.reset_events);
    enc_policy_stats(e, &s.stats);
}

fn dec_llc(d: &mut Dec) -> Result<LlcState, SnapshotError> {
    let n = d.len()?;
    let slices = (0..n).map(|_| dec_cache_state(d)).collect::<Result<_, _>>()?;
    Ok(LlcState {
        slices,
        tracker: BlpTrackerState { bits: d.u64s()?, set_events: d.u64()?, reset_events: d.u64()? },
        stats: dec_policy_stats(d)?,
    })
}

fn enc_bank(e: &mut Enc, b: &BankState) {
    e.opt_u64(b.open_row);
    e.u64(b.act_ok_at);
    e.u64(b.pre_ok_at);
    e.u64(b.cas_ok_at);
    e.bool(b.auto_precharge);
    e.u64(b.activations);
}

fn dec_bank(d: &mut Dec) -> Result<BankState, SnapshotError> {
    Ok(BankState {
        open_row: d.opt_u64()?,
        act_ok_at: d.u64()?,
        pre_ok_at: d.u64()?,
        cas_ok_at: d.u64()?,
        auto_precharge: d.bool()?,
        activations: d.u64()?,
    })
}

fn enc_queued(e: &mut Enc, q: &QueuedRequestState) {
    e.u64(q.id);
    e.bool(q.write);
    e.u64(q.addr);
    e.u64(q.core);
    e.u64(q.enqueue_cycle);
    e.u8(q.outcome);
    e.u64(q.order);
}

fn dec_queued(d: &mut Dec) -> Result<QueuedRequestState, SnapshotError> {
    let q = QueuedRequestState {
        id: d.u64()?,
        write: d.bool()?,
        addr: d.u64()?,
        core: d.u64()?,
        enqueue_cycle: d.u64()?,
        outcome: d.u8()?,
        order: d.u64()?,
    };
    if q.outcome > 3 {
        return Err(d.format(format!("invalid request outcome {}", q.outcome)));
    }
    Ok(q)
}

fn enc_completed(e: &mut Enc, c: &CompletedRead) {
    e.u64(c.id);
    e.u64(c.addr);
    e.usize(c.core);
    e.u64(c.ready_cycle);
    e.u64(c.latency);
}

fn dec_completed(d: &mut Dec) -> Result<CompletedRead, SnapshotError> {
    Ok(CompletedRead {
        id: d.u64()?,
        addr: d.u64()?,
        core: d.usize()?,
        ready_cycle: d.u64()?,
        latency: d.u64()?,
    })
}

fn enc_sub_stats(e: &mut Enc, s: &SubChannelStats) {
    e.u64(s.cycles);
    e.u64(s.write_mode_cycles);
    e.u64(s.busy_cycles);
    e.u64(s.reads);
    e.u64(s.writes);
    e.u64(s.read_latency_cycles);
    e.u64(s.read_row_hits);
    e.u64(s.read_row_misses);
    e.u64(s.read_row_conflicts);
    e.u64(s.write_row_hits);
    e.u64(s.write_row_misses);
    e.u64(s.write_row_conflicts);
    e.u64(s.activates);
    e.u64(s.precharges);
    e.u64(s.refreshes);
    e.u64(s.drain_episodes);
    e.u64(s.drain_writes);
    e.u64(s.drain_unique_banks);
    e.u64(s.drain_cycles);
    e.u64(s.write_to_write_gap_cycles);
    e.u64(s.write_to_write_gaps);
    e.u64(s.write_queue_full_events);
}

fn dec_sub_stats(d: &mut Dec) -> Result<SubChannelStats, SnapshotError> {
    Ok(SubChannelStats {
        cycles: d.u64()?,
        write_mode_cycles: d.u64()?,
        busy_cycles: d.u64()?,
        reads: d.u64()?,
        writes: d.u64()?,
        read_latency_cycles: d.u64()?,
        read_row_hits: d.u64()?,
        read_row_misses: d.u64()?,
        read_row_conflicts: d.u64()?,
        write_row_hits: d.u64()?,
        write_row_misses: d.u64()?,
        write_row_conflicts: d.u64()?,
        activates: d.u64()?,
        precharges: d.u64()?,
        refreshes: d.u64()?,
        drain_episodes: d.u64()?,
        drain_writes: d.u64()?,
        drain_unique_banks: d.u64()?,
        drain_cycles: d.u64()?,
        write_to_write_gap_cycles: d.u64()?,
        write_to_write_gaps: d.u64()?,
        write_queue_full_events: d.u64()?,
    })
}

fn enc_subchannel(e: &mut Enc, s: &SubChannelState) {
    e.usize(s.reads.len());
    for q in &s.reads {
        enc_queued(e, q);
    }
    e.usize(s.writes.len());
    for q in &s.writes {
        enc_queued(e, q);
    }
    e.u64(s.next_order);
    e.usize(s.banks.len());
    for b in &s.banks {
        enc_bank(e, b);
    }
    e.u64s(&s.bg_rd_ok);
    e.u64s(&s.bg_wr_ok);
    e.u64s(&s.bg_act_ok);
    e.u64(s.sub_rd_ok);
    e.u64(s.sub_wr_ok);
    e.u64(s.sub_act_ok);
    e.u64s(&s.faw_window);
    e.bool(s.write_drain);
    e.u64(s.episode_banks);
    e.u64(s.episode_writes);
    e.u64(s.episode_start);
    e.u64(s.episode_gap_sum);
    e.u64(s.episode_gaps);
    e.opt_u64(s.last_write_issue);
    e.u64(s.next_refresh_at);
    e.usize(s.completed.len());
    for c in &s.completed {
        enc_completed(e, c);
    }
    enc_sub_stats(e, &s.stats);
    e.u64(s.settled_to);
}

fn dec_subchannel(d: &mut Dec) -> Result<SubChannelState, SnapshotError> {
    let rn = d.len()?;
    let reads = (0..rn).map(|_| dec_queued(d)).collect::<Result<_, _>>()?;
    let wn = d.len()?;
    let writes = (0..wn).map(|_| dec_queued(d)).collect::<Result<_, _>>()?;
    let next_order = d.u64()?;
    let bn = d.len()?;
    let banks = (0..bn).map(|_| dec_bank(d)).collect::<Result<_, _>>()?;
    Ok(SubChannelState {
        reads,
        writes,
        next_order,
        banks,
        bg_rd_ok: d.u64s()?,
        bg_wr_ok: d.u64s()?,
        bg_act_ok: d.u64s()?,
        sub_rd_ok: d.u64()?,
        sub_wr_ok: d.u64()?,
        sub_act_ok: d.u64()?,
        faw_window: d.u64s()?,
        write_drain: d.bool()?,
        episode_banks: d.u64()?,
        episode_writes: d.u64()?,
        episode_start: d.u64()?,
        episode_gap_sum: d.u64()?,
        episode_gaps: d.u64()?,
        last_write_issue: d.opt_u64()?,
        next_refresh_at: d.u64()?,
        completed: {
            let n = d.len()?;
            (0..n).map(|_| dec_completed(d)).collect::<Result<_, _>>()?
        },
        stats: dec_sub_stats(d)?,
        settled_to: d.u64()?,
    })
}

fn enc_core_image(e: &mut Enc, c: &CoreImage) {
    enc_core_state(e, &c.core);
    e.u64(c.consumed);
    enc_cache_state(e, &c.l1d);
    enc_cache_state(e, &c.l2);
    match &c.l1_prefetcher {
        None => e.bool(false),
        Some(t) => {
            e.bool(true);
            enc_stride_table(e, t);
        }
    }
    e.usize(c.retry.len());
    for r in &c.retry {
        enc_core_request(e, r);
    }
    e.opt_u64(c.finish_cycle);
    e.u64(c.retired_at_measure_start);
}

fn dec_core_image(d: &mut Dec) -> Result<CoreImage, SnapshotError> {
    Ok(CoreImage {
        core: dec_core_state(d)?,
        consumed: d.u64()?,
        l1d: dec_cache_state(d)?,
        l2: dec_cache_state(d)?,
        l1_prefetcher: if d.bool()? { Some(dec_stride_table(d)?) } else { None },
        retry: {
            let n = d.len()?;
            (0..n).map(|_| dec_core_request(d)).collect::<Result<_, _>>()?
        },
        finish_cycle: d.opt_u64()?,
        retired_at_measure_start: d.u64()?,
    })
}

pub(crate) fn encode_image(image: &SystemImage) -> Vec<u8> {
    let mut e = Enc::new();
    e.u64(image.cycle);
    e.usize(image.cores.len());
    for c in &image.cores {
        enc_core_image(&mut e, c);
    }
    enc_llc(&mut e, &image.llc);
    e.usize(image.mcs.len());
    for mc in &image.mcs {
        e.usize(mc.subchannels.len());
        for s in &mc.subchannels {
            enc_subchannel(&mut e, s);
        }
    }
    enc_mshr(&mut e, &image.inflight);
    e.u64s(&image.dram_pending);
    e.u64s(&image.writeback_pending);
    e.usize(image.events.len());
    for ev in &image.events {
        e.u64(ev.delta);
        e.bool(ev.store);
        e.u64(ev.core);
        e.u64(ev.token);
    }
    match &image.progress {
        None => e.bool(false),
        Some(p) => {
            e.bool(true);
            e.u8(p.stage);
            e.u64(p.timed_warmup);
            e.u64(p.measure);
            e.u64s(&p.start_retired);
            e.u64(p.guard);
            e.u64(p.measure_start_cycle);
        }
    }
    e.buf
}

pub(crate) fn decode_image(payload: &[u8]) -> Result<SystemImage, SnapshotError> {
    let mut d = Dec::new(payload);
    let cycle = d.u64()?;
    let cn = d.len()?;
    let cores = (0..cn).map(|_| dec_core_image(&mut d)).collect::<Result<_, _>>()?;
    let llc = dec_llc(&mut d)?;
    let mn = d.len()?;
    let mcs = (0..mn)
        .map(|_| {
            let sn = d.len()?;
            let subchannels = (0..sn).map(|_| dec_subchannel(&mut d)).collect::<Result<_, _>>()?;
            Ok(ControllerState { subchannels })
        })
        .collect::<Result<_, SnapshotError>>()?;
    let inflight = dec_mshr(&mut d)?;
    let dram_pending = d.u64s()?;
    let writeback_pending = d.u64s()?;
    let en = d.len()?;
    let events = (0..en)
        .map(|_| {
            Ok(EventImage { delta: d.u64()?, store: d.bool()?, core: d.u64()?, token: d.u64()? })
        })
        .collect::<Result<_, SnapshotError>>()?;
    let progress = if d.bool()? {
        let stage = d.u8()?;
        if stage > 1 {
            return Err(d.format(format!("invalid progress stage {stage}")));
        }
        Some(ProgressImage {
            stage,
            timed_warmup: d.u64()?,
            measure: d.u64()?,
            start_retired: d.u64s()?,
            guard: d.u64()?,
            measure_start_cycle: d.u64()?,
        })
    } else {
        None
    };
    d.finish()?;
    Ok(SystemImage {
        cycle,
        cores,
        llc,
        mcs,
        inflight,
        dram_pending,
        writeback_pending,
        events,
        progress,
    })
}

// ---------------------------------------------------------------------------
// Digests
// ---------------------------------------------------------------------------

/// Digest identifying the exact semantic configuration of a run. Two configs
/// with the same full digest produce bitwise-identical simulations, so a
/// full image captured under one restores into the other. Fields that never
/// affect results — the engine and the trace archive — are normalised away.
#[must_use]
pub fn full_digest(config: &SystemConfig, workload: WorkloadId) -> u64 {
    let mut c = config.clone();
    c.engine = EngineKind::Step;
    c.trace = None;
    let mut h = Fnv64::new();
    h.update(format!("full{VERSION}|{}|{c:?}", workload.name()).as_bytes());
    h.finish()
}

/// Digest identifying the state produced by the functional warm-up: the
/// workload, seed, warm-up length, core count and the cache geometry the
/// warmed lines live in. Everything else — writeback policy, DRAM
/// parameters, prefetchers, MSHR/buffer sizes — does not influence the
/// warm-up (it is timing-free and policy-free), so one warm image forks
/// across all such variants.
#[must_use]
pub fn warm_digest(config: &SystemConfig, workload: WorkloadId, functional_warmup: u64) -> u64 {
    let mut h = Fnv64::new();
    h.update(
        format!(
            "warm{VERSION}|{}|{:#x}|{}|{}|{}x{}|{}x{}|{}x{}x{}|{}|{}",
            workload.name(),
            config.seed,
            functional_warmup,
            config.cores,
            config.l1d_bytes,
            config.l1d_ways,
            config.l2_bytes,
            config.l2_ways,
            config.llc_bytes,
            config.llc_ways,
            config.llc_slices,
            config.line_bytes,
            config.llc_replacement.name(),
        )
        .as_bytes(),
    );
    h.finish()
}

// ---------------------------------------------------------------------------
// The container
// ---------------------------------------------------------------------------

/// A captured system state: header metadata plus the encoded payload.
///
/// Produced by [`System::capture`] / [`System::capture_warm`]; consumed by
/// [`System::restore`] / [`System::restore_warm`]. Serialise with
/// [`Snapshot::to_bytes`], parse with [`Snapshot::from_bytes`].
#[derive(Debug, Clone, PartialEq)]
pub struct Snapshot {
    warm: bool,
    digest_full: u64,
    digest_warm: u64,
    payload: Vec<u8>,
}

impl Snapshot {
    pub(crate) fn new(warm: bool, digest_full: u64, digest_warm: u64, payload: Vec<u8>) -> Self {
        Self { warm, digest_full, digest_warm, payload }
    }

    /// True for warm (forkable) images captured right after the functional
    /// warm-up.
    #[must_use]
    pub fn is_warm(&self) -> bool {
        self.warm
    }

    /// Digest of the exact configuration the image was captured under.
    #[must_use]
    pub fn digest_full(&self) -> u64 {
        self.digest_full
    }

    /// Warm-compatibility digest (zero for full-only images).
    #[must_use]
    pub fn digest_warm(&self) -> u64 {
        self.digest_warm
    }

    pub(crate) fn payload(&self) -> &[u8] {
        &self.payload
    }

    /// Serialises the snapshot into the BSS1 container format.
    #[must_use]
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(HEADER_LEN + self.payload.len() + TRAILER_LEN);
        out.extend_from_slice(&MAGIC);
        out.extend_from_slice(&VERSION.to_le_bytes());
        let flags: u32 = if self.warm { FLAG_WARM } else { 0 };
        out.extend_from_slice(&flags.to_le_bytes());
        out.extend_from_slice(&self.digest_full.to_le_bytes());
        out.extend_from_slice(&self.digest_warm.to_le_bytes());
        out.extend_from_slice(&(self.payload.len() as u64).to_le_bytes());
        out.extend_from_slice(&self.payload);
        let mut h = Fnv64::new();
        h.update(&out);
        out.extend_from_slice(&h.finish().to_le_bytes());
        out
    }

    /// Parses a BSS1 container, verifying magic, version, length and
    /// checksum.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::BadMagic`] / [`SnapshotError::Version`] for foreign
    /// or stale images, [`SnapshotError::Truncated`] when bytes are missing,
    /// [`SnapshotError::Checksum`] on any corruption, and
    /// [`SnapshotError::Format`] for structurally impossible layouts.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, SnapshotError> {
        if bytes.len() < 4 {
            return Err(SnapshotError::Truncated { offset: bytes.len() });
        }
        if bytes[..4] != MAGIC {
            return Err(SnapshotError::BadMagic);
        }
        if bytes.len() < HEADER_LEN {
            return Err(SnapshotError::Truncated { offset: bytes.len() });
        }
        let version = u32::from_le_bytes(bytes[4..8].try_into().expect("4 bytes"));
        if version != VERSION {
            return Err(SnapshotError::Version { found: version });
        }
        let flags = u32::from_le_bytes(bytes[8..12].try_into().expect("4 bytes"));
        let digest_full = u64::from_le_bytes(bytes[12..20].try_into().expect("8 bytes"));
        let digest_warm = u64::from_le_bytes(bytes[20..28].try_into().expect("8 bytes"));
        let payload_len = u64::from_le_bytes(bytes[28..36].try_into().expect("8 bytes"));
        let payload_len = usize::try_from(payload_len).map_err(|_| SnapshotError::Format {
            offset: 28,
            message: "payload length does not fit usize".into(),
        })?;
        let total =
            HEADER_LEN.checked_add(payload_len).and_then(|n| n.checked_add(TRAILER_LEN)).ok_or(
                SnapshotError::Format { offset: 28, message: "payload length overflows".into() },
            )?;
        if bytes.len() < total {
            return Err(SnapshotError::Truncated { offset: bytes.len() });
        }
        if bytes.len() > total {
            return Err(SnapshotError::Format {
                offset: total,
                message: format!("{} trailing bytes after the checksum", bytes.len() - total),
            });
        }
        let mut h = Fnv64::new();
        h.update(&bytes[..total - TRAILER_LEN]);
        let stored = u64::from_le_bytes(bytes[total - TRAILER_LEN..].try_into().expect("8 bytes"));
        if h.finish() != stored {
            return Err(SnapshotError::Checksum);
        }
        if flags & !FLAG_WARM != 0 {
            return Err(SnapshotError::Format {
                offset: 8,
                message: format!("unknown flag bits {:#x}", flags & !FLAG_WARM),
            });
        }
        Ok(Self {
            warm: flags & FLAG_WARM != 0,
            digest_full,
            digest_warm,
            payload: bytes[HEADER_LEN..total - TRAILER_LEN].to_vec(),
        })
    }
}

// ---------------------------------------------------------------------------
// Content-addressed store
// ---------------------------------------------------------------------------

/// Current process-lifetime snapshot counters: `(images_written,
/// images_reused, warmup_instructions_skipped)`. The cells live in the
/// telemetry registry (`snapshot.images_written` and friends) and count
/// unconditionally — `repro`'s `summary.json` warm-fork rollup and the
/// `[bard-perf]` snapshot line read them whether or not telemetry is on.
#[must_use]
pub fn counters() -> (u64, u64, u64) {
    (
        // bard-lint: allow(T1) -- report-only read: feeds summary.json / [bard-perf] lines,
        // never a model decision.
        crate::telemetry::SNAPSHOT_IMAGES_WRITTEN.value(),
        // bard-lint: allow(T1) -- report-only read (same as above).
        crate::telemetry::SNAPSHOT_IMAGES_REUSED.value(),
        // bard-lint: allow(T1) -- report-only read (same as above).
        crate::telemetry::SNAPSHOT_WARMUP_INSTRUCTIONS_SKIPPED.value(),
    )
}

/// Renders the `[bard-perf]` snapshot summary line for the given counter
/// values (see [`format_counters_line`]).
#[must_use]
pub fn render_counters_line(written: u64, reused: u64, skipped: u64) -> String {
    format!(
        "[bard-perf] snapshot images_written={written} images_reused={reused} \
         warmup_instructions_skipped={skipped}"
    )
}

/// The `[bard-perf]` snapshot summary line for this process's counters.
#[must_use]
pub fn format_counters_line() -> String {
    let (written, reused, skipped) = counters();
    render_counters_line(written, reused, skipped)
}

/// Prints [`format_counters_line`] to stderr when `BARD_TELEMETRY` is
/// enabled (any non-empty value other than `"0"`; see
/// [`crate::telemetry::perf_line_enabled`]), mirroring the per-run
/// `[bard-perf]` lines the system emits. Drivers call this once after a
/// snapshot-backed grid completes.
pub fn print_counters_if_enabled() {
    if crate::telemetry::perf_line_enabled() {
        eprintln!("{}", format_counters_line());
    }
}

/// A content-addressed directory of warm snapshot images, keyed by
/// [`warm_digest`] the same way `bard-trace`'s `TraceStore` keys archives:
/// the digest is in the file name, so a stale image — including every image
/// of another format version, whose digests differ — is simply never looked
/// up again. Publication is atomic ([`bard_trace::publish_atomically`]), so
/// concurrent grid workers racing to warm the same image both succeed and
/// last-writer-wins with identical bytes.
#[derive(Debug, Clone)]
pub struct SnapshotStore {
    dir: PathBuf,
}

impl SnapshotStore {
    /// A store rooted at `dir` (created lazily on first publish).
    #[must_use]
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        Self { dir: dir.into() }
    }

    /// The store's root directory.
    #[must_use]
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The file a warm image for `(workload, digest)` lives at.
    #[must_use]
    pub fn warm_path(&self, workload: WorkloadId, digest: u64) -> PathBuf {
        self.dir.join(format!("{}.w{digest:016x}.bss", workload.name()))
    }

    /// Returns a system warmed with `functional_warmup` instructions per
    /// core: restored from an archived warm image when one matches
    /// ([`warm_digest`]), otherwise warmed live, captured and published for
    /// the next caller. Either way the caller continues with
    /// `run(0, timed_warmup, measure)` and obtains results bitwise-identical
    /// to a cold `run(functional_warmup, ...)`.
    ///
    /// # Errors
    ///
    /// Propagates decode errors from a corrupt archived image and I/O errors
    /// from publishing a fresh one.
    pub fn obtain_warm(
        &self,
        config: &SystemConfig,
        workload: WorkloadId,
        functional_warmup: u64,
    ) -> Result<System, SnapshotError> {
        let digest = warm_digest(config, workload, functional_warmup);
        let path = self.warm_path(workload, digest);
        if let Ok(bytes) = std::fs::read(&path) {
            let snapshot = Snapshot::from_bytes(&bytes)?;
            let system =
                System::restore_warm(config.clone(), workload, functional_warmup, &snapshot)?;
            crate::telemetry::SNAPSHOT_IMAGES_REUSED.add(1);
            crate::telemetry::SNAPSHOT_WARMUP_INSTRUCTIONS_SKIPPED
                .add(functional_warmup.saturating_mul(config.cores as u64));
            return Ok(system);
        }
        let mut system = System::new(config.clone(), workload);
        if functional_warmup > 0 {
            system.functional_warmup(functional_warmup);
        }
        let snapshot = system.capture_warm(functional_warmup);
        std::fs::create_dir_all(&self.dir)?;
        bard_trace::publish_atomically(&path, &[&snapshot.to_bytes()])?;
        crate::telemetry::SNAPSHOT_IMAGES_WRITTEN.add(1);
        Ok(system)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Snapshot {
        Snapshot::new(true, 0x1122_3344_5566_7788, 0x99aa_bbcc_ddee_ff00, vec![1, 2, 3, 4, 5])
    }

    #[test]
    fn container_round_trips() {
        let snap = sample();
        let bytes = snap.to_bytes();
        let parsed = Snapshot::from_bytes(&bytes).expect("round trip");
        assert_eq!(parsed, snap);
        assert!(parsed.is_warm());
        assert_eq!(parsed.digest_full(), 0x1122_3344_5566_7788);
        assert_eq!(parsed.digest_warm(), 0x99aa_bbcc_ddee_ff00);
    }

    #[test]
    fn every_single_byte_flip_is_rejected() {
        let bytes = sample().to_bytes();
        for i in 0..bytes.len() {
            let mut corrupt = bytes.clone();
            corrupt[i] ^= 0x01;
            assert!(
                Snapshot::from_bytes(&corrupt).is_err(),
                "byte flip at offset {i} must be rejected"
            );
        }
    }

    #[test]
    fn every_truncation_is_rejected() {
        let bytes = sample().to_bytes();
        for n in 0..bytes.len() {
            assert!(
                Snapshot::from_bytes(&bytes[..n]).is_err(),
                "truncation to {n} bytes must be rejected"
            );
        }
    }

    #[test]
    fn version_mismatch_is_refused_with_a_named_error() {
        // A newer version, and the retired versions 1 and 2.
        for version in [VERSION + 1, 1, 2] {
            let mut bytes = sample().to_bytes();
            bytes[4..8].copy_from_slice(&version.to_le_bytes());
            match Snapshot::from_bytes(&bytes) {
                Err(SnapshotError::Version { found }) => assert_eq!(found, version),
                other => panic!("expected Version error, got {other:?}"),
            }
        }
    }

    /// Encodes `state` as one cache of an image and decodes it back.
    fn cache_round_trip(state: &CacheState) -> Result<CacheState, SnapshotError> {
        let mut e = Enc::new();
        enc_cache_state(&mut e, state);
        let mut d = Dec::new(&e.buf);
        let decoded = dec_cache_state(&mut d)?;
        d.finish()?;
        Ok(decoded)
    }

    /// A cache of 4 sets x 4 ways under `kind` holding two lines of set 1
    /// (ways 0 and 1, way 0 dirty), as an image would carry it.
    fn set_1_with_two_lines(kind: ReplacementKind) -> CacheState {
        use bard_cache::{CacheConfig, SetAssocCache};
        let mut cache = SetAssocCache::new(CacheConfig::new(1024, 4, 64), kind);
        cache.fill(0x40, true, 9);
        cache.fill(0x140, false, 3);
        let state = cache.export_state();
        assert_eq!(cache_round_trip(&state).expect("a cache's own state decodes"), state);
        state
    }

    /// Decoding `state` must fail with a `Format` error naming `needle`.
    fn assert_format_error(state: &CacheState, needle: &str) {
        match cache_round_trip(state) {
            Err(SnapshotError::Format { message, .. }) => {
                assert!(message.contains(needle), "{message}");
            }
            other => panic!("expected a Format error naming {needle:?}, got {other:?}"),
        }
    }

    #[test]
    fn lru_field_that_is_not_a_permutation_is_a_format_error() {
        let good = set_1_with_two_lines(ReplacementKind::Lru);
        // A way listed twice, and a way listed above the four ranks.
        for repl in [good.words[1].repl & !0xf0, good.words[1].repl | 1 << 16] {
            let mut state = good.clone();
            state.words[1].repl = repl;
            assert_format_error(&state, "malformed LRU field");
        }
    }

    #[test]
    fn set_word_bits_at_or_above_the_ways_are_a_format_error() {
        let good = set_1_with_two_lines(ReplacementKind::Srrip);
        let mut state = good.clone();
        state.words[1].repl |= 1 << 8;
        assert_format_error(&state, "malformed SRRIP field");
        for mask in 0..4 {
            let mut state = good.clone();
            let word = &mut state.words[1];
            *[&mut word.valid, &mut word.dirty, &mut word.prefetched, &mut word.reused][mask] |=
                1 << 4;
            assert_format_error(&state, "at or above way 4");
        }
    }

    #[test]
    fn set_word_flagging_an_invalid_way_is_a_format_error() {
        let good = set_1_with_two_lines(ReplacementKind::Ship);
        for mask in 0..3 {
            let mut state = good.clone();
            let word = &mut state.words[1];
            *[&mut word.dirty, &mut word.prefetched, &mut word.reused][mask] |= 1 << 2;
            assert_format_error(&state, "flags an invalid way");
        }
    }

    #[test]
    fn set_word_valid_bit_that_disagrees_with_the_tag_is_a_format_error() {
        let good = set_1_with_two_lines(ReplacementKind::Lru);
        // A valid bit on an invalid tag, and a valid tag without its bit.
        for valid in [0b111, 0b010] {
            let mut state = good.clone();
            state.words[1].valid = valid;
            assert_format_error(&state, "disagrees with the tags");
        }
    }

    #[test]
    fn bad_magic_is_named() {
        assert!(matches!(Snapshot::from_bytes(b"BTF1rest"), Err(SnapshotError::BadMagic)));
        assert!(matches!(Snapshot::from_bytes(&[]), Err(SnapshotError::Truncated { offset: 0 })));
    }

    #[test]
    fn trailing_garbage_is_rejected() {
        let mut bytes = sample().to_bytes();
        bytes.push(0);
        assert!(matches!(Snapshot::from_bytes(&bytes), Err(SnapshotError::Format { .. })));
    }

    #[test]
    fn perf_counter_line_format_is_pinned() {
        assert_eq!(
            render_counters_line(3, 5, 1_000_000),
            "[bard-perf] snapshot images_written=3 images_reused=5 \
             warmup_instructions_skipped=1000000"
        );
        assert!(format_counters_line().starts_with("[bard-perf] snapshot images_written="));
    }

    #[test]
    fn digests_separate_semantic_from_cosmetic_fields() {
        let base = SystemConfig::small_test();
        let w = WorkloadId::Lbm;
        let full = full_digest(&base, w);
        // Cosmetic fields (engine, trace) never change it.
        assert_eq!(full, full_digest(&base.clone().with_engine(EngineKind::Step), w));
        let traced = base.clone().with_trace(Some(crate::TraceConfig::new("/tmp/t", 1000)));
        assert_eq!(full, full_digest(&traced, w));
        // Semantic fields do.
        assert_ne!(
            full,
            full_digest(&base.clone().with_policy(crate::policy::WritePolicyKind::BardH), w)
        );
        assert_ne!(full, full_digest(&base.clone().with_seed(7), w));
        assert_ne!(full, full_digest(&base, WorkloadId::Copy));

        let warm = warm_digest(&base, w, 10_000);
        // The warm digest forks across policies and DRAM variants...
        assert_eq!(
            warm,
            warm_digest(
                &base.clone().with_policy(crate::policy::WritePolicyKind::BardH),
                w,
                10_000
            )
        );
        let mut dram = base.clone();
        dram.dram.write_high_watermark = 20;
        assert_eq!(warm, warm_digest(&dram, w, 10_000));
        // ...but not across warm-relevant state.
        assert_ne!(warm, warm_digest(&base, w, 20_000));
        assert_ne!(warm, warm_digest(&base.clone().with_seed(7), w, 10_000));
        let mut small = base.clone();
        small.llc_bytes /= 2;
        assert_ne!(warm, warm_digest(&small, w, 10_000));
    }

    /// A scratch store directory, removed on drop.
    struct StoreDir(PathBuf);

    impl StoreDir {
        fn new(tag: &str) -> Self {
            let dir =
                std::env::temp_dir().join(format!("bard-snapshot-{tag}-{}", std::process::id()));
            let _ = std::fs::remove_dir_all(&dir);
            std::fs::create_dir_all(&dir).unwrap();
            Self(dir)
        }

        fn names(&self) -> Vec<std::ffi::OsString> {
            let mut names: Vec<_> =
                std::fs::read_dir(&self.0).unwrap().map(|e| e.unwrap().file_name()).collect();
            names.sort();
            names
        }
    }

    impl Drop for StoreDir {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }

    const WARMUP: u64 = 2_000;

    /// A store keys images by a digest that carries the format version, so
    /// it never opens what a version-1 or version-2 build left at that
    /// build's key: it captures a fresh image under the current key instead.
    #[test]
    fn obtain_warm_never_opens_a_version_1_image() {
        let dir = StoreDir::new("v1-key");
        let store = SnapshotStore::new(&dir.0);
        let (config, w) = (SystemConfig::small_test(), WorkloadId::Lbm);
        // The keys version-1 and version-2 builds gave this image.
        let stale: Vec<(PathBuf, Vec<u8>)> =
            [(1u32, 0xe9a1_e343_b38c_91f2), (2, 0xae1a_5f4f_4012_3e61)]
                .into_iter()
                .map(|(version, key)| {
                    let mut bytes = sample().to_bytes();
                    bytes[4..8].copy_from_slice(&version.to_le_bytes());
                    let path = store.warm_path(w, key);
                    std::fs::write(&path, &bytes).unwrap();
                    (path, bytes)
                })
                .collect();

        store.obtain_warm(&config, w, WARMUP).expect("a fresh capture, not a stale image");
        let fresh_path = store.warm_path(w, warm_digest(&config, w, WARMUP));
        let fresh = Snapshot::from_bytes(&std::fs::read(&fresh_path).unwrap()).unwrap();
        assert!(fresh.is_warm());
        for (path, bytes) in &stale {
            assert_ne!(&fresh_path, path);
            assert_eq!(&std::fs::read(path).unwrap(), bytes, "a stale image is untouched");
        }
        assert_eq!(dir.names().len(), 3);
    }

    /// A publish that cannot rename its image into place (a directory holds
    /// the path) fails and removes its temporary file.
    #[test]
    fn failed_publish_leaves_no_temporary_file() {
        let dir = StoreDir::new("failed-publish");
        let store = SnapshotStore::new(&dir.0);
        let (config, w) = (SystemConfig::small_test(), WorkloadId::Lbm);
        let path = store.warm_path(w, warm_digest(&config, w, WARMUP));
        std::fs::create_dir(&path).unwrap();
        assert!(store.obtain_warm(&config, w, WARMUP).is_err());
        assert_eq!(dir.names(), [path.file_name().unwrap()], "only the blocking directory");
    }

    #[test]
    fn store_paths_are_content_addressed() {
        let store = SnapshotStore::new("/tmp/bard-snapshots");
        let path = store.warm_path(WorkloadId::Lbm, 0xdead_beef);
        assert_eq!(path, Path::new("/tmp/bard-snapshots/lbm.w00000000deadbeef.bss"));
    }
}

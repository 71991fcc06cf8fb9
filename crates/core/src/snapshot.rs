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
    CacheState, CacheStats, MshrEntryState, MshrState, Replacement, SetWord, StrideEntryState,
    StrideTableState, MAX_WAYS,
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
use crate::system::{RunProgress, RunStage, System};

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

/// One direction of the payload codec. Each codec function below visits its
/// type's fields once, in payload order, through an `Io`: [`Enc`] appends
/// every field, [`Dec`] overwrites every field of a default-initialised
/// value with what it reads. Integers are varints, zigzagged when signed.
/// Decoding fails loudly with the offending offset; a live system's image
/// is well-formed, so encoding never fails.
trait Io {
    /// A varint.
    fn u64(&mut self, v: &mut u64) -> Result<(), SnapshotError>;

    /// One raw byte.
    fn u8(&mut self, v: &mut u8) -> Result<(), SnapshotError>;

    /// A length prefix. Decoding bounds it by the bytes left, so a corrupt
    /// length cannot force a huge allocation.
    fn len(&mut self, n: &mut usize) -> Result<(), SnapshotError>;

    /// A [`SnapshotError::Format`] at the current offset.
    fn fail(&self, message: impl Into<String>) -> SnapshotError;

    /// Checks what was just decoded: [`Dec`] turns the verdict's complaint
    /// into a [`SnapshotError::Format`], [`Enc`] trusts the live state and
    /// skips it.
    fn check(&self, verdict: impl FnOnce() -> Result<(), String>) -> Result<(), SnapshotError>;

    fn u32(&mut self, v: &mut u32) -> Result<(), SnapshotError> {
        let mut wide = u64::from(*v);
        self.u64(&mut wide)?;
        *v = u32::try_from(wide).map_err(|_| self.fail("value does not fit u32"))?;
        Ok(())
    }

    fn u16(&mut self, v: &mut u16) -> Result<(), SnapshotError> {
        let mut wide = u64::from(*v);
        self.u64(&mut wide)?;
        *v = u16::try_from(wide).map_err(|_| self.fail("value does not fit u16"))?;
        Ok(())
    }

    fn usize(&mut self, v: &mut usize) -> Result<(), SnapshotError> {
        let mut wide = *v as u64;
        self.u64(&mut wide)?;
        *v = usize::try_from(wide).map_err(|_| self.fail("length does not fit usize"))?;
        Ok(())
    }

    fn i64(&mut self, v: &mut i64) -> Result<(), SnapshotError> {
        let mut wide = zigzag(*v);
        self.u64(&mut wide)?;
        *v = unzigzag(wide);
        Ok(())
    }

    /// A byte that must be 0 or 1.
    fn bool(&mut self, v: &mut bool) -> Result<(), SnapshotError> {
        let mut byte = u8::from(*v);
        self.u8(&mut byte)?;
        if byte > 1 {
            return Err(self.fail(format!("boolean byte must be 0 or 1, found {byte}")));
        }
        *v = byte == 1;
        Ok(())
    }

    /// A one-byte tag that must not exceed `max`; `what` names it in the
    /// error.
    fn tag(&mut self, v: &mut u8, max: u8, what: &str) -> Result<(), SnapshotError> {
        self.u8(v)?;
        if *v > max {
            return Err(self.fail(format!("invalid {what} {v}")));
        }
        Ok(())
    }
}

/// The encoding direction: appends each field to the payload.
struct Enc(Vec<u8>);

impl Io for Enc {
    fn u64(&mut self, v: &mut u64) -> Result<(), SnapshotError> {
        push_varint(&mut self.0, *v);
        Ok(())
    }

    fn u8(&mut self, v: &mut u8) -> Result<(), SnapshotError> {
        self.0.push(*v);
        Ok(())
    }

    fn len(&mut self, n: &mut usize) -> Result<(), SnapshotError> {
        self.usize(n)
    }

    fn fail(&self, message: impl Into<String>) -> SnapshotError {
        SnapshotError::Format { offset: self.0.len(), message: message.into() }
    }

    fn check(&self, _: impl FnOnce() -> Result<(), String>) -> Result<(), SnapshotError> {
        Ok(())
    }
}

/// The decoding direction: reads each field from the payload at `pos`.
struct Dec<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl Io for Dec<'_> {
    fn u64(&mut self, v: &mut u64) -> Result<(), SnapshotError> {
        let mut value = 0u64;
        let mut shift = 0u32;
        loop {
            let mut b = 0;
            self.u8(&mut b)?;
            if shift == 63 && b > 1 {
                return Err(self.fail("varint overflows u64"));
            }
            value |= u64::from(b & 0x7F) << shift;
            if b & 0x80 == 0 {
                *v = value;
                return Ok(());
            }
            shift += 7;
            if shift > 63 {
                return Err(self.fail("varint longer than 10 bytes"));
            }
        }
    }

    fn u8(&mut self, v: &mut u8) -> Result<(), SnapshotError> {
        *v = *self.buf.get(self.pos).ok_or(SnapshotError::Truncated { offset: self.pos })?;
        self.pos += 1;
        Ok(())
    }

    fn len(&mut self, n: &mut usize) -> Result<(), SnapshotError> {
        self.usize(n)?;
        if *n > self.buf.len() - self.pos {
            return Err(self.fail(format!("declared {n} elements exceed remaining bytes")));
        }
        Ok(())
    }

    fn fail(&self, message: impl Into<String>) -> SnapshotError {
        SnapshotError::Format { offset: self.pos, message: message.into() }
    }

    fn check(&self, verdict: impl FnOnce() -> Result<(), String>) -> Result<(), SnapshotError> {
        verdict().map_err(|message| self.fail(message))
    }
}

/// An optional value: a presence boolean, then the value when present.
fn opt<I: Io, T: Default>(
    io: &mut I,
    v: &mut Option<T>,
    f: impl FnOnce(&mut I, &mut T) -> Result<(), SnapshotError>,
) -> Result<(), SnapshotError> {
    let mut present = v.is_some();
    io.bool(&mut present)?;
    if present {
        f(io, v.get_or_insert_with(T::default))?;
    }
    Ok(())
}

/// A sequence: its length, then each element. Decoding, into an empty
/// vector, appends the elements one at a time, so memory grows only with
/// the bytes actually decoded.
fn seq<I: Io, T: Default>(
    io: &mut I,
    v: &mut Vec<T>,
    mut f: impl FnMut(&mut I, &mut T) -> Result<(), SnapshotError>,
) -> Result<(), SnapshotError> {
    let mut n = v.len();
    io.len(&mut n)?;
    for i in 0..n {
        if i == v.len() {
            v.push(T::default());
        }
        f(io, &mut v[i])?;
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// The in-memory image
// ---------------------------------------------------------------------------

/// Plain-data image of one core's slice of the system.
#[derive(Debug, Clone, Default, PartialEq)]
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
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct EventImage {
    pub delta: u64,
    pub store: bool,
    pub core: u64,
    pub token: u64,
}

/// The complete semantic state of a [`System`], as plain data. Derived
/// structures (cache tag indices, DRAM pending-write counts, wake masks) are
/// intentionally absent: the restore rebuilds them.
#[derive(Debug, Clone, Default, PartialEq)]
pub(crate) struct SystemImage {
    pub cycle: u64,
    pub cores: Vec<CoreImage>,
    pub llc: LlcState,
    pub mcs: Vec<ControllerState>,
    pub inflight: MshrState,
    pub dram_pending: Vec<u64>,
    pub writeback_pending: Vec<u64>,
    pub events: Vec<EventImage>,
    pub progress: Option<RunProgress>,
}

// ---------------------------------------------------------------------------
// One codec function per image type
// ---------------------------------------------------------------------------

/// A record, its access a tag (0 = none, 1 = load, 2 = store) followed by
/// the address when there is one.
fn trace_record(io: &mut impl Io, r: &mut TraceRecord) -> Result<(), SnapshotError> {
    io.u64(&mut r.ip)?;
    io.u32(&mut r.bubble)?;
    let mut tag = r.access.map_or(0, |a| 1 + u8::from(a.is_store()));
    io.tag(&mut tag, 2, "access tag")?;
    if tag > 0 {
        let mut addr = r.access.map_or(0, |a| a.addr);
        io.u64(&mut addr)?;
        r.access = Some(if tag == 2 { MemAccess::store(addr) } else { MemAccess::load(addr) });
    }
    Ok(())
}

fn core_stats(io: &mut impl Io, s: &mut CoreStats) -> Result<(), SnapshotError> {
    io.u64(&mut s.cycles)?;
    io.u64(&mut s.retired)?;
    io.u64(&mut s.head_blocked_cycles)?;
    io.u64(&mut s.rob_full_stalls)?;
    io.u64(&mut s.store_buffer_stalls)?;
    io.u64(&mut s.memory_backpressure_stalls)?;
    io.u64(&mut s.loads_issued)?;
    io.u64(&mut s.stores_issued)
}

fn core_state(io: &mut impl Io, s: &mut CoreState) -> Result<(), SnapshotError> {
    io.u64(&mut s.head_seq)?;
    io.u64(&mut s.next_seq)?;
    seq(io, &mut s.pending_loads, Io::u64)?;
    io.u64(&mut s.store_buffer_used)?;
    io.u32(&mut s.pending_bubble)?;
    opt(io, &mut s.deferred, trace_record)?;
    core_stats(io, &mut s.stats)
}

fn cache_stats(io: &mut impl Io, s: &mut CacheStats) -> Result<(), SnapshotError> {
    io.u64(&mut s.loads)?;
    io.u64(&mut s.load_hits)?;
    io.u64(&mut s.stores)?;
    io.u64(&mut s.stores_hits)?;
    io.u64(&mut s.writeback_accesses)?;
    io.u64(&mut s.fills)?;
    io.u64(&mut s.clean_evictions)?;
    io.u64(&mut s.dirty_evictions)?;
    io.u64(&mut s.cleanses)?;
    io.u64(&mut s.prefetch_fills)?;
    io.u64(&mut s.prefetch_useful)
}

fn set_word(io: &mut impl Io, w: &mut SetWord) -> Result<(), SnapshotError> {
    io.u64(&mut w.repl)?;
    io.u16(&mut w.valid)?;
    io.u16(&mut w.dirty)?;
    io.u16(&mut w.prefetched)?;
    io.u16(&mut w.reused)
}

/// A cache as the cache holds it: its tag array (each tag stored plus one,
/// wrapping, so an invalid way's all-ones tag is the one-byte varint 0),
/// its policy's tag (0 = LRU, 1 = SRRIP, 2 = SHiP) and own state (SHiP's
/// table, then one signature per way with no length of its own), one word
/// per set, checked against the set's tags and the policy
/// ([`SetWord::check`]), and its statistics.
fn cache_state(io: &mut impl Io, s: &mut CacheState) -> Result<(), SnapshotError> {
    seq(io, &mut s.tags, |io, tag| {
        let mut stored = tag.wrapping_add(1);
        io.u64(&mut stored)?;
        *tag = stored.wrapping_sub(1);
        Ok(())
    })?;
    let (mut tag, ship) = match std::mem::take(&mut s.replacement) {
        Replacement::Lru => (0, None),
        Replacement::Srrip => (1, None),
        Replacement::Ship { shct, signatures } => (2, Some((shct, signatures))),
    };
    io.tag(&mut tag, 2, "replacement tag")?;
    s.replacement = match tag {
        0 => Replacement::Lru,
        1 => Replacement::Srrip,
        _ => {
            let (mut shct, mut signatures) =
                ship.unwrap_or_else(|| (Vec::new(), vec![0; s.tags.len()]));
            seq(io, &mut shct, Io::u8)?;
            for signature in &mut signatures {
                io.u16(signature)?;
            }
            Replacement::Ship { shct, signatures }
        }
    };
    let mut sets = s.words.len();
    io.len(&mut sets)?;
    let ways = s.tags.len().checked_div(sets).unwrap_or(0);
    if !(1..=MAX_WAYS).contains(&ways) || ways * sets != s.tags.len() {
        let message =
            format!("{} tags do not form {sets} sets of 1..={MAX_WAYS} ways", s.tags.len());
        return Err(io.fail(message));
    }
    s.words.resize(sets, SetWord::default());
    let kind = s.replacement.kind();
    for (word, tags) in s.words.iter_mut().zip(s.tags.chunks(ways)) {
        set_word(io, word)?;
        io.check(|| word.check(kind, tags))?;
    }
    cache_stats(io, &mut s.stats)
}

fn stride_entry(io: &mut impl Io, e: &mut StrideEntryState) -> Result<(), SnapshotError> {
    io.u64(&mut e.ip_tag)?;
    io.u64(&mut e.last_addr)?;
    io.i64(&mut e.stride)?;
    io.u8(&mut e.confidence)
}

fn stride_table(io: &mut impl Io, t: &mut StrideTableState) -> Result<(), SnapshotError> {
    seq(io, &mut t.entries, stride_entry)
}

/// A request, its kind a boolean (true = store).
fn core_request(io: &mut impl Io, r: &mut CoreRequest) -> Result<(), SnapshotError> {
    io.u64(&mut r.token)?;
    let mut store = r.kind == MemKind::Store;
    io.bool(&mut store)?;
    r.kind = if store { MemKind::Store } else { MemKind::Load };
    io.u64(&mut r.addr)?;
    io.u64(&mut r.ip)
}

fn mshr_entry(io: &mut impl Io, e: &mut MshrEntryState) -> Result<(), SnapshotError> {
    io.u64(&mut e.line)?;
    seq(io, &mut e.waiters, Io::u64)?;
    io.bool(&mut e.write_requested)?;
    io.bool(&mut e.prefetch_only)
}

fn mshr(io: &mut impl Io, m: &mut MshrState) -> Result<(), SnapshotError> {
    seq(io, &mut m.entries, mshr_entry)?;
    io.u64(&mut m.peak_occupancy)?;
    io.u64(&mut m.merges)
}

fn policy_stats(io: &mut impl Io, s: &mut PolicyStats) -> Result<(), SnapshotError> {
    io.u64(&mut s.evictions)?;
    io.u64(&mut s.dirty_victim_evictions)?;
    io.u64(&mut s.overrides)?;
    io.u64(&mut s.cleanses)?;
    io.u64(&mut s.checked_decisions)?;
    io.u64(&mut s.incorrect_decisions)?;
    io.u64(&mut s.writebacks)?;
    io.u64(&mut s.bank_broadcasts)
}

fn blp_tracker(io: &mut impl Io, t: &mut BlpTrackerState) -> Result<(), SnapshotError> {
    seq(io, &mut t.bits, Io::u64)?;
    io.u64(&mut t.set_events)?;
    io.u64(&mut t.reset_events)
}

fn llc(io: &mut impl Io, s: &mut LlcState) -> Result<(), SnapshotError> {
    seq(io, &mut s.slices, cache_state)?;
    blp_tracker(io, &mut s.tracker)?;
    policy_stats(io, &mut s.stats)
}

fn bank(io: &mut impl Io, b: &mut BankState) -> Result<(), SnapshotError> {
    opt(io, &mut b.open_row, Io::u64)?;
    io.u64(&mut b.act_ok_at)?;
    io.u64(&mut b.pre_ok_at)?;
    io.u64(&mut b.cas_ok_at)?;
    io.bool(&mut b.auto_precharge)?;
    io.u64(&mut b.activations)
}

/// A queued request, its row-buffer outcome a tag of at most 3.
fn queued(io: &mut impl Io, q: &mut QueuedRequestState) -> Result<(), SnapshotError> {
    io.u64(&mut q.id)?;
    io.bool(&mut q.write)?;
    io.u64(&mut q.addr)?;
    io.u64(&mut q.core)?;
    io.u64(&mut q.enqueue_cycle)?;
    io.tag(&mut q.outcome, 3, "request outcome")?;
    io.u64(&mut q.order)
}

fn completed(io: &mut impl Io, c: &mut CompletedRead) -> Result<(), SnapshotError> {
    io.u64(&mut c.id)?;
    io.u64(&mut c.addr)?;
    io.usize(&mut c.core)?;
    io.u64(&mut c.ready_cycle)?;
    io.u64(&mut c.latency)
}

fn sub_stats(io: &mut impl Io, s: &mut SubChannelStats) -> Result<(), SnapshotError> {
    io.u64(&mut s.cycles)?;
    io.u64(&mut s.write_mode_cycles)?;
    io.u64(&mut s.busy_cycles)?;
    io.u64(&mut s.reads)?;
    io.u64(&mut s.writes)?;
    io.u64(&mut s.read_latency_cycles)?;
    io.u64(&mut s.read_row_hits)?;
    io.u64(&mut s.read_row_misses)?;
    io.u64(&mut s.read_row_conflicts)?;
    io.u64(&mut s.write_row_hits)?;
    io.u64(&mut s.write_row_misses)?;
    io.u64(&mut s.write_row_conflicts)?;
    io.u64(&mut s.activates)?;
    io.u64(&mut s.precharges)?;
    io.u64(&mut s.refreshes)?;
    io.u64(&mut s.drain_episodes)?;
    io.u64(&mut s.drain_writes)?;
    io.u64(&mut s.drain_unique_banks)?;
    io.u64(&mut s.drain_cycles)?;
    io.u64(&mut s.write_to_write_gap_cycles)?;
    io.u64(&mut s.write_to_write_gaps)?;
    io.u64(&mut s.write_queue_full_events)
}

fn subchannel(io: &mut impl Io, s: &mut SubChannelState) -> Result<(), SnapshotError> {
    seq(io, &mut s.reads, queued)?;
    seq(io, &mut s.writes, queued)?;
    io.u64(&mut s.next_order)?;
    seq(io, &mut s.banks, bank)?;
    seq(io, &mut s.bg_rd_ok, Io::u64)?;
    seq(io, &mut s.bg_wr_ok, Io::u64)?;
    seq(io, &mut s.bg_act_ok, Io::u64)?;
    io.u64(&mut s.sub_rd_ok)?;
    io.u64(&mut s.sub_wr_ok)?;
    io.u64(&mut s.sub_act_ok)?;
    seq(io, &mut s.faw_window, Io::u64)?;
    io.bool(&mut s.write_drain)?;
    io.u64(&mut s.episode_banks)?;
    io.u64(&mut s.episode_writes)?;
    io.u64(&mut s.episode_start)?;
    io.u64(&mut s.episode_gap_sum)?;
    io.u64(&mut s.episode_gaps)?;
    opt(io, &mut s.last_write_issue, Io::u64)?;
    io.u64(&mut s.next_refresh_at)?;
    seq(io, &mut s.completed, completed)?;
    sub_stats(io, &mut s.stats)?;
    io.u64(&mut s.settled_to)
}

fn controller(io: &mut impl Io, c: &mut ControllerState) -> Result<(), SnapshotError> {
    seq(io, &mut c.subchannels, subchannel)
}

fn core_image(io: &mut impl Io, c: &mut CoreImage) -> Result<(), SnapshotError> {
    core_state(io, &mut c.core)?;
    io.u64(&mut c.consumed)?;
    cache_state(io, &mut c.l1d)?;
    cache_state(io, &mut c.l2)?;
    opt(io, &mut c.l1_prefetcher, stride_table)?;
    seq(io, &mut c.retry, core_request)?;
    opt(io, &mut c.finish_cycle, Io::u64)?;
    io.u64(&mut c.retired_at_measure_start)
}

fn event(io: &mut impl Io, e: &mut EventImage) -> Result<(), SnapshotError> {
    io.u64(&mut e.delta)?;
    io.bool(&mut e.store)?;
    io.u64(&mut e.core)?;
    io.u64(&mut e.token)
}

/// A staged run's progress, its stage a tag (0 = timed warm-up, 1 =
/// measure).
fn progress(io: &mut impl Io, p: &mut RunProgress) -> Result<(), SnapshotError> {
    let mut stage = u8::from(p.stage == RunStage::Measure);
    io.tag(&mut stage, 1, "progress stage")?;
    p.stage = if stage == 0 { RunStage::TimedWarmup } else { RunStage::Measure };
    io.u64(&mut p.timed_warmup)?;
    io.u64(&mut p.measure)?;
    seq(io, &mut p.start_retired, Io::u64)?;
    io.u64(&mut p.guard)?;
    io.u64(&mut p.measure_start_cycle)
}

fn system_image(io: &mut impl Io, s: &mut SystemImage) -> Result<(), SnapshotError> {
    io.u64(&mut s.cycle)?;
    seq(io, &mut s.cores, core_image)?;
    llc(io, &mut s.llc)?;
    seq(io, &mut s.mcs, controller)?;
    mshr(io, &mut s.inflight)?;
    seq(io, &mut s.dram_pending, Io::u64)?;
    seq(io, &mut s.writeback_pending, Io::u64)?;
    seq(io, &mut s.events, event)?;
    opt(io, &mut s.progress, progress)
}

/// The payload of `image`, the image [`System::capture`] exported.
pub(crate) fn encode_image(mut image: SystemImage) -> Vec<u8> {
    let mut enc = Enc(Vec::new());
    system_image(&mut enc, &mut image).expect("a live system's image is well-formed");
    enc.0
}

pub(crate) fn decode_image(payload: &[u8]) -> Result<SystemImage, SnapshotError> {
    let mut dec = Dec { buf: payload, pos: 0 };
    let mut image = SystemImage::default();
    system_image(&mut dec, &mut image)?;
    let trailing = payload.len() - dec.pos;
    if trailing > 0 {
        return Err(dec.fail(format!("{trailing} trailing payload bytes")));
    }
    Ok(image)
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
    use bard_cache::ReplacementKind;

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
        let mut enc = Enc(Vec::new());
        cache_state(&mut enc, &mut state.clone())?;
        let mut dec = Dec { buf: &enc.0, pos: 0 };
        let mut decoded = CacheState::default();
        cache_state(&mut dec, &mut decoded)?;
        assert_eq!(dec.pos, enc.0.len(), "the cache decodes to its last byte");
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

    /// A full image taken inside the measured span of a write-drain-heavy
    /// run: `small_test` x lbm under a SHiP LLC and BARD-H, with the L1
    /// stride prefetcher on and a 16-entry DRAM write queue (watermarks 4
    /// and 12), so write-backs also wait in the system's own buffer. The
    /// pause cycle is one at which every part of the image holds something.
    fn mid_run_snapshot() -> Snapshot {
        let mut config = SystemConfig::small_test()
            .with_replacement(ReplacementKind::Ship)
            .with_policy(crate::policy::WritePolicyKind::BardH);
        config.l1_prefetch_degree = 2;
        config.dram.write_queue_entries = 16;
        config.dram.write_low_watermark = 4;
        config.dram.write_high_watermark = 12;
        let mut system = System::new(config, WorkloadId::Lbm);
        let outcome = system.run_to_pause(20_000, 2_000, 20_000, Some(184_545));
        assert!(matches!(outcome, crate::system::RunOutcome::Paused), "the pause is mid-run");
        system.capture()
    }

    /// Pins the bytes of one full mid-run image. Warm images
    /// (`warm_images.txt` in bard-bench) leave the DRAM queues, buffered
    /// completions, events, retry queues, MSHRs and run progress empty; this
    /// one fills each of them, so the codec's branches for them are pinned
    /// too.
    #[test]
    fn full_mid_run_image_is_pinned() {
        let snapshot = mid_run_snapshot();
        let image = decode_image(snapshot.payload()).expect("a captured image decodes");
        let cores = &image.cores;
        let subchannels: Vec<&SubChannelState> =
            image.mcs.iter().flat_map(|mc| &mc.subchannels).collect();
        let filled = [
            ("DRAM read queues", subchannels.iter().any(|s| !s.reads.is_empty())),
            ("DRAM write queues", subchannels.iter().any(|s| !s.writes.is_empty())),
            ("buffered completions", subchannels.iter().any(|s| !s.completed.is_empty())),
            ("open rows", subchannels.iter().any(|s| s.banks.iter().any(|b| b.open_row.is_some()))),
            ("write drains", subchannels.iter().any(|s| s.write_drain)),
            ("events", !image.events.is_empty()),
            ("retry queues", cores.iter().any(|c| !c.retry.is_empty())),
            ("deferred records", cores.iter().any(|c| c.core.deferred.is_some())),
            ("finished cores", cores.iter().any(|c| c.finish_cycle.is_some())),
            (
                "stride tables",
                cores.iter().flat_map(|c| &c.l1_prefetcher).any(|t| !t.entries.is_empty()),
            ),
            ("MSHR entries", !image.inflight.entries.is_empty()),
            ("pending DRAM reads", !image.dram_pending.is_empty()),
            ("pending write-backs", !image.writeback_pending.is_empty()),
            (
                "measure progress",
                matches!(&image.progress, Some(p) if p.stage == RunStage::Measure),
            ),
        ];
        for (part, non_empty) in filled {
            assert!(non_empty, "the pinned image has no {part}");
        }
        let bytes = snapshot.to_bytes();
        let mut h = Fnv64::new();
        h.update(&bytes);
        assert_eq!(
            (bytes.len(), h.finish()),
            (136_374, 0x5aa0_9d2a_0eab_2b6e),
            "full image bytes changed; a format change bumps VERSION and re-pins this image"
        );
    }

    /// The container tests above stop at the checksum, so they never reach
    /// the payload decoder. This feeds it a real mid-run payload directly:
    /// every cut must fail, and a flipped byte (its low bit at even offsets,
    /// its varint continuation bit at odd ones) may decode or fail but must
    /// not panic. A debug build tries every 1009th offset; `BARD_PARITY=full`
    /// tries them all.
    #[test]
    fn payload_decoder_survives_every_cut_and_flip() {
        let payload = mid_run_snapshot().payload().to_vec();
        let step = if std::env::var("BARD_PARITY").is_ok_and(|v| v == "full") { 1 } else { 1009 };
        let mut bytes = payload.clone();
        for offset in (0..payload.len()).step_by(step) {
            assert!(decode_image(&payload[..offset]).is_err(), "a cut at byte {offset} decoded");
            let flip = if offset % 2 == 0 { 0x01 } else { 0x80 };
            bytes[offset] ^= flip;
            let survived = std::panic::catch_unwind(|| decode_image(&bytes).is_ok()).is_ok();
            bytes[offset] ^= flip;
            assert!(survived, "flipping {flip:#04x} at payload byte {offset} panicked");
        }
    }
}

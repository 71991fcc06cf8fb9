//! BSS1 snapshot images: versioned, checksummed captures of full simulation
//! state.
//!
//! A snapshot freezes everything a [`System`] mutates — core pipelines,
//! all three cache levels, the BLP-Tracker, MSHRs, the event ring, the DRAM
//! sub-channels with their queues and bank timing, and the workload trace
//! positions — into a self-describing byte image that can be restored into a
//! freshly-built system. Restoring and resuming is **bitwise-identical** to
//! never having stopped (`StressCase::assert_parity` in the `parity` suite
//! pins this on both engines).
//!
//! Each component codes its own live fields, in its own crate, with one
//! two-way function on the `bard-image` primitives (`image`, the LLC's and
//! the system's also `warm_image`): a capture encodes the live system, a
//! restore decodes straight into a freshly built one and then rebuilds only
//! the derived state (each DRAM queue's places, keys and bank mask, and
//! each sub-channel's dead-row mask, earliest completion and plan). Each
//! cache is stored as it holds itself: its tag array, its 16-byte set words
//! (replacement field plus valid, dirty, prefetched and reused masks) and
//! its replacement policy's own state, which is SHiP's counter table and
//! fill signatures.
//! Decoding checks every set word against its tags and policy, and every
//! size (cores, channels, sub-channels, banks, slices, sets, ways, stride
//! tables) against the restoring system's. Host-side work counters (the
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
//! A payload starts with the warm part: per core its trace position, L1D
//! and L2, then the LLC slices. A warm image holds exactly that part; a
//! full image goes on with the rest of the state. Trace positions are
//! applied (the streams fast-forwarded) only after the whole payload has
//! decoded.
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
//! payload (varint-encoded: the warm part, then for a full image the rest)
//! checksum u64 LE (FNV-1a over all preceding bytes)
//! ```
//!
//! Images are pinned per format version, not across versions: a build
//! refuses any other [`VERSION`] by name ([`SnapshotError::Version`]), and
//! both digests carry the version, so a format change re-keys every
//! [`SnapshotStore`]. Its old images are never opened; the first grid of
//! the new build captures fresh ones.

use std::path::{Path, PathBuf};

use bard_image::{Fnv64, ImageError};
use bard_workloads::WorkloadId;

use crate::config::{EngineKind, SystemConfig};
use crate::system::System;

/// Magic bytes opening every snapshot image.
pub const MAGIC: [u8; 4] = *b"BSS1";

/// Current container version. Bump on any layout change; decoding refuses
/// other versions with [`SnapshotError::Version`], and both digests carry
/// it, so a store never looks up another version's images.
pub const VERSION: u32 = 5;

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

impl From<ImageError> for SnapshotError {
    fn from(e: ImageError) -> Self {
        match e {
            ImageError::Truncated { offset } => Self::Truncated { offset },
            ImageError::Format { offset, message } => Self::Format { offset, message },
            ImageError::Incompatible { reason } => Self::Incompatible { reason },
        }
    }
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
    use std::cell::Cell;

    use super::*;
    use bard_cache::{CacheConfig, ReplacementKind, SetAssocCache};
    use bard_image::{decode, Enc, Io};

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
        // A newer version, and the retired versions 1 to 4.
        for version in [VERSION + 1, 1, 2, 3, 4] {
            let mut bytes = sample().to_bytes();
            bytes[4..8].copy_from_slice(&version.to_le_bytes());
            match Snapshot::from_bytes(&bytes) {
                Err(SnapshotError::Version { found }) => assert_eq!(found, version),
                other => panic!("expected Version error, got {other:?}"),
            }
        }
    }

    /// An encoder that passes the values of set 1's word through `tamper`
    /// as it writes them. A cache codes its set words in set order, each as
    /// its `repl`, `valid`, `dirty`, `prefetched` and `reused` values
    /// (fields 0 to 4) and then a check, so the five values after the first
    /// check are set 1's.
    struct Tamper<F> {
        enc: Enc,
        checks: Cell<usize>,
        field: usize,
        tamper: F,
    }

    impl<F: Fn(usize, u64) -> u64> Io for Tamper<F> {
        fn u64(&mut self, v: &mut u64) -> Result<(), ImageError> {
            let mut value = *v;
            if self.checks.get() == 1 && self.field < 5 {
                value = (self.tamper)(self.field, value);
                self.field += 1;
            }
            self.enc.u64(&mut value)
        }

        fn u8(&mut self, v: &mut u8) -> Result<(), ImageError> {
            self.enc.u8(v)
        }

        fn len(&mut self, n: &mut usize) -> Result<(), ImageError> {
            self.enc.len(n)
        }

        fn fail(&self, message: impl Into<String>) -> ImageError {
            self.enc.fail(message)
        }

        fn decoding(&self) -> bool {
            false
        }

        fn check(&self, _: impl FnOnce() -> Result<(), String>) -> Result<(), ImageError> {
            self.checks.set(self.checks.get() + 1);
            Ok(())
        }
    }

    /// A cache of 4 sets x 4 ways under `kind` holding two lines of set 1
    /// (ways 0 and 1, way 0 dirty).
    fn set_1_with_two_lines(kind: ReplacementKind) -> SetAssocCache {
        let mut cache = SetAssocCache::new(CacheConfig::new(1024, 4, 64), kind);
        cache.fill(0x40, true, 9);
        cache.fill(0x140, false, 3);
        cache
    }

    /// `f` applied to set-word field `field`, the other fields unchanged.
    fn field(field: usize, f: impl Fn(u64) -> u64) -> impl Fn(usize, u64) -> u64 {
        move |i, v| if i == field { f(v) } else { v }
    }

    /// The image of [`set_1_with_two_lines`] decodes as it is; with set 1's
    /// word passed through `tamper` its decode must fail with a `Format`
    /// error naming `needle`.
    fn assert_format_error(
        kind: ReplacementKind,
        needle: &str,
        tamper: impl Fn(usize, u64) -> u64,
    ) {
        let fresh = || SetAssocCache::new(CacheConfig::new(1024, 4, 64), kind);
        let good = bard_image::encode(|io| set_1_with_two_lines(kind).image(io));
        decode(&good, |io| fresh().image(io)).expect("a cache's own image decodes");
        let mut io = Tamper { enc: Enc::default(), checks: Cell::new(0), field: 0, tamper };
        set_1_with_two_lines(kind).image(&mut io).expect("a live cache encodes");
        match decode(&io.enc.0, |io| fresh().image(io)) {
            Err(ImageError::Format { message, .. }) => {
                assert!(message.contains(needle), "{message}");
            }
            other => panic!("expected a Format error naming {needle:?}, got {other:?}"),
        }
    }

    #[test]
    fn lru_field_that_is_not_a_permutation_is_a_format_error() {
        // A way listed twice, and a way listed above the four ranks.
        assert_format_error(ReplacementKind::Lru, "malformed LRU field", field(0, |r| r & !0xf0));
        assert_format_error(ReplacementKind::Lru, "malformed LRU field", field(0, |r| r | 1 << 16));
    }

    #[test]
    fn set_word_bits_at_or_above_the_ways_are_a_format_error() {
        let kind = ReplacementKind::Srrip;
        assert_format_error(kind, "malformed SRRIP field", field(0, |r| r | 1 << 8));
        // The valid, dirty, prefetched and reused masks.
        for mask in 1..5 {
            assert_format_error(kind, "at or above way 4", field(mask, |m| m | 1 << 4));
        }
    }

    #[test]
    fn set_word_flagging_an_invalid_way_is_a_format_error() {
        // The dirty, prefetched and reused masks.
        for mask in 2..5 {
            let needle = "flags an invalid way";
            assert_format_error(ReplacementKind::Ship, needle, field(mask, |m| m | 1 << 2));
        }
    }

    #[test]
    fn set_word_valid_bit_that_disagrees_with_the_tag_is_a_format_error() {
        // A valid bit on an invalid tag, and a valid tag without its bit.
        for valid in [0b111, 0b010] {
            let needle = "disagrees with the tags";
            assert_format_error(ReplacementKind::Lru, needle, field(1, move |_| valid));
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
    /// it never opens what a build of versions 1 to 3 left at that build's
    /// key: it captures a fresh image under the current key instead.
    #[test]
    fn obtain_warm_never_opens_a_version_1_image() {
        let dir = StoreDir::new("v1-key");
        let store = SnapshotStore::new(&dir.0);
        let (config, w) = (SystemConfig::small_test(), WorkloadId::Lbm);
        // The keys builds of versions 1 to 3 gave this image.
        let stale: Vec<(PathBuf, Vec<u8>)> =
            [(1u32, 0xe9a1_e343_b38c_91f2), (2, 0xae1a_5f4f_4012_3e61), (3, 0xf244_eacd_637c_0a10)]
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
        assert_eq!(dir.names().len(), 4);
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

    /// A write-drain-heavy run paused inside its measured span, and its
    /// configuration: `small_test` x lbm under a SHiP LLC and BARD-H, with
    /// the L1 stride prefetcher on and a 16-entry DRAM write queue
    /// (watermarks 4 and 12), so write-backs also wait in the system's own
    /// buffer. The pause cycle is one at which every part of a full image
    /// holds something.
    fn mid_run_system() -> (SystemConfig, System) {
        mid_run(ReplacementKind::Ship)
    }

    /// The configuration and paused system of [`mid_run_system`]'s shape
    /// with an LLC under `kind`.
    fn mid_run(kind: ReplacementKind) -> (SystemConfig, System) {
        let mut config = SystemConfig::small_test()
            .with_replacement(kind)
            .with_policy(crate::policy::WritePolicyKind::BardH);
        config.l1_prefetch_degree = 2;
        config.dram.write_queue_entries = 16;
        config.dram.write_low_watermark = 4;
        config.dram.write_high_watermark = 12;
        let mut system = System::new(config.clone(), WorkloadId::Lbm);
        let outcome = system.run_to_pause(20_000, 2_000, 20_000, Some(184_545));
        assert!(matches!(outcome, crate::system::RunOutcome::Paused), "the pause is mid-run");
        (config, system)
    }

    /// A restore loses nothing: capturing a restored system reproduces its
    /// image byte for byte, for the pinned mid-run shape under each LLC
    /// policy and for a warm image. Resume parity cannot see a field the
    /// decoder forgets when nothing later reads it (an already-counted
    /// statistic, a bank's activation count); this test can.
    #[test]
    fn restore_then_capture_reproduces_every_image() {
        for kind in [ReplacementKind::Lru, ReplacementKind::Srrip, ReplacementKind::Ship] {
            let (config, mut system) = mid_run(kind);
            let image = system.capture();
            let mut restored =
                System::restore(config, WorkloadId::Lbm, &image).expect("a full image restores");
            assert_eq!(restored.capture(), image, "{} mid-run image", kind.name());
        }
        let (config, w) = (SystemConfig::small_test(), WorkloadId::Lbm);
        let mut system = System::new(config.clone(), w);
        system.functional_warmup(WARMUP);
        let image = system.capture_warm(WARMUP);
        let mut restored =
            System::restore_warm(config.clone(), w, WARMUP, &image).expect("a warm image restores");
        assert_eq!(restored.capture_warm(WARMUP), image, "warm image");
        // A warm image holds only the warm part, which a full restore refuses.
        let refused = System::restore(config, w, &image);
        assert!(matches!(refused, Err(SnapshotError::Incompatible { .. })), "{refused:?}");
    }

    /// A checksum-valid image whose payload holds another geometry than the
    /// configuration its digests name (half the LLC capacity, the same slice
    /// count) is refused with an error by both restores, not a panic.
    #[test]
    fn payload_geometry_that_disagrees_with_the_digests_is_an_error() {
        let (config, w) = (SystemConfig::small_test(), WorkloadId::Lbm);
        let mut half = config.clone();
        half.llc_bytes /= 2;
        let mut system = System::new(half, w);
        system.functional_warmup(WARMUP);
        let warm = system.capture_warm(WARMUP);
        let full = system.capture();
        let digest_full = full_digest(&config, w);
        let sealed = Snapshot::new(false, digest_full, 0, full.payload().to_vec());
        assert!(System::restore(config.clone(), w, &sealed).is_err(), "full restore");
        let digest_warm = warm_digest(&config, w, WARMUP);
        let sealed = Snapshot::new(true, digest_full, digest_warm, warm.payload().to_vec());
        assert!(System::restore_warm(config, w, WARMUP, &sealed).is_err(), "warm restore");
    }

    /// Pins the bytes of one full mid-run image. Warm images
    /// (`warm_images.txt` in bard-bench) hold no DRAM queues, buffered
    /// completions, events, retry queues, MSHRs or run progress; this one
    /// fills each of them, so the codec's branches for them are pinned too.
    #[test]
    fn full_mid_run_image_is_pinned() {
        let (_, mut system) = mid_run_system();
        for (part, non_empty) in crate::system::tests::filled_parts(&system) {
            assert!(non_empty, "the pinned image has no {part}");
        }
        let bytes = system.capture().to_bytes();
        let mut h = Fnv64::new();
        h.update(&bytes);
        assert_eq!(
            (bytes.len(), h.finish()),
            (135_826, 0x524a_7b54_dd60_400b),
            "full image bytes changed; a format change bumps VERSION and re-pins this image"
        );
    }

    /// The container tests above stop at the checksum, so they never reach
    /// the payload decoder. This feeds it a real mid-run payload directly,
    /// decoding into a freshly built system of the capturing configuration:
    /// every cut must fail, and a flipped byte (its low bit at even offsets,
    /// its varint continuation bit at odd ones) may decode or fail but must
    /// not panic. A debug build tries every 1009th offset; `BARD_PARITY=full`
    /// tries them all.
    #[test]
    fn payload_decoder_survives_every_cut_and_flip() {
        let (config, mut system) = mid_run_system();
        let payload = system.capture().payload().to_vec();
        let decode =
            |bytes: &[u8]| System::new(config.clone(), WorkloadId::Lbm).decode(bytes, false);
        let step = if std::env::var("BARD_PARITY").is_ok_and(|v| v == "full") { 1 } else { 1009 };
        let mut bytes = payload.clone();
        for offset in (0..payload.len()).step_by(step) {
            assert!(decode(&payload[..offset]).is_err(), "a cut at byte {offset} decoded");
            let flip = if offset % 2 == 0 { 0x01 } else { 0x80 };
            bytes[offset] ^= flip;
            let survived = std::panic::catch_unwind(|| decode(&bytes).is_ok()).is_ok();
            bytes[offset] ^= flip;
            assert!(survived, "flipping {flip:#04x} at payload byte {offset} panicked");
        }
    }
}

//! The on-disk trace archive behind `--trace-dir`.

use std::collections::BTreeMap;
use std::fs::File;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

use bard_cpu::TraceSource;

use crate::encoded::EncodedTrace;
use crate::error::TraceError;
use crate::format::TraceHeader;
use crate::replay::ReplayWorkload;

/// Process-wide cache of archived traces, keyed by path. Grid experiments
/// build one `System` per `(config, workload, job)` and every one of them
/// re-opens the same BTF files; sharing one [`EncodedTrace`] (the file's
/// validated payload plus its checkpoint index) turns that into one read
/// and validation per path per process, and each replay decodes its own
/// records from the shared bytes. Entries are held strongly for the life of
/// the process, so the cache holds the encoded payload of every distinct
/// file opened, about a quarter of the same records decoded. Writes through
/// [`TraceStore`] invalidate the written path; files modified behind the
/// store's back (outside any supported workflow) are not detected.
// A `BTreeMap` rather than a `HashMap` so cache iteration order (and any
// future drain/report over it) is deterministic by path; lookups are
// per-System-open, far off any hot path.
type DecodeCache = Mutex<BTreeMap<PathBuf, Arc<EncodedTrace>>>;

fn decode_cache() -> &'static DecodeCache {
    static CACHE: OnceLock<DecodeCache> = OnceLock::new();
    CACHE.get_or_init(DecodeCache::default)
}

/// Decode-cache opens served from an already-validated entry.
static DECODE_HITS: AtomicU64 = AtomicU64::new(0);
/// Decode-cache opens that had to read and validate the file.
static DECODE_MISSES: AtomicU64 = AtomicU64::new(0);
/// Fresh captures published through the store (each also seeds the cache).
static DECODE_CAPTURES: AtomicU64 = AtomicU64::new(0);

/// Point-in-time view of the process-wide decode-cache counters, scraped by
/// the core telemetry registry (the trace crate sits below `bard` in the
/// dependency graph, so the registry pulls these through a probe function
/// rather than this crate pushing into it).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct DecodeCacheCounters {
    /// Opens served from the cache.
    pub hits: u64,
    /// Opens that read and validated the file.
    pub misses: u64,
    /// Fresh captures published (and cache-seeded).
    pub captures: u64,
    /// Distinct trace paths currently held.
    pub entries: u64,
    /// Bytes the held traces occupy: encoded payloads plus checkpoint
    /// indexes ([`EncodedTrace::bytes_held`]).
    pub bytes: u64,
}

/// Reads the decode-cache counters (process-wide, monotonic except
/// `entries` and `bytes`).
#[must_use]
pub fn decode_cache_counters() -> DecodeCacheCounters {
    let cache = decode_cache().lock().expect("decode cache poisoned");
    DecodeCacheCounters {
        hits: DECODE_HITS.load(Ordering::Relaxed),
        misses: DECODE_MISSES.load(Ordering::Relaxed),
        captures: DECODE_CAPTURES.load(Ordering::Relaxed),
        entries: cache.len() as u64,
        bytes: cache.values().map(|trace| trace.bytes_held() as u64).sum(),
    }
}

/// A directory of BTF1 traces keyed by `(workload, core, seed, instruction
/// budget)`.
///
/// The store gives `--trace-dir` its record-if-missing / replay-if-present
/// semantics: [`TraceStore::obtain`] returns a [`ReplayWorkload`] for the
/// requested key, capturing the trace from the live generator first if no
/// file exists yet. Because every generator stream is a pure function of
/// `(workload, core, seed)`, capture is *eager* — the whole instruction
/// budget is pulled from the generator up front, independent of how a
/// particular simulation would interleave its fetches — so concurrent jobs
/// racing to record the same key write byte-identical files, and the
/// temp-file + atomic-rename publish makes the race benign.
#[derive(Debug, Clone)]
pub struct TraceStore {
    dir: PathBuf,
}

impl TraceStore {
    /// A store rooted at `dir` (created on first recording).
    #[must_use]
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        Self { dir: dir.into() }
    }

    /// The store's root directory.
    #[must_use]
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The file name of one trace key.
    #[must_use]
    pub fn file_name(workload: &str, core: u32, seed: u64, instructions: u64) -> String {
        format!("{workload}.c{core}.s{seed:016x}.i{instructions}.btf")
    }

    /// The full path of one trace key inside this store.
    #[must_use]
    pub fn path_for(&self, workload: &str, core: u32, seed: u64, instructions: u64) -> PathBuf {
        self.dir.join(Self::file_name(workload, core, seed, instructions))
    }

    /// Replays the trace for a key, capturing it from `build_live` first if
    /// the store has no file covering it yet.
    ///
    /// Lookup prefers the exact-budget file name; failing that, any
    /// archived trace of the same `(workload, core, seed)` whose budget
    /// covers `instructions` is reused (the generator stream is a pure
    /// function of the key, so a longer recording is a superset — replaying
    /// its prefix is still bitwise-equivalent). Only when no covering file
    /// exists is a fresh trace captured.
    ///
    /// # Errors
    ///
    /// Propagates read/decode/checksum errors from an existing file, a
    /// [`TraceError::Mismatch`] if that file's header disagrees with the
    /// requested key, and filesystem errors from a fresh capture.
    pub fn obtain(
        &self,
        workload: &str,
        core: u32,
        seed: u64,
        instructions: u64,
        build_live: impl FnOnce() -> Box<dyn TraceSource>,
    ) -> Result<ReplayWorkload, TraceError> {
        let path = self.path_for(workload, core, seed, instructions);
        let path = if path.exists() {
            Some(path)
        } else {
            self.find_covering(workload, core, seed, instructions)
        };
        if let Some(path) = path {
            let replay = Self::open_cached(&path)?;
            validate_key(replay.header(), workload, core, seed, instructions)?;
            return Ok(replay);
        }
        let mut live = build_live();
        let path = self.path_for(workload, core, seed, instructions);
        let trace = Arc::new(self.archive(live.as_mut(), core, seed, instructions, &path)?);
        // Seed the cache: the captured trace is exactly the published file's
        // contents, so later opens of the same path share it.
        DECODE_CAPTURES.fetch_add(1, Ordering::Relaxed);
        decode_cache().lock().expect("decode cache poisoned").insert(path, Arc::clone(&trace));
        Ok(ReplayWorkload::new(trace))
    }

    /// Opens a trace through the process-wide decode cache: the first open
    /// of a path reads and validates the file (every record and the
    /// checksum), every later open shares the same encoded trace. The whole
    /// operation holds the cache lock, so concurrent grid jobs racing to the
    /// same file read it once and the rest wait for the shared result. The
    /// flip side: first-time reads of *distinct* files also serialize — a
    /// deliberate trade (per-path entry locks would complicate the cache for
    /// a one-off per-process read wave whose common case is same-file
    /// sharing).
    ///
    /// # Errors
    ///
    /// Propagates read, decode and checksum errors from a cache miss.
    pub fn open_cached(path: &Path) -> Result<ReplayWorkload, TraceError> {
        let mut cache = decode_cache().lock().expect("decode cache poisoned");
        if let Some(trace) = cache.get(path) {
            DECODE_HITS.fetch_add(1, Ordering::Relaxed);
            return Ok(ReplayWorkload::new(Arc::clone(trace)));
        }
        DECODE_MISSES.fetch_add(1, Ordering::Relaxed);
        let trace = Arc::new(EncodedTrace::read(path)?);
        cache.insert(path.to_path_buf(), Arc::clone(&trace));
        Ok(ReplayWorkload::new(trace))
    }

    /// Drops the cached trace of `path` (a write through the store is about
    /// to replace, or just replaced, the file's contents).
    fn invalidate_cached(path: &Path) {
        decode_cache().lock().expect("decode cache poisoned").remove(path);
    }

    /// Scans the store for an archived trace of `(workload, core, seed)`
    /// recorded with a budget of at least `instructions`, preferring the
    /// smallest adequate one (cheapest to decode).
    fn find_covering(
        &self,
        workload: &str,
        core: u32,
        seed: u64,
        instructions: u64,
    ) -> Option<PathBuf> {
        let prefix = format!("{workload}.c{core}.s{seed:016x}.i");
        let mut best: Option<(u64, PathBuf)> = None;
        for entry in self.dir.read_dir().ok()? {
            let Ok(entry) = entry else { continue };
            let name = entry.file_name();
            let Some(name) = name.to_str() else { continue };
            let Some(budget) = name
                .strip_prefix(&prefix)
                .and_then(|rest| rest.strip_suffix(".btf"))
                .and_then(|digits| digits.parse::<u64>().ok())
            else {
                continue;
            };
            if budget >= instructions && best.as_ref().is_none_or(|(b, _)| budget < *b) {
                best = Some((budget, entry.path()));
            }
        }
        best.map(|(_, path)| path)
    }

    /// Captures `instructions` worth of records from `source` into the store
    /// under the given key, unconditionally overwriting any existing file.
    /// Returns the sealed header.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn record(
        &self,
        source: &mut dyn TraceSource,
        core: u32,
        seed: u64,
        instructions: u64,
    ) -> Result<TraceHeader, TraceError> {
        let path = self.path_for(source.name(), core, seed, instructions);
        let trace = self.archive(source, core, seed, instructions, &path)?;
        // A recording run is not cached (it may archive far more than one
        // process replays); drop any entry an open of the old bytes made
        // while this capture ran.
        Self::invalidate_cached(&path);
        Ok(trace.header().clone())
    }

    /// Pulls records from `source` until the instruction budget is met,
    /// encoding each once into the in-memory trace, and publishes the same
    /// bytes at `path`.
    fn archive(
        &self,
        source: &mut dyn TraceSource,
        core: u32,
        seed: u64,
        instructions: u64,
        path: &Path,
    ) -> Result<EncodedTrace, TraceError> {
        // The path's bytes are about to change: drop its stale trace before
        // the new one is built, so the two never coexist.
        Self::invalidate_cached(path);
        let meta = TraceHeader::new(
            source.name(),
            format!("registry:{} core={core} seed={seed:#x}", source.name()),
            core,
            seed,
        );
        let trace = EncodedTrace::pull(meta, source, instructions)?;
        std::fs::create_dir_all(&self.dir)?;
        trace.publish(path)?;
        Ok(trace)
    }
}

/// Writes `parts`, in order, to `path` as one atomic publish: the one file
/// writer of trace archives and snapshot stores. The bytes go to a
/// temporary file beside `path` that is then renamed over it, so no reader
/// sees a partial file, and a failed write or rename removes the temporary
/// file. A failed rename is forgiven when a regular file sits at `path`:
/// a concurrent publisher of the same content-addressed bytes won the race.
///
/// # Errors
///
/// The I/O error of a failed write, or of a failed rename that left no
/// regular file at `path`.
pub fn publish_atomically(path: &Path, parts: &[&[u8]]) -> std::io::Result<()> {
    static TMP_SUFFIX: AtomicU64 = AtomicU64::new(0);
    let tmp = path.with_file_name(format!(
        "{}.tmp-{}-{}",
        path.file_name().and_then(|n| n.to_str()).unwrap_or("publish"),
        std::process::id(),
        TMP_SUFFIX.fetch_add(1, Ordering::Relaxed),
    ));
    let written = File::create(&tmp)
        .and_then(|mut file| parts.iter().try_for_each(|part| file.write_all(part)));
    if let Err(write_error) = written {
        let _ = std::fs::remove_file(&tmp);
        return Err(write_error);
    }
    if let Err(rename_error) = std::fs::rename(&tmp, path) {
        let _ = std::fs::remove_file(&tmp);
        if !path.is_file() {
            return Err(rename_error);
        }
    }
    Ok(())
}

fn validate_key(
    header: &TraceHeader,
    workload: &str,
    core: u32,
    seed: u64,
    instructions: u64,
) -> Result<(), TraceError> {
    if header.workload != workload || header.core != core || header.seed != seed {
        return Err(TraceError::Mismatch {
            message: format!(
                "file records workload '{}' core {} seed {:#x}, requested '{workload}' core \
                 {core} seed {seed:#x}",
                header.workload, header.core, header.seed
            ),
        });
    }
    if header.instructions < instructions {
        return Err(TraceError::Mismatch {
            message: format!(
                "file holds {} instructions, the run needs {instructions}",
                header.instructions
            ),
        });
    }
    Ok(())
}

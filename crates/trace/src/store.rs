//! The on-disk trace archive behind `--trace-dir`.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

use bard_cpu::{TraceRecord, TraceSource};

use crate::error::TraceError;
use crate::format::TraceHeader;
use crate::reader::TraceReader;
use crate::replay::ReplayWorkload;
use crate::writer::TraceWriter;

/// Process-wide cache of decoded traces, keyed by path. Grid experiments
/// build one `System` per `(config, workload, job)` and every one of them
/// re-opens the same BTF files; sharing the decoded `Arc<Vec<TraceRecord>>`
/// turns that from a decode + multi-GB copy per `System` into one decode per
/// path per process. The `Vec` a decode or capture built is moved into the
/// `Arc`, never copied. Entries are held strongly for the life of the
/// process — the cache's high-water mark is one copy per distinct file, the
/// same as a single live `System` needed before. Writes through [`TraceStore`]
/// invalidate the written path; files modified behind the store's back
/// (outside any supported workflow) are not detected.
// A `BTreeMap` rather than a `HashMap` so cache iteration order (and any
// future drain/report over it) is deterministic by path; lookups are
// per-System-open, far off any hot path.
type DecodeCache = Mutex<BTreeMap<PathBuf, (TraceHeader, Arc<Vec<TraceRecord>>)>>;

fn decode_cache() -> &'static DecodeCache {
    static CACHE: OnceLock<DecodeCache> = OnceLock::new();
    CACHE.get_or_init(DecodeCache::default)
}

/// Decode-cache opens served from an already-decoded entry.
static DECODE_HITS: AtomicU64 = AtomicU64::new(0);
/// Decode-cache opens that had to decode the file from disk.
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
    /// Opens that decoded from disk.
    pub misses: u64,
    /// Fresh captures published (and cache-seeded).
    pub captures: u64,
    /// Distinct decoded paths currently held.
    pub entries: u64,
}

/// Reads the decode-cache counters (process-wide, monotonic except
/// `entries`).
#[must_use]
pub fn decode_cache_counters() -> DecodeCacheCounters {
    DecodeCacheCounters {
        hits: DECODE_HITS.load(Ordering::Relaxed),
        misses: DECODE_MISSES.load(Ordering::Relaxed),
        captures: DECODE_CAPTURES.load(Ordering::Relaxed),
        entries: decode_cache().lock().expect("decode cache poisoned").len() as u64,
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
        let (header, records) = self.capture(live.as_mut(), core, seed, instructions, &path)?;
        // Seed the cache: the captured records are exactly the published
        // file's contents, so later opens of the same path share them.
        let records = Arc::new(records);
        DECODE_CAPTURES.fetch_add(1, Ordering::Relaxed);
        decode_cache()
            .lock()
            .expect("decode cache poisoned")
            .insert(path, (header.clone(), Arc::clone(&records)));
        ReplayWorkload::from_shared(header, records)
    }

    /// Opens a trace through the process-wide decode cache: the first open
    /// of a path decodes (and checksums) the file, every later open shares
    /// the same record allocation. The whole operation holds the cache lock,
    /// so concurrent grid jobs racing to the same file decode it once and
    /// the rest wait for the shared result. The flip side: first-time
    /// decodes of *distinct* files also serialize — a deliberate trade
    /// (per-path entry locks would complicate the cache for a one-off
    /// per-process decode wave whose common case is same-file sharing).
    ///
    /// # Errors
    ///
    /// Propagates read, decode and checksum errors from a cache miss.
    pub fn open_cached(path: &Path) -> Result<ReplayWorkload, TraceError> {
        let mut cache = decode_cache().lock().expect("decode cache poisoned");
        if let Some((header, records)) = cache.get(path) {
            DECODE_HITS.fetch_add(1, Ordering::Relaxed);
            return ReplayWorkload::from_shared(header.clone(), Arc::clone(records));
        }
        DECODE_MISSES.fetch_add(1, Ordering::Relaxed);
        let (header, records) = TraceReader::open(path)?.read_all()?;
        let records = Arc::new(records);
        cache.insert(path.to_path_buf(), (header.clone(), Arc::clone(&records)));
        ReplayWorkload::from_shared(header, records)
    }

    /// Drops the cached decode of `path` (a write through the store is about
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
        let (header, _) = self.capture(source, core, seed, instructions, &path)?;
        Ok(header)
    }

    /// Pulls records from `source` until the instruction budget is met,
    /// writing them to a temp file published at `path` by atomic rename.
    fn capture(
        &self,
        source: &mut dyn TraceSource,
        core: u32,
        seed: u64,
        instructions: u64,
        path: &Path,
    ) -> Result<(TraceHeader, Vec<TraceRecord>), TraceError> {
        std::fs::create_dir_all(&self.dir)?;
        let tmp = self.dir.join(format!(
            "{}.tmp-{}-{}",
            path.file_name().and_then(|n| n.to_str()).unwrap_or("trace"),
            std::process::id(),
            unique_suffix(),
        ));
        let meta = TraceHeader::new(
            source.name(),
            format!("registry:{} core={core} seed={seed:#x}", source.name()),
            core,
            seed,
        );
        let mut writer = TraceWriter::create(&tmp, meta)?;
        let mut records = Vec::new();
        let result = (|| {
            while writer.instructions() < instructions {
                let record = source.next_record();
                writer.write_record(&record)?;
                records.push(record);
            }
            writer.finish()
        })();
        let header = match result {
            Ok(header) => header,
            Err(e) => {
                let _ = std::fs::remove_file(&tmp);
                return Err(e);
            }
        };
        if let Err(rename_error) = std::fs::rename(&tmp, path) {
            let _ = std::fs::remove_file(&tmp);
            // A concurrent job publishing the identical file first is fine;
            // anything else is a real error.
            if !path.exists() {
                return Err(TraceError::Io(rename_error));
            }
        }
        // The path's bytes just changed (or were first published): any
        // previously cached decode is stale.
        Self::invalidate_cached(path);
        Ok((header, records))
    }
}

/// Process-wide counter making concurrent temp-file names unique.
fn unique_suffix() -> u64 {
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    COUNTER.fetch_add(1, Ordering::Relaxed)
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

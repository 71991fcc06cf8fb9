//! Replaying a recorded trace as a live [`TraceSource`].

use std::path::Path;
use std::sync::Arc;

use bard_cpu::{skip_by_reading, TraceRecord, TraceSource};

use crate::encoded::{Cursor, EncodedTrace};
use crate::error::TraceError;
use crate::format::TraceHeader;

/// A [`TraceSource`] backed by a BTF1 trace held encoded in memory.
///
/// Replay is bitwise-equivalent to the live generator the trace was captured
/// from: the decoded records are exactly the generator's output, so a
/// simulation that consumes no more records than the file holds produces
/// identical results. `TraceSource`s are infinite by contract, so a replay
/// that runs past the end wraps around to the first record (like
/// [`bard_cpu::VecTrace`]); [`ReplayWorkload::wraps`] reports how often that
/// happened. Wrapping is the intended behaviour for finite *imported*
/// traces, but for an archive standing in for live generation it means the
/// results would silently diverge — consumers that rely on the equivalence
/// guarantee (the simulator's `--trace-dir` path) opt into
/// [`ReplayWorkload::strict`], which panics instead of wrapping.
#[derive(Debug, Clone)]
pub struct ReplayWorkload {
    /// The encoded recording, shared: every replay of the same file (and the
    /// process-wide decode cache behind [`crate::TraceStore`]) points at one
    /// allocation and decodes its own records from it.
    trace: Arc<EncodedTrace>,
    /// The next record to serve.
    cursor: Cursor,
    wraps: u64,
    strict: bool,
}

impl ReplayWorkload {
    /// Reads `path` once into a replayable source, validating it with the
    /// read `trace verify` runs: every record, the checksum, the trailer's
    /// counts and the end of the file.
    ///
    /// # Errors
    ///
    /// Propagates read, decode and checksum errors, rejects bytes after the
    /// last record, and rejects empty traces (a `TraceSource` must be able
    /// to produce a record).
    pub fn open(path: &Path) -> Result<Self, TraceError> {
        Ok(Self::new(Arc::new(EncodedTrace::read(path)?)))
    }

    /// A replay from the first record of a shared trace.
    pub(crate) fn new(trace: Arc<EncodedTrace>) -> Self {
        Self { trace, cursor: Cursor::default(), wraps: 0, strict: false }
    }

    /// The shared encoded recording backing this replay. Two replays of the
    /// same archived file satisfy `Arc::ptr_eq` on this when both came
    /// through the decode cache.
    #[must_use]
    pub fn shared_records(&self) -> Arc<EncodedTrace> {
        Arc::clone(&self.trace)
    }

    /// Returns a replay that panics instead of wrapping past the end of the
    /// recording. Use when replay stands in for live generation and a wrap
    /// would silently break bitwise equivalence (an undersized archive must
    /// fail loudly, not repeat its prefix).
    #[must_use]
    pub fn strict(mut self) -> Self {
        self.strict = true;
        self
    }

    /// The trace's self-describing header.
    #[must_use]
    pub fn header(&self) -> &TraceHeader {
        self.trace.header()
    }

    /// Number of records before the replay wraps.
    #[must_use]
    pub fn len(&self) -> usize {
        self.trace.len()
    }

    /// Always false: every trace holds at least one record.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        false
    }

    /// How many times the replay has wrapped past the end of the recording.
    /// Zero means every record served so far came straight from the file.
    #[must_use]
    pub fn wraps(&self) -> u64 {
        self.wraps
    }

    /// True while records remain before the end of the recording.
    fn has_next(&self) -> bool {
        self.cursor.record < self.trace.len()
    }

    /// Moves past the next `n` records by seeking, which decodes fewer than
    /// [`crate::CHECKPOINT_INTERVAL`] records, when they all lie inside the
    /// recording, returning whether it did; a skip that would reach past
    /// the end leaves the replay untouched.
    fn seek_within(&mut self, n: u64) -> bool {
        let left = self.trace.len() - self.cursor.record;
        match usize::try_from(n) {
            Ok(n) if n <= left => {
                let target = self.cursor.record + n;
                self.trace.seek(&mut self.cursor, target);
                true
            }
            _ => false,
        }
    }
}

impl ReplayWorkload {
    /// Wraps the replay in an **exact** live fallback: the recording is
    /// served to its end, and a request for the record after the last one
    /// rebuilds the live generator, fast-forwards it past the recorded
    /// prefix and continues from there. Because a recording *is* the
    /// generator's prefix for its `(workload, core, seed)` key, the combined
    /// stream is bitwise-identical to pure live generation for any
    /// consumption length — an undersized archive budget costs wall clock
    /// (one generator fast-forward), never correctness. This is what the
    /// simulator's `--trace-dir` path uses instead of [`ReplayWorkload::strict`].
    #[must_use]
    pub fn with_live_fallback(
        self,
        build: impl FnOnce() -> Box<dyn TraceSource> + Send + 'static,
    ) -> ReplayThenLive {
        ReplayThenLive { replay: self, build: Some(Box::new(build)), live: None }
    }
}

/// A replay that continues with (fast-forwarded) live generation when the
/// recording runs out — see [`ReplayWorkload::with_live_fallback`]. A
/// [`TraceSource::skip`] that ends inside the recording seeks by
/// checkpoint; one that crosses its end reads through it, so the fallback
/// engages exactly as it would under [`TraceSource::next_record`].
pub struct ReplayThenLive {
    replay: ReplayWorkload,
    build: Option<Box<dyn FnOnce() -> Box<dyn TraceSource> + Send>>,
    live: Option<Box<dyn TraceSource>>,
}

impl ReplayThenLive {
    /// True once the recording was exhausted and the live generator took
    /// over (an archive-budget diagnostic; results are identical either
    /// way).
    #[must_use]
    pub fn fell_back(&self) -> bool {
        self.live.is_some()
    }
}

impl std::fmt::Debug for ReplayThenLive {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ReplayThenLive")
            .field("replay", &self.replay)
            .field("fell_back", &self.fell_back())
            .finish_non_exhaustive()
    }
}

impl TraceSource for ReplayThenLive {
    fn next_record(&mut self) -> TraceRecord {
        if self.replay.has_next() {
            return self.replay.next_record();
        }
        let live = self.live.get_or_insert_with(|| {
            // Loud (stderr-only, so artifacts stay byte-identical): the
            // archive was undersized for this run and replay's speed
            // advantage is gone for this core — the diagnostic the old
            // strict-replay panic used to provide, without the panic.
            eprintln!(
                "trace '{}' (core {}): recording exhausted after {} records; continuing \
                 bitwise-identically from the fast-forwarded live generator (re-record \
                 with a larger budget to keep replay fast)",
                self.replay.header().workload,
                self.replay.header().core,
                self.replay.len(),
            );
            let build = self.build.take().expect("fallback generator built once");
            let mut live = build();
            // Fast-forward past the recorded prefix the replay already
            // served; the generator stream is a pure function of the key, so
            // what follows is exactly what a longer recording would hold.
            live.skip(self.replay.len() as u64);
            live
        });
        live.next_record()
    }

    fn skip(&mut self, n: u64) {
        if !self.replay.seek_within(n) {
            skip_by_reading(self, n);
        }
    }

    fn name(&self) -> &str {
        self.replay.name()
    }
}

impl TraceSource for ReplayWorkload {
    fn next_record(&mut self) -> TraceRecord {
        if !self.has_next() {
            // Consuming exactly len() records is fine; only a request for a
            // record beyond the recording wraps (or, strictly, fails).
            let header = self.trace.header();
            assert!(
                !self.strict,
                "trace '{}' (core {}) exhausted its {} recorded instructions; a strict replay \
                 must outlast the run — re-record with a larger budget",
                header.workload, header.core, header.instructions
            );
            self.cursor = Cursor::default();
            self.wraps += 1;
        }
        self.trace.decode(&mut self.cursor)
    }

    /// Seeks by checkpoint inside the recording; a skip past its end reads
    /// through it, so it wraps (or, strictly, panics) exactly as
    /// [`TraceSource::next_record`] would.
    fn skip(&mut self, n: u64) {
        if !self.seek_within(n) {
            skip_by_reading(self, n);
        }
    }

    fn name(&self) -> &str {
        &self.trace.header().workload
    }
}

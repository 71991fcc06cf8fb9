//! Replaying a recorded trace as a live [`TraceSource`].

use std::path::Path;
use std::sync::Arc;

use bard_cpu::{skip_by_reading, TraceRecord, TraceSource};

use crate::error::TraceError;
use crate::format::TraceHeader;
use crate::reader::TraceReader;

/// A [`TraceSource`] backed by a decoded BTF1 trace.
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
    header: TraceHeader,
    /// Decoded records, shared: every replay of the same file (and the
    /// process-wide decode cache behind [`crate::TraceStore`]) points at one
    /// allocation, so grid experiments stop holding per-`System` copies. An
    /// `Arc<Vec<_>>` rather than an `Arc<[_]>`, so the `Vec` a decode or
    /// capture built is shared as it is, without a copy.
    records: Arc<Vec<TraceRecord>>,
    position: usize,
    wraps: u64,
    strict: bool,
}

impl ReplayWorkload {
    /// Decodes `path` fully (verifying its checksum) into a replayable
    /// source.
    ///
    /// # Errors
    ///
    /// Propagates read, decode and checksum errors, and rejects empty traces
    /// (a `TraceSource` must be able to produce a record).
    pub fn open(path: &Path) -> Result<Self, TraceError> {
        let (header, records) = TraceReader::open(path)?.read_all()?;
        Self::from_parts(header, records)
    }

    /// Builds a replay from an already-decoded header and record vector,
    /// taking ownership of the vector (no copy is made).
    ///
    /// # Errors
    ///
    /// Rejects empty traces.
    pub fn from_parts(header: TraceHeader, records: Vec<TraceRecord>) -> Result<Self, TraceError> {
        Self::from_shared(header, Arc::new(records))
    }

    /// Builds a replay over an already-shared record allocation (the decode
    /// cache's path — no copy is made).
    ///
    /// # Errors
    ///
    /// Rejects empty traces.
    pub fn from_shared(
        header: TraceHeader,
        records: Arc<Vec<TraceRecord>>,
    ) -> Result<Self, TraceError> {
        if records.is_empty() {
            return Err(TraceError::Mismatch {
                message: format!("trace '{}' holds no records", header.workload),
            });
        }
        Ok(Self { header, records, position: 0, wraps: 0, strict: false })
    }

    /// The shared record allocation backing this replay. Two replays of the
    /// same archived file satisfy `Arc::ptr_eq` on this when both came
    /// through the decode cache.
    #[must_use]
    pub fn shared_records(&self) -> Arc<Vec<TraceRecord>> {
        Arc::clone(&self.records)
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
        &self.header
    }

    /// Number of records before the replay wraps.
    #[must_use]
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Always false: construction rejects empty traces.
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

    /// Moves past the next `n` records in O(1) when they all lie inside the
    /// recording, returning whether it did; a skip that would reach past
    /// the end leaves the replay untouched.
    fn seek_within(&mut self, n: u64) -> bool {
        let left = self.records.len() - self.position;
        match usize::try_from(n) {
            Ok(n) if n <= left => {
                self.position += n;
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
/// [`TraceSource::skip`] that ends inside the recording seeks in O(1); one
/// that crosses its end reads through it, so the fallback engages exactly
/// as it would under [`TraceSource::next_record`].
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
        if self.replay.position < self.replay.records.len() {
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
                self.replay.header.workload,
                self.replay.header.core,
                self.replay.records.len(),
            );
            let build = self.build.take().expect("fallback generator built once");
            let mut live = build();
            // Fast-forward past the recorded prefix the replay already
            // served; the generator stream is a pure function of the key, so
            // what follows is exactly what a longer recording would hold.
            live.skip(self.replay.records.len() as u64);
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
        if self.position == self.records.len() {
            // Consuming exactly len() records is fine; only a request for a
            // record beyond the recording wraps (or, strictly, fails).
            assert!(
                !self.strict,
                "trace '{}' (core {}) exhausted its {} recorded instructions; a strict replay \
                 must outlast the run — re-record with a larger budget",
                self.header.workload, self.header.core, self.header.instructions
            );
            self.position = 0;
            self.wraps += 1;
        }
        let record = self.records[self.position];
        self.position += 1;
        record
    }

    /// Seeks in O(1) inside the recording; a skip past its end reads
    /// through it, so it wraps (or, strictly, panics) exactly as
    /// [`TraceSource::next_record`] would.
    fn skip(&mut self, n: u64) {
        if !self.seek_within(n) {
            skip_by_reading(self, n);
        }
    }

    fn name(&self) -> &str {
        &self.header.workload
    }
}

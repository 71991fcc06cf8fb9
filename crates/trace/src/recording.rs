//! Teeing a live [`TraceSource`] to disk while it is being consumed.

use std::path::{Path, PathBuf};

use bard_cpu::{TraceRecord, TraceSource};

use crate::encoded::Encoder;
use crate::error::TraceError;
use crate::format::TraceHeader;

/// A [`TraceSource`] adapter that records every produced record to a BTF1
/// file as a side effect.
///
/// Wrap any source (a registry generator, an imported trace, another
/// replay), hand the wrapper to a consumer, then call
/// [`RecordingSource::finish`] to publish the file. Records are encoded into
/// memory as they pass (7–8 bytes each for registry workloads), and nothing
/// is written before `finish`, so an unfinished recording leaves no file.
pub struct RecordingSource<S: TraceSource> {
    inner: S,
    path: PathBuf,
    encoder: Encoder,
}

impl<S: TraceSource> RecordingSource<S> {
    /// Starts recording `inner`, to be published at `path`, stamping
    /// `source` into the header as free-form provenance.
    #[must_use]
    pub fn create(inner: S, path: &Path, source: impl Into<String>, core: u32, seed: u64) -> Self {
        let encoder = Encoder::new(TraceHeader::new(inner.name(), source, core, seed));
        Self { inner, path: path.to_path_buf(), encoder }
    }

    /// Records recorded so far.
    #[must_use]
    pub fn records(&self) -> u64 {
        self.encoder.records()
    }

    /// Seals the recording, publishes it at the path given to
    /// [`RecordingSource::create`] (a temporary file renamed into place) and
    /// returns the final header plus the wrapped source.
    ///
    /// # Errors
    ///
    /// Rejects a recording of no records, and propagates filesystem errors
    /// from the publish.
    pub fn finish(self) -> Result<(TraceHeader, S), TraceError> {
        let trace = self.encoder.finish()?;
        trace.publish(&self.path)?;
        Ok((trace.header().clone(), self.inner))
    }
}

impl<S: TraceSource> std::fmt::Debug for RecordingSource<S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RecordingSource")
            .field("workload", &self.inner.name())
            .field("path", &self.path)
            .field("records", &self.records())
            .finish_non_exhaustive()
    }
}

impl<S: TraceSource> TraceSource for RecordingSource<S> {
    fn next_record(&mut self) -> TraceRecord {
        let record = self.inner.next_record();
        self.encoder.push(&record);
        record
    }

    fn name(&self) -> &str {
        self.inner.name()
    }
}

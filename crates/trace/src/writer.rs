//! Streaming BTF1 encoder.

use std::fs::File;
use std::io::{BufWriter, Seek, SeekFrom, Write};
use std::path::Path;

use bard_cpu::TraceRecord;

use crate::error::TraceError;
use crate::format::{header_bytes, CodecState, Fnv64, TraceHeader, TRAILER_BYTES};

/// Streams [`TraceRecord`]s into a BTF1 container.
///
/// Records are delta-encoded as they arrive, so a writer holds O(1) state
/// however long the trace is. The checksum covers the header's identity
/// bytes (everything before the patched trailer) and every encoded record
/// byte. Because the record count and checksum are not known up front, the
/// header is written with placeholder zeros and patched in place by
/// [`TraceWriter::finish`] — dropping a writer without calling `finish`
/// leaves a file that every reader rejects (the placeholder zero checksum
/// never matches), which is the safe failure mode for interrupted
/// recordings.
#[derive(Debug)]
pub struct TraceWriter<W: Write + Seek> {
    out: W,
    header: TraceHeader,
    /// Byte offset of the fixed-width header trailer to patch at finish.
    trailer_offset: u64,
    state: CodecState,
    hasher: Fnv64,
    scratch: Vec<u8>,
}

impl TraceWriter<BufWriter<File>> {
    /// Creates `path` (truncating any existing file) and writes the
    /// provisional header. `header` supplies the identity fields; counts and
    /// checksum are stamped by [`TraceWriter::finish`].
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn create(path: &Path, header: TraceHeader) -> Result<Self, TraceError> {
        Self::new(BufWriter::new(File::create(path)?), header)
    }
}

impl<W: Write + Seek> TraceWriter<W> {
    /// Wraps an arbitrary seekable sink and writes the provisional header.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from the header write.
    pub fn new(mut out: W, mut header: TraceHeader) -> Result<Self, TraceError> {
        header.records = 0;
        header.instructions = 0;
        header.checksum = 0;
        let bytes = header_bytes(&header);
        out.write_all(&bytes)?;
        let trailer_offset = bytes.len() as u64 - TRAILER_BYTES;
        // The identity bytes join the checksum; the trailer is patched after
        // recording and is cross-checked by count instead.
        let mut hasher = Fnv64::new();
        hasher.update(&bytes[..trailer_offset as usize]);
        Ok(Self {
            out,
            header,
            trailer_offset,
            state: CodecState::default(),
            hasher,
            scratch: Vec::with_capacity(32),
        })
    }

    /// Appends one record.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from the sink.
    pub fn write_record(&mut self, record: &TraceRecord) -> Result<(), TraceError> {
        self.scratch.clear();
        self.state.encode(record, &mut self.scratch);
        self.hasher.update(&self.scratch);
        self.out.write_all(&self.scratch)?;
        self.header.records += 1;
        self.header.instructions += record.instructions();
        Ok(())
    }

    /// Records written so far.
    #[must_use]
    pub fn records(&self) -> u64 {
        self.header.records
    }

    /// Patches the record count, instruction count and checksum into the
    /// header, flushes, and returns the final header.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from the patch or flush.
    pub fn finish(mut self) -> Result<TraceHeader, TraceError> {
        self.header.checksum = self.hasher.finish();
        self.out.seek(SeekFrom::Start(self.trailer_offset))?;
        self.out.write_all(&self.header.records.to_le_bytes())?;
        self.out.write_all(&self.header.instructions.to_le_bytes())?;
        self.out.write_all(&self.header.checksum.to_le_bytes())?;
        self.out.flush()?;
        Ok(self.header)
    }
}

//! The in-memory form of a trace: its record payload plus a checkpoint
//! index, decoded as a replay consumes it. This module is the one BTF1
//! record codec: one encoder behind every capture, recording and import,
//! one `publish` that writes every trace file, and one validating read
//! behind every replay, the decode cache and `trace verify`.
//!
//! A decoded [`TraceRecord`] takes 32 bytes, while the BTF1 encoding of a
//! registry workload takes 7–8 bytes per record. So a trace is held as its
//! encoded payload, validated once when it is encoded or read, and a
//! replay decodes each record as it serves it. The index keeps the payload
//! offset and codec state of every [`CHECKPOINT_INTERVAL`]-th record, so a
//! seek decodes at most `CHECKPOINT_INTERVAL - 1` records.

use std::fs::File;
use std::io::{BufReader, Read};
use std::path::Path;

use bard_cpu::{TraceRecord, TraceSource};

use crate::error::TraceError;
use crate::format::{header_bytes, slice_source, CodecState, Fnv64, TraceHeader, TRAILER_BYTES};
use crate::store::publish_atomically;

/// Records between two checkpoints of an [`EncodedTrace`]'s index.
pub const CHECKPOINT_INTERVAL: usize = 4096;

/// A position in an encoded trace: the records before it, the payload
/// offset of the next record and the codec state that record decodes
/// against.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct Cursor {
    pub(crate) record: usize,
    offset: usize,
    state: CodecState,
}

/// Appends `cursor` to the index when it sits on a checkpoint.
fn note_checkpoint(checkpoints: &mut Vec<Cursor>, cursor: &Cursor) {
    if cursor.record.is_multiple_of(CHECKPOINT_INTERVAL) {
        checkpoints.push(*cursor);
    }
}

/// One trace held encoded: its header, the BTF1 record payload (exactly the
/// file's bytes after the header) and a cursor at every
/// [`CHECKPOINT_INTERVAL`]-th record. Only the encoder and the validating
/// read build one, so decoding it again cannot fail, and it holds at least
/// one record.
#[derive(PartialEq, Eq)]
pub struct EncodedTrace {
    header: TraceHeader,
    payload: Box<[u8]>,
    /// The cursor at record `k * CHECKPOINT_INTERVAL` for every `k` up to
    /// `len / CHECKPOINT_INTERVAL`, so every position from 0 to `len` has a
    /// checkpoint at most `CHECKPOINT_INTERVAL - 1` records before it.
    checkpoints: Box<[Cursor]>,
}

impl EncodedTrace {
    /// The trace `header`, `payload` and `checkpoints` describe. A trace
    /// holds at least one record, since a replay must be able to serve one.
    fn new(
        header: TraceHeader,
        payload: Vec<u8>,
        checkpoints: Vec<Cursor>,
    ) -> Result<Self, TraceError> {
        if header.records == 0 {
            return Err(TraceError::Mismatch {
                message: format!("trace '{}' holds no records", header.workload),
            });
        }
        Ok(Self { header, payload: payload.into(), checkpoints: checkpoints.into() })
    }

    /// Pulls records from `source` until they hold `instructions` and
    /// encodes them.
    pub(crate) fn pull(
        header: TraceHeader,
        source: &mut dyn TraceSource,
        instructions: u64,
    ) -> Result<Self, TraceError> {
        let mut encoder = Encoder::new(header);
        while encoder.header.instructions < instructions {
            if encoder.cursor.record == CHECKPOINT_INTERVAL {
                encoder.reserve_for(instructions);
            }
            encoder.push(&source.next_record());
        }
        encoder.finish()
    }

    /// Reads the BTF1 file at `path` and validates it in one pass that
    /// builds the index: the one read behind every replay and `trace
    /// verify`. It rejects a bad header, tag or varint, a bubble outside
    /// `u32`, truncation, bytes after the last record, a bad checksum, a
    /// wrong instruction count and a trace of no records.
    pub(crate) fn read(path: &Path) -> Result<Self, TraceError> {
        let mut input = BufReader::new(File::open(path)?);
        let file_len = input.get_ref().metadata()?.len();
        let (header, mut hasher, start) = TraceHeader::parse(&mut input)?;
        let capacity = usize::try_from(file_len.saturating_sub(start)).unwrap_or(0);
        let mut payload = Vec::with_capacity(capacity);
        input.read_to_end(&mut payload)?;
        let mut checkpoints = Vec::new();
        let mut cursor = Cursor::default();
        let mut instructions = 0;
        while (cursor.record as u64) < header.records {
            note_checkpoint(&mut checkpoints, &cursor);
            let Cursor { offset, state, .. } = &mut cursor;
            instructions +=
                state.decode(&mut slice_source(&payload, offset, start))?.instructions();
            cursor.record += 1;
        }
        note_checkpoint(&mut checkpoints, &cursor);
        hasher.update(&payload[..cursor.offset]);
        let checksum = hasher.finish();
        if checksum != header.checksum {
            return Err(TraceError::Checksum { expected: header.checksum, actual: checksum });
        }
        let end = start + cursor.offset as u64;
        if instructions != header.instructions {
            return Err(TraceError::Format {
                offset: end,
                message: format!(
                    "header claims {} instructions but the records hold {instructions}",
                    header.instructions
                ),
            });
        }
        // The checksum covers only the records the trailer promises, so
        // bytes after them are rejected here.
        let extra = payload.len() - cursor.offset;
        if extra > 0 {
            return Err(TraceError::Format {
                offset: end,
                message: format!("{extra} bytes follow the last record"),
            });
        }
        Self::new(header, payload, checkpoints)
    }

    /// Writes the BTF1 file this trace encodes, header then payload, to
    /// `path` with [`publish_atomically`]: the one writer of every trace
    /// file, so no reader sees a partial file and concurrent publishers of
    /// the same bytes race benignly.
    pub(crate) fn publish(&self, path: &Path) -> Result<(), TraceError> {
        Ok(publish_atomically(path, &[&header_bytes(&self.header), &self.payload])?)
    }

    /// The trace's self-describing header.
    #[must_use]
    pub(crate) fn header(&self) -> &TraceHeader {
        &self.header
    }

    /// Number of records in the trace.
    #[must_use]
    pub(crate) fn len(&self) -> usize {
        self.header.records as usize
    }

    /// The bytes this trace holds in memory: the encoded payload plus the
    /// checkpoint index.
    #[must_use]
    pub fn bytes_held(&self) -> usize {
        self.payload.len() + std::mem::size_of_val(&*self.checkpoints)
    }

    /// Decodes the record at `cursor` and advances it. The caller keeps
    /// `cursor.record` below [`EncodedTrace::len`].
    #[inline]
    pub(crate) fn decode(&self, cursor: &mut Cursor) -> TraceRecord {
        let Cursor { record, offset, state } = cursor;
        let decoded = state
            .decode(&mut slice_source(&self.payload, offset, 0))
            .expect("a validated payload decodes");
        *record += 1;
        decoded
    }

    /// Moves `cursor` forward to record `target` (at most
    /// [`EncodedTrace::len`]): from the checkpoint at or before `target`,
    /// or from `cursor` itself when it already sits past that checkpoint.
    pub(crate) fn seek(&self, cursor: &mut Cursor, target: usize) {
        debug_assert!(cursor.record <= target && target <= self.len());
        let checkpoint = target / CHECKPOINT_INTERVAL;
        if checkpoint > cursor.record / CHECKPOINT_INTERVAL {
            *cursor = self.checkpoints[checkpoint];
        }
        while cursor.record < target {
            self.decode(cursor);
        }
    }
}

impl std::fmt::Debug for EncodedTrace {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EncodedTrace")
            .field("header", &self.header)
            .field("payload_bytes", &self.payload.len())
            .field("checkpoints", &self.checkpoints.len())
            .finish()
    }
}

/// Encodes records one at a time into an [`EncodedTrace`]: the one BTF1
/// record encoder, fed by captures, recordings and imports.
pub(crate) struct Encoder {
    /// The identity fields and the instructions encoded so far.
    header: TraceHeader,
    payload: Vec<u8>,
    checkpoints: Vec<Cursor>,
    /// Where the next record goes.
    cursor: Cursor,
}

impl Encoder {
    /// An encoder of no records under `header`'s identity fields.
    pub(crate) fn new(mut header: TraceHeader) -> Self {
        header.instructions = 0;
        Self { header, payload: Vec::new(), checkpoints: Vec::new(), cursor: Cursor::default() }
    }

    /// Records encoded so far.
    pub(crate) fn records(&self) -> u64 {
        self.cursor.record as u64
    }

    /// Appends the encoding of `record`.
    pub(crate) fn push(&mut self, record: &TraceRecord) {
        note_checkpoint(&mut self.checkpoints, &self.cursor);
        self.cursor.state.encode(record, &mut self.payload);
        self.cursor.record += 1;
        self.cursor.offset = self.payload.len();
        self.header.instructions += record.instructions();
    }

    /// Reserves the payload that `instructions` take at the density encoded
    /// so far, plus an eighth. After the first checkpoint interval that
    /// projection lands within 2% of the whole payload for every registry
    /// workload, so the buffer is allocated once. Doubling instead copies
    /// the buffer at each growth and leaves every old buffer with the
    /// allocator: over repeated captures that held several payloads' worth
    /// of resident memory.
    fn reserve_for(&mut self, instructions: u64) {
        let encoded = self.payload.len() as u128;
        let projected = encoded * u128::from(instructions) / u128::from(self.header.instructions);
        let wanted = usize::try_from(projected + projected / 8).unwrap_or(usize::MAX);
        // A reservation the allocator refuses leaves the buffer to grow as
        // it would have.
        let _ = self.payload.try_reserve_exact(wanted.saturating_sub(self.payload.len()));
    }

    /// Seals the header's counts and its checksum, which covers the
    /// header's identity bytes plus the payload.
    ///
    /// # Errors
    ///
    /// Rejects an encoder of no records.
    pub(crate) fn finish(mut self) -> Result<EncodedTrace, TraceError> {
        note_checkpoint(&mut self.checkpoints, &self.cursor);
        self.header.records = self.cursor.record as u64;
        let identity = header_bytes(&self.header);
        let mut hasher = Fnv64::new();
        hasher.update(&identity[..identity.len() - TRAILER_BYTES as usize]);
        hasher.update(&self.payload);
        self.header.checksum = hasher.finish();
        EncodedTrace::new(self.header, self.payload, self.checkpoints)
    }
}

//! The in-memory form of an archived trace: the file's validated record
//! payload plus a checkpoint index, decoded as a replay consumes it.
//!
//! A decoded [`TraceRecord`] takes 32 bytes, while the BTF1 encoding of a
//! registry workload takes 7–8 bytes per record. So a trace is held as its
//! encoded payload, validated once when it is captured or read, and a
//! replay decodes each record as it serves it. The index keeps the payload
//! offset and codec state of every [`CHECKPOINT_INTERVAL`]-th record, so a
//! seek decodes at most `CHECKPOINT_INTERVAL - 1` records.

use std::fs::File;
use std::io::{Read, Write};
use std::path::Path;

use bard_cpu::{TraceRecord, TraceSource};

use crate::error::TraceError;
use crate::format::{header_bytes, slice_source, CodecState, Fnv64, TraceHeader, TRAILER_BYTES};
use crate::reader::{verify_totals, TraceReader};

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

/// One archived trace held encoded: its header, the BTF1 record payload
/// (exactly the file's bytes after the header) and a cursor at every
/// [`CHECKPOINT_INTERVAL`]-th record. Construction validates the whole
/// payload, so decoding it again cannot fail.
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
    /// Pulls records from `source` until they hold `instructions`, encoding
    /// each once, and seals the header's counts and checksum.
    pub(crate) fn capture(
        mut header: TraceHeader,
        source: &mut dyn TraceSource,
        instructions: u64,
    ) -> Self {
        let mut payload = Vec::new();
        let mut checkpoints = Vec::new();
        let mut cursor = Cursor::default();
        let mut captured = 0;
        while captured < instructions {
            note_checkpoint(&mut checkpoints, &cursor);
            if cursor.record == CHECKPOINT_INTERVAL {
                // The first interval shows how densely the stream encodes
                // (within 2% of the whole payload for every registry
                // workload), so reserve the projected payload plus an
                // eighth once. Doubling instead copies the buffer at each
                // growth and leaves every old buffer with the allocator:
                // over repeated captures that held several payloads' worth
                // of resident memory.
                let projected =
                    payload.len() as u128 * u128::from(instructions) / u128::from(captured);
                let wanted = usize::try_from(projected + projected / 8).unwrap_or(usize::MAX);
                // A reservation the allocator refuses leaves the buffer to
                // grow as it would have.
                let _ = payload.try_reserve_exact(wanted.saturating_sub(payload.len()));
            }
            let record = source.next_record();
            cursor.state.encode(&record, &mut payload);
            cursor.record += 1;
            cursor.offset = payload.len();
            captured += record.instructions();
        }
        note_checkpoint(&mut checkpoints, &cursor);
        header.records = cursor.record as u64;
        header.instructions = captured;
        let identity = header_bytes(&header);
        let mut hasher = Fnv64::new();
        hasher.update(&identity[..identity.len() - TRAILER_BYTES as usize]);
        hasher.update(&payload);
        header.checksum = hasher.finish();
        Self { header, payload: payload.into(), checkpoints: checkpoints.into() }
    }

    /// Reads a BTF1 file once and validates it in one pass that builds the
    /// index. It rejects what [`TraceReader`] rejects, with the same errors:
    /// a bad header, tag or varint, a bubble outside `u32`, truncation, a
    /// bad checksum or a wrong instruction count.
    pub(crate) fn read(path: &Path) -> Result<Self, TraceError> {
        let mut file = File::open(path)?;
        let file_len = file.metadata()?.len();
        let (header, mut hasher, start) = TraceReader::new(&mut file)?.into_payload_state();
        let capacity = usize::try_from(file_len.saturating_sub(start)).unwrap_or(0);
        let mut payload = Vec::with_capacity(capacity);
        file.read_to_end(&mut payload)?;
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
        verify_totals(&header, hasher.finish(), instructions, start + cursor.offset as u64)?;
        // Bytes after the last promised record are not part of the trace.
        payload.truncate(cursor.offset);
        Ok(Self { header, payload: payload.into(), checkpoints: checkpoints.into() })
    }

    /// Writes the BTF1 file this trace encodes: header, then payload.
    pub(crate) fn write_to(&self, out: &mut impl Write) -> std::io::Result<()> {
        out.write_all(&header_bytes(&self.header))?;
        out.write_all(&self.payload)
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

    /// True for a trace of no records.
    #[must_use]
    pub(crate) fn is_empty(&self) -> bool {
        self.header.records == 0
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

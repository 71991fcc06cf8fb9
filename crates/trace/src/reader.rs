//! Streaming BTF1 decoder.

use std::fs::File;
use std::io::{BufReader, Read};
use std::path::Path;

use bard_cpu::TraceRecord;

use crate::error::TraceError;
use crate::format::{
    read_varint, CodecState, Fnv64, TraceHeader, MAGIC, MAX_NAME_BYTES, TRUNCATED_RECORD, VERSION,
};

/// Maps an I/O error to a [`TraceError`], turning `UnexpectedEof` into a
/// located format error with a caller-supplied context message.
fn map_io(e: std::io::Error, offset: u64, context: &'static str) -> TraceError {
    if e.kind() == std::io::ErrorKind::UnexpectedEof {
        TraceError::Format { offset, message: context.to_string() }
    } else {
        TraceError::Io(e)
    }
}

/// The one byte-at-a-time source both the header parser and the record
/// decoder pull from: reads a byte, advances the offset, feeds the hasher,
/// and maps EOF to a located error. Keeping a single implementation means
/// offset accounting and checksum coverage can never drift between the two
/// call sites.
fn byte_source<'a, R: Read>(
    input: &'a mut R,
    offset: &'a mut u64,
    hasher: &'a mut Fnv64,
    context: &'static str,
) -> impl FnMut() -> Result<(u8, u64), TraceError> + 'a {
    move || {
        let mut byte = [0u8; 1];
        input.read_exact(&mut byte).map_err(|e| map_io(e, *offset, context))?;
        let at = *offset;
        *offset += 1;
        hasher.update(&byte);
        Ok((byte[0], at))
    }
}

/// Streams [`TraceRecord`]s out of a BTF1 container.
///
/// The header is validated eagerly on construction; records decode lazily
/// via [`TraceReader::next_record`]. The checksum covers the header's
/// identity bytes (everything before the patched trailer) plus every encoded
/// record byte, and is compared after the last record — so a fully drained
/// reader has verified the whole file, including a corrupted seed, core or
/// workload name. The trailer's instruction count is cross-checked against
/// the decoded records as well.
#[derive(Debug)]
pub struct TraceReader<R: Read> {
    input: R,
    header: TraceHeader,
    state: CodecState,
    hasher: Fnv64,
    /// Records decoded so far.
    decoded: u64,
    /// Instructions represented by the records decoded so far.
    instructions: u64,
    /// Absolute byte offset of the next read (for error messages).
    offset: u64,
    verified: bool,
}

impl TraceReader<BufReader<File>> {
    /// Opens a trace file and reads its header.
    ///
    /// # Errors
    ///
    /// Returns an error if the file cannot be opened or is not a BTF1
    /// container.
    pub fn open(path: &Path) -> Result<Self, TraceError> {
        Self::new(BufReader::new(File::open(path)?))
    }
}

impl<R: Read> TraceReader<R> {
    /// Wraps an arbitrary byte stream and reads the header.
    ///
    /// # Errors
    ///
    /// Returns an error if the stream does not start with a valid BTF1
    /// header.
    pub fn new(input: R) -> Result<Self, TraceError> {
        let mut reader = Self {
            input,
            header: TraceHeader::new("", "", 0, 0),
            state: CodecState::default(),
            hasher: Fnv64::new(),
            decoded: 0,
            instructions: 0,
            offset: 0,
            verified: false,
        };
        reader.header = reader.read_header()?;
        Ok(reader)
    }

    /// The self-describing header.
    #[must_use]
    pub fn header(&self) -> &TraceHeader {
        &self.header
    }

    /// Decodes the next record, or returns `None` after the last one.
    ///
    /// # Errors
    ///
    /// Returns a [`TraceError::Format`] on malformed bytes, a truncated
    /// file, or an instruction-count disagreement, and — once after the
    /// final record — [`TraceError::Checksum`] if the hash of the header
    /// identity bytes plus the payload disagrees with the header.
    pub fn next_record(&mut self) -> Result<Option<TraceRecord>, TraceError> {
        if self.decoded == self.header.records {
            if !self.verified {
                self.verified = true;
                verify_totals(&self.header, self.hasher.finish(), self.instructions, self.offset)?;
            }
            return Ok(None);
        }
        let Self { input, offset, hasher, state, .. } = self;
        let mut next = byte_source(input, offset, hasher, TRUNCATED_RECORD);
        let record = state.decode(&mut next)?;
        self.decoded += 1;
        self.instructions += record.instructions();
        Ok(Some(record))
    }

    /// Decodes every remaining record, verifying the checksum.
    ///
    /// # Errors
    ///
    /// Propagates the first decode or checksum error.
    pub fn read_all(mut self) -> Result<(TraceHeader, Vec<TraceRecord>), TraceError> {
        let mut records =
            Vec::with_capacity(usize::try_from(self.header.records).unwrap_or(0).min(1 << 24));
        while let Some(record) = self.next_record()? {
            records.push(record);
        }
        Ok((self.header, records))
    }

    /// The header, the checksum so far (over the header's identity bytes)
    /// and the file offset where the record payload starts: what a reader
    /// that decodes the payload itself continues from.
    pub(crate) fn into_payload_state(self) -> (TraceHeader, Fnv64, u64) {
        (self.header, self.hasher, self.offset)
    }

    // ------------------------------------------------------------------
    // Header parsing
    // ------------------------------------------------------------------

    /// Reads `buf.len()` bytes, hashing them when `hashed` (identity fields
    /// are covered by the checksum; the patched trailer is not).
    fn read_exact(&mut self, buf: &mut [u8], hashed: bool) -> Result<(), TraceError> {
        self.input
            .read_exact(buf)
            .map_err(|e| map_io(e, self.offset, "file ends inside the header"))?;
        self.offset += buf.len() as u64;
        if hashed {
            self.hasher.update(buf);
        }
        Ok(())
    }

    fn read_u32(&mut self, hashed: bool) -> Result<u32, TraceError> {
        let mut buf = [0u8; 4];
        self.read_exact(&mut buf, hashed)?;
        Ok(u32::from_le_bytes(buf))
    }

    fn read_u64(&mut self, hashed: bool) -> Result<u64, TraceError> {
        let mut buf = [0u8; 8];
        self.read_exact(&mut buf, hashed)?;
        Ok(u64::from_le_bytes(buf))
    }

    fn read_string(&mut self) -> Result<String, TraceError> {
        let len = {
            let Self { input, offset, hasher, .. } = self;
            let mut next = byte_source(input, offset, hasher, "file ends inside the header");
            read_varint(&mut next)?
        };
        if len > MAX_NAME_BYTES {
            return Err(TraceError::Format {
                offset: self.offset,
                message: format!("header string of {len} bytes exceeds the {MAX_NAME_BYTES} cap"),
            });
        }
        let mut bytes = vec![0u8; len as usize];
        self.read_exact(&mut bytes, true)?;
        String::from_utf8(bytes).map_err(|_| TraceError::Format {
            offset: self.offset,
            message: "header string is not UTF-8".to_string(),
        })
    }

    fn read_header(&mut self) -> Result<TraceHeader, TraceError> {
        let mut magic = [0u8; 4];
        self.read_exact(&mut magic, true)?;
        if magic != MAGIC {
            return Err(TraceError::Format {
                offset: 0,
                message: format!("bad magic {magic:02x?} (expected \"BTF1\")"),
            });
        }
        let version = self.read_u32(true)?;
        if version != VERSION {
            return Err(TraceError::Version { found: version });
        }
        let flags = self.read_u32(true)?;
        if flags != 0 {
            return Err(TraceError::Format {
                offset: self.offset - 4,
                message: format!("reserved flags field is {flags:#x}, expected 0"),
            });
        }
        let workload = self.read_string()?;
        let source = self.read_string()?;
        let core = self.read_u32(true)?;
        let seed = self.read_u64(true)?;
        // The trailer is patched after recording, so it stays outside the
        // checksum; its counts are cross-checked against the decoded records
        // instead (see `next_record`).
        let records = self.read_u64(false)?;
        let instructions = self.read_u64(false)?;
        let checksum = self.read_u64(false)?;
        Ok(TraceHeader { workload, source, core, seed, records, instructions, checksum })
    }
}

/// The checks after a trace's last record: the checksum over the header's
/// identity bytes and the payload, then the trailer's instruction count.
/// `offset` is the file offset just past the last record.
pub(crate) fn verify_totals(
    header: &TraceHeader,
    checksum: u64,
    instructions: u64,
    offset: u64,
) -> Result<(), TraceError> {
    if checksum != header.checksum {
        return Err(TraceError::Checksum { expected: header.checksum, actual: checksum });
    }
    if instructions != header.instructions {
        return Err(TraceError::Format {
            offset,
            message: format!(
                "header claims {} instructions but the records hold {instructions}",
                header.instructions
            ),
        });
    }
    Ok(())
}

/// Fully decodes and checksums a trace file without retaining the records.
/// Returns the header on success — the cheap way to answer "is this file
/// intact?".
///
/// # Errors
///
/// Propagates the first header, decode, instruction-count or checksum error.
pub fn verify_file(path: &Path) -> Result<TraceHeader, TraceError> {
    let mut reader = TraceReader::open(path)?;
    while reader.next_record()?.is_some() {}
    Ok(reader.header.clone())
}

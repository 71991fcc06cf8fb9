//! The BTF1 container format: header layout, varint/zigzag primitives, the
//! per-record delta codec and the FNV-1a checksum.
//!
//! A BTF1 file is a self-describing byte stream:
//!
//! ```text
//! magic      4 bytes   "BTF1"
//! version    u32 LE    container version (currently 1)
//! flags      u32 LE    reserved, must be 0
//! workload   varint length + UTF-8 bytes (paper workload name)
//! source     varint length + UTF-8 bytes (free-form generator provenance)
//! core       u32 LE    core id the trace was captured for
//! seed       u64 LE    base workload-generator seed
//! records    u64 LE    record count           ─┐ fixed-width trailer,
//! instrs     u64 LE    total instructions      ├ sealed once the
//! checksum   u64 LE    FNV-1a, see below     ─┘ records are encoded
//! <records>  delta/zigzag/varint encoded, see below
//! ```
//!
//! Each record is encoded against the previous one:
//!
//! ```text
//! tag        1 byte    0 = compute, 1 = load, 2 = store
//! ip         zigzag varint of ip - prev_ip (wrapping)
//! bubble     zigzag varint of bubble - prev_bubble
//! addr       zigzag varint of addr - prev_addr (loads/stores only)
//! ```
//!
//! Deltas make the common cases (sequential ips, streaming addresses,
//! constant bubbles) one or two bytes each; zigzag keeps small negative
//! deltas small. The checksum covers the header's identity bytes (magic
//! through seed — everything before the sealed trailer) plus every encoded
//! record byte, so a flipped bit in the payload *or* in the identity fields
//! is rejected with [`TraceError::Checksum`]; the trailer's own counts are
//! cross-checked against the decoded records.

use std::fs::File;
use std::io::{BufReader, Read};
use std::path::Path;

use bard_cpu::{MemAccess, MemKind, TraceRecord};

use crate::error::TraceError;

/// The four magic bytes opening every trace file.
pub const MAGIC: [u8; 4] = *b"BTF1";

/// Container version this build writes and reads.
pub const VERSION: u32 = 1;

/// Sanity bound on header string lengths (a corrupt length field would
/// otherwise ask for gigabytes).
const MAX_NAME_BYTES: u64 = 4096;

/// Byte length of the fixed-width header trailer (records, instructions,
/// checksum), which stays outside the checksum because it is sealed after
/// the records are encoded.
pub(crate) const TRAILER_BYTES: u64 = 24;

/// Record tag values.
pub(crate) const TAG_COMPUTE: u8 = 0;
pub(crate) const TAG_LOAD: u8 = 1;
pub(crate) const TAG_STORE: u8 = 2;

/// The self-describing metadata of one BTF1 trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceHeader {
    /// Paper workload name ("lbm", "pagerank", ...; importer-chosen for
    /// external traces).
    pub workload: String,
    /// Free-form provenance of the generator or importer that produced the
    /// records.
    pub source: String,
    /// Core id the trace was captured for.
    pub core: u32,
    /// Base workload-generator seed (0 for imported traces).
    pub seed: u64,
    /// Number of records in the file.
    pub records: u64,
    /// Total instructions represented (sum of `bubble + 1`).
    pub instructions: u64,
    /// FNV-1a 64 checksum of the header identity bytes (everything before
    /// the trailer) plus the encoded record bytes.
    pub checksum: u64,
}

impl TraceHeader {
    /// A header carrying only the identity fields; counts and checksum are
    /// sealed once the records are encoded.
    #[must_use]
    pub fn new(
        workload: impl Into<String>,
        source: impl Into<String>,
        core: u32,
        seed: u64,
    ) -> Self {
        Self {
            workload: workload.into(),
            source: source.into(),
            core,
            seed,
            records: 0,
            instructions: 0,
            checksum: 0,
        }
    }

    /// Reads the header of the BTF1 file at `path` without decoding its
    /// records, so it neither checks them nor the checksum.
    ///
    /// # Errors
    ///
    /// Returns an error if the file cannot be opened or does not start with
    /// a valid BTF1 header.
    pub fn read(path: &Path) -> Result<Self, TraceError> {
        Ok(Self::parse(&mut BufReader::new(File::open(path)?))?.0)
    }

    /// Parses the header at the start of `input`: the one header parser.
    /// Returns the header, the checksum over its identity bytes (which the
    /// record payload continues) and its length, the offset of the first
    /// record.
    pub(crate) fn parse(input: &mut impl Read) -> Result<(Self, Fnv64, u64), TraceError> {
        let mut input = HeaderInput { input, offset: 0, hasher: Fnv64::new() };
        let magic: [u8; 4] = input.take(true)?;
        if magic != MAGIC {
            return Err(TraceError::Format {
                offset: 0,
                message: format!("bad magic {magic:02x?} (expected \"BTF1\")"),
            });
        }
        let version = u32::from_le_bytes(input.take(true)?);
        if version != VERSION {
            return Err(TraceError::Version { found: version });
        }
        let flags = u32::from_le_bytes(input.take(true)?);
        if flags != 0 {
            return Err(TraceError::Format {
                offset: input.offset - 4,
                message: format!("reserved flags field is {flags:#x}, expected 0"),
            });
        }
        let workload = input.string()?;
        let source = input.string()?;
        let core = u32::from_le_bytes(input.take(true)?);
        let seed = u64::from_le_bytes(input.take(true)?);
        // The trailer is sealed after the records are encoded, so it stays
        // outside the checksum; its counts are cross-checked against the
        // decoded records instead.
        let records = u64::from_le_bytes(input.take(false)?);
        let instructions = u64::from_le_bytes(input.take(false)?);
        let checksum = u64::from_le_bytes(input.take(false)?);
        let header = Self { workload, source, core, seed, records, instructions, checksum };
        Ok((header, input.hasher, input.offset))
    }
}

/// The input of [`TraceHeader::parse`]: the byte offset reached and the
/// checksum over the identity bytes read so far.
struct HeaderInput<'a, R> {
    input: &'a mut R,
    offset: u64,
    hasher: Fnv64,
}

impl<R: Read> HeaderInput<'_, R> {
    /// Reads `N` bytes, hashing them when `hashed`.
    fn take<const N: usize>(&mut self, hashed: bool) -> Result<[u8; N], TraceError> {
        let mut bytes = [0u8; N];
        self.fill(&mut bytes, hashed)?;
        Ok(bytes)
    }

    fn fill(&mut self, bytes: &mut [u8], hashed: bool) -> Result<(), TraceError> {
        self.input.read_exact(bytes).map_err(|e| {
            if e.kind() == std::io::ErrorKind::UnexpectedEof {
                TraceError::Format {
                    offset: self.offset,
                    message: "file ends inside the header".to_string(),
                }
            } else {
                TraceError::Io(e)
            }
        })?;
        self.offset += bytes.len() as u64;
        if hashed {
            self.hasher.update(bytes);
        }
        Ok(())
    }

    /// Reads a varint length and that many bytes of UTF-8.
    fn string(&mut self) -> Result<String, TraceError> {
        let len = read_varint(&mut || {
            let [byte] = self.take(true)?;
            Ok((byte, self.offset - 1))
        })?;
        if len > MAX_NAME_BYTES {
            return Err(TraceError::Format {
                offset: self.offset,
                message: format!("header string of {len} bytes exceeds the {MAX_NAME_BYTES} cap"),
            });
        }
        let mut bytes = vec![0u8; len as usize];
        self.fill(&mut bytes, true)?;
        String::from_utf8(bytes).map_err(|_| TraceError::Format {
            offset: self.offset,
            message: "header string is not UTF-8".to_string(),
        })
    }
}

/// Incremental FNV-1a 64-bit hash of the checksummed bytes (header
/// identity fields + encoded records).
///
/// Public because every BTF-style container in the workspace (traces here,
/// snapshot images in `bard`) shares this one checksum implementation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fnv64(u64);

impl Fnv64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;

    /// A hasher at the FNV-1a offset basis.
    #[must_use]
    pub fn new() -> Self {
        Self(Self::OFFSET)
    }

    /// Folds `bytes` into the running hash.
    pub fn update(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(Self::PRIME);
        }
    }

    /// The current hash value.
    #[must_use]
    pub fn finish(self) -> u64 {
        self.0
    }
}

impl Default for Fnv64 {
    fn default() -> Self {
        Self::new()
    }
}

/// Maps a signed delta onto an unsigned varint-friendly value
/// (0, -1, 1, -2, ... become 0, 1, 2, 3, ...).
#[must_use]
pub fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

/// Inverse of [`zigzag`].
#[must_use]
pub fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

/// Appends `v` as an LEB128 varint (7 bits per byte, high bit = more).
pub fn push_varint(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

/// Delta state threaded through the record codec; encoder and decoder hold
/// mirror copies so they agree byte for byte.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct CodecState {
    prev_ip: u64,
    prev_addr: u64,
    prev_bubble: u32,
}

impl CodecState {
    /// Appends the encoding of `record` to `out` and advances the state.
    pub(crate) fn encode(&mut self, record: &TraceRecord, out: &mut Vec<u8>) {
        let tag = match record.access {
            None => TAG_COMPUTE,
            Some(MemAccess { kind: MemKind::Load, .. }) => TAG_LOAD,
            Some(MemAccess { kind: MemKind::Store, .. }) => TAG_STORE,
        };
        out.push(tag);
        push_varint(out, zigzag(record.ip.wrapping_sub(self.prev_ip) as i64));
        push_varint(out, zigzag(i64::from(record.bubble) - i64::from(self.prev_bubble)));
        self.prev_ip = record.ip;
        self.prev_bubble = record.bubble;
        if let Some(access) = record.access {
            push_varint(out, zigzag(access.addr.wrapping_sub(self.prev_addr) as i64));
            self.prev_addr = access.addr;
        }
    }

    /// Decodes one record from `next` (a byte source) and advances the state.
    ///
    /// `next` is called once per encoded byte; it reports both I/O errors and
    /// end-of-stream as [`TraceError`]s. Generic over the source, so the
    /// in-memory decoder ([`slice_source`]) inlines into replay.
    #[inline(always)]
    pub(crate) fn decode(
        &mut self,
        next: &mut impl FnMut() -> Result<(u8, u64), TraceError>,
    ) -> Result<TraceRecord, TraceError> {
        let (tag, tag_offset) = next()?;
        if tag > TAG_STORE {
            return Err(TraceError::Format {
                offset: tag_offset,
                message: format!("invalid record tag {tag}"),
            });
        }
        let ip_delta = unzigzag(read_varint(next)?);
        let bubble_delta = unzigzag(read_varint(next)?);
        self.prev_ip = self.prev_ip.wrapping_add(ip_delta as u64);
        let bubble = i64::from(self.prev_bubble)
            .checked_add(bubble_delta)
            .and_then(|b| u32::try_from(b).ok())
            .ok_or_else(|| TraceError::Format {
                offset: tag_offset,
                message: format!("bubble delta {bubble_delta} leaves the u32 range"),
            })?;
        self.prev_bubble = bubble;
        let access = if tag == TAG_COMPUTE {
            None
        } else {
            let addr_delta = unzigzag(read_varint(next)?);
            self.prev_addr = self.prev_addr.wrapping_add(addr_delta as u64);
            Some(if tag == TAG_LOAD {
                MemAccess::load(self.prev_addr)
            } else {
                MemAccess::store(self.prev_addr)
            })
        };
        Ok(TraceRecord { ip: self.prev_ip, bubble, access })
    }
}

/// Reads an LEB128 varint from a byte source.
#[inline(always)]
fn read_varint(
    next: &mut impl FnMut() -> Result<(u8, u64), TraceError>,
) -> Result<u64, TraceError> {
    let mut value = 0u64;
    let mut shift = 0u32;
    loop {
        let (byte, offset) = next()?;
        if shift >= 64 || (shift == 63 && byte > 1) {
            return Err(TraceError::Format {
                offset,
                message: "varint longer than 64 bits".to_string(),
            });
        }
        value |= u64::from(byte & 0x7f) << shift;
        if byte & 0x80 == 0 {
            return Ok(value);
        }
        shift += 7;
    }
}

/// The byte source over an in-memory record payload: yields
/// `payload[*offset]` and advances `offset`. `base` is the payload's offset
/// in its file, so errors name the byte's offset in the file.
#[inline]
pub(crate) fn slice_source<'a>(
    payload: &'a [u8],
    offset: &'a mut usize,
    base: u64,
) -> impl FnMut() -> Result<(u8, u64), TraceError> + 'a {
    move || {
        let at = *offset;
        let Some(&byte) = payload.get(at) else {
            return Err(TraceError::Format {
                offset: base + at as u64,
                message: "file ends mid-record (truncated trace)".to_string(),
            });
        };
        *offset = at + 1;
        Ok((byte, base + at as u64))
    }
}

/// Serializes a header (with whatever counts it currently carries) and
/// returns the bytes. The final [`TRAILER_BYTES`] are the fixed-width
/// records/instructions/checksum trailer.
#[must_use]
pub(crate) fn header_bytes(header: &TraceHeader) -> Vec<u8> {
    let mut out = Vec::with_capacity(64);
    out.extend_from_slice(&MAGIC);
    out.extend_from_slice(&VERSION.to_le_bytes());
    out.extend_from_slice(&0u32.to_le_bytes()); // flags (reserved)
    push_varint(&mut out, header.workload.len() as u64);
    out.extend_from_slice(header.workload.as_bytes());
    push_varint(&mut out, header.source.len() as u64);
    out.extend_from_slice(header.source.as_bytes());
    out.extend_from_slice(&header.core.to_le_bytes());
    out.extend_from_slice(&header.seed.to_le_bytes());
    out.extend_from_slice(&header.records.to_le_bytes());
    out.extend_from_slice(&header.instructions.to_le_bytes());
    out.extend_from_slice(&header.checksum.to_le_bytes());
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zigzag_round_trips_extremes() {
        for v in [0i64, 1, -1, 2, -2, i64::MAX, i64::MIN, 1 << 40, -(1 << 40)] {
            assert_eq!(unzigzag(zigzag(v)), v, "{v}");
        }
        assert_eq!(zigzag(0), 0);
        assert_eq!(zigzag(-1), 1);
        assert_eq!(zigzag(1), 2);
    }

    fn drain(bytes: &[u8]) -> impl FnMut() -> Result<(u8, u64), TraceError> + '_ {
        let mut pos = 0usize;
        move || {
            let byte = *bytes.get(pos).ok_or(TraceError::Format {
                offset: pos as u64,
                message: "unexpected end".into(),
            })?;
            pos += 1;
            Ok((byte, pos as u64 - 1))
        }
    }

    #[test]
    fn varint_round_trips() {
        for v in [0u64, 1, 127, 128, 16_383, 16_384, u64::MAX, u64::MAX - 1, 1 << 62] {
            let mut buf = Vec::new();
            push_varint(&mut buf, v);
            assert!(buf.len() <= 10);
            let mut next = drain(&buf);
            assert_eq!(read_varint(&mut next).unwrap(), v, "{v}");
        }
    }

    #[test]
    fn overlong_varint_is_rejected() {
        let buf = [0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01];
        let mut next = drain(&buf);
        assert!(matches!(read_varint(&mut next), Err(TraceError::Format { .. })));
    }

    #[test]
    fn codec_round_trips_mixed_records() {
        let records = [
            TraceRecord::compute(0x401000, 3),
            TraceRecord::load(0x401008, 0, 0x7fff_0000),
            TraceRecord::store(0x401010, 9, 0x7fff_0040),
            TraceRecord::load(0, u32::MAX, 0),
            TraceRecord::store(u64::MAX, 0, u64::MAX),
            TraceRecord::compute(5, 0),
        ];
        let mut enc = CodecState::default();
        let mut bytes = Vec::new();
        for r in &records {
            enc.encode(r, &mut bytes);
        }
        let mut dec = CodecState::default();
        let mut next = drain(&bytes);
        for r in &records {
            assert_eq!(dec.decode(&mut next).unwrap(), *r);
        }
        assert_eq!(enc, dec, "encoder and decoder states stay in lock step");
    }

    #[test]
    fn sequential_streams_encode_compactly() {
        // A streaming store pattern: constant ip/bubble deltas, 64-byte
        // address stride — 5 bytes per record (tag + three varints).
        let mut state = CodecState::default();
        let mut bytes = Vec::new();
        let mut warmup = Vec::new();
        state.encode(&TraceRecord::store(0x400, 2, 0x10000), &mut warmup);
        for i in 1..100u64 {
            state.encode(&TraceRecord::store(0x400, 2, 0x10000 + i * 64), &mut bytes);
        }
        assert!(bytes.len() <= 99 * 5, "99 streaming records took {} bytes", bytes.len());
    }

    #[test]
    fn invalid_tag_is_rejected() {
        let mut dec = CodecState::default();
        let bytes = [7u8, 0, 0];
        let mut next = drain(&bytes);
        let err = dec.decode(&mut next).unwrap_err();
        assert!(err.to_string().contains("invalid record tag 7"), "{err}");
    }

    #[test]
    fn fnv_matches_reference_vectors() {
        // Standard FNV-1a 64 test vectors.
        let mut h = Fnv64::new();
        assert_eq!(h.finish(), 0xcbf2_9ce4_8422_2325);
        h.update(b"a");
        assert_eq!(h.finish(), 0xaf63_dc4c_8601_ec8c);
        let mut h = Fnv64::new();
        h.update(b"foobar");
        assert_eq!(h.finish(), 0x85944171f73967e8);
    }

    #[test]
    fn header_bytes_end_with_the_fixed_trailer() {
        let mut h = TraceHeader::new("lbm", "unit-test", 3, 0xdead_beef);
        h.records = 7;
        h.instructions = 21;
        h.checksum = 0x0102_0304_0506_0708;
        let bytes = header_bytes(&h);
        let trailer = &bytes[bytes.len() - TRAILER_BYTES as usize..];
        assert_eq!(&trailer[0..8], 7u64.to_le_bytes());
        assert_eq!(&trailer[8..16], 21u64.to_le_bytes());
        assert_eq!(&trailer[16..24], 0x0102_0304_0506_0708u64.to_le_bytes());
        assert_eq!(&bytes[0..4], b"BTF1");
    }
}

//! # bard-trace — binary trace capture, replay and ingestion
//!
//! Every workload in the BARD reproduction is synthesized on demand by
//! `bard-workloads`, so until this crate existed a trace lived only
//! transiently in memory. `bard-trace` makes the ChampSim-like
//! [`TraceRecord`](bard_cpu::TraceRecord) stream a first-class, archivable
//! artifact:
//!
//! * **BTF1**, a compact versioned binary container ([`mod@format`]): a
//!   self-describing header (workload, generator provenance, core, seed,
//!   record/instruction counts, FNV-1a checksum) followed by
//!   delta/zigzag/varint-encoded records — no serde, matching the repo's
//!   in-tree-codec convention from `bard::report`.
//! * Streaming [`TraceWriter`] / [`TraceReader`] codecs with O(1) state.
//! * [`ReplayWorkload`], a [`TraceSource`](bard_cpu::TraceSource) that
//!   replays a BTF file bitwise-equivalently to live generation, decoding
//!   each record as it serves it from a shared [`EncodedTrace`] (the file's
//!   validated payload plus a checkpoint index), and [`RecordingSource`],
//!   which tees any live source to disk.
//! * [`TraceStore`], the `(workload, core, seed, budget)`-keyed directory
//!   layout behind the experiment binaries' `--trace-dir=DIR` flag:
//!   record-if-missing, replay-if-present.
//! * A ChampSim-like text importer/exporter ([`import`]) so external traces
//!   become first-class workloads.
//!
//! ## Example
//!
//! ```
//! use bard_cpu::{TraceRecord, TraceSource};
//! use bard_trace::{ReplayWorkload, TraceHeader, TraceReader, TraceWriter};
//!
//! let dir = std::env::temp_dir().join(format!("bard-trace-doc-{}", std::process::id()));
//! std::fs::create_dir_all(&dir).unwrap();
//! let path = dir.join("demo.btf");
//!
//! // Record two records...
//! let mut writer = TraceWriter::create(&path, TraceHeader::new("demo", "doctest", 0, 7)).unwrap();
//! writer.write_record(&TraceRecord::load(0x400, 2, 0x1000)).unwrap();
//! writer.write_record(&TraceRecord::store(0x408, 0, 0x1040)).unwrap();
//! let header = writer.finish().unwrap();
//! assert_eq!(header.records, 2);
//!
//! // ...and replay them bitwise-identically.
//! let mut replay = ReplayWorkload::open(&path).unwrap();
//! assert_eq!(replay.next_record(), TraceRecord::load(0x400, 2, 0x1000));
//! assert_eq!(TraceReader::open(&path).unwrap().header().workload, "demo");
//! std::fs::remove_dir_all(&dir).unwrap();
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod encoded;
pub mod error;
pub mod format;
pub mod import;
pub mod reader;
pub mod recording;
pub mod replay;
pub mod store;
pub mod writer;

pub use encoded::{EncodedTrace, CHECKPOINT_INTERVAL};
pub use error::TraceError;
pub use format::{Fnv64, TraceHeader, MAGIC, VERSION};
pub use import::{parse_text, render_text};
pub use reader::{verify_file, TraceReader};
pub use recording::RecordingSource;
pub use replay::{ReplayThenLive, ReplayWorkload};
pub use store::{decode_cache_counters, DecodeCacheCounters, TraceStore};
pub use writer::TraceWriter;

#[cfg(test)]
mod tests {
    use std::io::{Cursor, Read, Seek};
    use std::path::PathBuf;

    use bard_cpu::{TraceRecord, TraceSource, VecTrace};

    use super::*;

    /// A scratch directory removed on drop.
    struct TempDir(PathBuf);

    impl TempDir {
        fn new(tag: &str) -> Self {
            let dir = std::env::temp_dir().join(format!("bard-trace-{tag}-{}", std::process::id()));
            let _ = std::fs::remove_dir_all(&dir);
            std::fs::create_dir_all(&dir).unwrap();
            Self(dir)
        }
    }

    impl Drop for TempDir {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }

    fn sample_records() -> Vec<TraceRecord> {
        let mut records = Vec::new();
        for i in 0..200u64 {
            records.push(TraceRecord::load(0x400 + i * 8, (i % 7) as u32, 0x10_0000 + i * 64));
            if i % 3 == 0 {
                records.push(TraceRecord::store(0x800 + i * 4, 0, 0x20_0000 + (i % 13) * 4096));
            }
            if i % 5 == 0 {
                records.push(TraceRecord::compute(0xc00, (i % 31) as u32));
            }
        }
        records
    }

    fn encode_to_bytes(records: &[TraceRecord]) -> Vec<u8> {
        let mut cursor = Cursor::new(Vec::new());
        let mut writer =
            TraceWriter::new(&mut cursor, TraceHeader::new("unit", "test", 1, 42)).unwrap();
        for r in records {
            writer.write_record(r).unwrap();
        }
        writer.finish().unwrap();
        cursor.into_inner()
    }

    #[test]
    fn encode_decode_round_trips_exactly() {
        let records = sample_records();
        let bytes = encode_to_bytes(&records);
        let reader = TraceReader::new(Cursor::new(bytes)).unwrap();
        assert_eq!(reader.header().workload, "unit");
        assert_eq!(reader.header().core, 1);
        assert_eq!(reader.header().seed, 42);
        assert_eq!(reader.header().records, records.len() as u64);
        let expected_instructions: u64 = records.iter().map(TraceRecord::instructions).sum();
        assert_eq!(reader.header().instructions, expected_instructions);
        let (_, decoded) = reader.read_all().unwrap();
        assert_eq!(decoded, records, "decode must be the exact inverse of encode");
    }

    #[test]
    fn corrupted_payload_is_rejected_with_a_checksum_error() {
        let records = sample_records();
        let mut bytes = encode_to_bytes(&records);
        // Flip one bit deep inside the payload. The record still decodes
        // (deltas absorb anything), but the checksum catches it.
        let target = bytes.len() - 40;
        bytes[target] ^= 0x40;
        let reader = TraceReader::new(Cursor::new(bytes)).unwrap();
        let err = reader.read_all().unwrap_err();
        match err {
            TraceError::Checksum { expected, actual } => assert_ne!(expected, actual),
            TraceError::Format { .. } => {} // bit flip landed on structure — also rejected
            other => panic!("expected checksum/format rejection, got {other}"),
        }
    }

    #[test]
    fn corrupted_checksum_field_is_rejected() {
        let records = sample_records();
        let mut bytes = encode_to_bytes(&records);
        // The checksum is the last 8 bytes of the header; find it by
        // re-reading the header and patching one byte inside those 8.
        let header = TraceReader::new(Cursor::new(bytes.clone())).unwrap().header().clone();
        let needle = header.checksum.to_le_bytes();
        let pos = bytes.windows(8).position(|w| w == needle).expect("checksum bytes in header");
        bytes[pos] ^= 0xff;
        let err = TraceReader::new(Cursor::new(bytes)).unwrap().read_all().unwrap_err();
        assert!(matches!(err, TraceError::Checksum { .. }), "{err}");
        assert!(err.to_string().contains("corrupted trace file"), "{err}");
    }

    #[test]
    fn corrupted_header_identity_is_rejected() {
        let records = sample_records();
        let mut bytes = encode_to_bytes(&records);
        // Offset 13 is inside the workload-name bytes ("unit"): the file
        // still parses (under a mangled name), but the identity hash breaks.
        bytes[13] ^= 0x02;
        let reader = TraceReader::new(Cursor::new(bytes)).unwrap();
        assert_ne!(reader.header().workload, "unit");
        let err = reader.read_all().unwrap_err();
        assert!(matches!(err, TraceError::Checksum { .. }), "{err}");

        // A corrupted instruction count in the trailer is caught too (the
        // trailer sits outside the hash but is cross-checked).
        let mut bytes = encode_to_bytes(&records);
        let header = TraceReader::new(Cursor::new(bytes.clone())).unwrap().header().clone();
        let needle = header.instructions.to_le_bytes();
        let pos = bytes.windows(8).position(|w| w == needle).expect("instruction bytes");
        bytes[pos] ^= 0x01;
        let err = TraceReader::new(Cursor::new(bytes)).unwrap().read_all().unwrap_err();
        assert!(err.to_string().contains("instructions"), "{err}");
    }

    #[test]
    fn truncated_files_are_rejected() {
        let records = sample_records();
        let bytes = encode_to_bytes(&records);
        let cut = bytes.len() - 11;
        let err =
            TraceReader::new(Cursor::new(bytes[..cut].to_vec())).unwrap().read_all().unwrap_err();
        assert!(matches!(err, TraceError::Format { .. }), "{err}");
        assert!(err.to_string().contains("truncated"), "{err}");
        // Truncation inside the header is also a clear error.
        let err = TraceReader::new(Cursor::new(bytes[..10].to_vec())).unwrap_err();
        assert!(err.to_string().contains("header"), "{err}");
    }

    #[test]
    fn wrong_magic_and_version_are_rejected() {
        let records = sample_records();
        let mut bytes = encode_to_bytes(&records);
        bytes[0] = b'X';
        let err = TraceReader::new(Cursor::new(bytes.clone())).unwrap_err();
        assert!(err.to_string().contains("bad magic"), "{err}");
        bytes[0] = b'B';
        bytes[4] = 9; // version u32 LE
        let err = TraceReader::new(Cursor::new(bytes)).unwrap_err();
        assert!(matches!(err, TraceError::Version { found: 9 }), "{err}");
    }

    #[test]
    fn unfinished_writer_leaves_a_rejected_file() {
        let tmp = TempDir::new("unfinished");
        let path = tmp.0.join("partial.btf");
        let mut writer =
            TraceWriter::create(&path, TraceHeader::new("partial", "test", 0, 1)).unwrap();
        writer.write_record(&TraceRecord::load(1, 0, 64)).unwrap();
        drop(writer); // never sealed: header still says 0 records
        let reader = TraceReader::open(&path).unwrap();
        assert_eq!(reader.header().records, 0, "placeholder counts survive");
        // Draining "0 records" trips the checksum (payload bytes exist but
        // were never hashed into the header).
        let replay = ReplayWorkload::open(&path);
        assert!(replay.is_err());
        // Opening through the reader and asking for records sees none.
        let err = verify_file(&path);
        assert!(err.is_err() || err.unwrap().records == 0);
    }

    #[test]
    fn replay_matches_source_and_counts_wraps() {
        let records = sample_records();
        let tmp = TempDir::new("replay");
        let path = tmp.0.join("r.btf");
        let mut writer = TraceWriter::create(&path, TraceHeader::new("vec", "test", 0, 0)).unwrap();
        for r in &records {
            writer.write_record(r).unwrap();
        }
        writer.finish().unwrap();
        let mut replay = ReplayWorkload::open(&path).unwrap();
        assert_eq!(replay.name(), "vec");
        assert_eq!(replay.len(), records.len());
        assert!(!replay.is_empty());
        for r in &records {
            assert_eq!(replay.next_record(), *r);
        }
        assert_eq!(replay.wraps(), 0, "consuming exactly len() records never wraps");
        assert_eq!(replay.next_record(), records[0], "wrap restarts from the first record");
        assert_eq!(replay.wraps(), 1);
    }

    #[test]
    #[should_panic(expected = "exhausted its")]
    fn strict_replay_panics_instead_of_wrapping() {
        let tmp = TempDir::new("strict");
        let path = tmp.0.join("s.btf");
        let mut writer =
            TraceWriter::create(&path, TraceHeader::new("short", "test", 0, 0)).unwrap();
        writer.write_record(&TraceRecord::load(1, 0, 64)).unwrap();
        writer.write_record(&TraceRecord::store(2, 0, 128)).unwrap();
        writer.finish().unwrap();
        let mut replay = ReplayWorkload::open(&path).unwrap().strict();
        let _ = replay.next_record();
        let _ = replay.next_record(); // exactly len() records: fine
        let _ = replay.next_record(); // one past the end: must panic
    }

    #[test]
    fn recording_source_tees_to_disk() {
        let tmp = TempDir::new("recording");
        let path = tmp.0.join("tee.btf");
        let records = vec![
            TraceRecord::load(1, 0, 64),
            TraceRecord::store(2, 3, 128),
            TraceRecord::compute(3, 1),
        ];
        let live = VecTrace::new("tee", records.clone());
        let mut recording = RecordingSource::create(live, &path, "unit-test", 2, 9).unwrap();
        assert_eq!(recording.name(), "tee");
        // Consume five records: the VecTrace loops, the file records the
        // exact consumed stream.
        let mut consumed = Vec::new();
        for _ in 0..5 {
            consumed.push(recording.next_record());
        }
        assert_eq!(recording.records(), 5);
        assert!(format!("{recording:?}").contains("tee"));
        let (header, _inner) = recording.finish().unwrap();
        assert_eq!(header.records, 5);
        assert_eq!(header.core, 2);
        assert_eq!(header.seed, 9);
        let (_, decoded) = TraceReader::open(&path).unwrap().read_all().unwrap();
        assert_eq!(decoded, consumed);
    }

    #[test]
    fn store_records_once_and_replays_after() {
        let tmp = TempDir::new("store");
        let store = TraceStore::new(&tmp.0);
        let records = vec![TraceRecord::load(1, 3, 64), TraceRecord::store(2, 1, 128)];
        let make = || -> Box<dyn TraceSource> { Box::new(VecTrace::new("w", records.clone())) };
        let path = store.path_for("w", 0, 5, 20);
        assert!(!path.exists());
        let mut first = store.obtain("w", 0, 5, 20, make).unwrap();
        assert!(path.exists(), "first obtain records the trace");
        // Budget of 20: the 4+2-instruction pair loops until >= 20 (22).
        assert_eq!(first.header().instructions, 22);
        assert_eq!(first.header().records, 7);
        assert_eq!(first.next_record(), records[0]);
        let mut second = store.obtain("w", 0, 5, 20, || panic!("must not regenerate")).unwrap();
        assert_eq!(second.header(), first.header());
        for _ in 0..second.len() {
            let _ = second.next_record();
        }
        assert_eq!(second.wraps(), 0);
        let _ = second.next_record();
        assert_eq!(second.wraps(), 1);
    }

    #[test]
    fn store_reuses_a_larger_archived_budget() {
        let tmp = TempDir::new("store-cover");
        let store = TraceStore::new(&tmp.0);
        let records = vec![TraceRecord::load(1, 3, 64), TraceRecord::store(2, 1, 128)];
        let make = || -> Box<dyn TraceSource> { Box::new(VecTrace::new("w", records.clone())) };
        let big = store.obtain("w", 0, 5, 100, make).unwrap();
        assert_eq!(tmp.0.read_dir().unwrap().count(), 1);
        // A smaller request must reuse the bigger archive, not re-record.
        let small = store.obtain("w", 0, 5, 50, || panic!("covered by the i100 file")).unwrap();
        assert_eq!(small.header(), big.header());
        assert_eq!(tmp.0.read_dir().unwrap().count(), 1, "no duplicate capture");
        // A larger request is not covered and records fresh.
        let records2 = records.clone();
        let bigger =
            store.obtain("w", 0, 5, 200, move || Box::new(VecTrace::new("w", records2))).unwrap();
        assert!(bigger.header().instructions >= 200);
        assert_eq!(tmp.0.read_dir().unwrap().count(), 2);
        // Other keys (different core/seed) never match the scan.
        let records3 = records.clone();
        let other =
            store.obtain("w", 1, 5, 50, move || Box::new(VecTrace::new("w", records3))).unwrap();
        assert_eq!(other.header().core, 1);
        assert_eq!(tmp.0.read_dir().unwrap().count(), 3);
    }

    #[test]
    fn store_rejects_a_key_mismatch() {
        let tmp = TempDir::new("store-mismatch");
        let store = TraceStore::new(&tmp.0);
        let make = || -> Box<dyn TraceSource> {
            Box::new(VecTrace::new("w", vec![TraceRecord::load(1, 0, 64)]))
        };
        let good = store.obtain("w", 0, 5, 10, make).unwrap();
        // Forge a file under a different key by copying the recorded one.
        let forged = store.path_for("other", 1, 6, 10);
        std::fs::copy(store.path_for("w", 0, 5, 10), &forged).unwrap();
        let err =
            store.obtain("other", 1, 6, 10, || panic!("file exists, no regeneration")).unwrap_err();
        assert!(matches!(err, TraceError::Mismatch { .. }), "{err}");
        assert!(err.to_string().contains("requested 'other'"), "{err}");
        drop(good);
    }

    /// The in-memory form's bound: lbm at the instruction budget of
    /// perfbench's `rerun-2c` lengths (3M / 2k / 12k per core, see
    /// `TraceConfig::budget_for`) takes at most 9 bytes per record, index
    /// included, whether captured or read back from its file.
    #[test]
    fn archived_lbm_holds_at_most_nine_bytes_per_record() {
        const BUDGET: u64 = 3_289_536;
        let tmp = TempDir::new("bytes-per-record");
        let store = TraceStore::new(&tmp.0);
        let (lbm, seed) = (bard_workloads::WorkloadId::Lbm, 0x1BAD_B002);
        let captured = store.obtain(lbm.name(), 0, seed, BUDGET, || lbm.build(0, seed)).unwrap();
        let opened = ReplayWorkload::open(&store.path_for(lbm.name(), 0, seed, BUDGET)).unwrap();
        assert_eq!(*captured.shared_records(), *opened.shared_records(), "one form, one index");
        let held = captured.shared_records().bytes_held();
        assert!(held <= 9 * captured.len(), "{held} bytes for {} records", captured.len());
    }

    #[test]
    fn store_file_names_are_stable() {
        assert_eq!(
            TraceStore::file_name("lbm", 3, 0x1BAD_B002, 425_000),
            "lbm.c3.s000000001badb002.i425000.btf"
        );
        let store = TraceStore::new("/tmp/x");
        assert_eq!(store.dir(), std::path::Path::new("/tmp/x"));
    }

    #[test]
    fn imported_text_seals_into_a_replayable_file() {
        let tmp = TempDir::new("import");
        let text = "0x400 3 L 0x1000\n0x408 0 S 0x1040\n0x410 5 -\n";
        let records = parse_text(text).unwrap();
        let path = tmp.0.join("ext.btf");
        let mut writer =
            TraceWriter::create(&path, TraceHeader::new("ext", "import:test", 0, 0)).unwrap();
        for r in &records {
            writer.write_record(r).unwrap();
        }
        let header = writer.finish().unwrap();
        assert_eq!(header.records, 3);
        assert_eq!(header.instructions, 11);
        let mut replay = ReplayWorkload::open(&path).unwrap();
        assert_eq!(replay.next_record(), records[0]);
        assert_eq!(render_text(&records), text, "export is the inverse of import");
    }

    #[test]
    fn writer_into_a_plain_cursor_supports_seek_patching() {
        // Exercises the generic (non-file) writer path end to end.
        let mut cursor = Cursor::new(Vec::new());
        let mut writer =
            TraceWriter::new(&mut cursor, TraceHeader::new("cursor", "test", 0, 0)).unwrap();
        for i in 0..10u64 {
            writer.write_record(&TraceRecord::load(i, 0, i * 64)).unwrap();
        }
        let header = writer.finish().unwrap();
        assert_eq!(header.records, 10);
        cursor.rewind().unwrap();
        let mut bytes = Vec::new();
        cursor.read_to_end(&mut bytes).unwrap();
        let (got, decoded) = TraceReader::new(Cursor::new(bytes)).unwrap().read_all().unwrap();
        assert_eq!(got, header);
        assert_eq!(decoded.len(), 10);
    }

    #[test]
    fn writer_drop_without_finish_then_reseal_via_truncate() {
        // Sanity: create() truncates an existing (possibly corrupt) file.
        let tmp = TempDir::new("truncate");
        let path = tmp.0.join("t.btf");
        std::fs::write(&path, b"garbage that is not BTF").unwrap();
        assert!(TraceReader::open(&path).is_err());
        let mut writer = TraceWriter::create(&path, TraceHeader::new("t", "test", 0, 0)).unwrap();
        writer.write_record(&TraceRecord::load(1, 0, 0)).unwrap();
        writer.finish().unwrap();
        assert_eq!(verify_file(&path).unwrap().records, 1);
    }
}

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
//! * One codec ([`mod@encoded`]): a trace is encoded once into memory, written
//!   by one publish (a temporary file renamed into place) and read back by
//!   one validating read that every replay and `trace verify` share;
//!   [`TraceHeader::read`] parses a file's header alone.
//! * [`ReplayWorkload`], a [`TraceSource`](bard_cpu::TraceSource) that
//!   replays a BTF file bitwise-equivalently to live generation, decoding
//!   each record as it serves it from a shared [`EncodedTrace`] (the file's
//!   validated payload plus a checkpoint index), and [`RecordingSource`],
//!   which tees any live source into a file it publishes when finished.
//! * [`TraceStore`], the `(workload, core, seed, budget)`-keyed directory
//!   layout behind the experiment binaries' `--trace-dir=DIR` flag:
//!   record-if-missing, replay-if-present.
//! * A ChampSim-like text importer/exporter ([`import`]) so external traces
//!   become first-class workloads.
//!
//! ## Example
//!
//! ```
//! use bard_cpu::{TraceRecord, TraceSource, VecTrace};
//! use bard_trace::{RecordingSource, ReplayWorkload, TraceHeader};
//!
//! let dir = std::env::temp_dir().join(format!("bard-trace-doc-{}", std::process::id()));
//! std::fs::create_dir_all(&dir).unwrap();
//! let path = dir.join("demo.btf");
//!
//! // Record two records...
//! let live = VecTrace::new(
//!     "demo",
//!     vec![TraceRecord::load(0x400, 2, 0x1000), TraceRecord::store(0x408, 0, 0x1040)],
//! );
//! let mut recording = RecordingSource::create(live, &path, "doctest", 0, 7);
//! for _ in 0..2 {
//!     recording.next_record();
//! }
//! let (header, _live) = recording.finish().unwrap();
//! assert_eq!(header.records, 2);
//!
//! // ...and replay them bitwise-identically.
//! let mut replay = ReplayWorkload::open(&path).unwrap();
//! assert_eq!(replay.next_record(), TraceRecord::load(0x400, 2, 0x1000));
//! assert_eq!(TraceHeader::read(&path).unwrap().workload, "demo");
//! std::fs::remove_dir_all(&dir).unwrap();
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod encoded;
pub mod error;
pub mod format;
pub mod import;
pub mod recording;
pub mod replay;
pub mod store;

pub use encoded::{EncodedTrace, CHECKPOINT_INTERVAL};
pub use error::TraceError;
pub use format::{Fnv64, TraceHeader, MAGIC, VERSION};
pub use import::{parse_text, render_text};
pub use recording::RecordingSource;
pub use replay::{ReplayThenLive, ReplayWorkload};
pub use store::{decode_cache_counters, DecodeCacheCounters, TraceStore};

#[cfg(test)]
mod tests {
    use std::path::{Path, PathBuf};

    use bard_cpu::{TraceRecord, TraceSource, VecTrace};

    use super::*;
    use crate::encoded::Encoder;
    use crate::format::header_bytes;

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

    /// Encodes `records` as workload `workload` of core 1, seed 42, publishes
    /// them at `path` and returns the file's bytes.
    fn write_trace(path: &Path, workload: &str, records: &[TraceRecord]) -> Vec<u8> {
        let mut encoder = Encoder::new(TraceHeader::new(workload, "test", 1, 42));
        for r in records {
            encoder.push(r);
        }
        encoder.finish().unwrap().publish(path).unwrap();
        std::fs::read(path).unwrap()
    }

    /// Writes `bytes` to `path` and opens them through the validating read.
    fn reopen(path: &Path, bytes: &[u8]) -> Result<ReplayWorkload, TraceError> {
        std::fs::write(path, bytes).unwrap();
        ReplayWorkload::open(path)
    }

    /// Every record of a replay, in order.
    fn decode_all(replay: &mut ReplayWorkload) -> Vec<TraceRecord> {
        (0..replay.len()).map(|_| replay.next_record()).collect()
    }

    #[test]
    fn encode_decode_round_trips_exactly() {
        let tmp = TempDir::new("roundtrip");
        let path = tmp.0.join("t.btf");
        let records = sample_records();
        write_trace(&path, "unit", &records);
        let mut replay = ReplayWorkload::open(&path).unwrap();
        assert_eq!(replay.header().workload, "unit");
        assert_eq!(replay.header().core, 1);
        assert_eq!(replay.header().seed, 42);
        assert_eq!(replay.header().records, records.len() as u64);
        let expected_instructions: u64 = records.iter().map(TraceRecord::instructions).sum();
        assert_eq!(replay.header().instructions, expected_instructions);
        assert_eq!(decode_all(&mut replay), records, "decode must be the exact inverse of encode");
        assert_eq!(replay.wraps(), 0);
    }

    #[test]
    fn corrupted_payload_is_rejected_with_a_checksum_error() {
        let tmp = TempDir::new("corrupt-payload");
        let path = tmp.0.join("t.btf");
        let mut bytes = write_trace(&path, "unit", &sample_records());
        // Flip one bit deep inside the payload. The record still decodes
        // (deltas absorb anything), but the checksum catches it.
        let target = bytes.len() - 40;
        bytes[target] ^= 0x40;
        match reopen(&path, &bytes).unwrap_err() {
            TraceError::Checksum { expected, actual } => assert_ne!(expected, actual),
            TraceError::Format { .. } => {} // bit flip landed on structure — also rejected
            other => panic!("expected checksum/format rejection, got {other}"),
        }
    }

    #[test]
    fn corrupted_checksum_field_is_rejected() {
        let tmp = TempDir::new("corrupt-checksum");
        let path = tmp.0.join("t.btf");
        let mut bytes = write_trace(&path, "unit", &sample_records());
        // The checksum is the last 8 bytes of the header; find it by
        // re-reading the header and patching one byte inside those 8.
        let header = TraceHeader::read(&path).unwrap();
        let needle = header.checksum.to_le_bytes();
        let pos = bytes.windows(8).position(|w| w == needle).expect("checksum bytes in header");
        bytes[pos] ^= 0xff;
        let err = reopen(&path, &bytes).unwrap_err();
        assert!(matches!(err, TraceError::Checksum { .. }), "{err}");
        assert!(err.to_string().contains("corrupted trace file"), "{err}");
    }

    #[test]
    fn corrupted_header_identity_is_rejected() {
        let tmp = TempDir::new("corrupt-identity");
        let path = tmp.0.join("t.btf");
        let records = sample_records();
        let mut bytes = write_trace(&path, "unit", &records);
        // Offset 13 is inside the workload-name bytes ("unit"): the file
        // still parses (under a mangled name), but the identity hash breaks.
        bytes[13] ^= 0x02;
        std::fs::write(&path, &bytes).unwrap();
        assert_ne!(TraceHeader::read(&path).unwrap().workload, "unit");
        let err = reopen(&path, &bytes).unwrap_err();
        assert!(matches!(err, TraceError::Checksum { .. }), "{err}");

        // A corrupted instruction count in the trailer is caught too (the
        // trailer sits outside the hash but is cross-checked).
        let mut bytes = write_trace(&path, "unit", &records);
        let header = TraceHeader::read(&path).unwrap();
        let needle = header.instructions.to_le_bytes();
        let pos = bytes.windows(8).position(|w| w == needle).expect("instruction bytes");
        bytes[pos] ^= 0x01;
        let err = reopen(&path, &bytes).unwrap_err();
        assert!(err.to_string().contains("instructions"), "{err}");
    }

    #[test]
    fn truncated_files_are_rejected() {
        let tmp = TempDir::new("truncated");
        let path = tmp.0.join("t.btf");
        let bytes = write_trace(&path, "unit", &sample_records());
        let cut = bytes.len() - 11;
        let err = reopen(&path, &bytes[..cut]).unwrap_err();
        assert!(matches!(err, TraceError::Format { .. }), "{err}");
        assert!(err.to_string().contains("truncated"), "{err}");
        // Truncation inside the header is also a clear error.
        let err = reopen(&path, &bytes[..10]).unwrap_err();
        assert!(err.to_string().contains("header"), "{err}");
    }

    #[test]
    fn wrong_magic_and_version_are_rejected() {
        let tmp = TempDir::new("magic");
        let path = tmp.0.join("t.btf");
        let mut bytes = write_trace(&path, "unit", &sample_records());
        bytes[0] = b'X';
        let err = reopen(&path, &bytes).unwrap_err();
        assert!(err.to_string().contains("bad magic"), "{err}");
        bytes[0] = b'B';
        bytes[4] = 9; // version u32 LE
        let err = reopen(&path, &bytes).unwrap_err();
        assert!(matches!(err, TraceError::Version { found: 9 }), "{err}");
    }

    /// A recording is published only when it finishes, so an interrupted
    /// one leaves no file for a reader to meet, and an empty one is refused.
    #[test]
    fn unfinished_writer_leaves_a_rejected_file() {
        let tmp = TempDir::new("unfinished");
        let path = tmp.0.join("partial.btf");
        let live = || VecTrace::new("partial", vec![TraceRecord::load(1, 0, 64)]);
        let mut recording = RecordingSource::create(live(), &path, "test", 0, 1);
        let _ = recording.next_record();
        drop(recording); // never finished
        assert!(!path.exists(), "an unfinished recording publishes nothing");
        assert!(matches!(ReplayWorkload::open(&path), Err(TraceError::Io(_))));
        let err = RecordingSource::create(live(), &path, "test", 0, 1).finish().unwrap_err();
        assert!(err.to_string().contains("holds no records"), "{err}");
        assert!(!path.exists(), "an empty recording publishes nothing");
    }

    #[test]
    fn replay_matches_source_and_counts_wraps() {
        let records = sample_records();
        let tmp = TempDir::new("replay");
        let path = tmp.0.join("r.btf");
        write_trace(&path, "vec", &records);
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
        write_trace(&path, "short", &[TraceRecord::load(1, 0, 64), TraceRecord::store(2, 0, 128)]);
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
        let mut recording = RecordingSource::create(live, &path, "unit-test", 2, 9);
        assert_eq!(recording.name(), "tee");
        // Consume five records: the VecTrace loops, the file records the
        // exact consumed stream.
        let mut consumed = Vec::new();
        for _ in 0..5 {
            consumed.push(recording.next_record());
        }
        assert_eq!(recording.records(), 5);
        assert!(format!("{recording:?}").contains("tee"));
        assert!(!path.exists(), "nothing is written before finish");
        let (header, _inner) = recording.finish().unwrap();
        assert_eq!(header.records, 5);
        assert_eq!(header.core, 2);
        assert_eq!(header.seed, 9);
        assert_eq!(decode_all(&mut ReplayWorkload::open(&path).unwrap()), consumed);
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
        let live = VecTrace::new("ext", records.clone());
        let mut recording = RecordingSource::create(live, &path, "import:test", 0, 0);
        for _ in &records {
            let _ = recording.next_record();
        }
        let (header, _) = recording.finish().unwrap();
        assert_eq!(header.records, 3);
        assert_eq!(header.instructions, 11);
        let mut replay = ReplayWorkload::open(&path).unwrap();
        assert_eq!(replay.next_record(), records[0]);
        assert_eq!(render_text(&records), text, "export is the inverse of import");
    }

    /// The encoder works in memory: the header is sealed once the records
    /// are encoded, and the published file opens with it.
    #[test]
    fn writer_into_a_plain_cursor_supports_seek_patching() {
        let mut encoder = Encoder::new(TraceHeader::new("cursor", "test", 0, 0));
        for i in 0..10u64 {
            encoder.push(&TraceRecord::load(i, 0, i * 64));
        }
        assert_eq!(encoder.records(), 10);
        let trace = encoder.finish().unwrap();
        let header = trace.header().clone();
        assert_eq!(header.records, 10);
        let tmp = TempDir::new("sealed");
        let path = tmp.0.join("c.btf");
        trace.publish(&path).unwrap();
        let sealed = header_bytes(&header);
        assert_eq!(std::fs::read(&path).unwrap()[..sealed.len()], sealed);
        let replay = ReplayWorkload::open(&path).unwrap();
        assert_eq!(*replay.header(), header);
        assert_eq!(*replay.shared_records(), trace, "the read rebuilds the encoded form");
    }

    /// Publishing replaces an existing (possibly corrupt) file, which an
    /// unfinished recording leaves untouched.
    #[test]
    fn writer_drop_without_finish_then_reseal_via_truncate() {
        let tmp = TempDir::new("truncate");
        let path = tmp.0.join("t.btf");
        std::fs::write(&path, b"garbage that is not BTF").unwrap();
        assert!(TraceHeader::read(&path).is_err());
        let live = || VecTrace::new("t", vec![TraceRecord::load(1, 0, 0)]);
        let mut dropped = RecordingSource::create(live(), &path, "test", 0, 0);
        let _ = dropped.next_record();
        drop(dropped);
        assert_eq!(std::fs::read(&path).unwrap(), b"garbage that is not BTF");
        let mut recording = RecordingSource::create(live(), &path, "test", 0, 0);
        let _ = recording.next_record();
        recording.finish().unwrap();
        assert_eq!(ReplayWorkload::open(&path).unwrap().header().records, 1);
        assert_eq!(tmp.0.read_dir().unwrap().count(), 1, "the temporary file was renamed");
    }
}

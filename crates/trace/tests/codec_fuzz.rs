//! Property-style fuzz tests for the BTF1 container codec, driven by the
//! in-tree deterministic `SmallRng` (the workspace is offline — no
//! `proptest`): random record streams round-trip recording→replay exactly,
//! and a corrupted, truncated or extended file is **rejected loudly** — no
//! single-byte flip, truncation point or appended tail may ever yield a
//! successful parse with records that differ from the originals. Every file
//! goes through the one validating read behind `ReplayWorkload::open` and
//! `trace verify`.

use std::path::Path;

use bard_cpu::{MemAccess, TraceRecord, TraceSource, VecTrace};

mod common;
use bard_trace::{RecordingSource, ReplayWorkload};
use bard_workloads::rng::SmallRng;
use common::TempDir;

/// Draws a random record: compute/load/store, with ips and addresses that
/// mix streaming patterns, random jumps and the integer extremes (the codec
/// deltas wrap, so extremes are the interesting edges).
fn random_record(rng: &mut SmallRng, prev_addr: &mut u64) -> TraceRecord {
    let ip = match rng.gen_range(0u32..4) {
        0 => rng.next_u64(),
        1 => 0,
        2 => u64::MAX,
        _ => 0x40_0000 + rng.gen_range(0u64..4096) * 4,
    };
    let bubble = match rng.gen_range(0u32..4) {
        0 => 0,
        1 => rng.gen_range(1u32..16),
        2 => rng.gen_range(0u32..=u32::MAX),
        _ => 1,
    };
    let addr = match rng.gen_range(0u32..4) {
        0 => rng.next_u64(),
        1 => u64::MAX,
        2 => {
            *prev_addr = prev_addr.wrapping_add(64);
            *prev_addr
        }
        _ => rng.gen_range(0u64..=1 << 40),
    };
    match rng.gen_range(0u32..3) {
        0 => TraceRecord { ip, bubble, access: None },
        1 => TraceRecord { ip, bubble, access: Some(MemAccess::load(addr)) },
        _ => TraceRecord { ip, bubble, access: Some(MemAccess::store(addr)) },
    }
}

/// Writes `records` to a fresh BTF file and returns its bytes.
fn write_trace(path: &Path, records: &[TraceRecord]) -> Vec<u8> {
    let live = VecTrace::new("fuzz", records.to_vec());
    let mut recording = RecordingSource::create(live, path, "codec_fuzz test", 3, 0xF422);
    for _ in records {
        let _ = recording.next_record();
    }
    let (header, _) = recording.finish().expect("publish trace");
    assert_eq!(header.records, records.len() as u64);
    std::fs::read(path).expect("read trace bytes")
}

/// Parses `bytes` as a BTF file, returning the decoded records on success.
fn parse(path: &Path, bytes: &[u8]) -> Result<Vec<TraceRecord>, bard_trace::TraceError> {
    std::fs::write(path, bytes).expect("write mutated trace");
    ReplayWorkload::open(path).map(|mut replay| {
        let records: Vec<TraceRecord> = (0..replay.len()).map(|_| replay.next_record()).collect();
        assert_eq!(replay.wraps(), 0);
        records
    })
}

fn ensure_dir(tmp: &TempDir) {
    std::fs::create_dir_all(&tmp.0).expect("create temp dir");
}

#[test]
fn random_record_streams_round_trip_exactly() {
    let tmp = TempDir::new("roundtrip");
    ensure_dir(&tmp);
    let path = tmp.0.join("t.btf");
    for seed in 0..24u64 {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut prev_addr = 0u64;
        let count = rng.gen_range(1usize..=400);
        let records: Vec<TraceRecord> =
            (0..count).map(|_| random_record(&mut rng, &mut prev_addr)).collect();
        let bytes = write_trace(&path, &records);
        let decoded = parse(&path, &bytes).expect("intact file must parse");
        assert_eq!(decoded, records, "seed {seed}: decoded records diverge");
    }
}

/// Every single-byte corruption — header identity, trailer counts, checksum
/// field, record payload — must be rejected, or (the property that actually
/// matters) at least never produce records that differ from the originals.
#[test]
fn single_byte_corruption_never_yields_wrong_records() {
    let tmp = TempDir::new("corrupt");
    ensure_dir(&tmp);
    let path = tmp.0.join("t.btf");
    let mut rng = SmallRng::seed_from_u64(0xC0DE);
    let mut prev_addr = 0u64;
    let records: Vec<TraceRecord> =
        (0..200).map(|_| random_record(&mut rng, &mut prev_addr)).collect();
    let bytes = write_trace(&path, &records);
    let mutated_path = tmp.0.join("m.btf");
    let mut rejected = 0usize;
    for offset in 0..bytes.len() {
        let flip = 1u8 << rng.gen_range(0u32..8);
        let mut mutated = bytes.clone();
        mutated[offset] ^= flip;
        match parse(&mutated_path, &mutated) {
            Err(_) => rejected += 1,
            Ok(decoded) => {
                panic!(
                    "flipping bit {flip:#04x} at offset {offset} was accepted \
                     ({} records decoded)",
                    decoded.len()
                );
            }
        }
    }
    assert_eq!(rejected, bytes.len(), "every corruption must be rejected");
}

/// Truncation at any byte offset removes header bytes or record bytes the
/// trailer still promises, so every cut must be rejected.
#[test]
fn truncation_at_any_offset_is_rejected() {
    let tmp = TempDir::new("truncate");
    ensure_dir(&tmp);
    let path = tmp.0.join("t.btf");
    let mut rng = SmallRng::seed_from_u64(0x7A11);
    let mut prev_addr = 0u64;
    let records: Vec<TraceRecord> =
        (0..150).map(|_| random_record(&mut rng, &mut prev_addr)).collect();
    let bytes = write_trace(&path, &records);
    let mutated_path = tmp.0.join("m.btf");
    for cut in 0..bytes.len() {
        assert!(
            parse(&mutated_path, &bytes[..cut]).is_err(),
            "a file truncated to {cut} of {} bytes must be rejected",
            bytes.len()
        );
    }
}

/// The checksum covers only the records the trailer promises, so bytes
/// appended after the last record must be rejected on their own, at the
/// first extra byte.
#[test]
fn appended_bytes_are_rejected() {
    let tmp = TempDir::new("append");
    ensure_dir(&tmp);
    let path = tmp.0.join("t.btf");
    let mut rng = SmallRng::seed_from_u64(0xA99E);
    let mut prev_addr = 0u64;
    let records: Vec<TraceRecord> =
        (0..100).map(|_| random_record(&mut rng, &mut prev_addr)).collect();
    let bytes = write_trace(&path, &records);
    let mutated_path = tmp.0.join("m.btf");
    for extra in [1usize, 8, 16] {
        let mut extended = bytes.clone();
        extended.extend((0..extra).map(|_| rng.gen_range(0u32..256) as u8));
        let err = parse(&mutated_path, &extended).expect_err("appended bytes must be rejected");
        let message = err.to_string();
        assert!(message.contains(&format!("byte {}", bytes.len())), "{extra}: {message}");
        assert!(message.contains(&format!("{extra} bytes follow the last record")), "{message}");
    }
}

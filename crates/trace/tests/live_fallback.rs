//! The exact live fallback behind `--trace-dir`: a replay that outlives its
//! recording continues with the fast-forwarded live generator and stays
//! bitwise-identical to pure live generation for any consumption length.
//! A `TraceSource::skip` leaves every source exactly where the same number
//! of `next_record` calls would: replays seek inside the recording and read
//! through its end, so wraps, strict panics and the fallback are unchanged.

use bard_cpu::{TraceRecord, TraceSource};

mod common;
use bard_trace::{ReplayWorkload, TraceStore};
use bard_workloads::WorkloadId;
use common::TempDir;

const SEED: u64 = 0x1BAD_B002;

#[test]
fn fallback_continues_the_generator_stream_exactly() {
    let tmp = TempDir::new("exact");
    let store = TraceStore::new(&tmp.0);
    let workload = WorkloadId::Omnetpp;
    // A deliberately tiny budget: the recording covers only a prefix.
    let replay = store
        .obtain(workload.name(), 0, SEED, 2_000, || workload.build(0, SEED))
        .expect("capture must succeed");
    let recorded = replay.len();
    let mut replayed = replay.with_live_fallback(move || workload.build(0, SEED));
    let mut live = workload.build(0, SEED);
    // Pull far past the recording: the prefix comes from the file, the rest
    // from the fast-forwarded generator, and every record matches.
    for i in 0..(recorded * 10) {
        assert_eq!(replayed.next_record(), live.next_record(), "record {i} diverged");
        assert_eq!(replayed.fell_back(), i >= recorded, "fallback must engage at {recorded}");
    }
    assert_eq!(replayed.name(), workload.name());
}

#[test]
fn fallback_is_untouched_while_the_recording_covers_the_run() {
    let tmp = TempDir::new("covered");
    let store = TraceStore::new(&tmp.0);
    let workload = WorkloadId::Copy;
    let replay = store
        .obtain(workload.name(), 1, SEED, 5_000, || workload.build(1, SEED))
        .expect("capture must succeed");
    let recorded = replay.len();
    let mut replayed = replay.with_live_fallback(move || workload.build(1, SEED));
    for _ in 0..recorded {
        let _ = replayed.next_record();
    }
    assert!(!replayed.fell_back(), "consuming exactly the recording must not fall back");
}

/// A 2,000-instruction recording of `workload` on core 0, captured into
/// `tmp`.
fn short_recording(tmp: &TempDir, workload: WorkloadId) -> ReplayWorkload {
    TraceStore::new(&tmp.0)
        .obtain(workload.name(), 0, SEED, 2_000, || workload.build(0, SEED))
        .expect("capture must succeed")
}

#[test]
fn skip_inside_the_recording_seeks_without_falling_back() {
    let tmp = TempDir::new("skip-inside");
    let workload = WorkloadId::Omnetpp;
    let replay = short_recording(&tmp, workload);
    let recorded = replay.len() as u64;
    let mut replayed = replay.with_live_fallback(move || workload.build(0, SEED));
    let mut live = workload.build(0, SEED);
    replayed.skip(recorded - 1);
    live.skip(recorded - 1);
    assert!(!replayed.fell_back(), "a skip inside the recording must not fall back");
    assert_eq!(replayed.next_record(), live.next_record(), "the last recorded record");
    assert!(!replayed.fell_back(), "consuming exactly the recording must not fall back");
    assert_eq!(replayed.next_record(), live.next_record(), "the first generated record");
    assert!(replayed.fell_back());
}

#[test]
fn skip_across_the_end_continues_the_generator_stream_exactly() {
    let tmp = TempDir::new("skip-across");
    let workload = WorkloadId::Omnetpp;
    let replay = short_recording(&tmp, workload);
    let recorded = replay.len() as u64;
    let mut replayed = replay.with_live_fallback(move || workload.build(0, SEED));
    let mut live = workload.build(0, SEED);
    replayed.skip(recorded * 3 + 7);
    live.skip(recorded * 3 + 7);
    assert!(replayed.fell_back(), "a skip past the recording must engage the fallback");
    for i in 0..recorded {
        assert_eq!(replayed.next_record(), live.next_record(), "record {i} after the skip");
    }
}

#[test]
fn replay_skip_past_the_end_wraps_like_next_record() {
    let tmp = TempDir::new("skip-wrap");
    let replay = short_recording(&tmp, WorkloadId::Copy);
    let len = replay.len() as u64;
    for n in [len, len + 1, 3 * len + 5] {
        let mut skipped = replay.clone();
        let mut read = replay.clone();
        skipped.skip(n);
        for _ in 0..n {
            let _ = read.next_record();
        }
        assert_eq!(skipped.wraps(), read.wraps(), "wraps after skipping {n} of {len}");
        assert_eq!(skipped.next_record(), read.next_record(), "record after skipping {n}");
    }
    let mut wrapped = replay.clone();
    wrapped.skip(len + 1);
    assert_eq!(wrapped.wraps(), 1, "one record past the end is one wrap");
}

#[test]
#[should_panic(expected = "a strict replay must outlast the run")]
fn strict_replay_skip_panics_where_next_record_would() {
    let tmp = TempDir::new("skip-strict");
    let mut replay = short_recording(&tmp, WorkloadId::Copy).strict();
    let len = replay.len() as u64;
    // Skipping exactly the recording is fine; one more record is not.
    replay.skip(len);
    replay.skip(1);
}

/// A source that can only seek: reading a record is a test failure.
struct SeekOnly;

impl TraceSource for SeekOnly {
    fn next_record(&mut self) -> TraceRecord {
        panic!("skip must not read records");
    }

    fn skip(&mut self, _n: u64) {}

    fn name(&self) -> &str {
        "seek-only"
    }
}

#[test]
fn boxed_sources_forward_skip() {
    let mut boxed: Box<dyn TraceSource> = Box::new(SeekOnly);
    <Box<dyn TraceSource> as TraceSource>::skip(&mut boxed, 1_000_000);
}

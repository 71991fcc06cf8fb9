//! Snapshot image-codec fuzz suite on a **real** mid-run system image (the
//! unit tests in `bard::snapshot` sweep a synthetic container; this suite
//! proves the same guarantees hold at full-image scale):
//!
//! * the BSS1 container round-trips bitwise and restores to a system that
//!   resumes to completion,
//! * **every** single-byte flip of the image is rejected loudly,
//! * **every** truncation offset is rejected loudly,
//! * a version bump is refused with the named [`SnapshotError::Version`],
//! * a digest mismatch (restoring under a different configuration) is
//!   refused with [`SnapshotError::Incompatible`].

use bard::snapshot::VERSION;
use bard::{RunOutcome, Snapshot, SnapshotError, System, SystemConfig};
use bard_workloads::WorkloadId;

/// A deliberately tiny single-core system so the every-byte-flip sweep over
/// the full image stays cheap in debug builds.
fn tiny_config() -> SystemConfig {
    let mut cfg = SystemConfig::small_test();
    cfg.cores = 1;
    cfg.l1d_bytes = 4 * 1024;
    cfg.l1d_ways = 4;
    cfg.l2_bytes = 16 * 1024;
    cfg.l2_ways = 4;
    cfg.llc_bytes = 64 * 1024;
    cfg.llc_ways = 8;
    cfg.llc_slices = 1;
    cfg
}

/// Runs the tiny system to a mid-run pause and returns the serialized
/// snapshot image.
fn captured_mid_run() -> (SystemConfig, Vec<u8>) {
    let cfg = tiny_config();
    let mut system = System::new(cfg.clone(), WorkloadId::Mix0);
    let outcome = system.run_to_pause(30_000, 1_000, 4_000, Some(1_500));
    assert!(matches!(outcome, RunOutcome::Paused), "checkpoint must land mid-run");
    (cfg, system.capture().to_bytes())
}

#[test]
fn real_image_round_trips_and_resumes() {
    let (cfg, bytes) = captured_mid_run();
    let snapshot = Snapshot::from_bytes(&bytes).expect("pristine image parses");
    assert_eq!(snapshot.to_bytes(), bytes, "container serialization round-trips bitwise");
    assert!(!snapshot.is_warm(), "mid-run captures are full images, not warm images");
    let mut restored = System::restore(cfg, WorkloadId::Mix0, &snapshot).expect("image restores");
    let outcome = restored.run_to_pause(30_000, 1_000, 4_000, None);
    assert!(matches!(outcome, RunOutcome::Done(_)), "restored system runs to completion");
}

#[test]
fn every_single_byte_flip_is_rejected() {
    let (_, bytes) = captured_mid_run();
    for offset in 0..bytes.len() {
        let mut corrupt = bytes.clone();
        corrupt[offset] ^= 0x5A;
        assert!(
            Snapshot::from_bytes(&corrupt).is_err(),
            "flipping byte {offset}/{} must be rejected",
            bytes.len()
        );
    }
}

#[test]
fn every_truncation_offset_is_rejected() {
    let (_, bytes) = captured_mid_run();
    for len in 0..bytes.len() {
        assert!(
            Snapshot::from_bytes(&bytes[..len]).is_err(),
            "truncation to {len}/{} bytes must be rejected",
            bytes.len()
        );
    }
}

#[test]
fn version_bump_is_refused_by_name() {
    let (_, bytes) = captured_mid_run();
    // The version is the little-endian u32 right after the 4-byte magic and
    // is validated before the trailing checksum, so a bare bump is enough.
    // A newer version is refused, and so are the retired versions 1 to 4.
    for version in [VERSION + 1, 1, 2, 3, 4] {
        let mut image = bytes.clone();
        image[4..8].copy_from_slice(&version.to_le_bytes());
        match Snapshot::from_bytes(&image) {
            Err(SnapshotError::Version { found }) => assert_eq!(found, version),
            other => panic!("expected SnapshotError::Version, got {other:?}"),
        }
    }
}

#[test]
fn digest_mismatch_is_refused_as_incompatible() {
    let (cfg, bytes) = captured_mid_run();
    let snapshot = Snapshot::from_bytes(&bytes).expect("pristine image parses");
    // A different generator seed produces a different full digest: the image
    // describes a different simulation and must not restore under it.
    let mut reseeded = cfg.clone();
    reseeded.seed ^= 1;
    match System::restore(reseeded, WorkloadId::Mix0, &snapshot) {
        Err(SnapshotError::Incompatible { .. }) => {}
        other => panic!("expected SnapshotError::Incompatible, got {other:?}"),
    }
    // Same config, different workload: also a digest mismatch.
    match System::restore(cfg, WorkloadId::Lbm, &snapshot) {
        Err(SnapshotError::Incompatible { .. }) => {}
        other => panic!("expected SnapshotError::Incompatible, got {other:?}"),
    }
}

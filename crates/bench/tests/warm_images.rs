//! Golden test pinning the bytes of warm BSS1 snapshot images.
//!
//! A warm image (`System::capture_warm`) serializes every cache's tag
//! array, set words and replacement-policy state. Images are pinned per
//! format version, not across versions: archived images in a
//! `--snapshot-dir` are reused by every build of the same BSS1 version, so
//! within a version a change to how the cache model stores that state must
//! still export the same bytes. A format change bumps the version, which
//! re-keys the store, and re-blesses this file. This test captures one
//! `small_test` image per LLC replacement policy, plus one image of the
//! paper's Table II hierarchy (`baseline_8core`: 12-way L1D, 8-way L2,
//! 16 MiB LLC), and compares each length and FNV-1a digest against
//! `golden/warm_images.txt`.
//!
//! To regenerate after an intentional image-format change:
//!
//! ```text
//! BARD_BLESS=1 cargo test -p bard-bench --test warm_images
//! ```

use bard::cache::ReplacementKind;
use bard::{System, SystemConfig};
use bard_workloads::WorkloadId;

/// Functional warm-up per core: enough lbm traffic to overflow the
/// `small_test` LLC, so the images carry evictions and the ranks, RRPVs
/// and signatures evicted ways keep.
const WARMUP: u64 = 100_000;

/// Functional warm-up per core of the Table II image: enough `mix0`
/// traffic to evict from every L1D and L2, kept short so the test stays
/// quick in a debug build.
const TABLE2_WARMUP: u64 = 50_000;

const GOLDEN_PATH: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/warm_images.txt");

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(0xcbf2_9ce4_8422_2325, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3))
}

/// The `name len=.. fnv1a=..` line of `config` × `workload`'s warm image.
fn image_line(name: &str, config: SystemConfig, workload: WorkloadId, warmup: u64) -> String {
    let mut system = System::new(config, workload);
    system.functional_warmup(warmup);
    let bytes = system.capture_warm(warmup).to_bytes();
    format!("{name} len={} fnv1a={:#018x}\n", bytes.len(), fnv1a(&bytes))
}

fn render_current() -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "# Warm images: small_test x lbm, {WARMUP} functional warm-up instructions per core.\n"
    ));
    out.push_str("# Regenerate: BARD_BLESS=1 cargo test -p bard-bench --test warm_images\n");
    for kind in [ReplacementKind::Lru, ReplacementKind::Srrip, ReplacementKind::Ship] {
        let config = SystemConfig::small_test().with_replacement(kind);
        out.push_str(&image_line(kind.name(), config, WorkloadId::Lbm, WARMUP));
    }
    out.push_str(&format!(
        "# Table II: baseline_8core x mix0, LRU, {TABLE2_WARMUP} functional warm-up \
         instructions per core.\n"
    ));
    let table2 = SystemConfig::baseline_8core();
    out.push_str(&image_line("baseline_8core/mix0 LRU", table2, WorkloadId::Mix0, TABLE2_WARMUP));
    out
}

#[test]
fn warm_images_match_the_golden_file() {
    let current = render_current();
    if std::env::var_os("BARD_BLESS").is_some() {
        std::fs::write(GOLDEN_PATH, &current).expect("write golden file");
        return;
    }
    let golden = std::fs::read_to_string(GOLDEN_PATH).expect("golden file exists");
    assert_eq!(
        current, golden,
        "warm snapshot image bytes changed; archived --snapshot-dir images depend on them. \
         If the format change is intentional, bump the BSS1 version and regenerate with \
         BARD_BLESS=1 cargo test -p bard-bench --test warm_images"
    );
}

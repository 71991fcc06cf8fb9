//! Golden test pinning the bytes of warm BSS1 snapshot images.
//!
//! A warm image (`System::capture_warm`) serializes every cache's tag
//! array, set words and replacement-policy state. Images are pinned per
//! format version, not across versions: archived images in a
//! `--snapshot-dir` are reused by every build of the same BSS1 version, so
//! within a version a change to how the cache model stores that state must
//! still export the same bytes. A format change bumps the version, which
//! re-keys the store, and re-blesses this file. This test captures one
//! image per LLC replacement policy and compares its length and FNV-1a
//! digest against `golden/warm_images.txt`.
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

const GOLDEN_PATH: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/warm_images.txt");

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(0xcbf2_9ce4_8422_2325, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3))
}

fn render_current() -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "# Warm images: small_test x lbm, {WARMUP} functional warm-up instructions per core.\n"
    ));
    out.push_str("# Regenerate: BARD_BLESS=1 cargo test -p bard-bench --test warm_images\n");
    for kind in [ReplacementKind::Lru, ReplacementKind::Srrip, ReplacementKind::Ship] {
        let mut config = SystemConfig::small_test();
        config.llc_replacement = kind;
        let mut system = System::new(config, WorkloadId::Lbm);
        system.functional_warmup(WARMUP);
        let bytes = system.capture_warm(WARMUP).to_bytes();
        out.push_str(&format!(
            "{} len={} fnv1a={:#018x}\n",
            kind.name(),
            bytes.len(),
            fnv1a(&bytes)
        ));
    }
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

//! R1 fixture: the snapshot layer's digest-normalization block.

/// The digest normalizes `probe` as cosmetic — but `ProbeKind` is not part
/// of the `all_paths` cross in this fixture, so R1 must flag it.
pub fn full_digest(mut c: FixtureConfig) -> u64 {
    c.probe = ProbeKind::Walk;
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    h ^= c.seed;
    h
}

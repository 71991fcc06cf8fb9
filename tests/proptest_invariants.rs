//! Randomised tests of the core data structures' invariants.
//!
//! These used to be `proptest` properties; the offline build environment
//! cannot fetch the crate, so each property is exercised over a deterministic
//! pseudo-random input stream instead (seeded [`SmallRng`], 128 cases per
//! property). Shrinking is lost but the assertion messages carry the case
//! seed, so any failure is reproducible by construction.

use bard::{BlpTracker, SlicedLlc, WritePolicyKind};
use bard_cache::{CacheConfig, MshrFile, ReplacementKind, SetAssocCache};
use bard_dram::{AddressMapping, DramConfig, MappingScheme};
use bard_workloads::SmallRng;

const CASES: u64 = 128;

/// Runs `body` once per case with an independently seeded generator.
fn for_each_case(test_name: &str, mut body: impl FnMut(&mut SmallRng)) {
    for case in 0..CASES {
        let seed = 0xBA5E_0000_0000_0000 | case;
        let mut rng = SmallRng::seed_from_u64(seed);
        // The closure asserts internally; the panic message plus this
        // wrapper's `case` make failures reproducible.
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| body(&mut rng)));
        assert!(result.is_ok(), "{test_name}: case {case} (seed {seed:#x}) failed");
    }
}

/// Every physical address decodes to in-range DRAM coordinates, for every
/// mapping scheme.
#[test]
fn address_decode_fields_are_in_range() {
    for_each_case("address_decode_fields_are_in_range", |rng| {
        let addr = rng.next_u64();
        let scheme_idx = rng.gen_range(0usize..3);
        let mut cfg = DramConfig::ddr5_4800_x4();
        cfg.mapping =
            [MappingScheme::ZenPbpl, MappingScheme::Zen, MappingScheme::RowBankColumn][scheme_idx];
        let mapping = AddressMapping::new(&cfg);
        let d = mapping.decode(addr);
        assert!(d.channel < cfg.channels);
        assert!(d.subchannel < cfg.subchannels_per_channel);
        assert!(d.bankgroup < cfg.bankgroups);
        assert!(d.bank < cfg.banks_per_group);
        assert!((d.column as usize) < cfg.lines_per_row());
        assert!(mapping.channel_and_bank(addr).1 < cfg.banks_per_channel());
    });
}

/// Two addresses in the same cache line always decode to the same bank.
#[test]
fn same_line_addresses_share_a_bank() {
    let cfg = DramConfig::ddr5_4800_x4();
    let mapping = AddressMapping::new(&cfg);
    for_each_case("same_line_addresses_share_a_bank", |rng| {
        let base = rng.next_u64() & !63;
        let off_a = rng.gen_range(0u64..64);
        let off_b = rng.gen_range(0u64..64);
        assert_eq!(mapping.channel_and_bank(base | off_a), mapping.channel_and_bank(base | off_b));
    });
}

/// The BLP-Tracker never reports a full sub-channel: the self-reset clears
/// it as soon as the last bank bit would be set.
#[test]
fn blp_tracker_never_saturates_a_subchannel() {
    for_each_case("blp_tracker_never_saturates_a_subchannel", |rng| {
        let mut tracker = BlpTracker::new(1, 64, 32);
        let count = rng.gen_range(1usize..500);
        for _ in 0..count {
            let bank = rng.gen_range(0usize..64);
            tracker.record_writeback(0, bank);
            let bitmap = tracker.bitmap(0);
            let low = bitmap & 0xFFFF_FFFF;
            let high = bitmap >> 32;
            assert_ne!(low, 0xFFFF_FFFF, "sub-channel 0 must self-reset");
            assert_ne!(high, 0xFFFF_FFFF, "sub-channel 1 must self-reset");
        }
    });
}

/// A cache never holds more valid lines than its capacity, a filled line
/// is always findable, and dirty lines never exceed valid lines.
#[test]
fn cache_occupancy_and_probe_invariants() {
    for_each_case("cache_occupancy_and_probe_invariants", |rng| {
        let mut cache =
            SetAssocCache::new(CacheConfig::new(16 * 1024, 4, 64), ReplacementKind::Lru);
        let capacity = cache.sets() * cache.ways();
        let ops = rng.gen_range(1usize..600);
        for _ in 0..ops {
            let addr = rng.gen_range(0u64..=u64::from(u16::MAX)) * 64;
            let is_write = rng.gen_bool(0.5);
            if !cache.touch(addr, 0, is_write) {
                cache.fill(addr, is_write, 0);
            }
            assert!(cache.probe(addr).is_some(), "a just-filled line must be resident");
            assert!(cache.occupancy() <= capacity);
            assert!(cache.dirty_count() <= cache.occupancy());
        }
    });
}

/// Replacement policies always produce an eviction order that is a
/// permutation of the ways, and the victim is its head once the set is full.
#[test]
fn eviction_order_is_a_permutation() {
    for_each_case("eviction_order_is_a_permutation", |rng| {
        let kind_idx = rng.gen_range(0usize..3);
        let kind = [ReplacementKind::Lru, ReplacementKind::Srrip, ReplacementKind::Ship][kind_idx];
        let mut cache = SetAssocCache::new(CacheConfig::new(8 * 64, 8, 64), kind);
        for way in 0..8u64 {
            cache.fill(way * 64, false, way as u16);
        }
        let hits = rng.gen_range(0usize..64);
        for _ in 0..hits {
            let way = rng.gen_range(0usize..8);
            cache.touch((way as u64) * 64, way as u16, false);
        }
        let order: Vec<usize> = cache.eviction_order(0).collect();
        let mut sorted = order.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..8).collect::<Vec<_>>());
        assert_eq!(order[0], cache.victim_way(0));
    });
}

/// The MSHR file never exceeds its capacity and completes exactly what was
/// allocated.
#[test]
fn mshr_file_respects_capacity() {
    for_each_case("mshr_file_respects_capacity", |rng| {
        let mut mshrs = MshrFile::new(8);
        let mut outstanding = std::collections::HashSet::new();
        let lines = rng.gen_range(1usize..200);
        for i in 0..lines {
            let line_addr = rng.gen_range(0u64..32) * 64;
            match mshrs.allocate(line_addr, i as u64, false, false) {
                Ok(true) => {
                    outstanding.insert(line_addr);
                }
                Ok(false) => assert!(outstanding.contains(&line_addr)),
                Err(_) => assert!(mshrs.is_full()),
            }
            assert!(mshrs.len() <= 8);
            // Periodically complete one outstanding miss to keep the file
            // moving.
            if i % 3 == 0 {
                if let Some(&addr) = outstanding.iter().next() {
                    assert!(mshrs.complete(addr).is_some());
                    outstanding.remove(&addr);
                }
            }
        }
    });
}

/// LLC fills under any policy keep the writeback stream consistent: every
/// reported writeback is a line-aligned address and policy counters add up.
#[test]
fn llc_policies_keep_counter_invariants() {
    for_each_case("llc_policies_keep_counter_invariants", |rng| {
        let policy = [
            WritePolicyKind::Baseline,
            WritePolicyKind::BardE,
            WritePolicyKind::BardC,
            WritePolicyKind::BardH,
            WritePolicyKind::EagerWriteback,
            WritePolicyKind::VirtualWriteQueue,
        ][rng.gen_range(0usize..6)];
        let dram = DramConfig::ddr5_4800_x4();
        let mut llc = SlicedLlc::new(64 * 1024, 4, 64, 2, ReplacementKind::Lru, policy, &dram);
        let mut writebacks = Vec::new();
        let mut oracle = |_addr: u64| false;
        let fills = rng.gen_range(1usize..400);
        for i in 0..fills {
            let addr = rng.gen_range(0u64..=u64::from(u32::MAX)) * 64;
            llc.fill(addr, 0, i % 2 == 0, &mut writebacks, &mut oracle);
        }
        for wb in &writebacks {
            assert_eq!(wb % 64, 0, "writebacks must be line aligned");
        }
        let stats = llc.policy_stats();
        assert_eq!(stats.writebacks as usize, writebacks.len());
        assert!(stats.overrides <= stats.evictions);
        assert!(stats.checked_decisions == stats.overrides + stats.cleanses || !policy.is_bard());
        assert!(stats.incorrect_decisions <= stats.checked_decisions);
        if policy == WritePolicyKind::Baseline {
            assert_eq!(stats.overrides + stats.cleanses, 0);
        }
    });
}

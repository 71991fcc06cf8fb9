//! Micro-benchmark: set-associative cache operations and replacement
//! policies (lookup, fill, eviction-order computation).

use bard_cache::{CacheConfig, ReplacementKind, SetAssocCache};
use bard_workloads::rng::SmallRng;
use criterion::{criterion_group, criterion_main, Criterion};
use std::time::Duration;

/// The next access of the stream every `fill_touch_*` and `access_*` case
/// replays, from one draw of a generator seeded with [`SEED`]: a uniformly
/// random line of `lines`, its signature, and whether it is a store.
fn next_access(rng: &mut SmallRng, lines: u64) -> (u64, u16, bool) {
    let r = rng.next_u64();
    ((r % lines) * 64, (r >> 32) as u16, (r >> 48).is_multiple_of(3))
}

/// Seed of every case's access stream.
const SEED: u64 = 0xCAC4_E0B5;

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("cache_ops");
    group.sample_size(30);
    group.warm_up_time(Duration::from_millis(500));
    group.measurement_time(Duration::from_secs(2));
    // 2 MiB fits the host L2; the 16 MiB LLC geometry (Table II) does not,
    // so its cost is host-memory bound. Each case draws uniformly random
    // lines from a span four times the capacity, so about a quarter of its
    // accesses hit and the rest fill: over 20M accesses, 24.96% hit at 2mb
    // and 24.81% at 16mb, under each of the three policies. `fill_touch_*`
    // looks up and fills a miss in two calls, `access_*` in one set visit;
    // both see the same stream.
    for (label, bytes) in [("2mb", 2 << 20), ("16mb", 16 << 20)] {
        for kind in [ReplacementKind::Lru, ReplacementKind::Srrip, ReplacementKind::Ship] {
            let lines = 4 * bytes as u64 / 64;
            group.bench_function(format!("fill_touch_{label}_{}", kind.name()), |b| {
                let mut cache = SetAssocCache::new(CacheConfig::new(bytes, 16, 64), kind);
                let mut rng = SmallRng::seed_from_u64(SEED);
                b.iter(|| {
                    let (addr, signature, write) = next_access(&mut rng, lines);
                    if !cache.touch(addr, signature, write) {
                        cache.fill(addr, write, signature);
                    }
                });
            });
            group.bench_function(format!("access_{label}_{}", kind.name()), |b| {
                let mut cache = SetAssocCache::new(CacheConfig::new(bytes, 16, 64), kind);
                let mut rng = SmallRng::seed_from_u64(SEED);
                b.iter(|| {
                    let (addr, signature, write) = next_access(&mut rng, lines);
                    cache.access(addr, signature, write);
                });
            });
        }
    }
    group.bench_function("eviction_order_16way", |b| {
        let mut cache =
            SetAssocCache::new(CacheConfig::new(1024 * 1024, 16, 64), ReplacementKind::Lru);
        for i in 0..(1024 * 1024 / 64) as u64 {
            cache.fill(i * 64, i % 2 == 0, 0);
        }
        let mut set = 0usize;
        b.iter(|| {
            set = (set + 1) % cache.sets();
            cache.eviction_order(std::hint::black_box(set)).collect::<Vec<_>>()
        });
    });
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);

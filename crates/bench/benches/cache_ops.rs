//! Micro-benchmark: set-associative cache operations and replacement
//! policies (lookup, fill, eviction-order computation).

use bard_cache::{CacheConfig, ReplacementKind, SetAssocCache};
use criterion::{criterion_group, criterion_main, Criterion};
use std::time::Duration;

/// The next access of the stream every `fill_touch_*` and `access_*` case
/// replays: a line of a span four times the cache's capacity, its
/// signature, and whether it is a store.
fn next_access(i: &mut u64, span: u64) -> (u64, u16, bool) {
    *i = i.wrapping_add(0x9E37_79B9);
    ((*i % span) & !63, (*i >> 8) as u16, i.is_multiple_of(3))
}

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("cache_ops");
    group.sample_size(30);
    group.warm_up_time(Duration::from_millis(500));
    group.measurement_time(Duration::from_secs(2));
    // 2 MiB fits the host L2; the 16 MiB LLC geometry (Table II) does not,
    // so its cost is host-memory bound. Each case streams a working set four
    // times the capacity. `fill_touch_*` looks up and fills a miss in two
    // calls, `access_*` in one set visit; both see the same stream.
    for (label, bytes) in [("2mb", 2 << 20), ("16mb", 16 << 20)] {
        for kind in [ReplacementKind::Lru, ReplacementKind::Srrip, ReplacementKind::Ship] {
            let span = 4 * bytes as u64;
            group.bench_function(format!("fill_touch_{label}_{}", kind.name()), |b| {
                let mut cache = SetAssocCache::new(CacheConfig::new(bytes, 16, 64), kind);
                let mut i = 0u64;
                b.iter(|| {
                    let (addr, signature, write) = next_access(&mut i, span);
                    if !cache.touch(addr, signature, write) {
                        cache.fill(addr, write, signature);
                    }
                });
            });
            group.bench_function(format!("access_{label}_{}", kind.name()), |b| {
                let mut cache = SetAssocCache::new(CacheConfig::new(bytes, 16, 64), kind);
                let mut i = 0u64;
                b.iter(|| {
                    let (addr, signature, write) = next_access(&mut i, span);
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

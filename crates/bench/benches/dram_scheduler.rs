//! Micro-benchmark: DDR5 sub-channel scheduling throughput for read bursts,
//! same-bank-group write drains, spread write drains, and a steady mixed
//! queue at the occupancy the paper's 8-core grids run at.

use bard_dram::{DramConfig, MemRequest, MemoryController};
use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use std::time::Duration;

fn controller() -> MemoryController {
    let mut cfg = DramConfig::ddr5_4800_x4();
    cfg.refresh_enabled = false;
    MemoryController::new(&cfg, 0)
}

fn drain_writes(addresses: &[u64]) -> u64 {
    let mut mc = controller();
    for (i, &addr) in addresses.iter().enumerate() {
        let _ = mc.try_enqueue(MemRequest::write(i as u64, addr, 0), 0);
    }
    let mut done = Vec::new();
    for cycle in 0..200_000u64 {
        mc.tick(cycle);
        mc.drain_completed(cycle, &mut done);
        if mc.stats().drain_episodes > 0 {
            return cycle;
        }
    }
    200_000
}

/// A steady mixed load: reads topped up to about 44 queued per sub-channel,
/// and a write stream that keeps each write queue cycling between the
/// watermarks (read, drain, read). Addresses fall in a 2 MiB window, four
/// rows in every bank, so row hits, misses, conflicts and dead rows mix.
/// Ticks every cycle; returns the reads served.
fn steady_mixed_queue(cycles: u64) -> usize {
    let mut mc = controller();
    let mut rng = 0x2545_F491_4F6C_DD1Du64;
    let mut next_addr = move || {
        rng ^= rng << 13;
        rng ^= rng >> 7;
        rng ^= rng << 17;
        (rng % (2 << 20)) & !63
    };
    let queued_reads = |mc: &MemoryController| {
        (0..mc.subchannel_count()).map(|s| mc.subchannel(s).read_queue_len()).sum::<usize>()
    };
    let (mut done, mut id, mut served) = (Vec::new(), 0u64, 0);
    for cycle in 0..cycles {
        mc.tick(cycle);
        mc.drain_completed(cycle, &mut done);
        served += done.len();
        done.clear();
        while queued_reads(&mc) < 44 * mc.subchannel_count() {
            let _ = mc.try_enqueue(MemRequest::read(id, next_addr(), 0), cycle);
            id += 1;
        }
        if cycle % 24 == 0 {
            let _ = mc.try_enqueue(MemRequest::write(id, next_addr(), 0), cycle);
            id += 1;
        }
    }
    served
}

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("dram_scheduler");
    group.sample_size(20);
    group.warm_up_time(Duration::from_millis(500));
    group.measurement_time(Duration::from_secs(2));

    group.bench_function("read_burst_64", |b| {
        b.iter_batched(
            controller,
            |mut mc| {
                for i in 0..64u64 {
                    let _ = mc.try_enqueue(MemRequest::read(i, i * 4096, 0), 0);
                }
                let mut done = Vec::new();
                let mut cycle = 0;
                while done.len() < 64 {
                    mc.tick(cycle);
                    mc.drain_completed(cycle, &mut done);
                    cycle += 1;
                }
                cycle
            },
            BatchSize::SmallInput,
        );
    });

    // Writes confined to one bank group (slow path: tCCD_L_WR).
    let same_bg: Vec<u64> = (0..48u64).map(|i| i * 0x2000).collect();
    // Writes spread across bank groups (fast path: tCCD_S_WR).
    let spread: Vec<u64> = (0..48u64).map(|i| i * 0x140).collect();
    group.bench_function("write_drain_same_bankgroup", |b| {
        b.iter(|| drain_writes(std::hint::black_box(&same_bg)));
    });
    group.bench_function("write_drain_spread_bankgroups", |b| {
        b.iter(|| drain_writes(std::hint::black_box(&spread)));
    });
    group.bench_function("steady_mixed_queue", |b| {
        b.iter(|| steady_mixed_queue(std::hint::black_box(20_000)));
    });
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);

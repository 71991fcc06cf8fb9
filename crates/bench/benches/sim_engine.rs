//! Macro-benchmark: simulated CPU cycles per wall-clock second for the two
//! simulation engines — the reference `step` engine (one tick per cycle)
//! against the exact next-event `skip` engine (cycle jumps over provably
//! idle spans). Both produce bitwise-identical results (see the `parity`
//! suite), so the only question is throughput.
//!
//! A one-shot `cycles_per_sec` summary line is printed for the full-system
//! shapes the repro suite actually spends its time on (tab07's 8-core
//! systems). The tracked end-to-end numbers live in `perfbench`.

use std::time::{Duration, Instant};

use bard::experiment::RunLength;
use bard::{EngineKind, System, SystemConfig};
use bard_workloads::WorkloadId;
use criterion::{criterion_group, criterion_main, Criterion};

/// Simulates one run and returns the total simulated cycles (warm-up
/// included — both engines cover the identical cycle span).
fn simulate(engine: EngineKind, workload: WorkloadId, cores: usize, length: RunLength) -> u64 {
    let mut cfg = SystemConfig::small_test().with_engine(engine);
    cfg.cores = cores;
    let mut system = System::new(cfg, workload);
    system.run(length.functional_warmup, length.timed_warmup, length.measure);
    system.cycle()
}

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("sim_engine");
    group.sample_size(10);
    group.warm_up_time(Duration::from_millis(500));
    group.measurement_time(Duration::from_secs(2));
    let length = RunLength { functional_warmup: 100_000, timed_warmup: 2_000, measure: 10_000 };
    for engine in [EngineKind::Step, EngineKind::Skip] {
        group.bench_function(format!("lbm_2core_{}", engine.name()), |b| {
            b.iter(|| simulate(engine, WorkloadId::Lbm, 2, length));
        });
    }
    group.finish();
    summarize(length);
}

/// One-shot simulated-cycles/sec comparison on the 8-core systems that
/// dominate suite runtime (skipped under `--test`, where benches are smoke
/// tests).
fn summarize(length: RunLength) {
    if std::env::args().any(|a| a == "--test") {
        return;
    }
    for (workload, cores) in [(WorkloadId::Lbm, 8), (WorkloadId::Copy, 8)] {
        let rate = |engine: EngineKind| {
            let start = Instant::now();
            let cycles = simulate(engine, workload, cores, length);
            cycles as f64 / start.elapsed().as_secs_f64()
        };
        let step = rate(EngineKind::Step);
        let skip = rate(EngineKind::Skip);
        println!(
            "sim_engine/cycles_per_sec: workload={} cores={cores} step={step:.3e} \
             skip={skip:.3e} speedup={:.2}x",
            workload.name(),
            skip / step,
        );
    }
}

criterion_group!(benches, bench);
criterion_main!(benches);

//! The per-layer replay: each workload's first records pass through the
//! workload generator, the private L1/L2 caches, the sliced LLC and the
//! memory controllers, one stage at a time, so every layer's calls are timed
//! on their own. Warm-up traffic runs through the cache stages untimed first,
//! so the timed stages see full caches.

use std::collections::VecDeque;
use std::path::Path;

use bard::cache::{CacheConfig, ReplacementKind, SetAssocCache};
use bard::cpu::{TraceRecord, TraceSource};
use bard::dram::{CompletedRead, MemRequest, MemoryController};
use bard::snapshot::warm_digest;
use bard::trace::{ReplayWorkload, TraceStore};
use bard::workloads::WorkloadId;
use bard::{SlicedLlc, SnapshotStore, SystemConfig, WritePolicyKind};

use crate::grid::Spec;
use crate::host::cpu_seconds;

/// Instructions per core the timed stages replay.
const TIMED_INSTRUCTIONS: u64 = 100_000;
/// Records per core pulled from a generator in one round-robin turn.
const CHUNK: usize = 64;

/// A request leaving one cache level for the next.
#[derive(Clone, Copy)]
enum Op {
    Read(u64),
    Writeback(u64),
}

/// Per-layer work counts and CPU seconds, summed over a spec's workloads.
#[derive(Default)]
pub struct Layers {
    gen_s: f64,
    records: u64,
    replay_s: f64,
    replayed: u64,
    l1_s: f64,
    l1_accesses: u64,
    l2_s: f64,
    l2_accesses: u64,
    l2_hits: u64,
    /// Baseline, then BARD-H.
    llc_s: [f64; 2],
    llc_accesses: u64,
    evictions: u64,
    overrides: u64,
    cleanses: u64,
    dram_s: f64,
    ticks: u64,
    useful_ticks: u64,
    requests: u64,
    capture_s: f64,
    restore_s: f64,
    image_bytes: u64,
}

impl Layers {
    pub fn metrics(&self) -> Vec<(&'static str, f64, &'static str)> {
        let ns = |s: f64, n: u64| s * 1e9 / n.max(1) as f64;
        let frac = |a: u64, b: u64| a as f64 / b.max(1) as f64;
        vec![
            ("workloads.ns_per_record", ns(self.gen_s, self.records), "ns"),
            ("trace.replay_ns_per_record", ns(self.replay_s, self.replayed), "ns"),
            ("cache.l1_ns_per_access", ns(self.l1_s, self.l1_accesses), "ns"),
            ("cache.l2_ns_per_access", ns(self.l2_s, self.l2_accesses), "ns"),
            ("cache.l2_hit_rate", frac(self.l2_hits, self.l2_accesses), "ratio"),
            ("llc.baseline_ns_per_access", ns(self.llc_s[0], self.llc_accesses), "ns"),
            ("llc.bard_h_ns_per_access", ns(self.llc_s[1], self.llc_accesses), "ns"),
            ("llc.bard_h_over_baseline", self.llc_s[1] / self.llc_s[0].max(1e-9), "ratio"),
            ("policy.override_frac", frac(self.overrides, self.evictions), "ratio"),
            ("policy.cleanse_frac", frac(self.cleanses, self.evictions), "ratio"),
            ("dram.ns_per_tick", ns(self.dram_s, self.ticks), "ns"),
            ("dram.ns_per_request", ns(self.dram_s, self.requests), "ns"),
            ("dram.useful_tick_ratio", frac(self.useful_ticks, self.ticks), "ratio"),
            ("snapshot.capture_s", self.capture_s, "s"),
            ("snapshot.restore_s", self.restore_s, "s"),
            ("snapshot.image_kb", self.image_bytes as f64 / 1024.0, "KiB"),
        ]
    }
}

/// Replays every workload of `spec` through the layers, then captures and
/// restores one warm snapshot of the spec's first cell.
///
/// # Panics
///
/// Panics when the trace archive or the snapshot store under `work` fails.
pub fn replay(spec: &Spec, seed: u64, work: &Path) -> Layers {
    let cfg = spec.config(seed);
    let mut out = Layers::default();
    let _ = std::fs::remove_dir_all(work);
    for &workload in spec.workloads {
        replay_workload(&mut out, &cfg, workload, spec.length.functional_warmup, work);
    }
    let store = SnapshotStore::new(work.join("layer-snapshots"));
    let (workload, policy) = spec.cells()[0];
    let cell = cfg.with_policy(policy);
    let fw = spec.length.functional_warmup;
    let t0 = cpu_seconds();
    drop(store.obtain_warm(&cell, workload, fw).expect("warm capture must succeed"));
    let t1 = cpu_seconds();
    drop(store.obtain_warm(&cell, workload, fw).expect("warm restore must succeed"));
    out.restore_s = cpu_seconds() - t1;
    out.capture_s = t1 - t0;
    out.image_bytes =
        std::fs::metadata(store.warm_path(workload, warm_digest(&cell, workload, fw)))
            .expect("the captured image must be on disk")
            .len();
    let _ = std::fs::remove_dir_all(work);
    out
}

/// Pulls one round-robin turn of records from every core whose count is
/// below `instructions`, appending to `out`. Returns false once all are done.
fn generate_turn(
    sources: &mut [Box<dyn TraceSource>],
    done: &mut [u64],
    instructions: u64,
    out: &mut Vec<(usize, TraceRecord)>,
) -> bool {
    let mut any = false;
    for (core, src) in sources.iter_mut().enumerate() {
        for _ in 0..CHUNK {
            if done[core] >= instructions {
                break;
            }
            any = true;
            let record = src.next_record();
            done[core] += record.instructions();
            out.push((core, record));
        }
    }
    any
}

/// The banks of an LLC's most recent write-backs, as many as the write
/// queues hold: the stand-in for the write queues the BARD policies consult.
#[derive(Clone)]
struct WriteWindow {
    /// Write-backs in the window per (channel, bank).
    pending: Vec<u32>,
    recent: VecDeque<usize>,
    capacity: usize,
}

impl WriteWindow {
    fn push(&mut self, bank: usize) {
        self.pending[bank] += 1;
        self.recent.push_back(bank);
        if self.recent.len() > self.capacity {
            let old = self.recent.pop_front().expect("the window is non-empty");
            self.pending[old] -= 1;
        }
    }
}

/// The cache hierarchy and memory controllers of one configuration, with
/// an LLC (and its write window) per compared policy.
struct Hierarchy {
    l1: Vec<SetAssocCache>,
    l2: Vec<SetAssocCache>,
    llc: [SlicedLlc; 2],
    windows: [WriteWindow; 2],
    mcs: Vec<MemoryController>,
    line_mask: u64,
    banks_per_channel: usize,
}

impl Hierarchy {
    fn new(cfg: &SystemConfig) -> Self {
        let cache = |bytes, ways| {
            SetAssocCache::new(CacheConfig::new(bytes, ways, cfg.line_bytes), ReplacementKind::Lru)
        };
        let llc = |policy| {
            SlicedLlc::new(
                cfg.llc_bytes,
                cfg.llc_ways,
                cfg.line_bytes,
                cfg.llc_slices,
                cfg.llc_replacement,
                policy,
                &cfg.dram,
            )
        };
        let banks_per_channel = cfg.dram.banks_per_channel();
        let window = WriteWindow {
            pending: vec![0; banks_per_channel * cfg.dram.channels],
            recent: VecDeque::new(),
            capacity: cfg.dram.write_queue_entries * cfg.dram.channels,
        };
        Self {
            l1: (0..cfg.cores).map(|_| cache(cfg.l1d_bytes, cfg.l1d_ways)).collect(),
            l2: (0..cfg.cores).map(|_| cache(cfg.l2_bytes, cfg.l2_ways)).collect(),
            llc: [llc(WritePolicyKind::Baseline), llc(WritePolicyKind::BardH)],
            windows: std::array::from_fn(|_| window.clone()),
            mcs: (0..cfg.dram.channels).map(|ch| MemoryController::new(&cfg.dram, ch)).collect(),
            line_mask: !(cfg.line_bytes as u64 - 1),
            banks_per_channel,
        }
    }

    /// L1 stage: demand accesses in, per-core L2 requests out. Returns the
    /// number of accesses.
    fn l1_stage(&mut self, records: &[(usize, TraceRecord)], out: &mut Vec<(usize, Op)>) -> u64 {
        let mut accesses = 0;
        for &(core, record) in records {
            let Some(access) = record.access else { continue };
            accesses += 1;
            let l1 = &mut self.l1[core];
            let store = access.is_store();
            if !l1.touch(access.addr, 0, store) {
                let line = access.addr & self.line_mask;
                out.push((core, Op::Read(line)));
                if let Some(evicted) = l1.fill(line, store, 0).evicted {
                    if evicted.dirty {
                        out.push((core, Op::Writeback(evicted.addr)));
                    }
                }
            }
        }
        accesses
    }

    /// L2 stage: L1 misses and write-backs in, LLC requests out. Returns the
    /// number of hits.
    fn l2_stage(&mut self, ops: &[(usize, Op)], out: &mut Vec<Op>) -> u64 {
        let mut hits = 0;
        for &(core, op) in ops {
            let l2 = &mut self.l2[core];
            let (line, dirty) = match op {
                Op::Read(line) if l2.touch(line, 0, false) => {
                    hits += 1;
                    continue;
                }
                Op::Read(line) => {
                    out.push(Op::Read(line));
                    (line, false)
                }
                Op::Writeback(line) if l2.writeback_access(line) => {
                    hits += 1;
                    continue;
                }
                Op::Writeback(line) => (line, true),
            };
            if let Some(evicted) = l2.fill(line, dirty, 0).evicted {
                if evicted.dirty {
                    out.push(Op::Writeback(evicted.addr));
                }
            }
        }
        hits
    }

    /// LLC stage for policy `which` (0 = Baseline, 1 = BARD-H): L2 traffic
    /// in, DRAM requests out.
    fn llc_stage(&mut self, which: usize, ops: &[Op], out: &mut Vec<Op>) {
        let mut writebacks = Vec::new();
        let mcs = &self.mcs;
        let per_channel = self.banks_per_channel;
        let bank = |addr: u64| {
            let channel = mcs[0].mapping().channel_of(addr);
            channel * per_channel + mcs[channel].bank_of(addr)
        };
        let (llc, window) = (&mut self.llc[which], &mut self.windows[which]);
        for &op in ops {
            let pending = &window.pending;
            let mut wrq_has_bank = |addr: u64| pending[bank(addr)] > 0;
            match op {
                Op::Read(line) => {
                    if !llc.read_access(line, 0, &mut writebacks) {
                        out.push(Op::Read(line));
                        llc.fill(line, 0, false, &mut writebacks, &mut wrq_has_bank);
                    }
                }
                Op::Writeback(line) => {
                    llc.writeback_from_inner(line, &mut writebacks, &mut wrq_has_bank);
                }
            }
            for addr in writebacks.drain(..) {
                window.push(bank(addr));
                out.push(Op::Writeback(addr));
            }
        }
    }

    /// DRAM stage: requests arrive as fast as the controllers accept them,
    /// and every controller ticks every cycle until all reads have returned.
    /// Returns (ticks, ticks that changed state, requests).
    fn dram_stage(&mut self, ops: &[Op]) -> (u64, u64, u64) {
        let mut now = 0u64;
        let mut next = 0usize;
        let mut inflight = 0usize;
        let mut done: Vec<CompletedRead> = Vec::new();
        let (mut ticks, mut useful) = (0u64, 0u64);
        let limit = 1_000 * ops.len() as u64 + 1_000_000;
        while (next < ops.len() || inflight > 0) && now < limit {
            while let Some(&op) = ops.get(next) {
                let req = match op {
                    Op::Read(addr) => MemRequest::read(next as u64, addr, 0),
                    Op::Writeback(addr) => MemRequest::write(next as u64, addr, 0),
                };
                let channel = self.mcs[0].mapping().channel_of(req.addr);
                if self.mcs[channel].try_enqueue(req, now).is_err() {
                    break;
                }
                inflight += usize::from(!req.is_write());
                next += 1;
            }
            for mc in &mut self.mcs {
                ticks += 1;
                useful += u64::from(mc.tick(now));
                mc.drain_completed(now, &mut done);
            }
            inflight -= done.len();
            done.clear();
            now += 1;
        }
        (ticks, useful, next as u64)
    }
}

fn replay_workload(
    out: &mut Layers,
    cfg: &SystemConfig,
    workload: WorkloadId,
    warmup: u64,
    work: &Path,
) {
    let per_core = workload.per_core_workloads(cfg.cores);
    let mut sources: Vec<Box<dyn TraceSource>> =
        per_core.iter().enumerate().map(|(core, w)| w.build(core, cfg.seed)).collect();
    let mut h = Hierarchy::new(cfg);

    // Untimed warm-up through the cache levels, one turn at a time.
    let mut done = vec![0u64; cfg.cores];
    let (mut records, mut l2_ops, mut llc_ops, mut mem_ops) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    while generate_turn(&mut sources, &mut done, warmup, &mut records) {
        h.l1_stage(&records, &mut l2_ops);
        h.l2_stage(&l2_ops, &mut llc_ops);
        for which in 0..2 {
            h.llc_stage(which, &llc_ops, &mut mem_ops);
            mem_ops.clear();
        }
        records.clear();
        l2_ops.clear();
        llc_ops.clear();
    }
    let before = h.llc[1].policy_stats();

    // Timed stages, each over the whole output of the one before.
    let t0 = cpu_seconds();
    let mut done = vec![0u64; cfg.cores];
    while generate_turn(&mut sources, &mut done, TIMED_INSTRUCTIONS, &mut records) {}
    out.gen_s += cpu_seconds() - t0;
    out.records += records.len() as u64;

    let t0 = cpu_seconds();
    out.l1_accesses += h.l1_stage(&records, &mut l2_ops);
    out.l1_s += cpu_seconds() - t0;

    let t0 = cpu_seconds();
    out.l2_hits += h.l2_stage(&l2_ops, &mut llc_ops);
    out.l2_s += cpu_seconds() - t0;
    out.l2_accesses += l2_ops.len() as u64;

    for which in 0..2 {
        mem_ops.clear();
        let t0 = cpu_seconds();
        h.llc_stage(which, &llc_ops, &mut mem_ops);
        out.llc_s[which] += cpu_seconds() - t0;
    }
    out.llc_accesses += llc_ops.len() as u64;
    let after = h.llc[1].policy_stats();
    out.evictions += after.evictions - before.evictions;
    out.overrides += after.overrides - before.overrides;
    out.cleanses += after.cleanses - before.cleanses;

    // BARD-H's DRAM traffic.
    let t0 = cpu_seconds();
    let (ticks, useful, requests) = h.dram_stage(&mem_ops);
    out.dram_s += cpu_seconds() - t0;
    out.ticks += ticks;
    out.useful_ticks += useful;
    out.requests += requests;

    // Trace replay: archive core 0's records, then decode and read them back.
    let store = TraceStore::new(work.join("layer-traces"));
    let mut live = per_core[0].build(0, cfg.seed);
    store.record(live.as_mut(), 0, cfg.seed, TIMED_INSTRUCTIONS).expect("trace capture failed");
    let path = store.path_for(live.name(), 0, cfg.seed, TIMED_INSTRUCTIONS);
    let t0 = cpu_seconds();
    let mut replay = ReplayWorkload::open(&path).expect("the archived trace must decode");
    let n = replay.len();
    for _ in 0..n {
        std::hint::black_box(replay.next_record());
    }
    out.replay_s += cpu_seconds() - t0;
    out.replayed += n as u64;
}

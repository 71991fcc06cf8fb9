//! Full-system configuration (Table II of the paper).

use std::path::PathBuf;

use bard_cache::{ReplacementKind, MAX_WAYS};
use bard_cpu::CoreConfig;
use bard_dram::DramConfig;

use crate::experiment::RunLength;
use crate::policy::WritePolicyKind;

/// Where a run's traces live and how many instructions per core each
/// archived trace must hold (see `bard-trace`'s `TraceStore`).
///
/// When a [`SystemConfig`] carries a `TraceConfig`, `System::new` obtains
/// every core's trace from the store instead of wiring the generator in
/// directly: an archived BTF file is replayed, a missing one is captured
/// from the live generator first (record-if-missing / replay-if-present).
/// Replay is bitwise-equivalent to live generation, so flipping this field
/// never changes a result — it only changes where the records come from.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceConfig {
    /// Directory of the BTF trace archive (the `--trace-dir=DIR` flag).
    pub dir: PathBuf,
    /// Instruction budget per core each archived trace must cover.
    pub instructions_per_core: u64,
}

impl TraceConfig {
    /// A trace configuration with an explicit instruction budget.
    #[must_use]
    pub fn new(dir: impl Into<PathBuf>, instructions_per_core: u64) -> Self {
        Self { dir: dir.into(), instructions_per_core }
    }

    /// Ratio between the instructions a core may *consume* during the timed
    /// phases and the per-core instruction target of those phases.
    ///
    /// A timed stage of `System::run` stops only when the **slowest** core
    /// reaches its target; faster cores keep executing (their traffic is
    /// part of the simulated contention) and keep consuming trace records
    /// the whole time. In rate mode the skew is small (identical workloads,
    /// per-core seeds), but a Table III mix pairs compute-leaning
    /// constituents against saturated lbm-style cores whose IPC is an order
    /// of magnitude lower, so a fast core can retire several times its
    /// target before the phase ends. The spread bounds that ratio: observed
    /// worst cases across the tab07 shapes are under 4x, and 16x leaves
    /// generous margin while keeping archives small (the factor applies to
    /// the timed phases only — the functional warm-up consumes exactly its
    /// budget on every core).
    pub const CONSUMPTION_SPREAD: u64 = 16;

    /// The budget every caller deriving traces from a [`RunLength`] uses:
    /// the functional warm-up (consumed exactly), the timed phases scaled by
    /// [`TraceConfig::CONSUMPTION_SPREAD`] (fast cores in rate/mix runs keep
    /// consuming until the slowest core finishes), plus 64 Ki of slack for
    /// the bounded fetch-ahead (512-entry ROB, per-cycle staging limits). A
    /// recorded trace therefore outlasts any common simulation of the same
    /// run length and replays purely from the archive. Should a pathological
    /// run consume even more (the cycle guard admits up to
    /// [`STARVATION_GUARD_CYCLES_PER_INSTRUCTION`](crate::system::STARVATION_GUARD_CYCLES_PER_INSTRUCTION)
    /// cycles' worth per instruction), the simulator's replay continues from
    /// the fast-forwarded live generator — bitwise-identical by construction,
    /// never wrong, never a panic (see `ReplayWorkload::with_live_fallback`).
    #[must_use]
    pub fn budget_for(length: RunLength) -> u64 {
        length
            .functional_warmup
            .saturating_add(
                (length.timed_warmup + length.measure).saturating_mul(Self::CONSUMPTION_SPREAD),
            )
            .saturating_add(65_536)
    }

    /// A trace configuration whose budget covers runs of `length` (the form
    /// the `--trace-dir=DIR` flag constructs).
    #[must_use]
    pub fn for_run_length(dir: impl Into<PathBuf>, length: RunLength) -> Self {
        Self::new(dir, Self::budget_for(length))
    }
}

/// How [`crate::System`] advances simulated time.
///
/// Both engines run the *same* per-cycle model and produce bitwise-identical
/// results (the `parity` suite pins this); the skip engine is the
/// default because it is strictly faster. The reference engine exists so
/// parity stays testable forever. Selectable per run via the `--engine=` CLI
/// flag.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum EngineKind {
    /// Reference engine: one CPU cycle per step, no skipping.
    Step,
    /// Exact next-event engine (default): detects cycles on which no core,
    /// cache, queue or DRAM state can change, computes the global event
    /// horizon (minimum over the event ring, every sub-channel's wake cycle,
    /// and pending read-completion deliveries) and jumps there in one step,
    /// bulk-accounting all per-cycle statistics over the skipped span.
    #[default]
    Skip,
}

impl EngineKind {
    /// Parses an engine name (`step` or `skip`).
    ///
    /// # Errors
    ///
    /// Returns the unrecognised name.
    pub fn from_name(name: &str) -> Result<Self, String> {
        match name {
            "step" => Ok(Self::Step),
            "skip" => Ok(Self::Skip),
            other => Err(other.to_string()),
        }
    }

    /// The engine's CLI/report name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Self::Step => "step",
            Self::Skip => "skip",
        }
    }
}

/// Configuration of the simulated system: cores, cache hierarchy, LLC
/// writeback policy and DRAM.
#[derive(Debug, Clone, PartialEq)]
pub struct SystemConfig {
    /// Number of cores.
    pub cores: usize,
    /// Per-core parameters (ROB, widths, store buffer).
    pub core: CoreConfig,
    /// L1 data cache size in bytes (Table II: 48 KiB).
    pub l1d_bytes: usize,
    /// L1 data cache associativity (12).
    pub l1d_ways: usize,
    /// L2 size in bytes (512 KiB).
    pub l2_bytes: usize,
    /// L2 associativity (8).
    pub l2_ways: usize,
    /// Shared LLC size in bytes (16 MiB for 8 cores).
    pub llc_bytes: usize,
    /// LLC associativity (16).
    pub llc_ways: usize,
    /// Number of LLC slices.
    pub llc_slices: usize,
    /// Cache line size in bytes (64).
    pub line_bytes: usize,
    /// LLC replacement policy (LRU baseline; SRRIP / SHiP for Figure 15).
    pub llc_replacement: ReplacementKind,
    /// LLC writeback policy (baseline, BARD-E/C/H, EW, VWQ).
    pub write_policy: WritePolicyKind,
    /// DRAM configuration (Table I / Table II).
    pub dram: DramConfig,
    /// L1 hit latency in CPU cycles.
    pub l1_latency: u64,
    /// L2 hit latency (cumulative from the core) in CPU cycles.
    pub l2_latency: u64,
    /// LLC hit latency (cumulative from the core) in CPU cycles.
    pub llc_latency: u64,
    /// IP-stride prefetch degree at L1D (0 disables the prefetcher).
    pub l1_prefetch_degree: usize,
    /// Next-line prefetch degree at L2 (0 disables the prefetcher).
    pub l2_prefetch_degree: usize,
    /// Maximum outstanding DRAM reads tracked by the LLC MSHRs.
    pub llc_mshrs: usize,
    /// Maximum write-backs buffered between the LLC and the DRAM write
    /// queues before fills are back-pressured.
    pub writeback_buffer_entries: usize,
    /// Seed for the workload generators.
    pub seed: u64,
    /// Trace archive to replay from / record into (`None` = generate live).
    pub trace: Option<TraceConfig>,
    /// Simulation engine (never affects results, only wall clock; see
    /// [`EngineKind`]).
    pub engine: EngineKind,
}

impl SystemConfig {
    /// The 8-core baseline of Table II.
    #[must_use]
    pub fn baseline_8core() -> Self {
        Self {
            cores: 8,
            core: CoreConfig::baseline(),
            l1d_bytes: 48 * 1024,
            l1d_ways: 12,
            l2_bytes: 512 * 1024,
            l2_ways: 8,
            llc_bytes: 16 * 1024 * 1024,
            llc_ways: 16,
            llc_slices: 8,
            line_bytes: 64,
            llc_replacement: ReplacementKind::Lru,
            write_policy: WritePolicyKind::Baseline,
            dram: DramConfig::ddr5_4800_x4(),
            l1_latency: 4,
            l2_latency: 16,
            llc_latency: 48,
            l1_prefetch_degree: 2,
            l2_prefetch_degree: 0,
            llc_mshrs: 128,
            writeback_buffer_entries: 32,
            seed: 0x1BAD_B002,
            trace: None,
            engine: EngineKind::default(),
        }
    }

    /// The 16-core configuration of Section VII-F: 32 MiB LLC, two DDR5
    /// channels.
    #[must_use]
    pub fn baseline_16core() -> Self {
        let mut cfg = Self::baseline_8core();
        cfg.cores = 16;
        cfg.llc_bytes = 32 * 1024 * 1024;
        cfg.llc_slices = 16;
        cfg.dram.channels = 2;
        cfg
    }

    /// A reduced configuration for fast unit and integration tests: 2 cores,
    /// small caches, no prefetching. The DRAM organisation is unchanged so
    /// bank-parallelism behaviour is still representative.
    #[must_use]
    pub fn small_test() -> Self {
        let mut cfg = Self::baseline_8core();
        cfg.cores = 2;
        cfg.l1d_bytes = 16 * 1024;
        cfg.l1d_ways = 8;
        cfg.l2_bytes = 64 * 1024;
        cfg.l2_ways = 8;
        cfg.llc_bytes = 512 * 1024;
        cfg.llc_ways = 16;
        cfg.llc_slices = 2;
        cfg.l1_prefetch_degree = 0;
        cfg.l2_prefetch_degree = 0;
        cfg
    }

    /// Returns a copy with a different LLC writeback policy.
    #[must_use]
    pub fn with_policy(mut self, policy: WritePolicyKind) -> Self {
        self.write_policy = policy;
        self
    }

    /// Returns a copy with a different LLC replacement policy.
    #[must_use]
    pub fn with_replacement(mut self, replacement: ReplacementKind) -> Self {
        self.llc_replacement = replacement;
        self
    }

    /// Returns a copy with a different workload-generator seed.
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Returns a copy that records/replays traces through `trace`
    /// (`None` reverts to live generation).
    #[must_use]
    pub fn with_trace(mut self, trace: Option<TraceConfig>) -> Self {
        self.trace = trace;
        self
    }

    /// Returns a copy simulated by `engine` (results are engine-invariant;
    /// only wall clock changes).
    #[must_use]
    pub fn with_engine(mut self, engine: EngineKind) -> Self {
        self.engine = engine;
        self
    }

    /// A short label describing the policy/replacement combination, used in
    /// reports ("bard-h/LRU", "baseline/SRRIP", ...).
    #[must_use]
    pub fn label(&self) -> String {
        format!("{}/{}", self.write_policy.label(), self.llc_replacement.name())
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns a description of the first invalid field.
    pub fn validate(&self) -> Result<(), String> {
        if self.cores == 0 {
            return Err("at least one core is required".into());
        }
        if self.cores > 64 {
            return Err(format!(
                "cores = {} exceeds the 64-core cap (the per-core wake masks are u64 bitmaps; \
                 see the known-limits section of docs/ARCHITECTURE.md)",
                self.cores
            ));
        }
        for (field, ways) in
            [("l1d_ways", self.l1d_ways), ("l2_ways", self.l2_ways), ("llc_ways", self.llc_ways)]
        {
            if !(1..=MAX_WAYS).contains(&ways) {
                return Err(format!(
                    "{field} = {ways} is outside 1..={MAX_WAYS} (a cache set word holds one bit \
                     per way; see the known-limits section of docs/ARCHITECTURE.md)"
                ));
            }
        }
        if !self.llc_slices.is_power_of_two() {
            return Err("LLC slice count must be a power of two".into());
        }
        if !self.line_bytes.is_power_of_two() {
            return Err(format!("line_bytes = {} is not a power of two", self.line_bytes));
        }
        if self.line_bytes != self.dram.line_bytes {
            return Err(format!(
                "line_bytes = {} differs from dram.line_bytes = {}; the caches and the DRAM \
                 address mapping must agree on the line size",
                self.line_bytes, self.dram.line_bytes
            ));
        }
        if !self.llc_bytes.is_multiple_of(self.llc_slices) {
            return Err(format!(
                "llc_bytes = {} does not divide evenly across llc_slices = {}",
                self.llc_bytes, self.llc_slices
            ));
        }
        for (bytes_field, bytes, ways_field, ways) in [
            ("l1d_bytes", self.l1d_bytes, "l1d_ways", self.l1d_ways),
            ("l2_bytes", self.l2_bytes, "l2_ways", self.l2_ways),
            ("llc_bytes / llc_slices", self.llc_bytes / self.llc_slices, "llc_ways", self.llc_ways),
        ] {
            // `CacheConfig::new`'s set count, which it requires to be a power of two.
            let sets = bytes / (ways * self.line_bytes);
            if !sets.is_power_of_two() {
                return Err(format!(
                    "{bytes_field} = {bytes} with {ways_field} = {ways} and line_bytes = {} gives \
                     {sets} sets; a cache needs a power-of-two number of sets",
                    self.line_bytes
                ));
            }
        }
        if self.l1_latency >= self.l2_latency || self.l2_latency >= self.llc_latency {
            return Err("cache latencies must increase with level".into());
        }
        if self.llc_mshrs == 0 || self.writeback_buffer_entries == 0 {
            return Err("MSHRs and writeback buffer must be non-empty".into());
        }
        if let Some(trace) = &self.trace {
            if trace.instructions_per_core == 0 {
                return Err("trace instruction budget must be non-zero".into());
            }
        }
        self.dram.validate()
    }
}

impl Default for SystemConfig {
    fn default() -> Self {
        Self::baseline_8core()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn baseline_matches_table2() {
        let c = SystemConfig::baseline_8core();
        assert_eq!(c.cores, 8);
        assert_eq!(c.core.rob_entries, 512);
        assert_eq!(c.l1d_bytes, 48 * 1024);
        assert_eq!(c.l1d_ways, 12);
        assert_eq!(c.l2_bytes, 512 * 1024);
        assert_eq!(c.llc_bytes, 16 * 1024 * 1024);
        assert_eq!(c.llc_ways, 16);
        assert_eq!(c.dram.channels, 1);
        assert!(c.validate().is_ok());
    }

    #[test]
    fn sixteen_core_scales_llc_and_channels() {
        let c = SystemConfig::baseline_16core();
        assert_eq!(c.cores, 16);
        assert_eq!(c.llc_bytes, 32 * 1024 * 1024);
        assert_eq!(c.dram.channels, 2);
        assert!(c.validate().is_ok());
    }

    #[test]
    fn builders_compose() {
        let c = SystemConfig::baseline_8core()
            .with_policy(WritePolicyKind::BardH)
            .with_replacement(ReplacementKind::Srrip);
        assert_eq!(c.write_policy, WritePolicyKind::BardH);
        assert_eq!(c.llc_replacement, ReplacementKind::Srrip);
        assert_eq!(c.label(), "bard-h/SRRIP");
    }

    #[test]
    fn validate_rejects_inverted_latencies() {
        let mut c = SystemConfig::baseline_8core();
        c.l2_latency = 2;
        assert!(c.validate().is_err());
        let mut c = SystemConfig::baseline_8core();
        c.cores = 0;
        assert!(c.validate().is_err());
    }

    /// Validation names the associativity field it rejects.
    fn assert_ways_rejected(field: &str, set: fn(&mut SystemConfig, usize)) {
        for ways in [0, 17] {
            let mut c = SystemConfig::baseline_8core();
            set(&mut c, ways);
            let err = c.validate().expect_err("associativity outside 1..=16");
            assert!(err.starts_with(&format!("{field} = {ways} is outside 1..=16")), "{err}");
        }
    }

    #[test]
    fn validate_bounds_l1d_ways() {
        assert_ways_rejected("l1d_ways", |c, ways| c.l1d_ways = ways);
    }

    #[test]
    fn validate_bounds_l2_ways() {
        assert_ways_rejected("l2_ways", |c, ways| c.l2_ways = ways);
    }

    #[test]
    fn validate_bounds_llc_ways() {
        assert_ways_rejected("llc_ways", |c, ways| c.llc_ways = ways);
    }

    #[test]
    fn small_test_config_is_valid() {
        assert!(SystemConfig::small_test().validate().is_ok());
    }

    /// `validate` rejects, naming the fields, what `CacheConfig::new` or
    /// `SlicedLlc::new` would panic on.
    #[test]
    fn validate_checks_cache_geometry() {
        let rejected = |set: fn(&mut SystemConfig)| {
            let mut c = SystemConfig::baseline_8core();
            set(&mut c);
            c.validate().expect_err("geometry must be rejected")
        };
        // 48 KiB / (16 ways x 64 B) = 48 sets.
        let err = rejected(|c| c.l1d_ways = 16);
        assert!(err.starts_with("l1d_bytes = 49152 with l1d_ways = 16"), "{err}");
        assert!(err.contains("gives 48 sets"), "{err}");
        let err = rejected(|c| c.l2_bytes = 0);
        assert!(
            err.starts_with("l2_bytes = 0 with l2_ways = 8") && err.contains("0 sets"),
            "{err}"
        );
        let err = rejected(|c| c.llc_bytes = 12 * 1024 * 1024);
        assert!(err.starts_with("llc_bytes / llc_slices = 1572864 with llc_ways = 16"), "{err}");
        let err = rejected(|c| c.line_bytes = 48);
        assert_eq!(err, "line_bytes = 48 is not a power of two");
        let err = rejected(|c| c.line_bytes = 0);
        assert_eq!(err, "line_bytes = 0 is not a power of two");
        let err = rejected(|c| c.llc_bytes = 16 * 1024 * 1024 + 4);
        assert_eq!(err, "llc_bytes = 16777220 does not divide evenly across llc_slices = 8");
        // Each of these built a system that panicked or mapped lines wrongly.
        let err = rejected(|c| c.dram.line_bytes = 128);
        assert!(err.starts_with("line_bytes = 64 differs from dram.line_bytes = 128"), "{err}");
        let err = rejected(|c| c.dram.channels = 3);
        assert_eq!(err, "channels = 3 is not a power of two");
        let err = rejected(|c| c.dram.subchannels_per_channel = 3);
        assert_eq!(err, "subchannels_per_channel = 3 is not a power of two");
        let err = rejected(|c| c.dram.subchannels_per_channel = 4);
        assert!(err.starts_with("subchannels_per_channel = 4 with bankgroups = 8"), "{err}");
    }

    /// Every preset validates, and a configuration that validates builds.
    #[test]
    fn every_preset_validates_and_builds() {
        for config in [
            SystemConfig::baseline_8core(),
            SystemConfig::baseline_16core(),
            SystemConfig::small_test(),
        ] {
            config.validate().expect("preset validates");
            let cores = config.cores;
            let system = crate::System::new(config, bard_workloads::WorkloadId::Lbm);
            assert_eq!(system.config().cores, cores);
        }
    }

    #[test]
    fn seed_is_pinned_to_the_golden_traces() {
        // bard-trace's workload_golden test hardcodes this value; changing
        // the default seed invalidates every archived trace and the golden
        // file, so do both together.
        assert_eq!(SystemConfig::baseline_8core().seed, 0x1BAD_B002);
    }

    #[test]
    fn trace_budget_outlasts_the_run() {
        let length = RunLength::test();
        let total = length.functional_warmup + length.timed_warmup + length.measure;
        let budget = TraceConfig::budget_for(length);
        assert!(budget > total + 65_535, "budget {budget} must exceed the run plus slack");
        let tc = TraceConfig::for_run_length("/tmp/traces", length);
        assert_eq!(tc.dir, std::path::Path::new("/tmp/traces"));
        assert_eq!(tc.instructions_per_core, budget);
    }

    /// Regression shape for the rate/mix undercount: the timed phases (the
    /// part fast cores overrun while the slowest core finishes) are scaled
    /// by the consumption spread; the functional warm-up (consumed exactly)
    /// is not. Observed tab07-shaped overruns are under 4x, so the 16x
    /// spread keeps real archives replay-only with margin.
    #[test]
    fn trace_budget_scales_the_timed_phases_by_the_consumption_spread() {
        let length = RunLength::test();
        let budget = TraceConfig::budget_for(length);
        let timed = length.timed_warmup + length.measure;
        assert_eq!(
            budget,
            length.functional_warmup + timed * TraceConfig::CONSUMPTION_SPREAD + 65_536
        );
        assert!(budget >= length.functional_warmup + timed * 4, "spread must cover observed 4x");
    }

    #[test]
    fn seed_and_trace_builders_compose() {
        let c = SystemConfig::small_test()
            .with_seed(99)
            .with_trace(Some(TraceConfig::new("/tmp/t", 1000)));
        assert_eq!(c.seed, 99);
        assert_eq!(c.trace.as_ref().unwrap().instructions_per_core, 1000);
        assert!(c.validate().is_ok());
        assert!(c.with_trace(None).trace.is_none());
    }

    #[test]
    fn engine_defaults_to_skip_and_parses_names() {
        assert_eq!(SystemConfig::baseline_8core().engine, EngineKind::Skip);
        assert_eq!(EngineKind::from_name("step"), Ok(EngineKind::Step));
        assert_eq!(EngineKind::from_name("skip"), Ok(EngineKind::Skip));
        assert!(EngineKind::from_name("warp").is_err());
        assert_eq!(EngineKind::Step.name(), "step");
        let c = SystemConfig::small_test().with_engine(EngineKind::Step);
        assert_eq!(c.engine, EngineKind::Step);
        assert!(c.validate().is_ok());
        // The engine never leaks into report labels: artifacts must be
        // byte-identical across engines.
        assert_eq!(c.label(), c.with_engine(EngineKind::Skip).label());
    }

    #[test]
    fn core_cap_error_names_the_offending_field() {
        let mut c = SystemConfig::baseline_8core();
        c.cores = 65;
        let err = c.validate().unwrap_err();
        assert!(err.contains("cores = 65"), "error must report the offending value: {err}");
        assert!(err.contains("64-core cap"), "error must name the limit: {err}");
    }

    #[test]
    fn zero_trace_budget_is_rejected() {
        let c = SystemConfig::small_test().with_trace(Some(TraceConfig::new("/tmp/t", 0)));
        assert!(c.validate().unwrap_err().contains("trace instruction budget"));
    }
}

//! The figure/table experiment registry.
//!
//! Every experiment binary in `src/bin/` is a thin wrapper around one entry
//! of [`ALL`]: the binary calls [`run_main`], which parses the shared
//! [`Cli`], executes the experiment's `run` function to build an
//! [`Artifact`], streams the historical text output (byte-identical to the
//! pre-artifact pipeline), and writes JSON/CSV artifacts when `--out=DIR` is
//! given. The `repro` orchestrator drives the same registry end-to-end via
//! [`Experiment::run_to_artifact`], so a single process reproduces the whole
//! evaluation.

use bard::experiment::Comparison;
use bard::report::{characterisation_row, Artifact, Table};
use bard::{geomean, RunResult, SystemConfig, WritePolicyKind};
use bard_cache::ReplacementKind;
use bard_dram::timing::{cpu_cycles_to_ns, dram_cycles_to_ns, TimingParams};
use bard_dram::DramConfig;

use crate::harness::{mean_of, write_artifact_files, Cli, OutputFormat};

/// One reproducible figure/table experiment.
#[derive(Debug, Clone, Copy)]
pub struct Experiment {
    /// Short id used by `--only=`, artifact file stems and binary prefixes.
    pub id: &'static str,
    /// Paper-style display name ("Figure 10", "Table VI", ...).
    pub display: &'static str,
    /// One-line experiment title.
    pub title: &'static str,
    /// Paper section the result reproduces.
    pub section: &'static str,
    /// Name of the dedicated binary (`cargo run --release --bin <bin>`).
    pub bin: &'static str,
    /// Whether the experiment prints the standard header block.
    pub banner: bool,
    /// Builds the experiment's results into the artifact.
    pub run: fn(&Cli, &mut Artifact),
}

impl Experiment {
    /// Runs the experiment and returns the finished artifact without
    /// printing anything (the `repro` orchestrator's entry point).
    #[must_use]
    pub fn run_to_artifact(&self, cli: &Cli) -> Artifact {
        self.build(cli, |_| {})
    }

    /// The one place an artifact is assembled: header section, experiment
    /// body, wall-clock stamp. `on_banner` fires right after the banner is
    /// appended (before any simulation) so `run_main` can stream it.
    fn build(&self, cli: &Cli, on_banner: impl FnOnce(&Artifact)) -> Artifact {
        let mut artifact = Artifact::new(self.id, self.display, self.title, cli.provenance());
        if self.banner {
            artifact.banner();
            on_banner(&artifact);
        }
        (self.run)(cli, &mut artifact);
        artifact.finish();
        artifact
    }
}

/// Every experiment of the evaluation, in id order.
pub const ALL: &[Experiment] = &[
    Experiment {
        id: "fig02",
        display: "Figure 2",
        title: "Time spent writing to DRAM: baseline vs ideal",
        section: "§II-B (motivation)",
        bin: "fig02_time_writing",
        banner: true,
        run: fig02,
    },
    Experiment {
        id: "fig03",
        display: "Figure 3",
        title: "Baseline write bank-level parallelism",
        section: "§II-C (motivation)",
        bin: "fig03_write_blp",
        banner: true,
        run: fig03,
    },
    Experiment {
        id: "fig10",
        display: "Figure 10",
        title: "BARD-E / BARD-C / BARD-H speedups and decision breakdown",
        section: "§VII-B (main result)",
        bin: "fig10_bard_variants",
        banner: true,
        run: fig10,
    },
    Experiment {
        id: "fig11",
        display: "Figure 11",
        title: "BARD vs Eager Writeback vs Virtual Write Queue",
        section: "§VII-C (prior work)",
        bin: "fig11_prior_work",
        banner: true,
        run: fig11,
    },
    Experiment {
        id: "fig14",
        display: "Figure 14",
        title: "Write BLP and time spent writing: baseline vs BARD vs ideal",
        section: "§VII-E (where the speedup comes from)",
        bin: "fig14_blp_and_w",
        banner: true,
        run: fig14,
    },
    Experiment {
        id: "fig15",
        display: "Figure 15",
        title: "BARD under LRU / SRRIP / SHiP replacement",
        section: "§VII-F (replacement sensitivity)",
        bin: "fig15_replacement",
        banner: true,
        run: fig15,
    },
    Experiment {
        id: "fig17",
        display: "Figure 17",
        title: "Write-queue capacity sweep",
        section: "§VII-G (write-queue sensitivity)",
        bin: "fig17_wq_sweep",
        banner: true,
        run: fig17,
    },
    Experiment {
        id: "sec7i",
        display: "Section VII-I",
        title: "BLP-Tracker decision accuracy",
        section: "§VII-I (tracker accuracy)",
        bin: "sec7i_tracker_accuracy",
        banner: true,
        run: sec7i,
    },
    Experiment {
        id: "tab01",
        display: "Table I",
        title: "DDR5-4800 x4 timing constraints",
        section: "§II-A (DRAM background)",
        bin: "tab01_timings",
        banner: false,
        run: tab01,
    },
    Experiment {
        id: "tab04",
        display: "Table IV",
        title: "Workload characteristics (baseline)",
        section: "§VI (methodology)",
        bin: "tab04_workload_characteristics",
        banner: true,
        run: tab04,
    },
    Experiment {
        id: "tab05",
        display: "Table V",
        title: "Write-to-write delay",
        section: "§VII-E (write latency)",
        bin: "tab05_w2w_delay",
        banner: true,
        run: tab05,
    },
    Experiment {
        id: "tab06",
        display: "Table VI",
        title: "Relative performance with x4 and x8 devices",
        section: "§VII-D (device width)",
        bin: "tab06_x4_x8",
        banner: true,
        run: tab06,
    },
    Experiment {
        id: "tab07",
        display: "Table VII",
        title: "BARD speedup on 8- and 16-core systems",
        section: "§VII-F (core-count scaling)",
        bin: "tab07_core_count",
        banner: true,
        run: tab07,
    },
    Experiment {
        id: "tab08",
        display: "Table VIII",
        title: "BARD bandwidth overheads (128-core extrapolation)",
        section: "§VII-H (bandwidth overheads)",
        bin: "tab08_bandwidth",
        banner: true,
        run: tab08,
    },
    Experiment {
        id: "tab09",
        display: "Table IX",
        title: "DRAM power, energy and EDP normalised to baseline",
        section: "§VII-J (power and energy)",
        bin: "tab09_power",
        banner: true,
        run: tab09,
    },
    Experiment {
        id: "tab10",
        display: "Table X",
        title: "Misses and write-backs relative to baseline",
        section: "§VII-K (cache side effects)",
        bin: "tab10_mpki_wpki",
        banner: true,
        run: tab10,
    },
];

/// Looks an experiment up by id ("fig10") or binary name
/// ("fig10_bard_variants").
#[must_use]
pub fn find(id: &str) -> Option<&'static Experiment> {
    ALL.iter().find(|e| e.id == id || e.bin == id)
}

/// The shared `main` of every experiment binary: parses the CLI, runs the
/// experiment, prints the selected stdout format (streaming the header
/// before the simulations in text mode, as the binaries always have), and
/// writes artifact files when `--out=DIR` is given.
///
/// # Panics
///
/// Panics if `id` is not a registered experiment or the artifact files
/// cannot be written.
pub fn run_main(id: &str) {
    let experiment = find(id).unwrap_or_else(|| panic!("unknown experiment '{id}'"));
    let cli = Cli::parse();
    let stream_banner = experiment.banner && cli.format == OutputFormat::Text;
    let artifact = experiment.build(&cli, |a| {
        if stream_banner {
            print!("{}", a.banner_text());
        }
    });
    match cli.format {
        OutputFormat::Text => {
            let body =
                if stream_banner { artifact.render_text_body() } else { artifact.render_text() };
            print!("{body}");
        }
        OutputFormat::Json => println!("{}", artifact.to_json().render()),
        OutputFormat::Csv => print!("{}", artifact.to_csv()),
    }
    if let Some(dir) = &cli.out {
        write_artifact_files(dir, &artifact)
            .unwrap_or_else(|e| panic!("cannot write artifacts to {}: {e}", dir.display()));
        if bard::telemetry::enabled() {
            bard::telemetry::write_files(dir)
                .unwrap_or_else(|e| panic!("cannot write telemetry to {}: {e}", dir.display()));
        }
    }
}

fn fig02(cli: &Cli, a: &mut Artifact) {
    let ideal_cfg = {
        let mut c = cli.config.clone();
        c.dram = c.dram.clone().ideal();
        c
    };
    let mut grid = cli.run_grid(&[cli.config.clone(), ideal_cfg]);
    let ideal = grid.pop().expect("ideal results");
    let base = grid.pop().expect("baseline results");
    let mut table = Table::new(vec!["workload", "baseline W%", "ideal W%"]);
    for (b, i) in base.iter().zip(&ideal) {
        table.push_row(vec![
            b.workload.name().to_string(),
            format!("{:.1}", b.write_time_fraction() * 100.0),
            format!("{:.1}", i.write_time_fraction() * 100.0),
        ]);
    }
    table.push_row(vec![
        "mean".to_string(),
        format!("{:.1}", mean_of(&base, RunResult::write_time_fraction) * 100.0),
        format!("{:.1}", mean_of(&ideal, RunResult::write_time_fraction) * 100.0),
    ]);
    a.table("main", table);
    a.note("Paper reference: baseline mean 33.0%, ideal mean 24.1%.");
    a.records_from(&base);
    a.records_labeled("ideal-write", &ideal);
}

fn fig03(cli: &Cli, a: &mut Artifact) {
    let base = cli.run(&cli.config);
    let mut table = Table::new(vec!["workload", "write BLP (of 32)"]);
    for r in &base {
        table.push_row(vec![r.workload.name().to_string(), format!("{:.1}", r.write_blp())]);
    }
    table
        .push_row(vec!["mean".to_string(), format!("{:.1}", mean_of(&base, RunResult::write_blp))]);
    a.table("main", table);
    a.note("Paper reference: mean write BLP of 22.1 out of 32 banks.");
    a.records_from(&base);
}

fn fig10(cli: &Cli, a: &mut Artifact) {
    let policies = [WritePolicyKind::BardE, WritePolicyKind::BardC, WritePolicyKind::BardH];
    let variants: Vec<_> = policies.iter().map(|&p| cli.config.clone().with_policy(p)).collect();
    // One parallel grid: the baseline is simulated once, not once per policy.
    let comparisons = cli.compare(&cli.config, &variants);

    let mut table = Table::new(vec![
        "workload",
        "BARD-E %",
        "BARD-C %",
        "BARD-H %",
        "LRU evict %",
        "override %",
        "cleanse %",
    ]);
    let speedups: Vec<_> = comparisons.iter().map(Comparison::speedups_percent).collect();
    let bard_h = &comparisons[2];
    for (wi, &w) in cli.workloads.iter().enumerate() {
        let mut row = vec![w.name().to_string()];
        for per_policy in &speedups {
            row.push(format!("{:+.2}", per_policy[wi].1));
        }
        let p = &bard_h.test[wi].policy_stats;
        row.push(format!("{:.1}", p.plain_fraction() * 100.0));
        row.push(format!("{:.1}", p.override_fraction() * 100.0));
        row.push(format!("{:.1}", p.cleanse_fraction() * 100.0));
        table.push_row(row);
    }
    a.table("main", table);
    for (policy, cmp) in policies.iter().zip(&comparisons) {
        a.note(format!("gmean speedup {}: {:+.2}%", policy.label(), cmp.gmean_speedup_percent()));
    }
    a.note("Paper reference: 4.1% (BARD-E), 3.3% (BARD-C), 4.3% (BARD-H); decisions split");
    a.note("64.7% plain LRU evictions / 4.8% overrides / 30.5% cleanses.");
    a.records_from(&comparisons[0].baseline);
    for cmp in &comparisons {
        a.records_from(&cmp.test);
        a.delta_from(cmp);
    }
}

fn fig11(cli: &Cli, a: &mut Artifact) {
    let policies = [
        WritePolicyKind::BardH,
        WritePolicyKind::EagerWriteback,
        WritePolicyKind::VirtualWriteQueue,
    ];
    let variants: Vec<_> = policies.iter().map(|&p| cli.config.clone().with_policy(p)).collect();
    let comparisons = cli.compare(&cli.config, &variants);

    let mut table = Table::new(vec!["workload", "BARD %", "EW %", "VWQ %"]);
    let speedups: Vec<_> = comparisons.iter().map(Comparison::speedups_percent).collect();
    for (wi, &w) in cli.workloads.iter().enumerate() {
        let mut row = vec![w.name().to_string()];
        for per_policy in &speedups {
            row.push(format!("{:+.2}", per_policy[wi].1));
        }
        table.push_row(row);
    }
    a.table("main", table);
    for (policy, cmp) in policies.iter().zip(&comparisons) {
        a.note(format!("gmean speedup {}: {:+.2}%", policy.label(), cmp.gmean_speedup_percent()));
    }
    a.note("Paper reference: BARD +4.3%, EW -0.5%, VWQ -0.3%.");
    a.records_from(&comparisons[0].baseline);
    for cmp in &comparisons {
        a.records_from(&cmp.test);
        a.delta_from(cmp);
    }
}

fn fig14(cli: &Cli, a: &mut Artifact) {
    let bard_cfg = cli.config.clone().with_policy(WritePolicyKind::BardH);
    let ideal_cfg = {
        let mut c = cli.config.clone();
        c.dram = c.dram.clone().ideal();
        c
    };
    let mut grid = cli.run_grid(&[cli.config.clone(), bard_cfg, ideal_cfg]);
    let ideal = grid.pop().expect("ideal results");
    let bard = grid.pop().expect("bard results");
    let base = grid.pop().expect("baseline results");
    let mut table =
        Table::new(vec!["workload", "BLP base", "BLP BARD", "W% base", "W% BARD", "W% ideal"]);
    for ((b, x), i) in base.iter().zip(&bard).zip(&ideal) {
        table.push_row(vec![
            b.workload.name().to_string(),
            format!("{:.1}", b.write_blp()),
            format!("{:.1}", x.write_blp()),
            format!("{:.1}", b.write_time_fraction() * 100.0),
            format!("{:.1}", x.write_time_fraction() * 100.0),
            format!("{:.1}", i.write_time_fraction() * 100.0),
        ]);
    }
    table.push_row(vec![
        "mean".to_string(),
        format!("{:.1}", mean_of(&base, RunResult::write_blp)),
        format!("{:.1}", mean_of(&bard, RunResult::write_blp)),
        format!("{:.1}", mean_of(&base, RunResult::write_time_fraction) * 100.0),
        format!("{:.1}", mean_of(&bard, RunResult::write_time_fraction) * 100.0),
        format!("{:.1}", mean_of(&ideal, RunResult::write_time_fraction) * 100.0),
    ]);
    a.table("main", table);
    a.note("Paper reference: BLP 22.1 -> 28.8; W% 33.0 -> 29.3 (ideal 24.1).");
    a.records_from(&base);
    a.records_from(&bard);
    a.records_labeled("ideal-write", &ideal);
}

fn fig15(cli: &Cli, a: &mut Artifact) {
    let replacements = [ReplacementKind::Lru, ReplacementKind::Srrip, ReplacementKind::Ship];
    // One grid of (baseline, BARD) per replacement policy — six configs, all
    // simulated in parallel.
    let configs: Vec<_> = replacements
        .iter()
        .flat_map(|&repl| {
            let base = cli.config.clone().with_replacement(repl);
            let bard = base.clone().with_policy(WritePolicyKind::BardH);
            [base, bard]
        })
        .collect();
    let grid = cli.run_grid(&configs);
    for results in &grid {
        a.records_from(results);
    }
    let mut grid = grid.into_iter();
    let comparisons: Vec<Comparison> = replacements
        .iter()
        .map(|&repl| {
            let base = grid.next().expect("baseline results");
            let bard = grid.next().expect("bard results");
            Comparison::from_results(format!("bard-h/{}", repl.name()), base, bard)
        })
        .collect();
    let mut table = Table::new(vec!["workload", "BARD (LRU) %", "BARD (SRRIP) %", "BARD (SHiP) %"]);
    let speedups: Vec<_> = comparisons.iter().map(Comparison::speedups_percent).collect();
    for (wi, &w) in cli.workloads.iter().enumerate() {
        let mut row = vec![w.name().to_string()];
        for per_repl in &speedups {
            row.push(format!("{:+.2}", per_repl[wi].1));
        }
        table.push_row(row);
    }
    a.table("main", table);
    for (repl, cmp) in replacements.iter().zip(&comparisons) {
        a.note(format!("gmean speedup with {}: {:+.2}%", repl.name(), cmp.gmean_speedup_percent()));
        a.delta_from(cmp);
    }
    a.note("Paper reference: 4.3% (LRU), 5.0% (SRRIP), 4.9% (SHiP).");
}

fn fig17(cli: &Cli, a: &mut Artifact) {
    let entries_sweep = [32usize, 48, 64, 96, 128];
    let policies = [WritePolicyKind::Baseline, WritePolicyKind::BardH];
    // The 48-entry baseline is the normalisation reference; it is simulated
    // once, and every (capacity x policy) variant joins it in one parallel
    // grid.
    let variants: Vec<_> = entries_sweep
        .iter()
        .flat_map(|&entries| {
            policies.map(|policy| {
                let mut cfg = cli.config.clone().with_policy(policy);
                cfg.dram = cfg.dram.clone().with_write_queue_entries(entries);
                cfg
            })
        })
        .collect();
    let comparisons = cli.compare(&cli.config, &variants);
    let mut table = Table::new(vec!["WQ entries", "baseline gmean (%)", "BARD gmean (%)"]);
    for (i, entries) in entries_sweep.iter().enumerate() {
        let mut row = vec![entries.to_string()];
        for pi in 0..policies.len() {
            row.push(format!(
                "{:+.1}",
                comparisons[i * policies.len() + pi].gmean_speedup_percent()
            ));
        }
        table.push_row(row);
    }
    a.table("main", table);
    a.note("Paper reference: baseline -6.2/0.0/3.3/8.1/10.7%, BARD 0.4/4.3/7.0/10.0/11.7%.");
    a.records_from(&comparisons[0].baseline);
    for (i, cmp) in comparisons.iter().enumerate() {
        let label = format!("{} wq={}", cmp.label, entries_sweep[i / policies.len()]);
        a.records_labeled(&label, &cmp.test);
        a.delta_labeled(&label, cmp);
    }
}

fn sec7i(cli: &Cli, a: &mut Artifact) {
    let bard_cfg = cli.config.clone().with_policy(WritePolicyKind::BardH);
    let results = cli.run(&bard_cfg);
    let mut table = Table::new(vec!["workload", "decisions", "incorrect (%)"]);
    let mut fractions = Vec::new();
    for r in &results {
        let p = &r.policy_stats;
        fractions.push(p.incorrect_decision_fraction());
        table.push_row(vec![
            r.workload.name().to_string(),
            p.checked_decisions.to_string(),
            format!("{:.1}", p.incorrect_decision_fraction() * 100.0),
        ]);
    }
    let mean = fractions.iter().sum::<f64>() / fractions.len().max(1) as f64;
    a.table("main", table);
    a.note(format!("Mean incorrect-decision rate: {:.1}% (paper reports 30.3%).", mean * 100.0));
    a.records_from(&results);
}

fn tab01(_cli: &Cli, a: &mut Artifact) {
    let t = TimingParams::ddr5_4800_x4();
    let x8 = TimingParams::ddr5_4800_x8();
    let mut table = Table::new(vec!["Name", "Description", "Time (ns)", "Cycles"]);
    let mut row = |name: &str, desc: &str, cycles: u64| {
        table.push_row(vec![
            name.to_string(),
            desc.to_string(),
            format!("{:.1}", dram_cycles_to_ns(cycles)),
            cycles.to_string(),
        ]);
    };
    row("CL", "Read Latency", t.cl);
    row("CWL", "Write Latency", t.cwl);
    row("tRCD", "Activate-to-RW Latency", t.t_rcd);
    row("tRP", "Precharge-to-Activate Latency", t.t_rp);
    row("tRAS", "Activate-to-Precharge Latency", t.t_ras);
    row("tWR", "Write-to-Precharge Latency", t.t_wr);
    row("BL/2", "Time to send 64B across data bus", t.burst);
    row("tCCD_S_WR", "Write-to-Write Delay (Diff.)", t.t_ccd_s_wr);
    row("tCCD_L_WR", "Write-to-Write Delay (Same)", t.t_ccd_l_wr);
    a.note("Table I: DRAM timing (DDR5 4800B x4 devices)\n");
    a.table("main", table);
    a.note(format!(
        "x8 devices: tCCD_L_WR = {} cycles ({:.1} ns) — Section VII-D",
        x8.t_ccd_l_wr,
        dram_cycles_to_ns(x8.t_ccd_l_wr)
    ));
    a.note(format!(
        "Same-bank row-buffer-conflict write-to-write chain: {} cycles ({:.1} ns), {:.1}x the minimum",
        t.write_conflict_chain(),
        dram_cycles_to_ns(t.write_conflict_chain()),
        t.write_conflict_chain() as f64 / t.t_ccd_s_wr as f64
    ));
}

fn tab04(cli: &Cli, a: &mut Artifact) {
    let results = cli.run(&cli.config);
    let mut table = Table::new(vec!["workload", "MPKI", "WPKI", "WBLP", "W%"]);
    for result in &results {
        table.push_row(characterisation_row(result));
    }
    a.table("main", table);
    a.note("Compare against Table IV of the paper (absolute values differ; ordering and");
    a.note("write intensity are the quantities the BARD study depends on).");
    a.records_from(&results);
}

fn tab05(cli: &Cli, a: &mut Artifact) {
    let bard_cfg = cli.config.clone().with_policy(WritePolicyKind::BardH);
    let ideal_cfg = {
        let mut c = cli.config.clone();
        c.dram = c.dram.clone().ideal();
        c
    };
    let names = ["Baseline", "BARD", "Ideal"];
    let grid = cli.run_grid(&[cli.config.clone(), bard_cfg, ideal_cfg]);
    let mut table = Table::new(vec!["Design", "Average Latency (ns)", "Max Latency (ns)"]);
    for (name, results) in names.iter().zip(&grid) {
        let max = results.iter().map(RunResult::mean_write_to_write_ns).fold(0.0f64, f64::max);
        table.push_row(vec![
            (*name).to_string(),
            format!("{:.1}", mean_of(results, RunResult::mean_write_to_write_ns)),
            format!("{max:.1}"),
        ]);
    }
    a.table("main", table);
    a.note("Paper reference: baseline 5.0/5.7 ns, BARD 4.2/5.0 ns, ideal 3.3/3.3 ns.");
    for (name, results) in names.iter().zip(&grid) {
        a.records_labeled(name, results);
    }
}

fn tab06(cli: &Cli, a: &mut Artifact) {
    let make = |dram: DramConfig, policy: WritePolicyKind, ideal: bool| {
        let mut cfg = cli.config.clone().with_policy(policy);
        cfg.dram = if ideal { dram.ideal() } else { dram };
        cfg
    };
    let systems = [
        ("Baseline x4", make(DramConfig::ddr5_4800_x4(), WritePolicyKind::Baseline, false)),
        ("BARD x4", make(DramConfig::ddr5_4800_x4(), WritePolicyKind::BardH, false)),
        ("Ideal x4", make(DramConfig::ddr5_4800_x4(), WritePolicyKind::Baseline, true)),
        ("Baseline x8", make(DramConfig::ddr5_4800_x8(), WritePolicyKind::Baseline, false)),
        ("BARD x8", make(DramConfig::ddr5_4800_x8(), WritePolicyKind::BardH, false)),
        ("Ideal x8", make(DramConfig::ddr5_4800_x8(), WritePolicyKind::Baseline, true)),
    ];
    // The Baseline x4 runs are the normalisation reference; the entire
    // 6-system grid (reference simulated once) runs in parallel.
    let variants: Vec<_> = systems.iter().map(|(_, cfg)| cfg.clone()).collect();
    let comparisons = Comparison::run_many_on(
        &cli.runner(),
        &systems[0].1,
        &variants,
        &cli.workloads,
        cli.length,
    );
    let mut table = Table::new(vec!["System", "gmean speedup vs x4 baseline (%)"]);
    for ((name, _), cmp) in systems.iter().zip(&comparisons) {
        table.push_row(vec![(*name).to_string(), format!("{:+.1}", cmp.gmean_speedup_percent())]);
    }
    a.table("main", table);
    a.note("Paper reference (x4/x8): baseline 0.0%/2.1%, BARD 4.3%/7.1%, ideal 14.5%/14.5%.");
    for ((name, _), cmp) in systems.iter().zip(&comparisons) {
        a.records_labeled(name, &cmp.test);
        a.delta_labeled(name, cmp);
    }
}

fn tab07(cli: &Cli, a: &mut Artifact) {
    let mut table = Table::new(vec!["Core Count", "Gmean (%)", "Max (%)"]);
    for (label, base_cfg) in
        [("8", SystemConfig::baseline_8core()), ("16", SystemConfig::baseline_16core())]
    {
        // tab07 deliberately simulates the full 8/16-core systems whatever
        // the CLI baseline is, but the seed, trace archive and engine still
        // follow the CLI so --seed= sweeps, --trace-dir= replay and
        // --engine= comparisons cover it too.
        let base_cfg = base_cfg
            .with_seed(cli.config.seed)
            .with_trace(cli.config.trace.clone())
            .with_engine(cli.config.engine);
        let bard_cfg = base_cfg.clone().with_policy(WritePolicyKind::BardH);
        let cmp =
            Comparison::run_on(&cli.runner(), &base_cfg, &bard_cfg, &cli.workloads, cli.length);
        table.push_row(vec![
            label.to_string(),
            format!("{:.1}", cmp.gmean_speedup_percent()),
            format!("{:.1}", cmp.max_speedup_percent()),
        ]);
        a.records_labeled(&format!("{label}-core baseline"), &cmp.baseline);
        a.records_labeled(&format!("{label}-core bard-h"), &cmp.test);
        a.delta_labeled(&format!("{label}-core"), &cmp);
    }
    a.table("main", table);
    a.note("Paper reference: 8-core 4.2%/8.8%, 16-core 5.1%/11.1%.");
}

fn tab08(cli: &Cli, a: &mut Artifact) {
    let bard_cfg = cli.config.clone().with_policy(WritePolicyKind::BardH);
    let results = cli.run(&bard_cfg);
    let mut wb_rates = Vec::new();
    for r in &results {
        let seconds = cpu_cycles_to_ns(r.total_cycles) * 1e-9;
        if seconds > 0.0 {
            // Write-backs per second in the simulated 8-core system, scaled by
            // 16 for the 128-core extrapolation.
            wb_rates.push(r.policy_stats.writebacks as f64 / seconds * 16.0);
        }
    }
    let mean_rate = wb_rates.iter().sum::<f64>() / wb_rates.len().max(1) as f64;
    let max_rate = wb_rates.iter().copied().fold(0.0f64, f64::max);
    let gbps = |rate: f64, bits_per_event: f64| rate * bits_per_event / 8.0 / 1e9;
    let mut table = Table::new(vec!["Purpose", "Packet Size", "Mean (GB/s)", "Max (GB/s)"]);
    table.push_row(vec![
        "Writeback".to_string(),
        "70B = 560b".to_string(),
        format!("{:.1}", gbps(mean_rate, 560.0)),
        format!("{:.1}", gbps(max_rate, 560.0)),
    ]);
    table.push_row(vec![
        "Synchronization".to_string(),
        "9b".to_string(),
        format!("{:.1}", gbps(mean_rate, 9.0)),
        format!("{:.1}", gbps(max_rate, 9.0)),
    ]);
    a.table("main", table);
    let overhead = 9.0 / 560.0 * 100.0;
    a.note(format!("Synchronisation adds {overhead:.1}% to write-back bandwidth (paper: ~1.6%)."));
    a.note("Paper reference: write-backs 153.9/281.3 GB/s, synchronisation 2.5/4.5 GB/s.");
    a.records_from(&results);
}

fn tab09(cli: &Cli, a: &mut Artifact) {
    let systems = [("BARD", WritePolicyKind::BardH), ("VWQ", WritePolicyKind::VirtualWriteQueue)];
    let variants: Vec<_> =
        systems.iter().map(|&(_, p)| cli.config.clone().with_policy(p)).collect();
    // One grid; the baseline runs once and is shared by both comparisons.
    let comparisons = cli.compare(&cli.config, &variants);
    let mut table = Table::new(vec!["System", "Power", "Energy", "EDP"]);
    for ((name, _), cmp) in systems.iter().zip(&comparisons) {
        let mut power = Vec::new();
        let mut energy = Vec::new();
        let mut edp = Vec::new();
        for (base, r) in cmp.baseline.iter().zip(&cmp.test) {
            if base.mean_dram_power_mw() > 0.0 {
                power.push(r.mean_dram_power_mw() / base.mean_dram_power_mw());
                energy.push(r.dram_energy_pj() / base.dram_energy_pj());
                edp.push(r.dram_edp() / base.dram_edp());
            }
        }
        table.push_row(vec![
            (*name).to_string(),
            format!("{:.3}", geomean(&power)),
            format!("{:.3}", geomean(&energy)),
            format!("{:.3}", geomean(&edp)),
        ]);
    }
    a.table("main", table);
    a.note("Paper reference: BARD 1.06/1.015/0.970, VWQ 0.989/0.993/0.995.");
    a.records_from(&comparisons[0].baseline);
    for ((name, _), cmp) in systems.iter().zip(&comparisons) {
        a.records_from(&cmp.test);
        a.delta_labeled(name, cmp);
    }
}

fn tab10(cli: &Cli, a: &mut Artifact) {
    let bard_cfg = cli.config.clone().with_policy(WritePolicyKind::BardH);
    let cmp = cli.compare(&cli.config, std::slice::from_ref(&bard_cfg)).remove(0);
    let mut miss_delta = Vec::new();
    let mut wb_delta = Vec::new();
    for (base, bard) in cmp.baseline.iter().zip(&cmp.test) {
        if base.mpki() > 0.0 {
            miss_delta.push((bard.mpki() / base.mpki() - 1.0) * 100.0);
        }
        if base.wpki() > 0.0 {
            wb_delta.push((bard.wpki() / base.wpki() - 1.0) * 100.0);
        }
    }
    let mean = |v: &Vec<f64>| v.iter().sum::<f64>() / v.len().max(1) as f64;
    let max = |v: &Vec<f64>| v.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let mut table = Table::new(vec!["Metric", "Mean (%)", "Max (%)"]);
    table.push_row(vec![
        "Misses".to_string(),
        format!("{:+.1}", mean(&miss_delta)),
        format!("{:+.1}", max(&miss_delta)),
    ]);
    table.push_row(vec![
        "Writebacks".to_string(),
        format!("{:+.1}", mean(&wb_delta)),
        format!("{:+.1}", max(&wb_delta)),
    ]);
    a.table("main", table);
    a.note("Paper reference: misses 0.0% mean / 1.3% max, write-backs 2.7% mean / 8.5% max.");
    a.records_from(&cmp.baseline);
    a.records_from(&cmp.test);
    a.delta_from(&cmp);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_ids_are_unique_and_sorted() {
        let ids: Vec<_> = ALL.iter().map(|e| e.id).collect();
        let mut sorted = ids.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(ids, sorted, "experiment ids must be unique and in id order");
        assert_eq!(ALL.len(), 16);
    }

    #[test]
    fn find_accepts_id_and_bin_name() {
        assert_eq!(find("fig10").unwrap().bin, "fig10_bard_variants");
        assert_eq!(find("fig10_bard_variants").unwrap().id, "fig10");
        assert!(find("fig99").is_none());
    }

    #[test]
    fn tab01_needs_no_simulation_and_renders() {
        let cli = Cli::from_args(["--test".to_string()].into_iter()).expect("valid arguments");
        let artifact = find("tab01").unwrap().run_to_artifact(&cli);
        let text = artifact.render_text();
        assert!(text.starts_with("Table I: DRAM timing (DDR5 4800B x4 devices)\n\n"));
        assert!(text.contains("tCCD_L_WR"));
        assert!(artifact.records.is_empty());
        assert!(artifact.provenance.wall_clock_seconds >= 0.0);
    }

    #[test]
    fn small_experiment_produces_records_and_deltas() {
        let cli = Cli::from_args(
            ["--test".to_string(), "--workloads=lbm".to_string(), "--jobs=1".to_string()]
                .into_iter(),
        )
        .expect("valid arguments");
        let artifact = find("tab10").unwrap().run_to_artifact(&cli);
        // One baseline + one BARD run of one workload.
        assert_eq!(artifact.records.len(), 2);
        assert_eq!(artifact.deltas.len(), 1);
        assert_eq!(artifact.tables().len(), 1);
        let json = artifact.to_json();
        assert_eq!(json.get("experiment").unwrap().as_str(), Some("tab10"));
    }
}

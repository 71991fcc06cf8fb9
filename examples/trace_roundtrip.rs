//! Trace round trip: record a workload to a BTF archive, replay it through
//! the full-system simulator, and ingest an external ChampSim-like text
//! trace — the three workflows `bard-trace` adds (see `docs/TRACES.md`).
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example trace_roundtrip [workload] [--keep]
//! ```
//!
//! The example exits non-zero if the replayed simulation is not
//! bitwise-identical to the live one. `--keep` leaves the scratch archive on
//! disk for inspection with `cargo run --release --bin trace -- info ...`.

use bard::experiment::{run_workload, RunLength};
use bard::{SystemConfig, TraceConfig};
use bard_cpu::{TraceSource, VecTrace};
use bard_trace::{parse_text, RecordingSource, ReplayWorkload};
use bard_workloads::WorkloadId;

fn main() {
    let mut workload = WorkloadId::Lbm;
    let mut keep = false;
    for arg in std::env::args().skip(1) {
        if arg == "--keep" {
            keep = true;
        } else if let Some(w) = WorkloadId::from_name(&arg) {
            workload = w;
        } else {
            eprintln!("usage: trace_roundtrip [workload] [--keep]");
            std::process::exit(2);
        }
    }
    let dir = std::env::temp_dir().join(format!("bard-trace-roundtrip-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");

    // ------------------------------------------------------------------
    // 1. Tee a live generator to disk with RecordingSource.
    // ------------------------------------------------------------------
    let config = SystemConfig::small_test();
    let tee_path = dir.join("tee.btf");
    let live = workload.build(0, config.seed);
    let mut recording = RecordingSource::create(live, &tee_path, "example:tee", 0, config.seed);
    let first = recording.next_record();
    for _ in 0..9_999 {
        let _ = recording.next_record();
    }
    let (header, _generator) = recording.finish().expect("seal the recording");
    println!(
        "recorded  {}: {} records / {} instructions -> {}",
        workload.name(),
        header.records,
        header.instructions,
        tee_path.display()
    );
    let mut replay = ReplayWorkload::open(&tee_path).expect("replay the recording");
    assert_eq!(replay.next_record(), first, "replay starts with the recorded stream");

    // ------------------------------------------------------------------
    // 2. Run one workload live, then from the archive (record + replay),
    //    and check the results are bitwise-identical.
    // ------------------------------------------------------------------
    let length = RunLength::test();
    let live_result = run_workload(&config, workload, length);
    let traced = config.clone().with_trace(Some(TraceConfig::for_run_length(&dir, length)));
    let recorded_result = run_workload(&traced, workload, length); // captures per-core files
    let replayed_result = run_workload(&traced, workload, length); // replays them
    println!("live      ipc_sum={:.4} cycles={}", live_result.ipc_sum(), live_result.total_cycles);
    println!(
        "replayed  ipc_sum={:.4} cycles={}",
        replayed_result.ipc_sum(),
        replayed_result.total_cycles
    );
    let identical = live_result.total_cycles == recorded_result.total_cycles
        && live_result.total_cycles == replayed_result.total_cycles
        && live_result.per_core_ipc == recorded_result.per_core_ipc
        && live_result.per_core_ipc == replayed_result.per_core_ipc;
    if !identical {
        eprintln!("ERROR: replay diverged from live generation");
        std::process::exit(1);
    }
    println!("replay is bitwise-identical to live generation");

    // ------------------------------------------------------------------
    // 3. Ingest an external ChampSim-like text trace and replay it.
    // ------------------------------------------------------------------
    let text = "\
# a tiny external trace: streaming stores with a pointer-chasing load
0x400 3 S 0x100000
0x408 0 L 0x7f0010
0x400 3 S 0x100040
0x408 0 L 0x7f2050
0x400 3 S 0x100080
";
    let records = parse_text(text).expect("parse the text trace");
    let ext_path = dir.join("external.btf");
    let external = VecTrace::new("external", records.clone());
    let mut import = RecordingSource::create(external, &ext_path, "example:import", 0, 0);
    for _ in &records {
        let _ = import.next_record();
    }
    import.finish().expect("seal import");
    let mut external = ReplayWorkload::open(&ext_path).expect("replay the import");
    let instructions = external.header().instructions;
    println!(
        "imported  {} text records -> {} ({} instructions); first ip {:#x}",
        records.len(),
        ext_path.display(),
        instructions,
        external.next_record().ip
    );

    if keep {
        println!("archive kept at {}", dir.display());
    } else {
        let _ = std::fs::remove_dir_all(&dir);
    }
}

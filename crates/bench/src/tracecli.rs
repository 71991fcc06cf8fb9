//! Implementation of the `trace` binary: record, inspect, import and verify
//! BTF trace archives from the command line.
//!
//! ```text
//! trace record --dir=DIR [--workloads=a,b|--singles|--mixes] [--cores=N]
//!              [--seed=N] [--test|--quick|--standard|--instructions=N] [--force]
//! trace info FILE...
//! trace verify FILE...
//! trace import SRC.txt --out=FILE.btf [--name=NAME] [--seed=N] [--core=N]
//! ```
//!
//! `record` captures exactly the per-core trace files a simulation run with
//! `--trace-dir=DIR` would create on demand (same store layout, same
//! instruction budget for a given run-length preset), so archives can be
//! produced ahead of time and shipped to other machines. `import` turns a
//! ChampSim-like text trace (see `bard_trace::import`) into a sealed BTF
//! file, and `verify` opens files with the validating read every replay
//! runs, so it accepts exactly the files a replay can open.
//!
//! Like the experiment binaries, `trace` exits 2 with its usage text on a
//! malformed invocation ([`Error::Usage`]) and 1 when a record, info, verify
//! or import fails ([`Error::Failed`]).

use std::path::{Path, PathBuf};

use bard::experiment::RunLength;
use bard::{SystemConfig, TraceConfig};
use bard_cpu::{TraceSource, VecTrace};
use bard_trace::{RecordingSource, ReplayWorkload, TraceHeader, TraceStore};
use bard_workloads::WorkloadId;

use crate::harness::{directory, number};

/// Why a `trace` invocation failed; either way the message goes to stderr.
#[derive(Debug)]
pub enum Error {
    /// The arguments are malformed: the binary also prints [`USAGE`] and
    /// exits 2.
    Usage(String),
    /// A record, info, verify or import ran and failed: the binary exits 1.
    Failed(String),
}

/// Runs the CLI on an argument list (without the program name), writing
/// human-readable output through `out`.
///
/// # Errors
///
/// Returns [`Error::Usage`] for a malformed invocation and
/// [`Error::Failed`] when the subcommand itself fails.
pub fn run(args: &[String], out: &mut dyn std::fmt::Write) -> Result<(), Error> {
    let Some((command, rest)) = args.split_first() else {
        return Err(Error::Usage("a subcommand is required".to_string()));
    };
    match command.as_str() {
        "record" => record(rest, out),
        "info" => info(rest, out),
        "verify" => verify(rest, out),
        "import" => import(rest, out),
        "--help" | "-h" | "help" => {
            writeln!(out, "{USAGE}").expect("infallible writer");
            Ok(())
        }
        other => Err(Error::Usage(format!("unknown subcommand '{other}'"))),
    }
}

/// The `trace` binary's usage text.
pub const USAGE: &str = "usage: trace <record|info|verify|import> ...\n\
     \n\
     trace record --dir=DIR [--workloads=a,b|--singles|--mixes] [--cores=N] [--seed=N]\n\
     \x20             [--test|--quick|--standard|--instructions=N] [--force]\n\
     \x20   Capture per-core BTF traces for registry workloads, exactly as a\n\
     \x20   simulation with --trace-dir=DIR would (record-if-missing unless --force).\n\
     trace info FILE...\n\
     \x20   Print each file's self-describing header.\n\
     trace verify FILE...\n\
     \x20   Check each file as a replay opens it; non-zero exit on failure.\n\
     trace import SRC.txt --out=FILE.btf [--name=NAME] [--seed=N] [--core=N]\n\
     \x20   Seal a ChampSim-like text trace (ip bubble L|S|- [addr] per line) into BTF.\n\
     \n\
     docs/TRACES.md documents the BTF1 format and the record/replay workflows.";

// ----------------------------------------------------------------------
// record
// ----------------------------------------------------------------------

fn record(args: &[String], out: &mut dyn std::fmt::Write) -> Result<(), Error> {
    let mut dir: Option<PathBuf> = None;
    let mut workloads = WorkloadId::all();
    let mut cores = SystemConfig::baseline_8core().cores;
    let mut seed = SystemConfig::baseline_8core().seed;
    let mut length = RunLength::quick();
    let mut instructions: Option<u64> = None;
    let mut force = false;
    for arg in args {
        if let Some(d) = arg.strip_prefix("--dir=") {
            dir = Some(directory("--dir", d).map_err(|e| Error::Usage(format!("record: {e}")))?);
        } else if let Some(list) = arg.strip_prefix("--workloads=") {
            workloads = parse_workloads(list).map_err(Error::Usage)?;
        } else if arg == "--singles" {
            workloads = WorkloadId::singles().to_vec();
        } else if arg == "--mixes" {
            workloads = WorkloadId::mixes().to_vec();
        } else if let Some(n) = arg.strip_prefix("--cores=") {
            cores = number("--cores", n).map_err(Error::Usage)?;
        } else if let Some(n) = arg.strip_prefix("--seed=") {
            seed = number("--seed", n).map_err(Error::Usage)?;
        } else if arg == "--test" {
            length = RunLength::test();
            cores = SystemConfig::small_test().cores;
        } else if arg == "--quick" {
            length = RunLength::quick();
        } else if arg == "--standard" {
            length = RunLength::standard();
        } else if let Some(n) = arg.strip_prefix("--instructions=") {
            instructions = Some(number("--instructions", n).map_err(Error::Usage)?);
        } else if arg == "--force" {
            force = true;
        } else {
            return Err(Error::Usage(format!("record: unknown argument '{arg}'")));
        }
    }
    let dir = dir.ok_or_else(|| Error::Usage("record: --dir=DIR is required".to_string()))?;
    // `SystemConfig::validate` accepts 1..=64 cores, so no run could replay
    // streams captured for any other count.
    if !(1..=64).contains(&cores) {
        return Err(Error::Usage(format!("record: --cores={cores} is outside 1..=64")));
    }
    // A replay needs a record, and `SystemConfig::validate` rejects a zero
    // trace budget.
    if instructions == Some(0) {
        return Err(Error::Usage(
            "record: --instructions=0 would capture empty traces".to_string(),
        ));
    }
    let budget = instructions.unwrap_or_else(|| TraceConfig::budget_for(length));
    let store = TraceStore::new(&dir);

    let mut captured = 0usize;
    let mut reused = 0usize;
    // Mirror System::new: mixes expand onto cores, singles run in rate mode,
    // and identical (workload, core) keys across requests share one file.
    let mut done: Vec<String> = Vec::new();
    for &workload in &workloads {
        for (core, constituent) in workload.per_core_workloads(cores).into_iter().enumerate() {
            let name = TraceStore::file_name(constituent.name(), core as u32, seed, budget);
            if done.contains(&name) {
                continue;
            }
            done.push(name.clone());
            let path = store.path_for(constituent.name(), core as u32, seed, budget);
            if path.exists() && !force {
                reused += 1;
                continue;
            }
            let mut live = constituent.build(core, seed);
            let header = store
                .record(live.as_mut(), core as u32, seed, budget)
                .map_err(|e| Error::Failed(format!("record: {name}: {e}")))?;
            captured += 1;
            writeln!(
                out,
                "recorded {name}: {} records, {} instructions",
                header.records, header.instructions
            )
            .expect("infallible writer");
        }
    }
    writeln!(
        out,
        "record: {captured} trace(s) captured, {reused} already archived in {} \
         (budget {budget} instructions/core)",
        dir.display()
    )
    .expect("infallible writer");
    Ok(())
}

fn parse_workloads(list: &str) -> Result<Vec<WorkloadId>, String> {
    list.split(',')
        .map(str::trim)
        .filter(|n| !n.is_empty())
        .map(|name| WorkloadId::from_name(name).ok_or_else(|| format!("unknown workload '{name}'")))
        .collect()
}

// ----------------------------------------------------------------------
// info / verify
// ----------------------------------------------------------------------

fn describe(header: &TraceHeader) -> String {
    format!(
        "workload={} core={} seed={:#x} records={} instructions={} checksum={:#018x} source={:?}",
        header.workload,
        header.core,
        header.seed,
        header.records,
        header.instructions,
        header.checksum,
        header.source,
    )
}

fn info(files: &[String], out: &mut dyn std::fmt::Write) -> Result<(), Error> {
    if files.is_empty() {
        return Err(Error::Usage("info: at least one FILE is required".to_string()));
    }
    for file in files {
        let header = TraceHeader::read(Path::new(file))
            .map_err(|e| Error::Failed(format!("info: {file}: {e}")))?;
        writeln!(out, "{file}: {}", describe(&header)).expect("infallible writer");
    }
    Ok(())
}

fn verify(files: &[String], out: &mut dyn std::fmt::Write) -> Result<(), Error> {
    if files.is_empty() {
        return Err(Error::Usage("verify: at least one FILE is required".to_string()));
    }
    for file in files {
        let replay = ReplayWorkload::open(Path::new(file))
            .map_err(|e| Error::Failed(format!("verify: {file}: FAILED: {e}")))?;
        let header = replay.header();
        writeln!(
            out,
            "{file}: ok ({} records, checksum {:#018x})",
            header.records, header.checksum
        )
        .expect("infallible writer");
    }
    Ok(())
}

// ----------------------------------------------------------------------
// import
// ----------------------------------------------------------------------

fn import(args: &[String], out: &mut dyn std::fmt::Write) -> Result<(), Error> {
    let mut src: Option<PathBuf> = None;
    let mut dst: Option<PathBuf> = None;
    let mut name: Option<String> = None;
    let mut seed = 0u64;
    let mut core = 0u32;
    for arg in args {
        if let Some(p) = arg.strip_prefix("--out=") {
            dst = Some(PathBuf::from(p));
        } else if let Some(n) = arg.strip_prefix("--name=") {
            name = Some(n.to_string());
        } else if let Some(n) = arg.strip_prefix("--seed=") {
            seed = number("--seed", n).map_err(Error::Usage)?;
        } else if let Some(n) = arg.strip_prefix("--core=") {
            core = number("--core", n).map_err(Error::Usage)?;
        } else if arg.starts_with("--") {
            return Err(Error::Usage(format!("import: unknown argument '{arg}'")));
        } else if src.is_none() {
            src = Some(PathBuf::from(arg));
        } else {
            return Err(Error::Usage(format!("import: unexpected extra argument '{arg}'")));
        }
    }
    let src = src.ok_or_else(|| Error::Usage("import: a SRC.txt argument is required".into()))?;
    let dst = dst.ok_or_else(|| Error::Usage("import: --out=FILE.btf is required".into()))?;
    let name = name.unwrap_or_else(|| {
        src.file_stem().and_then(|s| s.to_str()).unwrap_or("imported").to_string()
    });
    let failed = |path: &Path, e: &dyn std::fmt::Display| {
        Error::Failed(format!("import: {}: {e}", path.display()))
    };
    let text = std::fs::read_to_string(&src).map_err(|e| failed(&src, &e))?;
    let records = bard_trace::parse_text(&text).map_err(|e| failed(&src, &e))?;
    if records.is_empty() {
        return Err(failed(&src, &"the text trace holds no records"));
    }
    let count = records.len();
    let provenance = format!("import:{}", src.display());
    let mut recording =
        RecordingSource::create(VecTrace::new(name, records), &dst, provenance, core, seed);
    for _ in 0..count {
        let _ = recording.next_record();
    }
    let (header, _) = recording.finish().map_err(|e| failed(&dst, &e))?;
    writeln!(out, "imported {} -> {} ({})", src.display(), dst.display(), describe(&header))
        .expect("infallible writer");
    Ok(())
}

#[cfg(test)]
mod tests {
    use std::path::PathBuf;

    use super::*;

    /// A scratch directory removed on drop.
    struct TempDir(PathBuf);

    impl TempDir {
        fn new(tag: &str) -> Self {
            let dir =
                std::env::temp_dir().join(format!("bard-tracecli-{tag}-{}", std::process::id()));
            let _ = std::fs::remove_dir_all(&dir);
            std::fs::create_dir_all(&dir).unwrap();
            Self(dir)
        }
    }

    impl Drop for TempDir {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }

    fn run_ok(args: &[&str]) -> String {
        let args: Vec<String> = args.iter().map(ToString::to_string).collect();
        let mut out = String::new();
        run(&args, &mut out).unwrap_or_else(|e| panic!("trace {args:?} failed: {e:?}"));
        out
    }

    fn run_err(args: &[&str]) -> Error {
        let args: Vec<String> = args.iter().map(ToString::to_string).collect();
        let mut out = String::new();
        let err = run(&args, &mut out).expect_err("command should fail");
        assert!(out.is_empty(), "trace {args:?} wrote output before failing: {out}");
        err
    }

    /// The message of a usage error (the binary exits 2).
    fn usage_err(args: &[&str]) -> String {
        match run_err(args) {
            Error::Usage(message) => message,
            other => panic!("trace {args:?}: expected a usage error, got {other:?}"),
        }
    }

    /// The message of a failed subcommand (the binary exits 1).
    fn failure(args: &[&str]) -> String {
        match run_err(args) {
            Error::Failed(message) => message,
            other => panic!("trace {args:?}: expected a failure, got {other:?}"),
        }
    }

    #[test]
    fn record_then_info_and_verify() {
        let tmp = TempDir::new("record");
        let dir_flag = format!("--dir={}", tmp.0.display());
        let output = run_ok(&[
            "record",
            &dir_flag,
            "--workloads=copy",
            "--cores=2",
            "--seed=7",
            "--instructions=5000",
        ]);
        assert!(output.contains("2 trace(s) captured"), "{output}");
        let file = tmp.0.join(TraceStore::file_name("copy", 0, 7, 5000));
        assert!(file.exists());

        let file_str = file.to_str().unwrap().to_string();
        let info_out = run_ok(&["info", &file_str]);
        assert!(info_out.contains("workload=copy"), "{info_out}");
        assert!(info_out.contains("seed=0x7"), "{info_out}");
        let verify_out = run_ok(&["verify", &file_str]);
        assert!(verify_out.contains(": ok ("), "{verify_out}");

        // Recording again reuses the archive; --force recaptures.
        let again = run_ok(&[
            "record",
            &dir_flag,
            "--workloads=copy",
            "--cores=2",
            "--seed=7",
            "--instructions=5000",
        ]);
        assert!(again.contains("0 trace(s) captured, 2 already archived"), "{again}");
    }

    #[test]
    fn record_expands_mixes_and_dedups_shared_keys() {
        let tmp = TempDir::new("record-mix");
        let dir_flag = format!("--dir={}", tmp.0.display());
        // mix0 on 2 cores needs cam4@c0 and omnetpp@c1; recording cam4 (rate
        // mode) afterwards only adds cam4@c1.
        let output = run_ok(&[
            "record",
            &dir_flag,
            "--workloads=mix0,cam4",
            "--cores=2",
            "--instructions=2000",
        ]);
        assert!(output.contains("3 trace(s) captured"), "{output}");
        let seed = SystemConfig::baseline_8core().seed;
        assert!(tmp.0.join(TraceStore::file_name("cam4", 0, seed, 2000)).exists());
        assert!(tmp.0.join(TraceStore::file_name("omnetpp", 1, seed, 2000)).exists());
        assert!(tmp.0.join(TraceStore::file_name("cam4", 1, seed, 2000)).exists());
    }

    #[test]
    fn verify_rejects_a_corrupted_file() {
        let tmp = TempDir::new("verify-corrupt");
        let dir_flag = format!("--dir={}", tmp.0.display());
        run_ok(&["record", &dir_flag, "--workloads=copy", "--cores=1", "--instructions=3000"]);
        let seed = SystemConfig::baseline_8core().seed;
        let file = tmp.0.join(TraceStore::file_name("copy", 0, seed, 3000));
        let mut bytes = std::fs::read(&file).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x55;
        std::fs::write(&file, bytes).unwrap();
        let err = failure(&["verify", file.to_str().unwrap()]);
        assert!(err.contains("FAILED"), "{err}");
    }

    /// `verify` accepts exactly what a replay opens, and no replay opens a
    /// trace of no records, however well formed.
    #[test]
    fn verify_rejects_a_zero_record_file() {
        use bard_trace::format::push_varint;
        use bard_trace::{Fnv64, MAGIC, VERSION};

        let tmp = TempDir::new("verify-empty");
        let mut bytes = MAGIC.to_vec();
        bytes.extend(VERSION.to_le_bytes());
        bytes.extend(0u32.to_le_bytes()); // flags
        for text in ["copy", "hand-built"] {
            push_varint(&mut bytes, text.len() as u64);
            bytes.extend(text.as_bytes());
        }
        bytes.extend(0u32.to_le_bytes()); // core
        bytes.extend(7u64.to_le_bytes()); // seed
        let mut checksum = Fnv64::new();
        checksum.update(&bytes);
        bytes.extend(0u64.to_le_bytes()); // records
        bytes.extend(0u64.to_le_bytes()); // instructions
        bytes.extend(checksum.finish().to_le_bytes());
        let file = tmp.0.join("empty.btf");
        std::fs::write(&file, bytes).unwrap();
        let file = file.to_str().unwrap();
        assert!(run_ok(&["info", file]).contains("records=0"), "the header is well formed");
        let err = failure(&["verify", file]);
        assert!(err.contains("FAILED") && err.contains("holds no records"), "{err}");
    }

    #[test]
    fn import_seals_text_into_a_verifiable_file() {
        let tmp = TempDir::new("import");
        let src = tmp.0.join("ext.txt");
        std::fs::write(&src, "# external trace\n0x400 3 L 0x1000\n0x408 0 S 0x1040\n").unwrap();
        let dst = tmp.0.join("ext.btf");
        let out = run_ok(&[
            "import",
            src.to_str().unwrap(),
            &format!("--out={}", dst.display()),
            "--name=external",
        ]);
        assert!(out.contains("workload=external"), "{out}");
        assert!(out.contains("records=2"), "{out}");
        let verify_out = run_ok(&["verify", dst.to_str().unwrap()]);
        assert!(verify_out.contains(": ok ("), "{verify_out}");

        // A malformed line is rejected with its line number.
        std::fs::write(&src, "0x400 3 L 0x1000\nnot a record\n").unwrap();
        let err = failure(&["import", src.to_str().unwrap(), &format!("--out={}", dst.display())]);
        assert!(err.contains("line 2"), "{err}");
    }

    #[test]
    fn bad_invocations_surface_usage_errors() {
        assert!(usage_err(&[]).contains("a subcommand is required"));
        assert!(usage_err(&["frobnicate"]).contains("unknown subcommand"));
        assert!(usage_err(&["record"]).contains("--dir=DIR is required"));
        assert!(usage_err(&["record", "--dir=/tmp/x", "--workloads=bogus"])
            .contains("unknown workload"));
        assert!(usage_err(&["record", "--dir=/tmp/x", "--frob"]).contains("unknown argument"));
        for cores in ["--cores=0", "--cores=65"] {
            assert!(
                usage_err(&["record", "--dir=/tmp/x", cores]).contains("outside 1..=64"),
                "{cores}"
            );
        }
        for (flag, value) in [("--cores", "zz"), ("--seed", "x"), ("--instructions", "-1")] {
            assert_eq!(
                usage_err(&["record", "--dir=/tmp/x", &format!("{flag}={value}")]),
                format!("{flag}=N needs a number, got '{value}'")
            );
        }
        assert!(usage_err(&["record", "--dir=/tmp/x", "--instructions=0"])
            .contains("--instructions=0 would capture empty traces"));
        assert!(usage_err(&["record", "--dir=", "--workloads=copy"])
            .contains("--dir=DIR needs a directory, got an empty value"));
        assert!(usage_err(&["info"]).contains("FILE is required"));
        assert!(usage_err(&["verify"]).contains("FILE is required"));
        assert!(usage_err(&["import"]).contains("SRC.txt argument is required"));
        assert_eq!(
            usage_err(&["import", "a.txt", "--core=one"]),
            "--core=N needs a number, got 'one'"
        );
        assert!(failure(&["info", "/nonexistent/trace.btf"]).contains("info:"));
        let mut help = String::new();
        run(&["--help".to_string()], &mut help).unwrap();
        assert!(help.contains("trace record"));
        assert_eq!(help, format!("{USAGE}\n"));
    }
}

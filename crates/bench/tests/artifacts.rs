//! Round-trip tests for the JSON/CSV artifact emitters and a golden-file
//! test pinning the `summary.json` shape (see `docs/RESULTS.md`).

use std::path::PathBuf;

use bard::report::{csv, schema, Json};
use bard_bench::experiments::{find, Experiment};
use bard_bench::harness::{write_artifact_files, Cli};
use bard_bench::repro::{run_suite, select};

fn test_cli(out: Option<PathBuf>) -> Cli {
    let mut cli = Cli::from_args(
        ["--test".to_string(), "--workloads=lbm,copy".to_string(), "--jobs=1".to_string()]
            .into_iter(),
    )
    .expect("valid arguments");
    cli.out = out;
    cli
}

/// A scratch directory removed on drop.
struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> Self {
        let dir = std::env::temp_dir().join(format!("bard-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        Self(dir)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

#[test]
fn json_artifact_round_trips_through_the_parser() {
    let cli = test_cli(None);
    let artifact = find("fig03").unwrap().run_to_artifact(&cli);
    assert_eq!(artifact.records.len(), 2, "one record per workload");

    let json = artifact.to_json();
    let reparsed = Json::parse(&json.render()).expect("emitted JSON must parse");
    assert_eq!(reparsed, json, "emit -> parse must be the identity");

    // Spot-check the parsed document against the source artifact.
    assert_eq!(reparsed.get("experiment").unwrap().as_str(), Some("fig03"));
    assert_eq!(
        reparsed.get("schema_version").unwrap().as_f64(),
        Some(schema::SCHEMA_VERSION as f64)
    );
    let records = reparsed.get("records").unwrap().as_array().unwrap();
    assert_eq!(records.len(), artifact.records.len());
    assert_eq!(
        records[0].get("workload").unwrap().as_str(),
        Some(artifact.records[0].workload.as_str())
    );
    assert_eq!(
        records[0].get("wpki").unwrap().as_f64(),
        Some(artifact.records[0].wpki),
        "numeric fields must survive the round trip exactly"
    );
    let prov = reparsed.get("provenance").unwrap();
    assert_eq!(prov.get("jobs").unwrap().as_f64(), Some(1.0));
    let workloads: Vec<_> = prov
        .get("workloads")
        .unwrap()
        .as_array()
        .unwrap()
        .iter()
        .map(|w| w.as_str().unwrap())
        .collect();
    assert_eq!(workloads, ["lbm", "copy"]);
}

#[test]
fn csv_artifact_round_trips_through_the_parser() {
    let cli = test_cli(None);
    let artifact = find("fig03").unwrap().run_to_artifact(&cli);
    let rows = csv::parse(&artifact.to_csv()).expect("emitted CSV must parse");

    assert_eq!(rows[0], schema::CSV_COLUMNS, "header row pins the tidy layout");
    for row in &rows[1..] {
        assert_eq!(row.len(), schema::CSV_COLUMNS.len());
        assert_eq!(row[0], "fig03");
    }

    // Every table cell appears exactly once, in row-major order.
    let mut expected = Vec::new();
    for (name, table) in artifact.tables() {
        for table_row in table.rows() {
            let label = table_row.first().cloned().unwrap_or_default();
            for (column, value) in table.header().iter().zip(table_row) {
                expected.push(vec![
                    "fig03".to_string(),
                    name.to_string(),
                    label.clone(),
                    column.clone(),
                    value.clone(),
                ]);
            }
        }
    }
    let table_rows: Vec<_> = rows[1..]
        .iter()
        .filter(|r| !schema::CSV_RESERVED_TABLES.contains(&r[1].as_str()))
        .collect();
    assert_eq!(table_rows.len(), expected.len());
    for (got, want) in table_rows.iter().zip(&expected) {
        assert_eq!(*got, want);
    }

    // Record rows carry every schema field per run.
    let record_rows = rows[1..].iter().filter(|r| r[1] == "records").count();
    assert_eq!(record_rows, artifact.records.len() * schema::RUN_RECORD_FIELDS.len());
}

#[test]
fn written_artifact_files_parse_from_disk() {
    let tmp = TempDir::new("artifact-files");
    let cli = test_cli(None);
    let artifact = find("tab01").unwrap().run_to_artifact(&cli);
    let (json_name, csv_name) = write_artifact_files(&tmp.0, &artifact).unwrap();
    assert_eq!((json_name.as_str(), csv_name.as_str()), ("tab01.json", "tab01.csv"));

    let json_text = std::fs::read_to_string(tmp.0.join(&json_name)).unwrap();
    let parsed = Json::parse(&json_text).unwrap();
    assert_eq!(parsed.get("experiment").unwrap().as_str(), Some("tab01"));
    assert_eq!(parsed, artifact.to_json());

    let csv_text = std::fs::read_to_string(tmp.0.join(&csv_name)).unwrap();
    assert_eq!(csv::parse(&csv_text).unwrap()[0], schema::CSV_COLUMNS);
}

/// Renders the *shape* of a JSON document: every key path with its value
/// type, one line each, sorted. Array elements merge into one `[]` segment,
/// so the shape is independent of workload counts, timings and git state.
fn shape(json: &Json) -> Vec<String> {
    fn walk(json: &Json, path: &str, out: &mut Vec<String>) {
        match json {
            Json::Obj(pairs) => {
                for (key, value) in pairs {
                    let sub = if path.is_empty() { key.clone() } else { format!("{path}.{key}") };
                    walk(value, &sub, out);
                }
            }
            Json::Arr(items) => {
                for item in items {
                    walk(item, &format!("{path}[]"), out);
                }
                if items.is_empty() {
                    out.push(format!("{path}[]: (empty)"));
                }
            }
            Json::Null => out.push(format!("{path}: null-or-string")),
            Json::Str(_) => out.push(format!("{path}: null-or-string")),
            Json::Bool(_) => out.push(format!("{path}: bool")),
            Json::Num(_) => out.push(format!("{path}: number")),
        }
    }
    let mut out = Vec::new();
    walk(json, "", &mut out);
    out.sort();
    out.dedup();
    out
}

#[test]
fn summary_shape_matches_golden_file() {
    let tmp = TempDir::new("summary-golden");
    let cli = test_cli(Some(tmp.0.clone()));
    // tab10 is a --test-length experiment with real simulation records AND
    // a baseline-vs-variant delta, so the shape pins every summary field.
    let selected = select(Some("tab10")).unwrap();
    let summary = run_suite(&cli, &selected, |_, _, _| {});
    assert_eq!(summary.failed(), 0);

    let text = std::fs::read_to_string(tmp.0.join("summary.json")).unwrap();
    let parsed = Json::parse(&text).unwrap();
    let got = shape(&parsed).join("\n");
    let golden_path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/summary_shape.txt");
    if std::env::var_os("BARD_BLESS").is_some() {
        std::fs::write(golden_path, format!("{got}\n")).expect("write golden file");
    } else {
        let want = std::fs::read_to_string(golden_path).expect("golden file exists");
        assert_eq!(
            got,
            want.trim_end(),
            "summary.json shape changed — if intentional, bump \
             bard::report::schema::SCHEMA_VERSION, update docs/RESULTS.md and regenerate with \
             BARD_BLESS=1 cargo test -p bard-bench --test artifacts"
        );
    }

    // The per-experiment artifact referenced by the summary exists and parses.
    let entry = &parsed.get("experiments").unwrap().as_array().unwrap()[0];
    let artifact_name = entry.get("artifact_json").unwrap().as_str().unwrap();
    let artifact_text = std::fs::read_to_string(tmp.0.join(artifact_name)).unwrap();
    assert!(Json::parse(&artifact_text).is_ok());
}

/// Bad input is a usage error, not a panic: the experiment binaries,
/// `repro` and `trace` print the message and their usage line to stderr and
/// exit 2. A `trace` subcommand that runs and fails exits 1 instead.
#[test]
fn bad_arguments_exit_2_with_a_usage_message() {
    let fig03 = env!("CARGO_BIN_EXE_fig03_write_blp");
    let repro = env!("CARGO_BIN_EXE_repro");
    let trace = env!("CARGO_BIN_EXE_trace");
    let cases: [(&str, &[&str], &str); 13] = [
        (fig03, &["--test", "--workloads=mcf"], "unknown workload 'mcf'"),
        (fig03, &["--test", "--cores=eight"], "--cores=N needs a number"),
        (fig03, &["--test", "--cores=0"], "at least one core is required"),
        (fig03, &["--test", "--cores=65"], "exceeds the 64-core cap"),
        (repro, &["--test", "--cores=65"], "exceeds the 64-core cap"),
        (repro, &["--test", "--sched=scan"], "unknown argument '--sched=scan'"),
        (fig03, &["--test", "--trace-dir="], "--trace-dir=DIR needs a"),
        (fig03, &["--test", "--snapshot-dir="], "--snapshot-dir=DIR needs a"),
        (fig03, &["--test", "--out="], "--out=DIR needs a directory"),
        (repro, &["--test", "--out="], "--out=DIR needs a directory"),
        (trace, &["record", "--dir=", "--workloads=lbm", "--test"], "--dir=DIR needs a directory"),
        (trace, &["frobnicate"], "unknown subcommand 'frobnicate'"),
        (trace, &["record", "--dir=/tmp/x", "--cores=zz"], "--cores=N needs a number, got 'zz'"),
    ];
    for (bin, args, message) in cases {
        let out = std::process::Command::new(bin).args(args).output().unwrap();
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(stderr.contains(message), "{args:?}: {stderr}");
        assert!(stderr.contains("usage:"), "{args:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{args:?}: nothing may run before the usage error");
    }
    let out =
        std::process::Command::new(trace).args(["verify", "/nonexistent.btf"]).output().unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "a failed verify is not a usage error: {stderr}");
    assert!(stderr.contains("FAILED") && !stderr.contains("usage:"), "{stderr}");
}

#[test]
fn suite_isolates_panicking_experiments() {
    fn explode(_: &Cli, _: &mut bard::report::Artifact) {
        panic!("deliberate test explosion");
    }
    let boom = Experiment {
        id: "boom",
        display: "Boom",
        title: "always panics",
        section: "-",
        bin: "boom",
        banner: true,
        run: explode,
    };
    // Leak one registry entry so it gets the 'static lifetime run_suite wants.
    let boom: &'static Experiment = Box::leak(Box::new(boom));
    let cli = test_cli(None);
    let selected = vec![find("tab01").unwrap(), boom];
    let mut seen = Vec::new();
    let summary = run_suite(&cli, &selected, |i, n, o| seen.push((i, n, o.ok())));
    assert_eq!(seen, vec![(1, 2, true), (2, 2, false)]);
    assert_eq!(summary.failed(), 1);
    let failed = &summary.outcomes[1];
    assert_eq!(failed.error.as_deref(), Some("deliberate test explosion"));
    let json = summary.to_json();
    assert_eq!(json.get("failed").unwrap().as_f64(), Some(1.0));
}

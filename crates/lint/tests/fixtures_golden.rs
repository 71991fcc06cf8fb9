//! Golden test over the fixture tree: every pass must fire on its seeded
//! violation and stay silent on its tricky negative. The expected findings
//! live in `fixtures/golden_findings.txt`; regenerate with
//! `BARD_BLESS=1 cargo test -p bard-lint --test fixtures_golden`.

use std::fmt::Write as _;
use std::path::PathBuf;

use bard_lint::{run_all, Workspace};

fn fixture_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/ws")
}

fn golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/golden_findings.txt")
}

fn render() -> String {
    let ws = Workspace::load(&fixture_root()).expect("fixture tree loads");
    let report = run_all(&ws);
    let mut out = String::new();
    for f in &report.findings {
        writeln!(out, "{f}").unwrap();
    }
    writeln!(out, "allows_used={}", report.allows_used).unwrap();
    writeln!(out, "allows_unused={}", report.allows_unused).unwrap();
    out
}

#[test]
fn fixture_findings_match_golden() {
    let actual = render();
    if std::env::var_os("BARD_BLESS").is_some() {
        std::fs::write(golden_path(), &actual).expect("write golden");
        return;
    }
    let expected = std::fs::read_to_string(golden_path()).expect(
        "golden findings file missing; run BARD_BLESS=1 cargo test -p bard-lint --test \
         fixtures_golden",
    );
    assert_eq!(
        actual, expected,
        "fixture findings drifted from the golden file; if the change is intended, \
         re-bless with BARD_BLESS=1"
    );
}

#[test]
fn every_pass_fires_and_every_negative_stays_silent() {
    let ws = Workspace::load(&fixture_root()).expect("fixture tree loads");
    let report = run_all(&ws);
    let codes: Vec<&str> = report.findings.iter().map(|f| f.code).collect();
    // Each pass fires on its seeded violation...
    for code in ["D1", "S1", "T1", "R1", "U1", "A1", "A2"] {
        assert!(codes.contains(&code), "pass {code} never fired; findings: {codes:?}");
    }
    // ...and the tricky negatives stay silent:
    for f in &report.findings {
        // strings/comments/cfg(test)/macro bodies containing HashMap et al.
        assert!(!(f.file.ends_with("loc_negative.rs")), "tests/ file must be exempt: {f}");
        assert!(
            !(f.file.contains("crates/bench/src/lib.rs")),
            "bench harness must be exempt from T1: {f}"
        );
        if f.code == "D1" {
            assert!(
                f.file.ends_with("crates/core/src/lib.rs"),
                "D1 findings only from the D1 fixture: {f}"
            );
        }
    }
    // The negatives file regions: no D1 findings from negatives()'s custom
    // hashers or string/comment mentions (lines 21..=29), nor the macro or
    // cfg(test) blocks (lines 31..=48).
    for f in report.findings.iter().filter(|f| f.code == "D1") {
        assert!(f.line <= 18 || f.line >= 49, "D1 fired inside a negative region: {f}");
    }
    // Allowed-field negative: no S1 on `scratch`.
    for f in report.findings.iter().filter(|f| f.code == "S1") {
        assert!(!f.message.contains("`scratch`"), "S1 fired on an allow-annotated field: {f}");
    }
}

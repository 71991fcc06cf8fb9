//! The allow-annotation system.
//!
//! A finding is suppressed by writing, on the same line or the line above:
//!
//! ```text
//! // bard-lint: allow(D1) -- justification text here
//! ```
//!
//! The justification (`-- ...`) is mandatory; an allow without one is an
//! `A2` finding. Multiple codes may be listed: `allow(D1, T1)`. Each allow
//! covers exactly one code line: its own line when it trails code, else the
//! next non-blank code line. Allows that suppress nothing are `A1`
//! findings, so stale annotations rot loudly.
//!
//! A second annotation form marks a struct as snapshot state for the S1
//! pass even when its impl block carries no serialization fn itself:
//!
//! ```text
//! // bard-lint: snapshot-state(warm_image, image)
//! ```
//!
//! placed on the line above the struct definition, naming the coverage fns
//! (in the same file) whose bodies serialize the fields.

use std::cell::Cell;

use crate::findings::{Finding, Severity};
use crate::workspace::LintFile;

/// The set of valid lint codes an allow may name.
pub const CODES: &[&str] = &["D1", "S1", "T1", "R1", "U1"];

/// One parsed allow annotation.
#[derive(Debug)]
pub struct Allow {
    /// Codes this allow suppresses.
    pub codes: Vec<String>,
    /// 1-based line the annotation text sits on.
    pub line: usize,
    /// 1-based code line the annotation covers.
    pub covers: usize,
    /// True once the allow has suppressed at least one finding.
    pub used: Cell<bool>,
}

/// A `snapshot-state(...)` marker naming the coverage fns for a struct
/// defined on the next code line.
#[derive(Debug)]
pub struct SnapshotMarker {
    /// Coverage fn names.
    pub fns: Vec<String>,
    /// 1-based code line the marker covers (the struct definition line).
    pub covers: usize,
}

/// All annotations parsed from one file.
#[derive(Debug, Default)]
pub struct Annotations {
    /// Allow annotations.
    pub allows: Vec<Allow>,
    /// Snapshot-state markers.
    pub markers: Vec<SnapshotMarker>,
    /// Malformed annotations, reported as `A2`.
    pub malformed: Vec<Finding>,
}

impl Annotations {
    /// Parses every `bard-lint:` annotation in `file`.
    #[must_use]
    pub fn parse(file: &LintFile) -> Self {
        let mut out = Self::default();
        for (idx, comment) in file.src.comments.iter().enumerate() {
            let line = idx + 1;
            let Some(pos) = comment.find("bard-lint:") else { continue };
            let body = comment[pos + "bard-lint:".len()..].trim();
            if let Some(rest) = body.strip_prefix("allow") {
                match parse_allow(rest) {
                    Ok(codes) => {
                        let covers = covered_line(file, line);
                        out.allows.push(Allow { codes, line, covers, used: Cell::new(false) });
                    }
                    Err(msg) => out.malformed.push(Finding {
                        code: "A2",
                        severity: Severity::Error,
                        file: file.rel.clone(),
                        line,
                        message: msg,
                    }),
                }
            } else if let Some(rest) = body.strip_prefix("snapshot-state") {
                match parse_paren_list(rest) {
                    Some((names, _)) if !names.is_empty() => {
                        let covers = covered_line(file, line);
                        out.markers.push(SnapshotMarker { fns: names, covers });
                    }
                    _ => out.malformed.push(Finding {
                        code: "A2",
                        severity: Severity::Error,
                        file: file.rel.clone(),
                        line,
                        message: "malformed snapshot-state marker: expected \
                                  `snapshot-state(fn_a, fn_b)`"
                            .into(),
                    }),
                }
            } else {
                out.malformed.push(Finding {
                    code: "A2",
                    severity: Severity::Error,
                    file: file.rel.clone(),
                    line,
                    message: format!(
                        "unrecognized bard-lint annotation `{}`: expected \
                         `allow(<code>) -- <justification>` or `snapshot-state(...)`",
                        body.chars().take(40).collect::<String>()
                    ),
                });
            }
        }
        out
    }

    /// True when a finding with `code` at `line` is suppressed; marks the
    /// matching allow as used.
    pub fn suppresses(&self, code: &str, line: usize) -> bool {
        let mut hit = false;
        for allow in &self.allows {
            if allow.covers == line && allow.codes.iter().any(|c| c == code) {
                allow.used.set(true);
                hit = true;
            }
        }
        hit
    }

    /// The snapshot-state marker covering `line`, if any.
    #[must_use]
    pub fn marker_for(&self, line: usize) -> Option<&SnapshotMarker> {
        self.markers.iter().find(|m| m.covers == line)
    }
}

/// The code line an annotation on `line` covers: its own line when it has
/// code, else the next line that has code (skipping blank/comment-only and
/// attribute lines, so an allow can sit above `#[derive(...)]`).
fn covered_line(file: &LintFile, line: usize) -> usize {
    let has_code = |l: usize| !file.src.code_line(l).trim().is_empty();
    let is_attr = |l: usize| file.src.code_line(l).trim_start().starts_with('#');
    if has_code(line) {
        return line;
    }
    let mut l = line + 1;
    while l <= file.src.raw.len() {
        if has_code(l) && !is_attr(l) {
            return l;
        }
        l += 1;
    }
    line
}

/// Parses `(CODE[, CODE]) -- justification` after the `allow` keyword.
fn parse_allow(rest: &str) -> Result<Vec<String>, String> {
    let Some((codes, after)) = parse_paren_list(rest) else {
        return Err("malformed allow: expected `allow(<code>) -- <justification>`".into());
    };
    if codes.is_empty() {
        return Err("allow lists no codes".into());
    }
    for code in &codes {
        if !CODES.contains(&code.as_str()) {
            return Err(format!("allow names unknown code `{code}` (valid: {})", CODES.join(", ")));
        }
    }
    let after = after.trim_start();
    let Some(justification) = after.strip_prefix("--") else {
        return Err("allow is missing its `-- <justification>`".into());
    };
    if justification.trim().is_empty() {
        return Err("allow has an empty justification".into());
    }
    Ok(codes)
}

/// Parses a leading `(a, b, c)` list, returning the items and the text that
/// follows the closing paren.
fn parse_paren_list(rest: &str) -> Option<(Vec<String>, &str)> {
    let rest = rest.trim_start();
    let inner = rest.strip_prefix('(')?;
    let close = inner.find(')')?;
    let items = inner[..close]
        .split(',')
        .map(str::trim)
        .filter(|s| !s.is_empty())
        .map(str::to_owned)
        .collect();
    Some((items, &inner[close + 1..]))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workspace::Workspace;

    fn file(content: &str) -> Workspace {
        Workspace::from_sources(&[("crates/core/src/x.rs", content)])
    }

    #[test]
    fn trailing_allow_covers_its_own_line() {
        let ws =
            file("use x;\nlet m = HashMap::new(); // bard-lint: allow(D1) -- never iterated\n");
        let ann = Annotations::parse(&ws.files[0]);
        assert_eq!(ann.allows.len(), 1);
        assert_eq!(ann.allows[0].covers, 2);
        assert!(ann.suppresses("D1", 2));
        assert!(!ann.suppresses("T1", 2));
        assert!(ann.allows[0].used.get());
    }

    #[test]
    fn own_line_allow_covers_next_code_line() {
        let ws = file("// bard-lint: allow(S1) -- rebuilt on restore\n\n#[allow(dead_code)]\npub scratch: Vec<u64>,\n");
        let ann = Annotations::parse(&ws.files[0]);
        assert_eq!(ann.allows[0].covers, 4);
    }

    #[test]
    fn missing_justification_is_malformed() {
        let ws = file("// bard-lint: allow(D1)\nlet x = 1;\n");
        let ann = Annotations::parse(&ws.files[0]);
        assert!(ann.allows.is_empty());
        assert_eq!(ann.malformed.len(), 1);
        assert!(ann.malformed[0].message.contains("justification"));
    }

    #[test]
    fn unknown_code_is_malformed() {
        let ws = file("// bard-lint: allow(Z9) -- nope\nlet x = 1;\n");
        let ann = Annotations::parse(&ws.files[0]);
        assert_eq!(ann.malformed.len(), 1);
        assert!(ann.malformed[0].message.contains("Z9"));
    }

    #[test]
    fn multi_code_allow() {
        let ws = file("do_thing(); // bard-lint: allow(D1, T1) -- report path only\n");
        let ann = Annotations::parse(&ws.files[0]);
        assert!(ann.suppresses("D1", 1));
        assert!(ann.suppresses("T1", 1));
    }

    #[test]
    fn snapshot_marker_parses() {
        let ws = file("// bard-lint: snapshot-state(warm_image, image)\npub struct CoreCtx {\n    pub a: u64,\n}\n");
        let ann = Annotations::parse(&ws.files[0]);
        assert_eq!(ann.markers.len(), 1);
        assert_eq!(ann.markers[0].covers, 2);
        assert_eq!(ann.markers[0].fns, vec!["warm_image", "image"]);
    }

    #[test]
    fn annotation_inside_string_is_not_an_annotation() {
        let ws = file("let s = \"// bard-lint: allow(D1) -- fake\";\n");
        let ann = Annotations::parse(&ws.files[0]);
        assert!(ann.allows.is_empty());
        assert!(ann.malformed.is_empty());
    }
}

//! **S1 — snapshot field-coverage.** Every field of a struct that
//! participates in BSS1 snapshot images must be referenced by the code that
//! serializes that struct, or be explicitly annotated ephemeral. This turns
//! "added a field, forgot to code it" — the snapshot layer's scariest
//! silent-corruption bug — into a lint error at review time.
//!
//! A struct participates when either:
//!
//! * its own `impl` block defines a serialization fn (`image`,
//!   `warm_image`, `capture`, `restore`, ...) — the components code their
//!   own fields in place, one two-way `image` fn per type — coverage scope
//!   is the union of those fn bodies; or
//! * a `// bard-lint: snapshot-state(fn_a, fn_b)` marker above the struct
//!   names its coverage fns explicitly (for types serialized by a
//!   containing type's fns rather than their own impl).
//!
//! A field missing from its coverage scope needs
//! `// bard-lint: allow(S1) -- <why ephemeral>` on its definition line —
//! the justification doubles as documentation of the rebuild-on-restore
//! story for that field.

use std::collections::BTreeSet;

use crate::findings::{Finding, Severity};
use crate::items::StructDef;
use crate::passes::{AnnotationMap, Pass};
use crate::workspace::{LintFile, Workspace};

/// Serialization fn names whose presence in a struct's impl opts the
/// struct into field-coverage checking.
const COVER_FNS: &[&str] =
    &["image", "warm_image", "capture", "capture_warm", "restore", "restore_warm"];

/// The snapshot field-coverage pass.
pub struct SnapshotCoverage;

impl Pass for SnapshotCoverage {
    fn code(&self) -> &'static str {
        "S1"
    }

    fn name(&self) -> &'static str {
        "snapshot-coverage"
    }

    fn run(&self, ws: &Workspace, ann: &AnnotationMap, out: &mut Vec<Finding>) {
        let mut seen: BTreeSet<(String, usize)> = BTreeSet::new();
        for file in &ws.files {
            if file.file_test {
                continue;
            }
            for def in &file.items.structs {
                if def.test || def.fields.is_empty() {
                    continue;
                }
                // Own impl carries a serialization fn.
                let cover: Vec<_> = file
                    .items
                    .fns
                    .iter()
                    .filter(|f| {
                        f.owner.as_deref() == Some(def.name.as_str())
                            && COVER_FNS.contains(&f.name.as_str())
                    })
                    .collect();
                if !cover.is_empty() {
                    let mut scope = String::new();
                    for f in &cover {
                        if let Some((a, b)) = f.body {
                            scope.push_str(&file.src.code_range(a, b));
                        }
                    }
                    let label = format!(
                        "its serialization fns ({})",
                        cover.iter().map(|f| f.name.as_str()).collect::<Vec<_>>().join(", ")
                    );
                    check_fields(file, def, &scope, &label, out, &mut seen);
                }
                // Explicit snapshot-state marker.
                if let Some(marker) = ann.get(&file.rel).and_then(|a| a.marker_for(def.line)) {
                    let mut scope = String::new();
                    for f in &file.items.fns {
                        if marker.fns.iter().any(|m| m == &f.name) {
                            if let Some((a, b)) = f.body {
                                scope.push_str(&file.src.code_range(a, b));
                            }
                        }
                    }
                    let label = format!("marker fns ({})", marker.fns.join(", "));
                    check_fields(file, def, &scope, &label, out, &mut seen);
                }
            }
        }
    }
}

/// Emits a finding for every field of `def` that does not appear as a word
/// in `scope`. `seen` dedupes across the two rules (a field may be required
/// by both an own-impl fn and a marker; one finding per field line is
/// enough).
fn check_fields(
    file: &LintFile,
    def: &StructDef,
    scope: &str,
    scope_label: &str,
    out: &mut Vec<Finding>,
    seen: &mut BTreeSet<(String, usize)>,
) {
    for field in &def.fields {
        if contains_word(scope, &field.name) {
            continue;
        }
        if !seen.insert((file.rel.clone(), field.line)) {
            continue;
        }
        out.push(Finding {
            code: "S1",
            severity: Severity::Error,
            file: file.rel.clone(),
            line: field.line,
            message: format!(
                "field `{}` of snapshot-participating struct `{}` is not referenced by \
                 {scope_label}; serialize it or annotate \
                 `// bard-lint: allow(S1) -- <why it is rebuilt on restore>`",
                field.name, def.name
            ),
        });
    }
}

/// True when `word` occurs in `text` with non-identifier characters (or
/// boundaries) on both sides.
fn contains_word(text: &str, word: &str) -> bool {
    let bytes = text.as_bytes();
    let mut start = 0usize;
    while let Some(pos) = text[start..].find(word) {
        let at = start + pos;
        let before_ok = at == 0 || {
            let c = bytes[at - 1] as char;
            !c.is_alphanumeric() && c != '_'
        };
        let after = at + word.len();
        let after_ok = after >= bytes.len() || {
            let c = bytes[after] as char;
            !c.is_alphanumeric() && c != '_'
        };
        if before_ok && after_ok {
            return true;
        }
        start = at + 1;
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn word_boundaries() {
        assert!(contains_word("s.cycle = x", "cycle"));
        assert!(!contains_word("s.cycle_count = x", "cycle"));
        assert!(!contains_word("recycle(s)", "cycle"));
        assert!(contains_word("cycle", "cycle"));
    }
}

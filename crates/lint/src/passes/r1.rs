//! **R1 — reference-twin registry.** Every selectable fast path in the
//! simulator has a reference twin (today: step vs skip engine), and the
//! differential suite's `all_paths()` cross is the registry that keeps them
//! honest. This pass pins three facts statically:
//!
//! * every variant of every fast-path enum appears in the `all_paths()`
//!   body, and the cross is complete (`N == product of variant counts`,
//!   with each enum named exactly `N` times) — adding a third `EngineKind`
//!   variant without extending the cross fails here;
//! * every enum the snapshot digest normalizes as cosmetic (assigned in
//!   `full_digest`'s body — the in-code definition of "this knob must not
//!   change results") is one of the `all_paths()` tuple enums, so a new
//!   fast-path knob cannot be declared cosmetic without differential
//!   coverage;
//! * `all_paths` is actually consumed from test code in the differential
//!   crate — a registry nobody reads pins nothing.

use std::collections::BTreeMap;

use crate::findings::{Finding, Severity};
use crate::items::{EnumDef, FnDef};
use crate::passes::{AnnotationMap, Pass};
use crate::source::Tok;
use crate::workspace::{LintFile, Workspace};

/// The reference-twin-registry pass.
pub struct ReferenceTwinRegistry;

impl Pass for ReferenceTwinRegistry {
    fn code(&self) -> &'static str {
        "R1"
    }

    fn name(&self) -> &'static str {
        "reference-twin-registry"
    }

    fn run(&self, ws: &Workspace, _ann: &AnnotationMap, out: &mut Vec<Finding>) {
        // Enum definitions across the workspace, by name.
        let mut enums: BTreeMap<&str, &EnumDef> = BTreeMap::new();
        for file in &ws.files {
            for def in &file.items.enums {
                enums.entry(def.name.as_str()).or_insert(def);
            }
        }
        let registry = find_registry(ws);
        let path_enums: Vec<String> = match &registry {
            Some((file, fndef)) => {
                check_cross(file, fndef, &enums, out);
                tuple_enums(fndef, &enums)
            }
            None => Vec::new(),
        };
        check_digest_normalization(ws, &enums, &registry, &path_enums, out);
        if let Some((file, _)) = &registry {
            check_consumed(ws, file, out);
        }
    }
}

/// Locates `fn all_paths` in a `differential.rs` source file.
fn find_registry(ws: &Workspace) -> Option<(&LintFile, &FnDef)> {
    for file in &ws.files {
        if !file.rel.ends_with("differential.rs") {
            continue;
        }
        if let Some(f) = file.items.fns.iter().find(|f| f.name == "all_paths") {
            return Some((file, f));
        }
    }
    None
}

/// The workspace enums named in the registry's return-type tuple.
fn tuple_enums(fndef: &FnDef, enums: &BTreeMap<&str, &EnumDef>) -> Vec<String> {
    // The sig reads `fn all_paths() -> [EngineKind; 2]` (or a tuple of
    // knobs, `[(EngineKind, OtherKind); 4]`); any identifier in it that
    // names a workspace enum is a tuple member.
    sig_idents(&fndef.sig).into_iter().filter(|id| enums.contains_key(id.as_str())).collect()
}

/// Identifier words from a signature string, in order.
fn sig_idents(sig: &str) -> Vec<String> {
    let mut out = Vec::new();
    let mut cur = String::new();
    for c in sig.chars() {
        if c.is_alphanumeric() || c == '_' {
            cur.push(c);
        } else if !cur.is_empty() {
            out.push(std::mem::take(&mut cur));
        }
    }
    if !cur.is_empty() {
        out.push(cur);
    }
    out
}

/// The declared array length from the registry signature (`; N]`).
fn declared_len(fndef: &FnDef) -> Option<usize> {
    let sig = &fndef.sig;
    let semi = sig.rfind(';')?;
    let rest = sig[semi + 1..].trim_start();
    let digits: String = rest.chars().take_while(char::is_ascii_digit).collect();
    digits.parse().ok()
}

/// Checks the cross itself: completeness of variants, exact occurrence
/// counts, and `N == product of variant counts`.
fn check_cross(
    file: &LintFile,
    fndef: &FnDef,
    enums: &BTreeMap<&str, &EnumDef>,
    out: &mut Vec<Finding>,
) {
    let members = tuple_enums(fndef, enums);
    if members.is_empty() {
        out.push(Finding {
            code: "R1",
            severity: Severity::Error,
            file: file.rel.clone(),
            line: fndef.line,
            message: "`all_paths` return type names no known fast-path enums; the registry \
                      must cross every fast-path knob"
                .into(),
        });
        return;
    }
    let Some((body_start, body_end)) = fndef.body else { return };
    let Some(declared) = declared_len(fndef) else {
        out.push(Finding {
            code: "R1",
            severity: Severity::Error,
            file: file.rel.clone(),
            line: fndef.line,
            message: "`all_paths` must return a fixed-size array (`[(..); N]`) so the cross \
                      size is part of the signature"
                .into(),
        });
        return;
    };
    let expected: usize = members.iter().map(|m| enums[m.as_str()].variants.len()).product();
    if declared != expected {
        out.push(Finding {
            code: "R1",
            severity: Severity::Error,
            file: file.rel.clone(),
            line: fndef.line,
            message: format!(
                "`all_paths` declares {declared} paths but the full cross of ({}) has \
                 {expected}; a fast-path variant is missing from the registry",
                members.join(" x ")
            ),
        });
    }
    // Scan the body for `Enum::Variant` uses.
    let toks: Vec<_> =
        file.src.tokens.iter().filter(|t| t.line >= body_start && t.line <= body_end).collect();
    for member in &members {
        let def = enums[member.as_str()];
        let mut per_variant: BTreeMap<&str, usize> =
            def.variants.iter().map(|v| (v.as_str(), 0)).collect();
        let mut total = 0usize;
        for (i, t) in toks.iter().enumerate() {
            if !t.tok.is_ident(member) {
                continue;
            }
            if toks.get(i + 1).is_some_and(|t| t.tok.is_punct(':'))
                && toks.get(i + 2).is_some_and(|t| t.tok.is_punct(':'))
            {
                total += 1;
                if let Some(Tok::Ident(v)) = toks.get(i + 3).map(|t| &t.tok) {
                    if let Some(n) = per_variant.get_mut(v.as_str()) {
                        *n += 1;
                    }
                }
            }
        }
        for (variant, n) in &per_variant {
            if *n == 0 {
                out.push(Finding {
                    code: "R1",
                    severity: Severity::Error,
                    file: file.rel.clone(),
                    line: fndef.line,
                    message: format!(
                        "fast-path variant `{member}::{variant}` never appears in the \
                         `all_paths` cross; every variant needs differential coverage"
                    ),
                });
            }
        }
        if total != declared {
            out.push(Finding {
                code: "R1",
                severity: Severity::Error,
                file: file.rel.clone(),
                line: fndef.line,
                message: format!(
                    "`{member}` appears {total} times in the `all_paths` body but the cross \
                     declares {declared} paths; every path tuple must pin every knob \
                     explicitly"
                ),
            });
        }
    }
}

/// Every enum assigned in `full_digest`'s body (`c.engine = EngineKind::X`)
/// is cosmetic-by-decree and must be a registry tuple member.
fn check_digest_normalization(
    ws: &Workspace,
    enums: &BTreeMap<&str, &EnumDef>,
    registry: &Option<(&LintFile, &FnDef)>,
    path_enums: &[String],
    out: &mut Vec<Finding>,
) {
    for file in &ws.files {
        if !file.rel.ends_with("src/snapshot.rs") {
            continue;
        }
        let Some(digest) = file.items.fns.iter().find(|f| f.name == "full_digest") else {
            continue;
        };
        let Some((a, b)) = digest.body else { continue };
        let toks: Vec<_> = file.src.tokens.iter().filter(|t| t.line >= a && t.line <= b).collect();
        for (i, t) in toks.iter().enumerate() {
            // Pattern: `= EnumName :: Variant` — an assignment normalizing
            // a cosmetic knob before digesting. Comparisons (`==`, `!=`,
            // `<=`, `>=`) are not assignments.
            if !t.tok.is_punct('=') {
                continue;
            }
            if i > 0
                && matches!(
                    toks[i - 1].tok,
                    Tok::Punct('=' | '!' | '<' | '>' | '+' | '-' | '*' | '/')
                )
            {
                continue;
            }
            if toks.get(i + 1).is_some_and(|t| t.tok.is_punct('=')) {
                continue;
            }
            let Some(Tok::Ident(name)) = toks.get(i + 1).map(|t| &t.tok) else { continue };
            if !enums.contains_key(name.as_str()) {
                continue;
            }
            if !(toks.get(i + 2).is_some_and(|t| t.tok.is_punct(':'))
                && toks.get(i + 3).is_some_and(|t| t.tok.is_punct(':')))
            {
                continue;
            }
            if path_enums.iter().any(|p| p == name) {
                continue;
            }
            let message = if registry.is_some() {
                format!(
                    "`{name}` is normalized as cosmetic in `full_digest` but is not part of \
                     the `all_paths` differential cross; a knob that must not change results \
                     needs reference-twin coverage"
                )
            } else {
                format!(
                    "`{name}` is normalized as cosmetic in `full_digest` but no `all_paths` \
                     registry exists to give it differential coverage"
                )
            };
            out.push(Finding {
                code: "R1",
                severity: Severity::Error,
                file: file.rel.clone(),
                line: toks[i + 1].line,
                message,
            });
        }
    }
}

/// The registry must be consumed from test context in its own crate.
fn check_consumed(ws: &Workspace, registry_file: &LintFile, out: &mut Vec<Finding>) {
    let crate_name = registry_file.crate_name.clone();
    let consumed = ws.files.iter().any(|f| {
        f.crate_name == crate_name
            && f.rel != registry_file.rel
            && f.src
                .tokens
                .iter()
                .any(|t| t.tok.is_ident("all_paths") && (f.file_test || f.src.is_test_line(t.line)))
    });
    if !consumed {
        out.push(Finding {
            code: "R1",
            severity: Severity::Error,
            file: registry_file.rel.clone(),
            line: 1,
            message: "`all_paths` is never consumed from a test in the differential crate; \
                      the registry pins nothing unless the parity suites iterate it"
                .into(),
        });
    }
}

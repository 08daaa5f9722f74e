//! `asqp-analyze`: workspace-wide determinism & panic-safety static
//! analysis, wired into CI as a hard gate.
//!
//! The reproduction's headline guarantees — byte-identical Eq.-1 scores
//! across runs, byte-identical PPO parameters at any worker count,
//! replayable chaos transcripts — all rest on invariants that nothing
//! used to enforce: no wall-clock or ambient randomness in scored paths,
//! no `HashMap` iteration order leaking into rewards or reports, in-order
//! parallel reductions, no panics on the serve request path. This crate
//! makes those invariants machine-checked the way clippy makes style
//! machine-checked:
//!
//! * a hand-rolled, lossless Rust [lexer] (raw strings, nested
//!   block comments, lifetime vs. char-literal disambiguation);
//! * a path/scope-aware [engine] that knows each token's module
//!   path, enclosing function and `#[cfg(test)]` status;
//! * a tuned [rule set](rules) with rustc-style diagnostics, suppressible
//!   only via `// asqp::allow(rule_id): reason` pragmas that the tool
//!   itself validates (unused allows are errors).
//!
//! Run it as `cargo run -p asqp-analyze --release -- --workspace`
//! (human output) or with `--json` for the machine-readable report the
//! CI `analyze` job uploads.

pub mod callgraph;
pub mod diag;
pub mod engine;
pub mod lexer;
pub mod parse;
pub mod rules;
pub mod taint;

use callgraph::AllowTable;
use diag::{Finding, Report};
use parse::FileSummary;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// Stage A for one file: build the token model, extract the summary (fn
/// facts, calls, lock acquisitions, panic sites), run the token-local
/// rules and the taint pass, and fold malformed pragmas in as findings.
/// The result is a pure function of `(rel_path, src)`.
pub fn summarize_file(rel_path: &str, src: &str) -> FileSummary {
    let model = engine::build_model(rel_path, src);
    let mut sum = parse::summarize(&model);
    taint::annotate(&model, &mut sum, |m| rules::ITER_ORDER.covers(m));
    sum.local_findings.extend(rules::check_file(&model));
    for bad in &model.bad_pragmas {
        sum.local_findings.push(Finding {
            rule: "bad-pragma",
            path: rel_path.to_string(),
            line: bad.line,
            col: bad.col,
            message: bad.why.clone(),
            help: "pragmas are part of the audit trail: every suppression carries a rule id \
                   and a written justification"
                .to_string(),
        });
    }
    sum
}

/// Stage B: run the workspace-wide pass (call graph, lock graph, panic
/// and taint fixpoints) over the summaries, apply `asqp::allow`
/// suppression globally, and validate the pragmas themselves.
pub fn analyze_summaries(sums: &[FileSummary]) -> Report {
    let allows = AllowTable::build(sums);
    let mut findings: Vec<Finding> = Vec::new();
    for s in sums {
        findings.extend(s.local_findings.iter().cloned());
    }
    findings.extend(callgraph::check_workspace(sums, &allows));

    // Apply allow pragmas globally. Pragma-validation findings are not
    // themselves suppressible.
    findings.retain(|f| {
        matches!(f.rule, "bad-pragma" | "unused-allow" | "unused-audit")
            || !allows.suppressed(&f.path, f.rule, f.line)
    });

    let mut used = 0usize;
    for a in allows.entries() {
        if !rules::RULE_IDS.contains(&a.rule.as_str()) {
            findings.push(Finding {
                rule: "bad-pragma",
                path: a.path.clone(),
                line: a.line,
                col: a.col,
                message: format!("allow pragma names unknown rule `{}`", a.rule),
                help: format!("known rules: {}", rules::RULE_IDS.join(", ")),
            });
        } else if a.used.get() {
            used += 1;
        } else {
            findings.push(Finding {
                rule: "unused-allow",
                path: a.path.clone(),
                line: a.line,
                col: a.col,
                message: format!(
                    "`asqp::allow({})` suppresses nothing (targets line {})",
                    a.rule, a.target_line
                ),
                help: "stale allows hide future regressions — delete the pragma or move it \
                       next to the finding it justifies"
                    .to_string(),
            });
        }
    }

    let mut report = Report {
        findings,
        files_scanned: sums.len(),
        allows_used: used,
    };
    report.sort();
    report
}

/// Analyse a set of in-memory sources as one workspace.
pub fn analyze_sources(files: &[(&str, &str)]) -> Report {
    let sums: Vec<FileSummary> = files
        .iter()
        .map(|(rel, src)| summarize_file(rel, src))
        .collect();
    analyze_summaries(&sums)
}

/// Analyse one file's source under its workspace-relative path as a
/// single-file workspace (cross-file resolution sees only this file).
/// Returns the surviving findings plus how many allow pragmas were
/// honoured.
pub fn analyze_source(rel_path: &str, src: &str) -> (Vec<Finding>, usize) {
    let report = analyze_sources(&[(rel_path, src)]);
    (report.findings, report.allows_used)
}

/// Every `.rs` file the workspace gate scans: `src/` and `crates/*/src/`
/// (test, bench and example trees are exercised by their own test suites
/// and are exempt from the invariants by design; `third_party/` holds
/// vendored stand-ins we don't own). Paths come back workspace-relative,
/// sorted, `/`-separated.
pub fn workspace_files(root: &Path) -> io::Result<Vec<String>> {
    let mut out = Vec::new();
    let mut roots = vec![root.join("src")];
    let crates_dir = root.join("crates");
    if crates_dir.is_dir() {
        for entry in fs::read_dir(&crates_dir)? {
            let p = entry?.path().join("src");
            if p.is_dir() {
                roots.push(p);
            }
        }
    }
    for r in roots {
        collect_rs(&r, &mut out)?;
    }
    let mut rel: Vec<String> = out
        .iter()
        .filter_map(|p| {
            p.strip_prefix(root).ok().map(|r| {
                r.components()
                    .map(|c| c.as_os_str().to_string_lossy())
                    .collect::<Vec<_>>()
                    .join("/")
            })
        })
        .collect();
    rel.sort();
    Ok(rel)
}

fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    if !dir.is_dir() {
        return Ok(());
    }
    let mut entries: Vec<PathBuf> = fs::read_dir(dir)?
        .collect::<io::Result<Vec<_>>>()?
        .into_iter()
        .map(|e| e.path())
        .collect();
    entries.sort();
    for p in entries {
        if p.is_dir() {
            collect_rs(&p, out)?;
        } else if p.extension().is_some_and(|e| e == "rs") {
            out.push(p);
        }
    }
    Ok(())
}

/// Run the full workspace gate from a workspace root: Stage A over every
/// scanned file, then Stage B over the summaries.
pub fn analyze_workspace(root: &Path) -> io::Result<Report> {
    let mut sums = Vec::new();
    for rel in workspace_files(root)? {
        let src = fs::read_to_string(root.join(&rel))?;
        sums.push(summarize_file(&rel, &src));
    }
    Ok(analyze_summaries(&sums))
}

/// Walk upward from `start` to the directory whose `Cargo.toml` declares
/// `[workspace]`.
pub fn find_workspace_root(start: &Path) -> Option<PathBuf> {
    let mut cur = Some(start.to_path_buf());
    while let Some(dir) = cur {
        let manifest = dir.join("Cargo.toml");
        if manifest.is_file() {
            if let Ok(text) = fs::read_to_string(&manifest) {
                if text.contains("[workspace]") {
                    return Some(dir);
                }
            }
        }
        cur = dir.parent().map(Path::to_path_buf);
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn allow_pragma_suppresses_and_counts() {
        let src = "fn f() {\n\
                   // asqp::allow(nondet): timing is telemetry-gated, never scored\n\
                   let t = Instant::now();\n}\n";
        let (findings, used) = analyze_source("crates/core/src/metric.rs", src);
        assert!(findings.is_empty(), "{findings:?}");
        assert_eq!(used, 1);
    }

    #[test]
    fn unused_allow_is_an_error() {
        let src = "// asqp::allow(nondet): nothing here needs it\nfn f() {}\n";
        let (findings, _) = analyze_source("crates/core/src/metric.rs", src);
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].rule, "unused-allow");
    }

    #[test]
    fn unknown_rule_in_pragma_is_an_error() {
        let src = "// asqp::allow(no-such-rule): whatever\nfn f() {}\n";
        let (findings, _) = analyze_source("crates/core/src/metric.rs", src);
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].rule, "bad-pragma");
    }

    #[test]
    fn wrong_rule_id_does_not_suppress() {
        let src = "fn f() {\n\
                   // asqp::allow(iter-order): wrong rule for this finding\n\
                   let t = Instant::now();\n}\n";
        let (findings, _) = analyze_source("crates/core/src/metric.rs", src);
        // The nondet finding survives and the allow is reported unused.
        let rules: Vec<_> = findings.iter().map(|f| f.rule).collect();
        assert!(rules.contains(&"nondet"), "{findings:?}");
        assert!(rules.contains(&"unused-allow"), "{findings:?}");
    }
}

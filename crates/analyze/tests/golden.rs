//! Golden-file tests for the rule engine, plus the two end-to-end
//! guarantees the CI gate rests on:
//!
//! * the current tree is clean (`analyze_workspace` returns no findings —
//!   this makes `cargo test` itself a determinism gate), and
//! * the gate actually *fails* when a violation is seeded into a scored
//!   file (guards against the analyzer silently rotting into a no-op).
//!
//! Fixtures live in `tests/fixtures/`. Each is a Rust source whose first
//! line is `//@path: <virtual workspace path>` (rules are path-scoped) and
//! whose expected findings are marked compiletest-style with a trailing
//! `//~ ERROR <rule-id>` comment on the offending line. A fixture with no
//! markers asserts the analyzer stays *silent* on it.

use std::collections::BTreeMap;
use std::fs;
use std::path::{Path, PathBuf};

fn workspace_root() -> PathBuf {
    asqp_analyze::find_workspace_root(Path::new(env!("CARGO_MANIFEST_DIR")))
        .expect("analyze crate lives inside the workspace")
}

fn fixtures_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures")
}

/// Parse a fixture: virtual path from the `//@path:` header, expected
/// `(line, rule)` pairs from `//~ ERROR` markers.
fn parse_fixture(src: &str, name: &str) -> (String, BTreeMap<(usize, String), usize>) {
    let first = src.lines().next().unwrap_or_default();
    let vpath = first
        .strip_prefix("//@path:")
        .unwrap_or_else(|| panic!("{name}: first line must be `//@path: <virtual path>`"))
        .trim()
        .to_string();
    let mut expected: BTreeMap<(usize, String), usize> = BTreeMap::new();
    for (idx, line) in src.lines().enumerate() {
        if let Some(pos) = line.find("//~ ERROR ") {
            let rule = line[pos + "//~ ERROR ".len()..].trim().to_string();
            assert!(
                !rule.is_empty(),
                "{name}: empty rule in marker on line {}",
                idx + 1
            );
            *expected.entry((idx + 1, rule)).or_default() += 1;
        }
    }
    (vpath, expected)
}

fn check_fixture(path: &Path) {
    let name = path.file_name().unwrap().to_string_lossy().to_string();
    let src = fs::read_to_string(path).unwrap();
    let (vpath, expected) = parse_fixture(&src, &name);
    let (findings, _) = asqp_analyze::analyze_source(&vpath, &src);
    let mut actual: BTreeMap<(usize, String), usize> = BTreeMap::new();
    for f in &findings {
        *actual.entry((f.line, f.rule.to_string())).or_default() += 1;
    }
    assert_eq!(
        actual, expected,
        "{name}: findings diverge from //~ ERROR markers\nfull findings: {findings:#?}"
    );
}

/// A fixture *directory* is one virtual workspace: every `.rs` inside
/// carries its own `//@path:` header and the files are analysed together,
/// so interprocedural rules (transitive panic-path, cross-file lock
/// cycles) see the whole call graph.
fn check_fixture_dir(dir: &Path) {
    let name = dir.file_name().unwrap().to_string_lossy().to_string();
    let mut files: Vec<PathBuf> = fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|e| e == "rs"))
        .collect();
    files.sort();
    assert!(files.len() >= 2, "{name}: fixture dir needs >= 2 files");
    let mut sources: Vec<(String, String)> = Vec::new();
    let mut expected: BTreeMap<(String, usize, String), usize> = BTreeMap::new();
    for f in &files {
        let fname = f.file_name().unwrap().to_string_lossy().to_string();
        let src = fs::read_to_string(f).unwrap();
        let (vpath, marks) = parse_fixture(&src, &format!("{name}/{fname}"));
        for ((line, rule), count) in marks {
            *expected.entry((vpath.clone(), line, rule)).or_default() += count;
        }
        sources.push((vpath, src));
    }
    let refs: Vec<(&str, &str)> = sources
        .iter()
        .map(|(p, s)| (p.as_str(), s.as_str()))
        .collect();
    let report = asqp_analyze::analyze_sources(&refs);
    let mut actual: BTreeMap<(String, usize, String), usize> = BTreeMap::new();
    for f in &report.findings {
        *actual
            .entry((f.path.clone(), f.line, f.rule.to_string()))
            .or_default() += 1;
    }
    assert_eq!(
        actual, expected,
        "{name}: findings diverge from //~ ERROR markers\nfull findings: {:#?}",
        report.findings
    );
}

#[test]
fn golden_fixtures_match_their_markers() {
    let dir = fixtures_dir();
    let mut fixtures: Vec<PathBuf> = Vec::new();
    let mut dirs: Vec<PathBuf> = Vec::new();
    for e in fs::read_dir(&dir).unwrap() {
        let p = e.unwrap().path();
        if p.is_dir() {
            dirs.push(p);
        } else if p.extension().is_some_and(|e| e == "rs") {
            fixtures.push(p);
        }
    }
    fixtures.sort();
    dirs.sort();
    assert!(fixtures.len() >= 7, "fixture set shrank: {fixtures:?}");
    assert!(
        !dirs.is_empty(),
        "multi-file fixture dirs are part of the set"
    );
    for f in &fixtures {
        check_fixture(f);
    }
    for d in &dirs {
        check_fixture_dir(d);
    }
}

#[test]
fn workspace_is_clean() {
    // The same invariant the CI `analyze` job enforces, embedded in the
    // test suite: zero unsuppressed findings, zero unused allows.
    let report = asqp_analyze::analyze_workspace(&workspace_root()).unwrap();
    assert!(
        report.findings.is_empty(),
        "workspace has unsuppressed findings:\n{}",
        report.render_human()
    );
    assert!(report.files_scanned > 80, "scan set shrank unexpectedly");
}

#[test]
fn gate_fails_on_seeded_violation() {
    // Acceptance drill: take the *real* scoring module, seed a wall-clock
    // read into it, and prove the gate trips. If the lexer or the scope
    // matching regresses, this is the test that catches it.
    let root = workspace_root();
    let rel = "crates/core/src/metric.rs";
    let clean = fs::read_to_string(root.join(rel)).unwrap();
    let (before, _) = asqp_analyze::analyze_source(rel, &clean);
    assert!(
        before.is_empty(),
        "metric.rs should start clean: {before:?}"
    );

    // Inject after the first `{` that opens a non-test fn body.
    let inject = "\n    let _seeded = std::time::Instant::now();";
    let pos = clean
        .find("fn ")
        .and_then(|f| clean[f..].find('{').map(|b| f + b + 1))
        .expect("metric.rs has a function");
    let mut seeded = clean.clone();
    seeded.insert_str(pos, inject);

    let (after, _) = asqp_analyze::analyze_source(rel, &seeded);
    assert!(
        after.iter().any(|f| f.rule == "nondet"),
        "seeded Instant::now() must trip the nondet rule: {after:?}"
    );
}

#[test]
fn gate_fails_on_seeded_by_value_hash_iteration() {
    // The residual iter-order rule has no scope: a by-value `into_iter`
    // on a hash binding trips the gate in a module no other rule covers.
    let root = workspace_root();
    let rel = "crates/baselines/src/naive.rs";
    let clean = fs::read_to_string(root.join(rel)).unwrap();
    let (before, _) = asqp_analyze::analyze_source(rel, &clean);
    assert!(before.is_empty(), "naive.rs should start clean: {before:?}");

    let seeded = format!(
        "{clean}\nfn seeded_order(m: std::collections::HashMap<u32, u32>) -> Vec<u32> {{\n    \
         m.into_iter().map(|(k, _)| k).collect()\n}}\n"
    );
    let seeded_line = clean.lines().count() + 3;
    let (after, _) = asqp_analyze::analyze_source(rel, &seeded);
    let hits: Vec<_> = after.iter().map(|f| (f.rule, f.line)).collect();
    assert_eq!(
        hits,
        vec![("iter-order", seeded_line)],
        "seeded by-value hash iteration must trip iter-order: {after:?}"
    );
}

#[test]
fn gate_fails_on_seeded_lock_inversion() {
    // Acceptance drill for the interprocedural lock lint: inject a
    // `full_db` → `state` acquisition (the reverse of the documented
    // order) into the *real* session module and prove the gate trips.
    let root = workspace_root();
    let rel = "crates/core/src/session.rs";
    let clean = fs::read_to_string(root.join(rel)).unwrap();
    let (before, _) = asqp_analyze::analyze_source(rel, &clean);
    assert!(
        before.is_empty(),
        "session.rs should start clean: {before:?}"
    );

    let inject = "\n    fn seeded_inversion(&self) {\n        \
                  let db = self.full_db.write().unwrap_or_else(|p| p.into_inner());\n        \
                  let st = self.state.read().unwrap_or_else(|p| p.into_inner());\n        \
                  let _ = (&db, &st);\n    }\n";
    let pos = clean
        .find("impl Session {")
        .map(|p| p + "impl Session {".len())
        .expect("session.rs has an `impl Session` block");
    let mut seeded = clean.clone();
    seeded.insert_str(pos, inject);

    let (after, _) = asqp_analyze::analyze_source(rel, &seeded);
    assert!(
        after.iter().any(|f| f.rule == "lock-order"),
        "seeded reversed acquisition must trip the lock-order rule: {after:?}"
    );
}

#[test]
fn gate_fails_on_seeded_transitive_panic() {
    // Acceptance drill for transitive panic-freedom: the panic site lives
    // in a helper *outside* the PANIC scope; the real session module is
    // seeded with a call to it and the finding must land at that call.
    let root = workspace_root();
    let rel = "crates/core/src/session.rs";
    let clean = fs::read_to_string(root.join(rel)).unwrap();
    let helper_rel = "crates/core/src/seeded_util.rs";
    let helper = "pub fn seeded_risky_first(v: &[usize]) -> usize {\n    v[0]\n}\n";

    // The helper alone (uncalled, out of scope) must not trip anything.
    let report = asqp_analyze::analyze_sources(&[(rel, clean.as_str()), (helper_rel, helper)]);
    assert!(
        report.findings.is_empty(),
        "uncalled out-of-scope helper must stay silent:\n{}",
        report.render_human()
    );

    let inject = "\n    fn seeded_panic_probe(&self) -> usize {\n        \
                  crate::seeded_util::seeded_risky_first(&[])\n    }\n";
    let pos = clean
        .find("impl Session {")
        .map(|p| p + "impl Session {".len())
        .expect("session.rs has an `impl Session` block");
    let mut seeded = clean.clone();
    seeded.insert_str(pos, inject);

    let report = asqp_analyze::analyze_sources(&[(rel, seeded.as_str()), (helper_rel, helper)]);
    let hits: Vec<_> = report
        .findings
        .iter()
        .filter(|f| f.rule == "panic-path" && f.path == rel)
        .collect();
    assert!(
        !hits.is_empty(),
        "seeded call into a panicking helper must trip panic-path:\n{}",
        report.render_human()
    );
    assert!(
        hits.iter()
            .any(|f| f.message.contains("seeded_risky_first")),
        "the witness chain must name the panicking helper: {hits:?}"
    );
}

#[test]
fn seeded_violation_is_suppressible_with_pragma() {
    let root = workspace_root();
    let rel = "crates/core/src/metric.rs";
    let clean = fs::read_to_string(root.join(rel)).unwrap();
    let inject = "\n    // asqp::allow(nondet): test drill, justified\n    \
                  let _seeded = std::time::Instant::now();";
    let pos = clean
        .find("fn ")
        .and_then(|f| clean[f..].find('{').map(|b| f + b + 1))
        .expect("metric.rs has a function");
    let mut seeded = clean.clone();
    seeded.insert_str(pos, inject);
    let (findings, used) = asqp_analyze::analyze_source(rel, &seeded);
    assert!(findings.is_empty(), "{findings:?}");
    assert!(used >= 1, "the drill pragma must count as honoured");
}

#[test]
fn json_report_is_well_formed_and_stable() {
    let src = "fn f() { let t = Instant::now(); }\n";
    let (findings, _) = asqp_analyze::analyze_source("crates/core/src/metric.rs", src);
    let mut report = asqp_analyze::diag::Report {
        findings,
        files_scanned: 1,
        allows_used: 0,
    };
    report.sort();
    let json = report.render_json();
    // Hand-rolled writer: spot-check shape and key order stability.
    assert!(
        json.starts_with('{') && json.trim_end().ends_with('}'),
        "{json}"
    );
    assert!(json.contains("\"rule\": \"nondet\""), "{json}");
    assert!(
        json.contains("\"path\": \"crates/core/src/metric.rs\""),
        "{json}"
    );
    assert!(json.contains("\"files_scanned\": 1"), "{json}");
    let again = report.render_json();
    assert_eq!(json, again, "JSON rendering must be deterministic");
}

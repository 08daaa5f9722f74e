//! Scope-coverage audit: every module in the scored crates must be an
//! *explicit* decision in the rule scope tables.
//!
//! The failure mode this guards against: someone adds
//! `crates/serve/src/replay.rs`, the NONDET/PANIC tables never hear
//! about it, and the determinism gate silently doesn't apply to the new
//! request path. Each module under `crates/{core,db,serve}` must either
//! be covered by the scope (applies minus exempt), or appear in the
//! reviewed opt-out list below. A new module fails the audit until a
//! human decides which bucket it belongs in.

use std::collections::BTreeSet;
use std::path::Path;

use asqp_analyze::engine::file_module;
use asqp_analyze::rules::{Scope, NONDET, PANIC};

/// Reviewed opt-outs: modules the NONDET scope deliberately does not
/// score (no wall-clock/randomness hazard: pure data plumbing, typed
/// errors, config parsing) — with the session layer covered indirectly
/// through the metric/envs/exec scopes it delegates to.
const NONDET_OUT: &[&str] = &[
    "asqp_core::aggregates",
    "asqp_core::anaqp",
    "asqp_core::diversity",
    "asqp_core::estimator",
    "asqp_core::lib",
    "asqp_core::model",
    "asqp_core::preprocess",
    "asqp_core::session",
    "asqp_core::workload_synth",
    "asqp_db::catalog",
    "asqp_db::column",
    "asqp_db::csv",
    "asqp_db::error",
    "asqp_db::explain",
    "asqp_db::expr",
    "asqp_db::lib",
    "asqp_db::query",
    "asqp_db::schema",
    "asqp_db::sql",
    "asqp_db::sql_stmt",
    "asqp_db::stats",
    "asqp_db::table",
    "asqp_db::testkit",
    "asqp_db::value",
    "asqp_db::workload",
    "asqp_db::zonemap",
    "asqp_serve::backend",
    "asqp_serve::backoff",
    "asqp_serve::batch",
    "asqp_serve::bin",
    "asqp_serve::error",
    "asqp_serve::event",
    "asqp_serve::fault",
    "asqp_serve::lib",
    "asqp_serve::multitenant",
    "asqp_serve::queue",
];

/// Reviewed opt-outs for PANIC: core/db modules that are *not* the
/// serving request path (their panics are charged transitively to the
/// request-path callers by the interprocedural pass instead).
const PANIC_OUT: &[&str] = &[
    "asqp_core::aggregates",
    "asqp_core::anaqp",
    "asqp_core::diversity",
    "asqp_core::envs",
    "asqp_core::estimator",
    "asqp_core::lib",
    "asqp_core::metric",
    "asqp_core::model",
    "asqp_core::preprocess",
    "asqp_core::workload_synth",
    "asqp_db::catalog",
    "asqp_db::column",
    "asqp_db::csv",
    "asqp_db::error",
    "asqp_db::exec",
    "asqp_db::explain",
    "asqp_db::expr",
    "asqp_db::lib",
    "asqp_db::optimizer",
    "asqp_db::plan",
    "asqp_db::query",
    "asqp_db::schema",
    "asqp_db::sql",
    "asqp_db::sql_stmt",
    "asqp_db::stats",
    "asqp_db::table",
    "asqp_db::testkit",
    "asqp_db::value",
    "asqp_db::workload",
    "asqp_db::zonemap",
    "asqp_serve::bin",
];

/// Second-level module key for a workspace file: `asqp_db::exec` for
/// `crates/db/src/exec/aggregate.rs`, `asqp_core::lib` for the crate
/// root. One decision per module, not per file.
fn module_key(rel: &str) -> Option<String> {
    let m = file_module(rel)?;
    if !["asqp_core", "asqp_db", "asqp_serve"].contains(&m[0].as_str()) {
        return None;
    }
    Some(match m.len() {
        1 => format!("{}::lib", m[0]),
        _ => format!("{}::{}", m[0], m[1]),
    })
}

fn audit(name: &str, scope: &Scope, reviewed_out: &[&str], modules: &BTreeSet<String>) {
    let mut unaccounted = Vec::new();
    let mut stale = Vec::new();
    for key in modules {
        let segs: Vec<String> = key.split("::").map(str::to_string).collect();
        let covered = scope.covers(&segs);
        let opted_out = reviewed_out.contains(&key.as_str());
        if covered && opted_out {
            stale.push(key.clone());
        } else if !covered && !opted_out {
            unaccounted.push(key.clone());
        }
    }
    assert!(
        unaccounted.is_empty(),
        "{name}: new module(s) with no scope decision — add them to the \
         scope table in rules.rs or to the reviewed opt-out list in this \
         test: {unaccounted:?}"
    );
    assert!(
        stale.is_empty(),
        "{name}: opt-out list entries now covered by the scope table — \
         remove the stale entries: {stale:?}"
    );
}

#[test]
fn every_scored_crate_module_has_a_scope_decision() {
    let root = asqp_analyze::find_workspace_root(Path::new(env!("CARGO_MANIFEST_DIR")))
        .expect("analyze crate lives inside the workspace");
    let files = asqp_analyze::workspace_files(&root).unwrap();
    let modules: BTreeSet<String> = files.iter().filter_map(|f| module_key(f)).collect();
    assert!(
        modules.len() >= 20,
        "module inventory shrank suspiciously: {modules:?}"
    );
    audit("NONDET", &NONDET, NONDET_OUT, &modules);
    audit("PANIC", &PANIC, PANIC_OUT, &modules);
}

#[test]
fn opt_out_lists_track_real_modules() {
    // A typo'd or deleted module in an opt-out list is itself stale.
    let root = asqp_analyze::find_workspace_root(Path::new(env!("CARGO_MANIFEST_DIR")))
        .expect("analyze crate lives inside the workspace");
    let files = asqp_analyze::workspace_files(&root).unwrap();
    let modules: BTreeSet<String> = files.iter().filter_map(|f| module_key(f)).collect();
    for (name, list) in [("NONDET_OUT", NONDET_OUT), ("PANIC_OUT", PANIC_OUT)] {
        let ghosts: Vec<_> = list.iter().filter(|m| !modules.contains(**m)).collect();
        assert!(
            ghosts.is_empty(),
            "{name} lists modules that no longer exist: {ghosts:?}"
        );
    }
}

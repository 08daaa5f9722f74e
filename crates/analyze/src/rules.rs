//! The rule set. Each rule is scoped to the module paths where its
//! invariant is load-bearing (see DESIGN.md §10 for why each exists and
//! which PR established the invariant it guards):
//!
//! * `nondet` — no wall-clock or ambient randomness in scored paths
//!   (Eq.-1 scoring, environments, RL training, query execution). PR 1's
//!   byte-identical fig02 runs and PR 3's worker-count-invariant PPO both
//!   assume it.
//! * `iter-order` — no `HashMap`/`HashSet` iteration feeding scores,
//!   rewards or serialized reports; `BTreeMap`/`BTreeSet` iterate in key
//!   order (the fix PR 1 applied to VERD strata). Detection is
//!   taint-based (see `taint`) and chases helper returns through the
//!   call graph (see `callgraph`).
//! * `unordered-reduce` — scoped-thread fan-ins must carry an
//!   `// asqp::in-order-merge: …` marker documenting that the merge is
//!   performed in deterministic order (f32 addition is not associative;
//!   PR 3's sharded PPO relies on in-order reduction).
//! * `panic-path` — no `unwrap`/`expect`/`panic!`/indexing on the serve
//!   request path or in `core::session` routing — *transitively*: the
//!   call-graph pass (`callgraph`) propagates panic-freedom bottom-up, so
//!   calling into a panicky `asqp-db` helper is flagged at the call site.
//!   Every admitted request must resolve (PR 4's zero-lost-requests chaos
//!   contract). Per-fn `// asqp::panic-free-audited: <why>` is the escape
//!   hatch for callees the graph cannot see (trait objects, closures).
//! * `lock-order` — the workspace lock-acquisition graph (built from
//!   held-guard analysis in `parse` + the call graph) must be acyclic,
//!   and `core::session` must follow the documented
//!   `state` → `full_db` order ([`SESSION_LOCK_ORDER`], PR 8).
//! * `float-libm` — no libm-backed transcendental calls inside
//!   `nn::kernels`: libm results differ across platforms/versions, while
//!   the kernels promise bit-identical results across ISAs (PR 3's
//!   numerics contract; `tanh_approx` exists for exactly this reason).

use crate::diag::Finding;
use crate::engine::{module_matches, FileModel};
use crate::lexer::TokenKind;

/// All primary rule ids (pragma validation accepts exactly these).
pub const RULE_IDS: &[&str] = &[
    "nondet",
    "iter-order",
    "unordered-reduce",
    "panic-path",
    "float-libm",
    "lock-order",
];

pub struct Scope {
    pub applies: &'static [&'static str],
    pub exempt: &'static [&'static str],
}

impl Scope {
    pub fn covers(&self, module: &[String]) -> bool {
        self.applies.iter().any(|p| module_matches(module, p))
            && !self.exempt.iter().any(|p| module_matches(module, p))
    }
}

/// Scored paths: Eq.-1 metric, the GSL/DRP environments, all of RL
/// training, and query execution (cardinalities are rewards' raw input) —
/// including planning: a wall-clock or ambient-randomness dependence in the
/// optimizer would make join orders run-dependent.
pub const NONDET: Scope = Scope {
    applies: &[
        "asqp_core::metric",
        "asqp_core::envs",
        "asqp_rl",
        "asqp_db::exec",
        "asqp_db::plan",
        "asqp_db::optimizer",
        // Multi-tenant placement and the multi-tenant simulator must be
        // pure functions of the seed: a clock or ambient-randomness read
        // would break the byte-identical double-run gate.
        "asqp_serve::tenant",
        "asqp_serve::mt_sim",
        // The streaming driver's transcript is double-run byte-compared
        // in CI; every decision must be a pure function of the seed.
        "asqp_serve::stream",
        // The one request ladder takes time from its caller's seam, and
        // the event kernel and its one-shard scenario run on a virtual
        // clock: none of them may read a real one.
        "asqp_serve::ladder",
        "asqp_serve::kernel",
        "asqp_serve::sim",
    ],
    // Telemetry is timing-by-design; the fault planner is seeded and pure.
    exempt: &["asqp_telemetry", "asqp_serve::fault"],
};

/// Anywhere map/set iteration can reach scores, rewards, strata, training
/// inputs or serialized reports.
pub const ITER_ORDER: Scope = Scope {
    applies: &[
        "asqp_core::metric",
        "asqp_core::envs",
        "asqp_core::preprocess",
        "asqp_core::diversity",
        "asqp_core::aggregates",
        "asqp_core::estimator",
        "asqp_rl",
        "asqp_db::exec",
        "asqp_db::plan",
        "asqp_db::optimizer",
        "asqp_db::stats",
        "asqp_telemetry",
        "asqp_bench",
        // Multi-tenant accounting renders transcripts that CI diffs
        // byte-for-byte; map iteration feeding them must be ordered.
        "asqp_serve::tenant",
        "asqp_serve::batch",
        "asqp_serve::multitenant",
        "asqp_serve::mt_sim",
        "asqp_serve::stream",
        "asqp_serve::ladder",
        "asqp_serve::kernel",
        "asqp_serve::sim",
    ],
    exempt: &[],
};

/// Compute crates that fan work out across threads and merge numeric
/// results.
pub const REDUCE: Scope = Scope {
    applies: &["asqp_db", "asqp_rl", "asqp_core", "asqp_nn"],
    exempt: &[],
};

/// The serving request path: every admitted request must resolve.
pub const PANIC: Scope = Scope {
    applies: &["asqp_serve", "asqp_core::session"],
    // The replay binary is operator tooling, not the request path.
    exempt: &["asqp_serve::bin"],
};

pub const FLOAT: Scope = Scope {
    applies: &["asqp_nn::kernels"],
    exempt: &[],
};

/// The documented session lock order (PR 8, `core::session`): when both
/// are taken nested, `state` is acquired **before** `full_db`. The
/// lock-order rule flags any acquisition of an earlier field while a
/// later one is held, within these modules.
pub struct LockOrderPolicy {
    /// Modules the documented order binds.
    pub modules: &'static [&'static str],
    /// Fields in must-acquire order (earlier before later).
    pub order: &'static [&'static str],
}

pub const SESSION_LOCK_ORDER: LockOrderPolicy = LockOrderPolicy {
    modules: &["asqp_core::session"],
    order: &["state", "full_db"],
};

const NONDET_IDENTS: &[&str] = &[
    "SystemTime",
    "thread_rng",
    "from_entropy",
    "from_os_rng",
    "OsRng",
    // std's per-process random hasher seed: ambient randomness by name.
    "RandomState",
];

/// libm-backed `f32`/`f64` methods whose results are platform-dependent.
/// (`sqrt` and `mul_add` are IEEE-exact and allowed.)
const LIBM_METHODS: &[&str] = &[
    "tanh", "sinh", "cosh", "exp", "exp2", "exp_m1", "ln", "ln_1p", "log", "log2", "log10", "sin",
    "cos", "tan", "asin", "acos", "atan", "atan2", "asinh", "acosh", "atanh", "powf", "cbrt",
    "hypot",
];

/// Run the purely token-local rules (nondet, unordered-reduce,
/// float-libm) over one file model. Findings come back unsuppressed; the
/// driver applies `asqp::allow` pragmas afterwards. The interprocedural
/// rules (iter-order, panic-path, lock-order) live in `taint` and
/// `callgraph` and run over [`crate::parse::FileSummary`] facts instead.
pub fn check_file(model: &FileModel<'_>) -> Vec<Finding> {
    let mut out = Vec::new();
    let n = model.sig.len();
    let text = |i: usize| model.sig_text(i);
    let kind = |i: usize| model.sig_kind(i);

    let mut push = |i: usize, rule: &'static str, message: String, help: String| {
        let (line, col) = model.sig_pos(i);
        out.push(Finding {
            rule,
            path: model.rel_path.clone(),
            line,
            col,
            message,
            help,
        });
    };

    for i in 0..n {
        if model.ctx[i].in_test {
            continue;
        }
        let module = model.module_of(i);
        let mpath = module.join("::");

        // ---- nondet ---------------------------------------------------
        if NONDET.covers(module) {
            // `::` lexes as two `:` puncts, so the path is four tokens.
            if text(i) == "Instant"
                && i + 3 < n
                && text(i + 1) == ":"
                && text(i + 2) == ":"
                && text(i + 3) == "now"
            {
                push(
                    i,
                    "nondet",
                    format!("`Instant::now()` in scored path `{mpath}`"),
                    "wall-clock time must not reach scores/rewards; pass timings in, gate \
                     behind telemetry, or justify with `// asqp::allow(nondet): <reason>`"
                        .to_string(),
                );
            }
            if kind(i) == TokenKind::Ident && NONDET_IDENTS.contains(&text(i)) {
                push(
                    i,
                    "nondet",
                    format!("ambient entropy `{}` in scored path `{mpath}`", text(i)),
                    "seed explicitly (`SeedableRng::seed_from_u64`) so runs replay \
                     byte-identically, or justify with `// asqp::allow(nondet): <reason>`"
                        .to_string(),
                );
            }
            if text(i) == "rand"
                && i + 3 < n
                && text(i + 1) == ":"
                && text(i + 2) == ":"
                && text(i + 3) == "random"
            {
                push(
                    i,
                    "nondet",
                    format!("argless `rand::random` in scored path `{mpath}`"),
                    "draw from an explicitly seeded RNG instead".to_string(),
                );
            }
        }

        // ---- unordered-reduce -----------------------------------------
        if REDUCE.covers(module)
            && text(i) == "spawn"
            && kind(i) == TokenKind::Ident
            && i + 1 < n
            && text(i + 1) == "("
            && !model.marker_in_same_fn(i)
        {
            push(
                i,
                "unordered-reduce",
                format!("thread fan-out without an in-order merge marker in `{mpath}`"),
                "if results are merged, join handles in spawn order and mark the function \
                 with `// asqp::in-order-merge: <why the merge is ordered>`; otherwise \
                 justify with `// asqp::allow(unordered-reduce): <reason>`"
                    .to_string(),
            );
        }

        // ---- float-libm ------------------------------------------------
        if FLOAT.covers(module)
            && text(i) == "."
            && i + 2 < n
            && LIBM_METHODS.contains(&text(i + 1))
            && text(i + 2) == "("
        {
            push(
                i + 1,
                "float-libm",
                format!(
                    "libm-backed `.{}()` inside `{mpath}` — results vary across \
                     platforms/libm versions",
                    text(i + 1)
                ),
                "kernels promise bit-identical results across ISAs: use an exact polynomial \
                 / rational approximation (see `tanh_approx`) or hoist the call out of the \
                 kernel crate"
                    .to_string(),
            );
        }
    }

    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::build_model;

    fn findings(path: &str, src: &str) -> Vec<(String, usize)> {
        let model = build_model(path, src);
        check_file(&model)
            .into_iter()
            .map(|f| (f.rule.to_string(), f.line))
            .collect()
    }

    #[test]
    fn instant_now_flagged_only_in_scope() {
        let src = "fn f() { let t = Instant::now(); }\n";
        assert_eq!(findings("crates/core/src/metric.rs", src).len(), 1);
        assert_eq!(findings("crates/rl/src/trainer.rs", src).len(), 1);
        // session is outside the nondet scope (its latency telemetry is
        // wall-clock by design).
        assert!(findings("crates/core/src/session.rs", src).is_empty());
    }

    #[test]
    fn nondet_skips_tests_and_telemetry() {
        let src = "#[cfg(test)]\nmod tests { fn f() { let t = Instant::now(); } }\n";
        assert!(findings("crates/core/src/metric.rs", src).is_empty());
        let live = "fn f() { let t = Instant::now(); }\n";
        assert!(findings("crates/telemetry/src/lib.rs", live).is_empty());
    }

    #[test]
    fn random_state_is_ambient_entropy() {
        let src = "fn seed() -> u64 {\n    \
                       std::collections::hash_map::RandomState::new().hash_one(0u64)\n}\n";
        let fs = findings("crates/db/src/exec/join.rs", src);
        assert_eq!(fs, vec![("nondet".to_string(), 2)]);
        // The catalog's caches are outside the scored paths.
        assert!(findings("crates/db/src/catalog.rs", src).is_empty());
    }

    /// Full single-file pipeline (summaries + taint + call graph), for
    /// the rules that moved out of `check_file`.
    fn full(path: &str, src: &str) -> Vec<(String, usize)> {
        crate::analyze_source(path, src)
            .0
            .into_iter()
            .map(|f| (f.rule.to_string(), f.line))
            .collect()
    }

    #[test]
    fn hash_iteration_flagged() {
        let src = "use std::collections::HashMap;\n\
                   fn f() {\n\
                       let mut m: HashMap<u32, u32> = HashMap::new();\n\
                       for (k, v) in &m { score(k, v); }\n\
                       let ok = m.get(&1);\n\
                   }\n";
        let fs = full("crates/core/src/metric.rs", src);
        assert_eq!(fs, vec![("iter-order".to_string(), 4)], "{fs:?}");
    }

    #[test]
    fn drain_then_sort_is_clean_under_taint() {
        // The pattern the old same-scope heuristic forced a pragma onto:
        // drain into a Vec, sort immediately, use freely.
        let src = "use std::collections::HashMap;\n\
                   fn f(m: &mut HashMap<u32, u32>) {\n\
                       let mut v: Vec<_> = m.drain().collect();\n\
                       v.sort();\n\
                       emit(v);\n\
                   }\n";
        assert!(full("crates/core/src/metric.rs", src).is_empty());
    }

    #[test]
    fn lookup_only_hashmap_is_fine() {
        let src = "use std::collections::HashMap;\n\
                   fn f(m: &HashMap<u32, u32>) -> Option<&u32> { m.get(&1) }\n";
        assert!(full("crates/db/src/exec.rs", src).is_empty());
    }

    #[test]
    fn spawn_requires_marker() {
        let bare = "fn fan_out(s: &S) { s.spawn(|| work()); }\n";
        let fs = findings("crates/rl/src/trainer.rs", bare);
        assert_eq!(fs, vec![("unordered-reduce".to_string(), 1)]);

        let marked = "fn fan_out(s: &S) {\n\
                      // asqp::in-order-merge: handles joined in spawn order below\n\
                      s.spawn(|| work());\n}\n";
        assert!(findings("crates/rl/src/trainer.rs", marked).is_empty());
    }

    #[test]
    fn panic_path_catches_unwrap_expect_macros_indexing() {
        let src = "fn handle(v: &[u8]) {\n\
                       let a = v.first().unwrap();\n\
                       let b = lock().expect(\"poisoned\");\n\
                       if bad { panic!(\"no\"); }\n\
                       let c = v[0];\n\
                   }\n";
        let fs = full("crates/serve/src/multitenant.rs", src);
        let rules: Vec<_> = fs.iter().map(|(r, _)| r.as_str()).collect();
        assert_eq!(rules, vec!["panic-path"; 4], "{fs:?}");
        // …but the replay binary is exempt.
        assert!(full("crates/serve/src/bin/replay.rs", src).is_empty());
    }

    #[test]
    fn unwrap_or_else_is_not_flagged() {
        let src = "fn f() { let g = m.lock().unwrap_or_else(|p| p.into_inner()); }\n";
        assert!(full("crates/serve/src/queue.rs", src).is_empty());
    }

    #[test]
    fn attribute_brackets_are_not_indexing() {
        let src = "#[derive(Debug)]\nstruct S { x: [u8; 4] }\nfn f(s: &S) -> u8 { s.x[0] }\n";
        let fs = full("crates/serve/src/error.rs", src);
        assert_eq!(fs.len(), 1, "only the real indexing: {fs:?}");
        assert_eq!(fs[0].1, 3);
    }

    #[test]
    fn float_libm_only_inside_kernels() {
        let src = "fn act(x: f32) -> f32 { x.tanh() }\n";
        assert_eq!(findings("crates/nn/src/kernels.rs", src).len(), 1);
        assert!(findings("crates/nn/src/func.rs", src).is_empty());
        // sqrt is IEEE-exact: allowed even in kernels.
        let sqrt = "fn norm(x: f32) -> f32 { x.sqrt() }\n";
        assert!(findings("crates/nn/src/kernels.rs", sqrt).is_empty());
    }
}

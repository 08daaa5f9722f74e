//! Stage B: the workspace call graph and the interprocedural rules.
//!
//! Consumes the per-file [`FileSummary`] facts and runs two fixpoints
//! over the resolved graph:
//!
//! * `locks_touched` — which named lock fields each fn can acquire,
//!   directly or through callees; combined with the held-guard sets from
//!   Stage A this yields the workspace **lock-acquisition graph**. Any
//!   edge violating the documented `state → full_db` order
//!   ([`rules::SESSION_LOCK_ORDER`]) and any cycle in the graph is a
//!   `lock-order` finding.
//! * `can_panic` — bottom-up panic-freedom. Fns in the PANIC scope may
//!   not call *any* resolved callee that can reach `unwrap`/`expect`/
//!   panic-family macros/indexing, unless the callee carries a
//!   `// asqp::panic-free-audited:` pragma or the offending site is
//!   suppressed with `asqp::allow(panic-path)`.
//!
//! Call resolution is name-based (DESIGN.md §14): `self.f()` resolves
//! within the impl owner, `Type::f()`/`module::f()` by qualifier, bare
//! `f()` among free fns, and `recv.f()` among methods by name — except
//! names that shadow std container/primitive methods (`len`, `get`,
//! `clone`, …), which only resolve through an owner or qualifier. Trait
//! objects and closures are invisible; the audit pragma is the escape.

use crate::diag::Finding;
use crate::parse::{CallKind, FileSummary, FnFact};
use crate::rules;
use std::cell::Cell;
use std::collections::{BTreeMap, BTreeSet};

/// Workspace-wide `asqp::allow` pragma table with usage accounting.
pub struct AllowTable {
    entries: Vec<AllowEntry>,
}

pub struct AllowEntry {
    pub path: String,
    pub rule: String,
    pub line: usize,
    pub col: usize,
    pub target_line: usize,
    pub used: Cell<bool>,
}

impl AllowTable {
    pub fn build(sums: &[FileSummary]) -> Self {
        let mut entries = Vec::new();
        for s in sums {
            for a in &s.allows {
                entries.push(AllowEntry {
                    path: s.rel_path.clone(),
                    rule: a.rule.clone(),
                    line: a.line,
                    col: a.col,
                    target_line: a.target_line,
                    used: Cell::new(false),
                });
            }
        }
        AllowTable { entries }
    }

    /// Is a finding of `rule` at `path:line` suppressed? Marks the pragma
    /// used.
    pub fn suppressed(&self, path: &str, rule: &str, line: usize) -> bool {
        let mut hit = false;
        for e in &self.entries {
            if e.rule == rule && e.target_line == line && e.path == path {
                e.used.set(true);
                hit = true;
            }
        }
        hit
    }

    pub fn entries(&self) -> &[AllowEntry] {
        &self.entries
    }
}

/// A fn reference: (file index, fn index).
type FnRef = (usize, usize);

/// Method names that shadow std container/primitive methods: resolving a
/// bare `recv.name()` to a workspace fn of the same name would be wrong
/// far more often than right, so these require an owner or qualifier.
const STD_SHADOWED: &[&str] = &[
    "clone",
    "len",
    "get",
    "push",
    "pop",
    "insert",
    "remove",
    "iter",
    "into_iter",
    "next",
    "is_empty",
    "contains",
    "contains_key",
    "extend",
    "clear",
    "drain",
    "as_str",
    "as_ref",
    "to_string",
    "fmt",
    "eq",
    "ne",
    "cmp",
    "partial_cmp",
    "hash",
    "default",
    "from",
    "into",
    "write",
    "read",
    "flush",
    "take",
    "min",
    "max",
    "sum",
    "count",
    "find",
    "map",
    "filter",
    "fold",
    "collect",
    "get_mut",
    "split",
    "join",
    "name",
    "clear_cache",
];

struct Index<'a> {
    sums: &'a [FileSummary],
    refs: Vec<FnRef>,
    /// (owner, name) → fn refs.
    by_owner: BTreeMap<(String, String), Vec<usize>>,
    /// name → method refs (has_self).
    by_method: BTreeMap<String, Vec<usize>>,
    /// name → free-fn refs (no owner).
    by_free: BTreeMap<String, Vec<usize>>,
    /// name → all refs (for module-qualified resolution).
    by_name: BTreeMap<String, Vec<usize>>,
}

impl<'a> Index<'a> {
    fn build(sums: &'a [FileSummary]) -> Self {
        let mut ix = Index {
            sums,
            refs: Vec::new(),
            by_owner: BTreeMap::new(),
            by_method: BTreeMap::new(),
            by_free: BTreeMap::new(),
            by_name: BTreeMap::new(),
        };
        for (fi, s) in sums.iter().enumerate() {
            for (gi, f) in s.fns.iter().enumerate() {
                if f.is_test {
                    continue;
                }
                let r = ix.refs.len();
                ix.refs.push((fi, gi));
                ix.by_name.entry(f.name.clone()).or_default().push(r);
                if !f.owner.is_empty() {
                    ix.by_owner
                        .entry((f.owner.clone(), f.name.clone()))
                        .or_default()
                        .push(r);
                }
                if f.has_self {
                    ix.by_method.entry(f.name.clone()).or_default().push(r);
                } else if f.owner.is_empty() {
                    ix.by_free.entry(f.name.clone()).or_default().push(r);
                }
            }
        }
        ix
    }

    fn fact(&self, r: usize) -> &'a FnFact {
        let (fi, gi) = self.refs[r];
        &self.sums[fi].fns[gi]
    }

    fn path(&self, r: usize) -> &'a str {
        &self.sums[self.refs[r].0].rel_path
    }

    /// Resolve one call from `caller` to candidate workspace fns.
    /// Deterministic (index order); empty = external / unresolvable.
    fn resolve(&self, caller: &FnFact, kind: CallKind, name: &str, qual: &str) -> Vec<usize> {
        match kind {
            CallKind::SelfDot => {
                if caller.owner.is_empty() {
                    return Vec::new();
                }
                self.by_owner
                    .get(&(caller.owner.clone(), name.to_string()))
                    .cloned()
                    .unwrap_or_default()
            }
            CallKind::Method => {
                if STD_SHADOWED.contains(&name) {
                    return Vec::new();
                }
                let cands = self.by_method.get(name).cloned().unwrap_or_default();
                // Receiver types are unknown, so by-name resolution is only
                // trustworthy when exactly one impl owner defines the method.
                // Ambiguous names (e.g. `data_fingerprint` on Database,
                // Session, and LiveBackend) would otherwise fabricate
                // call edges — and phantom lock cycles — between unrelated
                // types. Treated as external; documented blind spot.
                let mut owners: Vec<&str> =
                    cands.iter().map(|&r| self.fact(r).owner.as_str()).collect();
                owners.sort_unstable();
                owners.dedup();
                if owners.len() > 1 {
                    return Vec::new();
                }
                cands
            }
            CallKind::Free => self.by_free.get(name).cloned().unwrap_or_default(),
            CallKind::Qualified => {
                if let Some(v) = self.by_owner.get(&(qual.to_string(), name.to_string())) {
                    return v.clone();
                }
                // Module-qualified: `session::helper(…)`, `exec::run(…)`.
                let cands = self.by_name.get(name).cloned().unwrap_or_default();
                cands
                    .into_iter()
                    .filter(|&r| {
                        let m = &self.fact(r).module;
                        m.iter()
                            .any(|seg| seg == qual || *seg == format!("asqp_{qual}"))
                    })
                    .collect()
            }
        }
    }
}

/// Qualify a lock field by the impl owner so two types' same-named lock
/// fields (`Session.state`, `AdmissionQueue.state`) are distinct graph nodes.
fn lock_node(owner: &str, field: &str) -> String {
    if owner.is_empty() {
        field.to_string()
    } else {
        format!("{owner}.{field}")
    }
}

fn field_of(node: &str) -> &str {
    node.rsplit('.').next().unwrap_or(node)
}

/// One edge in the lock-acquisition graph, with its witness site.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
struct LockEdge {
    from: String,
    to: String,
    path: String,
    line: usize,
    col: usize,
    module: Vec<String>,
}

/// Run all interprocedural rules over the workspace summaries.
pub fn check_workspace(sums: &[FileSummary], allows: &AllowTable) -> Vec<Finding> {
    let ix = Index::build(sums);
    let n = ix.refs.len();

    // Pre-resolve every call once: resolved[r][c] = callee refs.
    let resolved: Vec<Vec<Vec<usize>>> = (0..n)
        .map(|r| {
            let f = ix.fact(r);
            f.calls
                .iter()
                .map(|c| ix.resolve(f, c.kind, &c.name, &c.qual))
                .collect()
        })
        .collect();

    // Guard accessors: fn → lock node its returned guard holds.
    let guard_of: Vec<Option<String>> = (0..n)
        .map(|r| {
            let f = ix.fact(r);
            if f.returns_guard {
                f.acqs.first().map(|a| lock_node(&f.owner, &a.field))
            } else {
                None
            }
        })
        .collect();

    // Resolve a held-call name from fn r to a guard node, if the callee
    // is a guard-returning accessor.
    let held_call_node = |r: usize, name: &str| -> Option<String> {
        let f = ix.fact(r);
        for kind in [CallKind::SelfDot, CallKind::Method] {
            for cand in ix.resolve(f, kind, name, "") {
                if let Some(g) = &guard_of[cand] {
                    return Some(g.clone());
                }
            }
        }
        None
    };

    // ---- fixpoint 1: locks_touched ------------------------------------
    let mut touched: Vec<BTreeSet<String>> = (0..n)
        .map(|r| {
            let f = ix.fact(r);
            f.acqs
                .iter()
                .map(|a| lock_node(&f.owner, &a.field))
                .collect()
        })
        .collect();
    loop {
        let mut changed = false;
        for r in 0..n {
            let mut add: Vec<String> = Vec::new();
            for callees in &resolved[r] {
                for &c in callees {
                    for t in &touched[c] {
                        if !touched[r].contains(t) {
                            add.push(t.clone());
                        }
                    }
                }
            }
            for t in add {
                touched[r].insert(t);
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }

    // ---- fixpoint 2: can_panic ----------------------------------------
    // Witness: either a direct site or the first panicky callee.
    #[derive(Clone)]
    enum Why {
        Direct(String, usize),
        Via(usize),
    }
    let mut can_panic: Vec<Option<Why>> = (0..n)
        .map(|r| {
            let f = ix.fact(r);
            if f.audited {
                return None;
            }
            f.panics
                .iter()
                .find(|p| !allows.suppressed(ix.path(r), "panic-path", p.line))
                .map(|p| Why::Direct(p.what.clone(), p.line))
        })
        .collect();
    loop {
        let mut changed = false;
        for r in 0..n {
            if can_panic[r].is_some() || ix.fact(r).audited {
                continue;
            }
            'calls: for callees in &resolved[r] {
                for &c in callees {
                    if can_panic[c].is_some() {
                        can_panic[r] = Some(Why::Via(c));
                        changed = true;
                        break 'calls;
                    }
                }
            }
        }
        if !changed {
            break;
        }
    }
    // Render a witness chain for fn r (which must be can_panic).
    let witness = |mut r: usize| -> String {
        let mut parts: Vec<String> = Vec::new();
        for _ in 0..6 {
            match &can_panic[r] {
                Some(Why::Direct(what, line)) => {
                    parts.push(format!("{} at {}:{}", what, ix.path(r), line));
                    break;
                }
                Some(Why::Via(c)) => {
                    let g = ix.fact(*c);
                    parts.push(format!("{}::{}", g.module.join("::"), g.name));
                    r = *c;
                }
                None => break,
            }
        }
        parts.join(" → ")
    };

    // ---- lock-acquisition graph ---------------------------------------
    let mut edges: BTreeSet<LockEdge> = BTreeSet::new();
    for (r, res) in resolved.iter().enumerate() {
        let f = ix.fact(r);
        let held_nodes = |held_fields: &[String], held_calls: &[String]| -> Vec<String> {
            let mut out: Vec<String> = held_fields.iter().map(|h| lock_node(&f.owner, h)).collect();
            for hc in held_calls {
                if let Some(g) = held_call_node(r, hc) {
                    out.push(g);
                }
            }
            out
        };
        for a in &f.acqs {
            let to = lock_node(&f.owner, &a.field);
            for from in held_nodes(&a.held_fields, &a.held_calls) {
                if from != to {
                    edges.insert(LockEdge {
                        from,
                        to: to.clone(),
                        path: ix.path(r).to_string(),
                        line: a.line,
                        col: a.col,
                        module: f.module.clone(),
                    });
                }
            }
        }
        for (ci, c) in f.calls.iter().enumerate() {
            let held = held_nodes(&c.held_fields, &c.held_calls);
            if held.is_empty() {
                continue;
            }
            for &cal in &res[ci] {
                for to in &touched[cal] {
                    for from in &held {
                        if from != to {
                            edges.insert(LockEdge {
                                from: from.clone(),
                                to: to.clone(),
                                path: ix.path(r).to_string(),
                                line: c.line,
                                col: c.col,
                                module: f.module.clone(),
                            });
                        }
                    }
                }
            }
            // A held guard-returning accessor call is itself an
            // acquisition of its guard node.
            if let Some(g) = held_call_node(r, &c.name) {
                for from in &held {
                    if *from != g {
                        edges.insert(LockEdge {
                            from: from.clone(),
                            to: g.clone(),
                            path: ix.path(r).to_string(),
                            line: c.line,
                            col: c.col,
                            module: f.module.clone(),
                        });
                    }
                }
            }
        }
    }

    let mut out: Vec<Finding> = Vec::new();

    // ---- rule: lock-order (documented order) --------------------------
    let policy = &rules::SESSION_LOCK_ORDER;
    let rank = |field: &str| policy.order.iter().position(|o| *o == field);
    for e in &edges {
        let in_modules = policy
            .modules
            .iter()
            .any(|m| crate::engine::module_matches(&e.module, m));
        if !in_modules {
            continue;
        }
        if let (Some(rf), Some(rt)) = (rank(field_of(&e.from)), rank(field_of(&e.to))) {
            if rf > rt && !allows.suppressed(&e.path, "lock-order", e.line) {
                out.push(Finding {
                    rule: "lock-order",
                    path: e.path.clone(),
                    line: e.line,
                    col: e.col,
                    message: format!(
                        "acquires `{}` while holding `{}` — documented order is `{}`",
                        field_of(&e.to),
                        field_of(&e.from),
                        policy.order.join("` → `"),
                    ),
                    help: "nested session locks must follow the documented order (see \
                           `Session::observe_data`): take `state` before `full_db`, or \
                           release the held guard first (`drop(guard)`)"
                        .to_string(),
                });
            }
        }
    }

    // ---- rule: lock-order (cycles anywhere) ---------------------------
    for scc in lock_cycles(&edges) {
        for e in &edges {
            if scc.contains(&e.from)
                && scc.contains(&e.to)
                && !allows.suppressed(&e.path, "lock-order", e.line)
            {
                let mut cyc: Vec<&str> = scc.iter().map(|s| s.as_str()).collect();
                cyc.sort_unstable();
                out.push(Finding {
                    rule: "lock-order",
                    path: e.path.clone(),
                    line: e.line,
                    col: e.col,
                    message: format!(
                        "lock acquisition `{}` → `{}` closes a cycle through {{{}}} — \
                         potential deadlock",
                        e.from,
                        e.to,
                        cyc.join(", "),
                    ),
                    help: "two paths acquire these locks in opposite orders; pick one \
                           global order (session code documents `state` → `full_db`) and \
                           release guards (`drop`) before taking locks in the other \
                           direction"
                        .to_string(),
                });
            }
        }
    }

    // ---- rule: transitive panic-path ----------------------------------
    for (r, res) in resolved.iter().enumerate() {
        let f = ix.fact(r);
        if !rules::PANIC.covers(&f.module) {
            continue;
        }
        // Direct sites in scope (the old intra-fn rule, now fed by facts).
        for p in &f.panics {
            if allows.suppressed(ix.path(r), "panic-path", p.line) {
                continue;
            }
            let mpath = f.module.join("::");
            out.push(Finding {
                rule: "panic-path",
                path: ix.path(r).to_string(),
                line: p.line,
                col: p.col,
                message: format!("{} on the request path `{mpath}`", p.what),
                help: "every admitted request must resolve: return a typed error \
                       (`ErrorClass`), recover (`unwrap_or_else(|p| p.into_inner())` for \
                       lock poisoning), or justify with `// asqp::allow(panic-path): \
                       <reason>`"
                    .to_string(),
            });
        }
        if f.audited {
            continue; // the audit covers the whole body, callees included
        }
        // Calls that escape the scope into panicky code.
        for (ci, c) in f.calls.iter().enumerate() {
            for &cal in &res[ci] {
                let g = ix.fact(cal);
                if rules::PANIC.covers(&g.module) {
                    continue; // callee is gated itself; findings land there
                }
                if can_panic[cal].is_some() {
                    if allows.suppressed(ix.path(r), "panic-path", c.line) {
                        break;
                    }
                    let mpath = f.module.join("::");
                    out.push(Finding {
                        rule: "panic-path",
                        path: ix.path(r).to_string(),
                        line: c.line,
                        col: c.col,
                        message: format!(
                            "`{}` (request path `{mpath}`) calls `{}::{}` which can panic: {}",
                            f.name,
                            g.module.join("::"),
                            g.name,
                            witness(cal),
                        ),
                        help: "make the callee infallible (typed errors), handle the \
                               failure here, or — after auditing every path — mark the \
                               callee `// asqp::panic-free-audited: <why>`"
                            .to_string(),
                    });
                    break; // one finding per call site
                }
            }
        }
    }

    // ---- unused audits ------------------------------------------------
    for (r, res) in resolved.iter().enumerate() {
        let f = ix.fact(r);
        if !f.audited {
            continue;
        }
        let direct = f
            .panics
            .iter()
            .any(|p| !allows.suppressed(ix.path(r), "panic-path", p.line));
        let via_call = res
            .iter()
            .any(|callees| callees.iter().any(|&c| can_panic[c].is_some()));
        if !direct && !via_call {
            out.push(Finding {
                rule: "unused-audit",
                path: ix.path(r).to_string(),
                line: f.audit_line,
                col: f.audit_col,
                message: format!(
                    "`asqp::panic-free-audited` on `{}` asserts nothing — the analysis \
                     already proves it panic-free",
                    f.name
                ),
                help: "stale audits hide future regressions: delete the pragma (the \
                       call-graph pass covers this fn) and re-add it only if a trait \
                       object or closure makes a callee invisible again"
                    .to_string(),
            });
        }
    }

    out
}

/// Strongly connected components of the lock graph with ≥2 nodes, plus
/// self-loop nodes: the node sets whose edges participate in a cycle.
fn lock_cycles(edges: &BTreeSet<LockEdge>) -> Vec<BTreeSet<String>> {
    let mut nodes: BTreeSet<&str> = BTreeSet::new();
    let mut adj: BTreeMap<&str, Vec<&str>> = BTreeMap::new();
    for e in edges {
        nodes.insert(&e.from);
        nodes.insert(&e.to);
        adj.entry(&e.from).or_default().push(&e.to);
    }
    // Iterative Tarjan.
    let node_list: Vec<&str> = nodes.iter().copied().collect();
    let id_of: BTreeMap<&str, usize> = node_list.iter().enumerate().map(|(i, &s)| (s, i)).collect();
    let n = node_list.len();
    let mut index = vec![usize::MAX; n];
    let mut low = vec![0usize; n];
    let mut on_stack = vec![false; n];
    let mut stack: Vec<usize> = Vec::new();
    let mut next_index = 0usize;
    let mut sccs: Vec<Vec<usize>> = Vec::new();

    for start in 0..n {
        if index[start] != usize::MAX {
            continue;
        }
        // (node, neighbour iterator position)
        let mut call: Vec<(usize, usize)> = vec![(start, 0)];
        while let Some(&mut (v, ref mut pi)) = call.last_mut() {
            if *pi == 0 {
                index[v] = next_index;
                low[v] = next_index;
                next_index += 1;
                stack.push(v);
                on_stack[v] = true;
            }
            let neighbours = adj
                .get(node_list[v])
                .map(|v| v.as_slice())
                .unwrap_or_default();
            if *pi < neighbours.len() {
                let w = id_of[neighbours[*pi]];
                *pi += 1;
                if index[w] == usize::MAX {
                    call.push((w, 0));
                } else if on_stack[w] {
                    low[v] = low[v].min(index[w]);
                }
            } else {
                if low[v] == index[v] {
                    let mut comp = Vec::new();
                    while let Some(w) = stack.pop() {
                        on_stack[w] = false;
                        comp.push(w);
                        if w == v {
                            break;
                        }
                    }
                    sccs.push(comp);
                }
                call.pop();
                if let Some(&mut (u, _)) = call.last_mut() {
                    low[u] = low[u].min(low[v]);
                }
            }
        }
    }

    let mut out = Vec::new();
    for comp in sccs {
        let is_cycle = comp.len() > 1
            || comp.iter().any(|&v| {
                adj.get(node_list[v])
                    .is_some_and(|ns| ns.contains(&node_list[v]))
            });
        if is_cycle {
            out.push(comp.into_iter().map(|v| node_list[v].to_string()).collect());
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::build_model;
    use crate::parse::summarize;

    fn workspace(files: &[(&str, &str)]) -> Vec<Finding> {
        let sums: Vec<FileSummary> = files
            .iter()
            .map(|(p, s)| summarize(&build_model(p, s)))
            .collect();
        let allows = AllowTable::build(&sums);
        check_workspace(&sums, &allows)
    }

    #[test]
    fn reversed_session_order_is_flagged() {
        let src = "impl Session {\n  fn bad(&self) {\n    let db = self.full_db.write().unwrap_or_else(|p| p.into_inner());\n    let st = self.state.write().unwrap_or_else(|p| p.into_inner());\n  }\n}\n";
        let fs = workspace(&[("crates/core/src/session.rs", src)]);
        assert!(
            fs.iter().any(|f| f.rule == "lock-order" && f.line == 4),
            "{fs:?}"
        );
    }

    #[test]
    fn documented_order_is_clean() {
        let src = "impl Session {\n  fn good(&self) {\n    let st = self.state.write().unwrap_or_else(|p| p.into_inner());\n    let db = self.full_db.write().unwrap_or_else(|p| p.into_inner());\n  }\n}\n";
        let fs = workspace(&[("crates/core/src/session.rs", src)]);
        assert!(fs.iter().all(|f| f.rule != "lock-order"), "{fs:?}");
    }

    #[test]
    fn cross_fn_lock_cycle_is_flagged() {
        let src = "impl S {\n  fn a(&self) {\n    let g = self.x.lock().unwrap_or_else(|p| p.into_inner());\n    self.take_y();\n  }\n  fn take_y(&self) {\n    let h = self.y.lock().unwrap_or_else(|p| p.into_inner());\n  }\n  fn b(&self) {\n    let h = self.y.lock().unwrap_or_else(|p| p.into_inner());\n    let g = self.x.lock().unwrap_or_else(|p| p.into_inner());\n  }\n}\n";
        let fs = workspace(&[("crates/db/src/exec.rs", src)]);
        assert!(
            fs.iter()
                .any(|f| f.rule == "lock-order" && f.message.contains("cycle")),
            "{fs:?}"
        );
    }

    #[test]
    fn sequential_temporaries_are_not_edges() {
        let src = "impl Session {\n  fn fine(&self) {\n    let a = self.full_db.read().unwrap().clone();\n    let b = self.state.read().unwrap().clone();\n  }\n}\n";
        let fs = workspace(&[("crates/core/src/session.rs", src)]);
        assert!(fs.iter().all(|f| f.rule != "lock-order"), "{fs:?}");
    }

    #[test]
    fn transitive_panic_reaches_across_crates() {
        let helper = "impl Database {\n  fn run_query(&self) -> u32 {\n    self.rows.first().unwrap()\n  }\n}\n";
        let serve = "fn handle(db: &Database) -> u32 {\n  Database::run_query(db)\n}\n";
        let fs = workspace(&[
            ("crates/db/src/exec.rs", helper),
            ("crates/serve/src/server.rs", serve),
        ]);
        assert!(
            fs.iter()
                .any(|f| f.rule == "panic-path" && f.path.contains("server.rs") && f.line == 2),
            "{fs:?}"
        );
    }

    #[test]
    fn audited_callee_stops_propagation() {
        let helper = "impl Database {\n  // asqp::panic-free-audited: rows is never empty, checked at load\n  fn run_query(&self) -> u32 {\n    self.rows.first().unwrap()\n  }\n}\n";
        let serve = "fn handle(db: &Database) -> u32 {\n  Database::run_query(db)\n}\n";
        let fs = workspace(&[
            ("crates/db/src/exec.rs", helper),
            ("crates/serve/src/server.rs", serve),
        ]);
        assert!(fs.iter().all(|f| f.rule != "panic-path"), "{fs:?}");
    }

    #[test]
    fn unused_audit_is_an_error() {
        let src = "// asqp::panic-free-audited: nothing here can panic\nfn safe() -> u32 { 1 }\n";
        let fs = workspace(&[("crates/db/src/exec.rs", src)]);
        assert!(fs.iter().any(|f| f.rule == "unused-audit"), "{fs:?}");
    }

    #[test]
    fn guard_accessor_held_across_call_makes_edge() {
        // answer_subset-style: hold the state guard, then take full_db —
        // the documented direction, so no finding; the reverse direction
        // through accessors must flag.
        let src = "impl Session {\n  fn state(&self) -> RwLockReadGuard<'_, T> {\n    self.state.read().unwrap_or_else(|p| p.into_inner())\n  }\n  fn full_db(&self) -> RwLockReadGuard<'_, U> {\n    self.full_db.read().unwrap_or_else(|p| p.into_inner())\n  }\n  fn bad(&self) {\n    let db = self.full_db();\n    let st = self.state();\n  }\n}\n";
        let fs = workspace(&[("crates/core/src/session.rs", src)]);
        assert!(
            fs.iter().any(|f| f.rule == "lock-order" && f.line == 10),
            "{fs:?}"
        );
    }
}

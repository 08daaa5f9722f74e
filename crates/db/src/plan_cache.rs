//! LRU plan cache keyed by *normalized* query text.
//!
//! The RL inner loop re-executes templated queries — the same shape with
//! different literals, against many approximation-set subsets — thousands of
//! times per training run (paper §3, Eq. 1 reward evaluation). Plans for
//! those queries are identical modulo literals, so the cache key is the
//! canonical SQL with every literal replaced by a placeholder and LIMIT
//! normalised out ([`normalized_key`]).
//!
//! A [`CachedPlan`] stores only the optimizer's *decisions* (join order,
//! whether LIMIT may be pushed into the scan, cardinality estimates), never
//! bound expressions — every query is bound afresh
//! ([`crate::plan::bind`]) and the decisions are attached to that binding,
//! so a hit with different literals is always correct. Hits are
//! additionally validated against per-binding schema fingerprints
//! ([`schema_fingerprint`]), which is what makes the cache safe to share
//! across [`Database`](crate::catalog::Database) clones and subsets: an
//! approximation-set subset has the same schemas as its parent, so the
//! parent's plans transfer.
//!
//! Eviction is deterministic: a `BTreeMap` keyed store with a monotonic
//! access tick, evicting the least-recently-used entry (lowest tick, first
//! key on ties). No wall clock, no hash-order iteration — plan choice stays
//! byte-reproducible across runs.

use crate::expr::Expr;
use crate::query::Query;
use crate::schema::Schema;
use crate::value::Value;
use std::collections::BTreeMap;
use std::convert::Infallible;
use std::sync::Mutex;

/// Default number of cached plans; RL workloads hold a few dozen templates.
pub const DEFAULT_CAPACITY: usize = 256;

/// Optimizer decisions memoised for one normalized query shape.
#[derive(Debug, Clone, PartialEq)]
pub struct CachedPlan {
    /// Binding indices (into `Query::from`) in execution order.
    pub join_order: Vec<usize>,
    /// Shape-only flag: the operator chain between LIMIT and the single scan
    /// is order- and cardinality-preserving, so any incoming LIMIT may stop
    /// the scan early. The limit *value* is never cached (it is normalised
    /// out of the key); planning instantiates it from the live query.
    pub limit_pushdown: bool,
    /// Estimated filtered-scan rows per binding (for EXPLAIN display).
    pub est_scan_rows: Vec<f64>,
    /// Estimated intermediate size after each join step (len = bindings-1).
    pub est_join_rows: Vec<f64>,
    /// Per FROM binding: (catalog table name, schema fingerprint, data
    /// version). A hit is honoured only when all three still match the
    /// executing database — the data version catches appends/updates whose
    /// shifted statistics would otherwise leave a stale join order in
    /// place, and lets subsets (which snapshot their parent's versions)
    /// keep sharing the parent's plans.
    pub tables: Vec<(String, u64, u64)>,
}

#[derive(Debug)]
struct Entry {
    plan: CachedPlan,
    last_used: u64,
}

#[derive(Debug, Default)]
struct Inner {
    map: BTreeMap<String, Entry>,
    tick: u64,
}

/// Deterministic LRU cache of [`CachedPlan`]s, shared behind an `Arc` by a
/// database and all its clones/subsets.
#[derive(Debug)]
pub struct PlanCache {
    inner: Mutex<Inner>,
    capacity: usize,
}

impl Default for PlanCache {
    fn default() -> Self {
        PlanCache::with_capacity(DEFAULT_CAPACITY)
    }
}

impl PlanCache {
    pub fn with_capacity(capacity: usize) -> Self {
        PlanCache {
            inner: Mutex::new(Inner::default()),
            capacity: capacity.max(1),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Look up a plan, refreshing its LRU tick on a hit.
    pub fn get(&self, key: &str) -> Option<CachedPlan> {
        let mut inner = self.lock();
        inner.tick += 1;
        let tick = inner.tick;
        inner.map.get_mut(key).map(|e| {
            e.last_used = tick;
            e.plan.clone()
        })
    }

    /// Is `key` cached? Does not refresh the LRU tick (used by EXPLAIN so
    /// inspecting a plan never changes eviction behaviour).
    pub fn peek(&self, key: &str) -> bool {
        self.lock().map.contains_key(key)
    }

    /// Insert (or replace) a plan, evicting the least-recently-used entry
    /// when over capacity.
    pub fn put(&self, key: String, plan: CachedPlan) {
        let mut inner = self.lock();
        inner.tick += 1;
        let tick = inner.tick;
        inner.map.insert(
            key,
            Entry {
                plan,
                last_used: tick,
            },
        );
        while inner.map.len() > self.capacity {
            // BTreeMap iteration is key-ordered, so the minimum tick is
            // found deterministically (first key wins ties).
            let victim = inner
                .map
                .iter()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(k, _)| k.clone());
            match victim {
                Some(k) => inner.map.remove(&k),
                None => break,
            };
        }
    }

    pub fn clear(&self) {
        self.lock().map.clear();
    }

    pub fn len(&self) -> usize {
        self.lock().map.len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Cache key: canonical SQL with every literal parameterized out and LIMIT
/// removed. Two instantiations of the same query template share a key.
pub fn normalized_key(query: &Query) -> String {
    let mut q = query.clone();
    q.predicate = q.predicate.as_ref().map(parameterize);
    q.limit = None;
    q.to_sql()
}

/// Replace every literal with the placeholder `'?'`; IN lists collapse to a
/// single placeholder so list length does not fragment the key space.
fn parameterize(e: &Expr) -> Expr {
    let placeholder = || Value::Str("?".into());
    match e {
        Expr::Literal(_) => Expr::Literal(placeholder()),
        Expr::In { expr, negated, .. } => Expr::In {
            expr: Box::new(parameterize(expr)),
            list: vec![placeholder()],
            negated: *negated,
        },
        other => other
            .map_children(&mut |c| Ok::<_, Infallible>(parameterize(c)))
            .unwrap_or_else(|never| match never {}),
    }
}

/// FNV-1a fingerprint of a schema's column names and types. Cheap, stable
/// across processes, and sensitive to any column rename/retype/reorder —
/// exactly what cached plan validation needs.
pub fn schema_fingerprint(schema: &Schema) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = OFFSET;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h ^= b as u64;
            h = h.wrapping_mul(PRIME);
        }
    };
    for col in schema.columns() {
        eat(col.name.as_bytes());
        eat(&[0xff]);
        eat(format!("{:?}", col.ty).as_bytes());
        eat(&[0xfe]);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sql::parse;
    use crate::value::ValueType;

    fn plan(order: &[usize]) -> CachedPlan {
        CachedPlan {
            join_order: order.to_vec(),
            limit_pushdown: false,
            est_scan_rows: vec![1.0; order.len()],
            est_join_rows: Vec::new(),
            tables: Vec::new(),
        }
    }

    #[test]
    fn templated_queries_share_a_key() {
        let a = parse("SELECT t.name FROM title AS t WHERE t.year > 1990 LIMIT 5").unwrap();
        let b = parse("SELECT t.name FROM title AS t WHERE t.year > 2005 LIMIT 90").unwrap();
        assert_eq!(normalized_key(&a), normalized_key(&b));

        let c = parse("SELECT t.name FROM title AS t WHERE t.year < 1990").unwrap();
        assert_ne!(normalized_key(&a), normalized_key(&c), "operator differs");
    }

    #[test]
    fn in_lists_collapse() {
        let a = parse("SELECT t.id FROM title AS t WHERE t.kind IN ('a', 'b')").unwrap();
        let b = parse("SELECT t.id FROM title AS t WHERE t.kind IN ('z')").unwrap();
        assert_eq!(normalized_key(&a), normalized_key(&b));
        let c = parse("SELECT t.id FROM title AS t WHERE t.kind NOT IN ('z')").unwrap();
        assert_ne!(normalized_key(&a), normalized_key(&c), "negation kept");
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let cache = PlanCache::with_capacity(2);
        cache.put("a".into(), plan(&[0]));
        cache.put("b".into(), plan(&[0]));
        assert!(cache.get("a").is_some()); // refresh a
        cache.put("c".into(), plan(&[0])); // evicts b
        assert_eq!(cache.len(), 2);
        assert!(cache.peek("a"));
        assert!(!cache.peek("b"));
        assert!(cache.peek("c"));
    }

    #[test]
    fn peek_does_not_refresh() {
        let cache = PlanCache::with_capacity(2);
        cache.put("a".into(), plan(&[0]));
        cache.put("b".into(), plan(&[0]));
        assert!(cache.peek("a")); // no tick refresh
        cache.put("c".into(), plan(&[0])); // evicts a (oldest tick)
        assert!(!cache.peek("a"));
        assert!(cache.peek("b"));
    }

    #[test]
    fn fingerprint_tracks_schema_shape() {
        let a = Schema::build(&[("id", ValueType::Int), ("name", ValueType::Str)]);
        let b = Schema::build(&[("id", ValueType::Int), ("name", ValueType::Str)]);
        let c = Schema::build(&[("id", ValueType::Float), ("name", ValueType::Str)]);
        let d = Schema::build(&[("name", ValueType::Str), ("id", ValueType::Int)]);
        assert_eq!(schema_fingerprint(&a), schema_fingerprint(&b));
        assert_ne!(schema_fingerprint(&a), schema_fingerprint(&c));
        assert_ne!(schema_fingerprint(&a), schema_fingerprint(&d));
    }
}

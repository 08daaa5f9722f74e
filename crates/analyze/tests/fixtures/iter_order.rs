//@path: crates/core/src/metric.rs
// By-value consumption of a HashMap/HashSet: the one form of hash
// iteration clippy's type-resolved bans (`clippy.toml`) cannot name. The
// finding lands on the `into_iter` itself; every other form is left to
// clippy (see `tests/clippy_fixture`).

use std::collections::{BTreeSet, HashMap, HashSet};

fn hash_order_escapes(seen: HashSet<u64>) -> Vec<u64> {
    seen.into_iter().collect() //~ ERROR iter-order
}

// Hash bindings are known by name per file, so this one needs a name of
// its own.
fn ordered_set_is_fine(ids: BTreeSet<u64>) -> Vec<u64> {
    ids.into_iter().collect()
}

fn lookup_only_is_fine(cache: &HashMap<String, f64>, key: &str) -> f64 {
    // Point lookups don't depend on iteration order — no finding.
    cache.get(key).copied().unwrap_or(0.0)
}

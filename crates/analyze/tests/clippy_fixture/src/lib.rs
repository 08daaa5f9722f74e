//! Hash-iteration cases clippy must reject under the workspace lint
//! policy (`iter_over_hash_type`, and `disallowed_methods` with the root
//! `clippy.toml`). Every line marked with a trailing `//~ ERROR` (or, where
//! rustfmt moves the comment into the next line, `//~^ ERROR`, which marks
//! the line above) must fail clippy, and no other line may.

use std::collections::{HashMap, HashSet};

pub fn leaky_sum(weights: &HashMap<String, f64>) -> f64 {
    let mut total = 0.0;
    for (q, w) in weights {
        //~^ ERROR iter_over_hash_type
        total += w * q.len() as f64;
    }
    total
}

pub fn binding_then_sink(scores: &HashMap<String, f64>) -> f64 {
    let vals = scores.values(); //~ ERROR disallowed_methods
    let mut out = 0.0;
    for v in vals {
        //~^ ERROR iter_over_hash_type
        out += v;
    }
    out
}

pub fn evict_first(entries: &mut HashMap<String, u64>) -> Option<String> {
    let victim = entries.keys().next().cloned(); //~ ERROR disallowed_methods
    if let Some(k) = &victim {
        entries.remove(k);
    }
    victim
}

pub fn fingerprint_tables(schemas: &HashMap<String, Vec<String>>) -> u64 {
    let mut h = 0xcbf29ce484222325u64;
    for (name, cols) in schemas {
        //~^ ERROR iter_over_hash_type
        h ^= name.len() as u64 ^ cols.len() as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

/// A hash map held in a struct field: clippy resolves the field's type.
pub struct Counts {
    pub counts: HashMap<u32, f64>,
}

impl Counts {
    pub fn sum_by_ref(&self) -> f64 {
        let mut s = 0.0;
        for (k, v) in &self.counts {
            //~^ ERROR iter_over_hash_type
            s += v * f64::from(*k);
        }
        s
    }

    pub fn sum_values(&self) -> f64 {
        let mut s = 0.0;
        for v in self.counts.values() {
            //~^ ERROR iter_over_hash_type
            s += v;
        }
        s
    }
}

/// Sorting afterwards would make the order deterministic, but the ban is
/// stricter than that: a `BTreeMap` says the same without the sort.
pub fn drain_then_sort(m: &mut HashMap<u32, u32>) -> Vec<(u32, u32)> {
    let mut v: Vec<_> = m.drain().collect(); //~ ERROR disallowed_methods
    v.sort();
    v
}

pub fn lookup_only(cache: &HashMap<String, f64>, key: &str) -> f64 {
    cache.get(key).copied().unwrap_or(0.0)
}

/// By-value `into_iter` is the one form clippy cannot ban without banning
/// it for `Vec` too: `asqp-analyze`'s `iter-order` rule flags it instead.
pub fn by_value(seen: HashSet<u64>) -> Vec<u64> {
    let mut ids: Vec<u64> = seen.into_iter().collect();
    ids.sort_unstable();
    ids
}

//@path: crates/db/src/stats.rs
// Statistics bookkeeping must not iterate hash structures: which entry goes
// first and what a fingerprint accumulates would become run-dependent, and
// with them the estimates join orders are chosen from. The real accumulator
// counts values in a BTreeMap for exactly this reason.

use std::collections::HashMap;

fn evict_first(entries: &mut HashMap<String, u64>) -> Option<String> {
    // No local finding: the hash-ordered victim escapes through the
    // return value (`returns_tainted` fact); call sites are charged by
    // the interprocedural pass instead. `remove(k)` itself is a point
    // operation and order-insensitive.
    let victim = entries.keys().next().cloned();
    if let Some(k) = &victim {
        entries.remove(k);
    }
    victim
}

fn fingerprint_tables(schemas: &HashMap<String, Vec<String>>) -> u64 {
    let mut h = 0xcbf29ce484222325u64;
    for (name, cols) in schemas { //~ ERROR iter-order
        h ^= name.len() as u64 ^ cols.len() as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

fn lookup_is_fine(entries: &HashMap<String, u64>, key: &str) -> Option<u64> {
    // Point lookups don't observe iteration order — no finding.
    entries.get(key).copied()
}

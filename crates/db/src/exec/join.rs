//! The join's own data: joined tuples as one flat buffer of row ids, the
//! hash build as one chained index over the build scan, and the probes.
//!
//! Every probe emits, for each tuple in order, its key's matches in build
//! scan order. Scans ascend, shards are contiguous tuple ranges concatenated
//! in range order, so the output is lexicographic in base row ids taken in
//! join order whatever the shard count — the order the reference executor
//! enumerates.

use super::vector::run_sharded;
use crate::column::{Column, ColumnData};
use crate::error::DbResult;
use crate::plan::Layout;
use crate::value::{canonical_f64_bits, Value, ValueType};
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::hash::{BuildHasher, Hasher};
use std::sync::OnceLock;

/// Probe sides with fewer tuples than this stay sequential regardless of
/// `shards`.
const PARALLEL_PROBE_MIN: usize = 4096;

/// In a tuple: a binding not joined yet. In a chain: its end.
const NONE: usize = usize::MAX;

/// Joined row-id tuples, row-major in one buffer: tuple `i` is
/// `ids[i * nb..(i + 1) * nb]`, one base row id per FROM binding.
pub(super) struct Tuples {
    nb: usize,
    ids: Vec<usize>,
}

impl Tuples {
    /// One tuple per row of `scan`, which is binding `start`'s. A
    /// single-binding query's scan already is its tuples.
    pub(super) fn seed(nb: usize, start: usize, scan: Vec<usize>) -> Tuples {
        if nb == 1 {
            return Tuples { nb, ids: scan };
        }
        let mut ids = vec![NONE; scan.len() * nb];
        for (t, rid) in ids.chunks_exact_mut(nb).zip(scan) {
            t[start] = rid;
        }
        Tuples { nb, ids }
    }

    pub(super) fn len(&self) -> usize {
        self.ids.len() / self.nb
    }

    pub(super) fn iter(&self) -> std::slice::ChunksExact<'_, usize> {
        self.ids.chunks_exact(self.nb)
    }

    /// Every tuple paired with every row of `scan`, binding `next`'s.
    pub(super) fn cross(&self, next: usize, scan: &[usize]) -> Tuples {
        let mut ids = Vec::with_capacity(self.ids.len().saturating_mul(scan.len()));
        for t in self.iter() {
            for &rid in scan {
                push_joined(&mut ids, t, next, rid);
            }
        }
        Tuples { nb: self.nb, ids }
    }

    /// Keep the tuples `keep` holds for, in place and in order.
    pub(super) fn try_retain(
        &mut self,
        mut keep: impl FnMut(&[usize]) -> DbResult<bool>,
    ) -> DbResult<()> {
        let nb = self.nb;
        let mut kept = 0;
        for at in (0..self.ids.len()).step_by(nb) {
            if keep(&self.ids[at..at + nb])? {
                self.ids.copy_within(at..at + nb, kept);
                kept += nb;
            }
        }
        self.ids.truncate(kept);
        Ok(())
    }

    /// The tuples at positions `order`, in that order.
    pub(super) fn permuted(&self, order: &[usize]) -> Tuples {
        let nb = self.nb;
        let mut ids = Vec::with_capacity(self.ids.len());
        for &i in order {
            ids.extend_from_slice(&self.ids[i * nb..(i + 1) * nb]);
        }
        Tuples { nb, ids }
    }
}

/// Append `t` with binding `next` set to `rid`.
fn push_joined(ids: &mut Vec<usize>, t: &[usize], next: usize, rid: usize) {
    let at = ids.len() + next;
    ids.extend_from_slice(t);
    ids[at] = rid;
}

/// Row `rid` of `c` as one word, `None` for NULL. Two cells of one column
/// have equal words exactly when they are equal as [`Value`]s: ints by
/// their own bits, floats by canonical bits, text by dictionary code (a
/// dictionary holds each string once).
pub(super) fn cell_word(c: &Column, rid: usize) -> Option<u64> {
    if c.is_null(rid) {
        return None;
    }
    Some(match c.data() {
        ColumnData::Int(d) => d[rid] as u64,
        ColumnData::Float(d) => canonical_f64_bits(d[rid]),
        ColumnData::Str { codes, .. } => codes[rid].into(),
        ColumnData::Bool(d) => d[rid].into(),
    })
}

/// murmur3's 64-bit finaliser. Join keys are canonical `f64` bit patterns,
/// whose low 32 bits are all zero for small integers, and dictionary codes,
/// whose high 32 are: every input bit has to reach the bits the table
/// indexes by, which one multiply does not do.
fn fmix64(mut k: u64) -> u64 {
    k ^= k >> 33;
    k = k.wrapping_mul(0xff51_afd7_ed55_8ccd);
    k ^= k >> 33;
    k = k.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
    k ^ (k >> 33)
}

/// Hashes one-word keys with [`fmix64`] over `key ^ seed`. The seed is drawn
/// once per process, as the maps this replaces drew theirs: which keys
/// collide stays unknowable to whoever supplies the data.
#[derive(Clone, Copy)]
struct WordState(u64);

impl Default for WordState {
    fn default() -> Self {
        static SEED: OnceLock<u64> = OnceLock::new();
        WordState(*SEED.get_or_init(|| {
            // asqp::allow(nondet): the seed decides only which keys share a
            // bucket; the maps are looked up and never iterated (iter-order
            // enforces it), so it cannot reach a result
            std::collections::hash_map::RandomState::new().hash_one(0u64)
        }))
    }
}

impl BuildHasher for WordState {
    type Hasher = WordHasher;

    fn build_hasher(&self) -> WordHasher {
        WordHasher(self.0)
    }
}

struct WordHasher(u64);

impl Hasher for WordHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write_u64(&mut self, word: u64) {
        self.0 = fmix64(self.0 ^ word);
    }

    /// The trait's required method; the engine's keys are words.
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(b.into());
        }
    }
}

/// A hash join's build side: per key, the positions of the build scan that
/// hold it, chained in scan order. `heads` maps a key to its first and last
/// position and `next[p]` is the following position under `p`'s key, so a
/// key's matches come out in ascending row id.
struct Chains {
    heads: HashMap<u64, (usize, usize), WordState>,
    next: Vec<usize>,
}

impl Chains {
    fn with_capacity(n: usize) -> Chains {
        Chains {
            heads: HashMap::with_capacity_and_hasher(n, WordState::default()),
            next: Vec::with_capacity(n),
        }
    }

    /// Take the build scan's next position under `key`; `None` joins
    /// nothing. `true` when that position is the first under its key.
    fn push(&mut self, key: Option<u64>) -> bool {
        let pos = self.next.len();
        self.next.push(NONE);
        let Some(key) = key else { return false };
        match self.heads.entry(key) {
            Entry::Vacant(e) => {
                e.insert((pos, pos));
                true
            }
            Entry::Occupied(mut e) => {
                let last = &mut e.get_mut().1;
                self.next[*last] = pos;
                *last = pos;
                false
            }
        }
    }

    /// First position under `key`, [`NONE`] without one.
    fn first(&self, key: u64) -> usize {
        self.heads.get(&key).map_or(NONE, |&(first, _)| first)
    }

    /// The positions chained from `first` on.
    fn chain(&self, first: usize) -> impl Iterator<Item = usize> + '_ {
        let position = |p: usize| (p != NONE).then_some(p);
        std::iter::successors(position(first), move |&p| position(self.next[p]))
    }
}

/// Hash join of `tuples` with `scan`, binding `next`'s filtered rows, on
/// `link`: (probe slot among the joined bindings, build slot of `next`) per
/// condition. Builds on `scan`, probes the tuples (sharded when many).
pub(super) fn hash_join(
    layout: &Layout,
    tuples: &Tuples,
    link: &[(usize, usize)],
    next: usize,
    scan: &[usize],
    shards: usize,
) -> DbResult<Tuples> {
    let numeric = |c: &Column| matches!(c.ty(), ValueType::Int | ValueType::Float);
    let mut chains = Chains::with_capacity(scan.len());
    let join = Probe {
        tuples,
        next,
        scan,
        shards: if tuples.len() >= PARALLEL_PROBE_MIN {
            shards
        } else {
            1
        },
    };

    if let [(ps, bs)] = *link {
        let ((pb, probe), (_, build)) = (layout.slot_column(ps), layout.slot_column(bs));
        if probe.ty() == build.ty() && numeric(probe) {
            // Two int or two float columns: a word per value (an int and a
            // float take the `Value`-keyed path below, which is exact).
            for &rid in scan {
                chains.push(cell_word(build, rid));
            }
            return join.run(&chains, |_: &mut (), t| {
                cell_word(probe, t[pb]).map_or(NONE, |w| chains.first(w))
            });
        }
        if probe.ty() == ValueType::Str && build.ty() == ValueType::Str {
            // A dictionary holds each string once, so the build scan chains
            // by code. The two columns' codes are unrelated: each distinct
            // build string maps to its chain once, and each distinct probe
            // code is translated through that map the first time a shard
            // meets it. Work follows the rows scanned and the distinct codes
            // among them, never dictionary size.
            let mut by_str: HashMap<&str, usize> = HashMap::new();
            for (pos, &rid) in scan.iter().enumerate() {
                let first = chains.push(build.str_code(rid).map(u64::from));
                if let (true, Some(s)) = (first, build.get_str(rid)) {
                    by_str.insert(s, pos);
                }
            }
            return join.run(&chains, |seen: &mut HashMap<u64, usize, WordState>, t| {
                let rid = t[pb];
                let Some(code) = probe.str_code(rid) else {
                    return NONE; // NULL never equi-joins
                };
                *seen.entry(code.into()).or_insert_with(|| {
                    let chain = probe.get_str(rid).and_then(|s| by_str.get(s));
                    chain.copied().unwrap_or(NONE)
                })
            });
        }
    }

    // Several conditions, or a pair of types with no word-sized key: key on
    // the values themselves, numbering distinct keys as they appear.
    let (probes, builds): (Vec<_>, Vec<_>) = link
        .iter()
        .map(|&(ps, bs)| (layout.slot_column(ps), layout.slot_column(bs).1))
        .unzip();
    let mut key_ids: HashMap<Vec<Value>, u64> = HashMap::new();
    for &rid in scan {
        let key: Vec<Value> = builds.iter().map(|c| c.get(rid)).collect();
        chains.push(if key.iter().any(Value::is_null) {
            None // NULL never equi-joins
        } else {
            let fresh = key_ids.len() as u64;
            Some(*key_ids.entry(key).or_insert(fresh))
        });
    }
    join.run(&chains, |_: &mut (), t| {
        let key: Vec<Value> = probes.iter().map(|&(b, c)| c.get(t[b])).collect();
        key_ids.get(&key).map_or(NONE, |&id| chains.first(id))
    })
}

/// One join step's probe side.
struct Probe<'a> {
    tuples: &'a Tuples,
    next: usize,
    scan: &'a [usize],
    shards: usize,
}

impl Probe<'_> {
    /// Extend every tuple by each build row chained from `first_of(tuple)`.
    /// `M` is scratch each shard owns.
    fn run<M: Default>(
        &self,
        chains: &Chains,
        first_of: impl Fn(&mut M, &[usize]) -> usize + Sync,
    ) -> DbResult<Tuples> {
        let nb = self.tuples.nb;
        let ids = run_sharded(self.tuples.len(), self.shards, |a, b| {
            let mut scratch = M::default();
            let mut out = Vec::with_capacity((b - a) * nb);
            for t in self.tuples.ids[a * nb..b * nb].chunks_exact(nb) {
                for p in chains.chain(first_of(&mut scratch, t)) {
                    push_joined(&mut out, t, self.next, self.scan[p]);
                }
            }
            Ok(out)
        })?;
        Ok(Tuples { nb, ids })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn chains_of(keys: &[Option<u64>]) -> Chains {
        let mut c = Chains::with_capacity(keys.len());
        for &k in keys {
            c.push(k);
        }
        c
    }

    fn matches(c: &Chains, key: u64) -> Vec<usize> {
        c.chain(c.first(key)).collect()
    }

    #[test]
    fn a_keys_matches_come_back_in_insertion_order() {
        // Key 7 once, key 8 twice, key 9 many times, a NULL in between.
        let mut keys = vec![Some(9), Some(7), Some(8), None, Some(9), Some(8)];
        keys.extend([Some(9); 40]);
        let c = chains_of(&keys);
        assert_eq!(matches(&c, 7), [1]);
        assert_eq!(matches(&c, 8), [2, 5]);
        let nines: Vec<usize> = [0, 4].into_iter().chain(6..46).collect();
        assert_eq!(matches(&c, 9), nines);
        assert!(matches(&c, 10).is_empty(), "a key never pushed");
    }

    #[test]
    fn push_reports_the_first_position_of_each_key() {
        let mut c = Chains::with_capacity(0);
        let firsts: Vec<bool> = [Some(3), Some(3), None, Some(4), Some(3)]
            .into_iter()
            .map(|k| c.push(k))
            .collect();
        assert_eq!(firsts, [true, false, false, true, false]);
    }

    #[test]
    fn all_equal_keys_form_one_chain_and_an_empty_build_has_none() {
        let c = chains_of(&[Some(5); 1000]);
        assert_eq!(matches(&c, 5), (0..1000).collect::<Vec<_>>());
        let empty = chains_of(&[]);
        assert!(matches(&empty, 5).is_empty());
        assert!(matches(&empty, 0).is_empty());
    }

    /// The keys the engine really feeds the map — small integral floats as
    /// canonical f64 bits (low 32 bits all zero), and ints and dictionary
    /// codes (high 32 all zero) — must spread over the low bits a table
    /// indexes by. A multiply-only hasher puts all 65 536 of the first kind
    /// in one bucket.
    #[test]
    fn engine_keys_spread_over_the_low_bits() {
        let state = WordState::default();
        let worst = |key: fn(u32) -> u64| {
            let mut buckets = vec![0u32; 1 << 16];
            for i in 0..1u32 << 16 {
                buckets[(state.hash_one(key(i)) & 0xffff) as usize] += 1;
            }
            buckets.into_iter().max().unwrap()
        };
        // 65 536 balls into 65 536 bins: the fullest holds 7–9 when uniform.
        assert!(worst(|i| canonical_f64_bits(f64::from(i))) <= 16);
        assert!(worst(u64::from) <= 16);
    }
}

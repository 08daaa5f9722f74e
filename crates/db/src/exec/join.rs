//! The join's own data: joined tuples as one flat buffer of row ids, the
//! hash build as one chained index over the build scan or over a whole
//! column (the index a [`Table`] keeps), and the probes.
//!
//! Every probe emits, for each tuple in order, its key's matches in build
//! scan order, which is ascending row id; a column index chains every row
//! in row order. Shards are contiguous tuple ranges concatenated in range
//! order, so the output is lexicographic in base row ids taken in join
//! order whatever the shard count — the order the reference executor
//! enumerates.

use super::vector::run_sharded;
use crate::column::{Column, ColumnData};
use crate::error::DbResult;
use crate::plan::Layout;
use crate::table::Table;
use crate::value::{canonical_f64_bits, Value};
use crate::zonemap::ZoneBounds;
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

/// [`cell_word`] as an equi-join key: NaN, which `sql_cmp` finds equal to
/// nothing, joins nothing, as NULL does.
fn key_word(c: &Column, rid: usize) -> Option<u64> {
    let nan = matches!(c.data(), ColumnData::Float(d) if d[rid].is_nan());
    cell_word(c, rid).filter(|_| !nan)
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

/// The keys column `c` of `table` can take as words, `lo..=hi`, when that is
/// known without reading the build scan: dictionary codes lie below the
/// dictionary's length, ints within the table's whole-column zone bounds.
fn word_range(table: &Table, c: usize) -> Option<(u64, u64)> {
    match table.column(c).data() {
        ColumnData::Str { dict, .. } => Some((0, dict.len().checked_sub(1)? as u64)),
        ColumnData::Int(_) => match table.zone_maps().columns[c].as_ref()?.whole.bounds? {
            ZoneBounds::Int { min, max } => Some((min as u64, max as u64)),
            ZoneBounds::Float { .. } => None,
        },
        _ => None,
    }
}

/// Where each key's chain starts and ends.
enum Heads {
    /// Keys `base..base + slots.len()` (wrapping), at `key - base`;
    /// [`NONE`] marks a key no position holds.
    Dense(u64, Vec<(usize, usize)>),
    Hashed(HashMap<u64, (usize, usize), WordState>),
}

/// A hash join's build side: per key, the positions of the build scan that
/// hold it, chained in scan order. `heads` maps a key to its first and last
/// position and `next[p]` is the following position under `p`'s key, so a
/// key's matches come out in ascending row id. Over all of a column's rows
/// (its join index) a position is a row id.
pub(crate) struct Chains {
    heads: Heads,
    next: Vec<usize>,
}

impl Chains {
    /// Chains for `n` build positions whose keys, if `range` is given, lie in
    /// `lo..=hi` (wrapping): dense heads when that spans under `2n`, else hashed.
    fn new(n: usize, range: Option<(u64, u64)>) -> Chains {
        let heads = match range {
            Some((lo, hi)) if hi.wrapping_sub(lo) < (n as u64).saturating_mul(2) => {
                Heads::Dense(lo, vec![(NONE, NONE); hi.wrapping_sub(lo) as usize + 1])
            }
            _ => Heads::Hashed(HashMap::with_capacity_and_hasher(n, WordState::default())),
        };
        Chains {
            heads,
            next: Vec::with_capacity(n),
        }
    }

    /// Chains over rows `rids` of column `col` of `table`, keyed by
    /// [`key_word`]; over all its rows, that column's join index.
    pub(crate) fn over(
        table: &Table,
        col: usize,
        rids: impl ExactSizeIterator<Item = usize>,
    ) -> Chains {
        let mut chains = Chains::new(rids.len(), word_range(table, col));
        for rid in rids {
            chains.push(key_word(table.column(col), rid));
        }
        chains
    }

    /// Take the build scan's next position under `key`; `None` joins
    /// nothing. `true` when that position is the first under its key.
    fn push(&mut self, key: Option<u64>) -> bool {
        let pos = self.next.len();
        self.next.push(NONE);
        let Some(key) = key else { return false };
        let head = match &mut self.heads {
            Heads::Dense(base, slots) => &mut slots[key.wrapping_sub(*base) as usize],
            Heads::Hashed(map) => map.entry(key).or_insert((NONE, NONE)),
        };
        if head.0 == NONE {
            *head = (pos, pos);
            return true;
        }
        self.next[head.1] = pos;
        head.1 = pos;
        false
    }

    /// First position under `key`, [`NONE`] without one.
    fn first(&self, key: u64) -> usize {
        let head = match &self.heads {
            Heads::Dense(base, slots) => slots.get(key.wrapping_sub(*base) as usize),
            Heads::Hashed(map) => map.get(&key),
        };
        head.map_or(NONE, |&(first, _)| first)
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
    let join = Probe::new(tuples, next, Some(scan), shards);
    let table = layout.bindings[next].table;
    if let Some((ps, c)) = indexable(layout, link) {
        let chains = Chains::over(table, c, scan.iter().copied());
        return join.words(&chains, layout.slot_column(ps));
    }
    if let [(ps, bs)] = *link {
        let ((pb, probe), (_, build)) = (layout.slot_column(ps), layout.slot_column(bs));
        // A dictionary holds each string once, so the build scan chains by
        // code. The two columns' codes are unrelated: each distinct build
        // string maps to its chain once, and each distinct probe code is
        // translated through that map the first time a shard meets it.
        // Work follows the rows scanned and the distinct codes among them,
        // never dictionary size.
        if let (ColumnData::Str { codes: b, dict }, ColumnData::Str { codes: p, .. }) =
            (build.data(), probe.data())
        {
            let mut chains = Chains::new(scan.len(), word_range(table, layout.slot_owner(bs).1));
            let (bv, pv) = (build.validity(), probe.validity());
            let mut by_str: HashMap<&str, usize> = HashMap::new();
            for (pos, &rid) in scan.iter().enumerate() {
                if chains.push(bv[rid].then(|| b[rid].into())) {
                    by_str.insert(&dict[b[rid] as usize], pos);
                }
            }
            return join.run(&chains, |seen: &mut HashMap<u64, usize, WordState>, t| {
                let rid = t[pb];
                if !pv[rid] {
                    return NONE; // NULL never equi-joins
                }
                *seen.entry(p[rid].into()).or_insert_with(|| {
                    let chain = probe.get_str(rid).and_then(|s| by_str.get(s));
                    chain.copied().unwrap_or(NONE)
                })
            });
        }
    }

    // Several conditions, or a pair of types with no word-sized key (an int
    // and a float take this path, which is exact): key on the values
    // themselves, numbered from 0 as they appear (dense heads).
    let (probes, builds): (Vec<_>, Vec<_>) = link
        .iter()
        .map(|&(ps, bs)| (layout.slot_column(ps), layout.slot_column(bs).1))
        .unzip();
    let mut chains = Chains::new(scan.len(), Some((0, scan.len() as u64)));
    let mut key_ids: HashMap<Vec<Value>, u64> = HashMap::new();
    for &rid in scan {
        let key: Vec<Value> = builds.iter().map(|c| c.get(rid)).collect();
        let joins_nothing = |v: &Value| v.is_null() || v.as_f64().is_some_and(f64::is_nan);
        chains.push(if key.iter().any(joins_nothing) {
            None // NULL and NaN never equi-join
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

/// The one condition of `link` when it joins two int or two float columns,
/// which word keys serve: its probe slot and the build binding's column.
pub(super) fn indexable(layout: &Layout, link: &[(usize, usize)]) -> Option<(usize, usize)> {
    let [(ps, bs)] = *link else { return None };
    let [probe, build] = [ps, bs].map(|s| layout.slot_column(s).1.data());
    let numeric = matches!(build, ColumnData::Int(_) | ColumnData::Float(_));
    let same = std::mem::discriminant(probe) == std::mem::discriminant(build);
    (numeric && same).then(|| (ps, layout.slot_owner(bs).1))
}

/// One join step's probe side.
pub(super) struct Probe<'a> {
    tuples: &'a Tuples,
    next: usize,
    /// The build scan a chain position indexes; `None` when positions are
    /// row ids (a column index).
    scan: Option<&'a [usize]>,
    shards: usize,
}

impl<'a> Probe<'a> {
    pub(super) fn new(
        tuples: &'a Tuples,
        next: usize,
        scan: Option<&'a [usize]>,
        shards: usize,
    ) -> Self {
        let parallel = tuples.len() >= PARALLEL_PROBE_MIN;
        let shards = if parallel { shards } else { 1 };
        Probe {
            tuples,
            next,
            scan,
            shards,
        }
    }

    /// Probe `chains` with the word key ([`key_word`]) of column `probe` of
    /// binding `pb`: with `scan` `None`, a column's join index, for the probe
    /// slot of an [`indexable`] link.
    pub(super) fn words(&self, chains: &Chains, (pb, probe): (usize, &Column)) -> DbResult<Tuples> {
        self.run(chains, |_: &mut (), t| {
            key_word(probe, t[pb]).map_or(NONE, |w| chains.first(w))
        })
    }

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
                    push_joined(&mut out, t, self.next, self.scan.map_or(p, |s| s[p]));
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

    fn chains_of(keys: &[Option<u64>], range: Option<(u64, u64)>) -> Chains {
        let mut c = Chains::new(keys.len(), range);
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
        let c = chains_of(&keys, None);
        assert_eq!(matches(&c, 7), [1]);
        assert_eq!(matches(&c, 8), [2, 5]);
        let nines: Vec<usize> = [0, 4].into_iter().chain(6..46).collect();
        assert_eq!(matches(&c, 9), nines);
        assert!(matches(&c, 10).is_empty(), "a key never pushed");
    }

    #[test]
    fn push_reports_the_first_position_of_each_key() {
        let mut c = Chains::new(0, None);
        let firsts: Vec<bool> = [Some(3), Some(3), None, Some(4), Some(3)]
            .into_iter()
            .map(|k| c.push(k))
            .collect();
        assert_eq!(firsts, [true, false, false, true, false]);
    }

    #[test]
    fn all_equal_keys_form_one_chain_and_an_empty_build_has_none() {
        let c = chains_of(&[Some(5); 1000], None);
        assert_eq!(matches(&c, 5), (0..1000).collect::<Vec<_>>());
        let empty = chains_of(&[], None);
        assert!(matches(&empty, 5).is_empty());
        assert!(matches(&empty, 0).is_empty());
    }

    #[test]
    fn dense_heads_straddle_zero_and_hashed_heads_take_sparse_keys() {
        // Ints -2..=2 as words wrap from u64::MAX - 1 to 2; a NULL among them.
        let mut keys = [-2i64, 2, -1, 0, -2, 1].map(|i| Some(i as u64)).to_vec();
        keys.insert(3, None);
        let c = chains_of(&keys, Some((-2i64 as u64, 2)));
        assert!(matches!(&c.heads, Heads::Dense(_, slots) if slots.len() == 5));
        let got = [-2i64, -1, 0, 1, 2, 3, -3, 1 << 40].map(|k| matches(&c, k as u64));
        let want: [&[usize]; 8] = [&[0, 5], &[2], &[4], &[6], &[1], &[], &[], &[]];
        assert_eq!(got, want);
        // Keys spread over 2⁶⁴, far wider than the scan, and a NULL.
        let sparse = [Some(0), None, Some(u64::MAX), Some(1 << 63), Some(0)];
        let c = chains_of(&sparse, Some((0, u64::MAX)));
        assert!(matches!(c.heads, Heads::Hashed(_)));
        let want = [vec![0, 4], vec![2], vec![3]];
        assert_eq!([0, u64::MAX, 1 << 63].map(|k| matches(&c, k)), want);
        // Only NULL keys: every position is taken and none joins.
        let c = chains_of(&[None; 3], Some((0, 0)));
        assert_eq!((c.next.len(), matches(&c, 0)), (3, vec![]));
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

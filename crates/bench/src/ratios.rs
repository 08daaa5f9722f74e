//! `asqp-bench ratios` — the one micro perf check left beside `e2e/`.
//!
//! `e2e` owns absolute time. What it cannot see is an *asymptotic* slip
//! worth a few milliseconds: statistics or zone maps falling back from
//! O(batch) to O(rows) on an append would hide inside `refresh_s`'s bound,
//! a GEMM that lost its tiling, or a policy layer that went back to
//! multiplying its state's zeros, inside `rl.update_s`'s, and a LIKE
//! matcher that went back to collecting characters, inside
//! `db.scan_us_mean`'s, and an appended count that went back to scanning
//! the tables the batch joins, inside `refresh_s`'s. Each [`PAIRS`] entry therefore times a fast side
//! and the slow side it replaced back to back in one process and judges
//! only their **quotient**, so the host cancels; a quotient under the
//! pair's floor fails the run. Each floor is
//! about a third of the lowest quotient observed on the 2-vCPU build host
//! (the runs are in CHANGES.md, PR 17).

use asqp_db::expr::like_match;
use asqp_db::testkit::like_match_chars;
use asqp_db::zonemap::TableZones;
use asqp_db::{Database, Row, Schema, StatsAccum, Table, Value, ValueType};
use asqp_nn::{Activation, LayerInput, Linear, Matrix, SetBits};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::hint::black_box;
use std::time::Instant;

/// One seeded row of the fact table `events(id, user_id, item_id, qty,
/// amount)`: `id` is clustered, everything else shuffled, the two foreign
/// keys ranging over dimensions of 1:100 and 1:50 of `fact_rows`.
fn event(id: usize, fact_rows: usize, rng: &mut StdRng) -> Row {
    vec![
        Value::Int(id as i64),
        Value::Int(rng.random_range(0..(fact_rows / 100).max(8) as i64)),
        Value::Int(rng.random_range(0..(fact_rows / 50).max(8) as i64)),
        Value::Int(rng.random_range(0i64..100)),
        Value::Float(rng.random_range(0.0..100.0)),
    ]
}

/// A database holding the `events` fact table with `fact_rows` rows.
fn fact_db(fact_rows: usize) -> Database {
    let schema = Schema::build(&[
        ("id", ValueType::Int),
        ("user_id", ValueType::Int),
        ("item_id", ValueType::Int),
        ("qty", ValueType::Int),
        ("amount", ValueType::Float),
    ]);
    let mut rng = StdRng::seed_from_u64(7);
    let mut db = Database::new();
    let events = db.create_table("events", schema).expect("fresh database");
    for id in 0..fact_rows {
        let row = event(id, fact_rows, &mut rng);
        events.push_row(&row).expect("row matches schema");
    }
    db
}

/// A seeded ingest batch: `pct` percent of `fact_rows` fresh rows whose ids
/// continue the clustered run.
fn ingest_batch(fact_rows: usize, pct: usize) -> Vec<Row> {
    let mut rng = StdRng::seed_from_u64(11);
    let ids = fact_rows..fact_rows + (fact_rows * pct / 100).max(1);
    ids.map(|id| event(id, fact_rows, &mut rng)).collect()
}

/// Median wall-clock nanoseconds of `f` over `samples` runs after `warmup`
/// discarded ones; `f`'s value is black-boxed so the work cannot be elided.
fn measure<T>(warmup: usize, samples: usize, mut f: impl FnMut() -> T) -> u64 {
    for _ in 0..warmup {
        black_box(f());
    }
    let mut times: Vec<u64> = (0..samples.max(1))
        .map(|_| {
            let t0 = Instant::now();
            black_box(f());
            t0.elapsed().as_nanos() as u64
        })
        .collect();
    times.sort_unstable();
    times[times.len() / 2]
}

/// One A/B pair: `run` returns `(fast_ns, slow_ns)` medians; the pair
/// passes while `slow / fast >= floor`.
pub struct Pair {
    pub name: &'static str,
    pub floor: f64,
    pub run: fn() -> (u64, u64),
}

pub const PAIRS: [Pair; 7] = [
    Pair {
        name: "stats: absorb a 1% append vs rebuild",
        floor: 30.0,
        run: stats_maintain_vs_rebuild,
    },
    Pair {
        name: "stats: absorb a 1% append vs rebuild, dictionary-coded text",
        floor: 20.0,
        run: text_stats_maintain_vs_rebuild,
    },
    Pair {
        name: "zone maps: extend over a 1% append vs rebuild",
        floor: 10.0,
        run: zonemap_extend_vs_rebuild,
    },
    Pair {
        name: "256x256x256 GEMM: tiled kernel vs pre-kernel loop",
        floor: 1.4,
        run: gemm_tiled_vs_naive,
    },
    Pair {
        name: "policy layer 0, 16x1026->128: set bits vs GEMM",
        floor: 1.2,
        run: first_layer_set_bits_vs_gemm,
    },
    Pair {
        name: "LIKE mask, 20 000 titles: byte offsets vs Vec<char>",
        floor: 1.8,
        run: like_mask_bytes_vs_chars,
    },
    Pair {
        name: "count of a 3-table join: a 1% append vs a recount",
        floor: 18.0,
        run: appended_count_vs_recount,
    },
];

const FACT_ROWS: usize = 100_000;

/// The fact table before and after a 1 % append.
fn append_fixture() -> (Database, Database) {
    let old = fact_db(FACT_ROWS);
    let mut grown = old.clone();
    grown
        .append_rows("events", &ingest_batch(FACT_ROWS, 1))
        .expect("batch matches the fact schema");
    (old, grown)
}

fn events(db: &Database) -> &Table {
    db.table("events").expect("fixture table")
}

/// Maintenance and rebuild are compared at the accumulator level: deriving
/// `TableStats` costs the same on either path and would only dilute the
/// O(batch × columns) vs O(rows × columns) asymmetry. Re-absorbing the same
/// batch inflates the value counts but touches exactly the same map
/// entries, so the timing stays representative.
fn stats_pair(old: &Table, grown: &Table) -> (u64, u64) {
    let mut acc = StatsAccum::from_table(old);
    let maintain = measure(4, 15, || acc.absorb_rows(grown, old.row_count()));
    let rebuild = measure(4, 15, || StatsAccum::from_table(grown));
    (maintain, rebuild)
}

fn stats_maintain_vs_rebuild() -> (u64, u64) {
    let (old, grown) = append_fixture();
    stats_pair(events(&old), events(&grown))
}

/// One seeded row of the text-heavy `people(name, city, tag, note)`: four
/// dictionary-coded columns drawing from 1:2, 1:100, 1:1 000 and 1:10 of
/// `rows` distinct values.
fn person(rows: usize, rng: &mut StdRng) -> Row {
    [2, 100, 1_000, 10]
        .iter()
        .map(|d| Value::from(format!("v{}", rng.random_range(0..rows / d))))
        .collect()
}

/// Text columns count by dictionary code, not by map entry: the pair that
/// keeps that path O(batch) too.
fn text_stats_maintain_vs_rebuild() -> (u64, u64) {
    let schema = Schema::build(&[
        ("name", ValueType::Str),
        ("city", ValueType::Str),
        ("tag", ValueType::Str),
        ("note", ValueType::Str),
    ]);
    let mut rng = StdRng::seed_from_u64(5);
    let mut batch =
        |n: usize| -> Vec<Row> { (0..n).map(|_| person(FACT_ROWS, &mut rng)).collect() };
    let mut old = Table::new("people", schema);
    old.append_rows(&batch(FACT_ROWS))
        .expect("rows match the schema");
    let mut grown = old.clone();
    grown
        .append_rows(&batch(FACT_ROWS / 100))
        .expect("rows match the schema");
    stats_pair(&old, &grown)
}

fn zonemap_extend_vs_rebuild() -> (u64, u64) {
    let (old, grown) = append_fixture();
    let (t_old, t_new) = (events(&old), events(&grown));
    let zones_old = TableZones::build(t_old);
    let extend = measure(4, 15, || zones_old.extended(t_new, t_old.row_count()));
    let rebuild = measure(4, 15, || TableZones::build(t_new));
    (extend, rebuild)
}

/// The pre-kernel-layer `Matrix::matmul` loop, verbatim: plain mul/add ikj
/// with a per-element zero-skip branch — the honest "before" side. This is
/// *not* `kernels::reference::matmul`, whose `f32::mul_add` compiles to a
/// libm `fmaf` call at baseline ISA and would overstate the ratio ~20×.
fn pre_kernel_matmul(n: usize, a: &[f32], b: &[f32], out: &mut [f32]) {
    out.fill(0.0);
    for i in 0..n {
        for k in 0..n {
            let av = a[i * n + k];
            if av == 0.0 {
                continue;
            }
            let brow = &b[k * n..(k + 1) * n];
            let orow = &mut out[i * n..(i + 1) * n];
            for (o, &bv) in orow.iter_mut().zip(brow) {
                *o += av * bv;
            }
        }
    }
}

fn gemm_tiled_vs_naive() -> (u64, u64) {
    let n = 256;
    let mut rng = StdRng::seed_from_u64(1);
    let a = Matrix::kaiming(n, n, &mut rng);
    let b = Matrix::kaiming(n, n, &mut rng);
    let tiled = measure(3, 9, || a.matmul(&b));
    let mut naive_out = vec![0.0f32; n * n];
    let naive = measure(2, 5, || {
        pre_kernel_matmul(n, a.data(), b.data(), &mut naive_out);
        naive_out[0]
    });
    (tiled, naive)
}

/// One gradient shard of the actor's first layer at the e2e fixture's
/// shape: 16 indicator states 1 026 wide with ~96 bits set, forward and
/// `gw = x^T dz`, on their set bits against the tiled GEMM on the rows.
fn first_layer_set_bits_vs_gemm() -> (u64, u64) {
    let (rows, width, n) = (16, 1026, 128);
    let mut rng = StdRng::seed_from_u64(3);
    let layer = Linear::new(width, n, Activation::Tanh, &mut rng);
    let mut dense = Matrix::zeros(rows, width);
    for r in 0..rows {
        (0..96).for_each(|_| *dense.at_mut(r, rng.random_range(0..width)) = 1.0);
    }
    let mut bits = SetBits::default();
    bits.clear(width);
    (0..rows).for_each(|r| bits.push_row(dense.row(r)));
    let dz = Matrix::kaiming(rows, n, &mut rng);
    let [mut out, mut t, mut gw] = <[Matrix; 3]>::default();
    let mut pass = |x: &dyn LayerInput| {
        x.linear_into(&layer, &mut out);
        x.weight_grad_into(&dz, &mut t, &mut gw);
    };
    (
        measure(20, 101, || pass(&bits)),
        measure(20, 101, || pass(&dense)),
    )
}

/// The dictionary mask a scan compiles for `title LIKE p`, over 20 000
/// distinct seeded titles (some with multi-byte text) and the workload's
/// prefix, suffix and infix patterns: the byte-offset matcher against the
/// `Vec<char>` reference it replaced.
fn like_mask_bytes_vs_chars() -> (u64, u64) {
    let words = [
        "star", "war", "night", "amélie", "river", "東京", "blue", "the",
    ];
    let mut rng = StdRng::seed_from_u64(9);
    let mut word = || words[rng.random_range(0..words.len())];
    let titles: Vec<String> = (0..20_000)
        .map(|i| format!("{} {} {i}", word(), word()))
        .collect();
    let mask = |like: fn(&str, &str) -> bool| -> Vec<bool> {
        let patterns = ["b%", "%a", "%r%"];
        patterns
            .iter()
            .flat_map(|p| titles.iter().map(move |t| like(t, p)))
            .collect()
    };
    (
        measure(3, 15, || mask(like_match)),
        measure(3, 15, || mask(like_match_chars)),
    )
}

/// The fact table after a 1 % append, joined to two dimensions of 10 000
/// and 5 000 rows, each half filtered: what the append added to the count
/// (the plan starts from the batch and probes both dimensions through their
/// join indexes) against the whole count (a dimension's filtered scan
/// probes a build over every fact row).
fn appended_count_vs_recount() -> (u64, u64) {
    let (_, mut db) = append_fixture();
    for (name, rows) in [("users", FACT_ROWS / 10), ("items", FACT_ROWS / 20)] {
        let schema = Schema::build(&[("id", ValueType::Int), ("x", ValueType::Int)]);
        let table = db.create_table(name, schema).expect("fresh table");
        for id in 0..rows as i64 {
            let row = [Value::Int(id), Value::Int(id % 10)];
            table.push_row(&row).expect("row matches schema");
        }
    }
    let q = asqp_db::sql::parse(
        "SELECT e.id FROM users AS u, events AS e, items AS i \
         WHERE e.user_id = u.id AND e.item_id = i.id AND u.x < 5 AND i.x > 4",
    )
    .expect("valid SQL");
    let count = |added| asqp_db::testkit::count(&db, &q, added).expect("the query runs");
    (
        measure(3, 15, || count(Some(("events", FACT_ROWS)))),
        measure(3, 15, || count(None)),
    )
}

/// Run every pair, print one line each, and return how many fell under
/// their floor.
pub fn run_pairs() -> usize {
    let mut failed = 0;
    for pair in &PAIRS {
        let (fast, slow) = (pair.run)();
        let quotient = slow as f64 / fast.max(1) as f64;
        let verdict = if quotient >= pair.floor {
            "ok"
        } else {
            failed += 1;
            "UNDER FLOOR"
        };
        println!(
            "{:<52} {:>10} ns vs {:>10} ns  {quotient:>7.1}x  (floor {:.1}x) {verdict}",
            pair.name, fast, slow, pair.floor
        );
    }
    failed
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Smoke only: an unoptimised build says nothing about the quotients, so
    /// no floor is asserted here.
    #[test]
    fn every_pair_runs_and_times_both_sides() {
        for pair in &PAIRS {
            let (fast, slow) = (pair.run)();
            assert!(
                fast > 0 && slow > 0,
                "{}: {fast} ns vs {slow} ns",
                pair.name
            );
            assert!(pair.floor > 1.0, "{}", pair.name);
        }
    }
}

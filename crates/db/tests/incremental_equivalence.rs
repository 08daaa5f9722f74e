//! Incremental-maintenance equivalence oracle (extends the PR-1/PR-6
//! oracle pattern): after a random interleaving of batched appends and
//! in-place updates driven through [`Database::append_rows`] /
//! [`Database::update_rows`], every piece of incrementally maintained
//! derived state — zone maps, statistics accumulators, `TableStats` — must
//! be *identical* to what a from-scratch rebuild over the final data
//! produces, and every query must return the same rows, order, and lineage
//! as a fresh `Database` loaded with the final rows.

mod common;

use asqp_db::zonemap::{TableZones, MORSEL_ROWS};
use asqp_db::{Database, Row, TableStats, Value};
use common::{fixture_db, gen_query_upto, pick, WORDS};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;

/// One generated row in the fixture vocabulary, so appended rows both join
/// with existing ones and sometimes match generated predicates.
fn gen_row(rng: &mut StdRng) -> Row {
    let mut row = vec![
        Value::Int(rng.random_range(0..90i64)),
        Value::from(pick(rng, WORDS)),
        Value::Int(rng.random_range(0..500i64)),
        Value::from(pick(rng, WORDS)),
        Value::Float(rng.random_range(0..100i64) as f64 / 2.0 + 0.5),
        Value::from(pick(rng, WORDS)),
    ];
    for cell in row.iter_mut().skip(1) {
        if rng.random_bool(0.08) {
            *cell = Value::Null;
        }
    }
    row
}

/// A fresh database holding exactly `rows` per table — the from-scratch
/// oracle every incremental structure is compared against.
fn rebuild(live: &Database, rows: &BTreeMap<String, Vec<Row>>) -> Database {
    let mut db = Database::new();
    for table in live.tables() {
        let fresh = db
            .create_table(table.name(), table.schema().clone())
            .unwrap();
        for row in &rows[table.name()] {
            fresh.push_row(row).unwrap();
        }
    }
    db
}

/// Assert every maintained structure equals its rebuilt-from-scratch twin.
fn assert_equivalent(live: &Database, oracle: &Database, queries: &[asqp_db::Query], seed: u64) {
    for table in live.tables() {
        let fresh = oracle.table(table.name()).unwrap();
        assert_eq!(table.row_count(), fresh.row_count(), "seed {seed}");

        let maintained_zones = table.zone_maps();
        let rebuilt_zones = TableZones::build(fresh);
        assert_eq!(
            *maintained_zones,
            rebuilt_zones,
            "zone maps diverged for {} (seed {seed})",
            table.name()
        );

        let maintained_stats = live.table_stats(table.name()).unwrap();
        let rebuilt_stats = TableStats::compute(fresh);
        assert_eq!(
            *maintained_stats,
            rebuilt_stats,
            "table stats diverged for {} (seed {seed})",
            table.name()
        );
        assert_eq!(
            format!("{maintained_stats:?}"),
            format!("{rebuilt_stats:?}"),
            "stats debug render diverged for {} (seed {seed})",
            table.name()
        );
    }

    for q in queries {
        let a = live.execute_with_lineage(q).unwrap();
        let b = oracle.execute_with_lineage(q).unwrap();
        assert_eq!(
            a.result.rows,
            b.result.rows,
            "rows/order diverged (seed {seed}): {}",
            q.to_sql()
        );
        assert_eq!(
            a.lineage,
            b.lineage,
            "lineage diverged (seed {seed}): {}",
            q.to_sql()
        );
        assert_eq!(
            live.cached_row_count(q).unwrap(),
            oracle.cached_row_count(q).unwrap(),
            "cardinality diverged (seed {seed}): {}",
            q.to_sql()
        );
    }
}

fn run_interleaving(seed: u64, ops: usize, checkpoints: usize) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut live = fixture_db();
    let mut rows: BTreeMap<String, Vec<Row>> = live
        .tables()
        .map(|t| {
            (
                t.name().to_string(),
                t.row_ids().map(|r| t.row(r)).collect(),
            )
        })
        .collect();
    let names: Vec<String> = live.table_names().map(String::from).collect();
    let queries: Vec<asqp_db::Query> = (0..12).map(|_| gen_query_upto(&mut rng, 2)).collect();

    // Warm every maintained structure so the incremental paths (zone-map
    // extension, stats absorption, fingerprinted counts) actually run —
    // cold caches would just rebuild lazily and prove nothing.
    for name in &names {
        live.table(name).unwrap().zone_maps();
        live.table_stats(name).unwrap();
    }
    for q in &queries {
        live.cached_row_count(q).unwrap();
    }

    for op in 0..ops {
        let name = names[rng.random_range(0..names.len())].clone();
        if rng.random_bool(0.6) {
            // Append a batch; occasionally large enough to cross a morsel
            // boundary so whole-chunk reuse and partial-chunk rescans both
            // get exercised.
            let batch = if rng.random_bool(0.1) {
                MORSEL_ROWS + rng.random_range(0..64usize)
            } else {
                rng.random_range(1..40usize)
            };
            let new_rows: Vec<Row> = (0..batch).map(|_| gen_row(&mut rng)).collect();
            live.append_rows(&name, &new_rows).unwrap();
            rows.get_mut(&name).unwrap().extend(new_rows);
        } else {
            let n = live.table(&name).unwrap().row_count();
            if n == 0 {
                continue;
            }
            let updates: Vec<(usize, Row)> = (0..rng.random_range(1..10usize))
                .map(|_| (rng.random_range(0..n), gen_row(&mut rng)))
                .collect();
            live.update_rows(&name, &updates).unwrap();
            let mirror = rows.get_mut(&name).unwrap();
            for (rid, row) in &updates {
                mirror[*rid] = row.clone();
            }
        }
        // Occasionally read stats/counts mid-stream so absorption runs on a
        // warm accumulator rather than being deferred to the final check.
        if rng.random_bool(0.3) {
            live.table_stats(&name).unwrap();
        }
        if rng.random_bool(0.2) {
            let q = &queries[rng.random_range(0..queries.len())];
            live.cached_row_count(q).unwrap();
        }
        if checkpoints > 0 && op % (ops / checkpoints).max(1) == 0 {
            let oracle = rebuild(&live, &rows);
            assert_equivalent(&live, &oracle, &queries, seed);
        }
    }

    let oracle = rebuild(&live, &rows);
    assert_equivalent(&live, &oracle, &queries, seed);
}

#[test]
fn random_interleavings_match_from_scratch_rebuilds() {
    for seed in [7, 42, 0xA5_0E11, 20240807] {
        run_interleaving(seed, 40, 2);
    }
}

#[test]
fn morsel_crossing_appends_match_rebuilds() {
    // Heavier batches: most appends cross chunk boundaries.
    let mut rng = StdRng::seed_from_u64(99);
    let mut live = fixture_db();
    let queries: Vec<asqp_db::Query> = (0..8).map(|_| gen_query_upto(&mut rng, 2)).collect();
    let mut rows: BTreeMap<String, Vec<Row>> = live
        .tables()
        .map(|t| {
            (
                t.name().to_string(),
                t.row_ids().map(|r| t.row(r)).collect(),
            )
        })
        .collect();
    live.table("title").unwrap().zone_maps();
    live.table_stats("title").unwrap();
    for _ in 0..4 {
        let batch: Vec<Row> = (0..MORSEL_ROWS + 17).map(|_| gen_row(&mut rng)).collect();
        live.append_rows("title", &batch).unwrap();
        rows.get_mut("title").unwrap().extend(batch);
    }
    let oracle = rebuild(&live, &rows);
    assert_equivalent(&live, &oracle, &queries, 99);
}

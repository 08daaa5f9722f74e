//! The maintained statistics against the value-keyed accumulator they
//! replaced ([`ValueCounts`]): random tables of edge values, then random
//! appends and in-place updates on clones. At every step the table's
//! [`Table::stats`] must equal what the oracle, driven through the same
//! appends and updates, derives — by `==` (mean and std by their bits,
//! since NaN is no equal of itself) and by their `{:?}` render, which tells
//! `-0.0` from `0.0`.

use asqp_db::testkit::ValueCounts;
use asqp_db::{Row, Schema, Table, TableStats, Value, ValueType};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

const P53: i64 = 1 << 53;

const INTS: [i64; 16] = [
    i64::MIN,
    i64::MIN + 1,
    i64::MAX,
    i64::MAX - 1,
    P53 - 1,
    P53,
    P53 + 1,
    P53 + 2,
    -P53 - 1,
    -P53,
    -P53 + 1,
    0,
    -1,
    1,
    7,
    1_000_000,
];

const FLOATS: [f64; 14] = [
    f64::NAN,
    -f64::NAN,
    -0.0,
    0.0,
    f64::INFINITY,
    f64::NEG_INFINITY,
    5e-324,
    -5e-324,
    2.2e-308,
    1.5,
    -1.5,
    9_007_199_254_740_992.0,
    1e300,
    7.0,
];

const TEXT: [&str; 12] = [
    "",
    "a",
    "ab",
    "abc",
    "abd",
    "é",
    "éa",
    "日本",
    "日本語",
    "\u{1F600}",
    "\u{1F600}x",
    "Z",
];

fn schema() -> Schema {
    Schema::build(&[
        ("i", ValueType::Int),
        ("f", ValueType::Float),
        ("s", ValueType::Str),
        ("b", ValueType::Bool),
        ("t", ValueType::Str),
    ])
}

/// One row of edge values, about one cell in eight NULL. A float column
/// is sometimes handed an int, which it stores widened.
fn row(rng: &mut StdRng) -> Row {
    let mut cells = vec![
        Value::Int(match rng.random_range(0..3) {
            0 => rng.random_range(-3i64..3),
            _ => INTS[rng.random_range(0..INTS.len())],
        }),
        match rng.random_range(0..6) {
            0 => Value::Int(INTS[rng.random_range(0..INTS.len())]),
            1 => Value::Float(rng.random_range(-2i64..2) as f64 / 4.0),
            _ => Value::Float(FLOATS[rng.random_range(0..FLOATS.len())]),
        },
        Value::from(TEXT[rng.random_range(0..TEXT.len())]),
        Value::Bool(rng.random_bool(0.3)),
        // Text that is mostly new, so updates and appends grow the dictionary.
        Value::from(format!(
            "{}{}",
            TEXT[rng.random_range(0..4)],
            rng.random_range(0..40)
        )),
    ];
    for cell in &mut cells {
        if rng.random_bool(0.12) {
            *cell = Value::Null;
        }
    }
    cells
}

fn assert_same(got: &TableStats, want: &TableStats, step: &str) {
    let bits = |s: &TableStats| -> Vec<_> {
        s.columns
            .iter()
            .map(|c| (c.mean.map(f64::to_bits), c.std.map(f64::to_bits)))
            .collect()
    };
    let no_moments = |s: &TableStats| {
        let mut s = s.clone();
        for c in &mut s.columns {
            (c.mean, c.std) = (None, None);
        }
        s
    };
    assert_eq!(no_moments(got), no_moments(want), "{step}");
    assert_eq!(bits(got), bits(want), "{step}");
    assert_eq!(format!("{got:?}"), format!("{want:?}"), "{step}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(200))]

    #[test]
    fn maintained_stats_match_the_value_keyed_oracle(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut table = Table::new("t", schema());
        for _ in 0..rng.random_range(0..60) {
            table.push_row(&row(&mut rng)).unwrap();
        }
        // Both warm, so each later change is absorbed by both alike.
        table.stats();
        let mut oracle = ValueCounts::from_table(&table);
        assert_same(&table.stats(), &oracle.derive("t", table.schema()), "built");
        for step in 0..rng.random_range(1..8) {
            // A clone taken before the change keeps its statistics.
            let before = (table.clone(), table.stats());
            if table.is_empty() || rng.random_bool(0.5) {
                let from = table.row_count();
                let batch: Vec<Row> = (0..rng.random_range(1..12)).map(|_| row(&mut rng)).collect();
                table.append_rows(&batch).unwrap();
                oracle.absorb_rows(&table, from);
            } else {
                let n = table.row_count();
                let updates: Vec<(usize, Row)> = (0..rng.random_range(1..6))
                    .map(|_| (rng.random_range(0..n), row(&mut rng)))
                    .collect();
                // The oracle retracts each row as the batch left it so far
                // and admits it as stored (a float column widens an int).
                let mut shadow = table.clone();
                for (rid, new) in &updates {
                    let old = shadow.row(*rid);
                    shadow.update_rows(&[(*rid, new.clone())]).unwrap();
                    oracle.apply_update(&old, &shadow.row(*rid));
                }
                table.update_rows(&updates).unwrap();
            }
            let step = format!("seed {seed} step {step}");
            assert_same(&table.stats(), &oracle.derive("t", table.schema()), &step);
            assert!(Arc::ptr_eq(&before.0.stats(), &before.1), "{step}");
        }
    }
}

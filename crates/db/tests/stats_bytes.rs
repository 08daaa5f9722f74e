//! What a table's statistics hold in memory, as a count of live heap bytes:
//! the accumulator [`Table::stats`] keeps beside the columns is paid for by
//! every table and by every clone that changes one, so its size per distinct
//! value is pinned here, not only its speed. One test only: the counter is
//! the process's.
#![allow(unsafe_code)]

use asqp_db::{Row, Schema, Table, Value, ValueType};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

static LIVE: AtomicUsize = AtomicUsize::new(0);

struct Live;

// SAFETY: both methods forward their arguments unchanged to `System`, whose
// contract is the one the caller upholds; the counter is a statistic.
// `realloc` keeps its default, which goes through these two.
unsafe impl GlobalAlloc for Live {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LIVE.fetch_add(layout.size(), Ordering::Relaxed);
        // SAFETY: as above.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        // SAFETY: `ptr` was returned by `System.alloc` for this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Live = Live;

const ROWS: i64 = 100_000;

/// Bytes the statistics may hold per distinct number (a map entry of an
/// 8-byte key and a 4-byte count, and its share of the nodes).
const NUMERIC_BYTES: usize = 16;
/// Bytes they may hold per dictionary entry (a 4-byte count).
const DICT_BYTES: usize = 5;
/// The derived `TableStats` and the containers' own headers.
const FIXED_BYTES: usize = 16 << 10;

#[test]
fn statistics_hold_a_few_bytes_per_distinct_value() {
    let schema = Schema::build(&[
        ("id", ValueType::Int),
        ("group", ValueType::Int),
        ("score", ValueType::Float),
        ("label", ValueType::Str),
    ]);
    let mut table = Table::new("t", schema);
    let labels: Vec<Value> = (0..10_000).map(|i| format!("label {i}").into()).collect();
    let rows: Vec<Row> = (0..ROWS)
        .map(|i| {
            vec![
                Value::Int(i),
                Value::Int(i * 7 % 1_000),
                Value::Float((i * 13 % 50_000) as f64 / 8.0),
                labels[(i * 31 % 10_000) as usize].clone(),
            ]
        })
        .collect();
    table.append_rows(&rows).unwrap();
    drop((rows, labels));

    let before = LIVE.load(Ordering::Relaxed);
    let stats = table.stats();
    let held = LIVE.load(Ordering::Relaxed) - before;

    let distinct = |name: &str| stats.column(name).unwrap().distinct;
    let numeric = distinct("id") + distinct("group") + distinct("score");
    let dict = table.column(3).dict_len().unwrap();
    assert_eq!((numeric, dict), (151_000, 10_000));
    let budget = NUMERIC_BYTES * numeric + DICT_BYTES * dict + FIXED_BYTES;
    assert!(
        held <= budget,
        "statistics hold {held} B for {numeric} distinct numbers and {dict} dictionary \
         entries ({:.1} B per distinct value); the budget is {budget} B",
        held as f64 / (numeric + dict) as f64
    );
}

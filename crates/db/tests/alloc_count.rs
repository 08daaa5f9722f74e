//! What a full answer asks of the allocator, as a count: one buffer per
//! result, not a `Vec` per row and a `String` per text cell. A count repeats
//! exactly where a timing does not, and it bounds what the heap's state can
//! do to an answer (ROADMAP, "Rule for every gain"). One test only: the
//! counter is the process's.
#![allow(unsafe_code)]

use asqp_db::{Database, Schema, Value, ValueType};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

static ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);

struct Counting;

// SAFETY: both methods forward their arguments unchanged to `System`, whose
// contract is the one the caller upholds; the counter is a statistic.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: as above.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was returned by `System.alloc` for this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

#[test]
fn a_join_answer_allocates_per_result_not_per_row() {
    let mut db = Database::new();
    let mut fill = |table: &str, key: &str, label: &str, rows: i64| {
        let schema = Schema::build(&[(key, ValueType::Int), (label, ValueType::Str)]);
        let table = db.create_table(table, schema).unwrap();
        for i in 0..rows {
            let row = [Value::Int(i % 4_000), format!("{label} {i}").into()];
            table.push_row(&row).unwrap();
        }
    };
    fill("movies", "id", "title", 4_000);
    fill("cast_info", "movie_id", "role", 12_000);
    let q = asqp_db::sql::parse(
        "SELECT m.title, c.role FROM movies m, cast_info c \
         WHERE m.id = c.movie_id AND m.id >= 500",
    )
    .unwrap();
    let counted = || {
        let before = ALLOCATIONS.load(Ordering::Relaxed);
        let rows = db.execute(&q).unwrap().len();
        (rows, ALLOCATIONS.load(Ordering::Relaxed) - before)
    };
    counted(); // statistics, zone maps and thread-locals are built once
    let (rows, allocations) = counted();
    assert_eq!(rows, 10_500);
    assert!(
        allocations < rows / 10,
        "{allocations} allocations for {rows} rows"
    );
    assert_eq!(counted(), (rows, allocations), "the count repeats");
}

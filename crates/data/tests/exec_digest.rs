//! Execution digests: everything the engine returns for the three bundled
//! workloads, folded into two numbers per dataset.
//!
//! For each dataset at `Scale::Tiny`, `workload(40, 7)` runs on the full
//! database and on one fixed subset of it, and per query and per database
//! the *ordered* digest folds output columns, the executed join order, rows
//! in order and per-row lineage; the *sorted* digest folds the columns and
//! the rows zipped with their lineage after sorting, so it also holds where
//! another join order is a legitimate choice. A refactor of `asqp-db` that
//! claims "same answers" must leave these constants alone.
//!
//! Both triples were recorded one step before the plan cache went (PR 18),
//! with the parent's code: every join order the cache replayed on these
//! workloads is the order planning from the executing database's own
//! statistics picks, on the subset too.

use asqp_data::{flights, imdb, mas, Scale};
use asqp_db::{Database, Workload};
use std::collections::BTreeMap;
use std::fmt::Write as _;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

fn fnv1a(h: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *h ^= u64::from(b);
        *h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
}

/// Every third row of every table: small enough that statistics differ from
/// the parent's, large enough that joins still produce rows.
fn fixed_subset(db: &Database) -> Database {
    let selection: BTreeMap<String, Vec<usize>> = db
        .tables()
        .map(|t| {
            (
                t.name().to_string(),
                (0..t.row_count()).step_by(3).collect(),
            )
        })
        .collect();
    db.subset(&selection).unwrap()
}

/// `(ordered, sorted)` digests of `workload` on `db` and on its fixed subset.
fn digests(db: &Database, workload: &Workload) -> (u64, u64) {
    let sub = fixed_subset(db);
    let (mut ordered, mut sorted) = (FNV_OFFSET, FNV_OFFSET);
    let mut line = String::new();
    for q in &workload.queries {
        for target in [db, &sub] {
            let out = target.execute_with_lineage(q).unwrap();
            line.clear();
            let _ = write!(
                line,
                "{:?}|{:?}|{:?}|{:?}",
                out.result.columns, out.trace.join_order, out.result.rows, out.lineage
            );
            fnv1a(&mut ordered, line.as_bytes());

            // An aggregate's rows carry no lineage and pair with `None`.
            let mut pairs: Vec<_> = (out.result.rows.iter().enumerate())
                .map(|(i, row)| (row, out.lineage.get(i)))
                .collect();
            pairs.sort();
            line.clear();
            let _ = write!(line, "{:?}|{:?}", out.result.columns, pairs);
            fnv1a(&mut sorted, line.as_bytes());
        }
    }
    (ordered, sorted)
}

#[test]
fn workload_digests_match_the_recorded_build() {
    let got = [
        digests(&imdb::generate(Scale::Tiny, 7), &imdb::workload(40, 7)),
        digests(&mas::generate(Scale::Tiny, 7), &mas::workload(40, 7)),
        digests(
            &flights::generate(Scale::Tiny, 7),
            &flights::workload(40, 7),
        ),
    ];
    let want: [(u64, u64); 3] = [
        (0x5c6c_6690_d50a_84ab, 0x0835_7701_8313_04a9),
        (0xbcad_986c_6675_2f29, 0x7d43_0b69_f86a_599f),
        (0x4a93_7879_8826_ebe5, 0x7442_9804_073e_bb37),
    ];
    assert_eq!(
        got.map(|(o, s)| format!("{o:#018x} {s:#018x}")),
        want.map(|(o, s)| format!("{o:#018x} {s:#018x}")),
        "[imdb, mas, flights] as (ordered, sorted)"
    );
}

/// What a database serialises to, recorded with `Value::Str(String)` and a
/// `Vec<String>` dictionary one step before both became `Arc<str>`: the
/// content tree is what `serde_json` renders, so equal trees are equal bytes.
#[test]
fn databases_serialise_to_the_recorded_bytes() {
    use serde::Serialize;
    let digest = |db: Database| {
        let mut h = FNV_OFFSET;
        fnv1a(&mut h, format!("{:?}", db.to_content()).as_bytes());
        format!("{h:#018x}")
    };
    let got = [imdb::generate, mas::generate, flights::generate].map(|g| digest(g(Scale::Tiny, 7)));
    let want = [
        "0x1c050ff89ffcf46c",
        "0x89c40f2aac2cacd5",
        "0x822f9c9ae43869b4",
    ];
    assert_eq!(got, want, "[imdb, mas, flights]");
}

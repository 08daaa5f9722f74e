//! Execution digests: everything the engine returns for the three bundled
//! workloads, folded into one number per dataset.
//!
//! For each dataset at `Scale::Tiny`, `workload(40, 7)` runs on the full
//! database and on one fixed subset that shares its plan cache (so the
//! subset replays the parent's cached plans, as approximation sets do), and
//! the digest folds, per query and per database: output columns, rows in
//! order, per-row lineage, the executed join order and the plan-cache
//! status. A refactor of `asqp-db` that claims "same answers" must leave
//! these constants alone.

use asqp_data::{flights, imdb, mas, Scale};
use asqp_db::{Database, Workload};
use std::collections::BTreeMap;
use std::fmt::Write as _;

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

fn digest(db: &Database, workload: &Workload) -> u64 {
    let sub = fixed_subset(db);
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut line = String::new();
    for q in &workload.queries {
        for target in [db, &sub] {
            let out = target.execute_with_lineage(q).unwrap();
            line.clear();
            let _ = write!(
                line,
                "{:?}|{:?}|{}|{:?}|{:?}",
                out.result.columns,
                out.trace.join_order,
                out.trace.cache.as_str(),
                out.result.rows,
                out.lineage
            );
            fnv1a(&mut h, line.as_bytes());
        }
    }
    h
}

#[test]
fn workload_digests_match_the_recorded_build() {
    let got = [
        digest(&imdb::generate(Scale::Tiny, 7), &imdb::workload(40, 7)),
        digest(&mas::generate(Scale::Tiny, 7), &mas::workload(40, 7)),
        digest(
            &flights::generate(Scale::Tiny, 7),
            &flights::workload(40, 7),
        ),
    ];
    // Recorded with the build before the bind → plan → execute refactor.
    let want: [u64; 3] = [
        0x15a8_b647_656e_fc20,
        0x7236_a3b6_5741_0ba4,
        0x58e8_6e97_47fe_1fa7,
    ];
    assert_eq!(
        got.map(|d| format!("{d:#018x}")),
        want.map(|d| format!("{d:#018x}")),
        "[imdb, mas, flights]"
    );
}

//! Writes beside reads: clone the live database, append a batch, let the
//! base session observe it (re-materialise `S`, refit the estimator).

use crate::fixture::Group;
use crate::traced::TraceSink;
use crate::verify::{snapshot_subset, Version};
use asqp_db::{Database, Query, Row};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// The IMDB fact table the batches go to.
const TABLE: &str = "cast_info";

/// Wall time of one ingest cycle, by step.
#[derive(Debug, Clone, Copy)]
pub struct Cycle {
    pub clone_s: f64,
    pub append_s: f64,
    pub observe_s: f64,
    pub rows: usize,
    /// The process's resident-set high-water mark when the cycle ended.
    pub peak_rss_mb: f64,
}

impl Cycle {
    /// Ingest to visible in `S`.
    pub fn total_s(&self) -> f64 {
        self.clone_s + self.append_s + self.observe_s
    }
}

/// One cycle on `group`: append 1 % of the table (copies of existing rows,
/// so every key still joins) to a clone of `live` and refresh the base.
/// Returns the new live database and the acknowledged row count.
pub fn cycle(group: &Group, live: &Arc<Database>, index: usize) -> (Arc<Database>, Cycle) {
    let t0 = Instant::now();
    let mut next = (**live).clone();
    let clone_s = t0.elapsed().as_secs_f64();

    let table = next.table(TABLE).expect("ingest table");
    let n = table.row_count();
    let batch = (n / 100).max(1);
    let rows: Vec<Row> = (0..batch)
        .map(|i| table.row((index * batch * 7 + i * 13) % n))
        .collect();
    let t0 = Instant::now();
    let acked = next
        .append_rows(TABLE, &rows)
        .expect("append to a live table");
    let append_s = t0.elapsed().as_secs_f64();

    let next = Arc::new(next);
    let t0 = Instant::now();
    let refreshed = group.base.observe_data(&next).expect("refresh");
    let observe_s = t0.elapsed().as_secs_f64();
    assert!(refreshed, "an append must move the data fingerprint");
    (
        next,
        Cycle {
            clone_s,
            append_s,
            observe_s,
            rows: acked,
            peak_rss_mb: crate::machine::peak_rss_mb().unwrap_or(0.0),
        },
    )
}

/// After the last cycle: the base serves the live data and every
/// acknowledged row is there to be counted.
pub fn settled(group: &Group, live: &Database, first_rows: usize, cycles: &[Cycle]) -> bool {
    let acked: usize = cycles.iter().map(|c| c.rows).sum();
    group.base.data_fingerprint() == live.data_fingerprint()
        && table_rows(live) == first_rows + acked
        && table_rows(&group.base.full_db()) == first_rows + acked
}

pub fn table_rows(db: &Database) -> usize {
    db.table(TABLE).map_or(0, |t| t.row_count())
}

/// The writer thread of `ingest_refresh`: cycles back to back until told
/// to stop, so that every block of reads meets the same interference.
/// After each refresh it records the direct subset answers of the trace's
/// queries on the new set — the verification pass needs them, because the
/// session keeps only its latest set. Appends to `versions` (whose first
/// entry is the data as set up) and returns the cycles.
pub fn writer(
    stop: &AtomicBool,
    sink: &TraceSink,
    group: &Group,
    pool: &[Query],
    queries: &[u16],
    versions: &mut Vec<Version>,
) -> Vec<Cycle> {
    let mut cycles = Vec::new();
    let mut unused = Vec::new();
    while !stop.load(Ordering::SeqCst) {
        let live = Arc::clone(&versions.last().expect("first version").db);
        let from_ns = sink.now_ns();
        let (next, c) = cycle(group, &live, cycles.len());
        let swapped_by = sink.now_ns();
        cycles.push(c);
        versions.last_mut().expect("first version").until_ns = swapped_by;
        versions.push(Version {
            db: next,
            from_ns,
            until_ns: u64::MAX,
            subset: snapshot_subset(&group.base, pool, queries, &mut unused),
        });
    }
    cycles
}

//! The correctness check: every answer the server returned is compared,
//! by row digest, with the direct answer (`Session::answer_subset` /
//! `Database::execute`) on a version of the data that was current while
//! the request was in flight. The same pass yields the recall of each
//! answer.

use crate::fixture::FRAME;
use crate::load::{Outcome, Pools};
use crate::trace::Req;
use asqp_core::{MetricParams, Session};
use asqp_db::{Database, Query, ResultSet};
use asqp_serve::ServedSource;
use std::collections::hash_map::DefaultHasher;
use std::collections::{BTreeMap, BTreeSet};
use std::hash::{Hash, Hasher};
use std::sync::Arc;
use std::time::Instant;

/// Order-sensitive digest of a result (the executor is deterministic, so
/// the server's rows and the direct rows agree in order too).
pub fn digest(rs: &ResultSet) -> u64 {
    let mut h = DefaultHasher::new();
    rs.columns.hash(&mut h);
    rs.rows.hash(&mut h);
    h.finish()
}

/// A direct answer, reduced to what the comparison needs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Direct {
    pub digest: u64,
    pub rows: usize,
}

impl Direct {
    pub fn of(rs: &ResultSet) -> Direct {
        Direct {
            digest: digest(rs),
            rows: rs.rows.len(),
        }
    }
}

/// One version of a group's data: the database snapshot, the interval in
/// which the server may have answered from it, and the direct subset
/// answers recorded while its approximation set was the live one.
pub struct Version {
    pub db: Arc<Database>,
    /// Earliest time the version may have become visible.
    pub from_ns: u64,
    /// Latest time it may still have been visible.
    pub until_ns: u64,
    pub subset: BTreeMap<u16, Direct>,
}

/// The (group, query) pairs a trace asks for.
pub fn distinct(trace: &[Req]) -> BTreeSet<(u8, u16)> {
    trace.iter().map(|r| (r.group, r.query)).collect()
}

/// Direct subset answers of `queries` on the session's live set, with the
/// time each took (µs).
pub fn snapshot_subset(
    session: &Session,
    pool: &[Query],
    queries: &[u16],
    exec_us: &mut Vec<f64>,
) -> BTreeMap<u16, Direct> {
    queries
        .iter()
        .map(|&q| {
            let t0 = Instant::now();
            let rs = session
                .answer_subset(&pool[q as usize])
                .expect("subset answer of a generated query");
            exec_us.push(t0.elapsed().as_secs_f64() * 1e6);
            (q, Direct::of(&rs))
        })
        .collect()
}

pub struct Verifier<'a> {
    pools: &'a Pools<'a>,
    versions: &'a [Vec<Version>],
    full: BTreeMap<(u8, u16, usize), Direct>,
    /// Time of each direct full-database execution (µs).
    pub full_exec_us: Vec<f64>,
}

/// The verdict on one answer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Check {
    pub matches: bool,
    /// `min(1, |q(S)| / min(F, |q(T)|))`; 1 for a full-database answer.
    pub recall: f64,
}

impl<'a> Verifier<'a> {
    pub fn new(pools: &'a Pools<'a>, versions: &'a [Vec<Version>]) -> Verifier<'a> {
        Verifier {
            pools,
            versions,
            full: BTreeMap::new(),
            full_exec_us: Vec::new(),
        }
    }

    /// The direct full-database answer of a query on one version.
    pub fn full(&mut self, group: u8, query: u16, version: usize) -> Direct {
        if let Some(d) = self.full.get(&(group, query, version)) {
            return *d;
        }
        let t0 = Instant::now();
        let rs = self.versions[group as usize][version]
            .db
            .execute(&self.pools[group as usize][query as usize])
            .expect("full answer of a generated query");
        self.full_exec_us.push(t0.elapsed().as_secs_f64() * 1e6);
        let d = Direct::of(&rs);
        self.full.insert((group, query, version), d);
        d
    }

    /// `|q(T)|` on `version`. Data only grows, so once the first version
    /// fills the frame every later one does too and need not be executed.
    fn full_count(&mut self, group: u8, query: u16, version: usize) -> usize {
        let first = self.full(group, query, 0).rows;
        if first >= FRAME {
            first
        } else {
            self.full(group, query, version).rows
        }
    }

    pub fn fraction(&mut self, group: u8, query: u16, version: usize, subset_rows: usize) -> f64 {
        let full_rows = self.full_count(group, query, version);
        MetricParams::new(FRAME).query_fraction(subset_rows, full_rows)
    }

    /// Compare one served answer with the direct answer on every version
    /// that was current between its submit and its completion.
    pub fn check(&mut self, req: Req, o: &Outcome) -> Check {
        let wrong = Check {
            matches: false,
            recall: 0.0,
        };
        let Some(served) = o.served else {
            return wrong;
        };
        let versions = self.versions;
        for (v, version) in versions[req.group as usize].iter().enumerate() {
            if version.from_ns > o.done_ns || version.until_ns < o.submit_ns {
                continue;
            }
            match served.source {
                ServedSource::Full => {
                    if self.full(req.group, req.query, v).digest == served.digest {
                        return Check {
                            matches: true,
                            recall: 1.0,
                        };
                    }
                }
                ServedSource::Subset | ServedSource::DegradedSubset => {
                    if version.subset.get(&req.query).map(|d| d.digest) == Some(served.digest) {
                        return Check {
                            matches: true,
                            recall: self.fraction(req.group, req.query, v, served.rows),
                        };
                    }
                }
            }
        }
        wrong
    }
}

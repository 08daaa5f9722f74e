//! AQP-system baselines (§6.1): VERD (VerdictDB-style stratified
//! "variational" sampling) and QUIK (QuickR-style join-aware universe
//! sampling).

use crate::common::{proportional_budget, Baseline, BaselineOutput};
use asqp_core::{detect_joins, MetricParams, Selection};
use asqp_db::{Database, DbResult, Value, ValueType, Workload};
use rand::rngs::StdRng;
use rand::{RngExt as _, SeedableRng};
use std::collections::BTreeMap;

/// VERD — VerdictDB-style sampling (Park et al., SIGMOD 2018): each table
/// is stratified on its lowest-cardinality categorical column and sampled
/// with per-stratum allocation proportional to √frequency, which keeps rare
/// strata represented (the variance-reduction idea behind variational
/// subsampling).
pub struct Verdict {
    pub seed: u64,
}

impl Baseline for Verdict {
    fn name(&self) -> &'static str {
        "VERD"
    }

    fn build(
        &mut self,
        db: &Database,
        _train: &Workload,
        k: usize,
        _params: MetricParams,
    ) -> DbResult<BaselineOutput> {
        let mut rng = StdRng::seed_from_u64(self.seed ^ 0x7e4d);
        let mut sel = Selection::new();
        for (table_name, share) in proportional_budget(db, k) {
            if share == 0 {
                continue;
            }
            let table = db.table(&table_name)?;
            let n = table.row_count();

            // Stratification column: the categorical column with the fewest
            // distinct values above 1 (most meaningful strata).
            let strat_col = table
                .schema()
                .columns()
                .iter()
                .enumerate()
                .filter(|(_, c)| c.ty == ValueType::Str)
                .min_by_key(|(ci, _)| table.column(*ci).dict_len().unwrap_or(usize::MAX));

            let chosen: Vec<usize> = match strat_col {
                Some((ci, _)) => {
                    // Group rows by stratum value.
                    // BTreeMap: stratum order (and thus RNG consumption)
                    // must not depend on HashMap's per-process hash seed.
                    let mut strata: BTreeMap<Value, Vec<usize>> = BTreeMap::new();
                    for r in 0..n {
                        strata.entry(table.value(r, ci)).or_default().push(r);
                    }
                    // Allocation ∝ sqrt(|stratum|), at least 1.
                    let weights: Vec<(Vec<usize>, f64)> = strata
                        .into_values()
                        .map(|rows| {
                            let w = (rows.len() as f64).sqrt();
                            (rows, w)
                        })
                        .collect();
                    let total_w: f64 = weights.iter().map(|(_, w)| w).sum();
                    let mut out = Vec::with_capacity(share);
                    for (mut rows, w) in weights {
                        let quota = (((share as f64) * w / total_w).round() as usize)
                            .max(1)
                            .min(rows.len());
                        for i in 0..quota {
                            let j = rng.random_range(i..rows.len());
                            rows.swap(i, j);
                        }
                        out.extend(rows.into_iter().take(quota));
                        if out.len() >= share {
                            break;
                        }
                    }
                    out.truncate(share);
                    out
                }
                None => {
                    // No categorical column: plain uniform sample.
                    let mut ids: Vec<usize> = (0..n).collect();
                    for i in 0..share.min(n) {
                        let j = rng.random_range(i..n);
                        ids.swap(i, j);
                    }
                    ids.truncate(share);
                    ids
                }
            };
            let mut chosen = chosen;
            chosen.sort_unstable();
            chosen.dedup();
            sel.insert(table_name, chosen);
        }
        Ok(BaselineOutput::Selection(sel))
    }
}

/// QUIK — QuickR-style universe sampling (Kandula et al., SIGMOD 2016):
/// join columns are discovered, a hash-defined *universe* of join-key
/// values is fixed, and every table keeps exactly the rows whose key falls
/// in the universe — so sampled tuples still join. Non-key budget is filled
/// uniformly.
pub struct QuickR {
    pub seed: u64,
}

/// Deterministic value hash for universe membership.
fn value_hash(v: &Value, salt: u64) -> u64 {
    use std::hash::{Hash, Hasher};
    let mut h = std::collections::hash_map::DefaultHasher::new();
    salt.hash(&mut h);
    v.hash(&mut h);
    h.finish()
}

impl Baseline for QuickR {
    fn name(&self) -> &'static str {
        "QUIK"
    }

    fn build(
        &mut self,
        db: &Database,
        _train: &Workload,
        k: usize,
        _params: MetricParams,
    ) -> DbResult<BaselineOutput> {
        let mut rng = StdRng::seed_from_u64(self.seed ^ 0x901c);
        let salt: u64 = rng.random();
        let joins = detect_joins(db);
        let mut sel = Selection::new();

        // Phase 1 — QuickR keeps small dimension tables whole (its catalog
        // stores full copies of anything cheap); the leftover budget goes to
        // the large tables.
        let dim_cap = (k / 10).max(64);
        let mut remaining = k;
        let mut large: Vec<&asqp_db::Table> = Vec::new();
        let mut tables: Vec<&asqp_db::Table> = db.tables().collect();
        tables.sort_by_key(|t| t.row_count());
        for table in tables {
            let n = table.row_count();
            if n == 0 {
                continue;
            }
            if n <= dim_cap && n <= remaining {
                sel.insert(table.name().to_string(), (0..n).collect());
                remaining -= n;
            } else {
                large.push(table);
            }
        }

        // Phase 2 — universe-sample each large table on its join key(s):
        // a row survives iff hash(key) lands under the table's sampling
        // fraction, so two large tables sharing a key keep *the same* key
        // universe and their samples still join. No uniform top-up — that
        // would break join consistency (the whole point of QuickR).
        let large_total: usize = large.iter().map(|t| t.row_count()).sum();
        for table in large {
            let name = table.name().to_string();
            let n = table.row_count();
            let budget =
                ((remaining as f64) * (n as f64) / (large_total.max(1) as f64)).round() as usize;
            if budget == 0 {
                continue;
            }
            let key_cols: Vec<usize> = joins
                .iter()
                .filter_map(|e| {
                    if e.from_table == name {
                        table.schema().index_of(&e.from_col)
                    } else if e.to_table == name {
                        table.schema().index_of(&e.to_col)
                    } else {
                        None
                    }
                })
                .collect();

            let frac = (budget as f64 / n as f64).clamp(0.0, 1.0);
            let threshold = (frac * u64::MAX as f64) as u64;
            let mut chosen: Vec<usize> = if key_cols.is_empty() {
                // No join key: plain uniform sample (QuickR's fallback).
                let mut ids: Vec<usize> = (0..n).collect();
                for i in 0..budget.min(n) {
                    let j = rng.random_range(i..n);
                    ids.swap(i, j);
                }
                ids.truncate(budget);
                ids
            } else {
                (0..n)
                    .filter(|&r| {
                        key_cols.iter().all(|&c| {
                            let v = table.value(r, c);
                            v.is_null() || value_hash(&v, salt) < threshold
                        }) && key_cols.iter().any(|&c| !table.value(r, c).is_null())
                    })
                    .collect()
            };
            if chosen.len() > budget {
                for i in 0..budget {
                    let j = rng.random_range(i..chosen.len());
                    chosen.swap(i, j);
                }
                chosen.truncate(budget);
            }
            chosen.sort_unstable();
            chosen.dedup();
            sel.insert(name, chosen);
        }
        Ok(BaselineOutput::Selection(sel))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use asqp_data::{flights, imdb, Scale};

    #[test]
    fn verd_keeps_rare_strata() {
        let db = imdb::generate(Scale::Tiny, 1);
        let w = imdb::workload(6, 1);
        let mut verd = Verdict { seed: 2 };
        let out = verd.build(&db, &w, 120, MetricParams::new(20)).unwrap();
        let sub = out.materialize(&db).unwrap();
        // Every kind present in the full data should survive in the sample
        // (sqrt allocation guarantees ≥1 per stratum while budget lasts).
        let full_kinds = db
            .sql("SELECT DISTINCT t.kind FROM title t")
            .unwrap()
            .rows
            .len();
        let sub_kinds = sub
            .sql("SELECT DISTINCT t.kind FROM title t")
            .unwrap()
            .rows
            .len();
        assert!(
            sub_kinds as f64 >= full_kinds as f64 * 0.6,
            "{sub_kinds}/{full_kinds} strata survived"
        );
    }

    #[test]
    fn quik_samples_join_consistently() {
        let db = flights::generate(Scale::Tiny, 1);
        let w = flights::workload(6, 1);
        let mut quik = QuickR { seed: 4 };
        let out = quik.build(&db, &w, 200, MetricParams::new(20)).unwrap();
        let sub = out.materialize(&db).unwrap();
        // Sampled flights should still join the carrier dimension: the
        // join rate must be far above the independent-sampling expectation.
        let flights_kept = sub.table("flights").unwrap().row_count();
        if flights_kept == 0 {
            return;
        }
        let joined = sub
            .sql("SELECT COUNT(*) FROM flights f JOIN carriers c ON f.carrier = c.code")
            .unwrap()
            .rows
            .get(0, 0)
            .as_i64()
            .unwrap() as usize;
        assert!(
            joined * 2 >= flights_kept,
            "universe sampling must preserve joins: {joined}/{flights_kept}"
        );
    }

    #[test]
    fn budgets_respected() {
        let db = imdb::generate(Scale::Tiny, 1);
        let w = imdb::workload(6, 1);
        for (name, out) in [
            (
                "verd",
                Verdict { seed: 1 }
                    .build(&db, &w, 90, MetricParams::new(20))
                    .unwrap(),
            ),
            (
                "quik",
                QuickR { seed: 1 }
                    .build(&db, &w, 90, MetricParams::new(20))
                    .unwrap(),
            ),
        ] {
            assert!(
                out.tuple_count() <= 95,
                "{name} exceeded budget: {}",
                out.tuple_count()
            );
        }
    }
}

//! The paper's *naive* baselines (§6.1): RAN (random sampling), BRT
//! (time-boxed brute force), GRE (time-boxed greedy) and TOP (top-queried
//! tuples).

use crate::common::{proportional_budget, Baseline, BaselineOutput};
use asqp_core::{score_with_counts, AnaqpInstance, FullCounts, MetricParams, Selection};
use asqp_db::{Database, DbResult, Workload};
use rand::rngs::StdRng;
use rand::{RngExt as _, SeedableRng};
use std::collections::BTreeMap;

/// RAN — uniform random rows, budget split proportionally across tables.
pub struct RandomSampling {
    pub seed: u64,
}

impl Baseline for RandomSampling {
    fn name(&self) -> &'static str {
        "RAN"
    }

    fn build(
        &mut self,
        db: &Database,
        _train: &Workload,
        k: usize,
        _params: MetricParams,
    ) -> DbResult<BaselineOutput> {
        let mut rng = StdRng::seed_from_u64(self.seed);
        let mut sel = Selection::new();
        for (table, share) in proportional_budget(db, k) {
            let n = db.table(&table)?.row_count();
            // Partial Fisher–Yates: the first `share` entries are a uniform
            // sample without replacement.
            let mut ids: Vec<usize> = (0..n).collect();
            for i in 0..share.min(n) {
                let j = rng.random_range(i..n);
                ids.swap(i, j);
            }
            ids.truncate(share);
            ids.sort_unstable();
            sel.insert(table, ids);
        }
        Ok(BaselineOutput::Selection(sel))
    }
}

/// BRT — brute force: evaluate a fixed number of random candidate
/// selections, keep the best. The paper caps BRT at 48 h and reports
/// best-found-so-far; a draw count is the deterministic analogue of that
/// cap (a wall-clock loop would make the reported score depend on machine
/// speed and run-to-run jitter).
pub struct BruteForce {
    pub seed: u64,
    /// Number of random candidate selections to score.
    pub draws: usize,
}

impl Baseline for BruteForce {
    fn name(&self) -> &'static str {
        "BRT"
    }

    fn build(
        &mut self,
        db: &Database,
        train: &Workload,
        k: usize,
        params: MetricParams,
    ) -> DbResult<BaselineOutput> {
        let full = FullCounts::compute(db, train)?;
        let mut rng = StdRng::seed_from_u64(self.seed ^ 0xb47);
        let mut best: (Selection, f64) = (Selection::new(), -1.0);
        let mut ran = RandomSampling { seed: 0 };
        for _ in 0..self.draws {
            ran.seed = rng.random();
            let BaselineOutput::Selection(cand) = ran.build(db, train, k, params)? else {
                unreachable!("RAN yields selections")
            };
            let sub = db.subset(&cand)?;
            let s = score_with_counts(&sub, train, &full, params)?;
            if s > best.1 {
                best = (cand, s);
            }
        }
        Ok(BaselineOutput::Selection(best.0))
    }
}

/// GRE — greedy largest-marginal-gain row selection, capped by candidate
/// evaluations (the paper's GRE never finished inside 48 h on IMDB; ours
/// reports its partial set the same way, but with a deterministic budget so
/// runs reproduce exactly).
pub struct Greedy {
    /// Cap on candidate scorings across the whole greedy run.
    pub max_evals: usize,
}

impl Baseline for Greedy {
    fn name(&self) -> &'static str {
        "GRE"
    }

    fn build(
        &mut self,
        db: &Database,
        train: &Workload,
        k: usize,
        params: MetricParams,
    ) -> DbResult<BaselineOutput> {
        let inst = AnaqpInstance::new(db.clone(), train.clone(), k, params.frame_size);
        let (sel, _) = inst.solve_greedy(self.max_evals)?;
        Ok(BaselineOutput::Selection(sel))
    }
}

/// TOP — rank base tuples by how many workload queries their lineage
/// appears in; take the top `k` (most-queried tuples first).
pub struct TopQueried {
    pub seed: u64,
}

impl Baseline for TopQueried {
    fn name(&self) -> &'static str {
        "TOP"
    }

    fn build(
        &mut self,
        db: &Database,
        train: &Workload,
        k: usize,
        _params: MetricParams,
    ) -> DbResult<BaselineOutput> {
        // (table, row) → number of distinct queries touching it.
        let mut counts: BTreeMap<(String, usize), u32> = BTreeMap::new();
        for q in &train.queries {
            let out = db.execute_with_lineage(&q.strip_aggregates())?;
            let mut seen: std::collections::HashSet<(usize, usize)> = Default::default();
            for lin in &out.lineage {
                for (bi, &rid) in lin.iter().enumerate() {
                    if seen.insert((bi, rid)) {
                        *counts
                            .entry((out.binding_tables[bi].clone(), rid))
                            .or_insert(0) += 1;
                    }
                }
            }
        }
        // Count descending; the stable sort keeps ties in (table, row) order.
        let mut ranked: Vec<((String, usize), u32)> = counts.into_iter().collect();
        ranked.sort_by_key(|&(_, c)| std::cmp::Reverse(c));
        ranked.truncate(k);
        let mut sel = Selection::new();
        for ((table, rid), _) in ranked {
            sel.entry(table).or_default().push(rid);
        }
        for rows in sel.values_mut() {
            rows.sort_unstable();
            rows.dedup();
        }
        Ok(BaselineOutput::Selection(sel))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use asqp_core::score;
    use asqp_data::{imdb, Scale};

    fn setup() -> (Database, Workload) {
        (imdb::generate(Scale::Tiny, 1), imdb::workload(10, 1))
    }

    #[test]
    fn ran_respects_budget_and_is_deterministic() {
        let (db, w) = setup();
        let mut ran = RandomSampling { seed: 5 };
        let out = ran.build(&db, &w, 100, MetricParams::new(50)).unwrap();
        assert!(out.tuple_count() <= 100);
        assert!(out.tuple_count() >= 95);
        let out2 = RandomSampling { seed: 5 }
            .build(&db, &w, 100, MetricParams::new(50))
            .unwrap();
        assert_eq!(out.tuple_count(), out2.tuple_count());
    }

    #[test]
    fn brt_beats_single_random_draw() {
        let (db, w) = setup();
        let params = MetricParams::new(20);
        let mut ran = RandomSampling { seed: 1 };
        let rsel = ran.build(&db, &w, 60, params).unwrap();
        let rscore = score(&db, &rsel.materialize(&db).unwrap(), &w, params).unwrap();

        let mut brt = BruteForce { seed: 1, draws: 40 };
        let bsel = brt.build(&db, &w, 60, params).unwrap();
        let bscore = score(&db, &bsel.materialize(&db).unwrap(), &w, params).unwrap();
        assert!(
            bscore >= rscore - 1e-9,
            "best-of-many must be at least one draw: {bscore} vs {rscore}"
        );
    }

    #[test]
    fn top_prefers_frequently_queried_tuples() {
        let (db, w) = setup();
        let mut top = TopQueried { seed: 0 };
        let out = top.build(&db, &w, 50, MetricParams::new(20)).unwrap();
        assert!(out.tuple_count() > 0 && out.tuple_count() <= 50);
        // TOP's tuples actually answer queries: strictly better than nothing.
        let sub = out.materialize(&db).unwrap();
        let s = score(&db, &sub, &w, MetricParams::new(20)).unwrap();
        assert!(s > 0.0);
    }

    #[test]
    fn greedy_budgeted_returns_valid_selection() {
        let (db, w) = setup();
        let mut gre = Greedy { max_evals: 2_000 };
        let out = gre.build(&db, &w, 10, MetricParams::new(20)).unwrap();
        assert!(out.tuple_count() <= 10);
        out.materialize(&db).unwrap();
    }
}

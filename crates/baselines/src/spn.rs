//! DeepDB-style Sum–Product Network (Hilprecht et al., VLDB 2020) — the
//! aggregate-estimation comparator of §6.4 (Fig. 12).
//!
//! Structure learning follows the classic recursion: try to split columns
//! into (near-)independent groups → **product** node; otherwise cluster the
//! rows → **sum** node; single columns / small partitions become histogram
//! **leaves**. Estimation answers COUNT / SUM / AVG (with GROUP BY) over
//! conjunctive range/equality predicates without touching the data again.

use asqp_db::{
    AggExpr, AggFunc, CmpOp, ColRef, Expr, Query, ResultSet, Row, SelectItem, Table, Value,
    ValueType,
};
use std::collections::{BTreeMap, HashMap};

const NUM_BINS: usize = 24;
const MIN_INSTANCES: usize = 64;
const CORR_THRESHOLD: f64 = 0.25;

/// Per-column constraint extracted from a predicate.
#[derive(Debug, Clone)]
enum ColPred {
    Range { lo: f64, hi: f64 },
    OneOf(Vec<Value>),
}

/// Histogram leaf over one column.
#[derive(Debug, Clone)]
enum LeafDist {
    Numeric {
        min: f64,
        max: f64,
        /// Per-bin row count.
        counts: Vec<f64>,
        /// Per-bin value sum (for E[x]).
        sums: Vec<f64>,
        total: f64,
    },
    Categorical {
        counts: HashMap<Value, f64>,
        total: f64,
    },
}

impl LeafDist {
    fn fit(table: &Table, rows: &[usize], col: usize) -> LeafDist {
        match table.schema().column(col).ty {
            ValueType::Int | ValueType::Float => {
                let vals: Vec<f64> = rows
                    .iter()
                    .filter_map(|&r| table.column(col).get_f64(r))
                    .collect();
                let min = vals.iter().copied().fold(f64::INFINITY, f64::min);
                let max = vals.iter().copied().fold(f64::NEG_INFINITY, f64::max);
                let (min, max) = if vals.is_empty() {
                    (0.0, 0.0)
                } else {
                    (min, max)
                };
                let width = ((max - min) / NUM_BINS as f64).max(f64::MIN_POSITIVE);
                let mut counts = vec![0.0; NUM_BINS];
                let mut sums = vec![0.0; NUM_BINS];
                for &v in &vals {
                    let b = (((v - min) / width) as usize).min(NUM_BINS - 1);
                    counts[b] += 1.0;
                    sums[b] += v;
                }
                LeafDist::Numeric {
                    min,
                    max,
                    counts,
                    sums,
                    total: vals.len() as f64,
                }
            }
            _ => {
                let mut counts: HashMap<Value, f64> = HashMap::new();
                for &r in rows {
                    *counts.entry(table.value(r, col)).or_insert(0.0) += 1.0;
                }
                let total = rows.len() as f64;
                LeafDist::Categorical { counts, total }
            }
        }
    }

    /// `(P(pred), E[x·1(pred)])` under this leaf's marginal.
    fn prob_and_exp(&self, pred: Option<&ColPred>) -> (f64, f64) {
        match self {
            LeafDist::Numeric {
                min,
                max,
                counts,
                sums,
                total,
            } => {
                if *total == 0.0 {
                    return (0.0, 0.0);
                }
                let (lo, hi) = match pred {
                    None => (f64::NEG_INFINITY, f64::INFINITY),
                    Some(ColPred::Range { lo, hi }) => (*lo, *hi),
                    Some(ColPred::OneOf(vals)) => {
                        // Point predicates on numerics: sum matching bins.
                        let width = ((max - min) / NUM_BINS as f64).max(f64::MIN_POSITIVE);
                        let mut p = 0.0;
                        let mut e = 0.0;
                        for v in vals {
                            if let Some(f) = v.as_f64() {
                                if f >= *min && f <= *max {
                                    let b = (((f - min) / width) as usize).min(NUM_BINS - 1);
                                    // Assume the point carries its bin's
                                    // average share of one distinct value.
                                    let bin_frac = counts[b] / total;
                                    let per_val = bin_frac / (width.max(1.0)).max(1.0);
                                    p += per_val;
                                    e += f * per_val * total;
                                }
                            }
                        }
                        return (p.min(1.0), e / total.max(1.0) * total);
                    }
                };
                let width = ((max - min) / NUM_BINS as f64).max(f64::MIN_POSITIVE);
                let mut cnt = 0.0;
                let mut sum = 0.0;
                for b in 0..NUM_BINS {
                    let b_lo = min + b as f64 * width;
                    let b_hi = b_lo + width;
                    let overlap = (hi.min(b_hi) - lo.max(b_lo)).max(0.0) / width;
                    let overlap = overlap.min(1.0);
                    if overlap > 0.0 {
                        cnt += counts[b] * overlap;
                        sum += sums[b] * overlap;
                    }
                }
                (cnt / total, sum / total)
            }
            LeafDist::Categorical { counts, total } => {
                if *total == 0.0 {
                    return (0.0, 0.0);
                }
                match pred {
                    None => (1.0, 0.0),
                    Some(ColPred::OneOf(vals)) => {
                        let c: f64 = vals
                            .iter()
                            .map(|v| counts.get(v).copied().unwrap_or(0.0))
                            .sum();
                        (c / total, 0.0)
                    }
                    Some(ColPred::Range { .. }) => (0.0, 0.0),
                }
            }
        }
    }
}

/// SPN node.
#[derive(Debug, Clone)]
enum Node {
    Sum(Vec<(f64, Node)>),
    /// Children partition the column set.
    Product(Vec<Node>),
    Leaf {
        col: usize,
        dist: LeafDist,
    },
}

/// A learned SPN over one table.
#[derive(Debug, Clone)]
pub struct Spn {
    root: Node,
    pub n_rows: usize,
    col_index: HashMap<String, usize>,
    table_name: String,
    /// Distinct values per categorical column (for GROUP BY enumeration).
    categorical_domains: HashMap<usize, Vec<Value>>,
}

impl Spn {
    /// Learn an SPN from a table.
    pub fn learn(table: &Table) -> Spn {
        let n = table.row_count();
        let rows: Vec<usize> = (0..n).collect();
        let cols: Vec<usize> = (0..table.schema().len()).collect();
        let root = build(table, &rows, &cols, 0);
        let col_index = table
            .schema()
            .columns()
            .iter()
            .enumerate()
            .map(|(i, c)| (c.name.clone(), i))
            .collect();
        let mut categorical_domains = HashMap::new();
        for (ci, c) in table.schema().columns().iter().enumerate() {
            if c.ty == ValueType::Str || c.ty == ValueType::Int {
                let mut vals: Vec<Value> = (0..n)
                    .map(|r| table.value(r, ci))
                    .collect::<std::collections::BTreeSet<_>>()
                    .into_iter()
                    .collect();
                if vals.len() <= 64 {
                    vals.sort();
                    categorical_domains.insert(ci, vals);
                }
            }
        }
        Spn {
            root,
            n_rows: n,
            col_index,
            table_name: table.name().to_string(),
            categorical_domains,
        }
    }

    /// `(P(pred), E[target·1(pred)])` for a conjunctive predicate.
    fn joint(&self, preds: &HashMap<usize, ColPred>, target: Option<usize>) -> (f64, f64) {
        node_joint(&self.root, preds, target)
    }

    /// Estimate an aggregate query. Returns `None` for shapes the SPN does
    /// not support (joins, OR / NOT / LIKE predicates, multi-group keys).
    pub fn estimate(&self, q: &Query) -> Option<ResultSet> {
        if !q.is_aggregate() || q.from.len() != 1 || q.from[0].table != self.table_name {
            return None;
        }
        let mut preds: HashMap<usize, ColPred> = HashMap::new();
        if let Some(p) = &q.predicate {
            for conj in p.clone().split_conjuncts() {
                let (col, cp) = self.extract_pred(&conj)?;
                merge_pred(&mut preds, col, cp);
            }
        }
        if q.group_by.len() > 1 {
            return None;
        }

        // Collect output spec.
        let mut columns = Vec::new();
        for s in &q.select {
            columns.push(s.to_string());
        }

        let make_row =
            |preds: &HashMap<usize, ColPred>, group_val: Option<&Value>| -> Option<Row> {
                let mut row = Row::new();
                for s in &q.select {
                    match s {
                        SelectItem::Column(_) => row.push(group_val?.clone()),
                        SelectItem::Aggregate(AggExpr { func, arg }) => {
                            let target = match arg {
                                Some(c) => Some(self.resolve(c)?),
                                None => None,
                            };
                            let (p, e) = self.joint(preds, target);
                            let count = p * self.n_rows as f64;
                            let v = match func {
                                AggFunc::Count => Value::Float(count.round()),
                                AggFunc::Sum => Value::Float(e * self.n_rows as f64),
                                AggFunc::Avg => {
                                    if p <= 0.0 {
                                        Value::Null
                                    } else {
                                        Value::Float(e / p)
                                    }
                                }
                                AggFunc::Min | AggFunc::Max => return None,
                            };
                            row.push(v);
                        }
                        SelectItem::Star => return None,
                    }
                }
                Some(row)
            };

        let mut rows: Vec<Row> = Vec::new();
        if let Some(g) = q.group_by.first() {
            let gcol = self.resolve(g)?;
            let domain = self.categorical_domains.get(&gcol)?.clone();
            for val in domain {
                let mut gp = preds.clone();
                merge_pred(&mut gp, gcol, ColPred::OneOf(vec![val.clone()]));
                let (p, _) = self.joint(&gp, None);
                // Keep only groups estimated at half a row or more.
                if p * (self.n_rows as f64) < 0.5 {
                    continue;
                }
                rows.push(make_row(&gp, Some(&val))?);
            }
            // Match the executor's deterministic group ordering.
            rows.sort_by(|a, b| a[0].cmp(&b[0]));
        } else {
            rows.push(make_row(&preds, None)?);
        }
        if let Some(l) = q.limit {
            rows.truncate(l);
        }
        let rows = rows.into_iter().collect();
        Some(ResultSet { columns, rows })
    }

    fn resolve(&self, c: &ColRef) -> Option<usize> {
        self.col_index.get(&c.column).copied()
    }

    /// Extract a supported per-column constraint from one conjunct.
    fn extract_pred(&self, e: &Expr) -> Option<(usize, ColPred)> {
        match e {
            Expr::Cmp { op, lhs, rhs } => {
                let (col, lit, op) = match (lhs.as_ref(), rhs.as_ref()) {
                    (Expr::Column(c), Expr::Literal(v)) => (self.resolve(c)?, v.clone(), *op),
                    (Expr::Literal(v), Expr::Column(c)) => (self.resolve(c)?, v.clone(), op.flip()),
                    _ => return None,
                };
                match (op, lit.as_f64(), &lit) {
                    (CmpOp::Eq, _, v) => Some((col, ColPred::OneOf(vec![v.clone()]))),
                    (CmpOp::Ge | CmpOp::Gt, Some(f), _) => Some((
                        col,
                        ColPred::Range {
                            lo: f,
                            hi: f64::INFINITY,
                        },
                    )),
                    (CmpOp::Le | CmpOp::Lt, Some(f), _) => Some((
                        col,
                        ColPred::Range {
                            lo: f64::NEG_INFINITY,
                            hi: f,
                        },
                    )),
                    _ => None,
                }
            }
            Expr::Between {
                expr,
                low,
                high,
                negated: false,
            } => {
                let Expr::Column(c) = expr.as_ref() else {
                    return None;
                };
                let (Expr::Literal(lo), Expr::Literal(hi)) = (low.as_ref(), high.as_ref()) else {
                    return None;
                };
                Some((
                    self.resolve(c)?,
                    ColPred::Range {
                        lo: lo.as_f64()?,
                        hi: hi.as_f64()?,
                    },
                ))
            }
            Expr::In {
                expr,
                list,
                negated: false,
            } => {
                let Expr::Column(c) = expr.as_ref() else {
                    return None;
                };
                Some((self.resolve(c)?, ColPred::OneOf(list.clone())))
            }
            _ => None,
        }
    }
}

fn merge_pred(preds: &mut HashMap<usize, ColPred>, col: usize, cp: ColPred) {
    match (preds.get_mut(&col), cp) {
        (Some(ColPred::Range { lo, hi }), ColPred::Range { lo: l2, hi: h2 }) => {
            *lo = lo.max(l2);
            *hi = hi.min(h2);
        }
        (slot, cp) => {
            if slot.is_none() {
                preds.insert(col, cp);
            } else {
                // Conflicting shapes: last wins (rare; conjunctions in the
                // generated workloads touch distinct columns).
                preds.insert(col, cp);
            }
        }
    }
}

fn node_joint(node: &Node, preds: &HashMap<usize, ColPred>, target: Option<usize>) -> (f64, f64) {
    match node {
        Node::Leaf { col, dist } => {
            let (p, e) = dist.prob_and_exp(preds.get(col));
            if target == Some(*col) {
                (p, e)
            } else {
                (p, 0.0)
            }
        }
        Node::Product(children) => {
            let mut prob = 1.0;
            let mut exp_cond = 0.0; // E[x·1] factorises: e_child * ∏ other p
            let mut exp_child_p = 1.0;
            for ch in children {
                let (p, e) = node_joint(ch, preds, target);
                if subtree_has_target(ch, target) {
                    exp_cond = e;
                    exp_child_p = p.max(f64::MIN_POSITIVE);
                }
                prob *= p;
            }
            let exp = if prob > 0.0 {
                exp_cond * (prob / exp_child_p)
            } else {
                0.0
            };
            (prob, exp)
        }
        Node::Sum(children) => {
            let mut prob = 0.0;
            let mut exp = 0.0;
            for (w, ch) in children {
                let (p, e) = node_joint(ch, preds, target);
                prob += w * p;
                exp += w * e;
            }
            (prob, exp)
        }
    }
}

fn subtree_has_target(node: &Node, target: Option<usize>) -> bool {
    let Some(t) = target else { return false };
    match node {
        Node::Leaf { col, .. } => *col == t,
        Node::Product(children) => children.iter().any(|c| subtree_has_target(c, target)),
        Node::Sum(children) => children.iter().any(|(_, c)| subtree_has_target(c, target)),
    }
}

/// Recursive structure learning.
fn build(table: &Table, rows: &[usize], cols: &[usize], depth: usize) -> Node {
    if cols.len() == 1 {
        return Node::Leaf {
            col: cols[0],
            dist: LeafDist::fit(table, rows, cols[0]),
        };
    }
    if rows.len() < MIN_INSTANCES || depth >= 6 {
        // Naive factorisation: independent leaves.
        return Node::Product(
            cols.iter()
                .map(|&c| Node::Leaf {
                    col: c,
                    dist: LeafDist::fit(table, rows, c),
                })
                .collect(),
        );
    }

    // Column split: group columns by |correlation| ≥ threshold (union-find).
    let groups = correlation_groups(table, rows, cols);
    if groups.len() > 1 {
        return Node::Product(
            groups
                .into_iter()
                .map(|g| build(table, rows, &g, depth + 1))
                .collect(),
        );
    }

    // Row split: 2-means on the first numeric column (fallback: halves).
    let (a, b) = split_rows(table, rows, cols);
    if a.is_empty() || b.is_empty() {
        return Node::Product(
            cols.iter()
                .map(|&c| Node::Leaf {
                    col: c,
                    dist: LeafDist::fit(table, rows, c),
                })
                .collect(),
        );
    }
    let wa = a.len() as f64 / rows.len() as f64;
    let wb = 1.0 - wa;
    Node::Sum(vec![
        (wa, build(table, &a, cols, depth + 1)),
        (wb, build(table, &b, cols, depth + 1)),
    ])
}

/// Union-find grouping of columns by pairwise dependence. Numeric pairs use
/// Pearson correlation on a row sample; pairs involving categoricals use a
/// cheap normalised-contingency proxy.
fn correlation_groups(table: &Table, rows: &[usize], cols: &[usize]) -> Vec<Vec<usize>> {
    let sample: Vec<usize> = rows
        .iter()
        .copied()
        .step_by((rows.len() / 512).max(1))
        .collect();
    let m = cols.len();
    let mut parent: Vec<usize> = (0..m).collect();
    fn find(p: &mut Vec<usize>, i: usize) -> usize {
        if p[i] != i {
            let r = find(p, p[i]);
            p[i] = r;
        }
        p[i]
    }
    for i in 0..m {
        for j in (i + 1)..m {
            if dependence(table, &sample, cols[i], cols[j]) >= CORR_THRESHOLD {
                let (ri, rj) = (find(&mut parent, i), find(&mut parent, j));
                if ri != rj {
                    parent[ri] = rj;
                }
            }
        }
    }
    let mut groups: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
    for (i, &c) in cols.iter().enumerate().take(m) {
        let r = find(&mut parent, i);
        groups.entry(r).or_default().push(c);
    }
    groups.into_values().collect()
}

fn dependence(table: &Table, sample: &[usize], a: usize, b: usize) -> f64 {
    let fa: Vec<f64> = sample.iter().map(|&r| col_as_f64(table, r, a)).collect();
    let fb: Vec<f64> = sample.iter().map(|&r| col_as_f64(table, r, b)).collect();
    pearson(&fa, &fb).abs()
}

/// Numeric view of any column (categoricals via dictionary code).
fn col_as_f64(table: &Table, row: usize, col: usize) -> f64 {
    table
        .column(col)
        .get_f64(row)
        .or_else(|| table.column(col).str_code(row).map(|c| c as f64))
        .unwrap_or(0.0)
}

fn pearson(a: &[f64], b: &[f64]) -> f64 {
    let n = a.len() as f64;
    if n < 2.0 {
        return 0.0;
    }
    let ma = a.iter().sum::<f64>() / n;
    let mb = b.iter().sum::<f64>() / n;
    let mut cov = 0.0;
    let mut va = 0.0;
    let mut vb = 0.0;
    for (x, y) in a.iter().zip(b) {
        cov += (x - ma) * (y - mb);
        va += (x - ma) * (x - ma);
        vb += (y - mb) * (y - mb);
    }
    if va <= 0.0 || vb <= 0.0 {
        0.0
    } else {
        cov / (va.sqrt() * vb.sqrt())
    }
}

/// Split rows into two clusters by thresholding the most spread numeric
/// column at its sample median.
fn split_rows(table: &Table, rows: &[usize], cols: &[usize]) -> (Vec<usize>, Vec<usize>) {
    // Pick the numeric column with the widest normalised spread.
    let mut best: Option<(usize, f64)> = None;
    for &c in cols {
        let vals: Vec<f64> = rows
            .iter()
            .take(512)
            .filter_map(|&r| table.column(c).get_f64(r))
            .collect();
        if vals.len() < 2 {
            continue;
        }
        let mean = vals.iter().sum::<f64>() / vals.len() as f64;
        let var = vals.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / vals.len() as f64;
        let spread = if mean.abs() > 1e-9 {
            var.sqrt() / mean.abs()
        } else {
            var.sqrt()
        };
        if best.is_none_or(|(_, s)| spread > s) {
            best = Some((c, spread));
        }
    }
    let Some((split_col, _)) = best else {
        let mid = rows.len() / 2;
        return (rows[..mid].to_vec(), rows[mid..].to_vec());
    };
    let mut vals: Vec<f64> = rows
        .iter()
        .filter_map(|&r| table.column(split_col).get_f64(r))
        .collect();
    vals.sort_by(|x, y| x.partial_cmp(y).unwrap_or(std::cmp::Ordering::Equal));
    let median = vals.get(vals.len() / 2).copied().unwrap_or(0.0);
    let mut a = Vec::new();
    let mut b = Vec::new();
    for &r in rows {
        if table.column(split_col).get_f64(r).unwrap_or(median) < median {
            a.push(r);
        } else {
            b.push(r);
        }
    }
    (a, b)
}

#[cfg(test)]
mod tests {
    use super::*;
    use asqp_data::{flights, Scale};
    use asqp_db::sql::parse;
    use asqp_db::Database;

    fn spn_and_db() -> (Spn, Database) {
        let db = flights::generate(Scale::Tiny, 1);
        let spn = Spn::learn(db.table("flights").unwrap());
        (spn, db)
    }

    #[test]
    fn count_estimate_close_to_truth() {
        let (spn, db) = spn_and_db();
        let q = parse("SELECT COUNT(*) FROM flights f WHERE f.distance >= 1000").unwrap();
        let truth = db.execute(&q).unwrap().rows.get(0, 0).as_i64().unwrap() as f64;
        let est = spn.estimate(&q).unwrap().rows.get(0, 0).as_f64().unwrap();
        let err = (est - truth).abs() / truth;
        assert!(err < 0.25, "COUNT estimate err {err}: {est} vs {truth}");
    }

    #[test]
    fn avg_estimate_reasonable() {
        let (spn, db) = spn_and_db();
        let q = parse("SELECT AVG(f.distance) FROM flights f WHERE f.month = 3").unwrap();
        let truth = db.execute(&q).unwrap().rows.get(0, 0).as_f64().unwrap();
        let est = spn.estimate(&q).unwrap().rows.get(0, 0).as_f64().unwrap();
        let err = (est - truth).abs() / truth;
        assert!(err < 0.3, "AVG err {err}: {est} vs {truth}");
    }

    #[test]
    fn group_by_estimates_cover_major_groups() {
        let (spn, db) = spn_and_db();
        let q = parse("SELECT f.carrier, COUNT(*) FROM flights f GROUP BY f.carrier").unwrap();
        let truth = db.execute(&q).unwrap();
        let est = spn.estimate(&q).unwrap();
        assert!(
            est.rows.len() as f64 >= truth.rows.len() as f64 * 0.7,
            "groups: {} vs {}",
            est.rows.len(),
            truth.rows.len()
        );
        // Largest group's count within 2x.
        let t0 = truth.rows.get(0, 1).as_f64().unwrap();
        let e0 = est
            .rows
            .iter()
            .find(|r| r[0] == truth.rows.get(0, 0))
            .map(|r| r[1].as_f64().unwrap())
            .unwrap_or(0.0);
        assert!(e0 > t0 * 0.4 && e0 < t0 * 2.5, "{e0} vs {t0}");
    }

    #[test]
    fn unsupported_shapes_return_none() {
        let (spn, _) = spn_and_db();
        let join =
            parse("SELECT COUNT(*) FROM flights f JOIN carriers c ON f.carrier = c.code").unwrap();
        assert!(spn.estimate(&join).is_none());
        let like = parse("SELECT COUNT(*) FROM flights f WHERE f.origin LIKE 'A%'").unwrap();
        assert!(spn.estimate(&like).is_none());
        let spj = parse("SELECT f.origin FROM flights f").unwrap();
        assert!(spn.estimate(&spj).is_none());
    }

    #[test]
    fn full_table_count_is_exact() {
        let (spn, db) = spn_and_db();
        let q = parse("SELECT COUNT(*) FROM flights f").unwrap();
        let truth = db.execute(&q).unwrap().rows.get(0, 0).as_i64().unwrap() as f64;
        let est = spn.estimate(&q).unwrap().rows.get(0, 0).as_f64().unwrap();
        assert!((est - truth).abs() < 1.0, "{est} vs {truth}");
    }

    #[test]
    fn sum_estimate_reasonable() {
        let (spn, db) = spn_and_db();
        let q = parse("SELECT SUM(f.distance) FROM flights f WHERE f.distance >= 500").unwrap();
        let truth = db.execute(&q).unwrap().rows.get(0, 0).as_f64().unwrap();
        let est = spn.estimate(&q).unwrap().rows.get(0, 0).as_f64().unwrap();
        let err = (est - truth).abs() / truth;
        assert!(err < 0.3, "SUM err {err}: {est} vs {truth}");
    }
}

//! Approximate aggregate answering over the approximation set (paper §6.4).
//!
//! COUNT and SUM computed on a subset are scaled by the per-table sampling
//! ratio (a Horvitz–Thompson-style estimate under the uniform-inclusion
//! assumption; joins multiply per-table ratios). AVG / MIN / MAX pass
//! through unscaled. Relative error (Eq. 2) handles GROUP BY outputs by
//! matching groups and charging missing groups a full error of 1.

use asqp_db::{AggExpr, AggFunc, Database, DbResult, Query, ResultSet, Row, SelectItem, Value};
use std::collections::BTreeMap;

/// Per-query scale factor: product over FROM tables of
/// `|T_full| / |T_subset|` (tables with an empty subset part make the query
/// unanswerable — the caller should have fallen back to the full DB).
pub fn scale_factor(full: &Database, subset: &Database, q: &Query) -> DbResult<f64> {
    let mut factor = 1.0;
    for t in q.referenced_tables() {
        let nf = full.table(t)?.row_count() as f64;
        let ns = subset.table(t)?.row_count() as f64;
        if ns > 0.0 && nf > 0.0 {
            factor *= nf / ns;
        }
    }
    Ok(factor)
}

/// Execute an aggregate query on the approximation set, scaling COUNT/SUM
/// outputs by the sampling ratio.
// asqp::panic-free-audited: `row[c]` indices come from enumerating the query's
// select list, and every result row is materialised with exactly one value per
// select item, so `c` is always in bounds
pub fn approximate_aggregate(full: &Database, subset: &Database, q: &Query) -> DbResult<ResultSet> {
    assert!(
        q.is_aggregate(),
        "approximate_aggregate expects an aggregate query"
    );
    let mut rs = subset.execute(q)?;
    let factor = scale_factor(full, subset, q)?;

    // Column positions of scalable aggregates in the select list.
    let scalable: Vec<usize> = q
        .select
        .iter()
        .enumerate()
        .filter_map(|(i, s)| match s {
            SelectItem::Aggregate(AggExpr {
                func: AggFunc::Count | AggFunc::Sum,
                ..
            }) => Some(i),
            _ => None,
        })
        .collect();

    rs.rows = rs
        .rows
        .iter()
        .map(|mut row| {
            for &c in &scalable {
                row[c] = match row[c] {
                    Value::Int(i) => Value::Float((i as f64 * factor).round()),
                    Value::Float(f) => Value::Float(f * factor),
                    ref other => other.clone(),
                };
            }
            row
        })
        .collect();
    Ok(rs)
}

/// Relative error of one scalar estimate (Eq. 2). A zero truth with a
/// non-zero estimate counts as error 1.
pub fn relative_error(pred: f64, truth: f64) -> f64 {
    if truth == 0.0 {
        if pred == 0.0 {
            0.0
        } else {
            1.0
        }
    } else {
        ((pred - truth).abs() / truth.abs()).min(1.0)
    }
}

/// Average relative error between a predicted and a true aggregate result.
///
/// For GROUP BY queries, groups are matched on the group-key columns;
/// missing groups get error 1 per aggregate column (paper §6.4). Extra
/// (spurious) predicted groups also get error 1 — symmetric treatment.
pub fn result_relative_error(q: &Query, pred: &ResultSet, truth: &ResultSet) -> f64 {
    // Identify key vs aggregate columns by select-list shape.
    let mut key_cols = Vec::new();
    let mut agg_cols = Vec::new();
    for (i, s) in q.select.iter().enumerate() {
        match s {
            SelectItem::Aggregate(_) => agg_cols.push(i),
            _ => key_cols.push(i),
        }
    }
    if agg_cols.is_empty() {
        return 0.0;
    }

    let key_of = |row: &[Value]| -> Row { key_cols.iter().map(|&c| row[c].clone()).collect() };
    // BTreeMaps so the f64 error accumulation below runs in key order:
    // with hash maps the sum order (and thus the reported error, f64
    // addition being non-associative) varied run to run.
    let truth_map: BTreeMap<_, _> = truth.rows.iter().map(|r| (key_of(&r), r)).collect();
    let pred_map: BTreeMap<_, _> = pred.rows.iter().map(|r| (key_of(&r), r)).collect();

    let mut total = 0.0;
    let mut terms = 0usize;
    for (key, trow) in &truth_map {
        match pred_map.get(key) {
            Some(prow) => {
                for &c in &agg_cols {
                    let t = trow[c].as_f64().unwrap_or(0.0);
                    let p = prow[c].as_f64().unwrap_or(0.0);
                    total += relative_error(p, t);
                    terms += 1;
                }
            }
            None => {
                total += agg_cols.len() as f64; // missing group: full error
                terms += agg_cols.len();
            }
        }
    }
    for key in pred_map.keys() {
        if !truth_map.contains_key(key) {
            total += agg_cols.len() as f64; // spurious group
            terms += agg_cols.len();
        }
    }
    if terms == 0 {
        0.0
    } else {
        total / terms as f64
    }
}

/// Label for the six Fig.-12 operator classes.
pub fn operator_class(q: &Query) -> &'static str {
    let grouped = !q.group_by.is_empty();
    let func = q.select.iter().find_map(|s| match s {
        SelectItem::Aggregate(a) => Some(a.func),
        _ => None,
    });
    match (func, grouped) {
        (Some(AggFunc::Count), true) => "G+CNT",
        (Some(AggFunc::Count), false) => "CNT",
        (Some(AggFunc::Sum), true) => "G+SUM",
        (Some(AggFunc::Sum), false) => "SUM",
        (Some(AggFunc::Avg), true) => "G+AVG",
        (Some(AggFunc::Avg), false) => "AVG",
        (Some(AggFunc::Min | AggFunc::Max), true) => "G+EXT",
        (Some(AggFunc::Min | AggFunc::Max), false) => "EXT",
        (None, _) => "SPJ",
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use asqp_db::sql::parse;
    use asqp_db::{Schema, ValueType};
    use std::collections::BTreeMap;

    fn db_pair() -> (Database, Database) {
        let mut db = Database::new();
        let t = db
            .create_table(
                "t",
                Schema::build(&[("g", ValueType::Str), ("x", ValueType::Int)]),
            )
            .unwrap();
        for i in 0..100i64 {
            let g = if i % 2 == 0 { "even" } else { "odd" };
            t.push_row(&[Value::Str(g.into()), Value::Int(i)]).unwrap();
        }
        // 10% uniform subset: every 10th row.
        let mut sel = BTreeMap::new();
        sel.insert("t".to_string(), (0..100).step_by(10).collect::<Vec<_>>());
        let sub = db.subset(&sel).unwrap();
        (db, sub)
    }

    #[test]
    fn count_scales_back_to_truth() {
        let (db, sub) = db_pair();
        let q = parse("SELECT COUNT(*) FROM t").unwrap();
        let approx = approximate_aggregate(&db, &sub, &q).unwrap();
        let truth = db.execute(&q).unwrap();
        let err = result_relative_error(&q, &approx, &truth);
        assert!(err < 0.05, "uniform 10% sample scales COUNT well: {err}");
    }

    #[test]
    fn avg_not_scaled() {
        let (db, sub) = db_pair();
        let q = parse("SELECT AVG(t.x) FROM t").unwrap();
        let approx = approximate_aggregate(&db, &sub, &q).unwrap();
        // subset = {0,10,...,90}, avg = 45; truth avg = 49.5.
        let a = approx.rows.get(0, 0).as_f64().unwrap();
        assert!((a - 45.0).abs() < 1e-9);
        let truth = db.execute(&q).unwrap();
        let err = result_relative_error(&q, &approx, &truth);
        assert!(err < 0.1, "err = {err}");
    }

    #[test]
    fn group_by_scaling_and_missing_groups() {
        let (db, sub) = db_pair();
        let q = parse("SELECT t.g, COUNT(*) FROM t GROUP BY t.g").unwrap();
        let approx = approximate_aggregate(&db, &sub, &q).unwrap();
        let truth = db.execute(&q).unwrap();
        // Subset rows are all even (0,10,...,90) → "odd" group missing.
        assert_eq!(approx.rows.len(), 1);
        let err = result_relative_error(&q, &approx, &truth);
        // even group: pred 10*10=100 vs truth 50 → err capped at 1; odd
        // missing → 1. Average = (1 + 1)/2... even err = |100-50|/50 = 1.0.
        assert!(err > 0.5, "missing group must be punished: {err}");
    }

    #[test]
    fn relative_error_edge_cases() {
        assert_eq!(relative_error(0.0, 0.0), 0.0);
        assert_eq!(relative_error(5.0, 0.0), 1.0);
        assert!((relative_error(90.0, 100.0) - 0.1).abs() < 1e-12);
        assert_eq!(relative_error(500.0, 100.0), 1.0, "capped at 1");
    }

    #[test]
    fn operator_classes() {
        assert_eq!(
            operator_class(&parse("SELECT COUNT(*) FROM t").unwrap()),
            "CNT"
        );
        assert_eq!(
            operator_class(&parse("SELECT t.g, SUM(t.x) FROM t GROUP BY t.g").unwrap()),
            "G+SUM"
        );
        assert_eq!(
            operator_class(&parse("SELECT AVG(t.x) FROM t").unwrap()),
            "AVG"
        );
        assert_eq!(operator_class(&parse("SELECT t.x FROM t").unwrap()), "SPJ");
    }

    #[test]
    fn spurious_groups_punished() {
        let q = parse("SELECT t.g, COUNT(*) FROM t GROUP BY t.g").unwrap();
        let truth = ResultSet {
            columns: vec!["t.g".into(), "COUNT(*)".into()],
            rows: [[Value::Str("a".into()), Value::Int(10)]]
                .into_iter()
                .collect(),
        };
        let pred = ResultSet {
            columns: truth.columns.clone(),
            rows: [
                [Value::Str("a".into()), Value::Int(10)],
                [Value::Str("ghost".into()), Value::Int(5)],
            ]
            .into_iter()
            .collect(),
        };
        let err = result_relative_error(&q, &pred, &truth);
        assert!((err - 0.5).abs() < 1e-12, "err = {err}");
    }
}

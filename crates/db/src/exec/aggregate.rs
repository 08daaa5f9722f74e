//! Hash aggregation over joined row-id tuples.

use super::{ResultSet, Rows};
use crate::plan::{GroupItem, Groups, Layout};
use crate::query::AggFunc;
use crate::value::Value;
use std::collections::HashMap;

/// Running state for one aggregate call.
#[derive(Debug, Clone)]
enum AggState {
    Count(i64),
    Sum { sum: f64, any: bool, int: bool },
    Avg { sum: f64, count: i64 },
    Min(Option<Value>),
    Max(Option<Value>),
}

impl AggState {
    fn new(func: AggFunc) -> Self {
        match func {
            AggFunc::Count => AggState::Count(0),
            AggFunc::Sum => AggState::Sum {
                sum: 0.0,
                any: false,
                int: true,
            },
            AggFunc::Avg => AggState::Avg { sum: 0.0, count: 0 },
            AggFunc::Min => AggState::Min(None),
            AggFunc::Max => AggState::Max(None),
        }
    }

    /// Feed one input value. `v` is `None` for `COUNT(*)` (row-counting).
    fn update(&mut self, v: Option<&Value>) {
        match self {
            AggState::Count(c) => match v {
                None => *c += 1,        // COUNT(*)
                Some(Value::Null) => {} // COUNT(col) skips NULLs
                Some(_) => *c += 1,
            },
            AggState::Sum { sum, any, int } => {
                if let Some(v) = v {
                    if let Some(f) = v.as_f64() {
                        *sum += f;
                        *any = true;
                        if !matches!(v, Value::Int(_)) {
                            *int = false;
                        }
                    }
                }
            }
            AggState::Avg { sum, count } => {
                if let Some(v) = v {
                    if let Some(f) = v.as_f64() {
                        *sum += f;
                        *count += 1;
                    }
                }
            }
            AggState::Min(cur) => {
                if let Some(v) = v {
                    if !v.is_null() && cur.as_ref().is_none_or(|c| v < c) {
                        *cur = Some(v.clone());
                    }
                }
            }
            AggState::Max(cur) => {
                if let Some(v) = v {
                    if !v.is_null() && cur.as_ref().is_none_or(|c| v > c) {
                        *cur = Some(v.clone());
                    }
                }
            }
        }
    }

    fn finish(&self) -> Value {
        match self {
            AggState::Count(c) => Value::Int(*c),
            AggState::Sum { sum, any, int } => {
                if !*any {
                    Value::Null // SQL: SUM over no rows is NULL
                } else if *int && sum.fract() == 0.0 {
                    Value::Int(*sum as i64)
                } else {
                    Value::Float(*sum)
                }
            }
            AggState::Avg { sum, count } => {
                if *count == 0 {
                    Value::Null
                } else {
                    Value::Float(*sum / *count as f64)
                }
            }
            AggState::Min(v) | AggState::Max(v) => v.clone().unwrap_or(Value::Null),
        }
    }
}

/// Aggregate the joined row-id tuples and produce the final result set.
pub(crate) fn aggregate<'t>(
    layout: &Layout,
    tuples: impl Iterator<Item = &'t [usize]>,
    groups: &Groups,
    limit: usize,
) -> ResultSet {
    let fresh =
        || -> Vec<AggState> { groups.aggs.iter().map(|&(f, _)| AggState::new(f)).collect() };

    // Accumulate.
    let mut by_key: HashMap<Vec<Value>, Vec<AggState>> = HashMap::new();
    for t in tuples {
        let key: Vec<Value> = groups.keys.iter().map(|&s| layout.fetch(t, s)).collect();
        let states = by_key.entry(key).or_insert_with(fresh);
        for (st, (_, arg)) in states.iter_mut().zip(&groups.aggs) {
            match arg {
                Some(s) => st.update(Some(&layout.fetch(t, *s))),
                None => st.update(None),
            }
        }
    }

    // Global aggregate over an empty input still yields one row.
    if by_key.is_empty() && groups.keys.is_empty() {
        by_key.insert(Vec::new(), fresh());
    }

    // Each group as (key, finished aggregates), in a deterministic order:
    // by group key, then (stably) by ORDER BY over the output columns.
    let mut keyed: Vec<(Vec<Value>, Vec<Value>)> = by_key
        .into_iter()
        .map(|(key, states)| (key, states.iter().map(AggState::finish).collect()))
        .collect();
    keyed.sort_by(|a, b| a.0.cmp(&b.0));
    fn cell<'g>((key, aggs): &'g (Vec<Value>, Vec<Value>), item: &GroupItem) -> &'g Value {
        match item {
            GroupItem::Key(i) => &key[*i],
            GroupItem::Agg(i) => &aggs[*i],
        }
    }
    if !groups.order.is_empty() {
        keyed.sort_by(|a, b| {
            for &(pos, desc) in &groups.order {
                let item = &groups.items[pos].1;
                let ord = cell(a, item).cmp(cell(b, item));
                let ord = if desc { ord.reverse() } else { ord };
                if ord != std::cmp::Ordering::Equal {
                    return ord;
                }
            }
            std::cmp::Ordering::Equal
        });
    }
    keyed.truncate(limit);

    let mut rows = Rows::with_capacity(groups.items.len(), keyed.len());
    for group in &keyed {
        rows.push(
            groups
                .items
                .iter()
                .map(|(_, item)| cell(group, item).clone()),
        );
    }
    ResultSet {
        columns: groups.items.iter().map(|(name, _)| name.clone()).collect(),
        rows,
    }
}

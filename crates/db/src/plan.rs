//! The binder and the plan: one bound [`Plan`] value per query, consumed by
//! the cost model, the executor and EXPLAIN alike.
//!
//! [`bind`] is the only place names become slots. It checks the FROM
//! clause, resolves every column the query mentions, splits the WHERE
//! conjunction, and classifies each conjunct: one that reads a single
//! binding is *pushed* into that binding's scan, the rest (cross-binding or
//! constant) stay *residual*; a join condition within one binding is a
//! pushed filter too. Every conjunct keeps its *named* form next to the
//! bound one — EXPLAIN and the cost model read names, kernels read slots.
//!
//! Every plan this engine can produce is a left-deep join under a fixed
//! Filter → Aggregate|Sort → Project → Distinct → Limit chain, so a
//! [`Plan`] is a struct, not a tree: the bound query plus the optimizer's
//! decisions (join order, scan limit, estimates). What EXPLAIN prints is by
//! construction what the executor runs.

use crate::catalog::Database;
use crate::column::Column;
use crate::error::{DbError, DbResult};
use crate::expr::{ColRef, Expr};
use crate::query::{AggFunc, JoinCond, Query, SelectItem};
use crate::table::Table;
use crate::value::Value;

/// One table bound in the FROM clause, with its slot offset in the flat
/// execution row layout.
#[derive(Debug)]
pub struct Binding<'a> {
    /// Alias if given, else the table name.
    pub name: &'a str,
    pub table: &'a Table,
    pub offset: usize,
}

/// A WHERE conjunct as written and as bound. Pushed conjuncts are bound to
/// their table's *local* column indices (scan kernels see one table);
/// residual ones to flat slots.
#[derive(Debug)]
pub struct Conjunct {
    pub named: Expr,
    pub bound: Expr,
}

/// Equi-join condition between two different bindings, resolved to flat
/// slots.
#[derive(Debug)]
pub struct BoundJoin<'a> {
    pub cond: &'a JoinCond,
    pub left_slot: usize,
    pub right_slot: usize,
    pub left_binding: usize,
    pub right_binding: usize,
}

/// What the query returns, resolved to slots.
#[derive(Debug)]
pub enum Output {
    /// SPJ: projected slots with their output names, ORDER BY as
    /// `(slot, desc)`.
    Rows {
        proj: Vec<usize>,
        names: Vec<String>,
        order: Vec<(usize, bool)>,
    },
    Groups(Groups),
}

/// An aggregate query's output, validated: plain select columns are group
/// keys, ORDER BY names output columns.
#[derive(Debug)]
pub struct Groups {
    /// GROUP BY slots.
    pub keys: Vec<usize>,
    /// Per aggregate call: function and argument slot (`None` = `COUNT(*)`).
    pub aggs: Vec<(AggFunc, Option<usize>)>,
    /// Output columns in SELECT order.
    pub items: Vec<(String, GroupItem)>,
    /// ORDER BY as `(output column, desc)`.
    pub order: Vec<(usize, bool)>,
}

#[derive(Debug, Clone, Copy)]
pub enum GroupItem {
    /// Index into [`Groups::keys`].
    Key(usize),
    /// Index into [`Groups::aggs`].
    Agg(usize),
}

/// Flat row layout over all FROM bindings: the name → slot environment.
#[derive(Debug)]
pub struct Layout<'a> {
    pub bindings: Vec<Binding<'a>>,
    /// `slot → (binding index, local column index)`.
    slot_map: Vec<(usize, usize)>,
}

impl<'a> Layout<'a> {
    fn new(db: &'a Database, query: &'a Query) -> DbResult<Self> {
        if query.from.is_empty() {
            return Err(DbError::InvalidQuery("FROM clause is empty".into()));
        }
        let mut bindings: Vec<Binding> = Vec::with_capacity(query.from.len());
        let mut slot_map = Vec::new();
        for tref in &query.from {
            let name = tref.binding();
            if bindings.iter().any(|b| b.name == name) {
                return Err(DbError::Duplicate(format!("table binding {name}")));
            }
            let table = db.table(&tref.table)?;
            let bi = bindings.len();
            bindings.push(Binding {
                name,
                table,
                offset: slot_map.len(),
            });
            slot_map.extend((0..table.schema().len()).map(|c| (bi, c)));
        }
        Ok(Layout { bindings, slot_map })
    }

    /// Resolve a (possibly unqualified) column reference to a flat slot.
    pub fn resolve(&self, c: &ColRef) -> DbResult<usize> {
        match &c.table {
            Some(t) => {
                let b = self
                    .bindings
                    .iter()
                    .find(|b| b.name == *t)
                    .ok_or_else(|| DbError::UnknownTable(t.clone()))?;
                Ok(b.offset + b.table.schema().require(&c.column)?)
            }
            None => {
                let mut hit: Option<usize> = None;
                for b in &self.bindings {
                    if let Some(idx) = b.table.schema().index_of(&c.column) {
                        if hit.is_some() {
                            return Err(DbError::AmbiguousColumn(c.column.clone()));
                        }
                        hit = Some(b.offset + idx);
                    }
                }
                hit.ok_or_else(|| DbError::UnknownColumn(c.column.clone()))
            }
        }
    }

    /// Which binding owns a flat slot, and the local column index.
    pub fn slot_owner(&self, slot: usize) -> (usize, usize) {
        self.slot_map[slot]
    }

    pub fn total_slots(&self) -> usize {
        self.slot_map.len()
    }

    /// Qualified output name for a flat slot.
    fn slot_name(&self, slot: usize) -> String {
        let (b, c) = self.slot_owner(slot);
        let binding = &self.bindings[b];
        format!("{}.{}", binding.name, binding.table.schema().column(c).name)
    }

    /// The binding that owns a flat slot, and the slot's column. A loop over
    /// tuples resolves its slots once with this and then reads
    /// `column.get(ids[binding])` per tuple.
    pub(crate) fn slot_column(&self, slot: usize) -> (usize, &'a Column) {
        let (b, c) = self.slot_owner(slot);
        (b, self.bindings[b].table.column(c))
    }

    /// Fetch the value of `slot` for the row-id tuple `ids` (one base row id
    /// per binding, FROM order).
    pub fn fetch(&self, ids: &[usize], slot: usize) -> Value {
        let (b, column) = self.slot_column(slot);
        column.get(ids[b])
    }

    /// A pushed conjunct for binding `b`: `flat` re-expressed over the
    /// table's local column indices.
    fn pushed(&self, named: Expr, flat: Expr, b: usize) -> DbResult<Conjunct> {
        let offset = self.bindings[b].offset;
        let bound = if offset == 0 {
            flat
        } else {
            named.bind(&|c| Ok(self.resolve(c)? - offset))?
        };
        Ok(Conjunct { named, bound })
    }
}

/// A query with every name resolved and every conjunct classified.
#[derive(Debug)]
pub struct Bound<'a> {
    pub query: &'a Query,
    pub layout: Layout<'a>,
    /// Per binding: the conjuncts its scan evaluates — join conditions
    /// within the binding first, then WHERE conjuncts in source order. The
    /// cost model folds selectivities in this order.
    pub pushed: Vec<Vec<Conjunct>>,
    /// Cross-binding and constant conjuncts in source order, each with the
    /// sorted bindings it reads.
    pub residual: Vec<(Conjunct, Vec<usize>)>,
    /// Stable-sorted by the later of the two bindings: the order EXPLAIN
    /// prints conditions in and the cost model multiplies selectivities in.
    pub joins: Vec<BoundJoin<'a>>,
    pub output: Output,
}

impl Bound<'_> {
    /// May a LIMIT stop the scan itself after `n` passing rows? Only when
    /// nothing between the scan and the LIMIT drops, reorders or merges
    /// rows: one table, every conjunct pushed, no aggregate, sort or
    /// DISTINCT. A property of the query's *shape*: it holds or not whatever
    /// the LIMIT value, and with none.
    pub fn limit_pushable(&self) -> bool {
        self.layout.bindings.len() == 1
            && self.residual.is_empty()
            && matches!(&self.output, Output::Rows { order, .. } if order.is_empty())
            && !self.query.distinct
    }
}

/// Bind `query` against `db`.
pub fn bind<'a>(db: &'a Database, query: &'a Query) -> DbResult<Bound<'a>> {
    let layout = Layout::new(db, query)?;
    let nb = layout.bindings.len();

    // WHERE is bound before the join conditions (its errors surface first),
    // but each binding's own join conditions go ahead of its WHERE
    // conjuncts in `pushed`, hence the two lists.
    let mut where_pushed: Vec<Vec<Conjunct>> = (0..nb).map(|_| Vec::new()).collect();
    let mut residual = Vec::new();
    if let Some(pred) = &query.predicate {
        for named in pred.clone().split_conjuncts() {
            let flat = named.bind(&|c| layout.resolve(c))?;
            // Slots ascend binding by binding, so owners come out sorted.
            let mut bs: Vec<usize> = flat
                .slots()
                .iter()
                .map(|&s| layout.slot_owner(s).0)
                .collect();
            bs.dedup();
            match bs[..] {
                [b] => where_pushed[b].push(layout.pushed(named, flat, b)?),
                _ => residual.push((Conjunct { named, bound: flat }, bs)),
            }
        }
    }

    let mut pushed: Vec<Vec<Conjunct>> = (0..nb).map(|_| Vec::new()).collect();
    let mut joins = Vec::with_capacity(query.joins.len());
    for cond in &query.joins {
        let left_slot = layout.resolve(&cond.left)?;
        let right_slot = layout.resolve(&cond.right)?;
        let (left_binding, _) = layout.slot_owner(left_slot);
        let (right_binding, _) = layout.slot_owner(right_slot);
        if left_binding == right_binding {
            let named = Expr::eq(
                Expr::Column(cond.left.clone()),
                Expr::Column(cond.right.clone()),
            );
            let flat = Expr::eq(Expr::Slot(left_slot), Expr::Slot(right_slot));
            pushed[left_binding].push(layout.pushed(named, flat, left_binding)?);
        } else {
            joins.push(BoundJoin {
                cond,
                left_slot,
                right_slot,
                left_binding,
                right_binding,
            });
        }
    }
    for (p, w) in pushed.iter_mut().zip(where_pushed) {
        p.extend(w);
    }
    joins.sort_by_key(|j| j.left_binding.max(j.right_binding));

    let output = if query.is_aggregate() {
        Output::Groups(bind_groups(&layout, query)?)
    } else {
        let (mut proj, mut names) = (Vec::new(), Vec::new());
        for item in &query.select {
            match item {
                SelectItem::Star => {
                    proj.extend(0..layout.total_slots());
                    names.extend((0..layout.total_slots()).map(|s| layout.slot_name(s)));
                }
                SelectItem::Column(c) => {
                    proj.push(layout.resolve(c)?);
                    names.push(c.to_string());
                }
                SelectItem::Aggregate(_) => unreachable!("is_aggregate() is false"),
            }
        }
        let order = query
            .order_by
            .iter()
            .map(|k| Ok((layout.resolve(&k.column)?, k.desc)))
            .collect::<DbResult<_>>()?;
        Output::Rows { proj, names, order }
    };
    Ok(Bound {
        query,
        layout,
        pushed,
        residual,
        joins,
        output,
    })
}

fn bind_groups(layout: &Layout, query: &Query) -> DbResult<Groups> {
    // ORDER BY keys must be real columns even though they are matched to
    // output columns by name below.
    for k in &query.order_by {
        layout.resolve(&k.column)?;
    }
    let keys: Vec<usize> = query
        .group_by
        .iter()
        .map(|c| layout.resolve(c))
        .collect::<DbResult<_>>()?;
    let mut aggs = Vec::new();
    let mut items: Vec<(String, GroupItem)> = Vec::new();
    for sel in &query.select {
        match sel {
            SelectItem::Star => {
                return Err(DbError::InvalidQuery(
                    "SELECT * cannot be combined with aggregates".into(),
                ))
            }
            SelectItem::Column(c) => {
                let slot = layout.resolve(c)?;
                let key = keys.iter().position(|&g| g == slot).ok_or_else(|| {
                    DbError::InvalidQuery(format!("column {c} is not in GROUP BY"))
                })?;
                items.push((c.to_string(), GroupItem::Key(key)));
            }
            SelectItem::Aggregate(a) => {
                items.push((a.to_string(), GroupItem::Agg(aggs.len())));
                let arg = a.arg.as_ref().map(|c| layout.resolve(c)).transpose()?;
                aggs.push((a.func, arg));
            }
        }
    }
    // ORDER BY over output columns (group keys or aggregates, by name).
    let order = query
        .order_by
        .iter()
        .map(|k| {
            let name = k.column.to_string();
            let suffix = format!(".{}", k.column.column);
            let pos = items
                .iter()
                .position(|(n, _)| *n == name || n.ends_with(&suffix))
                .ok_or_else(|| {
                    DbError::InvalidQuery(format!("ORDER BY {name}: not an output column"))
                })?;
            Ok((pos, k.desc))
        })
        .collect::<DbResult<_>>()?;
    Ok(Groups {
        keys,
        aggs,
        items,
        order,
    })
}

/// The bound query plus the optimizer's decisions: everything the executor
/// runs and everything EXPLAIN prints.
#[derive(Debug)]
pub struct Plan<'a> {
    pub bound: Bound<'a>,
    /// Binding indices in execution order (a permutation of the bindings).
    pub join_order: Vec<usize>,
    /// Stop the (single) scan after this many passing rows: the live
    /// query's LIMIT when [`Bound::limit_pushable`] holds.
    pub scan_limit: Option<usize>,
    /// Estimated filtered rows per binding.
    pub est_scan_rows: Vec<f64>,
    /// Estimated intermediate rows after each join step (len = bindings-1).
    pub est_join_rows: Vec<f64>,
}

impl Plan<'_> {
    /// Per join step `i` (the one joining `join_order[i + 1]`): indices into
    /// [`Bound::joins`] of the conditions that link the new binding to the
    /// ones already joined. With none, the step is a cartesian product.
    pub fn join_steps(&self) -> Vec<Vec<usize>> {
        let mut joined = vec![false; self.join_order.len()];
        joined[self.join_order[0]] = true;
        self.join_order[1..]
            .iter()
            .map(|&next| {
                joined[next] = true;
                let links = |j: &BoundJoin| {
                    (j.left_binding == next && joined[j.right_binding])
                        || (j.right_binding == next && joined[j.left_binding])
                };
                let joins = self.bound.joins.iter().enumerate();
                joins.filter(|(_, j)| links(j)).map(|(i, _)| i).collect()
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Schema;
    use crate::sql::parse;
    use crate::value::ValueType;

    fn db() -> Database {
        let mut db = Database::new();
        for (name, rows) in [("title", 20usize), ("person", 10)] {
            let t = db
                .create_table(
                    name,
                    Schema::build(&[
                        ("id", ValueType::Int),
                        ("name", ValueType::Str),
                        ("year", ValueType::Int),
                    ]),
                )
                .unwrap();
            for i in 0..rows {
                t.push_row(&[
                    Value::Int(i as i64),
                    Value::from(format!("n{i}")),
                    Value::Int(1990 + i as i64),
                ])
                .unwrap();
            }
        }
        db
    }

    #[test]
    fn conjuncts_are_pushed_to_their_scans_or_stay_residual() {
        let db = db();
        let q = parse(
            "SELECT t.name FROM title AS t, person AS p \
             WHERE t.id = p.id AND t.year > 1995 AND p.year < 1994 AND t.year < p.year AND 1 = 1",
        )
        .unwrap();
        let bound = bind(&db, &q).unwrap();
        let named = |cs: &[Conjunct]| cs.iter().map(|c| c.named.to_string()).collect::<Vec<_>>();
        assert_eq!(named(&bound.pushed[0]), ["t.year > 1995"]);
        assert_eq!(named(&bound.pushed[1]), ["p.year < 1994"]);
        // p's conjunct reads p's *local* column 2, not flat slot 5.
        assert_eq!(bound.pushed[1][0].bound.slots(), [2]);
        let residual: Vec<(String, &[usize])> = bound
            .residual
            .iter()
            .map(|(c, bs)| (c.named.to_string(), &bs[..]))
            .collect();
        assert_eq!(
            residual,
            [
                ("t.year < p.year".to_string(), &[0, 1][..]),
                ("1 = 1".to_string(), &[][..])
            ]
        );
        assert_eq!(bound.joins.len(), 1);
    }

    #[test]
    fn join_condition_within_one_binding_is_its_first_pushed_filter() {
        let db = db();
        let q = parse(
            "SELECT t.id FROM title AS t JOIN person AS p ON p.id = p.year \
             WHERE t.id = p.id AND p.year > 1991",
        )
        .unwrap();
        let bound = bind(&db, &q).unwrap();
        let named: Vec<String> = bound.pushed[1]
            .iter()
            .map(|c| c.named.to_string())
            .collect();
        assert_eq!(named, ["p.id = p.year", "p.year > 1991"]);
        assert_eq!(bound.pushed[1][0].bound.slots(), [0, 2]);
        assert_eq!(
            bound.joins.len(),
            1,
            "only the cross-binding condition joins"
        );
    }

    #[test]
    fn limit_pushes_through_projection_but_not_sort_distinct_or_join() {
        let db = db();
        let pushable = |sql: &str| bind(&db, &parse(sql).unwrap()).unwrap().limit_pushable();
        assert!(pushable(
            "SELECT t.name FROM title AS t WHERE t.year > 1995 LIMIT 3"
        ));
        assert!(
            pushable("SELECT t.name FROM title AS t WHERE t.year > 1995"),
            "a shape property: holds with no LIMIT present"
        );
        assert!(
            !pushable("SELECT t.name FROM title AS t ORDER BY t.year LIMIT 3"),
            "sort needs all input rows"
        );
        assert!(
            !pushable("SELECT DISTINCT t.name FROM title AS t LIMIT 3"),
            "distinct counts deduplicated rows"
        );
        assert!(
            !pushable("SELECT t.name FROM title AS t, person AS p WHERE t.id = p.id LIMIT 3"),
            "joins do not preserve scan cardinality"
        );
        assert!(
            !pushable("SELECT t.name FROM title AS t WHERE 1 = 0 LIMIT 3"),
            "a residual filter drops rows after the scan"
        );
        assert!(!pushable("SELECT COUNT(*) FROM title AS t LIMIT 3"));
    }

    #[test]
    fn aggregate_output_is_validated_at_bind_time() {
        let db = db();
        let err = |sql: &str| bind(&db, &parse(sql).unwrap()).unwrap_err().to_string();
        assert!(
            err("SELECT t.name, COUNT(*) FROM title AS t GROUP BY t.year").contains("GROUP BY")
        );
        assert!(err("SELECT COUNT(*) FROM title AS t ORDER BY t.year").contains("ORDER BY"));
    }
}

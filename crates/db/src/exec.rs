//! Query execution: runs exactly one [`Plan`] — vectorized filtered scans,
//! hash joins in the planned order, residual filters, then projection or
//! aggregation, DISTINCT, ORDER BY and LIMIT.
//!
//! Intermediate join state is *row-id tuples* (one row id per bound table)
//! in one flat buffer, never materialised rows; the result is gathered from
//! them column by column ([`Rows`]), text as dictionary codes. Result
//! **lineage** (which base rows produced each result row) falls out for
//! free; ASQP-RL's pre-processing builds its RL action space from exactly
//! that lineage. A caller that wants only `|q(D)|` leaves after the join
//! and counts the tuples.
//!
//! Scans compile each binding's pushed conjuncts into typed column kernels
//! evaluated over selection vectors on ~2048-row morsels with zone-map
//! pruning (the private `vector` module); scans and hash-join probes are
//! sharded across crossbeam scoped threads with deterministic in-order
//! concatenation, so the result is the same for any shard count.

use crate::catalog::Database;
use crate::error::DbResult;
use crate::expr::Expr;
use crate::optimizer::plan_query;
use crate::plan::{Layout, Output, Plan};
use crate::query::Query;
use crate::value::{Row, Value};
use asqp_telemetry as telemetry;
use join::Tuples;
use std::collections::HashSet;
use std::sync::OnceLock;

pub(crate) mod aggregate;
mod join;
mod rows;
mod vector;

pub use rows::Rows;

/// The shard count the catalog and `explain_analyze` execute with: one
/// per hardware thread, read from the OS once per process.
/// `available_parallelism` re-reads cgroup files on every call, which cost
/// more than a whole scan of an approximation set.
pub(crate) fn hardware_threads() -> usize {
    static HARDWARE_THREADS: OnceLock<usize> = OnceLock::new();
    *HARDWARE_THREADS.get_or_init(|| {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    })
}

/// Provenance of one result row: `(binding index, base-table row id)` for
/// every table bound in the FROM clause, in FROM order.
pub type Lineage = Vec<usize>;

/// Plain query result: the column names and the rows under them
/// (`rows.get(i, j)` is column `j` of row `i`).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ResultSet {
    /// Output column names (qualified where the query qualified them).
    pub columns: Vec<String>,
    pub rows: Rows,
}

impl ResultSet {
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }
}

/// Query result plus lineage metadata.
#[derive(Debug, Clone)]
pub struct QueryOutput {
    pub result: ResultSet,
    /// Per FROM-clause binding: the table's catalog name.
    pub binding_tables: Vec<String>,
    /// Per result row: the base row id in each binding's table, aligned with
    /// `binding_tables`. Empty when the query aggregates (no tuple-level
    /// provenance exists for aggregated outputs).
    pub lineage: Vec<Lineage>,
    /// What this execution actually processed (EXPLAIN ANALYZE renders it
    /// next to the plan's estimates).
    pub trace: ExecTrace,
}

/// What an execution observed, aligned with the plan's estimates.
#[derive(Debug, Clone, Default)]
pub struct ExecTrace {
    /// Binding indices in the order they were actually joined.
    pub join_order: Vec<usize>,
    /// Rows surviving each binding's filtered scan (FROM order).
    pub scan_rows: Vec<usize>,
    /// Intermediate size after each join step, before residual filters
    /// (aligned with `join_order[1..]`).
    pub join_rows: Vec<usize>,
}

/// Plan `query` from `db`'s statistics and execute that plan on `shards`
/// workers, with the lineage on request: a caller that reads only the rows
/// ([`Database::execute`]) passes `false` and gets `lineage` back empty.
// asqp::panic-free-audited: bind, plan and execute index only by binding
// indices and slots the binder allocated itself: a conjunct's bindings are
// matched as a one-element slice before the element is used, and
// `join_order` is a permutation of the bindings (built by `cost_order`)
pub(crate) fn plan_and_execute(
    db: &Database,
    query: &Query,
    shards: usize,
    want_lineage: bool,
) -> DbResult<QueryOutput> {
    let _exec_span = telemetry::span("db.execute");
    execute_plan(&plan_query(db, query)?, shards, want_lineage)
}

/// Execute `plan`: its scans, its join order, its scan limit. Results
/// (rows, order, lineage) do not depend on `shards`.
pub fn execute(plan: &Plan, shards: usize) -> DbResult<QueryOutput> {
    execute_plan(plan, shards, true)
}

/// `|query(db)|` without building the rows: SPJ queries leave the executor
/// after the join and count its tuples under the LIMIT — no sort, no
/// projection, no `Value`. DISTINCT and aggregates decide their row count
/// in the output stage, so they run it.
///
/// With `added = Some((table, from_row))` only the tuples that use a row of
/// `table` at or past `from_row` are counted: for an SPJ query without a
/// LIMIT that names `table` once, what appending those rows added to the
/// count. The caller ([`Database::cached_row_count`]) checks those
/// conditions.
// asqp::panic-free-audited: the executor `plan_and_execute` is audited for,
// leaving before or after its output stage
pub(crate) fn count_rows(
    db: &Database,
    query: &Query,
    shards: usize,
    added: Option<(&str, usize)>,
) -> DbResult<usize> {
    let _exec_span = telemetry::span("db.execute");
    let plan = plan_query(db, query)?;
    if query.distinct || matches!(plan.bound.output, Output::Groups(_)) {
        return Ok(execute_plan(&plan, shards, false)?.result.len());
    }
    let (tuples, _) = joined(&plan, shards, added)?;
    let n = tuples.len().min(query.limit.unwrap_or(usize::MAX));
    telemetry::counter("db.rows_out", n as u64);
    Ok(n)
}

/// The executor's first stage: filtered scans, joins in the planned order
/// and residual filters. What comes out is every tuple the output stage
/// ([`execute_plan`]) will sort, project, group or count. `added` keeps only
/// the rows of one table at or past a row id (see [`count_rows`]).
fn joined(
    plan: &Plan,
    shards: usize,
    added: Option<(&str, usize)>,
) -> DbResult<(Tuples, ExecTrace)> {
    // Telemetry is per-stage, never per-row: with no recorder installed
    // each emission below is one relaxed atomic load.
    let bound = &plan.bound;
    let layout = &bound.layout;

    // --- Filtered scans (predicate pushdown) ----------------------------
    let mut scans: Vec<Vec<usize>> = Vec::with_capacity(layout.bindings.len());
    {
        let _scan_span = telemetry::span("db.exec.scan");
        for (b, pushed) in layout.bindings.iter().zip(&bound.pushed) {
            let from_row = match added {
                Some((table, from_row)) if b.table.name() == table => from_row,
                _ => 0,
            };
            scans.push(vector::filtered_scan_vectorized(
                b.table,
                pushed,
                shards,
                plan.scan_limit,
                from_row,
            )?);
        }
        if telemetry::enabled() {
            telemetry::counter(
                "db.scan.rows_in",
                layout
                    .bindings
                    .iter()
                    .map(|b| b.table.row_count() as u64)
                    .sum(),
            );
            telemetry::counter(
                "db.scan.rows_out",
                scans.iter().map(|s| s.len() as u64).sum(),
            );
        }
    }
    let scan_rows: Vec<usize> = scans.iter().map(Vec::len).collect();

    // --- Join ------------------------------------------------------------
    let nb = layout.bindings.len();
    let order = &plan.join_order;
    let mut is_joined = vec![false; nb];
    let start = order[0];
    let mut tuples = Tuples::seed(nb, start, std::mem::take(&mut scans[start]));
    is_joined[start] = true;
    let mut pending_residual: Vec<(&Expr, &[usize])> = bound
        .residual
        .iter()
        .map(|(c, bs)| (&c.bound, &bs[..]))
        .collect();
    let mut join_rows: Vec<usize> = Vec::with_capacity(nb.saturating_sub(1));

    let join_span = if nb > 1 {
        Some(telemetry::span("db.exec.join"))
    } else {
        None
    };
    for (&next, conds) in order[1..].iter().zip(plan.join_steps()) {
        // Conditions linking `next` to the joined set, as (probe slot from
        // the tuples, build slot from `next`).
        let link: Vec<(usize, usize)> = conds
            .iter()
            .map(|&j| &bound.joins[j])
            .map(|j| {
                if j.left_binding == next {
                    (j.right_slot, j.left_slot)
                } else {
                    (j.left_slot, j.right_slot)
                }
            })
            .collect();

        tuples = if link.is_empty() {
            tuples.cross(next, &scans[next])
        } else {
            join::hash_join(layout, &tuples, &link, next, &scans[next], shards)?
        };
        is_joined[next] = true;
        join_rows.push(tuples.len());

        // Apply residual conjuncts that are now fully bound.
        let (ready, waiting): (Vec<_>, Vec<_>) = pending_residual
            .into_iter()
            .partition(|(_, bs)| bs.iter().all(|&bi| is_joined[bi]));
        pending_residual = waiting;
        filter_tuples(layout, &mut tuples, ready.iter().map(|(e, _)| *e))?;
    }

    if nb > 1 && telemetry::enabled() {
        telemetry::counter("db.join.rows_out", tuples.len() as u64);
    }
    drop(join_span);

    // Still pending only when no join step ran: the constant conjuncts
    // (e.g. `1 = 0`) of a single-table query.
    filter_tuples(
        layout,
        &mut tuples,
        pending_residual.iter().map(|(e, _)| *e),
    )?;

    let trace = ExecTrace {
        join_order: order.clone(),
        scan_rows,
        join_rows,
    };
    Ok((tuples, trace))
}

/// The one executor: [`joined`], then the output stage — aggregate, or
/// sort, project, DISTINCT and LIMIT. `want_lineage` decides only whether
/// the projection keeps each result row's row-id tuple; rows, their order
/// and the trace do not depend on it.
fn execute_plan(plan: &Plan, shards: usize, want_lineage: bool) -> DbResult<QueryOutput> {
    let (mut tuples, trace) = joined(plan, shards, None)?;
    let bound = &plan.bound;
    let layout = &bound.layout;
    let binding_tables = layout
        .bindings
        .iter()
        .map(|b| b.table.name().to_string())
        .collect();

    // --- Aggregate or project -------------------------------------------
    let limit = bound.query.limit.unwrap_or(usize::MAX);
    let (proj, names, order) = match &bound.output {
        Output::Groups(groups) => {
            let _agg_span = telemetry::span("db.exec.aggregate");
            return Ok(QueryOutput {
                result: aggregate::aggregate(layout, tuples.iter(), groups, limit),
                binding_tables,
                lineage: Vec::new(),
                trace,
            });
        }
        Output::Rows { proj, names, order } => (proj, names, order),
    };

    if !order.is_empty() {
        let _sort_span = telemetry::span("db.exec.sort");
        // Sort keys row-major, `order.len()` per tuple.
        let width = order.len();
        let keys: Vec<Value> = tuples
            .iter()
            .flat_map(|t| order.iter().map(move |&(s, _)| layout.fetch(t, s)))
            .collect();
        let mut idx: Vec<usize> = (0..tuples.len()).collect();
        idx.sort_by(|&a, &b| {
            for (k, &(_, desc)) in order.iter().enumerate() {
                let ord = keys[a * width + k].cmp(&keys[b * width + k]);
                let ord = if desc { ord.reverse() } else { ord };
                if ord != std::cmp::Ordering::Equal {
                    return ord;
                }
            }
            std::cmp::Ordering::Equal
        });
        tuples = tuples.permuted(&idx);
    }

    // DISTINCT and LIMIT pick tuples; each projected column is then
    // gathered by row id into the result in one typed loop.
    let _project_span = telemetry::span("db.exec.project");
    if bound.query.distinct {
        tuples = tuples.permuted(&first_distinct(layout, &tuples, proj, limit));
    }
    let kept = tuples.iter().take(limit);
    let rows = Rows::gather(
        kept.len(),
        proj.iter().map(|&s| {
            let (b, c) = layout.slot_owner(s);
            (layout.bindings[b].table, c, kept.clone().map(move |t| t[b]))
        }),
    );
    let lineage = if want_lineage {
        kept.map(<[usize]>::to_vec).collect()
    } else {
        Vec::new()
    };
    telemetry::counter("db.rows_out", rows.len() as u64);

    Ok(QueryOutput {
        result: ResultSet {
            columns: names.clone(),
            rows,
        },
        binding_tables,
        lineage,
        trace,
    })
}

/// DISTINCT: the positions of the first tuple of each distinct projected
/// row, the first `limit` of them. A cell is one word that is equal exactly
/// when the cells are under `Value`'s `Eq` (see [`join::cell_word`]).
fn first_distinct(layout: &Layout, tuples: &Tuples, proj: &[usize], limit: usize) -> Vec<usize> {
    let columns: Vec<_> = proj.iter().map(|&s| layout.slot_column(s)).collect();
    let words: Vec<Option<u64>> = tuples
        .iter()
        .flat_map(|t| columns.iter().map(move |&(b, c)| join::cell_word(c, t[b])))
        .collect();
    let mut seen = HashSet::new();
    (0..tuples.len())
        .filter(|&i| seen.insert(&words[i * columns.len()..(i + 1) * columns.len()]))
        .take(limit)
        .collect()
}

/// Keep the tuples every conjunct in `conjuncts` is `TRUE` for (evaluated
/// as one AND under three-valued logic, so an error in any of them
/// surfaces).
fn filter_tuples<'e>(
    layout: &Layout,
    tuples: &mut Tuples,
    conjuncts: impl Iterator<Item = &'e Expr>,
) -> DbResult<()> {
    let Some(pred) = Expr::conjunction(conjuncts.cloned().collect()) else {
        return Ok(());
    };
    let slots = pred.slots();
    // Evaluate against a sparse flat row holding only the needed slots.
    let mut flat: Row = vec![Value::Null; layout.total_slots()];
    tuples.try_retain(|t| {
        for &s in &slots {
            flat[s] = layout.fetch(t, s);
        }
        pred.matches(&flat)
    })
}

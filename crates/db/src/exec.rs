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
use crate::optimizer::{plan_counting, plan_query};
use crate::plan::{Layout, Output, Plan};
use crate::query::Query;
use crate::value::{Row, Value};
use asqp_telemetry as telemetry;
use join::Tuples;
use std::collections::HashSet;
use std::sync::OnceLock;

pub(crate) mod aggregate;
pub(crate) mod join;
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
    /// Rows surviving each binding's filtered scan (FROM order); for a
    /// binding probed through its join index, the matches kept.
    pub scan_rows: Vec<usize>,
    /// Per binding, `Some(n)` when it was probed through its join index,
    /// `n` the matches the index returned before the binding's filters.
    pub probed: Vec<Option<usize>>,
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
/// conditions. Returns the count and the execution's trace.
// asqp::panic-free-audited: the executor `plan_and_execute` is audited for,
// leaving before or after its output stage
pub(crate) fn count_rows(
    db: &Database,
    query: &Query,
    shards: usize,
    added: Option<(&str, usize)>,
) -> DbResult<(usize, ExecTrace)> {
    let _exec_span = telemetry::span("db.execute");
    let plan = plan_counting(db, query, added)?;
    if query.distinct || matches!(plan.bound.output, Output::Groups(_)) {
        let out = execute_plan(&plan, shards, false)?;
        return Ok((out.result.len(), out.trace));
    }
    let (tuples, trace) = joined(&plan, shards, added)?;
    let n = tuples.len().min(query.limit.unwrap_or(usize::MAX));
    telemetry::counter("db.rows_out", n as u64);
    Ok((n, trace))
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
    let nb = layout.bindings.len();
    let order = &plan.join_order;
    let from_row = |b: usize| match added {
        Some((table, from_row)) if layout.bindings[b].table.name() == table => from_row,
        _ => 0,
    };
    // Per join step, the conditions linking its binding to the joined set,
    // as (probe slot from the tuples, build slot from the binding).
    let links: Vec<Vec<(usize, usize)>> = (order[1..].iter().zip(plan.join_steps()))
        .map(|(&next, conds)| {
            let link = conds.iter().map(|&j| &bound.joins[j]).map(|j| {
                let mut slots = [j.left_slot, j.right_slot];
                slots.rotate_left(usize::from(j.left_binding == next));
                (slots[0], slots[1])
            });
            link.collect()
        })
        .collect();

    // --- Filtered scans (predicate pushdown) ----------------------------
    // The start binding is scanned. A later one joined on one int or float
    // key is probed through its table's join index instead when it has no
    // filter and no `added` bound, or when the tuples expected to enter its
    // step times its rows per key fall under its rows: the crossover
    // measured on the miss templates (DESIGN §11).
    let mut scans: Vec<Vec<usize>> = vec![Vec::new(); nb];
    let mut index_keys: Vec<Option<(usize, usize)>> = vec![None; nb];
    {
        let _scan_span = telemetry::span("db.exec.scan");
        let scan = |b: usize| {
            let table = layout.bindings[b].table;
            let (pushed, limit) = (&bound.pushed[b], plan.scan_limit);
            vector::filtered_scan_vectorized(table, pushed, shards, limit, from_row(b))
        };
        scans[order[0]] = scan(order[0])?;
        // Tuples entering each step: the start scan's, then the plan's
        // estimates scaled by how far off its start estimate was.
        let started = scans[order[0]].len() as f64;
        let scale = started / plan.est_scan_rows[order[0]].max(1.0);
        let entering = std::iter::once(started).chain(plan.est_join_rows.iter().map(|e| e * scale));
        for ((&b, link), tuples) in order[1..].iter().zip(&links).zip(entering) {
            let table = layout.bindings[b].table;
            index_keys[b] = join::indexable(layout, link).filter(|&(_, col)| {
                let rows = table.row_count() as f64;
                let distinct = table.stats().columns[col].distinct.max(1) as f64;
                (bound.pushed[b].is_empty() && from_row(b) == 0) || tuples * rows / distinct < rows
            });
            if index_keys[b].is_none() {
                scans[b] = scan(b)?;
            }
        }
        if telemetry::enabled() {
            let scanned = (0..nb).filter(|&b| index_keys[b].is_none());
            let rows_in = scanned.map(|b| layout.bindings[b].table.row_count() as u64);
            telemetry::counter("db.scan.rows_in", rows_in.sum());
            let rows_out = scans.iter().map(|s| s.len() as u64);
            telemetry::counter("db.scan.rows_out", rows_out.sum());
        }
    }
    let mut scan_rows: Vec<usize> = scans.iter().map(Vec::len).collect();
    let mut probed = vec![None; nb];

    // --- Join ------------------------------------------------------------
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
    for (&next, link) in order[1..].iter().zip(&links) {
        tuples = match index_keys[next] {
            Some((ps, col)) => {
                let table = layout.bindings[next].table;
                let probe = join::Probe::new(&tuples, next, None, shards);
                let mut out = probe.words(&table.join_index(col), layout.slot_column(ps))?;
                probed[next] = Some(out.len());
                let (pushed, from) = (&bound.pushed[next], from_row(next));
                if !pushed.is_empty() || from > 0 {
                    // Filter the matched rows as the scan would, in tuple
                    // order: the rows that pass are those of the kept tuples.
                    let rows = out.iter().map(|t| t[next]);
                    let mut sel: Vec<usize> = rows.filter(|&r| r >= from).collect();
                    vector::compile(pushed, table).filter(table, &mut sel)?;
                    let mut kept = sel.into_iter().peekable();
                    out.try_retain(|t| Ok(kept.next_if_eq(&t[next]).is_some()))?;
                }
                scan_rows[next] = out.len();
                out
            }
            None if link.is_empty() => tuples.cross(next, &scans[next]),
            None => join::hash_join(layout, &tuples, link, next, &scans[next], shards)?,
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
        probed,
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

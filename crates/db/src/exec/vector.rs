//! Vectorized scan path: pushed conjuncts are *compiled* into typed
//! column kernels, evaluated over selection vectors on [`MORSEL_ROWS`]-sized
//! morsels. Kernels read the columnar payloads directly (dictionary codes,
//! `i64`/`f64` slices) and never materialise per-cell [`Value`]s; only the
//! residual [`Kernel::Generic`] fallback touches `Value`, and it fetches just
//! the slots its expression references.
//!
//! Filtering conjunct-by-conjunct over a selection vector is equivalent to
//! evaluating the full conjunction under SQL three-valued logic *for row
//! keeping*: a WHERE clause keeps a row iff the predicate is `TRUE`, and a
//! conjunction is `TRUE` iff every conjunct is — both `FALSE` and `NULL`
//! conjuncts drop the row either way.
//!
//! Morsels are processed in row order; when sharded across threads each
//! shard covers a contiguous chunk range and results are concatenated in
//! shard order, so output row ids are identical to a sequential scan.

use crate::column::ColumnData;
use crate::error::{DbError, DbResult};
use crate::expr::{like_match, CmpOp, Expr};
use crate::plan::Conjunct;
use crate::table::Table;
use crate::value::{cmp_int_float, Row, Value};
use crate::zonemap::{ColumnZones, TableZones, Zone, ZoneBounds, MORSEL_ROWS};
use asqp_telemetry as telemetry;
use std::cmp::Ordering;
use std::sync::atomic::{AtomicU64, Ordering as AtomicOrdering};

/// A numeric literal, kept typed so integer comparisons stay exact.
#[derive(Debug, Clone, Copy)]
enum NumConst {
    Int(i64),
    Float(f64),
}

impl NumConst {
    fn of(v: &Value) -> Option<NumConst> {
        match v {
            Value::Int(i) => Some(NumConst::Int(*i)),
            Value::Float(f) => Some(NumConst::Float(*f)),
            _ => None,
        }
    }

    fn value(self) -> Value {
        match self {
            NumConst::Int(i) => Value::Int(i),
            NumConst::Float(f) => Value::Float(f),
        }
    }
}

/// Mixed-type numeric comparison: [`Value::sql_cmp`], exact whatever the
/// types and `None` on NaN.
fn nc_cmp(a: NumConst, b: NumConst) -> Option<Ordering> {
    a.value().sql_cmp(&b.value())
}

/// `v [NOT] BETWEEN lo AND hi` is `TRUE` (never when `v` is NaN).
fn between(v: NumConst, lo: NumConst, hi: NumConst, negated: bool) -> bool {
    match (nc_cmp(v, lo), nc_cmp(v, hi)) {
        (Some(a), Some(b)) => (a.is_ge() && b.is_le()) != negated,
        _ => false,
    }
}

/// One compiled conjunct.
#[derive(Debug)]
enum Kernel {
    /// `col <op> const` on a numeric column.
    NumCmp {
        col: usize,
        op: CmpOp,
        rhs: NumConst,
    },
    /// `col [NOT] BETWEEN lo AND hi` on a numeric column.
    NumBetween {
        col: usize,
        lo: NumConst,
        hi: NumConst,
        negated: bool,
    },
    /// `col [NOT] IN (...)` on a numeric column.
    NumIn {
        col: usize,
        ints: Vec<i64>,
        floats: Vec<f64>,
        negated: bool,
        has_null: bool,
    },
    /// `col IS [NOT] NULL` on any column: a pure validity-bitmap scan.
    IsNull { col: usize, negated: bool },
    /// Any single-column predicate on a dictionary-encoded string column,
    /// pre-evaluated once per dictionary entry: per row it is a single
    /// `mask[code]` lookup. Covers `=`, `<`, LIKE, IN, arbitrary combos.
    DictMask {
        col: usize,
        mask: Vec<bool>,
        null_passes: bool,
    },
    /// Same idea for boolean columns (three possible inputs).
    BoolMask {
        col: usize,
        pass_true: bool,
        pass_false: bool,
        pass_null: bool,
    },
    /// The conjunct can never be `TRUE` (e.g. comparison against NULL):
    /// the whole scan is empty.
    DropAll,
    /// Fallback: row-at-a-time evaluation fetching only the referenced slots.
    Generic { expr: Expr, slots: Vec<usize> },
}

impl Kernel {
    /// Column whose zone maps can prune chunks for this kernel.
    fn prune_col(&self) -> Option<usize> {
        match self {
            Kernel::NumCmp { col, .. }
            | Kernel::NumBetween { col, .. }
            | Kernel::NumIn { col, .. }
            | Kernel::IsNull { col, .. } => Some(*col),
            _ => None,
        }
    }
}

/// `true` when the kernel provably rejects every row summarised by `zone`.
/// All decisions are conservative: incomparable bounds (NaN) never prune.
fn kernel_skips(k: &Kernel, zone: &Zone) -> bool {
    let bounds = match (k, &zone.bounds) {
        // An all-NULL chunk: NULL never satisfies a comparison, BETWEEN or
        // IN (negated or not) — only IS NULL can keep rows here.
        (Kernel::IsNull { negated, .. }, None) => return *negated,
        (Kernel::IsNull { negated, .. }, Some(_)) => {
            return !*negated && !zone.has_nulls;
        }
        (_, None) => return true,
        (_, Some(b)) => b,
    };
    let (min, max) = match *bounds {
        ZoneBounds::Int { min, max } => (NumConst::Int(min), NumConst::Int(max)),
        ZoneBounds::Float { min, max } => (NumConst::Float(min), NumConst::Float(max)),
    };
    match k {
        Kernel::NumCmp { op, rhs, .. } => match op {
            CmpOp::Eq => {
                matches!(nc_cmp(*rhs, min), Some(Ordering::Less))
                    || matches!(nc_cmp(*rhs, max), Some(Ordering::Greater))
            }
            CmpOp::Lt => matches!(nc_cmp(min, *rhs), Some(Ordering::Equal | Ordering::Greater)),
            CmpOp::Le => matches!(nc_cmp(min, *rhs), Some(Ordering::Greater)),
            CmpOp::Gt => matches!(nc_cmp(max, *rhs), Some(Ordering::Equal | Ordering::Less)),
            CmpOp::Ge => matches!(nc_cmp(max, *rhs), Some(Ordering::Less)),
            CmpOp::Ne => {
                matches!(nc_cmp(min, max), Some(Ordering::Equal))
                    && matches!(nc_cmp(min, *rhs), Some(Ordering::Equal))
            }
        },
        Kernel::NumBetween {
            lo, hi, negated, ..
        } => {
            if *negated {
                // Skip only if every value provably lies inside [lo, hi].
                matches!(nc_cmp(min, *lo), Some(Ordering::Equal | Ordering::Greater))
                    && matches!(nc_cmp(max, *hi), Some(Ordering::Equal | Ordering::Less))
            } else {
                matches!(nc_cmp(max, *lo), Some(Ordering::Less))
                    || matches!(nc_cmp(min, *hi), Some(Ordering::Greater))
            }
        }
        Kernel::NumIn {
            ints,
            floats,
            negated,
            ..
        } => {
            if *negated {
                return false;
            }
            // Skip when every list item is provably outside [min, max].
            let outside = |c: NumConst| {
                matches!(nc_cmp(c, min), Some(Ordering::Less))
                    || matches!(nc_cmp(c, max), Some(Ordering::Greater))
            };
            ints.iter().all(|&i| outside(NumConst::Int(i)))
                && floats.iter().all(|&f| outside(NumConst::Float(f)))
        }
        _ => false,
    }
}

/// One table's pushed conjuncts, compiled.
pub(super) struct Compiled {
    kernels: Vec<Kernel>,
    any_prunable: bool,
    always_empty: bool,
}

pub(super) fn compile(conjuncts: &[Conjunct], table: &Table) -> Compiled {
    let mut kernels: Vec<Kernel> = conjuncts
        .iter()
        .map(|c| compile_one(&c.bound, table))
        .collect();
    // Typed kernels first (cheapest filters shrink the selection before the
    // generic fallback runs); stable within each class.
    kernels.sort_by_key(|k| matches!(k, Kernel::Generic { .. }) as u8);
    let always_empty = kernels.iter().any(|k| matches!(k, Kernel::DropAll));
    let any_prunable = kernels.iter().any(|k| k.prune_col().is_some());
    Compiled {
        kernels,
        any_prunable,
        always_empty,
    }
}

impl Compiled {
    /// Whether a kernel provably rejects every row of the zone `zone_of`
    /// picks from its column's zone maps in `zones`.
    fn skips(&self, zones: Option<&TableZones>, zone_of: impl Fn(&ColumnZones) -> &Zone) -> bool {
        let zones = zones.map_or(&[][..], |z| &z.columns[..]);
        self.kernels.iter().any(|k| {
            let column = k.prune_col().and_then(|col| zones.get(col)?.as_ref());
            column.is_some_and(|cz| kernel_skips(k, zone_of(cz)))
        })
    }

    /// Keep, in place and in order, the rows of `sel` every kernel passes.
    pub(super) fn filter(&self, table: &Table, sel: &mut Vec<usize>) -> DbResult<()> {
        for k in &self.kernels {
            if sel.is_empty() {
                break;
            }
            apply_kernel(k, table, sel)?;
        }
        Ok(())
    }
}

fn compile_one(conj: &Expr, table: &Table) -> Kernel {
    let slots = conj.slots();
    let generic = || Kernel::Generic {
        expr: conj.clone(),
        slots: slots.clone(),
    };
    let [col] = slots[..] else { return generic() };
    if col >= table.schema().len() {
        return generic();
    }

    let on_col = |e: &Expr| matches!(e, Expr::Slot(s) if *s == col);
    match (conj, table.column(col).data()) {
        // IS NULL needs only the validity bitmap, whatever the column type.
        (Expr::IsNull { expr, negated }, _) if on_col(expr) => Kernel::IsNull {
            col,
            negated: *negated,
        },
        // LIKE matches each dictionary entry's text as it is stored.
        (
            Expr::Like {
                expr,
                pattern,
                negated,
            },
            ColumnData::Str { dict, .. },
        ) if on_col(expr) => {
            let mask = dict.iter().map(|e| like_match(e, pattern) != *negated);
            Kernel::DictMask {
                col,
                mask: mask.collect(),
                null_passes: false,
            }
        }
        // Any other conjunct is evaluated once per dictionary entry (and for
        // NULL); per row it becomes a mask lookup on the code.
        (_, ColumnData::Str { dict, .. }) => {
            let entries = dict.iter().map(|e| Value::Str(e.clone()));
            let Some(mut mask) = pass_each(conj, col, entries) else {
                return generic();
            };
            let null_passes = mask.pop() == Some(true);
            Kernel::DictMask {
                col,
                mask,
                null_passes,
            }
        }
        (_, ColumnData::Bool(_)) => {
            match pass_each(conj, col, [true, false].map(Value::Bool).into_iter()).as_deref() {
                Some(&[pass_true, pass_false, pass_null]) => Kernel::BoolMask {
                    col,
                    pass_true,
                    pass_false,
                    pass_null,
                },
                _ => generic(),
            }
        }
        (_, ColumnData::Int(_) | ColumnData::Float(_)) => compile_numeric(conj, col, generic),
    }
}

/// Whether `conj`, whose one slot is `col`, keeps a row holding each of
/// `values` and then NULL (the last entry); `None` when an evaluation fails.
fn pass_each(conj: &Expr, col: usize, values: impl Iterator<Item = Value>) -> Option<Vec<bool>> {
    let mut row: Row = vec![Value::Null; col + 1];
    let mut pass = |v| {
        row[col] = v;
        conj.eval(&row).ok().map(|r| matches!(r, Value::Bool(true)))
    };
    values.chain([Value::Null]).map(&mut pass).collect()
}

fn compile_numeric(conj: &Expr, col: usize, generic: impl Fn() -> Kernel) -> Kernel {
    let is_slot = |e: &Expr| matches!(e, Expr::Slot(s) if *s == col);
    match conj {
        Expr::Cmp { op, lhs, rhs } => {
            let (op, lit) = if is_slot(lhs) {
                match &**rhs {
                    Expr::Literal(v) => (*op, v),
                    _ => return generic(),
                }
            } else if is_slot(rhs) {
                match &**lhs {
                    Expr::Literal(v) => (op.flip(), v),
                    _ => return generic(),
                }
            } else {
                return generic();
            };
            match NumConst::of(lit) {
                Some(rhs) => Kernel::NumCmp { col, op, rhs },
                // NULL or non-numeric literal: sql_cmp is None for every
                // row, the comparison is never TRUE.
                None => Kernel::DropAll,
            }
        }
        Expr::Between {
            expr,
            low,
            high,
            negated,
        } if is_slot(expr) => {
            let (Expr::Literal(l), Expr::Literal(h)) = (&**low, &**high) else {
                return generic();
            };
            match (NumConst::of(l), NumConst::of(h)) {
                (Some(lo), Some(hi)) => {
                    if [lo, hi]
                        .iter()
                        .any(|c| matches!(c, NumConst::Float(f) if f.is_nan()))
                    {
                        return Kernel::DropAll; // comparisons are never TRUE
                    }
                    Kernel::NumBetween {
                        col,
                        lo,
                        hi,
                        negated: *negated,
                    }
                }
                _ => Kernel::DropAll,
            }
        }
        Expr::In {
            expr,
            list,
            negated,
        } if is_slot(expr) => {
            let mut ints = Vec::new();
            let mut floats = Vec::new();
            let mut has_null = false;
            for item in list {
                match item {
                    Value::Int(i) => ints.push(*i),
                    Value::Float(f) => floats.push(*f),
                    Value::Null => has_null = true,
                    // Str/Bool items never equal a numeric value and are not
                    // NULL: they contribute nothing.
                    _ => {}
                }
            }
            Kernel::NumIn {
                col,
                ints,
                floats,
                negated: *negated,
                has_null,
            }
        }
        _ => generic(),
    }
}

/// Keep, in place and in order, the rows of `sel` that `pass` holds for.
/// Every row id is written and the end advances only past a passing one,
/// so the loop has no branch on the outcome.
fn select(sel: &mut Vec<usize>, pass: impl Fn(usize) -> bool) {
    let mut kept = 0;
    for i in 0..sel.len() {
        let r = sel[i];
        sel[kept] = r;
        kept += usize::from(pass(r));
    }
    sel.truncate(kept);
}

/// `d[r] <op> x` on the rows of `sel` valid in `ok`, the operator matched
/// once outside the row loop. IEEE comparisons keep NaN out under every
/// operator, `<>` included, as `partial_cmp` → `None` does.
fn select_cmp<T: PartialOrd + Copy>(sel: &mut Vec<usize>, ok: &[bool], d: &[T], op: CmpOp, x: T) {
    match op {
        CmpOp::Eq => select(sel, |r| ok[r] & (d[r] == x)),
        CmpOp::Ne => select(sel, |r| ok[r] & ((d[r] < x) | (d[r] > x))),
        CmpOp::Lt => select(sel, |r| ok[r] & (d[r] < x)),
        CmpOp::Le => select(sel, |r| ok[r] & (d[r] <= x)),
        CmpOp::Gt => select(sel, |r| ok[r] & (d[r] > x)),
        CmpOp::Ge => select(sel, |r| ok[r] & (d[r] >= x)),
    }
}

/// `d[r] [NOT] BETWEEN l AND h` on the valid rows of `sel`; a NaN value is
/// neither inside nor outside.
fn select_between<T: PartialOrd + Copy>(
    sel: &mut Vec<usize>,
    valid: &[bool],
    d: &[T],
    (l, h): (T, T),
    negated: bool,
) {
    if negated {
        select(sel, |r| valid[r] & ((d[r] < l) | (d[r] > h)));
    } else {
        select(sel, |r| valid[r] & (d[r] >= l) & (d[r] <= h));
    }
}

/// Filter the selection vector in place through one kernel.
fn apply_kernel(k: &Kernel, table: &Table, sel: &mut Vec<usize>) -> DbResult<()> {
    match k {
        Kernel::NumCmp { col, op, rhs } => {
            let c = table.column(*col);
            let valid = c.validity();
            // An int against a float, exactly.
            let holds = |v| nc_cmp(v, *rhs).is_some_and(|o| op.holds(o));
            match (c.data(), *rhs) {
                (ColumnData::Int(d), NumConst::Int(x)) => select_cmp(sel, valid, d, *op, x),
                (ColumnData::Float(d), NumConst::Float(x)) => select_cmp(sel, valid, d, *op, x),
                (ColumnData::Int(d), _) => select(sel, |r| valid[r] && holds(NumConst::Int(d[r]))),
                (ColumnData::Float(d), _) => {
                    select(sel, |r| valid[r] && holds(NumConst::Float(d[r])))
                }
                _ => unreachable!("NumCmp compiled for a non-numeric column"),
            }
        }
        Kernel::NumBetween {
            col,
            lo,
            hi,
            negated,
        } => {
            let c = table.column(*col);
            let valid = c.validity();
            let within = |v| between(v, *lo, *hi, *negated);
            match (c.data(), *lo, *hi) {
                (ColumnData::Int(d), NumConst::Int(l), NumConst::Int(h)) => {
                    select_between(sel, valid, d, (l, h), *negated);
                }
                (ColumnData::Float(d), NumConst::Float(l), NumConst::Float(h)) => {
                    select_between(sel, valid, d, (l, h), *negated);
                }
                // An int against a float bound, exactly.
                (ColumnData::Int(d), _, _) => {
                    select(sel, |r| valid[r] && within(NumConst::Int(d[r])))
                }
                (ColumnData::Float(d), _, _) => {
                    select(sel, |r| valid[r] && within(NumConst::Float(d[r])))
                }
                _ => unreachable!("NumBetween compiled for a non-numeric column"),
            }
        }
        Kernel::NumIn {
            col,
            ints,
            floats,
            negated,
            has_null,
        } => {
            let c = table.column(*col);
            let valid = c.validity();
            let eq = |i: i64, f: f64| cmp_int_float(i, f).is_eq();
            // A miss is unknown, not a negated match, when the list holds NULL.
            let (on_hit, on_miss) = (!*negated, *negated && !*has_null);
            let keep = |found: bool| if found { on_hit } else { on_miss };
            match c.data() {
                ColumnData::Int(d) => select(sel, |r| {
                    let v = d[r];
                    valid[r] && keep(ints.contains(&v) || floats.iter().any(|&f| eq(v, f)))
                }),
                ColumnData::Float(d) => select(sel, |r| {
                    let v = d[r];
                    valid[r] && keep(floats.contains(&v) || ints.iter().any(|&i| eq(i, v)))
                }),
                _ => unreachable!("NumIn compiled for a non-numeric column"),
            }
        }
        Kernel::IsNull { col, negated } => {
            let valid = table.column(*col).validity();
            select(sel, |r| valid[r] == *negated);
        }
        Kernel::DictMask {
            col,
            mask,
            null_passes,
        } => {
            let c = table.column(*col);
            let valid = c.validity();
            let ColumnData::Str { codes, .. } = c.data() else {
                unreachable!("DictMask compiled for a non-string column")
            };
            select(sel, |r| {
                if valid[r] {
                    mask[codes[r] as usize]
                } else {
                    *null_passes
                }
            });
        }
        Kernel::BoolMask {
            col,
            pass_true,
            pass_false,
            pass_null,
        } => {
            let c = table.column(*col);
            let valid = c.validity();
            let ColumnData::Bool(d) = c.data() else {
                unreachable!("BoolMask compiled for a non-bool column")
            };
            select(sel, |r| {
                if !valid[r] {
                    *pass_null
                } else if d[r] {
                    *pass_true
                } else {
                    *pass_false
                }
            });
        }
        Kernel::DropAll => sel.clear(),
        Kernel::Generic { expr, slots } => {
            let ncols = table.schema().len();
            let mut row: Row = vec![Value::Null; ncols];
            let mut out = Vec::with_capacity(sel.len());
            for &r in sel.iter() {
                for &s in slots {
                    row[s] = table.value(r, s);
                }
                if expr.matches(&row)? {
                    out.push(r);
                }
            }
            *sel = out;
        }
    }
    Ok(())
}

/// Run `f` over `0..n` split into at most `shards` contiguous ranges on
/// crossbeam scoped threads, concatenating results in range order — output
/// is byte-identical to the sequential `f(0, n)`.
///
/// Every range gets a thread and the caller waits. Running the first range
/// on the caller saves a spawn, but a serving worker that never blocks never
/// leaves its core, and on a two-core host closed-loop throughput then took
/// one of two values (7 200 or 9 400 q/s on `explore_hit`) by where the
/// scheduler had put it: not worth a spawn.
pub(super) fn run_sharded<T, F>(n: usize, shards: usize, f: F) -> DbResult<Vec<T>>
where
    T: Send,
    F: Fn(usize, usize) -> DbResult<Vec<T>> + Sync,
{
    if shards <= 1 || n < 2 {
        return f(0, n);
    }
    let per = n.div_ceil(shards.min(n));
    let ranges: Vec<(usize, usize)> = (0..n).step_by(per).map(|a| (a, (a + per).min(n))).collect();
    let f = &f;
    // asqp::in-order-merge: parts concatenated in range order below
    let parts: Vec<DbResult<Vec<T>>> = crossbeam::thread::scope(|s| {
        let handles: Vec<_> = ranges
            .iter()
            .map(|&(a, b)| s.spawn(move |_| f(a, b)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("executor worker panicked"))
            .collect()
    })
    .map_err(|_| DbError::ShapeMismatch("parallel executor worker panicked".into()))?;
    let mut out = Vec::new();
    for p in parts {
        let p = p?;
        if out.is_empty() {
            out = p; // the first part is kept, not copied
        } else {
            out.extend(p);
        }
    }
    Ok(out)
}

/// Vectorized filtered scan of the rows from `from_row` on: compile,
/// zone-prune, then run morsels (optionally sharded). Returns passing row
/// ids in ascending order.
///
/// `limit` (from the optimizer's limit pushdown) stops after that many
/// passing rows. Each shard caps its own output and the in-order
/// concatenation is truncated, so the result is byte-identical to a
/// sequential early-stopping scan.
pub(super) fn filtered_scan_vectorized(
    table: &Table,
    conjuncts: &[Conjunct],
    shards: usize,
    limit: Option<usize>,
    from_row: usize,
) -> DbResult<Vec<usize>> {
    let n = table.row_count();
    let cap = limit.unwrap_or(usize::MAX);
    if conjuncts.is_empty() {
        return Ok((from_row.min(n)..n).take(cap).collect());
    }
    let compiled = compile(conjuncts, table);
    if compiled.always_empty || from_row >= n {
        return Ok(Vec::new());
    }
    let zones = compiled.any_prunable.then(|| table.zone_maps());

    // Whole-table pruning from the fold of all chunk bounds.
    if compiled.skips(zones.as_deref(), |cz| &cz.whole) {
        telemetry::counter("db.zonemap.tables_pruned", 1);
        return Ok(Vec::new());
    }

    // Pruned-vs-scanned accounting: each shard tallies locally and folds
    // into the shared atomics once, so the instrumented hot loop is
    // untouched. Skipped entirely when telemetry is off.
    let track = telemetry::enabled();
    let pruned_total = AtomicU64::new(0);
    let scanned_total = AtomicU64::new(0);

    let first = from_row / MORSEL_ROWS;
    let nchunks = n.div_ceil(MORSEL_ROWS) - first;
    let shards = if n - from_row >= 2 * MORSEL_ROWS {
        shards
    } else {
        1
    };
    let out = run_sharded(nchunks, shards, |c0, c1| {
        let mut out = Vec::new();
        let mut sel: Vec<usize> = Vec::with_capacity(MORSEL_ROWS);
        let (mut pruned, mut scanned) = (0u64, 0u64);
        for ch in first + c0..first + c1 {
            let start = (ch * MORSEL_ROWS).max(from_row);
            let end = ((ch + 1) * MORSEL_ROWS).min(n);
            if compiled.skips(zones.as_deref(), |cz| &cz.chunks[ch]) {
                pruned += 1;
                continue;
            }
            scanned += 1;
            sel.clear();
            sel.extend(start..end);
            compiled.filter(table, &mut sel)?;
            out.extend_from_slice(&sel);
            if out.len() >= cap {
                // This shard alone can satisfy the pushed-down limit; later
                // chunks cannot contribute to the first `cap` results.
                break;
            }
        }
        if track {
            pruned_total.fetch_add(pruned, AtomicOrdering::Relaxed);
            scanned_total.fetch_add(scanned, AtomicOrdering::Relaxed);
        }
        Ok(out)
    })?;
    let mut out = out;
    out.truncate(cap);
    if track {
        telemetry::counter(
            "db.zonemap.morsels_pruned",
            pruned_total.load(AtomicOrdering::Relaxed),
        );
        telemetry::counter(
            "db.exec.morsels_scanned",
            scanned_total.load(AtomicOrdering::Relaxed),
        );
    }
    Ok(out)
}

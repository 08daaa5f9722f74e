//! The rows of a query result, held column by column.
//!
//! A projected column is gathered from its table by row id in one typed
//! loop: integers, floats and booleans are copied, text stays dictionary
//! codes read through the table's own dictionary. Building, hashing and
//! dropping a result therefore touch no reference count per cell. Cells
//! the engine computes (aggregates, hand-built or loaded rows) are kept as
//! [`Value`]s.

use crate::column::{Column, ColumnData};
use crate::table::Table;
use crate::value::{hash_str, Row, Value};
use std::fmt;
use std::hash::{Hash, Hasher};
use std::ops::Range;
use std::sync::Arc;

/// `len` rows of `width` columns. It reads like the `Vec<Vec<Value>>` of
/// the same rows — [`Rows::get`], [`Rows::row`], `for row in &rows`, and
/// `{:?}` prints a list of rows. A gathered result is a snapshot: it holds
/// its tables' columns as a clone of the table does, so a later append or
/// update copies them and the result keeps reading what it gathered.
///
/// Two results are equal when they hold the same rows; an empty result has
/// no row to show its width, so its width is not compared. A zero-column
/// result has no cells and still counts its rows.
#[derive(Clone, Default)]
pub struct Rows {
    len: usize,
    cols: Vec<Col>,
}

/// One column of a result. Gathered columns copy their table's payload
/// and validity (`false` = NULL) at the gathered row ids.
#[derive(Clone)]
enum Col {
    /// Cells the engine computed.
    Values(Vec<Value>),
    Int(Vec<bool>, Vec<i64>),
    Float(Vec<bool>, Vec<f64>),
    Bool(Vec<bool>, Vec<bool>),
    /// Codes into the dictionary of column `col` of `source`, the table's
    /// columns as they stood when gathered.
    Str {
        valid: Vec<bool>,
        codes: Vec<u32>,
        source: Arc<Vec<Column>>,
        col: usize,
    },
}

/// `d` at each of `ids`.
fn pick<T: Copy>(d: &[T], ids: impl Iterator<Item = usize>) -> Vec<T> {
    ids.map(|r| d[r]).collect()
}

impl Col {
    /// Column `col` of `table` at each of `ids`.
    fn gather(table: &Table, col: usize, ids: impl Iterator<Item = usize> + Clone) -> Col {
        let column = table.column(col);
        let valid = pick(column.validity(), ids.clone());
        match column.data() {
            ColumnData::Int(d) => Col::Int(valid, pick(d, ids)),
            ColumnData::Float(d) => Col::Float(valid, pick(d, ids)),
            ColumnData::Bool(d) => Col::Bool(valid, pick(d, ids)),
            ColumnData::Str { codes, .. } => Col::Str {
                valid,
                codes: pick(codes, ids),
                source: Arc::clone(table.shared_columns()),
                col,
            },
        }
    }

    /// The dictionary a text column's codes index (empty for any other).
    fn dict(&self) -> &[Arc<str>] {
        match self {
            Col::Str { source, col, .. } => match source[*col].data() {
                ColumnData::Str { dict, .. } => dict,
                _ => &[],
            },
            _ => &[],
        }
    }

    fn get(&self, i: usize) -> Value {
        match self {
            Col::Values(v) => v[i].clone(),
            Col::Int(valid, _)
            | Col::Float(valid, _)
            | Col::Bool(valid, _)
            | Col::Str { valid, .. }
                if !valid[i] =>
            {
                Value::Null
            }
            Col::Int(_, d) => Value::Int(d[i]),
            Col::Float(_, d) => Value::Float(d[i]),
            Col::Bool(_, d) => Value::Bool(d[i]),
            Col::Str { codes, .. } => Value::Str(Arc::clone(&self.dict()[codes[i] as usize])),
        }
    }

    /// Cell `i` hashed as its [`Value`]: text is read in the dictionary,
    /// and no reference count moves.
    fn hash_cell<H: Hasher>(&self, i: usize, state: &mut H) {
        match self {
            Col::Values(v) => v[i].hash(state),
            Col::Str { valid, codes, .. } if valid[i] => {
                hash_str(&self.dict()[codes[i] as usize], state)
            }
            _ => self.get(i).hash(state),
        }
    }
}

impl Rows {
    /// No rows of `width` columns, with room for `rows` of them.
    pub fn with_capacity(width: usize, rows: usize) -> Rows {
        Rows {
            len: 0,
            cols: (0..width)
                .map(|_| Col::Values(Vec::with_capacity(rows)))
                .collect(),
        }
    }

    /// `len` rows whose column `j` is, for the `j`-th `(table, column,
    /// ids)`, that table column at each of `ids` (`len` of them).
    pub(crate) fn gather<'a, I: Iterator<Item = usize> + Clone>(
        len: usize,
        columns: impl IntoIterator<Item = (&'a Table, usize, I)>,
    ) -> Rows {
        let cols = columns
            .into_iter()
            .map(|(table, col, ids)| Col::gather(table, col, ids))
            .collect();
        Rows { len, cols }
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Values per row.
    pub fn width(&self) -> usize {
        self.cols.len()
    }

    /// Append one row of computed cells.
    ///
    /// # Panics
    /// When `row` does not yield exactly `width` values, or the result was
    /// gathered: every producer derives both from one column list, so that
    /// is a bug in it.
    pub fn push(&mut self, row: impl IntoIterator<Item = Value>) {
        let mut cells = row.into_iter();
        for col in &mut self.cols {
            match (col, cells.next()) {
                (Col::Values(v), Some(cell)) => v.push(cell),
                _ => panic!("row arity"),
            }
        }
        assert!(cells.next().is_none(), "row arity");
        self.len += 1;
    }

    /// Column `j` of row `i`; panics when either is out of range.
    pub fn get(&self, i: usize, j: usize) -> Value {
        assert!(i < self.len, "row {i} of {}", self.len);
        self.cols[j].get(i)
    }

    /// Row `i`; panics when `i >= len`, like a slice.
    pub fn row(&self, i: usize) -> Row {
        assert!(i < self.len, "row {i} of {}", self.len);
        self.cols.iter().map(|c| c.get(i)).collect()
    }

    pub fn iter(&self) -> RowIter<'_> {
        RowIter(self, 0..self.len)
    }

    /// One `Vec` per row, for callers that sort, slice or key by whole rows.
    pub fn to_vecs(&self) -> Vec<Row> {
        self.iter().collect()
    }
}

/// Rows of a [`Rows`], first to last, each as its own [`Row`].
pub struct RowIter<'a>(&'a Rows, Range<usize>);

impl Iterator for RowIter<'_> {
    type Item = Row;

    fn next(&mut self) -> Option<Row> {
        self.1.next().map(|i| self.0.row(i))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.1.size_hint()
    }
}

impl<'a> IntoIterator for &'a Rows {
    type Item = Row;
    type IntoIter = RowIter<'a>;

    fn into_iter(self) -> RowIter<'a> {
        self.iter()
    }
}

/// Collects rows of one width, which the first row sets.
impl<R: IntoIterator<Item = Value>> FromIterator<R> for Rows {
    fn from_iter<I: IntoIterator<Item = R>>(rows: I) -> Rows {
        let mut rows = rows.into_iter().map(|row| row.into_iter().collect::<Row>());
        let mut out = Rows::default();
        if let Some(first) = rows.next() {
            out = Rows::with_capacity(first.len(), rows.size_hint().0 + 1);
            out.push(first);
        }
        rows.for_each(|row| out.push(row));
        out
    }
}

impl PartialEq for Rows {
    fn eq(&self, other: &Rows) -> bool {
        let one_width = self.len == 0 || self.width() == other.width();
        self.len == other.len && one_width && self.iter().eq(other.iter())
    }
}

impl Eq for Rows {}

impl Hash for Rows {
    /// The row count, then the cells row by row as one `Vec<Value>` hashes
    /// them: their count first, then each [`Value`].
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.len.hash(state);
        (self.len * self.width()).hash(state);
        for i in 0..self.len {
            self.cols.iter().for_each(|col| col.hash_cell(i, state));
        }
    }
}

impl fmt::Debug for Rows {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Schema;
    use crate::value::ValueType;
    use proptest::prelude::*;
    use std::hash::{BuildHasher, RandomState};

    proptest! {
        /// `Rows` is the `Vec<Vec<Value>>` of the same rows to every reader,
        /// whether its cells were pushed or gathered from a table.
        #[test]
        fn reads_like_a_vec_of_rows(
            cells in prop::collection::vec((0u8..5, -2i64..3), 0..24),
            width in 0usize..4,
            picked in prop::collection::vec(0usize..24, 0..12),
        ) {
            let value = |&(kind, x): &(u8, i64)| match kind {
                0 => Value::Null,
                1 => Value::Int(x),
                2 => Value::Float(x as f64 / 2.0),
                3 => Value::Bool(x > 0),
                _ => Value::from(format!("s{x}")),
            };
            let vecs: Vec<Row> = match width {
                0 => vec![Row::new(); cells.len()],
                w => cells.chunks_exact(w).map(|c| c.iter().map(value).collect()).collect(),
            };
            let mut rows = Rows::with_capacity(width, 0);
            vecs.iter().for_each(|v| rows.push(v.iter().cloned()));

            prop_assert_eq!(format!("{rows:?} {rows:#?}"), format!("{vecs:?} {vecs:#?}"));
            prop_assert_eq!((rows.len(), rows.is_empty()), (vecs.len(), vecs.is_empty()));
            prop_assert_eq!(rows.to_vecs(), vecs.clone());
            prop_assert!((&rows).into_iter().eq(vecs.iter().cloned()));
            for (i, v) in vecs.iter().enumerate() {
                prop_assert_eq!(&rows.row(i), v);
                for (j, cell) in v.iter().enumerate() {
                    prop_assert_eq!(&rows.get(i, j), cell);
                }
            }
            // The stream a `Vec<Value>` row buffer hashed behind its count.
            let hasher = RandomState::new();
            let flat: Vec<Value> = vecs.concat();
            prop_assert_eq!(hasher.hash_one(&rows), hasher.hash_one((vecs.len(), &flat)));
            // Collected without a width, equal (and hashed alike) all the
            // same; one row fewer, equal exactly when the vectors are.
            let collected: Rows = vecs.iter().cloned().collect();
            prop_assert_eq!(&collected, &rows);
            prop_assert_eq!(hasher.hash_one(&collected), hasher.hash_one(&rows));
            let kept = vecs.len().saturating_sub(1);
            let shorter: Rows = vecs[..kept].iter().cloned().collect();
            prop_assert_eq!(shorter == rows, vecs[..kept] == vecs[..]);

            // The cells in a table, each in its type's column and NULL in the
            // others, gathered at `picked`: the `Value` rows read there.
            let types = [ValueType::Int, ValueType::Float, ValueType::Str, ValueType::Bool];
            let mut table = Table::new("t", Schema::build(&types.map(|t| ("c", t))));
            for v in cells.iter().map(value) {
                let cell = |t| if v.value_type() == Some(t) { v.clone() } else { Value::Null };
                table.push_row(&types.map(cell)).unwrap();
            }
            let ids: Vec<usize> = picked.into_iter().filter(|&r| r < cells.len()).collect();
            let cols = [3, 2, 0, 2, 1];
            let gathered = Rows::gather(ids.len(), cols.map(|c| (&table, c, ids.iter().copied())));
            let pushed: Rows = ids.iter().map(|&r| cols.map(|c| table.value(r, c))).collect();
            prop_assert_eq!(&gathered, &pushed);
            prop_assert_eq!(hasher.hash_one(&gathered), hasher.hash_one(&pushed));
            prop_assert_eq!(format!("{gathered:?}"), format!("{pushed:?}"));
        }
    }
}

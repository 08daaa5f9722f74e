//! The rows of a query result, held as one buffer.

use crate::value::{Row, Value};
use std::fmt;
use std::hash::{Hash, Hasher};
use std::ops::{Index, Range};

/// `len` rows of `width` values each in one row-major `Vec<Value>`: building
/// a result is one allocation and dropping it one free, whatever its size.
/// It reads like the `Vec<Vec<Value>>` it replaces — `rows[i][j]`,
/// `for row in &rows`, and `{:?}` prints a list of rows.
///
/// Two results are equal when they hold the same rows; an empty result has
/// no row to show its width, so its width is not compared. A zero-column
/// result has no cells and still counts its rows.
#[derive(Clone, Default)]
pub struct Rows {
    width: usize,
    len: usize,
    cells: Vec<Value>,
}

impl Rows {
    /// No rows of `width` columns, with room for `rows` of them.
    pub fn with_capacity(width: usize, rows: usize) -> Rows {
        Rows {
            width,
            len: 0,
            cells: Vec::with_capacity(width.saturating_mul(rows)),
        }
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
        self.width
    }

    /// Append one row, written cell by cell into the buffer.
    ///
    /// # Panics
    /// When `row` does not yield exactly `width` values: every producer
    /// derives both from one column list, so that is a bug in it.
    pub fn push(&mut self, row: impl IntoIterator<Item = Value>) {
        self.cells.extend(row);
        self.len += 1;
        assert_eq!(self.cells.len(), self.len * self.width, "row arity");
    }

    /// Drop the last row, if any.
    pub fn pop(&mut self) {
        self.len = self.len.saturating_sub(1);
        self.cells.truncate(self.len * self.width);
    }

    pub fn iter(&self) -> RowIter<'_> {
        RowIter(self, 0..self.len)
    }

    /// The rows, mutable in place (a zero-column result has nothing to
    /// mutate and yields nothing).
    pub fn iter_mut(&mut self) -> impl Iterator<Item = &mut [Value]> {
        self.cells.chunks_exact_mut(self.width.max(1))
    }

    /// One `Vec` per row, for callers that sort, slice or key by whole rows.
    pub fn to_vecs(&self) -> Vec<Row> {
        self.iter().map(<[Value]>::to_vec).collect()
    }
}

impl Index<usize> for Rows {
    type Output = [Value];

    /// Row `i`; panics when `i >= len`, like a slice.
    fn index(&self, i: usize) -> &[Value] {
        assert!(i < self.len, "row {i} of {}", self.len);
        &self.cells[i * self.width..(i + 1) * self.width]
    }
}

/// Rows of a [`Rows`], first to last.
pub struct RowIter<'a>(&'a Rows, Range<usize>);

impl<'a> Iterator for RowIter<'a> {
    type Item = &'a [Value];

    fn next(&mut self) -> Option<&'a [Value]> {
        self.1.next().map(|i| &self.0[i])
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.1.size_hint()
    }
}

impl<'a> IntoIterator for &'a Rows {
    type Item = &'a [Value];
    type IntoIter = RowIter<'a>;

    fn into_iter(self) -> RowIter<'a> {
        self.iter()
    }
}

/// Collects rows of one width, which the first row sets.
impl<R: IntoIterator<Item = Value>> FromIterator<R> for Rows {
    fn from_iter<I: IntoIterator<Item = R>>(rows: I) -> Rows {
        let mut out = Rows::default();
        for row in rows {
            if out.len == 0 {
                out.cells.extend(row);
                (out.width, out.len) = (out.cells.len(), 1);
            } else {
                out.push(row);
            }
        }
        out
    }
}

impl PartialEq for Rows {
    fn eq(&self, other: &Rows) -> bool {
        // Equal counts and equal cells leave non-empty results one width.
        self.len == other.len && self.cells == other.cells
    }
}

impl Eq for Rows {}

impl Hash for Rows {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.len.hash(state);
        self.cells.hash(state);
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
    use proptest::prelude::*;
    use std::hash::{BuildHasher, RandomState};

    proptest! {
        /// `Rows` is the `Vec<Vec<Value>>` of the same rows to every reader.
        #[test]
        fn reads_like_a_vec_of_rows(
            cells in prop::collection::vec((0u8..4, -2i64..3), 0..24),
            width in 0usize..4,
            dropped in 0usize..2,
        ) {
            let value = |&(kind, x): &(u8, i64)| match kind {
                0 => Value::Null,
                1 => Value::Int(x),
                2 => Value::Float(x as f64 / 2.0),
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
            prop_assert!((&rows).into_iter().eq(vecs.iter().map(Vec::as_slice)));
            for (i, v) in vecs.iter().enumerate() {
                prop_assert_eq!(&rows[i], &v[..]);
            }
            // Collected without a width, equal (and hashed alike) all the
            // same; one row fewer, equal exactly when the vectors are.
            let hasher = RandomState::new();
            let collected: Rows = vecs.iter().cloned().collect();
            prop_assert_eq!(&collected, &rows);
            prop_assert_eq!(hasher.hash_one(&collected), hasher.hash_one(&rows));
            let mut shorter = rows.clone();
            (0..dropped).for_each(|_| shorter.pop());
            let kept = vecs.len().saturating_sub(dropped);
            prop_assert_eq!((shorter.len(), shorter == rows), (kept, vecs[..kept] == vecs[..]));
        }
    }
}

//! Columnar storage. Each column stores its values in a typed vector with a
//! validity bitmap; strings are dictionary-encoded, which both shrinks the
//! IMDB-style text-heavy tables and makes equality predicates cheap.

use crate::error::{DbError, DbResult};
use crate::value::{Value, ValueType};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::sync::Arc;

/// Typed column payload.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum ColumnData {
    Int(Vec<i64>),
    Float(Vec<f64>),
    /// Dictionary-encoded strings: `codes[i]` indexes into `dict`. An entry
    /// is shared with every [`Value::Str`] read from it, the reverse index,
    /// and the columns (subsets, clones, appends) its values were pushed into.
    Str {
        codes: Vec<u32>,
        dict: Vec<Arc<str>>,
    },
    Bool(Vec<bool>),
}

/// One stored column: payload + validity bitmap (`true` = non-null).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Column {
    data: ColumnData,
    validity: Vec<bool>,
    /// Reverse dictionary, for pushes and overwrites. It lives as long as
    /// the column and is copied with it; not serialised.
    #[serde(skip)]
    dict_index: HashMap<Arc<str>, u32>,
}

impl Column {
    pub fn new(ty: ValueType) -> Self {
        let data = match ty {
            ValueType::Int => ColumnData::Int(Vec::new()),
            ValueType::Float => ColumnData::Float(Vec::new()),
            ValueType::Str => ColumnData::Str {
                codes: Vec::new(),
                dict: Vec::new(),
            },
            ValueType::Bool => ColumnData::Bool(Vec::new()),
        };
        Column {
            data,
            validity: Vec::new(),
            dict_index: HashMap::new(),
        }
    }

    pub fn with_capacity(ty: ValueType, cap: usize) -> Self {
        let mut c = Column::new(ty);
        match &mut c.data {
            ColumnData::Int(v) => v.reserve(cap),
            ColumnData::Float(v) => v.reserve(cap),
            ColumnData::Str { codes, .. } => codes.reserve(cap),
            ColumnData::Bool(v) => v.reserve(cap),
        }
        c.validity.reserve(cap);
        c
    }

    pub fn ty(&self) -> ValueType {
        match &self.data {
            ColumnData::Int(_) => ValueType::Int,
            ColumnData::Float(_) => ValueType::Float,
            ColumnData::Str { .. } => ValueType::Str,
            ColumnData::Bool(_) => ValueType::Bool,
        }
    }

    pub fn len(&self) -> usize {
        self.validity.len()
    }

    pub fn is_empty(&self) -> bool {
        self.validity.is_empty()
    }

    pub fn is_null(&self, idx: usize) -> bool {
        !self.validity[idx]
    }

    /// Append one value; `Null` is admitted regardless of type (nullability
    /// is the schema's concern, enforced by [`crate::table::Table::push_row`]).
    pub fn push(&mut self, v: &Value) -> DbResult<()> {
        if v.is_null() {
            self.validity.push(false);
            match &mut self.data {
                ColumnData::Int(d) => d.push(0),
                ColumnData::Float(d) => d.push(0.0),
                ColumnData::Str { codes, .. } => codes.push(0),
                ColumnData::Bool(d) => d.push(false),
            }
            return Ok(());
        }
        match (&mut self.data, v) {
            (ColumnData::Int(d), Value::Int(i)) => d.push(*i),
            (ColumnData::Float(d), Value::Float(f)) => d.push(*f),
            (ColumnData::Float(d), Value::Int(i)) => d.push(*i as f64),
            (ColumnData::Bool(d), Value::Bool(b)) => d.push(*b),
            (ColumnData::Str { codes, dict }, Value::Str(s)) => {
                let code = dict_code(dict, &mut self.dict_index, s);
                codes.push(code);
            }
            (_, v) => {
                return Err(DbError::TypeMismatch {
                    expected: self.ty().to_string(),
                    found: v
                        .value_type()
                        .map(|t| t.to_string())
                        .unwrap_or_else(|| "NULL".into()),
                })
            }
        }
        self.validity.push(true);
        Ok(())
    }

    /// Overwrite the value at `idx` in place, with the same typing rules as
    /// [`Column::push`]. Used by the incremental-update path; stale
    /// dictionary entries left behind by overwritten strings are harmless
    /// (codes simply stop referencing them).
    pub fn set(&mut self, idx: usize, v: &Value) -> DbResult<()> {
        if idx >= self.validity.len() {
            return Err(DbError::ShapeMismatch(format!(
                "row id {idx} out of range for column of {} rows",
                self.validity.len()
            )));
        }
        if v.is_null() {
            self.validity[idx] = false;
            return Ok(());
        }
        match (&mut self.data, v) {
            (ColumnData::Int(d), Value::Int(i)) => d[idx] = *i,
            (ColumnData::Float(d), Value::Float(f)) => d[idx] = *f,
            (ColumnData::Float(d), Value::Int(i)) => d[idx] = *i as f64,
            (ColumnData::Bool(d), Value::Bool(b)) => d[idx] = *b,
            (ColumnData::Str { codes, dict }, Value::Str(s)) => {
                codes[idx] = dict_code(dict, &mut self.dict_index, s);
            }
            (_, v) => {
                return Err(DbError::TypeMismatch {
                    expected: self.ty().to_string(),
                    found: v
                        .value_type()
                        .map(|t| t.to_string())
                        .unwrap_or_else(|| "NULL".into()),
                })
            }
        }
        self.validity[idx] = true;
        Ok(())
    }

    /// The value at `idx`; text shares the dictionary's allocation.
    pub fn get(&self, idx: usize) -> Value {
        if !self.validity[idx] {
            return Value::Null;
        }
        match &self.data {
            ColumnData::Int(d) => Value::Int(d[idx]),
            ColumnData::Float(d) => Value::Float(d[idx]),
            ColumnData::Str { codes, dict } => Value::Str(dict[codes[idx] as usize].clone()),
            ColumnData::Bool(d) => Value::Bool(d[idx]),
        }
    }

    /// Non-allocating string access (None for null or non-string columns).
    pub fn get_str(&self, idx: usize) -> Option<&str> {
        if !self.validity[idx] {
            return None;
        }
        match &self.data {
            ColumnData::Str { codes, dict } => Some(&dict[codes[idx] as usize]),
            _ => None,
        }
    }

    /// Non-allocating numeric access (None for null or non-numeric).
    pub fn get_f64(&self, idx: usize) -> Option<f64> {
        if !self.validity[idx] {
            return None;
        }
        match &self.data {
            ColumnData::Int(d) => Some(d[idx] as f64),
            ColumnData::Float(d) => Some(d[idx]),
            _ => None,
        }
    }

    /// Dictionary code for string columns — cheap equality key.
    pub fn str_code(&self, idx: usize) -> Option<u32> {
        if !self.validity[idx] {
            return None;
        }
        match &self.data {
            ColumnData::Str { codes, .. } => Some(codes[idx]),
            _ => None,
        }
    }

    /// Number of distinct dictionary entries (string columns only).
    pub fn dict_len(&self) -> Option<usize> {
        match &self.data {
            ColumnData::Str { dict, .. } => Some(dict.len()),
            _ => None,
        }
    }

    /// Rows `rids` of this column, in that order, stored as pushing their
    /// values would store them: NULL as the zero value, text re-coded in
    /// first-seen order, sharing this dictionary's entries.
    pub(crate) fn gather(&self, rids: &[usize]) -> Column {
        let valid = &self.validity;
        let data = match &self.data {
            ColumnData::Int(d) => ColumnData::Int(gather_valid(d, rids, valid)),
            ColumnData::Float(d) => ColumnData::Float(gather_valid(d, rids, valid)),
            ColumnData::Bool(d) => ColumnData::Bool(gather_valid(d, rids, valid)),
            ColumnData::Str { codes, dict } => {
                let (mut recoded, mut entries) = (vec![u32::MAX; dict.len()], Vec::new());
                let mut recode = |code: u32| {
                    let new = &mut recoded[code as usize];
                    if *new == u32::MAX {
                        *new = entries.len() as u32;
                        entries.push(Arc::clone(&dict[code as usize]));
                    }
                    *new
                };
                let codes = rids
                    .iter()
                    .map(|&r| if valid[r] { recode(codes[r]) } else { 0 });
                ColumnData::Str {
                    codes: codes.collect(),
                    dict: entries,
                }
            }
        };
        Column {
            data,
            validity: rids.iter().map(|&r| valid[r]).collect(),
            dict_index: HashMap::new(), // rebuilt by the first push
        }
    }

    /// Raw access to the payload for vectorised operators.
    pub fn data(&self) -> &ColumnData {
        &self.data
    }

    pub fn validity(&self) -> &[bool] {
        &self.validity
    }
}

/// `d` at `rids`, the zero value where `valid` is false.
fn gather_valid<T: Copy + Default>(d: &[T], rids: &[usize], valid: &[bool]) -> Vec<T> {
    rids.iter()
        .map(|&r| if valid[r] { d[r] } else { T::default() })
        .collect()
}

/// Find-or-insert a dictionary code for `s`, lazily rebuilding the reverse
/// index when it is stale (it is not serialised, so a deserialised column
/// starts with a populated `dict` but an empty index). A new entry adopts
/// `s`'s allocation: dictionary, index and `s`'s source hold one copy.
fn dict_code(dict: &mut Vec<Arc<str>>, index: &mut HashMap<Arc<str>, u32>, s: &Arc<str>) -> u32 {
    if index.len() < dict.len() {
        *index = dict
            .iter()
            .enumerate()
            .map(|(i, e)| (Arc::clone(e), i as u32))
            .collect();
    }
    match index.get(&**s) {
        Some(&c) => c,
        None => {
            let c = dict.len() as u32;
            dict.push(Arc::clone(s));
            index.insert(Arc::clone(s), c);
            c
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_get_roundtrip_all_types() {
        let cases: Vec<(ValueType, Value)> = vec![
            (ValueType::Int, Value::Int(-7)),
            (ValueType::Float, Value::Float(2.5)),
            (ValueType::Str, Value::Str("abc".into())),
            (ValueType::Bool, Value::Bool(true)),
        ];
        for (ty, v) in cases {
            let mut c = Column::new(ty);
            c.push(&v).unwrap();
            c.push(&Value::Null).unwrap();
            assert_eq!(c.get(0), v);
            assert_eq!(c.get(1), Value::Null);
            assert!(c.is_null(1));
            assert_eq!(c.len(), 2);
        }
    }

    #[test]
    fn dictionary_reuses_codes() {
        let mut c = Column::new(ValueType::Str);
        for s in ["x", "y", "x", "x"] {
            c.push(&Value::Str(s.into())).unwrap();
        }
        assert_eq!(c.dict_len(), Some(2));
        assert_eq!(c.str_code(0), c.str_code(2));
        assert_ne!(c.str_code(0), c.str_code(1));
        assert_eq!(c.get_str(3), Some("x"));
    }

    #[test]
    fn int_widens_into_float_column() {
        let mut c = Column::new(ValueType::Float);
        c.push(&Value::Int(4)).unwrap();
        assert_eq!(c.get(0), Value::Float(4.0));
        assert_eq!(c.get_f64(0), Some(4.0));
    }

    #[test]
    fn type_mismatch_rejected() {
        let mut c = Column::new(ValueType::Int);
        assert!(c.push(&Value::Str("no".into())).is_err());
        assert_eq!(c.len(), 0, "failed push must not grow the column");
    }
}

//! SQL values with a *total* order and hash, so they can key hash joins,
//! group-by maps and sort operators without panics on NaN.

use serde::{Deserialize, Serialize};
use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

/// Logical column types supported by the engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ValueType {
    Int,
    Float,
    Str,
    Bool,
}

impl fmt::Display for ValueType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ValueType::Int => write!(f, "INT"),
            ValueType::Float => write!(f, "FLOAT"),
            ValueType::Str => write!(f, "TEXT"),
            ValueType::Bool => write!(f, "BOOL"),
        }
    }
}

/// A single SQL value. `Null` is a first-class member so rows are plain
/// `[Value]` with no `Option` wrapper.
///
/// Text is shared, not owned: a value read from a column holds the column
/// dictionary's own `Arc<str>`, so reading, cloning and storing a text cell
/// is a reference count and never a copy of its bytes. Equality, order and
/// hash are by *content* — the same text held by two tables (or by a table
/// and a subset of it) is two allocations and one value.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum Value {
    Null,
    Int(i64),
    Float(f64),
    Str(Arc<str>),
    Bool(bool),
}

// Sort keys, join keys and computed result cells are these: keep it narrow.
const _: () = assert!(std::mem::size_of::<Value>() == 24);

impl Value {
    /// Logical type of the value, `None` for `Null`.
    pub fn value_type(&self) -> Option<ValueType> {
        match self {
            Value::Null => None,
            Value::Int(_) => Some(ValueType::Int),
            Value::Float(_) => Some(ValueType::Float),
            Value::Str(_) => Some(ValueType::Str),
            Value::Bool(_) => Some(ValueType::Bool),
        }
    }

    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// Numeric view used by arithmetic and aggregates: ints widen to f64.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Int(i) => Some(*i as f64),
            Value::Float(f) => Some(*f),
            _ => None,
        }
    }

    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(*i),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// SQL three-valued comparison: `None` when either side is NULL or NaN
    /// or the types are incomparable; ints and floats compare exactly.
    pub fn sql_cmp(&self, other: &Value) -> Option<Ordering> {
        match (self, other) {
            (Value::Null, _) | (_, Value::Null) => None,
            (Value::Int(a), Value::Int(b)) => Some(a.cmp(b)),
            (Value::Float(a), Value::Float(b)) => a.partial_cmp(b),
            (Value::Int(a), Value::Float(b)) => (!b.is_nan()).then(|| cmp_int_float(*a, *b)),
            (Value::Float(a), Value::Int(b)) => {
                (!a.is_nan()).then(|| cmp_int_float(*b, *a).reverse())
            }
            (Value::Str(a), Value::Str(b)) => Some(a.cmp(b)),
            (Value::Bool(a), Value::Bool(b)) => Some(a.cmp(b)),
            _ => None,
        }
    }

    /// Rank used to make the total order deterministic across types.
    fn type_rank(&self) -> u8 {
        match self {
            Value::Null => 0,
            Value::Bool(_) => 1,
            Value::Int(_) => 2,
            Value::Float(_) => 2, // ints and floats share a rank: numeric
            Value::Str(_) => 3,
        }
    }
}

impl PartialEq for Value {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for Value {}

impl PartialOrd for Value {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Value {
    /// Total order: NULL < BOOL < numeric < TEXT; NaN sorts after all other
    /// numbers; `1` and `1.0` are equal (numeric rank). Numbers compare
    /// exactly: ints as `i64`, an int against a float without rounding the
    /// int, so distinct ints beyond ±2⁵³ stay distinct.
    fn cmp(&self, other: &Self) -> Ordering {
        let (ra, rb) = (self.type_rank(), other.type_rank());
        if ra != rb {
            return ra.cmp(&rb);
        }
        match (self, other) {
            (Value::Bool(a), Value::Bool(b)) => a.cmp(b),
            // Cells of one column share their dictionary's allocation.
            (Value::Str(a), Value::Str(b)) if Arc::ptr_eq(a, b) => Ordering::Equal,
            (Value::Str(a), Value::Str(b)) => a.cmp(b),
            (Value::Int(a), Value::Int(b)) => a.cmp(b),
            (Value::Float(a), Value::Float(b)) => cmp_floats(*a, *b),
            (Value::Int(a), Value::Float(b)) => cmp_int_float(*a, *b),
            (Value::Float(a), Value::Int(b)) => cmp_int_float(*b, *a).reverse(),
            // Equal ranks, different variants: only NULL against NULL.
            _ => Ordering::Equal,
        }
    }
}

/// Floats as [`Value`] orders them: `-0.0 == 0.0`, and NaN, which no float
/// orders against, greatest.
#[inline]
pub(crate) fn cmp_floats(a: f64, b: f64) -> Ordering {
    a.partial_cmp(&b)
        .unwrap_or_else(|| a.is_nan().cmp(&b.is_nan()))
}

/// `i` against `f` with NaN greatest, exactly: the int is never rounded.
pub(crate) fn cmp_int_float(i: i64, f: f64) -> Ordering {
    if f.is_nan() {
        return Ordering::Less;
    }
    // Every i64 lies inside i128, and `as` saturates, so the whole parts
    // compare exactly; a tie leaves the sign of the fraction to decide.
    let whole = f.trunc();
    let fraction = 0.0f64.partial_cmp(&(f - whole)).unwrap_or(Ordering::Equal);
    i128::from(i).cmp(&(whole as i128)).then(fraction)
}

impl Hash for Value {
    fn hash<H: Hasher>(&self, state: &mut H) {
        match self {
            Value::Null => 0u8.hash(state),
            Value::Bool(b) => {
                1u8.hash(state);
                b.hash(state);
            }
            // Ints and floats must hash alike when equal (1 == 1.0), so hash
            // the f64 bit pattern of the canonical numeric value.
            Value::Int(i) => {
                2u8.hash(state);
                canonical_f64_bits(*i as f64).hash(state);
            }
            Value::Float(f) => {
                2u8.hash(state);
                canonical_f64_bits(*f).hash(state);
            }
            Value::Str(s) => hash_str(s, state),
        }
    }
}

/// How a [`Value::Str`] holding `s` hashes, for readers that hold the text
/// without a `Value`.
pub(crate) fn hash_str<H: Hasher>(s: &str, state: &mut H) {
    3u8.hash(state);
    s.hash(state);
}

/// Bit pattern with -0.0 folded into +0.0 and all NaNs folded together, so
/// `Hash` agrees with `Ord`. Also used by the executor's numeric join-key
/// fast path, which must hash exactly like `Value`.
pub(crate) fn canonical_f64_bits(f: f64) -> u64 {
    if f.is_nan() {
        f64::NAN.to_bits()
    } else if f == 0.0 {
        0.0f64.to_bits()
    } else {
        f.to_bits()
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => write!(f, "NULL"),
            Value::Int(i) => write!(f, "{i}"),
            Value::Float(x) => write!(f, "{x}"),
            Value::Str(s) => write!(f, "'{}'", s.replace('\'', "''")),
            Value::Bool(b) => write!(f, "{}", if *b { "TRUE" } else { "FALSE" }),
        }
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}
impl From<i32> for Value {
    fn from(v: i32) -> Self {
        Value::Int(v as i64)
    }
}
impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::Float(v)
    }
}
impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Str(v.into())
    }
}
impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Str(v.into())
    }
}
impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}

/// A materialised result row.
pub type Row = Vec<Value>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::hash_map::DefaultHasher;

    fn hash_of(v: &Value) -> u64 {
        let mut h = DefaultHasher::new();
        v.hash(&mut h);
        h.finish()
    }

    #[test]
    fn int_float_numeric_equality() {
        assert_eq!(Value::Int(1), Value::Float(1.0));
        assert_eq!(hash_of(&Value::Int(1)), hash_of(&Value::Float(1.0)));
        assert_ne!(Value::Int(1), Value::Float(1.5));
    }

    #[test]
    fn null_compares_less_in_total_order_but_none_in_sql() {
        assert!(Value::Null < Value::Int(i64::MIN));
        assert_eq!(Value::Null.sql_cmp(&Value::Int(0)), None);
        assert_eq!(Value::Int(0).sql_cmp(&Value::Null), None);
    }

    #[test]
    fn nan_totally_ordered_greatest_numeric() {
        let nan = Value::Float(f64::NAN);
        assert!(nan > Value::Float(f64::INFINITY));
        assert_eq!(nan.cmp(&Value::Float(f64::NAN)), Ordering::Equal);
        assert!(nan < Value::Str("".into()));
    }

    #[test]
    fn negative_zero_equals_positive_zero() {
        assert_eq!(Value::Float(-0.0), Value::Float(0.0));
        assert_eq!(hash_of(&Value::Float(-0.0)), hash_of(&Value::Float(0.0)));
    }

    #[test]
    fn sql_cmp_mixed_numeric() {
        assert_eq!(
            Value::Int(2).sql_cmp(&Value::Float(1.5)),
            Some(Ordering::Greater)
        );
        assert_eq!(Value::Str("a".into()).sql_cmp(&Value::Int(1)), None);
    }

    #[test]
    fn display_escapes_quotes() {
        assert_eq!(Value::Str("it's".into()).to_string(), "'it''s'");
    }

    #[test]
    fn accessors() {
        assert_eq!(Value::Int(3).as_f64(), Some(3.0));
        assert_eq!(Value::Str("x".into()).as_f64(), None);
        assert_eq!(Value::Bool(true).as_bool(), Some(true));
        assert!(Value::Null.is_null());
        assert_eq!(Value::Null.value_type(), None);
        assert_eq!(Value::Float(1.0).value_type(), Some(ValueType::Float));
    }
}

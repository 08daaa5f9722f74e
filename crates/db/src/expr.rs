//! Scalar expressions with SQL three-valued logic.
//!
//! Expressions are parsed with *named* column references
//! ([`Expr::Column`]); before execution they are bound against a row layout,
//! replacing names with flat [`Expr::Slot`] indices so evaluation is a cheap
//! array lookup.

use crate::error::{DbError, DbResult};
use crate::value::Value;
use serde::{Deserialize, Serialize};
use std::cmp::Ordering;
use std::fmt;

/// A (possibly table-qualified) column reference as written in a query.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct ColRef {
    pub table: Option<String>,
    pub column: String,
}

impl ColRef {
    pub fn new(table: impl Into<String>, column: impl Into<String>) -> Self {
        ColRef {
            table: Some(table.into()),
            column: column.into(),
        }
    }

    pub fn bare(column: impl Into<String>) -> Self {
        ColRef {
            table: None,
            column: column.into(),
        }
    }
}

impl fmt::Display for ColRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.table {
            Some(t) => write!(f, "{t}.{}", self.column),
            None => write!(f, "{}", self.column),
        }
    }
}

/// Comparison operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum CmpOp {
    Eq,
    Ne,
    Lt,
    Le,
    Gt,
    Ge,
}

impl CmpOp {
    pub fn holds(self, ord: Ordering) -> bool {
        match self {
            CmpOp::Eq => ord == Ordering::Equal,
            CmpOp::Ne => ord != Ordering::Equal,
            CmpOp::Lt => ord == Ordering::Less,
            CmpOp::Le => ord != Ordering::Greater,
            CmpOp::Gt => ord == Ordering::Greater,
            CmpOp::Ge => ord != Ordering::Less,
        }
    }

    pub fn flip(self) -> CmpOp {
        match self {
            CmpOp::Eq => CmpOp::Eq,
            CmpOp::Ne => CmpOp::Ne,
            CmpOp::Lt => CmpOp::Gt,
            CmpOp::Le => CmpOp::Ge,
            CmpOp::Gt => CmpOp::Lt,
            CmpOp::Ge => CmpOp::Le,
        }
    }
}

impl fmt::Display for CmpOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            CmpOp::Eq => "=",
            CmpOp::Ne => "<>",
            CmpOp::Lt => "<",
            CmpOp::Le => "<=",
            CmpOp::Gt => ">",
            CmpOp::Ge => ">=",
        };
        write!(f, "{s}")
    }
}

/// Arithmetic operators (numeric only).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ArithOp {
    Add,
    Sub,
    Mul,
    Div,
}

impl fmt::Display for ArithOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            ArithOp::Add => "+",
            ArithOp::Sub => "-",
            ArithOp::Mul => "*",
            ArithOp::Div => "/",
        };
        write!(f, "{s}")
    }
}

/// A scalar expression tree.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Expr {
    /// Named column reference (pre-binding).
    Column(ColRef),
    /// Resolved flat index into the execution row (post-binding).
    Slot(usize),
    Literal(Value),
    Cmp {
        op: CmpOp,
        lhs: Box<Expr>,
        rhs: Box<Expr>,
    },
    Arith {
        op: ArithOp,
        lhs: Box<Expr>,
        rhs: Box<Expr>,
    },
    And(Box<Expr>, Box<Expr>),
    Or(Box<Expr>, Box<Expr>),
    Not(Box<Expr>),
    In {
        expr: Box<Expr>,
        list: Vec<Value>,
        negated: bool,
    },
    Between {
        expr: Box<Expr>,
        low: Box<Expr>,
        high: Box<Expr>,
        negated: bool,
    },
    /// SQL LIKE with `%` (any run) and `_` (any single char).
    Like {
        expr: Box<Expr>,
        pattern: String,
        negated: bool,
    },
    IsNull {
        expr: Box<Expr>,
        negated: bool,
    },
}

impl Expr {
    pub fn col(table: &str, column: &str) -> Expr {
        Expr::Column(ColRef::new(table, column))
    }

    pub fn bare(column: &str) -> Expr {
        Expr::Column(ColRef::bare(column))
    }

    pub fn lit(v: impl Into<Value>) -> Expr {
        Expr::Literal(v.into())
    }

    pub fn cmp(op: CmpOp, lhs: Expr, rhs: Expr) -> Expr {
        Expr::Cmp {
            op,
            lhs: Box::new(lhs),
            rhs: Box::new(rhs),
        }
    }

    pub fn eq(lhs: Expr, rhs: Expr) -> Expr {
        Expr::cmp(CmpOp::Eq, lhs, rhs)
    }

    pub fn and(lhs: Expr, rhs: Expr) -> Expr {
        Expr::And(Box::new(lhs), Box::new(rhs))
    }

    pub fn or(lhs: Expr, rhs: Expr) -> Expr {
        Expr::Or(Box::new(lhs), Box::new(rhs))
    }

    /// Conjoin a list of predicates (`None` for the empty list).
    pub fn conjunction(mut preds: Vec<Expr>) -> Option<Expr> {
        let first = if preds.is_empty() {
            return None;
        } else {
            preds.remove(0)
        };
        Some(preds.into_iter().fold(first, Expr::and))
    }

    /// Split a predicate into its top-level AND-ed conjuncts.
    pub fn split_conjuncts(self) -> Vec<Expr> {
        match self {
            Expr::And(a, b) => {
                let mut v = a.split_conjuncts();
                v.extend(b.split_conjuncts());
                v
            }
            other => vec![other],
        }
    }

    /// Rebuild this node with `f` applied to each direct child expression;
    /// leaves come back as clones. The one structural recursion a
    /// tree-to-tree rewrite (binding) goes through.
    pub fn map_children<E>(&self, f: &mut impl FnMut(&Expr) -> Result<Expr, E>) -> Result<Expr, E> {
        let mut child = |e: &Expr| f(e).map(Box::new);
        Ok(match self {
            Expr::Column(_) | Expr::Slot(_) | Expr::Literal(_) => self.clone(),
            Expr::Cmp { op, lhs, rhs } => Expr::Cmp {
                op: *op,
                lhs: child(lhs)?,
                rhs: child(rhs)?,
            },
            Expr::Arith { op, lhs, rhs } => Expr::Arith {
                op: *op,
                lhs: child(lhs)?,
                rhs: child(rhs)?,
            },
            Expr::And(a, b) => Expr::And(child(a)?, child(b)?),
            Expr::Or(a, b) => Expr::Or(child(a)?, child(b)?),
            Expr::Not(e) => Expr::Not(child(e)?),
            Expr::In {
                expr,
                list,
                negated,
            } => Expr::In {
                expr: child(expr)?,
                list: list.clone(),
                negated: *negated,
            },
            Expr::Between {
                expr,
                low,
                high,
                negated,
            } => Expr::Between {
                expr: child(expr)?,
                low: child(low)?,
                high: child(high)?,
                negated: *negated,
            },
            Expr::Like {
                expr,
                pattern,
                negated,
            } => Expr::Like {
                expr: child(expr)?,
                pattern: pattern.clone(),
                negated: *negated,
            },
            Expr::IsNull { expr, negated } => Expr::IsNull {
                expr: child(expr)?,
                negated: *negated,
            },
        })
    }

    /// Visit every leaf (`Column`, `Slot`, `Literal`) left to right.
    pub fn for_each_leaf<'a>(&'a self, f: &mut impl FnMut(&'a Expr)) {
        match self {
            Expr::Column(_) | Expr::Slot(_) | Expr::Literal(_) => f(self),
            Expr::Cmp { lhs: a, rhs: b, .. }
            | Expr::Arith { lhs: a, rhs: b, .. }
            | Expr::And(a, b)
            | Expr::Or(a, b) => {
                a.for_each_leaf(f);
                b.for_each_leaf(f);
            }
            Expr::Not(e)
            | Expr::In { expr: e, .. }
            | Expr::Like { expr: e, .. }
            | Expr::IsNull { expr: e, .. } => e.for_each_leaf(f),
            Expr::Between {
                expr, low, high, ..
            } => {
                expr.for_each_leaf(f);
                low.for_each_leaf(f);
                high.for_each_leaf(f);
            }
        }
    }

    /// Replace every named column reference using `resolve`, producing an
    /// executable expression over row slots.
    pub fn bind(&self, resolve: &dyn Fn(&ColRef) -> DbResult<usize>) -> DbResult<Expr> {
        match self {
            Expr::Column(c) => Ok(Expr::Slot(resolve(c)?)),
            other => other.map_children(&mut |e| e.bind(resolve)),
        }
    }

    /// The slots a bound expression reads, ascending and deduplicated.
    pub fn slots(&self) -> Vec<usize> {
        let mut out = Vec::new();
        self.for_each_leaf(&mut |e| {
            if let Expr::Slot(s) = e {
                out.push(*s);
            }
        });
        out.sort_unstable();
        out.dedup();
        out
    }

    /// Evaluate against a flat row. Logical results use SQL 3VL: `Null`
    /// means *unknown*. A WHERE clause keeps a row iff the result is
    /// `Bool(true)`.
    pub fn eval(&self, row: &[Value]) -> DbResult<Value> {
        Ok(match self {
            Expr::Column(c) => {
                return Err(DbError::InvalidQuery(format!(
                    "unbound column reference {c} at evaluation time"
                )))
            }
            Expr::Slot(i) => row
                .get(*i)
                .cloned()
                .ok_or_else(|| DbError::ShapeMismatch(format!("slot {i} out of row")))?,
            Expr::Literal(v) => v.clone(),
            Expr::Cmp { op, lhs, rhs } => {
                let l = lhs.eval(row)?;
                let r = rhs.eval(row)?;
                match l.sql_cmp(&r) {
                    Some(ord) => Value::Bool(op.holds(ord)),
                    None => Value::Null,
                }
            }
            Expr::Arith { op, lhs, rhs } => {
                let l = lhs.eval(row)?;
                let r = rhs.eval(row)?;
                match (l.as_f64(), r.as_f64()) {
                    (Some(a), Some(b)) => {
                        let out = match op {
                            ArithOp::Add => a + b,
                            ArithOp::Sub => a - b,
                            ArithOp::Mul => a * b,
                            ArithOp::Div => {
                                if b == 0.0 {
                                    return Ok(Value::Null); // SQL-ish: guard div by zero
                                }
                                a / b
                            }
                        };
                        // Preserve integer typing when both inputs are ints
                        // and the result is integral.
                        match (&l, &r) {
                            (Value::Int(_), Value::Int(_)) if out.fract() == 0.0 => {
                                Value::Int(out as i64)
                            }
                            _ => Value::Float(out),
                        }
                    }
                    _ => Value::Null,
                }
            }
            Expr::And(a, b) => {
                let l = a.eval(row)?;
                let r = b.eval(row)?;
                three_valued_and(&l, &r)
            }
            Expr::Or(a, b) => {
                let l = a.eval(row)?;
                let r = b.eval(row)?;
                three_valued_or(&l, &r)
            }
            Expr::Not(e) => match e.eval(row)? {
                Value::Bool(b) => Value::Bool(!b),
                Value::Null => Value::Null,
                other => {
                    return Err(DbError::TypeMismatch {
                        expected: "BOOL".into(),
                        found: format!("{other}"),
                    })
                }
            },
            Expr::In {
                expr,
                list,
                negated,
            } => {
                let v = expr.eval(row)?;
                if v.is_null() {
                    return Ok(Value::Null);
                }
                let mut found = false;
                let mut saw_null = false;
                for item in list {
                    match v.sql_cmp(item) {
                        Some(Ordering::Equal) => {
                            found = true;
                            break;
                        }
                        None if item.is_null() => saw_null = true,
                        _ => {}
                    }
                }
                if found {
                    Value::Bool(!negated)
                } else if saw_null {
                    Value::Null
                } else {
                    Value::Bool(*negated)
                }
            }
            Expr::Between {
                expr,
                low,
                high,
                negated,
            } => {
                let v = expr.eval(row)?;
                let lo = low.eval(row)?;
                let hi = high.eval(row)?;
                match (v.sql_cmp(&lo), v.sql_cmp(&hi)) {
                    (Some(a), Some(b)) => {
                        let inside = a != Ordering::Less && b != Ordering::Greater;
                        Value::Bool(inside != *negated)
                    }
                    _ => Value::Null,
                }
            }
            Expr::Like {
                expr,
                pattern,
                negated,
            } => {
                let v = expr.eval(row)?;
                match v {
                    Value::Null => Value::Null,
                    Value::Str(s) => Value::Bool(like_match(&s, pattern) != *negated),
                    other => {
                        return Err(DbError::TypeMismatch {
                            expected: "TEXT".into(),
                            found: format!("{other}"),
                        })
                    }
                }
            }
            Expr::IsNull { expr, negated } => {
                let v = expr.eval(row)?;
                Value::Bool(v.is_null() != *negated)
            }
        })
    }

    /// Predicate evaluation: `true` iff the expression evaluates to
    /// `Bool(true)` (SQL WHERE semantics: NULL filters the row out).
    pub fn matches(&self, row: &[Value]) -> DbResult<bool> {
        Ok(matches!(self.eval(row)?, Value::Bool(true)))
    }
}

fn three_valued_and(l: &Value, r: &Value) -> Value {
    match (l.as_bool(), r.as_bool()) {
        (Some(false), _) | (_, Some(false)) => Value::Bool(false),
        (Some(true), Some(true)) => Value::Bool(true),
        _ => Value::Null,
    }
}

fn three_valued_or(l: &Value, r: &Value) -> Value {
    match (l.as_bool(), r.as_bool()) {
        (Some(true), _) | (_, Some(true)) => Value::Bool(true),
        (Some(false), Some(false)) => Value::Bool(false),
        _ => Value::Null,
    }
}

/// SQL LIKE matcher: `%` matches any run (including empty), `_` one char.
/// Case-sensitive, iterative two-pointer algorithm (no backtracking blowup)
/// on byte offsets, allocating nothing: a wildcard is tested before a
/// literal, `_` takes one whole UTF-8 character, a literal one byte.
pub fn like_match(s: &str, pattern: &str) -> bool {
    let (s, p) = (s.as_bytes(), pattern.as_bytes());
    // The bytes of the UTF-8 character that starts with `lead`.
    let width = |lead: u8| (lead.leading_ones() as usize).max(1);
    let (mut si, mut pi) = (0usize, 0usize);
    let (mut star_p, mut star_s) = (usize::MAX, 0usize);
    while si < s.len() {
        if p.get(pi) == Some(&b'%') {
            if pi + 1 == p.len() {
                return true; // a trailing `%` takes the rest
            }
            (star_p, star_s) = (pi, si);
            pi += 1;
        } else if p.get(pi) == Some(&b'_') {
            si += width(s[si]);
            pi += 1;
        } else if p.get(pi) == Some(&s[si]) {
            si += 1;
            pi += 1;
        } else if star_p != usize::MAX {
            // Backtrack: the last `%` swallows one more character, and every
            // byte before the next that can start the literal after it.
            pi = star_p + 1;
            star_s += width(s[star_s]);
            if !matches!(p[pi], b'_' | b'%') {
                let skip = s[star_s..].iter().position(|&b| b == p[pi]);
                star_s = skip.map_or(s.len(), |k| star_s + k);
            }
            si = star_s;
        } else {
            return false;
        }
    }
    p[pi..].iter().all(|&c| c == b'%')
}

impl fmt::Display for Expr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Expr::Column(c) => write!(f, "{c}"),
            Expr::Slot(i) => write!(f, "${i}"),
            Expr::Literal(v) => write!(f, "{v}"),
            Expr::Cmp { op, lhs, rhs } => write!(f, "{lhs} {op} {rhs}"),
            Expr::Arith { op, lhs, rhs } => write!(f, "({lhs} {op} {rhs})"),
            Expr::And(a, b) => write!(f, "({a} AND {b})"),
            Expr::Or(a, b) => write!(f, "({a} OR {b})"),
            Expr::Not(e) => write!(f, "NOT ({e})"),
            Expr::In {
                expr,
                list,
                negated,
            } => {
                write!(f, "{expr} {}IN (", if *negated { "NOT " } else { "" })?;
                for (i, v) in list.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{v}")?;
                }
                write!(f, ")")
            }
            Expr::Between {
                expr,
                low,
                high,
                negated,
            } => write!(
                f,
                "{expr} {}BETWEEN {low} AND {high}",
                if *negated { "NOT " } else { "" }
            ),
            Expr::Like {
                expr,
                pattern,
                negated,
            } => write!(
                f,
                "{expr} {}LIKE '{}'",
                if *negated { "NOT " } else { "" },
                pattern.replace('\'', "''")
            ),
            Expr::IsNull { expr, negated } => {
                write!(f, "{expr} IS {}NULL", if *negated { "NOT " } else { "" })
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn slot(i: usize) -> Expr {
        Expr::Slot(i)
    }

    #[test]
    fn cmp_with_nulls_is_unknown() {
        let e = Expr::cmp(CmpOp::Eq, slot(0), Expr::lit(1));
        assert_eq!(e.eval(&[Value::Null]).unwrap(), Value::Null);
        assert!(!e.matches(&[Value::Null]).unwrap());
        assert!(e.matches(&[Value::Int(1)]).unwrap());
    }

    #[test]
    fn three_valued_logic_tables() {
        let t = Value::Bool(true);
        let fl = Value::Bool(false);
        let n = Value::Null;
        assert_eq!(three_valued_and(&n, &fl), Value::Bool(false));
        assert_eq!(three_valued_and(&n, &t), Value::Null);
        assert_eq!(three_valued_or(&n, &t), Value::Bool(true));
        assert_eq!(three_valued_or(&n, &fl), Value::Null);
    }

    #[test]
    fn in_list_semantics() {
        let e = Expr::In {
            expr: Box::new(slot(0)),
            list: vec![Value::Int(1), Value::Int(2)],
            negated: false,
        };
        assert!(e.matches(&[Value::Int(2)]).unwrap());
        assert!(!e.matches(&[Value::Int(3)]).unwrap());
        // NULL in the list makes a miss unknown, not false.
        let e2 = Expr::In {
            expr: Box::new(slot(0)),
            list: vec![Value::Int(1), Value::Null],
            negated: false,
        };
        assert_eq!(e2.eval(&[Value::Int(3)]).unwrap(), Value::Null);
        assert!(e2.matches(&[Value::Int(1)]).unwrap());
    }

    #[test]
    fn between_and_negation() {
        let e = Expr::Between {
            expr: Box::new(slot(0)),
            low: Box::new(Expr::lit(10)),
            high: Box::new(Expr::lit(20)),
            negated: false,
        };
        assert!(e.matches(&[Value::Int(10)]).unwrap());
        assert!(e.matches(&[Value::Int(20)]).unwrap());
        assert!(!e.matches(&[Value::Int(21)]).unwrap());
        let ne = Expr::Between {
            expr: Box::new(slot(0)),
            low: Box::new(Expr::lit(10)),
            high: Box::new(Expr::lit(20)),
            negated: true,
        };
        assert!(ne.matches(&[Value::Int(21)]).unwrap());
    }

    #[test]
    fn like_patterns() {
        assert!(like_match("Star Wars", "Star%"));
        assert!(like_match("Star Wars", "%Wars"));
        assert!(like_match("Star Wars", "%a%"));
        assert!(like_match("abc", "a_c"));
        assert!(!like_match("abc", "a_d"));
        assert!(like_match("", "%"));
        assert!(!like_match("", "_"));
        assert!(like_match("aaab", "%ab"));
        assert!(!like_match("abc", "abcd"));
        assert!(like_match("mississippi", "%iss%pi"));
        // `%` is a wildcard where the text has one; `_` takes a whole character.
        assert!(like_match("50% off", "50%") && like_match("%abc", "%"));
        assert!(like_match("%日本", "%_") && like_match("Amélie", "Am_lie"));
    }

    #[test]
    fn arithmetic_typing_and_div_zero() {
        let add = Expr::Arith {
            op: ArithOp::Add,
            lhs: Box::new(Expr::lit(2)),
            rhs: Box::new(Expr::lit(3)),
        };
        assert_eq!(add.eval(&[]).unwrap(), Value::Int(5));
        let div0 = Expr::Arith {
            op: ArithOp::Div,
            lhs: Box::new(Expr::lit(1)),
            rhs: Box::new(Expr::lit(0)),
        };
        assert_eq!(div0.eval(&[]).unwrap(), Value::Null);
        let fdiv = Expr::Arith {
            op: ArithOp::Div,
            lhs: Box::new(Expr::lit(3)),
            rhs: Box::new(Expr::lit(2)),
        };
        assert_eq!(fdiv.eval(&[]).unwrap(), Value::Float(1.5));
    }

    #[test]
    fn bind_resolves_columns() {
        let e = Expr::eq(Expr::col("t", "a"), Expr::lit(1));
        let bound = e
            .bind(&|c: &ColRef| {
                assert_eq!(c.column, "a");
                Ok(4)
            })
            .unwrap();
        let mut row = vec![Value::Null; 5];
        row[4] = Value::Int(1);
        assert!(bound.matches(&row).unwrap());
    }

    #[test]
    fn split_and_conjunction_roundtrip() {
        let a = Expr::eq(slot(0), Expr::lit(1));
        let b = Expr::eq(slot(1), Expr::lit(2));
        let c = Expr::eq(slot(2), Expr::lit(3));
        let all = Expr::conjunction(vec![a.clone(), b.clone(), c.clone()]).unwrap();
        let parts = all.split_conjuncts();
        assert_eq!(parts, vec![a, b, c]);
        assert!(Expr::conjunction(vec![]).is_none());
    }

    #[test]
    fn is_null_checks() {
        let e = Expr::IsNull {
            expr: Box::new(slot(0)),
            negated: false,
        };
        assert!(e.matches(&[Value::Null]).unwrap());
        assert!(!e.matches(&[Value::Int(0)]).unwrap());
    }

    #[test]
    fn unbound_column_errors_at_eval() {
        let e = Expr::bare("x");
        assert!(e.eval(&[]).is_err());
    }
}

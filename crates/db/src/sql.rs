//! SQL text front-end: the one lexer and the one parser for the supported
//! subset.
//!
//! Grammar (case-insensitive keywords). [`parse`] reads a `query`;
//! [`crate::sql_stmt::parse_statement`] reads a `statement` on the same
//! tokens:
//!
//! ```text
//! statement := query | create | insert | drop
//! query   := SELECT [DISTINCT] select FROM tables [WHERE expr]
//!            [GROUP BY cols] [ORDER BY key (, key)*] [LIMIT int] [';']
//! select  := '*' | item (',' item)*
//! item    := (COUNT|SUM|AVG|MIN|MAX) '(' ('*'|colref) ')' | colref
//! tables  := tref (',' tref)* (JOIN tref ON colref '=' colref)*
//! tref    := ident [AS? ident]
//! expr    := or-tree of comparisons, IN (literal, ...), BETWEEN, LIKE,
//!            IS [NOT] NULL, arithmetic, parentheses
//! create  := CREATE TABLE ident '(' coldef (',' coldef)* ')' [';']
//! coldef  := ident type ['(' literal ')'] [NOT NULL]
//! type    := INT | INTEGER | BIGINT | FLOAT | DOUBLE | REAL
//!          | TEXT | VARCHAR | STRING | BOOL | BOOLEAN
//! insert  := INSERT INTO ident VALUES row (',' row)* [';']
//! row     := '(' literal (',' literal)* ')'
//! drop    := DROP TABLE ident [';']
//! literal := ['-'] number | string | NULL | TRUE | FALSE
//! ```
//!
//! A number with a fraction or an exponent is a `Float`. A digit run is an
//! `Int` where `i64` holds it with its sign (`-9223372036854775808`
//! included), and past that the nearest `Float`. So every value prints
//! ([`Value`]'s `Display`) as text that reads back as the same value, in a
//! WHERE clause and in an INSERT alike, except integral floats an `i64`
//! can hold, which print as that `Int`.
//!
//! Top-level `col = col` equality conjuncts in WHERE that span two different
//! table bindings are lifted into [`Query::joins`], so
//! `parse(q.to_sql()) == q` holds for queries built by the rest of the
//! system (see the proptest round-trip in `tests/`).

use crate::error::{DbError, DbResult};
use crate::expr::{ArithOp, CmpOp, ColRef, Expr};
use crate::query::{AggExpr, AggFunc, JoinCond, OrderKey, Query, SelectItem, TableRef};
use crate::value::Value;

// --------------------------------------------------------------------------
// Lexer
// --------------------------------------------------------------------------

/// A token. A digit run is an unsigned `Int` (past `u64`, a `Float`): the
/// parser applies the sign, so `-9223372036854775808` is `i64::MIN`.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum Tok {
    Ident(String),
    Int(u64),
    Float(f64),
    Str(String),
    Symbol(&'static str),
    Eof,
}

struct Lexer<'a> {
    src: &'a str,
    pos: usize,
}

impl<'a> Lexer<'a> {
    fn new(src: &'a str) -> Self {
        Lexer { src, pos: 0 }
    }

    fn error(&self, msg: impl Into<String>) -> DbError {
        DbError::Parse {
            message: msg.into(),
            position: self.pos,
        }
    }

    fn byte_at(&self, i: usize) -> Option<u8> {
        self.src.as_bytes().get(i).copied()
    }

    // asqp::panic-free-audited: `start`, `end` and `pos` are 0, the source's
    // length or just past an ASCII byte, and `find` results index the text
    // they were found in, so every slice is in bounds and on a char boundary
    fn next_token(&mut self) -> DbResult<(Tok, usize)> {
        while matches!(self.byte_at(self.pos), Some(b) if b.is_ascii_whitespace()) {
            self.pos += 1;
        }
        let start = self.pos;
        let rest = &self.src[start..];
        let Some(b) = self.byte_at(start) else {
            return Ok((Tok::Eof, start));
        };
        // Identifiers / keywords
        if b.is_ascii_alphabetic() || b == b'_' {
            let len = rest
                .find(|c: char| !(c.is_ascii_alphanumeric() || c == '_'))
                .unwrap_or(rest.len());
            self.pos += len;
            return Ok((Tok::Ident(rest[..len].to_string()), start));
        }
        // Numbers
        if b.is_ascii_digit() {
            let mut end = start;
            let mut is_float = false;
            while let Some(c) = self.byte_at(end) {
                if c.is_ascii_digit() {
                    end += 1;
                } else if c == b'.'
                    && !is_float
                    && matches!(self.byte_at(end + 1), Some(d) if d.is_ascii_digit())
                {
                    is_float = true;
                    end += 1;
                } else if (c == b'e' || c == b'E')
                    && matches!(self.byte_at(end + 1), Some(d) if d.is_ascii_digit() || d == b'-' || d == b'+')
                {
                    is_float = true;
                    end += 2;
                } else {
                    break;
                }
            }
            let text = &self.src[start..end];
            self.pos = end;
            let tok = match text.parse() {
                Ok(n) => Tok::Int(n),
                // A fraction, an exponent, or a digit run past `u64`.
                Err(_) => Tok::Float(text.parse().map_err(|_| self.error("bad float literal"))?),
            };
            return Ok((tok, start));
        }
        // Strings, with '' for a quote.
        if b == b'\'' {
            let mut out = String::new();
            let mut tail = &rest[1..];
            loop {
                let Some(quote) = tail.find('\'') else {
                    return Err(self.error("unterminated string literal"));
                };
                out.push_str(&tail[..quote]);
                tail = &tail[quote + 1..];
                let Some(escaped) = tail.strip_prefix('\'') else {
                    break;
                };
                out.push('\'');
                tail = escaped;
            }
            self.pos = self.src.len() - tail.len();
            return Ok((Tok::Str(out), start));
        }
        // Symbols, two-char first; `!=` is `<>`.
        if let Some(sym) = ["<=", ">=", "<>", "!="]
            .into_iter()
            .find(|s| rest.starts_with(s))
        {
            self.pos += 2;
            return Ok((Tok::Symbol(if sym == "!=" { "<>" } else { sym }), start));
        }
        const ONE: &str = ",()=<>+-*/.;";
        if let Some(i) = ONE.find(char::from(b)) {
            self.pos += 1;
            return Ok((Tok::Symbol(&ONE[i..=i]), start));
        }
        let c = rest.chars().next().unwrap_or(char::REPLACEMENT_CHARACTER);
        Err(self.error(format!("unexpected character '{c}'")))
    }
}

// --------------------------------------------------------------------------
// Parser
// --------------------------------------------------------------------------

/// A cursor over the tokens of one SQL text. [`parse`] reads a query with
/// it, and `sql_stmt` reads CREATE, INSERT and DROP with the same cursor.
pub(crate) struct Parser {
    toks: Vec<(Tok, usize)>,
    idx: usize,
}

impl Parser {
    /// Tokenize `src`; a lexing error is returned here, before any parse.
    pub(crate) fn new(src: &str) -> DbResult<Self> {
        let mut lex = Lexer::new(src);
        let mut toks = vec![lex.next_token()?];
        while toks.last().is_some_and(|(t, _)| *t != Tok::Eof) {
            toks.push(lex.next_token()?);
        }
        Ok(Parser { toks, idx: 0 })
    }

    pub(crate) fn peek(&self) -> &Tok {
        &self.toks[self.idx].0
    }

    /// An error at the next token's position.
    pub(crate) fn error(&self, msg: impl Into<String>) -> DbError {
        DbError::Parse {
            message: msg.into(),
            position: self.toks[self.idx].1,
        }
    }

    pub(crate) fn bump(&mut self) -> Tok {
        let t = self.toks[self.idx].0.clone();
        if self.idx + 1 < self.toks.len() {
            self.idx += 1;
        }
        t
    }

    /// Consume an identifier matching `kw` case-insensitively.
    pub(crate) fn eat_kw(&mut self, kw: &str) -> bool {
        if let Tok::Ident(s) = self.peek() {
            if s.eq_ignore_ascii_case(kw) {
                self.bump();
                return true;
            }
        }
        false
    }

    pub(crate) fn expect_kw(&mut self, kw: &str) -> DbResult<()> {
        if self.eat_kw(kw) {
            Ok(())
        } else {
            Err(self.error(format!("expected {kw}")))
        }
    }

    pub(crate) fn eat_sym(&mut self, sym: &str) -> bool {
        if matches!(self.peek(), Tok::Symbol(s) if *s == sym) {
            self.bump();
            return true;
        }
        false
    }

    pub(crate) fn expect_sym(&mut self, sym: &str) -> DbResult<()> {
        if self.eat_sym(sym) {
            Ok(())
        } else {
            Err(self.error(format!("expected '{sym}'")))
        }
    }

    /// An identifier; an error names the token it found, at that token.
    pub(crate) fn ident(&mut self) -> DbResult<String> {
        let Tok::Ident(s) = self.peek() else {
            return Err(self.error(format!("expected identifier, found {:?}", self.peek())));
        };
        let s = s.clone();
        self.bump();
        Ok(s)
    }

    /// The end of a statement: an optional `;`, then nothing.
    pub(crate) fn end(&mut self) -> DbResult<()> {
        self.eat_sym(";");
        if self.peek() == &Tok::Eof {
            Ok(())
        } else {
            Err(self.error("trailing input"))
        }
    }

    /// `ident` or `ident.ident`.
    fn colref(&mut self) -> DbResult<ColRef> {
        let first = self.ident()?;
        if self.eat_sym(".") {
            let col = self.ident()?;
            Ok(ColRef::new(first, col))
        } else {
            Ok(ColRef::bare(first))
        }
    }

    fn agg_func(name: &str) -> Option<AggFunc> {
        match name.to_ascii_uppercase().as_str() {
            "COUNT" => Some(AggFunc::Count),
            "SUM" => Some(AggFunc::Sum),
            "AVG" => Some(AggFunc::Avg),
            "MIN" => Some(AggFunc::Min),
            "MAX" => Some(AggFunc::Max),
            _ => None,
        }
    }

    pub(crate) fn query(&mut self) -> DbResult<Query> {
        self.expect_kw("SELECT")?;
        let distinct = self.eat_kw("DISTINCT");

        // Select list
        let mut select = Vec::new();
        loop {
            if self.eat_sym("*") {
                select.push(SelectItem::Star);
            } else if let Tok::Ident(name) = self.peek().clone() {
                if let Some(func) = Self::agg_func(&name) {
                    // Lookahead: aggregate only if followed by '('.
                    if matches!(self.toks.get(self.idx + 1), Some((Tok::Symbol("("), _))) {
                        self.bump();
                        self.expect_sym("(")?;
                        let arg = if self.eat_sym("*") {
                            None
                        } else {
                            Some(self.colref()?)
                        };
                        self.expect_sym(")")?;
                        select.push(SelectItem::Aggregate(AggExpr { func, arg }));
                    } else {
                        select.push(SelectItem::Column(self.colref()?));
                    }
                } else {
                    select.push(SelectItem::Column(self.colref()?));
                }
            } else {
                return Err(self.error("expected select item"));
            }
            if !self.eat_sym(",") {
                break;
            }
        }

        // FROM
        self.expect_kw("FROM")?;
        let mut from = Vec::new();
        let mut joins = Vec::new();
        from.push(self.table_ref()?);
        loop {
            if self.eat_sym(",") {
                from.push(self.table_ref()?);
                continue;
            }
            if self.eat_kw("INNER") {
                self.expect_kw("JOIN")?;
            } else if !self.eat_kw("JOIN") {
                break;
            }
            from.push(self.table_ref()?);
            self.expect_kw("ON")?;
            let l = self.colref()?;
            self.expect_sym("=")?;
            let r = self.colref()?;
            joins.push(JoinCond::new(l, r));
        }

        // WHERE
        let mut predicate = None;
        if self.eat_kw("WHERE") {
            let e = self.expr()?;
            // Lift `col = col` conjuncts across different bindings into joins.
            let mut rest = Vec::new();
            for c in e.split_conjuncts() {
                match &c {
                    Expr::Cmp {
                        op: CmpOp::Eq,
                        lhs,
                        rhs,
                    } => match (lhs.as_ref(), rhs.as_ref()) {
                        (Expr::Column(a), Expr::Column(b)) if a.table != b.table => {
                            joins.push(JoinCond::new(a.clone(), b.clone()));
                        }
                        _ => rest.push(c),
                    },
                    _ => rest.push(c),
                }
            }
            predicate = Expr::conjunction(rest);
        }

        // GROUP BY
        let mut group_by = Vec::new();
        if self.eat_kw("GROUP") {
            self.expect_kw("BY")?;
            loop {
                group_by.push(self.colref()?);
                if !self.eat_sym(",") {
                    break;
                }
            }
        }

        // ORDER BY
        let mut order_by = Vec::new();
        if self.eat_kw("ORDER") {
            self.expect_kw("BY")?;
            loop {
                let column = self.colref()?;
                let desc = if self.eat_kw("DESC") {
                    true
                } else {
                    self.eat_kw("ASC");
                    false
                };
                order_by.push(OrderKey { column, desc });
                if !self.eat_sym(",") {
                    break;
                }
            }
        }

        // LIMIT
        let mut limit = None;
        if self.eat_kw("LIMIT") {
            match self.bump() {
                Tok::Int(n) => limit = Some(n as usize),
                _ => return Err(self.error("expected non-negative integer after LIMIT")),
            }
        }
        self.end()?;

        Ok(Query {
            select,
            distinct,
            from,
            joins,
            predicate,
            group_by,
            order_by,
            limit,
        })
    }

    fn table_ref(&mut self) -> DbResult<TableRef> {
        let table = self.ident()?;
        // Optional alias: `AS x` or bare identifier that is not a keyword.
        if self.eat_kw("AS") {
            let alias = self.ident()?;
            return Ok(TableRef::aliased(table, alias));
        }
        const KEYWORDS: &[&str] = &[
            "WHERE", "GROUP", "ORDER", "LIMIT", "JOIN", "INNER", "ON", "AND", "OR",
        ];
        if let Tok::Ident(s) = self.peek() {
            if !KEYWORDS.iter().any(|k| s.eq_ignore_ascii_case(k)) {
                let alias = self.ident()?;
                return Ok(TableRef::aliased(table, alias));
            }
        }
        Ok(TableRef::new(table))
    }

    // Expression precedence: OR < AND < NOT < comparison-ish < add < mul < unary.
    fn expr(&mut self) -> DbResult<Expr> {
        self.or_expr()
    }

    fn or_expr(&mut self) -> DbResult<Expr> {
        let mut lhs = self.and_expr()?;
        while self.eat_kw("OR") {
            let rhs = self.and_expr()?;
            lhs = Expr::or(lhs, rhs);
        }
        Ok(lhs)
    }

    fn and_expr(&mut self) -> DbResult<Expr> {
        let mut lhs = self.not_expr()?;
        while self.eat_kw("AND") {
            let rhs = self.not_expr()?;
            lhs = Expr::and(lhs, rhs);
        }
        Ok(lhs)
    }

    fn not_expr(&mut self) -> DbResult<Expr> {
        if self.eat_kw("NOT") {
            let inner = self.not_expr()?;
            return Ok(Expr::Not(Box::new(inner)));
        }
        self.comparison()
    }

    fn comparison(&mut self) -> DbResult<Expr> {
        let lhs = self.add_expr()?;

        // IS [NOT] NULL
        if self.eat_kw("IS") {
            let negated = self.eat_kw("NOT");
            self.expect_kw("NULL")?;
            return Ok(Expr::IsNull {
                expr: Box::new(lhs),
                negated,
            });
        }

        // [NOT] IN / BETWEEN / LIKE
        let negated = self.eat_kw("NOT");
        if self.eat_kw("IN") {
            self.expect_sym("(")?;
            let mut list = Vec::new();
            loop {
                list.push(self.literal_value()?);
                if !self.eat_sym(",") {
                    break;
                }
            }
            self.expect_sym(")")?;
            return Ok(Expr::In {
                expr: Box::new(lhs),
                list,
                negated,
            });
        }
        if self.eat_kw("BETWEEN") {
            let low = self.add_expr()?;
            self.expect_kw("AND")?;
            let high = self.add_expr()?;
            return Ok(Expr::Between {
                expr: Box::new(lhs),
                low: Box::new(low),
                high: Box::new(high),
                negated,
            });
        }
        if self.eat_kw("LIKE") {
            match self.bump() {
                Tok::Str(p) => {
                    return Ok(Expr::Like {
                        expr: Box::new(lhs),
                        pattern: p,
                        negated,
                    })
                }
                _ => return Err(self.error("expected string pattern after LIKE")),
            }
        }
        if negated {
            return Err(self.error("expected IN, BETWEEN or LIKE after NOT"));
        }

        // Binary comparison
        let op = match self.peek() {
            Tok::Symbol("=") => Some(CmpOp::Eq),
            Tok::Symbol("<>") => Some(CmpOp::Ne),
            Tok::Symbol("<") => Some(CmpOp::Lt),
            Tok::Symbol("<=") => Some(CmpOp::Le),
            Tok::Symbol(">") => Some(CmpOp::Gt),
            Tok::Symbol(">=") => Some(CmpOp::Ge),
            _ => None,
        };
        if let Some(op) = op {
            self.bump();
            let rhs = self.add_expr()?;
            return Ok(Expr::cmp(op, lhs, rhs));
        }
        Ok(lhs)
    }

    fn add_expr(&mut self) -> DbResult<Expr> {
        let mut lhs = self.mul_expr()?;
        loop {
            let op = match self.peek() {
                Tok::Symbol("+") => Some(ArithOp::Add),
                Tok::Symbol("-") => Some(ArithOp::Sub),
                _ => None,
            };
            let Some(op) = op else { break };
            self.bump();
            let rhs = self.mul_expr()?;
            lhs = Expr::Arith {
                op,
                lhs: Box::new(lhs),
                rhs: Box::new(rhs),
            };
        }
        Ok(lhs)
    }

    fn mul_expr(&mut self) -> DbResult<Expr> {
        let mut lhs = self.unary()?;
        loop {
            let op = match self.peek() {
                Tok::Symbol("*") => Some(ArithOp::Mul),
                Tok::Symbol("/") => Some(ArithOp::Div),
                _ => None,
            };
            let Some(op) = op else { break };
            self.bump();
            let rhs = self.unary()?;
            lhs = Expr::Arith {
                op,
                lhs: Box::new(lhs),
                rhs: Box::new(rhs),
            };
        }
        Ok(lhs)
    }

    fn unary(&mut self) -> DbResult<Expr> {
        if self.eat_sym("-") {
            // The sign of an integer literal is its own: `-9223372036854775808`
            // is an `Int`, although `9223372036854775808` is not.
            if let Tok::Int(n) = *self.peek() {
                self.bump();
                return Ok(Expr::Literal(int_value(n, true)));
            }
            // Fold negation into numeric literals; otherwise 0 - x.
            return Ok(match self.unary()? {
                Expr::Literal(Value::Int(i)) if i != i64::MIN => Expr::Literal(Value::Int(-i)),
                Expr::Literal(Value::Float(f)) => Expr::Literal(Value::Float(-f)),
                other => Expr::Arith {
                    op: ArithOp::Sub,
                    lhs: Box::new(Expr::lit(0)),
                    rhs: Box::new(other),
                },
            });
        }
        self.primary()
    }

    fn primary(&mut self) -> DbResult<Expr> {
        if self.eat_sym("(") {
            let e = self.expr()?;
            self.expect_sym(")")?;
            return Ok(e);
        }
        match self.peek() {
            Tok::Ident(s)
                if !["NULL", "TRUE", "FALSE"]
                    .iter()
                    .any(|k| s.eq_ignore_ascii_case(k)) =>
            {
                Ok(Expr::Column(self.colref()?))
            }
            // `unary` took any `-`, so this is an unsigned literal.
            _ => Ok(Expr::Literal(self.literal_value()?)),
        }
    }

    /// A literal: an optionally negated number, a string, NULL, TRUE or
    /// FALSE. IN lists and INSERT rows read their values here; an error is
    /// at the token that is not a literal.
    pub(crate) fn literal_value(&mut self) -> DbResult<Value> {
        let neg = self.eat_sym("-");
        let value = match self.peek() {
            Tok::Int(n) => int_value(*n, neg),
            Tok::Float(f) => Value::Float(if neg { -f } else { *f }),
            Tok::Str(s) if !neg => Value::Str(s.as_str().into()),
            Tok::Ident(s) if !neg && s.eq_ignore_ascii_case("NULL") => Value::Null,
            Tok::Ident(s) if !neg && s.eq_ignore_ascii_case("TRUE") => Value::Bool(true),
            Tok::Ident(s) if !neg && s.eq_ignore_ascii_case("FALSE") => Value::Bool(false),
            other => return Err(self.error(format!("expected literal, found {other:?}"))),
        };
        self.bump();
        Ok(value)
    }
}

/// An integer literal's value: an `Int` where `i64` holds it (with `neg`,
/// down to `i64::MIN`), past that the nearest `Float`, as `1e19` would be.
fn int_value(n: u64, neg: bool) -> Value {
    let v = if neg { -i128::from(n) } else { i128::from(n) };
    i64::try_from(v).map_or(Value::Float(v as f64), Value::Int)
}

/// Parse one SELECT into a [`Query`].
pub fn parse(text: &str) -> DbResult<Query> {
    Parser::new(text)?.query()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn simple_select() {
        let q = parse("SELECT * FROM movies").unwrap();
        assert_eq!(q, Query::scan("movies"));
    }

    #[test]
    fn full_spj_roundtrip() {
        let text = "SELECT m.title FROM movies AS m, cast_info AS c \
                    WHERE m.id = c.movie_id AND m.year > 2000 LIMIT 10";
        let q = parse(text).unwrap();
        assert_eq!(q.joins.len(), 1);
        assert_eq!(q.to_sql(), text);
        assert_eq!(parse(&q.to_sql()).unwrap(), q);
    }

    #[test]
    fn aggregates_group_order() {
        let q = parse(
            "SELECT f.carrier, AVG(f.dep_delay), COUNT(*) FROM flights AS f \
             WHERE f.dep_delay > 30 GROUP BY f.carrier ORDER BY f.carrier DESC LIMIT 5",
        )
        .unwrap();
        assert!(q.is_aggregate());
        assert_eq!(q.group_by.len(), 1);
        assert!(q.order_by[0].desc);
        assert_eq!(q.limit, Some(5));
        assert_eq!(parse(&q.to_sql()).unwrap(), q);
    }

    #[test]
    fn join_on_syntax() {
        let q = parse("SELECT * FROM a JOIN b ON a.x = b.y WHERE a.z < 3").unwrap();
        assert_eq!(q.from.len(), 2);
        assert_eq!(q.joins.len(), 1);
        assert!(q.predicate.is_some());
    }

    #[test]
    fn in_between_like_is_null() {
        let q = parse(
            "SELECT * FROM t WHERE t.a IN (1, 2, 3) AND t.b BETWEEN 5 AND 9 \
             AND t.c LIKE '%x%' AND t.d IS NOT NULL AND t.e NOT IN ('u', 'v')",
        )
        .unwrap();
        let conjs = q.predicate.unwrap().split_conjuncts();
        assert_eq!(conjs.len(), 5);
        assert!(matches!(&conjs[0], Expr::In { negated: false, .. }));
        assert!(matches!(&conjs[1], Expr::Between { .. }));
        assert!(matches!(&conjs[2], Expr::Like { .. }));
        assert!(matches!(&conjs[3], Expr::IsNull { negated: true, .. }));
        assert!(matches!(&conjs[4], Expr::In { negated: true, .. }));
    }

    #[test]
    fn string_escape_roundtrip() {
        let q = parse("SELECT * FROM t WHERE t.name = 'it''s'").unwrap();
        assert_eq!(parse(&q.to_sql()).unwrap(), q);
        let q = parse("SELECT * FROM t WHERE t.name = 'Amélie'").unwrap();
        let Some(Expr::Cmp { rhs, .. }) = &q.predicate else {
            panic!("expected a comparison: {:?}", q.predicate)
        };
        assert_eq!(**rhs, Expr::Literal(Value::Str("Amélie".into())));
        assert_eq!(parse(&q.to_sql()).unwrap(), q);
    }

    #[test]
    fn negative_numbers_and_arith() {
        let q = parse("SELECT * FROM t WHERE t.a > -5 AND t.b + 2 * t.c <= 10.5").unwrap();
        assert!(q.predicate.is_some());
    }

    #[test]
    fn distinct_flag() {
        let q = parse("SELECT DISTINCT t.a FROM t").unwrap();
        assert!(q.distinct);
        assert_eq!(parse(&q.to_sql()).unwrap(), q);
    }

    #[test]
    fn where_eq_between_same_alias_stays_predicate() {
        let q = parse("SELECT * FROM t WHERE t.a = t.b").unwrap();
        assert!(q.joins.is_empty());
        assert!(q.predicate.is_some());
    }

    #[test]
    fn parse_errors() {
        assert!(parse("SELECT").is_err());
        assert!(parse("SELECT * FROM").is_err());
        assert!(parse("SELECT * FROM t WHERE").is_err());
        assert!(parse("SELECT * FROM t LIMIT x").is_err());
        assert!(parse("SELECT * FROM t WHERE t.a = 'unterminated").is_err());
        assert!(parse("SELECT * FROM t extra garbage !").is_err());
        // A lexer error names the character, not its first byte.
        assert_eq!(
            parse("SELECT * FROM t WHERE t.a = é")
                .unwrap_err()
                .to_string(),
            "parse error at byte 28: unexpected character 'é'"
        );
    }

    #[test]
    fn keywords_case_insensitive() {
        let q = parse("select m.title from movies m where m.year between 1990 and 2000").unwrap();
        assert_eq!(q.from[0].alias.as_deref(), Some("m"));
        assert!(q.predicate.is_some());
    }

    #[test]
    fn count_named_column_not_aggregate_without_paren() {
        // A column actually named "count" should not be parsed as a call.
        let q = parse("SELECT t.count FROM t").unwrap();
        assert!(!q.is_aggregate());
    }
}

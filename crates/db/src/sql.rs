//! SQL text front-end for the supported subset.
//!
//! Grammar (case-insensitive keywords):
//!
//! ```text
//! query   := SELECT [DISTINCT] select FROM tables [WHERE expr]
//!            [GROUP BY cols] [ORDER BY key (, key)*] [LIMIT int]
//! select  := '*' | item (',' item)*
//! item    := (COUNT|SUM|AVG|MIN|MAX) '(' ('*'|colref) ')' | colref
//! tables  := tref (',' tref)* (JOIN tref ON colref '=' colref)*
//! tref    := ident [AS? ident]
//! expr    := or-tree of comparisons, IN, BETWEEN, LIKE, IS [NOT] NULL,
//!            arithmetic, parentheses
//! ```
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

#[derive(Debug, Clone, PartialEq)]
enum Tok {
    Ident(String),
    Int(i64),
    Float(f64),
    Str(String),
    Symbol(&'static str),
    Eof,
}

struct Lexer<'a> {
    src: &'a [u8],
    pos: usize,
}

impl<'a> Lexer<'a> {
    fn new(src: &'a str) -> Self {
        Lexer {
            src: src.as_bytes(),
            pos: 0,
        }
    }

    fn error(&self, msg: impl Into<String>) -> DbError {
        DbError::Parse {
            message: msg.into(),
            position: self.pos,
        }
    }

    fn peek_byte(&self) -> Option<u8> {
        self.src.get(self.pos).copied()
    }

    // asqp::panic-free-audited: every slice is `self.src[self.pos..end]` where
    // `end` only advances while `src.get(end)` is `Some`, so bounds always hold
    fn next_token(&mut self) -> DbResult<(Tok, usize)> {
        while matches!(self.peek_byte(), Some(b) if b.is_ascii_whitespace()) {
            self.pos += 1;
        }
        let start = self.pos;
        let Some(b) = self.peek_byte() else {
            return Ok((Tok::Eof, start));
        };
        // Identifiers / keywords
        if b.is_ascii_alphabetic() || b == b'_' {
            let mut end = self.pos;
            while matches!(self.src.get(end), Some(c) if c.is_ascii_alphanumeric() || *c == b'_') {
                end += 1;
            }
            let s = std::str::from_utf8(&self.src[self.pos..end])
                .map_err(|_| self.error("non-utf8 identifier"))?
                .to_string();
            self.pos = end;
            return Ok((Tok::Ident(s), start));
        }
        // Numbers
        if b.is_ascii_digit() {
            let mut end = self.pos;
            let mut is_float = false;
            while let Some(&c) = self.src.get(end) {
                if c.is_ascii_digit() {
                    end += 1;
                } else if c == b'.'
                    && !is_float
                    && matches!(self.src.get(end + 1), Some(d) if d.is_ascii_digit())
                {
                    is_float = true;
                    end += 1;
                } else if (c == b'e' || c == b'E')
                    && matches!(self.src.get(end + 1), Some(d) if d.is_ascii_digit() || *d == b'-' || *d == b'+')
                {
                    is_float = true;
                    end += 2;
                } else {
                    break;
                }
            }
            let text = std::str::from_utf8(&self.src[self.pos..end]).unwrap();
            self.pos = end;
            let tok = if is_float {
                Tok::Float(text.parse().map_err(|_| self.error("bad float literal"))?)
            } else {
                Tok::Int(text.parse().map_err(|_| self.error("bad int literal"))?)
            };
            return Ok((tok, start));
        }
        // Strings with '' escaping. The bytes between the quotes are decoded
        // once, as UTF-8: the source is a `&str` and the quote is ASCII, so
        // they are whole characters.
        if b == b'\'' {
            let mut end = self.pos + 1;
            let mut out = Vec::new();
            loop {
                match self.src.get(end) {
                    Some(b'\'') if self.src.get(end + 1) == Some(&b'\'') => {
                        out.push(b'\'');
                        end += 2;
                    }
                    Some(b'\'') => {
                        end += 1;
                        break;
                    }
                    Some(&c) => {
                        out.push(c);
                        end += 1;
                    }
                    None => return Err(self.error("unterminated string literal")),
                }
            }
            let out = String::from_utf8(out).map_err(|_| self.error("non-utf8 string literal"))?;
            self.pos = end;
            return Ok((Tok::Str(out), start));
        }
        // Symbols (two-char first)
        let two: &[(&[u8], &'static str)] =
            &[(b"<=", "<="), (b">=", ">="), (b"<>", "<>"), (b"!=", "<>")];
        for (pat, sym) in two {
            if self.src[self.pos..].starts_with(pat) {
                self.pos += 2;
                return Ok((Tok::Symbol(sym), start));
            }
        }
        let one: &[(u8, &'static str)] = &[
            (b',', ","),
            (b'(', "("),
            (b')', ")"),
            (b'=', "="),
            (b'<', "<"),
            (b'>', ">"),
            (b'+', "+"),
            (b'-', "-"),
            (b'*', "*"),
            (b'/', "/"),
            (b'.', "."),
            (b';', ";"),
        ];
        for &(pat, sym) in one {
            if b == pat {
                self.pos += 1;
                return Ok((Tok::Symbol(sym), start));
            }
        }
        Err(self.error(format!("unexpected character '{}'", b as char)))
    }
}

// --------------------------------------------------------------------------
// Parser
// --------------------------------------------------------------------------

struct Parser {
    toks: Vec<(Tok, usize)>,
    idx: usize,
}

impl Parser {
    fn new(src: &str) -> DbResult<Self> {
        let mut lex = Lexer::new(src);
        let mut toks = Vec::new();
        loop {
            let t = lex.next_token()?;
            let eof = t.0 == Tok::Eof;
            toks.push(t);
            if eof {
                break;
            }
        }
        Ok(Parser { toks, idx: 0 })
    }

    fn peek(&self) -> &Tok {
        &self.toks[self.idx].0
    }

    fn pos(&self) -> usize {
        self.toks[self.idx].1
    }

    fn error(&self, msg: impl Into<String>) -> DbError {
        DbError::Parse {
            message: msg.into(),
            position: self.pos(),
        }
    }

    fn bump(&mut self) -> Tok {
        let t = self.toks[self.idx].0.clone();
        if self.idx + 1 < self.toks.len() {
            self.idx += 1;
        }
        t
    }

    /// Consume an identifier matching `kw` case-insensitively.
    fn eat_kw(&mut self, kw: &str) -> bool {
        if let Tok::Ident(s) = self.peek() {
            if s.eq_ignore_ascii_case(kw) {
                self.bump();
                return true;
            }
        }
        false
    }

    fn peek_kw(&self, kw: &str) -> bool {
        matches!(self.peek(), Tok::Ident(s) if s.eq_ignore_ascii_case(kw))
    }

    fn expect_kw(&mut self, kw: &str) -> DbResult<()> {
        if self.eat_kw(kw) {
            Ok(())
        } else {
            Err(self.error(format!("expected {kw}")))
        }
    }

    fn eat_sym(&mut self, sym: &str) -> bool {
        if matches!(self.peek(), Tok::Symbol(s) if *s == sym) {
            self.bump();
            return true;
        }
        false
    }

    fn expect_sym(&mut self, sym: &str) -> DbResult<()> {
        if self.eat_sym(sym) {
            Ok(())
        } else {
            Err(self.error(format!("expected '{sym}'")))
        }
    }

    fn ident(&mut self) -> DbResult<String> {
        match self.bump() {
            Tok::Ident(s) => Ok(s),
            other => Err(self.error(format!("expected identifier, found {other:?}"))),
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

    fn query(&mut self) -> DbResult<Query> {
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
            if self.peek_kw("INNER") {
                self.bump();
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
                Tok::Int(n) if n >= 0 => limit = Some(n as usize),
                _ => return Err(self.error("expected non-negative integer after LIMIT")),
            }
        }

        self.eat_sym(";");
        if self.peek() != &Tok::Eof {
            return Err(self.error("trailing input after query"));
        }

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
            // Fold negation into numeric literals; otherwise 0 - x.
            return Ok(match self.unary()? {
                Expr::Literal(Value::Int(i)) => Expr::Literal(Value::Int(-i)),
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
        match self.peek().clone() {
            Tok::Int(i) => {
                self.bump();
                Ok(Expr::lit(i))
            }
            Tok::Float(f) => {
                self.bump();
                Ok(Expr::lit(f))
            }
            Tok::Str(s) => {
                self.bump();
                Ok(Expr::Literal(Value::Str(s.into())))
            }
            Tok::Ident(s) if s.eq_ignore_ascii_case("NULL") => {
                self.bump();
                Ok(Expr::Literal(Value::Null))
            }
            Tok::Ident(s) if s.eq_ignore_ascii_case("TRUE") => {
                self.bump();
                Ok(Expr::Literal(Value::Bool(true)))
            }
            Tok::Ident(s) if s.eq_ignore_ascii_case("FALSE") => {
                self.bump();
                Ok(Expr::Literal(Value::Bool(false)))
            }
            Tok::Ident(_) => Ok(Expr::Column(self.colref()?)),
            other => Err(self.error(format!("unexpected token {other:?}"))),
        }
    }

    fn literal_value(&mut self) -> DbResult<Value> {
        let neg = self.eat_sym("-");
        match self.bump() {
            Tok::Int(i) => Ok(Value::Int(if neg { -i } else { i })),
            Tok::Float(f) => Ok(Value::Float(if neg { -f } else { f })),
            Tok::Str(s) if !neg => Ok(Value::Str(s.into())),
            Tok::Ident(s) if !neg && s.eq_ignore_ascii_case("NULL") => Ok(Value::Null),
            Tok::Ident(s) if !neg && s.eq_ignore_ascii_case("TRUE") => Ok(Value::Bool(true)),
            Tok::Ident(s) if !neg && s.eq_ignore_ascii_case("FALSE") => Ok(Value::Bool(false)),
            other => Err(self.error(format!("expected literal, found {other:?}"))),
        }
    }
}

/// Parse one SQL statement into a [`Query`].
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

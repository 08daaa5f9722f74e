//! Statement-level SQL: DDL (`CREATE TABLE`, `DROP TABLE`) and DML
//! (`INSERT INTO ... VALUES`) on top of the query parser, so the engine is
//! usable as a small standalone database (e.g. from the `sql_repl` example).

use crate::catalog::Database;
use crate::error::{DbError, DbResult};
use crate::exec::ResultSet;
use crate::query::Query;
use crate::schema::{ColumnDef, Schema};
use crate::sql;
use crate::value::{Value, ValueType};

/// A parsed SQL statement.
#[derive(Debug, Clone, PartialEq)]
pub enum Statement {
    Select(Query),
    CreateTable {
        name: String,
        schema: Schema,
    },
    DropTable {
        name: String,
    },
    Insert {
        table: String,
        rows: Vec<Vec<Value>>,
    },
}

/// Outcome of executing a statement.
#[derive(Debug, Clone, PartialEq)]
pub enum StatementResult {
    /// SELECT output.
    Rows(ResultSet),
    /// DDL/DML acknowledgement: rows affected (0 for DDL).
    Done { affected: usize },
}

/// Parse a statement. SELECTs delegate to [`sql::parse`].
pub fn parse_statement(text: &str) -> DbResult<Statement> {
    let trimmed = text.trim_start();
    let head: String = trimmed
        .chars()
        .take_while(|c| c.is_ascii_alphabetic())
        .collect::<String>()
        .to_ascii_uppercase();
    match head.as_str() {
        "SELECT" => Ok(Statement::Select(sql::parse(text)?)),
        "CREATE" => parse_create(trimmed),
        "DROP" => parse_drop(trimmed),
        "INSERT" => parse_insert(trimmed),
        other => Err(DbError::Parse {
            message: format!("unsupported statement '{other}'"),
            position: 0,
        }),
    }
}

/// Execute any statement against a database.
pub fn execute_statement(db: &mut Database, text: &str) -> DbResult<StatementResult> {
    match parse_statement(text)? {
        Statement::Select(q) => Ok(StatementResult::Rows(db.execute(&q)?)),
        Statement::CreateTable { name, schema } => {
            db.create_table(&name, schema)?;
            Ok(StatementResult::Done { affected: 0 })
        }
        Statement::DropTable { name } => {
            db.drop_table(&name)?;
            Ok(StatementResult::Done { affected: 0 })
        }
        Statement::Insert { table, rows } => Ok(StatementResult::Done {
            affected: db.append_rows(&table, &rows)?,
        }),
    }
}

// ---------------------------------------------------------------------------
// Tiny hand-rolled tokenizer for DDL/DML (the query lexer stays private to
// the query parser; these grammars are simple enough for direct scanning).
// ---------------------------------------------------------------------------

struct Scanner<'a> {
    rest: &'a str,
    consumed: usize,
}

impl<'a> Scanner<'a> {
    fn new(text: &'a str) -> Self {
        Scanner {
            rest: text,
            consumed: 0,
        }
    }

    fn error(&self, message: impl Into<String>) -> DbError {
        DbError::Parse {
            message: message.into(),
            position: self.consumed,
        }
    }

    fn skip_ws(&mut self) {
        let trimmed = self.rest.trim_start();
        self.consumed += self.rest.len() - trimmed.len();
        self.rest = trimmed;
    }

    fn eat_kw(&mut self, kw: &str) -> bool {
        self.skip_ws();
        if self
            .rest
            .get(..kw.len())
            .is_some_and(|head| head.eq_ignore_ascii_case(kw))
            && !self.rest[kw.len()..]
                .chars()
                .next()
                .is_some_and(|c| c.is_ascii_alphanumeric() || c == '_')
        {
            self.advance(kw.len());
            true
        } else {
            false
        }
    }

    fn expect_kw(&mut self, kw: &str) -> DbResult<()> {
        if self.eat_kw(kw) {
            Ok(())
        } else {
            Err(self.error(format!("expected {kw}")))
        }
    }

    fn eat_sym(&mut self, sym: char) -> bool {
        self.skip_ws();
        if self.rest.starts_with(sym) {
            self.advance(sym.len_utf8());
            true
        } else {
            false
        }
    }

    fn expect_sym(&mut self, sym: char) -> DbResult<()> {
        if self.eat_sym(sym) {
            Ok(())
        } else {
            Err(self.error(format!("expected '{sym}'")))
        }
    }

    fn ident(&mut self) -> DbResult<String> {
        self.skip_ws();
        let end = self
            .rest
            .char_indices()
            .find(|(_, c)| !(c.is_ascii_alphanumeric() || *c == '_'))
            .map(|(i, _)| i)
            .unwrap_or(self.rest.len());
        if end == 0 {
            return Err(self.error("expected identifier"));
        }
        let id = self.rest[..end].to_string();
        self.advance(end);
        Ok(id)
    }

    fn literal(&mut self) -> DbResult<Value> {
        self.skip_ws();
        if self.rest.starts_with('\'') {
            // String with '' escapes.
            let mut out = String::new();
            let mut chars = self.rest.char_indices().skip(1).peekable();
            while let Some((i, c)) = chars.next() {
                if c == '\'' {
                    if matches!(chars.peek(), Some((_, '\''))) {
                        out.push('\'');
                        chars.next();
                        continue;
                    }
                    self.advance(i + 1);
                    return Ok(Value::Str(out.into()));
                }
                out.push(c);
            }
            return Err(self.error("unterminated string literal"));
        }
        if self.eat_kw("NULL") {
            return Ok(Value::Null);
        }
        if self.eat_kw("TRUE") {
            return Ok(Value::Bool(true));
        }
        if self.eat_kw("FALSE") {
            return Ok(Value::Bool(false));
        }
        // Number.
        let end = self
            .rest
            .char_indices()
            .find(|(_, c)| !(c.is_ascii_digit() || *c == '.' || *c == '-' || *c == '+'))
            .map(|(i, _)| i)
            .unwrap_or(self.rest.len());
        let text = &self.rest[..end];
        if text.is_empty() {
            return Err(self.error("expected literal"));
        }
        let v = if let Ok(i) = text.parse::<i64>() {
            Value::Int(i)
        } else if let Ok(f) = text.parse::<f64>() {
            Value::Float(f)
        } else {
            return Err(self.error(format!("bad literal '{text}'")));
        };
        self.advance(end);
        Ok(v)
    }

    fn advance(&mut self, n: usize) {
        self.consumed += n;
        self.rest = &self.rest[n..];
    }

    fn at_end(&mut self) -> bool {
        self.skip_ws();
        self.rest.is_empty() || self.rest == ";"
    }
}

fn parse_type(sc: &mut Scanner) -> DbResult<ValueType> {
    for (names, ty) in [
        (&["INT", "INTEGER", "BIGINT"][..], ValueType::Int),
        (&["FLOAT", "DOUBLE", "REAL"][..], ValueType::Float),
        (&["TEXT", "VARCHAR", "STRING"][..], ValueType::Str),
        (&["BOOL", "BOOLEAN"][..], ValueType::Bool),
    ] {
        for n in names {
            if sc.eat_kw(n) {
                // Optional (n) length suffix, ignored.
                if sc.eat_sym('(') {
                    let _ = sc.literal();
                    sc.expect_sym(')')?;
                }
                return Ok(ty);
            }
        }
    }
    Err(sc.error("expected a column type (INT/FLOAT/TEXT/BOOL)"))
}

fn parse_create(text: &str) -> DbResult<Statement> {
    let mut sc = Scanner::new(text);
    sc.expect_kw("CREATE")?;
    sc.expect_kw("TABLE")?;
    let name = sc.ident()?;
    sc.expect_sym('(')?;
    let mut cols = Vec::new();
    loop {
        let col = sc.ident()?;
        let ty = parse_type(&mut sc)?;
        let mut def = ColumnDef::new(col, ty);
        if sc.eat_kw("NOT") {
            sc.expect_kw("NULL")?;
            def = def.not_null();
        }
        cols.push(def);
        if !sc.eat_sym(',') {
            break;
        }
    }
    sc.expect_sym(')')?;
    if !sc.at_end() {
        return Err(sc.error("trailing input after CREATE TABLE"));
    }
    Ok(Statement::CreateTable {
        name,
        schema: Schema::new(cols)?,
    })
}

fn parse_drop(text: &str) -> DbResult<Statement> {
    let mut sc = Scanner::new(text);
    sc.expect_kw("DROP")?;
    sc.expect_kw("TABLE")?;
    let name = sc.ident()?;
    if !sc.at_end() {
        return Err(sc.error("trailing input after DROP TABLE"));
    }
    Ok(Statement::DropTable { name })
}

fn parse_insert(text: &str) -> DbResult<Statement> {
    let mut sc = Scanner::new(text);
    sc.expect_kw("INSERT")?;
    sc.expect_kw("INTO")?;
    let table = sc.ident()?;
    sc.expect_kw("VALUES")?;
    let mut rows = Vec::new();
    loop {
        sc.expect_sym('(')?;
        let mut row = Vec::new();
        loop {
            row.push(sc.literal()?);
            if !sc.eat_sym(',') {
                break;
            }
        }
        sc.expect_sym(')')?;
        rows.push(row);
        if !sc.eat_sym(',') {
            break;
        }
    }
    if !sc.at_end() {
        return Err(sc.error("trailing input after VALUES"));
    }
    Ok(Statement::Insert { table, rows })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn exec(db: &mut Database, text: &str) -> StatementResult {
        execute_statement(db, text).unwrap()
    }

    #[test]
    fn create_insert_select_drop() {
        let mut db = Database::new();
        exec(
            &mut db,
            "CREATE TABLE movies (id INT NOT NULL, title TEXT, rating FLOAT, seen BOOL)",
        );
        let r = exec(
            &mut db,
            "INSERT INTO movies VALUES (1, 'Alien', 8.5, true), (2, 'It''s a gift', 7.0, false)",
        );
        assert_eq!(r, StatementResult::Done { affected: 2 });

        let StatementResult::Rows(rs) = exec(
            &mut db,
            "SELECT movies.title FROM movies WHERE movies.rating > 8",
        ) else {
            panic!("expected rows")
        };
        assert_eq!(rs.rows.to_vecs(), vec![vec![Value::Str("Alien".into())]]);

        exec(&mut db, "DROP TABLE movies");
        assert!(!db.has_table("movies"));
    }

    #[test]
    fn insert_type_checked() {
        let mut db = Database::new();
        exec(&mut db, "CREATE TABLE t (x INT NOT NULL)");
        assert!(execute_statement(&mut db, "INSERT INTO t VALUES ('nope')").is_err());
        assert!(execute_statement(&mut db, "INSERT INTO t VALUES (NULL)").is_err());
        // A batch is stored whole or not at all.
        assert!(execute_statement(&mut db, "INSERT INTO t VALUES (1), ('nope')").is_err());
        assert_eq!(db.table("t").unwrap().row_count(), 0);
        assert!(execute_statement(&mut db, "INSERT INTO t VALUES (-5)").is_ok());
    }

    #[test]
    fn varchar_len_and_keywords_case() {
        let mut db = Database::new();
        exec(&mut db, "create table u (name varchar(64), age integer)");
        exec(&mut db, "insert into u values ('ann', 30)");
        let StatementResult::Rows(rs) = exec(&mut db, "SELECT * FROM u") else {
            panic!()
        };
        assert_eq!(rs.rows.len(), 1);
    }

    #[test]
    fn parse_errors() {
        assert!(parse_statement("CREATE TABLE ()").is_err());
        assert!(parse_statement("INSERT INTO t (1)").is_err());
        assert!(parse_statement("UPDATE t SET x = 1").is_err());
        assert!(parse_statement("CREATE TABLE t (x BLOB)").is_err());
        assert!(parse_statement("DROP TABLE t extra").is_err());
        assert!(parse_statement("DROP ééé").is_err());
        assert!(parse_statement("CREATE TABLE t (x ééééé)").is_err());
    }

    #[test]
    fn drop_missing_table_errors() {
        let mut db = Database::new();
        assert!(execute_statement(&mut db, "DROP TABLE ghost").is_err());
    }

    #[test]
    fn negative_and_float_literals() {
        let mut db = Database::new();
        exec(&mut db, "CREATE TABLE n (a INT, b FLOAT)");
        exec(&mut db, "INSERT INTO n VALUES (-3, -2.5)");
        let StatementResult::Rows(rs) = exec(&mut db, "SELECT * FROM n") else {
            panic!()
        };
        assert_eq!(rs.rows[0], vec![Value::Int(-3), Value::Float(-2.5)]);
    }
}

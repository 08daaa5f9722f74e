//! Statements besides SELECT: DDL (`CREATE TABLE`, `DROP TABLE`) and DML
//! (`INSERT INTO ... VALUES`), so the engine is usable as a small
//! standalone database (e.g. from the `sql_repl` example). They are read on
//! the query parser's tokens, with its cursor ([`crate::sql`] documents the
//! grammar of both); this module holds the statement types, their grammar
//! and their execution.

use crate::catalog::Database;
use crate::error::DbResult;
use crate::exec::ResultSet;
use crate::query::Query;
use crate::schema::{ColumnDef, Schema};
use crate::sql::{Parser, Tok};
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

/// Parse a statement: tokenize `text` once, then read the statement its
/// first keyword names.
pub fn parse_statement(text: &str) -> DbResult<Statement> {
    let mut p = Parser::new(text)?;
    let head = match p.peek() {
        Tok::Ident(kw) => kw.to_ascii_uppercase(),
        _ => String::new(),
    };
    match head.as_str() {
        "SELECT" => Ok(Statement::Select(p.query()?)),
        "CREATE" => parse_create(&mut p),
        "DROP" => parse_drop(&mut p),
        "INSERT" => parse_insert(&mut p),
        other => Err(p.error(format!("unsupported statement '{other}'"))),
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

fn parse_type(p: &mut Parser) -> DbResult<ValueType> {
    let name = match p.peek() {
        Tok::Ident(name) => name.to_ascii_uppercase(),
        _ => String::new(),
    };
    let ty = match name.as_str() {
        "INT" | "INTEGER" | "BIGINT" => ValueType::Int,
        "FLOAT" | "DOUBLE" | "REAL" => ValueType::Float,
        "TEXT" | "VARCHAR" | "STRING" => ValueType::Str,
        "BOOL" | "BOOLEAN" => ValueType::Bool,
        _ => return Err(p.error("expected a column type (INT/FLOAT/TEXT/BOOL)")),
    };
    p.bump();
    // Optional (n) length suffix, ignored.
    if p.eat_sym("(") {
        p.literal_value()?;
        p.expect_sym(")")?;
    }
    Ok(ty)
}

fn parse_create(p: &mut Parser) -> DbResult<Statement> {
    p.expect_kw("CREATE")?;
    p.expect_kw("TABLE")?;
    let name = p.ident()?;
    p.expect_sym("(")?;
    let mut cols = Vec::new();
    loop {
        let col = p.ident()?;
        let mut def = ColumnDef::new(col, parse_type(p)?);
        if p.eat_kw("NOT") {
            p.expect_kw("NULL")?;
            def = def.not_null();
        }
        cols.push(def);
        if !p.eat_sym(",") {
            break;
        }
    }
    p.expect_sym(")")?;
    p.end()?;
    Ok(Statement::CreateTable {
        name,
        schema: Schema::new(cols)?,
    })
}

fn parse_drop(p: &mut Parser) -> DbResult<Statement> {
    p.expect_kw("DROP")?;
    p.expect_kw("TABLE")?;
    let name = p.ident()?;
    p.end()?;
    Ok(Statement::DropTable { name })
}

fn parse_insert(p: &mut Parser) -> DbResult<Statement> {
    p.expect_kw("INSERT")?;
    p.expect_kw("INTO")?;
    let table = p.ident()?;
    p.expect_kw("VALUES")?;
    let mut rows = Vec::new();
    loop {
        p.expect_sym("(")?;
        let mut row = vec![p.literal_value()?];
        while p.eat_sym(",") {
            row.push(p.literal_value()?);
        }
        p.expect_sym(")")?;
        rows.push(row);
        if !p.eat_sym(",") {
            break;
        }
    }
    p.end()?;
    Ok(Statement::Insert { table, rows })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::DbError;
    use crate::sql;

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
        // The error is at the unknown type, not past it.
        let Err(DbError::Parse { position, .. }) = parse_statement("CREATE TABLE t (x BLOB)")
        else {
            panic!("BLOB is not a type")
        };
        assert_eq!(position, 18);

        // INSERT reads literals as WHERE does, `i64::MIN` included; a
        // digit run past `i64` is a Float in both. Debug text tells `Int`
        // from `Float` (`Value`'s `==` is numeric).
        for (lit, want) in [
            ("1e3", Value::Float(1e3)),
            ("1E5", Value::Float(1e5)),
            ("1e-3", Value::Float(1e-3)),
            ("- 3", Value::Int(-3)),
            ("-9223372036854775808", Value::Int(i64::MIN)),
            ("9223372036854775808", Value::Float(9223372036854775808.0)),
        ] {
            let insert = parse_statement(&format!("INSERT INTO t VALUES ({lit})"));
            assert!(
                format!("{insert:?}").contains(&format!("rows: [[{want:?}]]")),
                "{insert:?}"
            );
            let select = sql::parse(&format!("SELECT * FROM t WHERE t.x = {lit}"));
            assert!(
                format!("{select:?}").contains(&format!("Literal({want:?})")),
                "{select:?}"
            );
        }
        // What WHERE and FROM reject, INSERT and CREATE reject too.
        for lit in ["+5", ".5", "5."] {
            assert!(parse_statement(&format!("INSERT INTO t VALUES ({lit})")).is_err());
            assert!(sql::parse(&format!("SELECT * FROM t WHERE t.x = {lit}")).is_err());
        }
        assert!(parse_statement("CREATE TABLE t (x VARCHAR())").is_err());
        assert!(parse_statement("CREATE TABLE 1t (x INT)").is_err());
        assert!(sql::parse("SELECT * FROM 1t").is_err());
        // A statement ends as a query does: an optional `;`, then blanks.
        assert!(parse_statement("DROP TABLE t ;  ").is_ok());
        assert!(sql::parse("SELECT * FROM t ;  ").is_ok());
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
        assert_eq!(rs.rows.row(0), vec![Value::Int(-3), Value::Float(-2.5)]);
    }
}

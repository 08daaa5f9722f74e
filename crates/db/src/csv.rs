//! CSV import/export — the practical on-ramp for loading real data into the
//! engine (and therefore into ASQP-RL training).
//!
//! Dialect: comma-separated, `"`-quoted fields with `""` escapes, first row
//! is the header. Types are inferred column-by-column from the data unless a
//! schema is supplied: INT ⊂ FLOAT ⊂ TEXT, with BOOL for true/false columns
//! and empty fields as NULL.

use crate::error::{DbError, DbResult};
use crate::schema::Schema;
use crate::table::Table;
use crate::value::{Row, Value, ValueType};
use std::fmt::Write as _;

/// Parse one CSV record (handles quotes); returns fields and consumed bytes.
fn parse_record(input: &str) -> Option<(Vec<String>, usize)> {
    if input.is_empty() {
        return None;
    }
    let bytes = input.as_bytes();
    let mut fields = Vec::new();
    let mut field = String::new();
    let mut i = 0usize;
    let mut in_quotes = false;
    while i < bytes.len() {
        let c = bytes[i];
        if in_quotes {
            if c == b'"' {
                if bytes.get(i + 1) == Some(&b'"') {
                    field.push('"');
                    i += 2;
                    continue;
                }
                in_quotes = false;
                i += 1;
            } else {
                // Multi-byte chars are copied verbatim.
                let ch_len = utf8_len(c);
                field.push_str(&input[i..i + ch_len]);
                i += ch_len;
            }
        } else {
            match c {
                b'"' if field.is_empty() => {
                    in_quotes = true;
                    i += 1;
                }
                b',' => {
                    fields.push(std::mem::take(&mut field));
                    i += 1;
                }
                b'\r' if bytes.get(i + 1) == Some(&b'\n') => {
                    fields.push(std::mem::take(&mut field));
                    return Some((fields, i + 2));
                }
                b'\n' => {
                    fields.push(std::mem::take(&mut field));
                    return Some((fields, i + 1));
                }
                _ => {
                    let ch_len = utf8_len(c);
                    field.push_str(&input[i..i + ch_len]);
                    i += ch_len;
                }
            }
        }
    }
    fields.push(field);
    Some((fields, bytes.len()))
}

fn utf8_len(first_byte: u8) -> usize {
    match first_byte {
        b if b < 0x80 => 1,
        b if b >= 0xF0 => 4,
        b if b >= 0xE0 => 3,
        _ => 2,
    }
}

/// Parse a full CSV document into (header, records), skipping blank lines.
fn parse_csv(text: &str) -> DbResult<(Vec<String>, Vec<Vec<String>>)> {
    let mut rest = text;
    let mut rows: Vec<Vec<String>> = Vec::new();
    while let Some((fields, used)) = parse_record(rest) {
        rest = &rest[used..];
        if fields.len() == 1 && fields[0].is_empty() {
            continue; // blank line
        }
        rows.push(fields);
        if rest.is_empty() {
            break;
        }
    }
    if rows.is_empty() {
        return Err(DbError::ShapeMismatch("CSV has no header row".into()));
    }
    let header = rows.remove(0);
    Ok((header, rows))
}

/// Infer the narrowest [`ValueType`] that admits every non-empty cell.
fn infer_type(cells: impl Iterator<Item = impl AsRef<str>>) -> ValueType {
    let mut ty = None::<ValueType>;
    for cell in cells {
        let s = cell.as_ref().trim();
        if s.is_empty() {
            continue;
        }
        let cell_ty = if s.parse::<i64>().is_ok() {
            ValueType::Int
        } else if s.parse::<f64>().is_ok() {
            ValueType::Float
        } else if s.eq_ignore_ascii_case("true") || s.eq_ignore_ascii_case("false") {
            ValueType::Bool
        } else {
            ValueType::Str
        };
        ty = Some(match (ty, cell_ty) {
            (None, t) => t,
            (Some(a), b) if a == b => a,
            (Some(ValueType::Int), ValueType::Float) | (Some(ValueType::Float), ValueType::Int) => {
                ValueType::Float
            }
            _ => ValueType::Str,
        });
    }
    ty.unwrap_or(ValueType::Str)
}

fn parse_cell(s: &str, ty: ValueType) -> DbResult<Value> {
    let t = s.trim();
    if t.is_empty() {
        return Ok(Value::Null);
    }
    Ok(match ty {
        ValueType::Int => Value::Int(t.parse().map_err(|_| DbError::TypeMismatch {
            expected: "INT".into(),
            found: t.to_string(),
        })?),
        ValueType::Float => Value::Float(t.parse().map_err(|_| DbError::TypeMismatch {
            expected: "FLOAT".into(),
            found: t.to_string(),
        })?),
        ValueType::Bool => Value::Bool(t.eq_ignore_ascii_case("true")),
        ValueType::Str => Value::Str(s.into()),
    })
}

/// Load CSV text into a new table named `name`. With `schema: None`, column
/// types are inferred from the data.
pub fn load_csv(name: &str, text: &str, schema: Option<Schema>) -> DbResult<Table> {
    let (header, rows) = parse_csv(text)?;
    let schema = match schema {
        Some(s) => {
            if s.len() != header.len() {
                return Err(DbError::ShapeMismatch(format!(
                    "schema has {} columns, CSV header has {}",
                    s.len(),
                    header.len()
                )));
            }
            s
        }
        None => {
            let defs: Vec<(String, ValueType)> = header
                .iter()
                .enumerate()
                .map(|(ci, h)| {
                    let ty = infer_type(rows.iter().filter_map(|r| r.get(ci)));
                    (h.trim().to_string(), ty)
                })
                .collect();
            Schema::build(
                &defs
                    .iter()
                    .map(|(n, t)| (n.as_str(), *t))
                    .collect::<Vec<_>>(),
            )
        }
    };

    let mut table = Table::with_capacity(name, schema.clone(), rows.len());
    for (ri, row) in rows.iter().enumerate() {
        if row.len() != schema.len() {
            return Err(DbError::ShapeMismatch(format!(
                "record {} has {} fields, expected {}",
                ri + 2, // 1-based, after the header
                row.len(),
                schema.len()
            )));
        }
        let values: Vec<Value> = row
            .iter()
            .zip(schema.columns())
            .map(|(cell, col)| parse_cell(cell, col.ty))
            .collect::<DbResult<_>>()?;
        table.push_row(&values)?;
    }
    Ok(table)
}

/// Export rows (a table's, or a query result's `&Rows`) with their column
/// names as CSV text.
pub fn to_csv(columns: &[String], rows: impl IntoIterator<Item = Row>) -> String {
    let quote = |s: &str| {
        if s.contains([',', '"', '\n']) {
            format!("\"{}\"", s.replace('"', "\"\""))
        } else {
            s.to_string()
        }
    };
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{}",
        columns
            .iter()
            .map(|c| quote(c))
            .collect::<Vec<_>>()
            .join(",")
    );
    for row in rows {
        let cells: Vec<String> = row
            .iter()
            .map(|v| match v {
                Value::Null => String::new(),
                Value::Str(s) => quote(s),
                other => other.to_string(),
            })
            .collect();
        let _ = writeln!(out, "{}", cells.join(","));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = "id,name,score,active\n1,alice,9.5,true\n2,\"bob, the \"\"builder\"\"\",7,false\n3,carol,,true\n";

    #[test]
    fn load_with_inference() {
        let t = load_csv("people", SAMPLE, None).unwrap();
        assert_eq!(t.row_count(), 3);
        let s = t.schema();
        assert_eq!(s.column(0).ty, ValueType::Int);
        assert_eq!(s.column(1).ty, ValueType::Str);
        assert_eq!(s.column(2).ty, ValueType::Float);
        assert_eq!(s.column(3).ty, ValueType::Bool);
        assert_eq!(t.value(1, 1), Value::Str("bob, the \"builder\"".into()));
        assert_eq!(t.value(2, 2), Value::Null);
    }

    #[test]
    fn roundtrip_through_csv() {
        let t = load_csv("people", SAMPLE, None).unwrap();
        let cols: Vec<String> = t
            .schema()
            .columns()
            .iter()
            .map(|c| c.name.clone())
            .collect();
        let rows: crate::exec::Rows = (0..t.row_count()).map(|r| t.row(r)).collect();
        let text = to_csv(&cols, &rows);
        let t2 = load_csv("people2", &text, Some(t.schema().clone())).unwrap();
        for r in 0..t.row_count() {
            assert_eq!(t.row(r), t2.row(r));
        }
    }

    #[test]
    fn mixed_int_float_widens() {
        let t = load_csv("t", "x\n1\n2.5\n3\n", None).unwrap();
        assert_eq!(t.schema().column(0).ty, ValueType::Float);
        assert_eq!(t.value(0, 0), Value::Float(1.0));
    }

    #[test]
    fn shape_errors() {
        assert!(load_csv("t", "", None).is_err());
        assert!(load_csv("t", "a,b\n1\n", None).is_err());
    }

    #[test]
    fn crlf_and_blank_lines() {
        let t = load_csv("t", "a,b\r\n1,2\r\n\r\n3,4\r\n", None).unwrap();
        assert_eq!(t.row_count(), 2);
        assert_eq!(t.value(1, 1), Value::Int(4));
    }

    #[test]
    fn loaded_table_is_queryable() {
        let mut db = crate::Database::new();
        db.add_table(load_csv("people", SAMPLE, None).unwrap())
            .unwrap();
        let r = db
            .sql("SELECT people.name FROM people WHERE people.score >= 8")
            .unwrap();
        assert_eq!(r.rows.len(), 1);
        assert_eq!(r.rows.get(0, 0), Value::Str("alice".into()));
    }
}

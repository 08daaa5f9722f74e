//! ASCII tables and JSON result persistence for the figure runner.

use std::fmt::Write as _;
use std::io::Write;
use std::path::PathBuf;

/// A simple column-aligned table.
#[derive(Debug, Clone, Default)]
pub struct Table {
    pub title: String,
    pub headers: Vec<String>,
    pub rows: Vec<Vec<String>>,
}

impl Table {
    pub fn new(title: impl Into<String>, headers: &[&str]) -> Table {
        Table {
            title: title.into(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.headers.len(), "row width mismatch");
        self.rows.push(cells);
    }

    pub fn render(&self) -> String {
        let ncols = self.headers.len();
        let mut widths: Vec<usize> = self.headers.iter().map(String::len).collect();
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        let mut out = String::new();
        if !self.title.is_empty() {
            let _ = writeln!(out, "\n== {} ==", self.title);
        }
        let line = |out: &mut String, cells: &[String]| {
            for i in 0..ncols {
                let _ = write!(out, "{:<w$}  ", cells[i], w = widths[i]);
            }
            let _ = writeln!(out);
        };
        line(&mut out, &self.headers);
        let sep: Vec<String> = widths.iter().map(|&w| "-".repeat(w)).collect();
        line(&mut out, &sep);
        for row in &self.rows {
            line(&mut out, row);
        }
        out
    }
}

/// Render a table onto a figure's output stream.
pub fn print_table(out: &mut dyn Write, table: &Table) -> std::io::Result<()> {
    out.write_all(table.render().as_bytes())
}

/// Persist a figure's JSON under `results/<name>.json` (working directory),
/// creating the directory if needed. Errors are reported, not fatal — the
/// printed table is the primary output.
pub fn save_json(name: &str, json: &str) {
    let path = PathBuf::from("results").join(format!("{name}.json"));
    match std::fs::create_dir_all("results").and_then(|()| std::fs::write(&path, json)) {
        Ok(()) => eprintln!("[saved {}]", path.display()),
        Err(e) => eprintln!("warning: cannot write {}: {e}", path.display()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned() {
        let mut t = Table::new("demo", &["name", "score"]);
        t.row(vec!["ASQP-RL".into(), "0.64".into()]);
        t.row(vec!["RAN".into(), "0.29".into()]);
        let r = t.render();
        assert!(r.contains("== demo =="));
        assert!(r.contains("ASQP-RL  0.64"));
        let lines: Vec<&str> = r.lines().collect();
        // leading blank + title + header + separator + 2 rows
        assert_eq!(lines.len(), 6);
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn row_width_checked() {
        let mut t = Table::new("x", &["a", "b"]);
        t.row(vec!["only-one".into()]);
    }
}

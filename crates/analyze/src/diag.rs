//! Diagnostics: rustc-style human rendering and a hand-rolled JSON mode
//! (the crate is dependency-free, so no serde here).

use std::fmt::Write as _;

/// One finding, anchored to a `file:line:col`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Rule identifier, e.g. `nondet` or `panic-path`.
    pub rule: &'static str,
    /// Workspace-relative path.
    pub path: String,
    pub line: usize,
    pub col: usize,
    /// What was found, with the offending snippet.
    pub message: String,
    /// How to fix it (or how to suppress it with a justified pragma).
    pub help: String,
}

impl Finding {
    /// Sort key for deterministic output.
    fn key(&self) -> (&str, usize, usize, &str) {
        (&self.path, self.line, self.col, self.rule)
    }
}

/// The full result of an analysis run.
#[derive(Debug, Default)]
pub struct Report {
    pub findings: Vec<Finding>,
    pub files_scanned: usize,
    /// Pragmas that suppressed at least one finding (for the summary line).
    pub allows_used: usize,
}

impl Report {
    /// Canonical ordering: by path, line, column, rule. Also collapses
    /// exact duplicates (the interprocedural pass can derive the same
    /// edge or call-site finding from several witnesses).
    pub fn sort(&mut self) {
        self.findings.sort_by(|a, b| a.key().cmp(&b.key()));
        self.findings.dedup();
    }

    pub fn is_clean(&self) -> bool {
        self.findings.is_empty()
    }

    /// Human mode: one rustc-style block per finding plus a summary line.
    pub fn render_human(&self) -> String {
        let mut out = String::new();
        for f in &self.findings {
            let _ = writeln!(out, "error[{}]: {}", f.rule, f.message);
            let _ = writeln!(out, "  --> {}:{}:{}", f.path, f.line, f.col);
            let _ = writeln!(out, "  = help: {}", f.help);
        }
        let _ = writeln!(
            out,
            "asqp-analyze: {} finding(s), {} file(s) scanned, {} allow pragma(s) honoured",
            self.findings.len(),
            self.files_scanned,
            self.allows_used
        );
        out
    }

    /// Machine mode: a single JSON object. Keys are emitted in a fixed
    /// order so same-tree runs are byte-identical.
    pub fn render_json(&self) -> String {
        let mut out = String::from("{\n");
        let _ = writeln!(out, "  \"files_scanned\": {},", self.files_scanned);
        let _ = writeln!(out, "  \"allows_used\": {},", self.allows_used);
        let _ = writeln!(out, "  \"finding_count\": {},", self.findings.len());
        out.push_str("  \"findings\": [");
        for (i, f) in self.findings.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("\n    {");
            let _ = write!(out, "\"rule\": {}, ", json_str(f.rule));
            let _ = write!(out, "\"path\": {}, ", json_str(&f.path));
            let _ = write!(out, "\"line\": {}, ", f.line);
            let _ = write!(out, "\"col\": {}, ", f.col);
            let _ = write!(out, "\"message\": {}, ", json_str(&f.message));
            let _ = write!(out, "\"help\": {}", json_str(&f.help));
            out.push('}');
        }
        if !self.findings.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str("]\n}\n");
        out
    }
}

/// Minimal JSON string escaping (control chars, quote, backslash).
fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn finding(path: &str, line: usize, rule: &'static str) -> Finding {
        Finding {
            rule,
            path: path.to_string(),
            line,
            col: 1,
            message: format!("msg {rule}"),
            help: "fix \"it\"".to_string(),
        }
    }

    #[test]
    fn sort_is_by_path_line_col_rule() {
        let mut r = Report {
            findings: vec![
                finding("b.rs", 1, "nondet"),
                finding("a.rs", 9, "nondet"),
                finding("a.rs", 2, "panic-path"),
            ],
            files_scanned: 2,
            allows_used: 0,
        };
        r.sort();
        let order: Vec<_> = r
            .findings
            .iter()
            .map(|f| (f.path.clone(), f.line))
            .collect();
        assert_eq!(
            order,
            vec![("a.rs".into(), 2), ("a.rs".into(), 9), ("b.rs".into(), 1)]
        );
    }

    #[test]
    fn json_escapes_and_counts() {
        let mut r = Report {
            files_scanned: 1,
            ..Report::default()
        };
        r.findings.push(finding("x.rs", 3, "iter-order"));
        let js = r.render_json();
        assert!(js.contains("\"finding_count\": 1"));
        assert!(js.contains("\\\"it\\\""), "quotes must be escaped: {js}");
    }

    #[test]
    fn human_render_is_rustc_style() {
        let mut r = Report::default();
        r.findings.push(finding("crates/x/src/lib.rs", 7, "nondet"));
        let h = r.render_human();
        assert!(h.contains("error[nondet]"));
        assert!(h.contains("--> crates/x/src/lib.rs:7:1"));
    }
}

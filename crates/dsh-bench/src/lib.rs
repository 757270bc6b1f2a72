//! Shared infrastructure for the experiment binaries (`src/bin/fig*.rs`,
//! `src/bin/tab*.rs`) that regenerate every figure and quantitative claim
//! of the paper.
//!
//! Each binary prints an aligned table to stdout and writes the same rows
//! as CSV into `results/` (created on demand) so `EXPERIMENTS.md` can
//! reference stable artifacts.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

use std::fmt::Write as _;
use std::path::Path;

/// An experiment report: a titled table with typed-ish string cells.
pub struct Report {
    title: String,
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
    notes: Vec<String>,
}

impl Report {
    /// Start a report.
    pub fn new(title: impl Into<String>, headers: &[&str]) -> Self {
        Report {
            title: title.into(),
            headers: headers.iter().map(ToString::to_string).collect(),
            rows: Vec::new(),
            notes: Vec::new(),
        }
    }

    /// Append a row (must match the header arity).
    pub fn row(&mut self, cells: Vec<String>) {
        // lint: allow(panic) — bench report builder, never on a serving path; flagged via a conservative name-match edge
        assert_eq!(cells.len(), self.headers.len(), "row arity mismatch");
        self.rows.push(cells);
    }

    /// Append a free-text note printed under the table.
    pub fn note(&mut self, text: impl Into<String>) {
        self.notes.push(text.into());
    }

    /// Render the aligned table.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(String::len).collect();
        for row in &self.rows {
            for (w, c) in widths.iter_mut().zip(row) {
                *w = (*w).max(c.len());
            }
        }
        let mut out = String::new();
        let _ = writeln!(out, "== {} ==", self.title);
        let line: String = self
            .headers
            .iter()
            .zip(&widths)
            .map(|(h, w)| format!("{h:>w$}"))
            .collect::<Vec<_>>()
            .join("  ");
        let _ = writeln!(out, "{line}");
        let _ = writeln!(out, "{}", "-".repeat(line.len()));
        for row in &self.rows {
            let line: String = row
                .iter()
                .zip(&widths)
                .map(|(c, w)| format!("{c:>w$}"))
                .collect::<Vec<_>>()
                .join("  ");
            let _ = writeln!(out, "{line}");
        }
        for n in &self.notes {
            let _ = writeln!(out, "note: {n}");
        }
        out
    }

    /// Print to stdout and write `results/<name>.csv`.
    pub fn emit(&self, name: &str) {
        println!("{}", self.render());
        let dir = Path::new("results");
        if std::fs::create_dir_all(dir).is_ok() {
            let mut csv = String::new();
            let _ = writeln!(csv, "{}", self.headers.join(","));
            for row in &self.rows {
                let _ = writeln!(csv, "{}", row.join(","));
            }
            let path = dir.join(format!("{name}.csv"));
            if let Err(e) = std::fs::write(&path, csv) {
                eprintln!("warning: could not write {}: {e}", path.display());
            } else {
                println!("[wrote results/{name}.csv]");
            }
        }
    }
}

/// Format a float with `p` significant decimals.
pub fn fmt(v: f64, p: usize) -> String {
    format!("{v:.p$}")
}

/// Format a float in scientific notation.
pub fn fmt_sci(v: f64) -> String {
    format!("{v:.3e}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_renders_aligned() {
        let mut r = Report::new("demo", &["x", "value"]);
        r.row(vec!["1".into(), "10.5".into()]);
        r.row(vec!["200".into(), "3".into()]);
        r.note("hello");
        let s = r.render();
        assert!(s.contains("== demo =="));
        assert!(s.contains("note: hello"));
        // Right-aligned columns: "200" should appear directly under "  1".
        assert!(s.lines().count() >= 5);
    }

    #[test]
    #[should_panic(expected = "row arity mismatch")]
    fn arity_checked() {
        let mut r = Report::new("demo", &["a", "b"]);
        r.row(vec!["1".into()]);
    }

    #[test]
    fn formatters() {
        assert_eq!(fmt(1.23456, 2), "1.23");
        assert_eq!(fmt_sci(0.000123), "1.230e-4");
    }
}

//! Column-aligned text tables for experiment output.
//!
//! The examples print their results as plain text; this tiny renderer
//! keeps columns aligned and provides a CSV escape hatch for plotting.

use std::fmt::Write as _;

/// A simple text table.
#[derive(Debug, Clone)]
pub struct Table {
    title: String,
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with a title and column headers.
    pub fn new(title: impl Into<String>, headers: &[&str]) -> Self {
        Table {
            title: title.into(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row; must match the header arity.
    pub fn add_row(&mut self, cells: &[String]) {
        assert_eq!(
            cells.len(),
            self.headers.len(),
            "row arity {} != header arity {}",
            cells.len(),
            self.headers.len()
        );
        self.rows.push(cells.to_vec());
    }

    /// Convenience: appends a row of displayable values.
    pub fn row<D: std::fmt::Display>(&mut self, cells: &[D]) {
        let strings: Vec<String> = cells.iter().map(|c| c.to_string()).collect();
        self.add_row(&strings);
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True when no rows were added.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Renders with padded columns.
    pub fn render(&self) -> String {
        let ncols = self.headers.len();
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        if !self.title.is_empty() {
            let _ = writeln!(out, "=== {} ===", self.title);
        }
        let fmt_row = |cells: &[String]| {
            let mut line = String::new();
            for (i, width) in widths.iter().enumerate().take(ncols) {
                let cell = cells.get(i).map(String::as_str).unwrap_or("");
                let _ = write!(line, "{:<width$}", cell, width = width + 2);
            }
            line.trim_end().to_string()
        };
        let _ = writeln!(out, "{}", fmt_row(&self.headers));
        let total: usize = widths.iter().map(|w| w + 2).sum();
        let _ = writeln!(out, "{}", "-".repeat(total.saturating_sub(2)));
        for row in &self.rows {
            let _ = writeln!(out, "{}", fmt_row(row));
        }
        out
    }

    /// Renders as CSV (headers included, naive quoting for commas).
    pub fn to_csv(&self) -> String {
        let quote = |s: &String| {
            if s.contains(',') {
                format!("\"{s}\"")
            } else {
                s.clone()
            }
        };
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{}",
            self.headers.iter().map(quote).collect::<Vec<_>>().join(",")
        );
        for row in &self.rows {
            let _ = writeln!(
                out,
                "{}",
                row.iter().map(quote).collect::<Vec<_>>().join(",")
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned_columns() {
        let mut t = Table::new("Demo", &["graph", "time"]);
        t.row(&["LiveJournal", "1.01s"]);
        t.row(&["Friendster-long-name", "38.62s"]);
        let s = t.render();
        assert!(s.contains("=== Demo ==="));
        assert!(s.contains("LiveJournal"));
        // Columns aligned: both time cells start at the same offset.
        let lines: Vec<&str> = s.lines().collect();
        let idx = |line: &str, needle: &str| line.find(needle).unwrap();
        assert_eq!(idx(lines[3], "1.01s"), idx(lines[4], "38.62s"), "\n{s}");
    }

    #[test]
    #[should_panic(expected = "row arity")]
    fn arity_mismatch_panics() {
        let mut t = Table::new("x", &["a", "b"]);
        t.row(&["only-one"]);
    }

    #[test]
    fn csv_output() {
        let mut t = Table::new("x", &["name", "value"]);
        t.row(&["a,b".to_string(), "1".to_string()]);
        let csv = t.to_csv();
        assert_eq!(csv, "name,value\n\"a,b\",1\n");
    }

    #[test]
    fn empty_table() {
        let t = Table::new("empty", &["a"]);
        assert!(t.is_empty());
        assert!(t.render().contains("empty"));
    }
}

//! Table printing and JSON artifact output.

use std::fs;
use std::path::PathBuf;

/// A simple aligned text table printed to stdout in the paper's row format.
#[derive(Debug, Default)]
pub struct Table {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given column headers.
    #[must_use]
    pub fn new(header: &[&str]) -> Self {
        Self { header: header.iter().map(ToString::to_string).collect(), rows: Vec::new() }
    }

    /// Appends a row (stringified cells).
    pub fn row(&mut self, cells: Vec<String>) {
        self.rows.push(cells);
    }

    /// Renders the table with aligned columns.
    #[must_use]
    pub fn render(&self) -> String {
        let ncols = self.header.len();
        let mut widths: Vec<usize> = self.header.iter().map(String::len).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate().take(ncols) {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            cells
                .iter()
                .enumerate()
                .map(|(i, c)| format!("{:>w$}", c, w = widths.get(i).copied().unwrap_or(8)))
                .collect::<Vec<_>>()
                .join("  ")
        };
        out.push_str(&fmt_row(&self.header, &widths));
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (ncols - 1)));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row, &widths));
            out.push('\n');
        }
        out
    }

    /// Prints to stdout.
    pub fn print(&self) {
        print!("{}", self.render());
    }
}

/// Directory for experiment artifacts (`target/experiments`).
#[must_use]
pub fn experiments_dir() -> PathBuf {
    let target = std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| "target".into());
    PathBuf::from(target).join("experiments")
}

/// Writes a JSON artifact for an experiment; best-effort (failures are
/// reported to stderr, not fatal — the stdout table is the primary output).
pub fn write_json(name: &str, value: &crate::json::Value) {
    let dir = experiments_dir();
    if let Err(e) = fs::create_dir_all(&dir) {
        eprintln!("warn: cannot create {}: {e}", dir.display());
        return;
    }
    let path = dir.join(format!("{name}.json"));
    let s = crate::json::to_string_pretty(value);
    if let Err(e) = fs::write(&path, s) {
        eprintln!("warn: cannot write {}: {e}", path.display());
    } else {
        eprintln!("artifact: {}", path.display());
    }
}

/// Formats a fraction as a percentage with two decimals (paper style).
#[must_use]
pub fn pct(x: f64) -> String {
    format!("{:.2}", 100.0 * x)
}

/// Formats metres with one decimal (paper style for MAE/RMSE).
#[must_use]
pub fn meters(x: f64) -> String {
    format!("{x:.1}")
}

/// Formats seconds with two decimals.
#[must_use]
pub fn secs(x: f64) -> String {
    format!("{x:.2}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_alignment() {
        let mut t = Table::new(&["Method", "F1"]);
        t.row(vec!["MMA".into(), "94.35".into()]);
        t.row(vec!["Nearest".into(), "82.42".into()]);
        let s = t.render();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].contains("Method"));
        assert!(lines[2].ends_with("94.35"));
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(pct(0.9435), "94.35");
        assert_eq!(meters(84.1023), "84.1");
        assert_eq!(secs(0.876), "0.88");
    }
}

//! Tiny table writers used by the figure harness.
//!
//! The benchmark harness prints every figure's data series as a table on stdout and
//! writes the same rows as a CSV file under `bench_results/`, named by [`file_stem`].
//! Implemented by hand to keep the dependency set to the crates the rest of the
//! workspace already uses.

use std::io::Write;
use std::path::Path;

/// A simple rectangular table: a title, column headers, and string rows.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Table {
    /// Table title (figure id and caption).
    pub title: String,
    /// Column headers.
    pub columns: Vec<String>,
    /// Data rows; each row should have exactly `columns.len()` cells.
    pub rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates an empty table with the given title and column headers.
    pub fn new(title: impl Into<String>, columns: &[&str]) -> Self {
        Table {
            title: title.into(),
            columns: columns.iter().map(|c| c.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row. Panics if the cell count does not match the header count.
    pub fn push_row(&mut self, cells: Vec<String>) {
        assert_eq!(
            cells.len(),
            self.columns.len(),
            "row has {} cells but the table has {} columns",
            cells.len(),
            self.columns.len()
        );
        self.rows.push(cells);
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the table has no data rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Renders the table as CSV (header row first, comma-separated, quotes around cells
    /// containing commas or quotes).
    pub fn to_csv(&self) -> String {
        let mut out = String::new();
        out.push_str(&csv_row(&self.columns));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&csv_row(row));
            out.push('\n');
        }
        out
    }

    /// Renders the table as GitHub-flavoured markdown with the title as a heading.
    pub fn to_markdown(&self) -> String {
        let mut out = format!("### {}\n\n", self.title);
        out.push_str(&format!("| {} |\n", self.columns.join(" | ")));
        out.push_str(&format!(
            "|{}|\n",
            self.columns
                .iter()
                .map(|_| "---")
                .collect::<Vec<_>>()
                .join("|")
        ));
        for row in &self.rows {
            out.push_str(&format!("| {} |\n", row.join(" | ")));
        }
        out
    }

    /// Writes the CSV rendering to `path`, creating parent directories as needed.
    pub fn write_csv<P: AsRef<Path>>(&self, path: P) -> std::io::Result<()> {
        let path = path.as_ref();
        if let Some(parent) = path.parent() {
            std::fs::create_dir_all(parent)?;
        }
        let mut file = std::fs::File::create(path)?;
        file.write_all(self.to_csv().as_bytes())
    }
}

/// Quotes a single CSV row.
fn csv_row(cells: &[String]) -> String {
    cells
        .iter()
        .map(|c| {
            if c.contains(',') || c.contains('"') || c.contains('\n') {
                format!("\"{}\"", c.replace('"', "\"\""))
            } else {
                c.clone()
            }
        })
        .collect::<Vec<_>>()
        .join(",")
}

/// The CSV file name (without extension) of a table titled `title`: the figure id
/// before the first `:`, lower-cased, each run of punctuation one `_`.
pub fn file_stem(title: &str) -> String {
    let prefix: String = title
        .chars()
        .take_while(|&c| c != ':')
        .collect::<String>()
        .to_lowercase();
    prefix
        .chars()
        .map(|c| if c.is_alphanumeric() { c } else { '_' })
        .collect::<String>()
        .split('_')
        .filter(|s| !s.is_empty())
        .collect::<Vec<_>>()
        .join("_")
}

/// Formats a float with a sensible number of significant digits for table output.
pub fn fmt_f64(value: f64) -> String {
    if value == 0.0 {
        "0".to_string()
    } else if value.abs() >= 1000.0 || value.abs() < 0.001 {
        format!("{value:.3e}")
    } else {
        format!("{value:.4}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Table {
        let mut t = Table::new("Figure X: sample", &["machines", "seconds"]);
        t.push_row(vec!["12".into(), "0.95".into()]);
        t.push_row(vec!["16".into(), "0.80".into()]);
        t
    }

    #[test]
    fn csv_rendering() {
        let csv = sample().to_csv();
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines[0], "machines,seconds");
        assert_eq!(lines[1], "12,0.95");
        assert_eq!(lines.len(), 3);
    }

    #[test]
    fn csv_quotes_special_cells() {
        let mut t = Table::new("q", &["a"]);
        t.push_row(vec!["hello, world".into()]);
        t.push_row(vec!["say \"hi\"".into()]);
        let csv = t.to_csv();
        assert!(csv.contains("\"hello, world\""));
        assert!(csv.contains("\"say \"\"hi\"\"\""));
    }

    #[test]
    fn markdown_rendering() {
        let md = sample().to_markdown();
        assert!(md.starts_with("### Figure X"));
        assert!(md.contains("| machines | seconds |"));
        assert!(md.contains("| 12 | 0.95 |"));
    }

    #[test]
    fn len_and_empty() {
        assert!(Table::new("t", &["a"]).is_empty());
        assert_eq!(sample().len(), 2);
    }

    #[test]
    #[should_panic(expected = "cells")]
    fn mismatched_row_panics() {
        let mut t = Table::new("t", &["a", "b"]);
        t.push_row(vec!["only one".into()]);
    }

    #[test]
    fn write_csv_creates_file() {
        let dir = std::env::temp_dir().join("frogwild_report_test");
        let path = dir.join("sub").join("table.csv");
        std::fs::remove_file(&path).ok();
        sample().write_csv(&path).unwrap();
        let content = std::fs::read_to_string(&path).unwrap();
        assert!(content.starts_with("machines,seconds"));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn file_stems_keep_the_figure_id() {
        assert_eq!(file_stem("Figure 6(a): accuracy vs walkers"), "figure_6_a");
        assert_eq!(file_stem("Figures 3-4: accuracy"), "figures_3_4");
        assert_eq!(file_stem("no colon here"), "no_colon_here");
    }

    #[test]
    fn float_formatting() {
        assert_eq!(fmt_f64(0.0), "0");
        assert_eq!(fmt_f64(0.5), "0.5000");
        assert!(fmt_f64(1.23e9).contains('e'));
        assert!(fmt_f64(1e-9).contains('e'));
    }
}

//! Experiment harness utilities: paper-shaped table rendering.
//!
//! Every figure and table of the paper is regenerated by one binary in
//! `src/bin/`; this small library keeps their output format consistent (and
//! testable).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

/// A plain-text table with a title, header and aligned columns.
///
/// # Example
///
/// ```
/// let mut t = prt_bench::Table::new("demo", &["n", "ops"]);
/// t.row(&["8", "22"]);
/// let s = t.render();
/// assert!(s.contains("demo") && s.contains("22"));
/// ```
#[derive(Debug, Clone)]
pub struct Table {
    title: String,
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with a title and column headers.
    pub fn new(title: impl Into<String>, header: &[&str]) -> Table {
        Table {
            title: title.into(),
            header: header.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row (missing cells render empty, extras are kept).
    pub fn row(&mut self, cells: &[&str]) {
        self.rows.push(cells.iter().map(|s| s.to_string()).collect());
    }

    /// Appends a row of owned strings.
    pub fn row_owned(&mut self, cells: Vec<String>) {
        self.rows.push(cells);
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// `true` when the table has no data rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Renders the table with aligned columns.
    pub fn render(&self) -> String {
        let ncols = self
            .rows
            .iter()
            .map(Vec::len)
            .chain(std::iter::once(self.header.len()))
            .max()
            .unwrap_or(0);
        let mut widths = vec![0usize; ncols];
        for (w, h) in widths.iter_mut().zip(&self.header) {
            *w = (*w).max(h.chars().count());
        }
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                widths[i] = widths[i].max(c.chars().count());
            }
        }
        let fmt_row = |cells: &[String]| -> String {
            let mut line = String::new();
            #[allow(clippy::needless_range_loop)] // `cells` may be shorter than `ncols`
            for i in 0..ncols {
                let cell = cells.get(i).map(String::as_str).unwrap_or("");
                let pad = widths[i] - cell.chars().count();
                line.push_str(cell);
                line.push_str(&" ".repeat(pad));
                if i + 1 < ncols {
                    line.push_str("  ");
                }
            }
            line.trim_end().to_string()
        };
        let mut out = String::new();
        out.push_str(&format!("== {} ==\n", self.title));
        out.push_str(&fmt_row(&self.header));
        out.push('\n');
        let total: usize = widths.iter().sum::<usize>() + 2 * (ncols.saturating_sub(1));
        out.push_str(&"-".repeat(total));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row));
            out.push('\n');
        }
        out
    }

    /// Renders and prints to stdout.
    pub fn print(&self) {
        print!("{}", self.render());
    }
}

/// The loud CLI parsing every experiment binary uses: a malformed
/// argument or environment value prints `error: …` and exits 2, never
/// falling back silently to a default experiment.
pub use prt_svc::cli::{arg_or, die, env_or};

/// Writes `contents` to `path` atomically: the bytes go to a `<path>.tmp`
/// sibling first and are renamed into place, so a crash mid-write leaves
/// either the old file or the new one — never a torn half-result a
/// downstream consumer would read as truth.
///
/// # Errors
///
/// Any underlying I/O error (the temp file is cleaned up on a failed
/// rename).
pub fn write_atomic(path: impl AsRef<std::path::Path>, contents: &str) -> std::io::Result<()> {
    let path = path.as_ref();
    let tmp = path.with_extension(match path.extension() {
        Some(ext) => format!("{}.tmp", ext.to_string_lossy()),
        None => "tmp".to_string(),
    });
    std::fs::write(&tmp, contents)?;
    std::fs::rename(&tmp, path).inspect_err(|_| {
        let _ = std::fs::remove_file(&tmp);
    })
}

/// Formats a ratio as a percentage with one decimal.
pub fn pct(x: f64) -> String {
    format!("{x:.1}%")
}

/// Formats a float in compact scientific notation.
pub fn sci(x: f64) -> String {
    format!("{x:.2e}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned_columns() {
        let mut t = Table::new("t", &["a", "long-header"]);
        t.row(&["xxxxx", "1"]);
        t.row(&["y", "22"]);
        let s = t.render();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines[0], "== t ==");
        assert!(lines[1].starts_with("a      "));
        assert!(lines[3].starts_with("xxxxx"));
    }

    #[test]
    fn handles_ragged_rows() {
        let mut t = Table::new("r", &["a", "b"]);
        t.row(&["1"]);
        t.row(&["1", "2", "3"]);
        let s = t.render();
        assert!(s.contains('3'));
        assert_eq!(t.len(), 2);
        assert!(!t.is_empty());
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(pct(12.345), "12.3%");
        assert_eq!(sci(0.000012), "1.20e-5");
    }

    #[test]
    fn write_atomic_replaces_without_leaving_temp_files() {
        let mut p = std::env::temp_dir();
        p.push(format!("prt-bench-unit-{}.json", std::process::id()));
        write_atomic(&p, "{\"v\":1}").unwrap();
        assert_eq!(std::fs::read_to_string(&p).unwrap(), "{\"v\":1}");
        write_atomic(&p, "{\"v\":2}").unwrap();
        assert_eq!(std::fs::read_to_string(&p).unwrap(), "{\"v\":2}");
        assert!(!p.with_extension("json.tmp").exists(), "temp file must not survive");
        let _ = std::fs::remove_file(&p);
    }
}

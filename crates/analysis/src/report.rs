//! Plain-text tables for the reproduction binaries.
//!
//! Every `table_*`/`fig*` binary prints through this renderer so the
//! EXPERIMENTS.md evidence has one consistent format.

use std::fmt;

/// A simple left-aligned text table.
#[derive(Debug, Clone, Default)]
pub struct Table {
    title: String,
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// New table with a title and column headers.
    pub fn new(title: &str, headers: &[&str]) -> Table {
        Table {
            title: title.to_string(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Append a row.
    ///
    /// # Panics
    /// Panics if the arity differs from the headers'.
    pub fn row(&mut self, cells: &[String]) -> &mut Self {
        assert_eq!(cells.len(), self.headers.len(), "row arity mismatch");
        self.rows.push(cells.to_vec());
        self
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True if no rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }
}

impl fmt::Display for Table {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        writeln!(f, "== {} ==", self.title)?;
        let line = |f: &mut fmt::Formatter<'_>, cells: &[String]| -> fmt::Result {
            write!(f, "|")?;
            for (i, w) in widths.iter().enumerate() {
                write!(
                    f,
                    " {:<w$} |",
                    cells.get(i).map(String::as_str).unwrap_or(""),
                    w = w
                )?;
            }
            writeln!(f)
        };
        line(f, &self.headers)?;
        write!(f, "|")?;
        for w in &widths {
            write!(f, "{:-<w$}|", "", w = w + 2)?;
        }
        writeln!(f)?;
        for row in &self.rows {
            line(f, row)?;
        }
        Ok(())
    }
}

/// Format a fraction as a percent string, e.g. `5.6 %`.
pub fn pct(x: f64) -> String {
    format!("{:.1} %", 100.0 * x)
}

/// Format a count of the form "one in N million".
pub fn one_in(x: f64) -> String {
    if x.is_infinite() {
        "none observed".to_string()
    } else if x >= 1e9 {
        format!("one in {:.2} billion", x / 1e9)
    } else if x >= 1e6 {
        format!("one in {:.0} million", x / 1e6)
    } else {
        format!("one in {x:.0}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned() {
        let mut t = Table::new("Demo", &["host", "state"]);
        t.row(&["#15".into(), "taken indoors".into()]);
        t.row(&["#19 (spare)".into(), "running".into()]);
        let s = t.to_string();
        assert!(s.contains("== Demo =="));
        assert!(s.contains("| host        | state         |"), "{s}");
        assert!(s.lines().count() >= 5);
    }

    #[test]
    #[should_panic(expected = "arity")]
    fn arity_checked() {
        Table::new("x", &["a", "b"]).row(&["only-one".into()]);
    }

    #[test]
    fn pct_format() {
        assert_eq!(pct(0.0556), "5.6 %");
        assert_eq!(pct(0.0446), "4.5 %");
    }

    #[test]
    fn one_in_format() {
        assert_eq!(one_in(5.7e8), "one in 570 million");
        assert_eq!(one_in(3.2e9), "one in 3.20 billion");
        assert_eq!(one_in(1234.0), "one in 1234");
        assert_eq!(one_in(f64::INFINITY), "none observed");
    }

    #[test]
    fn empty_table() {
        let t = Table::new("empty", &["col"]);
        assert!(t.is_empty());
        assert_eq!(t.len(), 0);
        assert!(t.to_string().contains("col"));
    }
}

//! Text tables for the `mobicast` CLI.

use std::fmt::Write as _;

/// A simple aligned text table.
#[derive(Default)]
pub struct Table {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    pub fn new(header: &[&str]) -> Self {
        Table {
            header: header.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    pub fn row(&mut self, cells: Vec<String>) -> &mut Self {
        assert_eq!(cells.len(), self.header.len(), "row arity mismatch");
        self.rows.push(cells);
        self
    }

    pub fn render(&self) -> String {
        let ncols = self.header.len();
        let mut widths: Vec<usize> = self.header.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        let mut out = String::new();
        let line = |cells: &[String], out: &mut String| {
            for (i, c) in cells.iter().enumerate() {
                let pad = widths[i];
                if i + 1 == ncols {
                    let _ = write!(out, "{c:<pad$}");
                } else {
                    let _ = write!(out, "{c:<pad$}  ");
                }
            }
            out.push('\n');
        };
        line(&self.header, &mut out);
        let total: usize = widths.iter().sum::<usize>() + 2 * (ncols - 1);
        out.push_str(&"-".repeat(total));
        out.push('\n');
        for row in &self.rows {
            line(row, &mut out);
        }
        out
    }
}

/// Format seconds compactly.
pub fn secs(v: f64) -> String {
    if v == 0.0 {
        "0".into()
    } else if v < 0.001 {
        format!("{:.1}us", v * 1e6)
    } else if v < 1.0 {
        format!("{:.1}ms", v * 1e3)
    } else {
        format!("{v:.1}s")
    }
}

/// Format bytes compactly.
pub fn bytes(v: u64) -> String {
    if v >= 10_000_000 {
        format!("{:.1}MB", v as f64 / 1e6)
    } else if v >= 10_000 {
        format!("{:.1}kB", v as f64 / 1e3)
    } else {
        format!("{v}B")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned() {
        let mut t = Table::new(&["name", "value"]);
        t.row(vec!["short".into(), "1".into()]);
        t.row(vec!["a-much-longer-name".into(), "2".into()]);
        let s = t.render();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].starts_with("name"));
        assert!(lines[2].starts_with("short"));
        // Columns align: "1" and "2" start at the same offset.
        let c1 = lines[2].find('1').unwrap();
        let c2 = lines[3].find('2').unwrap();
        assert_eq!(c1, c2);
    }

    #[test]
    #[should_panic(expected = "row arity")]
    fn row_arity_checked() {
        Table::new(&["a", "b"]).row(vec!["x".into()]);
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(secs(0.0), "0");
        assert_eq!(secs(0.0000005), "0.5us");
        assert_eq!(secs(0.25), "250.0ms");
        assert_eq!(secs(42.0), "42.0s");
        assert_eq!(bytes(512), "512B");
        assert_eq!(bytes(25_000), "25.0kB");
        assert_eq!(bytes(12_000_000), "12.0MB");
    }
}

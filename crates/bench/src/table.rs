//! Minimal markdown table builder for experiment output.

/// A titled markdown table assembled row by row.
#[derive(Clone, Debug)]
pub struct Table {
    title: String,
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with a title and column headers.
    pub fn new(title: &str, header: &[&str]) -> Self {
        Table {
            title: title.to_string(),
            header: header.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row; missing cells are padded, extras truncated.
    pub fn add_row(&mut self, cells: Vec<String>) {
        let mut cells = cells;
        cells.resize(self.header.len(), String::new());
        self.rows.push(cells);
    }

    /// Renders the table as github-flavored markdown with a bold title.
    pub fn to_markdown(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("**{}**\n\n", self.title));
        let widths: Vec<usize> = self
            .header
            .iter()
            .enumerate()
            .map(|(i, h)| {
                self.rows
                    .iter()
                    .map(|r| r[i].len())
                    .chain(std::iter::once(h.len()))
                    .max()
                    .unwrap_or(3)
            })
            .collect();
        let fmt_row = |cells: &[String]| -> String {
            let padded: Vec<String> = cells
                .iter()
                .zip(&widths)
                .map(|(c, w)| format!("{c:<w$}"))
                .collect();
            format!("| {} |\n", padded.join(" | "))
        };
        out.push_str(&fmt_row(&self.header));
        let sep: Vec<String> = widths.iter().map(|w| "-".repeat(*w)).collect();
        out.push_str(&format!("|-{}-|\n", sep.join("-|-")));
        for row in &self.rows {
            out.push_str(&fmt_row(row));
        }
        out.push('\n');
        out
    }
}

/// A header row: `lead`, then the method columns `cols`.
pub fn header_with<'a>(lead: &[&'a str], cols: &'a [String]) -> Vec<&'a str> {
    let mut h = lead.to_vec();
    h.extend(cols.iter().map(String::as_str));
    h
}

/// Formats milliseconds with adaptive precision.
pub fn fmt_ms(ms: f64) -> String {
    if ms >= 1000.0 {
        format!("{:.1}s", ms / 1000.0)
    } else if ms >= 10.0 {
        format!("{ms:.0}ms")
    } else {
        format!("{ms:.2}ms")
    }
}

/// Formats a fraction as a percentage.
pub fn fmt_pct(frac: f64) -> String {
    if frac.is_infinite() || frac.is_nan() {
        "-".to_string()
    } else {
        format!("{:.2}%", frac * 100.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_markdown() {
        let mut t = Table::new("Demo", &["method", "time"]);
        t.add_row(vec!["SEA".into(), "1.2ms".into()]);
        t.add_row(vec!["Exact".into()]); // padded
        let md = t.to_markdown();
        assert!(md.contains("**Demo**"));
        assert!(md.contains("| method | time  |"));
        assert!(md.contains("| SEA    | 1.2ms |"));
        assert!(md.lines().count() >= 5);
    }

    #[test]
    fn formatters() {
        assert_eq!(fmt_ms(0.5), "0.50ms");
        assert_eq!(fmt_ms(42.0), "42ms");
        assert_eq!(fmt_ms(2500.0), "2.5s");
        assert_eq!(fmt_pct(0.0213), "2.13%");
        assert_eq!(fmt_pct(f64::INFINITY), "-");
    }
}

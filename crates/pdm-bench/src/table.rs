//! Minimal fixed-width table printing for the experiment binaries.

/// Renders a table with a header row, returning the formatted string.
#[must_use]
pub fn render(headers: &[&str], rows: &[Vec<String>]) -> String {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let mut out = String::new();
    let fmt_row = |cells: &[String], widths: &[usize]| -> String {
        let mut line = String::new();
        for (i, cell) in cells.iter().enumerate() {
            let width = widths.get(i).copied().unwrap_or(cell.len());
            line.push_str(&format!("{cell:<width$}  "));
        }
        line.trim_end().to_owned()
    };
    let header_cells: Vec<String> = headers.iter().map(|h| (*h).to_owned()).collect();
    out.push_str(&fmt_row(&header_cells, &widths));
    out.push('\n');
    out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * widths.len()));
    out.push('\n');
    for row in rows {
        out.push_str(&fmt_row(row, &widths));
        out.push('\n');
    }
    out
}

/// Formats a float with the given number of decimals.
#[must_use]
pub fn fmt(value: f64, decimals: usize) -> String {
    format!("{value:.decimals$}")
}

/// Formats a ratio as a percentage with two decimals.
#[must_use]
pub fn pct(value: f64) -> String {
    format!("{:.2}%", value * 100.0)
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// Asserts that a table [`render`] wrote carries exactly the headers
    /// `want`, in any order.
    pub(crate) fn assert_headers(table: &str, want: &[&str]) {
        let header = table.lines().next().unwrap_or_default();
        let mut got: Vec<&str> = header.split("  ").map(str::trim).collect();
        got.retain(|cell| !cell.is_empty());
        got.sort_unstable();
        let mut want = want.to_vec();
        want.sort_unstable();
        assert_eq!(got, want, "headers of\n{table}");
    }

    #[test]
    fn render_aligns_columns() {
        let out = render(
            &["name", "value"],
            &[
                vec!["a".into(), "1.0".into()],
                vec!["longer-name".into(), "2".into()],
            ],
        );
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].starts_with("name"));
        assert!(lines[2].starts_with("a"));
        assert!(lines[3].starts_with("longer-name"));
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(fmt(1.23456, 2), "1.23");
        assert_eq!(pct(0.0777), "7.77%");
    }
}

//! Shared helpers for the table-regeneration binaries: plain-text table
//! formatting.

/// Renders a simple aligned text table.
///
/// # Examples
///
/// ```
/// let t = heap_bench::render_table(
///     &["Op", "Time"],
///     &[vec!["Add".into(), "0.001".into()]],
/// );
/// assert!(t.contains("Add"));
/// ```
pub fn render_table(headers: &[&str], rows: &[Vec<String>]) -> String {
    let cols = headers.len();
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate().take(cols) {
            widths[i] = widths[i].max(cell.len());
        }
    }
    let mut out = String::new();
    let fmt_row = |cells: &[String], widths: &[usize]| -> String {
        let mut line = String::from("|");
        for (c, w) in cells.iter().zip(widths) {
            line.push_str(&format!(" {c:<w$} |"));
        }
        line.push('\n');
        line
    };
    let header_cells: Vec<String> = headers.iter().map(|h| h.to_string()).collect();
    out.push_str(&fmt_row(&header_cells, &widths));
    let mut sep = String::from("|");
    for w in &widths {
        sep.push_str(&format!("{:-<1$}|", "", w + 2));
    }
    sep.push('\n');
    out.push_str(&sep);
    for row in rows {
        out.push_str(&fmt_row(row, &widths));
    }
    out
}

/// Formats a speedup factor the way the paper prints them (`15.39x`).
pub fn speedup(base: f64, ours: f64) -> String {
    format!("{:.2}x", base / ours)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_alignment() {
        let t = render_table(
            &["A", "Bee"],
            &[
                vec!["x".into(), "1".into()],
                vec!["longer".into(), "2".into()],
            ],
        );
        let lines: Vec<&str> = t.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines.iter().all(|l| l.len() == lines[0].len()));
    }

    #[test]
    fn speedup_format() {
        assert_eq!(speedup(1.5, 0.1), "15.00x");
    }
}

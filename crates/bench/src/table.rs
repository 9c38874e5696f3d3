//! Minimal fixed-width table rendering for experiment reports.

/// Render a report: `title`, the header row, a rule, the data rows with
/// columns padded to content, then `footer` verbatim (`""` for none).
pub fn render(
    title: &str,
    header: &[&str],
    rows: impl IntoIterator<Item = Vec<String>>,
    footer: &str,
) -> String {
    let rows: Vec<Vec<String>> = rows.into_iter().collect();
    let cols = header.len();
    let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
    for r in &rows {
        assert_eq!(r.len(), cols, "row width mismatch");
        for (i, cell) in r.iter().enumerate() {
            widths[i] = widths[i].max(cell.len());
        }
    }
    let mut s = String::new();
    s.push_str(title);
    s.push('\n');
    let fmt_row = |cells: &[String]| -> String {
        let mut line = String::new();
        for (i, c) in cells.iter().enumerate() {
            if i > 0 {
                line.push_str("  ");
            }
            line.push_str(&format!("{:>width$}", c, width = widths[i]));
        }
        line
    };
    let hdr: Vec<String> = header.iter().map(|h| h.to_string()).collect();
    s.push_str(&fmt_row(&hdr));
    s.push('\n');
    s.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (cols - 1)));
    s.push('\n');
    for r in &rows {
        s.push_str(&fmt_row(r));
        s.push('\n');
    }
    s.push_str(footer);
    s
}

/// Format a float with 3 decimals.
pub fn f3(x: f64) -> String {
    format!("{x:.3}")
}

/// Format a float with 1 decimal.
pub fn f1(x: f64) -> String {
    format!("{x:.1}")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_rows() -> Vec<Vec<String>> {
        vec![vec!["1".into(), "2".into()], vec!["333".into(), "4".into()]]
    }

    #[test]
    fn renders_aligned() {
        let out = render("T", &["a", "bbbb"], two_rows(), "");
        assert_eq!(out, "T\n  a  bbbb\n---------\n  1     2\n333     4\n");
    }

    #[test]
    fn footer_follows_the_rows_exactly_once() {
        let footer = "\nfooter line\n";
        let out = render("T", &["a", "bbbb"], two_rows(), footer);
        assert_eq!(out.matches("footer line").count(), 1);
        assert_eq!(out, render("T", &["a", "bbbb"], two_rows(), "") + footer);
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn checks_width() {
        render("T", &["a"], [vec!["1".into(), "2".into()]], "");
    }
}

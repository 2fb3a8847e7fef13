//! Plain-text reporting helpers shared by the reproduction harnesses.
//!
//! Figures are emitted as aligned data series (one row per x value, one
//! column per curve) so the paper's plots can be regenerated with any
//! plotting tool; tables print directly in the paper's layout.

/// Render an aligned text table. A ragged row (length differing from the
/// header) is [`fault::Error::InvalidInput`]; an empty header renders as
/// an empty string rather than underflowing the separator-width
/// arithmetic (`2 * (ncol - 1)` wraps for `ncol == 0`).
pub fn try_render_table(header: &[String], rows: &[Vec<String>]) -> fault::Result<String> {
    let ncol = header.len();
    if ncol == 0 {
        return if rows.iter().all(|r| r.is_empty()) {
            Ok(String::new())
        } else {
            Err(fault::Error::invalid("table has rows but an empty header"))
        };
    }
    if let Some((i, row)) = rows.iter().enumerate().find(|(_, r)| r.len() != ncol) {
        return Err(fault::Error::invalid(format!(
            "ragged table: row {i} has {} cells for {ncol} columns",
            row.len()
        )));
    }
    Ok(render_aligned(header, rows))
}

/// Unchecked core of [`try_render_table`]: `header` is non-empty and
/// every row has exactly its width.
fn render_aligned(header: &[String], rows: &[Vec<String>]) -> String {
    let ncol = header.len();
    let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
    for row in rows {
        for (w, cell) in widths.iter_mut().zip(row) {
            *w = (*w).max(cell.len());
        }
    }
    let mut out = String::new();
    let fmt_row = |cells: &[String], widths: &[usize]| -> String {
        let mut line = String::new();
        for c in 0..ncol {
            if c > 0 {
                line.push_str("  ");
            }
            line.push_str(&format!("{:>width$}", cells[c], width = widths[c]));
        }
        line.push('\n');
        line
    };
    out.push_str(&fmt_row(header, &widths));
    let total: usize = widths.iter().sum::<usize>() + 2 * (ncol - 1);
    out.push_str(&"-".repeat(total));
    out.push('\n');
    for row in rows {
        out.push_str(&fmt_row(row, &widths));
    }
    out
}

/// Format a float with fixed decimals.
pub fn f(v: f64, decimals: usize) -> String {
    format!("{v:.decimals$}")
}

/// Percentage with two decimals.
pub fn pct(v: f64) -> String {
    format!("{v:.2}")
}

/// [`pct`], or "-" for NaN: a value that was never measured (a dropped
/// fit, an acquisition-only round).
fn pct_or_dash(v: f64) -> String {
    if v.is_nan() {
        "-".to_string()
    } else {
        pct(v)
    }
}

/// Format a figure data series: x label column plus named curves. NaN
/// points (a fit that was dropped) render as `-`.
pub fn render_series(x_label: &str, xs: &[String], curves: &[(&str, Vec<f64>)]) -> String {
    let header: Vec<String> = std::iter::once(x_label.to_string())
        .chain(curves.iter().map(|(n, _)| n.to_string()))
        .collect();
    let rows: Vec<Vec<String>> = xs
        .iter()
        .enumerate()
        .map(|(i, x)| {
            std::iter::once(x.clone())
                .chain(curves.iter().map(|(_, ys)| pct_or_dash(ys[i])))
                .collect()
        })
        .collect();
    render_aligned(&header, &rows)
}

/// Render an adaptive-exploration trajectory as an aligned text table:
/// one row per round with the simulation budget and the adaptive vs
/// equal-budget-random MAPEs. NaN errors (acquisition-only runs) render
/// as `-`.
pub fn render_trajectory(trajectory: &[crate::adaptive::TrajectoryPoint]) -> String {
    let header: Vec<String> = ["sims", "adaptive MAPE%", "random MAPE%"]
        .iter()
        .map(|s| s.to_string())
        .collect();
    let rows: Vec<Vec<String>> = trajectory
        .iter()
        .map(|p| {
            vec![
                p.budget.to_string(),
                pct_or_dash(p.adaptive_error),
                pct_or_dash(p.random_error),
            ]
        })
        .collect();
    render_aligned(&header, &rows)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned() {
        let out = try_render_table(
            &["model".into(), "error".into()],
            &[
                vec!["NN-E".into(), "1.80".into()],
                vec!["LR-B".into(), "4.20".into()],
            ],
        )
        .expect("rectangular table");
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].contains("model"));
        assert!(lines[2].contains("NN-E"));
        // All data lines equal width.
        assert_eq!(lines[2].len(), lines[3].len());
    }

    #[test]
    fn series_renders_one_row_per_x() {
        let out = render_series(
            "rate%",
            &["1".into(), "2".into()],
            &[("NN-E", vec![1.8, 0.9]), ("LR-B", vec![4.1, f64::NAN])],
        );
        assert_eq!(out.lines().count(), 4);
        assert!(out.contains("1.80"));
        assert!(
            out.lines()
                .nth(3)
                .is_some_and(|l| l.ends_with("0.90     -")),
            "{out}"
        );
    }

    #[test]
    fn trajectory_renders_nan_as_dash() {
        use crate::adaptive::TrajectoryPoint;
        let out = render_trajectory(&[
            TrajectoryPoint {
                budget: 16,
                adaptive_error: 3.25,
                random_error: 4.5,
            },
            TrajectoryPoint {
                budget: 24,
                adaptive_error: f64::NAN,
                random_error: f64::NAN,
            },
        ]);
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[2].contains("3.25") && lines[2].contains("4.50"));
        assert!(lines[3].contains('-') && !lines[3].contains("NaN"));
    }

    #[test]
    fn empty_header_renders_empty_instead_of_underflowing() {
        // Regression: `2 * (ncol - 1)` wrapped for ncol == 0 and panicked
        // in release-checked / debug builds.
        assert_eq!(try_render_table(&[], &[]).expect("empty table"), "");
        // Zero columns with rows of zero cells is still a zero-column table.
        assert_eq!(
            try_render_table(&[], &[vec![], vec![]]).expect("no cells"),
            ""
        );
        // Rows with cells but no header cannot be aligned to anything.
        let err = try_render_table(&[], &[vec!["x".into()]]).expect_err("cells, no header");
        assert_eq!(err.kind(), "invalid");
    }

    #[test]
    fn ragged_rows_are_typed_errors_in_the_fallible_path() {
        let err = try_render_table(&["a".into()], &[vec!["1".into(), "2".into()]])
            .expect_err("ragged row");
        assert_eq!(err.kind(), "invalid");
        assert!(err.to_string().contains("row 0"), "{err}");
    }
}

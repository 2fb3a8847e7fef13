//! Typed tabular data.
//!
//! Clementine distinguishes numeric, flag, and categorical ("set") fields
//! and treats them differently per model family (§3.4). [`Table`] carries
//! that typing so the preprocessing layer can reproduce the behaviour:
//! numeric fields scale to 0–1, flags become 0/1, categoricals one-hot for
//! networks and numeric-coded (or omitted) for regression.

use serde::{Deserialize, Serialize};

/// One column of data.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Column {
    /// Continuous or ordinal numeric field.
    Numeric(Vec<f64>),
    /// Boolean flag field.
    Flag(Vec<bool>),
    /// Categorical field: per-row level codes plus the level names.
    Categorical {
        /// Per-row index into `levels`.
        codes: Vec<u32>,
        /// Level names, indexed by code.
        levels: Vec<String>,
    },
}

impl Column {
    /// Number of rows.
    pub fn len(&self) -> usize {
        match self {
            Column::Numeric(v) => v.len(),
            Column::Flag(v) => v.len(),
            Column::Categorical { codes, .. } => codes.len(),
        }
    }

    /// Whether the column has no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Whether every row holds the same value (Clementine drops such
    /// predictors — "no variation", §3.4).
    pub fn is_constant(&self) -> bool {
        match self {
            Column::Numeric(v) => v.windows(2).all(|w| w[0] == w[1]),
            Column::Flag(v) => v.windows(2).all(|w| w[0] == w[1]),
            Column::Categorical { codes, .. } => codes.windows(2).all(|w| w[0] == w[1]),
        }
    }

    /// Select a subset of rows, in order.
    pub fn select(&self, rows: &[usize]) -> Column {
        match self {
            Column::Numeric(v) => Column::Numeric(rows.iter().map(|&i| v[i]).collect()),
            Column::Flag(v) => Column::Flag(rows.iter().map(|&i| v[i]).collect()),
            Column::Categorical { codes, levels } => Column::Categorical {
                codes: rows.iter().map(|&i| codes[i]).collect(),
                levels: levels.clone(),
            },
        }
    }
}

/// A predictor table with a numeric target.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Table {
    names: Vec<String>,
    columns: Vec<Column>,
    target: Vec<f64>,
}

impl Table {
    /// Empty table.
    pub fn new() -> Self {
        Table {
            names: Vec::new(),
            columns: Vec::new(),
            target: Vec::new(),
        }
    }

    /// Add a numeric predictor column.
    pub fn add_numeric(&mut self, name: impl Into<String>, values: Vec<f64>) -> &mut Self {
        self.push_column(name.into(), Column::Numeric(values))
    }

    /// Add a flag predictor column.
    pub fn add_flag(&mut self, name: impl Into<String>, values: Vec<bool>) -> &mut Self {
        self.push_column(name.into(), Column::Flag(values))
    }

    /// Add a categorical predictor column.
    pub fn add_categorical(
        &mut self,
        name: impl Into<String>,
        codes: Vec<u32>,
        levels: Vec<String>,
    ) -> &mut Self {
        for &c in &codes {
            assert!(
                (c as usize) < levels.len(),
                "categorical code {c} out of range ({} levels)",
                levels.len()
            );
        }
        self.push_column(name.into(), Column::Categorical { codes, levels })
    }

    fn push_column(&mut self, name: String, col: Column) -> &mut Self {
        if let Some(n) = self.n_rows_opt() {
            assert_eq!(col.len(), n, "column '{name}' row count mismatch");
        }
        assert!(
            !self.names.contains(&name),
            "duplicate column name '{name}'"
        );
        self.names.push(name);
        self.columns.push(col);
        self
    }

    /// Set the target values.
    pub fn set_target(&mut self, target: Vec<f64>) -> &mut Self {
        if let Some(n) = self.n_rows_opt() {
            assert_eq!(target.len(), n, "target row count mismatch");
        }
        self.target = target;
        self
    }

    fn n_rows_opt(&self) -> Option<usize> {
        self.columns.first().map(|c| c.len()).or({
            if self.target.is_empty() {
                None
            } else {
                Some(self.target.len())
            }
        })
    }

    /// Number of rows.
    ///
    /// A table with no columns *and* no target has no statable row
    /// count; this accessor reports it as 0, which is fine for sizing
    /// loops but silently masks a degenerate table from callers that
    /// require rows. Those callers (the predict surfaces) go through
    /// [`Table::try_n_rows`] instead.
    ///
    /// Kept public beside `try_n_rows` because the frozen perfbench
    /// sources (`crates/bench/examples/perfbench`) call it.
    pub fn n_rows(&self) -> usize {
        self.n_rows_opt().unwrap_or(0)
    }

    /// Number of rows, as a typed error when the table cannot state one
    /// (no columns and no target). Callers that *require* rows use this
    /// so a column-less table surfaces as [`fault::Error::DegenerateData`]
    /// instead of being silently treated as empty.
    pub(crate) fn try_n_rows(&self) -> fault::Result<usize> {
        self.n_rows_opt().ok_or_else(|| {
            fault::Error::degenerate("table has no columns and no target; row count is undefined")
        })
    }

    /// Number of predictor columns.
    pub fn n_cols(&self) -> usize {
        self.columns.len()
    }

    /// Column names.
    pub fn names(&self) -> &[String] {
        &self.names
    }

    /// Columns.
    pub fn columns(&self) -> &[Column] {
        &self.columns
    }

    /// Column by name.
    pub fn column(&self, name: &str) -> Option<&Column> {
        self.names
            .iter()
            .position(|n| n == name)
            .map(|i| &self.columns[i])
    }

    /// Target values.
    pub fn target(&self) -> &[f64] {
        &self.target
    }

    /// New table with only the given rows (in order). Used for random
    /// sampling, cross-validation splits, and year splits.
    pub fn select_rows(&self, rows: &[usize]) -> Table {
        for &r in rows {
            assert!(r < self.n_rows(), "row {r} out of range");
        }
        Table {
            names: self.names.clone(),
            columns: self.columns.iter().map(|c| c.select(rows)).collect(),
            target: rows.iter().map(|&i| self.target[i]).collect(),
        }
    }

    /// Validate internal consistency, reporting defects as
    /// [`fault::Error::DegenerateData`]: empty tables, length mismatches,
    /// non-finite values in the target or any numeric predictor.
    pub fn try_validate(&self) -> fault::Result<()> {
        let n = self.n_rows();
        if n == 0 {
            return Err(fault::Error::degenerate("table is empty"));
        }
        for (name, col) in self.names.iter().zip(&self.columns) {
            if col.len() != n {
                return Err(fault::Error::degenerate(format!(
                    "column '{name}' length mismatch: {} vs {n} rows",
                    col.len()
                )));
            }
            if let Column::Numeric(v) = col {
                if let Some(i) = v.iter().position(|x| !x.is_finite()) {
                    return Err(fault::Error::degenerate(format!(
                        "column '{name}' contains a non-finite value at row {i}"
                    )));
                }
            }
        }
        if self.target.len() != n {
            return Err(fault::Error::degenerate(format!(
                "target length mismatch: {} vs {n} rows",
                self.target.len()
            )));
        }
        if let Some(i) = self.target.iter().position(|t| !t.is_finite()) {
            return Err(fault::Error::degenerate(format!(
                "target contains non-finite values (first at row {i})"
            )));
        }
        Ok(())
    }
}

impl Default for Table {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Table {
        let mut t = Table::new();
        t.add_numeric("speed", vec![1.0, 2.0, 3.0, 4.0])
            .add_flag("smt", vec![true, false, true, false])
            .add_categorical(
                "bpred",
                vec![0, 1, 2, 1],
                vec!["perfect".into(), "bimodal".into(), "gshare".into()],
            )
            .set_target(vec![10.0, 20.0, 30.0, 40.0]);
        t
    }

    #[test]
    fn build_and_validate() {
        let t = sample();
        t.try_validate().expect("consistent table");
        assert_eq!(t.n_rows(), 4);
        assert_eq!(t.n_cols(), 3);
    }

    /// Regression (predict-path edge cases): `n_rows()` reports a
    /// column-less, target-less table as 0 rows, which callers used to
    /// take at face value. `try_n_rows` surfaces the undefined row
    /// count as a typed `DegenerateData` instead.
    #[test]
    fn column_less_table_row_count_is_typed_degenerate() {
        let empty = Table::new();
        assert_eq!(empty.n_rows(), 0, "legacy accessor still sizes loops");
        let e = empty.try_n_rows().expect_err("row count is unstatable");
        assert_eq!(e.kind(), "degenerate");
        // A target alone pins the row count even without columns…
        let mut target_only = Table::new();
        target_only.set_target(vec![1.0, 2.0]);
        assert_eq!(target_only.try_n_rows().expect("target states rows"), 2);
        // …and any column does too.
        assert_eq!(sample().try_n_rows().expect("columns state rows"), 4);
    }

    #[test]
    fn select_rows_reorders() {
        let t = sample().select_rows(&[3, 0]);
        assert_eq!(t.target(), &[40.0, 10.0]);
        match t.column("speed").unwrap() {
            Column::Numeric(v) => assert_eq!(v, &vec![4.0, 1.0]),
            _ => panic!(),
        }
    }

    #[test]
    fn constant_detection() {
        assert!(Column::Numeric(vec![2.0, 2.0, 2.0]).is_constant());
        assert!(!Column::Numeric(vec![2.0, 2.1]).is_constant());
        assert!(Column::Flag(vec![true, true]).is_constant());
        assert!(Column::Categorical {
            codes: vec![1, 1],
            levels: vec!["a".into(), "b".into()]
        }
        .is_constant());
    }

    #[test]
    fn try_validate_reports_defects_as_degenerate_data() {
        let empty = Table::new();
        assert!(matches!(
            empty.try_validate(),
            Err(fault::Error::DegenerateData { .. })
        ));
        let mut nan_target = sample();
        nan_target.set_target(vec![1.0, f64::NAN, 3.0, 4.0]);
        let err = nan_target.try_validate().expect_err("NaN target");
        assert!(err.to_string().contains("target"), "{err}");
        let mut nan_pred = Table::new();
        nan_pred
            .add_numeric("a", vec![1.0, f64::INFINITY])
            .set_target(vec![1.0, 2.0]);
        let err = nan_pred.try_validate().expect_err("Inf predictor");
        assert!(err.to_string().contains("'a'"), "{err}");
    }

    #[test]
    #[should_panic(expected = "row count mismatch")]
    fn mismatched_column_panics() {
        let mut t = Table::new();
        t.add_numeric("a", vec![1.0, 2.0]);
        t.add_numeric("b", vec![1.0]);
    }

    #[test]
    #[should_panic(expected = "duplicate column name")]
    fn duplicate_name_panics() {
        let mut t = Table::new();
        t.add_numeric("a", vec![1.0]);
        t.add_numeric("a", vec![2.0]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bad_categorical_code_panics() {
        let mut t = Table::new();
        t.add_categorical("c", vec![5], vec!["only".into()]);
    }
}

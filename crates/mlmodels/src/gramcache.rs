//! Shared-Gram cache for cross-validated linear-regression training.
//!
//! The §3.3 protocol trains the same LR model on many row subsets of one
//! table (five 50 % splits; k folds). Every fold's design matrix is a row
//! subset of the full table's design, differing only by the fold's
//! min–max feature scaling — so instead of re-accumulating `XᵀX`/`Xᵀy`
//! per fold (O(n·p²) each), [`LrGramCache`] accumulates the *unscaled*
//! full-table statistics once and derives each fold's statistics by
//!
//! 1. subtracting the held-out rows' outer products
//!    ([`linalg::gram::NormalEq::minus_rows`]), then
//! 2. applying the fold's min–max scaling as a congruence transform
//!    ([`linalg::gram::NormalEq::scaled`]) — O(p²), row-free.
//!
//! The derivation is only valid when the fold's preprocessing plan
//! matches the full table's (same features kept, same encoding). Folds
//! whose plan differs — e.g. a column constant within the fold but not
//! the full table — fall back to direct accumulation (`None`).

use crate::prep::{Encoding, Preprocessor};
use crate::table::Table;
use linalg::gram::NormalEq;
use linalg::Matrix;

/// Unscaled full-table sufficient statistics for LR cross-validation.
#[derive(Debug, Clone)]
pub struct LrGramCache {
    /// Plan fitted on the full table; folds must match it feature-for-feature.
    prep: Preprocessor,
    /// Unscaled encoded full design (one row per table row).
    v: Matrix,
    /// Raw target.
    y: Vec<f64>,
    /// Statistics of `[1 V]` against `y`.
    ne: NormalEq,
}

impl LrGramCache {
    /// Accumulate the full-table statistics. `None` when the table cannot
    /// support LR preprocessing at all (callers then train uncached and
    /// surface the usual typed errors).
    pub fn new(table: &Table) -> Option<LrGramCache> {
        let prep = Preprocessor::try_fit(table, Encoding::NumericCoded).ok()?;
        let v = prep.encode_unscaled(table);
        let y = table.target().to_vec();
        let ne = NormalEq::try_from_design(&v, &y).ok()?;
        Some(LrGramCache { prep, v, y, ne })
    }

    /// Statistics for the fold that holds out `held_out` (full-table row
    /// indices) and preprocesses with `fold_prep`, or `None` when the
    /// fold's plan diverges from the full table's and the O(p²) derivation
    /// would describe the wrong design.
    pub(crate) fn normal_eq_for(
        &self,
        fold_prep: &Preprocessor,
        held_out: &[usize],
    ) -> Option<NormalEq> {
        if fold_prep.encoding() != Encoding::NumericCoded {
            return None;
        }
        let full = self.prep.features();
        let fold = fold_prep.features();
        if full.len() != fold.len()
            || full
                .iter()
                .zip(fold.iter())
                .any(|(a, b)| a.name != b.name || a.source_column != b.source_column)
        {
            return None;
        }
        let mins: Vec<f64> = fold.iter().map(|f| f.min).collect();
        let ranges: Vec<f64> = fold.iter().map(|f| f.max - f.min).collect();
        if ranges.iter().any(|&r| !r.is_finite() || r <= 0.0) {
            return None;
        }
        telemetry::counter_add("select/gram_reuse", 1);
        Some(
            self.ne
                .minus_rows(&self.v, &self.y, held_out)
                .scaled(&mins, &ranges),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use linalg::gram::NormalEq;

    fn table(n: usize) -> Table {
        let xs: Vec<f64> = (0..n).map(|i| (i % 23) as f64).collect();
        let zs: Vec<f64> = (0..n).map(|i| ((i * 7) % 19) as f64).collect();
        let y: Vec<f64> = xs
            .iter()
            .zip(&zs)
            .map(|(x, z)| 50.0 + 3.0 * x - z + 0.01 * (*x * *z).sin())
            .collect();
        let mut t = Table::new();
        t.add_numeric("x", xs).add_numeric("z", zs).set_target(y);
        t
    }

    #[test]
    fn derived_fold_statistics_match_direct_accumulation() {
        let t = table(40);
        let cache = LrGramCache::new(&t).expect("cache builds");
        let held_out: Vec<usize> = (0..40).filter(|i| i % 4 == 0).collect();
        let kept: Vec<usize> = (0..40).filter(|i| i % 4 != 0).collect();
        let sub = t.select_rows(&kept);
        let fold_prep = Preprocessor::try_fit(&sub, Encoding::NumericCoded).expect("valid table");
        let derived = cache
            .normal_eq_for(&fold_prep, &held_out)
            .expect("plans match");
        let x = fold_prep.transform(&sub);
        let direct = NormalEq::try_from_design(&x, sub.target()).expect("finite design");
        assert_eq!(derived.n(), direct.n());
        for i in 0..=x.cols() {
            for j in 0..=x.cols() {
                let (a, b) = (derived.gram(i, j), direct.gram(i, j));
                assert!(
                    (a - b).abs() <= 1e-8 * (1.0 + b.abs()),
                    "G[{i}][{j}]: {a} vs {b}"
                );
            }
            let (a, b) = (derived.moment(i), direct.moment(i));
            assert!(
                (a - b).abs() <= 1e-8 * (1.0 + b.abs()),
                "c[{i}]: {a} vs {b}"
            );
        }
    }

    #[test]
    fn fold_with_divergent_plan_is_refused() {
        // Column `z` is constant on the kept rows but not the full table:
        // the fold's plan drops it, so the cached statistics don't apply.
        let mut t = Table::new();
        let n = 24;
        t.add_numeric("x", (0..n).map(|i| i as f64).collect())
            .add_numeric("z", (0..n).map(|i| if i < 4 { 1.0 } else { 7.0 }).collect())
            .set_target((0..n).map(|i| i as f64 * 2.0 + 1.0).collect());
        let cache = LrGramCache::new(&t).expect("cache builds");
        let held_out: Vec<usize> = (0..4).collect(); // removes all z variation
        let kept: Vec<usize> = (4..n).collect();
        let sub = t.select_rows(&kept);
        let fold_prep = Preprocessor::try_fit(&sub, Encoding::NumericCoded).expect("valid table");
        assert!(cache.normal_eq_for(&fold_prep, &held_out).is_none());
    }
}

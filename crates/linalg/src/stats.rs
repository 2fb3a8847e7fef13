//! Descriptive statistics used by the evaluation harness.
//!
//! The paper reports, for every data set, the *range* (best/worst ratio),
//! the *variation* (coefficient-of-variation-like spread), mean percentage
//! errors, and standard deviations of percentage errors. These helpers
//! centralize those definitions so tables, figures, and tests all agree.

/// Arithmetic mean; 0.0 for an empty slice.
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.iter().sum::<f64>() / xs.len() as f64
}

/// Population variance (divide by n); 0.0 for fewer than 1 element.
pub fn variance(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let m = mean(xs);
    xs.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / xs.len() as f64
}

/// Sample variance (divide by n-1); 0.0 for fewer than 2 elements.
pub fn sample_variance(xs: &[f64]) -> f64 {
    if xs.len() < 2 {
        return 0.0;
    }
    let m = mean(xs);
    xs.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / (xs.len() - 1) as f64
}

/// Population standard deviation.
pub fn std_dev(xs: &[f64]) -> f64 {
    variance(xs).sqrt()
}

/// Geometric mean of strictly positive values — the SPEC rating aggregator.
///
/// Computed in log space to avoid overflow on long products.
pub fn geometric_mean(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "geometric_mean: empty input");
    assert!(
        xs.iter().all(|&x| x > 0.0),
        "geometric_mean: all values must be positive"
    );
    (xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp()
}

/// The paper's "range": ratio of the largest to the smallest value
/// (e.g. "mcf has a range of 6.38").
pub fn range_ratio(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "range_ratio: empty input");
    let (mut lo, mut hi) = (f64::INFINITY, f64::NEG_INFINITY);
    for &x in xs {
        lo = lo.min(x);
        hi = hi.max(x);
    }
    assert!(lo > 0.0, "range_ratio: values must be positive");
    hi / lo
}

/// The paper's "variation": standard deviation of values normalized by the
/// mean (coefficient of variation), matching the scale of the reported
/// per-benchmark/per-family variation numbers (0.08–0.71).
pub fn variation(xs: &[f64]) -> f64 {
    let m = mean(xs);
    assert!(m != 0.0, "variation: zero mean");
    std_dev(xs) / m.abs()
}

/// Mean absolute percentage error `100·|ŷ−y|/y`, the paper's §4.2 error
/// definition. Returns (mean, std-dev) over the records.
pub fn mape(predicted: &[f64], actual: &[f64]) -> (f64, f64) {
    assert_eq!(predicted.len(), actual.len(), "mape: length mismatch");
    assert!(!actual.is_empty(), "mape: empty input");
    let errs: Vec<f64> = predicted
        .iter()
        .zip(actual)
        .map(|(p, a)| {
            assert!(*a != 0.0, "mape: zero actual value");
            100.0 * (p - a).abs() / a.abs()
        })
        .collect();
    (mean(&errs), std_dev(&errs))
}

/// p-th percentile (0..=100) using linear interpolation on sorted copies.
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    assert!(!xs.is_empty(), "percentile: empty input");
    assert!((0.0..=100.0).contains(&p), "percentile: p out of range");
    // total_cmp sorts NaNs to the top end rather than panicking; callers
    // that must exclude NaN filter before calling.
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = p / 100.0 * (v.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    if lo == hi {
        v[lo]
    } else {
        let frac = rank - lo as f64;
        v[lo] * (1.0 - frac) + v[hi] * frac
    }
}

/// Min and max of a non-empty slice.
pub fn min_max(xs: &[f64]) -> (f64, f64) {
    assert!(!xs.is_empty(), "min_max: empty input");
    xs.iter()
        .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), &x| {
            (lo.min(x), hi.max(x))
        })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_variance_basics() {
        let xs = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        assert_eq!(mean(&xs), 5.0);
        assert_eq!(variance(&xs), 4.0);
        assert_eq!(std_dev(&xs), 2.0);
        assert!((sample_variance(&xs) - 32.0 / 7.0).abs() < 1e-12);
    }

    #[test]
    fn geometric_mean_matches_log_definition() {
        let xs = [1.0, 2.0, 4.0];
        assert!((geometric_mean(&xs) - 2.0).abs() < 1e-12);
        let ys = [10.0, 1000.0];
        assert!((geometric_mean(&ys) - 100.0).abs() < 1e-9);
    }

    #[test]
    fn range_ratio_and_variation() {
        let xs = [1.0, 2.0, 6.38];
        assert!((range_ratio(&xs) - 6.38).abs() < 1e-12);
        let flat = [3.0, 3.0, 3.0];
        assert_eq!(variation(&flat), 0.0);
    }

    #[test]
    fn mape_exact_and_off_by_ten_percent() {
        let actual = [100.0, 200.0];
        let (m, s) = mape(&actual, &actual);
        assert_eq!((m, s), (0.0, 0.0));
        let pred = [110.0, 180.0];
        let (m, _) = mape(&pred, &actual);
        assert!((m - 10.0).abs() < 1e-12);
    }

    #[test]
    fn percentile_interpolates() {
        let xs = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(percentile(&xs, 0.0), 1.0);
        assert_eq!(percentile(&xs, 100.0), 4.0);
        assert!((percentile(&xs, 50.0) - 2.5).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn geometric_mean_rejects_nonpositive() {
        geometric_mean(&[1.0, 0.0]);
    }
}

//! Statistical special functions.
//!
//! Stepwise regression needs tail probabilities of the F distribution
//! (partial-F tests with "F-to-enter"/"F-to-remove" thresholds expressed as
//! p-values, the way SPSS Clementine exposes them). The F CDF reduces to the
//! regularized incomplete beta function, which in turn needs log-gamma. All
//! are implemented here with the classic Lanczos / Lentz algorithms.

/// Natural log of the gamma function (Lanczos approximation, g = 7, n = 9).
///
/// Accurate to ~1e-13 over the positive reals, which is far more than the
/// hypothesis tests here require.
pub(crate) fn ln_gamma(x: f64) -> f64 {
    // Coefficients for g=7, n=9 from Numerical Recipes / Godfrey.
    const COEF: [f64; 9] = [
        0.999_999_999_999_809_9,
        676.520_368_121_885_1,
        -1_259.139_216_722_402_8,
        771.323_428_777_653_1,
        -176.615_029_162_140_6,
        12.507_343_278_686_905,
        -0.138_571_095_265_720_12,
        9.984_369_578_019_572e-6,
        1.505_632_735_149_311_6e-7,
    ];
    if x < 0.5 {
        // Reflection formula for small/negative arguments.
        let pi = std::f64::consts::PI;
        return (pi / (pi * x).sin()).ln() - ln_gamma(1.0 - x);
    }
    let x = x - 1.0;
    let mut a = COEF[0];
    let t = x + 7.5;
    for (i, &c) in COEF.iter().enumerate().skip(1) {
        a += c / (x + i as f64);
    }
    0.5 * (2.0 * std::f64::consts::PI).ln() + (x + 0.5) * t.ln() - t + a.ln()
}

/// Regularized incomplete beta function `I_x(a, b)` via the continued
/// fraction of Lentz's algorithm with the standard symmetry split.
pub fn inc_beta(a: f64, b: f64, x: f64) -> f64 {
    assert!(
        a > 0.0 && b > 0.0,
        "inc_beta: shape parameters must be positive"
    );
    if x <= 0.0 {
        return 0.0;
    }
    if x >= 1.0 {
        return 1.0;
    }
    let ln_front = ln_gamma(a + b) - ln_gamma(a) - ln_gamma(b) + a * x.ln() + b * (1.0 - x).ln();
    let front = ln_front.exp();
    if x < (a + 1.0) / (a + b + 2.0) {
        front * beta_cf(a, b, x) / a
    } else {
        1.0 - front * beta_cf(b, a, 1.0 - x) / b
    }
}

/// Continued-fraction core of the incomplete beta (modified Lentz).
fn beta_cf(a: f64, b: f64, x: f64) -> f64 {
    const MAX_ITER: usize = 300;
    const EPS: f64 = 1e-14;
    const TINY: f64 = 1e-300;

    let qab = a + b;
    let qap = a + 1.0;
    let qam = a - 1.0;
    let mut c = 1.0;
    let mut d = 1.0 - qab * x / qap;
    if d.abs() < TINY {
        d = TINY;
    }
    d = 1.0 / d;
    let mut h = d;
    for m in 1..=MAX_ITER {
        let m = m as f64;
        let m2 = 2.0 * m;
        // Even step.
        let aa = m * (b - m) * x / ((qam + m2) * (a + m2));
        d = 1.0 + aa * d;
        if d.abs() < TINY {
            d = TINY;
        }
        c = 1.0 + aa / c;
        if c.abs() < TINY {
            c = TINY;
        }
        d = 1.0 / d;
        h *= d * c;
        // Odd step.
        let aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2));
        d = 1.0 + aa * d;
        if d.abs() < TINY {
            d = TINY;
        }
        c = 1.0 + aa / c;
        if c.abs() < TINY {
            c = TINY;
        }
        d = 1.0 / d;
        let del = d * c;
        h *= del;
        if (del - 1.0).abs() < EPS {
            break;
        }
    }
    h
}

/// CDF of the F distribution with `(d1, d2)` degrees of freedom.
pub fn f_cdf(f: f64, d1: f64, d2: f64) -> f64 {
    if f <= 0.0 {
        return 0.0;
    }
    inc_beta(d1 / 2.0, d2 / 2.0, d1 * f / (d1 * f + d2))
}

/// Upper-tail probability `P(F > f)` — the p-value of a partial-F test.
pub fn f_sf(f: f64, d1: f64, d2: f64) -> f64 {
    (1.0 - f_cdf(f, d1, d2)).clamp(0.0, 1.0)
}

/// CDF of Student's t distribution with `df` degrees of freedom.
pub fn t_cdf(t: f64, df: f64) -> f64 {
    let x = df / (df + t * t);
    let p = 0.5 * inc_beta(df / 2.0, 0.5, x);
    if t > 0.0 {
        1.0 - p
    } else {
        p
    }
}

/// Two-sided p-value of a t statistic.
pub fn t_sf_two_sided(t: f64, df: f64) -> f64 {
    (2.0 * (1.0 - t_cdf(t.abs(), df))).clamp(0.0, 1.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ln_gamma_matches_factorials() {
        // Γ(n) = (n-1)!
        let facts = [1.0, 1.0, 2.0, 6.0, 24.0, 120.0, 720.0];
        for (n, &f) in facts.iter().enumerate() {
            let g = ln_gamma((n + 1) as f64).exp();
            assert!((g - f).abs() / f < 1e-10, "Γ({}) = {g}, want {f}", n + 1);
        }
    }

    #[test]
    fn ln_gamma_half() {
        // Γ(1/2) = sqrt(pi)
        let g = ln_gamma(0.5).exp();
        assert!((g - std::f64::consts::PI.sqrt()).abs() < 1e-10);
    }

    #[test]
    fn inc_beta_boundaries() {
        assert_eq!(inc_beta(2.0, 3.0, 0.0), 0.0);
        assert_eq!(inc_beta(2.0, 3.0, 1.0), 1.0);
    }

    #[test]
    fn inc_beta_symmetry() {
        // I_x(a,b) = 1 - I_{1-x}(b,a)
        for &(a, b, x) in &[(2.0, 5.0, 0.3), (0.7, 0.9, 0.55), (10.0, 3.0, 0.8)] {
            let lhs = inc_beta(a, b, x);
            let rhs = 1.0 - inc_beta(b, a, 1.0 - x);
            assert!((lhs - rhs).abs() < 1e-12, "a={a} b={b} x={x}");
        }
    }

    #[test]
    fn inc_beta_uniform_case() {
        // I_x(1,1) = x.
        for i in 1..10 {
            let x = i as f64 / 10.0;
            assert!((inc_beta(1.0, 1.0, x) - x).abs() < 1e-12);
        }
    }

    #[test]
    fn f_cdf_known_quantiles() {
        // F(1,10): 95th percentile ≈ 4.9646.
        assert!((f_cdf(4.9646, 1.0, 10.0) - 0.95).abs() < 1e-3);
        // F(5,20): 95th percentile ≈ 2.7109.
        assert!((f_cdf(2.7109, 5.0, 20.0) - 0.95).abs() < 1e-3);
    }

    #[test]
    fn f_sf_complements_cdf() {
        let p = f_cdf(2.5, 3.0, 12.0);
        assert!((f_sf(2.5, 3.0, 12.0) - (1.0 - p)).abs() < 1e-15);
    }

    #[test]
    fn t_cdf_symmetry_and_known_values() {
        assert!((t_cdf(0.0, 7.0) - 0.5).abs() < 1e-12);
        // t(10): 97.5th percentile ≈ 2.2281.
        assert!((t_cdf(2.2281, 10.0) - 0.975).abs() < 1e-3);
        // Symmetry.
        let a = t_cdf(-1.3, 5.0);
        let b = 1.0 - t_cdf(1.3, 5.0);
        assert!((a - b).abs() < 1e-12);
    }

    #[test]
    fn t_squared_is_f() {
        // If T ~ t(df), T² ~ F(1, df): P(|T|>t) == P(F > t²).
        let t = 1.7;
        let df = 9.0;
        let p_t = t_sf_two_sided(t, df);
        let p_f = f_sf(t * t, 1.0, df);
        assert!((p_t - p_f).abs() < 1e-10);
    }
}

//! Order statistics, the open-loop ladder's pass rule, and the verdicts
//! `perfbench compare` gives.

/// Median of `xs` (the mean of the middle pair for an even count), or NaN
/// for an empty slice.
pub fn median(xs: &[f64]) -> f64 {
    let s = sorted(xs);
    let n = s.len();
    match n {
        0 => f64::NAN,
        _ if n % 2 == 1 => s[n / 2],
        _ => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    }
}

/// First and third quartiles by the "exclusive" method of Python's
/// `statistics.quantiles(xs, n=4)`, so the spreads this program prints
/// match the ones computed from its results downstream. One value gives
/// that value twice; none gives NaN.
pub fn quartiles(xs: &[f64]) -> (f64, f64) {
    let s = sorted(xs);
    let n = s.len();
    match n {
        0 => return (f64::NAN, f64::NAN),
        1 => return (s[0], s[0]),
        _ => {}
    }
    let m = n + 1;
    let at = |i: usize| {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0
    };
    (at(1), at(3))
}

/// Interquartile range as a share of the median: the run-to-run spread
/// the benchmark's bounds are judged against. Identical values (a
/// deterministic count, even an all-zero one) have no spread.
pub fn spread(xs: &[f64]) -> f64 {
    let (q1, q3) = quartiles(xs);
    if q3 == q1 {
        0.0
    } else {
        (q3 - q1) / median(xs).abs()
    }
}

/// Nearest-rank percentile (`q` in 0..=1) of an already sorted slice.
pub fn percentile_sorted(s: &[f64], q: f64) -> f64 {
    if s.is_empty() {
        return f64::NAN;
    }
    let rank = (q * s.len() as f64).ceil().max(1.0) as usize;
    s[rank.min(s.len()) - 1]
}

/// Whether `n` samples support percentile `q`: at least ten samples must
/// lie beyond it, so p99.9 needs 10 000 samples.
pub fn supports(n: usize, q: f64) -> bool {
    n as f64 * (1.0 - q) >= 10.0 - 1e-9
}

/// Sorted copy, NaN-safe.
pub fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

/// The open-loop ladder's backlog rule: a step whose last tenth of
/// responses (in send order) is more than twice as slow as its first
/// tenth is building a queue, even if its percentiles still look fine.
pub fn backlog_grows(latencies_in_send_order: &[f64]) -> bool {
    let n = latencies_in_send_order.len();
    let tenth = n / 10;
    if tenth == 0 {
        return false;
    }
    let head = median(&latencies_in_send_order[..tenth]);
    let tail = median(&latencies_in_send_order[n - tenth..]);
    tail > 2.0 * head
}

/// Outcome of one ladder step.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StepOutcome {
    /// Nearest-rank p99 latency of the answered requests, milliseconds.
    pub p99_ms: f64,
    /// Requests that failed, were shed, missed a deadline or got no
    /// answer.
    pub failures: usize,
    /// Whether the step built a backlog (see [`backlog_grows`]).
    pub backlog: bool,
}

impl StepOutcome {
    /// Whether the step meets the serving limit: p99 at most `limit_ms`,
    /// no failures and no growing backlog. A failed request counts as
    /// missing the limit.
    pub fn passes(&self, limit_ms: f64) -> bool {
        self.failures == 0 && !self.backlog && self.p99_ms <= limit_ms
    }
}

/// `perfbench compare` verdict for one (workload, metric) pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Median of the second set is not worse than the first's by more
    /// than the bound.
    Same,
    /// Median of the second set is worse by more than the bound.
    Worse,
    /// Either set's interquartile spread exceeds the bound, so the
    /// medians cannot be told apart at that resolution.
    Unresolved,
}

impl Verdict {
    /// Lower-case label printed by `compare`.
    pub fn label(self) -> &'static str {
        match self {
            Verdict::Same => "same",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Judge set `b` against baseline set `a` for a metric where
/// `higher_better` says which direction is better and `bound` is the
/// allowed worsening of the median as a share of `a`'s median.
///
/// A spread wider than the bound is `unresolved` unless every run of `b`
/// reads at least as well as every run of `a`, which no noise can turn
/// into a regression.
pub fn verdict(a: &[f64], b: &[f64], higher_better: bool, bound: f64) -> Verdict {
    let worse_by = |base: f64, x: f64| {
        let d = if higher_better { base - x } else { x - base };
        if base == 0.0 {
            if d > 0.0 {
                f64::INFINITY
            } else {
                0.0
            }
        } else {
            d / base.abs()
        }
    };
    let (ma, mb) = (median(a), median(b));
    if spread(a) > bound || spread(b) > bound {
        let b_never_worse = b.iter().all(|&x| a.iter().all(|&y| worse_by(y, x) <= 0.0));
        return if b_never_worse {
            Verdict::Same
        } else {
            Verdict::Unresolved
        };
    }
    if worse_by(ma, mb) > bound {
        Verdict::Worse
    } else {
        Verdict::Same
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), (2.75, 8.25));
        assert_eq!(median(&xs), 5.5);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 3.0));
        assert_eq!(quartiles(&[4.0]), (4.0, 4.0));
        assert!((spread(&xs) - 5.5 / 5.5).abs() < 1e-12);
    }

    #[test]
    fn percentile_needs_ten_samples_beyond_it() {
        assert!(supports(10_000, 0.999));
        assert!(!supports(9_999, 0.999));
        assert!(supports(1_000, 0.99));
        assert!(!supports(999, 0.99));
        assert!(supports(20, 0.5));
        let s: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile_sorted(&s, 0.5), 500.0);
        assert_eq!(percentile_sorted(&s, 0.99), 990.0);
        assert_eq!(percentile_sorted(&s, 1.0), 1000.0);
        assert_eq!(percentile_sorted(&s, 0.0), 1.0);
    }

    #[test]
    fn backlog_rule_compares_last_tenth_with_first() {
        let steady = vec![1.0; 100];
        assert!(!backlog_grows(&steady));
        // A queue that builds linearly: last tenth ~ 10x the first.
        let growing: Vec<f64> = (1..=100).map(f64::from).collect();
        assert!(backlog_grows(&growing));
        // A slow warm-up followed by steady service is not a backlog.
        let mut warm = vec![5.0; 10];
        warm.extend(vec![1.0; 90]);
        assert!(!backlog_grows(&warm));
        // Exactly twice as slow is still within the rule.
        let mut edge = vec![1.0; 90];
        edge.extend(vec![2.0; 10]);
        assert!(!backlog_grows(&edge));
        assert!(!backlog_grows(&[1.0, 50.0]), "too few samples to judge");
    }

    #[test]
    fn ladder_step_fails_on_tail_failures_or_backlog() {
        let ok = StepOutcome {
            p99_ms: 4.0,
            failures: 0,
            backlog: false,
        };
        assert!(ok.passes(5.0));
        assert!(!StepOutcome { p99_ms: 5.5, ..ok }.passes(5.0));
        assert!(!StepOutcome { failures: 1, ..ok }.passes(5.0));
        assert!(!StepOutcome {
            backlog: true,
            ..ok
        }
        .passes(5.0));
    }

    #[test]
    fn compare_verdicts() {
        let a = [10.0, 10.1, 9.9, 10.0, 10.05];
        // Lower is better: 5 % slower against a 10 % bound is the same.
        let b: Vec<f64> = a.iter().map(|x| x * 1.05).collect();
        assert_eq!(verdict(&a, &b, false, 0.10), Verdict::Same);
        // 20 % slower is worse.
        let c: Vec<f64> = a.iter().map(|x| x * 1.2).collect();
        assert_eq!(verdict(&a, &c, false, 0.10), Verdict::Worse);
        // Higher is better: the same 20 % increase is an improvement.
        assert_eq!(verdict(&a, &c, true, 0.10), Verdict::Same);
        // A spread wider than the bound cannot be judged...
        let noisy = [5.0, 10.0, 15.0, 10.0, 20.0];
        assert_eq!(verdict(&a, &noisy, false, 0.10), Verdict::Unresolved);
        // ...unless every run of the second set beats every run of the first.
        let fast_noisy = [1.0, 2.0, 3.0, 4.0, 5.0];
        assert_eq!(verdict(&a, &fast_noisy, false, 0.10), Verdict::Same);
        // Deterministic values: identical is the same, any worsening past
        // a zero bound is worse.
        assert_eq!(verdict(&[7.0; 3], &[7.0; 3], false, 0.0), Verdict::Same);
        assert_eq!(verdict(&[7.0; 3], &[7.5; 3], false, 0.0), Verdict::Worse);
        assert_eq!(verdict(&[0.0; 3], &[0.0; 3], false, 0.0), Verdict::Same);
        assert_eq!(verdict(&[0.0; 3], &[1.0; 3], false, 0.0), Verdict::Worse);
    }
}

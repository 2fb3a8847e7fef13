//! SPEC rating arithmetic.
//!
//! §4: "SPECint2000 rate … is the geometric mean of twelve normalized
//! ratios. A manufacturer runs a timed test on the system, and the time of
//! the test system is compared to the reference time, by which a ratio is
//! computed."

use rand::Rng;

/// The twelve SPECint2000 applications.
pub const SPECINT_APPS: [&str; 12] = [
    "gzip", "vpr", "gcc", "mcf", "crafty", "parser", "eon", "perlbmk", "gap", "vortex", "bzip2",
    "twolf",
];

/// Compute a SPEC rating from per-application ratios: the reference the
/// tests check synthesized ratios against.
#[cfg(test)]
pub(crate) fn rating_from_ratios(ratios: &[f64]) -> f64 {
    linalg::stats::geometric_mean(ratios)
}

/// Synthesize *structured* per-application ratios: each application has a
/// fixed sensitivity profile over normalized system traits (clock, memory
/// frequency, L2 capacity, socket count), so memory-bound applications
/// genuinely respond to memory upgrades and so on. Deviations are
/// mean-centred in log space, keeping the geometric mean exactly `rate`,
/// and carry only a small idiosyncratic noise — which is what makes the
/// paper's (omitted) per-application predictions learnable.
///
/// `traits` are roughly standardized deviations of the system's components
/// from the family norm; `noise` is the per-app log-sd.
pub(crate) fn synthesize_structured_ratios(
    rate: f64,
    n_apps: usize,
    traits: &[f64],
    noise: f64,
    rng: &mut impl Rng,
) -> Vec<f64> {
    assert!(
        rate > 0.0 && n_apps > 0,
        "rate must be positive and apps nonzero"
    );
    // Fixed per-(app, trait) sensitivities derived from a hash so every
    // record agrees on each application's character.
    let coef = |app: usize, tr: usize| -> f64 {
        let h = linalg::dist::child_seed(0x5EC5, (app as u64) << 8 | tr as u64);
        // In [-0.12, 0.12].
        ((h % 2401) as f64 / 2400.0 - 0.5) * 0.24
    };
    let mut logs: Vec<f64> = (0..n_apps)
        .map(|a| {
            let structured: f64 = traits
                .iter()
                .enumerate()
                .map(|(t, &x)| coef(a, t) * x)
                .sum();
            structured + linalg::dist::sample_normal(rng, 0.0, noise)
        })
        .collect();
    let mean_log: f64 = logs.iter().sum::<f64>() / n_apps as f64;
    for l in &mut logs {
        *l -= mean_log;
    }
    logs.iter().map(|l| rate * l.exp()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use linalg::dist::seeded_rng;

    #[test]
    fn rating_of_uniform_ratios_is_the_ratio() {
        let r = rating_from_ratios(&[20.0; 12]);
        assert!((r - 20.0).abs() < 1e-12);
    }

    #[test]
    fn structured_ratios_keep_the_rating_identity() {
        let mut rng = seeded_rng(5);
        let ratios = synthesize_structured_ratios(40.0, 12, &[0.5, -1.0, 0.2, 0.0], 0.02, &mut rng);
        let back = rating_from_ratios(&ratios);
        assert!((back - 40.0).abs() / 40.0 < 1e-10);
    }

    #[test]
    fn structured_ratios_respond_to_traits() {
        // Same rate, different traits -> systematically different app mix.
        let mut rng1 = seeded_rng(6);
        let mut rng2 = seeded_rng(6);
        let a = synthesize_structured_ratios(40.0, 12, &[2.0, 0.0, 0.0, 0.0], 0.0, &mut rng1);
        let b = synthesize_structured_ratios(40.0, 12, &[-2.0, 0.0, 0.0, 0.0], 0.0, &mut rng2);
        let diff: f64 = a.iter().zip(&b).map(|(x, y)| (x - y).abs()).sum();
        assert!(diff > 1.0, "traits must shape the per-app profile: {diff}");
    }

    #[test]
    fn app_lists_match_paper_counts() {
        assert_eq!(SPECINT_APPS.len(), 12, "12 integer applications");
    }
}

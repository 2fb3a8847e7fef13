//! Property-based tests for the SPEC announcement substrate.

use linalg::stats::geometric_mean;
use proptest::prelude::*;
use specdata::{generate_family, AnnouncementSet, ProcessorFamily};

fn arb_family() -> impl Strategy<Value = ProcessorFamily> {
    prop::sample::select(ProcessorFamily::ALL.to_vec())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Record counts match §4.1 regardless of seed, and every record sits
    /// inside the family's active years.
    #[test]
    fn population_invariants(fam in arb_family(), seed in 0u64..500) {
        let recs = generate_family(fam, seed);
        prop_assert_eq!(recs.len(), fam.paper_stats().records);
        let (y0, y1) = fam.year_span();
        for r in &recs {
            prop_assert!((y0..=y1).contains(&r.year));
            prop_assert!(r.specint_rate > 0.0);
            prop_assert!(r.processor_speed_mhz > 500.0 && r.processor_speed_mhz < 5000.0);
            prop_assert_eq!(r.total_chips, fam.chips());
            prop_assert_eq!(r.total_cores, fam.chips() * r.cores_per_chip);
            prop_assert!((1..=4).contains(&r.quarter));
        }
    }

    /// The published rating is always the geometric mean of the published
    /// per-application ratios.
    #[test]
    fn rating_identity_holds(fam in arb_family(), seed in 0u64..200) {
        let recs = generate_family(fam, seed);
        for r in recs.iter().take(25) {
            prop_assert_eq!(r.app_ratios.len(), 12);
            let g = geometric_mean(&r.app_ratios);
            prop_assert!((g - r.specint_rate).abs() / r.specint_rate < 1e-9);
        }
    }

    /// Faster clocks never hurt: within a family-year, the record with the
    /// highest clock has a rating no worse than 0.8x the one with the
    /// lowest clock (noise-tolerant monotonicity).
    #[test]
    fn clock_mostly_monotone(fam in arb_family(), seed in 0u64..100) {
        let set = AnnouncementSet::generate(fam, seed);
        let year = fam.year_span().1;
        let recs = set.year(year);
        if recs.len() >= 4 {
            let fastest = recs
                .iter()
                .max_by(|a, b| a.processor_speed_mhz.total_cmp(&b.processor_speed_mhz))
                .unwrap();
            let slowest = recs
                .iter()
                .min_by(|a, b| a.processor_speed_mhz.total_cmp(&b.processor_speed_mhz))
                .unwrap();
            prop_assert!(
                fastest.specint_rate > 0.8 * slowest.specint_rate,
                "clock {} rate {} vs clock {} rate {}",
                fastest.processor_speed_mhz,
                fastest.specint_rate,
                slowest.processor_speed_mhz,
                slowest.specint_rate
            );
        }
    }

    /// The chronological split partitions records without loss for any
    /// in-span training year.
    #[test]
    fn split_partitions(fam in arb_family(), seed in 0u64..100) {
        let set = AnnouncementSet::generate(fam, seed);
        let (y0, y1) = fam.year_span();
        for train_year in y0..y1 {
            let (train, test) = set.try_chronological_split(train_year).expect("in-span split");
            prop_assert_eq!(
                train.len() + test.len(),
                set.records
                    .iter()
                    .filter(|r| r.year == train_year || r.year == train_year + 1)
                    .count()
            );
        }
    }
}

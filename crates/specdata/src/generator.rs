//! Synthetic announcement generation.
//!
//! Each family's records are sampled year by year from the component trends
//! in [`crate::family`]; a latent performance law then assigns every system
//! its "true" SPECint rate:
//!
//! * a dominant, slightly sub-linear clock term (`speed^0.9` — the paper's
//!   importance analysis finds processor speed dominant at 0.659/0.915),
//! * logarithmic memory-frequency, L2-, and L3-capacity terms,
//! * a small memory-size term,
//! * sub-linear socket scaling for the SMP rate runs (`chips^0.85`),
//! * SMT and bus bonuses,
//! * log-normal market noise (motherboards, BIOS, compilers — everything
//!   the 32 parameters don't capture), plus a small shared per-year
//!   adjustment representing compiler-generation effects.
//!
//! The law is *hidden* from the models — they only ever see the 32
//! parameters and the rating — and is mildly nonlinear, so neural networks
//! can over-fit a single year's data while linear regression extrapolates
//! into the next year more gracefully, which is precisely the behaviour the
//! paper reports (§4.3).

use crate::family::ProcessorFamily;
use crate::rating::synthesize_structured_ratios;
use crate::schema::{Announcement, DiskType};
use linalg::dist::{child_seed, sample_normal, seeded_rng};
use rand::rngs::StdRng;
use rand::Rng;

/// Latent performance law. Produces the noise-free rate for a record.
fn latent_rate(a: &Announcement, family: ProcessorFamily) -> f64 {
    // Family-specific base efficiency (per-clock IPC differences).
    let base = match family {
        ProcessorFamily::Xeon => 9.2,
        ProcessorFamily::Pentium4 => 8.2,
        ProcessorFamily::PentiumD => 8.8,
        _ => 11.0, // K8 Opteron had better per-clock SPECint
    };
    let clock = (a.processor_speed_mhz / 1000.0).powf(0.9);
    let mem_f = 1.0 + 0.10 * (a.memory_freq_mhz / 400.0).ln();
    let l2_f = 1.0 + 0.055 * ((a.l2_kb as f64 / 1024.0).ln() / std::f64::consts::LN_2);
    let l3_f = if a.l3_kb > 0 {
        1.0 + 0.035 * ((a.l3_kb as f64 / 1024.0).ln() / std::f64::consts::LN_2).max(0.5)
    } else {
        1.0
    };
    let mem_sz = 1.0 + 0.02 * (a.memory_gb / 4.0).ln().max(-1.0);
    let bus_f = 1.0 + 0.04 * (a.bus_frequency_mhz / 800.0).ln();
    let smt_f = if a.smt { 1.03 } else { 1.0 };
    // Rate runs scale with sockets, sub-linearly (memory contention); the
    // scaling exponent improves with memory/interconnect speed, so big
    // SMPs spread more — *predictably* — than single-socket systems
    // (paper §4.1: range grows 1.40 -> 1.58 -> 1.70 with socket count).
    let scale_exp =
        0.82 + 0.06 * (a.memory_freq_mhz / 400.0).ln() + 0.02 * (a.bus_frequency_mhz / 800.0).ln();
    let chips_f = (a.total_chips as f64).powf(scale_exp.clamp(0.6, 1.0));
    base * clock * mem_f * l2_f * l3_f * mem_sz * bus_f * smt_f * chips_f
}

/// Per-record jitter on the socket-scaling exponent: interconnect topology
/// and placement make big SMPs scale less predictably, widening their
/// rating spread with chip count (paper: range 1.40 -> 1.58 -> 1.70 -> 1.68
/// across 1/2/4/8 sockets).
fn scaling_jitter(chips: u32, rng: &mut StdRng) -> f64 {
    if chips <= 1 {
        return 1.0;
    }
    let eps = sample_normal(rng, 0.0, 0.015);
    ((chips as f64).ln() * eps).exp()
}

/// Per-family log-normal noise level. SMPs are noisier (interconnect,
/// placement); Pentium 4's long history adds compiler-era spread.
fn noise_sigma(family: ProcessorFamily) -> f64 {
    match family {
        ProcessorFamily::Opteron8 => 0.026,
        ProcessorFamily::Opteron4 => 0.024,
        ProcessorFamily::Opteron2 => 0.020,
        ProcessorFamily::Pentium4 => 0.020,
        _ => 0.015,
    }
}

/// How records distribute over the family's active years: later years carry
/// more announcements (the database grew quadratically as more vendors
/// published results).
fn year_weights(y0: u32, y1: u32) -> Vec<(u32, f64)> {
    let years: Vec<u32> = (y0..=y1).collect();
    if years.len() == 2 {
        // Short-history families (Pentium D) publish almost evenly across
        // their two years.
        return vec![(years[0], 0.45), (years[1], 0.55)];
    }
    let w = |y: u32| ((y - y0 + 1) as f64).powi(2);
    let total: f64 = years.iter().map(|&y| w(y)).sum();
    years.iter().map(|&y| (y, w(y) / total)).collect()
}

fn pick<'a, T>(rng: &mut StdRng, xs: &'a [T]) -> &'a T {
    &xs[rng.random_range(0..xs.len())]
}

/// Generate one record for `family` in `year`.
fn generate_record(
    family: ProcessorFamily,
    year: u32,
    year_adjust: f64,
    rng: &mut StdRng,
) -> Announcement {
    let (clock_lo, clock_hi) = family.clock_range_mhz(year);
    // Clock grid: products shipped on 100/200 MHz steps.
    let steps = ((clock_hi - clock_lo) / 100.0).max(1.0) as u32;
    let processor_speed_mhz = clock_lo + 100.0 * rng.random_range(0..=steps) as f64;

    let l2_kb = *pick(rng, family.l2_options_kb(year));
    let l3_kb = *pick(rng, family.l3_options_kb());
    let memory_freq_mhz = *pick(rng, family.mem_freq_options(year));
    let bus_frequency_mhz = *pick(rng, family.bus_options(year));
    let (l1i_kb, l1d_kb) = family.l1_kb();
    let chips = family.chips();
    let cores_per_chip = family.cores_per_chip();
    let smt = family.supports_smt() && rng.random::<f64>() < 0.6;

    let mem_options: &[f64] = if year < 2003 {
        &[1.0, 2.0, 4.0]
    } else if year < 2005 {
        &[2.0, 4.0, 8.0]
    } else {
        &[2.0, 4.0, 8.0, 16.0]
    };
    let memory_gb = *pick(rng, mem_options) * (chips as f64).max(1.0);

    let disk_gb = *pick(
        rng,
        if year < 2003 {
            &[18.0, 36.0, 73.0]
        } else {
            &[73.0, 146.0, 300.0] as &[f64]
        },
    );
    let disk_rpm = *pick(rng, &[7200.0, 10000.0, 15000.0]);
    let disk_type = *pick(
        rng,
        if year < 2004 {
            &[DiskType::Scsi, DiskType::Ide]
        } else {
            &[DiskType::Scsi, DiskType::Sata, DiskType::Sata] as &[DiskType]
        },
    );

    let company = (*pick(rng, family.company_pool())).to_string();
    let model_step = (processor_speed_mhz / 100.0).round() as u32;
    // Real SPEC model fields carry stepping/revision suffixes, making them
    // high-cardinality name fields that Clementine omits for regression.
    let stepping = ["A", "B", "C", "E", "F"][rng.random_range(0..5usize)];
    let processor_model = match family {
        ProcessorFamily::Xeon => format!("Xeon {model_step}00 {stepping}-step"),
        ProcessorFamily::Pentium4 => format!("Pentium 4 {model_step}00 {stepping}-step"),
        ProcessorFamily::PentiumD => format!("Pentium D 9{} {stepping}-step", model_step % 10),
        _ => format!(
            "Opteron {} {stepping}-step",
            140 + (model_step % 10) * 2 + (chips.ilog2()) * 100
        ),
    };
    let system_name = format!(
        "{} {}{}",
        company,
        ["ProServ", "PowerStation", "Workline", "Summit"][rng.random_range(0..4usize)],
        rng.random_range(100..999)
    );

    let mut a = Announcement {
        company,
        system_name,
        processor_model,
        bus_frequency_mhz,
        processor_speed_mhz,
        fpu: true,
        total_cores: chips * cores_per_chip,
        total_chips: chips,
        cores_per_chip,
        smt,
        parallel: chips * cores_per_chip > 1,
        l1i_kb,
        l1d_kb,
        l1_per_core: true,
        l2_kb,
        l2_on_chip: year >= 2000,
        l2_shared: cores_per_chip > 1 && matches!(family, ProcessorFamily::PentiumD),
        l2_unified: true,
        l3_kb,
        l3_on_chip: l3_kb > 0,
        l3_per_core: false,
        l3_shared: l3_kb > 0,
        l3_unified: l3_kb > 0,
        l4_kb: 0,
        l4_shared_count: 0,
        l4_on_chip: false,
        memory_gb,
        memory_freq_mhz,
        disk_gb,
        disk_rpm,
        disk_type,
        extra_components: rng.random_range(0..4),
        year,
        quarter: rng.random_range(1..=4),
        specint_rate: 0.0,
        app_ratios: Vec::new(),
        specfp_rate: 0.0,
        fp_app_ratios: Vec::new(),
    };

    let noise = sample_normal(rng, 0.0, noise_sigma(family)).exp();
    let jitter = scaling_jitter(a.total_chips, rng);
    let rate = latent_rate(&a, family) * noise * jitter * year_adjust;
    a.specint_rate = (rate * 10.0).round() / 10.0; // SPEC publishes one decimal
                                                   // Per-application ratios respond to the system's traits (normalized
                                                   // component deviations), so individual applications are predictable
                                                   // from the 32 parameters — the paper's omitted per-app result.
    let traits = [
        (a.processor_speed_mhz - 2500.0) / 1000.0,
        (a.memory_freq_mhz - 400.0) / 200.0,
        ((a.l2_kb as f64 / 1024.0).ln() / std::f64::consts::LN_2).clamp(-2.0, 2.0),
        (a.total_chips as f64).ln(),
    ];
    a.app_ratios = synthesize_structured_ratios(a.specint_rate.max(0.1), 12, &traits, 0.025, rng);
    // SPECfp leans harder on memory bandwidth and lighter on clock: scale
    // the int rate by a memory-tilted factor plus its own noise.
    let fp_tilt = (1.0 + 0.08 * (a.memory_freq_mhz / 400.0).ln())
        * (a.processor_speed_mhz / 2500.0).powf(-0.15)
        * match family {
            ProcessorFamily::Xeon | ProcessorFamily::Pentium4 | ProcessorFamily::PentiumD => 1.02,
            _ => 1.10, // K8's integrated memory controller shines on fp
        };
    let fp_noise = sample_normal(rng, 0.0, noise_sigma(family)).exp();
    a.specfp_rate = ((a.specint_rate * fp_tilt * fp_noise) * 10.0).round() / 10.0;
    a.fp_app_ratios = synthesize_structured_ratios(a.specfp_rate.max(0.1), 14, &traits, 0.030, rng);
    a
}

/// Generate the full synthetic history of one family.
///
/// `seed` controls the whole population; the record count matches the
/// family's §4.1 target exactly, spread over its active years with more
/// records in later years.
pub fn generate_family(family: ProcessorFamily, seed: u64) -> Vec<Announcement> {
    let stats = family.paper_stats();
    let (y0, y1) = family.year_span();
    let weights = year_weights(y0, y1);
    let mut rng = seeded_rng(child_seed(
        seed,
        u64::from(family.chips()) * 131 + family.name().len() as u64,
    ));

    // Integer record counts per year that sum exactly to the target, with
    // every active year represented at least once.
    let mut counts: Vec<(u32, usize)> = weights
        .iter()
        .map(|&(y, w)| (y, ((w * stats.records as f64).floor() as usize).max(1)))
        .collect();
    let mut assigned: usize = counts.iter().map(|&(_, c)| c).sum();
    let mut i = counts.len() - 1;
    while assigned < stats.records {
        counts[i].1 += 1;
        assigned += 1;
        i = if i == 0 { counts.len() - 1 } else { i - 1 };
    }
    while assigned > stats.records {
        // `counts` has one entry per year in the family's span, which is
        // never empty; if that ever changed, stop trimming rather than
        // looping forever.
        let Some(max) = counts
            .iter()
            .enumerate()
            .max_by_key(|(_, &(_, c))| c)
            .map(|(i, _)| i)
        else {
            break;
        };
        counts[max].1 -= 1;
        assigned -= 1;
    }

    let mut out = Vec::with_capacity(stats.records);
    for &(year, n) in &counts {
        // Shared per-year adjustment (compiler generation, firmware).
        let year_adjust = sample_normal(&mut rng, 0.0, 0.01).exp();
        for _ in 0..n {
            out.push(generate_record(family, year, year_adjust, &mut rng));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use linalg::stats::{range_ratio, variation};

    #[test]
    fn record_counts_match_paper_exactly() {
        for f in ProcessorFamily::ALL {
            let recs = generate_family(f, 42);
            assert_eq!(recs.len(), f.paper_stats().records, "{}", f.name());
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let a = generate_family(ProcessorFamily::Opteron2, 7);
        let b = generate_family(ProcessorFamily::Opteron2, 7);
        assert_eq!(a, b);
    }

    #[test]
    fn different_seeds_differ() {
        let a = generate_family(ProcessorFamily::Xeon, 1);
        let b = generate_family(ProcessorFamily::Xeon, 2);
        assert_ne!(a, b);
    }

    #[test]
    fn ranges_are_in_paper_ballpark() {
        // The synthetic population should land near the published
        // range/variation (within a tolerant factor — this is a substrate,
        // not a fit).
        for f in ProcessorFamily::ALL {
            let recs = generate_family(f, 42);
            let rates: Vec<f64> = recs.iter().map(|r| r.specint_rate).collect();
            let r = range_ratio(&rates);
            let v = variation(&rates);
            let target = f.paper_stats();
            assert!(
                r > 1.0 + (target.range - 1.0) * 0.4 && r < 1.0 + (target.range - 1.0) * 2.5,
                "{}: range {r:.2} vs paper {:.2}",
                f.name(),
                target.range
            );
            assert!(
                v > target.variation * 0.35 && v < target.variation * 3.0,
                "{}: variation {v:.3} vs paper {:.3}",
                f.name(),
                target.variation
            );
        }
    }

    #[test]
    fn p4_range_is_widest_among_singles() {
        let range = |f: ProcessorFamily| {
            let rates: Vec<f64> = generate_family(f, 42)
                .iter()
                .map(|r| r.specint_rate)
                .collect();
            range_ratio(&rates)
        };
        let p4 = range(ProcessorFamily::Pentium4);
        assert!(p4 > range(ProcessorFamily::Xeon));
        assert!(p4 > range(ProcessorFamily::PentiumD));
        assert!(p4 > range(ProcessorFamily::Opteron));
    }

    #[test]
    fn every_year_in_span_is_populated() {
        for f in ProcessorFamily::ALL {
            let recs = generate_family(f, 42);
            let (y0, y1) = f.year_span();
            for y in y0..=y1 {
                assert!(
                    recs.iter().any(|r| r.year == y),
                    "{} missing year {y}",
                    f.name()
                );
            }
            assert!(recs.iter().all(|r| (y0..=y1).contains(&r.year)));
        }
    }

    #[test]
    fn later_years_have_more_records() {
        let recs = generate_family(ProcessorFamily::Opteron, 42);
        let count = |y: u32| recs.iter().filter(|r| r.year == y).count();
        assert!(count(2006) > count(2003));
    }

    #[test]
    fn smp_rates_scale_with_sockets() {
        let mean_rate = |f: ProcessorFamily| {
            let recs = generate_family(f, 42);
            let rates: Vec<f64> = recs
                .iter()
                .filter(|r| r.year == 2006)
                .map(|r| r.specint_rate)
                .collect();
            linalg::stats::mean(&rates)
        };
        let r1 = mean_rate(ProcessorFamily::Opteron);
        let r2 = mean_rate(ProcessorFamily::Opteron2);
        let r8 = mean_rate(ProcessorFamily::Opteron8);
        assert!(
            r2 > r1 * 1.5,
            "2-socket rate should approach 2x: {r1} -> {r2}"
        );
        assert!(
            r8 > r2 * 2.5,
            "8-socket rate should be much larger: {r2} -> {r8}"
        );
    }

    #[test]
    fn ratings_back_out_from_ratios() {
        let recs = generate_family(ProcessorFamily::Xeon, 42);
        for r in recs.iter().take(20) {
            let g = crate::rating::rating_from_ratios(&r.app_ratios);
            assert!((g - r.specint_rate).abs() / r.specint_rate < 1e-9);
        }
    }

    #[test]
    fn fp_rates_are_generated_and_consistent() {
        let recs = generate_family(ProcessorFamily::Opteron, 42);
        for r in recs.iter().take(25) {
            assert!(r.specfp_rate > 0.0);
            assert_eq!(r.fp_app_ratios.len(), 14);
            let g = crate::rating::rating_from_ratios(&r.fp_app_ratios);
            assert!((g - r.specfp_rate).abs() / r.specfp_rate < 1e-9);
        }
    }

    #[test]
    fn opteron_fp_advantage_over_netburst() {
        // K8's integrated memory controller gives it a larger fp/int ratio
        // than the NetBurst families.
        let mean_ratio = |f: ProcessorFamily| {
            let recs = generate_family(f, 42);
            let v: Vec<f64> = recs
                .iter()
                .map(|r| r.specfp_rate / r.specint_rate)
                .collect();
            linalg::stats::mean(&v)
        };
        assert!(mean_ratio(ProcessorFamily::Opteron) > mean_ratio(ProcessorFamily::Xeon));
    }

    #[test]
    fn clocks_trend_upward_across_years() {
        let recs = generate_family(ProcessorFamily::Pentium4, 42);
        let mean_clock = |y: u32| {
            let v: Vec<f64> = recs
                .iter()
                .filter(|r| r.year == y)
                .map(|r| r.processor_speed_mhz)
                .collect();
            linalg::stats::mean(&v)
        };
        assert!(mean_clock(2006) > mean_clock(2001) * 1.5);
    }
}

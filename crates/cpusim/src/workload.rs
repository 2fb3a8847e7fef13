//! Synthetic SPEC CPU2000-like workload profiles.
//!
//! The paper's sampled-DSE study simulates SimPoint intervals of twelve SPEC
//! CPU2000 applications and presents five (applu, equake, gcc, mesa, mcf).
//! We cannot ship SPEC binaries, so each benchmark is replaced by a
//! *workload profile*: a statistical description of the instruction stream —
//! operation mix, memory footprint and locality, branch population
//! behaviour, and dependency structure — from which [`crate::trace`]
//! deterministically synthesizes instruction traces.
//!
//! The profiles are tuned so the *response* of cycles to the Table-1 design
//! parameters matches each application's published character:
//!
//! * **mcf** — pointer-chasing over a multi-megabyte graph: dependent loads,
//!   enormous data footprint, very low locality. The paper reports the
//!   widest cycle range (6.38×) — cache parameters dominate.
//! * **gcc** — huge *code* footprint and branchy control flow: L1I size and
//!   the branch predictor dominate (paper range 5.27×).
//! * **applu / equake / mesa** — floating-point kernels with regular
//!   (applu), sparse-irregular (equake), and mixed (mesa) access patterns;
//!   narrower ranges (1.62×/1.73×/2.22×).

use serde::{Deserialize, Serialize};

/// The benchmarks available to the simulator.
///
/// The five the paper presents, plus seven more from the Phansalkar-style
/// SPEC subset so downstream users can extend the study (`ALL12`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Benchmark {
    /// SPEC fp: PDE solver, regular strided loops.
    Applu,
    /// SPEC fp: earthquake FEM, sparse irregular access.
    Equake,
    /// SPEC int: compiler, huge code footprint, branchy.
    Gcc,
    /// SPEC fp: OpenGL software renderer, mixed behaviour.
    Mesa,
    /// SPEC int: network-flow optimizer, pointer chasing, cache-hostile.
    Mcf,
    /// SPEC int: compression, small hot loops.
    Gzip,
    /// SPEC int: FPGA place & route, moderate footprint.
    Vpr,
    /// SPEC fp: neural-net image recognition, streaming fp.
    Art,
    /// SPEC fp: shallow-water model, large regular arrays.
    Swim,
    /// SPEC int: compression (Burrows–Wheeler), phase-heavy.
    Bzip2,
    /// SPEC int: place & route, pointer-heavy medium footprint.
    Twolf,
    /// SPEC fp: number theory, long fp dependency chains.
    Lucas,
}

impl Benchmark {
    /// The five applications whose results the paper presents (Figures 2–6).
    pub const PRESENTED: [Benchmark; 5] = [
        Benchmark::Applu,
        Benchmark::Equake,
        Benchmark::Gcc,
        Benchmark::Mesa,
        Benchmark::Mcf,
    ];

    /// The full twelve-application subset (§4.1: "we have selected 12
    /// applications from the SPEC2000 benchmark").
    pub const ALL12: [Benchmark; 12] = [
        Benchmark::Applu,
        Benchmark::Equake,
        Benchmark::Gcc,
        Benchmark::Mesa,
        Benchmark::Mcf,
        Benchmark::Gzip,
        Benchmark::Vpr,
        Benchmark::Art,
        Benchmark::Swim,
        Benchmark::Bzip2,
        Benchmark::Twolf,
        Benchmark::Lucas,
    ];

    /// Lower-case benchmark name as the paper writes it.
    pub fn name(self) -> &'static str {
        match self {
            Benchmark::Applu => "applu",
            Benchmark::Equake => "equake",
            Benchmark::Gcc => "gcc",
            Benchmark::Mesa => "mesa",
            Benchmark::Mcf => "mcf",
            Benchmark::Gzip => "gzip",
            Benchmark::Vpr => "vpr",
            Benchmark::Art => "art",
            Benchmark::Swim => "swim",
            Benchmark::Bzip2 => "bzip2",
            Benchmark::Twolf => "twolf",
            Benchmark::Lucas => "lucas",
        }
    }

    /// Parse a benchmark from its lower-case name.
    pub fn from_name(name: &str) -> Option<Benchmark> {
        Benchmark::ALL12.iter().copied().find(|b| b.name() == name)
    }

    /// The workload profile describing this benchmark's behaviour.
    pub fn profile(self) -> WorkloadProfile {
        WorkloadProfile::for_benchmark(self)
    }
}

/// Fractions of each instruction class in the dynamic stream.
///
/// Must sum to 1.0 (checked by [`OpMix::validate`]). Branches are emitted at
/// basic-block boundaries; the branch fraction therefore determines mean
/// block length.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct OpMix {
    /// Integer ALU fraction.
    pub ialu: f64,
    /// Integer multiply fraction.
    pub imult: f64,
    /// FP add fraction.
    pub fpalu: f64,
    /// FP multiply fraction.
    pub fpmult: f64,
    /// Load fraction.
    pub load: f64,
    /// Store fraction.
    pub store: f64,
    /// Branch fraction.
    pub branch: f64,
}

impl OpMix {
    /// Sum of all fractions (should be ≈ 1.0).
    pub fn total(&self) -> f64 {
        self.ialu + self.imult + self.fpalu + self.fpmult + self.load + self.store + self.branch
    }

    /// Panics unless the mix sums to 1 within tolerance.
    pub(crate) fn validate(&self) {
        let t = self.total();
        assert!((t - 1.0).abs() < 1e-9, "OpMix must sum to 1.0, got {t}");
        for (name, v) in [
            ("ialu", self.ialu),
            ("imult", self.imult),
            ("fpalu", self.fpalu),
            ("fpmult", self.fpmult),
            ("load", self.load),
            ("store", self.store),
            ("branch", self.branch),
        ] {
            assert!((0.0..=1.0).contains(&v), "OpMix.{name} out of range: {v}");
        }
    }
}

/// Composition of the static branch population.
///
/// Fractions over static branches; must sum to 1. "Biased" branches are
/// almost always taken (or not) — any predictor handles them. "Patterned"
/// branches repeat short history patterns — only history-based (2-level,
/// combination) predictors capture them. "Random" branches flip coins with
/// moderate bias — nothing but the perfect predictor does well.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct BranchMix {
    /// Fraction of strongly biased static branches.
    pub biased: f64,
    /// Fraction of short-pattern (history-predictable) static branches.
    pub patterned: f64,
    /// Fraction of weakly biased random static branches.
    pub random: f64,
    /// Taken probability of the random population (0.5 = hardest).
    pub random_taken_p: f64,
}

/// One execution phase: a multiplicative modulation of the base profile.
///
/// Real programs move through phases (the premise of SimPoint). The trace
/// generator cycles through these phases; the BBV clustering in
/// [`crate::simpoint`] should rediscover them.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct Phase {
    /// Scales the data footprint (1.0 = base).
    pub footprint_scale: f64,
    /// Scales the fraction of random (vs. sequential) data accesses.
    pub randomness_scale: f64,
    /// Offset added to every basic-block id, giving phases disjoint code.
    pub block_offset: u32,
    /// Relative weight: fraction of execution spent in this phase.
    pub weight: f64,
}

/// Full statistical description of one benchmark's dynamic behaviour.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct WorkloadProfile {
    /// Which benchmark this profile describes.
    pub benchmark: Benchmark,
    /// Whether the paper classifies it as floating point.
    pub is_fp: bool,
    /// Dynamic operation mix.
    pub op_mix: OpMix,
    /// Data footprint in bytes (distinct addressable region).
    pub data_footprint: u64,
    /// Fraction of data accesses that are random (Zipf) rather than
    /// sequential strides.
    pub data_randomness: f64,
    /// Zipf exponent of the random access component (higher = hotter head,
    /// more cache-friendly).
    pub data_zipf_s: f64,
    /// Stride in bytes of the sequential access component.
    pub stride_b: u64,
    /// Fraction of loads whose address depends on the previous load
    /// (pointer chasing — serializes misses).
    pub dependent_load_frac: f64,
    /// Number of static basic blocks (code footprint = blocks × block
    /// bytes).
    pub code_blocks: u32,
    /// Zipf exponent over basic blocks (code locality).
    pub code_zipf_s: f64,
    /// Static branch population behaviour.
    pub branch_mix: BranchMix,
    /// Mean register dependency distance (higher = more ILP).
    pub mean_dep_distance: f64,
    /// Execution phases.
    pub phases: Vec<Phase>,
    /// Instructions per phase segment before rotating to the next phase.
    pub phase_len: u64,
}

impl WorkloadProfile {
    /// Construct the tuned profile for a benchmark.
    pub fn for_benchmark(b: Benchmark) -> WorkloadProfile {
        const KB: u64 = 1024;
        let two_phase = |off: u32| {
            vec![
                Phase {
                    footprint_scale: 1.0,
                    randomness_scale: 1.0,
                    block_offset: 0,
                    weight: 0.6,
                },
                Phase {
                    footprint_scale: 1.35,
                    randomness_scale: 1.2,
                    block_offset: off,
                    weight: 0.4,
                },
            ]
        };
        match b {
            Benchmark::Applu => WorkloadProfile {
                benchmark: b,
                is_fp: true,
                op_mix: OpMix {
                    ialu: 0.22,
                    imult: 0.01,
                    fpalu: 0.26,
                    fpmult: 0.18,
                    load: 0.21,
                    store: 0.08,
                    branch: 0.04,
                },
                data_footprint: 224 * KB,
                data_randomness: 0.12,
                data_zipf_s: 1.1,
                stride_b: 8,
                dependent_load_frac: 0.02,
                code_blocks: 220,
                code_zipf_s: 1.3,
                branch_mix: BranchMix {
                    biased: 0.85,
                    patterned: 0.12,
                    random: 0.03,
                    random_taken_p: 0.55,
                },
                mean_dep_distance: 7.0,
                phases: two_phase(96),
                phase_len: 40_000,
            },
            Benchmark::Equake => WorkloadProfile {
                benchmark: b,
                is_fp: true,
                op_mix: OpMix {
                    ialu: 0.24,
                    imult: 0.01,
                    fpalu: 0.24,
                    fpmult: 0.14,
                    load: 0.25,
                    store: 0.07,
                    branch: 0.05,
                },
                data_footprint: 288 * KB,
                data_randomness: 0.30,
                data_zipf_s: 1.05,
                stride_b: 8,
                dependent_load_frac: 0.08,
                code_blocks: 180,
                code_zipf_s: 1.4,
                branch_mix: BranchMix {
                    biased: 0.80,
                    patterned: 0.13,
                    random: 0.07,
                    random_taken_p: 0.6,
                },
                mean_dep_distance: 5.0,
                phases: two_phase(64),
                phase_len: 50_000,
            },
            Benchmark::Gcc => WorkloadProfile {
                benchmark: b,
                is_fp: false,
                op_mix: OpMix {
                    ialu: 0.42,
                    imult: 0.01,
                    fpalu: 0.0,
                    fpmult: 0.0,
                    load: 0.26,
                    store: 0.13,
                    branch: 0.18,
                },
                data_footprint: 320 * KB,
                data_randomness: 0.35,
                data_zipf_s: 1.05,
                stride_b: 4,
                dependent_load_frac: 0.08,
                code_blocks: 2200,
                code_zipf_s: 0.95,
                branch_mix: BranchMix {
                    biased: 0.45,
                    patterned: 0.30,
                    random: 0.25,
                    random_taken_p: 0.55,
                },
                mean_dep_distance: 3.5,
                phases: vec![
                    Phase {
                        footprint_scale: 1.0,
                        randomness_scale: 1.0,
                        block_offset: 0,
                        weight: 0.4,
                    },
                    Phase {
                        footprint_scale: 1.5,
                        randomness_scale: 1.3,
                        block_offset: 700,
                        weight: 0.35,
                    },
                    Phase {
                        footprint_scale: 0.7,
                        randomness_scale: 0.8,
                        block_offset: 1400,
                        weight: 0.25,
                    },
                ],
                phase_len: 30_000,
            },
            Benchmark::Mesa => WorkloadProfile {
                benchmark: b,
                is_fp: true,
                op_mix: OpMix {
                    ialu: 0.30,
                    imult: 0.02,
                    fpalu: 0.17,
                    fpmult: 0.12,
                    load: 0.22,
                    store: 0.09,
                    branch: 0.08,
                },
                data_footprint: 320 * KB,
                data_randomness: 0.28,
                data_zipf_s: 1.05,
                stride_b: 16,
                dependent_load_frac: 0.06,
                code_blocks: 520,
                code_zipf_s: 1.25,
                branch_mix: BranchMix {
                    biased: 0.70,
                    patterned: 0.20,
                    random: 0.10,
                    random_taken_p: 0.5,
                },
                mean_dep_distance: 5.0,
                phases: two_phase(200),
                phase_len: 45_000,
            },
            Benchmark::Mcf => WorkloadProfile {
                benchmark: b,
                is_fp: false,
                op_mix: OpMix {
                    ialu: 0.34,
                    imult: 0.01,
                    fpalu: 0.0,
                    fpmult: 0.0,
                    load: 0.37,
                    store: 0.09,
                    branch: 0.19,
                },
                data_footprint: 640 * KB,
                data_randomness: 0.90,
                data_zipf_s: 0.40,
                stride_b: 8,
                dependent_load_frac: 0.65,
                code_blocks: 350,
                code_zipf_s: 1.2,
                branch_mix: BranchMix {
                    biased: 0.50,
                    patterned: 0.20,
                    random: 0.30,
                    random_taken_p: 0.5,
                },
                mean_dep_distance: 2.2,
                phases: two_phase(128),
                phase_len: 60_000,
            },
            Benchmark::Gzip => WorkloadProfile {
                benchmark: b,
                is_fp: false,
                op_mix: OpMix {
                    ialu: 0.45,
                    imult: 0.01,
                    fpalu: 0.0,
                    fpmult: 0.0,
                    load: 0.25,
                    store: 0.12,
                    branch: 0.17,
                },
                data_footprint: 192 * KB,
                data_randomness: 0.25,
                data_zipf_s: 1.2,
                stride_b: 1,
                dependent_load_frac: 0.05,
                code_blocks: 300,
                code_zipf_s: 1.5,
                branch_mix: BranchMix {
                    biased: 0.55,
                    patterned: 0.25,
                    random: 0.20,
                    random_taken_p: 0.55,
                },
                mean_dep_distance: 4.0,
                phases: two_phase(100),
                phase_len: 35_000,
            },
            Benchmark::Vpr => WorkloadProfile {
                benchmark: b,
                is_fp: false,
                op_mix: OpMix {
                    ialu: 0.38,
                    imult: 0.02,
                    fpalu: 0.06,
                    fpmult: 0.03,
                    load: 0.27,
                    store: 0.10,
                    branch: 0.14,
                },
                data_footprint: 512 * KB,
                data_randomness: 0.40,
                data_zipf_s: 0.95,
                stride_b: 8,
                dependent_load_frac: 0.15,
                code_blocks: 900,
                code_zipf_s: 1.1,
                branch_mix: BranchMix {
                    biased: 0.50,
                    patterned: 0.28,
                    random: 0.22,
                    random_taken_p: 0.5,
                },
                mean_dep_distance: 4.0,
                phases: two_phase(320),
                phase_len: 40_000,
            },
            Benchmark::Art => WorkloadProfile {
                benchmark: b,
                is_fp: true,
                op_mix: OpMix {
                    ialu: 0.20,
                    imult: 0.01,
                    fpalu: 0.28,
                    fpmult: 0.20,
                    load: 0.24,
                    store: 0.04,
                    branch: 0.03,
                },
                data_footprint: 384 * KB,
                data_randomness: 0.15,
                data_zipf_s: 0.8,
                stride_b: 4,
                dependent_load_frac: 0.02,
                code_blocks: 120,
                code_zipf_s: 1.6,
                branch_mix: BranchMix {
                    biased: 0.88,
                    patterned: 0.09,
                    random: 0.03,
                    random_taken_p: 0.6,
                },
                mean_dep_distance: 8.0,
                phases: two_phase(48),
                phase_len: 50_000,
            },
            Benchmark::Swim => WorkloadProfile {
                benchmark: b,
                is_fp: true,
                op_mix: OpMix {
                    ialu: 0.18,
                    imult: 0.01,
                    fpalu: 0.30,
                    fpmult: 0.20,
                    load: 0.23,
                    store: 0.06,
                    branch: 0.02,
                },
                data_footprint: 448 * KB,
                data_randomness: 0.08,
                data_zipf_s: 1.0,
                stride_b: 8,
                dependent_load_frac: 0.01,
                code_blocks: 90,
                code_zipf_s: 1.7,
                branch_mix: BranchMix {
                    biased: 0.92,
                    patterned: 0.06,
                    random: 0.02,
                    random_taken_p: 0.6,
                },
                mean_dep_distance: 9.0,
                phases: two_phase(32),
                phase_len: 60_000,
            },
            Benchmark::Bzip2 => WorkloadProfile {
                benchmark: b,
                is_fp: false,
                op_mix: OpMix {
                    ialu: 0.44,
                    imult: 0.01,
                    fpalu: 0.0,
                    fpmult: 0.0,
                    load: 0.26,
                    store: 0.13,
                    branch: 0.16,
                },
                data_footprint: 384 * KB,
                data_randomness: 0.35,
                data_zipf_s: 1.0,
                stride_b: 1,
                dependent_load_frac: 0.08,
                code_blocks: 420,
                code_zipf_s: 1.3,
                branch_mix: BranchMix {
                    biased: 0.52,
                    patterned: 0.28,
                    random: 0.20,
                    random_taken_p: 0.5,
                },
                mean_dep_distance: 3.5,
                phases: vec![
                    Phase {
                        footprint_scale: 0.6,
                        randomness_scale: 0.7,
                        block_offset: 0,
                        weight: 0.5,
                    },
                    Phase {
                        footprint_scale: 1.6,
                        randomness_scale: 1.4,
                        block_offset: 140,
                        weight: 0.5,
                    },
                ],
                phase_len: 30_000,
            },
            Benchmark::Twolf => WorkloadProfile {
                benchmark: b,
                is_fp: false,
                op_mix: OpMix {
                    ialu: 0.40,
                    imult: 0.02,
                    fpalu: 0.03,
                    fpmult: 0.01,
                    load: 0.28,
                    store: 0.10,
                    branch: 0.16,
                },
                data_footprint: 256 * KB,
                data_randomness: 0.50,
                data_zipf_s: 1.1,
                stride_b: 8,
                dependent_load_frac: 0.20,
                code_blocks: 700,
                code_zipf_s: 1.2,
                branch_mix: BranchMix {
                    biased: 0.48,
                    patterned: 0.27,
                    random: 0.25,
                    random_taken_p: 0.5,
                },
                mean_dep_distance: 3.0,
                phases: two_phase(256),
                phase_len: 40_000,
            },
            Benchmark::Lucas => WorkloadProfile {
                benchmark: b,
                is_fp: true,
                op_mix: OpMix {
                    ialu: 0.15,
                    imult: 0.02,
                    fpalu: 0.28,
                    fpmult: 0.26,
                    load: 0.20,
                    store: 0.06,
                    branch: 0.03,
                },
                data_footprint: 320 * KB,
                data_randomness: 0.10,
                data_zipf_s: 1.0,
                stride_b: 8,
                dependent_load_frac: 0.02,
                code_blocks: 110,
                code_zipf_s: 1.6,
                branch_mix: BranchMix {
                    biased: 0.90,
                    patterned: 0.07,
                    random: 0.03,
                    random_taken_p: 0.6,
                },
                mean_dep_distance: 4.0,
                phases: two_phase(40),
                phase_len: 55_000,
            },
        }
    }

    /// Validate internal consistency; panics on malformed profiles. Called
    /// by the trace generator.
    pub(crate) fn validate(&self) {
        self.op_mix.validate();
        let bm = &self.branch_mix;
        let t = bm.biased + bm.patterned + bm.random;
        assert!((t - 1.0).abs() < 1e-9, "BranchMix must sum to 1, got {t}");
        assert!(
            (0.0..=1.0).contains(&bm.random_taken_p),
            "random_taken_p must be a probability"
        );
        assert!(
            (0.0..=1.0).contains(&self.data_randomness),
            "data_randomness must be a fraction in [0, 1]"
        );
        assert!(
            (0.0..=1.0).contains(&self.dependent_load_frac),
            "dependent_load_frac must be a fraction in [0, 1]"
        );
        assert!(self.data_footprint > 0, "data_footprint must be nonzero");
        assert!(self.code_blocks > 0, "code_blocks must be nonzero");
        assert!(
            self.mean_dep_distance >= 1.0,
            "mean_dep_distance below 1 instruction"
        );
        assert!(!self.phases.is_empty(), "profile needs at least one phase");
        let w: f64 = self.phases.iter().map(|p| p.weight).sum();
        assert!(
            (w - 1.0).abs() < 1e-9,
            "phase weights must sum to 1, got {w}"
        );
        assert!(self.phase_len > 0, "phase_len must be nonzero");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_profiles_validate() {
        for b in Benchmark::ALL12 {
            b.profile().validate();
        }
    }

    #[test]
    fn presented_is_subset_of_all12() {
        for b in Benchmark::PRESENTED {
            assert!(Benchmark::ALL12.contains(&b));
        }
    }

    #[test]
    fn names_roundtrip() {
        for b in Benchmark::ALL12 {
            assert_eq!(Benchmark::from_name(b.name()), Some(b));
        }
        assert_eq!(Benchmark::from_name("nosuch"), None);
    }

    #[test]
    fn mcf_is_most_cache_hostile() {
        let mcf = Benchmark::Mcf.profile();
        for b in Benchmark::PRESENTED {
            if b != Benchmark::Mcf {
                let p = b.profile();
                assert!(mcf.data_footprint >= p.data_footprint);
                assert!(mcf.dependent_load_frac >= p.dependent_load_frac);
            }
        }
    }

    #[test]
    fn gcc_has_largest_code_footprint() {
        let gcc = Benchmark::Gcc.profile();
        for b in Benchmark::ALL12 {
            if b != Benchmark::Gcc {
                assert!(gcc.code_blocks > b.profile().code_blocks);
            }
        }
    }

    #[test]
    fn fp_flags_match_paper() {
        assert!(Benchmark::Applu.profile().is_fp);
        assert!(Benchmark::Equake.profile().is_fp);
        assert!(Benchmark::Mesa.profile().is_fp);
        assert!(!Benchmark::Gcc.profile().is_fp);
        assert!(!Benchmark::Mcf.profile().is_fp);
    }

    #[test]
    fn int_benchmarks_have_no_fp_ops() {
        for b in [
            Benchmark::Gcc,
            Benchmark::Mcf,
            Benchmark::Gzip,
            Benchmark::Bzip2,
        ] {
            let p = b.profile();
            assert_eq!(p.op_mix.fpalu + p.op_mix.fpmult, 0.0, "{}", b.name());
        }
    }
}

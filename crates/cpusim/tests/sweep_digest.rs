//! Byte-identity gate for the simulator: pinned FNV-1a 64 digests of
//! `merged_jsonl` over seeded configuration samples.
//!
//! Every Table-1 benchmark profile is swept on its own seeded sample (a
//! few with SimPoints on), and a seeded sample of the million-point `mega`
//! lattice covers wrong-path issue both ways and an L3. Windows are short
//! so the test stays fast in a debug build. A simulator change that moves
//! one cycle of one configuration changes a digest and fails here; the
//! pins were computed before the simulator's idle-cycle skip existed and
//! must never be re-pinned to make a refactor pass.

use cpusim::config::{DesignSpace, SpaceSpec};
use cpusim::{merged_jsonl, try_simulate_indices, Benchmark, SimOptions};

/// FNV-1a, 64-bit.
fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Digest of the canonical JSONL of `indices` of `space` on `benchmark`.
fn sweep_digest(
    space: &DesignSpace,
    benchmark: Benchmark,
    opts: &SimOptions,
    indices: &[usize],
) -> u64 {
    let outcome =
        try_simulate_indices(space, benchmark, opts, indices, None).expect("sample sweep");
    assert_eq!(outcome.results.len(), indices.len());
    fnv1a64(merged_jsonl(&outcome.results).as_bytes())
}

/// Short-window options; SimPoints on for the benchmarks that opt in.
fn opts(benchmark: Benchmark, seed: u64, simpoints: bool) -> SimOptions {
    if simpoints {
        SimOptions {
            instructions: 600,
            seed,
            use_simpoints: true,
            n_intervals: 5,
            max_k: 3,
        }
    } else {
        SimOptions {
            instructions: 1_500 + 100 * benchmark as u64,
            seed,
            ..Default::default()
        }
    }
}

/// `(benchmark, SimPoints on, pinned digest)` for the Table-1 samples.
const TABLE1_PINS: [(Benchmark, bool, u64); 12] = [
    (Benchmark::Applu, false, 0xddcd_cff2_cfda_6ba8),
    (Benchmark::Equake, false, 0xa785_29f8_5682_6c7e),
    (Benchmark::Gcc, true, 0x35be_c828_7254_a4db),
    (Benchmark::Mesa, false, 0xf94e_d654_13f7_310e),
    (Benchmark::Mcf, false, 0xa184_715f_ee1a_5610),
    (Benchmark::Gzip, true, 0x7cea_7809_279e_da35),
    (Benchmark::Vpr, false, 0xba80_a224_0c18_ee36),
    (Benchmark::Art, false, 0xe462_4dd8_1765_3e4c),
    (Benchmark::Swim, false, 0x789c_6d4a_d9c9_e3e2),
    (Benchmark::Bzip2, true, 0xa654_96a6_dcdd_87ff),
    (Benchmark::Twolf, false, 0x5970_b9cb_1a3f_c60e),
    (Benchmark::Lucas, false, 0xda6e_5f9c_e209_b0fc),
];

/// `(benchmark, pinned digest)` for the `mega` sample.
const MEGA_PINS: [(Benchmark, u64); 3] = [
    (Benchmark::Mcf, 0x9972_d825_4e93_1030),
    (Benchmark::Gcc, 0x2b72_e61c_5f14_80e0),
    (Benchmark::Equake, 0xa087_a245_9b46_66ca),
];

#[test]
fn table1_samples_match_pinned_digests() {
    let space = DesignSpace::table1();
    let mut got = Vec::new();
    for (i, &(benchmark, simpoints, _)) in TABLE1_PINS.iter().enumerate() {
        let sample = space.seeded_pool(100 + i as u64, 6);
        let opts = opts(benchmark, 7 + i as u64, simpoints);
        got.push((benchmark, sweep_digest(&space, benchmark, &opts, &sample)));
    }
    let want: Vec<(Benchmark, u64)> = TABLE1_PINS.iter().map(|&(b, _, d)| (b, d)).collect();
    assert_eq!(got, want, "Table-1 sweep digests moved");
}

#[test]
fn mega_sample_matches_pinned_digests() {
    let space = DesignSpace::try_generate(&SpaceSpec::mega()).expect("mega spec");
    let sample = space.seeded_pool(2024, 10);
    let configs: Vec<_> = sample.iter().map(|&i| space.config_at(i)).collect();
    // The sample must exercise both wrong-path modes and an L3.
    assert!(configs.iter().any(|c| c.issue_wrong_path));
    assert!(configs.iter().any(|c| !c.issue_wrong_path));
    assert!(configs.iter().any(|c| c.l3.is_some()));
    let mut got = Vec::new();
    for (i, &(benchmark, _)) in MEGA_PINS.iter().enumerate() {
        let opts = opts(benchmark, 31 + i as u64, false);
        got.push((benchmark, sweep_digest(&space, benchmark, &opts, &sample)));
    }
    assert_eq!(got, MEGA_PINS.to_vec(), "mega sweep digests moved");
    assert!(!space.is_materialized(), "the mega sample must stay lazy");
}

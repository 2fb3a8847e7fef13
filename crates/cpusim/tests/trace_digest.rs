//! Byte-identity gate for the trace generator and the SimPoint analysis:
//! pinned FNV-1a 64 digests of every [`Inst`] field of the first 50k
//! instructions of all twelve profiles at two seeds, and of the analysis
//! output (representative intervals, weight bits, per-interval cluster
//! assignments and the chosen k) for the SimPoint profiles.
//!
//! Every simulated cycle depends on these streams, so any change to the
//! generator or to the phase analysis that moves one instruction or one
//! weight bit fails here before it can move a sweep. The pins were computed
//! before the generator's fast paths existed and must never be re-pinned to
//! make a refactor pass.

use cpusim::simpoint::{analyze, SimPointAnalysis};
use cpusim::trace::{Inst, TraceGenerator};
use cpusim::Benchmark;

/// Instructions digested per (profile, seed).
const INSTS: usize = 50_000;
/// The two trace seeds every profile is digested at.
const SEEDS: [u64; 2] = [0xC0FFEE, 7];

/// Incremental FNV-1a, 64-bit.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }
    fn inst(&mut self, i: &Inst) {
        self.bytes(&[i.op as u8]);
        self.bytes(&i.dep1.to_le_bytes());
        self.bytes(&i.dep2.to_le_bytes());
        self.u64(i.addr);
        self.bytes(&i.block.to_le_bytes());
        self.bytes(&i.code_offset.to_le_bytes());
        self.bytes(&i.branch_id.to_le_bytes());
        self.bytes(&[u8::from(i.taken)]);
    }
}

fn trace_digest(benchmark: Benchmark, seed: u64) -> u64 {
    let mut gen = TraceGenerator::for_benchmark(benchmark, seed);
    let mut h = Fnv::new();
    for _ in 0..INSTS {
        h.inst(&gen.next_inst());
    }
    h.0
}

fn analysis_digest(a: &SimPointAnalysis) -> u64 {
    let mut h = Fnv::new();
    h.u64(a.k as u64);
    h.u64(a.interval_len);
    for p in &a.points {
        h.u64(p.interval as u64);
        h.u64(p.weight.to_bits());
    }
    for &c in &a.assignments {
        h.u64(c as u64);
    }
    h.0
}

/// `(benchmark, [digest at SEEDS[0], digest at SEEDS[1]])`.
const TRACE_PINS: [(Benchmark, [u64; 2]); 12] = [
    (
        Benchmark::Applu,
        [0xf1f8_e467_f705_97e0, 0xac4d_16cc_c0dc_fc61],
    ),
    (
        Benchmark::Equake,
        [0x143c_ac65_3709_e97e, 0x33ef_c728_3164_acd5],
    ),
    (
        Benchmark::Gcc,
        [0xebdd_76b4_280e_0216, 0xf484_5ea1_f608_2078],
    ),
    (
        Benchmark::Mesa,
        [0xe1a7_ca83_6fd4_353d, 0x7d6e_a7cd_1f85_d4bb],
    ),
    (
        Benchmark::Mcf,
        [0x2dc8_3ad7_6ec4_c2f5, 0xb8e5_69e0_5f6b_61ff],
    ),
    (
        Benchmark::Gzip,
        [0x1e2e_feef_a416_c759, 0x4117_5d50_c359_2b7e],
    ),
    (
        Benchmark::Vpr,
        [0x2e67_6d11_5b71_5768, 0x8e8b_f5b9_1609_22d1],
    ),
    (
        Benchmark::Art,
        [0x7e57_18f1_b6eb_0d1b, 0xde86_9993_d932_357f],
    ),
    (
        Benchmark::Swim,
        [0x627b_f40f_7d3c_c8fe, 0xe4dc_381f_4bcf_9e4c],
    ),
    (
        Benchmark::Bzip2,
        [0xc355_481b_4cb1_fec7, 0xe170_b92e_c628_8897],
    ),
    (
        Benchmark::Twolf,
        [0x259d_41e4_4efb_d153, 0x74c1_66b3_6295_cf75],
    ),
    (
        Benchmark::Lucas,
        [0x1393_9d9a_7d32_1e21, 0x3b32_9b15_376c_1e09],
    ),
];

/// `(benchmark, n_intervals, interval_len, max_k, [digest per seed])` for
/// the profiles the sweeps run with SimPoints on.
const ANALYSIS_PINS: [(Benchmark, usize, u64, usize, [u64; 2]); 3] = [
    (
        Benchmark::Gcc,
        10,
        4_000,
        4,
        [0x1dc3_5162_d830_3e0b, 0xeee0_0ca6_59aa_0fb2],
    ),
    (
        Benchmark::Gzip,
        8,
        3_000,
        3,
        [0x21d8_bd16_931c_29c2, 0x78cd_488b_ff8d_fb14],
    ),
    (
        Benchmark::Bzip2,
        6,
        5_000,
        4,
        [0x38b8_1056_5337_5059, 0x0f7a_23fa_15ba_b64c],
    ),
];

#[test]
fn traces_match_pinned_digests() {
    let mut got = Vec::new();
    for (b, pins) in TRACE_PINS {
        let digests = SEEDS.map(|s| trace_digest(b, s));
        if digests != pins {
            got.push(format!("{b:?}: {digests:#018x?} (pinned {pins:#018x?})"));
        }
    }
    assert!(got.is_empty(), "trace digests moved:\n{}", got.join("\n"));
}

#[test]
fn simpoint_analyses_match_pinned_digests() {
    let mut got = Vec::new();
    for (b, n, len, max_k, pins) in ANALYSIS_PINS {
        let digests = SEEDS.map(|s| analysis_digest(&analyze(b, s, n, len, max_k)));
        if digests != pins {
            got.push(format!("{b:?}: {digests:#018x?} (pinned {pins:#018x?})"));
        }
    }
    assert!(
        got.is_empty(),
        "analysis digests moved:\n{}",
        got.join("\n")
    );
}

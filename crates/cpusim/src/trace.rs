//! Deterministic synthetic instruction-trace generation.
//!
//! A [`TraceGenerator`] turns a [`WorkloadProfile`] plus a `u64` seed into an
//! unbounded instruction stream. Two properties matter for the study:
//!
//! 1. **Config-independence** — the stream depends only on (benchmark,
//!    seed). Every design point replays the *same* trace, so cycle-count
//!    differences across the design space are caused by the configuration,
//!    never by trace noise (the paper gets this for free by replaying the
//!    same SimPoint interval).
//! 2. **Structured behaviour** — phases, basic-block locality, branch
//!    populations with distinct predictability classes, and a mixture of
//!    strided and Zipf-random memory access give the simulator the same
//!    levers real SPEC applications pull.

use crate::workload::{Phase, WorkloadProfile};
use linalg::dist::{child_seed, seeded_rng, Zipf};
use rand::rngs::StdRng;
use rand::Rng;

/// Instruction class, mirroring SimpleScalar's functional-unit classes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OpClass {
    /// Integer ALU op (latency 1).
    IAlu,
    /// Integer multiply (latency 3).
    IMult,
    /// FP add/compare (latency 2).
    FpAlu,
    /// FP multiply/divide (latency 4).
    FpMult,
    /// Memory load.
    Load,
    /// Memory store.
    Store,
    /// Conditional branch.
    Branch,
}

/// One dynamic instruction.
#[derive(Debug, Clone, Copy)]
pub struct Inst {
    /// Operation class.
    pub op: OpClass,
    /// Distance (in dynamic instructions) to the first producer; 0 = none.
    pub dep1: u16,
    /// Distance to the second producer; 0 = none.
    pub dep2: u16,
    /// Byte address for loads/stores (0 otherwise).
    pub addr: u64,
    /// Basic-block id (drives the I-cache address and the BBV).
    pub block: u32,
    /// Instruction's byte offset within its block's code region.
    pub code_offset: u32,
    /// For branches: static branch id (equals the block it terminates).
    pub branch_id: u32,
    /// For branches: architectural outcome.
    pub taken: bool,
}

impl Inst {
    /// Instruction-fetch byte address. Blocks occupy disjoint 256-byte code
    /// regions, so total code footprint is `code_blocks * 256` bytes.
    pub(crate) fn code_addr(&self) -> u64 {
        u64::from(self.block) * CODE_BLOCK_BYTES + (u64::from(self.code_offset) % CODE_BLOCK_BYTES)
    }
}

/// Bytes of code address space reserved per basic block.
pub(crate) const CODE_BLOCK_BYTES: u64 = 256;

/// Anything the pipeline can fetch instructions from: a live
/// [`TraceGenerator`] or a materialized [`ReplaySource`] buffer (used by the
/// parallel design-space sweep so every configuration replays byte-identical
/// instructions without regenerating them).
pub trait InstSource {
    /// Next architectural instruction.
    fn fetch(&mut self) -> Inst;
    /// Next wrong-path (squashed) instruction; must not perturb the
    /// architectural stream.
    fn fetch_wrong_path(&mut self) -> Inst;
}

impl InstSource for TraceGenerator {
    fn fetch(&mut self) -> Inst {
        self.next_inst()
    }
    fn fetch_wrong_path(&mut self) -> Inst {
        self.wrong_path_inst()
    }
}

/// Replays a materialized instruction slice; wrong-path instructions are
/// synthesized from a cheap xorshift stream over the observed footprint.
pub struct ReplaySource<'a> {
    insts: &'a [Inst],
    pos: usize,
    wp_state: u64,
    /// Exclusive upper bound of data addresses for wrong-path loads.
    data_bound: u64,
    /// Exclusive upper bound of block ids for wrong-path fetches.
    block_bound: u32,
}

impl<'a> ReplaySource<'a> {
    /// Wrap a trace slice. `wp_seed` feeds the wrong-path stream.
    pub fn new(insts: &'a [Inst], wp_seed: u64) -> Self {
        let data_bound = insts.iter().map(|i| i.addr).max().unwrap_or(0).max(4096) + 64;
        let block_bound = insts.iter().map(|i| i.block).max().unwrap_or(0) + 1;
        ReplaySource {
            insts,
            pos: 0,
            wp_state: wp_seed | 1,
            data_bound,
            block_bound,
        }
    }

    /// Instructions remaining.
    pub fn remaining(&self) -> usize {
        self.insts.len() - self.pos
    }

    #[inline]
    fn next_wp_u64(&mut self) -> u64 {
        // xorshift64*.
        let mut x = self.wp_state;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.wp_state = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }
}

impl InstSource for ReplaySource<'_> {
    fn fetch(&mut self) -> Inst {
        // Wrap around if the pipeline asks for more than the buffer holds
        // (callers size runs to the buffer, so wrap-around is a safety net).
        let i = self.insts[self.pos % self.insts.len()];
        self.pos += 1;
        i
    }

    fn fetch_wrong_path(&mut self) -> Inst {
        let r = self.next_wp_u64();
        let op = match r % 4 {
            0 | 1 => OpClass::IAlu,
            2 => OpClass::Load,
            _ => OpClass::Branch,
        };
        let addr = if op == OpClass::Load {
            (r >> 8) % self.data_bound
        } else {
            0
        };
        let block = ((r >> 32) as u32) % self.block_bound;
        Inst {
            op,
            dep1: 1,
            dep2: 0,
            addr,
            block,
            code_offset: 0,
            branch_id: block,
            taken: false,
        }
    }
}

/// Behavioural class of a static branch (derived from the profile's
/// [`crate::workload::BranchMix`]).
#[derive(Debug, Clone, Copy, PartialEq)]
enum BranchClass {
    /// Taken (or not) with probability 0.95.
    Biased { taken_mostly: bool },
    /// Loop-style pattern: taken `period-1` times, then one not-taken exit
    /// (inverted for some branches). Per-branch counters mispredict the
    /// exits (~1/period); history predictors can learn them.
    Patterned { period: u8, inverted: bool },
    /// Coin flip with a per-branch bias — hard for every table-based
    /// predictor, trivial only for the oracle.
    Random { taken_p: f64 },
}

/// Per-phase derived sampling state.
struct PhaseState {
    /// The phase description.
    phase: Phase,
    /// Zipf sampler over this phase's data lines.
    data_zipf: Zipf,
    /// Number of 64-byte data lines in this phase's footprint.
    data_lines: u64,
    /// Effective random-access fraction.
    randomness: f64,
    /// Zipf sampler over basic blocks.
    block_zipf: Zipf,
}

/// Deterministic instruction stream for one (benchmark, seed) pair.
pub struct TraceGenerator {
    profile: WorkloadProfile,
    rng: StdRng,
    /// Independent stream for wrong-path (squashed) instructions so that
    /// config-dependent wrong-path fetch cannot perturb the architectural
    /// stream.
    wp_rng: StdRng,
    phases: Vec<PhaseState>,
    /// Total instructions per phase superperiod.
    superperiod: u64,
    /// Cumulative phase segment boundaries within a superperiod.
    seg_bounds: Vec<u64>,
    /// Dynamic instruction index.
    index: u64,
    /// Current basic block (includes phase offset).
    block: u32,
    /// Instruction offset within the current block.
    block_offset: u32,
    /// Class of each static branch, indexed by raw branch id.
    branch_class: Vec<BranchClass>,
    /// Per-branch dynamic occurrence counters (for pattern phase).
    branch_occ: Vec<u32>,
    /// Sequential-walker position in bytes.
    seq_pos: u64,
    /// Distance since the last load (for dependent-load chains).
    since_last_load: u16,
    /// Scatter multiplier mixing Zipf ranks onto footprint lines.
    scatter_salt: u64,
}

impl TraceGenerator {
    /// Build a generator. The profile is validated eagerly.
    pub fn new(profile: WorkloadProfile, seed: u64) -> Self {
        profile.validate();
        let rng = seeded_rng(child_seed(seed, 0x7ace));
        let wp_rng = seeded_rng(child_seed(seed, 0xbad0));

        // Phase-derived samplers. Segment lengths are proportional to phase
        // weights over a superperiod of phases.len() * phase_len.
        let superperiod = profile.phase_len * profile.phases.len() as u64;
        let mut phases = Vec::with_capacity(profile.phases.len());
        let mut seg_bounds = Vec::with_capacity(profile.phases.len());
        let mut acc = 0u64;
        for ph in &profile.phases {
            let footprint =
                ((profile.data_footprint as f64) * ph.footprint_scale).max(4096.0) as u64;
            let data_lines = (footprint / 64).max(1);
            // Cap the Zipf table so pathological footprints stay cheap; ranks
            // are scattered across the full footprint below.
            let zipf_n = data_lines.min(1 << 20) as usize;
            let data_zipf = Zipf::new(zipf_n, profile.data_zipf_s);
            let block_zipf = Zipf::new(profile.code_blocks as usize, profile.code_zipf_s);
            let seg_len = ((superperiod as f64) * ph.weight).round().max(1.0) as u64;
            acc += seg_len;
            seg_bounds.push(acc);
            phases.push(PhaseState {
                phase: *ph,
                data_zipf,
                data_lines,
                randomness: (profile.data_randomness * ph.randomness_scale).clamp(0.0, 1.0),
                block_zipf,
            });
        }

        // Static branch classes: one branch per basic block (+ the largest
        // phase offset), assigned by quota from the profile's BranchMix.
        let max_offset = profile
            .phases
            .iter()
            .map(|p| p.block_offset)
            .max()
            .unwrap_or(0);
        let n_branches = (profile.code_blocks + max_offset) as usize;
        let bm = profile.branch_mix;
        let mut class_rng = seeded_rng(child_seed(seed, 0xb1a5));
        let branch_class = (0..n_branches)
            .map(|_| {
                let u: f64 = class_rng.random();
                if u < bm.biased {
                    BranchClass::Biased {
                        taken_mostly: class_rng.random::<f64>() < 0.7,
                    }
                } else if u < bm.biased + bm.patterned {
                    BranchClass::Patterned {
                        period: 3 + (class_rng.random_range(0..4u8)),
                        inverted: class_rng.random::<f64>() < 0.3,
                    }
                } else {
                    // Center the per-branch bias on the profile's
                    // random_taken_p with a wide spread.
                    let center = bm.random_taken_p;
                    let p = (center + 0.6 * (class_rng.random::<f64>() - 0.5)).clamp(0.15, 0.85);
                    BranchClass::Random { taken_p: p }
                }
            })
            .collect();

        let scatter_salt = child_seed(seed, 0x5ca7) | 1;
        TraceGenerator {
            profile,
            rng,
            wp_rng,
            phases,
            superperiod: acc,
            seg_bounds,
            index: 0,
            block: 0,
            block_offset: 0,
            branch_class,
            branch_occ: vec![0; n_branches],
            seq_pos: 0,
            since_last_load: 0,
            scatter_salt,
        }
    }

    /// Convenience: generator for a benchmark by name-level profile.
    pub fn for_benchmark(b: crate::workload::Benchmark, seed: u64) -> Self {
        Self::new(b.profile(), seed)
    }

    /// Index of the phase active at the current instruction.
    fn phase_index(&self) -> usize {
        let pos = self.index % self.superperiod;
        match self.seg_bounds.binary_search(&pos) {
            Ok(i) => (i + 1).min(self.phases.len() - 1),
            Err(i) => i.min(self.phases.len() - 1),
        }
    }

    /// Scatter a Zipf rank across the phase footprint so hot lines are not
    /// clustered at low addresses (multiplicative hashing, bijective mod
    /// 2^64 because the salt is odd).
    fn rank_to_line(&self, rank: u64, lines: u64) -> u64 {
        rank.wrapping_mul(self.scatter_salt) % lines
    }

    /// Generate the next architectural instruction.
    pub fn next_inst(&mut self) -> Inst {
        let pi = self.phase_index();
        let mix = self.profile.op_mix;
        let u: f64 = self.rng.random();
        // Walk the mix CDF; the branch class absorbs the tail so the mix
        // always resolves even under floating-point rounding.
        let classes = [
            (mix.ialu, OpClass::IAlu),
            (mix.imult, OpClass::IMult),
            (mix.fpalu, OpClass::FpAlu),
            (mix.fpmult, OpClass::FpMult),
            (mix.load, OpClass::Load),
            (mix.store, OpClass::Store),
        ];
        let mut t = u;
        let mut op = OpClass::Branch;
        for (frac, cls) in classes {
            t -= frac;
            if t < 0.0 {
                op = cls;
                break;
            }
        }

        let (dep1, dep2) = self.sample_deps(op);
        let mut inst = Inst {
            op,
            dep1,
            dep2,
            addr: 0,
            block: self.block,
            code_offset: self.block_offset * 4,
            branch_id: 0,
            taken: false,
        };

        match op {
            OpClass::Load | OpClass::Store => {
                inst.addr = self.sample_data_addr(pi, op == OpClass::Load, &mut inst);
            }
            OpClass::Branch => {
                let raw_id = (self.block % self.branch_class.len() as u32) as usize;
                let occ = self.branch_occ[raw_id];
                self.branch_occ[raw_id] = occ.wrapping_add(1);
                let taken = match self.branch_class[raw_id] {
                    BranchClass::Biased { taken_mostly } => {
                        let flip: f64 = self.rng.random();
                        if taken_mostly {
                            flip < 0.95
                        } else {
                            flip < 0.05
                        }
                    }
                    BranchClass::Patterned { period, inverted } => {
                        let body = (occ % u32::from(period)) != (u32::from(period) - 1);
                        body != inverted
                    }
                    BranchClass::Random { taken_p } => self.rng.random::<f64>() < taken_p,
                };
                inst.branch_id = raw_id as u32;
                inst.taken = taken;
                // Control transfer: next block from the phase's code-locality
                // distribution, offset into the phase's code region.
                let ph = &self.phases[pi];
                let next = ph.block_zipf.sample(&mut self.rng) as u32 + ph.phase.block_offset;
                self.block = next % self.branch_class.len() as u32;
                self.block_offset = 0;
            }
            _ => {}
        }

        if op != OpClass::Branch {
            self.block_offset += 1;
        }
        if op == OpClass::Load {
            self.since_last_load = 0;
        }
        self.since_last_load = self.since_last_load.saturating_add(1);
        self.index += 1;
        inst
    }

    /// Dependency distances: geometric-ish with the profile's mean,
    /// clamped to the scheduler-visible window.
    fn sample_deps(&mut self, op: OpClass) -> (u16, u16) {
        let mean = self.profile.mean_dep_distance;
        let draw = |rng: &mut StdRng| -> u16 {
            let u: f64 = rng.random();
            // Inverse-CDF of geometric with success prob 1/mean.
            let p = 1.0 / mean;
            let d = ((1.0 - u).ln() / (1.0 - p).ln()).ceil();
            (d.max(1.0) as u16).min(64)
        };
        let d1 = draw(&mut self.rng);
        let d2 = if op != OpClass::Branch && self.rng.random::<f64>() < 0.5 {
            draw(&mut self.rng)
        } else {
            0
        };
        (d1, d2)
    }

    /// Data address: sequential walker or scattered Zipf, with
    /// pointer-chasing loads forced onto the random component and made
    /// dependent on the previous load.
    fn sample_data_addr(&mut self, pi: usize, is_load: bool, inst: &mut Inst) -> u64 {
        let ph = &self.phases[pi];
        let chasing = is_load && self.rng.random::<f64>() < self.profile.dependent_load_frac;
        if chasing {
            // Address comes from the previous load's value: serialize on it.
            inst.dep1 = self.since_last_load.clamp(1, 64);
            let rank = ph.data_zipf.sample(&mut self.rng) as u64;
            let line = self.rank_to_line(rank, ph.data_lines);
            return line * 64 + self.rng.random_range(0..8u64) * 8;
        }
        if self.rng.random::<f64>() < ph.randomness {
            let rank = ph.data_zipf.sample(&mut self.rng) as u64;
            let line = self.rank_to_line(rank, ph.data_lines);
            line * 64 + self.rng.random_range(0..8u64) * 8
        } else {
            let footprint = ph.data_lines * 64;
            self.seq_pos = (self.seq_pos + self.profile.stride_b) % footprint;
            self.seq_pos
        }
    }

    /// Generate one *wrong-path* instruction (fetched past a mispredicted
    /// branch, later squashed). Uses an independent RNG stream so the
    /// architectural trace is identical across configurations.
    pub(crate) fn wrong_path_inst(&mut self) -> Inst {
        let pi = self.phase_index();
        let ph = &self.phases[pi];
        let u: f64 = self.wp_rng.random();
        let op = if u < 0.5 {
            OpClass::IAlu
        } else if u < 0.75 {
            OpClass::Load
        } else {
            OpClass::Branch
        };
        let mut addr = 0;
        if op == OpClass::Load {
            let rank = ph.data_zipf.sample(&mut self.wp_rng) as u64;
            addr = self.rank_to_line(rank, ph.data_lines) * 64;
        }
        let block = self.wp_rng.random_range(0..self.branch_class.len() as u32);
        Inst {
            op,
            dep1: 1,
            dep2: 0,
            addr,
            block,
            code_offset: 0,
            branch_id: block,
            taken: false,
        }
    }

    /// Materialize the next `n` instructions into a vector.
    pub fn take_vec(&mut self, n: usize) -> Vec<Inst> {
        (0..n).map(|_| self.next_inst()).collect()
    }

    /// Dynamic instruction index (number generated so far).
    pub fn index(&self) -> u64 {
        self.index
    }

    /// The profile driving this generator.
    pub fn profile(&self) -> &WorkloadProfile {
        &self.profile
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::Benchmark;
    use linalg::stats::mean;

    #[test]
    fn same_seed_same_trace() {
        let mut a = TraceGenerator::for_benchmark(Benchmark::Gcc, 99);
        let mut b = TraceGenerator::for_benchmark(Benchmark::Gcc, 99);
        for _ in 0..5000 {
            let (x, y) = (a.next_inst(), b.next_inst());
            assert_eq!(x.addr, y.addr);
            assert_eq!(x.block, y.block);
            assert_eq!(x.taken, y.taken);
            assert_eq!(x.op, y.op);
        }
    }

    #[test]
    fn different_seed_different_trace() {
        let mut a = TraceGenerator::for_benchmark(Benchmark::Gcc, 1);
        let mut b = TraceGenerator::for_benchmark(Benchmark::Gcc, 2);
        let va = a.take_vec(2000);
        let vb = b.take_vec(2000);
        let same = va
            .iter()
            .zip(&vb)
            .filter(|(x, y)| x.op == y.op && x.addr == y.addr)
            .count();
        assert!(same < 1500, "traces should diverge, {same} identical");
    }

    #[test]
    fn wrong_path_does_not_perturb_architectural_stream() {
        let mut a = TraceGenerator::for_benchmark(Benchmark::Mcf, 7);
        let mut b = TraceGenerator::for_benchmark(Benchmark::Mcf, 7);
        // Interleave wrong-path draws on one generator only.
        let mut va = Vec::new();
        let mut vb = Vec::new();
        for i in 0..3000 {
            va.push(a.next_inst());
            if i % 7 == 0 {
                let _ = a.wrong_path_inst();
            }
            vb.push(b.next_inst());
        }
        for (x, y) in va.iter().zip(&vb) {
            assert_eq!(x.addr, y.addr);
            assert_eq!(x.taken, y.taken);
        }
    }

    #[test]
    fn op_mix_is_respected() {
        let prof = Benchmark::Gcc.profile();
        let mut g = TraceGenerator::new(prof.clone(), 5);
        let v = g.take_vec(60_000);
        let frac = |cls: OpClass| v.iter().filter(|i| i.op == cls).count() as f64 / v.len() as f64;
        assert!((frac(OpClass::Branch) - prof.op_mix.branch).abs() < 0.01);
        assert!((frac(OpClass::Load) - prof.op_mix.load).abs() < 0.01);
        assert!((frac(OpClass::Store) - prof.op_mix.store).abs() < 0.01);
        assert_eq!(frac(OpClass::FpAlu), 0.0, "gcc is integer-only");
    }

    #[test]
    fn addresses_stay_in_footprint() {
        let prof = Benchmark::Equake.profile();
        let max_scale = prof
            .phases
            .iter()
            .map(|p| p.footprint_scale)
            .fold(0.0f64, f64::max);
        let bound = (prof.data_footprint as f64 * max_scale) as u64 + 64;
        let mut g = TraceGenerator::new(prof, 3);
        for _ in 0..30_000 {
            let i = g.next_inst();
            if matches!(i.op, OpClass::Load | OpClass::Store) {
                assert!(i.addr < bound, "addr {} beyond footprint {}", i.addr, bound);
            }
        }
    }

    #[test]
    fn deps_have_profile_mean_scale() {
        let prof = Benchmark::Swim.profile(); // mean_dep_distance = 9
        let mut g = TraceGenerator::new(prof, 11);
        let v = g.take_vec(30_000);
        let d: Vec<f64> = v
            .iter()
            .filter(|i| i.dep1 > 0)
            .map(|i| i.dep1 as f64)
            .collect();
        let m = mean(&d);
        assert!(m > 5.0 && m < 12.0, "mean dep distance {m}");
    }

    #[test]
    fn phases_shift_block_population() {
        // gcc's phases have disjoint block offsets; early and late windows
        // should use visibly different block sets.
        let mut g = TraceGenerator::for_benchmark(Benchmark::Gcc, 13);
        let first = g.take_vec(25_000);
        let _skip = g.take_vec(10_000);
        let second = g.take_vec(25_000);
        let set = |v: &[Inst]| {
            v.iter()
                .map(|i| i.block)
                .collect::<std::collections::HashSet<_>>()
        };
        let (s1, s2) = (set(&first), set(&second));
        let inter = s1.intersection(&s2).count();
        let union = s1.union(&s2).count();
        assert!(
            (inter as f64) < 0.9 * union as f64,
            "phases should differentiate code: {inter}/{union}"
        );
    }

    #[test]
    fn branch_population_mixes_predictability() {
        // gcc has patterned + random branches; per-branch outcomes must not
        // be constant for those classes.
        let mut g = TraceGenerator::for_benchmark(Benchmark::Gcc, 17);
        let mut taken_counts: std::collections::HashMap<u32, (u32, u32)> = Default::default();
        for _ in 0..80_000 {
            let i = g.next_inst();
            if i.op == OpClass::Branch {
                let e = taken_counts.entry(i.branch_id).or_default();
                if i.taken {
                    e.0 += 1;
                } else {
                    e.1 += 1;
                }
            }
        }
        // gcc's code footprint is large, so most static branches execute
        // only a few times in this window; judge mixing only on branches
        // with enough dynamic executions to show both outcomes.
        let hot: Vec<_> = taken_counts.values().filter(|(t, n)| t + n >= 6).collect();
        assert!(!hot.is_empty(), "expected some hot branches");
        let mixed = hot.iter().filter(|(t, n)| *t > 0 && *n > 0).count();
        assert!(
            mixed * 3 > hot.len(),
            "expected a sizable mixed-outcome branch population: {mixed}/{}",
            hot.len()
        );
    }

    #[test]
    fn code_addr_is_within_block_region() {
        let mut g = TraceGenerator::for_benchmark(Benchmark::Mesa, 23);
        for _ in 0..5000 {
            let i = g.next_inst();
            let base = i.block as u64 * CODE_BLOCK_BYTES;
            let a = i.code_addr();
            assert!(a >= base && a < base + CODE_BLOCK_BYTES);
        }
    }
}

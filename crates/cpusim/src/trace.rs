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
use rand::{Rng, RngCore};
use std::sync::Arc;

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
#[cfg_attr(test, derive(PartialEq))]
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
}

/// The immutable tables a generator samples from, built once per
/// (profile, seed) and shared by every generator resumed from one of its
/// checkpoints.
struct Tables {
    profile: WorkloadProfile,
    phases: Vec<PhaseState>,
    /// Zipf sampler over basic blocks (every phase draws from it, offset
    /// into its own code region).
    block_zipf: Zipf,
    /// Total instructions per phase superperiod.
    superperiod: u64,
    /// Cumulative phase segment boundaries within a superperiod.
    seg_bounds: Vec<u64>,
    /// Class of each static branch, indexed by branch (block) id.
    branch_class: Vec<BranchClass>,
    /// Scatter multiplier mixing Zipf ranks onto footprint lines.
    scatter_salt: u64,
    /// The op-mix fractions of every class but the branch, in
    /// [`OP_ORDER`].
    op_fracs: [f64; 6],
    /// `dep_cut[k - 1]` is the smallest 53-bit draw whose dependency
    /// distance exceeds `k`, for `k` in `1..=63` ([`dep_cuts`]).
    dep_cut: [u64; 63],
}

/// Op classes in the order the mix CDF is walked.
const OP_ORDER: [OpClass; 7] = [
    OpClass::IAlu,
    OpClass::IMult,
    OpClass::FpAlu,
    OpClass::FpMult,
    OpClass::Load,
    OpClass::Store,
    OpClass::Branch,
];

impl Tables {
    /// Index of the phase active at dynamic instruction `index`. The
    /// generator tracks it incrementally; this is the oracle it is
    /// checked against.
    fn phase_index(&self, index: u64) -> usize {
        let pos = index % self.superperiod;
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

    /// Op class of a uniform draw `u`: walk the mix CDF, the branch class
    /// absorbing the tail so the mix always resolves even under
    /// floating-point rounding. The class is the first whose running
    /// remainder `u − Σ frac` drops below 0; every `frac` is `≥ 0`, so the
    /// remainder never grows and counting the remainders still `≥ 0` finds
    /// that class without a branch per step.
    fn op_class(&self, u: f64) -> OpClass {
        let mut acc = u;
        let mut n = 0;
        for frac in self.op_fracs {
            acc -= frac;
            n += usize::from(acc >= 0.0);
        }
        OP_ORDER[n]
    }
}

/// Everything a step of the stream advances: the RNG streams, the
/// counters, the phase position and the per-branch occurrence counts. A clone taken at
/// instruction `i` resumes the stream at exactly instruction `i`
/// ([`TraceGenerator::resume`]).
#[derive(Clone)]
#[cfg_attr(test, derive(Debug, PartialEq))]
pub(crate) struct Checkpoint {
    rng: StdRng,
    /// Independent stream for wrong-path (squashed) instructions so that
    /// config-dependent wrong-path fetch cannot perturb the architectural
    /// stream.
    wp_rng: StdRng,
    /// Dynamic instruction index.
    index: u64,
    /// Current basic block (includes phase offset).
    block: u32,
    /// Instruction offset within the current block.
    block_offset: u32,
    /// Per-branch dynamic occurrence counters (for pattern phase).
    branch_occ: Vec<u32>,
    /// Sequential-walker position in bytes.
    seq_pos: u64,
    /// Distance since the last load (for dependent-load chains).
    since_last_load: u16,
    /// Position within the phase superperiod (`index % superperiod`).
    phase_pos: u64,
    /// Phase active at `index` ([`Tables::phase_index`]).
    phase: usize,
}

/// Deterministic instruction stream for one (benchmark, seed) pair.
pub struct TraceGenerator {
    tables: Arc<Tables>,
    state: Checkpoint,
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
        let data_lines: Vec<u64> = profile
            .phases
            .iter()
            .map(|ph| {
                let footprint =
                    ((profile.data_footprint as f64) * ph.footprint_scale).max(4096.0) as u64;
                (footprint / 64).max(1)
            })
            .collect();
        // Cap the Zipf tables so pathological footprints stay cheap; ranks
        // are scattered across the full footprint below. The phases share
        // one exponent, so one running sum builds every table.
        let zipf_ns: Vec<usize> = data_lines
            .iter()
            .map(|&lines| lines.min(1 << 20) as usize)
            .collect();
        let data_zipfs = Zipf::family(&zipf_ns, profile.data_zipf_s);
        let mut phases = Vec::with_capacity(profile.phases.len());
        let mut seg_bounds = Vec::with_capacity(profile.phases.len());
        let mut acc = 0u64;
        for ((ph, data_zipf), data_lines) in profile.phases.iter().zip(data_zipfs).zip(data_lines) {
            let seg_len = ((superperiod as f64) * ph.weight).round().max(1.0) as u64;
            acc += seg_len;
            seg_bounds.push(acc);
            phases.push(PhaseState {
                phase: *ph,
                data_zipf,
                data_lines,
                randomness: (profile.data_randomness * ph.randomness_scale).clamp(0.0, 1.0),
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

        let block_zipf = Zipf::new(profile.code_blocks as usize, profile.code_zipf_s);
        let scatter_salt = child_seed(seed, 0x5ca7) | 1;
        let mix = profile.op_mix;
        let op_fracs = [
            mix.ialu, mix.imult, mix.fpalu, mix.fpmult, mix.load, mix.store,
        ];
        let p = 1.0 / profile.mean_dep_distance;
        let dep_cut = dep_cuts((1.0 - p).ln());
        TraceGenerator {
            tables: Arc::new(Tables {
                profile,
                phases,
                block_zipf,
                superperiod: acc,
                seg_bounds,
                branch_class,
                scatter_salt,
                op_fracs,
                dep_cut,
            }),
            state: Checkpoint {
                rng,
                wp_rng,
                index: 0,
                block: 0,
                block_offset: 0,
                branch_occ: vec![0; n_branches],
                seq_pos: 0,
                since_last_load: 0,
                phase_pos: 0,
                phase: 0,
            },
        }
    }

    /// Convenience: generator for a benchmark by name-level profile.
    pub fn for_benchmark(b: crate::workload::Benchmark, seed: u64) -> Self {
        Self::new(b.profile(), seed)
    }

    /// The generator's state at the current instruction.
    pub(crate) fn checkpoint(&self) -> Checkpoint {
        self.state.clone()
    }

    /// A generator over the same tables that continues from `at`: its
    /// instructions are exactly those this generator produced (or would
    /// produce) from the instruction where `at` was taken.
    pub(crate) fn resume(&self, at: &Checkpoint) -> TraceGenerator {
        TraceGenerator {
            tables: Arc::clone(&self.tables),
            state: at.clone(),
        }
    }

    /// Number of distinct block ids the stream can produce (ids are
    /// `0..block_count()`).
    pub(crate) fn block_count(&self) -> usize {
        self.tables.branch_class.len()
    }

    /// Generate the next architectural instruction.
    pub fn next_inst(&mut self) -> Inst {
        self.step::<true>()
    }

    /// Advance past the next instruction without building it, and return
    /// its block: the stream afterwards is exactly the one after
    /// [`Self::next_inst`].
    pub(crate) fn skip(&mut self) -> u32 {
        self.step::<false>().block
    }

    /// Advance the stream by one instruction, building it when `FULL`.
    ///
    /// Both modes take the same RNG draws and update every [`Checkpoint`]
    /// field alike, so a checkpoint taken after either resumes the same
    /// stream. The draws that shape only the instruction (dependency
    /// distances, data addresses, branch outcomes) go through [`shaped`]:
    /// without `FULL` they are taken raw and never mapped, and the result
    /// is exact in its `op`, `block` and `code_offset` only.
    #[inline(always)]
    fn step<const FULL: bool>(&mut self) -> Inst {
        let t = &*self.tables;
        let s = &mut self.state;
        debug_assert_eq!(s.phase, t.phase_index(s.index));
        let ph = &t.phases[s.phase];
        let op = t.op_class(s.rng.random());
        let mut inst = Inst {
            op,
            dep1: shaped::<FULL, _>(&mut s.rng, |r| dep_distance(&t.dep_cut, r.next_u64())),
            dep2: 0,
            addr: 0,
            block: s.block,
            code_offset: s.block_offset * 4,
            branch_id: 0,
            taken: false,
        };
        if op != OpClass::Branch && s.rng.random::<f64>() < 0.5 {
            inst.dep2 = shaped::<FULL, _>(&mut s.rng, |r| dep_distance(&t.dep_cut, r.next_u64()));
        }

        match op {
            OpClass::Load | OpClass::Store => {
                inst.addr = sample_data_addr::<FULL>(t, s, ph, op == OpClass::Load, &mut inst);
            }
            OpClass::Branch => {
                // The branch ending a block has the block's id.
                inst.branch_id = s.block;
                let id = s.block as usize;
                let occ = s.branch_occ[id];
                s.branch_occ[id] = occ.wrapping_add(1);
                inst.taken = match t.branch_class[id] {
                    BranchClass::Biased { taken_mostly } => shaped::<FULL, _>(&mut s.rng, |r| {
                        let flip: f64 = r.random();
                        if taken_mostly {
                            flip < 0.95
                        } else {
                            flip < 0.05
                        }
                    }),
                    BranchClass::Patterned { period, inverted } => {
                        let body = (occ % u32::from(period)) != (u32::from(period) - 1);
                        body != inverted
                    }
                    BranchClass::Random { taken_p } => {
                        shaped::<FULL, _>(&mut s.rng, |r| r.random::<f64>() < taken_p)
                    }
                };
                // Control transfer: next block from the phase's code-locality
                // distribution, offset into the phase's code region. Ranks
                // are below `code_blocks` and offsets at most the largest
                // phase offset, so every block id has a branch class.
                s.block = t.block_zipf.sample(&mut s.rng) as u32 + ph.phase.block_offset;
                s.block_offset = 0;
            }
            _ => {}
        }

        if op != OpClass::Branch {
            s.block_offset += 1;
        }
        if op == OpClass::Load {
            s.since_last_load = 0;
        }
        s.since_last_load = s.since_last_load.saturating_add(1);
        s.index += 1;
        // Phase `i` spans `seg_bounds[i - 1]..seg_bounds[i]` of the
        // superperiod, and the last bound is the superperiod itself.
        s.phase_pos += 1;
        if s.phase_pos == t.seg_bounds[s.phase] {
            s.phase += 1;
            if s.phase == t.phases.len() {
                s.phase = 0;
                s.phase_pos = 0;
            }
        }
        inst
    }

    /// Generate one *wrong-path* instruction (fetched past a mispredicted
    /// branch, later squashed). Uses an independent RNG stream so the
    /// architectural trace is identical across configurations.
    pub(crate) fn wrong_path_inst(&mut self) -> Inst {
        let t = &*self.tables;
        let s = &mut self.state;
        let ph = &t.phases[s.phase];
        let u: f64 = s.wp_rng.random();
        let op = if u < 0.5 {
            OpClass::IAlu
        } else if u < 0.75 {
            OpClass::Load
        } else {
            OpClass::Branch
        };
        let mut addr = 0;
        if op == OpClass::Load {
            let rank = ph.data_zipf.sample(&mut s.wp_rng) as u64;
            addr = t.rank_to_line(rank, ph.data_lines) * 64;
        }
        let block = s.wp_rng.random_range(0..t.branch_class.len() as u32);
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
        self.state.index
    }

    /// The profile driving this generator.
    pub fn profile(&self) -> &WorkloadProfile {
        &self.tables.profile
    }
}

/// A draw that only shapes the instruction: `f(rng)` when `FULL`,
/// otherwise one raw `next_u64` whose value is dropped. `f` must take
/// exactly one `next_u64` (as `random::<f64>`, `random_range` and
/// `Zipf::sample` do), so both modes advance `rng` alike.
#[inline(always)]
fn shaped<const FULL: bool, T: Default>(rng: &mut StdRng, f: impl FnOnce(&mut StdRng) -> T) -> T {
    if FULL {
        f(rng)
    } else {
        rng.next_u64();
        T::default()
    }
}

/// Dependency distance of a raw 64-bit draw, whose top 53 bits are the
/// `m` of [`dep_distance_ln`], read off the threshold table of [`dep_cuts`].
fn dep_distance(dep_cut: &[u64; 63], bits: u64) -> u16 {
    let m = bits >> 11;
    1 + dep_cut.partition_point(|&c| c <= m) as u16
}

/// Dependency distance of the 53-bit draw `m` (the `u = m·2⁻⁵³` of
/// `random::<f64>`): the inverse CDF of a geometric distribution with
/// success probability `1/mean`, where `dep_ln_q = ln(1 − 1/mean)`,
/// clamped to the scheduler-visible window `1..=64`.
fn dep_distance_ln(dep_ln_q: f64, m: u64) -> u16 {
    let u = m as f64 * (1.0 / (1u64 << 53) as f64);
    ceil_clamped((1.0 - u).ln() / dep_ln_q)
}

/// The threshold table behind [`dep_distance`]: entry `k - 1` is
/// the smallest 53-bit `m` with `dep_distance_ln(dep_ln_q, m) > k`, or
/// `2⁵³` when no draw reaches past `k`. `1 − u` is exact for a 53-bit
/// `u`, and `ln` and the division by the negative `dep_ln_q` keep the
/// order, so the distance never decreases as `m` grows: it is `1` plus
/// the number of cuts `≤ m`, and each cut is found by binary search over
/// the same expression. The cuts do not decrease, so each search starts
/// at the previous cut.
fn dep_cuts(dep_ln_q: f64) -> [u64; 63] {
    const END: u64 = 1 << 53;
    let mut cuts = [END; 63];
    let mut lo = 0;
    for (k, cut) in (1..).zip(&mut cuts) {
        let mut hi = END;
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            if dep_distance_ln(dep_ln_q, mid) > k {
                hi = mid;
            } else {
                lo = mid + 1;
            }
        }
        *cut = lo;
    }
    cuts
}

/// `x` rounded up and clamped to `1..=64`: the value of
/// `(x.ceil().max(1.0) as u16).min(64)` for every `x`, NaN and the
/// infinities included, without a call to libm's `ceil` (baseline x86-64
/// has no rounding instruction).
fn ceil_clamped(x: f64) -> u16 {
    let k = if x >= 64.0 { 64 } else { x as u16 };
    let d = if f64::from(k) < x { k + 1 } else { k };
    d.clamp(1, 64)
}

/// Data address: sequential walker or scattered Zipf, with
/// pointer-chasing loads forced onto the random component and made
/// dependent on the previous load.
fn sample_data_addr<const FULL: bool>(
    t: &Tables,
    s: &mut Checkpoint,
    ph: &PhaseState,
    is_load: bool,
    inst: &mut Inst,
) -> u64 {
    let chasing = is_load && s.rng.random::<f64>() < t.profile.dependent_load_frac;
    if chasing {
        // Address comes from the previous load's value: serialize on it.
        inst.dep1 = s.since_last_load.clamp(1, 64);
        return scattered_addr::<FULL>(t, ph, &mut s.rng);
    }
    if s.rng.random::<f64>() < ph.randomness {
        scattered_addr::<FULL>(t, ph, &mut s.rng)
    } else {
        let footprint = ph.data_lines * 64;
        s.seq_pos = (s.seq_pos + t.profile.stride_b) % footprint;
        s.seq_pos
    }
}

/// A random data address: a Zipf line scattered over the phase footprint,
/// then a random 8-byte word within it.
#[inline(always)]
fn scattered_addr<const FULL: bool>(t: &Tables, ph: &PhaseState, rng: &mut StdRng) -> u64 {
    let line = shaped::<FULL, _>(rng, |r| {
        t.rank_to_line(ph.data_zipf.sample(r) as u64, ph.data_lines)
    });
    line * 64 + shaped::<FULL, _>(rng, |r| r.random_range(0..8u64)) * 8
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

    /// The phases' data tables come from one shared running sum, bit
    /// for bit the tables `Zipf::new` builds one phase at a time, on every
    /// benchmark profile.
    #[test]
    fn shared_zipf_tables_match_per_phase_ones() {
        for b in Benchmark::ALL12 {
            let g = TraceGenerator::for_benchmark(b, 5);
            let profile = &g.tables.profile;
            assert_eq!(g.tables.phases.len(), profile.phases.len());
            for (i, ph) in g.tables.phases.iter().enumerate() {
                let n = ph.data_lines.min(1 << 20) as usize;
                assert!(
                    ph.data_zipf == Zipf::new(n, profile.data_zipf_s),
                    "{b:?} phase {i}"
                );
            }
        }
    }

    #[test]
    fn resumed_checkpoint_continues_the_stream() {
        let mut g = TraceGenerator::for_benchmark(Benchmark::Gcc, 3);
        let _ = g.take_vec(7_777);
        let at = g.checkpoint();
        let tail = g.take_vec(5_000);
        let mut r = g.resume(&at);
        assert_eq!(r.index(), 7_777);
        for (x, y) in tail.iter().zip(r.take_vec(5_000)) {
            assert_eq!(format!("{x:?}"), format!("{y:?}"));
        }
        assert_eq!(r.index(), g.index());
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
    fn ceil_clamped_matches_the_libm_expression() {
        let oracle = |x: f64| (x.ceil().max(1.0) as u16).min(64);
        let mut xs = vec![
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::MAX,
            f64::MIN,
            f64::MIN_POSITIVE,
            -0.0,
            0.0,
            1e300,
            -1e300,
        ];
        for k in -3..=70 {
            let k = f64::from(k);
            xs.extend([k.next_down(), k, k.next_up(), k + 0.5]);
        }
        let mut rng = seeded_rng(5);
        xs.extend((0..100_000).map(|_| rng.random::<f64>() * 80.0 - 5.0));
        for x in xs {
            assert_eq!(ceil_clamped(x), oracle(x), "x = {x:e}");
        }
    }

    #[test]
    fn skipping_leaves_the_stream_where_generating_does() {
        // Skip up to a few instructions before each phase boundary (the
        // superperiod's wrap included), then build 2k instructions across
        // it: the skipping generator must build exactly what one that
        // built every instruction does.
        const TAKE: u64 = 2_000;
        for b in Benchmark::ALL12 {
            for seed in [1, 0xC0FFEE] {
                let mut skipping = TraceGenerator::for_benchmark(b, seed);
                let mut building = TraceGenerator::for_benchmark(b, seed);
                let ends = skipping.tables.seg_bounds.clone();
                let starts = [0, 1, 2_345].into_iter().chain(ends.iter().map(|e| e - 3));
                for n in starts {
                    while skipping.index() < n {
                        assert_eq!(skipping.skip(), building.next_inst().block);
                    }
                    assert_eq!(skipping.state, building.state, "{b:?} seed {seed} at {n}");
                    for i in 0..TAKE {
                        let (x, y) = (skipping.next_inst(), building.next_inst());
                        assert_eq!(x, y, "{b:?} seed {seed}: instruction {}", n + i);
                    }
                    assert_eq!(skipping.index(), building.index());
                }
            }
        }
    }

    #[test]
    fn dep_threshold_table_matches_the_ln_oracle() {
        const END: u64 = 1 << 53;
        let mut rng = seeded_rng(17);
        let means = Benchmark::ALL12
            .iter()
            .map(|b| b.profile().mean_dep_distance)
            .chain([1.0, 1.25, 40.0, 1e6])
            .collect::<Vec<_>>();
        let random_draws = 1_000_000 / means.len();
        for &mean in &means {
            let dep_ln_q = (1.0 - 1.0 / mean).ln();
            let cuts = dep_cuts(dep_ln_q);
            let mut draws = vec![0, END - 1];
            for &c in cuts.iter().filter(|&&c| c < END) {
                draws.extend(c.saturating_sub(1024)..(c + 1024).min(END));
            }
            draws.extend((0..random_draws).map(|_| rng.next_u64() >> 11));
            for m in draws {
                // The low 11 bits of the raw draw never reach the distance.
                let bits = (m << 11) | (rng.next_u64() >> 53);
                assert_eq!(
                    dep_distance(&cuts, bits),
                    dep_distance_ln(dep_ln_q, m),
                    "mean {mean}, m {m}"
                );
            }
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

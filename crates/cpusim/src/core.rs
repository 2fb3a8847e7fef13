//! Cycle-level out-of-order pipeline model.
//!
//! The core follows SimpleScalar's `sim-outorder` structure: a unified
//! Register Update Unit (RUU, the combined ROB/reservation stations) plus a
//! load/store queue, fed by a width-limited front end with an I-cache and a
//! branch predictor, draining through per-class functional units into
//! width-limited in-order commit.
//!
//! Each simulated cycle performs, in order: **commit** (retire completed
//! instructions from the RUU head), **issue** (wake ready instructions,
//! allocate functional units, launch D-cache accesses), and
//! **fetch/dispatch** (pull instructions from the trace through the I-cache
//! into the RUU, resolving branch predictions). Mispredicted branches block
//! further correct-path fetch until they execute, after which a front-end
//! refill penalty applies; meanwhile the front end chews through wrong-path
//! instructions, polluting the I-cache (and, when `issue_wrong_path` is
//! set, the data hierarchy too — SimpleScalar's wrong-path issue mode).
//!
//! [`Core::run`] does not tick cycles in which no stage can act: it jumps
//! to the next event, and while only the wrong-path front end can act it
//! runs that stage alone. Readiness compares fixed completion cycles with
//! the current one, so a skipped cycle is a no-op and the statistics equal
//! the every-cycle loop's, which the unit tests keep as the oracle.

use crate::bpred::{self, BranchPredictor};
use crate::cache::{Cache, Hierarchy, LatencyModel};
use crate::config::CpuConfig;
use crate::prefetch::{self, Prefetcher, PrefetcherKind};
use crate::tlb::Tlb;
use crate::trace::{Inst, InstSource, OpClass};
use std::collections::VecDeque;

/// Execution latencies per op class (SimpleScalar defaults).
fn op_latency(op: OpClass) -> u32 {
    match op {
        OpClass::IAlu | OpClass::Branch => 1,
        OpClass::IMult => 3,
        OpClass::FpAlu => 2,
        OpClass::FpMult => 4,
        OpClass::Load => 1,  // address generation; cache latency added at issue
        OpClass::Store => 1, // retires through the LSQ
    }
}

/// Whether `op` occupies a load/store-queue slot.
fn is_mem(op: OpClass) -> bool {
    matches!(op, OpClass::Load | OpClass::Store)
}

/// Per-cycle functional-unit availability tracker.
#[derive(Debug, Default)]
struct FuBusy {
    ialu: u8,
    imult: u8,
    memport: u8,
    fpalu: u8,
    fpmult: u8,
}

impl FuBusy {
    /// Try to claim a unit for `op`; returns false if the class is saturated
    /// this cycle.
    fn try_claim(&mut self, op: OpClass, fu: &crate::config::FuConfig) -> bool {
        match op {
            OpClass::IAlu | OpClass::Branch => {
                if self.ialu < fu.ialu {
                    self.ialu += 1;
                    true
                } else {
                    false
                }
            }
            OpClass::IMult => {
                if self.imult < fu.imult {
                    self.imult += 1;
                    true
                } else {
                    false
                }
            }
            OpClass::FpAlu => {
                if self.fpalu < fu.fpalu {
                    self.fpalu += 1;
                    true
                } else {
                    false
                }
            }
            OpClass::FpMult => {
                if self.fpmult < fu.fpmult {
                    self.fpmult += 1;
                    true
                } else {
                    false
                }
            }
            OpClass::Load | OpClass::Store => {
                if self.memport < fu.memport {
                    self.memport += 1;
                    true
                } else {
                    false
                }
            }
        }
    }
}

/// One RUU entry.
#[derive(Debug, Clone, Copy)]
struct RuuEntry {
    seq: u64,
    op: OpClass,
    /// Producer sequence numbers (u64::MAX = no dependency).
    prod1: u64,
    prod2: u64,
    addr: u64,
    issued: bool,
    /// Completion cycle once issued (u64::MAX before).
    done_at: u64,
    is_mem: bool,
}

/// Counters reported by one simulation run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PipelineStats {
    /// Total simulated cycles.
    pub cycles: u64,
    /// Committed (architectural) instructions.
    pub instructions: u64,
    /// L1 D-cache accesses/misses.
    pub l1d_accesses: u64,
    /// L1 D-cache misses.
    pub l1d_misses: u64,
    /// L1 I-cache accesses.
    pub l1i_accesses: u64,
    /// L1 I-cache misses.
    pub l1i_misses: u64,
    /// Unified L2 accesses.
    pub l2_accesses: u64,
    /// Unified L2 misses.
    pub l2_misses: u64,
    /// L3 accesses (0 when absent).
    pub l3_accesses: u64,
    /// L3 misses.
    pub l3_misses: u64,
    /// D-TLB misses.
    pub dtlb_misses: u64,
    /// I-TLB misses.
    pub itlb_misses: u64,
    /// Branch instructions resolved.
    pub branches: u64,
    /// Mispredicted branches.
    pub mispredicts: u64,
}

impl PipelineStats {
    /// Counter-wise difference `self - earlier`: the statistics of the
    /// execution slice between two snapshots. Used for warm-up-excluded
    /// measurement (SimPoint practice: warm the caches, then measure).
    pub fn delta(&self, earlier: &PipelineStats) -> PipelineStats {
        PipelineStats {
            cycles: self.cycles - earlier.cycles,
            instructions: self.instructions - earlier.instructions,
            l1d_accesses: self.l1d_accesses - earlier.l1d_accesses,
            l1d_misses: self.l1d_misses - earlier.l1d_misses,
            l1i_accesses: self.l1i_accesses - earlier.l1i_accesses,
            l1i_misses: self.l1i_misses - earlier.l1i_misses,
            l2_accesses: self.l2_accesses - earlier.l2_accesses,
            l2_misses: self.l2_misses - earlier.l2_misses,
            l3_accesses: self.l3_accesses - earlier.l3_accesses,
            l3_misses: self.l3_misses - earlier.l3_misses,
            dtlb_misses: self.dtlb_misses - earlier.dtlb_misses,
            itlb_misses: self.itlb_misses - earlier.itlb_misses,
            branches: self.branches - earlier.branches,
            mispredicts: self.mispredicts - earlier.mispredicts,
        }
    }

    /// Instructions per cycle.
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.instructions as f64 / self.cycles as f64
        }
    }

    /// Branch misprediction rate.
    pub fn mispredict_rate(&self) -> f64 {
        if self.branches == 0 {
            0.0
        } else {
            self.mispredicts as f64 / self.branches as f64
        }
    }
}

/// The configured pipeline, ready to consume a trace.
pub struct Core {
    config: CpuConfig,
    latency: LatencyModel,
    icache: Hierarchy,
    dcache: Hierarchy,
    l2: Cache,
    l3: Option<Cache>,
    itlb: Tlb,
    dtlb: Tlb,
    bpred: Box<dyn BranchPredictor + Send>,
    ruu: VecDeque<RuuEntry>,
    lsq_used: u32,
    /// Completion cycles ring, indexed by seq % RING.
    done_ring: Vec<u64>,
    cycle: u64,
    next_seq: u64,
    committed: u64,
    /// Fetch blocked until the branch with this seq resolves.
    blocked_on_branch: Option<u64>,
    /// Front end may not fetch before this cycle (I-miss or refill).
    fetch_resume_at: u64,
    /// I-cache line of the most recent fetch (new line => new access).
    last_fetch_line: u64,
    /// Optional data-side prefetcher (library extension; None reproduces
    /// the paper's configuration).
    dpref: Option<Box<dyn Prefetcher + Send>>,
    /// Cycles jumped over because no stage could act in them.
    skipped: u64,
}

/// Size of the completion ring. Must exceed RUU size + max dep distance.
const RING: usize = 1024;
/// Slot of sequence number `seq` in the completion ring.
fn ring_slot(seq: u64) -> usize {
    (seq % RING as u64) as usize
}

/// Front-end refill penalty after a mispredict resolves, in cycles.
const REFILL_PENALTY: u64 = 3;
/// Maximum unissued RUU entries the scheduler examines per cycle.
const ISSUE_SCAN: usize = 64;

impl Core {
    /// Build a core for a configuration.
    pub fn new(config: CpuConfig) -> Self {
        Core {
            latency: LatencyModel::default(),
            icache: Hierarchy::new(config.l1i),
            dcache: Hierarchy::new(config.l1d),
            l2: Cache::new(config.l2),
            l3: config.l3.map(Cache::new),
            itlb: Tlb::new(config.itlb_kb),
            dtlb: Tlb::new(config.dtlb_kb),
            bpred: bpred::build(config.bpred),
            ruu: VecDeque::with_capacity(config.ruu_size as usize),
            lsq_used: 0,
            done_ring: vec![0; RING],
            cycle: 0,
            next_seq: 0,
            committed: 0,
            blocked_on_branch: None,
            fetch_resume_at: 0,
            last_fetch_line: u64::MAX,
            dpref: None,
            skipped: 0,
            config,
        }
    }

    /// Build a core with a data-side prefetcher attached.
    pub fn with_prefetcher(config: CpuConfig, kind: PrefetcherKind) -> Self {
        let mut core = Core::new(config);
        core.dpref = prefetch::build(kind, config.l1d.line_b);
        core
    }

    /// Prefetches issued so far (0 without a prefetcher).
    pub fn prefetches_issued(&self) -> u64 {
        self.dpref.as_ref().map_or(0, |p| p.issued())
    }

    /// Simulated cycles so far that no stage acted in, jumped over by
    /// [`Core::run`]'s next-event skip instead of being ticked.
    pub(crate) fn cycles_skipped(&self) -> u64 {
        self.skipped
    }

    /// Run `n_insts` architectural instructions from any instruction
    /// source and drain the pipeline. Returns the collected statistics.
    pub fn run<S: InstSource>(&mut self, gen: &mut S, n_insts: u64) -> PipelineStats {
        let mut remaining = n_insts;
        let mut pending: Option<Inst> = None;
        let limit = self.cycle_limit(n_insts);
        while (remaining > 0 || pending.is_some() || !self.ruu.is_empty()) && self.cycle < limit {
            let front = self.front_end_event(remaining, pending.as_ref());
            if front > self.cycle {
                // The front end is idle: jump to the first cycle any stage
                // can act in.
                let next = self.back_end_event().min(front).min(limit);
                if next > self.cycle {
                    self.skipped += next - self.cycle;
                    self.cycle = next;
                    continue;
                }
            } else if self.blocked_on_branch.is_some() {
                // Only the wrong-path front end acts before the back end's
                // next event: run it alone until then or until it stalls.
                let back = self.back_end_event().min(limit);
                if back > self.cycle {
                    while self.cycle < back && self.cycle >= self.fetch_resume_at {
                        self.fetch_wrong_path(gen);
                        self.cycle += 1;
                    }
                    continue;
                }
            }
            self.tick(gen, &mut remaining, &mut pending);
        }
        self.stats()
    }

    /// Hard safety valve for one `run` call: no realistic config needs
    /// more than ~1000 cycles per instruction. The budget counts from the
    /// cycle the call starts at, so a warmed core gets its full budget.
    fn cycle_limit(&self, n_insts: u64) -> u64 {
        self.cycle
            .saturating_add(n_insts.saturating_mul(1000).max(10_000))
    }

    /// Simulate one cycle: commit, issue, then fetch/dispatch.
    fn tick<S: InstSource>(
        &mut self,
        gen: &mut S,
        remaining: &mut u64,
        pending: &mut Option<Inst>,
    ) {
        self.commit();
        self.issue();
        self.fetch_dispatch(gen, remaining, pending);
        self.cycle += 1;
    }

    /// Earliest cycle, not before now, at which commit or issue can act or
    /// the blocked branch resolves (`u64::MAX`: none is scheduled). The
    /// candidates are the issued RUU head's completion, the completion of
    /// the blocked branch, and, for the first [`ISSUE_SCAN`] unissued
    /// entries — the ones the scheduler examines — the later of their
    /// producers' completions. An entry with an unissued producer waits
    /// on that producer's issue, itself an earlier candidate.
    fn back_end_event(&self) -> u64 {
        let now = self.cycle;
        let mut next = u64::MAX;
        if let Some(head) = self.ruu.front().filter(|e| e.issued) {
            next = head.done_at;
        }
        if let Some(bseq) = self.blocked_on_branch {
            next = next.min(self.done_ring[ring_slot(bseq)]);
        }
        if next <= now {
            return now;
        }
        for e in self.ruu.iter().filter(|e| !e.issued).take(ISSUE_SCAN) {
            let ready = self.operands_ready_at(e);
            if ready <= now {
                return now;
            }
            next = next.min(ready);
        }
        next
    }

    /// Earliest cycle, not before now, at which fetch/dispatch can act
    /// (`u64::MAX`: it waits on commit to free RUU or LSQ space). The
    /// wrong-path front end acts in every cycle it is not stalled.
    fn front_end_event(&self, remaining: u64, pending: Option<&Inst>) -> u64 {
        if self.cycle < self.fetch_resume_at {
            return self.fetch_resume_at;
        }
        let acts = self.blocked_on_branch.is_some()
            || match pending {
                Some(inst) => self.has_room(inst),
                None => remaining > 0,
            };
        if acts {
            self.cycle
        } else {
            u64::MAX
        }
    }

    /// Run `warmup` instructions (warming caches, TLBs, and predictor
    /// tables), then `measure` instructions, returning only the measured
    /// slice's statistics.
    pub fn run_with_warmup<S: InstSource>(
        &mut self,
        gen: &mut S,
        warmup: u64,
        measure: u64,
    ) -> PipelineStats {
        let _ = self.run(gen, warmup);
        let before = self.stats();
        let after = self.run(gen, measure);
        after.delta(&before)
    }

    /// Gather statistics from all components.
    pub fn stats(&self) -> PipelineStats {
        let (branches, mispredicts) = self.bpred.stats();
        PipelineStats {
            cycles: self.cycle,
            instructions: self.committed,
            l1d_accesses: self.dcache.l1.accesses(),
            l1d_misses: self.dcache.l1.misses(),
            l1i_accesses: self.icache.l1.accesses(),
            l1i_misses: self.icache.l1.misses(),
            l2_accesses: self.l2.accesses(),
            l2_misses: self.l2.misses(),
            l3_accesses: self.l3.as_ref().map_or(0, |c| c.accesses()),
            l3_misses: self.l3.as_ref().map_or(0, |c| c.misses()),
            dtlb_misses: self.dtlb.misses(),
            itlb_misses: self.itlb.misses(),
            branches,
            mispredicts,
        }
    }

    /// In-order retirement of completed instructions, up to `width` per
    /// cycle.
    fn commit(&mut self) {
        let mut retired = 0;
        while retired < usize::from(self.config.width) {
            match self.ruu.front() {
                Some(e) if e.issued && e.done_at <= self.cycle => {
                    if e.is_mem {
                        self.lsq_used -= 1;
                    }
                    self.ruu.pop_front();
                    self.committed += 1;
                    retired += 1;
                }
                _ => break,
            }
        }
    }

    /// Cycle at which both source operands of `e` are ready.
    fn operands_ready_at(&self, e: &RuuEntry) -> u64 {
        let done_at = |prod: u64| {
            if prod == u64::MAX {
                return 0;
            }
            // Committed producers left the RUU; their slot in the ring holds
            // the completion cycle. In-flight producers are found in the ring
            // too — entries are written at issue time. Unissued producers
            // hold u64::MAX.
            self.done_ring[ring_slot(prod)]
        };
        done_at(e.prod1).max(done_at(e.prod2))
    }

    /// Wake and issue ready instructions (oldest first), bounded by issue
    /// width and functional-unit availability. The scheduler examines at
    /// most [`ISSUE_SCAN`] not-yet-issued entries per cycle — real wakeup
    /// logic has bounded fan-in, and this keeps per-cycle work O(window)
    /// instead of O(RUU).
    fn issue(&mut self) {
        let mut fu = FuBusy::default();
        let mut issued = 0;
        let mut scanned = 0;
        let width = usize::from(self.config.width);
        for idx in 0..self.ruu.len() {
            if issued >= width || scanned >= ISSUE_SCAN {
                break;
            }
            let e = self.ruu[idx];
            if e.issued {
                continue;
            }
            scanned += 1;
            if self.operands_ready_at(&e) > self.cycle {
                continue;
            }
            if !fu.try_claim(e.op, &self.config.fu) {
                continue;
            }
            let mut lat = op_latency(e.op);
            if e.op == OpClass::Load {
                if !self.dtlb.access(e.addr) {
                    lat += self.latency.tlb_miss;
                }
                let level = self.dcache.access(e.addr, &mut self.l2, self.l3.as_mut());
                lat += self.latency.for_level(level);
                // Prefetcher observes the demand stream (keyed by the
                // issuing block, standing in for the load PC) and installs
                // predicted lines off the critical path.
                if let Some(pf) = self.dpref.as_mut() {
                    let miss = level != crate::cache::HierLevel::L1;
                    // Stream id: the 4 KB page, a PC-free stand-in that
                    // keeps strided walks within one stream.
                    let targets = pf.observe((e.addr >> 12) as u32, e.addr, miss);
                    for t in targets {
                        let _ = self.dcache.access(t, &mut self.l2, self.l3.as_mut());
                    }
                }
            } else if e.op == OpClass::Store {
                // Stores translate and touch the cache for ownership but
                // retire without waiting on the memory latency.
                if !self.dtlb.access(e.addr) {
                    lat += self.latency.tlb_miss;
                }
                let _ = self.dcache.access(e.addr, &mut self.l2, self.l3.as_mut());
            }
            let done = self.cycle + u64::from(lat);
            let entry = &mut self.ruu[idx];
            entry.issued = true;
            entry.done_at = done;
            self.done_ring[ring_slot(e.seq)] = done;
            issued += 1;
        }
        // If fetch is blocked on a mispredicted branch that has now
        // executed, schedule the front-end restart.
        if let Some(bseq) = self.blocked_on_branch {
            let done = self.done_ring[ring_slot(bseq)];
            if done <= self.cycle {
                self.blocked_on_branch = None;
                self.fetch_resume_at = self.fetch_resume_at.max(done + REFILL_PENALTY);
            }
        }
    }

    /// Access the instruction-fetch path for `code_addr`; returns the stall
    /// the front end suffers (0 on an L1I + I-TLB hit).
    fn ifetch_access(&mut self, code_addr: u64) -> u64 {
        let line = code_addr >> self.config.l1i.line_b.trailing_zeros();
        if line == self.last_fetch_line {
            return 0;
        }
        self.last_fetch_line = line;
        let mut stall = 0u64;
        if !self.itlb.access(code_addr) {
            stall += u64::from(self.latency.tlb_miss);
        }
        let level = self
            .icache
            .access(code_addr, &mut self.l2, self.l3.as_mut());
        if level != crate::cache::HierLevel::L1 {
            stall += u64::from(self.latency.for_level(level));
        }
        stall
    }

    /// Whether the RUU (and, for a memory op, the LSQ) has room for `inst`.
    fn has_room(&self, inst: &Inst) -> bool {
        self.ruu.len() < self.config.ruu_size as usize
            && !(is_mem(inst.op) && self.lsq_used >= self.config.lsq_size)
    }

    /// One wrong-path fetch cycle while a mispredicted branch blocks the
    /// correct path. The front end always speculates down the (wrong)
    /// predicted path — one fetch group (a single I-cache line) per cycle,
    /// polluting the I-side. SimpleScalar's wrong-path *issue* flag
    /// additionally lets those instructions execute, which we model as
    /// wrong-path loads touching the data hierarchy.
    fn fetch_wrong_path<S: InstSource>(&mut self, gen: &mut S) {
        let wp = gen.fetch_wrong_path();
        let stall = self.ifetch_access(wp.code_addr());
        if stall > 0 {
            self.fetch_resume_at = self.cycle + stall;
            return;
        }
        if self.config.issue_wrong_path && wp.op == OpClass::Load {
            let _ = self.dtlb.access(wp.addr);
            let _ = self.dcache.access(wp.addr, &mut self.l2, self.l3.as_mut());
        }
    }

    /// Fetch up to `width` instructions and dispatch them into the RUU.
    fn fetch_dispatch<S: InstSource>(
        &mut self,
        gen: &mut S,
        remaining: &mut u64,
        pending: &mut Option<Inst>,
    ) {
        if self.cycle < self.fetch_resume_at {
            return;
        }
        if self.blocked_on_branch.is_some() {
            self.fetch_wrong_path(gen);
            return;
        }

        for _ in 0..self.config.width {
            // Obtain the next architectural instruction.
            let inst = match pending.take() {
                Some(i) => i,
                None => {
                    if *remaining == 0 {
                        return;
                    }
                    *remaining -= 1;
                    gen.fetch()
                }
            };

            // Structural hazards: RUU and LSQ occupancy.
            if !self.has_room(&inst) {
                *pending = Some(inst);
                return;
            }

            // Instruction fetch. On an I-side miss the instruction waits in
            // `pending` and dispatches when the line arrives (the miss has
            // already allocated it, so the retry hits).
            let stall = self.ifetch_access(inst.code_addr());
            if stall > 0 {
                self.fetch_resume_at = self.cycle + stall;
                *pending = Some(inst);
                return;
            }

            let is_mem = is_mem(inst.op);
            let seq = self.next_seq;
            self.next_seq += 1;
            // Producers must still be "recent" enough to resolve through the
            // ring; the trace generator bounds distances at 64. A distance
            // reaching before the trace start means the value was live-in:
            // no dependency (u64::MAX), never "instruction 0".
            let prod = |d: u16| {
                if d == 0 {
                    u64::MAX
                } else {
                    seq.checked_sub(u64::from(d)).unwrap_or(u64::MAX)
                }
            };
            // Mark as not-done until issued.
            self.done_ring[ring_slot(seq)] = u64::MAX;
            self.ruu.push_back(RuuEntry {
                seq,
                op: inst.op,
                prod1: prod(inst.dep1),
                prod2: prod(inst.dep2),
                addr: inst.addr,
                issued: false,
                done_at: u64::MAX,
                is_mem,
            });
            if is_mem {
                self.lsq_used += 1;
            }

            // Branch prediction at dispatch; mispredicts block further
            // correct-path fetch until the branch executes.
            if inst.op == OpClass::Branch {
                let correct = self.bpred.resolve(inst.branch_id, inst.taken);
                if !correct {
                    self.blocked_on_branch = Some(seq);
                    return;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{BranchPredictorKind, CpuConfig, DesignSpace, SpaceSpec};
    use crate::trace::TraceGenerator;
    use crate::workload::Benchmark;
    use proptest::prelude::*;

    impl Core {
        /// The oracle for [`Core::run`]: ticks all three stages through
        /// every cycle, idle or not.
        fn run_ticking<S: InstSource>(&mut self, gen: &mut S, n_insts: u64) -> PipelineStats {
            let mut remaining = n_insts;
            let mut pending: Option<Inst> = None;
            let limit = self.cycle_limit(n_insts);
            while (remaining > 0 || pending.is_some() || !self.ruu.is_empty()) && self.cycle < limit
            {
                self.tick(gen, &mut remaining, &mut pending);
            }
            self.stats()
        }
    }

    /// Statistics and prefetch count of one skipping run and one ticking
    /// run of `n` instructions, after `warmup` more when it is nonzero.
    fn skipping_and_ticking(
        b: Benchmark,
        cfg: CpuConfig,
        kind: PrefetcherKind,
        seed: u64,
        warmup: u64,
        n: u64,
    ) -> [(PipelineStats, u64); 2] {
        let mut gen = TraceGenerator::for_benchmark(b, seed);
        let mut fast = Core::with_prefetcher(cfg, kind);
        let s_fast = if warmup > 0 {
            fast.run_with_warmup(&mut gen, warmup, n)
        } else {
            fast.run(&mut gen, n)
        };
        let mut gen = TraceGenerator::for_benchmark(b, seed);
        let mut slow = Core::with_prefetcher(cfg, kind);
        let s_slow = if warmup > 0 {
            let _ = slow.run_ticking(&mut gen, warmup);
            let before = slow.stats();
            slow.run_ticking(&mut gen, n).delta(&before)
        } else {
            slow.run_ticking(&mut gen, n)
        };
        [
            (s_fast, fast.prefetches_issued()),
            (s_slow, slow.prefetches_issued()),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// Skipping idle cycles changes no statistic: random generated-space
        /// configurations on every benchmark, with and without a stride
        /// prefetcher, through `run` and `run_with_warmup`.
        #[test]
        fn skipping_core_matches_ticking_oracle(
            idx in 0usize..2_211_840,
            b in prop::sample::select(Benchmark::ALL12.to_vec()),
            stride in any::<bool>(),
            warm in any::<bool>(),
            seed in 0u64..1_000,
        ) {
            let space = DesignSpace::try_generate(&SpaceSpec::mega()).expect("mega spec");
            let cfg = space.config_at(idx % space.len());
            let kind = if stride { PrefetcherKind::Stride } else { PrefetcherKind::None };
            let warmup = if warm { 1_000 } else { 0 };
            let [fast, slow] = skipping_and_ticking(b, cfg, kind, seed, warmup, 1_500);
            prop_assert_eq!(fast, slow);
        }
    }

    #[test]
    fn memory_bound_run_skips_most_cycles_exactly() {
        let n = 5_000;
        let mut gen = TraceGenerator::for_benchmark(Benchmark::Mcf, 12);
        let mut core = Core::new(CpuConfig::baseline());
        let s = core.run(&mut gen, n);
        assert!(
            core.cycles_skipped() * 2 > s.cycles,
            "mcf skipped only {} of {} cycles",
            core.cycles_skipped(),
            s.cycles
        );
        let [fast, slow] = skipping_and_ticking(
            Benchmark::Mcf,
            CpuConfig::baseline(),
            PrefetcherKind::None,
            12,
            0,
            n,
        );
        assert_eq!(fast, slow);
    }

    /// Regression: the safety valve compared the absolute cycle with a
    /// per-call budget, so a second `run` on a core warmed past that budget
    /// stopped at once and measured nothing.
    #[test]
    fn warmed_core_gets_its_full_cycle_budget() {
        let mut gen = TraceGenerator::for_benchmark(Benchmark::Mcf, 3);
        let s = Core::new(CpuConfig::baseline()).run_with_warmup(&mut gen, 100_000, 1_000);
        assert_eq!(s.instructions, 1_000);
        assert!(s.cycles > 0);
    }

    fn run_config(b: Benchmark, cfg: CpuConfig, n: u64, seed: u64) -> PipelineStats {
        let mut gen = TraceGenerator::for_benchmark(b, seed);
        let mut core = Core::new(cfg);
        core.run(&mut gen, n)
    }

    #[test]
    fn commits_every_instruction() {
        let s = run_config(Benchmark::Applu, CpuConfig::baseline(), 20_000, 1);
        assert_eq!(s.instructions, 20_000);
        assert!(s.cycles > 0);
    }

    #[test]
    fn ipc_is_plausible() {
        let s = run_config(Benchmark::Applu, CpuConfig::baseline(), 30_000, 2);
        let ipc = s.ipc();
        assert!(ipc > 0.1 && ipc <= 4.0, "IPC {ipc} out of plausible range");
    }

    #[test]
    fn perfect_predictor_is_at_least_as_fast() {
        let mut cfg = CpuConfig::baseline();
        cfg.bpred = BranchPredictorKind::Bimodal;
        let s_bim = run_config(Benchmark::Gcc, cfg, 30_000, 3);
        cfg.bpred = BranchPredictorKind::Perfect;
        let s_perf = run_config(Benchmark::Gcc, cfg, 30_000, 3);
        assert_eq!(s_perf.mispredicts, 0);
        assert!(
            s_perf.cycles <= s_bim.cycles,
            "perfect {} vs bimodal {}",
            s_perf.cycles,
            s_bim.cycles
        );
    }

    #[test]
    fn bigger_l1d_not_slower_for_cache_bound_app() {
        let mut small = CpuConfig::baseline();
        small.l1d.size_kb = 16;
        let mut large = CpuConfig::baseline();
        large.l1d.size_kb = 64;
        let s_small = run_config(Benchmark::Mcf, small, 30_000, 4);
        let s_large = run_config(Benchmark::Mcf, large, 30_000, 4);
        assert!(s_large.l1d_misses <= s_small.l1d_misses);
        assert!(
            s_large.cycles <= s_small.cycles + s_small.cycles / 20,
            "64KB L1D ({}) should not be materially slower than 16KB ({})",
            s_large.cycles,
            s_small.cycles
        );
    }

    #[test]
    fn l3_helps_memory_bound_app() {
        let mut no_l3 = CpuConfig::baseline();
        no_l3.l3 = None;
        let mut with_l3 = CpuConfig::baseline();
        with_l3.l3 = Some(crate::config::CacheGeometry {
            size_kb: 8192,
            line_b: 256,
            assoc: 8,
        });
        let s_no = run_config(Benchmark::Mcf, no_l3, 30_000, 5);
        let s_yes = run_config(Benchmark::Mcf, with_l3, 30_000, 5);
        assert!(
            s_yes.cycles < s_no.cycles,
            "L3 should speed up mcf: {} vs {}",
            s_yes.cycles,
            s_no.cycles
        );
    }

    #[test]
    fn wider_machine_not_slower() {
        let mut narrow = CpuConfig::baseline();
        narrow.width = 4;
        narrow.fu = crate::config::FuConfig::NARROW;
        let mut wide = narrow;
        wide.width = 8;
        wide.fu = crate::config::FuConfig::WIDE;
        let s_n = run_config(Benchmark::Swim, narrow, 30_000, 6);
        let s_w = run_config(Benchmark::Swim, wide, 30_000, 6);
        // Allow a sliver of slack: issue-order differences perturb LRU
        // state, so the wide machine can be epsilon slower on short runs.
        assert!(
            s_w.cycles <= s_n.cycles + s_n.cycles / 100,
            "8-wide ({}) should not be materially slower than 4-wide ({})",
            s_w.cycles,
            s_n.cycles
        );
    }

    #[test]
    fn mcf_slower_than_applu_per_instruction() {
        let s_applu = run_config(Benchmark::Applu, CpuConfig::baseline(), 30_000, 7);
        let s_mcf = run_config(Benchmark::Mcf, CpuConfig::baseline(), 30_000, 7);
        assert!(
            s_mcf.ipc() < s_applu.ipc(),
            "mcf IPC {} should trail applu IPC {}",
            s_mcf.ipc(),
            s_applu.ipc()
        );
    }

    #[test]
    fn stats_internally_consistent() {
        let s = run_config(Benchmark::Gcc, CpuConfig::baseline(), 20_000, 8);
        assert!(s.l1d_misses <= s.l1d_accesses);
        assert!(s.l1i_misses <= s.l1i_accesses);
        assert!(s.l2_misses <= s.l2_accesses);
        assert!(s.mispredicts <= s.branches);
        // L2 is fed only by L1 misses.
        assert!(s.l2_accesses <= s.l1d_misses + s.l1i_misses);
    }

    #[test]
    fn stride_prefetcher_helps_streaming_workload() {
        use crate::prefetch::PrefetcherKind;
        // applu streams with a constant stride: the stride prefetcher
        // should reduce cycles (or at worst stay within noise).
        let n = 30_000;
        let mut gen = TraceGenerator::for_benchmark(Benchmark::Applu, 31);
        let mut plain = Core::new(CpuConfig::baseline());
        let s_plain = plain.run(&mut gen, n);

        let mut gen = TraceGenerator::for_benchmark(Benchmark::Applu, 31);
        let mut pref = Core::with_prefetcher(CpuConfig::baseline(), PrefetcherKind::Stride);
        let s_pref = pref.run(&mut gen, n);
        assert!(
            pref.prefetches_issued() > 0,
            "prefetcher must fire on applu"
        );
        assert!(
            s_pref.cycles <= s_plain.cycles + s_plain.cycles / 50,
            "stride prefetch should not hurt a streaming workload: {} vs {}",
            s_pref.cycles,
            s_plain.cycles
        );
    }

    #[test]
    fn no_prefetcher_matches_default_core() {
        let n = 10_000;
        let mut g1 = TraceGenerator::for_benchmark(Benchmark::Mesa, 5);
        let mut g2 = TraceGenerator::for_benchmark(Benchmark::Mesa, 5);
        let a = Core::new(CpuConfig::baseline()).run(&mut g1, n);
        let b = Core::with_prefetcher(CpuConfig::baseline(), crate::prefetch::PrefetcherKind::None)
            .run(&mut g2, n);
        assert_eq!(a.cycles, b.cycles);
    }

    #[test]
    fn warmup_excludes_cold_misses() {
        let mut gen_cold = TraceGenerator::for_benchmark(Benchmark::Equake, 21);
        let mut cold = Core::new(CpuConfig::baseline());
        let s_cold = cold.run(&mut gen_cold, 10_000);

        let mut gen_warm = TraceGenerator::for_benchmark(Benchmark::Equake, 21);
        let mut warm = Core::new(CpuConfig::baseline());
        let s_warm = warm.run_with_warmup(&mut gen_warm, 10_000, 10_000);
        assert_eq!(s_warm.instructions, 10_000);
        // Warm measurement must show a lower miss rate than the cold run.
        let mr = |s: &PipelineStats| s.l1d_misses as f64 / s.l1d_accesses.max(1) as f64;
        assert!(
            mr(&s_warm) <= mr(&s_cold),
            "warm {} vs cold {}",
            mr(&s_warm),
            mr(&s_cold)
        );
    }

    #[test]
    fn deterministic_across_runs() {
        let a = run_config(Benchmark::Mesa, CpuConfig::baseline(), 15_000, 9);
        let b = run_config(Benchmark::Mesa, CpuConfig::baseline(), 15_000, 9);
        assert_eq!(a.cycles, b.cycles);
        assert_eq!(a.l1d_misses, b.l1d_misses);
        assert_eq!(a.mispredicts, b.mispredicts);
    }
}

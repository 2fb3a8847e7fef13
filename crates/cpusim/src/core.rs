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
//! The scheduler keeps the unissued RUU entries in a separate age-ordered
//! waiting list, each with its producers' completion-ring slots. Issue
//! builds a 64-bit ready mask over the first [`ISSUE_SCAN`] of them and
//! walks its set bits oldest first; the issued entries leave the list in
//! one compaction pass.
//!
//! [`Core::run`] does not tick cycles in which no stage can act: it jumps
//! to the next event, and while only the wrong-path front end can act it
//! runs that stage alone. Readiness compares fixed completion cycles with
//! the current one, so a skipped cycle is a no-op and the statistics equal
//! the every-cycle loop's, which the unit tests keep as the oracle. Only a
//! ticked cycle changes what the next back-end event depends on, so the
//! core keeps its last scan for that event until the next tick.

use crate::bpred::{self, BranchPredictor};
use crate::cache::{Cache, Hierarchy, LatencyModel};
use crate::config::CpuConfig;
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

/// One RUU entry. Its sequence number is the number of instructions
/// committed before it, so entry `i` of the RUU is instruction
/// `committed + i`.
#[derive(Debug, Clone, Copy)]
struct RuuEntry {
    op: OpClass,
    addr: u64,
    /// Completion cycle once issued (u64::MAX before).
    done_at: u64,
}

/// One unissued instruction in the scheduler's waiting list: its
/// sequence number and its two producers' `done_ring` slots
/// ([`LIVE_IN`] for an operand with no producer).
#[derive(Debug, Clone, Copy)]
struct Waiting {
    seq: u64,
    src: [usize; 2],
}

impl Waiting {
    /// Cycle at which both source operands are ready (`u64::MAX` while a
    /// producer is unissued).
    fn ready_at(&self, done_ring: &[u64]) -> u64 {
        done_ring[self.src[0]].max(done_ring[self.src[1]])
    }
}

/// Where a core's simulated cycles went. The three parts sum to the
/// core's cycle count.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct CycleSplit {
    /// Cycles in which commit, issue and fetch/dispatch all ran.
    pub(crate) ticked: u64,
    /// Cycles in which only the wrong-path front end ran.
    pub(crate) wrong_path: u64,
    /// Cycles jumped over because no stage could act in them.
    pub(crate) skipped: u64,
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
    /// The unissued RUU entries, oldest first.
    waiting: Vec<Waiting>,
    lsq_used: u32,
    /// Completion cycles ring, indexed by seq % RING, plus the
    /// [`LIVE_IN`] slot, which always holds 0.
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
    /// The earliest back-end event candidate as last scanned, when none
    /// was due then (see [`Core::back_end_event`]); cleared by every tick.
    back_event: Option<u64>,
    /// Where the simulated cycles so far went.
    split: CycleSplit,
}

/// Size of the completion ring. Must exceed RUU size + max dep distance.
const RING: usize = 1024;
/// Slot of sequence number `seq` in the completion ring.
fn ring_slot(seq: u64) -> usize {
    (seq % RING as u64) as usize
}
/// The completion-ring slot of a live-in operand: past every
/// [`ring_slot`], never written, always 0.
const LIVE_IN: usize = RING;

/// Front-end refill penalty after a mispredict resolves, in cycles.
const REFILL_PENALTY: u64 = 3;
/// Maximum unissued RUU entries the scheduler examines per cycle.
const ISSUE_SCAN: usize = 64;
const _: () = assert!(ISSUE_SCAN <= 64, "the ready mask is one u64");

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
            waiting: Vec::with_capacity(config.ruu_size as usize),
            lsq_used: 0,
            done_ring: vec![0; RING + 1],
            cycle: 0,
            next_seq: 0,
            committed: 0,
            blocked_on_branch: None,
            fetch_resume_at: 0,
            last_fetch_line: u64::MAX,
            back_event: None,
            split: CycleSplit::default(),
            config,
        }
    }

    /// How the simulated cycles so far divide between ticked cycles,
    /// wrong-path-only cycles and cycles [`Core::run`]'s next-event skip
    /// jumped over.
    pub(crate) fn cycle_split(&self) -> CycleSplit {
        self.split
    }

    /// Run `n_insts` architectural instructions from any instruction
    /// source and drain the pipeline. Returns the collected statistics.
    pub fn run<S: InstSource>(&mut self, gen: &mut S, n_insts: u64) -> PipelineStats {
        let mut remaining = n_insts;
        let mut pending: Option<Inst> = None;
        let limit = self.cycle_limit(n_insts);
        self.back_event = None;
        while (remaining > 0 || pending.is_some() || !self.ruu.is_empty()) && self.cycle < limit {
            let front = self.front_end_event(remaining, pending.as_ref());
            if front > self.cycle {
                // The front end is idle: jump to the first cycle any stage
                // can act in.
                let next = self.back_end_event().min(front).min(limit);
                if next > self.cycle {
                    self.split.skipped += next - self.cycle;
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
                        self.split.wrong_path += 1;
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
        self.back_event = None;
        self.commit();
        self.issue();
        self.fetch_dispatch(gen, remaining, pending);
        self.cycle += 1;
        self.split.ticked += 1;
    }

    /// Earliest cycle, not before now, at which commit or issue can act or
    /// the blocked branch resolves (`u64::MAX`: none is scheduled).
    ///
    /// The candidates depend only on the RUU, the waiting list,
    /// `done_ring` and `blocked_on_branch`, which only a tick changes, so
    /// a scan that finds none due is kept until the next tick and later
    /// calls return its minimum, or now once that has passed.
    fn back_end_event(&mut self) -> u64 {
        let now = self.cycle;
        let raw = match self.back_event {
            Some(raw) => {
                debug_assert_eq!(raw.max(now), self.back_end_scan().unwrap_or(now));
                raw
            }
            None => match self.back_end_scan() {
                Some(raw) => {
                    self.back_event = Some(raw);
                    raw
                }
                None => return now,
            },
        };
        raw.max(now)
    }

    /// The earliest back-end event candidate, or `None` when one is due
    /// now. The candidates are the RUU head's completion, the completion
    /// of the blocked branch, and, for the first [`ISSUE_SCAN`] waiting
    /// entries — the ones the scheduler examines — the later of their
    /// producers' completions. An entry with an unissued producer waits
    /// on that producer's issue, itself an earlier candidate.
    fn back_end_scan(&self) -> Option<u64> {
        let now = self.cycle;
        let mut next = self.ruu.front().map_or(u64::MAX, |head| head.done_at);
        if let Some(bseq) = self.blocked_on_branch {
            next = next.min(self.done_ring[ring_slot(bseq)]);
        }
        if next <= now {
            return None;
        }
        for w in self.waiting.iter().take(ISSUE_SCAN) {
            let ready = w.ready_at(&self.done_ring);
            if ready <= now {
                return None;
            }
            next = next.min(ready);
        }
        Some(next)
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
                Some(e) if e.done_at <= self.cycle => {
                    if is_mem(e.op) {
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

    /// Wake and issue ready instructions (oldest first), bounded by issue
    /// width and functional-unit availability. The scheduler examines at
    /// most [`ISSUE_SCAN`] waiting entries per cycle — real wakeup logic
    /// has bounded fan-in, and this keeps per-cycle work O(window)
    /// instead of O(RUU).
    ///
    /// An instruction issued this cycle completes in a later one, so
    /// issuing wakes nothing else this cycle: the ready mask built before
    /// the first issue holds for the whole cycle.
    fn issue(&mut self) {
        let now = self.cycle;
        let window = self.waiting.len().min(ISSUE_SCAN);
        let mut ready = 0u64;
        for (i, w) in self.waiting[..window].iter().enumerate() {
            ready |= u64::from(w.ready_at(&self.done_ring) <= now) << i;
        }
        let mut fu = FuBusy::default();
        let mut issued = 0u64;
        let mut n_issued = 0;
        while ready != 0 && n_issued < self.config.width {
            let i = ready.trailing_zeros() as usize;
            ready &= ready - 1;
            let seq = self.waiting[i].seq;
            let idx = (seq - self.committed) as usize;
            let op = self.ruu[idx].op;
            if !fu.try_claim(op, &self.config.fu) {
                continue;
            }
            let done = now + u64::from(self.execute(op, self.ruu[idx].addr));
            self.ruu[idx].done_at = done;
            self.done_ring[ring_slot(seq)] = done;
            issued |= 1 << i;
            n_issued += 1;
        }
        if issued != 0 {
            let mut kept = 0;
            for i in 0..window {
                if issued & (1 << i) == 0 {
                    self.waiting[kept] = self.waiting[i];
                    kept += 1;
                }
            }
            self.waiting.drain(kept..window);
        }
        self.resolve_blocked_branch();
    }

    /// Launch an instruction that won a functional unit: translate and
    /// access the data side for a memory op. Returns its latency.
    fn execute(&mut self, op: OpClass, addr: u64) -> u32 {
        let mut lat = op_latency(op);
        if op == OpClass::Load {
            if !self.dtlb.access(addr) {
                lat += self.latency.tlb_miss;
            }
            let level = self.dcache.access(addr, &mut self.l2, self.l3.as_mut());
            lat += self.latency.for_level(level);
        } else if op == OpClass::Store {
            // Stores translate and touch the cache for ownership but
            // retire without waiting on the memory latency.
            if !self.dtlb.access(addr) {
                lat += self.latency.tlb_miss;
            }
            let _ = self.dcache.access(addr, &mut self.l2, self.l3.as_mut());
        }
        lat
    }

    /// If fetch is blocked on a mispredicted branch that has now
    /// executed, schedule the front-end restart.
    fn resolve_blocked_branch(&mut self) {
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

            let seq = self.next_seq;
            self.next_seq += 1;
            // Producers must still be "recent" enough to resolve through the
            // ring; the trace generator bounds distances at 64. Committed
            // producers left the RUU, but their slot in the ring still holds
            // the completion cycle. A distance reaching before the trace
            // start means the value was live-in, never "instruction 0".
            let src = |d: u16| match seq.checked_sub(u64::from(d)) {
                Some(prod) if d > 0 => ring_slot(prod),
                _ => LIVE_IN,
            };
            // Mark as not-done until issued.
            self.done_ring[ring_slot(seq)] = u64::MAX;
            self.ruu.push_back(RuuEntry {
                op: inst.op,
                addr: inst.addr,
                done_at: u64::MAX,
            });
            self.waiting.push(Waiting {
                seq,
                src: [src(inst.dep1), src(inst.dep2)],
            });
            if is_mem(inst.op) {
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

        /// The oracle for the scheduler: [`Core::run`]'s loop with the
        /// linear scans below in place of the memoized back-end event and
        /// the ready-mask issue.
        fn run_linear<S: InstSource>(&mut self, gen: &mut S, n_insts: u64) -> PipelineStats {
            let mut remaining = n_insts;
            let mut pending: Option<Inst> = None;
            let limit = self.cycle_limit(n_insts);
            while (remaining > 0 || pending.is_some() || !self.ruu.is_empty()) && self.cycle < limit
            {
                let front = self.front_end_event(remaining, pending.as_ref());
                if front > self.cycle {
                    let next = self.back_end_event_linear().min(front).min(limit);
                    if next > self.cycle {
                        self.split.skipped += next - self.cycle;
                        self.cycle = next;
                        continue;
                    }
                } else if self.blocked_on_branch.is_some() {
                    let back = self.back_end_event_linear().min(limit);
                    if back > self.cycle {
                        while self.cycle < back && self.cycle >= self.fetch_resume_at {
                            self.fetch_wrong_path(gen);
                            self.cycle += 1;
                            self.split.wrong_path += 1;
                        }
                        continue;
                    }
                }
                self.commit();
                self.issue_linear();
                self.fetch_dispatch(gen, &mut remaining, &mut pending);
                self.cycle += 1;
                self.split.ticked += 1;
            }
            self.stats()
        }

        /// Cycle at which both source operands of the unissued
        /// instruction `seq` are ready.
        fn operands_ready_at(&self, seq: u64) -> u64 {
            let i = self
                .waiting
                .binary_search_by_key(&seq, |w| w.seq)
                .expect("every unissued instruction is waiting");
            self.waiting[i].ready_at(&self.done_ring)
        }

        /// Sequence numbers of the unissued RUU entries, oldest first.
        fn unissued(&self) -> impl Iterator<Item = u64> + '_ {
            (self.committed..)
                .zip(&self.ruu)
                .filter(|(_, e)| e.done_at == u64::MAX)
                .map(|(seq, _)| seq)
        }

        /// [`Core::back_end_event`] by a fresh walk over the RUU at every
        /// call.
        fn back_end_event_linear(&self) -> u64 {
            let now = self.cycle;
            let mut next = self.ruu.front().map_or(u64::MAX, |head| head.done_at);
            if let Some(bseq) = self.blocked_on_branch {
                next = next.min(self.done_ring[ring_slot(bseq)]);
            }
            if next <= now {
                return now;
            }
            for seq in self.unissued().take(ISSUE_SCAN) {
                let ready = self.operands_ready_at(seq);
                if ready <= now {
                    return now;
                }
                next = next.min(ready);
            }
            next
        }

        /// [`Core::issue`] by walking the RUU in order, skipping issued
        /// entries and examining at most [`ISSUE_SCAN`] unissued ones.
        fn issue_linear(&mut self) {
            let mut fu = FuBusy::default();
            let mut issued = 0;
            let mut scanned = 0;
            let width = usize::from(self.config.width);
            for (idx, seq) in (self.committed..).take(self.ruu.len()).enumerate() {
                if issued >= width || scanned >= ISSUE_SCAN {
                    break;
                }
                let e = self.ruu[idx];
                if e.done_at != u64::MAX {
                    continue;
                }
                scanned += 1;
                if self.operands_ready_at(seq) > self.cycle {
                    continue;
                }
                if !fu.try_claim(e.op, &self.config.fu) {
                    continue;
                }
                let done = self.cycle + u64::from(self.execute(e.op, e.addr));
                self.ruu[idx].done_at = done;
                self.done_ring[ring_slot(seq)] = done;
                self.waiting.retain(|w| w.seq != seq);
                issued += 1;
            }
            self.resolve_blocked_branch();
        }
    }

    /// Statistics and cycle split of `n` instructions, after `warmup` more
    /// when it is nonzero, through the shipped scheduler or, with
    /// `linear`, through [`Core::run_linear`].
    fn scheduled(
        b: Benchmark,
        cfg: CpuConfig,
        seed: u64,
        warmup: u64,
        n: u64,
        linear: bool,
    ) -> (PipelineStats, CycleSplit) {
        let mut gen = TraceGenerator::for_benchmark(b, seed);
        let mut core = Core::new(cfg);
        let mut run = |core: &mut Core, n| {
            if linear {
                core.run_linear(&mut gen, n)
            } else {
                core.run(&mut gen, n)
            }
        };
        let before = if warmup > 0 {
            run(&mut core, warmup)
        } else {
            PipelineStats::default()
        };
        let stats = run(&mut core, n).delta(&before);
        (stats, core.cycle_split())
    }

    /// Statistics of one skipping run and one ticking run of `n`
    /// instructions, after `warmup` more when it is nonzero.
    fn skipping_and_ticking(
        b: Benchmark,
        cfg: CpuConfig,
        seed: u64,
        warmup: u64,
        n: u64,
    ) -> [PipelineStats; 2] {
        let mut gen = TraceGenerator::for_benchmark(b, seed);
        let mut fast = Core::new(cfg);
        let s_fast = if warmup > 0 {
            fast.run_with_warmup(&mut gen, warmup, n)
        } else {
            fast.run(&mut gen, n)
        };
        let mut gen = TraceGenerator::for_benchmark(b, seed);
        let mut slow = Core::new(cfg);
        let s_slow = if warmup > 0 {
            let _ = slow.run_ticking(&mut gen, warmup);
            let before = slow.stats();
            slow.run_ticking(&mut gen, n).delta(&before)
        } else {
            slow.run_ticking(&mut gen, n)
        };
        [s_fast, s_slow]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// Skipping idle cycles changes no statistic: random generated-space
        /// configurations on every benchmark, through `run` and
        /// `run_with_warmup`.
        #[test]
        fn skipping_core_matches_ticking_oracle(
            idx in 0usize..2_211_840,
            b in prop::sample::select(Benchmark::ALL12.to_vec()),
            warm in any::<bool>(),
            seed in 0u64..1_000,
        ) {
            let space = DesignSpace::try_generate(&SpaceSpec::mega()).expect("mega spec");
            let cfg = space.config_at(idx % space.len());
            let warmup = if warm { 1_000 } else { 0 };
            let [fast, slow] = skipping_and_ticking(b, cfg, seed, warmup, 1_500);
            prop_assert_eq!(fast, slow);
        }

        /// The ready-mask scheduler and the memoized back-end event issue
        /// and skip exactly as the linear scans do: random generated-space
        /// configurations, half of them widened to 16-wide with a
        /// 512-entry RUU, on every benchmark, with and without warm-up.
        #[test]
        fn scheduler_matches_linear_scan_oracle(
            idx in 0usize..2_211_840,
            b in prop::sample::select(Benchmark::ALL12.to_vec()),
            widest in any::<bool>(),
            warm in any::<bool>(),
            seed in 0u64..1_000,
        ) {
            let space = DesignSpace::try_generate(&SpaceSpec::mega()).expect("mega spec");
            let mut cfg = space.config_at(idx % space.len());
            if widest {
                cfg.width = 16;
                cfg.fu = SpaceSpec::fu_for_width(16);
                cfg.ruu_size = 512;
                cfg.lsq_size = 256;
            }
            let warmup = if warm { 1_000 } else { 0 };
            let shipped = scheduled(b, cfg, seed, warmup, 1_500, false);
            let linear = scheduled(b, cfg, seed, warmup, 1_500, true);
            prop_assert_eq!(shipped, linear);
        }
    }

    #[test]
    fn cycle_split_adds_up_to_cycles() {
        for b in [Benchmark::Applu, Benchmark::Mcf] {
            let mut gen = TraceGenerator::for_benchmark(b, 12);
            let mut core = Core::new(CpuConfig::baseline());
            let _ = core.run_with_warmup(&mut gen, 2_000, 5_000);
            let split = core.cycle_split();
            let cycles = core.stats().cycles;
            assert_eq!(
                split.ticked + split.wrong_path + split.skipped,
                cycles,
                "{b:?}"
            );
            assert!(
                split.ticked > 0 && split.wrong_path > 0 && split.skipped > 0,
                "{b:?}: {split:?}"
            );
        }
    }

    #[test]
    fn memory_bound_run_skips_most_cycles_exactly() {
        let n = 5_000;
        let mut gen = TraceGenerator::for_benchmark(Benchmark::Mcf, 12);
        let mut core = Core::new(CpuConfig::baseline());
        let s = core.run(&mut gen, n);
        let skipped = core.cycle_split().skipped;
        assert!(
            skipped * 2 > s.cycles,
            "mcf skipped only {skipped} of {} cycles",
            s.cycles
        );
        let [fast, slow] = skipping_and_ticking(Benchmark::Mcf, CpuConfig::baseline(), 12, 0, n);
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

//! Set-associative LRU caches.
//!
//! Timing-only model: a cache answers hit/miss and maintains true-LRU
//! replacement per set. Write policy is write-allocate with no writeback
//! traffic modelling (store misses allocate like loads; dirty evictions are
//! not charged — SimpleScalar's default timing configuration makes the same
//! simplification for the bus-free hierarchy the paper uses).

use crate::config::CacheGeometry;

/// One cache level.
#[derive(Debug, Clone)]
pub struct Cache {
    /// Tags per set, most-recently-used first.
    sets: Vec<Vec<u64>>,
    assoc: usize,
    line_shift: u32,
    set_mask: u64,
    /// Access counter.
    accesses: u64,
    /// Miss counter.
    misses: u64,
}

impl Cache {
    /// Build from a geometry. Set count is rounded to a power of two so set
    /// indexing is a mask (geometries in this project are always
    /// power-of-two sized).
    pub fn new(geom: CacheGeometry) -> Self {
        let sets = geom.num_sets();
        assert!(
            sets.is_power_of_two(),
            "cache sets must be a power of two: {sets}"
        );
        assert!(
            geom.line_b.is_power_of_two(),
            "line size must be a power of two"
        );
        Cache {
            sets: vec![Vec::with_capacity(geom.assoc as usize); sets],
            assoc: geom.assoc as usize,
            line_shift: geom.line_b.trailing_zeros(),
            set_mask: sets as u64 - 1,
            accesses: 0,
            misses: 0,
        }
    }

    /// Access a byte address; returns `true` on hit. Misses allocate.
    pub fn access(&mut self, addr: u64) -> bool {
        self.accesses += 1;
        let line = addr >> self.line_shift;
        let set = (line & self.set_mask) as usize;
        let tag = line >> self.set_mask.count_ones();
        let ways = &mut self.sets[set];
        if let Some(pos) = ways.iter().position(|&t| t == tag) {
            // Move to MRU.
            let t = ways.remove(pos);
            ways.insert(0, t);
            true
        } else {
            self.misses += 1;
            if ways.len() == self.assoc {
                ways.pop();
            }
            ways.insert(0, tag);
            false
        }
    }

    /// Probe without updating state or counters (used by wrong-path
    /// pollution modelling to decide latency without polluting *stats*).
    pub fn probe(&self, addr: u64) -> bool {
        let line = addr >> self.line_shift;
        let set = (line & self.set_mask) as usize;
        let tag = line >> self.set_mask.count_ones();
        self.sets[set].contains(&tag)
    }

    /// Total accesses so far.
    pub fn accesses(&self) -> u64 {
        self.accesses
    }

    /// Total misses so far.
    pub fn misses(&self) -> u64 {
        self.misses
    }
}

/// A full data-side or instruction-side hierarchy lookup result.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HierLevel {
    /// Hit in the first-level cache.
    L1,
    /// Hit in the unified L2.
    L2,
    /// Hit in the optional L3.
    L3,
    /// Serviced by main memory.
    Memory,
}

/// Latency model for the hierarchy, in cycles.
///
/// Values follow common SimpleScalar-era settings: L1 1 cycle (pipelined
/// into load-to-use), L2 12, L3 40, memory 200.
#[derive(Debug, Clone, Copy)]
pub struct LatencyModel {
    /// L1 hit latency.
    pub l1: u32,
    /// L2 hit latency.
    pub l2: u32,
    /// L3 hit latency.
    pub l3: u32,
    /// Main-memory latency.
    pub memory: u32,
    /// TLB miss (page-walk) penalty.
    pub tlb_miss: u32,
}

impl Default for LatencyModel {
    fn default() -> Self {
        LatencyModel {
            l1: 1,
            l2: 12,
            l3: 40,
            memory: 200,
            tlb_miss: 30,
        }
    }
}

impl LatencyModel {
    /// Latency of an access satisfied at `level`.
    pub(crate) fn for_level(&self, level: HierLevel) -> u32 {
        match level {
            HierLevel::L1 => self.l1,
            HierLevel::L2 => self.l2,
            HierLevel::L3 => self.l3,
            HierLevel::Memory => self.memory,
        }
    }
}

/// L1 + shared L2 + optional L3 stack for one access stream.
#[derive(Debug, Clone)]
pub struct Hierarchy {
    /// First-level cache (I or D).
    pub l1: Cache,
}

impl Hierarchy {
    /// Build the L1 for this stream.
    pub fn new(l1: CacheGeometry) -> Self {
        Hierarchy { l1: Cache::new(l1) }
    }

    /// Walk the hierarchy for `addr`, updating all levels it touches.
    /// `l2`/`l3` are shared across the I and D streams, so they are passed
    /// in by the core each access.
    pub fn access(&mut self, addr: u64, l2: &mut Cache, l3: Option<&mut Cache>) -> HierLevel {
        if self.l1.access(addr) {
            return HierLevel::L1;
        }
        if l2.access(addr) {
            return HierLevel::L2;
        }
        if let Some(l3) = l3 {
            if l3.access(addr) {
                return HierLevel::L3;
            }
        }
        HierLevel::Memory
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::CacheGeometry;

    fn tiny() -> Cache {
        // 2 sets x 2 ways x 64B lines = 256 B.
        Cache::new(CacheGeometry {
            size_kb: 1,
            line_b: 64,
            assoc: 8,
        })
    }

    #[test]
    fn repeat_access_hits() {
        let mut c = tiny();
        assert!(!c.access(0x1000));
        assert!(c.access(0x1000));
        assert!(c.access(0x1008), "same line, different offset");
        assert_eq!(c.misses(), 1);
        assert_eq!(c.accesses(), 3);
    }

    #[test]
    fn lru_evicts_oldest() {
        // 64B lines, 1KB, 2-way => 8 sets. Use addresses mapping to set 0:
        // line numbers multiples of 8.
        let mut c = Cache::new(CacheGeometry {
            size_kb: 1,
            line_b: 64,
            assoc: 2,
        });
        let a = |line: u64| line * 8 * 64; // distinct tags, same set
        assert!(!c.access(a(1)));
        assert!(!c.access(a(2)));
        assert!(c.access(a(1))); // 1 is MRU now
        assert!(!c.access(a(3))); // evicts 2 (LRU)
        assert!(c.access(a(1)));
        assert!(!c.access(a(2)), "2 was evicted");
    }

    #[test]
    fn capacity_miss_behaviour() {
        // Working set of 32 lines in a 16-line cache: every access misses
        // under LRU with a cyclic scan.
        let mut c = Cache::new(CacheGeometry {
            size_kb: 1,
            line_b: 64,
            assoc: 16,
        });
        for rep in 0..4 {
            for i in 0..32u64 {
                let hit = c.access(i * 64);
                if rep > 0 {
                    assert!(!hit, "cyclic scan larger than capacity must thrash");
                }
            }
        }
    }

    #[test]
    fn small_working_set_fits() {
        let mut c = tiny();
        for _ in 0..10 {
            for i in 0..4u64 {
                c.access(i * 64);
            }
        }
        // 4 compulsory misses, everything else hits.
        assert_eq!(c.misses(), 4);
    }

    #[test]
    fn bigger_cache_never_misses_more() {
        // Inclusion-style sanity: on the same trace, a 4KB cache should miss
        // at most as often as a 1KB cache with equal lines/assoc.
        let trace: Vec<u64> = (0..5000u64)
            .map(|i| (i * 2654435761) % (8 * 1024))
            .collect();
        let mut small = Cache::new(CacheGeometry {
            size_kb: 1,
            line_b: 64,
            assoc: 4,
        });
        let mut large = Cache::new(CacheGeometry {
            size_kb: 4,
            line_b: 64,
            assoc: 4,
        });
        let mut small_miss = 0;
        let mut large_miss = 0;
        for &a in &trace {
            if !small.access(a) {
                small_miss += 1;
            }
            if !large.access(a) {
                large_miss += 1;
            }
        }
        assert!(large_miss <= small_miss);
    }

    #[test]
    fn probe_does_not_mutate() {
        let mut c = tiny();
        c.access(0x40);
        let before = (c.accesses(), c.misses());
        assert!(c.probe(0x40));
        assert!(!c.probe(0xFFFF_0000));
        assert_eq!((c.accesses(), c.misses()), before);
    }

    #[test]
    fn hierarchy_escalates_levels() {
        let mut h = Hierarchy::new(CacheGeometry {
            size_kb: 1,
            line_b: 32,
            assoc: 2,
        });
        // Fully associative L2 (one 32-way set) so the thrash pattern below
        // evicts from L1 but stays resident in L2.
        let mut l2 = Cache::new(CacheGeometry {
            size_kb: 4,
            line_b: 128,
            assoc: 32,
        });
        let mut l3 = Cache::new(CacheGeometry {
            size_kb: 64,
            line_b: 256,
            assoc: 8,
        });
        assert_eq!(
            h.access(0x123456, &mut l2, Some(&mut l3)),
            HierLevel::Memory
        );
        assert_eq!(h.access(0x123456, &mut l2, Some(&mut l3)), HierLevel::L1);
        // Evict from the 2-way L1 set by touching 8 conflicting lines
        // (stride = sets * line = 16 * 32 bytes).
        for i in 1..=8u64 {
            h.access(0x123456 + i * 16 * 32, &mut l2, Some(&mut l3));
        }
        let lvl = h.access(0x123456, &mut l2, Some(&mut l3));
        assert_eq!(lvl, HierLevel::L2);
    }

    #[test]
    fn latency_model_is_monotone() {
        let m = LatencyModel::default();
        assert!(m.l1 < m.l2 && m.l2 < m.l3 && m.l3 < m.memory);
        assert_eq!(m.for_level(HierLevel::L2), m.l2);
    }
}

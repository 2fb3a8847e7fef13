//! Translation lookaside buffers.
//!
//! Table 1 specifies TLB capacities as *reach* in KB (256/1024 KB for the
//! I-TLB, 512/2048 KB for the D-TLB). With 4 KB pages that reach maps to an
//! entry count; we model each TLB as a 4-way set-associative page cache
//! with LRU replacement, which is how SimpleScalar configures its TLBs.

use crate::cache::Cache;
use crate::config::CacheGeometry;

/// Page size in bytes (4 KB, the SimpleScalar default).
pub(crate) const PAGE_BYTES: u64 = 4096;

/// One TLB.
#[derive(Debug, Clone)]
pub struct Tlb {
    inner: Cache,
}

impl Tlb {
    /// Build a TLB covering `reach_kb` kilobytes of address space.
    ///
    /// Entries = reach / page size; organized 4-way set associative (or
    /// fully associative when fewer than 4 entries).
    pub fn new(reach_kb: u32) -> Self {
        let entries = ((u64::from(reach_kb) * 1024) / PAGE_BYTES).max(1) as u32;
        assert!(
            entries.is_power_of_two(),
            "TLB entries must be a power of two: {entries}"
        );
        let assoc = entries.min(4);
        // Reuse the cache structure: treat each page as a "line" of
        // PAGE_BYTES so the set index comes from the page number.
        let geom = CacheGeometry {
            size_kb: entries * (PAGE_BYTES as u32 / 1024),
            line_b: PAGE_BYTES as u32,
            assoc,
        };
        Tlb {
            inner: Cache::new(geom),
        }
    }

    /// Translate a byte address; `true` = TLB hit.
    pub fn access(&mut self, addr: u64) -> bool {
        self.inner.access(addr)
    }

    /// Miss count.
    pub fn misses(&self) -> u64 {
        self.inner.misses()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn entry_count_from_reach() {
        // 256 KB reach / 4 KB page = 64 entries; hitting 64 distinct pages
        // twice should yield exactly 64 misses.
        let mut t = Tlb::new(256);
        for _ in 0..2 {
            for p in 0..64u64 {
                t.access(p * PAGE_BYTES);
            }
        }
        assert_eq!(t.misses(), 64);
    }

    #[test]
    fn thrash_beyond_reach() {
        // 128 distinct pages in a 64-entry TLB with cyclic access: the
        // second pass misses everywhere (LRU + cyclic).
        let mut t = Tlb::new(256);
        for p in 0..128u64 {
            t.access(p * PAGE_BYTES * 4); // *4 spreads over sets too
        }
        let before = t.misses();
        for p in 0..128u64 {
            t.access(p * PAGE_BYTES * 4);
        }
        assert!(t.misses() >= before + 100, "expected heavy thrashing");
    }

    #[test]
    fn same_page_hits() {
        let mut t = Tlb::new(512);
        assert!(!t.access(0x1234));
        assert!(t.access(0x1FFF), "same 4K page");
        assert!(!t.access(0x2F_0000));
    }

    #[test]
    fn larger_reach_fewer_misses() {
        let pages: Vec<u64> = (0..4000u64)
            .map(|i| ((i * 37) % 300) * PAGE_BYTES)
            .collect();
        let mut small = Tlb::new(512);
        let mut large = Tlb::new(2048);
        let mut sm = 0;
        let mut lm = 0;
        for &a in &pages {
            if !small.access(a) {
                sm += 1;
            }
            if !large.access(a) {
                lm += 1;
            }
        }
        assert!(lm <= sm);
    }
}

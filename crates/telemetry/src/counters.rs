//! Sharded counters and float gauges, correct under fork/join
//! parallelism such as [`par_map`](crate::par_map).
//!
//! A [`ShardedCounter`] spreads increments across 16 cache-line-aligned
//! atomic shards indexed by a per-thread hash, so parallel workers rarely
//! contend on the same cache line; [`ShardedCounter::value`] merges the
//! shards. Relaxed ordering is sufficient: values are only read after the
//! parallel region joins (or for a monotonic progress display where exact
//! interleaving does not matter).

use std::sync::atomic::{AtomicU64, Ordering};

const SHARDS: usize = 16;

#[repr(align(64))]
#[derive(Debug, Default)]
struct Shard(AtomicU64);

thread_local! {
    static SHARD_INDEX: usize = {
        use std::hash::{Hash, Hasher};
        let mut h = std::collections::hash_map::DefaultHasher::new();
        std::thread::current().id().hash(&mut h);
        (h.finish() as usize) % SHARDS
    };
}

/// A monotonically-increasing counter safe to bump from many threads.
#[derive(Debug, Default)]
pub(crate) struct ShardedCounter {
    shards: [Shard; SHARDS],
}

impl ShardedCounter {
    /// A zeroed counter.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add `delta` from the calling thread.
    pub fn add(&self, delta: u64) {
        let idx = SHARD_INDEX.with(|i| *i);
        self.shards[idx].0.fetch_add(delta, Ordering::Relaxed);
    }

    /// Merge all shards into the current total.
    pub fn value(&self) -> u64 {
        self.shards
            .iter()
            .map(|s| s.0.load(Ordering::Relaxed))
            .sum()
    }
}

/// A last-write or running-max float gauge stored as `f64` bits.
#[derive(Debug)]
pub(crate) struct Gauge(AtomicU64);

impl Gauge {
    /// A gauge holding `initial`.
    pub fn new(initial: f64) -> Self {
        Gauge(AtomicU64::new(initial.to_bits()))
    }

    /// Overwrite the gauge value.
    pub fn set(&self, v: f64) {
        self.0.store(v.to_bits(), Ordering::Relaxed);
    }

    /// Raise the gauge to `v` if it is larger than the stored value.
    pub fn max(&self, v: f64) {
        let _ = self
            .0
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |bits| {
                if v > f64::from_bits(bits) {
                    Some(v.to_bits())
                } else {
                    None
                }
            });
    }

    /// Current value.
    pub fn get(&self) -> f64 {
        f64::from_bits(self.0.load(Ordering::Relaxed))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_accumulates_and_merges() {
        let c = ShardedCounter::new();
        c.add(3);
        c.add(4);
        assert_eq!(c.value(), 7);
    }

    #[test]
    fn counter_no_lost_updates_across_threads() {
        let c = ShardedCounter::new();
        std::thread::scope(|scope| {
            for _ in 0..8 {
                scope.spawn(|| {
                    for _ in 0..10_000 {
                        c.add(1);
                    }
                });
            }
        });
        assert_eq!(c.value(), 80_000);
    }

    #[test]
    fn gauge_set_and_max() {
        let g = Gauge::new(0.0);
        g.set(2.5);
        assert_eq!(g.get(), 2.5);
        g.max(1.0);
        assert_eq!(g.get(), 2.5);
        g.max(9.0);
        assert_eq!(g.get(), 9.0);
    }
}

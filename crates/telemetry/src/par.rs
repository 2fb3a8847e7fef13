//! The workspace's one parallel map.
//!
//! [`par_map`] evaluates `f(0) .. f(n - 1)` on scoped worker threads that
//! claim indices one at a time from a shared atomic cursor, so a slow item
//! never strands the items queued behind it. Results come back in index
//! order and a worker's panic propagates to the caller. Each worker
//! re-installs the caller's span stack before it runs `f`, so a span opened
//! inside `f` closes under the caller's path exactly as it would on the
//! calling thread. A `par_map` called from inside a worker runs inline on
//! that worker: nested fan-outs (a fold's restarts, say) never multiply
//! threads beyond the outermost call's workers.
//!
//! While a run is installed, every call that spawns workers adds to two
//! counters: `par/busy_ns`, the time its workers spend claiming and running
//! items, and `par/capacity_ns`, its wall time times its worker count.
//! Their ratio is the workers' utilisation.

use std::cell::Cell;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::time::Instant;

use crate::hist::saturating_ns;

thread_local! {
    static IN_WORKER: Cell<bool> = const { Cell::new(false) };
}

/// Worker count of a fan-out that does not choose one: every available
/// core ([`par_map`] caps it by the number of items).
pub fn default_workers() -> usize {
    std::thread::available_parallelism().map_or(1, |p| p.get())
}

/// Map `f` over `0..n` on up to `workers` threads; see the module docs.
///
/// With one effective worker (`workers` or `n` at most 1), or when called
/// from inside another `par_map`'s worker, `f` runs inline on the calling
/// thread in index order.
pub fn par_map<R, F>(n: usize, workers: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    let workers = workers.min(n);
    if workers <= 1 || IN_WORKER.get() {
        return (0..n).map(f).collect();
    }
    let start = crate::enabled().then(Instant::now);
    let stack = crate::span::stack();
    let cursor = AtomicUsize::new(0);
    let busy_ns = AtomicU64::new(0);
    let work = || {
        IN_WORKER.set(true);
        crate::span::set_stack(stack.clone());
        let t = start.map(|_| Instant::now());
        let mut local = Vec::new();
        loop {
            let i = cursor.fetch_add(1, Ordering::Relaxed);
            if i >= n {
                break;
            }
            local.push((i, f(i)));
        }
        if let Some(t) = t {
            busy_ns.fetch_add(saturating_ns(t.elapsed()), Ordering::Relaxed);
        }
        local
    };
    let parts: Vec<Vec<(usize, R)>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers).map(|_| scope.spawn(work)).collect();
        handles
            .into_iter()
            .map(|h| h.join().unwrap_or_else(|p| std::panic::resume_unwind(p)))
            .collect()
    });
    if let Some(start) = start {
        crate::counter_add("par/busy_ns", busy_ns.into_inner());
        crate::counter_add(
            "par/capacity_ns",
            saturating_ns(start.elapsed()).saturating_mul(workers as u64),
        );
    }
    let mut indexed: Vec<(usize, R)> = parts.into_iter().flatten().collect();
    indexed.sort_unstable_by_key(|&(i, _)| i);
    indexed.into_iter().map(|(_, r)| r).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_come_back_in_index_order() {
        for workers in [1, 2, 3, 8] {
            let squares = par_map(257, workers, |i| i * i);
            assert_eq!(squares, (0..257).map(|i| i * i).collect::<Vec<_>>());
        }
        assert!(par_map(0, 4, |i| i).is_empty());
    }

    #[test]
    #[should_panic(expected = "boom")]
    fn worker_panics_propagate() {
        par_map(16, 4, |i| {
            if i == 7 {
                panic!("boom");
            }
            i
        });
    }
}

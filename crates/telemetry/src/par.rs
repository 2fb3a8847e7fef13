//! The workspace's one parallel map.
//!
//! [`par_map`] evaluates `f(0) .. f(n - 1)` on threads that claim indices
//! one at a time from a shared atomic cursor, so a slow item never strands
//! the items queued behind it. Results come back in index order and a
//! panic on any thread propagates to the caller. Each thread re-installs
//! the caller's span stack before it runs `f`, so a span opened inside `f`
//! closes under the caller's path exactly as it would on the calling
//! thread.
//!
//! The outermost call spawns its workers and owns a *team* with one slot
//! per worker; a slot is the right to run items. A worker whose cursor
//! runs dry gives its slot back. A `par_map` called from inside `f` (a
//! fold's restarts, say) runs items on its own thread, and before each
//! claim it also starts one scoped helper per free slot, up to its own
//! worker count less one. Helpers claim from the same cursor and give
//! their slot back when it runs dry, even by panicking. So a nested
//! fan-out borrows the workers that finished early, and the threads
//! running items never outnumber the outermost call's workers.
//!
//! While a run is installed, the outermost call adds to two counters:
//! `par/busy_ns`, the time its workers and every helper of its team spend
//! claiming and running items, and `par/capacity_ns`, its wall time times
//! its worker count. Their ratio is the team's utilisation. Every helper
//! a nested call starts adds one to `par/helpers`.

use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

use crate::hist::saturating_ns;

thread_local! {
    /// The team of the outermost call this thread runs items for.
    static TEAM: RefCell<Option<Arc<Team>>> = const { RefCell::new(None) };
}

/// The thread budget of one outermost call, shared by every call nested
/// under it.
struct Team {
    /// Slots no thread holds. A thread gives its slot back (Release) only
    /// after its last item returned, and a helper is spawned only after
    /// taking one (Acquire), so a helper's items start after the items of
    /// the thread whose slot it took have ended.
    free: AtomicUsize,
    /// Summed time the team's threads spent claiming and running items.
    busy_ns: AtomicU64,
}

impl Team {
    /// Take a free slot, if there is one.
    fn try_take_slot(self: &Arc<Self>) -> Option<Slot> {
        self.free
            .fetch_update(Ordering::Acquire, Ordering::Acquire, |f| f.checked_sub(1))
            .ok()
            .map(|_| Slot(Arc::clone(self)))
    }
}

/// A held team slot. Dropping it, on return or on unwind, frees it.
struct Slot(Arc<Team>);

impl Drop for Slot {
    fn drop(&mut self) {
        self.0.free.fetch_add(1, Ordering::Release);
    }
}

/// Worker count of a fan-out that does not choose one: every available
/// core ([`par_map`] caps it by the number of items).
pub fn default_workers() -> usize {
    std::thread::available_parallelism().map_or(1, |p| p.get())
}

/// Map `f` over `0..n` on up to `workers` threads; see the module docs.
///
/// With one effective worker (`workers` or `n` at most 1), `f` runs inline
/// on the calling thread in index order. Called from inside another
/// `par_map`, it runs on the calling thread plus whatever free slots of the
/// outermost call's team it can borrow.
pub fn par_map<R, F>(n: usize, workers: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    let workers = workers.min(n);
    if workers <= 1 {
        return (0..n).map(f).collect();
    }
    let outer_team = TEAM.with_borrow(Option::clone);
    let outermost = outer_team.is_none();
    let start = (outermost && crate::enabled()).then(Instant::now);
    let team = outer_team.unwrap_or_else(|| {
        Arc::new(Team {
            free: AtomicUsize::new(0),
            busy_ns: AtomicU64::new(0),
        })
    });
    let stack = crate::span::stack();
    let cursor = AtomicUsize::new(0);
    let next = || {
        let i = cursor.fetch_add(1, Ordering::Relaxed);
        (i < n).then(|| (i, f(i)))
    };
    // A spawned thread holding `slot`: it joins the team under the
    // caller's span stack and runs items until the cursor runs dry.
    let team_thread = |slot: Slot| {
        TEAM.set(Some(Arc::clone(&slot.0)));
        crate::span::set_stack(stack.clone());
        let t = Instant::now();
        let items: Vec<(usize, R)> = std::iter::from_fn(next).collect();
        slot.0
            .busy_ns
            .fetch_add(saturating_ns(t.elapsed()), Ordering::Relaxed);
        items
    };
    let mut indexed = std::thread::scope(|scope| {
        let mut threads = Vec::new();
        let mut local = Vec::new();
        if outermost {
            for _ in 0..workers {
                let slot = Slot(Arc::clone(&team));
                threads.push(scope.spawn(move || team_thread(slot)));
            }
        } else {
            // Before each claim, start a helper per free slot while this
            // call has fewer than `workers` threads and an item is left
            // for the helper.
            loop {
                while threads.len() + 1 < workers && n > cursor.load(Ordering::Relaxed) + 1 {
                    let Some(slot) = team.try_take_slot() else {
                        break;
                    };
                    crate::counter_add("par/helpers", 1);
                    threads.push(scope.spawn(move || team_thread(slot)));
                }
                let Some(item) = next() else {
                    break;
                };
                local.push(item);
            }
        }
        for t in threads {
            local.extend(t.join().unwrap_or_else(|p| std::panic::resume_unwind(p)));
        }
        local
    });
    if let Some(start) = start {
        crate::counter_add("par/busy_ns", team.busy_ns.load(Ordering::Relaxed));
        crate::counter_add(
            "par/capacity_ns",
            saturating_ns(start.elapsed()).saturating_mul(workers as u64),
        );
    }
    indexed.sort_unstable_by_key(|&(i, _)| i);
    indexed.into_iter().map(|(_, r)| r).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicBool;
    use std::thread;
    use std::time::Duration;

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

    #[test]
    fn nested_results_match_the_serial_map() {
        // Uneven item costs make workers finish at different times, so
        // nested calls find free slots part of the time.
        let leaf = |i: usize, j: usize, k: usize| {
            thread::sleep(Duration::from_micros(((i + j + k) % 3 * 100) as u64));
            (i * 7 + j) * 5 + k
        };
        let serial: Vec<Vec<Vec<usize>>> = (0..6)
            .map(|i| {
                (0..7)
                    .map(|j| (0..5).map(|k| leaf(i, j, k)).collect())
                    .collect()
            })
            .collect();
        for workers in [1, 2, 3, 8] {
            let nested = par_map(6, workers, |i| {
                par_map(7, workers, |j| par_map(5, workers, |k| leaf(i, j, k)))
            });
            assert_eq!(nested, serial, "{workers} workers");
        }
    }

    /// Spin until `cond` holds. The deadline turns a broken hand-over
    /// into a failure instead of a hang; it is never reached otherwise.
    fn wait_until(cond: impl Fn() -> bool, what: &str) {
        let deadline = Instant::now() + Duration::from_secs(10);
        while !cond() {
            assert!(Instant::now() < deadline, "timed out waiting for {what}");
            thread::yield_now();
        }
    }

    /// From item 1 of a two-worker call whose item 0 returns at once,
    /// wait until the other worker has given its slot back, then run a
    /// two-item nested call. The call must start a helper before its first
    /// claim; its own item waits until the helper has run the other one,
    /// calling `on_helper` there. Returns the nested call's thread and the
    /// thread that ran each nested item.
    fn borrow_the_idle_slot(
        on_helper: impl Fn() + Sync,
    ) -> (thread::ThreadId, Vec<thread::ThreadId>) {
        let helped = AtomicBool::new(false);
        let mut items = par_map(2, 2, |i| {
            let caller = thread::current().id();
            if i == 0 {
                return (caller, Vec::new());
            }
            let team = TEAM.with_borrow(Option::clone).expect("a team thread");
            wait_until(|| team.free.load(Ordering::Acquire) == 1, "a free slot");
            let ran_on = par_map(2, 2, |_| {
                let me = thread::current().id();
                if me == caller {
                    wait_until(|| helped.load(Ordering::SeqCst), "a helper");
                } else {
                    helped.store(true, Ordering::SeqCst);
                    on_helper();
                }
                me
            });
            (caller, ran_on)
        });
        items.pop().expect("two items")
    }

    #[test]
    fn a_finished_worker_lends_its_slot_to_a_nested_call() {
        let (caller, ran_on) = borrow_the_idle_slot(|| ());
        assert_eq!(ran_on.len(), 2);
        assert!(
            ran_on.iter().any(|&id| id != caller),
            "the nested call never borrowed the idle worker's slot"
        );
    }

    #[test]
    #[should_panic(expected = "helper boom")]
    fn a_panicking_helper_propagates() {
        borrow_the_idle_slot(|| panic!("helper boom"));
    }
}

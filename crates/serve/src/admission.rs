//! Bounded admission with explicit, typed load-shedding.
//!
//! The one-shot replay needs no queue: it reads one window at a time on
//! the serving thread, so the producer simply stalls on an unread pipe.
//! A long-lived daemon cannot do that — its reader must keep draining
//! the transport to *see* a burst, which means admission has to be an
//! explicit decision with an explicit rejection. [`AdmissionQueue`] is that decision point:
//!
//! * [`AdmissionQueue::try_admit`] — data-plane admission. When the
//!   queue is at capacity it hands the item back with
//!   [`fault::Error::Overloaded`] carrying the observed depth, and the
//!   caller turns that into a typed `{"error":"overloaded"}` response
//!   naming the item's id. **A full queue is never a
//!   silent drop** — every rejected request produces exactly one typed
//!   response.
//! * [`AdmissionQueue::admit_priority`] — control-plane admission
//!   (load/unload/status/shutdown frames). Control traffic bypasses
//!   the capacity check so an overloaded data plane cannot lock the
//!   operator out of the daemon; it is bounded in practice by the
//!   transport's frame rate.
//! * [`AdmissionQueue::pop_window`] — consumer side: blocks until at
//!   least one item or closure, then drains up to a window.
//!
//! The queue also owns the two robustness counters the soak gate
//! asserts on: the depth high-water mark and the shed count.

use fault::{Error, Result};
use std::collections::VecDeque;
use std::sync::{Condvar, Mutex};

struct Inner<T> {
    items: VecDeque<T>,
    closed: bool,
    high_water: usize,
    shed: u64,
}

/// A bounded MPSC work queue with typed shedding (see module docs).
pub struct AdmissionQueue<T> {
    inner: Mutex<Inner<T>>,
    readable: Condvar,
    capacity: usize,
}

impl<T> AdmissionQueue<T> {
    /// A queue admitting at most `capacity` data-plane items.
    pub fn new(capacity: usize) -> AdmissionQueue<T> {
        AdmissionQueue {
            inner: Mutex::new(Inner {
                items: VecDeque::with_capacity(capacity.min(1 << 16)),
                closed: false,
                high_water: 0,
                shed: 0,
            }),
            readable: Condvar::new(),
            capacity,
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Inner<T>> {
        // A poisoned mutex means a holder panicked; the queue state
        // itself (a VecDeque and counters) is still coherent, so
        // recover the guard rather than cascading the panic.
        match self.inner.lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        }
    }

    /// Admit a data-plane item, or shed it with a typed
    /// [`Error::Overloaded`] when the queue is full (or closed —
    /// a closing daemon stops admitting, it does not drop silently).
    /// A shed item comes back with the error, for the caller to answer.
    pub(crate) fn try_admit(&self, item: T) -> std::result::Result<(), (T, Error)> {
        let mut inner = self.lock();
        if inner.closed || inner.items.len() >= self.capacity {
            inner.shed += 1;
            let depth = inner.items.len();
            drop(inner);
            return Err((item, Error::overloaded(depth, self.capacity)));
        }
        inner.items.push_back(item);
        inner.high_water = inner.high_water.max(inner.items.len());
        drop(inner);
        self.readable.notify_one();
        Ok(())
    }

    /// Admit a control-plane item regardless of depth. Fails only when
    /// the queue is already closed.
    pub(crate) fn admit_priority(&self, item: T) -> Result<()> {
        let mut inner = self.lock();
        if inner.closed {
            let depth = inner.items.len();
            drop(inner);
            return Err(Error::overloaded(depth, self.capacity));
        }
        inner.items.push_back(item);
        inner.high_water = inner.high_water.max(inner.items.len());
        drop(inner);
        self.readable.notify_one();
        Ok(())
    }

    /// Block until at least one item is queued (or the queue is closed),
    /// then drain up to `max` items in admission order. `None` means
    /// closed *and* fully drained — the consumer's termination signal.
    pub(crate) fn pop_window(&self, max: usize) -> Option<Vec<T>> {
        let mut inner = self.lock();
        while inner.items.is_empty() {
            if inner.closed {
                return None;
            }
            inner = match self.readable.wait(inner) {
                Ok(g) => g,
                Err(poisoned) => poisoned.into_inner(),
            };
        }
        let take = max.max(1).min(inner.items.len());
        Some(inner.items.drain(..take).collect())
    }

    /// Close the queue: future admissions fail, and `pop_window`
    /// returns `None` once the backlog drains.
    pub fn close(&self) {
        let mut inner = self.lock();
        inner.closed = true;
        drop(inner);
        self.readable.notify_all();
    }

    /// Current queue depth.
    pub fn depth(&self) -> usize {
        self.lock().items.len()
    }

    /// Deepest the queue has ever been.
    pub(crate) fn high_water(&self) -> usize {
        self.lock().high_water
    }

    /// Data-plane items rejected by [`try_admit`](AdmissionQueue::try_admit).
    pub(crate) fn shed_count(&self) -> u64 {
        self.lock().shed
    }

    /// The configured data-plane capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn sheds_with_typed_overloaded_when_full() {
        let q: AdmissionQueue<u32> = AdmissionQueue::new(2);
        q.try_admit(1).expect("room");
        q.try_admit(2).expect("room");
        let (item, err) = q.try_admit(3).expect_err("full");
        assert_eq!(item, 3, "the shed item comes back");
        assert_eq!(err.kind(), "overloaded");
        assert!(err.to_string().contains("2/2"), "{err}");
        assert_eq!(q.shed_count(), 1);
        assert_eq!(q.high_water(), 2);
        assert_eq!(q.depth(), 2, "shed item was not enqueued");
    }

    #[test]
    fn priority_admission_ignores_capacity_but_not_closure() {
        let q: AdmissionQueue<u32> = AdmissionQueue::new(1);
        q.try_admit(1).expect("room");
        q.admit_priority(2).expect("control bypasses capacity");
        assert_eq!(q.depth(), 2);
        q.close();
        assert_eq!(
            q.admit_priority(3).expect_err("closed").kind(),
            "overloaded"
        );
        assert_eq!(q.try_admit(4).expect_err("closed").1.kind(), "overloaded");
    }

    #[test]
    fn pop_window_preserves_order_and_drains_after_close() {
        let q: AdmissionQueue<u32> = AdmissionQueue::new(8);
        for i in 0..5 {
            q.try_admit(i).expect("room");
        }
        q.close();
        assert_eq!(q.pop_window(3), Some(vec![0, 1, 2]));
        assert_eq!(q.pop_window(3), Some(vec![3, 4]));
        assert_eq!(q.pop_window(3), None, "closed and drained");
    }

    #[test]
    fn pop_window_blocks_until_producer_arrives() {
        let q: Arc<AdmissionQueue<u32>> = Arc::new(AdmissionQueue::new(4));
        let prod = Arc::clone(&q);
        let h = std::thread::spawn(move || {
            std::thread::sleep(std::time::Duration::from_millis(20));
            prod.try_admit(7).expect("room");
            prod.close();
        });
        assert_eq!(q.pop_window(4), Some(vec![7]));
        assert_eq!(q.pop_window(4), None);
        h.join().expect("producer");
    }
}

//! Bounded LRU surrogate cache.
//!
//! Design-space replays are heavily repetitive — the same few hundred
//! candidate configurations come back again and again as outer tooling
//! explores around optima — so the serving engine fronts the model with
//! an LRU map from canonicalized configuration vectors to predictions.
//!
//! The implementation is the classic hash-map-plus-intrusive-list, with
//! the hash computed once per key: a key is hashed by the cache's own
//! [`RandomState`] (so a client cannot aim keys at one bucket), and a
//! `HashMap` from that 64-bit hash leads to the key's slot. Slots are
//! threaded on a doubly linked list (indices, not pointers) ordered by
//! recency; the rare distinct keys whose hashes collide are chained
//! through their slots. A caller that already holds a key's
//! [`hash`](LruCache::hash) probes and fills with
//! [`get_hashed`](LruCache::get_hashed) and
//! [`put_hashed`](LruCache::put_hashed) without hashing the key again.
//! All operations are O(1); eviction pops the list tail. Capacity 0 is a
//! legal degenerate cache that stores nothing.

use std::borrow::Borrow;
use std::collections::hash_map::{Entry, RandomState};
use std::collections::HashMap;
use std::hash::{BuildHasher, Hash};

/// Sentinel for "no neighbour" in the intrusive lists.
const NIL: usize = usize::MAX;

struct Slot<K, V> {
    key: K,
    value: V,
    hash: u64,
    /// Next slot whose key has the same hash.
    same: usize,
    prev: usize,
    next: usize,
}

/// A fixed-capacity least-recently-used cache.
pub struct LruCache<K, V> {
    hasher: RandomState,
    /// Key hash → the first slot of that hash's chain.
    chains: HashMap<u64, usize>,
    /// Resident entries, plus at most one evicted slot awaiting reuse.
    slots: Vec<Slot<K, V>>,
    /// The evicted slot the next new entry reuses, or `NIL`.
    spare: usize,
    len: usize,
    head: usize,
    tail: usize,
    capacity: usize,
}

impl<K: Hash + Eq, V: Clone> LruCache<K, V> {
    /// A cache holding at most `capacity` entries.
    ///
    /// Eviction semantics, by capacity:
    ///
    /// * `capacity == 0` — **the cache is disabled**: `put` is a no-op
    ///   and `get` always misses. Never a panic, never unbounded
    ///   growth; the serving layer maps `--cache-cap 0` onto this to
    ///   force every request through the model.
    /// * `capacity == 1` — a single-slot cache: each `put` of a new key
    ///   evicts the previous resident (degenerate but valid LRU).
    /// * otherwise — the least-recently-*used* entry is evicted when a
    ///   `put` of a new key finds the cache full; both `get` hits and
    ///   `put` overwrites refresh recency.
    pub fn new(capacity: usize) -> Self {
        LruCache {
            hasher: RandomState::new(),
            // A full cache briefly holds one entry more, until `put_hashed`
            // evicts.
            chains: HashMap::with_capacity(capacity.saturating_add(1).min(1 << 20)),
            slots: Vec::with_capacity(capacity.saturating_add(1).min(1 << 20)),
            spare: NIL,
            len: 0,
            head: NIL,
            tail: NIL,
            capacity,
        }
    }

    /// Number of cached entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The configured capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// The hash [`get_hashed`](Self::get_hashed) and
    /// [`put_hashed`](Self::put_hashed) take for `key`.
    pub(crate) fn hash<Q: Hash + ?Sized>(&self, key: &Q) -> u64 {
        self.hasher.hash_one(key)
    }

    /// Look up `key`, marking it most recently used on a hit.
    pub fn get<Q>(&mut self, key: &Q) -> Option<V>
    where
        K: Borrow<Q>,
        Q: Hash + Eq + ?Sized,
    {
        self.get_hashed(self.hash(key), key)
    }

    /// [`get`](Self::get) for a key whose [`hash`](Self::hash) is known.
    pub(crate) fn get_hashed<Q>(&mut self, hash: u64, key: &Q) -> Option<V>
    where
        K: Borrow<Q>,
        Q: Eq + ?Sized,
    {
        let mut idx = *self.chains.get(&hash)?;
        while self.slots[idx].key.borrow() != key {
            idx = self.slots[idx].same;
            if idx == NIL {
                return None;
            }
        }
        self.detach(idx);
        self.attach_front(idx);
        Some(self.slots[idx].value.clone())
    }

    /// [`put_hashed`](Self::put_hashed), hashing `key` itself.
    #[cfg(test)]
    pub(crate) fn put(&mut self, key: K, value: V) {
        self.put_hashed(self.hash(&key), key, value);
    }

    /// Insert (or refresh) `key → value`, where `hash` is the key's
    /// [`hash`](Self::hash), evicting the least recently used entry if the
    /// cache is full. One map lookup finds the key's chain; a new key
    /// joins it in the spare slot (or a new one), and only then, if the
    /// cache overflowed, is the least recently used entry evicted.
    pub(crate) fn put_hashed(&mut self, hash: u64, key: K, value: V) {
        if self.capacity == 0 {
            return;
        }
        let chain = self.chains.entry(hash).or_insert(NIL);
        let mut idx = *chain;
        while idx != NIL {
            if self.slots[idx].key == key {
                self.slots[idx].value = value;
                self.detach(idx);
                self.attach_front(idx);
                return;
            }
            idx = self.slots[idx].same;
        }
        let slot = Slot {
            key,
            value,
            hash,
            same: *chain,
            prev: NIL,
            next: NIL,
        };
        let idx = if self.spare == NIL {
            self.slots.push(slot);
            self.slots.len() - 1
        } else {
            self.slots[self.spare] = slot;
            std::mem::replace(&mut self.spare, NIL)
        };
        *chain = idx;
        self.attach_front(idx);
        self.len += 1;
        if self.len > self.capacity {
            self.evict(self.tail);
        }
    }

    /// Remove `idx` from the recency list and its hash chain, leaving its
    /// slot as the spare.
    fn evict(&mut self, idx: usize) {
        self.detach(idx);
        let (hash, same) = (self.slots[idx].hash, self.slots[idx].same);
        if let Entry::Occupied(mut chain) = self.chains.entry(hash) {
            if *chain.get() == idx {
                if same == NIL {
                    chain.remove();
                } else {
                    *chain.get_mut() = same;
                }
            } else {
                let mut prev = *chain.get();
                while self.slots[prev].same != idx {
                    prev = self.slots[prev].same;
                }
                self.slots[prev].same = same;
            }
        }
        self.spare = idx;
        self.len -= 1;
    }

    fn detach(&mut self, idx: usize) {
        let (prev, next) = (self.slots[idx].prev, self.slots[idx].next);
        if prev != NIL {
            self.slots[prev].next = next;
        } else if self.head == idx {
            self.head = next;
        }
        if next != NIL {
            self.slots[next].prev = prev;
        } else if self.tail == idx {
            self.tail = prev;
        }
        self.slots[idx].prev = NIL;
        self.slots[idx].next = NIL;
    }

    fn attach_front(&mut self, idx: usize) {
        self.slots[idx].prev = NIL;
        self.slots[idx].next = self.head;
        if self.head != NIL {
            self.slots[self.head].prev = idx;
        }
        self.head = idx;
        if self.tail == NIL {
            self.tail = idx;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hit_miss_and_bounded_eviction() {
        let mut c: LruCache<u32, &str> = LruCache::new(2);
        assert!(c.get(&1).is_none());
        c.put(1, "one");
        c.put(2, "two");
        assert_eq!(c.get(&1), Some("one"));
        c.put(3, "three"); // evicts 2 (LRU after the get refreshed 1)
        assert_eq!(c.get(&2), None);
        assert_eq!(c.get(&1), Some("one"));
        assert_eq!(c.get(&3), Some("three"));
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn put_refreshes_recency_and_overwrites() {
        let mut c: LruCache<u32, u32> = LruCache::new(2);
        c.put(1, 10);
        c.put(2, 20);
        c.put(1, 11); // 1 is now MRU with a new value
        c.put(3, 30); // evicts 2
        assert_eq!(c.get(&1), Some(11));
        assert_eq!(c.get(&2), None);
        assert_eq!(c.get(&3), Some(30));
    }

    #[test]
    fn zero_capacity_means_disabled_not_panic_or_growth() {
        let mut c: LruCache<u32, u32> = LruCache::new(0);
        assert_eq!(c.capacity(), 0);
        assert_eq!(c.get(&1), None, "get on a disabled cache misses");
        for i in 0..100 {
            c.put(i, i * 10);
            assert!(c.is_empty(), "put #{i} must be a no-op");
            assert_eq!(c.len(), 0);
        }
        assert_eq!(c.get(&1), None, "nothing was ever stored");
        // Re-putting the same key still stores nothing (the overwrite
        // path must not bypass the capacity guard).
        c.put(7, 70);
        c.put(7, 71);
        assert_eq!(c.get(&7), None);
    }

    #[test]
    fn capacity_one_is_a_single_slot_with_eviction() {
        let mut c: LruCache<u32, u32> = LruCache::new(1);
        assert_eq!(c.get(&1), None);
        c.put(1, 10);
        assert_eq!(c.get(&1), Some(10));
        assert_eq!(c.len(), 1);
        c.put(2, 20); // evicts 1, the only resident
        assert_eq!(c.get(&1), None);
        assert_eq!(c.get(&2), Some(20));
        assert_eq!(c.len(), 1, "len never exceeds capacity 1");
        c.put(2, 21); // overwrite in place, no eviction
        assert_eq!(c.get(&2), Some(21));
        c.put(3, 30);
        assert_eq!(c.get(&2), None);
        assert_eq!(c.get(&3), Some(30));
    }

    /// Differential test against a naive Vec-based LRU model. `hash`
    /// picks the hash each key is filed under: the cache's own, or a
    /// forced one that makes distinct keys collide.
    fn check_against_reference(hash: impl Fn(&LruCache<u64, u64>, u64) -> u64) {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(42);
        let cap = 8;
        let mut real: LruCache<u64, u64> = LruCache::new(cap);
        let mut model: Vec<(u64, u64)> = Vec::new(); // front = MRU
        for step in 0..5000u64 {
            let key = rng.random_range(0..24u64);
            if rng.random::<bool>() {
                let want = model
                    .iter()
                    .position(|&(k, _)| k == key)
                    .map(|i| model.remove(i))
                    .inspect(|e| model.insert(0, *e))
                    .map(|(_, v)| v);
                let h = hash(&real, key);
                assert_eq!(real.get_hashed(h, &key), want, "step {step} get {key}");
            } else {
                if let Some(i) = model.iter().position(|&(k, _)| k == key) {
                    model.remove(i);
                }
                model.insert(0, (key, step));
                model.truncate(cap);
                real.put_hashed(hash(&real, key), key, step);
            }
            assert_eq!(real.len(), model.len(), "step {step}");
        }
    }

    #[test]
    fn matches_reference_model_on_random_trace() {
        check_against_reference(|c, k| c.hash(&k));
    }

    /// Distinct keys whose hashes collide share a chain; lookups, refreshes
    /// and evictions still treat them as distinct entries, whether every
    /// key collides or a few chains interleave.
    #[test]
    fn colliding_hashes_behave_like_distinct_ones() {
        check_against_reference(|_, _| 7);
        check_against_reference(|_, k| k % 3);
    }
}

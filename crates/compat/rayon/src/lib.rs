//! Offline stand-in for `rayon`'s parallel iterators.
//!
//! The build environment has no registry access, so this vendored crate
//! implements the subset of rayon the workspace uses — `par_iter()` /
//! `into_par_iter()` followed by `enumerate` / `map` and a terminal
//! `collect` / `min_by` — with *real* data parallelism: items are split
//! into contiguous chunks and evaluated on scoped `std::thread` workers
//! (one per available core, capped by item count). Results always come
//! back in input order, matching rayon's indexed-iterator guarantee, and
//! worker panics propagate to the caller like rayon's do.
//!
//! Unlike rayon there is no work-stealing pool: each `map` call spawns
//! its own scoped workers. For the coarse-grained parallelism in this
//! workspace (whole-simulation or whole-training closures) the spawn cost
//! is noise.

use std::cmp::Ordering;

/// Everything call sites need: the two conversion traits.
pub mod prelude {
    pub use crate::{IntoParallelIterator, IntoParallelRefIterator};
}

/// Worker count for a job of `n` items.
fn threads_for(n: usize) -> usize {
    let cores = std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(1);
    cores.min(n).max(1)
}

/// Map `f` over a borrowed slice in parallel, preserving order.
fn map_slice<'a, T, R, F>(items: &'a [T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &'a T) -> R + Sync,
{
    let n = items.len();
    if n == 0 {
        return Vec::new();
    }
    let threads = threads_for(n);
    if threads == 1 {
        return items.iter().enumerate().map(|(i, t)| f(i, t)).collect();
    }
    let chunk = n.div_ceil(threads);
    let mut parts: Vec<Vec<R>> = Vec::with_capacity(threads);
    std::thread::scope(|s| {
        let f = &f;
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let lo = t * chunk;
                let hi = ((t + 1) * chunk).min(n);
                s.spawn(move || {
                    items[lo..hi]
                        .iter()
                        .enumerate()
                        .map(|(i, item)| f(lo + i, item))
                        .collect::<Vec<R>>()
                })
            })
            .collect();
        for h in handles {
            match h.join() {
                Ok(part) => parts.push(part),
                Err(payload) => std::panic::resume_unwind(payload),
            }
        }
    });
    parts.into_iter().flatten().collect()
}

/// Map `f` over owned items in parallel, preserving order.
fn map_owned<T, R, F>(items: Vec<T>, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(usize, T) -> R + Sync,
{
    let n = items.len();
    if n == 0 {
        return Vec::new();
    }
    let threads = threads_for(n);
    if threads == 1 {
        return items
            .into_iter()
            .enumerate()
            .map(|(i, t)| f(i, t))
            .collect();
    }
    let chunk = n.div_ceil(threads);
    // Split into per-worker owned chunks, remembering each chunk's offset.
    let mut chunks: Vec<(usize, Vec<T>)> = Vec::with_capacity(threads);
    let mut rest = items;
    let mut offset = 0usize;
    while !rest.is_empty() {
        let take = chunk.min(rest.len());
        let tail = rest.split_off(take);
        chunks.push((offset, rest));
        offset += take;
        rest = tail;
    }
    let mut parts: Vec<Vec<R>> = Vec::with_capacity(chunks.len());
    std::thread::scope(|s| {
        let f = &f;
        let handles: Vec<_> = chunks
            .into_iter()
            .map(|(lo, part)| {
                s.spawn(move || {
                    part.into_iter()
                        .enumerate()
                        .map(|(i, item)| f(lo + i, item))
                        .collect::<Vec<R>>()
                })
            })
            .collect();
        for h in handles {
            match h.join() {
                Ok(part) => parts.push(part),
                Err(payload) => std::panic::resume_unwind(payload),
            }
        }
    });
    parts.into_iter().flatten().collect()
}

/// `par_iter()` over a borrowed collection.
pub trait IntoParallelRefIterator<'a> {
    /// Borrowed item type.
    type Item: 'a;
    /// The parallel iterator.
    fn par_iter(&'a self) -> ParSlice<'a, Self::Item>;
}

impl<'a, T: Sync + 'a> IntoParallelRefIterator<'a> for [T] {
    type Item = T;
    fn par_iter(&'a self) -> ParSlice<'a, T> {
        ParSlice { items: self }
    }
}

impl<'a, T: Sync + 'a> IntoParallelRefIterator<'a> for Vec<T> {
    type Item = T;
    fn par_iter(&'a self) -> ParSlice<'a, T> {
        ParSlice { items: self }
    }
}

/// `into_par_iter()` over an owned collection or range.
pub trait IntoParallelIterator {
    /// Owned item type.
    type Item;
    /// The parallel iterator.
    fn into_par_iter(self) -> ParOwned<Self::Item>;
}

impl<T: Send> IntoParallelIterator for Vec<T> {
    type Item = T;
    fn into_par_iter(self) -> ParOwned<T> {
        ParOwned { items: self }
    }
}

macro_rules! impl_into_par_for_range {
    ($($t:ty),*) => {$(
        impl IntoParallelIterator for core::ops::Range<$t> {
            type Item = $t;
            fn into_par_iter(self) -> ParOwned<$t> {
                ParOwned { items: self.collect() }
            }
        }
    )*};
}

impl_into_par_for_range!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

/// Parallel iterator over a borrowed slice.
pub struct ParSlice<'a, T> {
    items: &'a [T],
}

impl<'a, T: Sync> ParSlice<'a, T> {
    /// Pair every item with its index, like `ParallelIterator::enumerate`.
    pub fn enumerate(self) -> ParSliceEnumerate<'a, T> {
        ParSliceEnumerate { items: self.items }
    }

    /// Parallel map; results keep input order.
    pub fn map<R, F>(self, f: F) -> Evaluated<R>
    where
        R: Send,
        F: Fn(&'a T) -> R + Sync,
    {
        Evaluated {
            items: map_slice(self.items, |_, t| f(t)),
        }
    }
}

/// Enumerated parallel iterator over a borrowed slice.
pub struct ParSliceEnumerate<'a, T> {
    items: &'a [T],
}

impl<'a, T: Sync> ParSliceEnumerate<'a, T> {
    /// Parallel map over `(index, &item)` pairs.
    pub fn map<R, F>(self, f: F) -> Evaluated<R>
    where
        R: Send,
        F: Fn((usize, &'a T)) -> R + Sync,
    {
        Evaluated {
            items: map_slice(self.items, |i, t| f((i, t))),
        }
    }
}

/// Parallel iterator over owned items.
pub struct ParOwned<T> {
    items: Vec<T>,
}

impl<T: Send> ParOwned<T> {
    /// Pair every item with its index.
    pub fn enumerate(self) -> ParOwnedEnumerate<T> {
        ParOwnedEnumerate { items: self.items }
    }

    /// Parallel map; results keep input order.
    pub fn map<R, F>(self, f: F) -> Evaluated<R>
    where
        R: Send,
        F: Fn(T) -> R + Sync,
    {
        Evaluated {
            items: map_owned(self.items, |_, t| f(t)),
        }
    }
}

/// Enumerated parallel iterator over owned items.
pub struct ParOwnedEnumerate<T> {
    items: Vec<T>,
}

impl<T: Send> ParOwnedEnumerate<T> {
    /// Parallel map over `(index, item)` pairs.
    pub fn map<R, F>(self, f: F) -> Evaluated<R>
    where
        R: Send,
        F: Fn((usize, T)) -> R + Sync,
    {
        Evaluated {
            items: map_owned(self.items, |i, t| f((i, t))),
        }
    }
}

/// The (already evaluated, in-order) results of a parallel map.
pub struct Evaluated<R> {
    items: Vec<R>,
}

impl<R> Evaluated<R> {
    /// Gather results, like rayon's ordered `collect`.
    pub fn collect<C: FromIterator<R>>(self) -> C {
        self.items.into_iter().collect()
    }

    /// Minimum under a comparator, like `ParallelIterator::min_by`.
    pub fn min_by<F>(self, compare: F) -> Option<R>
    where
        F: Fn(&R, &R) -> Ordering,
    {
        self.items.into_iter().reduce(|a, b| match compare(&a, &b) {
            Ordering::Greater => b,
            _ => a,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn enumerate_indices_match() {
        let xs = vec!["a", "b", "c", "d"];
        let tagged: Vec<(usize, &str)> = xs.par_iter().enumerate().map(|(i, &s)| (i, s)).collect();
        assert_eq!(tagged, vec![(0, "a"), (1, "b"), (2, "c"), (3, "d")]);
    }

    #[test]
    fn min_by_finds_minimum() {
        let xs: Vec<f64> = vec![3.0, 1.0, 2.0];
        let min = xs
            .par_iter()
            .map(|&x| (x, x * 10.0))
            .min_by(|a, b| a.1.total_cmp(&b.1));
        assert_eq!(min.unwrap().0, 1.0);
    }

    #[test]
    fn map_actually_runs_on_multiple_threads() {
        // Only meaningful on multicore hosts, but never fails on one core.
        let ids: Vec<std::thread::ThreadId> = (0usize..64)
            .into_par_iter()
            .map(|_| {
                std::thread::sleep(std::time::Duration::from_millis(1));
                std::thread::current().id()
            })
            .collect();
        let distinct: std::collections::HashSet<_> = ids.iter().collect();
        if std::thread::available_parallelism()
            .map(|p| p.get())
            .unwrap_or(1)
            > 1
        {
            assert!(distinct.len() > 1, "expected work on more than one thread");
        }
    }
}

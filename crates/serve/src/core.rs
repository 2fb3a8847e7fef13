//! The window-predict core of the serving loop ([`crate::daemon`]).
//!
//! One call to [`predict_window`] is the whole hot path of the serving
//! layer: probe the LRU surrogate cache, deduplicate the misses by
//! canonical key, run one matrix-form prediction over the distinct misses
//! (split across [`telemetry::par_map`] workers when the window is large
//! enough to pay for them, see [`MIN_SHARD_ROWS`]), and fill every window
//! slot. Row `i`'s arithmetic never reads any other row, so the outcome is
//! bit-identical for any worker count — the property both the replay
//! golden test and the soak harness's 1-vs-N comparison rely on.
//!
//! Keeping this a pure function of `(artifact, cache, requests)` keeps
//! the daemon's framing, deadlines and degraded-mode policy out of it:
//! the daemon calls it once per route group of each window.

use crate::cache::LruCache;
use crate::compiled::CompiledModel;
use crate::request::{canonical_key, Request};
use std::collections::HashMap;

/// Fewest distinct misses each shard must hold before a window's
/// prediction is split across workers; a smaller window is predicted on
/// the calling thread. Measured on a 2-vCPU x86-64 host: starting and
/// joining one scoped thread costs 17–37 µs, and a fan-out to two threads
/// 40–63 µs, against about 0.38 µs of prediction per row for NN-E and
/// 0.05 µs for LR-B (perfbench's `serve.predict_us_per_row` rows). A
/// 1024-row shard is about 390 µs of NN-E work and 50 µs of LR-B work: two
/// such shards save NN-E about 390 µs for the fan-out's 40–63, and break
/// about even on LR-B, the cheapest model. The default windows (256 frames
/// one-shot, 64 in the daemon) are never split.
pub(crate) const MIN_SHARD_ROWS: usize = 1024;

/// End of a hash chain in [`Misses`].
const NIL: usize = usize::MAX;

/// A window's distinct cache misses, in first-seen order, found by key
/// hash.
#[derive(Default)]
struct Misses<'r> {
    requests: Vec<&'r Request>,
    hashes: Vec<u64>,
    /// Key hash → the first distinct miss with it; distinct misses whose
    /// hashes collide chain through `same`.
    first: HashMap<u64, usize>,
    same: Vec<usize>,
}

impl<'r> Misses<'r> {
    /// The index of the distinct miss whose canonical key is `key`, with
    /// `request` added as a new one if there is none yet.
    fn index(&mut self, hash: u64, key: &[u64], request: &'r Request) -> usize {
        let first = self.first.entry(hash).or_insert(NIL);
        let mut i = *first;
        while i != NIL && !canonical_key(&self.requests[i].cells).eq(key.iter().copied()) {
            i = self.same[i];
        }
        if i == NIL {
            i = self.requests.len();
            self.same.push(*first);
            *first = i;
            self.requests.push(request);
            self.hashes.push(hash);
        }
        i
    }
}

/// What one window predict produced, slot-aligned with the input.
pub(crate) struct WindowOutcome {
    /// `(prediction, served_from_cache)` per request, in input order.
    pub results: Vec<(f64, bool)>,
    /// Requests answered from the cache.
    pub hits: u64,
    /// Distinct configurations actually predicted (misses after
    /// in-window dedup).
    pub predictions: u64,
    /// Prediction batches run (0 when every slot hit the cache).
    pub batches: u64,
}

/// How many shards `rows` distinct misses are split into: as many of
/// `workers` as leave every shard at least [`MIN_SHARD_ROWS`] rows, and at
/// least one.
fn shards(rows: usize, workers: usize) -> usize {
    workers.min(rows / MIN_SHARD_ROWS).max(1)
}

/// Predict `requests` in [`shards`] contiguous chunks through
/// [`telemetry::par_map`]; one shard runs on the calling thread. Each
/// request's prediction reads only its own cells (and for networks,
/// `affine_nt` computes each output row from its own input row), so the
/// concatenated result is bit-identical to one `predict_requests` call for
/// every worker count.
fn predict_sharded(model: &CompiledModel, requests: &[&Request], workers: usize) -> Vec<f64> {
    let workers = shards(requests.len(), workers);
    let chunks: Vec<&[&Request]> = requests
        .chunks(requests.len().div_ceil(workers).max(1))
        .collect();
    telemetry::par_map(chunks.len(), workers, |c| model.predict_requests(chunks[c])).concat()
}

/// Serve one window of validated requests: cache probe, in-window
/// dedup, one pass over the distinct misses through the compiled
/// predictor, cache fill. Returns one `(prediction, cached)` pair per
/// input slot. Infallible: the compiled predictor proved every shape it
/// reads when the artifact was compiled.
///
/// Each request's canonical key is built in one reused buffer and hashed
/// once; the cache probe, the dedup and the cache fill all take that
/// hash, and a key is copied only when it is inserted into the cache.
pub(crate) fn predict_window(
    model: &CompiledModel,
    cache: &mut LruCache<Vec<u64>, f64>,
    workers: usize,
    requests: &[&Request],
) -> WindowOutcome {
    let _span = telemetry::span!("serve/batch", rows = requests.len());
    let mut results: Vec<(f64, bool)> = vec![(0.0, false); requests.len()];
    let mut misses = Misses::default();
    let mut pending: Vec<(usize, usize)> = Vec::new(); // (window slot, unique slot)
    let mut hits = 0u64;
    {
        let _probe = telemetry::span!("serve/probe", rows = requests.len());
        let mut key: Vec<u64> = Vec::new();
        for (slot, request) in requests.iter().enumerate() {
            key.clear();
            key.extend(canonical_key(&request.cells));
            let hash = cache.hash(&key[..]);
            if let Some(hit) = cache.get_hashed(hash, &key[..]) {
                hits += 1;
                results[slot] = (hit, true);
                continue;
            }
            pending.push((slot, misses.index(hash, &key, request)));
        }
    }
    let mut predictions = 0u64;
    let mut batches = 0u64;
    // One pass over the deduplicated misses.
    if !misses.requests.is_empty() {
        let preds = predict_sharded(model, &misses.requests, workers);
        predictions = preds.len() as u64;
        batches = 1;
        telemetry::counter_add("serve/predictions", predictions);
        for ((request, &hash), &p) in misses.requests.iter().zip(&misses.hashes).zip(&preds) {
            cache.put_hashed(hash, canonical_key(&request.cells).collect(), p);
        }
        for &(slot, uslot) in &pending {
            results[slot] = (preds[uslot], false);
        }
    }
    telemetry::counter_add("serve/requests", requests.len() as u64);
    telemetry::counter_add("serve/cache_hits", hits);
    telemetry::counter_add("serve/cache_misses", requests.len() as u64 - hits);
    WindowOutcome {
        results,
        hits,
        predictions,
        batches,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compiled::{compile_with, Precision};
    use mlmodels::{try_train, ModelArtifact, ModelKind, Table};

    fn artifact() -> ModelArtifact {
        let n = 48;
        let xs: Vec<f64> = (0..n).map(|i| 100.0 + (i % 6) as f64 * 50.0).collect();
        let y: Vec<f64> = xs.iter().map(|x| 3.0 * x + 7.0).collect();
        let mut t = Table::new();
        t.add_numeric("x", xs).set_target(y);
        ModelArtifact::from_training(try_train(ModelKind::LrE, &t, 5).expect("train"), &t)
    }

    fn compiled() -> CompiledModel {
        compile_with(artifact(), Precision::F64).expect("artifact compiles")
    }

    fn request(schema: &mlmodels::artifact::TableSchema, x: f64, line: u64) -> Request {
        crate::request::parse_request_line(schema, &format!("{{\"x\":{x}}}"), line)
            .expect("valid request")
    }

    #[test]
    fn window_dedups_and_fills_every_slot() {
        let model = compiled();
        let mut cache = LruCache::new(16);
        let reqs: Vec<Request> = [100.0, 150.0, 100.0, 200.0, 150.0]
            .iter()
            .enumerate()
            .map(|(i, &x)| request(&model.artifact.schema, x, i as u64 + 1))
            .collect();
        let refs: Vec<&Request> = reqs.iter().collect();
        let out = predict_window(&model, &mut cache, 2, &refs);
        assert_eq!(out.results.len(), 5);
        assert_eq!(out.predictions, 3, "three distinct configs");
        assert_eq!(out.batches, 1);
        assert_eq!(out.hits, 0);
        // Duplicate slots share the deduplicated prediction bit-for-bit.
        assert_eq!(out.results[0].0.to_bits(), out.results[2].0.to_bits());
        assert_eq!(out.results[1].0.to_bits(), out.results[4].0.to_bits());
        // A second pass over the same window is all cache hits.
        let again = predict_window(&model, &mut cache, 2, &refs);
        assert_eq!(again.hits, 5);
        assert_eq!(again.batches, 0);
        assert!(again.results.iter().all(|&(_, cached)| cached));
    }

    /// Distinct keys filed under one hash stay distinct misses, and a
    /// repeat of either finds its own.
    #[test]
    fn colliding_miss_hashes_keep_keys_apart() {
        let model = compiled();
        let schema = &model.artifact.schema;
        let (a, b) = (request(schema, 100.0, 1), request(schema, 150.0, 2));
        let key = |r: &Request| canonical_key(&r.cells).collect::<Vec<_>>();
        let mut misses = Misses::default();
        assert_eq!(misses.index(7, &key(&a), &a), 0);
        assert_eq!(misses.index(7, &key(&b), &b), 1);
        assert_eq!(misses.index(7, &key(&a), &a), 0);
        assert_eq!(misses.index(7, &key(&b), &b), 1);
        assert_eq!(
            misses.index(8, &key(&b), &b),
            2,
            "another hash, another miss"
        );
        assert_eq!(misses.requests.len(), 3);
    }

    #[test]
    fn small_windows_stay_on_the_calling_thread() {
        assert_eq!(shards(0, 8), 1);
        assert_eq!(shards(2 * MIN_SHARD_ROWS - 1, 8), 1);
        assert_eq!(shards(2 * MIN_SHARD_ROWS, 8), 2);
        assert_eq!(shards(3 * MIN_SHARD_ROWS + 7, 8), 3);
        assert_eq!(shards(100 * MIN_SHARD_ROWS, 4), 4);
        assert_eq!(shards(100 * MIN_SHARD_ROWS, 1), 1);
    }

    #[test]
    fn outcome_is_identical_across_worker_counts() {
        let model = compiled();
        // Enough distinct misses for three shards, with in-window
        // duplicates and a cache that evicts.
        let rows = 3 * MIN_SHARD_ROWS + 500;
        let reqs: Vec<Request> = (0..rows as u64)
            .map(|i| {
                request(
                    &model.artifact.schema,
                    100.0 + (i % 3200) as f64 * 0.25,
                    i + 1,
                )
            })
            .collect();
        let refs: Vec<&Request> = reqs.iter().collect();
        let mut base_cache = LruCache::new(2048);
        let base = predict_window(&model, &mut base_cache, 1, &refs);
        assert_eq!(base.predictions, 3200);
        assert_eq!(shards(3200, 8), 3, "the batch is split");
        for workers in [2, 3, 8] {
            let mut cache = LruCache::new(2048);
            let out = predict_window(&model, &mut cache, workers, &refs);
            for (slot, (a, b)) in base.results.iter().zip(&out.results).enumerate() {
                assert_eq!(
                    a.0.to_bits(),
                    b.0.to_bits(),
                    "slot {slot}, {workers} workers"
                );
                assert_eq!(a.1, b.1, "slot {slot} cached flag");
            }
        }
    }

    /// Regression (predict-path edge cases): `-0.0` and `0.0` are the
    /// same configuration. Pre-fix, the raw `-0.0` bit pattern leaked
    /// into the cache key and the pair cost two predictions and two
    /// cache entries; canonicalizing the cell at validation makes them
    /// one in-window dedup hit and one shared cache entry end to end.
    #[test]
    fn negative_zero_and_zero_share_one_prediction_and_cache_entry() {
        let model = compiled();
        let mut cache = LruCache::new(16);
        let reqs = [
            crate::request::parse_request_line(&model.artifact.schema, "{\"x\":-0.0}", 1),
            crate::request::parse_request_line(&model.artifact.schema, "{\"x\":0.0}", 2),
        ]
        .map(|r| r.expect("valid request"));
        let refs: Vec<&Request> = reqs.iter().collect();
        let out = predict_window(&model, &mut cache, 1, &refs);
        assert_eq!(out.predictions, 1, "one distinct configuration");
        assert_eq!(out.results[0].0.to_bits(), out.results[1].0.to_bits());
        assert_eq!(cache.len(), 1, "one shared cache entry");
        // And a -0.0 replay is a pure cache hit.
        let again = predict_window(&model, &mut cache, 1, &refs[..1]);
        assert_eq!(again.hits, 1);
    }
}

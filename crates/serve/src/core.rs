//! The reusable window-predict core shared by the one-shot replay
//! engine ([`crate::engine`]) and the long-lived daemon
//! ([`crate::daemon`]).
//!
//! One call to [`predict_window`] is the whole hot path of the serving
//! layer: probe the LRU surrogate cache, deduplicate the misses by
//! canonical key, run one matrix-form prediction sharded across scoped
//! worker threads, and fill every window slot. Row `i`'s arithmetic
//! never reads any other row, so the outcome is bit-identical for any
//! worker count — the property both the replay equivalence tests and
//! the soak harness's 1-vs-N comparison rely on.
//!
//! Keeping this a pure function of `(artifact, cache, requests)` is
//! what lets the daemon reuse it per model group while the one-shot
//! engine reuses it per admission window, with neither knowing about
//! the other's framing, deadlines, or degraded-mode policy.

use crate::cache::LruCache;
use crate::compiled::CompiledModel;
use crate::request::Request;
use std::collections::HashMap;

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

/// Shard `requests` across `workers` scoped threads through the
/// compiled predictor. Each request's prediction reads only its own
/// cells (and for networks, `affine_nt` computes each output row from
/// its own input row), so the concatenated result is bit-identical to
/// one `predict_requests` call for every worker count.
fn predict_sharded(model: &CompiledModel, requests: &[&Request], workers: usize) -> Vec<f64> {
    let n = requests.len();
    let workers = workers.min(n).max(1);
    if workers == 1 {
        return model.predict_requests(requests);
    }
    let chunk = n.div_ceil(workers);
    let mut out = vec![0.0; n];
    std::thread::scope(|scope| {
        let mut remaining: &mut [f64] = &mut out;
        let mut start = 0;
        let mut handles = Vec::with_capacity(workers);
        while start < n {
            let len = chunk.min(n - start);
            let (slot, rest) = remaining.split_at_mut(len);
            remaining = rest;
            let part = &requests[start..start + len];
            handles.push(scope.spawn(move || {
                slot.copy_from_slice(&model.predict_requests(part));
            }));
            start += len;
        }
        for h in handles {
            if let Err(payload) = h.join() {
                std::panic::resume_unwind(payload);
            }
        }
    });
    out
}

/// Serve one window of validated requests: cache probe, in-window
/// dedup, one sharded pass over the distinct misses through the
/// compiled predictor, cache fill. Returns one `(prediction, cached)`
/// pair per input slot. Infallible: the compiled predictor proved every
/// shape it reads when the artifact was compiled.
pub(crate) fn predict_window(
    model: &CompiledModel,
    cache: &mut LruCache<Vec<u64>, f64>,
    workers: usize,
    requests: &[&Request],
) -> WindowOutcome {
    let _span = telemetry::span!("serve/batch", rows = requests.len());
    let mut results: Vec<(f64, bool)> = vec![(0.0, false); requests.len()];
    let mut miss_of_key: HashMap<Vec<u64>, usize> = HashMap::new();
    let mut unique: Vec<&Request> = Vec::new();
    let mut unique_keys: Vec<Vec<u64>> = Vec::new();
    let mut pending: Vec<(usize, usize)> = Vec::new(); // (window slot, unique slot)
    let mut hits = 0u64;
    for (slot, request) in requests.iter().enumerate() {
        let key = request.canonical_key();
        if let Some(hit) = cache.get(&key) {
            hits += 1;
            results[slot] = (hit, true);
            continue;
        }
        let uslot = *miss_of_key.entry(key.clone()).or_insert_with(|| {
            unique.push(request);
            unique_keys.push(key);
            unique.len() - 1
        });
        pending.push((slot, uslot));
    }
    let mut predictions = 0u64;
    let mut batches = 0u64;
    // One sharded pass over the deduplicated misses.
    if !unique.is_empty() {
        let preds = predict_sharded(model, &unique, workers);
        predictions = preds.len() as u64;
        batches = 1;
        telemetry::counter_add("serve/predictions", predictions);
        for (key, &p) in unique_keys.into_iter().zip(&preds) {
            cache.put(key, p);
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

    #[test]
    fn outcome_is_identical_across_worker_counts() {
        let model = compiled();
        let reqs: Vec<Request> = (0..40)
            .map(|i| request(&model.artifact.schema, 100.0 + (i % 9) as f64 * 25.0, i + 1))
            .collect();
        let refs: Vec<&Request> = reqs.iter().collect();
        let mut base_cache = LruCache::new(64);
        let base = predict_window(&model, &mut base_cache, 1, &refs);
        for workers in [2, 3, 8] {
            let mut cache = LruCache::new(64);
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

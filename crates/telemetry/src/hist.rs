//! Streaming latency histograms with a fixed log-bucketed layout.
//!
//! A [`Histogram`] records `u64` observations (nanoseconds by
//! convention) into HDR-style buckets: values below 64 land in
//! unit-width buckets (exact), and every power-of-two range above that
//! is split into [`SUB_BUCKETS`] sub-buckets, bounding the relative
//! quantization error of any quantile at `1/SUB_BUCKETS` ≈ 3.1 %. The
//! layout is *fixed* — it does not depend on the data — so two
//! histograms filled on different shards merge by bucket-count
//! addition, and `merge-then-quantile` equals
//! `observe-everything-then-quantile` for every interleaving of shards
//! (property-tested in `tests/hist_prop.rs`).
//!
//! Memory is bounded at [`NUM_BUCKETS`] `u64` slots (~15 KB) no matter
//! how many values are observed, which is what lets a long-lived
//! serving daemon keep per-model latency distributions forever where a
//! sort-the-`Vec` percentile cannot.
//!
//! Two flavors share the layout:
//!
//! * [`Histogram`] — plain counts, for single-owner accumulation and
//!   for merging worker-local results.
//! * [`AtomicHistogram`] — relaxed atomic counts, used by the telemetry
//!   registry so rayon-parallel callers can observe concurrently; a
//!   [`AtomicHistogram::snapshot`] materializes a plain [`Histogram`].
//!
//! Quantiles return the *upper bound* of the bucket holding the ranked
//! observation (clamped into the exact recorded `[min, max]`), so a
//! reported p99 never understates the true p99 by more than the bucket
//! width.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use crate::json::{JsonObject, Value};

/// log2 of the sub-bucket count: 32 sub-buckets per power of two.
pub const SUB_BUCKET_BITS: u32 = 5;
/// Sub-buckets per power-of-two range; bounds relative error at 1/32.
pub const SUB_BUCKETS: u64 = 1 << SUB_BUCKET_BITS;
/// Total bucket count covering the full `u64` range.
///
/// Indices `0..2*SUB_BUCKETS` are unit-width (exact); each further
/// power of two contributes `SUB_BUCKETS` buckets, and the top value
/// bit is 63, so: `(63 - SUB_BUCKET_BITS) * SUB_BUCKETS + 2*SUB_BUCKETS`.
pub const NUM_BUCKETS: usize = ((63 - SUB_BUCKET_BITS as usize) + 2) * SUB_BUCKETS as usize;

/// Convert a [`Duration`] to whole nanoseconds, saturating at
/// `u64::MAX` (~585 years) instead of truncating the `u128`.
#[inline]
pub(crate) fn saturating_ns(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

/// Bucket index for a value. Deterministic, data-independent, monotone.
#[inline]
fn bucket_index(v: u64) -> usize {
    if v < 2 * SUB_BUCKETS {
        // Unit-width region: exact.
        return v as usize;
    }
    // Position of the most significant set bit (≥ SUB_BUCKET_BITS + 1).
    let msb = 63 - v.leading_zeros();
    let shift = msb - SUB_BUCKET_BITS;
    // `top` is `v` reduced to SUB_BUCKET_BITS+1 significant bits, in
    // [SUB_BUCKETS, 2*SUB_BUCKETS).
    let top = v >> shift;
    (u64::from(msb - SUB_BUCKET_BITS) * SUB_BUCKETS + top) as usize
}

/// Largest value that maps to bucket `idx` (the quantile representative).
fn bucket_upper_bound(idx: usize) -> u64 {
    let idx = idx as u64;
    if idx < 2 * SUB_BUCKETS {
        return idx;
    }
    let q = idx / SUB_BUCKETS; // ≥ 2
    let r = idx % SUB_BUCKETS;
    let shift = (q - 1) as u32;
    // Inverse of `bucket_index`: top = SUB_BUCKETS + r, value range is
    // [top << shift, ((top + 1) << shift) - 1]. The very top bucket's
    // bound is 2^64, one past u64::MAX — widen, then saturate.
    let ub = (u128::from(SUB_BUCKETS + r + 1) << shift) - 1;
    u64::try_from(ub).unwrap_or(u64::MAX)
}

/// A mergeable fixed-layout streaming histogram. See the module docs.
#[derive(Clone, PartialEq, Eq)]
pub struct Histogram {
    counts: Box<[u64; NUM_BUCKETS]>,
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl std::fmt::Debug for Histogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Histogram")
            .field("count", &self.count)
            .field("min", &self.min())
            .field("p50", &self.quantile(0.50))
            .field("p99", &self.quantile(0.99))
            .field("max", &self.max())
            .finish()
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Histogram {
        Histogram {
            counts: Box::new([0; NUM_BUCKETS]),
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// Record one value.
    pub fn observe(&mut self, v: u64) {
        self.counts[bucket_index(v)] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(v);
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Record a duration as saturating whole nanoseconds.
    pub fn observe_ns(&mut self, d: Duration) {
        self.observe(saturating_ns(d));
    }

    /// Fold `other` into `self`. Bucket-count addition commutes, so any
    /// merge order over any sharding of the observations yields the
    /// same histogram.
    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.counts.iter_mut().zip(other.counts.iter()) {
            *a += b;
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Number of recorded observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Saturating sum of all observations.
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Smallest recorded value (0 when empty).
    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Largest recorded value (0 when empty).
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Mean of the recorded values (0.0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// The value at quantile `q` in `[0, 1]`: the upper bound of the
    /// bucket containing the observation of rank `ceil(q · count)`,
    /// clamped into the exact `[min, max]`. Returns 0 when empty;
    /// non-finite or out-of-range `q` is clamped into `[0, 1]`.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let q = if q.is_finite() {
            q.clamp(0.0, 1.0)
        } else {
            1.0
        };
        // Rank of the target observation, 1-based. count < 2^53 long
        // before the f64 product loses integer precision.
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (idx, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return bucket_upper_bound(idx).clamp(self.min, self.max);
            }
        }
        self.max
    }

    /// Sparse `(bucket index, count)` pairs for non-empty buckets.
    pub(crate) fn nonzero_buckets(&self) -> Vec<(usize, u64)> {
        self.counts
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, &c)| (i, c))
            .collect()
    }

    /// Render the manifest `histogram` record for this histogram.
    ///
    /// The record carries the summary fields every consumer wants
    /// (`count`, `sum`, `min`, `max`, `p50/p90/p95/p99`) plus the
    /// sparse bucket array, from which [`Histogram::from_manifest`]
    /// reconstructs the histogram exactly.
    pub fn to_manifest_record(&self, name: &str) -> String {
        let mut buckets = String::from("[");
        for (i, (idx, c)) in self.nonzero_buckets().iter().enumerate() {
            if i > 0 {
                buckets.push(',');
            }
            buckets.push_str(&format!("[{idx},{c}]"));
        }
        buckets.push(']');
        JsonObject::new()
            .str("type", "histogram")
            .str("name", name)
            .uint("count", self.count)
            .uint("sum", self.sum)
            .uint("min", self.min())
            .uint("max", self.max())
            .uint("p50", self.quantile(0.50))
            .uint("p90", self.quantile(0.90))
            .uint("p95", self.quantile(0.95))
            .uint("p99", self.quantile(0.99))
            .raw("buckets", &buckets)
            .finish()
    }

    /// Rebuild a histogram from a parsed manifest `histogram` record
    /// (the [`Value`] for one line). The bucket array is authoritative
    /// for counts; `sum`/`min`/`max` restore the exact extremes.
    pub fn from_manifest(v: &Value) -> Result<(String, Histogram), String> {
        if v.get("type").and_then(Value::as_str) != Some("histogram") {
            return Err("not a histogram record".to_string());
        }
        let name = v
            .get("name")
            .and_then(Value::as_str)
            .ok_or("histogram record missing 'name'")?
            .to_string();
        let mut h = Histogram::new();
        let buckets = match v.get("buckets") {
            Some(Value::Arr(items)) => items,
            _ => return Err(format!("histogram '{name}' missing 'buckets' array")),
        };
        for item in buckets {
            let pair = match item {
                Value::Arr(p) if p.len() == 2 => p,
                _ => return Err(format!("histogram '{name}': malformed bucket pair")),
            };
            let idx = pair[0]
                .as_u64()
                .ok_or_else(|| format!("histogram '{name}': bucket index not a u64"))?;
            let c = pair[1]
                .as_u64()
                .ok_or_else(|| format!("histogram '{name}': bucket count not a u64"))?;
            let idx = usize::try_from(idx)
                .ok()
                .filter(|&i| i < NUM_BUCKETS)
                .ok_or_else(|| format!("histogram '{name}': bucket index {idx} out of range"))?;
            h.counts[idx] += c;
            h.count += c;
        }
        let field = |k: &str| {
            v.get(k)
                .and_then(Value::as_u64)
                .ok_or_else(|| format!("histogram '{name}' missing u64 field '{k}'"))
        };
        if field("count")? != h.count {
            return Err(format!(
                "histogram '{name}': count field disagrees with bucket total"
            ));
        }
        h.sum = field("sum")?;
        h.max = field("max")?;
        h.min = if h.count == 0 {
            u64::MAX
        } else {
            field("min")?
        };
        Ok((name, h))
    }
}

/// The registry-resident histogram: identical layout, relaxed-atomic
/// counts so rayon workers observe without locking. Addition commutes,
/// so a post-join [`AtomicHistogram::snapshot`] is deterministic for a
/// deterministic set of observations regardless of thread interleaving.
pub struct AtomicHistogram {
    counts: Box<[AtomicU64; NUM_BUCKETS]>,
    count: AtomicU64,
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
}

impl Default for AtomicHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl AtomicHistogram {
    /// An empty atomic histogram.
    pub fn new() -> AtomicHistogram {
        AtomicHistogram {
            counts: Box::new([0u64; NUM_BUCKETS].map(AtomicU64::new)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
        }
    }

    /// Record one value from any thread.
    pub fn observe(&self, v: u64) {
        self.counts[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.min.fetch_min(v, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
    }

    /// Record a duration as saturating whole nanoseconds.
    pub fn observe_ns(&self, d: Duration) {
        self.observe(saturating_ns(d));
    }

    /// Fold an already-filled plain histogram in (worker-local results).
    pub(crate) fn merge_from(&self, other: &Histogram) {
        for (slot, &c) in self.counts.iter().zip(other.counts.iter()) {
            if c > 0 {
                slot.fetch_add(c, Ordering::Relaxed);
            }
        }
        self.count.fetch_add(other.count, Ordering::Relaxed);
        self.sum.fetch_add(other.sum, Ordering::Relaxed);
        self.min.fetch_min(other.min, Ordering::Relaxed);
        self.max.fetch_max(other.max, Ordering::Relaxed);
    }

    /// Materialize a plain [`Histogram`]. Call after parallel regions
    /// join for an exact snapshot.
    pub(crate) fn snapshot(&self) -> Histogram {
        let mut h = Histogram::new();
        for (slot, src) in h.counts.iter_mut().zip(self.counts.iter()) {
            *slot = src.load(Ordering::Relaxed);
        }
        h.count = self.count.load(Ordering::Relaxed);
        h.sum = self.sum.load(Ordering::Relaxed);
        h.min = self.min.load(Ordering::Relaxed);
        h.max = self.max.load(Ordering::Relaxed);
        h
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::parse;

    #[test]
    fn small_values_are_exact() {
        let mut h = Histogram::new();
        for v in 0..64u64 {
            h.observe(v);
        }
        assert_eq!(h.count(), 64);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 63);
        // Every unit bucket holds exactly its own value.
        assert_eq!(h.quantile(0.0), 0);
        assert_eq!(h.quantile(1.0), 63);
        assert_eq!(h.quantile(0.5), 31);
    }

    #[test]
    fn bucket_index_is_monotone_and_in_range() {
        let mut prev = 0usize;
        let mut v = 0u64;
        while v < u64::MAX / 2 {
            let idx = bucket_index(v);
            assert!(idx < NUM_BUCKETS, "v={v} idx={idx}");
            assert!(idx >= prev, "v={v}");
            assert!(
                bucket_upper_bound(idx) >= v,
                "v={v} idx={idx} ub={}",
                bucket_upper_bound(idx)
            );
            prev = idx;
            v = v * 2 + 1;
        }
        assert!(bucket_index(u64::MAX) < NUM_BUCKETS);
    }

    #[test]
    fn upper_bound_inverts_index() {
        for idx in 0..NUM_BUCKETS {
            let ub = bucket_upper_bound(idx);
            assert_eq!(bucket_index(ub), idx, "idx={idx} ub={ub}");
            if ub < u64::MAX {
                assert!(bucket_index(ub + 1) > idx, "idx={idx}");
            }
        }
    }

    #[test]
    fn quantile_error_is_bounded() {
        let mut h = Histogram::new();
        // 1..=10_000 µs in ns-scale values.
        for v in 1..=10_000u64 {
            h.observe(v * 1_000);
        }
        for (q, exact) in [(0.5, 5_000_000u64), (0.95, 9_500_000), (0.99, 9_900_000)] {
            let got = h.quantile(q);
            assert!(got >= exact, "q={q}: {got} < exact {exact}");
            let err = (got - exact) as f64 / exact as f64;
            assert!(err <= 1.0 / SUB_BUCKETS as f64, "q={q}: err {err}");
        }
        assert_eq!(h.quantile(1.0), 10_000_000);
    }

    #[test]
    fn merge_equals_single_stream() {
        let vals: Vec<u64> = (0..500u64).map(|i| i * i * 37 + 11).collect();
        let mut whole = Histogram::new();
        for &v in &vals {
            whole.observe(v);
        }
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        for (i, &v) in vals.iter().enumerate() {
            if i % 3 == 0 {
                a.observe(v)
            } else {
                b.observe(v)
            }
        }
        let mut merged = Histogram::new();
        merged.merge(&b);
        merged.merge(&a);
        assert_eq!(merged, whole);
        assert_eq!(merged.quantile(0.99), whole.quantile(0.99));
    }

    #[test]
    fn empty_histogram_is_well_defined() {
        let h = Histogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 0);
        assert_eq!(h.quantile(0.5), 0);
        assert_eq!(h.mean(), 0.0);
    }

    #[test]
    fn atomic_histogram_matches_plain_under_threads() {
        let ah = AtomicHistogram::new();
        std::thread::scope(|scope| {
            for t in 0..4u64 {
                let ah = &ah;
                scope.spawn(move || {
                    for i in 0..1000u64 {
                        ah.observe(t * 1_000_000 + i * 997);
                    }
                });
            }
        });
        let mut plain = Histogram::new();
        for t in 0..4u64 {
            for i in 0..1000u64 {
                plain.observe(t * 1_000_000 + i * 997);
            }
        }
        assert_eq!(ah.snapshot(), plain);
    }

    #[test]
    fn manifest_record_round_trips() {
        // u64::MAX survives the f64-based JSON parser by saturation;
        // general u64 exactness holds only below 2^53 (see hist_prop).
        let mut h = Histogram::new();
        for v in [0u64, 5, 63, 64, 1_000, 123_456_789, u64::MAX] {
            h.observe(v);
        }
        let line = h.to_manifest_record("serve/latency_ns");
        let v = parse(&line).expect("parses");
        let (name, back) = Histogram::from_manifest(&v).expect("decodes");
        assert_eq!(name, "serve/latency_ns");
        assert_eq!(back, h);
        for q in [0.0, 0.25, 0.5, 0.9, 0.99, 1.0] {
            assert_eq!(back.quantile(q), h.quantile(q));
        }
    }

    #[test]
    fn from_manifest_rejects_malformed_records() {
        let bad = [
            r#"{"type":"gauge","name":"x","value":1}"#,
            r#"{"type":"histogram","count":1,"sum":1,"min":1,"max":1,"buckets":[[1,1]]}"#,
            r#"{"type":"histogram","name":"x","count":1,"sum":1,"min":1,"max":1,"buckets":[[999999,1]]}"#,
            r#"{"type":"histogram","name":"x","count":2,"sum":1,"min":1,"max":1,"buckets":[[1,1]]}"#,
            r#"{"type":"histogram","name":"x","count":1,"sum":1,"min":1,"max":1,"buckets":[1]}"#,
        ];
        for text in bad {
            let v = parse(text).expect("valid json");
            assert!(Histogram::from_manifest(&v).is_err(), "{text}");
        }
    }

    #[test]
    fn saturating_ns_clamps() {
        assert_eq!(saturating_ns(Duration::from_nanos(1234)), 1234);
        assert_eq!(saturating_ns(Duration::MAX), u64::MAX);
    }

    #[test]
    fn quantile_handles_degenerate_q() {
        let mut h = Histogram::new();
        h.observe(100);
        assert_eq!(h.quantile(f64::NAN), 100);
        assert_eq!(h.quantile(-1.0), 100);
        assert_eq!(h.quantile(2.0), 100);
    }
}

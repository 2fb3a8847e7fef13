//! SimPoint-style representative-interval selection.
//!
//! The paper (§4.1) uses SimPoint [Sherwood et al., ASPLOS '02] to pick a
//! handful of 100M-instruction intervals whose weighted simulation
//! reproduces whole-program behaviour. The pipeline here is the same, scaled
//! down: split the trace into fixed-length intervals, collect a **basic
//! block vector** (BBV — execution frequency of each static block) per
//! interval, random-project the BBVs to a low dimension, cluster them with
//! k-means (k chosen by a BIC-style score), and return one representative
//! interval per cluster weighted by cluster population.

use crate::trace::{Checkpoint, Inst, TraceGenerator};
use crate::workload::Benchmark;
use linalg::dist::{child_seed, seeded_rng};
use rand::Rng;
use std::sync::Mutex;

/// Projected dimensionality of the BBVs (SimPoint uses 15).
pub(crate) const PROJECTED_DIMS: usize = 16;

/// One selected simulation point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimPoint {
    /// Interval index within the trace (interval `i` spans instructions
    /// `[i*len, (i+1)*len)`).
    pub interval: usize,
    /// Fraction of execution this point represents (cluster weight).
    pub weight: f64,
}

/// Result of the phase analysis.
#[derive(Debug, Clone)]
pub struct SimPointAnalysis {
    /// Selected representative intervals.
    pub points: Vec<SimPoint>,
    /// Cluster assignment of every interval.
    pub assignments: Vec<usize>,
    /// Chosen k.
    pub k: usize,
    /// Interval length in instructions.
    pub interval_len: u64,
}

/// A phase analysis plus what it takes to regenerate its representative
/// intervals without replaying the trace up to them: a generator over the
/// analysed trace's tables and its state at the start of each
/// representative.
pub(crate) struct Checkpointed {
    pub(crate) analysis: SimPointAnalysis,
    gen: TraceGenerator,
    /// One checkpoint per entry of `analysis.points`, in that order.
    starts: Vec<Checkpoint>,
}

impl Checkpointed {
    /// The instructions of every representative interval, in
    /// `analysis.points` order: interval `i` is instructions
    /// `[i*len, (i+1)*len)` of the trace. Each window regenerates from
    /// its own checkpoint, so they are filled in parallel. They are
    /// allocated on the calling thread, whose heap the sweep's other
    /// traces share: allocated on a worker, each would grow that
    /// worker's heap, and the process's peak memory with it.
    pub(crate) fn windows(&self) -> Vec<Vec<Inst>> {
        let len = self.analysis.interval_len as usize;
        let windows: Vec<Mutex<Vec<Inst>>> = self
            .starts
            .iter()
            .map(|_| Mutex::new(Vec::with_capacity(len)))
            .collect();
        telemetry::par_map(windows.len(), telemetry::default_workers(), |i| {
            let mut gen = self.gen.resume(&self.starts[i]);
            let mut window = windows[i].lock().expect("each window has one writer");
            window.extend((0..len).map(|_| gen.next_inst()));
        });
        windows
            .into_iter()
            .map(|w| w.into_inner().expect("each window has one writer"))
            .collect()
    }
}

/// Sign (±1) of the random projection of `block` onto `dim`, derived by
/// hashing so the projection matrix never materializes.
fn projection(salt: u64, block: u32, dim: usize) -> f64 {
    let h = child_seed(salt, (u64::from(block) << 5) | dim as u64);
    if h & 1 == 0 {
        1.0
    } else {
        -1.0
    }
}

/// Collect per-interval basic-block vectors from `gen`, already
/// random-projected to [`PROJECTED_DIMS`] dimensions and L1-normalized,
/// together with a checkpoint of `gen` at the start of every interval.
///
/// Each interval counts its blocks' occurrences, then projects each
/// distinct block once. Every term and partial sum is an integer of
/// magnitude at most `interval_len`, so the sums are exact in `f64` and
/// equal, bit for bit, to adding ±1 per instruction in trace order.
fn collect_bbvs(
    gen: &mut TraceGenerator,
    seed: u64,
    n_intervals: usize,
    interval_len: u64,
) -> (Vec<[f64; PROJECTED_DIMS]>, Vec<Checkpoint>) {
    let salt = child_seed(seed, 0x9b9b);
    let mut counts = vec![0u64; gen.block_count()];
    let mut touched: Vec<u32> = Vec::new();
    let mut bbvs = Vec::with_capacity(n_intervals);
    let mut starts = Vec::with_capacity(n_intervals);
    for _ in 0..n_intervals {
        starts.push(gen.checkpoint());
        for _ in 0..interval_len {
            let block = gen.next_inst().block;
            let c = &mut counts[block as usize];
            if *c == 0 {
                touched.push(block);
            }
            *c += 1;
        }
        let mut v = [0.0f64; PROJECTED_DIMS];
        for block in touched.drain(..) {
            let c = std::mem::take(&mut counts[block as usize]) as f64;
            for (d, slot) in v.iter_mut().enumerate() {
                *slot += c * projection(salt, block, d);
            }
        }
        // Normalize by interval length so vectors are comparable.
        for slot in &mut v {
            *slot /= interval_len as f64;
        }
        bbvs.push(v);
    }
    (bbvs, starts)
}

/// Squared Euclidean distance between projected BBVs.
fn dist2(a: &[f64; PROJECTED_DIMS], b: &[f64; PROJECTED_DIMS]) -> f64 {
    a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum()
}

/// Lloyd's k-means with k-means++ seeding. Returns (assignments, centroids,
/// within-cluster sum of squares).
pub(crate) fn kmeans(
    points: &[[f64; PROJECTED_DIMS]],
    k: usize,
    iters: usize,
    seed: u64,
) -> (Vec<usize>, Vec<[f64; PROJECTED_DIMS]>, f64) {
    assert!(
        k >= 1 && k <= points.len(),
        "kmeans: bad k={k} for {} points",
        points.len()
    );
    let mut rng = seeded_rng(seed);

    // k-means++ initialization.
    let mut centroids: Vec<[f64; PROJECTED_DIMS]> = Vec::with_capacity(k);
    centroids.push(points[rng.random_range(0..points.len())]);
    while centroids.len() < k {
        let d2: Vec<f64> = points
            .iter()
            .map(|p| {
                centroids
                    .iter()
                    .map(|c| dist2(p, c))
                    .fold(f64::INFINITY, f64::min)
            })
            .collect();
        let total: f64 = d2.iter().sum();
        if total <= 0.0 {
            // All points already coincide with centroids; duplicate one.
            centroids.push(points[rng.random_range(0..points.len())]);
            continue;
        }
        let mut t = rng.random::<f64>() * total;
        let mut chosen = points.len() - 1;
        for (i, &d) in d2.iter().enumerate() {
            t -= d;
            if t <= 0.0 {
                chosen = i;
                break;
            }
        }
        centroids.push(points[chosen]);
    }

    let mut assignments = vec![0usize; points.len()];
    let mut wss = f64::INFINITY;
    for _ in 0..iters {
        // Assign.
        let mut changed = false;
        let mut new_wss = 0.0;
        for (i, p) in points.iter().enumerate() {
            // Invariant: callers pass k >= 1, so `centroids` is never
            // empty; total_cmp keeps the assignment well-defined even if
            // a distance degenerates to NaN.
            let (best, bd) = centroids
                .iter()
                .enumerate()
                .map(|(j, c)| (j, dist2(p, c)))
                .min_by(|a, b| a.1.total_cmp(&b.1))
                .expect("kmeans: k >= 1 invariant");
            if assignments[i] != best {
                assignments[i] = best;
                changed = true;
            }
            new_wss += bd;
        }
        wss = new_wss;
        // Update.
        let mut sums = vec![[0.0f64; PROJECTED_DIMS]; k];
        let mut counts = vec![0usize; k];
        for (p, &a) in points.iter().zip(&assignments) {
            counts[a] += 1;
            for (s, &x) in sums[a].iter_mut().zip(p) {
                *s += x;
            }
        }
        for ((sum, &count), centroid) in sums.iter_mut().zip(&counts).zip(&mut centroids) {
            if count > 0 {
                for s in sum.iter_mut() {
                    *s /= count as f64;
                }
                *centroid = *sum;
            }
        }
        if !changed {
            break;
        }
    }
    (assignments, centroids, wss)
}

/// BIC-style score for a clustering (higher is better): spherical-Gaussian
/// log-likelihood minus a complexity penalty, following the SimPoint paper's
/// model-selection recipe.
pub(crate) fn bic_score(n: usize, k: usize, wss: f64) -> f64 {
    let n_f = n as f64;
    let d = PROJECTED_DIMS as f64;
    let variance = (wss / (n_f * d)).max(1e-12);
    let loglik = -0.5 * n_f * d * (variance.ln() + 1.0 + (2.0 * std::f64::consts::PI).ln());
    let params = k as f64 * (d + 1.0);
    loglik - 0.5 * params * n_f.ln()
}

/// Full SimPoint analysis: collect BBVs, sweep k in `1..=max_k`, keep the
/// best BIC, and return one representative interval per cluster.
pub fn analyze(
    benchmark: Benchmark,
    seed: u64,
    n_intervals: usize,
    interval_len: u64,
    max_k: usize,
) -> SimPointAnalysis {
    analyze_checkpointed(benchmark, seed, n_intervals, interval_len, max_k).analysis
}

/// [`analyze`], keeping the checkpoints its one pass over the trace took,
/// so the selected intervals can be regenerated on their own.
pub(crate) fn analyze_checkpointed(
    benchmark: Benchmark,
    seed: u64,
    n_intervals: usize,
    interval_len: u64,
    max_k: usize,
) -> Checkpointed {
    assert!(n_intervals >= 1, "need at least one interval");
    let _span = telemetry::span!(
        "simpoint",
        benchmark = benchmark.name(),
        intervals = n_intervals,
    );
    let mut gen = TraceGenerator::for_benchmark(benchmark, seed);
    let (bbvs, starts) = collect_bbvs(&mut gen, seed, n_intervals, interval_len);
    telemetry::counter_add("trace/insts_generated", n_intervals as u64 * interval_len);
    let max_k = max_k.min(n_intervals).max(1);

    type Clustering = (f64, usize, Vec<usize>, Vec<[f64; PROJECTED_DIMS]>);
    let mut best: Option<Clustering> = None;
    for k in 1..=max_k {
        let (assign, centroids, wss) = kmeans(&bbvs, k, 50, child_seed(seed, k as u64));
        let score = bic_score(n_intervals, k, wss);
        if best.as_ref().is_none_or(|(s, ..)| score > *s) {
            best = Some((score, k, assign, centroids));
        }
    }
    // Invariant: `max_k >= 1`, so the loop above ran at least once.
    let (_, k, assignments, centroids) = best.expect("max_k >= 1 invariant");

    // Representative per cluster: the member closest to the centroid,
    // weighted by cluster population.
    let mut points = Vec::with_capacity(k);
    #[allow(clippy::needless_range_loop)] // j is a cluster id, not an index walk
    for j in 0..k {
        let members: Vec<usize> = (0..n_intervals).filter(|&i| assignments[i] == j).collect();
        if members.is_empty() {
            continue;
        }
        let Some(&rep) = members.iter().min_by(|&&a, &&b| {
            dist2(&bbvs[a], &centroids[j]).total_cmp(&dist2(&bbvs[b], &centroids[j]))
        }) else {
            continue;
        };
        points.push(SimPoint {
            interval: rep,
            weight: members.len() as f64 / n_intervals as f64,
        });
    }
    points.sort_by_key(|p| p.interval);
    // Keep only the representatives' checkpoints (points are in interval
    // order, so this walk lines them up with `points`).
    let mut selected = points.iter().map(|p| p.interval).peekable();
    let starts = starts
        .into_iter()
        .enumerate()
        .filter_map(|(i, at)| selected.next_if_eq(&i).map(|_| at))
        .collect();
    Checkpointed {
        analysis: SimPointAnalysis {
            points,
            assignments,
            k,
            interval_len,
        },
        gen,
        starts,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cluster_points(
        centers: &[[f64; PROJECTED_DIMS]],
        per: usize,
        spread: f64,
        seed: u64,
    ) -> Vec<[f64; PROJECTED_DIMS]> {
        let mut rng = seeded_rng(seed);
        let mut out = Vec::new();
        for c in centers {
            for _ in 0..per {
                let mut p = *c;
                for x in &mut p {
                    *x += spread * (rng.random::<f64>() - 0.5);
                }
                out.push(p);
            }
        }
        out
    }

    /// The projection as it was first written: ±1 added per instruction,
    /// in trace order, from a fresh generator. The oracle for
    /// [`collect_bbvs`]'s per-block projection.
    fn bbvs_per_instruction(
        benchmark: Benchmark,
        seed: u64,
        n_intervals: usize,
        interval_len: u64,
    ) -> Vec<[f64; PROJECTED_DIMS]> {
        let mut gen = TraceGenerator::for_benchmark(benchmark, seed);
        let salt = child_seed(seed, 0x9b9b);
        (0..n_intervals)
            .map(|_| {
                let mut v = [0.0f64; PROJECTED_DIMS];
                for _ in 0..interval_len {
                    let block = gen.next_inst().block;
                    for (d, slot) in v.iter_mut().enumerate() {
                        *slot += projection(salt, block, d);
                    }
                }
                for slot in &mut v {
                    *slot /= interval_len as f64;
                }
                v
            })
            .collect()
    }

    #[test]
    fn per_block_projection_is_bitwise_the_per_instruction_one() {
        for (b, seed, n, len) in [
            (Benchmark::Gcc, 3, 6, 4_000),
            (Benchmark::Bzip2, 11, 5, 2_500),
            (Benchmark::Mcf, 0xC0FFEE, 3, 1),
            (Benchmark::Gzip, 5, 4, 7_001),
        ] {
            let mut gen = TraceGenerator::for_benchmark(b, seed);
            let (got, starts) = collect_bbvs(&mut gen, seed, n, len);
            let want = bbvs_per_instruction(b, seed, n, len);
            assert_eq!(starts.len(), n);
            assert_eq!(gen.index(), n as u64 * len);
            for (i, (g, w)) in got.iter().zip(&want).enumerate() {
                for d in 0..PROJECTED_DIMS {
                    assert_eq!(g[d].to_bits(), w[d].to_bits(), "{b:?} interval {i} dim {d}");
                }
            }
        }
    }

    #[test]
    fn kmeans_recovers_separated_clusters() {
        let mut c1 = [0.0; PROJECTED_DIMS];
        let mut c2 = [0.0; PROJECTED_DIMS];
        c1[0] = 10.0;
        c2[0] = -10.0;
        let pts = cluster_points(&[c1, c2], 20, 0.5, 1);
        let (assign, _, wss) = kmeans(&pts, 2, 50, 2);
        // All of the first 20 in one cluster, the rest in the other.
        let a0 = assign[0];
        assert!(assign[..20].iter().all(|&a| a == a0));
        assert!(assign[20..].iter().all(|&a| a != a0));
        assert!(wss < 20.0);
    }

    #[test]
    fn kmeans_k1_centroid_is_mean() {
        let pts = cluster_points(&[[1.0; PROJECTED_DIMS]], 10, 0.2, 3);
        let (assign, centroids, _) = kmeans(&pts, 1, 10, 4);
        assert!(assign.iter().all(|&a| a == 0));
        for d in 0..PROJECTED_DIMS {
            let m: f64 = pts.iter().map(|p| p[d]).sum::<f64>() / pts.len() as f64;
            assert!((centroids[0][d] - m).abs() < 1e-9);
        }
    }

    #[test]
    fn bic_penalizes_complexity_at_equal_fit() {
        let s1 = bic_score(100, 2, 50.0);
        let s2 = bic_score(100, 10, 50.0);
        assert!(s1 > s2, "same WSS, more clusters must score lower");
    }

    #[test]
    fn weights_sum_to_one() {
        let a = analyze(Benchmark::Gcc, 42, 12, 2000, 4);
        let total: f64 = a.points.iter().map(|p| p.weight).sum();
        assert!((total - 1.0).abs() < 1e-9);
        assert!(!a.points.is_empty());
        assert!(a.points.iter().all(|p| p.interval < 12));
    }

    #[test]
    fn phase_structure_is_detected() {
        // gcc's profile has 3 phases with disjoint code; with intervals
        // shorter than a phase segment, the analysis should find k >= 2.
        let a = analyze(Benchmark::Gcc, 7, 16, 5000, 5);
        assert!(a.k >= 2, "expected multiple phases, got k={}", a.k);
    }

    #[test]
    fn assignments_cover_all_intervals() {
        let a = analyze(Benchmark::Mesa, 9, 10, 2000, 3);
        assert_eq!(a.assignments.len(), 10);
        for &c in &a.assignments {
            assert!(c < a.k);
        }
    }
}

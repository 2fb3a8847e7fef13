//! Seeded sampling utilities.
//!
//! Every stochastic component of the reproduction (synthetic traces, SPEC
//! announcement generators, random design-space sampling, neural-network
//! weight initialization) draws through these helpers from an explicitly
//! seeded [`rand::rngs::StdRng`], so each experiment is replayable from a
//! single `u64` seed.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Create a deterministic RNG from a seed. Thin wrapper to keep the
/// `SeedableRng` import out of every call site.
pub fn seeded_rng(seed: u64) -> StdRng {
    StdRng::seed_from_u64(seed)
}

/// Derive an independent child seed from a parent seed and a stream label.
///
/// SplitMix64-style mixing: benchmarks, model seeds, and per-config trace
/// streams each get their own statistically independent stream without the
/// caller having to track RNG state.
pub fn child_seed(parent: u64, stream: u64) -> u64 {
    let mut z = parent.wrapping_add(0x9E37_79B9_7F4A_7C15u64.wrapping_mul(stream.wrapping_add(1)));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Standard normal sample (Box–Muller, the non-cached variant).
pub(crate) fn sample_std_normal(rng: &mut impl Rng) -> f64 {
    // Avoid ln(0) by sampling u1 from (0,1].
    let u1: f64 = 1.0 - rng.random::<f64>();
    let u2: f64 = rng.random::<f64>();
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

/// Normal sample with the given mean and standard deviation.
pub fn sample_normal(rng: &mut impl Rng, mean: f64, sd: f64) -> f64 {
    assert!(sd >= 0.0, "sample_normal: negative standard deviation");
    mean + sd * sample_std_normal(rng)
}

/// Zipf-distributed rank in `0..n` with exponent `s`.
///
/// Drives the memory-reference locality model: a small number of hot
/// addresses absorb most references, the defining property of cache-friendly
/// program behaviour.
///
/// A draw `u` is mapped to the first rank whose CDF entry is at least `u`.
/// A guide table over `n` equal-width buckets of `[0, 1]` narrows that
/// search to the ranks whose CDF falls in `u`'s bucket, so a draw costs a
/// couple of comparisons instead of a binary search over all `n` entries,
/// and returns exactly the rank the binary search would.
#[derive(Debug, Clone, PartialEq)]
pub struct Zipf {
    /// Cumulative probabilities, len = n.
    cdf: Vec<f64>,
    /// `guide[b]` is the first rank whose CDF entry falls in bucket `b` or
    /// later, for `b` in `0..=n`; every rank before it has a CDF entry in
    /// an earlier bucket. Len = n + 1.
    guide: Vec<u32>,
}

impl Zipf {
    /// Precompute the CDF for `n` ranks with exponent `s > 0`.
    pub fn new(n: usize, s: f64) -> Self {
        Self::family(&[n], s).remove(0)
    }

    /// One sampler per rank count in `ns`, all with exponent `s > 0`.
    ///
    /// The unnormalised CDF of `n` ranks is the first `n` running sums of
    /// `k^-s`, so one pass up to the largest `n` serves every table, each
    /// divided by its own total: each sampler is bit-identical to
    /// [`Zipf::new`] with its `n`, for one `powf` per rank of the largest
    /// table only.
    pub fn family(ns: &[usize], s: f64) -> Vec<Self> {
        assert!(ns.iter().all(|&n| n > 0), "Zipf: n must be positive");
        assert!(s > 0.0, "Zipf: exponent must be positive");
        let max = ns.iter().copied().max().unwrap_or(0);
        assert!(u32::try_from(max).is_ok(), "Zipf: n must fit in u32");
        let mut sums = Vec::with_capacity(max);
        let mut acc = 0.0;
        for k in 1..=max {
            acc += 1.0 / (k as f64).powf(s);
            sums.push(acc);
        }
        ns.iter()
            .map(|&n| {
                let total = sums[n - 1];
                Self::with_cdf(sums[..n].iter().map(|c| c / total).collect())
            })
            .collect()
    }

    /// Wrap a non-empty, non-decreasing CDF ending at 1 and build its
    /// guide table.
    fn with_cdf(cdf: Vec<f64>) -> Self {
        let n = cdf.len();
        let mut guide = Vec::with_capacity(n + 1);
        let mut rank = 0;
        for b in 0..=n {
            while rank < n && bucket(cdf[rank], n) < b {
                rank += 1;
            }
            guide.push(rank as u32);
        }
        Zipf { cdf, guide }
    }

    /// Draw a rank in `0..n` (rank 0 is the hottest).
    pub fn sample(&self, rng: &mut impl Rng) -> usize {
        self.rank_of(rng.random::<f64>())
    }

    /// The rank a uniform draw `u` in `[0, 1)` maps to.
    ///
    /// `bucket` is monotone, so every rank before `guide[b]` has a CDF
    /// entry below `u` and, when `guide[b + 1]` is a rank, its entry lies
    /// above `u`: the first entry `>= u` is in `guide[b]..=guide[b + 1]`.
    #[inline]
    fn rank_of(&self, u: f64) -> usize {
        let n = self.cdf.len();
        let b = bucket(u, n).min(n);
        let lo = self.guide[b] as usize;
        let hi = self.guide.get(b + 1).map_or(n, |&h| h as usize);
        // The CDF is finite by construction (normalised partial sums of
        // positive weights); total_cmp keeps the search total regardless.
        let i = lo + self.cdf[lo..hi].partition_point(|c| c.total_cmp(&u).is_lt());
        match self.cdf.get(i) {
            // `u` equals a CDF entry. Among equal entries the binary search
            // may land on any one, so ask it which (a tie has probability
            // about 2^-53 per entry).
            Some(c) if c.total_cmp(&u).is_eq() => {
                self.cdf.binary_search_by(|c| c.total_cmp(&u)).unwrap_or(i)
            }
            _ => i.min(n - 1),
        }
    }

    /// Number of ranks.
    pub fn len(&self) -> usize {
        self.cdf.len()
    }

    /// Whether the distribution has no ranks (never true by construction).
    pub fn is_empty(&self) -> bool {
        self.cdf.is_empty()
    }
}

/// Guide-table bucket of a probability `x` in `[0, 1]` over `n` buckets
/// (`n` only for `x = 1`). Monotone in `x`.
fn bucket(x: f64, n: usize) -> usize {
    (x * n as f64) as usize
}

/// Fisher–Yates shuffle of indices `0..n`, returning the permutation.
pub fn permutation(rng: &mut impl Rng, n: usize) -> Vec<usize> {
    let mut idx: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        let j = rng.random_range(0..=i);
        idx.swap(i, j);
    }
    idx
}

/// Sample `k` distinct indices from `0..n` (partial Fisher–Yates).
pub fn sample_indices(rng: &mut impl Rng, n: usize, k: usize) -> Vec<usize> {
    assert!(k <= n, "sample_indices: k={k} > n={n}");
    let mut idx: Vec<usize> = (0..n).collect();
    for i in 0..k {
        let j = rng.random_range(i..n);
        idx.swap(i, j);
    }
    idx.truncate(k);
    idx
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::{mean, std_dev};

    #[test]
    fn seeded_rng_is_deterministic() {
        let mut a = seeded_rng(42);
        let mut b = seeded_rng(42);
        for _ in 0..100 {
            assert_eq!(a.random::<u64>(), b.random::<u64>());
        }
    }

    #[test]
    fn child_seeds_differ_by_stream() {
        let s = 1234;
        let c1 = child_seed(s, 0);
        let c2 = child_seed(s, 1);
        assert_ne!(c1, c2);
        assert_eq!(c1, child_seed(s, 0));
    }

    #[test]
    fn normal_moments() {
        let mut rng = seeded_rng(7);
        let xs: Vec<f64> = (0..20_000)
            .map(|_| sample_normal(&mut rng, 3.0, 2.0))
            .collect();
        assert!((mean(&xs) - 3.0).abs() < 0.05);
        assert!((std_dev(&xs) - 2.0).abs() < 0.05);
    }

    /// A family's tables are bit for bit the CDFs of the original
    /// one-table-at-a-time construction, whatever the order of `ns`.
    #[test]
    fn zipf_family_matches_separate_tables_bitwise() {
        let reference = |n: usize, s: f64| {
            let mut cdf = Vec::with_capacity(n);
            let mut acc = 0.0;
            for k in 1..=n {
                acc += 1.0 / (k as f64).powf(s);
                cdf.push(acc);
            }
            cdf.iter().map(|c| (c / acc).to_bits()).collect::<Vec<_>>()
        };
        for s in [0.6, 0.95, 1.0, 1.3] {
            let ns = [700, 1, 4096, 5, 4096, 13_824];
            for (z, &n) in Zipf::family(&ns, s).iter().zip(&ns) {
                let bits: Vec<u64> = z.cdf.iter().map(|c| c.to_bits()).collect();
                assert!(bits == reference(n, s), "n={n} s={s}");
                assert_eq!(z, &Zipf::new(n, s));
            }
        }
    }

    #[test]
    fn zipf_rank0_is_hottest() {
        let mut rng = seeded_rng(10);
        let z = Zipf::new(100, 1.0);
        let mut counts = vec![0usize; 100];
        for _ in 0..50_000 {
            counts[z.sample(&mut rng)] += 1;
        }
        assert!(counts[0] > counts[10]);
        assert!(counts[0] > counts[99] * 5);
    }

    /// The binary search `Zipf::sample` ran before the guide table: the
    /// oracle the table must agree with on every draw.
    fn rank_by_binary_search(z: &Zipf, u: f64) -> usize {
        match z.cdf.binary_search_by(|c| c.total_cmp(&u)) {
            Ok(i) => i,
            Err(i) => i.min(z.cdf.len() - 1),
        }
    }

    /// `u` itself and, for every probed CDF entry, the entry and its two
    /// neighbouring floats: the draws where an off-by-one would show.
    fn probes(z: &Zipf, u: f64, stride: usize) -> Vec<f64> {
        let mut out = vec![u, 0.0, 1.0 - f64::EPSILON / 2.0];
        for i in (0..z.len()).step_by(stride.max(1)).chain([z.len() - 1]) {
            let c = z.cdf[i];
            out.extend([c.next_down(), c, c.next_up()]);
        }
        out.retain(|x| (0.0..1.0).contains(x));
        out
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(256))]

        #[test]
        fn zipf_guide_table_matches_binary_search(
            small in 1usize..9,
            large in 1usize..20_000,
            use_small in proptest::prelude::any::<bool>(),
            s in 0.05f64..6.0,
            u in 0.0f64..1.0,
        ) {
            let n = if use_small { small } else { large };
            let z = Zipf::new(n, s);
            for x in probes(&z, u, n / 97) {
                proptest::prop_assert_eq!(
                    z.rank_of(x),
                    rank_by_binary_search(&z, x),
                    "n={} s={} u={:e}", n, s, x
                );
            }
        }

        #[test]
        fn guide_table_matches_binary_search_on_tied_cdfs(
            weights in proptest::collection::vec(
                proptest::sample::select(vec![0.0, 0.0, 0.0, 0.25, 1.0, 3.0]),
                1..40,
            ),
            u in 0.0f64..1.0,
        ) {
            let mut weights = weights;
            weights.push(1.0);
            let z = tied(&weights);
            for x in probes(&z, u, 1) {
                proptest::prop_assert_eq!(
                    z.rank_of(x),
                    rank_by_binary_search(&z, x),
                    "weights={:?} u={:e}", weights, x
                );
            }
        }
    }

    /// A distribution over `weights` (some zero), whose CDF therefore has
    /// runs of exactly equal entries below 1.
    fn tied(weights: &[f64]) -> Zipf {
        let total: f64 = weights.iter().sum();
        let mut acc = 0.0;
        Zipf::with_cdf(
            weights
                .iter()
                .map(|w| {
                    acc += w;
                    acc / total
                })
                .collect(),
        )
    }

    #[test]
    fn zipf_guide_table_matches_binary_search_on_ties() {
        // Among equal entries the result is whichever one the binary
        // search lands on; the guide table must give the same one.
        for weights in [
            &[1.0, 0.0, 0.0, 0.0, 2.0][..],
            &[0.0, 0.0, 1.0],
            &[3.0, 0.0, 1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 4.0, 0.0, 2.0],
            &[1.0],
        ] {
            let z = tied(weights);
            for x in probes(&z, 0.5, 1) {
                assert_eq!(
                    z.rank_of(x),
                    rank_by_binary_search(&z, x),
                    "{weights:?} u={x:e}"
                );
            }
        }
    }

    #[test]
    fn zipf_samples_match_binary_search_draw_for_draw() {
        let z = Zipf::new(2_200, 0.95);
        let (mut a, mut b) = (seeded_rng(13), seeded_rng(13));
        for _ in 0..20_000 {
            assert_eq!(
                z.sample(&mut a),
                rank_by_binary_search(&z, b.random::<f64>())
            );
        }
    }

    #[test]
    fn permutation_is_bijection() {
        let mut rng = seeded_rng(11);
        let p = permutation(&mut rng, 200);
        let mut seen = [false; 200];
        for &i in &p {
            assert!(!seen[i]);
            seen[i] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn sample_indices_distinct_and_sized() {
        let mut rng = seeded_rng(12);
        let s = sample_indices(&mut rng, 1000, 10);
        assert_eq!(s.len(), 10);
        let mut sorted = s.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 10);
        assert!(sorted.iter().all(|&i| i < 1000));
    }
}

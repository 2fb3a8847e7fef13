//! Neural-network hot-loop cost: the batched matrix-form RProp gradient
//! and forward pass vs the per-sample scalar oracle, plus the linalg
//! kernels under each SIMD backend.
//!
//! The scalar path is selected through the same `PERFPREDICT_NN_SCALAR`
//! switch the equivalence tests use, so the two benchmarks run the exact
//! code paths that are proven bit-identical in `mlmodels::nn`'s tests.
//! The kernel benchmarks force the backend through `simd::with_backend`
//! — the same thread-local override the linalg bit-identity proptests
//! use — so `matmul_avx2` vs `matmul_scalar` is the measured cost of the
//! AVX2 kernels against the verbatim scalar oracle on identical inputs.
//! Before timing, equivalence is re-asserted on this benchmark's data
//! for both switches: batched-vs-scalar training and avx2-vs-scalar
//! kernels must be bit-identical or the bench aborts.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use linalg::Matrix;
use mlmodels::nn::{Mlp, TrainAlgo, TrainConfig};
use std::hint::black_box;
use std::time::Instant;

const ROWS: usize = 150;
const COLS: usize = 24;
const HIDDEN: [usize; 1] = [16];
const EPOCHS: usize = 30;

fn design() -> (Matrix, Vec<f64>) {
    let x = Matrix::from_fn(ROWS, COLS, |i, j| {
        (((i * 7 + j * 13 + 5) % 29) as f64) / 29.0
    });
    let y: Vec<f64> = (0..ROWS)
        .map(|i| 0.2 + 0.5 * x[(i, 0)] + 0.25 * x[(i, 3)] * x[(i, 9)] - 0.15 * x[(i, 17)])
        .collect();
    (x, y)
}

fn rprop_config() -> TrainConfig {
    TrainConfig {
        algo: TrainAlgo::Rprop,
        epochs: EPOCHS,
        seed: 7,
        ..TrainConfig::default()
    }
}

/// Run `f` with the scalar-oracle switch set, restoring it afterwards.
fn with_scalar_oracle<T>(f: impl FnOnce() -> T) -> T {
    std::env::set_var("PERFPREDICT_NN_SCALAR", "1");
    let out = f();
    std::env::remove_var("PERFPREDICT_NN_SCALAR");
    out
}

/// Train one net per path and assert bitwise-equal predictions, recording
/// one representative timing per path into telemetry counters.
fn assert_equivalence_and_record(x: &Matrix, y: &[f64]) {
    let cfg = rprop_config();
    let t0 = Instant::now();
    let mut batched = Mlp::new(COLS, &HIDDEN, cfg.seed);
    batched.try_train(x, y, &cfg).expect("batched training");
    let batched_ns = t0.elapsed().as_nanos() as u64;
    let (scalar, scalar_ns) = with_scalar_oracle(|| {
        let t1 = Instant::now();
        let mut net = Mlp::new(COLS, &HIDDEN, cfg.seed);
        net.try_train(x, y, &cfg).expect("scalar training");
        (net, t1.elapsed().as_nanos() as u64)
    });
    let pb = batched.try_predict(x).expect("batched predict");
    let ps = with_scalar_oracle(|| scalar.try_predict(x)).expect("scalar predict");
    for (a, b) in pb.iter().zip(&ps) {
        assert_eq!(a.to_bits(), b.to_bits(), "batched/scalar paths diverged");
    }
    telemetry::counter_add("bench/nn_rprop_batched_ns", batched_ns);
    telemetry::counter_add("bench/nn_rprop_scalar_ns", scalar_ns);
}

/// Assert the AVX2 kernels are bit-identical to the scalar oracle on
/// this benchmark's shapes, then return whether AVX2 is even available
/// (on non-x86 hosts the "avx2" benches silently measure scalar, so we
/// skip them instead of publishing a misleading number).
fn assert_kernel_equivalence(x: &Matrix, w: &Matrix, bias: &[f64]) -> bool {
    let simd_mm = simd::with_backend(simd::Backend::Avx2, || x.matmul_tn(x));
    let scalar_mm = simd::with_backend(simd::Backend::Scalar, || x.matmul_tn(x));
    for (a, b) in simd_mm.as_slice().iter().zip(scalar_mm.as_slice()) {
        assert_eq!(a.to_bits(), b.to_bits(), "matmul_tn kernels diverged");
    }
    let simd_aff = simd::with_backend(simd::Backend::Avx2, || x.affine_nt(w, bias));
    let scalar_aff = simd::with_backend(simd::Backend::Scalar, || x.affine_nt(w, bias));
    for (a, b) in simd_aff.as_slice().iter().zip(scalar_aff.as_slice()) {
        assert_eq!(a.to_bits(), b.to_bits(), "affine_nt kernels diverged");
    }
    simd::avx2_available()
}

fn bench_nn(c: &mut Criterion) {
    let (x, y) = design();
    assert_equivalence_and_record(&x, &y);
    let cfg = rprop_config();

    let mut group = c.benchmark_group("nn");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_millis(500));
    group.measurement_time(std::time::Duration::from_secs(2));
    group.bench_function(format!("rprop_{EPOCHS}ep_batched"), |b| {
        b.iter_batched(
            || Mlp::new(COLS, &HIDDEN, cfg.seed),
            |mut net| black_box(net.try_train(&x, &y, &cfg)),
            BatchSize::LargeInput,
        )
    });
    group.bench_function(format!("rprop_{EPOCHS}ep_scalar"), |b| {
        with_scalar_oracle(|| {
            b.iter_batched(
                || Mlp::new(COLS, &HIDDEN, cfg.seed),
                |mut net| black_box(net.try_train(&x, &y, &cfg)),
                BatchSize::LargeInput,
            )
        })
    });

    let mut trained = Mlp::new(COLS, &HIDDEN, cfg.seed);
    trained.try_train(&x, &y, &cfg).expect("training");
    group.bench_function("predict_batched", |b| {
        b.iter(|| black_box(trained.try_predict(&x)))
    });
    group.bench_function("predict_scalar", |b| {
        with_scalar_oracle(|| b.iter(|| black_box(trained.try_predict(&x))))
    });

    // Linalg kernel microbenches: the gradient-shaped `matmul_tn` and
    // the forward-pass `affine_nt` under each backend. The scalar rows
    // always run (they are the oracle everywhere); the avx2 rows run
    // only where the CPU has the instructions, so a missing
    // `kernel_*_avx2` entry in BENCH_nn.json means "non-x86 runner",
    // not "bench deleted".
    let w = Matrix::from_fn(HIDDEN[0], COLS, |i, j| {
        (((i * 11 + j * 3 + 1) % 17) as f64) / 17.0 - 0.5
    });
    let bias: Vec<f64> = (0..HIDDEN[0]).map(|o| 0.1 * o as f64 - 0.4).collect();
    let avx2 = assert_kernel_equivalence(&x, &w, &bias);
    group.bench_function("kernel_matmul_tn_scalar", |b| {
        simd::with_backend(simd::Backend::Scalar, || {
            b.iter(|| black_box(x.matmul_tn(&x)))
        })
    });
    group.bench_function("kernel_affine_nt_scalar", |b| {
        simd::with_backend(simd::Backend::Scalar, || {
            b.iter(|| black_box(x.affine_nt(&w, &bias)))
        })
    });
    if avx2 {
        group.bench_function("kernel_matmul_tn_avx2", |b| {
            simd::with_backend(simd::Backend::Avx2, || {
                b.iter(|| black_box(x.matmul_tn(&x)))
            })
        });
        group.bench_function("kernel_affine_nt_avx2", |b| {
            simd::with_backend(simd::Backend::Avx2, || {
                b.iter(|| black_box(x.affine_nt(&w, &bias)))
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_nn);
criterion_main!(benches);

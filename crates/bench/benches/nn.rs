//! Neural-network hot-loop cost: the batched matrix-form RProp training
//! loop and forward pass, plus the two linalg kernels they are built on.
//! `rprop_small_30ep` trains at the shape the sampled-DSE drivers fit
//! (a couple of dozen rows, about 300 weights), where the per-weight
//! iRProp− update rather than the matrix kernels dominates an epoch.
//!
//! The batched paths are pinned bit for bit to the per-sample reference
//! loops by `mlmodels::nn`'s unit tests, and every `linalg` kernel to a
//! naive reference loop by `crates/linalg/tests/kernel_prop.rs`; this
//! file only measures.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use linalg::Matrix;
use mlmodels::nn::{Mlp, TrainAlgo, TrainConfig};
use std::hint::black_box;

const ROWS: usize = 150;
const COLS: usize = 24;
const HIDDEN: [usize; 1] = [16];
const EPOCHS: usize = 30;
/// Rows and hidden units of the small case: 24 inputs into 12 hidden
/// units is 313 weights, trained on 23 rows.
const SMALL_ROWS: usize = 23;
const SMALL_HIDDEN: [usize; 1] = [12];

fn design(rows: usize) -> (Matrix, Vec<f64>) {
    let x = Matrix::from_fn(rows, COLS, |i, j| {
        (((i * 7 + j * 13 + 5) % 29) as f64) / 29.0
    });
    let y: Vec<f64> = (0..rows)
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

fn bench_nn(c: &mut Criterion) {
    let (x, y) = design(ROWS);
    let (x_small, y_small) = design(SMALL_ROWS);
    let cfg = rprop_config();

    let mut group = c.benchmark_group("nn");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_millis(500));
    group.measurement_time(std::time::Duration::from_secs(2));
    group.bench_function(format!("rprop_{EPOCHS}ep"), |b| {
        b.iter_batched(
            || Mlp::new(COLS, &HIDDEN, cfg.seed),
            |mut net| black_box(net.try_train(&x, &y, &cfg)),
            BatchSize::LargeInput,
        )
    });
    group.bench_function(format!("rprop_small_{EPOCHS}ep"), |b| {
        b.iter_batched(
            || Mlp::new(COLS, &SMALL_HIDDEN, cfg.seed),
            |mut net| black_box(net.try_train(&x_small, &y_small, &cfg)),
            BatchSize::LargeInput,
        )
    });

    let mut trained = Mlp::new(COLS, &HIDDEN, cfg.seed);
    trained.try_train(&x, &y, &cfg).expect("training");
    group.bench_function("predict", |b| b.iter(|| black_box(trained.try_predict(&x))));

    // Linalg kernel microbenches: the gradient-shaped `matmul_tn` and
    // the forward-pass `affine_nt`.
    let w = Matrix::from_fn(HIDDEN[0], COLS, |i, j| {
        (((i * 11 + j * 3 + 1) % 17) as f64) / 17.0 - 0.5
    });
    let bias: Vec<f64> = (0..HIDDEN[0]).map(|o| 0.1 * o as f64 - 0.4).collect();
    group.bench_function("kernel_matmul_tn", |b| {
        b.iter(|| black_box(x.matmul_tn(&x)))
    });
    group.bench_function("kernel_affine_nt", |b| {
        b.iter(|| black_box(x.affine_nt(&w, &bias)))
    });
    group.finish();
}

criterion_group!(benches, bench_nn);
criterion_main!(benches);

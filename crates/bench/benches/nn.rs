//! Neural-network hot-loop cost: the batched iRProp− training loop and
//! forward pass, plus two linalg kernels: `affine_nt`, which prediction
//! runs on, and the gradient-shaped `matmul_tn`.
//! `rprop_small_30ep` trains at the shape the sampled-DSE drivers fit
//! (a couple of dozen rows, about 300 weights), and `rprop_nne_30ep` at
//! NN-E's starting shape in perfbench's `train` workload (23 rows of 19
//! encoded inputs into 28 hidden units). At that shape an epoch of the
//! matrix-form trainer measured about 15 µs on a 2-vCPU x86-64 host:
//! libm `tanh` about 36 % of it, the forward product about 25 %, the
//! gradient products about 25 % and the per-weight iRProp− update about
//! 8 %. The input-major epoch more than halves the forward and dW
//! products, so its 644 `tanh` calls are now about half of an epoch.
//!
//! The training epoch is pinned bit for bit to the per-sample reference
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
/// NN-E's first starting topology for a 19-column design: 3·19/2 = 28
/// hidden units, trained on half of a 46-row sample.
const NNE_ROWS: usize = 23;
const NNE_COLS: usize = 19;
const NNE_HIDDEN: [usize; 1] = [28];

fn design(rows: usize, cols: usize) -> (Matrix, Vec<f64>) {
    let x = Matrix::from_fn(rows, cols, |i, j| {
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
    let (x, y) = design(ROWS, COLS);
    let (x_small, y_small) = design(SMALL_ROWS, COLS);
    let (x_nne, y_nne) = design(NNE_ROWS, NNE_COLS);
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
    group.bench_function(format!("rprop_nne_{EPOCHS}ep"), |b| {
        b.iter_batched(
            || Mlp::new(NNE_COLS, &NNE_HIDDEN, cfg.seed),
            |mut net| black_box(net.try_train(&x_nne, &y_nne, &cfg)),
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

//! Model-training cost per method — backs the paper's §3.1/§3.2 claims:
//! linear regression builds "on the order of milliseconds", NN-S "on the
//! order of seconds", and NN-E is "the slowest of all".

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use mlmodels::{try_train, ModelKind, Table};
use std::hint::black_box;

/// A 24-predictor, 150-row training table shaped like a 3 % design-space
/// sample.
fn sample_table() -> Table {
    let n = 150;
    let mut t = Table::new();
    for j in 0..23 {
        let col: Vec<f64> = (0..n)
            .map(|i| (((i * (j + 3) + j * 7) % 17) as f64) / 17.0)
            .collect();
        t.add_numeric(format!("p{j}"), col);
    }
    t.add_categorical(
        "bpred",
        (0..n).map(|i| (i % 4) as u32).collect(),
        vec![
            "Perfect".into(),
            "Bimodal".into(),
            "2-level".into(),
            "Combination".into(),
        ],
    );
    let y: Vec<f64> = (0..n)
        .map(|i| {
            let a = ((i % 17) as f64) / 17.0;
            let b = ((i % 4) as f64) / 4.0;
            1e6 * (1.0 + 0.5 * a + 0.2 * b + 0.1 * a * b)
        })
        .collect();
    t.set_target(y);
    t
}

fn bench_training(c: &mut Criterion) {
    let table = sample_table();
    let mut group = c.benchmark_group("train");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_secs(1));
    group.measurement_time(std::time::Duration::from_secs(6));
    for kind in [
        ModelKind::LrE,
        ModelKind::LrB,
        ModelKind::LrS,
        ModelKind::NnS,
        ModelKind::NnQ,
        ModelKind::NnE,
    ] {
        group.bench_function(kind.abbrev(), |b| {
            b.iter_batched(
                || table.clone(),
                |t| black_box(try_train(kind, &t, 7)),
                BatchSize::LargeInput,
            )
        });
    }
    group.finish();
}

criterion_group!(benches, bench_training);
criterion_main!(benches);

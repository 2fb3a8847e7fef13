//! Prediction latency: how fast a trained surrogate evaluates design
//! points. This is the paper's payoff — a model evaluates the whole
//! 4608-point space in microseconds-per-point instead of simulator-hours.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use mlmodels::{try_train, ModelKind, Table};
use std::hint::black_box;

fn tables() -> (Table, Table) {
    let make = |n: usize, off: usize| {
        let mut t = Table::new();
        for j in 0..12 {
            let col: Vec<f64> = (0..n)
                .map(|i| (((i + off) * (j + 2) % 29) as f64) / 29.0)
                .collect();
            t.add_numeric(format!("p{j}"), col);
        }
        let y: Vec<f64> = (0..n)
            .map(|i| 100.0 + ((i + off) % 13) as f64 + 0.5 * ((i + off) % 7) as f64)
            .collect();
        t.set_target(y);
        t
    };
    (make(120, 0), make(1000, 7))
}

fn bench_prediction(c: &mut Criterion) {
    let (train_t, eval_t) = tables();
    let mut group = c.benchmark_group("predict_1000_rows");
    group.warm_up_time(std::time::Duration::from_secs(1));
    group.measurement_time(std::time::Duration::from_secs(4));
    group.throughput(Throughput::Elements(eval_t.n_rows() as u64));
    for kind in [ModelKind::LrE, ModelKind::NnS, ModelKind::NnE] {
        let model = try_train(kind, &train_t, 3).expect("training");
        group.bench_function(kind.abbrev(), |b| {
            b.iter(|| black_box(model.try_predict(&eval_t)))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_prediction);
criterion_main!(benches);

//! Golden bits for every neural-network driver: each of NN-Q/D/M/P/E/S
//! trains on fixed data under a fixed seed, and the FNV-1a hash of its
//! prediction bits and of its `.ppmodel` bytes must equal the recorded
//! constant. The constants pin the whole driver stack — topology search,
//! pruning surgery, restarts, every optimizer epoch and the artifact
//! encoding — so a refactor of the training engine that changes a
//! single low bit anywhere fails here, not in a downstream accuracy.

use mlmodels::{try_train, ModelArtifact, ModelKind, Table};

const ROWS: usize = 40;

/// FNV-1a 64 over a byte stream.
fn fnv1a64(bytes: impl IntoIterator<Item = u8>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Five numeric predictors (one irrelevant, so the prune drivers have
/// an input worth silencing), one flag and a three-level categorical;
/// the target is nonlinear in the first two.
fn table() -> Table {
    let col = |mul: usize, modulo: usize| -> Vec<f64> {
        (0..ROWS)
            .map(|i| ((i * mul + 3) % modulo) as f64 / modulo as f64)
            .collect()
    };
    let a = col(7, 23);
    let b = col(11, 19);
    let c = col(5, 17);
    let d = col(13, 29);
    let noise = col(17, 31);
    let flag: Vec<bool> = (0..ROWS).map(|i| i % 3 == 0).collect();
    let codes: Vec<u32> = (0..ROWS).map(|i| ((i * 5) % 3) as u32).collect();
    let y: Vec<f64> = (0..ROWS)
        .map(|i| {
            2.0 + (3.0 * a[i]).sin() * b[i]
                + 0.6 * c[i] * c[i]
                + 0.3 * d[i]
                + if flag[i] { 0.25 } else { 0.0 }
                + 0.1 * f64::from(codes[i])
        })
        .collect();
    let mut t = Table::new();
    t.add_numeric("a", a)
        .add_numeric("b", b)
        .add_numeric("c", c)
        .add_numeric("d", d)
        .add_numeric("noise", noise)
        .add_flag("f", flag)
        .add_categorical("k", codes, vec!["x".into(), "y".into(), "z".into()])
        .set_target(y);
    t
}

/// (prediction-bits hash, `.ppmodel`-bytes hash) of one driver.
fn golden(kind: ModelKind, seed: u64) -> (u64, u64) {
    let t = table();
    let model = try_train(kind, &t, seed).expect("train");
    let preds = model.try_predict(&t).expect("predict");
    let pred_hash = fnv1a64(preds.iter().flat_map(|p| p.to_bits().to_le_bytes()));
    let bytes = ModelArtifact::from_training(model, &t)
        .to_bytes()
        .expect("serialize");
    (pred_hash, fnv1a64(bytes))
}

#[test]
fn every_nn_driver_reproduces_its_golden_bits() {
    let expected: [(ModelKind, u64, u64); 6] = [
        (ModelKind::NnQ, 0x38f2603c93c7f3ea, 0x27674ee8b25e40dd),
        (ModelKind::NnD, 0x47eb8bc8004b73a5, 0xf7811ecc344fdb8c),
        (ModelKind::NnM, 0xe266e3332c703cbd, 0x55f829f10bc77a52),
        (ModelKind::NnP, 0xc2e5394a845bd22c, 0xa4b26cc5685c1e1b),
        (ModelKind::NnE, 0x931f7422d2462013, 0xc127d721e024bb63),
        (ModelKind::NnS, 0x03770b8f1eb350fe, 0x7588a47b1bef7fd4),
    ];
    let mut mismatches = Vec::new();
    for (kind, want_pred, want_bytes) in expected {
        let (pred, bytes) = golden(kind, 5);
        if (pred, bytes) != (want_pred, want_bytes) {
            mismatches.push(format!(
                "{}: got (0x{pred:016x}, 0x{bytes:016x})",
                kind.abbrev()
            ));
        }
    }
    assert!(
        mismatches.is_empty(),
        "golden bits changed for {mismatches:?}"
    );
}

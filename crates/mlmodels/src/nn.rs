//! Feed-forward neural network (multilayer perceptron) with
//! backpropagation, the engine behind the six NN training methods.
//!
//! Architecture follows §3.2: an input layer (the scaled predictors), one
//! or more hidden layers of tanh units, and a linear output unit predicting
//! the 0–1-scaled response. Training is stochastic gradient descent with
//! momentum — "backpropagation procedure, variation of steepest descent" —
//! with optional learning-rate decay and weight decay. The prune-based
//! drivers in [`crate::methods`] need structural surgery (removing hidden
//! units, silencing inputs), which the network supports directly.

use fault::{Error, Result};
use linalg::dist::{sample_normal, seeded_rng};
use linalg::Matrix;
use rand::rngs::StdRng;
use serde::{Deserialize, Serialize};

/// Training algorithm.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum TrainAlgo {
    /// Online stochastic gradient descent with momentum — classic
    /// backpropagation, the NN-S "constant learning rate" mode.
    Sgd,
    /// Full-batch iRProp− (resilient backpropagation): per-weight adaptive
    /// step sizes driven by gradient signs. Far more robust than SGD on
    /// the small training samples the sampled-DSE study produces, and the
    /// kind of batch trainer Clementine-era tools shipped.
    Rprop,
}

/// Gradient-descent hyperparameters.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct TrainConfig {
    /// Which optimizer drives the weight updates.
    pub algo: TrainAlgo,
    /// Initial learning rate (SGD) / initial step size (RProp).
    pub learning_rate: f64,
    /// Momentum coefficient (SGD only).
    pub momentum: f64,
    /// Passes over the training data (SGD) or batch iterations (RProp).
    pub epochs: usize,
    /// Multiplicative learning-rate decay per epoch (1.0 = constant rate,
    /// the NN-S behaviour; SGD only).
    pub lr_decay: f64,
    /// L2 weight decay.
    pub weight_decay: f64,
    /// Shuffling / init seed.
    pub seed: u64,
}

impl Default for TrainConfig {
    fn default() -> Self {
        TrainConfig {
            algo: TrainAlgo::Rprop,
            learning_rate: 0.15,
            momentum: 0.9,
            epochs: 200,
            lr_decay: 0.995,
            weight_decay: 1e-5,
            seed: 1,
        }
    }
}

/// One dense layer: `w[out][in]` weights plus biases.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub(crate) struct Layer {
    pub(crate) w: Vec<Vec<f64>>,
    pub(crate) b: Vec<f64>,
    pub(crate) vw: Vec<Vec<f64>>,
    pub(crate) vb: Vec<f64>,
}

impl Layer {
    fn new(inputs: usize, outputs: usize, rng: &mut StdRng) -> Self {
        // Xavier-style init scaled by fan-in.
        let sd = (1.0 / inputs.max(1) as f64).sqrt();
        Layer {
            w: (0..outputs)
                .map(|_| (0..inputs).map(|_| sample_normal(rng, 0.0, sd)).collect())
                .collect(),
            b: vec![0.0; outputs],
            vw: vec![vec![0.0; inputs]; outputs],
            vb: vec![0.0; outputs],
        }
    }

    fn outputs(&self) -> usize {
        self.w.len()
    }

    fn inputs(&self) -> usize {
        self.w.first().map_or(0, |r| r.len())
    }
}

/// The multilayer perceptron. Hidden activations are tanh; the single
/// output is linear over the 0–1-scaled target.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Mlp {
    pub(crate) layers: Vec<Layer>,
    /// Inputs silenced by pruning (weights zeroed and frozen).
    pub(crate) dead_inputs: Vec<bool>,
}

impl Mlp {
    /// Build a network: `inputs -> hidden[0] -> … -> hidden[k] -> 1`.
    pub fn new(inputs: usize, hidden: &[usize], seed: u64) -> Self {
        assert!(inputs > 0, "Mlp needs at least one input");
        assert!(
            hidden.iter().all(|&h| h > 0),
            "hidden layers must be non-empty"
        );
        let mut rng = seeded_rng(seed);
        let mut sizes = vec![inputs];
        sizes.extend_from_slice(hidden);
        sizes.push(1);
        let layers = sizes
            .windows(2)
            .map(|w| Layer::new(w[0], w[1], &mut rng))
            .collect();
        Mlp {
            layers,
            dead_inputs: vec![false; inputs],
        }
    }

    /// Number of inputs.
    pub fn inputs(&self) -> usize {
        self.layers[0].inputs()
    }

    /// Hidden-layer sizes.
    pub(crate) fn hidden_sizes(&self) -> Vec<usize> {
        self.layers[..self.layers.len() - 1]
            .iter()
            .map(|l| l.outputs())
            .collect()
    }

    /// Total trainable weights (for complexity reporting).
    pub fn n_weights(&self) -> usize {
        self.layers
            .iter()
            .map(|l| l.outputs() * (l.inputs() + 1))
            .sum()
    }

    /// Whether an input has been pruned.
    pub fn input_is_dead(&self, i: usize) -> bool {
        self.dead_inputs[i]
    }

    /// The dead-input mask, aligned with the input features.
    pub fn dead_inputs(&self) -> &[bool] {
        &self.dead_inputs
    }

    /// Layer count (hidden layers plus the output layer).
    pub fn n_layers(&self) -> usize {
        self.layers.len()
    }

    /// Weight matrix of layer `l` as an `outputs x inputs` [`Matrix`] —
    /// the shape [`Matrix::affine_nt`] consumes. Compiled serve
    /// predictors prebuild these once instead of per forward pass.
    pub fn layer_weights(&self, l: usize) -> Matrix {
        Matrix::from_rows(&self.layers[l].w)
    }

    /// Bias vector of layer `l`.
    pub fn layer_bias(&self, l: usize) -> &[f64] {
        &self.layers[l].b
    }

    /// Forward pass with a width check; narrow or wide rows are a typed
    /// `InvalidInput` instead of a panic (or, worse, a silently truncated
    /// zip in release builds).
    pub fn try_forward(&self, x: &[f64]) -> Result<f64> {
        if x.len() != self.inputs() {
            return Err(Error::invalid(format!(
                "network expects {} input features, got {}",
                self.inputs(),
                x.len()
            )));
        }
        Ok(self.forward(x))
    }

    /// Unchecked core of [`Self::try_forward`]: the row width must
    /// match [`Self::inputs`].
    pub(crate) fn forward(&self, x: &[f64]) -> f64 {
        debug_assert_eq!(x.len(), self.inputs());
        let mut act: Vec<f64> = x.to_vec();
        for (d, a) in self.dead_inputs.iter().zip(act.iter_mut()) {
            if *d {
                *a = 0.0;
            }
        }
        for (li, layer) in self.layers.iter().enumerate() {
            let last = li == self.layers.len() - 1;
            let mut next = Vec::with_capacity(layer.outputs());
            for (ws, &b) in layer.w.iter().zip(&layer.b) {
                let mut s = b;
                for (w, a) in ws.iter().zip(&act) {
                    s += w * a;
                }
                next.push(if last { s } else { s.tanh() });
            }
            act = next;
        }
        act[0]
    }

    /// Batched forward pass over every row at once. Returns the per-layer
    /// activation matrices: `acts[0]` is the (dead-input-masked) input,
    /// `acts[l]` the output of layer `l-1`, `acts.last()` the `n x 1`
    /// prediction column. Each element accumulates bias-first in input
    /// order via [`Matrix::affine_nt`], so every value is bit-identical to
    /// the scalar [`Mlp::forward`] on the same row.
    fn forward_batch(&self, x: &Matrix) -> Vec<Matrix> {
        debug_assert_eq!(x.cols(), self.inputs());
        let mut a0 = x.clone();
        if self.dead_inputs.iter().any(|&d| d) {
            for i in 0..a0.rows() {
                for (v, &d) in a0.row_mut(i).iter_mut().zip(&self.dead_inputs) {
                    if d {
                        *v = 0.0;
                    }
                }
            }
        }
        let mut acts: Vec<Matrix> = Vec::with_capacity(self.layers.len() + 1);
        acts.push(a0);
        for (li, layer) in self.layers.iter().enumerate() {
            let last = li == self.layers.len() - 1;
            let w = Matrix::from_rows(&layer.w);
            let mut z = acts[li].affine_nt(&w, &layer.b);
            if !last {
                for v in z.as_mut_slice() {
                    *v = v.tanh();
                }
            }
            acts.push(z);
        }
        acts
    }

    /// Predict every row of a design matrix, rejecting width mismatches
    /// with a typed error instead of panicking (batched kernels,
    /// bit-identical to the per-row [`Self::forward`]).
    pub fn try_predict(&self, x: &Matrix) -> Result<Vec<f64>> {
        if x.cols() != self.inputs() {
            return Err(Error::invalid(format!(
                "network expects {} input features, got a design matrix with {} columns",
                self.inputs(),
                x.cols()
            )));
        }
        Ok(self.predict_rows(x))
    }

    /// Unchecked core of [`Self::try_predict`]: `x` must have
    /// [`Self::inputs`] columns.
    fn predict_rows(&self, x: &Matrix) -> Vec<f64> {
        let out = self.forward_batch(x).pop().expect("output layer");
        out.as_slice().to_vec()
    }

    /// Root-mean-square error on (x, y); `x` must have [`Self::inputs`]
    /// columns.
    pub(crate) fn rmse(&self, x: &Matrix, y: &[f64]) -> f64 {
        let n = x.rows();
        assert_eq!(n, y.len(), "rmse: design/target length mismatch");
        let se: f64 = self
            .predict_rows(x)
            .iter()
            .zip(y)
            .map(|(p, t)| {
                let e = p - t;
                e * e
            })
            .sum();
        (se / n as f64).sqrt()
    }

    /// One epoch of online backpropagation over a permutation of the rows.
    fn epoch(&mut self, x: &Matrix, y: &[f64], lr: f64, cfg: &TrainConfig, rng: &mut StdRng) {
        let order = linalg::dist::permutation(rng, x.rows());
        // Reusable activation buffers: acts[l] = output of layer l-1
        // (acts[0] = input).
        for &row in &order {
            let input: Vec<f64> = x
                .row(row)
                .iter()
                .zip(&self.dead_inputs)
                .map(|(&v, &d)| if d { 0.0 } else { v })
                .collect();
            // Forward, keeping activations.
            let mut acts: Vec<Vec<f64>> = Vec::with_capacity(self.layers.len() + 1);
            acts.push(input);
            for (li, layer) in self.layers.iter().enumerate() {
                let last = li == self.layers.len() - 1;
                let prev = &acts[li];
                let mut out = Vec::with_capacity(layer.outputs());
                for (ws, &b) in layer.w.iter().zip(&layer.b) {
                    let mut s = b;
                    for (w, a) in ws.iter().zip(prev) {
                        s += w * a;
                    }
                    out.push(if last { s } else { s.tanh() });
                }
                acts.push(out);
            }

            // Backward.
            let y_hat = acts.last().expect("output layer")[0];
            // dE/dout for squared error (linear output), clipped so one
            // bad sample cannot detonate the weights.
            let mut delta: Vec<f64> = vec![(y_hat - y[row]).clamp(-4.0, 4.0)];
            for li in (0..self.layers.len()).rev() {
                let prev_act_owned;
                let prev_act: &[f64] = {
                    prev_act_owned = acts[li].clone();
                    &prev_act_owned
                };
                // Compute delta for the previous layer before mutating.
                let mut prev_delta = vec![0.0; self.layers[li].inputs()];
                {
                    let layer = &self.layers[li];
                    for (o, &d) in delta.iter().enumerate() {
                        for (pd, &w) in prev_delta.iter_mut().zip(&layer.w[o]) {
                            *pd += d * w;
                        }
                    }
                    if li > 0 {
                        // tanh' = 1 - a².
                        for (pd, &a) in prev_delta.iter_mut().zip(prev_act) {
                            *pd *= 1.0 - a * a;
                        }
                    }
                }
                // Gradient step with momentum.
                let layer = &mut self.layers[li];
                for (o, &d) in delta.iter().enumerate() {
                    #[allow(clippy::needless_range_loop)] // j indexes w, vw, prev_act, dead_inputs
                    for j in 0..layer.w[o].len() {
                        if li == 0 && self.dead_inputs[j] {
                            continue;
                        }
                        let g =
                            (d * prev_act[j] + cfg.weight_decay * layer.w[o][j]).clamp(-8.0, 8.0);
                        layer.vw[o][j] = cfg.momentum * layer.vw[o][j] - lr * g;
                        layer.w[o][j] += layer.vw[o][j];
                    }
                    layer.vb[o] = cfg.momentum * layer.vb[o] - lr * d;
                    layer.b[o] += layer.vb[o];
                }
                delta = prev_delta;
            }
        }
    }

    /// Accumulate the full-batch squared-error gradient. Returns
    /// per-layer (dW, db) in the same shapes as the weights.
    ///
    /// Matrix form: one batched forward, then per layer a
    /// `deltaᵀ·activations` product ([`Matrix::matmul_tn`]) for dW, a
    /// column sum for db, and a `delta·W` product for the upstream delta.
    /// Every kernel accumulates in row-ascending order — exactly the
    /// order the per-sample reference loop in the tests adds its
    /// contributions — so the two match bit for bit.
    fn batch_gradient(&self, x: &Matrix, y: &[f64]) -> Vec<(Vec<Vec<f64>>, Vec<f64>)> {
        let n = x.rows() as f64;
        let acts = self.forward_batch(x);
        let y_hat = acts.last().expect("output layer");
        let mut delta = Matrix::from_fn(x.rows(), 1, |i, _| (y_hat[(i, 0)] - y[i]) / n);
        let mut grads: Vec<(Vec<Vec<f64>>, Vec<f64>)> = self
            .layers
            .iter()
            .map(|_| (Vec::new(), Vec::new()))
            .collect();
        for li in (0..self.layers.len()).rev() {
            let layer = &self.layers[li];
            let prev = &acts[li];
            let dw = delta.matmul_tn(prev);
            let db: Vec<f64> = (0..layer.outputs())
                .map(|o| {
                    let mut s = 0.0;
                    for i in 0..delta.rows() {
                        s += delta[(i, o)];
                    }
                    s
                })
                .collect();
            grads[li] = (
                (0..layer.outputs()).map(|o| dw.row(o).to_vec()).collect(),
                db,
            );
            if li > 0 {
                let w = Matrix::from_rows(&layer.w);
                let mut pd = delta.matmul(&w);
                for i in 0..pd.rows() {
                    // tanh' = 1 - a².
                    for (v, &a) in pd.row_mut(i).iter_mut().zip(prev.row(i)) {
                        *v *= 1.0 - a * a;
                    }
                }
                delta = pd;
            }
        }
        grads
    }

    /// Per-sample scalar gradient accumulation — the historical hot loop,
    /// kept verbatim as the reference the batched path is tested against.
    #[cfg(test)]
    fn batch_gradient_scalar(&self, x: &Matrix, y: &[f64]) -> Vec<(Vec<Vec<f64>>, Vec<f64>)> {
        let mut grads: Vec<(Vec<Vec<f64>>, Vec<f64>)> = self
            .layers
            .iter()
            .map(|l| {
                (
                    vec![vec![0.0; l.inputs()]; l.outputs()],
                    vec![0.0; l.outputs()],
                )
            })
            .collect();
        let n = x.rows() as f64;
        #[allow(clippy::needless_range_loop)] // row indexes both x and y
        for row in 0..x.rows() {
            let input: Vec<f64> = x
                .row(row)
                .iter()
                .zip(&self.dead_inputs)
                .map(|(&v, &d)| if d { 0.0 } else { v })
                .collect();
            let mut acts: Vec<Vec<f64>> = Vec::with_capacity(self.layers.len() + 1);
            acts.push(input);
            for (li, layer) in self.layers.iter().enumerate() {
                let last = li == self.layers.len() - 1;
                let prev = &acts[li];
                let mut out = Vec::with_capacity(layer.outputs());
                for (ws, &b) in layer.w.iter().zip(&layer.b) {
                    let mut sum = b;
                    for (w, a) in ws.iter().zip(prev) {
                        sum += w * a;
                    }
                    out.push(if last { sum } else { sum.tanh() });
                }
                acts.push(out);
            }
            let y_hat = acts.last().expect("output layer")[0];
            let mut delta: Vec<f64> = vec![(y_hat - y[row]) / n];
            for li in (0..self.layers.len()).rev() {
                let prev_act = &acts[li];
                let layer = &self.layers[li];
                let mut prev_delta = vec![0.0; layer.inputs()];
                for (o, &d) in delta.iter().enumerate() {
                    for (j, pd) in prev_delta.iter_mut().enumerate() {
                        *pd += d * layer.w[o][j];
                    }
                    for (j, &a) in prev_act.iter().enumerate() {
                        grads[li].0[o][j] += d * a;
                    }
                    grads[li].1[o] += d;
                }
                if li > 0 {
                    for (pd, &a) in prev_delta.iter_mut().zip(prev_act) {
                        *pd *= 1.0 - a * a;
                    }
                }
                delta = prev_delta;
            }
        }
        grads
    }

    /// iRProp− training loop: per-weight step sizes grow (×1.2) while the
    /// gradient keeps its sign and shrink (×0.5) when it flips.
    fn train_rprop(&mut self, x: &Matrix, y: &[f64], cfg: &TrainConfig) {
        const ETA_PLUS: f64 = 1.2;
        const ETA_MINUS: f64 = 0.5;
        const STEP_MAX: f64 = 1.0;
        const STEP_MIN: f64 = 1e-9;
        let init = cfg.learning_rate.clamp(1e-4, 0.5);
        let mut steps: Vec<(Vec<Vec<f64>>, Vec<f64>)> = self
            .layers
            .iter()
            .map(|l| {
                (
                    vec![vec![init; l.inputs()]; l.outputs()],
                    vec![init; l.outputs()],
                )
            })
            .collect();
        let mut prev: Vec<(Vec<Vec<f64>>, Vec<f64>)> = self
            .layers
            .iter()
            .map(|l| {
                (
                    vec![vec![0.0; l.inputs()]; l.outputs()],
                    vec![0.0; l.outputs()],
                )
            })
            .collect();
        let trace = telemetry::enabled();
        for e in 0..cfg.epochs {
            if trace {
                telemetry::counter_add("train/epochs", 1);
                if e % 100 == 99 {
                    let loss = self.rmse(x, y);
                    telemetry::point!("train/epoch_loss", epoch = e + 1, loss = loss);
                }
            }
            let t_epoch = trace.then(std::time::Instant::now);
            let mut grads = self.batch_gradient(x, y);
            // Weight decay folds into the gradient.
            if cfg.weight_decay > 0.0 {
                for (li, layer) in self.layers.iter().enumerate() {
                    for o in 0..layer.outputs() {
                        for j in 0..layer.inputs() {
                            grads[li].0[o][j] += cfg.weight_decay * layer.w[o][j];
                        }
                    }
                }
            }
            for (li, layer) in self.layers.iter_mut().enumerate() {
                for o in 0..layer.outputs() {
                    for j in 0..layer.w[o].len() {
                        if li == 0 && self.dead_inputs[j] {
                            continue;
                        }
                        let g = grads[li].0[o][j];
                        let pg = prev[li].0[o][j];
                        let step = &mut steps[li].0[o][j];
                        if pg * g > 0.0 {
                            *step = (*step * ETA_PLUS).min(STEP_MAX);
                        } else if pg * g < 0.0 {
                            *step = (*step * ETA_MINUS).max(STEP_MIN);
                            prev[li].0[o][j] = 0.0;
                            continue; // iRProp−: skip update after sign flip
                        }
                        layer.w[o][j] -= g.signum() * *step;
                        prev[li].0[o][j] = g;
                    }
                    let g = grads[li].1[o];
                    let pg = prev[li].1[o];
                    let step = &mut steps[li].1[o];
                    if pg * g > 0.0 {
                        *step = (*step * ETA_PLUS).min(STEP_MAX);
                    } else if pg * g < 0.0 {
                        *step = (*step * ETA_MINUS).max(STEP_MIN);
                        prev[li].1[o] = 0.0;
                        continue;
                    }
                    layer.b[o] -= g.signum() * *step;
                    prev[li].1[o] = g;
                }
            }
            if let Some(t) = t_epoch {
                telemetry::hist_observe_ns("train/epoch_ns", t.elapsed());
            }
        }
    }

    /// Train with the configured algorithm and divergence guards.
    /// Returns the final training RMSE.
    ///
    /// Non-finite inputs or targets are rejected up front with
    /// [`Error::DegenerateData`] — they would otherwise poison every
    /// weight on the first update. If training leaves the finite domain,
    /// the network re-initializes with reseeded weights and retries (SGD
    /// additionally quarters its learning rate each time); every retry is
    /// recorded with a `train/retry` telemetry point. When the retry
    /// budget is exhausted the final non-finite loss is reported as
    /// [`Error::Diverged`].
    pub fn try_train(&mut self, x: &Matrix, y: &[f64], cfg: &TrainConfig) -> Result<f64> {
        if x.rows() != y.len() {
            return Err(Error::degenerate(format!(
                "design/target mismatch: {} rows vs {} targets",
                x.rows(),
                y.len()
            )));
        }
        if x.cols() != self.inputs() {
            return Err(Error::degenerate(format!(
                "input width mismatch: {} columns for a {}-input network",
                x.cols(),
                self.inputs()
            )));
        }
        if x.rows() == 0 {
            return Err(Error::degenerate("no training rows"));
        }
        for i in 0..x.rows() {
            if x.row(i).iter().any(|v| !v.is_finite()) {
                return Err(Error::degenerate(format!(
                    "training row {i} contains a non-finite value"
                )));
            }
        }
        if let Some(i) = y.iter().position(|v| !v.is_finite()) {
            return Err(Error::degenerate(format!(
                "training target {i} is non-finite"
            )));
        }

        let hidden = self.hidden_sizes();
        let dead: Vec<usize> = (0..self.inputs())
            .filter(|&i| self.dead_inputs[i])
            .collect();
        let trace = telemetry::enabled();

        // Divergence is not only NaN/Inf: saturated activations can bound
        // the gradients while the output weights blow up, leaving a
        // finite loss that is orders of magnitude beyond the target scale.
        let y_scale = y.iter().fold(0.0f64, |a, &v| a.max(v.abs())).max(1.0);
        let diverged = |rmse: f64| !rmse.is_finite() || rmse > 1e6 * y_scale;

        if cfg.algo == TrainAlgo::Rprop {
            // RProp's sign-based steps rarely diverge, but a pathological
            // initialization still can; reseed and retry a bounded number
            // of times before reporting divergence.
            const ATTEMPTS: usize = 3;
            for attempt in 0..ATTEMPTS {
                if attempt > 0 {
                    *self = Mlp::new(
                        x.cols(),
                        &hidden,
                        linalg::dist::child_seed(cfg.seed, 200 + attempt as u64),
                    );
                    for &d in &dead {
                        self.prune_input(d);
                    }
                }
                self.train_rprop(x, y, cfg);
                let rmse = self.rmse(x, y);
                if !diverged(rmse) {
                    return Ok(rmse);
                }
                telemetry::point!(
                    "train/retry",
                    algo = "rprop",
                    attempt = attempt + 1,
                    loss = rmse
                );
            }
            return Err(Error::Diverged {
                epoch: cfg.epochs * ATTEMPTS,
                loss: self.rmse(x, y),
            });
        }

        const ATTEMPTS: usize = 4;
        let mut lr0 = cfg.learning_rate;
        for attempt in 0..ATTEMPTS {
            let mut rng = seeded_rng(linalg::dist::child_seed(cfg.seed, attempt as u64));
            let mut lr = lr0;
            for e in 0..cfg.epochs {
                let t_epoch = trace.then(std::time::Instant::now);
                self.epoch(x, y, lr, cfg, &mut rng);
                lr *= cfg.lr_decay;
                if let Some(t) = t_epoch {
                    telemetry::hist_observe_ns("train/epoch_ns", t.elapsed());
                }
                if trace {
                    telemetry::counter_add("train/epochs", 1);
                    // Loss curve sampled every 100 epochs — each RMSE is a
                    // full forward pass, too costly to log per epoch.
                    if e % 100 == 99 {
                        let loss = self.rmse(x, y);
                        telemetry::point!("train/epoch_loss", epoch = e + 1, loss = loss);
                    }
                }
            }
            let rmse = self.rmse(x, y);
            if !diverged(rmse) {
                return Ok(rmse);
            }
            telemetry::point!(
                "train/retry",
                algo = "sgd",
                attempt = attempt + 1,
                loss = rmse
            );
            // Diverged: rebuild and slow down.
            *self = Mlp::new(
                x.cols(),
                &hidden,
                linalg::dist::child_seed(cfg.seed, 100 + attempt as u64),
            );
            for &d in &dead {
                self.prune_input(d);
            }
            lr0 *= 0.25;
        }
        Err(Error::Diverged {
            epoch: cfg.epochs * ATTEMPTS,
            loss: self.rmse(x, y),
        })
    }

    /// Magnitude of a hidden unit: sum of |outgoing weights| (pruning
    /// heuristic — a unit nothing listens to contributes nothing).
    pub(crate) fn hidden_unit_magnitude(&self, layer: usize, unit: usize) -> f64 {
        self.layers[layer + 1]
            .w
            .iter()
            .map(|row| row[unit].abs())
            .sum()
    }

    /// Remove one hidden unit (its row in `layer`, its column downstream).
    pub(crate) fn prune_hidden_unit(&mut self, layer: usize, unit: usize) {
        assert!(
            layer < self.layers.len() - 1,
            "cannot prune the output layer"
        );
        assert!(self.layers[layer].outputs() > 1, "layer would become empty");
        let l = &mut self.layers[layer];
        l.w.remove(unit);
        l.b.remove(unit);
        l.vw.remove(unit);
        l.vb.remove(unit);
        let next = &mut self.layers[layer + 1];
        for row in next.w.iter_mut() {
            row.remove(unit);
        }
        for row in next.vw.iter_mut() {
            row.remove(unit);
        }
    }

    /// Total |weight| fanning out of an input (input-importance heuristic).
    pub(crate) fn input_magnitude(&self, input: usize) -> f64 {
        if self.dead_inputs[input] {
            return 0.0;
        }
        self.layers[0].w.iter().map(|row| row[input].abs()).sum()
    }

    /// Silence an input: zero and freeze its weights.
    pub fn prune_input(&mut self, input: usize) {
        self.dead_inputs[input] = true;
        for row in self.layers[0].w.iter_mut() {
            row[input] = 0.0;
        }
        for row in self.layers[0].vw.iter_mut() {
            row[input] = 0.0;
        }
    }

    /// Count of live inputs.
    pub fn live_inputs(&self) -> usize {
        self.dead_inputs.iter().filter(|&&d| !d).count()
    }
}

/// Convenience: fresh random generator usable by callers that add noise to
/// seeds per restart.
pub(crate) fn restart_seed(base: u64, attempt: u64) -> u64 {
    linalg::dist::child_seed(base, attempt)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Nonlinear target: y = 0.5 + 0.3 sin(2π x0) + 0.2 x1² on [0,1].
    fn nonlinear_data(n: usize) -> (Matrix, Vec<f64>) {
        let rows: Vec<Vec<f64>> = (0..n)
            .map(|i| {
                let a = (i % 37) as f64 / 37.0;
                let b = ((i * 11) % 23) as f64 / 23.0;
                vec![a, b]
            })
            .collect();
        let y = rows
            .iter()
            .map(|r| 0.5 + 0.3 * (2.0 * std::f64::consts::PI * r[0]).sin() + 0.2 * r[1] * r[1])
            .collect();
        (Matrix::from_rows(&rows), y)
    }

    #[test]
    fn learns_linear_function() {
        let rows: Vec<Vec<f64>> = (0..60)
            .map(|i| vec![(i % 10) as f64 / 10.0, (i % 7) as f64 / 7.0])
            .collect();
        let y: Vec<f64> = rows.iter().map(|r| 0.2 + 0.5 * r[0] - 0.3 * r[1]).collect();
        let x = Matrix::from_rows(&rows);
        let mut net = Mlp::new(2, &[4], 7);
        let rmse = net
            .try_train(
                &x,
                &y,
                &TrainConfig {
                    epochs: 300,
                    ..Default::default()
                },
            )
            .expect("train");
        assert!(rmse < 0.02, "rmse {rmse}");
    }

    /// Regression (predict-path edge cases): a width mismatch used to
    /// panic in debug and silently truncate the zip in release; both
    /// are now a typed `InvalidInput` with expected-vs-got widths.
    #[test]
    fn width_mismatch_is_typed_invalid_input_not_panic() {
        let net = Mlp::new(4, &[3], 1);
        let e = net
            .try_forward(&[0.1, 0.2, 0.3])
            .expect_err("row too narrow");
        assert_eq!(e.kind(), "invalid");
        let msg = e.to_string();
        assert!(
            msg.contains("expects 4") && msg.contains("got 3"),
            "expected-vs-got widths in: {msg}"
        );
        let narrow = Matrix::from_rows(&[vec![0.1, 0.2, 0.3]]);
        let e = net.try_predict(&narrow).expect_err("matrix too narrow");
        assert_eq!(e.kind(), "invalid");
        // Exact-width inputs still predict, identically via both surfaces.
        let xs = [0.1, 0.2, 0.3, 0.4];
        let ok = net.try_forward(&xs).expect("full-width row");
        assert_eq!(ok.to_bits(), net.forward(&xs).to_bits());
    }

    #[test]
    fn learns_nonlinear_function_better_with_more_units() {
        let (x, y) = nonlinear_data(120);
        let mut small = Mlp::new(2, &[1], 3);
        let mut big = Mlp::new(2, &[12], 3);
        let cfg = TrainConfig {
            epochs: 400,
            ..Default::default()
        };
        let rmse_small = small.try_train(&x, &y, &cfg).expect("train");
        let rmse_big = big.try_train(&x, &y, &cfg).expect("train");
        assert!(
            rmse_big < rmse_small,
            "12 hidden ({rmse_big}) should beat 1 hidden ({rmse_small})"
        );
        assert!(rmse_big < 0.05, "big net rmse {rmse_big}");
    }

    #[test]
    fn training_is_deterministic_per_seed() {
        let (x, y) = nonlinear_data(60);
        let cfg = TrainConfig {
            epochs: 50,
            ..Default::default()
        };
        let mut a = Mlp::new(2, &[6], 9);
        let mut b = Mlp::new(2, &[6], 9);
        let ra = a.try_train(&x, &y, &cfg).expect("train");
        let rb = b.try_train(&x, &y, &cfg).expect("train");
        assert_eq!(ra, rb);
        assert_eq!(a.forward(&[0.3, 0.7]), b.forward(&[0.3, 0.7]));
    }

    #[test]
    fn prune_hidden_unit_shrinks_topology() {
        let mut net = Mlp::new(3, &[5], 11);
        assert_eq!(net.hidden_sizes(), vec![5]);
        net.prune_hidden_unit(0, 2);
        assert_eq!(net.hidden_sizes(), vec![4]);
        // Forward still works.
        let _ = net.forward(&[0.1, 0.2, 0.3]);
    }

    #[test]
    fn pruned_input_is_ignored() {
        let (x, y) = nonlinear_data(60);
        let mut net = Mlp::new(2, &[6], 13);
        net.try_train(
            &x,
            &y,
            &TrainConfig {
                epochs: 100,
                ..Default::default()
            },
        )
        .expect("train");
        net.prune_input(1);
        let p1 = net.forward(&[0.4, 0.0]);
        let p2 = net.forward(&[0.4, 0.9]);
        assert_eq!(p1, p2, "dead input must not affect the output");
        assert_eq!(net.live_inputs(), 1);
        assert_eq!(net.input_magnitude(1), 0.0);
    }

    #[test]
    fn dead_input_stays_dead_through_training() {
        let (x, y) = nonlinear_data(60);
        let mut net = Mlp::new(2, &[6], 17);
        net.prune_input(0);
        net.try_train(
            &x,
            &y,
            &TrainConfig {
                epochs: 50,
                ..Default::default()
            },
        )
        .expect("train");
        let p1 = net.forward(&[0.0, 0.5]);
        let p2 = net.forward(&[1.0, 0.5]);
        assert_eq!(p1, p2);
    }

    #[test]
    fn try_train_rejects_non_finite_data() {
        let (x, y) = nonlinear_data(20);
        let mut bad_y = y.clone();
        bad_y[5] = f64::NAN;
        let mut net = Mlp::new(2, &[4], 3);
        let cfg = TrainConfig {
            epochs: 10,
            ..Default::default()
        };
        assert!(matches!(
            net.try_train(&x, &bad_y, &cfg),
            Err(fault::Error::DegenerateData { .. })
        ));
        let mut bad_rows: Vec<Vec<f64>> = (0..x.rows()).map(|i| x.row(i).to_vec()).collect();
        bad_rows[2][1] = f64::INFINITY;
        let bad_x = Matrix::from_rows(&bad_rows);
        assert!(matches!(
            net.try_train(&bad_x, &y, &cfg),
            Err(fault::Error::DegenerateData { .. })
        ));
        // The guard must fire before any weight update corrupts the net.
        assert!(net.forward(&[0.3, 0.3]).is_finite());
    }

    #[test]
    fn batched_gradient_matches_scalar_oracle_bitwise() {
        let (x, y) = nonlinear_data(90);
        for hidden in [vec![6], vec![8, 4]] {
            let mut net = Mlp::new(2, &hidden, 21);
            net.prune_input(1); // exercise the dead-input mask too
            let fast = net.batch_gradient(&x, &y);
            let slow = net.batch_gradient_scalar(&x, &y);
            assert_eq!(fast.len(), slow.len());
            for (li, ((fw, fb), (sw, sb))) in fast.iter().zip(&slow).enumerate() {
                for (o, (fr, sr)) in fw.iter().zip(sw).enumerate() {
                    for (j, (a, b)) in fr.iter().zip(sr).enumerate() {
                        assert!(a.to_bits() == b.to_bits(), "dW[{li}][{o}][{j}]: {a} vs {b}");
                    }
                }
                for (o, (a, b)) in fb.iter().zip(sb).enumerate() {
                    assert!(a.to_bits() == b.to_bits(), "db[{li}][{o}]: {a} vs {b}");
                }
            }
        }
    }

    #[test]
    fn batched_predict_matches_scalar_forward_bitwise() {
        let (x, y) = nonlinear_data(70);
        let mut net = Mlp::new(2, &[7, 3], 31);
        net.try_train(
            &x,
            &y,
            &TrainConfig {
                epochs: 40,
                ..Default::default()
            },
        )
        .expect("train");
        let batched = net.try_predict(&x).expect("predict");
        for (i, &p) in batched.iter().enumerate() {
            let s = net.forward(x.row(i));
            assert!(p.to_bits() == s.to_bits(), "row {i}: {p} vs {s}");
        }
        assert_eq!(
            net.try_predict(&Matrix::zeros(0, 2)).expect("empty design"),
            Vec::<f64>::new()
        );
    }

    #[test]
    fn n_weights_counts_structure() {
        let net = Mlp::new(4, &[3], 1);
        // (4+1)*3 + (3+1)*1 = 19.
        assert_eq!(net.n_weights(), 19);
    }

    #[test]
    fn two_hidden_layers_work() {
        let (x, y) = nonlinear_data(100);
        let mut net = Mlp::new(2, &[8, 4], 5);
        let rmse = net
            .try_train(
                &x,
                &y,
                &TrainConfig {
                    epochs: 300,
                    ..Default::default()
                },
            )
            .expect("train");
        assert!(rmse < 0.08, "deep rmse {rmse}");
        assert_eq!(net.hidden_sizes(), vec![8, 4]);
    }
}

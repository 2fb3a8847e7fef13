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
use std::borrow::Cow;

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

/// One dense layer: a row-major `outputs x inputs` weight matrix (the
/// shape [`Matrix::affine_nt`] consumes) plus one bias per output.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub(crate) struct Layer {
    pub(crate) w: Matrix,
    pub(crate) b: Vec<f64>,
}

impl Layer {
    fn new(inputs: usize, outputs: usize, rng: &mut StdRng) -> Self {
        // Xavier-style init scaled by fan-in.
        let sd = (1.0 / inputs.max(1) as f64).sqrt();
        Layer {
            w: Matrix::from_fn(outputs, inputs, |_, _| sample_normal(rng, 0.0, sd)),
            b: vec![0.0; outputs],
        }
    }

    pub(crate) fn outputs(&self) -> usize {
        self.w.rows()
    }

    fn inputs(&self) -> usize {
        self.w.cols()
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

    /// Weight matrix of layer `l`, `outputs x inputs` — the shape
    /// [`Matrix::affine_nt`] consumes.
    pub fn layer_weights(&self, l: usize) -> &Matrix {
        &self.layers[l].w
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
            for (o, &b) in layer.b.iter().enumerate() {
                let mut s = b;
                for (w, a) in layer.w.row(o).iter().zip(&act) {
                    s += w * a;
                }
                next.push(if last { s } else { s.tanh() });
            }
            act = next;
        }
        act[0]
    }

    /// `x` with the dead inputs' columns zeroed: the network's view of a
    /// design. Borrowed unchanged when no input is dead.
    fn masked<'x>(&self, x: &'x Matrix) -> Cow<'x, Matrix> {
        if !self.dead_inputs.iter().any(|&d| d) {
            return Cow::Borrowed(x);
        }
        let mut a0 = x.clone();
        for i in 0..a0.rows() {
            for (v, &d) in a0.row_mut(i).iter_mut().zip(&self.dead_inputs) {
                if d {
                    *v = 0.0;
                }
            }
        }
        Cow::Owned(a0)
    }

    /// Batched forward pass over every row of an already [masked](Self::masked)
    /// design `a0`. Returns each layer's output: `outs[l]` is the output
    /// of layer `l`, `outs.last()` the `n x 1` prediction column. Each
    /// element accumulates bias-first in input order via
    /// [`Matrix::affine_nt`], so every value is bit-identical to the
    /// scalar [`Mlp::forward`] on the same row.
    fn forward_batch(&self, a0: &Matrix) -> Vec<Matrix> {
        debug_assert_eq!(a0.cols(), self.inputs());
        let mut outs: Vec<Matrix> = Vec::with_capacity(self.layers.len());
        for (li, layer) in self.layers.iter().enumerate() {
            let prev = if li == 0 { a0 } else { &outs[li - 1] };
            let mut z = prev.affine_nt(&layer.w, &layer.b);
            if li + 1 < self.layers.len() {
                for v in z.as_mut_slice() {
                    *v = v.tanh();
                }
            }
            outs.push(z);
        }
        outs
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
        Ok(self.predict_masked(&self.masked(x)))
    }

    /// Predictions for an already masked design `a0`.
    fn predict_masked(&self, a0: &Matrix) -> Vec<f64> {
        let out = self.forward_batch(a0).pop().expect("output layer");
        out.as_slice().to_vec()
    }

    /// Root-mean-square error on (x, y); `x` must have [`Self::inputs`]
    /// columns.
    pub(crate) fn rmse(&self, x: &Matrix, y: &[f64]) -> f64 {
        self.rmse_masked(&self.masked(x), y)
    }

    /// [`Self::rmse`] over an already masked design `a0`.
    fn rmse_masked(&self, a0: &Matrix, y: &[f64]) -> f64 {
        let n = a0.rows();
        assert_eq!(n, y.len(), "rmse: design/target length mismatch");
        let se: f64 = self
            .predict_masked(a0)
            .iter()
            .zip(y)
            .map(|(p, t)| {
                let e = p - t;
                e * e
            })
            .sum();
        (se / n as f64).sqrt()
    }

    /// One epoch of online backpropagation over a permutation of the
    /// rows of the workspace's masked design, with the momentum
    /// velocities and per-row activation buffers held in `ws`.
    fn epoch(
        &mut self,
        ws: &mut Workspace<'_>,
        y: &[f64],
        lr: f64,
        cfg: &TrainConfig,
        rng: &mut StdRng,
    ) {
        let order = linalg::dist::permutation(rng, ws.x.rows());
        let n_layers = self.layers.len();
        for &row in &order {
            let input = ws.x.row(row);
            // Forward, keeping activations.
            for (li, layer) in self.layers.iter().enumerate() {
                let last = li == n_layers - 1;
                let (done, rest) = ws.acts.split_at_mut(li);
                let prev: &[f64] = if li == 0 { input } else { &done[li - 1] };
                let out = &mut rest[0];
                out.clear();
                for (o, &b) in layer.b.iter().enumerate() {
                    let mut s = b;
                    for (w, a) in layer.w.row(o).iter().zip(prev) {
                        s += w * a;
                    }
                    out.push(if last { s } else { s.tanh() });
                }
            }

            // Backward.
            let y_hat = ws.acts[n_layers - 1][0];
            // dE/dout for squared error (linear output), clipped so one
            // bad sample cannot detonate the weights.
            ws.delta.clear();
            ws.delta.push((y_hat - y[row]).clamp(-4.0, 4.0));
            for li in (0..n_layers).rev() {
                let prev_act: &[f64] = if li == 0 { input } else { &ws.acts[li - 1] };
                let layer = &mut self.layers[li];
                let inputs = layer.inputs();
                // Compute delta for the previous layer before mutating.
                if li > 0 {
                    ws.prev_delta.clear();
                    ws.prev_delta.resize(inputs, 0.0);
                    for (o, &d) in ws.delta.iter().enumerate() {
                        for (pd, &w) in ws.prev_delta.iter_mut().zip(layer.w.row(o)) {
                            *pd += d * w;
                        }
                    }
                    // tanh' = 1 - a².
                    for (pd, &a) in ws.prev_delta.iter_mut().zip(prev_act) {
                        *pd *= 1.0 - a * a;
                    }
                }
                // Gradient step with momentum.
                let state = &mut ws.layers[li];
                let (vw, vb) = state.velocity.split_at_mut(layer.w.as_slice().len());
                for (o, &d) in ws.delta.iter().enumerate() {
                    let span = o * inputs..(o + 1) * inputs;
                    for (((w, v), &a), &live) in layer
                        .w
                        .row_mut(o)
                        .iter_mut()
                        .zip(&mut vw[span.clone()])
                        .zip(prev_act)
                        .zip(&state.live[span])
                    {
                        if live {
                            let g = (d * a + cfg.weight_decay * *w).clamp(-8.0, 8.0);
                            *v = cfg.momentum * *v - lr * g;
                            *w += *v;
                        }
                    }
                    vb[o] = cfg.momentum * vb[o] - lr * d;
                    layer.b[o] += vb[o];
                }
                std::mem::swap(&mut ws.delta, &mut ws.prev_delta);
            }
        }
    }

    /// Full-batch squared-error gradient over an already masked design
    /// `a0`: per layer, `(dW, db)` in the shapes of the weights and
    /// biases.
    ///
    /// Matrix form: one batched forward, then per layer a
    /// `deltaᵀ·activations` product ([`Matrix::matmul_tn`]) for dW, a
    /// column sum for db, and a `delta·W` product for the upstream delta.
    /// Every kernel accumulates in row-ascending order — exactly the
    /// order the per-sample reference loop in the tests adds its
    /// contributions — so the two match bit for bit.
    fn batch_gradient(&self, a0: &Matrix, y: &[f64]) -> Vec<(Matrix, Vec<f64>)> {
        let n = a0.rows() as f64;
        let outs = self.forward_batch(a0);
        let y_hat = outs.last().expect("output layer");
        let mut delta = Matrix::from_fn(a0.rows(), 1, |i, _| (y_hat[(i, 0)] - y[i]) / n);
        let mut grads: Vec<(Matrix, Vec<f64>)> = Vec::with_capacity(self.layers.len());
        for li in (0..self.layers.len()).rev() {
            let layer = &self.layers[li];
            let prev = if li == 0 { a0 } else { &outs[li - 1] };
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
            grads.push((dw, db));
            if li > 0 {
                let mut pd = delta.matmul(&layer.w);
                for i in 0..pd.rows() {
                    // tanh' = 1 - a².
                    for (v, &a) in pd.row_mut(i).iter_mut().zip(prev.row(i)) {
                        *v *= 1.0 - a * a;
                    }
                }
                delta = pd;
            }
        }
        grads.reverse();
        grads
    }

    /// Per-sample scalar gradient accumulation — the historical hot loop,
    /// kept as the reference the batched path is tested against.
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
                for (o, &b) in layer.b.iter().enumerate() {
                    let mut sum = b;
                    for (w, a) in layer.w.row(o).iter().zip(prev) {
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
                        *pd += d * layer.w[(o, j)];
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

    /// The branchy iRProp− loop the fused [`irprop_update`] replaced:
    /// fresh nested state per call, decay folded into the gradients
    /// first, then a `continue` on dead inputs and on sign flips.
    #[cfg(test)]
    fn train_rprop_branchy(&mut self, ws: &mut Workspace<'_>, y: &[f64], cfg: &TrainConfig) {
        let x: &Matrix = &ws.x;
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
        for _ in 0..cfg.epochs {
            let mut grads = self.batch_gradient(x, y);
            // Weight decay folds into the gradient.
            if cfg.weight_decay > 0.0 {
                for (li, layer) in self.layers.iter().enumerate() {
                    for o in 0..layer.outputs() {
                        for j in 0..layer.inputs() {
                            grads[li].0[(o, j)] += cfg.weight_decay * layer.w[(o, j)];
                        }
                    }
                }
            }
            for (li, layer) in self.layers.iter_mut().enumerate() {
                for o in 0..layer.outputs() {
                    for j in 0..layer.inputs() {
                        if li == 0 && self.dead_inputs[j] {
                            continue;
                        }
                        let g = grads[li].0[(o, j)];
                        let pg = prev[li].0[o][j];
                        let step = &mut steps[li].0[o][j];
                        if pg * g > 0.0 {
                            *step = (*step * ETA_PLUS).min(STEP_MAX);
                        } else if pg * g < 0.0 {
                            *step = (*step * ETA_MINUS).max(STEP_MIN);
                            prev[li].0[o][j] = 0.0;
                            continue; // iRProp−: skip update after sign flip
                        }
                        layer.w[(o, j)] -= g.signum() * *step;
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
        }
    }

    /// iRProp− training loop: per-weight step sizes grow (×1.2) while the
    /// gradient keeps its sign and shrink (×0.5) when it flips. Each
    /// epoch is one batched gradient, then one fused branch-free
    /// [`irprop_update`] per layer over the flat weights and biases.
    fn train_rprop(&mut self, ws: &mut Workspace<'_>, y: &[f64], cfg: &TrainConfig) {
        let init = cfg.learning_rate.clamp(1e-4, 0.5);
        for state in &mut ws.layers {
            state.step.fill(init);
            state.prev_grad.fill(0.0);
        }
        let trace = telemetry::enabled();
        for e in 0..cfg.epochs {
            if trace {
                telemetry::counter_add("train/epochs", 1);
                if e % 100 == 99 {
                    let loss = self.rmse_masked(&ws.x, y);
                    telemetry::point!("train/epoch_loss", epoch = e + 1, loss = loss);
                }
            }
            let t_epoch = trace.then(std::time::Instant::now);
            let grads = self.batch_gradient(&ws.x, y);
            for ((layer, (dw, db)), state) in self.layers.iter_mut().zip(&grads).zip(&mut ws.layers)
            {
                let nw = dw.as_slice().len();
                let (step_w, step_b) = state.step.split_at_mut(nw);
                let (prev_w, prev_b) = state.prev_grad.split_at_mut(nw);
                let (live_w, live_b) = state.live.split_at(nw);
                irprop_update(
                    layer.w.as_mut_slice(),
                    dw.as_slice(),
                    cfg.weight_decay,
                    step_w,
                    prev_w,
                    live_w,
                );
                // Biases carry no weight decay.
                irprop_update(&mut layer.b, db, 0.0, step_b, prev_b, live_b);
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
    ///
    /// Optimizer state (RProp steps and previous gradients, SGD
    /// velocities) starts fresh on every call and every retry.
    pub fn try_train(&mut self, x: &Matrix, y: &[f64], cfg: &TrainConfig) -> Result<f64> {
        self.try_train_with(x, y, cfg, Mlp::train_rprop)
    }

    /// [`Self::try_train`] with the iRProp− loop as a parameter.
    fn try_train_with(
        &mut self,
        x: &Matrix,
        y: &[f64],
        cfg: &TrainConfig,
        rprop: RpropLoop,
    ) -> Result<f64> {
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
        // Retries rebuild the network with the same shape and dead
        // inputs, so one workspace serves every attempt.
        let mut ws = Workspace::new(self, x);

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
                rprop(self, &mut ws, y, cfg);
                let rmse = self.rmse_masked(&ws.x, y);
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
                loss: self.rmse_masked(&ws.x, y),
            });
        }

        const ATTEMPTS: usize = 4;
        let mut lr0 = cfg.learning_rate;
        for attempt in 0..ATTEMPTS {
            let mut rng = seeded_rng(linalg::dist::child_seed(cfg.seed, attempt as u64));
            for state in &mut ws.layers {
                state.velocity.fill(0.0);
            }
            let mut lr = lr0;
            for e in 0..cfg.epochs {
                let t_epoch = trace.then(std::time::Instant::now);
                self.epoch(&mut ws, y, lr, cfg, &mut rng);
                lr *= cfg.lr_decay;
                if let Some(t) = t_epoch {
                    telemetry::hist_observe_ns("train/epoch_ns", t.elapsed());
                }
                if trace {
                    telemetry::counter_add("train/epochs", 1);
                    // Loss curve sampled every 100 epochs — each RMSE is a
                    // full forward pass, too costly to log per epoch.
                    if e % 100 == 99 {
                        let loss = self.rmse_masked(&ws.x, y);
                        telemetry::point!("train/epoch_loss", epoch = e + 1, loss = loss);
                    }
                }
            }
            let rmse = self.rmse_masked(&ws.x, y);
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
            loss: self.rmse_masked(&ws.x, y),
        })
    }

    /// Magnitude of a hidden unit: sum of |outgoing weights| (pruning
    /// heuristic — a unit nothing listens to contributes nothing).
    pub(crate) fn hidden_unit_magnitude(&self, layer: usize, unit: usize) -> f64 {
        let next = &self.layers[layer + 1].w;
        (0..next.rows()).map(|o| next[(o, unit)].abs()).sum()
    }

    /// Remove one hidden unit (its row in `layer`, its column downstream).
    pub(crate) fn prune_hidden_unit(&mut self, layer: usize, unit: usize) {
        assert!(
            layer < self.layers.len() - 1,
            "cannot prune the output layer"
        );
        assert!(self.layers[layer].outputs() > 1, "layer would become empty");
        let keep: Vec<usize> = (0..self.layers[layer].outputs())
            .filter(|&u| u != unit)
            .collect();
        let l = &mut self.layers[layer];
        l.w = l.w.select_rows(&keep);
        l.b.remove(unit);
        let next = &mut self.layers[layer + 1];
        next.w = next.w.select_cols(&keep);
    }

    /// Total |weight| fanning out of an input (input-importance heuristic).
    pub(crate) fn input_magnitude(&self, input: usize) -> f64 {
        if self.dead_inputs[input] {
            return 0.0;
        }
        let w = &self.layers[0].w;
        (0..w.rows()).map(|o| w[(o, input)].abs()).sum()
    }

    /// Silence an input: zero and freeze its weights.
    pub fn prune_input(&mut self, input: usize) {
        self.dead_inputs[input] = true;
        let w = &mut self.layers[0].w;
        for o in 0..w.rows() {
            w[(o, input)] = 0.0;
        }
    }

    /// Count of live inputs.
    pub fn live_inputs(&self) -> usize {
        self.dead_inputs.iter().filter(|&&d| !d).count()
    }
}

/// iRProp− step growth while a gradient keeps its sign.
const ETA_PLUS: f64 = 1.2;
/// iRProp− step shrink after a sign flip.
const ETA_MINUS: f64 = 0.5;
/// Largest iRProp− step.
const STEP_MAX: f64 = 1.0;
/// Smallest iRProp− step.
const STEP_MIN: f64 = 1e-9;

/// Optimizer state of one layer. Every vector is flat over the layer's
/// parameters in storage order — the row-major weights, then the biases
/// — so an update walks parameters, gradients and state in lockstep.
struct LayerState {
    /// `false` for the weights of dead inputs, which training leaves
    /// untouched; biases and every later layer are live.
    live: Vec<bool>,
    /// iRProp− step sizes.
    step: Vec<f64>,
    /// iRProp−'s previous gradient.
    prev_grad: Vec<f64>,
    /// SGD momentum velocities.
    velocity: Vec<f64>,
}

/// Per-fit training state, built once per [`Mlp::try_train`] call and
/// reused by every attempt and epoch: the optimizer state lives here
/// rather than in the model, and the dead-input mask is applied to the
/// design once rather than once per epoch.
struct Workspace<'a> {
    /// The training design with dead inputs zeroed (borrowed when no
    /// input is dead).
    x: Cow<'a, Matrix>,
    layers: Vec<LayerState>,
    /// SGD scratch, reused across rows: `acts[l]` is layer `l`'s output
    /// for the current row, `delta`/`prev_delta` the backward deltas.
    acts: Vec<Vec<f64>>,
    delta: Vec<f64>,
    prev_delta: Vec<f64>,
}

impl<'a> Workspace<'a> {
    fn new(net: &Mlp, x: &'a Matrix) -> Self {
        let layers = net
            .layers
            .iter()
            .enumerate()
            .map(|(li, l)| {
                let (outputs, inputs) = (l.outputs(), l.inputs());
                let n = outputs * inputs + outputs;
                let mut live = vec![true; n];
                if li == 0 {
                    // An empty weight block never reaches the `%`.
                    for (k, slot) in live[..outputs * inputs].iter_mut().enumerate() {
                        *slot = !net.dead_inputs[k % inputs];
                    }
                }
                LayerState {
                    live,
                    step: vec![0.0; n],
                    prev_grad: vec![0.0; n],
                    velocity: vec![0.0; n],
                }
            })
            .collect();
        Workspace {
            x: net.masked(x),
            layers,
            acts: net
                .layers
                .iter()
                .map(|l| Vec::with_capacity(l.outputs()))
                .collect(),
            delta: Vec::new(),
            prev_delta: Vec::new(),
        }
    }
}

/// One iRProp− update of a single parameter, written with selects
/// rather than branches so [`irprop_update`]'s loop vectorises. Returns
/// the new `(weight, step, previous gradient)`.
///
/// While `prev · g > 0` the step grows (×1.2, capped at `STEP_MAX`);
/// when the sign flips it shrinks (×0.5, floored at `STEP_MIN`), the
/// weight keeps its value and the remembered gradient resets to zero —
/// the "−" of iRProp−. A zero or NaN product leaves the step as it is.
/// The weight moves by `g.signum()` times the step, so a NaN gradient
/// still poisons it. A dead parameter comes back unchanged.
#[inline(always)]
fn irprop_step(w: f64, g: f64, step: f64, prev: f64, live: bool) -> (f64, f64, f64) {
    let p = prev * g;
    let grow = p > 0.0;
    let flip = p < 0.0;
    let grown = (step * ETA_PLUS).min(STEP_MAX);
    let shrunk = (step * ETA_MINUS).max(STEP_MIN);
    let next_step = if grow {
        grown
    } else if flip {
        shrunk
    } else {
        step
    };
    let moved = w - g.signum() * next_step;
    let apply = live & !flip;
    (
        if apply { moved } else { w },
        if live { next_step } else { step },
        if apply {
            g
        } else if live {
            0.0
        } else {
            prev
        },
    )
}

/// One fused iRProp− pass over a flat parameter block. Weight decay
/// folds into each gradient as `g + decay · w` — only when `decay` is
/// positive, so a `-0.0` gradient keeps its sign without it — then
/// [`irprop_step`] updates the parameter, its step and its remembered
/// gradient. Every parameter is independent, so the order of the pass
/// does not matter.
fn irprop_update(
    params: &mut [f64],
    grads: &[f64],
    decay: f64,
    steps: &mut [f64],
    prev: &mut [f64],
    live: &[bool],
) {
    let n = params.len();
    assert!(
        grads.len() == n && steps.len() == n && prev.len() == n && live.len() == n,
        "irprop_update: block lengths differ"
    );
    let decayed = decay > 0.0;
    for k in 0..n {
        let g = if decayed {
            grads[k] + decay * params[k]
        } else {
            grads[k]
        };
        let (w, s, p) = irprop_step(params[k], g, steps[k], prev[k], live[k]);
        params[k] = w;
        steps[k] = s;
        prev[k] = p;
    }
}

/// The iRProp− trainer [`Mlp::try_train`] runs; a parameter so the
/// tests can run the whole fit under the reference loop.
type RpropLoop = fn(&mut Mlp, &mut Workspace<'_>, &[f64], &TrainConfig);

/// Convenience: fresh random generator usable by callers that add noise to
/// seeds per restart.
pub(crate) fn restart_seed(base: u64, attempt: u64) -> u64 {
    linalg::dist::child_seed(base, attempt)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The branchy loop's update of one parameter, for the step tests.
    fn branchy_step(w: f64, g: f64, step: f64, prev: f64) -> (f64, f64, f64) {
        let (mut w, mut step, mut prev) = (w, step, prev);
        if prev * g > 0.0 {
            step = (step * ETA_PLUS).min(STEP_MAX);
        } else if prev * g < 0.0 {
            step = (step * ETA_MINUS).max(STEP_MIN);
            return (w, step, 0.0);
        }
        w -= g.signum() * step;
        prev = g;
        (w, step, prev)
    }

    fn bits(t: (f64, f64, f64)) -> (u64, u64, u64) {
        (t.0.to_bits(), t.1.to_bits(), t.2.to_bits())
    }

    /// Bitwise check of one live step against the branchy reference,
    /// returning the new `(weight, step, previous gradient)`.
    fn live_step(w: f64, g: f64, step: f64, prev: f64) -> (f64, f64, f64) {
        let fused = irprop_step(w, g, step, prev, true);
        assert_eq!(
            bits(fused),
            bits(branchy_step(w, g, step, prev)),
            "w={w} g={g} step={step} prev={prev}"
        );
        fused
    }

    #[test]
    fn irprop_step_signed_zero_and_zero_history() {
        // +0.0 and -0.0 gradients: the product with any history is zero,
        // so the step holds and signum moves the weight by ∓step.
        let (w, s, p) = live_step(0.5, 0.0, 0.1, 0.3);
        assert_eq!((w, s), (0.5 - 0.1, 0.1));
        assert!(p == 0.0 && p.is_sign_positive());
        let (w, s, p) = live_step(0.5, -0.0, 0.1, 0.3);
        assert_eq!((w, s), (0.5 + 0.1, 0.1));
        assert!(p == 0.0 && p.is_sign_negative(), "-0.0 is remembered");
        // No history (first epoch, or after a flip): step held, move taken.
        let (w, s, p) = live_step(0.5, -0.2, 0.1, 0.0);
        assert_eq!((w, s, p), (0.5 + 0.1, 0.1, -0.2));
    }

    #[test]
    fn irprop_step_grows_on_agreement_and_skips_after_a_flip() {
        let (w, s, p) = live_step(0.5, 0.2, 0.1, 0.3);
        assert_eq!((w, s, p), (0.5 - 0.1 * ETA_PLUS, 0.1 * ETA_PLUS, 0.2));
        // Sign flip: step shrinks, weight holds, history resets.
        let (w, s, p) = live_step(0.5, -0.2, 0.1, 0.3);
        assert_eq!((w, s, p), (0.5, 0.1 * ETA_MINUS, 0.0));
    }

    #[test]
    fn irprop_step_clamps_to_step_bounds() {
        let (_, s, _) = live_step(0.0, 1.0, 0.9, 1.0);
        assert_eq!(s, STEP_MAX);
        let (_, s, _) = live_step(0.0, 1.0, STEP_MAX, 1.0);
        assert_eq!(s, STEP_MAX);
        let (_, s, _) = live_step(0.0, -1.0, 1.5e-9, 1.0);
        assert_eq!(s, STEP_MIN);
    }

    #[test]
    fn irprop_step_propagates_nan() {
        // NaN gradient: no comparison holds, the step is kept and NaN
        // reaches both the weight and the history.
        let (w, s, p) = live_step(0.5, f64::NAN, 0.1, 0.3);
        assert!(w.is_nan() && p.is_nan());
        assert_eq!(s, 0.1);
        // NaN history: same — the step holds, the weight moves.
        let (w, s, p) = live_step(0.5, 0.2, 0.1, f64::NAN);
        assert_eq!((w, s, p), (0.5 - 0.1, 0.1, 0.2));
    }

    #[test]
    fn irprop_step_leaves_dead_parameters_alone() {
        for (g, prev) in [(0.2, 0.3), (-0.2, 0.3), (0.0, 0.0), (f64::NAN, 0.1)] {
            let out = irprop_step(0.0, g, 0.1, prev, false);
            assert_eq!(bits(out), bits((0.0, 0.1, prev)), "g={g} prev={prev}");
        }
    }

    #[test]
    fn irprop_update_folds_weight_decay_only_when_positive() {
        // A -0.0 gradient on a positive weight: without decay the sign
        // survives (weight moves up); with decay the gradient turns
        // positive (weight moves down).
        let run = |decay: f64| {
            let mut w = [0.7, 0.0];
            let mut steps = [0.1, 0.1];
            let mut prev = [0.0, 0.0];
            irprop_update(
                &mut w,
                &[-0.0, 0.5],
                decay,
                &mut steps,
                &mut prev,
                &[true, false],
            );
            (w, steps, prev)
        };
        let (w, steps, prev) = run(0.0);
        assert_eq!(w, [0.7 + 0.1, 0.0]);
        assert!(prev[0] == 0.0 && prev[0].is_sign_negative());
        assert_eq!((steps, prev[1]), ([0.1, 0.1], 0.0));
        let (w, _, prev) = run(1e-3);
        assert_eq!(w, [0.7 - 0.1, 0.0]);
        assert_eq!(prev[0].to_bits(), (-0.0f64 + 1e-3 * 0.7).to_bits());
    }

    #[test]
    fn fused_rprop_trains_bitwise_like_the_branchy_loop() {
        let (x, y) = nonlinear_data(90);
        for hidden in [vec![6], vec![8, 4]] {
            for weight_decay in [0.0, 1e-5] {
                let cfg = TrainConfig {
                    epochs: 150,
                    weight_decay,
                    ..Default::default()
                };
                let mut fused = Mlp::new(2, &hidden, 21);
                fused.prune_input(1);
                let mut branchy = fused.clone();
                let rf = fused.try_train(&x, &y, &cfg).expect("fused");
                let rb = branchy
                    .try_train_with(&x, &y, &cfg, Mlp::train_rprop_branchy)
                    .expect("branchy");
                assert_eq!(rf.to_bits(), rb.to_bits());
                for (li, (a, b)) in fused.layers.iter().zip(&branchy.layers).enumerate() {
                    let wa: Vec<u64> = a.w.as_slice().iter().map(|v| v.to_bits()).collect();
                    let wb: Vec<u64> = b.w.as_slice().iter().map(|v| v.to_bits()).collect();
                    assert_eq!(
                        wa, wb,
                        "layer {li} weights, {hidden:?}, decay {weight_decay}"
                    );
                    let ba: Vec<u64> = a.b.iter().map(|v| v.to_bits()).collect();
                    let bb: Vec<u64> = b.b.iter().map(|v| v.to_bits()).collect();
                    assert_eq!(
                        ba, bb,
                        "layer {li} biases, {hidden:?}, decay {weight_decay}"
                    );
                }
            }
        }
    }

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
            let fast = net.batch_gradient(&net.masked(&x), &y);
            let slow = net.batch_gradient_scalar(&x, &y);
            assert_eq!(fast.len(), slow.len());
            for (li, ((fw, fb), (sw, sb))) in fast.iter().zip(&slow).enumerate() {
                for (o, sr) in sw.iter().enumerate() {
                    for (j, (a, b)) in fw.row(o).iter().zip(sr).enumerate() {
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

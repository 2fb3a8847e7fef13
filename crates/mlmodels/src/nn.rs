//! Feed-forward neural network (multilayer perceptron) with
//! backpropagation, the engine behind the six NN training methods.
//!
//! Architecture follows §3.2: an input layer (the scaled predictors), one
//! or more hidden layers of tanh units, and a linear output unit predicting
//! the 0–1-scaled response. The default trainer is full-batch iRProp−
//! (resilient backpropagation, [`TrainAlgo::Rprop`]), which five of the
//! six drivers in [`crate::methods`] use; NN-S keeps online stochastic
//! gradient descent with momentum and a constant learning rate
//! ([`TrainAlgo::Sgd`]) — "backpropagation procedure, variation of
//! steepest descent". Both take an optional weight decay. The
//! prune-based drivers need structural surgery (removing hidden units,
//! silencing inputs), which the network supports directly.

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

    /// Predictions for an already [masked](Self::masked) design `a0`,
    /// layer by layer through [`Matrix::affine_nt`] with tanh between
    /// layers. Each element accumulates bias-first in input order, so
    /// every prediction is bit-identical to the scalar [`Mlp::forward`]
    /// on the same row.
    fn predict_masked(&self, a0: &Matrix) -> Vec<f64> {
        debug_assert_eq!(a0.cols(), self.inputs());
        let mut act = Cow::Borrowed(a0);
        for (li, layer) in self.layers.iter().enumerate() {
            let mut z = act.affine_nt(&layer.w, &layer.b);
            if li + 1 < self.layers.len() {
                for v in z.as_mut_slice() {
                    *v = v.tanh();
                }
            }
            act = Cow::Owned(z);
        }
        act.into_owned().as_slice().to_vec()
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
                        .zip(&mut vw[span])
                        .zip(prev_act)
                        .zip(&state.live_inputs)
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

    /// Per-sample scalar gradient accumulation — the historical hot loop,
    /// kept as the reference the batched epoch is tested against. Per
    /// layer it returns `(dW, db)`, `dW` row-major `outputs × inputs`.
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
            let mut grads = self.batch_gradient_scalar(x, y);
            // Weight decay folds into the gradient.
            if cfg.weight_decay > 0.0 {
                for (li, layer) in self.layers.iter().enumerate() {
                    for o in 0..layer.outputs() {
                        for j in 0..layer.inputs() {
                            grads[li].0[o][j] += cfg.weight_decay * layer.w[(o, j)];
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
    /// gradient keeps its sign and shrink (×0.5) when it flips.
    ///
    /// The parameters move into the workspace's input-major layout
    /// ([`Workspace::load`]) for the length of the call and back into
    /// the network at its end, so the caller's [`Self::rmse_masked`] and
    /// any retry see them as usual. Each epoch is one
    /// [`Workspace::gradient`], then one fused branch-free
    /// [`irprop_update`] per layer over the flat weights and one over
    /// the biases.
    fn train_rprop(&mut self, ws: &mut Workspace<'_>, y: &[f64], cfg: &TrainConfig) {
        let init = cfg.learning_rate.clamp(1e-4, 0.5);
        ws.load(self);
        for state in &mut ws.layers {
            state.step.fill(init);
            state.prev_grad.fill(0.0);
        }
        let trace = telemetry::enabled();
        for e in 0..cfg.epochs {
            if trace {
                telemetry::counter_add("train/epochs", 1);
                if e % 100 == 99 {
                    ws.store(self);
                    let loss = self.rmse_masked(&ws.x, y);
                    telemetry::point!("train/epoch_loss", epoch = e + 1, loss = loss);
                }
            }
            let t_epoch = trace.then(std::time::Instant::now);
            ws.gradient(y);
            for state in &mut ws.layers {
                let nw = state.inputs * state.outputs;
                let (param_w, param_b) = state.params.split_at_mut(nw);
                let (grad_w, grad_b) = state.grad.split_at(nw);
                let (step_w, step_b) = state.step.split_at_mut(nw);
                let (prev_w, prev_b) = state.prev_grad.split_at_mut(nw);
                let (live_w, live_b) = state.live.split_at(nw);
                irprop_update(param_w, grad_w, cfg.weight_decay, step_w, prev_w, live_w);
                // Biases carry no weight decay.
                irprop_update(param_b, grad_b, 0.0, step_b, prev_b, live_b);
            }
            if let Some(t) = t_epoch {
                telemetry::hist_observe_ns("train/rprop_epoch_ns", t.elapsed());
            }
        }
        ws.store(self);
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
                    telemetry::hist_observe_ns("train/sgd_epoch_ns", t.elapsed());
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

/// Training state of one layer. The iRProp− vectors (`params`, `grad`,
/// `step`, `prev_grad`, `live`) are flat over the layer's parameters in
/// one order — the weights input-major (`inputs × outputs`, all of one
/// input's weights together), then the biases — so an update walks
/// parameters, gradients and state in lockstep. The SGD velocities
/// follow the network's own row-major order.
struct LayerState {
    inputs: usize,
    outputs: usize,
    /// `false` for the inputs of layer 0 that are dead; SGD reads it per
    /// weight column.
    live_inputs: Vec<bool>,
    /// `false` for the weights of dead inputs, which training leaves
    /// untouched; biases and every later layer are live.
    live: Vec<bool>,
    /// iRProp− step sizes.
    step: Vec<f64>,
    /// iRProp−'s previous gradient.
    prev_grad: Vec<f64>,
    /// The layer's weights and biases for the length of an iRProp− fit.
    params: Vec<f64>,
    /// The epoch's squared-error gradient of `params`.
    grad: Vec<f64>,
    /// The layer's output for every training row, row-major
    /// `rows × outputs` (tanh applied on hidden layers).
    out: Vec<f64>,
    /// SGD momentum velocities.
    velocity: Vec<f64>,
}

/// Per-fit training state, built once per [`Mlp::try_train`] call and
/// reused by every attempt and epoch, so no epoch allocates: the
/// optimizer state and the epoch's buffers live here rather than in the
/// model, and the dead-input mask is applied to the design once rather
/// than once per epoch.
struct Workspace<'a> {
    /// The training design with dead inputs zeroed (borrowed when no
    /// input is dead).
    x: Cow<'a, Matrix>,
    layers: Vec<LayerState>,
    /// SGD scratch, reused across rows: `acts[l]` is layer `l`'s output
    /// for the current row.
    acts: Vec<Vec<f64>>,
    /// Backward deltas: per row under SGD, `rows × width` under iRProp−,
    /// where `prev_delta` receives the layer below's delta.
    delta: Vec<f64>,
    prev_delta: Vec<f64>,
}

impl<'a> Workspace<'a> {
    fn new(net: &Mlp, x: &'a Matrix) -> Self {
        let rows = x.rows();
        let layers: Vec<LayerState> = net
            .layers
            .iter()
            .enumerate()
            .map(|(li, l)| {
                let (outputs, inputs) = (l.outputs(), l.inputs());
                let n = inputs * outputs + outputs;
                let live_inputs: Vec<bool> =
                    (0..inputs).map(|k| li > 0 || !net.dead_inputs[k]).collect();
                let mut live = vec![true; n];
                // The zip stops before the trailing block of biases.
                for (block, &l) in live.chunks_exact_mut(outputs).zip(&live_inputs) {
                    block.fill(l);
                }
                LayerState {
                    inputs,
                    outputs,
                    live_inputs,
                    live,
                    step: vec![0.0; n],
                    prev_grad: vec![0.0; n],
                    params: vec![0.0; n],
                    grad: vec![0.0; n],
                    out: vec![0.0; rows * outputs],
                    velocity: vec![0.0; n],
                }
            })
            .collect();
        let widest = layers.iter().map(|l| l.outputs).max().unwrap_or(1);
        Workspace {
            x: net.masked(x),
            layers,
            acts: net
                .layers
                .iter()
                .map(|l| Vec::with_capacity(l.outputs()))
                .collect(),
            delta: Vec::with_capacity(rows * widest),
            prev_delta: Vec::with_capacity(rows * widest),
        }
    }

    /// Copy `net`'s weights (transposed to input-major) and biases into
    /// `params`.
    fn load(&mut self, net: &Mlp) {
        for (state, layer) in self.layers.iter_mut().zip(&net.layers) {
            let (w, b) = state.params.split_at_mut(state.inputs * state.outputs);
            for o in 0..state.outputs {
                for (k, &v) in layer.w.row(o).iter().enumerate() {
                    w[k * state.outputs + o] = v;
                }
            }
            b.copy_from_slice(&layer.b);
        }
    }

    /// Write `params` back into `net`'s row-major weights and biases.
    fn store(&self, net: &mut Mlp) {
        for (state, layer) in self.layers.iter().zip(&mut net.layers) {
            let (w, b) = state.params.split_at(state.inputs * state.outputs);
            for o in 0..state.outputs {
                for (k, v) in layer.w.row_mut(o).iter_mut().enumerate() {
                    *v = w[k * state.outputs + o];
                }
            }
            layer.b.copy_from_slice(b);
        }
    }

    /// Full-batch squared-error gradient of `params` into each layer's
    /// `grad`: one forward pass over every row ([`affine_batch`]), then
    /// per layer, last first, dW and db ([`weight_grad`]) and the layer
    /// below's delta ([`upstream_delta`]).
    ///
    /// Every sum folds in the order of the matching `linalg` kernel —
    /// bias-first and input-ascending forward ([`Matrix::affine_nt`]),
    /// row-ascending from 0.0 for dW and db ([`Matrix::matmul_tn`]),
    /// output-ascending from 0.0 with zero deltas skipped upstream
    /// ([`Matrix::matmul`]) — and each product and tanh′ factor is the
    /// same, so the gradient matches the per-sample reference loop bit
    /// for bit.
    fn gradient(&mut self, y: &[f64]) {
        let n_layers = self.layers.len();
        for li in 0..n_layers {
            let (done, rest) = self.layers.split_at_mut(li);
            let prev: &[f64] = if li == 0 {
                self.x.as_slice()
            } else {
                &done[li - 1].out
            };
            let state = &mut rest[0];
            let (wt, b) = state.params.split_at(state.inputs * state.outputs);
            affine_batch(prev, state.inputs, wt, b, &mut state.out, li + 1 < n_layers);
        }
        // dE/dŷ of the mean squared error over the linear output.
        let n = self.x.rows() as f64;
        self.delta.clear();
        self.delta.extend(
            self.layers[n_layers - 1]
                .out
                .iter()
                .zip(y)
                .map(|(&p, &t)| (p - t) / n),
        );
        for li in (0..n_layers).rev() {
            let (done, rest) = self.layers.split_at_mut(li);
            let prev: &[f64] = if li == 0 {
                self.x.as_slice()
            } else {
                &done[li - 1].out
            };
            let state = &mut rest[0];
            weight_grad(&self.delta, prev, state.inputs, &mut state.grad);
            if li > 0 {
                let wt = &state.params[..state.inputs * state.outputs];
                upstream_delta(&self.delta, wt, prev, state.inputs, &mut self.prev_delta);
                std::mem::swap(&mut self.delta, &mut self.prev_delta);
            }
        }
    }
}

/// One layer's outputs for every row: `out[i][o] = bias[o] + Σ_k
/// a[i][k] · wt[k][o]`, through tanh when `tanh` is set, with `a`
/// row-major `rows × inputs` and `wt` input-major `inputs × outputs`.
///
/// Each sum starts at the bias and adds the products in ascending `k`,
/// the order of [`Matrix::affine_nt`]. Tiles of rows × outputs only run
/// several such sums side by side: wide layers take two rows by eight
/// outputs (one contiguous run of `wt` per input), narrow ones (the
/// one-output layer) four rows at a time, each row its own chain.
fn affine_batch(a: &[f64], inputs: usize, wt: &[f64], bias: &[f64], out: &mut [f64], tanh: bool) {
    let outputs = bias.len();
    let rows = out.len() / outputs;
    let mut i = 0;
    if outputs >= 4 {
        while i + 2 <= rows {
            affine_rows::<2>(a, inputs, wt, bias, out, tanh, i);
            i += 2;
        }
    } else {
        while i + 4 <= rows {
            affine_rows::<4>(a, inputs, wt, bias, out, tanh, i);
            i += 4;
        }
    }
    while i < rows {
        affine_rows::<1>(a, inputs, wt, bias, out, tanh, i);
        i += 1;
    }
}

/// [`affine_batch`] for rows `i0..i0 + R`, in blocks of 8, 4 and 1
/// outputs.
fn affine_rows<const R: usize>(
    a: &[f64],
    inputs: usize,
    wt: &[f64],
    bias: &[f64],
    out: &mut [f64],
    tanh: bool,
    i0: usize,
) {
    let outputs = bias.len();
    let mut o = 0;
    while o + 8 <= outputs {
        affine_tile::<R, 8>(a, inputs, wt, bias, out, tanh, i0, o);
        o += 8;
    }
    if o + 4 <= outputs {
        affine_tile::<R, 4>(a, inputs, wt, bias, out, tanh, i0, o);
        o += 4;
    }
    while o < outputs {
        affine_tile::<R, 1>(a, inputs, wt, bias, out, tanh, i0, o);
        o += 1;
    }
}

/// One `R × B` tile of [`affine_batch`]: rows `i0..i0 + R`, outputs
/// `o0..o0 + B`.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn affine_tile<const R: usize, const B: usize>(
    a: &[f64],
    inputs: usize,
    wt: &[f64],
    bias: &[f64],
    out: &mut [f64],
    tanh: bool,
    i0: usize,
    o0: usize,
) {
    let outputs = bias.len();
    let rows: [&[f64]; R] = std::array::from_fn(|r| &a[(i0 + r) * inputs..][..inputs]);
    let b: [f64; B] = bias[o0..o0 + B].try_into().expect("tile width");
    let mut acc = [b; R];
    for (k, w) in wt.chunks_exact(outputs).enumerate() {
        let w: &[f64; B] = w[o0..o0 + B].try_into().expect("tile width");
        for (s, row) in acc.iter_mut().zip(&rows) {
            let x = row[k];
            for (s, &w) in s.iter_mut().zip(w) {
                *s += w * x;
            }
        }
    }
    for (r, s) in acc.iter().enumerate() {
        let dst = &mut out[(i0 + r) * outputs + o0..][..B];
        for (d, &s) in dst.iter_mut().zip(s) {
            *d = if tanh { s.tanh() } else { s };
        }
    }
}

/// dW and db of one layer into `grad` (dW input-major `inputs ×
/// outputs`, then db): `dW[k][o] = Σ_i δ[i][o] · prev[i][k]` and `db[o]
/// = Σ_i δ[i][o]`, each from 0.0 in ascending `i` — the order of
/// [`Matrix::matmul_tn`] and the column sum. Tiles of inputs × outputs
/// run their sums side by side over the rows, and the tiles of the
/// first input also sum the biases.
fn weight_grad(delta: &[f64], prev: &[f64], inputs: usize, grad: &mut [f64]) {
    let outputs = grad.len() / (inputs + 1);
    let mut o = 0;
    while o + 8 <= outputs {
        grad_cols::<2, 8>(delta, prev, inputs, grad, o);
        o += 8;
    }
    if o + 4 <= outputs {
        grad_cols::<4, 4>(delta, prev, inputs, grad, o);
        o += 4;
    }
    while o < outputs {
        grad_cols::<8, 1>(delta, prev, inputs, grad, o);
        o += 1;
    }
}

/// [`weight_grad`] for outputs `o0..o0 + B`, in blocks of `K` and 1
/// inputs.
fn grad_cols<const K: usize, const B: usize>(
    delta: &[f64],
    prev: &[f64],
    inputs: usize,
    grad: &mut [f64],
    o0: usize,
) {
    let mut k = 0;
    while k + K <= inputs {
        grad_tile::<K, B>(delta, prev, inputs, grad, k, o0);
        k += K;
    }
    while k < inputs {
        grad_tile::<1, B>(delta, prev, inputs, grad, k, o0);
        k += 1;
    }
}

/// One `K × B` tile of [`weight_grad`]: inputs `k0..k0 + K`, outputs
/// `o0..o0 + B`, plus those outputs' bias sums when `k0` is 0.
#[inline(always)]
fn grad_tile<const K: usize, const B: usize>(
    delta: &[f64],
    prev: &[f64],
    inputs: usize,
    grad: &mut [f64],
    k0: usize,
    o0: usize,
) {
    let outputs = grad.len() / (inputs + 1);
    let with_bias = k0 == 0;
    let mut acc = [[0.0f64; B]; K];
    let mut db = [0.0f64; B];
    for (d, p) in delta.chunks_exact(outputs).zip(prev.chunks_exact(inputs)) {
        let d: &[f64; B] = d[o0..o0 + B].try_into().expect("tile width");
        let p: &[f64; K] = p[k0..k0 + K].try_into().expect("tile height");
        for (s, &p) in acc.iter_mut().zip(p) {
            for (s, &d) in s.iter_mut().zip(d) {
                *s += d * p;
            }
        }
        if with_bias {
            for (s, &d) in db.iter_mut().zip(d) {
                *s += d;
            }
        }
    }
    for (kk, s) in acc.iter().enumerate() {
        grad[(k0 + kk) * outputs + o0..][..B].copy_from_slice(s);
    }
    if with_bias {
        grad[inputs * outputs + o0..][..B].copy_from_slice(&db);
    }
}

/// The delta of the layer below from this layer's delta `δ` and
/// input-major weights `wt`: `up[i][k] = (Σ_o δ[i][o] · wt[k][o]) · (1 −
/// a²)` with `a = prev[i][k]`, that layer's tanh output. Each sum starts
/// at 0.0 and adds in ascending `o`, skipping zero deltas, the order and
/// the skip of [`Matrix::matmul`].
fn upstream_delta(delta: &[f64], wt: &[f64], prev: &[f64], inputs: usize, up: &mut Vec<f64>) {
    let outputs = wt.len() / inputs;
    up.resize(prev.len(), 0.0);
    for ((d, a), u) in delta
        .chunks_exact(outputs)
        .zip(prev.chunks_exact(inputs))
        .zip(up.chunks_exact_mut(inputs))
    {
        for ((u, w), &a) in u.iter_mut().zip(wt.chunks_exact(outputs)).zip(a) {
            let mut s = 0.0;
            for (&d, &w) in d.iter().zip(w) {
                if d != 0.0 {
                    s += d * w;
                }
            }
            // tanh' = 1 - a².
            *u = s * (1.0 - a * a);
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

/// The seed of restart `attempt` of a driver seeded with `base`: a child
/// seed, so restarts train from distinct but reproducible weights.
pub(crate) fn restart_seed(base: u64, attempt: u64) -> u64 {
    linalg::dist::child_seed(base, attempt)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

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

    /// The epoch's gradient of `net` on `(x, y)`, each layer's dW
    /// transposed back to row-major rows for comparison with
    /// [`Mlp::batch_gradient_scalar`].
    fn epoch_gradient(net: &Mlp, x: &Matrix, y: &[f64]) -> Vec<(Vec<Vec<f64>>, Vec<f64>)> {
        let mut ws = Workspace::new(net, x);
        ws.load(net);
        ws.gradient(y);
        ws.layers
            .iter()
            .map(|l| {
                let (dw, db) = l.grad.split_at(l.inputs * l.outputs);
                let rows = (0..l.outputs)
                    .map(|o| (0..l.inputs).map(|k| dw[k * l.outputs + o]).collect())
                    .collect();
                (rows, db.to_vec())
            })
            .collect()
    }

    /// `to_bits` equality of two gradients in the oracle's shape.
    fn assert_gradients_bitwise_equal(
        fast: &[(Vec<Vec<f64>>, Vec<f64>)],
        slow: &[(Vec<Vec<f64>>, Vec<f64>)],
        what: &str,
    ) {
        assert_eq!(fast.len(), slow.len());
        for (li, ((fw, fb), (sw, sb))) in fast.iter().zip(slow).enumerate() {
            assert_eq!(fw.len(), sw.len());
            for (o, (fr, sr)) in fw.iter().zip(sw).enumerate() {
                assert_eq!(fr.len(), sr.len());
                for (j, (a, b)) in fr.iter().zip(sr).enumerate() {
                    assert!(
                        a.to_bits() == b.to_bits(),
                        "{what}: dW[{li}][{o}][{j}]: {a} vs {b}"
                    );
                }
            }
            assert_eq!(fb.len(), sb.len());
            for (o, (a, b)) in fb.iter().zip(sb).enumerate() {
                assert!(
                    a.to_bits() == b.to_bits(),
                    "{what}: db[{li}][{o}]: {a} vs {b}"
                );
            }
        }
    }

    #[test]
    fn batched_gradient_matches_scalar_oracle_bitwise() {
        let (x, y) = nonlinear_data(90);
        for hidden in [vec![6], vec![8, 4]] {
            let mut net = Mlp::new(2, &hidden, 21);
            net.prune_input(1); // exercise the dead-input mask too
                                // A few epochs first, so the biases are not all zero.
            let cfg = TrainConfig {
                epochs: 5,
                ..Default::default()
            };
            net.try_train(&x, &y, &cfg).expect("train");
            let fast = epoch_gradient(&net, &x, &y);
            let slow = net.batch_gradient_scalar(&x, &y);
            assert_gradients_bitwise_equal(&fast, &slow, &format!("{hidden:?}"));
        }
    }

    /// A random design and network for the epoch property: `rows × inputs`
    /// values in [-1, 1), targets, a hidden shape, dead inputs, a pool
    /// of bias values, a weight decay, an init seed, and whether row 0's
    /// target equals its prediction (a δ row of exactly 0).
    #[allow(clippy::type_complexity)]
    fn arb_epoch_case() -> impl Strategy<
        Value = (
            Matrix,
            Vec<f64>,
            Vec<usize>,
            Vec<bool>,
            Vec<f64>,
            f64,
            u64,
            bool,
        ),
    > {
        (
            (
                1usize..65,
                1usize..31,
                prop::sample::select(vec![
                    vec![1],
                    vec![3],
                    vec![5],
                    vec![7],
                    vec![13],
                    vec![40],
                    vec![8, 4],
                ]),
            ),
            (
                prop::collection::vec(-1.0f64..1.0, 64 * 30),
                prop::collection::vec(0.0f64..1.0, 64),
                prop::collection::vec(0u8..4, 30),
                prop::collection::vec(-1.0f64..1.0, 64),
            ),
            (
                prop::sample::select(vec![0.0, 1e-5, 1e-2]),
                0u64..1 << 32,
                any::<bool>(),
            ),
        )
            .prop_map(
                |((rows, inputs, hidden), (xs, ys, dead, biases), (decay, seed, zero_row))| {
                    let x = Matrix::from_fn(rows, inputs, |i, k| xs[i * inputs + k]);
                    // About one input in four is dead, never all of them.
                    let dead = (0..inputs).map(|k| k > 0 && dead[k] == 0).collect();
                    let y = ys[..rows].to_vec();
                    (x, y, hidden, dead, biases, decay, seed, zero_row)
                },
            )
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// The input-major epoch's gradient matches the per-sample
        /// oracle bit for bit, and a short fit under it matches the
        /// branchy reference loop bit for bit, on shapes whose widths
        /// are not multiples of the kernels' tiles.
        #[test]
        fn epoch_matches_the_scalar_oracle_bitwise(case in arb_epoch_case()) {
            let (x, mut y, hidden, dead, biases, weight_decay, seed, zero_row) = case;
            let mut net = Mlp::new(x.cols(), &hidden, seed);
            for (k, &d) in dead.iter().enumerate() {
                if d {
                    net.prune_input(k);
                }
            }
            // A fresh network's biases are all zero, which would hide
            // where a sum adds its bias.
            for layer in &mut net.layers {
                for (b, &v) in layer.b.iter_mut().zip(biases.iter().cycle()) {
                    *b = v;
                }
            }
            if zero_row {
                y[0] = net.forward(x.row(0));
            }
            let fast = epoch_gradient(&net, &x, &y);
            let slow = net.batch_gradient_scalar(&x, &y);
            if zero_row {
                let n_layers = net.layers.len();
                let ws = {
                    let mut ws = Workspace::new(&net, &x);
                    ws.load(&net);
                    ws.gradient(&y);
                    ws
                };
                prop_assert_eq!(ws.layers[n_layers - 1].out[0].to_bits(), y[0].to_bits());
            }
            let what = format!("{} x {} -> {hidden:?}", x.rows(), x.cols());
            assert_gradients_bitwise_equal(&fast, &slow, &what);

            let cfg = TrainConfig {
                epochs: 4,
                weight_decay,
                seed,
                ..Default::default()
            };
            let mut branchy = net.clone();
            let rf = net.try_train(&x, &y, &cfg);
            let rb = branchy.try_train_with(&x, &y, &cfg, Mlp::train_rprop_branchy);
            prop_assert_eq!(rf.map(f64::to_bits).ok(), rb.map(f64::to_bits).ok());
            for (a, b) in net.layers.iter().zip(&branchy.layers) {
                let wa: Vec<u64> = a.w.as_slice().iter().map(|v| v.to_bits()).collect();
                let wb: Vec<u64> = b.w.as_slice().iter().map(|v| v.to_bits()).collect();
                prop_assert_eq!(wa, wb, "{}", what);
                let ba: Vec<u64> = a.b.iter().map(|v| v.to_bits()).collect();
                let bb: Vec<u64> = b.b.iter().map(|v| v.to_bits()).collect();
                prop_assert_eq!(ba, bb, "{}", what);
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

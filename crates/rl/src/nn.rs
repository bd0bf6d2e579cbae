//! Dense neural network with manual backpropagation and Adam.
//!
//! Small by design: the paper's actor/critic are 2-hidden-layer MLPs over
//! a 10-dimensional state. Gradients are verified against central finite
//! differences in this module's tests, so the DDPG layer above can trust
//! them unconditionally.

use crate::matrix::{transpose_into, Matrix};
use rand::Rng;

/// Activation functions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Activation {
    /// max(0, x)
    Relu,
    /// tanh(x)
    Tanh,
    /// 1/(1+e^-x) — used on the actor head to bound actions in (0, 1).
    Sigmoid,
    /// identity — used on the critic head.
    Linear,
}

/// Evaluate `$body` with the constant `$act` bound to the activation
/// `$which`, one copy per variant. The match runs once per call instead
/// of once per element, and each copy's element loop (and any closure
/// handed to a GEMM) sees one literal activation, so `apply` and
/// `derivative_from_output` fold to a single arm.
macro_rules! monomorphize {
    ($which:expr, $act:ident => $body:expr) => {
        match $which {
            Activation::Relu => {
                const $act: Activation = Activation::Relu;
                $body
            }
            Activation::Tanh => {
                const $act: Activation = Activation::Tanh;
                $body
            }
            Activation::Sigmoid => {
                const $act: Activation = Activation::Sigmoid;
                $body
            }
            Activation::Linear => {
                const $act: Activation = Activation::Linear;
                $body
            }
        }
    };
}

impl Activation {
    #[inline(always)]
    fn apply(self, x: f64) -> f64 {
        match self {
            Activation::Relu => x.max(0.0),
            Activation::Tanh => x.tanh(),
            Activation::Sigmoid => 1.0 / (1.0 + (-x).exp()),
            Activation::Linear => x,
        }
    }

    /// Derivative expressed in terms of the *output* y = f(x).
    #[inline(always)]
    fn derivative_from_output(self, y: f64) -> f64 {
        match self {
            Activation::Relu => {
                if y > 0.0 {
                    1.0
                } else {
                    0.0
                }
            }
            Activation::Tanh => 1.0 - y * y,
            Activation::Sigmoid => y * (1.0 - y),
            Activation::Linear => 1.0,
        }
    }
}

/// One dense layer with cached forward state and accumulated gradients.
///
/// Forward/backward run over a stacked minibatch through the GEMM kernels
/// in [`crate::matrix`]; single-sample calls are the `batch == 1` case.
/// Activations live **feature-major** (`n_out × batch`) between layers —
/// each layer consumes its predecessor's `out_fm` cache directly, so a
/// forward chain performs no staging transposes at all. A batch-major
/// mirror (`output`) is materialized only where something reads it: the
/// public forward API and the weight-gradient accumulation. The caches
/// are volatile scratch and reuse their allocations.
#[derive(Debug, Clone)]
struct Dense {
    w: Matrix,
    b: Vec<f64>,
    act: Activation,
    /// Forward output cache, feature-major `n_out × batch`. The next
    /// layer reads its input straight from here.
    out_fm: Vec<f64>,
    /// Batch-major mirror of `out_fm` (`batch × n_out`); empty after an
    /// inference-only forward (see [`Mlp::forward_batch_infer`]).
    output: Vec<f64>,
    /// `δ = grad_out ⊙ act′(output)` backward scratch, feature-major.
    delta: Vec<f64>,
    // accumulated gradients
    gw: Matrix,
    gb: Vec<f64>,
    // Adam moments
    mw: Matrix,
    vw: Matrix,
    mb: Vec<f64>,
    vb: Vec<f64>,
}

impl Dense {
    fn new<R: Rng>(n_in: usize, n_out: usize, act: Activation, rng: &mut R) -> Self {
        // Xavier-uniform init.
        let limit = (6.0 / (n_in + n_out) as f64).sqrt();
        Dense {
            w: Matrix::random(n_out, n_in, limit, rng),
            b: vec![0.0; n_out],
            act,
            out_fm: Vec::new(),
            output: Vec::new(),
            delta: Vec::new(),
            gw: Matrix::zeros(n_out, n_in),
            gb: vec![0.0; n_out],
            mw: Matrix::zeros(n_out, n_in),
            vw: Matrix::zeros(n_out, n_in),
            mb: vec![0.0; n_out],
            vb: vec![0.0; n_out],
        }
    }

    /// Forward `batch` feature-major stacked inputs into the feature-major
    /// output cache; the batch-major mirror is produced only if `mirror`
    /// (the backward pass reads it as the next layer's GEMM input). Bias and
    /// activation are applied as each GEMM tile leaves the registers, and
    /// the mirror is written from the same tile, so the output is written
    /// in one pass instead of three.
    fn forward_fm(&mut self, x_fm: &[f64], batch: usize, mirror: bool) {
        let (n_out, _) = self.w.dims();
        self.output.clear();
        let mirror = if mirror {
            self.output.resize(n_out * batch, 0.0);
            Some(&mut self.output[..])
        } else {
            None
        };
        let b = &self.b;
        monomorphize!(self.act, ACT => {
            self.w.matmul_fm_epilogue(x_fm, batch, &mut self.out_fm, mirror, |r| {
                let b = b[r];
                move |v| ACT.apply(v + b)
            })
        });
    }

    /// `δ = grad ⊙ act′(out)` into the feature-major delta scratch.
    fn compute_delta(&mut self, g_fm: &[f64]) {
        assert_eq!(g_fm.len(), self.out_fm.len(), "backward before forward?");
        self.delta.clear();
        let pairs = g_fm.iter().zip(&self.out_fm);
        monomorphize!(self.act, ACT => {
            self.delta
                .extend(pairs.map(|(&g, &y)| g * ACT.derivative_from_output(y)))
        });
    }

    /// Accumulate parameter gradients for the cached forward batch (whose
    /// batch-major input was `xs`), leaving `δ` in the delta scratch for
    /// [`Dense::input_grad_fm`].
    fn accumulate_fm(&mut self, g_fm: &[f64], xs: &[f64], batch: usize) {
        self.compute_delta(g_fm);
        self.gw.add_outer_batch_fm(&self.delta, xs, batch);
        add_batch_sums(&mut self.gb, &self.delta, batch);
    }

    /// Feature-major dLoss/dInput into `din`, from the `δ` left by the last
    /// [`Dense::accumulate_fm`] or [`Dense::compute_delta`].
    fn input_grad_fm(&self, batch: usize, din: &mut Vec<f64>) {
        self.w.matmul_t_fm(&self.delta, batch, din);
    }

    fn zero_grad(&mut self) {
        self.gw.zero();
        self.gb.iter_mut().for_each(|v| *v = 0.0);
    }
}

/// `gb[r] += Σ_s delta[r·batch + s]` for feature-major `delta`, each row
/// folded onto its current value in ascending `s`, exactly like a
/// per-sample loop. Rows fold eight side by side, so eight independent
/// add chains overlap instead of each waiting on the one before.
fn add_batch_sums(gb: &mut [f64], delta: &[f64], batch: usize) {
    const CHAINS: usize = 8;
    let mut gbs = gb.chunks_exact_mut(CHAINS);
    let mut ds = delta.chunks_exact(CHAINS * batch);
    for (gb, d) in (&mut gbs).zip(&mut ds) {
        let rows: [&[f64]; CHAINS] = std::array::from_fn(|r| &d[r * batch..][..batch]);
        let mut acc: [f64; CHAINS] = gb.try_into().expect("a chunk is CHAINS long");
        for s in 0..batch {
            for (a, row) in acc.iter_mut().zip(&rows) {
                *a += row[s];
            }
        }
        gb.copy_from_slice(&acc);
    }
    let rest = gbs.into_remainder().iter_mut();
    for (gb, row) in rest.zip(ds.remainder().chunks_exact(batch)) {
        for &d in row {
            *gb += d;
        }
    }
}

/// Adam optimizer state (one per network).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Adam {
    pub lr: f64,
    pub beta1: f64,
    pub beta2: f64,
    pub eps: f64,
    t: u64,
}

impl Adam {
    /// Standard Adam with the given learning rate.
    pub fn new(lr: f64) -> Self {
        Adam {
            lr,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            t: 0,
        }
    }
}

/// `1 / x` when it is exact: `x` is a normal power of two (either sign),
/// whose reciprocal is again a power of two.
fn exact_reciprocal(x: f64) -> Option<f64> {
    const MANTISSA: u64 = (1 << 52) - 1;
    (x.is_normal() && x.to_bits() & MANTISSA == 0).then(|| 1.0 / x)
}

/// A multi-layer perceptron.
#[derive(Debug, Clone)]
pub struct Mlp {
    layers: Vec<Dense>,
    /// Layer-0 input cache, batch-major (read by the weight-gradient
    /// accumulation in backward).
    x0: Vec<f64>,
    /// Layer-0 input staged feature-major for the GEMM chain (the only
    /// input transpose a forward pass makes; later layers read their
    /// predecessor's feature-major output cache in place).
    x0_fm: Vec<f64>,
    /// Batch size of the cached forward pass.
    batch: usize,
    /// Ping-pong gradient buffers for the backward chain (feature-major;
    /// `grad_a` holds the batch-major input gradient after
    /// [`Mlp::backward_input_only_batch`]).
    grad_a: Vec<f64>,
    grad_b: Vec<f64>,
}

impl Mlp {
    /// Build an MLP with sizes `dims = [in, h1, …, out]`, `hidden`
    /// activation on all but the last layer and `output` on the head.
    pub fn new<R: Rng>(
        dims: &[usize],
        hidden: Activation,
        output: Activation,
        rng: &mut R,
    ) -> Self {
        assert!(dims.len() >= 2);
        let layers = dims
            .windows(2)
            .enumerate()
            .map(|(i, w)| {
                let act = if i + 2 == dims.len() { output } else { hidden };
                Dense::new(w[0], w[1], act, rng)
            })
            .collect();
        Mlp {
            layers,
            x0: Vec::new(),
            x0_fm: Vec::new(),
            batch: 0,
            grad_a: Vec::new(),
            grad_b: Vec::new(),
        }
    }

    /// Forward pass (caches activations for a subsequent backward).
    pub fn forward(&mut self, x: &[f64]) -> Vec<f64> {
        self.forward_batch(x, 1).to_vec()
    }

    /// Forward a stacked minibatch (batch-major `batch × in_dim`); returns
    /// the head outputs (`batch × out_dim`), caching activations for a
    /// subsequent [`Mlp::backward_batch`]. Every output element is
    /// bit-identical to a per-sample [`Mlp::forward`] on that sample.
    pub fn forward_batch(&mut self, xs: &[f64], batch: usize) -> &[f64] {
        self.forward_inner(xs, batch, true)
    }

    /// [`Mlp::forward_batch`] for inference-only passes: hidden layers
    /// skip their batch-major mirrors (nothing will read them — they only
    /// feed a subsequent `backward_batch`'s weight-gradient accumulation,
    /// which panics on the emptied caches if called by mistake). Output
    /// values are bit-identical to `forward_batch`; a later
    /// [`Mlp::backward_input_only_batch`] is still valid.
    pub fn forward_batch_infer(&mut self, xs: &[f64], batch: usize) -> &[f64] {
        self.forward_inner(xs, batch, false)
    }

    fn forward_inner(&mut self, xs: &[f64], batch: usize, train: bool) -> &[f64] {
        assert_eq!(xs.len() % batch, 0);
        let in_dim = xs.len() / batch;
        self.x0.clear();
        self.x0_fm.clear();
        if train {
            self.x0.extend_from_slice(xs);
        }
        self.x0_fm.resize(xs.len(), 0.0);
        transpose_into(xs, batch, in_dim, &mut self.x0_fm);
        self.batch = batch;
        let n = self.layers.len();
        self.layers[0].forward_fm(&self.x0_fm, batch, train || n == 1);
        for i in 1..n {
            // split_at_mut keeps the predecessor's output borrow disjoint
            // from the layer being run. The head always mirrors so the
            // public output stays batch-major.
            let (done, rest) = self.layers.split_at_mut(i);
            let h = &done[i - 1].out_fm;
            rest[0].forward_fm(h, batch, train || i + 1 == n);
        }
        &self.layers[n - 1].output
    }

    /// Backpropagate `grad_out` (dLoss/dOutput), accumulating parameter
    /// gradients: the one-sample case of [`Mlp::backward_batch`].
    pub fn backward(&mut self, grad_out: &[f64]) {
        self.backward_batch(grad_out);
    }

    /// Backpropagate stacked output gradients (`batch × out_dim`, matching
    /// the cached forward batch), accumulating parameter gradients in
    /// ascending batch order. Bit-identical to per-sample [`Mlp::backward`]
    /// calls in batch order. dLoss/dInput is not formed: layer 0 stops at
    /// its parameter gradients. [`Mlp::backward_input_only_batch`] is the
    /// way to the input gradient.
    pub fn backward_batch(&mut self, grad_out: &[f64]) {
        let batch = self.batch;
        let mut g = std::mem::take(&mut self.grad_a);
        let mut din = std::mem::take(&mut self.grad_b);
        Self::stage_head_grad(grad_out, batch, &mut g);
        for i in (1..self.layers.len()).rev() {
            let (done, rest) = self.layers.split_at_mut(i);
            rest[0].accumulate_fm(&g, &done[i - 1].output, batch);
            rest[0].input_grad_fm(batch, &mut din);
            std::mem::swap(&mut g, &mut din);
        }
        self.layers[0].accumulate_fm(&g, &self.x0, batch);
        self.grad_a = g;
        self.grad_b = din;
    }

    /// Backpropagate stacked output gradients to the input *without*
    /// accumulating parameter gradients; returns dLoss/dInput
    /// (`batch × in_dim`), bit-identical to per-sample calls in batch
    /// order.
    pub fn backward_input_only_batch(&mut self, grad_out: &[f64]) -> &[f64] {
        let batch = self.batch;
        let mut g = std::mem::take(&mut self.grad_a);
        let mut din = std::mem::take(&mut self.grad_b);
        Self::stage_head_grad(grad_out, batch, &mut g);
        for l in self.layers.iter_mut().rev() {
            l.compute_delta(&g);
            l.input_grad_fm(batch, &mut din);
            std::mem::swap(&mut g, &mut din);
        }
        Self::unstage_input_grad(&g, batch, &mut din);
        self.grad_a = din;
        self.grad_b = g;
        &self.grad_a
    }

    /// Stage the batch-major head gradient feature-major (for the paper's
    /// scalar-headed actor/critic nets the layouts coincide and this is a
    /// plain copy).
    fn stage_head_grad(grad_out: &[f64], batch: usize, g_fm: &mut Vec<f64>) {
        assert_eq!(grad_out.len() % batch, 0);
        let out_dim = grad_out.len() / batch;
        g_fm.clear();
        if out_dim == 1 || batch == 1 {
            g_fm.extend_from_slice(grad_out);
        } else {
            g_fm.resize(grad_out.len(), 0.0);
            transpose_into(grad_out, batch, out_dim, g_fm);
        }
    }

    /// Transpose the feature-major input gradient back to the public
    /// batch-major layout.
    fn unstage_input_grad(g_fm: &[f64], batch: usize, din: &mut Vec<f64>) {
        let in_dim = g_fm.len() / batch;
        din.clear();
        din.resize(g_fm.len(), 0.0);
        if in_dim == 1 || batch == 1 {
            din.copy_from_slice(g_fm);
        } else {
            transpose_into(g_fm, in_dim, batch, din);
        }
    }

    /// The head outputs cached by the last forward pass (batch-major).
    pub fn last_output(&self) -> &[f64] {
        &self.layers[self.layers.len() - 1].output
    }

    /// Clear accumulated gradients.
    pub fn zero_grad(&mut self) {
        self.layers.iter_mut().for_each(Dense::zero_grad);
    }

    /// One Adam step over the accumulated gradients, scaled by `1/scale`
    /// (pass the batch size to average a batch's accumulation).
    pub fn adam_step(&mut self, opt: &mut Adam, scale: f64) {
        opt.t += 1;
        // A power of two's reciprocal is exact, and multiplying by it
        // rounds the same real number as dividing by the scale, once: the
        // same bits, subnormal quotients included, for a multiply instead
        // of a divide. Any other scale keeps the division.
        match exact_reciprocal(scale) {
            Some(r) => self.adam_update(opt, |g| g * r),
            None => self.adam_update(opt, |g| g / scale),
        }
    }

    /// Adam's per-element update, with `unscale` applied to each gradient.
    ///
    /// The bias corrections fold into the step size and epsilon once per
    /// step, the efficient form of Kingma & Ba's §2: `α_t = lr·√bc2 / bc1`
    /// and `ε_t = ε·√bc2`, then `w −= α_t·m / (√v + ε_t)`. In exact
    /// arithmetic that is `lr·m̂ / (√v̂ + ε)`; per parameter it costs one
    /// division and one square root instead of three divisions and one.
    fn adam_update(&mut self, opt: &Adam, unscale: impl Fn(f64) -> f64) {
        let bc1 = 1.0 - opt.beta1.powi(opt.t as i32);
        let bc2 = 1.0 - opt.beta2.powi(opt.t as i32);
        let alpha = opt.lr * bc2.sqrt() / bc1;
        let eps = opt.eps * bc2.sqrt();
        // Streaming zips instead of indexed access: no bounds checks, and
        // the per-element update vectorizes.
        let step = |w: &mut f64, g: f64, m: &mut f64, v: &mut f64| {
            let g = unscale(g);
            *m = opt.beta1 * *m + (1.0 - opt.beta1) * g;
            *v = opt.beta2 * *v + (1.0 - opt.beta2) * g * g;
            *w -= alpha * *m / (v.sqrt() + eps);
        };
        for l in &mut self.layers {
            let ws = l.w.data_mut().iter_mut().zip(l.gw.data());
            let moments = l.mw.data_mut().iter_mut().zip(l.vw.data_mut().iter_mut());
            for ((w, &g), (m, v)) in ws.zip(moments) {
                step(w, g, m, v);
            }
            let bs = l.b.iter_mut().zip(&l.gb);
            let moments = l.mb.iter_mut().zip(l.vb.iter_mut());
            for ((w, &g), (m, v)) in bs.zip(moments) {
                step(w, g, m, v);
            }
        }
    }

    /// Visit all parameters (weights then biases, layer by layer).
    pub fn for_each_param(&self, mut f: impl FnMut(f64)) {
        for l in &self.layers {
            l.w.data().iter().for_each(|&v| f(v));
            l.b.iter().for_each(|&v| f(v));
        }
    }

    /// Polyak / soft update: `self ← tau·source + (1−tau)·self`.
    /// Networks must share an architecture.
    pub fn soft_update_from(&mut self, source: &Mlp, tau: f64) {
        assert_eq!(self.layers.len(), source.layers.len());
        for (t, s) in self.layers.iter_mut().zip(&source.layers) {
            for (tv, sv) in t.w.data_mut().iter_mut().zip(s.w.data()) {
                *tv = tau * sv + (1.0 - tau) * *tv;
            }
            for (tv, sv) in t.b.iter_mut().zip(&s.b) {
                *tv = tau * sv + (1.0 - tau) * *tv;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn mse_loss(y: &[f64], target: &[f64]) -> (f64, Vec<f64>) {
        let loss = y
            .iter()
            .zip(target)
            .map(|(a, b)| (a - b) * (a - b))
            .sum::<f64>()
            / y.len() as f64;
        let grad = y
            .iter()
            .zip(target)
            .map(|(a, b)| 2.0 * (a - b) / y.len() as f64)
            .collect();
        (loss, grad)
    }

    #[test]
    fn gradient_check_against_finite_differences() {
        // Perturb every parameter of a small net and compare the analytic
        // gradient with a central difference.
        let mut rng = SmallRng::seed_from_u64(5);
        let mut net = Mlp::new(
            &[3, 5, 4, 2],
            Activation::Tanh,
            Activation::Sigmoid,
            &mut rng,
        );
        let x = [0.3, -0.7, 0.9];
        let target = [0.2, 0.8];

        net.zero_grad();
        let y = net.forward(&x);
        let (_, grad) = mse_loss(&y, &target);
        net.backward(&grad);

        // Collect analytic grads.
        let mut analytic = Vec::new();
        for l in &net.layers {
            analytic.extend_from_slice(l.gw.data());
            analytic.extend_from_slice(&l.gb);
        }

        let eps = 1e-6;
        let mut idx = 0;
        let n_layers = net.layers.len();
        for li in 0..n_layers {
            let nw = net.layers[li].w.data().len();
            let nb = net.layers[li].b.len();
            for pi in 0..nw + nb {
                let read = |net: &mut Mlp, d: f64| {
                    if pi < nw {
                        net.layers[li].w.data_mut()[pi] += d;
                    } else {
                        net.layers[li].b[pi - nw] += d;
                    }
                };
                read(&mut net, eps);
                let (lp, _) = mse_loss(&net.forward(&x), &target);
                read(&mut net, -2.0 * eps);
                let (lm, _) = mse_loss(&net.forward(&x), &target);
                read(&mut net, eps);
                let numeric = (lp - lm) / (2.0 * eps);
                let a = analytic[idx];
                assert!(
                    (a - numeric).abs() < 1e-6 * (1.0 + a.abs()),
                    "param {idx}: analytic {a} vs numeric {numeric}"
                );
                idx += 1;
            }
        }
    }

    #[test]
    fn input_gradient_check() {
        let mut rng = SmallRng::seed_from_u64(6);
        let mut net = Mlp::new(&[2, 6, 1], Activation::Relu, Activation::Linear, &mut rng);
        let x = [0.4, -0.2];
        let y = net.forward(&x);
        let gin = net.backward_input_only_batch(&[1.0]).to_vec();
        let eps = 1e-6;
        for i in 0..2 {
            let mut xp = x;
            xp[i] += eps;
            let yp = net.forward(&xp)[0];
            let mut xm = x;
            xm[i] -= eps;
            let ym = net.forward(&xm)[0];
            let numeric = (yp - ym) / (2.0 * eps);
            assert!(
                (gin[i] - numeric).abs() < 1e-6 * (1.0 + numeric.abs()),
                "input {i}: {} vs {numeric} (y={})",
                gin[i],
                y[0]
            );
        }
    }

    #[test]
    fn adam_fits_a_simple_function() {
        // Regress y = sin on a few points; loss must drop by >10×.
        let mut rng = SmallRng::seed_from_u64(7);
        let mut net = Mlp::new(&[1, 16, 1], Activation::Tanh, Activation::Linear, &mut rng);
        let mut opt = Adam::new(5e-3);
        let xs: Vec<f64> = (0..16).map(|i| i as f64 / 16.0 * 3.0).collect();
        let mut first = 0.0;
        let mut last = 0.0;
        for epoch in 0..400 {
            net.zero_grad();
            let mut total = 0.0;
            for &x in &xs {
                let y = net.forward(&[x]);
                let (l, g) = mse_loss(&y, &[x.sin()]);
                total += l;
                net.backward(&g);
            }
            net.adam_step(&mut opt, xs.len() as f64);
            if epoch == 0 {
                first = total;
            }
            last = total;
        }
        assert!(last < first / 10.0, "loss {first} → {last}");
    }

    #[test]
    fn adam_step_matches_plain_division_bit_for_bit() {
        // Gradients whose quotients are subnormal (3e-310, -5e-324, 1e-320,
        // 2.5e-308), huge (±1e300), signed zeros and 24 ordinary values,
        // at power-of-two scales (the reciprocal path) and others (the
        // division path), against the plain `g / scale` and the update's
        // expression tree: `w − (α_t·m) / (√v + ε_t)`.
        let special = [3e-310, -5e-324, 1e-320, 2.5e-308, 1e300, -1e300, -0.0, 0.0];
        let ordinary = (1..=24).map(|i| (i as f64 * 0.37).sin() * 10f64.powi(i % 5 - 2));
        let grads: Vec<f64> = special.into_iter().chain(ordinary).collect();
        for scale in [1.0, 2.0, 64.0, 0.125, 3.0, 23.0] {
            let mut rng = SmallRng::seed_from_u64(16);
            let mut net = Mlp::new(&[7, 4], Activation::Linear, Activation::Linear, &mut rng);
            let mut opt = Adam::new(1e-3);
            let mut w = Vec::new();
            net.for_each_param(|v| w.push(v));
            assert_eq!(w.len(), grads.len());
            let (mut m, mut v) = (vec![0.0; w.len()], vec![0.0; w.len()]);
            for t in 1..=2 {
                let l = &mut net.layers[0];
                l.gw.data_mut().copy_from_slice(&grads[..28]);
                l.gb.copy_from_slice(&grads[28..]);
                net.adam_step(&mut opt, scale);
                let bc1 = 1.0 - opt.beta1.powi(t);
                let bc2 = 1.0 - opt.beta2.powi(t);
                let alpha_t = opt.lr * bc2.sqrt() / bc1;
                let eps_t = opt.eps * bc2.sqrt();
                for i in 0..w.len() {
                    let g = grads[i] / scale;
                    m[i] = opt.beta1 * m[i] + (1.0 - opt.beta1) * g;
                    v[i] = opt.beta2 * v[i] + (1.0 - opt.beta2) * g * g;
                    w[i] -= alpha_t * m[i] / (v[i].sqrt() + eps_t);
                }
                let l = &net.layers[0];
                let got = |a: &Matrix, b: &[f64]| -> Vec<u64> {
                    a.data().iter().chain(b).map(|x| x.to_bits()).collect()
                };
                let want = |xs: &[f64]| -> Vec<u64> { xs.iter().map(|x| x.to_bits()).collect() };
                assert_eq!(got(&l.mw, &l.mb), want(&m), "first moments, scale {scale}");
                assert_eq!(got(&l.vw, &l.vb), want(&v), "second moments, scale {scale}");
                assert_eq!(
                    got(&l.w, &l.b),
                    want(&w),
                    "weights, scale {scale}, step {t}"
                );
            }
        }
    }

    #[test]
    fn soft_update_interpolates() {
        let mut rng = SmallRng::seed_from_u64(8);
        let a = Mlp::new(&[2, 3, 1], Activation::Relu, Activation::Linear, &mut rng);
        let b = Mlp::new(&[2, 3, 1], Activation::Relu, Activation::Linear, &mut rng);
        let mut t = a.clone();
        t.soft_update_from(&b, 1.0); // full copy
        let mut tb = Vec::new();
        t.for_each_param(|v| tb.push(v));
        let mut bb = Vec::new();
        b.for_each_param(|v| bb.push(v));
        assert_eq!(tb, bb);
        let mut t2 = a.clone();
        t2.soft_update_from(&b, 0.0); // no-op
        let mut t2v = Vec::new();
        t2.for_each_param(|v| t2v.push(v));
        let mut av = Vec::new();
        a.for_each_param(|v| av.push(v));
        assert_eq!(t2v, av);
    }

    #[test]
    fn sigmoid_head_bounds_output() {
        let mut rng = SmallRng::seed_from_u64(9);
        let mut net = Mlp::new(&[4, 8, 1], Activation::Relu, Activation::Sigmoid, &mut rng);
        for s in 0..20 {
            let x: Vec<f64> = (0..4).map(|i| ((s * 4 + i) as f64).sin() * 10.0).collect();
            let y = net.forward(&x)[0];
            assert!((0.0..=1.0).contains(&y));
        }
    }

    #[test]
    fn batched_forward_backward_is_bit_identical_to_per_sample() {
        let mut rng = SmallRng::seed_from_u64(14);
        let net = Mlp::new(&[4, 8, 6, 2], Activation::Relu, Activation::Tanh, &mut rng);
        let batch = 5;
        let xs: Vec<f64> = (0..batch * 4)
            .map(|i| ((i * 29) as f64 * 0.1).sin())
            .collect();
        let gs: Vec<f64> = (0..batch * 2)
            .map(|i| ((i * 17) as f64 * 0.1).cos())
            .collect();

        // Per-sample reference: forward, parameter backward and input
        // backward, one sample at a time in order.
        let mut a = net.clone();
        a.zero_grad();
        let mut ys = Vec::new();
        let mut dins = Vec::new();
        for s in 0..batch {
            ys.extend(a.forward(&xs[s * 4..(s + 1) * 4]));
            let g = &gs[s * 2..(s + 1) * 2];
            a.backward(g);
            dins.extend_from_slice(a.backward_input_only_batch(g));
        }

        // Batched: one forward and one of each backward over the stack.
        let mut b = net.clone();
        b.zero_grad();
        let yb = b.forward_batch(&xs, batch).to_vec();
        b.backward_batch(&gs);
        let db = b.backward_input_only_batch(&gs).to_vec();
        assert_eq!(yb, ys);
        assert_eq!(db, dins);
        for (la, lb) in a.layers.iter().zip(&b.layers) {
            assert_eq!(la.gw, lb.gw, "weight grads diverge");
            assert_eq!(la.gb, lb.gb, "bias grads diverge");
        }
    }

    #[test]
    fn interleaved_forward_backward_matches_batched_gradients() {
        // The DDPG critic regression interleaves forward(s)/backward(s)
        // per sample; gradients don't feed back into forward, so the
        // batched pass must accumulate the same totals.
        let mut rng = SmallRng::seed_from_u64(15);
        let net = Mlp::new(&[3, 6, 1], Activation::Relu, Activation::Linear, &mut rng);
        let batch = 4;
        let xs: Vec<f64> = (0..batch * 3).map(|i| (i as f64 * 0.3).sin()).collect();

        let mut a = net.clone();
        a.zero_grad();
        for s in 0..batch {
            let y = a.forward(&xs[s * 3..(s + 1) * 3])[0];
            a.backward(&[2.0 * y]);
        }

        let mut b = net.clone();
        b.zero_grad();
        let ys = b.forward_batch(&xs, batch).to_vec();
        let gs: Vec<f64> = ys.iter().map(|&y| 2.0 * y).collect();
        b.backward_batch(&gs);
        for (la, lb) in a.layers.iter().zip(&b.layers) {
            assert_eq!(la.gw, lb.gw);
            assert_eq!(la.gb, lb.gb);
        }
    }
}

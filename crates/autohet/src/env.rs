//! The RL environment: the paper's state space (Eq. 1 / Table 1), action
//! discretization, and reward (Eq. 2) over hardware feedback.
//!
//! One episode walks the model's layers in order. At step `k` the agent
//! observes the 10-dimensional state of layer `k`, emits a continuous
//! action in `(0,1)` that is discretized onto the candidate list, and the
//! episode reward — computed only when every layer has its assignment — is
//! the accelerator's utilization/energy ratio for the full configuration
//! (the paper feeds the same terminal reward back to every step, Eq. 3).
//!
//! The environment reads the model and the accelerator config from the
//! engine it is built on.

use autohet_accel::{EvalEngine, EvalReport};
use autohet_dnn::Model;
use autohet_xbar::XbarShape;
use std::sync::Arc;

/// The search environment for one engine + candidate set.
#[derive(Debug, Clone)]
pub struct AutoHetEnv {
    candidates: Vec<XbarShape>,
    /// Memoized evaluator, and the owner of the model and config under
    /// search; `Arc` so several searches (e.g. multi-seed workers or
    /// ablation stages with a common config) can share one memo table.
    /// Cached results are bit-identical to direct `evaluate()`, so
    /// sharing never changes any outcome.
    engine: Arc<EvalEngine>,
    maxima: Maxima,
    /// Reward normalizer: raw RUE is divided by this so rewards sit in a
    /// well-conditioned O(1) range. The paper uses raw `u/e` (tiny but
    /// positive); normalization rescales without changing the argmax.
    reward_scale: f64,
    /// Objective exponents `(α, β)`: reward ∝ `u^α / e^β`. The paper's
    /// Eq. 2 is `(1, 1)`; other weights trace the utilization/energy
    /// Pareto front (see `crate::pareto`).
    weights: (f64, f64),
}

#[derive(Debug, Clone, Copy)]
struct Maxima {
    inc: f64,
    outc: f64,
    ks: f64,
    stride: f64,
    weights: f64,
    ins: f64,
}

impl AutoHetEnv {
    /// Build the environment on an existing (possibly shared) evaluation
    /// engine, which supplies the model and config under search, with
    /// objective exponents `(α, β)`: reward ∝ `u^α/e^β`, where `(1, 1)`
    /// is the paper's Eq. 2. `candidates` must be non-empty.
    pub fn new(engine: Arc<EvalEngine>, candidates: &[XbarShape], weights: (f64, f64)) -> Self {
        assert!(!candidates.is_empty());
        let fm = engine.model().feature_maxima();
        let maxima = Maxima {
            inc: fm.in_channels as f64,
            outc: fm.out_channels as f64,
            ks: fm.kernel_elems as f64,
            stride: fm.stride as f64,
            weights: fm.weights as f64,
            ins: fm.in_size as f64,
        };
        assert!(
            weights.0 > 0.0 && weights.1 > 0.0,
            "exponents must be positive"
        );
        let mut env = AutoHetEnv {
            candidates: candidates.to_vec(),
            engine,
            maxima,
            reward_scale: 1.0,
            weights,
        };
        // Normalize rewards by a fixed reference configuration: the middle
        // candidate applied homogeneously.
        let mid = candidates[candidates.len() / 2];
        let reference = env.evaluate_strategy(&vec![mid; env.num_layers()]);
        env.reward_scale = env.raw_objective(&reference).max(f64::MIN_POSITIVE);
        env
    }

    /// `u^α / e^β` before normalization.
    fn raw_objective(&self, report: &EvalReport) -> f64 {
        report.utilization_pct().powf(self.weights.0) / report.energy_nj().powf(self.weights.1)
    }

    /// Number of steps per episode.
    pub fn num_layers(&self) -> usize {
        self.model().layers.len()
    }

    /// The candidate list (action space).
    pub fn candidates(&self) -> &[XbarShape] {
        &self.candidates
    }

    /// Model under search, as the engine holds it.
    pub fn model(&self) -> &Model {
        self.engine.model()
    }

    /// Discretize a continuous action in `[0,1]` onto a candidate index
    /// (the HAQ-style mapping).
    pub fn action_to_index(&self, action: f64) -> usize {
        let c = self.candidates.len();
        ((action.clamp(0.0, 1.0) * (c - 1) as f64).round() as usize).min(c - 1)
    }

    /// Candidate shape for a continuous action.
    pub fn action_to_shape(&self, action: f64) -> XbarShape {
        self.candidates[self.action_to_index(action)]
    }

    /// The 10-dimensional state of layer `k` (paper Eq. 1 / Table 1), all
    /// features normalized to `[0,1]`. The two dynamic features — the
    /// action and per-layer utilization — describe the *previous* decision
    /// (zero at the first step), which is how a step-wise agent can
    /// actually observe them.
    pub fn state(&self, k: usize, prev_action: f64, prev_util: f64) -> Vec<f64> {
        let layers = &self.model().layers;
        let l = &layers[k];
        let n = layers.len();
        vec![
            k as f64 / (n - 1).max(1) as f64,
            l.kind.as_state(),
            l.in_channels as f64 / self.maxima.inc,
            l.out_channels as f64 / self.maxima.outc,
            l.kernel_elems() as f64 / self.maxima.ks,
            l.stride as f64 / self.maxima.stride,
            l.num_weights() as f64 / self.maxima.weights,
            l.in_size as f64 / self.maxima.ins,
            prev_action,
            prev_util,
        ]
    }

    /// Eq. 4 utilization of layer `k` under a continuous action — the
    /// dynamic state feature `u_k`.
    pub fn layer_utilization(&self, k: usize, action: f64) -> f64 {
        autohet_xbar::utilization::utilization(
            &self.model().layers[k],
            self.action_to_shape(action),
        )
    }

    /// Full hardware feedback for a complete strategy, served through the
    /// memoized engine (bit-identical to direct `evaluate()`).
    pub fn evaluate_strategy(&self, strategy: &[XbarShape]) -> EvalReport {
        self.engine.evaluate(strategy)
    }

    /// The memoized evaluation engine backing this environment.
    pub fn engine(&self) -> &Arc<EvalEngine> {
        &self.engine
    }

    /// Episode reward (Eq. 2 at the default `(1,1)` weights: `R = u / e`,
    /// normalized — see `reward_scale`).
    pub fn reward(&self, report: &EvalReport) -> f64 {
        self.raw_objective(report) / self.reward_scale
    }

    /// Decode a whole episode's continuous actions into a strategy.
    pub fn decode(&self, actions: &[f64]) -> Vec<XbarShape> {
        assert_eq!(actions.len(), self.num_layers());
        actions.iter().map(|&a| self.action_to_shape(a)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use autohet_accel::AccelConfig;
    use autohet_dnn::zoo;
    use autohet_xbar::geometry::paper_hybrid_candidates;

    fn env() -> AutoHetEnv {
        let engine = Arc::new(EvalEngine::new(zoo::micro_cnn(), AccelConfig::default()));
        AutoHetEnv::new(engine, &paper_hybrid_candidates(), (1.0, 1.0))
    }

    #[test]
    fn state_is_ten_dimensional_and_normalized() {
        let e = env();
        for k in 0..e.num_layers() {
            let s = e.state(k, 0.5, 0.8);
            assert_eq!(s.len(), 10);
            assert!(s.iter().all(|v| (0.0..=1.0).contains(v)), "{s:?}");
        }
    }

    #[test]
    fn fc_layers_have_t_zero() {
        let e = env();
        // micro_cnn: layers 2 and 3 are FC.
        assert_eq!(e.state(2, 0.0, 0.0)[1], 0.0);
        assert_eq!(e.state(0, 0.0, 0.0)[1], 1.0);
    }

    #[test]
    fn action_discretization_covers_all_candidates() {
        let e = env();
        let c = e.candidates().len();
        let mut seen = std::collections::HashSet::new();
        for i in 0..=100 {
            seen.insert(e.action_to_index(i as f64 / 100.0));
        }
        assert_eq!(seen.len(), c);
        assert_eq!(e.action_to_index(0.0), 0);
        assert_eq!(e.action_to_index(1.0), c - 1);
        // Out-of-range actions clamp.
        assert_eq!(e.action_to_index(7.0), c - 1);
        assert_eq!(e.action_to_index(-3.0), 0);
    }

    #[test]
    fn reward_is_normalized_to_order_one() {
        let e = env();
        let mid = e.candidates()[e.candidates().len() / 2];
        let r = e.evaluate_strategy(&vec![mid; e.num_layers()]);
        assert!((e.reward(&r) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn better_strategies_get_higher_reward() {
        let e = env();
        let all = paper_hybrid_candidates();
        let worst = e.evaluate_strategy(&vec![all[0]; e.num_layers()]);
        let best = (0..all.len())
            .map(|i| e.evaluate_strategy(&vec![all[i]; e.num_layers()]))
            .map(|r| e.reward(&r))
            .fold(f64::MIN, f64::max);
        assert!(best >= e.reward(&worst));
    }

    #[test]
    fn decode_roundtrips_indices() {
        let e = env();
        let actions = vec![0.0, 0.25, 0.5, 1.0];
        let strategy = e.decode(&actions);
        assert_eq!(strategy.len(), 4);
        assert_eq!(strategy[0], e.candidates()[0]);
        assert_eq!(strategy[3], *e.candidates().last().unwrap());
    }

    #[test]
    fn evaluate_strategy_matches_direct_evaluate_and_caches() {
        let e = env();
        let strategy = vec![e.candidates()[0]; e.num_layers()];
        let direct = autohet_accel::evaluate(e.model(), &strategy, e.engine().config());
        let before = e.engine().stats();
        assert_eq!(e.evaluate_strategy(&strategy), direct);
        assert_eq!(e.evaluate_strategy(&strategy), direct);
        let delta = e.engine().stats().since(&before);
        assert!(
            delta.strategy_hits >= 1,
            "repeat evaluation should hit the cache"
        );
    }

    #[test]
    fn layer_utilization_matches_eq4() {
        let e = env();
        let u = e.layer_utilization(0, 0.0);
        let direct =
            autohet_xbar::utilization::utilization(&e.model().layers[0], e.candidates()[0]);
        assert_eq!(u, direct);
    }
}

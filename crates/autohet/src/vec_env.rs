//! Lockstep vectorized environments for the batched DDPG search.
//!
//! [`VecEnv`] steps `lanes` episodes of one [`AutoHetEnv`] in lockstep: at
//! layer step `k` it stacks every active lane's 10-dim state into one
//! feature-major buffer (so the agent can run a single batched actor GEMM
//! across the group), applies the returned per-lane actions, and at the
//! end of a group evaluates the completed strategies in lane order
//! against one memoized `Arc<EvalEngine>`.
//!
//! Determinism contract: lanes are always visited in ascending order,
//! evaluations included, so a seeded driver that consumes RNG per lane in
//! the same ascending order is bit-reproducible, engine counters and
//! strategy-cache evictions included — and at one lane the whole
//! apparatus reduces exactly to the sequential per-episode loop (see
//! DESIGN.md §10).

use crate::env::AutoHetEnv;
use autohet_accel::EvalReport;
use autohet_xbar::XbarShape;

/// One completed lane episode, handed back by [`VecEnv::finish`] in lane
/// order. State buffers are moved out (not cloned) so the driver can feed
/// them straight into the replay pool.
#[derive(Debug, Clone)]
pub struct VecEpisode {
    /// Decoded per-layer crossbar assignment.
    pub strategy: Vec<XbarShape>,
    /// Hardware feedback for the full strategy.
    pub report: EvalReport,
    /// Normalized Eq. 2 reward shared by every step of the episode.
    pub reward: f64,
    /// Per-step states; index `n` is the terminal state (`n+1` entries).
    pub states: Vec<Vec<f64>>,
    /// Continuous per-layer actions (`n` entries).
    pub actions: Vec<f64>,
}

/// `lanes` lockstep episodes of one environment over a shared engine.
#[derive(Debug, Clone)]
pub struct VecEnv {
    env: AutoHetEnv,
    active: usize,
    prev_a: Vec<f64>,
    prev_u: Vec<f64>,
    states: Vec<Vec<Vec<f64>>>,
    actions: Vec<Vec<f64>>,
}

impl VecEnv {
    /// Step `lanes` lockstep episodes of `env`. The environment is
    /// immutable, so every lane reads the same one and the same
    /// `Arc<EvalEngine>` memo table: a lane reuses what earlier lanes
    /// evaluated.
    pub fn new(env: &AutoHetEnv, lanes: usize) -> Self {
        assert!(lanes >= 1, "need at least one lane");
        VecEnv {
            env: env.clone(),
            active: 0,
            prev_a: vec![0.0; lanes],
            prev_u: vec![0.0; lanes],
            states: vec![Vec::new(); lanes],
            actions: vec![Vec::new(); lanes],
        }
    }

    /// Total lane count.
    pub fn lanes(&self) -> usize {
        self.prev_a.len()
    }

    /// Steps per episode.
    pub fn num_layers(&self) -> usize {
        self.env.num_layers()
    }

    /// Start a new lockstep group of `active ≤ lanes` episodes.
    pub fn begin(&mut self, active: usize) {
        assert!(active >= 1 && active <= self.lanes());
        self.active = active;
        for l in 0..active {
            self.prev_a[l] = 0.0;
            self.prev_u[l] = 0.0;
            self.states[l].clear();
            self.actions[l].clear();
        }
    }

    /// Stack the step-`k` states of all active lanes into `out`
    /// (batch-major `active × 10`), recording each lane's copy for the
    /// replay pool. Lanes are visited in ascending order.
    pub fn observe_step(&mut self, k: usize, out: &mut Vec<f64>) {
        out.clear();
        for l in 0..self.active {
            let s = self.env.state(k, self.prev_a[l], self.prev_u[l]);
            out.extend_from_slice(&s);
            self.states[l].push(s);
        }
    }

    /// Apply one action per active lane at step `k`, updating the dynamic
    /// state features (previous action, Eq. 4 utilization).
    pub fn apply_step(&mut self, k: usize, actions: &[f64]) {
        assert_eq!(actions.len(), self.active);
        for (l, &a) in actions.iter().enumerate() {
            self.prev_a[l] = a;
            self.prev_u[l] = self.env.layer_utilization(k, a);
            self.actions[l].push(a);
        }
    }

    /// Close the group: record terminal states, decode and evaluate every
    /// lane's strategy in lane order on the calling thread (a memo miss
    /// costs less than a thread spawn, and the order fixes the engine's
    /// counters and evictions), and hand back the completed episodes in
    /// lane order with their state/action buffers moved out.
    pub fn finish(&mut self) -> Vec<VecEpisode> {
        let n = self.num_layers();
        let env = &self.env;
        (0..self.active)
            .map(|l| {
                assert_eq!(self.actions[l].len(), n, "finish before all steps");
                let mut states = std::mem::take(&mut self.states[l]);
                states.push(env.state(n - 1, self.prev_a[l], self.prev_u[l]));
                let strategy = env.decode(&self.actions[l]);
                let report = env.evaluate_strategy(&strategy);
                VecEpisode {
                    reward: env.reward(&report),
                    strategy,
                    report,
                    states,
                    actions: std::mem::take(&mut self.actions[l]),
                }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use autohet_accel::{AccelConfig, EvalEngine};
    use autohet_dnn::zoo;
    use autohet_xbar::geometry::paper_hybrid_candidates;
    use std::sync::Arc;

    fn env() -> AutoHetEnv {
        let engine = Arc::new(EvalEngine::new(zoo::micro_cnn(), AccelConfig::default()));
        AutoHetEnv::new(engine, &paper_hybrid_candidates(), (1.0, 1.0))
    }

    fn run_group(
        v: &mut VecEnv,
        active: usize,
        act: impl Fn(usize, usize) -> f64,
    ) -> Vec<VecEpisode> {
        let n = v.num_layers();
        let mut flat = Vec::new();
        let mut acts = Vec::new();
        v.begin(active);
        for k in 0..n {
            v.observe_step(k, &mut flat);
            assert_eq!(flat.len(), active * 10);
            acts.clear();
            acts.extend((0..active).map(|l| act(l, k)));
            v.apply_step(k, &acts);
        }
        v.finish()
    }

    #[test]
    fn lanes_share_one_engine() {
        // Every lane evaluates on the env's engine: one 4-lane group
        // counts 4 strategy lookups there.
        let e = env();
        let mut v = VecEnv::new(&e, 4);
        assert_eq!(v.lanes(), 4);
        let before = e.engine().stats();
        run_group(&mut v, 4, |l, k| (l as f64 * 0.17 + k as f64 * 0.05) % 1.0);
        let delta = e.engine().stats().since(&before);
        assert_eq!(delta.strategy_hits + delta.strategy_misses, 4);
    }

    #[test]
    fn single_lane_matches_sequential_walk() {
        // One lane through VecEnv == the plain sequential episode loop.
        let e = env();
        let n = e.num_layers();
        let action = |_: usize, k: usize| (k as f64 * 0.31) % 1.0;

        let mut prev_a = 0.0;
        let mut prev_u = 0.0;
        let mut seq_states = Vec::new();
        let mut seq_actions = Vec::new();
        for k in 0..n {
            seq_states.push(e.state(k, prev_a, prev_u));
            let a = action(0, k);
            prev_a = a;
            prev_u = e.layer_utilization(k, a);
            seq_actions.push(a);
        }
        seq_states.push(e.state(n - 1, prev_a, prev_u));
        let seq_strategy = e.decode(&seq_actions);
        let seq_report = e.evaluate_strategy(&seq_strategy);

        let mut v = VecEnv::new(&e, 1);
        let eps = run_group(&mut v, 1, action);
        assert_eq!(eps.len(), 1);
        assert_eq!(eps[0].states, seq_states);
        assert_eq!(eps[0].actions, seq_actions);
        assert_eq!(eps[0].strategy, seq_strategy);
        assert_eq!(eps[0].report, seq_report);
        assert_eq!(eps[0].reward.to_bits(), e.reward(&seq_report).to_bits());
    }

    #[test]
    fn lanes_come_back_in_order_and_match_sequential_evaluation() {
        let e = env();
        let mut v = VecEnv::new(&e, 3);
        let act = |l: usize, k: usize| ((l + 1) as f64 * 0.2 + k as f64 * 0.1) % 1.0;
        let eps = run_group(&mut v, 3, act);
        assert_eq!(eps.len(), 3);
        for (l, ep) in eps.iter().enumerate() {
            let n = e.num_layers();
            assert_eq!(ep.states.len(), n + 1);
            assert_eq!(ep.actions.len(), n);
            let expected: Vec<f64> = (0..n).map(|k| act(l, k)).collect();
            assert_eq!(ep.actions, expected);
            assert_eq!(ep.report, e.evaluate_strategy(&ep.strategy));
            assert_eq!(ep.reward.to_bits(), e.reward(&ep.report).to_bits());
        }
    }

    #[test]
    fn partial_groups_and_reuse() {
        // A VecEnv can run a smaller trailing group and be reused.
        let e = env();
        let mut v = VecEnv::new(&e, 4);
        let a = run_group(&mut v, 4, |l, k| (l as f64 * 0.17 + k as f64 * 0.05) % 1.0);
        assert_eq!(a.len(), 4);
        let b = run_group(&mut v, 2, |l, k| (l as f64 * 0.17 + k as f64 * 0.05) % 1.0);
        assert_eq!(b.len(), 2);
        // Same action schedule ⇒ same outcome for the matching lanes.
        for (x, y) in a.iter().take(2).zip(&b) {
            assert_eq!(x.report, y.report);
            assert_eq!(x.states, y.states);
        }
    }
}

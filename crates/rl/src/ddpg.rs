//! Deep Deterministic Policy Gradient (the paper's agent, §3.2).
//!
//! Actor `μ(s) ∈ (0,1)` (sigmoid head) and critic `Q(s, a)` with Polyak-
//! averaged target copies. Per train step, a minibatch from the experience
//! pool drives:
//!
//! - critic regression toward the TD target
//!   `y = r + γ·Q'(s', μ'(s'))·(1 − done)`,
//! - the deterministic policy gradient for the actor:
//!   ascend `Q(s, μ(s))` by backpropagating `∂Q/∂a` through the actor,
//! - soft target updates `θ' ← τθ + (1−τ)θ'`.
//!
//! The continuous action is discretized by the environment (the AutoHet
//! search maps `(0,1)` onto the crossbar-candidate index, the same recipe
//! HAQ-style RL-for-architecture works use).

use crate::nn::{Activation, Adam, Mlp};
use crate::noise::OuNoise;
use crate::replay::{Experience, ReplayBuffer};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::time::{Duration, Instant};

/// Agent hyperparameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DdpgConfig {
    /// State vector dimension (the paper's Eq. 1 state is 10-dim; ≥ 1).
    pub state_dim: usize,
    /// Hidden width of both MLPs (≥ 1).
    pub hidden: usize,
    /// Actor learning rate (finite, > 0).
    pub actor_lr: f64,
    /// Critic learning rate (finite, > 0).
    pub critic_lr: f64,
    /// Discount factor, in `[0, 1]`.
    pub gamma: f64,
    /// Soft-update coefficient, in `(0, 1]`.
    pub tau: f64,
    /// Minibatch size (≥ 1).
    pub batch: usize,
    /// Experience-pool capacity (≥ `batch`).
    pub pool: usize,
    /// RNG seed (weights, sampling, exploration).
    pub seed: u64,
}

impl Default for DdpgConfig {
    fn default() -> Self {
        DdpgConfig {
            state_dim: 10,
            hidden: 64,
            actor_lr: 1e-3,
            critic_lr: 2e-3,
            gamma: 0.99,
            tau: 0.01,
            batch: 64,
            pool: 4096,
            seed: 0,
        }
    }
}

/// Diagnostics from one training step.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrainStats {
    /// Mean squared TD error of the critic batch.
    pub critic_loss: f64,
    /// Mean `Q(s, μ(s))` of the batch (the actor objective).
    pub actor_q: f64,
}

/// Where [`Ddpg::train_step`] spent its time, accumulated over the
/// updates that ran. `steps` is a deterministic count; the durations are
/// wall-clock timings, so they differ from run to run and must never be
/// compared for equality.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct TrainProfile {
    /// Updates that ran (`train_step` calls that returned `Some`).
    pub steps: u64,
    /// Wall-clock in the five forward passes per update, with minibatch
    /// sampling, staging and the TD targets.
    pub forward: Duration,
    /// Wall-clock in the two parameter-gradient backward passes and the
    /// one input-only pass per update, with the loss gradients.
    pub backward: Duration,
    /// Wall-clock in the two Adam steps and the soft target updates.
    pub optimizer: Duration,
}

/// Charges the wall-clock since its previous lap to one phase.
struct Lap(Instant);

impl Lap {
    fn to(&mut self, phase: &mut Duration) {
        let now = Instant::now();
        *phase += now - self.0;
        self.0 = now;
    }
}

/// The DDPG agent.
///
/// ```
/// use autohet_rl::{Ddpg, DdpgConfig, Experience, OuNoise};
///
/// let mut agent = Ddpg::new(DdpgConfig { state_dim: 2, batch: 8, ..DdpgConfig::default() });
/// let mut noise = OuNoise::new(0.3, 0.99, 0.02);
/// let state = vec![0.1, 0.9];
/// let action = agent.act_noisy(&state, &mut noise);
/// assert!((0.0..=1.0).contains(&action));
/// agent.remember(Experience {
///     state: state.clone(),
///     next_state: state,
///     action,
///     reward: 1.0,
///     done: true,
/// });
/// assert!(agent.train_step().is_none()); // pool smaller than one batch
/// ```
#[derive(Debug, Clone)]
pub struct Ddpg {
    cfg: DdpgConfig,
    actor: Mlp,
    critic: Mlp,
    actor_target: Mlp,
    critic_target: Mlp,
    actor_opt: Adam,
    critic_opt: Adam,
    /// The experience pool (public so drivers can inspect fill level).
    pub replay: ReplayBuffer,
    rng: SmallRng,
    scratch: TrainScratch,
    profile: TrainProfile,
}

/// Reusable flat batch buffers for [`Ddpg::train_step`] — the minibatch
/// is stacked batch-major once per pass instead of cloning per sample.
#[derive(Debug, Clone, Default)]
struct TrainScratch {
    /// Stacked states / next-states (`batch × state_dim`).
    states: Vec<f64>,
    /// Stacked critic inputs (`batch × (state_dim + 1)`).
    critic_in: Vec<f64>,
    /// TD targets (`batch`).
    targets: Vec<f64>,
    /// Stacked output gradients.
    grads: Vec<f64>,
    /// Per-sample `∂Q/∂a` extracted from the critic's input gradient.
    dq_da: Vec<f64>,
}

/// Panic, naming the field, unless the settings every minibatch agent
/// shares can train: a batch of at least one transition that the pool can
/// hold, non-empty layers, a discount in `[0, 1]` and a soft-update rate
/// in `(0, 1]`. A pool smaller than its batch would never train, and a
/// zero batch would panic mid-run.
pub(crate) fn validate_agent(
    batch: usize,
    pool: usize,
    hidden: usize,
    state_dim: usize,
    gamma: f64,
    tau: f64,
) {
    assert!(batch >= 1, "batch must be at least 1, got 0");
    assert!(
        pool >= batch,
        "pool must hold at least one batch, got pool {pool} < batch {batch}"
    );
    assert!(hidden >= 1, "hidden must be at least 1, got 0");
    assert!(state_dim >= 1, "state_dim must be at least 1, got 0");
    assert!(
        (0.0..=1.0).contains(&gamma),
        "gamma must lie in [0, 1], got {gamma}"
    );
    assert!(tau > 0.0 && tau <= 1.0, "tau must lie in (0, 1], got {tau}");
}

/// Panic unless the learning rate `name` is finite and positive.
pub(crate) fn validate_lr(name: &str, lr: f64) {
    assert!(
        lr.is_finite() && lr > 0.0,
        "{name} must be finite and positive, got {lr}"
    );
}

impl DdpgConfig {
    /// Panic, naming the field, unless the configuration can train: the
    /// shared agent rules ([`validate_agent`]) and finite positive
    /// learning rates.
    fn validate(&self) {
        validate_agent(
            self.batch,
            self.pool,
            self.hidden,
            self.state_dim,
            self.gamma,
            self.tau,
        );
        validate_lr("actor_lr", self.actor_lr);
        validate_lr("critic_lr", self.critic_lr);
    }
}

impl Ddpg {
    /// Build an agent; target networks start as exact copies. Panics on a
    /// configuration that cannot train (see the field rules on
    /// [`DdpgConfig`]): before any work, with a message naming the field.
    pub fn new(cfg: DdpgConfig) -> Self {
        cfg.validate();
        let mut rng = SmallRng::seed_from_u64(cfg.seed ^ 0xDD9C);
        let actor = Mlp::new(
            &[cfg.state_dim, cfg.hidden, cfg.hidden, 1],
            Activation::Relu,
            Activation::Sigmoid,
            &mut rng,
        );
        let critic = Mlp::new(
            &[cfg.state_dim + 1, cfg.hidden, cfg.hidden, 1],
            Activation::Relu,
            Activation::Linear,
            &mut rng,
        );
        Ddpg {
            actor_target: actor.clone(),
            critic_target: critic.clone(),
            actor_opt: Adam::new(cfg.actor_lr),
            critic_opt: Adam::new(cfg.critic_lr),
            replay: ReplayBuffer::new(cfg.pool),
            actor,
            critic,
            rng,
            cfg,
            scratch: TrainScratch::default(),
            profile: TrainProfile::default(),
        }
    }

    /// Agent configuration.
    pub fn config(&self) -> &DdpgConfig {
        &self.cfg
    }

    /// The phase profile of every update so far.
    pub fn train_profile(&self) -> TrainProfile {
        self.profile
    }

    /// Deterministic action `μ(s) ∈ (0,1)`.
    pub fn act(&mut self, state: &[f64]) -> f64 {
        self.actor.forward(state)[0]
    }

    /// Exploratory action: `clamp(μ(s) + OU noise, 0, 1)`.
    pub fn act_noisy(&mut self, state: &[f64], noise: &mut OuNoise) -> f64 {
        let a = self.act(state) + noise.sample(&mut self.rng);
        a.clamp(0.0, 1.0)
    }

    /// Deterministic actions for a stacked batch of states (batch-major
    /// `batch × state_dim`): one feature-major GEMM through the actor
    /// instead of `batch` matvecs. Each output is bit-identical to a
    /// per-state [`Ddpg::act`] call.
    pub fn act_batch(&mut self, states: &[f64], batch: usize) -> &[f64] {
        self.actor.forward_batch_infer(states, batch)
    }

    /// Exploratory actions for a stacked batch with one OU process per
    /// lane: a single batched actor pass, then per-lane noise drawn from
    /// the agent's RNG in ascending lane order — the fixed interleave
    /// that keeps seeded vectorized searches reproducible. With one lane
    /// the output is bit-identical to [`Ddpg::act_noisy`] (same forward
    /// values, same two RNG draws).
    pub fn act_noisy_batch(&mut self, states: &[f64], noises: &mut [OuNoise], out: &mut Vec<f64>) {
        let b = noises.len();
        self.actor.forward_batch_infer(states, b);
        out.clear();
        for (mu, n) in self.actor.last_output().iter().zip(noises.iter_mut()) {
            out.push((mu + n.sample(&mut self.rng)).clamp(0.0, 1.0));
        }
    }

    /// One OU draw from the agent's RNG — the same generator
    /// [`Ddpg::act_noisy`] consumes. Vectorized drivers combine this
    /// with [`Ddpg::act_batch`] when a lockstep group mixes warm-up and
    /// actor-driven lanes but must keep the sequential draw order.
    pub fn noise_sample(&mut self, noise: &mut OuNoise) -> f64 {
        noise.sample(&mut self.rng)
    }

    /// Store one transition.
    pub fn remember(&mut self, e: Experience) {
        self.replay.push(e);
    }

    /// Critic value for an explicit state-action pair.
    pub fn q_value(&mut self, state: &[f64], action: f64) -> f64 {
        let mut input = state.to_vec();
        input.push(action);
        self.critic.forward(&input)[0]
    }

    /// One minibatch update of critic, actor and targets. Returns `None`
    /// until the pool holds at least one batch.
    ///
    /// The whole pass is batched over the minibatch through the GEMM
    /// kernels (DESIGN.md §9): one target-network evaluation, one critic
    /// regression and one policy-gradient pass, each a single
    /// forward/backward over the stacked batch. Gradient accumulation
    /// keeps ascending batch order, so every update is bit-identical to
    /// the per-sample formulation — seeded searches are unchanged.
    pub fn train_step(&mut self) -> Option<TrainStats> {
        if self.replay.len() < self.cfg.batch {
            return None;
        }
        let mut lap = Lap(Instant::now());
        // Borrow the sampled transitions in place — the networks and the
        // pool are disjoint fields, so nothing needs cloning.
        let batch = self.replay.sample(self.cfg.batch, &mut self.rng);
        let n = batch.len() as f64;
        let b = batch.len();
        let sd = self.cfg.state_dim;
        let mut sc = std::mem::take(&mut self.scratch);

        // ---- Critic: regress toward the TD target.
        // Targets from the target networks, one batched pass each.
        sc.states.clear();
        for e in &batch {
            sc.states.extend_from_slice(&e.next_state);
        }
        self.actor_target.forward_batch_infer(&sc.states, b);
        sc.critic_in.clear();
        for (e, a_next) in batch.iter().zip(self.actor_target.last_output()) {
            sc.critic_in.extend_from_slice(&e.next_state);
            sc.critic_in.push(*a_next);
        }
        let q_next = self.critic_target.forward_batch_infer(&sc.critic_in, b);
        sc.targets.clear();
        for (e, &qn) in batch.iter().zip(q_next) {
            let y = e.reward + if e.done { 0.0 } else { self.cfg.gamma * qn };
            sc.targets.push(y);
        }
        sc.critic_in.clear();
        for e in &batch {
            sc.critic_in.extend_from_slice(&e.state);
            sc.critic_in.push(e.action);
        }
        self.critic.zero_grad();
        let q = self.critic.forward_batch(&sc.critic_in, b);
        let mut critic_loss = 0.0;
        sc.grads.clear();
        for (&q, &y) in q.iter().zip(&sc.targets) {
            let err = q - y;
            critic_loss += err * err;
            sc.grads.push(2.0 * err);
        }
        critic_loss /= n;
        lap.to(&mut self.profile.forward);
        self.critic.backward_batch(&sc.grads);
        lap.to(&mut self.profile.backward);
        self.critic.adam_step(&mut self.critic_opt, n);
        lap.to(&mut self.profile.optimizer);

        // ---- Actor: ascend Q(s, μ(s)).
        self.actor.zero_grad();
        sc.states.clear();
        for e in &batch {
            sc.states.extend_from_slice(&e.state);
        }
        self.actor.forward_batch(&sc.states, b);
        sc.critic_in.clear();
        for (e, a) in batch.iter().zip(self.actor.last_output()) {
            sc.critic_in.extend_from_slice(&e.state);
            sc.critic_in.push(*a);
        }
        let q = self.critic.forward_batch_infer(&sc.critic_in, b);
        let actor_q = q.iter().sum::<f64>() / n;
        lap.to(&mut self.profile.forward);
        // dQ/d(input); gradient ascent on Q ⇒ loss = -Q. The critic's
        // parameter gradients would be discarded, so propagate the input
        // gradient only.
        sc.grads.clear();
        sc.grads.resize(b, -1.0);
        let din = self.critic.backward_input_only_batch(&sc.grads);
        sc.dq_da.clear();
        sc.dq_da.extend(din.chunks(sd + 1).map(|d| d[sd]));
        self.actor.backward_batch(&sc.dq_da);
        lap.to(&mut self.profile.backward);
        self.actor.adam_step(&mut self.actor_opt, n);

        // ---- Soft target updates.
        self.actor_target
            .soft_update_from(&self.actor, self.cfg.tau);
        self.critic_target
            .soft_update_from(&self.critic, self.cfg.tau);
        lap.to(&mut self.profile.optimizer);
        self.profile.steps += 1;

        self.scratch = sc;
        Some(TrainStats {
            critic_loss,
            actor_q,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn actions_are_bounded() {
        let mut agent = Ddpg::new(DdpgConfig {
            state_dim: 3,
            ..DdpgConfig::default()
        });
        let mut noise = OuNoise::new(0.8, 1.0, 0.0);
        for i in 0..50 {
            let s = vec![i as f64 * 0.1, -1.0, 2.0];
            let a = agent.act(&s);
            assert!((0.0..=1.0).contains(&a));
            let an = agent.act_noisy(&s, &mut noise);
            assert!((0.0..=1.0).contains(&an));
        }
    }

    #[test]
    fn train_needs_a_full_batch() {
        let mut agent = Ddpg::new(DdpgConfig {
            state_dim: 2,
            batch: 8,
            ..DdpgConfig::default()
        });
        assert!(agent.train_step().is_none());
        for i in 0..8 {
            agent.remember(Experience {
                state: vec![i as f64, 0.0],
                next_state: vec![i as f64 + 1.0, 0.0],
                action: 0.5,
                reward: 0.1,
                done: i == 7,
            });
        }
        assert!(agent.train_step().is_some());
    }

    #[test]
    fn train_profile_counts_only_updates_that_ran() {
        let mut agent = Ddpg::new(DdpgConfig {
            state_dim: 2,
            batch: 8,
            ..DdpgConfig::default()
        });
        assert!(agent.train_step().is_none());
        assert_eq!(agent.train_profile(), TrainProfile::default());
        for i in 0..8 {
            agent.remember(Experience {
                state: vec![i as f64, 0.0],
                next_state: vec![i as f64 + 1.0, 0.0],
                action: 0.5,
                reward: 0.1,
                done: i == 7,
            });
        }
        for _ in 0..3 {
            assert!(agent.train_step().is_some());
        }
        assert_eq!(agent.train_profile().steps, 3);
    }

    #[test]
    fn solves_a_continuous_bandit() {
        // One-step episodes, reward 1 − (a − 0.7)²: the actor must move
        // its deterministic action toward 0.7.
        let mut agent = Ddpg::new(DdpgConfig {
            state_dim: 1,
            hidden: 32,
            batch: 32,
            actor_lr: 3e-3,
            critic_lr: 5e-3,
            seed: 42,
            ..DdpgConfig::default()
        });
        let mut noise = OuNoise::new(0.4, 0.995, 0.02);
        let state = vec![1.0];
        for _ in 0..600 {
            let a = agent.act_noisy(&state, &mut noise);
            let r = 1.0 - (a - 0.7) * (a - 0.7);
            agent.remember(Experience {
                state: state.clone(),
                next_state: state.clone(),
                action: a,
                reward: r,
                done: true,
            });
            noise.end_episode();
            agent.train_step();
        }
        let a = agent.act(&state);
        assert!((a - 0.7).abs() < 0.15, "converged to {a}");
    }

    #[test]
    fn critic_loss_decreases_on_fixed_data() {
        let mut agent = Ddpg::new(DdpgConfig {
            state_dim: 2,
            batch: 16,
            seed: 7,
            ..DdpgConfig::default()
        });
        for i in 0..64 {
            let s = vec![(i % 8) as f64 / 8.0, ((i / 8) % 8) as f64 / 8.0];
            agent.remember(Experience {
                state: s.clone(),
                next_state: s.clone(),
                action: (i % 4) as f64 / 4.0,
                reward: s[0] * 0.5,
                done: true,
            });
        }
        let first = agent.train_step().unwrap().critic_loss;
        let mut last = first;
        for _ in 0..200 {
            last = agent.train_step().unwrap().critic_loss;
        }
        assert!(last < first, "critic loss {first} → {last}");
    }

    #[test]
    fn act_batch_matches_per_state_act() {
        let mut a = Ddpg::new(DdpgConfig {
            state_dim: 4,
            seed: 11,
            ..DdpgConfig::default()
        });
        let mut b = a.clone();
        let states: Vec<Vec<f64>> = (0..7)
            .map(|i| (0..4).map(|j| ((i * 4 + j) as f64).sin()).collect())
            .collect();
        let flat: Vec<f64> = states.iter().flatten().copied().collect();
        let batched = a.act_batch(&flat, 7).to_vec();
        for (s, &mu) in states.iter().zip(&batched) {
            assert_eq!(b.act(s).to_bits(), mu.to_bits());
        }
    }

    #[test]
    fn act_noisy_batch_single_lane_matches_act_noisy() {
        let mk = || {
            Ddpg::new(DdpgConfig {
                state_dim: 3,
                seed: 5,
                ..DdpgConfig::default()
            })
        };
        let (mut a, mut b) = (mk(), mk());
        let mut na = [OuNoise::new(0.4, 0.97, 0.02)];
        let mut nb = OuNoise::new(0.4, 0.97, 0.02);
        let mut out = Vec::new();
        for i in 0..25 {
            let s = vec![i as f64 * 0.07, 0.5, -0.2];
            a.act_noisy_batch(&s, &mut na, &mut out);
            let exp = b.act_noisy(&s, &mut nb);
            assert_eq!(out.len(), 1);
            assert_eq!(out[0].to_bits(), exp.to_bits());
        }
    }

    #[test]
    fn act_noisy_batch_draws_noise_in_lane_order() {
        // A two-lane batched call consumes the agent RNG exactly like
        // per-lane draws in ascending order: mu from the batched actor
        // pass plus one noise_sample per lane.
        let mk = || {
            Ddpg::new(DdpgConfig {
                state_dim: 2,
                seed: 9,
                ..DdpgConfig::default()
            })
        };
        let (mut a, mut b) = (mk(), mk());
        let noise = || OuNoise::new(0.3, 1.0, 0.0);
        let mut na = [noise(), noise()];
        let mut nb = [noise(), noise()];
        let mut out = Vec::new();
        let flat = [0.2, 0.8, -0.1, 0.4];
        a.act_noisy_batch(&flat, &mut na, &mut out);
        let mus = b.act_batch(&flat, 2).to_vec();
        for (l, &mu) in mus.iter().enumerate() {
            let exp = (mu + b.noise_sample(&mut nb[l])).clamp(0.0, 1.0);
            assert_eq!(out[l].to_bits(), exp.to_bits());
        }
    }

    fn build(cfg: DdpgConfig) {
        Ddpg::new(cfg);
    }

    #[test]
    #[should_panic(expected = "batch must be at least 1")]
    fn rejects_an_empty_batch() {
        build(DdpgConfig {
            batch: 0,
            ..DdpgConfig::default()
        });
    }

    #[test]
    #[should_panic(expected = "pool must hold at least one batch")]
    fn rejects_a_pool_smaller_than_its_batch() {
        build(DdpgConfig {
            pool: 63,
            batch: 64,
            ..DdpgConfig::default()
        });
    }

    #[test]
    #[should_panic(expected = "hidden must be at least 1")]
    fn rejects_empty_hidden_layers() {
        build(DdpgConfig {
            hidden: 0,
            ..DdpgConfig::default()
        });
    }

    #[test]
    #[should_panic(expected = "state_dim must be at least 1")]
    fn rejects_an_empty_state() {
        build(DdpgConfig {
            state_dim: 0,
            ..DdpgConfig::default()
        });
    }

    #[test]
    #[should_panic(expected = "gamma must lie in [0, 1]")]
    fn rejects_a_discount_above_one() {
        build(DdpgConfig {
            gamma: 1.5,
            ..DdpgConfig::default()
        });
    }

    #[test]
    #[should_panic(expected = "tau must lie in (0, 1]")]
    fn rejects_a_zero_soft_update_rate() {
        build(DdpgConfig {
            tau: 0.0,
            ..DdpgConfig::default()
        });
    }

    #[test]
    #[should_panic(expected = "actor_lr must be finite and positive")]
    fn rejects_a_non_finite_actor_learning_rate() {
        build(DdpgConfig {
            actor_lr: f64::NAN,
            ..DdpgConfig::default()
        });
    }

    #[test]
    #[should_panic(expected = "critic_lr must be finite and positive")]
    fn rejects_a_negative_critic_learning_rate() {
        build(DdpgConfig {
            critic_lr: -1e-3,
            ..DdpgConfig::default()
        });
    }

    #[test]
    fn accepts_the_boundary_values() {
        build(DdpgConfig {
            batch: 1,
            pool: 1,
            hidden: 1,
            state_dim: 1,
            gamma: 0.0,
            tau: 1.0,
            ..DdpgConfig::default()
        });
        build(DdpgConfig {
            gamma: 1.0,
            ..DdpgConfig::default()
        });
    }

    #[test]
    fn determinism_under_fixed_seed() {
        let run = || {
            let mut agent = Ddpg::new(DdpgConfig {
                state_dim: 1,
                seed: 3,
                batch: 4,
                ..DdpgConfig::default()
            });
            let mut noise = OuNoise::new(0.3, 0.99, 0.0);
            let mut trace = Vec::new();
            for i in 0..20 {
                let s = vec![i as f64 / 20.0];
                let a = agent.act_noisy(&s, &mut noise);
                trace.push(a);
                agent.remember(Experience {
                    state: s.clone(),
                    next_state: s,
                    action: a,
                    reward: a,
                    done: true,
                });
                agent.train_step();
            }
            trace
        };
        assert_eq!(run(), run());
    }
}

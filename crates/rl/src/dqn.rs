//! A discrete deep Q-network agent.
//!
//! Beyond-paper comparator (DESIGN.md §6): the crossbar-candidate choice
//! is naturally *discrete*, so a DQN with one Q-head per candidate is the
//! obvious alternative to the paper's continuous-action DDPG. Standard
//! recipe: epsilon-greedy exploration with decay, uniform replay, TD
//! targets from a Polyak-averaged target network, Huber-free plain MSE
//! (losses here are tiny and well-conditioned).

use crate::ddpg::{validate_agent, validate_lr};
use crate::nn::{Activation, Adam, Mlp};
use crate::replay::ReplayBuffer;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// One discrete transition.
#[derive(Debug, Clone, PartialEq)]
pub struct DiscreteExperience {
    pub state: Vec<f64>,
    pub next_state: Vec<f64>,
    pub action: usize,
    pub reward: f64,
    pub done: bool,
}

/// Agent hyperparameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DqnConfig {
    /// State dimension (≥ 1).
    pub state_dim: usize,
    /// Number of discrete actions (Q-network heads; ≥ 2).
    pub actions: usize,
    /// Hidden width (≥ 1).
    pub hidden: usize,
    /// Learning rate (finite, > 0).
    pub lr: f64,
    /// Discount factor, in `[0, 1]`.
    pub gamma: f64,
    /// Target soft-update coefficient, in `(0, 1]`.
    pub tau: f64,
    /// Minibatch size (≥ 1).
    pub batch: usize,
    /// Replay capacity (≥ `batch`).
    pub pool: usize,
    /// Initial exploration rate, in `[0, 1]`.
    pub eps0: f64,
    /// Per-episode epsilon decay.
    pub eps_decay: f64,
    /// Exploration floor, in `[0, 1]`.
    pub eps_min: f64,
    /// Seed.
    pub seed: u64,
}

impl Default for DqnConfig {
    fn default() -> Self {
        DqnConfig {
            state_dim: 10,
            actions: 5,
            hidden: 64,
            lr: 2e-3,
            gamma: 0.99,
            tau: 0.01,
            batch: 64,
            pool: 4096,
            eps0: 0.5,
            eps_decay: 0.99,
            eps_min: 0.02,
            seed: 0,
        }
    }
}

/// The DQN agent.
#[derive(Debug, Clone)]
pub struct Dqn {
    cfg: DqnConfig,
    q: Mlp,
    q_target: Mlp,
    opt: Adam,
    replay: ReplayBuffer<DiscreteExperience>,
    epsilon: f64,
    rng: SmallRng,
    scratch: TrainScratch,
}

/// Reusable flat batch buffers for [`Dqn::train_step`].
#[derive(Debug, Clone, Default)]
struct TrainScratch {
    /// Stacked states / next-states (`batch × state_dim`).
    states: Vec<f64>,
    /// TD targets (`batch`).
    targets: Vec<f64>,
    /// Stacked one-hot output gradients (`batch × actions`).
    grads: Vec<f64>,
}

impl DqnConfig {
    /// Panic, naming the field, unless the configuration can train: the
    /// shared agent rules ([`validate_agent`]; a zero pool or batch would
    /// panic mid-run), at least two actions, a finite positive learning
    /// rate and exploration rates in `[0, 1]`.
    fn validate(&self) {
        validate_agent(
            self.batch,
            self.pool,
            self.hidden,
            self.state_dim,
            self.gamma,
            self.tau,
        );
        assert!(
            self.actions >= 2,
            "actions must be at least 2, got {}",
            self.actions
        );
        validate_lr("lr", self.lr);
        for (name, eps) in [("eps0", self.eps0), ("eps_min", self.eps_min)] {
            assert!(
                (0.0..=1.0).contains(&eps),
                "{name} must lie in [0, 1], got {eps}"
            );
        }
    }
}

impl Dqn {
    /// Build an agent; the target network starts as a copy. Panics on a
    /// configuration that cannot train (see the field rules on
    /// [`DqnConfig`]): before any work, with a message naming the field.
    pub fn new(cfg: DqnConfig) -> Self {
        cfg.validate();
        let mut rng = SmallRng::seed_from_u64(cfg.seed ^ 0xD16);
        let q = Mlp::new(
            &[cfg.state_dim, cfg.hidden, cfg.hidden, cfg.actions],
            Activation::Relu,
            Activation::Linear,
            &mut rng,
        );
        Dqn {
            q_target: q.clone(),
            opt: Adam::new(cfg.lr),
            replay: ReplayBuffer::new(cfg.pool),
            epsilon: cfg.eps0,
            q,
            rng,
            cfg,
            scratch: TrainScratch::default(),
        }
    }

    /// Configuration.
    pub fn config(&self) -> &DqnConfig {
        &self.cfg
    }

    /// Current exploration rate.
    pub fn epsilon(&self) -> f64 {
        self.epsilon
    }

    /// All Q-values for a state.
    pub fn q_values(&mut self, state: &[f64]) -> Vec<f64> {
        self.q.forward(state)
    }

    /// Greedy action.
    pub fn act(&mut self, state: &[f64]) -> usize {
        argmax(&self.q.forward(state))
    }

    /// Epsilon-greedy action.
    pub fn act_eps(&mut self, state: &[f64]) -> usize {
        if self.rng.gen::<f64>() < self.epsilon {
            self.rng.gen_range(0..self.cfg.actions)
        } else {
            self.act(state)
        }
    }

    /// Decay exploration (call at episode end).
    pub fn end_episode(&mut self) {
        self.epsilon = (self.epsilon * self.cfg.eps_decay).max(self.cfg.eps_min);
    }

    /// Store one transition (ring-buffer eviction).
    pub fn remember(&mut self, e: DiscreteExperience) {
        self.replay.push(e);
    }

    /// One minibatch TD update; returns the batch MSE once the pool holds
    /// a full batch.
    pub fn train_step(&mut self) -> Option<f64> {
        if self.replay.len() < self.cfg.batch {
            return None;
        }
        let batch = self.replay.sample(self.cfg.batch, &mut self.rng);
        let n = batch.len() as f64;
        let b = batch.len();
        let acts = self.cfg.actions;
        let mut sc = std::mem::take(&mut self.scratch);

        // TD targets from the target network, one batched pass
        // (bit-identical to the per-sample loop; DESIGN.md §9).
        sc.states.clear();
        for e in &batch {
            sc.states.extend_from_slice(&e.next_state);
        }
        let next_q = self.q_target.forward_batch_infer(&sc.states, b);
        sc.targets.clear();
        for (e, nq) in batch.iter().zip(next_q.chunks(acts)) {
            let max_next = nq.iter().cloned().fold(f64::MIN, f64::max);
            let y = e.reward
                + if e.done {
                    0.0
                } else {
                    self.cfg.gamma * max_next
                };
            sc.targets.push(y);
        }

        self.q.zero_grad();
        sc.states.clear();
        for e in &batch {
            sc.states.extend_from_slice(&e.state);
        }
        let qv = self.q.forward_batch(&sc.states, b);
        let mut loss = 0.0;
        sc.grads.clear();
        sc.grads.resize(b * acts, 0.0);
        for (s, (e, &y)) in batch.iter().zip(&sc.targets).enumerate() {
            let err = qv[s * acts + e.action] - y;
            loss += err * err;
            sc.grads[s * acts + e.action] = 2.0 * err;
        }
        loss /= n;
        self.q.backward_batch(&sc.grads);
        self.q.adam_step(&mut self.opt, n);
        self.q_target.soft_update_from(&self.q, self.cfg.tau);
        self.scratch = sc;
        Some(loss)
    }
}

fn argmax(xs: &[f64]) -> usize {
    let mut best = 0;
    for (i, &v) in xs.iter().enumerate() {
        if v > xs[best] {
            best = i;
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn actions_are_in_range() {
        let mut agent = Dqn::new(DqnConfig {
            state_dim: 3,
            actions: 4,
            ..DqnConfig::default()
        });
        for i in 0..50 {
            let s = vec![i as f64 * 0.02, 0.5, -0.5];
            assert!(agent.act(&s) < 4);
            assert!(agent.act_eps(&s) < 4);
        }
    }

    #[test]
    fn epsilon_decays_to_floor() {
        let mut agent = Dqn::new(DqnConfig {
            eps0: 1.0,
            eps_decay: 0.5,
            eps_min: 0.1,
            ..DqnConfig::default()
        });
        for _ in 0..10 {
            agent.end_episode();
        }
        assert!((agent.epsilon() - 0.1).abs() < 1e-12);
    }

    #[test]
    fn solves_a_discrete_bandit() {
        // Reward 1 only for action 2: the greedy policy must lock on.
        let mut agent = Dqn::new(DqnConfig {
            state_dim: 1,
            actions: 4,
            hidden: 24,
            batch: 16,
            seed: 6,
            ..DqnConfig::default()
        });
        let s = vec![1.0];
        for _ in 0..400 {
            let a = agent.act_eps(&s);
            let r = if a == 2 { 1.0 } else { 0.0 };
            agent.remember(DiscreteExperience {
                state: s.clone(),
                next_state: s.clone(),
                action: a,
                reward: r,
                done: true,
            });
            agent.end_episode();
            agent.train_step();
        }
        assert_eq!(agent.act(&s), 2);
        let q = agent.q_values(&s);
        assert!(q[2] > 0.5, "Q {q:?}");
    }

    #[test]
    fn loss_decreases_on_stationary_data() {
        let mut agent = Dqn::new(DqnConfig {
            state_dim: 2,
            actions: 3,
            batch: 16,
            seed: 9,
            ..DqnConfig::default()
        });
        for i in 0..64 {
            let s = vec![(i % 8) as f64 / 8.0, ((i / 8) % 8) as f64 / 8.0];
            agent.remember(DiscreteExperience {
                state: s.clone(),
                next_state: s.clone(),
                action: i % 3,
                reward: s[0],
                done: true,
            });
        }
        let first = agent.train_step().unwrap();
        let mut last = first;
        for _ in 0..200 {
            last = agent.train_step().unwrap();
        }
        assert!(last < first, "{first} -> {last}");
    }

    #[test]
    fn replay_ring_evicts() {
        let mut agent = Dqn::new(DqnConfig {
            pool: 3,
            batch: 2,
            ..DqnConfig::default()
        });
        for i in 0..5 {
            agent.remember(DiscreteExperience {
                state: vec![i as f64],
                next_state: vec![i as f64],
                action: 0,
                reward: 0.0,
                done: true,
            });
        }
        assert_eq!(agent.replay.len(), 3);
    }

    fn build(cfg: DqnConfig) {
        Dqn::new(cfg);
    }

    #[test]
    #[should_panic(expected = "batch must be at least 1")]
    fn rejects_an_empty_batch() {
        build(DqnConfig {
            batch: 0,
            ..DqnConfig::default()
        });
    }

    #[test]
    #[should_panic(expected = "pool must hold at least one batch")]
    fn rejects_a_pool_smaller_than_its_batch() {
        build(DqnConfig {
            pool: 63,
            batch: 64,
            ..DqnConfig::default()
        });
    }

    #[test]
    #[should_panic(expected = "pool must hold at least one batch")]
    fn rejects_an_empty_pool() {
        build(DqnConfig {
            pool: 0,
            ..DqnConfig::default()
        });
    }

    #[test]
    #[should_panic(expected = "hidden must be at least 1")]
    fn rejects_empty_hidden_layers() {
        build(DqnConfig {
            hidden: 0,
            ..DqnConfig::default()
        });
    }

    #[test]
    #[should_panic(expected = "state_dim must be at least 1")]
    fn rejects_an_empty_state() {
        build(DqnConfig {
            state_dim: 0,
            ..DqnConfig::default()
        });
    }

    #[test]
    #[should_panic(expected = "actions must be at least 2")]
    fn rejects_a_single_action() {
        build(DqnConfig {
            actions: 1,
            ..DqnConfig::default()
        });
    }

    #[test]
    #[should_panic(expected = "gamma must lie in [0, 1]")]
    fn rejects_a_negative_discount() {
        build(DqnConfig {
            gamma: -0.1,
            ..DqnConfig::default()
        });
    }

    #[test]
    #[should_panic(expected = "tau must lie in (0, 1]")]
    fn rejects_a_soft_update_rate_above_one() {
        build(DqnConfig {
            tau: 1.5,
            ..DqnConfig::default()
        });
    }

    #[test]
    #[should_panic(expected = "lr must be finite and positive")]
    fn rejects_an_infinite_learning_rate() {
        build(DqnConfig {
            lr: f64::INFINITY,
            ..DqnConfig::default()
        });
    }

    #[test]
    #[should_panic(expected = "eps0 must lie in [0, 1]")]
    fn rejects_an_exploration_rate_above_one() {
        build(DqnConfig {
            eps0: 1.5,
            ..DqnConfig::default()
        });
    }

    #[test]
    #[should_panic(expected = "eps_min must lie in [0, 1]")]
    fn rejects_a_nan_exploration_floor() {
        build(DqnConfig {
            eps_min: f64::NAN,
            ..DqnConfig::default()
        });
    }

    #[test]
    fn accepts_the_boundary_values() {
        build(DqnConfig {
            batch: 1,
            pool: 1,
            hidden: 1,
            state_dim: 1,
            actions: 2,
            gamma: 0.0,
            tau: 1.0,
            eps0: 0.0,
            eps_min: 0.0,
            ..DqnConfig::default()
        });
        build(DqnConfig {
            gamma: 1.0,
            eps0: 1.0,
            eps_min: 1.0,
            ..DqnConfig::default()
        });
    }
}

//! A toy environment that validates the RL stack in isolation (compiled
//! for tests only).
//!
//! The AutoHet search environment (layers as steps, crossbar choice as
//! action, RUE-style reward at episode end) lives in the `autohet` crate;
//! the chain below is its simplest delayed-reward analogue.

/// An episodic environment with continuous scalar actions in `[0, 1]`.
pub trait Environment {
    /// Dimensionality of the state vector.
    fn state_dim(&self) -> usize;
    /// Reset to the first state of a new episode.
    fn reset(&mut self) -> Vec<f64>;
    /// Apply an action; returns `(next_state, done)`. Rewards may be
    /// delayed to episode end (as in the paper) — see
    /// [`Environment::episode_reward`].
    fn step(&mut self, action: f64) -> (Vec<f64>, bool);
    /// Reward of the completed episode (valid once `step` returned done).
    fn episode_reward(&self) -> f64;
}

/// A k-step chain whose episode reward is maximized by emitting a fixed
/// target action at every step — the simplest delayed-reward analogue of
/// the AutoHet layer walk.
#[derive(Debug, Clone)]
pub struct ChainEnv {
    /// Steps per episode.
    pub steps: usize,
    /// The optimal action.
    pub target: f64,
    position: usize,
    penalty: f64,
}

impl ChainEnv {
    /// New chain of `steps` steps with optimum `target`.
    pub fn new(steps: usize, target: f64) -> Self {
        assert!(steps >= 1 && (0.0..=1.0).contains(&target));
        ChainEnv {
            steps,
            target,
            position: 0,
            penalty: 0.0,
        }
    }
}

impl Environment for ChainEnv {
    fn state_dim(&self) -> usize {
        2
    }

    fn reset(&mut self) -> Vec<f64> {
        self.position = 0;
        self.penalty = 0.0;
        vec![0.0, 1.0]
    }

    fn step(&mut self, action: f64) -> (Vec<f64>, bool) {
        let d = action - self.target;
        self.penalty += d * d;
        self.position += 1;
        let done = self.position >= self.steps;
        (vec![self.position as f64 / self.steps as f64, 1.0], done)
    }

    fn episode_reward(&self) -> f64 {
        1.0 - self.penalty / self.steps as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ddpg::{Ddpg, DdpgConfig};
    use crate::noise::OuNoise;
    use crate::replay::Experience;

    #[test]
    fn chain_env_reward_peaks_at_target() {
        let mut env = ChainEnv::new(4, 0.3);
        env.reset();
        for _ in 0..4 {
            env.step(0.3);
        }
        assert!((env.episode_reward() - 1.0).abs() < 1e-12);

        env.reset();
        for _ in 0..4 {
            env.step(0.9);
        }
        assert!(env.episode_reward() < 1.0);
    }

    #[test]
    fn episode_terminates_after_steps() {
        let mut env = ChainEnv::new(3, 0.5);
        env.reset();
        assert!(!env.step(0.5).1);
        assert!(!env.step(0.5).1);
        assert!(env.step(0.5).1);
    }

    #[test]
    fn ddpg_learns_the_chain_with_delayed_reward() {
        // End-to-end smoke of the exact protocol the AutoHet search uses:
        // collect a whole episode, then write every step with the shared
        // episode reward (paper Eq. 3) and train.
        let mut env = ChainEnv::new(4, 0.6);
        let mut agent = Ddpg::new(DdpgConfig {
            state_dim: env.state_dim(),
            hidden: 32,
            batch: 32,
            actor_lr: 3e-3,
            critic_lr: 5e-3,
            seed: 11,
            ..DdpgConfig::default()
        });
        let mut noise = OuNoise::new(0.4, 0.99, 0.02);
        for _ in 0..250 {
            let mut s = env.reset();
            let mut steps = Vec::new();
            loop {
                let a = agent.act_noisy(&s, &mut noise);
                let (s2, done) = env.step(a);
                steps.push((s.clone(), s2.clone(), a, done));
                s = s2;
                if done {
                    break;
                }
            }
            let r = env.episode_reward();
            for (state, next_state, action, done) in steps {
                agent.remember(Experience {
                    state,
                    next_state,
                    action,
                    reward: r,
                    done,
                });
            }
            noise.end_episode();
            for _ in 0..4 {
                agent.train_step();
            }
        }
        // Deterministic policy should now emit near-target actions.
        let mut s = env.reset();
        let mut total = 0.0;
        for _ in 0..env.steps {
            let a = agent.act(&s);
            total += (a - 0.6_f64).abs();
            s = env.step(a).0;
        }
        let mean_err = total / env.steps as f64;
        assert!(mean_err < 0.2, "mean action error {mean_err}");
    }
}

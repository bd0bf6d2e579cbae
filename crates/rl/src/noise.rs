//! Exploration noise for the deterministic actor.
//!
//! DDPG explores by perturbing the actor's deterministic action with
//! temporally correlated Ornstein–Uhlenbeck noise (the classic choice from
//! the DDPG paper the authors cite), annealed over training so late
//! episodes exploit the learned policy.

use rand::Rng;

/// Ornstein–Uhlenbeck process with multiplicative decay.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OuNoise {
    /// Mean-reversion rate.
    pub theta: f64,
    /// Current noise magnitude.
    pub sigma: f64,
    /// Per-episode sigma decay factor.
    pub decay: f64,
    /// Sigma floor (keeps a little exploration forever).
    pub sigma_min: f64,
    state: f64,
}

impl OuNoise {
    /// Standard parameters: θ=0.15, starting σ as given, decaying by
    /// `decay` each episode down to `sigma_min`.
    pub fn new(sigma: f64, decay: f64, sigma_min: f64) -> Self {
        assert!(sigma >= 0.0 && (0.0..=1.0).contains(&decay));
        OuNoise {
            theta: 0.15,
            sigma,
            decay,
            sigma_min,
            state: 0.0,
        }
    }

    /// Next noise sample.
    pub fn sample<R: Rng>(&mut self, rng: &mut R) -> f64 {
        // Box–Muller standard normal.
        let u1: f64 = rng.gen::<f64>().max(f64::MIN_POSITIVE);
        let u2: f64 = rng.gen();
        let z = (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos();
        self.state += self.theta * (0.0 - self.state) + self.sigma * z;
        self.state
    }

    /// Reset the process state and decay sigma (call at episode end).
    pub fn end_episode(&mut self) {
        self.state = 0.0;
        self.sigma = (self.sigma * self.decay).max(self.sigma_min);
    }

    /// Reset the process state and set sigma explicitly. Vectorized
    /// search drivers anneal every lane from one shared per-episode
    /// schedule, so each lane's process is re-seeded at group start with
    /// the sigma its episode index would have reached sequentially.
    pub fn reset_with_sigma(&mut self, sigma: f64) {
        assert!(sigma >= 0.0);
        self.state = 0.0;
        self.sigma = sigma;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn noise_is_zero_mean_ish() {
        let mut n = OuNoise::new(0.2, 1.0, 0.0);
        let mut rng = SmallRng::seed_from_u64(0);
        let samples: Vec<f64> = (0..5000).map(|_| n.sample(&mut rng)).collect();
        let mean: f64 = samples.iter().sum::<f64>() / samples.len() as f64;
        assert!(mean.abs() < 0.1, "mean {mean}");
    }

    #[test]
    fn sigma_decays_to_floor() {
        let mut n = OuNoise::new(1.0, 0.5, 0.1);
        for _ in 0..10 {
            n.end_episode();
        }
        assert!((n.sigma - 0.1).abs() < 1e-12);
    }

    #[test]
    fn reset_clears_state() {
        let mut n = OuNoise::new(0.5, 0.9, 0.0);
        let mut rng = SmallRng::seed_from_u64(1);
        let _ = n.sample(&mut rng);
        n.end_episode();
        assert_eq!(n.state, 0.0);
    }

    #[test]
    fn reset_with_sigma_matches_sequential_decay() {
        // Re-seeding a fresh process with the master schedule's sigma
        // reproduces the sequential end_episode iteration bit-exactly.
        let mut seq = OuNoise::new(0.7, 0.93, 0.05);
        let mut cur = 0.7;
        for _ in 0..20 {
            let mut lane = OuNoise::new(0.7, 0.93, 0.05);
            lane.reset_with_sigma(cur);
            assert_eq!(lane.sigma.to_bits(), seq.sigma.to_bits());
            assert_eq!(lane.state, 0.0);
            cur = (cur * 0.93f64).max(0.05);
            seq.end_episode();
        }
    }

    #[test]
    fn temporal_correlation_exists() {
        // Successive OU samples are correlated, unlike white noise.
        let mut n = OuNoise::new(0.2, 1.0, 0.0);
        let mut rng = SmallRng::seed_from_u64(2);
        let xs: Vec<f64> = (0..4000).map(|_| n.sample(&mut rng)).collect();
        let mean = xs.iter().sum::<f64>() / xs.len() as f64;
        let var: f64 = xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>();
        let cov: f64 = xs
            .windows(2)
            .map(|w| (w[0] - mean) * (w[1] - mean))
            .sum::<f64>();
        let rho = cov / var;
        assert!(rho > 0.5, "lag-1 autocorrelation {rho}");
    }
}

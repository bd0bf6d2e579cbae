//! Simulated-annealing comparator.
//!
//! A classical single-solution metaheuristic over the same `Cᴺ` space the
//! RL agent searches: start from a uniform strategy, propose single-layer
//! mutations, accept improvements always and regressions with probability
//! `exp(Δ/T)` under a geometric cooling schedule. Beyond-paper baseline
//! (DESIGN.md §6): it needs no learned model, so it isolates how much of
//! AutoHet's win comes from *learning* layer features versus merely
//! *searching* the space.
//!
//! [`annealing_search`] runs on the engine it is given and returns the
//! RL searches' [`SearchOutcome`].

use crate::search::rl::{EpisodeRecord, SearchOutcome, SearchTiming};
use autohet_accel::EvalEngine;
use autohet_xbar::XbarShape;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use std::time::Instant;

/// Annealer hyperparameters.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AnnealingConfig {
    /// Evaluation budget (comparable to RL episodes).
    pub iterations: usize,
    /// Initial temperature, in units of *relative* RUE change.
    pub t0: f64,
    /// Geometric cooling factor per iteration.
    pub cooling: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for AnnealingConfig {
    fn default() -> Self {
        AnnealingConfig {
            iterations: 300,
            t0: 0.3,
            cooling: 0.99,
            seed: 0,
        }
    }
}

/// Run simulated annealing on an existing (possibly shared) memoized
/// engine; returns the best strategy visited plus the full per-iteration
/// trajectory (`episode` = iteration, `reward` = relative RUE delta of
/// the proposal against the incumbent). The annealer revisits states
/// whenever a rejected mutation is proposed again, so the engine's
/// strategy cache pays off within a single run.
pub fn annealing_search(
    engine: &EvalEngine,
    candidates: &[XbarShape],
    acfg: &AnnealingConfig,
) -> SearchOutcome {
    assert!(!candidates.is_empty() && acfg.iterations >= 1);
    let _span = autohet_obs::trace::span("search.annealing");
    let t0 = Instant::now();
    let stats0 = engine.stats();
    let n = engine.model().layers.len();
    let mut rng = SmallRng::seed_from_u64(acfg.seed ^ 0xA44E);

    // Start from the middle candidate applied homogeneously.
    let mut current: Vec<XbarShape> = vec![candidates[candidates.len() / 2]; n];
    let mut current_report = engine.evaluate(&current);
    let mut best = (current.clone(), current_report.clone());
    let mut temp = acfg.t0;
    let mut history = Vec::with_capacity(acfg.iterations);
    let mut timing = SearchTiming::default();

    for episode in 0..acfg.iterations {
        let _ep_span = autohet_obs::trace::span("search.episode");
        let ep_stats = engine.stats();
        // Propose: re-roll one layer's shape.
        let ta = Instant::now();
        let li = rng.gen_range(0..n);
        let old = current[li];
        let mut pick = candidates[rng.gen_range(0..candidates.len())];
        if candidates.len() > 1 {
            while pick == old {
                pick = candidates[rng.gen_range(0..candidates.len())];
            }
        }
        current[li] = pick;
        timing.agent += ta.elapsed();

        let ts = Instant::now();
        let proposal = engine.evaluate(&current);
        timing.simulator += ts.elapsed();

        // Relative RUE improvement (positive = better).
        let delta = (proposal.rue() - current_report.rue()) / current_report.rue();
        history.push(EpisodeRecord {
            episode,
            rue: proposal.rue(),
            reward: delta,
            utilization: proposal.utilization,
            energy_nj: proposal.energy_nj(),
            cache_hit_rate: engine.stats().since(&ep_stats).combined_hit_rate(),
        });
        let accept = delta >= 0.0 || rng.gen::<f64>() < (delta / temp.max(1e-12)).exp();
        if accept {
            current_report = proposal;
            if current_report.rue() > best.1.rue() {
                best = (current.clone(), current_report.clone());
            }
        } else {
            current[li] = old;
        }
        temp *= acfg.cooling;
    }
    timing.total = t0.elapsed();
    timing.cache = engine.stats().since(&stats0);
    SearchOutcome {
        best_strategy: best.0,
        best_report: best.1,
        history,
        timing,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::search::exhaustive::exhaustive_search;
    use autohet_accel::{evaluate, AccelConfig};
    use autohet_dnn::zoo;
    use autohet_xbar::geometry::paper_hybrid_candidates;

    #[test]
    fn annealing_is_deterministic_per_seed() {
        let m = zoo::micro_cnn();
        let cfg = AccelConfig::default();
        let acfg = AnnealingConfig {
            iterations: 40,
            seed: 2,
            ..AnnealingConfig::default()
        };
        let a = annealing_search(
            &EvalEngine::new(m.clone(), cfg),
            &paper_hybrid_candidates(),
            &acfg,
        );
        let b = annealing_search(&EvalEngine::new(m, cfg), &paper_hybrid_candidates(), &acfg);
        assert_eq!(a.best_strategy, b.best_strategy);
        assert_eq!(a.best_rue(), b.best_rue());
        assert_eq!(a.history.len(), 40);
        assert_eq!(b.history.len(), 40);
        for (x, y) in a.history.iter().zip(&b.history) {
            assert_eq!(x.rue, y.rue);
            assert_eq!(x.reward, y.reward);
        }
    }

    #[test]
    fn annealing_approaches_the_oracle_on_micro_cnn() {
        let m = zoo::micro_cnn();
        let cfg = AccelConfig::default();
        let cands = paper_hybrid_candidates();
        let (_, oracle) = exhaustive_search(&m, &cands, &cfg, 1_000);
        let sa = annealing_search(
            &EvalEngine::new(m, cfg),
            &cands,
            &AnnealingConfig {
                iterations: 200,
                seed: 5,
                ..AnnealingConfig::default()
            },
        );
        assert!(
            sa.best_rue() >= oracle.rue() * 0.9,
            "sa {} oracle {}",
            sa.best_rue(),
            oracle.rue()
        );
        // The mutate-one-layer proposal loop revisits cached states, so
        // the per-run cache delta must show real hits.
        assert!(sa.timing.cache.layer_hits > 0);
        assert!(sa
            .history
            .iter()
            .all(|e| (0.0..=1.0).contains(&e.cache_hit_rate)));
    }

    #[test]
    fn annealing_never_returns_worse_than_its_start() {
        let m = zoo::micro_cnn();
        let cfg = AccelConfig::default();
        let cands = paper_hybrid_candidates();
        let start = evaluate(&m, &vec![cands[cands.len() / 2]; m.layers.len()], &cfg);
        let sa = annealing_search(
            &EvalEngine::new(m, cfg),
            &cands,
            &AnnealingConfig {
                iterations: 30,
                seed: 8,
                ..AnnealingConfig::default()
            },
        );
        assert!(sa.best_rue() >= start.rue());
    }

    #[test]
    fn single_candidate_space_is_a_fixed_point() {
        let m = zoo::micro_cnn();
        let cfg = AccelConfig::default();
        let cands = vec![XbarShape::square(64)];
        let sa = annealing_search(
            &EvalEngine::new(m, cfg),
            &cands,
            &AnnealingConfig::default(),
        );
        assert!(sa.best_strategy.iter().all(|&x| x == XbarShape::square(64)));
    }
}

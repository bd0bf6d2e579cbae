//! NSGA-II-style multi-objective search over energy × latency ×
//! noise-robustness (DESIGN.md §11).
//!
//! The paper's DDPG/annealing drivers fold everything into one scalar
//! reward; once device variation is priced in, the trade-off is
//! genuinely three-dimensional and a scalarization hides the knee
//! points. This driver keeps the whole front: fast non-dominated
//! sorting plus crowding distance ([`crate::pareto`]), binary-tournament
//! parent selection, uniform crossover and per-gene mutation over the
//! candidate-shape indices, with (μ+λ) environmental selection.
//!
//! Every individual is evaluated through the [`EvalEngine::evaluate_noisy`]
//! of the engine the search is given — the ideal-device metrics come from
//! the memoized cost slices and the noise objective from the
//! Monte-Carlo variation oracle, both cached per `(layer, shape)`, so a
//! whole generation fans out over [`autohet_accel::par_map`] against one
//! cache. Seeded and deterministic: same config ⇒ same front.

use crate::pareto::{crowding_distances, non_dominated_sort};
use autohet_accel::{EvalEngine, NoisyEvalReport};
use autohet_xbar::XbarShape;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// NSGA-II driver parameters.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct NsgaConfig {
    /// Population size (μ; also the per-generation offspring count λ).
    pub population: usize,
    /// Evolution generations after the seeded initial population.
    pub generations: usize,
    /// RNG seed for initialization, selection, crossover and mutation.
    pub seed: u64,
    /// Probability a parent pair is recombined (else cloned).
    pub crossover_rate: f64,
    /// Per-gene probability of re-rolling a layer's candidate shape.
    pub mutation_rate: f64,
}

impl Default for NsgaConfig {
    fn default() -> Self {
        NsgaConfig {
            population: 24,
            generations: 10,
            seed: 17,
            crossover_rate: 0.9,
            mutation_rate: 0.15,
        }
    }
}

/// One evaluated mapping on (or near) the robustness Pareto front.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RobustPoint {
    /// Per-layer crossbar shapes.
    pub strategy: Vec<XbarShape>,
    /// Ideal-device inference energy \[nJ\] (minimized).
    pub energy_nj: f64,
    /// Ideal-device inference latency \[ns\] (minimized).
    pub latency_ns: f64,
    /// Mean normalized output deviation under variation (minimized).
    pub noise_dev: f64,
    /// Classification-accuracy proxy under variation (higher is better;
    /// reported, not an objective — it is `noise_dev`'s monotone shadow).
    pub accuracy_proxy: f64,
    /// The paper's scalar RUE (reported for comparison with the
    /// noise-blind drivers).
    pub rue: f64,
}

impl RobustPoint {
    /// The minimization objective vector: `[energy, latency, noise]`.
    pub fn objectives(&self) -> [f64; 3] {
        [self.energy_nj, self.latency_ns, self.noise_dev]
    }

    fn from_report(strategy: Vec<XbarShape>, r: &NoisyEvalReport) -> Self {
        RobustPoint {
            energy_nj: r.eval.energy_nj(),
            latency_ns: r.eval.latency_ns,
            noise_dev: r.robustness.mean_dev,
            accuracy_proxy: r.robustness.accuracy_proxy,
            rue: r.eval.rue(),
            strategy,
        }
    }
}

/// Per-generation trajectory record.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct GenerationStat {
    /// Generation index (0 = seeded initial population).
    pub generation: usize,
    /// Size of the population's rank-0 front.
    pub front_size: usize,
    /// Best (lowest) energy in the population \[nJ\].
    pub best_energy_nj: f64,
    /// Best (lowest) latency in the population \[ns\].
    pub best_latency_ns: f64,
    /// Best (lowest) noise deviation in the population.
    pub best_noise_dev: f64,
}

/// Result of an NSGA-II search.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RobustSearchOutcome {
    /// The final rank-0 front, deduplicated by strategy and sorted by
    /// ascending energy (ties: latency, noise, strategy).
    pub front: Vec<RobustPoint>,
    /// One record per generation, including the seeded generation 0.
    pub history: Vec<GenerationStat>,
    /// Strategy evaluations performed (population + offspring).
    pub evaluations: u64,
}

impl RobustSearchOutcome {
    /// The front member with the lowest noise deviation (ties broken by
    /// highest RUE) — the "noise-robust pick".
    pub fn most_robust(&self) -> Option<&RobustPoint> {
        self.front.iter().min_by(|a, b| {
            a.noise_dev
                .partial_cmp(&b.noise_dev)
                .unwrap()
                .then(b.rue.partial_cmp(&a.rue).unwrap())
        })
    }

    /// The front member with the highest RUE — what a noise-blind scalar
    /// search would have chosen from the same set.
    pub fn best_rue(&self) -> Option<&RobustPoint> {
        self.front
            .iter()
            .max_by(|a, b| a.rue.partial_cmp(&b.rue).unwrap())
    }
}

/// Run an NSGA-II search on `engine`, which supplies the model and
/// config and must be built with [`EvalEngine::with_noise`] (its noise
/// config prices device variation). Deterministic in `(candidates, ncfg)`
/// and the engine's model/config/noise seed — shared caches never change
/// results, only speed.
pub fn nsga_search(
    engine: Arc<EvalEngine>,
    candidates: &[XbarShape],
    ncfg: &NsgaConfig,
) -> RobustSearchOutcome {
    let _span = autohet_obs::trace::span("search.nsga");
    assert!(!candidates.is_empty(), "no candidate shapes");
    assert!(ncfg.population >= 4, "population too small for tournaments");
    assert!((0.0..=1.0).contains(&ncfg.crossover_rate));
    assert!((0.0..=1.0).contains(&ncfg.mutation_rate));
    let layers = engine.model().layers.len();
    let mut rng = SmallRng::seed_from_u64(ncfg.seed);

    // Seed with every homogeneous mapping (the paper's baselines), then
    // fill with uniform random heterogeneous individuals.
    let mut pop: Vec<Vec<usize>> = (0..candidates.len().min(ncfg.population))
        .map(|i| vec![i; layers])
        .collect();
    while pop.len() < ncfg.population {
        pop.push(
            (0..layers)
                .map(|_| rng.gen_range(0..candidates.len()))
                .collect(),
        );
    }
    let mut evals = evaluate_population(&pop, candidates, &engine);
    let mut evaluations = pop.len() as u64;
    let mut history = vec![generation_stat(0, &evals)];

    for generation in 1..=ncfg.generations {
        let objs: Vec<Vec<f64>> = evals.iter().map(|p| p.objectives().to_vec()).collect();
        let fronts = non_dominated_sort(&objs);
        let mut rank = vec![0usize; pop.len()];
        let mut crowd = vec![0.0f64; pop.len()];
        for (fi, front) in fronts.iter().enumerate() {
            let d = crowding_distances(&objs, front);
            for (&i, &di) in front.iter().zip(&d) {
                rank[i] = fi;
                crowd[i] = di;
            }
        }

        let mut offspring: Vec<Vec<usize>> = Vec::with_capacity(ncfg.population);
        while offspring.len() < ncfg.population {
            let a = tournament(&mut rng, &rank, &crowd);
            let b = tournament(&mut rng, &rank, &crowd);
            let (mut c1, mut c2) = crossover(&pop[a], &pop[b], ncfg.crossover_rate, &mut rng);
            mutate(&mut c1, candidates.len(), ncfg.mutation_rate, &mut rng);
            mutate(&mut c2, candidates.len(), ncfg.mutation_rate, &mut rng);
            offspring.push(c1);
            if offspring.len() < ncfg.population {
                offspring.push(c2);
            }
        }
        let off_evals = evaluate_population(&offspring, candidates, &engine);
        evaluations += offspring.len() as u64;

        // (μ+λ) environmental selection: fill by front, break ties in
        // the boundary front by descending crowding distance.
        let mut comb_pop = pop;
        comb_pop.extend(offspring);
        let mut comb_evals = evals;
        comb_evals.extend(off_evals);
        let comb_objs: Vec<Vec<f64>> = comb_evals.iter().map(|p| p.objectives().to_vec()).collect();
        let fronts = non_dominated_sort(&comb_objs);
        let mut selected: Vec<usize> = Vec::with_capacity(ncfg.population);
        for front in &fronts {
            let room = ncfg.population - selected.len();
            if front.len() <= room {
                selected.extend_from_slice(front);
            } else {
                let d = crowding_distances(&comb_objs, front);
                let mut order: Vec<usize> = (0..front.len()).collect();
                order.sort_by(|&x, &y| {
                    d[y].partial_cmp(&d[x])
                        .unwrap()
                        .then(front[x].cmp(&front[y]))
                });
                selected.extend(order.iter().take(room).map(|&k| front[k]));
            }
            if selected.len() == ncfg.population {
                break;
            }
        }
        pop = selected.iter().map(|&i| comb_pop[i].clone()).collect();
        evals = selected.iter().map(|&i| comb_evals[i].clone()).collect();
        history.push(generation_stat(generation, &evals));
    }

    // Final front: rank 0 of the final population, deduplicated by
    // strategy (identical strategies have identical objectives, so
    // sorting by objectives-then-strategy makes duplicates adjacent).
    let objs: Vec<Vec<f64>> = evals.iter().map(|p| p.objectives().to_vec()).collect();
    let fronts = non_dominated_sort(&objs);
    let mut front: Vec<RobustPoint> = fronts[0].iter().map(|&i| evals[i].clone()).collect();
    front.sort_by(|a, b| {
        a.energy_nj
            .partial_cmp(&b.energy_nj)
            .unwrap()
            .then(a.latency_ns.partial_cmp(&b.latency_ns).unwrap())
            .then(a.noise_dev.partial_cmp(&b.noise_dev).unwrap())
            .then(a.strategy.cmp(&b.strategy))
    });
    front.dedup_by(|a, b| a.strategy == b.strategy);
    RobustSearchOutcome {
        front,
        history,
        evaluations,
    }
}

fn evaluate_population(
    pop: &[Vec<usize>],
    candidates: &[XbarShape],
    engine: &Arc<EvalEngine>,
) -> Vec<RobustPoint> {
    autohet_accel::par_map(pop, |genes| {
        let strategy: Vec<XbarShape> = genes.iter().map(|&g| candidates[g]).collect();
        let report = engine.evaluate_noisy(&strategy);
        RobustPoint::from_report(strategy, &report)
    })
}

fn generation_stat(generation: usize, evals: &[RobustPoint]) -> GenerationStat {
    let objs: Vec<Vec<f64>> = evals.iter().map(|p| p.objectives().to_vec()).collect();
    let fronts = non_dominated_sort(&objs);
    let min = |f: fn(&RobustPoint) -> f64| evals.iter().map(f).fold(f64::INFINITY, f64::min);
    GenerationStat {
        generation,
        front_size: fronts.first().map_or(0, Vec::len),
        best_energy_nj: min(|p| p.energy_nj),
        best_latency_ns: min(|p| p.latency_ns),
        best_noise_dev: min(|p| p.noise_dev),
    }
}

/// Binary tournament: lower rank wins, ties go to the larger crowding
/// distance (then the first pick, keeping the draw deterministic).
fn tournament(rng: &mut SmallRng, rank: &[usize], crowd: &[f64]) -> usize {
    let a = rng.gen_range(0..rank.len());
    let b = rng.gen_range(0..rank.len());
    if rank[b] < rank[a] || (rank[b] == rank[a] && crowd[b] > crowd[a]) {
        b
    } else {
        a
    }
}

/// Uniform crossover: with `rate`, each gene swaps between the children
/// with probability ½; otherwise the parents are cloned.
fn crossover(a: &[usize], b: &[usize], rate: f64, rng: &mut SmallRng) -> (Vec<usize>, Vec<usize>) {
    let (mut c1, mut c2) = (a.to_vec(), b.to_vec());
    if rng.gen_bool(rate) {
        for (x, y) in c1.iter_mut().zip(c2.iter_mut()) {
            if rng.gen_bool(0.5) {
                std::mem::swap(x, y);
            }
        }
    }
    (c1, c2)
}

/// Per-gene mutation: re-roll a layer's candidate index with `rate`.
fn mutate(genes: &mut [usize], n_candidates: usize, rate: f64, rng: &mut SmallRng) {
    for g in genes {
        if rng.gen_bool(rate) {
            *g = rng.gen_range(0..n_candidates);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pareto::dominates_min;
    use autohet_accel::{AccelConfig, NoiseEvalConfig};
    use autohet_xbar::geometry::paper_hybrid_candidates;

    fn quick() -> NsgaConfig {
        NsgaConfig {
            population: 8,
            generations: 3,
            seed: 5,
            ..NsgaConfig::default()
        }
    }

    fn quick_noise() -> NoiseEvalConfig {
        NoiseEvalConfig {
            draws: 2,
            probes: 2,
            ..NoiseEvalConfig::default()
        }
    }

    /// A fresh noisy engine for MicroCNN on the default accelerator.
    fn micro_engine(noise: NoiseEvalConfig) -> Arc<EvalEngine> {
        let m = autohet_dnn::zoo::micro_cnn();
        Arc::new(EvalEngine::new(m, AccelConfig::default()).with_noise(noise))
    }

    #[test]
    fn search_produces_a_valid_front() {
        let m = autohet_dnn::zoo::micro_cnn();
        let out = nsga_search(
            micro_engine(quick_noise()),
            &paper_hybrid_candidates(),
            &quick(),
        );
        assert!(!out.front.is_empty());
        assert_eq!(out.history.len(), 4);
        assert_eq!(out.evaluations, 8 * 4);
        for p in &out.front {
            assert_eq!(p.strategy.len(), m.layers.len());
            assert!(p.energy_nj > 0.0 && p.latency_ns > 0.0 && p.noise_dev >= 0.0);
        }
        // No front member dominated by another.
        for a in &out.front {
            for b in &out.front {
                assert!(!dominates_min(&b.objectives(), &a.objectives()));
            }
        }
        // Strategies on the front are unique.
        for (i, a) in out.front.iter().enumerate() {
            for b in &out.front[i + 1..] {
                assert_ne!(a.strategy, b.strategy);
            }
        }
    }

    #[test]
    fn search_is_seed_deterministic() {
        let run = || {
            nsga_search(
                micro_engine(quick_noise()),
                &paper_hybrid_candidates(),
                &quick(),
            )
        };
        let a = run();
        let b = run();
        assert_eq!(a, b);
    }

    #[test]
    fn picks_are_consistent_with_front() {
        let out = nsga_search(
            micro_engine(quick_noise()),
            &paper_hybrid_candidates(),
            &quick(),
        );
        let robust = out.most_robust().unwrap();
        let rue = out.best_rue().unwrap();
        for p in &out.front {
            assert!(robust.noise_dev <= p.noise_dev + 1e-15);
            assert!(rue.rue >= p.rue - 1e-15);
        }
    }

    #[test]
    fn exact_noise_collapses_the_noise_axis() {
        let noise = NoiseEvalConfig {
            variation: autohet_xbar::VariationModel::ideal(),
            ..quick_noise()
        };
        let out = nsga_search(micro_engine(noise), &paper_hybrid_candidates(), &quick());
        for p in &out.front {
            assert_eq!(p.noise_dev, 0.0);
            assert_eq!(p.accuracy_proxy, 1.0);
        }
    }
}

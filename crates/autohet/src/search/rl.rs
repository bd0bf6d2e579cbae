//! The paper's DDPG search (§3.2, Fig. 6 workflow ①–⑫).
//!
//! Each episode: walk the model's layers (decision stage, solid arrows) —
//! observe the layer state, let the actor (plus OU exploration noise) emit
//! the crossbar choice. When all layers are assigned, the heterogeneous
//! accelerator evaluates the configuration and returns the Eq. 2 reward;
//! the experience pool then absorbs every `(S_k, S_{k+1}, a_k, R)` tuple
//! (learning stage, dashed arrows) and the agent performs minibatch
//! updates. The best configuration ever visited is the search result
//! (§3.2: "we choose the optimal strategy as the final solution").
//!
//! Timing of the two stages is instrumented because the paper reports that
//! ~97% of search time is simulator feedback (§4.5).
//!
//! One driver, [`rl_search_vec_with_stats`], runs this loop over `lanes`
//! lockstep episodes at a time; [`rl_search`] is that driver at one lane.

use crate::env::AutoHetEnv;
use crate::vec_env::VecEnv;
use autohet_accel::{AccelConfig, EngineStats, EvalEngine, EvalReport};
use autohet_dnn::Model;
use autohet_rl::{Ddpg, DdpgConfig, Experience, OuNoise, TrainProfile};
use autohet_xbar::XbarShape;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Search hyperparameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RlSearchConfig {
    /// Search rounds (the paper runs 300 for VGG16, §4.5).
    pub episodes: usize,
    /// DDPG agent hyperparameters (`state_dim` is overridden to 10).
    pub ddpg: DdpgConfig,
    /// Initial OU noise sigma.
    pub noise_sigma: f64,
    /// Per-episode noise decay.
    pub noise_decay: f64,
    /// Noise floor.
    pub noise_min: f64,
    /// Gradient updates after each episode.
    pub train_steps: usize,
    /// Pure-exploration episodes before the actor drives decisions
    /// (standard DDPG warm-up: uniform random actions fill the experience
    /// pool with diverse configurations). Capped at `episodes / 3` so
    /// short searches still learn.
    pub warmup_episodes: usize,
    /// Objective exponents `(α, β)`: reward ∝ `u^α / e^β`. `(1, 1)` is the
    /// paper's Eq. 2; other weights trade utilization against energy (see
    /// `crate::pareto`).
    pub reward_weights: (f64, f64),
}

impl Default for RlSearchConfig {
    fn default() -> Self {
        RlSearchConfig {
            episodes: 300,
            ddpg: DdpgConfig::default(),
            noise_sigma: 0.5,
            noise_decay: 0.99,
            noise_min: 0.02,
            train_steps: 8,
            warmup_episodes: 60,
            reward_weights: (1.0, 1.0),
        }
    }
}

/// One episode's record.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EpisodeRecord {
    pub episode: usize,
    /// Raw RUE of the episode's configuration.
    pub rue: f64,
    /// Normalized reward fed to the agent.
    pub reward: f64,
    /// Allocation-level utilization (fraction).
    pub utilization: f64,
    /// Total energy \[nJ\].
    pub energy_nj: f64,
    /// Combined evaluation-cache hit rate over this episode's engine
    /// lookups (strategy + layer; 0.0 when no lookups happened). On an
    /// engine shared across concurrent searches the delta includes every
    /// user active during the episode.
    pub cache_hit_rate: f64,
}

/// Where the search time went (§4.5's decomposition).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SearchTiming {
    /// Total wall-clock.
    pub total: Duration,
    /// Time inside the hardware simulator (reward feedback).
    pub simulator: Duration,
    /// Time inside the agent (forward passes and training).
    pub agent: Duration,
    /// The DDPG agent's training phases, within `agent`: a deterministic
    /// update count and wall-clock per phase (default for searchers
    /// without a DDPG agent).
    pub train: TrainProfile,
    /// Evaluation-cache counters accumulated over this search (when the
    /// engine is shared across concurrent searches, counts include every
    /// user active during this search's window).
    pub cache: EngineStats,
}

impl SearchTiming {
    /// Fraction of the search spent waiting on simulator feedback.
    pub fn simulator_fraction(&self) -> f64 {
        if self.total.is_zero() {
            return 0.0;
        }
        self.simulator.as_secs_f64() / self.total.as_secs_f64()
    }
}

/// Result of an RL search.
#[derive(Debug, Clone)]
pub struct SearchOutcome {
    /// Best per-layer crossbar assignment found.
    pub best_strategy: Vec<XbarShape>,
    /// Hardware report of the best assignment.
    pub best_report: EvalReport,
    /// Episode-by-episode history.
    pub history: Vec<EpisodeRecord>,
    /// Stage timing.
    pub timing: SearchTiming,
}

impl SearchOutcome {
    /// Best raw RUE found.
    pub fn best_rue(&self) -> f64 {
        self.best_report.rue()
    }

    /// The episode index at which the best configuration was first found
    /// — the paper's search converges well before its 300 rounds, and
    /// this is the quantitative version of that observation.
    pub fn episodes_to_best(&self) -> usize {
        let best = self.best_rue();
        self.history
            .iter()
            .find(|h| h.rue >= best)
            .map(|h| h.episode)
            .unwrap_or(0)
    }

    /// Running best-so-far RUE per episode (monotone non-decreasing).
    pub fn rue_running_best(&self) -> Vec<f64> {
        let mut best = f64::MIN;
        self.history
            .iter()
            .map(|h| {
                best = best.max(h.rue);
                best
            })
            .collect()
    }
}

/// Run the RL search for `model` over `candidates` on an accelerator
/// configured by `cfg`: [`rl_search_vec_with_stats`] at one lane on a
/// fresh engine, which is the paper's per-episode loop with a training
/// round after every episode. Deterministic for a fixed `scfg.ddpg.seed`;
/// `tests/golden_ddpg.rs` pins its trajectory to the bit.
pub fn rl_search(
    model: &Model,
    candidates: &[XbarShape],
    cfg: &AccelConfig,
    scfg: &RlSearchConfig,
) -> SearchOutcome {
    let engine = Arc::new(EvalEngine::new(model.clone(), *cfg));
    rl_search_vec_with_stats(model, candidates, cfg, scfg, 1, engine).0
}

/// Throughput counters from a search (see [`rl_search_vec_with_stats`]).
#[derive(Debug, Clone, PartialEq)]
pub struct VecSearchStats {
    /// Lockstep lane count the driver was configured with.
    pub lanes: usize,
    /// Number of lockstep groups executed (`ceil(episodes / lanes)`).
    pub groups: usize,
    /// Episodes completed.
    pub episodes: usize,
    /// Completed episodes per wall-clock second.
    pub episodes_per_sec: f64,
    /// Per-group lane occupancy (`active / lanes`), a window series for
    /// telemetry: every group but the last runs full.
    pub group_occupancy: Vec<f64>,
    /// Mean of `group_occupancy`.
    pub mean_occupancy: f64,
}

/// The DDPG search with `lanes` lockstep exploration environments over
/// one agent and an existing (possibly shared) evaluation engine, also
/// returning throughput counters. Pareto sweeps and ablation stages with
/// a common config share one memo table this way; cached feedback is
/// bit-identical to direct evaluation, so only `cache_hit_rate` and
/// `timing.cache` depend on the engine's prior contents. Deterministic
/// for a fixed `(scfg.ddpg.seed, lanes)`. The engine must be built for
/// `model` and `cfg`; the search panics before its first episode
/// otherwise.
///
/// Batching model (DESIGN.md §10): episodes advance in lockstep groups of
/// up to `lanes`. Within a group, layer step `k` stacks all active lanes'
/// states and issues **one** batched actor pass
/// ([`Ddpg::act_noisy_batch`], a feature-major GEMM), drawing per-lane OU
/// noise from the agent RNG in ascending lane order. End-of-group
/// evaluations run in lane order against the shared memoized engine, so
/// the engine counters, `cache_hit_rate` included, are a function of the
/// seed and the lane count. The learning stage then ingests every lane's
/// transitions in lane order and performs `scfg.train_steps` minibatch
/// updates **per group** — the standard vectorized-DDPG schedule
/// (gradient steps per rollout round, not per episode), which is where
/// the episodes/sec win comes from.
///
/// At one lane the schedule is the paper's per-episode loop (Fig. 6):
/// - actions: `act_noisy_batch` over one lane performs the same forward
///   and the same two RNG draws as `act_noisy`; warm-up episodes draw from
///   a dedicated warm-up RNG;
/// - noise schedule: each lane's OU process is re-seeded at group start
///   from a master sigma schedule that decays once per episode, as
///   `OuNoise::end_episode` does;
/// - replay and training: transitions are pushed in (group, lane, step)
///   order, and one group is one episode, so `train_steps` updates follow
///   every episode;
/// - history/best: lanes are folded in ascending order, which is episode
///   order at one lane.
///
/// `tests/golden_ddpg.rs` pins that one-lane trajectory to the bit.
pub fn rl_search_vec_with_stats(
    model: &Model,
    candidates: &[XbarShape],
    cfg: &AccelConfig,
    scfg: &RlSearchConfig,
    lanes: usize,
    engine: Arc<EvalEngine>,
) -> (SearchOutcome, VecSearchStats) {
    let _span = autohet_obs::trace::span("search.rl_vec");
    assert!(lanes >= 1, "need at least one lane");
    assert!(scfg.episodes >= 1, "need at least one episode");
    assert!(
        engine.model().layers == model.layers,
        "engine must be built for the searched model"
    );
    assert_eq!(
        engine.config(),
        cfg,
        "engine must be built for the same accelerator config"
    );
    let t0 = Instant::now();
    let stats0 = engine.stats();
    let env = AutoHetEnv::new(engine, candidates, scfg.reward_weights);
    let n = env.num_layers();
    let mut venv = VecEnv::new(&env, lanes);
    let mut agent = Ddpg::new(DdpgConfig {
        state_dim: 10,
        ..scfg.ddpg
    });
    let warmup = scfg.warmup_episodes.min(scfg.episodes / 3);
    let mut warmup_rng = SmallRng::seed_from_u64(scfg.ddpg.seed ^ 0x3A90);
    let mut noises: Vec<OuNoise> = (0..lanes)
        .map(|_| OuNoise::new(scfg.noise_sigma, scfg.noise_decay, scfg.noise_min))
        .collect();
    // Master sigma schedule: lane `l` of the group starting at `episode`
    // runs episode index `episode + l`, whose sigma is `cur_sigma` after
    // that many per-episode decays.
    let mut cur_sigma = scfg.noise_sigma;

    let mut best: Option<(Vec<XbarShape>, EvalReport)> = None;
    let mut best_reward = f64::NEG_INFINITY;
    let mut history = Vec::with_capacity(scfg.episodes);
    let mut timing = SearchTiming::default();
    let mut group_occupancy = Vec::with_capacity(scfg.episodes.div_ceil(lanes));
    // Scratch reused across groups.
    let mut flat_states = Vec::with_capacity(lanes * 10);
    let mut mus = Vec::with_capacity(lanes);
    let mut acts = Vec::with_capacity(lanes);

    let mut episode = 0;
    while episode < scfg.episodes {
        let _g_span = autohet_obs::trace::span("search.group");
        let group_stats = env.engine().stats();
        let active = lanes.min(scfg.episodes - episode);
        // Lanes `0..warm_lanes` are still in warm-up (episode index below
        // the warm-up horizon); since groups advance episodes contiguously
        // the warm-up lanes always form a prefix.
        let warm_lanes = warmup.saturating_sub(episode).min(active);

        // ---- Decision stage: one batched actor pass per layer step.
        let ta = Instant::now();
        for noise in noises.iter_mut().take(active) {
            noise.reset_with_sigma(cur_sigma);
            cur_sigma = (cur_sigma * scfg.noise_decay).max(scfg.noise_min);
        }
        venv.begin(active);
        for k in 0..n {
            venv.observe_step(k, &mut flat_states);
            if warm_lanes == 0 {
                agent.act_noisy_batch(&flat_states, &mut noises[..active], &mut acts);
            } else {
                // Mixed group: actor lanes still share one batched pass,
                // warm-up lanes draw uniform actions; RNG order (warm-up
                // stream, then agent stream per actor lane ascending) is
                // the per-episode order at one lane.
                acts.clear();
                if warm_lanes < active {
                    mus.clear();
                    mus.extend_from_slice(
                        agent.act_batch(&flat_states[warm_lanes * 10..], active - warm_lanes),
                    );
                }
                for l in 0..active {
                    let a = if l < warm_lanes {
                        warmup_rng.gen::<f64>()
                    } else {
                        (mus[l - warm_lanes] + agent.noise_sample(&mut noises[l])).clamp(0.0, 1.0)
                    };
                    acts.push(a);
                }
            }
            venv.apply_step(k, &acts);
        }
        timing.agent += ta.elapsed();

        // ---- Hardware feedback: evaluate the group in lane order.
        let ts = Instant::now();
        let episodes_done = venv.finish();
        timing.simulator += ts.elapsed();

        // One cache window per group: the decision stage never touches the
        // engine, so at one lane this is the per-episode window.
        let hit = env.engine().stats().since(&group_stats).combined_hit_rate();

        // ---- Learning stage: ingest lanes in order, then train per group.
        let ta = Instant::now();
        for (l, ep) in episodes_done.into_iter().enumerate() {
            let reward = ep.reward;
            history.push(EpisodeRecord {
                episode: episode + l,
                rue: ep.report.rue(),
                reward,
                utilization: ep.report.utilization,
                energy_nj: ep.report.energy_nj(),
                cache_hit_rate: hit,
            });
            if reward > best_reward {
                best_reward = reward;
                best = Some((ep.strategy, ep.report));
            }
            let mut states = ep.states;
            for k in 0..n {
                agent.remember(Experience {
                    state: std::mem::take(&mut states[k]),
                    next_state: states[k + 1].clone(),
                    action: ep.actions[k],
                    reward,
                    done: k + 1 == n,
                });
            }
        }
        for _ in 0..scfg.train_steps {
            agent.train_step();
        }
        timing.agent += ta.elapsed();

        group_occupancy.push(active as f64 / lanes as f64);
        episode += active;
    }

    timing.total = t0.elapsed();
    timing.cache = env.engine().stats().since(&stats0);
    timing.train = agent.train_profile();
    let groups = group_occupancy.len();
    let mean_occupancy = group_occupancy.iter().sum::<f64>() / groups.max(1) as f64;
    let secs = timing.total.as_secs_f64();
    let stats = VecSearchStats {
        lanes,
        groups,
        episodes: scfg.episodes,
        episodes_per_sec: if secs > 0.0 {
            scfg.episodes as f64 / secs
        } else {
            0.0
        },
        group_occupancy,
        mean_occupancy,
    };
    let (best_strategy, best_report) = best.expect("episodes >= 1");
    (
        SearchOutcome {
            best_strategy,
            best_report,
            history,
            timing,
        },
        stats,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::homogeneous::best_homogeneous;
    use autohet_dnn::zoo;
    use autohet_xbar::geometry::paper_hybrid_candidates;

    /// The driver at `lanes` on a fresh engine.
    fn vec_search(
        m: &Model,
        cands: &[XbarShape],
        cfg: &AccelConfig,
        scfg: &RlSearchConfig,
        lanes: usize,
    ) -> SearchOutcome {
        let engine = Arc::new(EvalEngine::new(m.clone(), *cfg));
        rl_search_vec_with_stats(m, cands, cfg, scfg, lanes, engine).0
    }

    fn quick_cfg(seed: u64, episodes: usize) -> RlSearchConfig {
        RlSearchConfig {
            episodes,
            ddpg: DdpgConfig {
                seed,
                batch: 32,
                hidden: 32,
                ..DdpgConfig::default()
            },
            train_steps: 4,
            ..RlSearchConfig::default()
        }
    }

    #[test]
    fn search_beats_best_homogeneous_on_micro_cnn() {
        let m = zoo::micro_cnn();
        let cfg = AccelConfig::default().with_tile_sharing();
        let outcome = rl_search(&m, &paper_hybrid_candidates(), &cfg, &quick_cfg(1, 60));
        let (_, homo) = best_homogeneous(&m, &AccelConfig::default());
        assert!(
            outcome.best_rue() >= homo.rue(),
            "rl {} vs best homo {}",
            outcome.best_rue(),
            homo.rue()
        );
        assert_eq!(outcome.best_strategy.len(), m.layers.len());
        assert_eq!(outcome.history.len(), 60);
    }

    #[test]
    fn search_is_deterministic_for_a_seed() {
        let m = zoo::micro_cnn();
        let cfg = AccelConfig::default();
        let a = rl_search(&m, &paper_hybrid_candidates(), &cfg, &quick_cfg(5, 12));
        let b = rl_search(&m, &paper_hybrid_candidates(), &cfg, &quick_cfg(5, 12));
        assert_eq!(a.best_strategy, b.best_strategy);
        let ra: Vec<f64> = a.history.iter().map(|h| h.rue).collect();
        let rb: Vec<f64> = b.history.iter().map(|h| h.rue).collect();
        assert_eq!(ra, rb);
    }

    /// Updates a search runs: `train_steps` after every group (of `lanes`
    /// episodes, the last possibly short) that leaves at least one batch
    /// of transitions in the pool.
    fn expected_train_steps(scfg: &RlSearchConfig, layers: usize, lanes: usize) -> u64 {
        let groups = scfg.episodes.div_ceil(lanes);
        let trained = (1..=groups)
            .filter(|&g| {
                let pooled = (layers * (g * lanes).min(scfg.episodes)).min(scfg.ddpg.pool);
                pooled >= scfg.ddpg.batch
            })
            .count();
        (trained * scfg.train_steps) as u64
    }

    #[test]
    fn train_profile_counts_the_updates_that_ran() {
        let m = zoo::micro_cnn();
        let cfg = AccelConfig::default();
        let cands = paper_hybrid_candidates();
        // Batch 32 over 4 layers: the first 7 episodes leave the pool short.
        let scfg = quick_cfg(3, 21);
        for lanes in [1, 3] {
            let a = vec_search(&m, &cands, &cfg, &scfg, lanes).timing;
            let b = vec_search(&m, &cands, &cfg, &scfg, lanes).timing;
            let expected = expected_train_steps(&scfg, m.layers.len(), lanes);
            let groups = scfg.episodes.div_ceil(lanes);
            assert!(expected > 0 && expected < (groups * scfg.train_steps) as u64);
            assert_eq!(a.train.steps, expected, "lanes {lanes}");
            assert_eq!(a.train.steps, b.train.steps);
            let phases = a.train.forward + a.train.backward + a.train.optimizer;
            assert!(phases <= a.agent, "{phases:?} > {:?}", a.agent);
        }
        let seq = rl_search(&m, &cands, &cfg, &scfg).timing;
        assert_eq!(
            seq.train.steps,
            expected_train_steps(&scfg, m.layers.len(), 1)
        );
    }

    #[test]
    fn best_rue_is_max_over_history() {
        let m = zoo::micro_cnn();
        let cfg = AccelConfig::default();
        let outcome = rl_search(&m, &paper_hybrid_candidates(), &cfg, &quick_cfg(2, 20));
        let hist_max = outcome
            .history
            .iter()
            .map(|h| h.rue)
            .fold(f64::MIN, f64::max);
        assert!((outcome.best_rue() - hist_max).abs() < 1e-12);
    }

    #[test]
    fn convergence_helpers_are_consistent() {
        let m = zoo::micro_cnn();
        let cfg = AccelConfig::default();
        let outcome = rl_search(&m, &paper_hybrid_candidates(), &cfg, &quick_cfg(9, 25));
        let running = outcome.rue_running_best();
        assert_eq!(running.len(), 25);
        assert!(running.windows(2).all(|w| w[1] >= w[0]));
        assert!((running.last().unwrap() - outcome.best_rue()).abs() < 1e-15);
        let e2b = outcome.episodes_to_best();
        assert!(e2b < 25);
        assert!((outcome.history[e2b].rue - outcome.best_rue()).abs() < 1e-15);
    }

    #[test]
    fn timing_buckets_are_populated() {
        let m = zoo::micro_cnn();
        let cfg = AccelConfig::default();
        let outcome = rl_search(&m, &paper_hybrid_candidates(), &cfg, &quick_cfg(3, 5));
        assert!(outcome.timing.total >= outcome.timing.simulator);
        assert!(outcome.timing.total.as_nanos() > 0);
        let f = outcome.timing.simulator_fraction();
        assert!((0.0..=1.0).contains(&f));
    }

    #[test]
    fn warm_cache_avoids_recomputing_layer_slices() {
        // The tentpole's measurable claim: a 60-episode search touches
        // 60 × L layer slices, but only L × C distinct (layer, shape)
        // pairs exist — everything past the first visit is a cache hit.
        let m = zoo::micro_cnn();
        let cands = paper_hybrid_candidates();
        let cfg = AccelConfig::default().with_tile_sharing();
        let outcome = rl_search(&m, &cands, &cfg, &quick_cfg(1, 60));
        let cache = outcome.timing.cache;
        assert!(cache.layer_hits > 0, "no cache hits recorded");
        let pairs = (m.layers.len() * cands.len()) as u64;
        assert!(
            cache.layer_misses <= pairs,
            "layer misses {} exceed the {pairs} distinct (layer, shape) pairs",
            cache.layer_misses
        );
        let episodes_times_layers = (60 * m.layers.len()) as u64;
        assert!(
            cache.layer_misses < episodes_times_layers,
            "warm cache must compute fewer slices than episodes × layers"
        );
        assert!((0.0..=1.0).contains(&cache.layer_hit_rate()));
        assert!((0.0..=1.0).contains(&cache.strategy_hit_rate()));
        // Every full composition corresponds to a strategy-cache miss.
        assert!(cache.strategy_misses <= 60 + 1); // episodes + reward reference

        // Per-episode hit rates are well-formed, and once the distinct
        // (layer, shape) pairs are all cached, episodes run mostly hot.
        assert!(outcome
            .history
            .iter()
            .all(|h| (0.0..=1.0).contains(&h.cache_hit_rate)));
        let last = outcome.history.last().unwrap();
        assert!(
            last.cache_hit_rate > 0.5,
            "late episodes should be cache-hot, got {}",
            last.cache_hit_rate
        );
    }

    #[test]
    fn shared_engine_does_not_change_the_outcome() {
        // Warm engine vs cold engine: cached feedback is bit-identical,
        // so the search trajectory cannot depend on cache state.
        let m = zoo::micro_cnn();
        let cands = paper_hybrid_candidates();
        let cfg = AccelConfig::default();
        let cold = rl_search(&m, &cands, &cfg, &quick_cfg(5, 12));
        let engine = Arc::new(EvalEngine::new(m.clone(), cfg));
        // Pre-warm with unrelated evaluations.
        for (i, &c) in cands.iter().enumerate() {
            let mut s = vec![cands[0]; m.layers.len()];
            s[i % m.layers.len()] = c;
            engine.evaluate(&s);
        }
        let warm = rl_search_vec_with_stats(&m, &cands, &cfg, &quick_cfg(5, 12), 1, engine).0;
        assert_eq!(cold.best_strategy, warm.best_strategy);
        assert_eq!(cold.best_report, warm.best_report);
        let ra: Vec<f64> = cold.history.iter().map(|h| h.rue).collect();
        let rb: Vec<f64> = warm.history.iter().map(|h| h.rue).collect();
        assert_eq!(ra, rb);
    }

    fn outcome_bits(o: &SearchOutcome) -> Vec<(usize, u64, u64, u64, u64, u64)> {
        o.history
            .iter()
            .map(|h| {
                (
                    h.episode,
                    h.rue.to_bits(),
                    h.reward.to_bits(),
                    h.utilization.to_bits(),
                    h.energy_nj.to_bits(),
                    h.cache_hit_rate.to_bits(),
                )
            })
            .collect()
    }

    #[test]
    fn vec_search_multi_lane_is_seed_reproducible() {
        let m = zoo::micro_cnn();
        let cands = paper_hybrid_candidates();
        let cfg = AccelConfig::default();
        let a = vec_search(&m, &cands, &cfg, &quick_cfg(11, 25), 4);
        let b = vec_search(&m, &cands, &cfg, &quick_cfg(11, 25), 4);
        assert_eq!(outcome_bits(&a), outcome_bits(&b));
        assert_eq!(a.best_strategy, b.best_strategy);
        assert_eq!(a.best_report, b.best_report);
    }

    #[test]
    #[should_panic(expected = "engine must be built for the searched model")]
    fn engine_for_another_model_is_rejected() {
        // Same layer count, another layer 0: the engine would price every
        // strategy on a model the search never saw.
        let m = zoo::micro_cnn();
        let mut other = m.clone();
        other.layers[0].out_channels *= 4;
        let cfg = AccelConfig::default();
        let engine = Arc::new(EvalEngine::new(other, cfg));
        let _ = rl_search_vec_with_stats(
            &m,
            &paper_hybrid_candidates(),
            &cfg,
            &quick_cfg(1, 6),
            2,
            engine,
        );
    }

    #[test]
    fn vec_search_stats_are_well_formed() {
        // 25 episodes over 4 lanes: 7 groups, the last one quarter-full.
        let m = zoo::micro_cnn();
        let cands = paper_hybrid_candidates();
        let cfg = AccelConfig::default();
        let engine = Arc::new(EvalEngine::new(m.clone(), cfg));
        let (o, s) = rl_search_vec_with_stats(&m, &cands, &cfg, &quick_cfg(3, 25), 4, engine);
        assert_eq!(o.history.len(), 25);
        assert_eq!(
            o.history.iter().map(|h| h.episode).collect::<Vec<_>>(),
            (0..25).collect::<Vec<_>>()
        );
        assert_eq!(s.lanes, 4);
        assert_eq!(s.episodes, 25);
        assert_eq!(s.groups, 7);
        assert_eq!(s.group_occupancy.len(), 7);
        assert!(s.group_occupancy[..6].iter().all(|&o| o == 1.0));
        assert_eq!(s.group_occupancy[6], 0.25);
        assert!((s.mean_occupancy - 6.25 / 7.0).abs() < 1e-12);
        assert!(s.episodes_per_sec > 0.0);
    }

    #[test]
    fn vec_search_multi_lane_still_finds_good_strategies() {
        // Fewer gradient updates per episode must not break the search's
        // headline claim on the micro model.
        let m = zoo::micro_cnn();
        let cfg = AccelConfig::default().with_tile_sharing();
        let outcome = vec_search(&m, &paper_hybrid_candidates(), &cfg, &quick_cfg(1, 60), 8);
        let (_, homo) = best_homogeneous(&m, &AccelConfig::default());
        assert!(
            outcome.best_rue() >= homo.rue(),
            "vec rl {} vs best homo {}",
            outcome.best_rue(),
            homo.rue()
        );
    }
}

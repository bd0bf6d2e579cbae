//! Property-based contracts of the vectorized search driver
//! (DESIGN.md §10):
//!
//! - `rl_search` is the lockstep driver at one lane on a fresh engine,
//!   and one-lane runs reproduce every field, `cache_hit_rate` included,
//!   for any seed, episode count, and warm-up horizon (the trajectory
//!   itself is pinned by the one-lane rows of `tests/golden_ddpg.rs`);
//! - multi-lane runs are exactly reproducible for a fixed
//!   `(seed, lanes)` pair (fixed ascending-lane RNG interleave, ordered
//!   evaluation fan-out);
//! - throughput counters are internally consistent.

use autohet::prelude::*;
use autohet_rl::DdpgConfig;
use proptest::prelude::*;
use std::sync::Arc;

/// Full-precision fingerprint of a search trajectory: every history field
/// as raw bits (episode, rue, reward, utilization, energy, hit rate), plus
/// the winning strategy and report.
type HistoryBits = Vec<(usize, u64, u64, u64, u64, u64)>;

fn fingerprint(o: &SearchOutcome) -> (HistoryBits, Vec<XbarShape>, EvalReport) {
    (
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
            .collect(),
        o.best_strategy.clone(),
        o.best_report.clone(),
    )
}

fn scfg(seed: u64, episodes: usize, warmup: usize) -> RlSearchConfig {
    RlSearchConfig {
        episodes,
        ddpg: DdpgConfig {
            seed,
            hidden: 16,
            batch: 8,
            ..DdpgConfig::default()
        },
        train_steps: 2,
        warmup_episodes: warmup,
        ..RlSearchConfig::default()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    // For any seed / length / warm-up split (spanning all-warm-up, mixed,
    // and no-warm-up searches), `rl_search` and an explicit one-lane run
    // on a fresh engine agree bit for bit: one lane never races on the
    // engine memo.
    #[test]
    fn vec_single_lane_is_bit_identical_to_sequential(
        seed in any::<u64>(),
        episodes in 1usize..=18,
        warmup in 0usize..=20,
    ) {
        let m = autohet_dnn::zoo::micro_cnn();
        let cands = paper_hybrid_candidates();
        let cfg = AccelConfig::default();
        let s = scfg(seed, episodes, warmup);
        let seq = rl_search(&m, &cands, &cfg, &s);
        let engine = Arc::new(EvalEngine::new(m.clone(), cfg));
        let (vec1, _) = rl_search_vec_with_stats(&m, &cands, &cfg, &s, 1, engine);
        prop_assert_eq!(fingerprint(&seq), fingerprint(&vec1));
    }

    // Seeded multi-lane runs are exactly reproducible, and their
    // throughput counters are consistent with the episode/lane split.
    #[test]
    fn vec_multi_lane_is_seed_reproducible(
        seed in any::<u64>(),
        episodes in 1usize..=16,
        lanes in 2usize..=5,
    ) {
        let m = autohet_dnn::zoo::micro_cnn();
        let cands = paper_hybrid_candidates();
        let cfg = AccelConfig::default();
        let s = scfg(seed, episodes, 4);
        let run = || {
            let engine = Arc::new(EvalEngine::new(m.clone(), cfg));
            rl_search_vec_with_stats(&m, &cands, &cfg, &s, lanes, engine)
        };
        let (a, sa) = run();
        let (b, sb) = run();
        prop_assert_eq!(fingerprint(&a), fingerprint(&b));
        prop_assert_eq!(sa.lanes, lanes);
        prop_assert_eq!(sa.episodes, episodes);
        prop_assert_eq!(sa.groups, episodes.div_ceil(lanes));
        prop_assert_eq!(sa.group_occupancy.len(), sa.groups);
        prop_assert_eq!(&sa.group_occupancy, &sb.group_occupancy);
        // Every group but possibly the last runs at full occupancy, and
        // occupancies recompose into the episode count exactly.
        let total: f64 = sa.group_occupancy.iter().sum::<f64>() * lanes as f64;
        prop_assert!((total - episodes as f64).abs() < 1e-9);
        for (g, &occ) in sa.group_occupancy.iter().enumerate() {
            if g + 1 < sa.groups {
                prop_assert_eq!(occ, 1.0);
            } else {
                prop_assert!(occ > 0.0 && occ <= 1.0);
            }
        }
    }

    // A shared warm engine never changes a search outcome (cached
    // feedback is bit-identical).
    #[test]
    fn vec_outcome_is_independent_of_cache_state(
        seed in any::<u64>(),
        lanes in 1usize..=4,
    ) {
        let m = autohet_dnn::zoo::micro_cnn();
        let cands = paper_hybrid_candidates();
        let cfg = AccelConfig::default();
        let s = scfg(seed, 10, 3);
        let fresh = Arc::new(EvalEngine::new(m.clone(), cfg));
        let (cold, _) = rl_search_vec_with_stats(&m, &cands, &cfg, &s, lanes, fresh);
        let engine = Arc::new(EvalEngine::new(m.clone(), cfg));
        for (i, &c) in cands.iter().enumerate() {
            let mut strat = vec![cands[0]; m.layers.len()];
            strat[i % m.layers.len()] = c;
            engine.evaluate(&strat);
        }
        let (warm, _) = rl_search_vec_with_stats(&m, &cands, &cfg, &s, lanes, engine);
        prop_assert_eq!(cold.best_strategy, warm.best_strategy);
        prop_assert_eq!(cold.best_report, warm.best_report);
        let ra: Vec<u64> = cold.history.iter().map(|h| h.rue.to_bits()).collect();
        let rb: Vec<u64> = warm.history.iter().map(|h| h.rue.to_bits()).collect();
        prop_assert_eq!(ra, rb);
    }
}

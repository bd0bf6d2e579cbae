//! Cross-crate integration: the full search stack (rl + env + accel) on
//! real workloads, against the comparator searches.

use autohet::prelude::*;
use autohet_rl::{DdpgConfig, DqnConfig};
use std::sync::Arc;

fn quick(seed: u64, episodes: usize) -> RlSearchConfig {
    RlSearchConfig {
        episodes,
        ddpg: DdpgConfig {
            seed,
            hidden: 32,
            batch: 32,
            ..DdpgConfig::default()
        },
        train_steps: 4,
        ..RlSearchConfig::default()
    }
}

#[test]
fn rl_matches_the_exhaustive_oracle_on_micro_cnn() {
    // 5⁴ = 625 strategies: the oracle is exact; a modest RL budget must
    // land within 5% of the optimum (it usually finds it exactly).
    let m = autohet_dnn::zoo::micro_cnn();
    let cfg = AccelConfig::default().with_tile_sharing();
    let cands = paper_hybrid_candidates();
    let (_, oracle) = exhaustive_search(&m, &cands, &cfg, 1_000);
    let outcome = rl_search(&m, &cands, &cfg, &quick(3, 120));
    assert!(
        outcome.best_rue() >= oracle.rue() * 0.95,
        "rl {} vs oracle {}",
        outcome.best_rue(),
        oracle.rue()
    );
}

#[test]
fn rl_beats_random_search_at_equal_budget() {
    let m = autohet_dnn::zoo::alexnet();
    let cfg = AccelConfig::default().with_tile_sharing();
    let cands = paper_hybrid_candidates();
    let budget = 80;
    let outcome = rl_search(&m, &cands, &cfg, &quick(7, budget));
    let (_, rand) = random_search(&EvalEngine::new(m.clone(), cfg), &cands, budget, 7);
    assert!(
        outcome.best_rue() >= rand.rue() * 0.98,
        "rl {} vs random {}",
        outcome.best_rue(),
        rand.rue()
    );
}

#[test]
fn autohet_beats_best_homogeneous_on_alexnet() {
    // The §4.2 headline on a real paper workload.
    let m = autohet_dnn::zoo::alexnet();
    let outcome = rl_search(
        &m,
        &paper_hybrid_candidates(),
        &AccelConfig::default().with_tile_sharing(),
        &quick(1, 80),
    );
    let (_, homo) = best_homogeneous(&m, &AccelConfig::default());
    assert!(
        outcome.best_rue() > homo.rue(),
        "AutoHet {} vs best homo {}",
        outcome.best_rue(),
        homo.rue()
    );
}

#[test]
fn greedy_searches_are_dominated_by_the_oracle() {
    let m = autohet_dnn::zoo::micro_cnn();
    let cfg = AccelConfig::default();
    let cands = paper_hybrid_candidates();
    let (_, oracle) = exhaustive_search(&m, &cands, &cfg, 1_000);
    let gu = greedy_utilization(&EvalEngine::new(m.clone(), cfg), &cands);
    let gr = greedy_layerwise_rue(&m, &cands, &cfg);
    assert!(oracle.rue() >= gu.rue());
    assert!(oracle.rue() >= gr.rue());
}

/// The best strategy, the best report's `Debug` form, and the bits of
/// every history row's modelled values (not `cache_hit_rate`, which
/// reads the engine's counters).
fn outcome_bits(o: &SearchOutcome) -> (Vec<XbarShape>, String, Vec<[u64; 4]>) {
    let rows = o
        .history
        .iter()
        .map(|h| {
            [
                h.rue.to_bits(),
                h.reward.to_bits(),
                h.utilization.to_bits(),
                h.energy_nj.to_bits(),
            ]
        })
        .collect();
    (
        o.best_strategy.clone(),
        format!("{:?}", o.best_report),
        rows,
    )
}

#[test]
fn comparators_ignore_the_engines_prior_contents() {
    // Each comparator runs on the engine it is given. Cached feedback is
    // bit-identical to a fresh evaluation, so an engine that has already
    // scored the baselines and an unrelated annealing run must give the
    // same outcome as a fresh one; only the cache counters may differ.
    let m = autohet_dnn::zoo::micro_cnn();
    let cfg = AccelConfig::default().with_tile_sharing();
    let cands = paper_hybrid_candidates();
    let engine = |warm: bool| {
        let engine = Arc::new(EvalEngine::new(m.clone(), cfg));
        if warm {
            homogeneous_reports(&engine);
            let acfg = AnnealingConfig {
                iterations: 50,
                seed: 1,
                ..AnnealingConfig::default()
            };
            annealing_search(&engine, &cands, &acfg);
        }
        engine
    };

    let dcfg = DqnSearchConfig {
        episodes: 24,
        dqn: DqnConfig {
            seed: 3,
            hidden: 32,
            batch: 32,
            ..DqnConfig::default()
        },
        train_steps: 4,
    };
    let dqn = |warm| outcome_bits(&dqn_search(engine(warm), &cands, &dcfg));
    assert_eq!(dqn(false), dqn(true), "DQN");

    let acfg = AnnealingConfig {
        iterations: 40,
        seed: 5,
        ..AnnealingConfig::default()
    };
    let sa = |warm| outcome_bits(&annealing_search(&engine(warm), &cands, &acfg));
    assert_eq!(sa(false), sa(true), "annealing");

    let rnd = |warm| {
        let (strategy, report) = random_search(&engine(warm), &cands, 40, 7);
        (strategy, format!("{report:?}"))
    };
    assert_eq!(rnd(false), rnd(true), "random");

    let gu = |warm| {
        let out = greedy_utilization(&engine(warm), &cands);
        (out.strategy, format!("{:?}", out.report))
    };
    assert_eq!(gu(false), gu(true), "greedy utilization");
}

#[test]
fn heterogeneity_shines_on_depthwise_workloads() {
    // MobileNet's depthwise stages pack diagonally (terrible on wide
    // crossbars) while its pointwise stages want wide crossbars — no
    // homogeneous design can serve both, so AutoHet's win here should be
    // larger than on VGG-style all-dense models.
    let m = autohet_dnn::zoo::mobilenet_v1();
    let results = autohet::ablation::run_ablation(&m, &quick(2, 120));
    let base = &results[0];
    let all = &results[3];
    assert!(
        all.report.rue() > base.report.rue(),
        "AutoHet {} vs best homo {}",
        all.report.rue(),
        base.report.rue()
    );
    // A homogeneous design is forced to waste: on the RUE-best shape the
    // depthwise stages utilize crossbars terribly.
    let (shape, homo) = best_homogeneous(&m, &AccelConfig::default());
    let dw_util: Vec<f64> = m
        .layers
        .iter()
        .filter(|l| l.kind == autohet_dnn::LayerKind::DepthwiseConv)
        .map(|l| autohet_xbar::utilization::utilization(l, shape))
        .collect();
    let worst = dw_util.iter().cloned().fold(f64::MAX, f64::min);
    assert!(
        worst < 0.05,
        "expected a depthwise stage below 5% utilization on {shape}, min {worst}"
    );
    assert!(homo.rue() > 0.0);
}

#[test]
fn search_improves_over_episodes() {
    // The running best is non-decreasing, and late episodes should not be
    // uniformly worse than the first (the agent learns something).
    let m = autohet_dnn::zoo::alexnet();
    let outcome = rl_search(
        &m,
        &paper_hybrid_candidates(),
        &AccelConfig::default(),
        &quick(11, 60),
    );
    let mut best_so_far = f64::MIN;
    for h in &outcome.history {
        best_so_far = best_so_far.max(h.rue);
    }
    assert_eq!(best_so_far, outcome.best_rue());
    let first10: f64 = outcome.history[..10].iter().map(|h| h.rue).sum::<f64>() / 10.0;
    let last10: f64 = outcome.history[50..].iter().map(|h| h.rue).sum::<f64>() / 10.0;
    assert!(
        last10 > first10 * 0.8,
        "late episodes collapsed: {first10} -> {last10}"
    );
}

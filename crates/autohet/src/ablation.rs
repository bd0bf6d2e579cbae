//! The §4.3 ablation: Base → +He → +Hy → All.
//!
//! - **Base**: the best-RUE homogeneous square accelerator.
//! - **+He**: RL search restricted to the five square candidates
//!   (heterogeneity only).
//! - **+Hy**: RL search over the hybrid square+rectangle candidate set.
//! - **All**: +Hy plus the tile-shared allocation scheme.
//!
//! Each stage's search space contains the previous stage's best
//! configuration (squares are a subset of the square search; sharing never
//! hurts a fixed strategy), so each stage also *evaluates* its
//! predecessor's strategy and keeps the max — the RL agent must only ever
//! improve on it, mirroring the paper's monotone Fig. 10.

use crate::homogeneous::best_homogeneous_with_engine;
use crate::search::rl::{rl_search_vec_with_stats, RlSearchConfig, SearchOutcome};
use autohet_accel::{AccelConfig, EvalEngine, EvalReport};
use autohet_dnn::Model;
use autohet_xbar::geometry::{paper_hybrid_candidates, SQUARE_CANDIDATES};
use autohet_xbar::XbarShape;
use std::sync::Arc;

/// Ablation stages, in cumulative order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AblationStage {
    /// Best homogeneous square accelerator.
    Base,
    /// + heterogeneous square crossbars (RL-searched).
    He,
    /// + hybrid (square and rectangle) crossbars.
    Hy,
    /// + tile-shared allocation — the full AutoHet.
    All,
}

impl AblationStage {
    /// Display label matching the paper's figures.
    pub fn label(self) -> &'static str {
        match self {
            AblationStage::Base => "Base",
            AblationStage::He => "+He",
            AblationStage::Hy => "+Hy",
            AblationStage::All => "All",
        }
    }
}

/// One stage's outcome.
#[derive(Debug, Clone)]
pub struct AblationResult {
    pub stage: AblationStage,
    pub strategy: Vec<XbarShape>,
    pub report: EvalReport,
}

/// Run the full ablation. `scfg.ddpg.seed` seeds every stage's search.
/// Base, +He, and +Hy all evaluate against the plain accelerator, so they
/// share one memoized engine; All gets its own tile-shared engine.
pub fn run_ablation(model: &Model, scfg: &RlSearchConfig) -> Vec<AblationResult> {
    let plain = AccelConfig::default();
    let shared = AccelConfig::default().with_tile_sharing();
    let plain_engine = Arc::new(EvalEngine::new(model.clone(), plain));
    let shared_engine = Arc::new(EvalEngine::new(model.clone(), shared));

    // Base.
    let (base_shape, base_report) = best_homogeneous_with_engine(&plain_engine);
    let base_strategy = vec![base_shape; model.layers.len()];
    let mut results = vec![AblationResult {
        stage: AblationStage::Base,
        strategy: base_strategy.clone(),
        report: base_report,
    }];

    // +He: squares only.
    let he = search_with_floor(
        model,
        &SQUARE_CANDIDATES,
        &plain,
        scfg,
        &results[0].strategy,
        &plain_engine,
    );
    results.push(AblationResult {
        stage: AblationStage::He,
        strategy: he.0,
        report: he.1,
    });

    // +Hy: hybrid candidates.
    let hy = search_with_floor(
        model,
        &paper_hybrid_candidates(),
        &plain,
        scfg,
        &results[1].strategy,
        &plain_engine,
    );
    results.push(AblationResult {
        stage: AblationStage::Hy,
        strategy: hy.0,
        report: hy.1,
    });

    // All: hybrid + tile sharing (the predecessor strategy re-evaluated
    // under sharing is the floor — sharing a fixed strategy never hurts).
    let all = search_with_floor(
        model,
        &paper_hybrid_candidates(),
        &shared,
        scfg,
        &results[2].strategy,
        &shared_engine,
    );
    results.push(AblationResult {
        stage: AblationStage::All,
        strategy: all.0,
        report: all.1,
    });

    results
}

/// RL search that may not fall below an incumbent strategy: the incumbent
/// is evaluated under this stage's accelerator config and kept if better.
fn search_with_floor(
    model: &Model,
    candidates: &[XbarShape],
    cfg: &AccelConfig,
    scfg: &RlSearchConfig,
    incumbent: &[XbarShape],
    engine: &Arc<EvalEngine>,
) -> (Vec<XbarShape>, EvalReport) {
    let outcome: SearchOutcome =
        rl_search_vec_with_stats(model, candidates, cfg, scfg, 1, Arc::clone(engine)).0;
    // The incumbent may use shapes outside this stage's candidate list
    // only when moving from He → Hy; it is still a valid configuration of
    // the stage's accelerator, so comparing is fair.
    let floor = engine.evaluate(incumbent);
    if floor.rue() > outcome.best_report.rue() {
        (incumbent.to_vec(), floor)
    } else {
        (outcome.best_strategy, outcome.best_report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use autohet_rl::DdpgConfig;

    fn quick() -> RlSearchConfig {
        RlSearchConfig {
            episodes: 30,
            ddpg: DdpgConfig {
                seed: 17,
                hidden: 32,
                batch: 32,
                ..DdpgConfig::default()
            },
            train_steps: 4,
            ..RlSearchConfig::default()
        }
    }

    #[test]
    fn ablation_rue_is_monotone_nondecreasing() {
        // Fig. 10's headline property.
        let m = autohet_dnn::zoo::micro_cnn();
        let results = run_ablation(&m, &quick());
        assert_eq!(results.len(), 4);
        for w in results.windows(2) {
            assert!(
                w[1].report.rue() >= w[0].report.rue() - 1e-12,
                "{} ({}) < {} ({})",
                w[1].stage.label(),
                w[1].report.rue(),
                w[0].stage.label(),
                w[0].report.rue()
            );
        }
    }

    #[test]
    fn stage_order_and_labels() {
        let m = autohet_dnn::zoo::micro_cnn();
        let results = run_ablation(&m, &quick());
        let labels: Vec<&str> = results.iter().map(|r| r.stage.label()).collect();
        assert_eq!(labels, vec!["Base", "+He", "+Hy", "All"]);
    }

    #[test]
    fn base_is_homogeneous() {
        let m = autohet_dnn::zoo::micro_cnn();
        let results = run_ablation(&m, &quick());
        let s = &results[0].strategy;
        assert!(s.windows(2).all(|w| w[0] == w[1]));
        assert!(s[0].is_square());
    }

    #[test]
    fn all_stage_uses_tile_sharing() {
        let m = autohet_dnn::zoo::micro_cnn();
        let results = run_ablation(&m, &quick());
        assert!(
            results[3].report.sharing.is_some()
                || results[3].report.tiles <= results[2].report.tiles
        );
    }
}

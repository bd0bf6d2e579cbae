//! Greedy layer-wise comparators.
//!
//! Zhu et al. (the paper's related work \[29\]) assign mixed crossbar sizes
//! per layer with a greedy utilization objective; the paper contrasts this
//! with AutoHet's joint utilization/energy target. Two greedy drivers:
//!
//! - [`greedy_utilization`]: maximize each layer's Eq. 4 utilization
//!   (ties broken toward the larger crossbar — fewer peripherals).
//! - [`greedy_layerwise_rue`]: maximize a per-layer RUE proxy
//!   (utilization over that layer's standalone energy) — greedy on the
//!   paper's own metric, but blind to cross-layer allocation effects,
//!   which is exactly what the RL search can exploit.

use crate::search::rl::SearchTiming;
use autohet_accel::{AccelConfig, EvalEngine, EvalReport};
use autohet_dnn::Model;
use autohet_xbar::energy::{layer_energy, static_power};
use autohet_xbar::latency::layer_latency_ns;
use autohet_xbar::utilization::footprint;
use autohet_xbar::XbarShape;
use std::time::Instant;

/// Result of a greedy pass: the chosen strategy, its evaluation, and the
/// stage timing (including the evaluation-cache delta, which shows
/// whether the single closing `evaluate` was served from a shared
/// engine's cache).
#[derive(Debug, Clone)]
pub struct GreedyOutcome {
    pub strategy: Vec<XbarShape>,
    pub report: EvalReport,
    /// Stage timing and the evaluation-cache delta of this pass.
    pub timing: SearchTiming,
}

impl GreedyOutcome {
    /// Raw RUE of the chosen strategy.
    pub fn rue(&self) -> f64 {
        self.report.rue()
    }
}

/// Pick each layer's candidate by Eq. 4 utilization.
pub fn greedy_utilization(
    model: &Model,
    candidates: &[XbarShape],
    cfg: &AccelConfig,
) -> GreedyOutcome {
    let engine = EvalEngine::new(model.clone(), *cfg);
    greedy_utilization_with_engine(&engine, candidates)
}

/// [`greedy_utilization`] on an existing (possibly shared) memoized engine.
pub fn greedy_utilization_with_engine(
    engine: &EvalEngine,
    candidates: &[XbarShape],
) -> GreedyOutcome {
    assert!(!candidates.is_empty());
    let _span = autohet_obs::trace::span("search.greedy_utilization");
    let t0 = Instant::now();
    let stats0 = engine.stats();
    let mut timing = SearchTiming::default();
    let ta = Instant::now();
    let strategy: Vec<XbarShape> = engine
        .model()
        .layers
        .iter()
        .map(|l| {
            *candidates
                .iter()
                .max_by(|a, b| {
                    let ua = footprint(l, **a).utilization();
                    let ub = footprint(l, **b).utilization();
                    ua.partial_cmp(&ub).unwrap().then(a.cells().cmp(&b.cells()))
                })
                .unwrap()
        })
        .collect();
    timing.agent = ta.elapsed();
    let ts = Instant::now();
    let report = engine.evaluate(&strategy);
    timing.simulator = ts.elapsed();
    timing.total = t0.elapsed();
    timing.cache = engine.stats().since(&stats0);
    GreedyOutcome {
        strategy,
        report,
        timing,
    }
}

/// Pick each layer's candidate by a standalone utilization/energy ratio.
pub fn greedy_layerwise_rue(
    model: &Model,
    candidates: &[XbarShape],
    cfg: &AccelConfig,
) -> GreedyOutcome {
    let engine = EvalEngine::new(model.clone(), *cfg);
    greedy_layerwise_rue_with_engine(&engine, candidates)
}

/// [`greedy_layerwise_rue`] on an existing (possibly shared) memoized
/// engine.
pub fn greedy_layerwise_rue_with_engine(
    engine: &EvalEngine,
    candidates: &[XbarShape],
) -> GreedyOutcome {
    assert!(!candidates.is_empty());
    let _span = autohet_obs::trace::span("search.greedy_rue");
    let t0 = Instant::now();
    let stats0 = engine.stats();
    let mut timing = SearchTiming::default();
    let cfg = engine.config();
    let p = &cfg.cost;
    let ta = Instant::now();
    let strategy: Vec<XbarShape> = engine
        .model()
        .layers
        .iter()
        .map(|l| {
            *candidates
                .iter()
                .max_by(|a, b| {
                    let score = |shape: XbarShape| {
                        let fp = footprint(l, shape);
                        let tiles = fp.total_xbars().div_ceil(cfg.pes_per_tile as u64);
                        let alloc = tiles * cfg.pes_per_tile as u64;
                        let lat = layer_latency_ns(l, &fp, p);
                        let mut e = layer_energy(l, &fp, 0, 0.0, p);
                        e.leakage = static_power(alloc, shape, p) * lat * 1e-9;
                        fp.utilization_over(alloc) * 100.0 / e.total()
                    };
                    score(**a).partial_cmp(&score(**b)).unwrap()
                })
                .unwrap()
        })
        .collect();
    timing.agent = ta.elapsed();
    let ts = Instant::now();
    let report = engine.evaluate(&strategy);
    timing.simulator = ts.elapsed();
    timing.total = t0.elapsed();
    timing.cache = engine.stats().since(&stats0);
    GreedyOutcome {
        strategy,
        report,
        timing,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use autohet_accel::evaluate;
    use autohet_dnn::zoo;
    use autohet_xbar::geometry::{paper_hybrid_candidates, SQUARE_CANDIDATES};

    #[test]
    fn greedy_utilization_picks_perfect_fits() {
        // VGG16 L4 (128×128×3³) fits 36×32 at exactly 100% — the greedy
        // must find it among the hybrid candidates.
        let m = zoo::vgg16();
        let out = greedy_utilization(&m, &paper_hybrid_candidates(), &AccelConfig::default());
        // Both 36×32 and 72×64 fit this layer at exactly 100%; the tie
        // breaks toward the larger crossbar (fewer peripherals).
        let u = footprint(&m.layers[3], out.strategy[3]).utilization();
        assert!(
            (u - 1.0).abs() < 1e-12,
            "layer 4 fit {u} on {}",
            out.strategy[3]
        );
        assert!(out.strategy[3].is_rect());
    }

    #[test]
    fn greedy_utilization_beats_any_homogeneous_on_mapping_utilization() {
        let m = zoo::alexnet();
        let cfg = AccelConfig::default();
        let out = greedy_utilization(&m, SQUARE_CANDIDATES.as_ref(), &cfg);
        for s in SQUARE_CANDIDATES {
            let homo = evaluate(&m, &vec![s; m.layers.len()], &cfg);
            assert!(
                out.report.mapping_utilization >= homo.mapping_utilization - 1e-12,
                "greedy {} < homo {s} {}",
                out.report.mapping_utilization,
                homo.mapping_utilization
            );
        }
    }

    #[test]
    fn rue_greedy_outscores_utilization_greedy_on_rue() {
        // The utilization-greedy ignores energy entirely; optimizing the
        // per-layer ratio must not do worse on the global metric here.
        let m = zoo::vgg16();
        let cfg = AccelConfig::default();
        let cands = paper_hybrid_candidates();
        let by_util = greedy_utilization(&m, &cands, &cfg);
        let by_rue = greedy_layerwise_rue(&m, &cands, &cfg);
        assert!(by_rue.rue() >= by_util.rue() * 0.99);
    }

    #[test]
    fn strategies_cover_all_layers() {
        let m = zoo::resnet152();
        let cfg = AccelConfig::default();
        let out = greedy_layerwise_rue(&m, &paper_hybrid_candidates(), &cfg);
        assert_eq!(out.strategy.len(), 156);
    }

    #[test]
    fn shared_engine_reuse_shows_in_the_cache_delta() {
        // Running the same greedy twice on one engine: the second pass's
        // closing evaluation must be a strategy-cache hit.
        let m = zoo::micro_cnn();
        let engine = EvalEngine::new(m, AccelConfig::default());
        let first = greedy_utilization_with_engine(&engine, &paper_hybrid_candidates());
        assert_eq!(first.timing.cache.strategy_hits, 0);
        let second = greedy_utilization_with_engine(&engine, &paper_hybrid_candidates());
        assert_eq!(second.timing.cache.strategy_hits, 1);
        assert_eq!(first.strategy, second.strategy);
    }
}

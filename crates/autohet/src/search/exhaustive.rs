//! Exhaustive oracle: enumerate every `Cᴺ` strategy for small models.
//!
//! Used to measure the RL agent's optimality gap — the paper argues the
//! `Cᴺ` space makes manual/exhaustive search impractical (§2.2.3), which
//! is true at VGG16 scale (5¹⁶ ≈ 1.5×10¹¹); on 4-layer test models the
//! oracle is cheap and pins down the true optimum. The optimality tests
//! and the `eval_cache` bench call it.
//!
//! The enumeration walks a little-endian odometer over candidate indices
//! (`idx[0]` increments first) on one thread, through one memoized
//! [`EvalEngine`]; on exact RUE ties the earliest odometer index wins.

use autohet_accel::{AccelConfig, EvalEngine, EvalReport};
use autohet_dnn::Model;
use autohet_xbar::XbarShape;

/// Enumerate all strategies (panics if the space exceeds `limit`
/// evaluations; default callers pass ~1e5) and return the RUE-optimal
/// one. Reuses one scratch strategy buffer across the whole space,
/// cloning only on a new best.
pub fn exhaustive_search(
    model: &Model,
    candidates: &[XbarShape],
    cfg: &AccelConfig,
    limit: u64,
) -> (Vec<XbarShape>, EvalReport) {
    assert!(!candidates.is_empty());
    let engine = EvalEngine::new(model.clone(), *cfg);
    let n = model.layers.len();
    let c = candidates.len() as u64;
    let space = c.checked_pow(n as u32).unwrap_or(u64::MAX);
    assert!(
        space <= limit,
        "search space {space} exceeds limit {limit} (use rl_search instead)"
    );

    let mut idx = vec![0usize; n];
    let mut scratch = vec![candidates[0]; n];
    let mut best: Option<(Vec<XbarShape>, EvalReport)> = None;
    for _ in 0..space {
        let report = engine.evaluate_fresh(&scratch);
        if best.as_ref().map_or(true, |(_, b)| report.rue() > b.rue()) {
            best = Some((scratch.clone(), report));
        }
        // Odometer increment, updating the scratch buffer in place.
        let mut pos = 0;
        while pos < n {
            idx[pos] += 1;
            if (idx[pos] as u64) < c {
                scratch[pos] = candidates[idx[pos]];
                break;
            }
            idx[pos] = 0;
            scratch[pos] = candidates[0];
            pos += 1;
        }
    }
    best.expect("space >= 1")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::search::random::random_search;
    use autohet_accel::evaluate;
    use autohet_dnn::zoo;
    use autohet_xbar::geometry::paper_hybrid_candidates;

    #[test]
    fn oracle_dominates_random_search() {
        let m = zoo::micro_cnn();
        let cfg = AccelConfig::default();
        let cands = paper_hybrid_candidates();
        let (_, oracle) = exhaustive_search(&m, &cands, &cfg, 1_000);
        let (_, rand) = random_search(&m, &cands, &cfg, 50, 1);
        assert!(oracle.rue() >= rand.rue());
    }

    #[test]
    fn oracle_beats_every_single_shape() {
        let m = zoo::micro_cnn();
        let cfg = AccelConfig::default();
        let cands = paper_hybrid_candidates();
        let (_, oracle) = exhaustive_search(&m, &cands, &cfg, 1_000);
        for &s in &cands {
            let homo = evaluate(&m, &vec![s; m.layers.len()], &cfg);
            assert!(oracle.rue() >= homo.rue());
        }
    }

    #[test]
    #[should_panic]
    fn refuses_oversized_spaces() {
        let m = zoo::vgg16();
        let cands = paper_hybrid_candidates();
        let _ = exhaustive_search(&m, &cands, &AccelConfig::default(), 10_000);
    }

    #[test]
    fn two_candidate_space_enumerates_fully() {
        // 2⁴ = 16 strategies; the best must at least match both
        // homogeneous corners.
        let m = zoo::micro_cnn();
        let cfg = AccelConfig::default();
        let cands = vec![XbarShape::square(32), XbarShape::square(256)];
        let (_, best) = exhaustive_search(&m, &cands, &cfg, 100);
        for &s in &cands {
            let homo = evaluate(&m, &vec![s; m.layers.len()], &cfg);
            assert!(best.rue() >= homo.rue());
        }
    }
}

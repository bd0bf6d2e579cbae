//! Random-search baseline: sample uniform strategies, keep the best.
//!
//! Not in the paper, but the honest control for any learned search — the
//! RL agent has to beat this at an equal evaluation budget to demonstrate
//! it learned anything (the exhaustive oracle bounds both from above).
//! [`random_search`] samples on the engine it is given, which supplies
//! the model and config.

use autohet_accel::{EvalEngine, EvalReport};
use autohet_xbar::XbarShape;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Evaluate `samples` uniform random strategies on an existing (possibly
/// shared) memoized engine; return the best by RUE.
pub fn random_search(
    engine: &EvalEngine,
    candidates: &[XbarShape],
    samples: usize,
    seed: u64,
) -> (Vec<XbarShape>, EvalReport) {
    assert!(samples >= 1 && !candidates.is_empty());
    let n = engine.model().layers.len();
    let mut rng = SmallRng::seed_from_u64(seed ^ 0x5EED);
    let mut best: Option<(Vec<XbarShape>, EvalReport)> = None;
    for _ in 0..samples {
        let strategy: Vec<XbarShape> = (0..n)
            .map(|_| candidates[rng.gen_range(0..candidates.len())])
            .collect();
        let report = engine.evaluate_fresh(&strategy);
        if best.as_ref().map_or(true, |(_, b)| report.rue() > b.rue()) {
            best = Some((strategy, report));
        }
    }
    best.unwrap()
}

#[cfg(test)]
mod tests {
    use super::*;
    use autohet_accel::AccelConfig;
    use autohet_dnn::zoo;
    use autohet_xbar::geometry::paper_hybrid_candidates;

    #[test]
    fn finds_something_and_is_deterministic() {
        let engine = || EvalEngine::new(zoo::micro_cnn(), AccelConfig::default());
        let cands = paper_hybrid_candidates();
        let (s1, r1) = random_search(&engine(), &cands, 20, 9);
        let (s2, r2) = random_search(&engine(), &cands, 20, 9);
        assert_eq!(s1, s2);
        assert_eq!(r1.rue(), r2.rue());
        assert!(r1.rue() > 0.0);
    }

    #[test]
    fn more_samples_never_do_worse() {
        let engine = EvalEngine::new(zoo::micro_cnn(), AccelConfig::default());
        let cands = paper_hybrid_candidates();
        let (_, small) = random_search(&engine, &cands, 5, 4);
        let (_, large) = random_search(&engine, &cands, 50, 4);
        assert!(large.rue() >= small.rue());
    }
}

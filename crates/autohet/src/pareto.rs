//! Multi-objective exploration of the utilization/energy trade-off
//! (beyond-paper extension, DESIGN.md §6).
//!
//! The paper folds both objectives into one scalar (`R = u/e`, Eq. 2);
//! this module sweeps the exponents of the generalized reward `u^α / e`
//! and collects the resulting configurations, exposing the Pareto front a
//! designer would actually choose from: how much energy one extra point
//! of utilization costs at each operating point.

use crate::search::rl::{rl_search_vec_with_stats, RlSearchConfig};
use autohet_accel::{AccelConfig, EvalEngine, EvalReport};
use autohet_dnn::Model;
use autohet_xbar::XbarShape;
use std::sync::Arc;

/// One operating point of the sweep.
#[derive(Debug, Clone)]
pub struct ParetoPoint {
    /// Utilization exponent α used for this search (`reward = u^α / e`).
    pub alpha: f64,
    /// Resulting strategy.
    pub strategy: Vec<XbarShape>,
    /// Resulting hardware report.
    pub report: EvalReport,
}

impl ParetoPoint {
    /// `(utilization %, energy nJ)` objective pair.
    pub fn objectives(&self) -> (f64, f64) {
        (self.report.utilization_pct(), self.report.energy_nj())
    }
}

/// Run one RL search per `alpha`, each maximizing `u^α / e` — on parallel
/// workers sharing one memoized engine (hardware reports don't depend on
/// the reward weights, so every operating point reuses the same cache).
pub fn pareto_sweep(
    model: &Model,
    candidates: &[XbarShape],
    cfg: &AccelConfig,
    scfg: &RlSearchConfig,
    alphas: &[f64],
) -> Vec<ParetoPoint> {
    let engine = Arc::new(EvalEngine::new(model.clone(), *cfg));
    autohet_accel::par_map(alphas, |&alpha| {
        let mut s = *scfg;
        s.reward_weights = (alpha, 1.0);
        let outcome =
            rl_search_vec_with_stats(model, candidates, cfg, &s, 1, Arc::clone(&engine)).0;
        ParetoPoint {
            alpha,
            strategy: outcome.best_strategy,
            report: outcome.best_report,
        }
    })
}

/// Pareto dominance over minimization objective vectors: `a` dominates
/// `b` when it is no worse on every axis and strictly better on at least
/// one. The shared primitive behind the 2-objective
/// [`pareto_front`] and the M-objective NSGA-II machinery
/// ([`non_dominated_sort`], [`crate::robust`]).
pub fn dominates_min(a: &[f64], b: &[f64]) -> bool {
    debug_assert_eq!(a.len(), b.len());
    let mut strictly = false;
    for (&x, &y) in a.iter().zip(b) {
        if x > y {
            return false;
        }
        strictly |= x < y;
    }
    strictly
}

/// Fast non-dominated sorting (Deb et al., NSGA-II): partition point
/// indices into fronts — front 0 is the Pareto-optimal set, front `k+1`
/// is Pareto-optimal once fronts `0..=k` are removed. Objectives are all
/// minimized; `O(n²·M)` comparisons. Within a front, indices stay in
/// input order (deterministic).
pub fn non_dominated_sort(objectives: &[Vec<f64>]) -> Vec<Vec<usize>> {
    let n = objectives.len();
    // dominated_by[i] = points i dominates; dom_count[i] = #points
    // dominating i.
    let mut dominated_by: Vec<Vec<usize>> = vec![Vec::new(); n];
    let mut dom_count = vec![0usize; n];
    for i in 0..n {
        for j in (i + 1)..n {
            if dominates_min(&objectives[i], &objectives[j]) {
                dominated_by[i].push(j);
                dom_count[j] += 1;
            } else if dominates_min(&objectives[j], &objectives[i]) {
                dominated_by[j].push(i);
                dom_count[i] += 1;
            }
        }
    }
    let mut fronts: Vec<Vec<usize>> = Vec::new();
    let mut current: Vec<usize> = (0..n).filter(|&i| dom_count[i] == 0).collect();
    while !current.is_empty() {
        let mut next = Vec::new();
        for &i in &current {
            for &j in &dominated_by[i] {
                dom_count[j] -= 1;
                if dom_count[j] == 0 {
                    next.push(j);
                }
            }
        }
        next.sort_unstable();
        fronts.push(std::mem::replace(&mut current, next));
    }
    fronts
}

/// NSGA-II crowding distance of each member of `front` (parallel to
/// `front`'s order): for every objective the front is sorted and each
/// member accumulates its neighbors' normalized gap; boundary members get
/// `+∞` so extremes are always preferred at equal rank.
pub fn crowding_distances(objectives: &[Vec<f64>], front: &[usize]) -> Vec<f64> {
    let n = front.len();
    let mut dist = vec![0.0f64; n];
    if n == 0 {
        return dist;
    }
    let m = objectives[front[0]].len();
    #[allow(clippy::needless_range_loop)] // `obj` indexes several inner vectors
    for obj in 0..m {
        let mut order: Vec<usize> = (0..n).collect();
        order.sort_by(|&a, &b| {
            objectives[front[a]][obj]
                .partial_cmp(&objectives[front[b]][obj])
                .unwrap()
                .then(front[a].cmp(&front[b]))
        });
        let lo = objectives[front[order[0]]][obj];
        let hi = objectives[front[order[n - 1]]][obj];
        dist[order[0]] = f64::INFINITY;
        dist[order[n - 1]] = f64::INFINITY;
        let span = hi - lo;
        if span <= 0.0 {
            continue;
        }
        for w in 1..n.saturating_sub(1) {
            let below = objectives[front[order[w - 1]]][obj];
            let above = objectives[front[order[w + 1]]][obj];
            dist[order[w]] += (above - below) / span;
        }
    }
    dist
}

/// Indices of the non-dominated points (maximize utilization, minimize
/// energy). A point dominates another when it is no worse on both axes
/// and strictly better on one.
pub fn pareto_front(points: &[ParetoPoint]) -> Vec<usize> {
    let objectives: Vec<Vec<f64>> = points
        .iter()
        .map(|p| {
            let (u, e) = p.objectives();
            vec![-u, e] // maximize utilization → minimize its negation
        })
        .collect();
    (0..points.len())
        .filter(|&i| {
            objectives
                .iter()
                .all(|other| !dominates_min(other, &objectives[i]))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use autohet_rl::DdpgConfig;
    use autohet_xbar::geometry::paper_hybrid_candidates;

    fn quick() -> RlSearchConfig {
        RlSearchConfig {
            episodes: 40,
            ddpg: DdpgConfig {
                seed: 31,
                hidden: 32,
                batch: 32,
                ..DdpgConfig::default()
            },
            train_steps: 4,
            ..RlSearchConfig::default()
        }
    }

    #[test]
    fn sweep_produces_one_point_per_alpha() {
        let m = autohet_dnn::zoo::micro_cnn();
        let pts = pareto_sweep(
            &m,
            &paper_hybrid_candidates(),
            &AccelConfig::default(),
            &quick(),
            &[0.5, 1.0, 3.0],
        );
        assert_eq!(pts.len(), 3);
        for p in &pts {
            assert_eq!(p.strategy.len(), m.layers.len());
            let (u, e) = p.objectives();
            assert!(u > 0.0 && e > 0.0);
        }
    }

    #[test]
    fn heavy_utilization_weight_biases_toward_utilization() {
        // α = 6 values utilization far above energy: the chosen point's
        // utilization must be ≥ the energy-biased point's.
        let m = autohet_dnn::zoo::micro_cnn();
        let pts = pareto_sweep(
            &m,
            &paper_hybrid_candidates(),
            &AccelConfig::default(),
            &quick(),
            &[0.25, 6.0],
        );
        let (u_energy_biased, _) = pts[0].objectives();
        let (u_util_biased, _) = pts[1].objectives();
        assert!(
            u_util_biased >= u_energy_biased - 1e-9,
            "{u_util_biased} < {u_energy_biased}"
        );
    }

    #[test]
    fn front_is_non_dominated() {
        let m = autohet_dnn::zoo::micro_cnn();
        let pts = pareto_sweep(
            &m,
            &paper_hybrid_candidates(),
            &AccelConfig::default(),
            &quick(),
            &[0.25, 0.5, 1.0, 2.0, 6.0],
        );
        let front = pareto_front(&pts);
        assert!(!front.is_empty());
        for &i in &front {
            let (ui, ei) = pts[i].objectives();
            for (j, q) in pts.iter().enumerate() {
                if i == j {
                    continue;
                }
                let (uj, ej) = q.objectives();
                assert!(
                    !(uj >= ui && ej <= ei && (uj > ui || ej < ei)),
                    "front point {i} dominated by {j}"
                );
            }
        }
    }

    #[test]
    fn dominance_is_strict_somewhere() {
        assert!(dominates_min(&[1.0, 2.0], &[1.0, 3.0]));
        assert!(dominates_min(&[0.5, 2.0, 7.0], &[1.0, 3.0, 7.0]));
        assert!(!dominates_min(&[1.0, 2.0], &[1.0, 2.0])); // equal
        assert!(!dominates_min(&[0.0, 5.0], &[1.0, 2.0])); // trade-off
        assert!(!dominates_min(&[2.0, 2.0], &[1.0, 3.0]));
    }

    #[test]
    fn non_dominated_sort_layers_points() {
        // Front 0: (0,3), (1,1), (3,0); front 1: (2,2), (4,1); front 2: (5,5).
        let objs = vec![
            vec![0.0, 3.0],
            vec![2.0, 2.0],
            vec![1.0, 1.0],
            vec![5.0, 5.0],
            vec![3.0, 0.0],
            vec![4.0, 1.0],
        ];
        let fronts = non_dominated_sort(&objs);
        assert_eq!(fronts, vec![vec![0, 2, 4], vec![1, 5], vec![3]]);
        // Every point appears exactly once.
        let total: usize = fronts.iter().map(Vec::len).sum();
        assert_eq!(total, objs.len());
        // No member of a front is dominated by another member.
        for front in &fronts {
            for &i in front {
                for &j in front {
                    assert!(!dominates_min(&objs[j], &objs[i]));
                }
            }
        }
    }

    #[test]
    fn crowding_prefers_boundary_and_spread() {
        let objs = vec![
            vec![0.0, 4.0],
            vec![1.0, 2.0],
            vec![1.5, 1.5],
            vec![4.0, 0.0],
        ];
        let front = vec![0, 1, 2, 3];
        let d = crowding_distances(&objs, &front);
        assert_eq!(d[0], f64::INFINITY);
        assert_eq!(d[3], f64::INFINITY);
        assert!(d[1].is_finite() && d[2].is_finite());
        // Point 2 borders the wide gap to the (4,0) extreme on both axes
        // (neighbor spans 0.75 + 0.5), point 1 is wedged between 0 and 2
        // (0.375 + 0.625): the emptier neighborhood scores higher.
        assert!((d[1] - 1.0).abs() < 1e-12, "{}", d[1]);
        assert!((d[2] - 1.25).abs() < 1e-12, "{}", d[2]);
        // Degenerate fronts stay well-defined.
        assert_eq!(crowding_distances(&objs, &[]), Vec::<f64>::new());
        let same = vec![vec![1.0, 1.0], vec![1.0, 1.0]];
        let d = crowding_distances(&same, &[0, 1]);
        assert!(d.iter().all(|v| v.is_infinite()));
    }

    #[test]
    fn front_of_identical_points_keeps_all() {
        let m = autohet_dnn::zoo::micro_cnn();
        let one = pareto_sweep(
            &m,
            &paper_hybrid_candidates(),
            &AccelConfig::default(),
            &quick(),
            &[1.0],
        );
        let pts = vec![one[0].clone(), one[0].clone()];
        assert_eq!(pareto_front(&pts).len(), 2);
    }
}

//! The §4.4 sensitivity sweeps (Fig. 11): AutoHet vs the best homogeneous
//! accelerator while varying
//!
//! (a) the ratio of square to rectangle candidates (`2S3R`, `3S2R`,
//!     `4S1R`),
//! (b) the number of crossbar candidates (2, 4, 8), and
//! (c) the number of PEs per tile (8, 16, 32).

use crate::homogeneous::best_homogeneous;
use crate::search::rl::{rl_search, RlSearchConfig};
use autohet_accel::AccelConfig;
use autohet_dnn::Model;
use autohet_xbar::geometry::mixed_candidates;
use autohet_xbar::XbarShape;

/// One sweep point: AutoHet (full optimizations) vs Best-Homo.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepPoint {
    /// Point label, e.g. `"2S3R"` or `"PEs=16"`.
    pub label: String,
    /// AutoHet RUE at this point.
    pub autohet_rue: f64,
    /// Best homogeneous RUE at this point.
    pub best_homo_rue: f64,
    /// The candidate set AutoHet searched.
    pub candidates: Vec<XbarShape>,
}

impl SweepPoint {
    /// AutoHet's RUE improvement factor over Best-Homo.
    pub fn speedup(&self) -> f64 {
        self.autohet_rue / self.best_homo_rue
    }
}

fn autohet_point(
    label: String,
    model: &Model,
    candidates: Vec<XbarShape>,
    cfg: &AccelConfig,
    scfg: &RlSearchConfig,
) -> SweepPoint {
    let shared = cfg.with_tile_sharing();
    let outcome = rl_search(model, &candidates, &shared, scfg);
    let (_, homo) = best_homogeneous(model, cfg);
    SweepPoint {
        label,
        autohet_rue: outcome.best_report.rue(),
        best_homo_rue: homo.rue(),
        candidates,
    }
}

/// Run independent sweep points on parallel workers (each point is an RL
/// search plus a Best-Homo baseline), preserving spec order.
fn sweep_points(
    model: &Model,
    scfg: &RlSearchConfig,
    specs: Vec<(String, Vec<XbarShape>, AccelConfig)>,
) -> Vec<SweepPoint> {
    autohet_accel::par_map(&specs, |(label, candidates, cfg)| {
        autohet_point(label.clone(), model, candidates.clone(), cfg, scfg)
    })
}

/// Fig. 11(a): vary the SXB:RXB candidate mix at five total candidates.
pub fn sweep_sxb_rxb_ratio(model: &Model, scfg: &RlSearchConfig) -> Vec<SweepPoint> {
    let cfg = AccelConfig::default();
    let specs = [(2usize, 3usize), (3, 2), (4, 1)]
        .into_iter()
        .map(|(s, r)| (format!("{s}S{r}R"), mixed_candidates(s, r), cfg))
        .collect();
    sweep_points(model, scfg, specs)
}

/// Fig. 11(b): vary the total number of candidates (even SXB/RXB split).
pub fn sweep_candidate_count(model: &Model, scfg: &RlSearchConfig) -> Vec<SweepPoint> {
    let cfg = AccelConfig::default();
    let specs = [2usize, 4, 8]
        .into_iter()
        .map(|n| (format!("{n}"), mixed_candidates(n / 2, n - n / 2), cfg))
        .collect();
    sweep_points(model, scfg, specs)
}

/// Fig. 11(c): vary PEs per tile; both AutoHet and Best-Homo are
/// re-evaluated at each tile width.
pub fn sweep_pes_per_tile(model: &Model, scfg: &RlSearchConfig) -> Vec<SweepPoint> {
    let specs = [8u32, 16, 32]
        .into_iter()
        .map(|pes| {
            (
                format!("PEs={pes}"),
                autohet_xbar::geometry::paper_hybrid_candidates(),
                AccelConfig::default().with_pes_per_tile(pes),
            )
        })
        .collect();
    sweep_points(model, scfg, specs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use autohet_rl::DdpgConfig;

    // 40 episodes: at 25 the tiny budget leaves the PEs=16 point hostage
    // to one lucky exploration draw (seed 23 lands at 0.83× best-homo);
    // at 40 every probed seed clears 3× at all three tile widths, so the
    // assertion tests the search, not the RNG stream.
    fn quick() -> RlSearchConfig {
        RlSearchConfig {
            episodes: 40,
            ddpg: DdpgConfig {
                seed: 23,
                hidden: 32,
                batch: 32,
                ..DdpgConfig::default()
            },
            train_steps: 4,
            ..RlSearchConfig::default()
        }
    }

    #[test]
    fn ratio_sweep_produces_three_labeled_points() {
        let m = autohet_dnn::zoo::micro_cnn();
        let pts = sweep_sxb_rxb_ratio(&m, &quick());
        let labels: Vec<&str> = pts.iter().map(|p| p.label.as_str()).collect();
        assert_eq!(labels, vec!["2S3R", "3S2R", "4S1R"]);
        for p in &pts {
            assert_eq!(p.candidates.len(), 5);
            assert!(p.autohet_rue > 0.0 && p.best_homo_rue > 0.0);
        }
    }

    #[test]
    fn candidate_count_sweep_sizes() {
        let m = autohet_dnn::zoo::micro_cnn();
        let pts = sweep_candidate_count(&m, &quick());
        let sizes: Vec<usize> = pts.iter().map(|p| p.candidates.len()).collect();
        assert_eq!(sizes, vec![2, 4, 8]);
    }

    #[test]
    fn pe_sweep_keeps_autohet_competitive() {
        // Fig. 11(c): AutoHet ≥ Best-Homo at every tile width (allow a
        // small slack for the tiny search budget used in tests).
        let m = autohet_dnn::zoo::micro_cnn();
        for p in sweep_pes_per_tile(&m, &quick()) {
            assert!(
                p.speedup() > 0.9,
                "{}: AutoHet {} vs homo {}",
                p.label,
                p.autohet_rue,
                p.best_homo_rue
            );
        }
    }
}

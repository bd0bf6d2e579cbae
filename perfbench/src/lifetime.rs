//! `lifetime_lenet5`: `lifetime_campaign` on LeNet-5 in the campaign's
//! default configuration.
//!
//! Drift scales {0, 0.5, 1, 2, 4} x 2 deployment configurations x 3
//! recovery arms = 30 cells, each evaluated by
//! `EvalEngine::evaluate_degraded` (cold Monte-Carlo drift slices, since
//! the campaign builds its engines fresh) and then served. Iteration `i`
//! runs the campaign at the single drift scale `SCALES[i % 5]` (6 cells),
//! so five iterations make the whole campaign and an iteration is short
//! enough for the timing to find the host's fast moments (see
//! `peak_throughput`). On AlexNet one campaign takes 10-17 s of host time
//! here, too long to repeat inside one run; LeNet-5 keeps the same
//! engine-miss-dominated profile at about 0.2 s a campaign.

use crate::{Checks, LayerCounters, Workload};
use autohet::homogeneous::best_homogeneous;
use autohet::search::greedy::greedy_layerwise_rue;
use autohet::studies::{
    lifetime_campaign, LifetimeCampaignConfig, LifetimeCampaignReport, LifetimeRow,
};
use autohet_accel::{evaluate, AccelConfig, EvalReport};
use autohet_dnn::Model;
use autohet_obs::trace::span;
use autohet_xbar::geometry::paper_hybrid_candidates;

const SCALES: [f64; 5] = [0.0, 0.5, 1.0, 2.0, 4.0];
const CELLS: usize = 30;

pub struct LifetimeLenet5 {
    model: Model,
    cfg: LifetimeCampaignConfig,
    /// Drift-free evaluations of the two configurations the campaign
    /// sweeps, by row label: what its drift-scale-0 cells must reproduce.
    healthy: [(&'static str, EvalReport); 2],
    /// The first report of each drift scale, then the latest one.
    first: Vec<LifetimeCampaignReport>,
    latest: Vec<LifetimeCampaignReport>,
}

impl LifetimeLenet5 {
    pub fn new(seed: u64) -> Self {
        let model = {
            let _span = span("dnn.zoo.lenet5");
            autohet_dnn::zoo::lenet5()
        };
        let healthy = {
            let _span = span("autohet.lifetime_baselines");
            let base = AccelConfig::default();
            let homo = vec![best_homogeneous(&model, &base).0; model.layers.len()];
            let het = greedy_layerwise_rue(&model, &paper_hybrid_candidates(), &base).strategy;
            [
                ("homogeneous/tile-based", evaluate(&model, &homo, &base)),
                (
                    "autohet/tile-shared",
                    evaluate(&model, &het, &base.with_tile_sharing()),
                ),
            ]
        };
        LifetimeLenet5 {
            model,
            healthy,
            cfg: LifetimeCampaignConfig {
                seed,
                ..LifetimeCampaignConfig::default()
            },
            first: Vec::new(),
            latest: Vec::new(),
        }
    }
}

impl Workload for LifetimeLenet5 {
    fn min_iterations(&self) -> usize {
        2 * SCALES.len()
    }

    fn inputs(&self) -> usize {
        SCALES.len()
    }

    fn run_iteration(&mut self, index: usize) -> f64 {
        self.cfg.drift_scales = vec![SCALES[index % SCALES.len()]];
        let report = lifetime_campaign(&self.model, &self.cfg);
        let cells = report.rows.len() as f64;
        if self.first.len() < SCALES.len() {
            self.first.push(report);
        } else if self.latest.len() < SCALES.len() {
            self.latest.push(report);
        } else {
            self.latest[index % SCALES.len()] = report;
        }
        cells
    }

    fn modelled_quality(&mut self) -> f64 {
        let cells: Vec<f64> = self
            .first
            .iter()
            .flat_map(|r| &r.rows)
            .filter(|r| r.policy == "full-cascade" && r.drift_scale > 0.0)
            .map(|r| r.accuracy)
            .collect();
        cells.iter().sum::<f64>() / cells.len() as f64
    }

    fn check(&self, checks: &mut Checks) {
        let rows: usize = self.first.iter().map(|r| r.rows.len()).sum();
        checks.expect(rows == CELLS, "the campaign's drift scales have 30 rows");
        let calm_report = &self.first[0];
        for label in calm_report.labels() {
            let calm: Vec<_> = calm_report
                .rows_for(label)
                .into_iter()
                .filter(|r| r.drift_scale == 0.0)
                .collect();
            let same = calm.windows(2).all(|w| {
                let strip = |r: &LifetimeRow| {
                    let mut r = r.clone();
                    r.policy.clear();
                    format!("{r:?}")
                };
                strip(w[0]) == strip(w[1])
            });
            checks.expect(
                calm.len() == 3 && same,
                &format!("{label}: drift-scale-0 cells identical across recovery arms"),
            );
        }
        for (label, eval) in &self.healthy {
            checks.expect(
                calm_report
                    .rows
                    .iter()
                    .filter(|r| r.label == *label && r.drift_scale == 0.0)
                    .all(|r| r.energy_nj == eval.energy_nj() && r.latency_ns == eval.latency_ns),
                &format!("{label}: drift-scale-0 cells cost what the healthy hardware costs"),
            );
        }
        checks.expect(
            self.latest.len() == SCALES.len()
                && self
                    .first
                    .iter()
                    .zip(&self.latest)
                    .all(|(a, b)| format!("{a:?}") == format!("{b:?}")),
            "iterations at the same drift scale are bit-identical",
        );
    }

    fn layer_counters(&self, _iter_s: f64) -> LayerCounters {
        let rows = || self.first.iter().flat_map(|r| &r.rows);
        LayerCounters {
            sim_trips: rows().map(|r| r.trips).sum(),
            sim_recals: rows().map(|r| r.recals).sum(),
            sim_remaps: rows().map(|r| r.remaps).sum(),
            ..LayerCounters::default()
        }
    }
}

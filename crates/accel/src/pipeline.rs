//! Layer-pipelined execution model (beyond the paper's sequential
//! latency; DESIGN.md §6).
//!
//! ReRAM accelerators in the paper's lineage (PipeLayer \[21\], ISAAC \[19\])
//! stream batches: every layer works on a different sample concurrently,
//! so steady-state throughput is set by the *slowest stage*, not the sum.
//! This module computes
//!
//! - the per-stage (per-sample) latencies under a strategy,
//! - batch latency `fill + (N−1) × bottleneck` and throughput,
//! - ISAAC-style *weight replication*: duplicating a slow layer's
//!   crossbars lets it process several presentations in parallel, cutting
//!   its stage time proportionally — at a crossbar/area cost this module
//!   quantifies.

use crate::hierarchy::AccelConfig;
use autohet_dnn::Model;
use autohet_xbar::latency::layer_latency_ns;
use autohet_xbar::utilization::footprint;
use autohet_xbar::XbarShape;

/// Pipeline analysis of one (model, strategy) pair.
#[derive(Debug, Clone, PartialEq)]
pub struct PipelineReport {
    /// Per-layer stage latency for one sample \[ns\].
    pub stage_ns: Vec<f64>,
    /// Index of the slowest stage.
    pub bottleneck_layer: usize,
    /// Slowest stage latency \[ns\].
    pub bottleneck_ns: f64,
    /// Pipeline fill latency (= sequential single-sample latency) \[ns\].
    pub fill_ns: f64,
}

impl PipelineReport {
    /// Latency to finish a batch of `n` samples \[ns\].
    pub fn batch_latency_ns(&self, n: usize) -> f64 {
        assert!(n >= 1);
        self.fill_ns + (n as f64 - 1.0) * self.bottleneck_ns
    }

    /// Integer batch service time for discrete-event serving \[ns\].
    ///
    /// Rounds [`Self::batch_latency_ns`] up to a whole nanosecond and
    /// floors it at 1 ns so event timestamps in downstream simulators
    /// stay strictly increasing per replica.
    pub fn batch_service_ns(&self, n: usize) -> u64 {
        (self.batch_latency_ns(n).ceil() as u64).max(1)
    }

    /// Steady-state throughput [samples per second].
    pub fn throughput_sps(&self) -> f64 {
        1e9 / self.bottleneck_ns
    }

    /// Speedup of pipelined over sequential execution for a batch of `n`.
    pub fn speedup(&self, n: usize) -> f64 {
        (self.fill_ns * n as f64) / self.batch_latency_ns(n)
    }
}

/// Analyze pipelined execution of `model` under `strategy`.
pub fn pipeline_report(model: &Model, strategy: &[XbarShape], cfg: &AccelConfig) -> PipelineReport {
    assert_eq!(strategy.len(), model.layers.len());
    let stage_ns: Vec<f64> = model
        .layers
        .iter()
        .zip(strategy)
        .map(|(l, &s)| layer_latency_ns(l, &footprint(l, s), &cfg.cost))
        .collect();
    let (bottleneck_layer, &bottleneck_ns) = stage_ns
        .iter()
        .enumerate()
        .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
        .expect("non-empty model");
    PipelineReport {
        fill_ns: stage_ns.iter().sum(),
        bottleneck_layer,
        bottleneck_ns,
        stage_ns,
    }
}

/// A replication plan: per-layer crossbar-duplication factors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReplicationPlan {
    /// Duplication factor per layer (≥ 1).
    pub factors: Vec<u32>,
}

impl ReplicationPlan {
    /// Extra logical crossbars the plan costs beyond the unreplicated
    /// mapping.
    pub fn extra_xbars(&self, model: &Model, strategy: &[XbarShape]) -> u64 {
        self.factors
            .iter()
            .zip(model.layers.iter().zip(strategy))
            .map(|(&f, (l, &s))| (f as u64 - 1) * footprint(l, s).total_xbars())
            .sum()
    }
}

/// ISAAC-style balancing: replicate each layer enough that its stage time
/// sinks to (roughly) the `target_ratio` × slowest-stage level, capped at
/// `max_factor`. `target_ratio = 1.0` balances everything to the current
/// fastest stage; smaller ratios are cheaper.
pub fn balance_replication(
    report: &PipelineReport,
    target_ratio: f64,
    max_factor: u32,
) -> ReplicationPlan {
    assert!(target_ratio > 0.0 && max_factor >= 1);
    let target = report.bottleneck_ns * target_ratio / max_factor as f64;
    let factors = report
        .stage_ns
        .iter()
        .map(|&s| ((s / target.max(1e-9)).ceil() as u32).clamp(1, max_factor))
        .collect();
    ReplicationPlan { factors }
}

/// Stage times after applying a replication plan (a stage replicated `f`×
/// processes `f` presentations in parallel).
pub fn replicated_stages(report: &PipelineReport, plan: &ReplicationPlan) -> Vec<f64> {
    report
        .stage_ns
        .iter()
        .zip(&plan.factors)
        .map(|(&s, &f)| s / f as f64)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use autohet_dnn::zoo;

    fn vgg_report() -> (autohet_dnn::Model, Vec<XbarShape>, PipelineReport) {
        let m = zoo::vgg16();
        let strategy = vec![XbarShape::new(72, 64); m.layers.len()];
        let r = pipeline_report(&m, &strategy, &AccelConfig::default());
        (m, strategy, r)
    }

    #[test]
    fn fill_is_sum_and_bottleneck_is_max() {
        let (_, _, r) = vgg_report();
        let sum: f64 = r.stage_ns.iter().sum();
        assert!((r.fill_ns - sum).abs() < 1e-6);
        let max = r.stage_ns.iter().cloned().fold(f64::MIN, f64::max);
        assert_eq!(r.bottleneck_ns, max);
        assert_eq!(r.stage_ns[r.bottleneck_layer], max);
        // VGG16's bottleneck is an early, large-feature-map layer.
        assert!(r.bottleneck_layer <= 1);
    }

    #[test]
    fn pipelining_pays_off_for_batches() {
        let (_, _, r) = vgg_report();
        assert!((r.speedup(1) - 1.0).abs() < 1e-9);
        assert!(r.speedup(16) > 2.0, "speedup {}", r.speedup(16));
        assert!(r.speedup(256) > r.speedup(16));
        // Asymptote: fill / bottleneck.
        assert!(r.speedup(100_000) <= r.fill_ns / r.bottleneck_ns + 1e-6);
    }

    #[test]
    fn batch_latency_is_affine_in_n() {
        let (_, _, r) = vgg_report();
        let d1 = r.batch_latency_ns(2) - r.batch_latency_ns(1);
        let d2 = r.batch_latency_ns(3) - r.batch_latency_ns(2);
        assert!((d1 - d2).abs() < 1e-6);
        assert!((d1 - r.bottleneck_ns).abs() < 1e-6);
    }

    #[test]
    fn batch_service_rounds_up_and_stays_positive() {
        let (_, _, r) = vgg_report();
        for n in [1usize, 2, 7, 64] {
            let svc = r.batch_service_ns(n);
            assert!(svc >= 1);
            assert!(svc as f64 >= r.batch_latency_ns(n));
            assert!((svc as f64) < r.batch_latency_ns(n) + 1.0);
        }
        // Degenerate sub-nanosecond stages still yield a nonzero tick.
        let tiny = PipelineReport {
            stage_ns: vec![0.1],
            bottleneck_layer: 0,
            bottleneck_ns: 0.1,
            fill_ns: 0.1,
        };
        assert_eq!(tiny.batch_service_ns(1), 1);
    }

    #[test]
    fn replication_shrinks_the_bottleneck_at_a_crossbar_cost() {
        let (m, strategy, r) = vgg_report();
        let plan = balance_replication(&r, 1.0, 8);
        assert!(plan.factors.iter().all(|&f| (1..=8).contains(&f)));
        assert_eq!(plan.factors[r.bottleneck_layer], 8);
        let after = replicated_stages(&r, &plan);
        let new_max = after.iter().cloned().fold(f64::MIN, f64::max);
        assert!(new_max < r.bottleneck_ns / 2.0);
        assert!(plan.extra_xbars(&m, &strategy) > 0);
    }

    #[test]
    fn no_replication_when_max_factor_is_one() {
        let (m, strategy, r) = vgg_report();
        let plan = balance_replication(&r, 1.0, 1);
        assert!(plan.factors.iter().all(|&f| f == 1));
        assert_eq!(plan.extra_xbars(&m, &strategy), 0);
        assert_eq!(replicated_stages(&r, &plan), r.stage_ns);
    }

    #[test]
    fn fc_only_model_is_trivially_balanced() {
        let m = autohet_dnn::ModelBuilder::new("fc", autohet_dnn::Dataset::Mnist)
            .fc(64)
            .fc(10)
            .build();
        let r = pipeline_report(
            &m,
            &[XbarShape::square(64), XbarShape::square(64)],
            &AccelConfig::default(),
        );
        // FC stages are single presentations; times differ only via
        // crossbar-grid geometry.
        assert!(r.bottleneck_ns / r.stage_ns.iter().cloned().fold(f64::MAX, f64::min) < 1.5);
    }
}

//! Compiled deployments: one (model, strategy, config) triple frozen into
//! the two numbers serving needs — batch service time and per-request
//! energy — plus the full reports for observability.

use autohet_accel::{
    evaluate, pipeline_report, AccelConfig, DegradedEvalReport, EvalReport, FaultedEvalReport,
    PipelineReport, RepairReport,
};
use autohet_dnn::Model;
use autohet_xbar::XbarShape;

/// A model + per-layer crossbar strategy compiled against an accelerator
/// configuration, ready to serve requests.
#[derive(Debug, Clone, PartialEq)]
pub struct Deployment {
    /// Label used in reports (e.g. `"alexnet/autohet"`).
    pub name: String,
    /// Pipelined execution analysis — the service-time model.
    pub pipeline: PipelineReport,
    /// Whole-model evaluation — the energy/area/utilization model.
    pub eval: EvalReport,
}

impl Deployment {
    /// Compile `model` under `strategy` on `cfg`.
    ///
    /// Panics if `strategy` does not assign exactly one shape per layer.
    pub fn compile(name: &str, model: &Model, strategy: &[XbarShape], cfg: &AccelConfig) -> Self {
        assert_eq!(
            strategy.len(),
            model.layers.len(),
            "strategy must assign one shape per layer of {}",
            model.name
        );
        Deployment {
            name: name.to_string(),
            pipeline: pipeline_report(model, strategy, cfg),
            eval: evaluate(model, strategy, cfg),
        }
    }

    /// This deployment re-compiled against a fault-repaired evaluation:
    /// every pipeline stage is stretched by its layer's repair latency
    /// factor (re-serialization over surviving crossbars) and the
    /// energy/area half is replaced by the faulted evaluation — so
    /// serving sees both the latency and the energy cost of running on
    /// damaged hardware. An ideal fault map leaves the pipeline
    /// untouched (spare provisioning may still change area).
    pub fn with_degradation(&self, faulted: &FaultedEvalReport) -> Self {
        self.stretched("faults", &faulted.repair, &faulted.eval)
    }

    /// [`Self::with_degradation`] for a lifetime-epoch evaluation
    /// ([`EvalEngine::evaluate_degraded`](autohet_accel::EvalEngine::evaluate_degraded)):
    /// the pipeline is stretched by the epoch's repair outcome and the
    /// energy/area half replaced by the epoch evaluation, so serving runs
    /// on the hardware as it stands at hour `t` of its life.
    pub fn with_degraded(&self, epoch: &DegradedEvalReport) -> Self {
        self.stretched("drift", &epoch.repair, &epoch.eval)
    }

    fn stretched(&self, suffix: &str, repair: &RepairReport, eval: &EvalReport) -> Self {
        let stage_ns: Vec<f64> = self
            .pipeline
            .stage_ns
            .iter()
            .enumerate()
            .map(|(i, &s)| s * repair.latency_factor(i))
            .collect();
        let (bottleneck_layer, &bottleneck_ns) = stage_ns
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
            .expect("non-empty pipeline");
        Deployment {
            name: format!("{}+{suffix}", self.name),
            pipeline: PipelineReport {
                fill_ns: stage_ns.iter().sum(),
                bottleneck_layer,
                bottleneck_ns,
                stage_ns,
            },
            eval: eval.clone(),
        }
    }

    /// Service time for a batch of `n` requests \[ns\] (integer, ≥ 1).
    pub fn service_ns(&self, n: usize) -> u64 {
        self.pipeline.batch_service_ns(n)
    }

    /// Energy charged per served request \[nJ\].
    pub fn energy_per_request_nj(&self) -> f64 {
        self.eval.energy_nj()
    }

    /// Steady-state capacity of one replica at full pipelining \[req/s\].
    pub fn max_rate_rps(&self) -> f64 {
        self.pipeline.throughput_sps()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use autohet_accel::EvalEngine;
    use autohet_dnn::zoo;

    #[test]
    fn compile_matches_direct_reports() {
        let m = zoo::lenet5();
        let strategy = vec![XbarShape::square(128); m.layers.len()];
        let cfg = AccelConfig::default();
        let d = Deployment::compile("lenet", &m, &strategy, &cfg);
        assert_eq!(d.pipeline, pipeline_report(&m, &strategy, &cfg));
        assert_eq!(d.eval, evaluate(&m, &strategy, &cfg));
        assert!(d.service_ns(1) >= 1);
        assert!(d.service_ns(8) > d.service_ns(1));
        assert!(d.energy_per_request_nj() > 0.0);
        assert!(d.max_rate_rps() > 0.0);
    }

    #[test]
    fn degradation_stretches_service_and_swaps_energy() {
        use autohet_accel::RepairPolicy;
        use autohet_xbar::fault::FaultRates;
        let m = zoo::lenet5();
        let strategy = vec![XbarShape::square(128); m.layers.len()];
        let cfg = AccelConfig::default();
        let engine = EvalEngine::new(m.clone(), cfg);
        let healthy = Deployment::compile("lenet", &m, &strategy, &cfg);

        // Ideal faults, no spares provisioned: only the label changes.
        let ideal = engine.evaluate_faulted(
            &strategy,
            7,
            FaultRates::ideal(),
            &RepairPolicy::no_spares(),
        );
        let same = healthy.with_degradation(&ideal);
        assert_eq!(same.pipeline, healthy.pipeline);
        assert_eq!(same.eval, healthy.eval);

        // Real damage past what remapping absorbs: re-serialization
        // stretches the damaged stages, so single-sample service slows.
        let hurt = engine.evaluate_faulted(
            &strategy,
            7,
            FaultRates::dead(0.7),
            &RepairPolicy::no_spares(),
        );
        assert!(hurt.repair.degraded > 0, "{:?}", hurt.repair);
        let degraded = healthy.with_degradation(&hurt);
        assert!(degraded.service_ns(1) > healthy.service_ns(1));
        // The bottleneck stage may survive untouched, so throughput can
        // only stay equal or drop — never improve.
        assert!(degraded.max_rate_rps() <= healthy.max_rate_rps());
        assert_eq!(degraded.eval, hurt.eval);
        let sum: f64 = degraded.pipeline.stage_ns.iter().sum();
        assert!((degraded.pipeline.fill_ns - sum).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "one shape per layer")]
    fn compile_rejects_wrong_length_strategy() {
        let m = zoo::lenet5();
        Deployment::compile("bad", &m, &[XbarShape::square(64)], &AccelConfig::default());
    }
}

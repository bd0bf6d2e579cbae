//! `serve_fleet`: 120 tenants on the sharded runtime near capacity.
//!
//! Set-up compiles the lenet/micro deployments of
//! `crates/bench/benches/serve_scale.rs`, gives every eighth tenant a
//! traffic ramp to 3x and an alternative deployment (so the swap policy
//! has something to act on), and offers a base load of 0.6 of the
//! initial fleet's capacity, with 3x rush-hour bursts on every third
//! tenant; bursts and ramps push the fleet past capacity, so requests are
//! shed. Each iteration serves the same 2 simulated seconds with
//! `run_sharded` over 8 shards x 1 replica, with work stealing,
//! autoscaling (up to 16 replicas) and strategy swap on. The timed call
//! is the sequential runtime: on a shared two-core host, two-thread runs
//! of `run_sharded_threaded` spread about twice as wide from run to run.
//! The threaded runtime is checked against it once per run instead. The
//! modelled metric, SLO attainment, is the mean over the timed traffic
//! seed and the next seven, which are served once each after the timing.

use crate::{Checks, LayerCounters, Workload};
use autohet_accel::AccelConfig;
use autohet_dnn::Model;
use autohet_obs::trace::span;
use autohet_serve::workload::RampSpec;
use autohet_serve::{
    run_sharded, run_sharded_threaded, tenant_arrivals, AutoscaleSpec, BurstSpec, Deployment,
    ShardConfig, ShardServingReport, StealSpec, SwapSpec, TenantSpec, Workload as Traffic,
};
use autohet_xbar::XbarShape;
use std::time::Instant;

const TENANTS: usize = 120;
const SHARDS: usize = 8;
const THREADS: usize = 2;
const HORIZON_NS: u64 = 2_000_000_000;
/// Offered base load as a fraction of the initial fleet's capacity.
const LOAD: f64 = 0.6;
/// Per-tenant admission bound: small enough that bursts are shed.
const QUEUE_DEPTH: usize = 16;
/// Traffic seeds the modelled metric (SLO attainment) is averaged over.
const QUALITY_SEEDS: usize = 8;

pub struct ServeFleet {
    tenants: Vec<TenantSpec>,
    traffic: Traffic,
    cfg: ShardConfig,
    reports: Vec<ShardServingReport>,
    /// One untimed report each for the traffic seeds after the timed one.
    extra: Vec<ShardServingReport>,
    arrivals: u64,
    arrivals_s: f64,
}

fn compile(name: &str, model: &Model, shape: XbarShape) -> Deployment {
    let _span = span("serve.deploy.compile");
    let strategy = vec![shape; model.layers.len()];
    Deployment::compile(name, model, &strategy, &AccelConfig::default())
}

impl ServeFleet {
    pub fn new(seed: u64) -> Self {
        let (lenet, micro) = {
            let _span = span("dnn.zoo.lenet5_micro_cnn");
            (autohet_dnn::zoo::lenet5(), autohet_dnn::zoo::micro_cnn())
        };
        let deployments = [
            compile("lenet/sq128", &lenet, XbarShape::square(128)),
            compile("micro/sq64", &micro, XbarShape::square(64)),
            compile("micro/sq128", &micro, XbarShape::square(128)),
        ];
        let alternates = [
            compile("lenet/sq64", &lenet, XbarShape::square(64)),
            compile("micro/sq128", &micro, XbarShape::square(128)),
            compile("micro/sq64", &micro, XbarShape::square(64)),
        ];
        // One replica serving the tenants' equal-rate mix completes a
        // request in the mean of the deployments' per-request times.
        let mean_service_s = (0..TENANTS)
            .map(|i| 1.0 / deployments[i % deployments.len()].max_rate_rps())
            .sum::<f64>()
            / TENANTS as f64;
        let rate = LOAD * SHARDS as f64 / mean_service_s / TENANTS as f64;
        let tenants = (0..TENANTS)
            .map(|i| {
                let d = &deployments[i % deployments.len()];
                let slo = (8.0 * d.pipeline.fill_ns) as u64;
                let mut t = TenantSpec::new(&format!("tenant-{i:03}"), d.clone(), rate, slo)
                    .with_weight(1 << (i % 4));
                if i % 3 == 0 {
                    t = t.with_burst(BurstSpec {
                        period_ns: HORIZON_NS / 2,
                        burst_ns: HORIZON_NS / 12,
                        factor: 3.0,
                    });
                }
                if i % 8 == 4 {
                    t = t
                        .with_ramp(RampSpec {
                            start_ns: HORIZON_NS / 4,
                            end_ns: HORIZON_NS / 2,
                            to_factor: 3.0,
                        })
                        .with_alt(alternates[i % alternates.len()].clone());
                }
                t
            })
            .collect();
        let cfg = ShardConfig {
            shards: SHARDS,
            replicas_per_shard: 1,
            steal: Some(StealSpec::default()),
            autoscale: Some(AutoscaleSpec {
                max_replicas: 16,
                ..AutoscaleSpec::default()
            }),
            swap: Some(SwapSpec::default()),
            queue_depth: QUEUE_DEPTH,
            ..ShardConfig::default()
        };
        ServeFleet {
            tenants,
            traffic: Traffic {
                seed,
                horizon_ns: HORIZON_NS,
            },
            cfg,
            reports: Vec::new(),
            extra: Vec::new(),
            arrivals: 0,
            arrivals_s: 0.0,
        }
    }

    /// Fleet SLO attainment: requests that met their SLO over requests
    /// offered.
    fn slo_attainment(r: &ShardServingReport) -> f64 {
        let met: f64 = r
            .tenants
            .iter()
            .map(|t| t.slo_attainment * t.submitted as f64)
            .sum();
        met / r.total_submitted as f64
    }
}

impl Workload for ServeFleet {
    fn run_iteration(&mut self, _index: usize) -> f64 {
        let report = run_sharded(&self.tenants, &self.traffic, &self.cfg);
        let requests = report.total_submitted as f64;
        // Every iteration serves identical inputs; keep the first report
        // and compare the rest against it in `check`.
        if self.reports.len() < 2 {
            self.reports.push(report);
        } else {
            self.reports[1] = report;
        }
        requests
    }

    fn modelled_quality(&mut self) -> f64 {
        while self.extra.len() < QUALITY_SEEDS - 1 {
            let traffic = Traffic {
                seed: self.traffic.seed.wrapping_add(self.extra.len() as u64 + 1),
                ..self.traffic
            };
            self.extra
                .push(run_sharded(&self.tenants, &traffic, &self.cfg));
        }
        let served = || self.reports[..1].iter().chain(&self.extra);
        served().map(Self::slo_attainment).sum::<f64>() / served().count() as f64
    }

    fn check(&self, checks: &mut Checks) {
        let first = &self.reports[0];
        for (i, r) in self.reports[..1].iter().chain(&self.extra).enumerate() {
            checks.expect(
                r.lost_requests() == 0,
                &format!("traffic seed +{i}: no lost requests"),
            );
            checks.expect(
                r.total_submitted == r.total_completed + r.total_rejected,
                &format!("traffic seed +{i}: submitted == completed + rejected"),
            );
        }
        checks.expect(
            self.reports.iter().all(|r| r == first),
            "every iteration's report is identical",
        );
        let threaded = run_sharded_threaded(&self.tenants, &self.traffic, &self.cfg, THREADS);
        checks.expect(
            &threaded == first,
            "run_sharded_threaded on 2 threads equals sequential run_sharded",
        );
        let r = first;
        println!(
            "serve_fleet: {} requests, {} rejected ({:.2}%), SLO attainment {:.4}, fairness {:.4}, \
             {} batches, {} steals, {} scale events, {} swaps, peak replicas {}",
            r.total_submitted,
            r.total_rejected,
            100.0 * r.total_rejected as f64 / r.total_submitted as f64,
            Self::slo_attainment(r),
            r.fairness_index,
            r.batches,
            r.steal_events.len(),
            r.scale_events.len(),
            r.swap_events.len(),
            r.replicas_peak
        );
    }

    fn probe(&mut self) {
        let _span = span("serve.workload.tenant_arrivals");
        let t = Instant::now();
        self.arrivals = self
            .tenants
            .iter()
            .enumerate()
            .map(|(i, spec)| tenant_arrivals(i, spec, &self.traffic).len() as u64)
            .sum();
        self.arrivals_s = t.elapsed().as_secs_f64();
    }

    fn layer_counters(&self, iter_s: f64) -> LayerCounters {
        LayerCounters {
            arrivals: self.arrivals,
            arrivals_share: self.arrivals_s / iter_s,
            shard: Some(self.reports[0].clone()),
            ..LayerCounters::default()
        }
    }
}

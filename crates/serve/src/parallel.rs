//! Epoch-parallel execution of the serving engine.
//!
//! Between epoch barriers each shard touches only its own state — its
//! queues, replicas, outage schedule and health monitors — so shards
//! step concurrently on scoped `crossbeam` workers; every barrier
//! (settle → steal → autoscale → swap) runs single-threaded in a fixed
//! order. The schedule of decisions is therefore *identical* to
//! [`run_sharded`](crate::run_sharded), and the report is bit-identical
//! to both sequential drivers at any thread count.

use crate::shard::{Shard, ShardConfig, ShardServingReport, ShardedSim};
use crate::workload::{TenantSpec, Workload};

/// Epoch-parallel driver for the serving engine: shards step
/// concurrently on `threads` crossbeam workers between barriers. The
/// report is bit-identical to [`run_sharded`](crate::run_sharded)
/// (asserted by tests and the cross-driver proptests).
pub fn run_sharded_threaded(
    tenants: &[TenantSpec],
    wl: &Workload,
    cfg: &ShardConfig,
    threads: usize,
) -> ShardServingReport {
    let _span = autohet_obs::trace::span("serve.run_sharded_threaded");
    let threads = threads.max(1);
    let mut sim = ShardedSim::new(tenants, wl, cfg);
    let ends = sim.epoch_ends();
    let chunk = sim.shards.len().div_ceil(threads);
    let step_all = |shards: &mut [Shard], e_end: u64| {
        crossbeam::thread::scope(|s| {
            for group in shards.chunks_mut(chunk) {
                s.spawn(move |_| {
                    for sh in group {
                        sh.step(tenants, e_end);
                    }
                });
            }
        })
        .expect("shard worker panicked");
    };
    for (e, &end) in ends.iter().enumerate() {
        step_all(&mut sim.shards, end);
        sim.barrier(e, end);
    }
    step_all(&mut sim.shards, u64::MAX);
    sim.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::deploy::Deployment;
    use crate::failure::FailureSpec;
    use crate::shard::run_sharded;
    use crate::sim::HealthSpec;
    use crate::workload::BurstSpec;
    use autohet_accel::AccelConfig;
    use autohet_dnn::zoo;
    use autohet_xbar::XbarShape;

    fn deployment(model: autohet_dnn::Model) -> Deployment {
        let strategy = vec![XbarShape::square(128); model.layers.len()];
        Deployment::compile(&model.name, &model, &strategy, &AccelConfig::default())
    }

    fn mixed_tenants() -> Vec<TenantSpec> {
        let lenet = deployment(zoo::lenet5());
        let micro = deployment(zoo::micro_cnn());
        let lenet_rate = 0.8 * lenet.max_rate_rps();
        let micro_rate = 0.5 * micro.max_rate_rps();
        let lenet_slo = (6.0 * lenet.pipeline.fill_ns) as u64;
        let micro_slo = (6.0 * micro.pipeline.fill_ns) as u64;
        vec![
            TenantSpec::new("lenet", lenet, lenet_rate, lenet_slo).with_burst(BurstSpec {
                period_ns: 40_000_000,
                burst_ns: 8_000_000,
                factor: 4.0,
            }),
            TenantSpec::new("micro", micro, micro_rate, micro_slo),
        ]
    }

    fn flaky() -> FailureSpec {
        FailureSpec {
            mtbf_ns: 3_000_000,
            mttr_ns: 500_000,
            seed: 13,
        }
    }

    fn drifting() -> HealthSpec {
        HealthSpec {
            err_ppm_per_ms: 30_000,
            ..HealthSpec::default()
        }
    }

    #[test]
    fn parallel_matches_single_threaded_bit_for_bit() {
        let tenants = mixed_tenants();
        let wl = Workload {
            seed: 1234,
            horizon_ns: 40_000_000,
        };
        for replicas in [1usize, 2, 3, 4] {
            for queue_depth in [8usize, 64] {
                let cfg = ShardConfig {
                    shards: 2,
                    replicas_per_shard: replicas,
                    queue_depth,
                    ..ShardConfig::default()
                };
                let single = run_sharded(&tenants, &wl, &cfg);
                let multi = run_sharded_threaded(&tenants, &wl, &cfg, 2);
                // The acceptance-criteria trio, spelled out…
                for (s, m) in single.tenants.iter().zip(&multi.tenants) {
                    assert_eq!(s.submitted, m.submitted);
                    assert_eq!(s.completed, m.completed);
                    assert_eq!(s.rejected, m.rejected);
                    assert_eq!(s.histogram, m.histogram);
                }
                // …and full bit-identity on top.
                assert_eq!(single, multi, "replicas={replicas} depth={queue_depth}");
            }
        }
    }

    #[test]
    fn parallel_matches_single_threaded_under_failures() {
        let tenants = mixed_tenants();
        let wl = Workload {
            seed: 77,
            horizon_ns: 40_000_000,
        };
        for replicas in [2usize, 3, 4] {
            let cfg = ShardConfig {
                shards: 2,
                replicas_per_shard: replicas,
                failures: Some(flaky()),
                ..ShardConfig::default()
            };
            let single = run_sharded(&tenants, &wl, &cfg);
            let multi = run_sharded_threaded(&tenants, &wl, &cfg, 2);
            assert!(
                single.total_retried > 0 || single.total_failed > 0,
                "failure config too tame to exercise the kill path"
            );
            assert_eq!(single, multi, "replicas={replicas}");
        }
    }

    #[test]
    fn parallel_matches_single_threaded_under_drift_and_recovery() {
        let tenants = mixed_tenants();
        let wl = Workload {
            seed: 55,
            horizon_ns: 40_000_000,
        };
        for replicas in [1usize, 2, 3, 4] {
            let cfg = ShardConfig {
                shards: 2,
                replicas_per_shard: replicas,
                health: Some(drifting()),
                ..ShardConfig::default()
            };
            let single = run_sharded(&tenants, &wl, &cfg);
            let multi = run_sharded_threaded(&tenants, &wl, &cfg, 2);
            assert!(
                single.total_errored > 0 && single.shard_stats.iter().any(|s| s.trips > 0),
                "drift config too tame to exercise the recovery path"
            );
            assert_eq!(single, multi, "replicas={replicas}");
        }
        // Drift, hard failures, and recovery all at once.
        let cfg = ShardConfig {
            shards: 2,
            replicas_per_shard: 3,
            health: Some(drifting()),
            failures: Some(flaky()),
            ..ShardConfig::default()
        };
        let single = run_sharded(&tenants, &wl, &cfg);
        let multi = run_sharded_threaded(&tenants, &wl, &cfg, 2);
        assert_eq!(single, multi);
    }

    #[test]
    fn parallel_is_itself_deterministic_across_runs() {
        let tenants = mixed_tenants();
        let wl = Workload {
            seed: 99,
            horizon_ns: 30_000_000,
        };
        let cfg = ShardConfig {
            shards: 2,
            replicas_per_shard: 3,
            ..ShardConfig::default()
        };
        let a = run_sharded_threaded(&tenants, &wl, &cfg, 2);
        let b = run_sharded_threaded(&tenants, &wl, &cfg, 2);
        assert_eq!(a, b);
    }

    #[test]
    fn parallel_handles_empty_workload() {
        let mut tenants = mixed_tenants();
        for t in &mut tenants {
            t.rate_rps = 0.0;
        }
        let wl = Workload {
            seed: 0,
            horizon_ns: 1_000_000,
        };
        let cfg = ShardConfig {
            shards: 2,
            replicas_per_shard: 4,
            ..ShardConfig::default()
        };
        let r = run_sharded_threaded(&tenants, &wl, &cfg, 2);
        assert_eq!(r.total_completed, 0);
        assert_eq!(r.batches, 0);
    }
}

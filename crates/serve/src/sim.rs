//! End-to-end tests of the serving engine on one shard: request
//! conservation, batching, latency statistics, replica failures with
//! kill-and-retry, and drift health with its circuit breaker, each
//! through [`run_sharded`](crate::run_sharded).

mod tests {
    use crate::deploy::Deployment;
    use crate::failure::FailureSpec;
    use crate::replica::HealthSpec;
    use crate::shard::{run_sharded, ShardConfig, ShardServingReport};
    use crate::workload::{TenantSpec, Workload};
    use autohet_accel::AccelConfig;
    use autohet_dnn::zoo;
    use autohet_xbar::XbarShape;

    fn lenet_deployment() -> Deployment {
        let m = zoo::lenet5();
        let strategy = vec![XbarShape::square(128); m.layers.len()];
        Deployment::compile("lenet", &m, &strategy, &AccelConfig::default())
    }

    /// One tenant at `load` × single-replica capacity.
    fn tenant_at_load(load: f64, slo_mult: f64) -> TenantSpec {
        let d = lenet_deployment();
        let rate = load * d.max_rate_rps();
        let slo = (slo_mult * d.pipeline.fill_ns) as u64;
        TenantSpec::new("lenet", d, rate, slo.max(1))
    }

    fn wl(seed: u64, n_requests: f64, rate_rps: f64) -> Workload {
        Workload {
            seed,
            horizon_ns: (n_requests / rate_rps * 1e9) as u64,
        }
    }

    /// One shard of `replicas` replicas, everything else default.
    fn replicas(replicas: usize) -> ShardConfig {
        ShardConfig {
            replicas_per_shard: replicas,
            ..ShardConfig::default()
        }
    }

    fn sum(r: &ShardServingReport, f: impl Fn(&crate::shard::ShardStats) -> u64) -> u64 {
        r.shard_stats.iter().map(f).sum()
    }

    #[test]
    fn identical_runs_are_bit_identical() {
        let t = vec![tenant_at_load(0.6, 10.0)];
        let w = wl(42, 2_000.0, t[0].rate_rps);
        let cfg = ShardConfig::default();
        assert_eq!(run_sharded(&t, &w, &cfg), run_sharded(&t, &w, &cfg));
    }

    #[test]
    fn different_seeds_differ() {
        let t = vec![tenant_at_load(0.6, 10.0)];
        let rate = t[0].rate_rps;
        let a = run_sharded(&t, &wl(1, 1_000.0, rate), &ShardConfig::default());
        let b = run_sharded(&t, &wl(2, 1_000.0, rate), &ShardConfig::default());
        assert_ne!(a, b);
    }

    #[test]
    fn conservation_completed_plus_rejected_is_submitted() {
        // Overload so shedding actually happens.
        let t = vec![tenant_at_load(3.0, 10.0)];
        let w = wl(9, 3_000.0, t[0].rate_rps);
        let cfg = ShardConfig {
            queue_depth: 16,
            ..ShardConfig::default()
        };
        let r = run_sharded(&t, &w, &cfg);
        let s = &r.tenants[0];
        assert!(s.rejected > 0, "overload should shed");
        assert_eq!(s.completed + s.rejected, s.submitted);
        assert_eq!(r.total_completed + r.total_rejected, s.submitted);
        assert_eq!(s.histogram.count(), s.completed);
    }

    #[test]
    fn max_batch_one_disables_batching() {
        let t = vec![tenant_at_load(0.5, 10.0)];
        let w = wl(4, 500.0, t[0].rate_rps);
        let cfg = ShardConfig {
            max_batch: 1,
            ..ShardConfig::default()
        };
        let r = run_sharded(&t, &w, &cfg);
        assert_eq!(r.batches, r.total_completed);
        assert!((r.mean_batch_size - 1.0).abs() < 1e-12);
    }

    #[test]
    fn overload_forms_larger_batches_than_light_load() {
        let make = |load: f64| {
            let t = vec![tenant_at_load(load, 10.0)];
            let w = wl(8, 2_000.0, t[0].rate_rps);
            run_sharded(&t, &w, &ShardConfig::default())
        };
        let light = make(0.05);
        let heavy = make(2.0);
        assert!(heavy.mean_batch_size > light.mean_batch_size);
        assert!(heavy.mean_batch_size > 2.0, "{}", heavy.mean_batch_size);
    }

    #[test]
    fn latency_stats_are_ordered_and_bounded_below_by_service() {
        let t = vec![tenant_at_load(0.7, 10.0)];
        let w = wl(13, 2_000.0, t[0].rate_rps);
        let r = run_sharded(&t, &w, &ShardConfig::default());
        let s = &r.tenants[0];
        assert!(s.p50_ns <= s.p95_ns);
        assert!(s.p95_ns <= s.p99_ns);
        assert!(s.p99_ns <= s.max_ns);
        // A request can't finish faster than a single-sample service.
        assert!(s.p50_ns >= t[0].deployment.service_ns(1));
        assert!(s.mean_ns > 0.0);
        assert!(s.peak_queue_depth >= 1);
        assert!(s.mean_queue_depth >= 0.0);
    }

    #[test]
    fn second_replica_relieves_an_overloaded_tenant() {
        let t = vec![tenant_at_load(1.5, 4.0)];
        let w = wl(21, 3_000.0, t[0].rate_rps);
        let one = run_sharded(&t, &w, &ShardConfig::default());
        let two = run_sharded(&t, &w, &replicas(2));
        assert!(two.tenants[0].p99_ns < one.tenants[0].p99_ns);
        assert!(two.tenants[0].slo_attainment > one.tenants[0].slo_attainment);
        assert!(two.makespan_ns <= one.makespan_ns);
    }

    #[test]
    fn generous_slo_is_met_under_light_load() {
        let t = vec![tenant_at_load(0.1, 1_000.0)];
        let w = wl(2, 300.0, t[0].rate_rps);
        let r = run_sharded(&t, &w, &ShardConfig::default());
        assert_eq!(r.tenants[0].rejected, 0);
        assert!((r.tenants[0].slo_attainment - 1.0).abs() < 1e-12);
    }

    #[test]
    fn empty_workload_yields_empty_report() {
        let mut spec = tenant_at_load(0.5, 10.0);
        spec.rate_rps = 0.0;
        let w = Workload {
            seed: 0,
            horizon_ns: 1_000_000,
        };
        let r = run_sharded(&[spec], &w, &ShardConfig::default());
        assert_eq!(r.total_completed, 0);
        assert_eq!(r.batches, 0);
        assert_eq!(r.tenants[0].p99_ns, 0);
        assert_eq!(r.makespan_ns, w.horizon_ns);
        assert!((r.tenants[0].slo_attainment - 1.0).abs() < 1e-12);
    }

    #[test]
    fn two_tenants_share_capacity_fairly_by_arrival_order() {
        let a = tenant_at_load(0.4, 10.0);
        let b = tenant_at_load(0.4, 10.0);
        let w = wl(31, 2_000.0, a.rate_rps + b.rate_rps);
        let r = run_sharded(&[a, b], &w, &ShardConfig::default());
        assert_eq!(r.tenants.len(), 2);
        // Symmetric tenants under a shared replica: both make progress,
        // and equal weights earn near-equal attained service.
        assert!(r.tenants[0].completed > 0);
        assert!(r.tenants[1].completed > 0);
        assert!(r.fairness_index > 0.9, "{}", r.fairness_index);
    }

    /// A failure spec aggressive enough to kill batches mid-service.
    fn flaky(seed: u64) -> FailureSpec {
        FailureSpec {
            mtbf_ns: 2_000_000,
            mttr_ns: 400_000,
            seed,
        }
    }

    #[test]
    fn failure_free_runs_report_zero_failure_accounting() {
        let t = vec![tenant_at_load(0.6, 10.0)];
        let w = wl(42, 1_000.0, t[0].rate_rps);
        let r = run_sharded(&t, &w, &ShardConfig::default());
        let s = &r.tenants[0];
        assert_eq!(s.failed, 0);
        assert_eq!(s.retried, 0);
        assert_eq!(s.degraded_completed, 0);
        assert_eq!(s.killed_batches, 0);
        assert_eq!(r.total_failed, 0);
        assert_eq!(r.total_retried, 0);
        assert!(r.shard_stats.iter().all(|s| s.downtime_ns == 0));
    }

    #[test]
    fn failures_cause_kills_retries_and_conserve_requests() {
        let t = vec![tenant_at_load(0.7, 10.0), tenant_at_load(0.3, 10.0)];
        let w = wl(5, 2_000.0, t[0].rate_rps + t[1].rate_rps);
        let cfg = ShardConfig {
            failures: Some(flaky(17)),
            ..replicas(2)
        };
        let r = run_sharded(&t, &w, &cfg);
        let killed: u64 = r.tenants.iter().map(|s| s.killed_batches).sum();
        assert!(killed > 0, "aggressive failures should kill batches");
        assert!(r.total_retried > 0);
        assert!(sum(&r, |s| s.downtime_ns) > 0);
        for s in &r.tenants {
            assert_eq!(
                s.completed + s.rejected + s.failed,
                s.submitted,
                "request conservation for {}",
                s.name
            );
            assert!(s.degraded_completed <= s.completed);
        }
        assert_eq!(r.lost_requests(), 0);
        // Retried-but-completed requests surface as degraded service.
        let degraded: u64 = r.tenants.iter().map(|s| s.degraded_completed).sum();
        assert!(degraded > 0);
    }

    #[test]
    fn zero_retry_deadline_drops_every_killed_request() {
        let t = vec![tenant_at_load(0.7, 10.0)];
        let w = wl(5, 1_500.0, t[0].rate_rps);
        let cfg = ShardConfig {
            failures: Some(flaky(17)),
            retry_deadline_ns: 0,
            ..ShardConfig::default()
        };
        let r = run_sharded(&t, &w, &cfg);
        let s = &r.tenants[0];
        assert!(s.killed_batches > 0);
        assert!(s.failed > 0, "no deadline headroom: kills become failures");
        assert_eq!(s.retried, 0);
        assert_eq!(s.degraded_completed, 0);
        assert_eq!(s.completed + s.rejected + s.failed, s.submitted);
    }

    #[test]
    fn failure_runs_are_deterministic_and_seed_sensitive() {
        let t = vec![tenant_at_load(0.6, 10.0)];
        let w = wl(8, 1_000.0, t[0].rate_rps);
        let mk = |seed| ShardConfig {
            failures: Some(flaky(seed)),
            ..replicas(2)
        };
        let a = run_sharded(&t, &w, &mk(1));
        let b = run_sharded(&t, &w, &mk(1));
        let c = run_sharded(&t, &w, &mk(2));
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    /// A drift spec strong enough to corrupt results within the short
    /// test horizons (serving horizons are tens of milliseconds, so the
    /// per-ms growth must be steep to matter).
    fn drifting(trip_milli: u64, remap: bool) -> HealthSpec {
        HealthSpec {
            err_ppm_per_ms: 30_000,
            trip_milli,
            remap,
            ..HealthSpec::default()
        }
    }

    fn with_health(spec: HealthSpec) -> ShardConfig {
        ShardConfig {
            health: Some(spec),
            ..ShardConfig::default()
        }
    }

    #[test]
    fn zero_drift_health_is_indistinguishable_from_disabled() {
        let t = vec![tenant_at_load(0.6, 10.0)];
        let w = wl(42, 1_500.0, t[0].rate_rps);
        let off = run_sharded(&t, &w, &ShardConfig::default());
        let on = run_sharded(
            &t,
            &w,
            &with_health(HealthSpec {
                err_ppm_per_ms: 0,
                ..HealthSpec::default()
            }),
        );
        assert_eq!(off, on, "a drift-free monitor must not perturb the run");
    }

    #[test]
    fn unchecked_drift_erodes_accuracy_and_slo_attainment() {
        let t = vec![tenant_at_load(0.6, 10.0)];
        let w = wl(7, 2_000.0, t[0].rate_rps);
        let clean = run_sharded(&t, &w, &ShardConfig::default());
        // Breaker threshold above 1000 milli: can never trip.
        let r = run_sharded(&t, &w, &with_health(drifting(1001, false)));
        let s = &r.tenants[0];
        assert!(s.errored > 0, "steep drift must corrupt results");
        assert!(s.errored <= s.completed);
        assert_eq!(s.completed + s.rejected, s.submitted);
        assert!(s.slo_attainment < clean.tenants[0].slo_attainment);
        assert!(r.clean_fraction() < 1.0);
        assert_eq!(sum(&r, |s| s.trips), 0);
        assert_eq!(r.total_errored, s.errored);
    }

    #[test]
    fn recovery_trips_the_breaker_and_restores_accuracy() {
        let t = vec![tenant_at_load(0.6, 10.0)];
        let w = wl(7, 2_000.0, t[0].rate_rps);
        let unchecked = run_sharded(&t, &w, &with_health(drifting(1001, false)));
        let recovered = run_sharded(&t, &w, &with_health(drifting(60, true)));
        assert!(
            sum(&recovered, |s| s.trips) > 0,
            "the breaker must trip under steep drift"
        );
        let repairs = sum(&recovered, |s| s.recals + s.remaps);
        assert!(repairs > 0, "trips must lead to recoveries");
        assert!(sum(&recovered, |s| s.recovery_ns) > 0);
        assert!(recovered.total_errored < unchecked.total_errored);
        assert!(recovered.clean_fraction() > unchecked.clean_fraction());
        assert!(
            recovered.tenants[0].slo_attainment > unchecked.tenants[0].slo_attainment,
            "recovery pauses must cost less than unchecked corruption"
        );
    }

    #[test]
    fn hopeless_recalibration_escalates_to_remap() {
        let t = vec![tenant_at_load(0.6, 10.0)];
        let w = wl(7, 1_500.0, t[0].rate_rps);
        let r = run_sharded(
            &t,
            &w,
            &with_health(HealthSpec {
                recal_success_milli: 0,
                max_retries: 2,
                ..drifting(60, true)
            }),
        );
        let trips = sum(&r, |s| s.trips);
        assert!(trips > 0);
        assert_eq!(sum(&r, |s| s.recals), 0);
        assert_eq!(sum(&r, |s| s.remaps), trips);
    }

    #[test]
    fn health_runs_are_deterministic_and_seed_sensitive() {
        let t = vec![tenant_at_load(0.6, 10.0)];
        let w = wl(8, 1_000.0, t[0].rate_rps);
        let mk = |seed| {
            with_health(HealthSpec {
                seed,
                ..drifting(60, true)
            })
        };
        let a = run_sharded(&t, &w, &mk(1));
        let b = run_sharded(&t, &w, &mk(1));
        let c = run_sharded(&t, &w, &mk(2));
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn failures_never_improve_service() {
        let t = vec![tenant_at_load(0.8, 6.0)];
        let w = wl(3, 2_000.0, t[0].rate_rps);
        let healthy = run_sharded(&t, &w, &ShardConfig::default());
        let failing = run_sharded(
            &t,
            &w,
            &ShardConfig {
                failures: Some(flaky(9)),
                ..ShardConfig::default()
            },
        );
        assert!(failing.tenants[0].slo_attainment <= healthy.tenants[0].slo_attainment);
        assert!(failing.makespan_ns >= healthy.makespan_ns);
        assert!(failing.total_completed <= healthy.total_completed);
    }
}

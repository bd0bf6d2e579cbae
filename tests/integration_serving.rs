//! Cross-crate integration: searched strategies (autohet) compiled into
//! deployments and driven through the serving simulator (autohet-serve).

use autohet::prelude::*;
use autohet::studies::{serving_study, ServingStudyRow};

fn label(rows: &[ServingStudyRow], l: &str) -> ServingStudyRow {
    rows.iter()
        .find(|r| r.label == l)
        .unwrap_or_else(|| panic!("missing row {l}"))
        .clone()
}

#[test]
fn serving_study_separates_deployment_configs_under_identical_load() {
    let rows = serving_study(&autohet_dnn::zoo::lenet5(), 0.95, 11);
    assert_eq!(rows.len(), 4);
    // Identical load: every configuration saw the same request stream.
    assert!(rows.iter().all(|r| r.submitted == rows[0].submitted));
    assert!(rows[0].submitted > 500);

    // Measurable differences between configurations:
    // (1) tile sharing frees allocated crossbars, cutting leakage energy
    //     at unchanged pipeline latency;
    let homo_based = label(&rows, "homogeneous/tile-based");
    let homo_shared = label(&rows, "homogeneous/tile-shared");
    assert!(
        homo_shared.energy_nj < homo_based.energy_nj,
        "tile sharing should cut energy: {} vs {}",
        homo_shared.energy_nj,
        homo_based.energy_nj
    );
    assert_eq!(homo_based.p99_ns, homo_shared.p99_ns);

    // (2) the strategy changes service times, so tail latency separates
    //     homogeneous from AutoHet under the same arrivals.
    let het_based = label(&rows, "autohet/tile-based");
    assert_ne!(
        homo_based.p99_ns, het_based.p99_ns,
        "strategies should produce different tails"
    );
    assert_ne!(homo_based.energy_nj, het_based.energy_nj);
}

#[test]
fn serving_report_is_reproducible_through_the_public_prelude() {
    let model = autohet_dnn::zoo::lenet5();
    let cfg = AccelConfig::default();
    let (shape, _) = best_homogeneous(&model, &cfg);
    let d = Deployment::compile("lenet", &model, &vec![shape; model.layers.len()], &cfg);
    let rate = 0.8 * d.max_rate_rps();
    let slo = (5.0 * d.pipeline.fill_ns) as u64;
    let tenants = vec![TenantSpec::new("lenet", d, rate, slo)];
    let wl = Workload {
        seed: 77,
        horizon_ns: (1_000.0 / rate * 1e9) as u64,
    };
    let serve = ShardConfig {
        replicas_per_shard: 2,
        ..ShardConfig::default()
    };
    let a = run_sharded(&tenants, &wl, &serve);
    let b = run_sharded(&tenants, &wl, &serve);
    let c = run_sharded_threaded(&tenants, &wl, &serve, 2);
    assert_eq!(a, b, "sequential runs must be bit-identical");
    assert_eq!(
        a, c,
        "the threaded driver must reproduce the sequential one"
    );
    assert!(a.total_completed > 0);
    assert_eq!(a.total_completed + a.total_rejected, a.tenants[0].submitted);
}

#[test]
fn sharded_runtime_serves_searched_strategies_end_to_end() {
    use autohet::search::greedy::greedy_layerwise_rue;
    let model = autohet_dnn::zoo::lenet5();
    let cfg = AccelConfig::default();
    let het = greedy_layerwise_rue(&model, &paper_hybrid_candidates(), &cfg).strategy;
    let d = Deployment::compile("lenet/autohet", &model, &het, &cfg);
    let rate = 0.4 * d.max_rate_rps();
    let slo = (8.0 * d.pipeline.fill_ns) as u64;
    let tenants: Vec<TenantSpec> = (0..4)
        .map(|i| TenantSpec::new(&format!("t{i}"), d.clone(), rate, slo).with_weight(1 + i as u64))
        .collect();
    let wl = Workload {
        seed: 13,
        horizon_ns: 40_000_000,
    };
    let shard_cfg = ShardConfig {
        shards: 2,
        epochs: 8,
        ..ShardConfig::default()
    };
    let r = run_sharded(&tenants, &wl, &shard_cfg);
    assert_eq!(r, run_sharded_reference(&tenants, &wl, &shard_cfg));
    assert_eq!(r.lost_requests(), 0);
    assert!(r.total_completed > 0);
    assert_eq!(r.windows.len(), shard_cfg.epochs);
    assert!(r.fairness_index > 0.0 && r.fairness_index <= 1.0);
    // The searched strategy's report conserves per-tenant counts.
    for t in &r.tenants {
        assert_eq!(t.submitted, t.completed + t.rejected, "{}", t.name);
    }
}

#[test]
fn serving_study_rows_carry_the_fairness_schema() {
    // Single-tenant study rows sit at the Jain-index fixed point 1.0 —
    // the schema matches ShardServingReport::fairness_index by
    // construction.
    let rows = serving_study(&autohet_dnn::zoo::micro_cnn(), 0.8, 3);
    assert!(rows.iter().all(|r| r.fairness_index == 1.0), "{rows:?}");
}

#[test]
fn bursty_tenant_degrades_its_own_slo_not_its_neighbor_throughput() {
    let model = autohet_dnn::zoo::lenet5();
    let cfg = AccelConfig::default();
    let (shape, _) = best_homogeneous(&model, &cfg);
    let strategy = vec![shape; model.layers.len()];
    let mk = |name: &str| Deployment::compile(name, &model, &strategy, &cfg);
    let probe = mk("probe");
    let rate = 0.45 * probe.max_rate_rps();
    let slo = (6.0 * probe.pipeline.fill_ns) as u64;
    let steady = TenantSpec::new("steady", mk("steady"), rate, slo);
    let bursty = TenantSpec::new("bursty", mk("bursty"), rate, slo).with_burst(BurstSpec {
        period_ns: 10_000_000,
        burst_ns: 2_000_000,
        factor: 6.0,
    });
    let wl = Workload {
        seed: 5,
        horizon_ns: (2_000.0 / rate * 1e9) as u64,
    };
    let r = run_sharded(&[steady, bursty], &wl, &ShardConfig::default());
    let steady_stats = &r.tenants[0];
    let bursty_stats = &r.tenants[1];
    assert!(bursty_stats.submitted > steady_stats.submitted);
    assert!(bursty_stats.p99_ns >= steady_stats.p99_ns);
    // Both tenants keep making progress under the shared replica.
    assert!(steady_stats.completed > 0 && bursty_stats.completed > 0);
}

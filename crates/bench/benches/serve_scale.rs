//! Sharded-runtime scale benchmark: one simulated day of traffic from a
//! 120-tenant fleet (~1.3M requests) through `run_sharded`, comparing
//! the linear-scan reference at 1 shard against the heap scheduler at 1
//! and 8 shards. All modes make identical scheduling decisions at equal
//! shard counts (property-tested), so the wall-clock ratio isolates the
//! ready-structure cost: O(tenants + replicas) scans per event vs
//! O(log) lazy-deletion heaps over shard-local state.
//!
//! Alongside the `bench` lines this prints one `serve_meta` line with
//! the workload's scale facts; `scripts/bench_snapshot.sh` folds both
//! into `BENCH_serve.json`.

use autohet_accel::AccelConfig;
use autohet_dnn::zoo;
use autohet_serve::{
    run_sharded, run_sharded_reference, BurstSpec, Deployment, ShardConfig, ShardServingReport,
    TenantSpec, Workload,
};
use autohet_xbar::XbarShape;
use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};

const TENANTS: usize = 120;
const HORIZON_NS: u64 = 86_400_000_000_000; // 24h of virtual time
const TARGET_REQUESTS: f64 = 1_200_000.0;
const TOTAL_REPLICAS: usize = 8;

/// The serve_scale example's day fleet: three compiled deployments
/// cloned across the tenants, weights cycling 1/2/4/8, every third
/// tenant with a rush-hour burst.
fn fleet() -> Vec<TenantSpec> {
    let cfg = AccelConfig::default();
    let lenet = zoo::lenet5();
    let micro = zoo::micro_cnn();
    let deployments = [
        Deployment::compile(
            "lenet/sq128",
            &lenet,
            &vec![XbarShape::square(128); lenet.layers.len()],
            &cfg,
        ),
        Deployment::compile(
            "micro/sq64",
            &micro,
            &vec![XbarShape::square(64); micro.layers.len()],
            &cfg,
        ),
        Deployment::compile(
            "micro/sq128",
            &micro,
            &vec![XbarShape::square(128); micro.layers.len()],
            &cfg,
        ),
    ];
    let rate = TARGET_REQUESTS / (HORIZON_NS as f64 / 1e9) / TENANTS as f64;
    (0..TENANTS)
        .map(|i| {
            let d = deployments[i % deployments.len()].clone();
            let slo = (8.0 * d.pipeline.fill_ns) as u64;
            let mut t =
                TenantSpec::new(&format!("tenant-{i:03}"), d, rate, slo).with_weight(1 << (i % 4));
            if i % 3 == 0 {
                t = t.with_burst(BurstSpec {
                    period_ns: HORIZON_NS,
                    burst_ns: HORIZON_NS / 6,
                    factor: 3.0,
                });
            }
            t
        })
        .collect()
}

fn config(shards: usize) -> ShardConfig {
    ShardConfig {
        shards,
        replicas_per_shard: TOTAL_REPLICAS / shards,
        ..ShardConfig::default()
    }
}

/// A serving driver: the heap scheduler or the linear-scan reference.
type Driver = fn(&[TenantSpec], &Workload, &ShardConfig) -> ShardServingReport;

fn bench_serve_scale(c: &mut Criterion) {
    let tenants = fleet();
    let wl = Workload {
        seed: 2024,
        horizon_ns: HORIZON_NS,
    };
    // One probe run pins down the workload's actual scale (the arrival
    // streams are seeded, so every timed run serves the same requests).
    let probe = run_sharded(&tenants, &wl, &config(8));
    assert_eq!(probe.lost_requests(), 0);
    println!(
        "serve_meta requests={} tenants={} horizon_ns={} replicas={}",
        probe.total_submitted, TENANTS, HORIZON_NS, TOTAL_REPLICAS
    );

    let mut g = c.benchmark_group("serve");
    g.throughput(Throughput::Elements(probe.total_submitted));
    g.sample_size(2);
    let drivers: [(&str, usize, Driver); 3] = [
        ("day/scan_shard1", 1, run_sharded_reference),
        ("day/heap_shard1", 1, run_sharded),
        ("day/heap_shard8", 8, run_sharded),
    ];
    for (name, shards, run) in drivers {
        let cfg = config(shards);
        g.bench_function(name, |b| {
            b.iter(|| black_box(run(black_box(&tenants), &wl, &cfg)))
        });
    }
    g.finish();
}

criterion_group!(benches, bench_serve_scale);
criterion_main!(benches);

//! Multi-tenant serving simulation: AlexNet and LeNet-5 sharing two
//! accelerator replicas behind per-tenant request queues, scheduled by
//! deficit round-robin.
//!
//! Compiles each tenant's model twice — best homogeneous strategy vs.
//! greedy AutoHet strategy — and serves both fleets under the *same*
//! seeded request stream, printing per-tenant p99 latency, SLO
//! attainment, and energy.
//!
//! ```sh
//! cargo run --release -p autohet --example serving_sim
//! ```

use autohet::prelude::*;
use autohet::search::greedy::greedy_layerwise_rue;

/// Compile `model` with either its best homogeneous or its greedy
/// AutoHet strategy.
fn deploy(model: &autohet_dnn::Model, hetero: bool, cfg: &AccelConfig) -> Deployment {
    let (label, strategy) = if hetero {
        let out = greedy_layerwise_rue(model, &paper_hybrid_candidates(), cfg);
        (format!("{}/autohet", model.name), out.strategy)
    } else {
        let (shape, _) = best_homogeneous(model, cfg);
        (
            format!("{}/homogeneous", model.name),
            vec![shape; model.layers.len()],
        )
    };
    Deployment::compile(&label, model, &strategy, cfg)
}

fn main() {
    let alexnet = autohet_dnn::zoo::alexnet();
    let lenet = autohet_dnn::zoo::lenet5();
    let cfg = AccelConfig::default().with_tile_sharing();

    // Shared scheduler and load for both fleets: rates are pinned to the
    // homogeneous deployments' capacity so the request streams are
    // identical and only the strategies differ.
    let serve = ShardConfig {
        replicas_per_shard: 2,
        max_batch: 8,
        batch_window_ns: 500_000,
        queue_depth: 48,
        ..ShardConfig::default()
    };
    let homo = [deploy(&alexnet, false, &cfg), deploy(&lenet, false, &cfg)];
    let rates = [0.9 * homo[0].max_rate_rps(), 0.6 * homo[1].max_rate_rps()];
    let slos = [
        (4.0 * homo[0].pipeline.fill_ns) as u64,
        (4.0 * homo[1].pipeline.fill_ns) as u64,
    ];
    let wl = Workload {
        seed: 2024,
        horizon_ns: 50_000_000,
    };

    println!(
        "serving {} + {} on {} replicas (seed {}, horizon {} ms)\n",
        alexnet.name,
        lenet.name,
        serve.replicas_per_shard,
        wl.seed,
        wl.horizon_ns / 1_000_000
    );
    println!(
        "{:>22} {:>10} {:>8} {:>12} {:>8} {:>12}",
        "tenant", "served", "shed", "p99 [µs]", "SLO %", "energy [µJ]"
    );

    for hetero in [false, true] {
        let fleet: Vec<TenantSpec> = [&alexnet, &lenet]
            .iter()
            .zip(rates.iter().zip(&slos))
            .map(|(m, (&rate, &slo))| TenantSpec::new(&m.name, deploy(m, hetero, &cfg), rate, slo))
            .collect();
        let report = run_sharded(&fleet, &wl, &serve);
        println!(
            "--- {} strategies ---",
            if hetero { "autohet" } else { "homogeneous" }
        );
        for t in &report.tenants {
            println!(
                "{:>22} {:>10} {:>8} {:>12.1} {:>8.2} {:>12.2}",
                t.name,
                t.completed,
                t.rejected,
                t.p99_ns as f64 / 1e3,
                100.0 * t.slo_attainment,
                t.energy_nj / 1e3
            );
        }
        println!(
            "{:>22} {:>10} {:>8} {:>12} {:>8} {:>12.2}\n",
            "(total)",
            report.total_completed,
            report.total_rejected,
            "-",
            "-",
            report.total_energy_nj / 1e3
        );
    }
}

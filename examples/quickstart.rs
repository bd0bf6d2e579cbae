//! Quickstart: search a heterogeneous crossbar configuration for a small
//! CNN and compare it with every homogeneous baseline.
//!
//! ```sh
//! cargo run --release -p autohet --example quickstart
//! ```

use autohet::prelude::*;
use autohet_rl::DdpgConfig;

fn main() {
    // 1. A workload: a small CIFAR-style CNN (swap in zoo::vgg16() etc.).
    let model = autohet_dnn::zoo::test_cnn();
    println!(
        "model: {} ({} layers, {} weights)",
        model.name,
        model.num_layers(),
        model.total_weights()
    );

    // 2. The accelerator: paper defaults (4 PEs/tile, 8-bit weights on
    //    1-bit cells, 10-bit ADCs) plus the tile-shared scheme.
    let cfg = AccelConfig::default().with_tile_sharing();

    // 3. Homogeneous baselines, scored on an engine that holds the model
    //    and the plain accelerator config.
    println!("\n-- homogeneous baselines --");
    let plain = EvalEngine::new(model.clone(), AccelConfig::default());
    for (shape, r) in homogeneous_reports(&plain) {
        println!(
            "{:>9}: util {:5.1}%  energy {:10.3e} nJ  RUE {:9.3e}",
            shape.to_string(),
            r.utilization_pct(),
            r.energy_nj(),
            r.rue()
        );
    }

    // 4. The AutoHet RL search over the hybrid candidate set.
    let scfg = RlSearchConfig {
        episodes: 120,
        ddpg: DdpgConfig {
            seed: 7,
            ..DdpgConfig::default()
        },
        ..RlSearchConfig::default()
    };
    let outcome = rl_search(&model, &paper_hybrid_candidates(), &cfg, &scfg);
    let r = &outcome.best_report;
    println!("\n-- AutoHet ({} episodes) --", scfg.episodes);
    println!(
        "  AutoHet: util {:5.1}%  energy {:10.3e} nJ  RUE {:9.3e}",
        r.utilization_pct(),
        r.energy_nj(),
        r.rue()
    );
    println!("  per-layer crossbars:");
    for (i, s) in outcome.best_strategy.iter().enumerate() {
        println!("    L{:<2} -> {s}", i + 1);
    }

    let (_, best_homo) = best_homogeneous_with_engine(&plain);
    println!(
        "\nRUE improvement over best homogeneous: {:.2}x",
        r.rue() / best_homo.rue()
    );
    println!(
        "search time: {:.2}s ({:.0}% in the simulator)",
        outcome.timing.total.as_secs_f64(),
        outcome.timing.simulator_fraction() * 100.0
    );
}

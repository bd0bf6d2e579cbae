//! Edge-deployment scenario from the paper's motivation (§2.2): a mobile
//! accelerator with a hard area budget and battery constraints.
//!
//! Compares how each homogeneous design and AutoHet fit a fixed silicon
//! budget for AlexNet-on-MNIST, and what one inference costs in energy —
//! the setting where RUE matters.
//!
//! ```sh
//! cargo run --release -p autohet --example edge_energy_budget
//! ```

use autohet::prelude::*;
use autohet_rl::DdpgConfig;

fn main() {
    let model = autohet_dnn::zoo::alexnet();
    let cfg = AccelConfig::default();
    // An edge-accelerator budget: 16×16 mm die ≈ 1.6e9 µm² (AlexNet's
    // 26M weights with per-bitline ADCs need silicon on this order).
    let area_budget_um2 = 1.6e9;
    // An energy envelope per inference: 1.2 mJ = 1.2e6 nJ.
    let energy_budget_nj = 1.2e6;

    println!(
        "edge budget: {:.0} mm^2 silicon, {:.1} mJ / inference\n",
        area_budget_um2 / 1e6,
        energy_budget_nj / 1e6
    );
    println!(
        "{:>13} {:>12} {:>12} {:>8} {:>10} {:>6}",
        "accelerator", "area mm^2", "energy mJ", "util %", "RUE", "fits?"
    );

    let report_line = |name: &str, r: &EvalReport| {
        let fits = r.area_um2 <= area_budget_um2 && r.energy_nj() <= energy_budget_nj;
        println!(
            "{:>13} {:>12.2} {:>12.3} {:>8.1} {:>10.3e} {:>6}",
            name,
            r.area_um2 / 1e6,
            r.energy_nj() / 1e6,
            r.utilization_pct(),
            r.rue(),
            if fits { "yes" } else { "NO" }
        );
    };

    for (shape, r) in homogeneous_reports(&EvalEngine::new(model.clone(), cfg)) {
        report_line(&shape.to_string(), &r);
    }

    let scfg = RlSearchConfig {
        episodes: 120,
        ddpg: DdpgConfig {
            seed: 13,
            ..DdpgConfig::default()
        },
        ..RlSearchConfig::default()
    };
    let outcome = rl_search(
        &model,
        &paper_hybrid_candidates(),
        &cfg.with_tile_sharing(),
        &scfg,
    );
    report_line("AutoHet", &outcome.best_report);

    println!(
        "\nAutoHet picked: {:?}",
        outcome
            .best_strategy
            .iter()
            .map(|s| s.to_string())
            .collect::<Vec<_>>()
    );
}

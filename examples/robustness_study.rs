//! Robustness study: price lognormal device variation into the
//! objective, compare every homogeneous baseline and the noise-blind
//! greedy AutoHet mapping against the NSGA-II energy × latency ×
//! noise-robustness Pareto front, and report whether the noise-robust
//! pick differs from the noise-blind winner (DESIGN.md §11).
//!
//! ```sh
//! cargo run --release -p autohet --example robustness_study
//! # tiny model + budget, used by scripts/check.sh and CI:
//! cargo run --release -p autohet --example robustness_study -- --smoke --out target/robustness_smoke
//! ```
//!
//! Written into `--out` (default `target/robustness_study`):
//!
//! | file               | contents                                         |
//! |--------------------|--------------------------------------------------|
//! | `nsga_front.csv`   | the Pareto front, one row per point              |
//! | `nsga_front.jsonl` | same rows as JSON Lines                          |
//! | `metrics.txt`      | search counters/gauges mirrored by the telemetry |
//! | `summary.txt`      | the two picks and whether they differ            |

use autohet::prelude::*;
use autohet::robust::RobustSearchOutcome;
use autohet::studies::RobustnessStudyConfig;
use autohet::telemetry::front_series;
use std::fs;
use std::path::PathBuf;

fn main() {
    let mut smoke = false;
    let mut out = PathBuf::from("target/robustness_study");
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--smoke" => smoke = true,
            "--out" => out = PathBuf::from(args.next().expect("--out needs a directory")),
            other => panic!("unknown flag {other:?} (expected --smoke / --out DIR)"),
        }
    }
    fs::create_dir_all(&out).expect("create output directory");

    let model = if smoke {
        autohet_dnn::zoo::micro_cnn()
    } else {
        autohet_dnn::zoo::alexnet()
    };
    let cfg = if smoke {
        RobustnessStudyConfig {
            nsga: autohet::robust::NsgaConfig {
                population: 8,
                generations: 2,
                seed: 5,
                ..autohet::robust::NsgaConfig::default()
            },
            noise: NoiseEvalConfig {
                draws: 2,
                probes: 2,
                ..NoiseEvalConfig::default()
            },
            ..RobustnessStudyConfig::default()
        }
    } else {
        RobustnessStudyConfig::default()
    };
    let report = autohet::studies::robustness_study(&model, &cfg);

    println!(
        "robustness study on {} (NSGA pop {}, {} generations, {} noise draws × {} probes)\n",
        report.model, cfg.nsga.population, cfg.nsga.generations, cfg.noise.draws, cfg.noise.probes
    );
    println!(
        "{:>24} {:>12} {:>12} {:>10} {:>9} {:>9}",
        "mapping", "energy [µJ]", "latency [µs]", "noise_dev", "acc", "RUE"
    );
    for r in &report.rows {
        println!(
            "{:>24} {:>12.2} {:>12.2} {:>10.5} {:>9.4} {:>9.4}",
            r.label,
            r.energy_nj / 1e3,
            r.latency_ns / 1e3,
            r.noise_dev,
            r.accuracy_proxy,
            r.rue
        );
    }
    println!();
    for g in &report.generations {
        println!(
            "generation {:>2}: front {:>2}, best energy {:.2} µJ, latency {:.2} µs, noise {:.5}",
            g.generation,
            g.front_size,
            g.best_energy_nj / 1e3,
            g.best_latency_ns / 1e3,
            g.best_noise_dev
        );
    }

    let blind = report.noise_blind();
    let robust = report.robust();
    let summary = format!(
        "noise-blind winner: {} (RUE {:.4}, noise_dev {:.5})\n\
         noise-robust pick:  {} (RUE {:.4}, noise_dev {:.5})\n\
         picks_differ: {}\n",
        blind.label,
        blind.rue,
        blind.noise_dev,
        robust.label,
        robust.rue,
        robust.noise_dev,
        report.picks_differ
    );
    println!("\n{summary}");

    // Mirror the study into the obs substrate: the front as a series,
    // the search counters into a metrics table.
    let front: Vec<RobustPoint> = report
        .rows
        .iter()
        .filter(|r| r.label.starts_with("nsga/front-"))
        .map(|r| RobustPoint {
            strategy: r.strategy.clone(),
            energy_nj: r.energy_nj,
            latency_ns: r.latency_ns,
            noise_dev: r.noise_dev,
            accuracy_proxy: r.accuracy_proxy,
            rue: r.rue,
        })
        .collect();
    let outcome = RobustSearchOutcome {
        front,
        history: report.generations.clone(),
        evaluations: report.nsga_evaluations,
    };
    let mut registry = autohet_obs::Registry::new();
    publish_robust_search(&outcome, &mut registry, "search.nsga");

    let series = front_series("nsga_front", &outcome.front);
    let write = |name: &str, data: String| {
        let path = out.join(name);
        fs::write(&path, data).expect("write artifact");
        println!("wrote {}", path.display());
    };
    write("nsga_front.csv", series.to_csv());
    write("nsga_front.jsonl", series.to_jsonl());
    write("metrics.txt", registry.to_text());
    write("summary.txt", summary);
}

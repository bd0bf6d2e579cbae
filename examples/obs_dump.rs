//! End-to-end observability dump: run every search driver plus a serving
//! window on one shared evaluation engine with the tracer enabled, publish
//! the finished outcomes into a metrics table, then export every
//! `autohet-obs` artifact.
//!
//! ```sh
//! cargo run --release -p autohet --example obs_dump -- --out target/obs_dump
//! # tiny model + budget, used by scripts/check.sh and CI:
//! cargo run --release -p autohet --example obs_dump -- --smoke --out target/obs_smoke
//! ```
//!
//! Written into `--out` (default `target/obs_dump`):
//!
//! | file                  | contents                                        |
//! |-----------------------|-------------------------------------------------|
//! | `trace.jsonl`         | one span per line (path, depth, start/end ns)   |
//! | `trace.collapsed`     | collapsed stacks (self-time) for flamegraph.pl  |
//! | `metrics.txt`         | metrics table, one `name value` per line        |
//! | `metrics.jsonl`       | same table as JSON Lines                        |
//! | `search_episodes.csv` | per-episode telemetry for every search driver   |
//! | `search_episodes.jsonl` | same rows as JSON Lines                       |
//! | `vec_groups.csv`      | per-group lane occupancy of the vectorized DDPG |
//! | `vec_groups.jsonl`    | same rows as JSON Lines                         |
//! | `serving_windows.csv` | per-window serving telemetry                    |
//! | `serving_windows.jsonl` | same rows as JSON Lines                       |
//!
//! With `--alerts`, three more artifacts: the deterministic alert
//! engine's timeline and the vectorized search's episode rows:
//!
//! | file                 | contents                                          |
//! |----------------------|---------------------------------------------------|
//! | `alerts.jsonl`       | alert timeline of an overload + drift serving run |
//! | `alerts.csv`         | same timeline as CSV                              |
//! | `vec_episodes.jsonl` | per-episode rows of the vectorized DDPG search    |

use autohet::prelude::*;
use autohet_obs::{Registry, Series};
use autohet_rl::{DdpgConfig, DqnConfig};
use std::fs;
use std::path::PathBuf;
use std::sync::Arc;

fn main() {
    let mut smoke = false;
    let mut alerts = false;
    let mut out = PathBuf::from("target/obs_dump");
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--smoke" => smoke = true,
            "--alerts" => alerts = true,
            "--out" => out = PathBuf::from(args.next().expect("--out needs a directory")),
            other => panic!("unknown flag {other:?} (expected --smoke / --alerts / --out DIR)"),
        }
    }
    fs::create_dir_all(&out).expect("create output directory");

    let tracer = autohet_obs::trace::global();
    tracer.enable(1 << 16);
    let mut registry = Registry::new();

    let model = if smoke {
        autohet_dnn::zoo::micro_cnn()
    } else {
        autohet_dnn::zoo::vgg16()
    };
    let episodes = if smoke { 10 } else { 100 };
    let cfg = AccelConfig::default().with_tile_sharing();
    let cands = paper_hybrid_candidates();
    let engine = Arc::new(EvalEngine::new(model.clone(), cfg));
    println!(
        "obs_dump: {} | {} episodes/driver | out: {}\n",
        model.name,
        episodes,
        out.display()
    );

    // One episode table for all drivers, tagged by a driver column so the
    // trajectories can be overlaid directly.
    let mut columns = vec![("driver", "")];
    columns.extend_from_slice(&EPISODE_COLUMNS);
    let mut episodes_table = Series::new("search_episodes", &columns);
    let mut add_rows = |driver: usize, history: &[EpisodeRecord]| {
        for cells in episode_series("", history).rows {
            let mut row = vec![driver as f64];
            row.extend(cells);
            episodes_table.push(row);
        }
    };

    // --- DDPG (the paper's search) -------------------------------------
    let scfg = RlSearchConfig {
        episodes,
        ddpg: DdpgConfig {
            seed: 7,
            hidden: 32,
            batch: 32,
            ..DdpgConfig::default()
        },
        train_steps: 4,
        ..RlSearchConfig::default()
    };
    let (ddpg, _) = rl_search_vec_with_stats(&model, &cands, &cfg, &scfg, 1, engine.clone());
    println!(
        "ddpg      best RUE {:.4}  cache: {}",
        ddpg.best_rue(),
        ddpg.timing.cache
    );
    publish_episode_history(&ddpg.history, &ddpg.timing, &mut registry, "search.ddpg");
    add_rows(0, &ddpg.history);

    // --- Vectorized DDPG (lockstep batched driver, DESIGN.md §10) ------
    let lanes = 4;
    let (vec_ddpg, vec_stats) =
        rl_search_vec_with_stats(&model, &cands, &cfg, &scfg, lanes, engine.clone());
    println!(
        "ddpg-vec{} best RUE {:.4}  {:.0} eps/s  occupancy {:.2}",
        lanes,
        vec_ddpg.best_rue(),
        vec_stats.episodes_per_sec,
        vec_stats.mean_occupancy
    );
    publish_episode_history(
        &vec_ddpg.history,
        &vec_ddpg.timing,
        &mut registry,
        "search.ddpg_vec",
    );
    publish_vec_search(&vec_stats, &mut registry, "search.ddpg_vec");
    let vec_groups = vec_occupancy_series("vec_groups", &vec_stats);

    // --- DQN (discrete-action ablation) --------------------------------
    let dcfg = DqnSearchConfig {
        episodes,
        dqn: DqnConfig {
            seed: 7,
            hidden: 32,
            batch: 32,
            ..DqnConfig::default()
        },
        train_steps: 4,
    };
    let dqn = dqn_search_with_engine(&model, &cands, &cfg, &dcfg, engine.clone());
    println!(
        "dqn       best RUE {:.4}  cache: {}",
        dqn.best_rue(),
        dqn.timing.cache
    );
    publish_episode_history(&dqn.history, &dqn.timing, &mut registry, "search.dqn");
    add_rows(1, &dqn.history);

    // --- Simulated annealing -------------------------------------------
    let acfg = AnnealingConfig {
        iterations: episodes,
        seed: 7,
        ..AnnealingConfig::default()
    };
    let sa = annealing_search_with_engine(&engine, &cands, &acfg);
    println!(
        "annealing best RUE {:.4}  cache: {}",
        sa.best_rue(),
        sa.timing.cache
    );
    publish_episode_history(&sa.history, &sa.timing, &mut registry, "search.annealing");
    add_rows(2, &sa.history);

    // --- Greedy comparators (no trajectory, cache delta only) ----------
    let gu = greedy_utilization_with_engine(&engine, &cands);
    println!(
        "greedy-u  RUE      {:.4}  cache: {}",
        gu.rue(),
        gu.timing.cache
    );
    let gr = greedy_layerwise_rue_with_engine(&engine, &cands);
    println!(
        "greedy-r  RUE      {:.4}  cache: {}",
        gr.rue(),
        gr.timing.cache
    );

    // Engine totals across the whole sweep.
    let totals = engine.stats();
    println!("engine    totals          cache: {totals}");
    totals.publish(&mut registry, "engine");

    // --- Serving window on the best searched strategy ------------------
    let d = Deployment::compile(&model.name, &model, &ddpg.best_strategy, &cfg);
    let rate = 0.7 * d.max_rate_rps();
    let slo = (8.0 * d.pipeline.fill_ns) as u64;
    let tenants = vec![TenantSpec::new(&model.name, d, rate, slo)];
    let requests = if smoke { 300.0 } else { 2_000.0 };
    let wl = Workload {
        seed: 7,
        horizon_ns: (requests / rate * 1e9) as u64,
    };
    let serve_cfg = ShardConfig {
        epochs: 8,
        ..ShardConfig::default()
    };
    let report = run_sharded(&tenants, &wl, &serve_cfg);
    println!(
        "serving   {} completed / {} rejected over {} windows",
        report.total_completed,
        report.total_rejected,
        report.windows.len()
    );
    publish_report(&report, &mut registry, "serve");
    let windows = window_series(&report);

    // --- Alerting demo (--alerts) ----------------------------------------
    //
    // A second serving run engineered to exercise the full alert state
    // machine: an opening overload burst drives the SLO burn-rate rule
    // through pending → firing, the post-burst recovery resolves it, and
    // conductance drift on two replicas lands trip/recal annotations on
    // the same timeline. Beside it, the vectorized search's finished
    // history is written out and checked for reward stalls.
    if alerts {
        let d = Deployment::compile(&model.name, &model, &ddpg.best_strategy, &cfg);
        let replicas = 2;
        let rate = 0.7 * replicas as f64 * d.max_rate_rps();
        let slo = (8.0 * d.pipeline.fill_ns) as u64;
        let horizon_ns = (requests / rate * 1e9) as u64;
        let burst = BurstSpec {
            period_ns: horizon_ns,
            burst_ns: horizon_ns / 3,
            factor: 3.0,
        };
        let tenants = vec![TenantSpec::new(&model.name, d, rate, slo).with_burst(burst)];
        let wl = Workload {
            seed: 7,
            horizon_ns,
        };
        let alert_cfg = ShardConfig {
            replicas_per_shard: replicas,
            epochs: 24,
            health: Some(HealthSpec {
                err_ppm_per_ms: 30_000,
                ..HealthSpec::default()
            }),
            ..ShardConfig::default()
        };
        let overload = run_sharded(&tenants, &wl, &alert_cfg);
        let timeline = alert_timeline(&overload, None);
        println!(
            "alerts    {} events ({} firing, {} resolved) over {} windows, {} health events",
            timeline.events.len(),
            timeline.count(autohet_obs::AlertKind::Firing),
            timeline.count(autohet_obs::AlertKind::Resolved),
            overload.windows.len(),
            overload.health_events.len()
        );
        let path = out.join("alerts.jsonl");
        fs::write(&path, timeline.to_jsonl())
            .unwrap_or_else(|e| panic!("write {}: {e}", path.display()));
        println!("wrote {}", path.display());
        let path = out.join("alerts.csv");
        fs::write(&path, timeline.to_csv())
            .unwrap_or_else(|e| panic!("write {}: {e}", path.display()));
        println!("wrote {}", path.display());

        let stalls = stall_timeline(&vec_ddpg.history, (episodes.max(8) / 4) as u64, 1e-9);
        println!(
            "stalls    {} stall alerts over {} episodes",
            stalls.for_rule(REWARD_STALL_RULE).len(),
            vec_ddpg.history.len()
        );
        let path = out.join("vec_episodes.jsonl");
        fs::write(
            &path,
            episode_series("vec_episodes", &vec_ddpg.history).to_jsonl(),
        )
        .unwrap_or_else(|e| panic!("write {}: {e}", path.display()));
        println!("wrote {}", path.display());
    }

    // --- Export every artifact -----------------------------------------
    tracer.disable();
    let events = tracer.drain();
    let write = |name: &str, data: String| {
        let path = out.join(name);
        fs::write(&path, data).unwrap_or_else(|e| panic!("write {}: {e}", path.display()));
        println!("wrote {}", path.display());
    };
    println!(
        "\ntrace: {} spans recorded, {} dropped",
        events.len(),
        tracer.dropped()
    );
    write("trace.jsonl", autohet_obs::trace::to_jsonl(&events));
    write("trace.collapsed", autohet_obs::trace::collapsed(&events));
    write("metrics.txt", registry.to_text());
    write("metrics.jsonl", registry.to_jsonl());
    write("search_episodes.csv", episodes_table.to_csv());
    write("search_episodes.jsonl", episodes_table.to_jsonl());
    write("vec_groups.csv", vec_groups.to_csv());
    write("vec_groups.jsonl", vec_groups.to_jsonl());
    write("serving_windows.csv", windows.to_csv());
    write("serving_windows.jsonl", windows.to_jsonl());
}

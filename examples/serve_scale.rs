//! Sharded serving runtime at production scale: a simulated day of
//! traffic from a 120-tenant fleet through [`run_sharded`], comparing
//! the O(log) heap scheduler at 8 shards against the 1-shard
//! linear-scan reference, then two short engineered scenarios that
//! demonstrate the telemetry-driven autoscaler (burst → scale up →
//! drain) and the online strategy swap (drifting mix → remap, zero
//! lost requests).
//!
//! ```sh
//! cargo run --release -p autohet --example serve_scale -- --out target/serve_scale
//! # small fleet + short horizon, used by scripts/check.sh and CI:
//! cargo run --release -p autohet --example serve_scale -- --smoke --out target/serve_smoke
//! ```
//!
//! Written into `--out`:
//!
//! | file                  | contents                                      |
//! |-----------------------|-----------------------------------------------|
//! | `summary.txt`         | grep-able scenario outcomes (one `key: value` per line) |
//! | `shard_windows.csv`   | per-epoch telemetry of the burst scenario     |
//! | `shard_windows.jsonl` | same rows as JSON Lines                       |
//! | `shard_alerts.jsonl`  | alert timeline with the autoscaler's own rules |
//! | `shard_alerts.csv`    | same timeline as CSV                          |
//! | `metrics.txt`         | metrics table of both runs                    |

use autohet::prelude::*;
use std::fmt::Write as _;
use std::fs;
use std::path::PathBuf;
use std::time::Instant;

/// A mixed fleet: three compiled deployments cloned across `n` tenants,
/// weights cycling 1/2/4/8, every third tenant with a rush-hour burst.
fn fleet(n: usize, horizon_ns: u64, target_requests: f64) -> Vec<TenantSpec> {
    let cfg = AccelConfig::default();
    let lenet = autohet_dnn::zoo::lenet5();
    let micro = autohet_dnn::zoo::micro_cnn();
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
    let secs = horizon_ns as f64 / 1e9;
    let rate = target_requests / secs / n as f64;
    (0..n)
        .map(|i| {
            let d = deployments[i % deployments.len()].clone();
            let slo = (8.0 * d.pipeline.fill_ns) as u64;
            let mut t =
                TenantSpec::new(&format!("tenant-{i:03}"), d, rate, slo).with_weight(1 << (i % 4));
            if i % 3 == 0 {
                t = t.with_burst(BurstSpec {
                    period_ns: horizon_ns,
                    burst_ns: horizon_ns / 6,
                    factor: 3.0,
                });
            }
            t
        })
        .collect()
}

fn main() {
    let mut smoke = false;
    let mut out = PathBuf::from("target/serve_scale");
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--smoke" => smoke = true,
            "--out" => out = PathBuf::from(args.next().expect("--out needs a directory")),
            other => panic!("unknown flag {other:?} (expected --smoke / --out DIR)"),
        }
    }
    fs::create_dir_all(&out).expect("create output directory");
    let mut registry = autohet_obs::Registry::new();
    let mut summary = String::new();

    // --- A simulated day at fleet scale --------------------------------
    //
    // 120 tenants, ~1.2M requests over 24h of virtual time. The same
    // workload runs through the 1-shard linear-scan reference and the
    // 8-shard heap scheduler; both produce a full report (the modes are
    // bit-identical at equal shard counts — property-tested), so the
    // wall-clock ratio isolates the scheduler's algorithmic cost.
    let (n_tenants, horizon_ns, target) = if smoke {
        (12, 4_320_000_000_000, 10_000.0) // 72 virtual minutes
    } else {
        (120, 86_400_000_000_000, 1_200_000.0) // 24 virtual hours
    };
    let tenants = fleet(n_tenants, horizon_ns, target);
    let wl = Workload {
        seed: 2024,
        horizon_ns,
    };
    let total_replicas = 8;
    let scan1 = ShardConfig {
        shards: 1,
        replicas_per_shard: total_replicas,
        ..ShardConfig::default()
    };
    let heap8 = ShardConfig {
        shards: 8,
        replicas_per_shard: total_replicas / 8,
        ..ShardConfig::default()
    };
    println!(
        "serve_scale: {} tenants, {} virtual hours, target ~{:.0}k requests",
        n_tenants,
        horizon_ns / 3_600_000_000_000,
        target / 1e3
    );

    let t0 = Instant::now();
    let ref_report = run_sharded_reference(&tenants, &wl, &scan1);
    let scan1_s = t0.elapsed().as_secs_f64();
    let t0 = Instant::now();
    let day = run_sharded(&tenants, &wl, &heap8);
    let heap8_s = t0.elapsed().as_secs_f64();
    let speedup = scan1_s / heap8_s;
    assert_eq!(day.lost_requests(), 0);
    assert_eq!(ref_report.lost_requests(), 0);
    assert_eq!(
        day.total_submitted, ref_report.total_submitted,
        "identical arrivals regardless of sharding"
    );
    println!("  scan/1-shard: {scan1_s:.2}s   heap/8-shard: {heap8_s:.2}s   speedup {speedup:.2}x");
    println!(
        "  {} submitted, {} completed, {} rejected, fairness {:.3}",
        day.total_submitted, day.total_completed, day.total_rejected, day.fairness_index
    );
    publish_report(&day, &mut registry, "serve_scale.day");
    writeln!(summary, "requests: {}", day.total_submitted).unwrap();
    writeln!(summary, "tenants: {n_tenants}").unwrap();
    writeln!(summary, "scan1_wall_s: {scan1_s:.3}").unwrap();
    writeln!(summary, "heap8_wall_s: {heap8_s:.3}").unwrap();
    writeln!(summary, "speedup_heap8_vs_scan1: {speedup:.2}").unwrap();
    let ns_per_event = heap8_s * 1e9 / day.scheduler_events() as f64;
    writeln!(summary, "heap8_ns_per_event: {ns_per_event:.0}").unwrap();
    writeln!(summary, "day_fairness_index: {:.4}", day.fairness_index).unwrap();

    // --- Burst → autoscaler reacts → drain ------------------------------
    //
    // A tenant slams its shard with a 6x burst; the alert engine's
    // queue-depth rules walk pending → firing, replicas are added to the
    // hot shard, and once the burst passes the drain rule retires them.
    let micro = {
        let cfg = AccelConfig::default();
        let m = autohet_dnn::zoo::micro_cnn();
        Deployment::compile(
            "micro/sq128",
            &m,
            &vec![XbarShape::square(128); m.layers.len()],
            &cfg,
        )
    };
    let rate = 0.9 * micro.max_rate_rps();
    let slo = (10.0 * micro.pipeline.fill_ns) as u64;
    let burst_tenants = vec![TenantSpec::new("hot", micro.clone(), rate, slo)
        .with_burst(BurstSpec {
            period_ns: 200_000_000,
            burst_ns: 60_000_000,
            factor: 6.0,
        })
        .with_weight(2)];
    let burst_wl = Workload {
        seed: 9,
        horizon_ns: 200_000_000,
    };
    let autoscale = AutoscaleSpec {
        high_depth: 12.0,
        low_depth: 2.0,
        for_epochs: 2,
        clear_epochs: 2,
        min_replicas: 1,
        max_replicas: 8,
        cooldown_epochs: 0,
    };
    let burst_cfg = ShardConfig {
        shards: 1,
        epochs: 40,
        queue_depth: 512,
        autoscale: Some(autoscale),
        ..ShardConfig::default()
    };
    let burst = run_sharded(&burst_tenants, &burst_wl, &burst_cfg);
    let ups = burst.scale_events.iter().filter(|e| e.up).count();
    let downs = burst.scale_events.iter().filter(|e| !e.up).count();
    println!(
        "  burst: {} scale-ups, {} scale-downs, replicas {} -> peak {} -> {}",
        ups, downs, burst.replicas_initial, burst.replicas_peak, burst.replicas_final
    );
    assert!(ups >= 1 && downs >= 1, "autoscaler failed to react");
    publish_report(&burst, &mut registry, "serve_scale.burst");
    writeln!(summary, "scale_up_events: {ups}").unwrap();
    writeln!(summary, "scale_down_events: {downs}").unwrap();
    writeln!(summary, "replicas_peak: {}", burst.replicas_peak).unwrap();

    // --- Drifting mix → online strategy swap ----------------------------
    //
    // One tenant's arrival share ramps 8x past its long-run share; the
    // barrier remaps it onto its alternative strategy after in-flight
    // batches drain. Every admitted request still completes.
    let lenet = {
        let cfg = AccelConfig::default();
        let m = autohet_dnn::zoo::lenet5();
        Deployment::compile(
            "lenet/sq128",
            &m,
            &vec![XbarShape::square(128); m.layers.len()],
            &cfg,
        )
    };
    let alt = {
        let cfg = AccelConfig::default();
        let m = autohet_dnn::zoo::lenet5();
        Deployment::compile(
            "lenet/wide",
            &m,
            &vec![XbarShape::new(256, 128); m.layers.len()],
            &cfg,
        )
    };
    let slo = (12.0 * lenet.pipeline.fill_ns) as u64;
    let drift_tenants = vec![
        TenantSpec::new("drifter", lenet, 0.2 * micro.max_rate_rps(), slo)
            .with_ramp(RampSpec {
                start_ns: 20_000_000,
                end_ns: 60_000_000,
                to_factor: 8.0,
            })
            .with_alt(alt),
        TenantSpec::new("steady", micro.clone(), 0.4 * micro.max_rate_rps(), slo),
    ];
    let drift_wl = Workload {
        seed: 21,
        horizon_ns: 120_000_000,
    };
    let drift_cfg = ShardConfig {
        shards: 2,
        epochs: 24,
        queue_depth: 4096,
        swap: Some(SwapSpec {
            share_factor: 1.5,
            min_epoch_requests: 16,
            remap_ns: 2_000_000,
        }),
        ..ShardConfig::default()
    };
    let drift = run_sharded(&drift_tenants, &drift_wl, &drift_cfg);
    println!(
        "  drift: {} swap(s) at t={:?}, lost {}",
        drift.swap_events.len(),
        drift.swap_events.iter().map(|e| e.t_ns).collect::<Vec<_>>(),
        drift.lost_requests()
    );
    assert!(
        !drift.swap_events.is_empty(),
        "drift failed to trigger swap"
    );
    assert_eq!(drift.lost_requests(), 0);
    writeln!(summary, "swap_events: {}", drift.swap_events.len()).unwrap();
    let lost = day
        .lost_requests()
        .max(burst.lost_requests())
        .max(drift.lost_requests());
    writeln!(summary, "lost_requests: {lost}").unwrap();

    // --- Artifacts ------------------------------------------------------
    let write = |name: &str, data: String| {
        let path = out.join(name);
        fs::write(&path, data).unwrap_or_else(|e| panic!("write {}: {e}", path.display()));
        println!("wrote {}", path.display());
    };
    let windows = window_series(&burst);
    let timeline = alert_timeline(&burst, Some(&autoscale));
    println!(
        "  timeline: {} events ({} firing, {} resolved)",
        timeline.events.len(),
        timeline.count(autohet_obs::AlertKind::Firing),
        timeline.count(autohet_obs::AlertKind::Resolved)
    );
    write("summary.txt", summary);
    write("shard_windows.csv", windows.to_csv());
    write("shard_windows.jsonl", windows.to_jsonl());
    write("shard_alerts.jsonl", timeline.to_jsonl());
    write("shard_alerts.csv", timeline.to_csv());
    write("metrics.txt", registry.to_text());
}

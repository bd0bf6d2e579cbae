//! Bridges from serving reports to the `autohet-obs` substrate:
//! per-window telemetry as a [`Series`] table ([`window_series`]), run
//! totals mirrored into a metrics [`Registry`] ([`publish_report`]), and
//! the report's window stream evaluated through the deterministic alert
//! engine ([`alert_timeline`]).

use crate::shard::{autoscale_rules, AutoscaleSpec, ShardServingReport, ShardStats};
use autohet_obs::alert::{AlertEngine, AlertRule, AlertTimeline, BurnRateRule, ThresholdRule};
use autohet_obs::{Registry, Series};

/// Column schema of [`window_series`] (name, unit), kept in one place so
/// docs and exporters cannot drift apart.
pub const WINDOW_COLUMNS: [(&str, &str); 14] = [
    ("window", ""),
    ("start", "ns"),
    ("end", "ns"),
    ("submitted", "req"),
    ("rejected", "req"),
    ("completed", "req"),
    ("batches", ""),
    ("mean_batch_size", "req"),
    ("batch_occupancy", ""),
    ("slo_attainment", ""),
    ("mean_queue_depth", "req"),
    ("peak_queue_depth", "req"),
    ("downtime", "ns"),
    ("fairness", ""),
];

/// The report's per-window telemetry as a time-series table: one row per
/// [`WindowStats`](crate::report::WindowStats) (one per epoch), columns
/// per [`WINDOW_COLUMNS`].
pub fn window_series(report: &ShardServingReport) -> Series {
    let mut s = Series::new("serving_windows", &WINDOW_COLUMNS);
    for w in &report.windows {
        s.push(vec![
            w.index as f64,
            w.start_ns as f64,
            w.end_ns as f64,
            w.submitted as f64,
            w.rejected as f64,
            w.completed as f64,
            w.batches as f64,
            w.mean_batch_size,
            w.batch_occupancy,
            w.slo_attainment,
            w.mean_queue_depth,
            w.peak_queue_depth as f64,
            w.downtime_ns as f64,
            w.fairness_index,
        ]);
    }
    s
}

/// Mirror a serving run's totals into `registry` under `prefix`:
/// request/batch counters, steal/scale/swap event counters, replica
/// gauges, and the merged latency distribution as a `{prefix}.latency_ns`
/// histogram (same log₂ binning on both sides).
pub fn publish_report(report: &ShardServingReport, registry: &Registry, prefix: &str) {
    let c = |name: &str, v: u64| registry.counter(&format!("{prefix}.{name}")).add(v);
    c("submitted", report.total_submitted);
    c("completed", report.total_completed);
    c("rejected", report.total_rejected);
    c("failed", report.total_failed);
    c("retried", report.total_retried);
    c("batches", report.batches);
    c("steals", report.steal_events.len() as u64);
    c("swaps", report.swap_events.len() as u64);
    c(
        "scale_ups",
        report.scale_events.iter().filter(|e| e.up).count() as u64,
    );
    c(
        "scale_downs",
        report.scale_events.iter().filter(|e| !e.up).count() as u64,
    );
    let shards = |f: fn(&ShardStats) -> u64| report.shard_stats.iter().map(f).sum();
    c("ingested", shards(|s| s.ingested));
    c("drr_rotations", shards(|s| s.drr_rotations));
    c("failovers", shards(|s| s.failovers));
    registry
        .gauge(&format!("{prefix}.shards"))
        .set(report.shards as i64);
    registry
        .gauge(&format!("{prefix}.replicas"))
        .set(report.replicas_final as i64);
    registry
        .histogram(&format!("{prefix}.latency_ns"))
        .merge_bins(&report.overall_histogram().bins);
}

/// SLO attainment target per window; the burn-rate rule watches the error
/// fraction `1 − slo_attainment` against budget `1 − target`.
const SLO_TARGET: f64 = 0.95;
/// Burn-rate multiple that fires the SLO rule.
const BURN_FACTOR: f64 = 2.0;
/// Fast and slow burn windows \[telemetry windows\].
const BURN_WINDOWS: (usize, usize) = (1, 4);
/// Mean aggregate queue depth above which the saturation rule trips.
const QUEUE_DEPTH_LIMIT: f64 = 32.0;
/// Clean windows before a firing rule resolves.
const CLEAR_WINDOWS: usize = 2;

/// Names of the rules [`alert_timeline`] installs.
pub const SLO_BURN_RULE: &str = "serve.slo_burn";
/// See [`SLO_BURN_RULE`].
pub const QUEUE_SATURATION_RULE: &str = "serve.queue_saturation";
/// See [`SLO_BURN_RULE`].
pub const DOWNTIME_RULE: &str = "serve.downtime";

/// Evaluate a serving report's telemetry windows through the
/// deterministic alert engine and return the resulting timeline.
///
/// Three rules with fixed thresholds watch the windows: SLO burn rate,
/// queue saturation and replica downtime. Each
/// [`WindowStats`](crate::report::WindowStats) is observed at its
/// `end_ns` with the window's SLO error fraction, its time-weighted mean
/// aggregate queue depth, its replica downtime and the epoch's
/// [`EpochSignal`]. With `autoscale`
/// set, the *exact* autoscaler rules are replayed over the recorded
/// signals (the runtime recorded its own inputs, so the replay's
/// pending → firing → resolved transitions match what the autoscaler
/// acted on, barrier for barrier). Every [`HealthEvent`] lands on the
/// same timeline as an annotation (`health.trip`, `health.recal`, …,
/// carrying the replica id as the value), and so do scaling, stealing
/// and swap events (`scale.up`, `scale.down`, `steal`, `swap`). Because
/// the evaluation runs over the finished report on simulated time only,
/// the timeline is bit-identical across runs and drivers, and producing
/// it cannot change the report.
///
/// [`EpochSignal`]: crate::shard::EpochSignal
/// [`HealthEvent`]: crate::sim::HealthEvent
pub fn alert_timeline(
    report: &ShardServingReport,
    autoscale: Option<&AutoscaleSpec>,
) -> AlertTimeline {
    let mut engine = AlertEngine::new()
        .with_rule(AlertRule::BurnRate(
            BurnRateRule::new(SLO_BURN_RULE, "err_frac", SLO_TARGET, BURN_FACTOR)
                .windows(BURN_WINDOWS.0, BURN_WINDOWS.1)
                .clear_samples(CLEAR_WINDOWS),
        ))
        .with_rule(AlertRule::Threshold(
            ThresholdRule::above(QUEUE_SATURATION_RULE, "mean_queue_depth", QUEUE_DEPTH_LIMIT)
                .clear_samples(CLEAR_WINDOWS),
        ))
        .with_rule(AlertRule::Threshold(
            ThresholdRule::above(DOWNTIME_RULE, "downtime_ns", 0.0).clear_samples(CLEAR_WINDOWS),
        ));
    if let Some(spec) = autoscale {
        for rule in autoscale_rules(spec) {
            engine.add_rule(rule);
        }
    }
    for (w, sig) in report.windows.iter().zip(&report.epoch_signals) {
        engine.observe(
            w.end_ns,
            &[
                ("err_frac", 1.0 - w.slo_attainment),
                ("mean_queue_depth", w.mean_queue_depth),
                ("downtime_ns", w.downtime_ns as f64),
                ("epoch_queue_depth", sig.mean_queue_depth),
            ],
        );
    }
    for e in &report.health_events {
        engine.annotate(
            e.t_ns,
            &format!("health.{}", e.kind.label()),
            e.replica as f64,
        );
    }
    for e in &report.scale_events {
        let label = if e.up { "scale.up" } else { "scale.down" };
        engine.annotate(e.t_ns, label, e.active_after as f64);
    }
    for e in &report.steal_events {
        engine.annotate(e.t_ns, "steal", e.tenant as f64);
    }
    for e in &report.swap_events {
        engine.annotate(e.t_ns, "swap", e.tenant as f64);
    }
    engine.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::deploy::Deployment;
    use crate::report::{LatencyHistogram, WindowStats};
    use crate::shard::{run_sharded, EpochSignal, ShardConfig};
    use crate::sim::{HealthEvent, HealthEventKind, HealthSpec};
    use crate::workload::{TenantSpec, Workload};
    use autohet_accel::AccelConfig;
    use autohet_dnn::zoo;
    use autohet_xbar::XbarShape;

    fn lenet_tenant(load: f64) -> TenantSpec {
        let m = zoo::lenet5();
        let strategy = vec![XbarShape::square(128); m.layers.len()];
        let d = Deployment::compile("lenet", &m, &strategy, &AccelConfig::default());
        let rate = load * d.max_rate_rps();
        let slo = (8.0 * d.pipeline.fill_ns) as u64;
        TenantSpec::new("lenet", d, rate, slo)
    }

    fn report(epochs: usize) -> ShardServingReport {
        let tenants = vec![lenet_tenant(0.7)];
        let wl = Workload {
            seed: 7,
            horizon_ns: (1_000.0 / tenants[0].rate_rps * 1e9) as u64,
        };
        let cfg = ShardConfig {
            epochs,
            ..ShardConfig::default()
        };
        run_sharded(&tenants, &wl, &cfg)
    }

    #[test]
    fn windows_partition_the_run() {
        let r = report(8);
        assert_eq!(r.windows.len(), 8);
        // Window accounting conserves the run totals.
        let submitted: u64 = r.windows.iter().map(|w| w.submitted).sum();
        let rejected: u64 = r.windows.iter().map(|w| w.rejected).sum();
        let completed: u64 = r.windows.iter().map(|w| w.completed).sum();
        let batches: u64 = r.windows.iter().map(|w| w.batches).sum();
        assert_eq!(submitted, r.tenants[0].submitted);
        assert_eq!(rejected, r.total_rejected);
        assert_eq!(completed, r.total_completed);
        assert_eq!(batches, r.batches);
        // Window histograms merge to the overall distribution.
        let mut merged = LatencyHistogram::new();
        for w in &r.windows {
            merged.merge(&w.histogram);
        }
        assert_eq!(merged, r.overall_histogram());
        // Windows tile [0, horizon) contiguously.
        for (i, w) in r.windows.iter().enumerate() {
            assert_eq!(w.index, i);
            assert_eq!(w.end_ns - w.start_ns, r.windows[0].end_ns);
            if i > 0 {
                assert_eq!(w.start_ns, r.windows[i - 1].end_ns);
            }
            assert!(w.slo_attainment >= 0.0 && w.slo_attainment <= 1.0);
            assert!(w.batch_occupancy >= 0.0 && w.batch_occupancy <= 1.0);
            assert!(w.mean_queue_depth >= 0.0);
        }
    }

    #[test]
    fn window_telemetry_does_not_perturb_the_rest_of_the_report() {
        // Without coupling mechanisms, epochs only cut the accounting.
        let one = report(1);
        let eight = report(8);
        assert_eq!(one.windows.len(), 1);
        assert_eq!(one.tenants, eight.tenants);
        assert_eq!(one.batches, eight.batches);
        assert_eq!(one.makespan_ns, eight.makespan_ns);
        assert_eq!(one.total_energy_nj, eight.total_energy_nj);
    }

    #[test]
    fn series_has_one_row_per_window() {
        let r = report(6);
        let s = window_series(&r);
        assert_eq!(s.len(), 6);
        assert_eq!(s.columns.len(), WINDOW_COLUMNS.len());
        let csv = s.to_csv();
        assert!(csv.starts_with("window,start[ns],end[ns],"));
        assert_eq!(csv.lines().count(), 7);
        assert_eq!(s.to_jsonl().lines().count(), 6);
    }

    #[test]
    fn publish_mirrors_totals_and_latencies() {
        let r = report(4);
        let reg = Registry::new();
        publish_report(&r, &reg, "serve");
        assert_eq!(reg.counter("serve.completed").get(), r.total_completed);
        assert_eq!(reg.counter("serve.batches").get(), r.batches);
        assert_eq!(reg.counter("serve.ingested").get(), r.total_submitted);
        let rotations = r.shard_stats.iter().map(|s| s.drr_rotations).sum::<u64>();
        assert_eq!(reg.counter("serve.drr_rotations").get(), rotations);
        assert_eq!(reg.counter("serve.failovers").get(), 0);
        assert_eq!(reg.gauge("serve.replicas").get(), r.replicas_final as i64);
        let h = reg.histogram("serve.latency_ns");
        assert_eq!(h.count(), r.total_completed);
        assert_eq!(h.bins(), r.overall_histogram().bins);
    }

    /// A report skeleton with hand-written windows, for driving the alert
    /// rules through exact signal sequences.
    fn synthetic_report(windows: Vec<WindowStats>) -> ShardServingReport {
        let mut r = report(1);
        r.epoch_signals = windows
            .iter()
            .map(|w| EpochSignal {
                t_ns: w.end_ns,
                mean_queue_depth: w.mean_queue_depth,
                slo_attainment: w.slo_attainment,
                backlog: 0,
            })
            .collect();
        r.windows = windows;
        r.health_events.clear();
        r
    }

    fn win(index: usize, slo_attainment: f64, depth: f64) -> WindowStats {
        WindowStats {
            index,
            start_ns: index as u64 * 1_000,
            end_ns: (index as u64 + 1) * 1_000,
            submitted: 10,
            rejected: 0,
            completed: 10,
            batches: 2,
            mean_batch_size: 5.0,
            batch_occupancy: 0.6,
            slo_attainment,
            mean_queue_depth: depth,
            peak_queue_depth: depth.ceil() as u64,
            downtime_ns: 0,
            fairness_index: 1.0,
            histogram: LatencyHistogram::new(),
        }
    }

    fn timeline(windows: Vec<WindowStats>) -> AlertTimeline {
        alert_timeline(&synthetic_report(windows), None)
    }

    #[test]
    fn slo_burn_fires_under_sustained_violation_and_resolves() {
        // Healthy, then four windows at 60% attainment (err 0.4, budget
        // 0.05 → burn 8 ≥ 2), then healthy again.
        let mut windows = vec![win(0, 1.0, 1.0), win(1, 1.0, 1.0)];
        for i in 2..6 {
            windows.push(win(i, 0.6, 1.0));
        }
        for i in 6..10 {
            windows.push(win(i, 1.0, 1.0));
        }
        let t = timeline(windows);
        let slo = t.for_rule(SLO_BURN_RULE);
        let kinds: Vec<&str> = slo.iter().map(|e| e.kind.label()).collect();
        assert_eq!(kinds, ["firing", "resolved"]);
        // Fired at the end of the first bad window, resolved two clean
        // windows after the violation stopped.
        assert_eq!(slo[0].t_ns, 3_000);
        assert!(slo[1].t_ns > slo[0].t_ns);
        // Queue depth stayed calm: no saturation events.
        assert!(t.for_rule(QUEUE_SATURATION_RULE).is_empty());
    }

    #[test]
    fn queue_saturation_rule_watches_mean_depth() {
        let windows = vec![
            win(0, 1.0, 2.0),
            win(1, 1.0, 50.0),
            win(2, 1.0, 40.0),
            win(3, 1.0, 1.0),
            win(4, 1.0, 1.0),
        ];
        let t = timeline(windows);
        let sat = t.for_rule(QUEUE_SATURATION_RULE);
        let kinds: Vec<&str> = sat.iter().map(|e| e.kind.label()).collect();
        assert_eq!(kinds, ["firing", "resolved"]);
        assert_eq!(sat[0].t_ns, 2_000);
        assert_eq!(sat[0].value, 50.0);
        assert_eq!(sat[1].t_ns, 5_000);
    }

    #[test]
    fn health_events_become_annotations_on_the_timeline() {
        let mut r = synthetic_report(vec![win(0, 1.0, 1.0)]);
        r.health_events = vec![
            HealthEvent {
                t_ns: 400,
                shard: 0,
                replica: 2,
                kind: HealthEventKind::Trip,
            },
            HealthEvent {
                t_ns: 700,
                shard: 0,
                replica: 2,
                kind: HealthEventKind::Recal,
            },
        ];
        let t = alert_timeline(&r, None);
        let trips = t.for_rule("health.trip");
        assert_eq!(trips.len(), 1);
        assert_eq!(trips[0].t_ns, 400);
        assert_eq!(trips[0].value, 2.0);
        assert_eq!(t.for_rule("health.recal").len(), 1);
        // Annotations sort into the timeline before the window sample.
        assert_eq!(t.events[0].t_ns, 400);
    }

    #[test]
    fn real_run_alert_timeline_is_deterministic_and_records_recovery() {
        let tenants = vec![lenet_tenant(0.7)];
        let wl = Workload {
            seed: 7,
            horizon_ns: (2_000.0 / tenants[0].rate_rps * 1e9) as u64,
        };
        let cfg = ShardConfig {
            replicas_per_shard: 2,
            epochs: 8,
            health: Some(HealthSpec {
                err_ppm_per_ms: 30_000,
                ..HealthSpec::default()
            }),
            ..ShardConfig::default()
        };
        let single = run_sharded(&tenants, &wl, &cfg);
        assert!(
            !single.health_events.is_empty(),
            "drift config too tame to produce health events"
        );
        let t1 = alert_timeline(&single, None);
        let t2 = alert_timeline(&run_sharded(&tenants, &wl, &cfg), None);
        assert_eq!(t1, t2, "identical runs must yield identical timelines");
        let tp = alert_timeline(
            &crate::parallel::run_sharded_threaded(&tenants, &wl, &cfg, 2),
            None,
        );
        assert_eq!(t1, tp, "drivers must agree on the alert timeline");
        assert!(!t1.for_rule("health.trip").is_empty());
        // Timestamps are sorted.
        assert!(t1.events.windows(2).all(|p| p[0].t_ns <= p[1].t_ns));
    }
}

//! Golden fleet-shaped runs of the sharded serving runtime (DESIGN.md
//! §14). The heap, linear-scan and threaded drivers share the shards'
//! tenant storage, so a bug there moves all three together and the
//! equality tests cannot see it; these pins can.
//!
//! - `fleet_run_is_pinned` serves the `serve_fleet` benchmark's shape:
//!   120 tenants on 8 shards × 1 replica with work stealing, autoscaling
//!   up to 16 replicas and strategy swap, queue depth 16, 2 s horizon.
//! - `faulty_runs_are_pinned` turns replica failures and drift health on
//!   at 2 shards × 3 replicas and 4 shards × 2 replicas.
//! - `stolen_deficit_run_is_pinned` steals a tenant back and forth
//!   between 2 shards while it carries leftover DRR deficit, which must
//!   travel with it: a migration that dropped the deficit would reorder
//!   the thief's dispatches.
//! - `autoscaled_faulty_run_is_pinned` autoscales 2 shards × 1 replica up
//!   and down while replicas fail and drift, so the replicas it adds
//!   must draw their outages and start their drift clocks at the instant
//!   they join, not at 0.
//!
//! Each run pins the totals, every steal, scale, swap and health event
//! (f64 fields as bits), each shard's stats, each window's counts and an
//! FNV-1a fingerprint of the per-tenant rows in gid order, and asserts
//! that it reaches the paths it exists for. To inspect the current rows,
//! run `cargo test --test golden_serve_shard -- --nocapture`: each test
//! prints the rows it computed before comparing.

use autohet::prelude::*;
use autohet_dnn::Model;

fn compile(name: &str, model: &Model, shape: XbarShape) -> Deployment {
    let strategy = vec![shape; model.layers.len()];
    Deployment::compile(name, model, &strategy, &AccelConfig::default())
}

const FLEET_HORIZON_NS: u64 = 2_000_000_000;

/// The `serve_fleet` benchmark's 120 tenants: three deployments in
/// rotation at 0.6 of 8 replicas' capacity, weights 1/2/4/8, a 3× burst
/// on every third tenant, and a 3× ramp plus an alternative deployment
/// on every eighth.
fn fleet() -> Vec<TenantSpec> {
    const TENANTS: usize = 120;
    let lenet = autohet_dnn::zoo::lenet5();
    let micro = autohet_dnn::zoo::micro_cnn();
    let deployments = [
        compile("lenet/sq128", &lenet, XbarShape::square(128)),
        compile("micro/sq64", &micro, XbarShape::square(64)),
        compile("micro/sq128", &micro, XbarShape::square(128)),
    ];
    let alternates = [
        compile("lenet/sq64", &lenet, XbarShape::square(64)),
        compile("micro/sq128", &micro, XbarShape::square(128)),
        compile("micro/sq64", &micro, XbarShape::square(64)),
    ];
    let mean_service_s = (0..TENANTS)
        .map(|i| 1.0 / deployments[i % 3].max_rate_rps())
        .sum::<f64>()
        / TENANTS as f64;
    let rate = 0.6 * 8.0 / mean_service_s / TENANTS as f64;
    (0..TENANTS)
        .map(|i| {
            let d = &deployments[i % 3];
            let slo = (8.0 * d.pipeline.fill_ns) as u64;
            let mut t = TenantSpec::new(&format!("tenant-{i:03}"), d.clone(), rate, slo)
                .with_weight(1 << (i % 4));
            if i % 3 == 0 {
                t = t.with_burst(BurstSpec {
                    period_ns: FLEET_HORIZON_NS / 2,
                    burst_ns: FLEET_HORIZON_NS / 12,
                    factor: 3.0,
                });
            }
            if i % 8 == 4 {
                t = t
                    .with_ramp(RampSpec {
                        start_ns: FLEET_HORIZON_NS / 4,
                        end_ns: FLEET_HORIZON_NS / 2,
                        to_factor: 3.0,
                    })
                    .with_alt(alternates[i % 3].clone());
            }
            t
        })
        .collect()
}

/// Twelve micro/lenet tenants over capacity, every third one bursty.
fn small_fleet() -> Vec<TenantSpec> {
    let micro = compile(
        "micro",
        &autohet_dnn::zoo::micro_cnn(),
        XbarShape::square(128),
    );
    let lenet = compile("lenet", &autohet_dnn::zoo::lenet5(), XbarShape::square(128));
    (0..12)
        .map(|i| {
            let d = if i % 2 == 0 { &micro } else { &lenet };
            let rate = 0.5 * d.max_rate_rps();
            let slo = (8.0 * d.pipeline.fill_ns) as u64;
            let mut t = TenantSpec::new(&format!("t{i:02}"), d.clone(), rate, slo)
                .with_weight(1 + (i % 4) as u64);
            if i % 3 == 0 {
                t = t.with_burst(BurstSpec {
                    period_ns: 12_000_000,
                    burst_ns: 3_000_000,
                    factor: 4.0,
                });
            }
            t
        })
        .collect()
}

/// One weight-5 tenant at twice one replica's capacity beside five
/// weight-1 tenants at a fifth of it each. On 2 shards × 1 replica the
/// heavy tenant's shard is the only victim, and the heavy tenant is the
/// one stolen; its weight-5 top-ups against 8-request batches leave it
/// mid-turn deficit at most barriers.
fn lopsided_fleet() -> Vec<TenantSpec> {
    let micro = compile(
        "micro",
        &autohet_dnn::zoo::micro_cnn(),
        XbarShape::square(128),
    );
    let lenet = compile("lenet", &autohet_dnn::zoo::lenet5(), XbarShape::square(128));
    (0..6)
        .map(|i| {
            let d = if i % 2 == 0 { &micro } else { &lenet };
            let (load, weight) = if i == 0 { (2.0, 5) } else { (0.2, 1) };
            let slo = (8.0 * d.pipeline.fill_ns) as u64;
            TenantSpec::new(&format!("t{i:02}"), d.clone(), load * d.max_rate_rps(), slo)
                .with_weight(weight)
        })
        .collect()
}

/// Runs all three drivers, asserts they agree bit for bit and returns
/// the report.
fn run_all_drivers(tenants: &[TenantSpec], wl: &Workload, cfg: &ShardConfig) -> ShardServingReport {
    let heap = run_sharded(tenants, wl, cfg);
    assert_eq!(
        heap,
        run_sharded_reference(tenants, wl, cfg),
        "heap != scan"
    );
    assert_eq!(
        heap,
        run_sharded_threaded(tenants, wl, cfg, 2),
        "heap != threaded"
    );
    assert_eq!(heap.lost_requests(), 0);
    heap
}

/// 64-bit FNV-1a over the rows, each followed by a newline.
fn fnv1a<'a>(rows: impl Iterator<Item = &'a str>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for row in rows {
        for b in row.bytes().chain(std::iter::once(b'\n')) {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// The pinned rows of one report. Shard stats and windows are spelled
/// out field by field, so a counter added to either later does not move
/// a pinned row.
fn rows(r: &ShardServingReport) -> Vec<String> {
    let mut out = vec![format!(
        "totals: submitted {} completed {} rejected {} failed {} retried {} errored {} \
         batches {} makespan_ns {} replicas {}/{}/{} energy {:#x} fairness {:#x}",
        r.total_submitted,
        r.total_completed,
        r.total_rejected,
        r.total_failed,
        r.total_retried,
        r.total_errored,
        r.batches,
        r.makespan_ns,
        r.replicas_initial,
        r.replicas_peak,
        r.replicas_final,
        r.total_energy_nj.to_bits(),
        r.fairness_index.to_bits(),
    )];
    out.extend(r.steal_events.iter().map(|e| format!("{e:?}")));
    out.extend(r.scale_events.iter().map(|e| format!("{e:?}")));
    out.extend(r.swap_events.iter().map(|e| {
        format!(
            "SwapEvent {{ t_ns: {}, epoch: {}, tenant: {}, shard: {}, replica: {}, \
             share: {:#x}, base_share: {:#x} }}",
            e.t_ns,
            e.epoch,
            e.tenant,
            e.shard,
            e.replica,
            e.share.to_bits(),
            e.base_share.to_bits()
        )
    }));
    out.extend(r.health_events.iter().map(|e| format!("{e:?}")));
    out.extend(r.shard_stats.iter().map(|s| {
        format!(
            "shard {}: tenants {} replicas {}/{} dispatched {} steals {}/{} makespan_ns {} \
             downtime_ns {} trips {} recals {} remaps {} recovery_ns {}",
            s.shard,
            s.tenants,
            s.replicas_active,
            s.replicas_total,
            s.dispatched_batches,
            s.steals_in,
            s.steals_out,
            s.makespan_ns,
            s.downtime_ns,
            s.trips,
            s.recals,
            s.remaps,
            s.recovery_ns
        )
    }));
    out.extend(r.windows.iter().map(|w| {
        format!(
            "window {}: submitted {} rejected {} completed {} batches {} peak {} downtime_ns {} \
             slo {:#x} depth {:#x}",
            w.index,
            w.submitted,
            w.rejected,
            w.completed,
            w.batches,
            w.peak_queue_depth,
            w.downtime_ns,
            w.slo_attainment.to_bits(),
            w.mean_queue_depth.to_bits()
        )
    }));
    let tenant_rows: Vec<String> = r.tenants.iter().map(|t| format!("{t:?}")).collect();
    out.push(format!(
        "tenants fnv1a {:#018x}",
        fnv1a(tenant_rows.iter().map(String::as_str))
    ));
    out
}

fn check(name: &str, actual: &[String], golden: &[&str]) {
    for row in actual {
        println!("{name}: {row}");
    }
    assert_eq!(actual.len(), golden.len(), "{name}: row count changed");
    for (i, (a, g)) in actual.iter().zip(golden).enumerate() {
        assert_eq!(a, g, "{name}: row {i} drifted");
    }
}

#[test]
fn fleet_run_is_pinned() {
    let tenants = fleet();
    let wl = Workload {
        seed: 33,
        horizon_ns: FLEET_HORIZON_NS,
    };
    let cfg = ShardConfig {
        shards: 8,
        replicas_per_shard: 1,
        steal: Some(StealSpec::default()),
        // The benchmark's default depth thresholds sit below this fleet's
        // aggregate queue depth (10–130), so they never scale down within
        // 2 s; these make the run scale both ways.
        autoscale: Some(AutoscaleSpec {
            high_depth: 40.0,
            low_depth: 16.0,
            max_replicas: 16,
            ..AutoscaleSpec::default()
        }),
        swap: Some(SwapSpec::default()),
        queue_depth: 16,
        ..ShardConfig::default()
    };
    let r = run_all_drivers(&tenants, &wl, &cfg);
    assert!(!r.steal_events.is_empty(), "no steal");
    assert!(r.scale_events.iter().any(|e| e.up), "no scale-up");
    assert!(r.scale_events.iter().any(|e| !e.up), "no scale-down");
    assert!(!r.swap_events.is_empty(), "no swap");
    assert!(r.total_rejected > 0, "nothing shed");
    check("fleet", &rows(&r), &FLEET);
}

#[test]
fn faulty_runs_are_pinned() {
    let tenants = small_fleet();
    let wl = Workload {
        seed: 19,
        horizon_ns: 40_000_000,
    };
    for (shards, replicas, golden) in [(2, 3, &FAULTY_2X3[..]), (4, 2, &FAULTY_4X2[..])] {
        let cfg = ShardConfig {
            shards,
            replicas_per_shard: replicas,
            epochs: 8,
            queue_depth: 32,
            retry_deadline_ns: 4_000_000,
            steal: Some(StealSpec {
                min_victim_backlog: 4,
                max_thief_backlog: 1,
            }),
            failures: Some(FailureSpec {
                mtbf_ns: 4_000_000,
                mttr_ns: 400_000,
                seed: 13,
            }),
            health: Some(HealthSpec {
                err_ppm_per_ms: 30_000,
                ..HealthSpec::default()
            }),
            ..ShardConfig::default()
        };
        let r = run_all_drivers(&tenants, &wl, &cfg);
        let name = format!("faulty {shards}x{replicas}");
        assert!(
            r.tenants.iter().any(|t| t.killed_batches > 0),
            "{name}: no killed batch"
        );
        assert!(r.total_retried > 0, "{name}: no retry");
        assert!(
            r.shard_stats.iter().any(|s| s.trips > 0),
            "{name}: no breaker trip"
        );
        check(&name, &rows(&r), golden);
    }
}

#[test]
fn stolen_deficit_run_is_pinned() {
    let wl = Workload {
        seed: 31,
        horizon_ns: 40_000_000,
    };
    let cfg = ShardConfig {
        shards: 2,
        queue_depth: 32,
        steal: Some(StealSpec {
            min_victim_backlog: 8,
            max_thief_backlog: 2,
        }),
        ..ShardConfig::default()
    };
    let r = run_all_drivers(&lopsided_fleet(), &wl, &cfg);
    assert!(
        r.steal_events.len() >= 2,
        "the heavy tenant never moved back"
    );
    assert!(r.steal_events.iter().all(|e| e.tenant == 0));
    check("stolen_deficit", &rows(&r), &STOLEN_DEFICIT);
}

#[test]
fn autoscaled_faulty_run_is_pinned() {
    let wl = Workload {
        seed: 23,
        horizon_ns: 40_000_000,
    };
    let cfg = ShardConfig {
        shards: 2,
        epochs: 16,
        queue_depth: 32,
        retry_deadline_ns: 4_000_000,
        autoscale: Some(AutoscaleSpec {
            high_depth: 8.0,
            low_depth: 4.0,
            for_epochs: 1,
            clear_epochs: 1,
            min_replicas: 2,
            max_replicas: 6,
            cooldown_epochs: 0,
        }),
        failures: Some(FailureSpec {
            mtbf_ns: 4_000_000,
            mttr_ns: 400_000,
            seed: 13,
        }),
        health: Some(HealthSpec {
            err_ppm_per_ms: 30_000,
            ..HealthSpec::default()
        }),
        ..ShardConfig::default()
    };
    let r = run_all_drivers(&lopsided_fleet(), &wl, &cfg);
    assert!(r.scale_events.iter().any(|e| e.up), "no scale-up");
    assert!(r.scale_events.iter().any(|e| !e.up), "no scale-down");
    assert!(
        r.tenants.iter().any(|t| t.killed_batches > 0),
        "no killed batch"
    );
    assert!(
        r.health_events.iter().any(|e| e.replica >= 1),
        "no breaker trip on an added replica"
    );
    check("autoscaled_faulty", &rows(&r), &AUTOSCALED_FAULTY);
}

const FLEET: [&str; 49] = [
    "totals: submitted 19106 completed 18745 rejected 361 failed 0 retried 0 errored 0 batches 13674 makespan_ns 2002759692 replicas 8/11/10 energy 0x41c760f72ccb2232 fairness 0x3fe043c16cc1ad92",
    "StealEvent { t_ns: 875000000, epoch: 6, tenant: 92, from_shard: 4, to_shard: 7, moved_requests: 16 }",
    "StealEvent { t_ns: 1000000000, epoch: 7, tenant: 44, from_shard: 4, to_shard: 6, moved_requests: 16 }",
    "ScaleEvent { t_ns: 250000000, epoch: 1, up: true, shard: 6, replica: 1, active_after: 9 }",
    "ScaleEvent { t_ns: 500000000, epoch: 3, up: false, shard: 6, replica: 1, active_after: 8 }",
    "ScaleEvent { t_ns: 1000000000, epoch: 7, up: true, shard: 4, replica: 1, active_after: 9 }",
    "ScaleEvent { t_ns: 1250000000, epoch: 9, up: true, shard: 4, replica: 2, active_after: 10 }",
    "ScaleEvent { t_ns: 1500000000, epoch: 11, up: true, shard: 4, replica: 3, active_after: 11 }",
    "ScaleEvent { t_ns: 1875000000, epoch: 14, up: false, shard: 4, replica: 3, active_after: 10 }",
    "SwapEvent { t_ns: 125000000, epoch: 0, tenant: 60, shard: 4, replica: 0, share: 0x3f91fa1f75b70e00, base_share: 0x3f81111111111118 }",
    "SwapEvent { t_ns: 750000000, epoch: 5, tenant: 4, shard: 4, replica: 0, share: 0x3f9236a3ebc349de, base_share: 0x3f81111111111118 }",
    "SwapEvent { t_ns: 750000000, epoch: 5, tenant: 12, shard: 4, replica: 0, share: 0x3f9642c8590b2164, base_share: 0x3f81111111111118 }",
    "SwapEvent { t_ns: 750000000, epoch: 5, tenant: 20, shard: 4, replica: 0, share: 0x3f9339ad07153fbf, base_share: 0x3f81111111111118 }",
    "SwapEvent { t_ns: 875000000, epoch: 6, tenant: 28, shard: 4, replica: 0, share: 0x3f94b77dc7c4cf2b, base_share: 0x3f81111111111118 }",
    "SwapEvent { t_ns: 875000000, epoch: 6, tenant: 68, shard: 4, replica: 0, share: 0x3f95b409dd78d908, base_share: 0x3f81111111111118 }",
    "SwapEvent { t_ns: 875000000, epoch: 6, tenant: 76, shard: 4, replica: 0, share: 0x3f94b77dc7c4cf2b, base_share: 0x3f81111111111118 }",
    "SwapEvent { t_ns: 875000000, epoch: 6, tenant: 92, shard: 7, replica: 0, share: 0x3f99a63a3449007e, base_share: 0x3f81111111111118 }",
    "SwapEvent { t_ns: 875000000, epoch: 6, tenant: 100, shard: 4, replica: 0, share: 0x3f96b095f32ce2e6, base_share: 0x3f81111111111118 }",
    "SwapEvent { t_ns: 875000000, epoch: 6, tenant: 116, shard: 4, replica: 0, share: 0x3f95b409dd78d908, base_share: 0x3f81111111111118 }",
    "SwapEvent { t_ns: 1000000000, epoch: 7, tenant: 44, shard: 6, replica: 0, share: 0x3f9bfa6784e56bb7, base_share: 0x3f81111111111118 }",
    "SwapEvent { t_ns: 1000000000, epoch: 7, tenant: 52, shard: 4, replica: 1, share: 0x3f983f6ac882908e, base_share: 0x3f81111111111118 }",
    "SwapEvent { t_ns: 1000000000, epoch: 7, tenant: 84, shard: 4, replica: 1, share: 0x3f983f6ac882908e, base_share: 0x3f81111111111118 }",
    "SwapEvent { t_ns: 1000000000, epoch: 7, tenant: 108, shard: 4, replica: 0, share: 0x3f94846e0c1fb564, base_share: 0x3f81111111111118 }",
    "SwapEvent { t_ns: 1125000000, epoch: 8, tenant: 36, shard: 4, replica: 0, share: 0x3fa0466fcaa38d46, base_share: 0x3f81111111111118 }",
    "shard 0: tenants 15 replicas 1/1 dispatched 1646 steals 0/0 makespan_ns 1998252562 downtime_ns 0 trips 0 recals 0 remaps 0 recovery_ns 0",
    "shard 1: tenants 15 replicas 1/1 dispatched 1638 steals 0/0 makespan_ns 2002068054 downtime_ns 0 trips 0 recals 0 remaps 0 recovery_ns 0",
    "shard 2: tenants 15 replicas 1/1 dispatched 1610 steals 0/0 makespan_ns 2001236436 downtime_ns 0 trips 0 recals 0 remaps 0 recovery_ns 0",
    "shard 3: tenants 15 replicas 1/1 dispatched 1581 steals 0/0 makespan_ns 2002759692 downtime_ns 0 trips 0 recals 0 remaps 0 recovery_ns 0",
    "shard 4: tenants 13 replicas 3/4 dispatched 2300 steals 0/2 makespan_ns 2000176423 downtime_ns 0 trips 0 recals 0 remaps 0 recovery_ns 0",
    "shard 5: tenants 15 replicas 1/1 dispatched 1673 steals 0/0 makespan_ns 2001874006 downtime_ns 0 trips 0 recals 0 remaps 0 recovery_ns 0",
    "shard 6: tenants 16 replicas 1/2 dispatched 1603 steals 1/0 makespan_ns 2002694900 downtime_ns 0 trips 0 recals 0 remaps 0 recovery_ns 0",
    "shard 7: tenants 16 replicas 1/1 dispatched 1623 steals 1/0 makespan_ns 2001345719 downtime_ns 0 trips 0 recals 0 remaps 0 recovery_ns 0",
    "window 0: submitted 1481 rejected 0 completed 1316 batches 779 peak 179 downtime_ns 0 slo 0x3fdf2c5a42eafdaa depth 0x40547f8a84f615e9",
    "window 1: submitted 1244 rejected 0 completed 1371 batches 652 peak 239 downtime_ns 0 slo 0x3fd01ae36e5abf94 depth 0x4060465e55cbb97c",
    "window 2: submitted 946 rejected 0 completed 957 batches 858 peak 64 downtime_ns 0 slo 0x3fedb9ea1095cd2d depth 0x402ff5cef625694f",
    "window 3: submitted 929 rejected 0 completed 937 batches 831 peak 60 downtime_ns 0 slo 0x3fee880f4cc5ce46 depth 0x402bcef0ff1ff502",
    "window 4: submitted 934 rejected 0 completed 939 batches 822 peak 63 downtime_ns 0 slo 0x3fee8022e58e0a5c depth 0x402d936a967f6670",
    "window 5: submitted 1012 rejected 0 completed 972 batches 849 peak 81 downtime_ns 0 slo 0x3fedba781948b0fd depth 0x4035618dd48bd558",
    "window 6: submitted 1038 rejected 2 completed 929 batches 741 peak 169 downtime_ns 0 slo 0x3fea5104222b8a0f depth 0x4057422acad9d879",
    "window 7: submitted 1098 rejected 51 completed 1006 batches 738 peak 240 downtime_ns 0 slo 0x3fe876135707a25b depth 0x4064915c585f566c",
    "window 8: submitted 1919 rejected 195 completed 1543 batches 705 peak 423 downtime_ns 0 slo 0x3fd6bad0b72a4ea4 depth 0x406ec1cc809d5a80",
    "window 9: submitted 1416 rejected 111 completed 1559 batches 620 peak 417 downtime_ns 0 slo 0x3fca45f3d93f3853 depth 0x406fb89ff00a6990",
    "window 10: submitted 1196 rejected 2 completed 1297 batches 990 peak 140 downtime_ns 0 slo 0x3fe956a631583a6d depth 0x4044cc58fd3ea6fc",
    "window 11: submitted 1167 rejected 0 completed 1160 batches 998 peak 64 downtime_ns 0 slo 0x3feeb4152fab4153 depth 0x4031ade971e2e023",
    "window 12: submitted 1166 rejected 0 completed 1167 batches 982 peak 60 downtime_ns 0 slo 0x3fee0d99c686b0cf depth 0x40337792c28745fc",
    "window 13: submitted 1142 rejected 0 completed 1148 batches 1018 peak 55 downtime_ns 0 slo 0x3fefa33bc3584e7f depth 0x402ddc90be28c51b",
    "window 14: submitted 1210 rejected 0 completed 1195 batches 1026 peak 57 downtime_ns 0 slo 0x3fef700a48688ad2 depth 0x402ede7232913b96",
    "window 15: submitted 1208 rejected 0 completed 1249 batches 1065 peak 57 downtime_ns 0 slo 0x3fef06c3891ef316 depth 0x403143189dfdb30c",
    "tenants fnv1a 0x9552ddb6b9c2374c",
];
const FAULTY_2X3: [&str; 56] = [
    "totals: submitted 419 completed 243 rejected 0 failed 176 retried 126 errored 43 batches 81 makespan_ns 50723002 replicas 6/6/6 energy 0x4166870a9f761ccf fairness 0x3fea87a95218f472",
    "HealthEvent { t_ns: 1857548, shard: 0, replica: 1, kind: Trip }",
    "HealthEvent { t_ns: 2257548, shard: 0, replica: 1, kind: Recal }",
    "HealthEvent { t_ns: 5979862, shard: 0, replica: 2, kind: Trip }",
    "HealthEvent { t_ns: 6879862, shard: 0, replica: 2, kind: Recal }",
    "HealthEvent { t_ns: 6716536, shard: 0, replica: 0, kind: Trip }",
    "HealthEvent { t_ns: 7116536, shard: 0, replica: 0, kind: Recal }",
    "HealthEvent { t_ns: 9897571, shard: 0, replica: 1, kind: Trip }",
    "HealthEvent { t_ns: 10297571, shard: 0, replica: 1, kind: Recal }",
    "HealthEvent { t_ns: 14304052, shard: 0, replica: 0, kind: Trip }",
    "HealthEvent { t_ns: 14704052, shard: 0, replica: 0, kind: Recal }",
    "HealthEvent { t_ns: 16498394, shard: 0, replica: 2, kind: Trip }",
    "HealthEvent { t_ns: 16898394, shard: 0, replica: 2, kind: Recal }",
    "HealthEvent { t_ns: 25388939, shard: 0, replica: 0, kind: Trip }",
    "HealthEvent { t_ns: 25788939, shard: 0, replica: 0, kind: Recal }",
    "HealthEvent { t_ns: 25918489, shard: 0, replica: 1, kind: Trip }",
    "HealthEvent { t_ns: 26818489, shard: 0, replica: 1, kind: Recal }",
    "HealthEvent { t_ns: 32539199, shard: 0, replica: 2, kind: Trip }",
    "HealthEvent { t_ns: 34139199, shard: 0, replica: 2, kind: Recal }",
    "HealthEvent { t_ns: 33203006, shard: 0, replica: 0, kind: Trip }",
    "HealthEvent { t_ns: 33603006, shard: 0, replica: 0, kind: Recal }",
    "HealthEvent { t_ns: 39961716, shard: 0, replica: 2, kind: Trip }",
    "HealthEvent { t_ns: 40361716, shard: 0, replica: 2, kind: Recal }",
    "HealthEvent { t_ns: 40897792, shard: 0, replica: 1, kind: Trip }",
    "HealthEvent { t_ns: 41297792, shard: 0, replica: 1, kind: Recal }",
    "HealthEvent { t_ns: 48150152, shard: 0, replica: 0, kind: Trip }",
    "HealthEvent { t_ns: 49050152, shard: 0, replica: 0, kind: Recal }",
    "HealthEvent { t_ns: 9783552, shard: 1, replica: 1, kind: Trip }",
    "HealthEvent { t_ns: 10183552, shard: 1, replica: 1, kind: Recal }",
    "HealthEvent { t_ns: 11737090, shard: 1, replica: 0, kind: Trip }",
    "HealthEvent { t_ns: 12137090, shard: 1, replica: 0, kind: Recal }",
    "HealthEvent { t_ns: 23697642, shard: 1, replica: 1, kind: Trip }",
    "HealthEvent { t_ns: 24097642, shard: 1, replica: 1, kind: Recal }",
    "HealthEvent { t_ns: 26270374, shard: 1, replica: 0, kind: Trip }",
    "HealthEvent { t_ns: 26670374, shard: 1, replica: 0, kind: Recal }",
    "HealthEvent { t_ns: 29184385, shard: 1, replica: 2, kind: Trip }",
    "HealthEvent { t_ns: 29584385, shard: 1, replica: 2, kind: Recal }",
    "HealthEvent { t_ns: 33069993, shard: 1, replica: 1, kind: Trip }",
    "HealthEvent { t_ns: 33469993, shard: 1, replica: 1, kind: Recal }",
    "HealthEvent { t_ns: 38645012, shard: 1, replica: 0, kind: Trip }",
    "HealthEvent { t_ns: 39045012, shard: 1, replica: 0, kind: Recal }",
    "HealthEvent { t_ns: 40228782, shard: 1, replica: 1, kind: Trip }",
    "HealthEvent { t_ns: 40628782, shard: 1, replica: 1, kind: Recal }",
    "HealthEvent { t_ns: 45209314, shard: 1, replica: 2, kind: Trip }",
    "HealthEvent { t_ns: 45609314, shard: 1, replica: 2, kind: Recal }",
    "shard 0: tenants 6 replicas 3/3 dispatched 66 steals 0/0 makespan_ns 50723002 downtime_ns 15787263 trips 13 recals 13 remaps 0 recovery_ns 7900000",
    "shard 1: tenants 6 replicas 3/3 dispatched 75 steals 0/0 makespan_ns 48945209 downtime_ns 12837354 trips 9 recals 9 remaps 0 recovery_ns 3600000",
    "window 0: submitted 70 rejected 0 completed 22 batches 12 peak 44 downtime_ns 2083139 slo 0x3fee8ba2e8ba2e8c depth 0x4035503df1d31693",
    "window 1: submitted 46 rejected 0 completed 25 batches 9 peak 57 downtime_ns 3285060 slo 0x3fe851eb851eb852 depth 0x40431683acc84a87",
    "window 2: submitted 63 rejected 0 completed 18 batches 10 peak 62 downtime_ns 2299917 slo 0x3feaaaaaaaaaaaab depth 0x40460f677a629cad",
    "window 3: submitted 43 rejected 0 completed 13 batches 6 peak 71 downtime_ns 6191988 slo 0x3fe3b13b13b13b14 depth 0x404d838d1881d705",
    "window 4: submitted 38 rejected 0 completed 17 batches 3 peak 63 downtime_ns 5207498 slo 0x3fd2d2d2d2d2d2d3 depth 0x404a981f0d0b813e",
    "window 5: submitted 63 rejected 0 completed 30 batches 8 peak 72 downtime_ns 2763783 slo 0x3fd1111111111111 depth 0x404dbbe4275c655c",
    "window 6: submitted 45 rejected 0 completed 18 batches 8 peak 75 downtime_ns 4043271 slo 0x3fe8e38e38e38e39 depth 0x404e8277722764c9",
    "window 7: submitted 51 rejected 0 completed 100 batches 25 peak 64 downtime_ns 2749961 slo 0x3fd3d70a3d70a3d7 depth 0x4038f333256f607b",
    "tenants fnv1a 0x872ce74581068f61",
];
const FAULTY_4X2: [&str; 79] = [
    "totals: submitted 419 completed 247 rejected 0 failed 172 retried 215 errored 41 batches 103 makespan_ns 47309955 replicas 8/8/8 energy 0x4166d9ce950e8b4d fairness 0x3fe88dd499a69811",
    "StealEvent { t_ns: 25000000, epoch: 4, tenant: 4, from_shard: 0, to_shard: 1, moved_requests: 8 }",
    "StealEvent { t_ns: 35000000, epoch: 6, tenant: 4, from_shard: 1, to_shard: 0, moved_requests: 6 }",
    "StealEvent { t_ns: 40000000, epoch: 7, tenant: 3, from_shard: 3, to_shard: 0, moved_requests: 8 }",
    "HealthEvent { t_ns: 8657133, shard: 0, replica: 1, kind: Trip }",
    "HealthEvent { t_ns: 9557133, shard: 0, replica: 1, kind: Recal }",
    "HealthEvent { t_ns: 14953832, shard: 0, replica: 0, kind: Trip }",
    "HealthEvent { t_ns: 15353832, shard: 0, replica: 0, kind: Recal }",
    "HealthEvent { t_ns: 19821790, shard: 0, replica: 1, kind: Trip }",
    "HealthEvent { t_ns: 20221790, shard: 0, replica: 1, kind: Recal }",
    "HealthEvent { t_ns: 25553090, shard: 0, replica: 0, kind: Trip }",
    "HealthEvent { t_ns: 25953090, shard: 0, replica: 0, kind: Recal }",
    "HealthEvent { t_ns: 31239641, shard: 0, replica: 1, kind: Trip }",
    "HealthEvent { t_ns: 32839641, shard: 0, replica: 1, kind: Recal }",
    "HealthEvent { t_ns: 33203006, shard: 0, replica: 0, kind: Trip }",
    "HealthEvent { t_ns: 33603006, shard: 0, replica: 0, kind: Recal }",
    "HealthEvent { t_ns: 38498008, shard: 0, replica: 1, kind: Trip }",
    "HealthEvent { t_ns: 38898008, shard: 0, replica: 1, kind: Recal }",
    "HealthEvent { t_ns: 41272626, shard: 0, replica: 0, kind: Trip }",
    "HealthEvent { t_ns: 41672626, shard: 0, replica: 0, kind: Recal }",
    "HealthEvent { t_ns: 8154839, shard: 1, replica: 0, kind: Trip }",
    "HealthEvent { t_ns: 8554839, shard: 1, replica: 0, kind: Recal }",
    "HealthEvent { t_ns: 10365411, shard: 1, replica: 1, kind: Trip }",
    "HealthEvent { t_ns: 10765411, shard: 1, replica: 1, kind: Recal }",
    "HealthEvent { t_ns: 13298277, shard: 1, replica: 1, kind: Trip }",
    "HealthEvent { t_ns: 13698277, shard: 1, replica: 1, kind: Recal }",
    "HealthEvent { t_ns: 19198958, shard: 1, replica: 0, kind: Trip }",
    "HealthEvent { t_ns: 19598958, shard: 1, replica: 0, kind: Recal }",
    "HealthEvent { t_ns: 23772906, shard: 1, replica: 0, kind: Trip }",
    "HealthEvent { t_ns: 24172906, shard: 1, replica: 0, kind: Recal }",
    "HealthEvent { t_ns: 24083639, shard: 1, replica: 1, kind: Trip }",
    "HealthEvent { t_ns: 24483639, shard: 1, replica: 1, kind: Recal }",
    "HealthEvent { t_ns: 30080817, shard: 1, replica: 0, kind: Trip }",
    "HealthEvent { t_ns: 30480817, shard: 1, replica: 0, kind: Recal }",
    "HealthEvent { t_ns: 39944571, shard: 1, replica: 0, kind: Trip }",
    "HealthEvent { t_ns: 40344571, shard: 1, replica: 0, kind: Recal }",
    "HealthEvent { t_ns: 40573861, shard: 1, replica: 1, kind: Trip }",
    "HealthEvent { t_ns: 40973861, shard: 1, replica: 1, kind: Recal }",
    "HealthEvent { t_ns: 3971036, shard: 2, replica: 0, kind: Trip }",
    "HealthEvent { t_ns: 4371036, shard: 2, replica: 0, kind: Recal }",
    "HealthEvent { t_ns: 12175209, shard: 2, replica: 0, kind: Trip }",
    "HealthEvent { t_ns: 12575209, shard: 2, replica: 0, kind: Recal }",
    "HealthEvent { t_ns: 24454780, shard: 2, replica: 0, kind: Trip }",
    "HealthEvent { t_ns: 25354780, shard: 2, replica: 0, kind: Recal }",
    "HealthEvent { t_ns: 29938635, shard: 2, replica: 1, kind: Trip }",
    "HealthEvent { t_ns: 30338635, shard: 2, replica: 1, kind: Recal }",
    "HealthEvent { t_ns: 31448878, shard: 2, replica: 0, kind: Trip }",
    "HealthEvent { t_ns: 31848878, shard: 2, replica: 0, kind: Recal }",
    "HealthEvent { t_ns: 38784303, shard: 2, replica: 0, kind: Trip }",
    "HealthEvent { t_ns: 39184303, shard: 2, replica: 0, kind: Recal }",
    "HealthEvent { t_ns: 41211308, shard: 2, replica: 1, kind: Trip }",
    "HealthEvent { t_ns: 41611308, shard: 2, replica: 1, kind: Recal }",
    "HealthEvent { t_ns: 10674437, shard: 3, replica: 1, kind: Trip }",
    "HealthEvent { t_ns: 11074437, shard: 3, replica: 1, kind: Recal }",
    "HealthEvent { t_ns: 13226878, shard: 3, replica: 0, kind: Trip }",
    "HealthEvent { t_ns: 13626878, shard: 3, replica: 0, kind: Recal }",
    "HealthEvent { t_ns: 21098526, shard: 3, replica: 0, kind: Trip }",
    "HealthEvent { t_ns: 21498526, shard: 3, replica: 0, kind: Recal }",
    "HealthEvent { t_ns: 23259925, shard: 3, replica: 1, kind: Trip }",
    "HealthEvent { t_ns: 23659925, shard: 3, replica: 1, kind: Recal }",
    "HealthEvent { t_ns: 30225890, shard: 3, replica: 1, kind: Trip }",
    "HealthEvent { t_ns: 30625890, shard: 3, replica: 1, kind: Recal }",
    "HealthEvent { t_ns: 35106329, shard: 3, replica: 0, kind: Trip }",
    "HealthEvent { t_ns: 35506329, shard: 3, replica: 0, kind: Recal }",
    "HealthEvent { t_ns: 40264053, shard: 3, replica: 1, kind: Trip }",
    "HealthEvent { t_ns: 41164053, shard: 3, replica: 1, kind: Recal }",
    "shard 0: tenants 4 replicas 2/2 dispatched 47 steals 2/1 makespan_ns 45240544 downtime_ns 12516847 trips 8 recals 8 remaps 0 recovery_ns 4900000",
    "shard 1: tenants 3 replicas 2/2 dispatched 57 steals 1/1 makespan_ns 43010197 downtime_ns 8586992 trips 9 recals 9 remaps 0 recovery_ns 3600000",
    "shard 2: tenants 3 replicas 2/2 dispatched 42 steals 0/0 makespan_ns 47309955 downtime_ns 8145027 trips 7 recals 7 remaps 0 recovery_ns 3300000",
    "shard 3: tenants 2 replicas 2/2 dispatched 46 steals 0/1 makespan_ns 42550610 downtime_ns 10871740 trips 7 recals 7 remaps 0 recovery_ns 3300000",
    "window 0: submitted 70 rejected 0 completed 21 batches 11 peak 45 downtime_ns 2425415 slo 0x3fee79e79e79e79e depth 0x403490d9ca0b516d",
    "window 1: submitted 46 rejected 0 completed 29 batches 13 peak 45 downtime_ns 3769345 slo 0x3fedcb08d3dcb08d depth 0x4037ee9937740a94",
    "window 2: submitted 63 rejected 0 completed 34 batches 17 peak 46 downtime_ns 3071713 slo 0x3fe7878787878788 depth 0x403bcabdb501d4ec",
    "window 3: submitted 43 rejected 0 completed 25 batches 9 peak 59 downtime_ns 7972779 slo 0x3fe3333333333333 depth 0x404677d44cf3ce99",
    "window 4: submitted 38 rejected 0 completed 24 batches 8 peak 53 downtime_ns 7734027 slo 0x3fe0000000000000 depth 0x40420c4127e87c56",
    "window 5: submitted 63 rejected 0 completed 19 batches 9 peak 50 downtime_ns 4115515 slo 0x3feaf286bca1af28 depth 0x403f41d6a3e623b6",
    "window 6: submitted 45 rejected 0 completed 22 batches 10 peak 52 downtime_ns 7094672 slo 0x3fe5d1745d1745d1 depth 0x4040f230f7ef9046",
    "window 7: submitted 51 rejected 0 completed 73 batches 26 peak 38 downtime_ns 3937140 slo 0x3fe0a8542a150a85 depth 0x40279020bce31e53",
    "tenants fnv1a 0x9243d63167279c2a",
];

const STOLEN_DEFICIT: [&str; 23] = [
    "totals: submitted 183 completed 155 rejected 28 failed 0 retried 0 errored 0 batches 41 makespan_ns 63159006 replicas 2/2/2 energy 0x415d3fc7c07a4a4b fairness 0x3fed4ad0d72e9b46",
    "StealEvent { t_ns: 5000000, epoch: 1, tenant: 0, from_shard: 0, to_shard: 1, moved_requests: 9 }",
    "StealEvent { t_ns: 12500000, epoch: 4, tenant: 0, from_shard: 1, to_shard: 0, moved_requests: 20 }",
    "StealEvent { t_ns: 25000000, epoch: 9, tenant: 0, from_shard: 0, to_shard: 1, moved_requests: 32 }",
    "shard 0: tenants 2 replicas 1/1 dispatched 15 steals 1/2 makespan_ns 47639825 downtime_ns 0 trips 0 recals 0 remaps 0 recovery_ns 0",
    "shard 1: tenants 4 replicas 1/1 dispatched 26 steals 2/1 makespan_ns 63159006 downtime_ns 0 trips 0 recals 0 remaps 0 recovery_ns 0",
    "window 0: submitted 10 rejected 0 completed 2 batches 2 peak 8 downtime_ns 0 slo 0x3ff0000000000000 depth 0x400d2668eaa524e8",
    "window 1: submitted 12 rejected 0 completed 3 batches 2 peak 11 downtime_ns 0 slo 0x3ff0000000000000 depth 0x401668bbc6144be7",
    "window 2: submitted 10 rejected 0 completed 7 batches 2 peak 12 downtime_ns 0 slo 0x3ff0000000000000 depth 0x4019d42719497d22",
    "window 3: submitted 14 rejected 0 completed 11 batches 3 peak 23 downtime_ns 0 slo 0x3fe45d1745d1745d depth 0x4032ad272939b52d",
    "window 4: submitted 8 rejected 0 completed 4 batches 3 peak 25 downtime_ns 0 slo 0x3fe0000000000000 depth 0x4035b3cc730ab997",
    "window 5: submitted 12 rejected 0 completed 4 batches 3 peak 27 downtime_ns 0 slo 0x3fe8000000000000 depth 0x40362e97a827d1d6",
    "window 6: submitted 11 rejected 0 completed 12 batches 3 peak 32 downtime_ns 0 slo 0x3fd5555555555555 depth 0x4039e262aa19439e",
    "window 7: submitted 15 rejected 0 completed 2 batches 2 peak 38 downtime_ns 0 slo 0x3ff0000000000000 depth 0x403fc38d74c828f9",
    "window 8: submitted 14 rejected 2 completed 9 batches 2 peak 47 downtime_ns 0 slo 0x3fbc71c71c71c71c depth 0x404450c9a0c86204",
    "window 9: submitted 10 rejected 1 completed 6 batches 2 peak 47 downtime_ns 0 slo 0x3ff0000000000000 depth 0x4044e423dfd9190b",
    "window 10: submitted 10 rejected 0 completed 8 batches 1 peak 47 downtime_ns 0 slo 0x0 depth 0x4044cb1e47e9a39d",
    "window 11: submitted 8 rejected 3 completed 0 batches 0 peak 46 downtime_ns 0 slo 0x3ff0000000000000 depth 0x4045a1112acaaee5",
    "window 12: submitted 8 rejected 2 completed 15 batches 3 peak 35 downtime_ns 0 slo 0x3fc1111111111111 depth 0x40436b7ee4e26d48",
    "window 13: submitted 11 rejected 4 completed 0 batches 0 peak 42 downtime_ns 0 slo 0x3ff0000000000000 depth 0x4043814e31bc3aae",
    "window 14: submitted 18 rejected 7 completed 16 batches 2 peak 49 downtime_ns 0 slo 0x0 depth 0x4046af93b5540a43",
    "window 15: submitted 12 rejected 9 completed 56 batches 11 peak 50 downtime_ns 0 slo 0x3fc9249249249249 depth 0x40314cb3ec67408e",
    "tenants fnv1a 0xad870869756f7edc",
];
const AUTOSCALED_FAULTY: [&str; 60] = [
    "totals: submitted 182 completed 120 rejected 0 failed 62 retried 95 errored 21 batches 51 makespan_ns 43016409 replicas 2/6/4 energy 0x41568318166b65fb fairness 0x3fefaa9114a38ba6",
    "ScaleEvent { t_ns: 7500000, epoch: 2, up: true, shard: 0, replica: 1, active_after: 3 }",
    "ScaleEvent { t_ns: 10000000, epoch: 3, up: true, shard: 0, replica: 2, active_after: 4 }",
    "ScaleEvent { t_ns: 12500000, epoch: 4, up: false, shard: 0, replica: 2, active_after: 3 }",
    "ScaleEvent { t_ns: 15000000, epoch: 5, up: true, shard: 0, replica: 3, active_after: 4 }",
    "ScaleEvent { t_ns: 17500000, epoch: 6, up: true, shard: 0, replica: 4, active_after: 5 }",
    "ScaleEvent { t_ns: 20000000, epoch: 7, up: true, shard: 0, replica: 5, active_after: 6 }",
    "ScaleEvent { t_ns: 37500000, epoch: 14, up: false, shard: 0, replica: 5, active_after: 5 }",
    "ScaleEvent { t_ns: 40000000, epoch: 15, up: false, shard: 0, replica: 4, active_after: 4 }",
    "HealthEvent { t_ns: 15439460, shard: 0, replica: 0, kind: Trip }",
    "HealthEvent { t_ns: 15839460, shard: 0, replica: 0, kind: Recal }",
    "HealthEvent { t_ns: 18542207, shard: 0, replica: 1, kind: Trip }",
    "HealthEvent { t_ns: 18942207, shard: 0, replica: 1, kind: Recal }",
    "HealthEvent { t_ns: 25388939, shard: 0, replica: 0, kind: Trip }",
    "HealthEvent { t_ns: 25788939, shard: 0, replica: 0, kind: Recal }",
    "HealthEvent { t_ns: 23155222, shard: 0, replica: 1, kind: Trip }",
    "HealthEvent { t_ns: 23555222, shard: 0, replica: 1, kind: Recal }",
    "HealthEvent { t_ns: 25516570, shard: 0, replica: 5, kind: Trip }",
    "HealthEvent { t_ns: 25916570, shard: 0, replica: 5, kind: Recal }",
    "HealthEvent { t_ns: 29337270, shard: 0, replica: 5, kind: Trip }",
    "HealthEvent { t_ns: 29737270, shard: 0, replica: 5, kind: Recal }",
    "HealthEvent { t_ns: 29843902, shard: 0, replica: 4, kind: Trip }",
    "HealthEvent { t_ns: 30243902, shard: 0, replica: 4, kind: Recal }",
    "HealthEvent { t_ns: 34902609, shard: 0, replica: 0, kind: Trip }",
    "HealthEvent { t_ns: 35302609, shard: 0, replica: 0, kind: Recal }",
    "HealthEvent { t_ns: 39743378, shard: 0, replica: 5, kind: Trip }",
    "HealthEvent { t_ns: 40643378, shard: 0, replica: 5, kind: Recal }",
    "HealthEvent { t_ns: 38763618, shard: 0, replica: 1, kind: Trip }",
    "HealthEvent { t_ns: 39663618, shard: 0, replica: 1, kind: Recal }",
    "HealthEvent { t_ns: 42306252, shard: 0, replica: 1, kind: Trip }",
    "HealthEvent { t_ns: 42706252, shard: 0, replica: 1, kind: Recal }",
    "HealthEvent { t_ns: 12472893, shard: 1, replica: 0, kind: Trip }",
    "HealthEvent { t_ns: 12872893, shard: 1, replica: 0, kind: Recal }",
    "HealthEvent { t_ns: 19935736, shard: 1, replica: 0, kind: Trip }",
    "HealthEvent { t_ns: 20335736, shard: 1, replica: 0, kind: Recal }",
    "HealthEvent { t_ns: 29431038, shard: 1, replica: 0, kind: Trip }",
    "HealthEvent { t_ns: 29831038, shard: 1, replica: 0, kind: Recal }",
    "HealthEvent { t_ns: 32041372, shard: 1, replica: 0, kind: Trip }",
    "HealthEvent { t_ns: 32441372, shard: 1, replica: 0, kind: Recal }",
    "HealthEvent { t_ns: 36023494, shard: 1, replica: 0, kind: Trip }",
    "HealthEvent { t_ns: 36423494, shard: 1, replica: 0, kind: Recal }",
    "shard 0: tenants 3 replicas 3/6 dispatched 50 steals 0/0 makespan_ns 42306252 downtime_ns 21951012 trips 11 recals 11 remaps 0 recovery_ns 5400000",
    "shard 1: tenants 3 replicas 1/1 dispatched 32 steals 0/0 makespan_ns 43016409 downtime_ns 2720223 trips 5 recals 5 remaps 0 recovery_ns 2000000",
    "window 0: submitted 10 rejected 0 completed 0 batches 0 peak 7 downtime_ns 269794 slo 0x3ff0000000000000 depth 0x4005ed692486c806",
    "window 1: submitted 11 rejected 0 completed 9 batches 4 peak 11 downtime_ns 316570 slo 0x3ff0000000000000 depth 0x4014a40badb32c12",
    "window 2: submitted 8 rejected 0 completed 0 batches 0 peak 17 downtime_ns 770007 slo 0x3ff0000000000000 depth 0x4027d84de20b2273",
    "window 3: submitted 12 rejected 0 completed 5 batches 3 peak 15 downtime_ns 380365 slo 0x3ff0000000000000 depth 0x402091967b01281e",
    "window 4: submitted 5 rejected 0 completed 2 batches 2 peak 10 downtime_ns 326334 slo 0x3fe0000000000000 depth 0x4003b141560ba550",
    "window 5: submitted 11 rejected 0 completed 1 batches 1 peak 14 downtime_ns 1091672 slo 0x3ff0000000000000 depth 0x40244e9acd763ff8",
    "window 6: submitted 20 rejected 0 completed 11 batches 2 peak 21 downtime_ns 705749 slo 0x3fe1745d1745d174 depth 0x402d3ec2a6025da8",
    "window 7: submitted 13 rejected 0 completed 8 batches 4 peak 20 downtime_ns 2256881 slo 0x3fe8000000000000 depth 0x402fff92af9a8cdf",
    "window 8: submitted 13 rejected 0 completed 4 batches 3 peak 14 downtime_ns 3730899 slo 0x3ff0000000000000 depth 0x4020b5e4d9330c9d",
    "window 9: submitted 13 rejected 0 completed 11 batches 3 peak 13 downtime_ns 2422186 slo 0x3fc745d1745d1746 depth 0x4019da1a78514a75",
    "window 10: submitted 11 rejected 0 completed 18 batches 5 peak 11 downtime_ns 1222599 slo 0x3fe38e38e38e38e4 depth 0x40185383d5e2f604",
    "window 11: submitted 11 rejected 0 completed 7 batches 5 peak 11 downtime_ns 2326657 slo 0x3fe2492492492492 depth 0x401ce51d0ad2c1d9",
    "window 12: submitted 11 rejected 0 completed 4 batches 4 peak 12 downtime_ns 3512347 slo 0x3fe0000000000000 depth 0x40143cfc09d13a1a",
    "window 13: submitted 14 rejected 0 completed 13 batches 5 peak 15 downtime_ns 1803355 slo 0x3fed89d89d89d89e depth 0x401fb7610fe55051",
    "window 14: submitted 8 rejected 0 completed 1 batches 1 peak 5 downtime_ns 3095582 slo 0x0 depth 0x400d029d6931f2c1",
    "window 15: submitted 11 rejected 0 completed 26 batches 9 peak 10 downtime_ns 440238 slo 0x3fe9d89d89d89d8a depth 0x4004454025500e08",
    "tenants fnv1a 0x9de45c5b0a15581c",
];

//! Property-based invariants of the fault-injection/repair stack
//! (proptest): the repair never leaves work on a faulted crossbar, the
//! serving failover stays bit-deterministic, and the end-to-end fault
//! campaign is a pure function of its seed.

use autohet::prelude::*;
use autohet_accel::alloc::allocate_tile_based;
use autohet_accel::repair::repair_allocation;
use autohet_accel::tile_shared::apply_tile_sharing;
use autohet_dnn::{Dataset, ModelBuilder};
use autohet_xbar::fault::FaultMap;
use proptest::prelude::*;

/// A small but non-degenerate model for repair/serving properties.
fn small_model() -> autohet_dnn::Model {
    ModelBuilder::new("prop-net", Dataset::Mnist)
        .conv(8, 3)
        .conv(16, 3)
        .fc(64)
        .fc(10)
        .build()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    // The repair invariant: after `repair_allocation`, no tile holds
    // more occupied slices than it has usable (non-dead) primary slots
    // plus activated spares — i.e. the repaired allocation never
    // references a faulted crossbar — and every displaced slice is
    // accounted for exactly once.
    #[test]
    fn repaired_allocation_never_references_a_faulted_crossbar(
        seed in 0u64..1_000_000,
        dead in 0.0f64..0.9,
        spares in 0u32..3,
        shared in any::<bool>(),
    ) {
        let model = small_model();
        let strategy = vec![XbarShape::square(64); model.layers.len()];
        let mut alloc = allocate_tile_based(&model, &strategy, 4);
        if shared {
            apply_tile_sharing(&mut alloc);
        }
        let caps: Vec<u32> = alloc.tiles.iter().map(|t| t.capacity).collect();
        let rates = FaultRates {
            dead_xbar: dead,
            degraded_adc: dead / 2.0,
            adc_bits_lost: 2,
        };
        let faults = FaultMap::sample(seed, rates, &caps, spares);
        let before: u64 = alloc
            .tiles
            .iter()
            .map(|t| t.occupants.iter().map(|o| o.xbars as u64).sum::<u64>())
            .sum();
        let policy = RepairPolicy::no_spares().with_spares(spares);
        let report = repair_allocation(&mut alloc, &faults, &policy);

        // Conservation: every dead occupied slice was spared, remapped,
        // or degraded away — nothing vanishes, nothing double-counts.
        prop_assert_eq!(
            report.spared + report.remapped + report.degraded,
            report.dead_occupied
        );
        let after: u64 = alloc
            .tiles
            .iter()
            .map(|t| t.occupants.iter().map(|o| o.xbars as u64).sum::<u64>())
            .sum();
        prop_assert_eq!(after, before - report.degraded);

        // Per tile: the occupied slices fit inside usable primary slots
        // plus the spares the repair activated there.
        for (t, tile) in alloc.tiles.iter().enumerate() {
            let occupied: u64 = tile.occupants.iter().map(|o| o.xbars as u64).sum();
            let usable = tile.capacity as u64 - faults.tiles[t].dead_slots() as u64;
            let activated = report.activated_per_tile[t];
            prop_assert!(
                occupied <= usable + activated,
                "tile {t}: {occupied} occupied > {usable} usable + {activated} spares"
            );
            prop_assert!(activated <= faults.tiles[t].usable_spares() as u64);
        }
    }

    // `evaluate_faulted` is a pure function of (strategy, seed, rates):
    // two engines built independently agree bit-for-bit.
    #[test]
    fn faulted_evaluation_is_deterministic(
        seed in 0u64..1_000_000,
        dead in 0.0f64..0.6,
        shared in any::<bool>(),
    ) {
        let model = small_model();
        let strategy = vec![XbarShape::new(72, 64); model.layers.len()];
        let cfg = if shared {
            AccelConfig::default().with_tile_sharing()
        } else {
            AccelConfig::default()
        };
        let rates = FaultRates {
            dead_xbar: dead,
            degraded_adc: dead / 3.0,
            adc_bits_lost: 1,
        };
        let policy = RepairPolicy::default();
        let a = EvalEngine::new(model.clone(), cfg)
            .evaluate_faulted(&strategy, seed, rates, &policy);
        let b = EvalEngine::new(model, cfg)
            .evaluate_faulted(&strategy, seed, rates, &policy);
        prop_assert_eq!(a, b);
    }
}

proptest! {
    // Serving runs are costlier: fewer, bigger cases.
    #![proptest_config(ProptestConfig::with_cases(8))]

    // Under instance failures, the epoch-threaded serving driver stays
    // bit-identical to the sequential one for arbitrary seeds, failure
    // intensities and shard layouts.
    #[test]
    fn parallel_serving_matches_single_threaded_under_failures(
        wl_seed in 0u64..10_000,
        fail_seed in 0u64..10_000,
        mtbf_ms in 1u64..10,
        replicas in 1usize..4,
        shards in 1usize..3,
    ) {
        let model = small_model();
        let strategy = vec![XbarShape::square(64); model.layers.len()];
        let d = Deployment::compile("prop", &model, &strategy, &AccelConfig::default());
        let rate = 0.7 * d.max_rate_rps();
        let slo = (6.0 * d.pipeline.fill_ns) as u64;
        let tenants = vec![TenantSpec::new("prop", d, rate, slo)];
        let wl = Workload {
            seed: wl_seed,
            horizon_ns: (300.0 / rate * 1e9) as u64,
        };
        let cfg = ShardConfig {
            shards,
            replicas_per_shard: replicas,
            failures: Some(FailureSpec {
                mtbf_ns: mtbf_ms * 1_000_000,
                mttr_ns: 500_000,
                seed: fail_seed,
            }),
            ..ShardConfig::default()
        };
        let single = run_sharded(&tenants, &wl, &cfg);
        let multi = run_sharded_threaded(&tenants, &wl, &cfg, 2);
        prop_assert_eq!(&single, &multi);
        // Request conservation holds even when failures drop requests.
        let t = &single.tenants[0];
        prop_assert_eq!(t.completed + t.rejected + t.failed, t.submitted);
    }

    // The end-to-end campaign is a pure function of its config: same
    // seed ⇒ bit-identical report (this is what makes campaign tables
    // in EXPERIMENTS.md reproducible).
    #[test]
    fn fault_campaign_reports_are_seed_reproducible(seed in 0u64..10_000) {
        let model = small_model();
        let cfg = FaultCampaignConfig {
            fault_rates: vec![0.0, 0.15],
            seed,
            load: 0.5,
            requests: 150.0,
            spares_per_tile: 1,
            replicas: 2,
        };
        let a = fault_campaign(&model, &cfg);
        let b = fault_campaign(&model, &cfg);
        prop_assert_eq!(a, b);
    }
}

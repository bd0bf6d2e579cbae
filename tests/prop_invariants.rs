//! Property-based invariants across the whole stack (proptest).

use autohet::prelude::*;
use autohet_accel::alloc::allocate_tile_based;
use autohet_accel::hierarchy::Tile;
use autohet_accel::tile_shared::combine_group;
use autohet_accel::MappedLayer;
use autohet_dnn::ops::{mvm_i32, synthetic_weights};
use autohet_dnn::quant::{quantize_matrix, Quantizer};
use autohet_dnn::{Dataset, Layer, ModelBuilder, Tensor};
use autohet_xbar::utilization::footprint;
use autohet_xbar::{Adc, CostParams};
use proptest::prelude::*;

/// Arbitrary plausible conv-layer geometry.
fn arb_layer() -> impl Strategy<Value = Layer> {
    (
        1usize..=64,
        1usize..=96,
        prop_oneof![Just(1usize), Just(3), Just(5), Just(7)],
    )
        .prop_map(|(cin, cout, k)| Layer::conv(0, cin, cout, k, 1, k / 2, 32))
}

fn arb_shape() -> impl Strategy<Value = XbarShape> {
    prop::sample::select(all_candidates())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn utilization_always_in_unit_interval(layer in arb_layer(), shape in arb_shape()) {
        let u = footprint(&layer, shape).utilization();
        prop_assert!(u > 0.0 && u <= 1.0 + 1e-12);
    }

    #[test]
    fn footprint_provisioning_covers_the_weight_matrix(layer in arb_layer(), shape in arb_shape()) {
        let fp = footprint(&layer, shape);
        prop_assert!(fp.provisioned_cells() >= fp.used_cells);
        // The grid provides at least Cin·k² rows and Cout columns.
        prop_assert!(fp.xb_rows as u64 * shape.rows as u64 >= layer.weight_rows() as u64);
        prop_assert!(fp.xb_cols as u64 * shape.cols as u64 >= layer.weight_cols() as u64);
    }

    #[test]
    fn bigger_allocation_never_raises_utilization(layer in arb_layer(), shape in arb_shape(), extra in 0u64..16) {
        let fp = footprint(&layer, shape);
        let base = fp.total_xbars();
        prop_assert!(fp.utilization_over(base + extra) <= fp.utilization_over(base) + 1e-15);
    }

    #[test]
    fn quantizer_roundtrip_error_is_half_step(xs in prop::collection::vec(-10.0f32..10.0, 1..64)) {
        let q = Quantizer::fit_slice(&xs, 8);
        for &x in &xs {
            let err = (q.dequantize(q.quantize(x)) - x).abs();
            prop_assert!(err <= q.max_error() + 1e-6);
        }
    }

    #[test]
    fn algorithm1_conserves_and_never_overflows(
        occupancies in prop::collection::vec(1u32..=4, 1..40)
    ) {
        let mut tiles: Vec<Tile> = occupancies
            .iter()
            .enumerate()
            .map(|(i, &o)| {
                let mut t = Tile::new(i, XbarShape::square(64), 4);
                t.place(i, o);
                t
            })
            .collect();
        let before: u32 = tiles.iter().map(Tile::occupied).sum();
        let combos = combine_group(&mut tiles);
        let after: u32 = tiles.iter().map(Tile::occupied).sum();
        prop_assert_eq!(before, after);
        prop_assert!(tiles.iter().all(|t| t.occupied() <= t.capacity));
        // Every freed tile is empty and every absorber still exists.
        for (h, t) in combos {
            prop_assert!(tiles[t].occupants.is_empty());
            prop_assert!(h != t);
        }
    }

    #[test]
    fn tile_sharing_never_increases_tiles(
        sides in prop::collection::vec(prop::sample::select(vec![32u32, 64, 128]), 2..5),
        cap in prop::sample::select(vec![2u32, 4, 8])
    ) {
        let mut b = ModelBuilder::new("p", Dataset::Cifar10);
        for (i, _) in sides.iter().enumerate() {
            b = b.conv(8 * (i + 1), 3);
        }
        let model = b.build();
        let strategy: Vec<XbarShape> =
            sides.iter().map(|&s| XbarShape::square(s)).collect();
        let plain = evaluate(&model, &strategy, &AccelConfig::default().with_pes_per_tile(cap));
        let shared = evaluate(
            &model,
            &strategy,
            &AccelConfig::default().with_pes_per_tile(cap).with_tile_sharing(),
        );
        prop_assert!(shared.tiles <= plain.tiles);
        prop_assert!(shared.utilization >= plain.utilization - 1e-12);
        prop_assert!(shared.energy_nj() <= plain.energy_nj() + 1e-9);
    }

    #[test]
    fn crossbar_grid_mvm_is_exact(
        rows in 1usize..=40,
        cols in 1usize..=24,
        seed in 0u64..1000,
        shape in arb_shape()
    ) {
        // Any FC-shaped weight matrix, any candidate crossbar: the mapped
        // grid MVM equals the integer reference.
        let layer = Layer::fc(0, rows, cols);
        let w = synthetic_weights(&layer, seed);
        let ml = MappedLayer::program(&layer, shape, &w, &CostParams::default());
        let input: Vec<u8> = (0..rows).map(|i| ((seed as usize + i * 37) % 256) as u8).collect();
        let (wq, _) = quantize_matrix(&w, 8);
        let xi: Vec<i32> = input.iter().map(|&x| x as i32).collect();
        let expect: Vec<i64> = mvm_i32(&wq, &xi).into_iter().map(i64::from).collect();
        prop_assert_eq!(ml.mvm(&input, &Adc::new(10)), expect);
    }

    #[test]
    fn allocation_grant_always_covers_demand(
        cin in 1usize..128, cout in 1usize..256, cap in 1u32..16, shape in arb_shape()
    ) {
        let model = ModelBuilder::new("p", Dataset::Cifar10).conv_spec(cout, 3, 1, 1).build();
        let _ = cin; // geometry is driven by the dataset's 3 channels
        let alloc = allocate_tile_based(&model, &[shape], cap);
        prop_assert!(alloc.allocated_xbars() >= alloc.occupied_xbars());
        prop_assert_eq!(alloc.per_layer.len(), 1);
        prop_assert!(alloc.per_layer[0].tiles * cap as u64 >= alloc.per_layer[0].footprint.total_xbars());
    }

    #[test]
    fn eval_engine_is_bit_identical_to_direct_evaluate(
        layers in prop::collection::vec((0usize..3, 0usize..5), 1..12),
        palette in prop::collection::vec(0usize..10, 1..=3),
        shared in any::<bool>(),
        cap in prop::sample::select(vec![1u32, 2, 3, 4, 5, 8, 16])
    ) {
        // The memoized engine must reproduce `evaluate` *exactly* — same
        // float accumulation order, so bit-identical reports, `{:?}`
        // included — whether the answer comes from a cold compose, the
        // layer memo, or the strategy cache, and across tile sharing and
        // tile width. Layers up to 160 channels wide span several
        // tiles, so full tiles precede each layer's partial one, and every
        // strategy draws from at most three shapes, so same-shape partial
        // tiles from different layers combine.
        let pool = all_candidates();
        let strategy: Vec<XbarShape> = layers
            .iter()
            .map(|&(slot, _)| pool[palette[slot % palette.len()]])
            .collect();
        let mut b = ModelBuilder::new("p", Dataset::Cifar10);
        for &(_, width) in &layers {
            b = b.conv([4, 8, 24, 64, 160][width], 3);
        }
        let model = b.build();
        let mut cfg = AccelConfig::default().with_pes_per_tile(cap);
        if shared {
            cfg = cfg.with_tile_sharing();
        }
        let direct = evaluate(&model, &strategy, &cfg);
        let engine = EvalEngine::new(model, cfg);
        // Cold layer memo, no strategy cache involved.
        let fresh = engine.evaluate_fresh(&strategy);
        prop_assert_eq!(format!("{fresh:?}"), format!("{direct:?}"));
        // Warm layer memo, strategy-cache miss then hit.
        prop_assert_eq!(engine.evaluate(&strategy), direct.clone());
        prop_assert_eq!(engine.evaluate(&strategy), direct);
        prop_assert!(engine.stats().strategy_hits >= 1);
    }

    #[test]
    fn eval_report_metrics_are_finite_and_positive(
        sides in prop::collection::vec(prop::sample::select(vec![32u32, 64, 256]), 1..4)
    ) {
        let mut b = ModelBuilder::new("p", Dataset::Mnist);
        for _ in &sides {
            b = b.conv(16, 3);
        }
        let model = b.build();
        let strategy: Vec<XbarShape> = sides.iter().map(|&s| XbarShape::square(s)).collect();
        let r = evaluate(&model, &strategy, &AccelConfig::default());
        for v in [r.utilization, r.energy_nj(), r.latency_ns, r.area_um2, r.rue()] {
            prop_assert!(v.is_finite() && v > 0.0);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn depthwise_footprint_invariants(
        channels in 1usize..256,
        k in prop_oneof![Just(3usize), Just(5)],
        shape in arb_shape()
    ) {
        let l = Layer::depthwise(0, channels, k, 1, k / 2, 32);
        let fp = footprint(&l, shape);
        let u = fp.utilization();
        prop_assert!(u > 0.0 && u <= 1.0 + 1e-12);
        prop_assert_eq!(fp.used_cells, (channels * k * k) as u64);
        // Diagonal packing can never beat the dense bound.
        let dense = Layer::conv(0, channels, channels, k, 1, k / 2, 32);
        prop_assert!(fp.total_xbars() >= 1);
        let _ = footprint(&dense, shape);
    }

    #[test]
    fn pipeline_speedup_is_monotone_and_bounded(
        sides in prop::collection::vec(prop::sample::select(vec![32u32, 64, 256]), 2..6)
    ) {
        use autohet_accel::pipeline::pipeline_report;
        let mut b = ModelBuilder::new("p", Dataset::Cifar10);
        for _ in &sides {
            b = b.conv(8, 3);
        }
        let model = b.build();
        let strategy: Vec<XbarShape> = sides.iter().map(|&s| XbarShape::square(s)).collect();
        let r = pipeline_report(&model, &strategy, &AccelConfig::default());
        let asymptote = r.fill_ns / r.bottleneck_ns;
        let mut prev = 0.0;
        for n in [1usize, 2, 8, 64, 4096] {
            let s = r.speedup(n);
            prop_assert!(s >= prev - 1e-12);
            prop_assert!(s <= asymptote + 1e-9);
            prev = s;
        }
    }

    #[test]
    fn strategy_persistence_round_trips(
        idx in prop::collection::vec(0usize..10, 1..40)
    ) {
        use autohet::persist::{strategy_from_str, strategy_to_string};
        let pool = all_candidates();
        let strategy: Vec<XbarShape> = idx.iter().map(|&i| pool[i]).collect();
        let text = strategy_to_string(&strategy, "prop");
        prop_assert_eq!(strategy_from_str(&text).unwrap(), strategy);
    }
}

/// Tensor argmax agrees with a brute scan (plain test, not proptest, to
/// cover the empty case too).
#[test]
fn tensor_argmax_brute_force() {
    let t = Tensor::from_vec(vec![5], vec![0.1, -0.2, 0.9, 0.9, 0.3]);
    assert_eq!(t.argmax(), Some(2));
}

//! Property-based contracts of the device-variation subsystem
//! (DESIGN.md §11): the packed variation MVM must be **bit-identical**
//! to the retained scalar-variation reference for every shape / seed /
//! operation-unit size / ADC resolution, the Monte-Carlo robustness
//! oracle must be a pure function of its seeds, and NSGA-II fronts must
//! honour their dominance invariants.

use autohet::pareto::dominates_min;
use autohet::prelude::*;
use autohet::robust::NsgaConfig;
use autohet_accel::robustness::layer_noise;
use autohet_dnn::Layer;
use autohet_xbar::{Adc, CostParams, Crossbar, DriftModel, VariedCrossbar, XbarShape};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

/// A programmed 1-bit-cell crossbar of arbitrary geometry and weight
/// precision with one sampled variation draw, an input vector, and an
/// ADC resolution. Shapes run up to the paper's 108×64 bit-serial
/// configuration, unit sizes over every supported S_ou, and weights over
/// 2..=8 bits, so some of the table's byte lanes go unused.
#[derive(Debug)]
struct Varied {
    xb: Crossbar,
    /// The model the draw's cell currents follow.
    device: VariationModel,
    /// The readout reference the draw was sampled with.
    reference: VariationModel,
    /// The other reference of the (factory, drifted) pair.
    other: VariationModel,
    seed: u64,
    varied: VariedCrossbar,
    input: Vec<u8>,
    adc_bits: u32,
}

/// The (device, reference) pair is one of: both factory; a drifted
/// device read with the factory reference (stale); or drifted both
/// (recalibrated).
fn arb_varied() -> impl Strategy<Value = Varied> {
    (
        (
            1usize..=108,
            1usize..=64,
            prop_oneof![Just(1u32), Just(2), Just(4), Just(8)],
            2u32..=12,
        ),
        (2u32..=8, 0u8..3, 100.0f64..20_000.0),
        (any::<u64>(), any::<u64>()),
    )
        .prop_map(
            |((rows, cols, s_ou, adc_bits), (weight_bits, pair, t_hours), (weight_seed, seed))| {
                let mut rng = SmallRng::seed_from_u64(weight_seed);
                let offset = 1i32 << (weight_bits - 1);
                let weights: Vec<Vec<i32>> = (0..rows)
                    .map(|_| (0..cols).map(|_| rng.gen_range(-offset..offset)).collect())
                    .collect();
                let shape = XbarShape::new(rows.next_power_of_two().max(4) as u32, cols as u32);
                let xb = Crossbar::program(shape, &weights, weight_bits);
                let factory = VariationModel {
                    s_ou,
                    ..VariationModel::hypermetric()
                };
                let drifted = DriftModel {
                    base: factory,
                    ..DriftModel::nominal()
                }
                .variation_at(t_hours);
                let (device, reference, other) = match pair {
                    0 => (factory, factory, drifted),
                    1 => (drifted, factory, drifted),
                    _ => (drifted, drifted, factory),
                };
                let varied = VariedCrossbar::sample_with_reference(&xb, &device, &reference, seed);
                let input: Vec<u8> = (0..rows).map(|_| rng.gen()).collect();
                Varied {
                    xb,
                    device,
                    reference,
                    other,
                    seed,
                    varied,
                    input,
                    adc_bits,
                }
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    // Packed LUT fast path == scalar per-threshold reference, bit for
    // bit, across shapes, seeds, unit sizes, weight precisions, stale
    // and recalibrated readouts and saturating ADCs.
    #[test]
    fn packed_variation_mvm_matches_scalar_reference(case in arb_varied()) {
        let adc = Adc::new(case.adc_bits);
        prop_assert_eq!(
            case.varied.mvm(&case.input, &adc),
            case.varied.mvm_scalar(&case.input, &adc)
        );
    }

    // One device draw re-read against the pair's other reference is the
    // fresh draw with that reference, bit for bit, and both match the
    // scalar reference; reading back the first reference restores the
    // original draw.
    #[test]
    fn rereferenced_draw_matches_a_fresh_draw(case in arb_varied()) {
        let adc = Adc::new(case.adc_bits);
        let mut reread = case.varied.clone();
        reread.rereference(&case.other);
        let fresh =
            VariedCrossbar::sample_with_reference(&case.xb, &case.device, &case.other, case.seed);
        let out = fresh.mvm(&case.input, &adc);
        prop_assert_eq!(reread.mvm(&case.input, &adc), out.clone());
        prop_assert_eq!(reread.mvm_scalar(&case.input, &adc), out.clone());
        prop_assert_eq!(fresh.mvm_scalar(&case.input, &adc), out);
        reread.rereference(&case.reference);
        prop_assert_eq!(
            reread.mvm(&case.input, &adc),
            case.varied.mvm(&case.input, &adc)
        );
    }

    // Sampling is a pure function of (crossbar, model, seed).
    #[test]
    fn variation_sampling_is_seed_deterministic(
        case in arb_varied(),
        other_seed in any::<u64>(),
    ) {
        let (xb, input) = (&case.xb, &case.input);
        let again = VariedCrossbar::sample(xb, case.varied.model(), 0xD5AA_11CE);
        let twice = VariedCrossbar::sample(xb, case.varied.model(), 0xD5AA_11CE);
        let adc = Adc::new(case.adc_bits);
        prop_assert_eq!(again.mvm(input, &adc), twice.mvm(input, &adc));
        // And an ideal draw reproduces the noise-free crossbar exactly,
        // whatever the seed.
        let exact = VariedCrossbar::sample(xb, &VariationModel {
            s_ou: case.varied.model().s_ou,
            ..VariationModel::ideal()
        }, other_seed);
        prop_assert_eq!(exact.mvm(input, &adc), xb.mvm(input, &adc));
    }

    // The Monte-Carlo noise oracle is deterministic in its config and
    // independent of evaluation order or engine sharing.
    #[test]
    fn layer_noise_is_seed_deterministic(
        cin in 1usize..=6,
        cout in 1usize..=16,
        seed in any::<u64>(),
    ) {
        let layer = Layer::conv(0, cin, cout, 3, 1, 1, 8);
        let cfg = NoiseEvalConfig {
            draws: 2,
            probes: 2,
            seed,
            ..NoiseEvalConfig::default()
        };
        let cost = CostParams::default();
        let shape = XbarShape::new(72, 64);
        let a = layer_noise(&layer, shape, &cost, &cfg);
        let b = layer_noise(&layer, shape, &cost, &cfg);
        prop_assert_eq!(a.mean_dev.to_bits(), b.mean_dev.to_bits());
        prop_assert_eq!(a.worst_dev.to_bits(), b.worst_dev.to_bits());
        prop_assert_eq!(a.exact_rate.to_bits(), b.exact_rate.to_bits());
        prop_assert_eq!(a.argmax_rate.to_bits(), b.argmax_rate.to_bits());
    }
}

fn quick_nsga() -> NsgaConfig {
    NsgaConfig {
        population: 8,
        generations: 2,
        seed: 5,
        ..NsgaConfig::default()
    }
}

/// A fresh MicroCNN engine on the default accelerator whose device
/// deviations are the HyperMetric ones scaled by `scale`.
fn noisy_micro_engine(scale: f64) -> Arc<EvalEngine> {
    let noise = NoiseEvalConfig {
        variation: VariationModel::hypermetric().with_deviation_scale(scale),
        draws: 2,
        probes: 2,
        ..NoiseEvalConfig::default()
    };
    let engine = EvalEngine::new(autohet_dnn::zoo::micro_cnn(), AccelConfig::default());
    Arc::new(engine.with_noise(noise))
}

/// No member of a final NSGA front may dominate another, whatever the
/// noise level; duplicated strategies never survive deduplication.
#[test]
fn nsga_front_members_are_mutually_non_dominated() {
    for scale in [1.0, 0.5] {
        let out = nsga_search(
            noisy_micro_engine(scale),
            &paper_hybrid_candidates(),
            &quick_nsga(),
        );
        assert!(!out.front.is_empty());
        for a in &out.front {
            for b in &out.front {
                assert!(
                    !dominates_min(&a.objectives(), &b.objectives())
                        || a.objectives() == b.objectives(),
                    "front member dominated at scale {scale}"
                );
            }
        }
        for (i, a) in out.front.iter().enumerate() {
            for b in &out.front[i + 1..] {
                assert_ne!(a.strategy, b.strategy, "duplicate strategy on front");
            }
        }
    }
}

/// Tightening the device deviations can only shrink the front's noise
/// axis: the best (and worst) front noise deviation is non-increasing as
/// the lognormal sigmas scale down, and a zero-deviation model collapses
/// the axis to exactly 0 (where the 3-objective front degenerates to the
/// 2-objective energy × latency trade-off).
#[test]
fn fronts_shrink_monotonically_under_tighter_noise() {
    let run = |scale: f64| {
        nsga_search(
            noisy_micro_engine(scale),
            &paper_hybrid_candidates(),
            &quick_nsga(),
        )
    };
    let fronts: Vec<_> = [1.0, 0.5, 0.0].iter().map(|&s| run(s)).collect();
    let worst = |o: &RobustSearchOutcome| o.front.iter().map(|p| p.noise_dev).fold(0.0, f64::max);
    let best = |o: &RobustSearchOutcome| {
        o.front
            .iter()
            .map(|p| p.noise_dev)
            .fold(f64::INFINITY, f64::min)
    };
    for w in fronts.windows(2) {
        assert!(
            worst(&w[1]) <= worst(&w[0]) + 1e-12,
            "worst front noise rose under tighter deviations"
        );
        assert!(
            best(&w[1]) <= best(&w[0]) + 1e-12,
            "best front noise rose under tighter deviations"
        );
    }
    for p in &fronts[2].front {
        assert_eq!(p.noise_dev, 0.0);
        assert_eq!(p.accuracy_proxy, 1.0);
    }
}

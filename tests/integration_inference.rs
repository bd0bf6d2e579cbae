//! Cross-crate integration: functional inference through programmed
//! crossbars vs the floating-point golden model, including searched
//! strategies, and the same crossbars read under device variation.

use autohet::prelude::*;
use autohet_accel::MappedModel;
use autohet_dnn::ops::{self, synthetic_weights};
use autohet_dnn::{zoo, LayerKind, Model, Stage, Tensor};
use autohet_rl::DdpgConfig;
use autohet_xbar::CostParams;

fn float_reference(model: &Model, img: &Tensor, seed: u64) -> Tensor {
    let weights: Vec<Tensor> = model
        .layers
        .iter()
        .map(|l| synthetic_weights(l, seed))
        .collect();
    let last = model.layers.len() - 1;
    let mut act = img.clone();
    for stage in &model.stages {
        match *stage {
            Stage::Pool(w) => act = ops::max_pool(&act, w),
            Stage::Layer(i) => {
                let l = &model.layers[i];
                act = match l.kind {
                    LayerKind::DepthwiseConv => ops::depthwise_conv2d(l, &act, &weights[i]),
                    LayerKind::Conv => ops::conv2d(l, &act, &weights[i]),
                    LayerKind::Fc => Tensor::from_vec(
                        vec![l.out_channels],
                        ops::fully_connected(act.data(), &weights[i]),
                    ),
                };
                if i != last {
                    ops::relu(&mut act);
                }
            }
        }
    }
    act
}

#[test]
fn searched_strategy_preserves_numerics_on_micro_cnn() {
    // Search a heterogeneous configuration, then actually run inference
    // through it: accuracy must match the float model's decisions.
    let m = zoo::micro_cnn();
    let outcome = rl_search(
        &m,
        &paper_hybrid_candidates(),
        &AccelConfig::default().with_tile_sharing(),
        &RlSearchConfig {
            episodes: 30,
            ddpg: DdpgConfig {
                seed: 5,
                hidden: 32,
                batch: 32,
                ..DdpgConfig::default()
            },
            train_steps: 2,
            ..RlSearchConfig::default()
        },
    );
    let mm = MappedModel::program_synthetic(&m, &outcome.best_strategy, 9, CostParams::default());
    let mut agree = 0;
    for i in 0..6 {
        let img = m.dataset.synthetic_image(i);
        let analog = mm.infer(&img);
        let float = float_reference(&m, &img, 9);
        if analog.argmax() == float.argmax() {
            agree += 1;
        }
    }
    assert!(agree >= 5, "only {agree}/6 classifications agree");
}

#[test]
fn logits_track_float_reference_within_tolerance() {
    let m = zoo::test_cnn();
    let strategy = vec![XbarShape::new(288, 256); m.layers.len()];
    let mm = MappedModel::program_synthetic(&m, &strategy, 3, CostParams::default());
    let img = m.dataset.synthetic_image(0);
    let analog = mm.infer(&img);
    let float = float_reference(&m, &img, 3);
    let scale = float.max_abs();
    for (a, f) in analog.data().iter().zip(float.data()) {
        assert!(
            (a - f).abs() / scale < 0.1,
            "logit drift: crossbar {a} vs float {f}"
        );
    }
}

#[test]
fn mild_device_variation_keeps_decisions_heavy_faults_break_numerics() {
    // The engine's accuracy-under-noise oracle programs each layer's
    // representative crossbar block and reads it through seeded
    // lognormal Ron/Roff draws, scaled from the HyperMetric corner.
    let m = zoo::micro_cnn();
    let strategy = vec![XbarShape::square(64); m.layers.len()];
    let robustness = |scale: f64| {
        let noise = NoiseEvalConfig {
            variation: VariationModel::hypermetric().with_deviation_scale(scale),
            ..NoiseEvalConfig::default()
        };
        EvalEngine::new(m.clone(), AccelConfig::default())
            .with_noise(noise)
            .evaluate_noisy(&strategy)
            .robustness
    };

    // Mild variation: the per-unit readout references absorb the spread,
    // so every output stays exact and every decision survives.
    let mild = robustness(0.2);
    assert_eq!(mild.accuracy_proxy, 1.0);
    assert_eq!(mild.mean_dev, 0.0);
    assert!(mild.per_layer.iter().all(|l| l.exact_rate == 1.0));

    // Twice the corner's spread: resistance tails cross the references
    // and corrupt the outputs of every layer measurably.
    let heavy = robustness(2.0);
    assert!(heavy.mean_dev > 0.0);
    assert!(heavy.accuracy_proxy < 1.0);
    assert!(heavy.per_layer.iter().all(|l| l.exact_rate < 1.0));
}

#[test]
fn alexnet_first_conv_runs_through_crossbars() {
    // One real paper-workload layer end to end (full AlexNet inference is
    // exercised at example scale; a single 28×28 conv keeps CI fast).
    let m = zoo::alexnet();
    let layer = m.layers[0];
    let w = synthetic_weights(&layer, 0);
    let ml = autohet_accel::MappedLayer::program(
        &layer,
        XbarShape::square(32),
        &w,
        &CostParams::default(),
    );
    let img = m.dataset.synthetic_image(1);
    let cols = ops::im2col(&layer, &img);
    // Quantize one presentation and compare against the integer product.
    let xq: Vec<u8> = (0..layer.weight_rows())
        .map(|r| (cols.at2(r, 0) * 255.0).round() as u8)
        .collect();
    let y = ml.mvm(&xq, &autohet_xbar::Adc::new(10));
    let (wq, _) = autohet_dnn::quant::quantize_matrix(&w, 8);
    let xi: Vec<i32> = xq.iter().map(|&v| v as i32).collect();
    let expect: Vec<i64> = ops::mvm_i32(&wq, &xi).into_iter().map(i64::from).collect();
    assert_eq!(y, expect);
}

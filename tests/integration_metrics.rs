//! Cross-crate integration: whole-model metric evaluation reproduces the
//! paper's qualitative claims on the real workloads.

use autohet::prelude::*;
use autohet_dnn::zoo;

#[test]
fn energy_decreases_with_crossbar_size_on_all_models() {
    // Fig. 9(c): across the square baselines, bigger crossbars mean fewer
    // peripherals and lower energy. Strictly monotone up to 256²; at 512²
    // ResNet152's many narrow (Cout ≤ 256) layers waste whole bitline
    // columns, so its minimum sits at 256² — a genuine crossover our
    // counting model exposes (EXPERIMENTS.md notes the divergence). The
    // robust claim: small crossbars are the energy disaster.
    for model in zoo::paper_models() {
        let cfg = AccelConfig::default();
        let energies: Vec<f64> = SQUARE_CANDIDATES
            .iter()
            .map(|&s| evaluate(&model, &vec![s; model.layers.len()], &cfg).energy_nj())
            .collect();
        for w in energies[..4].windows(2) {
            assert!(w[1] < w[0], "{}: {energies:?}", model.name);
        }
        // 512² stays far below the small-crossbar designs even where it
        // is not the exact minimum.
        assert!(
            energies[4] < 0.5 * energies[1],
            "{}: {energies:?}",
            model.name
        );
        assert!(energies[0] == energies.iter().cloned().fold(f64::MIN, f64::max));
    }
}

#[test]
fn area_decreases_monotonically_with_crossbar_size_on_vgg16() {
    // Table 5's trend.
    let m = zoo::vgg16();
    let cfg = AccelConfig::default();
    let mut prev = f64::MAX;
    for shape in SQUARE_CANDIDATES {
        let a = evaluate(&m, &vec![shape; m.layers.len()], &cfg).area_um2;
        assert!(a < prev, "{shape}: area {a} !< {prev}");
        prev = a;
    }
}

#[test]
fn latency_spread_is_modest_as_in_table5() {
    // Table 5: all VGG16 accelerators land within ~1.3× in latency.
    let m = zoo::vgg16();
    let cfg = AccelConfig::default();
    let lats: Vec<f64> = SQUARE_CANDIDATES
        .iter()
        .map(|&s| evaluate(&m, &vec![s; m.layers.len()], &cfg).latency_ns)
        .collect();
    let (min, max) = lats
        .iter()
        .fold((f64::MAX, f64::MIN), |(lo, hi), &v| (lo.min(v), hi.max(v)));
    assert!(max / min < 1.5, "latency spread {}x", max / min);
    // And the magnitude is in the paper's ballpark (~2-3e6 ns).
    assert!(min > 5e5 && max < 2e7, "latencies {lats:?}");
}

#[test]
fn rue_magnitudes_track_model_scale() {
    // The paper's RUE axes: AlexNet ~1e-4, VGG16 ~1e-5, ResNet152 ~1e-7 —
    // RUE shrinks as workloads grow. Check the ordering and rough decades.
    let cfg = AccelConfig::default();
    let rue = |m: &autohet_dnn::Model| best_homogeneous(m, &cfg).1.rue();
    let alex = rue(&zoo::alexnet());
    let vgg = rue(&zoo::vgg16());
    let resnet = rue(&zoo::resnet152());
    assert!(alex > vgg && vgg > resnet, "{alex} {vgg} {resnet}");
    assert!(alex / resnet > 100.0, "three-order spread expected");
}

#[test]
fn tile_sharing_helps_every_paper_model() {
    for model in zoo::paper_models() {
        let strategy = vec![XbarShape::new(72, 64); model.layers.len()];
        let plain = evaluate(&model, &strategy, &AccelConfig::default());
        let shared = evaluate(
            &model,
            &strategy,
            &AccelConfig::default().with_tile_sharing(),
        );
        assert!(
            shared.tiles < plain.tiles,
            "{}: sharing freed no tiles",
            model.name
        );
        assert!(shared.utilization > plain.utilization);
        assert!(shared.rue() >= plain.rue());
    }
}

#[test]
fn pipelined_execution_beats_sequential_for_batches_on_vgg16() {
    use autohet_accel::pipeline::pipeline_report;
    let m = zoo::vgg16();
    let cfg = AccelConfig::default();
    let strategy = vec![XbarShape::new(288, 256); m.layers.len()];
    let seq = evaluate(&m, &strategy, &cfg);
    let pipe = pipeline_report(&m, &strategy, &cfg);
    // The pipeline's fill equals the sequential latency.
    assert!((pipe.fill_ns - seq.latency_ns).abs() / seq.latency_ns < 1e-9);
    assert!(pipe.speedup(64) > 2.0, "speedup {}", pipe.speedup(64));
}

#[test]
fn energy_breakdown_components_are_consistent() {
    let m = zoo::alexnet();
    let r = evaluate(
        &m,
        &vec![XbarShape::square(128); m.layers.len()],
        &AccelConfig::default(),
    );
    let e = &r.energy;
    let total = e.adc + e.dac + e.cell + e.shift_add + e.buffer + e.leakage;
    assert!((r.energy_nj() - total).abs() < 1e-6);
    assert!(e.adc > 0.0 && e.leakage > 0.0);
    // Per-layer dynamic energies sum to the dynamic part of the total.
    let dyn_sum: f64 = r.layers.iter().map(|l| l.dynamic_nj).sum();
    assert!((dyn_sum - (total - e.leakage)).abs() / total < 1e-9);
}

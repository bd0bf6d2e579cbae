//! Device-variation benchmarks (DESIGN.md §11): the packed
//! variation-aware MVM against the retained scalar reference and the
//! ideal packed kernel, variation sampling itself, and the Monte-Carlo
//! robustness evaluator end to end.

use autohet_accel::{AccelConfig, EvalEngine, NoiseEvalConfig};
use autohet_xbar::{Adc, Crossbar, VariationModel, VariedCrossbar, XbarShape};
use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use std::hint::black_box;

const ROWS: usize = 108;
const COLS: usize = 64;

fn programmed_108x64() -> Crossbar {
    let weights: Vec<Vec<i32>> = (0..ROWS)
        .map(|r| {
            (0..COLS)
                .map(|j| ((r * 31 + j * 7) % 255) as i32 - 127)
                .collect()
        })
        .collect();
    Crossbar::program(XbarShape::new(ROWS as u32, COLS as u32), &weights, 8)
}

fn probe_input() -> Vec<u8> {
    (0..ROWS).map(|i| (i * 53 % 256) as u8).collect()
}

/// The headline comparison: one 108×64 bit-serial MVM under HyperMetric
/// lognormal variation through (a) the packed LUT fast path and (b) the
/// scalar per-threshold reference, with (c) the ideal noise-free packed
/// kernel as the floor.
fn bench_variation_mvm(c: &mut Criterion) {
    let xb = programmed_108x64();
    let adc = Adc::new(10);
    let input = probe_input();
    let varied = VariedCrossbar::sample(&xb, &VariationModel::hypermetric(), 7);

    let mut g = c.benchmark_group("noise/variation_mvm");
    g.throughput(Throughput::Elements((ROWS * COLS) as u64));
    g.bench_function("fast_108x64", |b| {
        b.iter(|| black_box(varied.mvm(black_box(&input), &adc)))
    });
    g.bench_function("scalar_108x64", |b| {
        b.iter(|| black_box(varied.mvm_scalar(black_box(&input), &adc)))
    });
    g.bench_function("ideal_108x64", |b| {
        b.iter(|| black_box(xb.mvm(black_box(&input), &adc)))
    });
    g.finish();
}

/// Sampling cost: one lognormal draw over every cell plus the per-unit
/// readout LUT build — the once-per-draw setup the MC evaluator pays —
/// and the LUT build alone, which is all a second readout reference
/// of the same draw costs.
fn bench_sampling(c: &mut Criterion) {
    let xb = programmed_108x64();
    let model = VariationModel::hypermetric();
    let mut g = c.benchmark_group("noise/sample");
    g.throughput(Throughput::Elements((ROWS * COLS) as u64));
    let mut seed = 0u64;
    g.bench_function("sample_108x64", |b| {
        b.iter(|| {
            seed = seed.wrapping_add(1);
            black_box(VariedCrossbar::sample(&xb, &model, seed))
        })
    });
    let drifted = autohet_xbar::DriftModel::nominal().variation_at(3_000.0);
    let mut varied = VariedCrossbar::sample_with_reference(&xb, &drifted, &model, 7);
    let references = [model, drifted];
    let mut turn = 0;
    g.bench_function("rereference_108x64", |b| {
        b.iter(|| {
            turn ^= 1;
            varied.rereference(black_box(&references[turn]));
        })
    });
    g.finish();
}

/// The robustness evaluator end to end on micro_cnn: cold pays the
/// per-(layer, shape) Monte-Carlo once, warm replays it from the memo —
/// the regime an NSGA-II generation actually runs in.
fn bench_robust_eval(c: &mut Criterion) {
    let model = autohet_dnn::zoo::micro_cnn();
    let noise = NoiseEvalConfig {
        draws: 2,
        probes: 2,
        ..NoiseEvalConfig::default()
    };
    let strategy = vec![XbarShape::new(72, 64); model.layers.len()];
    let mut g = c.benchmark_group("noise/robust_eval");
    g.sample_size(10);
    g.bench_function("micro_cnn_cold", |b| {
        b.iter(|| {
            let engine = EvalEngine::new(model.clone(), AccelConfig::default()).with_noise(noise);
            black_box(engine.evaluate_noisy(black_box(&strategy)))
        })
    });
    let engine = EvalEngine::new(model.clone(), AccelConfig::default()).with_noise(noise);
    engine.evaluate_noisy(&strategy);
    g.bench_function("micro_cnn_warm", |b| {
        b.iter(|| black_box(engine.evaluate_noisy(black_box(&strategy))))
    });
    g.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_variation_mvm, bench_sampling, bench_robust_eval
}
criterion_main!(benches);

//! Micro-benchmarks of the substrate kernels every experiment leans on:
//! Eq. 4 footprints, Algorithm 1, the functional bit-sliced crossbar MVM,
//! and one DDPG training step.

use autohet_accel::controller::MappedLayer;
use autohet_accel::hierarchy::Tile;
use autohet_accel::tile_shared::combine_group;
use autohet_dnn::ops::synthetic_weights;
use autohet_dnn::Layer;
use autohet_rl::{Ddpg, DdpgConfig, Experience, Matrix};
use autohet_xbar::utilization::footprint;
use autohet_xbar::{Adc, CostParams, Crossbar, XbarShape};
use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use std::hint::black_box;

fn bench_footprint(c: &mut Criterion) {
    let layer = Layer::conv(0, 512, 512, 3, 1, 1, 4);
    c.bench_function("kernels/footprint_eq4", |b| {
        b.iter(|| black_box(footprint(black_box(&layer), XbarShape::new(576, 512))))
    });
}

fn bench_algorithm1(c: &mut Criterion) {
    let tiles: Vec<Tile> = (0..1000)
        .map(|i| {
            let mut t = Tile::new(i, XbarShape::square(64), 4);
            t.place(i, (i * 7 % 4 + 1) as u32);
            t
        })
        .collect();
    let mut g = c.benchmark_group("kernels/algorithm1");
    g.throughput(Throughput::Elements(tiles.len() as u64));
    g.bench_function("combine_1000_tiles", |b| {
        b.iter(|| {
            let mut ts = tiles.clone();
            black_box(combine_group(&mut ts))
        })
    });
    g.finish();
}

fn bench_crossbar_mvm(c: &mut Criterion) {
    let layer = Layer::conv(0, 12, 64, 3, 1, 1, 8);
    let ml = MappedLayer::program(
        &layer,
        XbarShape::square(64),
        &synthetic_weights(&layer, 0),
        &CostParams::default(),
    );
    let adc = Adc::new(10);
    let input: Vec<u8> = (0..layer.weight_rows())
        .map(|i| (i * 37 % 256) as u8)
        .collect();
    let mut g = c.benchmark_group("kernels/crossbar_mvm");
    g.throughput(Throughput::Elements(
        (layer.weight_rows() * layer.weight_cols()) as u64,
    ));
    g.bench_function("bit_serial_108x64", |b| {
        b.iter(|| black_box(ml.mvm(black_box(&input), &adc)))
    });
    // Batched entry point: 16 output-pixel columns through the same grid.
    let inputs: Vec<Vec<u8>> = (0..16)
        .map(|k| {
            (0..layer.weight_rows())
                .map(|i| ((i * 37 + k * 11) % 256) as u8)
                .collect()
        })
        .collect();
    g.throughput(Throughput::Elements(
        (inputs.len() * layer.weight_rows() * layer.weight_cols()) as u64,
    ));
    g.bench_function("batch16_108x64", |b| {
        b.iter(|| black_box(ml.mvm_batch(black_box(&inputs), &adc)))
    });
    // The apples-to-apples comparator for the batched walk: the same 16
    // inputs through 16 sequential single-input calls, materializing the
    // same `Vec<Vec<i64>>` a batch consumer holds.
    g.bench_function("seq16_108x64", |b| {
        b.iter(|| {
            let out: Vec<Vec<i64>> = black_box(&inputs).iter().map(|x| ml.mvm(x, &adc)).collect();
            black_box(out)
        })
    });
    g.finish();
}

/// Raw crossbar fast path vs the retained scalar reference on the larger
/// square candidates, fully populated.
fn bench_crossbar_shapes(c: &mut Criterion) {
    let mut g = c.benchmark_group("kernels/crossbar_mvm");
    for side in [256usize, 512] {
        let weights: Vec<Vec<i32>> = (0..side)
            .map(|r| {
                (0..side)
                    .map(|j| ((r * 31 + j * 7) % 255) as i32 - 127)
                    .collect()
            })
            .collect();
        let xb = Crossbar::program(XbarShape::square(side as u32), &weights, 8);
        let adc = Adc::new(10);
        let input: Vec<u8> = (0..side).map(|i| (i * 53 % 256) as u8).collect();
        g.throughput(Throughput::Elements((side * side) as u64));
        g.bench_function(format!("fast_{side}x{side}"), |b| {
            b.iter(|| black_box(xb.mvm(black_box(&input), &adc)))
        });
        g.bench_function(format!("scalar_{side}x{side}"), |b| {
            b.iter(|| black_box(xb.mvm_scalar(black_box(&input), &adc)))
        });
    }
    g.finish();
}

/// The three GEMM kernels the batched MLP training runs on, each one
/// 64×64 weight matrix against a 64-sample batch: the forward product
/// (`gemm`), the input-gradient product (`gemm_t`) and the weight-gradient
/// outer product (`outer`), versus per-sample matvecs.
fn bench_matmul(c: &mut Criterion) {
    let mut rng_vals = (0..64usize * 64).map(|i| ((i * 37) as f64 * 0.01).sin());
    let mut m = Matrix::zeros(64, 64);
    for v in m.data_mut() {
        *v = rng_vals.next().unwrap();
    }
    let xs: Vec<f64> = (0..64 * 64)
        .map(|i| ((i * 13) as f64 * 0.02).cos())
        .collect();
    let mut g = c.benchmark_group("kernels/matmul");
    g.throughput(Throughput::Elements((64 * 64 * 64) as u64));
    g.bench_function("gemm_64x64_b64", |b| {
        let mut out = Vec::new();
        b.iter(|| {
            m.matmul_fm(black_box(&xs), 64, &mut out);
            black_box(out.last().copied())
        })
    });
    g.bench_function("gemm_t_64x64_b64", |b| {
        let mut out = Vec::new();
        b.iter(|| {
            m.matmul_t_fm(black_box(&xs), 64, &mut out);
            black_box(out.last().copied())
        })
    });
    g.bench_function("outer_64x64_b64", |b| {
        let mut a = Matrix::zeros(64, 64);
        b.iter(|| {
            a.add_outer_batch_fm(black_box(&xs), black_box(&xs), 64);
            black_box(a.data()[0])
        })
    });
    g.bench_function("matvec_64x64_b64", |b| {
        b.iter(|| {
            let mut last = 0.0;
            for s in 0..64 {
                let y = m.matvec(black_box(&xs[s * 64..(s + 1) * 64]));
                last = y[63];
            }
            black_box(last)
        })
    });
    g.finish();
}

fn bench_ddpg(c: &mut Criterion) {
    let mut agent = Ddpg::new(DdpgConfig {
        state_dim: 10,
        ..DdpgConfig::default()
    });
    for i in 0..256 {
        let s: Vec<f64> = (0..10).map(|j| ((i * 10 + j) as f64).sin().abs()).collect();
        agent.remember(Experience {
            next_state: s.clone(),
            action: (i % 5) as f64 / 4.0,
            reward: s[0],
            done: i % 16 == 15,
            state: s,
        });
    }
    c.bench_function("kernels/ddpg_train_step", |b| {
        b.iter(|| black_box(agent.train_step()))
    });
    let state: Vec<f64> = (0..10).map(|i| i as f64 / 10.0).collect();
    c.bench_function("kernels/ddpg_act", |b| {
        b.iter(|| black_box(agent.act(black_box(&state))))
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_footprint, bench_algorithm1, bench_crossbar_mvm,
        bench_crossbar_shapes, bench_matmul, bench_ddpg
}
criterion_main!(benches);

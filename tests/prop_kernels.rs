//! Property-based contracts of the fast kernel layer (DESIGN.md §9):
//! the bit-packed crossbar MVM must be **bit-identical** to the retained
//! scalar reference for every shape / cell precision / ADC resolution /
//! noise state; the register-tiled GEMMs must equal their per-sample
//! oracles bit for bit at every shape (every tile remainder included),
//! and so must batched MLP forward/backward passes under every
//! activation; and seeded DDPG searches must be exactly reproducible.

use autohet::prelude::*;
use autohet_accel::controller::MappedLayer;
use autohet_dnn::ops::synthetic_weights;
use autohet_dnn::Layer;
use autohet_rl::{Activation, Adam, DdpgConfig, Matrix, Mlp};
use autohet_xbar::noise::NoiseModel;
use autohet_xbar::{Adc, CostParams, Crossbar, XbarShape};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// A programmed crossbar of arbitrary geometry and cell precision, with
/// an input vector matching its used rows. `cell_bits` ranges over every
/// divisor of the 8-bit weights, including the multi-level cells the
/// heterogeneous configurations use.
fn arb_programmed() -> impl Strategy<Value = (Crossbar, Vec<u8>, u32)> {
    (
        1usize..=96,
        1usize..=96,
        prop_oneof![Just(1u32), Just(2), Just(4), Just(8)],
        // ADC resolutions from heavily saturating (2-bit) to exact.
        2u32..=12,
        any::<u64>(),
    )
        .prop_map(|(rows, cols, cell_bits, adc_bits, seed)| {
            let mut rng = SmallRng::seed_from_u64(seed);
            let weights: Vec<Vec<i32>> = (0..rows)
                .map(|_| (0..cols).map(|_| rng.gen_range(-127..=127)).collect())
                .collect();
            let shape = XbarShape::new(rows.next_power_of_two().max(4) as u32, cols as u32);
            let xb = Crossbar::program_with_cells(shape, &weights, 8, cell_bits);
            let input: Vec<u8> = (0..rows).map(|_| rng.gen()).collect();
            (xb, input, adc_bits)
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    // Fast packed path == scalar reference, bit for bit, on clean
    // crossbars (saturating ADCs included).
    #[test]
    fn fast_mvm_matches_scalar_reference((xb, input, adc_bits) in arb_programmed()) {
        prop_assert!(xb.is_bit_packed());
        let adc = Adc::new(adc_bits);
        prop_assert_eq!(xb.mvm(&input, &adc), xb.mvm_scalar(&input, &adc));
    }

    // Stuck-at faults keep integer conductance levels — the packed path
    // must survive them and still agree with the scalar reference.
    #[test]
    fn fast_mvm_matches_scalar_under_stuck_at_faults(
        (mut xb, input, adc_bits) in arb_programmed(),
        fault_seed in any::<u64>(),
    ) {
        let model = NoiseModel { stuck_at_zero: 0.05, stuck_at_one: 0.05, ..NoiseModel::ideal() };
        xb.apply_noise(&model, &mut SmallRng::seed_from_u64(fault_seed));
        prop_assert!(xb.is_bit_packed(), "pure faults must keep the packed path");
        let adc = Adc::new(adc_bits);
        prop_assert_eq!(xb.mvm(&input, &adc), xb.mvm_scalar(&input, &adc));
    }

    // Analog conductance variation drops to the `f64` fallback — which
    // must still agree with the scalar reference exactly.
    #[test]
    fn dense_fallback_matches_scalar_under_variation(
        (mut xb, input, adc_bits) in arb_programmed(),
        noise_seed in any::<u64>(),
    ) {
        xb.apply_noise(&NoiseModel::variation(0.1), &mut SmallRng::seed_from_u64(noise_seed));
        prop_assert!(!xb.is_bit_packed(), "variation must drop the packed path");
        let adc = Adc::new(adc_bits);
        prop_assert_eq!(xb.mvm(&input, &adc), xb.mvm_scalar(&input, &adc));
    }

    // The batched entry point is exactly N independent MVMs.
    #[test]
    fn mvm_batch_is_n_scalar_mvms(
        (xb, input, adc_bits) in arb_programmed(),
        n in 1usize..=8,
    ) {
        let adc = Adc::new(adc_bits);
        let inputs: Vec<Vec<u8>> = (0..n)
            .map(|k| input.iter().map(|&v| v.rotate_left(k as u32)).collect())
            .collect();
        let batched = xb.mvm_batch(&inputs, &adc);
        prop_assert_eq!(batched.len(), n);
        for (out, x) in batched.iter().zip(&inputs) {
            prop_assert_eq!(out, &xb.mvm_scalar(x, &adc));
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    // A mapped layer's batched (and parallel) MVM equals its per-input
    // MVM — the controller splits/combines across the crossbar grid
    // identically either way.
    #[test]
    fn mapped_layer_batch_matches_per_input(
        cin in 1usize..=8,
        cout in 1usize..=24,
        seed in any::<u64>(),
    ) {
        let layer = Layer::conv(0, cin, cout, 3, 1, 1, 8);
        let ml = MappedLayer::program(
            &layer,
            XbarShape::square(64),
            &synthetic_weights(&layer, 0),
            &CostParams::default(),
        );
        let adc = Adc::new(10);
        let mut rng = SmallRng::seed_from_u64(seed);
        let inputs: Vec<Vec<u8>> = (0..5)
            .map(|_| (0..layer.weight_rows()).map(|_| rng.gen()).collect())
            .collect();
        let per_input: Vec<Vec<i64>> = inputs.iter().map(|x| ml.mvm(x, &adc)).collect();
        prop_assert_eq!(ml.mvm_batch(&inputs, &adc), per_input.clone());
        prop_assert_eq!(ml.mvm_batch_par(&inputs, &adc), per_input);
    }
}

/// One GEMM operand entry: ±0.0 one time in eight, a signed magnitude
/// anywhere from 1e-300 to 1e300 one time in four, and otherwise a value
/// in (-1, 1), where the order of a fold shows in its rounding.
fn entry(rng: &mut SmallRng) -> f64 {
    let sign = if rng.gen::<bool>() { -1.0 } else { 1.0 };
    match rng.gen_range(0..8) {
        0 => sign * 0.0,
        1 | 2 => sign * rng.gen_range(1.0..10.0) * 10f64.powi(rng.gen_range(-300..300)),
        _ => rng.gen_range(-1.0..1.0),
    }
}

fn entries(n: usize, rng: &mut SmallRng) -> Vec<f64> {
    (0..n).map(|_| entry(rng)).collect()
}

/// Bits of `v`, with every NaN mapped to one canonical NaN: the fold
/// contract covers signed zeros and infinities exactly, while NaN
/// payloads are unspecified (an overflowing fold reaches `inf - inf`).
fn bits(v: f64) -> u64 {
    if v.is_nan() {
        f64::NAN.to_bits()
    } else {
        v.to_bits()
    }
}

fn all_bits(vs: &[f64]) -> Vec<u64> {
    vs.iter().map(|&v| bits(v)).collect()
}

/// Feature-major (`cols × batch`) copy of a batch-major stack.
fn feature_major(xs: &[f64], batch: usize) -> Vec<f64> {
    let cols = xs.len() / batch;
    (0..cols * batch)
        .map(|i| xs[(i % batch) * cols + i / batch])
        .collect()
}

fn matrix(rows: usize, cols: usize, rng: &mut SmallRng) -> Matrix {
    let mut m = Matrix::zeros(rows, cols);
    m.data_mut().copy_from_slice(&entries(rows * cols, rng));
    m
}

/// A GEMM problem: a `rows × cols` matrix and a batch of `batch` samples.
fn arb_gemm() -> impl Strategy<Value = (usize, usize, usize, u64)> {
    (1usize..=70, 1usize..=70, 1usize..=70, any::<u64>())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    // matmul_fm over a feature-major batch == one matvec per sample.
    #[test]
    fn matmul_fm_is_per_sample_matvec((rows, cols, batch, seed) in arb_gemm()) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let m = matrix(rows, cols, &mut rng);
        let xs = entries(batch * cols, &mut rng);
        let mut yt = Vec::new();
        m.matmul_fm(&feature_major(&xs, batch), batch, &mut yt);
        for (s, x) in xs.chunks(cols).enumerate() {
            let y: Vec<f64> = (0..rows).map(|r| yt[r * batch + s]).collect();
            prop_assert_eq!(all_bits(&y), all_bits(&m.matvec(x)));
        }
    }

    // matmul_t_fm over a feature-major batch == one matvec_t per sample.
    #[test]
    fn matmul_t_fm_is_per_sample_matvec_t((rows, cols, batch, seed) in arb_gemm()) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let m = matrix(rows, cols, &mut rng);
        let gs = entries(batch * rows, &mut rng);
        let mut din = Vec::new();
        m.matmul_t_fm(&feature_major(&gs, batch), batch, &mut din);
        for (s, g) in gs.chunks(rows).enumerate() {
            let d: Vec<f64> = (0..cols).map(|c| din[c * batch + s]).collect();
            prop_assert_eq!(all_bits(&d), all_bits(&m.matvec_t(g)));
        }
    }

    // add_outer_batch_fm onto a nonzero gradient == add_outer per sample
    // in batch order.
    #[test]
    fn add_outer_batch_fm_is_per_sample_add_outer((rows, cols, batch, seed) in arb_gemm()) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let start = matrix(rows, cols, &mut rng);
        let gs = entries(batch * rows, &mut rng);
        let xs = entries(batch * cols, &mut rng);
        let mut batched = start.clone();
        batched.add_outer_batch_fm(&feature_major(&gs, batch), &xs, batch);
        let mut reference = start;
        for (g, x) in gs.chunks(rows).zip(xs.chunks(cols)) {
            reference.add_outer(g, x);
        }
        prop_assert_eq!(all_bits(batched.data()), all_bits(reference.data()));
    }
}

const ACTIVATIONS: [Activation; 4] = [
    Activation::Relu,
    Activation::Tanh,
    Activation::Sigmoid,
    Activation::Linear,
];

fn params(net: &Mlp) -> Vec<u64> {
    let mut out = Vec::new();
    net.for_each_param(|v| out.push(bits(v)));
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    // A random [in, h1, h2, out] network under any hidden/head activation
    // pair: batched forward and backward == per-sample forward and
    // backward in batch order, for the outputs, the accumulated parameter
    // gradients of the params-only backward (read through one Adam step)
    // and the input gradients of the input-only backward. Widths up to 70
    // reach every eight-row bias chunk and its remainder.
    #[test]
    fn batched_mlp_is_per_sample_mlp(
        dims in (1usize..=70, 1usize..=70, 1usize..=70, 1usize..=70),
        batch in 1usize..=70,
        hidden in 0usize..4,
        head in 0usize..4,
        seed in any::<u64>(),
    ) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let (n_in, h1, h2, n_out) = dims;
        let net = Mlp::new(
            &[n_in, h1, h2, n_out],
            ACTIVATIONS[hidden],
            ACTIVATIONS[head],
            &mut rng,
        );
        let xs = entries(batch * n_in, &mut rng);
        let gs = entries(batch * n_out, &mut rng);

        let mut batched = net.clone();
        batched.zero_grad();
        let ys = all_bits(batched.forward_batch(&xs, batch));
        batched.backward_batch(&gs);
        let dins = all_bits(batched.backward_input_only_batch(&gs));
        batched.adam_step(&mut Adam::new(1e-3), batch as f64);

        let mut reference = net;
        reference.zero_grad();
        let (mut ys_ref, mut dins_ref) = (Vec::new(), Vec::new());
        for (x, g) in xs.chunks(n_in).zip(gs.chunks(n_out)) {
            ys_ref.extend(all_bits(&reference.forward(x)));
            reference.backward(g);
            dins_ref.extend(all_bits(reference.backward_input_only_batch(g)));
        }
        reference.adam_step(&mut Adam::new(1e-3), batch as f64);

        prop_assert_eq!(ys, ys_ref);
        prop_assert_eq!(dins, dins_ref);
        prop_assert_eq!(params(&batched), params(&reference));
    }
}

/// Two identical seeded RL searches must produce identical episode
/// histories — the batched GEMM training path keeps every accumulation
/// in fixed order, so DDPG updates are exactly reproducible.
#[test]
fn seeded_ddpg_search_is_bit_reproducible() {
    let run = || {
        let m = autohet_dnn::zoo::micro_cnn();
        let cfg = AccelConfig::default().with_tile_sharing();
        let cands = paper_hybrid_candidates();
        let scfg = RlSearchConfig {
            episodes: 40,
            ddpg: DdpgConfig {
                seed: 11,
                hidden: 32,
                batch: 16,
                ..DdpgConfig::default()
            },
            train_steps: 2,
            ..RlSearchConfig::default()
        };
        rl_search(&m, &cands, &cfg, &scfg)
            .history
            .iter()
            .map(|e| (e.episode, e.rue.to_bits(), e.reward.to_bits()))
            .collect::<Vec<_>>()
    };
    let a = run();
    assert_eq!(a, run());
    assert_eq!(a.len(), 40);
}

//! The global controller: programs DNN weights into functional crossbars
//! and drives numerical inference through them (paper Fig. 6's GC, which
//! "decodes CPU instructions and controls the heterogeneous DNN mapping
//! and inference").
//!
//! The data path per layer is exactly the hardware's: activations are
//! quantized to unsigned 8-bit, im2col'd so every output pixel is one MVM,
//! sliced into the crossbar grid's row ranges, pushed through each
//! programmed [`Crossbar`] bit-serially, partial sums accumulated by the
//! digital adder tree across grid rows, and results dequantized. The end
//! result must match the floating-point reference within quantization
//! error — the integration tests assert exactly that.

use crate::mapping::{col_ranges, row_ranges};
use autohet_dnn::ops::{self, im2col};
use autohet_dnn::quant::{quantize_matrix, Quantizer};
use autohet_dnn::{Layer, LayerKind, Model, Stage, Tensor};
use autohet_xbar::{Adc, CostParams, Crossbar, PackedInput, XbarShape};
use std::cell::RefCell;
use std::ops::Range;

/// Reusable layer-level MVM buffers: the shared packed input (one pack per
/// grid-row slice, reused across every crossbar in that grid row).
#[derive(Debug, Default)]
struct LayerScratch {
    packed: PackedInput,
    /// Per-batch-element packed slices for [`MappedLayer::mvm_batch`]'s
    /// crossbar-outer walk (one pack per input, refilled per grid row).
    packs: Vec<PackedInput>,
}

thread_local! {
    /// Per-thread scratch so [`MappedLayer::mvm`] stays allocation-free
    /// under the existing `&self` signature, including when one mapped
    /// model is shared across inference worker threads.
    static LAYER_SCRATCH: RefCell<LayerScratch> = RefCell::new(LayerScratch::default());
}

/// One layer programmed onto its crossbar grid.
#[derive(Debug, Clone)]
pub struct MappedLayer {
    /// Layer geometry.
    pub layer: Layer,
    /// Crossbar shape the strategy assigned.
    pub shape: XbarShape,
    /// Crossbars, `grid[row][col]`, each holding its weight block. For
    /// depthwise layers the grid is diagonal: `grid[i]` holds exactly one
    /// crossbar covering `row_ranges[i]` × `col_ranges[i]`.
    grid: Vec<Vec<Crossbar>>,
    row_ranges: Vec<Range<usize>>,
    col_ranges: Vec<Range<usize>>,
    /// Diagonal (depthwise) layout instead of the dense cartesian grid.
    diagonal: bool,
    /// Weight quantizer (for dequantizing results).
    pub w_quant: Quantizer,
}

impl MappedLayer {
    /// Quantize `weights` (the layer's kernel matrix — `Cin·k² × Cout`
    /// unfolded for dense layers, `k² × channels` for depthwise) and
    /// program them across a grid of `shape` crossbars.
    pub fn program(layer: &Layer, shape: XbarShape, weights: &Tensor, p: &CostParams) -> Self {
        let (er, ec) = layer.kernel_matrix_shape();
        assert_eq!(
            weights.shape(),
            &[er, ec],
            "weights must be the kernel matrix"
        );
        if layer.kind == LayerKind::DepthwiseConv {
            return Self::program_depthwise(layer, shape, weights, p);
        }
        let (wq, quant) = quantize_matrix(weights, p.weight_bits);
        let rr = row_ranges(layer, shape);
        let cc = col_ranges(layer, shape);
        let mut grid = Vec::with_capacity(rr.len());
        for r in &rr {
            let mut row = Vec::with_capacity(cc.len());
            for c in &cc {
                let block: Vec<Vec<i32>> = wq[r.clone()]
                    .iter()
                    .map(|full_row| full_row[c.clone()].to_vec())
                    .collect();
                row.push(Crossbar::program_with_cells(
                    shape,
                    &block,
                    p.weight_bits,
                    p.cell_bits,
                ));
            }
            grid.push(row);
        }
        MappedLayer {
            layer: *layer,
            shape,
            grid,
            row_ranges: rr,
            col_ranges: cc,
            diagonal: false,
            w_quant: quant,
        }
    }

    /// Depthwise programming: kernels pack block-diagonally — channel `c`
    /// of a crossbar's chunk occupies rows `[c·k², (c+1)·k²)` and column
    /// `c`, every other cell stays at zero conductance. This is exactly
    /// the diagonal footprint `autohet_xbar::utilization` counts.
    fn program_depthwise(
        layer: &Layer,
        shape: XbarShape,
        weights: &Tensor,
        p: &CostParams,
    ) -> Self {
        let (wq, quant) = quantize_matrix(weights, p.weight_bits);
        let k2 = layer.kernel_elems();
        let channels = layer.in_channels;
        let fp = autohet_xbar::utilization::footprint(layer, shape);
        let per_xb = fp.kernels_per_column as usize;
        assert!(
            per_xb >= 1,
            "kernel taller than crossbar: depthwise inference unsupported on {shape}"
        );

        let mut grid = Vec::new();
        let mut rr = Vec::new();
        let mut cc = Vec::new();
        let mut start = 0;
        while start < channels {
            let end = (start + per_xb).min(channels);
            let n = end - start;
            let mut block = vec![vec![0_i32; n]; n * k2];
            for local in 0..n {
                for e in 0..k2 {
                    block[local * k2 + e][local] = wq[e][start + local];
                }
            }
            grid.push(vec![Crossbar::program_with_cells(
                shape,
                &block,
                p.weight_bits,
                p.cell_bits,
            )]);
            rr.push(start * k2..end * k2);
            cc.push(start..end);
            start = end;
        }
        MappedLayer {
            layer: *layer,
            shape,
            grid,
            row_ranges: rr,
            col_ranges: cc,
            diagonal: true,
            w_quant: quant,
        }
    }

    /// Grid dimensions `(rows, cols)`.
    pub fn grid_dims(&self) -> (usize, usize) {
        (self.grid.len(), self.grid.first().map_or(0, Vec::len))
    }

    /// One full weight-matrix MVM: slice the quantized input vector by
    /// grid-row ranges, run every crossbar, and merge partial sums across
    /// grid rows (the adder tree). Returns `Cout` integer accumulations.
    ///
    /// Each grid-row slice is bit-packed once and reused across every
    /// crossbar in that grid row (DESIGN.md §9); buffers come from a
    /// thread-local scratch, so repeated calls allocate only their result.
    pub fn mvm(&self, input_q: &[u8], adc: &Adc) -> Vec<i64> {
        LAYER_SCRATCH.with(|s| self.mvm_with_scratch(input_q, adc, &mut s.borrow_mut()))
    }

    fn mvm_with_scratch(&self, input_q: &[u8], adc: &Adc, s: &mut LayerScratch) -> Vec<i64> {
        assert_eq!(input_q.len(), self.layer.weight_rows());
        let mut out = vec![0_i64; self.layer.weight_cols()];
        if self.diagonal {
            // Depthwise: crossbar i independently produces the channels of
            // its chunk — no cross-crossbar partial sums.
            for (i, (rrange, crange)) in self.row_ranges.iter().zip(&self.col_ranges).enumerate() {
                s.packed.pack(&input_q[rrange.clone()]);
                self.grid[i][0].mvm_packed_into(&s.packed, adc, &mut out[crange.clone()]);
            }
            return out;
        }
        // Each crossbar accumulates directly into its output-column window
        // (the adder tree) — no per-crossbar partial vector is allocated.
        for (ri, rrange) in self.row_ranges.iter().enumerate() {
            s.packed.pack(&input_q[rrange.clone()]);
            for (ci, crange) in self.col_ranges.iter().enumerate() {
                self.grid[ri][ci].mvm_packed_into(&s.packed, adc, &mut out[crange.clone()]);
            }
        }
        out
    }

    /// Batched MVM: one output row per input vector, each bit-identical to
    /// a [`MappedLayer::mvm`] call on that input. The whole batch shares
    /// one scratch.
    ///
    /// The walk is crossbar-outer rather than input-outer: per grid row,
    /// every input's slice is packed once, then each crossbar runs the
    /// whole batch while its packed weight planes stay hot in cache —
    /// at batch `B` each crossbar's weights are streamed once instead of
    /// `B` times. Per-output accumulation order (grid rows ascending)
    /// matches the single-input path, and the i64 adder tree is exact,
    /// so outputs are bit-identical to `B` sequential [`MappedLayer::mvm`]
    /// calls.
    pub fn mvm_batch(&self, inputs: &[Vec<u8>], adc: &Adc) -> Vec<Vec<i64>> {
        LAYER_SCRATCH.with(|s| self.mvm_batch_with_scratch(inputs, adc, &mut s.borrow_mut()))
    }

    fn mvm_batch_with_scratch(
        &self,
        inputs: &[Vec<u8>],
        adc: &Adc,
        s: &mut LayerScratch,
    ) -> Vec<Vec<i64>> {
        let rows = self.layer.weight_rows();
        let mut out: Vec<Vec<i64>> = inputs
            .iter()
            .map(|x| {
                assert_eq!(x.len(), rows);
                vec![0_i64; self.layer.weight_cols()]
            })
            .collect();
        if s.packs.len() < inputs.len() {
            s.packs.resize_with(inputs.len(), PackedInput::default);
        }
        for (ri, rrange) in self.row_ranges.iter().enumerate() {
            for (x, p) in inputs.iter().zip(&mut s.packs) {
                p.pack(&x[rrange.clone()]);
            }
            if self.diagonal {
                let crange = &self.col_ranges[ri];
                for (o, p) in out.iter_mut().zip(&s.packs) {
                    self.grid[ri][0].mvm_packed_into(p, adc, &mut o[crange.clone()]);
                }
            } else {
                for (ci, crange) in self.col_ranges.iter().enumerate() {
                    for (o, p) in out.iter_mut().zip(&s.packs) {
                        self.grid[ri][ci].mvm_packed_into(p, adc, &mut o[crange.clone()]);
                    }
                }
            }
        }
        out
    }

    /// Parallel batched MVM via [`crate::par::par_map`]: inputs are split
    /// over worker threads (each with its own thread-local scratch) and
    /// results come back in input order, bit-identical to the serial
    /// [`MappedLayer::mvm_batch`].
    pub fn mvm_batch_par(&self, inputs: &[Vec<u8>], adc: &Adc) -> Vec<Vec<i64>> {
        crate::par::par_map(inputs, |x| self.mvm(x, adc))
    }
}

/// A whole model programmed onto a heterogeneous accelerator.
#[derive(Debug, Clone)]
pub struct MappedModel {
    /// The source model (must have a linear-chain `stages` pipeline for
    /// [`MappedModel::infer`]).
    pub model: Model,
    /// Programmed layers, indexed like `model.layers`.
    pub layers: Vec<MappedLayer>,
    /// Cost parameters the model was programmed with.
    pub params: CostParams,
    adc: Adc,
}

impl MappedModel {
    /// Program `model` with per-layer `weights` under `strategy`.
    pub fn program(
        model: &Model,
        strategy: &[XbarShape],
        weights: &[Tensor],
        params: CostParams,
    ) -> Self {
        assert_eq!(strategy.len(), model.layers.len());
        assert_eq!(weights.len(), model.layers.len());
        let layers = model
            .layers
            .iter()
            .zip(strategy.iter().zip(weights))
            .map(|(l, (&shape, w))| MappedLayer::program(l, shape, w, &params))
            .collect();
        MappedModel {
            model: model.clone(),
            layers,
            adc: Adc::new(params.adc_bits),
            params,
        }
    }

    /// Program with deterministic synthetic weights (DESIGN.md §1).
    pub fn program_synthetic(
        model: &Model,
        strategy: &[XbarShape],
        seed: u64,
        params: CostParams,
    ) -> Self {
        let weights: Vec<Tensor> = model
            .layers
            .iter()
            .map(|l| ops::synthetic_weights(l, seed))
            .collect();
        Self::program(model, strategy, &weights, params)
    }

    /// The ADC used at inference time.
    pub fn adc(&self) -> Adc {
        self.adc
    }

    /// Run one image through the mapped accelerator. Requires a
    /// linear-chain model (`model.stages` non-empty); returns the final
    /// layer's activations (logits — no ReLU on the last stage).
    pub fn infer(&self, image: &Tensor) -> Tensor {
        assert!(
            !self.model.stages.is_empty(),
            "model {} has no inference pipeline (mapping-only model)",
            self.model.name
        );
        let last_layer = self.model.layers.len() - 1;
        let mut act = image.clone();
        for stage in &self.model.stages {
            match *stage {
                Stage::Pool(w) => act = ops::max_pool(&act, w),
                Stage::Layer(i) => {
                    let ml = &self.layers[i];
                    act = self.run_layer(ml, &act);
                    if i != last_layer {
                        ops::relu(&mut act);
                    }
                }
            }
        }
        act
    }

    /// Execute one mapped layer on an activation tensor, fanning a large
    /// conv-column batch out over worker threads.
    fn run_layer(&self, ml: &MappedLayer, act: &Tensor) -> Tensor {
        // Below this many MVMs the fork-join overhead beats the win.
        const PAR_COLS: usize = 8;
        let layer = &ml.layer;
        // Unsigned activation quantizer: activations are non-negative
        // (input image in [0,1), ReLU after every hidden layer).
        let amax = act.max_abs();
        let xscale = if amax == 0.0 { 1.0 } else { amax / 255.0 };
        let rescale = ml.w_quant.scale * xscale;

        match layer.kind {
            // Depthwise shares the conv data path: im2col already stacks
            // per-channel patches in the row order the diagonal grid uses.
            LayerKind::Conv | LayerKind::DepthwiseConv => {
                let cols = im2col(layer, act);
                let o = layer.out_size();
                let rows = layer.weight_rows();
                let mut out = Tensor::zeros(vec![layer.out_channels, o, o]);
                // Quantize every output pixel's patch up front, then push
                // the whole batch through the grid in one call.
                let xqs: Vec<Vec<u8>> = (0..o * o)
                    .map(|pcol| {
                        (0..rows)
                            .map(|r| quantize_act(cols.at2(r, pcol), xscale))
                            .collect()
                    })
                    .collect();
                let ys = if xqs.len() >= PAR_COLS {
                    ml.mvm_batch_par(&xqs, &self.adc)
                } else {
                    ml.mvm_batch(&xqs, &self.adc)
                };
                for (pcol, y) in ys.iter().enumerate() {
                    for (oc, &v) in y.iter().enumerate() {
                        *out.at3_mut(oc, pcol / o, pcol % o) = v as f32 * rescale;
                    }
                }
                out
            }
            LayerKind::Fc => {
                assert_eq!(act.len(), layer.weight_rows(), "fc input size mismatch");
                let xq: Vec<u8> = act
                    .data()
                    .iter()
                    .map(|&v| quantize_act(v, xscale))
                    .collect();
                let y = ml.mvm(&xq, &self.adc);
                Tensor::from_vec(
                    vec![layer.out_channels],
                    y.into_iter().map(|v| v as f32 * rescale).collect(),
                )
            }
        }
    }
}

/// Quantize one non-negative activation to u8 with the given scale.
#[inline]
fn quantize_act(v: f32, scale: f32) -> u8 {
    debug_assert!(v >= 0.0, "activations must be non-negative, got {v}");
    ((v / scale).round() as i64).clamp(0, 255) as u8
}

#[cfg(test)]
mod tests {
    use super::*;
    use autohet_dnn::ops::{mvm_i32, synthetic_weights};
    use autohet_dnn::{zoo, Dataset};
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    fn params() -> CostParams {
        CostParams::default()
    }

    #[test]
    fn mapped_layer_mvm_is_exact_over_integers() {
        // The grid-merged MVM must equal the plain integer MVM on the
        // quantized weight matrix, for square and rectangle shapes.
        let layer = Layer::conv(0, 12, 40, 3, 1, 1, 8);
        let w = synthetic_weights(&layer, 11);
        let (wq, _) = quantize_matrix(&w, 8);
        let mut rng = SmallRng::seed_from_u64(4);
        let input: Vec<u8> = (0..layer.weight_rows()).map(|_| rng.gen()).collect();
        let expect: Vec<i64> = {
            let xi: Vec<i32> = input.iter().map(|&x| x as i32).collect();
            mvm_i32(&wq, &xi).into_iter().map(i64::from).collect()
        };
        for shape in [
            XbarShape::square(32),
            XbarShape::new(36, 32),
            XbarShape::square(128),
        ] {
            let ml = MappedLayer::program(&layer, shape, &w, &params());
            assert_eq!(ml.mvm(&input, &Adc::new(10)), expect, "shape {shape}");
        }
    }

    #[test]
    fn grid_dims_match_footprint() {
        let layer = Layer::conv(0, 12, 128, 3, 1, 1, 16);
        let ml = MappedLayer::program(
            &layer,
            XbarShape::square(64),
            &synthetic_weights(&layer, 0),
            &params(),
        );
        assert_eq!(ml.grid_dims(), (2, 2));
    }

    #[test]
    fn inference_matches_float_reference_within_quant_error() {
        // End-to-end: the mapped accelerator's logits track the float
        // golden model closely on a small CNN.
        let m = zoo::test_cnn();
        let strategy = vec![XbarShape::new(72, 64); m.layers.len()];
        let mm = MappedModel::program_synthetic(&m, &strategy, 42, params());
        let img = Dataset::Cifar10.synthetic_image(1);

        // Float reference through the same pipeline.
        let weights: Vec<Tensor> = m.layers.iter().map(|l| synthetic_weights(l, 42)).collect();
        let mut act = img.clone();
        let last = m.layers.len() - 1;
        for stage in &m.stages {
            match *stage {
                Stage::Pool(w) => act = ops::max_pool(&act, w),
                Stage::Layer(i) => {
                    let l = &m.layers[i];
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

        let logits = mm.infer(&img);
        assert_eq!(logits.shape(), act.shape());
        let scale = act.max_abs().max(1e-6);
        for (a, b) in logits.data().iter().zip(act.data()) {
            let rel = (a - b).abs() / scale;
            assert!(rel < 0.08, "crossbar {a} vs float {b} (rel {rel})");
        }
        // And the classification decision agrees.
        assert_eq!(logits.argmax(), act.argmax());
    }

    #[test]
    fn heterogeneous_strategies_give_identical_numerics() {
        // Crossbar shape is a layout choice; results must be bit-identical
        // across strategies (the ADC is wide enough everywhere).
        let m = zoo::micro_cnn();
        let img = Dataset::Mnist.synthetic_image(3);
        let a = MappedModel::program_synthetic(
            &m,
            &vec![XbarShape::square(32); m.layers.len()],
            7,
            params(),
        );
        let b = MappedModel::program_synthetic(
            &m,
            &[
                XbarShape::new(36, 32),
                XbarShape::square(128),
                XbarShape::new(72, 64),
                XbarShape::square(512),
            ],
            7,
            params(),
        );
        assert_eq!(a.infer(&img).data(), b.infer(&img).data());
    }

    #[test]
    #[should_panic]
    fn mapping_only_model_rejects_inference() {
        let m = zoo::resnet152();
        let strategy = vec![XbarShape::square(512); m.layers.len()];
        // Programming 156 ImageNet layers is heavy; use a fake tiny model
        // with empty stages instead.
        let tiny = Model {
            name: "no-stages".into(),
            dataset: Dataset::Mnist,
            layers: vec![m.layers[155]], // the FC head alone
            stages: vec![],
        };
        let mm = MappedModel::program_synthetic(&tiny, &strategy[..1], 0, params());
        let _ = mm.infer(&Dataset::Mnist.synthetic_image(0));
    }

    #[test]
    fn depthwise_mvm_is_exact_through_block_diagonal_crossbars() {
        let layer = Layer::depthwise(0, 10, 3, 1, 1, 8);
        let w = synthetic_weights(&layer, 15); // (9 x 10) kernel matrix
        let ml = MappedLayer::program(&layer, XbarShape::square(32), &w, &params());
        // 32 rows -> 3 kernels per crossbar -> 4 crossbars.
        assert_eq!(ml.grid_dims(), (4, 1));
        let (wq, _) = quantize_matrix(&w, 8);
        let mut rng = SmallRng::seed_from_u64(16);
        let input: Vec<u8> = (0..layer.weight_rows()).map(|_| rng.gen()).collect();
        let y = ml.mvm(&input, &Adc::new(10));
        // Reference: per-channel dot products.
        for c in 0..10 {
            let expect: i64 = (0..9)
                .map(|e| wq[e][c] as i64 * input[c * 9 + e] as i64)
                .sum();
            assert_eq!(y[c], expect, "channel {c}");
        }
    }

    #[test]
    fn depthwise_model_inference_matches_float_reference() {
        // A small depthwise-separable chain through real crossbars.
        let m = autohet_dnn::ModelBuilder::new("dw", Dataset::Cifar10)
            .conv(8, 3)
            .pool(2)
            .depthwise_spec(3, 1, 1)
            .conv(12, 1)
            .pool(2)
            .fc(10)
            .build();
        let strategy = vec![XbarShape::new(36, 32); m.layers.len()];
        let mm = MappedModel::program_synthetic(&m, &strategy, 21, params());
        let img = Dataset::Cifar10.synthetic_image(4);
        let analog = mm.infer(&img);

        let weights: Vec<Tensor> = m.layers.iter().map(|l| synthetic_weights(l, 21)).collect();
        let mut act = img.clone();
        let last = m.layers.len() - 1;
        for stage in &m.stages {
            match *stage {
                Stage::Pool(w) => act = ops::max_pool(&act, w),
                Stage::Layer(i) => {
                    let l = &m.layers[i];
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
        assert_eq!(analog.argmax(), act.argmax());
        let scale = act.max_abs().max(1e-6);
        for (a, f) in analog.data().iter().zip(act.data()) {
            assert!((a - f).abs() / scale < 0.1, "{a} vs {f}");
        }
    }

    #[test]
    fn quantize_act_saturates() {
        assert_eq!(quantize_act(0.0, 1.0), 0);
        assert_eq!(quantize_act(300.0, 1.0), 255);
        assert_eq!(quantize_act(1.0, 1.0 / 255.0), 255);
    }
}

//! Functional analog crossbar: the thing that actually computes.
//!
//! One *logical* crossbar holds an `rows × cols` block of signed integer
//! weights at `weight_bits` precision. Physically (paper §4.1) this is
//! `weight_bits / cell_bits` crossbar *slices* of 1-bit memristor cells —
//! "we group eight crossbars in each PE to represent one weight data".
//!
//! Signed weights are offset-encoded: the planes store
//! `w' = w + 2^(weight_bits-1) ∈ [0, 2^weight_bits)`, bit `b` of `w'` on
//! slice `b`. Inference is bit-serial: for input bit `t` (1-bit DACs) the
//! wordlines of every slice carry the binary plane of the inputs, each
//! bitline sums the active cells' conductances, an ADC samples every
//! bitline, and the shift-and-add unit accumulates `sample << (t + b)`.
//! Finally the digital offset unit subtracts `2^(weight_bits-1) · Σx`:
//!
//! ```text
//! Σ_t Σ_b 2^(t+b) Σ_r x_t[r]·bit_b(w'[r][j])  =  Σ_r x[r]·w'[r][j]
//! result[j] = Σ_r x[r]·w'[r][j] − 2^(wb−1)·Σ_r x[r] = Σ_r x[r]·w[r][j]
//! ```
//!
//! With an ADC wide enough for the tallest active-row count the pipeline
//! is *exact* over the integers; with a narrower ADC it saturates. Device
//! variation is modeled over a programmed crossbar by
//! [`crate::variation`], which leaves the programmed levels untouched.

use crate::adc::Adc;
use crate::dac;
use crate::geometry::XbarShape;
use crate::kernels::{PackedInput, PackedWeights};
use std::cell::RefCell;

thread_local! {
    /// Per-thread packed-input buffer so the allocation-free fast path is
    /// available through the plain [`Crossbar::mvm`] signature, including
    /// when one crossbar is shared across inference worker threads.
    static MVM_INPUT: RefCell<PackedInput> = RefCell::new(PackedInput::new());
}

/// A programmed logical crossbar (all its physical bit-plane slices).
///
/// ```
/// use autohet_xbar::{Adc, Crossbar, XbarShape};
///
/// // Program [[2, -3], [-1, 4]] and compute [5, 7]ᵀ through the analog
/// // pipeline: bit-serial inputs, 8 bit-plane slices, 10-bit ADCs.
/// let xb = Crossbar::program(XbarShape::square(32), &[vec![2, -3], vec![-1, 4]], 8);
/// assert_eq!(xb.mvm(&[5, 7], &Adc::new(10)), vec![3, 13]); // exact MVM
/// ```
#[derive(Debug, Clone)]
pub struct Crossbar {
    shape: XbarShape,
    weight_bits: u32,
    /// Bits stored per memristor cell (1 = SLC, the paper's setting; >1 =
    /// multi-level cells, fewer slices but larger bitline sums).
    cell_bits: u32,
    /// `planes[b][r * cols + c]` = conductance of slice `b`'s cell (ideal:
    /// bits `[b·cell_bits, (b+1)·cell_bits)` of the offset-encoded weight).
    planes: Vec<Vec<f64>>,
    rows_used: usize,
    cols_used: usize,
    /// Bit-packed per-column weight slices of the programmed levels
    /// (DESIGN.md §9), which every MVM but the scalar reference runs on.
    packed: PackedWeights,
}

impl Crossbar {
    /// Program a block of signed weights (row-major `weights[r][c]`,
    /// `|w| < 2^(weight_bits-1)`) into a crossbar of `shape` with 1-bit
    /// cells (the paper's configuration). The block must fit; unused
    /// cells stay at zero conductance.
    pub fn program(shape: XbarShape, weights: &[Vec<i32>], weight_bits: u32) -> Self {
        Self::program_with_cells(shape, weights, weight_bits, 1)
    }

    /// Program with `cell_bits`-level cells: `weight_bits / cell_bits`
    /// slices, each cell holding a conductance level in
    /// `[0, 2^cell_bits)`. `cell_bits` must divide `weight_bits`.
    pub fn program_with_cells(
        shape: XbarShape,
        weights: &[Vec<i32>],
        weight_bits: u32,
        cell_bits: u32,
    ) -> Self {
        assert!((2..=16).contains(&weight_bits));
        assert!(
            cell_bits >= 1 && weight_bits % cell_bits == 0,
            "cell bits must divide weight bits"
        );
        let rows_used = weights.len();
        assert!(
            rows_used <= shape.rows as usize,
            "weights taller than crossbar"
        );
        let cols_used = weights.first().map_or(0, |r| r.len());
        assert!(
            cols_used <= shape.cols as usize,
            "weights wider than crossbar"
        );
        let offset = 1_i64 << (weight_bits - 1);
        let n_planes = (weight_bits / cell_bits) as usize;
        let level_mask = (1_u64 << cell_bits) - 1;

        let cells = shape.cells() as usize;
        let mut planes = vec![vec![0.0_f64; cells]; n_planes];
        for (r, row) in weights.iter().enumerate() {
            assert_eq!(row.len(), cols_used, "ragged weight block");
            for (c, &w) in row.iter().enumerate() {
                let w = w as i64;
                assert!(
                    (-offset..offset).contains(&w),
                    "weight {w} out of range for {weight_bits} bits"
                );
                let enc = (w + offset) as u64;
                for (b, plane) in planes.iter_mut().enumerate() {
                    let level = (enc >> (b as u32 * cell_bits)) & level_mask;
                    plane[r * shape.cols as usize + c] = level as f64;
                }
            }
        }
        let packed = PackedWeights::from_planes(
            &planes,
            rows_used,
            cols_used,
            shape.cols as usize,
            cell_bits,
        );
        Crossbar {
            shape,
            weight_bits,
            cell_bits,
            planes,
            rows_used,
            cols_used,
            packed,
        }
    }

    /// Crossbar shape.
    pub fn shape(&self) -> XbarShape {
        self.shape
    }

    /// Rows / columns actually holding weights.
    pub fn used(&self) -> (usize, usize) {
        (self.rows_used, self.cols_used)
    }

    /// Weight precision this crossbar was programmed at.
    pub fn weight_bits(&self) -> u32 {
        self.weight_bits
    }

    /// Bits stored per memristor cell (1 = SLC).
    pub fn cell_bits(&self) -> u32 {
        self.cell_bits
    }

    /// The conductance planes (`planes[b][r * shape.cols + c]`), for
    /// in-crate device models that resample cells from the programmed
    /// levels (see [`crate::variation`]).
    pub(crate) fn planes(&self) -> &[Vec<f64>] {
        &self.planes
    }

    /// One bit-serial MVM: `result[j] = Σ_r input[r] · w[r][j]` over the
    /// used columns. `input.len()` must equal the used row count; samples
    /// run through `adc` (exact when the ADC covers the active-row count).
    ///
    /// This is the bit-packed fast path (a thread-local input buffer, no
    /// per-call allocation beyond the result); it is bit-identical to [`Crossbar::mvm_scalar`]
    /// for every shape, weight precision, `cell_bits` and ADC resolution.
    pub fn mvm(&self, input: &[u8], adc: &Adc) -> Vec<i64> {
        MVM_INPUT.with(|p| {
            let packed = &mut p.borrow_mut();
            packed.pack(input);
            self.mvm_packed(packed, adc)
        })
    }

    /// MVM over an already-packed input (callers that push one input slice
    /// through a whole grid row of crossbars pack it once). The pack's
    /// length must equal this crossbar's used row count.
    pub fn mvm_packed(&self, input: &PackedInput, adc: &Adc) -> Vec<i64> {
        let mut acc = vec![0_i64; self.cols_used];
        self.mvm_packed_into(input, adc, &mut acc);
        acc
    }

    /// [`Crossbar::mvm_packed`] accumulating into a caller-provided slice
    /// (`+=` semantics — the adder tree). Grid walkers merge partial sums
    /// straight into the layer's output columns instead of allocating one
    /// partial vector per crossbar call. `acc.len()` must equal this
    /// crossbar's used column count.
    pub fn mvm_packed_into(&self, input: &PackedInput, adc: &Adc, acc: &mut [i64]) {
        assert_eq!(input.len(), self.rows_used, "input/row mismatch");
        assert_eq!(acc.len(), self.cols_used, "acc/column mismatch");
        if input.nonzero_planes() != 0 {
            self.accumulate_packed(input, adc, acc);
        }
        // Digital offset correction for the signed-weight encoding.
        let offset = 1_i64 << (self.weight_bits - 1);
        let correction = offset * input.input_sum();
        for a in acc {
            *a -= correction;
        }
    }

    /// Batched MVM: one result row per input, each bit-identical to a
    /// scalar [`Crossbar::mvm_scalar`] call on that input. Inputs share
    /// one packed-input buffer, so the whole batch performs no per-call
    /// buffer allocation beyond its result rows.
    pub fn mvm_batch(&self, inputs: &[Vec<u8>], adc: &Adc) -> Vec<Vec<i64>> {
        MVM_INPUT.with(|p| {
            let packed = &mut p.borrow_mut();
            inputs
                .iter()
                .map(|input| {
                    packed.pack(input);
                    self.mvm_packed(packed, adc)
                })
                .collect()
        })
    }

    /// Integer fast path: per (cycle, plane, column), the bitline sum is
    /// `cell_bits` popcounts of `wordline_mask & column_slice`. ADC
    /// samples stay on `i64` — identical to rounding the equivalent exact
    /// `f64` sum (all sums are far below 2⁵³). The inner loops walk each
    /// plane's packed columns as one contiguous slice, with dedicated
    /// single-word paths for crossbars of ≤ 64 used rows (the common
    /// square-32/64 and 36×32…72×64 candidates).
    fn accumulate_packed(&self, input: &PackedInput, adc: &Adc, acc: &mut [i64]) {
        let pw = &self.packed;
        debug_assert_eq!(pw.words(), input.words());
        let n_planes = self.planes.len();
        let words = pw.words();
        let cell_bits = self.cell_bits as usize;
        for t in 0..8u32 {
            if input.nonzero_planes() & (1 << t) == 0 {
                continue;
            }
            let wordlines = input.plane(t as usize);
            for b in 0..n_planes {
                let shift = t + b as u32 * self.cell_bits;
                let cols = pw.plane_cols(b);
                if words == 1 {
                    let wl = wordlines[0];
                    if cell_bits == 1 {
                        // SLC, ≤64 rows: one popcount per bitline.
                        for (a, &m) in acc.iter_mut().zip(cols) {
                            let sum = (wl & m).count_ones() as i64;
                            *a += adc.sample_exact(sum) << shift;
                        }
                    } else {
                        for (a, block) in acc.iter_mut().zip(cols.chunks_exact(cell_bits)) {
                            let mut sum = 0_i64;
                            for (lb, &m) in block.iter().enumerate() {
                                sum += ((wl & m).count_ones() as i64) << lb;
                            }
                            *a += adc.sample_exact(sum) << shift;
                        }
                    }
                } else {
                    for (a, block) in acc.iter_mut().zip(cols.chunks_exact(cell_bits * words)) {
                        let mut sum = 0_i64;
                        for (lb, col) in block.chunks_exact(words).enumerate() {
                            let ones: u32 = wordlines
                                .iter()
                                .zip(col)
                                .map(|(&m, &c)| (m & c).count_ones())
                                .sum();
                            sum += (ones as i64) << lb;
                        }
                        *a += adc.sample_exact(sum) << shift;
                    }
                }
            }
        }
    }

    /// The retained scalar reference MVM (the pre-kernel-layer
    /// implementation, kept verbatim): allocates per (cycle, plane) and
    /// walks rows cell-by-cell. The packed path is property-tested
    /// bit-identical against it; use it only for verification.
    pub fn mvm_scalar(&self, input: &[u8], adc: &Adc) -> Vec<i64> {
        assert_eq!(input.len(), self.rows_used, "input/row mismatch");
        let cols = self.shape.cols as usize;
        let mut acc = vec![0_i64; self.cols_used];
        for t in 0..8u32 {
            // Active wordlines this cycle.
            let plane_t = dac::bit_plane(input, t);
            if plane_t.iter().all(|&v| v == 0) {
                continue;
            }
            for (b, plane) in self.planes.iter().enumerate() {
                let mut bitline = vec![0.0_f64; self.cols_used];
                for (r, &active) in plane_t.iter().enumerate() {
                    if active == 0 {
                        continue;
                    }
                    let row = &plane[r * cols..r * cols + self.cols_used];
                    for (j, &g) in row.iter().enumerate() {
                        bitline[j] += g;
                    }
                }
                let shift = t + b as u32 * self.cell_bits;
                for (j, &s) in bitline.iter().enumerate() {
                    acc[j] += adc.sample(s) << shift;
                }
            }
        }
        // Digital offset correction for the signed-weight encoding.
        let offset = 1_i64 << (self.weight_bits - 1);
        let correction = offset * dac::input_sum(input);
        for a in &mut acc {
            *a -= correction;
        }
        acc
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use autohet_dnn::ops::mvm_i32;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    fn random_block(rng: &mut SmallRng, rows: usize, cols: usize) -> Vec<Vec<i32>> {
        (0..rows)
            .map(|_| (0..cols).map(|_| rng.gen_range(-127..=127)).collect())
            .collect()
    }

    fn reference(weights: &[Vec<i32>], input: &[u8]) -> Vec<i64> {
        let xi: Vec<i32> = input.iter().map(|&x| x as i32).collect();
        mvm_i32(weights, &xi)
            .into_iter()
            .map(|v| v as i64)
            .collect()
    }

    #[test]
    fn exact_mvm_small_handworked() {
        // [[2, -3], [-1, 4]] · [5, 7] = [10-7, -15+28] = [3, 13]
        let w = vec![vec![2, -3], vec![-1, 4]];
        let xb = Crossbar::program(XbarShape::square(32), &w, 8);
        let y = xb.mvm(&[5, 7], &Adc::new(10));
        assert_eq!(y, vec![3, 13]);
    }

    #[test]
    fn exact_mvm_matches_integer_reference_randomized() {
        let mut rng = SmallRng::seed_from_u64(99);
        let adc = Adc::new(10);
        for _ in 0..20 {
            let rows = rng.gen_range(1..=36);
            let cols = rng.gen_range(1..=32);
            let w = random_block(&mut rng, rows, cols);
            let input: Vec<u8> = (0..rows).map(|_| rng.gen()).collect();
            let xb = Crossbar::program(XbarShape::new(36, 32), &w, 8);
            assert_eq!(xb.mvm(&input, &adc), reference(&w, &input));
        }
    }

    #[test]
    fn exact_on_tallest_candidate_with_10_bit_adc() {
        // §4.1's claim: 10-bit ADCs support all heterogeneous sizes. The
        // worst case is 576 active rows all contributing a 1 — sum 576,
        // within the 1023 range.
        let mut rng = SmallRng::seed_from_u64(3);
        let rows = 576;
        let w = random_block(&mut rng, rows, 8);
        let input: Vec<u8> = vec![255; rows];
        let xb = Crossbar::program(XbarShape::new(576, 512), &w, 8);
        assert_eq!(xb.mvm(&input, &Adc::new(10)), reference(&w, &input));
    }

    #[test]
    fn narrow_adc_saturates() {
        // 64 rows of all-ones weights with all-active inputs sum to 64 per
        // bitline per cycle — a 4-bit ADC (max 15) must clip.
        let w = vec![vec![1]; 64];
        let input = vec![255u8; 64];
        let xb = Crossbar::program(XbarShape::square(64), &w, 8);
        let exact = xb.mvm(&input, &Adc::new(10));
        let clipped = xb.mvm(&input, &Adc::new(4));
        assert_eq!(exact, reference(&w, &input));
        assert!(clipped[0] < exact[0]);
    }

    #[test]
    fn zero_input_yields_zero() {
        let w = vec![vec![13, -7, 100]; 9];
        let xb = Crossbar::program(XbarShape::square(32), &w, 8);
        assert_eq!(xb.mvm(&[0; 9], &Adc::new(10)), vec![0, 0, 0]);
    }

    #[test]
    fn unused_region_does_not_contribute() {
        let w = vec![vec![5, -5]];
        let xb = Crossbar::program(XbarShape::square(128), &w, 8);
        assert_eq!(xb.used(), (1, 2));
        assert_eq!(xb.mvm(&[10], &Adc::new(10)), vec![50, -50]);
    }

    #[test]
    fn multi_level_cells_compute_the_same_mvm() {
        // 2-bit and 4-bit cells must match the 1-bit-cell (and integer)
        // result exactly while using fewer physical slices.
        let mut rng = SmallRng::seed_from_u64(21);
        let w = random_block(&mut rng, 20, 12);
        let input: Vec<u8> = (0..20).map(|_| rng.gen()).collect();
        let expect = reference(&w, &input);
        for cell_bits in [1u32, 2, 4, 8] {
            // The ADC must cover (2^cell_bits − 1) × active rows; 16 bits
            // covers every case here (10 suffices up to 4-bit cells).
            let adc = Adc::new(16);
            let xb = Crossbar::program_with_cells(XbarShape::square(32), &w, 8, cell_bits);
            assert_eq!(xb.mvm(&input, &adc), expect, "cell_bits {cell_bits}");
            if cell_bits <= 4 {
                assert_eq!(
                    xb.mvm(&input, &Adc::new(10)),
                    expect,
                    "10-bit, cell_bits {cell_bits}"
                );
            }
        }
    }

    #[test]
    fn multi_level_cells_need_wider_adcs_at_scale() {
        // 8-bit cells make bitline sums up to 255 × rows: with 64 fully
        // active rows a 10-bit ADC clips, a 16-bit one does not.
        let w = vec![vec![127]; 64];
        let input = vec![255u8; 64];
        let xb = Crossbar::program_with_cells(XbarShape::square(64), &w, 8, 8);
        let exact = xb.mvm(&input, &Adc::new(16));
        assert_eq!(exact, reference(&w, &input));
        let clipped = xb.mvm(&input, &Adc::new(10));
        assert!(clipped[0] < exact[0]);
    }

    #[test]
    #[should_panic]
    fn indivisible_cell_bits_rejected() {
        let _ = Crossbar::program_with_cells(XbarShape::square(32), &[vec![0]], 8, 3);
    }

    #[test]
    #[should_panic]
    fn oversized_block_is_rejected() {
        let w = vec![vec![0; 33]; 2];
        let _ = Crossbar::program(XbarShape::square(32), &w, 8);
    }

    #[test]
    #[should_panic]
    fn out_of_range_weight_is_rejected() {
        let w = vec![vec![200]];
        let _ = Crossbar::program(XbarShape::square(32), &w, 8);
    }
}

//! Stochastic device variation: lognormal Ron/Roff sampling with
//! operation-unit readout, and a packed fast path over precomputed
//! readout tables (DESIGN.md §11).
//!
//! The device model follows the HyperMetric RRAM configuration
//! (SNIPPETS.md §3): a programmed LRS cell's resistance is drawn from
//! `R_on · exp(dev_on · z)`, an HRS cell's from `R_off · exp(dev_off · z)`
//! with `z ~ N(0,1)` — multiplicative lognormal spread around the nominal
//! corners. Readout is partitioned into *operation units* of `S_ou`
//! wordlines: each unit's bitline current is resolved against per-unit
//! reference currents placed halfway between the ideal `k`-LRS and
//! `(k+1)`-LRS levels, yielding a digital LRS count per unit. Unit counts
//! then flow through the existing bit-serial shift-and-add pipeline
//! unchanged (ADC clamp, plane/cycle shifts, signed-offset correction).
//!
//! Two implementations are kept deliberately:
//! - [`VariedCrossbar::mvm_scalar`]: the reference — walks every cell's
//!   sampled current per (cycle, plane, column, unit) and thresholds the
//!   analog sum.
//! - [`VariedCrossbar::mvm`] / [`VariedCrossbar::mvm_packed`]: the fast
//!   path — per (plane, column, unit) the count for *every* `2^S_ou`
//!   activation pattern is precomputed once per readout reference with
//!   the same `f64` arithmetic (same ascending-row summation order), so
//!   the hot loop is a pure integer table walk over the packed input's
//!   wordline bits. Bit-identical to the reference by construction;
//!   property-tested in `tests/prop_variation.rs`.

use crate::adc::Adc;
use crate::crossbar::Crossbar;
use crate::dac;
use crate::geometry::XbarShape;
use crate::kernels::PackedInput;
use rand::distributions::{Distribution, LogNormal};
use rand::rngs::SmallRng;
use rand::SeedableRng;

/// Lognormal Ron/Roff device-variation parameters with operation-unit
/// readout, per the HyperMetric RRAM corner (SNIPPETS.md §3).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VariationModel {
    /// Nominal low-resistance (programmed-1) state, Ω.
    pub r_on: f64,
    /// Nominal high-resistance (programmed-0) state, Ω.
    pub r_off: f64,
    /// Lognormal deviation of the LRS resistance (`R = r_on·e^{dev·z}`).
    pub dev_on: f64,
    /// Lognormal deviation of the HRS resistance.
    pub dev_off: f64,
    /// Read voltage, V (cell current = `v_read / R`).
    pub v_read: f64,
    /// Operation-unit size: wordlines activated per readout unit, each
    /// unit resolved against its own reference currents. Must divide 64
    /// and be ≤ 8 (so a unit never straddles a packed input word and the
    /// per-unit pattern table stays ≤ 256 entries).
    pub s_ou: u32,
}

impl VariationModel {
    /// The HyperMetric RRAM corner: R ∈ [2.5 kΩ, 16 kΩ], deviations
    /// [0.18, 0.45], 0.9 V read, 4-wordline operation units.
    pub fn hypermetric() -> Self {
        VariationModel {
            r_on: 2500.0,
            r_off: 16000.0,
            dev_on: 0.18,
            dev_off: 0.45,
            v_read: 0.9,
            s_ou: 4,
        }
    }

    /// The same corner with both deviations forced to zero — every
    /// sampled resistance sits at its nominal value and the readout
    /// resolves every unit count exactly.
    pub fn ideal() -> Self {
        VariationModel {
            dev_on: 0.0,
            dev_off: 0.0,
            ..Self::hypermetric()
        }
    }

    /// This model with both deviations scaled by `k` (used to sweep
    /// noise severity without touching the resistance corners).
    pub fn with_deviation_scale(self, k: f64) -> Self {
        assert!(k >= 0.0 && k.is_finite());
        VariationModel {
            dev_on: self.dev_on * k,
            dev_off: self.dev_off * k,
            ..self
        }
    }

    /// True when both deviations are zero (sampling is deterministic and
    /// the readout is exact regardless of seed).
    pub fn is_exact(&self) -> bool {
        self.dev_on == 0.0 && self.dev_off == 0.0
    }

    fn validate(&self) {
        assert!(
            self.r_on > 0.0 && self.r_off > self.r_on,
            "need 0 < r_on < r_off, got r_on={} r_off={}",
            self.r_on,
            self.r_off
        );
        assert!(
            self.dev_on >= 0.0 && self.dev_off >= 0.0,
            "negative deviation"
        );
        assert!(self.v_read > 0.0, "non-positive read voltage");
        assert!(
            matches!(self.s_ou, 1 | 2 | 4 | 8),
            "s_ou must be 1, 2, 4 or 8 (got {})",
            self.s_ou
        );
    }

    /// The `k`-th reference current for a unit with `activated` driven
    /// wordlines: halfway between the ideal `(k−1)`-LRS and `k`-LRS
    /// levels. Strictly increasing in `k` because `1/r_on > 1/r_off`.
    fn threshold(&self, k: usize, activated: usize) -> f64 {
        self.v_read
            * ((k as f64 - 0.5) / self.r_on + (activated as f64 - k as f64 + 0.5) / self.r_off)
    }

    /// Resolve a unit's analog bitline `current` (from `activated` driven
    /// wordlines) into a digital LRS count: the number of reference
    /// currents at or below it.
    fn count(&self, current: f64, activated: usize) -> u8 {
        let mut k = 0usize;
        while k < activated && current >= self.threshold(k + 1, activated) {
            k += 1;
        }
        k as u8
    }
}

/// One seeded draw of device variation over a programmed [`Crossbar`]:
/// every used cell's resistance is sampled once, and per-unit activation
/// pattern tables are precomputed so MVMs under variation run as integer
/// table walks.
///
/// The sampled devices are fixed for the draw's lifetime — re-rolling
/// them means taking a fresh [`VariedCrossbar::sample`] with a different
/// seed, which is exactly what Monte-Carlo robustness evaluation wants.
/// Only the readout can change: [`VariedCrossbar::rereference`] re-reads
/// the same devices against another reference model.
#[derive(Debug, Clone)]
pub struct VariedCrossbar {
    model: VariationModel,
    shape: XbarShape,
    weight_bits: u32,
    rows_used: usize,
    cols_used: usize,
    units: usize,
    planes: usize,
    /// `cells[r * cols_used + c][b]` = sampled cell current (A) of slice
    /// `b`, compact over the used region only; lanes past the last plane
    /// hold `0.0`, which no reference current reaches, so they resolve
    /// to a zero count.
    cells: Vec<[f64; 8]>,
    /// Quantized readout tables:
    /// `table[(j·units + u) << s_ou | pattern]` holds, in byte lane `b`,
    /// the digital LRS count unit `u` of column `j`, slice `b` resolves
    /// for that wordline activation pattern — all planes of one lookup
    /// ride a single `u64`.
    table: Vec<u64>,
}

impl VariedCrossbar {
    /// Sample one variation draw over `xb` with `seed`. Per-cell RNG
    /// consumption is plane-major, then row-major, then column-major over
    /// the used region, so streams are reproducible.
    ///
    /// Requires 1-bit cells (the paper's SLC configuration): the
    /// programmed level decides LRS (level 1) vs HRS (level 0) per cell
    /// before resistances are drawn.
    pub fn sample(xb: &Crossbar, model: &VariationModel, seed: u64) -> Self {
        Self::sample_with_reference(xb, model, model, seed)
    }

    /// Sample a draw whose cell currents follow `device` but whose
    /// readout resolves against `reference`'s per-unit thresholds.
    ///
    /// This is the physical substrate of *recalibration* under
    /// conductance drift ([`crate::drift::DriftModel`]): a stale readout
    /// (`device` = drifted population, `reference` = factory model)
    /// systematically miscounts the shrunken currents, while a
    /// recalibrated readout (`reference` = the same drifted model)
    /// restores the per-unit counts. `reference == device` is exactly
    /// [`VariedCrossbar::sample`], bit for bit — they share one code
    /// path.
    ///
    /// The two models must agree on `s_ou` (recalibration re-derives
    /// reference currents, it cannot re-partition the wordlines).
    pub fn sample_with_reference(
        xb: &Crossbar,
        device: &VariationModel,
        reference: &VariationModel,
        seed: u64,
    ) -> Self {
        device.validate();
        reference.validate();
        assert_eq!(
            device.s_ou, reference.s_ou,
            "device and reference models must share the operation-unit size"
        );
        let model = device;
        assert_eq!(xb.cell_bits(), 1, "variation model requires 1-bit cells");
        let planes = xb.planes().len();
        assert!(
            planes <= 8,
            "packed variation supports at most 8 bit planes"
        );
        let shape = xb.shape();
        let (rows_used, cols_used) = xb.used();
        let stride = shape.cols as usize;
        let mut rng = SmallRng::seed_from_u64(seed);
        let lrs = LogNormal::new(model.r_on.ln(), model.dev_on);
        let hrs = LogNormal::new(model.r_off.ln(), model.dev_off);
        let mut cells = vec![[0.0; 8]; rows_used * cols_used];
        for (b, plane) in xb.planes().iter().enumerate() {
            for (r, row) in plane.chunks(stride).take(rows_used).enumerate() {
                for (cell, &level) in cells[r * cols_used..][..cols_used]
                    .iter_mut()
                    .zip(&row[..cols_used])
                {
                    let r = if level >= 0.5 {
                        lrs.sample(&mut rng)
                    } else {
                        hrs.sample(&mut rng)
                    };
                    cell[b] = model.v_read / r;
                }
            }
        }
        let mut varied = VariedCrossbar {
            model: *reference,
            shape,
            weight_bits: xb.weight_bits(),
            rows_used,
            cols_used,
            units: rows_used.div_ceil(model.s_ou as usize).max(1),
            planes,
            cells,
            table: Vec::new(),
        };
        varied.build_table();
        varied
    }

    /// Re-read this draw against `reference`: the sampled cell currents
    /// stay, and the readout tables are rebuilt in place. The result is
    /// bit-identical to a fresh [`VariedCrossbar::sample_with_reference`]
    /// with the same crossbar, device model and seed — one device draw
    /// can serve a stale and a recalibrated readout in turn.
    pub fn rereference(&mut self, reference: &VariationModel) {
        reference.validate();
        assert_eq!(
            self.model.s_ou, reference.s_ou,
            "device and reference models must share the operation-unit size"
        );
        self.model = *reference;
        self.build_table();
    }

    /// (Re)build the readout tables against `self.model`, dispatching the
    /// operation-unit size to a compile-time constant.
    fn build_table(&mut self) {
        match self.model.s_ou {
            1 => self.build_table_for::<1>(),
            2 => self.build_table_for::<2>(),
            4 => self.build_table_for::<4>(),
            8 => self.build_table_for::<8>(),
            s => unreachable!("validated s_ou {s}"),
        }
    }

    /// One `u64` per (column, unit, pattern): plane `b`'s readout count
    /// lives in byte lane `b`, so the hot loop adds all planes with a
    /// single integer add (counts are ≤ s_ou ≤ 8, lanes cannot collide
    /// within one add).
    ///
    /// All ≤ 8 planes of one (column, unit) resolve together, and the
    /// result stays bit-identical to [`VariationModel::count`] over the
    /// scalar reference's ascending-row sums:
    /// - a pattern's bitline sum is the sum of the same pattern without
    ///   its highest set bit, plus that bit's cell — the same
    ///   ascending-bit `f64` additions in the same order (bits past
    ///   `rows_used` add nothing, as in the reference);
    /// - the threshold ladder is computed once per table with
    ///   [`VariationModel::threshold`] itself, as a running maximum
    ///   padded with `+∞` past `activated`. A sum meets the running
    ///   maximum of steps `1..=k` exactly when it meets every one of
    ///   them, so counting the steps met is the `while` loop's leading
    ///   run of met thresholds, even where rounding leaves the raw
    ///   ladder non-monotone.
    fn build_table_for<const S: usize>(&mut self) {
        let patterns = 1usize << S;
        let mut ladder = [[f64::INFINITY; S]; 9];
        for (activated, steps) in ladder.iter_mut().enumerate().take(S + 1) {
            let mut max = f64::NEG_INFINITY;
            for (k, step) in steps.iter_mut().enumerate().take(activated) {
                max = max.max(self.model.threshold(k + 1, activated));
                *step = max;
            }
        }
        let (rows_used, cols_used) = (self.rows_used, self.cols_used);
        self.table.clear();
        self.table.resize(cols_used * self.units * patterns, 0);
        let mut sums = [[0.0f64; 8]; 256];
        let mut activated = [0usize; 256];
        let mut words = self.table.chunks_exact_mut(patterns);
        for j in 0..cols_used {
            for u in 0..self.units {
                let base = u * S;
                let live = (rows_used - base).min(S);
                for p in 1..patterns {
                    let high = (usize::BITS - 1 - p.leading_zeros()) as usize;
                    let rest = p ^ (1 << high);
                    if high < live {
                        let cell = &self.cells[(base + high) * cols_used + j];
                        let prev = sums[rest];
                        for (s, (&a, &c)) in sums[p].iter_mut().zip(prev.iter().zip(cell)) {
                            *s = a + c;
                        }
                        activated[p] = activated[rest] + 1;
                    } else {
                        sums[p] = sums[rest];
                        activated[p] = activated[rest];
                    }
                }
                let unit = words.next().expect("table sized per (column, unit)");
                for ((word, sum), &a) in unit.iter_mut().zip(&sums).zip(&activated) {
                    let mut counts = [0u8; 8];
                    for &t in &ladder[a] {
                        for (n, &s) in counts.iter_mut().zip(sum) {
                            *n += (s >= t) as u8;
                        }
                    }
                    *word = u64::from_le_bytes(counts);
                }
            }
        }
    }

    /// The *reference* model this draw resolves its readout against
    /// (equal to the device model unless the draw was taken with
    /// [`VariedCrossbar::sample_with_reference`] or re-read with
    /// [`VariedCrossbar::rereference`]).
    pub fn model(&self) -> &VariationModel {
        &self.model
    }

    /// Shape of the underlying crossbar.
    pub fn shape(&self) -> XbarShape {
        self.shape
    }

    /// Rows / columns actually holding weights.
    pub fn used(&self) -> (usize, usize) {
        (self.rows_used, self.cols_used)
    }

    /// Bit-serial MVM under this variation draw (packed fast path).
    /// Bit-identical to [`VariedCrossbar::mvm_scalar`] for every shape,
    /// seed and ADC resolution.
    pub fn mvm(&self, input: &[u8], adc: &Adc) -> Vec<i64> {
        let mut packed = PackedInput::new();
        packed.pack(input);
        self.mvm_packed(&packed, adc)
    }

    /// [`VariedCrossbar::mvm`] over an already-packed input. Per nonzero
    /// input cycle the per-unit activation patterns are extracted once
    /// from the wordline bits; every column's bitline sums for *all*
    /// planes then accumulate together as byte lanes of `u64` table adds
    /// — no `f64` touches the hot loop. Lanes spill into per-plane wide
    /// sums before enough units could overflow a byte.
    pub fn mvm_packed(&self, input: &PackedInput, adc: &Adc) -> Vec<i64> {
        assert_eq!(input.len(), self.rows_used, "input/row mismatch");
        let mut acc = vec![0_i64; self.cols_used];
        let s_ou = self.model.s_ou as usize;
        let pattern_mask = (1u64 << s_ou) - 1;
        let units = self.units;
        let per_col = units << s_ou;
        let planes = self.planes;
        // A byte lane overflows once accumulated counts exceed 255; each
        // unit contributes at most s_ou, so spill every ⌊255/s_ou⌋ units.
        let chunk = (255 / s_ou).max(1);
        let mut pats = vec![0usize; units];
        for t in 0..8u32 {
            if input.nonzero_planes() & (1 << t) == 0 {
                continue;
            }
            let wordlines = input.plane(t as usize);
            for (u, pat) in pats.iter_mut().enumerate() {
                // s_ou divides 64, so a unit never straddles word
                // boundaries; bits past rows_used are never set by pack().
                let bit = u * s_ou;
                *pat = ((wordlines[bit >> 6] >> (bit & 63)) & pattern_mask) as usize;
            }
            for (j, a) in acc.iter_mut().enumerate() {
                let col_table = &self.table[j * per_col..j * per_col + per_col];
                let mut sums = [0_i64; 8];
                let mut u0 = 0;
                while u0 < units {
                    let end = (u0 + chunk).min(units);
                    let mut lanes = 0_u64;
                    for (du, &p) in pats[u0..end].iter().enumerate() {
                        lanes += col_table[((u0 + du) << s_ou) | p];
                    }
                    for (b, s) in sums.iter_mut().enumerate().take(planes) {
                        *s += ((lanes >> (8 * b)) & 0xFF) as i64;
                    }
                    u0 = end;
                }
                for (b, &sum) in sums.iter().enumerate().take(planes) {
                    let shift = t + b as u32; // cell_bits = 1
                    *a += adc.sample_exact(sum) << shift;
                }
            }
        }
        let offset = 1_i64 << (self.weight_bits - 1);
        let correction = offset * input.input_sum();
        for a in &mut acc {
            *a -= correction;
        }
        acc
    }

    /// The retained scalar-variation reference: per (cycle, plane,
    /// column, unit) it sums the activated cells' sampled currents in
    /// ascending row order and thresholds the analog sum against the
    /// unit's reference currents. The fast path is property-tested
    /// bit-identical against this; use it only for verification.
    pub fn mvm_scalar(&self, input: &[u8], adc: &Adc) -> Vec<i64> {
        assert_eq!(input.len(), self.rows_used, "input/row mismatch");
        let s_ou = self.model.s_ou as usize;
        let mut acc = vec![0_i64; self.cols_used];
        for t in 0..8u32 {
            let plane_t = dac::bit_plane(input, t);
            if plane_t.iter().all(|&v| v == 0) {
                continue;
            }
            for b in 0..self.planes {
                let shift = t + b as u32;
                for (j, a) in acc.iter_mut().enumerate() {
                    let mut sum = 0_i64;
                    for u in 0..self.units {
                        let base = u * s_ou;
                        let mut current = 0.0;
                        let mut activated = 0usize;
                        let end = (base + s_ou).min(self.rows_used);
                        for (r, &bit) in plane_t.iter().enumerate().take(end).skip(base) {
                            if bit != 0 {
                                current += self.cells[r * self.cols_used + j][b];
                                activated += 1;
                            }
                        }
                        sum += self.model.count(current, activated) as i64;
                    }
                    *a += adc.sample_exact(sum) << shift;
                }
            }
        }
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
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    fn random_block(rng: &mut SmallRng, rows: usize, cols: usize) -> Vec<Vec<i32>> {
        (0..rows)
            .map(|_| (0..cols).map(|_| rng.gen_range(-127..=127)).collect())
            .collect()
    }

    #[test]
    fn zero_deviation_readout_is_exact() {
        // With dev = 0 every sampled resistance sits at its corner, the
        // per-unit counts resolve exactly, and the full pipeline
        // reproduces the ideal crossbar bit for bit.
        let mut rng = SmallRng::seed_from_u64(1);
        let adc = Adc::new(10);
        for &(rows, cols) in &[(1usize, 1usize), (7, 5), (36, 32), (108, 64)] {
            let w = random_block(&mut rng, rows, cols);
            let shape = XbarShape::new(rows.next_power_of_two().max(32) as u32, cols as u32);
            let xb = Crossbar::program(shape, &w, 8);
            let input: Vec<u8> = (0..rows).map(|_| rng.gen()).collect();
            let vc = VariedCrossbar::sample(&xb, &VariationModel::ideal(), 7);
            assert_eq!(vc.mvm(&input, &adc), xb.mvm(&input, &adc), "{rows}x{cols}");
        }
    }

    #[test]
    fn packed_matches_scalar_reference() {
        let mut rng = SmallRng::seed_from_u64(2);
        let adc = Adc::new(10);
        let model = VariationModel::hypermetric();
        for seed in 0..8u64 {
            let rows = rng.gen_range(1..=108);
            let cols = rng.gen_range(1..=64);
            let w = random_block(&mut rng, rows, cols);
            let xb = Crossbar::program(XbarShape::new(108, 64), &w, 8);
            let vc = VariedCrossbar::sample(&xb, &model, seed);
            let input: Vec<u8> = (0..rows).map(|_| rng.gen()).collect();
            assert_eq!(
                vc.mvm(&input, &adc),
                vc.mvm_scalar(&input, &adc),
                "seed {seed} {rows}x{cols}"
            );
        }
    }

    #[test]
    fn sampling_is_seed_deterministic() {
        let mut rng = SmallRng::seed_from_u64(3);
        let w = random_block(&mut rng, 16, 8);
        let xb = Crossbar::program(XbarShape::square(32), &w, 8);
        let input: Vec<u8> = (0..16).map(|_| rng.gen()).collect();
        let adc = Adc::new(10);
        let model = VariationModel::hypermetric();
        let a = VariedCrossbar::sample(&xb, &model, 42);
        let b = VariedCrossbar::sample(&xb, &model, 42);
        assert_eq!(a.mvm(&input, &adc), b.mvm(&input, &adc));
        let c = VariedCrossbar::sample(&xb, &model, 43);
        // Different seed draws different devices (overwhelmingly likely
        // to change at least one output with 16 active rows).
        assert_ne!(a.mvm(&[255; 16], &adc), c.mvm(&[255; 16], &adc));
    }

    #[test]
    fn operation_unit_sizes_all_work() {
        let mut rng = SmallRng::seed_from_u64(4);
        let w = random_block(&mut rng, 21, 6);
        let xb = Crossbar::program(XbarShape::square(32), &w, 8);
        let input: Vec<u8> = (0..21).map(|_| rng.gen()).collect();
        let adc = Adc::new(10);
        for s_ou in [1u32, 2, 4, 8] {
            let model = VariationModel {
                s_ou,
                ..VariationModel::hypermetric()
            };
            let vc = VariedCrossbar::sample(&xb, &model, 5);
            assert_eq!(
                vc.mvm(&input, &adc),
                vc.mvm_scalar(&input, &adc),
                "s_ou {s_ou}"
            );
            // And the exact corner stays exact at every unit size.
            let vi = VariedCrossbar::sample(&xb, &model.with_deviation_scale(0.0), 5);
            assert_eq!(vi.mvm(&input, &adc), xb.mvm(&input, &adc), "s_ou {s_ou}");
        }
    }

    #[test]
    fn deviation_scale_and_exactness_flags() {
        let m = VariationModel::hypermetric();
        assert!(!m.is_exact());
        assert!(m.with_deviation_scale(0.0).is_exact());
        let half = m.with_deviation_scale(0.5);
        assert_eq!(half.dev_on, m.dev_on * 0.5);
        assert_eq!(half.dev_off, m.dev_off * 0.5);
        assert_eq!(half.r_on, m.r_on);
        assert!(VariationModel::ideal().is_exact());
    }

    #[test]
    fn used_block_matches_the_programmed_weights() {
        let w = vec![vec![1; 6]; 21];
        let xb = Crossbar::program(XbarShape::square(32), &w, 8);
        let vc = VariedCrossbar::sample(&xb, &VariationModel::hypermetric(), 0);
        assert_eq!(vc.used(), (21, 6));
    }

    #[test]
    fn reference_equal_to_device_matches_sample_bit_for_bit() {
        let mut rng = SmallRng::seed_from_u64(9);
        let w = random_block(&mut rng, 24, 12);
        let xb = Crossbar::program(XbarShape::square(32), &w, 8);
        let input: Vec<u8> = (0..24).map(|_| rng.gen()).collect();
        let adc = Adc::new(10);
        let m = VariationModel::hypermetric();
        let a = VariedCrossbar::sample(&xb, &m, 17);
        let b = VariedCrossbar::sample_with_reference(&xb, &m, &m, 17);
        assert_eq!(a.mvm(&input, &adc), b.mvm(&input, &adc));
    }

    #[test]
    fn stale_reference_miscounts_and_recalibration_recovers() {
        // A drifted population (all resistances grown 40%) read against
        // the factory reference model systematically under-counts; a
        // recalibrated reference (the drifted model itself) restores the
        // readout to the in-family accuracy of an ordinary draw.
        let mut rng = SmallRng::seed_from_u64(10);
        let w = random_block(&mut rng, 48, 16);
        let xb = Crossbar::program(XbarShape::square(64), &w, 8);
        let input = vec![255u8; 48];
        let adc = Adc::new(10);
        let factory = VariationModel::hypermetric();
        let drifted = VariationModel {
            r_on: factory.r_on * 1.4,
            r_off: factory.r_off * 1.4,
            ..factory
        };
        let ideal = {
            let exact = VariedCrossbar::sample(&xb, &factory.with_deviation_scale(0.0), 0);
            exact.mvm(&input, &adc)
        };
        let err = |out: &[i64]| -> i64 { out.iter().zip(&ideal).map(|(a, b)| (a - b).abs()).sum() };
        let stale = VariedCrossbar::sample_with_reference(&xb, &drifted, &factory, 17);
        let recal = VariedCrossbar::sample_with_reference(&xb, &drifted, &drifted, 17);
        let stale_err = err(&stale.mvm(&input, &adc));
        let recal_err = err(&recal.mvm(&input, &adc));
        assert!(
            stale_err > 4 * recal_err.max(1),
            "stale readout ({stale_err}) should dwarf recalibrated ({recal_err})"
        );
    }

    #[test]
    #[should_panic]
    fn reference_must_share_unit_size() {
        let xb = Crossbar::program(XbarShape::square(32), &[vec![1]], 8);
        let device = VariationModel::hypermetric();
        let reference = VariationModel { s_ou: 8, ..device };
        let _ = VariedCrossbar::sample_with_reference(&xb, &device, &reference, 0);
    }

    #[test]
    #[should_panic]
    fn rejects_invalid_unit_size() {
        let xb = Crossbar::program(XbarShape::square(32), &[vec![1]], 8);
        let model = VariationModel {
            s_ou: 3,
            ..VariationModel::hypermetric()
        };
        let _ = VariedCrossbar::sample(&xb, &model, 0);
    }

    #[test]
    #[should_panic]
    fn rejects_multi_level_cells() {
        let xb = Crossbar::program_with_cells(XbarShape::square(32), &[vec![1]], 8, 2);
        let _ = VariedCrossbar::sample(&xb, &VariationModel::hypermetric(), 0);
    }
}

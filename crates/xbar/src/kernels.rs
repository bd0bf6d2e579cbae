//! Bit-packed MVM kernels (DESIGN.md §9).
//!
//! The scalar [`crate::Crossbar::mvm_scalar`] walks every active wordline
//! cell-by-cell and allocates a bit-plane and a bitline buffer per
//! (cycle, plane) pair. This module provides the data structures the fast
//! path is built from:
//!
//! - [`PackedInput`]: all 8 input bit-planes of a `u8` activation vector
//!   packed once into `u64` wordline masks (bit `r` of plane `t` = bit `t`
//!   of `input[r]`), plus the digital input sum and a nonzero-plane mask so
//!   all-zero cycles are skipped without touching memory. One buffer is
//!   reused across MVMs, so repeated MVMs through one thread allocate
//!   only their results.
//! - [`PackedWeights`]: the crossbar's conductance planes re-sliced into
//!   per-column `u64` row masks, one mask per *weight bit* (a `cell_bits`-
//!   level plane contributes `cell_bits` single-bit slices). With these,
//!   one (cycle, plane, column) bitline sum collapses to `cell_bits`
//!   popcounts of `wordline_mask & column_mask` — integer arithmetic, no
//!   per-row branches, independent of how many rows are active.
//!
//! Programming only ever writes exact integer levels in
//! `[0, 2^cell_bits)`, so every crossbar packs, and the packed path is
//! bit-identical to the scalar reference: bitline sums below `2^53` are
//! exact in either domain. Device variation never touches the programmed
//! levels; [`crate::variation`] samples it over them with its own
//! readout tables.

/// All 8 bit-planes of one input vector, packed into `u64` wordline masks.
#[derive(Debug, Clone, Default)]
pub struct PackedInput {
    /// `u64` words per plane (`ceil(n / 64)`, min 1).
    words: usize,
    /// Input length.
    n: usize,
    /// Plane `t` occupies `masks[t * words .. (t + 1) * words]`.
    masks: Vec<u64>,
    /// Bit `t` set ⇔ plane `t` has at least one active wordline.
    nonzero: u8,
    /// `Σ input[r]` — the digital offset-correction sum.
    input_sum: i64,
}

impl PackedInput {
    /// An empty pack; call [`PackedInput::pack`] before use.
    pub fn new() -> Self {
        Self::default()
    }

    /// Pack `input` into the 8 wordline masks, reusing the allocation.
    pub fn pack(&mut self, input: &[u8]) {
        let words = words_for(input.len());
        self.words = words;
        self.n = input.len();
        self.masks.clear();
        self.masks.resize(8 * words, 0);
        let mut sum = 0_i64;
        for (r, &x) in input.iter().enumerate() {
            sum += x as i64;
            if x == 0 {
                continue;
            }
            let word = r >> 6;
            let bit = 1_u64 << (r & 63);
            let mut v = x;
            while v != 0 {
                let t = v.trailing_zeros() as usize;
                self.masks[t * words + word] |= bit;
                v &= v - 1;
            }
        }
        self.input_sum = sum;
        let mut nonzero = 0_u8;
        for t in 0..8 {
            if self.masks[t * words..(t + 1) * words]
                .iter()
                .any(|&w| w != 0)
            {
                nonzero |= 1 << t;
            }
        }
        self.nonzero = nonzero;
    }

    /// Input length this pack was built from.
    pub fn len(&self) -> usize {
        self.n
    }

    /// True when packed from an empty input.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// `u64` words per plane.
    pub fn words(&self) -> usize {
        self.words
    }

    /// Digital input sum (for the signed-weight offset correction).
    pub fn input_sum(&self) -> i64 {
        self.input_sum
    }

    /// Bitmask of planes with at least one active wordline.
    pub fn nonzero_planes(&self) -> u8 {
        self.nonzero
    }

    /// The wordline mask of bit-plane `t` (0..8).
    #[inline]
    pub fn plane(&self, t: usize) -> &[u64] {
        &self.masks[t * self.words..(t + 1) * self.words]
    }
}

/// Per-column packed weight bit-slices of one crossbar.
///
/// Layout: column `j` of conductance plane `b` contributes `cell_bits`
/// single-bit slices; slice `lb` of that column lives at
/// `masks[((b * cols + j) * cell_bits + lb) * words ..][..words]`, so the
/// `cell_bits × words` block a bitline sum needs is contiguous.
#[derive(Debug, Clone)]
pub struct PackedWeights {
    words: usize,
    cols: usize,
    cell_bits: u32,
    masks: Vec<u64>,
}

impl PackedWeights {
    /// Pack conductance planes (row-major, `col_stride` cells per row) into
    /// per-column bit slices. Panics when a used cell is not an exact
    /// integer level in `[0, 2^cell_bits)`.
    pub fn from_planes(
        planes: &[Vec<f64>],
        rows_used: usize,
        cols_used: usize,
        col_stride: usize,
        cell_bits: u32,
    ) -> Self {
        let words = words_for(rows_used);
        let max_level = (1_u64 << cell_bits) - 1;
        let mut masks = vec![0_u64; planes.len() * cols_used * cell_bits as usize * words];
        for (b, plane) in planes.iter().enumerate() {
            for (r, row) in plane.chunks(col_stride).take(rows_used).enumerate() {
                let word = r >> 6;
                let bit = 1_u64 << (r & 63);
                for (j, &g) in row[..cols_used].iter().enumerate() {
                    if g == 0.0 {
                        continue;
                    }
                    assert!(
                        g > 0.0 && g <= max_level as f64 && g.fract() == 0.0,
                        "conductance {g} is not a {cell_bits}-bit cell level"
                    );
                    let mut level = g as u64;
                    while level != 0 {
                        let lb = level.trailing_zeros() as usize;
                        let col = b * cols_used + j;
                        masks[(col * cell_bits as usize + lb) * words + word] |= bit;
                        level &= level - 1;
                    }
                }
            }
        }
        PackedWeights {
            words,
            cols: cols_used,
            cell_bits,
            masks,
        }
    }

    /// `u64` words per column slice.
    pub fn words(&self) -> usize {
        self.words
    }

    /// All column blocks of plane `b` as one contiguous slice
    /// (`cols × cell_bits × words` words, in ascending-column order) — the
    /// hot MVM loop walks this linearly instead of re-slicing per column.
    #[inline]
    pub fn plane_cols(&self, b: usize) -> &[u64] {
        let len = self.cols * self.cell_bits as usize * self.words;
        &self.masks[b * len..(b + 1) * len]
    }
}

/// `u64` words needed to hold `n` row bits (min 1 so empty inputs stay
/// indexable).
#[inline]
pub fn words_for(n: usize) -> usize {
    n.div_ceil(64).max(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn packed_input_matches_bit_plane_reference() {
        let input: Vec<u8> = (0..100).map(|i| (i * 37 % 256) as u8).collect();
        let mut p = PackedInput::new();
        p.pack(&input);
        assert_eq!(p.words(), 2);
        assert_eq!(p.input_sum(), input.iter().map(|&x| x as i64).sum::<i64>());
        for t in 0..8 {
            let reference = crate::dac::bit_plane(&input, t as u32);
            let mask = p.plane(t);
            for (r, &bit) in reference.iter().enumerate() {
                let got = (mask[r >> 6] >> (r & 63)) & 1;
                assert_eq!(got as u8, bit, "plane {t} row {r}");
            }
            assert_eq!(
                p.nonzero_planes() >> t & 1 == 1,
                reference.iter().any(|&b| b != 0)
            );
        }
    }

    #[test]
    fn packed_input_handles_empty_and_zero() {
        let mut p = PackedInput::new();
        p.pack(&[]);
        assert!(p.is_empty());
        assert_eq!(p.nonzero_planes(), 0);
        assert_eq!(p.input_sum(), 0);
        p.pack(&[0, 0, 0]);
        assert_eq!(p.len(), 3);
        assert_eq!(p.nonzero_planes(), 0);
    }

    #[test]
    fn packed_weights_reject_non_integral_levels() {
        // A fractional level, one above the 1-bit maximum and a negative
        // one: none is a cell level, so packing refuses each.
        for plane in [
            vec![vec![1.0, 0.5]],
            vec![vec![2.0, 0.0]],
            vec![vec![-1.0, 0.0]],
        ] {
            let packed =
                std::panic::catch_unwind(|| PackedWeights::from_planes(&plane, 1, 2, 2, 1));
            assert!(packed.is_err(), "{plane:?} packed");
        }
    }
}

//! Minimal dense matrix for the NN substrate.
//!
//! Row-major `f64`; just the operations the MLP needs: matrix-vector
//! products in both orientations and outer-product accumulation, per
//! sample (the reference oracles) and batched through one register-tiled
//! GEMM microkernel.

use rand::Rng;
use serde::{Deserialize, Serialize};

/// Transpose `src` (`rows × cols`, row-major) into `dst` (`cols × rows`),
/// walking 8×8 tiles so both sides stay cache-resident. Pure data
/// movement — no arithmetic, so bit-exactness is trivial.
pub(crate) fn transpose_into(src: &[f64], rows: usize, cols: usize, dst: &mut [f64]) {
    debug_assert_eq!(src.len(), rows * cols);
    debug_assert_eq!(dst.len(), rows * cols);
    const T: usize = 8;
    let mut r0 = 0;
    while r0 < rows {
        let r1 = (r0 + T).min(rows);
        let mut c0 = 0;
        while c0 < cols {
            let c1 = (c0 + T).min(cols);
            for r in r0..r1 {
                for c in c0..c1 {
                    dst[c * rows + r] = src[r * cols + c];
                }
            }
            c0 = c1;
        }
        r0 = r1;
    }
}

/// Dense row-major matrix.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// Zero matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Uniform random matrix in `[-limit, limit]` (He/Xavier-style init).
    pub fn random<R: Rng>(rows: usize, cols: usize, limit: f64, rng: &mut R) -> Self {
        let data = (0..rows * cols)
            .map(|_| rng.gen_range(-limit..=limit))
            .collect();
        Matrix { rows, cols, data }
    }

    /// Dimensions `(rows, cols)`.
    pub fn dims(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Element access.
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> f64 {
        self.data[r * self.cols + c]
    }

    /// Flat data view (for optimizers / soft updates).
    pub fn data(&self) -> &[f64] {
        &self.data
    }

    /// Flat mutable data view.
    pub fn data_mut(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// `y = A·x` (length `rows`): the per-sample oracle of
    /// [`Matrix::matmul_fm`]. Each dot folds from `+0.0` in ascending `k`.
    pub fn matvec(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.cols);
        self.data
            .chunks_exact(self.cols)
            .map(|row| row.iter().zip(x).fold(0.0, |acc, (a, b)| acc + a * b))
            .collect()
    }

    /// `y = Aᵀ·g` (length `cols`) — input-gradient propagation; the
    /// per-sample oracle of [`Matrix::matmul_t_fm`].
    pub fn matvec_t(&self, g: &[f64]) -> Vec<f64> {
        assert_eq!(g.len(), self.rows);
        let mut y = vec![0.0; self.cols];
        for (r, &gr) in g.iter().enumerate() {
            let row = &self.data[r * self.cols..(r + 1) * self.cols];
            for (yc, &a) in y.iter_mut().zip(row) {
                *yc += a * gr;
            }
        }
        y
    }

    /// `A += g ⊗ x` (outer product) — weight-gradient accumulation; the
    /// per-sample oracle of [`Matrix::add_outer_batch_fm`].
    pub fn add_outer(&mut self, g: &[f64], x: &[f64]) {
        assert_eq!(g.len(), self.rows);
        assert_eq!(x.len(), self.cols);
        for (r, &gr) in g.iter().enumerate() {
            let row = &mut self.data[r * self.cols..(r + 1) * self.cols];
            for (a, &xv) in row.iter_mut().zip(x) {
                *a += gr * xv;
            }
        }
    }

    /// Set every element to zero.
    pub fn zero(&mut self) {
        self.data.iter_mut().for_each(|v| *v = 0.0);
    }

    // ---- Batched (GEMM) kernels ----------------------------------------
    //
    // All three are the register-tiled microkernel `gemm` over different
    // operand strides. Every *element* of a result keeps the exact fold of
    // its per-sample oracle above — k-ascending dots, r-ascending
    // transpose sums, s-ascending gradient accumulation, each step one
    // rounded multiply then one rounded add — so batched training is
    // bit-identical to a per-sample loop at any batch size (DESIGN.md §9).

    /// Feature-major GEMM: `yt = A·xt` where `xt` is `cols × batch` and
    /// `yt` comes out `rows × batch` (reusing its allocation). This is the
    /// layout the MLP keeps activations in between layers. Each output
    /// element folds its products from `+0.0` in ascending `k`, exactly
    /// like [`Matrix::matvec`].
    pub fn matmul_fm(&self, xt: &[f64], batch: usize, yt: &mut Vec<f64>) {
        self.matmul_fm_epilogue(xt, batch, yt, None, |_| |v| v);
    }

    /// [`Matrix::matmul_fm`] with a fused epilogue: output element `(r, s)`
    /// is `row_map(r)(dot)`, applied as its tile leaves the registers, and
    /// is also written batch-major into `mirror` (`batch × rows`) when
    /// given. The dense layer's bias, activation and mirror write happen
    /// here.
    pub(crate) fn matmul_fm_epilogue<G: Fn(f64) -> f64>(
        &self,
        xt: &[f64],
        batch: usize,
        yt: &mut Vec<f64>,
        mirror: Option<&mut [f64]>,
        row_map: impl Fn(usize) -> G,
    ) {
        assert_eq!(xt.len(), batch * self.cols);
        yt.clear();
        yt.resize(batch * self.rows, 0.0);
        let ops = Operands {
            p: &self.data,
            pi: self.cols,
            pt: 1,
            q: xt,
            qt: batch,
            k: self.cols,
        };
        gemm(ops, Out::new(yt, mirror, self.rows, batch, false), row_map);
    }

    /// Feature-major transpose product: `din = Aᵀ·g` where `g` is
    /// `rows × batch` and `din` comes out `cols × batch`. Every element
    /// folds over `r` from `+0.0` in ascending order, like
    /// [`Matrix::matvec_t`].
    pub fn matmul_t_fm(&self, g_fm: &[f64], batch: usize, din: &mut Vec<f64>) {
        assert_eq!(g_fm.len(), batch * self.rows);
        din.clear();
        din.resize(batch * self.cols, 0.0);
        let ops = Operands {
            p: &self.data,
            pi: 1,
            pt: self.cols,
            q: g_fm,
            qt: batch,
            k: self.rows,
        };
        gemm(ops, Out::new(din, None, self.cols, batch, false), |_| |v| v);
    }

    /// `A += Σ_s g_s ⊗ x_s` with feature-major gradients (`rows × batch`)
    /// and batch-major inputs (`batch × cols`) — every element accumulates
    /// the samples onto its current value in ascending batch order,
    /// identical to per-sample [`Matrix::add_outer`] calls.
    pub fn add_outer_batch_fm(&mut self, g_fm: &[f64], xs: &[f64], batch: usize) {
        assert_eq!(g_fm.len(), batch * self.rows);
        assert_eq!(xs.len(), batch * self.cols);
        let ops = Operands {
            p: g_fm,
            pi: batch,
            pt: 1,
            q: xs,
            qt: self.cols,
            k: batch,
        };
        let out = Out::new(&mut self.data, None, self.rows, self.cols, true);
        gemm(ops, out, |_| |v| v);
    }
}

/// Output rows per register tile.
const ROWS: usize = 4;
/// Output columns (batch lanes, or weight columns for the outer product)
/// per register tile.
const LANES: usize = 16;

/// One GEMM's operands: output element `(i, j)` folds the products
/// `p[i·pi + t·pt] · q[t·qt + j]` over `t` in `0..k`. `p` is broadcast one
/// scalar per tile row; `q` supplies a contiguous run of tile lanes.
#[derive(Clone, Copy)]
struct Operands<'a> {
    p: &'a [f64],
    pi: usize,
    pt: usize,
    q: &'a [f64],
    qt: usize,
    k: usize,
}

/// Where a GEMM's `m × n` result goes.
struct Out<'a> {
    /// Row-major `m × n` result.
    c: &'a mut [f64],
    /// Optional transposed copy (`n × m`), written from the same tiles.
    ct: Option<&'a mut [f64]>,
    m: usize,
    n: usize,
    /// Fold onto `c`'s current values instead of from `+0.0`.
    accumulate: bool,
}

impl<'a> Out<'a> {
    fn new(
        c: &'a mut [f64],
        ct: Option<&'a mut [f64]>,
        m: usize,
        n: usize,
        accumulate: bool,
    ) -> Self {
        assert_eq!(c.len(), m * n);
        assert!(ct.as_ref().map_or(true, |t| t.len() == m * n));
        Out {
            c,
            ct,
            m,
            n,
            accumulate,
        }
    }
}

/// The register-tiled microkernel behind every batched product. Element
/// `(i, j)` of the result is `row_map(i)(fold)`, where `fold` starts from
/// `+0.0` (from the element's current value when accumulating) and adds
/// `p(i, t) · q(t, j)` for `t` ascending: one rounded multiply, then one
/// rounded add, never a fused multiply-add.
///
/// The result is walked in [`ROWS`] × `L` tiles held in a local array
/// while `t` ascends, so each element is loaded and stored once per call
/// instead of once per `t`. Lanes are the outer loop: full [`LANES`]-lane
/// blocks, then one each of 8, 4, 2 and 1 lanes as they fit; within a
/// block, full row tiles, then one 2-row and one 1-row tile as they fit.
/// So any shape is covered, and a block's transposed writes fill whole
/// cache lines before moving on.
/// Tiling only decides which elements fold side by side; no element's
/// fold changes.
fn gemm<E, G>(ops: Operands, mut out: Out, row_map: E)
where
    E: Fn(usize) -> G,
    G: Fn(f64) -> f64,
{
    let n = out.n;
    let mut j0 = 0;
    while j0 + LANES <= n {
        lane_block::<LANES, _, _>(ops, &mut out, j0, &row_map);
        j0 += LANES;
    }
    if j0 + 8 <= n {
        lane_block::<8, _, _>(ops, &mut out, j0, &row_map);
        j0 += 8;
    }
    if j0 + 4 <= n {
        lane_block::<4, _, _>(ops, &mut out, j0, &row_map);
        j0 += 4;
    }
    if j0 + 2 <= n {
        lane_block::<2, _, _>(ops, &mut out, j0, &row_map);
        j0 += 2;
    }
    if j0 < n {
        lane_block::<1, _, _>(ops, &mut out, j0, &row_map);
    }
}

/// `L` lanes from `j0` down every row: full [`ROWS`]-row tiles, then one
/// 2-row and one 1-row tile as they fit. Kept out of line so the register
/// allocator sees one lane width's loops at a time.
#[inline(never)]
fn lane_block<const L: usize, E, G>(ops: Operands, out: &mut Out, j0: usize, row_map: &E)
where
    E: Fn(usize) -> G,
    G: Fn(f64) -> f64,
{
    let mut i0 = 0;
    while i0 + ROWS <= out.m {
        tile::<ROWS, L, _, _>(ops, out, i0, j0, row_map);
        i0 += ROWS;
    }
    if i0 + 2 <= out.m {
        tile::<2, L, _, _>(ops, out, i0, j0, row_map);
        i0 += 2;
    }
    if i0 < out.m {
        tile::<1, L, _, _>(ops, out, i0, j0, row_map);
    }
}

/// One `R × L` tile at `(i0, j0)`: the accumulators stay in `acc` for the
/// whole `t` loop, then pass through the epilogue into the result.
#[inline(always)]
fn tile<const R: usize, const L: usize, E, G>(
    ops: Operands,
    out: &mut Out,
    i0: usize,
    j0: usize,
    row_map: &E,
) where
    E: Fn(usize) -> G,
    G: Fn(f64) -> f64,
{
    let (m, n) = (out.m, out.n);
    let mut acc = [[0.0f64; L]; R];
    if out.accumulate {
        for (i, a) in acc.iter_mut().enumerate() {
            a.copy_from_slice(&out.c[(i0 + i) * n + j0..][..L]);
        }
    }
    for t in 0..ops.k {
        let q: &[f64; L] = ops.q[t * ops.qt + j0..][..L]
            .try_into()
            .expect("a lane run is L long");
        for (i, a) in acc.iter_mut().enumerate() {
            let p = ops.p[(i0 + i) * ops.pi + t * ops.pt];
            for (a, &qv) in a.iter_mut().zip(q) {
                *a += p * qv;
            }
        }
    }
    for (i, a) in acc.iter().enumerate() {
        let map = row_map(i0 + i);
        let row = &mut out.c[(i0 + i) * n + j0..][..L];
        for (o, &v) in row.iter_mut().zip(a) {
            *o = map(v);
        }
    }
    if let Some(ct) = out.ct.as_deref_mut() {
        for j in 0..L {
            let col: [f64; R] = std::array::from_fn(|i| out.c[(i0 + i) * n + j0 + j]);
            ct[(j0 + j) * m + i0..][..R].copy_from_slice(&col);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn matvec_matches_manual() {
        let mut m = Matrix::zeros(2, 3);
        // [[1,2,3],[4,5,6]]
        for (i, v) in (1..=6).enumerate() {
            m.data_mut()[i] = v as f64;
        }
        assert_eq!(m.matvec(&[1.0, 0.0, -1.0]), vec![-2.0, -2.0]);
    }

    #[test]
    fn matvec_t_is_transpose() {
        let mut m = Matrix::zeros(2, 3);
        for (i, v) in (1..=6).enumerate() {
            m.data_mut()[i] = v as f64;
        }
        assert_eq!(m.matvec_t(&[1.0, 1.0]), vec![5.0, 7.0, 9.0]);
    }

    #[test]
    fn add_outer_accumulates() {
        let mut m = Matrix::zeros(2, 2);
        m.add_outer(&[1.0, 2.0], &[3.0, 4.0]);
        m.add_outer(&[1.0, 0.0], &[1.0, 1.0]);
        assert_eq!(m.get(0, 0), 4.0);
        assert_eq!(m.get(0, 1), 5.0);
        assert_eq!(m.get(1, 0), 6.0);
        assert_eq!(m.get(1, 1), 8.0);
    }

    #[test]
    fn random_respects_limit_and_seed() {
        let mut r1 = SmallRng::seed_from_u64(1);
        let mut r2 = SmallRng::seed_from_u64(1);
        let a = Matrix::random(4, 4, 0.5, &mut r1);
        let b = Matrix::random(4, 4, 0.5, &mut r2);
        assert_eq!(a, b);
        assert!(a.data().iter().all(|v| v.abs() <= 0.5));
    }

    #[test]
    fn fm_kernels_match_batch_major_bit_for_bit() {
        let mut rng = SmallRng::seed_from_u64(21);
        let m = Matrix::random(5, 7, 1.0, &mut rng);
        let batch = 4;
        let xs: Vec<f64> = (0..batch * 7).map(|i| ((i * 13) as f64).sin()).collect();
        // matmul_fm == per-sample matvec.
        let mut xt = vec![0.0; xs.len()];
        transpose_into(&xs, batch, 7, &mut xt);
        let mut yt = Vec::new();
        m.matmul_fm(&xt, batch, &mut yt);
        for s in 0..batch {
            let y = m.matvec(&xs[s * 7..(s + 1) * 7]);
            for (r, &yv) in y.iter().enumerate() {
                assert_eq!(
                    yt[r * batch + s].to_bits(),
                    yv.to_bits(),
                    "sample {s} row {r}"
                );
            }
        }
        // matmul_t_fm == per-sample matvec_t.
        let gs: Vec<f64> = (0..batch * 5).map(|i| ((i * 7) as f64).cos()).collect();
        let mut g_fm = vec![0.0; gs.len()];
        transpose_into(&gs, batch, 5, &mut g_fm);
        let mut din_fm = Vec::new();
        m.matmul_t_fm(&g_fm, batch, &mut din_fm);
        for s in 0..batch {
            let d = m.matvec_t(&gs[s * 5..(s + 1) * 5]);
            for (c, &dv) in d.iter().enumerate() {
                assert_eq!(
                    din_fm[c * batch + s].to_bits(),
                    dv.to_bits(),
                    "sample {s} col {c}"
                );
            }
        }
        // add_outer_batch_fm == sequential add_outer.
        let mut a = m.clone();
        let mut b = m.clone();
        a.add_outer_batch_fm(&g_fm, &xs, batch);
        for s in 0..batch {
            b.add_outer(&gs[s * 5..(s + 1) * 5], &xs[s * 7..(s + 1) * 7]);
        }
        assert_eq!(a, b);
    }

    #[test]
    fn every_fold_starts_from_positive_zero() {
        // All products are -0.0, so the folds land on their start value.
        let mut m = Matrix::zeros(1, 2);
        m.data_mut().copy_from_slice(&[-1.0, -2.0]);
        assert_eq!(m.matvec(&[0.0, 0.0])[0].to_bits(), 0.0f64.to_bits());
        for batch in [1, 2] {
            let mut yt = Vec::new();
            m.matmul_fm(&vec![0.0; 2 * batch], batch, &mut yt);
            assert!(
                yt.iter().all(|v| v.to_bits() == 0.0f64.to_bits()),
                "batch {batch}"
            );
        }
        let mut din = Vec::new();
        m.matmul_t_fm(&[0.0], 1, &mut din);
        assert_eq!(m.matvec_t(&[0.0]), din);
        assert!(din.iter().all(|v| v.to_bits() == 0.0f64.to_bits()));
    }

    #[test]
    fn transpose_round_trips() {
        let src: Vec<f64> = (0..11 * 17).map(|i| i as f64).collect();
        let mut t = vec![0.0; src.len()];
        let mut back = vec![0.0; src.len()];
        transpose_into(&src, 11, 17, &mut t);
        transpose_into(&t, 17, 11, &mut back);
        assert_eq!(src, back);
        assert_eq!(t[3 * 11 + 2], src[2 * 17 + 3]);
    }

    #[test]
    fn zero_clears() {
        let mut r = SmallRng::seed_from_u64(2);
        let mut m = Matrix::random(3, 3, 1.0, &mut r);
        m.zero();
        assert!(m.data().iter().all(|&v| v == 0.0));
    }
}

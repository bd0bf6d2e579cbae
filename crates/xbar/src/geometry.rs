//! Crossbar shapes and the paper's candidate sets.
//!
//! §3.3 of the paper observes that square power-of-two crossbars waste rows
//! on 3×3 kernels (27 of 32 rows used, etc.) and introduces *rectangle*
//! crossbars whose heights are multiples of 9 while keeping power-of-two
//! widths. The candidate sets below are verbatim from the paper:
//!
//! - square (SXB): 32×32, 64×64, 128×128, 256×256, 512×512 (§4.1 baselines)
//! - rectangle (RXB): 36×32, 72×64, 144×128, 288×256, 576×512 (§4.3)
//! - the hybrid set AutoHet searches over: 32×32, 36×32, 72×64, 288×256,
//!   576×512 (§3.3 / §4.1)

use std::fmt;

/// An `rows × cols` crossbar shape (wordlines × bitlines).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct XbarShape {
    /// Wordlines (weight-matrix rows mapped here).
    pub rows: u32,
    /// Bitlines (one kernel per column; one ADC per bitline).
    pub cols: u32,
}

impl XbarShape {
    /// Construct a shape; both sides must be non-zero.
    pub const fn new(rows: u32, cols: u32) -> Self {
        assert!(rows > 0 && cols > 0);
        XbarShape { rows, cols }
    }

    /// Square shorthand.
    pub const fn square(side: u32) -> Self {
        Self::new(side, side)
    }

    /// Total memristor cells.
    pub fn cells(&self) -> u64 {
        self.rows as u64 * self.cols as u64
    }

    /// True for square crossbars (the paper's SXB).
    pub fn is_square(&self) -> bool {
        self.rows == self.cols
    }

    /// True for the paper's rectangle crossbars: height a multiple of 9
    /// (matched to 3×3 kernels) and not square.
    pub fn is_rect(&self) -> bool {
        !self.is_square() && self.rows % 9 == 0
    }
}

impl fmt::Display for XbarShape {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}x{}", self.rows, self.cols)
    }
}

/// The five square baseline sizes (§4.1): each forms one homogeneous
/// accelerator baseline.
pub const SQUARE_CANDIDATES: [XbarShape; 5] = [
    XbarShape::square(32),
    XbarShape::square(64),
    XbarShape::square(128),
    XbarShape::square(256),
    XbarShape::square(512),
];

/// The five rectangle sizes (§4.3): heights are multiples of 9.
pub const RECT_CANDIDATES: [XbarShape; 5] = [
    XbarShape::new(36, 32),
    XbarShape::new(72, 64),
    XbarShape::new(144, 128),
    XbarShape::new(288, 256),
    XbarShape::new(576, 512),
];

/// The hybrid candidate set AutoHet searches over by default (§3.3/§4.1):
/// one square plus four rectangles.
pub fn paper_hybrid_candidates() -> Vec<XbarShape> {
    vec![
        XbarShape::square(32),
        XbarShape::new(36, 32),
        XbarShape::new(72, 64),
        XbarShape::new(288, 256),
        XbarShape::new(576, 512),
    ]
}

/// All ten shapes (5 SXB + 5 RXB), the pool §4.4's sensitivity study draws
/// `aSbR` subsets from.
pub fn all_candidates() -> Vec<XbarShape> {
    let mut v = SQUARE_CANDIDATES.to_vec();
    v.extend_from_slice(&RECT_CANDIDATES);
    v
}

/// Choose `n_square` squares and `n_rect` rectangles (largest-first
/// diversity: picks are spread across the size range), used by the §4.4
/// ratio sweep.
pub fn mixed_candidates(n_square: usize, n_rect: usize) -> Vec<XbarShape> {
    assert!(n_square <= SQUARE_CANDIDATES.len() && n_rect <= RECT_CANDIDATES.len());
    let pick = |pool: &[XbarShape], n: usize| -> Vec<XbarShape> {
        // Spread selections evenly over the ordered pool so every mix spans
        // small and large shapes (e.g. n=2 → {smallest, largest}).
        match n {
            0 => vec![],
            1 => vec![pool[pool.len() - 1]],
            _ => (0..n)
                .map(|i| pool[i * (pool.len() - 1) / (n - 1)])
                .collect(),
        }
    };
    let mut v = pick(&SQUARE_CANDIDATES, n_square);
    v.extend(pick(&RECT_CANDIDATES, n_rect));
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shape_basics() {
        let s = XbarShape::new(36, 32);
        assert_eq!(s.cells(), 36 * 32);
        assert!(!s.is_square());
        assert!(s.is_rect());
        assert_eq!(s.to_string(), "36x32");
        assert!(XbarShape::square(64).is_square());
        assert!(!XbarShape::square(64).is_rect());
    }

    #[test]
    fn paper_candidate_sets() {
        assert_eq!(SQUARE_CANDIDATES.len(), 5);
        assert!(SQUARE_CANDIDATES.iter().all(|s| s.is_square()));
        assert!(RECT_CANDIDATES.iter().all(|s| s.rows % 9 == 0));
        let hybrid = paper_hybrid_candidates();
        assert_eq!(hybrid.len(), 5);
        assert_eq!(hybrid[0], XbarShape::square(32));
        assert_eq!(hybrid[4], XbarShape::new(576, 512));
        assert_eq!(all_candidates().len(), 10);
    }

    #[test]
    fn rect_heights_match_widths_times_nine_eighths() {
        // §3.3: widths stay powers of two, heights become multiples of 9.
        for r in RECT_CANDIDATES {
            assert_eq!(r.rows % 9, 0);
            assert!(r.cols.is_power_of_two());
        }
    }

    #[test]
    fn mixed_candidates_counts() {
        for (s, r) in [(2, 3), (3, 2), (4, 1), (5, 0), (0, 5)] {
            let v = mixed_candidates(s, r);
            assert_eq!(v.len(), s + r);
            assert_eq!(v.iter().filter(|x| x.is_square()).count(), s);
        }
    }

    #[test]
    fn mixed_candidates_span_size_range() {
        let v = mixed_candidates(2, 2);
        assert!(v.contains(&XbarShape::square(32)));
        assert!(v.contains(&XbarShape::square(512)));
        assert!(v.contains(&XbarShape::new(36, 32)));
        assert!(v.contains(&XbarShape::new(576, 512)));
    }

    #[test]
    fn shapes_order_for_grouping() {
        // Ord lets allocators group tiles by shape deterministically.
        let mut v = [XbarShape::square(64), XbarShape::new(36, 32)];
        v.sort();
        assert_eq!(v[0], XbarShape::new(36, 32));
    }
}

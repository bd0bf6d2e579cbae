//! The baseline *tile-based* crossbar allocator.
//!
//! This is the scheme §2.2.2 criticizes: the tile is the minimum
//! allocation unit, each tile serves exactly one layer, and a layer
//! needing `n` crossbars receives `⌈n / capacity⌉` whole tiles — so a
//! layer occupying 5 of 8 crossbars wastes 3 (37.5%), and a tiny layer in
//! its own tile wastes up to `capacity − 1`. The paper's Fig. 4 measures
//! exactly this waste; [`crate::tile_shared`] then repairs it.

use crate::hierarchy::Tile;
use autohet_dnn::{Layer, Model};
use autohet_xbar::utilization::{footprint, Footprint};
use autohet_xbar::XbarShape;
use serde::{Deserialize, Serialize};

/// Per-layer placement summary.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LayerPlacement {
    /// Layer index within the model.
    pub layer_index: usize,
    /// Crossbar shape assigned by the strategy.
    pub shape: XbarShape,
    /// Mapping footprint (occupied crossbars, Eq. 4 terms).
    pub footprint: Footprint,
    /// Tiles granted by the allocator (before any sharing).
    pub tiles: u64,
}

impl LayerPlacement {
    /// Crossbars granted minus crossbars occupied.
    pub fn empty_xbars(&self, capacity: u32) -> u64 {
        self.tiles * capacity as u64 - self.footprint.total_xbars()
    }

    /// Fraction of granted crossbars left empty (the paper's Fig. 4
    /// quantity).
    pub fn empty_fraction(&self, capacity: u32) -> f64 {
        self.empty_xbars(capacity) as f64 / (self.tiles * capacity as u64) as f64
    }
}

/// A complete allocation: concrete tiles plus per-layer summaries.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Allocation {
    /// Logical crossbars per tile.
    pub capacity: u32,
    /// All allocated tiles.
    pub tiles: Vec<Tile>,
    /// Per-layer placements, indexed like `model.layers`.
    pub per_layer: Vec<LayerPlacement>,
}

impl Allocation {
    /// Total allocated logical crossbars.
    pub fn allocated_xbars(&self) -> u64 {
        self.tiles.len() as u64 * self.capacity as u64
    }

    /// Total occupied logical crossbars.
    pub fn occupied_xbars(&self) -> u64 {
        self.tiles.iter().map(|t| t.occupied() as u64).sum()
    }

    /// Total empty crossbar slots across all tiles.
    pub fn empty_xbars(&self) -> u64 {
        self.allocated_xbars() - self.occupied_xbars()
    }

    /// Number of banks needed to host this allocation, given a per-bank
    /// tile capacity (the paper's banks hold 256×256 tiles, §4.1 — far
    /// more than any single model needs, but multi-model co-location and
    /// small edge banks make the check meaningful).
    pub fn banks_required(&self, tiles_per_bank: u64) -> u64 {
        assert!(tiles_per_bank >= 1);
        (self.tiles.len() as u64).div_ceil(tiles_per_bank)
    }

    /// Tile count per crossbar shape, for per-shape cost aggregation.
    pub fn tiles_by_shape(&self) -> Vec<(XbarShape, u64)> {
        let mut counts: Vec<(XbarShape, u64)> = Vec::new();
        for t in &self.tiles {
            match counts.iter_mut().find(|(s, _)| *s == t.shape) {
                Some((_, n)) => *n += 1,
                None => counts.push((t.shape, 1)),
            }
        }
        counts.sort();
        counts
    }
}

/// Placement of a single layer under the tile-based scheme: the pure,
/// per-(layer, shape) half of the allocator, safe to memoize because it
/// depends on nothing but the layer, the shape, and the tile capacity.
pub fn placement_for(layer: &Layer, shape: XbarShape, capacity: u32) -> LayerPlacement {
    assert!(capacity >= 1);
    let fp = footprint(layer, shape);
    LayerPlacement {
        layer_index: layer.index,
        shape,
        footprint: fp,
        tiles: fp.total_xbars().div_ceil(capacity as u64),
    }
}

/// Materialize concrete tiles from per-layer placements — the second,
/// strategy-dependent half of the tile-based scheme, shared by
/// [`allocate_tile_based`] and the memoized [`crate::engine::EvalEngine`]'s
/// fault-repair path so both produce identical allocations.
pub(crate) fn allocation_from_placements(
    per_layer: Vec<LayerPlacement>,
    capacity: u32,
) -> Allocation {
    assert!(capacity >= 1);
    let mut tiles = Vec::new();
    for pl in &per_layer {
        let mut remaining = pl.footprint.total_xbars();
        debug_assert_eq!(pl.tiles, remaining.div_ceil(capacity as u64));
        for _ in 0..pl.tiles {
            let mut t = Tile::new(tiles.len(), pl.shape, capacity);
            let take = remaining.min(capacity as u64) as u32;
            t.place(pl.layer_index, take);
            remaining -= take as u64;
            tiles.push(t);
        }
    }
    Allocation {
        capacity,
        tiles,
        per_layer,
    }
}

/// Allocate `model` under `strategy` (one shape per layer) with the
/// tile-based scheme: every layer gets its own whole tiles.
pub fn allocate_tile_based(model: &Model, strategy: &[XbarShape], capacity: u32) -> Allocation {
    assert_eq!(
        strategy.len(),
        model.layers.len(),
        "strategy length must match layer count"
    );
    assert!(capacity >= 1);
    let per_layer: Vec<LayerPlacement> = model
        .layers
        .iter()
        .zip(strategy)
        .map(|(layer, &shape)| placement_for(layer, shape, capacity))
        .collect();
    allocation_from_placements(per_layer, capacity)
}

#[cfg(test)]
mod tests {
    use super::*;
    use autohet_dnn::zoo;

    fn uniform(model: &Model, shape: XbarShape) -> Vec<XbarShape> {
        vec![shape; model.layers.len()]
    }

    #[test]
    fn small_layer_wastes_three_quarters_of_its_tile() {
        // §2.2.2's example: a layer needing one crossbar in a 4-crossbar
        // tile wastes 75%.
        let m = zoo::micro_cnn();
        // Layer 0: Cin=1, Cout=8, k=3 → fits one 64×64 crossbar.
        let alloc = allocate_tile_based(&m, &uniform(&m, XbarShape::square(64)), 4);
        let p0 = alloc.per_layer[0];
        assert_eq!(p0.footprint.total_xbars(), 1);
        assert_eq!(p0.tiles, 1);
        assert_eq!(p0.empty_xbars(4), 3);
        assert!((p0.empty_fraction(4) - 0.75).abs() < 1e-12);
    }

    #[test]
    fn five_crossbars_take_two_tiles_wasting_37_5_percent() {
        // §2.2.2's second example: 5 crossbars → 2 tiles → 3/8 wasted.
        // FC 240→120 on 64×64: ⌈240/64⌉ × ⌈120/64⌉ = 4 × 2 = 8… use a
        // layer that needs exactly 5: FC 300→50 → ⌈300/64⌉=5 × 1.
        let m = autohet_dnn::ModelBuilder::new("t", autohet_dnn::Dataset::Mnist)
            .fc(300)
            .fc(50)
            .build();
        let alloc = allocate_tile_based(&m, &uniform(&m, XbarShape::square(64)), 4);
        let p1 = alloc.per_layer[1]; // fc 300→50
        assert_eq!(p1.footprint.total_xbars(), 5);
        assert_eq!(p1.tiles, 2);
        assert!((p1.empty_fraction(4) - 0.375).abs() < 1e-12);
    }

    #[test]
    fn tiles_hold_one_layer_each_before_sharing() {
        let m = zoo::vgg16();
        let alloc = allocate_tile_based(&m, &uniform(&m, XbarShape::square(64)), 4);
        assert!(alloc.tiles.iter().all(|t| t.distinct_layers() == 1));
        assert!(alloc.tiles.iter().all(|t| t.occupied() <= t.capacity));
    }

    #[test]
    fn occupancy_matches_footprints() {
        let m = zoo::alexnet();
        let alloc = allocate_tile_based(&m, &uniform(&m, XbarShape::square(128)), 8);
        let occupied: u64 = alloc
            .per_layer
            .iter()
            .map(|p| p.footprint.total_xbars())
            .sum();
        assert_eq!(alloc.occupied_xbars(), occupied);
        assert!(alloc.allocated_xbars() >= occupied);
        assert_eq!(
            alloc.allocated_xbars(),
            alloc.per_layer.iter().map(|p| p.tiles * 8).sum::<u64>()
        );
    }

    #[test]
    fn empty_fraction_grows_with_tile_size() {
        // The paper's Fig. 4 trend: bigger tiles, more waste.
        let m = zoo::vgg16();
        let strategy = uniform(&m, XbarShape::square(64));
        let mut prev = 0.0;
        for cap in [4u32, 8, 16, 32] {
            let alloc = allocate_tile_based(&m, &strategy, cap);
            let frac = alloc.empty_xbars() as f64 / alloc.allocated_xbars() as f64;
            assert!(frac >= prev - 1e-12, "cap {cap}: {frac} < {prev}");
            prev = frac;
        }
    }

    #[test]
    fn tiles_by_shape_counts_heterogeneous_allocations() {
        let m = zoo::micro_cnn();
        let strategy = vec![
            XbarShape::square(32),
            XbarShape::square(32),
            XbarShape::square(64),
            XbarShape::square(32),
        ];
        let alloc = allocate_tile_based(&m, &strategy, 4);
        let by_shape = alloc.tiles_by_shape();
        assert_eq!(by_shape.len(), 2);
        let total: u64 = by_shape.iter().map(|(_, n)| n).sum();
        assert_eq!(total, alloc.tiles.len() as u64);
    }

    #[test]
    fn banks_required_rounds_up() {
        let m = zoo::vgg16();
        let alloc = allocate_tile_based(&m, &uniform(&m, XbarShape::square(64)), 4);
        let tiles = alloc.tiles.len() as u64;
        assert_eq!(alloc.banks_required(tiles), 1);
        assert_eq!(alloc.banks_required(tiles - 1), 2);
        // The paper's 256×256-tile banks hold any single model.
        assert_eq!(alloc.banks_required(256 * 256), 1);
    }

    #[test]
    #[should_panic]
    fn strategy_length_mismatch_panics() {
        let m = zoo::micro_cnn();
        let _ = allocate_tile_based(&m, &[XbarShape::square(32)], 4);
    }

    #[test]
    fn placements_rebuild_the_same_allocation() {
        // The split halves of the allocator must compose back to exactly
        // what the one-shot path produces (the EvalEngine relies on this).
        let m = zoo::alexnet();
        let strategy = uniform(&m, XbarShape::square(64));
        let direct = allocate_tile_based(&m, &strategy, 4);
        let per_layer: Vec<LayerPlacement> = m
            .layers
            .iter()
            .zip(&strategy)
            .map(|(l, &s)| placement_for(l, s, 4))
            .collect();
        assert_eq!(allocation_from_placements(per_layer, 4), direct);
    }
}

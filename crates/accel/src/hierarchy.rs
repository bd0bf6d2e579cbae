//! Accelerator configuration and tile bookkeeping.
//!
//! The paper's hierarchy (Fig. 1 / §4.1): a bank holds many tiles, each
//! tile holds `pes_per_tile` PEs (default 4), and each PE gangs eight
//! 1-bit crossbar slices into one *logical* crossbar. Allocation therefore
//! deals in logical crossbars, `pes_per_tile` of them per tile; the cost
//! model expands to physical slices internally.

use autohet_xbar::{CostParams, XbarShape};
use serde::{Deserialize, Serialize};

/// Global accelerator configuration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AccelConfig {
    /// Component cost model.
    pub cost: CostParams,
    /// Logical crossbars per tile (= PEs per tile; paper default 4, the
    /// §4.4 sensitivity sweep uses 8/16/32, Fig. 4 uses 4–32).
    pub pes_per_tile: u32,
    /// Enable the paper's tile-shared allocation scheme (Algorithm 1).
    pub tile_shared: bool,
}

impl Default for AccelConfig {
    fn default() -> Self {
        AccelConfig {
            cost: CostParams::default(),
            pes_per_tile: 4,
            tile_shared: false,
        }
    }
}

impl AccelConfig {
    /// Configuration with the tile-shared scheme enabled.
    pub fn with_tile_sharing(mut self) -> Self {
        self.tile_shared = true;
        self
    }

    /// Configuration with a custom PE count per tile.
    pub fn with_pes_per_tile(mut self, pes: u32) -> Self {
        assert!(pes >= 1);
        self.pes_per_tile = pes;
        self
    }
}

/// One occupant entry in a tile: a layer holding some of its crossbars.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct TileSlot {
    /// Index of the occupying layer within its model.
    pub layer_index: usize,
    /// Logical crossbars of the tile this layer occupies.
    pub xbars: u32,
}

/// An allocated tile: homogeneous crossbars of one shape, shared by one or
/// more layers (more than one only after tile sharing).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Tile {
    /// Identifier unique within an [`crate::Allocation`].
    pub id: usize,
    /// Crossbar shape of every PE in this tile.
    pub shape: XbarShape,
    /// Logical crossbar capacity (= PEs per tile).
    pub capacity: u32,
    /// Occupying layers and their crossbar counts.
    pub occupants: Vec<TileSlot>,
}

impl Tile {
    /// New empty tile.
    pub fn new(id: usize, shape: XbarShape, capacity: u32) -> Self {
        Tile {
            id,
            shape,
            capacity,
            occupants: Vec::new(),
        }
    }

    /// Crossbars currently occupied.
    pub fn occupied(&self) -> u32 {
        self.occupants.iter().map(|s| s.xbars).sum()
    }

    /// Empty crossbar slots (`emptyXBNum` in Algorithm 1).
    pub fn empty(&self) -> u32 {
        self.capacity - self.occupied()
    }

    /// Place `xbars` crossbars of `layer_index` into this tile.
    /// Panics if capacity would be exceeded.
    pub fn place(&mut self, layer_index: usize, xbars: u32) {
        assert!(
            xbars <= self.empty(),
            "tile {} overflow: placing {} into {} empty",
            self.id,
            xbars,
            self.empty()
        );
        if xbars > 0 {
            self.occupants.push(TileSlot { layer_index, xbars });
        }
    }

    /// Distinct layers sharing this tile.
    pub fn distinct_layers(&self) -> usize {
        let mut ids: Vec<usize> = self.occupants.iter().map(|s| s.layer_index).collect();
        ids.sort_unstable();
        ids.dedup();
        ids.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_matches_paper() {
        let c = AccelConfig::default();
        assert_eq!(c.pes_per_tile, 4);
        assert!(!c.tile_shared);
        assert_eq!(c.cost.weight_bits, 8);
    }

    #[test]
    fn builders_chain() {
        let c = AccelConfig::default()
            .with_tile_sharing()
            .with_pes_per_tile(16);
        assert!(c.tile_shared);
        assert_eq!(c.pes_per_tile, 16);
    }

    #[test]
    fn tile_occupancy_accounting() {
        let mut t = Tile::new(0, XbarShape::square(64), 4);
        assert_eq!(t.empty(), 4);
        t.place(3, 3);
        assert_eq!(t.occupied(), 3);
        assert_eq!(t.empty(), 1);
        t.place(5, 1);
        assert_eq!(t.empty(), 0);
        assert_eq!(t.distinct_layers(), 2);
    }

    #[test]
    fn zero_placement_is_a_noop() {
        let mut t = Tile::new(0, XbarShape::square(64), 4);
        t.place(0, 0);
        assert!(t.occupants.is_empty());
    }

    #[test]
    #[should_panic]
    fn overflow_is_rejected() {
        let mut t = Tile::new(0, XbarShape::square(64), 4);
        t.place(0, 5);
    }
}

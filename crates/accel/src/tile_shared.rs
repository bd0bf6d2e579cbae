//! The paper's tile-shared crossbar allocation scheme (§3.4, Algorithm 1).
//!
//! Key idea: allow multiple DNN layers to share one tile so the empty
//! crossbars the tile-based scheme leaves behind get reused. Sharing is
//! only legal between tiles of the *same crossbar shape* (a tile's
//! peripherals are sized for one shape), so tiles are first grouped by
//! shape; within each group Algorithm 1 runs verbatim:
//!
//! 1. sort the tile list ascending by empty-crossbar count;
//! 2. two pointers walk from both ends: when
//!    `head.empty + tail.empty ≥ capacity`, the tail tile's occupants all
//!    fit into the head tile's empty slots (tail is the emptiest tile), so
//!    they are remapped into the head tile, the tail tile is freed, and
//!    the tail pointer moves inward; otherwise the head pointer moves.
//!
//! O(N log N) for the sort plus the paper's O(N) scan.

use crate::alloc::{Allocation, LayerPlacement};
use crate::hierarchy::Tile;
use autohet_xbar::XbarShape;
use serde::{Deserialize, Serialize};

/// Result of tile sharing over one allocation.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SharingReport {
    /// Tiles before sharing.
    pub tiles_before: usize,
    /// Tiles after sharing.
    pub tiles_after: usize,
    /// `(absorbing tile id, freed tile id)` pairs, in combination order —
    /// Algorithm 1's `combMap` flattened.
    pub combinations: Vec<(usize, usize)>,
}

impl SharingReport {
    /// Tiles released back to the free pool.
    pub fn freed(&self) -> usize {
        self.tiles_before - self.tiles_after
    }
}

/// Algorithm 1 over one same-shape tile group. Tiles whose occupants were
/// remapped away are drained (left with zero occupants); the caller
/// removes them. Returns the `(head, tail)` tile-id combinations.
pub fn combine_group(tiles: &mut [Tile]) -> Vec<(usize, usize)> {
    debug_assert!(tiles.windows(2).all(|w| w[0].shape == w[1].shape));
    let capacity = match tiles.first() {
        Some(t) => t.capacity,
        None => return Vec::new(),
    };
    // Line 2: sort ascending by empty crossbar count.
    let mut order: Vec<usize> = (0..tiles.len()).collect();
    order.sort_by_key(|&i| tiles[i].empty());
    let mut empty: Vec<u32> = order.iter().map(|&i| tiles[i].empty()).collect();
    scan(&mut empty, capacity)
        .into_iter()
        .map(|(head, tail)| {
            let (hi, ti) = (order[head], order[tail]);
            let moved = std::mem::take(&mut tiles[ti].occupants);
            for slot in moved {
                tiles[hi].place(slot.layer_index, slot.xbars);
            }
            (tiles[hi].id, tiles[ti].id)
        })
        .collect()
}

/// Algorithm 1's two-pointer scan over one group's empty-crossbar counts,
/// sorted ascending. Returns the `(head, tail)` positions combined, in
/// order; `empty` tracks each head's shrinking slack.
fn scan(empty: &mut [u32], capacity: u32) -> Vec<(usize, usize)> {
    let mut comb = Vec::new();
    let mut head = 0usize;
    let mut tail = empty.len().saturating_sub(1);
    while head < tail {
        // Lines 8-12: the tail tile's occupants fit into the head's slack.
        if empty[head] + empty[tail] >= capacity {
            empty[head] -= capacity - empty[tail];
            comb.push((head, tail));
            tail -= 1;
        } else {
            // Lines 13-14.
            head += 1;
        }
    }
    comb
}

/// Tile counts per crossbar shape, in ascending shape order (as
/// [`Allocation::tiles_by_shape`] yields them), of the tile-based
/// allocation of `per_layer` — followed by Algorithm 1 when `share` is set
/// — without materializing a tile.
///
/// Allocation numbers a layer's tiles consecutively, and all but its last
/// are full. A full tile never combines: it has no empty crossbar and
/// every tile holds at least one occupied crossbar, so
/// `head.empty + tail.empty ≥ capacity` fails with a full tile on either
/// side. The stable sort puts full tiles first, and the head pointer
/// walks past them. So Algorithm 1 runs on each layer's partial last tile
/// only (id: the layer's first id + `tiles − 1`), sorted stably by empty
/// count in id order, and reports the same combinations.
pub(crate) fn tile_counts(
    per_layer: &[LayerPlacement],
    capacity: u32,
    share: bool,
) -> (Vec<(XbarShape, u64)>, Option<SharingReport>) {
    let mut counts: Vec<(XbarShape, u64)> = Vec::new();
    // Each layer's partial last tile as (shape, empty, id), in id order.
    let mut partial = Vec::new();
    let mut first_id = 0usize;
    for pl in per_layer {
        match counts.iter_mut().find(|(s, _)| *s == pl.shape) {
            Some((_, n)) => *n += pl.tiles,
            None => counts.push((pl.shape, pl.tiles)),
        }
        let spill = (pl.footprint.total_xbars() % capacity as u64) as u32;
        if spill > 0 {
            partial.push((pl.shape, capacity - spill, first_id + pl.tiles as usize - 1));
        }
        first_id += pl.tiles as usize;
    }
    counts.sort();
    let sharing = share.then(|| {
        let mut combinations = Vec::new();
        for (shape, n) in &mut counts {
            let mut group: Vec<(u32, usize)> = partial
                .iter()
                .filter(|t| t.0 == *shape)
                .map(|t| (t.1, t.2))
                .collect();
            // Stable: equal empty counts stay in id order.
            group.sort_by_key(|&(empty, _)| empty);
            let mut empty: Vec<u32> = group.iter().map(|&(e, _)| e).collect();
            let comb = scan(&mut empty, capacity);
            *n -= comb.len() as u64;
            combinations.extend(comb.into_iter().map(|(h, t)| (group[h].1, group[t].1)));
        }
        SharingReport {
            tiles_before: first_id,
            tiles_after: first_id - combinations.len(),
            combinations,
        }
    });
    (counts, sharing)
}

/// Apply tile sharing to a whole allocation: group tiles by shape, run
/// Algorithm 1 per group, drop freed tiles.
///
/// ```
/// use autohet_accel::{alloc::allocate_tile_based, tile_shared::apply_tile_sharing};
/// use autohet_xbar::XbarShape;
///
/// let model = autohet_dnn::zoo::alexnet();
/// let strategy = vec![XbarShape::new(72, 64); model.layers.len()];
/// let mut alloc = allocate_tile_based(&model, &strategy, 4);
/// let report = apply_tile_sharing(&mut alloc);
/// assert!(report.tiles_after <= report.tiles_before);
/// assert!(alloc.tiles.iter().all(|t| t.occupied() <= t.capacity));
/// ```
pub fn apply_tile_sharing(alloc: &mut Allocation) -> SharingReport {
    let tiles_before = alloc.tiles.len();
    // Group by crossbar shape (§3.4: "the selected tiles for sharing
    // should have the same crossbar size").
    let mut shapes: Vec<_> = alloc.tiles.iter().map(|t| t.shape).collect();
    shapes.sort();
    shapes.dedup();

    let mut combinations = Vec::new();
    for shape in shapes {
        // Indices of this group's tiles within the allocation.
        let idx: Vec<usize> = alloc
            .tiles
            .iter()
            .enumerate()
            .filter(|(_, t)| t.shape == shape)
            .map(|(i, _)| i)
            .collect();
        let mut group: Vec<Tile> = idx.iter().map(|&i| alloc.tiles[i].clone()).collect();
        combinations.extend(combine_group(&mut group));
        for (&i, t) in idx.iter().zip(group) {
            alloc.tiles[i] = t;
        }
    }
    alloc.tiles.retain(|t| !t.occupants.is_empty());
    SharingReport {
        tiles_before,
        tiles_after: alloc.tiles.len(),
        combinations,
    }
}

/// Merge several models' allocations into one pool and share tiles across
/// all of them (§3.4: freed tiles "become available for other layers in
/// the DNN model **or other models**"). Occupant `layer_index`es are
/// re-tagged with each allocation's global layer offset (allocation `i`'s
/// layer `k` becomes `offset_i + k`), and the returned offsets let callers
/// map back.
pub fn share_across_models(allocs: Vec<Allocation>) -> (Allocation, Vec<usize>, SharingReport) {
    assert!(!allocs.is_empty());
    let capacity = allocs[0].capacity;
    assert!(
        allocs.iter().all(|a| a.capacity == capacity),
        "all accelerators must share a tile capacity"
    );
    let mut offsets = Vec::with_capacity(allocs.len());
    let mut merged = Allocation {
        capacity,
        tiles: Vec::new(),
        per_layer: Vec::new(),
    };
    let mut layer_offset = 0usize;
    for a in allocs {
        offsets.push(layer_offset);
        let next_offset = layer_offset + a.per_layer.len();
        for mut t in a.tiles {
            t.id = merged.tiles.len();
            for s in &mut t.occupants {
                s.layer_index += layer_offset;
            }
            merged.tiles.push(t);
        }
        for mut p in a.per_layer {
            p.layer_index += layer_offset;
            merged.per_layer.push(p);
        }
        layer_offset = next_offset;
    }
    let report = apply_tile_sharing(&mut merged);
    (merged, offsets, report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::alloc::allocate_tile_based;
    use autohet_dnn::zoo;

    fn tile_with(id: usize, occupied: u32) -> Tile {
        let mut t = Tile::new(id, XbarShape::square(32), 4);
        t.place(id, occupied);
        t
    }

    #[test]
    fn paper_fig8_example_three_tiles_collapse_to_one() {
        // Fig. 8: L1 takes 2 crossbars, L2 and L3 one each, all 32×32,
        // 4 crossbars per tile → one shared tile instead of three.
        let mut tiles = vec![tile_with(0, 2), tile_with(1, 1), tile_with(2, 1)];
        let comb = combine_group(&mut tiles);
        let survivors: Vec<&Tile> = tiles.iter().filter(|t| !t.occupants.is_empty()).collect();
        assert_eq!(survivors.len(), 1);
        assert_eq!(survivors[0].occupied(), 4);
        assert_eq!(survivors[0].distinct_layers(), 3);
        assert_eq!(comb.len(), 2);
    }

    #[test]
    fn combination_requires_fit() {
        // Two tiles each 3/4 full cannot merge (3+3 > 4 occupied).
        let mut tiles = vec![tile_with(0, 3), tile_with(1, 3)];
        let comb = combine_group(&mut tiles);
        assert!(comb.is_empty());
        assert!(tiles.iter().all(|t| t.occupied() == 3));
    }

    #[test]
    fn never_overflows_capacity() {
        let mut tiles: Vec<Tile> = (0..20).map(|i| tile_with(i, (i % 4 + 1) as u32)).collect();
        let _ = combine_group(&mut tiles);
        assert!(tiles.iter().all(|t| t.occupied() <= t.capacity));
    }

    #[test]
    fn conserves_occupied_crossbars() {
        let mut tiles: Vec<Tile> = (0..37)
            .map(|i| tile_with(i, (i * 7 % 4 + 1) as u32))
            .collect();
        let before: u32 = tiles.iter().map(Tile::occupied).sum();
        let _ = combine_group(&mut tiles);
        let after: u32 = tiles.iter().map(Tile::occupied).sum();
        assert_eq!(before, after);
    }

    #[test]
    fn sharing_never_mixes_shapes() {
        let m = zoo::micro_cnn();
        let strategy = vec![
            XbarShape::square(32),
            XbarShape::square(64),
            XbarShape::square(32),
            XbarShape::square(64),
        ];
        let mut alloc = allocate_tile_based(&m, &strategy, 4);
        let _ = apply_tile_sharing(&mut alloc);
        for t in &alloc.tiles {
            // Occupants of one tile must have been assigned the same shape.
            for s in &t.occupants {
                assert_eq!(strategy[s.layer_index], t.shape);
            }
        }
    }

    #[test]
    fn sharing_reduces_tiles_on_vgg16() {
        // Table 4's effect: All occupies fewer tiles than +Hy.
        let m = zoo::vgg16();
        let strategy = vec![XbarShape::square(64); m.layers.len()];
        let mut alloc = allocate_tile_based(&m, &strategy, 4);
        let rep = apply_tile_sharing(&mut alloc);
        assert!(rep.freed() > 0, "expected sharing to free tiles");
        assert_eq!(rep.tiles_after, alloc.tiles.len());
        assert!(alloc.tiles.iter().all(|t| !t.occupants.is_empty()));
    }

    #[test]
    fn cross_model_sharing_frees_at_least_as_much_as_separate_sharing() {
        let shape = XbarShape::new(72, 64);
        let make = |m: &autohet_dnn::Model| allocate_tile_based(m, &vec![shape; m.layers.len()], 4);
        let a = make(&zoo::alexnet());
        let b = make(&zoo::micro_cnn());
        // Separate sharing.
        let mut sa = a.clone();
        let mut sb = b.clone();
        let ra = apply_tile_sharing(&mut sa);
        let rb = apply_tile_sharing(&mut sb);
        // Joint sharing.
        let (merged, offsets, rj) = share_across_models(vec![a, b]);
        assert_eq!(offsets, vec![0, zoo::alexnet().layers.len()]);
        assert!(rj.tiles_after <= ra.tiles_after + rb.tiles_after);
        assert!(merged.tiles.iter().all(|t| t.occupied() <= t.capacity));
        // At least one tile actually mixes the two models.
        let n_a = zoo::alexnet().layers.len();
        let mixes = merged.tiles.iter().any(|t| {
            let mut has_a = false;
            let mut has_b = false;
            for s in &t.occupants {
                if s.layer_index < n_a {
                    has_a = true;
                } else {
                    has_b = true;
                }
            }
            has_a && has_b
        });
        assert!(mixes, "expected a shared tile spanning both models");
    }

    #[test]
    #[should_panic]
    fn cross_model_sharing_rejects_mismatched_capacity() {
        let m = zoo::micro_cnn();
        let s = vec![XbarShape::square(32); m.layers.len()];
        let a = allocate_tile_based(&m, &s, 4);
        let b = allocate_tile_based(&m, &s, 8);
        let _ = share_across_models(vec![a, b]);
    }

    #[test]
    fn empty_group_is_a_noop() {
        let mut tiles: Vec<Tile> = Vec::new();
        assert!(combine_group(&mut tiles).is_empty());
    }

    #[test]
    fn already_full_tiles_are_untouched() {
        let mut tiles = vec![tile_with(0, 4), tile_with(1, 4), tile_with(2, 2)];
        let comb = combine_group(&mut tiles);
        assert!(comb.is_empty());
    }
}

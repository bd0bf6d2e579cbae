//! Network-on-chip (inter-tile interconnect) model.
//!
//! The paper's platform (MNSIM) and the architectures it builds on (ISAAC,
//! PRIME) connect tiles with a 2-D mesh NoC; activations produced by layer
//! `k`'s tiles must travel to layer `k+1`'s tiles every inference. This
//! module adds that substrate:
//!
//! - tiles are placed on a square mesh in allocation order (row-major),
//! - traffic between consecutive layers is the output feature map
//!   (`Cout · out²` bytes at 8-bit activations), fanned out from each
//!   producer tile to every consumer tile,
//! - routes are XY (dimension-ordered); cost is hops × bytes.
//!
//! The evaluator folds the resulting energy and latency into the report
//! when [`crate::AccelConfig::model_noc`] is enabled. Communication is a
//! second-order term next to ADC leakage — which is why the paper (and
//! our default) can omit it — but it penalizes strategies that scatter a
//! layer across many tiles, and the tests pin that behaviour.

use crate::alloc::Allocation;
use autohet_dnn::Model;
use serde::{Deserialize, Serialize};

/// NoC cost parameters.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct NocParams {
    /// Energy per byte per hop \[nJ\].
    pub e_hop_byte: f64,
    /// Router+link traversal time per hop \[ns\] (per flit, fully pipelined
    /// per transfer: latency counts worst-case route hops once per layer
    /// transfer plus a per-byte serialization term).
    pub t_hop: f64,
    /// Link bandwidth [bytes/ns].
    pub bytes_per_ns: f64,
}

impl Default for NocParams {
    fn default() -> Self {
        NocParams {
            e_hop_byte: 1.0e-3,
            t_hop: 1.0,
            bytes_per_ns: 32.0,
        }
    }
}

/// Mesh placement of an allocation's tiles.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct MeshPlacement {
    /// Mesh side length (⌈√tiles⌉).
    pub side: usize,
    /// `(x, y)` per tile, indexed like `Allocation::tiles`.
    pub coords: Vec<(usize, usize)>,
}

/// Place tiles row-major on the smallest square mesh that fits them.
pub fn place_row_major(n_tiles: usize) -> MeshPlacement {
    let side = (n_tiles as f64).sqrt().ceil() as usize;
    let coords = (0..n_tiles)
        .map(|i| (i % side.max(1), i / side.max(1)))
        .collect();
    MeshPlacement { side, coords }
}

/// Manhattan (XY-route) hop count between two mesh coordinates.
pub fn hops(a: (usize, usize), b: (usize, usize)) -> usize {
    a.0.abs_diff(b.0) + a.1.abs_diff(b.1)
}

/// Aggregate NoC traffic report for one inference.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct NocReport {
    /// Total byte-hops moved.
    pub byte_hops: f64,
    /// NoC energy \[nJ\].
    pub energy_nj: f64,
    /// NoC latency added to the inference \[ns\].
    pub latency_ns: f64,
}

/// Evaluate inter-layer traffic for `model` under `alloc`.
///
/// Layer `k`'s activations (`Cout · out²` bytes) leave its tiles and enter
/// layer `k+1`'s tiles; bytes are split evenly among producer tiles and
/// broadcast to every consumer tile (each consumer holds a slice of the
/// next layer's weights and needs the full activation vector).
pub fn evaluate_noc(model: &Model, alloc: &Allocation, p: &NocParams) -> NocReport {
    let placement = place_row_major(alloc.tiles.len());
    // Tiles per layer (post-sharing, a tile may host several layers).
    let mut tiles_of_layer: Vec<Vec<usize>> = vec![Vec::new(); model.layers.len()];
    for (ti, t) in alloc.tiles.iter().enumerate() {
        for s in &t.occupants {
            tiles_of_layer[s.layer_index].push(ti);
        }
    }

    let mut byte_hops = 0.0;
    let mut latency_ns = 0.0;
    for k in 0..model.layers.len().saturating_sub(1) {
        let producers = &tiles_of_layer[k];
        let consumers = &tiles_of_layer[k + 1];
        if producers.is_empty() || consumers.is_empty() {
            continue;
        }
        let layer = &model.layers[k];
        let bytes = (layer.out_channels * layer.presentations()) as f64;
        let per_producer = bytes / producers.len() as f64;
        let mut worst_hops = 0usize;
        for &pt in producers {
            for &ct in consumers {
                let h = hops(placement.coords[pt], placement.coords[ct]);
                byte_hops += per_producer * h as f64;
                worst_hops = worst_hops.max(h);
            }
        }
        // Transfer latency: route setup over the longest path plus
        // serialization of the full activation map over the link.
        latency_ns += worst_hops as f64 * p.t_hop + bytes / p.bytes_per_ns;
    }

    NocReport {
        byte_hops,
        energy_nj: byte_hops * p.e_hop_byte,
        latency_ns,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::alloc::allocate_tile_based;
    use autohet_dnn::zoo;
    use autohet_xbar::XbarShape;

    #[test]
    fn placement_is_compact_and_unique() {
        let p = place_row_major(10);
        assert_eq!(p.side, 4);
        assert_eq!(p.coords.len(), 10);
        let mut seen = std::collections::HashSet::new();
        for &c in &p.coords {
            assert!(c.0 < p.side && c.1 < p.side);
            assert!(seen.insert(c));
        }
    }

    #[test]
    fn hops_is_manhattan() {
        assert_eq!(hops((0, 0), (0, 0)), 0);
        assert_eq!(hops((0, 0), (3, 2)), 5);
        assert_eq!(hops((3, 2), (0, 0)), 5);
    }

    #[test]
    fn scattering_a_model_over_small_crossbars_costs_more_noc() {
        // More tiles ⇒ longer routes ⇒ more byte-hops for the same model.
        let m = zoo::alexnet();
        let p = NocParams::default();
        let small = allocate_tile_based(&m, &vec![XbarShape::square(32); m.layers.len()], 4);
        let large = allocate_tile_based(&m, &vec![XbarShape::square(512); m.layers.len()], 4);
        let rs = evaluate_noc(&m, &small, &p);
        let rl = evaluate_noc(&m, &large, &p);
        assert!(
            rs.byte_hops > rl.byte_hops,
            "{} vs {}",
            rs.byte_hops,
            rl.byte_hops
        );
        assert!(rs.energy_nj > rl.energy_nj);
    }

    #[test]
    fn traffic_scales_with_feature_map_bytes() {
        // LeNet (tiny maps) moves far fewer bytes than VGG16.
        let p = NocParams::default();
        let lenet = zoo::lenet5();
        let vgg = zoo::vgg16();
        let shape = XbarShape::square(128);
        let al = allocate_tile_based(&lenet, &vec![shape; lenet.layers.len()], 4);
        let av = allocate_tile_based(&vgg, &vec![shape; vgg.layers.len()], 4);
        let rl = evaluate_noc(&lenet, &al, &p);
        let rv = evaluate_noc(&vgg, &av, &p);
        assert!(rv.byte_hops > 10.0 * rl.byte_hops);
    }

    #[test]
    fn single_tile_model_has_zero_hops_but_serialization_latency() {
        let m = zoo::micro_cnn();
        let alloc = allocate_tile_based(&m, &vec![XbarShape::square(512); m.layers.len()], 32);
        // Everything fits one tile per layer; co-located tiles still pay
        // serialization but some routes may be zero-hop.
        let r = evaluate_noc(&m, &alloc, &NocParams::default());
        assert!(r.latency_ns > 0.0);
        assert!(r.byte_hops >= 0.0);
    }

    #[test]
    fn noc_energy_is_linear_in_hop_cost() {
        let m = zoo::micro_cnn();
        let alloc = allocate_tile_based(&m, &vec![XbarShape::square(64); m.layers.len()], 4);
        let mut p = NocParams::default();
        let e1 = evaluate_noc(&m, &alloc, &p).energy_nj;
        p.e_hop_byte *= 3.0;
        let e3 = evaluate_noc(&m, &alloc, &p).energy_nj;
        assert!((e3 / e1 - 3.0).abs() < 1e-9);
    }
}

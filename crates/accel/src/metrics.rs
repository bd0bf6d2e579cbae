//! Whole-model evaluation: the hardware feedback loop of Fig. 6.
//!
//! Given a model and a per-layer crossbar strategy, [`evaluate`] performs
//! allocation (tile-based, optionally followed by Algorithm 1 sharing) and
//! produces every metric the paper reports:
//!
//! - **Crossbar utilization** `U`: weight-holding cells over *allocated*
//!   cells (so tile round-up waste and tile-sharing gains both show up, as
//!   in Figs. 4, 9b, 10).
//! - **Energy** `E` \[nJ\]: per-layer dynamic activity plus provisioned-
//!   hardware leakage over the inference (Fig. 9c, 10).
//! - **Latency** \[ns\] and **area** \[µm²\] (Table 5).
//! - **RUE** `= U[%] / E[nJ]` — the paper's joint metric (§2.2.1).

use crate::alloc::{allocate_tile_based, Allocation, LayerPlacement};
use crate::hierarchy::AccelConfig;
use crate::tile_shared::{apply_tile_sharing, SharingReport};
use autohet_dnn::{Layer, Model};
use autohet_xbar::energy::{layer_energy, static_power, LayerEnergy};
use autohet_xbar::latency::layer_latency_ns;
use autohet_xbar::utilization::Footprint;
use autohet_xbar::{area, CostParams, XbarShape};

/// Per-layer slice of an evaluation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LayerReport {
    /// Layer index within the model.
    pub layer_index: usize,
    /// Assigned crossbar shape.
    pub shape: XbarShape,
    /// Crossbars occupied by the layer.
    pub occupied_xbars: u64,
    /// Tiles granted before sharing.
    pub tiles: u64,
    /// Eq. 4 crossbar-level utilization.
    pub mapping_utilization: f64,
    /// Latency of this layer \[ns\].
    pub latency_ns: f64,
    /// Dynamic energy of this layer \[nJ\] (leakage is accounted globally).
    pub dynamic_nj: f64,
}

/// Aggregated evaluation of one (model, strategy) pair.
#[derive(Debug, Clone, PartialEq)]
pub struct EvalReport {
    /// Model name.
    pub model_name: String,
    /// Per-layer details.
    pub layers: Vec<LayerReport>,
    /// Total crossbars occupied by weights.
    pub occupied_xbars: u64,
    /// Total crossbars allocated (after sharing, if enabled).
    pub allocated_xbars: u64,
    /// Total tiles allocated (after sharing, if enabled).
    pub tiles: u64,
    /// Tile-sharing outcome (None when sharing is disabled).
    pub sharing: Option<SharingReport>,
    /// Global crossbar utilization over allocated cells, in [0, 1].
    pub utilization: f64,
    /// Eq. 4 utilization over *occupied* crossbars only (no tile effects).
    pub mapping_utilization: f64,
    /// Itemized energy \[nJ\].
    pub energy: LayerEnergy,
    /// Total inference latency \[ns\].
    pub latency_ns: f64,
    /// Total silicon area \[µm²\].
    pub area_um2: f64,
}

impl EvalReport {
    /// Total energy \[nJ\].
    pub fn energy_nj(&self) -> f64 {
        self.energy.total()
    }

    /// Utilization as the percentage the paper plots.
    pub fn utilization_pct(&self) -> f64 {
        self.utilization * 100.0
    }

    /// The paper's Ratio of Utilization and Energy: `U[%] / E[nJ]`.
    pub fn rue(&self) -> f64 {
        self.utilization_pct() / self.energy_nj()
    }
}

/// Evaluate `model` under `strategy` on an accelerator configured by `cfg`.
///
/// ```
/// use autohet_accel::{evaluate, AccelConfig};
/// use autohet_xbar::XbarShape;
///
/// let model = autohet_dnn::zoo::vgg16();
/// let strategy = vec![XbarShape::new(576, 512); model.layers.len()];
/// let report = evaluate(&model, &strategy, &AccelConfig::default().with_tile_sharing());
/// assert!(report.utilization > 0.0 && report.utilization <= 1.0);
/// assert!(report.rue() > 0.0);
/// ```
pub fn evaluate(model: &Model, strategy: &[XbarShape], cfg: &AccelConfig) -> EvalReport {
    let mut alloc = allocate_tile_based(model, strategy, cfg.pes_per_tile);
    let sharing = cfg.tile_shared.then(|| apply_tile_sharing(&mut alloc));
    let costs: Vec<LayerCost> = alloc
        .per_layer
        .iter()
        .map(|pl| layer_cost(&model.layers[pl.layer_index], &pl.footprint, &cfg.cost))
        .collect();
    compose_allocation_report(model, &alloc, &costs, sharing, cfg)
}

/// Per-(layer, shape) cost slice: the quantities that depend only on the
/// layer and its assigned crossbar shape, independent of the rest of the
/// strategy — the memoizable core of [`evaluate`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LayerCost {
    /// Latency of one inference through the layer \[ns\].
    pub latency_ns: f64,
    /// Dynamic energy of the layer \[nJ\] (leakage is charged globally).
    pub dynamic: LayerEnergy,
}

/// Compute the cost slice of one layer mapped as `fp`. Pure in
/// `(layer, fp, p)`, so [`crate::engine::EvalEngine`] caches it per
/// `(layer, shape)` pair.
pub fn layer_cost(layer: &Layer, fp: &Footprint, p: &CostParams) -> LayerCost {
    LayerCost {
        latency_ns: layer_latency_ns(layer, fp, p),
        // Leakage handled globally in [`compose_report`]: charge zero
        // allocation here.
        dynamic: layer_energy(layer, fp, 0, 0.0, p),
    }
}

/// Assemble a full [`EvalReport`] from per-layer placements and cost
/// slices (`costs` indexed like `per_layer`) plus the tile population:
/// tile counts per crossbar shape, in ascending shape order as
/// [`Allocation::tiles_by_shape`] yields them. Both the direct
/// [`evaluate`] path and the memoized [`crate::engine::EvalEngine`] run
/// through this single aggregation, which accumulates floats in a fixed
/// order — cached evaluation is therefore bit-identical to uncached by
/// construction.
pub(crate) fn compose_report(
    model: &Model,
    per_layer: &[LayerPlacement],
    costs: &[LayerCost],
    tiles_by_shape: &[(XbarShape, u64)],
    sharing: Option<SharingReport>,
    cfg: &AccelConfig,
) -> EvalReport {
    debug_assert_eq!(costs.len(), per_layer.len());
    let p = &cfg.cost;

    // Latency first: leakage charges hardware for the whole inference.
    let mut latency_ns = 0.0;
    for c in costs {
        latency_ns += c.latency_ns;
    }

    // Dynamic energy per layer.
    let mut energy = LayerEnergy::default();
    let mut reports = Vec::with_capacity(costs.len());
    for (pl, c) in per_layer.iter().zip(costs) {
        energy.accumulate(&c.dynamic);
        reports.push(LayerReport {
            layer_index: pl.layer_index,
            shape: pl.shape,
            occupied_xbars: pl.footprint.total_xbars(),
            tiles: pl.tiles,
            mapping_utilization: pl.footprint.utilization(),
            latency_ns: c.latency_ns,
            dynamic_nj: c.dynamic.total(),
        });
    }

    // Leakage and area from the (possibly shared) tile population.
    let tiles: u64 = tiles_by_shape.iter().map(|&(_, n)| n).sum();
    let mut area_um2 = area::tile_overhead_area(tiles, p);
    let mut allocated_cells = 0;
    for &(shape, n_tiles) in tiles_by_shape {
        let allocated = n_tiles * cfg.pes_per_tile as u64;
        energy.leakage += static_power(allocated, shape, p) * latency_ns * 1e-9;
        area_um2 += area::crossbar_area(allocated, shape, p);
        allocated_cells += allocated * shape.cells();
    }

    // Utilizations.
    let used_cells: u64 = per_layer.iter().map(|pl| pl.footprint.used_cells).sum();
    let provisioned: u64 = per_layer
        .iter()
        .map(|pl| pl.footprint.provisioned_cells())
        .sum();

    EvalReport {
        model_name: model.name.clone(),
        layers: reports,
        occupied_xbars: per_layer.iter().map(|pl| pl.footprint.total_xbars()).sum(),
        allocated_xbars: tiles * cfg.pes_per_tile as u64,
        tiles,
        sharing,
        utilization: used_cells as f64 / allocated_cells as f64,
        mapping_utilization: used_cells as f64 / provisioned as f64,
        energy,
        latency_ns,
        area_um2,
    }
}

/// [`compose_report`] over materialized tiles (after sharing, and after
/// any fault repair). Repair can drop degraded crossbars from their
/// tiles, so occupancy is counted from the tiles, not from the
/// placements.
pub(crate) fn compose_allocation_report(
    model: &Model,
    alloc: &Allocation,
    costs: &[LayerCost],
    sharing: Option<SharingReport>,
    cfg: &AccelConfig,
) -> EvalReport {
    EvalReport {
        occupied_xbars: alloc.occupied_xbars(),
        ..compose_report(
            model,
            &alloc.per_layer,
            costs,
            &alloc.tiles_by_shape(),
            sharing,
            cfg,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use autohet_dnn::zoo;
    use autohet_xbar::geometry::SQUARE_CANDIDATES;

    fn cfg() -> AccelConfig {
        AccelConfig::default()
    }

    #[test]
    fn utilization_bounds_and_ordering() {
        let m = zoo::vgg16();
        for shape in SQUARE_CANDIDATES {
            let r = evaluate(&m, &vec![shape; m.layers.len()], &cfg());
            assert!(r.utilization > 0.0 && r.utilization <= 1.0);
            // Allocation utilization can never beat mapping utilization.
            assert!(r.utilization <= r.mapping_utilization + 1e-12);
        }
    }

    #[test]
    fn small_crossbars_use_better_but_burn_more_energy() {
        // The paper's central tension (§2.2.3 / Fig. 9): 32×32 wins
        // utilization, 512×512 wins energy.
        let m = zoo::vgg16();
        let small = evaluate(&m, &vec![XbarShape::square(32); m.layers.len()], &cfg());
        let large = evaluate(&m, &vec![XbarShape::square(512); m.layers.len()], &cfg());
        assert!(small.mapping_utilization > large.mapping_utilization);
        assert!(small.energy_nj() > large.energy_nj());
        assert!(small.area_um2 > large.area_um2);
    }

    #[test]
    fn tile_sharing_improves_utilization_and_never_energy_hurts() {
        let m = zoo::alexnet();
        let strategy = vec![XbarShape::square(64); m.layers.len()];
        let base = evaluate(&m, &strategy, &cfg());
        let shared = evaluate(&m, &strategy, &cfg().with_tile_sharing());
        assert!(shared.tiles <= base.tiles);
        assert!(shared.utilization >= base.utilization - 1e-12);
        assert!(shared.energy_nj() <= base.energy_nj() + 1e-9);
        assert!(shared.rue() >= base.rue() - 1e-15);
        assert!(shared.sharing.is_some());
        assert!(base.sharing.is_none());
    }

    #[test]
    fn latency_is_sum_of_layers() {
        let m = zoo::alexnet();
        let r = evaluate(&m, &vec![XbarShape::square(128); m.layers.len()], &cfg());
        let s: f64 = r.layers.iter().map(|l| l.latency_ns).sum();
        assert!((r.latency_ns - s).abs() < 1e-6);
    }

    #[test]
    fn rue_is_percent_over_nj() {
        let m = zoo::micro_cnn();
        let r = evaluate(&m, &vec![XbarShape::square(64); m.layers.len()], &cfg());
        assert!((r.rue() - r.utilization * 100.0 / r.energy.total()).abs() < 1e-12);
    }

    #[test]
    fn paper_fig5_tile_level_utilization_is_27_over_128() {
        // Fig. 5: the 108×128 weight block on a 128×128 crossbar in a
        // 4-crossbar tile utilizes 27/128 of the granted cells.
        let m = autohet_dnn::ModelBuilder::new("fig5", autohet_dnn::Dataset::Cifar10)
            .conv_spec(12, 3, 1, 1) // feeder layer to set Cin=12
            .conv_spec(128, 3, 1, 1)
            .build();
        let r = evaluate(
            &m,
            &[XbarShape::square(128), XbarShape::square(128)],
            &cfg(),
        );
        let l1 = &r.layers[1];
        assert_eq!(l1.occupied_xbars, 1);
        assert_eq!(l1.tiles, 1);
        // Allocation-level utilization for that layer alone:
        let pl = crate::alloc::placement_for(&m.layers[1], XbarShape::square(128), 4);
        let u = pl.footprint.utilization_over(pl.tiles * 4);
        assert!((u - 27.0 / 128.0).abs() < 1e-12, "got {u}");
    }

    #[test]
    fn vgg16_magnitudes_are_in_paper_range() {
        // Shape calibration (EXPERIMENTS.md): VGG16 latency ~2-3e6 ns and
        // RUE within a few orders of the paper's 1e-5 scale.
        let m = zoo::vgg16();
        let r = evaluate(&m, &vec![XbarShape::square(512); m.layers.len()], &cfg());
        assert!(
            r.latency_ns > 1e6 && r.latency_ns < 1e7,
            "latency {}",
            r.latency_ns
        );
        assert!(
            r.energy_nj() > 1e5 && r.energy_nj() < 1e9,
            "energy {}",
            r.energy_nj()
        );
    }

    #[test]
    fn resnet152_evaluates() {
        let m = zoo::resnet152();
        let r = evaluate(&m, &vec![XbarShape::square(256); m.layers.len()], &cfg());
        assert_eq!(r.layers.len(), 156);
        assert!(r.energy_nj() > 0.0 && r.latency_ns > 0.0 && r.area_um2 > 0.0);
    }

    #[test]
    fn heterogeneous_strategy_mixes_shapes() {
        let m = zoo::micro_cnn();
        let strategy = vec![
            XbarShape::square(32),
            XbarShape::new(36, 32),
            XbarShape::square(64),
            XbarShape::new(72, 64),
        ];
        let r = evaluate(&m, &strategy, &cfg());
        let shapes: Vec<XbarShape> = r.layers.iter().map(|l| l.shape).collect();
        assert_eq!(shapes, strategy);
    }
}

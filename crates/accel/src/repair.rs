//! Repair-aware remapping of an [`Allocation`] onto faulted hardware.
//!
//! The paper evaluates ideal devices; this module (with
//! [`autohet_xbar::fault`]) adds the fault tolerance a deployed
//! accelerator needs. Given an allocation and a sampled
//! [`FaultMap`], repair walks every tile and re-homes the layer slices
//! that landed on dead crossbars, in a fixed three-step cascade:
//!
//! 1. **Spare activation** — if the tile provisioned spare crossbars and
//!    one is still usable, the displaced slice moves onto the spare. The
//!    tile's logical occupancy is unchanged; the spare starts burning
//!    static power and is charged by the evaluation.
//! 2. **Remap** — otherwise the slice moves to the lowest-positioned tile
//!    of the *same crossbar shape* with a usable empty slot (a tile's
//!    peripherals serve one shape, exactly the tile-sharing legality rule,
//!    so repair is tile-shared aware by construction: under sharing, tiles
//!    run fuller and fewer usable empty slots exist).
//! 3. **Degrade** — with spares exhausted and no usable slot anywhere, the
//!    slice is dropped from the physical mapping and the layer enters a
//!    [`DegradationMode`]: it re-serializes its work over the surviving
//!    crossbars (latency factor `total / surviving`); a layer with no
//!    surviving crossbar can only tolerate the loss as noise (fidelity
//!    hit, no latency change).
//!
//! Slot-index convention: occupants fill a tile's primary slots from
//! index 0 in occupant order, matching [`FaultMap::sample`]'s per-slot
//! addressing. Faulted tiles are *kept* in the allocation even if repair
//! empties them — the silicon still exists, still costs area, and still
//! leaks; dead components are conservatively assumed to stay on the power
//! rail (a stuck peripheral is not a clean shutoff).
//!
//! Everything is deterministic: tiles are walked in position order,
//! displaced slices in slot order, spares and remap targets consumed in
//! index order — one `(allocation, fault map, policy)` triple always
//! yields one repair outcome.

use crate::alloc::Allocation;
use autohet_xbar::fault::{ComponentHealth, FaultMap};
use autohet_xbar::XbarShape;

/// What happens to a layer whose slices could not be re-homed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DegradationMode {
    /// Surviving crossbars of the layer re-process the lost slices
    /// serially: correctness preserved, latency multiplied by
    /// `total / surviving`.
    Reserialize,
    /// Lost slices contribute zeros: latency preserved, fidelity drops by
    /// the lost weight fraction.
    TolerateNoise,
}

/// Repair configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RepairPolicy {
    /// Spare logical crossbars provisioned per tile.
    pub spares_per_tile: u32,
    /// Whether displaced slices may remap onto other tiles' usable empty
    /// slots (cascade step 2). Disabled by the lifetime campaign's
    /// no-recovery arm; always on for ordinary repair.
    pub remap: bool,
}

impl Default for RepairPolicy {
    /// One spare per tile, remapping on.
    fn default() -> Self {
        RepairPolicy {
            spares_per_tile: 1,
            remap: true,
        }
    }
}

impl RepairPolicy {
    /// Policy without any spare provisioning.
    pub fn no_spares() -> Self {
        RepairPolicy {
            spares_per_tile: 0,
            remap: true,
        }
    }

    /// Policy with a custom spare count.
    pub fn with_spares(mut self, spares: u32) -> Self {
        self.spares_per_tile = spares;
        self
    }

    /// This policy with cascade step 2 (cross-tile remapping) disabled:
    /// displaced slices that find no spare degrade immediately.
    pub fn without_remap(mut self) -> Self {
        self.remap = false;
        self
    }
}

/// Post-repair damage summary for one layer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LayerDamage {
    /// Layer index within the model.
    pub layer_index: usize,
    /// Crossbars the layer's mapping occupies in total.
    pub total_xbars: u64,
    /// Crossbars dropped from the physical mapping (unrepairable).
    pub lost_xbars: u64,
    /// Crossbars resting on degraded-resolution ADCs after repair.
    pub adc_degraded_xbars: u64,
    /// Degradation mode applied to the lost slices.
    pub mode: DegradationMode,
    /// Latency multiplier (≥ 1; > 1 only under [`DegradationMode::Reserialize`]).
    pub latency_factor: f64,
    /// Fraction of the layer's crossbar work computed at full fidelity,
    /// in `[0, 1]` (1 = undamaged).
    pub fidelity: f64,
}

/// Outcome of repairing one allocation against one fault map.
#[derive(Debug, Clone, PartialEq)]
pub struct RepairReport {
    /// Occupied slots that sat on dead components (displaced slices).
    pub dead_occupied: u64,
    /// Displaced slices re-homed onto same-tile spares.
    pub spared: u64,
    /// Displaced slices remapped to usable slots on other tiles.
    pub remapped: u64,
    /// Displaced slices dropped into a degradation mode.
    pub degraded: u64,
    /// Occupied slots (post-repair) resting on degraded-resolution ADCs.
    pub adc_degraded: u64,
    /// Spare crossbars provisioned across the array (cost area always).
    pub spares_provisioned: u64,
    /// Spares activated per tile position (cost leakage once active).
    pub activated_per_tile: Vec<u64>,
    /// Provisioned spare crossbars grouped by tile shape, sorted.
    pub spares_by_shape: Vec<(XbarShape, u64)>,
    /// Activated spare crossbars grouped by tile shape, sorted.
    pub activated_by_shape: Vec<(XbarShape, u64)>,
    /// Per-layer damage, only layers with lost or ADC-degraded slices,
    /// ascending by layer index.
    pub damage: Vec<LayerDamage>,
}

impl RepairReport {
    /// True when the fault map left the mapping untouched.
    pub fn is_clean(&self) -> bool {
        self.dead_occupied == 0 && self.adc_degraded == 0
    }

    /// Latency multiplier for `layer_index` (1.0 when undamaged).
    pub fn latency_factor(&self, layer_index: usize) -> f64 {
        self.damage
            .iter()
            .find(|d| d.layer_index == layer_index)
            .map_or(1.0, |d| d.latency_factor)
    }

    /// Crossbar-weighted mean fidelity across the model's layers
    /// (`totals` = per-layer total crossbars; undamaged layers count 1.0).
    pub fn model_fidelity(&self, totals: &[u64]) -> f64 {
        let all: u64 = totals.iter().sum();
        if all == 0 {
            return 1.0;
        }
        let mut weighted = 0.0;
        for (li, &t) in totals.iter().enumerate() {
            let f = self
                .damage
                .iter()
                .find(|d| d.layer_index == li)
                .map_or(1.0, |d| d.fidelity);
            weighted += f * t as f64;
        }
        weighted / all as f64
    }
}

/// A slice displaced from a dead component, pending re-homing.
struct Displaced {
    tile: usize,
    occupant: usize,
    layer_index: usize,
}

/// Repair `alloc` in place against `faults`, returning the outcome.
///
/// `faults` must have been sampled for exactly this allocation's tile
/// array (`faults.tiles.len() == alloc.tiles.len()`, per-tile slot counts
/// matching tile capacities, spare counts matching
/// `policy.spares_per_tile`) — [`FaultMap::sample`] over
/// `alloc.tiles[i].capacity` produces that.
pub fn repair_allocation(
    alloc: &mut Allocation,
    faults: &FaultMap,
    policy: &RepairPolicy,
) -> RepairReport {
    assert_eq!(
        faults.tiles.len(),
        alloc.tiles.len(),
        "fault map / allocation tile count mismatch"
    );
    for (t, f) in alloc.tiles.iter().zip(&faults.tiles) {
        assert_eq!(
            f.slots.len(),
            t.capacity as usize,
            "fault map slot count does not match tile {} capacity",
            t.id
        );
        assert_eq!(
            f.spares.len(),
            policy.spares_per_tile as usize,
            "fault map spare count does not match policy"
        );
    }

    let n_tiles = alloc.tiles.len();
    let mut displaced: Vec<Displaced> = Vec::new();
    // Per-layer ADC-degraded slot counts, keyed by layer index.
    let mut adc: Vec<(usize, u64)> = Vec::new();
    let bump_adc =
        |adc: &mut Vec<(usize, u64)>, layer: usize| match adc.iter_mut().find(|(l, _)| *l == layer)
        {
            Some((_, n)) => *n += 1,
            None => adc.push((layer, 1)),
        };
    // Usable empty primary slots per tile, each with its health, in slot
    // order — the remap targets.
    let mut free: Vec<Vec<ComponentHealth>> = Vec::with_capacity(n_tiles);

    for (ti, tile) in alloc.tiles.iter().enumerate() {
        let tf = &faults.tiles[ti];
        // Occupants fill slots from index 0 in occupant order.
        let mut slot = 0usize;
        for (oi, occ) in tile.occupants.iter().enumerate() {
            for _ in 0..occ.xbars {
                match tf.slots[slot] {
                    ComponentHealth::Dead => displaced.push(Displaced {
                        tile: ti,
                        occupant: oi,
                        layer_index: occ.layer_index,
                    }),
                    ComponentHealth::DegradedAdc { .. } => {
                        bump_adc(&mut adc, occ.layer_index);
                    }
                    ComponentHealth::Healthy => {}
                }
                slot += 1;
            }
        }
        let mut empties = Vec::new();
        for s in slot..tile.capacity as usize {
            if tf.slots[s].is_usable() {
                empties.push(tf.slots[s]);
            }
        }
        free.push(empties);
    }

    // Re-home displaced slices: spare → remap → degrade.
    let mut spare_cursor: Vec<usize> = vec![0; n_tiles];
    let mut activated_per_tile: Vec<u64> = vec![0; n_tiles];
    let mut removals: Vec<(usize, usize)> = Vec::new(); // (tile, occupant)
    let mut moves: Vec<(usize, usize, usize)> = Vec::new(); // (src tile, occupant, dst tile)
    let mut lost: Vec<(usize, u64)> = Vec::new(); // (layer, dropped xbars)
    let (mut spared, mut remapped, mut degraded) = (0u64, 0u64, 0u64);

    for d in &displaced {
        // 1. Same-tile spare.
        let spares = &faults.tiles[d.tile].spares;
        let mut cursor = spare_cursor[d.tile];
        while cursor < spares.len() && !spares[cursor].is_usable() {
            cursor += 1;
        }
        if cursor < spares.len() {
            if matches!(spares[cursor], ComponentHealth::DegradedAdc { .. }) {
                bump_adc(&mut adc, d.layer_index);
            }
            spare_cursor[d.tile] = cursor + 1;
            activated_per_tile[d.tile] += 1;
            spared += 1;
            continue;
        }
        // 2. Remap to the lowest-positioned same-shape tile with a usable
        //    empty slot (skipped when the policy forbids remapping).
        let shape = alloc.tiles[d.tile].shape;
        let target = policy.remap.then(|| {
            (0..n_tiles)
                .find(|&t| t != d.tile && alloc.tiles[t].shape == shape && !free[t].is_empty())
        });
        let target = target.flatten();
        if let Some(t) = target {
            let health = free[t].remove(0);
            if matches!(health, ComponentHealth::DegradedAdc { .. }) {
                bump_adc(&mut adc, d.layer_index);
            }
            moves.push((d.tile, d.occupant, t));
            remapped += 1;
            continue;
        }
        // 3. Degrade.
        removals.push((d.tile, d.occupant));
        match lost.iter_mut().find(|(l, _)| *l == d.layer_index) {
            Some((_, n)) => *n += 1,
            None => lost.push((d.layer_index, 1)),
        }
        degraded += 1;
    }

    // Apply occupancy edits. Moves transfer one crossbar at a time; the
    // `place` capacity check holds because remap targets came from each
    // tile's empty slots.
    for &(src, occupant, dst) in &moves {
        let layer = alloc.tiles[src].occupants[occupant].layer_index;
        alloc.tiles[src].occupants[occupant].xbars -= 1;
        alloc.tiles[dst].place(layer, 1);
    }
    for &(tile, occupant) in &removals {
        alloc.tiles[tile].occupants[occupant].xbars -= 1;
    }
    for t in &mut alloc.tiles {
        t.occupants.retain(|o| o.xbars > 0);
    }

    // Per-layer damage entries.
    let total_for = |layer_index: usize| -> u64 {
        alloc
            .per_layer
            .iter()
            .find(|p| p.layer_index == layer_index)
            .map_or(0, |p| p.footprint.total_xbars())
    };
    let mut damaged: Vec<usize> = lost
        .iter()
        .map(|&(l, _)| l)
        .chain(adc.iter().map(|&(l, _)| l))
        .collect();
    damaged.sort_unstable();
    damaged.dedup();
    let damage: Vec<LayerDamage> = damaged
        .into_iter()
        .map(|li| {
            let total = total_for(li);
            let lost_xbars = lost.iter().find(|(l, _)| *l == li).map_or(0, |&(_, n)| n);
            let adc_degraded_xbars = adc.iter().find(|(l, _)| *l == li).map_or(0, |&(_, n)| n);
            let surviving = total - lost_xbars;
            // Re-serialization needs survivors to serialize over; a fully
            // lost layer can only be tolerated as noise.
            let mode = if lost_xbars > 0 && surviving == 0 {
                DegradationMode::TolerateNoise
            } else {
                DegradationMode::Reserialize
            };
            let latency_factor = match mode {
                DegradationMode::Reserialize if lost_xbars > 0 => total as f64 / surviving as f64,
                _ => 1.0,
            };
            // Fidelity: slices recomputed serially stay exact; tolerated
            // losses and coarse ADC conversions do not.
            let infidel = match mode {
                DegradationMode::Reserialize => adc_degraded_xbars,
                DegradationMode::TolerateNoise => lost_xbars + adc_degraded_xbars,
            };
            let fidelity = if total == 0 {
                1.0
            } else {
                (total - infidel.min(total)) as f64 / total as f64
            };
            LayerDamage {
                layer_index: li,
                total_xbars: total,
                lost_xbars,
                adc_degraded_xbars,
                mode,
                latency_factor,
                fidelity,
            }
        })
        .collect();

    let mut spares_by_shape: Vec<(XbarShape, u64)> = Vec::new();
    let mut activated_by_shape: Vec<(XbarShape, u64)> = Vec::new();
    let bump = |v: &mut Vec<(XbarShape, u64)>, shape: XbarShape, n: u64| {
        if n == 0 {
            return;
        }
        match v.iter_mut().find(|(s, _)| *s == shape) {
            Some((_, c)) => *c += n,
            None => v.push((shape, n)),
        }
    };
    for (ti, tile) in alloc.tiles.iter().enumerate() {
        bump(
            &mut spares_by_shape,
            tile.shape,
            policy.spares_per_tile as u64,
        );
        bump(&mut activated_by_shape, tile.shape, activated_per_tile[ti]);
    }
    spares_by_shape.sort();
    activated_by_shape.sort();

    RepairReport {
        dead_occupied: displaced.len() as u64,
        spared,
        remapped,
        degraded,
        adc_degraded: adc.iter().map(|&(_, n)| n).sum(),
        spares_provisioned: n_tiles as u64 * policy.spares_per_tile as u64,
        activated_per_tile,
        spares_by_shape,
        activated_by_shape,
        damage,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::alloc::allocate_tile_based;
    use crate::tile_shared::apply_tile_sharing;
    use autohet_dnn::zoo;
    use autohet_xbar::fault::FaultRates;
    use autohet_xbar::XbarShape;

    fn capacities(alloc: &Allocation) -> Vec<u32> {
        alloc.tiles.iter().map(|t| t.capacity).collect()
    }

    /// The repair invariant: every tile's occupants fit on usable primary
    /// components plus its activated spares.
    fn assert_invariant(alloc: &Allocation, faults: &FaultMap, report: &RepairReport) {
        for (ti, tile) in alloc.tiles.iter().enumerate() {
            let usable = faults.tiles[ti]
                .slots
                .iter()
                .filter(|h| h.is_usable())
                .count() as u64;
            let hosts = usable + report.activated_per_tile[ti];
            assert!(
                tile.occupied() as u64 <= hosts,
                "tile {ti}: {} occupants on {hosts} usable components",
                tile.occupied()
            );
        }
    }

    #[test]
    fn ideal_map_is_a_clean_noop() {
        let m = zoo::alexnet();
        let strategy = vec![XbarShape::square(64); m.layers.len()];
        let mut alloc = allocate_tile_based(&m, &strategy, 4);
        let before = alloc.clone();
        let faults = FaultMap::ideal(&capacities(&alloc), 1);
        let rep = repair_allocation(&mut alloc, &faults, &RepairPolicy::default());
        assert!(rep.is_clean());
        assert_eq!(rep.dead_occupied, 0);
        assert_eq!(alloc, before);
        assert!(rep.damage.is_empty());
    }

    #[test]
    fn dead_slice_prefers_a_spare() {
        let m = zoo::micro_cnn();
        let strategy = vec![XbarShape::square(64); m.layers.len()];
        let mut alloc = allocate_tile_based(&m, &strategy, 4);
        // Find a seed that kills at least one occupied slot but leaves
        // spares usable.
        let caps = capacities(&alloc);
        let mut faults = FaultMap::ideal(&caps, 2);
        faults.tiles[0].slots[0] = ComponentHealth::Dead;
        let occupied_before = alloc.occupied_xbars();
        let rep = repair_allocation(&mut alloc, &faults, &RepairPolicy::default().with_spares(2));
        assert_eq!(rep.dead_occupied, 1);
        assert_eq!(rep.spared, 1);
        assert_eq!(rep.remapped + rep.degraded, 0);
        assert_eq!(rep.activated_per_tile.iter().sum::<u64>(), 1);
        // Spare keeps the slice in the tile: occupancy unchanged.
        assert_eq!(alloc.occupied_xbars(), occupied_before);
        assert_invariant(&alloc, &faults, &rep);
    }

    #[test]
    fn without_spares_the_slice_remaps_to_a_same_shape_tile() {
        let m = zoo::micro_cnn();
        let strategy = vec![XbarShape::square(64); m.layers.len()];
        let mut alloc = allocate_tile_based(&m, &strategy, 4);
        // Ensure at least one other 64×64 tile has an empty slot.
        let caps = capacities(&alloc);
        let mut faults = FaultMap::ideal(&caps, 0);
        faults.tiles[0].slots[0] = ComponentHealth::Dead;
        let has_room = alloc.tiles.iter().skip(1).any(|t| t.empty() > 0);
        assert!(has_room, "test fixture needs slack");
        let occupied_before = alloc.occupied_xbars();
        let rep = repair_allocation(&mut alloc, &faults, &RepairPolicy::no_spares());
        assert_eq!(rep.remapped, 1);
        assert_eq!(rep.degraded, 0);
        assert_eq!(alloc.occupied_xbars(), occupied_before);
        assert_invariant(&alloc, &faults, &rep);
    }

    #[test]
    fn without_remap_the_slice_degrades_despite_free_slots() {
        // Same fixture as the remap test, but with cascade step 2 off:
        // the displaced slice must fall straight through to degradation
        // even though a same-shape tile has room.
        let m = zoo::micro_cnn();
        let strategy = vec![XbarShape::square(64); m.layers.len()];
        let mut alloc = allocate_tile_based(&m, &strategy, 4);
        let caps = capacities(&alloc);
        let mut faults = FaultMap::ideal(&caps, 0);
        faults.tiles[0].slots[0] = ComponentHealth::Dead;
        assert!(alloc.tiles.iter().skip(1).any(|t| t.empty() > 0));
        let rep = repair_allocation(
            &mut alloc,
            &faults,
            &RepairPolicy::no_spares().without_remap(),
        );
        assert_eq!(rep.remapped, 0);
        assert_eq!(rep.degraded, 1);
        assert_invariant(&alloc, &faults, &rep);
    }

    #[test]
    fn exhausted_repair_degrades_with_a_latency_factor() {
        // One layer on exactly full tiles, no spares, everything else
        // faulted away: slices must degrade.
        let m = autohet_dnn::ModelBuilder::new("t", autohet_dnn::Dataset::Mnist)
            .fc(256)
            .fc(64)
            .build();
        let strategy = vec![XbarShape::square(64); m.layers.len()];
        let mut alloc = allocate_tile_based(&m, &strategy, 4);
        let caps = capacities(&alloc);
        let mut faults = FaultMap::ideal(&caps, 0);
        // Kill one occupied slot in every tile: no free slots exist
        // anywhere only if tiles are full; kill enough to beat the slack.
        for tf in &mut faults.tiles {
            for s in &mut tf.slots {
                *s = ComponentHealth::Dead;
            }
        }
        let rep = repair_allocation(&mut alloc, &faults, &RepairPolicy::no_spares());
        assert_eq!(rep.degraded, rep.dead_occupied);
        assert!(rep.degraded > 0);
        // Everything died: layers fall back to tolerate-with-noise and
        // report zero fidelity.
        for d in &rep.damage {
            assert_eq!(d.mode, DegradationMode::TolerateNoise);
            assert_eq!(d.fidelity, 0.0);
            assert_eq!(d.latency_factor, 1.0);
        }
        assert_eq!(alloc.occupied_xbars(), 0);
        assert_invariant(&alloc, &faults, &rep);
    }

    #[test]
    fn reserialize_factor_matches_lost_fraction() {
        let m = autohet_dnn::ModelBuilder::new("t", autohet_dnn::Dataset::Mnist)
            .fc(256)
            .build();
        let strategy = vec![XbarShape::square(64); m.layers.len()];
        let mut alloc = allocate_tile_based(&m, &strategy, 4);
        let total = alloc.per_layer[0].footprint.total_xbars();
        assert!(total >= 2);
        let caps = capacities(&alloc);
        let mut faults = FaultMap::ideal(&caps, 0);
        faults.tiles[0].slots[0] = ComponentHealth::Dead;
        // Fill remaining capacity so no remap target exists: fault every
        // *empty* slot too.
        let occupied: u32 = alloc.tiles[0].occupied();
        for (ti, tf) in faults.tiles.iter_mut().enumerate() {
            let occ = alloc.tiles[ti].occupied() as usize;
            for s in occ..tf.slots.len() {
                tf.slots[s] = ComponentHealth::Dead;
            }
        }
        let _ = occupied;
        let rep = repair_allocation(&mut alloc, &faults, &RepairPolicy::no_spares());
        assert_eq!(rep.degraded, 1);
        let d = rep.damage[0];
        assert_eq!(d.lost_xbars, 1);
        let expect = total as f64 / (total - 1) as f64;
        assert!((d.latency_factor - expect).abs() < 1e-12);
        assert_eq!(d.fidelity, 1.0); // re-serialized work stays exact
        assert_eq!(rep.latency_factor(0), d.latency_factor);
        assert_eq!(rep.latency_factor(999), 1.0);
    }

    #[test]
    fn degraded_adcs_are_counted_on_final_positions() {
        let m = zoo::micro_cnn();
        let strategy = vec![XbarShape::square(64); m.layers.len()];
        let mut alloc = allocate_tile_based(&m, &strategy, 4);
        let rates = FaultRates {
            dead_xbar: 0.0,
            degraded_adc: 1.0,
            adc_bits_lost: 2,
        };
        let faults = FaultMap::sample(5, rates, &capacities(&alloc), 0);
        let occupied = alloc.occupied_xbars();
        let rep = repair_allocation(&mut alloc, &faults, &RepairPolicy::no_spares());
        assert_eq!(rep.adc_degraded, occupied);
        assert_eq!(rep.dead_occupied, 0);
        assert!(rep.damage.iter().all(|d| d.fidelity < 1.0));
    }

    #[test]
    fn sampled_faults_preserve_the_invariant_and_conservation() {
        let m = zoo::alexnet();
        let strategy = vec![XbarShape::new(72, 64); m.layers.len()];
        for tile_shared in [false, true] {
            for seed in 0..20u64 {
                let mut alloc = allocate_tile_based(&m, &strategy, 4);
                if tile_shared {
                    let _ = apply_tile_sharing(&mut alloc);
                }
                let policy = RepairPolicy::default();
                let faults = FaultMap::sample(
                    seed,
                    FaultRates::dead(0.15),
                    &capacities(&alloc),
                    policy.spares_per_tile,
                );
                let occupied_before = alloc.occupied_xbars();
                let rep = repair_allocation(&mut alloc, &faults, &policy);
                assert_eq!(rep.spared + rep.remapped + rep.degraded, rep.dead_occupied);
                assert_eq!(alloc.occupied_xbars(), occupied_before - rep.degraded);
                assert_invariant(&alloc, &faults, &rep);
            }
        }
    }

    #[test]
    fn tile_shared_allocations_have_fewer_remap_targets() {
        // Sharing packs tiles tighter, so under the same physical fault
        // process (no spares) it can only degrade at least as many slices.
        let m = zoo::vgg16();
        let strategy = vec![XbarShape::square(64); m.layers.len()];
        let policy = RepairPolicy::no_spares();
        let mut degraded = Vec::new();
        for tile_shared in [false, true] {
            let mut alloc = allocate_tile_based(&m, &strategy, 4);
            if tile_shared {
                let _ = apply_tile_sharing(&mut alloc);
            }
            let faults = FaultMap::sample(3, FaultRates::dead(0.2), &capacities(&alloc), 0);
            let rep = repair_allocation(&mut alloc, &faults, &policy);
            degraded.push((rep.dead_occupied, rep.degraded));
        }
        // Both configurations saw faults; the shared one had strictly
        // fewer empty slots available for remapping.
        assert!(degraded[0].0 > 0 && degraded[1].0 > 0);
    }

    #[test]
    #[should_panic]
    fn mismatched_fault_map_is_rejected() {
        let m = zoo::micro_cnn();
        let strategy = vec![XbarShape::square(64); m.layers.len()];
        let mut alloc = allocate_tile_based(&m, &strategy, 4);
        let faults = FaultMap::ideal(&[4, 4], 1);
        let _ = repair_allocation(&mut alloc, &faults, &RepairPolicy::default());
    }
}

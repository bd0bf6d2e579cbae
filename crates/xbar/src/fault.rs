//! Component-level hard faults (an extension beyond the paper's
//! ideal-device evaluation; see DESIGN.md §7).
//!
//! [`variation`](crate::variation) perturbs individual cells'
//! conductances; this module models failures one level up, at the granularity the
//! allocator reasons about — whole logical crossbars and their peripheral
//! circuits inside a tile:
//!
//! - **Dead crossbars**: a crossbar (or its drivers) fails hard and holds
//!   no usable weights. Its slices must be remapped or their work
//!   re-serialized (`autohet-accel`'s `repair` module).
//! - **Degraded ADCs**: a column ADC loses resolution bits (aging,
//!   comparator drift). The crossbar still computes, but conversions are
//!   coarser — an accuracy liability the repair report surfaces.
//! - **Spare crossbars**: each tile may provision spare crossbars that
//!   repair can activate in place of dead primaries. Spares are sampled
//!   against the same fault process (a spare can itself be dead).
//!
//! Sampling is *seeded and nested*: each component's fate is decided by a
//! uniform roll derived by hashing `(seed, tile, slot, effect)`, and the
//! component fails iff its roll falls below the configured rate. The rolls
//! do not depend on the rates, so for a fixed seed the fault set at rate
//! `r₁ ≤ r₂` is a subset of the fault set at `r₂` — fault-campaign sweeps
//! are monotone by construction, not merely in expectation.

/// Component-level fault probabilities.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultRates {
    /// Probability a logical crossbar (primary or spare) is dead.
    pub dead_xbar: f64,
    /// Probability a surviving crossbar's ADC runs at reduced resolution.
    pub degraded_adc: f64,
    /// Resolution bits lost by a degraded ADC.
    pub adc_bits_lost: u32,
}

impl FaultRates {
    /// No faults at all.
    pub fn ideal() -> Self {
        FaultRates {
            dead_xbar: 0.0,
            degraded_adc: 0.0,
            adc_bits_lost: 0,
        }
    }

    /// Dead-crossbar faults only, at probability `p`.
    pub fn dead(p: f64) -> Self {
        assert!((0.0..=1.0).contains(&p), "rate out of range: {p}");
        FaultRates {
            dead_xbar: p,
            ..Self::ideal()
        }
    }

    /// True when every effect is disabled.
    pub fn is_ideal(&self) -> bool {
        self.dead_xbar == 0.0 && self.degraded_adc == 0.0
    }
}

/// Health of one logical crossbar slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ComponentHealth {
    /// Fully functional.
    Healthy,
    /// Computes, but its ADC lost `bits_lost` resolution bits.
    DegradedAdc {
        /// Resolution bits lost relative to the configured ADC.
        bits_lost: u32,
    },
    /// Unusable: holds no weights, produces no output.
    Dead,
}

impl ComponentHealth {
    /// True when the slot can hold weights (healthy or merely degraded).
    pub fn is_usable(&self) -> bool {
        !matches!(self, ComponentHealth::Dead)
    }
}

/// Fault status of one tile: its primary crossbar slots plus any spares.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TileFaults {
    /// Health per primary slot; length = tile capacity.
    pub slots: Vec<ComponentHealth>,
    /// Health per spare slot; length = spares provisioned for this tile.
    pub spares: Vec<ComponentHealth>,
}

impl TileFaults {
    /// Dead primary slots.
    pub fn dead_slots(&self) -> usize {
        self.slots.iter().filter(|h| !h.is_usable()).count()
    }

    /// Usable (healthy or degraded) spare slots.
    pub fn usable_spares(&self) -> usize {
        self.spares.iter().filter(|h| h.is_usable()).count()
    }
}

/// A sampled fault assignment for one allocation's tile population.
///
/// Tiles are addressed by *position* (index into the allocation's tile
/// vector at sampling time), not by tile id — the map is a property of the
/// physical tile array, sampled once per accelerator instance.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultMap {
    /// Seed the map was sampled with.
    pub seed: u64,
    /// Rates the map was sampled with.
    pub rates: FaultRates,
    /// Per-tile fault status, indexed by tile position.
    pub tiles: Vec<TileFaults>,
}

/// SplitMix64 finalizer: decorrelates consecutive hash inputs.
pub fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The component's uniform roll in `[0, 1)` — a pure function of
/// `(seed, tile, slot, effect)`, independent of any rate, so fault sets
/// are nested across rates (see module docs).
fn roll(seed: u64, tile: u64, slot: u64, effect: u64) -> f64 {
    let h = splitmix64(
        seed ^ splitmix64(tile.wrapping_mul(0x517C_C1B7_2722_0A95) ^ slot.rotate_left(32) ^ effect),
    );
    // 53 high bits → uniform double in [0, 1).
    (h >> 11) as f64 / (1u64 << 53) as f64
}

/// Effect tags for [`roll`]. Spares use the same effects at offset slots.
const EFFECT_DEAD: u64 = 0;
const EFFECT_ADC: u64 = 1;

fn sample_slot(seed: u64, rates: &FaultRates, tile: u64, slot: u64) -> ComponentHealth {
    if roll(seed, tile, slot, EFFECT_DEAD) < rates.dead_xbar {
        ComponentHealth::Dead
    } else if rates.adc_bits_lost > 0 && roll(seed, tile, slot, EFFECT_ADC) < rates.degraded_adc {
        ComponentHealth::DegradedAdc {
            bits_lost: rates.adc_bits_lost,
        }
    } else {
        ComponentHealth::Healthy
    }
}

impl FaultMap {
    /// Sample a fault map for a tile array where tile `i` has
    /// `capacities[i]` primary crossbars and `spares_per_tile` spares.
    pub fn sample(
        seed: u64,
        rates: FaultRates,
        capacities: &[u32],
        spares_per_tile: u32,
    ) -> FaultMap {
        assert!((0.0..=1.0).contains(&rates.dead_xbar), "dead_xbar rate");
        assert!(
            (0.0..=1.0).contains(&rates.degraded_adc),
            "degraded_adc rate"
        );
        let tiles = capacities
            .iter()
            .enumerate()
            .map(|(t, &cap)| TileFaults {
                slots: (0..cap)
                    .map(|s| sample_slot(seed, &rates, t as u64, s as u64))
                    .collect(),
                // Spares draw from the same process at offset slot indices
                // so primary and spare fates stay independent.
                spares: (0..spares_per_tile)
                    .map(|s| sample_slot(seed, &rates, t as u64, cap as u64 + s as u64))
                    .collect(),
            })
            .collect();
        FaultMap { seed, rates, tiles }
    }

    /// A map with every component healthy (rate-zero shortcut).
    pub fn ideal(capacities: &[u32], spares_per_tile: u32) -> FaultMap {
        FaultMap::sample(0, FaultRates::ideal(), capacities, spares_per_tile)
    }

    /// Health of primary slot `slot` of the tile at `position`.
    pub fn health(&self, position: usize, slot: usize) -> ComponentHealth {
        self.tiles[position].slots[slot]
    }

    /// Total dead primary slots across the array.
    pub fn dead_slots(&self) -> u64 {
        self.tiles.iter().map(|t| t.dead_slots() as u64).sum()
    }

    /// Total usable spares across the array.
    pub fn usable_spares(&self) -> u64 {
        self.tiles.iter().map(|t| t.usable_spares() as u64).sum()
    }

    /// True when no component is faulted.
    pub fn is_ideal(&self) -> bool {
        self.tiles.iter().all(|t| {
            t.slots
                .iter()
                .chain(&t.spares)
                .all(|h| *h == ComponentHealth::Healthy)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn caps(n: usize) -> Vec<u32> {
        vec![4; n]
    }

    #[test]
    fn zero_rates_yield_an_ideal_map() {
        let m = FaultMap::ideal(&caps(16), 1);
        assert!(m.is_ideal());
        assert_eq!(m.dead_slots(), 0);
        assert_eq!(m.usable_spares(), 16);
    }

    #[test]
    fn sampling_is_deterministic_in_the_seed() {
        let r = FaultRates {
            dead_xbar: 0.1,
            degraded_adc: 0.05,
            adc_bits_lost: 2,
        };
        let a = FaultMap::sample(7, r, &caps(32), 2);
        let b = FaultMap::sample(7, r, &caps(32), 2);
        assert_eq!(a, b);
        let c = FaultMap::sample(8, r, &caps(32), 2);
        assert_ne!(a, c);
    }

    #[test]
    fn dead_rate_is_approximately_honored() {
        let m = FaultMap::sample(3, FaultRates::dead(0.2), &caps(2000), 0);
        let frac = m.dead_slots() as f64 / 8000.0;
        assert!((frac - 0.2).abs() < 0.02, "dead fraction {frac}");
    }

    #[test]
    fn fault_sets_are_nested_across_rates() {
        // The load-bearing property behind monotone fault campaigns: with
        // one seed, every component dead at a low rate is dead at every
        // higher rate.
        let low = FaultMap::sample(11, FaultRates::dead(0.05), &caps(200), 2);
        let high = FaultMap::sample(11, FaultRates::dead(0.25), &caps(200), 2);
        for (lt, ht) in low.tiles.iter().zip(&high.tiles) {
            for (l, h) in lt
                .slots
                .iter()
                .zip(&ht.slots)
                .chain(lt.spares.iter().zip(&ht.spares))
            {
                if *l == ComponentHealth::Dead {
                    assert_eq!(*h, ComponentHealth::Dead);
                }
            }
        }
        assert!(high.dead_slots() > low.dead_slots());
    }

    #[test]
    fn dead_takes_precedence_over_degraded() {
        let r = FaultRates {
            dead_xbar: 1.0,
            degraded_adc: 1.0,
            adc_bits_lost: 3,
        };
        let m = FaultMap::sample(1, r, &caps(4), 1);
        assert!(m
            .tiles
            .iter()
            .flat_map(|t| t.slots.iter().chain(&t.spares))
            .all(|h| *h == ComponentHealth::Dead));
    }

    #[test]
    fn every_slot_degrades_and_stays_usable() {
        let r = FaultRates {
            dead_xbar: 0.0,
            degraded_adc: 1.0,
            adc_bits_lost: 2,
        };
        let m = FaultMap::sample(2, r, &caps(8), 0);
        assert!(m
            .tiles
            .iter()
            .flat_map(|t| &t.slots)
            .all(|h| matches!(h, ComponentHealth::DegradedAdc { .. })));
        assert_eq!(m.dead_slots(), 0);
        assert!(m.tiles.iter().flat_map(|t| &t.slots).all(|h| h.is_usable()));
    }

    #[test]
    fn heterogeneous_capacities_are_respected() {
        let m = FaultMap::ideal(&[2, 8, 4], 3);
        assert_eq!(m.tiles[0].slots.len(), 2);
        assert_eq!(m.tiles[1].slots.len(), 8);
        assert_eq!(m.tiles[2].slots.len(), 4);
        assert!(m.tiles.iter().all(|t| t.spares.len() == 3));
    }
}

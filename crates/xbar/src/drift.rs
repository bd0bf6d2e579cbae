//! Temporal conductance drift: degradation as a *trajectory* over
//! simulated hours instead of a point sample (DESIGN.md §12).
//!
//! ReRAM cells age: programmed conductances decay toward the high-
//! resistance state (power-law resistance growth, the classic
//! `R(t) = R₀ · (1 + t/t₀)^ν` drift law), the lognormal spread around the
//! nominal corners widens as cells wander, and a slowly accumulating
//! fraction of cells sticks outright — a *soft* process (distribution
//! shift) riding on top of a *hard* one (stuck-at conversion).
//!
//! [`DriftModel`] packages both under one seed and one time axis:
//!
//! - [`DriftModel::variation_at`] returns the [`VariationModel`] the
//!   device population obeys at hour `t` — nominal resistances scaled by
//!   the drift factor, deviations widened linearly. At `t = 0` it is the
//!   base model *bit for bit*, so zero-drift trajectories reproduce the
//!   static-variation results exactly.
//! - [`DriftModel::rates_at`] converts the stuck-at / ADC-aging hazards
//!   into cumulative [`FaultRates`] via `p(t) = 1 − e^{−λt}` — zero at
//!   `t = 0` and monotone in `t`.
//! - [`DriftModel::snapshot_at`] samples the [`FaultMap`] at time `t`.
//!   Because [`FaultMap::sample`] decides each component by a roll that is
//!   independent of the rate, the stuck sets are *nested in time*: a
//!   crossbar dead at hour 100 is dead at every later hour, for free.
//!
//! Recalibration (the accel crate's extended repair cascade) exploits the
//! soft half: readout references derived for the *base* distribution
//! misjudge drifted currents, while references re-derived against
//! [`DriftModel::variation_at`] restore accuracy — see
//! [`VariedCrossbar::sample_with_reference`](crate::variation::VariedCrossbar::sample_with_reference).

use crate::fault::{FaultMap, FaultRates};
use crate::variation::VariationModel;

/// A seeded temporal degradation model: lognormal conductance drift plus
/// stuck-at conversion over simulated hours.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DriftModel {
    /// Device population at `t = 0`.
    pub base: VariationModel,
    /// Power-law drift exponent `ν`: nominal resistances grow as
    /// `(1 + t/t₀)^ν` with `t₀ = 1 h`. `0` disables resistance drift.
    pub nu: f64,
    /// Linear widening of both lognormal deviations per hour:
    /// `dev(t) = dev₀ · (1 + rate · t)`.
    pub dev_growth_per_hour: f64,
    /// Stuck-at (dead crossbar) hazard rate, 1/h.
    pub stuck_per_hour: f64,
    /// ADC-aging (resolution-loss) hazard rate, 1/h.
    pub adc_per_hour: f64,
    /// Resolution bits an aged ADC loses.
    pub adc_bits_lost: u32,
    /// Seed for [`DriftModel::snapshot_at`] fault maps.
    pub seed: u64,
}

impl DriftModel {
    /// The nominal drift corner on the HyperMetric base model: mild
    /// power-law resistance growth, slow deviation widening, and hazards
    /// that convert a few percent of components over a 1000-hour life.
    pub fn nominal() -> Self {
        DriftModel {
            base: VariationModel::hypermetric(),
            nu: 0.05,
            dev_growth_per_hour: 5e-6,
            stuck_per_hour: 2e-6,
            adc_per_hour: 4e-6,
            adc_bits_lost: 2,
            seed: 0xD81F,
        }
    }

    /// The slow corner: every drift mechanism at ¼ nominal strength.
    pub fn slow() -> Self {
        Self::nominal().with_rate_scale(0.25)
    }

    /// The fast corner: every drift mechanism at 4× nominal strength.
    pub fn fast() -> Self {
        Self::nominal().with_rate_scale(4.0)
    }

    /// No drift at all: the population at hour 10⁶ is the base model.
    pub fn ideal() -> Self {
        Self::nominal().with_rate_scale(0.0)
    }

    /// This corner with every drift mechanism scaled by `k` (the
    /// campaign's drift-rate axis). `k = 0` freezes time entirely.
    pub fn with_rate_scale(self, k: f64) -> Self {
        assert!(k >= 0.0 && k.is_finite(), "bad drift scale {k}");
        DriftModel {
            nu: self.nu * k,
            dev_growth_per_hour: self.dev_growth_per_hour * k,
            stuck_per_hour: self.stuck_per_hour * k,
            adc_per_hour: self.adc_per_hour * k,
            ..self
        }
    }

    fn validate_t(t_hours: f64) {
        assert!(
            t_hours >= 0.0 && t_hours.is_finite(),
            "bad drift time {t_hours}"
        );
    }

    /// The variation model the surviving device population obeys at hour
    /// `t`. At `t = 0` this is `self.base` bit for bit; both nominal
    /// resistances scale by the same drift factor (the LRS/HRS ordering
    /// and ratio are preserved), and both deviations widen linearly.
    pub fn variation_at(&self, t_hours: f64) -> VariationModel {
        Self::validate_t(t_hours);
        let growth = (1.0 + t_hours).powf(self.nu);
        let widen = 1.0 + self.dev_growth_per_hour * t_hours;
        VariationModel {
            r_on: self.base.r_on * growth,
            r_off: self.base.r_off * growth,
            dev_on: self.base.dev_on * widen,
            dev_off: self.base.dev_off * widen,
            ..self.base
        }
    }

    /// Cumulative hard-fault probabilities at hour `t`:
    /// `p = 1 − e^{−λt}`, zero at `t = 0` and monotone in `t`.
    pub fn rates_at(&self, t_hours: f64) -> FaultRates {
        Self::validate_t(t_hours);
        FaultRates {
            dead_xbar: 1.0 - (-self.stuck_per_hour * t_hours).exp(),
            degraded_adc: 1.0 - (-self.adc_per_hour * t_hours).exp(),
            adc_bits_lost: self.adc_bits_lost,
        }
    }

    /// The hard-fault snapshot at hour `t` for a tile array where tile
    /// `i` holds `capacities[i]` primaries and `spares_per_tile` spares.
    /// Snapshots are nested in time: rates are monotone in `t` and the
    /// per-component rolls are rate-independent, so the dead set at `t₁`
    /// is a subset of the dead set at every `t₂ ≥ t₁`.
    pub fn snapshot_at(&self, t_hours: f64, capacities: &[u32], spares_per_tile: u32) -> FaultMap {
        FaultMap::sample(
            self.seed,
            self.rates_at(t_hours),
            capacities,
            spares_per_tile,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::ComponentHealth;

    #[test]
    fn time_zero_reproduces_the_base_model_bit_for_bit() {
        for m in [
            DriftModel::slow(),
            DriftModel::nominal(),
            DriftModel::fast(),
        ] {
            assert_eq!(m.variation_at(0.0), m.base);
            let r0 = m.rates_at(0.0);
            assert_eq!(r0.dead_xbar, 0.0);
            assert_eq!(r0.degraded_adc, 0.0);
            assert!(r0.is_ideal());
            assert!(m.snapshot_at(0.0, &[4; 8], 1).is_ideal());
        }
    }

    #[test]
    fn drift_is_monotone_in_time() {
        let m = DriftModel::nominal();
        let mut prev_r = 0.0;
        let mut prev_dead = -1.0;
        for t in [0.0, 10.0, 100.0, 1000.0, 10_000.0] {
            let v = m.variation_at(t);
            let r = m.rates_at(t);
            assert!(v.r_on > prev_r, "r_on must grow with t");
            assert!(
                v.r_off / v.r_on == m.base.r_off / m.base.r_on || t == 0.0 || {
                    // Ratio is preserved up to f64 rounding.
                    ((v.r_off / v.r_on) / (m.base.r_off / m.base.r_on) - 1.0).abs() < 1e-12
                }
            );
            assert!(v.dev_on >= m.base.dev_on && v.dev_off >= m.base.dev_off);
            assert!(r.dead_xbar > prev_dead);
            assert!((0.0..1.0).contains(&r.dead_xbar));
            prev_r = v.r_on;
            prev_dead = r.dead_xbar;
        }
    }

    #[test]
    fn snapshots_are_nested_in_time() {
        let m = DriftModel::fast();
        let caps = vec![4u32; 64];
        let early = m.snapshot_at(500.0, &caps, 2);
        let late = m.snapshot_at(5000.0, &caps, 2);
        let mut grew = false;
        for (e, l) in early.tiles.iter().zip(&late.tiles) {
            for (a, b) in e
                .slots
                .iter()
                .zip(&l.slots)
                .chain(e.spares.iter().zip(&l.spares))
            {
                if *a == ComponentHealth::Dead {
                    assert_eq!(*b, ComponentHealth::Dead, "dead set must be nested");
                }
            }
        }
        grew |= late.dead_slots() > early.dead_slots();
        assert!(grew, "the fast corner must accumulate faults by hour 5000");
    }

    #[test]
    fn corners_order_by_severity() {
        let t = 1000.0;
        let slow = DriftModel::slow().rates_at(t).dead_xbar;
        let nominal = DriftModel::nominal().rates_at(t).dead_xbar;
        let fast = DriftModel::fast().rates_at(t).dead_xbar;
        assert!(slow < nominal && nominal < fast);
        assert!(
            DriftModel::slow().variation_at(t).dev_on < DriftModel::fast().variation_at(t).dev_on
        );
    }

    #[test]
    fn static_model_never_moves() {
        let m = DriftModel::ideal();
        assert_eq!(m.variation_at(1e6), m.base);
        assert_eq!(m.rates_at(1e6).dead_xbar, 0.0);
        assert!(m.snapshot_at(1e6, &[8; 16], 1).is_ideal());
    }

    #[test]
    fn rate_scale_is_deterministic_and_proportional() {
        let m = DriftModel::nominal().with_rate_scale(2.0);
        assert_eq!(m.nu, DriftModel::nominal().nu * 2.0);
        assert_eq!(m.seed, DriftModel::nominal().seed);
        let a = m.snapshot_at(100.0, &[4; 8], 1);
        let b = m.snapshot_at(100.0, &[4; 8], 1);
        assert_eq!(a, b);
    }
}

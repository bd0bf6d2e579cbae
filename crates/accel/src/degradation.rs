//! Unified lifetime degradation: hard faults, device variation, and
//! conductance drift resolved to one per-epoch state, consumed by the
//! extended repair cascade *recalibrate → remap (spares) → degrade*
//! (DESIGN.md §12).
//!
//! [`autohet_xbar::drift::DriftModel`] describes *how* an accelerator
//! ages; this module decides *what the system does about it* at an
//! evaluation epoch `t`:
//!
//! - [`RecoveryPolicy::NoRecovery`] — the baseline arm: the readout keeps
//!   its factory references (stale against the drifted population) and
//!   the hard-fault cascade is reduced to degradation only (no spares,
//!   no remapping).
//! - [`RecoveryPolicy::RecalibrateOnly`] — readout references are
//!   re-derived against the drifted distribution (cascade step 1), but
//!   stuck components still only degrade.
//! - [`RecoveryPolicy::FullCascade`] — recalibration plus the full hard
//!   repair: spare activation and cross-tile remapping before any
//!   degradation.
//!
//! [`DegradationState::at`] resolves a drift model, an epoch, and a
//! recovery policy into the concrete `(rates, device, reference)` triple
//! the engine evaluates — the single place where the soft and hard
//! degradation axes meet.

use crate::metrics::EvalReport;
use crate::repair::{RepairPolicy, RepairReport};
use crate::robustness::RobustnessReport;
use autohet_xbar::drift::DriftModel;
use autohet_xbar::fault::FaultRates;
use autohet_xbar::variation::VariationModel;
use serde::{Deserialize, Serialize};

/// What the system does about accumulated degradation at an epoch.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum RecoveryPolicy {
    /// No reaction at all: stale readout references, degrade-only repair.
    NoRecovery,
    /// Re-derive the S_ou readout references against the drifted
    /// distribution; hard faults still only degrade.
    RecalibrateOnly,
    /// Recalibrate, then run the full hard cascade: spares → remap →
    /// degrade.
    FullCascade,
}

impl RecoveryPolicy {
    /// All policies, in escalation order (the campaign's sweep axis).
    pub const ALL: [RecoveryPolicy; 3] = [
        RecoveryPolicy::NoRecovery,
        RecoveryPolicy::RecalibrateOnly,
        RecoveryPolicy::FullCascade,
    ];

    /// Whether this policy re-derives readout references at the epoch.
    pub fn recalibrates(&self) -> bool {
        !matches!(self, RecoveryPolicy::NoRecovery)
    }

    /// Whether this policy runs the hard repair (spares + remap).
    pub fn repairs(&self) -> bool {
        matches!(self, RecoveryPolicy::FullCascade)
    }

    /// Stable lowercase label for reports and artifacts.
    pub fn label(&self) -> &'static str {
        match self {
            RecoveryPolicy::NoRecovery => "no-recovery",
            RecoveryPolicy::RecalibrateOnly => "recalibrate-only",
            RecoveryPolicy::FullCascade => "full-cascade",
        }
    }
}

/// Drift-evaluation parameters for
/// [`EvalEngine::with_drift`](crate::engine::EvalEngine::with_drift).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DriftEvalConfig {
    /// The temporal degradation model (corner + seed).
    pub drift: DriftModel,
    /// Monte-Carlo draws per `(layer, shape, epoch)` noise slice.
    pub draws: u32,
    /// Probe activations per draw.
    pub probes: u32,
    /// Base seed for the noise slices (kept separate from the drift
    /// model's fault seed so the two processes stay independent).
    pub noise_seed: u64,
    /// Spares provisioned per tile when the policy repairs.
    pub spares_per_tile: u32,
}

impl Default for DriftEvalConfig {
    /// Nominal drift corner, the static noise oracle's 3 draws × 4
    /// probes budget, one spare per tile.
    fn default() -> Self {
        DriftEvalConfig {
            drift: DriftModel::nominal(),
            draws: 3,
            probes: 4,
            noise_seed: 7,
            spares_per_tile: 1,
        }
    }
}

impl DriftEvalConfig {
    /// The hard-repair policy this configuration implies under
    /// `recovery`: the full cascade gets spares and remapping; the other
    /// arms degrade only.
    pub fn repair_policy(&self, recovery: RecoveryPolicy) -> RepairPolicy {
        if recovery.repairs() {
            RepairPolicy {
                spares_per_tile: self.spares_per_tile,
                remap: true,
            }
        } else {
            RepairPolicy::no_spares().without_remap()
        }
    }
}

/// The resolved degradation state at one evaluation epoch: the one
/// struct where hard faults (cumulative rates), soft variation (the
/// drifted device population), and the recovery decision (readout
/// reference) meet.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DegradationState {
    /// Epoch, simulated hours since deployment.
    pub t_hours: f64,
    /// Cumulative hard-fault probabilities at `t`.
    pub rates: FaultRates,
    /// The variation model the device population obeys at `t`.
    pub device: VariationModel,
    /// The variation model the readout references: the factory base when
    /// stale, `device` itself after recalibration.
    pub reference: VariationModel,
    /// Whether the readout was recalibrated at this epoch.
    pub recalibrated: bool,
}

impl DegradationState {
    /// Resolve `drift` at epoch `t_hours` under `recovery`.
    pub fn at(drift: &DriftModel, t_hours: f64, recovery: RecoveryPolicy) -> Self {
        let device = drift.variation_at(t_hours);
        let recalibrated = recovery.recalibrates();
        DegradationState {
            t_hours,
            rates: drift.rates_at(t_hours),
            device,
            reference: if recalibrated { device } else { drift.base },
            recalibrated,
        }
    }
}

/// Evaluation of a strategy at a lifetime epoch: repaired-hardware
/// metrics, the repair outcome, and the drift-aware robustness scores.
/// Produced by
/// [`EvalEngine::evaluate_degraded`](crate::engine::EvalEngine::evaluate_degraded).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DegradedEvalReport {
    /// Metrics of the repaired allocation at the epoch (latency factors,
    /// spare area, and spare leakage folded in).
    pub eval: EvalReport,
    /// What the hard cascade did at this epoch.
    pub repair: RepairReport,
    /// Monte-Carlo robustness under the drifted population, read against
    /// the state's reference model.
    pub robustness: RobustnessReport,
    /// The resolved degradation state this report was evaluated at.
    pub state: DegradationState,
    /// Crossbar-weighted hard-fault fidelity in `[0, 1]`.
    pub fidelity: f64,
    /// End-to-end accuracy proxy: hard fidelity × the robustness
    /// argmax-survival product — the campaign's accuracy axis.
    pub accuracy_proxy: f64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recovery_policy_flags_and_labels() {
        assert!(!RecoveryPolicy::NoRecovery.recalibrates());
        assert!(RecoveryPolicy::RecalibrateOnly.recalibrates());
        assert!(RecoveryPolicy::FullCascade.recalibrates());
        assert!(RecoveryPolicy::FullCascade.repairs());
        assert!(!RecoveryPolicy::RecalibrateOnly.repairs());
        let labels: Vec<_> = RecoveryPolicy::ALL.iter().map(|p| p.label()).collect();
        assert_eq!(labels, ["no-recovery", "recalibrate-only", "full-cascade"]);
    }

    #[test]
    fn repair_policy_follows_the_recovery_arm() {
        let cfg = DriftEvalConfig {
            spares_per_tile: 3,
            ..DriftEvalConfig::default()
        };
        let full = cfg.repair_policy(RecoveryPolicy::FullCascade);
        assert_eq!(full.spares_per_tile, 3);
        assert!(full.remap);
        for arm in [RecoveryPolicy::NoRecovery, RecoveryPolicy::RecalibrateOnly] {
            let p = cfg.repair_policy(arm);
            assert_eq!(p.spares_per_tile, 0);
            assert!(!p.remap);
        }
    }

    #[test]
    fn state_reference_tracks_the_recovery_decision() {
        let drift = DriftModel::fast();
        let t = 2000.0;
        let stale = DegradationState::at(&drift, t, RecoveryPolicy::NoRecovery);
        let recal = DegradationState::at(&drift, t, RecoveryPolicy::RecalibrateOnly);
        assert_eq!(stale.device, recal.device);
        assert_eq!(stale.reference, drift.base);
        assert_eq!(recal.reference, recal.device);
        assert_ne!(
            stale.reference, stale.device,
            "fast drift must move by hour 2000"
        );
        // At t = 0 the distinction vanishes: device == base bit for bit.
        let zero = DegradationState::at(&drift, 0.0, RecoveryPolicy::NoRecovery);
        assert_eq!(zero.device, zero.reference);
        assert!(zero.rates.is_ideal());
    }
}

//! Seeded open-loop workload generation.
//!
//! Each tenant gets an independent Poisson arrival process: exponential
//! inter-arrival gaps drawn from a per-tenant `SmallRng` whose seed is a
//! pure function of the workload seed and the tenant index. Optional
//! periodic bursts scale the instantaneous rate (piecewise-constant
//! thinning-free approximation: the rate in force at the previous arrival
//! governs the next gap). All timestamps are integer nanoseconds.

use crate::deploy::Deployment;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Periodic overload phases layered onto a tenant's base rate: for the
/// first `burst_ns` of every `period_ns`, the rate is multiplied by
/// `factor`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BurstSpec {
    /// Burst cycle length \[ns\].
    pub period_ns: u64,
    /// Burst duration at the start of each cycle \[ns\] (≤ `period_ns`).
    pub burst_ns: u64,
    /// Rate multiplier during the burst (> 0).
    pub factor: f64,
}

/// A one-way linear rate drift: the tenant's rate factor ramps from 1.0
/// at `start_ns` to `to_factor` at `end_ns` and stays there. Composed
/// multiplicatively with any [`BurstSpec`]. This is the workload-mix
/// drift that triggers online strategy swap in the serving engine.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RampSpec {
    /// Drift onset \[ns\].
    pub start_ns: u64,
    /// Instant the ramp completes \[ns\] (> `start_ns`).
    pub end_ns: u64,
    /// Final rate multiplier (> 0).
    pub to_factor: f64,
}

impl RampSpec {
    /// The rate multiplier in force at instant `t`.
    pub fn factor_at(&self, t: u64) -> f64 {
        if t < self.start_ns {
            1.0
        } else if t >= self.end_ns {
            self.to_factor
        } else {
            let frac = (t - self.start_ns) as f64 / (self.end_ns - self.start_ns) as f64;
            1.0 + (self.to_factor - 1.0) * frac
        }
    }
}

/// One tenant of the serving deployment: a compiled model plus its
/// traffic contract.
#[derive(Debug, Clone, PartialEq)]
pub struct TenantSpec {
    /// Tenant label used in reports.
    pub name: String,
    /// The compiled model this tenant's requests run on.
    pub deployment: Deployment,
    /// Mean request rate \[requests/s\].
    pub rate_rps: f64,
    /// Latency objective: a request meets its SLO iff
    /// `completion − arrival ≤ slo_ns`.
    pub slo_ns: u64,
    /// Optional periodic burst pattern.
    pub burst: Option<BurstSpec>,
    /// Fair-share weight for deficit-round-robin scheduling (≥ 1). Under
    /// contention a tenant's attained service is proportional to its
    /// weight.
    pub weight: u64,
    /// Optional linear rate drift (workload-mix change over the run).
    pub ramp: Option<RampSpec>,
    /// Optional alternative compiled strategy the serving engine may
    /// swap this tenant onto mid-run when its traffic share drifts past
    /// the configured threshold (ARAS-style online remapping).
    pub alt_deployment: Option<Deployment>,
}

impl TenantSpec {
    /// A steady (burst-free) tenant with weight 1.
    pub fn new(name: &str, deployment: Deployment, rate_rps: f64, slo_ns: u64) -> Self {
        let spec = TenantSpec {
            name: name.to_string(),
            deployment,
            rate_rps,
            slo_ns,
            burst: None,
            weight: 1,
            ramp: None,
            alt_deployment: None,
        };
        spec.validate();
        spec
    }

    /// Attach a periodic burst pattern.
    pub fn with_burst(mut self, burst: BurstSpec) -> Self {
        self.burst = Some(burst);
        self.validate();
        self
    }

    /// Set the DRR fair-share weight (≥ 1).
    pub fn with_weight(mut self, weight: u64) -> Self {
        self.weight = weight;
        self.validate();
        self
    }

    /// Attach a linear rate ramp (workload-mix drift).
    pub fn with_ramp(mut self, ramp: RampSpec) -> Self {
        self.ramp = Some(ramp);
        self.validate();
        self
    }

    /// Panics, naming the field, on traffic no run can serve. An infinite
    /// rate or burst or ramp factor makes every arrival gap 0 (NaN at a
    /// ramp's start), so arrival generation would never reach the
    /// horizon. The fields are public, so every serving run checks each
    /// tenant again before drawing arrivals.
    pub(crate) fn validate(&self) {
        assert!(
            self.rate_rps.is_finite() && self.rate_rps >= 0.0,
            "rate_rps must be finite and >= 0, got {}",
            self.rate_rps
        );
        assert!(self.slo_ns > 0, "slo_ns must be > 0");
        assert!(self.weight >= 1, "weight must be >= 1");
        if let Some(b) = &self.burst {
            assert!(
                b.period_ns > 0 && b.burst_ns <= b.period_ns,
                "burst.burst_ns ({}) must be at most burst.period_ns ({}), which must be > 0",
                b.burst_ns,
                b.period_ns
            );
            assert!(
                b.factor.is_finite() && b.factor > 0.0,
                "burst.factor must be finite and > 0, got {}",
                b.factor
            );
        }
        if let Some(r) = &self.ramp {
            assert!(
                r.end_ns > r.start_ns,
                "ramp.end_ns ({}) must exceed ramp.start_ns ({})",
                r.end_ns,
                r.start_ns
            );
            assert!(
                r.to_factor.is_finite() && r.to_factor > 0.0,
                "ramp.to_factor must be finite and > 0, got {}",
                r.to_factor
            );
        }
    }

    /// Attach an alternative strategy for online swap.
    pub fn with_alt(mut self, alt: Deployment) -> Self {
        self.alt_deployment = Some(alt);
        self
    }
}

/// Global workload parameters shared by every tenant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Workload {
    /// Master seed; tenant streams are derived from it deterministically.
    pub seed: u64,
    /// Arrivals are generated on `[0, horizon_ns)`.
    pub horizon_ns: u64,
}

/// Splitmix-style stream derivation so tenant streams are independent
/// even for adjacent seeds/indices.
fn tenant_seed(master: u64, tenant: usize) -> u64 {
    master
        .wrapping_add((tenant as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .rotate_left(17)
        ^ 0xD1B5_4A32_D192_ED03
}

/// Generate the sorted arrival times for one tenant on `[0, horizon)`.
pub fn tenant_arrivals(tenant: usize, spec: &TenantSpec, wl: &Workload) -> Vec<u64> {
    let mut out = Vec::new();
    if spec.rate_rps <= 0.0 || wl.horizon_ns == 0 {
        return out;
    }
    let mut rng = SmallRng::seed_from_u64(tenant_seed(wl.seed, tenant));
    let base_per_ns = spec.rate_rps * 1e-9;
    let mut t = 0.0f64;
    loop {
        let factor = match spec.burst {
            Some(b) if (t as u64) % b.period_ns < b.burst_ns => b.factor,
            _ => 1.0,
        };
        // Ramp-free tenants keep their exact historical streams (the
        // `None` arm leaves `factor` untouched, bit for bit).
        let factor = match spec.ramp {
            Some(r) => factor * r.factor_at(t as u64),
            None => factor,
        };
        let u: f64 = rng.gen();
        // u ∈ [0, 1) ⇒ 1 − u ∈ (0, 1] ⇒ gap finite and ≥ 0.
        let gap = -(1.0 - u).ln() / (base_per_ns * factor);
        t += gap;
        if t >= wl.horizon_ns as f64 {
            return out;
        }
        out.push(t as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use autohet_accel::AccelConfig;
    use autohet_dnn::zoo;
    use autohet_xbar::XbarShape;

    fn tenant(rate_rps: f64) -> TenantSpec {
        let m = zoo::lenet5();
        let strategy = vec![XbarShape::square(128); m.layers.len()];
        let d = Deployment::compile("lenet", &m, &strategy, &AccelConfig::default());
        TenantSpec::new("t", d, rate_rps, 1_000_000_000)
    }

    #[test]
    fn arrivals_are_sorted_inside_horizon_and_deterministic() {
        let wl = Workload {
            seed: 7,
            horizon_ns: 1_000_000_000,
        };
        let spec = tenant(5_000.0);
        let a = tenant_arrivals(0, &spec, &wl);
        let b = tenant_arrivals(0, &spec, &wl);
        assert_eq!(a, b);
        assert!(!a.is_empty());
        assert!(a.windows(2).all(|w| w[0] <= w[1]));
        assert!(a.iter().all(|&t| t < wl.horizon_ns));
        let other = tenant_arrivals(0, &spec, &Workload { seed: 8, ..wl });
        assert_ne!(a, other);
    }

    #[test]
    fn mean_rate_is_close_to_requested() {
        let wl = Workload {
            seed: 3,
            horizon_ns: 2_000_000_000,
        };
        let spec = tenant(10_000.0);
        let n = tenant_arrivals(0, &spec, &wl).len() as f64;
        let expected = 10_000.0 * wl.horizon_ns as f64 * 1e-9;
        assert!((n - expected).abs() < 0.1 * expected, "{n} vs {expected}");
    }

    #[test]
    fn bursts_add_arrivals() {
        let wl = Workload {
            seed: 11,
            horizon_ns: 1_000_000_000,
        };
        let steady = tenant_arrivals(0, &tenant(2_000.0), &wl).len();
        let bursty_spec = tenant(2_000.0).with_burst(BurstSpec {
            period_ns: 100_000_000,
            burst_ns: 20_000_000,
            factor: 8.0,
        });
        let bursty = tenant_arrivals(0, &bursty_spec, &wl).len();
        assert!(bursty > steady + steady / 2, "{bursty} vs {steady}");
    }

    #[test]
    fn zero_rate_yields_no_arrivals() {
        let wl = Workload {
            seed: 1,
            horizon_ns: 1_000_000_000,
        };
        assert!(tenant_arrivals(0, &tenant(0.0), &wl).is_empty());
    }

    // An infinite rate or factor makes every gap 0 (or NaN at a ramp's
    // start), so arrival generation would never reach the horizon: the
    // specs are rejected when built, before any arrival is drawn.
    #[test]
    #[should_panic(expected = "rate_rps must be finite and >= 0, got inf")]
    fn infinite_rate_is_rejected_up_front() {
        let _ = tenant(f64::INFINITY);
    }

    #[test]
    #[should_panic(expected = "burst.factor must be finite and > 0, got inf")]
    fn infinite_burst_factor_is_rejected_up_front() {
        let _ = tenant(1_000.0).with_burst(BurstSpec {
            period_ns: 100_000_000,
            burst_ns: 20_000_000,
            factor: f64::INFINITY,
        });
    }

    #[test]
    #[should_panic(expected = "ramp.to_factor must be finite and > 0, got inf")]
    fn infinite_ramp_factor_is_rejected_up_front() {
        let _ = tenant(1_000.0).with_ramp(RampSpec {
            start_ns: 0,
            end_ns: 100_000_000,
            to_factor: f64::INFINITY,
        });
    }
}

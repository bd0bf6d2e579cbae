//! Per-replica device simulation: instance outages and conductance-drift
//! health, run by the shard scheduler inside its recurrence.
//!
//! Each shard keeps a `ReplicaFaults` beside its
//! [`ReplicaPool`](crate::ready::ReplicaPool), indexed by the same
//! shard-local replica ids. [`Shard::step`](crate::shard) consults it at
//! every dispatch, in a fixed order:
//!
//! 1. a replica that is down at its free instant, or at the dispatch
//!    instant, waits out the outage and the turn passes (failover);
//! 2. a batch whose service window an outage cuts into is killed at the
//!    failure edge: its requests return to the front of their queue while
//!    their age is within the retry deadline, and count as failed
//!    otherwise. The killed batch still uses up a dispatch index;
//! 3. a completed batch rolls per-request drift errors and folds its
//!    error fraction into the replica's EWMA circuit breaker, whose
//!    recovery pauses can extend the replica's next free instant.
//!
//! Outages and service times are both known at dispatch, so every
//! batch's fate is resolved synchronously inside the shard — which is
//! what keeps the heap scheduler, the linear-scan reference and the
//! epoch-threaded driver bit-identical.

use crate::failure::{FailurePlan, FailureSpec, Outage};
use crate::shard::ShardConfig;
use serde::{Deserialize, Serialize};

/// Online replica-health monitoring and drift recovery — the serving half
/// of the lifetime-resilience layer (DESIGN.md §12).
///
/// With a `HealthSpec` configured, every replica carries a drift clock:
/// the probability that a served request returns a corrupted result grows
/// linearly with the time since the replica was last recalibrated
/// (`err_ppm_per_ms`, capped at `err_cap_ppm`). Per-request error
/// decisions are keyed, order-free rolls on `(seed, replica, dispatch
/// index, position)`, so every scheduler driver agrees bit for bit.
///
/// The monitor folds each completed batch's error fraction into a
/// per-replica EWMA (`ewma_alpha_milli`); when the EWMA reaches
/// `trip_milli` the circuit breaker trips and the replica goes through
/// the online recovery cascade *while serving sheds to the healthy
/// replicas*: up to `max_retries` recalibration attempts (each pausing
/// the replica `recalibrate_ns` plus an exponentially growing backoff),
/// then — if `remap` is set — a remap escalation (`remap_ns`) that always
/// succeeds. A successful recovery resets the drift clock and the EWMA; a
/// failed one (recalibrate-only arm out of retries) only re-arms the
/// breaker, so drift keeps eroding accuracy.
///
/// All fields are integers so the spec stays `Copy + Eq`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct HealthSpec {
    /// Per-request error probability growth: ppm per millisecond since
    /// the replica's last successful recalibration.
    pub err_ppm_per_ms: u64,
    /// Ceiling on the per-request error probability \[ppm\].
    pub err_cap_ppm: u64,
    /// EWMA weight on the newest batch's error fraction (1..=1000).
    pub ewma_alpha_milli: u64,
    /// Circuit-breaker threshold on the EWMA \[milli\]; a value above 1000
    /// can never be reached, disabling recovery entirely.
    pub trip_milli: u64,
    /// Replica pause per recalibration attempt \[ns\].
    pub recalibrate_ns: u64,
    /// Per-attempt recalibration success probability \[milli\].
    pub recal_success_milli: u64,
    /// Bounded recalibration attempts per trip.
    pub max_retries: u32,
    /// Extra pause before each attempt \[ns\], doubling per attempt.
    pub backoff_base_ns: u64,
    /// Replica pause for the remap escalation \[ns\].
    pub remap_ns: u64,
    /// Escalate to a remap (always succeeds) when retries are exhausted.
    pub remap: bool,
    /// Seed of the error/recovery rolls (independent of workload seed).
    pub seed: u64,
}

impl Default for HealthSpec {
    fn default() -> Self {
        HealthSpec {
            err_ppm_per_ms: 2_000,
            err_cap_ppm: 500_000,
            ewma_alpha_milli: 250,
            trip_milli: 60,
            recalibrate_ns: 300_000,
            recal_success_milli: 800,
            max_retries: 3,
            backoff_base_ns: 100_000,
            remap_ns: 1_500_000,
            remap: true,
            seed: 0x4EA1,
        }
    }
}

impl HealthSpec {
    pub(crate) fn validate(&self) {
        assert!(
            (1..=1000).contains(&self.ewma_alpha_milli),
            "EWMA weight must be in 1..=1000 milli"
        );
        assert!(
            self.recal_success_milli <= 1000,
            "success probability above 1"
        );
        assert!(self.err_cap_ppm <= 1_000_000, "error cap above 1");
    }
}

/// Per-replica online health state (all integer, recurrence-ordered, so
/// every scheduler driver evolves it identically).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct ReplicaHealth {
    /// Instant of the last successful recalibration/remap \[ns\].
    pub last_recal_ns: u64,
    /// Error-rate EWMA \[milli\].
    pub ewma_milli: u64,
    /// Circuit-breaker trips.
    pub trips: u64,
    /// Successful recalibrations.
    pub recals: u64,
    /// Remap escalations.
    pub remaps: u64,
    /// Total time spent paused in recovery \[ns\].
    pub recovery_ns: u64,
}

/// What happened in one replica-health transition (see [`HealthEvent`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum HealthEventKind {
    /// The error-EWMA circuit breaker tripped.
    Trip,
    /// An online recalibration attempt succeeded.
    Recal,
    /// Recovery escalated to a remap (always succeeds).
    Remap,
    /// Recalibration ran out of retries with no remap escalation.
    RecoveryFailed,
}

impl HealthEventKind {
    /// Lower-case label used by exporters and alert annotations.
    pub fn label(&self) -> &'static str {
        match self {
            HealthEventKind::Trip => "trip",
            HealthEventKind::Recal => "recal",
            HealthEventKind::Remap => "remap",
            HealthEventKind::RecoveryFailed => "recovery_failed",
        }
    }
}

/// One timestamped replica-health transition, recorded by the owning
/// shard at the point of its recurrence where the batch completes, so
/// the event sequence is bit-identical across scheduler drivers. Trips
/// carry the batch completion instant; recovery outcomes carry the
/// instant the replica came back (or gave up).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct HealthEvent {
    /// Simulated instant of the transition \[ns\].
    pub t_ns: u64,
    /// Shard owning the replica.
    pub shard: usize,
    /// Shard-local replica id.
    pub replica: usize,
    /// Transition kind.
    pub kind: HealthEventKind,
}

/// Keyed order-free roll (splitmix64-style), the same discipline as the
/// crossbar fault sampler: a pure function of its keys, so error and
/// recovery decisions do not depend on evaluation order.
fn health_roll(seed: u64, a: u64, b: u64, c: u64) -> u64 {
    let mut z = seed
        ^ a.wrapping_mul(0x9E37_79B9_7F4A_7C15)
        ^ b.wrapping_mul(0xBF58_476D_1CE4_E5B9)
        ^ c.wrapping_mul(0x94D0_49BB_1331_11EB);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Outage schedule and drift health of one shard's replicas, indexed by
/// shard-local replica id like the shard's
/// [`ReplicaPool`](crate::ready::ReplicaPool).
///
/// Outage streams and health rolls are keyed by the replica key
/// `local id × shards + shard`: unique across shards, and the local id
/// itself when there is one shard. A replica the autoscaler adds at `t`
/// starts freshly calibrated at `t` and only fails after `t`.
#[derive(Debug, Clone)]
pub(crate) struct ReplicaFaults {
    shard: usize,
    shards: usize,
    horizon_ns: u64,
    failures: Option<FailureSpec>,
    retry_deadline_ns: u64,
    spec: Option<HealthSpec>,
    pub(crate) plan: FailurePlan,
    pub(crate) health: Vec<ReplicaHealth>,
    /// Health transitions in recurrence order.
    pub(crate) events: Vec<HealthEvent>,
}

impl ReplicaFaults {
    pub(crate) fn new(cfg: &ShardConfig, shard: usize, horizon_ns: u64) -> Self {
        let mut faults = ReplicaFaults {
            shard,
            shards: cfg.shards,
            horizon_ns,
            failures: cfg.failures,
            retry_deadline_ns: cfg.retry_deadline_ns,
            spec: cfg.health,
            plan: FailurePlan::none(0),
            health: Vec::new(),
            events: Vec::new(),
        };
        for _ in 0..cfg.replicas_per_shard {
            faults.add(0);
        }
        faults
    }

    fn key(&self, replica: usize) -> u64 {
        (replica * self.shards + self.shard) as u64
    }

    /// A replica joined the shard at `t_ns` (its local id is the next
    /// one in line, as in [`ReplicaPool::add`](crate::ready::ReplicaPool::add)).
    pub(crate) fn add(&mut self, t_ns: u64) {
        let key = self.key(self.health.len());
        self.plan
            .push(self.failures.as_ref(), key, self.horizon_ns, t_ns);
        self.health.push(ReplicaHealth {
            last_recal_ns: t_ns,
            ..ReplicaHealth::default()
        });
    }

    /// If `replica` is down at `t_ns`, the instant it recovers. Ideal
    /// replicas skip the schedule lookup: this runs at every dispatch.
    pub(crate) fn down_until(&self, replica: usize, t_ns: u64) -> Option<u64> {
        self.failures?;
        self.plan.down_until(replica, t_ns)
    }

    /// The outage that kills a batch serving on `replica` over
    /// `(from_ns, to_ns)`, if any.
    pub(crate) fn outage_in(&self, replica: usize, from_ns: u64, to_ns: u64) -> Option<Outage> {
        self.failures?;
        self.plan.outage_in(replica, from_ns, to_ns)
    }

    /// Whether a request that arrived at `arrival_ns` and was killed at
    /// `killed_ns` may still be retried.
    pub(crate) fn retryable(&self, arrival_ns: u64, killed_ns: u64) -> bool {
        killed_ns.saturating_sub(arrival_ns) <= self.retry_deadline_ns
    }

    /// Per-request drift-error probability \[ppm\] of a batch dispatched on
    /// `replica` at `start_ns`; 0 without health modeling.
    pub(crate) fn error_ppm(&self, replica: usize, start_ns: u64) -> u64 {
        let Some(spec) = &self.spec else {
            return 0;
        };
        let elapsed_ns = start_ns.saturating_sub(self.health[replica].last_recal_ns);
        ((spec.err_ppm_per_ms as u128 * elapsed_ns as u128) / 1_000_000)
            .min(spec.err_cap_ppm as u128) as u64
    }

    /// Whether request `position` of dispatch `index` on `replica`
    /// returns a drift-corrupted result, at error probability `p_ppm`
    /// from [`error_ppm`](Self::error_ppm).
    pub(crate) fn errored(&self, replica: usize, index: u64, position: usize, p_ppm: u64) -> bool {
        match &self.spec {
            Some(spec) if p_ppm > 0 => {
                health_roll(spec.seed, self.key(replica), index, position as u64) % 1_000_000
                    < p_ppm
            }
            _ => false,
        }
    }

    /// Health bookkeeping for a batch of `n` requests, `errors` of them
    /// corrupted, completing on `replica` at `completion_ns`: fold the
    /// batch error fraction into the replica's EWMA and — if the circuit
    /// breaker trips — run the bounded recalibrate → remap recovery.
    /// Returns the instant the replica is next free (≥ `completion_ns`;
    /// recovery pauses extend it, shedding load to the healthy replicas).
    ///
    /// Everything here is a pure function of the spec and this replica's
    /// own completion sequence (recovery rolls are keyed on the trip
    /// count), so every driver evolves identical health state.
    pub(crate) fn complete(
        &mut self,
        replica: usize,
        errors: u64,
        n: usize,
        completion_ns: u64,
    ) -> u64 {
        let Some(spec) = self.spec else {
            return completion_ns;
        };
        let key = self.key(replica);
        let h = &mut self.health[replica];
        let batch_milli = errors * 1000 / n.max(1) as u64;
        h.ewma_milli = (spec.ewma_alpha_milli * batch_milli
            + (1000 - spec.ewma_alpha_milli) * h.ewma_milli)
            / 1000;
        if h.ewma_milli < spec.trip_milli {
            return completion_ns;
        }
        // Circuit breaker: take the replica out of service and recover.
        h.trips += 1;
        let event = |t_ns, kind| HealthEvent {
            t_ns,
            shard: self.shard,
            replica,
            kind,
        };
        self.events
            .push(event(completion_ns, HealthEventKind::Trip));
        let mut t = completion_ns;
        for attempt in 0..spec.max_retries {
            t += spec.recalibrate_ns + (spec.backoff_base_ns << attempt.min(20));
            let roll = health_roll(spec.seed ^ 0x5EA1ED, key, h.trips, attempt as u64) % 1000;
            if roll < spec.recal_success_milli {
                h.recals += 1;
                h.last_recal_ns = t;
                h.ewma_milli = 0;
                h.recovery_ns += t - completion_ns;
                self.events.push(event(t, HealthEventKind::Recal));
                return t;
            }
        }
        if spec.remap {
            t += spec.remap_ns;
            h.remaps += 1;
            h.last_recal_ns = t;
            h.ewma_milli = 0;
            h.recovery_ns += t - completion_ns;
            self.events.push(event(t, HealthEventKind::Remap));
            return t;
        }
        // Out of retries with no remap escalation: the breaker re-arms
        // but the drift clock keeps running — accuracy keeps eroding.
        h.ewma_milli = 0;
        h.recovery_ns += t - completion_ns;
        self.events.push(event(t, HealthEventKind::RecoveryFailed));
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::deploy::Deployment;
    use crate::failure::FailureSpec;
    use crate::shard::{run_sharded, ShardConfig, ShardServingReport};
    use crate::workload::{TenantSpec, Workload};
    use autohet_accel::AccelConfig;
    use autohet_dnn::zoo;
    use autohet_xbar::XbarShape;

    fn lenet_deployment() -> Deployment {
        let m = zoo::lenet5();
        let strategy = vec![XbarShape::square(128); m.layers.len()];
        Deployment::compile("lenet", &m, &strategy, &AccelConfig::default())
    }

    /// One tenant at `load` × single-replica capacity.
    fn tenant_at_load(load: f64, slo_mult: f64) -> TenantSpec {
        let d = lenet_deployment();
        let rate = load * d.max_rate_rps();
        let slo = (slo_mult * d.pipeline.fill_ns) as u64;
        TenantSpec::new("lenet", d, rate, slo.max(1))
    }

    fn wl(seed: u64, n_requests: f64, rate_rps: f64) -> Workload {
        Workload {
            seed,
            horizon_ns: (n_requests / rate_rps * 1e9) as u64,
        }
    }

    /// One shard of `replicas` replicas, everything else default.
    fn replicas(replicas: usize) -> ShardConfig {
        ShardConfig {
            replicas_per_shard: replicas,
            ..ShardConfig::default()
        }
    }

    fn sum(r: &ShardServingReport, f: impl Fn(&crate::shard::ShardStats) -> u64) -> u64 {
        r.shard_stats.iter().map(f).sum()
    }

    #[test]
    fn identical_runs_are_bit_identical() {
        let t = vec![tenant_at_load(0.6, 10.0)];
        let w = wl(42, 2_000.0, t[0].rate_rps);
        let cfg = ShardConfig::default();
        assert_eq!(run_sharded(&t, &w, &cfg), run_sharded(&t, &w, &cfg));
    }

    #[test]
    fn different_seeds_differ() {
        let t = vec![tenant_at_load(0.6, 10.0)];
        let rate = t[0].rate_rps;
        let a = run_sharded(&t, &wl(1, 1_000.0, rate), &ShardConfig::default());
        let b = run_sharded(&t, &wl(2, 1_000.0, rate), &ShardConfig::default());
        assert_ne!(a, b);
    }

    #[test]
    fn conservation_completed_plus_rejected_is_submitted() {
        // Overload so shedding actually happens.
        let t = vec![tenant_at_load(3.0, 10.0)];
        let w = wl(9, 3_000.0, t[0].rate_rps);
        let cfg = ShardConfig {
            queue_depth: 16,
            ..ShardConfig::default()
        };
        let r = run_sharded(&t, &w, &cfg);
        let s = &r.tenants[0];
        assert!(s.rejected > 0, "overload should shed");
        assert_eq!(s.completed + s.rejected, s.submitted);
        assert_eq!(r.total_completed + r.total_rejected, s.submitted);
        assert_eq!(s.histogram.count(), s.completed);
    }

    #[test]
    fn max_batch_one_disables_batching() {
        let t = vec![tenant_at_load(0.5, 10.0)];
        let w = wl(4, 500.0, t[0].rate_rps);
        let cfg = ShardConfig {
            max_batch: 1,
            ..ShardConfig::default()
        };
        let r = run_sharded(&t, &w, &cfg);
        assert_eq!(r.batches, r.total_completed);
        assert!((r.mean_batch_size - 1.0).abs() < 1e-12);
    }

    #[test]
    fn overload_forms_larger_batches_than_light_load() {
        let make = |load: f64| {
            let t = vec![tenant_at_load(load, 10.0)];
            let w = wl(8, 2_000.0, t[0].rate_rps);
            run_sharded(&t, &w, &ShardConfig::default())
        };
        let light = make(0.05);
        let heavy = make(2.0);
        assert!(heavy.mean_batch_size > light.mean_batch_size);
        assert!(heavy.mean_batch_size > 2.0, "{}", heavy.mean_batch_size);
    }

    #[test]
    fn latency_stats_are_ordered_and_bounded_below_by_service() {
        let t = vec![tenant_at_load(0.7, 10.0)];
        let w = wl(13, 2_000.0, t[0].rate_rps);
        let r = run_sharded(&t, &w, &ShardConfig::default());
        let s = &r.tenants[0];
        assert!(s.p50_ns <= s.p95_ns);
        assert!(s.p95_ns <= s.p99_ns);
        assert!(s.p99_ns <= s.max_ns);
        // A request can't finish faster than a single-sample service.
        assert!(s.p50_ns >= t[0].deployment.service_ns(1));
        assert!(s.mean_ns > 0.0);
        assert!(s.peak_queue_depth >= 1);
        assert!(s.mean_queue_depth >= 0.0);
    }

    #[test]
    fn second_replica_relieves_an_overloaded_tenant() {
        let t = vec![tenant_at_load(1.5, 4.0)];
        let w = wl(21, 3_000.0, t[0].rate_rps);
        let one = run_sharded(&t, &w, &ShardConfig::default());
        let two = run_sharded(&t, &w, &replicas(2));
        assert!(two.tenants[0].p99_ns < one.tenants[0].p99_ns);
        assert!(two.tenants[0].slo_attainment > one.tenants[0].slo_attainment);
        assert!(two.makespan_ns <= one.makespan_ns);
    }

    #[test]
    fn generous_slo_is_met_under_light_load() {
        let t = vec![tenant_at_load(0.1, 1_000.0)];
        let w = wl(2, 300.0, t[0].rate_rps);
        let r = run_sharded(&t, &w, &ShardConfig::default());
        assert_eq!(r.tenants[0].rejected, 0);
        assert!((r.tenants[0].slo_attainment - 1.0).abs() < 1e-12);
    }

    #[test]
    fn empty_workload_yields_empty_report() {
        let mut spec = tenant_at_load(0.5, 10.0);
        spec.rate_rps = 0.0;
        let w = Workload {
            seed: 0,
            horizon_ns: 1_000_000,
        };
        let r = run_sharded(&[spec], &w, &ShardConfig::default());
        assert_eq!(r.total_completed, 0);
        assert_eq!(r.batches, 0);
        assert_eq!(r.tenants[0].p99_ns, 0);
        assert_eq!(r.makespan_ns, w.horizon_ns);
        assert!((r.tenants[0].slo_attainment - 1.0).abs() < 1e-12);
    }

    #[test]
    fn two_tenants_share_capacity_fairly_by_arrival_order() {
        let a = tenant_at_load(0.4, 10.0);
        let b = tenant_at_load(0.4, 10.0);
        let w = wl(31, 2_000.0, a.rate_rps + b.rate_rps);
        let r = run_sharded(&[a, b], &w, &ShardConfig::default());
        assert_eq!(r.tenants.len(), 2);
        // Symmetric tenants under a shared replica: both make progress,
        // and equal weights earn near-equal attained service.
        assert!(r.tenants[0].completed > 0);
        assert!(r.tenants[1].completed > 0);
        assert!(r.fairness_index > 0.9, "{}", r.fairness_index);
    }

    /// A failure spec aggressive enough to kill batches mid-service.
    fn flaky(seed: u64) -> FailureSpec {
        FailureSpec {
            mtbf_ns: 2_000_000,
            mttr_ns: 400_000,
            seed,
        }
    }

    #[test]
    fn failure_free_runs_report_zero_failure_accounting() {
        let t = vec![tenant_at_load(0.6, 10.0)];
        let w = wl(42, 1_000.0, t[0].rate_rps);
        let r = run_sharded(&t, &w, &ShardConfig::default());
        let s = &r.tenants[0];
        assert_eq!(s.failed, 0);
        assert_eq!(s.retried, 0);
        assert_eq!(s.degraded_completed, 0);
        assert_eq!(s.killed_batches, 0);
        assert_eq!(r.total_failed, 0);
        assert_eq!(r.total_retried, 0);
        assert!(r.shard_stats.iter().all(|s| s.downtime_ns == 0));
    }

    #[test]
    fn failures_cause_kills_retries_and_conserve_requests() {
        let t = vec![tenant_at_load(0.7, 10.0), tenant_at_load(0.3, 10.0)];
        let w = wl(5, 2_000.0, t[0].rate_rps + t[1].rate_rps);
        let cfg = ShardConfig {
            failures: Some(flaky(17)),
            ..replicas(2)
        };
        let r = run_sharded(&t, &w, &cfg);
        let killed: u64 = r.tenants.iter().map(|s| s.killed_batches).sum();
        assert!(killed > 0, "aggressive failures should kill batches");
        assert!(r.total_retried > 0);
        assert!(sum(&r, |s| s.downtime_ns) > 0);
        for s in &r.tenants {
            assert_eq!(
                s.completed + s.rejected + s.failed,
                s.submitted,
                "request conservation for {}",
                s.name
            );
            assert!(s.degraded_completed <= s.completed);
        }
        assert_eq!(r.lost_requests(), 0);
        // Retried-but-completed requests surface as degraded service.
        let degraded: u64 = r.tenants.iter().map(|s| s.degraded_completed).sum();
        assert!(degraded > 0);
    }

    #[test]
    fn zero_retry_deadline_drops_every_killed_request() {
        let t = vec![tenant_at_load(0.7, 10.0)];
        let w = wl(5, 1_500.0, t[0].rate_rps);
        let cfg = ShardConfig {
            failures: Some(flaky(17)),
            retry_deadline_ns: 0,
            ..ShardConfig::default()
        };
        let r = run_sharded(&t, &w, &cfg);
        let s = &r.tenants[0];
        assert!(s.killed_batches > 0);
        assert!(s.failed > 0, "no deadline headroom: kills become failures");
        assert_eq!(s.retried, 0);
        assert_eq!(s.degraded_completed, 0);
        assert_eq!(s.completed + s.rejected + s.failed, s.submitted);
    }

    #[test]
    fn failure_runs_are_deterministic_and_seed_sensitive() {
        let t = vec![tenant_at_load(0.6, 10.0)];
        let w = wl(8, 1_000.0, t[0].rate_rps);
        let mk = |seed| ShardConfig {
            failures: Some(flaky(seed)),
            ..replicas(2)
        };
        let a = run_sharded(&t, &w, &mk(1));
        let b = run_sharded(&t, &w, &mk(1));
        let c = run_sharded(&t, &w, &mk(2));
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    /// A drift spec strong enough to corrupt results within the short
    /// test horizons (serving horizons are tens of milliseconds, so the
    /// per-ms growth must be steep to matter).
    fn drifting(trip_milli: u64, remap: bool) -> HealthSpec {
        HealthSpec {
            err_ppm_per_ms: 30_000,
            trip_milli,
            remap,
            ..HealthSpec::default()
        }
    }

    fn with_health(spec: HealthSpec) -> ShardConfig {
        ShardConfig {
            health: Some(spec),
            ..ShardConfig::default()
        }
    }

    #[test]
    fn zero_drift_health_is_indistinguishable_from_disabled() {
        let t = vec![tenant_at_load(0.6, 10.0)];
        let w = wl(42, 1_500.0, t[0].rate_rps);
        let off = run_sharded(&t, &w, &ShardConfig::default());
        let on = run_sharded(
            &t,
            &w,
            &with_health(HealthSpec {
                err_ppm_per_ms: 0,
                ..HealthSpec::default()
            }),
        );
        assert_eq!(off, on, "a drift-free monitor must not perturb the run");
    }

    #[test]
    fn unchecked_drift_erodes_accuracy_and_slo_attainment() {
        let t = vec![tenant_at_load(0.6, 10.0)];
        let w = wl(7, 2_000.0, t[0].rate_rps);
        let clean = run_sharded(&t, &w, &ShardConfig::default());
        // Breaker threshold above 1000 milli: can never trip.
        let r = run_sharded(&t, &w, &with_health(drifting(1001, false)));
        let s = &r.tenants[0];
        assert!(s.errored > 0, "steep drift must corrupt results");
        assert!(s.errored <= s.completed);
        assert_eq!(s.completed + s.rejected, s.submitted);
        assert!(s.slo_attainment < clean.tenants[0].slo_attainment);
        assert!(r.clean_fraction() < 1.0);
        assert_eq!(sum(&r, |s| s.trips), 0);
        assert_eq!(r.total_errored, s.errored);
    }

    #[test]
    fn recovery_trips_the_breaker_and_restores_accuracy() {
        let t = vec![tenant_at_load(0.6, 10.0)];
        let w = wl(7, 2_000.0, t[0].rate_rps);
        let unchecked = run_sharded(&t, &w, &with_health(drifting(1001, false)));
        let recovered = run_sharded(&t, &w, &with_health(drifting(60, true)));
        assert!(
            sum(&recovered, |s| s.trips) > 0,
            "the breaker must trip under steep drift"
        );
        let repairs = sum(&recovered, |s| s.recals + s.remaps);
        assert!(repairs > 0, "trips must lead to recoveries");
        assert!(sum(&recovered, |s| s.recovery_ns) > 0);
        assert!(recovered.total_errored < unchecked.total_errored);
        assert!(recovered.clean_fraction() > unchecked.clean_fraction());
        assert!(
            recovered.tenants[0].slo_attainment > unchecked.tenants[0].slo_attainment,
            "recovery pauses must cost less than unchecked corruption"
        );
    }

    #[test]
    fn hopeless_recalibration_escalates_to_remap() {
        let t = vec![tenant_at_load(0.6, 10.0)];
        let w = wl(7, 1_500.0, t[0].rate_rps);
        let r = run_sharded(
            &t,
            &w,
            &with_health(HealthSpec {
                recal_success_milli: 0,
                max_retries: 2,
                ..drifting(60, true)
            }),
        );
        let trips = sum(&r, |s| s.trips);
        assert!(trips > 0);
        assert_eq!(sum(&r, |s| s.recals), 0);
        assert_eq!(sum(&r, |s| s.remaps), trips);
    }

    #[test]
    fn health_runs_are_deterministic_and_seed_sensitive() {
        let t = vec![tenant_at_load(0.6, 10.0)];
        let w = wl(8, 1_000.0, t[0].rate_rps);
        let mk = |seed| {
            with_health(HealthSpec {
                seed,
                ..drifting(60, true)
            })
        };
        let a = run_sharded(&t, &w, &mk(1));
        let b = run_sharded(&t, &w, &mk(1));
        let c = run_sharded(&t, &w, &mk(2));
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn failures_never_improve_service() {
        let t = vec![tenant_at_load(0.8, 6.0)];
        let w = wl(3, 2_000.0, t[0].rate_rps);
        let healthy = run_sharded(&t, &w, &ShardConfig::default());
        let failing = run_sharded(
            &t,
            &w,
            &ShardConfig {
                failures: Some(flaky(9)),
                ..ShardConfig::default()
            },
        );
        assert!(failing.tenants[0].slo_attainment <= healthy.tenants[0].slo_attainment);
        assert!(failing.makespan_ns >= healthy.makespan_ns);
        assert!(failing.total_completed <= healthy.total_completed);
    }
}

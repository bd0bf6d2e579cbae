//! The replica table: each shard's replicas, indexed by shard-local id,
//! with their free times, retirement, outage schedules and drift health
//! in one place.
//!
//! [`Shard::step`](crate::shard) consults the table at every dispatch,
//! in a fixed order:
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
//!
//! "Which replica frees earliest?" is answered by a lazy-deletion
//! min-heap over `(free_ns, id)` in O(log R) per update, *without
//! changing a single scheduling decision*: it pops exactly the minimum
//! the linear scan ([`ReplicaTable::scan_min`]) finds, with the scan's
//! tie-break (equal free times → lowest id; `BinaryHeap` over
//! `Reverse<(free_ns, id)>` orders ties by id ascending for free). Stale
//! entries stay in the heap until they surface, and every peek discards
//! the outdated ones.

use crate::failure::{self, FailureSpec, Outage};
use crate::shard::ShardConfig;
use serde::{Deserialize, Serialize};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

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
            "health.ewma_alpha_milli must be in 1..=1000, got {}",
            self.ewma_alpha_milli
        );
        assert!(
            self.recal_success_milli <= 1000,
            "health.recal_success_milli must be <= 1000, got {}",
            self.recal_success_milli
        );
        assert!(
            self.err_cap_ppm <= 1_000_000,
            "health.err_cap_ppm must be <= 1000000, got {}",
            self.err_cap_ppm
        );
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

/// One replica's row of the [`ReplicaTable`].
#[derive(Debug, Clone)]
struct Replica {
    /// The instant the replica is next free \[ns\] (meaningful for a
    /// retired replica too: the instant its last batch drains).
    free_ns: u64,
    /// A retired replica takes no further dispatches.
    retired: bool,
    /// Sorted, non-overlapping outage intervals; empty without failures.
    outages: Vec<Outage>,
    health: ReplicaHealth,
}

/// Free times, retirement, outage schedules and drift health of one
/// shard's replicas, indexed by shard-local replica id (dense, never
/// shrinking: retired replicas keep their row).
///
/// Outage streams and health rolls are keyed by the replica key
/// `local id × shards + shard`: unique across shards, and the local id
/// itself when there is one shard. A replica the autoscaler adds at `t`
/// starts freshly calibrated at `t` and only fails after `t`.
#[derive(Debug, Clone)]
pub(crate) struct ReplicaTable {
    shard: usize,
    shards: usize,
    horizon_ns: u64,
    failures: Option<FailureSpec>,
    retry_deadline_ns: u64,
    spec: Option<HealthSpec>,
    replicas: Vec<Replica>,
    /// Lazy min-heap of `(free_ns, id)` candidates.
    heap: BinaryHeap<Reverse<(u64, usize)>>,
    active: usize,
    /// Health transitions in recurrence order.
    pub(crate) events: Vec<HealthEvent>,
}

impl ReplicaTable {
    /// Shard `shard`'s table: `cfg.replicas_per_shard` replicas, all free
    /// and freshly calibrated at t = 0.
    pub(crate) fn new(cfg: &ShardConfig, shard: usize, horizon_ns: u64) -> Self {
        let mut table = ReplicaTable {
            shard,
            shards: cfg.shards,
            horizon_ns,
            failures: cfg.failures,
            retry_deadline_ns: cfg.retry_deadline_ns,
            spec: cfg.health,
            replicas: Vec::new(),
            heap: BinaryHeap::new(),
            active: 0,
            events: Vec::new(),
        };
        for _ in 0..cfg.replicas_per_shard {
            table.add(0);
        }
        table
    }

    fn key(&self, replica: usize) -> u64 {
        (replica * self.shards + self.shard) as u64
    }

    /// Replicas ever created (including retired ones).
    pub(crate) fn len(&self) -> usize {
        self.replicas.len()
    }

    /// Replicas currently dispatchable.
    pub(crate) fn active(&self) -> usize {
        self.active
    }

    /// Add a replica that joins the shard at `t_ns`: it is free at
    /// `t_ns`, its drift clock starts there, and it fails only at or
    /// after it. Returns its id (the next one in line).
    pub(crate) fn add(&mut self, t_ns: u64) -> usize {
        let r = self.replicas.len();
        let outages = match &self.failures {
            Some(spec) => failure::outages(spec, self.key(r), self.horizon_ns, t_ns),
            None => Vec::new(),
        };
        self.replicas.push(Replica {
            free_ns: t_ns,
            retired: false,
            outages,
            health: ReplicaHealth {
                last_recal_ns: t_ns,
                ..ReplicaHealth::default()
            },
        });
        self.heap.push(Reverse((t_ns, r)));
        self.active += 1;
        r
    }

    /// Retire replica `r`: it finishes any in-flight batch (its free
    /// time stays meaningful) but takes no further dispatches.
    pub(crate) fn retire(&mut self, r: usize) {
        if !self.replicas[r].retired {
            self.replicas[r].retired = true;
            self.active -= 1;
        }
    }

    /// The highest active replica id, the one a scale-down retires.
    pub(crate) fn last_active(&self) -> Option<usize> {
        self.replicas.iter().rposition(|rep| !rep.retired)
    }

    /// The earliest-free active replica `(free_ns, id)` without removing
    /// it; ties break to the lowest id. Discards stale heap entries.
    pub(crate) fn peek_min(&mut self) -> Option<(u64, usize)> {
        while let Some(&Reverse((t, r))) = self.heap.peek() {
            let rep = &self.replicas[r];
            if !rep.retired && rep.free_ns == t {
                return Some((t, r));
            }
            self.heap.pop();
        }
        None
    }

    /// Linear-scan reference of [`peek_min`](Self::peek_min): min over
    /// `(free_ns, id)` of the active replicas. The scan-mode scheduler
    /// uses this so the reference driver exercises the original O(R)
    /// cost.
    pub(crate) fn scan_min(&self) -> Option<(u64, usize)> {
        (self.replicas.iter().enumerate())
            .filter(|(_, rep)| !rep.retired)
            .map(|(r, rep)| (rep.free_ns, r))
            .min()
    }

    /// Publish a new free time for replica `r` (after dispatching to it,
    /// failing it over or pausing it). Free times may move in either
    /// direction; the old heap entry goes stale and is discarded lazily.
    pub(crate) fn set_free(&mut self, r: usize, t_ns: u64) {
        let rep = &mut self.replicas[r];
        rep.free_ns = t_ns;
        if !rep.retired {
            self.heap.push(Reverse((t_ns, r)));
        }
    }

    /// If `replica` is down at `t_ns`, the instant it recovers. Ideal
    /// replicas skip the schedule lookup: this runs at every dispatch.
    pub(crate) fn down_until(&self, replica: usize, t_ns: u64) -> Option<u64> {
        self.failures?;
        failure::down_until(&self.replicas[replica].outages, t_ns)
    }

    /// The outage that kills a batch serving on `replica` over
    /// `(from_ns, to_ns)`, if any.
    pub(crate) fn outage_in(&self, replica: usize, from_ns: u64, to_ns: u64) -> Option<Outage> {
        self.failures?;
        failure::outage_in(&self.replicas[replica].outages, from_ns, to_ns)
    }

    /// Downtime of all the shard's replicas overlapping `[from_ns, to_ns)`
    /// \[ns\].
    pub(crate) fn downtime_in(&self, from_ns: u64, to_ns: u64) -> u64 {
        (self.replicas.iter())
            .map(|rep| failure::downtime_in(&rep.outages, from_ns, to_ns))
            .sum()
    }

    /// Each replica's health state, by id.
    pub(crate) fn health(&self) -> impl Iterator<Item = &ReplicaHealth> {
        self.replicas.iter().map(|rep| &rep.health)
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
        let elapsed_ns = start_ns.saturating_sub(self.replicas[replica].health.last_recal_ns);
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
        let h = &mut self.replicas[replica].health;
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

    /// A failure-free table of `n` replicas on one shard, all free at
    /// t = 0.
    fn table(n: usize) -> ReplicaTable {
        let cfg = ShardConfig {
            replicas_per_shard: n,
            ..ShardConfig::default()
        };
        ReplicaTable::new(&cfg, 0, 1_000_000)
    }

    #[test]
    fn pool_ties_break_to_lowest_id_like_the_scan() {
        let mut p = table(4);
        // All free at 0: the scan picks replica 0, and so must the heap.
        assert_eq!(p.peek_min(), Some((0, 0)));
        assert_eq!(p.peek_min(), p.scan_min());
        // Tie at a later instant between replicas 2 and 1 (pushed in
        // that order): lowest id still wins.
        p.set_free(0, 100);
        p.set_free(3, 90);
        p.set_free(2, 50);
        p.set_free(1, 50);
        assert_eq!(p.peek_min(), Some((50, 1)));
        assert_eq!(p.peek_min(), p.scan_min());
        // Breaking the tie flips to the remaining minimum.
        p.set_free(1, 51);
        assert_eq!(p.peek_min(), Some((50, 2)));
        assert_eq!(p.peek_min(), p.scan_min());
    }

    #[test]
    fn pool_matches_scan_under_random_updates() {
        // Deterministic LCG-driven fuzz: after every update the heap and
        // the scan must agree exactly (value and id).
        let mut p = table(5);
        let mut x = 0x2545F491u64;
        for step in 0..2000 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let r = (x >> 33) as usize % p.len();
            if !p.replicas[r].retired {
                p.set_free(r, (x >> 7) % 10_000);
            }
            if step % 97 == 0 && p.active() > 1 {
                p.retire(r);
            }
            if step % 193 == 0 {
                p.add((x >> 11) % 10_000);
            }
            assert_eq!(p.peek_min(), p.scan_min(), "step {step}");
        }
    }

    #[test]
    fn retired_replicas_never_win() {
        let mut p = table(3);
        p.set_free(0, 10);
        p.set_free(1, 20);
        p.set_free(2, 30);
        p.retire(0);
        assert_eq!(p.peek_min(), Some((20, 1)));
        assert_eq!(p.active(), 2);
        assert_eq!(p.last_active(), Some(2));
        p.retire(2);
        assert_eq!(p.last_active(), Some(1));
        p.retire(1);
        assert_eq!(p.peek_min(), None);
        assert_eq!(p.scan_min(), None);
        assert_eq!(p.last_active(), None);
    }

    #[test]
    fn added_replicas_join_dispatch() {
        let mut p = table(1);
        p.set_free(0, 1000);
        let r = p.add(500);
        assert_eq!(r, 1);
        assert_eq!(p.peek_min(), Some((500, 1)));
        // A new replica tying an old one loses to the lower id.
        let r2 = p.add(500);
        assert_eq!(r2, 2);
        assert_eq!(p.peek_min(), Some((500, 1)));
        assert_eq!(p.peek_min(), p.scan_min());
    }
}

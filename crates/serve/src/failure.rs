//! Seeded instance-failure and recovery schedules.
//!
//! Replica outages are generated *ahead of time* as a deterministic
//! [`FailurePlan`]: per replica, an alternating renewal process with
//! exponential time-to-failure (mean `mtbf_ns`) and exponential repair
//! (mean `mttr_ns`), drawn from a `SmallRng` stream derived from the spec
//! seed and the replica key — the same derivation discipline as
//! [`workload`](crate::workload) tenant streams. Because the plan is a
//! pure function of `(spec, replica keys, horizon)`, every scheduler
//! driver consults identical outage intervals, and failure handling stays
//! inside the deterministic scheduling recurrence: a replica that is down
//! at a dispatch instant simply advances its free time to the recovery
//! edge (failover — the turn passes to surviving replicas), and a batch
//! whose service window an outage cuts into is killed at the failure edge
//! with its requests retried or dropped (see [`sim`](crate::sim)).

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// Failure process parameters for the replica fleet.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct FailureSpec {
    /// Mean time between failures per replica \[ns\] (exponential).
    pub mtbf_ns: u64,
    /// Mean time to recovery per outage \[ns\] (exponential, ≥ 1 ns).
    pub mttr_ns: u64,
    /// Seed of the failure process (independent of the workload seed).
    pub seed: u64,
}

impl FailureSpec {
    pub(crate) fn validate(&self) {
        assert!(self.mtbf_ns > 0, "zero MTBF");
        assert!(self.mttr_ns > 0, "zero MTTR");
    }
}

/// One outage interval: the replica is down on `[down_ns, up_ns)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Outage {
    /// Failure edge \[ns\].
    pub down_ns: u64,
    /// Recovery edge \[ns\] (exclusive; the replica serves again at `up_ns`).
    pub up_ns: u64,
}

/// Pre-generated outage schedule for every replica: per replica a sorted,
/// non-overlapping interval list.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct FailurePlan {
    outages: Vec<Vec<Outage>>,
}

/// Splitmix-style stream derivation, a different tweak constant than the
/// workload's tenant streams so failure and arrival randomness never
/// alias even under equal seeds.
fn replica_seed(master: u64, replica: u64) -> u64 {
    master
        .wrapping_add((replica + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .rotate_left(29)
        ^ 0xA076_1D64_78BD_642F_u64.rotate_left(3)
}

impl FailurePlan {
    /// A plan with no outages at all (failure modeling disabled).
    pub fn none(replicas: usize) -> Self {
        FailurePlan {
            outages: vec![Vec::new(); replicas],
        }
    }

    /// Generate the outage schedule for `replicas` instances with failure
    /// edges inside `[0, horizon_ns)` (recoveries may extend past the
    /// horizon, draining work started before it).
    pub fn generate(spec: &FailureSpec, replicas: usize, horizon_ns: u64) -> Self {
        let mut plan = FailurePlan::none(0);
        for r in 0..replicas {
            plan.push(Some(spec), r as u64, horizon_ns, 0);
        }
        plan
    }

    /// Append one more replica's schedule: the outages of the replica
    /// keyed `key` (replica `r` of [`generate`](Self::generate) has key
    /// `r`) whose failure edge is at or after `from_ns`, the instant the
    /// replica comes into service. `None` appends a replica that never
    /// fails.
    pub(crate) fn push(
        &mut self,
        spec: Option<&FailureSpec>,
        key: u64,
        horizon_ns: u64,
        from_ns: u64,
    ) {
        let Some(spec) = spec else {
            self.outages.push(Vec::new());
            return;
        };
        spec.validate();
        let mut rng = SmallRng::seed_from_u64(replica_seed(spec.seed, key));
        let mut list = Vec::new();
        let mut t = 0.0f64;
        loop {
            let u: f64 = rng.gen();
            t += -(1.0 - u).ln() * spec.mtbf_ns as f64;
            if t >= horizon_ns as f64 {
                break;
            }
            let down = t as u64;
            let v: f64 = rng.gen();
            let repair = (-(1.0 - v).ln() * spec.mttr_ns as f64) as u64;
            let up = down + repair.max(1);
            if down >= from_ns {
                list.push(Outage {
                    down_ns: down,
                    up_ns: up,
                });
            }
            t = up as f64;
        }
        self.outages.push(list);
    }

    /// True when no replica ever fails.
    pub fn is_empty(&self) -> bool {
        self.outages.iter().all(Vec::is_empty)
    }

    /// The outage intervals of one replica.
    pub fn outages(&self, replica: usize) -> &[Outage] {
        &self.outages[replica]
    }

    /// If `replica` is down at instant `t_ns`, the recovery edge it must
    /// wait for; `None` when the replica is up.
    pub fn down_until(&self, replica: usize, t_ns: u64) -> Option<u64> {
        let list = &self.outages[replica];
        // First outage with down_ns > t; its predecessor may cover t.
        let i = list.partition_point(|o| o.down_ns <= t_ns);
        if i == 0 {
            return None;
        }
        let o = list[i - 1];
        (t_ns < o.up_ns).then_some(o.up_ns)
    }

    /// The first outage whose failure edge lies strictly inside
    /// `(from_ns, to_ns)` — the outage that would kill a batch serving on
    /// that window. A failure edge exactly at `from_ns` is the caller's
    /// dispatch-time [`down_until`](Self::down_until) case, not a kill.
    pub fn outage_in(&self, replica: usize, from_ns: u64, to_ns: u64) -> Option<Outage> {
        let list = &self.outages[replica];
        let i = list.partition_point(|o| o.down_ns <= from_ns);
        list.get(i).copied().filter(|o| o.down_ns < to_ns)
    }

    /// Total downtime of one replica clipped to `[0, until_ns)`.
    pub fn downtime_ns(&self, replica: usize, until_ns: u64) -> u64 {
        self.outages[replica]
            .iter()
            .map(|o| {
                o.up_ns
                    .min(until_ns)
                    .saturating_sub(o.down_ns.min(until_ns))
            })
            .sum()
    }

    /// Downtime of one replica overlapping `[from_ns, to_ns)` — the
    /// per-window downtime column of the serving telemetry.
    pub fn downtime_in(&self, replica: usize, from_ns: u64, to_ns: u64) -> u64 {
        self.outages[replica]
            .iter()
            .map(|o| {
                o.up_ns
                    .min(to_ns)
                    .saturating_sub(o.down_ns.max(from_ns).min(to_ns))
            })
            .sum()
    }

    /// Total outages across the fleet.
    pub fn total_outages(&self) -> u64 {
        self.outages.iter().map(|l| l.len() as u64).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(seed: u64) -> FailureSpec {
        FailureSpec {
            mtbf_ns: 10_000_000,
            mttr_ns: 2_000_000,
            seed,
        }
    }

    #[test]
    fn generation_is_deterministic_and_seed_sensitive() {
        let a = FailurePlan::generate(&spec(7), 3, 100_000_000);
        let b = FailurePlan::generate(&spec(7), 3, 100_000_000);
        let c = FailurePlan::generate(&spec(8), 3, 100_000_000);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert!(a.total_outages() > 0);
    }

    #[test]
    fn outages_are_sorted_and_disjoint() {
        let plan = FailurePlan::generate(&spec(3), 4, 500_000_000);
        for r in 0..4 {
            let list = plan.outages(r);
            for o in list {
                assert!(o.down_ns < o.up_ns);
            }
            for w in list.windows(2) {
                assert!(w[0].up_ns <= w[1].down_ns);
            }
        }
    }

    #[test]
    fn replicas_fail_independently() {
        let plan = FailurePlan::generate(&spec(1), 2, 1_000_000_000);
        assert_ne!(plan.outages(0), plan.outages(1));
    }

    #[test]
    fn down_until_brackets_outages() {
        let plan = FailurePlan {
            outages: vec![vec![
                Outage {
                    down_ns: 100,
                    up_ns: 200,
                },
                Outage {
                    down_ns: 500,
                    up_ns: 650,
                },
            ]],
        };
        assert_eq!(plan.down_until(0, 0), None);
        assert_eq!(plan.down_until(0, 99), None);
        assert_eq!(plan.down_until(0, 100), Some(200));
        assert_eq!(plan.down_until(0, 199), Some(200));
        assert_eq!(plan.down_until(0, 200), None);
        assert_eq!(plan.down_until(0, 500), Some(650));
        assert_eq!(plan.down_until(0, 1_000), None);
    }

    #[test]
    fn outage_in_finds_kills_exclusively() {
        let plan = FailurePlan {
            outages: vec![vec![Outage {
                down_ns: 300,
                up_ns: 400,
            }]],
        };
        // Failure edge strictly inside the service window kills.
        assert_eq!(
            plan.outage_in(0, 250, 350),
            Some(Outage {
                down_ns: 300,
                up_ns: 400
            })
        );
        // Edge at the window start is the dispatch-time case, not a kill.
        assert_eq!(plan.outage_in(0, 300, 350), None);
        // Window ends exactly at the edge: batch completes first.
        assert_eq!(plan.outage_in(0, 200, 300), None);
        assert_eq!(plan.outage_in(0, 400, 500), None);
    }

    #[test]
    fn downtime_clips_to_the_window() {
        let plan = FailurePlan {
            outages: vec![vec![Outage {
                down_ns: 100,
                up_ns: 300,
            }]],
        };
        assert_eq!(plan.downtime_ns(0, 1_000), 200);
        assert_eq!(plan.downtime_ns(0, 200), 100);
        assert_eq!(plan.downtime_ns(0, 50), 0);
    }

    #[test]
    fn interval_downtime_overlaps_exactly() {
        let plan = FailurePlan {
            outages: vec![vec![
                Outage {
                    down_ns: 100,
                    up_ns: 300,
                },
                Outage {
                    down_ns: 500,
                    up_ns: 600,
                },
            ]],
        };
        assert_eq!(plan.downtime_in(0, 0, 1_000), 300);
        assert_eq!(plan.downtime_in(0, 0, 100), 0);
        assert_eq!(plan.downtime_in(0, 150, 250), 100);
        assert_eq!(plan.downtime_in(0, 200, 550), 150);
        assert_eq!(plan.downtime_in(0, 600, 1_000), 0);
        // Window sliced into halves conserves total downtime.
        assert_eq!(
            plan.downtime_in(0, 0, 500) + plan.downtime_in(0, 500, 1_000),
            plan.downtime_in(0, 0, 1_000)
        );
    }

    #[test]
    fn mean_downtime_tracks_mttr_over_mtbf() {
        let s = spec(11);
        let horizon = 4_000_000_000u64;
        let plan = FailurePlan::generate(&s, 8, horizon);
        let down: u64 = (0..8).map(|r| plan.downtime_ns(r, horizon)).sum();
        let frac = down as f64 / (8.0 * horizon as f64);
        let expect = s.mttr_ns as f64 / (s.mtbf_ns + s.mttr_ns) as f64;
        assert!(
            (frac - expect).abs() < 0.5 * expect,
            "downtime fraction {frac} vs {expect}"
        );
    }

    #[test]
    fn empty_plan_never_fails() {
        let plan = FailurePlan::none(3);
        assert!(plan.is_empty());
        assert_eq!(plan.down_until(1, 12345), None);
        assert_eq!(plan.outage_in(2, 0, u64::MAX), None);
        assert_eq!(plan.downtime_ns(0, u64::MAX), 0);
    }
}

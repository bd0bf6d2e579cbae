//! Seeded instance-failure and recovery schedules.
//!
//! Replica outages are generated *ahead of time*, one sorted,
//! non-overlapping [`Outage`] list per replica: an alternating renewal
//! process with exponential time-to-failure (mean `mtbf_ns`) and
//! exponential repair (mean `mttr_ns`), drawn from a `SmallRng` stream
//! derived from the spec seed and the replica key — the same derivation
//! discipline as [`workload`](crate::workload) tenant streams. Because a
//! list is a pure function of `(spec, replica key, horizon, join
//! instant)`, every scheduler driver consults identical outage
//! intervals, and failure handling stays inside the deterministic
//! scheduling recurrence: a replica that is down at a dispatch instant
//! simply advances its free time to the recovery edge (failover — the
//! turn passes to surviving replicas), and a batch whose service window
//! an outage cuts into is killed at the failure edge with its requests
//! retried or dropped (see `replica`). The interval queries below are
//! functions over one replica's list.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Failure process parameters for the replica fleet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
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
        assert!(self.mtbf_ns > 0, "failures.mtbf_ns must be > 0, got 0");
        assert!(self.mttr_ns > 0, "failures.mttr_ns must be > 0, got 0");
    }
}

/// One outage interval: the replica is down on `[down_ns, up_ns)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Outage {
    /// Failure edge \[ns\].
    pub(crate) down_ns: u64,
    /// Recovery edge \[ns\] (exclusive; the replica serves again at `up_ns`).
    pub(crate) up_ns: u64,
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

/// The outages of the replica keyed `key` whose failure edge lies in
/// `[from_ns, horizon_ns)`, `from_ns` being the instant the replica
/// comes into service (recoveries may extend past the horizon, draining
/// work started before it).
pub(crate) fn outages(spec: &FailureSpec, key: u64, horizon_ns: u64, from_ns: u64) -> Vec<Outage> {
    let mut rng = SmallRng::seed_from_u64(replica_seed(spec.seed, key));
    let mut list = Vec::new();
    let mut t = 0.0f64;
    loop {
        let u: f64 = rng.gen();
        t += -(1.0 - u).ln() * spec.mtbf_ns as f64;
        if t >= horizon_ns as f64 {
            return list;
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
}

/// If the replica with outage list `list` is down at instant `t_ns`, the
/// recovery edge it must wait for; `None` when the replica is up.
pub(crate) fn down_until(list: &[Outage], t_ns: u64) -> Option<u64> {
    // First outage with down_ns > t; its predecessor may cover t.
    let i = list.partition_point(|o| o.down_ns <= t_ns);
    let o = list[..i].last()?;
    (t_ns < o.up_ns).then_some(o.up_ns)
}

/// The first outage whose failure edge lies strictly inside
/// `(from_ns, to_ns)` — the outage that would kill a batch serving on
/// that window. A failure edge exactly at `from_ns` is the caller's
/// dispatch-time [`down_until`] case, not a kill.
pub(crate) fn outage_in(list: &[Outage], from_ns: u64, to_ns: u64) -> Option<Outage> {
    let i = list.partition_point(|o| o.down_ns <= from_ns);
    list.get(i).copied().filter(|o| o.down_ns < to_ns)
}

/// Downtime overlapping `[from_ns, to_ns)` — the per-window downtime
/// column of the serving telemetry, and from 0 the run's downtime.
pub(crate) fn downtime_in(list: &[Outage], from_ns: u64, to_ns: u64) -> u64 {
    list.iter()
        .map(|o| {
            o.up_ns
                .min(to_ns)
                .saturating_sub(o.down_ns.max(from_ns).min(to_ns))
        })
        .sum()
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

    /// The outage lists of `replicas` replicas keyed `0..replicas`, all in
    /// service from 0.
    fn fleet(spec: &FailureSpec, replicas: u64, horizon_ns: u64) -> Vec<Vec<Outage>> {
        (0..replicas)
            .map(|key| outages(spec, key, horizon_ns, 0))
            .collect()
    }

    #[test]
    fn generation_is_deterministic_and_seed_sensitive() {
        let a = fleet(&spec(7), 3, 100_000_000);
        let b = fleet(&spec(7), 3, 100_000_000);
        let c = fleet(&spec(8), 3, 100_000_000);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert!(a.iter().any(|list| !list.is_empty()));
    }

    #[test]
    fn outages_are_sorted_and_disjoint() {
        for list in fleet(&spec(3), 4, 500_000_000) {
            for o in &list {
                assert!(o.down_ns < o.up_ns);
            }
            for w in list.windows(2) {
                assert!(w[0].up_ns <= w[1].down_ns);
            }
        }
    }

    #[test]
    fn replicas_fail_independently() {
        let lists = fleet(&spec(1), 2, 1_000_000_000);
        assert_ne!(lists[0], lists[1]);
    }

    #[test]
    fn late_joiners_keep_the_tail_of_their_stream() {
        // A replica that joins at `from` draws the same stream and keeps
        // the outages that fail at or after `from`.
        let full = outages(&spec(5), 3, 500_000_000, 0);
        let from = full[full.len() / 2].down_ns;
        let tail: Vec<Outage> = full.iter().copied().filter(|o| o.down_ns >= from).collect();
        assert_eq!(outages(&spec(5), 3, 500_000_000, from), tail);
        assert!(tail.len() < full.len());
    }

    #[test]
    fn down_until_brackets_outages() {
        let list = [
            Outage {
                down_ns: 100,
                up_ns: 200,
            },
            Outage {
                down_ns: 500,
                up_ns: 650,
            },
        ];
        assert_eq!(down_until(&list, 0), None);
        assert_eq!(down_until(&list, 99), None);
        assert_eq!(down_until(&list, 100), Some(200));
        assert_eq!(down_until(&list, 199), Some(200));
        assert_eq!(down_until(&list, 200), None);
        assert_eq!(down_until(&list, 500), Some(650));
        assert_eq!(down_until(&list, 1_000), None);
    }

    #[test]
    fn outage_in_finds_kills_exclusively() {
        let list = [Outage {
            down_ns: 300,
            up_ns: 400,
        }];
        // Failure edge strictly inside the service window kills.
        assert_eq!(outage_in(&list, 250, 350), Some(list[0]));
        // Edge at the window start is the dispatch-time case, not a kill.
        assert_eq!(outage_in(&list, 300, 350), None);
        // Window ends exactly at the edge: batch completes first.
        assert_eq!(outage_in(&list, 200, 300), None);
        assert_eq!(outage_in(&list, 400, 500), None);
    }

    #[test]
    fn downtime_clips_to_the_window() {
        let list = [Outage {
            down_ns: 100,
            up_ns: 300,
        }];
        assert_eq!(downtime_in(&list, 0, 1_000), 200);
        assert_eq!(downtime_in(&list, 0, 200), 100);
        assert_eq!(downtime_in(&list, 0, 50), 0);
    }

    #[test]
    fn interval_downtime_overlaps_exactly() {
        let list = [
            Outage {
                down_ns: 100,
                up_ns: 300,
            },
            Outage {
                down_ns: 500,
                up_ns: 600,
            },
        ];
        assert_eq!(downtime_in(&list, 0, 1_000), 300);
        assert_eq!(downtime_in(&list, 0, 100), 0);
        assert_eq!(downtime_in(&list, 150, 250), 100);
        assert_eq!(downtime_in(&list, 200, 550), 150);
        assert_eq!(downtime_in(&list, 600, 1_000), 0);
        // Window sliced into halves conserves total downtime.
        assert_eq!(
            downtime_in(&list, 0, 500) + downtime_in(&list, 500, 1_000),
            downtime_in(&list, 0, 1_000)
        );
    }

    #[test]
    fn mean_downtime_tracks_mttr_over_mtbf() {
        let s = spec(11);
        let horizon = 4_000_000_000u64;
        let down: u64 = fleet(&s, 8, horizon)
            .iter()
            .map(|list| downtime_in(list, 0, horizon))
            .sum();
        let frac = down as f64 / (8.0 * horizon as f64);
        let expect = s.mttr_ns as f64 / (s.mtbf_ns + s.mttr_ns) as f64;
        assert!(
            (frac - expect).abs() < 0.5 * expect,
            "downtime fraction {frac} vs {expect}"
        );
    }

    #[test]
    fn empty_plan_never_fails() {
        assert_eq!(down_until(&[], 12345), None);
        assert_eq!(outage_in(&[], 0, u64::MAX), None);
        assert_eq!(downtime_in(&[], 0, u64::MAX), 0);
    }
}

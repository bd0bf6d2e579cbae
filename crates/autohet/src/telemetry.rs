//! Bridges from search trajectories to the `autohet-obs` substrate:
//! per-episode histories as a [`Series`] table or a reward-stall
//! [`AlertTimeline`], and search outcomes mirrored into a metrics
//! [`Registry`].
//!
//! Every search driver ([`rl_search`](crate::search::rl::rl_search),
//! [`dqn_search`](crate::search::dqn::dqn_search),
//! [`annealing_search`](crate::search::annealing::annealing_search))
//! emits the same [`EpisodeRecord`] rows, so one exporter covers all of
//! them: a DDPG trace and an annealing trace land in the same CSV schema
//! and can be overlaid directly.

use crate::robust::{RobustPoint, RobustSearchOutcome};
use crate::search::rl::{EpisodeRecord, SearchTiming, VecSearchStats};
use autohet_obs::alert::{AlertEngine, AlertRule, AlertTimeline, ThresholdRule};
use autohet_obs::{Metric, Registry, Series};

/// Column schema of [`episode_series`] (name, unit), kept in one place so
/// docs and exporters cannot drift apart.
pub const EPISODE_COLUMNS: [(&str, &str); 6] = [
    ("episode", ""),
    ("rue", ""),
    ("reward", ""),
    ("utilization", ""),
    ("energy", "nJ"),
    ("cache_hit_rate", ""),
];

/// A search history as a time-series table (one row per episode, columns
/// per [`EPISODE_COLUMNS`]). `name` labels the series in exports, e.g.
/// `"ddpg_episodes"`.
pub fn episode_series(name: &str, history: &[EpisodeRecord]) -> Series {
    let mut s = Series::new(name, &EPISODE_COLUMNS);
    for e in history {
        s.push(vec![
            e.episode as f64,
            e.rue,
            e.reward,
            e.utilization,
            e.energy_nj,
            e.cache_hit_rate,
        ]);
    }
    s
}

/// Mirror a search's trajectory and timing into `registry` under
/// `prefix`: an episode counter, gauges for the best/final RUE seen
/// (scaled ×1e6 — gauges are integers, RUE values are small), the
/// cache counters from the search's [`SearchTiming`] delta, and the
/// DDPG updates that ran (`train.steps`, 0 for searchers without a DDPG
/// agent).
pub fn publish_episode_history(
    history: &[EpisodeRecord],
    timing: &SearchTiming,
    registry: &mut Registry,
    prefix: &str,
) {
    let mut set = |name: &str, value| registry.set(&format!("{prefix}.{name}"), value);
    set("episodes", Metric::Counter(history.len() as u64));
    let best = history.iter().map(|e| e.rue).fold(f64::NAN, f64::max);
    if best.is_finite() {
        set("best_rue_x1e6", Metric::Gauge((best * 1e6) as i64));
    }
    if let Some(last) = history.last() {
        set("last_rue_x1e6", Metric::Gauge((last.rue * 1e6) as i64));
    }
    let mut c = |name: &str, v: u64| set(name, Metric::Counter(v));
    c("cache.strategy_hits", timing.cache.strategy_hits);
    c("cache.strategy_misses", timing.cache.strategy_misses);
    c("cache.layer_hits", timing.cache.layer_hits);
    c("cache.layer_misses", timing.cache.layer_misses);
    c("train.steps", timing.train.steps);
}

/// Name of the rule [`stall_timeline`] installs.
pub const REWARD_STALL_RULE: &str = "search.reward_stall";

/// Reward-stall timeline of a finished search, on the shared alert
/// engine: counts the episodes since the best reward last rose by more
/// than `min_delta` (absolute) and feeds that count through a threshold
/// rule that fires once it reaches `patience`, so a stalled search shows
/// the same pending → firing → resolved timeline as serving alerts.
/// Timestamps are episode indices, not nanoseconds. Like
/// [`alert_timeline`](autohet_serve::alert_timeline), it is a pass over a
/// finished result and never changes the search.
pub fn stall_timeline(history: &[EpisodeRecord], patience: u64, min_delta: f64) -> AlertTimeline {
    let mut engine = AlertEngine::new().with_rule(AlertRule::Threshold(
        ThresholdRule::above(
            REWARD_STALL_RULE,
            "episodes_since_improvement",
            patience as f64 - 0.5,
        )
        .clear_samples(1),
    ));
    let mut best_reward = f64::NEG_INFINITY;
    let mut since_improvement = 0u64;
    for e in history {
        if e.reward > best_reward + min_delta {
            best_reward = e.reward;
            since_improvement = 0;
        } else {
            since_improvement += 1;
        }
        engine.observe(
            e.episode as u64,
            &[("episodes_since_improvement", since_improvement as f64)],
        );
    }
    engine.finish()
}

/// Column schema of [`vec_occupancy_series`] (name, unit).
pub const VEC_GROUP_COLUMNS: [(&str, &str); 2] = [("group", ""), ("occupancy", "")];

/// Per-group lane occupancy of a vectorized search as a window series
/// (one row per lockstep group). Only the trailing group of a search can
/// run below full occupancy, so a healthy trace is a flat line at 1.0
/// with at most one lower final point.
pub fn vec_occupancy_series(name: &str, stats: &VecSearchStats) -> Series {
    let mut s = Series::new(name, &VEC_GROUP_COLUMNS);
    for (g, &occ) in stats.group_occupancy.iter().enumerate() {
        s.push(vec![g as f64, occ]);
    }
    s
}

/// Mirror a vectorized search's throughput counters into `registry`
/// under `prefix`: episode/group counters, a lane gauge, and ×1000-scaled
/// gauges for episodes/sec and mean occupancy (gauges are integers).
/// Purely observational — publishing never feeds back into the search,
/// preserving the bit-identity-when-enabled contract.
pub fn publish_vec_search(stats: &VecSearchStats, registry: &mut Registry, prefix: &str) {
    let mut set = |name: &str, value| registry.set(&format!("{prefix}.{name}"), value);
    set("episodes", Metric::Counter(stats.episodes as u64));
    set("groups", Metric::Counter(stats.groups as u64));
    set("lanes", Metric::Gauge(stats.lanes as i64));
    set(
        "episodes_per_sec_x1000",
        Metric::Gauge((stats.episodes_per_sec * 1e3) as i64),
    );
    set(
        "occupancy_x1000",
        Metric::Gauge((stats.mean_occupancy * 1e3) as i64),
    );
}

/// Column schema of [`front_series`] (name, unit).
pub const FRONT_COLUMNS: [(&str, &str); 6] = [
    ("point", ""),
    ("energy", "nJ"),
    ("latency", "ns"),
    ("noise_dev", ""),
    ("accuracy_proxy", ""),
    ("rue", ""),
];

/// A 3-objective Pareto front as a table (one row per front member,
/// columns per [`FRONT_COLUMNS`]), e.g. `name = "nsga_front"`.
pub fn front_series(name: &str, front: &[RobustPoint]) -> Series {
    let mut s = Series::new(name, &FRONT_COLUMNS);
    for (i, p) in front.iter().enumerate() {
        s.push(vec![
            i as f64,
            p.energy_nj,
            p.latency_ns,
            p.noise_dev,
            p.accuracy_proxy,
            p.rue,
        ]);
    }
    s
}

/// Mirror an NSGA-II search outcome into `registry` under `prefix`:
/// evaluation/generation counters, a front-size gauge, and ×1e6-scaled
/// gauges for the front's best noise deviation and best RUE (gauges are
/// integers). Purely observational.
pub fn publish_robust_search(outcome: &RobustSearchOutcome, registry: &mut Registry, prefix: &str) {
    let mut set = |name: &str, value| registry.set(&format!("{prefix}.{name}"), value);
    set("evaluations", Metric::Counter(outcome.evaluations));
    set("generations", Metric::Counter(outcome.history.len() as u64));
    set("front_size", Metric::Gauge(outcome.front.len() as i64));
    if let Some(robust) = outcome.most_robust() {
        set(
            "best_noise_dev_x1e6",
            Metric::Gauge((robust.noise_dev * 1e6) as i64),
        );
    }
    if let Some(best) = outcome.best_rue() {
        set("best_rue_x1e6", Metric::Gauge((best.rue * 1e6) as i64));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn history() -> Vec<EpisodeRecord> {
        (0..4)
            .map(|i| EpisodeRecord {
                episode: i,
                rue: 0.1 * (i + 1) as f64,
                reward: i as f64,
                utilization: 0.5,
                energy_nj: 1000.0,
                cache_hit_rate: 0.25 * i as f64,
            })
            .collect()
    }

    #[test]
    fn series_has_one_row_per_episode() {
        let s = episode_series("ddpg_episodes", &history());
        assert_eq!(s.len(), 4);
        assert_eq!(s.columns.len(), EPISODE_COLUMNS.len());
        let csv = s.to_csv();
        assert!(csv.starts_with("episode,rue,reward,utilization,energy[nJ],cache_hit_rate"));
        assert_eq!(csv.lines().count(), 5);
        assert_eq!(s.to_jsonl().lines().count(), 4);
    }

    #[test]
    fn publish_mirrors_counts_and_best() {
        let mut reg = Registry::new();
        let mut timing = SearchTiming::default();
        timing.cache.strategy_hits = 3;
        timing.cache.layer_misses = 7;
        timing.train.steps = 24;
        publish_episode_history(&history(), &timing, &mut reg, "search.ddpg");
        let get = |name: &str| reg.get(&format!("search.ddpg.{name}")).cloned();
        assert_eq!(get("episodes"), Some(Metric::Counter(4)));
        // Best RUE is 0.4 → 400_000 in the ×1e6 gauge.
        assert_eq!(get("best_rue_x1e6"), Some(Metric::Gauge(400_000)));
        assert_eq!(get("last_rue_x1e6"), Some(Metric::Gauge(400_000)));
        assert_eq!(get("cache.strategy_hits"), Some(Metric::Counter(3)));
        assert_eq!(get("cache.layer_misses"), Some(Metric::Counter(7)));
        assert_eq!(get("train.steps"), Some(Metric::Counter(24)));
    }

    fn vec_stats() -> VecSearchStats {
        VecSearchStats {
            lanes: 4,
            groups: 3,
            episodes: 9,
            episodes_per_sec: 123.456,
            group_occupancy: vec![1.0, 1.0, 0.25],
            mean_occupancy: 0.75,
        }
    }

    #[test]
    fn occupancy_series_has_one_row_per_group() {
        let s = vec_occupancy_series("vec_groups", &vec_stats());
        assert_eq!(s.len(), 3);
        assert_eq!(s.columns.len(), VEC_GROUP_COLUMNS.len());
        let csv = s.to_csv();
        assert!(csv.starts_with("group,occupancy"));
        assert_eq!(csv.lines().count(), 4);
    }

    #[test]
    fn publish_vec_search_mirrors_throughput() {
        let mut reg = Registry::new();
        publish_vec_search(&vec_stats(), &mut reg, "search.vec");
        let get = |name: &str| reg.get(&format!("search.vec.{name}")).cloned();
        assert_eq!(get("episodes"), Some(Metric::Counter(9)));
        assert_eq!(get("groups"), Some(Metric::Counter(3)));
        assert_eq!(get("lanes"), Some(Metric::Gauge(4)));
        assert_eq!(get("episodes_per_sec_x1000"), Some(Metric::Gauge(123_456)));
        assert_eq!(get("occupancy_x1000"), Some(Metric::Gauge(750)));
    }

    #[test]
    fn history_and_vec_stats_under_one_prefix_count_episodes_once() {
        // A vectorized search publishes both its history and its stats
        // under one prefix; the episode counter holds the run's count.
        let mut reg = Registry::new();
        let timing = SearchTiming::default();
        publish_episode_history(&history(), &timing, &mut reg, "search.vec");
        let stats = VecSearchStats {
            episodes: 4,
            ..vec_stats()
        };
        publish_vec_search(&stats, &mut reg, "search.vec");
        assert_eq!(reg.get("search.vec.episodes"), Some(&Metric::Counter(4)));
    }

    fn front() -> Vec<RobustPoint> {
        use autohet_xbar::XbarShape;
        (0..3)
            .map(|i| RobustPoint {
                strategy: vec![XbarShape::square(32 << i); 2],
                energy_nj: 1000.0 + 100.0 * i as f64,
                latency_ns: 500.0 - 50.0 * i as f64,
                noise_dev: 0.05 / (i + 1) as f64,
                accuracy_proxy: 0.9,
                rue: 0.02 * (i + 1) as f64,
            })
            .collect()
    }

    #[test]
    fn front_series_has_one_row_per_point() {
        let s = front_series("nsga_front", &front());
        assert_eq!(s.len(), 3);
        assert_eq!(s.columns.len(), FRONT_COLUMNS.len());
        let csv = s.to_csv();
        assert!(csv.starts_with("point,energy[nJ],latency[ns],noise_dev,accuracy_proxy,rue"));
        assert_eq!(csv.lines().count(), 4);
    }

    #[test]
    fn publish_robust_search_mirrors_front() {
        let outcome = RobustSearchOutcome {
            front: front(),
            history: vec![
                crate::robust::GenerationStat {
                    generation: 0,
                    front_size: 3,
                    best_energy_nj: 1000.0,
                    best_latency_ns: 400.0,
                    best_noise_dev: 0.05 / 3.0,
                };
                5
            ],
            evaluations: 40,
        };
        let mut reg = Registry::new();
        publish_robust_search(&outcome, &mut reg, "search.nsga");
        let get = |name: &str| reg.get(&format!("search.nsga.{name}")).cloned();
        assert_eq!(get("evaluations"), Some(Metric::Counter(40)));
        assert_eq!(get("generations"), Some(Metric::Counter(5)));
        assert_eq!(get("front_size"), Some(Metric::Gauge(3)));
        // Most robust point: noise_dev 0.05/3 → 16_666 in the ×1e6 gauge.
        assert_eq!(get("best_noise_dev_x1e6"), Some(Metric::Gauge(16_666)));
        assert_eq!(get("best_rue_x1e6"), Some(Metric::Gauge(60_000)));
    }

    #[test]
    fn empty_history_publishes_no_gauges() {
        let mut reg = Registry::new();
        publish_episode_history(&[], &SearchTiming::default(), &mut reg, "x");
        assert_eq!(reg.get("x.episodes"), Some(&Metric::Counter(0)));
        let text = reg.to_text();
        assert!(!text.contains("best_rue"));
    }

    /// A history whose episodes earn `rewards`, in order.
    fn rewarded(rewards: &[f64]) -> Vec<EpisodeRecord> {
        rewards
            .iter()
            .enumerate()
            .map(|(episode, &reward)| EpisodeRecord {
                episode,
                reward,
                ..history()[0]
            })
            .collect()
    }

    #[test]
    fn stall_detector_fires_after_patience_and_resolves_on_improvement() {
        let h = rewarded(&[1.0, 2.0, 2.0, 2.0, 2.0, 3.0]);
        // Improving rewards, then two flat ones: no stall yet.
        assert!(stall_timeline(&h[..4], 3, 1e-9).events.is_empty());
        // The 3rd non-improving episode fires; a breakthrough resolves it.
        let t = stall_timeline(&h, 3, 1e-9);
        let stall = t.for_rule(REWARD_STALL_RULE);
        let kinds: Vec<&str> = stall.iter().map(|e| e.kind.label()).collect();
        assert_eq!(kinds, ["firing", "resolved"]);
        assert_eq!(stall[0].t_ns, 4, "fired at episode 4");
        assert_eq!(stall[1].t_ns, 5);
    }

    #[test]
    fn stall_detector_is_deterministic() {
        let h = rewarded(&[1.0, 1.0, 1.0, 5.0, 5.0, 5.0, 5.0]);
        assert_eq!(stall_timeline(&h, 2, 0.0), stall_timeline(&h, 2, 0.0));
    }
}

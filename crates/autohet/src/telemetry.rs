//! Bridges from search trajectories to the `autohet-obs` substrate:
//! per-episode histories as a [`Series`] table and search outcomes
//! mirrored into a metrics [`Registry`].
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
use autohet_obs::export::{SeriesStream, Sink};
use autohet_obs::{Registry, Series};

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
    registry: &Registry,
    prefix: &str,
) {
    registry
        .counter(&format!("{prefix}.episodes"))
        .add(history.len() as u64);
    let best = history.iter().map(|e| e.rue).fold(f64::NAN, f64::max);
    if best.is_finite() {
        registry
            .gauge(&format!("{prefix}.best_rue_x1e6"))
            .set((best * 1e6) as i64);
    }
    if let Some(last) = history.last() {
        registry
            .gauge(&format!("{prefix}.last_rue_x1e6"))
            .set((last.rue * 1e6) as i64);
    }
    let c = |name: &str, v: u64| registry.counter(&format!("{prefix}.{name}")).add(v);
    c("cache.strategy_hits", timing.cache.strategy_hits);
    c("cache.strategy_misses", timing.cache.strategy_misses);
    c("cache.layer_hits", timing.cache.layer_hits);
    c("cache.layer_misses", timing.cache.layer_misses);
    c("train.steps", timing.train.steps);
}

/// Streaming twin of [`episode_series`]: writes each [`EpisodeRecord`]
/// through a [`Sink`] as it is produced (schema per [`EPISODE_COLUMNS`]),
/// so long campaigns leave a usable JSONL trace even if killed mid-run.
/// Attachable to the vectorized DDPG driver via
/// [`SearchTap`](crate::search::rl::SearchTap); purely observational —
/// the search never reads anything back.
pub struct EpisodeStream {
    stream: SeriesStream,
}

impl EpisodeStream {
    pub fn new(name: &str, sink: Box<dyn Sink>) -> Self {
        let columns: Vec<&str> = EPISODE_COLUMNS.iter().map(|(c, _)| *c).collect();
        EpisodeStream {
            stream: SeriesStream::new(name, &columns, sink),
        }
    }

    /// Write one episode row.
    pub fn push(&mut self, e: &EpisodeRecord) {
        self.stream.push(&[
            e.episode as f64,
            e.rue,
            e.reward,
            e.utilization,
            e.energy_nj,
            e.cache_hit_rate,
        ]);
    }

    /// Rows written so far.
    pub fn rows_written(&self) -> u64 {
        self.stream.rows_written()
    }

    /// Flush the underlying sink.
    pub fn flush(&mut self) {
        self.stream.flush();
    }
}

/// Name of the rule a [`StallDetector`] installs.
pub const REWARD_STALL_RULE: &str = "search.reward_stall";

/// Reward-stall detector for search drivers, built on the shared alert
/// engine: tracks the best reward seen and feeds the count of episodes
/// since the last improvement through a threshold rule, so a stalled
/// search surfaces on the same pending → firing → resolved timeline as
/// serving alerts (timestamps are episode indices, not nanoseconds).
/// Observation only — detecting a stall never changes the search.
pub struct StallDetector {
    engine: AlertEngine,
    best_reward: f64,
    since_improvement: u64,
    /// Minimum relative reward improvement that resets the stall clock.
    min_delta: f64,
}

impl StallDetector {
    /// Fire after `patience` consecutive episodes without the best reward
    /// improving by at least `min_delta` (absolute).
    pub fn new(patience: u64, min_delta: f64) -> Self {
        StallDetector {
            engine: AlertEngine::new().with_rule(AlertRule::Threshold(
                ThresholdRule::above(
                    REWARD_STALL_RULE,
                    "episodes_since_improvement",
                    patience as f64 - 0.5,
                )
                .clear_samples(1),
            )),
            best_reward: f64::NEG_INFINITY,
            since_improvement: 0,
            min_delta,
        }
    }

    /// Observe one episode's reward (episode indices must be fed in
    /// order; they become the timeline's timestamps).
    pub fn observe(&mut self, episode: usize, reward: f64) {
        if reward > self.best_reward + self.min_delta {
            self.best_reward = reward;
            self.since_improvement = 0;
        } else {
            self.since_improvement += 1;
        }
        self.engine.observe(
            episode as u64,
            &[("episodes_since_improvement", self.since_improvement as f64)],
        );
    }

    /// Whether the stall rule is currently firing.
    pub fn is_stalled(&self) -> bool {
        self.engine.is_firing(REWARD_STALL_RULE)
    }

    /// Best reward observed so far (−∞ before any observation).
    pub fn best_reward(&self) -> f64 {
        self.best_reward
    }

    /// Consume the detector into its alert timeline (timestamps are
    /// episode indices).
    pub fn finish(self) -> AlertTimeline {
        self.engine.finish()
    }
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
pub fn publish_vec_search(stats: &VecSearchStats, registry: &Registry, prefix: &str) {
    registry
        .counter(&format!("{prefix}.episodes"))
        .add(stats.episodes as u64);
    registry
        .counter(&format!("{prefix}.groups"))
        .add(stats.groups as u64);
    registry
        .gauge(&format!("{prefix}.lanes"))
        .set(stats.lanes as i64);
    registry
        .gauge(&format!("{prefix}.episodes_per_sec_x1000"))
        .set((stats.episodes_per_sec * 1e3) as i64);
    registry
        .gauge(&format!("{prefix}.occupancy_x1000"))
        .set((stats.mean_occupancy * 1e3) as i64);
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
pub fn publish_robust_search(outcome: &RobustSearchOutcome, registry: &Registry, prefix: &str) {
    registry
        .counter(&format!("{prefix}.evaluations"))
        .add(outcome.evaluations);
    registry
        .counter(&format!("{prefix}.generations"))
        .add(outcome.history.len() as u64);
    registry
        .gauge(&format!("{prefix}.front_size"))
        .set(outcome.front.len() as i64);
    if let Some(robust) = outcome.most_robust() {
        registry
            .gauge(&format!("{prefix}.best_noise_dev_x1e6"))
            .set((robust.noise_dev * 1e6) as i64);
    }
    if let Some(best) = outcome.best_rue() {
        registry
            .gauge(&format!("{prefix}.best_rue_x1e6"))
            .set((best.rue * 1e6) as i64);
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
        let reg = Registry::new();
        let mut timing = SearchTiming::default();
        timing.cache.strategy_hits = 3;
        timing.cache.layer_misses = 7;
        timing.train.steps = 24;
        publish_episode_history(&history(), &timing, &reg, "search.ddpg");
        assert_eq!(reg.counter("search.ddpg.episodes").get(), 4);
        // Best RUE is 0.4 → 400_000 in the ×1e6 gauge.
        assert_eq!(reg.gauge("search.ddpg.best_rue_x1e6").get(), 400_000);
        assert_eq!(reg.gauge("search.ddpg.last_rue_x1e6").get(), 400_000);
        assert_eq!(reg.counter("search.ddpg.cache.strategy_hits").get(), 3);
        assert_eq!(reg.counter("search.ddpg.cache.layer_misses").get(), 7);
        assert_eq!(reg.counter("search.ddpg.train.steps").get(), 24);
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
        let reg = Registry::new();
        publish_vec_search(&vec_stats(), &reg, "search.vec");
        assert_eq!(reg.counter("search.vec.episodes").get(), 9);
        assert_eq!(reg.counter("search.vec.groups").get(), 3);
        assert_eq!(reg.gauge("search.vec.lanes").get(), 4);
        assert_eq!(
            reg.gauge("search.vec.episodes_per_sec_x1000").get(),
            123_456
        );
        assert_eq!(reg.gauge("search.vec.occupancy_x1000").get(), 750);
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
        let reg = Registry::new();
        publish_robust_search(&outcome, &reg, "search.nsga");
        assert_eq!(reg.counter("search.nsga.evaluations").get(), 40);
        assert_eq!(reg.counter("search.nsga.generations").get(), 5);
        assert_eq!(reg.gauge("search.nsga.front_size").get(), 3);
        // Most robust point: noise_dev 0.05/3 → 16_666 in the ×1e6 gauge.
        assert_eq!(reg.gauge("search.nsga.best_noise_dev_x1e6").get(), 16_666);
        assert_eq!(reg.gauge("search.nsga.best_rue_x1e6").get(), 60_000);
    }

    #[test]
    fn empty_history_publishes_no_gauges() {
        let reg = Registry::new();
        publish_episode_history(&[], &SearchTiming::default(), &reg, "x");
        assert_eq!(reg.counter("x.episodes").get(), 0);
        let text = reg.to_text();
        assert!(!text.contains("best_rue"));
    }

    #[test]
    fn episode_stream_mirrors_the_series_schema() {
        let sink = autohet_obs::MemorySink::new();
        let mut stream = EpisodeStream::new("ep", Box::new(sink.clone()));
        for e in history() {
            stream.push(&e);
        }
        stream.flush();
        assert_eq!(stream.rows_written(), 4);
        let lines = sink.lines();
        assert_eq!(lines.len(), 4);
        // Same rows the batch exporter would produce, keyed by column.
        assert!(lines[0].starts_with("{\"episode\":0,\"rue\":0.1,\"reward\":0,"));
        for (name, _) in EPISODE_COLUMNS {
            assert!(lines[0].contains(&format!("\"{name}\":")), "{name}");
        }
    }

    #[test]
    fn stall_detector_fires_after_patience_and_resolves_on_improvement() {
        let mut d = StallDetector::new(3, 1e-9);
        // Improving rewards: no stall.
        d.observe(0, 1.0);
        d.observe(1, 2.0);
        assert!(!d.is_stalled());
        // Flat rewards: stalls on the 3rd non-improving episode.
        d.observe(2, 2.0);
        d.observe(3, 2.0);
        assert!(!d.is_stalled());
        d.observe(4, 2.0);
        assert!(d.is_stalled());
        // A breakthrough resolves the stall.
        d.observe(5, 3.0);
        assert!(!d.is_stalled());
        assert_eq!(d.best_reward(), 3.0);
        let t = d.finish();
        let stall = t.for_rule(REWARD_STALL_RULE);
        let kinds: Vec<&str> = stall.iter().map(|e| e.kind.label()).collect();
        assert_eq!(kinds, ["firing", "resolved"]);
        assert_eq!(stall[0].t_ns, 4, "fired at episode 4");
        assert_eq!(stall[1].t_ns, 5);
    }

    #[test]
    fn stall_detector_is_deterministic() {
        let run = || {
            let mut d = StallDetector::new(2, 0.0);
            for (i, r) in [1.0, 1.0, 1.0, 5.0, 5.0, 5.0, 5.0].iter().enumerate() {
                d.observe(i, *r);
            }
            d.finish()
        };
        assert_eq!(run(), run());
    }
}

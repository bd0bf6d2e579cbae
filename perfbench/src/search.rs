//! `search_vgg16`: the paper's headline search (§4.5, Fig. 9).
//!
//! Each iteration is one 300-episode DDPG search over
//! `paper_hybrid_candidates()` with tile sharing on VGG16, through
//! `rl_search_vec_with_stats` at 8 lanes on a fresh `EvalEngine`.
//! Every iteration repeats the search with the same search seed, derived
//! from the workload seed, so iterations do identical work (the timing
//! takes the fastest of them, see `peak_throughput`) and must agree bit
//! for bit. The modelled metric is the mean best RUE over that seed and
//! the next seven, which are searched once each after the timing.

use crate::{Checks, LayerCounters, Workload};
use autohet::homogeneous::best_homogeneous;
use autohet::search::rl::{rl_search_vec_with_stats, RlSearchConfig, SearchTiming, VecSearchStats};
use autohet_accel::{evaluate, AccelConfig, EvalEngine, EvalReport};
use autohet_dnn::Model;
use autohet_obs::trace::span;
use autohet_xbar::geometry::paper_hybrid_candidates;
use autohet_xbar::XbarShape;
use std::sync::Arc;

const LANES: usize = 8;
const EPISODES: usize = 300;
/// Search seeds the modelled metric (mean best RUE) is taken over.
const QUALITY_SEEDS: usize = 8;

struct SearchRecord {
    best_strategy: Vec<XbarShape>,
    best_report: EvalReport,
    episodes: usize,
    timing: SearchTiming,
    stats: VecSearchStats,
}

pub struct SearchVgg16 {
    model: Model,
    candidates: Vec<XbarShape>,
    cfg: AccelConfig,
    search_seed: u64,
    /// RUE of the best homogeneous accelerator, the baseline the paper's
    /// heterogeneous search must beat.
    homogeneous_rue: f64,
    /// The timed searches, all with `search_seed`.
    records: Vec<SearchRecord>,
    /// One untimed search each of the seeds after `search_seed`.
    extra: Vec<SearchRecord>,
}

impl SearchVgg16 {
    pub fn new(seed: u64) -> Self {
        let model = {
            let _span = span("dnn.zoo.vgg16");
            autohet_dnn::zoo::vgg16()
        };
        let homogeneous_rue = {
            let _span = span("autohet.best_homogeneous");
            best_homogeneous(&model, &AccelConfig::default()).1.rue()
        };
        SearchVgg16 {
            model,
            candidates: paper_hybrid_candidates(),
            cfg: AccelConfig::default().with_tile_sharing(),
            search_seed: seed.wrapping_mul(1_000_003),
            homogeneous_rue,
            records: Vec::new(),
            extra: Vec::new(),
        }
    }

    fn search(&self, seed: u64) -> SearchRecord {
        let mut scfg = RlSearchConfig {
            episodes: EPISODES,
            ..RlSearchConfig::default()
        };
        scfg.ddpg.seed = seed;
        let engine = Arc::new(EvalEngine::new(self.model.clone(), self.cfg));
        let (outcome, stats) = rl_search_vec_with_stats(
            &self.model,
            &self.candidates,
            &self.cfg,
            &scfg,
            LANES,
            engine,
        );
        SearchRecord {
            episodes: outcome.history.len(),
            best_strategy: outcome.best_strategy,
            best_report: outcome.best_report,
            timing: outcome.timing,
            stats,
        }
    }

    /// Mean best RUE of the first timed search and the untimed ones.
    fn mean_best_rue(&self) -> f64 {
        let searched = || self.records[..1].iter().chain(&self.extra);
        searched().map(|r| r.best_report.rue()).sum::<f64>() / searched().count() as f64
    }
}

impl Workload for SearchVgg16 {
    fn run_iteration(&mut self, _index: usize) -> f64 {
        let record = self.search(self.search_seed);
        let episodes = record.episodes as f64;
        self.records.push(record);
        episodes
    }

    fn modelled_quality(&mut self) -> f64 {
        while self.extra.len() < QUALITY_SEEDS - 1 {
            let seed = self.search_seed.wrapping_add(self.extra.len() as u64 + 1);
            let record = self.search(seed);
            self.extra.push(record);
        }
        self.mean_best_rue()
    }

    fn check(&self, checks: &mut Checks) {
        let quality = self.mean_best_rue();
        println!(
            "search_vgg16: mean best RUE {quality:.6e} over {} search seeds from {}, {:.3}x \
             the best homogeneous accelerator",
            1 + self.extra.len(),
            self.search_seed,
            quality / self.homogeneous_rue
        );
        checks.expect(
            quality > self.homogeneous_rue,
            "mean best RUE beats the best homogeneous accelerator",
        );
        let first = &self.records[0];
        let searched = self.records[..1].iter().chain(&self.extra);
        for (i, r) in searched.enumerate() {
            checks.expect(
                r.episodes == EPISODES,
                &format!("search seed +{i} history has {EPISODES} episodes"),
            );
            let again = evaluate(&self.model, &r.best_strategy, &self.cfg);
            checks.expect(
                format!("{again:?}") == format!("{:?}", r.best_report),
                &format!("search seed +{i} best_report re-evaluates bit for bit"),
            );
        }
        for (i, r) in self.records.iter().enumerate().skip(1) {
            checks.expect(
                r.best_strategy == first.best_strategy
                    && format!("{:?}", r.best_report) == format!("{:?}", first.best_report),
                &format!("timed search {i} repeats timed search 0 bit for bit"),
            );
        }
    }

    fn layer_counters(&self, _iter_s: f64) -> LayerCounters {
        let mut out = LayerCounters::default();
        let (mut agent, mut simulator, mut total, mut occupancy) = (0.0, 0.0, 0.0, 0.0);
        for r in &self.records {
            let c = r.timing.cache;
            out.engine.strategy_hits += c.strategy_hits;
            out.engine.strategy_misses += c.strategy_misses;
            out.engine.layer_hits += c.layer_hits;
            out.engine.layer_misses += c.layer_misses;
            agent += r.timing.agent.as_secs_f64();
            simulator += r.timing.simulator.as_secs_f64();
            total += r.timing.total.as_secs_f64();
            occupancy += r.stats.mean_occupancy;
            out.search_groups += r.stats.groups as u64;
        }
        out.rl_agent_share = agent / total;
        out.simulator_share = simulator / total;
        out.vec_mean_occupancy = occupancy / self.records.len() as f64;
        out
    }
}

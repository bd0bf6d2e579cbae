//! Memoized strategy evaluation — the search drivers' hot path.
//!
//! The paper reports that ~97% of search time is simulator feedback
//! (§4.5), and every driver in `autohet` used to rebuild the entire
//! allocation + energy/latency pipeline from scratch per strategy. Two
//! observations make that redundant:
//!
//! 1. A layer's placement footprint, latency, and dynamic energy depend
//!    only on the `(layer, shape)` pair — there are only `L × C` distinct
//!    pairs (VGG16 × 5 candidates = 80), while a 300-episode search asks
//!    for `300 × L` of them. [`EvalEngine`] caches these slices and
//!    composes full [`EvalReport`]s from them, leaving only tile-sharing
//!    packing and global aggregation per call. That packing works on
//!    per-shape tile counts and each layer's one partial tile, not on
//!    materialized tiles (`tile_shared::tile_counts`).
//! 2. Converged searches revisit identical whole strategies; a bounded
//!    strategy → report cache makes those repeats O(1).
//!
//! Results are bit-identical to [`evaluate`](crate::evaluate): both paths
//! build placements via [`crate::alloc::placement_for`] and aggregate via
//! `metrics::compose_report` over tile counts in ascending shape order, so
//! the floats are accumulated in exactly the same order. A shared engine
//! is `Sync`; parallel sweep workers evaluate concurrently against one
//! memo table.

use crate::alloc::{allocation_from_placements, placement_for, LayerPlacement};
use crate::degradation::{DegradationState, DegradedEvalReport, DriftEvalConfig, RecoveryPolicy};
use crate::hierarchy::AccelConfig;
use crate::metrics::{
    compose_allocation_report, compose_report, layer_cost, EvalReport, LayerCost,
};
use crate::repair::{repair_allocation, RepairPolicy, RepairReport};
use crate::robustness::{
    layer_noise_per_reference, LayerNoise, NoiseEvalConfig, RobustnessReport, SampleWork,
};
use crate::tile_shared::{apply_tile_sharing, tile_counts};
use autohet_dnn::Model;
use autohet_obs::Metric;
use autohet_xbar::energy::static_power;
use autohet_xbar::fault::{FaultMap, FaultRates};
use autohet_xbar::{area, XbarShape};
use std::collections::{HashMap, VecDeque};
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard};

/// Cached per-(layer, shape) evaluation slice.
#[derive(Debug, Clone, Copy)]
struct LayerSlice {
    placement: LayerPlacement,
    cost: LayerCost,
}

/// Bound on the strategy → report cache. Converged searches cycle
/// through a handful of configurations; 512 comfortably covers a
/// 300-episode search while bounding memory on exhaustive enumerations.
const STRATEGY_CAPACITY: usize = 512;

/// Bounded strategy → report map with insertion-order (FIFO) eviction.
#[derive(Debug, Default)]
struct StrategyCache {
    map: HashMap<Vec<XbarShape>, EvalReport>,
    order: VecDeque<Vec<XbarShape>>,
}

impl StrategyCache {
    fn get(&self, key: &[XbarShape]) -> Option<EvalReport> {
        self.map.get(key).cloned()
    }

    fn insert(&mut self, key: Vec<XbarShape>, report: EvalReport) {
        if self.map.contains_key(&key) {
            return;
        }
        if self.map.len() >= STRATEGY_CAPACITY {
            if let Some(oldest) = self.order.pop_front() {
                self.map.remove(&oldest);
            }
        }
        self.order.push_back(key.clone());
        self.map.insert(key, report);
    }
}

/// Cache hit/miss counters and Monte-Carlo work, snapshot via
/// [`EvalEngine::stats`].
///
/// The Monte-Carlo counters cover the static-noise and drift memos
/// together and are counted where a computation fills a memo key, so
/// they are a function of the distinct keys requested, never of thread
/// timing: a slice two workers race to compute counts once.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EngineStats {
    /// Whole-strategy cache hits (O(1) repeated evaluations).
    pub strategy_hits: u64,
    /// Whole-strategy cache misses (full compositions performed).
    pub strategy_misses: u64,
    /// Per-(layer, shape) memo hits.
    pub layer_hits: u64,
    /// Per-(layer, shape) memo misses (full layer-slice computations —
    /// bounded by `L × C` distinct pairs, not by episodes × layers).
    pub layer_misses: u64,
    /// Noise-memo keys filled: static `(layer, shape)` slices plus drift
    /// `(layer, shape, epoch, arm)` slices.
    pub noise_slices: u64,
    /// Seeded device populations drawn to fill them.
    pub device_draws: u64,
    /// Readout tables built over those draws (one per draw and distinct
    /// reference read).
    pub readout_tables: u64,
}

impl EngineStats {
    /// Fraction of strategy evaluations served from the strategy cache.
    pub fn strategy_hit_rate(&self) -> f64 {
        let total = self.strategy_hits + self.strategy_misses;
        if total == 0 {
            return 0.0;
        }
        self.strategy_hits as f64 / total as f64
    }

    /// Fraction of layer-slice lookups served from the memo table.
    pub fn layer_hit_rate(&self) -> f64 {
        let total = self.layer_hits + self.layer_misses;
        if total == 0 {
            return 0.0;
        }
        self.layer_hits as f64 / total as f64
    }

    /// Counter deltas since an earlier snapshot (saturating, so a snapshot
    /// taken around a shared engine's concurrent use never underflows).
    pub fn since(&self, earlier: &EngineStats) -> EngineStats {
        EngineStats {
            strategy_hits: self.strategy_hits.saturating_sub(earlier.strategy_hits),
            strategy_misses: self.strategy_misses.saturating_sub(earlier.strategy_misses),
            layer_hits: self.layer_hits.saturating_sub(earlier.layer_hits),
            layer_misses: self.layer_misses.saturating_sub(earlier.layer_misses),
            noise_slices: self.noise_slices.saturating_sub(earlier.noise_slices),
            device_draws: self.device_draws.saturating_sub(earlier.device_draws),
            readout_tables: self.readout_tables.saturating_sub(earlier.readout_tables),
        }
    }

    /// Combined hit rate over both cache layers (strategy + layer-slice
    /// lookups); 0.0 when no lookups happened.
    pub fn combined_hit_rate(&self) -> f64 {
        let hits = self.strategy_hits + self.layer_hits;
        let total = hits + self.strategy_misses + self.layer_misses;
        if total == 0 {
            return 0.0;
        }
        hits as f64 / total as f64
    }

    /// Mirror these counters into `registry` under `prefix` (e.g.
    /// `prefix = "engine"` publishes `engine.strategy_hits`, ...). A later
    /// publish replaces the values.
    pub fn publish(&self, registry: &mut autohet_obs::Registry, prefix: &str) {
        let mut set = |name: &str, v: u64| {
            registry.set(&format!("{prefix}.{name}"), Metric::Counter(v));
        };
        set("strategy_hits", self.strategy_hits);
        set("strategy_misses", self.strategy_misses);
        set("layer_hits", self.layer_hits);
        set("layer_misses", self.layer_misses);
        set("noise_slices", self.noise_slices);
        set("device_draws", self.device_draws);
        set("readout_tables", self.readout_tables);
    }
}

impl fmt::Display for EngineStats {
    /// One-line cache summary, e.g.
    /// `strategy 12/300 hits (4.0%), layer 4560/4800 hits (95.0%)`,
    /// followed by `, noise 10 slices, 15 draws, 30 tables` once any
    /// Monte-Carlo work was done.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "strategy {}/{} hits ({:.1}%), layer {}/{} hits ({:.1}%)",
            self.strategy_hits,
            self.strategy_hits + self.strategy_misses,
            100.0 * self.strategy_hit_rate(),
            self.layer_hits,
            self.layer_hits + self.layer_misses,
            100.0 * self.layer_hit_rate(),
        )?;
        if self.noise_slices + self.device_draws + self.readout_tables > 0 {
            write!(
                f,
                ", noise {} slices, {} draws, {} tables",
                self.noise_slices, self.device_draws, self.readout_tables
            )?;
        }
        Ok(())
    }
}

/// Evaluation of a strategy on faulted hardware: the repaired mapping's
/// metrics plus the repair outcome that produced them. Produced by
/// [`EvalEngine::evaluate_faulted`].
#[derive(Debug, Clone, PartialEq)]
pub struct FaultedEvalReport {
    /// Metrics of the repaired allocation (latency factors, spare area,
    /// and spare leakage folded in).
    pub eval: EvalReport,
    /// What the repair did (spared / remapped / degraded, per-layer damage).
    pub repair: RepairReport,
    /// Seed the fault map was sampled with.
    pub seed: u64,
    /// Fault rates the map was sampled with.
    pub rates: FaultRates,
    /// Crossbar-weighted model fidelity proxy in `[0, 1]` (1 = exact).
    pub fidelity: f64,
}

/// Evaluation of a strategy under device variation: the ideal-device
/// metrics plus the Monte-Carlo robustness scores. Produced by
/// [`EvalEngine::evaluate_noisy`].
#[derive(Debug, Clone, PartialEq)]
pub struct NoisyEvalReport {
    /// Ideal-device metrics (identical to [`EvalEngine::evaluate`]).
    pub eval: EvalReport,
    /// Accuracy-under-noise scores (see [`crate::robustness`]).
    pub robustness: RobustnessReport,
}

/// Lock a memo, recovering the guard if a worker panicked while holding
/// it. Every memo entry is computed outside the lock and inserted whole,
/// so a panicking worker cannot leave a half-written entry behind.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// Noise-evaluation state of an engine: the Monte-Carlo configuration
/// plus its own per-(layer, shape) memo — noise slices are far more
/// expensive than cost slices (they run the functional pipeline), and
/// just as reusable.
#[derive(Debug)]
struct NoiseState {
    cfg: NoiseEvalConfig,
    memo: Mutex<HashMap<(usize, XbarShape), LayerNoise>>,
}

/// Drift-evaluation state of an engine: the lifetime configuration plus
/// its own per-epoch memo. Keys carry the epoch (`f64` bits — epochs are
/// compared exactly, not approximately) and whether the slice was read
/// through recalibrated references, so stale and recalibrated
/// trajectories memoize side by side next to the static noise cache. A
/// miss on either arm fills both keys from one set of device draws.
#[derive(Debug)]
struct DriftState {
    cfg: DriftEvalConfig,
    memo: Mutex<HashMap<(usize, XbarShape, u64, bool), LayerNoise>>,
}

/// Memoized evaluator for one `(model, config)` pair.
///
/// ```
/// use autohet_accel::{evaluate, AccelConfig, EvalEngine};
/// use autohet_xbar::XbarShape;
///
/// let model = autohet_dnn::zoo::micro_cnn();
/// let cfg = AccelConfig::default().with_tile_sharing();
/// let strategy = vec![XbarShape::square(64); model.layers.len()];
///
/// let engine = EvalEngine::new(model.clone(), cfg);
/// let cached = engine.evaluate(&strategy);
/// assert_eq!(cached, evaluate(&model, &strategy, &cfg));
/// assert_eq!(engine.stats().strategy_hits, 0);
/// engine.evaluate(&strategy);
/// assert_eq!(engine.stats().strategy_hits, 1);
/// ```
#[derive(Debug)]
pub struct EvalEngine {
    model: Model,
    cfg: AccelConfig,
    layers: Mutex<HashMap<(usize, XbarShape), LayerSlice>>,
    strategies: Mutex<StrategyCache>,
    strategy_hits: AtomicU64,
    strategy_misses: AtomicU64,
    layer_hits: AtomicU64,
    layer_misses: AtomicU64,
    noise_slices: AtomicU64,
    device_draws: AtomicU64,
    readout_tables: AtomicU64,
    noise: Option<NoiseState>,
    drift: Option<DriftState>,
}

impl EvalEngine {
    /// Engine for `model` on an accelerator configured by `cfg`.
    pub fn new(model: Model, cfg: AccelConfig) -> Self {
        EvalEngine {
            model,
            cfg,
            layers: Mutex::new(HashMap::new()),
            strategies: Mutex::new(StrategyCache::default()),
            strategy_hits: AtomicU64::new(0),
            strategy_misses: AtomicU64::new(0),
            layer_hits: AtomicU64::new(0),
            layer_misses: AtomicU64::new(0),
            noise_slices: AtomicU64::new(0),
            device_draws: AtomicU64::new(0),
            readout_tables: AtomicU64::new(0),
            noise: None,
            drift: None,
        }
    }

    /// This engine with accuracy-under-noise evaluation enabled:
    /// [`EvalEngine::evaluate_noisy`] becomes available, memoizing
    /// Monte-Carlo noise slices per `(layer, shape)` the same way cost
    /// slices are memoized.
    pub fn with_noise(mut self, cfg: NoiseEvalConfig) -> Self {
        self.noise = Some(NoiseState {
            cfg,
            memo: Mutex::new(HashMap::new()),
        });
        self
    }

    /// This engine with lifetime-degradation evaluation enabled:
    /// [`EvalEngine::evaluate_degraded`] becomes available, memoizing
    /// per-epoch noise slices beside the static noise cache.
    pub fn with_drift(mut self, cfg: DriftEvalConfig) -> Self {
        self.drift = Some(DriftState {
            cfg,
            memo: Mutex::new(HashMap::new()),
        });
        self
    }

    /// The model this engine evaluates.
    pub fn model(&self) -> &Model {
        &self.model
    }

    /// The accelerator configuration this engine evaluates against.
    pub fn config(&self) -> &AccelConfig {
        &self.cfg
    }

    /// Evaluate `strategy`, serving repeats from the strategy cache.
    /// Bit-identical to `evaluate(model, strategy, cfg)`.
    pub fn evaluate(&self, strategy: &[XbarShape]) -> EvalReport {
        let _span = autohet_obs::trace::span("engine.evaluate");
        if let Some(hit) = lock(&self.strategies).get(strategy) {
            self.strategy_hits.fetch_add(1, Ordering::Relaxed);
            return hit;
        }
        self.strategy_misses.fetch_add(1, Ordering::Relaxed);
        let report = self.compose(strategy);
        let mut cache = lock(&self.strategies);
        cache.insert(strategy.to_vec(), report.clone());
        report
    }

    /// Evaluate `strategy` through the per-(layer, shape) memo only,
    /// bypassing the strategy cache — for enumerations (exhaustive,
    /// homogeneous sweeps) that never revisit a strategy and should not
    /// churn the bounded cache.
    pub fn evaluate_fresh(&self, strategy: &[XbarShape]) -> EvalReport {
        self.compose(strategy)
    }

    /// Snapshot of the cache counters.
    pub fn stats(&self) -> EngineStats {
        EngineStats {
            strategy_hits: self.strategy_hits.load(Ordering::Relaxed),
            strategy_misses: self.strategy_misses.load(Ordering::Relaxed),
            layer_hits: self.layer_hits.load(Ordering::Relaxed),
            layer_misses: self.layer_misses.load(Ordering::Relaxed),
            noise_slices: self.noise_slices.load(Ordering::Relaxed),
            device_draws: self.device_draws.load(Ordering::Relaxed),
            readout_tables: self.readout_tables.load(Ordering::Relaxed),
        }
    }

    fn slice(&self, position: usize, shape: XbarShape) -> LayerSlice {
        let key = (position, shape);
        if let Some(s) = lock(&self.layers).get(&key) {
            self.layer_hits.fetch_add(1, Ordering::Relaxed);
            return *s;
        }
        self.layer_misses.fetch_add(1, Ordering::Relaxed);
        let layer = &self.model.layers[position];
        debug_assert_eq!(layer.index, position);
        let placement = placement_for(layer, shape, self.cfg.pes_per_tile);
        let s = LayerSlice {
            cost: layer_cost(layer, &placement.footprint, &self.cfg.cost),
            placement,
        };
        lock(&self.layers).insert(key, s);
        s
    }

    /// Evaluate `strategy` under device variation: the ideal-device
    /// report (strategy-cached as usual) plus Monte-Carlo robustness
    /// scores from the functional pipeline (see [`crate::robustness`]).
    /// Noise slices are memoized per `(layer, shape)` and seeded
    /// per-pair, so results are deterministic and independent of
    /// evaluation order.
    ///
    /// Panics unless the engine was built with
    /// [`EvalEngine::with_noise`].
    pub fn evaluate_noisy(&self, strategy: &[XbarShape]) -> NoisyEvalReport {
        let _span = autohet_obs::trace::span("engine.evaluate_noisy");
        let state = self
            .noise
            .as_ref()
            .expect("noise evaluation requires EvalEngine::with_noise");
        let eval = self.evaluate(strategy);
        let per_layer: Vec<LayerNoise> = strategy
            .iter()
            .enumerate()
            .map(|(position, &shape)| self.noise_slice(state, position, shape))
            .collect();
        NoisyEvalReport {
            eval,
            robustness: RobustnessReport::aggregate(per_layer),
        }
    }

    fn noise_slice(&self, state: &NoiseState, position: usize, shape: XbarShape) -> LayerNoise {
        let key = (position, shape);
        if let Some(n) = lock(&state.memo).get(&key) {
            return *n;
        }
        let variation = state.cfg.variation;
        let (scores, work) = layer_noise_per_reference(
            &self.model.layers[position],
            shape,
            &self.cfg.cost,
            &state.cfg,
            &variation,
            &[variation],
        );
        let filled = lock(&state.memo).insert(key, scores[0]).is_none();
        self.count_filled(filled as u64, work);
        scores[0]
    }

    /// Account the Monte-Carlo work behind `slices` newly filled memo
    /// keys (none when a racing worker filled them first).
    fn count_filled(&self, slices: u64, work: SampleWork) {
        if slices == 0 {
            return;
        }
        self.noise_slices.fetch_add(slices, Ordering::Relaxed);
        self.device_draws
            .fetch_add(work.device_draws, Ordering::Relaxed);
        self.readout_tables
            .fetch_add(work.readout_tables, Ordering::Relaxed);
    }

    /// Evaluate `strategy` on *faulted* hardware: build the allocation
    /// (sharing included per the config), sample a [`FaultMap`] for its
    /// tile array from `(seed, rates)`, repair it under `policy`, then
    /// re-evaluate the repaired mapping.
    ///
    /// The returned metrics account for the repair outcome:
    /// - re-serialized layers carry their latency factor (which also
    ///   lengthens the leakage window),
    /// - provisioned spares cost area whether or not they are used,
    /// - activated spares additionally leak for the whole inference,
    /// - dead components conservatively stay on the power rail.
    ///
    /// With `rates == FaultRates::ideal()` and zero spares the result's
    /// `eval` is bit-identical to [`EvalEngine::evaluate`]. The fault
    /// sampling is nested in the rate (see [`autohet_xbar::fault`]), so
    /// for one seed fidelity is antitone as rates rise, and latency is
    /// monotone while fidelity stays 1 (a fully lost layer stops
    /// computing: its latency contribution vanishes as fidelity
    /// collapses). Results are not cached: each call re-samples and
    /// re-repairs.
    pub fn evaluate_faulted(
        &self,
        strategy: &[XbarShape],
        seed: u64,
        rates: FaultRates,
        policy: &RepairPolicy,
    ) -> FaultedEvalReport {
        let _span = autohet_obs::trace::span("engine.evaluate_faulted");
        let (eval, repair, fidelity) = self.compose_repaired(strategy, policy, |capacities| {
            FaultMap::sample(seed, rates, capacities, policy.spares_per_tile)
        });
        FaultedEvalReport {
            eval,
            repair,
            seed,
            rates,
            fidelity,
        }
    }

    /// Evaluate `strategy` at lifetime epoch `t_hours` under `recovery`
    /// (DESIGN.md §12). The hard side samples the drift model's nested
    /// fault snapshot at `t` and repairs it under the recovery arm's
    /// cascade ([`DriftEvalConfig::repair_policy`]); the soft side scores
    /// Monte-Carlo robustness of the drifted device population read
    /// against the arm's reference model (stale vs recalibrated), with
    /// per-epoch slices memoized beside the static noise cache.
    ///
    /// At `t = 0` the drifted population is the base model bit for bit
    /// and no component has converted, so `eval` is bit-identical to
    /// [`EvalEngine::evaluate`] for every recovery arm. Results are
    /// deterministic and independent of evaluation order.
    ///
    /// Panics unless the engine was built with
    /// [`EvalEngine::with_drift`].
    pub fn evaluate_degraded(
        &self,
        strategy: &[XbarShape],
        t_hours: f64,
        recovery: RecoveryPolicy,
    ) -> DegradedEvalReport {
        let _span = autohet_obs::trace::span("engine.evaluate_degraded");
        let ds = self
            .drift
            .as_ref()
            .expect("drift evaluation requires EvalEngine::with_drift");
        let cfg = ds.cfg;
        let state = DegradationState::at(&cfg.drift, t_hours, recovery);
        let policy = cfg.repair_policy(recovery);
        let (eval, repair, fidelity) = self.compose_repaired(strategy, &policy, |capacities| {
            cfg.drift
                .snapshot_at(t_hours, capacities, policy.spares_per_tile)
        });
        let per_layer: Vec<LayerNoise> = strategy
            .iter()
            .enumerate()
            .map(|(position, &shape)| self.drift_slice(ds, &state, position, shape))
            .collect();
        let robustness = RobustnessReport::aggregate(per_layer);
        let accuracy_proxy = fidelity * robustness.accuracy_proxy;
        DegradedEvalReport {
            eval,
            repair,
            robustness,
            state,
            fidelity,
            accuracy_proxy,
        }
    }

    fn drift_slice(
        &self,
        ds: &DriftState,
        state: &DegradationState,
        position: usize,
        shape: XbarShape,
    ) -> LayerNoise {
        let key = |recalibrated| (position, shape, state.t_hours.to_bits(), recalibrated);
        if let Some(n) = lock(&ds.memo).get(&key(state.recalibrated)) {
            return *n;
        }
        // Both arms read the same seeded device population; they differ
        // only in the readout reference (DegradationState::at), so one
        // set of draws scores both — a single read when they coincide,
        // as at drift scale 0.
        let ncfg = NoiseEvalConfig {
            variation: state.device,
            draws: ds.cfg.draws,
            probes: ds.cfg.probes,
            seed: ds.cfg.noise_seed,
        };
        let (stale, recalibrated) = (ds.cfg.drift.base, state.device);
        debug_assert_eq!(
            state.reference,
            [stale, recalibrated][state.recalibrated as usize]
        );
        let references = if stale == recalibrated {
            &[stale][..]
        } else {
            &[stale, recalibrated][..]
        };
        let (scores, work) = layer_noise_per_reference(
            &self.model.layers[position],
            shape,
            &self.cfg.cost,
            &ncfg,
            &state.device,
            references,
        );
        let arms = [scores[0], scores[scores.len() - 1]];
        let filled = {
            let mut memo = lock(&ds.memo);
            (memo.insert(key(false), arms[0]).is_none() as u64)
                + (memo.insert(key(true), arms[1]).is_none() as u64)
        };
        self.count_filled(filled, work);
        arms[state.recalibrated as usize]
    }

    /// Shared hard-fault composition: slice the strategy, allocate (with
    /// sharing per the config), sample the fault map for the resulting
    /// tile array via `sample`, repair under `policy`, and price the
    /// repaired mapping (latency factors, spare area, spare leakage).
    fn compose_repaired<F>(
        &self,
        strategy: &[XbarShape],
        policy: &RepairPolicy,
        sample: F,
    ) -> (EvalReport, RepairReport, f64)
    where
        F: FnOnce(&[u32]) -> FaultMap,
    {
        let (per_layer, mut costs) = self.slices(strategy);
        let mut alloc = allocation_from_placements(per_layer, self.cfg.pes_per_tile);
        let sharing = self.cfg.tile_shared.then(|| apply_tile_sharing(&mut alloc));
        let capacities: Vec<u32> = alloc.tiles.iter().map(|t| t.capacity).collect();
        let faults = sample(&capacities);
        let repair = repair_allocation(&mut alloc, &faults, policy);
        for (pl, c) in alloc.per_layer.iter().zip(costs.iter_mut()) {
            c.latency_ns *= repair.latency_factor(pl.layer_index);
        }
        let mut eval = compose_allocation_report(&self.model, &alloc, &costs, sharing, &self.cfg);
        let p = &self.cfg.cost;
        for &(shape, n) in &repair.spares_by_shape {
            eval.area_um2 += area::crossbar_area(n, shape, p);
        }
        for &(shape, n) in &repair.activated_by_shape {
            eval.energy.leakage += static_power(n, shape, p) * eval.latency_ns * 1e-9;
        }
        let totals: Vec<u64> = alloc
            .per_layer
            .iter()
            .map(|pl| pl.footprint.total_xbars())
            .collect();
        let fidelity = repair.model_fidelity(&totals);
        (eval, repair, fidelity)
    }

    /// Per-layer placements and cost slices of `strategy`, through the
    /// layer memo.
    fn slices(&self, strategy: &[XbarShape]) -> (Vec<LayerPlacement>, Vec<LayerCost>) {
        assert_eq!(
            strategy.len(),
            self.model.layers.len(),
            "strategy length must match layer count"
        );
        strategy
            .iter()
            .enumerate()
            .map(|(position, &shape)| {
                let s = self.slice(position, shape);
                (s.placement, s.cost)
            })
            .unzip()
    }

    /// Compose a report from the memoized slices. The tile population is
    /// counted, not built (see [`tile_counts`]).
    fn compose(&self, strategy: &[XbarShape]) -> EvalReport {
        let _span = autohet_obs::trace::span("engine.compose");
        let (per_layer, costs) = self.slices(strategy);
        let (tiles_by_shape, sharing) =
            tile_counts(&per_layer, self.cfg.pes_per_tile, self.cfg.tile_shared);
        compose_report(
            &self.model,
            &per_layer,
            &costs,
            &tiles_by_shape,
            sharing,
            &self.cfg,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::evaluate;
    use autohet_dnn::zoo;
    use autohet_xbar::geometry::paper_hybrid_candidates;

    fn rotating_strategy(model: &Model, offset: usize) -> Vec<XbarShape> {
        let cands = paper_hybrid_candidates();
        (0..model.layers.len())
            .map(|i| cands[(i + offset) % cands.len()])
            .collect()
    }

    #[test]
    fn engine_matches_direct_evaluate_across_configs() {
        let m = zoo::alexnet();
        for cfg in [
            AccelConfig::default(),
            AccelConfig::default().with_tile_sharing(),
            AccelConfig::default().with_pes_per_tile(16),
        ] {
            let engine = EvalEngine::new(m.clone(), cfg);
            for offset in 0..3 {
                let s = rotating_strategy(&m, offset);
                let direct = evaluate(&m, &s, &cfg);
                assert_eq!(engine.evaluate(&s), direct);
                // Second pass: strategy-cache hit, still identical.
                assert_eq!(engine.evaluate(&s), direct);
                assert_eq!(engine.evaluate_fresh(&s), direct);
            }
        }
    }

    #[test]
    fn layer_memo_is_bounded_by_distinct_pairs() {
        let m = zoo::vgg16();
        let engine = EvalEngine::new(m.clone(), AccelConfig::default());
        let cands = paper_hybrid_candidates();
        for offset in 0..20 {
            engine.evaluate_fresh(&rotating_strategy(&m, offset));
        }
        let stats = engine.stats();
        let pairs = (m.layers.len() * cands.len()) as u64;
        assert!(
            stats.layer_misses <= pairs,
            "{} > {pairs}",
            stats.layer_misses
        );
        assert!(stats.layer_hits > 0);
        let lookups = 20 * m.layers.len() as u64;
        assert_eq!(stats.layer_hits + stats.layer_misses, lookups);
    }

    #[test]
    fn strategy_cache_hits_and_counts() {
        let m = zoo::micro_cnn();
        let engine = EvalEngine::new(m.clone(), AccelConfig::default());
        let s = rotating_strategy(&m, 0);
        engine.evaluate(&s);
        engine.evaluate(&s);
        engine.evaluate(&s);
        let stats = engine.stats();
        assert_eq!(stats.strategy_misses, 1);
        assert_eq!(stats.strategy_hits, 2);
        assert!((stats.strategy_hit_rate() - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn strategy_cache_evicts_in_insertion_order() {
        // MicroCNN's 4 layers over 5 candidates give 625 strategies, enough
        // to overflow the bound: strategy `i` takes its base-5 digits.
        let m = zoo::micro_cnn();
        let cands = paper_hybrid_candidates();
        assert!(cands.len().pow(m.layers.len() as u32) > STRATEGY_CAPACITY);
        let nth = |mut i: usize| -> Vec<XbarShape> {
            (0..m.layers.len())
                .map(|_| {
                    let s = cands[i % cands.len()];
                    i /= cands.len();
                    s
                })
                .collect()
        };
        let engine = EvalEngine::new(m.clone(), AccelConfig::default());
        for i in 0..=STRATEGY_CAPACITY {
            engine.evaluate(&nth(i)); // the last one evicts strategy 0
        }
        engine.evaluate(&nth(1)); // hit
        engine.evaluate(&nth(0)); // miss again (was evicted), evicts 1
        let stats = engine.stats();
        assert_eq!(stats.strategy_misses, STRATEGY_CAPACITY as u64 + 2);
        assert_eq!(stats.strategy_hits, 1);
    }

    #[test]
    fn ideal_faults_reproduce_the_healthy_evaluation_bit_for_bit() {
        let m = zoo::alexnet();
        for cfg in [
            AccelConfig::default(),
            AccelConfig::default().with_tile_sharing(),
        ] {
            let engine = EvalEngine::new(m.clone(), cfg);
            let s = rotating_strategy(&m, 0);
            let healthy = engine.evaluate(&s);
            let policy = crate::repair::RepairPolicy::no_spares();
            let faulted = engine.evaluate_faulted(&s, 42, FaultRates::ideal(), &policy);
            assert_eq!(faulted.eval, healthy);
            assert!(faulted.repair.is_clean());
            assert_eq!(faulted.fidelity, 1.0);
        }
    }

    #[test]
    fn faulted_evaluation_is_deterministic_in_the_seed() {
        let m = zoo::micro_cnn();
        let engine = EvalEngine::new(m.clone(), AccelConfig::default().with_tile_sharing());
        let s = rotating_strategy(&m, 2);
        let policy = crate::repair::RepairPolicy::default();
        let a = engine.evaluate_faulted(&s, 9, FaultRates::dead(0.2), &policy);
        let b = engine.evaluate_faulted(&s, 9, FaultRates::dead(0.2), &policy);
        assert_eq!(a, b);
    }

    #[test]
    fn rising_fault_rates_never_improve_latency_or_fidelity() {
        // Nested sampling makes this exact per seed, not just expected.
        let m = zoo::alexnet();
        for cfg in [
            AccelConfig::default(),
            AccelConfig::default().with_tile_sharing(),
        ] {
            let engine = EvalEngine::new(m.clone(), cfg);
            let s = rotating_strategy(&m, 1);
            let policy = crate::repair::RepairPolicy::default();
            for seed in [1u64, 7, 23] {
                let mut prev_latency = 0.0f64;
                let mut prev_fidelity = 1.0f64;
                for rate in [0.0, 0.05, 0.15, 0.3] {
                    let r = engine.evaluate_faulted(&s, seed, FaultRates::dead(rate), &policy);
                    // Latency is monotone while every layer still computes;
                    // a fully lost layer drops out of the pipeline (its
                    // cost disappears but fidelity collapses), so gate the
                    // latency check on fidelity.
                    if r.fidelity == 1.0 {
                        assert!(
                            r.eval.latency_ns >= prev_latency,
                            "latency shrank at rate {rate}"
                        );
                        prev_latency = r.eval.latency_ns;
                    }
                    assert!(r.fidelity <= prev_fidelity, "fidelity rose at rate {rate}");
                    prev_fidelity = r.fidelity;
                }
            }
        }
    }

    #[test]
    fn provisioned_spares_cost_area_even_when_idle() {
        let m = zoo::micro_cnn();
        let engine = EvalEngine::new(m.clone(), AccelConfig::default());
        let s = rotating_strategy(&m, 0);
        let healthy = engine.evaluate(&s);
        let policy = crate::repair::RepairPolicy::default().with_spares(2);
        let faulted = engine.evaluate_faulted(&s, 0, FaultRates::ideal(), &policy);
        assert!(faulted.eval.area_um2 > healthy.area_um2);
        // Idle spares do not leak.
        assert_eq!(faulted.eval.energy_nj(), healthy.energy_nj());
    }

    #[test]
    fn noisy_evaluation_is_deterministic_and_memoized() {
        let m = zoo::micro_cnn();
        let engine = EvalEngine::new(m.clone(), AccelConfig::default())
            .with_noise(NoiseEvalConfig::default());
        let s = rotating_strategy(&m, 0);
        let a = engine.evaluate_noisy(&s);
        let b = engine.evaluate_noisy(&s);
        assert_eq!(a, b);
        // Ideal-device metrics are untouched by the noise path.
        assert_eq!(a.eval, evaluate(&m, &s, &AccelConfig::default()));
        assert_eq!(a.robustness.per_layer.len(), m.layers.len());
        assert!(a.robustness.mean_dev > 0.0);
        assert!(a.robustness.accuracy_proxy <= 1.0);
        // Memoized slices do not depend on evaluation order.
        let other = rotating_strategy(&m, 1);
        let engine2 = EvalEngine::new(m.clone(), AccelConfig::default())
            .with_noise(NoiseEvalConfig::default());
        engine2.evaluate_noisy(&other);
        assert_eq!(
            engine2.evaluate_noisy(&s),
            a,
            "order-dependent noise scores"
        );
    }

    #[test]
    fn exact_variation_gives_perfect_robustness() {
        let m = zoo::micro_cnn();
        let cfg = NoiseEvalConfig {
            variation: autohet_xbar::VariationModel::ideal(),
            ..NoiseEvalConfig::default()
        };
        let engine = EvalEngine::new(m.clone(), AccelConfig::default()).with_noise(cfg);
        let r = engine.evaluate_noisy(&rotating_strategy(&m, 0));
        assert_eq!(r.robustness.mean_dev, 0.0);
        assert_eq!(r.robustness.accuracy_proxy, 1.0);
    }

    #[test]
    #[should_panic]
    fn noisy_evaluation_requires_with_noise() {
        let m = zoo::micro_cnn();
        let engine = EvalEngine::new(m.clone(), AccelConfig::default());
        let _ = engine.evaluate_noisy(&rotating_strategy(&m, 0));
    }

    fn drift_engine(m: &Model, cfg: AccelConfig) -> EvalEngine {
        EvalEngine::new(m.clone(), cfg).with_drift(DriftEvalConfig {
            drift: autohet_xbar::DriftModel::fast(),
            draws: 2,
            probes: 2,
            ..DriftEvalConfig::default()
        })
    }

    #[test]
    fn epoch_zero_reproduces_the_healthy_evaluation_for_every_arm() {
        let m = zoo::micro_cnn();
        for cfg in [
            AccelConfig::default(),
            AccelConfig::default().with_tile_sharing(),
        ] {
            let engine = drift_engine(&m, cfg);
            let s = rotating_strategy(&m, 0);
            let healthy = engine.evaluate(&s);
            for arm in RecoveryPolicy::ALL {
                let d = engine.evaluate_degraded(&s, 0.0, arm);
                if !arm.repairs() {
                    // No spares provisioned: the epoch-0 report is the
                    // healthy evaluation bit for bit.
                    assert_eq!(d.eval, healthy, "{arm:?}");
                } else {
                    // Provisioned spares cost area; nothing else moves.
                    assert_eq!(d.eval.latency_ns, healthy.latency_ns, "{arm:?}");
                    assert_eq!(d.eval.energy_nj(), healthy.energy_nj(), "{arm:?}");
                }
                assert!(d.repair.is_clean(), "{arm:?}");
                assert_eq!(d.fidelity, 1.0);
                // Device == reference at t = 0, so the soft axis scores
                // an ordinary same-model draw for every arm.
                let no = engine.evaluate_degraded(&s, 0.0, RecoveryPolicy::NoRecovery);
                assert_eq!(d.robustness, no.robustness);
            }
        }
    }

    #[test]
    fn degraded_evaluation_is_deterministic_and_memoized() {
        let m = zoo::micro_cnn();
        let engine = drift_engine(&m, AccelConfig::default());
        let s = rotating_strategy(&m, 1);
        let a = engine.evaluate_degraded(&s, 3000.0, RecoveryPolicy::FullCascade);
        let b = engine.evaluate_degraded(&s, 3000.0, RecoveryPolicy::FullCascade);
        assert_eq!(a, b);
        // A cold engine computes the same epoch slices afresh.
        let cold = drift_engine(&m, AccelConfig::default());
        assert_eq!(
            cold.evaluate_degraded(&s, 3000.0, RecoveryPolicy::FullCascade),
            a
        );
    }

    #[test]
    fn recovery_arms_order_accuracy_at_late_epochs() {
        // The cascade's whole point: at a drifted epoch, recalibration
        // strictly beats the stale readout on the soft axis, and the full
        // cascade is at least as good again on the hard axis.
        let m = zoo::micro_cnn();
        let engine = drift_engine(&m, AccelConfig::default());
        let s = rotating_strategy(&m, 0);
        let t = 5_000.0;
        let no = engine.evaluate_degraded(&s, t, RecoveryPolicy::NoRecovery);
        let recal = engine.evaluate_degraded(&s, t, RecoveryPolicy::RecalibrateOnly);
        let full = engine.evaluate_degraded(&s, t, RecoveryPolicy::FullCascade);
        assert!(
            recal.robustness.mean_dev < no.robustness.mean_dev,
            "recalibration must cut the stale deviation ({} vs {})",
            recal.robustness.mean_dev,
            no.robustness.mean_dev
        );
        assert!(recal.accuracy_proxy > no.accuracy_proxy);
        assert!(full.accuracy_proxy >= recal.accuracy_proxy);
        assert!(full.fidelity >= no.fidelity);
        // Hard damage exists by hour 20k under the fast corner, and the
        // repairing arm re-homes at least some of it.
        assert!(no.repair.dead_occupied > 0, "fixture needs hard faults");
        assert_eq!(no.repair.spared + no.repair.remapped, 0);
        assert!(full.repair.spared + full.repair.remapped > 0);
    }

    #[test]
    fn degradation_is_monotone_along_the_trajectory() {
        let m = zoo::micro_cnn();
        let engine = drift_engine(&m, AccelConfig::default());
        let s = rotating_strategy(&m, 2);
        let mut prev_fid = 1.0f64;
        for t in [0.0, 1000.0, 10_000.0, 50_000.0] {
            let d = engine.evaluate_degraded(&s, t, RecoveryPolicy::NoRecovery);
            assert!(
                d.fidelity <= prev_fid + 1e-12,
                "hard fidelity rose at hour {t}"
            );
            prev_fid = d.fidelity;
            assert!((0.0..=1.0).contains(&d.accuracy_proxy));
        }
    }

    #[test]
    fn drift_memo_counts_one_draw_per_slice_for_both_arms() {
        // One LeNet-5 campaign cell: 3,000 h, 3 draws x 4 probes, the
        // three arms in campaign order. The stale arm's miss fills both
        // arms' keys from one set of draws; the other two arms hit.
        let m = zoo::lenet5();
        let s = vec![XbarShape::square(64); m.layers.len()];
        let counts = |scale: f64| {
            let engine =
                EvalEngine::new(m.clone(), AccelConfig::default()).with_drift(DriftEvalConfig {
                    drift: autohet_xbar::DriftModel::nominal().with_rate_scale(scale),
                    ..DriftEvalConfig::default()
                });
            for arm in RecoveryPolicy::ALL {
                engine.evaluate_degraded(&s, 3_000.0, arm);
            }
            let st = engine.stats();
            (st.noise_slices, st.device_draws, st.readout_tables)
        };
        assert_eq!(counts(1.0), (10, 15, 30));
        // At scale 0 both arms read the same reference: one table a draw.
        assert_eq!(counts(0.0), (10, 15, 15));
    }

    #[test]
    fn noise_memo_counts_fill_once_per_key() {
        let m = zoo::micro_cnn();
        let cfg = NoiseEvalConfig::default();
        let engine = EvalEngine::new(m.clone(), AccelConfig::default()).with_noise(cfg);
        let s = rotating_strategy(&m, 0);
        engine.evaluate_noisy(&s);
        let before = engine.stats();
        engine.evaluate_noisy(&s);
        let layers = m.layers.len() as u64;
        let draws = layers * cfg.draws as u64;
        assert_eq!(
            (
                before.noise_slices,
                before.device_draws,
                before.readout_tables
            ),
            (layers, draws, draws)
        );
        assert_eq!(engine.stats().since(&before).noise_slices, 0);
        assert!(before.to_string().ends_with(&format!(
            ", noise {layers} slices, {draws} draws, {draws} tables"
        )));
    }

    #[test]
    #[should_panic]
    fn degraded_evaluation_requires_with_drift() {
        let m = zoo::micro_cnn();
        let engine = EvalEngine::new(m.clone(), AccelConfig::default());
        let _ =
            engine.evaluate_degraded(&rotating_strategy(&m, 0), 1.0, RecoveryPolicy::FullCascade);
    }

    #[test]
    fn stats_display_and_registry_publish() {
        let stats = EngineStats {
            strategy_hits: 1,
            strategy_misses: 3,
            layer_hits: 9,
            layer_misses: 1,
            ..EngineStats::default()
        };
        assert_eq!(
            stats.to_string(),
            "strategy 1/4 hits (25.0%), layer 9/10 hits (90.0%)"
        );
        assert!((stats.combined_hit_rate() - 10.0 / 14.0).abs() < 1e-12);
        let mut reg = autohet_obs::Registry::new();
        stats.publish(&mut reg, "engine");
        // Publishing the same cumulative snapshot twice is idempotent.
        stats.publish(&mut reg, "engine");
        let get = |name: &str| reg.get(&format!("engine.{name}")).cloned();
        assert_eq!(get("strategy_hits"), Some(Metric::Counter(1)));
        assert_eq!(get("layer_hits"), Some(Metric::Counter(9)));
        assert_eq!(get("layer_misses"), Some(Metric::Counter(1)));
        assert_eq!(get("readout_tables"), Some(Metric::Counter(0)));
    }

    #[test]
    fn shared_engine_is_consistent_across_threads() {
        let m = zoo::alexnet();
        let cfg = AccelConfig::default().with_tile_sharing();
        let engine = EvalEngine::new(m.clone(), cfg);
        let expected: Vec<EvalReport> = (0..8)
            .map(|o| evaluate(&m, &rotating_strategy(&m, o), &cfg))
            .collect();
        let mut got: Vec<Option<EvalReport>> = vec![None; 8];
        std::thread::scope(|sc| {
            for (o, slot) in got.iter_mut().enumerate() {
                let engine = &engine;
                let m = &m;
                sc.spawn(move || {
                    *slot = Some(engine.evaluate(&rotating_strategy(m, o)));
                });
            }
        });
        for (g, e) in got.into_iter().zip(expected) {
            assert_eq!(g.unwrap(), e);
        }
    }
}

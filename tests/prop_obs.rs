//! Property-based bit-identity of the observability layer (proptest):
//! enabling the global tracer must not change a single bit of any
//! evaluation, search, or serving result. Spans only *observe* — the
//! recorder sits outside every simulated quantity, so results with the
//! recorder on and off are compared with exact equality, not tolerance.

use autohet::prelude::*;
use autohet_dnn::{Dataset, ModelBuilder};
use autohet_rl::DdpgConfig;
use proptest::prelude::*;
use std::sync::Mutex;

/// The tracer is process-wide, so the three properties below must not
/// interleave their enable/disable windows.
static TRACER_LOCK: Mutex<()> = Mutex::new(());

/// A small but non-degenerate model for the search/serving properties.
fn small_model() -> autohet_dnn::Model {
    ModelBuilder::new("prop-obs-net", Dataset::Mnist)
        .conv(8, 3)
        .conv(16, 3)
        .fc(64)
        .fc(10)
        .build()
}

/// Run `f` twice — recorder off, then recorder on — and return both
/// results for exact comparison. Always leaves the tracer disabled and
/// drained.
fn with_and_without_tracer<T>(mut f: impl FnMut() -> T) -> (T, T) {
    let tracer = autohet_obs::trace::global();
    tracer.disable();
    tracer.drain();
    let off = f();
    tracer.enable(4096);
    let on = f();
    tracer.disable();
    // The instrumented paths must actually have recorded something,
    // otherwise this file tests nothing.
    let events = tracer.drain();
    assert!(!events.is_empty(), "tracer enabled but no spans recorded");
    (off, on)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    // engine.evaluate / engine.compose spans leave the report untouched.
    #[test]
    fn evaluation_is_bit_identical_with_the_recorder_on(
        pick in prop::collection::vec(0usize..5, 4),
        shared in any::<bool>(),
    ) {
        let _g = TRACER_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let model = small_model();
        let cfg = if shared {
            AccelConfig::default().with_tile_sharing()
        } else {
            AccelConfig::default()
        };
        let cands = paper_hybrid_candidates();
        let strategy: Vec<XbarShape> =
            pick.iter().map(|&i| cands[i % cands.len()]).collect();
        let (off, on) = with_and_without_tracer(|| {
            EvalEngine::new(model.clone(), cfg).evaluate(&strategy)
        });
        prop_assert_eq!(&off, &on);
        // The instrumented engine path and the direct evaluation agree.
        prop_assert_eq!(off, evaluate(&model, &strategy, &cfg));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    // A full DDPG search under span recording: same strategy, same
    // report, same per-episode history (including cache-hit rates —
    // each run gets a fresh engine, so the deltas line up too).
    #[test]
    fn rl_search_is_bit_identical_with_the_recorder_on(seed in 0u64..1_000) {
        let _g = TRACER_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let model = small_model();
        let cfg = AccelConfig::default().with_tile_sharing();
        let cands = paper_hybrid_candidates();
        let scfg = RlSearchConfig {
            episodes: 8,
            ddpg: DdpgConfig {
                seed,
                hidden: 16,
                batch: 16,
                ..DdpgConfig::default()
            },
            train_steps: 2,
            ..RlSearchConfig::default()
        };
        let (off, on) = with_and_without_tracer(|| rl_search(&model, &cands, &cfg, &scfg));
        prop_assert_eq!(off.best_strategy, on.best_strategy);
        prop_assert_eq!(off.best_report, on.best_report);
        prop_assert_eq!(off.history, on.history);
        prop_assert_eq!(off.timing.cache, on.timing.cache);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    // A serving run — including the per-window telemetry, which lives in
    // the simulated accounting, not the recorder — is unchanged by the
    // tracer, in both the sequential and the threaded driver.
    #[test]
    fn serving_is_bit_identical_with_the_recorder_on(
        seed in 0u64..1_000_000,
        epochs in 1usize..6,
        parallel in any::<bool>(),
    ) {
        let _g = TRACER_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let model = small_model();
        let strategy = vec![XbarShape::square(64); model.layers.len()];
        let d = Deployment::compile("prop-obs", &model, &strategy, &AccelConfig::default());
        let rate = 0.8 * d.max_rate_rps();
        let slo = (6.0 * d.pipeline.fill_ns) as u64;
        let tenants = vec![TenantSpec::new("prop-obs", d, rate, slo)];
        let wl = Workload {
            seed,
            horizon_ns: (200.0 / rate * 1e9) as u64,
        };
        let cfg = ShardConfig {
            epochs,
            ..ShardConfig::default()
        };
        let (off, on) = with_and_without_tracer(|| {
            if parallel {
                run_sharded_threaded(&tenants, &wl, &cfg, 2)
            } else {
                run_sharded(&tenants, &wl, &cfg)
            }
        });
        prop_assert_eq!(off, on);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    // The alert engine is a post-hoc pass over the report: evaluating it
    // must not perturb the serving results, and the timeline itself must
    // be deterministic — across repeated runs and across the sequential
    // vs. threaded drivers — even with drift + recovery emitting health
    // annotations onto it.
    #[test]
    fn alert_timeline_is_deterministic_and_driver_agnostic(
        seed in 0u64..1_000_000,
        drift in any::<bool>(),
    ) {
        let model = small_model();
        let strategy = vec![XbarShape::square(64); model.layers.len()];
        let d = Deployment::compile("prop-obs", &model, &strategy, &AccelConfig::default());
        let rate = 0.8 * d.max_rate_rps();
        let slo = (6.0 * d.pipeline.fill_ns) as u64;
        let tenants = vec![TenantSpec::new("prop-obs", d, rate, slo)];
        let wl = Workload {
            seed,
            horizon_ns: (200.0 / rate * 1e9) as u64,
        };
        let cfg = ShardConfig {
            replicas_per_shard: 2,
            epochs: 6,
            health: drift.then(|| HealthSpec {
                err_ppm_per_ms: 30_000,
                ..HealthSpec::default()
            }),
            ..ShardConfig::default()
        };
        let plain = run_sharded(&tenants, &wl, &cfg);
        // Evaluating the timeline reads the report; the report must be
        // exactly the one an alert-free consumer would see.
        let t1 = alert_timeline(&plain, None);
        prop_assert_eq!(&plain, &run_sharded(&tenants, &wl, &cfg));
        // Identical runs yield identical timelines, and the threaded
        // driver lands every alert and health annotation on the same
        // simulated-time instants as the sequential recurrence.
        prop_assert_eq!(&t1, &alert_timeline(&run_sharded(&tenants, &wl, &cfg), None));
        prop_assert_eq!(
            &t1,
            &alert_timeline(&run_sharded_threaded(&tenants, &wl, &cfg, 2), None)
        );
        // Timeline events are emitted in simulated-time order.
        prop_assert!(t1.events.windows(2).all(|p| p[0].t_ns <= p[1].t_ns));
    }
}

//! Beyond-paper ablation studies (DESIGN.md §6).
//!
//! The paper fixes several design constants without sweeping them; these
//! studies quantify the choices:
//!
//! - [`adc_resolution_sweep`]: the paper pins ADCs at 10 bits "to support
//!   crossbars of all heterogeneous sizes". This sweep shows the
//!   energy/area cost of each extra bit and which candidate shapes become
//!   numerically unsafe (bitline clipping) at lower resolutions.
//! - [`rxb_height_study`]: §3.3 sets rectangle heights to multiples of 9.
//!   This study scores alternative height families on a 3×3-kernel model
//!   and shows multiples of 9 are exactly right.
//! - [`multi_model_sharing_study`]: §3.4 remarks freed tiles can serve
//!   "other models" — this measures how many tiles joint allocation of
//!   several DNNs saves over per-model allocation.
//! - [`serving_study`]: the paper evaluates accelerators one inference at
//!   a time; this study puts four deployment configurations (homogeneous
//!   vs. AutoHet strategy × tile-based vs. tile-shared allocation) behind
//!   the `autohet-serve` queueing simulator under an *identical* request
//!   stream and compares tail latency, SLO attainment, and energy.
//! - [`fault_campaign`]: the paper assumes ideal devices; this campaign
//!   sweeps a component fault rate across the same four deployment
//!   configurations, repairs each allocation (spares → remap → degrade,
//!   DESIGN.md §7), serves the degraded deployment under replica-failure
//!   events scaled with the fault rate, and reports how fidelity, energy,
//!   and SLO attainment decay end to end.
//! - [`lifetime_campaign`]: the paper evaluates hardware at deploy time
//!   only; this campaign ages each deployment along a seeded conductance-
//!   drift trajectory (DESIGN.md §12), evaluates it at a lifetime epoch
//!   under three recovery arms (no recovery, recalibrate-only, the full
//!   detect → recalibrate → remap cascade), serves the epoch hardware
//!   with the matching online drift process, and reports whether the full
//!   cascade retains strictly better SLO attainment and accuracy than
//!   running unprotected.
//! - [`robustness_study`]: the paper scores mappings on ideal devices;
//!   this study prices lognormal device variation into the objective,
//!   compares every homogeneous baseline and the noise-blind greedy
//!   AutoHet mapping against the NSGA-II robustness front
//!   ([`crate::robust`]), and reports whether the noise-robust pick
//!   differs from the noise-blind winner (DESIGN.md §11).

use crate::homogeneous::best_homogeneous;
use crate::robust::{nsga_search, GenerationStat, NsgaConfig};
use crate::search::greedy::{greedy_layerwise_rue, greedy_layerwise_rue_with_engine};
use autohet_accel::alloc::allocate_tile_based;
use autohet_accel::par_map;
use autohet_accel::tile_shared::{apply_tile_sharing, share_across_models};
use autohet_accel::{
    evaluate, AccelConfig, DriftEvalConfig, EvalEngine, NoiseEvalConfig, NoisyEvalReport,
    RecoveryPolicy, RepairPolicy,
};
use autohet_dnn::{LayerKind, Model};
use autohet_serve::{
    run_sharded, Deployment, FailureSpec, HealthSpec, ShardConfig, ShardServingReport, TenantSpec,
    Workload,
};
use autohet_xbar::fault::FaultRates;
use autohet_xbar::geometry::paper_hybrid_candidates;
use autohet_xbar::utilization::footprint;
use autohet_xbar::DriftModel;
use autohet_xbar::XbarShape;
use std::sync::Arc;

/// One point of the ADC-resolution sweep.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AdcPoint {
    /// ADC resolution in bits.
    pub bits: u32,
    /// Total energy for the evaluated strategy \[nJ\].
    pub energy_nj: f64,
    /// Total area \[µm²\].
    pub area_um2: f64,
    /// RUE at this resolution.
    pub rue: f64,
    /// Largest bitline sum any candidate can produce (= tallest candidate
    /// height with 1-bit cells); conversion is lossless iff this fits.
    pub worst_case_level: u32,
    /// Whether every hybrid candidate converts losslessly.
    pub lossless: bool,
}

/// Sweep ADC resolution for a fixed strategy on `model`.
pub fn adc_resolution_sweep(model: &Model, strategy: &[XbarShape], bits: &[u32]) -> Vec<AdcPoint> {
    let tallest = strategy.iter().map(|s| s.rows).max().unwrap_or(0);
    bits.iter()
        .map(|&b| {
            let mut cfg = AccelConfig::default();
            cfg.cost.adc_bits = b;
            let r = evaluate(model, strategy, &cfg);
            AdcPoint {
                bits: b,
                energy_nj: r.energy_nj(),
                area_um2: r.area_um2,
                rue: r.rue(),
                worst_case_level: tallest,
                lossless: (1_u64 << b) > tallest as u64,
            }
        })
        .collect()
}

/// One rectangle-height family's score.
#[derive(Debug, Clone, PartialEq)]
pub struct HeightFamily {
    /// Family label, e.g. `"multiples of 9"`.
    pub label: String,
    /// The heights evaluated (at width 64).
    pub heights: Vec<u32>,
    /// Mean best-height Eq. 4 utilization over the model's 3×3 layers.
    pub mean_utilization: f64,
}

/// Compare rectangle-height families at a fixed width on the model's
/// 3×3-kernel layers: for each conv layer take the best height within the
/// family, then average.
pub fn rxb_height_study(model: &Model, width: u32) -> Vec<HeightFamily> {
    let families: Vec<(&str, Vec<u32>)> = vec![
        ("power-of-two", vec![32, 64, 128, 256]),
        ("multiples of 8", vec![40, 72, 136, 264]),
        ("multiples of 9 (paper)", vec![36, 72, 144, 288]),
        ("multiples of 10", vec![40, 70, 140, 290]),
    ];
    let layers: Vec<_> = model
        .layers
        .iter()
        .filter(|l| l.kind == LayerKind::Conv && l.kernel == 3)
        .collect();
    assert!(!layers.is_empty(), "model has no 3x3 conv layers");
    families
        .into_iter()
        .map(|(label, heights)| {
            let mean = layers
                .iter()
                .map(|l| {
                    heights
                        .iter()
                        .map(|&h| footprint(l, XbarShape::new(h, width)).utilization())
                        .fold(0.0_f64, f64::max)
                })
                .sum::<f64>()
                / layers.len() as f64;
            HeightFamily {
                label: label.into(),
                heights,
                mean_utilization: mean,
            }
        })
        .collect()
}

/// Result of the multi-model sharing study.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MultiModelSharing {
    /// Tiles with no sharing at all.
    pub tiles_unshared: usize,
    /// Tiles when each model shares only internally.
    pub tiles_per_model: usize,
    /// Tiles when all models share one tile pool.
    pub tiles_joint: usize,
}

/// Allocate every model on `shape` crossbars and compare no / per-model /
/// cross-model tile sharing.
pub fn multi_model_sharing_study(
    models: &[Model],
    shape: XbarShape,
    capacity: u32,
) -> MultiModelSharing {
    let allocs: Vec<_> = models
        .iter()
        .map(|m| allocate_tile_based(m, &vec![shape; m.layers.len()], capacity))
        .collect();
    let tiles_unshared = allocs.iter().map(|a| a.tiles.len()).sum();
    let tiles_per_model = allocs
        .iter()
        .map(|a| {
            let mut a = a.clone();
            apply_tile_sharing(&mut a);
            a.tiles.len()
        })
        .sum();
    let (merged, _, _) = share_across_models(allocs);
    MultiModelSharing {
        tiles_unshared,
        tiles_per_model,
        tiles_joint: merged.tiles.len(),
    }
}

/// One deployment configuration's serving outcome under the shared load.
#[derive(Debug, Clone, PartialEq)]
pub struct ServingStudyRow {
    /// `"<strategy>/<allocation>"`, e.g. `"autohet/tile-shared"`.
    pub label: String,
    /// Requests offered (identical across rows by construction).
    pub submitted: u64,
    /// Requests shed by admission control.
    pub rejected: u64,
    /// 99th-percentile request latency \[ns\].
    pub p99_ns: u64,
    /// Fraction of offered requests completed within the SLO.
    pub slo_attainment: f64,
    /// Total inference energy \[nJ\].
    pub energy_nj: f64,
    /// Completed requests per second of virtual time.
    pub throughput_rps: f64,
    /// Firing transitions on the run's alert timeline (SLO burn, queue
    /// saturation — see [`autohet_serve::alert_timeline`]), evaluated
    /// post-hoc over the per-window telemetry.
    pub alerts_fired: u64,
    /// Jain's fairness index over per-tenant weighted attained service
    /// (1.0 for the single-tenant rows here; kept in the schema so
    /// multi-tenant studies line up with
    /// [`autohet_serve::ShardServingReport::fairness_index`]).
    pub fairness_index: f64,
}

/// Serve `model` under four deployment configurations — {best homogeneous,
/// greedy AutoHet} strategies × {tile-based, tile-shared} allocation —
/// against the *same* seeded request stream.
///
/// `load` is the offered rate as a fraction of the slowest deployment's
/// single-replica capacity; values near 1.0 push the slower strategies
/// into queueing while faster ones stay comfortable, which is exactly the
/// regime where strategy choice shows up as tail latency.
pub fn serving_study(model: &Model, load: f64, seed: u64) -> Vec<ServingStudyRow> {
    assert!(load > 0.0);
    let _span = autohet_obs::trace::span("study.serving");
    let lineup = Lineup::compile(model, &CONFIGS, load, 4.0);
    let wl = lineup.workload(seed, 2_000.0);
    let cfg = ShardConfig {
        queue_depth: 32,
        // Per-window telemetry feeds the post-hoc alert pass; without
        // barrier couplings, epochs are pure accounting, so the serving
        // results are unaffected.
        epochs: 8,
        ..ShardConfig::default()
    };
    lineup
        .members
        .into_iter()
        .map(|m| {
            let _cell = autohet_obs::trace::span("study.serving_cell");
            let tenant = TenantSpec::new(m.label, m.healthy, lineup.rate, lineup.slo_ns);
            let r = run_sharded(&[tenant], &wl, &cfg);
            let alerts = autohet_serve::alert_timeline(&r, None);
            let t = &r.tenants[0];
            ServingStudyRow {
                label: m.label.to_string(),
                submitted: t.submitted,
                rejected: t.rejected,
                p99_ns: t.p99_ns,
                slo_attainment: t.slo_attainment,
                energy_nj: t.energy_nj,
                throughput_rps: t.throughput_rps,
                alerts_fired: alerts.count(autohet_obs::AlertKind::Firing) as u64,
                fairness_index: r.fairness_index,
            }
        })
        .collect()
}

/// The four deployment configurations the serving-side studies compare:
/// {best homogeneous, greedy AutoHet} strategy × {tile-based,
/// tile-shared} allocation, as `(label, AutoHet strategy, tile sharing)`.
const CONFIGS: [(&str, bool, bool); 4] = [
    ("homogeneous/tile-based", false, false),
    ("homogeneous/tile-shared", false, true),
    ("autohet/tile-based", true, false),
    ("autohet/tile-shared", true, true),
];

/// One deployment configuration of a [`Lineup`].
struct Member {
    label: &'static str,
    strategy: Vec<XbarShape>,
    accel: AccelConfig,
    /// The configuration compiled on healthy hardware.
    healthy: Deployment,
}

/// The deployment configurations a serving-side study compares, compiled
/// under one shared load: the rate is pinned to the slowest healthy
/// deployment's single-replica capacity and the SLO to its slowest
/// single-sample fill, so every row serves an identical request stream.
struct Lineup {
    members: Vec<Member>,
    /// Offered rate \[requests/s\].
    rate: f64,
    /// Latency SLO \[ns\].
    slo_ns: u64,
}

impl Lineup {
    /// Compile `configs` (entries of [`CONFIGS`]) for `model` at `load`
    /// times the slowest capacity, with an SLO of `slo_fills` times the
    /// slowest fill.
    fn compile(
        model: &Model,
        configs: &[(&'static str, bool, bool)],
        load: f64,
        slo_fills: f64,
    ) -> Self {
        let base = AccelConfig::default();
        let (homo_shape, _) = best_homogeneous(model, &base);
        let homo = vec![homo_shape; model.layers.len()];
        let het = greedy_layerwise_rue(model, &paper_hybrid_candidates(), &base).strategy;
        let members: Vec<Member> = configs
            .iter()
            .map(|&(label, autohet, shared)| {
                let strategy = if autohet { het.clone() } else { homo.clone() };
                let accel = if shared {
                    base.with_tile_sharing()
                } else {
                    base
                };
                let healthy = Deployment::compile(label, model, &strategy, &accel);
                Member {
                    label,
                    strategy,
                    accel,
                    healthy,
                }
            })
            .collect();
        let floor_rps = members
            .iter()
            .map(|m| m.healthy.max_rate_rps())
            .fold(f64::MAX, f64::min);
        let slowest_fill = members
            .iter()
            .map(|m| m.healthy.pipeline.fill_ns)
            .fold(0.0, f64::max);
        Lineup {
            members,
            rate: load * floor_rps,
            slo_ns: (slo_fills * slowest_fill) as u64,
        }
    }

    /// A seeded request stream of about `requests` requests at the
    /// lineup's rate.
    fn workload(&self, seed: u64, requests: f64) -> Workload {
        Workload {
            seed,
            horizon_ns: (requests / self.rate * 1e9) as u64,
        }
    }
}

/// Parameters of a [`fault_campaign`] run. Everything downstream — fault
/// maps, replica outages, request arrivals — derives from `seed`, so a
/// campaign is a pure function of this struct and the model.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultCampaignConfig {
    /// Component fault rates to sweep (include 0.0 for the healthy
    /// baseline; rate 0 also disables instance failures).
    pub fault_rates: Vec<f64>,
    /// Master seed for fault maps, failure schedules, and arrivals.
    pub seed: u64,
    /// Offered load as a fraction of the slowest *healthy* deployment's
    /// single-replica capacity (identical across all rows).
    pub load: f64,
    /// Approximate request count per serving run (sets the horizon).
    pub requests: f64,
    /// Spare crossbars provisioned per tile for repair.
    pub spares_per_tile: u32,
    /// Accelerator replicas behind each deployment.
    pub replicas: usize,
}

impl Default for FaultCampaignConfig {
    fn default() -> Self {
        FaultCampaignConfig {
            fault_rates: vec![0.0, 0.02, 0.05, 0.1, 0.2],
            seed: 7,
            load: 0.7,
            requests: 1_000.0,
            spares_per_tile: 1,
            replicas: 2,
        }
    }
}

/// One (deployment configuration, fault rate) cell of the campaign.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultCampaignRow {
    /// `"<strategy>/<allocation>"`, e.g. `"autohet/tile-shared"`.
    pub label: String,
    /// Component fault rate of this cell.
    pub fault_rate: f64,
    /// Crossbar-weighted model fidelity after repair (1.0 = exact).
    pub fidelity: f64,
    /// Dead occupied slots absorbed by spare activation.
    pub spared: u64,
    /// Dead occupied slots remapped onto surviving crossbars.
    pub remapped: u64,
    /// Dead occupied slots the repair could only degrade around.
    pub degraded: u64,
    /// Whole-model inference energy on the repaired hardware \[nJ\].
    pub energy_nj: f64,
    /// Single-sample latency on the repaired hardware \[ns\].
    pub latency_ns: f64,
    /// Requests offered (identical across rows by construction).
    pub submitted: u64,
    /// Requests served to completion.
    pub completed: u64,
    /// Requests lost to instance failures past their retry deadline.
    pub failed: u64,
    /// Completed requests that survived at least one batch kill.
    pub degraded_completed: u64,
    /// Fraction of offered requests completed within the SLO.
    pub slo_attainment: f64,
    /// 99th-percentile request latency \[ns\].
    pub p99_ns: u64,
    /// Total replica downtime during the run \[ns\].
    pub downtime_ns: u64,
}

/// A campaign cell's row, labelled with its deployment configuration.
pub trait CampaignRow {
    /// `"<strategy>/<allocation>"`, e.g. `"autohet/tile-shared"`.
    fn label(&self) -> &str;
}

impl CampaignRow for FaultCampaignRow {
    fn label(&self) -> &str {
        &self.label
    }
}

/// Outcome of a full campaign on one model: a [`FaultCampaignReport`] or
/// a [`LifetimeCampaignReport`].
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignReport<C, R> {
    /// Model swept.
    pub model: String,
    /// Campaign parameters.
    pub config: C,
    /// One row per campaign cell, grouped by deployment configuration in
    /// sweep order.
    pub rows: Vec<R>,
}

impl<C, R: CampaignRow> CampaignReport<C, R> {
    /// The rows of one deployment configuration, in sweep order.
    pub fn rows_for(&self, label: &str) -> Vec<&R> {
        self.rows.iter().filter(|r| r.label() == label).collect()
    }

    /// Distinct configuration labels, in declaration order.
    pub fn labels(&self) -> Vec<&str> {
        let mut seen = Vec::new();
        for r in &self.rows {
            if !seen.contains(&r.label()) {
                seen.push(r.label());
            }
        }
        seen
    }
}

/// Outcome of a [`fault_campaign`]: one row per (deployment
/// configuration × fault rate), grouped by configuration in sweep order.
pub type FaultCampaignReport = CampaignReport<FaultCampaignConfig, FaultCampaignRow>;

/// A per-replica quantity summed over every shard of a serving run.
fn replica_total(report: &ShardServingReport, f: fn(&autohet_serve::ShardStats) -> u64) -> u64 {
    report.shard_stats.iter().map(f).sum()
}

/// The serving checks both campaigns make before any work. A
/// non-positive request count would leave a zero serving horizon.
fn check_serving(load: f64, requests: f64, replicas: usize) {
    assert!(
        load.is_finite() && load > 0.0,
        "load must be finite and positive, got {load}"
    );
    assert!(
        requests.is_finite() && requests > 0.0,
        "requests must be finite and positive, got {requests}"
    );
    assert!(replicas >= 1, "need at least one replica");
}

/// Replica-failure schedule for one campaign cell: instance failures get
/// more frequent as component faults get denser (MTBF ∝ 1/rate), and a
/// healthy device never fails.
fn campaign_failures(seed: u64, fault_rate: f64) -> Option<FailureSpec> {
    (fault_rate > 0.0).then(|| FailureSpec {
        mtbf_ns: ((1_000_000.0 / fault_rate) as u64).max(1),
        mttr_ns: 2_000_000,
        seed: seed ^ 0x5EED_FA11,
    })
}

/// Sweep component fault rate × {homogeneous, AutoHet} strategy ×
/// {tile-based, tile-shared} allocation, end to end:
///
/// 1. every deployment configuration is repaired against the fault map
///    sampled at the cell's rate ([`EvalEngine::evaluate_faulted`] — the
///    nested sampling makes damage monotone in the rate for a fixed
///    seed);
/// 2. the repaired hardware is served under the *identical* seeded
///    request stream with replica failures scaled to the fault rate;
/// 3. each cell reports repair accounting, post-repair cost, and serving
///    outcome.
///
/// Cells are evaluated with [`par_map`]; the report is bit-identical to
/// a sequential sweep because every cell is independent and seeded.
///
/// Panics before any work on a bad configuration: a non-positive or
/// non-finite load or request count, a zero replica count, an empty
/// sweep, or a fault rate outside \[0, 1\].
pub fn fault_campaign(model: &Model, cfg: &FaultCampaignConfig) -> FaultCampaignReport {
    let _span = autohet_obs::trace::span("study.fault_campaign");
    check_serving(cfg.load, cfg.requests, cfg.replicas);
    assert!(!cfg.fault_rates.is_empty(), "empty fault-rate sweep");
    assert!(
        cfg.fault_rates.iter().all(|r| (0.0..=1.0).contains(r)),
        "fault_rates must lie in [0, 1], got {:?}",
        cfg.fault_rates
    );
    let lineup = Lineup::compile(model, &CONFIGS, cfg.load, 6.0);
    let engines: Vec<EvalEngine> = lineup
        .members
        .iter()
        .map(|m| EvalEngine::new(model.clone(), m.accel))
        .collect();
    let wl = lineup.workload(cfg.seed, cfg.requests);
    let policy = RepairPolicy::default().with_spares(cfg.spares_per_tile);
    let cells: Vec<(usize, f64)> = (0..lineup.members.len())
        .flat_map(|c| cfg.fault_rates.iter().map(move |&r| (c, r)))
        .collect();
    let rows = par_map(&cells, |&(c, fault_rate)| {
        let _cell = autohet_obs::trace::span("study.fault_cell");
        let m = &lineup.members[c];
        let rates = FaultRates {
            dead_xbar: fault_rate,
            degraded_adc: fault_rate / 2.0,
            adc_bits_lost: 2,
        };
        let faulted = engines[c].evaluate_faulted(&m.strategy, cfg.seed, rates, &policy);
        let deployment = m.healthy.with_degradation(&faulted);
        let tenant = TenantSpec::new(m.label, deployment, lineup.rate, lineup.slo_ns);
        let serve = ShardConfig {
            replicas_per_shard: cfg.replicas,
            queue_depth: 32,
            failures: campaign_failures(cfg.seed, fault_rate),
            ..ShardConfig::default()
        };
        let report = run_sharded(&[tenant], &wl, &serve);
        let t = &report.tenants[0];
        FaultCampaignRow {
            label: m.label.to_string(),
            fault_rate,
            fidelity: faulted.fidelity,
            spared: faulted.repair.spared,
            remapped: faulted.repair.remapped,
            degraded: faulted.repair.degraded,
            energy_nj: faulted.eval.energy_nj(),
            latency_ns: faulted.eval.latency_ns,
            submitted: t.submitted,
            completed: t.completed,
            failed: t.failed,
            degraded_completed: t.degraded_completed,
            slo_attainment: t.slo_attainment,
            p99_ns: t.p99_ns,
            downtime_ns: replica_total(&report, |s| s.downtime_ns),
        }
    });
    FaultCampaignReport {
        model: model.name.clone(),
        config: cfg.clone(),
        rows,
    }
}

/// Parameters of a [`lifetime_campaign`] run. Everything downstream —
/// drift trajectories, fault snapshots, drift errors, arrivals — derives
/// from `seed`, so a campaign is a pure function of this struct and the
/// model.
#[derive(Debug, Clone, PartialEq)]
pub struct LifetimeCampaignConfig {
    /// Drift-rate scales to sweep, as multiples of the nominal corner
    /// (include 0.0 for the drift-free baseline; scale 0 also disables
    /// the serving drift process).
    pub drift_scales: Vec<f64>,
    /// Lifetime epoch the hardware is evaluated at [simulated hours].
    pub epoch_hours: f64,
    /// Master seed for fault snapshots, drift errors, and arrivals.
    pub seed: u64,
    /// Offered load as a fraction of the slowest *healthy* deployment's
    /// single-replica capacity (identical across all rows).
    pub load: f64,
    /// Approximate request count per serving run (sets the horizon).
    pub requests: f64,
    /// Spare crossbars provisioned per tile for the full cascade.
    pub spares_per_tile: u32,
    /// Accelerator replicas behind each deployment.
    pub replicas: usize,
    /// Monte-Carlo draws per (layer, shape, epoch) robustness slice.
    pub draws: u32,
    /// Probe activations per draw.
    pub probes: u32,
}

impl Default for LifetimeCampaignConfig {
    fn default() -> Self {
        LifetimeCampaignConfig {
            drift_scales: vec![0.0, 0.5, 1.0, 2.0, 4.0],
            epoch_hours: 3_000.0,
            seed: 7,
            load: 0.6,
            requests: 1_000.0,
            spares_per_tile: 1,
            replicas: 2,
            draws: 3,
            probes: 4,
        }
    }
}

/// One (deployment configuration, drift scale, recovery policy) cell.
#[derive(Debug, Clone, PartialEq)]
pub struct LifetimeRow {
    /// `"<strategy>/<allocation>"`, e.g. `"autohet/tile-shared"`.
    pub label: String,
    /// Drift-rate scale of this cell (multiple of the nominal corner).
    pub drift_scale: f64,
    /// Recovery-policy label (`"no-recovery"`, `"recalibrate-only"`,
    /// `"full-cascade"`).
    pub policy: String,
    /// Lifetime epoch the hardware was evaluated at \[hours\].
    pub t_hours: f64,
    /// Crossbar-weighted hard-fault fidelity after the cascade.
    pub fidelity: f64,
    /// Hardware accuracy proxy at the epoch (fidelity × argmax survival).
    pub hw_accuracy_proxy: f64,
    /// Mean normalized output deviation under the drifted population.
    pub noise_dev: f64,
    /// Dead occupied slots absorbed by spare activation.
    pub spared: u64,
    /// Dead occupied slots remapped onto surviving crossbars.
    pub remapped: u64,
    /// Dead occupied slots the cascade could only degrade around.
    pub degraded: u64,
    /// Whole-model inference energy on the epoch hardware \[nJ\].
    pub energy_nj: f64,
    /// Single-sample latency on the epoch hardware \[ns\].
    pub latency_ns: f64,
    /// Requests offered (identical across rows by construction).
    pub submitted: u64,
    /// Requests served to completion.
    pub completed: u64,
    /// Completed requests with drift-corrupted results.
    pub errored: u64,
    /// Fraction of offered requests completed cleanly within the SLO.
    pub slo_attainment: f64,
    /// 99th-percentile request latency \[ns\].
    pub p99_ns: u64,
    /// Fraction of completed requests with clean results.
    pub clean_fraction: f64,
    /// Circuit-breaker trips across the replica fleet.
    pub trips: u64,
    /// Successful online recalibrations.
    pub recals: u64,
    /// Remap escalations.
    pub remaps: u64,
    /// Fleet time spent paused in recovery \[ns\].
    pub recovery_ns: u64,
    /// End-to-end accuracy: the hardware proxy × the serving clean
    /// fraction — the campaign's headline accuracy axis.
    pub accuracy: f64,
}

impl CampaignRow for LifetimeRow {
    fn label(&self) -> &str {
        &self.label
    }
}

/// Outcome of a [`lifetime_campaign`]: one row per (configuration ×
/// drift scale × recovery policy), grouped by configuration, then scale,
/// then policy escalation order.
pub type LifetimeCampaignReport = CampaignReport<LifetimeCampaignConfig, LifetimeRow>;

impl LifetimeCampaignReport {
    /// The rows of one (configuration, recovery policy), in drift-scale
    /// order.
    pub fn policy_rows(&self, label: &str, policy: RecoveryPolicy) -> Vec<&LifetimeRow> {
        self.rows
            .iter()
            .filter(|r| r.label == label && r.policy == policy.label())
            .collect()
    }

    /// The campaign's acceptance headline: at *every* nonzero drift
    /// scale of *every* configuration, the full detect → recalibrate →
    /// remap cascade retains strictly higher SLO attainment and strictly
    /// higher end-to-end accuracy than running with no recovery at all.
    pub fn full_cascade_dominates(&self) -> bool {
        self.labels().iter().all(|label| {
            let no = self.policy_rows(label, RecoveryPolicy::NoRecovery);
            let full = self.policy_rows(label, RecoveryPolicy::FullCascade);
            no.iter().zip(&full).all(|(n, f)| {
                debug_assert_eq!(n.drift_scale, f.drift_scale);
                n.drift_scale == 0.0
                    || (f.slo_attainment > n.slo_attainment && f.accuracy > n.accuracy)
            })
        })
    }
}

/// Serving drift process for one campaign cell: the error growth scales
/// with the cell's drift rate, the breaker/remap knobs follow the
/// recovery policy, and a drift-free cell runs without health modeling
/// (all policies coincide there by construction).
fn campaign_health(seed: u64, scale: f64, policy: RecoveryPolicy) -> Option<HealthSpec> {
    (scale > 0.0).then(|| HealthSpec {
        err_ppm_per_ms: (6_000.0 * scale) as u64,
        // A threshold above 1000 milli can never be reached: the
        // no-recovery arm monitors nothing and never pauses.
        trip_milli: if policy.recalibrates() { 60 } else { 1001 },
        remap: policy.repairs(),
        seed: seed ^ 0xD21F7,
        ..HealthSpec::default()
    })
}

/// Sweep drift-rate scale × {homogeneous/tile-based, autohet/tile-shared}
/// deployment × recovery policy at a fixed lifetime epoch, end to end:
///
/// 1. each configuration's hardware is evaluated at hour `epoch_hours`
///    of a nominal drift trajectory scaled by the cell's rate
///    ([`EvalEngine::evaluate_degraded`]) under the cell's recovery arm —
///    stale references and degrade-only repair for no-recovery,
///    re-derived references for the recalibrating arms, spares + remap
///    for the full cascade;
/// 2. the epoch hardware is served under the *identical* seeded request
///    stream with the online drift process scaled to the cell's rate and
///    the health monitor armed per policy;
/// 3. each cell reports the cascade accounting, epoch cost, serving
///    outcome, and the combined accuracy axis.
///
/// Cells are evaluated with [`par_map`]; the report is bit-identical to
/// a sequential sweep because every cell is independent and seeded.
///
/// Panics before any work on a bad configuration: a non-positive or
/// non-finite load or request count, a zero replica count, an empty
/// sweep, or a negative or non-finite drift scale or epoch.
pub fn lifetime_campaign(model: &Model, cfg: &LifetimeCampaignConfig) -> LifetimeCampaignReport {
    let _span = autohet_obs::trace::span("study.lifetime_campaign");
    check_serving(cfg.load, cfg.requests, cfg.replicas);
    assert!(!cfg.drift_scales.is_empty(), "empty drift-scale sweep");
    assert!(
        cfg.drift_scales.iter().all(|s| s.is_finite() && *s >= 0.0),
        "drift_scales must be finite and non-negative, got {:?}",
        cfg.drift_scales
    );
    assert!(
        cfg.epoch_hours.is_finite() && cfg.epoch_hours >= 0.0,
        "epoch_hours must be finite and non-negative, got {}",
        cfg.epoch_hours
    );
    // The two corners: homogeneous/tile-based and autohet/tile-shared.
    let lineup = Lineup::compile(model, &[CONFIGS[0], CONFIGS[3]], cfg.load, 6.0);
    let wl = lineup.workload(cfg.seed, cfg.requests);
    let cells: Vec<(usize, f64)> = (0..lineup.members.len())
        .flat_map(|c| cfg.drift_scales.iter().map(move |&s| (c, s)))
        .collect();
    let groups = par_map(&cells, |&(c, scale)| {
        let _cell = autohet_obs::trace::span("study.lifetime_cell");
        let m = &lineup.members[c];
        // One drift-aware engine per (configuration, scale): the three
        // policy arms share its epoch memo, and each cell stays an
        // independent, seeded computation.
        let engine = EvalEngine::new(model.clone(), m.accel).with_drift(DriftEvalConfig {
            drift: DriftModel::nominal().with_rate_scale(scale),
            draws: cfg.draws,
            probes: cfg.probes,
            spares_per_tile: cfg.spares_per_tile,
            ..DriftEvalConfig::default()
        });
        RecoveryPolicy::ALL
            .iter()
            .map(|&policy| {
                let deg = engine.evaluate_degraded(&m.strategy, cfg.epoch_hours, policy);
                let deployment = m.healthy.with_degraded(&deg);
                let tenant = TenantSpec::new(m.label, deployment, lineup.rate, lineup.slo_ns);
                let serve = ShardConfig {
                    replicas_per_shard: cfg.replicas,
                    queue_depth: 32,
                    health: campaign_health(cfg.seed, scale, policy),
                    ..ShardConfig::default()
                };
                let report = run_sharded(&[tenant], &wl, &serve);
                let t = &report.tenants[0];
                LifetimeRow {
                    label: m.label.to_string(),
                    drift_scale: scale,
                    policy: policy.label().to_string(),
                    t_hours: cfg.epoch_hours,
                    fidelity: deg.fidelity,
                    hw_accuracy_proxy: deg.accuracy_proxy,
                    noise_dev: deg.robustness.mean_dev,
                    spared: deg.repair.spared,
                    remapped: deg.repair.remapped,
                    degraded: deg.repair.degraded,
                    energy_nj: deg.eval.energy_nj(),
                    latency_ns: deg.eval.latency_ns,
                    submitted: t.submitted,
                    completed: t.completed,
                    errored: t.errored,
                    slo_attainment: t.slo_attainment,
                    p99_ns: t.p99_ns,
                    clean_fraction: report.clean_fraction(),
                    trips: replica_total(&report, |s| s.trips),
                    recals: replica_total(&report, |s| s.recals),
                    remaps: replica_total(&report, |s| s.remaps),
                    recovery_ns: replica_total(&report, |s| s.recovery_ns),
                    accuracy: deg.accuracy_proxy * report.clean_fraction(),
                }
            })
            .collect::<Vec<_>>()
    });
    LifetimeCampaignReport {
        model: model.name.clone(),
        config: cfg.clone(),
        rows: groups.into_iter().flatten().collect(),
    }
}

/// Parameters of a [`robustness_study`] run. Everything — baseline
/// scoring, the NSGA-II trajectory, the Monte-Carlo noise draws —
/// derives from the seeds inside, so a study is a pure function of this
/// struct and the model.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct RobustnessStudyConfig {
    /// Accelerator configuration shared by every row.
    pub accel: AccelConfig,
    /// NSGA-II driver parameters.
    pub nsga: NsgaConfig,
    /// Device-variation oracle parameters (model, draws, probes, seed).
    pub noise: NoiseEvalConfig,
}

/// One scored mapping of the robustness study.
#[derive(Debug, Clone, PartialEq)]
pub struct RobustnessStudyRow {
    /// `"homogeneous/<rows>x<cols>"`, `"autohet/greedy"`, or
    /// `"nsga/front-<i>"`.
    pub label: String,
    /// Per-layer crossbar shapes.
    pub strategy: Vec<XbarShape>,
    /// Ideal-device inference energy \[nJ\].
    pub energy_nj: f64,
    /// Ideal-device inference latency \[ns\].
    pub latency_ns: f64,
    /// Mean normalized output deviation under device variation.
    pub noise_dev: f64,
    /// Classification-accuracy proxy under variation (1.0 = never flips).
    pub accuracy_proxy: f64,
    /// The paper's scalar RUE.
    pub rue: f64,
}

/// Outcome of a [`robustness_study`] on one model.
#[derive(Debug, Clone, PartialEq)]
pub struct RobustnessStudyReport {
    /// Model studied.
    pub model: String,
    /// Study parameters.
    pub config: RobustnessStudyConfig,
    /// Homogeneous baselines, the greedy AutoHet mapping, then the
    /// NSGA-II front in ascending-energy order.
    pub rows: Vec<RobustnessStudyRow>,
    /// NSGA-II per-generation trajectory (generation 0 = seeded).
    pub generations: Vec<GenerationStat>,
    /// Strategy evaluations the NSGA-II search performed.
    pub nsga_evaluations: u64,
    /// Label of the noise-blind winner (highest RUE across all rows —
    /// what the paper's scalar objective would deploy).
    pub noise_blind_label: String,
    /// Label of the noise-robust pick (lowest noise deviation, ties to
    /// the higher RUE).
    pub robust_label: String,
    /// Whether the two picks deploy *different* strategies — the study's
    /// headline: ideal-device search chooses noise-fragile hardware.
    pub picks_differ: bool,
}

impl RobustnessStudyReport {
    /// The row carrying `label`, if present.
    pub fn row(&self, label: &str) -> Option<&RobustnessStudyRow> {
        self.rows.iter().find(|r| r.label == label)
    }

    /// The noise-blind winner's row.
    pub fn noise_blind(&self) -> &RobustnessStudyRow {
        self.row(&self.noise_blind_label).expect("pick row exists")
    }

    /// The noise-robust pick's row.
    pub fn robust(&self) -> &RobustnessStudyRow {
        self.row(&self.robust_label).expect("pick row exists")
    }
}

fn robustness_row(
    label: String,
    strategy: Vec<XbarShape>,
    r: &NoisyEvalReport,
) -> RobustnessStudyRow {
    RobustnessStudyRow {
        label,
        energy_nj: r.eval.energy_nj(),
        latency_ns: r.eval.latency_ns,
        noise_dev: r.robustness.mean_dev,
        accuracy_proxy: r.robustness.accuracy_proxy,
        rue: r.eval.rue(),
        strategy,
    }
}

/// Score every homogeneous [`paper_hybrid_candidates`] baseline and the
/// noise-blind greedy AutoHet mapping under the device-variation oracle,
/// run the NSGA-II robustness search ([`crate::robust`]) on the same
/// shared noisy engine, and compare the noise-blind winner (highest RUE
/// anywhere) with the noise-robust pick (lowest noise deviation).
///
/// All rows share one memoized [`EvalEngine`], so each `(layer, shape)`
/// noise slice is Monte-Carlo'd exactly once; results are nevertheless
/// bit-identical to independent evaluations (the cache is transparent).
pub fn robustness_study(model: &Model, cfg: &RobustnessStudyConfig) -> RobustnessStudyReport {
    let _span = autohet_obs::trace::span("study.robustness");
    let candidates = paper_hybrid_candidates();
    let engine = Arc::new(EvalEngine::new(model.clone(), cfg.accel).with_noise(cfg.noise));

    let mut rows: Vec<RobustnessStudyRow> = par_map(&candidates, |&shape| {
        let strategy = vec![shape; model.layers.len()];
        let r = engine.evaluate_noisy(&strategy);
        robustness_row(
            format!("homogeneous/{}x{}", shape.rows, shape.cols),
            strategy,
            &r,
        )
    });
    let greedy = greedy_layerwise_rue_with_engine(&engine, &candidates).strategy;
    let r = engine.evaluate_noisy(&greedy);
    rows.push(robustness_row("autohet/greedy".into(), greedy, &r));

    let outcome = nsga_search(Arc::clone(&engine), &candidates, &cfg.nsga);
    rows.extend(
        outcome
            .front
            .iter()
            .enumerate()
            .map(|(i, p)| RobustnessStudyRow {
                label: format!("nsga/front-{i}"),
                strategy: p.strategy.clone(),
                energy_nj: p.energy_nj,
                latency_ns: p.latency_ns,
                noise_dev: p.noise_dev,
                accuracy_proxy: p.accuracy_proxy,
                rue: p.rue,
            }),
    );

    // The noise-blind winner is what the paper's scalar search deploys:
    // best RUE, variation never consulted. The robust pick minimizes the
    // noise axis (ties to the higher RUE). First match wins each tie, so
    // baseline labels are preferred over duplicated front points.
    let blind = rows
        .iter()
        .reduce(|best, r| if r.rue > best.rue { r } else { best })
        .expect("study has rows");
    let robust = rows
        .iter()
        .reduce(|best, r| {
            let better =
                r.noise_dev < best.noise_dev || (r.noise_dev == best.noise_dev && r.rue > best.rue);
            if better {
                r
            } else {
                best
            }
        })
        .expect("study has rows");
    let picks_differ = blind.strategy != robust.strategy;
    let (noise_blind_label, robust_label) = (blind.label.clone(), robust.label.clone());
    RobustnessStudyReport {
        model: model.name.clone(),
        config: *cfg,
        rows,
        generations: outcome.history,
        nsga_evaluations: outcome.evaluations,
        noise_blind_label,
        robust_label,
        picks_differ,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use autohet_dnn::zoo;
    use autohet_xbar::geometry::paper_hybrid_candidates;

    #[test]
    fn adc_sweep_trades_energy_for_losslessness() {
        let m = zoo::vgg16();
        let strategy = vec![XbarShape::new(576, 512); m.layers.len()];
        let pts = adc_resolution_sweep(&m, &strategy, &[6, 8, 10, 12]);
        assert_eq!(pts.len(), 4);
        // Energy and area grow with resolution (×2 per bit).
        for w in pts.windows(2) {
            assert!(w[1].energy_nj > w[0].energy_nj);
            assert!(w[1].area_um2 > w[0].area_um2);
        }
        // The paper's 10 bits is the first lossless setting for 576 rows.
        assert!(!pts[0].lossless && !pts[1].lossless);
        assert!(pts[2].lossless && pts[3].lossless);
        assert_eq!(pts[2].bits, 10);
    }

    #[test]
    fn paper_height_family_wins_on_vgg16() {
        let fams = rxb_height_study(&zoo::vgg16(), 64);
        let paper = fams
            .iter()
            .find(|f| f.label.contains("paper"))
            .unwrap()
            .mean_utilization;
        for f in &fams {
            assert!(
                paper >= f.mean_utilization - 1e-12,
                "{} ({}) beats the paper family ({paper})",
                f.label,
                f.mean_utilization
            );
        }
        // And it is a real win over power-of-two heights.
        let pow2 = fams[0].mean_utilization;
        assert!(paper > pow2 * 1.02, "paper {paper} vs pow2 {pow2}");
    }

    #[test]
    fn joint_sharing_dominates_per_model_sharing() {
        let models = vec![zoo::alexnet(), zoo::micro_cnn(), zoo::test_cnn()];
        let r = multi_model_sharing_study(&models, XbarShape::new(72, 64), 4);
        assert!(r.tiles_per_model <= r.tiles_unshared);
        assert!(r.tiles_joint <= r.tiles_per_model);
    }

    #[test]
    fn serving_study_rows_share_identical_load() {
        let rows = serving_study(&zoo::micro_cnn(), 0.9, 7);
        assert_eq!(rows.len(), 4);
        assert!(rows.iter().all(|r| r.submitted == rows[0].submitted));
        assert!(rows.iter().all(|r| (0.0..=1.0).contains(&r.slo_attainment)));
        assert!(rows.iter().all(|r| r.energy_nj > 0.0));
    }

    fn small_campaign() -> FaultCampaignConfig {
        FaultCampaignConfig {
            fault_rates: vec![0.0, 0.1, 0.3],
            seed: 11,
            load: 0.6,
            requests: 400.0,
            spares_per_tile: 1,
            replicas: 2,
        }
    }

    #[test]
    fn fault_campaign_is_deterministic_and_complete() {
        let m = zoo::micro_cnn();
        let cfg = small_campaign();
        let a = fault_campaign(&m, &cfg);
        let b = fault_campaign(&m, &cfg);
        assert_eq!(a, b, "same seed must reproduce the campaign bit-exactly");
        assert_eq!(a.rows.len(), 4 * cfg.fault_rates.len());
        assert_eq!(a.labels().len(), 4);
        // Identical offered load in every cell.
        assert!(a.rows.iter().all(|r| r.submitted == a.rows[0].submitted));
    }

    #[test]
    fn fault_campaign_degrades_monotonically_with_rate() {
        let m = zoo::micro_cnn();
        let r = fault_campaign(&m, &small_campaign());
        for label in r.labels() {
            let rows = r.rows_for(label);
            for w in rows.windows(2) {
                assert!(
                    w[1].energy_nj >= w[0].energy_nj - 1e-9,
                    "{label}: energy shrank from rate {} to {}",
                    w[0].fault_rate,
                    w[1].fault_rate
                );
                assert!(
                    w[1].fidelity <= w[0].fidelity + 1e-12,
                    "{label}: fidelity rose from rate {} to {}",
                    w[0].fault_rate,
                    w[1].fault_rate
                );
            }
            let healthy = rows.first().unwrap();
            let worst = rows.last().unwrap();
            assert_eq!(healthy.fault_rate, 0.0);
            assert_eq!(healthy.downtime_ns, 0);
            assert_eq!(healthy.failed, 0);
            assert!(worst.slo_attainment <= healthy.slo_attainment);
            assert!(worst.downtime_ns > 0, "{label}: no outages at rate 0.3");
        }
    }

    #[test]
    fn fault_campaign_rate_zero_matches_healthy_serving() {
        let m = zoo::micro_cnn();
        let mut cfg = small_campaign();
        cfg.fault_rates = vec![0.0];
        let r = fault_campaign(&m, &cfg);
        for row in &r.rows {
            assert_eq!(row.fidelity, 1.0);
            assert_eq!(row.spared + row.remapped + row.degraded, 0);
            assert_eq!(row.failed, 0);
            assert_eq!(row.degraded_completed, 0);
        }
    }

    fn small_lifetime() -> LifetimeCampaignConfig {
        LifetimeCampaignConfig {
            drift_scales: vec![0.0, 1.0, 4.0],
            epoch_hours: 3_000.0,
            seed: 11,
            load: 0.6,
            requests: 400.0,
            spares_per_tile: 1,
            replicas: 2,
            draws: 2,
            probes: 2,
        }
    }

    #[test]
    fn lifetime_campaign_is_deterministic_and_complete() {
        let m = zoo::micro_cnn();
        let cfg = small_lifetime();
        let a = lifetime_campaign(&m, &cfg);
        let b = lifetime_campaign(&m, &cfg);
        assert_eq!(a, b, "same seed must reproduce the campaign bit-exactly");
        assert_eq!(a.rows.len(), 2 * cfg.drift_scales.len() * 3);
        assert_eq!(a.labels().len(), 2);
        // Identical offered load in every cell.
        assert!(a.rows.iter().all(|r| r.submitted == a.rows[0].submitted));
        for label in a.labels() {
            for policy in RecoveryPolicy::ALL {
                assert_eq!(
                    a.policy_rows(label, policy).len(),
                    cfg.drift_scales.len(),
                    "{label}/{}",
                    policy.label()
                );
            }
        }
    }

    #[test]
    fn lifetime_campaign_drift_free_cells_are_policy_invariant() {
        let m = zoo::micro_cnn();
        let r = lifetime_campaign(&m, &small_lifetime());
        for label in r.labels() {
            let zero: Vec<_> = r
                .rows_for(label)
                .into_iter()
                .filter(|row| row.drift_scale == 0.0)
                .collect();
            assert_eq!(zero.len(), 3);
            for row in &zero {
                assert_eq!(row.fidelity, 1.0, "{label}/{}", row.policy);
                assert_eq!(row.errored, 0);
                assert_eq!(row.trips, 0);
                assert_eq!(row.clean_fraction, 1.0);
                // The serving half is identical across arms at scale 0.
                assert_eq!(row.slo_attainment, zero[0].slo_attainment);
                assert_eq!(row.accuracy, zero[0].accuracy);
            }
        }
    }

    #[test]
    fn lifetime_campaign_full_cascade_beats_no_recovery_everywhere() {
        // The PR's acceptance bar: strictly higher SLO attainment AND
        // strictly higher end-to-end accuracy at every nonzero drift
        // rate, for every deployment configuration, under a fixed seed.
        let m = zoo::micro_cnn();
        let r = lifetime_campaign(&m, &small_lifetime());
        assert!(r.full_cascade_dominates());
        for label in r.labels() {
            let no = r.policy_rows(label, RecoveryPolicy::NoRecovery);
            let full = r.policy_rows(label, RecoveryPolicy::FullCascade);
            for (n, f) in no.iter().zip(&full).filter(|(n, _)| n.drift_scale > 0.0) {
                assert!(
                    f.slo_attainment > n.slo_attainment,
                    "{label} scale {}: SLO {} vs {}",
                    n.drift_scale,
                    f.slo_attainment,
                    n.slo_attainment
                );
                assert!(
                    f.accuracy > n.accuracy,
                    "{label} scale {}: accuracy {} vs {}",
                    n.drift_scale,
                    f.accuracy,
                    n.accuracy
                );
                // The cascade actually ran: recoveries happened online.
                assert!(f.trips > 0, "{label} scale {}", n.drift_scale);
                assert!(f.recals + f.remaps > 0);
                assert_eq!(n.trips, 0, "no-recovery must never trip");
                assert_eq!(n.recals + n.remaps, 0);
                // And the stale readout is measurably noisier.
                assert!(n.noise_dev >= f.noise_dev);
            }
        }
    }

    #[test]
    #[should_panic(expected = "drift_scales must be finite and non-negative")]
    fn lifetime_campaign_rejects_a_negative_drift_scale() {
        let cfg = LifetimeCampaignConfig {
            drift_scales: vec![0.0, -1.0],
            ..small_lifetime()
        };
        lifetime_campaign(&zoo::micro_cnn(), &cfg);
    }

    #[test]
    #[should_panic(expected = "epoch_hours must be finite and non-negative")]
    fn lifetime_campaign_rejects_a_non_finite_epoch() {
        let cfg = LifetimeCampaignConfig {
            epoch_hours: f64::NAN,
            ..small_lifetime()
        };
        lifetime_campaign(&zoo::micro_cnn(), &cfg);
    }

    #[test]
    #[should_panic(expected = "requests must be finite and positive")]
    fn lifetime_campaign_rejects_zero_requests() {
        let cfg = LifetimeCampaignConfig {
            requests: 0.0,
            ..small_lifetime()
        };
        lifetime_campaign(&zoo::micro_cnn(), &cfg);
    }

    #[test]
    #[should_panic(expected = "load must be finite and positive")]
    fn lifetime_campaign_rejects_an_infinite_load() {
        let cfg = LifetimeCampaignConfig {
            load: f64::INFINITY,
            ..small_lifetime()
        };
        lifetime_campaign(&zoo::micro_cnn(), &cfg);
    }

    #[test]
    #[should_panic(expected = "fault_rates must lie in [0, 1]")]
    fn fault_campaign_rejects_a_nan_fault_rate() {
        let cfg = FaultCampaignConfig {
            fault_rates: vec![0.0, f64::NAN],
            ..small_campaign()
        };
        fault_campaign(&zoo::micro_cnn(), &cfg);
    }

    #[test]
    #[should_panic(expected = "requests must be finite and positive")]
    fn fault_campaign_rejects_zero_requests() {
        let cfg = FaultCampaignConfig {
            requests: 0.0,
            ..small_campaign()
        };
        fault_campaign(&zoo::micro_cnn(), &cfg);
    }

    #[test]
    #[should_panic(expected = "load must be finite and positive")]
    fn fault_campaign_rejects_an_infinite_load() {
        let cfg = FaultCampaignConfig {
            load: f64::INFINITY,
            ..small_campaign()
        };
        fault_campaign(&zoo::micro_cnn(), &cfg);
    }

    fn small_robustness() -> RobustnessStudyConfig {
        RobustnessStudyConfig {
            nsga: NsgaConfig {
                population: 8,
                generations: 2,
                seed: 5,
                ..NsgaConfig::default()
            },
            noise: NoiseEvalConfig {
                draws: 2,
                probes: 2,
                ..NoiseEvalConfig::default()
            },
            ..RobustnessStudyConfig::default()
        }
    }

    #[test]
    fn robustness_study_is_deterministic_and_complete() {
        let m = zoo::micro_cnn();
        let cfg = small_robustness();
        let a = robustness_study(&m, &cfg);
        let b = robustness_study(&m, &cfg);
        assert_eq!(a, b, "same seeds must reproduce the study bit-exactly");
        let n_candidates = paper_hybrid_candidates().len();
        // One row per homogeneous baseline, the greedy mapping, and a
        // non-empty NSGA front.
        assert!(a.rows.len() > n_candidates + 1);
        assert!(a.row("autohet/greedy").is_some());
        assert!(a.row("nsga/front-0").is_some());
        assert_eq!(a.generations.len(), cfg.nsga.generations + 1);
        assert!(a.nsga_evaluations > 0);
        for r in &a.rows {
            assert_eq!(r.strategy.len(), m.layers.len());
            assert!(r.energy_nj > 0.0 && r.latency_ns > 0.0);
            assert!(r.noise_dev >= 0.0 && (0.0..=1.0).contains(&r.accuracy_proxy));
        }
        // The picks resolve to real rows and honour their definitions.
        let blind = a.noise_blind();
        let robust = a.robust();
        assert!(a.rows.iter().all(|r| r.rue <= blind.rue));
        assert!(a.rows.iter().all(|r| r.noise_dev >= robust.noise_dev));
        assert_eq!(a.picks_differ, blind.strategy != robust.strategy);
    }

    #[test]
    fn robust_pick_diverges_from_noise_blind_winner() {
        // The acceptance bar of DESIGN.md §11: under the HyperMetric
        // deviations, the best-RUE mapping is not the most noise-robust
        // one, so a noise-blind search deploys fragile hardware.
        let r = robustness_study(&zoo::micro_cnn(), &small_robustness());
        assert!(
            r.picks_differ,
            "noise-blind {} and robust {} deploy the same strategy",
            r.noise_blind_label, r.robust_label
        );
        assert!(r.robust().noise_dev < r.noise_blind().noise_dev);
    }

    #[test]
    fn adc_sweep_uses_strategy_specific_worst_case() {
        let m = zoo::micro_cnn();
        let strategy = vec![XbarShape::square(32); m.layers.len()];
        let pts = adc_resolution_sweep(&m, &strategy, &[6]);
        // 32 rows fit a 6-bit ADC (max 63).
        assert_eq!(pts[0].worst_case_level, 32);
        assert!(pts[0].lossless);
        let _ = paper_hybrid_candidates();
    }
}

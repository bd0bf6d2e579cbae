//! # AutoHet — automated heterogeneous ReRAM-based accelerator search
//!
//! A from-scratch Rust reproduction of *AutoHet: An Automated Heterogeneous
//! ReRAM-Based Accelerator for DNN Inference* (ICPP '24). AutoHet assigns
//! each DNN layer its own crossbar shape — square or rectangle — using a
//! DDPG reinforcement-learning agent whose reward balances crossbar
//! utilization against energy, and packs multiple layers into shared tiles
//! (Algorithm 1) to eliminate allocation waste.
//!
//! ## Quick start
//!
//! ```
//! use autohet::prelude::*;
//!
//! let model = autohet_dnn::zoo::micro_cnn();
//! let cfg = AccelConfig::default().with_tile_sharing();
//! let search = RlSearchConfig { episodes: 40, ..RlSearchConfig::default() };
//! let outcome = rl_search(&model, &paper_hybrid_candidates(), &cfg, &search);
//! let best_homo = best_homogeneous(&model, &AccelConfig::default()).1;
//! assert!(outcome.best_report.rue() >= best_homo.rue() * 0.9);
//! ```
//!
//! ## Layout
//!
//! - [`env`](mod@env): the RL environment — the paper's Eq. 1 state vector and
//!   Eq. 2 reward over hardware feedback.
//! - [`search`]: strategy search drivers — [`search::rl`] (the paper),
//!   plus greedy / random / exhaustive comparators. One DDPG driver,
//!   [`search::rl::rl_search_vec_with_stats`], runs any lane count;
//!   [`search::rl::rl_search`] is that driver at one lane on a fresh
//!   engine.
//! - [`vec_env`]: lockstep vectorized environments behind the DDPG
//!   driver — N episodes share one batched actor pass, then are
//!   evaluated in lane order.
//! - [`homogeneous`]: the five fixed-size baselines and Fig. 3's manual
//!   heterogeneous configuration.
//! - [`ablation`]: the §4.3 Base / +He / +Hy / All study.
//! - [`sensitivity`]: the §4.4 sweeps (SXB:RXB ratio, candidate count,
//!   PEs per tile).
//! - The parallel sweep drivers fan out with [`autohet_accel::par_map`],
//!   scoped threads in input order; every search reuses one memoized
//!   [`EvalEngine`].
//! - [`robust`]: NSGA-II multi-objective search producing energy ×
//!   latency × noise-robustness Pareto fronts over the device-variation
//!   oracle (DESIGN.md §11).
//! - [`studies`]: beyond-paper ablations, including
//!   [`studies::serving_study`] — searched strategies behind the
//!   `autohet-serve` multi-tenant queueing simulator.
//! - [`telemetry`]: bridges from search histories to the `autohet-obs`
//!   observability substrate (episode time series, metric mirroring).

pub mod ablation;
pub mod env;
pub mod homogeneous;
pub mod multi_model;
pub mod pareto;
pub mod persist;
pub mod robust;
pub mod search;
pub mod sensitivity;
pub mod studies;
pub mod telemetry;
pub mod vec_env;

/// Everything a typical user needs.
pub mod prelude {
    pub use crate::ablation::{run_ablation, AblationStage};
    pub use crate::env::AutoHetEnv;
    pub use crate::homogeneous::{
        best_homogeneous, best_homogeneous_with_engine, homogeneous_reports,
        homogeneous_reports_with_engine, manual_hetero_vgg16,
    };
    pub use crate::robust::{
        nsga_search, nsga_search_with_engine, GenerationStat, NsgaConfig, RobustPoint,
        RobustSearchOutcome,
    };
    pub use crate::search::annealing::{
        annealing_search, annealing_search_with_engine, AnnealingConfig, AnnealingOutcome,
    };
    pub use crate::search::dqn::{
        dqn_search, dqn_search_with_engine, DqnSearchConfig, DqnSearchOutcome,
    };
    pub use crate::search::exhaustive::exhaustive_search;
    pub use crate::search::greedy::{
        greedy_layerwise_rue, greedy_layerwise_rue_with_engine, greedy_utilization,
        greedy_utilization_with_engine, GreedyOutcome,
    };
    pub use crate::search::random::{random_search, random_search_with_engine};
    pub use crate::search::rl::{
        rl_search, rl_search_vec_tapped, rl_search_vec_with_stats, EpisodeRecord, RlSearchConfig,
        SearchOutcome, SearchTap, SearchTiming, VecSearchStats,
    };
    pub use crate::studies::{
        fault_campaign, lifetime_campaign, robustness_study, serving_study, FaultCampaignConfig,
        FaultCampaignReport, FaultCampaignRow, LifetimeCampaignConfig, LifetimeCampaignReport,
        LifetimeRow, RobustnessStudyConfig, RobustnessStudyReport, RobustnessStudyRow,
    };
    pub use crate::telemetry::{
        episode_series, front_series, publish_episode_history, publish_robust_search,
        publish_vec_search, vec_occupancy_series, EpisodeStream, StallDetector, EPISODE_COLUMNS,
        FRONT_COLUMNS, REWARD_STALL_RULE,
    };
    pub use crate::vec_env::{VecEnv, VecEpisode};
    pub use autohet_accel::par_map;
    pub use autohet_accel::{
        evaluate, AccelConfig, DegradationMode, DegradationState, DegradedEvalReport,
        DriftEvalConfig, EngineStats, EvalEngine, EvalReport, FaultedEvalReport, NoiseEvalConfig,
        NoisyEvalReport, RecoveryPolicy, RepairPolicy, RobustnessReport,
    };
    pub use autohet_serve::{
        alert_timeline, jain_index, publish_report, run_sharded, run_sharded_reference,
        run_sharded_threaded, window_series, AutoscaleSpec, BurstSpec, Deployment, FailureSpec,
        HealthEvent, HealthEventKind, HealthSpec, LatencyHistogram, RampSpec, ScaleEvent,
        ShardConfig, ShardServingReport, ShardTenantStats, StealSpec, SwapEvent, SwapSpec,
        TenantSpec, Workload,
    };
    pub use autohet_xbar::fault::{FaultMap, FaultRates};
    pub use autohet_xbar::geometry::{
        all_candidates, mixed_candidates, paper_hybrid_candidates, RECT_CANDIDATES,
        SQUARE_CANDIDATES,
    };
    pub use autohet_xbar::DriftModel;
    pub use autohet_xbar::{VariationModel, XbarShape};
}

pub use prelude::*;

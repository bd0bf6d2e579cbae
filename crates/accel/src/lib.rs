//! Heterogeneous ReRAM accelerator model.
//!
//! This crate assembles the crossbar substrate (`autohet-xbar`) into the
//! paper's accelerator (Fig. 6, right): banks of tiles, four PEs per tile
//! by default, one logical crossbar per PE (eight physical 1-bit slices).
//! Crossbars within a tile are homogeneous; different tiles may carry
//! different crossbar shapes — that is the crossbar-level heterogeneity
//! AutoHet searches over.
//!
//! - [`hierarchy`]: accelerator configuration and tile bookkeeping.
//! - [`mapping`]: how a layer's unfolded weight matrix splits into
//!   crossbar-grid blocks (the geometry behind Eq. 4).
//! - [`alloc`]: the baseline *tile-based* allocator (one layer per tile,
//!   round-up — §2.2.2's wasteful scheme).
//! - [`tile_shared`]: the paper's Algorithm 1 — two-pointer tile
//!   combination that remaps multiple layers into shared tiles.
//! - [`metrics`]: whole-model evaluation: utilization, itemized energy,
//!   latency, area, and the paper's RUE metric.
//! - [`engine`]: memoized evaluation — per-(layer, shape) cost slices and
//!   a bounded strategy cache that make repeated search feedback cheap
//!   while staying bit-identical to [`metrics::evaluate`].
//! - [`controller`]: the global controller — programs weights into
//!   functional crossbars and runs *numerical* inference through them.
//! - [`repair`]: repair-aware remapping of an allocation onto faulted
//!   hardware (spares → remap → documented degradation), consumed by
//!   [`engine::EvalEngine::evaluate_faulted`].
//! - [`robustness`]: the accuracy-under-noise oracle — Monte-Carlo
//!   device-variation scoring per (layer, shape), surfaced through
//!   [`engine::EvalEngine::evaluate_noisy`].
//! - [`degradation`]: unified lifetime degradation (DESIGN.md §12) —
//!   hard faults + variation + drift resolved per epoch, the extended
//!   *recalibrate → remap → degrade* cascade, surfaced through
//!   [`engine::EvalEngine::evaluate_degraded`].

pub mod alloc;
pub mod controller;
pub mod degradation;
pub mod engine;
pub mod hierarchy;
pub mod mapping;
pub mod metrics;
pub mod par;
pub mod pipeline;
pub mod repair;
pub mod robustness;
pub mod tile_shared;

pub use alloc::{allocate_tile_based, Allocation, LayerPlacement};
pub use controller::{MappedLayer, MappedModel};
pub use degradation::{DegradationState, DegradedEvalReport, DriftEvalConfig, RecoveryPolicy};
pub use engine::{EngineStats, EvalEngine, FaultedEvalReport, NoisyEvalReport};
pub use hierarchy::{AccelConfig, Tile};
pub use metrics::{evaluate, EvalReport, LayerCost, LayerReport};
pub use par::par_map;
pub use pipeline::{
    balance_replication, pipeline_report, replicated_stages, PipelineReport, ReplicationPlan,
};
pub use repair::{repair_allocation, DegradationMode, LayerDamage, RepairPolicy, RepairReport};
pub use robustness::{layer_noise, LayerNoise, NoiseEvalConfig, RobustnessReport};
pub use tile_shared::apply_tile_sharing;

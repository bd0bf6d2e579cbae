//! # autohet-serve — deterministic multi-tenant inference serving
//!
//! The search crates answer *"what accelerator should we build?"*; this
//! crate answers *"how does that accelerator behave as a service?"*. It
//! simulates an inference-serving deployment — per-tenant request queues,
//! batching, admission control, replicated accelerator instances — on top
//! of the analytical cost model: a [`Deployment`] compiles a
//! (model, strategy, [`AccelConfig`](autohet_accel::AccelConfig)) triple
//! into batch service times (via
//! [`PipelineReport`](autohet_accel::PipelineReport)) and per-request
//! energy (via [`EvalReport`](autohet_accel::EvalReport)).
//!
//! ## Model
//!
//! - **Time** is integer nanoseconds (`u64`) of virtual time; nothing
//!   depends on wall clocks, so every run is exactly reproducible.
//! - **Arrivals** are open-loop Poisson processes, one seeded
//!   [`SmallRng`](rand::rngs::SmallRng) stream per tenant, optionally
//!   modulated by a periodic [`BurstSpec`] or a [`RampSpec`] drift.
//! - **Queues** are per-tenant, in arrival order. An arrival that finds
//!   its tenant's queue at the configured depth bound is *shed* (counted
//!   as rejected).
//! - **Batching**: a tenant's queue becomes dispatchable when it holds
//!   `max_batch` requests or its oldest request has waited
//!   `batch_window_ns`. A dispatch drains up to `max_batch` requests into
//!   one batch; batch latency is the pipeline's
//!   `fill + (n − 1) × bottleneck` law.
//! - **Replicas** are identical accelerator instances. Each batch goes to
//!   the earliest-free replica (ties: lowest replica id); among
//!   dispatchable tenants, deficit round-robin over per-tenant weights
//!   ([`TenantSpec::weight`]) picks the batch ([`DrrRing`]).
//! - **Failures** (optional): replica instances fail and recover on a
//!   seeded alternating renewal schedule ([`FailureSpec`] →
//!   [`FailurePlan`]). A down replica is skipped at dispatch time
//!   (failover to survivors); a batch interrupted mid-service is killed
//!   and its requests retried — back at the queue front, keeping arrival
//!   order — unless their retry deadline has passed, in which case they
//!   count as failed. Completed requests that survived a kill are
//!   reported per tenant as `degraded_completed`.
//! - **Drift & recovery** (optional): with a [`HealthSpec`] configured,
//!   each replica accumulates conductance drift — per-request result
//!   corruption whose probability grows with the time since the last
//!   recalibration. An online monitor EWMAs each replica's batch error
//!   fraction and trips a circuit breaker, taking the replica through
//!   bounded recalibration retries (exponential backoff) and an optional
//!   remap escalation while load sheds to the healthy replicas. Errored
//!   completions are reported per tenant and count as SLO violations.
//!
//! ## One engine, three drivers
//!
//! [`run_sharded`] runs the model on shard-local schedulers: tenants
//! partition across shards with their own queues, clocks, replica pools
//! and replica health, and all cross-shard coupling — work stealing,
//! telemetry-driven replica autoscaling, online strategy swap on
//! workload-mix drift — happens at deterministic epoch barriers, which
//! also cut the per-window telemetry. One shard with `n` replicas is the
//! classic single-queue-set deployment. The heap-mode scheduler, the
//! linear-scan reference ([`run_sharded_reference`]), and the
//! epoch-parallel driver ([`run_sharded_threaded`]) are bit-identical;
//! see [`shard`] for the architecture and determinism argument.
//!
//! ## Simplifications
//!
//! Host-side overheads (RPC, pre/post-processing) are out of scope; a
//! request's energy is its deployment's single-inference energy; weights
//! for all tenants are assumed resident (ReRAM weight programming is a
//! deploy-time cost, §4.5 of the paper).

pub mod deploy;
pub mod drr;
pub mod failure;
pub mod parallel;
pub mod ready;
pub mod report;
pub mod shard;
pub mod sim;
pub mod telemetry;
pub mod workload;

pub use deploy::Deployment;
pub use drr::{DrrAccess, DrrRing};
pub use failure::{FailurePlan, FailureSpec, Outage};
pub use parallel::run_sharded_threaded;
pub use ready::{ReplicaPool, StampedHeap};
pub use report::{jain_index, LatencyHistogram, WindowStats};
pub use shard::{
    run_sharded, run_sharded_reference, AutoscaleSpec, EpochSignal, ScaleEvent, SelectMode,
    ShardConfig, ShardServingReport, ShardStats, ShardTenantStats, StealEvent, StealSpec,
    SwapEvent, SwapSpec,
};
pub use sim::{HealthEvent, HealthEventKind, HealthSpec};
pub use telemetry::{alert_timeline, publish_report, window_series};
pub use workload::{tenant_arrivals, BurstSpec, RampSpec, TenantSpec, Workload};

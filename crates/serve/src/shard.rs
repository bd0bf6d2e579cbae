//! The serving engine: shard-local schedulers with deficit-round-robin
//! tenant fairness, replica failures and drift health, work stealing,
//! telemetry-driven autoscaling, and online strategy swap — all
//! deterministic in simulated time.
//!
//! # Architecture
//!
//! Tenants are partitioned across `shards` shard-local schedulers
//! (`gid % shards`). Each shard owns its tenants' arrival streams,
//! queues, a deficit-round-robin ring of backlogged tenants, and a
//! replica table: one row per local replica with its free time,
//! retirement, outage schedule and drift health. A shard advances its
//! own clock with an ingest-before-dispatch recurrence: arrivals at or
//! before the next dispatch instant are admitted (or shed) first; then
//! the earliest-free replica (ties: lowest id) takes one batch from the
//! tenant deficit round-robin selects. A replica that is down fails
//! over, a batch an outage interrupts is killed and its requests
//! retried, and a completed batch feeds the replica's circuit breaker.
//! With one tenant, DRR picks exactly the batch oldest-head FIFO would.
//!
//! The simulated horizon is cut into `epochs` equal windows. *Within* an
//! epoch shards are fully independent — that is what makes the
//! epoch-parallel driver embarrassingly parallel — and every coupling
//! mechanism runs at the deterministic epoch barrier, in a fixed order:
//!
//! 1. **settle** — every shard's queue-depth integral is settled to the
//!    barrier instant;
//! 2. **steal** — idle shards (backlog ≤ `max_thief_backlog`, a replica
//!    free by the barrier) steal the most backlogged tenant from the
//!    most backlogged shards (backlog ≥ `min_victim_backlog`), one
//!    whole-tenant migration per thief: queue, arrival cursor, deficit
//!    and statistics move atomically, so no request is lost or reordered
//!    within its tenant;
//! 3. **autoscale** — an [`AlertEngine`] consumes the epoch's mean
//!    queue depth and SLO attainment (the same pending → firing →
//!    resolved hysteresis discipline as `obs::alert`) and adds a replica
//!    to the most backlogged shard or retires the highest-id replica of
//!    the least backlogged one, within bounds and a cooldown;
//! 4. **swap** — a tenant with an [`alt_deployment`] whose share of the
//!    epoch's arrivals drifted past `share_factor ×` its long-run share
//!    is remapped onto the alternative strategy (ARAS-style): the
//!    owning shard's earliest-free replica takes a `remap_ns` pause
//!    starting no earlier than the barrier, so in-flight batches drain
//!    first, and the switch applies to every subsequent batch.
//!
//! # Determinism
//!
//! Everything is integer arithmetic on pre-generated arrival streams,
//! pre-generated outage schedules and keyed health rolls. Within an
//! epoch a shard touches only its own state; barrier steps iterate
//! shards and tenants in ascending id order. Consequently the
//! epoch-parallel driver is *bit-identical* to the sequential one — the
//! only nondeterminism a thread schedule could introduce is the order
//! in which independent shards are stepped, and shard state composes
//! commutatively at the barrier. The linear-scan reference
//! ([`run_sharded_reference`]) makes every choice by an O(tenants) or
//! O(replicas) scan; heap mode makes the same choices through
//! lazy-deletion heaps (the replica table's free-time heap, the tenant
//! ready-heap) with the scan's tie-breaks, so all three drivers produce
//! identical reports. All three run one epoch loop; they differ only in
//! the selection mode and in how shards are stepped between barriers.
//!
//! [`alt_deployment`]: crate::workload::TenantSpec::alt_deployment

use crate::drr::{DrrAccess, DrrRing};
use crate::failure::FailureSpec;
use crate::ready::StampedHeap;
use crate::replica::{HealthEvent, HealthSpec, ReplicaHealth, ReplicaTable};
use crate::report::{jain_index, percentile, LatencyHistogram, WindowStats};
use crate::workload::{tenant_arrivals, TenantSpec, Workload};
use autohet_obs::alert::{AlertEngine, AlertRule, ThresholdRule};
use serde::{Deserialize, Serialize};
use std::cmp::Reverse;
use std::collections::binary_heap::PeekMut;
use std::collections::{BinaryHeap, VecDeque};

/// Alert-rule name the autoscaler fires to add replicas.
pub const SCALE_UP_RULE: &str = "serve.scale_up";
/// Alert-rule name the autoscaler fires to drain replicas.
pub const SCALE_DOWN_RULE: &str = "serve.scale_down";

/// How the scheduler finds minima: the faithful linear scans of the
/// original event loop ([`run_sharded_reference`]), or the heap-backed
/// structures that replace them. Both modes make identical decisions;
/// they differ only in cost.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum SelectMode {
    /// O(tenants)/O(replicas) scans per event — the reference.
    LinearScan,
    /// O(log) lazy-deletion heaps with the scan's exact tie-breaks.
    Heap,
}

/// Work-stealing policy evaluated at every epoch barrier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct StealSpec {
    /// A shard is a victim when its backlog is at least this many
    /// queued requests.
    pub min_victim_backlog: usize,
    /// A shard is a thief when its backlog is at most this many queued
    /// requests (and one of its replicas is free by the barrier).
    pub max_thief_backlog: usize,
}

impl Default for StealSpec {
    fn default() -> Self {
        StealSpec {
            min_victim_backlog: 16,
            max_thief_backlog: 0,
        }
    }
}

/// Telemetry-driven replica autoscaling, evaluated at epoch barriers
/// through an [`AlertEngine`] with threshold hysteresis.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AutoscaleSpec {
    /// Scale up when the epoch mean queue depth exceeds this.
    pub high_depth: f64,
    /// Scale down when the epoch mean queue depth drops below this.
    pub low_depth: f64,
    /// Consecutive breaching epochs before a rule fires.
    pub for_epochs: usize,
    /// Consecutive clean epochs before a firing rule resolves.
    pub clear_epochs: usize,
    /// Total active replicas never drops below this.
    pub min_replicas: usize,
    /// Total active replicas never exceeds this.
    pub max_replicas: usize,
    /// Barriers to wait after a scaling action before the next one.
    pub cooldown_epochs: usize,
}

impl Default for AutoscaleSpec {
    fn default() -> Self {
        AutoscaleSpec {
            high_depth: 8.0,
            low_depth: 1.0,
            for_epochs: 2,
            clear_epochs: 2,
            min_replicas: 1,
            max_replicas: 64,
            cooldown_epochs: 1,
        }
    }
}

impl AutoscaleSpec {
    /// A NaN depth threshold would silently disable its rule.
    fn validate(&self) {
        assert!(
            self.high_depth.is_finite(),
            "autoscale.high_depth must be finite, got {}",
            self.high_depth
        );
        assert!(
            self.low_depth.is_finite(),
            "autoscale.low_depth must be finite, got {}",
            self.low_depth
        );
        assert!(
            self.min_replicas <= self.max_replicas,
            "autoscale.min_replicas ({}) exceeds max_replicas ({})",
            self.min_replicas,
            self.max_replicas
        );
    }
}

/// Online strategy-swap policy: remap a tenant onto its
/// `alt_deployment` when its epoch arrival share drifts past
/// `share_factor ×` its long-run (rate-derived) share.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SwapSpec {
    /// Drift threshold as a multiple of the tenant's baseline share.
    pub share_factor: f64,
    /// Epochs with fewer total arrivals than this are too noisy to act
    /// on.
    pub min_epoch_requests: u64,
    /// Pause charged to the owning shard's earliest-free replica while
    /// the new strategy is programmed (in-flight batches drain first).
    pub remap_ns: u64,
}

impl Default for SwapSpec {
    fn default() -> Self {
        SwapSpec {
            share_factor: 2.0,
            min_epoch_requests: 64,
            remap_ns: 1_500_000,
        }
    }
}

impl SwapSpec {
    /// A NaN factor makes `share <= NaN × base` false, so every tenant
    /// with an alternative would swap at the first busy epoch.
    fn validate(&self) {
        assert!(
            self.share_factor.is_finite() && self.share_factor > 0.0,
            "swap.share_factor must be finite and > 0, got {}",
            self.share_factor
        );
    }
}

/// Configuration of a serving run.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ShardConfig {
    /// Shard-local schedulers; tenants partition as `gid % shards`.
    pub shards: usize,
    /// Replicas each shard starts with.
    pub replicas_per_shard: usize,
    /// Max requests per dispatched batch.
    pub max_batch: usize,
    /// A head request waits at most this long for its batch to fill.
    pub batch_window_ns: u64,
    /// Per-tenant admission bound (arrivals beyond it are rejected).
    pub queue_depth: usize,
    /// Epoch barriers per horizon; also the telemetry window count.
    pub epochs: usize,
    /// Work stealing at epoch barriers.
    pub steal: Option<StealSpec>,
    /// Telemetry-driven replica autoscaling.
    pub autoscale: Option<AutoscaleSpec>,
    /// Online strategy swap on workload-mix drift.
    pub swap: Option<SwapSpec>,
    /// Replica failure/recovery process; `None` models ideal replicas.
    pub failures: Option<FailureSpec>,
    /// A request interrupted by a replica failure is retried while its
    /// age is within this deadline, and dropped as failed after it \[ns\].
    pub retry_deadline_ns: u64,
    /// Online replica-health monitoring and drift recovery; `None`
    /// models drift-free replicas (no errors, no breaker).
    pub health: Option<HealthSpec>,
}

impl Default for ShardConfig {
    fn default() -> Self {
        ShardConfig {
            shards: 1,
            replicas_per_shard: 1,
            max_batch: 8,
            batch_window_ns: 1_000_000,
            queue_depth: 64,
            epochs: 16,
            steal: None,
            autoscale: None,
            swap: None,
            failures: None,
            retry_deadline_ns: 100_000_000,
            health: None,
        }
    }
}

impl ShardConfig {
    /// Panics on a configuration no run over `horizon_ns` can honour,
    /// before any simulation starts.
    fn validate(&self, horizon_ns: u64) {
        assert!(self.shards >= 1, "shards must be >= 1, got 0");
        assert!(
            self.replicas_per_shard >= 1,
            "replicas_per_shard must be >= 1, got 0"
        );
        assert!(self.max_batch >= 1, "max_batch must be >= 1, got 0");
        assert!(self.queue_depth >= 1, "queue_depth must be >= 1, got 0");
        assert!(self.epochs >= 1, "epochs must be >= 1, got 0");
        assert!(
            self.epochs as u64 <= horizon_ns,
            "epochs ({}) exceed horizon_ns ({horizon_ns}): every epoch needs at least 1 ns",
            self.epochs
        );
        if let Some(a) = &self.autoscale {
            a.validate();
        }
        if let Some(s) = &self.swap {
            s.validate();
        }
        if let Some(f) = &self.failures {
            f.validate();
        }
        if let Some(h) = &self.health {
            h.validate();
        }
    }
}

/// One autoscaling action on the timeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ScaleEvent {
    /// Barrier instant \[ns\].
    pub t_ns: u64,
    /// Epoch index of the barrier.
    pub epoch: usize,
    /// `true` = replica added, `false` = replica retired.
    pub up: bool,
    /// Shard the replica belongs to.
    pub shard: usize,
    /// Shard-local replica id.
    pub replica: usize,
    /// Total active replicas after the action.
    pub active_after: usize,
}

/// One whole-tenant migration between shards.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct StealEvent {
    /// Barrier instant \[ns\].
    pub t_ns: u64,
    /// Epoch index of the barrier.
    pub epoch: usize,
    /// Migrated tenant (global index).
    pub tenant: usize,
    pub from_shard: usize,
    pub to_shard: usize,
    /// Queued requests that moved with the tenant.
    pub moved_requests: usize,
}

/// One online strategy swap.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SwapEvent {
    /// Barrier instant \[ns\].
    pub t_ns: u64,
    /// Epoch index of the barrier.
    pub epoch: usize,
    /// Swapped tenant (global index).
    pub tenant: usize,
    /// Shard owning the tenant at swap time.
    pub shard: usize,
    /// Shard-local replica that took the remap pause.
    pub replica: usize,
    /// The tenant's arrival share in the triggering epoch.
    pub share: f64,
    /// The tenant's long-run (rate-derived) share.
    pub base_share: f64,
}

/// The autoscaler's input signals for one epoch, recorded verbatim so
/// the post-hoc alert timeline replays *exactly* what the runtime saw.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct EpochSignal {
    /// Barrier instant \[ns\].
    pub t_ns: u64,
    /// Mean queue depth over the epoch (area / span).
    pub mean_queue_depth: f64,
}

/// Per-tenant results of a serving run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ShardTenantStats {
    pub name: String,
    /// DRR fair-share weight.
    pub weight: u64,
    /// Shard owning the tenant at the end of the run.
    pub shard: usize,
    /// Arrivals generated for this tenant (admitted + shed).
    pub submitted: u64,
    /// Requests served to completion.
    pub completed: u64,
    /// Requests shed by admission control.
    pub rejected: u64,
    /// Requests dropped because a replica failure interrupted them past
    /// their retry deadline.
    pub failed: u64,
    /// Retry events: requests returned to the queue by killed batches
    /// (one request can retry more than once).
    pub retried: u64,
    /// Completed requests that survived at least one replica failure —
    /// served, but through the degraded (retry) path.
    pub degraded_completed: u64,
    /// Completed requests whose result was corrupted by conductance
    /// drift (see [`HealthSpec`]); they count as SLO violations.
    pub errored: u64,
    /// Batches killed mid-service by a replica failure.
    pub killed_batches: u64,
    /// Completed batches.
    pub batches: u64,
    /// Exact nearest-rank latency percentiles over completed requests
    /// \[ns\].
    pub p50_ns: u64,
    pub p95_ns: u64,
    pub p99_ns: u64,
    pub max_ns: u64,
    pub mean_ns: f64,
    pub slo_ns: u64,
    /// Fraction of *submitted* requests completed cleanly within the SLO
    /// (shed, failed and drift-errored requests count as violations);
    /// 1.0 for an idle tenant.
    pub slo_attainment: f64,
    pub throughput_rps: f64,
    pub energy_nj: f64,
    /// Busy replica-time this tenant's batches consumed \[ns\] — the
    /// "attained service" the fairness index is computed over.
    pub attained_service_ns: u64,
    pub peak_queue_depth: u64,
    pub mean_queue_depth: f64,
    /// Whether the tenant ended the run on its alternative strategy.
    pub swapped: bool,
    /// Log₂-binned latency distribution.
    pub histogram: LatencyHistogram,
}

/// Per-shard summary of a serving run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ShardStats {
    pub shard: usize,
    /// Tenants owned at the end of the run.
    pub tenants: usize,
    pub replicas_active: usize,
    /// Replicas ever created on this shard (including retired).
    pub replicas_total: usize,
    /// Dispatched batches, including batches a failure killed.
    pub dispatched_batches: u64,
    pub steals_in: u64,
    pub steals_out: u64,
    /// Last completion on this shard \[ns\].
    pub makespan_ns: u64,
    /// Replica downtime within `[0, makespan)` of the run, summed over
    /// the shard's replicas \[ns\].
    pub downtime_ns: u64,
    /// Circuit-breaker trips across the shard's replicas.
    pub trips: u64,
    /// Successful online recalibrations.
    pub recals: u64,
    /// Remap escalations.
    pub remaps: u64,
    /// Replica time spent paused in drift recovery \[ns\].
    pub recovery_ns: u64,
    /// Arrivals the shard consumed, admitted or shed.
    pub ingested: u64,
    /// Turns the shard's DRR walks passed over.
    pub drr_rotations: u64,
    /// Dispatch turns lost to a down replica (it waited out the outage).
    pub failovers: u64,
}

/// Results of a serving run. The three drivers (linear-scan reference,
/// heap mode, epoch-parallel) produce bit-identical values.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ShardServingReport {
    pub seed: u64,
    pub horizon_ns: u64,
    /// Virtual time at which the last batch completed (≥ horizon).
    pub makespan_ns: u64,
    pub shards: usize,
    pub epochs: usize,
    pub replicas_initial: usize,
    pub replicas_final: usize,
    /// Peak concurrently-active replicas (autoscaling high-water mark).
    pub replicas_peak: usize,
    /// Completed batches.
    pub batches: u64,
    pub mean_batch_size: f64,
    pub total_submitted: u64,
    pub total_completed: u64,
    pub total_rejected: u64,
    pub total_failed: u64,
    pub total_retried: u64,
    pub total_errored: u64,
    pub total_energy_nj: f64,
    pub aggregate_throughput_rps: f64,
    /// Jain's fairness index over per-tenant attained service per unit
    /// weight (1.0 = perfectly weight-proportional).
    pub fairness_index: f64,
    pub tenants: Vec<ShardTenantStats>,
    pub shard_stats: Vec<ShardStats>,
    /// One window per epoch, on the epoch grid.
    pub windows: Vec<WindowStats>,
    /// The autoscaler's per-epoch input signals (recorded even when
    /// autoscaling is off — they are the epoch telemetry).
    pub epoch_signals: Vec<EpochSignal>,
    pub scale_events: Vec<ScaleEvent>,
    pub steal_events: Vec<StealEvent>,
    pub swap_events: Vec<SwapEvent>,
    /// Timestamped replica-health transitions (trips, recals, remaps,
    /// failed recoveries), each shard's in recurrence order, shards in
    /// ascending id order. Empty without a [`HealthSpec`].
    pub health_events: Vec<HealthEvent>,
}

impl ShardServingReport {
    /// Requests neither completed, rejected nor failed — 0 after a full
    /// drain; the zero-lost-requests guarantee the swap tests pin down.
    pub fn lost_requests(&self) -> u64 {
        self.total_submitted - self.total_completed - self.total_rejected - self.total_failed
    }

    /// Fraction of completed requests whose results were clean (not
    /// drift-errored); 1.0 when nothing completed. The serving factor of
    /// the lifetime campaign's accuracy axis.
    pub fn clean_fraction(&self) -> f64 {
        if self.total_completed == 0 {
            1.0
        } else {
            (self.total_completed - self.total_errored) as f64 / self.total_completed as f64
        }
    }

    /// Scheduler events over all shards: arrivals ingested, batches
    /// dispatched and dispatch turns lost to a down replica. Host time
    /// per event is the scheduler's cost measure.
    pub fn scheduler_events(&self) -> u64 {
        self.shard_stats
            .iter()
            .map(|s| s.ingested + s.dispatched_batches + s.failovers)
            .sum()
    }

    /// The whole run's latency distribution: every tenant's histogram
    /// merged into one.
    pub fn overall_histogram(&self) -> LatencyHistogram {
        let mut h = LatencyHistogram::new();
        for t in &self.tenants {
            h.merge(&t.histogram);
        }
        h
    }
}

/// The epoch/window grid: `n` windows of `len` ns, the last one
/// absorbing the remainder and the drain tail.
#[derive(Debug, Clone, Copy)]
struct WinGrid {
    len: u64,
    n: usize,
}

impl WinGrid {
    fn new(horizon_ns: u64, epochs: usize) -> Self {
        WinGrid {
            len: (horizon_ns / epochs as u64).max(1),
            n: epochs,
        }
    }

    fn window_of(self, t: u64) -> usize {
        ((t / self.len) as usize).min(self.n - 1)
    }

    fn start_of(self, w: usize) -> u64 {
        w as u64 * self.len
    }

    fn end_of(self, w: usize, horizon_ns: u64) -> u64 {
        if w + 1 == self.n {
            horizon_ns
        } else {
            (w as u64 + 1) * self.len
        }
    }
}

/// Everything that travels with a tenant when it migrates between
/// shards: queue, arrival stream position, DRR deficit, and all
/// accounting. `stamp` versions the tenant's ready-heap entries.
#[derive(Debug, Clone)]
struct TenantState {
    gid: usize,
    weight: u64,
    slo_ns: u64,
    arrivals: Vec<u64>,
    cursor: usize,
    /// Arrival times of queued (admitted, undispatched) requests, in
    /// arrival order.
    queue: VecDeque<u64>,
    /// Queued requests a killed batch returned; they always form a
    /// prefix of `queue`.
    retried_queued: usize,
    deficit: u64,
    stamp: u64,
    swapped: bool,
    submitted: u64,
    rejected: u64,
    completed: u64,
    failed: u64,
    retried: u64,
    degraded: u64,
    errored: u64,
    killed_batches: u64,
    met: u64,
    batches: u64,
    attained_ns: u64,
    energy_nj: f64,
    /// Every completed request's latency, in completion order.
    latencies: Vec<u64>,
    peak_depth: usize,
    depth_area: u128,
    last_event: u64,
    /// Per-epoch arrivals (travels with the tenant; sums are global).
    win_submitted: Vec<u64>,
    /// Per-epoch attained service, keyed by completion window.
    win_attained: Vec<u64>,
}

impl TenantState {
    fn new(gid: usize, spec: &TenantSpec, wl: &Workload, n_win: usize) -> Self {
        let arrivals = tenant_arrivals(gid, spec, wl);
        TenantState {
            gid,
            weight: spec.weight,
            slo_ns: spec.slo_ns,
            latencies: Vec::with_capacity(arrivals.len()),
            arrivals,
            cursor: 0,
            queue: VecDeque::new(),
            retried_queued: 0,
            deficit: 0,
            stamp: 0,
            swapped: false,
            submitted: 0,
            rejected: 0,
            completed: 0,
            failed: 0,
            retried: 0,
            degraded: 0,
            errored: 0,
            killed_batches: 0,
            met: 0,
            batches: 0,
            attained_ns: 0,
            energy_nj: 0.0,
            peak_depth: 0,
            depth_area: 0,
            last_event: 0,
            win_submitted: vec![0; n_win],
            win_attained: vec![0; n_win],
        }
    }
}

/// Earliest instant the tenant's head batch may dispatch: head arrival
/// plus the batching window, or as soon as a full batch is queued.
fn tenant_ready(queue: &VecDeque<u64>, window_ns: u64, max_batch: usize) -> Option<u64> {
    let head = *queue.front()?;
    let mut ready = head.saturating_add(window_ns);
    if queue.len() >= max_batch {
        ready = ready.min(queue[max_batch - 1]);
    }
    Some(ready)
}

/// A shard's tenant storage: one slot per global tenant id, `Some` for
/// the tenants the shard owns. Boxed, so a slot the shard does not own
/// costs one pointer and a migration moves the box.
type TenantSlots = Vec<Option<Box<TenantState>>>;

/// The owned tenant `gid` of `slots`.
fn owned(slots: &[Option<Box<TenantState>>], gid: usize) -> &TenantState {
    slots[gid].as_deref().expect("tenant not owned")
}

/// Mutable [`owned`].
fn owned_mut(slots: &mut [Option<Box<TenantState>>], gid: usize) -> &mut TenantState {
    slots[gid].as_deref_mut().expect("tenant not owned")
}

/// [`DrrAccess`] view over a shard's tenant slots (split borrow: the
/// ring and the slots are disjoint fields).
struct TenantView<'a> {
    tenants: &'a mut TenantSlots,
    window_ns: u64,
    max_batch: usize,
}

impl DrrAccess for TenantView<'_> {
    fn ready_ns(&self, gid: usize) -> u64 {
        let t = owned(self.tenants, gid);
        tenant_ready(&t.queue, self.window_ns, self.max_batch).unwrap_or(u64::MAX)
    }

    fn cost(&self, gid: usize) -> u64 {
        let t = owned(self.tenants, gid);
        t.queue.len().min(self.max_batch).max(1) as u64
    }

    fn weight(&self, gid: usize) -> u64 {
        owned(self.tenants, gid).weight
    }

    fn deficit(&self, gid: usize) -> u64 {
        owned(self.tenants, gid).deficit
    }

    fn set_deficit(&mut self, gid: usize, v: u64) {
        owned_mut(self.tenants, gid).deficit = v;
    }
}

/// One shard-local scheduler. Between barriers it touches nothing
/// outside itself, which is the entire parallelism argument.
#[derive(Debug, Clone)]
pub(crate) struct Shard {
    id: usize,
    mode: SelectMode,
    grid: WinGrid,
    max_batch: usize,
    window_ns: u64,
    queue_depth: usize,
    tenants: TenantSlots,
    /// Slots of `tenants` that are `Some`.
    owned: usize,
    ring: DrrRing,
    /// Heap mode: min-heap over (ready_ns, gid), stamp-validated.
    ready: StampedHeap,
    /// Heap mode: min-heap over (next arrival, gid), cursor-validated.
    arr_heap: BinaryHeap<Reverse<(u64, usize)>>,
    replicas: ReplicaTable,
    /// Scratch for the requests of the batch being dispatched.
    batch: Vec<u64>,
    total_queued: usize,
    last_depth_event: u64,
    makespan: u64,
    dispatched: u64,
    ingested: u64,
    failovers: u64,
    steals_in: u64,
    steals_out: u64,
    win_submitted: Vec<u64>,
    win_rejected: Vec<u64>,
    win_completed: Vec<u64>,
    win_met: Vec<u64>,
    win_batches: Vec<u64>,
    win_depth_area: Vec<u128>,
    win_peak: Vec<usize>,
}

impl Shard {
    fn new(
        id: usize,
        cfg: &ShardConfig,
        mode: SelectMode,
        grid: WinGrid,
        horizon_ns: u64,
        n_tenants: usize,
    ) -> Self {
        Shard {
            id,
            mode,
            grid,
            max_batch: cfg.max_batch,
            window_ns: cfg.batch_window_ns,
            queue_depth: cfg.queue_depth,
            tenants: (0..n_tenants).map(|_| None).collect(),
            owned: 0,
            ring: DrrRing::new(),
            ready: StampedHeap::new(),
            arr_heap: BinaryHeap::new(),
            replicas: ReplicaTable::new(cfg, id, horizon_ns),
            batch: Vec::with_capacity(cfg.max_batch),
            total_queued: 0,
            last_depth_event: 0,
            makespan: 0,
            dispatched: 0,
            ingested: 0,
            failovers: 0,
            steals_in: 0,
            steals_out: 0,
            win_submitted: vec![0; grid.n],
            win_rejected: vec![0; grid.n],
            win_completed: vec![0; grid.n],
            win_met: vec![0; grid.n],
            win_batches: vec![0; grid.n],
            win_depth_area: vec![0; grid.n],
            win_peak: vec![0; grid.n],
        }
    }

    fn heap_mode(&self) -> bool {
        self.mode == SelectMode::Heap
    }

    /// The earliest unconsumed arrival `(time, gid)` over owned tenants.
    fn next_arrival(&mut self) -> Option<(u64, usize)> {
        match self.mode {
            SelectMode::LinearScan => self
                .tenants
                .iter()
                .enumerate()
                .filter_map(|(g, t)| {
                    let t = t.as_deref()?;
                    Some((*t.arrivals.get(t.cursor)?, g))
                })
                .min(),
            SelectMode::Heap => loop {
                let &Reverse((t, g)) = self.arr_heap.peek()?;
                match self.tenants[g].as_deref() {
                    Some(ts) if ts.arrivals.get(ts.cursor) == Some(&t) => {
                        return Some((t, g));
                    }
                    _ => {
                        self.arr_heap.pop();
                    }
                }
            },
        }
    }

    /// The earliest instant any backlogged tenant's batch may dispatch.
    fn ready_min(&mut self) -> Option<u64> {
        if self.ring.is_empty() {
            return None;
        }
        match self.mode {
            SelectMode::LinearScan => {
                let (window_ns, max_batch) = (self.window_ns, self.max_batch);
                self.ring
                    .iter()
                    .map(|g| {
                        let t = owned(&self.tenants, g);
                        (
                            tenant_ready(&t.queue, window_ns, max_batch)
                                .expect("ring tenant with empty queue"),
                            g,
                        )
                    })
                    .min()
                    .map(|(r, _)| r)
            }
            SelectMode::Heap => {
                let tenants = &self.tenants;
                self.ready
                    .peek_valid(|g| tenants[g].as_ref().map_or(u64::MAX, |t| t.stamp))
                    .map(|(r, _)| r)
            }
        }
    }

    /// The next dispatch `(instant, free, replica)`: the earliest-free
    /// replica, free at `free`, dispatches at the later of `free` and the
    /// earliest ready batch (the per-tenant `max(ready, free)` minimized
    /// over tenants distributes to this).
    fn next_dispatch(&mut self) -> Option<(u64, u64, usize)> {
        let (free, rid) = self.min_free()?;
        let ready = self.ready_min()?;
        Some((ready.max(free), free, rid))
    }

    /// Add a queue-depth span `[last_depth_event, now)` at the current
    /// backlog to the window integral. Within an epoch, spans never
    /// cross a window boundary (windows *are* epochs and barriers
    /// settle); drain-tail spans all land in the last window.
    fn settle_depth(&mut self, now: u64) {
        let from = self.last_depth_event;
        if now <= from {
            return;
        }
        if self.total_queued > 0 {
            let w = self.grid.window_of(from);
            self.win_depth_area[w] += self.total_queued as u128 * (now - from) as u128;
        }
        self.last_depth_event = now;
    }

    /// Consume tenant `gid`'s next arrival: admission control, queue
    /// push, ring/heap maintenance, depth accounting.
    fn ingest(&mut self, gid: usize) {
        let heap = self.heap_mode();
        let (window_ns, max_batch) = (self.window_ns, self.max_batch);
        let t = owned_mut(&mut self.tenants, gid);
        let at = t.arrivals[t.cursor];
        t.cursor += 1;
        if heap {
            // The validated top entry is this arrival: replace it in
            // place with the tenant's next one (one sift).
            let mut top = self.arr_heap.peek_mut().expect("ingest without an arrival");
            match t.arrivals.get(t.cursor) {
                Some(&next) => *top = Reverse((next, gid)),
                None => {
                    PeekMut::pop(top);
                }
            }
        }
        t.submitted += 1;
        self.ingested += 1;
        let w = self.grid.window_of(at);
        t.win_submitted[w] += 1;
        self.win_submitted[w] += 1;
        if t.queue.len() >= self.queue_depth {
            t.rejected += 1;
            self.win_rejected[w] += 1;
        } else {
            // Tenant + shard depth integrals advance to the arrival.
            let dt = at.saturating_sub(t.last_event);
            t.depth_area += t.queue.len() as u128 * dt as u128;
            t.last_event = at;
            let was_empty = t.queue.is_empty();
            t.queue.push_back(at);
            t.peak_depth = t.peak_depth.max(t.queue.len());
            let became_full = t.queue.len() == max_batch;
            if was_empty || became_full {
                // The tenant's ready instant changed (appeared, or
                // dropped to "batch full"): version the heap entry.
                t.stamp += 1;
                let entry = heap.then(|| {
                    (
                        tenant_ready(&t.queue, window_ns, max_batch).unwrap(),
                        t.stamp,
                    )
                });
                if was_empty {
                    self.ring.push(gid);
                }
                if let Some((rdy, stamp)) = entry {
                    self.ready.push(rdy, gid, stamp);
                }
            }
            self.settle_depth(at);
            self.total_queued += 1;
            self.win_peak[w] = self.win_peak[w].max(self.total_queued);
        }
    }

    /// Dispatch one batch on replica `rid` at instant `at`: DRR selects
    /// the tenant and the batch drains. A batch an outage interrupts is
    /// killed; otherwise completion-side accounting streams into the
    /// tenant and window accumulators and the replica's health monitor.
    fn dispatch(&mut self, specs: &[TenantSpec], rid: usize, at: u64) {
        let (window_ns, max_batch) = (self.window_ns, self.max_batch);
        let gid = {
            let mut view = TenantView {
                tenants: &mut self.tenants,
                window_ns,
                max_batch,
            };
            self.ring.select(&mut view, at)
        };
        self.settle_depth(at);
        // Killed batches use up a dispatch index too: health rolls are
        // keyed on it.
        let index = self.dispatched;
        self.dispatched += 1;
        let t = owned_mut(&mut self.tenants, gid);
        let dt = at.saturating_sub(t.last_event);
        t.depth_area += t.queue.len() as u128 * dt as u128;
        t.last_event = at;
        let n = t.queue.len().min(max_batch);
        let degraded = n.min(t.retried_queued);
        t.retried_queued -= degraded;
        self.batch.clear();
        self.batch.extend(t.queue.drain(..n));
        let emptied = t.queue.is_empty();
        self.total_queued -= n;
        let spec = &specs[gid];
        let dep = if t.swapped {
            spec.alt_deployment.as_ref().expect("swapped without alt")
        } else {
            &spec.deployment
        };
        let service = dep.service_ns(n);
        let completion = at + service;
        let outage = self.replicas.outage_in(rid, at, completion);
        let next_free = match outage {
            Some(o) => {
                // Killed at the failure edge: requests still within their
                // retry deadline return to the queue front (keeping
                // arrival order), the rest fail.
                t.killed_batches += 1;
                let mut requeued = 0;
                for &arr in self.batch.iter().rev() {
                    if self.replicas.retryable(arr, o.down_ns) {
                        t.queue.push_front(arr);
                        requeued += 1;
                    } else {
                        t.failed += 1;
                    }
                }
                t.retried += requeued as u64;
                t.retried_queued += requeued;
                t.peak_depth = t.peak_depth.max(t.queue.len());
                self.total_queued += requeued;
                let w = self.grid.window_of(at);
                self.win_peak[w] = self.win_peak[w].max(self.total_queued);
                o.up_ns
            }
            None => {
                let w = self.grid.window_of(completion);
                let p_ppm = self.replicas.error_ppm(rid, at);
                let mut errors = 0u64;
                t.completed += n as u64;
                t.degraded += degraded as u64;
                t.batches += 1;
                t.attained_ns += service;
                t.win_attained[w] += service;
                t.energy_nj += n as f64 * dep.energy_per_request_nj();
                for (pos, &arr) in self.batch.iter().enumerate() {
                    let l = completion - arr;
                    t.latencies.push(l);
                    if p_ppm > 0 && self.replicas.errored(rid, index, pos, p_ppm) {
                        errors += 1;
                    } else if l <= t.slo_ns {
                        t.met += 1;
                        self.win_met[w] += 1;
                    }
                }
                t.errored += errors;
                self.win_completed[w] += n as u64;
                self.win_batches[w] += 1;
                self.makespan = self.makespan.max(completion);
                self.replicas.complete(rid, errors, n, completion)
            }
        };
        let backlogged = !t.queue.is_empty();
        {
            let mut view = TenantView {
                tenants: &mut self.tenants,
                window_ns,
                max_batch,
            };
            self.ring.served(&mut view, gid, emptied);
        }
        if emptied && backlogged {
            // A killed batch refilled the queue it had emptied.
            self.ring.push(gid);
        }
        let t = owned_mut(&mut self.tenants, gid);
        t.stamp += 1;
        if backlogged && self.mode == SelectMode::Heap {
            let rdy = tenant_ready(&t.queue, window_ns, max_batch).unwrap();
            let stamp = t.stamp;
            self.ready.push(rdy, gid, stamp);
        }
        self.replicas.set_free(rid, next_free);
    }

    /// Run the shard's recurrence up to (exclusive) `e_end`: arrivals at
    /// or before the pending dispatch instant are ingested first (they
    /// join the batch). A replica that is down at its free instant or at
    /// the dispatch instant waits out the outage and the turn passes.
    /// `u64::MAX` drains everything.
    pub(crate) fn step(&mut self, specs: &[TenantSpec], e_end: u64) {
        loop {
            let na = self.next_arrival();
            let disp = self.next_dispatch();
            if let Some((t, gid)) = na {
                let take = match disp {
                    Some((at, _, _)) if at < e_end => t <= at,
                    _ => t < e_end,
                };
                if take {
                    self.ingest(gid);
                    continue;
                }
            }
            let Some((at, free, rid)) = disp.filter(|&(at, _, _)| at < e_end) else {
                break;
            };
            let down = self.replicas.down_until(rid, free);
            match down.or_else(|| self.replicas.down_until(rid, at)) {
                Some(up) => {
                    self.failovers += 1;
                    self.replicas.set_free(rid, up);
                }
                None => self.dispatch(specs, rid, at),
            }
        }
    }

    /// Detach tenant `gid` for migration. Its shard-side heap entries go
    /// stale via the ownership check / stamp bump.
    fn remove_tenant(&mut self, gid: usize) -> Box<TenantState> {
        let mut t = self.tenants[gid].take().expect("migrating unknown tenant");
        self.owned -= 1;
        self.ring.remove(gid);
        self.total_queued -= t.queue.len();
        t.stamp += 1;
        t
    }

    /// Attach a migrated tenant.
    fn add_tenant(&mut self, mut t: Box<TenantState>) {
        let gid = t.gid;
        t.stamp += 1;
        self.total_queued += t.queue.len();
        if !t.queue.is_empty() {
            self.ring.push(gid);
            if self.heap_mode() {
                let rdy = tenant_ready(&t.queue, self.window_ns, self.max_batch).unwrap();
                self.ready.push(rdy, gid, t.stamp);
            }
        }
        if self.heap_mode() && t.cursor < t.arrivals.len() {
            self.arr_heap.push(Reverse((t.arrivals[t.cursor], gid)));
        }
        debug_assert!(self.tenants[gid].is_none(), "tenant owned twice");
        self.tenants[gid] = Some(t);
        self.owned += 1;
    }

    /// Earliest-free active replica (mode-consistent tie-break).
    fn min_free(&mut self) -> Option<(u64, usize)> {
        match self.mode {
            SelectMode::LinearScan => self.replicas.scan_min(),
            SelectMode::Heap => self.replicas.peek_min(),
        }
    }
}

/// The assembled sharded simulation: shards plus barrier state.
struct ShardedSim<'a> {
    specs: &'a [TenantSpec],
    wl: Workload,
    cfg: ShardConfig,
    grid: WinGrid,
    shards: Vec<Shard>,
    engine: Option<AlertEngine>,
    base_share: Vec<f64>,
    cooldown: usize,
    total_active: usize,
    peak_active: usize,
    scale_events: Vec<ScaleEvent>,
    steal_events: Vec<StealEvent>,
    swap_events: Vec<SwapEvent>,
    epoch_signals: Vec<EpochSignal>,
}

/// The autoscaler's alert rules — shared with the post-hoc timeline in
/// [`crate::telemetry`] so both evaluate the identical discipline.
pub(crate) fn autoscale_rules(spec: &AutoscaleSpec) -> Vec<AlertRule> {
    vec![
        AlertRule::Threshold(
            ThresholdRule::above(SCALE_UP_RULE, "epoch_queue_depth", spec.high_depth)
                .for_samples(spec.for_epochs)
                .clear_samples(spec.clear_epochs),
        ),
        AlertRule::Threshold(
            ThresholdRule::below(SCALE_DOWN_RULE, "epoch_queue_depth", spec.low_depth)
                .for_samples(spec.for_epochs)
                .clear_samples(spec.clear_epochs),
        ),
    ]
}

/// An [`AlertEngine`] loaded with the autoscaler's rules.
pub(crate) fn autoscale_engine(spec: &AutoscaleSpec) -> AlertEngine {
    let mut e = AlertEngine::new();
    for r in autoscale_rules(spec) {
        e.add_rule(r);
    }
    e
}

impl<'a> ShardedSim<'a> {
    fn new(specs: &'a [TenantSpec], wl: &Workload, cfg: &ShardConfig, mode: SelectMode) -> Self {
        cfg.validate(wl.horizon_ns);
        for spec in specs {
            spec.validate();
        }
        let grid = WinGrid::new(wl.horizon_ns, cfg.epochs);
        let mut shards: Vec<Shard> = (0..cfg.shards)
            .map(|s| Shard::new(s, cfg, mode, grid, wl.horizon_ns, specs.len()))
            .collect();
        for (gid, spec) in specs.iter().enumerate() {
            let t = TenantState::new(gid, spec, wl, grid.n);
            shards[gid % cfg.shards].add_tenant(Box::new(t));
        }
        let total_rate: f64 = specs.iter().map(|s| s.rate_rps).sum();
        let base_share = specs
            .iter()
            .map(|s| {
                if total_rate > 0.0 {
                    s.rate_rps / total_rate
                } else {
                    0.0
                }
            })
            .collect();
        let total_active = cfg.shards * cfg.replicas_per_shard;
        ShardedSim {
            specs,
            wl: *wl,
            cfg: *cfg,
            grid,
            shards,
            engine: cfg.autoscale.as_ref().map(autoscale_engine),
            base_share,
            cooldown: 0,
            total_active,
            peak_active: total_active,
            scale_events: Vec::new(),
            steal_events: Vec::new(),
            swap_events: Vec::new(),
            epoch_signals: Vec::new(),
        }
    }

    /// The epoch barrier: settle → steal → autoscale → swap, each in a
    /// fixed deterministic order.
    fn barrier(&mut self, epoch: usize, t_end: u64) {
        for sh in &mut self.shards {
            sh.settle_depth(t_end);
        }
        if self.cfg.steal.is_some() {
            self.steal(epoch, t_end);
        }
        let sig = self.epoch_signal(epoch, t_end);
        self.epoch_signals.push(sig);
        if self.cfg.autoscale.is_some() {
            self.autoscale(epoch, t_end, sig);
        }
        if self.cfg.swap.is_some() {
            self.swap(epoch, t_end);
        }
    }

    fn epoch_signal(&self, epoch: usize, t_end: u64) -> EpochSignal {
        let start = self.grid.start_of(epoch);
        let span = (t_end - start).max(1);
        let area: u128 = self.shards.iter().map(|s| s.win_depth_area[epoch]).sum();
        EpochSignal {
            t_ns: t_end,
            mean_queue_depth: area as f64 / span as f64,
        }
    }

    /// Work stealing: pair idle thieves with backlogged victims
    /// (ascending thief id; victims by descending backlog, ties to the
    /// lower id) and migrate each victim's most backlogged tenant.
    fn steal(&mut self, epoch: usize, t_end: u64) {
        let spec = self.cfg.steal.unwrap();
        let mut thieves: Vec<usize> = Vec::new();
        let mut victims: Vec<(usize, usize)> = Vec::new(); // (backlog, id)
        for s in 0..self.shards.len() {
            let backlog = self.shards[s].total_queued;
            let idle_replica = self.shards[s].min_free().is_some_and(|(f, _)| f <= t_end);
            if backlog <= spec.max_thief_backlog && idle_replica {
                thieves.push(s);
            } else if backlog >= spec.min_victim_backlog && self.shards[s].owned >= 2 {
                victims.push((backlog, s));
            }
        }
        victims.sort_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));
        for (&thief, &(_, victim)) in thieves.iter().zip(victims.iter()) {
            // Most backlogged tenant, ties to the lowest gid (slots
            // iterate in ascending gid, strict `>` keeps the first max).
            let Some((gid, moved)) = self.shards[victim]
                .tenants
                .iter()
                .enumerate()
                .filter_map(|(g, t)| Some((t.as_deref()?.queue.len(), g)))
                .fold(None, |best: Option<(usize, usize)>, (len, g)| match best {
                    Some((bl, bg)) if bl >= len => Some((bl, bg)),
                    _ => Some((len, g)),
                })
                .map(|(len, g)| (g, len))
            else {
                continue;
            };
            if moved == 0 {
                continue;
            }
            let t = self.shards[victim].remove_tenant(gid);
            self.shards[thief].add_tenant(t);
            self.shards[victim].steals_out += 1;
            self.shards[thief].steals_in += 1;
            self.steal_events.push(StealEvent {
                t_ns: t_end,
                epoch,
                tenant: gid,
                from_shard: victim,
                to_shard: thief,
                moved_requests: moved,
            });
        }
    }

    fn autoscale(&mut self, epoch: usize, t_end: u64, sig: EpochSignal) {
        let spec = self.cfg.autoscale.unwrap();
        let engine = self.engine.as_mut().unwrap();
        engine.observe(t_end, &[("epoch_queue_depth", sig.mean_queue_depth)]);
        if self.cooldown > 0 {
            self.cooldown -= 1;
            return;
        }
        let up = engine.is_firing(SCALE_UP_RULE);
        let down = engine.is_firing(SCALE_DOWN_RULE);
        if up && self.total_active < spec.max_replicas {
            // Most backlogged shard gets the replica (ties → lowest id).
            let sid = (0..self.shards.len())
                .max_by_key(|&s| (self.shards[s].total_queued, Reverse(s)))
                .unwrap();
            let rid = self.shards[sid].replicas.add(t_end);
            self.total_active += 1;
            self.peak_active = self.peak_active.max(self.total_active);
            self.cooldown = spec.cooldown_epochs;
            self.scale_events.push(ScaleEvent {
                t_ns: t_end,
                epoch,
                up: true,
                shard: sid,
                replica: rid,
                active_after: self.total_active,
            });
        } else if down && !up && self.total_active > spec.min_replicas {
            // Least backlogged shard that keeps ≥ 1 replica drains its
            // highest-id active replica (in-flight work still completes:
            // retirement only stops future dispatches).
            let Some(sid) = (0..self.shards.len())
                .filter(|&s| self.shards[s].replicas.active() >= 2)
                .min_by_key(|&s| (self.shards[s].total_queued, s))
            else {
                return;
            };
            let rid = (self.shards[sid].replicas.last_active())
                .expect("a shard with two active replicas has a last one");
            self.shards[sid].replicas.retire(rid);
            self.total_active -= 1;
            self.cooldown = spec.cooldown_epochs;
            self.scale_events.push(ScaleEvent {
                t_ns: t_end,
                epoch,
                up: false,
                shard: sid,
                replica: rid,
                active_after: self.total_active,
            });
        }
    }

    /// Online strategy swap: one-way, per tenant, when the epoch share
    /// drifts past the threshold. The remap pause starts at the barrier
    /// (or when the chosen replica's in-flight batch drains, whichever
    /// is later), so no request is lost: queued work simply waits.
    fn swap(&mut self, epoch: usize, t_end: u64) {
        let spec = self.cfg.swap.unwrap();
        let total: u64 = self.shards.iter().map(|s| s.win_submitted[epoch]).sum();
        if total < spec.min_epoch_requests {
            return;
        }
        for gid in 0..self.specs.len() {
            if self.specs[gid].alt_deployment.is_none() {
                continue;
            }
            let owner = (0..self.shards.len())
                .find(|&s| self.shards[s].tenants[gid].is_some())
                .expect("tenant owned by no shard");
            let sh = &mut self.shards[owner];
            let t = owned_mut(&mut sh.tenants, gid);
            if t.swapped {
                continue;
            }
            let share = t.win_submitted[epoch] as f64 / total as f64;
            let base = self.base_share[gid];
            if share <= spec.share_factor * base {
                continue;
            }
            t.swapped = true;
            let (free, rid) = sh.min_free().expect("shard without active replica");
            sh.replicas.set_free(rid, free.max(t_end) + spec.remap_ns);
            self.swap_events.push(SwapEvent {
                t_ns: t_end,
                epoch,
                tenant: gid,
                shard: owner,
                replica: rid,
                share,
                base_share: base,
            });
        }
    }

    /// Assemble the final report (consumes the sim).
    fn finish(mut self) -> ShardServingReport {
        let n = self.specs.len();
        let horizon = self.wl.horizon_ns;
        let makespan = self
            .shards
            .iter()
            .map(|s| s.makespan)
            .max()
            .unwrap_or(0)
            .max(horizon);
        let span_s = makespan as f64 * 1e-9;
        // Collect tenants back out of their final shards, by gid.
        let (owners, mut states): (Vec<usize>, Vec<Box<TenantState>>) = (0..n)
            .map(|gid| {
                (self.shards.iter_mut())
                    .find_map(|s| Some((s.id, s.tenants[gid].take()?)))
                    .expect("tenant owned by no shard")
            })
            .unzip();
        let tenants: Vec<ShardTenantStats> = states
            .iter_mut()
            .map(|t| {
                let lat = &mut t.latencies;
                let mut histogram = LatencyHistogram::new();
                for &l in lat.iter() {
                    histogram.record(l);
                }
                let lat_sum: u128 = lat.iter().map(|&l| l as u128).sum();
                ShardTenantStats {
                    name: self.specs[t.gid].name.clone(),
                    weight: t.weight,
                    shard: owners[t.gid],
                    submitted: t.submitted,
                    completed: t.completed,
                    rejected: t.rejected,
                    failed: t.failed,
                    retried: t.retried,
                    degraded_completed: t.degraded,
                    errored: t.errored,
                    killed_batches: t.killed_batches,
                    batches: t.batches,
                    p50_ns: percentile(lat, 0.50),
                    p95_ns: percentile(lat, 0.95),
                    p99_ns: percentile(lat, 0.99),
                    max_ns: lat.iter().copied().max().unwrap_or(0),
                    mean_ns: if t.completed == 0 {
                        0.0
                    } else {
                        lat_sum as f64 / t.completed as f64
                    },
                    slo_ns: t.slo_ns,
                    slo_attainment: if t.submitted == 0 {
                        1.0
                    } else {
                        t.met as f64 / t.submitted as f64
                    },
                    throughput_rps: if span_s > 0.0 {
                        t.completed as f64 / span_s
                    } else {
                        0.0
                    },
                    energy_nj: t.energy_nj,
                    attained_service_ns: t.attained_ns,
                    peak_queue_depth: t.peak_depth as u64,
                    mean_queue_depth: t.depth_area as f64 / makespan.max(1) as f64,
                    swapped: t.swapped,
                    histogram,
                }
            })
            .collect();
        let fairness = jain_index(
            states
                .iter()
                .filter(|t| t.submitted > 0)
                .map(|t| t.attained_ns as f64 / t.weight as f64),
        );
        let windows: Vec<WindowStats> = (0..self.grid.n)
            .map(|w| {
                let start_ns = self.grid.start_of(w);
                let end_ns = start_ns + self.grid.len;
                let covered_to = if w + 1 == self.grid.n {
                    makespan.max(end_ns)
                } else {
                    end_ns
                };
                let span = (covered_to - start_ns).max(1);
                let sum = |f: &dyn Fn(&Shard) -> u64| -> u64 { self.shards.iter().map(f).sum() };
                let submitted = sum(&|s| s.win_submitted[w]);
                let rejected = sum(&|s| s.win_rejected[w]);
                let completed = sum(&|s| s.win_completed[w]);
                let met = sum(&|s| s.win_met[w]);
                let batches = sum(&|s| s.win_batches[w]);
                let area: u128 = self.shards.iter().map(|s| s.win_depth_area[w]).sum();
                WindowStats {
                    index: w,
                    start_ns,
                    end_ns,
                    submitted,
                    rejected,
                    completed,
                    batches,
                    mean_batch_size: if batches == 0 {
                        0.0
                    } else {
                        completed as f64 / batches as f64
                    },
                    batch_occupancy: if batches == 0 {
                        0.0
                    } else {
                        completed as f64 / (batches * self.cfg.max_batch as u64) as f64
                    },
                    slo_attainment: if completed == 0 {
                        1.0
                    } else {
                        met as f64 / completed as f64
                    },
                    mean_queue_depth: area as f64 / span as f64,
                    // Sum of per-shard peaks: an upper bound on the
                    // global instantaneous backlog peak (shard clocks
                    // are not aligned within an epoch).
                    peak_queue_depth: self.shards.iter().map(|s| s.win_peak[w] as u64).sum(),
                    downtime_ns: sum(&|s| s.replicas.downtime_in(start_ns, covered_to)),
                    fairness_index: jain_index(
                        states
                            .iter()
                            .filter(|t| t.win_attained[w] > 0)
                            .map(|t| t.win_attained[w] as f64 / t.weight as f64),
                    ),
                }
            })
            .collect();
        let total = |f: fn(&ShardTenantStats) -> u64| -> u64 { tenants.iter().map(f).sum() };
        let total_submitted = total(|t| t.submitted);
        let total_completed = total(|t| t.completed);
        let total_rejected = total(|t| t.rejected);
        let total_failed = total(|t| t.failed);
        let total_retried = total(|t| t.retried);
        let total_errored = total(|t| t.errored);
        let batches = total(|t| t.batches);
        let shard_stats = self
            .shards
            .iter()
            .map(|s| {
                let health =
                    |f: fn(&ReplicaHealth) -> u64| -> u64 { s.replicas.health().map(f).sum() };
                ShardStats {
                    shard: s.id,
                    tenants: owners.iter().filter(|&&o| o == s.id).count(),
                    replicas_active: s.replicas.active(),
                    replicas_total: s.replicas.len(),
                    dispatched_batches: s.dispatched,
                    steals_in: s.steals_in,
                    steals_out: s.steals_out,
                    makespan_ns: s.makespan,
                    downtime_ns: s.replicas.downtime_in(0, makespan),
                    trips: health(|h| h.trips),
                    recals: health(|h| h.recals),
                    remaps: health(|h| h.remaps),
                    recovery_ns: health(|h| h.recovery_ns),
                    ingested: s.ingested,
                    drr_rotations: s.ring.rotations(),
                    failovers: s.failovers,
                }
            })
            .collect();
        let health_events = self
            .shards
            .iter_mut()
            .flat_map(|s| std::mem::take(&mut s.replicas.events))
            .collect();
        ShardServingReport {
            seed: self.wl.seed,
            horizon_ns: horizon,
            makespan_ns: makespan,
            shards: self.cfg.shards,
            epochs: self.cfg.epochs,
            replicas_initial: self.cfg.shards * self.cfg.replicas_per_shard,
            replicas_final: self.total_active,
            replicas_peak: self.peak_active,
            batches,
            mean_batch_size: if batches == 0 {
                0.0
            } else {
                total_completed as f64 / batches as f64
            },
            total_submitted,
            total_completed,
            total_rejected,
            total_failed,
            total_retried,
            total_errored,
            total_energy_nj: tenants.iter().map(|t| t.energy_nj).sum(),
            aggregate_throughput_rps: if span_s > 0.0 {
                total_completed as f64 / span_s
            } else {
                0.0
            },
            fairness_index: fairness,
            tenants,
            shard_stats,
            windows,
            epoch_signals: self.epoch_signals,
            scale_events: self.scale_events,
            steal_events: self.steal_events,
            swap_events: self.swap_events,
            health_events,
        }
    }
}

/// The epoch loop of every driver: `step_all` steps every shard to the
/// barrier (epoch `e` ends at `(e+1)·win_len`, the last at the horizon),
/// the barrier runs, and after the last barrier `step_all` drains every
/// shard (to `u64::MAX`). The sequential drivers step the shards one
/// after another; the epoch-parallel one steps them concurrently.
pub(crate) fn run_epochs(
    tenants: &[TenantSpec],
    wl: &Workload,
    cfg: &ShardConfig,
    mode: SelectMode,
    mut step_all: impl FnMut(&mut [Shard], u64),
) -> ShardServingReport {
    let mut sim = ShardedSim::new(tenants, wl, cfg, mode);
    for e in 0..cfg.epochs {
        let end = sim.grid.end_of(e, wl.horizon_ns);
        step_all(&mut sim.shards, end);
        sim.barrier(e, end);
    }
    step_all(&mut sim.shards, u64::MAX);
    sim.finish()
}

/// Run the sharded simulation sequentially in `mode`.
fn run_sequential(
    tenants: &[TenantSpec],
    wl: &Workload,
    cfg: &ShardConfig,
    mode: SelectMode,
) -> ShardServingReport {
    let _span = autohet_obs::trace::span("serve.run_sharded");
    run_epochs(tenants, wl, cfg, mode, |shards, end| {
        for sh in shards {
            sh.step(tenants, end);
        }
    })
}

/// The sharded serving runtime, on the heap-mode scheduler.
pub fn run_sharded(tenants: &[TenantSpec], wl: &Workload, cfg: &ShardConfig) -> ShardServingReport {
    run_sequential(tenants, wl, cfg, SelectMode::Heap)
}

/// The linear-scan sequential reference: identical decisions through
/// O(tenants)/O(replicas) scans — the baseline the bit-identity tests
/// and the `BENCH_serve` speedup measure against.
pub fn run_sharded_reference(
    tenants: &[TenantSpec],
    wl: &Workload,
    cfg: &ShardConfig,
) -> ShardServingReport {
    run_sequential(tenants, wl, cfg, SelectMode::LinearScan)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::deploy::Deployment;
    use crate::parallel::run_sharded_threaded;
    use crate::workload::{BurstSpec, RampSpec};
    use autohet_accel::AccelConfig;
    use autohet_dnn::zoo;
    use autohet_obs::alert::AlertKind;
    use autohet_xbar::XbarShape;

    fn deployment(model: autohet_dnn::Model, shape: XbarShape) -> Deployment {
        let strategy = vec![shape; model.layers.len()];
        Deployment::compile(&model.name, &model, &strategy, &AccelConfig::default())
    }

    fn fleet(n: usize) -> Vec<TenantSpec> {
        let lenet = deployment(zoo::lenet5(), XbarShape::square(128));
        let micro = deployment(zoo::micro_cnn(), XbarShape::square(128));
        (0..n)
            .map(|i| {
                let dep = if i % 2 == 0 {
                    lenet.clone()
                } else {
                    micro.clone()
                };
                let rate = 0.25 * dep.max_rate_rps() * (1.0 + (i % 3) as f64 * 0.5);
                let slo = (8.0 * dep.pipeline.fill_ns) as u64;
                let mut spec = TenantSpec::new(&format!("t{i}"), dep, rate, slo)
                    .with_weight(1 + (i % 4) as u64);
                if i % 5 == 0 {
                    spec = spec.with_burst(BurstSpec {
                        period_ns: 30_000_000,
                        burst_ns: 6_000_000,
                        factor: 5.0,
                    });
                }
                spec
            })
            .collect()
    }

    #[test]
    fn heap_mode_is_bit_identical_to_the_linear_scan_reference() {
        let tenants = fleet(9);
        let wl = Workload {
            seed: 77,
            horizon_ns: 60_000_000,
        };
        for shards in [1usize, 2, 3, 8] {
            let cfg = ShardConfig {
                shards,
                replicas_per_shard: 2,
                epochs: 12,
                steal: Some(StealSpec::default()),
                ..ShardConfig::default()
            };
            let heap = run_sharded(&tenants, &wl, &cfg);
            let scan = run_sharded_reference(&tenants, &wl, &cfg);
            assert_eq!(heap, scan, "shards={shards}");
        }
    }

    #[test]
    fn scheduler_counters_add_up_in_every_driver() {
        let tenants = fleet(7);
        let wl = Workload {
            seed: 5,
            horizon_ns: 50_000_000,
        };
        let flaky = FailureSpec {
            mtbf_ns: 3_000_000,
            mttr_ns: 500_000,
            seed: 13,
        };
        for failures in [None, Some(flaky)] {
            let cfg = ShardConfig {
                shards: 3,
                replicas_per_shard: 2,
                queue_depth: 4,
                steal: Some(StealSpec::default()),
                failures,
                ..ShardConfig::default()
            };
            let r = run_sharded(&tenants, &wl, &cfg);
            assert_eq!(r, run_sharded_reference(&tenants, &wl, &cfg));
            assert_eq!(r, run_sharded_threaded(&tenants, &wl, &cfg, 2));
            let sum = |f: fn(&ShardStats) -> u64| r.shard_stats.iter().map(f).sum::<u64>();
            assert_eq!(sum(|s| s.ingested), r.total_submitted);
            assert_eq!(
                r.scheduler_events(),
                r.total_submitted + sum(|s| s.dispatched_batches) + sum(|s| s.failovers)
            );
            assert!(r.total_rejected > 0, "shed arrivals count as ingested too");
            assert!(sum(|s| s.drr_rotations) > 0);
            if failures.is_some() {
                assert!(
                    sum(|s| s.failovers) > 0,
                    "no dispatch turn lost to an outage"
                );
            } else {
                assert_eq!(sum(|s| s.failovers), 0);
            }
        }
    }

    #[test]
    fn every_admitted_request_completes() {
        let tenants = fleet(7);
        let wl = Workload {
            seed: 5,
            horizon_ns: 50_000_000,
        };
        let cfg = ShardConfig {
            shards: 3,
            queue_depth: 4, // force rejections too
            ..ShardConfig::default()
        };
        let r = run_sharded(&tenants, &wl, &cfg);
        assert!(r.total_submitted > 0);
        assert_eq!(r.lost_requests(), 0);
        for t in &r.tenants {
            assert_eq!(t.submitted, t.completed + t.rejected, "{}", t.name);
        }
    }

    #[test]
    fn stealing_migrates_tenants_and_preserves_totals() {
        let tenants = fleet(8);
        let wl = Workload {
            seed: 11,
            horizon_ns: 80_000_000,
        };
        let base = ShardConfig {
            shards: 4,
            epochs: 20,
            ..ShardConfig::default()
        };
        let with_steal = ShardConfig {
            steal: Some(StealSpec {
                min_victim_backlog: 4,
                max_thief_backlog: 1,
            }),
            ..base
        };
        let stolen = run_sharded(&tenants, &wl, &with_steal);
        assert!(
            !stolen.steal_events.is_empty(),
            "expected at least one migration under an imbalanced fleet"
        );
        assert_eq!(stolen.lost_requests(), 0);
        // Submission totals are workload-determined, identical with and
        // without stealing; only queueing (and thus completion times)
        // may differ.
        let plain = run_sharded(&tenants, &wl, &base);
        assert_eq!(plain.total_submitted, stolen.total_submitted);
    }

    #[test]
    fn autoscaler_adds_replicas_under_burst_and_drains_after() {
        let micro = deployment(zoo::micro_cnn(), XbarShape::square(128));
        let rate = 0.9 * micro.max_rate_rps();
        let slo = (10.0 * micro.pipeline.fill_ns) as u64;
        // One tenant slams the single replica during a mid-run burst.
        let tenants = vec![TenantSpec::new("hot", micro, rate, slo)
            .with_burst(BurstSpec {
                period_ns: 200_000_000,
                burst_ns: 60_000_000,
                factor: 6.0,
            })
            .with_weight(2)];
        let wl = Workload {
            seed: 9,
            horizon_ns: 200_000_000,
        };
        let cfg = ShardConfig {
            shards: 1,
            epochs: 40,
            queue_depth: 512,
            autoscale: Some(AutoscaleSpec {
                high_depth: 12.0,
                // Post-burst batching keeps ~1 request in flight even
                // over-provisioned, so the drain threshold sits above it.
                low_depth: 2.0,
                for_epochs: 2,
                clear_epochs: 2,
                min_replicas: 1,
                max_replicas: 8,
                cooldown_epochs: 0,
            }),
            ..ShardConfig::default()
        };
        let r = run_sharded(&tenants, &wl, &cfg);
        let ups = r.scale_events.iter().filter(|e| e.up).count();
        let downs = r.scale_events.iter().filter(|e| !e.up).count();
        assert!(ups >= 1, "no scale-up under engineered burst");
        assert!(downs >= 1, "no drain after the burst passed");
        assert!(r.replicas_peak > r.replicas_initial);
        assert_eq!(r.lost_requests(), 0);
        // The post-hoc replay agrees with the autoscaler: at every
        // scaling barrier, the matching rule's last firing-or-resolved
        // transition at or before it is a firing.
        let timeline = crate::telemetry::alert_timeline(&r, cfg.autoscale.as_ref());
        for e in &r.scale_events {
            let rule = if e.up { SCALE_UP_RULE } else { SCALE_DOWN_RULE };
            let last = timeline
                .for_rule(rule)
                .into_iter()
                .rev()
                .filter(|a| a.t_ns <= e.t_ns)
                .find(|a| matches!(a.kind, AlertKind::Firing | AlertKind::Resolved))
                .map(|a| a.kind);
            assert_eq!(last, Some(AlertKind::Firing), "replay disagrees at {e:?}");
        }
        // Identical decisions in the reference mode.
        let scan = run_sharded_reference(&tenants, &wl, &cfg);
        assert_eq!(r, scan);
    }

    #[test]
    fn drifting_mix_triggers_swap_with_zero_lost_requests() {
        let lenet = deployment(zoo::lenet5(), XbarShape::square(128));
        let micro = deployment(zoo::micro_cnn(), XbarShape::square(128));
        let alt = deployment(zoo::lenet5(), XbarShape::new(256, 128));
        let slo = (12.0 * lenet.pipeline.fill_ns) as u64;
        let base_rate = 0.2 * lenet.max_rate_rps();
        let tenants = vec![
            TenantSpec::new("drifter", lenet, base_rate, slo)
                .with_ramp(RampSpec {
                    start_ns: 20_000_000,
                    end_ns: 60_000_000,
                    to_factor: 8.0,
                })
                .with_alt(alt),
            TenantSpec::new("steady", micro.clone(), 0.4 * micro.max_rate_rps(), slo),
        ];
        let wl = Workload {
            seed: 21,
            horizon_ns: 120_000_000,
        };
        let cfg = ShardConfig {
            shards: 2,
            epochs: 24,
            queue_depth: 4096,
            swap: Some(SwapSpec {
                share_factor: 1.5,
                min_epoch_requests: 16,
                remap_ns: 2_000_000,
            }),
            ..ShardConfig::default()
        };
        let r = run_sharded(&tenants, &wl, &cfg);
        assert_eq!(r.swap_events.len(), 1, "expected exactly one swap");
        assert!(r.tenants[0].swapped);
        assert!(!r.tenants[1].swapped);
        assert_eq!(r.lost_requests(), 0, "swap must not lose requests");
        // The swap epoch comes after the drift onset.
        assert!(r.swap_events[0].t_ns > 20_000_000);
        // Bit-identical under the reference scheduler.
        let scan = run_sharded_reference(&tenants, &wl, &cfg);
        assert_eq!(r, scan);
    }

    #[test]
    fn weights_shift_attained_service_under_contention() {
        // Two identical tenants driving sustained overload against a
        // bounded queue (so excess load is shed, not merely delayed),
        // weights 1 vs 4: attained service splits along the weights.
        let micro = deployment(zoo::micro_cnn(), XbarShape::square(128));
        let rate = 3.0 * micro.max_rate_rps();
        let slo = (6.0 * micro.pipeline.fill_ns) as u64;
        let tenants = vec![
            TenantSpec::new("light", micro.clone(), rate, slo).with_weight(1),
            TenantSpec::new("heavy", micro.clone(), rate, slo).with_weight(4),
        ];
        let wl = Workload {
            seed: 3,
            horizon_ns: 60_000_000,
        };
        let cfg = ShardConfig {
            shards: 1,
            queue_depth: 16,
            ..ShardConfig::default()
        };
        let r = run_sharded(&tenants, &wl, &cfg);
        assert!(r.total_rejected > 0, "scenario must actually shed load");
        let light = r.tenants[0].attained_service_ns as f64;
        let heavy = r.tenants[1].attained_service_ns as f64;
        assert!(
            heavy > 2.0 * light,
            "weight-4 tenant attained {heavy} vs weight-1 {light}"
        );
        assert!(r.fairness_index > 0.8, "weighted Jain {}", r.fairness_index);
    }

    #[test]
    #[should_panic(expected = "epochs (16) exceed horizon_ns (10)")]
    fn more_epochs_than_horizon_nanoseconds_is_rejected_up_front() {
        let wl = Workload {
            seed: 1,
            horizon_ns: 10,
        };
        run_sharded(&fleet(2), &wl, &ShardConfig::default());
    }

    fn run_with(cfg: ShardConfig) -> ShardServingReport {
        let wl = Workload {
            seed: 1,
            horizon_ns: 1_000_000,
        };
        run_sharded(&fleet(2), &wl, &cfg)
    }

    fn with_autoscale(spec: AutoscaleSpec) -> ShardConfig {
        ShardConfig {
            autoscale: Some(spec),
            ..ShardConfig::default()
        }
    }

    #[test]
    #[should_panic(expected = "swap.share_factor must be finite and > 0, got NaN")]
    fn nan_share_factor_is_rejected_up_front() {
        run_with(ShardConfig {
            swap: Some(SwapSpec {
                share_factor: f64::NAN,
                ..SwapSpec::default()
            }),
            ..ShardConfig::default()
        });
    }

    #[test]
    #[should_panic(expected = "swap.share_factor must be finite and > 0, got 0")]
    fn zero_share_factor_is_rejected_up_front() {
        run_with(ShardConfig {
            swap: Some(SwapSpec {
                share_factor: 0.0,
                ..SwapSpec::default()
            }),
            ..ShardConfig::default()
        });
    }

    #[test]
    #[should_panic(expected = "autoscale.high_depth must be finite, got NaN")]
    fn nan_high_depth_is_rejected_up_front() {
        run_with(with_autoscale(AutoscaleSpec {
            high_depth: f64::NAN,
            ..AutoscaleSpec::default()
        }));
    }

    #[test]
    #[should_panic(expected = "autoscale.low_depth must be finite, got inf")]
    fn infinite_low_depth_is_rejected_up_front() {
        run_with(with_autoscale(AutoscaleSpec {
            low_depth: f64::INFINITY,
            ..AutoscaleSpec::default()
        }));
    }

    #[test]
    #[should_panic(expected = "autoscale.min_replicas (5) exceeds max_replicas (4)")]
    fn min_replicas_above_max_is_rejected_up_front() {
        run_with(with_autoscale(AutoscaleSpec {
            min_replicas: 5,
            max_replicas: 4,
            ..AutoscaleSpec::default()
        }));
    }

    #[test]
    fn every_config_check_names_its_field() {
        let edited = |edit: fn(&mut ShardConfig)| {
            let mut cfg = ShardConfig::default();
            edit(&mut cfg);
            cfg
        };
        let failures = |mtbf_ns, mttr_ns| ShardConfig {
            failures: Some(FailureSpec {
                mtbf_ns,
                mttr_ns,
                seed: 1,
            }),
            ..ShardConfig::default()
        };
        let health = |edit: fn(&mut HealthSpec)| {
            let mut h = HealthSpec::default();
            edit(&mut h);
            ShardConfig {
                health: Some(h),
                ..ShardConfig::default()
            }
        };
        let cases = [
            (edited(|c| c.shards = 0), "shards must be >= 1, got 0"),
            (
                edited(|c| c.replicas_per_shard = 0),
                "replicas_per_shard must be >= 1, got 0",
            ),
            (edited(|c| c.max_batch = 0), "max_batch must be >= 1, got 0"),
            (
                edited(|c| c.queue_depth = 0),
                "queue_depth must be >= 1, got 0",
            ),
            (edited(|c| c.epochs = 0), "epochs must be >= 1, got 0"),
            (failures(0, 1), "failures.mtbf_ns must be > 0, got 0"),
            (failures(1, 0), "failures.mttr_ns must be > 0, got 0"),
            (
                health(|h| h.ewma_alpha_milli = 0),
                "health.ewma_alpha_milli must be in 1..=1000, got 0",
            ),
            (
                health(|h| h.ewma_alpha_milli = 1001),
                "health.ewma_alpha_milli must be in 1..=1000, got 1001",
            ),
            (
                health(|h| h.recal_success_milli = 1001),
                "health.recal_success_milli must be <= 1000, got 1001",
            ),
            (
                health(|h| h.err_cap_ppm = 1_000_001),
                "health.err_cap_ppm must be <= 1000000, got 1000001",
            ),
        ];
        for (bad, expected) in cases {
            let err = std::panic::catch_unwind(|| run_with(bad)).expect_err(expected);
            let msg = err
                .downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| err.downcast_ref::<&str>().copied())
                .unwrap_or_default();
            assert!(msg.contains(expected), "{msg:?} does not name {expected:?}");
        }
    }

    /// `run_sharded` over `fleet(2)` after `edit` changed tenant 0: the
    /// traffic fields are public, so a run must check them again.
    fn run_edited(edit: impl FnOnce(&mut TenantSpec)) -> ShardServingReport {
        let mut tenants = fleet(2);
        edit(&mut tenants[0]);
        let wl = Workload {
            seed: 1,
            horizon_ns: 1_000_000,
        };
        run_sharded(&tenants, &wl, &ShardConfig::default())
    }

    // Unchecked at run start, each of these would draw zero (or NaN)
    // arrival gaps until memory ran out.
    #[test]
    #[should_panic(expected = "rate_rps must be finite and >= 0, got inf")]
    fn infinite_rate_set_on_a_built_tenant_is_rejected_up_front() {
        run_edited(|t| t.rate_rps = f64::INFINITY);
    }

    #[test]
    #[should_panic(expected = "burst.factor must be finite and > 0, got inf")]
    fn infinite_burst_factor_set_on_a_built_tenant_is_rejected_up_front() {
        run_edited(|t| {
            t.burst = Some(BurstSpec {
                period_ns: 300_000,
                burst_ns: 100_000,
                factor: f64::INFINITY,
            })
        });
    }

    #[test]
    #[should_panic(expected = "ramp.to_factor must be finite and > 0, got inf")]
    fn infinite_ramp_factor_set_on_a_built_tenant_is_rejected_up_front() {
        run_edited(|t| {
            t.ramp = Some(RampSpec {
                start_ns: 0,
                end_ns: 500_000,
                to_factor: f64::INFINITY,
            })
        });
    }

    #[test]
    fn nested_specs_accept_their_boundary_values() {
        run_with(ShardConfig {
            swap: Some(SwapSpec {
                share_factor: f64::MIN_POSITIVE,
                ..SwapSpec::default()
            }),
            ..with_autoscale(AutoscaleSpec {
                high_depth: -1.0,
                low_depth: 0.0,
                min_replicas: 3,
                max_replicas: 3,
                ..AutoscaleSpec::default()
            })
        });
        for (ewma_alpha_milli, recal_success_milli, err_cap_ppm) in
            [(1, 1000, 1_000_000), (1000, 1000, 1_000_000)]
        {
            run_with(ShardConfig {
                health: Some(HealthSpec {
                    ewma_alpha_milli,
                    recal_success_milli,
                    err_cap_ppm,
                    ..HealthSpec::default()
                }),
                ..ShardConfig::default()
            });
        }
    }

    #[test]
    fn one_nanosecond_epochs_keep_every_barrier_inside_the_horizon() {
        let wl = Workload {
            seed: 1,
            horizon_ns: 16,
        };
        let r = run_sharded(&fleet(2), &wl, &ShardConfig::default());
        let barriers: Vec<u64> = r.epoch_signals.iter().map(|s| s.t_ns).collect();
        assert_eq!(barriers, (1..=16).collect::<Vec<u64>>());
    }

    #[test]
    fn windows_line_up_with_epochs_and_conserve_counts() {
        let tenants = fleet(5);
        let wl = Workload {
            seed: 42,
            horizon_ns: 30_000_000,
        };
        let cfg = ShardConfig {
            shards: 2,
            epochs: 6,
            ..ShardConfig::default()
        };
        let r = run_sharded(&tenants, &wl, &cfg);
        assert_eq!(r.windows.len(), 6);
        assert_eq!(r.epoch_signals.len(), 6);
        let sub: u64 = r.windows.iter().map(|w| w.submitted).sum();
        let comp: u64 = r.windows.iter().map(|w| w.completed).sum();
        assert_eq!(sub, r.total_submitted);
        assert_eq!(comp, r.total_completed);
        for w in &r.windows {
            assert!(w.fairness_index >= 0.0 && w.fairness_index <= 1.0);
        }
    }
}

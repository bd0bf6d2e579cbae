//! The autohet-rs benchmark: one command, three closed-loop workloads.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <search_vgg16|serve_fleet|lifetime_lenet5> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` the run times set-up and then repeats the workload's
//! iteration for `--seconds`, with tracing off, and reports the
//! end-to-end metrics. With `--trace 1` it alternates untraced and
//! traced runs of the same iterations, attributes the traced host time to layers
//! (see `attribution`), writes the spans to `.bench_out/` and reports the
//! per-layer metrics. Either way the last line of standard output is one
//! JSON object: `{"correct", "attempted", "failed", "metrics"}`. Every
//! run also checks the program's outputs; failed checks are counted in
//! `failed` against `attempted`.

mod attribution;
mod cpus;
mod lifetime;
mod search;
mod serve;

use autohet_obs::trace::SpanEvent;
use cpus::Cpus;
use std::fmt::Write as _;
use std::time::Instant;

/// Where traced runs write their span dumps, relative to the directory
/// the benchmark is run from.
const OUT_DIR: &str = ".bench_out";

/// Set-up is repeated in batches of this many, each batch on one CPU in
/// turn, until the batches have taken [`SETUP_MIN_S`] (and at least two
/// batches ran). `setup_s` is the median of the least disturbed batch,
/// for the reason given at [`peak_throughput`].
const SETUP_BATCH: usize = 25;
const SETUP_MIN_S: f64 = 0.5;

/// Ring-buffer capacity for the traced run (far above what any workload
/// records in one run, so `obs.trace.dropped` should read 0).
const TRACE_CAPACITY: usize = 1 << 21;

/// One workload as the harness drives it. Construction is the set-up.
pub trait Workload {
    /// Iterations every run completes however short `--seconds` is; the
    /// modelled metric is taken over exactly these, so it is a pure
    /// function of the seed.
    fn min_iterations(&self) -> usize {
        2
    }
    /// Iteration `i` runs the same input as iteration `i % inputs`, so
    /// it does the same work.
    fn inputs(&self) -> usize {
        1
    }
    /// Run iteration `index` and return the work it completed
    /// (episodes, simulated requests or campaign cells).
    fn run_iteration(&mut self, index: usize) -> f64;
    /// The modelled (simulated, not host-timed) quality of the first
    /// [`Self::min_iterations`] iterations, and of any untimed work the
    /// workload runs here for it.
    fn modelled_quality(&mut self) -> f64;
    /// Verify the program's outputs of every iteration run so far.
    fn check(&self, checks: &mut Checks);
    /// Calls made outside the measured iterations, to time one layer on
    /// its own (traced runs only).
    fn probe(&mut self) {}
    /// Counters the program itself keeps, per layer; `iter_s` is the
    /// median untraced iteration time, for ratios against it.
    fn layer_counters(&self, iter_s: f64) -> LayerCounters;
}

/// Per-layer counters the program keeps. Every workload reports all of
/// them; a layer the workload leaves idle reads 0.
#[derive(Default)]
pub struct LayerCounters {
    /// `SearchTiming.agent / SearchTiming.total`, summed over searches.
    pub rl_agent_share: f64,
    /// `SearchTiming.simulator / SearchTiming.total`.
    pub simulator_share: f64,
    pub vec_mean_occupancy: f64,
    pub search_groups: u64,
    pub engine: autohet_accel::EngineStats,
    /// Requests `tenant_arrivals` generates for the whole fleet.
    pub arrivals: u64,
    /// Time to generate them, over the median iteration time.
    pub arrivals_share: f64,
    pub shard: Option<autohet_serve::ShardServingReport>,
    pub sim_trips: u64,
    pub sim_recals: u64,
    pub sim_remaps: u64,
}

impl LayerCounters {
    fn put(&self, out: &mut Metrics) {
        out.put("rl.agent_share", self.rl_agent_share, "fraction");
        out.put(
            "accel.engine.simulator_share",
            self.simulator_share,
            "fraction",
        );
        let e = &self.engine;
        out.put(
            "accel.engine.strategy_hits",
            e.strategy_hits as f64,
            "count",
        );
        out.put(
            "accel.engine.strategy_misses",
            e.strategy_misses as f64,
            "count",
        );
        out.put("accel.engine.layer_hits", e.layer_hits as f64, "count");
        out.put("accel.engine.layer_misses", e.layer_misses as f64, "count");
        out.put(
            "accel.engine.strategy_hit_rate",
            e.strategy_hit_rate(),
            "fraction",
        );
        out.put(
            "accel.engine.layer_hit_rate",
            e.layer_hit_rate(),
            "fraction",
        );
        out.put(
            "autohet.vec.mean_occupancy",
            self.vec_mean_occupancy,
            "fraction",
        );
        out.put("autohet.search.groups", self.search_groups as f64, "count");
        out.put("serve.workload.arrivals", self.arrivals as f64, "count");
        out.put(
            "serve.workload.arrivals_share",
            self.arrivals_share,
            "fraction",
        );
        let r = self.shard.as_ref();
        let count = |f: fn(&autohet_serve::ShardServingReport) -> f64| r.map_or(0.0, f);
        out.put(
            "serve.shard.requests",
            count(|r| r.total_submitted as f64),
            "count",
        );
        out.put("serve.shard.batches", count(|r| r.batches as f64), "count");
        out.put(
            "serve.shard.mean_batch_size",
            count(|r| r.mean_batch_size),
            "requests",
        );
        out.put(
            "serve.shard.rejected",
            count(|r| r.total_rejected as f64),
            "count",
        );
        out.put(
            "serve.shard.shed_fraction",
            count(|r| r.total_rejected as f64 / r.total_submitted as f64),
            "fraction",
        );
        out.put(
            "serve.shard.steals",
            count(|r| r.steal_events.len() as f64),
            "count",
        );
        out.put(
            "serve.shard.scale_events",
            count(|r| r.scale_events.len() as f64),
            "count",
        );
        out.put(
            "serve.shard.swaps",
            count(|r| r.swap_events.len() as f64),
            "count",
        );
        out.put(
            "serve.shard.peak_replicas",
            count(|r| r.replicas_peak as f64),
            "count",
        );
        out.put("serve.shard.fairness", count(|r| r.fairness_index), "jain");
        out.put("serve.sim.trips", self.sim_trips as f64, "count");
        out.put("serve.sim.recals", self.sim_recals as f64, "count");
        out.put("serve.sim.remaps", self.sim_remaps as f64, "count");
    }
}

/// Correctness checks attempted and failed in one run.
#[derive(Default)]
pub struct Checks {
    attempted: u64,
    failed: u64,
}

impl Checks {
    /// Record one check; a failure is also described on stderr.
    pub fn expect(&mut self, ok: bool, what: &str) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("check failed: {what}");
        }
    }
}

/// Metrics in output order, each with its unit.
#[derive(Default)]
pub struct Metrics(Vec<(String, f64, &'static str)>);

impl Metrics {
    pub fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        self.0.push((name.to_string(), value, unit));
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn usage() -> ! {
    eprintln!(
        "usage: perfbench --workload <search_vgg16|serve_fleet|lifetime_lenet5> \
         --seed <n> --seconds <s> --trace <0|1>"
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut args = Args {
        workload: String::new(),
        seed: 0,
        seconds: 10.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().unwrap_or_else(|| usage());
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().unwrap_or_else(|_| usage()),
            "--seconds" => args.seconds = value.parse().unwrap_or_else(|_| usage()),
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage(),
                }
            }
            _ => usage(),
        }
    }
    if !(args.seconds > 0.0 && args.seconds.is_finite()) {
        usage();
    }
    args
}

fn setup(name: &str, seed: u64) -> Box<dyn Workload> {
    match name {
        "search_vgg16" => Box::new(search::SearchVgg16::new(seed)),
        "serve_fleet" => Box::new(serve::ServeFleet::new(seed)),
        "lifetime_lenet5" => Box::new(lifetime::LifetimeLenet5::new(seed)),
        _ => usage(),
    }
}

fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// Nearest-rank quantile of `xs` (which must be non-empty).
fn quantile(xs: &[f64], q: f64) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

/// Work per second at the fastest time of each input: the work of one
/// iteration of every input over the sum of each input's shortest
/// iteration time. Iteration times on the shared host fall into speed
/// levels up to about 2x apart (see `cpus`), and the share of slow iterations
/// changes from run to run and from minute to minute: a median, a mean or
/// even the fastest tenth follows that share, while the fastest iteration
/// stays on the fastest level the host offered during the run.
fn peak_throughput(iters: &[(f64, f64)], inputs: usize) -> f64 {
    let mut best = vec![(f64::INFINITY, 0.0); inputs];
    for (i, &(s, w)) in iters.iter().enumerate() {
        if s < best[i % inputs].0 {
            best[i % inputs] = (s, w);
        }
    }
    best.iter().map(|&(_, w)| w).sum::<f64>() / best.iter().map(|&(s, _)| s).sum::<f64>()
}

/// Peak resident set size of this process [MB], from `VmHWM`.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Run iteration `index` on its turn's CPU and return its (seconds, work).
fn timed_iteration(wl: &mut dyn Workload, cpus: &Cpus, index: usize) -> (f64, f64) {
    cpus.pin(index);
    let _span = autohet_obs::trace::span("bench.iteration");
    let t = Instant::now();
    let work = wl.run_iteration(index);
    (t.elapsed().as_secs_f64(), work)
}

/// Run iterations `0..` until `seconds` have passed and at least `min`
/// iterations are done; returns each iteration's (seconds, work).
fn measure(wl: &mut dyn Workload, cpus: &Cpus, seconds: f64, min: usize) -> Vec<(f64, f64)> {
    let start = Instant::now();
    let mut out = Vec::new();
    while out.len() < min || start.elapsed().as_secs_f64() < seconds {
        out.push(timed_iteration(wl, cpus, out.len()));
    }
    out
}

/// Spans recorded over the traced stretches of a run.
#[derive(Default)]
struct Recording {
    events: Vec<SpanEvent>,
    dropped: u64,
    wall_s: f64,
}

impl Recording {
    /// Run `f` with the tracer on and keep what it recorded (enabling
    /// the tracer clears its buffer, so each stretch is drained here).
    fn traced<R>(&mut self, f: impl FnOnce() -> R) -> R {
        let tracer = autohet_obs::trace::global();
        tracer.enable(TRACE_CAPACITY);
        let t = Instant::now();
        let r = f();
        self.wall_s += t.elapsed().as_secs_f64();
        tracer.disable();
        self.dropped += tracer.dropped();
        self.events.extend(tracer.drain());
        r
    }
}

/// The paper's in-text utilizations against `autohet_bench::motiv()`:
/// the only place the cost model meets a published number. Returns the
/// largest gap in percentage points.
fn model_validity(checks: &mut Checks) -> f64 {
    let table = autohet_bench::motiv();
    let gap = table
        .rows
        .iter()
        .map(|row| {
            let ours: f64 = row[2].parse().unwrap_or(f64::NAN);
            let paper: f64 = row[3].parse().unwrap_or(f64::NAN);
            (ours - paper).abs()
        })
        .fold(0.0, f64::max);
    checks.expect(
        table.rows.len() == 4 && gap <= 0.5,
        "motiv() utilizations within 0.5 pp of the paper's 10.5/62.5/83.7/100%",
    );
    gap
}

fn print_result(checks: &Checks, metrics: &Metrics) {
    let mut body = String::new();
    for (i, (name, value, unit)) in metrics.0.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            body,
            "{sep}\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
        );
    }
    // serde derives are no-ops in this offline build (vendor/serde), so
    // the result line is written by hand.
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{body}}}}}",
        checks.failed == 0,
        checks.attempted,
        checks.failed
    );
}

fn main() {
    let args = parse_args();
    let mut checks = Checks::default();
    let gap = model_validity(&mut checks);
    println!(
        "model validity: largest gap between motiv() and the paper's in-text utilizations \
         (10.5/62.5/83.7/100%) is {gap:.2} pp; the energy/latency model is otherwise \
         unvalidated (no reference hardware)"
    );
    println!(
        "workload {} seed {} seconds {}; each iteration runs on one thread, on the CPUs in turn",
        args.workload, args.seed, args.seconds
    );

    let mut metrics = Metrics::default();
    if args.trace {
        traced_run(&args, &mut checks, &mut metrics);
    } else {
        untraced_run(&args, &mut checks, &mut metrics);
    }
    for (name, value, _) in &metrics.0 {
        checks.expect(value.is_finite(), &format!("metric {name} is finite"));
    }
    print_result(&checks, &metrics);
}

fn untraced_run(args: &Args, checks: &mut Checks, metrics: &mut Metrics) {
    let cpus = Cpus::allowed();
    let (mut batch_medians, mut setup_total) = (Vec::new(), 0.0);
    let mut wl = None;
    while batch_medians.len() < 2 || setup_total < SETUP_MIN_S {
        cpus.pin(batch_medians.len());
        let mut batch = Vec::with_capacity(SETUP_BATCH);
        for _ in 0..SETUP_BATCH {
            let t = Instant::now();
            let w = setup(&args.workload, args.seed);
            batch.push(t.elapsed().as_secs_f64());
            wl = Some(w);
        }
        setup_total += batch.iter().sum::<f64>();
        batch_medians.push(median(&batch));
    }
    let mut wl = wl.expect("at least one set-up");
    let min = wl.min_iterations();
    let iters = measure(wl.as_mut(), &cpus, args.seconds, min);
    let times: Vec<f64> = iters.iter().map(|&(s, _)| s).collect();
    let quality = wl.modelled_quality();
    wl.check(checks);
    println!(
        "{} set-ups in batches of {SETUP_BATCH}, batch medians min {:.6e} s, median {:.6e} s; \
         {} iterations; host seconds per iteration min {:.6}, p10 {:.6}, p50 {:.6}, p90 {:.6} \
         (informational: the shared host's drift moves the medians, p50 and p90 between runs)",
        SETUP_BATCH * batch_medians.len(),
        quantile(&batch_medians, 0.0),
        median(&batch_medians),
        iters.len(),
        quantile(&times, 0.0),
        quantile(&times, 0.1),
        quantile(&times, 0.5),
        quantile(&times, 0.9)
    );
    metrics.put("setup_s", quantile(&batch_medians, 0.0), "s");
    metrics.put("peak_rss_mb", peak_rss_mb(), "MB");
    metrics.put("work_per_s", peak_throughput(&iters, wl.inputs()), "1/s");
    metrics.put("modelled_quality", quality, "score");
}

fn traced_run(args: &Args, checks: &mut Checks, metrics: &mut Metrics) {
    use autohet_obs::trace::span;
    // Two instances run the same iterations, alternately and on the same
    // CPU: one untraced (the reference for the overhead ratio) and one
    // traced.
    let cpus = Cpus::allowed();
    cpus.pin(0);
    let mut plain = setup(&args.workload, args.seed);
    let mut rec = Recording::default();
    let mut wl = rec.traced(|| {
        let _span = span("bench.setup");
        setup(&args.workload, args.seed)
    });
    rec.traced(|| {
        let _span = span("bench.probe");
        wl.probe()
    });
    let min = wl.min_iterations();
    let start = Instant::now();
    let (mut plain_s, mut traced_s) = (Vec::new(), Vec::new());
    while plain_s.len() < min || start.elapsed().as_secs_f64() < args.seconds {
        let i = plain_s.len();
        plain_s.push(timed_iteration(plain.as_mut(), &cpus, i).0);
        traced_s.push(rec.traced(|| timed_iteration(wl.as_mut(), &cpus, i).0));
    }
    plain.check(checks);
    wl.check(checks);
    let overhead = traced_s.iter().sum::<f64>() / plain_s.iter().sum::<f64>();
    let Recording {
        events,
        dropped,
        wall_s,
    } = rec;

    std::fs::create_dir_all(OUT_DIR).expect("create the trace output directory");
    let path = format!("{OUT_DIR}/{}.spans.jsonl", args.workload);
    std::fs::write(&path, autohet_obs::trace::to_jsonl(&events)).expect("write the span dump");
    let layers = attribution::self_time_by_layer(&events);
    let table = attribution::render(&layers, wall_s) + &attribution::render_span_latencies(&events);
    let table_path = format!("{OUT_DIR}/{}.layers.txt", args.workload);
    std::fs::write(&table_path, &table).expect("write the layer table");
    print!("{table}");
    println!(
        "{} spans in {path}, {dropped} dropped; {} traced iterations, overhead {overhead:.3}x",
        events.len(),
        traced_s.len()
    );

    metrics.put("trace.wall_s", wall_s, "s");
    metrics.put("trace.iterations", traced_s.len() as f64, "count");
    metrics.put("obs.trace.overhead", overhead, "x");
    metrics.put("obs.trace.dropped", dropped as f64, "count");
    metrics.put("obs.trace.spans", events.len() as f64, "count");
    let busy: f64 = layers.iter().map(|l| l.self_s).sum();
    metrics.put("trace.busy_s", busy, "s");
    for l in &layers {
        metrics.put(
            &format!("{}.self_share", l.layer),
            l.self_s / busy,
            "fraction",
        );
    }
    for (name, span) in [
        ("accel.engine.compose_share", "engine.compose"),
        (
            "accel.engine.evaluate_degraded_share",
            "engine.evaluate_degraded",
        ),
    ] {
        metrics.put(
            name,
            attribution::span_total_s(&events, span) / busy,
            "fraction",
        );
    }
    wl.layer_counters(median(&plain_s)).put(metrics);
}

//! Per-layer self time from the tracer's recorded spans.
//!
//! A span's self time is its duration minus the time its direct children
//! cover. The benchmark opens its own root spans (`bench.*`) on the main
//! thread, so every main-thread span is nested under one of them; the
//! crates' worker pools (`par_map`) open spans on other threads, where
//! they start new roots. Two consequences:
//!
//! - on the main thread spans nest properly, so each span's children are
//!   found by containment, and the part of its self time during which a
//!   worker-thread root was running is time spent *waiting* on the pool.
//!   That wait is not charged to the layer: the workers' own spans carry
//!   the work;
//! - on worker threads several roots with one path may run at once, so
//!   self time there is aggregated per path: the summed durations of a
//!   path minus the summed durations of its direct child paths (children
//!   of one span run on its thread, one after another).
//!
//! The sum over layers is therefore busy host time across threads, which
//! may exceed wall time when the pool runs two workers.

use autohet_obs::trace::SpanEvent;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Layers in report order: crate or crate::module, plus `bench` for the
/// benchmark's own glue. `rl` has no spans of its own: its time is part
/// of `autohet` (the `search.group` self time), and `xbar` kernels run
/// inside `accel.engine` spans; see `rl.agent_share`.
pub const LAYERS: [&str; 8] = [
    "dnn",
    "accel.engine",
    "autohet",
    "serve.workload",
    "serve.deploy",
    "serve.shard",
    "serve.sim",
    "bench",
];

/// The layer a span belongs to, from its leaf name.
fn layer_of(name: &str) -> &'static str {
    const PREFIXES: [(&str, &str); 10] = [
        ("dnn.", "dnn"),
        ("engine.", "accel.engine"),
        ("autohet.", "autohet"),
        ("search.", "autohet"),
        ("study.", "autohet"),
        ("serve.workload.", "serve.workload"),
        ("serve.deploy.", "serve.deploy"),
        ("serve.run_sharded", "serve.shard"),
        ("serve.", "serve.sim"),
        ("bench.", "bench"),
    ];
    PREFIXES
        .iter()
        .find(|(prefix, _)| name.starts_with(prefix))
        .map_or("bench", |&(_, layer)| layer)
}

/// Busy self time of one layer.
pub struct LayerTime {
    pub layer: &'static str,
    pub self_s: f64,
}

/// Merged, sorted, disjoint `[start, end)` intervals.
struct Coverage(Vec<(u64, u64)>);

impl Coverage {
    fn new(mut spans: Vec<(u64, u64)>) -> Self {
        spans.sort_unstable();
        let mut merged: Vec<(u64, u64)> = Vec::with_capacity(spans.len());
        for (s, e) in spans {
            match merged.last_mut() {
                Some(last) if s <= last.1 => last.1 = last.1.max(e),
                _ => merged.push((s, e)),
            }
        }
        Coverage(merged)
    }

    /// Nanoseconds of `[s, e)` the intervals cover.
    fn within(&self, s: u64, e: u64) -> u64 {
        let first = self.0.partition_point(|&(_, end)| end <= s);
        self.0[first..]
            .iter()
            .take_while(|&&(start, _)| start < e)
            .map(|&(start, end)| end.min(e).saturating_sub(start.max(s)))
            .sum()
    }
}

fn on_main_thread(e: &SpanEvent) -> bool {
    e.path.starts_with("bench.")
}

/// Busy self time per layer, in [`LAYERS`] order.
pub fn self_time_by_layer(events: &[SpanEvent]) -> Vec<LayerTime> {
    let mut by_layer: BTreeMap<&'static str, u64> = BTreeMap::new();

    // Worker threads: aggregate per path.
    let mut total: BTreeMap<&str, u64> = BTreeMap::new();
    let mut children: BTreeMap<&str, u64> = BTreeMap::new();
    let mut names: BTreeMap<&str, &'static str> = BTreeMap::new();
    for e in events.iter().filter(|e| !on_main_thread(e)) {
        *total.entry(&e.path).or_default() += e.duration_ns();
        names.insert(&e.path, e.name);
        if let Some(cut) = e.path.rfind(';') {
            *children.entry(&e.path[..cut]).or_default() += e.duration_ns();
        }
    }
    for (path, t) in &total {
        let own = t.saturating_sub(children.get(path).copied().unwrap_or(0));
        *by_layer.entry(layer_of(names[path])).or_default() += own;
    }

    // Main thread: nest by containment, then take out pool waits.
    let pool = Coverage::new(
        events
            .iter()
            .filter(|e| !on_main_thread(e) && e.depth == 0)
            .map(|e| (e.start_ns, e.end_ns))
            .collect(),
    );
    let mut main: Vec<&SpanEvent> = events.iter().filter(|e| on_main_thread(e)).collect();
    // Parents before children: earlier start first, longer span first.
    main.sort_by_key(|e| (e.start_ns, std::cmp::Reverse(e.end_ns), e.depth));
    // Per span: (child time, pool time inside children).
    let mut inner = vec![(0u64, 0u64); main.len()];
    let mut stack: Vec<usize> = Vec::new();
    for (i, e) in main.iter().enumerate() {
        while let Some(&top) = stack.last() {
            if main[top].end_ns >= e.end_ns && main[top].depth < e.depth {
                break;
            }
            stack.pop();
        }
        if let Some(&parent) = stack.last() {
            inner[parent].0 += e.duration_ns();
            inner[parent].1 += pool.within(e.start_ns, e.end_ns);
        }
        stack.push(i);
    }
    for (e, (child_ns, child_pool_ns)) in main.iter().zip(inner) {
        let own = e.duration_ns().saturating_sub(child_ns);
        let waited = pool
            .within(e.start_ns, e.end_ns)
            .saturating_sub(child_pool_ns);
        *by_layer.entry(layer_of(e.name)).or_default() += own.saturating_sub(waited);
    }

    LAYERS
        .iter()
        .map(|&layer| LayerTime {
            layer,
            self_s: by_layer.get(layer).copied().unwrap_or(0) as f64 * 1e-9,
        })
        .collect()
}

/// Summed duration of every span named `name` [s].
pub fn span_total_s(events: &[SpanEvent], name: &str) -> f64 {
    events
        .iter()
        .filter(|e| e.name == name)
        .fold(0.0, |acc, e| acc + e.duration_ns() as f64 * 1e-9)
}

/// Duration quantiles of the spans that bound one unit of work in some
/// workload (a search's lockstep group, a campaign cell, a fleet run).
pub fn render_span_latencies(events: &[SpanEvent]) -> String {
    const UNITS: [&str; 4] = [
        "search.group",
        "study.lifetime_cell",
        "engine.evaluate_degraded",
        "serve.run_sharded",
    ];
    let mut out = String::new();
    for name in UNITS {
        let d: Vec<f64> = events
            .iter()
            .filter(|e| e.name == name)
            .map(|e| e.duration_ns() as f64 * 1e-9)
            .collect();
        if d.is_empty() {
            continue;
        }
        let _ = writeln!(
            out,
            "span {name}: n={}, p50={:.6} s, p90={:.6} s",
            d.len(),
            crate::quantile(&d, 0.5),
            crate::quantile(&d, 0.9)
        );
    }
    out
}

/// The per-layer self-time table, naming the layer that carries the run.
pub fn render(layers: &[LayerTime], wall_s: f64) -> String {
    let busy: f64 = layers.iter().map(|l| l.self_s).sum();
    let mut out = format!("traced wall {wall_s:.3} s, busy self time {busy:.3} s across threads\n");
    let _ = writeln!(out, "{:<16} {:>10} {:>8}", "layer", "self_s", "share");
    for l in layers {
        let _ = writeln!(
            out,
            "{:<16} {:>10.4} {:>7.1}%",
            l.layer,
            l.self_s,
            100.0 * l.self_s / busy
        );
    }
    if let Some(top) = layers.iter().max_by(|a, b| a.self_s.total_cmp(&b.self_s)) {
        let _ = writeln!(
            out,
            "dominant layer: {} ({:.1}% of busy self time)",
            top.layer,
            100.0 * top.self_s / busy
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(path: &str, depth: usize, start_ns: u64, end_ns: u64) -> SpanEvent {
        let name: &'static str = Box::leak(path.rsplit(';').next().unwrap().to_string().into());
        SpanEvent {
            path: path.to_string(),
            name,
            depth,
            start_ns,
            end_ns,
        }
    }

    fn get(layers: &[LayerTime], layer: &str) -> f64 {
        layers.iter().find(|l| l.layer == layer).unwrap().self_s * 1e9
    }

    #[test]
    fn main_thread_self_time_excludes_children_and_pool_waits() {
        // bench.iteration [0,100) > search.group [10,90); two pool
        // workers run engine.evaluate over [20,60) and [30,70), and one
        // of them composes over [40,50).
        let events = vec![
            ev("engine.evaluate;engine.compose", 1, 40, 50),
            ev("engine.evaluate", 0, 20, 60),
            ev("engine.evaluate", 0, 30, 70),
            ev("bench.iteration;search.group", 1, 10, 90),
            ev("bench.iteration", 0, 0, 100),
        ];
        let layers = self_time_by_layer(&events);
        // bench: 100 - 80 of child, no pool time outside the child.
        assert!((get(&layers, "bench") - 20.0).abs() < 1e-6);
        // search.group: 80 minus the pool's 50 ns of [20,70).
        assert!((get(&layers, "autohet") - 30.0).abs() < 1e-6);
        // engine: 40 + 40 - 10 of compose, plus compose's own 10.
        assert!((get(&layers, "accel.engine") - 80.0).abs() < 1e-6);
    }

    #[test]
    fn coverage_merges_and_clips() {
        let c = Coverage::new(vec![(5, 10), (0, 3), (8, 12)]);
        assert_eq!(c.0, vec![(0, 3), (5, 12)]);
        assert_eq!(c.within(2, 6), 2);
        assert_eq!(c.within(12, 20), 0);
    }
}

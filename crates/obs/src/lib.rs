//! # autohet-obs — zero-dependency observability substrate
//!
//! Every layer of the stack used to invent its own counters
//! (`EngineStats` in the evaluation engine, `SearchTiming` in the RL
//! search, per-tenant histograms in the serving simulator). This crate is
//! the shared substrate underneath all of them:
//!
//! - [`trace`]: a span-based structured tracer — hierarchical scopes with
//!   monotonic timestamps, recorded into a bounded ring buffer, exported
//!   as JSONL or as collapsed stacks consumable by flamegraph tools.
//! - [`metrics`]: a metrics registry unifying counters, gauges, and
//!   log₂-binned histograms behind typed handles, with deterministic
//!   (name-sorted) text and JSONL snapshots.
//! - [`series`]: time-series tables (named, unit-annotated columns) with
//!   CSV and JSONL export — the carrier for per-episode search traces and
//!   per-window serving telemetry.
//! - [`alert`]: a deterministic alert engine — threshold and multi-window
//!   SLO burn-rate rules with a pending → firing → resolved state machine,
//!   evaluated on simulated time so alert timelines are bit-reproducible.
//! - [`regress`]: a perf-regression sentinel over the `BENCH_*.json`
//!   min-of-N snapshots, with a noise-aware threshold and a JSONL verdict
//!   artifact for CI.
//!
//! ## Overhead contract
//!
//! Instrumented code calls [`trace::span`] unconditionally; when no
//! recorder is installed the call is a single relaxed atomic load and the
//! returned guard's `Drop` is a no-op. Nothing in this crate feeds back
//! into instrumented computations, so **results are bit-identical with
//! the recorder on or off** — the downstream crates property-test exactly
//! that for `evaluate`, `rl_search`, and `run_sharded`.
//!
//! ## Determinism
//!
//! Span timestamps are wall-clock (monotonic, process-relative) and so
//! vary run to run; everything else — metric snapshots, series exports,
//! collapsed stacks — is deterministic given the same recorded values,
//! because all exports iterate in name- or insertion-sorted order.
//!
//! This crate deliberately has **no dependencies** (std only).

pub mod alert;
pub mod metrics;
pub mod regress;
pub mod series;
pub mod trace;

pub use alert::{
    AlertEngine, AlertEvent, AlertKind, AlertRule, AlertTimeline, BurnRateRule, Comparison,
    ThresholdRule,
};
pub use metrics::{Counter, Gauge, Histogram, MetricSnapshot, Registry, SnapshotValue};
pub use regress::{
    compare, parse_snapshot, BenchSnapshot, RegressConfig, RegressReport, RegressRow, Verdict,
};
pub use series::Series;
pub use trace::{Span, SpanEvent, Tracer};

/// Minimal JSON string escaping (quotes, backslashes, control chars) for
/// the hand-rolled JSONL writers in this crate.
pub(crate) fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Format an `f64` for JSON/CSV: finite values use Rust's shortest
/// round-trip formatting; non-finite values (invalid JSON) become `null`
/// markers in JSON and empty cells in CSV via the callers.
pub(crate) fn json_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_escaping_handles_specials() {
        assert_eq!(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(json_escape("\u{1}"), "\\u0001");
        assert_eq!(json_escape("plain"), "plain");
    }

    #[test]
    fn float_formatting_is_roundtrip_and_null_safe() {
        assert_eq!(json_f64(1.5), "1.5");
        assert_eq!(json_f64(0.1), "0.1");
        assert_eq!(json_f64(f64::NAN), "null");
        assert_eq!(json_f64(f64::INFINITY), "null");
    }
}

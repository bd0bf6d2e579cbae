//! Deterministic SLO alerting: rules over telemetry samples, a
//! pending → firing → resolved state machine with hysteresis, and an
//! exportable alert timeline.
//!
//! The engine is the *active* half of the observability layer: the
//! passive substrate ([`metrics`](crate::metrics),
//! [`series`](crate::series)) records what happened, this module decides
//! *when something is wrong*. Two rule families cover the stack's needs:
//!
//! - [`ThresholdRule`]: a static bound on one signal (queue depth above a
//!   limit, occupancy below a floor), with `for_samples` hysteresis
//!   before firing and `clear_samples` before resolving.
//! - [`BurnRateRule`]: multi-window SLO burn rate à la SRE practice — the
//!   signal is a per-window error *fraction*, the rule fires when both a
//!   short and a long trailing window consume error budget faster than
//!   `factor`× the sustainable rate. The short window makes the alert
//!   fast, the long window keeps one bad sample from paging.
//!
//! ## Determinism contract
//!
//! The engine has no clock: every observation carries an explicit
//! **simulated** timestamp, and all state transitions are pure functions
//! of the rule configuration and the observed sample sequence. Feeding
//! the same windows in the same order always yields a bit-identical
//! [`AlertTimeline`] — which is what lets the serving simulator's alert
//! timeline be compared across the single-threaded and parallel drivers.
//! The engine only *consumes* telemetry; nothing feeds back into the
//! simulated quantities, so enabling alerting cannot change any result.

use crate::{json_escape, json_f64};
use std::collections::VecDeque;
use std::fmt::Write as _;

/// Direction of a threshold breach.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Comparison {
    /// Breach when `value > threshold`.
    Above,
    /// Breach when `value < threshold`.
    Below,
}

/// Static bound on one signal with firing/resolution hysteresis.
#[derive(Debug, Clone, PartialEq)]
pub struct ThresholdRule {
    /// Rule name (the `rule` column of timeline events).
    pub name: String,
    /// Signal this rule watches (matched against observation keys).
    pub signal: String,
    /// Breach direction.
    pub cmp: Comparison,
    /// The bound.
    pub threshold: f64,
    /// Consecutive breaching samples before the rule fires (≥ 1). With
    /// 1 the rule skips the pending phase and fires immediately.
    pub for_samples: usize,
    /// Consecutive clean samples before a firing rule resolves (≥ 1).
    pub clear_samples: usize,
}

impl ThresholdRule {
    /// A rule firing when `signal` exceeds `threshold`, with 1-sample
    /// trigger and 1-sample resolution hysteresis.
    pub fn above(name: &str, signal: &str, threshold: f64) -> Self {
        ThresholdRule {
            name: name.to_string(),
            signal: signal.to_string(),
            cmp: Comparison::Above,
            threshold,
            for_samples: 1,
            clear_samples: 1,
        }
    }

    /// A rule firing when `signal` drops below `threshold`.
    pub fn below(name: &str, signal: &str, threshold: f64) -> Self {
        ThresholdRule {
            cmp: Comparison::Below,
            ..ThresholdRule::above(name, signal, threshold)
        }
    }

    /// Set the firing hysteresis (consecutive breaching samples).
    pub fn for_samples(mut self, n: usize) -> Self {
        self.for_samples = n.max(1);
        self
    }

    /// Set the resolution hysteresis (consecutive clean samples).
    pub fn clear_samples(mut self, n: usize) -> Self {
        self.clear_samples = n.max(1);
        self
    }
}

/// Multi-window SLO burn-rate rule. The watched signal is an error
/// fraction in `[0, 1]` per sample (e.g. `1 − slo_attainment` of one
/// telemetry window); `budget` is the error fraction the SLO allows
/// (`1 − slo_target`). The per-sample burn rate is `error / budget`; the
/// rule breaches when the mean burn rate over the last `short_windows`
/// samples **and** over the last `long_windows` samples both reach
/// `factor`.
#[derive(Debug, Clone, PartialEq)]
pub struct BurnRateRule {
    /// Rule name (the `rule` column of timeline events).
    pub name: String,
    /// Error-fraction signal this rule watches.
    pub signal: String,
    /// Allowed error fraction (`1 − slo_target`), > 0.
    pub budget: f64,
    /// Burn-rate multiple that breaches (≥ 1 is meaningful).
    pub factor: f64,
    /// Fast window length in samples (≥ 1).
    pub short_windows: usize,
    /// Slow window length in samples (≥ `short_windows`).
    pub long_windows: usize,
    /// Consecutive clean samples before a firing rule resolves (≥ 1).
    pub clear_samples: usize,
}

impl BurnRateRule {
    /// A burn-rate rule for an SLO target (e.g. `0.95` → 5% budget),
    /// firing at `factor`× sustained burn over 1-sample short and
    /// 4-sample long windows, resolving after 2 clean samples.
    pub fn new(name: &str, signal: &str, slo_target: f64, factor: f64) -> Self {
        assert!(
            (0.0..1.0).contains(&slo_target),
            "slo_target must be in [0, 1): {slo_target}"
        );
        BurnRateRule {
            name: name.to_string(),
            signal: signal.to_string(),
            budget: 1.0 - slo_target,
            factor,
            short_windows: 1,
            long_windows: 4,
            clear_samples: 2,
        }
    }

    /// Set the fast/slow window lengths in samples.
    pub fn windows(mut self, short: usize, long: usize) -> Self {
        self.short_windows = short.max(1);
        self.long_windows = long.max(self.short_windows);
        self
    }

    /// Set the resolution hysteresis (consecutive clean samples).
    pub fn clear_samples(mut self, n: usize) -> Self {
        self.clear_samples = n.max(1);
        self
    }
}

/// One rule of an [`AlertEngine`].
#[derive(Debug, Clone, PartialEq)]
pub enum AlertRule {
    Threshold(ThresholdRule),
    BurnRate(BurnRateRule),
}

impl AlertRule {
    fn name(&self) -> &str {
        match self {
            AlertRule::Threshold(r) => &r.name,
            AlertRule::BurnRate(r) => &r.name,
        }
    }

    fn signal(&self) -> &str {
        match self {
            AlertRule::Threshold(r) => &r.signal,
            AlertRule::BurnRate(r) => &r.signal,
        }
    }

    fn for_samples(&self) -> usize {
        match self {
            AlertRule::Threshold(r) => r.for_samples,
            AlertRule::BurnRate(_) => 1,
        }
    }

    fn clear_samples(&self) -> usize {
        match self {
            AlertRule::Threshold(r) => r.clear_samples,
            AlertRule::BurnRate(r) => r.clear_samples,
        }
    }
}

/// Kind of an [`AlertEvent`] on the timeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AlertKind {
    /// A rule started breaching but has not met its `for_samples`
    /// hysteresis yet.
    Pending,
    /// A rule crossed its hysteresis and is now active.
    Firing,
    /// A firing rule observed `clear_samples` clean samples.
    Resolved,
    /// An externally injected marker (e.g. a serving health trip) placed
    /// on the same timeline via [`AlertEngine::annotate`].
    Annotation,
}

impl AlertKind {
    /// Lower-case label used by the exporters.
    pub fn label(&self) -> &'static str {
        match self {
            AlertKind::Pending => "pending",
            AlertKind::Firing => "firing",
            AlertKind::Resolved => "resolved",
            AlertKind::Annotation => "annotation",
        }
    }
}

/// One transition (or annotation) on the alert timeline.
#[derive(Debug, Clone, PartialEq)]
pub struct AlertEvent {
    /// Simulated timestamp of the observation that caused the event, in
    /// nanoseconds (or whatever unit the caller's timeline uses — the
    /// engine never interprets it).
    pub t_ns: u64,
    /// Rule name (or annotation label).
    pub rule: String,
    /// Transition kind.
    pub kind: AlertKind,
    /// The value that drove the transition: the signal value for
    /// threshold rules, the short-window burn rate for burn-rate rules,
    /// the caller's payload for annotations.
    pub value: f64,
}

/// The exportable product of an alerting run: events in timeline order
/// (ascending `t_ns`, insertion order within ties — deterministic given
/// the same observations).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct AlertTimeline {
    pub events: Vec<AlertEvent>,
}

impl AlertTimeline {
    /// JSON Lines export: one `{"t","rule","kind","value"}` object per
    /// event.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for e in &self.events {
            let _ = writeln!(
                out,
                "{{\"t\":{},\"rule\":\"{}\",\"kind\":\"{}\",\"value\":{}}}",
                e.t_ns,
                json_escape(&e.rule),
                e.kind.label(),
                json_f64(e.value)
            );
        }
        out
    }

    /// CSV export with a `t,rule,kind,value` header.
    pub fn to_csv(&self) -> String {
        let mut out = String::from("t[ns],rule,kind,value\n");
        for e in &self.events {
            let _ = writeln!(
                out,
                "{},{},{},{}",
                e.t_ns,
                e.rule,
                e.kind.label(),
                if e.value.is_finite() {
                    format!("{}", e.value)
                } else {
                    String::new()
                }
            );
        }
        out
    }

    /// Events of one rule, in timeline order.
    pub fn for_rule(&self, rule: &str) -> Vec<&AlertEvent> {
        self.events.iter().filter(|e| e.rule == rule).collect()
    }

    /// Number of events of the given kind.
    pub fn count(&self, kind: AlertKind) -> usize {
        self.events.iter().filter(|e| e.kind == kind).count()
    }
}

/// Per-rule evaluation state.
#[derive(Debug, Clone, PartialEq)]
struct RuleState {
    phase: Phase,
    /// Consecutive breaching samples (while inactive/pending) or clean
    /// samples (while firing).
    streak: usize,
    /// Trailing samples for burn-rate rules (bounded by `long_windows`).
    window: VecDeque<f64>,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    Inactive,
    Pending,
    Firing,
}

/// Deterministic alert engine: a set of rules evaluated against
/// explicitly timestamped samples.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct AlertEngine {
    rules: Vec<AlertRule>,
    states: Vec<RuleState>,
    events: Vec<AlertEvent>,
}

impl AlertEngine {
    pub fn new() -> Self {
        AlertEngine::default()
    }

    /// Add a rule (builder style). Rule names should be unique; the
    /// engine does not enforce it, but timelines become ambiguous.
    pub fn with_rule(mut self, rule: AlertRule) -> Self {
        self.add_rule(rule);
        self
    }

    /// Add a rule.
    pub fn add_rule(&mut self, rule: AlertRule) {
        if let AlertRule::BurnRate(r) = &rule {
            assert!(
                r.budget > 0.0,
                "burn-rate rule {:?}: budget must be > 0",
                r.name
            );
            assert!(
                r.factor > 0.0,
                "burn-rate rule {:?}: factor must be > 0",
                r.name
            );
        }
        self.states.push(RuleState {
            phase: Phase::Inactive,
            streak: 0,
            window: VecDeque::new(),
        });
        self.rules.push(rule);
    }

    /// Feed one timestamped sample: `signals` maps signal names to
    /// values. A rule whose signal is absent from the sample skips this
    /// observation entirely (no state change). Timestamps are expected
    /// to be non-decreasing; the engine does not reorder observations.
    pub fn observe(&mut self, t_ns: u64, signals: &[(&str, f64)]) {
        for (rule, state) in self.rules.iter().zip(self.states.iter_mut()) {
            let Some(&(_, value)) = signals.iter().find(|(s, _)| *s == rule.signal()) else {
                continue;
            };
            let (breach, event_value) = match rule {
                AlertRule::Threshold(r) => {
                    let b = match r.cmp {
                        Comparison::Above => value > r.threshold,
                        Comparison::Below => value < r.threshold,
                    };
                    (b, value)
                }
                AlertRule::BurnRate(r) => {
                    state.window.push_back(value);
                    while state.window.len() > r.long_windows {
                        state.window.pop_front();
                    }
                    let mean_of = |n: usize| {
                        let take = n.min(state.window.len());
                        let sum: f64 = state.window.iter().rev().take(take).sum();
                        sum / take.max(1) as f64
                    };
                    let burn_short = mean_of(r.short_windows) / r.budget;
                    let burn_long = mean_of(r.long_windows) / r.budget;
                    (burn_short >= r.factor && burn_long >= r.factor, burn_short)
                }
            };
            let emit = |events: &mut Vec<AlertEvent>, kind: AlertKind| {
                events.push(AlertEvent {
                    t_ns,
                    rule: rule.name().to_string(),
                    kind,
                    value: event_value,
                });
            };
            match (state.phase, breach) {
                (Phase::Inactive, true) => {
                    state.streak = 1;
                    if state.streak >= rule.for_samples() {
                        state.phase = Phase::Firing;
                        state.streak = 0;
                        emit(&mut self.events, AlertKind::Firing);
                    } else {
                        state.phase = Phase::Pending;
                        emit(&mut self.events, AlertKind::Pending);
                    }
                }
                (Phase::Inactive, false) => {}
                (Phase::Pending, true) => {
                    state.streak += 1;
                    if state.streak >= rule.for_samples() {
                        state.phase = Phase::Firing;
                        state.streak = 0;
                        emit(&mut self.events, AlertKind::Firing);
                    }
                }
                // A pending alert that stops breaching never fired, so it
                // resolves silently (matching common alerting practice).
                (Phase::Pending, false) => {
                    state.phase = Phase::Inactive;
                    state.streak = 0;
                }
                (Phase::Firing, true) => state.streak = 0,
                (Phase::Firing, false) => {
                    state.streak += 1;
                    if state.streak >= rule.clear_samples() {
                        state.phase = Phase::Inactive;
                        state.streak = 0;
                        emit(&mut self.events, AlertKind::Resolved);
                    }
                }
            }
        }
    }

    /// Place an external marker on the timeline (e.g. a serving replica's
    /// circuit-breaker trip): rules never react to annotations, they
    /// only interleave with rule transitions in the export.
    pub fn annotate(&mut self, t_ns: u64, label: &str, value: f64) {
        self.events.push(AlertEvent {
            t_ns,
            rule: label.to_string(),
            kind: AlertKind::Annotation,
            value,
        });
    }

    /// Names of the rules currently firing, in rule order.
    pub fn firing(&self) -> Vec<&str> {
        self.rules
            .iter()
            .zip(&self.states)
            .filter(|(_, s)| s.phase == Phase::Firing)
            .map(|(r, _)| r.name())
            .collect()
    }

    /// Whether the named rule is currently firing.
    pub fn is_firing(&self, rule: &str) -> bool {
        self.firing().contains(&rule)
    }

    /// Consume the engine into the final timeline: events sorted by
    /// timestamp (stable — insertion order breaks ties, so the result is
    /// deterministic given the same observation sequence).
    pub fn finish(mut self) -> AlertTimeline {
        self.events.sort_by_key(|e| e.t_ns);
        AlertTimeline {
            events: self.events,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn threshold_engine(for_samples: usize, clear_samples: usize) -> AlertEngine {
        AlertEngine::new().with_rule(AlertRule::Threshold(
            ThresholdRule::above("depth_high", "depth", 10.0)
                .for_samples(for_samples)
                .clear_samples(clear_samples),
        ))
    }

    #[test]
    fn threshold_fires_and_resolves_without_hysteresis() {
        let mut e = threshold_engine(1, 1);
        e.observe(100, &[("depth", 5.0)]);
        assert!(e.firing().is_empty());
        e.observe(200, &[("depth", 11.0)]);
        assert!(e.is_firing("depth_high"));
        e.observe(300, &[("depth", 3.0)]);
        assert!(!e.is_firing("depth_high"));
        let t = e.finish();
        let kinds: Vec<AlertKind> = t.events.iter().map(|ev| ev.kind).collect();
        assert_eq!(kinds, [AlertKind::Firing, AlertKind::Resolved]);
        assert_eq!(t.events[0].t_ns, 200);
        assert_eq!(t.events[1].t_ns, 300);
    }

    #[test]
    fn firing_hysteresis_requires_consecutive_breaches() {
        let mut e = threshold_engine(3, 1);
        // Two breaches, a clean sample, then three breaches.
        e.observe(1, &[("depth", 20.0)]); // pending
        e.observe(2, &[("depth", 20.0)]);
        e.observe(3, &[("depth", 0.0)]); // silently resets
        e.observe(4, &[("depth", 20.0)]); // pending again
        e.observe(5, &[("depth", 20.0)]);
        assert!(!e.is_firing("depth_high"));
        e.observe(6, &[("depth", 20.0)]); // third consecutive → firing
        assert!(e.is_firing("depth_high"));
        let t = e.finish();
        assert_eq!(t.count(AlertKind::Pending), 2);
        assert_eq!(t.count(AlertKind::Firing), 1);
        assert_eq!(t.count(AlertKind::Resolved), 0);
    }

    #[test]
    fn resolution_hysteresis_requires_consecutive_clean_samples() {
        let mut e = threshold_engine(1, 2);
        e.observe(1, &[("depth", 20.0)]);
        e.observe(2, &[("depth", 0.0)]); // 1 clean — still firing
        assert!(e.is_firing("depth_high"));
        e.observe(3, &[("depth", 20.0)]); // breach resets the clean streak
        e.observe(4, &[("depth", 0.0)]);
        e.observe(5, &[("depth", 0.0)]); // 2 consecutive clean → resolved
        assert!(!e.is_firing("depth_high"));
        let t = e.finish();
        assert_eq!(t.count(AlertKind::Firing), 1);
        assert_eq!(t.count(AlertKind::Resolved), 1);
        assert_eq!(t.events.last().unwrap().t_ns, 5);
    }

    #[test]
    fn below_rules_and_missing_signals() {
        let mut e = AlertEngine::new().with_rule(AlertRule::Threshold(ThresholdRule::below(
            "slo_low", "slo", 0.9,
        )));
        e.observe(1, &[("other", 0.0)]); // signal absent: no state change
        e.observe(2, &[("slo", 0.95)]);
        assert!(e.firing().is_empty());
        e.observe(3, &[("slo", 0.5)]);
        assert!(e.is_firing("slo_low"));
    }

    #[test]
    fn burn_rate_needs_short_and_long_windows_hot() {
        // 95% SLO → 5% budget; factor 2 → sustained error ≥ 10%.
        let mut e = AlertEngine::new().with_rule(AlertRule::BurnRate(
            BurnRateRule::new("slo_burn", "err", 0.95, 2.0)
                .windows(1, 4)
                .clear_samples(2),
        ));
        // One hot sample: short window breaches, long window (mean of
        // history) breaches too since history is just this sample.
        e.observe(1, &[("err", 0.5)]);
        assert!(e.is_firing("slo_burn"));
        // Cool samples dilute the long window and clear the short one.
        e.observe(2, &[("err", 0.0)]);
        e.observe(3, &[("err", 0.0)]);
        assert!(!e.is_firing("slo_burn"), "2 clean samples must resolve");
        // A single hot sample after a long clean stretch: short window is
        // hot but the 4-sample long window mean is 0.5/4 = 0.125 → burn
        // 2.5 ≥ 2 fires; with a longer window it would not.
        let t = e.finish();
        assert_eq!(t.count(AlertKind::Firing), 1);
        assert_eq!(t.count(AlertKind::Resolved), 1);
    }

    #[test]
    fn long_window_suppresses_single_spikes() {
        let mut e = AlertEngine::new().with_rule(AlertRule::BurnRate(
            BurnRateRule::new("slo_burn", "err", 0.95, 2.0).windows(1, 8),
        ));
        // Seven clean windows, then one spike: short burn is 10 but the
        // 8-window long mean is 0.5/8 ≈ 0.0625 → burn 1.25 < 2.
        for t in 1..=7 {
            e.observe(t, &[("err", 0.0)]);
        }
        e.observe(8, &[("err", 0.5)]);
        assert!(!e.is_firing("slo_burn"), "one spike must not page");
        // Sustained errors breach both windows.
        for t in 9..=16 {
            e.observe(t, &[("err", 0.5)]);
        }
        assert!(e.is_firing("slo_burn"));
    }

    #[test]
    fn annotations_interleave_on_the_sorted_timeline() {
        let mut e = threshold_engine(1, 1);
        e.observe(100, &[("depth", 20.0)]);
        e.annotate(50, "health.trip", 0.0);
        e.annotate(150, "health.recal", 1.0);
        e.observe(200, &[("depth", 0.0)]);
        let t = e.finish();
        let order: Vec<(u64, &str)> = t
            .events
            .iter()
            .map(|ev| (ev.t_ns, ev.kind.label()))
            .collect();
        assert_eq!(
            order,
            [
                (50, "annotation"),
                (100, "firing"),
                (150, "annotation"),
                (200, "resolved")
            ]
        );
        assert_eq!(t.for_rule("health.trip").len(), 1);
    }

    #[test]
    fn identical_observations_yield_identical_timelines() {
        let run = || {
            let mut e = AlertEngine::new()
                .with_rule(AlertRule::Threshold(
                    ThresholdRule::above("a", "x", 1.0).for_samples(2),
                ))
                .with_rule(AlertRule::BurnRate(BurnRateRule::new("b", "e", 0.99, 3.0)));
            for t in 0..50u64 {
                let x = ((t * 37) % 11) as f64 / 3.0;
                let err = if t % 7 == 0 { 0.2 } else { 0.0 };
                e.observe(t, &[("x", x), ("e", err)]);
                if t % 13 == 0 {
                    e.annotate(t, "mark", t as f64);
                }
            }
            e.finish()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn exports_are_wellformed() {
        let mut e = threshold_engine(1, 1);
        e.observe(10, &[("depth", 99.0)]);
        e.annotate(20, "note \"quoted\"", f64::NAN);
        let t = e.finish();
        let jsonl = t.to_jsonl();
        assert_eq!(jsonl.lines().count(), 2);
        assert!(
            jsonl.contains("{\"t\":10,\"rule\":\"depth_high\",\"kind\":\"firing\",\"value\":99}")
        );
        assert!(jsonl.contains("\\\"quoted\\\""));
        assert!(jsonl.contains("\"value\":null"));
        let csv = t.to_csv();
        assert!(csv.starts_with("t[ns],rule,kind,value\n"));
        assert_eq!(csv.lines().count(), 3);
    }
}

//! Metrics table of finished runs.
//!
//! A [`Registry`] maps names to [`Metric`] values. Publishers
//! (`EngineStats::publish`, `publish_report`, ...) write it from a
//! finished outcome, and writing a name again keeps the last value.
//!
//! [`Registry::to_text`] and [`Registry::to_jsonl`] iterate in name order,
//! so exports are deterministic given the same values. A histogram holds
//! the per-bin counts of `autohet-serve`'s `LatencyHistogram` as they are
//! (bin `i` counts values in `[2^i, 2^(i+1))`, bin 0 also absorbing 0);
//! this module only reads them, through one nearest-rank quantile rule.

use crate::{json_escape, json_f64};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::mem::discriminant;

/// One metric's value.
#[derive(Debug, Clone, PartialEq)]
pub enum Metric {
    Counter(u64),
    Gauge(i64),
    /// Per-bin counts of a log₂ histogram.
    Histogram(Vec<u64>),
}

/// Nearest-rank quantile over log₂ bins, reporting the **upper bound** of
/// the bin containing the rank-⌈q·n⌉ observation (a conservative
/// estimate: true value ≤ reported value). Returns 0 for an empty
/// histogram; `q` is clamped to `[0, 1]` and `q = 0` selects the first
/// observation's bin.
fn quantile_from_bins(bins: &[u64], q: f64) -> u64 {
    let total: u64 = bins.iter().sum();
    if total == 0 {
        return 0;
    }
    let q = q.clamp(0.0, 1.0);
    let rank = ((q * total as f64).ceil() as u64).clamp(1, total);
    let mut seen = 0u64;
    for (i, &c) in bins.iter().enumerate() {
        seen += c;
        if seen >= rank {
            // Bin i covers [2^i, 2^(i+1)); its inclusive upper bound is
            // 2^(i+1) - 1, except bin 0 ([0, 2)) and the saturated last
            // bin (which extends to u64::MAX).
            return if i >= 63 {
                u64::MAX
            } else {
                (1u64 << (i + 1)) - 1
            };
        }
    }
    u64::MAX
}

/// Named metric table, sorted by name. Writing a name as a different kind
/// than before panics (it is a programming error, caught in tests).
#[derive(Debug, Default)]
pub struct Registry {
    metrics: BTreeMap<String, Metric>,
}

impl Registry {
    pub fn new() -> Self {
        Registry::default()
    }

    /// Write `value` under `name`, replacing any earlier value.
    pub fn set(&mut self, name: &str, value: Metric) {
        if let Some(old) = self.metrics.get(name) {
            assert!(
                discriminant(old) == discriminant(&value),
                "metric {name:?} already written with a different kind"
            );
        }
        self.metrics.insert(name.to_string(), value);
    }

    /// The value last written under `name`.
    pub fn get(&self, name: &str) -> Option<&Metric> {
        self.metrics.get(name)
    }

    /// Human-readable `name value` lines; histograms render count and
    /// p50/p95/p99 bin upper bounds.
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        for (name, metric) in &self.metrics {
            let _ = match metric {
                Metric::Counter(v) => writeln!(out, "{name} {v}"),
                Metric::Gauge(v) => writeln!(out, "{name} {v}"),
                Metric::Histogram(bins) => writeln!(
                    out,
                    "{name} count={} p50<={} p95<={} p99<={}",
                    bins.iter().sum::<u64>(),
                    quantile_from_bins(bins, 0.50),
                    quantile_from_bins(bins, 0.95),
                    quantile_from_bins(bins, 0.99),
                ),
            };
        }
        out
    }

    /// JSON Lines export: one `{"name":...,"kind":...,...}` object per
    /// metric, sorted by name.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (name, metric) in &self.metrics {
            let name = json_escape(name);
            let _ = match metric {
                Metric::Counter(v) => writeln!(
                    out,
                    "{{\"name\":\"{name}\",\"kind\":\"counter\",\"value\":{v}}}"
                ),
                Metric::Gauge(v) => writeln!(
                    out,
                    "{{\"name\":\"{name}\",\"kind\":\"gauge\",\"value\":{v}}}"
                ),
                Metric::Histogram(bins) => {
                    // Only non-empty bins are listed, as [bin, count]
                    // pairs, to keep lines compact.
                    let pairs: Vec<String> = bins
                        .iter()
                        .enumerate()
                        .filter(|(_, &c)| c > 0)
                        .map(|(i, &c)| format!("[{i},{c}]"))
                        .collect();
                    writeln!(
                        out,
                        "{{\"name\":\"{name}\",\"kind\":\"histogram\",\"count\":{},\"p50\":{},\"p99\":{},\"bins\":[{}]}}",
                        bins.iter().sum::<u64>(),
                        json_f64(quantile_from_bins(bins, 0.50) as f64),
                        json_f64(quantile_from_bins(bins, 0.99) as f64),
                        pairs.join(",")
                    )
                }
            };
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_report_bin_upper_bounds() {
        let mut bins = vec![0u64; 64];
        assert_eq!(quantile_from_bins(&bins, 0.5), 0); // empty
        bins[3] = 1; // a single sample in [8, 16)
        assert_eq!(quantile_from_bins(&bins, 0.0), 15);
        assert_eq!(quantile_from_bins(&bins, 0.5), 15);
        assert_eq!(quantile_from_bins(&bins, 1.0), 15);
        bins[10] = 99; // now p50/p99 land in [1024, 2048)
        assert_eq!(quantile_from_bins(&bins, 0.5), 2047);
        assert_eq!(quantile_from_bins(&bins, 0.99), 2047);
        assert_eq!(quantile_from_bins(&bins, 0.01), 15);
        let mut top = vec![0u64; 64];
        top[63] = 5;
        assert_eq!(quantile_from_bins(&top, 0.5), u64::MAX);
        // One sample each of 10, 100, 1000 and 10000: each quartile
        // reads its own bin's upper bound, and q outside [0, 1] clamps.
        let mut spread = vec![0u64; 64];
        for bin in [3, 6, 9, 13] {
            spread[bin] = 1;
        }
        let at = |q| quantile_from_bins(&spread, q);
        assert_eq!(
            [at(0.25), at(0.5), at(0.75), at(1.0)],
            [15, 127, 1023, 16383]
        );
        assert_eq!(at(-1.0), at(0.0));
        assert_eq!(at(2.0), at(1.0));
    }

    #[test]
    fn snapshot_is_name_sorted_and_exports_deterministically() {
        let mut r = Registry::new();
        r.set("z.last", Metric::Counter(1));
        r.set("a.first", Metric::Gauge(-2));
        let mut bins = vec![0u64; 64];
        bins[6] = 1; // one sample of 100, in [64, 128)
        r.set("m.mid", Metric::Histogram(bins));
        assert_eq!(
            r.to_text(),
            "a.first -2\nm.mid count=1 p50<=127 p95<=127 p99<=127\nz.last 1\n"
        );
        let jsonl = r.to_jsonl();
        assert_eq!(jsonl.lines().count(), 3);
        assert!(jsonl.contains("{\"name\":\"a.first\",\"kind\":\"gauge\",\"value\":-2}"));
        assert!(jsonl
            .contains("{\"name\":\"m.mid\",\"kind\":\"histogram\",\"count\":1,\"p50\":127,\"p99\":127,\"bins\":[[6,1]]}"));
    }

    #[test]
    fn a_name_written_twice_keeps_the_last_value() {
        let mut r = Registry::new();
        r.set("episodes", Metric::Counter(20));
        r.set("episodes", Metric::Counter(10));
        assert_eq!(r.get("episodes"), Some(&Metric::Counter(10)));
        assert_eq!(r.to_text(), "episodes 10\n");
    }

    #[test]
    #[should_panic(expected = "different kind")]
    fn kind_mismatch_panics() {
        let mut r = Registry::new();
        r.set("x", Metric::Counter(0));
        r.set("x", Metric::Gauge(0));
    }
}

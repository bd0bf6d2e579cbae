//! Report building blocks shared by the serving engine and its
//! telemetry: the log₂ latency histogram, per-window statistics, Jain's
//! fairness index and nearest-rank percentiles. The report itself is
//! [`ShardServingReport`](crate::shard::ShardServingReport).

use serde::{Deserialize, Serialize};

/// Number of power-of-two latency bins (covers the full `u64` range).
const HIST_BINS: usize = 64;

/// Fixed log₂-binned latency histogram: bin `i` counts latencies in
/// `[2^i, 2^(i+1))` ns (bin 0 also absorbs 0 ns).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct LatencyHistogram {
    /// Per-bin request counts.
    pub bins: Vec<u64>,
}

impl LatencyHistogram {
    pub fn new() -> Self {
        LatencyHistogram {
            bins: vec![0; HIST_BINS],
        }
    }

    /// Record one request latency \[ns\].
    pub fn record(&mut self, latency_ns: u64) {
        let bin = if latency_ns <= 1 {
            0
        } else {
            (latency_ns.ilog2() as usize).min(HIST_BINS - 1)
        };
        self.bins[bin] += 1;
    }

    /// Total recorded requests.
    pub fn count(&self) -> u64 {
        self.bins.iter().sum()
    }

    /// Fold another histogram's counts into this one (bin-wise sum) —
    /// how per-window telemetry aggregates into run-level distributions.
    pub fn merge(&mut self, other: &LatencyHistogram) {
        for (a, b) in self.bins.iter_mut().zip(&other.bins) {
            *a += b;
        }
    }

    /// Nearest-rank quantile estimate: the inclusive upper bound of the
    /// bin holding the rank-⌈q·n⌉ latency (so the true latency is ≤ the
    /// returned value). Returns 0 for an empty histogram; `q` is clamped
    /// to `[0, 1]`.
    pub fn quantile(&self, q: f64) -> u64 {
        autohet_obs::metrics::quantile_from_bins(&self.bins, q)
    }
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        LatencyHistogram::new()
    }
}

/// Telemetry aggregated over one time window of a serving run: one window
/// per epoch of [`ShardConfig::epochs`]. Windows tile `[0, horizon)`
/// equally; the last window additionally absorbs the drain tail past the
/// horizon. Submission-side columns (`submitted`, `rejected`,
/// `peak_queue_depth`) bucket by arrival time; completion-side columns
/// (`completed`, `batches`, latency, SLO) bucket by batch completion
/// time.
///
/// [`ShardConfig::epochs`]: crate::shard::ShardConfig::epochs
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WindowStats {
    /// Window index (0-based).
    pub index: usize,
    /// Window start \[ns\].
    pub start_ns: u64,
    /// Nominal window end \[ns\] (exclusive; the last window also covers
    /// the drain past this instant).
    pub end_ns: u64,
    /// Arrivals generated in the window, all tenants.
    pub submitted: u64,
    /// Arrivals shed by admission control in the window.
    pub rejected: u64,
    /// Requests completed in the window.
    pub completed: u64,
    /// Batches completed in the window.
    pub batches: u64,
    /// Mean requests per completed batch (0.0 for an idle window).
    pub mean_batch_size: f64,
    /// Mean batch fill as a fraction of `max_batch`.
    pub batch_occupancy: f64,
    /// Fraction of the window's completed requests that met their
    /// tenant's SLO with a clean (not drift-errored) result; 1.0 for a
    /// window with no completions.
    pub slo_attainment: f64,
    /// Time-weighted aggregate queue depth (all tenants) over the window.
    pub mean_queue_depth: f64,
    /// Largest aggregate queued-request count observed in the window.
    pub peak_queue_depth: u64,
    /// Replica downtime overlapping the window, summed over replicas \[ns\].
    pub downtime_ns: u64,
    /// Jain's fairness index over per-tenant attained service per unit
    /// weight within the window (tenants idle in the window are
    /// excluded; 1.0 when at most one tenant was active).
    #[serde(default)]
    pub fairness_index: f64,
    /// Latency distribution of the window's completed requests.
    pub histogram: LatencyHistogram,
}

/// Jain's fairness index `J = (Σx)² / (n·Σx²)` over the non-zero
/// allocation samples `x`: 1.0 when every sample is equal (perfect
/// proportional fairness), approaching `1/n` when one sample dominates.
/// Returns 1.0 for an empty or all-zero input (nothing to be unfair
/// about).
pub fn jain_index<I: IntoIterator<Item = f64>>(xs: I) -> f64 {
    let mut n = 0usize;
    let mut sum = 0.0f64;
    let mut sq = 0.0f64;
    for x in xs {
        n += 1;
        sum += x;
        sq += x * x;
    }
    if n == 0 || sq == 0.0 {
        return 1.0;
    }
    (sum * sum) / (n as f64 * sq)
}

/// Exact nearest-rank percentile of a sample, found by selection rather
/// than a full sort (the sample is left partially reordered); 0 for an
/// empty sample.
pub(crate) fn percentile(sample: &mut [u64], q: f64) -> u64 {
    if sample.is_empty() {
        return 0;
    }
    let rank = ((q * sample.len() as f64).ceil() as usize).clamp(1, sample.len());
    *sample.select_nth_unstable(rank - 1).1
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_bins_are_powers_of_two() {
        let mut h = LatencyHistogram::new();
        h.record(0);
        h.record(1);
        h.record(2);
        h.record(3);
        h.record(1024);
        h.record(u64::MAX);
        assert_eq!(h.bins[0], 2); // 0 and 1
        assert_eq!(h.bins[1], 2); // 2 and 3
        assert_eq!(h.bins[10], 1); // 1024
        assert_eq!(h.bins[63], 1); // u64::MAX
        assert_eq!(h.count(), 6);
    }

    #[test]
    fn empty_histogram_quantiles_are_zero() {
        let h = LatencyHistogram::new();
        assert_eq!(h.count(), 0);
        for q in [0.0, 0.5, 0.99, 1.0] {
            assert_eq!(h.quantile(q), 0);
        }
    }

    #[test]
    fn single_sample_dominates_every_quantile() {
        let mut h = LatencyHistogram::new();
        h.record(1000); // bin 9 = [512, 1024)
        for q in [0.0, 0.01, 0.5, 0.99, 1.0] {
            assert_eq!(h.quantile(q), 1023);
        }
    }

    #[test]
    fn all_equal_samples_collapse_to_one_bin() {
        let mut h = LatencyHistogram::new();
        for _ in 0..1000 {
            h.record(5_000); // bin 12 = [4096, 8192)
        }
        assert_eq!(h.quantile(0.5), 8191);
        assert_eq!(h.quantile(0.999), 8191);
        // Quantiles are upper bounds and out-of-range q is clamped.
        assert_eq!(h.quantile(-1.0), h.quantile(0.0));
        assert_eq!(h.quantile(2.0), h.quantile(1.0));
    }

    #[test]
    fn quantiles_are_conservative_upper_bounds() {
        let mut h = LatencyHistogram::new();
        for l in [10u64, 100, 1_000, 10_000] {
            h.record(l);
        }
        assert!(h.quantile(0.5) >= 100);
        assert!(h.quantile(1.0) >= 10_000);
        assert!(h.quantile(0.25) >= 10);
        // Monotone in q.
        assert!(h.quantile(0.25) <= h.quantile(0.5));
        assert!(h.quantile(0.5) <= h.quantile(1.0));
    }

    #[test]
    fn merge_sums_bins_and_counts() {
        let mut a = LatencyHistogram::new();
        let mut b = LatencyHistogram::new();
        a.record(10);
        a.record(1000);
        b.record(1000);
        b.record(u64::MAX);
        a.merge(&b);
        assert_eq!(a.count(), 4);
        assert_eq!(a.bins[3], 1); // 10
        assert_eq!(a.bins[9], 2); // both 1000s
        assert_eq!(a.bins[63], 1);
        // Merging an empty histogram is the identity.
        let before = a.clone();
        a.merge(&LatencyHistogram::new());
        assert_eq!(a, before);
    }

    #[test]
    fn nearest_rank_percentiles() {
        // 1..=100 in a scrambled order: selection needs no sorted input.
        let mut v: Vec<u64> = (0..100).map(|i| (i * 37) % 100 + 1).collect();
        assert_eq!(percentile(&mut v, 0.50), 50);
        assert_eq!(percentile(&mut v, 0.95), 95);
        assert_eq!(percentile(&mut v, 0.99), 99);
        assert_eq!(percentile(&mut v, 1.0), 100);
        assert_eq!(percentile(&mut [42], 0.99), 42);
        assert_eq!(percentile(&mut [], 0.5), 0);
    }
}

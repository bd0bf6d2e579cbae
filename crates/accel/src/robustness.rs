//! Accuracy-under-noise oracle: Monte-Carlo device-variation evaluation
//! of a layer → crossbar-shape assignment (DESIGN.md §11).
//!
//! Energy/latency/area come from the analytic cost models; *robustness*
//! needs the functional pipeline. For each `(layer, shape)` pair this
//! module programs the layer's representative crossbar block (the first
//! grid block of the kernel-per-column mapping, quantized synthetic
//! weights), then compares ideal bit-serial MVMs against `K` seeded
//! lognormal variation draws ([`autohet_xbar::variation`]) over a few
//! probe activations:
//!
//! - **mean/worst output deviation**, normalized by the block's ideal
//!   output scale (so layers of very different magnitude are comparable);
//! - **classification-accuracy proxy**: the fraction of probes whose
//!   argmax decision survives the noise, multiplied across layers — a
//!   cheap stand-in for end-to-end accuracy that still ranks mappings.
//!
//! Every draw is seeded from `(seed, layer, shape, draw)`, so scores are
//! deterministic and independent of evaluation order — a prerequisite
//! for the memoized [`EvalEngine`](crate::engine::EvalEngine) noise
//! slices and for reproducible NSGA-II searches on top.

use crate::mapping::{col_ranges, row_ranges};
use autohet_dnn::metrics::{argmax_i64, max_abs_dev_i64};
use autohet_dnn::ops::synthetic_weights;
use autohet_dnn::quant::quantize_matrix;
use autohet_dnn::Layer;
use autohet_xbar::fault::splitmix64;
use autohet_xbar::variation::{VariationModel, VariedCrossbar};
use autohet_xbar::{Adc, CostParams, Crossbar, XbarShape};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Monte-Carlo noise-evaluation parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NoiseEvalConfig {
    /// Device-variation model sampled per draw.
    pub variation: VariationModel,
    /// Monte-Carlo draws (`K` independent device samplings per pair).
    pub draws: u32,
    /// Probe activation vectors pushed through each draw.
    pub probes: u32,
    /// Base seed; per-draw seeds are mixed from
    /// `(seed, layer, shape, draw)` so scores do not depend on
    /// evaluation order.
    pub seed: u64,
}

impl Default for NoiseEvalConfig {
    /// HyperMetric corner, 3 draws × 4 probes — small enough for search
    /// loops, large enough to rank mappings stably.
    fn default() -> Self {
        NoiseEvalConfig {
            variation: VariationModel::hypermetric(),
            draws: 3,
            probes: 4,
            seed: 7,
        }
    }
}

/// Noise statistics of one `(layer, shape)` pair.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LayerNoise {
    /// Mean absolute output deviation over all draws/probes/outputs,
    /// normalized by the block's ideal output scale.
    pub mean_dev: f64,
    /// Worst single-output deviation (same normalization).
    pub worst_dev: f64,
    /// Fraction of outputs that stayed bit-exact under noise.
    pub exact_rate: f64,
    /// Fraction of (draw, probe) pairs whose argmax decision survived.
    pub argmax_rate: f64,
}

impl LayerNoise {
    /// The noise-free pair: zero deviation, everything exact.
    pub fn exact() -> Self {
        LayerNoise {
            mean_dev: 0.0,
            worst_dev: 0.0,
            exact_rate: 1.0,
            argmax_rate: 1.0,
        }
    }
}

/// Whole-strategy robustness: per-layer noise statistics plus the
/// aggregates the multi-objective search optimizes.
#[derive(Debug, Clone, PartialEq)]
pub struct RobustnessReport {
    /// One entry per layer, in layer order.
    pub per_layer: Vec<LayerNoise>,
    /// Mean of the per-layer mean deviations (the noise objective).
    pub mean_dev: f64,
    /// Largest per-layer worst-case deviation.
    pub worst_dev: f64,
    /// Product of per-layer argmax survival rates — the probability that
    /// a decision survives every layer, treating layers independently.
    pub accuracy_proxy: f64,
}

impl RobustnessReport {
    /// Aggregate per-layer statistics into strategy objectives.
    pub fn aggregate(per_layer: Vec<LayerNoise>) -> Self {
        let n = per_layer.len().max(1) as f64;
        let mean_dev = per_layer.iter().map(|l| l.mean_dev).sum::<f64>() / n;
        let worst_dev = per_layer.iter().map(|l| l.worst_dev).fold(0.0, f64::max);
        let accuracy_proxy = per_layer.iter().map(|l| l.argmax_rate).product();
        RobustnessReport {
            per_layer,
            mean_dev,
            worst_dev,
            accuracy_proxy,
        }
    }
}

/// The seed of one `(layer, shape)` pair. The SplitMix64 finalizer
/// decorrelates the structured per-draw seed tuples before they reach the
/// xoshiro seeding path.
fn pair_seed(seed: u64, layer: usize, shape: XbarShape) -> u64 {
    splitmix64(
        seed ^ splitmix64(((layer as u64) << 1) | 1)
            ^ splitmix64(((shape.rows as u64) << 32) | shape.cols as u64),
    )
}

/// Monte-Carlo noise statistics for one `(layer, shape)` pair.
///
/// Deterministic in `(layer, shape, cost, cfg)`; with an exact variation
/// model ([`VariationModel::is_exact`]) the result is
/// [`LayerNoise::exact`] without sampling anything.
pub fn layer_noise(
    layer: &Layer,
    shape: XbarShape,
    cost: &CostParams,
    cfg: &NoiseEvalConfig,
) -> LayerNoise {
    let variation = cfg.variation;
    layer_noise_per_reference(layer, shape, cost, cfg, &variation, &[variation]).0[0]
}

/// Monte-Carlo work spent on one `(layer, shape)` pair: device
/// populations drawn, and readout tables built over them.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SampleWork {
    /// Seeded device draws (one lognormal current per used cell each).
    pub device_draws: u64,
    /// Readout tables resolved: one per (draw, reference read).
    pub readout_tables: u64,
}

/// [`layer_noise`] with the device population and readout reference
/// decoupled, for several references at once: currents are drawn from
/// `device`, and per-unit counts resolve against each of `references`'
/// thresholds in turn ([`VariedCrossbar::sample_with_reference`], then
/// [`VariedCrossbar::rereference`] on the same draw and table buffer).
///
/// This is the soft half of lifetime degradation (DESIGN.md §12): under
/// conductance drift the population follows
/// [`DriftModel::variation_at`](autohet_xbar::drift::DriftModel::variation_at)
/// while a *stale* readout still references the factory model — high
/// deviation — whereas a *recalibrated* readout references the drifted
/// model itself and recovers. Both arms read the same seeded draws, so
/// block programming, probes, ideal MVMs and the draws themselves are
/// shared; each reference accumulates its own statistics in the same
/// order, so entry `i` of the scores is bit-identical to a call with
/// `&references[i]` alone. `cfg.variation` is ignored here; draws,
/// probes, and seeding come from `cfg` so drift slices stay comparable
/// to static noise slices. With `references == [device]` this is exactly
/// [`layer_noise`], bit for bit.
///
/// An exact reference on an exact device scores [`LayerNoise::exact`]
/// without a table; the returned [`SampleWork`] counts what was actually
/// sampled and built.
pub fn layer_noise_per_reference(
    layer: &Layer,
    shape: XbarShape,
    cost: &CostParams,
    cfg: &NoiseEvalConfig,
    device: &VariationModel,
    references: &[VariationModel],
) -> (Vec<LayerNoise>, SampleWork) {
    let mut scores = vec![LayerNoise::exact(); references.len()];
    let read: Vec<usize> = (0..references.len())
        .filter(|&i| !(references[i] == *device && device.is_exact()))
        .collect();
    if read.is_empty() || cfg.draws == 0 || cfg.probes == 0 {
        return (scores, SampleWork::default());
    }
    // Representative block: the first grid block of the mapping — the
    // only block whose row range is always full-height, so it sees the
    // largest bitline sums (worst case for readout error).
    let rows = row_ranges(layer, shape)
        .into_iter()
        .next()
        .expect("layer maps to at least one grid row");
    let cols = col_ranges(layer, shape)
        .into_iter()
        .next()
        .expect("layer maps to at least one grid column");
    let weights = synthetic_weights(layer, cfg.seed);
    let (qw, _) = quantize_matrix(&weights, cost.weight_bits);
    let block: Vec<Vec<i32>> = qw[rows.clone()]
        .iter()
        .map(|row| row[cols.clone()].to_vec())
        .collect();
    let xb = Crossbar::program(shape, &block, cost.weight_bits);
    let adc = Adc::new(cost.adc_bits);

    let base = pair_seed(cfg.seed, layer.index, shape);
    let mut probe_rng = SmallRng::seed_from_u64(base);
    let probes: Vec<Vec<u8>> = (0..cfg.probes)
        .map(|_| (0..rows.len()).map(|_| probe_rng.gen()).collect())
        .collect();
    let ideal: Vec<Vec<i64>> = probes.iter().map(|p| xb.mvm(p, &adc)).collect();
    let scale = ideal
        .iter()
        .flat_map(|o| o.iter().map(|&v| v.abs() as f64))
        .fold(1.0, f64::max);

    let mut tallies = vec![Tally::default(); read.len()];
    for d in 0..cfg.draws {
        let seed = splitmix64(base ^ ((d as u64) << 8));
        let mut vc = VariedCrossbar::sample_with_reference(&xb, device, &references[read[0]], seed);
        for (n, (tally, &i)) in tallies.iter_mut().zip(&read).enumerate() {
            if n > 0 {
                vc.rereference(&references[i]);
            }
            tally.score(&vc, &probes, &ideal, &adc);
        }
    }
    let samples = (cfg.draws as u64 * cfg.probes as u64 * cols.len() as u64).max(1);
    let trials = (cfg.draws as u64 * cfg.probes as u64).max(1);
    for (tally, &i) in tallies.iter().zip(&read) {
        scores[i] = LayerNoise {
            mean_dev: tally.abs_sum / samples as f64 / scale,
            worst_dev: tally.worst as f64 / scale,
            exact_rate: tally.exact as f64 / samples as f64,
            argmax_rate: tally.argmax_hits as f64 / trials as f64,
        };
    }
    let work = SampleWork {
        device_draws: cfg.draws as u64,
        readout_tables: cfg.draws as u64 * read.len() as u64,
    };
    (scores, work)
}

/// One reference's running deviation statistics over its draws.
#[derive(Debug, Clone, Default)]
struct Tally {
    abs_sum: f64,
    worst: i64,
    exact: u64,
    argmax_hits: u64,
}

impl Tally {
    /// Push every probe through `vc` and fold its deviations from the
    /// ideal outputs into the running statistics.
    fn score(&mut self, vc: &VariedCrossbar, probes: &[Vec<u8>], ideal: &[Vec<i64>], adc: &Adc) {
        for (probe, ideal) in probes.iter().zip(ideal) {
            let noisy = vc.mvm(probe, adc);
            for (&a, &b) in ideal.iter().zip(&noisy) {
                let dev = (a - b).abs();
                self.abs_sum += dev as f64;
                if dev == 0 {
                    self.exact += 1;
                }
            }
            self.worst = self.worst.max(max_abs_dev_i64(ideal, &noisy));
            if argmax_i64(ideal) == argmax_i64(&noisy) {
                self.argmax_hits += 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use autohet_dnn::Layer;

    fn cost() -> CostParams {
        CostParams::default()
    }

    #[test]
    fn exact_model_short_circuits() {
        let l = Layer::conv(0, 12, 64, 3, 1, 1, 8);
        let cfg = NoiseEvalConfig {
            variation: VariationModel::ideal(),
            ..NoiseEvalConfig::default()
        };
        let n = layer_noise(&l, XbarShape::square(64), &cost(), &cfg);
        assert_eq!(n, LayerNoise::exact());
    }

    #[test]
    fn noise_is_deterministic_and_order_free() {
        let l = Layer::conv(2, 12, 64, 3, 1, 1, 8);
        let cfg = NoiseEvalConfig::default();
        let a = layer_noise(&l, XbarShape::square(64), &cost(), &cfg);
        let b = layer_noise(&l, XbarShape::square(64), &cost(), &cfg);
        assert_eq!(a, b);
        // Sanity: the HyperMetric corner does perturb a 63-row block.
        assert!(a.mean_dev > 0.0);
        assert!(a.worst_dev >= a.mean_dev);
        assert!(a.exact_rate < 1.0);
    }

    #[test]
    fn different_shapes_see_different_noise() {
        let l = Layer::conv(1, 12, 64, 3, 1, 1, 8);
        let cfg = NoiseEvalConfig::default();
        let small = layer_noise(&l, XbarShape::square(32), &cost(), &cfg);
        let large = layer_noise(&l, XbarShape::new(288, 256), &cost(), &cfg);
        assert_ne!(small, large);
    }

    /// One reference read alone: its own fresh draws, nothing shared.
    fn alone(
        l: &Layer,
        shape: XbarShape,
        cfg: &NoiseEvalConfig,
        device: &VariationModel,
        reference: &VariationModel,
    ) -> LayerNoise {
        layer_noise_per_reference(l, shape, &cost(), cfg, device, &[*reference]).0[0]
    }

    #[test]
    fn reference_equal_to_device_matches_layer_noise() {
        // Even when a second reference re-reads the same draws after it.
        let l = Layer::conv(3, 12, 64, 3, 1, 1, 8);
        let cfg = NoiseEvalConfig::default();
        let a = layer_noise(&l, XbarShape::square(64), &cost(), &cfg);
        let v = cfg.variation;
        let shifted = VariationModel {
            r_on: v.r_on * 1.5,
            ..v
        };
        let (b, _) =
            layer_noise_per_reference(&l, XbarShape::square(64), &cost(), &cfg, &v, &[v, shifted]);
        assert_eq!(a, b[0]);
    }

    #[test]
    fn stale_reference_degrades_and_recalibration_recovers() {
        let l = Layer::conv(1, 12, 64, 3, 1, 1, 8);
        let cfg = NoiseEvalConfig::default();
        let factory = VariationModel::hypermetric();
        let drifted = VariationModel {
            r_on: factory.r_on * 1.5,
            r_off: factory.r_off * 1.5,
            ..factory
        };
        let shape = XbarShape::square(64);
        let stale = alone(&l, shape, &cfg, &drifted, &factory);
        let recal = alone(&l, shape, &cfg, &drifted, &drifted);
        assert!(
            stale.mean_dev > 2.0 * recal.mean_dev,
            "stale {} vs recalibrated {}",
            stale.mean_dev,
            recal.mean_dev
        );
        assert!(stale.argmax_rate <= recal.argmax_rate);
    }

    fn bits(n: &LayerNoise) -> [u64; 4] {
        [
            n.mean_dev.to_bits(),
            n.worst_dev.to_bits(),
            n.exact_rate.to_bits(),
            n.argmax_rate.to_bits(),
        ]
    }

    #[test]
    fn one_draw_scores_every_reference_like_separate_calls() {
        let l = Layer::conv(1, 12, 64, 3, 1, 1, 8);
        let cfg = NoiseEvalConfig::default();
        let drift = autohet_xbar::DriftModel::nominal();
        let (stale, drifted) = (drift.base, drift.variation_at(3_000.0));
        for shape in [XbarShape::square(64), XbarShape::new(72, 32)] {
            let (scores, work) =
                layer_noise_per_reference(&l, shape, &cost(), &cfg, &drifted, &[stale, drifted]);
            for (score, reference) in scores.iter().zip([stale, drifted]) {
                let one = alone(&l, shape, &cfg, &drifted, &reference);
                assert_eq!(bits(score), bits(&one), "{shape:?}");
            }
            assert_ne!(scores[0], scores[1], "the arms must differ at hour 3000");
            assert_eq!(
                work,
                SampleWork {
                    device_draws: 3,
                    readout_tables: 6,
                }
            );
        }
    }

    #[test]
    fn exact_reference_on_exact_device_stays_exact_beside_a_read_one() {
        let l = Layer::conv(0, 12, 64, 3, 1, 1, 8);
        let cfg = NoiseEvalConfig::default();
        let exact = VariationModel::ideal();
        let shifted = VariationModel {
            r_on: exact.r_on * 1.5,
            r_off: exact.r_off * 1.5,
            ..exact
        };
        let shape = XbarShape::square(64);
        let (scores, work) =
            layer_noise_per_reference(&l, shape, &cost(), &cfg, &exact, &[exact, shifted]);
        assert_eq!(scores[0], LayerNoise::exact());
        assert_eq!(
            bits(&scores[1]),
            bits(&alone(&l, shape, &cfg, &exact, &shifted))
        );
        assert_ne!(scores[1], LayerNoise::exact());
        assert_eq!(work.readout_tables, 3);
        let (_, none) = layer_noise_per_reference(&l, shape, &cost(), &cfg, &exact, &[exact]);
        assert_eq!(none, SampleWork::default());
    }

    #[test]
    fn aggregate_combines_layers() {
        let a = LayerNoise {
            mean_dev: 0.1,
            worst_dev: 0.5,
            exact_rate: 0.2,
            argmax_rate: 0.9,
        };
        let b = LayerNoise {
            mean_dev: 0.3,
            worst_dev: 0.2,
            exact_rate: 0.4,
            argmax_rate: 0.5,
        };
        let r = RobustnessReport::aggregate(vec![a, b]);
        assert!((r.mean_dev - 0.2).abs() < 1e-12);
        assert_eq!(r.worst_dev, 0.5);
        assert!((r.accuracy_proxy - 0.45).abs() < 1e-12);
        let empty = RobustnessReport::aggregate(vec![]);
        assert_eq!(empty.mean_dev, 0.0);
        assert_eq!(empty.accuracy_proxy, 1.0);
    }
}

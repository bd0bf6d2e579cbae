//! Reproduction harness: one function per table/figure of the paper.
//!
//! Every function returns a [`Table`] (or several) whose rows mirror what
//! the paper plots, so `repro <id>` regenerates the artifact and
//! EXPERIMENTS.md can record paper-vs-measured. RL-backed experiments take
//! a [`ReproConfig`] so the full 300-episode runs and quick smoke runs
//! share one code path.

use autohet::ablation::{run_ablation, AblationResult};
use autohet::prelude::*;
use autohet::sensitivity::{
    sweep_candidate_count, sweep_pes_per_tile, sweep_sxb_rxb_ratio, SweepPoint,
};
use autohet_accel::alloc::allocate_tile_based;
use autohet_dnn::{zoo, Layer, Model};
use autohet_rl::DdpgConfig;
use autohet_xbar::utilization::footprint;

/// Global knobs for RL-backed experiments.
#[derive(Debug, Clone, Copy)]
pub struct ReproConfig {
    /// RL episodes per search (paper: 300).
    pub episodes: usize,
    /// Seed for every search.
    pub seed: u64,
}

impl Default for ReproConfig {
    fn default() -> Self {
        ReproConfig {
            episodes: 300,
            seed: 42,
        }
    }
}

impl ReproConfig {
    /// Build the RL search config for this run.
    pub fn search(&self) -> RlSearchConfig {
        RlSearchConfig {
            episodes: self.episodes,
            ddpg: DdpgConfig {
                seed: self.seed,
                ..DdpgConfig::default()
            },
            ..RlSearchConfig::default()
        }
    }
}

/// A printable result table.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Table {
    pub title: String,
    pub header: Vec<String>,
    pub rows: Vec<Vec<String>>,
}

impl Table {
    /// New empty table.
    pub fn new(title: impl Into<String>, header: &[&str]) -> Self {
        Table {
            title: title.into(),
            header: header.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Append one row (stringified cells).
    pub fn push(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.header.len(), "ragged table row");
        self.rows.push(cells);
    }

    /// Render as CSV (header row first; title omitted).
    pub fn to_csv(&self) -> String {
        let esc = |c: &str| {
            if c.contains(',') || c.contains('"') {
                format!("\"{}\"", c.replace('"', "\"\""))
            } else {
                c.to_string()
            }
        };
        let mut out = self
            .header
            .iter()
            .map(|c| esc(c))
            .collect::<Vec<_>>()
            .join(",");
        out.push('\n');
        for row in &self.rows {
            out.push_str(&row.iter().map(|c| esc(c)).collect::<Vec<_>>().join(","));
            out.push('\n');
        }
        out
    }

    /// Render with aligned columns.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.header.iter().map(String::len).collect();
        for row in &self.rows {
            for (w, c) in widths.iter_mut().zip(row) {
                *w = (*w).max(c.len());
            }
        }
        let fmt_row = |cells: &[String]| {
            cells
                .iter()
                .zip(&widths)
                .map(|(c, w)| format!("{c:>w$}"))
                .collect::<Vec<_>>()
                .join("  ")
        };
        let mut out = format!("== {} ==\n", self.title);
        out.push_str(&fmt_row(&self.header));
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1)));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row));
            out.push('\n');
        }
        out
    }
}

fn sci(v: f64) -> String {
    format!("{v:.3e}")
}

fn pct(v: f64) -> String {
    format!("{:.1}", v * 100.0)
}

// ---------------------------------------------------------------------------
// §2.2 motivation numbers
// ---------------------------------------------------------------------------

/// In-text motivation numbers: Fig. 2's 10.5%/62.5% utilizations and
/// §3.3's 83.7% → 100% rectangle win.
pub fn motiv() -> Table {
    let mut t = Table::new(
        "Motivation (Fig. 2 & §3.3 in-text numbers)",
        &["case", "crossbar", "utilization %", "paper %"],
    );
    let l1 = Layer::conv(0, 3, 4, 3, 1, 1, 32);
    let l2 = Layer::conv(1, 32, 20, 1, 1, 0, 32);
    let l4 = Layer::conv(3, 128, 128, 3, 1, 1, 16);
    let cases: [(&str, &Layer, XbarShape, &str); 4] = [
        (
            "Fig2 layer1 (3ch 3x3 -> 4)",
            &l1,
            XbarShape::square(32),
            "10.5",
        ),
        (
            "Fig2 layer2 (32ch 1x1 -> 20)",
            &l2,
            XbarShape::square(32),
            "62.5",
        ),
        ("VGG16 L4 on square", &l4, XbarShape::square(32), "83.7"),
        (
            "VGG16 L4 on rectangle",
            &l4,
            XbarShape::new(36, 32),
            "100.0",
        ),
    ];
    for (name, layer, shape, paper) in cases {
        let u = footprint(layer, shape).utilization();
        t.push(vec![
            name.to_string(),
            shape.to_string(),
            pct(u),
            paper.to_string(),
        ]);
    }
    t
}

// ---------------------------------------------------------------------------
// Fig. 3 — homogeneous vs manual heterogeneous on VGG16
// ---------------------------------------------------------------------------

/// Fig. 3: utilization / energy / RUE of the five homogeneous baselines
/// and the hand-tuned heterogeneous VGG16 split.
pub fn fig3() -> Table {
    let m = zoo::vgg16();
    let cfg = AccelConfig::default();
    let mut t = Table::new(
        "Fig. 3 — VGG16: homogeneous baselines vs Manual-Hetero",
        &["accelerator", "utilization %", "energy nJ", "RUE"],
    );
    for (shape, r) in homogeneous_reports(&EvalEngine::new(m.clone(), cfg)) {
        t.push(vec![
            shape.to_string(),
            pct(r.utilization),
            sci(r.energy_nj()),
            sci(r.rue()),
        ]);
    }
    let manual = manual_hetero_vgg16(&m, &cfg);
    t.push(vec![
        "Manual-Hetero".into(),
        pct(manual.utilization),
        sci(manual.energy_nj()),
        sci(manual.rue()),
    ]);
    t
}

// ---------------------------------------------------------------------------
// Fig. 4 — empty crossbars vs tile size
// ---------------------------------------------------------------------------

/// Fig. 4: percentage of empty (allocated-but-unused) crossbars for four
/// VGG16 layers, 64×64 crossbars, tiles of 4–32.
pub fn fig4() -> Table {
    let m = zoo::vgg16();
    let shape = XbarShape::square(64);
    let strategy = vec![shape; m.layers.len()];
    let mut t = Table::new(
        "Fig. 4 — empty crossbars % (VGG16, 64x64)",
        &["layer", "tile=4", "tile=8", "tile=16", "tile=32"],
    );
    // The paper plots four representative layers; take L1–L4.
    for li in 0..4 {
        let mut row = vec![format!("L{}", li + 1)];
        for cap in [4u32, 8, 16, 32] {
            let alloc = allocate_tile_based(&m, &strategy, cap);
            row.push(pct(alloc.per_layer[li].empty_fraction(cap)));
        }
        t.push(row);
    }
    // And the whole-model average the text quotes ("only 58% utilized").
    let mut row = vec!["all-layers".to_string()];
    for cap in [4u32, 8, 16, 32] {
        let alloc = allocate_tile_based(&m, &strategy, cap);
        row.push(pct(
            alloc.empty_xbars() as f64 / alloc.allocated_xbars() as f64
        ));
    }
    t.push(row);
    t
}

// ---------------------------------------------------------------------------
// Fig. 5 — one layer on 64² vs 128²
// ---------------------------------------------------------------------------

/// Fig. 5: 128 kernels of 3×3×12 on 64×64 vs 128×128 crossbars —
/// utilization (tile-level, 4 crossbars/tile) and activated ADCs.
pub fn fig5() -> Table {
    let l = Layer::conv(0, 12, 128, 3, 1, 1, 16);
    let mut t = Table::new(
        "Fig. 5 — 128x(3x3x12) kernels: XB64 vs XB128",
        &["crossbar", "tile util", "paper util", "ADCs", "paper ADCs"],
    );
    for (shape, paper_u, paper_adc) in [
        (XbarShape::square(64), "27/32", 256u64),
        (XbarShape::square(128), "27/128", 128),
    ] {
        let fp = footprint(&l, shape);
        let tiles = fp.total_xbars().div_ceil(4);
        let u = fp.utilization_over(tiles * 4);
        let adcs = fp.total_xbars() * shape.cols as u64;
        t.push(vec![
            shape.to_string(),
            format!("{u:.4}"),
            paper_u.to_string(),
            adcs.to_string(),
            paper_adc.to_string(),
        ]);
    }
    t
}

// ---------------------------------------------------------------------------
// Fig. 9 — overall performance
// ---------------------------------------------------------------------------

/// The "AutoHet" point used throughout §4.2: RL search over the hybrid
/// candidates with tile sharing (the ablation's "All").
pub fn autohet_full(model: &Model, rc: &ReproConfig) -> AblationResult {
    run_ablation(model, &rc.search()).pop().expect("All stage")
}

/// Fig. 9(a,b,c): RUE, utilization and normalized energy for the five
/// homogeneous baselines and AutoHet, per model.
pub fn fig9(rc: &ReproConfig, models: &[Model]) -> Vec<Table> {
    let cfg = AccelConfig::default();
    models
        .iter()
        .map(|m| {
            let mut t = Table::new(
                format!("Fig. 9 — {} on {}", m.name, m.dataset.name()),
                &[
                    "accelerator",
                    "RUE",
                    "utilization %",
                    "energy nJ",
                    "norm energy",
                ],
            );
            let homos = homogeneous_reports(&EvalEngine::new(m.clone(), cfg));
            let e_min = homos
                .iter()
                .map(|(_, r)| r.energy_nj())
                .fold(f64::MAX, f64::min);
            for (shape, r) in &homos {
                t.push(vec![
                    shape.to_string(),
                    sci(r.rue()),
                    pct(r.utilization),
                    sci(r.energy_nj()),
                    format!("{:.2}", r.energy_nj() / e_min),
                ]);
            }
            let auto = autohet_full(m, rc);
            t.push(vec![
                "AutoHet".into(),
                sci(auto.report.rue()),
                pct(auto.report.utilization),
                sci(auto.report.energy_nj()),
                format!("{:.2}", auto.report.energy_nj() / e_min),
            ]);
            t
        })
        .collect()
}

// ---------------------------------------------------------------------------
// Fig. 10 / Tables 3 & 4 — ablation
// ---------------------------------------------------------------------------

/// Fig. 10: RUE / utilization / energy per ablation stage, per model.
pub fn fig10(rc: &ReproConfig, models: &[Model]) -> Vec<Table> {
    models
        .iter()
        .map(|m| {
            let mut t = Table::new(
                format!("Fig. 10 — ablation on {}", m.name),
                &["stage", "RUE", "utilization %", "energy nJ", "tiles"],
            );
            for r in run_ablation(m, &rc.search()) {
                t.push(vec![
                    r.stage.label().into(),
                    sci(r.report.rue()),
                    pct(r.report.utilization),
                    sci(r.report.energy_nj()),
                    r.report.tiles.to_string(),
                ]);
            }
            t
        })
        .collect()
}

/// Table 3: the crossbar size each ablation stage assigns to every VGG16
/// layer.
pub fn table3(rc: &ReproConfig) -> Table {
    let m = zoo::vgg16();
    let results = run_ablation(&m, &rc.search());
    let mut t = Table::new(
        "Table 3 — per-layer crossbar sizes, VGG16",
        &["layer", "Base", "+He", "+Hy"],
    );
    for i in 0..m.layers.len() {
        t.push(vec![
            format!("L{}", i + 1),
            results[0].strategy[i].to_string(),
            results[1].strategy[i].to_string(),
            results[2].strategy[i].to_string(),
        ]);
    }
    t
}

/// Table 4: occupied tiles, +Hy vs All, per model.
pub fn table4(rc: &ReproConfig, models: &[Model]) -> Table {
    let mut t = Table::new(
        "Table 4 — occupied tiles (+Hy vs All)",
        &["model", "+Hy tiles", "All tiles", "reduction %"],
    );
    for m in models {
        let results = run_ablation(m, &rc.search());
        let hy = results[2].report.tiles;
        let all = results[3].report.tiles;
        t.push(vec![
            m.name.clone(),
            hy.to_string(),
            all.to_string(),
            format!("{:.1}", (hy - all) as f64 / hy as f64 * 100.0),
        ]);
    }
    t
}

// ---------------------------------------------------------------------------
// Fig. 11 — sensitivity
// ---------------------------------------------------------------------------

fn sweep_table(title: &str, points: Vec<SweepPoint>) -> Table {
    let mut t = Table::new(
        title,
        &["point", "AutoHet RUE", "Best-Homo RUE", "speedup x"],
    );
    for p in points {
        t.push(vec![
            p.label.clone(),
            sci(p.autohet_rue),
            sci(p.best_homo_rue),
            format!("{:.2}", p.speedup()),
        ]);
    }
    t
}

/// Fig. 11(a): SXB:RXB candidate ratios on `model`.
pub fn fig11a(rc: &ReproConfig, model: &Model) -> Table {
    sweep_table(
        &format!("Fig. 11(a) — SXB:RXB ratio, {}", model.name),
        sweep_sxb_rxb_ratio(model, &rc.search()),
    )
}

/// Fig. 11(b): number of crossbar candidates.
pub fn fig11b(rc: &ReproConfig, model: &Model) -> Table {
    sweep_table(
        &format!("Fig. 11(b) — candidate count, {}", model.name),
        sweep_candidate_count(model, &rc.search()),
    )
}

/// Fig. 11(c): PEs per tile.
pub fn fig11c(rc: &ReproConfig, model: &Model) -> Table {
    sweep_table(
        &format!("Fig. 11(c) — PEs per tile, {}", model.name),
        sweep_pes_per_tile(model, &rc.search()),
    )
}

// ---------------------------------------------------------------------------
// Table 5 — area and latency
// ---------------------------------------------------------------------------

/// Table 5: area and inference latency of the homogeneous accelerators and
/// AutoHet, on VGG16.
pub fn table5(rc: &ReproConfig) -> Table {
    let m = zoo::vgg16();
    let cfg = AccelConfig::default();
    let mut t = Table::new(
        "Table 5 — area & latency, VGG16",
        &["accelerator", "area um^2", "latency ns"],
    );
    for (shape, r) in homogeneous_reports(&EvalEngine::new(m.clone(), cfg)) {
        t.push(vec![
            format!("SXB{}", shape.rows),
            sci(r.area_um2),
            sci(r.latency_ns),
        ]);
    }
    let auto = autohet_full(&m, rc);
    t.push(vec![
        "AutoHet".into(),
        sci(auto.report.area_um2),
        sci(auto.report.latency_ns),
    ]);
    t
}

// ---------------------------------------------------------------------------
// §4.5 — RL search time
// ---------------------------------------------------------------------------

/// §4.5: wall-clock of a search, split into simulator-feedback vs agent
/// time (the paper reports 49.2 min / 300 rounds, 97% in the simulator).
pub fn search_time(rc: &ReproConfig, model: &Model) -> Table {
    let outcome = rl_search(
        model,
        &paper_hybrid_candidates(),
        &AccelConfig::default().with_tile_sharing(),
        &rc.search(),
    );
    let mut t = Table::new(
        format!(
            "§4.5 — RL search time, {} ({} rounds)",
            model.name, rc.episodes
        ),
        &["quantity", "value"],
    );
    t.push(vec![
        "total wall-clock s".into(),
        format!("{:.2}", outcome.timing.total.as_secs_f64()),
    ]);
    t.push(vec![
        "simulator s".into(),
        format!("{:.2}", outcome.timing.simulator.as_secs_f64()),
    ]);
    t.push(vec![
        "agent s".into(),
        format!("{:.2}", outcome.timing.agent.as_secs_f64()),
    ]);
    t.push(vec![
        "simulator fraction %".into(),
        format!("{:.1}", outcome.timing.simulator_fraction() * 100.0),
    ]);
    // The agent's training split: a deterministic update count, then the
    // wall-clock of each phase summed over those updates.
    let train = outcome.timing.train;
    t.push(vec!["train steps".into(), train.steps.to_string()]);
    for (phase, d) in [
        ("forward", train.forward),
        ("backward", train.backward),
        ("optimizer", train.optimizer),
    ] {
        t.push(vec![
            format!("train {phase} s (wall-clock)"),
            format!("{:.4}", d.as_secs_f64()),
        ]);
    }
    t.push(vec!["best RUE".into(), sci(outcome.best_rue())]);
    t.push(vec![
        "evaluation cache".into(),
        outcome.timing.cache.to_string(),
    ]);
    t
}

// ---------------------------------------------------------------------------
// Beyond-paper studies (DESIGN.md §6)
// ---------------------------------------------------------------------------

/// ADC-resolution study: energy/area/RUE and numerical safety of the
/// hybrid accelerator at 6–12 ADC bits (the paper fixes 10).
pub fn study_adc() -> Table {
    let m = zoo::vgg16();
    let strategy = autohet::search::greedy::greedy_layerwise_rue(
        &m,
        &paper_hybrid_candidates(),
        &AccelConfig::default(),
    )
    .strategy;
    let mut t = Table::new(
        "Study — ADC resolution (VGG16, hybrid strategy)",
        &["bits", "energy nJ", "area um^2", "RUE", "lossless"],
    );
    for p in autohet::studies::adc_resolution_sweep(&m, &strategy, &[6, 8, 10, 12]) {
        t.push(vec![
            p.bits.to_string(),
            sci(p.energy_nj),
            sci(p.area_um2),
            sci(p.rue),
            if p.lossless {
                "yes".into()
            } else {
                "CLIPS".into()
            },
        ]);
    }
    t
}

/// Rectangle-height design-choice study: which height family best fits
/// 3×3 kernels (the paper picks multiples of 9).
pub fn study_rxb() -> Table {
    let mut t = Table::new(
        "Study — rectangle-height families (VGG16 3x3 layers, width 64)",
        &["family", "heights", "mean best utilization %"],
    );
    for f in autohet::studies::rxb_height_study(&zoo::vgg16(), 64) {
        t.push(vec![
            f.label.clone(),
            format!("{:?}", f.heights),
            pct(f.mean_utilization),
        ]);
    }
    t
}

/// Multi-model tile sharing study: §3.4's "other models" remark measured.
pub fn study_multi_model() -> Table {
    let models = vec![zoo::alexnet(), zoo::vgg16(), zoo::lenet5()];
    let r = autohet::studies::multi_model_sharing_study(&models, XbarShape::new(72, 64), 4);
    let mut t = Table::new(
        "Study — multi-model tile sharing (AlexNet + VGG16 + LeNet5, 72x64)",
        &["scheme", "tiles"],
    );
    t.push(vec!["no sharing".into(), r.tiles_unshared.to_string()]);
    t.push(vec![
        "per-model sharing".into(),
        r.tiles_per_model.to_string(),
    ]);
    t.push(vec!["joint sharing".into(), r.tiles_joint.to_string()]);
    t
}

/// Search-algorithm comparison at equal evaluation budget: the paper's
/// DDPG vs a DQN, simulated annealing, greedy heuristics and random
/// search, plus the Best-Homo floor.
pub fn comparators(rc: &ReproConfig, model: &Model) -> Table {
    use autohet::search::annealing::{annealing_search, AnnealingConfig};
    use autohet::search::dqn::{dqn_search, DqnSearchConfig};
    use autohet::search::greedy::{greedy_layerwise_rue_with_engine, greedy_utilization};
    use autohet::search::random::random_search;
    use autohet_rl::DqnConfig;
    use std::sync::Arc;

    let cfg = AccelConfig::default().with_tile_sharing();
    let plain = AccelConfig::default();
    let cands = paper_hybrid_candidates();
    // Every comparator below scores on this one engine; cached feedback is
    // bit-identical to a fresh engine's, so sharing changes no row.
    let engine = Arc::new(EvalEngine::new(model.clone(), cfg));
    let mut t = Table::new(
        format!(
            "Search comparators on {} ({} evaluations each)",
            model.name, rc.episodes
        ),
        &["search", "RUE", "utilization %", "energy nJ"],
    );
    let mut push = |name: &str, r: &EvalReport| {
        t.push(vec![
            name.into(),
            sci(r.rue()),
            pct(r.utilization),
            sci(r.energy_nj()),
        ]);
    };

    let (_, homo) = best_homogeneous(model, &plain);
    push("Best-Homo", &homo);
    let ddpg = rl_search(model, &cands, &cfg, &rc.search());
    push("DDPG (paper)", &ddpg.best_report);
    let dqn = dqn_search(
        Arc::clone(&engine),
        &cands,
        &DqnSearchConfig {
            episodes: rc.episodes,
            dqn: DqnConfig {
                seed: rc.seed,
                ..DqnConfig::default()
            },
            ..DqnSearchConfig::default()
        },
    );
    push("DQN", &dqn.best_report);
    let sa = annealing_search(
        &engine,
        &cands,
        &AnnealingConfig {
            iterations: rc.episodes,
            seed: rc.seed,
            ..AnnealingConfig::default()
        },
    );
    push("Annealing", &sa.best_report);
    let gu = greedy_utilization(&engine, &cands);
    push("Greedy-util [29]", &gu.report);
    let gr = greedy_layerwise_rue_with_engine(&engine, &cands);
    push("Greedy-RUE", &gr.report);
    let (_, rnd) = random_search(&engine, &cands, rc.episodes, rc.seed);
    push("Random", &rnd);
    t
}

/// Depthwise showcase: homogeneous baselines vs AutoHet on MobileNetV1,
/// whose diagonal-packing depthwise stages are pathological for wide
/// crossbars (beyond-paper workload, DESIGN.md §6).
pub fn mobilenet(rc: &ReproConfig) -> Table {
    let m = zoo::mobilenet_v1();
    let cfg = AccelConfig::default();
    let mut t = Table::new(
        "MobileNetV1 on ImageNet — homogeneous vs AutoHet",
        &[
            "accelerator",
            "RUE",
            "utilization %",
            "energy nJ",
            "worst dw util %",
        ],
    );
    let worst_dw = |shape: XbarShape| -> f64 {
        m.layers
            .iter()
            .filter(|l| l.kind == autohet_dnn::LayerKind::DepthwiseConv)
            .map(|l| autohet_xbar::utilization::utilization(l, shape))
            .fold(f64::MAX, f64::min)
    };
    for (shape, r) in homogeneous_reports(&EvalEngine::new(m.clone(), cfg)) {
        t.push(vec![
            shape.to_string(),
            sci(r.rue()),
            pct(r.utilization),
            sci(r.energy_nj()),
            pct(worst_dw(shape)),
        ]);
    }
    let auto = autohet_full(&m, rc);
    let auto_worst = m
        .layers
        .iter()
        .zip(&auto.strategy)
        .filter(|(l, _)| l.kind == autohet_dnn::LayerKind::DepthwiseConv)
        .map(|(l, &s)| autohet_xbar::utilization::utilization(l, s))
        .fold(f64::MAX, f64::min);
    t.push(vec![
        "AutoHet".into(),
        sci(auto.report.rue()),
        pct(auto.report.utilization),
        sci(auto.report.energy_nj()),
        pct(auto_worst),
    ]);
    t
}

/// Search convergence: running-best RUE at checkpoints for the learned
/// searches vs random, at equal budgets.
pub fn convergence(rc: &ReproConfig, model: &Model) -> Table {
    use autohet::search::dqn::{dqn_search, DqnSearchConfig};
    use autohet::search::random::random_search;
    use autohet_rl::DqnConfig;
    use std::sync::Arc;

    let cfg = AccelConfig::default().with_tile_sharing();
    let cands = paper_hybrid_candidates();
    let engine = Arc::new(EvalEngine::new(model.clone(), cfg));
    let checkpoints: Vec<usize> = [0.1, 0.25, 0.5, 0.75, 1.0]
        .iter()
        .map(|f| ((rc.episodes as f64 * f) as usize).max(1))
        .collect();

    let ddpg = rl_search(model, &cands, &cfg, &rc.search());
    let ddpg_best = ddpg.rue_running_best();
    let dqn = dqn_search(
        Arc::clone(&engine),
        &cands,
        &DqnSearchConfig {
            episodes: rc.episodes,
            dqn: DqnConfig {
                seed: rc.seed,
                ..DqnConfig::default()
            },
            ..DqnSearchConfig::default()
        },
    );
    let dqn_best = dqn.rue_running_best();

    let mut t = Table::new(
        format!("Convergence on {} (running best RUE)", model.name),
        &["episodes", "DDPG", "DQN", "Random"],
    );
    for &cp in &checkpoints {
        let (_, rnd) = random_search(&engine, &cands, cp, rc.seed);
        t.push(vec![
            cp.to_string(),
            sci(ddpg_best[cp - 1]),
            sci(dqn_best[cp - 1]),
            sci(rnd.rue()),
        ]);
    }
    t.push(vec![
        "episodes-to-best".into(),
        ddpg.episodes_to_best().to_string(),
        dqn.episodes_to_best().to_string(),
        "-".into(),
    ]);
    t
}

/// Utilization/energy Pareto sweep: RL searches with reward `u^α / e`.
pub fn pareto(rc: &ReproConfig, model: &Model) -> Table {
    use autohet::pareto::{pareto_front, pareto_sweep};
    let cfg = AccelConfig::default().with_tile_sharing();
    let pts = pareto_sweep(
        model,
        &paper_hybrid_candidates(),
        &cfg,
        &rc.search(),
        &[0.25, 0.5, 1.0, 2.0, 4.0],
    );
    let front = pareto_front(&pts);
    let mut t = Table::new(
        format!("Pareto sweep on {} (reward u^a / e)", model.name),
        &["alpha", "utilization %", "energy nJ", "RUE", "on front"],
    );
    for (i, p) in pts.iter().enumerate() {
        let (u, e) = p.objectives();
        t.push(vec![
            format!("{}", p.alpha),
            format!("{u:.1}"),
            sci(e),
            sci(p.report.rue()),
            if front.contains(&i) {
                "yes".into()
            } else {
                "".into()
            },
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick() -> ReproConfig {
        ReproConfig {
            episodes: 10,
            seed: 1,
        }
    }

    #[test]
    fn motiv_matches_paper_numbers() {
        let t = motiv();
        assert_eq!(t.rows.len(), 4);
        // Our computed column vs the paper's column agree to 0.1%.
        for row in &t.rows {
            let ours: f64 = row[2].parse().unwrap();
            let paper: f64 = row[3].parse().unwrap();
            assert!((ours - paper).abs() < 0.1, "{row:?}");
        }
    }

    #[test]
    fn fig3_has_six_rows() {
        let t = fig3();
        assert_eq!(t.rows.len(), 6);
        assert_eq!(t.rows[5][0], "Manual-Hetero");
    }

    #[test]
    fn fig4_waste_grows_with_tile_size() {
        let t = fig4();
        let avg = t.rows.last().unwrap();
        let vals: Vec<f64> = avg[1..].iter().map(|v| v.parse().unwrap()).collect();
        assert!(vals.windows(2).all(|w| w[1] >= w[0] - 1e-9), "{vals:?}");
    }

    #[test]
    fn fig5_adc_counts_match_paper() {
        let t = fig5();
        assert_eq!(t.rows[0][3], "256");
        assert_eq!(t.rows[1][3], "128");
        assert_eq!(t.rows[0][3], t.rows[0][4]);
        assert_eq!(t.rows[1][3], t.rows[1][4]);
    }

    #[test]
    fn fig9_autohet_wins_rue_on_micro_model() {
        let models = vec![zoo::micro_cnn()];
        let tables = fig9(&quick(), &models);
        let rows = &tables[0].rows;
        let auto: f64 = rows.last().unwrap()[1].parse().unwrap();
        for r in &rows[..5] {
            let homo: f64 = r[1].parse().unwrap();
            assert!(auto >= homo * 0.99, "AutoHet {auto} vs {}", r[0]);
        }
    }

    #[test]
    fn search_time_reports_the_train_phases() {
        // 20 episodes of MicroCNN's 4 layers fill the default batch of 64.
        let rc = ReproConfig {
            episodes: 20,
            seed: 1,
        };
        let t = search_time(&rc, &zoo::micro_cnn());
        let row = |label: &str| {
            let r = t.rows.iter().find(|r| r[0] == label);
            r.unwrap_or_else(|| panic!("no {label:?} row"))[1].clone()
        };
        assert!(row("train steps").parse::<u64>().unwrap() > 0);
        for phase in ["forward", "backward", "optimizer"] {
            let s: f64 = row(&format!("train {phase} s (wall-clock)"))
                .parse()
                .unwrap();
            assert!(s >= 0.0, "{phase}: {s}");
        }
    }

    #[test]
    fn table_render_is_aligned() {
        let mut t = Table::new("demo", &["a", "bbbb"]);
        t.push(vec!["1".into(), "2".into()]);
        let s = t.render();
        assert!(s.contains("demo"));
        assert!(s.lines().count() >= 4);
    }

    #[test]
    #[should_panic]
    fn ragged_rows_are_rejected() {
        let mut t = Table::new("demo", &["a", "b"]);
        t.push(vec!["1".into()]);
    }

    #[test]
    fn studies_produce_tables() {
        assert_eq!(study_adc().rows.len(), 4);
        assert_eq!(study_rxb().rows.len(), 4);
        assert_eq!(study_multi_model().rows.len(), 3);
    }

    #[test]
    fn convergence_and_pareto_tables_have_expected_shape() {
        let rc = ReproConfig {
            episodes: 12,
            seed: 2,
        };
        let m = zoo::micro_cnn();
        let c = convergence(&rc, &m);
        assert_eq!(c.rows.len(), 6); // 5 checkpoints + episodes-to-best
        let to_best = &c.rows[5];
        assert!(to_best[1].parse::<usize>().is_ok() && to_best[2].parse::<usize>().is_ok());
        let p = pareto(&rc, &m);
        assert_eq!(p.rows.len(), 5);
        assert!(p.rows.iter().any(|r| r[4] == "yes"));
    }

    #[test]
    fn csv_escapes_and_round_trips_columns() {
        let mut t = Table::new("t", &["a,b", "c"]);
        t.push(vec!["x\"y".into(), "1".into()]);
        let csv = t.to_csv();
        assert!(csv.starts_with("\"a,b\",c\n"));
        assert!(csv.contains("\"x\"\"y\",1"));
    }

    #[test]
    fn comparator_table_has_all_searches() {
        let t = comparators(
            &ReproConfig {
                episodes: 40,
                seed: 1,
            },
            &zoo::micro_cnn(),
        );
        assert_eq!(t.rows.len(), 7);
        // With a 40-evaluation budget the DDPG search must at least be in
        // Best-Homo's neighborhood (integration tests assert strict wins
        // at realistic budgets).
        let homo: f64 = t.rows[0][1].parse().unwrap();
        let ddpg: f64 = t.rows[1][1].parse().unwrap();
        assert!(ddpg >= homo * 0.9, "ddpg {ddpg} vs homo {homo}");
    }
}

//! End-to-end search benchmarks: the paper's 300-round DDPG search (§4.5
//! quotes 49.2 min for VGG16) through the lockstep driver at one lane
//! (`rl_search`, the `seq` rows) and at several lane counts. Snapshot results
//! land in `BENCH_search.json` (episodes/sec and speed-up derived by
//! `scripts/bench_snapshot.sh`).
//!
//! Every iteration runs a full cold search — fresh agent, fresh memoized
//! engine — so the numbers compare drivers, not cache warm-up.

use autohet::prelude::*;
use autohet_rl::DdpgConfig;
use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use std::hint::black_box;
use std::sync::Arc;

const EPISODES: usize = 300;

fn search_cfg() -> RlSearchConfig {
    RlSearchConfig {
        episodes: EPISODES,
        ddpg: DdpgConfig {
            seed: 42,
            ..DdpgConfig::default()
        },
        ..RlSearchConfig::default()
    }
}

fn bench_model(c: &mut Criterion, group: &str, model: &autohet_dnn::Model, lanes: &[usize]) {
    let cands = paper_hybrid_candidates();
    let cfg = AccelConfig::default().with_tile_sharing();
    let scfg = search_cfg();
    let mut g = c.benchmark_group(group);
    g.throughput(Throughput::Elements(EPISODES as u64));
    g.bench_function("seq", |b| {
        b.iter(|| black_box(rl_search(model, &cands, &cfg, &scfg)))
    });
    for &n in lanes {
        g.bench_function(format!("vec{n}"), |b| {
            b.iter(|| {
                let engine = Arc::new(EvalEngine::new(model.clone(), cfg));
                black_box(rl_search_vec_with_stats(
                    model, &cands, &cfg, &scfg, n, engine,
                ))
            })
        });
    }
    g.finish();
}

fn bench_search(c: &mut Criterion) {
    bench_model(
        c,
        "search/micro_cnn_300",
        &autohet_dnn::zoo::micro_cnn(),
        &[2, 8],
    );
    // The paper's headline workload: 300 rounds on VGG16.
    bench_model(c, "search/vgg16_300", &autohet_dnn::zoo::vgg16(), &[8]);
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_search
}
criterion_main!(benches);

//! Golden seeded DDPG trajectories, pinned to the exact bits.
//!
//! The other reproducibility tests compare two runs of one build, so a
//! kernel change that moves every run's bits the same way would pass
//! them. These tests pin the bits themselves, as hex, of:
//!
//! - 50 `train_step`s of a default-config agent on a fixed synthetic pool
//!   (every `TrainStats`), then `act` and `q_value` on three probe states;
//! - the same at state_dim 7, hidden 37, batch 23, whose odd sizes reach
//!   every remainder of the GEMM tiles;
//! - 50 `Dqn` train steps (every loss, then every Q-value on three probe
//!   states) at the default config, whose batch of 64 is a power of two,
//!   and at state_dim 7, hidden 37, 3 actions, batch 23;
//! - `rl_search` (one lane) and the lockstep driver at 8 lanes on MicroCNN at
//!   the default agent config: every episode's `rue` and `reward`, and the
//!   best strategy;
//! - the same 8-lane search field by field: every `EpisodeRecord` field,
//!   `cache_hit_rate` included, the best strategy, a fingerprint of the
//!   best report, the engine counters and the train-step count. These
//!   rows were generated on one CPU, where the group's evaluations run in
//!   lane order;
//! - four small one-lane searches that span the axes of the one-lane
//!   contract (a single episode, no warm-up, a warm-up split, skewed
//!   reward weights), field by field as above. Both
//!   `rl_search` and the lockstep driver at one lane must reproduce these
//!   rows; they stand in for the per-episode driver the lockstep driver
//!   replaced.
//!
//! To inspect the current rows, run
//! `cargo test --test golden_ddpg -- --nocapture`: each test prints the
//! rows it computed before comparing.

use autohet::prelude::*;
use autohet_dnn::zoo;
use autohet_rl::{Ddpg, DdpgConfig, DiscreteExperience, Dqn, DqnConfig, Experience};
use std::sync::Arc;

fn check(name: &str, actual: Vec<String>, golden: &[&str]) {
    for row in &actual {
        println!("{name}: {row}");
    }
    assert_eq!(actual.len(), golden.len(), "{name}: row count changed");
    for (i, (a, g)) in actual.iter().zip(golden).enumerate() {
        assert_eq!(a, g, "{name}: row {i} drifted");
    }
}

fn hex(v: f64) -> String {
    format!("{:016x}", v.to_bits())
}

/// A deterministic state of `dim` features, tagged by `i`.
fn state(i: usize, dim: usize) -> Vec<f64> {
    (0..dim)
        .map(|j| ((i * dim + j) as f64 * 0.37).sin())
        .collect()
}

/// Train an agent for 50 steps on a fixed pool of 128 transitions and
/// record every step's stats, then probe the trained actor and critic.
fn trained_rows(cfg: DdpgConfig) -> Vec<String> {
    let dim = cfg.state_dim;
    let mut agent = Ddpg::new(cfg);
    for i in 0..128 {
        agent.remember(Experience {
            state: state(i, dim),
            next_state: state(i + 1, dim),
            action: (i % 9) as f64 / 8.0,
            reward: ((i * 5) as f64 * 0.11).cos(),
            done: i % 6 == 5,
        });
    }
    let mut rows = Vec::new();
    for step in 0..50 {
        let s = agent.train_step().expect("pool holds a batch");
        rows.push(format!(
            "step {step}: critic_loss {} actor_q {}",
            hex(s.critic_loss),
            hex(s.actor_q)
        ));
    }
    for p in 0..3 {
        let probe = state(1000 + p, dim);
        let a = agent.act(&probe);
        let q = agent.q_value(&probe, 0.25 * p as f64);
        rows.push(format!("probe {p}: act {} q {}", hex(a), hex(q)));
    }
    rows
}

/// The DQN counterpart of [`trained_rows`]: 50 steps on a fixed pool of
/// 128 transitions, every loss, then every Q-value on three probes.
fn dqn_rows(cfg: DqnConfig) -> Vec<String> {
    let (dim, actions) = (cfg.state_dim, cfg.actions);
    let mut agent = Dqn::new(cfg);
    for i in 0..128 {
        agent.remember(DiscreteExperience {
            state: state(i, dim),
            next_state: state(i + 1, dim),
            action: (i * 7) % actions,
            reward: ((i * 5) as f64 * 0.11).cos(),
            done: i % 6 == 5,
        });
    }
    let mut rows: Vec<String> = (0..50)
        .map(|step| {
            let loss = agent.train_step().expect("pool holds a batch");
            format!("step {step}: loss {}", hex(loss))
        })
        .collect();
    for p in 0..3 {
        let q = agent.q_values(&state(1000 + p, dim));
        let q: Vec<String> = q.into_iter().map(hex).collect();
        rows.push(format!("probe {p}: q {}", q.join(" ")));
    }
    rows
}

fn search_rows(o: &SearchOutcome) -> Vec<String> {
    let mut rows: Vec<String> = o
        .history
        .iter()
        .map(|h| {
            format!(
                "ep {}: rue {} reward {}",
                h.episode,
                hex(h.rue),
                hex(h.reward)
            )
        })
        .collect();
    rows.push(format!("best {:?}", o.best_strategy));
    rows
}

/// FNV-1a over a string: a compact pin for a long `{:?}` dump (whose
/// `f64`s print in shortest round-trip form, so every bit counts).
fn fnv1a(s: &str) -> u64 {
    s.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// Every deterministic field of a search.
fn all_field_rows(o: &SearchOutcome) -> Vec<String> {
    let mut rows: Vec<String> = o
        .history
        .iter()
        .map(|h| {
            format!(
                "ep {}: rue {} reward {} util {} energy {} hit {}",
                h.episode,
                hex(h.rue),
                hex(h.reward),
                hex(h.utilization),
                hex(h.energy_nj),
                hex(h.cache_hit_rate)
            )
        })
        .collect();
    rows.push(format!("best {:?}", o.best_strategy));
    rows.push(format!(
        "best report: rue {} tiles {} fnv {:016x}",
        hex(o.best_rue()),
        o.best_report.tiles,
        fnv1a(&format!("{:?}", o.best_report))
    ));
    rows.push(format!("cache {:?}", o.timing.cache));
    rows.push(format!("train steps {}", o.timing.train.steps));
    rows
}

/// A small agent over MicroCNN, as the one-lane property test draws it.
fn small_cfg(seed: u64, episodes: usize, warmup_episodes: usize) -> RlSearchConfig {
    RlSearchConfig {
        episodes,
        ddpg: DdpgConfig {
            seed,
            hidden: 16,
            batch: 8,
            ..DdpgConfig::default()
        },
        train_steps: 2,
        warmup_episodes,
        ..RlSearchConfig::default()
    }
}

/// Pin one one-lane search: `rl_search` and the lockstep driver at one
/// lane must both reproduce `golden`.
fn check_one_lane(name: &str, cfg: &AccelConfig, scfg: &RlSearchConfig, golden: &[&str]) {
    let m = zoo::micro_cnn();
    let cands = paper_hybrid_candidates();
    check(
        name,
        all_field_rows(&rl_search(&m, &cands, cfg, scfg)),
        golden,
    );
    let engine = Arc::new(EvalEngine::new(m.clone(), *cfg));
    let vec1 = rl_search_vec_with_stats(&m, &cands, cfg, scfg, 1, engine).0;
    check(&format!("{name} (lockstep)"), all_field_rows(&vec1), golden);
}

fn search_cfg() -> RlSearchConfig {
    RlSearchConfig {
        episodes: 60,
        ..RlSearchConfig::default()
    }
}

#[test]
fn default_agent_trajectory_is_pinned() {
    let cfg = DdpgConfig {
        state_dim: 10,
        ..DdpgConfig::default()
    };
    check("default_agent", trained_rows(cfg), &DEFAULT_AGENT);
}

#[test]
fn odd_shaped_agent_trajectory_is_pinned() {
    let cfg = DdpgConfig {
        state_dim: 7,
        hidden: 37,
        batch: 23,
        seed: 5,
        ..DdpgConfig::default()
    };
    check("odd_agent", trained_rows(cfg), &ODD_AGENT);
}

#[test]
fn dqn_trajectory_is_pinned() {
    check("dqn_default", dqn_rows(DqnConfig::default()), &DQN_DEFAULT);
    let odd = DqnConfig {
        state_dim: 7,
        hidden: 37,
        actions: 3,
        batch: 23,
        seed: 5,
        ..DqnConfig::default()
    };
    check("dqn_odd", dqn_rows(odd), &DQN_ODD);
}

#[test]
fn sequential_search_is_pinned() {
    let cfg = AccelConfig::default().with_tile_sharing();
    let o = rl_search(
        &zoo::micro_cnn(),
        &paper_hybrid_candidates(),
        &cfg,
        &search_cfg(),
    );
    check("rl_search", search_rows(&o), &RL_SEARCH);
}

#[test]
fn eight_lane_search_is_pinned() {
    let m = zoo::micro_cnn();
    let cfg = AccelConfig::default().with_tile_sharing();
    let engine = Arc::new(EvalEngine::new(m.clone(), cfg));
    let (o, _) = rl_search_vec_with_stats(
        &m,
        &paper_hybrid_candidates(),
        &cfg,
        &search_cfg(),
        8,
        engine,
    );
    check("eight_lanes", search_rows(&o), &RL_SEARCH_VEC);
    check("eight_lanes (all fields)", all_field_rows(&o), &EIGHT_LANES);
}

#[test]
fn one_episode_search_is_pinned() {
    // A single episode: no warm-up (`1 / 3 == 0`) and a pool too short
    // to train on.
    let scfg = small_cfg(21, 1, 60);
    check_one_lane("one_episode", &AccelConfig::default(), &scfg, &ONE_EPISODE);
}

#[test]
fn no_warmup_search_is_pinned() {
    let scfg = small_cfg(22, 10, 0);
    check_one_lane("no_warmup", &AccelConfig::default(), &scfg, &NO_WARMUP);
}

#[test]
fn warmup_split_search_is_pinned() {
    // Warm-up stops at episode 4 of 14: uniform actions, then the actor.
    let scfg = small_cfg(23, 14, 4);
    check_one_lane(
        "warmup_split",
        &AccelConfig::default(),
        &scfg,
        &WARMUP_SPLIT,
    );
}

#[test]
fn weighted_reward_search_is_pinned() {
    let scfg = RlSearchConfig {
        reward_weights: (2.0, 1.0),
        ..small_cfg(25, 10, 3)
    };
    check_one_lane(
        "reward_weights",
        &AccelConfig::default(),
        &scfg,
        &REWARD_WEIGHTS,
    );
}

const DEFAULT_AGENT: [&str; 53] = [
    "step 0: critic_loss 3fe02c88ebe2c16a actor_q 3fb0e6f850d43064",
    "step 1: critic_loss 3fe09972141aaa41 actor_q 3fb2e541466bad28",
    "step 2: critic_loss 3fdfc12902c9f3b8 actor_q 3fafa636829b28fc",
    "step 3: critic_loss 3fdea67a5afe81f4 actor_q bf9f7f808ed5abf6",
    "step 4: critic_loss 3fdf34706f694f0d actor_q 3f877cb3185dd596",
    "step 5: critic_loss 3fdd8ae0316c8c95 actor_q 3fad9c07916c42dc",
    "step 6: critic_loss 3fe3d2f4516a5697 actor_q 3fbb9ec8c744b218",
    "step 7: critic_loss 3fe214c442bd63f2 actor_q 3fb9be103789f0ba",
    "step 8: critic_loss 3fe18fb276ed594a actor_q 3fbb3f90cab8cfa0",
    "step 9: critic_loss 3fe2002b25a8f365 actor_q 3fb7b1671066e85d",
    "step 10: critic_loss 3fe0a07856151011 actor_q 3fb4ba7aa160b850",
    "step 11: critic_loss 3fe08218aa2a3405 actor_q 3fb11199c622e620",
    "step 12: critic_loss 3fe2453044a7f46c actor_q 3fb7552aa615d927",
    "step 13: critic_loss 3fde90a1b8ba7bbb actor_q 3fb1196cc3cdbb99",
    "step 14: critic_loss 3fe202d5ee6ae1b4 actor_q 3fb642a04135b895",
    "step 15: critic_loss 3fde2151f06edeb1 actor_q 3fb8e5252e101b07",
    "step 16: critic_loss 3fe07c1ff4191c81 actor_q 3fb847dd17cc8bbe",
    "step 17: critic_loss 3fe232fda29f8c8c actor_q 3fbc269426fb4e83",
    "step 18: critic_loss 3fe0e322815d5e7b actor_q 3fba8fb6928518ec",
    "step 19: critic_loss 3fe0415685395e96 actor_q 3fb589a01f62633b",
    "step 20: critic_loss 3fe0f6bab7bf9c95 actor_q 3fb98a20e29150a2",
    "step 21: critic_loss 3fe0763ea8bdf7fc actor_q 3fb452736e74098b",
    "step 22: critic_loss 3fe0d28aeff07d04 actor_q 3fb50c4c14d9fd94",
    "step 23: critic_loss 3fe01514522a02a7 actor_q 3fb78d9db3f5fb1e",
    "step 24: critic_loss 3fe01c051dbd3a37 actor_q 3fbdbea3d00d333d",
    "step 25: critic_loss 3fe2d4f97d14e293 actor_q 3fbbb268863a4d90",
    "step 26: critic_loss 3fdca3850b763b8a actor_q 3fc116057e2bee4f",
    "step 27: critic_loss 3fe12146da89a0a3 actor_q 3fbf6ee870b0c1c8",
    "step 28: critic_loss 3fdfef7748d7fa6b actor_q 3fbc4fdb26f33fad",
    "step 29: critic_loss 3fdcc856e136d0f3 actor_q 3fba30497aac2fe8",
    "step 30: critic_loss 3fe04b22fefacc51 actor_q 3fb66fd28a3b5148",
    "step 31: critic_loss 3fe07c0d8c208ac9 actor_q 3fb17822cce2b497",
    "step 32: critic_loss 3fdcc61320f3719d actor_q 3fb159ee78b6e260",
    "step 33: critic_loss 3fe212a9d6a9c94d actor_q 3fb8525524eedc1d",
    "step 34: critic_loss 3fdb3623307e630e actor_q 3fa89bb1fc4543e4",
    "step 35: critic_loss 3fe26d52eef126ac actor_q 3fbee2042fb55e2c",
    "step 36: critic_loss 3fdf9a1624a812cf actor_q 3fbc350e610496a0",
    "step 37: critic_loss 3fe07347debeb18e actor_q 3fb9e4511c25084d",
    "step 38: critic_loss 3fdd6b17aa16246e actor_q 3fba7ca23a1e4465",
    "step 39: critic_loss 3fde020f44554e5e actor_q 3fbff7a87cac82ff",
    "step 40: critic_loss 3fe0291e1544df27 actor_q 3fc089d96eb3fb4a",
    "step 41: critic_loss 3fdf3c96b0f6b380 actor_q 3fc2c685b59f9e55",
    "step 42: critic_loss 3fe37d59ba2df0a4 actor_q 3fbf2fbd4c7f88da",
    "step 43: critic_loss 3fe015aea45a6c44 actor_q 3fb8188ed7b29dbf",
    "step 44: critic_loss 3fe0d71f0cb53979 actor_q 3fbced5d9e938463",
    "step 45: critic_loss 3fe0545a5db0a38a actor_q 3fb69323ac2d9fef",
    "step 46: critic_loss 3fe31490705061f4 actor_q 3fb58b280e6d0e8b",
    "step 47: critic_loss 3fe150d4cfb9a049 actor_q 3faf4ca2b01640ad",
    "step 48: critic_loss 3fe046b6e47be427 actor_q 3fa5af235ede1dc8",
    "step 49: critic_loss 3fe0cce3c7b81b19 actor_q 3fa5445d91172680",
    "probe 0: act 3fddf056b0e23d10 q bfaf106ac34fcc4b",
    "probe 1: act 3f8e0b25cd03e952 q 3fca668616362da5",
    "probe 2: act 3fd7a2425ffd8dad q 3fc3070d8269ecc9",
];

const ODD_AGENT: [&str; 53] = [
    "step 0: critic_loss 3fe513cc03d1394f actor_q 3fc821f1335493e4",
    "step 1: critic_loss 3fe19567eecf0301 actor_q 3fc67cb279a1582f",
    "step 2: critic_loss 3fe2306a45f928b1 actor_q 3fc5290305001f68",
    "step 3: critic_loss 3fe5585734f03f5d actor_q 3fbeb9202d978dfd",
    "step 4: critic_loss 3fe3c07f41684c8e actor_q 3fb94e7f4a454ef9",
    "step 5: critic_loss 3fdf8ac097f6f9bf actor_q 3fb7ce29465ce1fa",
    "step 6: critic_loss 3fdf4dd512ddaabf actor_q 3fb7099a40c4ab5f",
    "step 7: critic_loss 3fe14272cf38faa1 actor_q 3fb65e6bb60ba3ca",
    "step 8: critic_loss 3fdd223ffe01055d actor_q 3fb5532dcd6e3ecf",
    "step 9: critic_loss 3fe32023852c288b actor_q 3fbe0f913decb4e4",
    "step 10: critic_loss 3fe35b5614c28b72 actor_q 3fbf1267bb0cd752",
    "step 11: critic_loss 3fe1ae5548f8f1d6 actor_q 3fc269ab9a768be4",
    "step 12: critic_loss 3fd75b84e0e0d871 actor_q 3fc07d61eae3007a",
    "step 13: critic_loss 3fdab07020596cfd actor_q 3fc0ec15268f380d",
    "step 14: critic_loss 3fdedc1a798fac52 actor_q 3fc40f7787a670cb",
    "step 15: critic_loss 3fe488fc2217ef08 actor_q 3fc75b9df8212f0d",
    "step 16: critic_loss 3fd97278b6f268ee actor_q 3fb3610964f262a6",
    "step 17: critic_loss 3fe1b7a23f4df578 actor_q 3fc7bc2489cdd7eb",
    "step 18: critic_loss 3fe24d333fe6a807 actor_q 3fc358021dcfffe1",
    "step 19: critic_loss 3fda171d0cab817a actor_q 3fccb71ff1b8b0e6",
    "step 20: critic_loss 3fdeb77641aaff0d actor_q 3fcddddd41cbb9df",
    "step 21: critic_loss 3fe1649561524918 actor_q 3fba9984d565b878",
    "step 22: critic_loss 3fda295f029eaa7f actor_q 3fc4a426c2802615",
    "step 23: critic_loss 3fde87b53f66c24a actor_q 3fc77b2b9344e96d",
    "step 24: critic_loss 3fd833d237d59303 actor_q 3fcc2277fe4ed4ed",
    "step 25: critic_loss 3fd5e7bf1d21ba00 actor_q 3fc8ecf11f03e9c0",
    "step 26: critic_loss 3fe0e4ece563ded2 actor_q 3fcbeae74c1a04f8",
    "step 27: critic_loss 3fdb2ab550b1e3ca actor_q 3fcbd338efe264ae",
    "step 28: critic_loss 3fde3eef00fc26ea actor_q 3fc3055fe1ae58ba",
    "step 29: critic_loss 3fdbb6ca9c412d48 actor_q 3fc58d8f48041800",
    "step 30: critic_loss 3fd9d6d10625844b actor_q 3fc59b4d9da9128c",
    "step 31: critic_loss 3fd9ffc4ee0edd0a actor_q 3fc4d7fc626cee88",
    "step 32: critic_loss 3fdb8fd3439c2bba actor_q 3fc3dd40ca98152c",
    "step 33: critic_loss 3fdbecf8335a67ce actor_q 3fc5640fcd4d3e3e",
    "step 34: critic_loss 3fd40ddf96da9f34 actor_q 3fc21efa39ce9223",
    "step 35: critic_loss 3fe08912d7ccf27d actor_q 3fb86fdd3473fed5",
    "step 36: critic_loss 3fdb7df30ae87d20 actor_q 3fc4c60377055670",
    "step 37: critic_loss 3fe2b9d6b7fcb828 actor_q 3fb8d4c0ad3e6679",
    "step 38: critic_loss 3fe2852911d3cef9 actor_q 3fbfd835e112558b",
    "step 39: critic_loss 3fd60b64879f2c0b actor_q 3fc599801030d228",
    "step 40: critic_loss 3fe0b954f48f0742 actor_q 3fbe769cd9733e04",
    "step 41: critic_loss 3fdfe602c9a98e11 actor_q 3fc5a259a2a1101b",
    "step 42: critic_loss 3fdde0dd37f462fc actor_q 3fc48ae89ee32e81",
    "step 43: critic_loss 3fdf96c6fa2a346f actor_q 3fc4b31d7e9c1267",
    "step 44: critic_loss 3fe097790efe05d8 actor_q 3fc61fd1973e1721",
    "step 45: critic_loss 3fe13a0f8ee29462 actor_q 3fc58487a7e4da4a",
    "step 46: critic_loss 3fdf8f0abb135c47 actor_q 3fca28b650fccfda",
    "step 47: critic_loss 3fdc2b32917901cb actor_q 3fcd3b95dcd1dd0d",
    "step 48: critic_loss 3fe008bf6e338b03 actor_q 3fd0482b4f080deb",
    "step 49: critic_loss 3fe3f4beb4f7a8c4 actor_q 3fccd56525e09e71",
    "probe 0: act 3feb66bab5b1c891 q 3fcaf55aeee32d93",
    "probe 1: act 3fe100c0d1c07edf q 3fd4d64961cfdb71",
    "probe 2: act 3fe6dafc4464a2d6 q 3f95aff4202e8442",
];

const DQN_DEFAULT: [&str; 53] = [
    "step 0: loss 3fe1d061aeeb1a1b",
    "step 1: loss 3febdf74d8367144",
    "step 2: loss 3fe7d7d2d415e2ac",
    "step 3: loss 3fe4cfbcb352fdfc",
    "step 4: loss 3fe6b765dd1a503d",
    "step 5: loss 3fe355f76b20b7b9",
    "step 6: loss 3fe3ec66473ad0c9",
    "step 7: loss 3fe3d7f24341014f",
    "step 8: loss 3fe515e3180eb787",
    "step 9: loss 3fe31da79fd2d914",
    "step 10: loss 3fe4689d166479b8",
    "step 11: loss 3fe20ed37dd99a15",
    "step 12: loss 3fe07f5070c7869a",
    "step 13: loss 3fe5a503629f70d3",
    "step 14: loss 3fe362795621cfd1",
    "step 15: loss 3fe3de6dbfac560a",
    "step 16: loss 3fe161d5c6f42e10",
    "step 17: loss 3fe4b4e8736cc648",
    "step 18: loss 3fe14b6820995a56",
    "step 19: loss 3fe30ece123c2056",
    "step 20: loss 3fe47013789865bc",
    "step 21: loss 3fdce69cb3d3d94e",
    "step 22: loss 3fe358238f86d4e6",
    "step 23: loss 3fe19d9ecfa5981b",
    "step 24: loss 3fdaa279497f6b9a",
    "step 25: loss 3fddacc257cf5c0c",
    "step 26: loss 3fe1fa19e793a01f",
    "step 27: loss 3fe74fb107031211",
    "step 28: loss 3fe6f4beccd182e3",
    "step 29: loss 3fe188264e9a86e8",
    "step 30: loss 3fe0ba46d7f146fd",
    "step 31: loss 3fe4e043bb7326db",
    "step 32: loss 3fe12d5a0e4d4411",
    "step 33: loss 3fe101ebf8725bb5",
    "step 34: loss 3fe23b793259cb0a",
    "step 35: loss 3fe0d720a0aa45f1",
    "step 36: loss 3fe30c5f23d90028",
    "step 37: loss 3fe01680b383d8d6",
    "step 38: loss 3fddbed380de0297",
    "step 39: loss 3fde6b34069052ae",
    "step 40: loss 3fe1c9b0c26468ab",
    "step 41: loss 3fe0a492cfa62ec3",
    "step 42: loss 3fe35762534e44ed",
    "step 43: loss 3fe0eae746a48bf7",
    "step 44: loss 3fde8568d4e1939e",
    "step 45: loss 3fe52b414824c482",
    "step 46: loss 3fe01a5d0eec57f7",
    "step 47: loss 3fe29cd8967035df",
    "step 48: loss 3fe1a14037378b2b",
    "step 49: loss 3fdb2bd7619feac3",
    "probe 0: q 3fd668394d454306 3fd811627cf04e0e 3fd17a1fc2dba0ff 3fdb47418bf8fd5a 3fcfc3bbdd52f907",
    "probe 1: q 3fdfd770d55f5861 3fdfeb6e761d65ba 3fd7b2d7ec90d6f6 3fd2b723d90f1867 3fd6d1e2431774a1",
    "probe 2: q 3fd6b14a310592be 3fd651c87c5468c6 3fdb769dceef77c5 3fd8c814e8455389 3fd810b2fb8d9070",
];

const DQN_ODD: [&str; 53] = [
    "step 0: loss 3fe6780d488f91f2",
    "step 1: loss 3fd88f6ded1c7126",
    "step 2: loss 3fe170a47e30fc22",
    "step 3: loss 3fe6f9e8af0bf155",
    "step 4: loss 3fe9cc0477377fe7",
    "step 5: loss 3fdf9088083aa9b8",
    "step 6: loss 3fdd20512d67eec3",
    "step 7: loss 3fe265134fac939c",
    "step 8: loss 3fdbef27f385876d",
    "step 9: loss 3fdf855135a4c75a",
    "step 10: loss 3fdee3286c84c900",
    "step 11: loss 3fe3a4f5cce7c2cb",
    "step 12: loss 3fe372383c2bd10d",
    "step 13: loss 3fe3178c34a7eb56",
    "step 14: loss 3fe12ae823fbd219",
    "step 15: loss 3fd5d14646ef655d",
    "step 16: loss 3fe2693b17695b08",
    "step 17: loss 3fe0c2a0e0b44182",
    "step 18: loss 3fe18fb22169dfb8",
    "step 19: loss 3fe2517fc71a706a",
    "step 20: loss 3fe1836f397ae7d5",
    "step 21: loss 3fe0f0e4b1c25841",
    "step 22: loss 3fd81635aafe88a1",
    "step 23: loss 3fde9c00a7131aee",
    "step 24: loss 3fe2e5f3904312e3",
    "step 25: loss 3fe01b2eceb3af4d",
    "step 26: loss 3fe022fdd2a7fe03",
    "step 27: loss 3fe0c23e84bb5469",
    "step 28: loss 3fdfad03f5d727d1",
    "step 29: loss 3fd918098091746e",
    "step 30: loss 3fdae65efc4fa89a",
    "step 31: loss 3fdf1f5f299530cd",
    "step 32: loss 3fe12dd0ccfae7f6",
    "step 33: loss 3fde7f0e5b472e51",
    "step 34: loss 3fe3bbd3e027f134",
    "step 35: loss 3fe2f9ce63903d7e",
    "step 36: loss 3fd904c33dc44ed3",
    "step 37: loss 3fe0d3149d3d4063",
    "step 38: loss 3fe239d0d649fc9a",
    "step 39: loss 3fe13ffcc0fbc9b2",
    "step 40: loss 3fdce9a2f656d78f",
    "step 41: loss 3fdd1f300dd804f9",
    "step 42: loss 3fdea1ead9d60e9d",
    "step 43: loss 3fdb2e29639e1c36",
    "step 44: loss 3fe451097900a9e1",
    "step 45: loss 3fe15469ae632464",
    "step 46: loss 3fe658f15786c780",
    "step 47: loss 3fdddce77558560f",
    "step 48: loss 3fdcba50095af9cf",
    "step 49: loss 3fe50d38cd56232d",
    "probe 0: q 3fc2bd01ba5d3fb3 3faf0d76bcfa50df bf8d1afeb218ca3e",
    "probe 1: q 3fc6d1f089fc6560 3fd3c215c3b0e9da 3fcfd3caade50db4",
    "probe 2: q 3fd0cf5a23c34852 3fb9d53963115dc5 bf88f9db2d23a64e",
];

const RL_SEARCH: [&str; 61] = [
    "ep 0: rue 3ee99d2238f5b14c reward 3f8070f60a0e2782",
    "ep 1: rue 3ef0416156214119 reward 3f84de4cc8c7bc38",
    "ep 2: rue 3f150bafb36e9e91 reward 3fab049bafe3f1ee",
    "ep 3: rue 3ee25041403721a8 reward 3f7782b1069a45ce",
    "ep 4: rue 3f224882a3c105d9 reward 3fb778bfc9a4d1cf",
    "ep 5: rue 3ee92f2ea4ab766b reward 3f802a6260f0c3e8",
    "ep 6: rue 3f263262adf16dbc reward 3fbc7eefeecca7fa",
    "ep 7: rue 3ef757a2b2508e7d reward 3f8df767f2010ebf",
    "ep 8: rue 3f0603b626eb9efe reward 3f9c4304a4993083",
    "ep 9: rue 3f2042c14f966bfe reward 3fb4e010a46f5074",
    "ep 10: rue 3f20b36d492e5224 reward 3fb570b5fba3c664",
    "ep 11: rue 3f160891dc137b30 reward 3fac49414a79fe73",
    "ep 12: rue 3eed0b4054a89267 reward 3f82a49dc8d11e71",
    "ep 13: rue 3ee27ba038ad0d20 reward 3f77ba5ece53c6c9",
    "ep 14: rue 3ef973dda379c43e reward 3f905678bc012cd5",
    "ep 15: rue 3f5e80a15910d9e4 reward 3ff39448e36a77de",
    "ep 16: rue 3ef25637ff825574 reward 3f878a5908d87c1f",
    "ep 17: rue 3eea38d094502efd reward 3f80d4e42afc02b3",
    "ep 18: rue 3f5e7cd7e1d86da2 reward 3ff391da98fdf0c7",
    "ep 19: rue 3f1d751ea68f7a58 reward 3fb2e89280cd0ab1",
    "ep 20: rue 3f02973878c5bfba reward 3f97ddcbc13b73c2",
    "ep 21: rue 3f7053f662ddf726 reward 4004f627cb17f708",
    "ep 22: rue 3f6a3a299e61c2c3 reward 4000d5c1a534e193",
    "ep 23: rue 3f7053f662ddf726 reward 4004f627cb17f708",
    "ep 24: rue 3f68e3779da417fd reward 3ffff39133038063",
    "ep 25: rue 3f58796a9263a098 reward 3fef6b6bc74b6560",
    "ep 26: rue 3f7053f662ddf726 reward 4004f627cb17f708",
    "ep 27: rue 3f68e3779da417fd reward 3ffff39133038063",
    "ep 28: rue 3f27d95066911183 reward 3fbe9de2850e695c",
    "ep 29: rue 3ef51ee98a54972a reward 3f8b1d4a3ffc9410",
    "ep 30: rue 3ee9fe259e135337 reward 3f80af3ba4005873",
    "ep 31: rue 3f6f4db9d69893ab reward 400417ef041e7cc7",
    "ep 32: rue 3f7053f662ddf726 reward 4004f627cb17f708",
    "ep 33: rue 3f5e91abfff43256 reward 3ff39f393b907e32",
    "ep 34: rue 3f59c81ac35cc725 reward 3ff08c8b2e3b09ff",
    "ep 35: rue 3f68e953f2c4b9a3 reward 3ffffb174c1e1a36",
    "ep 36: rue 3f7053f662ddf726 reward 4004f627cb17f708",
    "ep 37: rue 3effe07f5d7d125c reward 3f9476251a16d783",
    "ep 38: rue 3f60407e865515df reward 3ff4dd299b97d02b",
    "ep 39: rue 3f7053f662ddf726 reward 4004f627cb17f708",
    "ep 40: rue 3f6f4db9d69893ab reward 400417ef041e7cc7",
    "ep 41: rue 3f6748a61623c494 reward 3ffde42a943eae46",
    "ep 42: rue 3f2676410854353b reward 3fbcd610cb16e903",
    "ep 43: rue 3f263262adf16dbc reward 3fbc7eefeecca7fa",
    "ep 44: rue 3f55c4c69a20f1e5 reward 3febf238f1deab4e",
    "ep 45: rue 3f6d94db9ca739a1 reward 4002fcf1d6737c5f",
    "ep 46: rue 3f5ffdf18121d3c7 reward 3ff4890bc2d3517b",
    "ep 47: rue 3f68e3779da417fd reward 3ffff39133038063",
    "ep 48: rue 3f7053f662ddf726 reward 4004f627cb17f708",
    "ep 49: rue 3f5d298e01984647 reward 3ff2b8115c9f6f41",
    "ep 50: rue 3f600099acc64f6c reward 3ff48b22ff95516a",
    "ep 51: rue 3f59aaf536173de0 reward 3ff079d5aea2d7ed",
    "ep 52: rue 3f68e953f2c4b9a3 reward 3ffffb174c1e1a36",
    "ep 53: rue 3f7053f662ddf726 reward 4004f627cb17f708",
    "ep 54: rue 3f0e64541fc4050b reward 3fa3821e3fb15deb",
    "ep 55: rue 3f68e3779da417fd reward 3ffff39133038063",
    "ep 56: rue 3f6d94db9ca739a1 reward 4002fcf1d6737c5f",
    "ep 57: rue 3f5d298e01984647 reward 3ff2b8115c9f6f41",
    "ep 58: rue 3f7053f662ddf726 reward 4004f627cb17f708",
    "ep 59: rue 3f5ee48a5454c3c0 reward 3ff3d46a81c7e022",
    "best [XbarShape { rows: 32, cols: 32 }, XbarShape { rows: 32, cols: 32 }, XbarShape { rows: 32, cols: 32 }, XbarShape { rows: 32, cols: 32 }]",
];

const RL_SEARCH_VEC: [&str; 61] = [
    "ep 0: rue 3f13b2c6bf609d12 reward 3fa949d1c16dff63",
    "ep 1: rue 3f551a307bcf11d7 reward 3feb173a160edf05",
    "ep 2: rue 3f22b51ec66e6d8c reward 3fb8042e33cc135d",
    "ep 3: rue 3ee422e60148459f reward 3f79d9c2721da628",
    "ep 4: rue 3ef036ab9d4f6dab reward 3f84d08d03acdcf1",
    "ep 5: rue 3eee04028265c8d5 reward 3f83444ac34cd937",
    "ep 6: rue 3f62725be57ae57e reward 3ff7ae7942c09712",
    "ep 7: rue 3ee37c43ea526778 reward 3f7903d6cf67e1b8",
    "ep 8: rue 3f1bf97cda462dca reward 3fb1f4e3df991db3",
    "ep 9: rue 3ee8f49a04159360 reward 3f8004c830103d96",
    "ep 10: rue 3eeda0de10c28223 reward 3f8304a74cc4ed79",
    "ep 11: rue 3eebdaa7a833ab9f reward 3f81e1194e9a0564",
    "ep 12: rue 3ef3a06e63afb776 reward 3f893244a94708f3",
    "ep 13: rue 3f1bf97cda462dca reward 3fb1f4e3df991db3",
    "ep 14: rue 3f55f3581fbb9a37 reward 3fec2e0190c1ca09",
    "ep 15: rue 3f1a8ce1f852172b reward 3fb10ada8aaee0be",
    "ep 16: rue 3ef697b6456bdb19 reward 3f8d0104ae9aca8e",
    "ep 17: rue 3f15db1c629015e1 reward 3fac0ee5531bed06",
    "ep 18: rue 3eea9e6dc10fc8ce reward 3f81161dc65987e7",
    "ep 19: rue 3f6f4657e69c8964 reward 40041331e2274264",
    "ep 20: rue 3ee317354cc796d9 reward 3f78821a9c84f5e7",
    "ep 21: rue 3ee52149f8798e60 reward 3f7b2057574c69d8",
    "ep 22: rue 3ef6f0f9a924bb8a reward 3f8d739cdb50b471",
    "ep 23: rue 3ef4512dc621effd reward 3f8a152c62410c8f",
    "ep 24: rue 3f7053f662ddf726 reward 4004f627cb17f708",
    "ep 25: rue 3f31077c69e93f76 reward 3fc5dc9fd35f43d2",
    "ep 26: rue 3f12dcef7bfa840d reward 3fa8374b680cad08",
    "ep 27: rue 3f01a113fbaf3800 reward 3f96a1cd887a6610",
    "ep 28: rue 3efe9dd32b0c889d reward 3f93a7064300c092",
    "ep 29: rue 3f58ed26db1858f0 reward 3ff0000000000000",
    "ep 30: rue 3efd36b82551d3da reward 3f92c0849f3b1433",
    "ep 31: rue 3f59a476ece1c00d reward 3ff075aaad419dab",
    "ep 32: rue 3f6f4dbc4113bb98 reward 400417f0911dbc17",
    "ep 33: rue 3ed4ecd4b63cb223 reward 3f6adcff1de49ebe",
    "ep 34: rue 3f27e0933ca652e9 reward 3fbea734dba6d2eb",
    "ep 35: rue 3f11c03fb40838e7 reward 3fa6c9d1be919d57",
    "ep 36: rue 3f25ba13f9cd1c90 reward 3fbbe47d2626aa08",
    "ep 37: rue 3ef50c8e873a2456 reward 3f8b05b9bf9e3356",
    "ep 38: rue 3ed4ecd4b63cb223 reward 3f6adcff1de49ebe",
    "ep 39: rue 3ee9fe259e135337 reward 3f80af3ba4005873",
    "ep 40: rue 3ef5ee985d636a9d reward 3f8c27e8cc16856d",
    "ep 41: rue 3f68e953f2c4b9a3 reward 3ffffb174c1e1a36",
    "ep 42: rue 3f0603b626eb9efe reward 3f9c4304a4993083",
    "ep 43: rue 3ee9fb146c88379d reward 3f80ad43a1e84580",
    "ep 44: rue 3eed076b244916f3 reward 3f82a227f7fb6066",
    "ep 45: rue 3f205049bd274cf1 reward 3fb4f1703558e554",
    "ep 46: rue 3f25ba13f9cd1c90 reward 3fbbe47d2626aa08",
    "ep 47: rue 3ee470d0ce488fca reward 3f7a3dc9c3e469d6",
    "ep 48: rue 3ee2b728ef86997b reward 3f7806cc8abf1282",
    "ep 49: rue 3f1761f1a2dfee9d reward 3fae04a3c3ef9f68",
    "ep 50: rue 3ee40a836ad03c53 reward 3f79ba7454e2646b",
    "ep 51: rue 3f22d41161de711d reward 3fb82be917d83068",
    "ep 52: rue 3efdea6364e640c9 reward 3f9333d887a541ab",
    "ep 53: rue 3eed74487e2b2a3e reward 3f82e809098cfc3f",
    "ep 54: rue 3f59851d4aee0cc2 reward 3ff0618b19af726d",
    "ep 55: rue 3eed74487e2b2a3e reward 3f82e809098cfc3f",
    "ep 56: rue 3f60041b7c699d90 reward 3ff48fa3974ae3bc",
    "ep 57: rue 3f7053f662ddf726 reward 4004f627cb17f708",
    "ep 58: rue 3f02949c0a8424c2 reward 3f97da71a2e76ca9",
    "ep 59: rue 3f7053f662ddf726 reward 4004f627cb17f708",
    "best [XbarShape { rows: 32, cols: 32 }, XbarShape { rows: 32, cols: 32 }, XbarShape { rows: 32, cols: 32 }, XbarShape { rows: 32, cols: 32 }]",
];

const ONE_EPISODE: [&str; 5] = [
    "ep 0: rue 3ee5d06c1803f74e reward 3f9591b4ef94fa19 util 3f7a4a66937b0c1b energy 40ee2157d129d210 hit 3fc999999999999a",
    "best [XbarShape { rows: 32, cols: 32 }, XbarShape { rows: 72, cols: 64 }, XbarShape { rows: 576, cols: 512 }, XbarShape { rows: 576, cols: 512 }]",
    "best report: rue 3ee5d06c1803f74e tiles 4 fnv f302ce44b19fe5cd",
    "cache EngineStats { strategy_hits: 0, strategy_misses: 2, layer_hits: 1, layer_misses: 7, noise_slices: 0, device_draws: 0, readout_tables: 0 }",
    "train steps 0",
];

const NO_WARMUP: [&str; 14] = [
    "ep 0: rue 3f63f79e4d5cc8e1 reward 4013be36735db2dd util 3fdd666666666666 energy 40d267b697a379e6 hit 0000000000000000",
    "ep 1: rue 3f0283252684e283 reward 3fb24dec27e0af94 util 3f98cc4d3c6b2242 energy 40f0be8be0e2fb94 hit 3fc999999999999a",
    "ep 2: rue 3ec7827be44059ae reward 3f773ee4cf837244 util 3f70555555555555 energy 41015e641d8e5908 hit 3fc999999999999a",
    "ep 3: rue 3efeadf6ef4cceb1 reward 3fae55c2dd866857 util 3f89a3e786ec5b74 energy 40e4e4c319630e3f hit 3fe999999999999a",
    "ep 4: rue 3f527962afca1e03 reward 40024445c034da0e util 3fcc4fa4fa4fa4fa energy 40d327e7f40506b0 hit 3fd999999999999a",
    "ep 5: rue 3ef5ee7e286489b3 reward 3fa5af708c1a39fb util 3f84e81b4e81b4e8 energy 40e7d4e778efe716 hit 3fe3333333333333",
    "ep 6: rue 3ed1184e8bbef83f reward 3f80e728b52949b0 util 3f719a4eb3826e89 energy 40f9be1d93439d91 hit 3fe999999999999a",
    "ep 7: rue 3ed1184e8bbef83f reward 3f80e728b52949b0 util 3f719a4eb3826e89 energy 40f9be1d93439d91 hit 3ff0000000000000",
    "ep 8: rue 3ebc105dcc5c38d1 reward 3f6bbfaed12237a2 util 3f6a8aaaaaaaaaab energy 4107a4d8b1092a32 hit 3fe3333333333333",
    "ep 9: rue 3ebc105dcc5c38d1 reward 3f6bbfaed12237a2 util 3f6a8aaaaaaaaaab energy 4107a4d8b1092a32 hit 3ff0000000000000",
    "best [XbarShape { rows: 32, cols: 32 }, XbarShape { rows: 32, cols: 32 }, XbarShape { rows: 32, cols: 32 }, XbarShape { rows: 36, cols: 32 }]",
    "best report: rue 3f63f79e4d5cc8e1 tiles 8 fnv 35eed1e1ead77e51",
    "cache EngineStats { strategy_hits: 2, strategy_misses: 9, layer_hits: 18, layer_misses: 18, noise_slices: 0, device_draws: 0, readout_tables: 0 }",
    "train steps 18",
];

const WARMUP_SPLIT: [&str; 18] = [
    "ep 0: rue 3efd4f3c06f8358f reward 3facfaf84da742e7 util 3f892a59c20de7fb energy 40e5771a499dccf2 hit 3fc999999999999a",
    "ep 1: rue 3ef7e0f4dc7446e6 reward 3fa79c4e2c2be071 util 3f89d5d1ed2e65e2 energy 40eb0c61e33ce808 hit 3fc999999999999a",
    "ep 2: rue 3f47bae83dd66cfe reward 3ff776aef1bd0ade util 3fc7bd37a6f4de9c energy 40d9026f0f343650 hit 3fe3333333333333",
    "ep 3: rue 3ef3a808bdf32aaf reward 3fa36f85b1bc16ea util 3f90a751fca751fd energy 40f52e4f63d7f36c hit 3fc999999999999a",
    "ep 4: rue 3f6447c5b1d5df99 reward 40140d7766ca9ab3 util 3fdddc0000000000 energy 40d267746a7306e6 hit 3fc999999999999a",
    "ep 5: rue 3f52a1e2458be1d2 reward 40026c50e742ae51 util 3fcc85bb39503d22 energy 40d3228e2d34aa8e hit 3fe999999999999a",
    "ep 6: rue 3f63f2b6ab0001c4 reward 4013b95ceaf07d4a util 3fdd666666666666 energy 40d26c3d1aaf959a hit 3fe999999999999a",
    "ep 7: rue 3eec477515557cef reward 3f9bf627b74de3b8 util 3f84e81b4e81b4e8 energy 40f27b7fa7218d88 hit 3fe3333333333333",
    "ep 8: rue 3efeadf6ef4cceb1 reward 3fae55c2dd866857 util 3f89a3e786ec5b74 energy 40e4e4c319630e3f hit 3fe999999999999a",
    "ep 9: rue 3f1da3031a76d0bc reward 3fcd4dce8504e101 util 3fa4f8a021b64151 energy 40e1b0afe04d5ef8 hit 3fe999999999999a",
    "ep 10: rue 3f2181df5ddb2828 reward 3fd14f8a072ec924 util 3fa5cf106f04bf5c energy 40df2479446fe9f8 hit 3fe999999999999a",
    "ep 11: rue 3edcbdf4263fca32 reward 3f8c6b521b356f6c util 3f776e0cf276e0cf energy 40f461258c117f99 hit 3fe999999999999a",
    "ep 12: rue 3f63f2b6ab0001c4 reward 4013b95ceaf07d4a util 3fdd666666666666 energy 40d26c3d1aaf959a hit 3ff0000000000000",
    "ep 13: rue 3f6447c5b1d5df99 reward 40140d7766ca9ab3 util 3fdddc0000000000 energy 40d267746a7306e6 hit 3ff0000000000000",
    "best [XbarShape { rows: 32, cols: 32 }, XbarShape { rows: 32, cols: 32 }, XbarShape { rows: 32, cols: 32 }, XbarShape { rows: 32, cols: 32 }]",
    "best report: rue 3f6447c5b1d5df99 tiles 8 fnv 5fc71e4ff8f92a5d",
    "cache EngineStats { strategy_hits: 2, strategy_misses: 13, layer_hits: 34, layer_misses: 18, noise_slices: 0, device_draws: 0, readout_tables: 0 }",
    "train steps 26",
];

const REWARD_WEIGHTS: [&str; 14] = [
    "ep 0: rue 3edddaa34baf57d6 reward 3f4577dc35b1c8da util 3f79bcc48676f312 energy 40f58d7b4408aecc hit 3fd999999999999a",
    "ep 1: rue 3f19cab238dbc93b reward 3fae3988eeb86380 util 3fa4f8a021b64151 energy 40e453d066fe5a1b hit 3fd999999999999a",
    "ep 2: rue 3f2383703a4a69c6 reward 3fb96978076f7386 util 3fa74e0c7ce0c7ce energy 40dddb840aa602a7 hit 3fd999999999999a",
    "ep 3: rue 3eea93eebe64e1fc reward 3f63337ff6af3b00 util 3f89db69c16f2af9 energy 40f8526f5ac930bc hit 3fc999999999999a",
    "ep 4: rue 3eea0315591289a7 reward 3f629093a524a5c6 util 3f898b3a62ce98b4 energy 40f88cced01419ac hit 3fe999999999999a",
    "ep 5: rue 3ed2325bc8a96e92 reward 3f31f80db2d7b2f8 util 3f71abe3260fc1dc energy 40f84740df1eccc7 hit 3fd999999999999a",
    "ep 6: rue 3ee996064a4ab231 reward 3f5909b28254de2a util 3f8183143bd2411a energy 40f11c658c6341e8 hit 3fe999999999999a",
    "ep 7: rue 3f6325d869b984f7 reward 402ccc9723ca3e37 util 3fdaea5dbf193d4c energy 40d192231037aa70 hit 3fe3333333333333",
    "ep 8: rue 3f6447c5b1d5df99 reward 4030eb5cbebaf288 util 3fdddc0000000000 energy 40d267746a7306e6 hit 3fd999999999999a",
    "ep 9: rue 3f5567961460dfc7 reward 4017169914b0d913 util 3fd34d9364d9364e energy 40d68b9e7fb115ca hit 3fe999999999999a",
    "best [XbarShape { rows: 32, cols: 32 }, XbarShape { rows: 32, cols: 32 }, XbarShape { rows: 32, cols: 32 }, XbarShape { rows: 32, cols: 32 }]",
    "best report: rue 3f6447c5b1d5df99 tiles 8 fnv 5fc71e4ff8f92a5d",
    "cache EngineStats { strategy_hits: 0, strategy_misses: 11, layer_hits: 26, layer_misses: 18, noise_slices: 0, device_draws: 0, readout_tables: 0 }",
    "train steps 18",
];

const EIGHT_LANES: [&str; 64] = [
    "ep 0: rue 3f13b2c6bf609d12 reward 3fa949d1c16dff63 util 3fa659d31674c59d energy 40ec5dcf06875f63 hit 3fdb333333333333",
    "ep 1: rue 3f551a307bcf11d7 reward 3feb173a160edf05 util 3fd0555555555555 energy 40d359a559e140e0 hit 3fdb333333333333",
    "ep 2: rue 3f22b51ec66e6d8c reward 3fb8042e33cc135d util 3fa617ad2208e0ed energy 40dd86086e84cc6e hit 3fdb333333333333",
    "ep 3: rue 3ee422e60148459f reward 3f79d9c2721da628 util 3f84e9efe3fbcc2b energy 40f9f71d29876600 hit 3fdb333333333333",
    "ep 4: rue 3ef036ab9d4f6dab reward 3f84d08d03acdcf1 util 3f84e81b4e81b4e8 energy 40f01e42539d55fb hit 3fdb333333333333",
    "ep 5: rue 3eee04028265c8d5 reward 3f83444ac34cd937 util 3f852accb1941214 energy 40f1a14f54274208 hit 3fdb333333333333",
    "ep 6: rue 3f62725be57ae57e reward 3ff7ae7942c09712 util 3fd797b425ed097b energy 40cff9567e7b8f65 hit 3fdb333333333333",
    "ep 7: rue 3ee37c43ea526778 reward 3f7903d6cf67e1b8 util 3f84f8a021b64151 energy 40fae801a3b3d41a hit 3fdb333333333333",
    "ep 8: rue 3f1bf97cda462dca reward 3fb1f4e3df991db3 util 3fa8fafafafafafb energy 40e652ff024255d1 hit 3fe8e38e38e38e39",
    "ep 9: rue 3ee8f49a04159360 reward 3f8004c830103d96 util 3f8469456217ecdc energy 40f47298048b2289 hit 3fe8e38e38e38e39",
    "ep 10: rue 3eeda0de10c28223 reward 3f8304a74cc4ed79 util 3f852cad07ccf11c energy 40f1dde30b3ad092 hit 3fe8e38e38e38e39",
    "ep 11: rue 3eebdaa7a833ab9f reward 3f81e1194e9a0564 util 3f852cad07ccf11c energy 40f3013ca8e3553c hit 3fe8e38e38e38e39",
    "ep 12: rue 3ef3a06e63afb776 reward 3f893244a94708f3 util 3f84e81b4e81b4e8 energy 40eaa16298a48300 hit 3fe8e38e38e38e39",
    "ep 13: rue 3f1bf97cda462dca reward 3fb1f4e3df991db3 util 3fa8fafafafafafb energy 40e652ff024255d1 hit 3fe8e38e38e38e39",
    "ep 14: rue 3f55f3581fbb9a37 reward 3fec2e0190c1ca09 util 3fd48c6318c6318c energy 40d7672cec9a90e0 hit 3fe8e38e38e38e39",
    "ep 15: rue 3f1a8ce1f852172b reward 3fb10ada8aaee0be util 3fa89e4cad23dd5f energy 40e72e4be4b5924c hit 3fe8e38e38e38e39",
    "ep 16: rue 3ef697b6456bdb19 reward 3f8d0104ae9aca8e util 3f895a6d884752c9 energy 40ec0e05418b4663 hit 3fe999999999999a",
    "ep 17: rue 3f15db1c629015e1 reward 3fac0ee5531bed06 util 3fa744f7d13df44f energy 40ea9de99378d95a hit 3fe999999999999a",
    "ep 18: rue 3eea9e6dc10fc8ce reward 3f81161dc65987e7 util 3f89a3e786ec5b74 energy 40f814b62ed3cd01 hit 3fe999999999999a",
    "ep 19: rue 3f6f4657e69c8964 reward 40041331e2274264 util 3fe2073ecade304d energy 40ccd28ab724494f hit 3fe999999999999a",
    "ep 20: rue 3ee317354cc796d9 reward 3f78821a9c84f5e7 util 3f853bbbbbbbbbbc energy 40fbce50f29fa13c hit 3fe999999999999a",
    "ep 21: rue 3ee52149f8798e60 reward 3f7b2057574c69d8 util 3f852accb1941214 energy 40f90b40a47a4bf2 hit 3fe999999999999a",
    "ep 22: rue 3ef6f0f9a924bb8a reward 3f8d739cdb50b471 util 3f898df5f1aa33fe energy 40ebd904b6a915b0 hit 3fe999999999999a",
    "ep 23: rue 3ef4512dc621effd reward 3f8a152c62410c8f util 3f84e81b4e81b4e8 energy 40e9b9b71bd4c9d2 hit 3fe999999999999a",
    "ep 24: rue 3f7053f662ddf726 reward 4004f627cb17f708 util 3fe3e80000000000 energy 40ce7a8ee220a330 hit 3fe9c71c71c71c72",
    "ep 25: rue 3f31077c69e93f76 reward 3fc5dc9fd35f43d2 util 3faa222222222222 energy 40d32ec4bf346366 hit 3fe9c71c71c71c72",
    "ep 26: rue 3f12dcef7bfa840d reward 3fa8374b680cad08 util 3fa60f83e0f83e10 energy 40ed3ce647ebbadc hit 3fe9c71c71c71c72",
    "ep 27: rue 3f01a113fbaf3800 reward 3f96a1cd887a6610 util 3f8a222222222222 energy 40e287a45aa284aa hit 3fe9c71c71c71c72",
    "ep 28: rue 3efe9dd32b0c889d reward 3f93a7064300c092 util 3f8944f8ce7e188b energy 40e4a24246ee44c6 hit 3fe9c71c71c71c72",
    "ep 29: rue 3f58ed26db1858f0 reward 3ff0000000000000 util 3fd1b1c71c71c71c energy 40d1bf28540bbaea hit 3fe9c71c71c71c72",
    "ep 30: rue 3efd36b82551d3da reward 3f92c0849f3b1433 util 3f895a6d884752c9 energy 40e5b2421b2c520b hit 3fe9c71c71c71c72",
    "ep 31: rue 3f59a476ece1c00d reward 3ff075aaad419dab util 3fd578cf19e33c68 energy 40d4ef17ddcf0c02 hit 3fe9c71c71c71c72",
    "ep 32: rue 3f6f4dbc4113bb98 reward 400417f0911dbc17 util 3fe2073ecade304d energy 40cccbbc5b1681da hit 3fe9c71c71c71c72",
    "ep 33: rue 3ed4ecd4b63cb223 reward 3f6adcff1de49ebe util 3f7a8aaaaaaaaaab energy 40ffb5d5a0ee29fb hit 3fe9c71c71c71c72",
    "ep 34: rue 3f27e0933ca652e9 reward 3fbea734dba6d2eb util 3fa89e4cad23dd5f energy 40d9c6a54433754c hit 3fe9c71c71c71c72",
    "ep 35: rue 3f11c03fb40838e7 reward 3fa6c9d1be919d57 util 3f9a5bce90c5bce9 energy 40e28fb76ab26a82 hit 3fe9c71c71c71c72",
    "ep 36: rue 3f25ba13f9cd1c90 reward 3fbbe47d2626aa08 util 3fa84e24a12b8c6a energy 40dbf780d5094f60 hit 3fe9c71c71c71c72",
    "ep 37: rue 3ef50c8e873a2456 reward 3f8b05b9bf9e3356 util 3f84f8a021b64151 energy 40e8e853df81853c hit 3fe9c71c71c71c72",
    "ep 38: rue 3ed4ecd4b63cb223 reward 3f6adcff1de49ebe util 3f7a8aaaaaaaaaab energy 40ffb5d5a0ee29fb hit 3fe9c71c71c71c72",
    "ep 39: rue 3ee9fe259e135337 reward 3f80af3ba4005873 util 3f853bbbbbbbbbbc energy 40f46c1f4845f0e0 hit 3fe9c71c71c71c72",
    "ep 40: rue 3ef5ee985d636a9d reward 3f8c27e8cc16856d util 3f84e81b4e81b4e8 energy 40e7d4cafed74058 hit 3fe9c71c71c71c72",
    "ep 41: rue 3f68e953f2c4b9a3 reward 3ffffb174c1e1a36 util 3fe0c35e50d79436 energy 40d0d29febbbe444 hit 3fe9c71c71c71c72",
    "ep 42: rue 3f0603b626eb9efe reward 3f9c4304a4993083 util 3f9a8aaaaaaaaaab energy 40ee24208bda96da hit 3fe9c71c71c71c72",
    "ep 43: rue 3ee9fb146c88379d reward 3f80ad43a1e84580 util 3f853bbbbbbbbbbc energy 40f46e887d0fd9eb hit 3fe9c71c71c71c72",
    "ep 44: rue 3eed076b244916f3 reward 3f82a227f7fb6066 util 3f84f8a021b64151 energy 40f20f815e945460 hit 3fe9c71c71c71c72",
    "ep 45: rue 3f205049bd274cf1 reward 3fb4f1703558e554 util 3fa617ad2208e0ed energy 40e0ed8d7b39a1aa hit 3fe9c71c71c71c72",
    "ep 46: rue 3f25ba13f9cd1c90 reward 3fbbe47d2626aa08 util 3fa84e24a12b8c6a energy 40dbf780d5094f60 hit 3fe9c71c71c71c72",
    "ep 47: rue 3ee470d0ce488fca reward 3f7a3dc9c3e469d6 util 3f853bbbbbbbbbbc energy 40f9f82dbcd31e30 hit 3fe9c71c71c71c72",
    "ep 48: rue 3ee2b728ef86997b reward 3f7806cc8abf1282 util 3f852accb1941214 energy 40fc46659fdf6951 hit 3fe9c71c71c71c72",
    "ep 49: rue 3f1761f1a2dfee9d reward 3fae04a3c3ef9f68 util 3fa8800000000000 energy 40ea31d7cf77dd29 hit 3fe9c71c71c71c72",
    "ep 50: rue 3ee40a836ad03c53 reward 3f79ba7454e2646b util 3f81b1c71c71c71c energy 40f6129e8ad83fa4 hit 3fe9c71c71c71c72",
    "ep 51: rue 3f22d41161de711d reward 3fb82be917d83068 util 3fa84e24a12b8c6a energy 40e022d33f46d701 hit 3fe9c71c71c71c72",
    "ep 52: rue 3efdea6364e640c9 reward 3f9333d887a541ab util 3f8944f8ce7e188b energy 40e51e05ca7de938 hit 3fe9c71c71c71c72",
    "ep 53: rue 3eed74487e2b2a3e reward 3f82e809098cfc3f util 3f847742d3ca89c4 energy 40f15ef37c5ad0f7 hit 3fe9c71c71c71c72",
    "ep 54: rue 3f59851d4aee0cc2 reward 3ff0618b19af726d util 3fd0555555555555 energy 40d00023229e349c hit 3fe9c71c71c71c72",
    "ep 55: rue 3eed74487e2b2a3e reward 3f82e809098cfc3f util 3f847742d3ca89c4 energy 40f15ef37c5ad0f7 hit 3fe9c71c71c71c72",
    "ep 56: rue 3f60041b7c699d90 reward 3ff48fa3974ae3bc util 3fd67b7b7b7b7b7b energy 40d18bf7560106e8 hit 3feaaaaaaaaaaaab",
    "ep 57: rue 3f7053f662ddf726 reward 4004f627cb17f708 util 3fe3e80000000000 energy 40ce7a8ee220a330 hit 3feaaaaaaaaaaaab",
    "ep 58: rue 3f02949c0a8424c2 reward 3f97da71a2e76ca9 util 3f8a088029d96b91 energy 40e18387b4def1e4 hit 3feaaaaaaaaaaaab",
    "ep 59: rue 3f7053f662ddf726 reward 4004f627cb17f708 util 3fe3e80000000000 energy 40ce7a8ee220a330 hit 3feaaaaaaaaaaaab",
    "best [XbarShape { rows: 32, cols: 32 }, XbarShape { rows: 32, cols: 32 }, XbarShape { rows: 32, cols: 32 }, XbarShape { rows: 32, cols: 32 }]",
    "best report: rue 3f7053f662ddf726 tiles 6 fnv d20724ba46e68dc9",
    "cache EngineStats { strategy_hits: 7, strategy_misses: 54, layer_hits: 196, layer_misses: 20, noise_slices: 0, device_draws: 0, readout_tables: 0 }",
    "train steps 56",
];

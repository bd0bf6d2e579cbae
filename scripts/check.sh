#!/usr/bin/env bash
# Full local gate: everything CI would run, in the order that fails fastest
# after the expensive build artifacts exist.
set -euo pipefail
cd "$(dirname "$0")/.."

cargo build --release
cargo test -q
# The benchmark measures the release build with target-cpu=native, where
# the optimizer vectorizes the plane-parallel readout-table sums and the
# register-tiled DDPG GEMMs and inlines the shard scheduler's hot loop:
# check the bit-identity contracts in that build too, not only in debug.
cargo test --release -q -p autohet-xbar -p autohet-accel -p autohet-rl -p autohet-serve --lib
cargo test --release -q -p autohet --test prop_variation --test prop_repair_degradation \
  --test golden_study_rows --test prop_kernels --test golden_ddpg \
  --test prop_serve_shard --test integration_serving --test golden_serve_shard \
  --test prop_invariants --test prop_vec_search --test prop_obs
# Smoke-run the kernel and end-to-end search benches (with real criterion,
# --test runs each closure once; the offline stub just times a short run)
# so bench-only breakage fails the gate too.
cargo bench -p autohet-bench --bench kernels -- --test >/dev/null
cargo bench -p autohet-bench --bench search -- --test >/dev/null
cargo bench -p autohet-bench --bench noise -- --test >/dev/null
cargo bench -p autohet-bench --bench lifetime -- --test >/dev/null
cargo bench -p autohet-bench --bench serve_scale -- --test >/dev/null
cargo bench -p autohet-bench --bench eval_cache -- --test >/dev/null
cargo fmt --check
# --all-targets lints tests, examples, and benches too, not just lib code.
cargo clippy --workspace --all-targets -- -D warnings
# The library crates' docs are part of their API contract: a doc link to
# a renamed or deleted item fails here, and so does an unescaped bracket
# (units and citations are written `\[nJ\]`, `\[19\]`). Private items are
# documented too, so the comments of private modules are checked as well.
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --document-private-items \
  -p autohet-obs -p autohet-rl -p autohet -p autohet-xbar -p autohet-accel -p autohet-dnn \
  -p autohet-serve -p autohet-bench

# Observability smoke: the full dump pipeline must run end to end and
# emit every artifact (CI uploads target/obs_smoke for inspection).
cargo run --release -p autohet --example obs_dump -- --smoke --alerts --out target/obs_smoke
for f in trace.jsonl trace.collapsed metrics.txt metrics.jsonl \
         search_episodes.csv search_episodes.jsonl \
         vec_groups.csv vec_groups.jsonl \
         serving_windows.csv serving_windows.jsonl \
         alerts.jsonl alerts.csv vec_episodes.jsonl; do
  [ -s "target/obs_smoke/$f" ] || { echo "missing obs artifact: $f" >&2; exit 1; }
done
# Every seeded artifact must repeat byte for byte in a second run. trace.*
# holds span times, so it stays out of the comparison; metrics.* is
# compared without its one wall-clock value, the episodes/s gauge.
cargo run --release -p autohet --example obs_dump -- --smoke --alerts --out target/obs_smoke_again
for f in search_episodes.csv search_episodes.jsonl \
         vec_groups.csv vec_groups.jsonl \
         serving_windows.csv serving_windows.jsonl \
         alerts.jsonl alerts.csv vec_episodes.jsonl; do
  cmp "target/obs_smoke/$f" "target/obs_smoke_again/$f" \
    || { echo "obs smoke: $f differs between two seeded runs" >&2; exit 1; }
done
for f in metrics.txt metrics.jsonl; do
  cmp <(grep -v episodes_per_sec_x1000 "target/obs_smoke/$f") \
      <(grep -v episodes_per_sec_x1000 "target/obs_smoke_again/$f") \
    || { echo "obs smoke: $f differs between two seeded runs" >&2; exit 1; }
done
# The vectorized search's episode counter must equal its episode rows.
grep -qx "search.ddpg_vec.episodes $(wc -l < target/obs_smoke/vec_episodes.jsonl)" \
    target/obs_smoke/metrics.txt \
  || { echo "obs smoke: search.ddpg_vec.episodes is not the vec_episodes.jsonl row count" >&2; exit 1; }
# The alert timeline must exercise the full state machine: the engineered
# overload has to both fire and later resolve on simulated time.
grep -q '"kind":"firing"' target/obs_smoke/alerts.jsonl \
  || { echo "alert smoke: no firing transition on the timeline" >&2; exit 1; }
grep -q '"kind":"resolved"' target/obs_smoke/alerts.jsonl \
  || { echo "alert smoke: no resolved transition on the timeline" >&2; exit 1; }

# Perf-regression sentinel (warn mode): compare the committed kernel
# snapshot against itself via the `regress` binary so parser + CLI +
# verdict artifact stay wired, then prove the sentinel actually bites by
# injecting a 25% slowdown and expecting hard mode to fail.
cargo build --release -p autohet-bench --bin regress
target/release/regress --baseline BENCH_kernels.json --current BENCH_kernels.json \
  --out target/regress_verdict.jsonl
grep -q '"kind":"summary"' target/regress_verdict.jsonl \
  || { echo "regress smoke: verdict artifact missing its summary line" >&2; exit 1; }
python3 - <<'PY'
import json
snap = json.load(open("BENCH_kernels.json"))
worst = max(snap["results"], key=lambda n: snap["results"][n])
snap["results"][worst] = int(snap["results"][worst] * 1.25)
json.dump(snap, open("target/BENCH_kernels_injected.json", "w"))
PY
if target/release/regress --baseline BENCH_kernels.json \
     --current target/BENCH_kernels_injected.json --hard >/dev/null; then
  echo "regress smoke: hard mode missed an injected 25% slowdown" >&2; exit 1
fi
# The sentinel also covers the sharded-runtime snapshot's rows.
target/release/regress --baseline BENCH_serve.json --current BENCH_serve.json \
  --out target/regress_serve.jsonl
grep -q '"kind":"summary"' target/regress_serve.jsonl \
  || { echo "regress smoke: serve snapshot missing its summary line" >&2; exit 1; }

# Robustness smoke: the NSGA-II study must run end to end, emit its
# artifacts, and find a noise-robust pick distinct from the noise-blind
# winner (the DESIGN.md §11 acceptance bar).
cargo run --release -p autohet --example robustness_study -- --smoke --out target/robustness_smoke
for f in nsga_front.csv nsga_front.jsonl metrics.txt summary.txt; do
  [ -s "target/robustness_smoke/$f" ] || { echo "missing robustness artifact: $f" >&2; exit 1; }
done
grep -q '^picks_differ: true$' target/robustness_smoke/summary.txt \
  || { echo "robustness smoke: noise-robust pick equals the noise-blind winner" >&2; exit 1; }

# Lifetime smoke: the drift × recovery campaign must run end to end, emit
# its artifacts, and show the full detect → recalibrate → remap cascade
# strictly dominating no-recovery at every nonzero drift rate (the
# DESIGN.md §12 acceptance bar).
cargo run --release -p autohet --example lifetime_study -- --smoke --out target/lifetime_smoke
for f in rows.csv summary.txt; do
  [ -s "target/lifetime_smoke/$f" ] || { echo "missing lifetime artifact: $f" >&2; exit 1; }
done
grep -q '^full_cascade_beats_no_recovery: true$' target/lifetime_smoke/summary.txt \
  || { echo "lifetime smoke: full cascade failed to dominate no-recovery" >&2; exit 1; }

# Sharded-runtime smoke: a scaled-down day of fleet traffic plus the
# engineered burst and drift scenarios must run end to end — the
# autoscaler has to both add and drain replicas, the online strategy
# swap has to fire without losing a request, and every artifact must
# land (CI uploads target/serve_smoke for inspection).
cargo run --release -p autohet --example serve_scale -- --smoke --out target/serve_smoke
for f in summary.txt shard_windows.csv shard_windows.jsonl \
         shard_alerts.jsonl shard_alerts.csv metrics.txt; do
  [ -s "target/serve_smoke/$f" ] || { echo "missing serve artifact: $f" >&2; exit 1; }
done
grep -Eq '^scale_up_events: [1-9]' target/serve_smoke/summary.txt \
  || { echo "serve smoke: autoscaler never scaled up" >&2; exit 1; }
grep -Eq '^scale_down_events: [1-9]' target/serve_smoke/summary.txt \
  || { echo "serve smoke: autoscaler never drained after the burst" >&2; exit 1; }
grep -Eq '^swap_events: [1-9]' target/serve_smoke/summary.txt \
  || { echo "serve smoke: drifting mix never triggered a strategy swap" >&2; exit 1; }
grep -q '^lost_requests: 0$' target/serve_smoke/summary.txt \
  || { echo "serve smoke: the runtime lost requests" >&2; exit 1; }
grep -q '"rule":"serve.scale_up"' target/serve_smoke/shard_alerts.jsonl \
  || { echo "serve smoke: autoscaler rules missing from the alert timeline" >&2; exit 1; }

# Benchmark smoke: build perfbench (its own workspace, building the crates
# above by path) and run each workload for about a second. Every run ends
# with one JSON result line; all of its correctness checks must pass.
for w in search_vgg16 serve_fleet lifetime_lenet5; do
  result=$(cargo run --release --quiet --offline --manifest-path perfbench/Cargo.toml -- \
             --workload "$w" --seed 1 --seconds 1 --trace 0 | tail -n 1)
  grep -q '"failed": 0,' <<<"$result" \
    || { echo "perfbench smoke: $w failed a correctness check: $result" >&2; exit 1; }
done

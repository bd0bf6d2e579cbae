#!/usr/bin/env bash
# Snapshot benchmark groups into BENCH_*.json files:
#   kernels  → BENCH_kernels.json   (substrate micro-benchmarks)
#   search   → BENCH_search.json    (300-round end-to-end search drivers)
#   noise    → BENCH_noise.json     (device-variation kernels + MC evaluator)
#   lifetime → BENCH_lifetime.json  (drift snapshots + degraded epoch evals)
#   serve    → BENCH_serve.json     (sharded runtime: a simulated day of
#                                    fleet traffic, scan vs heap scheduler)
#
# The shared CI box is noisy (throttling plus neighbors), so each snapshot
# runs its whole bench group REPS times — sequential and vectorized search
# runs interleave within every rep — and keeps the per-benchmark MINIMUM,
# the run least perturbed by outside load. Compare snapshots taken on the
# same machine only. The search snapshot derives episodes/sec and the
# speed-up of every driver over the sequential baseline in its group.
#
# Usage: scripts/bench_snapshot.sh [reps] [bench ...]   (default: 5, all)
set -euo pipefail
cd "$(dirname "$0")/.."

REPS="${1:-5}"
shift || true
if [ $# -eq 0 ]; then BENCHES=(kernels search noise lifetime serve); else BENCHES=("$@"); fi

snapshot() {
  local bench="$1" out="$2"
  local tmp
  tmp="$(mktemp)"
  for i in $(seq 1 "$REPS"); do
    echo "bench_snapshot[$bench]: run $i/$REPS" >&2
    cargo bench -p autohet-bench --bench "$bench" 2>/dev/null \
      | grep -E '^(bench .*: [0-9]+ ns/iter|serve_meta .*)' >>"$tmp" || true
  done
  python3 - "$tmp" "$out" "$REPS" "$bench" <<'PY'
import json, re, subprocess, sys

tmp, out, reps, bench = sys.argv[1], sys.argv[2], int(sys.argv[3]), sys.argv[4]
best = {}
order = []
for line in open(tmp):
    m = re.match(r"bench (.+): (\d+) ns/iter", line)
    if not m:
        continue
    name, ns = m.group(1), int(m.group(2))
    if name not in best:
        order.append(name)
        best[name] = ns
    else:
        best[name] = min(best[name], ns)

if not best:
    sys.exit(f"bench_snapshot[{bench}]: no benchmark output parsed")

rev = subprocess.run(
    ["git", "rev-parse", "--short", "HEAD"], capture_output=True, text=True
).stdout.strip() or "unknown"

snapshot = {
    "bench": bench,
    "git_rev": rev,
    "reps": reps,
    "stat": "min_ns_per_iter",
    "results": {name: best[name] for name in order},
}

if bench == "search":
    # Each search/<group>/<driver> bench runs a full 300-episode search;
    # derive episodes/sec and each driver's speed-up over its group's
    # sequential baseline.
    EPISODES = 300
    derived = {}
    for name in order:
        m = re.match(r"(search/[^/]+)/(.+)", name)
        if not m:
            continue
        group, driver = m.groups()
        ns = best[name]
        row = {"ns_per_search": ns, "episodes_per_sec": round(EPISODES / (ns * 1e-9), 1)}
        seq = best.get(f"{group}/seq")
        if seq is not None:
            row["speedup_vs_seq"] = round(seq / ns, 2)
        derived.setdefault(group, {})[driver] = row
    snapshot["episodes"] = EPISODES
    snapshot["derived"] = derived

if bench == "noise":
    # Derive the packed variation MVM's speed-ups over the scalar
    # reference and its ratio to the ideal packed kernel, so the snapshot
    # records them directly. (The dense f64 fallback arm the DESIGN.md §11
    # claim was measured against is retired with the fallback itself.)
    fast = best.get("noise/variation_mvm/fast_108x64")
    derived = {}
    for other in ("scalar", "ideal"):
        ns = best.get(f"noise/variation_mvm/{other}_108x64")
        if fast and ns:
            derived[f"speedup_fast_vs_{other}"] = round(ns / fast, 2)
    snapshot["derived"] = derived

if bench == "serve_scale":
    # Headline claim of the sharded runtime (DESIGN.md §14 acceptance:
    # ≥3×): the 8-shard heap scheduler must beat the 1-shard linear-scan
    # reference on the same simulated day of fleet traffic. The bench's
    # serve_meta line records the workload scale the claim was earned on.
    derived = {}
    scan1 = best.get("serve/day/scan_shard1")
    heap1 = best.get("serve/day/heap_shard1")
    heap8 = best.get("serve/day/heap_shard8")
    if scan1 and heap8:
        derived["speedup_heap8_vs_scan1"] = round(scan1 / heap8, 2)
    if scan1 and heap1:
        derived["speedup_heap1_vs_scan1"] = round(scan1 / heap1, 2)
    for line in open(tmp):
        m = re.match(r"serve_meta (.+)", line)
        if m:
            for kv in m.group(1).split():
                k, v = kv.split("=", 1)
                derived[k] = int(v)
            break
    snapshot["derived"] = derived

if bench == "lifetime":
    # The per-epoch memo is the campaign's speed lever: a warm epoch
    # (revisited for another recovery arm) must be much cheaper than the
    # cold one that pays the cascade plus the Monte-Carlo slices.
    cold = best.get("lifetime/degraded_eval/micro_cnn_cold")
    warm = best.get("lifetime/degraded_eval/micro_cnn_warm")
    if cold and warm:
        snapshot["derived"] = {"speedup_warm_vs_cold": round(cold / warm, 2)}

with open(out, "w") as f:
    json.dump(snapshot, f, indent=2)
    f.write("\n")
print(f"bench_snapshot[{bench}]: wrote {out} ({len(best)} benchmarks, min of {reps} runs)")
PY
  rm -f "$tmp"
}

for b in "${BENCHES[@]}"; do
  case "$b" in
    kernels) snapshot kernels BENCH_kernels.json ;;
    search) snapshot search BENCH_search.json ;;
    noise) snapshot noise BENCH_noise.json ;;
    lifetime) snapshot lifetime BENCH_lifetime.json ;;
    serve) snapshot serve_scale BENCH_serve.json ;;
    *) echo "bench_snapshot: unknown bench '$b' (kernels|search|noise|lifetime|serve)" >&2; exit 1 ;;
  esac
done

# Combined index over every snapshot present on disk, so the regression
# sentinel (and humans) can discover the full set from one file.
python3 - <<'PY'
import glob, json

index = {"stat": "min_ns_per_iter", "snapshots": {}}
for path in sorted(glob.glob("BENCH_*.json")):
    if path == "BENCH_index.json":
        continue
    with open(path) as f:
        snap = json.load(f)
    index["snapshots"][snap["bench"]] = {
        "file": path,
        "git_rev": snap.get("git_rev", "unknown"),
        "reps": snap.get("reps", 0),
        "benchmarks": len(snap.get("results", {})),
    }
with open("BENCH_index.json", "w") as f:
    json.dump(index, f, indent=2)
    f.write("\n")
print(f"bench_snapshot: wrote BENCH_index.json ({len(index['snapshots'])} snapshots)")
PY

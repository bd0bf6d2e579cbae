#!/usr/bin/env bash
# Interleaved base/change pairs of one perfbench workload.
#
#   scripts/perfbench_pairs.sh <base-rev> <workload> [pairs] [first-seed]
#
# Exports <base-rev> with `git archive` to a temporary directory outside
# the working tree (cargo merges every .cargo/config.toml from the build
# directory up to /, so a base nested in the working tree would build with
# the working tree's rustflags too), and builds perfbench there and in the
# working tree, each into its own target directory under
# target/perfbench_pairs/. Then runs `pairs` (default 10)
# pairs of `--seconds <run_seconds from BENCHMARK.json> --trace 0`: pair i
# runs both sides on seed first-seed + i (default first seed 1001), and
# the side that runs first alternates from pair to pair. Prints each
# side's median and quartiles of every end-to-end metric BENCHMARK.json
# names, the pairs the change won on each and the pairs where both sides
# read the same value bit for bit, and every run whose result line
# reports failed checks. The result lines go to
# target/perfbench_pairs/<workload>.jsonl. BENCHMARK.json and perfbench/
# are only read, never written.
set -euo pipefail
cd "$(dirname "$0")/.."

if [ $# -lt 2 ] || [ $# -gt 4 ]; then
  echo "usage: $0 <base-rev> <workload> [pairs] [first-seed]" >&2
  exit 2
fi
base_rev=$1
workload=$2
pairs=${3:-10}
first_seed=${4:-1001}
out=$PWD/target/perfbench_pairs
log=$out/$workload.jsonl
seconds=$(python3 -c 'import json; print(json.load(open("BENCHMARK.json"))["run_seconds"])')

rev=$(git rev-parse --verify "$base_rev^{commit}")
mkdir -p "$out"
base=$(mktemp -d -t perfbench_pairs.XXXXXX)
trap 'rm -rf "$base"' EXIT
git archive "$rev" | tar -x -C "$base"

build() { # <checkout> <side>
  echo "building perfbench for $2 ($1)" >&2
  (cd "$1" && CARGO_TARGET_DIR="$out/$2-target" \
    cargo build --release --quiet --offline --manifest-path perfbench/Cargo.toml)
}
build "$base" base
build "$PWD" change

run() { # <side> <pair> <seed>
  local root=$PWD line
  [ "$1" = base ] && root=$base
  echo "pair $2 seed $3: $1" >&2
  line=$(cd "$root" && "$out/$1-target/release/autohet-perfbench" \
           --workload "$workload" --seed "$3" --seconds "$seconds" --trace 0 | tail -n 1) \
    || line=null
  printf '{"side": "%s", "pair": %d, "seed": %d, "result": %s}\n' "$1" "$2" "$3" "$line" >>"$log"
}

: >"$log"
for ((i = 0; i < pairs; i++)); do
  seed=$((first_seed + i))
  if ((i % 2 == 0)); then
    run base "$i" "$seed"
    run change "$i" "$seed"
  else
    run change "$i" "$seed"
    run base "$i" "$seed"
  fi
done

python3 - "$log" "$rev" "$workload" "$seconds" <<'PY'
import json
import statistics
import sys

log, rev, workload, seconds = sys.argv[1:]
bench = json.load(open("BENCHMARK.json"))
runs = [json.loads(line) for line in open(log)]
sides = {"base": {}, "change": {}}
for r in runs:
    sides[r["side"]][r["pair"]] = r
pairs = sorted(set(sides["base"]) & set(sides["change"]))
seeds = [sides["base"][p]["seed"] for p in pairs]
print(f"{workload}: base {rev[:12]} vs working tree, {len(pairs)} pairs at {seconds} s, "
      f"seeds {seeds[0]}-{seeds[-1]}")


def value(run, metric):
    result = run["result"]
    if not result or metric not in result.get("metrics", {}):
        return None
    return result["metrics"][metric]["value"]


def quartiles(xs):
    if len(xs) == 1:
        return xs * 3
    return statistics.quantiles(xs, n=4, method="inclusive")


for m in bench["end_to_end"]:
    name, lower = m["name"], m["better"] == "lower"
    stats = {}
    for side in sides:
        xs = [value(sides[side][p], name) for p in pairs]
        xs = [x for x in xs if x is not None]
        stats[side] = quartiles(xs) if xs else None
    wins = equal = 0
    for p in pairs:
        b, c = value(sides["base"][p], name), value(sides["change"][p], name)
        if b is None or c is None:
            continue
        wins += c < b if lower else c > b
        equal += c == b
    line = f"  {name:<17} ({m['unit']}, {m['better']} is better)"
    for side in sides:
        q = stats[side]
        line += f"  {side} " + ("n/a" if q is None else f"{q[1]:.6g} [{q[0]:.6g}, {q[2]:.6g}]")
    if stats["base"] and stats["change"]:
        b, c = stats["base"], stats["change"]
        ratio = c[1] / b[1] if b[1] else float("nan")
        line += (f"  change/base {ratio:.4g}, |median gap| {abs(c[1] - b[1]):.6g}"
                 f" vs base IQR {b[2] - b[0]:.6g}")
    line += f"  change won {wins}/{len(pairs)}, equal {equal}/{len(pairs)}"
    print(line)

failed = [r for r in runs
          if not r["result"] or r["result"].get("failed") != 0 or not r["result"].get("correct")]
print(f"  runs with failed checks: {len(failed)}")
for r in failed:
    print(f"    {r['side']} pair {r['pair']} seed {r['seed']}: {json.dumps(r['result'])}")
PY

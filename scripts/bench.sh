#!/usr/bin/env bash
# The repo benchmark (benchmark/README.md), two ways.
#
#   scripts/bench.sh
#     Regenerates BENCH_pipeline.json: for each BENCHMARK.json workload, the
#     harness's result line of one timed run (--trace 0: end-to-end medians)
#     and one traced run (--trace 1: per-layer metrics), verbatim, under the
#     harness's host line. ~5 min; run it on an otherwise idle box.
#
#   scripts/bench.sh --parent <rev> [--pairs N] [--seconds S] [--first-seed K] [--workload W]…
#     Writes BENCH_pairs.json: the working tree against <rev>, in alternating
#     pairs. <rev> is `git archive`d into a temp dir; for each of N fresh
#     seeds (K, K+1, …; default N = 5, K = 101) and each workload (default:
#     all four), each tree's own benchmark/run.sh makes one timed run of S
#     seconds (default 12), and which tree goes first flips every seed. The
#     runs are folded by the `bench_pairs` binary: per workload × end-to-end
#     metric, each side's quartiles, each pair's change/parent ratio, wins k
#     of N and a moved / inside-noise verdict on the ratios
#     (crates/bench/src/pairs.rs). About N × 2 × S seconds
#     a workload plus the parent's cold build.
#
# tests/bench_file.rs pins both files' shapes.
set -euo pipefail
cd "$(dirname "$0")/.."

workloads_all=(ids15k-rrea-unsup dbp1m-name dbp1m-name-bounded dbp1m-partition)

parent="" pairs=5 seconds=12 first_seed=101 workloads=()
while [[ $# -gt 0 ]]; do
  case "$1" in
    --parent) parent="$2" ;;
    --pairs) pairs="$2" ;;
    --seconds) seconds="$2" ;;
    --first-seed) first_seed="$2" ;;
    --workload) workloads+=("$2") ;;
    *) echo "scripts/bench.sh: unknown argument $1" >&2; exit 2 ;;
  esac
  shift 2
done
[[ ${#workloads[@]} -gt 0 ]] || workloads=("${workloads_all[@]}")

# the harness's result object: the last line of a run's stdout
result_of() { local out; out="$(bash "$1/benchmark/run.sh" "${@:2}")"; echo "${out##*$'\n'}"; }

if [[ -z "$parent" ]]; then
  runs=""
  for w in "${workloads_all[@]}"; do
    for t in 0 1; do
      out="$(bash benchmark/run.sh --workload "$w" --seed 1 --seconds 28 --trace "$t")"
      # stdout starts with `host {…}` and ends with the result object
      host="${out%%$'\n'*}"
      runs+="${runs:+,}$(printf '{"workload":"%s","trace":%s,"result":%s}' "$w" "$t" "${out##*$'\n'}")"
    done
  done
  printf '{"schema":"largeea-benchmark-runs","host":%s,"runs":[%s]}\n' \
    "${host#host }" "$runs" > BENCH_pipeline.json

  # the one check the harness does not make: SIMD dispatch must beat scalar
  cargo bench -q --offline -p largeea-bench --bench kernel_bench -- --require-win
  exit 0
fi

parent_sha="$(git rev-parse --verify "$parent^{commit}")"
change="$(git rev-parse HEAD)"
git diff --quiet HEAD || change+="+dirty"
tmp="$(mktemp -d -t largeea_pairs.XXXXXX)"
trap 'rm -rf "$tmp"' EXIT
mkdir "$tmp/parent"
git archive "$parent_sha" | tar -x -C "$tmp/parent"
# Each tree builds into its own target directories (a shared one would
# rebuild on every switch); the parent's first run pays its cold build.
unset CARGO_TARGET_DIR
trees=("$tmp/parent" "$PWD")
sides=(parent change)
for ((i = 0; i < pairs; i++)); do
  seed=$((first_seed + i))
  for w in "${workloads[@]}"; do
    for j in 0 1; do
      s=$(((i + j) % 2)) # seed i runs the parent first when i is even
      echo "seed $seed $w: ${sides[s]}" >&2
      r="$(result_of "${trees[s]}" --workload "$w" --seed "$seed" --seconds "$seconds" --trace 0)"
      printf '{"seed":%s,"side":"%s","workload":"%s","result":%s}\n' \
        "$seed" "${sides[s]}" "$w" "$r" >> "$tmp/runs.jsonl"
    done
  done
done
cargo run -q --release --offline -p largeea-bench --bin bench_pairs -- \
  --runs "$tmp/runs.jsonl" --manifest BENCHMARK.json \
  --parent "$parent_sha" --change "$change" --seconds "$seconds" > BENCH_pairs.json
echo "BENCH_pairs.json: $pairs pairs, parent $parent_sha" >&2

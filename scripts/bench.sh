#!/usr/bin/env bash
# Regenerates BENCH_pipeline.json from the repo benchmark (benchmark/README.md):
# for each BENCHMARK.json workload, the harness's result line of one timed run
# (--trace 0: end-to-end medians) and one traced run (--trace 1: per-layer
# metrics), verbatim, under the harness's host line. ~5 min; run it on an
# otherwise idle box. tests/bench_file.rs pins the file's shape.
set -euo pipefail
cd "$(dirname "$0")/.."

runs=""
for w in ids15k-rrea-unsup dbp1m-name dbp1m-name-bounded dbp1m-partition; do
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

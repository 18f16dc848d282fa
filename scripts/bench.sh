#!/usr/bin/env bash
# Regenerates BENCH_pipeline.json — the perf baseline `largeea trace check`
# gates against (DESIGN.md §S0.5).
#
# Runs the deterministic synthetic pipeline REPEATS times at fixed seeds,
# writes per-stage medians + exact counters to BENCH_pipeline.json at the
# repo root, then immediately checks a fresh trace against the new baseline
# so a freshly seeded file is known-green on the machine that produced it.
#
# Usage: scripts/bench.sh [repeats]   (default 5)
#
# The baseline is measured with the store on disk (MEM_BUDGET, default
# 1 MiB — about twice this workload's tracked peak on either backing) so
# it carries the deterministic mem.spill.* counters; set MEM_BUDGET=0 to
# bench the unbounded, memory-backed run instead.
set -euo pipefail
cd "$(dirname "$0")/.."

REPEATS="${1:-5}"
MEM_BUDGET="${MEM_BUDGET:-1048576}"
FRESH="$(mktemp -t largeea_bench_fresh.XXXXXX.json)"
trap 'rm -f "$FRESH"' EXIT

echo "== bench: ${REPEATS} repeats → BENCH_pipeline.json =="
# The baseline records the pool width it was measured under (config.threads
# + config.host_parallelism); pin LARGEEA_THREADS here to bench a width
# other than the machine default.
echo "== bench: pool width ${LARGEEA_THREADS:-auto ($(nproc 2>/dev/null || echo '?') hw)} =="
cargo run -q --release --offline -p largeea-bench --bin bench_pipeline -- \
  --repeats "$REPEATS" --mem-budget "$MEM_BUDGET" \
  --out BENCH_pipeline.json --trace-out "$FRESH"

echo "== bench: checking the fresh run against the new baseline =="
cargo run -q --release --offline --bin largeea -- \
  trace check "$FRESH" --baseline BENCH_pipeline.json

echo "== bench: kernel dispatch micro-benchmarks → kernel.* stages =="
# Times each dense kernel under the scalar reference and the dispatched
# ISA (DESIGN.md §S0.11), merges the dispatched medians + speedups into
# the baseline, and fails if dot/l1/l1_panel/sad_panel/matmul don't beat
# scalar while a SIMD ISA is active (l1_panel and sad_panel are the kernels
# the exact top-k scan runs: 64 x 128 panel, reported as pairs/s).
# cargo bench runs the binary with CWD = the package dir; hand it an
# absolute path to the repo-root baseline.
cargo bench -q --offline -p largeea-bench --bench kernel_bench -- \
  --merge-into "$PWD/BENCH_pipeline.json" --require-win

echo "== bench: one training epoch → train_epoch stage =="
# The op the structure channel runs (ROADMAP item 1, "one training epoch"):
# a steady-state RREA epoch — forward, fused triplet loss, backward, Adam
# on the trainer's recycled tape — on a fixed synthetic batch (2 000
# entities, 700 pairs x 15 negatives, dim 64), merged as the `train_epoch`
# stage plus `train_epoch_per_s` / `train_epoch_alloc_bytes` config entries.
cargo bench -q --offline -p largeea-bench --bench train_bench -- \
  --merge-into "$PWD/BENCH_pipeline.json"

echo "== bench: one partition level → op.partition_kway / op.initial_partition stages =="
# The multilevel partitioner where its growth shows (ROADMAP item 1, "one
# partition level"): `partition_kway` at K = 20 on the source graph of
# DBP1M(EN-FR) scale 0.025 (46 945 vertices, 174 168 edges — the shape of
# the `dbp1m-partition` benchmark workload), reported as edges/s, and
# `initial_partition` alone on its coarsest level.
cargo bench -q --offline -p largeea-bench --bench partition_bench -- \
  --merge-into "$PWD/BENCH_pipeline.json"

echo "bench: OK"

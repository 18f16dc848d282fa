#!/usr/bin/env bash
# Tier-1 verification gate (see ROADMAP.md).
#
# The build is hermetic — every dependency is an in-tree path dependency —
# so everything below runs with --offline against an empty registry cache.
set -euo pipefail
cd "$(dirname "$0")/.."

# `stage NAME` opens a stage and prints the wall-clock of the one it ends
# (whole seconds; the gate's cost is part of what it gates — ROADMAP item 4).
stage_name=""
stage_t0=$SECONDS
stage() {
  [ -z "$stage_name" ] || echo "-- $stage_name: $((SECONDS - stage_t0)) s"
  stage_name="$1"
  stage_t0=$SECONDS
  [ -z "$1" ] || echo "== $1 =="
}

stage "build (release, offline)"
cargo build --release --offline --workspace

stage "test (offline)"
cargo test -q --offline --workspace

stage "test (serial gate: LARGEEA_THREADS=1)"
# Kernels promise bit-identical results for any pool width; running the
# whole suite again with a width-1 global pool catches code that only
# works when the pool actually fans out (or only when it doesn't).
LARGEEA_THREADS=1 cargo test -q --offline --workspace

stage "fmt"
cargo fmt --check

stage "clippy"
cargo clippy -q --offline --workspace --all-targets -- -D warnings

stage "kernel-dispatch smoke"
# scratch for this smoke and the ledger lines below
SMOKE="$(mktemp -d -t largeea_smoke.XXXXXX)"
trap 'rm -rf "$SMOKE"' EXIT
L="target/release/largeea"
# runtime SIMD dispatch (DESIGN.md §S0.11): a scalar-forced run
# (LARGEEA_NO_SIMD=1) on one thread must reproduce the default run's
# similarity matrix byte-for-byte — the SIMD kernels are transcriptions,
# not approximations (and the scan's u8 pre-filter is exact integers on
# either side), and every parallel pass is width-independent, so one cmp
# covers both. GCN and RREA, whose fused training nodes run on the pool.
# No tests/*.rs runs the CLI under LARGEEA_NO_SIMD=1.
"$L" generate --preset dbp1m-ci --scale 1.0 --out "$SMOKE/dbp_ci" > /dev/null
for model in gcn rrea; do
  "$L" align --data "$SMOKE/dbp_ci" --model $model --k 4 --epochs 4 --dim 16 \
    --sim-out "$SMOKE/simd.sim" --trace-out "$SMOKE/simd.json" > /dev/null
  LARGEEA_NO_SIMD=1 LARGEEA_THREADS=1 "$L" align --data "$SMOKE/dbp_ci" --model $model \
    --k 4 --epochs 4 --dim 16 --sim-out "$SMOKE/nosimd.sim" > /dev/null
  cmp "$SMOKE/simd.sim" "$SMOKE/nosimd.sim"
  grep -q '"kernel.isa"' "$SMOKE/simd.json"
  grep -q '"sens.refined_pairs"' "$SMOKE/simd.json"
done
grep -q '"negatives.refined_pairs"' "$SMOKE/simd.json"

stage ""
# the costs the ROADMAP's north star names, measured: what CHANGES.md quotes
# before → after. Product source is every tracked file under crates/*/src and
# src; "outside tests" cuts each file at its first #[cfg(test)] line.
product=$(git ls-files 'crates/*/src/*.rs' 'src/*.rs')
for f in $product; do awk '/#\[cfg\(test\)\]/{exit} {print}' "$f"; done > "$SMOKE/product.rs"
flags=$(awk '/^const (BOOL|VALUE)_FLAGS/{on=1} on{print} on&&/";$/{on=0}' src/main.rs |
  sed 's/^const [A-Z_]*: &str = //' | tr -d '"\\;' | wc -w)
echo "product lines: $(cat $product | wc -l) ($(wc -l < "$SMOKE/product.rs") outside #[cfg(test)])"
echo "pub items: $(grep -cE '^ *pub ' "$SMOKE/product.rs")"
echo "cli flags: $flags"
echo "env vars: $(grep -ohE 'LARGEEA_[A-Z0-9_]+' "$SMOKE/product.rs" | sort -u | wc -l)"
echo "verify: OK in $SECONDS s"

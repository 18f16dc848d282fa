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

stage "trace smoke"
# the full loop on a tiny dataset: traced run → summarize → self-diff
# (exactly zero deltas, so --threshold-pct 0 must exit 0)
SMOKE="$(mktemp -d -t largeea_smoke.XXXXXX)"
trap 'rm -rf "$SMOKE"' EXIT
L="target/release/largeea"
"$L" generate --preset ids15k-en-fr --scale 0.01 --out "$SMOKE/data" > /dev/null
"$L" align --data "$SMOKE/data" --model gcn --k 2 --epochs 8 --dim 16 \
  --trace-out "$SMOKE/run.json" > /dev/null
"$L" trace summarize "$SMOKE/run.json" > /dev/null
"$L" trace diff "$SMOKE/run.json" "$SMOKE/run.json" --threshold-pct 0 > /dev/null

stage "crash-recovery smoke"
# kill a checkpointed run with an injected failpoint, resume it, and demand
# a byte-identical similarity matrix (DESIGN.md §S0.7)
"$L" align --data "$SMOKE/data" --model gcn --k 2 --epochs 8 --dim 16 \
  --checkpoint-dir "$SMOKE/ckpt_base" --sim-out "$SMOKE/base.sim" > /dev/null
if LARGEEA_FAILPOINTS=ckpt.sim=panic@1 "$L" align --data "$SMOKE/data" \
  --model gcn --k 2 --epochs 8 --dim 16 \
  --checkpoint-dir "$SMOKE/ckpt_crash" > /dev/null 2>&1; then
  echo "crash smoke: injected failpoint did not kill the run" >&2
  exit 1
fi
"$L" align --data "$SMOKE/data" --model gcn --k 2 --epochs 8 --dim 16 \
  --checkpoint-dir "$SMOKE/ckpt_crash" --resume --sim-out "$SMOKE/resumed.sim" > /dev/null
cmp "$SMOKE/base.sim" "$SMOKE/resumed.sim"
"$L" ckpt inspect "$SMOKE/ckpt_crash" > /dev/null

stage "live-telemetry smoke"
# a run with --live-dir must leave a final snapshot byte-identical to
# --trace-out, and the whole offline tooling loop must accept it
# (DESIGN.md §S0.9)
"$L" align --data "$SMOKE/data" --model gcn --k 2 --epochs 8 --dim 16 \
  --live-dir "$SMOKE/live" --live-every 8 \
  --trace-out "$SMOKE/live_run.json" > /dev/null
cmp "$SMOKE/live/live.trace.json" "$SMOKE/live_run.json"
"$L" trace summarize "$SMOKE/live/live.trace.json" > /dev/null
"$L" trace tail "$SMOKE/live" --once > /dev/null
"$L" trace expo "$SMOKE/live/live.trace.json" | grep -q '^largeea_'

stage "heap-attribution smoke"
# span-attributed heap profiling (DESIGN.md §S0.10): a --mem-audit run on
# the CI-sized DBP1M shape must reconcile tracked vs measured heap peaks;
# `trace heap` and `trace expo` renderings must be byte-stable across
# same-seed single-thread runs; and a deliberately un-charged reservation
# (the LARGEEA_HEAP_LEAK test hook) must fail the audit, not pass it.
"$L" generate --preset dbp1m-ci --scale 1.0 --out "$SMOKE/dbp_ci" > /dev/null
for i in a b; do
  LARGEEA_THREADS=1 "$L" align --data "$SMOKE/dbp_ci" --model gcn --k 4 \
    --epochs 4 --dim 16 --mem-audit \
    --trace-out "$SMOKE/heap_$i.json" > "$SMOKE/heap_$i.out"
  grep -q 'mem-audit OK: tracked peak' "$SMOKE/heap_$i.out"
  "$L" trace heap "$SMOKE/heap_$i.json" > "$SMOKE/heap_$i.txt"
  "$L" trace heap "$SMOKE/heap_$i.json" --folded > "$SMOKE/heap_$i.folded"
  "$L" trace expo "$SMOKE/heap_$i.json" > "$SMOKE/heap_$i.expo"
done
cmp "$SMOKE/heap_a.txt" "$SMOKE/heap_b.txt"
cmp "$SMOKE/heap_a.folded" "$SMOKE/heap_b.folded"
cmp "$SMOKE/heap_a.expo" "$SMOKE/heap_b.expo"
grep -q '^largeea_heap_live ' "$SMOKE/heap_a.expo"
if LARGEEA_HEAP_LEAK=$((1<<31)) "$L" align --data "$SMOKE/dbp_ci" --model gcn \
  --k 4 --epochs 4 --dim 16 --mem-audit > /dev/null 2>&1; then
  echo "heap smoke: the deliberate leak did not fail the audit" >&2
  exit 1
fi

stage "kernel-dispatch smoke"
# runtime SIMD dispatch (DESIGN.md §S0.11): a scalar-forced run
# (LARGEEA_NO_SIMD=1) must reproduce the default run's similarity matrix
# byte-for-byte — the SIMD kernels are transcriptions, not approximations
# (and the scan's u8 pre-filter is exact integers on either side).
"$L" align --data "$SMOKE/dbp_ci" --model gcn --k 4 --epochs 4 --dim 16 \
  --sim-out "$SMOKE/simd.sim" --trace-out "$SMOKE/simd.json" > /dev/null
LARGEEA_NO_SIMD=1 "$L" align --data "$SMOKE/dbp_ci" --model gcn --k 4 \
  --epochs 4 --dim 16 --sim-out "$SMOKE/nosimd.sim" > /dev/null
cmp "$SMOKE/simd.sim" "$SMOKE/nosimd.sim"
grep -q '"kernel.isa"' "$SMOKE/simd.json"
grep -q '"sens.refined_pairs"' "$SMOKE/simd.json"

stage "chaos smoke"
# transient-fault tolerance (DESIGN.md §S0.12), one failpoint per injection
# mode at a fixed seed. transient: absorbed by bounded retry — bit-identical
# results, honest retry.* counters in the trace.
LARGEEA_FAILPOINTS=ckpt.sim=transient@1 "$L" align --data "$SMOKE/data" \
  --model gcn --k 2 --epochs 8 --dim 16 \
  --checkpoint-dir "$SMOKE/ckpt_transient" --sim-out "$SMOKE/transient.sim" \
  --trace-out "$SMOKE/transient.json" > /dev/null
cmp "$SMOKE/base.sim" "$SMOKE/transient.sim"
grep -q '"retry.attempts"' "$SMOKE/transient.json"
# err: a fatal injected checkpoint fault is a typed death with its
# documented per-variant exit code (RunError::Ckpt → 4)
set +e
LARGEEA_FAILPOINTS=ckpt.emb=err@1 "$L" align --data "$SMOKE/data" \
  --model gcn --k 2 --epochs 8 --dim 16 \
  --checkpoint-dir "$SMOKE/ckpt_err" > /dev/null 2>&1
code=$?
set -e
if [ "$code" -ne 4 ]; then
  echo "chaos smoke: injected ckpt error exited $code, want 4" >&2
  exit 1
fi
# panic / partial: injected hard deaths, after which a resume must
# reproduce the baseline byte-for-byte (no durable partial artifacts)
for mode in panic partial; do
  if LARGEEA_FAILPOINTS=ckpt.emb=$mode@1 "$L" align --data "$SMOKE/data" \
    --model gcn --k 2 --epochs 8 --dim 16 \
    --checkpoint-dir "$SMOKE/ckpt_$mode" > /dev/null 2>&1; then
    echo "chaos smoke: $mode failpoint did not kill the run" >&2
    exit 1
  fi
  "$L" align --data "$SMOKE/data" --model gcn --k 2 --epochs 8 --dim 16 \
    --checkpoint-dir "$SMOKE/ckpt_$mode" --resume \
    --sim-out "$SMOKE/chaos_$mode.sim" > /dev/null
  cmp "$SMOKE/base.sim" "$SMOKE/chaos_$mode.sim"
done
# --degraded-ok: losing the name channel to a fatal spill fault completes
# structure-only and says so — on stdout and as degraded.* in the trace
LARGEEA_FAILPOINTS=spill.write=err@1 "$L" align --data "$SMOKE/data" \
  --model gcn --k 2 --epochs 8 --dim 16 --spill-dir "$SMOKE/spill_deg" \
  --degraded-ok --trace-out "$SMOKE/degraded.json" > "$SMOKE/degraded.out"
grep -q 'DEGRADED' "$SMOKE/degraded.out"
grep -q 'degraded.name_channel' "$SMOKE/degraded.json"
"$L" failpoints list | grep -q 'spill.write'

stage ""
# the size CHANGES.md quotes: every tracked product source line, tests inside them included
echo "product lines: $(git ls-files 'crates/*/src/*.rs' 'src/*.rs' | xargs cat | wc -l)"
echo "verify: OK in $SECONDS s"

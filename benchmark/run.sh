#!/usr/bin/env bash
# The repo benchmark's one command (see benchmark/README.md).
#
#   benchmark/run.sh                                   every workload: timed runs, then a traced run
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
#   benchmark/run.sh --selfcheck                       two sets of timed runs, compared to the bounds
#
# Builds the `largeea` CLI and the harness from source (offline), then runs
# the harness from the repository root. Build output goes to stderr; the
# harness prints the metrics, and for one workload a JSON object as the last
# line of stdout.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"

if [[ ! -f Cargo.toml || ! -d crates || ! -f src/main.rs ]]; then
  echo "benchmark/run.sh: no largeea source tree at $root — nothing to measure" >&2
  exit 3
fi

# One target directory for both builds when the caller names one (relative
# paths are taken from the repository root); otherwise each workspace's own.
if [[ -n "${CARGO_TARGET_DIR:-}" ]]; then
  [[ "$CARGO_TARGET_DIR" = /* ]] || CARGO_TARGET_DIR="$root/$CARGO_TARGET_DIR"
  export CARGO_TARGET_DIR
  cli_target="$CARGO_TARGET_DIR"
  harness_target="$CARGO_TARGET_DIR"
else
  cli_target="$root/target"
  harness_target="$root/benchmark/target"
fi
cargo build --release --offline --bin largeea >&2
cargo build --release --offline --manifest-path benchmark/Cargo.toml >&2

# A measured child runs untraced and fault-free, at a pinned pool width.
unset LARGEEA_LOG LARGEEA_NO_SIMD LARGEEA_FAILPOINTS LARGEEA_HEAP_LEAK LARGEEA_SLOW_SPAN
cores="$(nproc)"
export LARGEEA_THREADS="${LARGEEA_THREADS:-$(( cores < 4 ? cores : 4 ))}"
export LARGEEA_BIN="$cli_target/release/largeea"
export BENCH_CLK_TCK="$(getconf CLK_TCK)"
exec "$harness_target/release/largeea-benchmark" "$@"

#!/usr/bin/env bash
# Builds the benchmark and the node binary it drives, then runs it.
#
#   benchmark/run.sh                      all four workloads, tracing off
#   benchmark/run.sh --trace 1            ... plus the traced per-layer pass
#   benchmark/run.sh --repeat 2           two sets, compared against the bounds
#   benchmark/run.sh --smoke              2 s per workload, harness check only
#   benchmark/run.sh --workload keys-cold --seed 7 --seconds 15 --trace 0
#                                         one run, ending in the JSON result line
#
# Run from the repository root. Build output goes to $CARGO_TARGET_DIR, or to
# target/ (already ignored) when that is unset.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
target="${CARGO_TARGET_DIR:-target}"
case "$target" in
  /*) ;;
  *) target="$PWD/$target" ;;
esac
export CARGO_TARGET_DIR="$target"

# One build for both binaries: heap-node-serve belongs to a path dependency
# of the benchmark's own workspace, so it is built from the same lockfile
# and profile. Cargo's chatter goes to stderr; stdout stays the benchmark's.
cargo build --release --offline --quiet \
  --manifest-path "$here/Cargo.toml" \
  -p heap-benchmark -p heap-runtime \
  --bin heap-benchmark --bin heap-node-serve >&2

exec "$target/release/heap-benchmark" "$@"

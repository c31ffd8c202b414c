#!/usr/bin/env bash
# Builds the benchmark in release mode and runs it.
#
#   benchmark/run.sh                         all five workloads, each in a fresh child process
#   benchmark/run.sh --workload W            one workload
#   benchmark/run.sh --trace                 the traced (per-layer) suite
#   benchmark/run.sh --repeat-check [k]      k suites on the same code; do they agree within the bounds?
#   common options: --seed S (default 1), --seconds T (default 15), --trace 0|1
#
# Run from anywhere. Artifacts go to $CARGO_TARGET_DIR (default: the root
# workspace's target/, so the workspace crates are compiled once) and to
# benchmark/out/.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"

target="${CARGO_TARGET_DIR:-$root/target}"
case "$target" in
    /*) ;;
    *) target="$PWD/$target" ;;
esac

# Build chatter goes to stderr: stdout carries only the benchmark's result.
CARGO_TARGET_DIR="$target" cargo build --release --offline --quiet \
    --manifest-path "$here/Cargo.toml" >&2

exec "$target/release/iabc-e2e" "$@"

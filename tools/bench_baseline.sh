#!/bin/sh
# Refreshes the committed bench baseline (bench/baseline/BENCH_*.json).
#
# Run this deliberately when a codegen change moves a deterministic count
# (the gate fails with DRIFT, MISSING or NEW until the baseline matches
# again).  Commit the regenerated JSON together with the change that moved
# the counts.
#
#   tools/bench_baseline.sh [build-dir]
#
# Every metric is a count compared exactly, so the files hold no machine
# fingerprint: a baseline recorded anywhere gates everywhere.
set -eu

repo_dir=$(CDPATH= cd -- "$(dirname -- "$0")/.." && pwd)
build_dir=${1:-"$repo_dir/build"}
runner="$build_dir/bench/bench_runner"

if [ ! -x "$runner" ]; then
  echo "building bench_runner..." >&2
  cmake --build "$build_dir" --target bench_runner -j
fi

"$runner" --record --out "$repo_dir/bench/baseline"
echo "baseline refreshed; review and commit bench/baseline/BENCH_*.json" >&2

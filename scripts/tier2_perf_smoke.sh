#!/usr/bin/env bash
# Tier-2 check: host-speed smoke. Builds nesc_bench (benchmark/,
# Release) at a base revision and at the working tree, then runs
# `benchmark/run.py --pairs 10` on the two binaries. That compares
# every end-to-end metric of every workload: simulated metrics must be
# identical, host metrics may not regress past their BENCHMARK.json
# bound, and the failed-operation share may not rise. It exits 1
# otherwise. The paired table is written to <build-dir>/compare.txt.
#
# Usage: scripts/tier2_perf_smoke.sh [base-rev] [build-dir]
#   base-rev defaults to HEAD~1, build-dir to build-perf.
set -euo pipefail

repo="$(cd "$(dirname "$0")/.." && pwd)"
base_rev="${1:-HEAD~1}"
build="$(realpath -m "${2:-$repo/build-perf}")"

# The base sources: only src/ and benchmark/ go into nesc_bench.
base_src="$build/base-src"
rm -rf "$base_src"
mkdir -p "$base_src"
git -C "$repo" archive "$base_rev" src benchmark | tar -x -C "$base_src"

cmake -S "$base_src/benchmark" -B "$build/base" -DCMAKE_BUILD_TYPE=Release
cmake -S "$repo/benchmark" -B "$build/head" -DCMAKE_BUILD_TYPE=Release
for side in base head; do
  cmake --build "$build/$side" --target nesc_bench -j "$(nproc)"
done

echo "--- paired compare: A = $base_rev, B = working tree ---"
python3 "$repo/benchmark/run.py" --pairs 10 \
  --a "$build/base/nesc_bench" --b "$build/head/nesc_bench" |
  tee "$build/compare.txt"

#!/usr/bin/env bash
# Tier-2 check: build the whole tree with ASan+UBSan and run the full
# test suite under the sanitizers, the gated bench binaries included.
# Slower than tier-1 (`ctest` on a plain build), so it is a separate
# opt-in pass.
#
# Usage: scripts/tier2_sanitize.sh [build-dir]
set -euo pipefail

repo="$(cd "$(dirname "$0")/.." && pwd)"
build="${1:-$repo/build-asan}"

cmake -B "$build" -S "$repo" \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DNESC_SANITIZE=ON
cmake --build "$build" -j "$(nproc)"

# halt_on_error: a sanitizer report is a test failure, not a warning.
export ASAN_OPTIONS="halt_on_error=1:detect_leaks=1"
export UBSAN_OPTIONS="halt_on_error=1:print_stacktrace=1"
ctest --test-dir "$build" --output-on-failure -j "$(nproc)"

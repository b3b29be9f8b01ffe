#!/usr/bin/env bash
# Scheduled chaos run: the end-to-end integrity gates and the
# adversarial fuzzer under ASan+UBSan, with a date-derived rot
# placement so each night corrupts different blocks/bytes than the
# last. The integrity gates themselves are placement-invariant (100%
# detection, zero corrupt payloads delivered, scrub repairs to
# bit-identity, <= 5% checksum tax), so a red run means a real hole,
# not a flaky seed — and the seed is printed so any failure replays
# exactly with NESC_CHAOS_SEED=<seed>.
#
# Usage: scripts/tier2_chaos.sh [build-dir]
set -euo pipefail

repo="$(cd "$(dirname "$0")/.." && pwd)"
build="${1:-$repo/build-chaos}"

# Rotate daily by default; pin NESC_CHAOS_SEED to reproduce a run.
export NESC_CHAOS_SEED="${NESC_CHAOS_SEED:-$(date -u +%Y%m%d)}"
echo "chaos seed: $NESC_CHAOS_SEED"

cmake -B "$build" -S "$repo" \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DNESC_SANITIZE=ON
cmake --build "$build" -j "$(nproc)" \
  --target abl_integrity test_integrity test_fault_injection \
           test_adversarial

# halt_on_error: a sanitizer report is a failure, not a warning.
export ASAN_OPTIONS="halt_on_error=1:detect_leaks=1"
export UBSAN_OPTIONS="halt_on_error=1:print_stacktrace=1"
export NESC_FUZZ_EVENTS="${NESC_FUZZ_EVENTS:-2500}"

# Each run's output is kept as <build-dir>/chaos/<binary>.out.
run="$build/chaos"
mkdir -p "$run"
for t in test_integrity test_fault_injection test_adversarial; do
  "$build/tests/$t" | tee "$run/$t.out"
done

# Gated in-binary: any detection/repair/overhead gate failure exits 1.
"$build/bench/abl_integrity" | tee "$run/abl_integrity.out"

echo "chaos run passed (seed $NESC_CHAOS_SEED)"

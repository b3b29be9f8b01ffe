#!/usr/bin/env bash
# Tier-2 check: translation-path performance smoke. Builds Release,
# runs the A-series ablation benches, and diffs the machine-readable
# metrics of abl_walk_coalesce (BENCH_PR3.json — simulated and fully
# deterministic) against the checked-in baseline. Fails on any metric
# regressing by more than 20%, honouring each metric's direction.
#
# Usage: scripts/tier2_perf_smoke.sh [build-dir]
set -euo pipefail

repo="$(cd "$(dirname "$0")/.." && pwd)"
build="$(realpath -m "${1:-$repo/build-perf}")"
baseline="$repo/scripts/perf_baseline_pr3.json"

cmake -B "$build" -S "$repo" -DCMAKE_BUILD_TYPE=Release
cmake --build "$build" -j "$(nproc)" --target \
  abl_btlb abl_walk_overlap abl_walk_coalesce abl_tree_depth \
  abl_queue_depth abl_batch_shard abl_vf_scale abl_latency_breakdown \
  abl_slo_observe

# The benches must run to completion; abl_walk_coalesce also writes
# the metrics file compared below. abl_vf_scale carries its own
# deterministic in-binary gates (DWRR shares, p99, hit rates) and
# exits non-zero when one fails.
run="$build/perf-smoke"
mkdir -p "$run"
# abl_latency_breakdown writes BENCH_A5.json (stage latency stack) and
# abl_slo_observe writes BENCH_A16_SLO.json (telemetry-plane cost and
# isolation); both land in the perf-smoke dir so the BENCH_*.json
# artifact upload carries them alongside the translation-path metrics.
for bench in abl_btlb abl_walk_overlap abl_tree_depth abl_queue_depth \
             abl_walk_coalesce abl_batch_shard abl_vf_scale \
             abl_latency_breakdown abl_slo_observe; do
  echo "--- running $bench ---"
  (cd "$run" && "$build/bench/$bench" > "$bench.out")
done

# PR6 (batched event loop): host-side simulator throughput on
# the 8-VF QD16 workload must not collapse back toward the seed's
# single-heap rate. Wall-clock, so the floors sit ~2x below what a
# loaded reference machine measures to absorb CI jitter. The
# bench_events_per_sec floor additionally sits ~3x above the seed
# tree's measured whole-bench rate (~0.2e6), so reverting the
# event-heap / arena / allocator work trips it even on a fast box.
python3 - "$run/BENCH_PR6.json" <<'EOF'
import json
import sys

FLOORS = {
    "events_per_sec": 1.0e6,       # steady phase; reference 2.6-5.1e6
    "walk_events_per_sec": 1.0e6,  # walk-heavy phase; reference 2.4-5.9e6
    "bench_events_per_sec": 0.6e6, # whole bench; reference ~1.5e6
}

with open(sys.argv[1]) as f:
    metrics = {m["metric"]: m["value"] for m in json.load(f)["metrics"]}

failed = False
for name, floor in FLOORS.items():
    rate = metrics[name]
    print(f"abl_batch_shard: {name} = {rate:,.0f} (floor {floor:,.0f})")
    if rate < floor:
        failed = True
if failed:
    print("perf smoke FAILED: simulator event rate below floor")
    sys.exit(1)
EOF

# PR8 (queue pairs + hierarchical DWRR): the 256-VF scale bench must
# not regress the simulator on the PR6 reference workload (8 VFs,
# QD16) and must sustain a floor at 256 VFs. The reference phase is
# the same workload BENCH_PR6.json measures in the same process run,
# so the two rates are directly comparable; 0.70 absorbs run-to-run
# wall-clock jitter. Deterministic fairness/tail-latency gates live in
# the binary itself.
python3 - "$run/BENCH_PR8.json" "$run/BENCH_PR6.json" <<'EOF'
import json
import sys

FLOORS = {
    "ref_events_per_sec": 1.0e6,    # 8-VF QD16; reference 2.4-3.0e6
    "scale_events_per_sec": 0.4e6,  # 256 VFs; reference 1.5-2.5e6
}
PR6_RETENTION = 0.70  # ref phase vs BENCH_PR6 events_per_sec

with open(sys.argv[1]) as f:
    pr8 = {m["metric"]: m["value"] for m in json.load(f)["metrics"]}
with open(sys.argv[2]) as f:
    pr6 = {m["metric"]: m["value"] for m in json.load(f)["metrics"]}

failed = False
for name, floor in FLOORS.items():
    rate = pr8[name]
    print(f"abl_vf_scale: {name} = {rate:,.0f} (floor {floor:,.0f})")
    if rate < floor:
        failed = True
need = pr6["events_per_sec"] * PR6_RETENTION
got = pr8["ref_events_per_sec"]
print(f"abl_vf_scale: ref vs BENCH_PR6 = {got:,.0f} "
      f"(need >= {need:,.0f})")
if got < need:
    failed = True
if failed:
    print("perf smoke FAILED: vf-scale event rate below floor")
    sys.exit(1)
EOF

# Reduced-scale sanitized pass: the 256-VF fast path must also be
# clean under ASan+UBSan. 40 VFs keeps the arena/bitmap/doorbell
# machinery fully exercised at a sanitizer-friendly runtime.
# abl_btlb sweeps both BTLB organisations, the fully associative
# index at capacities 0 to 256 included (about 30 s sanitized on a
# shared 4-vCPU VM, 2-3 s in a plain build).
asan_build="$build-asan"
cmake -B "$asan_build" -S "$repo" \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DNESC_SANITIZE=ON
cmake --build "$asan_build" -j "$(nproc)" --target abl_vf_scale abl_btlb
asan_run="$asan_build/perf-smoke"
mkdir -p "$asan_run"
export ASAN_OPTIONS="halt_on_error=1:detect_leaks=1"
export UBSAN_OPTIONS="halt_on_error=1:print_stacktrace=1"
echo "--- running abl_vf_scale --vfs 40 (ASan+UBSan) ---"
(cd "$asan_run" &&
   "$asan_build/bench/abl_vf_scale" --vfs 40 > abl_vf_scale.out)
echo "--- running abl_btlb (ASan+UBSan) ---"
(cd "$asan_run" && "$asan_build/bench/abl_btlb" > abl_btlb.out)
unset ASAN_OPTIONS UBSAN_OPTIONS

python3 - "$baseline" "$run/BENCH_PR3.json" <<'EOF'
import json
import sys

TOLERANCE = 0.20      # relative regression allowed
ABS_FLOOR = 0.05      # ignore regressions on near-zero metrics

with open(sys.argv[1]) as f:
    baseline = {m["metric"]: m for m in json.load(f)["metrics"]}
with open(sys.argv[2]) as f:
    fresh = {m["metric"]: m for m in json.load(f)["metrics"]}

failures = []
for name, base in baseline.items():
    if name not in fresh:
        failures.append(f"{name}: missing from fresh run")
        continue
    old, new = base["value"], fresh[name]["value"]
    if base["higher_is_better"]:
        regressed = new < old * (1 - TOLERANCE)
    else:
        regressed = new > old * (1 + TOLERANCE)
    if regressed and abs(new - old) < ABS_FLOOR:
        regressed = False  # noise floor on tiny absolute values
    marker = "FAIL" if regressed else "ok"
    print(f"{marker:>4}  {name}: baseline {old:.4f} -> {new:.4f}")
    if regressed:
        failures.append(f"{name}: {old:.4f} -> {new:.4f}")

if failures:
    print("\nperf smoke FAILED (>20% regression):")
    for failure in failures:
        print("  " + failure)
    sys.exit(1)
print("\nperf smoke OK")
EOF

#!/usr/bin/env python3
"""A/B comparison of two nesc_bench binaries (see benchmark/README.md).

    python3 benchmark/run.py --pairs 10 --a BIN_A --b BIN_B

A is the parent, B the change. Pair i runs every workload on seed i+1
with both binaries, alternating which side runs first. For each
(workload, metric) it prints both sides' median and quartiles and a
verdict:

- simulated metrics are compared exactly: both sides run the same seeds,
  so `identical` unless the model changed, and any worse median is a
  `regression`;
- a host metric is `unresolved` when A's interquartile range exceeds
  its bound, unless every B run beats every A run;
- `regression` when B's median is worse than A's by more than the bound
  (the BENCHMARK.json share of A's median; setup_s also allows 50 ms);
- `gain` when B wins at least 9 of 10 pairs and the medians differ by
  more than A's interquartile range;
- any rise in failed_frac is flagged.

Exits 1 on any regression or failed_frac rise.
"""

import statistics
import sys

# Reported beside the end-to-end metrics; simulated, so compared exactly.
EXTRAS = {"sim_share_err": "lower", "sim_iops_at_p99_100us": "higher",
          "failed_frac": "lower"}
# Absolute slack (in the metric's unit) below which a host change is noise.
ABS_FLOOR = {"setup_s": 0.05}


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    return tuple(statistics.quantiles(values, n=4))


def verdict(a, b, better, bound, exact):
    """Judges B against A for one metric; a and b are paired lists.
    bound is a share of A's median; exact metrics ignore it."""
    sign = 1.0 if better == "higher" else -1.0
    q1a, meda, q3a = quartiles(a)
    _, medb, _ = quartiles(b)
    if exact:
        if a == b:
            return "identical"
        bound = 0.0
    worse_by = sign * (meda - medb) / abs(meda) if meda else 0.0
    all_better = min(sign * x for x in b) > max(sign * x for x in a)
    if not exact and meda and (q3a - q1a) / abs(meda) > bound \
            and not all_better:
        return "unresolved"
    if worse_by > bound:
        return "regression"
    wins = sum(1 for x, y in zip(a, b) if sign * (y - x) > 0)
    if wins >= 0.9 * len(a) and abs(medb - meda) > (q3a - q1a):
        return "gain"
    return "changed" if exact else "same"


def run_pairs(pairs, bin_a, bin_b, seconds, spec, workloads, run_binary):
    runs = {"a": {w: [] for w in workloads}, "b": {w: [] for w in workloads}}
    for i in range(pairs):
        seed = i + 1
        order = [("a", bin_a), ("b", bin_b)]
        if i % 2:
            order.reverse()
        for w in workloads:
            for side, binary in order:
                runs[side][w].append(run_binary(binary, w, seed, seconds))
        print(f"pair {i + 1}/{pairs} done", file=sys.stderr, flush=True)

    metrics = {m["name"]: (m["better"], m["bound"]) for m in spec["end_to_end"]}
    metrics.update({name: (better, 0.0) for name, better in EXTRAS.items()})
    bad = False
    print(f"{'workload':12} {'metric':22} {'A q1/med/q3':>38} "
          f"{'B q1/med/q3':>38}  verdict")
    for w in workloads:
        for ra, rb in zip(runs["a"][w], runs["b"][w]):
            if not (ra["correct"] and rb["correct"]):
                print(f"{w:12} correctness FAILED (A {ra['correct']}, "
                      f"B {rb['correct']})")
                bad = True
        for name, (better, bound) in metrics.items():
            if name not in runs["a"][w][0]["metrics"]:
                continue
            a = [r["metrics"][name]["value"] for r in runs["a"][w]]
            b = [r["metrics"][name]["value"] for r in runs["b"][w]]
            exact = runs["a"][w][0]["metrics"][name]["clock"] == "sim"
            med = abs(quartiles(a)[1])
            if name in ABS_FLOOR and med:
                bound = max(bound, ABS_FLOOR[name] / med)
            v = verdict(a, b, better, bound, exact)
            if name == "failed_frac" and max(b) > max(a):
                v = "FAILED_FRAC_ROSE"
            bad = bad or v in ("regression", "FAILED_FRAC_ROSE")
            fa = "/".join(f"{x:.6g}" for x in quartiles(a))
            fb = "/".join(f"{x:.6g}" for x in quartiles(b))
            print(f"{w:12} {name:22} {fa:>38} {fb:>38}  {v}")
    return 1 if bad else 0

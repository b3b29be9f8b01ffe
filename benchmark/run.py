#!/usr/bin/env python3
"""Build and run the NeSC benchmark; see benchmark/README.md.

One run of one workload (the form BENCHMARK.json names):

    python3 benchmark/run.py --workload vf8_open --seed 1 --seconds 5 --trace 0

prints every metric as `workload metric value unit`, then, as the last
line, one JSON object with `correct`, `attempted`, `failed` and the
end-to-end metrics (`--trace 0`) or the per-layer metrics (`--trace 1`).

Other forms:

    python3 benchmark/run.py                  # all workloads, untraced
    python3 benchmark/run.py --trace          # all workloads, traced
    python3 benchmark/run.py --check          # determinism + held-out seed
    python3 benchmark/run.py --pairs 10 --a BIN_A --b BIN_B   # A/B compare
    python3 benchmark/run.py --baseline 10    # rewrite baseline.json

Each workload runs in its own single-threaded process, one at a time.
"""

import argparse
import json
import os
import platform
import subprocess
import sys

# Reads and writes stay inside the build tree: no __pycache__ next to
# the sources when run.py imports compare.py.
sys.dont_write_bytecode = True

import compare  # noqa: E402  (after the bytecode switch)

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, "build", "benchmark")
BINARY = os.path.join(BUILD, "nesc_bench")
SPEC = os.path.join(ROOT, "BENCHMARK.json")
BASELINE = os.path.join(HERE, "baseline.json")
WORKLOADS = ["vf8_open", "vf256_dwrr", "frag_rw", "repl_rw", "nested_oltp"]
HELD_OUT_SEED = 1000003
# One workload process is stopped (and the run fails) after this long.
RUN_TIMEOUT_S = 170


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def load_spec():
    with open(SPEC) as f:
        return json.load(f)


def build():
    """Configures (once) and builds nesc_bench; exits 2 on failure."""
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--target", "nesc_bench",
                  "-j", str(min(4, os.cpu_count() or 1))])
    for cmd in steps:
        try:
            done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=850)
        except (OSError, subprocess.TimeoutExpired) as e:
            log(f"run.py: build failed: {e}")
            sys.exit(2)
        if done.returncode != 0:
            log(f"run.py: build failed: {' '.join(cmd)}")
            sys.exit(2)


def run_binary(binary, workload, seed, seconds, trace_dir=None):
    """Runs one workload process and returns its parsed result."""
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--min-wall-s", str(seconds)]
    if trace_dir:
        os.makedirs(trace_dir, exist_ok=True)
        cmd += ["--trace", trace_dir]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=RUN_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        log(f"run.py: {workload} seed {seed}: {e}")
        sys.exit(2)
    lines = done.stdout.strip().splitlines()
    if not lines:
        log(f"run.py: {workload} seed {seed}: no result "
            f"(exit {done.returncode})")
        sys.exit(2)
    result = json.loads(lines[-1])
    result["exit_code"] = done.returncode
    return result


def print_result(result):
    """Prints `workload metric value unit` lines and the checks."""
    w = result["workload"]
    for name, m in result["metrics"].items():
        print(f"{w} {name} {m['value']!r} {m['unit']}")
    for c in result["checks"]:
        status = "ok" if c["ok"] else "FAILED"
        print(f"{w} check {c['name']} {status}: {c['detail']}")
    print(f"{w} correct {result['correct']} attempted {result['attempted']}"
          f" failed {result['failed']}")


def contract_line(result, names):
    """The last-line JSON object: the named metrics and the outcome."""
    metrics = {}
    for name in names:
        if name not in result["metrics"]:
            log(f"run.py: metric {name} missing from {result['workload']}")
            sys.exit(2)
        m = result["metrics"][name]
        metrics[name] = {"value": m["value"], "unit": m["unit"]}
    return json.dumps({"correct": bool(result["correct"]),
                       "attempted": int(result["attempted"]),
                       "failed": int(result["failed"]),
                       "metrics": metrics})


def trace_dir_for(workload, seed):
    return os.path.join(BUILD, "trace", f"{workload}-s{seed}")


def cmd_single(args, spec):
    traced = args.trace == "1"
    result = run_binary(BINARY, args.workload, args.seed, args.seconds,
                        trace_dir_for(args.workload, args.seed)
                        if traced else None)
    print_result(result)
    group = spec["per_layer"] if traced else spec["end_to_end"]
    print(contract_line(result, [m["name"] for m in group]), flush=True)
    return 0 if result["correct"] and result["exit_code"] == 0 else 1


def cmd_all(args):
    traced = args.trace == "1"
    failures = []
    for w in WORKLOADS:
        result = run_binary(BINARY, w, args.seed, args.seconds,
                            trace_dir_for(w, args.seed) if traced else None)
        print_result(result)
        if not result["correct"] or result["exit_code"] != 0:
            failures.append(w)
    if failures:
        log(f"run.py: FAILED: {' '.join(failures)}")
        return 1
    if traced:
        log(f"run.py: traces under {os.path.join(BUILD, 'trace')}")
    return 0


def sim_values(result):
    return {k: m["value"] for k, m in result["metrics"].items()
            if m["clock"] == "sim"}


def cmd_check(args):
    """Two runs per workload on the default seed must agree bit for bit
    on every simulated metric and count; a held-out seed must pass every
    correctness check."""
    ok = True
    for w in WORKLOADS:
        first = run_binary(BINARY, w, args.seed, 0)
        second = run_binary(BINARY, w, args.seed, 0)
        a, b = sim_values(first), sim_values(second)
        diff = sorted(k for k in a if a[k] != b.get(k))
        held = run_binary(BINARY, w, HELD_OUT_SEED, 0)
        passed = (first["correct"] and second["correct"] and not diff
                  and held["correct"])
        ok = ok and passed
        print(f"{w} determinism {'ok' if not diff else 'DIFFERS'} "
              f"({len(a)} simulated metrics){': ' + ' '.join(diff) if diff else ''}")
        print(f"{w} held-out seed {HELD_OUT_SEED} "
              f"{'ok' if held['correct'] else 'FAILED'}")
    return 0 if ok else 1


def box():
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    compiler = "unknown"
    try:
        compiler = subprocess.run(["c++", "--version"], capture_output=True,
                                  text=True).stdout.splitlines()[0]
    except (OSError, IndexError):
        pass
    return {"nproc": os.cpu_count(), "cpu": cpu, "compiler": compiler,
            "build": "Release (benchmark/CMakeLists.txt)"}


def cmd_baseline(args, spec):
    """Rewrites baseline.json: N untraced runs (seeds 1..N) and one
    traced run (seed 1) per workload."""
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    out = {"box": box(), "run_seconds": args.seconds, "workloads": {}}
    for w in WORKLOADS:
        runs = [run_binary(BINARY, w, seed, args.seconds)
                for seed in range(1, args.baseline + 1)]
        traced = run_binary(BINARY, w, 1, args.seconds, trace_dir_for(w, 1))
        if not all(r["correct"] for r in runs + [traced]):
            log(f"run.py: {w}: a baseline run failed its checks")
            return 1
        summary = {}
        for name, m in runs[0]["metrics"].items():
            values = [r["metrics"][name]["value"] for r in runs]
            entry = {"unit": m["unit"], "clock": m["clock"]}
            if m["clock"] == "sim":
                entry["by_seed"] = values
            q1, q2, q3 = compare.quartiles(values)
            entry.update({"median": q2, "q1": q1, "q3": q3,
                          "iqr_frac": (q3 - q1) / q2 if q2 else 0.0})
            if name in bounds:
                entry["bound"] = bounds[name]
            summary[name] = entry
        out["workloads"][w] = {
            "untraced": summary,
            "traced": {k: m["value"] for k, m in traced["metrics"].items()},
        }
        log(f"run.py: baseline {w} done")
    with open(BASELINE, "w") as f:
        json.dump(out, f, indent=1, sort_keys=True)
        f.write("\n")
    log(f"run.py: wrote {BASELINE}")
    return 0


def main():
    spec = load_spec()
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawTextHelpFormatter)
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=spec["run_seconds"])
    p.add_argument("--trace", nargs="?", const="1", default="0",
                   choices=["0", "1"])
    p.add_argument("--check", action="store_true")
    p.add_argument("--baseline", type=int, metavar="N")
    p.add_argument("--pairs", type=int, metavar="N")
    p.add_argument("--a", metavar="BIN_A")
    p.add_argument("--b", metavar="BIN_B")
    args = p.parse_args()

    if args.pairs:
        if not (args.a and args.b):
            p.error("--pairs needs --a and --b")
        return compare.run_pairs(args.pairs, args.a, args.b, args.seconds,
                                 spec, WORKLOADS, run_binary)
    build()
    if args.check:
        return cmd_check(args)
    if args.baseline:
        return cmd_baseline(args, spec)
    if args.workload:
        return cmd_single(args, spec)
    return cmd_all(args)


if __name__ == "__main__":
    sys.exit(main())

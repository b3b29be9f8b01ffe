#!/usr/bin/env sh
# Golden-figure regression check.
#
# Usage: golden_figures.sh <golden_dir> <fig_binary>...
#
# Runs each figure binary and diffs its stdout against
# <golden_dir>/<basename>.out. The figures are simulated and
# deterministic, so any drift means a change altered the model's
# observable behavior — a hard failure.
set -u

golden_dir=$1
shift

status=0
for bin in "$@"; do
    name=$(basename "$bin")
    golden="$golden_dir/$name.out"
    if [ ! -f "$golden" ]; then
        echo "golden_figures: missing golden $golden" >&2
        status=1
        continue
    fi
    out=$(mktemp)
    # NESC_BENCH_CSV in the environment would add CSV emission noise.
    if ! env -u NESC_BENCH_CSV "$bin" >"$out" 2>/dev/null; then
        echo "golden_figures: $name exited non-zero" >&2
        status=1
    elif ! diff -u "$golden" "$out"; then
        echo "golden_figures: $name drifted from golden output" >&2
        status=1
    else
        echo "golden_figures: $name OK"
    fi
    rm -f "$out"
done
exit $status

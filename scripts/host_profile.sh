#!/usr/bin/env bash
# Host-cost profile of one nesc_bench workload:
#   (a) a gprof flat profile (the top of `gprof -b -p`), and
#   (b) whole-process heap allocations per op: an LD_PRELOAD malloc
#       counter wraps a 12 s and a 24 s run, and the allocations per op
#       are (mallocs_24 - mallocs_12) / (attempted_24 - attempted_12),
#       so setup and teardown cancel out.
#
# Usage: scripts/host_profile.sh <workload> [seed]
#
# Everything it builds or writes lands under build/prof: the -pg build
# in build/prof/pg, a plain Release build in build/prof/rel, the
# counter library and the run directories next to them.
set -euo pipefail

if [[ $# -lt 1 || $# -gt 2 ]]; then
  echo "usage: $0 <workload> [seed]" >&2
  exit 2
fi
workload="$1"
seed="${2:-1}"

repo="$(cd "$(dirname "$0")/.." && pwd)"
prof="$repo/build/prof"
jobs="$(( $(nproc) < 4 ? $(nproc) : 4 ))"
mkdir -p "$prof"

build() { # <dir> [extra cmake args...]
  local dir="$1"
  shift
  cmake -S "$repo/benchmark" -B "$dir" -DCMAKE_BUILD_TYPE=Release "$@" \
    > "$dir.configure.log"
  cmake --build "$dir" --target nesc_bench -j "$jobs" > "$dir.build.log"
}

# --- (a) gprof flat profile ----------------------------------------------
build "$prof/pg" -DCMAKE_CXX_FLAGS=-pg -DCMAKE_EXE_LINKER_FLAGS=-pg
rm -rf "$prof/run-pg" && mkdir -p "$prof/run-pg"
(cd "$prof/run-pg" &&
  "$prof/pg/nesc_bench" --workload "$workload" --seed "$seed" \
    --min-wall-s 3 > result.json 2> stderr.log)
echo "== gprof flat profile: $workload seed $seed (-pg build, 3 s) =="
gprof -b -p "$prof/pg/nesc_bench" "$prof/run-pg/gmon.out" \
  > "$prof/run-pg/flat.txt"
head -n 30 "$prof/run-pg/flat.txt"

# --- (b) allocations per op ----------------------------------------------
build "$prof/rel"
counter="$prof/malloc_count.so"
cat > "$prof/malloc_count.c" <<'EOF'
/* Counts heap allocations; prints "malloc_count N" to stderr at exit. */
#define _GNU_SOURCE
#include <dlfcn.h>
#include <stddef.h>
#include <stdio.h>
#include <string.h>
#include <unistd.h>

static unsigned long count;
/* dlsym may allocate while the real functions are being looked up. */
static char boot[4096];
static size_t boot_used;
static int resolving;

static void *(*real_malloc)(size_t);
static void *(*real_calloc)(size_t, size_t);
static void *(*real_realloc)(void *, size_t);
static void (*real_free)(void *);
static int (*real_posix_memalign)(void **, size_t, size_t);
static void *(*real_aligned_alloc)(size_t, size_t);

static void
resolve(void)
{
    if (real_malloc || resolving)
        return;
    resolving = 1;
    real_free = dlsym(RTLD_NEXT, "free");
    real_calloc = dlsym(RTLD_NEXT, "calloc");
    real_realloc = dlsym(RTLD_NEXT, "realloc");
    real_posix_memalign = dlsym(RTLD_NEXT, "posix_memalign");
    real_aligned_alloc = dlsym(RTLD_NEXT, "aligned_alloc");
    real_malloc = dlsym(RTLD_NEXT, "malloc");
    resolving = 0;
}

static void *
boot_alloc(size_t size)
{
    size = (size + 15) & ~(size_t)15;
    if (boot_used + size > sizeof(boot))
        return NULL;
    void *p = boot + boot_used;
    boot_used += size;
    return p;
}

static int
from_boot(void *p)
{
    return (char *)p >= boot && (char *)p < boot + sizeof(boot);
}

void *
malloc(size_t size)
{
    resolve();
    if (!real_malloc)
        return boot_alloc(size);
    __atomic_fetch_add(&count, 1, __ATOMIC_RELAXED);
    return real_malloc(size);
}

void *
calloc(size_t n, size_t size)
{
    resolve();
    if (!real_calloc)
        return boot_alloc(n * size); /* static storage is zeroed */
    __atomic_fetch_add(&count, 1, __ATOMIC_RELAXED);
    return real_calloc(n, size);
}

void *
realloc(void *p, size_t size)
{
    resolve();
    if (from_boot(p)) {
        void *q = malloc(size);
        if (q)
            memcpy(q, p, size);
        return q;
    }
    __atomic_fetch_add(&count, 1, __ATOMIC_RELAXED);
    return real_realloc(p, size);
}

void
free(void *p)
{
    if (p == NULL || from_boot(p))
        return;
    resolve();
    real_free(p);
}

int
posix_memalign(void **out, size_t align, size_t size)
{
    resolve();
    __atomic_fetch_add(&count, 1, __ATOMIC_RELAXED);
    return real_posix_memalign(out, align, size);
}

void *
aligned_alloc(size_t align, size_t size)
{
    resolve();
    __atomic_fetch_add(&count, 1, __ATOMIC_RELAXED);
    return real_aligned_alloc(align, size);
}

__attribute__((destructor)) static void
report(void)
{
    char line[64];
    int n = snprintf(line, sizeof(line), "malloc_count %lu\n", count);
    if (n > 0)
        (void)!write(2, line, (size_t)n);
}
EOF
cc -O2 -shared -fPIC -o "$counter" "$prof/malloc_count.c" -ldl

count_run() { # <seconds> -> "mallocs attempted"
  local dir="$prof/run-alloc-$1"
  rm -rf "$dir" && mkdir -p "$dir"
  (cd "$dir" &&
    LD_PRELOAD="$counter" "$prof/rel/nesc_bench" --workload "$workload" \
      --seed "$seed" --min-wall-s "$1" > result.json 2> stderr.log)
  local mallocs attempted
  mallocs="$(awk '/^malloc_count /{print $2}' "$dir/stderr.log" | tail -n 1)"
  attempted="$(tail -n 1 "$dir/result.json" |
    python3 -c 'import json,sys; print(json.load(sys.stdin)["attempted"])')"
  echo "$mallocs $attempted"
}

read -r m12 a12 <<< "$(count_run 12)"
read -r m24 a24 <<< "$(count_run 24)"
echo "== heap allocations: $workload seed $seed (Release build) =="
echo "12 s run: $m12 allocations, $a12 ops attempted"
echo "24 s run: $m24 allocations, $a24 ops attempted"
python3 -c "
m12, a12, m24, a24 = $m12, $a12, $m24, $a24
if a24 <= a12:
    raise SystemExit('host_profile: the 24 s run attempted no more ops')
print(f'allocations per op: {(m24 - m12) / (a24 - a12):.2f}')
"

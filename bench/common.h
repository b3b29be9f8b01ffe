/**
 * @file
 * Shared helpers for the figure/table reproduction binaries.
 *
 * Each bench binary rebuilds one table or figure of the paper: it
 * assembles a Testbed, drives the workloads, and prints the same
 * rows/series the paper reports (plus CSV when NESC_BENCH_CSV=1).
 * Absolute values are simulation estimates; the captions state which
 * qualitative shape the paper's result has and where to look.
 */
#ifndef NESC_BENCH_COMMON_H
#define NESC_BENCH_COMMON_H

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <string>
#include <string_view>
#include <vector>

#include "obs/trace.h"
#include "sim/simulator.h"
#include "util/table.h"
#include "virt/testbed.h"

namespace nesc::bench {

/** Wall-clock anchor for simulator-throughput reporting. */
inline const std::chrono::steady_clock::time_point g_bench_start =
    std::chrono::steady_clock::now();

/**
 * Prints the host-side simulation rate: events executed across every
 * Simulator in this process divided by wall-clock time since start.
 * Wall-clock, so useful for tracking simulator overhead trends but
 * deliberately not machine-parsed by the perf smoke checks.
 */
inline void
print_event_rate()
{
    const double secs =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      g_bench_start)
            .count();
    const std::uint64_t events = sim::Simulator::total_events_executed();
    std::printf("[sim] %llu events, %.2f s wall, %.0f kevents/s\n",
                static_cast<unsigned long long>(events), secs,
                secs > 0 ? static_cast<double>(events) / secs / 1000.0
                         : 0.0);
}

/** Standard bench testbed: 128 MiB prototype-like device. */
inline virt::TestbedConfig
default_config()
{
    virt::TestbedConfig config;
    config.device.capacity_bytes = 128ULL << 20;
    config.host_memory_bytes = 128ULL << 20;
    return config;
}

/** Prints a bench header: figure/table id and what the paper showed. */
inline void
print_header(const std::string &id, const std::string &description,
             const std::string &paper_shape)
{
    std::printf("=====================================================\n");
    std::printf("%s — %s\n", id.c_str(), description.c_str());
    std::printf("Paper result (shape to reproduce): %s\n",
                paper_shape.c_str());
    std::printf("=====================================================\n");
}

/** Prints a table, and its CSV form when NESC_BENCH_CSV=1. */
inline void
print_table(const util::Table &table)
{
    std::cout << table.to_string();
    const char *csv = std::getenv("NESC_BENCH_CSV");
    if (csv != nullptr && std::string(csv) == "1") {
        std::cout << "\n[csv]\n" << table.to_csv();
    }
    std::cout << std::endl;
}

/** Failed gates so far; see gate() and gate_exit(). */
inline int g_gate_failures = 0;

/**
 * Prints one deterministic acceptance gate's verdict and counts a
 * failure. Benches with gates are registered with ctest, so a failed
 * gate fails the test suite through gate_exit()'s exit code.
 */
inline void
gate(bool ok, const std::string &what)
{
    std::printf("[gate] %-4s %s\n", ok ? "ok" : "FAIL", what.c_str());
    if (!ok)
        ++g_gate_failures;
}

/** Prints the gate summary and returns the bench's exit code. */
inline int
gate_exit(const char *bench)
{
    if (g_gate_failures != 0) {
        std::printf("\n%s: %d gate(s) FAILED\n", bench, g_gate_failures);
        return 1;
    }
    std::printf("\n%s: all gates passed\n", bench);
    return 0;
}

/** Returns the value following a "--trace" argument, or nullptr. */
inline const char *
trace_arg(int argc, char **argv)
{
    for (int i = 1; i + 1 < argc; ++i)
        if (std::string_view(argv[i]) == "--trace")
            return argv[i + 1];
    return nullptr;
}

/** Writes @p tracer's Chrome trace JSON to @p path (fatal on error). */
inline void
write_trace(const obs::Tracer &tracer, const char *path)
{
    const util::Status written = tracer.write_chrome_json(path);
    if (!written.is_ok()) {
        std::fprintf(stderr, "FATAL: cannot write trace %s: %s\n", path,
                     written.to_string().c_str());
        std::exit(1);
    }
    std::printf("wrote trace %s (%llu spans recorded, %llu dropped)\n",
                path, static_cast<unsigned long long>(tracer.recorded()),
                static_cast<unsigned long long>(tracer.dropped()));
}

/** Aborts the bench with a message when a Result/Status failed. */
template <typename T>
T
must(util::Result<T> result, const char *what)
{
    if (!result.is_ok()) {
        std::fprintf(stderr, "FATAL %s: %s\n", what,
                     result.status().to_string().c_str());
        std::exit(1);
    }
    return std::move(result).value();
}

inline void
must_ok(const util::Status &status, const char *what)
{
    if (!status.is_ok()) {
        std::fprintf(stderr, "FATAL %s: %s\n", what,
                     status.to_string().c_str());
        std::exit(1);
    }
}

} // namespace nesc::bench

#endif // NESC_BENCH_COMMON_H

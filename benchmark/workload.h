/**
 * @file
 * The interface every benchmark workload implements, and the counter
 * snapshot the per-layer metrics are differenced from.
 *
 * A workload is driven through one fixed protocol (nesc_bench.cc):
 * set-up (nine times, keeping the last), a fixed measured phase
 * whose length is simulated time or operation count, optional probes,
 * an extension phase that only adds host-time samples, and a final
 * read-back. The measured phase starts and ends with the device idle,
 * so counters differenced across it cover exactly its operations.
 */
#ifndef NESC_BENCHMARK_WORKLOAD_H
#define NESC_BENCHMARK_WORKLOAD_H

#include <cstdint>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "harness.h"
#include "obs/metrics.h"
#include "util/status.h"
#include "virt/testbed.h"
#include "workloads/minidb.h"

namespace nesc::benchmark {

/** Command-line options of the driver. */
struct Options {
    std::string workload;
    std::uint64_t seed = 1;
    /** Host seconds the measured phase lasts at least. */
    double min_wall_s = 0.0;
    /** Non-empty: traced run writing its artifacts here. */
    std::string trace_dir;
};

/** State shared by the driver and the workload it runs. */
struct Context {
    Options opt;
    SpanLog spans{1 << 18};
    bool traced() const { return !opt.trace_dir.empty(); }
};

/** Host seconds spent in each set-up step. */
struct SetupTimes {
    double testbed = 0.0;
    double provision = 0.0;
    double attach = 0.0;
    double guest_fs = 0.0;
    double warmup = 0.0;
    double total() const
    {
        return testbed + provision + attach + guest_fs + warmup;
    }
};

/** Counters read from public accessors at the measured-phase edges. */
struct Snapshot {
    sim::Time now = 0;
    std::uint64_t events = 0;
    // nesc
    std::uint64_t commands = 0;
    std::uint64_t btlb_hits = 0;
    std::uint64_t btlb_misses = 0;
    std::uint64_t node_cache_hits = 0;
    std::uint64_t node_cache_misses = 0;
    std::uint64_t walk_node_reads = 0;
    /** VF blocks read, written or zero-filled (every function >= 1). */
    std::uint64_t vf_blocks = 0;
    obs::LogHistogram queue_wait;
    obs::LogHistogram translate;
    obs::LogHistogram transfer;
    std::uint64_t write_misses = 0;
    // drivers
    std::uint64_t irqs = 0;
    std::uint64_t retries = 0;
    std::uint64_t timeouts = 0;
    // pcie
    std::uint64_t dma_transfers = 0;
    std::uint64_t dma_bytes = 0;
    // storage
    std::uint64_t media_read = 0;
    std::uint64_t media_write = 0;
    std::uint64_t integrity_records = 0;
    std::uint64_t integrity_verifies = 0;
    // repl
    std::uint64_t repl_reads = 0;
    std::uint64_t repl_writes = 0;
    std::uint64_t failovers = 0;
    std::uint64_t backend_timeouts = 0;
    std::uint64_t backend_written = 0;
    // obs
    std::uint64_t slo_windows = 0;
    std::uint64_t sampler_samples = 0;
    // workloads / blocklayer (nested_oltp only)
    wl::MiniDbStats db;
    std::uint64_t cache_hits = 0;
    std::uint64_t cache_misses = 0;
    std::uint64_t sched_merges = 0;
};

/** Reads the device-side part of a snapshot from @p bed. */
Snapshot read_device_counters(virt::Testbed &bed);

/** Samples the fixed measured phase gathered for the sim metrics. */
struct Window {
    /** Operations due in [from, until) are recorded. */
    sim::Time from = 0;
    sim::Time until = 0;
    std::vector<std::uint32_t> latencies; ///< simulated ns per op
    /** Ops issued, refused submits included. */
    std::uint64_t attempted = 0;
    /** Non-OK completions plus refused submits. */
    std::uint64_t failed = 0;
    std::uint64_t write_bytes = 0;
    std::size_t backlog_max = 0;

    bool covers(sim::Time due) const { return due >= from && due < until; }
};

/** One workload; see file comment for the protocol. */
class Workload {
  public:
    virtual ~Workload() = default;

    /** Builds, provisions, attaches and warms up; device idle after. */
    virtual SetupTimes setup() = 0;
    /** Destroys everything setup() built. */
    virtual void teardown() = 0;
    virtual virt::Testbed &bed() = 0;

    /** Starts the fixed measured phase. */
    virtual void begin_fixed() = 0;
    /** Runs one slice; false once the phase is over and drained. */
    virtual bool fixed_slice() = 0;
    /** Optional work between the phases, excluded from host metrics. */
    virtual void probes(std::vector<Metric> &) {}
    virtual void begin_extension() = 0;
    virtual void extension_slice() = 0;
    /** Stops the load and drains the device. */
    virtual void end_extension() = 0;

    /** Operations completed so far in any phase (host-rate slices). */
    virtual std::uint64_t completed() const = 0;
    /** Operations issued / failed in the measured phases. */
    virtual std::uint64_t attempted() const = 0;
    virtual std::uint64_t failed() const = 0;
    /** Device counters plus the workload's own layers. */
    virtual Snapshot snapshot() = 0;
    virtual const Window &window() const = 0;
    /** Bench-side metrics of the fixed phase (shares, backlog, ...). */
    virtual void phase_metrics(std::vector<Metric> &out) = 0;
    /** Read-back and invariant checks after the measured phases. */
    virtual void verify(std::vector<Check> &out) = 0;
};

std::unique_ptr<Workload> make_block_workload(const std::string &name,
                                              Context &ctx);
std::unique_ptr<Workload> make_oltp_workload(Context &ctx);

/** Workload names in the order the scripts run them. */
inline const std::vector<std::string> &
workload_names()
{
    static const std::vector<std::string> kNames = {
        "vf8_open", "vf256_dwrr", "frag_rw", "repl_rw", "nested_oltp"};
    return kNames;
}

/** Aborts the run (exit 3, no result) when set-up infrastructure fails. */
[[noreturn]] inline void
fatal(const char *what, const util::Status &status)
{
    std::fprintf(stderr, "nesc_bench: FATAL %s: %s\n", what,
                 status.to_string().c_str());
    std::exit(3);
}

inline void
must_ok(const util::Status &status, const char *what)
{
    if (!status.is_ok())
        fatal(what, status);
}

template <typename T>
T
must(util::Result<T> result, const char *what)
{
    if (!result.is_ok())
        fatal(what, result.status());
    return std::move(result).value();
}

/** Independent generator stream @p stream of the run seed. */
inline std::uint64_t
stream_seed(std::uint64_t seed, std::uint64_t stream)
{
    auto mix = [](std::uint64_t x) {
        x += 0x9e3779b97f4a7c15ULL;
        x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
        x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
        return x ^ (x >> 31);
    };
    return mix(seed ^ mix(stream + 1));
}

/** Runs @p fn inside a span and returns its host seconds. */
template <typename F>
double
timed(SpanLog &spans, SpanName name, F &&fn)
{
    const Clock::time_point start = Clock::now();
    {
        SpanLog::Scope scope(spans, name);
        fn();
    }
    return seconds_between(start, Clock::now());
}

} // namespace nesc::benchmark

#endif // NESC_BENCHMARK_WORKLOAD_H

/**
 * @file
 * Measurement helpers for the NeSC benchmark driver (nesc_bench.cc):
 * the host clock, the bench-side span log, order statistics over
 * simulated latencies, and the result writer.
 *
 * Two clocks appear in every result. Simulated time comes from the
 * modelled device and repeats exactly for a given seed; host time is
 * what the simulator costs on this machine and carries noise. Each
 * metric is tagged with the clock it was read from so the scripts can
 * compare the first exactly and the second within a bound.
 */
#ifndef NESC_BENCHMARK_HARNESS_H
#define NESC_BENCHMARK_HARNESS_H

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "obs/metrics.h"

namespace nesc::benchmark {

using Clock = std::chrono::steady_clock;

inline double
seconds_between(Clock::time_point from, Clock::time_point to)
{
    return std::chrono::duration<double>(to - from).count();
}

/** Bench-side span kinds: one per call the driver makes into a layer. */
enum class SpanName : std::uint8_t {
    kSetup,     ///< one complete set-up (parent of the five below)
    kTestbed,   ///< virt::Testbed::create
    kProvision, ///< hypervisor nestfs files and extents
    kAttach,    ///< VF creation, driver init, PF register programming
    kGuestFs,   ///< guest format_fs + MiniDb::create
    kWarmup,    ///< pre-fill and warm-up traffic
    kRunSlice,  ///< one Simulator::run_until slice (or a txn batch)
    kSubmit,    ///< drv::FunctionDriver::submit
    kTxn,       ///< one MiniDb transaction (parent of the four below)
    kBegin,
    kGet,
    kPut,
    kCommit,
    kCount,
};

inline const char *
span_name(SpanName name)
{
    static constexpr std::array<const char *,
                                static_cast<std::size_t>(SpanName::kCount)>
        kNames = {"setup", "testbed", "provision", "attach", "guest_fs",
                  "warmup", "run_slice", "submit", "txn", "begin", "get",
                  "put", "commit"};
    return kNames[static_cast<std::size_t>(name)];
}

/**
 * Host-time spans recorded around the driver's calls into the system.
 * Spans nest (a submit issued from a completion callback is a child of
 * the run_until slice that delivered the callback), so each close
 * charges its duration to the enclosing span and keeps exact per-name
 * totals of inclusive and self time. The first `capacity` spans are
 * kept for the Chrome trace, so set-up always survives; later ones only
 * feed the totals and count as dropped.
 */
class SpanLog {
  public:
    struct Totals {
        std::uint64_t count = 0;
        std::int64_t incl_ns = 0;
        std::int64_t self_ns = 0;
    };

    explicit SpanLog(std::size_t capacity) : capacity_(capacity) {}

    bool enabled() const { return enabled_; }
    void set_enabled(bool on) { enabled_ = on; }

    /** Scoped span; records nothing while the log is disabled. */
    class Scope {
      public:
        Scope(SpanLog &log, SpanName name, std::uint64_t request = 0)
            : log_(log), open_(log.open(name, request))
        {
        }
        ~Scope()
        {
            if (open_)
                log_.close();
        }
        Scope(const Scope &) = delete;
        Scope &operator=(const Scope &) = delete;

      private:
        SpanLog &log_;
        bool open_;
    };

    const Totals &totals(SpanName name) const
    {
        return totals_[static_cast<std::size_t>(name)];
    }
    std::uint64_t recorded() const { return next_id_; }
    std::uint64_t dropped() const { return dropped_; }

    /** Chrome trace-event JSON of the retained spans (host µs). */
    std::string chrome_json() const
    {
        std::string out = "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[";
        char buf[256];
        for (std::size_t i = 0; i < spans_.size(); ++i) {
            const Span &s = spans_[i];
            std::snprintf(
                buf, sizeof(buf),
                "%s{\"name\":\"%s\",\"cat\":\"bench\",\"ph\":\"X\","
                "\"ts\":%.3f,\"dur\":%.3f,\"pid\":1,\"tid\":1,"
                "\"args\":{\"id\":%llu,\"parent\":%llu,\"req\":%llu}}",
                i == 0 ? "" : ",", span_name(s.name),
                static_cast<double>(s.start_ns) / 1e3,
                static_cast<double>(s.end_ns - s.start_ns) / 1e3,
                static_cast<unsigned long long>(s.id),
                static_cast<unsigned long long>(s.parent),
                static_cast<unsigned long long>(s.request));
            out += buf;
        }
        out += "]}\n";
        return out;
    }

  private:
    struct Span {
        std::uint64_t id;
        std::uint64_t parent;
        std::uint64_t request;
        std::int64_t start_ns;
        std::int64_t end_ns;
        SpanName name;
    };
    struct Frame {
        std::uint64_t id;
        std::uint64_t request;
        std::int64_t start_ns;
        std::int64_t child_ns;
        SpanName name;
    };

    std::int64_t now_ns() const
    {
        return std::chrono::duration_cast<std::chrono::nanoseconds>(
                   Clock::now() - origin_)
            .count();
    }

    bool open(SpanName name, std::uint64_t request)
    {
        if (!enabled_)
            return false;
        stack_.push_back(Frame{++next_id_, request, now_ns(), 0, name});
        return true;
    }

    void close()
    {
        const std::int64_t end = now_ns();
        const Frame f = stack_.back();
        stack_.pop_back();
        const std::int64_t dur = end - f.start_ns;
        Totals &t = totals_[static_cast<std::size_t>(f.name)];
        ++t.count;
        t.incl_ns += dur;
        t.self_ns += dur - f.child_ns;
        const std::uint64_t parent = stack_.empty() ? 0 : stack_.back().id;
        if (!stack_.empty())
            stack_.back().child_ns += dur;
        if (spans_.size() < capacity_)
            spans_.push_back(
                Span{f.id, parent, f.request, f.start_ns, end, f.name});
        else
            ++dropped_;
    }

    const Clock::time_point origin_ = Clock::now();
    std::size_t capacity_;
    bool enabled_ = false;
    std::uint64_t next_id_ = 0;
    std::uint64_t dropped_ = 0;
    std::vector<Frame> stack_;
    std::vector<Span> spans_;
    std::array<Totals, static_cast<std::size_t>(SpanName::kCount)> totals_{};
};

/**
 * Nearest-rank quantile @p q in [0, 1] of @p values (reordered in
 * place); 0 for an empty set.
 */
template <typename T>
double
quantile(std::vector<T> &values, double q)
{
    if (values.empty())
        return 0.0;
    const std::size_t n = values.size();
    std::size_t rank = static_cast<std::size_t>(
        std::ceil(q * static_cast<double>(n)));
    rank = std::clamp<std::size_t>(rank, 1, n);
    std::nth_element(values.begin(), values.begin() + (rank - 1),
                     values.end());
    return static_cast<double>(values[rank - 1]);
}

/** Median of host samples (copied; the caller's order is kept). */
inline double
median(std::vector<double> values)
{
    return quantile(values, 0.5);
}

/**
 * Samples a log-bucketed stage histogram gained between two snapshots:
 * exact count and mean, and a percentile located by bucket as
 * obs::LogHistogram does (geometric midpoint of the resolving
 * power-of-two bucket, so it resolves to a factor of about 1.4).
 */
struct HistogramDelta {
    std::uint64_t count = 0;
    std::uint64_t sum = 0;
    std::array<std::uint64_t, obs::LogHistogram::kBuckets> buckets{};

    HistogramDelta(const obs::LogHistogram &before,
                   const obs::LogHistogram &after)
        : count(after.count() - before.count()),
          sum(after.sum() - before.sum())
    {
        for (std::size_t b = 0; b < buckets.size(); ++b)
            buckets[b] = after.buckets()[b] - before.buckets()[b];
    }

    double mean() const
    {
        return count ? static_cast<double>(sum) / static_cast<double>(count)
                     : 0.0;
    }

    double percentile(double p) const
    {
        if (count == 0)
            return 0.0;
        const double rank = p / 100.0 * static_cast<double>(count);
        std::uint64_t seen = 0;
        for (std::size_t b = 0; b < buckets.size(); ++b) {
            seen += buckets[b];
            if (static_cast<double>(seen) >= rank && buckets[b] != 0) {
                if (b == 0)
                    return 0.0;
                return std::ldexp(std::sqrt(2.0), static_cast<int>(b) - 1);
            }
        }
        return 0.0;
    }
};

/** Which clock a metric was read from. */
enum class MetricClock : std::uint8_t {
    kSim,   ///< deterministic for a seed: compared exactly
    kHost,  ///< wall time or memory: compared within a bound
    kTrace, ///< only produced by a traced run (host or simulated)
};

/** One reported metric. */
struct Metric {
    std::string name;
    double value;
    std::string unit;
    MetricClock clock;
};

/** One correctness check and its outcome. */
struct Check {
    std::string name;
    bool ok;
    std::string detail;
};

/** Appends @p s to @p out as a JSON string literal. */
inline void
append_json_string(std::string &out, const std::string &s)
{
    out += '"';
    for (char c : s) {
        if (c == '"' || c == '\\') {
            out += '\\';
            out += c;
        } else if (static_cast<unsigned char>(c) < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof(buf), "\\u%04x", c);
            out += buf;
        } else {
            out += c;
        }
    }
    out += '"';
}

/** Full result of one driver run as a single-line JSON object. */
inline std::string
result_json(const std::string &workload, std::uint64_t seed, bool traced,
            std::uint64_t attempted, std::uint64_t failed,
            const std::vector<Check> &checks,
            const std::vector<Metric> &metrics)
{
    bool correct = true;
    for (const Check &c : checks)
        correct = correct && c.ok;
    std::string out = "{\"workload\":";
    append_json_string(out, workload);
    char buf[128];
    std::snprintf(buf, sizeof(buf),
                  ",\"seed\":%llu,\"traced\":%s,\"correct\":%s,"
                  "\"attempted\":%llu,\"failed\":%llu,\"checks\":[",
                  static_cast<unsigned long long>(seed),
                  traced ? "true" : "false", correct ? "true" : "false",
                  static_cast<unsigned long long>(attempted),
                  static_cast<unsigned long long>(failed));
    out += buf;
    for (std::size_t i = 0; i < checks.size(); ++i) {
        out += i == 0 ? "{\"name\":" : ",{\"name\":";
        append_json_string(out, checks[i].name);
        out += checks[i].ok ? ",\"ok\":true,\"detail\":"
                            : ",\"ok\":false,\"detail\":";
        append_json_string(out, checks[i].detail);
        out += '}';
    }
    out += "],\"metrics\":{";
    static constexpr const char *kClocks[] = {"sim", "host", "trace"};
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        const Metric &m = metrics[i];
        if (i != 0)
            out += ',';
        append_json_string(out, m.name);
        std::snprintf(buf, sizeof(buf), ":{\"value\":%.17g,\"unit\":",
                      std::isfinite(m.value) ? m.value : 0.0);
        out += buf;
        append_json_string(out, m.unit);
        out += ",\"clock\":\"";
        out += kClocks[static_cast<std::size_t>(m.clock)];
        out += "\"}";
    }
    out += "}}";
    return out;
}

} // namespace nesc::benchmark

#endif // NESC_BENCHMARK_HARNESS_H

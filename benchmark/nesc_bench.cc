/**
 * @file
 * nesc_bench: the repository benchmark's driver binary.
 *
 *   nesc_bench --workload NAME --seed S [--min-wall-s T] [--trace DIR]
 *
 * Runs one workload in this single-threaded process and prints one
 * JSON line with every metric, each tagged with its clock, plus the
 * correctness checks. benchmark/run.py builds, runs and reads it.
 *
 * Protocol, identical for every workload:
 *  1. Set up kSetups times from scratch (testbed, provisioning, attach,
 *     guest filesystem, warm-up); keep the last. setup_s is the median.
 *  2. Fixed measured phase, fixed in simulated time or operation count
 *     and sliced into 100 run_until slices. It starts and ends with
 *     the device idle. Every simulated metric and per-layer count comes
 *     from here, so they repeat exactly for a seed. With --trace the
 *     controller tracer and the bench spans are on throughout.
 *  3. Probes (vf8_open only), excluded from host metrics.
 *  4. Extension: more slices of the same load until the measured phases
 *     have lasted --min-wall-s. They only add host-rate samples. A
 *     traced run alternates tracing off and on across them to measure
 *     the cost of tracing itself.
 *  5. Read-back and invariant checks.
 *
 * host_ops_per_s is the 90th percentile of the per-slice rates of the
 * untraced slices. Every slice runs the same steady load, so a change
 * in the simulator's cost per op moves every slice, while other work on
 * a shared machine only slows some of them. On a shared 4-vCPU VM the
 * plain ops-per-wall-second rate spread about twice as wide across
 * runs. sim.host_ns_per_event keeps the plain mean over every untraced
 * slice.
 */
#include <sys/resource.h>

#include <filesystem>
#include <fstream>

#include "obs/trace.h"
#include "workload.h"

namespace nesc::benchmark {

Snapshot
read_device_counters(virt::Testbed &bed)
{
    Snapshot s;
    ctrl::Controller &c = bed.controller();
    const obs::MetricsRegistry &m = c.counters();
    s.now = bed.sim().now();
    s.events = bed.sim().events_executed();
    s.commands = m.get("commands_fetched");
    s.btlb_hits = m.get("btlb_hits");
    s.btlb_misses = m.get("btlb_misses");
    s.node_cache_hits = m.get("node_cache_hits");
    s.node_cache_misses = m.get("node_cache_misses");
    s.walk_node_reads = m.get("walk_node_reads");
    for (pcie::FunctionId fn = 1; fn < c.num_functions(); ++fn) {
        if (!c.is_active(fn))
            continue;
        const ctrl::FunctionStats &st = c.stats(fn);
        s.vf_blocks += st.blocks_read + st.blocks_written +
                       st.holes_zero_filled;
    }
    s.queue_wait = c.stage_queue_wait();
    s.translate = c.stage_translation();
    s.transfer = c.stage_transfer();
    s.write_misses = bed.pf().write_misses_serviced();
    s.irqs = bed.irq().delivered();
    s.dma_transfers = c.dma().total_transfers();
    s.dma_bytes = c.dma().total_bytes();
    s.media_read = bed.device().bytes_read();
    s.media_write = bed.device().bytes_written();
    if (repl::ReplicaSet *set = bed.replicas()) {
        for (std::size_t b = 0; b < set->backend_count(); ++b) {
            s.media_read += bed.replica_media(b).bytes_read();
            s.backend_written += bed.replica_media(b).bytes_written();
            s.backend_timeouts += set->backend_timeouts(b);
        }
        s.media_write += s.backend_written;
        s.repl_reads = set->reads_served();
        s.repl_writes = set->writes_acked();
        s.failovers = set->failovers();
    }
    if (storage::IntegrityMap *map = bed.integrity_map()) {
        s.integrity_records = map->records();
        s.integrity_verifies = map->verifies();
    }
    s.slo_windows = c.slo_watch().windows_rotated();
    s.sampler_samples = c.sampler().taken();
    return s;
}

namespace {

/** One host-rate sample of the measured phases. */
struct Slice {
    double wall_s = 0.0;
    std::uint64_t ops = 0;
    std::uint64_t events = 0;
    bool traced = false;
    double rate() const
    {
        return wall_s > 0 ? static_cast<double>(ops) / wall_s : 0.0;
    }
};

/** Complete set-ups per run; setup_s is their median. */
constexpr int kSetups = 9;

/** Controller stages whose trace totals are reported. */
constexpr obs::Stage kTracedStages[] = {
    obs::Stage::kCmdFetch, obs::Stage::kQueueWait, obs::Stage::kTranslate,
    obs::Stage::kWalk,     obs::Stage::kTransfer,  obs::Stage::kDmaRead,
    obs::Stage::kDmaWrite, obs::Stage::kLink,      obs::Stage::kReplRead,
    obs::Stage::kReplWrite,
};
/** Minimum off/on slice pairs a traced run's extension holds. */
constexpr std::size_t kTracePairs = 25;

double
ratio(double num, double den)
{
    return den != 0.0 ? num / den : 0.0;
}

/** host_ops_per_s of a set of slices; see file comment. */
double
host_rate(const std::vector<Slice> &slices, bool traced)
{
    std::vector<double> rates;
    for (const Slice &s : slices)
        if (s.traced == traced)
            rates.push_back(s.rate());
    return quantile(rates, 0.9);
}

double
peak_rss_mib()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0; // KiB -> MiB
}

void
set_tracing(Context &ctx, Workload &w, bool on)
{
    ctx.spans.set_enabled(on);
    if (on)
        w.bed().controller().enable_tracing();
    else
        w.bed().controller().disable_tracing();
}

/** Per-layer metrics differenced across the fixed phase. */
void
layer_metrics(const Snapshot &a, const Snapshot &b, const Window &window,
              virt::Testbed &bed, std::vector<Metric> &out)
{
    const double ops = static_cast<double>(window.latencies.size());
    const double blocks = static_cast<double>(b.vf_blocks - a.vf_blocks);
    const double sim_s = static_cast<double>(b.now - a.now) / 1e9;
    auto add = [&](const char *name, double value, const char *unit) {
        out.push_back({name, value, unit, MetricClock::kSim});
    };
    auto per_op = [&](std::uint64_t before, std::uint64_t after) {
        return ratio(static_cast<double>(after - before), ops);
    };
    auto hit_rate = [](std::uint64_t h0, std::uint64_t h1, std::uint64_t m0,
                       std::uint64_t m1) {
        return ratio(static_cast<double>(h1 - h0),
                     static_cast<double>((h1 - h0) + (m1 - m0)));
    };

    const HistogramDelta queue(a.queue_wait, b.queue_wait);
    const HistogramDelta translate(a.translate, b.translate);
    const HistogramDelta transfer(a.transfer, b.transfer);
    double mean_op_ns = 0.0;
    for (std::uint32_t l : window.latencies)
        mean_op_ns += l;
    mean_op_ns = ratio(mean_op_ns, ops);

    add("sim.events_per_op", per_op(a.events, b.events), "count/op");
    add("sim.lanes", static_cast<double>(bed.sim().lane_count()), "count");
    add("drivers.irqs_per_op", per_op(a.irqs, b.irqs), "count/op");
    add("drivers.self_us",
        (mean_op_ns - queue.mean() - translate.mean() - transfer.mean()) /
            1e3,
        "us");
    add("drivers.retries", static_cast<double>(b.retries - a.retries),
        "count");
    add("drivers.timeouts", static_cast<double>(b.timeouts - a.timeouts),
        "count");
    add("nesc.commands_per_op", per_op(a.commands, b.commands), "count/op");
    add("nesc.queue_wait_mean_us", queue.mean() / 1e3, "us");
    add("nesc.queue_wait_p99_us", queue.percentile(99) / 1e3, "us");
    add("nesc.translate_mean_us", translate.mean() / 1e3, "us");
    add("nesc.translate_p99_us", translate.percentile(99) / 1e3, "us");
    add("nesc.btlb_hit_rate",
        hit_rate(a.btlb_hits, b.btlb_hits, a.btlb_misses, b.btlb_misses),
        "ratio");
    add("nesc.walk_node_reads_per_block",
        ratio(static_cast<double>(b.walk_node_reads - a.walk_node_reads),
              blocks),
        "count/block");
    add("nesc.node_cache_hit_rate",
        hit_rate(a.node_cache_hits, b.node_cache_hits, a.node_cache_misses,
                 b.node_cache_misses),
        "ratio");
    add("nesc.transfer_mean_us", transfer.mean() / 1e3, "us");
    add("nesc.transfer_p99_us", transfer.percentile(99) / 1e3, "us");
    add("nesc.write_miss_faults",
        static_cast<double>(b.write_misses - a.write_misses), "count");
    add("pcie.dma_transfers_per_op", per_op(a.dma_transfers, b.dma_transfers),
        "count/op");
    add("pcie.dma_bytes_per_op", per_op(a.dma_bytes, b.dma_bytes), "B/op");
    // Occupancy of the serialized link: bytes over its rate, per second.
    const auto &link = bed.controller().dma().link();
    add("pcie.link_busy_frac",
        ratio(static_cast<double>(b.dma_bytes - a.dma_bytes) /
                  static_cast<double>(link.bytes_per_sec()),
              sim_s),
        "ratio");
    add("storage.media_read_bytes_per_op", per_op(a.media_read, b.media_read),
        "B/op");
    add("storage.media_write_bytes_per_op",
        per_op(a.media_write, b.media_write), "B/op");
    add("storage.integrity_records_per_op",
        per_op(a.integrity_records, b.integrity_records), "count/op");
    add("storage.integrity_verifies_per_op",
        per_op(a.integrity_verifies, b.integrity_verifies), "count/op");
    add("repl.reads_per_op", per_op(a.repl_reads, b.repl_reads), "count/op");
    add("repl.writes_per_op", per_op(a.repl_writes, b.repl_writes),
        "count/op");
    add("repl.backend_bytes_written_per_user_byte",
        ratio(static_cast<double>(b.backend_written - a.backend_written),
              static_cast<double>(window.write_bytes)),
        "B/B");
    add("repl.failovers", static_cast<double>(b.failovers - a.failovers),
        "count");
    add("repl.backend_timeouts",
        static_cast<double>(b.backend_timeouts - a.backend_timeouts),
        "count");
    add("obs.slo_windows", static_cast<double>(b.slo_windows - a.slo_windows),
        "count");
    add("obs.sampler_samples",
        static_cast<double>(b.sampler_samples - a.sampler_samples), "count");
    add("workloads.pool_hit_rate",
        hit_rate(a.db.pool_hits, b.db.pool_hits, a.db.pool_misses,
                 b.db.pool_misses),
        "ratio");
    add("workloads.wal_bytes_per_txn", per_op(a.db.wal_bytes, b.db.wal_bytes),
        "B/op");
    add("workloads.page_flushes_per_txn",
        per_op(a.db.page_flushes, b.db.page_flushes), "count/op");
    add("blocklayer.cache_hit_rate",
        hit_rate(a.cache_hits, b.cache_hits, a.cache_misses, b.cache_misses),
        "ratio");
    add("blocklayer.sched_merges_per_op",
        per_op(a.sched_merges, b.sched_merges), "count/op");
}

/** End-to-end simulated metrics of the fixed phase. */
void
sim_metrics(const Snapshot &a, const Snapshot &b, Window window,
            std::vector<Metric> &out)
{
    const double ops = static_cast<double>(window.latencies.size());
    const double sim_s = static_cast<double>(b.now - a.now) / 1e9;
    out.push_back({"sim_iops", ratio(ops, sim_s), "1/s", MetricClock::kSim});
    out.push_back({"sim_p50_us", quantile(window.latencies, 0.5) / 1e3, "us",
                   MetricClock::kSim});
    out.push_back({"sim_p999_us", quantile(window.latencies, 0.999) / 1e3,
                   "us", MetricClock::kSim});
    out.push_back({"sim_samples", ops, "count", MetricClock::kSim});
    out.push_back({"failed_frac",
                   ratio(static_cast<double>(window.failed),
                         static_cast<double>(window.attempted)),
                   "ratio", MetricClock::kSim});
}

/** Trace-only metrics: stage totals and bench-side span costs. */
void
trace_metrics(Context &ctx, Workload &w, std::uint64_t blocks,
              std::vector<Metric> &out, std::vector<Check> &checks)
{
    const obs::Tracer &tracer = w.bed().controller().tracer();
    for (obs::Stage stage : kTracedStages) {
        const obs::StageTotals &t = tracer.totals(stage);
        const std::string prefix = std::string("trace.") +
                                   obs::stage_name(stage);
        out.push_back({prefix + ".count", static_cast<double>(t.count),
                       "count", MetricClock::kTrace});
        out.push_back({prefix + ".mean_ns",
                       ratio(static_cast<double>(t.total_ns),
                             static_cast<double>(t.count)),
                       "ns", MetricClock::kTrace});
    }
    // The controller cuts the three stage spans from the timestamps of
    // every completed VF block, so each count must equal that total.
    const std::uint64_t qw = tracer.totals(obs::Stage::kQueueWait).count;
    const std::uint64_t tr = tracer.totals(obs::Stage::kTranslate).count;
    const std::uint64_t tf = tracer.totals(obs::Stage::kTransfer).count;
    checks.push_back({"trace_stage_counts_equal_blocks",
                      qw == blocks && tr == blocks && tf == blocks,
                      "queue_wait " + std::to_string(qw) + ", translate " +
                          std::to_string(tr) + ", transfer " +
                          std::to_string(tf) + ", blocks " +
                          std::to_string(blocks)});

    auto host_mean = [&](SpanName name, bool self, double scale) {
        const SpanLog::Totals &t = ctx.spans.totals(name);
        return ratio(static_cast<double>(self ? t.self_ns : t.incl_ns),
                     static_cast<double>(t.count)) /
               scale;
    };
    auto add = [&](const char *name, double value, const char *unit) {
        out.push_back({name, value, unit, MetricClock::kTrace});
    };
    add("obs.trace_spans",
        static_cast<double>(ctx.spans.recorded() + tracer.recorded()),
        "count");
    add("obs.trace_dropped",
        static_cast<double>(ctx.spans.dropped() + tracer.dropped()), "count");
    add("drivers.submit_host_ns", host_mean(SpanName::kSubmit, true, 1.0),
        "ns");
    add("workloads.get_host_us", host_mean(SpanName::kGet, false, 1e3), "us");
    add("workloads.put_host_us", host_mean(SpanName::kPut, false, 1e3), "us");
    add("workloads.commit_host_us", host_mean(SpanName::kCommit, false, 1e3),
        "us");
}

struct RunResult {
    std::vector<Metric> metrics;
    std::vector<Check> checks;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
};

void
write_file(const std::filesystem::path &path, const std::string &text)
{
    std::ofstream f(path);
    f << text;
    if (!f)
        fatal("write trace artifact", util::internal_error(path.string()));
}

RunResult
run(Context &ctx, Workload &w)
{
    RunResult r;
    const bool traced = ctx.traced();

    std::vector<SetupTimes> setups;
    for (int k = 0; k < kSetups; ++k) {
        if (k != 0)
            w.teardown();
        setups.push_back(w.setup());
    }

    // Fixed measured phase.
    const Snapshot before = w.snapshot();
    if (traced)
        set_tracing(ctx, w, true);
    std::vector<Slice> slices;
    const Clock::time_point measure_start = Clock::now();
    auto run_slice = [&](auto &&body, bool traced_slice) {
        Slice s;
        s.traced = traced_slice;
        const std::uint64_t ops0 = w.completed();
        const std::uint64_t events0 = w.bed().sim().events_executed();
        const Clock::time_point t0 = Clock::now();
        bool more;
        {
            SpanLog::Scope span(ctx.spans, SpanName::kRunSlice,
                                slices.size());
            more = body();
        }
        s.wall_s = seconds_between(t0, Clock::now());
        s.ops = w.completed() - ops0;
        s.events = w.bed().sim().events_executed() - events0;
        slices.push_back(s);
        return more;
    };
    w.begin_fixed();
    while (run_slice([&] { return w.fixed_slice(); }, traced)) {
    }
    const Snapshot after = w.snapshot();
    double measured_s = seconds_between(measure_start, Clock::now());
    // Memory of set-up plus the fixed phase; the extension's length
    // depends on host speed, so later growth would only add noise.
    const double peak_rss = peak_rss_mib();

    sim_metrics(before, after, w.window(), r.metrics);
    w.phase_metrics(r.metrics);
    layer_metrics(before, after, w.window(), w.bed(), r.metrics);
    if (traced) {
        trace_metrics(ctx, w, after.vf_blocks - before.vf_blocks, r.metrics,
                      r.checks);
        const std::filesystem::path dir(ctx.opt.trace_dir);
        std::filesystem::create_directories(dir);
        must_ok(w.bed().controller().tracer().write_chrome_json(
                    (dir / (ctx.opt.workload + ".device.json")).string()),
                "device trace");
        set_tracing(ctx, w, false);
    }

    w.probes(r.metrics);

    // Extension: host-rate samples only.
    w.begin_extension();
    std::size_t extension = 0;
    while (measured_s < ctx.opt.min_wall_s ||
           (traced && extension < 2 * kTracePairs)) {
        const bool on = traced && extension % 2 == 1;
        if (traced)
            set_tracing(ctx, w, on);
        const Clock::time_point t0 = Clock::now();
        run_slice([&] {
            w.extension_slice();
            return true;
        }, on);
        measured_s += seconds_between(t0, Clock::now());
        ++extension;
    }
    if (traced)
        set_tracing(ctx, w, false);
    w.end_extension();
    r.attempted = w.attempted();
    r.failed = w.failed();

    // Host metrics come only from untraced slices.
    double wall = 0.0;
    std::uint64_t events = 0;
    for (const Slice &s : slices) {
        if (!s.traced) {
            wall += s.wall_s;
            events += s.events;
        }
    }
    auto host = [&](const std::string &name, double value, const char *unit) {
        r.metrics.push_back({name, value, unit, MetricClock::kHost});
    };
    const double rate = host_rate(slices, false);
    host("host_ops_per_s", rate, "1/s");
    host("sim.host_ns_per_event", ratio(wall * 1e9, static_cast<double>(events)),
         "ns");
    auto setup_median = [&](auto field) {
        std::vector<double> v;
        for (const SetupTimes &t : setups)
            v.push_back(field(t));
        return median(v);
    };
    host("setup_s", setup_median([](auto &t) { return t.total(); }), "s");
    host("setup.testbed_s", setup_median([](auto &t) { return t.testbed; }),
         "s");
    host("setup.provision_s",
         setup_median([](auto &t) { return t.provision; }), "s");
    host("setup.attach_s", setup_median([](auto &t) { return t.attach; }),
         "s");
    host("setup.guest_fs_s", setup_median([](auto &t) { return t.guest_fs; }),
         "s");
    host("setup.warmup_s", setup_median([](auto &t) { return t.warmup; }),
         "s");
    if (traced)
        r.metrics.push_back({"obs.trace_overhead_frac",
                             1.0 - ratio(host_rate(slices, true), rate),
                             "ratio", MetricClock::kTrace});

    host("peak_rss_mb", peak_rss, "MiB");
    w.verify(r.checks);
    return r;
}

int
usage()
{
    std::fprintf(stderr,
                 "usage: nesc_bench --workload NAME --seed S "
                 "[--min-wall-s T] [--trace DIR]\n"
                 "workloads:");
    for (const std::string &n : workload_names())
        std::fprintf(stderr, " %s", n.c_str());
    std::fprintf(stderr, "\n");
    return 2;
}

} // namespace
} // namespace nesc::benchmark

int
main(int argc, char **argv)
{
    using namespace nesc::benchmark;
    Context ctx;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (i + 1 >= argc)
            return usage();
        const char *value = argv[++i];
        if (arg == "--workload")
            ctx.opt.workload = value;
        else if (arg == "--seed")
            ctx.opt.seed = std::strtoull(value, nullptr, 10);
        else if (arg == "--min-wall-s")
            ctx.opt.min_wall_s = std::strtod(value, nullptr);
        else if (arg == "--trace")
            ctx.opt.trace_dir = value;
        else
            return usage();
    }
    std::unique_ptr<Workload> workload =
        ctx.opt.workload == "nested_oltp"
            ? make_oltp_workload(ctx)
            : make_block_workload(ctx.opt.workload, ctx);
    if (!workload)
        return usage();

    ctx.spans.set_enabled(ctx.traced());
    RunResult r = run(ctx, *workload);
    const std::string json =
        result_json(ctx.opt.workload, ctx.opt.seed, ctx.traced(),
                    r.attempted, r.failed, r.checks, r.metrics);
    if (ctx.traced()) {
        const std::filesystem::path dir(ctx.opt.trace_dir);
        write_file(dir / (ctx.opt.workload + ".host.json"),
                   ctx.spans.chrome_json());
        write_file(dir / (ctx.opt.workload + ".layers.json"), json + "\n");
    }
    std::printf("%s\n", json.c_str());
    for (const Check &c : r.checks)
        if (!c.ok)
            return 1;
    return 0;
}

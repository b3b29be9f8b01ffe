/**
 * @file
 * Ablation A9: where does a block's device-internal latency go?
 *
 * Decomposes the controller's per-block latency into its pipeline
 * stages — arbitration wait, translation (BTLB hit or tree walk), and
 * data transfer (pLBA queueing + media + DMA) — for three scenarios:
 * an uncontended sequential reader (translation nearly free, transfer
 * dominates), an uncached fragmented reader (translation blows up to
 * multiple node DMAs), and four contending VFs (arbitration wait
 * appears). This is the classic architecture-paper latency-stack
 * figure for the design.
 *
 * Every scenario runs with lifecycle tracing enabled, and each row is
 * cross-checked against the tracer: the per-stage span totals must
 * reproduce the stage-histogram accounting within 1% (they are cut
 * from the same timestamps, so they in fact agree exactly; the bench
 * exits non-zero if they ever diverge). With --trace <path>, the
 * 4-VF-contention scenario's Chrome trace JSON is written to <path>.
 */
#include <cmath>

#include "bench/common.h"
#include "util/rng.h"
#include "workloads/dd.h"

using namespace nesc;

namespace {

/**
 * True when the trace-derived totals for @p stage agree with the
 * stage histogram @p hist on count and mean (1% tolerance).
 */
bool
stage_agrees(const obs::Tracer &tracer, obs::Stage stage,
             const obs::LogHistogram &hist, const char *scenario)
{
    const obs::StageTotals totals = tracer.totals(stage);
    const double trace_mean =
        totals.count > 0
            ? static_cast<double>(totals.total_ns) /
                  static_cast<double>(totals.count)
            : 0.0;
    const bool count_ok = totals.count == hist.count();
    const bool mean_ok =
        hist.mean() == 0.0
            ? trace_mean == 0.0
            : std::fabs(trace_mean - hist.mean()) <= 0.01 * hist.mean();
    if (!count_ok || !mean_ok) {
        std::fprintf(stderr,
                     "FATAL %s: trace/%s disagrees with histogram: "
                     "count %llu vs %llu, mean %.1f vs %.1f ns\n",
                     scenario, obs::stage_name(stage),
                     static_cast<unsigned long long>(totals.count),
                     static_cast<unsigned long long>(hist.count()),
                     trace_mean, hist.mean());
        return false;
    }
    return true;
}

bool
report_row(util::Table &table, const char *scenario, virt::Testbed &bed)
{
    const auto &queue = bed.controller().stage_queue_wait();
    const auto &translate = bed.controller().stage_translation();
    const auto &transfer = bed.controller().stage_transfer();
    const double total =
        queue.mean() + translate.mean() + transfer.mean();
    table.row()
        .add(scenario)
        .add(queue.mean() / 1000.0, 2)
        .add(translate.mean() / 1000.0, 2)
        .add(transfer.mean() / 1000.0, 2)
        .add(total / 1000.0, 2)
        .add(queue.count());
    const obs::Tracer &tracer = bed.controller().tracer();
    return stage_agrees(tracer, obs::Stage::kQueueWait, queue, scenario) &&
           stage_agrees(tracer, obs::Stage::kTranslate, translate,
                        scenario) &&
           stage_agrees(tracer, obs::Stage::kTransfer, transfer, scenario);
}

} // namespace

int
main(int argc, char **argv)
{
    const char *trace_path = bench::trace_arg(argc, argv);
    bool agreed = true;
    bench::print_header(
        "Ablation A9", "per-block latency breakdown by pipeline stage",
        "instrumentation study: transfer dominates the common case; "
        "translation only matters without BTLB locality; arbitration "
        "wait appears under multi-VF contention");

    util::Table table({"scenario", "arb_wait_us", "translate_us",
                       "transfer_us", "total_us", "blocks"});

    { // 1. Uncontended sequential reads, contiguous file.
        auto bed = bench::must(virt::Testbed::create(
                                   bench::default_config()),
                               "testbed");
        bed->controller().enable_tracing();
        auto vm = bench::must(bed->create_nesc_guest("/seq.img", 16384,
                                                     true),
                              "guest");
        wl::DdConfig dd;
        dd.request_bytes = 4096;
        dd.total_bytes = 8ULL << 20;
        bench::must(wl::run_dd_raw(bed->sim(), vm->raw_disk(), dd),
                    "dd");
        agreed &= report_row(table, "sequential/contiguous", *bed);
    }

    { // 2. Random reads on a fragmented file, BTLB disabled.
        virt::TestbedConfig config = bench::default_config();
        config.controller.btlb_entries = 0;
        config.pf.tree.fanout = 8;
        auto bed = bench::must(virt::Testbed::create(config), "testbed");
        bed->controller().enable_tracing();
        auto &fs = bed->hv_fs();
        const std::uint64_t blocks = 2048;
        auto ino = bench::must(fs.create("/frag.img", 0644), "create");
        auto decoy = bench::must(fs.create("/decoy", 0644), "decoy");
        for (std::uint64_t vb = 0; vb < blocks; vb += 2) {
            bench::must_ok(fs.allocate_range(ino, vb, 2), "alloc");
            bench::must_ok(fs.allocate_range(decoy, vb, 2), "alloc");
        }
        auto vm = bench::must(bed->create_nesc_guest("/frag.img", blocks),
                              "guest");
        util::Rng rng(4);
        std::vector<std::byte> buf(1024);
        for (int i = 0; i < 512; ++i) {
            bench::must_ok(vm->raw_disk().read_blocks(
                               rng.next_below(blocks), 1, buf),
                           "read");
        }
        agreed &= report_row(table, "random/fragmented/no-BTLB", *bed);
    }

    { // 3. Four VFs contending with deep queues.
        auto bed = bench::must(virt::Testbed::create(
                                   bench::default_config()),
                               "testbed");
        // Big enough that the ring never wraps: the exported JSON then
        // carries every span, so the trace smoke can re-derive the
        // stage stack from the file alone.
        bed->controller().enable_tracing(1u << 20);
        struct Client {
            std::unique_ptr<drv::FunctionDriver> driver;
            pcie::HostAddr buffer;
            util::Rng rng{77};
        };
        std::vector<Client> clients(4);
        std::vector<std::unique_ptr<virt::GuestVm>> vms;
        for (int i = 0; i < 4; ++i) {
            auto vm = bench::must(
                bed->create_nesc_guest("/c" + std::to_string(i) + ".img",
                                       8192, true),
                "guest");
            auto fn = bench::must(bed->guest_vf(*vm), "fn");
            clients[i].driver = std::make_unique<drv::FunctionDriver>(
                bed->sim(), bed->host_memory(), bed->bar(), bed->irq(),
                fn, bed->config().vf_driver);
            bench::must_ok(clients[i].driver->init(), "driver");
            clients[i].buffer = bench::must(
                bed->host_memory().alloc(4096ULL * 8, 64), "buffer");
            vms.push_back(std::move(vm));
        }
        const sim::Time deadline = bed->sim().now() + 20 * sim::kMs;
        std::function<void(int, std::uint32_t)> submit =
            [&](int i, std::uint32_t slot) {
                if (bed->sim().now() >= deadline)
                    return;
                (void)clients[i].driver->submit(
                    ctrl::Opcode::kRead,
                    clients[i].rng.next_below(8188), 4,
                    clients[i].buffer + slot * 4096,
                    [&, i, slot](ctrl::CompletionStatus) {
                        submit(i, slot);
                    });
            };
        for (int i = 0; i < 4; ++i)
            for (std::uint32_t slot = 0; slot < 8; ++slot)
                submit(i, slot);
        bed->sim().run_until(deadline);
        bed->sim().run_until_idle();
        agreed &= report_row(table, "4-VF contention", *bed);
        if (trace_path != nullptr)
            bench::write_trace(bed->controller().tracer(), trace_path);
    }

    bench::print_table(table);

    if (!agreed) {
        std::fprintf(stderr,
                     "FATAL: trace-derived stage accounting diverged "
                     "from the stage histograms\n");
        return 1;
    }
    std::printf("trace cross-check: stage span totals match the stage "
                "histograms on every scenario\n");
    return 0;
}

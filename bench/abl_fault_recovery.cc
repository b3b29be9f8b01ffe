/**
 * @file
 * Ablation A12: goodput and recovery latency vs injected error rate.
 *
 * A VF runs closed-loop (QD=1) sequential 4 KiB reads while the media
 * layer injects transient faults at a swept per-op probability. The
 * controller surfaces each fault as a media-error completion and the
 * driver retries with exponential backoff, so the questions are: how
 * much goodput survives, and what does a recovered operation cost?
 * Expected shape: goodput degrades gracefully (sub-linearly) with the
 * error rate, while recovered ops pay the retry backoff on top of a
 * clean op's latency. Robustness extension; the paper's prototype
 * (§VI) assumes fault-free media.
 */
#include "bench/common.h"

#include "drivers/function_driver.h"
#include "extent/tree_image.h"
#include "nesc/controller.h"
#include "pcie/mmio.h"
#include "storage/faulty_block_device.h"
#include "storage/mem_block_device.h"
#include "util/stats.h"

using namespace nesc;

namespace {
constexpr std::uint64_t kVfBlocks = 8192;  // 8 MiB virtual disk
constexpr std::uint32_t kOpBlocks = 4;     // 4 KiB per op
constexpr sim::Duration kWindow = 50 * sim::kMs;
} // namespace

int
main()
{
    bench::print_header(
        "Ablation A12", "fault injection: goodput vs error rate",
        "robustness extension (beyond the paper's fault-free "
        "prototype): goodput degrades gracefully with media error "
        "rate; recovered ops pay retry backoff on top of base latency");

    util::Table table({"transient_prob", "ops_ok", "ops_failed",
                       "retries", "goodput_mb_s", "clean_p50_us",
                       "recov_mean_us", "recov_p99_us"});
    for (double prob : {0.0, 1e-4, 1e-3, 1e-2, 5e-2}) {
        sim::Simulator sim;
        pcie::HostMemory host_memory(64ULL << 20);
        storage::MemBlockDevice inner(
            storage::MemBlockDeviceConfig{.capacity_bytes = 64ULL << 20});
        storage::FaultPlan plan;
        plan.seed = 42;
        plan.transient_prob = prob;
        storage::FaultyBlockDevice media(inner, plan);
        pcie::InterruptController irq(sim);
        ctrl::Controller controller(sim, host_memory, media, irq);
        pcie::BarPageRouter bar(controller, 4096,
                                controller.num_functions());

        // One VF mapped 1:1 over the first kVfBlocks physical blocks.
        auto image = bench::must(
            extent::ExtentTreeImage::build(host_memory,
                                           {{0, kVfBlocks, 0}}),
            "tree");
        bench::must_ok(controller.mmio_write(0, ctrl::reg::kMgmtVfId, 1, 8),
                       "vf id");
        bench::must_ok(controller.mmio_write(0, ctrl::reg::kMgmtExtentRoot,
                                             image.root(), 8),
                       "root");
        bench::must_ok(controller.mmio_write(0, ctrl::reg::kMgmtDeviceSize,
                                             kVfBlocks, 8),
                       "size");
        bench::must_ok(
            controller.mmio_write(
                0, ctrl::reg::kMgmtCommand,
                static_cast<std::uint64_t>(ctrl::MgmtCommand::kCreateVf),
                8),
            "create vf");

        drv::FunctionDriver driver(sim, host_memory, bar, irq, 1,
                                   drv::FunctionDriverConfig{});
        bench::must_ok(driver.init(), "driver");
        const pcie::HostAddr buffer = bench::must(
            host_memory.alloc(kOpBlocks * ctrl::kDeviceBlockSize, 64),
            "buffer");

        // Closed loop at QD=1: with one op in flight, any retry the
        // driver took between submit and completion belongs to this
        // op, so recovery latency attribution is exact.
        std::uint64_t ops_ok = 0, ops_failed = 0, next_vlba = 0;
        util::Sampler clean_lat, recov_lat;
        const sim::Time deadline = sim.now() + kWindow;
        std::function<void()> submit = [&]() {
            if (sim.now() >= deadline)
                return;
            const sim::Time t0 = sim.now();
            const std::uint64_t retries_before = driver.retries();
            const std::uint64_t vlba = next_vlba;
            next_vlba = (next_vlba + kOpBlocks) % kVfBlocks;
            (void)driver.submit(
                ctrl::Opcode::kRead, vlba, kOpBlocks, buffer,
                [&, t0, retries_before](ctrl::CompletionStatus s) {
                    const double us =
                        static_cast<double>(sim.now() - t0) / 1000.0;
                    if (s == ctrl::CompletionStatus::kOk) {
                        ++ops_ok;
                        if (driver.retries() > retries_before)
                            recov_lat.add(us);
                        else
                            clean_lat.add(us);
                    } else {
                        ++ops_failed;
                    }
                    submit();
                });
        };
        submit();
        sim.run_until(deadline);
        sim.run_until_idle();

        const double secs = static_cast<double>(kWindow) / 1e9;
        const double goodput_mb =
            static_cast<double>(ops_ok) * kOpBlocks *
            ctrl::kDeviceBlockSize / (1024.0 * 1024.0) / secs;
        table.row()
            .add(prob)
            .add(ops_ok)
            .add(ops_failed)
            .add(driver.retries())
            .add(goodput_mb)
            .add(clean_lat.median())
            .add(recov_lat.mean())
            .add(recov_lat.percentile(99.0));
    }
    bench::print_table(table);
    return 0;
}

/**
 * @file
 * Ablation A14: victim performance isolation under an adversarial
 * neighbor.
 *
 * One well-behaved VF runs a fixed QD8 random-read workload while a
 * HostileDriver on a sibling VF emits a seeded misbehavior stream —
 * malformed descriptors, ring-header corruption, out-of-window DMA
 * pointers, doorbell storms, PF-register probes — at increasing rates
 * (hostile events per victim submission). The hostile VF is confined
 * by PF-programmed DMA windows and the quarantine machinery; the PF
 * periodically releases it so attacks keep flowing instead of the fn
 * spending the whole run sealed.
 *
 * The paper argues NeSC's per-VF isolation (§IV.D); this ablation
 * quantifies the robustness half of that claim: victim IOPS and mean
 * latency must stay within 5% of the hostile-free run at every attack
 * rate. That bound is the exit code, and ctest runs the bench.
 */
#include <memory>
#include <vector>

#include "bench/common.h"
#include "drivers/function_driver.h"
#include "extent/tree_image.h"
#include "nesc/controller.h"
#include "pcie/mmio.h"
#include "storage/mem_block_device.h"
#include "util/rng.h"
#include "virt/hostile_driver.h"

using namespace nesc;

namespace {

constexpr std::uint64_t kVictimBlocks = 4096;
constexpr std::uint64_t kHostileBlocks = 4096;
constexpr std::uint32_t kQueueDepth = 8;
constexpr std::uint32_t kTotalOps = 4096;

struct RunResult {
    double kiops = 0.0;
    double mean_latency_ns = 0.0;
    std::uint64_t hostile_events = 0;
    std::uint64_t quarantines = 0;
    std::uint64_t releases = 0;
};

/**
 * Victim QD8 random reads with @p hostile_rate hostile events injected
 * per victim submission (0 = hostile-free baseline).
 */
RunResult
run_point(std::uint32_t hostile_rate)
{
    sim::Simulator sim;
    pcie::HostMemory host_memory(64 << 20);
    storage::MemBlockDevice device(
        storage::MemBlockDeviceConfig{.capacity_bytes = 32 << 20});
    pcie::InterruptController irq(sim);
    ctrl::ControllerConfig ctrl_config;
    ctrl_config.max_vfs = 4;
    ctrl::Controller controller(sim, host_memory, device, irq,
                                ctrl_config);
    pcie::BarPageRouter bar(controller, 4096, controller.num_functions());

    auto create_vf = [&](pcie::FunctionId fn, std::uint64_t blocks,
                         std::uint64_t first_pblock)
        -> extent::ExtentTreeImage {
        auto image = bench::must(
            extent::ExtentTreeImage::build(
                host_memory, {{0, blocks, first_pblock}}),
            "tree");
        bench::must_ok(
            controller.mmio_write(0, ctrl::reg::kMgmtVfId, fn, 8), "mgmt");
        bench::must_ok(controller.mmio_write(0, ctrl::reg::kMgmtExtentRoot,
                                             image.root(), 8),
                       "mgmt");
        bench::must_ok(controller.mmio_write(0, ctrl::reg::kMgmtDeviceSize,
                                             blocks, 8),
                       "mgmt");
        bench::must_ok(
            controller.mmio_write(
                0, ctrl::reg::kMgmtCommand,
                static_cast<std::uint64_t>(ctrl::MgmtCommand::kCreateVf),
                8),
            "mgmt");
        return image;
    };
    auto mgmt_for = [&](pcie::FunctionId fn, ctrl::MgmtCommand command) {
        bench::must_ok(
            controller.mmio_write(0, ctrl::reg::kMgmtVfId, fn, 8), "mgmt");
        bench::must_ok(
            controller.mmio_write(
                0, ctrl::reg::kMgmtCommand,
                static_cast<std::uint64_t>(command), 8),
            "mgmt");
    };

    const pcie::FunctionId victim = 1, hostile = 2;
    auto victim_tree = create_vf(victim, kVictimBlocks, 1000);
    auto hostile_tree = create_vf(hostile, kHostileBlocks, 10000);

    drv::FunctionDriver driver(sim, host_memory, bar, irq, victim, {});
    bench::must_ok(driver.init(), "victim driver");

    std::unique_ptr<virt::HostileDriver> hd;
    if (hostile_rate > 0) {
        hd = std::make_unique<virt::HostileDriver>(sim, host_memory, bar,
                                                   hostile, /*seed=*/7);
        bench::must_ok(hd->init(), "hostile driver");
        // Confine the hostile fn: its own sandbox plus its extent tree.
        const auto [tree_base, tree_size] = hostile_tree.bounds();
        bench::must_ok(controller.mmio_write(0, ctrl::reg::kDmaWindowBase,
                                             hd->region_base(), 8),
                       "window");
        bench::must_ok(controller.mmio_write(0, ctrl::reg::kDmaWindowSize,
                                             hd->region_size(), 8),
                       "window");
        mgmt_for(hostile, ctrl::MgmtCommand::kAddDmaWindow);
        bench::must_ok(controller.mmio_write(0, ctrl::reg::kDmaWindowBase,
                                             tree_base, 8),
                       "window");
        bench::must_ok(controller.mmio_write(0, ctrl::reg::kDmaWindowSize,
                                             tree_size, 8),
                       "window");
        mgmt_for(hostile, ctrl::MgmtCommand::kAddDmaWindow);
    }

    auto buffer =
        bench::must(host_memory.alloc(1024 * kQueueDepth, 64), "buffer");
    util::Rng rng(3);
    std::uint32_t submitted = 0, completed = 0;
    std::uint64_t latency_sum = 0;
    RunResult result;
    std::function<void()> submit_one = [&]() {
        if (submitted >= kTotalOps)
            return;
        const std::uint32_t slot = submitted % kQueueDepth;
        ++submitted;
        if (hd) {
            for (std::uint32_t i = 0; i < hostile_rate; ++i)
                hd->step();
            // The PF operator notices the sealed fn and releases it, so
            // the attack stream keeps exercising the live paths.
            if (submitted % 256 == 0 &&
                controller.quarantined(hostile)) {
                mgmt_for(hostile, ctrl::MgmtCommand::kReleaseQuarantine);
                hd->repair();
                ++result.releases;
            }
        }
        const sim::Time t_submit = sim.now();
        bench::must_ok(
            driver.submit(ctrl::Opcode::kRead,
                          rng.next_below(kVictimBlocks), 1,
                          buffer + slot * 1024,
                          [&, t_submit](ctrl::CompletionStatus status) {
                              if (status != ctrl::CompletionStatus::kOk) {
                                  std::fprintf(
                                      stderr,
                                      "FATAL: victim completion %u\n",
                                      static_cast<unsigned>(status));
                                  std::exit(1);
                              }
                              latency_sum += sim.now() - t_submit;
                              ++completed;
                              submit_one();
                          }),
            "victim submit");
    };

    const sim::Time start = sim.now();
    for (std::uint32_t i = 0; i < kQueueDepth; ++i)
        submit_one();
    while (completed < kTotalOps) {
        if (!sim.step()) {
            std::fprintf(stderr, "FATAL: pipeline stalled\n");
            std::exit(1);
        }
    }
    const sim::Duration elapsed = sim.now() - start;

    if (controller.quarantined(victim)) {
        std::fprintf(stderr, "FATAL: victim quarantined\n");
        std::exit(1);
    }
    result.kiops = elapsed > 0 ? static_cast<double>(kTotalOps) * 1e6 /
                                     static_cast<double>(elapsed)
                               : 0.0;
    result.mean_latency_ns =
        static_cast<double>(latency_sum) / static_cast<double>(kTotalOps);
    if (hd) {
        result.hostile_events = hd->events();
        result.quarantines = controller.stats(hostile).quarantines;
    }
    return result;
}

} // namespace

int
main()
{
    bench::print_header(
        "Ablation A14", "victim isolation under an adversarial neighbor",
        "robustness corollary of the paper's per-VF isolation claim "
        "(§IV.D): a misbehaving guest, contained by validation + DMA "
        "windows + quarantine, must not dent a victim VF's IOPS or "
        "latency");

    util::Table table({"hostile_rate", "victim_kiops", "mean_lat_ns",
                       "goodput_vs_clean", "hostile_events", "quarantines",
                       "releases"});
    const RunResult clean = run_point(0);
    table.row()
        .add(0)
        .add(clean.kiops, 2)
        .add(clean.mean_latency_ns, 0)
        .add(1.0, 3)
        .add(0)
        .add(0)
        .add(0);

    for (std::uint32_t rate : {1u, 4u, 16u}) {
        const RunResult r = run_point(rate);
        const double goodput = r.kiops / clean.kiops;
        table.row()
            .add(rate)
            .add(r.kiops, 2)
            .add(r.mean_latency_ns, 0)
            .add(goodput, 3)
            .add(r.hostile_events)
            .add(r.quarantines)
            .add(r.releases);
        // The acceptance bar: within 5% of the hostile-free run.
        bench::gate(goodput >= 0.95 &&
                        r.mean_latency_ns <= clean.mean_latency_ns * 1.05,
                    "hostile rate " + std::to_string(rate) +
                        ": victim IOPS and mean latency within 5% of "
                        "hostile-free");
    }
    bench::print_table(table);
    bench::print_event_rate();
    return bench::gate_exit("abl_adversarial");
}

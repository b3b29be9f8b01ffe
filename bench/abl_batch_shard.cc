/**
 * @file
 * Ablation A18: host-side simulator throughput on the batched event
 * loop (8 directly-assigned VFs, QD16 random 4 KiB reads).
 *
 * Unlike the figure benches, the quantity under test here is not a
 * simulated latency or bandwidth but the simulator itself: events
 * executed per wall-clock second while eight guests keep sixteen
 * requests each in flight. Two phases cover the two hot paths the
 * event-heap/batching/arena rework targets:
 *
 *  - steady: plain volumes, scaled translation config — the BTLB
 *    absorbs translation, so the measured path is doorbell fetch,
 *    completion batching, and event scheduling on the key heap.
 *  - walk-heavy: fragmented volumes (64-block extents, fanout-16
 *    tree) under the paper-baseline translation unit — most blocks
 *    miss, so the measured path adds walk-state arenas, node-read
 *    DMA buffer recycling, and walk-miss queue churn.
 *
 * The simulated results must not move at all — the golden-figure
 * ctest pins those — so the only interesting numbers are the
 * host-side rates, which the perf smoke script floors.
 */
#include <chrono>
#include <functional>

#include "bench/common.h"
#include "drivers/function_driver.h"
#include "util/rng.h"

using namespace nesc;

namespace {

/**
 * Seed-tree baselines, measured by building this same bench source
 * against the pre-PR6 simulator (single global event heap,
 * per-completion events, heap-allocated command/walk state, eager
 * volume zeroing, bit-at-a-time block allocator) and interleaving
 * seed/new runs on the reference machine. Only the speedup metrics
 * use these; absolute rates are box-dependent, so the ratios are
 * meaningful only under comparable load. The per-phase run rates
 * improve ~1.2-1.5x; the whole-bench rate improves ~8x because the
 * seed spends most of its wall provisioning the fragmented volumes.
 * The absolute floors live in tier2_perf_smoke.sh.
 */
constexpr double kSeedSteadyEventsPerSec = 2.0e6;
constexpr double kSeedWalkEventsPerSec = 2.1e6;
constexpr double kSeedBenchEventsPerSec = 0.2e6;

constexpr std::uint32_t kVfs = 8;
constexpr std::uint32_t kQueueDepth = 16;
constexpr std::uint64_t kGuestBlocks = 8192; // 8 MiB virtual disk each
constexpr sim::Duration kSteadyRunNs = 200 * sim::kMs;
constexpr std::uint64_t kWalkGuestBlocks = 16384;
constexpr sim::Duration kWalkRunNs = 100 * sim::kMs;

/** Fragments @p path into 64-block extents (decoy interleaving). */
void
make_fragmented_file(virt::Testbed &bed, const std::string &path,
                     std::uint64_t blocks)
{
    constexpr std::uint64_t kRunBlocks = 64;
    auto &fs = bed.hv_fs();
    auto ino = bench::must(fs.create(path, 0644), "create");
    auto decoy = bench::must(fs.create(path + ".decoy", 0644), "decoy");
    for (std::uint64_t vb = 0; vb < blocks; vb += kRunBlocks) {
        const std::uint64_t n = std::min(kRunBlocks, blocks - vb);
        bench::must_ok(fs.allocate_range(ino, vb, n), "alloc");
        bench::must_ok(fs.allocate_range(decoy, vb, n), "alloc decoy");
    }
}

struct PhaseResult {
    std::uint64_t completed = 0;
    std::uint64_t events = 0;
    double wall_s = 0.0;
    double events_per_sec = 0.0;
};

/**
 * Runs 8 VFs at QD16 of random single-request reads against
 * already-created guests until @p run_ns of simulated time passes,
 * measuring host-side events per wall second.
 */
PhaseResult
run_phase(virt::Testbed &bed,
          std::vector<std::unique_ptr<drv::FunctionDriver>> &drivers,
          const std::vector<pcie::HostAddr> &buffers,
          std::uint64_t guest_blocks, std::uint32_t blocks_per_io,
          sim::Duration run_ns, std::uint64_t rng_seed)
{
    util::Rng rng(rng_seed);
    PhaseResult result;
    const sim::Time deadline = bed.sim().now() + run_ns;
    std::function<void(std::uint32_t, std::uint32_t)> submit =
        [&](std::uint32_t vf, std::uint32_t slot) {
            if (bed.sim().now() >= deadline)
                return;
            bench::must_ok(
                drivers[vf]->submit(
                    ctrl::Opcode::kRead,
                    rng.next_below(guest_blocks - blocks_per_io),
                    blocks_per_io,
                    buffers[vf] + slot * (1024ULL * blocks_per_io),
                    [&, vf, slot](ctrl::CompletionStatus) {
                        ++result.completed;
                        submit(vf, slot);
                    }),
                "submit");
        };

    const auto wall_start = std::chrono::steady_clock::now();
    const std::uint64_t events_start = bed.sim().events_executed();
    for (std::uint32_t vf = 0; vf < kVfs; ++vf)
        for (std::uint32_t slot = 0; slot < kQueueDepth; ++slot)
            submit(vf, slot);
    bed.sim().run_until(deadline);
    bed.sim().run_until_idle();
    result.events = bed.sim().events_executed() - events_start;
    result.wall_s =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      wall_start)
            .count();
    result.events_per_sec =
        result.wall_s > 0
            ? static_cast<double>(result.events) / result.wall_s
            : 0.0;
    return result;
}

/** Plain volumes, scaled translation: batching/scheduling hot path. */
PhaseResult
run_steady()
{
    auto bed = bench::must(virt::Testbed::create(bench::default_config()),
                           "testbed");
    std::vector<std::unique_ptr<drv::FunctionDriver>> drivers;
    std::vector<std::unique_ptr<virt::GuestVm>> vms;
    std::vector<pcie::HostAddr> buffers;
    for (std::uint32_t i = 0; i < kVfs; ++i) {
        std::string img = "/a18_" + std::to_string(i) + ".img";
        auto vm = bench::must(
            bed->create_nesc_guest(img.c_str(), kGuestBlocks, true),
            "guest");
        auto fn = bench::must(bed->guest_vf(*vm), "fn");
        auto driver = std::make_unique<drv::FunctionDriver>(
            bed->sim(), bed->host_memory(), bed->bar(), bed->irq(), fn,
            bed->config().vf_driver);
        bench::must_ok(driver->init(), "driver");
        drivers.push_back(std::move(driver));
        buffers.push_back(bench::must(
            bed->host_memory().alloc(4096ULL * kQueueDepth, 64),
            "buffer"));
        vms.push_back(std::move(vm));
    }
    return run_phase(*bed, drivers, buffers, kGuestBlocks, 4,
                     kSteadyRunNs, 1847);
}

/** Fragmented volumes, paper-baseline translation: walk hot path. */
PhaseResult
run_walk_heavy()
{
    virt::TestbedConfig config = bench::default_config();
    config.pf.tree.fanout = 16; // deep extent tree, multi-DMA walks
    // 8 x (volume + decoy) fragmented 16 Ki-block files need more
    // media than the 128 MiB bench default.
    config.device.capacity_bytes = 512ULL << 20;
    auto bed = bench::must(virt::Testbed::create(config), "testbed");
    std::vector<std::unique_ptr<drv::FunctionDriver>> drivers;
    std::vector<std::unique_ptr<virt::GuestVm>> vms;
    std::vector<pcie::HostAddr> buffers;
    for (std::uint32_t i = 0; i < kVfs; ++i) {
        std::string img = "/a18w_" + std::to_string(i) + ".img";
        make_fragmented_file(*bed, img, kWalkGuestBlocks);
        auto vm = bench::must(
            bed->create_nesc_guest(img.c_str(), kWalkGuestBlocks),
            "guest");
        auto fn = bench::must(bed->guest_vf(*vm), "fn");
        auto driver = std::make_unique<drv::FunctionDriver>(
            bed->sim(), bed->host_memory(), bed->bar(), bed->irq(), fn,
            bed->config().vf_driver);
        bench::must_ok(driver->init(), "driver");
        drivers.push_back(std::move(driver));
        buffers.push_back(bench::must(
            bed->host_memory().alloc(1024ULL * kQueueDepth, 64),
            "buffer"));
        vms.push_back(std::move(vm));
    }
    return run_phase(*bed, drivers, buffers, kWalkGuestBlocks, 1,
                     kWalkRunNs, 2063);
}

} // namespace

int
main()
{
    bench::print_header(
        "Ablation A18",
        "simulator events/sec, 8 VFs at QD16 (batching hot path)",
        "host-side metric: the event-heap/batching/arena rework must "
        "raise simulator throughput with simulated results unchanged");

    const auto bench_start = std::chrono::steady_clock::now();
    const PhaseResult steady = run_steady();
    const PhaseResult walk = run_walk_heavy();
    // Whole-bench rate: run phases plus testbed/volume construction.
    // Volume prep executes no events but is real wall time the seed
    // tree spent in the allocator and in eagerly-zeroed disk images.
    const double bench_wall_s =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      bench_start)
            .count();
    const double bench_events_per_sec =
        bench_wall_s > 0
            ? static_cast<double>(steady.events + walk.events) /
                  bench_wall_s
            : 0.0;

    util::Table table({"phase", "vfs", "queue_depth", "completed_ios",
                       "sim_events", "wall_s", "kevents_s"});
    table.row()
        .add("steady")
        .add(kVfs)
        .add(kQueueDepth)
        .add(steady.completed)
        .add(steady.events)
        .add(steady.wall_s, 3)
        .add(steady.events_per_sec / 1000.0, 0);
    table.row()
        .add("walk-heavy")
        .add(kVfs)
        .add(kQueueDepth)
        .add(walk.completed)
        .add(walk.events)
        .add(walk.wall_s, 3)
        .add(walk.events_per_sec / 1000.0, 0);
    bench::print_table(table);
    bench::print_event_rate();

    bench::emit_bench_json(
        "BENCH_PR6.json", 6,
        "simulator hot path: batched fetch/completions, one event heap "
        "of 24-byte keys, command/walk arenas (8 VFs, QD16)",
        {
            {"events_per_sec", steady.events_per_sec, true},
            {"speedup_vs_seed",
             steady.events_per_sec / kSeedSteadyEventsPerSec, true},
            {"completed_ios", static_cast<double>(steady.completed),
             true},
            {"walk_events_per_sec", walk.events_per_sec, true},
            {"walk_speedup_vs_seed",
             walk.events_per_sec / kSeedWalkEventsPerSec, true},
            {"walk_completed_ios", static_cast<double>(walk.completed),
             true},
            {"bench_events_per_sec", bench_events_per_sec, true},
            {"bench_speedup_vs_seed",
             bench_events_per_sec / kSeedBenchEventsPerSec, true},
        });
    return 0;
}

/**
 * @file
 * Ablation A13: MSHR-style walk-miss coalescing and the translation
 * fast path end to end.
 *
 * Part 1 disables the BTLB so every block misses, fragments the
 * backing file so the extent tree is deep, and keeps N single-block
 * reads outstanding inside a 64-block window (the window jumps
 * periodically). Concurrent misses then target the same subtree: with
 * coalescing off each one walks the tree itself; with coalescing on
 * the burst attaches to the first walk. The metric is DMA node reads
 * per translated miss — expected to drop >= 2x at 16 outstanding.
 *
 * Part 2 measures the whole fast path under load: 8 VFs, each keeping
 * 16 random reads outstanding, with the paper's baseline translation
 * unit (8-entry FA BTLB, no node cache, no coalescing) against the
 * scaled configuration (256-entry set-associative BTLB, 256 KiB node
 * cache, coalescing on).
 *
 * Gated in-binary and run by ctest: each of nine simulated,
 * deterministic metrics may move at most 20% in its worse direction
 * from the value recorded when the fast path landed.
 */
#include <vector>

#include "bench/common.h"
#include "drivers/function_driver.h"
#include "util/rng.h"

using namespace nesc;

namespace {

/** Fragments @p path into @p run_blocks-long extents (decoy trick). */
void
make_fragmented_file(virt::Testbed &bed, const std::string &path,
                     std::uint64_t blocks, std::uint64_t run_blocks)
{
    auto &fs = bed.hv_fs();
    auto ino = bench::must(fs.create(path, 0644), "create");
    auto decoy = bench::must(fs.create(path + ".decoy", 0644), "decoy");
    for (std::uint64_t vb = 0; vb < blocks; vb += run_blocks) {
        const std::uint64_t n = std::min(run_blocks, blocks - vb);
        bench::must_ok(fs.allocate_range(ino, vb, n), "alloc");
        bench::must_ok(fs.allocate_range(decoy, vb, n), "alloc decoy");
    }
}

struct MissRunResult {
    double dma_reads_per_miss = 0.0;
    std::uint64_t coalesced = 0;
};

/**
 * Keeps @p outstanding window-restricted random reads in flight with
 * the BTLB off and returns DMA node reads per translated miss.
 */
MissRunResult
run_miss_burst(bool coalesce, std::uint32_t outstanding)
{
    virt::TestbedConfig config = bench::default_config();
    config.controller.btlb_entries = 0; // every block misses
    config.controller.walk_coalesce_window = coalesce ? 256 : 0;
    config.pf.tree.fanout = 4; // deep tree: several DMAs per walk
    auto bed = bench::must(virt::Testbed::create(config), "testbed");

    const std::uint64_t blocks = 16384;
    make_fragmented_file(*bed, "/mshr.img", blocks, 64);
    auto vm =
        bench::must(bed->create_nesc_guest("/mshr.img", blocks), "guest");
    auto fn = bench::must(bed->guest_vf(*vm), "vf id");

    auto driver = std::make_unique<drv::FunctionDriver>(
        bed->sim(), bed->host_memory(), bed->bar(), bed->irq(), fn,
        bed->config().vf_driver);
    bench::must_ok(driver->init(), "driver");
    auto buffer = bench::must(
        bed->host_memory().alloc(1024 * outstanding, 64), "buffer");

    // Random reads inside a 64-block window that jumps every 64
    // submissions: concurrent misses share a subtree, sequential
    // phases do not degenerate into pure streaming.
    util::Rng rng(11);
    const std::uint32_t total_ops = 2048;
    std::uint64_t window_base = 0;
    std::uint32_t submitted = 0, completed = 0;
    std::function<void()> submit_one = [&]() {
        if (submitted >= total_ops)
            return;
        if (submitted % 64 == 0)
            window_base = 64 * rng.next_below(blocks / 64);
        const std::uint32_t slot = submitted % outstanding;
        ++submitted;
        bench::must_ok(
            driver->submit(ctrl::Opcode::kRead,
                           window_base + rng.next_below(64), 1,
                           buffer + slot * 1024,
                           [&](ctrl::CompletionStatus) {
                               ++completed;
                               submit_one();
                           }),
            "submit");
    };
    for (std::uint32_t i = 0; i < outstanding; ++i)
        submit_one();
    while (completed < total_ops) {
        if (!bed->sim().step()) {
            std::fprintf(stderr, "FATAL: pipeline stalled\n");
            std::exit(1);
        }
    }

    const auto &counters = bed->controller().counters();
    MissRunResult result;
    result.dma_reads_per_miss =
        static_cast<double>(counters.get("walk_node_reads")) /
        static_cast<double>(total_ops);
    result.coalesced = counters.get("walk_coalesced");
    return result;
}

struct LoadRunResult {
    double kiops = 0.0;
    double btlb_hit_rate = 0.0;
    double dma_reads_per_block = 0.0;
};

/** 8 VFs x QD16 random reads; returns aggregate simulated kIOPS. */
LoadRunResult
run_multi_vf(bool fastpath)
{
    virt::TestbedConfig config = bench::default_config();
    config.pf.tree.fanout = 16;
    if (fastpath) {
        config.controller.btlb_entries = 256;
        config.controller.btlb_sets = 64;
        config.controller.btlb_range_shift = 6;
        config.controller.node_cache_bytes = 256 << 10;
        config.controller.walk_coalesce_window = 256;
    }
    auto bed = bench::must(virt::Testbed::create(config), "testbed");

    constexpr std::uint32_t kVfs = 8;
    constexpr std::uint32_t kQd = 16;
    const std::uint64_t blocks = 4096;
    const std::uint32_t ops_per_vf = 2000;

    struct VfState {
        std::unique_ptr<virt::GuestVm> vm;
        std::unique_ptr<drv::FunctionDriver> driver;
        pcie::HostAddr buffer = 0;
        util::Rng rng{0};
        std::uint32_t submitted = 0;
        std::uint32_t completed = 0;
    };
    std::vector<VfState> vfs(kVfs);
    for (std::uint32_t v = 0; v < kVfs; ++v) {
        const std::string path = "/load" + std::to_string(v) + ".img";
        make_fragmented_file(*bed, path, blocks, 64);
        vfs[v].vm =
            bench::must(bed->create_nesc_guest(path, blocks), "guest");
        auto fn = bench::must(bed->guest_vf(*vfs[v].vm), "vf id");
        vfs[v].driver = std::make_unique<drv::FunctionDriver>(
            bed->sim(), bed->host_memory(), bed->bar(), bed->irq(), fn,
            bed->config().vf_driver);
        bench::must_ok(vfs[v].driver->init(), "driver");
        vfs[v].buffer = bench::must(
            bed->host_memory().alloc(1024 * kQd, 64), "buffer");
        vfs[v].rng = util::Rng(100 + v);
    }

    std::uint32_t total_completed = 0;
    const sim::Time start = bed->sim().now();
    std::function<void(std::uint32_t)> submit_one = [&](std::uint32_t v) {
        VfState &vf = vfs[v];
        if (vf.submitted >= ops_per_vf)
            return;
        const std::uint32_t slot = vf.submitted % kQd;
        ++vf.submitted;
        bench::must_ok(
            vf.driver->submit(ctrl::Opcode::kRead,
                              vf.rng.next_below(blocks), 1,
                              vf.buffer + slot * 1024,
                              [&, v](ctrl::CompletionStatus) {
                                  ++vfs[v].completed;
                                  ++total_completed;
                                  submit_one(v);
                              }),
            "submit");
    };
    for (std::uint32_t v = 0; v < kVfs; ++v)
        for (std::uint32_t i = 0; i < kQd; ++i)
            submit_one(v);
    const std::uint32_t total_ops = kVfs * ops_per_vf;
    while (total_completed < total_ops) {
        if (!bed->sim().step()) {
            std::fprintf(stderr, "FATAL: pipeline stalled\n");
            std::exit(1);
        }
    }
    const sim::Duration elapsed = bed->sim().now() - start;

    LoadRunResult result;
    result.kiops = static_cast<double>(total_ops) /
                   (util::ns_to_us(elapsed) / 1000.0) / 1000.0;
    result.btlb_hit_rate = bed->controller().btlb().hit_rate();
    result.dma_reads_per_block =
        static_cast<double>(
            bed->controller().counters().get("walk_node_reads")) /
        static_cast<double>(total_ops);
    return result;
}

/** Largest relative move of a gated metric in its worse direction. */
constexpr double kTolerance = 0.20;

/**
 * Gates @p value against its recorded @p reference. The bound is
 * relative only: the two near-zero metrics (0.0163 and 0.0027) must
 * hold it too.
 */
void
gate_metric(const char *name, double value, double reference,
            bool higher_is_better)
{
    const bool ok = higher_is_better
                        ? value >= reference * (1.0 - kTolerance)
                        : value <= reference * (1.0 + kTolerance);
    char what[160];
    std::snprintf(what, sizeof what, "%s: %.4f (reference %.4f, %s)", name,
                  value, reference,
                  higher_is_better ? ">= -20%" : "<= +20%");
    bench::gate(ok, what);
}

} // namespace

int
main()
{
    bench::print_header(
        "Ablation A13", "walk-miss coalescing and the translation fast path",
        "design-choice study beyond the paper's prototype: concurrent "
        "misses to a shared subtree should cost one walk, not N; the "
        "full fast path lifts multi-VF random-read IOPS");

    util::Table table({"outstanding", "dma_per_miss_off", "dma_per_miss_on",
                       "reduction_x", "coalesced_on"});
    double dma_off_qd16 = 0.0, dma_on_qd16 = 0.0;
    for (std::uint32_t outstanding : {1u, 2u, 4u, 8u, 16u, 32u}) {
        const MissRunResult off = run_miss_burst(false, outstanding);
        const MissRunResult on = run_miss_burst(true, outstanding);
        if (outstanding == 16) {
            dma_off_qd16 = off.dma_reads_per_miss;
            dma_on_qd16 = on.dma_reads_per_miss;
        }
        table.row()
            .add(outstanding)
            .add(off.dma_reads_per_miss, 2)
            .add(on.dma_reads_per_miss, 2)
            .add(on.dma_reads_per_miss > 0
                     ? off.dma_reads_per_miss / on.dma_reads_per_miss
                     : 0.0,
                 2)
            .add(on.coalesced);
    }
    bench::print_table(table);

    const LoadRunResult baseline = run_multi_vf(false);
    const LoadRunResult fastpath = run_multi_vf(true);
    util::Table load({"config", "kIOPS_qd16_8vf", "btlb_hit_rate",
                      "dma_node_reads_per_block"});
    load.row()
        .add("paper-baseline")
        .add(baseline.kiops, 2)
        .add(baseline.btlb_hit_rate, 3)
        .add(baseline.dma_reads_per_block, 2);
    load.row()
        .add("fast-path")
        .add(fastpath.kiops, 2)
        .add(fastpath.btlb_hit_rate, 3)
        .add(fastpath.dma_reads_per_block, 2);
    bench::print_table(load);
    bench::print_event_rate();

    gate_metric("dma_node_reads_per_miss_qd16_coalesce_off", dma_off_qd16,
                4.0000, false);
    gate_metric("dma_node_reads_per_miss_qd16_coalesce_on", dma_on_qd16,
                0.5000, false);
    gate_metric("coalesce_dma_reduction_x_qd16",
                dma_on_qd16 > 0 ? dma_off_qd16 / dma_on_qd16 : 0.0, 8.0000,
                true);
    gate_metric("iops_k_qd16_8vf_baseline", baseline.kiops, 0.4388, true);
    gate_metric("iops_k_qd16_8vf_fastpath", fastpath.kiops, 0.7809, true);
    gate_metric("btlb_hit_rate_qd16_8vf_baseline", baseline.btlb_hit_rate,
                0.0163, true);
    gate_metric("btlb_hit_rate_qd16_8vf_fastpath", fastpath.btlb_hit_rate,
                0.5070, true);
    gate_metric("dma_node_reads_per_block_8vf_baseline",
                baseline.dma_reads_per_block, 1.9674, false);
    gate_metric("dma_node_reads_per_block_8vf_fastpath",
                fastpath.dma_reads_per_block, 0.0027, false);
    return bench::gate_exit("abl_walk_coalesce");
}

/**
 * @file
 * Ablation A20: VF-plane scale sweep — 256 VFs under hierarchical
 * DWRR arbitration (PR 8 tentpole).
 *
 * Two phases:
 *
 *  - reference: 8 VFs, QD16, random 4 KiB reads, legacy round robin,
 *    on the queue-pair controller. Its BTLB/walker hit rates are the
 *    translation baseline the scale phase must match.
 *
 *  - scale: one weight-16 tenant (4 queue pairs, QD32) against 255
 *    weight-1 tenants (QD4 each) with DWRR arbitration, all
 *    closed-loop saturating. Gates (in-binary, deterministic): every
 *    tenant's measured service share within 5% of its weight-ideal
 *    share, bounded p99 completion latency for the heavy tenant, and
 *    BTLB/walker hit rates within 10 points of the reference phase.
 *
 * Translation structures are provisioned proportionally to the VF
 * count in both phases (2 BTLB entries and 8 KiB of node-cache SRAM
 * per VF, 8-way sets) so the hit-rate comparison isolates the scale
 * fast path rather than an undersized cache.
 *
 * The gates set the exit code and the bench runs under ctest. Host
 * speed is measured by nesc_bench's vf256_dwrr workload, not here;
 * `--vfs N` shrinks the scale phase.
 */
#include <algorithm>
#include <cstring>
#include <functional>
#include <string>
#include <vector>

#include "bench/common.h"
#include "drivers/function_driver.h"
#include "util/rng.h"

using namespace nesc;

namespace {

constexpr std::uint32_t kRefVfs = 8;
constexpr std::uint32_t kRefQueueDepth = 16;
constexpr std::uint64_t kRefGuestBlocks = 8192;
constexpr sim::Duration kRefRunNs = 100 * sim::kMs;

constexpr std::uint32_t kScaleVfsDefault = 256;
constexpr std::uint64_t kScaleGuestBlocks = 2048;
constexpr std::uint32_t kHeavyWeight = 16;
constexpr std::uint32_t kHeavyQueuePairs = 4;
constexpr std::uint32_t kHeavyQueueDepth = 32;
constexpr std::uint32_t kTenantQueueDepth = 4;
constexpr sim::Duration kScaleWarmupNs = 10 * sim::kMs;
constexpr sim::Duration kScaleMeasureNs = 150 * sim::kMs;
/** Weight-ideal tolerance (relative) and hit-rate tolerance (points). */
constexpr double kShareTolerance = 0.05;
constexpr double kHitRateTolerance = 0.10;
/** Starvation blows far past this; DWRR keeps the heavy tenant well
 * under it (observed ~1-2 ms at 256 VFs). */
constexpr double kHeavyP99BoundMs = 10.0;

/**
 * Proportional translation provisioning; see file comment. The BTLB
 * stays in the paper's fully-associative mode: one entry covers a
 * whole cached extent, so capacity demand scales with live extents
 * (~1 per preallocated volume), not with address granules.
 */
void
scale_translation(virt::TestbedConfig &config, std::uint32_t vfs)
{
    config.controller.btlb_entries = 2 * vfs;
    config.controller.node_cache_bytes = 8192ULL * vfs;
}

struct PhaseStats {
    std::uint64_t completed = 0;
    std::uint64_t events = 0;
    double btlb_hit_rate = 0.0;
    /** node-cache hit rate; -1 when too few walks to be meaningful. */
    double walker_hit_rate = -1.0;
};

void
read_translation_rates(virt::Testbed &bed, PhaseStats &stats)
{
    stats.btlb_hit_rate = bed.controller().btlb().hit_rate();
    const auto &counters = bed.controller().counters();
    const std::uint64_t hits = counters.get("node_cache_hits");
    const std::uint64_t misses = counters.get("node_cache_misses");
    if (hits + misses >= 64)
        stats.walker_hit_rate = static_cast<double>(hits) /
                                static_cast<double>(hits + misses);
}

/** The reference workload: 8 equal VFs at QD16, legacy WRR. */
PhaseStats
run_reference()
{
    virt::TestbedConfig config = bench::default_config();
    scale_translation(config, kRefVfs);
    auto bed = bench::must(virt::Testbed::create(config), "testbed");

    std::vector<std::unique_ptr<drv::FunctionDriver>> drivers;
    std::vector<std::unique_ptr<virt::GuestVm>> vms;
    std::vector<pcie::HostAddr> buffers;
    for (std::uint32_t i = 0; i < kRefVfs; ++i) {
        std::string img = "/a20r_" + std::to_string(i) + ".img";
        auto vm = bench::must(
            bed->create_nesc_guest(img, kRefGuestBlocks, true), "guest");
        auto fn = bench::must(bed->guest_vf(*vm), "fn");
        auto driver = std::make_unique<drv::FunctionDriver>(
            bed->sim(), bed->host_memory(), bed->bar(), bed->irq(), fn,
            bed->config().vf_driver);
        bench::must_ok(driver->init(), "driver");
        drivers.push_back(std::move(driver));
        buffers.push_back(bench::must(
            bed->host_memory().alloc(4096ULL * kRefQueueDepth, 64),
            "buffer"));
        vms.push_back(std::move(vm));
    }

    util::Rng rng(1847);
    PhaseStats stats;
    const sim::Time deadline = bed->sim().now() + kRefRunNs;
    std::function<void(std::uint32_t, std::uint32_t)> submit =
        [&](std::uint32_t vf, std::uint32_t slot) {
            if (bed->sim().now() >= deadline)
                return;
            bench::must_ok(
                drivers[vf]->submit(
                    ctrl::Opcode::kRead,
                    rng.next_below(kRefGuestBlocks - 4), 4,
                    buffers[vf] + slot * 4096,
                    [&, vf, slot](ctrl::CompletionStatus) {
                        ++stats.completed;
                        submit(vf, slot);
                    }),
                "submit");
        };

    const std::uint64_t events_start = bed->sim().events_executed();
    for (std::uint32_t vf = 0; vf < kRefVfs; ++vf)
        for (std::uint32_t slot = 0; slot < kRefQueueDepth; ++slot)
            submit(vf, slot);
    bed->sim().run_until(deadline);
    bed->sim().run_until_idle();
    stats.events = bed->sim().events_executed() - events_start;
    read_translation_rates(*bed, stats);
    return stats;
}

struct ScaleResult {
    PhaseStats stats;
    std::uint32_t vfs = 0;
    double heavy_share = 0.0;
    double heavy_ideal = 0.0;
    double heavy_share_err = 0.0; ///< relative error vs weight-ideal
    double tenant_share_max_err = 0.0;
    std::uint64_t tenant_min_ios = 0;
    std::uint64_t tenant_max_ios = 0;
    double heavy_p50_ms = 0.0;
    double heavy_p99_ms = 0.0;
};

/** One weight-16 / 4-QP tenant vs (vfs-1) weight-1 tenants, DWRR. */
ScaleResult
run_scale(std::uint32_t vfs)
{
    virt::TestbedConfig config = bench::default_config();
    config.controller.max_vfs = static_cast<std::uint16_t>(vfs);
    scale_translation(config, vfs);
    // 2 MiB of data per guest plus hypervisor-FS metadata headroom.
    config.device.capacity_bytes =
        vfs * (kScaleGuestBlocks * 1024ULL) + (128ULL << 20);
    auto bed = bench::must(virt::Testbed::create(config), "testbed");
    bench::must_ok(bed->pf().set_arb_mode(ctrl::ArbMode::kDwrr), "mode");
    // Quantum 4 blocks = exactly one 4-block request per weight unit
    // per round: service is proportional at round granularity.
    bench::must_ok(bed->pf().set_arb_quantum(4), "quantum");

    struct Tenant {
        std::unique_ptr<drv::FunctionDriver> driver;
        pcie::HostAddr buffer;
        std::uint64_t completed = 0;
        std::uint64_t warm_completed = 0;
        util::Rng rng{0};
    };
    std::vector<Tenant> tenants(vfs);
    std::vector<std::unique_ptr<virt::GuestVm>> vms;
    const sim::Time warmup_at = bed->sim().now() + kScaleWarmupNs;

    for (std::uint32_t i = 0; i < vfs; ++i) {
        const bool heavy = i == 0;
        std::string img = "/a20s_" + std::to_string(i) + ".img";
        auto vm = bench::must(
            bed->create_nesc_guest(img, kScaleGuestBlocks, true),
            "guest");
        auto fn = bench::must(bed->guest_vf(*vm), "vf");
        drv::FunctionDriverConfig drv_config = bed->config().vf_driver;
        if (heavy) {
            bench::must_ok(bed->pf().set_qp_quota(fn, kHeavyQueuePairs),
                           "quota");
            bench::must_ok(bed->pf().set_qos_weight(fn, kHeavyWeight),
                           "weight");
            drv_config.queue_pairs = kHeavyQueuePairs;
        }
        tenants[i].driver = std::make_unique<drv::FunctionDriver>(
            bed->sim(), bed->host_memory(), bed->bar(), bed->irq(), fn,
            drv_config);
        bench::must_ok(tenants[i].driver->init(), "driver");
        const std::uint32_t qd =
            heavy ? kHeavyQueueDepth : kTenantQueueDepth;
        tenants[i].buffer = bench::must(
            bed->host_memory().alloc(4096ULL * qd, 64), "buffer");
        tenants[i].rng = util::Rng(1000 + i);
        vms.push_back(std::move(vm));
    }

    ScaleResult result;
    result.vfs = vfs;
    std::vector<sim::Duration> heavy_latencies;
    const sim::Time deadline = warmup_at + kScaleMeasureNs;
    std::function<void(std::uint32_t, std::uint32_t)> submit =
        [&](std::uint32_t i, std::uint32_t slot) {
            Tenant &t = tenants[i];
            if (bed->sim().now() >= deadline)
                return;
            const sim::Time issued = bed->sim().now();
            bench::must_ok(
                t.driver->submit(
                    ctrl::Opcode::kRead,
                    t.rng.next_below(kScaleGuestBlocks - 4), 4,
                    t.buffer + slot * 4096,
                    [&, i, slot, issued](ctrl::CompletionStatus) {
                        ++tenants[i].completed;
                        if (i == 0 && bed->sim().now() >= warmup_at)
                            heavy_latencies.push_back(bed->sim().now() -
                                                      issued);
                        submit(i, slot);
                    }),
                "submit");
        };

    const std::uint64_t events_start = bed->sim().events_executed();
    for (std::uint32_t i = 0; i < vfs; ++i) {
        const std::uint32_t qd =
            i == 0 ? kHeavyQueueDepth : kTenantQueueDepth;
        for (std::uint32_t slot = 0; slot < qd; ++slot)
            submit(i, slot);
    }
    // Warmup absorbs the start-of-run transient (cold BTLB, deficit
    // counters banking up); shares are measured from here.
    bed->sim().run_until(warmup_at);
    for (Tenant &t : tenants)
        t.warm_completed = t.completed;
    bed->sim().run_until(deadline);
    bed->sim().run_until_idle();

    result.stats.events = bed->sim().events_executed() - events_start;
    read_translation_rates(*bed, result.stats);

    std::uint64_t total = 0;
    for (const Tenant &t : tenants) {
        result.stats.completed += t.completed;
        total += t.completed - t.warm_completed;
    }
    const double weight_sum =
        static_cast<double>(kHeavyWeight + (vfs - 1));
    result.heavy_ideal = kHeavyWeight / weight_sum;
    const double ideal1 = 1.0 / weight_sum;
    result.tenant_min_ios = ~0ULL;
    for (std::uint32_t i = 0; i < vfs; ++i) {
        const std::uint64_t measured =
            tenants[i].completed - tenants[i].warm_completed;
        const double share =
            static_cast<double>(measured) / static_cast<double>(total);
        if (i == 0) {
            result.heavy_share = share;
            result.heavy_share_err =
                std::abs(share / result.heavy_ideal - 1.0);
        } else {
            result.tenant_share_max_err = std::max(
                result.tenant_share_max_err,
                std::abs(share / ideal1 - 1.0));
            result.tenant_min_ios =
                std::min(result.tenant_min_ios, measured);
            result.tenant_max_ios =
                std::max(result.tenant_max_ios, measured);
        }
    }

    std::sort(heavy_latencies.begin(), heavy_latencies.end());
    if (!heavy_latencies.empty()) {
        const std::size_t n = heavy_latencies.size();
        result.heavy_p50_ms =
            static_cast<double>(heavy_latencies[n / 2]) / 1e6;
        result.heavy_p99_ms =
            static_cast<double>(
                heavy_latencies[(n - 1) - (n - 1) / 100]) /
            1e6;
    }
    return result;
}

} // namespace

int
main(int argc, char **argv)
{
    std::uint32_t scale_vfs = kScaleVfsDefault;
    for (int i = 1; i + 1 < argc; ++i)
        if (std::strcmp(argv[i], "--vfs") == 0)
            scale_vfs = static_cast<std::uint32_t>(
                std::max(9L, std::min(256L, std::atol(argv[i + 1]))));

    bench::print_header(
        "Ablation A20",
        "VF-plane scale: " + std::to_string(scale_vfs) +
            " VFs, queue pairs + hierarchical DWRR",
        "scale study: one weight-16 tenant among weight-1 tenants gets "
        "its weighted share with bounded p99, and translation hit "
        "rates match the 8-VF configuration");

    const PhaseStats ref = run_reference();
    const ScaleResult scale = run_scale(scale_vfs);

    util::Table table({"phase", "vfs", "completed_ios", "sim_events",
                       "btlb_hit_rate", "walker_hit_rate"});
    table.row()
        .add("reference")
        .add(std::uint64_t(kRefVfs))
        .add(ref.completed)
        .add(ref.events)
        .add(ref.btlb_hit_rate, 3)
        .add(ref.walker_hit_rate, 3);
    table.row()
        .add("scale")
        .add(std::uint64_t(scale.vfs))
        .add(scale.stats.completed)
        .add(scale.stats.events)
        .add(scale.stats.btlb_hit_rate, 3)
        .add(scale.stats.walker_hit_rate, 3);
    bench::print_table(table);

    std::printf("heavy tenant: share %.4f (ideal %.4f, err %.2f%%), "
                "p50 %.3f ms, p99 %.3f ms\n",
                scale.heavy_share, scale.heavy_ideal,
                100.0 * scale.heavy_share_err, scale.heavy_p50_ms,
                scale.heavy_p99_ms);
    std::printf("weight-1 tenants: measured IOs [%llu, %llu], max "
                "share err %.2f%%\n",
                static_cast<unsigned long long>(scale.tenant_min_ios),
                static_cast<unsigned long long>(scale.tenant_max_ios),
                100.0 * scale.tenant_share_max_err);
    bench::print_event_rate();

    bench::gate(scale.heavy_share_err <= kShareTolerance,
                "heavy tenant share within 5% of weight-ideal");
    bench::gate(scale.tenant_share_max_err <= kShareTolerance,
                "every weight-1 tenant within 5% of weight-ideal");
    bench::gate(scale.heavy_p99_ms > 0.0 &&
                    scale.heavy_p99_ms <= kHeavyP99BoundMs,
                "heavy tenant p99 bounded");
    bench::gate(std::abs(scale.stats.btlb_hit_rate - ref.btlb_hit_rate) <=
                    kHitRateTolerance,
                "BTLB hit rate within 10 points of the 8-VF reference");
    bench::gate(ref.walker_hit_rate < 0.0 ||
                    scale.stats.walker_hit_rate < 0.0 ||
                    std::abs(scale.stats.walker_hit_rate -
                             ref.walker_hit_rate) <= kHitRateTolerance,
                "walker hit rate within 10 points of the 8-VF reference");
    return bench::gate_exit("abl_vf_scale");
}

/**
 * @file
 * Ablation A13: replicated multi-backend storage — goodput cost,
 * failover dent, and resync convergence.
 *
 * Three scenarios on the same guest workload (closed-loop QD=1, 4 KiB
 * alternating write/read through a NeSC VF):
 *
 *   1. local: the plain single-device data path (baseline);
 *   2. replicated: every media op mirrored across 3 backends behind
 *      modelled links, acked at quorum 2 — the steady-state price of
 *      replication;
 *   3. failover: one of the three backends is killed mid-run with no
 *      notification. The victim VF's goodput may dent while timeouts
 *      accumulate (target: <= 20% degradation), must recover once the
 *      dead backend is demoted, and background resync after revival
 *      must leave the backends bit-identical.
 *
 * Everything is seeded and event-driven, so the whole run — including
 * the failover timeline — is deterministic; the bench re-runs the
 * failover scenario and checks the timelines match exactly.
 *
 * Five failover checks gate the exit code, and ctest runs the bench.
 */
#include "bench/common.h"

#include "repl/replica_set.h"
#include "workloads/dd.h"

using namespace nesc;

namespace {

constexpr std::uint64_t kImageBlocks = 8192; // 8 MiB virtual disk
constexpr std::uint32_t kOpBlocks = 4;       // 4 KiB per op
constexpr sim::Duration kPhase = 20 * sim::kMs;

virt::TestbedConfig
bench_config(bool replicated)
{
    virt::TestbedConfig config;
    config.device.capacity_bytes = 64ULL << 20;
    config.host_memory_bytes = 64ULL << 20;
    if (replicated) {
        virt::TestbedReplicationConfig repl;
        repl.backends = 3;
        config.replication = repl;
    }
    return config;
}

/** Closed-loop alternating write/read until @p deadline; ops done. */
std::uint64_t
drive_phase(virt::GuestVm &vm, sim::Simulator &sim, sim::Time deadline,
            std::uint64_t &next_block, sim::Time *demote_seen,
            repl::ReplicaSet *set)
{
    std::vector<std::byte> buf(kOpBlocks * 1024);
    std::uint64_t ops = 0;
    bool write = true;
    while (sim.now() < deadline) {
        wl::fill_pattern(next_block, 0, buf);
        const util::Status status =
            write ? vm.raw_disk().write_blocks(next_block, kOpBlocks, buf)
                  : vm.raw_disk().read_blocks(next_block, kOpBlocks, buf);
        bench::must_ok(status, "guest op");
        ++ops;
        write = !write;
        next_block = (next_block + kOpBlocks) % kImageBlocks;
        if (set != nullptr && demote_seen != nullptr &&
            *demote_seen == 0 &&
            set->backend_state(0) == repl::BackendState::kDown)
            *demote_seen = sim.now();
    }
    return ops;
}

double
goodput_mb_s(std::uint64_t ops, sim::Duration window)
{
    return static_cast<double>(ops) * kOpBlocks * 1024.0 /
           (1024.0 * 1024.0) / (static_cast<double>(window) / 1e9);
}

/** Steady-state goodput over one phase (local or replicated bed). */
double
steady_goodput(bool replicated)
{
    auto bed = bench::must(virt::Testbed::create(bench_config(replicated)),
                           "testbed");
    auto vm = bench::must(bed->create_nesc_guest("/bench.img",
                                                 kImageBlocks),
                          "guest");
    std::uint64_t next_block = 0;
    // Warm-up lap fills the image so reads return real data.
    drive_phase(*vm, bed->sim(), bed->sim().now() + kPhase / 2,
                next_block, nullptr, nullptr);
    const std::uint64_t ops =
        drive_phase(*vm, bed->sim(), bed->sim().now() + kPhase,
                    next_block, nullptr, nullptr);
    return goodput_mb_s(ops, kPhase);
}

struct FailoverResult {
    std::uint64_t ops_before = 0;
    std::uint64_t ops_during = 0;
    std::uint64_t ops_after = 0;
    sim::Time kill_time = 0;
    sim::Time demote_time = 0;
    double resync_ms = 0.0;
    bool bit_identical = false;
    sim::Time final_now = 0;
};

FailoverResult
failover_run()
{
    auto bed = bench::must(virt::Testbed::create(bench_config(true)),
                           "testbed");
    auto vm = bench::must(bed->create_nesc_guest("/bench.img",
                                                 kImageBlocks),
                          "guest");
    repl::ReplicaSet *set = bed->replicas();
    sim::Simulator &sim = bed->sim();
    FailoverResult r;

    std::uint64_t next_block = 0;
    drive_phase(*vm, sim, sim.now() + kPhase / 2, next_block, nullptr,
                nullptr); // warm-up lap
    r.ops_before = drive_phase(*vm, sim, sim.now() + kPhase, next_block,
                               nullptr, nullptr);

    // Kill backend 0 silently: no notification, detection must come
    // from ack/read timeouts alone.
    set->crash_backend(0);
    r.kill_time = sim.now();
    r.ops_during = drive_phase(*vm, sim, sim.now() + kPhase, next_block,
                               &r.demote_time, set);
    r.ops_after = drive_phase(*vm, sim, sim.now() + kPhase, next_block,
                              nullptr, nullptr);

    // Power the backend back on: journal recovery + background resync
    // drain its dirty-extent log while the set stays online.
    const sim::Time revive_at = sim.now();
    set->revive_backend(0);
    bench::must(bed->pf().repl_wait_resync(0), "resync");
    r.resync_ms = static_cast<double>(sim.now() - revive_at) / 1e6;
    r.bit_identical = bench::must(set->verify_equal(0, 1), "verify") &&
                      bench::must(set->verify_equal(0, 2), "verify");
    r.final_now = sim.now();
    return r;
}

} // namespace

int
main()
{
    bench::print_header(
        "Ablation A13",
        "replicated storage: goodput, failover dent, resync",
        "robustness extension (beyond the paper's single-device "
        "prototype): mirroring costs steady-state goodput; killing 1 "
        "of 3 backends dents the victim VF <= 20% until organic "
        "demotion, then goodput recovers and resync converges "
        "bit-identically");

    const double local = steady_goodput(false);
    const double replicated = steady_goodput(true);

    FailoverResult r = failover_run();
    const FailoverResult again = failover_run();
    const bool deterministic = r.final_now == again.final_now &&
                               r.ops_during == again.ops_during &&
                               r.demote_time == again.demote_time;

    const double before = goodput_mb_s(r.ops_before, kPhase);
    const double during = goodput_mb_s(r.ops_during, kPhase);
    const double after = goodput_mb_s(r.ops_after, kPhase);
    const double failover_ms =
        r.demote_time > r.kill_time
            ? static_cast<double>(r.demote_time - r.kill_time) / 1e6
            : 0.0;

    util::Table table({"scenario", "goodput_mb_s", "note"});
    table.row().add("local").add(local).add("single device");
    table.row().add("replicated").add(replicated).add("3 backends, q=2");
    table.row().add("failover: before").add(before).add("all healthy");
    table.row().add("failover: during").add(during).add(
        "backend 0 dead, not yet demoted");
    table.row().add("failover: after").add(after).add("demoted");
    bench::print_table(table);
    std::printf("failover latency: %.3f ms (crash -> demotion)\n",
                failover_ms);
    std::printf("resync: %.3f ms, bit-identical: %s\n", r.resync_ms,
                r.bit_identical ? "yes" : "NO");
    std::printf("deterministic re-run: %s\n",
                deterministic ? "yes" : "NO");
    bench::print_event_rate();

    bench::gate(during / before >= 0.80,
                "failover dent ratio >= 0.80: goodput during failover "
                "within 20% of healthy");
    bench::gate(after / before >= 0.95,
                "failover recovery ratio >= 0.95: goodput recovers after "
                "the dead backend is demoted");
    bench::gate(failover_ms > 0.0 && failover_ms < 50.0,
                "failover latency in (0, 50) ms: organic demotion "
                "happens, and quickly");
    bench::gate(r.bit_identical,
                "revived backend bit-identical after resync");
    bench::gate(deterministic,
                "failover timeline identical across re-runs");
    return bench::gate_exit("abl_replication");
}

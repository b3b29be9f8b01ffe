/**
 * @file
 * Ablation A4: round-robin fairness across VFs.
 *
 * The VF multiplexer dequeues client requests round-robin "to prevent
 * client starvation" (paper §V.A). Four VFs offer asymmetric load —
 * one aggressive client keeps 32 requests outstanding, three modest
 * clients keep 2 each — and the bench reports the service share each
 * achieved. Expected shape: the aggressive client cannot convert its
 * 84% offered share into service share (block-granular round robin
 * caps it), and the equally-loaded clients get identical service.
 */
#include "bench/common.h"
#include "util/rng.h"

using namespace nesc;

int
main()
{
    bench::print_header(
        "Ablation A4", "service fairness under asymmetric VF load",
        "design-choice study: with 16x the outstanding requests, the "
        "aggressive VF's service share stays far below its 84% offered "
        "share (block-granular round robin prevents starvation), and "
        "equally-loaded VFs receive identical service");

    virt::TestbedConfig config = bench::default_config();
    auto bed = bench::must(virt::Testbed::create(config), "testbed");

    constexpr int kVfs = 4;
    const std::uint64_t blocks = 8192;
    const std::uint32_t queue_depth[kVfs] = {32, 2, 2, 2};

    struct Client {
        std::unique_ptr<drv::FunctionDriver> driver;
        pcie::HostAddr buffer;
        std::uint64_t completed = 0;
        util::Rng rng{0};
    };
    std::vector<Client> clients(kVfs);
    std::vector<std::unique_ptr<virt::GuestVm>> vms;

    for (int i = 0; i < kVfs; ++i) {
        auto vm = bench::must(
            bed->create_nesc_guest("/fair" + std::to_string(i) + ".img",
                                   blocks, true),
            "guest");
        auto fn = bench::must(bed->guest_vf(*vm), "vf");
        clients[i].driver = std::make_unique<drv::FunctionDriver>(
            bed->sim(), bed->host_memory(), bed->bar(), bed->irq(), fn,
            bed->config().vf_driver);
        bench::must_ok(clients[i].driver->init(), "driver");
        clients[i].buffer = bench::must(
            bed->host_memory().alloc(4096ULL * 64, 64), "buffer");
        clients[i].rng = util::Rng(100 + i);
        vms.push_back(std::move(vm));
    }

    // Closed-loop clients: resubmit on completion until the deadline.
    const sim::Time deadline = bed->sim().now() + 50 * sim::kMs;
    std::vector<std::function<void(int, std::uint32_t)>> holder(1);
    std::function<void(int, std::uint32_t)> submit =
        [&](int client, std::uint32_t slot) {
            Client &c = clients[client];
            if (bed->sim().now() >= deadline)
                return;
            bench::must_ok(
                c.driver->submit(ctrl::Opcode::kRead,
                                 c.rng.next_below(blocks - 4), 4,
                                 c.buffer + slot * 4096,
                                 [&, client, slot](ctrl::CompletionStatus) {
                                     ++clients[client].completed;
                                     submit(client, slot);
                                 }),
                "submit");
        };
    for (int i = 0; i < kVfs; ++i)
        for (std::uint32_t slot = 0; slot < queue_depth[i]; ++slot)
            submit(i, slot);

    bed->sim().run_until(deadline);
    bed->sim().run_until_idle();

    std::uint64_t total = 0;
    for (const Client &c : clients)
        total += c.completed;

    util::Table table({"vf", "outstanding_requests", "completed_4k_reads",
                       "service_share_pct"});
    for (int i = 0; i < kVfs; ++i) {
        table.row()
            .add(std::uint64_t(i + 1))
            .add(std::uint64_t(queue_depth[i]))
            .add(clients[i].completed)
            .add(100.0 * static_cast<double>(clients[i].completed) /
                     static_cast<double>(total),
                 1);
    }
    bench::print_table(table);

    return 0;
}

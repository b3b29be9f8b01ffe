/**
 * @file
 * Ablation A7: QoS weights in the VF multiplexer (paper §IV.D).
 *
 * Two identical closed-loop clients share the device; the first VF's
 * arbitration weight is swept. Expected shape: service share tracks
 * the configured weight (weight 1 = the paper's plain round robin).
 */
#include "bench/common.h"
#include "util/rng.h"

using namespace nesc;

int
main()
{
    bench::print_header(
        "Ablation A7", "QoS arbitration weight sweep",
        "extension study (paper §IV.D): a VF's service share follows "
        "its configured weight under contention");

    util::Table table({"vf1_weight", "vf1_4k_reads", "vf2_4k_reads",
                       "share_ratio"});
    for (std::uint32_t weight : {1u, 2u, 4u, 8u}) {
        auto bed = bench::must(virt::Testbed::create(
                                   bench::default_config()),
                               "testbed");
        auto vm1 =
            bench::must(bed->create_nesc_guest("/q1.img", 8192, true),
                        "guest 1");
        auto vm2 =
            bench::must(bed->create_nesc_guest("/q2.img", 8192, true),
                        "guest 2");
        const auto fn1 = bench::must(bed->guest_vf(*vm1), "fn1");
        const auto fn2 = bench::must(bed->guest_vf(*vm2), "fn2");
        bench::must_ok(bed->pf().set_qos_weight(fn1, weight), "qos");

        struct Client {
            std::unique_ptr<drv::FunctionDriver> driver;
            pcie::HostAddr buffer;
            std::uint64_t completed = 0;
            util::Rng rng{17};
        };
        Client clients[2];
        const pcie::FunctionId fns[2] = {fn1, fn2};
        for (int i = 0; i < 2; ++i) {
            clients[i].driver = std::make_unique<drv::FunctionDriver>(
                bed->sim(), bed->host_memory(), bed->bar(), bed->irq(),
                fns[i], bed->config().vf_driver);
            bench::must_ok(clients[i].driver->init(), "driver");
            clients[i].buffer = bench::must(
                bed->host_memory().alloc(4096ULL * 16, 64), "buffer");
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
                        ++clients[i].completed;
                        submit(i, slot);
                    });
            };
        for (int i = 0; i < 2; ++i)
            for (std::uint32_t slot = 0; slot < 16; ++slot)
                submit(i, slot);
        bed->sim().run_until(deadline);
        bed->sim().run_until_idle();

        const double ratio = static_cast<double>(clients[0].completed) /
                             static_cast<double>(clients[1].completed);
        table.row()
            .add(weight)
            .add(clients[0].completed)
            .add(clients[1].completed)
            .add(ratio);
    }
    bench::print_table(table);
    return 0;
}

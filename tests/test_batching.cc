/**
 * @file
 * Ring-drain tests: one doorbell drains every descriptor the guest has
 * queued and each completion is one CQ record plus one MSI. The drain
 * is checked against the containment machinery: it stops dead at
 * quarantine, a doorbell during the fetch latency re-arms it, and
 * watchdog and quarantine aborts reach the completion ring in order.
 */
#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "extent/tree_image.h"
#include "nesc/controller.h"
#include "pcie/host_ring.h"
#include "storage/mem_block_device.h"

namespace nesc::ctrl {
namespace {

/** 4-VF controller over DRAM media. */
class DrainHarness {
  public:
    DrainHarness()
        : host_memory_(64 << 20), device_(device_config()), irq_(sim_),
          controller_(sim_, host_memory_, device_, irq_, controller_config())
    {
    }

    static storage::MemBlockDeviceConfig
    device_config()
    {
        storage::MemBlockDeviceConfig cfg;
        cfg.capacity_bytes = 16 << 20;
        return cfg;
    }

    static ControllerConfig
    controller_config()
    {
        ControllerConfig cfg;
        cfg.max_vfs = 4;
        return cfg;
    }

    pcie::FunctionId
    create_vf(const extent::ExtentList &extents, std::uint64_t size_blocks,
              pcie::FunctionId fn = 1)
    {
        auto image = extent::ExtentTreeImage::build(host_memory_, extents);
        EXPECT_TRUE(image.is_ok());
        trees_.push_back(std::move(image).value());
        pf_write(reg::kMgmtVfId, fn);
        pf_write(reg::kMgmtExtentRoot, trees_.back().root());
        pf_write(reg::kMgmtDeviceSize, size_blocks);
        mgmt(MgmtCommand::kCreateVf);
        return fn;
    }

    void
    pf_write(std::uint64_t offset, std::uint64_t value)
    {
        ASSERT_TRUE(controller_.mmio_write(0, offset, value, 8).is_ok());
    }

    void
    mgmt(MgmtCommand command)
    {
        ASSERT_TRUE(controller_
                        .mmio_write(0, reg::kMgmtCommand,
                                    static_cast<std::uint64_t>(command), 8)
                        .is_ok());
        ASSERT_EQ(*controller_.mmio_read(0, reg::kMgmtStatus, 4),
                  static_cast<std::uint64_t>(MgmtStatus::kOk));
    }

    /** PF grants @p fn DMA access to [base, base+size). */
    void
    add_window(pcie::FunctionId fn, pcie::HostAddr base,
               std::uint64_t size)
    {
        pf_write(reg::kMgmtVfId, fn);
        pf_write(reg::kDmaWindowBase, base);
        pf_write(reg::kDmaWindowSize, size);
        mgmt(MgmtCommand::kAddDmaWindow);
    }

    sim::Simulator sim_;
    pcie::HostMemory host_memory_;
    storage::MemBlockDevice device_;
    pcie::InterruptController irq_;
    Controller controller_;
    std::vector<extent::ExtentTreeImage> trees_;
};

/** Hand-rolled guest rings on pair 0 with raw descriptor control. */
struct RawGuest {
    RawGuest(DrainHarness &h, pcie::FunctionId fn,
             std::uint32_t entries = 32)
        : h_(h), fn_(fn), entries_(entries)
    {
        const auto cmd_fp =
            pcie::HostRing::footprint(entries, sizeof(CommandRecord));
        const auto comp_fp = pcie::HostRing::footprint(
            entries * 2, sizeof(CompletionRecord));
        cmd_base_ = *h.host_memory_.alloc(cmd_fp, 64);
        comp_base_ = *h.host_memory_.alloc(comp_fp, 64);
        buffer_ = *h.host_memory_.alloc(64 * 1024, 4096);
        EXPECT_TRUE(pcie::HostRing::create(h.host_memory_, cmd_base_,
                                           entries, sizeof(CommandRecord))
                        .is_ok());
        EXPECT_TRUE(pcie::HostRing::create(h.host_memory_, comp_base_,
                                           entries * 2,
                                           sizeof(CompletionRecord))
                        .is_ok());
        vf_write(reg::kCmdRingBase, cmd_base_);
        vf_write(reg::kCompRingBase, comp_base_);
    }

    void
    vf_write(std::uint64_t offset, std::uint64_t value)
    {
        EXPECT_TRUE(h_.controller_.mmio_write(fn_, offset, value, 8).is_ok());
    }

    void
    push(const CommandRecord &rec)
    {
        auto ring = pcie::HostRing::attach(h_.host_memory_, cmd_base_);
        ASSERT_TRUE(ring.is_ok());
        std::vector<std::byte> buf(sizeof(rec));
        std::memcpy(buf.data(), &rec, sizeof(rec));
        ASSERT_TRUE(ring.value().push(buf).is_ok());
    }

    CommandRecord
    valid_write(std::uint64_t vlba = 0, std::uint32_t nblocks = 1)
    {
        CommandRecord rec{};
        rec.vlba = vlba;
        rec.nblocks = nblocks;
        rec.opcode = static_cast<std::uint8_t>(Opcode::kWrite);
        rec.host_buffer = buffer_;
        rec.tag = next_tag_++;
        return rec;
    }

    void
    doorbell()
    {
        vf_write(reg::kDoorbell, 1);
    }

    std::vector<CompletionRecord>
    drain_completions()
    {
        std::vector<CompletionRecord> out;
        auto ring = pcie::HostRing::attach(h_.host_memory_, comp_base_);
        if (!ring.is_ok())
            return out;
        std::vector<std::byte> buf(sizeof(CompletionRecord));
        for (;;) {
            auto popped = ring.value().pop(buf);
            if (!popped.is_ok() || !popped.value())
                break;
            CompletionRecord rec;
            std::memcpy(&rec, buf.data(), sizeof(rec));
            out.push_back(rec);
        }
        return out;
    }

    /** Confines the fn to its rings, its data buffer and its tree. */
    void
    confine()
    {
        h_.add_window(fn_, cmd_base_,
                      pcie::HostRing::footprint(entries_,
                                                sizeof(CommandRecord)));
        h_.add_window(fn_, comp_base_,
                      pcie::HostRing::footprint(entries_ * 2,
                                                sizeof(CompletionRecord)));
        h_.add_window(fn_, buffer_, 64 * 1024);
        const auto [tree_base, tree_size] = h_.trees_.back().bounds();
        if (tree_size != 0)
            h_.add_window(fn_, tree_base, tree_size);
    }

    DrainHarness &h_;
    pcie::FunctionId fn_;
    std::uint32_t entries_;
    pcie::HostAddr cmd_base_ = pcie::kNullHostAddr;
    pcie::HostAddr comp_base_ = pcie::kNullHostAddr;
    pcie::HostAddr buffer_ = pcie::kNullHostAddr;
    std::uint64_t next_tag_ = 1;
};

TEST(RingDrain, QuarantineMidDrainFetchesNothingMore)
{
    // A DMA-window violation mid-drain quarantines the VF with
    // descriptors still in the ring: nothing further may be fetched,
    // and later doorbells are ignored outright.
    DrainHarness h;
    const auto fn = h.create_vf({{0, 64, 2000}}, 64);
    RawGuest g(h, fn);
    g.confine();

    const pcie::HostAddr outside = *h.host_memory_.alloc(4096, 4096);
    g.push(g.valid_write(0));
    CommandRecord escape = g.valid_write(1);
    escape.host_buffer = outside; // sandbox escape: one-strike
    g.push(escape);
    g.push(g.valid_write(2));
    g.push(g.valid_write(3));
    g.doorbell();
    h.sim_.run_until_idle();

    EXPECT_TRUE(h.controller_.quarantined(fn));
    // Only the two descriptors up to the violation were fetched.
    EXPECT_EQ(h.controller_.stats(fn).commands, 2u);
    const auto comps = g.drain_completions();
    ASSERT_EQ(comps.size(), 2u);
    // Tag 2 faulted first, then tag 1 aborted by quarantine teardown.
    EXPECT_EQ(comps[0].tag, 2u);
    EXPECT_EQ(comps[0].status,
              static_cast<std::uint32_t>(CompletionStatus::kDmaFault));
    EXPECT_EQ(comps[1].tag, 1u);
    EXPECT_EQ(comps[1].status,
              static_cast<std::uint32_t>(CompletionStatus::kAborted));

    // Doorbells while quarantined fetch nothing.
    const auto ignored_before = h.controller_.stats(fn).doorbells_ignored;
    g.doorbell();
    h.sim_.run_until_idle();
    EXPECT_EQ(h.controller_.stats(fn).commands, 2u);
    EXPECT_GT(h.controller_.stats(fn).doorbells_ignored, ignored_before);
}

TEST(RingDrain, DoorbellDuringFetchLatencyRearmsTheFetch)
{
    // A doorbell landing while a fetch is already scheduled must not
    // be lost: it latches doorbell_rearm, and the fetch engine runs
    // once more after its drain to pick up whatever the guest queued.
    DrainHarness h;
    const auto fn = h.create_vf({{0, 64, 2000}}, 64);
    RawGuest g(h, fn);
    for (std::uint64_t i = 0; i < 6; ++i)
        g.push(g.valid_write(i));
    g.doorbell();
    h.sim_.schedule_at(1, [&]() { g.doorbell(); }); // fetch still pending
    while (h.controller_.stats(fn).commands < 6 && h.sim_.step()) {
    }
    ASSERT_EQ(h.controller_.stats(fn).commands, 6u);
    // Records queued after the first drain ride the re-armed fetch.
    for (std::uint64_t i = 0; i < 4; ++i)
        g.push(g.valid_write(i));
    h.sim_.run_until_idle();
    EXPECT_EQ(h.controller_.queue_pair_stats(fn, 0)->doorbells, 2u);
    EXPECT_EQ(h.controller_.stats(fn).commands, 10u);
    const auto comps = g.drain_completions();
    EXPECT_EQ(comps.size(), 10u);
    EXPECT_EQ(h.controller_.stats(fn).ring_corruptions, 0u);
}

TEST(RingDrain, WatchdogAbortIsDelivered)
{
    // A write into an unmapped hole parks on a fault; the command
    // watchdog aborts it and the kAborted completion reaches the CQ.
    DrainHarness h;
    const auto fn = h.create_vf({{0, 32, 2000}}, 64); // upper half holes
    RawGuest g(h, fn);
    g.vf_write(reg::kWatchdogNs, 50'000);
    g.push(g.valid_write(/*vlba=*/40)); // hole: write-miss fault
    g.doorbell();
    h.sim_.run_until_idle();
    const auto comps = g.drain_completions();
    ASSERT_EQ(comps.size(), 1u);
    EXPECT_EQ(comps[0].tag, 1u);
    EXPECT_EQ(comps[0].status,
              static_cast<std::uint32_t>(CompletionStatus::kAborted));
    EXPECT_EQ(h.controller_.stats(fn).aborted_ops, 1u);
}

TEST(RingDrain, QuarantineAbortsCompleteInTagOrder)
{
    // Quarantine with several commands in flight: every pending tag
    // surfaces as kAborted, in ascending tag order. The trigger is a
    // sixth descriptor pointing outside the fn's DMA windows while
    // tags 1-5 were fetched in the same drain and are still pending.
    DrainHarness h;
    const auto fn = h.create_vf({{0, 64, 2000}}, 64);
    RawGuest g(h, fn);
    g.confine();
    for (std::uint64_t i = 0; i < 5; ++i)
        g.push(g.valid_write(i, /*nblocks=*/4));
    CommandRecord escape = g.valid_write(5);
    escape.host_buffer = *h.host_memory_.alloc(4096, 4096); // unwindowed
    g.push(escape);
    g.doorbell();
    h.sim_.run_until_idle();

    ASSERT_TRUE(h.controller_.quarantined(fn));
    const auto comps = g.drain_completions();
    ASSERT_EQ(comps.size(), 6u);
    // The violator faults first (enqueued before the teardown), then
    // the five pending tags abort in ascending tag order.
    EXPECT_EQ(comps[0].tag, 6u);
    EXPECT_EQ(comps[0].status,
              static_cast<std::uint32_t>(CompletionStatus::kDmaFault));
    for (std::size_t i = 1; i < comps.size(); ++i) {
        EXPECT_EQ(comps[i].tag, i) << "slot " << i;
        EXPECT_EQ(comps[i].status,
                  static_cast<std::uint32_t>(CompletionStatus::kAborted));
    }
}

} // namespace
} // namespace nesc::ctrl

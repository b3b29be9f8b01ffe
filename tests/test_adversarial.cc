/**
 * @file
 * Adversarial-guest hardening tests: descriptor validation, ring
 * sanitization, PF-only register protection, per-VF DMA windows,
 * quarantine entry/release, completions in flight across a reset or
 * queue-pair re-create, and the deterministic misbehavior fuzzer (a
 * seeded HostileDriver hammering one VF while a well-behaved neighbor
 * keeps running with verified data integrity).
 */
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <sstream>
#include <vector>

#include "drivers/function_driver.h"
#include "extent/tree_image.h"
#include "nesc/controller.h"
#include "pcie/host_ring.h"
#include "pcie/mmio.h"
#include "storage/mem_block_device.h"
#include "virt/hostile_driver.h"

namespace nesc::ctrl {
namespace {

/** Bare-metal harness: controller + BAR router over DRAM media. */
class AdvHarness {
  public:
    explicit AdvHarness(const ControllerConfig &config = controller_config())
        : host_memory_(64 << 20), device_(device_config()), irq_(sim_),
          controller_(sim_, host_memory_, device_, irq_, config),
          bar_(controller_, 4096, controller_.num_functions())
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

    /** Windows covering @p fn's extent tree (latest created tree). */
    void
    window_tree(pcie::FunctionId fn, const extent::ExtentTreeImage &tree)
    {
        const auto [base, size] = tree.bounds();
        if (size != 0)
            add_window(fn, base, size);
    }

    void
    release_quarantine(pcie::FunctionId fn)
    {
        pf_write(reg::kMgmtVfId, fn);
        mgmt(MgmtCommand::kReleaseQuarantine);
    }

    std::unique_ptr<drv::FunctionDriver>
    make_driver(pcie::FunctionId fn,
                const drv::FunctionDriverConfig &config = {})
    {
        auto driver = std::make_unique<drv::FunctionDriver>(
            sim_, host_memory_, bar_, irq_, fn, config);
        EXPECT_TRUE(driver->init().is_ok());
        return driver;
    }

    sim::Simulator sim_;
    pcie::HostMemory host_memory_;
    storage::MemBlockDevice device_;
    pcie::InterruptController irq_;
    Controller controller_;
    pcie::BarPageRouter bar_;
    std::vector<extent::ExtentTreeImage> trees_;
};

/**
 * Hand-rolled guest rings with raw record control: lets a test submit
 * byte-exact descriptors (including invalid ones no driver would
 * build) and inspect the raw completions. Pair 0 is programmed through
 * the legacy ring-base registers; any other @p qid is created through
 * the function's kQp* admin block.
 */
struct RawGuest {
    RawGuest(AdvHarness &h, pcie::FunctionId fn,
             std::uint32_t entries = 32, std::uint32_t qid = 0)
        : h_(h), fn_(fn), entries_(entries), qid_(qid)
    {
        const auto cmd_fp =
            pcie::HostRing::footprint(entries, sizeof(CommandRecord));
        const auto comp_fp = pcie::HostRing::footprint(
            entries * 2, sizeof(CompletionRecord));
        cmd_base_ = *h.host_memory_.alloc(cmd_fp, 64);
        comp_base_ = *h.host_memory_.alloc(comp_fp, 64);
        buffer_ = *h.host_memory_.alloc(64 * 1024, 4096);
        recreate_rings();
    }

    /** Formats both rings empty and points the pair at them. */
    void
    recreate_rings()
    {
        EXPECT_TRUE(pcie::HostRing::create(h_.host_memory_, cmd_base_,
                                           entries_, sizeof(CommandRecord))
                        .is_ok());
        EXPECT_TRUE(pcie::HostRing::create(h_.host_memory_, comp_base_,
                                           entries_ * 2,
                                           sizeof(CompletionRecord))
                        .is_ok());
        program_rings();
    }

    void
    program_rings()
    {
        if (qid_ == 0) {
            vf_write(reg::kCmdRingBase, cmd_base_);
            vf_write(reg::kCompRingBase, comp_base_);
            return;
        }
        vf_write(reg::kQpSelect, qid_);
        vf_write(reg::kQpSqBase, cmd_base_);
        vf_write(reg::kQpCqBase, comp_base_);
        EXPECT_EQ(qp_command(QpCommand::kCreate), MgmtStatus::kOk);
    }

    /** Runs a kQp* admin command on this guest's pair. */
    MgmtStatus
    qp_command(QpCommand cmd)
    {
        vf_write(reg::kQpSelect, qid_);
        vf_write(reg::kQpCommand, static_cast<std::uint64_t>(cmd));
        return static_cast<MgmtStatus>(
            *h_.controller_.mmio_read(fn_, reg::kQpStatus, 8));
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

    void
    doorbell()
    {
        vf_write(qid_ == 0 ? reg::kDoorbell : reg::kQpDoorbell0 + 8 * qid_,
                 1);
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

    AdvHarness &h_;
    pcie::FunctionId fn_;
    std::uint32_t entries_;
    std::uint32_t qid_;
    pcie::HostAddr cmd_base_ = pcie::kNullHostAddr;
    pcie::HostAddr comp_base_ = pcie::kNullHostAddr;
    pcie::HostAddr buffer_ = pcie::kNullHostAddr;
    std::uint64_t next_tag_ = 1;
};

CommandRecord
valid_write(RawGuest &g, std::uint64_t vlba = 0)
{
    CommandRecord rec{};
    rec.vlba = vlba;
    rec.nblocks = 1;
    rec.opcode = static_cast<std::uint8_t>(Opcode::kWrite);
    rec.host_buffer = g.buffer_;
    rec.tag = g.next_tag_++;
    return rec;
}

// --- Retryability contract (driver-facing API) ----------------------

TEST(CompletionStatusTest, RetryabilityCoversEveryEnumerator)
{
    // Exactly the transient classes are retryable; everything the
    // validator emits is a deterministic rejection and must not be.
    EXPECT_FALSE(completion_status_retryable(CompletionStatus::kOk));
    EXPECT_FALSE(
        completion_status_retryable(CompletionStatus::kOutOfRange));
    EXPECT_FALSE(
        completion_status_retryable(CompletionStatus::kWriteFailed));
    EXPECT_FALSE(
        completion_status_retryable(CompletionStatus::kInternalError));
    EXPECT_TRUE(
        completion_status_retryable(CompletionStatus::kReadMediaError));
    EXPECT_TRUE(
        completion_status_retryable(CompletionStatus::kWriteMediaError));
    EXPECT_TRUE(completion_status_retryable(CompletionStatus::kAborted));
    EXPECT_FALSE(
        completion_status_retryable(CompletionStatus::kMalformed));
    EXPECT_FALSE(
        completion_status_retryable(CompletionStatus::kDmaFault));
}

TEST(CompletionStatusTest, SyncHelpersFailFastOnOutOfRange)
{
    AdvHarness h;
    const auto fn = h.create_vf({{0, 32, 1000}}, 32);
    auto driver = h.make_driver(fn);
    std::vector<std::byte> buf(1024);
    // Beyond the virtual device: a deterministic rejection must come
    // back as OUT_OF_RANGE (not the retryable kUnavailable class).
    util::Status status = driver->read_sync(1000, 1, buf);
    EXPECT_EQ(status.code(), util::ErrorCode::kOutOfRange);
}

// --- Descriptor validation ------------------------------------------

TEST(DescriptorValidation, MalformedFieldsCompleteKMalformed)
{
    AdvHarness h;
    const auto fn = h.create_vf({{0, 64, 2000}}, 64);
    RawGuest g(h, fn);

    CommandRecord bomb = valid_write(g);
    bomb.nblocks = 0x40000000; // would expand to a billion block ops
    CommandRecord misaligned = valid_write(g);
    misaligned.host_buffer = g.buffer_ + 1;
    CommandRecord null_buf = valid_write(g);
    null_buf.host_buffer = pcie::kNullHostAddr;
    CommandRecord bad_op = valid_write(g);
    bad_op.opcode = 99;
    CommandRecord wrap = valid_write(g);
    wrap.vlba = ~std::uint64_t{0} - 2;
    wrap.nblocks = 8;

    g.push(bomb);
    g.push(misaligned);
    g.push(null_buf);
    g.push(bad_op);
    g.push(wrap);
    g.push(valid_write(g, 3)); // a good command rides along
    g.doorbell();
    h.sim_.run_until_idle();

    auto comps = g.drain_completions();
    ASSERT_EQ(comps.size(), 6u);
    for (std::size_t i = 0; i < 5; ++i)
        EXPECT_EQ(comps[i].status,
                  static_cast<std::uint32_t>(CompletionStatus::kMalformed))
            << "descriptor " << i;
    EXPECT_EQ(comps[5].status,
              static_cast<std::uint32_t>(CompletionStatus::kOk));
    EXPECT_EQ(h.controller_.stats(fn).malformed, 5u);
    EXPECT_EQ(*h.controller_.mmio_read(fn, reg::kStatMalformed, 8), 5u);
    // Five faults < threshold (8): the function is NOT quarantined.
    EXPECT_FALSE(h.controller_.quarantined(fn));
}

TEST(DescriptorValidation, FullyOutOfRangeRejectedAtFetch)
{
    AdvHarness h;
    const auto fn = h.create_vf({{0, 64, 2000}}, 64);
    RawGuest g(h, fn);
    CommandRecord rec = valid_write(g, /*vlba=*/64); // first block OOR
    g.push(rec);
    g.doorbell();
    h.sim_.run_until_idle();
    auto comps = g.drain_completions();
    ASSERT_EQ(comps.size(), 1u);
    EXPECT_EQ(comps[0].status,
              static_cast<std::uint32_t>(CompletionStatus::kOutOfRange));
    // Out-of-range is driver error, not hostility: no quarantine fuel.
    EXPECT_EQ(h.controller_.stats(fn).malformed, 0u);
}

TEST(DescriptorValidation, MalformedStormQuarantines)
{
    AdvHarness h;
    const auto fn = h.create_vf({{0, 64, 2000}}, 64);
    RawGuest g(h, fn);
    const std::uint32_t threshold =
        h.controller_.config().quarantine_threshold;
    for (std::uint32_t i = 0; i < threshold; ++i) {
        CommandRecord rec = valid_write(g);
        rec.opcode = 200;
        g.push(rec);
    }
    g.doorbell();
    h.sim_.run_until_idle();

    EXPECT_TRUE(h.controller_.quarantined(fn));
    EXPECT_EQ(h.controller_.quarantine_cause(fn),
              QuarantineCause::kMalformedStorm);
    EXPECT_EQ(*h.controller_.mmio_read(fn, reg::kQuarantineStatus, 8), 1u);
    EXPECT_EQ(*h.controller_.mmio_read(fn, reg::kQuarantineCause, 8),
              static_cast<std::uint64_t>(QuarantineCause::kMalformedStorm));

    // Doorbells are dropped and counted while quarantined.
    const std::uint64_t before =
        h.controller_.stats(fn).doorbells_ignored;
    g.doorbell();
    h.sim_.run_until_idle();
    EXPECT_EQ(h.controller_.stats(fn).doorbells_ignored, before + 1);

    // The guest's own FnReset must NOT lift the quarantine.
    EXPECT_TRUE(
        h.controller_.mmio_write(fn, reg::kFnReset, 1, 8).is_ok());
    EXPECT_TRUE(h.controller_.quarantined(fn));

    // Only the PF release path does — and it leaves a reset, working fn.
    h.release_quarantine(fn);
    EXPECT_FALSE(h.controller_.quarantined(fn));
    EXPECT_EQ(h.controller_.quarantine_cause(fn), QuarantineCause::kNone);
    RawGuest g2(h, fn); // FLR detached the old rings; re-program
    g2.push(valid_write(g2, 5));
    g2.doorbell();
    h.sim_.run_until_idle();
    auto comps = g2.drain_completions();
    ASSERT_EQ(comps.size(), 1u);
    EXPECT_EQ(comps[0].status,
              static_cast<std::uint32_t>(CompletionStatus::kOk));
}

// --- Ring sanitization ----------------------------------------------

TEST(RingSanitization, SizeSurfacesCorruptCounters)
{
    pcie::HostMemory memory(1 << 20);
    const pcie::HostAddr base = *memory.alloc(
        pcie::HostRing::footprint(16, 32), 64);
    ASSERT_TRUE(pcie::HostRing::create(memory, base, 16, 32).is_ok());
    auto ring = pcie::HostRing::attach(memory, base);
    ASSERT_TRUE(ring.is_ok());

    // tail regressed below head: the wrapping used-count exceeds
    // capacity, which must surface as DATA_LOSS, not a ~2^32 size.
    auto header = *memory.read_pod<pcie::HostRing::Header>(base);
    header.head = 10;
    header.tail = 5;
    ASSERT_TRUE(memory.write_pod(base, header).is_ok());
    auto size = ring.value().size();
    ASSERT_FALSE(size.is_ok());
    EXPECT_EQ(size.status().code(), util::ErrorCode::kDataLoss);
    std::vector<std::byte> rec(32);
    EXPECT_FALSE(ring.value().pop(rec).is_ok());

    // Shape change after attach is equally rejected.
    header.head = 0;
    header.tail = 0;
    header.record_size = 64;
    ASSERT_TRUE(memory.write_pod(base, header).is_ok());
    EXPECT_FALSE(ring.value().load_header().is_ok());
}

TEST(RingSanitization, CounterTamperingDropsDoorbell)
{
    AdvHarness h;
    const auto fn = h.create_vf({{0, 64, 2000}}, 64);
    RawGuest g(h, fn);

    // Establish the attachment with one clean command.
    g.push(valid_write(g, 0));
    g.doorbell();
    h.sim_.run_until_idle();
    ASSERT_EQ(g.drain_completions().size(), 1u);

    // Rewind the device-owned consumer counter and queue a command the
    // device must now refuse to trust.
    auto header =
        *h.host_memory_.read_pod<pcie::HostRing::Header>(g.cmd_base_);
    header.head -= 1;
    header.tail += 1;
    ASSERT_TRUE(h.host_memory_.write_pod(g.cmd_base_, header).is_ok());
    const std::uint64_t commands_before = h.controller_.stats(fn).commands;
    g.doorbell();
    h.sim_.run_until_idle();
    EXPECT_EQ(h.controller_.stats(fn).commands, commands_before);
    EXPECT_GE(h.controller_.stats(fn).ring_corruptions, 1u);
    EXPECT_EQ(g.drain_completions().size(), 0u);
}

// --- PF-only register protection ------------------------------------

TEST(RegisterProtection, VfWritesToPfRegsRejectedAndCounted)
{
    AdvHarness h;
    const auto fn = h.create_vf({{0, 32, 1000}}, 32);
    const std::uint64_t pf_only[] = {
        reg::kExtentTreeRoot,    reg::kMgmtVfId,
        reg::kMgmtExtentRoot,    reg::kMgmtDeviceSize,
        reg::kMgmtQosWeight,     reg::kMgmtCommand,
        reg::kBtlbGeometry,      reg::kNodeCacheBytes,
        reg::kWalkCoalesce,      reg::kDmaWindowBase,
        reg::kDmaWindowSize,     reg::kQuarantineThreshold,
        reg::kQuarantineWindowNs,
    };
    std::uint64_t expected = 0;
    for (std::uint64_t offset : pf_only) {
        util::Status status =
            h.controller_.mmio_write(fn, offset, 0xdead, 8);
        EXPECT_FALSE(status.is_ok()) << "offset " << offset;
        EXPECT_EQ(status.code(), util::ErrorCode::kPermissionDenied)
            << "offset " << offset;
        ++expected;
        EXPECT_EQ(h.controller_.stats(fn).reg_violations, expected);
    }
    EXPECT_EQ(*h.controller_.mmio_read(fn, reg::kStatRegViolations, 8),
              expected);
    // Probing did not quarantine (counted, not storm fuel) and the
    // same registers accept PF writes.
    EXPECT_FALSE(h.controller_.quarantined(fn));
    EXPECT_TRUE(h.controller_
                    .mmio_write(0, reg::kDmaWindowBase, 0x1000, 8)
                    .is_ok());
    EXPECT_TRUE(h.controller_
                    .mmio_write(0, reg::kQuarantineThreshold, 16, 8)
                    .is_ok());
    EXPECT_EQ(*h.controller_.mmio_read(0, reg::kQuarantineThreshold, 8),
              16u);
}

// --- DMA windows ----------------------------------------------------

TEST(DmaWindows, OobBufferFaultsAndQuarantines)
{
    AdvHarness h;
    const auto fn = h.create_vf({{0, 64, 2000}}, 64);
    RawGuest g(h, fn);

    // Victim canary the hostile descriptor will aim at.
    const pcie::HostAddr canary = *h.host_memory_.alloc(4096, 64);
    std::vector<std::byte> pattern(4096, std::byte{0x5a});
    ASSERT_TRUE(h.host_memory_.write(canary, pattern).is_ok());

    // Confine the fn to its own rings/buffer plus its extent tree.
    h.window_tree(fn, h.trees_.back());
    h.add_window(fn, g.cmd_base_,
                 pcie::HostRing::footprint(32, sizeof(CommandRecord)));
    h.add_window(fn, g.comp_base_,
                 pcie::HostRing::footprint(64, sizeof(CompletionRecord)));
    h.add_window(fn, g.buffer_, 64 * 1024);

    // A confined guest doing honest I/O is unaffected.
    g.push(valid_write(g, 1));
    g.doorbell();
    h.sim_.run_until_idle();
    auto comps = g.drain_completions();
    ASSERT_EQ(comps.size(), 1u);
    EXPECT_EQ(comps[0].status,
              static_cast<std::uint32_t>(CompletionStatus::kOk));

    // A read (device write to host) aimed at the canary: refused with
    // kDmaFault, quarantined immediately, canary untouched.
    CommandRecord attack = valid_write(g, 2);
    attack.opcode = static_cast<std::uint8_t>(Opcode::kRead);
    attack.host_buffer = canary;
    g.push(attack);
    g.doorbell();
    h.sim_.run_until_idle();

    comps = g.drain_completions();
    ASSERT_EQ(comps.size(), 1u);
    EXPECT_EQ(comps[0].status,
              static_cast<std::uint32_t>(CompletionStatus::kDmaFault));
    EXPECT_TRUE(h.controller_.quarantined(fn));
    EXPECT_EQ(h.controller_.quarantine_cause(fn),
              QuarantineCause::kDmaViolation);
    EXPECT_GE(h.controller_.stats(fn).dma_violations, 1u);
    std::vector<std::byte> readback(4096);
    ASSERT_TRUE(h.host_memory_.read(canary, readback).is_ok());
    EXPECT_EQ(readback, pattern);
}

TEST(DmaWindows, RingOutsideWindowsQuarantines)
{
    AdvHarness h;
    const auto fn = h.create_vf({{0, 64, 2000}}, 64);
    RawGuest g(h, fn);
    h.window_tree(fn, h.trees_.back());
    h.add_window(fn, g.cmd_base_,
                 pcie::HostRing::footprint(32, sizeof(CommandRecord)));
    h.add_window(fn, g.comp_base_,
                 pcie::HostRing::footprint(64, sizeof(CompletionRecord)));
    h.add_window(fn, g.buffer_, 64 * 1024);

    // Repoint the command ring at a well-formed ring OUTSIDE the
    // windows: the attach-time window check must quarantine.
    const pcie::HostAddr rogue = *h.host_memory_.alloc(
        pcie::HostRing::footprint(16, sizeof(CommandRecord)), 64);
    ASSERT_TRUE(pcie::HostRing::create(h.host_memory_, rogue, 16,
                                       sizeof(CommandRecord))
                    .is_ok());
    ASSERT_TRUE(
        h.controller_.mmio_write(fn, reg::kCmdRingBase, rogue, 8).is_ok());
    g.doorbell();
    h.sim_.run_until_idle();
    EXPECT_TRUE(h.controller_.quarantined(fn));
    EXPECT_EQ(h.controller_.quarantine_cause(fn),
              QuarantineCause::kDmaViolation);
    EXPECT_GE(h.controller_.dma().window_violations(), 1u);
}

TEST(DmaWindows, QuarantineAbortsInFlightAndSparesNeighbor)
{
    AdvHarness h;
    const auto victim = h.create_vf({{0, 64, 1000}}, 64, 1);
    const auto hostile = h.create_vf({{0, 64, 2000}}, 64, 2);
    auto victim_driver = h.make_driver(victim);
    RawGuest g(h, hostile);

    // Enough malformed records to trip the storm with one in-flight
    // valid command ahead of them: the valid one must abort.
    g.push(valid_write(g, 0));
    const std::uint32_t threshold =
        h.controller_.config().quarantine_threshold;
    for (std::uint32_t i = 0; i < threshold; ++i) {
        CommandRecord rec = valid_write(g);
        rec.nblocks = 0;
        g.push(rec);
    }
    g.doorbell();

    // Victim I/O proceeds through the shared pipeline meanwhile.
    std::vector<std::byte> data(4096, std::byte{0x11});
    ASSERT_TRUE(victim_driver->write_sync(8, 4, data).is_ok());
    std::vector<std::byte> back(4096);
    ASSERT_TRUE(victim_driver->read_sync(8, 4, back).is_ok());
    EXPECT_EQ(back, data);
    h.sim_.run_until_idle();

    EXPECT_TRUE(h.controller_.quarantined(hostile));
    EXPECT_FALSE(h.controller_.quarantined(victim));
    auto comps = g.drain_completions();
    // threshold malformed completions + 1 aborted in-flight command.
    ASSERT_EQ(comps.size(), threshold + 1u);
    std::size_t aborted = 0;
    for (const auto &rec : comps)
        if (rec.status ==
            static_cast<std::uint32_t>(CompletionStatus::kAborted))
            ++aborted;
    EXPECT_EQ(aborted, 1u);
    EXPECT_EQ(h.controller_.stats(victim).faults, 0u);
}

// --- Completions in flight across teardown --------------------------

/**
 * Runs until @p g's single write has completed its last block but its
 * completion record is not yet posted (the completion-engine latency).
 */
void
run_to_completion_window(AdvHarness &h, RawGuest &g)
{
    g.push(valid_write(g, 0));
    g.doorbell();
    while (!h.controller_.quiescent() && h.sim_.step()) {
    }
    ASSERT_TRUE(h.controller_.quiescent());
    ASSERT_EQ(h.controller_.stats(g.fn_).completions, 0u);
}

TEST(CompletionTeardown, FnResetDropsTheInFlightCompletion)
{
    // The driver's FLR recovery at the same simulated time: reset,
    // re-create the rings, re-program pair 0. The completion of the
    // command the reset tore down dies with the old pair; it must not
    // land on the new CQ or raise an MSI.
    AdvHarness h;
    const auto fn = h.create_vf({{0, 64, 2000}}, 64);
    RawGuest g(h, fn);
    run_to_completion_window(h, g);
    const std::uint64_t irqs = h.irq_.raised();
    g.vf_write(reg::kFnReset, 1);
    g.recreate_rings();
    h.sim_.run_until_idle();
    EXPECT_TRUE(g.drain_completions().empty());
    EXPECT_EQ(h.irq_.raised(), irqs);
    EXPECT_EQ(h.controller_.stats(fn).completions, 0u);

    // The fresh pair 0 serves new work normally.
    g.push(valid_write(g, 1));
    g.doorbell();
    h.sim_.run_until_idle();
    const auto comps = g.drain_completions();
    ASSERT_EQ(comps.size(), 1u);
    EXPECT_EQ(comps[0].tag, 2u);
    EXPECT_EQ(comps[0].status,
              static_cast<std::uint32_t>(CompletionStatus::kOk));
}

TEST(CompletionTeardown, QpDeleteAndRecreateDropsTheInFlightCompletion)
{
    // Same shape on an extra pair: the driver deletes pair 1 and
    // re-creates the same qid while a completion is in flight.
    AdvHarness h;
    const auto fn = h.create_vf({{0, 64, 2000}}, 64);
    h.pf_write(reg::kMgmtVfId, fn);
    h.pf_write(reg::kMgmtQpQuota, 2);
    h.mgmt(MgmtCommand::kSetQpQuota);
    RawGuest g(h, fn, 32, /*qid=*/1);
    run_to_completion_window(h, g);
    const std::uint64_t irqs = h.irq_.raised();
    ASSERT_EQ(g.qp_command(QpCommand::kDelete), MgmtStatus::kOk);
    g.recreate_rings();
    ASSERT_EQ(h.controller_.queue_pair_count(fn), 2u);
    h.sim_.run_until_idle();
    EXPECT_TRUE(g.drain_completions().empty());
    EXPECT_EQ(h.irq_.raised(), irqs);
    EXPECT_EQ(h.controller_.stats(fn).completions, 0u);
}

TEST(CompletionTeardown, CoalescedMsiTimerDiesWithItsPair)
{
    // With interrupt coalescing, a posted completion arms a one-shot
    // MSI timer on its pair. The driver deletes and re-creates the
    // pair before the timer fires; the re-created pair then completes
    // two writes, one either side of the old timer's expiry but both
    // inside its own first window. The old timer must neither raise an
    // MSI nor clear the new pair's pending flag (which would let the
    // second write arm a timer of its own): one MSI covers both.
    constexpr sim::Duration kWindow = 100 * sim::kUs;
    ControllerConfig cfg = AdvHarness::controller_config();
    cfg.irq_coalesce = kWindow;
    AdvHarness h(cfg);
    const auto fn = h.create_vf({{0, 64, 2000}}, 64);
    h.pf_write(reg::kMgmtVfId, fn);
    h.pf_write(reg::kMgmtQpQuota, 2);
    h.mgmt(MgmtCommand::kSetQpQuota);
    RawGuest g(h, fn, 32, /*qid=*/1);
    g.push(valid_write(g, 0));
    g.doorbell();
    while (h.controller_.stats(fn).completions == 0 && h.sim_.step()) {
    }
    ASSERT_EQ(h.controller_.stats(fn).completions, 1u);
    const sim::Time posted = h.sim_.now(); // old timer fires at +kWindow
    const std::uint64_t irqs = h.irq_.raised();
    ASSERT_EQ(g.qp_command(QpCommand::kDelete), MgmtStatus::kOk);
    g.recreate_rings();

    auto submit = [&g](std::uint64_t vlba) {
        g.push(valid_write(g, vlba));
        g.doorbell();
    };
    h.sim_.schedule_at(posted + kWindow / 2, [&]() { submit(1); });
    h.sim_.schedule_at(posted + kWindow * 12 / 10, [&]() { submit(2); });
    h.sim_.run_until_idle();
    EXPECT_EQ(g.drain_completions().size(), 2u);
    EXPECT_EQ(h.irq_.raised() - irqs, 1u);
}

// --- Fetches and timers in flight across teardown -------------------

/**
 * Rings @p g's doorbell at t=0; 100 ns later, before the fetch runs,
 * @p teardown resets or re-creates the pair, and the driver re-creates
 * the rings and pushes one record without ringing. The pending fetch
 * belonged to the old pair, so it must not drain the new ring; the
 * record waits for a doorbell of its own.
 */
void
expect_stale_fetch_drops(AdvHarness &h, RawGuest &g, auto teardown)
{
    g.doorbell();
    h.sim_.schedule_at(h.sim_.now() + 100, [&]() {
        teardown();
        g.recreate_rings();
        g.push(valid_write(g, 0));
    });
    h.sim_.run_until_idle();
    EXPECT_EQ(h.controller_.stats(g.fn_).commands, 0u);
    EXPECT_EQ(h.controller_.stats(g.fn_).completions, 0u);
    EXPECT_TRUE(g.drain_completions().empty());

    g.doorbell();
    h.sim_.run_until_idle();
    EXPECT_EQ(g.drain_completions().size(), 1u);
}

TEST(FetchTeardown, FnResetDropsThePendingFetch)
{
    AdvHarness h;
    const auto fn = h.create_vf({{0, 64, 2000}}, 64);
    RawGuest g(h, fn);
    expect_stale_fetch_drops(h, g, [&]() { g.vf_write(reg::kFnReset, 1); });
}

TEST(FetchTeardown, QpDeleteAndRecreateDropsThePendingFetch)
{
    AdvHarness h;
    const auto fn = h.create_vf({{0, 64, 2000}}, 64);
    h.pf_write(reg::kMgmtVfId, fn);
    h.pf_write(reg::kMgmtQpQuota, 2);
    h.mgmt(MgmtCommand::kSetQpQuota);
    RawGuest g(h, fn, 32, /*qid=*/1);
    expect_stale_fetch_drops(h, g, [&]() {
        EXPECT_EQ(g.qp_command(QpCommand::kDelete), MgmtStatus::kOk);
    });
}

/**
 * Events executed in [30 us, 90 us) while a VF's writes all stall on a
 * write miss, one every 3 us, so the 10 us watchdog aborts each in
 * turn. With @p flr, a stalled write first arms the watchdog and the
 * VF resets at 500 ns; without, nothing happens before 500 ns. Both
 * runs then set the watchdog at 500 ns and submit the same writes, so
 * the counts differ only by watchdog timers the reset left running.
 */
std::uint64_t
watchdog_interval_events(bool flr)
{
    constexpr sim::Duration kWatchdog = 10 * sim::kUs;
    AdvHarness h;
    const auto fn = h.create_vf({{0, 64, 2000}}, 128); // 64.. unallocated
    RawGuest g(h, fn);
    auto stalled_write = [&g]() {
        g.push(valid_write(g, 100));
        g.doorbell();
    };
    if (flr) {
        g.vf_write(reg::kWatchdogNs, kWatchdog);
        stalled_write();
    }
    h.sim_.schedule_at(500, [&]() {
        if (flr) {
            g.vf_write(reg::kFnReset, 1);
            g.recreate_rings();
        }
        g.vf_write(reg::kWatchdogNs, kWatchdog);
    });
    for (sim::Time t = 1 * sim::kUs; t < 100 * sim::kUs; t += 3 * sim::kUs)
        h.sim_.schedule_at(t, stalled_write);
    h.sim_.run_until(30 * sim::kUs);
    const std::uint64_t before = h.sim_.events_executed();
    h.sim_.run_until(90 * sim::kUs);
    EXPECT_GT(h.controller_.stats(fn).aborted_ops, 10u);
    return h.sim_.events_executed() - before;
}

TEST(WatchdogTeardown, FnResetLeavesOneTimerChain)
{
    // The timer armed before the reset still fires once, before the
    // interval; after that, one chain must serve the re-armed watchdog.
    EXPECT_EQ(watchdog_interval_events(true), watchdog_interval_events(false));
}

// --- Deterministic misbehavior fuzzer -------------------------------

/**
 * One fuzz campaign: a confined HostileDriver on fn 2 emits @p events
 * seeded misbehavior events while a well-behaved FunctionDriver on
 * fn 1 keeps doing verified I/O. Containment invariants (victim never
 * quarantined, canary byte-identical, victim data integrity) are
 * checked throughout; the PF releases + repairs the hostile fn
 * periodically so post-release behavior is exercised too.
 */
struct FuzzOutcome {
    std::uint64_t hostile_events = 0;
    std::uint64_t well_formed = 0;
    std::uint64_t quarantines = 0;
    std::uint64_t releases = 0;
    std::uint64_t malformed = 0;
    std::uint64_t ring_corruptions = 0;
    std::uint64_t dma_violations = 0;
    std::uint64_t reg_violations = 0;
    std::uint64_t victim_completed = 0;
    std::uint64_t end_time = 0;

    std::string
    to_string() const
    {
        std::ostringstream os;
        os << hostile_events << ' ' << well_formed << ' ' << quarantines
           << ' ' << releases << ' ' << malformed << ' '
           << ring_corruptions << ' ' << dma_violations << ' '
           << reg_violations << ' ' << victim_completed << ' '
           << end_time;
        return os.str();
    }
};

FuzzOutcome
run_fuzz_campaign(std::uint64_t seed, std::uint64_t events)
{
    AdvHarness h;
    const auto victim = h.create_vf({{0, 128, 1000}}, 128, 1);
    const auto hostile = h.create_vf({{0, 128, 4000}}, 128, 2);
    auto driver = h.make_driver(victim);

    virt::HostileDriver hd(h.sim_, h.host_memory_, h.bar_, hostile, seed);
    EXPECT_TRUE(hd.init().is_ok());
    // Confine the hostile fn to its own sandbox plus its extent tree;
    // every DMA it coaxes out of the device beyond that quarantines it.
    h.add_window(hostile, hd.region_base(), hd.region_size());
    h.window_tree(hostile, h.trees_.back());

    // Canary page the hostile fn does not own: if any attack escapes
    // the windows, these bytes change.
    const pcie::HostAddr canary = *h.host_memory_.alloc(4096, 64);
    std::vector<std::byte> pattern(4096);
    for (std::size_t i = 0; i < pattern.size(); ++i)
        pattern[i] = static_cast<std::byte>((seed * 131 + i) & 0xff);
    EXPECT_TRUE(h.host_memory_.write(canary, pattern).is_ok());

    // NESC_FUZZ_TRACE=1 prints campaign progress, for bisecting a
    // misbehaving seed/event offset during replay.
    const bool trace = std::getenv("NESC_FUZZ_TRACE") != nullptr;
    FuzzOutcome out;
    std::vector<std::byte> wr(2 * kDeviceBlockSize);
    std::vector<std::byte> rd(2 * kDeviceBlockSize);
    for (std::uint64_t i = 0; i < events; ++i) {
        if (trace && i % 64 == 0)
            std::fprintf(stderr, "fuzz seed %llu event %llu t=%llu\n",
                         static_cast<unsigned long long>(seed),
                         static_cast<unsigned long long>(i),
                         static_cast<unsigned long long>(h.sim_.now()));
        hd.step();
        if (i % 16 == 15) {
            // Victim does a verified write+read round mid-attack.
            const std::uint64_t vlba = (i / 16) % 126;
            std::fill(wr.begin(), wr.end(),
                      static_cast<std::byte>((seed + i) & 0xff));
            EXPECT_TRUE(driver->write_sync(vlba, 2, wr).is_ok())
                << "seed " << seed << " event " << i;
            EXPECT_TRUE(driver->read_sync(vlba, 2, rd).is_ok())
                << "seed " << seed << " event " << i;
            EXPECT_EQ(rd, wr) << "seed " << seed << " event " << i;
        }
        if (i % 64 == 63) {
            h.sim_.run_until_idle();
            EXPECT_FALSE(h.controller_.quarantined(victim))
                << "seed " << seed << " event " << i;
            std::vector<std::byte> readback(4096);
            EXPECT_TRUE(h.host_memory_.read(canary, readback).is_ok());
            EXPECT_EQ(readback, pattern)
                << "canary clobbered; seed " << seed << " event " << i;
        }
        if (i % 256 == 255 && h.controller_.quarantined(hostile)) {
            h.release_quarantine(hostile);
            hd.repair();
            ++out.releases;
        }
    }
    h.sim_.run_until_idle();

    EXPECT_FALSE(h.controller_.quarantined(victim));
    std::vector<std::byte> readback(4096);
    EXPECT_TRUE(h.host_memory_.read(canary, readback).is_ok());
    EXPECT_EQ(readback, pattern) << "canary clobbered; seed " << seed;
    // The campaign exercised both honest and hostile behavior.
    EXPECT_GT(hd.well_formed_submitted(), 0u) << "seed " << seed;

    const FunctionStats &hs = h.controller_.stats(hostile);
    out.hostile_events = hd.events();
    out.well_formed = hd.well_formed_submitted();
    out.quarantines = hs.quarantines;
    out.malformed = hs.malformed;
    out.ring_corruptions = hs.ring_corruptions;
    out.dma_violations = hs.dma_violations;
    out.reg_violations = hs.reg_violations;
    out.victim_completed = driver->completed();
    out.end_time = static_cast<std::uint64_t>(h.sim_.now());
    return out;
}

TEST(AdversarialFuzz, SeededHostileGuestIsContained)
{
    // NESC_FUZZ_EVENTS overrides the per-seed event count (the tier-2
    // sanitizer smoke run uses a smaller one to fit its time budget).
    std::uint64_t events = 10000;
    if (const char *env = std::getenv("NESC_FUZZ_EVENTS"))
        events = std::strtoull(env, nullptr, 10);

    std::uint64_t total_quarantines = 0;
    std::uint64_t total_violations = 0;
    for (std::uint64_t seed = 1; seed <= 10; ++seed) {
        const FuzzOutcome out = run_fuzz_campaign(seed, events);
        total_quarantines += out.quarantines;
        total_violations += out.malformed + out.ring_corruptions +
                            out.dma_violations + out.reg_violations;
    }
    // Across 10 seeds the hostile guest must actually have tripped the
    // containment machinery (otherwise the fuzzer is toothless).
    EXPECT_GT(total_quarantines, 0u);
    EXPECT_GT(total_violations, 0u);
}

TEST(AdversarialFuzz, SameSeedSameOutcome)
{
    // The stream is a pure function of the seed: a failing campaign
    // replays exactly, and different seeds explore different paths.
    const FuzzOutcome a = run_fuzz_campaign(42, 1024);
    const FuzzOutcome b = run_fuzz_campaign(42, 1024);
    EXPECT_EQ(a.to_string(), b.to_string());
    const FuzzOutcome c = run_fuzz_campaign(43, 1024);
    EXPECT_NE(a.to_string(), c.to_string());
}

} // namespace
} // namespace nesc::ctrl

/**
 * @file
 * Media-path golden: the data-transfer unit's observable behaviour on
 * local media and on a 3-way replica set, both with the checksum
 * sidecar attached, pinned against tests/golden/media_paths.txt.
 *
 * Every scenario runs on a fresh rig. It records each op's completion
 * status and simulated completion time, then the controller's metrics,
 * the VF's FunctionStats, the sidecar's record/verify counts and the
 * controller's integrity counters. A change to either media leg's op
 * order, timing, recovery ladder, scrub loop or accounting shows up as
 * a line diff; on a mismatch the full render is written to
 * media_paths.actual in the working directory.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <functional>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "drivers/function_driver.h"
#include "extent/tree_image.h"
#include "nesc/controller.h"
#include "repl/replica_set.h"
#include "sim/simulator.h"
#include "storage/faulty_block_device.h"
#include "storage/integrity_map.h"
#include "storage/mem_block_device.h"
#include "util/crc32c.h"

namespace nesc::ctrl {
namespace {

constexpr std::uint64_t kDataBlocks = 256;
constexpr std::uint64_t kVfBlocks = 64;

enum class Leg { kLocal, kReplicated };

/**
 * Which media a scheduled fault lands on: the device holding the data
 * the VF reads first (the local media, or backend 0 of the set, which
 * read routing prefers on ties), or the device holding the sidecar
 * (always the local media).
 */
enum class Target { kData, kSidecar };

/** Bare-metal controller + sidecar, optionally behind a 3-way set. */
class Rig {
  public:
    Rig(Leg leg, Target target, const storage::FaultPlan &plan)
        : leg_(leg), host_memory_(16 << 20), media_(media_config()),
          device_(media_, local_plan(leg, target, plan)), irq_(sim_),
          controller_(sim_, host_memory_, device_, irq_, config()),
          bar_(controller_, 4096, controller_.num_functions())
    {
        auto map = storage::IntegrityMap::format(device_, kDataBlocks);
        EXPECT_TRUE(map.is_ok()) << map.status().to_string();
        map_ = std::move(map).value();
        EXPECT_TRUE(controller_.attach_integrity(map_.get()).is_ok());
        if (leg == Leg::kReplicated)
            attach_replicas(target == Target::kData ? plan
                                                    : storage::FaultPlan{});
        create_identity_vf();
        drv::FunctionDriverConfig no_retries;
        no_retries.max_retries = 0;
        driver_ = std::make_unique<drv::FunctionDriver>(
            sim_, host_memory_, bar_, irq_, kVf, no_retries);
        EXPECT_TRUE(driver_->init().is_ok());
    }

    /** The faulty device a Target names on this rig. */
    storage::FaultyBlockDevice &
    device(Target target)
    {
        if (leg_ == Leg::kReplicated && target == Target::kData)
            return *faulty_backends_.front();
        return device_;
    }

    /** Flips one stored bit of @p plba in the data copy the VF reads. */
    void
    damage(std::uint64_t plba)
    {
        storage::BlockDevice &inner = device(Target::kData).inner();
        std::vector<std::byte> raw(1024);
        ASSERT_TRUE(inner.read(plba * 1024, raw).is_ok());
        raw[100] ^= std::byte{0x04};
        ASSERT_TRUE(inner.write(plba * 1024, raw).is_ok());
    }

    void write(std::uint64_t vlba) { io(Opcode::kWrite, vlba); }
    void read(std::uint64_t vlba) { io(Opcode::kRead, vlba); }

    /** One PF scrub pass over the whole data region. */
    void
    scrub()
    {
        ASSERT_TRUE(controller_
                        .mmio_write(0, reg::kMgmtCommand,
                                    static_cast<std::uint64_t>(
                                        MgmtCommand::kScrubStart),
                                    8)
                        .is_ok());
        const std::uint64_t mgmt =
            *controller_.mmio_read(0, reg::kMgmtStatus, 4);
        sim_.run_until_idle();
        log_ << "op scrub mgmt=" << mgmt
             << " running=" << controller_.scrub_running()
             << " progress=" << controller_.scrub_progress()
             << " t=" << sim_.now() << "\n";
    }

    /** Op log plus the post-scenario state, as golden text. */
    std::string
    render()
    {
        std::ostringstream out;
        out << log_.str();
        out << "counters " << controller_.counters().to_json() << "\n";
        const FunctionStats &s = controller_.stats(kVf);
        out << "stats commands=" << s.commands
            << " blocks_read=" << s.blocks_read
            << " blocks_written=" << s.blocks_written
            << " holes_zero_filled=" << s.holes_zero_filled
            << " faults=" << s.faults << " completions=" << s.completions
            << " media_errors=" << s.media_errors
            << " aborted_ops=" << s.aborted_ops
            << " fn_resets=" << s.fn_resets << " malformed=" << s.malformed
            << " ring_corruptions=" << s.ring_corruptions
            << " dma_violations=" << s.dma_violations
            << " reg_violations=" << s.reg_violations
            << " quarantines=" << s.quarantines
            << " doorbells_ignored=" << s.doorbells_ignored
            << " dead_doorbells=" << s.dead_doorbells
            << " checksum_errors=" << s.checksum_errors
            << " slo_breaches=" << s.slo_breaches << "\n";
        out << "map records=" << map_->records()
            << " verifies=" << map_->verifies() << "\n";
        out << "integrity mismatches=" << controller_.integrity_mismatches()
            << " repairs=" << controller_.integrity_repairs()
            << " scrub_errors=" << controller_.scrub_errors() << "\n";
        return out.str();
    }

  private:
    static constexpr pcie::FunctionId kVf = 1;

    static storage::MemBlockDeviceConfig
    media_config()
    {
        storage::MemBlockDeviceConfig cfg;
        cfg.capacity_bytes =
            (kDataBlocks +
             storage::IntegrityMap::sidecar_blocks(kDataBlocks, 1024)) *
            1024;
        return cfg;
    }

    static storage::FaultPlan
    local_plan(Leg leg, Target target, const storage::FaultPlan &plan)
    {
        return leg == Leg::kLocal || target == Target::kSidecar
                   ? plan
                   : storage::FaultPlan{};
    }

    static ControllerConfig
    config()
    {
        ControllerConfig cfg;
        cfg.max_vfs = 2;
        return cfg;
    }

    void
    attach_replicas(const storage::FaultPlan &backend0_plan)
    {
        replicas_ = std::make_unique<repl::ReplicaSet>(
            sim_, repl::ReplicaSetConfig{});
        repl::BackendConfig backend;
        backend.link_bytes_per_sec = 0;
        backend.link_latency = 1'000;
        backend.journal_blocks = 16;
        storage::MemBlockDeviceConfig cfg;
        cfg.capacity_bytes = media_.geometry().capacity_bytes +
                             backend.journal_blocks * 1024;
        for (int i = 0; i < 3; ++i) {
            backends_.push_back(std::make_unique<storage::MemBlockDevice>(cfg));
            faulty_backends_.push_back(
                std::make_unique<storage::FaultyBlockDevice>(
                    *backends_.back(),
                    i == 0 ? backend0_plan : storage::FaultPlan{}));
            replicas_->add_backend(*faulty_backends_.back(), backend);
        }
        ASSERT_TRUE(controller_.attach_replicas(replicas_.get()).is_ok());
    }

    /** Identity-mapped VF: vLBA == pLBA over [0, kVfBlocks). */
    void
    create_identity_vf()
    {
        extent::ExtentList extents{{0, kVfBlocks, 0}};
        auto image = extent::ExtentTreeImage::build(host_memory_, extents);
        ASSERT_TRUE(image.is_ok());
        tree_ = std::make_unique<extent::ExtentTreeImage>(
            std::move(image).value());
        ASSERT_TRUE(controller_.mmio_write(0, reg::kMgmtVfId, kVf, 8).is_ok());
        ASSERT_TRUE(controller_
                        .mmio_write(0, reg::kMgmtExtentRoot, tree_->root(), 8)
                        .is_ok());
        ASSERT_TRUE(controller_
                        .mmio_write(0, reg::kMgmtDeviceSize, kVfBlocks, 8)
                        .is_ok());
        ASSERT_TRUE(controller_
                        .mmio_write(0, reg::kMgmtCommand,
                                    static_cast<std::uint64_t>(
                                        MgmtCommand::kCreateVf),
                                    8)
                        .is_ok());
    }

    /** One 1-block command, run to completion; logs status and time. */
    void
    io(Opcode op, std::uint64_t vlba)
    {
        auto buffer = host_memory_.alloc(1024, 64);
        ASSERT_TRUE(buffer.is_ok());
        std::vector<std::byte> data(1024);
        for (std::size_t i = 0; i < data.size(); ++i)
            data[i] = static_cast<std::byte>(vlba * 7 + i);
        if (op == Opcode::kWrite) {
            ASSERT_TRUE(host_memory_.write(*buffer, data).is_ok());
        }
        bool done = false;
        CompletionStatus status = CompletionStatus::kOk;
        sim::Time t_done = 0;
        ASSERT_TRUE(driver_
                        ->submit(op, vlba, 1, *buffer,
                                 [&](CompletionStatus s) {
                                     done = true;
                                     status = s;
                                     t_done = sim_.now();
                                 })
                        .is_ok());
        sim_.run_until_idle();
        ASSERT_TRUE(done);
        log_ << "op " << (op == Opcode::kWrite ? "write" : "read")
             << " vlba=" << vlba
             << " status=" << static_cast<std::uint32_t>(status)
             << " t=" << t_done;
        if (op == Opcode::kRead && status == CompletionStatus::kOk) {
            ASSERT_TRUE(host_memory_.read(*buffer, data).is_ok());
            log_ << " crc=" << util::crc32c(data);
        }
        log_ << "\n";
        ASSERT_TRUE(host_memory_.free(*buffer).is_ok());
    }

    Leg leg_;
    sim::Simulator sim_;
    pcie::HostMemory host_memory_;
    storage::MemBlockDevice media_;
    storage::FaultyBlockDevice device_;
    pcie::InterruptController irq_;
    // The replica set must outlive the controller.
    std::vector<std::unique_ptr<storage::MemBlockDevice>> backends_;
    std::vector<std::unique_ptr<storage::FaultyBlockDevice>> faulty_backends_;
    std::unique_ptr<repl::ReplicaSet> replicas_;
    Controller controller_;
    pcie::BarPageRouter bar_;
    std::unique_ptr<storage::IntegrityMap> map_;
    std::unique_ptr<extent::ExtentTreeImage> tree_;
    std::unique_ptr<drv::FunctionDriver> driver_;
    std::ostringstream log_;
};

using Steps = std::function<void(Rig &)>;

/**
 * Runs @p setup, then @p steps, on a rig whose @p target device fails
 * its next media op after @p setup (plus @p skip) with @p fault. The
 * op index is learned on a fault-free dry run of @p setup: the rig is
 * deterministic, so the armed run reaches the same index.
 */
std::string
run_with_fault(Leg leg, Target target, storage::InjectedFault fault,
               std::uint64_t skip, const Steps &setup, const Steps &steps)
{
    std::uint64_t index = 0;
    {
        Rig dry(leg, target, {});
        setup(dry);
        index = dry.device(target).ops_seen() + skip;
    }
    storage::FaultPlan plan;
    plan.schedule.push_back({index, fault});
    Rig rig(leg, target, plan);
    setup(rig);
    steps(rig);
    return rig.render();
}

std::string
render_leg(Leg leg)
{
    using storage::InjectedFault;
    const bool local = leg == Leg::kLocal;
    const Steps write5 = [](Rig &r) { r.write(5); };
    const Steps write8 = [](Rig &r) {
        for (std::uint64_t b = 0; b < 8; ++b)
            r.write(b);
    };
    const Steps read5 = [](Rig &r) { r.read(5); };
    const Steps nothing = [](Rig &) {};
    std::ostringstream out;
    const auto scenario = [&](const char *name, const std::string &text) {
        out << "== " << (local ? "local" : "replicated3") << " " << name
            << "\n"
            << text;
    };

    {
        Rig rig(leg, Target::kData, {});
        rig.write(5);
        rig.read(5);
        scenario("clean_write_read", rig.render());
    }
    // A silent flip on the read's first media op: rung 1's re-read of
    // the same copy comes back clean.
    scenario("transient_flip_rung1",
             run_with_fault(leg, Target::kData, InjectedFault::kCorrupt, 0,
                            write5, read5));
    {
        // Stored damage on the copy reads prefer: the local leg has no
        // second copy, the set repairs it from an alternate.
        Rig rig(leg, Target::kData, {});
        rig.write(5);
        rig.damage(5);
        rig.read(5);
        rig.read(5);
        scenario("sticky_rot", rig.render());
    }
    scenario("media_read_error",
             run_with_fault(leg, Target::kData, InjectedFault::kReadError, 0,
                            write5, read5));
    scenario("media_write_error",
             run_with_fault(leg, Target::kData, InjectedFault::kWriteError,
                            0, nothing, [](Rig &r) {
                                r.write(5);
                                r.read(5);
                            }));
    // The sidecar write-through is the local media's second op of a
    // local write (data first), and its first op of a replicated one.
    scenario("sidecar_write_failure",
             run_with_fault(leg, Target::kSidecar, InjectedFault::kWriteError,
                            local ? 1 : 0, nothing, [](Rig &r) {
                                r.write(5);
                                r.read(5);
                            }));
    {
        Rig rig(leg, Target::kData, {});
        for (std::uint64_t b = 0; b < 8; ++b)
            rig.write(b);
        rig.damage(3);
        rig.scrub();
        rig.read(3);
        scenario("scrub_cold_damage", rig.render());
    }
    // A silent flip on the scrub's first read (block 0 of the data copy
    // reads prefer).
    scenario("scrub_transient_flip",
             run_with_fault(leg, Target::kData, InjectedFault::kCorrupt, 0,
                            write8, [](Rig &r) { r.scrub(); }));
    return out.str();
}

std::string
read_file(const char *path)
{
    std::ifstream in(path);
    std::stringstream buf;
    buf << in.rdbuf();
    return buf.str();
}

std::vector<std::string>
lines(const std::string &text)
{
    std::vector<std::string> out;
    std::istringstream in(text);
    for (std::string line; std::getline(in, line);)
        out.push_back(line);
    return out;
}

TEST(MediaPaths, BothLegsMatchGolden)
{
    const std::string actual =
        render_leg(Leg::kLocal) + render_leg(Leg::kReplicated);
    const std::string golden = read_file(NESC_MEDIA_PATHS_GOLDEN);
    if (actual != golden) {
        std::ofstream("media_paths.actual") << actual;
        const std::vector<std::string> a = lines(actual), g = lines(golden);
        int shown = 0;
        for (std::size_t i = 0; i < std::max(a.size(), g.size()) && shown < 10;
             ++i) {
            const std::string al = i < a.size() ? a[i] : "<none>";
            const std::string gl = i < g.size() ? g[i] : "<none>";
            if (al != gl) {
                ADD_FAILURE() << "line " << i + 1 << "\ngolden: " << gl
                              << "\nactual: " << al;
                ++shown;
            }
        }
        FAIL() << "media path behaviour changed; full render written to "
                  "media_paths.actual";
    }
}

} // namespace
} // namespace nesc::ctrl

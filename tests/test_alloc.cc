/**
 * @file
 * Heap-allocation regression tests for the replicated write fan-out,
 * the buffer cache's flush and the function driver's submit path.
 *
 * The per-backend dirty log, the journal commit and the checksum
 * sidecar's write-through run several times per guest write, a
 * guest's buffer cache flushes on every fsync, and every block request
 * passes through a function driver, so each must reuse its storage
 * instead of allocating. This binary replaces
 * the global operator new to count allocations, which is why it is an
 * executable of its own: no other test runs under the replacement.
 */
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <memory>
#include <new>
#include <vector>

#include "blocklayer/buffer_cache.h"
#include "blocklayer/device_block_io.h"
#include "repl/blockstore.h"
#include "repl/dirty_log.h"
#include "repl/replica_set.h"
#include "sim/simulator.h"
#include "storage/integrity_map.h"
#include "storage/mem_block_device.h"
#include "virt/testbed.h"
#include "workloads/dd.h"

namespace {

std::uint64_t g_allocations = 0;

} // namespace

// All three stay out of line, so every caller sees operator new paired
// with operator delete. If the optimizer inlines only one side, GCC
// sees malloc() meet operator delete, or free() meet operator new, and
// reports the pair as mismatched.
[[gnu::noinline]] void *
operator new(std::size_t size)
{
    ++g_allocations;
    if (void *p = std::malloc(size == 0 ? 1 : size))
        return p;
    throw std::bad_alloc();
}

[[gnu::noinline]] void
operator delete(void *p) noexcept
{
    std::free(p);
}

[[gnu::noinline]] void
operator delete(void *p, std::size_t) noexcept
{
    std::free(p);
}

namespace nesc {
namespace {

/** Allocations since construction. */
class AllocationCount {
  public:
    std::uint64_t operator()() const { return g_allocations - start_; }

  private:
    std::uint64_t start_ = g_allocations;
};

constexpr std::uint32_t kBlock = 4096;
constexpr int kOps = 1000;

storage::MemBlockDeviceConfig
fast_media(std::uint64_t capacity)
{
    storage::MemBlockDeviceConfig cfg;
    cfg.capacity_bytes = capacity;
    cfg.logical_block_size = kBlock;
    cfg.read_bytes_per_sec = 0;
    cfg.write_bytes_per_sec = 0;
    cfg.access_latency = 0;
    return cfg;
}

TEST(Allocations, DirtyLogReusesItsStorage)
{
    // A backend's in-flight window: each write marks its block at
    // submission and clears it at its ack, a few writes behind.
    repl::DirtyLog log;
    auto step = [&log](int i) {
        log.add(static_cast<std::uint64_t>(i * 7 % 509), 1);
        if (i >= 16)
            log.remove(static_cast<std::uint64_t>((i - 16) * 7 % 509), 1);
    };
    for (int i = 0; i < 64; ++i)
        step(i);
    AllocationCount count;
    for (int i = 64; i < 64 + kOps; ++i)
        step(i);
    EXPECT_EQ(count(), 0u);
}

TEST(Allocations, JournalCommitReusesItsStaging)
{
    storage::MemBlockDevice dev(fast_media(4 << 20));
    repl::JournaledBlockstore store(dev, 64);
    std::vector<std::byte> data(kBlock);
    wl::fill_pattern(1, 0, data);
    // Warm-up touches every ring slot and target block once.
    for (int i = 0; i < 128; ++i)
        ASSERT_TRUE(store.write_blocks(i % 64, data).is_ok());
    AllocationCount count;
    for (int i = 0; i < kOps; ++i)
        ASSERT_TRUE(store.write_blocks(i % 64, data).is_ok());
    EXPECT_EQ(count(), 0u);
}

TEST(Allocations, SidecarWriteThroughReusesItsStaging)
{
    storage::MemBlockDevice dev(fast_media(4 << 20));
    auto map = storage::IntegrityMap::format(dev, 512);
    ASSERT_TRUE(map.is_ok());
    std::vector<std::byte> data(kBlock);
    wl::fill_pattern(2, 0, data);
    AllocationCount count;
    for (int i = 0; i < kOps; ++i)
        ASSERT_TRUE((*map)->record(i % 512, data).is_ok());
    EXPECT_EQ(count(), 0u);
}

TEST(Allocations, BufferCacheWriteHitAndFlushReuseStaging)
{
    sim::Simulator simulator;
    storage::MemBlockDevice dev(fast_media(4 << 20));
    blk::DeviceBlockIo io(simulator, dev);
    blk::BufferCacheConfig config;
    config.capacity_blocks = 256;
    blk::BufferCache cache(simulator, io, config);
    // Warm: every block cached, and one flush of all of them sized the
    // dirty index and the flush staging for any later flush.
    std::vector<std::byte> all(256 * kBlock);
    wl::fill_pattern(4, 0, all);
    ASSERT_TRUE(cache.write_blocks(0, 256, all).is_ok());
    ASSERT_TRUE(cache.flush().is_ok());

    constexpr std::uint32_t kRun = 8;
    const std::span<const std::byte> data(all.data(), kRun * kBlock);
    AllocationCount count;
    for (int i = 0; i < kOps; ++i) {
        const auto block = static_cast<std::uint64_t>(i * 37) % (256 - kRun);
        ASSERT_TRUE(cache.write_blocks(block, kRun, data).is_ok());
        ASSERT_TRUE(cache.write_blocks(255 - block, 1, data.first(kBlock))
                        .is_ok());
        if (i % 4 == 3) {
            ASSERT_TRUE(cache.flush().is_ok());
        }
    }
    EXPECT_EQ(count(), 0u);
    EXPECT_EQ(cache.misses(), 256u);
    EXPECT_EQ(cache.evictions(), 0u);
}

/**
 * Steady-state writes and reads through a 3-way replica set with a
 * checksum sidecar, in bursts that keep many of each in flight.
 */
TEST(Allocations, ReplicatedFanOutPerWriteStaysBounded)
{
    sim::Simulator simulator;
    std::vector<std::unique_ptr<storage::MemBlockDevice>> devices;
    repl::ReplicaSet set(simulator);
    for (int i = 0; i < 3; ++i) {
        devices.push_back(
            std::make_unique<storage::MemBlockDevice>(fast_media(4 << 20)));
        set.add_backend(*devices.back());
    }
    const std::uint64_t blocks = set.data_blocks();
    storage::MemBlockDevice sidecar_dev(fast_media(4 << 20));
    auto map = storage::IntegrityMap::format(sidecar_dev, blocks);
    ASSERT_TRUE(map.is_ok());
    storage::MediaOp op;
    op.sidecar = map->get();

    constexpr int kBurst = 32;
    std::vector<std::byte> data(kBlock);
    wl::fill_pattern(3, 0, data);
    std::vector<storage::Media::Buffer> spare(
        kBurst, storage::Media::Buffer(kBlock));
    spare.reserve(2 * kBurst);
    int failures = 0;
    auto burst = [&](int base) {
        for (int i = 0; i < kBurst; ++i) {
            const auto block =
                static_cast<std::uint64_t>((base + i) * 37) % blocks;
            set.write(block, data, op, [&failures](util::Status status) {
                failures += status.is_ok() ? 0 : 1;
            });
            storage::Media::Buffer buf = std::move(spare.back());
            spare.pop_back();
            set.read((block + 1) % blocks, std::move(buf), op,
                     [&failures, &spare](util::Status status, int,
                                         storage::Media::Buffer back) {
                         failures += status.is_ok() ? 0 : 1;
                         spare.push_back(std::move(back));
                     });
        }
        simulator.run_until_idle();
    };

    // Warm-up grows every pool and touches every block once.
    for (int base = 0; base < static_cast<int>(blocks); base += kBurst)
        burst(base);
    AllocationCount count;
    for (int base = 0; base < kOps; base += kBurst)
        burst(base);
    const std::uint64_t allocations = count();
    const int writes = (kOps + kBurst - 1) / kBurst * kBurst;
    EXPECT_EQ(failures, 0);
    // Measured at 0 per write and read: records, payloads, dirty logs
    // and staging blocks are all reused. Any per-write allocation on
    // the fan-out shows up here as at least 1 per write.
    EXPECT_LE(static_cast<double>(allocations) / writes, 0.05)
        << allocations << " allocations over " << writes
        << " writes and as many reads";
    ASSERT_TRUE(set.verify_equal(0, 1).is_ok());
    EXPECT_TRUE(*set.verify_equal(0, 2));
}

/**
 * Steady-state submissions and completions through one function
 * driver (the PF's data path), in bursts that keep several requests
 * in flight and split each into several commands.
 */
TEST(Allocations, FunctionDriverSubmitAndCompleteStayBounded)
{
    virt::TestbedConfig config;
    config.device.capacity_bytes = 64ULL << 20;
    config.host_memory_bytes = 64ULL << 20;
    auto bed = virt::Testbed::create(config);
    ASSERT_TRUE(bed.is_ok()) << bed.status().to_string();
    drv::FunctionDriver &pf = (*bed)->pf().pf_data();
    const std::uint64_t base =
        (*bed)->device().geometry().num_blocks() - 256;
    constexpr int kBurst = 8;
    constexpr std::uint32_t kBlocks = 8; // two 4 KiB commands each
    auto buffer = (*bed)->host_memory().alloc(kBurst * kBlocks * 1024, 64);
    ASSERT_TRUE(buffer.is_ok());

    int failures = 0;
    auto burst = [&](int round) {
        for (int i = 0; i < kBurst; ++i) {
            const ctrl::Opcode op =
                (round + i) % 2 ? ctrl::Opcode::kWrite : ctrl::Opcode::kRead;
            const std::uint64_t vlba =
                base + static_cast<std::uint64_t>((round * kBurst + i) * 8 %
                                                  256);
            const util::Status submitted = pf.submit(
                op, vlba, kBlocks, *buffer + i * kBlocks * 1024,
                [&failures](ctrl::CompletionStatus status) {
                    failures += status == ctrl::CompletionStatus::kOk ? 0 : 1;
                });
            failures += submitted.is_ok() ? 0 : 1;
        }
        (*bed)->sim().run_until_idle();
    };

    // Warm-up grows the request and tag maps, the device's pending
    // command maps and the event pool to the burst's high-water mark.
    for (int round = 0; round < 64; ++round)
        burst(round);
    const std::uint64_t submitted = pf.submitted();
    const std::uint64_t completed = pf.completed();
    AllocationCount count;
    constexpr int kRounds = kOps / kBurst;
    for (int round = 0; round < kRounds; ++round)
        burst(round);
    const std::uint64_t allocations = count();
    const int requests = kRounds * kBurst;
    EXPECT_EQ(failures, 0);
    EXPECT_EQ(pf.submitted() - submitted, 2u * requests);
    EXPECT_EQ(pf.completed() - completed, static_cast<std::uint64_t>(requests));
    // Measured at 0: the request and tag maps and the device's pending
    // commands reuse their slots, and a per-submit allocation shows up
    // here as at least 1 per request.
    EXPECT_LE(static_cast<double>(allocations) / requests, 0.05)
        << allocations << " allocations over " << requests << " requests";
}

} // namespace
} // namespace nesc

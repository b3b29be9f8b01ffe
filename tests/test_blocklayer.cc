/**
 * @file
 * Unit tests for the block layer: device adapter, cost decorator,
 * buffer cache, I/O scheduler, and the assembled OS stack.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <ostream>

#include "blocklayer/buffer_cache.h"
#include "blocklayer/costed_block_io.h"
#include "blocklayer/device_block_io.h"
#include "blocklayer/io_scheduler.h"
#include "blocklayer/os_block_stack.h"
#include "storage/mem_block_device.h"
#include "util/rng.h"

namespace nesc::blk {
namespace {

storage::MemBlockDeviceConfig
timed_device()
{
    storage::MemBlockDeviceConfig cfg;
    cfg.capacity_bytes = 4 << 20;
    cfg.read_bytes_per_sec = 1'000'000'000;
    cfg.write_bytes_per_sec = 1'000'000'000;
    cfg.access_latency = 1000;
    return cfg;
}

std::vector<std::byte>
blocks_of(std::uint32_t count, std::uint8_t fill)
{
    return std::vector<std::byte>(count * 1024,
                                  static_cast<std::byte>(fill));
}

// --- DeviceBlockIo -----------------------------------------------------

TEST(DeviceBlockIo, AdvancesClockByServiceTime)
{
    sim::Simulator sim;
    storage::MemBlockDevice dev(timed_device());
    DeviceBlockIo io(sim, dev);
    auto data = blocks_of(1, 0x11);
    ASSERT_TRUE(io.write_blocks(0, 1, data).is_ok());
    // 1024 B at 1 GB/s = 1024 ns + 1000 ns latency.
    EXPECT_EQ(sim.now(), 2024u);
    std::vector<std::byte> back(1024);
    ASSERT_TRUE(io.read_blocks(0, 1, back).is_ok());
    EXPECT_EQ(back, data);
}

TEST(DeviceBlockIo, SizeMismatchRejected)
{
    sim::Simulator sim;
    storage::MemBlockDevice dev(timed_device());
    DeviceBlockIo io(sim, dev);
    std::vector<std::byte> wrong(100);
    EXPECT_FALSE(io.read_blocks(0, 1, wrong).is_ok());
    EXPECT_FALSE(io.write_blocks(0, 1, wrong).is_ok());
}

// --- CostedBlockIo ------------------------------------------------------

TEST(CostedBlockIo, ChargesPerOpAndPerPage)
{
    sim::Simulator sim;
    storage::MemBlockDeviceConfig cfg = timed_device();
    cfg.read_bytes_per_sec = 0;
    cfg.write_bytes_per_sec = 0;
    cfg.access_latency = 0;
    storage::MemBlockDevice dev(cfg);
    DeviceBlockIo base(sim, dev);
    CostedBlockIo costed(sim, base, "test", 500, 100);
    auto data = blocks_of(8, 0); // 8 KiB = two 4 KiB pages
    ASSERT_TRUE(costed.write_blocks(0, 8, data).is_ok());
    EXPECT_EQ(sim.now(), 500u + 2 * 100u);
    EXPECT_EQ(costed.ops(), 1u);
    EXPECT_EQ(costed.cpu_charged(), 700u);
}

// --- BufferCache --------------------------------------------------------

class BufferCacheTest : public ::testing::Test {
  protected:
    BufferCacheTest() : dev_(timed_device()), base_(sim_, dev_)
    {
        config_.capacity_blocks = 4;
        config_.hit_cost = 10;
        config_.miss_cost = 20;
        cache_ = std::make_unique<BufferCache>(sim_, base_, config_);
    }

    sim::Simulator sim_;
    storage::MemBlockDevice dev_;
    DeviceBlockIo base_;
    BufferCacheConfig config_;
    std::unique_ptr<BufferCache> cache_;
};

TEST_F(BufferCacheTest, ReadMissThenHit)
{
    std::vector<std::byte> buf(1024);
    ASSERT_TRUE(cache_->read_blocks(5, 1, buf).is_ok());
    EXPECT_EQ(cache_->misses(), 1u);
    const sim::Time after_miss = sim_.now();
    ASSERT_TRUE(cache_->read_blocks(5, 1, buf).is_ok());
    EXPECT_EQ(cache_->hits(), 1u);
    // A hit costs only the lookup, no device access.
    EXPECT_EQ(sim_.now(), after_miss + 10);
}

TEST_F(BufferCacheTest, WriteBackDefersDeviceWrite)
{
    auto data = blocks_of(1, 0x77);
    ASSERT_TRUE(cache_->write_blocks(3, 1, data).is_ok());
    EXPECT_EQ(cache_->dirty_blocks(), 1u);
    EXPECT_EQ(dev_.bytes_written(), 0u);
    ASSERT_TRUE(cache_->flush().is_ok());
    EXPECT_EQ(cache_->dirty_blocks(), 0u);
    EXPECT_EQ(dev_.bytes_written(), 1024u);
    std::vector<std::byte> back(1024);
    ASSERT_TRUE(dev_.read(3 * 1024, back).is_ok());
    EXPECT_EQ(back, data);
}

TEST_F(BufferCacheTest, EvictionWritesBackDirtyVictim)
{
    auto data = blocks_of(1, 0x42);
    ASSERT_TRUE(cache_->write_blocks(0, 1, data).is_ok());
    // Fill the 4-entry cache past capacity with clean reads.
    std::vector<std::byte> buf(1024);
    for (std::uint64_t b = 10; b < 15; ++b)
        ASSERT_TRUE(cache_->read_blocks(b, 1, buf).is_ok());
    EXPECT_GE(cache_->evictions(), 1u);
    // The dirty block 0 was LRU and must have been written back.
    std::vector<std::byte> back(1024);
    ASSERT_TRUE(dev_.read(0, back).is_ok());
    EXPECT_EQ(back, data);
}

TEST_F(BufferCacheTest, ReadMissClustersContiguousRuns)
{
    std::vector<std::byte> buf(4 * 1024);
    ASSERT_TRUE(cache_->read_blocks(0, 4, buf).is_ok());
    // One downstream access for the whole run, 4 misses counted.
    EXPECT_EQ(cache_->misses(), 4u);
    EXPECT_EQ(dev_.bytes_read(), 4096u);
}

TEST_F(BufferCacheTest, WriteThroughForwardsImmediately)
{
    BufferCacheConfig wt = config_;
    wt.write_through = true;
    BufferCache cache(sim_, base_, wt);
    auto data = blocks_of(1, 0x11);
    ASSERT_TRUE(cache.write_blocks(7, 1, data).is_ok());
    EXPECT_EQ(dev_.bytes_written(), 1024u);
    EXPECT_EQ(cache.dirty_blocks(), 0u);
}

TEST_F(BufferCacheTest, FlushMergesAdjacentDirtyBlocks)
{
    auto data = blocks_of(1, 1);
    // Dirty blocks 2,3,4 written individually.
    for (std::uint64_t b = 2; b <= 4; ++b)
        ASSERT_TRUE(cache_->write_blocks(b, 1, data).is_ok());
    const std::uint64_t writes_before = dev_.bytes_written();
    ASSERT_TRUE(cache_->flush().is_ok());
    EXPECT_EQ(dev_.bytes_written() - writes_before, 3 * 1024u);
    EXPECT_EQ(cache_->writebacks(), 3u);
}

TEST_F(BufferCacheTest, InvalidateRequiresCleanCache)
{
    auto data = blocks_of(1, 1);
    ASSERT_TRUE(cache_->write_blocks(1, 1, data).is_ok());
    EXPECT_FALSE(cache_->invalidate().is_ok());
    ASSERT_TRUE(cache_->flush().is_ok());
    ASSERT_TRUE(cache_->invalidate().is_ok());
    EXPECT_EQ(cache_->cached_blocks(), 0u);
}

TEST_F(BufferCacheTest, ReadAfterWriteSeesCachedData)
{
    auto data = blocks_of(1, 0x99);
    ASSERT_TRUE(cache_->write_blocks(2, 1, data).is_ok());
    std::vector<std::byte> back(1024);
    ASSERT_TRUE(cache_->read_blocks(2, 1, back).is_ok());
    EXPECT_EQ(back, data);
}

/** One downstream write as a BlockIo below a cache saw it. */
struct RecordedWrite {
    std::uint64_t blockno;
    std::uint32_t count;
    std::vector<std::byte> bytes;

    bool operator==(const RecordedWrite &) const = default;

    friend void PrintTo(const RecordedWrite &w, std::ostream *os)
    {
        std::uint64_t fnv = 0xcbf29ce484222325ULL;
        for (std::byte b : w.bytes)
            fnv = (fnv ^ static_cast<std::uint8_t>(b)) * 0x100000001b3ULL;
        *os << "write(" << w.blockno << ", " << w.count << ", "
            << w.bytes.size() << " bytes, fnv1a " << std::hex << fnv
            << std::dec << ")";
    }
};

/** In-memory BlockIo that records every write and can fail some. */
class RecordingBlockIo : public BlockIo {
  public:
    RecordingBlockIo(std::uint32_t block_size, std::uint64_t blocks)
        : block_size_(block_size), blocks_(blocks),
          store_(static_cast<std::size_t>(block_size) * blocks)
    {
    }

    std::uint32_t block_size() const override { return block_size_; }
    std::uint64_t num_blocks() const override { return blocks_; }

    util::Status read_blocks(std::uint64_t blockno, std::uint32_t count,
                             std::span<std::byte> out) override
    {
        std::copy_n(store_.begin() + blockno * block_size_,
                    static_cast<std::size_t>(count) * block_size_,
                    out.begin());
        return util::Status::ok();
    }

    util::Status write_blocks(std::uint64_t blockno, std::uint32_t count,
                              std::span<const std::byte> in) override
    {
        if (failing_writes > 0) {
            --failing_writes;
            return util::unavailable_error("injected write failure");
        }
        writes.push_back({blockno, count, {in.begin(), in.end()}});
        std::copy(in.begin(), in.end(), store_.begin() + blockno * block_size_);
        return util::Status::ok();
    }

    util::Status flush() override { return util::Status::ok(); }

    /** Successful writes, in order. */
    std::vector<RecordedWrite> writes;
    /** The next this-many writes fail and leave the store unchanged. */
    int failing_writes = 0;

  private:
    std::uint32_t block_size_;
    std::uint64_t blocks_;
    std::vector<std::byte> store_;
};

TEST(BufferCacheFailures, FailedFlushWriteKeepsTheRunDirty)
{
    sim::Simulator sim;
    RecordingBlockIo base(1024, 64);
    BufferCacheConfig config;
    config.capacity_blocks = 8;
    BufferCache cache(sim, base, config);
    const auto run = blocks_of(2, 0x5a);
    const auto lone = blocks_of(1, 0xa5);
    ASSERT_TRUE(cache.write_blocks(2, 2, run).is_ok());
    ASSERT_TRUE(cache.write_blocks(7, 1, lone).is_ok());

    base.failing_writes = 1;
    EXPECT_FALSE(cache.flush().is_ok());
    // The run 2-3 was never written, so it is still dirty, and so is
    // block 7, which the failed flush did not reach.
    EXPECT_EQ(cache.dirty_blocks(), 3u);
    EXPECT_EQ(cache.writebacks(), 0u);
    EXPECT_TRUE(base.writes.empty());

    ASSERT_TRUE(cache.flush().is_ok());
    EXPECT_EQ(cache.dirty_blocks(), 0u);
    EXPECT_EQ(cache.writebacks(), 3u);
    const std::vector<RecordedWrite> expected = {{2, 2, run}, {7, 1, lone}};
    EXPECT_EQ(base.writes, expected);
}

/**
 * Reference for BufferCache: the same LRU write-back policy over a
 * std::map, with a flush that scans every cached block.
 */
class CacheModel {
  public:
    CacheModel(std::uint32_t block_size, std::uint64_t blocks,
               std::uint64_t capacity)
        : bs_(block_size), capacity_(capacity),
          device_(static_cast<std::size_t>(block_size) * blocks)
    {
    }

    void read(std::uint64_t blockno, std::uint32_t count,
              std::span<std::byte> out)
    {
        std::uint32_t i = 0;
        while (i < count) {
            auto hit = cache_.find(blockno + i);
            if (hit != cache_.end()) {
                ++hits;
                hit->second.stamp = ++clock_;
                std::copy(hit->second.data.begin(), hit->second.data.end(),
                          out.begin() + i * bs_);
                ++i;
                continue;
            }
            std::uint32_t run = 1;
            while (i + run < count && !cache_.contains(blockno + i + run))
                ++run;
            misses += run;
            std::copy_n(device_.begin() + (blockno + i) * bs_, run * bs_,
                        out.begin() + i * bs_);
            for (std::uint32_t j = 0; j < run; ++j) {
                auto src = out.subspan((i + j) * bs_, bs_);
                insert(blockno + i + j, src, /*dirty=*/false);
            }
            i += run;
        }
    }

    void write(std::uint64_t blockno, std::uint32_t count,
               std::span<const std::byte> in)
    {
        for (std::uint32_t i = 0; i < count; ++i) {
            auto src = in.subspan(i * bs_, bs_);
            auto hit = cache_.find(blockno + i);
            if (hit == cache_.end()) {
                ++misses;
                insert(blockno + i, src, /*dirty=*/true);
                continue;
            }
            ++hits;
            hit->second.stamp = ++clock_;
            hit->second.dirty = true;
            std::copy(src.begin(), src.end(), hit->second.data.begin());
        }
    }

    void flush()
    {
        auto it = cache_.begin();
        while (it != cache_.end()) {
            if (!it->second.dirty) {
                ++it;
                continue;
            }
            std::vector<std::byte> bytes;
            const std::uint64_t first = it->first;
            std::uint32_t run = 0;
            while (it != cache_.end() && it->first == first + run &&
                   it->second.dirty) {
                bytes.insert(bytes.end(), it->second.data.begin(),
                             it->second.data.end());
                it->second.dirty = false;
                ++run;
                ++it;
            }
            device_write(first, run, bytes);
            writebacks += run;
        }
    }

    void invalidate() { cache_.clear(); }

    std::uint64_t dirty() const
    {
        return static_cast<std::uint64_t>(
            std::count_if(cache_.begin(), cache_.end(),
                          [](const auto &kv) { return kv.second.dirty; }));
    }

    std::vector<RecordedWrite> writes;
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t evictions = 0;
    std::uint64_t writebacks = 0;

  private:
    struct Slot {
        std::uint64_t stamp;
        bool dirty;
        std::vector<std::byte> data;
    };

    void insert(std::uint64_t blockno, std::span<const std::byte> data,
                bool dirty)
    {
        while (cache_.size() >= capacity_) {
            auto lru = std::min_element(
                cache_.begin(), cache_.end(), [](const auto &a, const auto &b) {
                    return a.second.stamp < b.second.stamp;
                });
            if (lru->second.dirty) {
                device_write(lru->first, 1, lru->second.data);
                ++writebacks;
            }
            cache_.erase(lru);
            ++evictions;
        }
        cache_[blockno] = Slot{++clock_, dirty, {data.begin(), data.end()}};
    }

    void device_write(std::uint64_t blockno, std::uint32_t count,
                      std::span<const std::byte> bytes)
    {
        writes.push_back({blockno, count, {bytes.begin(), bytes.end()}});
        std::copy(bytes.begin(), bytes.end(), device_.begin() + blockno * bs_);
    }

    std::uint32_t bs_;
    std::uint64_t capacity_;
    std::vector<std::byte> device_;
    std::map<std::uint64_t, Slot> cache_;
    std::uint64_t clock_ = 0;
};

TEST(BufferCacheModel, RandomOpsMatchFullScanReference)
{
    constexpr std::uint32_t kBs = 64;
    constexpr std::uint64_t kBlocks = 256;
    constexpr std::uint64_t kCapacity = 64;
    sim::Simulator sim;
    RecordingBlockIo base(kBs, kBlocks);
    BufferCacheConfig config;
    config.capacity_blocks = kCapacity;
    BufferCache cache(sim, base, config);
    CacheModel model(kBs, kBlocks, kCapacity);
    util::Rng rng(23);

    std::vector<std::byte> got;
    std::vector<std::byte> want;
    std::size_t checked = 0; // downstream writes compared so far
    for (int op = 0; op < 20'000; ++op) {
        const auto count = static_cast<std::uint32_t>(1 + rng.next_below(8));
        // Half the requests land in a hot range that mostly fits.
        const std::uint64_t span = rng.next_below(2) == 0 ? 48 : kBlocks;
        const std::uint64_t blockno = rng.next_below(span - count + 1);
        const std::uint64_t kind = rng.next_below(100);
        got.assign(static_cast<std::size_t>(count) * kBs, std::byte{0});
        if (kind < 45) {
            want.assign(got.size(), std::byte{0});
            ASSERT_TRUE(cache.read_blocks(blockno, count, got).is_ok());
            model.read(blockno, count, want);
            ASSERT_EQ(got, want) << "read " << blockno << "+" << count
                                 << " at op " << op;
        } else if (kind < 90) {
            for (std::byte &b : got)
                b = static_cast<std::byte>(rng.next());
            ASSERT_TRUE(cache.write_blocks(blockno, count, got).is_ok());
            model.write(blockno, count, got);
        } else if (kind < 98) {
            ASSERT_TRUE(cache.flush().is_ok());
            model.flush();
        } else {
            ASSERT_TRUE(cache.flush().is_ok());
            model.flush();
            ASSERT_TRUE(cache.invalidate().is_ok());
            model.invalidate();
        }
        ASSERT_EQ(base.writes.size(), model.writes.size()) << "op " << op;
        for (; checked < base.writes.size(); ++checked) {
            ASSERT_EQ(base.writes[checked], model.writes[checked])
                << "write " << checked << " at op " << op;
        }
        ASSERT_EQ(cache.dirty_blocks(), model.dirty()) << "op " << op;
        ASSERT_EQ(cache.writebacks(), model.writebacks) << "op " << op;
        ASSERT_EQ(cache.evictions(), model.evictions) << "op " << op;
        ASSERT_EQ(cache.hits(), model.hits) << "op " << op;
        ASSERT_EQ(cache.misses(), model.misses) << "op " << op;
    }
    EXPECT_GT(model.evictions, 1000u);
}

// --- IoScheduler -------------------------------------------------------------

class IoSchedulerTest : public ::testing::Test {
  protected:
    IoSchedulerTest() : dev_(timed_device()), base_(sim_, dev_)
    {
        config_.per_request_cost = 100;
        sched_ = std::make_unique<IoScheduler>(sim_, base_, config_);
    }

    sim::Simulator sim_;
    storage::MemBlockDevice dev_;
    DeviceBlockIo base_;
    IoSchedulerConfig config_;
    std::unique_ptr<IoScheduler> sched_;
};

TEST_F(IoSchedulerTest, UnpluggedForwardsImmediately)
{
    auto data = blocks_of(1, 3);
    ASSERT_TRUE(sched_->write_blocks(0, 1, data).is_ok());
    EXPECT_EQ(dev_.bytes_written(), 1024u);
    EXPECT_EQ(sched_->dispatched(), 1u);
}

TEST_F(IoSchedulerTest, PluggedWritesMergeOnUnplug)
{
    sched_->plug();
    auto data = blocks_of(1, 4);
    for (std::uint64_t b = 0; b < 4; ++b)
        ASSERT_TRUE(sched_->write_blocks(b, 1, data).is_ok());
    EXPECT_EQ(dev_.bytes_written(), 0u);
    ASSERT_TRUE(sched_->unplug().is_ok());
    EXPECT_EQ(dev_.bytes_written(), 4 * 1024u);
    EXPECT_EQ(sched_->merges(), 3u);
    EXPECT_EQ(sched_->dispatched(), 1u); // one merged op
}

TEST_F(IoSchedulerTest, OutOfOrderWritesSortedAndMerged)
{
    sched_->plug();
    auto data = blocks_of(1, 5);
    for (std::uint64_t b : {3u, 1u, 0u, 2u})
        ASSERT_TRUE(sched_->write_blocks(b, 1, data).is_ok());
    ASSERT_TRUE(sched_->unplug().is_ok());
    // Elevator order: sorted into a single 4-block write.
    EXPECT_EQ(sched_->dispatched(), 1u);
    EXPECT_EQ(sched_->merges(), 3u);
}

TEST_F(IoSchedulerTest, ReadFlushesOverlappingPluggedWrites)
{
    sched_->plug();
    auto data = blocks_of(1, 6);
    ASSERT_TRUE(sched_->write_blocks(5, 1, data).is_ok());
    std::vector<std::byte> back(1024);
    ASSERT_TRUE(sched_->read_blocks(5, 1, back).is_ok());
    EXPECT_EQ(back, data); // read observed the plugged write
}

TEST_F(IoSchedulerTest, AutoDispatchAtThreshold)
{
    IoSchedulerConfig cfg = config_;
    cfg.max_plugged = 2;
    IoScheduler sched(sim_, base_, cfg);
    sched.plug();
    auto data = blocks_of(1, 7);
    ASSERT_TRUE(sched.write_blocks(0, 1, data).is_ok());
    ASSERT_TRUE(sched.write_blocks(10, 1, data).is_ok());
    // Threshold reached: dispatched without unplug.
    EXPECT_EQ(dev_.bytes_written(), 2 * 1024u);
}

// --- OsBlockStack --------------------------------------------------------------

TEST(OsBlockStack, DirectIoBypassesCache)
{
    sim::Simulator sim;
    storage::MemBlockDevice dev(timed_device());
    DeviceBlockIo base(sim, dev);
    OsStackConfig cfg;
    cfg.direct_io = true;
    OsBlockStack stack(sim, base, "t", cfg);
    EXPECT_EQ(stack.cache(), nullptr);
    auto data = blocks_of(1, 9);
    ASSERT_TRUE(stack.write_blocks(0, 1, data).is_ok());
    EXPECT_EQ(dev.bytes_written(), 1024u); // straight through
}

TEST(OsBlockStack, CachedStackAbsorbsRereads)
{
    sim::Simulator sim;
    storage::MemBlockDevice dev(timed_device());
    DeviceBlockIo base(sim, dev);
    OsStackConfig cfg;
    OsBlockStack stack(sim, base, "t", cfg);
    ASSERT_NE(stack.cache(), nullptr);
    std::vector<std::byte> buf(1024);
    ASSERT_TRUE(stack.read_blocks(0, 1, buf).is_ok());
    ASSERT_TRUE(stack.read_blocks(0, 1, buf).is_ok());
    EXPECT_EQ(dev.bytes_read(), 1024u); // second read from cache
    EXPECT_EQ(stack.cache()->hits(), 1u);
}

TEST(OsBlockStack, RoundTripThroughAllLayers)
{
    sim::Simulator sim;
    storage::MemBlockDevice dev(timed_device());
    DeviceBlockIo base(sim, dev);
    OsBlockStack stack(sim, base, "t", OsStackConfig{});
    auto data = blocks_of(4, 0x5c);
    ASSERT_TRUE(stack.write_blocks(8, 4, data).is_ok());
    ASSERT_TRUE(stack.flush().is_ok());
    std::vector<std::byte> back(4 * 1024);
    ASSERT_TRUE(stack.read_blocks(8, 4, back).is_ok());
    EXPECT_EQ(back, data);
    EXPECT_GT(sim.now(), 0u); // costs were charged
}

} // namespace
} // namespace nesc::blk

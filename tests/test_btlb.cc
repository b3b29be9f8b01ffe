/**
 * @file
 * Unit tests for the block translation lookaside buffer.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <optional>
#include <vector>

#include "nesc/btlb.h"
#include "util/rng.h"

namespace nesc::ctrl {
namespace {

using extent::Extent;

TEST(Btlb, MissOnEmpty)
{
    Btlb btlb(8);
    EXPECT_FALSE(btlb.lookup(1, 100).has_value());
    EXPECT_EQ(btlb.misses(), 1u);
    EXPECT_EQ(btlb.hits(), 0u);
}

TEST(Btlb, HitWithinInsertedExtent)
{
    Btlb btlb(8);
    btlb.insert(1, Extent{100, 50, 9000});
    auto hit = btlb.lookup(1, 120);
    ASSERT_TRUE(hit.has_value());
    EXPECT_EQ(hit->translate(120), 9020u);
    EXPECT_FALSE(btlb.lookup(1, 150).has_value()); // one past the end
    EXPECT_FALSE(btlb.lookup(1, 99).has_value());
}

TEST(Btlb, FunctionIsolation)
{
    // VF 2 must never consume VF 1's cached mapping — this is the
    // security-critical property of the shared translation cache.
    Btlb btlb(8);
    btlb.insert(1, Extent{0, 100, 5000});
    EXPECT_TRUE(btlb.lookup(1, 50).has_value());
    EXPECT_FALSE(btlb.lookup(2, 50).has_value());
}

TEST(Btlb, FifoEvictionOfOldest)
{
    Btlb btlb(2);
    btlb.insert(1, Extent{0, 10, 100});
    btlb.insert(1, Extent{10, 10, 200});
    btlb.insert(1, Extent{20, 10, 300}); // evicts the first
    EXPECT_FALSE(btlb.lookup(1, 5).has_value());
    EXPECT_TRUE(btlb.lookup(1, 15).has_value());
    EXPECT_TRUE(btlb.lookup(1, 25).has_value());
    EXPECT_EQ(btlb.size(), 2u);
}

TEST(Btlb, DuplicateInsertIgnored)
{
    Btlb btlb(8);
    btlb.insert(1, Extent{0, 10, 100});
    btlb.insert(1, Extent{0, 10, 100});
    EXPECT_EQ(btlb.size(), 1u);
    EXPECT_EQ(btlb.inserts(), 1u);
}

TEST(Btlb, FlushClearsEverything)
{
    Btlb btlb(8);
    btlb.insert(1, Extent{0, 10, 100});
    btlb.insert(2, Extent{0, 10, 200});
    btlb.flush();
    EXPECT_EQ(btlb.size(), 0u);
    EXPECT_EQ(btlb.flushes(), 1u);
    EXPECT_FALSE(btlb.lookup(1, 5).has_value());
}

TEST(Btlb, FlushFunctionIsSelective)
{
    Btlb btlb(8);
    btlb.insert(1, Extent{0, 10, 100});
    btlb.insert(2, Extent{0, 10, 200});
    btlb.flush_function(1);
    EXPECT_FALSE(btlb.lookup(1, 5).has_value());
    EXPECT_TRUE(btlb.lookup(2, 5).has_value());
}

TEST(Btlb, ZeroCapacityNeverCaches)
{
    Btlb btlb(0);
    btlb.insert(1, Extent{0, 10, 100});
    EXPECT_EQ(btlb.size(), 0u);
    EXPECT_FALSE(btlb.lookup(1, 5).has_value());
}

TEST(Btlb, HitRate)
{
    Btlb btlb(8);
    btlb.insert(1, Extent{0, 100, 0});
    (void)btlb.lookup(1, 1);
    (void)btlb.lookup(1, 2);
    (void)btlb.lookup(1, 200); // miss
    EXPECT_NEAR(btlb.hit_rate(), 2.0 / 3.0, 1e-9);
}

TEST(Btlb, EightVfWorkingSetFits)
{
    // The paper sizes the BTLB so it holds "at least the last mapping
    // for each of the last 8 VFs it serviced".
    Btlb btlb(8);
    for (std::uint16_t fn = 1; fn <= 8; ++fn)
        btlb.insert(fn, Extent{0, 16, fn * 1000ULL});
    for (std::uint16_t fn = 1; fn <= 8; ++fn)
        EXPECT_TRUE(btlb.lookup(fn, 8).has_value()) << fn;
}

TEST(Btlb, FunctionFlushCounted)
{
    Btlb btlb(8);
    btlb.flush_function(1);
    btlb.flush_function(2);
    EXPECT_EQ(btlb.function_flushes(), 2u);
    EXPECT_EQ(btlb.flushes(), 0u); // full flushes counted separately
}

TEST(Btlb, OverlappingInsertReplacesStaleEntry)
{
    // A fresh walk result that overlaps a cached extent without being
    // equal supersedes it: keeping both would make hits depend on
    // insertion order.
    Btlb btlb(8);
    btlb.insert(1, Extent{0, 100, 5000});
    btlb.insert(1, Extent{50, 100, 9000}); // overlaps [50,100)
    EXPECT_EQ(btlb.size(), 1u);
    EXPECT_EQ(btlb.overlap_evictions(), 1u);
    auto hit = btlb.lookup(1, 60);
    ASSERT_TRUE(hit.has_value());
    EXPECT_EQ(hit->translate(60), 9010u); // the fresh mapping wins
    // The stale head [0,50) is gone with its entry.
    EXPECT_FALSE(btlb.lookup(1, 10).has_value());
}

TEST(Btlb, OverlappingInsertOtherFunctionUntouched)
{
    Btlb btlb(8);
    btlb.insert(1, Extent{0, 100, 5000});
    btlb.insert(2, Extent{50, 100, 9000});
    EXPECT_EQ(btlb.size(), 2u);
    EXPECT_EQ(btlb.overlap_evictions(), 0u);
}

TEST(BtlbSetAssoc, GeometryNormalisation)
{
    Btlb btlb(BtlbConfig{64, 16, 6});
    EXPECT_FALSE(btlb.fully_associative());
    EXPECT_EQ(btlb.sets(), 16u);
    EXPECT_EQ(btlb.ways(), 4u);
    EXPECT_EQ(btlb.capacity(), 64u);

    // Non-power-of-two geometry rounds down.
    btlb.configure(BtlbConfig{48, 6, 6});
    EXPECT_EQ(btlb.sets(), 4u);
    EXPECT_EQ(btlb.ways(), 8u); // bit_floor(48 / 4) = 8
    EXPECT_EQ(btlb.capacity(), 32u);
}

TEST(BtlbSetAssoc, HitAndIsolation)
{
    Btlb btlb(BtlbConfig{64, 16, 6});
    btlb.insert(1, Extent{100, 50, 9000}, 120);
    auto hit = btlb.lookup(1, 120);
    ASSERT_TRUE(hit.has_value());
    EXPECT_EQ(hit->translate(120), 9020u);
    EXPECT_FALSE(btlb.lookup(2, 120).has_value());
}

TEST(BtlbSetAssoc, ProbeCostBoundedByWays)
{
    // O(1) lookup: tag comparisons per lookup never exceed the number
    // of ways, regardless of total capacity.
    Btlb btlb(BtlbConfig{256, 64, 0});
    for (std::uint64_t i = 0; i < 256; ++i)
        btlb.insert(1, Extent{i * 4, 4, i * 4}, i * 4);
    const std::uint64_t before = btlb.probes();
    const std::uint64_t lookups = 1000;
    for (std::uint64_t i = 0; i < lookups; ++i)
        (void)btlb.lookup(1, (i * 4) % 1024);
    const double per_lookup =
        static_cast<double>(btlb.probes() - before) / lookups;
    EXPECT_LE(per_lookup, static_cast<double>(btlb.ways()));
}

TEST(BtlbSetAssoc, PlruKeepsRecentlyUsedWay)
{
    // One set, 4 ways: fill it, keep touching entry A, insert two more
    // — A must survive every replacement decision.
    Btlb btlb(BtlbConfig{4, 1, 6});
    // sets=1 normalises to fully-associative mode per config contract;
    // use 2 sets with shift 0 so granule parity picks the set.
    btlb.configure(BtlbConfig{8, 2, 0});
    ASSERT_EQ(btlb.ways(), 4u);
    const Extent a{0, 2, 100};
    btlb.insert(1, a, 0);
    for (std::uint64_t v = 2; v <= 6; v += 2) {
        btlb.insert(1, Extent{v * 100, 2, v}, v * 100);
        ASSERT_TRUE(btlb.lookup(1, 0).has_value()); // touch A
    }
    // Set is full; two more inserts into A's set replace pLRU victims.
    btlb.insert(1, Extent{1000, 2, 50}, 1000);
    ASSERT_TRUE(btlb.lookup(1, 0).has_value());
    btlb.insert(1, Extent{2000, 2, 60}, 2000);
    EXPECT_TRUE(btlb.lookup(1, 0).has_value());
}

TEST(BtlbSetAssoc, OverlapReplacementWithinSet)
{
    Btlb btlb(BtlbConfig{64, 16, 6});
    btlb.insert(1, Extent{0, 32, 5000}, 0);
    btlb.insert(1, Extent{0, 32, 7000}, 0); // same granule, new pLBA
    EXPECT_EQ(btlb.overlap_evictions(), 1u);
    auto hit = btlb.lookup(1, 0);
    ASSERT_TRUE(hit.has_value());
    EXPECT_EQ(hit->translate(0), 7000u);
}

TEST(BtlbSetAssoc, FlushesWork)
{
    Btlb btlb(BtlbConfig{64, 16, 6});
    btlb.insert(1, Extent{0, 8, 100}, 0);
    btlb.insert(2, Extent{0, 8, 200}, 0);
    btlb.flush_function(1);
    EXPECT_FALSE(btlb.lookup(1, 0).has_value());
    EXPECT_TRUE(btlb.lookup(2, 0).has_value());
    EXPECT_EQ(btlb.function_flushes(), 1u);
    btlb.flush();
    EXPECT_EQ(btlb.size(), 0u);
}

TEST(BtlbSetAssoc, ReconfigureFlushesButKeepsStats)
{
    Btlb btlb(BtlbConfig{64, 16, 6});
    btlb.insert(1, Extent{0, 8, 100}, 0);
    ASSERT_TRUE(btlb.lookup(1, 0).has_value());
    const std::uint64_t hits = btlb.hits();
    btlb.configure(BtlbConfig{8, 0, 6}); // back to paper mode
    EXPECT_TRUE(btlb.fully_associative());
    EXPECT_EQ(btlb.size(), 0u);
    EXPECT_EQ(btlb.hits(), hits);
}

TEST(BtlbSetAssoc, WaysClampToPlruWord)
{
    // 2 sets x 128 ways would put pLRU tree bits past bit 63.
    Btlb btlb(BtlbConfig{256, 2, 6});
    EXPECT_EQ(btlb.sets(), 2u);
    EXPECT_EQ(btlb.ways(), Btlb::kMaxWays);
    EXPECT_EQ(btlb.capacity(), 2 * Btlb::kMaxWays);
    // Fill both sets past their ways so pLRU picks every victim, then
    // touch each way: every tree node up to bit 62 is walked.
    for (std::uint64_t i = 0; i < 4 * Btlb::kMaxWays; ++i)
        btlb.insert(1, Extent{i * 64, 64, i}, i * 64);
    EXPECT_EQ(btlb.size(), btlb.capacity());
    for (std::uint64_t i = 0; i < 4 * Btlb::kMaxWays; ++i)
        (void)btlb.lookup(1, i * 64);
    EXPECT_EQ(btlb.hits(), btlb.capacity());
}

TEST(BtlbGeometry, EntriesAndShiftClamp)
{
    Btlb btlb(BtlbConfig{0xffffffffu, 0, 200});
    EXPECT_TRUE(btlb.fully_associative());
    EXPECT_EQ(btlb.capacity(), Btlb::kMaxEntries);
    EXPECT_EQ(btlb.range_shift(), Btlb::kMaxRangeShift);

    btlb.configure(BtlbConfig{0xffffffffu, 0xffffffffu, 64});
    EXPECT_FALSE(btlb.fully_associative());
    EXPECT_EQ(btlb.sets(), Btlb::kMaxEntries);
    EXPECT_EQ(btlb.ways(), 1u);
    EXPECT_EQ(btlb.capacity(), Btlb::kMaxEntries);
    EXPECT_EQ(btlb.range_shift(), Btlb::kMaxRangeShift);
    btlb.insert(3, Extent{~std::uint64_t{0} - 8, 4, 1}, ~std::uint64_t{0} - 6);
    EXPECT_TRUE(btlb.lookup(3, ~std::uint64_t{0} - 6).has_value());
}

/**
 * The fully associative organisation as a plain FIFO scan: the
 * reference the indexed Btlb must reproduce op for op, statistics
 * included.
 */
class LinearScanBtlb {
  public:
    explicit LinearScanBtlb(std::uint32_t capacity) : capacity_(capacity) {}

    std::optional<Extent>
    lookup(pcie::FunctionId fn, extent::Vlba vlba)
    {
        for (const Entry &e : entries_) {
            ++probes_;
            if (e.fn == fn && e.extent.contains(vlba)) {
                ++hits_;
                return e.extent;
            }
        }
        ++misses_;
        return std::nullopt;
    }

    void
    insert(pcie::FunctionId fn, const Extent &extent)
    {
        if (capacity_ == 0)
            return;
        for (auto it = entries_.begin(); it != entries_.end();) {
            if (it->fn == fn && it->extent == extent)
                return;
            if (it->fn == fn &&
                it->extent.first_vblock < extent.end_vblock() &&
                extent.first_vblock < it->extent.end_vblock()) {
                it = entries_.erase(it);
                ++overlap_evictions_;
                continue;
            }
            ++it;
        }
        if (entries_.size() >= capacity_)
            entries_.pop_front();
        entries_.push_back(Entry{fn, extent});
        ++inserts_;
    }

    void flush() { entries_.clear(); }

    void
    flush_function(pcie::FunctionId fn)
    {
        std::erase_if(entries_, [fn](const Entry &e) { return e.fn == fn; });
    }

    std::size_t size() const { return entries_.size(); }

    std::uint64_t hits_ = 0;
    std::uint64_t misses_ = 0;
    std::uint64_t inserts_ = 0;
    std::uint64_t overlap_evictions_ = 0;
    std::uint64_t probes_ = 0;

  private:
    struct Entry {
        pcie::FunctionId fn;
        Extent extent;
    };
    std::uint32_t capacity_;
    std::deque<Entry> entries_;
};

TEST(BtlbModel, FullyAssociativeMatchesLinearScan)
{
    std::vector<std::uint32_t> capacities;
    for (std::uint32_t c = 1; c <= 64; ++c)
        capacities.push_back(c);
    capacities.push_back(512);
    constexpr int kRounds = 4;
    constexpr int kOps = 5000;
    constexpr std::uint64_t kFunctions = 10;
    for (std::uint32_t capacity : capacities) {
        for (int round = 0; round < kRounds; ++round) {
            util::Rng rng(capacity * 1000003ULL + round);
            Btlb btlb(capacity);
            LinearScanBtlb model(capacity);
            // A small vLBA space per function makes overlaps common;
            // re-inserting a recent extent makes duplicates common.
            const std::uint64_t span = 4 + rng.next_below(capacity * 8);
            std::vector<std::pair<pcie::FunctionId, Extent>> recent;
            for (int op = 0; op < kOps; ++op) {
                const auto at = [&] {
                    return ::testing::Message() << "capacity " << capacity
                                                << " round " << round
                                                << " op " << op;
                };
                const auto fn =
                    static_cast<pcie::FunctionId>(rng.next_below(kFunctions));
                const std::uint64_t kind = rng.next_below(100);
                if (kind < 45) {
                    const extent::Vlba vlba = rng.next_below(span + 16);
                    const auto got = btlb.lookup(fn, vlba);
                    ASSERT_EQ(got, model.lookup(fn, vlba)) << at();
                } else if (kind < 80) {
                    const Extent e{rng.next_below(span),
                                   rng.next_below(12),
                                   rng.next_below(4) * 1000};
                    btlb.insert(fn, e);
                    model.insert(fn, e);
                    recent.emplace_back(fn, e);
                    if (recent.size() > 16)
                        recent.erase(recent.begin());
                } else if (kind < 96 && !recent.empty()) {
                    const auto [dfn, e] = recent[rng.next_below(recent.size())];
                    btlb.insert(dfn, e);
                    model.insert(dfn, e);
                } else if (kind < 99) {
                    btlb.flush_function(fn);
                    model.flush_function(fn);
                } else {
                    btlb.flush();
                    model.flush();
                }
                ASSERT_EQ(btlb.hits(), model.hits_) << at();
                ASSERT_EQ(btlb.misses(), model.misses_) << at();
                ASSERT_EQ(btlb.inserts(), model.inserts_) << at();
                ASSERT_EQ(btlb.probes(), model.probes_) << at();
                ASSERT_EQ(btlb.overlap_evictions(), model.overlap_evictions_)
                    << at();
                ASSERT_EQ(btlb.size(), model.size()) << at();
            }
        }
    }
}

} // namespace
} // namespace nesc::ctrl

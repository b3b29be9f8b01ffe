/**
 * @file
 * Tests for the translation fast path added on top of the paper's
 * prototype: the device-side extent-node cache, MSHR-style walk-miss
 * coalescing, and the fast-path register block. The invalidation
 * tests are the security-critical ones: RewalkTree, SetExtentRoot and
 * DeleteVf must drop cached node images, and no VF may ever translate
 * through another VF's (or a stale) tree node.
 */
#include <gtest/gtest.h>

#include "drivers/function_driver.h"
#include "extent/tree_image.h"
#include "extent/walker.h"
#include "nesc/controller.h"
#include "pcie/mmio.h"
#include "storage/mem_block_device.h"
#include "workloads/dd.h"

namespace nesc::ctrl {
namespace {

using extent::Extent;

// --- ExtentNodeCache unit tests ---------------------------------------------

extent::NodeHeaderRecord
leaf_header(std::uint16_t count)
{
    return extent::NodeHeaderRecord{
        extent::kNodeMagic,
        static_cast<std::uint16_t>(extent::NodeKind::kLeaf), count, 0};
}

TEST(ExtentNodeCache, DisabledAtZeroBudget)
{
    ExtentNodeCache cache(0);
    EXPECT_FALSE(cache.enabled());
    cache.insert(1, 0x1000, leaf_header(1),
                 std::vector<std::byte>(extent::kEntrySize));
    EXPECT_EQ(cache.size(), 0u);
}

TEST(ExtentNodeCache, LruEvictionRespectsBudget)
{
    const std::uint64_t footprint =
        sizeof(extent::NodeHeaderRecord) + extent::kEntrySize;
    ExtentNodeCache cache(2 * footprint);
    cache.insert(1, 0x1000, leaf_header(1),
                 std::vector<std::byte>(extent::kEntrySize));
    cache.insert(1, 0x2000, leaf_header(1),
                 std::vector<std::byte>(extent::kEntrySize));
    ASSERT_EQ(cache.size(), 2u);
    // Touch 0x1000 so 0x2000 is the LRU victim.
    EXPECT_NE(cache.lookup(1, 0x1000), nullptr);
    cache.insert(1, 0x3000, leaf_header(1),
                 std::vector<std::byte>(extent::kEntrySize));
    EXPECT_EQ(cache.size(), 2u);
    EXPECT_EQ(cache.evictions(), 1u);
    EXPECT_NE(cache.lookup(1, 0x1000), nullptr);
    EXPECT_EQ(cache.lookup(1, 0x2000), nullptr);
    EXPECT_NE(cache.lookup(1, 0x3000), nullptr);
}

TEST(ExtentNodeCache, OversizedNodeNotCached)
{
    ExtentNodeCache cache(16);
    cache.insert(1, 0x1000, leaf_header(4),
                 std::vector<std::byte>(4 * extent::kEntrySize));
    EXPECT_EQ(cache.size(), 0u);
    EXPECT_EQ(cache.bytes_used(), 0u);
}

TEST(ExtentNodeCache, FunctionInvalidationIsSelective)
{
    ExtentNodeCache cache(1 << 16);
    cache.insert(1, 0x1000, leaf_header(1),
                 std::vector<std::byte>(extent::kEntrySize));
    cache.insert(2, 0x2000, leaf_header(1),
                 std::vector<std::byte>(extent::kEntrySize));
    cache.invalidate_function(1);
    EXPECT_EQ(cache.lookup(1, 0x1000), nullptr);
    EXPECT_NE(cache.lookup(2, 0x2000), nullptr);
    EXPECT_EQ(cache.function_invalidations(), 1u);
}

TEST(ExtentNodeCache, SameAddressDifferentFunctionIsDistinct)
{
    // Two VFs whose trees share a host address (shared subtree) still
    // get distinct cache entries: isolation is structural in the key.
    ExtentNodeCache cache(1 << 16);
    cache.insert(1, 0x1000, leaf_header(1),
                 std::vector<std::byte>(extent::kEntrySize, std::byte{1}));
    cache.insert(2, 0x1000, leaf_header(1),
                 std::vector<std::byte>(extent::kEntrySize, std::byte{2}));
    EXPECT_EQ(cache.size(), 2u);
    const auto *n1 = cache.lookup(1, 0x1000);
    const auto *n2 = cache.lookup(2, 0x1000);
    ASSERT_NE(n1, nullptr);
    ASSERT_NE(n2, nullptr);
    EXPECT_EQ(n1->entries[0], std::byte{1});
    EXPECT_EQ(n2->entries[0], std::byte{2});
}

TEST(ExtentNodeCache, RebudgetEvictsDown)
{
    ExtentNodeCache cache(1 << 16);
    for (std::uint64_t i = 0; i < 8; ++i)
        cache.insert(1, 0x1000 * (i + 1), leaf_header(1),
                     std::vector<std::byte>(extent::kEntrySize));
    ASSERT_EQ(cache.size(), 8u);
    cache.set_budget(sizeof(extent::NodeHeaderRecord) +
                     extent::kEntrySize);
    EXPECT_EQ(cache.size(), 1u);
    cache.set_budget(0);
    EXPECT_EQ(cache.size(), 0u);
    EXPECT_FALSE(cache.enabled());
}

// --- Controller integration --------------------------------------------------

/** Bare-metal harness with per-test controller configuration. */
class TranslationCacheTest : public ::testing::Test {
  protected:
    void
    init(const ControllerConfig &cfg)
    {
        storage::MemBlockDeviceConfig dev_cfg;
        dev_cfg.capacity_bytes = 16 << 20;
        host_memory_.emplace(32 << 20);
        device_.emplace(dev_cfg);
        irq_.emplace(sim_);
        controller_.emplace(sim_, *host_memory_, *device_, *irq_, cfg);
        bar_.emplace(*controller_, 4096, controller_->num_functions());
    }

    /** Fast-path config: node cache + coalescing on, BTLB off. */
    static ControllerConfig
    fastpath_config()
    {
        ControllerConfig cfg;
        cfg.max_vfs = 4;
        cfg.btlb_entries = 0; // every access exercises the walk unit
        cfg.node_cache_bytes = 64 << 10;
        cfg.walk_coalesce_window = 4096;
        return cfg;
    }

    pcie::FunctionId
    create_vf(const extent::ExtentList &extents, std::uint64_t size_blocks,
              pcie::FunctionId fn, const extent::TreeConfig &tree_cfg)
    {
        auto image =
            extent::ExtentTreeImage::build(*host_memory_, extents, tree_cfg);
        EXPECT_TRUE(image.is_ok());
        trees_.push_back(std::move(image).value());
        return create_vf_at_root(trees_.back().root(), size_blocks, fn);
    }

    pcie::FunctionId
    create_vf_at_root(pcie::HostAddr root, std::uint64_t size_blocks,
                      pcie::FunctionId fn)
    {
        EXPECT_TRUE(
            controller_->mmio_write(0, reg::kMgmtVfId, fn, 8).is_ok());
        EXPECT_TRUE(
            controller_->mmio_write(0, reg::kMgmtExtentRoot, root, 8)
                .is_ok());
        EXPECT_TRUE(controller_
                        ->mmio_write(0, reg::kMgmtDeviceSize, size_blocks, 8)
                        .is_ok());
        EXPECT_TRUE(mgmt(MgmtCommand::kCreateVf));
        return fn;
    }

    /** Issues a mgmt command; true on kOk status. */
    bool
    mgmt(MgmtCommand command)
    {
        EXPECT_TRUE(controller_
                        ->mmio_write(0, reg::kMgmtCommand,
                                     static_cast<std::uint64_t>(command), 8)
                        .is_ok());
        return *controller_->mmio_read(0, reg::kMgmtStatus, 4) ==
               static_cast<std::uint64_t>(MgmtStatus::kOk);
    }

    /** Repoints @p fn's tree at @p root through PF mgmt. */
    void
    set_extent_root(pcie::FunctionId fn, pcie::HostAddr root)
    {
        ASSERT_TRUE(
            controller_->mmio_write(0, reg::kMgmtVfId, fn, 8).is_ok());
        ASSERT_TRUE(
            controller_->mmio_write(0, reg::kMgmtExtentRoot, root, 8)
                .is_ok());
        ASSERT_TRUE(mgmt(MgmtCommand::kSetExtentRoot));
    }

    std::unique_ptr<drv::FunctionDriver>
    make_driver(pcie::FunctionId fn)
    {
        auto driver = std::make_unique<drv::FunctionDriver>(
            sim_, *host_memory_, *bar_, *irq_, fn,
            drv::FunctionDriverConfig{});
        EXPECT_TRUE(driver->init().is_ok());
        return driver;
    }

    std::uint64_t
    counter(const char *name)
    {
        return controller_->counters().get(name);
    }

    /** A 64-extent mapping that needs a multi-level tree at fanout 4. */
    static extent::ExtentList
    striped_extents(std::uint64_t count = 64, std::uint64_t run = 4,
                    std::uint64_t plba_base = 1024)
    {
        extent::ExtentList extents;
        for (std::uint64_t i = 0; i < count; ++i)
            extents.push_back(
                Extent{i * run, run, plba_base + (count - 1 - i) * run});
        return extents;
    }

    sim::Simulator sim_;
    std::optional<pcie::HostMemory> host_memory_;
    std::optional<storage::MemBlockDevice> device_;
    std::optional<pcie::InterruptController> irq_;
    std::optional<Controller> controller_;
    std::optional<pcie::BarPageRouter> bar_;
    std::vector<extent::ExtentTreeImage> trees_;
};

TEST_F(TranslationCacheTest, NodeCacheEliminatesRepeatWalkDma)
{
    init(fastpath_config());
    const auto fn =
        create_vf(striped_extents(), 256, 1, extent::TreeConfig{4});
    auto driver = make_driver(fn);
    std::vector<std::byte> buf(1024);

    ASSERT_TRUE(driver->read_sync(0, 1, buf).is_ok());
    const std::uint64_t cold_reads = counter("walk_node_reads");
    EXPECT_GT(cold_reads, 0u);

    // A different vLBA under the same root path: interior nodes (and,
    // at fanout 4, the shared leaf) come from the node cache.
    ASSERT_TRUE(driver->read_sync(4, 1, buf).is_ok());
    EXPECT_LT(counter("walk_node_reads") - cold_reads, cold_reads);
    EXPECT_GT(counter("node_cache_hits"), 0u);

    // The exact same vLBA again: the full path is cached, zero DMA.
    const std::uint64_t warm_reads = counter("walk_node_reads");
    ASSERT_TRUE(driver->read_sync(4, 1, buf).is_ok());
    EXPECT_EQ(counter("walk_node_reads"), warm_reads);
}

TEST_F(TranslationCacheTest, CachedTranslationStillCorrect)
{
    init(fastpath_config());
    const auto fn =
        create_vf(striped_extents(), 256, 1, extent::TreeConfig{4});
    auto driver = make_driver(fn);

    // Write through the cold path, read back through the warm path —
    // and verify physical placement against the reference walker.
    std::vector<std::byte> out(1024), in(1024);
    wl::fill_pattern(7, 0, out);
    ASSERT_TRUE(driver->write_sync(40, 1, out).is_ok());
    ASSERT_TRUE(driver->read_sync(40, 1, in).is_ok());
    EXPECT_EQ(out, in);

    auto ref = extent::lookup(*host_memory_, trees_.back().root(), 40);
    ASSERT_TRUE(ref.is_ok());
    ASSERT_EQ(ref->outcome, extent::LookupOutcome::kMapped);
    std::vector<std::byte> media(1024);
    ASSERT_TRUE(
        device_->read(ref->extent.translate(40) * 1024, media).is_ok());
    EXPECT_EQ(media, out);
}

TEST_F(TranslationCacheTest, SetExtentRootDropsCachedNodes)
{
    init(fastpath_config());
    const auto fn =
        create_vf(striped_extents(64, 4, 1024), 256, 1,
                  extent::TreeConfig{4});
    auto driver = make_driver(fn);

    // Warm the node cache, then place distinct data at the two
    // physical locations vLBA 0 maps to under the old and new trees.
    std::vector<std::byte> buf(1024);
    ASSERT_TRUE(driver->read_sync(0, 1, buf).is_ok());
    ASSERT_GT(controller_->node_cache().size(), 0u);

    std::vector<std::byte> old_data(1024, std::byte{0xaa});
    std::vector<std::byte> new_data(1024, std::byte{0xbb});
    auto old_ref = extent::lookup(*host_memory_, trees_.back().root(), 0);
    ASSERT_TRUE(old_ref.is_ok());
    ASSERT_TRUE(device_->write(old_ref->extent.translate(0) * 1024,
                               old_data)
                    .is_ok());

    auto new_image = extent::ExtentTreeImage::build(
        *host_memory_, striped_extents(64, 4, 8192),
        extent::TreeConfig{4});
    ASSERT_TRUE(new_image.is_ok());
    auto new_ref = extent::lookup(*host_memory_, new_image->root(), 0);
    ASSERT_TRUE(new_ref.is_ok());
    ASSERT_NE(new_ref->extent.translate(0), old_ref->extent.translate(0));
    ASSERT_TRUE(device_->write(new_ref->extent.translate(0) * 1024,
                               new_data)
                    .is_ok());

    set_extent_root(fn, new_image->root());
    EXPECT_GT(controller_->node_cache().function_invalidations(), 0u);

    // The read must translate through the NEW tree: stale node images
    // would return 0xaa from the old physical location.
    ASSERT_TRUE(driver->read_sync(0, 1, buf).is_ok());
    EXPECT_EQ(buf, new_data);
    trees_.push_back(std::move(new_image).value());
}

TEST_F(TranslationCacheTest, RewalkAfterFaultUsesFreshTree)
{
    init(fastpath_config());
    // Sparse mapping: vLBA 32.. is a hole, so a write faults.
    const auto fn = create_vf({{0, 32, 1024}}, 256, 1,
                              extent::TreeConfig{4});
    auto driver = make_driver(fn);

    std::vector<std::byte> warm(1024);
    ASSERT_TRUE(driver->read_sync(0, 1, warm).is_ok());
    ASSERT_GT(controller_->node_cache().size(), 0u);

    bool completed = false;
    CompletionStatus status = CompletionStatus::kInternalError;
    auto buffer = host_memory_->alloc(1024, 64);
    ASSERT_TRUE(buffer.is_ok());
    std::vector<std::byte> payload(1024, std::byte{0x5c});
    ASSERT_TRUE(host_memory_->write(*buffer, payload).is_ok());
    ASSERT_TRUE(driver
                    ->submit(Opcode::kWrite, 32, 1, *buffer,
                             [&](CompletionStatus s) {
                                 completed = true;
                                 status = s;
                             })
                    .is_ok());
    sim_.run_until_idle();
    ASSERT_FALSE(completed);
    ASSERT_EQ(controller_->fault_kind(fn), FaultKind::kWriteMiss);

    // Hypervisor allocates: new tree covering the missed block, then
    // SetExtentRoot + RewalkTree (the paper's Fig. 5 service path).
    auto grown = extent::ExtentTreeImage::build(
        *host_memory_, {{0, 32, 1024}, {32, 8, 4096}},
        extent::TreeConfig{4});
    ASSERT_TRUE(grown.is_ok());
    set_extent_root(fn, grown->root());
    const std::uint64_t invalidations =
        controller_->node_cache().function_invalidations();
    ASSERT_TRUE(controller_->mmio_write(fn, reg::kRewalkTree, 1, 4).is_ok());
    sim_.run_until_idle();

    EXPECT_TRUE(completed);
    EXPECT_EQ(status, CompletionStatus::kOk);
    // The rewalk itself also invalidates (belt and braces on top of
    // SetExtentRoot): cached pre-fault nodes cannot serve the retry.
    EXPECT_GT(controller_->node_cache().function_invalidations(),
              invalidations);
    std::vector<std::byte> media(1024);
    ASSERT_TRUE(device_->read(4096 * 1024, media).is_ok());
    EXPECT_EQ(media, payload);
    trees_.push_back(std::move(grown).value());
}

TEST_F(TranslationCacheTest, DeleteVfDropsCachedNodes)
{
    init(fastpath_config());
    const auto fn =
        create_vf(striped_extents(), 256, 1, extent::TreeConfig{4});
    auto driver = make_driver(fn);
    std::vector<std::byte> buf(1024);
    ASSERT_TRUE(driver->read_sync(0, 1, buf).is_ok());
    ASSERT_GT(controller_->node_cache().size(), 0u);

    ASSERT_TRUE(controller_->mmio_write(0, reg::kMgmtVfId, fn, 8).is_ok());
    ASSERT_TRUE(mgmt(MgmtCommand::kDeleteVf));
    EXPECT_EQ(controller_->node_cache().size(), 0u);
}

TEST_F(TranslationCacheTest, NoCrossVfNodeCacheHits)
{
    init(fastpath_config());
    // Both VFs point at the SAME tree (shared subtree scenario): VF 2
    // must still take cold misses — a hit on VF 1's cached nodes would
    // be a cross-VF translation channel.
    const auto fn1 =
        create_vf(striped_extents(), 256, 1, extent::TreeConfig{4});
    const auto fn2 = create_vf_at_root(trees_.back().root(), 256, 2);
    auto d1 = make_driver(fn1);
    auto d2 = make_driver(fn2);

    std::vector<std::byte> buf(1024);
    ASSERT_TRUE(d1->read_sync(0, 1, buf).is_ok());
    ASSERT_TRUE(d1->read_sync(0, 1, buf).is_ok()); // fully warm for fn1
    const std::uint64_t hits_before = counter("node_cache_hits");
    const std::uint64_t misses_before = counter("node_cache_misses");

    ASSERT_TRUE(d2->read_sync(0, 1, buf).is_ok());
    EXPECT_EQ(counter("node_cache_hits"), hits_before);
    EXPECT_GT(counter("node_cache_misses"), misses_before);
}

TEST_F(TranslationCacheTest, CoalescingAttachesConcurrentMisses)
{
    // Run the same burst with coalescing off and on; same data, same
    // completions, fewer node DMAs.
    std::uint64_t node_reads[2] = {0, 0};
    for (int enabled = 0; enabled < 2; ++enabled) {
        ControllerConfig cfg = fastpath_config();
        cfg.node_cache_bytes = 0; // isolate the coalescing effect
        cfg.walk_coalesce_window = enabled != 0 ? 4096 : 0;
        init(cfg);
        trees_.clear();
        const auto fn =
            create_vf(striped_extents(), 256, 1, extent::TreeConfig{4});
        auto driver = make_driver(fn);

        constexpr int kBurst = 8;
        int done = 0;
        std::vector<pcie::HostAddr> buffers;
        for (int i = 0; i < kBurst; ++i) {
            auto buffer = host_memory_->alloc(1024, 64);
            ASSERT_TRUE(buffer.is_ok());
            buffers.push_back(*buffer);
            ASSERT_TRUE(driver
                            ->submit(Opcode::kRead, i, 1, *buffer,
                                     [&](CompletionStatus s) {
                                         EXPECT_EQ(s,
                                                   CompletionStatus::kOk);
                                         ++done;
                                     })
                            .is_ok());
        }
        sim_.run_until_idle();
        ASSERT_EQ(done, kBurst);
        node_reads[enabled] = counter("walk_node_reads");
        if (enabled)
            EXPECT_GT(counter("walk_coalesced"), 0u);
        else
            EXPECT_EQ(counter("walk_coalesced"), 0u);
    }
    EXPECT_LT(node_reads[1], node_reads[0]);
}

TEST_F(TranslationCacheTest, UncoveredSecondaryReplaysCorrectly)
{
    ControllerConfig cfg = fastpath_config();
    cfg.node_cache_bytes = 0;
    init(cfg);
    // Two extents far apart in vLBA but inside the (huge) window: the
    // second miss attaches to the first walk, is not covered by its
    // extent, and must replay — with the right data at the end.
    const auto fn = create_vf({{0, 4, 1024}, {2048, 4, 4096}}, 4096, 1,
                              extent::TreeConfig{4});
    auto driver = make_driver(fn);

    std::vector<std::byte> a(1024, std::byte{0x11});
    std::vector<std::byte> b(1024, std::byte{0x22});
    ASSERT_TRUE(device_->write(1024 * 1024, a).is_ok());
    ASSERT_TRUE(device_->write(4096 * 1024, b).is_ok());

    int done = 0;
    auto buf_a = host_memory_->alloc(1024, 64);
    auto buf_b = host_memory_->alloc(1024, 64);
    ASSERT_TRUE(buf_a.is_ok());
    ASSERT_TRUE(buf_b.is_ok());
    for (auto [vlba, buffer] :
         {std::pair{0ULL, *buf_a}, std::pair{2048ULL, *buf_b}}) {
        ASSERT_TRUE(driver
                        ->submit(Opcode::kRead, vlba, 1, buffer,
                                 [&](CompletionStatus s) {
                                     EXPECT_EQ(s, CompletionStatus::kOk);
                                     ++done;
                                 })
                        .is_ok());
    }
    sim_.run_until_idle();
    ASSERT_EQ(done, 2);
    EXPECT_GE(counter("walk_coalesced"), 1u);
    EXPECT_GE(counter("walk_replays"), 1u);

    std::vector<std::byte> got(1024);
    ASSERT_TRUE(host_memory_->read(*buf_a, got).is_ok());
    EXPECT_EQ(got, a);
    ASSERT_TRUE(host_memory_->read(*buf_b, got).is_ok());
    EXPECT_EQ(got, b);
}

TEST_F(TranslationCacheTest, CoalescedWritesParkBehindFault)
{
    init(fastpath_config());
    // Writes into a hole: the primary faults; its coalesced secondary
    // must end up parked behind the same fault, and FailMiss must then
    // complete both with the write-failure status.
    const auto fn = create_vf({{0, 4, 1024}}, 256, 1,
                              extent::TreeConfig{4});
    auto driver = make_driver(fn);

    int failed = 0;
    auto buffer = host_memory_->alloc(1024, 64);
    ASSERT_TRUE(buffer.is_ok());
    for (std::uint64_t vlba : {100ULL, 101ULL}) {
        ASSERT_TRUE(driver
                        ->submit(Opcode::kWrite, vlba, 1, *buffer,
                                 [&](CompletionStatus s) {
                                     EXPECT_EQ(
                                         s,
                                         CompletionStatus::kWriteFailed);
                                     ++failed;
                                 })
                        .is_ok());
    }
    sim_.run_until_idle();
    ASSERT_EQ(failed, 0);
    ASSERT_EQ(controller_->fault_kind(fn), FaultKind::kWriteMiss);

    ASSERT_TRUE(controller_->mmio_write(0, reg::kMgmtVfId, fn, 8).is_ok());
    ASSERT_TRUE(mgmt(MgmtCommand::kFailMiss));
    sim_.run_until_idle();
    EXPECT_EQ(failed, 2);
}

// --- Fast-path registers -----------------------------------------------------

TEST_F(TranslationCacheTest, FastPathRegistersArePfOnly)
{
    init(fastpath_config());
    const auto fn =
        create_vf(striped_extents(), 256, 1, extent::TreeConfig{4});
    for (std::uint64_t off :
         {reg::kBtlbGeometry, reg::kStatBtlbHits, reg::kStatBtlbMisses,
          reg::kNodeCacheBytes, reg::kStatNodeCacheHits,
          reg::kStatNodeCacheMisses, reg::kWalkCoalesce,
          reg::kStatWalkCoalesced, reg::kStatWalkReplays}) {
        EXPECT_EQ(controller_->mmio_read(fn, off, 8).status().code(),
                  util::ErrorCode::kPermissionDenied)
            << off;
        EXPECT_TRUE(controller_->mmio_read(0, off, 8).is_ok()) << off;
    }
    EXPECT_EQ(controller_->mmio_write(fn, reg::kBtlbGeometry, 0, 8).code(),
              util::ErrorCode::kPermissionDenied);
    EXPECT_EQ(
        controller_->mmio_write(fn, reg::kNodeCacheBytes, 0, 8).code(),
        util::ErrorCode::kPermissionDenied);
    EXPECT_EQ(controller_->mmio_write(fn, reg::kWalkCoalesce, 0, 8).code(),
              util::ErrorCode::kPermissionDenied);
}

TEST_F(TranslationCacheTest, GeometryRegisterReconfigures)
{
    ControllerConfig cfg;
    cfg.max_vfs = 4;
    init(cfg);
    ASSERT_TRUE(controller_->btlb().fully_associative());

    ASSERT_TRUE(controller_
                    ->mmio_write(0, reg::kBtlbGeometry,
                                 encode_btlb_geometry(16, 4, 6), 8)
                    .is_ok());
    EXPECT_FALSE(controller_->btlb().fully_associative());
    EXPECT_EQ(controller_->btlb().sets(), 16u);
    EXPECT_EQ(controller_->btlb().ways(), 4u);
    EXPECT_EQ(controller_->btlb().range_shift(), 6u);
    // Read-back reports the live geometry.
    EXPECT_EQ(*controller_->mmio_read(0, reg::kBtlbGeometry, 8),
              encode_btlb_geometry(16, 4, 6));

    // sets <= 1 returns to the paper's fully-associative mode.
    ASSERT_TRUE(controller_
                    ->mmio_write(0, reg::kBtlbGeometry,
                                 encode_btlb_geometry(0, 8, 6), 8)
                    .is_ok());
    EXPECT_TRUE(controller_->btlb().fully_associative());
    EXPECT_EQ(controller_->btlb().capacity(), 8u);
}

TEST_F(TranslationCacheTest, GeometryRegisterClampsToBounds)
{
    ControllerConfig cfg;
    cfg.max_vfs = 4;
    init(cfg);

    // 2 sets x 128 ways: the ways clamp to what one pLRU word holds.
    ASSERT_TRUE(controller_
                    ->mmio_write(0, reg::kBtlbGeometry,
                                 encode_btlb_geometry(2, 128, 6), 8)
                    .is_ok());
    EXPECT_EQ(controller_->btlb().ways(), Btlb::kMaxWays);
    EXPECT_EQ(*controller_->mmio_read(0, reg::kBtlbGeometry, 8),
              encode_btlb_geometry(2, Btlb::kMaxWays, 6));

    // 65535 sets x 65535 ways: the capacity clamps to kMaxEntries.
    ASSERT_TRUE(controller_
                    ->mmio_write(0, reg::kBtlbGeometry, 0xffffffff, 8)
                    .is_ok());
    EXPECT_EQ(controller_->btlb().capacity(), Btlb::kMaxEntries);
    EXPECT_EQ(*controller_->mmio_read(0, reg::kBtlbGeometry, 8),
              encode_btlb_geometry(32768, 2, 0));

    // A range shift past 63 would shift a vLBA by its full width.
    ASSERT_TRUE(
        controller_->mmio_write(0, reg::kBtlbGeometry, ~std::uint64_t{0}, 8)
            .is_ok());
    EXPECT_FALSE(controller_->btlb().fully_associative());
    EXPECT_EQ(controller_->btlb().capacity(), Btlb::kMaxEntries);
    EXPECT_EQ(*controller_->mmio_read(0, reg::kBtlbGeometry, 8),
              encode_btlb_geometry(32768, 2, Btlb::kMaxRangeShift));

    // The live geometry still translates.
    const auto fn =
        create_vf(striped_extents(), 256, 1, extent::TreeConfig{4});
    auto driver = make_driver(fn);
    std::vector<std::byte> buf(1024);
    ASSERT_TRUE(driver->read_sync(0, 1, buf).is_ok());
    ASSERT_TRUE(driver->read_sync(0, 1, buf).is_ok());
    EXPECT_GE(controller_->btlb().hits(), 1u);
}

TEST_F(TranslationCacheTest, NodeCacheAndCoalesceRegisters)
{
    ControllerConfig cfg;
    cfg.max_vfs = 4;
    init(cfg);
    EXPECT_FALSE(controller_->node_cache().enabled());
    ASSERT_TRUE(
        controller_->mmio_write(0, reg::kNodeCacheBytes, 32 << 10, 8)
            .is_ok());
    EXPECT_TRUE(controller_->node_cache().enabled());
    EXPECT_EQ(*controller_->mmio_read(0, reg::kNodeCacheBytes, 8),
              std::uint64_t{32 << 10});
    ASSERT_TRUE(
        controller_->mmio_write(0, reg::kWalkCoalesce, 512, 8).is_ok());

    // Stats registers read zero before traffic.
    EXPECT_EQ(*controller_->mmio_read(0, reg::kStatNodeCacheHits, 8), 0u);
    EXPECT_EQ(*controller_->mmio_read(0, reg::kStatWalkCoalesced, 8), 0u);

    const auto fn =
        create_vf(striped_extents(), 256, 1, extent::TreeConfig{4});
    auto driver = make_driver(fn);
    std::vector<std::byte> buf(1024);
    ASSERT_TRUE(driver->read_sync(0, 1, buf).is_ok());
    // A different extent misses the BTLB but walks through cached
    // interior nodes; the same vLBA again hits the BTLB.
    ASSERT_TRUE(driver->read_sync(4, 1, buf).is_ok());
    ASSERT_TRUE(driver->read_sync(0, 1, buf).is_ok());
    EXPECT_GT(*controller_->mmio_read(0, reg::kStatNodeCacheHits, 8), 0u);
    EXPECT_GT(*controller_->mmio_read(0, reg::kStatBtlbHits, 8), 0u);
}

TEST_F(TranslationCacheTest, WalkerPathPredictsDeviceWalk)
{
    // The reference walker's visited-node path must match the device's
    // DMA count for the same lookup — the validation contract that
    // lets tests reason about node-cache contents.
    init(fastpath_config());
    const auto fn =
        create_vf(striped_extents(), 256, 1, extent::TreeConfig{4});
    auto driver = make_driver(fn);

    auto ref = extent::lookup(*host_memory_, trees_.back().root(), 0);
    ASSERT_TRUE(ref.is_ok());
    ASSERT_EQ(ref->path.size(), ref->nodes_visited);
    ASSERT_GT(ref->path.size(), 1u); // multi-level at fanout 4

    std::vector<std::byte> buf(1024);
    ASSERT_TRUE(driver->read_sync(0, 1, buf).is_ok());
    EXPECT_EQ(counter("walk_node_reads"), ref->nodes_visited);
    // Every visited node is now cached for this fn.
    for (pcie::HostAddr addr : ref->path)
        EXPECT_NE(controller_->node_cache().lookup(fn, addr), nullptr);
}

} // namespace
} // namespace nesc::ctrl

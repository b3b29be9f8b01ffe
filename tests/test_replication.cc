/**
 * @file
 * Tests for the replicated multi-backend storage subsystem (src/repl):
 * the dirty-extent log, the journaled per-replica blockstore, quorum
 * writes, read failover with organic crash detection, automatic
 * demotion, background resync, and the controller/PF-driver surface.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <set>
#include <vector>

#include "nesc/controller.h"
#include "repl/blockstore.h"
#include "repl/dirty_log.h"
#include "repl/replica_set.h"
#include "sim/simulator.h"
#include "storage/mem_block_device.h"
#include "virt/testbed.h"
#include "workloads/dd.h"

namespace nesc::repl {
namespace {

// --- DirtyLog ------------------------------------------------------------

TEST(DirtyLog, AddMergesNeighbours)
{
    DirtyLog log;
    log.add(10, 5);
    log.add(20, 5);
    EXPECT_EQ(log.range_count(), 2u);
    EXPECT_EQ(log.total_blocks(), 10u);
    log.add(15, 5); // bridges the gap: one range [10, 25)
    EXPECT_EQ(log.range_count(), 1u);
    EXPECT_EQ(log.total_blocks(), 15u);
    log.add(12, 2); // fully contained: no change
    EXPECT_EQ(log.total_blocks(), 15u);
}

TEST(DirtyLog, RemoveSplitsRanges)
{
    DirtyLog log;
    log.add(0, 100);
    log.remove(40, 20);
    EXPECT_EQ(log.range_count(), 2u);
    EXPECT_EQ(log.total_blocks(), 80u);
    EXPECT_TRUE(log.covers(0, 40));
    EXPECT_TRUE(log.covers(60, 40));
    EXPECT_FALSE(log.covers(39, 2));
    log.remove(0, 100);
    EXPECT_TRUE(log.empty());
    EXPECT_EQ(log.total_blocks(), 0u);
}

TEST(DirtyLog, CoversAndIntersects)
{
    DirtyLog log;
    log.add(50, 10);
    EXPECT_TRUE(log.covers(50, 10));
    EXPECT_TRUE(log.covers(55, 5));
    EXPECT_FALSE(log.covers(45, 10));
    EXPECT_TRUE(log.intersects(45, 10));
    EXPECT_TRUE(log.intersects(59, 10));
    EXPECT_FALSE(log.intersects(60, 10));
    EXPECT_FALSE(log.intersects(0, 50));
}

TEST(DirtyLog, FirstClipsToBatch)
{
    DirtyLog log;
    log.add(30, 100);
    auto range = log.first(16);
    ASSERT_TRUE(range.has_value());
    EXPECT_EQ(range->first, 30u);
    EXPECT_EQ(range->count, 16u);
    log.clear();
    EXPECT_FALSE(log.first(16).has_value());
}

TEST(DirtyLog, MatchesBlockSetModel)
{
    // Randomized add/remove against a plain set of dirty blocks. The
    // address space is small so ranges keep abutting, merging and
    // splitting; each trial leans toward adds or removes differently.
    constexpr std::uint64_t kSpace = 256;
    std::mt19937_64 rng(2024);
    for (int trial = 0; trial < 200; ++trial) {
        DirtyLog log;
        std::set<std::uint64_t> model;
        const std::uint64_t add_pct = 30 + trial % 41;
        for (int step = 0; step < 2000; ++step) {
            const std::uint64_t first = rng() % kSpace;
            const std::uint64_t count = rng() % 17;
            if (rng() % 100 < add_pct) {
                log.add(first, count);
                for (std::uint64_t b = first; b < first + count; ++b)
                    model.insert(b);
            } else {
                log.remove(first, count);
                for (std::uint64_t b = first; b < first + count; ++b)
                    model.erase(b);
            }

            // Maximal runs of the model, in address order.
            std::vector<DirtyLog::Range> runs;
            for (std::uint64_t b : model) {
                if (!runs.empty() &&
                    runs.back().first + runs.back().count == b)
                    ++runs.back().count;
                else
                    runs.push_back({b, 1});
            }
            ASSERT_EQ(log.total_blocks(), model.size())
                << "trial " << trial << " step " << step;
            ASSERT_EQ(log.range_count(), runs.size())
                << "trial " << trial << " step " << step;
            ASSERT_EQ(log.empty(), model.empty());

            const std::uint64_t batch = rng() % 20;
            const auto head = log.first(batch);
            if (runs.empty() || batch == 0) {
                ASSERT_FALSE(head.has_value());
            } else {
                ASSERT_TRUE(head.has_value());
                ASSERT_EQ(head->first, runs.front().first);
                ASSERT_EQ(head->count, std::min(runs.front().count, batch));
            }

            for (int query = 0; query < 4; ++query) {
                const std::uint64_t q_first = rng() % (kSpace + 16);
                const std::uint64_t q_count = rng() % 17;
                bool all = true;
                bool any = false;
                for (std::uint64_t b = q_first; b < q_first + q_count; ++b) {
                    const bool dirty = model.contains(b);
                    all = all && dirty;
                    any = any || dirty;
                }
                ASSERT_EQ(log.covers(q_first, q_count), all)
                    << "trial " << trial << " step " << step << " covers ["
                    << q_first << ", +" << q_count << ")";
                ASSERT_EQ(log.intersects(q_first, q_count), any)
                    << "trial " << trial << " step " << step
                    << " intersects [" << q_first << ", +" << q_count
                    << ")";
            }
        }
    }
}

// --- JournaledBlockstore -------------------------------------------------

storage::MemBlockDeviceConfig
fast_media(std::uint64_t capacity = 1 << 20)
{
    storage::MemBlockDeviceConfig cfg;
    cfg.capacity_bytes = capacity;
    cfg.read_bytes_per_sec = 0;
    cfg.write_bytes_per_sec = 0;
    cfg.access_latency = 0;
    return cfg;
}

TEST(JournaledBlockstore, RoundTripAndStateCounters)
{
    storage::MemBlockDevice dev(fast_media());
    JournaledBlockstore store(dev, 16);
    EXPECT_EQ(store.data_blocks(), (1u << 20) / 1024 - 16);

    std::vector<std::byte> out(3 * 1024), in(3 * 1024);
    wl::fill_pattern(7, 0, out);
    ASSERT_TRUE(store.write_blocks(5, out).is_ok());
    ASSERT_TRUE(store.read_blocks(5, in).is_ok());
    EXPECT_EQ(out, in);
    // One write walked the full state machine.
    EXPECT_EQ(store.writes_started(), 1u);
    EXPECT_EQ(store.writes_submitted(), 1u);
    EXPECT_EQ(store.writes_synced(), 1u);
    EXPECT_EQ(store.writes_stable(), 1u);
}

TEST(JournaledBlockstore, RejectsPartialBlocksAndOutOfRange)
{
    storage::MemBlockDevice dev(fast_media());
    JournaledBlockstore store(dev, 16);
    std::vector<std::byte> buf(100); // not a block multiple
    EXPECT_FALSE(store.write_blocks(0, buf).is_ok());
    buf.assign(1024, std::byte{0});
    EXPECT_FALSE(store.write_blocks(store.data_blocks(), buf).is_ok());
}

TEST(JournaledBlockstore, TimingChargesJournalAmplification)
{
    storage::MemBlockDeviceConfig cfg = fast_media();
    cfg.access_latency = 1000; // visible per-media-op cost
    storage::MemBlockDevice dev(cfg);
    JournaledBlockstore store(dev, 16);
    // Reads pass straight through (checked first: the media port is a
    // single busy horizon, so later ops queue behind the journal).
    EXPECT_EQ(store.service_read(0, 0, 1024), 1000u);
    // desc + payload + commit + checkpoint = 4 sequential media writes.
    const sim::Time start = 1000;
    EXPECT_EQ(store.service_write(start, 0, 1024), start + 4u * 1000u);
}

TEST(JournaledBlockstore, RecoverIsIdempotentOnCleanStore)
{
    storage::MemBlockDevice dev(fast_media());
    JournaledBlockstore store(dev, 16);
    std::vector<std::byte> buf(1024);
    wl::fill_pattern(3, 0, buf);
    ASSERT_TRUE(store.write_blocks(0, buf).is_ok());

    JournaledBlockstore again(dev, 16);
    auto replayed = again.recover();
    ASSERT_TRUE(replayed.is_ok());
    // The checkpoint already landed; replay redoes it harmlessly.
    std::vector<std::byte> in(1024);
    ASSERT_TRUE(again.read_blocks(0, in).is_ok());
    EXPECT_EQ(buf, in);
    auto twice = again.recover();
    ASSERT_TRUE(twice.is_ok());
    EXPECT_EQ(*twice, *replayed);
}

/**
 * Commits one transaction of @p blocks distinct blocks at data block 7,
 * applies @p damage to the device, clobbers the in-place copies as if
 * the checkpoint never landed, and runs recovery on a fresh store.
 * Returns the replay count; @p after receives the data region's blocks.
 */
template <typename Damage>
std::uint64_t
replay_after(std::uint64_t blocks, Damage damage,
             std::vector<std::byte> &written, std::vector<std::byte> &after)
{
    storage::MemBlockDevice dev(fast_media());
    JournaledBlockstore store(dev, 16);
    const std::uint32_t bs = store.block_size();
    written.assign(blocks * bs, std::byte{0});
    for (std::uint64_t i = 0; i < blocks; ++i)
        wl::fill_pattern(5 + i, 0,
                         std::span(written).subspan(i * bs, bs));
    EXPECT_TRUE(store.write_blocks(7, written).is_ok());

    // The transaction sits at the ring head: descriptor in slot 0,
    // payload in slots 1.., then the commit record.
    damage(dev, store.data_blocks() * bs, bs);
    const std::vector<std::byte> clobber(blocks * bs, std::byte{0xee});
    EXPECT_TRUE(dev.write(7 * bs, clobber).is_ok());

    JournaledBlockstore again(dev, 16);
    auto replayed = again.recover();
    EXPECT_TRUE(replayed.is_ok());
    after.assign(blocks * bs, std::byte{0});
    EXPECT_TRUE(again.read_blocks(7, after).is_ok());
    return replayed.is_ok() ? *replayed : ~0ULL;
}

TEST(JournaledBlockstore, CorruptPayloadNotReplayed)
{
    std::vector<std::byte> written, after;
    const std::vector<std::byte> clobber(1024, std::byte{0xee});
    // Undamaged, the committed transaction replays over the clobber.
    EXPECT_EQ(replay_after(
                  1, [](auto &, std::uint64_t, std::uint32_t) {}, written,
                  after),
              1u);
    EXPECT_EQ(after, written);

    // One flipped payload byte fails the commit CRC: nothing replays.
    EXPECT_EQ(replay_after(
                  1,
                  [](storage::MemBlockDevice &dev, std::uint64_t ring,
                     std::uint32_t bs) {
                      std::byte b{};
                      const std::uint64_t at = ring + bs + 100;
                      ASSERT_TRUE(dev.read(at, std::span(&b, 1)).is_ok());
                      b ^= std::byte{0x01};
                      ASSERT_TRUE(dev.write(at, std::span(&b, 1)).is_ok());
                  },
                  written, after),
              0u);
    EXPECT_EQ(after, clobber);
}

TEST(JournaledBlockstore, ReorderedPayloadNotReplayed)
{
    std::vector<std::byte> written, after;
    const std::vector<std::byte> clobber(2 * 1024, std::byte{0xee});
    EXPECT_EQ(replay_after(
                  2, [](auto &, std::uint64_t, std::uint32_t) {}, written,
                  after),
              1u);
    EXPECT_EQ(after, written);

    // Swapped payload blocks keep every byte, but the chained CRC is
    // order-sensitive, so the transaction no longer verifies.
    EXPECT_EQ(replay_after(
                  2,
                  [](storage::MemBlockDevice &dev, std::uint64_t ring,
                     std::uint32_t bs) {
                      std::vector<std::byte> one(bs), two(bs);
                      ASSERT_TRUE(dev.read(ring + bs, one).is_ok());
                      ASSERT_TRUE(dev.read(ring + 2 * bs, two).is_ok());
                      ASSERT_NE(one, two);
                      ASSERT_TRUE(dev.write(ring + bs, two).is_ok());
                      ASSERT_TRUE(dev.write(ring + 2 * bs, one).is_ok());
                  },
                  written, after),
              0u);
    EXPECT_EQ(after, clobber);
}

// --- ReplicaSet ----------------------------------------------------------

/** Three fast backends over zero-latency links, quorum 2. */
class ReplicaSetTest : public ::testing::Test {
  protected:
    ReplicaSetTest()
    {
        config_.quorum = 2;
        config_.read_timeout = 100'000;
        config_.write_timeout = 100'000;
        config_.demote_threshold = 3;
        set_ = std::make_unique<ReplicaSet>(sim_, config_);
        BackendConfig backend;
        backend.link_bytes_per_sec = 0;
        backend.link_latency = 1'000;
        backend.journal_blocks = 16;
        for (int i = 0; i < 3; ++i) {
            media_.push_back(std::make_unique<storage::MemBlockDevice>(
                fast_media()));
            set_->add_backend(*media_.back(), backend);
        }
    }

    /** Blocking write helper: drives the sim until done fires. */
    util::Status
    write_sync(std::uint64_t first_block, std::span<const std::byte> data)
    {
        util::Status result = util::internal_error("done never fired");
        bool fired = false;
        set_->write(first_block, data, [&](util::Status s) {
            result = s;
            fired = true;
        });
        sim_.run_until_idle();
        EXPECT_TRUE(fired);
        return result;
    }

    util::Status
    read_sync(std::uint64_t first_block, std::span<std::byte> out)
    {
        util::Status result = util::internal_error("done never fired");
        bool fired = false;
        set_->read(first_block, out, [&](util::Status s) {
            result = s;
            fired = true;
        });
        sim_.run_until_idle();
        EXPECT_TRUE(fired);
        return result;
    }

    sim::Simulator sim_;
    ReplicaSetConfig config_;
    std::vector<std::unique_ptr<storage::MemBlockDevice>> media_;
    std::unique_ptr<ReplicaSet> set_;
};

TEST_F(ReplicaSetTest, QuorumWriteMirrorsToAllBackends)
{
    std::vector<std::byte> data(2048);
    wl::fill_pattern(11, 0, data);
    ASSERT_TRUE(write_sync(10, data).is_ok());
    EXPECT_EQ(set_->writes_acked(), 1u);
    EXPECT_EQ(set_->writes_failed(), 0u);
    // With everything healthy, all three backends converge (and their
    // dirty logs drain back to empty).
    for (std::size_t i = 0; i < 3; ++i)
        EXPECT_EQ(set_->dirty_blocks(i), 0u) << "backend " << i;
    EXPECT_TRUE(*set_->verify_equal(0, 1));
    EXPECT_TRUE(*set_->verify_equal(0, 2));
}

TEST_F(ReplicaSetTest, ReadServesWrittenData)
{
    std::vector<std::byte> data(1024), in(1024);
    wl::fill_pattern(13, 0, data);
    ASSERT_TRUE(write_sync(42, data).is_ok());
    ASSERT_TRUE(read_sync(42, in).is_ok());
    EXPECT_EQ(data, in);
    EXPECT_EQ(set_->reads_served(), 1u);
    EXPECT_EQ(set_->failovers(), 0u);
}

TEST_F(ReplicaSetTest, WriteFailsWhenQuorumUnreachable)
{
    set_->crash_backend(0);
    set_->crash_backend(1);
    std::vector<std::byte> data(1024, std::byte{0x5a});
    const util::Status status = write_sync(0, data);
    EXPECT_FALSE(status.is_ok());
    EXPECT_EQ(set_->writes_failed(), 1u);
    // The crashed backends owe the write; the survivor does not.
    EXPECT_EQ(set_->dirty_blocks(0), 1u);
    EXPECT_EQ(set_->dirty_blocks(1), 1u);
    EXPECT_EQ(set_->dirty_blocks(2), 0u);
}

TEST_F(ReplicaSetTest, ReadFailsOverFromCrashedBackend)
{
    std::vector<std::byte> data(1024), in(1024);
    wl::fill_pattern(17, 0, data);
    ASSERT_TRUE(write_sync(7, data).is_ok());

    // Backend 0 is the default read target (lowest index, no health
    // events). Crash it: the read must time out and fail over.
    set_->crash_backend(0);
    ASSERT_TRUE(read_sync(7, in).is_ok());
    EXPECT_EQ(data, in);
    EXPECT_GE(set_->failovers(), 1u);
    EXPECT_GE(set_->backend_timeouts(0), 1u);
}

TEST_F(ReplicaSetTest, RepeatedTimeoutsDemoteTheBackend)
{
    std::vector<std::byte> data(1024), in(1024);
    wl::fill_pattern(19, 0, data);
    ASSERT_TRUE(write_sync(0, data).is_ok());

    set_->crash_backend(0);
    // demote_threshold = 3: writes fan out to every backend, so three
    // timed-out write acks push backend 0 out (reads alone would not —
    // the router steers them away from the suspect backend).
    for (std::uint64_t blk = 0; blk < 3; ++blk)
        ASSERT_TRUE(write_sync(blk, data).is_ok());
    EXPECT_EQ(set_->backend_state(0), BackendState::kDown);
    EXPECT_GE(set_->demotions(), 1u);

    // Once down it is no longer tried: reads neither touch it nor
    // fail over.
    const std::uint64_t timeouts = set_->backend_timeouts(0);
    const std::uint64_t failovers = set_->failovers();
    ASSERT_TRUE(read_sync(0, in).is_ok());
    EXPECT_EQ(set_->backend_timeouts(0), timeouts);
    EXPECT_EQ(set_->failovers(), failovers);
}

TEST_F(ReplicaSetTest, ResyncConvergesBitIdentical)
{
    std::vector<std::byte> data(1024);
    // Demote backend 2, then write fresh data it will miss.
    set_->crash_backend(2);
    set_->demote_backend(2);
    for (std::uint64_t blk = 0; blk < 20; ++blk) {
        wl::fill_pattern(100 + blk, 0, data);
        ASSERT_TRUE(write_sync(blk, data).is_ok());
    }
    EXPECT_EQ(set_->dirty_blocks(2), 20u);
    EXPECT_FALSE(*set_->verify_equal(0, 2));

    // Revival recovers the journal and drains the dirty log in the
    // background while the set keeps serving.
    set_->revive_backend(2);
    sim_.run_until_idle();
    EXPECT_EQ(set_->backend_state(2), BackendState::kHealthy);
    EXPECT_EQ(set_->dirty_blocks(2), 0u);
    EXPECT_GE(set_->resync_copied(2), 20u);
    EXPECT_GE(set_->resyncs_completed(), 1u);
    EXPECT_TRUE(*set_->verify_equal(0, 2));
    EXPECT_TRUE(*set_->verify_equal(0, 1));
}

TEST_F(ReplicaSetTest, ForegroundWritesDuringResyncStayCoherent)
{
    std::vector<std::byte> data(1024);
    set_->crash_backend(1);
    set_->demote_backend(1);
    for (std::uint64_t blk = 0; blk < 64; ++blk) {
        wl::fill_pattern(blk, 0, data);
        ASSERT_TRUE(write_sync(blk, data).is_ok());
    }
    set_->revive_backend(1);
    // Overwrite part of the dirty region while resync is running; the
    // recovering backend mirrors these writes directly.
    for (std::uint64_t blk = 0; blk < 8; ++blk) {
        wl::fill_pattern(999 + blk, 0, data);
        ASSERT_TRUE(write_sync(blk, data).is_ok());
    }
    sim_.run_until_idle();
    EXPECT_EQ(set_->backend_state(1), BackendState::kHealthy);
    EXPECT_TRUE(*set_->verify_equal(0, 1));
}

TEST_F(ReplicaSetTest, SetQuorumClampsToBackendCount)
{
    // Reachable from the PF kReplQuorum register: an operator typo
    // above the backend count must not brick the write path.
    set_->set_quorum(64);
    EXPECT_EQ(set_->config().quorum, 3u);
    set_->set_quorum(0);
    EXPECT_EQ(set_->config().quorum, 1u);
    set_->set_quorum(64);
    std::vector<std::byte> data(1024, std::byte{0x7e});
    EXPECT_TRUE(write_sync(0, data).is_ok());
    EXPECT_EQ(set_->writes_failed(), 0u);
}

TEST(ReplicaSetEdge, ReadExhaustionSettlesExactlyOnce)
{
    sim::Simulator sim;
    ReplicaSetConfig cfg;
    cfg.quorum = 1;
    cfg.read_timeout = 100'000; // 100 us, far below the media read
    ReplicaSet set(sim, cfg);
    storage::MemBlockDeviceConfig slow = fast_media();
    slow.read_bytes_per_sec = 1'000'000; // a 1 KiB read takes ~1 ms
    storage::MemBlockDevice dev(slow);
    set.add_backend(dev);

    std::vector<std::byte> data(1024, std::byte{0x42}), in(1024);
    bool wrote = false;
    set.write(0, data, [&](util::Status s) { wrote = s.is_ok(); });
    sim.run_until_idle();
    ASSERT_TRUE(wrote);

    // The only attempt times out, no candidate is left, and the read
    // fails. The media completion for that attempt is still pending;
    // it must not fire done() a second time (with a late success, no
    // less) once the read has settled on the error.
    int fires = 0;
    util::Status last = util::Status::ok();
    set.read(0, in, [&](util::Status s) {
        ++fires;
        last = s;
    });
    sim.run_until_idle();
    EXPECT_EQ(fires, 1);
    EXPECT_FALSE(last.is_ok());
    EXPECT_EQ(set.reads_failed(), 1u);
    EXPECT_EQ(set.reads_served(), 0u);
}

TEST(ReplicaSetEdge, ReadAfterQuorumAckAvoidsLaggingBackend)
{
    sim::Simulator sim;
    ReplicaSetConfig cfg;
    cfg.quorum = 2;
    cfg.read_timeout = 50'000'000;
    cfg.write_timeout = 50'000'000; // no timeout settles the laggard
    ReplicaSet set(sim, cfg);
    std::vector<std::unique_ptr<storage::MemBlockDevice>> media;
    for (int i = 0; i < 3; ++i) {
        media.push_back(
            std::make_unique<storage::MemBlockDevice>(fast_media()));
        BackendConfig backend;
        backend.link_latency = 1'000;
        // Backend 0's link drips: its write ack lands ~1 ms after the
        // fast peers reach quorum.
        backend.link_bytes_per_sec = i == 0 ? 1'000'000 : 0;
        set.add_backend(*media.back(), backend);
    }

    std::vector<std::byte> data(1024), in(1024);
    wl::fill_pattern(31, 0, data);
    bool write_done = false;
    set.write(5, data, [&](util::Status s) {
        ASSERT_TRUE(s.is_ok());
        write_done = true;
    });
    sim.run_until(200'000); // past quorum, before backend 0's ack
    ASSERT_TRUE(write_done);
    ASSERT_GT(set.dirty_blocks(0), 0u); // its ack is still in flight

    // The acked write must be visible: the router has to steer the
    // read away from the backend whose copy is still dirty, even
    // though that backend is kHealthy (and, health-wise, the most
    // attractive candidate by index tie-break).
    util::Status status = util::internal_error("done never fired");
    sim::Time done_at = 0;
    set.read(5, in, [&](util::Status s) {
        status = s;
        done_at = sim.now();
    });
    sim.run_until_idle();
    ASSERT_TRUE(status.is_ok()) << status.to_string();
    EXPECT_EQ(data, in);
    // A fast peer served it; the read neither queued behind the
    // laggard's saturated link (~2 ms) nor raced its pending ack.
    EXPECT_LT(done_at, 1'000'000u);
    // ...and the laggard's late ack still converged it afterwards.
    EXPECT_EQ(set.dirty_blocks(0), 0u);
    EXPECT_TRUE(*set.verify_equal(0, 1));
}

TEST(ReplicaSetEdge, LateWriteAckConvergesSlowHealthyBackend)
{
    sim::Simulator sim;
    ReplicaSetConfig cfg;
    cfg.quorum = 2;
    cfg.write_timeout = 100'000;  // 100 us: the slow backend misses it
    cfg.demote_threshold = 1000;  // stays kHealthy despite the timeout
    ReplicaSet set(sim, cfg);
    std::vector<std::unique_ptr<storage::MemBlockDevice>> media;
    for (int i = 0; i < 3; ++i) {
        media.push_back(
            std::make_unique<storage::MemBlockDevice>(fast_media()));
        BackendConfig backend;
        backend.link_bytes_per_sec = i == 0 ? 1'000'000 : 0; // ack ~1 ms
        set.add_backend(*media.back(), backend);
    }

    std::vector<std::byte> data(1024);
    wl::fill_pattern(37, 0, data);
    bool done = false;
    set.write(9, data, [&](util::Status s) { done = s.is_ok(); });
    sim.run_until_idle();
    ASSERT_TRUE(done);
    EXPECT_GE(set.backend_timeouts(0), 1u); // the deadline fired first
    // The genuine ack arrived after the timeout settled the target.
    // It must still be applied (and the dirty marker cleared): the
    // backend never leaves kHealthy, so nothing would ever resync it,
    // and one slow write would leave it silently divergent forever.
    EXPECT_EQ(set.backend_state(0), BackendState::kHealthy);
    EXPECT_EQ(set.dirty_blocks(0), 0u);
    EXPECT_TRUE(*set.verify_equal(0, 1));
}

TEST(ReplicaSetDeterminism, IdenticalRunsProduceIdenticalTimelines)
{
    auto run = [](std::uint64_t &now, std::uint64_t &failovers,
                  std::uint64_t &acked) {
        sim::Simulator sim;
        ReplicaSetConfig cfg;
        cfg.quorum = 2;
        cfg.read_timeout = 50'000;
        cfg.write_timeout = 50'000;
        ReplicaSet set(sim, cfg);
        std::vector<std::unique_ptr<storage::MemBlockDevice>> media;
        for (int i = 0; i < 3; ++i) {
            media.push_back(std::make_unique<storage::MemBlockDevice>(
                fast_media()));
            set.add_backend(*media.back());
        }
        std::vector<std::byte> buf(1024);
        for (std::uint64_t blk = 0; blk < 16; ++blk) {
            wl::fill_pattern(blk, 0, buf);
            set.write(blk, buf, [](util::Status) {});
        }
        sim.run_until_idle();
        set.crash_backend(0);
        for (int i = 0; i < 6; ++i) {
            set.read(static_cast<std::uint64_t>(i), buf,
                     [](util::Status) {});
            sim.run_until_idle();
        }
        set.revive_backend(0);
        sim.run_until_idle();
        now = sim.now();
        failovers = set.failovers();
        acked = set.writes_acked();
    };
    std::uint64_t now_a = 0, failovers_a = 0, acked_a = 0;
    std::uint64_t now_b = 0, failovers_b = 0, acked_b = 0;
    run(now_a, failovers_a, acked_a);
    run(now_b, failovers_b, acked_b);
    EXPECT_EQ(now_a, now_b);
    EXPECT_EQ(failovers_a, failovers_b);
    EXPECT_EQ(acked_a, acked_b);
}

} // namespace
} // namespace nesc::repl

// --- Controller + PF driver surface --------------------------------------

namespace nesc::virt {
namespace {

TestbedConfig
replicated_config(std::uint32_t backends = 3)
{
    TestbedConfig config;
    config.device.capacity_bytes = 64ULL << 20;
    config.host_memory_bytes = 64ULL << 20;
    TestbedReplicationConfig repl;
    repl.backends = backends;
    repl.media = storage::MemBlockDeviceConfig::ramdisk(
        0, 64ULL << 20); // rate 0 = fast; capacity auto-resized anyway
    config.replication = repl;
    return config;
}

TEST(ReplicatedTestbed, GuestIoFlowsThroughReplicaSet)
{
    auto bed = Testbed::create(replicated_config());
    ASSERT_TRUE(bed.is_ok()) << bed.status().to_string();
    ASSERT_NE((*bed)->replicas(), nullptr);

    auto vm = (*bed)->create_nesc_guest("/repl.img", 1024);
    ASSERT_TRUE(vm.is_ok()) << vm.status().to_string();
    std::vector<std::byte> out(8 * 1024), in(8 * 1024);
    wl::fill_pattern(23, 0, out);
    ASSERT_TRUE((*vm)->raw_disk().write_blocks(0, 8, out).is_ok());
    ASSERT_TRUE((*vm)->raw_disk().read_blocks(0, 8, in).is_ok());
    EXPECT_EQ(out, in);

    repl::ReplicaSet *set = (*bed)->replicas();
    EXPECT_GT(set->writes_acked(), 0u);
    EXPECT_GT(set->reads_served(), 0u);
    EXPECT_EQ(set->writes_failed(), 0u);
    // All backends converged once the traffic drained.
    (*bed)->sim().run_until_idle();
    EXPECT_TRUE(*set->verify_equal(0, 1));
    EXPECT_TRUE(*set->verify_equal(0, 2));
}

TEST(ReplicatedTestbed, PfDriverManagesReplication)
{
    auto bed = Testbed::create(replicated_config());
    ASSERT_TRUE(bed.is_ok()) << bed.status().to_string();
    drv::PfDriver &pf = (*bed)->pf();

    EXPECT_TRUE(pf.repl_attached());
    ASSERT_TRUE(pf.set_repl_quorum(1).is_ok());
    EXPECT_EQ((*bed)->replicas()->config().quorum, 1u);
    ASSERT_TRUE(pf.set_repl_read_timeout(500'000).is_ok());
    EXPECT_EQ((*bed)->replicas()->config().read_timeout, 500'000);

    auto status = pf.repl_backend_status(0);
    ASSERT_TRUE(status.is_ok()) << status.status().to_string();
    EXPECT_EQ(status->state,
              static_cast<std::uint64_t>(repl::BackendState::kHealthy));
    // Out-of-range backend: the device master-aborts the selection.
    EXPECT_EQ(pf.repl_backend_status(99).status().code(),
              util::ErrorCode::kNotFound);
    ASSERT_TRUE(pf.repl_failovers().is_ok());

    // Forced demotion + resync through the management command path.
    ASSERT_TRUE(pf.repl_demote(2).is_ok());
    auto down = pf.repl_backend_status(2);
    ASSERT_TRUE(down.is_ok());
    EXPECT_EQ(down->state,
              static_cast<std::uint64_t>(repl::BackendState::kDown));
    ASSERT_TRUE(pf.repl_resync(2).is_ok());
    auto polls = pf.repl_wait_resync(2);
    ASSERT_TRUE(polls.is_ok()) << polls.status().to_string();
    EXPECT_TRUE(*(*bed)->replicas()->verify_equal(0, 2));
}

TEST(ReplicatedTestbed, ReplRegistersArePfOnly)
{
    auto bed = Testbed::create(replicated_config());
    ASSERT_TRUE(bed.is_ok()) << bed.status().to_string();
    auto vm = (*bed)->create_nesc_guest("/vfpriv.img", 256);
    ASSERT_TRUE(vm.is_ok());
    auto fn = (*bed)->guest_vf(**vm);
    ASSERT_TRUE(fn.is_ok());
    ctrl::Controller &ctrl = (*bed)->controller();
    EXPECT_FALSE(ctrl.mmio_read(*fn, ctrl::reg::kReplQuorum, 8).is_ok());
    EXPECT_FALSE(
        ctrl.mmio_write(*fn, ctrl::reg::kReplQuorum, 1, 8).is_ok());
}

TEST(ReplicatedTestbed, UnreplicatedTestbedExposesNothing)
{
    TestbedConfig config;
    config.device.capacity_bytes = 32ULL << 20;
    auto bed = Testbed::create(config);
    ASSERT_TRUE(bed.is_ok());
    EXPECT_EQ((*bed)->replicas(), nullptr);
    EXPECT_FALSE((*bed)->pf().repl_attached());
    EXPECT_EQ((*bed)->pf().repl_backend_status(0).status().code(),
              util::ErrorCode::kNotFound);
    EXPECT_FALSE((*bed)->pf().repl_demote(0).is_ok());
}

TEST(ReplicatedTestbed, TinyJournalConfigStillCoversPrimaryDevice)
{
    TestbedConfig config = replicated_config();
    config.replication->backend.journal_blocks = 1; // below the clamp
    auto bed = Testbed::create(config);
    ASSERT_TRUE(bed.is_ok()) << bed.status().to_string();

    // JournaledBlockstore clamps its ring to >= 3 blocks. The testbed
    // must size each backend for the clamped ring, or the data region
    // falls short of the primary's pLBA space and high-pLBA transfers
    // fail out-of-range.
    const auto geometry = (*bed)->device().geometry();
    const std::uint64_t primary_blocks =
        geometry.capacity_bytes / geometry.logical_block_size;
    EXPECT_GE((*bed)->replicas()->data_blocks(), primary_blocks);

    auto vm = (*bed)->create_nesc_guest("/tiny.img", 512);
    ASSERT_TRUE(vm.is_ok()) << vm.status().to_string();
    std::vector<std::byte> out(4 * 1024), in(4 * 1024);
    wl::fill_pattern(41, 0, out);
    ASSERT_TRUE((*vm)->raw_disk().write_blocks(508, 4, out).is_ok());
    ASSERT_TRUE((*vm)->raw_disk().read_blocks(508, 4, in).is_ok());
    EXPECT_EQ(out, in);
    EXPECT_EQ((*bed)->replicas()->writes_failed(), 0u);
}

TEST(ReplicatedTestbed, OrganicCrashDetectionDemotesAndRecovers)
{
    TestbedConfig config = replicated_config();
    TestbedReplicationConfig &repl = *config.replication;
    repl.set.read_timeout = 200'000;
    repl.set.write_timeout = 200'000;
    repl.set.demote_threshold = 3;
    auto bed = Testbed::create(config);
    ASSERT_TRUE(bed.is_ok()) << bed.status().to_string();
    auto vm = (*bed)->create_nesc_guest("/crash.img", 512);
    ASSERT_TRUE(vm.is_ok());

    std::vector<std::byte> buf(4 * 1024);
    wl::fill_pattern(29, 0, buf);
    ASSERT_TRUE((*vm)->raw_disk().write_blocks(0, 4, buf).is_ok());

    repl::ReplicaSet *set = (*bed)->replicas();
    set->crash_backend(1);
    // Keep writing: backend 1 stops acking, health events accumulate,
    // and the set demotes it without any explicit notification.
    for (int i = 0; i < 8; ++i) {
        wl::fill_pattern(30 + i, 0, buf);
        ASSERT_TRUE(
            (*vm)->raw_disk().write_blocks(4 * (i + 1), 4, buf).is_ok());
    }
    (*bed)->sim().run_until_idle();
    EXPECT_EQ(set->backend_state(1), repl::BackendState::kDown);

    // Revive: journal recovery + background resync converge it back.
    set->revive_backend(1);
    (*bed)->sim().run_until_idle();
    EXPECT_EQ(set->backend_state(1), repl::BackendState::kHealthy);
    EXPECT_TRUE(*set->verify_equal(0, 1));
}

} // namespace
} // namespace nesc::virt

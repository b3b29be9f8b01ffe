/**
 * @file
 * Unit tests for the discrete-event simulator and BandwidthServer:
 * event ordering on the single (when, seq) event heap, checked against
 * a sorted reference model, the generational arena, and a
 * whole-controller determinism stress (same seed, same timeline and
 * trace spans, event for event).
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstring>
#include <functional>
#include <memory>
#include <random>
#include <tuple>
#include <vector>

#include "drivers/function_driver.h"
#include "extent/tree_image.h"
#include "nesc/controller.h"
#include "obs/trace.h"
#include "pcie/mmio.h"
#include "sim/arena.h"
#include "sim/bandwidth_server.h"
#include "sim/simulator.h"
#include "storage/mem_block_device.h"

namespace nesc::sim {
namespace {

TEST(Simulator, StartsAtZeroAndIdle)
{
    Simulator sim;
    EXPECT_EQ(sim.now(), 0u);
    EXPECT_TRUE(sim.idle());
    EXPECT_FALSE(sim.step());
}

TEST(Simulator, ExecutesInTimestampOrder)
{
    Simulator sim;
    std::vector<int> order;
    sim.schedule_at(30, [&]() { order.push_back(3); });
    sim.schedule_at(10, [&]() { order.push_back(1); });
    sim.schedule_at(20, [&]() { order.push_back(2); });
    sim.run_until_idle();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(sim.now(), 30u);

    // Two interleaved runs of timestamps merge into one time order.
    Simulator merged;
    std::vector<Time> fired;
    for (Time t : {30u, 10u, 50u})
        merged.schedule_at(t, [&, t]() { fired.push_back(t); });
    for (Time t : {40u, 20u, 60u})
        merged.schedule_at(t, [&, t]() { fired.push_back(t); });
    merged.run_until_idle();
    EXPECT_EQ(fired, (std::vector<Time>{10, 20, 30, 40, 50, 60}));
    EXPECT_EQ(merged.now(), 60u);
}

TEST(Simulator, FifoAmongEqualTimestamps)
{
    Simulator sim;
    std::vector<int> order;
    for (int i = 0; i < 5; ++i)
        sim.schedule_at(100, [&order, i]() { order.push_back(i); });
    sim.run_until_idle();
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));

    // An earlier event scheduled last still runs first; the ties
    // behind it keep schedule order.
    Simulator tie;
    std::vector<int> tie_order;
    for (int i = 0; i < 4; ++i)
        tie.schedule_at(100, [&tie_order, i]() { tie_order.push_back(i); });
    tie.schedule_at(50, [&]() { tie_order.push_back(-1); });
    tie.run_until_idle();
    EXPECT_EQ(tie_order, (std::vector<int>{-1, 0, 1, 2, 3}));

    // 64 events at one timestamp stay FIFO.
    Simulator many;
    std::vector<int> many_order;
    for (int i = 0; i < 64; ++i)
        many.schedule_at(7, [&many_order, i]() { many_order.push_back(i); });
    many.run_until_idle();
    ASSERT_EQ(many_order.size(), 64u);
    for (int i = 0; i < 64; ++i)
        EXPECT_EQ(many_order[static_cast<std::size_t>(i)], i);
}

TEST(Simulator, ScheduleInIsRelative)
{
    Simulator sim;
    sim.schedule_at(50, [] {});
    sim.run_until_idle();
    Time fired_at = 0;
    sim.schedule_in(25, [&]() { fired_at = sim.now(); });
    sim.run_until_idle();
    EXPECT_EQ(fired_at, 75u);
}

TEST(Simulator, PastSchedulingClampsToNow)
{
    Simulator sim;
    sim.schedule_at(100, [] {});
    sim.run_until_idle();
    bool fired = false;
    sim.schedule_at(10, [&]() { fired = true; }); // in the past
    sim.run_until_idle();
    EXPECT_TRUE(fired);
    EXPECT_EQ(sim.now(), 100u);
}

TEST(Simulator, EventsCanScheduleEvents)
{
    Simulator sim;
    int depth = 0;
    std::function<void()> chain = [&]() {
        if (++depth < 10)
            sim.schedule_in(5, chain);
    };
    sim.schedule_at(0, chain);
    sim.run_until_idle();
    EXPECT_EQ(depth, 10);
    EXPECT_EQ(sim.now(), 45u);
}

TEST(Simulator, RunUntilAdvancesClockPastLastEvent)
{
    Simulator sim;
    bool fired = false;
    sim.schedule_at(10, [&]() { fired = true; });
    sim.run_until(100);
    EXPECT_TRUE(fired);
    EXPECT_EQ(sim.now(), 100u);
}

TEST(Simulator, RunUntilDoesNotExecuteLaterEvents)
{
    Simulator sim;
    bool fired = false;
    sim.schedule_at(200, [&]() { fired = true; });
    sim.run_until(100);
    EXPECT_FALSE(fired);
    EXPECT_EQ(sim.now(), 100u);
    sim.run_until_idle();
    EXPECT_TRUE(fired);
}

TEST(Simulator, AdvanceExecutesWindowedEvents)
{
    Simulator sim;
    int count = 0;
    sim.schedule_at(5, [&]() { ++count; });
    sim.schedule_at(15, [&]() { ++count; });
    sim.advance(10);
    EXPECT_EQ(count, 1);
    EXPECT_EQ(sim.now(), 10u);
}

TEST(Simulator, ReentrantSteppingFromEvent)
{
    // Drivers block synchronously by stepping the simulator from
    // within an event (e.g. fault service inside an IRQ). The engine
    // must tolerate nested step() calls.
    Simulator sim;
    bool inner_fired = false;
    bool outer_done = false;
    sim.schedule_at(10, [&]() {
        sim.schedule_in(5, [&]() { inner_fired = true; });
        while (!inner_fired)
            ASSERT_TRUE(sim.step());
        outer_done = true;
    });
    sim.run_until_idle();
    EXPECT_TRUE(inner_fired);
    EXPECT_TRUE(outer_done);
    EXPECT_EQ(sim.now(), 15u);
}

TEST(Simulator, CountsExecutedEvents)
{
    Simulator sim;
    for (int i = 0; i < 7; ++i)
        sim.schedule_in(i, [] {});
    sim.run_until_idle();
    EXPECT_EQ(sim.events_executed(), 7u);
}

// --- BandwidthServer ----------------------------------------------------

TEST(BandwidthServer, LatencyOnlyWhenInfinitelyFast)
{
    BandwidthServer server(0, 100);
    EXPECT_EQ(server.acquire(0, 4096), 100u);
    EXPECT_EQ(server.acquire(0, 1 << 20), 100u);
}

TEST(BandwidthServer, TransferTimeMatchesRate)
{
    BandwidthServer server(1'000'000'000, 0); // 1 GB/s
    EXPECT_EQ(server.acquire(0, 1'000'000), 1'000'000u); // 1 MB -> 1 ms
}

TEST(BandwidthServer, SerializesBackToBackTransfers)
{
    BandwidthServer server(1'000'000'000, 50);
    const Time first = server.acquire(0, 1'000'000);
    const Time second = server.acquire(0, 1'000'000);
    EXPECT_EQ(first, 1'000'000u + 50u);
    // Second transfer queues behind the first's occupancy.
    EXPECT_EQ(second, 2'000'000u + 50u);
}

TEST(BandwidthServer, IdleGapsAreNotCharged)
{
    BandwidthServer server(1'000'000'000, 0);
    (void)server.acquire(0, 1'000'000);
    // Arrives long after the first finished: no queueing.
    EXPECT_EQ(server.acquire(10'000'000, 1'000'000), 11'000'000u);
}

TEST(BandwidthServer, PeekDoesNotBook)
{
    BandwidthServer server(1'000'000'000, 0);
    const Time peeked = server.peek(0, 1'000'000);
    EXPECT_EQ(peeked, 1'000'000u);
    EXPECT_EQ(server.busy_until(), 0u);
    EXPECT_EQ(server.acquire(0, 1'000'000), peeked);
}

TEST(BandwidthServer, TracksTotals)
{
    BandwidthServer server(1'000'000, 0);
    (void)server.acquire(0, 100);
    (void)server.acquire(0, 200);
    EXPECT_EQ(server.total_bytes(), 300u);
    EXPECT_EQ(server.total_transfers(), 2u);
    server.reset();
    EXPECT_EQ(server.total_bytes(), 0u);
    EXPECT_EQ(server.busy_until(), 0u);
}

TEST(Callback, MoveOnlyCapturesWork)
{
    // The event-queue callback must carry move-only state (the DMA
    // layer captures buffers); std::function could not.
    auto data = std::make_unique<int>(41);
    int result = 0;
    Callback cb([d = std::move(data), &result]() { result = *d + 1; });
    ASSERT_TRUE(static_cast<bool>(cb));
    cb();
    EXPECT_EQ(result, 42);
}

TEST(Callback, LargeCaptureFallsBackToHeap)
{
    // A capture bigger than the inline buffer still works (heap path).
    struct Big {
        std::byte bytes[256]{};
    } big;
    big.bytes[0] = std::byte{7};
    int got = 0;
    Callback cb([big, &got]() { got = static_cast<int>(big.bytes[0]); });
    Callback moved = std::move(cb);
    moved();
    EXPECT_EQ(got, 7);
}

TEST(Callback, MoveTransfersOwnership)
{
    int calls = 0;
    Callback a([&calls]() { ++calls; });
    Callback b = std::move(a);
    EXPECT_FALSE(static_cast<bool>(a));
    b();
    b = Callback([&calls]() { calls += 10; });
    b();
    EXPECT_EQ(calls, 11);
}

TEST(Simulator, ReserveAndEventAccounting)
{
    Simulator sim;
    sim.reserve(10'000);
    const std::uint64_t before = Simulator::total_events_executed();
    const std::uint64_t executed_before = sim.events_executed();
    for (int i = 0; i < 100; ++i)
        sim.schedule_at(i, []() {});
    sim.run_until_idle();
    EXPECT_EQ(sim.events_executed() - executed_before, 100u);
    EXPECT_GE(Simulator::total_events_executed() - before, 100u);
}

// --- Heap against a sorted reference ------------------------------------

/**
 * Random schedule recorder for the heap model test: every event goes
 * through schedule_one(), so its index is also the Simulator's seq.
 */
struct ScheduleModel {
    struct Record {
        Time when;
        Duration ahead; ///< when - now at schedule time
        bool weak;
    };

    static constexpr std::size_t kEvents = 20'000;

    Simulator sim;
    std::mt19937_64 rng{0x5eed};
    std::vector<Record> scheduled;
    std::vector<std::size_t> fired;
    std::size_t strong_pending = 0;
    std::size_t weak_pending = 0;
    std::size_t clock_errors = 0;

    /**
     * Near delays sit on a coarse 10 ns grid so many events share a
     * timestamp; about 10% are far (> 200 us, on a 100 us grid, so far
     * events tie with each other too).
     */
    Duration delay()
    {
        if (rng() % 10 == 0)
            return 200'001 + (rng() % 20) * 100'000;
        return (rng() % 16) * 10;
    }

    void schedule_one()
    {
        if (scheduled.size() >= kEvents)
            return;
        const std::size_t id = scheduled.size();
        const Time now = sim.now();
        const Duration d = delay();
        const auto kind = rng() % 3; // schedule_at, _in, _weak_in
        // One schedule_at in eight targets the past and clamps to now.
        const Time at = kind == 0 && rng() % 8 == 0
                            ? now - std::min<Time>(now, 5)
                            : now + d;
        const Record rec{std::max(at, now), std::max(at, now) - now,
                         kind == 2};
        scheduled.push_back(rec);
        ++(rec.weak ? weak_pending : strong_pending);
        auto fn = [this, id]() { fire(id); };
        if (kind == 0)
            sim.schedule_at(at, std::move(fn));
        else if (kind == 1)
            sim.schedule_in(d, std::move(fn));
        else
            sim.schedule_weak_in(d, std::move(fn));
    }

    void fire(std::size_t id)
    {
        const Record rec = scheduled[id]; // schedule_one() may grow it
        if (sim.now() != rec.when)
            ++clock_errors;
        --(rec.weak ? weak_pending : strong_pending);
        fired.push_back(id);
        if (rng() % 4 == 0)
            schedule_one(); // callbacks schedule further events
    }

    /** Timestamps of the events the model still holds, sorted. */
    std::vector<Time> pending_whens() const
    {
        std::vector<bool> done(scheduled.size(), false);
        for (std::size_t id : fired)
            done[id] = true;
        std::vector<Time> whens;
        for (std::size_t id = 0; id < scheduled.size(); ++id)
            if (!done[id])
                whens.push_back(scheduled[id].when);
        std::sort(whens.begin(), whens.end());
        return whens;
    }
};

TEST(Simulator, RandomScheduleMatchesSortedReference)
{
    ScheduleModel m;
    for (int i = 0; i < 2000; ++i)
        m.schedule_one();
    int armed_after_idle = 0;
    for (int round = 0; m.scheduled.size() < ScheduleModel::kEvents ||
                        !m.sim.idle();
         ++round) {
        if (round % 2 == 0) {
            // Every other deadline lands exactly on a pending event,
            // which must fire.
            const std::vector<Time> before = m.pending_whens();
            const Time deadline =
                round % 4 == 0 && !before.empty()
                    ? before[m.rng() % before.size()]
                    : m.sim.now() + m.rng() % 300'000;
            m.sim.run_until(deadline);
            EXPECT_EQ(m.sim.now(), deadline);
            const std::vector<Time> after = m.pending_whens();
            if (!after.empty()) {
                EXPECT_GT(after.front(), deadline) << "round " << round;
            }
        } else {
            m.sim.run_until_idle();
            EXPECT_EQ(m.strong_pending, 0u) << "round " << round;
            armed_after_idle += m.weak_pending > 0 ? 1 : 0;
        }
        EXPECT_EQ(m.sim.idle(), m.strong_pending == 0) << "round " << round;
        EXPECT_EQ(m.sim.weak_pending(), m.weak_pending)
            << "round " << round;
        for (int i = 0; i < 500; ++i)
            m.schedule_one();
    }
    // Only weak events remain; a deadline past all of them fires them.
    Time last = 0;
    for (const auto &rec : m.scheduled)
        last = std::max(last, rec.when);
    m.sim.run_until(last);
    EXPECT_TRUE(m.sim.idle());
    EXPECT_EQ(m.sim.weak_pending(), 0u);
    EXPECT_EQ(m.weak_pending, 0u);
    EXPECT_FALSE(m.sim.step());

    // The schedule has the intended shape.
    ASSERT_EQ(m.scheduled.size(), ScheduleModel::kEvents);
    const auto far =
        std::count_if(m.scheduled.begin(), m.scheduled.end(),
                      [](const auto &r) { return r.ahead > 200'000; });
    EXPECT_GT(far, 1500);
    EXPECT_LT(far, 2500);
    std::vector<Time> whens;
    for (const auto &rec : m.scheduled)
        whens.push_back(rec.when);
    std::sort(whens.begin(), whens.end());
    EXPECT_LT(std::unique(whens.begin(), whens.end()) - whens.begin(),
              static_cast<std::ptrdiff_t>(ScheduleModel::kEvents / 4));
    EXPECT_GT(armed_after_idle, 0); // idle with weak timers pending

    // Execution order is exactly the (when, seq) sort of the schedule.
    std::vector<std::size_t> reference(m.scheduled.size());
    for (std::size_t id = 0; id < reference.size(); ++id)
        reference[id] = id;
    std::sort(reference.begin(), reference.end(),
              [&](std::size_t a, std::size_t b) {
                  return std::tie(m.scheduled[a].when, a) <
                         std::tie(m.scheduled[b].when, b);
              });
    EXPECT_EQ(m.fired, reference);
    EXPECT_EQ(m.clock_errors, 0u);
}

// --- Generational arena -------------------------------------------------

TEST(Arena, AcquireGetReleaseRoundTrip)
{
    Arena<int> arena;
    const auto h = arena.acquire();
    ASSERT_NE(arena.get(h), nullptr);
    *arena.get(h) = 42;
    EXPECT_EQ(arena.live(), 1u);
    arena.release(h);
    EXPECT_EQ(arena.live(), 0u);
    EXPECT_EQ(arena.get(h), nullptr); // stale handle: teardown idiom
}

TEST(Arena, ReuseNeverAliasesLiveCommands)
{
    // The slot is recycled, but a handle from the previous occupancy
    // must never resolve to the new occupant.
    Arena<int> arena;
    const auto old = arena.acquire();
    *arena.get(old) = 1;
    arena.release(old);
    const auto fresh = arena.acquire();
    ASSERT_EQ(fresh.index, old.index); // same slot reused...
    EXPECT_NE(fresh.generation, old.generation);
    *arena.get(fresh) = 2;
    EXPECT_EQ(arena.get(old), nullptr); // ...but the old ref is stale
    EXPECT_EQ(*arena.get(fresh), 2);
}

TEST(Arena, ReleaseIsIdempotent)
{
    Arena<int> arena;
    const auto a = arena.acquire();
    arena.release(a);
    arena.release(a); // double release: no-op, must not corrupt
    const auto b = arena.acquire();
    const auto c = arena.acquire();
    EXPECT_NE(b.index, c.index); // freelist holds no duplicate
    EXPECT_EQ(arena.live(), 2u);
}

TEST(Arena, RecycledSlotKeepsCapacityAndGrowthIsStable)
{
    Arena<std::vector<int>> arena;
    auto h = arena.acquire();
    arena.get(h)->assign(100, 7);
    const std::size_t cap = arena.get(h)->capacity();
    arena.release(h);
    auto h2 = arena.acquire();
    // Recycle-not-reconstruct: the vector keeps its buffer.
    EXPECT_GE(arena.get(h2)->capacity(), cap);
    arena.get(h2)->clear();
    // Pointer stability across chunk growth.
    std::vector<int> *p = arena.get(h2);
    std::vector<Arena<std::vector<int>>::Handle> handles;
    for (int i = 0; i < 500; ++i)
        handles.push_back(arena.acquire());
    EXPECT_EQ(arena.get(h2), p);
    EXPECT_GE(arena.capacity(), 501u);
}

TEST(Arena, HandlesAcrossManyChurnsStayUnique)
{
    Arena<std::uint64_t> arena;
    std::vector<Arena<std::uint64_t>::Handle> live;
    std::uint64_t next = 0;
    std::mt19937 rng(7);
    for (int round = 0; round < 2000; ++round) {
        if (live.empty() || rng() % 2 == 0) {
            auto h = arena.acquire();
            *arena.get(h) = next++;
            live.push_back(h);
        } else {
            const std::size_t pick = rng() % live.size();
            arena.release(live[pick]);
            EXPECT_EQ(arena.get(live[pick]), nullptr);
            live.erase(live.begin() +
                       static_cast<std::ptrdiff_t>(pick));
        }
        EXPECT_EQ(arena.live(), live.size());
    }
    // Every surviving handle still resolves, to a distinct object.
    std::vector<std::uint64_t> seen;
    for (auto h : live)
        seen.push_back(*arena.get(h));
    std::sort(seen.begin(), seen.end());
    EXPECT_EQ(std::unique(seen.begin(), seen.end()), seen.end());
}

// --- Whole-controller determinism stress --------------------------------

namespace determinism {

/** One retired request in the completion timeline. */
struct Retired {
    Time at;
    pcie::FunctionId fn;
    std::uint64_t request;
    ctrl::CompletionStatus status;

    bool operator==(const Retired &) const = default;
};

struct RunResult {
    std::vector<Retired> timeline;
    std::vector<obs::SpanEvent> spans;
};

bool
same_spans(const std::vector<obs::SpanEvent> &a,
           const std::vector<obs::SpanEvent> &b)
{
    if (a.size() != b.size())
        return false;
    for (std::size_t i = 0; i < a.size(); ++i) {
        const auto ta = std::tie(a[i].start, a[i].dur, a[i].tag,
                                 a[i].aux, a[i].fn, a[i].stage);
        const auto tb = std::tie(b[i].start, b[i].dur, b[i].tag,
                                 b[i].aux, b[i].fn, b[i].stage);
        if (ta != tb)
            return false;
    }
    return true;
}

/**
 * 4-VF mixed workload: each VF keeps a queue depth of 4 outstanding
 * requests (reads, writes, and reads of unmapped holes) generated from
 * @p seed, until 32 requests per VF have retired. Returns the full
 * completion timeline and every controller trace span.
 */
RunResult
run_workload(std::uint64_t seed)
{
    pcie::HostMemory host_memory(64 << 20);
    storage::MemBlockDeviceConfig dev_cfg;
    dev_cfg.capacity_bytes = 16 << 20;
    storage::MemBlockDevice device(dev_cfg);
    Simulator sim;
    pcie::InterruptController irq(sim);
    ctrl::ControllerConfig cfg;
    cfg.max_vfs = 4;
    ctrl::Controller controller(sim, host_memory, device, irq, cfg);
    pcie::BarPageRouter bar(controller, 4096,
                            controller.num_functions());
    controller.enable_tracing(1 << 16);

    constexpr std::uint64_t kSizeBlocks = 256;
    std::vector<extent::ExtentTreeImage> trees;
    auto pf_write = [&](std::uint64_t offset, std::uint64_t value) {
        ASSERT_TRUE(
            controller.mmio_write(0, offset, value, 8).is_ok());
    };
    std::vector<std::unique_ptr<drv::FunctionDriver>> drivers;
    for (pcie::FunctionId fn = 1; fn <= 4; ++fn) {
        // First half mapped, second half holes (reads zero-fill,
        // writes fault — the driver surfaces those as failures).
        extent::ExtentList extents{
            {0, kSizeBlocks / 2, 3000ULL + fn * 400}};
        auto image =
            extent::ExtentTreeImage::build(host_memory, extents);
        EXPECT_TRUE(image.is_ok());
        trees.push_back(std::move(image).value());
        pf_write(ctrl::reg::kMgmtVfId, fn);
        pf_write(ctrl::reg::kMgmtExtentRoot, trees.back().root());
        pf_write(ctrl::reg::kMgmtDeviceSize, kSizeBlocks);
        pf_write(ctrl::reg::kMgmtCommand,
                 static_cast<std::uint64_t>(
                     ctrl::MgmtCommand::kCreateVf));
        auto driver = std::make_unique<drv::FunctionDriver>(
            sim, host_memory, bar, irq, fn);
        EXPECT_TRUE(driver->init().is_ok());
        drivers.push_back(std::move(driver));
    }

    RunResult result;
    std::mt19937_64 rng(seed);
    constexpr int kDepth = 4;
    constexpr std::uint64_t kRequestsPerVf = 32;
    std::uint64_t next_request = 0;
    std::vector<std::uint64_t> issued(4, 0);
    std::vector<pcie::HostAddr> buffers;
    for (int i = 0; i < 4; ++i)
        buffers.push_back(*host_memory.alloc(16 * 1024, 4096));

    std::function<void(std::size_t)> submit_one =
        [&](std::size_t vf_idx) {
            if (issued[vf_idx] >= kRequestsPerVf)
                return;
            ++issued[vf_idx];
            const std::uint64_t request = next_request++;
            const bool read = rng() % 3 != 0; // 2:1 read:write mix
            const std::uint32_t nblocks =
                1 + static_cast<std::uint32_t>(rng() % 4);
            // Reads roam the whole device (holes included); writes
            // stay on the mapped half so they retire kOk.
            const std::uint64_t span =
                (read ? kSizeBlocks : kSizeBlocks / 2) - nblocks;
            const std::uint64_t vlba = rng() % span;
            const auto status = drivers[vf_idx]->submit(
                read ? ctrl::Opcode::kRead : ctrl::Opcode::kWrite,
                vlba, nblocks, buffers[vf_idx],
                [&result, &sim, &submit_one, vf_idx,
                 request](ctrl::CompletionStatus s) {
                    result.timeline.push_back(
                        {sim.now(),
                         static_cast<pcie::FunctionId>(vf_idx + 1),
                         request, s});
                    submit_one(vf_idx);
                });
            ASSERT_TRUE(status.is_ok());
        };
    for (std::size_t vf = 0; vf < 4; ++vf)
        for (int d = 0; d < kDepth; ++d)
            submit_one(vf);
    sim.run_until_idle();

    EXPECT_EQ(result.timeline.size(), 4 * kRequestsPerVf);
    result.spans = controller.tracer().events();
    EXPECT_FALSE(result.spans.empty());
    return result;
}

TEST(SimDeterminism, MixedWorkloadIsSeedStable)
{
    for (std::uint64_t seed = 1; seed <= 10; ++seed) {
        // Same seed: runs must match event for event.
        RunResult a = run_workload(seed);
        RunResult b = run_workload(seed);
        EXPECT_EQ(a.timeline, b.timeline) << "seed " << seed;
        EXPECT_TRUE(same_spans(a.spans, b.spans)) << "seed " << seed;
    }
}

} // namespace determinism

} // namespace
} // namespace nesc::sim

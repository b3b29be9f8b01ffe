/**
 * @file
 * Unit and register-level tests for the always-on telemetry plane:
 * SloWatch (windowed accounting, adaptive sampling, breach directory),
 * FlightRecorder (rings, postmortems), TimeSeriesSampler, the
 * Prometheus exposition, the PF-only observability register block and
 * its PfDriver helpers, plus the pinned LogHistogram percentile edge
 * cases and the simulator's ordering of far-future and weak timers.
 */
#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "drivers/function_driver.h"
#include "nesc/telemetry.h"
#include "obs/flight_recorder.h"
#include "obs/sampler.h"
#include "obs/slo.h"
#include "virt/testbed.h"
#include "workloads/dd.h"

namespace nesc {
namespace {

// --- LogHistogram percentile edge cases (pinned) ----------------------

TEST(LogHistogramEdges, EmptyReturnsZeroForEveryP)
{
    obs::LogHistogram h;
    EXPECT_EQ(h.percentile(0.0), 0.0);
    EXPECT_EQ(h.percentile(50.0), 0.0);
    EXPECT_EQ(h.percentile(100.0), 0.0);
    EXPECT_EQ(h.percentile(std::numeric_limits<double>::quiet_NaN()), 0.0);
}

TEST(LogHistogramEdges, OutOfRangePClampsToMinMax)
{
    obs::LogHistogram h;
    h.observe(100);
    h.observe(1000);
    h.observe(10000);
    EXPECT_EQ(h.percentile(0.0), 100.0);
    EXPECT_EQ(h.percentile(-5.0), 100.0);
    EXPECT_EQ(h.percentile(100.0), 10000.0);
    EXPECT_EQ(h.percentile(250.0), 10000.0);
}

TEST(LogHistogramEdges, NanPResolvesToMin)
{
    obs::LogHistogram h;
    h.observe(7);
    h.observe(900);
    EXPECT_EQ(h.percentile(std::numeric_limits<double>::quiet_NaN()), 7.0);
}

TEST(LogHistogramEdges, SingleSampleIsEveryPercentile)
{
    obs::LogHistogram h;
    h.observe(4242);
    for (const double p : {0.0, 1.0, 50.0, 99.0, 99.9, 100.0})
        EXPECT_EQ(h.percentile(p), 4242.0) << "p=" << p;
}

TEST(LogHistogramEdges, ObserveBatchMatchesPerElementObserve)
{
    obs::LogHistogram one, batch;
    std::vector<std::uint64_t> values;
    for (std::uint64_t i = 0; i < 300; ++i)
        values.push_back((i * 2654435761u) % 1'000'000);
    for (const std::uint64_t v : values)
        one.observe(v);
    batch.observe_batch(values.data(), values.size());
    EXPECT_EQ(batch.count(), one.count());
    EXPECT_EQ(batch.sum(), one.sum());
    EXPECT_EQ(batch.min(), one.min());
    EXPECT_EQ(batch.max(), one.max());
    for (const double p : {1.0, 50.0, 99.0, 99.9})
        EXPECT_EQ(batch.percentile(p), one.percentile(p)) << "p=" << p;
}

TEST(LogHistogramEdges, ObserveStridedFoldsOneAosField)
{
    // Array-of-structs with 4 u64 fields; fold field 2 only.
    struct Rec {
        std::uint64_t v[4];
    };
    std::vector<Rec> recs;
    obs::LogHistogram expect;
    for (std::uint64_t i = 0; i < 100; ++i) {
        recs.push_back({{i, i * 10, i * 100 + 5, i * 1000}});
        expect.observe(i * 100 + 5);
    }
    obs::LogHistogram strided;
    strided.observe_strided(&recs[0].v[2], 4, recs.size());
    EXPECT_EQ(strided.count(), expect.count());
    EXPECT_EQ(strided.sum(), expect.sum());
    EXPECT_EQ(strided.min(), expect.min());
    EXPECT_EQ(strided.max(), expect.max());
}

// --- SloWatch ---------------------------------------------------------

TEST(SloWatch, DisabledIsInert)
{
    obs::SloWatch slo;
    EXPECT_FALSE(slo.enabled());
    slo.observe_ok(1, 100, 10, 20, 70);
    slo.note_op(1, true);
    slo.rotate(1000);
    EXPECT_EQ(slo.window(1, 0), nullptr);
    EXPECT_EQ(slo.window_ops(1), 0u);
    EXPECT_EQ(slo.windows_rotated(), 0u);
    EXPECT_EQ(slo.limits(1).max_p99_ns, 0u);
}

TEST(SloWatch, RotationExposesClosedSnapshot)
{
    obs::SloWatch slo;
    slo.enable(4, 0);
    for (int i = 0; i < 5; ++i)
        slo.observe_ok(2, 1000 + i, 100, 200, 700);
    // Nothing readable before rotation: the staged samples belong to
    // the still-open current window.
    EXPECT_EQ(slo.window_ops(2), 0u);
    slo.rotate(1'000'000);
    ASSERT_NE(slo.window(2, obs::SloWatch::kEndToEnd), nullptr);
    EXPECT_EQ(slo.window(2, obs::SloWatch::kEndToEnd)->count(), 5u);
    EXPECT_EQ(slo.window_ops(2), 5u);
    EXPECT_EQ(slo.window_errors(2), 0u);
    EXPECT_EQ(slo.window_start(2), 0u);
    // An idle window hides the stale snapshot behind the epoch check.
    slo.rotate(2'000'000);
    EXPECT_EQ(slo.window(2, obs::SloWatch::kEndToEnd)->count(), 0u);
    EXPECT_EQ(slo.window_ops(2), 0u);
}

TEST(SloWatch, StagingDrainsAtRotationAndAtBatchBoundary)
{
    obs::SloWatch slo;
    slo.enable(2, 0);
    // Exactly one full staging batch drains mid-window...
    for (std::size_t i = 0; i < obs::SloWatch::kStageBatch; ++i)
        slo.observe_ok(1, 500, 50, 100, 350);
    // ...plus a partial batch that only rotation may fold.
    slo.observe_ok(1, 9000, 50, 100, 350);
    slo.rotate(1'000'000);
    const auto *e2e = slo.window(1, obs::SloWatch::kEndToEnd);
    ASSERT_NE(e2e, nullptr);
    EXPECT_EQ(e2e->count(), obs::SloWatch::kStageBatch + 1);
    EXPECT_EQ(e2e->max(), 9000u);
    EXPECT_EQ(slo.window_ops(1), obs::SloWatch::kStageBatch + 1);
}

TEST(SloWatch, AdaptiveSamplingExactPrefixThenOneInEight)
{
    obs::SloWatch slo;
    slo.enable(2, 0);
    const std::uint32_t beyond = 800;
    const std::uint32_t total = obs::SloWatch::kExactPerWindow + beyond;
    for (std::uint32_t i = 0; i < total; ++i)
        slo.observe_ok(1, 1000, 100, 200, 700);
    slo.rotate(1'000'000);
    // Ops count is always exact; only the histograms thin out.
    EXPECT_EQ(slo.window_ops(1), total);
    const auto *e2e = slo.window(1, obs::SloWatch::kEndToEnd);
    ASSERT_NE(e2e, nullptr);
    const std::uint64_t sampled =
        obs::SloWatch::kExactPerWindow +
        (beyond + obs::SloWatch::kSampleMask) /
            (obs::SloWatch::kSampleMask + 1);
    EXPECT_EQ(e2e->count(), sampled);
    // Every per-stage histogram sampled the same schedule.
    EXPECT_EQ(slo.window(1, obs::SloWatch::kQueue)->count(), sampled);
    EXPECT_EQ(slo.window(1, obs::SloWatch::kTransfer)->count(), sampled);
}

TEST(SloWatch, SamplingGateResetsEachWindow)
{
    obs::SloWatch slo;
    slo.enable(2, 0);
    for (int i = 0; i < 500; ++i)
        slo.observe_ok(1, 1000, 100, 200, 700);
    slo.rotate(1'000'000);
    // A lightly loaded next window is back to full fidelity.
    for (int i = 0; i < 10; ++i)
        slo.observe_ok(1, 2000, 100, 200, 1700);
    slo.rotate(2'000'000);
    EXPECT_EQ(slo.window(1, obs::SloWatch::kEndToEnd)->count(), 10u);
    EXPECT_EQ(slo.window_ops(1), 10u);
}

TEST(SloWatch, LatencyBreachOncePerWindow)
{
    obs::SloWatch slo;
    slo.enable(2, 0);
    slo.set_limits(1, {1'000, 0});
    int hook_calls = 0;
    slo.set_breach_hook([&](const obs::SloBreach &b) {
        ++hook_calls;
        EXPECT_EQ(b.fn, 1u);
        EXPECT_EQ(b.metric, obs::SloMetric::kLatencyP99);
        EXPECT_EQ(b.threshold, 1'000u);
        EXPECT_GT(b.observed, 1'000u);
    });
    // Hundreds of violating ops in one window raise exactly one
    // breach: evaluation happens only at rotation.
    for (int i = 0; i < 300; ++i)
        slo.observe_ok(1, 50'000, 100, 200, 700);
    slo.rotate(1'000'000);
    EXPECT_EQ(hook_calls, 1);
    EXPECT_EQ(slo.breaches_raised(), 1u);
    ASSERT_EQ(slo.breaches().size(), 1u);
    EXPECT_EQ(slo.breaches().front().window_start, 0u);
    // A healthy next window raises nothing.
    for (int i = 0; i < 10; ++i)
        slo.observe_ok(1, 100, 10, 20, 70);
    slo.rotate(2'000'000);
    EXPECT_EQ(hook_calls, 1);
}

TEST(SloWatch, ErrorRateBreach)
{
    obs::SloWatch slo;
    slo.enable(2, 0);
    slo.set_limits(1, {0, 100'000}); // 10% error ceiling
    for (int i = 0; i < 8; ++i)
        slo.observe_ok(1, 100, 10, 20, 70);
    slo.note_op(1, true);
    slo.note_op(1, true); // 2 errors in 10 ops = 200000 ppm
    slo.rotate(1'000'000);
    ASSERT_EQ(slo.breaches().size(), 1u);
    EXPECT_EQ(slo.breaches().front().metric, obs::SloMetric::kErrorRate);
    EXPECT_EQ(slo.breaches().front().observed, 200'000u);
    EXPECT_EQ(slo.window_errors(1), 2u);
    EXPECT_EQ(slo.window_ops(1), 10u);
}

TEST(SloWatch, BreachDirectoryDropsOldest)
{
    obs::SloWatch slo;
    slo.enable(2, 0);
    slo.set_limits(1, {1, 0});
    const std::size_t rounds = obs::SloWatch::kMaxBreaches + 5;
    for (std::size_t i = 0; i < rounds; ++i) {
        slo.observe_ok(1, 1'000'000, 100, 200, 700);
        slo.rotate((i + 1) * 1'000'000);
    }
    EXPECT_EQ(slo.breaches_raised(), rounds);
    EXPECT_EQ(slo.breaches().size(), obs::SloWatch::kMaxBreaches);
    EXPECT_EQ(slo.breaches_dropped(), 5u);
    // Oldest entries were dropped: the head is the 6th breach.
    EXPECT_EQ(slo.breaches().front().window_start, 5'000'000u);
    slo.clear_breaches();
    EXPECT_EQ(slo.breaches().size(), 0u);
}

TEST(SloWatch, DisableGatesReadersAndKeepsBreachForensics)
{
    obs::SloWatch slo;
    slo.enable(2, 0);
    slo.set_limits(1, {1, 0});
    slo.observe_ok(1, 1'000'000, 100, 200, 700);
    slo.rotate(1'000'000);
    ASSERT_EQ(slo.breaches().size(), 1u);
    slo.disable();
    EXPECT_FALSE(slo.enabled());
    EXPECT_EQ(slo.window(1, 0), nullptr);
    EXPECT_EQ(slo.window_ops(1), 0u);
    EXPECT_EQ(slo.limits(1).max_p99_ns, 0u);
    // The breach directory survives the plane being turned off.
    EXPECT_EQ(slo.breaches().size(), 1u);
    // Re-enable starts from fresh windows.
    slo.enable(2, 2'000'000);
    EXPECT_EQ(slo.window_ops(1), 0u);
    EXPECT_EQ(slo.windows_rotated(), 0u);
}

// --- FlightRecorder ---------------------------------------------------

TEST(FlightRecorder, DisabledIsInert)
{
    obs::FlightRecorder fr;
    fr.record(0, obs::FlightEventType::kDoorbell, 10, 1, 0, 0);
    fr.snapshot(0, obs::PostmortemReason::kFault, 10);
    EXPECT_EQ(fr.retained(0), 0u);
    EXPECT_EQ(fr.postmortems().size(), 0u);
}

TEST(FlightRecorder, DepthRoundsUpToPowerOfTwo)
{
    obs::FlightRecorder fr;
    fr.enable(2, 33);
    EXPECT_EQ(fr.depth(), 64u);
    fr.enable(2, 1);
    EXPECT_EQ(fr.depth(), 1u);
    fr.enable(2, 0); // clamps to at least one slot
    EXPECT_EQ(fr.depth(), 1u);
}

TEST(FlightRecorder, RingWrapRetainsLatestEvents)
{
    obs::FlightRecorder fr;
    fr.enable(2, 4);
    for (std::uint32_t i = 0; i < 10; ++i)
        fr.record(1, obs::FlightEventType::kFetch, 100 + i, i, i * 8, 0);
    EXPECT_EQ(fr.retained(1), 4u);
    fr.snapshot(1, obs::PostmortemReason::kQuarantine, 500, 7);
    ASSERT_EQ(fr.postmortems().size(), 1u);
    const obs::Postmortem &pm = fr.postmortems().front();
    EXPECT_EQ(pm.reason, obs::PostmortemReason::kQuarantine);
    EXPECT_EQ(pm.detail, 7u);
    ASSERT_EQ(pm.events.size(), 4u);
    // Oldest first, and only the latest depth events survive.
    EXPECT_EQ(pm.events.front().tag, 6u);
    EXPECT_EQ(pm.events.back().tag, 9u);
}

TEST(FlightRecorder, SameShapeReenableRewindsRings)
{
    obs::FlightRecorder fr;
    fr.enable(4, 8);
    fr.record(2, obs::FlightEventType::kComplete, 10, 5, 0, 0);
    fr.snapshot(2, obs::PostmortemReason::kFault, 20);
    fr.disable();
    EXPECT_FALSE(fr.enabled());
    EXPECT_EQ(fr.retained(2), 0u);
    // Postmortems survive the disable/enable cycle; the rings do not.
    fr.enable(4, 8);
    EXPECT_EQ(fr.retained(2), 0u);
    EXPECT_EQ(fr.postmortems().size(), 1u);
    fr.record(2, obs::FlightEventType::kDoorbell, 30, 6, 0, 0);
    EXPECT_EQ(fr.retained(2), 1u);
}

TEST(FlightRecorder, PostmortemBufferDropsOldest)
{
    obs::FlightRecorder fr;
    fr.enable(1, 2);
    const std::size_t extra = 3;
    for (std::size_t i = 0;
         i < obs::FlightRecorder::kMaxPostmortems + extra; ++i) {
        fr.record(0, obs::FlightEventType::kFault, i, i, 0, 0);
        fr.snapshot(0, obs::PostmortemReason::kFault, i, i);
    }
    EXPECT_EQ(fr.postmortems().size(),
              obs::FlightRecorder::kMaxPostmortems);
    EXPECT_EQ(fr.postmortems_taken(),
              obs::FlightRecorder::kMaxPostmortems + extra);
    EXPECT_EQ(fr.postmortems_dropped(), extra);
    EXPECT_EQ(fr.postmortems().front().detail, extra);
    fr.clear_postmortems();
    EXPECT_EQ(fr.postmortems().size(), 0u);
}

TEST(FlightRecorder, PostmortemJsonIsBalancedAndNamed)
{
    obs::FlightRecorder fr;
    fr.enable(1, 4);
    fr.record(0, obs::FlightEventType::kDoorbell, 10, 42, 0, 3);
    fr.record(0, obs::FlightEventType::kFault, 20, 42, 128, 1);
    fr.snapshot(0, obs::PostmortemReason::kChecksumError, 30, 128);
    const std::string json = fr.postmortem_json();
    long depth = 0;
    for (const char c : json) {
        if (c == '{' || c == '[')
            ++depth;
        else if (c == '}' || c == ']')
            --depth;
        ASSERT_GE(depth, 0);
    }
    EXPECT_EQ(depth, 0);
    EXPECT_NE(json.find("\"reason\": \"checksum_error\""),
              std::string::npos);
    EXPECT_NE(json.find("\"type\": \"doorbell\""), std::string::npos);
    EXPECT_NE(json.find("\"type\": \"fault\""), std::string::npos);
    EXPECT_NE(json.find("\"tag\": 42"), std::string::npos);
}

// --- TimeSeriesSampler ------------------------------------------------

TEST(TimeSeriesSampler, SnapshotsCountersAndGauges)
{
    obs::MetricsRegistry reg;
    const auto c = reg.counter("requests");
    const auto g = reg.gauge("inflight");
    reg.add(c, 5);
    reg.set(g, 2);
    obs::TimeSeriesSampler sampler(reg);
    sampler.sample(100);
    reg.add(c, 5);
    reg.set(g, 7);
    sampler.sample(200);
    EXPECT_EQ(sampler.size(), 2u);
    EXPECT_EQ(sampler.taken(), 2u);
    EXPECT_EQ(sampler.dropped(), 0u);
    const std::string json = sampler.to_json();
    EXPECT_NE(json.find("\"t\": 100"), std::string::npos);
    EXPECT_NE(json.find("\"t\": 200"), std::string::npos);
    EXPECT_NE(json.find("\"requests\": 10"), std::string::npos);
    EXPECT_NE(json.find("\"inflight\": 7"), std::string::npos);
    EXPECT_NE(json.find("\"taken\": 2"), std::string::npos);
}

TEST(TimeSeriesSampler, CapacityDropsOldest)
{
    obs::MetricsRegistry reg;
    reg.add(reg.counter("x"), 1);
    obs::TimeSeriesSampler sampler(reg);
    sampler.set_capacity(4);
    for (sim::Time t = 0; t < 10; ++t)
        sampler.sample(t);
    EXPECT_EQ(sampler.size(), 4u);
    EXPECT_EQ(sampler.taken(), 10u);
    EXPECT_EQ(sampler.dropped(), 6u);
    // Shrinking trims the series in place.
    sampler.set_capacity(2);
    EXPECT_EQ(sampler.size(), 2u);
    sampler.clear();
    EXPECT_EQ(sampler.size(), 0u);
}

TEST(TimeSeriesSampler, LateRegisteredMetricsJoinLaterSamples)
{
    obs::MetricsRegistry reg;
    reg.add(reg.counter("early"), 1);
    obs::TimeSeriesSampler sampler(reg);
    sampler.sample(1);
    reg.add(reg.counter("late"), 9);
    sampler.sample(2);
    const std::string json = sampler.to_json();
    // The first sample predates "late"; only the second carries it.
    EXPECT_EQ(json.find("\"late\": 9"), json.rfind("\"late\": 9"));
    EXPECT_NE(json.find("\"late\": 9"), std::string::npos);
}

// --- Prometheus exposition --------------------------------------------

TEST(Prometheus, ExposesCountersGaugesAndSummaries)
{
    obs::MetricsRegistry reg;
    reg.add(reg.counter("total_ops"), 17);
    reg.add(reg.counter("faults", 3), 2);
    reg.add(reg.counter("faults", 5), 4);
    reg.set(reg.gauge("queue_depth"), 11);
    const auto h = reg.histogram("lat.ns");
    for (int i = 1; i <= 100; ++i)
        reg.observe(h, i * 100);
    const std::string prom = reg.to_prometheus();
    EXPECT_NE(prom.find("# TYPE nesc_total_ops counter\n"),
              std::string::npos);
    EXPECT_NE(prom.find("nesc_total_ops 17\n"), std::string::npos);
    // Scoped counters are one family with fn labels...
    EXPECT_NE(prom.find("nesc_faults{fn=\"3\"} 2\n"), std::string::npos);
    EXPECT_NE(prom.find("nesc_faults{fn=\"5\"} 4\n"), std::string::npos);
    // ...and exactly one TYPE line for it.
    const std::string type_faults = "# TYPE nesc_faults counter\n";
    EXPECT_EQ(prom.find(type_faults), prom.rfind(type_faults));
    EXPECT_NE(prom.find("# TYPE nesc_queue_depth gauge\n"),
              std::string::npos);
    // Histogram name is sanitized and exported as a summary.
    EXPECT_NE(prom.find("# TYPE nesc_lat_ns summary\n"),
              std::string::npos);
    EXPECT_NE(prom.find("nesc_lat_ns{quantile=\"0.5\"}"),
              std::string::npos);
    EXPECT_NE(prom.find("nesc_lat_ns{quantile=\"0.999\"}"),
              std::string::npos);
    EXPECT_NE(prom.find("nesc_lat_ns_count 100\n"), std::string::npos);
    EXPECT_NE(prom.find("nesc_lat_ns_sum 505000\n"), std::string::npos);
}

TEST(Prometheus, HandleKeysRoundTrip)
{
    obs::MetricsRegistry reg;
    const auto plain = reg.counter("doorbells");
    const auto scoped = reg.counter("faults", 9);
    const auto g = reg.gauge("depth", 2);
    EXPECT_EQ(reg.counter_key(plain), "doorbells");
    EXPECT_EQ(reg.counter_key(scoped), "fn9/faults");
    EXPECT_EQ(reg.gauge_key(g), "fn2/depth");
    EXPECT_EQ(reg.counter_key(static_cast<obs::MetricsRegistry::Handle>(
                  reg.counter_count() + 100)),
              "");
}

// --- Simulator timer ordering ------------------------------------------

TEST(SimulatorTimers, FarEventsExecuteInGlobalTimeOrder)
{
    // Millisecond-scale timers and near events share one queue;
    // execution order is globally (when, seq).
    sim::Simulator s;
    std::vector<int> order;
    s.schedule_in(200'000, [&]() { order.push_back(1); }); // far
    s.schedule_at(50'000, [&]() { order.push_back(0); });
    s.schedule_in(300'000, [&]() {
        order.push_back(2);
        // Rescheduling from inside a far event keeps working.
        s.schedule_in(10, [&]() { order.push_back(3); });
    });
    s.run_until_idle();
    ASSERT_EQ(order.size(), 4u);
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
    EXPECT_EQ(s.now(), 300'010u);
}

TEST(SimulatorTimers, TieOnWhenResolvesBySequence)
{
    sim::Simulator s;
    std::vector<int> order;
    const sim::Time when = 400'000;
    // One scheduled far ahead, one scheduled near the deadline from a
    // near event: both fire at the same instant; schedule order wins.
    s.schedule_at(when, [&]() { order.push_back(0); }); // far
    s.schedule_at(when - 5, [&]() {
        s.schedule_in(5, [&]() { order.push_back(1); }); // near
    });
    s.run_until_idle();
    EXPECT_EQ(order, (std::vector<int>{0, 1}));
}

TEST(SimulatorTimers, WeakEventsDoNotKeepTheSimulationAlive)
{
    // A self-rescheduling weak timer (the telemetry-plane idiom) ticks
    // in global order while strong work remains, fires during
    // run_until(), and never makes run_until_idle() spin.
    sim::Simulator s;
    int ticks = 0;
    std::function<void()> tick = [&]() {
        ++ticks;
        s.schedule_weak_in(100, tick);
    };
    s.schedule_weak_in(100, tick);
    int work = 0;
    s.schedule_in(250, [&]() { ++work; });
    EXPECT_FALSE(s.idle()); // strong event pending
    s.run_until_idle();     // runs the two ticks before t=250, stops
    EXPECT_EQ(work, 1);
    EXPECT_EQ(ticks, 2);
    EXPECT_TRUE(s.idle()); // armed weak timer does not count
    EXPECT_EQ(s.weak_pending(), 1u);
    s.run_until(s.now() + 1000); // deadline-driven runs still tick
    EXPECT_EQ(ticks, 12);
    EXPECT_TRUE(s.idle());
}

// --- Observability registers (controller + PfDriver) ------------------

virt::TestbedConfig
small_config()
{
    virt::TestbedConfig config;
    config.device.capacity_bytes = 64ULL << 20;
    config.host_memory_bytes = 64ULL << 20;
    return config;
}

class ObsRegisterTest : public ::testing::Test {
  protected:
    ObsRegisterTest()
    {
        auto bed = virt::Testbed::create(small_config());
        EXPECT_TRUE(bed.is_ok()) << bed.status().to_string();
        bed_ = std::move(bed).value();
    }

    util::Result<std::uint64_t>
    pf_read(std::uint64_t offset)
    {
        return bed_->bar().read(
            bed_->bar().function_base(pcie::kPhysicalFunctionId) + offset,
            8);
    }

    util::Status
    pf_write(std::uint64_t offset, std::uint64_t value)
    {
        return bed_->bar().write(
            bed_->bar().function_base(pcie::kPhysicalFunctionId) + offset,
            value, 8);
    }

    std::unique_ptr<virt::Testbed> bed_;
};

TEST_F(ObsRegisterTest, EverythingOffAtReset)
{
    for (const std::uint64_t off :
         {ctrl::reg::kObsWindowNs, ctrl::reg::kFlightCtrl,
          ctrl::reg::kSamplerIntervalNs, ctrl::reg::kSamplerCount,
          ctrl::reg::kPostmortemCount, ctrl::reg::kSloBreachCount}) {
        auto v = pf_read(off);
        ASSERT_TRUE(v.is_ok()) << "offset " << off;
        EXPECT_EQ(*v, 0u) << "offset " << off;
    }
    // With accounting off the window registers master-abort.
    auto p50 = pf_read(ctrl::reg::kSloP50);
    ASSERT_TRUE(p50.is_ok());
    EXPECT_EQ(*p50, ~std::uint64_t{0});
    EXPECT_FALSE(bed_->controller().slo_watch().enabled());
    EXPECT_FALSE(bed_->controller().flight_recorder().enabled());
    EXPECT_EQ(bed_->controller().obs_window_ns(), 0);
}

TEST_F(ObsRegisterTest, ObservabilityRegistersArePfOnly)
{
    auto vm = bed_->create_nesc_guest("/vfobs.img", 1024, true);
    ASSERT_TRUE(vm.is_ok());
    auto fn = bed_->guest_vf(**vm);
    ASSERT_TRUE(fn.is_ok());
    const std::uint64_t vf_base = bed_->bar().function_base(*fn);
    const auto before = bed_->controller().stats(*fn).reg_violations;
    for (const std::uint64_t off :
         {ctrl::reg::kObsWindowNs, ctrl::reg::kSloSelect,
          ctrl::reg::kFlightCtrl, ctrl::reg::kSamplerIntervalNs}) {
        EXPECT_FALSE(bed_->bar().read(vf_base + off, 8).is_ok());
        EXPECT_FALSE(bed_->bar().write(vf_base + off, 1, 8).is_ok());
    }
    EXPECT_GT(bed_->controller().stats(*fn).reg_violations, before);
    // The plane must not have been armed by the rejected writes.
    EXPECT_EQ(bed_->controller().obs_window_ns(), 0);
    EXPECT_FALSE(bed_->controller().flight_recorder().enabled());
}

TEST_F(ObsRegisterTest, TelemetryDirectoryGrewBySloBreaches)
{
    auto count = pf_read(ctrl::reg::kTelemetryCount);
    ASSERT_TRUE(count.is_ok());
    EXPECT_EQ(*count, ctrl::kTelemetryCounters.size());
    EXPECT_EQ(*count, 18u);
    // The new last entry reads back by name over MMIO...
    const std::uint32_t last =
        static_cast<std::uint32_t>(ctrl::kTelemetryCounters.size()) - 1;
    ASSERT_TRUE(pf_write(ctrl::reg::kTelemetrySelect,
                         static_cast<std::uint64_t>(last) << 16)
                    .is_ok());
    std::string name;
    for (std::size_t chunk = 0; chunk < 3; ++chunk) {
        auto packed = pf_read(ctrl::reg::kTelemetryName0 + 8 * chunk);
        ASSERT_TRUE(packed.is_ok());
        for (unsigned shift = 0; shift < 64; shift += 8) {
            const char ch = static_cast<char>((*packed >> shift) & 0xff);
            if (ch == '\0')
                break;
            name.push_back(ch);
        }
    }
    EXPECT_EQ(name, "slo_breaches");
    // ...and one past the last master-aborts, value and name alike.
    ASSERT_TRUE(pf_write(ctrl::reg::kTelemetrySelect,
                         static_cast<std::uint64_t>(last + 1) << 16)
                    .is_ok());
    auto value = pf_read(ctrl::reg::kTelemetryValue);
    ASSERT_TRUE(value.is_ok());
    EXPECT_EQ(*value, ~std::uint64_t{0});
    auto name0 = pf_read(ctrl::reg::kTelemetryName0);
    ASSERT_TRUE(name0.is_ok());
    EXPECT_EQ(*name0, ~std::uint64_t{0});
}

TEST_F(ObsRegisterTest, SloWindowReadableThroughRegisters)
{
    auto vm = bed_->create_nesc_guest("/slow.img", 4096, true);
    ASSERT_TRUE(vm.is_ok());
    auto fn = bed_->guest_vf(**vm);
    ASSERT_TRUE(fn.is_ok());
    ASSERT_TRUE(bed_->pf().set_obs_window(1'000'000).is_ok());
    wl::DdConfig dd;
    dd.request_bytes = 4096;
    dd.total_bytes = 256 * 4096;
    ASSERT_TRUE(
        wl::run_dd_raw(bed_->sim(), (*vm)->raw_disk(), dd).is_ok());
    // Let at least one rotation close a window over the activity.
    bed_->sim().run_until_idle();

    auto window = bed_->pf().slo_window(*fn, obs::SloWatch::kEndToEnd);
    ASSERT_TRUE(window.is_ok()) << window.status().to_string();
    EXPECT_GT(window->ops, 0u);
    EXPECT_EQ(window->errors, 0u);
    EXPECT_GT(window->p50, 0u);
    EXPECT_LE(window->p50, window->p99);
    EXPECT_LE(window->p99, window->p999);
    // Stage selector out of range master-aborts.
    ASSERT_TRUE(pf_write(ctrl::reg::kSloSelect,
                         (std::uint64_t{9} << 16) | *fn)
                    .is_ok());
    auto p50 = pf_read(ctrl::reg::kSloP50);
    ASSERT_TRUE(p50.is_ok());
    EXPECT_EQ(*p50, ~std::uint64_t{0});
    // Turning accounting off gates the whole window block again.
    ASSERT_TRUE(bed_->pf().set_obs_window(0).is_ok());
    EXPECT_FALSE(bed_->pf().slo_window(*fn).is_ok());
}

TEST_F(ObsRegisterTest, SloBreachDirectoryViaMgmtAndRegisters)
{
    auto vm = bed_->create_nesc_guest("/breach.img", 4096, true);
    ASSERT_TRUE(vm.is_ok());
    auto fn = bed_->guest_vf(**vm);
    ASSERT_TRUE(fn.is_ok());
    ASSERT_TRUE(bed_->pf().set_obs_window(1'000'000).is_ok());
    // A 1 ns p99 ceiling: every non-empty window breaches.
    ASSERT_TRUE(bed_->pf().set_slo(*fn, 1, 0).is_ok());
    wl::DdConfig dd;
    dd.request_bytes = 4096;
    dd.total_bytes = 128 * 4096;
    ASSERT_TRUE(
        wl::run_dd_raw(bed_->sim(), (*vm)->raw_disk(), dd).is_ok());
    bed_->sim().run_until_idle();

    const std::uint64_t stat_breaches =
        bed_->controller().stats(*fn).slo_breaches;
    EXPECT_GT(stat_breaches, 0u);
    auto breaches = bed_->pf().slo_breaches();
    ASSERT_TRUE(breaches.is_ok());
    ASSERT_GT(breaches->size(), 0u);
    for (const auto &entry : *breaches) {
        EXPECT_EQ(entry.fn, *fn);
        EXPECT_EQ(entry.metric,
                  static_cast<std::uint8_t>(obs::SloMetric::kLatencyP99));
        EXPECT_GT(entry.observed, entry.threshold);
        EXPECT_EQ(entry.threshold, 1u);
    }
    // The directory is retained across disarming the plane...
    ASSERT_TRUE(bed_->pf().set_obs_window(0).is_ok());
    auto still = bed_->pf().slo_breaches();
    ASSERT_TRUE(still.is_ok());
    EXPECT_EQ(still->size(), breaches->size());
    // ...until the PF clears it through the mgmt command.
    ASSERT_TRUE(bed_->pf().clear_slo_breaches().is_ok());
    auto cleared = bed_->pf().slo_breaches();
    ASSERT_TRUE(cleared.is_ok());
    EXPECT_EQ(cleared->size(), 0u);
    // Stats survive the clear: the counter is monotonic.
    EXPECT_EQ(bed_->controller().stats(*fn).slo_breaches, stat_breaches);
}

TEST_F(ObsRegisterTest, SetSloRequiresExistingFunction)
{
    EXPECT_FALSE(bed_->pf().set_slo(0x7fff, 1000, 0).is_ok());
}

TEST_F(ObsRegisterTest, PostmortemCaptureOnQuarantine)
{
    ASSERT_TRUE(bed_->pf().set_flight_recorder(true).is_ok());
    auto vm = bed_->create_nesc_guest("/pm.img", 1024, true);
    ASSERT_TRUE(vm.is_ok());
    auto fn = bed_->guest_vf(**vm);
    ASSERT_TRUE(fn.is_ok());
    drv::FunctionDriver driver(bed_->sim(), bed_->host_memory(),
                               bed_->bar(), bed_->irq(), *fn,
                               bed_->config().vf_driver);
    ASSERT_TRUE(driver.init().is_ok());
    // A malformed-descriptor storm crosses the quarantine threshold.
    const std::uint32_t storm =
        bed_->controller().config().quarantine_threshold;
    for (std::uint32_t i = 0; i < storm; ++i) {
        ASSERT_TRUE(driver
                        .submit(static_cast<ctrl::Opcode>(99), 0, 1,
                                pcie::kNullHostAddr,
                                [](ctrl::CompletionStatus) {})
                        .is_ok());
    }
    bed_->sim().run_until_idle();
    ASSERT_TRUE(bed_->controller().quarantined(*fn));

    auto count = bed_->pf().postmortem_count();
    ASSERT_TRUE(count.is_ok());
    EXPECT_GE(*count, 1u);
    auto json = bed_->pf().dump_postmortem();
    ASSERT_TRUE(json.is_ok()) << json.status().to_string();
    EXPECT_NE(json->find("\"reason\": \"quarantine\""),
              std::string::npos);
    EXPECT_NE(json->find("\"type\": \"fault\""), std::string::npos);
    // The postmortem directory registers survive the recorder being
    // turned off (forensics outlive the plane)...
    ASSERT_TRUE(bed_->pf().set_flight_recorder(false).is_ok());
    auto still = bed_->pf().postmortem_count();
    ASSERT_TRUE(still.is_ok());
    EXPECT_EQ(*still, *count);
    // ...until cleared through the mgmt command.
    ASSERT_TRUE(bed_->pf().clear_postmortems().is_ok());
    auto cleared = bed_->pf().postmortem_count();
    ASSERT_TRUE(cleared.is_ok());
    EXPECT_EQ(*cleared, 0u);
}

TEST_F(ObsRegisterTest, FlightDepthAppliesAtEnable)
{
    ASSERT_TRUE(pf_write(ctrl::reg::kFlightDepth, 10).is_ok());
    ASSERT_TRUE(pf_write(ctrl::reg::kFlightCtrl, 1).is_ok());
    EXPECT_TRUE(bed_->controller().flight_recorder().enabled());
    // Rounded up to the next power of two.
    EXPECT_EQ(bed_->controller().flight_recorder().depth(), 16u);
    ASSERT_TRUE(pf_write(ctrl::reg::kFlightCtrl, 0).is_ok());
    EXPECT_FALSE(bed_->controller().flight_recorder().enabled());
}

TEST_F(ObsRegisterTest, FlightDepthClampsAtEnable)
{
    // The latch keeps what the PF wrote; enable applies at most
    // kMaxDepth events per function instead of sizing the rings (and
    // std::bit_ceil) from it.
    for (std::uint64_t depth :
         {std::uint64_t{1} << 40, (std::uint64_t{1} << 63) + 1}) {
        ASSERT_TRUE(pf_write(ctrl::reg::kFlightDepth, depth).is_ok());
        ASSERT_TRUE(pf_write(ctrl::reg::kFlightCtrl, 1).is_ok());
        const obs::FlightRecorder &flight =
            bed_->controller().flight_recorder();
        EXPECT_TRUE(flight.enabled());
        EXPECT_EQ(flight.depth(), obs::FlightRecorder::kMaxDepth);
        auto latched = pf_read(ctrl::reg::kFlightDepth);
        ASSERT_TRUE(latched.is_ok());
        EXPECT_EQ(*latched, depth);
        ASSERT_TRUE(pf_write(ctrl::reg::kFlightCtrl, 0).is_ok());
    }
}

TEST_F(ObsRegisterTest, SamplerTicksAtProgrammedInterval)
{
    // Arming takes one immediate baseline sample.
    ASSERT_TRUE(bed_->pf().set_sampler_interval(1'000'000).is_ok());
    auto count = pf_read(ctrl::reg::kSamplerCount);
    ASSERT_TRUE(count.is_ok());
    EXPECT_EQ(*count, 1u);
    bed_->sim().run_until(bed_->sim().now() + 5'500'000);
    count = pf_read(ctrl::reg::kSamplerCount);
    ASSERT_TRUE(count.is_ok());
    EXPECT_GE(*count, 5u);
    const std::uint64_t armed_count = *count;
    // Disarming stops the series where it is.
    ASSERT_TRUE(bed_->pf().set_sampler_interval(0).is_ok());
    bed_->sim().run_until(bed_->sim().now() + 5'000'000);
    bed_->sim().run_until_idle();
    count = pf_read(ctrl::reg::kSamplerCount);
    ASSERT_TRUE(count.is_ok());
    EXPECT_EQ(*count, armed_count);
    // The series itself is valid JSON-ish (balanced) and non-empty.
    const std::string json = bed_->controller().sampler().to_json();
    EXPECT_NE(json.find("\"samples\""), std::string::npos);
}

} // namespace
} // namespace nesc

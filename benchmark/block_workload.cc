/**
 * @file
 * The four raw-block workloads: directly assigned VFs driven through
 * drv::FunctionDriver::submit by an open- or closed-loop generator.
 *
 * Every closed-loop slot owns a disjoint stripe of its volume and has
 * at most one request in flight, so a per-block shadow of the last
 * completed write is exact and the read-back after the run can compare
 * every block. Write payloads are wl::fill_pattern seeded by a
 * per-write id at the block's byte position.
 */
#include <cmath>
#include <cstring>
#include <deque>

#include "drivers/function_driver.h"
#include "repl/replica_set.h"
#include "util/rng.h"
#include "workload.h"
#include "workloads/dd.h"

namespace nesc::benchmark {

namespace {

constexpr std::uint64_t kBlock = ctrl::kDeviceBlockSize;
/** Slices per fixed phase: each is one host-rate sample. */
constexpr std::uint32_t kSlices = 100;
/** Shadow value of a block whose last write failed (not verified). */
constexpr std::uint64_t kUnknown = ~0ULL;

struct TenantSpec {
    std::uint32_t weight = 1;
    std::uint32_t queue_pairs = 1;
    /** Closed loop: requests in flight; open loop: in-flight cap. */
    std::uint32_t depth = 16;
};

struct BlockSpec {
    virt::TestbedConfig testbed;
    std::vector<TenantSpec> tenants;
    std::uint64_t volume_blocks = 8192;
    std::uint32_t op_blocks = 4;
    double write_frac = 0.0;
    /** > 0 selects the open loop at this total rate (reads only). */
    double offered_iops = 0.0;
    bool prefill = false;
    bool fragmented = false;
    bool dwrr = false;
    bool telemetry = false;
    sim::Duration warmup = 100 * sim::kMs;
    sim::Duration measure = sim::kSec;
};

virt::TestbedConfig
base_config(std::uint64_t device_bytes)
{
    virt::TestbedConfig config;
    config.device.capacity_bytes = device_bytes;
    config.host_memory_bytes = 128ULL << 20;
    return config;
}

BlockSpec
vf8_open_spec()
{
    BlockSpec s;
    s.testbed = base_config(128ULL << 20);
    s.tenants.assign(8, TenantSpec{1, 1, 64});
    s.offered_iops = 150'000;
    s.prefill = true;
    s.measure = 12 * sim::kSec;
    return s;
}

BlockSpec
vf256_dwrr_spec()
{
    constexpr std::uint32_t kVfs = 256;
    BlockSpec s;
    s.volume_blocks = 2048;
    s.testbed = base_config(kVfs * s.volume_blocks * kBlock + (128ULL << 20));
    s.testbed.controller.max_vfs = kVfs;
    // Translation provisioned per VF, as abl_vf_scale does.
    s.testbed.controller.btlb_entries = 2 * kVfs;
    s.testbed.controller.node_cache_bytes = 8192ULL * kVfs;
    s.tenants.assign(kVfs, TenantSpec{1, 1, 4});
    s.tenants[0] = TenantSpec{16, 4, 32};
    s.write_frac = 0.3;
    s.dwrr = true;
    s.warmup = 10 * sim::kMs;
    s.measure = 8 * sim::kSec;
    return s;
}

BlockSpec
frag_rw_spec()
{
    BlockSpec s;
    s.testbed = base_config(512ULL << 20);
    s.testbed.pf.tree.fanout = 16;
    s.tenants.assign(8, TenantSpec{1, 1, 16});
    s.volume_blocks = 16384;
    s.op_blocks = 1;
    s.write_frac = 0.3;
    s.fragmented = true;
    s.measure = 5 * sim::kSec;
    return s;
}

BlockSpec
repl_rw_spec()
{
    BlockSpec s;
    s.testbed = base_config(64ULL << 20);
    virt::TestbedReplicationConfig repl;
    repl.backends = 3;
    repl.set.quorum = 2;
    s.testbed.replication = repl;
    s.testbed.integrity = virt::TestbedIntegrityConfig{};
    s.tenants.assign(4, TenantSpec{1, 1, 8});
    s.write_frac = 0.5;
    s.telemetry = true;
    s.measure = 6 * sim::kSec;
    return s;
}

struct Tenant;

/** One buffer slot: at most one request in flight. */
struct Slot {
    Tenant *tenant = nullptr;
    pcie::HostAddr buffer = pcie::kNullHostAddr;
    /** Address range this slot draws from (its stripe). */
    std::uint64_t base = 0;
    std::uint64_t range = 1;
    sim::Time due = 0;
    std::uint64_t vlba = 0;
    std::uint64_t write_id = 0;
    bool counted = false;
};

struct Tenant {
    TenantSpec spec;
    std::uint32_t index = 0;
    std::string path;
    std::unique_ptr<virt::GuestVm> vm;
    std::unique_ptr<drv::FunctionDriver> driver;
    util::Rng rng;
    /** Per vLBA: id of the last completed write (0 = initial data). */
    std::vector<std::uint64_t> shadow;
    std::uint64_t writes = 0;
    std::vector<Slot> slots;
    std::vector<Slot *> idle;          ///< open loop: free slots
    std::deque<sim::Time> backlog;     ///< open loop: arrivals waiting
    double mean_gap_ns = 0.0;
    std::uint64_t window_ops = 0;

    std::uint64_t prefill_id() const
    {
        return static_cast<std::uint64_t>(index + 1) << 40;
    }
};

/** Fragments @p path into 64-block extents interleaved with a decoy. */
void
make_fragmented_file(virt::Testbed &bed, const std::string &path,
                     std::uint64_t blocks)
{
    constexpr std::uint64_t kRunBlocks = 64;
    fs::NestFs &fs = bed.hv_fs();
    const fs::InodeId ino = must(fs.create(path, 0644), "create volume");
    const fs::InodeId decoy =
        must(fs.create(path + ".decoy", 0644), "create decoy");
    for (std::uint64_t vb = 0; vb < blocks; vb += kRunBlocks) {
        const std::uint64_t n = std::min(kRunBlocks, blocks - vb);
        must_ok(fs.allocate_range(ino, vb, n), "allocate volume run");
        must_ok(fs.allocate_range(decoy, vb, n), "allocate decoy run");
    }
}

class BlockWorkload final : public Workload {
  public:
    BlockWorkload(BlockSpec spec, Context &ctx)
        : spec_(std::move(spec)), ctx_(ctx),
          scratch_(spec_.op_blocks * kBlock)
    {
    }

    SetupTimes setup() override;
    void teardown() override
    {
        tenants_.clear();
        bed_.reset();
    }
    virt::Testbed &bed() override { return *bed_; }

    void begin_fixed() override
    {
        const sim::Time now = bed_->sim().now();
        open_window(now, now + spec_.measure);
        counting_ = true;
        fixed_start_ = now;
        slice_ = 0;
        start_load(now + spec_.measure, spec_.offered_iops);
    }

    bool fixed_slice() override
    {
        ++slice_;
        sim::Simulator &sim = bed_->sim();
        sim.run_until(fixed_start_ + spec_.measure * slice_ / kSlices);
        if (slice_ < kSlices)
            return true;
        sim.run_until_idle();
        return false;
    }

    void probes(std::vector<Metric> &out) override;

    void begin_extension() override
    {
        open_window(0, 0);
        counting_ = true;
        start_load(sim::kTimeMax, spec_.offered_iops);
    }

    void extension_slice() override
    {
        sim::Simulator &sim = bed_->sim();
        sim.run_until(sim.now() + spec_.measure / kSlices);
    }

    void end_extension() override
    {
        stop_at_ = bed_->sim().now();
        bed_->sim().run_until_idle();
        counting_ = false;
    }

    std::uint64_t completed() const override { return completions_; }
    std::uint64_t attempted() const override { return attempted_; }
    std::uint64_t failed() const override { return failed_; }
    const Window &window() const override { return window_; }

    Snapshot snapshot() override
    {
        Snapshot s = read_device_counters(*bed_);
        for (const auto &t : tenants_) {
            s.retries += t->driver->retries();
            s.timeouts += t->driver->timeouts();
        }
        return s;
    }

    void phase_metrics(std::vector<Metric> &out) override;
    void verify(std::vector<Check> &out) override;

  private:
    bool open_loop() const { return spec_.offered_iops > 0.0; }

    void open_window(sim::Time from, sim::Time until)
    {
        window_ = Window{};
        window_.from = from;
        window_.until = until;
        for (auto &t : tenants_)
            t->window_ops = 0;
    }

    /** Starts every generator; nothing is issued at or after @p stop. */
    void start_load(sim::Time stop, double iops)
    {
        stop_at_ = stop;
        const double per_tenant =
            iops / static_cast<double>(tenants_.size());
        for (auto &t : tenants_) {
            if (open_loop()) {
                t->mean_gap_ns = 1e9 / per_tenant;
                schedule_arrival(*t, bed_->sim().now());
            } else {
                for (Slot &slot : t->slots)
                    issue(slot, bed_->sim().now());
            }
        }
    }

    /** Runs a load until @p stop and drains the device. */
    void run_load(sim::Time stop, double iops)
    {
        start_load(stop, iops);
        bed_->sim().run_until(stop);
        bed_->sim().run_until_idle();
    }

    void schedule_arrival(Tenant &t, sim::Time from)
    {
        const double gap = -std::log1p(-t.rng.next_double()) * t.mean_gap_ns;
        const sim::Time next = from + static_cast<sim::Duration>(
                                          std::llround(gap));
        if (next < stop_at_)
            bed_->sim().schedule_at(next, [this, &t]() { arrival(t); });
    }

    /** Open loop: one request falls due now. */
    void arrival(Tenant &t)
    {
        const sim::Time now = bed_->sim().now();
        if (now >= stop_at_)
            return;
        // Draw the next arrival first: issuing advances simulated time.
        schedule_arrival(t, now);
        if (!t.idle.empty()) {
            Slot *slot = t.idle.back();
            t.idle.pop_back();
            issue(*slot, now);
            return;
        }
        t.backlog.push_back(now);
        if (window_.covers(now))
            window_.backlog_max =
                std::max(window_.backlog_max, t.backlog.size());
    }

    void issue(Slot &slot, sim::Time due);
    void complete(Slot &slot, ctrl::CompletionStatus status);
    void prefill(Tenant &t);

    const BlockSpec spec_;
    Context &ctx_;
    std::vector<std::byte> scratch_;
    // Declared before tenants_: drivers and VMs die first.
    std::unique_ptr<virt::Testbed> bed_;
    std::vector<std::unique_ptr<Tenant>> tenants_;
    Window window_;
    sim::Time stop_at_ = 0;
    sim::Time fixed_start_ = 0;
    std::uint32_t slice_ = 0;
    bool counting_ = false;
    std::uint64_t attempted_ = 0;
    std::uint64_t failed_ = 0;
    std::uint64_t completions_ = 0;
    /** Submits the driver refused, in any phase. */
    std::uint64_t refused_ = 0;
    std::uint64_t request_seq_ = 0;
    /** Tenants that completed nothing in the fixed phase. */
    std::uint64_t idle_tenants_ = 0;
};

SetupTimes
BlockWorkload::setup()
{
    SetupTimes times;
    SpanLog::Scope setup_span(ctx_.spans, SpanName::kSetup);
    times.testbed = timed(ctx_.spans, SpanName::kTestbed, [&] {
        bed_ = must(virt::Testbed::create(spec_.testbed), "testbed");
    });

    times.provision = timed(ctx_.spans, SpanName::kProvision, [&] {
        for (std::uint32_t i = 0; i < spec_.tenants.size(); ++i) {
            auto t = std::make_unique<Tenant>();
            t->spec = spec_.tenants[i];
            t->index = i;
            t->path = "/vol" + std::to_string(i) + ".img";
            if (spec_.fragmented)
                make_fragmented_file(*bed_, t->path, spec_.volume_blocks);
            else
                must(bed_->create_backing_file(t->path, spec_.volume_blocks,
                                               true),
                     "backing file");
            tenants_.push_back(std::move(t));
        }
    });

    times.attach = timed(ctx_.spans, SpanName::kAttach, [&] {
        drv::PfDriver &pf = bed_->pf();
        if (spec_.dwrr) {
            must_ok(pf.set_arb_mode(ctrl::ArbMode::kDwrr), "arb mode");
            // One 4-block request per weight unit per round.
            must_ok(pf.set_arb_quantum(4), "arb quantum");
        }
        if (spec_.telemetry) {
            must_ok(pf.set_obs_window(20 * sim::kMs), "obs window");
            must_ok(pf.set_flight_recorder(true), "flight recorder");
            must_ok(pf.set_sampler_interval(50 * sim::kMs), "sampler");
        }
        for (auto &t : tenants_) {
            t->vm = must(bed_->create_nesc_guest(t->path, spec_.volume_blocks,
                                                 true),
                         "guest");
            const pcie::FunctionId fn = must(bed_->guest_vf(*t->vm), "vf");
            drv::FunctionDriverConfig config = bed_->config().vf_driver;
            if (t->spec.weight != 1)
                must_ok(pf.set_qos_weight(fn, t->spec.weight), "weight");
            if (t->spec.queue_pairs != 1) {
                must_ok(pf.set_qp_quota(fn, t->spec.queue_pairs), "quota");
                config.queue_pairs = t->spec.queue_pairs;
            }
            if (spec_.telemetry) // thresholds no run can trip
                must_ok(pf.set_slo(fn, 10 * sim::kSec, 1'000'000), "slo");
            t->driver = std::make_unique<drv::FunctionDriver>(
                bed_->sim(), bed_->host_memory(), bed_->bar(), bed_->irq(),
                fn, config);
            must_ok(t->driver->init(), "driver init");

            const std::uint64_t op_bytes = spec_.op_blocks * kBlock;
            const pcie::HostAddr buffers = must(
                bed_->host_memory().alloc(op_bytes * t->spec.depth, 64),
                "buffers");
            t->slots.resize(t->spec.depth);
            const std::uint64_t stripe =
                open_loop() ? spec_.volume_blocks
                            : spec_.volume_blocks / t->spec.depth;
            for (std::uint32_t s = 0; s < t->spec.depth; ++s) {
                Slot &slot = t->slots[s];
                slot.tenant = t.get();
                slot.buffer = buffers + s * op_bytes;
                slot.base = open_loop() ? 0 : s * stripe;
                slot.range = stripe - spec_.op_blocks + 1;
                if (open_loop())
                    t->idle.push_back(&slot);
            }
            t->shadow.assign(spec_.volume_blocks, 0);
        }
    });

    times.warmup = timed(ctx_.spans, SpanName::kWarmup, [&] {
        for (auto &t : tenants_) {
            if (spec_.prefill)
                prefill(*t);
            t->rng = util::Rng(stream_seed(ctx_.opt.seed, t->index));
        }
        open_window(0, 0);
        run_load(bed_->sim().now() + spec_.warmup, spec_.offered_iops);
    });
    return times;
}

void
BlockWorkload::prefill(Tenant &t)
{
    constexpr std::uint32_t kChunk = 256;
    std::vector<std::byte> data(kChunk * kBlock);
    for (std::uint64_t vlba = 0; vlba < spec_.volume_blocks; vlba += kChunk) {
        const auto n = static_cast<std::uint32_t>(
            std::min<std::uint64_t>(kChunk, spec_.volume_blocks - vlba));
        std::span<std::byte> span(data.data(), n * kBlock);
        wl::fill_pattern(t.prefill_id(), vlba * kBlock, span);
        must_ok(t.driver->write_sync(vlba, n, span), "prefill");
    }
    t.shadow.assign(spec_.volume_blocks, t.prefill_id());
}

void
BlockWorkload::issue(Slot &slot, sim::Time due)
{
    Tenant &t = *slot.tenant;
    slot.due = due;
    slot.vlba = slot.base + t.rng.next_below(slot.range);
    slot.write_id = 0;
    const bool write =
        spec_.write_frac > 0.0 && t.rng.next_bool(spec_.write_frac);
    if (write) {
        slot.write_id = t.prefill_id() | ++t.writes;
        wl::fill_pattern(slot.write_id, slot.vlba * kBlock, scratch_);
        must_ok(bed_->host_memory().write(slot.buffer, scratch_),
                "stage write payload");
    }
    slot.counted = counting_;
    if (counting_)
        ++attempted_;
    if (window_.covers(due))
        ++window_.attempted;
    util::Status submitted;
    {
        SpanLog::Scope span(ctx_.spans, SpanName::kSubmit, ++request_seq_);
        submitted = t.driver->submit(
            write ? ctrl::Opcode::kWrite : ctrl::Opcode::kRead, slot.vlba,
            spec_.op_blocks, slot.buffer,
            [this, &slot](ctrl::CompletionStatus status) {
                complete(slot, status);
            });
    }
    if (!submitted.is_ok()) {
        // A refused submit retires the slot, which would silently lower
        // the load, so it counts as failed and fails the run's checks.
        std::fprintf(stderr, "nesc_bench: submit refused: %s\n",
                     submitted.to_string().c_str());
        ++refused_;
        if (slot.counted)
            ++failed_;
        if (window_.covers(due))
            ++window_.failed;
    }
}

void
BlockWorkload::complete(Slot &slot, ctrl::CompletionStatus status)
{
    Tenant &t = *slot.tenant;
    const sim::Time now = bed_->sim().now();
    const bool ok = status == ctrl::CompletionStatus::kOk;
    ++completions_;
    if (!ok && slot.counted)
        ++failed_;
    if (slot.write_id != 0)
        for (std::uint32_t b = 0; b < spec_.op_blocks; ++b)
            t.shadow[slot.vlba + b] = ok ? slot.write_id : kUnknown;
    if (window_.covers(slot.due)) {
        window_.latencies.push_back(static_cast<std::uint32_t>(
            std::min<sim::Duration>(now - slot.due, UINT32_MAX)));
        ++t.window_ops;
        if (!ok)
            ++window_.failed;
        if (slot.write_id != 0)
            window_.write_bytes += spec_.op_blocks * kBlock;
    }
    if (!open_loop()) {
        if (now < stop_at_)
            issue(slot, now);
        return;
    }
    if (t.backlog.empty()) {
        t.idle.push_back(&slot);
        return;
    }
    const sim::Time due = t.backlog.front();
    t.backlog.pop_front();
    issue(slot, due);
}

void
BlockWorkload::probes(std::vector<Metric> &out)
{
    if (!open_loop())
        return;
    // Highest offered rate on a 1k-IOPS grid over [100k, 200k] whose
    // probe keeps p99 (timed from due) within 100 us. Each probe gets
    // its own generator streams so the answer depends only on the seed.
    constexpr sim::Duration kProbeWarmup = 10 * sim::kMs;
    constexpr sim::Duration kProbe = 500 * sim::kMs;
    constexpr double kLimitNs = 100'000.0;
    const bool was_counting = counting_;
    counting_ = false;
    auto passes = [&](std::uint64_t kiops) {
        for (auto &t : tenants_)
            t->rng = util::Rng(
                stream_seed(ctx_.opt.seed, (kiops << 16) | t->index));
        const sim::Time start = bed_->sim().now() + kProbeWarmup;
        open_window(start, start + kProbe);
        run_load(start + kProbe, static_cast<double>(kiops) * 1000.0);
        return quantile(window_.latencies, 0.99) <= kLimitNs;
    };
    std::uint64_t lo = 100, hi = 200;
    if (passes(hi)) {
        lo = hi;
    } else if (!passes(lo)) {
        lo = 0;
    } else {
        while (hi - lo > 1) {
            const std::uint64_t mid = (lo + hi) / 2;
            (passes(mid) ? lo : hi) = mid;
        }
    }
    open_window(0, 0);
    counting_ = was_counting;
    out.push_back({"sim_iops_at_p99_100us", static_cast<double>(lo) * 1000.0,
                   "1/s", MetricClock::kSim});
}

void
BlockWorkload::phase_metrics(std::vector<Metric> &out)
{
    out.push_back({"drivers.backlog_max",
                   static_cast<double>(window_.backlog_max), "count",
                   MetricClock::kSim});
    out.push_back({"workloads.commit_sim_us", 0.0, "us", MetricClock::kSim});
    idle_tenants_ = 0;
    for (const auto &t : tenants_)
        idle_tenants_ += t->window_ops == 0;
    if (open_loop() || tenants_.size() < 2)
        return;
    // Service share against the weight-ideal share, worst tenant.
    double weights = 0.0;
    std::uint64_t total = 0;
    for (const auto &t : tenants_) {
        weights += t->spec.weight;
        total += t->window_ops;
    }
    double worst = 0.0;
    for (const auto &t : tenants_) {
        const double share = static_cast<double>(t->window_ops) /
                             static_cast<double>(std::max<std::uint64_t>(
                                 total, 1));
        const double ideal = t->spec.weight / weights;
        worst = std::max(worst, std::abs(share / ideal - 1.0));
    }
    out.push_back({"sim_share_err", worst, "ratio", MetricClock::kSim});
}

void
BlockWorkload::verify(std::vector<Check> &out)
{
    constexpr std::uint32_t kChunk = 256;
    std::vector<std::byte> data(kChunk * kBlock);
    std::vector<std::byte> expect(kBlock);
    std::uint64_t checked = 0, mismatched = 0, unknown = 0;
    for (auto &t : tenants_) {
        for (std::uint64_t vlba = 0; vlba < spec_.volume_blocks;
             vlba += kChunk) {
            const auto n = static_cast<std::uint32_t>(
                std::min<std::uint64_t>(kChunk, spec_.volume_blocks - vlba));
            std::span<std::byte> span(data.data(), n * kBlock);
            const util::Status read = t->driver->read_sync(vlba, n, span);
            if (!read.is_ok()) {
                mismatched += n;
                continue;
            }
            for (std::uint32_t b = 0; b < n; ++b) {
                const std::uint64_t id = t->shadow[vlba + b];
                if (id == kUnknown) {
                    ++unknown;
                    continue;
                }
                if (id == 0)
                    std::fill(expect.begin(), expect.end(), std::byte{0});
                else
                    wl::fill_pattern(id, (vlba + b) * kBlock, expect);
                ++checked;
                if (std::memcmp(span.data() + b * kBlock, expect.data(),
                                kBlock) != 0)
                    ++mismatched;
            }
        }
    }
    out.push_back({"readback_matches_shadow", mismatched == 0,
                   std::to_string(checked) + " blocks checked, " +
                       std::to_string(mismatched) + " mismatched, " +
                       std::to_string(unknown) + " after failed writes"});
    out.push_back({"every_tenant_progressed", idle_tenants_ == 0,
                   std::to_string(idle_tenants_) +
                       " tenants completed no measured op"});
    out.push_back({"no_refused_submits", refused_ == 0,
                   std::to_string(refused_) + " submits refused"});

    if (repl::ReplicaSet *set = bed_->replicas()) {
        bool equal = true;
        for (std::size_t b = 1; b < set->backend_count(); ++b)
            equal = equal && must(set->verify_equal(0, b), "verify_equal");
        out.push_back({"replicas_bit_identical", equal,
                       std::to_string(set->backend_count()) + " backends"});
    }
    if (storage::IntegrityMap *map = bed_->integrity_map()) {
        out.push_back({"integrity_no_mismatch", map->mismatches() == 0,
                       std::to_string(map->mismatches()) + " mismatches, " +
                           std::to_string(map->verifies()) + " verifies"});
    }
}

} // namespace

std::unique_ptr<Workload>
make_block_workload(const std::string &name, Context &ctx)
{
    BlockSpec spec;
    if (name == "vf8_open")
        spec = vf8_open_spec();
    else if (name == "vf256_dwrr")
        spec = vf256_dwrr_spec();
    else if (name == "frag_rw")
        spec = frag_rw_spec();
    else if (name == "repl_rw")
        spec = repl_rw_spec();
    else
        return nullptr;
    return std::make_unique<BlockWorkload>(std::move(spec), ctx);
}

} // namespace nesc::benchmark

/**
 * @file
 * nested_oltp: the paper's Fig. 12 deployment. One NeSC guest runs a
 * nestfs formatted inside a lazily allocated image file of the
 * hypervisor nestfs, and wl::MiniDb on top of it is driven through
 * begin/get/put/commit. An "op" here is one transaction.
 *
 * The image starts unallocated, so guest writes to new regions take
 * the write-miss -> PF fault service -> rewalk path while it grows.
 * A row shadow of the last put makes the final read-back exact.
 */
#include <algorithm>

#include "util/rng.h"
#include "workload.h"
#include "workloads/dd.h"

namespace nesc::benchmark {

namespace {

constexpr std::uint64_t kImageBlocks = 48 * 1024; // 48 MiB of 1 KiB blocks
constexpr std::uint64_t kRows = 16384;
constexpr std::uint32_t kOpsPerTxn = 10;
constexpr double kReadFrac = 0.7;
constexpr double kZipfTheta = 0.8;
constexpr std::uint64_t kWarmupTxns = 2000;
constexpr std::uint64_t kMeasuredTxns = 100'000;
/** Transactions per host-rate slice. */
constexpr std::uint64_t kSliceTxns = 1000;

class OltpWorkload final : public Workload {
  public:
    explicit OltpWorkload(Context &ctx) : ctx_(ctx), row_(100) {}

    SetupTimes setup() override;
    void teardown() override
    {
        db_.reset();
        vm_.reset();
        bed_.reset();
    }
    virt::Testbed &bed() override { return *bed_; }

    void begin_fixed() override
    {
        window_ = Window{};
        commit_sim_ns_ = 0;
        commits_ = 0;
        fixed_done_ = 0;
        counting_ = true;
    }

    bool fixed_slice() override
    {
        for (std::uint64_t i = 0; i < kSliceTxns; ++i)
            transaction(true);
        fixed_done_ += kSliceTxns;
        return fixed_done_ < kMeasuredTxns;
    }

    void begin_extension() override { counting_ = true; }
    void extension_slice() override
    {
        for (std::uint64_t i = 0; i < kSliceTxns; ++i)
            transaction(false);
    }
    void end_extension() override { counting_ = false; }

    std::uint64_t completed() const override { return txn_seq_; }
    std::uint64_t attempted() const override { return attempted_; }
    std::uint64_t failed() const override { return failed_; }
    const Window &window() const override { return window_; }

    Snapshot snapshot() override
    {
        Snapshot s = read_device_counters(*bed_);
        s.retries = bed_->pf().pf_data().retries();
        s.timeouts = bed_->pf().pf_data().timeouts();
        s.db = db_->stats();
        if (const blk::BufferCache *cache = vm_->fs_stack().cache()) {
            s.cache_hits = cache->hits();
            s.cache_misses = cache->misses();
        }
        s.sched_merges = vm_->fs_stack().scheduler().merges();
        return s;
    }

    void phase_metrics(std::vector<Metric> &out) override
    {
        out.push_back({"workloads.commit_sim_us",
                       commits_ ? static_cast<double>(commit_sim_ns_) /
                                      static_cast<double>(commits_) / 1e3
                                : 0.0,
                       "us", MetricClock::kSim});
        out.push_back({"drivers.backlog_max", 0.0, "count",
                       MetricClock::kSim});
    }

    void verify(std::vector<Check> &out) override;

  private:
    /** One transaction; @p record adds it to the fixed-phase window. */
    void transaction(bool record);

    Context &ctx_;
    std::vector<std::byte> row_;
    // Declaration order is teardown order in reverse: db, vm, bed.
    std::unique_ptr<virt::Testbed> bed_;
    std::unique_ptr<virt::GuestVm> vm_;
    std::unique_ptr<wl::MiniDb> db_;
    util::Rng rng_;
    /** Per row: id of the transaction that last wrote it (0 = zeros). */
    std::vector<std::uint64_t> shadow_;
    Window window_;
    std::uint64_t txn_seq_ = 0;
    std::uint64_t fixed_done_ = 0;
    std::uint64_t commit_sim_ns_ = 0;
    std::uint64_t commits_ = 0;
    bool counting_ = false;
    std::uint64_t attempted_ = 0;
    std::uint64_t failed_ = 0;
};

SetupTimes
OltpWorkload::setup()
{
    static const std::string kImage = "/images/oltp.img";
    SetupTimes times;
    SpanLog::Scope setup_span(ctx_.spans, SpanName::kSetup);
    times.testbed = timed(ctx_.spans, SpanName::kTestbed, [&] {
        virt::TestbedConfig config;
        config.device.capacity_bytes = 128ULL << 20;
        config.host_memory_bytes = 128ULL << 20;
        bed_ = must(virt::Testbed::create(config), "testbed");
    });
    times.provision = timed(ctx_.spans, SpanName::kProvision, [&] {
        must(bed_->create_backing_file(kImage, kImageBlocks, false),
             "lazy image");
    });
    times.attach = timed(ctx_.spans, SpanName::kAttach, [&] {
        vm_ = must(bed_->create_nesc_guest(kImage, kImageBlocks, false),
                   "guest");
    });
    times.guest_fs = timed(ctx_.spans, SpanName::kGuestFs, [&] {
        must_ok(vm_->format_fs(), "guest format_fs");
        wl::MiniDbConfig config;
        config.rows = kRows;
        config.row_bytes = static_cast<std::uint32_t>(row_.size());
        config.pool_pages = 64;
        db_ = must(wl::MiniDb::create(bed_->sim(), *vm_, config), "minidb");
    });
    times.warmup = timed(ctx_.spans, SpanName::kWarmup, [&] {
        rng_ = util::Rng(stream_seed(ctx_.opt.seed, 0));
        shadow_.assign(kRows, 0);
        txn_seq_ = 0;
        for (std::uint64_t i = 0; i < kWarmupTxns; ++i)
            transaction(false);
    });
    return times;
}

void
OltpWorkload::transaction(bool record)
{
    sim::Simulator &sim = bed_->sim();
    const std::uint64_t id = ++txn_seq_;
    const sim::Time start = sim.now();
    bool ok = true;
    {
        SpanLog::Scope txn(ctx_.spans, SpanName::kTxn, id);
        {
            SpanLog::Scope span(ctx_.spans, SpanName::kBegin, id);
            ok = db_->begin().is_ok();
        }
        for (std::uint32_t op = 0; op < kOpsPerTxn; ++op) {
            const std::uint64_t row = rng_.zipf(kRows, kZipfTheta);
            if (rng_.next_bool(kReadFrac)) {
                SpanLog::Scope span(ctx_.spans, SpanName::kGet, id);
                ok = db_->get(row).is_ok() && ok;
            } else {
                wl::fill_pattern(row, id, row_);
                SpanLog::Scope span(ctx_.spans, SpanName::kPut, id);
                const bool put = db_->put(row, row_).is_ok();
                if (put)
                    shadow_[row] = id;
                ok = put && ok;
            }
        }
        const sim::Time commit_start = sim.now();
        {
            SpanLog::Scope span(ctx_.spans, SpanName::kCommit, id);
            ok = db_->commit().is_ok() && ok;
        }
        if (record) {
            commit_sim_ns_ += sim.now() - commit_start;
            ++commits_;
        }
    }
    if (counting_) {
        ++attempted_;
        if (!ok)
            ++failed_;
    }
    if (record) {
        window_.latencies.push_back(static_cast<std::uint32_t>(
            std::min<sim::Duration>(sim.now() - start, UINT32_MAX)));
        ++window_.attempted;
        if (!ok)
            ++window_.failed;
    }
}

void
OltpWorkload::verify(std::vector<Check> &out)
{
    std::uint64_t mismatched = 0;
    std::vector<std::byte> expect(row_.size());
    for (std::uint64_t row = 0; row < kRows; ++row) {
        auto got = db_->get(row);
        if (shadow_[row] == 0)
            std::fill(expect.begin(), expect.end(), std::byte{0});
        else
            wl::fill_pattern(row, shadow_[row], expect);
        if (!got.is_ok() || got.value() != expect)
            ++mismatched;
    }
    out.push_back({"rows_match_shadow", mismatched == 0,
                   std::to_string(kRows) + " rows checked, " +
                       std::to_string(mismatched) + " mismatched"});
    out.push_back({"every_tenant_progressed", !window_.latencies.empty(),
                   std::to_string(window_.latencies.size()) +
                       " measured transactions"});

    auto fsck_check = [&](const char *name, fs::NestFs *fs) {
        if (fs == nullptr) {
            out.push_back({name, false, "filesystem not mounted"});
            return;
        }
        must_ok(fs->sync(), "sync before fsck");
        auto report = fs->fsck();
        if (!report.is_ok()) {
            out.push_back({name, false, report.status().to_string()});
            return;
        }
        std::string detail = std::to_string(report->files) + " files";
        for (const std::string &e : report->errors)
            detail += "; " + e;
        out.push_back({name, report->clean, detail});
    };
    fsck_check("guest_fsck_clean", vm_->fs());
    fsck_check("hypervisor_fsck_clean", &bed_->hv_fs());
}

} // namespace

std::unique_ptr<Workload>
make_oltp_workload(Context &ctx)
{
    return std::make_unique<OltpWorkload>(ctx);
}

} // namespace nesc::benchmark

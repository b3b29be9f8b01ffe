/**
 * @file
 * Unit tests for the workload engines: dd pattern helpers, dd runs,
 * Postmark, fileio, MiniDb (including crash recovery), and OLTP.
 */
#include <gtest/gtest.h>

#include "virt/testbed.h"
#include "workloads/dd.h"
#include "workloads/fileio.h"
#include "workloads/minidb.h"
#include "workloads/oltp.h"
#include "workloads/postmark.h"

namespace nesc::wl {
namespace {

virt::TestbedConfig
small_config()
{
    virt::TestbedConfig config;
    config.device.capacity_bytes = 64ULL << 20;
    config.host_memory_bytes = 64ULL << 20;
    return config;
}

class WorkloadTest : public ::testing::Test {
  protected:
    WorkloadTest()
    {
        auto bed = virt::Testbed::create(small_config());
        EXPECT_TRUE(bed.is_ok()) << bed.status().to_string();
        bed_ = std::move(bed).value();
        auto vm = bed_->create_nesc_guest("/wl.img", 16384, true);
        EXPECT_TRUE(vm.is_ok()) << vm.status().to_string();
        vm_ = std::move(vm).value();
        EXPECT_TRUE(vm_->format_fs().is_ok());
    }

    std::unique_ptr<virt::Testbed> bed_;
    std::unique_ptr<virt::GuestVm> vm_;
};

// --- Pattern helpers ----------------------------------------------------

TEST(DdPattern, FillAndCheckAgree)
{
    std::vector<std::byte> buf(1000);
    fill_pattern(7, 123, buf);
    EXPECT_EQ(check_pattern(7, 123, buf), -1);
    // A corrupted byte is located exactly.
    buf[400] ^= std::byte{0x01};
    EXPECT_EQ(check_pattern(7, 123, buf), 400);
    // Different seed or position mismatches immediately.
    EXPECT_NE(check_pattern(8, 123, buf), -1);
}

/**
 * fill_pattern() generates a run of positions at a time; every byte it
 * writes must be pattern_byte() of its position, and nothing outside
 * the buffer may change. Guards on both sides catch a run overshoot.
 */
void
expect_fill_matches(std::uint64_t seed, std::uint64_t pos, std::size_t len)
{
    constexpr std::size_t kGuard = 32;
    constexpr std::byte kPoison{0x5a};
    std::vector<std::byte> buf(len + 2 * kGuard, kPoison);
    const std::span<std::byte> body(buf.data() + kGuard, len);
    fill_pattern(seed, pos, body);
    for (std::size_t i = 0; i < len; ++i) {
        ASSERT_EQ(body[i], pattern_byte(seed, pos + i))
            << "seed " << seed << " pos " << pos << " len " << len
            << " i " << i;
    }
    for (std::size_t i = 0; i < kGuard; ++i) {
        ASSERT_EQ(buf[i], kPoison) << "pos " << pos << " len " << len;
        ASSERT_EQ(buf[kGuard + len + i], kPoison)
            << "pos " << pos << " len " << len;
    }
    ASSERT_EQ(check_pattern(seed, pos, body), -1)
        << "seed " << seed << " pos " << pos << " len " << len;
}

TEST(PatternFill, MatchesPatternByte)
{
    // Every length up to 1 KiB from offsets on both sides of 16- and
    // 256-byte boundaries, in low memory, near 2^32 and across the
    // 2^64 wrap.
    for (std::uint64_t base : {std::uint64_t{0}, std::uint64_t{4096},
                               (std::uint64_t{1} << 32) - 512,
                               ~std::uint64_t{0} - 767}) {
        for (std::uint64_t off : {0, 1, 15, 16, 17, 200, 255}) {
            for (std::size_t len = 0; len <= 1024; ++len) {
                expect_fill_matches(0x1234'5678'9abc'def0ULL + off,
                                    base + off, len);
                if (::testing::Test::HasFatalFailure())
                    return;
            }
        }
    }
    // Every low byte of the seed (it permutes a run's table rows),
    // under changing high bits.
    for (std::uint64_t low = 0; low < 256; ++low) {
        const std::uint64_t seed = (low * 0x0101'0101'0101'0000ULL) | low;
        for (std::uint64_t pos : {std::uint64_t{0}, std::uint64_t{77},
                                  (std::uint64_t{1} << 32) - 100,
                                  ~std::uint64_t{0} - 300}) {
            expect_fill_matches(seed, pos, 600);
            if (::testing::Test::HasFatalFailure())
                return;
        }
    }
    // The portable loop is the definition, byte for byte.
    std::vector<std::byte> portable(1000);
    detail::fill_pattern_portable(99, ~std::uint64_t{0} - 500, portable);
    for (std::size_t i = 0; i < portable.size(); ++i)
        ASSERT_EQ(portable[i], pattern_byte(99, ~std::uint64_t{0} - 500 + i));
}

TEST(PatternFill, CheckFindsFirstMismatch)
{
    std::vector<std::byte> buf(1024);
    fill_pattern(5, 250, buf);
    EXPECT_EQ(check_pattern(5, 250, std::span<const std::byte>{}), -1);
    for (std::size_t bad : {std::size_t{0}, std::size_t{5}, std::size_t{6},
                            std::size_t{255}, std::size_t{256},
                            std::size_t{700}, std::size_t{1023}}) {
        buf[bad] ^= std::byte{0x80};
        EXPECT_EQ(check_pattern(5, 250, buf), static_cast<std::int64_t>(bad));
        // A later mismatch does not hide the first one.
        buf[1023 - (bad % 16)] ^= std::byte{0x01};
        EXPECT_EQ(check_pattern(5, 250, buf),
                  static_cast<std::int64_t>(
                      std::min(bad, 1023 - (bad % 16))));
        buf[1023 - (bad % 16)] ^= std::byte{0x01};
        buf[bad] ^= std::byte{0x80};
    }
    EXPECT_EQ(check_pattern(5, 250, buf), -1);
}

// --- dd ---------------------------------------------------------------------

TEST_F(WorkloadTest, DdRawWriteThenVerifyRead)
{
    DdConfig dd;
    dd.request_bytes = 4096;
    dd.total_bytes = 64 * 1024;
    dd.write = true;
    dd.pattern_seed = 5;
    auto wrote = run_dd_raw(bed_->sim(), vm_->raw_disk(), dd);
    ASSERT_TRUE(wrote.is_ok()) << wrote.status().to_string();
    EXPECT_EQ(wrote->requests, 16u);
    EXPECT_EQ(wrote->bytes, 64u * 1024);
    EXPECT_GT(wrote->bandwidth_mb_s, 0.0);
    EXPECT_GT(wrote->mean_latency_us, 0.0);

    dd.write = false;
    dd.verify = true;
    auto read = run_dd_raw(bed_->sim(), vm_->raw_disk(), dd);
    ASSERT_TRUE(read.is_ok()) << read.status().to_string();
}

TEST_F(WorkloadTest, DdSubBlockRequests)
{
    DdConfig dd;
    dd.request_bytes = 512; // half a device block
    dd.total_bytes = 8 * 1024;
    dd.write = true;
    auto result = run_dd_raw(bed_->sim(), vm_->raw_disk(), dd);
    ASSERT_TRUE(result.is_ok());
    EXPECT_EQ(result->requests, 16u);
}

TEST_F(WorkloadTest, DdFileWriteReadVerify)
{
    auto ino = vm_->fs()->create("/ddfile", 0644);
    ASSERT_TRUE(ino.is_ok());
    DdConfig dd;
    dd.request_bytes = 3000; // deliberately unaligned
    dd.total_bytes = 30 * 1000;
    dd.write = true;
    dd.pattern_seed = 9;
    auto wrote = run_dd_file(bed_->sim(), *vm_, *ino, dd);
    ASSERT_TRUE(wrote.is_ok()) << wrote.status().to_string();

    dd.write = false;
    dd.verify = true;
    auto read = run_dd_file(bed_->sim(), *vm_, *ino, dd);
    ASSERT_TRUE(read.is_ok()) << read.status().to_string();
    EXPECT_EQ(read->bytes, 30u * 1000);
}

TEST_F(WorkloadTest, DdRejectsZeroRequestSize)
{
    DdConfig dd;
    dd.request_bytes = 0;
    EXPECT_FALSE(run_dd_raw(bed_->sim(), vm_->raw_disk(), dd).is_ok());
}

// --- Postmark ------------------------------------------------------------------

TEST_F(WorkloadTest, PostmarkRunsAndCleansUp)
{
    PostmarkConfig config;
    config.initial_files = 20;
    config.transactions = 60;
    config.max_file_bytes = 4096;
    auto result = run_postmark(bed_->sim(), *vm_, config);
    ASSERT_TRUE(result.is_ok()) << result.status().to_string();
    EXPECT_EQ(result->transactions, 60u);
    EXPECT_GE(result->files_created, 20u);
    EXPECT_GT(result->transactions_per_sec, 0.0);
    // Cleanup removed the pool directory entirely.
    EXPECT_FALSE(vm_->fs()->resolve(config.directory).is_ok());
    // All blocks are back (no leaks in the FS under churn).
    EXPECT_GT(vm_->fs()->free_blocks(), 0u);
}

TEST_F(WorkloadTest, PostmarkDeterministicPerSeed)
{
    PostmarkConfig config;
    config.initial_files = 10;
    config.transactions = 30;
    config.directory = "/pm1";
    auto a = run_postmark(bed_->sim(), *vm_, config);
    ASSERT_TRUE(a.is_ok());
    config.directory = "/pm2";
    auto b = run_postmark(bed_->sim(), *vm_, config);
    ASSERT_TRUE(b.is_ok());
    EXPECT_EQ(a->files_created, b->files_created);
    EXPECT_EQ(a->reads, b->reads);
    EXPECT_EQ(a->bytes_written, b->bytes_written);
}

// --- fileio -----------------------------------------------------------------------

TEST_F(WorkloadTest, FileioMixMatchesConfig)
{
    FileioConfig config;
    config.num_files = 4;
    config.file_bytes = 64 * 1024;
    config.operations = 200;
    config.read_ratio = 1.0; // all reads
    auto result = run_fileio(bed_->sim(), *vm_, config);
    ASSERT_TRUE(result.is_ok()) << result.status().to_string();
    EXPECT_EQ(result->reads, 200u);
    EXPECT_EQ(result->writes, 0u);
    EXPECT_GT(result->ops_per_sec, 0.0);
}

TEST_F(WorkloadTest, FileioValidatesRequestSize)
{
    FileioConfig config;
    config.request_bytes = 1 << 20;
    config.file_bytes = 4096;
    EXPECT_FALSE(run_fileio(bed_->sim(), *vm_, config).is_ok());
}

// --- MiniDb -----------------------------------------------------------------------

TEST_F(WorkloadTest, MiniDbReadYourWrites)
{
    MiniDbConfig config;
    config.rows = 256;
    config.directory = "/db1";
    auto db = MiniDb::create(bed_->sim(), *vm_, config);
    ASSERT_TRUE(db.is_ok()) << db.status().to_string();

    std::vector<std::byte> row(config.row_bytes, std::byte{0x11});
    ASSERT_TRUE((*db)->begin().is_ok());
    ASSERT_TRUE((*db)->put(5, row).is_ok());
    // Uncommitted data visible inside the transaction.
    auto inside = (*db)->get(5);
    ASSERT_TRUE(inside.is_ok());
    EXPECT_EQ(*inside, row);
    ASSERT_TRUE((*db)->commit().is_ok());
    auto after = (*db)->get(5);
    ASSERT_TRUE(after.is_ok());
    EXPECT_EQ(*after, row);
}

TEST_F(WorkloadTest, MiniDbTransactionDiscipline)
{
    MiniDbConfig config;
    config.rows = 64;
    config.directory = "/db2";
    auto db = MiniDb::create(bed_->sim(), *vm_, config);
    ASSERT_TRUE(db.is_ok());
    std::vector<std::byte> row(config.row_bytes);
    EXPECT_FALSE((*db)->put(0, row).is_ok());   // outside txn
    EXPECT_FALSE((*db)->commit().is_ok());      // no begin
    ASSERT_TRUE((*db)->begin().is_ok());
    EXPECT_FALSE((*db)->begin().is_ok());       // nested
    EXPECT_FALSE((*db)->put(999, row).is_ok()); // out of range
    std::vector<std::byte> wrong(10);
    EXPECT_FALSE((*db)->put(0, wrong).is_ok()); // size mismatch
}

TEST_F(WorkloadTest, MiniDbRecoversCommittedTransactionsAfterCrash)
{
    MiniDbConfig config;
    config.rows = 128;
    config.checkpoint_every = 1000; // never checkpoint during the run
    config.directory = "/db3";
    std::vector<std::byte> row_a(config.row_bytes, std::byte{0xaa});
    std::vector<std::byte> row_b(config.row_bytes, std::byte{0xbb});
    {
        auto db = MiniDb::create(bed_->sim(), *vm_, config);
        ASSERT_TRUE(db.is_ok());
        ASSERT_TRUE((*db)->begin().is_ok());
        ASSERT_TRUE((*db)->put(7, row_a).is_ok());
        ASSERT_TRUE((*db)->commit().is_ok());
        ASSERT_TRUE((*db)->begin().is_ok());
        ASSERT_TRUE((*db)->put(9, row_b).is_ok());
        // Crash: no commit for txn 2, no checkpoint — the engine is
        // simply dropped. The WAL holds txn 1 (committed) only.
    }
    auto db = MiniDb::open(bed_->sim(), *vm_, config);
    ASSERT_TRUE(db.is_ok()) << db.status().to_string();
    EXPECT_GE((*db)->stats().recovered_txns, 1u);
    auto a = (*db)->get(7);
    ASSERT_TRUE(a.is_ok());
    EXPECT_EQ(*a, row_a);
    auto b = (*db)->get(9);
    ASSERT_TRUE(b.is_ok());
    // Uncommitted txn must NOT have been applied.
    EXPECT_EQ(*b, std::vector<std::byte>(config.row_bytes, std::byte{0}));
}

TEST_F(WorkloadTest, MiniDbCheckpointTruncatesWal)
{
    MiniDbConfig config;
    config.rows = 64;
    config.checkpoint_every = 2;
    config.directory = "/db4";
    auto db = MiniDb::create(bed_->sim(), *vm_, config);
    ASSERT_TRUE(db.is_ok());
    std::vector<std::byte> row(config.row_bytes, std::byte{1});
    for (int t = 0; t < 4; ++t) {
        ASSERT_TRUE((*db)->begin().is_ok());
        ASSERT_TRUE((*db)->put(t, row).is_ok());
        ASSERT_TRUE((*db)->commit().is_ok());
    }
    EXPECT_EQ((*db)->stats().checkpoints, 2u);
    auto wal = vm_->fs()->stat_path("/db4/wal");
    ASSERT_TRUE(wal.is_ok());
    EXPECT_EQ(wal->size_bytes, 0u);
}

// --- OLTP -------------------------------------------------------------------------

TEST_F(WorkloadTest, OltpRunsTheConfiguredMix)
{
    OltpConfig config;
    config.transactions = 20;
    config.ops_per_txn = 5;
    config.db.rows = 256;
    config.db.directory = "/oltp-test";
    auto result = run_oltp(bed_->sim(), *vm_, config);
    ASSERT_TRUE(result.is_ok()) << result.status().to_string();
    EXPECT_EQ(result->transactions, 20u);
    EXPECT_EQ(result->reads + result->updates, 100u);
    EXPECT_GT(result->transactions_per_sec, 0.0);
    EXPECT_GT(result->mean_txn_latency_us, 0.0);
}

TEST_F(WorkloadTest, OltpWithPrimaryKeyIndex)
{
    OltpConfig config;
    config.transactions = 15;
    config.ops_per_txn = 6;
    config.db.rows = 512;
    config.db.directory = "/oltp-idx";
    config.use_index = true;
    auto result = run_oltp(bed_->sim(), *vm_, config);
    ASSERT_TRUE(result.is_ok()) << result.status().to_string();
    EXPECT_EQ(result->transactions, 15u);
    EXPECT_EQ(result->reads + result->updates, 90u);
    // The index variant does more I/O per op: it must not be faster
    // than the direct-addressed run with the same parameters.
    config.use_index = false;
    config.db.directory = "/oltp-noidx";
    auto direct = run_oltp(bed_->sim(), *vm_, config);
    ASSERT_TRUE(direct.is_ok());
    EXPECT_GE(result->mean_txn_latency_us,
              direct->mean_txn_latency_us * 0.9);
}

TEST_F(WorkloadTest, OltpAllReadsWhenRatioIsOne)
{
    OltpConfig config;
    config.transactions = 5;
    config.ops_per_txn = 4;
    config.read_ratio = 1.0;
    config.db.rows = 64;
    config.db.directory = "/oltp-ro";
    auto result = run_oltp(bed_->sim(), *vm_, config);
    ASSERT_TRUE(result.is_ok());
    EXPECT_EQ(result->updates, 0u);
    EXPECT_EQ(result->reads, 20u);
}

} // namespace
} // namespace nesc::wl

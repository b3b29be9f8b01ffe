/**
 * @file
 * Register-file ABI tests.
 *
 * The sweep reads every 4-byte-aligned offset of a function's register
 * page below the doorbell aperture from the PF and from one active VF,
 * then writes 0 to each offset from the VF, and compares the outcome
 * (status code, value read, the reg_violations that write added) with
 * a committed golden. It runs twice: on a plain device, and with a
 * replica set and a checksum sidecar attached, so the master-abort
 * gating of both optional blocks is pinned too. Any change to decode,
 * PF-only policy or gating shows up as a diff against the golden.
 *
 * The datasheet check holds docs/REGISTERS.md to the register table:
 * every documented register must be a table row with the same offset,
 * name and access, and every table row must be documented.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "nesc/command.h"
#include "nesc/controller.h"
#include "nesc/register_table.h"
#include "virt/testbed.h"

namespace nesc::virt {
namespace {

/** End of the swept range: the per-queue doorbell aperture. */
constexpr std::uint64_t kSweepEnd = ctrl::reg::kQpDoorbell0;

TestbedConfig
plain_config()
{
    TestbedConfig config;
    config.device.capacity_bytes = 32ULL << 20;
    config.host_memory_bytes = 64ULL << 20;
    return config;
}

/** Replica set plus checksum sidecar, as in test_integrity.cc. */
TestbedConfig
attached_config()
{
    TestbedConfig config = plain_config();
    config.integrity = TestbedIntegrityConfig{};
    TestbedReplicationConfig repl;
    repl.backends = 3;
    repl.media = storage::MemBlockDeviceConfig::ramdisk(
        0, 1); // rate 0 = fast; capacity auto-resized by the testbed
    config.replication = repl;
    return config;
}

std::string
hex(std::uint64_t value)
{
    char buf[24];
    std::snprintf(buf, sizeof buf, "0x%llx",
                  static_cast<unsigned long long>(value));
    return buf;
}

std::string
describe_read(const util::Result<std::uint64_t> &r)
{
    if (!r.is_ok())
        return util::error_code_name(r.status().code());
    return "OK:" + hex(*r);
}

/**
 * One sweep cell per offset: "pf-read vf-read vf-write/violations",
 * where violations is what this offset's write added to the VF's
 * reg_violations, so a change at one offset changes one line. Reads
 * come first so the VF's writes cannot perturb them.
 */
std::vector<std::string>
sweep(const TestbedConfig &config)
{
    std::vector<std::string> cells;
    auto bed = Testbed::create(config);
    EXPECT_TRUE(bed.is_ok()) << bed.status().to_string();
    if (!bed.is_ok())
        return cells;
    auto vm = (*bed)->create_nesc_guest("/abi.img", 256);
    EXPECT_TRUE(vm.is_ok()) << vm.status().to_string();
    if (!vm.is_ok())
        return cells;
    auto vf = (*bed)->guest_vf(**vm);
    EXPECT_TRUE(vf.is_ok());
    if (!vf.is_ok())
        return cells;
    ctrl::Controller &ctrl = (*bed)->controller();

    for (std::uint64_t off = 0; off < kSweepEnd; off += 4) {
        cells.push_back(describe_read(ctrl.mmio_read(0, off, 8)) + " " +
                        describe_read(ctrl.mmio_read(*vf, off, 8)));
    }
    for (std::uint64_t off = 0; off < kSweepEnd; off += 4) {
        const std::uint64_t before = ctrl.stats(*vf).reg_violations;
        const util::Status s = ctrl.mmio_write(*vf, off, 0, 8);
        cells[off / 4] +=
            std::string(" ") + util::error_code_name(s.code()) + "/" +
            std::to_string(ctrl.stats(*vf).reg_violations - before);
    }
    return cells;
}

std::string
render_sweep()
{
    const std::vector<std::string> plain = sweep(plain_config());
    const std::vector<std::string> attached = sweep(attached_config());
    std::string out =
        "# offset | plain: pf-read vf-read vf-write0/reg_violations_added"
        " | replicas+integrity: same\n";
    for (std::size_t i = 0; i < plain.size() && i < attached.size(); ++i) {
        char off[24];
        std::snprintf(off, sizeof off, "0x%03zx", i * 4);
        out += std::string(off) + " | " + plain[i] + " | " + attached[i] +
               "\n";
    }
    return out;
}

std::string
read_file(const char *path)
{
    std::ifstream in(path);
    std::ostringstream text;
    text << in.rdbuf();
    return text.str();
}

std::vector<std::string>
lines(const std::string &text)
{
    std::vector<std::string> out;
    std::istringstream in(text);
    for (std::string line; std::getline(in, line);)
        out.push_back(line);
    return out;
}

TEST(RegisterAbi, SweepMatchesGolden)
{
    const std::string actual = render_sweep();
    const std::string golden = read_file(NESC_REGISTER_ABI_GOLDEN);
    if (actual != golden) {
        // Leave the full sweep next to the binary for a reviewable diff.
        std::ofstream("register_abi.actual") << actual;
        const std::vector<std::string> a = lines(actual), g = lines(golden);
        int shown = 0;
        for (std::size_t i = 0; i < std::max(a.size(), g.size()) && shown < 10;
             ++i) {
            const std::string al = i < a.size() ? a[i] : "<none>";
            const std::string gl = i < g.size() ? g[i] : "<none>";
            if (al != gl) {
                ADD_FAILURE() << "golden: " << gl << "\nactual: " << al;
                ++shown;
            }
        }
        FAIL() << "register ABI changed; full sweep written to "
                  "register_abi.actual";
    }
}

// --- Latch widths and clamps ---------------------------------------------

/**
 * Every RW register that latches a plain field reads back the PF's
 * pattern at its field's width: 64-bit latches whole, 32-bit
 * ones truncated, WatchdogNs masked to kWatchdogNsBits and
 * IntegrityCtrl to its enable bit. BtlbGeometry and NodeCacheBytes are
 * left out: a large geometry or budget would allocate that much.
 */
TEST(RegisterLatch, PatternReadsBackAtFieldWidth)
{
    namespace reg = ctrl::reg;
    constexpr std::uint64_t kPattern = 0xa5a5a5a5a5a5a5a5ULL;
    constexpr std::uint64_t k32 = 0xa5a5a5a5ULL;
    struct Case {
        std::uint64_t offset;
        std::uint64_t expect;
    };
    const Case cases[] = {
        {reg::kExtentTreeRoot, kPattern},
        // Pair 0's vector, through both aliases (QpSelect is still 0).
        {reg::kInterruptVector, k32},
        {reg::kQpIrqVector, k32},
        {reg::kWatchdogNs,
         kPattern & ((std::uint64_t{1} << reg::kWatchdogNsBits) - 1)},
        {reg::kMgmtVfId, k32},
        {reg::kMgmtExtentRoot, kPattern},
        {reg::kMgmtDeviceSize, kPattern},
        {reg::kMgmtQosWeight, k32},
        {reg::kWalkCoalesce, k32},
        {reg::kDmaWindowBase, kPattern},
        {reg::kDmaWindowSize, kPattern},
        {reg::kQuarantineThreshold, k32},
        {reg::kQuarantineWindowNs, kPattern},
        {reg::kTelemetrySelect, k32},
        {reg::kReplBackendSelect, k32},
        {reg::kQpSelect, k32},
        {reg::kArbQuantum, k32},
        {reg::kMgmtQpQuota, k32},
        {reg::kMgmtRateBytesPerSec, kPattern},
        {reg::kMgmtRateBurstBytes, kPattern},
        {reg::kIntegrityCtrl, 1},
        {reg::kIntegrityRereadLimit, k32},
        {reg::kScrubBatch, kPattern},
        {reg::kScrubIntervalNs, kPattern},
        {reg::kSloMaxP99Ns, kPattern},
        {reg::kSloMaxErrorPpm, kPattern},
        {reg::kSloSelect, k32},
        {reg::kSloBreachSelect, k32},
        {reg::kFlightDepth, kPattern},
        {reg::kPostmortemSelect, k32},
    };
    auto bed = Testbed::create(attached_config());
    ASSERT_TRUE(bed.is_ok()) << bed.status().to_string();
    ctrl::Controller &ctrl = (*bed)->controller();
    for (const Case &c : cases) {
        const ctrl::reg::RegisterInfo *r = ctrl::reg::find_register(c.offset);
        ASSERT_NE(r, nullptr) << hex(c.offset);
        ASSERT_TRUE(ctrl.mmio_write(0, c.offset, kPattern, 8).is_ok())
            << r->name;
        const util::Result<std::uint64_t> read = ctrl.mmio_read(0, c.offset, 8);
        ASSERT_TRUE(read.is_ok()) << r->name;
        EXPECT_EQ(*read, c.expect) << r->name;
    }
}

TEST(RegisterLatch, ClampsAndIgnoredWrites)
{
    namespace reg = ctrl::reg;
    auto bed = Testbed::create(attached_config());
    ASSERT_TRUE(bed.is_ok()) << bed.status().to_string();
    ctrl::Controller &ctrl = (*bed)->controller();
    auto write_read = [&](std::uint64_t offset, std::uint64_t value) {
        EXPECT_TRUE(ctrl.mmio_write(0, offset, value, 8).is_ok());
        return *ctrl.mmio_read(0, offset, 8);
    };
    EXPECT_EQ(write_read(reg::kArbQuantum, 0), 1u);
    EXPECT_EQ(write_read(reg::kScrubBatch, 0), 1u);
    EXPECT_EQ(write_read(reg::kFlightDepth, 5), 5u);
    EXPECT_EQ(write_read(reg::kFlightDepth, 0), 5u);
}

// --- docs/REGISTERS.md against the register table ------------------------

/**
 * A register row of the datasheet: `| 0x… | `Name` | access | … |`.
 * Access is RO, WO or RW, and "RW (PF-only write)" for a register any
 * function reads but only the PF writes. Every access of a row under a
 * `## PF-only …` heading is PF-only.
 */
struct DocRow {
    std::uint64_t offset;
    std::string name;
    ctrl::reg::Access read;
    ctrl::reg::Access write;
};

/** Drops @p prefix from the front of @p text; false if it is not there. */
bool
consume(std::string_view &text, std::string_view prefix)
{
    if (!text.starts_with(prefix))
        return false;
    text.remove_prefix(prefix.size());
    return true;
}

/** Drops and returns the longest prefix of @p text made of @p chars. */
std::string_view
consume_span(std::string_view &text, std::string_view chars)
{
    const std::string_view head = text.substr(0, text.find_first_not_of(chars));
    text.remove_prefix(head.size());
    return head;
}

/**
 * Parses one datasheet line as a register row; false if it is not
 * one. Accepts exactly `| 0x<lowercase hex> | `<word>` | RO|WO|RW` with
 * an optional ` (PF-only write)`, then ` |`.
 */
bool
parse_row(std::string_view line, bool pf_section, DocRow &row)
{
    using ctrl::reg::Access;
    if (!consume(line, "| 0x"))
        return false;
    const std::string_view hex = consume_span(line, "0123456789abcdef");
    if (hex.empty() || !consume(line, " | `"))
        return false;
    const std::string_view name =
        consume_span(line, "0123456789_abcdefghijklmnopqrstuvwxyz"
                           "ABCDEFGHIJKLMNOPQRSTUVWXYZ");
    if (name.empty() || !consume(line, "` | "))
        return false;
    const std::string_view access = line.substr(0, 2);
    if (access != "RO" && access != "WO" && access != "RW")
        return false;
    line.remove_prefix(2);
    const bool pf_write = consume(line, " (PF-only write)");
    if (!consume(line, " |"))
        return false;
    if (std::from_chars(hex.data(), hex.data() + hex.size(), row.offset, 16)
            .ec != std::errc())
        return false;
    const Access who = pf_section ? Access::kPf : Access::kAny;
    row.name = name;
    row.read = access == "WO" ? Access::kNone : who;
    row.write = access == "RO" ? Access::kNone
                : pf_write     ? Access::kPf
                               : who;
    return true;
}

std::vector<DocRow>
parse_datasheet(const std::string &text)
{
    std::vector<DocRow> rows;
    bool pf_section = false;
    for (const std::string &line : lines(text)) {
        if (line.rfind("## ", 0) == 0)
            pf_section = line.rfind("## PF-only", 0) == 0;
        DocRow r;
        if (!parse_row(line, pf_section, r)) {
            EXPECT_EQ(line.find("| 0x"), std::string::npos)
                << "unparsed register row: " << line;
            continue;
        }
        rows.push_back(r);
    }
    return rows;
}

TEST(RegisterDoc, DatasheetMatchesRegisterTable)
{
    const std::vector<DocRow> doc =
        parse_datasheet(read_file(NESC_REGISTERS_DOC));
    ASSERT_FALSE(doc.empty()) << "no register rows in " << NESC_REGISTERS_DOC;
    std::vector<bool> documented(ctrl::reg::kRegisterTable.size(), false);
    for (const DocRow &d : doc) {
        const ctrl::reg::RegisterInfo *r = ctrl::reg::find_register(d.offset);
        if (r == nullptr) {
            ADD_FAILURE() << "documented " << d.name << " at " << hex(d.offset)
                          << " is not in the register table";
            continue;
        }
        documented[r - ctrl::reg::kRegisterTable.data()] = true;
        EXPECT_EQ(d.name, r->name) << "at " << hex(d.offset);
        EXPECT_EQ(d.read, r->read) << d.name << " read access";
        EXPECT_EQ(d.write, r->write) << d.name << " write access";
    }
    for (std::size_t i = 0; i < documented.size(); ++i) {
        EXPECT_TRUE(documented[i])
            << ctrl::reg::kRegisterTable[i].name << " at "
            << hex(ctrl::reg::kRegisterTable[i].offset)
            << " is missing from " << NESC_REGISTERS_DOC;
    }
}

} // namespace
} // namespace nesc::virt

/**
 * @file
 * Ablation A15: end-to-end data integrity — detection, repair, and the
 * checksum tax.
 *
 * Three gated scenarios on the testbed:
 *
 *   1. detection: a guest writes a known pattern through its VF, then
 *      bits rot on the physical media behind the controller. With the
 *      checksum sidecar on, every read of a damaged block must fail
 *      with a checksum error — the gate is that ZERO corrupt payloads
 *      are ever delivered, and every seeded hit is detected;
 *   2. repair: the same rot on one backend of a replicated set. A
 *      background scrub must find every stale copy and repair it from
 *      a verified peer, leaving the backends bit-identical and the
 *      guest data byte-exact;
 *   3. overhead: checksums-on (replication off) goodput vs the plain
 *      data path on the identical workload — the verify-on-every-read
 *      tax must stay within 5%.
 *
 * Any gate failure sets the exit code; ctest runs the bench at the
 * default rot placement. Everything is seeded and event-driven, so the
 * numbers are deterministic.
 */
#include <cstdlib>
#include <cstring>

#include "bench/common.h"

#include "repl/replica_set.h"
#include "storage/block_device.h"
#include "workloads/dd.h"

using namespace nesc;

namespace {

constexpr std::uint64_t kImageBlocks = 8192; // 8 MiB virtual disk
constexpr std::uint32_t kOpBlocks = 4;       // 4 KiB per op
constexpr sim::Duration kPhase = 20 * sim::kMs;

/**
 * Rot-placement seed for the scheduled chaos job (NESC_CHAOS_SEED,
 * date-derived there). It shifts which blocks rot and which byte
 * flips; every gate metric is placement-invariant, so the gates hold
 * on every seed. Unset = 0 = the default run.
 */
std::uint64_t
chaos_seed()
{
    const char *env = std::getenv("NESC_CHAOS_SEED");
    return env != nullptr ? std::strtoull(env, nullptr, 10) : 0;
}

virt::TestbedConfig
bench_config(bool integrity, bool replicated)
{
    virt::TestbedConfig config;
    config.device.capacity_bytes = 64ULL << 20;
    config.host_memory_bytes = 64ULL << 20;
    if (integrity)
        config.integrity = virt::TestbedIntegrityConfig{};
    if (replicated) {
        virt::TestbedReplicationConfig repl;
        repl.backends = 3;
        config.replication = repl;
    }
    return config;
}

/** Writes the whole image with its per-block pattern via the guest. */
void
fill_image(virt::GuestVm &vm)
{
    std::vector<std::byte> buf(kOpBlocks * 1024);
    for (std::uint64_t b = 0; b < kImageBlocks; b += kOpBlocks) {
        for (std::uint32_t i = 0; i < kOpBlocks; ++i)
            wl::fill_pattern(b + i, 0,
                             std::span<std::byte>(buf).subspan(i * 1024,
                                                               1024));
        bench::must_ok(vm.raw_disk().write_blocks(b, kOpBlocks, buf),
                       "fill write");
    }
}

/**
 * Finds the pLBA holding @p vlba's pattern by scanning @p media raw.
 * The 32-byte prefix of wl::fill_pattern(vlba) is unique enough that a
 * collision would itself be a corruption.
 */
std::uint64_t
find_plba(storage::BlockDevice &media, std::uint64_t vlba)
{
    std::vector<std::byte> want(1024), raw(1024);
    wl::fill_pattern(vlba, 0, want);
    const std::uint64_t blocks = media.geometry().num_blocks();
    for (std::uint64_t b = 0; b < blocks; ++b) {
        if (!media.read(b * 1024, raw).is_ok())
            continue;
        if (std::memcmp(raw.data(), want.data(), 32) == 0)
            return b;
    }
    std::fprintf(stderr, "FATAL: vLBA %llu not found on media\n",
                 static_cast<unsigned long long>(vlba));
    std::exit(1);
}

/** Flips one stored byte of @p plba on @p media (silent bitrot). */
void
rot_block(storage::BlockDevice &media, std::uint64_t plba)
{
    std::vector<std::byte> raw(1024);
    bench::must_ok(media.read(plba * 1024, raw), "rot read");
    raw[(777 + chaos_seed() * 31) % 1024] ^= std::byte{0x20};
    bench::must_ok(media.write(plba * 1024, raw), "rot write");
}

struct DetectionResult {
    std::uint64_t seeded = 0;
    std::uint64_t detected_reads = 0;  // reads failing with a checksum error
    std::uint64_t corrupt_delivered = 0; // successful reads of wrong bytes
    std::uint64_t clean_ok = 0;
};

/**
 * Scenario 1: silent bitrot on the single-device path. Sweep-read the
 * whole image; damaged blocks must fail, clean blocks must be exact.
 */
DetectionResult
detection_run()
{
    auto bed = bench::must(
        virt::Testbed::create(bench_config(true, false)), "testbed");
    auto vm = bench::must(bed->create_nesc_guest("/int.img", kImageBlocks),
                          "guest");
    fill_image(*vm);
    bed->sim().run_until_idle();

    // Rot 16 spread-out guest blocks directly on the physical media.
    DetectionResult r;
    std::vector<std::uint64_t> rotted;
    for (std::uint64_t vlba = chaos_seed() % (kImageBlocks / 16);
         vlba < kImageBlocks; vlba += kImageBlocks / 16) {
        rot_block(bed->device(), find_plba(bed->device(), vlba));
        rotted.push_back(vlba);
        ++r.seeded;
    }

    std::vector<std::byte> buf(1024), want(1024);
    for (std::uint64_t vlba = 0; vlba < kImageBlocks; ++vlba) {
        const bool damaged = std::find(rotted.begin(), rotted.end(),
                                       vlba) != rotted.end();
        const util::Status status =
            vm->raw_disk().read_blocks(vlba, 1, buf);
        if (!status.is_ok()) {
            if (damaged)
                ++r.detected_reads;
            else
                bench::must_ok(status, "clean-block read");
            continue;
        }
        wl::fill_pattern(vlba, 0, want);
        if (buf != want)
            ++r.corrupt_delivered;
        else if (!damaged)
            ++r.clean_ok;
        else
            ++r.corrupt_delivered; // damaged block served "ok"
    }
    return r;
}

struct RepairResult {
    std::uint64_t seeded = 0;
    std::uint64_t repairs = 0;
    std::uint64_t scrub_errors = 0;
    bool bit_identical = false;
    bool data_exact = false;
};

/**
 * Scenario 2: the same rot on one backend of a 3-way replica set; a
 * background scrub must repair every stale copy from a verified peer.
 */
RepairResult
repair_run()
{
    auto bed = bench::must(
        virt::Testbed::create(bench_config(true, true)), "testbed");
    auto vm = bench::must(bed->create_nesc_guest("/int.img", kImageBlocks),
                          "guest");
    fill_image(*vm);
    bed->sim().run_until_idle();

    RepairResult r;
    std::vector<std::uint64_t> rotted;
    for (std::uint64_t vlba = chaos_seed() % (kImageBlocks / 8);
         vlba < kImageBlocks; vlba += kImageBlocks / 8) {
        const std::uint64_t plba = find_plba(bed->replica_media(0), vlba);
        rot_block(bed->replica_media(1), plba);
        rotted.push_back(vlba);
        ++r.seeded;
    }
    repl::ReplicaSet *set = bed->replicas();
    if (bench::must(set->verify_equal(0, 1), "verify")) {
        std::fprintf(stderr, "FATAL: rot did not land\n");
        std::exit(1);
    }

    drv::PfDriver &pf = bed->pf();
    bench::must_ok(pf.set_scrub_rate(256, 50'000), "scrub rate");
    bench::must_ok(pf.scrub_start(), "scrub start");
    bench::must(pf.scrub_wait(), "scrub wait");

    r.repairs = bench::must(pf.integrity_repairs(), "repairs");
    r.scrub_errors = bench::must(pf.scrub_errors(), "scrub errors");
    r.bit_identical = bench::must(set->verify_equal(0, 1), "verify") &&
                      bench::must(set->verify_equal(0, 2), "verify");

    // The guest's view is byte-exact everywhere, including the blocks
    // whose backend-1 copy was rotted.
    r.data_exact = true;
    std::vector<std::byte> buf(1024), want(1024);
    for (std::uint64_t vlba : rotted) {
        bench::must_ok(vm->raw_disk().read_blocks(vlba, 1, buf),
                       "post-scrub read");
        wl::fill_pattern(vlba, 0, want);
        if (buf != want)
            r.data_exact = false;
    }
    return r;
}

/** Scenario 3: steady-state goodput with/without the sidecar. */
double
steady_goodput(bool integrity)
{
    auto bed = bench::must(
        virt::Testbed::create(bench_config(integrity, false)), "testbed");
    auto vm = bench::must(bed->create_nesc_guest("/bench.img",
                                                 kImageBlocks),
                          "guest");
    std::vector<std::byte> buf(kOpBlocks * 1024);
    std::uint64_t next_block = 0, ops = 0;
    bool write = true;
    sim::Simulator &sim = bed->sim();
    auto lap = [&](sim::Duration window) {
        std::uint64_t lap_ops = 0;
        const sim::Time deadline = sim.now() + window;
        while (sim.now() < deadline) {
            wl::fill_pattern(next_block, 0, buf);
            bench::must_ok(
                write ? vm->raw_disk().write_blocks(next_block, kOpBlocks,
                                                    buf)
                      : vm->raw_disk().read_blocks(next_block, kOpBlocks,
                                                   buf),
                "guest op");
            ++lap_ops;
            write = !write;
            next_block = (next_block + kOpBlocks) % kImageBlocks;
        }
        return lap_ops;
    };
    lap(kPhase / 2); // warm-up lap fills the image
    ops = lap(kPhase);
    return static_cast<double>(ops) * kOpBlocks * 1024.0 /
           (1024.0 * 1024.0) / (static_cast<double>(kPhase) / 1e9);
}

} // namespace

int
main()
{
    bench::print_header(
        "Ablation A15", "end-to-end integrity: detect, repair, tax",
        "robustness extension (beyond the paper's trusted-media "
        "prototype): with the CRC32C sidecar on, silent media bitrot "
        "is always detected (zero corrupt payloads delivered), a "
        "background scrub repairs a rotted replica back to "
        "bit-identity, and the verify-on-read tax stays within 5%");

    std::printf("rot-placement seed: %llu\n",
                static_cast<unsigned long long>(chaos_seed()));
    const DetectionResult det = detection_run();
    const RepairResult rep = repair_run();
    const double base = steady_goodput(false);
    const double checked = steady_goodput(true);
    const double tax_ratio = checked / base;

    util::Table table({"scenario", "metric", "value"});
    table.row().add("detection").add("blocks rotted").add(det.seeded);
    table.row()
        .add("detection")
        .add("reads failed w/ checksum error")
        .add(det.detected_reads);
    table.row()
        .add("detection")
        .add("corrupt payloads delivered")
        .add(det.corrupt_delivered);
    table.row().add("detection").add("clean blocks exact").add(
        det.clean_ok);
    table.row().add("repair").add("backend copies rotted").add(rep.seeded);
    table.row().add("repair").add("scrub repairs").add(rep.repairs);
    table.row().add("repair").add("uncorrectable").add(rep.scrub_errors);
    table.row()
        .add("repair")
        .add("bit-identical after scrub")
        .add(rep.bit_identical ? "yes" : "NO");
    table.row().add("overhead").add("baseline goodput MB/s").add(base);
    table.row().add("overhead").add("checksummed goodput MB/s").add(
        checked);
    table.row().add("overhead").add("ratio").add(tax_ratio, 4);
    bench::print_table(table);
    bench::print_event_rate();

    bench::gate(det.corrupt_delivered == 0,
                "zero corrupt payloads delivered");
    bench::gate(det.seeded > 0 && det.detected_reads == det.seeded,
                "every rotted block detected (" +
                    std::to_string(det.detected_reads) + " of " +
                    std::to_string(det.seeded) + ")");
    bench::gate(rep.bit_identical && rep.data_exact && rep.scrub_errors == 0,
                "scrub repairs every rotted copy to bit-identity");
    bench::gate(tax_ratio >= 0.95, "checksum tax ratio >= 0.95");
    return bench::gate_exit("abl_integrity");
}

/**
 * @file
 * dd-style sequential I/O microbenchmark (paper Table II, GNU dd).
 *
 * Reads or writes a byte stream in fixed-size requests, either on a
 * raw block device (through a guest's or the host's I/O stack) or on
 * a file in a guest filesystem. Collects both per-request latency and
 * aggregate bandwidth — the series Figures 9, 10 and 11 plot.
 */
#ifndef NESC_WL_DD_H
#define NESC_WL_DD_H

#include "blocklayer/block_io.h"
#include "fs/nestfs.h"
#include "sim/simulator.h"
#include "util/stats.h"
#include "util/status.h"
#include "virt/guest_vm.h"

namespace nesc::wl {

/** dd parameters. */
struct DdConfig {
    /** Request ("block") size in bytes; dd's bs=. */
    std::uint64_t request_bytes = 4096;
    /** Total bytes to move; dd's bs*count. */
    std::uint64_t total_bytes = 1 << 20;
    /** Byte offset where the stream starts. */
    std::uint64_t start_offset = 0;
    bool write = false;
    /** Seed of the deterministic data pattern written / verified. */
    std::uint64_t pattern_seed = 1;
    /** Verify read data against the pattern (reads only). */
    bool verify = false;
};

/** dd results. */
struct DdResult {
    std::uint64_t requests = 0;
    std::uint64_t bytes = 0;
    sim::Duration elapsed = 0;
    double bandwidth_mb_s = 0.0;
    double mean_latency_us = 0.0;
    double p99_latency_us = 0.0;
};

/**
 * Runs dd on a raw block device through @p io. Sub-block request
 * sizes (512 B on a 1 KiB device) are rounded up to one device block
 * for the transfer but reported at the requested size, mirroring how
 * dd on a real 512B-sector device behaves over a 1 KiB-block store.
 */
util::Result<DdResult> run_dd_raw(sim::Simulator &simulator,
                                  blk::BlockIo &io, const DdConfig &config);

/**
 * Runs dd on a file inside a guest filesystem, charging the guest
 * syscall cost per request (the Figure 11 configuration).
 */
util::Result<DdResult> run_dd_file(sim::Simulator &simulator,
                                   virt::GuestVm &vm, fs::InodeId ino,
                                   const DdConfig &config);

/** Multiplier of the pattern hash (2^64 / golden ratio, odd). */
inline constexpr std::uint64_t kPatternMultiplier = 0x9e3779b97f4a7c15ULL;

/**
 * Deterministic pattern byte for stream position @p pos: the
 * definition fill_pattern() and check_pattern() reproduce.
 */
constexpr std::byte
pattern_byte(std::uint64_t seed, std::uint64_t pos)
{
    const std::uint64_t x = (pos ^ seed) * kPatternMultiplier;
    return static_cast<std::byte>((x >> 32) & 0xff);
}

/**
 * Fills @p buf with the pattern starting at stream position @p pos:
 * buf[i] = pattern_byte(seed, pos + i), the position wrapping at 2^64.
 * On x86-64 it generates 256 positions at a time from tables with
 * SSE2 (see dd.cc); elsewhere it is detail::fill_pattern_portable.
 */
void fill_pattern(std::uint64_t seed, std::uint64_t pos,
                  std::span<std::byte> buf);

/** Verifies @p buf against the pattern; returns first mismatch or -1. */
std::int64_t check_pattern(std::uint64_t seed, std::uint64_t pos,
                           std::span<const std::byte> buf);

namespace detail {

/** fill_pattern() one pattern_byte() at a time. */
void fill_pattern_portable(std::uint64_t seed, std::uint64_t pos,
                           std::span<std::byte> buf);

} // namespace detail

} // namespace nesc::wl

#endif // NESC_WL_DD_H

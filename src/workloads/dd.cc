#include "dd.h"

#include <algorithm>
#include <array>
#include <cstring>
#include <vector>

#if defined(__x86_64__)
#include <emmintrin.h>
#endif

#include "util/units.h"

namespace nesc::wl {

namespace detail {

void
fill_pattern_portable(std::uint64_t seed, std::uint64_t pos,
                      std::span<std::byte> buf)
{
    for (std::size_t i = 0; i < buf.size(); ++i)
        buf[i] = pattern_byte(seed, pos + i);
}

} // namespace detail

namespace {

#if defined(__x86_64__)

/**
 * Tables for one 256-aligned run of positions. For P = pos & ~255 and
 * j = pos & 255, pos ^ seed = B + t with B = (P ^ seed) & ~255 and
 * t = j ^ (seed & 255), so with K = kPatternMultiplier
 *
 *   pattern_byte(seed, pos) = hi8(B*K) + hi8(t*K) + carry   (mod 256)
 *
 * where hi8 is bits 32..39 and carry is set when the low 32 bits of
 * B*K and t*K overflow, i.e. lo32(t*K) >= 2^32 - lo32(B*K). K is odd,
 * so the 256 values lo32(t*K) are distinct: with rank(t) their
 * ascending order, carry is rank(t) >= c, c being how many of them lie
 * below the threshold. One multiply and a look into the threshold's
 * top-byte bucket per run then leave a byte add and a byte compare per
 * position.
 */
struct PatternTables {
    /**
     * hi[v][i] = hi8((i ^ v) * K) and rank[v][i] = rank(i ^ v) ^ 0x80,
     * for the low nibble v of the seed: a run reads 16 positions from
     * one contiguous 16-byte row, the high nibble picking the row. The
     * flipped top bit lets a signed byte compare order the ranks.
     */
    std::array<std::array<std::uint8_t, 256>, 16> hi{};
    std::array<std::array<std::uint8_t, 256>, 16> rank{};
    /**
     * lo32(t * K) for t = 0..255, ascending, then two sentinels above
     * every threshold.
     */
    std::array<std::uint64_t, 258> sorted_lo{};
    /** below[k]: how many lo32(t * K) lie below k * 2^24. */
    std::array<std::uint16_t, 256> below{};
    /** Most lo32(t * K) sharing one top byte. */
    std::uint32_t max_bucket = 0;

    constexpr PatternTables()
    {
        std::array<std::uint32_t, 256> lo{};
        std::array<std::uint8_t, 256> order{};
        for (std::uint32_t t = 0; t < 256; ++t)
            lo[t] = static_cast<std::uint32_t>(t * kPatternMultiplier);
        for (std::uint32_t t = 0; t < 256; ++t) {
            std::uint32_t less = 0;
            for (std::uint32_t u = 0; u < 256; ++u)
                less += lo[u] < lo[t] ? 1 : 0;
            order[t] = static_cast<std::uint8_t>(less);
            sorted_lo[less] = lo[t];
        }
        sorted_lo[256] = sorted_lo[257] = ~std::uint64_t{0};
        for (std::uint32_t k = 0, i = 0; k < 256; ++k) {
            below[k] = static_cast<std::uint16_t>(i);
            const std::uint32_t start = i;
            while (i < 256 && (sorted_lo[i] >> 24) == k)
                ++i;
            max_bucket = std::max(max_bucket, i - start);
        }
        for (std::uint32_t v = 0; v < 16; ++v) {
            for (std::uint32_t i = 0; i < 256; ++i) {
                hi[v][i] = static_cast<std::uint8_t>(pattern_byte(0, i ^ v));
                rank[v][i] = order[i ^ v] ^ 0x80;
            }
        }
    }
};

constexpr PatternTables kPattern{};
// K's low 32 bits spread the 256 values evenly: fill_run reads two.
static_assert(kPattern.max_bucket <= 2);

/**
 * Writes pattern_byte(seed, P + j) for j in [first, first + n), with P
 * 256-aligned and first + n <= 256, to @p out.
 */
void
fill_run(std::uint64_t seed, std::uint64_t run, std::uint32_t first,
         std::uint32_t n, std::byte *out)
{
    const std::uint64_t bk = ((run ^ seed) & ~std::uint64_t{0xff}) *
                             kPatternMultiplier;
    const std::uint64_t threshold =
        (std::uint64_t{1} << 32) - static_cast<std::uint32_t>(bk);
    // c = how many lo32(t * K) lie below threshold: every value below
    // the threshold's top-byte bucket, plus the (at most two) in it.
    // c >= 1, as lo32(0 * K) = 0 is below every threshold, so
    // rank(t) >= c is rank(t) > c - 1 with c - 1 a byte.
    const std::uint32_t below = kPattern.below[(threshold - 1) >> 24];
    const std::uint32_t c = below +
                            (kPattern.sorted_lo[below] < threshold ? 1 : 0) +
                            (kPattern.sorted_lo[below + 1] < threshold ? 1 : 0);
    const auto no_carry_max = static_cast<std::uint8_t>(c - 1);
    const auto base = static_cast<std::uint8_t>(bk >> 32);
    const auto s = static_cast<std::uint32_t>(seed & 0xff);
    const std::array<std::uint8_t, 256> &hi = kPattern.hi[s & 0xf];
    const std::array<std::uint8_t, 256> &rank = kPattern.rank[s & 0xf];
    const std::uint32_t row = s & 0xf0;

    auto scalar = [&](std::uint32_t j) {
        const std::uint32_t i = j ^ row;
        const std::uint32_t carry =
            (rank[i] ^ 0x80u) > no_carry_max ? 1 : 0;
        *out++ = static_cast<std::byte>(base + hi[i] + carry);
    };
    std::uint32_t j = first;
    const std::uint32_t end = first + n;
    for (; j < end && (j & 0xf) != 0; ++j)
        scalar(j);
    // The compare yields 0xff (-1) where rank > c - 1, i.e. on a carry.
    const __m128i vbase = _mm_set1_epi8(static_cast<char>(base));
    const __m128i limit =
        _mm_set1_epi8(static_cast<char>(no_carry_max ^ 0x80));
#pragma GCC unroll 4
    for (; j + 16 <= end; j += 16, out += 16) {
        const std::uint32_t i = j ^ row;
        const __m128i h = _mm_loadu_si128(
            reinterpret_cast<const __m128i *>(hi.data() + i));
        const __m128i r = _mm_loadu_si128(
            reinterpret_cast<const __m128i *>(rank.data() + i));
        const __m128i carry = _mm_cmpgt_epi8(r, limit);
        _mm_storeu_si128(reinterpret_cast<__m128i *>(out),
                         _mm_sub_epi8(_mm_add_epi8(h, vbase), carry));
    }
    for (; j < end; ++j)
        scalar(j);
}

#endif

} // namespace

void
fill_pattern(std::uint64_t seed, std::uint64_t pos,
             std::span<std::byte> buf)
{
#if defined(__x86_64__)
    std::size_t done = 0;
    while (done < buf.size()) {
        const std::uint64_t at = pos + done; // wraps at 2^64
        const auto first = static_cast<std::uint32_t>(at & 0xff);
        const auto n = static_cast<std::uint32_t>(
            std::min<std::size_t>(256 - first, buf.size() - done));
        fill_run(seed, at - first, first, n, buf.data() + done);
        done += n;
    }
#else
    detail::fill_pattern_portable(seed, pos, buf);
#endif
}

std::int64_t
check_pattern(std::uint64_t seed, std::uint64_t pos,
              std::span<const std::byte> buf)
{
    std::array<std::byte, 256> expect{};
    for (std::size_t done = 0; done < buf.size();) {
        const std::size_t n =
            std::min<std::size_t>(expect.size(), buf.size() - done);
        const std::span<std::byte> want(expect.data(), n);
        fill_pattern(seed, pos + done, want);
        const std::span<const std::byte> got = buf.subspan(done, n);
        if (std::memcmp(want.data(), got.data(), n) != 0) {
            const auto bad = std::mismatch(want.begin(), want.end(),
                                           got.begin());
            return static_cast<std::int64_t>(
                done + static_cast<std::size_t>(bad.first - want.begin()));
        }
        done += n;
    }
    return -1;
}

namespace {

DdResult
finalize(std::uint64_t requests, std::uint64_t bytes, sim::Duration elapsed,
         const util::Sampler &latencies)
{
    DdResult result;
    result.requests = requests;
    result.bytes = bytes;
    result.elapsed = elapsed;
    result.bandwidth_mb_s = util::bandwidth_mb_per_sec(bytes, elapsed);
    result.mean_latency_us = latencies.mean() / 1000.0;
    result.p99_latency_us = latencies.percentile(99.0) / 1000.0;
    return result;
}

} // namespace

util::Result<DdResult>
run_dd_raw(sim::Simulator &simulator, blk::BlockIo &io,
           const DdConfig &config)
{
    if (config.request_bytes == 0)
        return util::invalid_argument_error("dd with zero request size");
    const std::uint32_t bs = io.block_size();
    util::Sampler latencies;
    std::uint64_t moved = 0;
    std::uint64_t requests = 0;
    const sim::Time start = simulator.now();

    std::vector<std::byte> buf;
    while (moved < config.total_bytes) {
        const std::uint64_t req =
            std::min<std::uint64_t>(config.request_bytes,
                                    config.total_bytes - moved);
        const std::uint64_t offset = config.start_offset + moved;
        // Raw block devices are accessed at block granularity; dd with
        // a sub-block bs still transfers whole blocks underneath.
        const std::uint64_t first_block = offset / bs;
        const std::uint64_t last_block = (offset + req - 1) / bs;
        const auto count =
            static_cast<std::uint32_t>(last_block - first_block + 1);
        buf.resize(static_cast<std::size_t>(count) * bs);

        const sim::Time op_start = simulator.now();
        if (config.write) {
            fill_pattern(config.pattern_seed, first_block * bs, buf);
            NESC_RETURN_IF_ERROR(io.write_blocks(first_block, count, buf));
        } else {
            NESC_RETURN_IF_ERROR(io.read_blocks(first_block, count, buf));
            if (config.verify) {
                const std::int64_t bad =
                    check_pattern(config.pattern_seed, first_block * bs,
                                  buf);
                if (bad >= 0) {
                    return util::data_loss_error(
                        "dd verify mismatch at stream offset " +
                        std::to_string(first_block * bs + bad));
                }
            }
        }
        latencies.add(
            static_cast<double>(simulator.now() - op_start));
        moved += req;
        ++requests;
    }
    return finalize(requests, moved, simulator.now() - start, latencies);
}

util::Result<DdResult>
run_dd_file(sim::Simulator &simulator, virt::GuestVm &vm, fs::InodeId ino,
            const DdConfig &config)
{
    fs::NestFs *fs = vm.fs();
    if (fs == nullptr)
        return util::failed_precondition_error("guest has no filesystem");
    if (config.request_bytes == 0)
        return util::invalid_argument_error("dd with zero request size");

    util::Sampler latencies;
    std::uint64_t moved = 0;
    std::uint64_t requests = 0;
    const sim::Time start = simulator.now();
    std::vector<std::byte> buf;

    while (moved < config.total_bytes) {
        const std::uint64_t req =
            std::min<std::uint64_t>(config.request_bytes,
                                    config.total_bytes - moved);
        const std::uint64_t offset = config.start_offset + moved;
        buf.resize(req);

        const sim::Time op_start = simulator.now();
        vm.charge_file_syscall();
        if (config.write) {
            fill_pattern(config.pattern_seed, offset, buf);
            NESC_RETURN_IF_ERROR(fs->write(ino, offset, buf));
            // dd conv=fsync per request models the synchronous-write
            // behaviour the latency figures measure.
            NESC_RETURN_IF_ERROR(fs->fsync(ino));
        } else {
            NESC_ASSIGN_OR_RETURN(std::uint64_t got,
                                  fs->read(ino, offset, buf));
            if (got < req)
                std::fill(buf.begin() + static_cast<std::ptrdiff_t>(got),
                          buf.end(), std::byte{0});
            if (config.verify) {
                const std::int64_t bad =
                    check_pattern(config.pattern_seed, offset, buf);
                if (bad >= 0) {
                    return util::data_loss_error(
                        "dd verify mismatch at file offset " +
                        std::to_string(offset + bad));
                }
            }
        }
        latencies.add(static_cast<double>(simulator.now() - op_start));
        moved += req;
        ++requests;
    }
    return finalize(requests, moved, simulator.now() - start, latencies);
}

} // namespace nesc::wl

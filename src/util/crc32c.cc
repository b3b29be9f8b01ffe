#include "util/crc32c.h"

#include <array>
#include <cstring>

#if defined(__x86_64__)
#include <nmmintrin.h>
#endif

namespace nesc::util {

namespace {

constexpr std::uint32_t kPoly = 0x82f63b78u; // reflected 0x1EDC6F41

/** 4 slicing tables, generated at static-init time (constexpr). */
struct Crc32cTables {
    std::array<std::array<std::uint32_t, 256>, 4> t{};

    constexpr Crc32cTables()
    {
        for (std::uint32_t i = 0; i < 256; ++i) {
            std::uint32_t crc = i;
            for (int bit = 0; bit < 8; ++bit)
                crc = (crc & 1) ? (crc >> 1) ^ kPoly : crc >> 1;
            t[0][i] = crc;
        }
        for (std::uint32_t i = 0; i < 256; ++i) {
            std::uint32_t crc = t[0][i];
            for (std::size_t k = 1; k < 4; ++k) {
                crc = (crc >> 8) ^ t[0][crc & 0xff];
                t[k][i] = crc;
            }
        }
    }
};

constexpr Crc32cTables kTables{};

#if defined(__x86_64__)

/**
 * The SSE4.2 CRC32 instruction computes exactly this polynomial with
 * the same reflected bit order, so it returns the table path's value
 * for every input.
 */
__attribute__((target("sse4.2"))) std::uint32_t
crc32c_sse42(std::span<const std::byte> data, std::uint32_t seed)
{
    std::uint64_t crc = ~seed;
    const std::byte *p = data.data();
    std::size_t n = data.size();

    while (n >= 8) {
        std::uint64_t word;
        std::memcpy(&word, p, sizeof(word));
        crc = _mm_crc32_u64(crc, word);
        p += 8;
        n -= 8;
    }
    auto crc32 = static_cast<std::uint32_t>(crc);
    while (n-- > 0)
        crc32 = _mm_crc32_u8(crc32, static_cast<std::uint8_t>(*p++));
    return ~crc32;
}

bool
have_sse42()
{
    // Safe however early the first checksum runs (static init included).
    __builtin_cpu_init();
    return __builtin_cpu_supports("sse4.2");
}

#endif

} // namespace

namespace detail {

std::uint32_t
crc32c_portable(std::span<const std::byte> data, std::uint32_t seed)
{
    std::uint32_t crc = ~seed;
    const std::byte *p = data.data();
    std::size_t n = data.size();

    while (n >= 4) {
        crc ^= static_cast<std::uint32_t>(p[0]) |
               (static_cast<std::uint32_t>(p[1]) << 8) |
               (static_cast<std::uint32_t>(p[2]) << 16) |
               (static_cast<std::uint32_t>(p[3]) << 24);
        crc = kTables.t[3][crc & 0xff] ^ kTables.t[2][(crc >> 8) & 0xff] ^
              kTables.t[1][(crc >> 16) & 0xff] ^ kTables.t[0][crc >> 24];
        p += 4;
        n -= 4;
    }
    while (n-- > 0) {
        crc = (crc >> 8) ^
              kTables.t[0][(crc ^ static_cast<std::uint32_t>(*p++)) & 0xff];
    }
    return ~crc;
}

} // namespace detail

std::uint32_t
crc32c(std::span<const std::byte> data, std::uint32_t seed)
{
#if defined(__x86_64__)
    static const bool hw = have_sse42();
    if (hw)
        return crc32c_sse42(data, seed);
#endif
    return detail::crc32c_portable(data, seed);
}

} // namespace nesc::util

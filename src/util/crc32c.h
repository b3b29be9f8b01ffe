/**
 * @file
 * CRC32C (Castagnoli, polynomial 0x1EDC6F41) — the checksum used by
 * every integrity feature in the tree: the per-pLBA data sidecar
 * (storage::IntegrityMap), extent-tree v2 node trailers, and nestfs
 * metadata block checksums.
 *
 * On x86-64 hosts with SSE4.2 the CRC32 instruction computes it 8
 * bytes at a time; elsewhere a table-driven slicing-by-4 loop does.
 * The path is picked once, at the first call, and both return the same
 * value for every input, so simulated results never depend on the host
 * CPU. The polynomial matches iSCSI/ext4/Btrfs so sidecar images are
 * what real storage stacks would persist.
 */
#ifndef NESC_UTIL_CRC32C_H
#define NESC_UTIL_CRC32C_H

#include <cstddef>
#include <cstdint>
#include <span>

namespace nesc::util {

/**
 * CRC32C of @p data continuing from @p seed (pass the previous return
 * value to checksum discontiguous pieces as one logical stream). The
 * seed/result are the conventional post-inverted form: crc32c(x) of a
 * whole buffer equals crc32c(x, 0).
 */
std::uint32_t crc32c(std::span<const std::byte> data,
                     std::uint32_t seed = 0);

/** Convenience overload for raw pointer + length. */
inline std::uint32_t
crc32c(const void *data, std::size_t size, std::uint32_t seed = 0)
{
    return crc32c(
        std::span<const std::byte>(static_cast<const std::byte *>(data),
                                   size),
        seed);
}

namespace detail {

/**
 * The slicing-by-4 software path crc32c() falls back to without
 * SSE4.2. Exposed so tests can hold the two paths against each other.
 */
std::uint32_t crc32c_portable(std::span<const std::byte> data,
                              std::uint32_t seed = 0);

} // namespace detail

} // namespace nesc::util

#endif // NESC_UTIL_CRC32C_H

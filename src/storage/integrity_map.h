/**
 * @file
 * Per-pLBA CRC32C sidecar — the device-resident checksum store behind
 * the end-to-end integrity path.
 *
 * The sidecar occupies a reserved region at the tail of the physical
 * media, sized at format time: one little-endian uint32 per data block
 * plus a one-block header (magic, version, geometry). The controller
 * records a block's CRC on every media write and verifies it on every
 * media read; a mismatch never reaches the guest — it either heals
 * through the recovery ladder (re-read, then replica repair) or
 * surfaces as a kChecksumError completion.
 *
 * The checksum table is kept in memory (the device would hold it in
 * controller SRAM) and written through to the sidecar region so a
 * remounted volume can load() it back; format() checksums whatever the
 * media already holds, so a volume with pre-existing data (e.g. a
 * freshly formatted nestfs) starts consistent.
 */
#ifndef NESC_STORAGE_INTEGRITY_MAP_H
#define NESC_STORAGE_INTEGRITY_MAP_H

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "storage/block_device.h"
#include "util/status.h"

namespace nesc::storage {

/** On-media sidecar header (block 0 of the reserved region). */
struct IntegrityHeader {
    std::uint64_t magic = 0;
    std::uint32_t version = 0;
    std::uint32_t block_size = 0;
    std::uint64_t data_blocks = 0;
    /** CRC32C of the header with this field zeroed. */
    std::uint32_t header_crc = 0;
    std::uint32_t pad = 0;
};

/** The per-pLBA checksum store; see file comment. */
class IntegrityMap {
  public:
    static constexpr std::uint64_t kMagic = 0x4e455343'43524332ULL;
    static constexpr std::uint32_t kVersion = 1;

    /**
     * Blocks the sidecar reserves at the media tail for @p data_blocks
     * data blocks of @p block_size bytes (header block included).
     */
    static std::uint64_t sidecar_blocks(std::uint64_t data_blocks,
                                        std::uint32_t block_size);

    /**
     * Formats the sidecar over @p device: blocks [0, data_blocks) are
     * data, [data_blocks, data_blocks + sidecar_blocks) become the
     * checksum region. The current contents of every data block are
     * checksummed, so pre-existing data verifies clean.
     */
    static util::Result<std::unique_ptr<IntegrityMap>>
    format(BlockDevice &device, std::uint64_t data_blocks);

    /**
     * Loads a previously formatted sidecar; DATA_LOSS on a bad header
     * (magic/version/geometry mismatch).
     */
    static util::Result<std::unique_ptr<IntegrityMap>>
    load(BlockDevice &device, std::uint64_t data_blocks);

    std::uint64_t data_blocks() const { return data_blocks_; }
    std::uint32_t block_size() const { return block_size_; }
    bool covers(std::uint64_t plba) const { return plba < data_blocks_; }

    /** The recorded CRC of @p plba (0 for uncovered blocks). */
    std::uint32_t expected(std::uint64_t plba) const;

    /**
     * Records the CRC of one data block's new contents and writes the
     * owning sidecar block through to the media. @p data must be
     * exactly one block.
     */
    util::Status record(std::uint64_t plba, std::span<const std::byte> data);

    /**
     * Verifies one block's contents against the recorded CRC. Uncovered
     * blocks verify clean (the sidecar region itself, or media tails
     * the map was not formatted over). Counts the mismatch.
     */
    bool verify(std::uint64_t plba, std::span<const std::byte> data);

    // --- Counters (device-internal telemetry) -----------------------

    std::uint64_t records() const { return records_; }
    std::uint64_t verifies() const { return verifies_; }
    std::uint64_t mismatches() const { return mismatches_; }

  private:
    IntegrityMap(BlockDevice &device, std::uint64_t data_blocks);

    /** CRCs per sidecar table block. */
    std::uint32_t entries_per_block() const
    {
        return block_size_ / sizeof(std::uint32_t);
    }

    /** Writes the sidecar table block holding @p plba's entry. */
    util::Status write_table_block(std::uint64_t plba);

    util::Status write_header();

    BlockDevice &device_;
    std::uint64_t data_blocks_;
    std::uint32_t block_size_;
    std::vector<std::uint32_t> table_;
    /** One sidecar block, reused by every table write-through. */
    std::vector<std::byte> staging_;

    std::uint64_t records_ = 0;
    std::uint64_t verifies_ = 0;
    std::uint64_t mismatches_ = 0;
};

} // namespace nesc::storage

#endif // NESC_STORAGE_INTEGRITY_MAP_H

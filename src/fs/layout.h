/**
 * @file
 * On-disk layout of nestfs.
 *
 * nestfs is the hypervisor-side (and guest-side) filesystem of this
 * reproduction: an extent-based UNIX-style filesystem in the spirit of
 * ext4, providing exactly the services NeSC consumes — extent-granular
 * file mapping (FIEMAP), lazy allocation with holes, permissions, and
 * metadata journaling. The disk is divided into: superblock | block
 * bitmap | inode table | journal | data.
 *
 * All structures are little-endian, trivially copyable, and sized to
 * divide the 1 KiB filesystem block.
 */
#ifndef NESC_FS_LAYOUT_H
#define NESC_FS_LAYOUT_H

#include <cstdint>

#include "util/crc32c.h"

namespace nesc::fs {

/** Filesystem block size; matches the NeSC device granularity. */
inline constexpr std::uint32_t kFsBlockSize = 1024;

inline constexpr std::uint32_t kSuperMagic = 0x4e465331;   // "NFS1"

/**
 * Format versions. Version 2 volumes carry CRC32C self-checksums on
 * the superblock and every allocated inode, verified at mount/load and
 * by fsck. Version 1 volumes have zero in those (formerly slack)
 * fields and are never checksum-verified, so old images mount
 * unchanged.
 */
inline constexpr std::uint32_t kSuperVersionBase = 1;
inline constexpr std::uint32_t kSuperVersionChecksummed = 2;
inline constexpr std::uint32_t kJournalDescMagic = 0x4a4453; // "JDS"
inline constexpr std::uint32_t kJournalCommitMagic = 0x4a434d; // "JCM"

/** Inode numbers; 0 is invalid, 1 is the root directory. */
using InodeId = std::uint32_t;
inline constexpr InodeId kInvalidInode = 0;
inline constexpr InodeId kRootInode = 1;

/** Journal operating modes (paper §IV.D, nested journaling). */
enum class JournalMode : std::uint32_t {
    kNone = 0,     ///< no journal: metadata written in place only
    kMetadata = 1, ///< journal metadata blocks (ext4 data=ordered-ish)
    kData = 2,     ///< journal data too (ext4 data=journal)
};

/** Block 0 of the volume. */
struct SuperBlock {
    std::uint32_t magic;
    std::uint32_t version;
    std::uint32_t block_size;
    std::uint32_t inode_count;
    std::uint64_t total_blocks;
    std::uint64_t bitmap_start;
    std::uint64_t bitmap_blocks;
    std::uint64_t itable_start;
    std::uint64_t itable_blocks;
    std::uint64_t journal_start;
    std::uint64_t journal_blocks;
    std::uint64_t data_start;
    std::uint32_t journal_mode; ///< JournalMode
    std::uint32_t clean_shutdown;
    std::uint64_t next_txn_id;
    std::uint32_t csum; ///< CRC32C of this struct with csum zeroed (v2+)
    std::uint32_t csum_pad;
};

/** One extent mapping file blocks to volume blocks. */
struct DiskExtent {
    std::uint64_t first_vblock; ///< file offset, in fs blocks
    std::uint64_t nblocks;
    std::uint64_t first_pblock; ///< volume block number
};
static_assert(sizeof(DiskExtent) == 24);

/** Extents stored directly in the inode before spilling to chain blocks. */
inline constexpr std::uint32_t kInlineExtents = 8;

/** File types kept in the inode mode field's high bits. */
enum class FileType : std::uint16_t {
    kNone = 0,
    kRegular = 1,
    kDirectory = 2,
};

/** On-disk inode; kInodeSize bytes each, packed into the inode table. */
struct DiskInode {
    std::uint16_t type;  ///< FileType; kNone means free
    std::uint16_t perm;  ///< 0o777-style permission bits
    std::uint16_t uid;
    std::uint16_t gid;
    std::uint32_t nlink;
    std::uint32_t extent_count;    ///< total extents (inline + chained)
    std::uint64_t size_bytes;
    std::uint64_t overflow_block;  ///< first extent-chain block, 0 if none
    std::uint64_t mtime_ns;        ///< simulated time of last change
    DiskExtent extents[kInlineExtents];
    std::uint32_t csum; ///< CRC32C of this struct with csum zeroed (v2+)
    std::uint32_t csum_pad;
};
static_assert(sizeof(DiskInode) <= 256);

/**
 * Self-checksum over a metadata record: the record's bytes with its
 * csum field zeroed. Both SuperBlock and DiskInode are padding-free,
 * so hashing the raw struct bytes is deterministic.
 */
inline std::uint32_t
superblock_crc(SuperBlock sb)
{
    sb.csum = 0;
    return util::crc32c(&sb, sizeof(sb));
}

inline std::uint32_t
inode_crc(DiskInode inode)
{
    inode.csum = 0;
    return util::crc32c(&inode, sizeof(inode));
}

inline constexpr std::uint32_t kInodeSize = 256;
inline constexpr std::uint32_t kInodesPerBlock = kFsBlockSize / kInodeSize;

/** Header of an extent-chain (overflow) block. */
struct ExtentChainHeader {
    std::uint64_t next_block; ///< next chain block, 0 at the tail
    std::uint32_t count;
    std::uint32_t pad;
};
static_assert(sizeof(ExtentChainHeader) == 16);

/** Extents per chain block. */
inline constexpr std::uint32_t kExtentsPerChainBlock =
    (kFsBlockSize - sizeof(ExtentChainHeader)) / sizeof(DiskExtent); // 42

/** Directory entry; directories are regular files of these records. */
struct DirEntryRecord {
    InodeId ino;          ///< kInvalidInode marks an empty slot
    std::uint8_t name_len;
    std::uint8_t file_type; ///< FileType of the target
    std::uint8_t pad[2];
    char name[56];
};
static_assert(sizeof(DirEntryRecord) == 64);

inline constexpr std::uint32_t kMaxNameLen = 55;
inline constexpr std::uint32_t kDirEntriesPerBlock =
    kFsBlockSize / sizeof(DirEntryRecord);

/** Journal transaction descriptor block header. */
struct JournalDescHeader {
    std::uint32_t magic; ///< kJournalDescMagic
    std::uint32_t count; ///< journaled blocks in this transaction
    std::uint64_t txn_id;
    // Followed by `count` uint64 target block numbers.
};

/** Journal commit block. */
struct JournalCommitRecord {
    std::uint32_t magic; ///< kJournalCommitMagic
    std::uint32_t pad;
    std::uint64_t txn_id;
    /// CRC32C chained across the payload blocks in order (torn-write
    /// and reorder guard).
    std::uint64_t checksum;
};

/** Max journaled blocks in one transaction (fits one descriptor block). */
inline constexpr std::uint32_t kMaxTxnBlocks =
    (kFsBlockSize - sizeof(JournalDescHeader)) / sizeof(std::uint64_t);

} // namespace nesc::fs

#endif // NESC_FS_LAYOUT_H

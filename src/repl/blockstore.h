/**
 * @file
 * Journaled per-replica blockstore.
 *
 * Each replication backend wraps its media in a JournaledBlockstore so
 * a crash mid-write never exposes torn state to resync: every write
 * walks a four-state machine —
 *
 *   in-flight  : accepted, nothing durable yet
 *   submitted  : descriptor + payload staged in the journal ring
 *   synced     : commit record durable (the write now survives a crash)
 *   stable     : checkpointed in place, journal space reclaimable
 *
 * The on-media format mirrors `fs/journal.h` (descriptor block with
 * target list, payload blocks, commit record with a CRC32C chained
 * across the payload blocks in order, then in-place checkpoint;
 * transactions never wrap across the ring boundary) but lives at device-block granularity in a reserved region
 * at the *end* of the backing device, so the data region keeps its
 * zero-based addressing. `recover()` replays every committed-but-
 * possibly-torn transaction in ascending txn order and stops at the
 * first torn or stale record — exactly the fs replay contract — which
 * makes a kill-at-every-write sweep over this store converge to
 * all-or-nothing block contents.
 *
 * The timing path charges the honest write amplification: a journaled
 * write books descriptor + payload + commit + checkpoint on the media
 * port in sequence.
 */
#ifndef NESC_REPL_BLOCKSTORE_H
#define NESC_REPL_BLOCKSTORE_H

#include <cstdint>
#include <span>
#include <vector>

#include "sim/time.h"
#include "storage/block_device.h"
#include "util/status.h"

namespace nesc::repl {

/** Journal descriptor-block header ("NescRplD"). */
inline constexpr std::uint64_t kReplDescMagic = 0x4473'6c70'5263'7365;
/** Journal commit-record magic ("NescRplC"). */
inline constexpr std::uint64_t kReplCommitMagic = 0x4373'6c70'5263'7365;

/** On-media descriptor header; target block numbers follow. */
struct ReplDescHeader {
    std::uint64_t magic = 0;
    std::uint32_t count = 0;
    std::uint32_t reserved = 0;
    std::uint64_t txn_id = 0;
};

/** On-media commit record. */
struct ReplCommitRecord {
    std::uint64_t magic = 0;
    std::uint64_t txn_id = 0;
    /** CRC32C chained across the payload blocks in order. */
    std::uint64_t checksum = 0;
};

/** Write-ahead-journaled replica store; see file comment. */
class JournaledBlockstore {
  public:
    /**
     * @param media backing device (not owned). The last
     *   @p journal_blocks device blocks become the journal ring; the
     *   rest is the data region.
     */
    JournaledBlockstore(storage::BlockDevice &media,
                        std::uint64_t journal_blocks);

    std::uint32_t block_size() const { return block_size_; }
    /** Usable data blocks (capacity minus the journal ring). */
    std::uint64_t data_blocks() const { return data_blocks_; }

    /**
     * Journaled write of whole blocks: stages @p data (a multiple of
     * the block size) at data block @p first_block through the
     * descriptor/payload/commit/checkpoint sequence. On return the
     * write is stable.
     */
    util::Status write_blocks(std::uint64_t first_block,
                              std::span<const std::byte> data);

    /** Functional read from the data region. */
    util::Status read_blocks(std::uint64_t first_block,
                             std::span<std::byte> out);

    /**
     * Timing for a journaled write eligible at @p start: chains the
     * descriptor, payload, commit and checkpoint media writes and
     * returns when the checkpoint lands. (Durability — the synced
     * state — is reached one media write earlier; the controller acks
     * on full completion, which is conservative.)
     */
    sim::Time service_write(sim::Time start, std::uint64_t first_block,
                            std::uint64_t bytes);

    /** Timing for a data-region read (straight pass-through). */
    sim::Time service_read(sim::Time start, std::uint64_t first_block,
                           std::uint64_t bytes);

    /**
     * Crash recovery: replays every complete journal transaction in
     * ascending txn order, stopping at the first torn or stale record.
     * Idempotent. Returns the number of transactions replayed.
     */
    util::Result<std::uint64_t> recover();

    /// @name Write state-machine counters (monotonic).
    /// @{
    std::uint64_t writes_started() const { return writes_started_; }
    std::uint64_t writes_submitted() const { return writes_submitted_; }
    std::uint64_t writes_synced() const { return writes_synced_; }
    std::uint64_t writes_stable() const { return writes_stable_; }
    /// @}
    std::uint64_t recoveries() const { return recoveries_; }
    std::uint64_t txns_replayed() const { return txns_replayed_; }

  private:
    /** Absolute byte offset of journal-ring slot @p index (wraps). */
    std::uint64_t ring_offset(std::uint64_t index) const
    {
        return (data_blocks_ + index % journal_blocks_) * block_size_;
    }
    /** Most target block numbers one descriptor block can list. */
    std::uint64_t max_targets() const
    {
        return (block_size_ - sizeof(ReplDescHeader)) /
               sizeof(std::uint64_t);
    }
    util::Status commit_txn(std::uint64_t first_block,
                            std::span<const std::byte> data);

    storage::BlockDevice &media_;
    std::uint32_t block_size_;
    std::uint64_t journal_blocks_;
    std::uint64_t data_blocks_;
    std::uint64_t cursor_ = 0; ///< ring write position (journal-relative)
    std::uint64_t next_txn_id_ = 1;
    /** One block for descriptor and commit records, reused per txn. */
    std::vector<std::byte> staging_;

    std::uint64_t writes_started_ = 0;
    std::uint64_t writes_submitted_ = 0;
    std::uint64_t writes_synced_ = 0;
    std::uint64_t writes_stable_ = 0;
    std::uint64_t recoveries_ = 0;
    std::uint64_t txns_replayed_ = 0;
};

} // namespace nesc::repl

#endif // NESC_REPL_BLOCKSTORE_H

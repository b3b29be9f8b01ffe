#include "blockstore.h"

#include <algorithm>
#include <cstring>
#include <vector>

#include "util/crc32c.h"

namespace nesc::repl {

JournaledBlockstore::JournaledBlockstore(storage::BlockDevice &media,
                                         std::uint64_t journal_blocks)
    : media_(media),
      block_size_(media.geometry().logical_block_size),
      journal_blocks_(journal_blocks), staging_(block_size_)
{
    const std::uint64_t total = media_.geometry().num_blocks();
    // A usable ring needs desc + payload + commit; clamp rather than
    // fail so tiny test devices degrade to a minimal journal.
    journal_blocks_ = std::clamp<std::uint64_t>(
        journal_blocks_, 3, total > 3 ? total - 1 : 3);
    data_blocks_ = total > journal_blocks_ ? total - journal_blocks_ : 0;
}

util::Status
JournaledBlockstore::commit_txn(std::uint64_t first_block,
                                std::span<const std::byte> data)
{
    const std::uint64_t count = data.size() / block_size_;
    const std::uint64_t txn_id = next_txn_id_++;

    // Transactions never wrap across the ring boundary (replay scans
    // from the head and stops at the first non-ascending txn id).
    const std::uint64_t txn_size = count + 2;
    if (cursor_ % journal_blocks_ + txn_size > journal_blocks_)
        cursor_ += journal_blocks_ - cursor_ % journal_blocks_;

    // 1. Descriptor block: header + target block numbers.
    std::span<std::byte> block(staging_);
    std::fill(block.begin(), block.end(), std::byte{0});
    ReplDescHeader header{kReplDescMagic, static_cast<std::uint32_t>(count),
                          0, txn_id};
    std::memcpy(block.data(), &header, sizeof(header));
    for (std::uint64_t i = 0; i < count; ++i) {
        const std::uint64_t target = first_block + i;
        std::memcpy(block.data() + sizeof(header) +
                        i * sizeof(std::uint64_t),
                    &target, sizeof(target));
    }
    NESC_RETURN_IF_ERROR(media_.write(ring_offset(cursor_++), block));
    ++writes_submitted_;

    // 2. Payload blocks, chaining one CRC32C across them in order.
    std::uint32_t checksum = 0;
    for (std::uint64_t i = 0; i < count; ++i) {
        const auto payload = data.subspan(i * block_size_, block_size_);
        checksum = util::crc32c(payload, checksum);
        NESC_RETURN_IF_ERROR(
            media_.write(ring_offset(cursor_++), payload));
    }

    // 3. Commit record: the durability point. A crash before this
    // write rolls the transaction back cleanly at recover().
    std::fill(block.begin(), block.end(), std::byte{0});
    ReplCommitRecord commit{kReplCommitMagic, txn_id, checksum};
    std::memcpy(block.data(), &commit, sizeof(commit));
    NESC_RETURN_IF_ERROR(media_.write(ring_offset(cursor_++), block));
    ++writes_synced_;

    // 4. Checkpoint in place; recover() redoes this if we die here.
    NESC_RETURN_IF_ERROR(media_.write(first_block * block_size_, data));
    ++writes_stable_;
    return util::Status::ok();
}

util::Status
JournaledBlockstore::write_blocks(std::uint64_t first_block,
                                  std::span<const std::byte> data)
{
    if (data.empty() || data.size() % block_size_ != 0)
        return util::invalid_argument_error(
            "blockstore write must be whole blocks");
    const std::uint64_t count = data.size() / block_size_;
    if (first_block + count > data_blocks_)
        return util::out_of_range_error("blockstore write past data region");
    ++writes_started_;

    // Split transactions that exceed the descriptor's target list or
    // the ring capacity (desc + payload + commit must fit).
    const std::uint64_t max_per_txn = std::min<std::uint64_t>(
        max_targets(), journal_blocks_ > 2 ? journal_blocks_ - 2 : 1);
    for (std::uint64_t done = 0; done < count;) {
        const std::uint64_t chunk = std::min(max_per_txn, count - done);
        NESC_RETURN_IF_ERROR(commit_txn(
            first_block + done,
            data.subspan(done * block_size_, chunk * block_size_)));
        done += chunk;
    }
    return util::Status::ok();
}

util::Status
JournaledBlockstore::read_blocks(std::uint64_t first_block,
                                 std::span<std::byte> out)
{
    if (out.empty() || out.size() % block_size_ != 0)
        return util::invalid_argument_error(
            "blockstore read must be whole blocks");
    if (first_block + out.size() / block_size_ > data_blocks_)
        return util::out_of_range_error("blockstore read past data region");
    return media_.read(first_block * block_size_, out);
}

sim::Time
JournaledBlockstore::service_write(sim::Time start,
                                   std::uint64_t first_block,
                                   std::uint64_t bytes)
{
    // Honest amplification: descriptor, payload, commit, checkpoint
    // serialize on the media port.
    const std::uint64_t off = first_block * block_size_;
    sim::Time t = media_.service_write(start, ring_offset(cursor_),
                                       block_size_); // descriptor
    t = media_.service_write(t, ring_offset(cursor_), bytes); // payload
    t = media_.service_write(t, ring_offset(cursor_),
                             block_size_); // commit
    return media_.service_write(t, off, bytes); // checkpoint
}

sim::Time
JournaledBlockstore::service_read(sim::Time start, std::uint64_t first_block,
                                  std::uint64_t bytes)
{
    return media_.service_read(start, first_block * block_size_, bytes);
}

util::Result<std::uint64_t>
JournaledBlockstore::recover()
{
    ++recoveries_;
    std::uint64_t replayed = 0;
    std::uint64_t pos = 0;
    std::uint64_t prev_txn_id = 0;
    std::vector<std::byte> block(block_size_);

    while (pos + 2 < journal_blocks_) {
        NESC_RETURN_IF_ERROR(media_.read(ring_offset(pos), block));
        ReplDescHeader header;
        std::memcpy(&header, block.data(), sizeof(header));
        if (header.magic != kReplDescMagic || header.count == 0 ||
            header.count > max_targets())
            break;
        // Stale transactions from a previous ring pass have lower ids
        // than the fresh ones at the head; stop there.
        if (replayed > 0 && header.txn_id <= prev_txn_id)
            break;
        if (pos + 1 + header.count + 1 > journal_blocks_)
            break; // would wrap past the scan window
        std::vector<std::uint64_t> targets(header.count);
        std::memcpy(targets.data(), block.data() + sizeof(header),
                    header.count * sizeof(std::uint64_t));

        std::vector<std::vector<std::byte>> payload(header.count);
        std::uint32_t checksum = 0;
        for (std::uint32_t i = 0; i < header.count; ++i) {
            payload[i].resize(block_size_);
            NESC_RETURN_IF_ERROR(
                media_.read(ring_offset(pos + 1 + i), payload[i]));
            checksum = util::crc32c(payload[i], checksum);
        }
        NESC_RETURN_IF_ERROR(
            media_.read(ring_offset(pos + 1 + header.count), block));
        ReplCommitRecord commit;
        std::memcpy(&commit, block.data(), sizeof(commit));
        if (commit.magic != kReplCommitMagic ||
            commit.txn_id != header.txn_id || commit.checksum != checksum)
            break; // torn transaction: crash hit before the commit

        // Redo the checkpoint; harmless when it already landed.
        for (std::uint32_t i = 0; i < header.count; ++i) {
            if (targets[i] >= data_blocks_)
                return util::data_loss_error(
                    "journal target outside data region");
            NESC_RETURN_IF_ERROR(
                media_.write(targets[i] * block_size_, payload[i]));
        }
        ++replayed;
        prev_txn_id = header.txn_id;
        next_txn_id_ = std::max(next_txn_id_, header.txn_id + 1);
        pos += 2 + header.count;
    }
    cursor_ = pos;
    txns_replayed_ += replayed;
    return replayed;
}

} // namespace nesc::repl

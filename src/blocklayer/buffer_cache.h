/**
 * @file
 * Block buffer cache (the OS "page cache" of Figure 1).
 *
 * An LRU write-back (or write-through) cache of device blocks layered
 * over a BlockIo. The guest and hypervisor each instantiate one, which
 * is exactly the replication the paper's nested-filesystem discussion
 * targets; benches that measure raw device behaviour bypass it, like
 * O_DIRECT does.
 *
 * Dirty blocks are indexed: dirty_ holds exactly the LRU entries whose
 * data the base device has not seen, and each such entry records its
 * position in dirty_ (clean entries hold kClean). An entry joins the
 * index when it turns dirty (a write-back insert or a write hit on a
 * clean block) and leaves it, by swap-remove, only once its data has
 * been written downstream (eviction write-back or flush). flush()
 * therefore costs O(d log d) in the d dirty blocks, not O(capacity),
 * and reuses member staging, so it does not allocate in steady state.
 */
#ifndef NESC_BLOCKLAYER_BUFFER_CACHE_H
#define NESC_BLOCKLAYER_BUFFER_CACHE_H

#include <cstddef>
#include <cstdint>
#include <limits>
#include <list>
#include <unordered_map>
#include <vector>

#include "blocklayer/block_io.h"
#include "sim/simulator.h"

namespace nesc::blk {

/** Cache policy knobs. */
struct BufferCacheConfig {
    /** Cached blocks; 128 MiB of 1 KiB blocks in the paper's guests. */
    std::uint64_t capacity_blocks = 4096;
    /** Write-through forwards every write immediately. */
    bool write_through = false;
    /** CPU cost of a cache hit (lookup + copy), charged per block. */
    sim::Duration hit_cost = 250;
    /** CPU cost of handling a miss, excluding the downstream access. */
    sim::Duration miss_cost = 400;
};

/** LRU block cache; see file comment. */
class BufferCache : public BlockIo {
  public:
    BufferCache(sim::Simulator &simulator, BlockIo &base,
                const BufferCacheConfig &config = {});

    std::uint32_t block_size() const override { return base_.block_size(); }
    std::uint64_t num_blocks() const override { return base_.num_blocks(); }

    util::Status read_blocks(std::uint64_t blockno, std::uint32_t count,
                             std::span<std::byte> out) override;
    util::Status write_blocks(std::uint64_t blockno, std::uint32_t count,
                              std::span<const std::byte> in) override;

    /** Writes back all dirty blocks in block order, one downstream
     * write per run of adjacent blocks, then forwards the flush. A run
     * whose write fails stays dirty for the next flush. */
    util::Status flush() override;

    /** Drops every clean block; fails if dirty blocks remain. */
    util::Status invalidate();

    std::uint64_t hits() const { return hits_; }
    std::uint64_t misses() const { return misses_; }
    std::uint64_t evictions() const { return evictions_; }
    std::uint64_t writebacks() const { return writebacks_; }
    std::uint64_t cached_blocks() const { return map_.size(); }
    std::uint64_t dirty_blocks() const { return dirty_.size(); }

  private:
    static constexpr std::size_t kClean =
        std::numeric_limits<std::size_t>::max();

    struct Entry {
        std::uint64_t blockno;
        /** Position in dirty_, or kClean. */
        std::size_t dirty_slot;
        std::vector<std::byte> data;
    };
    using LruList = std::list<Entry>;

    /** Moves @p it to MRU position. */
    void touch(LruList::iterator it);
    /** Adds a clean entry to the dirty index. */
    void mark_dirty(LruList::iterator it);
    /** Drops a dirty entry from the dirty index. */
    void mark_clean(Entry &entry);
    /** Inserts a block, evicting as needed; returns its entry. */
    util::Result<LruList::iterator> insert(std::uint64_t blockno,
                                           std::span<const std::byte> data,
                                           bool dirty);
    util::Status evict_one();
    util::Status writeback_entry(Entry &entry);

    sim::Simulator &simulator_;
    BlockIo &base_;
    BufferCacheConfig config_;
    LruList lru_; ///< front = MRU
    std::unordered_map<std::uint64_t, LruList::iterator> map_;
    /** The dirty entries, in no particular order; see file comment. */
    std::vector<LruList::iterator> dirty_;
    /** flush() staging: dirty_ sorted by block, and one run's data. */
    std::vector<LruList::iterator> flush_order_;
    std::vector<std::byte> run_buf_;
    std::uint64_t hits_ = 0;
    std::uint64_t misses_ = 0;
    std::uint64_t evictions_ = 0;
    std::uint64_t writebacks_ = 0;
};

} // namespace nesc::blk

#endif // NESC_BLOCKLAYER_BUFFER_CACHE_H

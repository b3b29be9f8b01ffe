#include "buffer_cache.h"

#include <algorithm>

namespace nesc::blk {

BufferCache::BufferCache(sim::Simulator &simulator, BlockIo &base,
                         const BufferCacheConfig &config)
    : simulator_(simulator), base_(base), config_(config)
{
}

void
BufferCache::touch(LruList::iterator it)
{
    lru_.splice(lru_.begin(), lru_, it);
}

void
BufferCache::mark_dirty(LruList::iterator it)
{
    it->dirty_slot = dirty_.size();
    dirty_.push_back(it);
}

void
BufferCache::mark_clean(Entry &entry)
{
    const LruList::iterator last = dirty_.back();
    last->dirty_slot = entry.dirty_slot;
    dirty_[entry.dirty_slot] = last;
    dirty_.pop_back();
    entry.dirty_slot = kClean;
}

util::Status
BufferCache::writeback_entry(Entry &entry)
{
    NESC_RETURN_IF_ERROR(base_.write_blocks(entry.blockno, 1, entry.data));
    mark_clean(entry);
    ++writebacks_;
    return util::Status::ok();
}

util::Status
BufferCache::evict_one()
{
    if (lru_.empty())
        return util::internal_error("evicting from an empty cache");
    auto victim = std::prev(lru_.end());
    if (victim->dirty_slot != kClean)
        NESC_RETURN_IF_ERROR(writeback_entry(*victim));
    map_.erase(victim->blockno);
    lru_.erase(victim);
    ++evictions_;
    return util::Status::ok();
}

util::Result<BufferCache::LruList::iterator>
BufferCache::insert(std::uint64_t blockno, std::span<const std::byte> data,
                    bool dirty)
{
    while (map_.size() >= config_.capacity_blocks)
        NESC_RETURN_IF_ERROR(evict_one());
    lru_.push_front(Entry{blockno, kClean,
                          std::vector<std::byte>(data.begin(), data.end())});
    map_[blockno] = lru_.begin();
    if (dirty)
        mark_dirty(lru_.begin());
    return lru_.begin();
}

util::Status
BufferCache::read_blocks(std::uint64_t blockno, std::uint32_t count,
                         std::span<std::byte> out)
{
    const std::uint32_t bs = block_size();
    if (out.size() != static_cast<std::uint64_t>(count) * bs)
        return util::invalid_argument_error("read buffer size mismatch");

    std::uint32_t i = 0;
    while (i < count) {
        auto it = map_.find(blockno + i);
        if (it != map_.end()) {
            simulator_.advance(config_.hit_cost);
            ++hits_;
            touch(it->second);
            std::copy(it->second->data.begin(), it->second->data.end(),
                      out.begin() + static_cast<std::size_t>(i) * bs);
            ++i;
            continue;
        }
        // Gather the contiguous run of misses and fetch it in one
        // downstream access (readahead-style clustering).
        std::uint32_t run = 1;
        while (i + run < count && !map_.contains(blockno + i + run))
            ++run;
        simulator_.advance(config_.miss_cost);
        misses_ += run;
        auto dst = out.subspan(static_cast<std::size_t>(i) * bs,
                               static_cast<std::size_t>(run) * bs);
        NESC_RETURN_IF_ERROR(base_.read_blocks(blockno + i, run, dst));
        for (std::uint32_t j = 0; j < run; ++j) {
            NESC_RETURN_IF_ERROR(
                insert(blockno + i + j,
                       dst.subspan(static_cast<std::size_t>(j) * bs, bs),
                       /*dirty=*/false)
                    .status());
        }
        i += run;
    }
    return util::Status::ok();
}

util::Status
BufferCache::write_blocks(std::uint64_t blockno, std::uint32_t count,
                          std::span<const std::byte> in)
{
    const std::uint32_t bs = block_size();
    if (in.size() != static_cast<std::uint64_t>(count) * bs)
        return util::invalid_argument_error("write buffer size mismatch");

    for (std::uint32_t i = 0; i < count; ++i) {
        auto src = in.subspan(static_cast<std::size_t>(i) * bs, bs);
        auto it = map_.find(blockno + i);
        if (it != map_.end()) {
            simulator_.advance(config_.hit_cost);
            ++hits_;
            touch(it->second);
            std::copy(src.begin(), src.end(), it->second->data.begin());
            if (it->second->dirty_slot == kClean && !config_.write_through)
                mark_dirty(it->second);
        } else {
            simulator_.advance(config_.miss_cost);
            ++misses_;
            NESC_RETURN_IF_ERROR(
                insert(blockno + i, src, !config_.write_through).status());
        }
    }
    if (config_.write_through)
        NESC_RETURN_IF_ERROR(base_.write_blocks(blockno, count, in));
    return util::Status::ok();
}

util::Status
BufferCache::flush()
{
    // Sorted by block so adjacent runs merge into single downstream
    // writes; a copy, because a run leaves dirty_ once written.
    flush_order_.assign(dirty_.begin(), dirty_.end());
    std::sort(flush_order_.begin(), flush_order_.end(),
              [](auto a, auto b) { return a->blockno < b->blockno; });

    const std::uint32_t bs = block_size();
    std::size_t i = 0;
    while (i < flush_order_.size()) {
        const std::uint64_t first = flush_order_[i]->blockno;
        std::size_t run = 1;
        while (i + run < flush_order_.size() &&
               flush_order_[i + run]->blockno == first + run)
            ++run;
        if (run_buf_.size() < run * bs)
            run_buf_.resize(run * bs);
        for (std::size_t j = 0; j < run; ++j) {
            std::copy(flush_order_[i + j]->data.begin(),
                      flush_order_[i + j]->data.end(),
                      run_buf_.begin() + j * bs);
        }
        NESC_RETURN_IF_ERROR(
            base_.write_blocks(first, static_cast<std::uint32_t>(run),
                               std::span(run_buf_).first(run * bs)));
        for (std::size_t j = 0; j < run; ++j) {
            mark_clean(*flush_order_[i + j]);
            ++writebacks_;
        }
        i += run;
    }
    return base_.flush();
}

util::Status
BufferCache::invalidate()
{
    if (!dirty_.empty()) {
        return util::failed_precondition_error(
            "invalidate with dirty blocks cached; flush first");
    }
    lru_.clear();
    map_.clear();
    return util::Status::ok();
}

} // namespace nesc::blk

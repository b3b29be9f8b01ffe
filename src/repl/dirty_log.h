/**
 * @file
 * Dirty-extent log for replica resynchronization.
 *
 * Every replicated write is logged against each target backend when it
 * is submitted and cleared when that backend acknowledges it durable.
 * A healthy backend's log therefore holds only its in-flight window;
 * the log of a crashed or demoted backend keeps accumulating — it is
 * exactly the set of blocks that backend may have missed, and the
 * background resync engine drains it range by range. Tracking from
 * submission (not from the failure) means a backend that dies with
 * writes in flight needs no guesswork about which of them landed:
 * anything unacknowledged is re-copied.
 *
 * Ranges are kept merged and disjoint, so the log is O(fragments), not
 * O(blocks), and resync batches walk it in address order. They sit in
 * one sorted vector: a healthy backend's log is a handful of in-flight
 * ranges, so marking and clearing them reuses the vector's storage
 * instead of allocating a tree node per write.
 */
#ifndef NESC_REPL_DIRTY_LOG_H
#define NESC_REPL_DIRTY_LOG_H

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <optional>
#include <vector>

namespace nesc::repl {

/** Merged, disjoint set of dirty block ranges; see file comment. */
class DirtyLog {
  public:
    /** One dirty range: first block and block count. */
    struct Range {
        std::uint64_t first = 0;
        std::uint64_t count = 0;
    };

    /** Marks [first, first + count) dirty (merging neighbours). */
    void
    add(std::uint64_t first, std::uint64_t count)
    {
        if (count == 0)
            return;
        std::uint64_t lo = first;
        std::uint64_t hi = first + count;
        // Absorb every range that overlaps or abuts [lo, hi).
        auto it = after(ranges_, lo);
        if (it != ranges_.begin() && end_of(*std::prev(it)) >= lo)
            --it;
        auto last = it;
        for (; last != ranges_.end() && last->first <= hi; ++last) {
            lo = std::min(lo, last->first);
            hi = std::max(hi, end_of(*last));
            total_ -= last->count;
        }
        total_ += hi - lo;
        if (it == last) {
            ranges_.insert(it, Range{lo, hi - lo});
            return;
        }
        *it = Range{lo, hi - lo};
        ranges_.erase(std::next(it), last);
    }

    /** Clears [first, first + count); splits ranges as needed. */
    void
    remove(std::uint64_t first, std::uint64_t count)
    {
        if (count == 0)
            return;
        const std::uint64_t lo = first;
        const std::uint64_t hi = first + count;
        auto it = std::lower_bound(
            ranges_.begin(), ranges_.end(), lo,
            [](const Range &r, std::uint64_t v) { return r.first < v; });
        if (it != ranges_.begin() && end_of(*std::prev(it)) > lo)
            --it;
        auto last = it;
        for (; last != ranges_.end() && last->first < hi; ++last)
            total_ -= last->count;
        if (it == last)
            return;
        // Only the first and last overlapped ranges can leave a piece
        // outside [lo, hi).
        const Range head{it->first, lo > it->first ? lo - it->first : 0};
        const std::uint64_t tail_end = end_of(*std::prev(last));
        const Range tail{hi, tail_end > hi ? tail_end - hi : 0};
        total_ += head.count + tail.count;
        auto out = it;
        if (head.count > 0)
            *out++ = head;
        if (tail.count > 0) {
            if (out == last) {
                // One range split in two: the tail needs a new slot.
                ranges_.insert(last, tail);
                return;
            }
            *out++ = tail;
        }
        ranges_.erase(out, last);
    }

    /** True when [first, first + count) is fully dirty. */
    bool
    covers(std::uint64_t first, std::uint64_t count) const
    {
        if (count == 0)
            return true;
        auto it = after(ranges_, first);
        if (it == ranges_.begin())
            return false;
        --it;
        return end_of(*it) >= first + count;
    }

    /** True when any block of [first, first + count) is dirty. */
    bool
    intersects(std::uint64_t first, std::uint64_t count) const
    {
        if (count == 0)
            return false;
        auto it = after(ranges_, first);
        if (it != ranges_.end() && it->first < first + count)
            return true;
        if (it == ranges_.begin())
            return false;
        return end_of(*std::prev(it)) > first;
    }

    /**
     * Lowest-addressed dirty range, clipped to @p max_blocks; empty
     * optional when the log is clean.
     */
    std::optional<Range>
    first(std::uint64_t max_blocks) const
    {
        if (ranges_.empty() || max_blocks == 0)
            return std::nullopt;
        const Range &r = ranges_.front();
        return Range{r.first, std::min(r.count, max_blocks)};
    }

    bool empty() const { return ranges_.empty(); }
    /** Total dirty blocks across all ranges. */
    std::uint64_t total_blocks() const { return total_; }
    /** Number of disjoint ranges (fragmentation metric). */
    std::size_t range_count() const { return ranges_.size(); }

    /** Empties the log; its storage is kept for reuse. */
    void
    clear()
    {
        ranges_.clear();
        total_ = 0;
    }

  private:
    static std::uint64_t end_of(const Range &r) { return r.first + r.count; }

    /** First range of @p ranges starting strictly after @p block. */
    template <typename Ranges>
    static auto
    after(Ranges &ranges, std::uint64_t block) -> decltype(ranges.begin())
    {
        return std::upper_bound(
            ranges.begin(), ranges.end(), block,
            [](std::uint64_t v, const Range &r) { return v < r.first; });
    }

    /** Sorted by first block; disjoint and never abutting. */
    std::vector<Range> ranges_;
    std::uint64_t total_ = 0;
};

} // namespace nesc::repl

#endif // NESC_REPL_DIRTY_LOG_H

/**
 * @file
 * The simulator's pending-event heap.
 *
 * EventHeap holds every pending event as a 24-byte key — timestamp,
 * scheduling sequence number, and a slot index pointing at the
 * callback stored in the Simulator's pool. Keeping the callback out
 * of the heap is what makes the simulator hot path cheap: a sift
 * moves three words instead of relocating a 208-byte sim::Callback at
 * every level (the seed profile showed ~7 relocations per event).
 *
 * Ordering is (when, seq): seq is unique and increases in scheduling
 * order, so equal-time events pop FIFO — the determinism contract the
 * golden-figure tests enforce.
 */
#ifndef NESC_SIM_EVENT_HEAP_H
#define NESC_SIM_EVENT_HEAP_H

#include <cstddef>
#include <cstdint>
#include <vector>

#include "sim/time.h"

namespace nesc::sim {

/** Heap key of one scheduled event; the callback lives in a slot. */
struct EventKey {
    Time when;
    std::uint64_t seq;  ///< scheduling order, unique
    std::uint32_t slot; ///< callback slot in the Simulator's pool

    /** Execution order: earliest time first, FIFO within a time. */
    bool
    before(const EventKey &other) const
    {
        if (when != other.when)
            return when < other.when;
        return seq < other.seq;
    }
};

/** Binary min-heap of EventKeys on (when, seq). */
class EventHeap {
  public:
    bool empty() const { return keys_.empty(); }
    std::size_t size() const { return keys_.size(); }
    void reserve(std::size_t events) { keys_.reserve(events); }

    /** The earliest pending key. Undefined when empty. */
    const EventKey &top() const { return keys_.front(); }

    /** Inserts @p key. */
    void
    push(const EventKey &key)
    {
        std::size_t i = keys_.size();
        keys_.push_back(key);
        while (i > 0) {
            const std::size_t parent = (i - 1) / 2;
            if (!key.before(keys_[parent]))
                break;
            keys_[i] = keys_[parent];
            i = parent;
        }
        keys_[i] = key;
    }

    /** Removes and returns the earliest key. Undefined when empty. */
    EventKey
    pop()
    {
        const EventKey min = keys_.front();
        const EventKey last = keys_.back();
        keys_.pop_back();
        if (!keys_.empty()) {
            // Sift the former last element down from the root.
            std::size_t i = 0;
            const std::size_t n = keys_.size();
            for (;;) {
                std::size_t child = 2 * i + 1;
                if (child >= n)
                    break;
                if (child + 1 < n && keys_[child + 1].before(keys_[child]))
                    ++child;
                if (!keys_[child].before(last))
                    break;
                keys_[i] = keys_[child];
                i = child;
            }
            keys_[i] = last;
        }
        return min;
    }

  private:
    std::vector<EventKey> keys_;
};

} // namespace nesc::sim

#endif // NESC_SIM_EVENT_HEAP_H

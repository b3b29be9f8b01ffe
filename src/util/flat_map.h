/**
 * @file
 * Open-addressed hash map for hot-path u64-keyed lookaside tables.
 *
 * The controller and driver key transient per-command state by tag or
 * request id; `std::unordered_map` costs a node allocation per insert
 * and a free per erase, which on the command hot path is two
 * malloc/free pairs per I/O forever. FlatMap stores slots inline in
 * one array (linear probing, tombstone deletion), so steady-state
 * insert/erase churn never touches the allocator once the table has
 * grown to the in-flight high-water mark (a tombstone purge rehashes
 * into a kept spare array). Iteration order is the slot
 * order of a deterministic hash — stable across runs, but unlike any
 * node-map order; the few order-sensitive walkers collect and sort
 * keys first (they already had to under `std::unordered_map`).
 */
#ifndef NESC_UTIL_FLAT_MAP_H
#define NESC_UTIL_FLAT_MAP_H

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace nesc::util {

/** Open-addressed `u64 -> V` map with inline slots; see file doc. */
template <typename V>
class FlatMap {
    enum class State : std::uint8_t { kEmpty, kFull, kTomb };

    struct Slot {
        std::pair<std::uint64_t, V> kv{};
        State state = State::kEmpty;
    };

  public:
    /** Forward iterator over occupied slots. */
    template <typename SlotPtr>
    class Iter {
      public:
        Iter() = default;
        Iter(SlotPtr slot, SlotPtr end) : slot_(slot), end_(end)
        {
            skip();
        }

        auto &operator*() const { return slot_->kv; }
        auto *operator->() const { return &slot_->kv; }
        Iter &
        operator++()
        {
            ++slot_;
            skip();
            return *this;
        }
        friend bool operator==(const Iter &a, const Iter &b)
        {
            return a.slot_ == b.slot_;
        }
        friend bool operator!=(const Iter &a, const Iter &b)
        {
            return a.slot_ != b.slot_;
        }
        SlotPtr raw() const { return slot_; }

      private:
        void
        skip()
        {
            while (slot_ != end_ && slot_->state != State::kFull)
                ++slot_;
        }
        SlotPtr slot_ = nullptr;
        SlotPtr end_ = nullptr;
    };

    using iterator = Iter<Slot *>;
    using const_iterator = Iter<const Slot *>;

    bool empty() const { return size_ == 0; }
    std::size_t size() const { return size_; }

    iterator begin() { return {slots_.data(), slots_end()}; }
    iterator end() { return {slots_end(), slots_end()}; }
    const_iterator begin() const
    {
        return {slots_.data(), slots_end()};
    }
    const_iterator end() const { return {slots_end(), slots_end()}; }

    iterator
    find(std::uint64_t key)
    {
        Slot *slot = locate(key);
        return slot ? iterator{slot, slots_end()} : end();
    }
    const_iterator
    find(std::uint64_t key) const
    {
        const Slot *slot = const_cast<FlatMap *>(this)->locate(key);
        return slot ? const_iterator{slot, slots_end()} : end();
    }

    V &
    at(std::uint64_t key)
    {
        Slot *slot = locate(key);
        assert(slot != nullptr);
        return slot->kv.second;
    }
    const V &
    at(std::uint64_t key) const
    {
        return const_cast<FlatMap *>(this)->at(key);
    }

    template <typename... A>
    std::pair<iterator, bool>
    try_emplace(std::uint64_t key, A &&...args)
    {
        grow_if_needed();
        auto [slot, fresh] = probe(key);
        if (fresh) {
            slot->kv.first = key;
            slot->kv.second = V(std::forward<A>(args)...);
            slot->state = State::kFull;
            ++size_;
        }
        return {iterator{slot, slots_end()}, fresh};
    }

    V &
    operator[](std::uint64_t key)
    {
        return try_emplace(key).first->second;
    }

    std::size_t
    erase(std::uint64_t key)
    {
        Slot *slot = locate(key);
        if (slot == nullptr)
            return 0;
        kill(slot);
        return 1;
    }
    void
    erase(iterator it)
    {
        assert(it != end());
        kill(it.raw());
    }
    /** `std::unordered_map` pair-iterator compatibility shim. */
    void
    erase(const_iterator it)
    {
        assert(it != end());
        kill(const_cast<Slot *>(it.raw()));
    }

    void
    clear()
    {
        for (Slot &slot : slots_)
            slot = Slot{};
        size_ = 0;
        tombstones_ = 0;
    }

  private:
    static std::uint64_t
    mix(std::uint64_t key)
    {
        // Fibonacci multiplicative hash: cheap, and spreads the
        // sequential tags/ids the drivers hand out.
        return key * 0x9E3779B97F4A7C15ull;
    }

    std::size_t mask() const { return slots_.size() - 1; }
    Slot *slots_end() { return slots_.data() + slots_.size(); }
    const Slot *slots_end() const
    {
        return slots_.data() + slots_.size();
    }

    /** Occupied slot for @p key, or nullptr. */
    Slot *
    locate(std::uint64_t key)
    {
        if (slots_.empty())
            return nullptr;
        std::size_t i = (mix(key) >> 32) & mask();
        for (;;) {
            Slot &slot = slots_[i];
            if (slot.state == State::kEmpty)
                return nullptr;
            if (slot.state == State::kFull && slot.kv.first == key)
                return &slot;
            i = (i + 1) & mask();
        }
    }

    /** Slot for @p key: {existing, false} or {insertable, true}. */
    std::pair<Slot *, bool>
    probe(std::uint64_t key)
    {
        std::size_t i = (mix(key) >> 32) & mask();
        Slot *grave = nullptr;
        for (;;) {
            Slot &slot = slots_[i];
            if (slot.state == State::kEmpty) {
                if (grave != nullptr) {
                    --tombstones_;
                    return {grave, true};
                }
                return {&slot, true};
            }
            if (slot.state == State::kTomb) {
                if (grave == nullptr)
                    grave = &slot;
            } else if (slot.kv.first == key) {
                return {&slot, false};
            }
            i = (i + 1) & mask();
        }
    }

    void
    kill(Slot *slot)
    {
        assert(slot->state == State::kFull);
        slot->kv.first = 0;
        slot->kv.second = V{};
        slot->state = State::kTomb;
        --size_;
        ++tombstones_;
    }

    void
    grow_if_needed()
    {
        // Rehash at 3/4 load (live + tombstones) so probes stay short.
        if (!slots_.empty() &&
            (size_ + tombstones_ + 1) * 4 <= slots_.size() * 3)
            return;
        const std::size_t cap =
            slots_.empty() ? 16
                           : (size_ * 2 >= slots_.size()
                                  ? slots_.size() * 2
                                  : slots_.size()); // tombstone purge
        // Rehash into the spare array, then keep the old one as the next
        // spare: steady-state churn purges tombstones without allocating.
        std::vector<Slot> old = std::exchange(slots_, std::move(spare_));
        slots_.assign(cap, Slot{});
        size_ = 0;
        tombstones_ = 0;
        for (Slot &slot : old) {
            if (slot.state != State::kFull)
                continue;
            auto [dst, fresh] = probe(slot.kv.first);
            assert(fresh);
            dst->kv.first = slot.kv.first;
            dst->kv.second = std::move(slot.kv.second);
            dst->state = State::kFull;
            ++size_;
        }
        spare_ = std::move(old);
    }

    std::vector<Slot> slots_;
    std::vector<Slot> spare_; ///< last purge's source; reused by the next
    std::size_t size_ = 0;
    std::size_t tombstones_ = 0;
};

} // namespace nesc::util

#endif // NESC_UTIL_FLAT_MAP_H

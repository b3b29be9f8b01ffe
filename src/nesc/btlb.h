/**
 * @file
 * Block Translation Lookaside Buffer (paper §V.B).
 *
 * A small cache of the most recent extents used in translation, tagged
 * by function so one VF can never consume another VF's mapping. Two
 * organisations are supported:
 *
 *  - **Fully associative, FIFO replacement** (the paper's prototype:
 *    8 entries, "evicting the oldest entry"). The modelled CAM compares
 *    every tag at once; probes() charges what a linear scan in
 *    insertion order would compare (the hit's 1-based FIFO position,
 *    or every live entry on a miss). The host does not scan: entries
 *    live in a fixed ring in FIFO order, each linked into its
 *    function's chain, so lookup and insert visit only that function's
 *    entries, and a Fenwick tree over the ring's live slots gives the
 *    hit's FIFO position in O(log capacity).
 *
 *  - **Set associative, pseudo-LRU replacement** (the scaled fast
 *    path). The cache is sets x ways; the set index is derived from
 *    the function id and the vLBA's *range granule* (vlba >>
 *    range_shift), so a lookup probes exactly one set — O(ways) =
 *    O(1) regardless of capacity. Because entries are variable-length
 *    extents, an extent spanning several granules is only guaranteed
 *    to hit in the granule it was inserted under; neighbouring
 *    granules re-walk and insert their own copy. Replacement is
 *    tree-pLRU per set.
 *
 * Both modes reject an insert equal to a cached entry, and replace
 * (rather than shadow) cached entries of the same function that
 * overlap the new extent without being equal — the fresh walk is
 * authoritative, and keeping both would make hits depend
 * nondeterministically on insertion order.
 *
 * Geometry is bounded as hardware would bound it: at most kMaxEntries
 * entries in either mode and at most kMaxWays ways per set (one set's
 * pLRU tree lives in one 64-bit word).
 */
#ifndef NESC_CTRL_BTLB_H
#define NESC_CTRL_BTLB_H

#include <algorithm>
#include <bit>
#include <cstdint>
#include <optional>
#include <vector>

#include "extent/types.h"
#include "pcie/bdf.h"

namespace nesc::ctrl {

/** Geometry of the BTLB. */
struct BtlbConfig {
    /**
     * Total capacity; 0 disables the cache entirely. In
     * set-associative mode the effective capacity is sets x ways after
     * normalisation (both rounded down to powers of two).
     */
    std::uint32_t entries = 8;
    /** Number of sets; <= 1 selects the fully-associative paper mode. */
    std::uint32_t sets = 0;
    /** log2 of the set-index granule in blocks (range tag width). */
    std::uint32_t range_shift = 6;
};

/** Function-tagged extent cache; see file comment for the two modes. */
class Btlb {
  public:
    /** Largest capacity configure() applies, in either mode. */
    static constexpr std::uint32_t kMaxEntries = 65536;
    /** Largest set-associative way count (pLRU bits fit a word). */
    static constexpr std::uint32_t kMaxWays = 64;
    /** Largest range-granule shift (a shift of a 64-bit vLBA). */
    static constexpr std::uint32_t kMaxRangeShift = 63;

    /** Paper mode: fully associative with @p entries slots. */
    explicit Btlb(std::uint32_t entries)
        : Btlb(BtlbConfig{entries, 0, 6})
    {
    }

    explicit Btlb(const BtlbConfig &config) { configure(config); }

    /**
     * Reconfigures the geometry (clamping it to kMaxEntries, kMaxWays
     * and kMaxRangeShift, and normalising sets and ways to powers of
     * two) and flushes every entry. Statistics persist.
     */
    void
    configure(const BtlbConfig &config)
    {
        config_ = config;
        config_.entries = std::min(config.entries, kMaxEntries);
        config_.range_shift = std::min(config.range_shift, kMaxRangeShift);
        fully_associative_ = config.sets <= 1 || config_.entries == 0;
        if (fully_associative_) {
            // The paper's mode.
            sets_ = 1;
            ways_per_set_ = config_.entries;
        } else {
            sets_ = std::bit_floor(std::min(config.sets, kMaxEntries));
            ways_per_set_ = std::clamp<std::uint32_t>(
                std::bit_floor(config_.entries / sets_), 1, kMaxWays);
        }
        capacity_ = sets_ * ways_per_set_;
        // Each mode's storage is empty in the other mode.
        const std::size_t ring =
            fully_associative_ ? 2 * static_cast<std::size_t>(capacity_) : 0;
        ring_.assign(ring, Slot{});
        live_tree_.assign(ring + 1, 0);
        flush_ring();
        ways_.assign(fully_associative_ ? 0 : capacity_, Way{});
        plru_.assign(fully_associative_ ? 0 : sets_, 0);
    }

    /**
     * Looks up @p vlba for function @p fn; returns the covering extent
     * on a hit.
     */
    std::optional<extent::Extent>
    lookup(pcie::FunctionId fn, extent::Vlba vlba)
    {
        if (fully_associative_) {
            for (std::uint32_t i = chain_head(fn); i != kNil;
                 i = ring_[i].next) {
                if (ring_[i].extent.contains(vlba)) {
                    probes_ += fifo_position(i);
                    ++hits_;
                    return ring_[i].extent;
                }
            }
            probes_ += live_;
            ++misses_;
            return std::nullopt;
        }
        if (capacity_ == 0) {
            ++misses_;
            return std::nullopt;
        }
        const std::uint32_t set = set_index(fn, vlba);
        for (std::uint32_t w = 0; w < ways_per_set_; ++w) {
            ++probes_;
            Way &way = ways_[set * ways_per_set_ + w];
            if (way.valid && way.fn == fn && way.extent.contains(vlba)) {
                ++hits_;
                plru_touch(set, w);
                return way.extent;
            }
        }
        ++misses_;
        return std::nullopt;
    }

    /**
     * Inserts a translation. @p vlba_hint is the vLBA whose miss
     * produced the walk; in set-associative mode it selects the set so
     * the very next lookup of that granule hits.
     */
    void
    insert(pcie::FunctionId fn, const extent::Extent &extent,
           extent::Vlba vlba_hint)
    {
        if (capacity_ == 0)
            return;
        if (fully_associative_) {
            std::uint32_t prev = kNil;
            for (std::uint32_t i = chain_head(fn); i != kNil;) {
                const std::uint32_t next = ring_[i].next;
                if (ring_[i].extent == extent)
                    return; // exact duplicate
                if (overlaps(ring_[i].extent, extent)) {
                    // Stale mapping superseded by the fresh walk.
                    unlink(fn, prev, i);
                    ++overlap_evictions_;
                } else {
                    prev = i;
                }
                i = next;
            }
            if (live_ >= capacity_) {
                // The oldest entry heads its function's chain.
                unlink(ring_[head_].fn, kNil, head_);
            }
            push(fn, extent);
            ++inserts_;
            return;
        }
        const std::uint32_t set = set_index(fn, vlba_hint);
        std::uint32_t victim = ways_per_set_; // invalid sentinel
        for (std::uint32_t w = 0; w < ways_per_set_; ++w) {
            Way &way = ways_[set * ways_per_set_ + w];
            if (!way.valid) {
                if (victim == ways_per_set_)
                    victim = w;
                continue;
            }
            if (way.fn == fn && way.extent == extent)
                return; // exact duplicate in this set
            if (way.fn == fn && overlaps(way.extent, extent)) {
                way.valid = false;
                ++overlap_evictions_;
                if (victim == ways_per_set_)
                    victim = w;
            }
        }
        if (victim == ways_per_set_)
            victim = plru_victim(set);
        Way &way = ways_[set * ways_per_set_ + victim];
        way.valid = true;
        way.fn = fn;
        way.extent = extent;
        plru_touch(set, victim);
        ++inserts_;
    }

    /** Paper-mode insert: the hint defaults to the extent start. */
    void
    insert(pcie::FunctionId fn, const extent::Extent &extent)
    {
        insert(fn, extent, extent.first_vblock);
    }

    /** Drops every entry (PF-initiated flush, e.g. for dedup). */
    void
    flush()
    {
        std::fill(ring_.begin(), ring_.end(), Slot{});
        std::fill(live_tree_.begin(), live_tree_.end(), 0);
        flush_ring();
        for (Way &way : ways_)
            way.valid = false;
        ++flushes_;
    }

    /** Drops entries of one function (VF delete / tree replacement). */
    void
    flush_function(pcie::FunctionId fn)
    {
        while (chain_head(fn) != kNil)
            unlink(fn, kNil, chains_[fn].head);
        for (Way &way : ways_)
            if (way.valid && way.fn == fn)
                way.valid = false;
        ++function_flushes_;
    }

    std::uint32_t capacity() const { return capacity_; }
    bool fully_associative() const { return fully_associative_; }
    std::uint32_t sets() const { return sets_; }
    std::uint32_t ways() const { return ways_per_set_; }
    std::uint32_t range_shift() const { return config_.range_shift; }

    std::size_t
    size() const
    {
        if (fully_associative_)
            return live_;
        std::size_t live = 0;
        for (const Way &way : ways_)
            live += way.valid ? 1 : 0;
        return live;
    }

    std::uint64_t hits() const { return hits_; }
    std::uint64_t misses() const { return misses_; }
    std::uint64_t inserts() const { return inserts_; }
    std::uint64_t flushes() const { return flushes_; }
    std::uint64_t function_flushes() const { return function_flushes_; }
    std::uint64_t overlap_evictions() const { return overlap_evictions_; }
    /** Tag comparisons performed across all lookups (probe cost). */
    std::uint64_t probes() const { return probes_; }

    double
    hit_rate() const
    {
        const std::uint64_t total = hits_ + misses_;
        return total ? static_cast<double>(hits_) / total : 0.0;
    }

    /** Mean tag comparisons per lookup — the O(1) evidence. */
    double
    mean_probe_length() const
    {
        const std::uint64_t total = hits_ + misses_;
        return total ? static_cast<double>(probes_) / total : 0.0;
    }

  private:
    static constexpr std::uint32_t kNil = ~std::uint32_t{0};

    /**
     * One FA ring slot. Live slots lie in [head_, head_ + span_) in
     * FIFO order; dead slots in that range are holes left by overlap
     * evictions and function flushes.
     */
    struct Slot {
        extent::Extent extent;
        std::uint32_t next = kNil; ///< next live slot of the same fn
        pcie::FunctionId fn = 0;
        bool live = false;
    };
    /** A function's live FA slots, oldest first. */
    struct Chain {
        std::uint32_t head = kNil;
        std::uint32_t tail = kNil;
    };
    struct Way {
        bool valid = false;
        pcie::FunctionId fn = 0;
        extent::Extent extent;
    };

    static bool
    overlaps(const extent::Extent &a, const extent::Extent &b)
    {
        return a.first_vblock < b.end_vblock() &&
               b.first_vblock < a.end_vblock();
    }

    std::uint32_t
    chain_head(pcie::FunctionId fn) const
    {
        return fn < chains_.size() ? chains_[fn].head : kNil;
    }

    /** Empties the FA ring bookkeeping (slots already dead). */
    void
    flush_ring()
    {
        std::fill(chains_.begin(), chains_.end(), Chain{});
        head_ = 0;
        span_ = 0;
        live_ = 0;
    }

    /** Adds @p delta to slot @p i's live count in the Fenwick tree. */
    void
    tree_add(std::uint32_t i, std::uint32_t delta)
    {
        for (std::size_t j = i + 1; j < live_tree_.size(); j += j & (~j + 1))
            live_tree_[j] += delta;
    }

    /** Live slots in [0, i]. */
    std::uint32_t
    live_through(std::uint32_t i) const
    {
        std::uint32_t sum = 0;
        for (std::size_t j = i + 1; j > 0; j -= j & (~j + 1))
            sum += live_tree_[j];
        return sum;
    }

    /** 1-based FIFO position of live slot @p i among live entries. */
    std::uint32_t
    fifo_position(std::uint32_t i) const
    {
        const std::uint32_t before_head =
            head_ == 0 ? 0 : live_through(head_ - 1);
        // Past the ring's end the range [head_, i] wraps to slot 0.
        return live_through(i) - before_head + (i < head_ ? live_ : 0);
    }

    /**
     * Removes live slot @p i from @p fn's chain, @p prev being its
     * predecessor there (kNil for the chain head), and frees it.
     */
    void
    unlink(pcie::FunctionId fn, std::uint32_t prev, std::uint32_t i)
    {
        Chain &chain = chains_[fn];
        const std::uint32_t next = ring_[i].next;
        if (prev == kNil)
            chain.head = next;
        else
            ring_[prev].next = next;
        if (chain.tail == i)
            chain.tail = prev;
        ring_[i] = Slot{};
        tree_add(i, ~std::uint32_t{0}); // -1
        if (--live_ == 0) {
            span_ = 0;
            return;
        }
        // Keep head_ on the oldest live slot.
        const auto ring = static_cast<std::uint32_t>(ring_.size());
        while (!ring_[head_].live) {
            head_ = head_ + 1 == ring ? 0 : head_ + 1;
            --span_;
        }
    }

    /** Appends a live slot for (@p fn, @p extent) at the FIFO tail. */
    void
    push(pcie::FunctionId fn, const extent::Extent &extent)
    {
        const auto ring = static_cast<std::uint32_t>(ring_.size());
        if (span_ == ring)
            compact();
        std::uint32_t i = head_ + span_;
        if (i >= ring)
            i -= ring;
        ++span_;
        ring_[i] = Slot{extent, kNil, fn, true};
        tree_add(i, 1);
        ++live_;
        if (fn >= chains_.size())
            chains_.resize(static_cast<std::size_t>(fn) + 1);
        Chain &chain = chains_[fn];
        if (chain.tail == kNil)
            chain.head = i;
        else
            ring_[chain.tail].next = i;
        chain.tail = i;
    }

    /**
     * Closes the holes: moves the live slots, in FIFO order, to the
     * live_ slots from head_ on and rebuilds the chains and the tree.
     * The ring holds twice the capacity, so at least capacity pushes
     * separate two compactions.
     */
    void
    compact()
    {
        const auto ring = static_cast<std::uint32_t>(ring_.size());
        std::uint32_t to = head_;
        std::uint32_t from = head_;
        for (std::uint32_t n = 0; n < span_; ++n) {
            if (ring_[from].live) {
                if (to != from) {
                    ring_[to] = ring_[from];
                    ring_[from] = Slot{};
                }
                to = to + 1 == ring ? 0 : to + 1;
            }
            from = from + 1 == ring ? 0 : from + 1;
        }
        std::fill(chains_.begin(), chains_.end(), Chain{});
        std::fill(live_tree_.begin(), live_tree_.end(), 0);
        span_ = 0;
        const std::uint32_t live = live_;
        live_ = 0;
        for (std::uint32_t n = 0, i = head_; n < live; ++n) {
            const Slot slot = ring_[i];
            push(slot.fn, slot.extent);
            i = i + 1 == ring ? 0 : i + 1;
        }
    }

    std::uint32_t
    set_index(pcie::FunctionId fn, extent::Vlba vlba) const
    {
        // Additive fn scramble keeps consecutive granules of one
        // function spread round-robin across sets (no hash clumping on
        // sequential workloads) while separating functions.
        const std::uint64_t granule = vlba >> config_.range_shift;
        return static_cast<std::uint32_t>(
            (granule + static_cast<std::uint64_t>(fn) * 0x9E3779B9ULL) &
            (sets_ - 1));
    }

    /** Tree-pLRU victim for @p set (ways is a power of two). */
    std::uint32_t
    plru_victim(std::uint32_t set) const
    {
        const std::uint64_t bits = plru_[set];
        std::uint32_t node = 0;
        while (node < ways_per_set_ - 1) {
            const std::uint64_t b = (bits >> node) & 1;
            node = 2 * node + 1 + static_cast<std::uint32_t>(b);
        }
        return node - (ways_per_set_ - 1);
    }

    /** Points the pLRU tree away from just-used @p way. */
    void
    plru_touch(std::uint32_t set, std::uint32_t way)
    {
        if (ways_per_set_ <= 1)
            return;
        std::uint64_t bits = plru_[set];
        std::uint32_t node = way + (ways_per_set_ - 1);
        while (node > 0) {
            const std::uint32_t parent = (node - 1) / 2;
            const bool came_right = node == 2 * parent + 2;
            if (came_right)
                bits &= ~(1ULL << parent);
            else
                bits |= 1ULL << parent;
            node = parent;
        }
        plru_[set] = bits;
    }

    BtlbConfig config_;
    bool fully_associative_ = true;
    std::uint32_t capacity_ = 0;
    std::uint32_t sets_ = 1;
    std::uint32_t ways_per_set_ = 0;

    // FA mode: a ring of 2 x capacity slots, per-function chains into
    // it, and a Fenwick tree (1-based) counting live slots.
    std::vector<Slot> ring_;
    std::vector<Chain> chains_; ///< indexed by function id
    std::vector<std::uint32_t> live_tree_;
    std::uint32_t head_ = 0; ///< oldest live slot (when live_ > 0)
    std::uint32_t span_ = 0; ///< slots from head_ to the tail, holes too
    std::uint32_t live_ = 0; ///< live slots

    std::vector<Way> ways_;        ///< SA mode; sets_ x ways_per_set_
    std::vector<std::uint64_t> plru_; ///< SA mode; tree bits per set

    std::uint64_t hits_ = 0;
    std::uint64_t misses_ = 0;
    std::uint64_t inserts_ = 0;
    std::uint64_t flushes_ = 0;
    std::uint64_t function_flushes_ = 0;
    std::uint64_t overlap_evictions_ = 0;
    std::uint64_t probes_ = 0;
};

} // namespace nesc::ctrl

#endif // NESC_CTRL_BTLB_H

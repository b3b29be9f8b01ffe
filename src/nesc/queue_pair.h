/**
 * @file
 * Per-function NVMe-style submission/completion queue pair state.
 *
 * Every function owns queue pair 0 (aliased by the legacy ring-base /
 * doorbell / interrupt-vector registers); additional pairs up to the
 * PF-programmed quota are created through the reg::kQp* admin block.
 * Each pair carries its own ring attachments, device-side SQ shadow
 * counters (the anti-tamper cross-check), fetch-engine flags, and MSI
 * vector — the fetch and completion engines run per queue, while
 * arbitration, fault handling, and the command watchdog stay per
 * function.
 *
 * The struct is templated on the controller's block-op type (a private
 * nested type of Controller) and lives in a sim::Arena so 256 VFs x 4
 * pairs recycle ring-queue capacity instead of allocating in steady
 * state.
 */
#ifndef NESC_CTRL_QUEUE_PAIR_H
#define NESC_CTRL_QUEUE_PAIR_H

#include <cstdint>
#include <optional>

#include "pcie/host_memory.h"
#include "pcie/host_ring.h"
#include "util/ring_queue.h"

namespace nesc::ctrl {

/** Per-queue-pair counters (function totals stay in FunctionStats). */
struct QueuePairStats {
    std::uint64_t commands = 0;    ///< descriptors fetched from this SQ
    std::uint64_t completions = 0; ///< records posted to this CQ
    std::uint64_t doorbells = 0;   ///< doorbell writes accepted
};

/** One SQ/CQ pair; see file comment. */
template <typename Op> struct QueuePair {
    std::uint16_t qid = 0;
    pcie::HostAddr sq_base = pcie::kNullHostAddr;
    pcie::HostAddr cq_base = pcie::kNullHostAddr;
    std::optional<pcie::HostRing> sq;
    std::optional<pcie::HostRing> cq;
    bool fetch_in_progress = false;
    bool doorbell_rearm = false;
    bool irq_pending = false; ///< coalesced MSI scheduled
    /** Completion MSI vector; 0 selects queue_vector(fn, qid). */
    std::uint32_t irq_vector = 0;
    /** Device-side SQ shadow counters (see validate_cmd_ring). */
    std::uint32_t sq_shadow_head = 0;
    std::uint32_t sq_shadow_tail = 0;
    bool sq_shadow_valid = false;
    /** Ops fetched from this SQ awaiting arbitration. */
    util::RingQueue<Op> staging;
    QueuePairStats stats;

    /**
     * Reinitializes a (possibly recycled) arena slot for @p id.
     * Containers are cleared, not destroyed, so their capacity
     * survives — steady-state queue churn stays allocation-free.
     */
    void reset(std::uint16_t id)
    {
        qid = id;
        sq_base = pcie::kNullHostAddr;
        cq_base = pcie::kNullHostAddr;
        sq.reset();
        cq.reset();
        fetch_in_progress = false;
        doorbell_rearm = false;
        irq_pending = false;
        irq_vector = 0;
        sq_shadow_head = 0;
        sq_shadow_tail = 0;
        sq_shadow_valid = false;
        staging.clear();
        stats = QueuePairStats{};
    }
};

} // namespace nesc::ctrl

#endif // NESC_CTRL_QUEUE_PAIR_H

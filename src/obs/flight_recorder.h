/**
 * @file
 * Always-on per-function flight recorder with postmortem capture.
 *
 * A FlightRecorder keeps a small bounded ring of recent command
 * lifecycle events (doorbell, fetch, complete, fault) per function.
 * Unlike the Tracer it is cheap enough to leave on in production:
 * each record is one branch plus a fixed-size store into a
 * preallocated ring, there is no export path on the hot side, and the
 * ring depth is tens of events, not millions.
 *
 * When something goes wrong — a fault completion, a quarantine, a
 * checksum mismatch, a replica demotion — the controller calls
 * snapshot(), which freezes the affected function's ring into a
 * bounded postmortem buffer (drop-oldest). The PF later dumps the
 * buffer as JSON (`PfDriver::dump_postmortem`) for crash forensics
 * without ever having enabled the full tracer.
 *
 * Cost model: compiled in, OFF by default. record() with the recorder
 * disabled is a single predictable branch; snapshot() with the
 * recorder disabled is a no-op. Nothing allocates on the record path.
 */
#ifndef NESC_OBS_FLIGHT_RECORDER_H
#define NESC_OBS_FLIGHT_RECORDER_H

#include <cstddef>
#include <cstdint>
#include <deque>
#include <string>
#include <vector>

#include "sim/time.h"

namespace nesc::obs {

/** Lifecycle event classes the flight recorder distinguishes. */
enum class FlightEventType : std::uint8_t {
    kDoorbell = 0, ///< doorbell register write (aux = queue pair id)
    kFetch,        ///< command descriptor fetched (aux = opcode)
    kComplete,     ///< completion posted (aux = completion status)
    kFault,        ///< fault / reject / mismatch (aux = cause code)
};

const char *flight_event_type_name(FlightEventType type);

/** Why a postmortem snapshot was taken. */
enum class PostmortemReason : std::uint8_t {
    kFault = 0,          ///< translation/DMA fault completed a command
    kQuarantine,         ///< function quarantined
    kChecksumError,      ///< end-to-end checksum mismatch
    kReplicaDemotion,    ///< a replica backend was demoted
};

const char *postmortem_reason_name(PostmortemReason reason);

/** One recorded lifecycle event. */
struct FlightEvent {
    sim::Time at = 0;
    std::uint64_t vlba = 0;
    std::uint32_t tag = 0;
    std::uint32_t aux = 0; ///< type-specific payload, see FlightEventType
    std::uint16_t fn = 0;
    FlightEventType type = FlightEventType::kDoorbell;
};

/** A frozen copy of one function's ring, oldest event first. */
struct Postmortem {
    sim::Time at = 0;            ///< snapshot time
    std::uint64_t detail = 0;    ///< reason-specific (backend id, cause)
    std::uint16_t fn = 0;
    PostmortemReason reason = PostmortemReason::kFault;
    std::vector<FlightEvent> events;
};

class FlightRecorder {
  public:
    /** Default per-function ring depth (events retained). */
    static constexpr std::size_t kDefaultDepth = 32;
    /** Largest per-function ring depth enable() applies. */
    static constexpr std::size_t kMaxDepth = 4096;
    /** Postmortems retained before drop-oldest kicks in. */
    static constexpr std::size_t kMaxPostmortems = 16;

    /**
     * Enables recording for @p num_functions functions with a ring of
     * @p depth events each (clamped to [1, kMaxDepth] and rounded up to
     * a power of two, so the per-record ring index is a mask, not a
     * division). Re-enabling resets all rings. Retained postmortems
     * survive enable/disable cycles.
     */
    void enable(std::uint16_t num_functions,
                std::size_t depth = kDefaultDepth);
    void disable();
    bool enabled() const { return enabled_; }
    std::size_t depth() const { return depth_; }

    /**
     * Hot path: records one event; single branch when disabled. The
     * ring store itself is out-of-line (flight_recorder.cc) to keep
     * the recorder's footprint out of the controller's icache-critical
     * lifecycle functions; only this branch inlines there.
     */
    void record(std::uint16_t fn, FlightEventType type, sim::Time at,
                std::uint32_t tag, std::uint64_t vlba, std::uint32_t aux)
    {
        if (!enabled_ || fn >= fn_count_)
            return;
        record_slow(fn, type, at, tag, vlba, aux);
    }

    /**
     * Freezes @p fn's ring into the postmortem buffer (oldest event
     * first). No-op while disabled. Oldest postmortems are dropped
     * once kMaxPostmortems are retained.
     */
    void snapshot(std::uint16_t fn, PostmortemReason reason, sim::Time at,
                  std::uint64_t detail = 0);

    const std::deque<Postmortem> &postmortems() const { return postmortems_; }
    std::uint64_t postmortems_taken() const { return taken_; }
    std::uint64_t postmortems_dropped() const { return dropped_; }
    void clear_postmortems();

    /** Events currently retained in @p fn's ring (capped at depth). */
    std::size_t retained(std::uint16_t fn) const;

    /** JSON dump of every retained postmortem (stable field order). */
    std::string postmortem_json() const;

  private:
    void record_slow(std::uint16_t fn, FlightEventType type, sim::Time at,
                     std::uint32_t tag, std::uint64_t vlba,
                     std::uint32_t aux);

    std::vector<FlightEvent> rings_; ///< fn-major, depth_ slots each
    std::vector<std::uint64_t> heads_;
    std::deque<Postmortem> postmortems_;
    std::size_t depth_ = kDefaultDepth;
    std::uint16_t fn_count_ = 0;
    bool enabled_ = false;
    std::uint64_t taken_ = 0;
    std::uint64_t dropped_ = 0;
};

} // namespace nesc::obs

#endif // NESC_OBS_FLIGHT_RECORDER_H

#include "flight_recorder.h"

#include <algorithm>
#include <bit>
#include <cinttypes>
#include <cstdio>

namespace nesc::obs {

const char *
flight_event_type_name(FlightEventType type)
{
    switch (type) {
    case FlightEventType::kDoorbell: return "doorbell";
    case FlightEventType::kFetch: return "fetch";
    case FlightEventType::kComplete: return "complete";
    case FlightEventType::kFault: return "fault";
    }
    return "unknown";
}

const char *
postmortem_reason_name(PostmortemReason reason)
{
    switch (reason) {
    case PostmortemReason::kFault: return "fault";
    case PostmortemReason::kQuarantine: return "quarantine";
    case PostmortemReason::kChecksumError: return "checksum_error";
    case PostmortemReason::kReplicaDemotion: return "replica_demotion";
    }
    return "unknown";
}

void
FlightRecorder::enable(std::uint16_t num_functions, std::size_t depth)
{
    const std::size_t want =
        std::bit_ceil(std::clamp<std::size_t>(depth, 1, kMaxDepth));
    // Same-shape re-enable only rewinds the heads: every slot behind a
    // zero head is unreachable, so skipping the ring memset (tens of
    // KiB) is invisible to readers but keeps re-arming from flushing
    // the data path's cache footprint.
    if (depth_ == want && heads_.size() == num_functions &&
        rings_.size() == static_cast<std::size_t>(num_functions) * want) {
        std::fill(heads_.begin(), heads_.end(), 0);
        fn_count_ = num_functions;
        enabled_ = true;
        return;
    }
    depth_ = want;
    fn_count_ = num_functions;
    rings_.assign(static_cast<std::size_t>(fn_count_) * depth_, {});
    heads_.assign(fn_count_, 0);
    enabled_ = true;
}

void
FlightRecorder::disable()
{
    // The rings stay allocated so re-enabling is cheap and toggling the
    // recorder leaves the heap layout untouched; fn_count_ = 0 keeps
    // record()/snapshot()/retained() inert while disabled.
    enabled_ = false;
    fn_count_ = 0;
}

void
FlightRecorder::record_slow(std::uint16_t fn, FlightEventType type,
                            sim::Time at, std::uint32_t tag,
                            std::uint64_t vlba, std::uint32_t aux)
{
    FlightEvent &e = rings_[fn * depth_ + (heads_[fn] & (depth_ - 1))];
    e.at = at;
    e.vlba = vlba;
    e.tag = tag;
    e.aux = aux;
    e.fn = fn;
    e.type = type;
    ++heads_[fn];
}

std::size_t
FlightRecorder::retained(std::uint16_t fn) const
{
    if (!enabled_ || fn >= fn_count_)
        return 0;
    return static_cast<std::size_t>(
        std::min<std::uint64_t>(heads_[fn], depth_));
}

void
FlightRecorder::snapshot(std::uint16_t fn, PostmortemReason reason,
                         sim::Time at, std::uint64_t detail)
{
    if (!enabled_ || fn >= fn_count_)
        return;
    Postmortem pm;
    pm.at = at;
    pm.detail = detail;
    pm.fn = fn;
    pm.reason = reason;
    const std::size_t count = retained(fn);
    pm.events.reserve(count);
    // heads_[fn] is the next write slot; the oldest retained event
    // lives heads_[fn] - count slots back.
    for (std::size_t i = 0; i < count; ++i) {
        const std::uint64_t seq = heads_[fn] - count + i;
        pm.events.push_back(rings_[fn * depth_ + seq % depth_]);
    }
    postmortems_.push_back(std::move(pm));
    ++taken_;
    while (postmortems_.size() > kMaxPostmortems) {
        postmortems_.pop_front();
        ++dropped_;
    }
}

void
FlightRecorder::clear_postmortems()
{
    postmortems_.clear();
}

std::string
FlightRecorder::postmortem_json() const
{
    std::string out = "{\"postmortems\": [";
    char buf[192];
    bool first_pm = true;
    for (const Postmortem &pm : postmortems_) {
        if (!first_pm)
            out += ", ";
        first_pm = false;
        std::snprintf(buf, sizeof buf,
                      "{\"fn\": %u, \"reason\": \"%s\", \"at\": %" PRIu64
                      ", \"detail\": %" PRIu64 ", \"events\": [",
                      pm.fn, postmortem_reason_name(pm.reason), pm.at,
                      pm.detail);
        out += buf;
        bool first_ev = true;
        for (const FlightEvent &e : pm.events) {
            if (!first_ev)
                out += ", ";
            first_ev = false;
            std::snprintf(buf, sizeof buf,
                          "{\"type\": \"%s\", \"at\": %" PRIu64
                          ", \"tag\": %u, \"vlba\": %" PRIu64
                          ", \"aux\": %u}",
                          flight_event_type_name(e.type), e.at, e.tag,
                          e.vlba, e.aux);
            out += buf;
        }
        out += "]}";
    }
    out += "]}";
    return out;
}

} // namespace nesc::obs

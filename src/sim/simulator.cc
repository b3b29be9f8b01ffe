#include "simulator.h"

#include <cassert>
#include <utility>

namespace nesc::sim {

void
Simulator::reserve(std::size_t events)
{
    heap_.reserve(events);
    if (slots_.capacity() < events)
        slots_.reserve(events);
}

void
Simulator::schedule_event(Time when, Callback fn, bool weak)
{
    assert(fn && "null event callback");
    if (when < now_)
        when = now_; // clamp: components may schedule "immediately"

    std::uint32_t slot;
    if (free_slots_.empty()) {
        slot = static_cast<std::uint32_t>(slots_.size());
        slots_.push_back(std::move(fn));
        slot_weak_.push_back(weak ? 1 : 0);
    } else {
        slot = free_slots_.back();
        free_slots_.pop_back();
        slots_[slot] = std::move(fn);
        slot_weak_[slot] = weak ? 1 : 0;
    }

    heap_.push(EventKey{when, next_seq_++, slot});
    if (weak)
        ++weak_pending_;
}

bool
Simulator::step()
{
    if (heap_.empty())
        return false;
    const EventKey key = heap_.pop();

    assert(key.when >= now_);
    now_ = key.when;
    ++events_executed_;
    ++g_total_events_;
    if (slot_weak_[key.slot] != 0)
        --weak_pending_;

    // Free the slot before invoking: the callback may schedule onto it.
    Callback fn = std::move(slots_[key.slot]);
    free_slots_.push_back(key.slot);
    fn();
    return true;
}

void
Simulator::run_until_idle()
{
    // Strong events drain in global order — weak timers that fall
    // before a pending strong event still fire — but the loop stops
    // once only weak (maintenance) events remain, leaving them armed.
    while (!idle())
        step();
}

void
Simulator::run_until(Time deadline)
{
    while (!heap_.empty() && heap_.top().when <= deadline)
        step();
    if (deadline > now_)
        now_ = deadline;
}

} // namespace nesc::sim

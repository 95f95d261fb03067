#include "sim/event_queue.hh"

#include <algorithm>

#include "sim/logging.hh"

namespace mcsim
{

namespace
{

/**
 * Heap order: true when key @p a runs after key @p b. A closure object
 * rather than a function, so the heap algorithms inline it.
 */
constexpr auto later = [](const auto &a, const auto &b) {
    if (a.when != b.when)
        return a.when > b.when;
    if (a.priority != b.priority)
        return a.priority > b.priority;
    return a.seq > b.seq;
};

} // namespace

void
EventQueue::schedule(Tick when, Callback cb, int priority)
{
    if (when < curTick_) {
        panic("event scheduled in the past (when=%llu, now=%llu)",
              static_cast<unsigned long long>(when),
              static_cast<unsigned long long>(curTick_));
    }
    std::uint32_t slot;
    if (freeSlots.empty()) {
        slot = static_cast<std::uint32_t>(slots.size());
        slots.push_back(std::move(cb));
    } else {
        slot = freeSlots.back();
        freeSlots.pop_back();
        slots[slot] = std::move(cb);
    }
    heap.push_back(Key{when, nextSeq++, priority, slot});
    std::push_heap(heap.begin(), heap.end(), later);
}

void
EventQueue::runNext()
{
    std::pop_heap(heap.begin(), heap.end(), later);
    const Key key = heap.back();
    heap.pop_back();
    // Move the closure out and free its slot before running it: the
    // callback may schedule (reusing the slot or growing the vector).
    Callback cb = std::move(slots[key.slot]);
    freeSlots.push_back(key.slot);
    curTick_ = key.when;
    cb();
    ++numExecuted;
}

std::uint64_t
EventQueue::runUntil(Tick limit)
{
    std::uint64_t count = 0;
    while (!heap.empty() && heap.front().when <= limit) {
        runNext();
        ++count;
    }
    if (curTick_ < limit && heap.empty())
        curTick_ = limit;
    return count;
}

std::uint64_t
EventQueue::run(std::uint64_t maxEvents)
{
    std::uint64_t count = 0;
    while (!heap.empty() && count < maxEvents) {
        runNext();
        ++count;
    }
    return count;
}

} // namespace mcsim

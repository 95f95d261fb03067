#include "sim/event_queue.hh"

#include <algorithm>
#include <bit>

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

// The ring is left unwritten on purpose (see the declaration).
// cppcheck-suppress uninitMemberVar
EventQueue::EventQueue() = default;

std::size_t
EventQueue::laneOf(int priority)
{
    std::size_t lane = 0;
    while (lane < numLanes && lanePriority[lane] != priority)
        ++lane;
    return lane;
}

void
EventQueue::schedule(Tick when, Callback cb, int priority)
{
    if (when < curTick_) {
        panic("event scheduled in the past (when=%llu, now=%llu)",
              static_cast<unsigned long long>(when),
              static_cast<unsigned long long>(curTick_));
    }
    const std::uint64_t seq = nextSeq++;
    std::uint32_t slot;
    if (freeSlot == noSlot) {
        slot = static_cast<std::uint32_t>(slots.size());
        slots.push_back(Slot{std::move(cb), seq, noSlot});
    } else {
        slot = freeSlot;
        freeSlot = slots[slot].next;
        slots[slot].cb = std::move(cb);
        slots[slot].seq = seq;
        slots[slot].next = noSlot;
    }

    const std::size_t lane = laneOf(priority);
    if (when - curTick_ >= ringTicks || lane == numLanes) {
        heap.push_back(Key{when, seq, priority, slot});
        std::push_heap(heap.begin(), heap.end(), later);
        return;
    }
    const auto b = static_cast<std::uint32_t>(when % ringTicks);
    std::uint64_t &word = occupied[b / 64];
    const std::uint64_t bit = std::uint64_t(1) << (b % 64);
    Bucket &bucket = ring[b];
    if (!(word & bit)) {
        word |= bit;
        for (Lane &l : bucket.lanes)
            l.head = noSlot;
    }
    Lane &l = bucket.lanes[lane];
    if (l.head == noSlot)
        l.head = slot;
    else
        slots[l.tail].next = slot;
    l.tail = slot;
    ++ringEvents;
}

std::uint32_t
EventQueue::firstOccupied(std::uint32_t from) const
{
    constexpr std::uint32_t words = ringTicks / 64;
    const std::uint32_t w = from / 64;
    // The starting word's bits at or after `from`, then whole words on
    // around the ring, ending with the starting word's bits before it.
    if (const std::uint64_t bits = occupied[w] >> (from % 64))
        return from + static_cast<std::uint32_t>(std::countr_zero(bits));
    for (std::uint32_t k = 1; k <= words; ++k) {
        const std::uint32_t i = (w + k) % words;
        if (occupied[i])
            return i * 64 +
                   static_cast<std::uint32_t>(std::countr_zero(occupied[i]));
    }
    panic("event ring scanned while empty");
}

bool
EventQueue::runNext(Tick limit)
{
    std::uint32_t slot = noSlot;
    Tick when = 0;
    bool from_heap = ringEvents == 0;
    std::uint32_t b = 0;
    std::size_t lane = 0;
    if (!from_heap) {
        // The earliest occupied bucket is the earliest ring tick: every
        // ring event lies in [now, now + ringTicks).
        const auto from = static_cast<std::uint32_t>(curTick_ % ringTicks);
        b = firstOccupied(from);
        when = curTick_ + (b - from) % ringTicks;
        while (ring[b].lanes[lane].head == noSlot)
            ++lane;
        slot = ring[b].lanes[lane].head;
        // A heap event wins a (tick, priority) tie on seq; it is always
        // the earlier-scheduled one, as it was >= ringTicks ahead then.
        from_heap = !heap.empty() &&
                    !later(heap.front(), Key{when, slots[slot].seq,
                                             lanePriority[lane], slot});
    }
    if (from_heap) {
        if (heap.empty() || heap.front().when > limit)
            return false;
        std::pop_heap(heap.begin(), heap.end(), later);
        slot = heap.back().slot;
        when = heap.back().when;
        heap.pop_back();
    } else {
        if (when > limit)
            return false;
        Bucket &bucket = ring[b];
        bucket.lanes[lane].head = slots[slot].next;
        if (std::all_of(std::begin(bucket.lanes), std::end(bucket.lanes),
                        [](const Lane &l) { return l.head == noSlot; }))
            occupied[b / 64] &= ~(std::uint64_t(1) << (b % 64));
        --ringEvents;
    }
    // Move the closure out and free its slot before running it: the
    // callback may schedule (reusing the slot or growing the vector).
    Callback cb = std::move(slots[slot].cb);
    slots[slot].next = std::exchange(freeSlot, slot);
    curTick_ = when;
    cb();
    ++numExecuted;
    return true;
}

std::uint64_t
EventQueue::runUntil(Tick limit)
{
    std::uint64_t count = 0;
    while (runNext(limit))
        ++count;
    if (curTick_ < limit && empty())
        curTick_ = limit;
    return count;
}

std::uint64_t
EventQueue::run(std::uint64_t maxEvents)
{
    std::uint64_t count = 0;
    while (count < maxEvents && runNext(maxTick))
        ++count;
    return count;
}

} // namespace mcsim

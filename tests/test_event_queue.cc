/**
 * @file
 * Unit tests for the discrete-event kernel: ordering, priorities,
 * determinism, time-window execution, the merge of ring lanes with the
 * far-event heap, and closure lifetimes in the slot pool (move-only
 * captures, pending captures at destruction, throwing callbacks).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <memory>
#include <stdexcept>
#include <vector>

#include "sim/event_queue.hh"
#include "sim/random.hh"

using namespace mcsim;

TEST(EventQueue, StartsAtTickZero)
{
    EventQueue q;
    EXPECT_EQ(q.now(), 0u);
    EXPECT_TRUE(q.empty());
    EXPECT_EQ(q.pending(), 0u);
}

TEST(EventQueue, ExecutesInTimeOrder)
{
    EventQueue q;
    std::vector<int> order;
    q.schedule(30, [&]() { order.push_back(3); });
    q.schedule(10, [&]() { order.push_back(1); });
    q.schedule(20, [&]() { order.push_back(2); });
    q.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(q.now(), 30u);
}

TEST(EventQueue, SameTickFifoWithinPriority)
{
    EventQueue q;
    std::vector<int> order;
    for (int i = 0; i < 8; ++i)
        q.schedule(5, [&, i]() { order.push_back(i); });
    q.run();
    for (int i = 0; i < 8; ++i)
        EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(EventQueue, PriorityOrdersWithinTick)
{
    EventQueue q;
    std::vector<int> order;
    q.schedule(5, [&]() { order.push_back(2); }, EventQueue::prioCpu);
    q.schedule(5, [&]() { order.push_back(1); }, EventQueue::prioDeliver);
    q.schedule(5, [&]() { order.push_back(3); }, EventQueue::prioCpu + 5);
    q.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, ReentrantSchedulingFromCallback)
{
    EventQueue q;
    int fired = 0;
    q.schedule(1, [&]() {
        ++fired;
        q.schedule(2, [&]() { ++fired; });
    });
    q.run();
    EXPECT_EQ(fired, 2);
    EXPECT_EQ(q.now(), 2u);
}

TEST(EventQueue, SameTickReentrantRunsThisTick)
{
    EventQueue q;
    std::vector<int> order;
    q.schedule(7, [&]() {
        order.push_back(1);
        q.schedule(7, [&]() { order.push_back(2); });
    });
    q.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2}));
    EXPECT_EQ(q.now(), 7u);
}

TEST(EventQueue, RunUntilStopsAtLimitInclusive)
{
    EventQueue q;
    int fired = 0;
    q.schedule(10, [&]() { ++fired; });
    q.schedule(20, [&]() { ++fired; });
    q.schedule(21, [&]() { ++fired; });
    EXPECT_EQ(q.runUntil(20), 2u);
    EXPECT_EQ(fired, 2);
    EXPECT_EQ(q.pending(), 1u);
}

TEST(EventQueue, RunUntilAdvancesTimeWhenIdle)
{
    EventQueue q;
    q.runUntil(100);
    EXPECT_EQ(q.now(), 100u);
}

TEST(EventQueue, RunMaxEventsGuard)
{
    EventQueue q;
    // A self-perpetuating event chain.
    std::function<void()> again = [&]() { q.scheduleIn(1, again); };
    q.scheduleIn(1, again);
    EXPECT_EQ(q.run(1000), 1000u);
    EXPECT_FALSE(q.empty());
}

TEST(EventQueue, ExecutedCounter)
{
    EventQueue q;
    for (int i = 0; i < 5; ++i)
        q.schedule(static_cast<Tick>(i), []() {});
    q.run();
    EXPECT_EQ(q.executed(), 5u);
}

TEST(EventQueueDeathTest, SchedulingInThePastPanics)
{
    EventQueue q;
    q.schedule(10, []() {});
    q.run();
    EXPECT_DEATH(q.schedule(5, []() {}), "past");
}

TEST(EventQueue, DeterministicInterleaving)
{
    // Two identical runs execute identical event sequences.
    auto run_once = []() {
        EventQueue q;
        std::vector<int> order;
        for (int i = 0; i < 50; ++i) {
            q.schedule(static_cast<Tick>(i % 7), [&order, i]() {
                order.push_back(i);
            });
        }
        q.run();
        return order;
    };
    EXPECT_EQ(run_once(), run_once());
}

namespace
{

/**
 * Reference model for the kernel's ordering contract. Every scheduled
 * event is logged in scheduling (seq) order; the kernel must execute them
 * in the order of a stable sort of that log by (tick, priority). Each
 * event schedules one or two more: many at its own tick (re-entrant), the
 * rest 0-64 ticks ahead, some just either side of the ring width and a
 * few far ahead, so ring lanes and the heap both hold events of one
 * (tick, priority). A same-tick child gets a priority no lower than its
 * parent's, since one below it would have been due before the parent and
 * the sort would no longer be a valid reference. Slots are freed and
 * reused throughout.
 */
struct OrderModel
{
    struct Logged
    {
        Tick when;
        int priority;
    };

    static constexpr std::size_t target = 10000;
    static constexpr int prios[] = {EventQueue::prioDeliver,
                                    EventQueue::prioDefault,
                                    EventQueue::prioCpu,
                                    EventQueue::prioCpu + 5};
    static constexpr Tick w = EventQueue::ringTicks;
    static constexpr Tick straddle[] = {w - 1, w, w + 1, 2 * w};

    EventQueue q;
    Rng rng{20261017};
    std::vector<Logged> log;
    std::vector<std::uint32_t> ran;

    void
    add(Tick when, int priority)
    {
        const auto id = static_cast<std::uint32_t>(log.size());
        log.push_back({when, priority});
        q.schedule(when, [this, id]() { fire(id); }, priority);
    }

    int
    anyPriority()
    {
        return prios[rng.below(4)];
    }

    void
    fire(std::uint32_t id)
    {
        ran.push_back(id);
        EXPECT_EQ(q.now(), log[id].when);
        const int kids = rng.chance(0.3) ? 2 : 1;
        for (int k = 0; k < kids && log.size() < target; ++k) {
            const Tick delay = rng.chance(0.2)    ? 0
                               : rng.chance(0.01) ? 1000 + rng.below(100000)
                               : rng.chance(0.1)  ? straddle[rng.below(4)]
                                                  : rng.below(65);
            int p = anyPriority();
            while (delay == 0 && p < log[id].priority)
                p = anyPriority();
            add(q.now() + delay, p);
        }
    }
};

} // namespace

TEST(EventQueue, OrderMatchesStableSortReference)
{
    OrderModel m;
    for (int i = 0; i < 64; ++i)
        m.add(m.rng.below(65), m.anyPriority());
    m.q.run();

    ASSERT_EQ(m.log.size(), OrderModel::target);
    std::vector<std::uint32_t> expected(m.log.size());
    for (std::uint32_t i = 0; i < expected.size(); ++i)
        expected[i] = i;
    std::stable_sort(expected.begin(), expected.end(),
                     [&m](std::uint32_t a, std::uint32_t b) {
                         const auto &x = m.log[a];
                         const auto &y = m.log[b];
                         if (x.when != y.when)
                             return x.when < y.when;
                         return x.priority < y.priority;
                     });
    EXPECT_EQ(m.ran, expected);
    EXPECT_EQ(m.q.executed(), OrderModel::target);
    EXPECT_TRUE(m.q.empty());
}

TEST(EventQueue, FarEventPrecedesLaterNearEventOfSameTickAndPriority)
{
    // Events for tick t scheduled at tick 0 are a ring width or more
    // ahead; those scheduled at tick 20 are not. Whichever structure holds
    // them, (tick, priority, seq) order decides.
    constexpr Tick w = EventQueue::ringTicks;
    constexpr Tick t = w + 10;
    EventQueue q;
    std::vector<char> order;
    auto at = [&](char name, int priority) {
        q.schedule(t, [&order, name]() { order.push_back(name); }, priority);
    };
    at('A', EventQueue::prioCpu);
    at('B', EventQueue::prioDefault);
    at('F', EventQueue::prioCpu + 5);
    q.schedule(20, [&]() {
        at('C', EventQueue::prioCpu);
        at('D', EventQueue::prioDeliver);
        at('E', EventQueue::prioDefault);
        at('G', EventQueue::prioCpu + 5);
    });
    q.run();
    EXPECT_EQ(order, (std::vector<char>{'D', 'B', 'E', 'A', 'C', 'F', 'G'}));
    EXPECT_EQ(q.now(), t);
}

TEST(EventQueue, RunUntilCrossesIdleGapLongerThanRing)
{
    constexpr Tick w = EventQueue::ringTicks;
    EventQueue q;
    std::vector<Tick> seen;
    auto note = [&]() { seen.push_back(q.now()); };
    q.schedule(5, note);
    q.schedule(5 + 3 * w, note);
    EXPECT_EQ(q.runUntil(5 + 2 * w), 1u);
    EXPECT_EQ(q.now(), 5u);
    EXPECT_EQ(q.runUntil(10 * w + 3), 1u);
    EXPECT_EQ(q.now(), 10 * w + 3);

    // The ring is reused from the new time on: events either side of the
    // ring width, in buckets on both sides of now's.
    const Tick now = q.now();
    q.schedule(now + w, note);
    q.schedule(now + w - 1, note);
    q.schedule(now + 1, note);
    q.schedule(now, note, EventQueue::prioCpu);
    q.schedule(now + 2 * w, note);
    EXPECT_EQ(q.pending(), 5u);
    EXPECT_EQ(q.run(), 5u);
    EXPECT_EQ(seen, (std::vector<Tick>{5, 5 + 3 * w, now, now + 1,
                                       now + w - 1, now + w, now + 2 * w}));
    EXPECT_TRUE(q.empty());
}

namespace
{

/** Counts its own destructions in a caller-owned slot. */
struct Tracked
{
    int *destroyed;
    explicit Tracked(int *counter) : destroyed(counter) {}
    Tracked(const Tracked &) = delete;
    Tracked &operator=(const Tracked &) = delete;
    ~Tracked() { ++*destroyed; }
};

} // namespace

TEST(EventQueue, MoveOnlyCaptureRunsAndIsDestroyedOnce)
{
    // Enough events that the slot vector grows (relocating pending
    // captures) several times before any runs.
    constexpr int n = 100;
    std::vector<int> destroyed(n, 0);
    int sum = 0;
    EventQueue q;
    for (int i = 0; i < n; ++i) {
        auto p = std::make_unique<Tracked>(&destroyed[i]);
        q.schedule(static_cast<Tick>(n - i),
                   [p = std::move(p), &sum, i]() { sum += i; });
    }
    EXPECT_EQ(std::count(destroyed.begin(), destroyed.end(), 0), n);
    EXPECT_EQ(q.run(), static_cast<std::uint64_t>(n));
    EXPECT_EQ(sum, n * (n - 1) / 2);
    EXPECT_EQ(std::count(destroyed.begin(), destroyed.end(), 1), n);
}

TEST(EventQueue, PendingCapturesDestroyedOnceWithQueue)
{
    constexpr int n = 10;
    std::vector<int> destroyed(n, 0);
    int fired = 0;
    {
        EventQueue q;
        for (int i = 0; i < n; ++i) {
            q.schedule(static_cast<Tick>(i + 1),
                       [p = std::make_unique<Tracked>(&destroyed[i]),
                        &fired]() { ++fired; });
        }
        EXPECT_EQ(q.runUntil(5), 5u);
        EXPECT_EQ(q.pending(), 5u);
        for (int i = 0; i < n; ++i)
            EXPECT_EQ(destroyed[i], i < 5 ? 1 : 0) << "event " << i;
    }
    EXPECT_EQ(fired, 5);
    EXPECT_EQ(std::count(destroyed.begin(), destroyed.end(), 1), n);
}

TEST(EventQueue, ThrowingCallbackLeavesQueueConsistent)
{
    EventQueue q;
    std::vector<int> order;
    int destroyed = 0;
    q.schedule(1, [&]() { order.push_back(1); });
    q.schedule(2, [p = std::make_unique<Tracked>(&destroyed)]() {
        throw std::runtime_error("callback failed");
    });
    q.schedule(3, [&]() { order.push_back(3); });
    q.schedule(3, [&]() { order.push_back(4); });

    EXPECT_THROW(q.run(), std::runtime_error);
    EXPECT_EQ(q.now(), 2u);
    EXPECT_EQ(q.pending(), 2u);
    EXPECT_EQ(q.executed(), 1u);
    EXPECT_EQ(destroyed, 1);

    // The queue stays usable: new events interleave with the survivors.
    q.schedule(3, [&]() { order.push_back(5); }, EventQueue::prioDeliver);
    EXPECT_EQ(q.run(), 3u);
    EXPECT_EQ(order, (std::vector<int>{1, 5, 3, 4}));
    EXPECT_EQ(q.executed(), 4u);
    EXPECT_TRUE(q.empty());
    EXPECT_EQ(destroyed, 1);
}

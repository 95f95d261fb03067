/**
 * @file
 * A deterministic discrete-event queue.
 *
 * Events are ordered by (tick, priority, insertion sequence), so two runs of
 * the same configuration always execute events in the same order; the paper's
 * methodology depends on run-to-run reproducibility for everything except
 * Qsort's intrinsic dynamic-scheduling variability.
 */

#ifndef MCSIM_SIM_EVENT_QUEUE_HH
#define MCSIM_SIM_EVENT_QUEUE_HH

#include <cstddef>
#include <cstdint>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

#include "sim/types.hh"

namespace mcsim
{

/**
 * Discrete-event simulation kernel.
 *
 * Components schedule closures at absolute ticks. Scheduling in the past is a
 * simulator bug (panic). Within a tick, lower priority values run first and
 * ties preserve insertion order.
 *
 * A pending event is a 24-byte key in a binary min-heap plus a closure in a
 * slot of a free-listed vector; the heap moves only keys, and the closure
 * stays put until its event runs.
 */
class EventQueue
{
  public:
    /**
     * A move-only `void()` closure whose capture lives inline, so scheduling
     * never allocates. A capture larger than #capacity does not compile.
     */
    class Callback
    {
      public:
        /** Inline bytes: the largest capture in src/, the Omega network's
         *  hop continuation (this, message, stage, link, inject tick). */
        static constexpr std::size_t capacity = 72;

        /** Implicit, so a lambda converts where a Callback is expected. */
        template <typename Fn>
            requires(!std::is_same_v<Fn, Callback> &&
                     std::is_invocable_r_v<void, Fn &>)
        Callback(Fn fn)
        {
            static_assert(sizeof(Fn) <= capacity,
                          "capture exceeds EventQueue::Callback capacity");
            static_assert(alignof(Fn) <= alignof(std::max_align_t),
                          "capture is over-aligned for EventQueue::Callback");
            static_assert(std::is_nothrow_move_constructible_v<Fn>,
                          "EventQueue::Callback captures must be "
                          "nothrow-movable");
            ::new (static_cast<void *>(storage)) Fn(std::move(fn));
            ops = &opsFor<Fn>;
        }

        Callback(Callback &&other) noexcept : ops(other.ops)
        {
            if (ops) {
                ops->relocate(storage, other.storage);
                other.ops = nullptr;
            }
        }

        Callback &
        operator=(Callback &&other) noexcept
        {
            if (this != &other) {
                reset();
                if (other.ops) {
                    other.ops->relocate(storage, other.storage);
                    ops = std::exchange(other.ops, nullptr);
                }
            }
            return *this;
        }

        Callback(const Callback &) = delete;
        Callback &operator=(const Callback &) = delete;

        ~Callback() { reset(); }

        /** Invoke the held closure; it must exist. */
        void operator()() { ops->invoke(storage); }

      private:
        struct Ops
        {
            void (*invoke)(void *);
            /** Move-construct into @p dst, then destroy @p src. */
            void (*relocate)(void *dst, void *src) noexcept;
            void (*destroy)(void *) noexcept;
        };

        template <typename Fn>
        static Fn &
        as(void *p)
        {
            return *std::launder(static_cast<Fn *>(p));
        }

        template <typename Fn>
        static constexpr Ops opsFor{
            [](void *p) { as<Fn>(p)(); },
            [](void *dst, void *src) noexcept {
                ::new (dst) Fn(std::move(as<Fn>(src)));
                as<Fn>(src).~Fn();
            },
            [](void *p) noexcept { as<Fn>(p).~Fn(); },
        };

        void
        reset() noexcept
        {
            if (ops)
                std::exchange(ops, nullptr)->destroy(storage);
        }

        alignas(std::max_align_t) unsigned char storage[capacity];
        const Ops *ops = nullptr;
    };

    /** Well-known intra-tick priorities (lower runs first). */
    enum Priority : int
    {
        prioDeliver = -10,  ///< message deliveries / component state updates
        prioDefault = 0,    ///< ordinary events
        prioCpu = 10,       ///< processor resumption (sees this tick's state)
    };

    EventQueue() = default;
    EventQueue(const EventQueue &) = delete;
    EventQueue &operator=(const EventQueue &) = delete;

    /** Current simulated time. */
    Tick now() const { return curTick_; }

    /** Number of events not yet executed. */
    std::size_t pending() const { return heap.size(); }

    /** True when no events remain. */
    bool empty() const { return heap.empty(); }

    /** Total events executed since construction. */
    std::uint64_t executed() const { return numExecuted; }

    /**
     * Schedule @p cb to run at absolute tick @p when.
     * @param when absolute tick; must be >= now()
     * @param cb the closure to execute
     * @param priority intra-tick ordering; lower runs first
     */
    void schedule(Tick when, Callback cb, int priority = prioDefault);

    /** Schedule @p cb to run @p delta ticks from now. */
    void
    scheduleIn(Tick delta, Callback cb, int priority = prioDefault)
    {
        schedule(curTick_ + delta, std::move(cb), priority);
    }

    /**
     * Execute events until the queue is empty or time would exceed
     * @p limit. Events scheduled exactly at @p limit are executed.
     * @return number of events executed by this call
     */
    std::uint64_t runUntil(Tick limit);

    /** Execute all events (or up to @p maxEvents as a runaway guard). */
    std::uint64_t run(std::uint64_t maxEvents = ~std::uint64_t(0));

  private:
    /** Heap entry: the ordering fields plus the closure's slot index. */
    struct Key
    {
        Tick when;
        std::uint64_t seq;
        std::int32_t priority;
        std::uint32_t slot;
    };
    static_assert(sizeof(Key) == 24);

    /** Pop the earliest event and run it. */
    void runNext();

    std::vector<Key> heap;
    std::vector<Callback> slots;
    std::vector<std::uint32_t> freeSlots;
    Tick curTick_ = 0;
    std::uint64_t nextSeq = 0;
    std::uint64_t numExecuted = 0;
};

} // namespace mcsim

#endif // MCSIM_SIM_EVENT_QUEUE_HH

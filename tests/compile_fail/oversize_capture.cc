/**
 * @file
 * Must not compile: a capture one byte larger than
 * EventQueue::Callback::capacity. Registered as a ctest case that passes
 * only when the compiler reports the Callback's static_assert.
 */

#include "sim/event_queue.hh"

void
scheduleOversized(mcsim::EventQueue &q)
{
    struct Big
    {
        unsigned char bytes[mcsim::EventQueue::Callback::capacity + 1];
    };
    q.schedule(1, [big = Big{}]() { (void)big; });
}

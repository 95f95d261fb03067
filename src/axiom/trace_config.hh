/**
 * @file
 * Configuration of the axiomatic trace-recording layer (src/axiom/).
 *
 * Kept free of other mcsim headers so core/machine_config.hh can embed a
 * TraceConfig without pulling the recorder implementation into every
 * translation unit (same pattern as check/check_config.hh).
 */

#ifndef MCSIM_AXIOM_TRACE_CONFIG_HH
#define MCSIM_AXIOM_TRACE_CONFIG_HH

#include <cstddef>

namespace mcsim::axiom
{

/**
 * Trace recording is off by default: the recorder stores every shared
 * access for the whole run, which is memory the long workload sweeps
 * do not want to pay. Tests that feed the axiomatic checker switch it on
 * per-machine.
 */
struct TraceConfig
{
    /** Record per-access events for offline axiomatic checking. */
    bool record = false;

    /** Safety valve: fatal() if a single run records more events than
     *  this (a runaway litmus loop would otherwise eat the heap). */
    std::size_t maxEvents = 1u << 24;

    bool enabled() const { return record; }
};

} // namespace mcsim::axiom

#endif // MCSIM_AXIOM_TRACE_CONFIG_HH

/**
 * @file
 * Observability configuration (src/obs/). The stall-cause attribution
 * and the latency histograms are always on -- they are a handful of
 * integer adds per event and feed the sweep/golden stats -- so only the
 * event tracer, whose ring costs memory and a store per span, is
 * configurable here.
 */

#ifndef MCSIM_OBS_OBS_CONFIG_HH
#define MCSIM_OBS_OBS_CONFIG_HH

#include <cstddef>

namespace mcsim::obs
{

/** Per-machine observability settings. */
struct ObsConfig
{
    /** Construct and wire the ring-buffer event tracer. */
    bool tracer = false;
    /** Ring capacity in events; the oldest events are overwritten. */
    std::size_t tracerEvents = std::size_t(1) << 16;
};

} // namespace mcsim::obs

#endif // MCSIM_OBS_OBS_CONFIG_HH

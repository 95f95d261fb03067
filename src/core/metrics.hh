/**
 * @file
 * Derived, paper-facing metrics for one simulation run: run time, hit
 * rates by access type, reference pacing, hot-spot skew -- the quantities
 * Tables 2-9 and Figures 2-9 are built from.
 */

#ifndef MCSIM_CORE_METRICS_HH
#define MCSIM_CORE_METRICS_HH

#include <cstdint>
#include <string>

#include "core/machine.hh"
#include "obs/histogram.hh"
#include "obs/stall.hh"
#include "sim/types.hh"

namespace mcsim::core
{

/** Summary of one completed run. */
struct RunMetrics
{
    Tick cycles = 0;

    /** Per-processor averages (the paper reports per-proc thousands). */
    double readsPerProc = 0;
    double writesPerProc = 0;
    double syncOpsPerProc = 0;

    /** Hit rates over all processors, in [0,1]. */
    double readHitRate = 0;
    double writeHitRate = 0;
    double hitRate = 0;

    std::uint64_t totalReads = 0;
    std::uint64_t totalWrites = 0;
    std::uint64_t totalSyncOps = 0;
    std::uint64_t invalidationMisses = 0;
    std::uint64_t totalMisses = 0;

    std::uint64_t bufferBypasses = 0;
    std::uint64_t prefetchesIssued = 0;
    std::uint64_t prefetchesUseful = 0;
    std::uint64_t releasesDeferred = 0;

    /** Invariant-checker results (zero when checking is disabled). @{ */
    std::uint64_t checkViolations = 0;   ///< all kinds summed
    std::uint64_t checkLineAudits = 0;
    std::uint64_t checkAccessesChecked = 0;
    std::uint64_t checkOrderingChecked = 0;
    /** @} */

    /** Fault injection and recovery (src/fault/); all zero when faults
     *  are off, which the golden baseline checks exactly. @{ */
    std::uint64_t faultsInjected = 0;     ///< FaultStats::total()
    std::uint64_t protocolRetries = 0;    ///< cache re-sends (timeout/NACK)
    std::uint64_t protocolNacks = 0;      ///< NACKs received by caches
    std::uint64_t staleProtocolMsgs = 0;  ///< discarded as stale/duplicate
    /** @} */

    /** Memory-module busy-cycle skew: max/min utilization ratio. */
    double moduleSkew = 1.0;
    /** Mean response-network message latency (cycles). */
    double avgRespLatency = 0;
    /** Mean miss service time seen by the caches (cycles); the
     *  uncontended floor is 18 at 16 processors. */
    double avgMissLatency = 0;
    /** Cycle-weighted busy-MSHR integral summed over all caches. */
    std::uint64_t mshrBusyCycles = 0;
    /** Mean busy MSHRs per processor over the run (in [0, numMshrs]). */
    double avgMshrOccupancy = 0;

    /** Exact stall-cause attribution summed over all processors; per
     *  processor busy + stalls == finishedAt, so machine-wide
     *  breakdown.accounted() + idleCycles == cycles * numProcs. */
    obs::StallBreakdown breakdown;
    /** Cycles after a processor's workload finished, to the run end. */
    std::uint64_t idleCycles = 0;

    /** Merged log2 latency histograms (fixed component order, so the
     *  summaries are identical across sweep thread counts). @{ */
    obs::LatencyHistogram missLatencyHist;  ///< all caches
    obs::LatencyHistogram netTransitHist;   ///< request + response nets
    obs::LatencyHistogram memQueueHist;     ///< all memory modules
    /** @} */

    /** Mean cycles between successive reads / writes (paper Table 9). */
    double cyclesBetweenReads() const
    {
        return readsPerProc > 0 ? static_cast<double>(cycles) / readsPerProc
                                : 0.0;
    }
    double cyclesBetweenWrites() const
    {
        return writesPerProc > 0
                   ? static_cast<double>(cycles) / writesPerProc
                   : 0.0;
    }

    /** Extract from a machine that has finished running. */
    static RunMetrics fromMachine(const Machine &machine, Tick run_ticks);

    /** One compact human-readable line. */
    std::string summary() const;

    /**
     * Flat name -> value export of every field above (names match the
     * member names). This is the canonical machine-readable form of one
     * run: the sweep engine (src/exp/) serializes it to JSON and the
     * golden-baseline checker diffs it metric by metric.
     */
    StatSet toStatSet() const;
};

/**
 * Relative performance gain of a run taking @p other_cycles over one
 * taking @p base_cycles, in percent (the y-axis of paper Figures 4-8):
 * positive when the other run is faster.
 */
double percentGain(Tick base_cycles, Tick other_cycles);

/** Absolute benefit in kilocycles (paper Tables 3-6). */
double absoluteGainKCycles(Tick base_cycles, Tick other_cycles);

} // namespace mcsim::core

#endif // MCSIM_CORE_METRICS_HH

/**
 * @file
 * Full configuration of one simulated machine (paper section 3.1 defaults).
 */

#ifndef MCSIM_CORE_MACHINE_CONFIG_HH
#define MCSIM_CORE_MACHINE_CONFIG_HH

#include <cstdint>
#include <optional>

#include "axiom/trace_config.hh"
#include "check/check_config.hh"
#include "core/consistency.hh"
#include "fault/fault_config.hh"
#include "obs/obs_config.hh"
#include "sim/choice.hh"
#include "sim/types.hh"

namespace mcsim::core
{

/** Machine-wide parameters; validate() is called by Machine. */
struct MachineConfig
{
    /** Processors (paper: 16, plus 32 for Gauss). */
    unsigned numProcs = 16;
    /** Global memory modules (dance-hall: same count as processors). */
    unsigned numModules = 16;

    /** Consistency model the hardware implements. */
    Model model = Model::SC1;
    /** MSHRs for the relaxed models (paper: 5). */
    unsigned relaxedMshrs = 5;

    /** Cache geometry (paper: 16K/64K, 8/16/64-byte lines, 2-way). */
    unsigned cacheBytes = 16 * 1024;
    unsigned lineBytes = 16;
    unsigned assoc = 2;

    /** Delayed-load / branch delay in cycles (paper: 4; section 5.3: 2). */
    unsigned loadDelay = 4;
    unsigned branchDelay = 4;

    /** Interconnect (paper: 4x4 switches, 4-entry interface buffers). */
    unsigned switchRadix = 4;
    unsigned bufferEntries = 4;

    /** Sequential next-line hardware prefetch in every cache (an
     *  extension beyond the paper's SC2 stall prefetch; off by default,
     *  studied by the ablation grid's nlpf variant). */
    bool nextLinePrefetch = false;

    /** Latency calibration (see DESIGN.md): 18-cycle uncontended miss for
     *  16 processors, 20 for 32. @{ */
    unsigned missHandleCycles = 2;
    unsigned fillCycles = 3;
    unsigned memInitCycles = 7;
    /** @} */

    /** Runaway guard: fatal() if simulated time exceeds this. */
    Tick maxCycles = 4'000'000'000ull;

    /** Invariant checking (src/check/): on by default so every test
     *  runs fully audited; sweep points switch it off to keep reported
     *  timings clean. */
    check::CheckConfig check;

    /** Axiomatic trace recording (src/axiom/): off by default -- it
     *  keeps every shared access of the run in memory. The litmus
     *  engine and the axiom tests switch it on per-machine. */
    axiom::TraceConfig trace;

    /** Observability (src/obs/): the timeline event tracer is off by
     *  default; stall attribution and latency histograms are always on. */
    obs::ObsConfig obs;

    /** Fault injection (src/fault/): off by default (perfect hardware,
     *  legacy protocol paths, zero golden drift). The forward-progress
     *  watchdog inside is armed regardless of fault.enable. */
    fault::FaultConfig fault;

    /** When set, use this exact feature set instead of the canonical one
     *  for `model` -- the hook that toggles single hardware features
     *  (the ablation grid's scsb variant turns on the SC store buffer). */
    std::optional<ModelParams> modelOverride;

    /** Model checking (src/mc/): non-owning; when set, the Machine
     *  switches both networks to logical scheduler-driven delivery and
     *  exposes directory waiter order and retry backoff as choice
     *  points (see sim/choice.hh). Null for every normal timed run. */
    ChoiceScheduler *choiceScheduler = nullptr;

    /** fatal() on inconsistent settings. */
    void validate() const;

    /** The feature set to build: the override when present, else the
     *  canonical parameters for `model`. */
    ModelParams modelParams() const
    {
        if (modelOverride)
            return *modelOverride;
        return core::modelParams(model, relaxedMshrs);
    }
};

} // namespace mcsim::core

#endif // MCSIM_CORE_MACHINE_CONFIG_HH

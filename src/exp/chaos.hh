/**
 * @file
 * Chaos harness: the executable fault-transparency property (DESIGN.md
 * section 11).
 *
 * For each grid point it runs a fault-free baseline and a faulted twin
 * (same workload, same seed, a named fault preset) and asserts that the
 * faulted run
 *  - completes (no deadlock, watchdog, or timeout),
 *  - actually exercised the recovery machinery (injections > 0 and, for
 *    presets with loss faults, retries > 0),
 *  - passes the invariant checker with zero violations and -- where the
 *    workload is data-race-free -- the axiomatic trace checker,
 *  - verifies its workload result, and
 *  - reproduces the baseline's result fingerprint
 *    (Workload::resultFingerprint: the full memory image by default;
 *    dynamically scheduled workloads override it to hash their semantic
 *    output region, since scheduling scratch legitimately varies with
 *    timing).
 *
 * Faults may change *when* everything happens, never *what* the program
 * computes.
 */

#ifndef MCSIM_EXP_CHAOS_HH
#define MCSIM_EXP_CHAOS_HH

#include <cstdint>
#include <string>
#include <vector>

#include "exp/grid.hh"
#include "exp/json.hh"

namespace mcsim::exp
{

/** Outcome of one baseline-plus-faulted point pair. */
struct ChaosPointResult
{
    std::string id;       ///< the faulted point's id ("...,/F<preset>")
    bool ok = false;
    /** What broke transparency (fatal message, fingerprint mismatch,
     *  checker violations, no faults landed); empty when ok. */
    std::string error;

    /** Evidence that the run was genuinely perturbed. @{ */
    std::uint64_t faultsInjected = 0;
    std::uint64_t retries = 0;
    std::uint64_t nacks = 0;
    std::uint64_t staleMessages = 0;
    /** @} */

    Tick baselineCycles = 0;
    Tick faultedCycles = 0;
};

/** Results of a chaos sweep over one grid. */
struct ChaosReport
{
    std::string grid;
    std::string preset;
    std::vector<ChaosPointResult> points;

    bool ok() const;
    std::size_t failures() const;
    std::uint64_t totalInjected() const;
    std::uint64_t totalRetries() const;

    /** Multi-line human-readable summary. */
    std::string summary() const;
    /** Machine-readable document ("mcsim-chaos-v1"), the CI artifact. */
    Json toJson() const;
};

/** Chaos sweep options. */
struct ChaosOptions
{
    /** Fault preset applied to every faulted twin. */
    std::string preset = "standard";
    /** Worker threads; 0 = std::thread::hardware_concurrency(). */
    unsigned threads = 0;
    /** Print per-point progress to stderr. */
    bool progress = true;
};

/** Run the property over every point of @p grid. */
ChaosReport runChaos(const Grid &grid, const ChaosOptions &options = {});

} // namespace mcsim::exp

#endif // MCSIM_EXP_CHAOS_HH

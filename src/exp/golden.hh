/**
 * @file
 * Golden-baseline comparison for sweep results documents.
 *
 * A golden file is a committed "mcsim-sweep-v1" document for one grid
 * (tests/golden/<grid>.json). compareToGolden() matches jobs by point
 * id and diffs every metric under the per-metric tolerance policy (a
 * metric present on only one side is a divergence too):
 *
 *  - integral event counters (cycles, reference/miss/sync counts, check
 *    counters) must match exactly -- the simulator is deterministic, so
 *    any drift is a real behavior change;
 *  - derived floating-point metrics (rates, latencies, occupancy, skew)
 *    allow 1e-9 relative error, absorbing only cross-platform
 *    accumulation differences, never model changes.
 *
 * The report names the first divergent (job, metric) pair with expected
 * and actual values, then summarizes the total divergence count, so a
 * perturbed baseline fails CI loudly and readably.
 */

#ifndef MCSIM_EXP_GOLDEN_HH
#define MCSIM_EXP_GOLDEN_HH

#include <string>

#include "exp/json.hh"

namespace mcsim::exp
{

/** Outcome of one golden comparison. */
struct GoldenDiff
{
    bool ok = true;
    /** Divergent (job, metric) pairs found. */
    unsigned divergences = 0;
    /** Human-readable report; names the first divergence in detail. */
    std::string report;
};

/** Relative tolerance for @p metric under the policy above. */
double metricTolerance(const std::string &metric);

/**
 * Compare grid @p grid_name of @p actual (a full results document)
 * against @p golden (the committed document for that grid).
 */
GoldenDiff compareToGolden(const Json &actual, const Json &golden,
                           const std::string &grid_name);

/**
 * Load DIR/<grid>.json and compare. A missing or unparsable golden file
 * is a failed comparison (the report says why).
 */
GoldenDiff checkAgainstGoldenDir(const Json &actual,
                                 const std::string &golden_dir,
                                 const std::string &grid_name);

} // namespace mcsim::exp

#endif // MCSIM_EXP_GOLDEN_HH

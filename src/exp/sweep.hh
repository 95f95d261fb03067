/**
 * @file
 * Parallel sweep engine: fans a Grid of SweepPoints across std::thread
 * workers, one fully isolated Machine per job.
 *
 * Isolation and determinism contract:
 *  - every job builds its own Machine, FunctionalMemory, and workload
 *    from its SweepPoint alone -- no state is shared between jobs, so
 *    results are independent of worker count and scheduling;
 *  - seeds are a pure function of the point (SweepPoint::seed, assigned
 *    by the grid builder, possibly via derivedSeed()) -- never wall
 *    clock;
 *  - a job that throws (FatalError: deadlock, maxCycles timeout budget,
 *    failed verify, rejected axiomatic trace) marks itself failed with
 *    the message and the sweep continues;
 *  - results are reported in grid order, so serializing them yields a
 *    byte-identical document no matter how many threads ran the sweep.
 *
 * Progress (completed count, elapsed, ETA) goes to stderr only; nothing
 * wall-clock-derived enters the results.
 */

#ifndef MCSIM_EXP_SWEEP_HH
#define MCSIM_EXP_SWEEP_HH

#include <cstddef>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "core/metrics.hh"
#include "exp/grid.hh"
#include "exp/json.hh"

namespace mcsim::exp
{

/** Outcome of one sweep job. */
struct JobResult
{
    SweepPoint point;
    bool ok = false;
    /** Failure description (fatal message, verify failure, axiom cycle
     *  witness); empty when ok. */
    std::string error;
    core::RunMetrics metrics;

    /** Axiomatic post-run check (only when point.recordTrace). @{ */
    bool traceChecked = false;
    bool traceAccepted = false;
    std::uint64_t traceEvents = 0;
    std::uint64_t traceEdges = 0;
    /** @} */
};

/** Sweep engine options. */
struct SweepOptions
{
    /** Worker threads; 0 = std::thread::hardware_concurrency(). */
    unsigned threads = 0;
    /** Print per-job progress and ETA to stderr. */
    bool progress = true;
};

/**
 * Per-job completion sink: called once per finished job with the job's
 * grid-global point index. Calls are serialized (one at a time, under a
 * lock), so a sink may append to a checkpoint journal without its own
 * synchronization; completion ORDER is scheduling-dependent, so a sink
 * must never bake it into canonical output (the journal merge orders by
 * index). A sink that throws stops new scheduling; runIndices rethrows
 * its first exception once the jobs in flight have finished.
 */
using JobSink = std::function<void(std::size_t, const JobResult &)>;

/** Thread-pool sweep runner. */
class SweepRunner
{
  public:
    explicit SweepRunner(SweepOptions options = {});

    /** Run every point of @p grid; results in grid order. */
    std::vector<JobResult> run(const Grid &grid) const;

    /**
     * Run only the points of @p grid named by @p indices (the shard-aware
     * entry point: a shard is a subset of grid-global indices). Results
     * come back in @p indices order; failure annotations name the
     * grid-global index out of the full grid size, so a sharded run's
     * error strings are byte-identical to a whole-grid run's.
     */
    std::vector<JobResult>
    runIndices(const Grid &grid, const std::vector<std::size_t> &indices,
               const JobSink &on_complete = {}) const;

    /** Run one point in isolation (what each worker executes). */
    static JobResult runPoint(const SweepPoint &point);

  private:
    SweepOptions opts;
};

/** Results of one or more grids, in insertion order. */
class SweepOutcomes
{
  public:
    void add(const Grid &grid, std::vector<JobResult> results);

    /** Results of grid @p g in grid order; fatal() when not added. */
    const std::vector<JobResult> &gridResults(const std::string &g) const;

    /** The canonical results document (sweepDocument of every grid). */
    Json toJson() const;

    /** documentCsv(toJson()). */
    std::string toCsv() const;

  private:
    std::vector<std::string> order;
    std::vector<std::vector<JobResult>> perGrid;
};

/** Convenience: run @p grid and wrap its results. */
SweepOutcomes runGrid(const Grid &grid, SweepOptions options = {});

/**
 * Canonical serialization of one job, exactly the element the
 * "mcsim-sweep-v1" document's grid arrays hold. Checkpoint journals
 * store its dump, so a merged document is byte-identical to a plain
 * run's.
 */
Json jobToJson(const JobResult &job);

/**
 * The canonical results document, "mcsim-sweep-v1": @p grids in order,
 * each a grid name and its array of jobToJson elements in grid order.
 * The only code that constructs that document, for plain and
 * journaled runs alike.
 */
Json sweepDocument(std::vector<std::pair<std::string, Json>> grids);

/**
 * Flat CSV of a results document: a fixed header row, then one row per
 * job (point identity, status, every RunMetrics value), grids in
 * document order. fatal() if a job lacks a field or metric.
 */
std::string documentCsv(const Json &doc);

} // namespace mcsim::exp

#endif // MCSIM_EXP_SWEEP_HH

/**
 * @file
 * Shard plans: one shard of a journaled sweep, and running it with
 * resume (DESIGN.md section 15).
 *
 * A plan is a pure function of the grid sweep_runner built (overrides
 * and fault preset applied, every point dry-built), the scale, and the
 * K/M shard choice. Every shard process -- on this host or another, now
 * or next week -- therefore derives the identical point list,
 * round-robin membership and fingerprint from the CLI flags alone.
 * Seeds stay the point-derived seeds exp::namedGrid assigned
 * (sim/random.hh fnv1a + splitmix64 over the point id), so a point
 * computes the same result in any shard of any plan.
 */

#ifndef MCSIM_SVC_SHARD_HH
#define MCSIM_SVC_SHARD_HH

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "exp/grid.hh"
#include "exp/sweep.hh"
#include "svc/journal.hh"

namespace mcsim::svc
{

/** Shard K of M of one grid. */
struct ShardPlan
{
    /** The grid exactly as a plain run would execute it. */
    exp::Grid grid;
    exp::Scale scale = exp::Scale::Scaled;
    /** This process's shard K, of shardCount M. @{ */
    std::uint32_t shard = 0;
    std::uint32_t shardCount = 1;
    /** @} */

    /**
     * Identity of the plan: fnv1a over grid name, scale, shard count,
     * and every point id (ids encode benchmark, model, geometry,
     * schedule, seed and fault preset). K is left out, so all M shards
     * share it. Journals carry it, and resume and merge refuse any
     * journal whose fingerprint differs.
     */
    std::uint64_t fingerprint() const;

    /** Grid-global indices owned by shard @p k: round-robin, i.e. all i
     *  with i %% shardCount == k, in grid order. */
    std::vector<std::size_t> shardIndices(std::uint32_t k) const;

    /** The header every journal of shard @p k must carry. */
    JournalHeader journalHeader(std::uint32_t k) const;

    /** @p dir + "/<grid>.sKKK-of-MMM.mcsj" (fixed-width, so a directory
     *  listing sorts in shard order). */
    std::string journalPath(const std::string &dir, std::uint32_t k) const;
};

/**
 * fatal() naming the first journal of @p plan's grid in @p dir, for any
 * shard count, whose header fails requireMatchingHeader: one another
 * plan wrote. A torn header passes (its shard was killed while creating
 * it). Nothing is modified, so calling this before any job runs leaves
 * a stale directory byte-unchanged.
 */
void checkJournals(const ShardPlan &plan, const std::string &dir);

/** What one runShard() call did. */
struct ShardRun
{
    /** Points already journaled when the call started. */
    std::size_t resumedPoints = 0;
    /** Points run and journaled by this call. */
    std::size_t completedPoints = 0;
    /** Of those, jobs that failed (journaled like any other). */
    std::size_t failedJobs = 0;
};

/**
 * Run shard plan.shard on SweepRunner threads, appending one flushed
 * frame per completed point to its journal in @p dir. The resume rule:
 * a valid journal's points are skipped and its torn tail truncated; a
 * missing journal or torn header starts a fresh one. fatal() on a plan
 * mismatch, a corrupt journal, or any write failure (the frames
 * already flushed stay valid for the next call).
 */
ShardRun runShard(const ShardPlan &plan, const std::string &dir,
                  const exp::SweepOptions &options);

} // namespace mcsim::svc

#endif // MCSIM_SVC_SHARD_HH

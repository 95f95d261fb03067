/**
 * @file
 * Journal merge: fold a plan's shard journals into the canonical job
 * array (DESIGN.md section 15).
 *
 * Byte-identity contract: the document sweep_runner builds from the
 * merged array is byte-for-byte the document a plain run over the same
 * grid emits, for ANY shard count and ANY thread count. This works
 * because journal frames store the canonical per-point JSON
 * (exp::jobToJson dumps), the canonical writer is round-trip stable
 * (parse then dump reproduces the bytes), and the merge orders points
 * strictly by grid-global index -- completion order never leaks into
 * the output.
 */

#ifndef MCSIM_SVC_MERGE_HH
#define MCSIM_SVC_MERGE_HH

#include <cstddef>
#include <string>

#include "exp/json.hh"
#include "svc/shard.hh"

namespace mcsim::svc
{

/** What the journals of one plan hold. */
struct MergeResult
{
    /** Points with a frame, over every shard's journal. */
    std::size_t coveredPoints = 0;
    /** Once every point is covered: one exp::jobToJson element per
     *  point, in grid order. Empty until then. */
    exp::Json jobs = exp::Json::array();
};

/**
 * Read all plan.shardCount journals of @p plan in @p dir. A missing
 * journal or torn header covers nothing (its shard has not run, or is
 * still starting); a journal still being written covers the frames it
 * has flushed. fatal() on a plan mismatch, a corrupt journal, or a
 * payload that is not JSON.
 */
MergeResult mergeJournals(const ShardPlan &plan, const std::string &dir);

} // namespace mcsim::svc

#endif // MCSIM_SVC_MERGE_HH

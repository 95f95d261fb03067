#include "svc/merge.hh"

#include <utility>
#include <vector>

#include "sim/logging.hh"

namespace mcsim::svc
{

MergeResult
mergeJournals(const ShardPlan &plan, const std::string &dir)
{
    const std::size_t total = plan.grid.points.size();
    std::vector<std::string> payloads(total);
    MergeResult result;
    for (std::uint32_t k = 0; k < plan.shardCount; ++k) {
        const std::string path = plan.journalPath(dir, k);
        if (!journalExists(path))
            continue;
        JournalScan scan = scanJournal(path);
        if (scan.headerTorn)
            continue;
        requireMatchingHeader(scan.header, plan.journalHeader(k), path);
        // The scan guarantees in-range, shard-owned, in-file unique
        // indices, and ownership is disjoint across shards, so every
        // frame covers a distinct point.
        for (JournalFrame &frame : scan.frames)
            payloads[frame.index] = std::move(frame.payload);
        result.coveredPoints += scan.frames.size();
    }
    if (result.coveredPoints != total)
        return result;

    for (std::size_t i = 0; i < total; ++i) {
        std::string error;
        exp::Json job = exp::Json::parse(payloads[i], &error);
        if (!error.empty())
            fatal("svc: journaled point %zu of grid '%s' is not JSON: %s",
                  i, plan.grid.name.c_str(), error.c_str());
        result.jobs.push(std::move(job));
    }
    return result;
}

} // namespace mcsim::svc

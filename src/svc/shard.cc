#include "svc/shard.hh"

#include <algorithm>
#include <cstdio>

#include <dirent.h>

#include "sim/logging.hh"
#include "sim/random.hh"

namespace mcsim::svc
{

namespace
{

/** Canonical journal file name of shard @p k of @p m. */
std::string
journalFileName(const std::string &grid, unsigned k, unsigned m)
{
    return strprintf("%s.s%03u-of-%03u.mcsj", grid.c_str(), k, m);
}

} // namespace

std::uint64_t
ShardPlan::fingerprint() const
{
    // A canonical self-describing string, hashed: cheap, stable across
    // processes, and any change to what a shard would execute -- point
    // set, order, seeds, partition width -- changes it.
    std::string canon = strprintf(
        "mcsim-sweep-plan-v2|%s|%s|%u|%zu", grid.name.c_str(),
        exp::scaleName(scale), shardCount, grid.points.size());
    for (const exp::SweepPoint &point : grid.points) {
        canon += '|';
        canon += point.id();
    }
    return splitmix64(fnv1a(canon));
}

std::vector<std::size_t>
ShardPlan::shardIndices(std::uint32_t k) const
{
    std::vector<std::size_t> indices;
    for (std::size_t i = k; i < grid.points.size(); i += shardCount)
        indices.push_back(i);
    return indices;
}

JournalHeader
ShardPlan::journalHeader(std::uint32_t k) const
{
    JournalHeader header;
    header.shardIndex = k;
    header.shardCount = shardCount;
    header.gridPoints = static_cast<std::uint32_t>(grid.points.size());
    header.shardPoints = static_cast<std::uint32_t>(shardIndices(k).size());
    header.planFingerprint = fingerprint();
    header.grid = grid.name;
    return header;
}

std::string
ShardPlan::journalPath(const std::string &dir, std::uint32_t k) const
{
    return dir + "/" + journalFileName(grid.name, k, shardCount);
}

void
checkJournals(const ShardPlan &plan, const std::string &dir)
{
    DIR *d = ::opendir(dir.c_str());
    if (d == nullptr)
        return;
    std::vector<std::string> names;
    for (struct dirent *de = ::readdir(d); de != nullptr;
         de = ::readdir(d))
        names.emplace_back(de->d_name);
    ::closedir(d);
    // Sorted, so the file named in the error does not depend on
    // directory hash order.
    std::sort(names.begin(), names.end());

    const std::string prefix = plan.grid.name + ".s";
    for (const std::string &name : names) {
        // Only canonical journal names count, for any shard count (a
        // different count changes the fingerprint); a stray file that
        // merely shares the prefix is not ours to judge.
        unsigned k = 0;
        unsigned m = 0;
        if (name.compare(0, prefix.size(), prefix) != 0 ||
            std::sscanf(name.c_str() + prefix.size(), "%u-of-%u", &k,
                        &m) != 2 ||
            name != journalFileName(plan.grid.name, k, m))
            continue;
        const std::string path = strprintf("%s/%s", dir.c_str(),
                                           name.c_str());
        const JournalScan scan = scanJournal(path);
        if (!scan.headerTorn)
            requireMatchingHeader(scan.header, plan.journalHeader(k), path);
    }
}

ShardRun
runShard(const ShardPlan &plan, const std::string &dir,
         const exp::SweepOptions &options)
{
    const std::string path = plan.journalPath(dir, plan.shard);
    const JournalHeader want = plan.journalHeader(plan.shard);

    // Open-or-create: a valid journal is the resume state; a torn
    // header (killed during creation) is recreated from scratch.
    std::vector<bool> journaled(plan.grid.points.size(), false);
    ShardRun run;
    std::uint64_t valid_bytes = 0;
    bool resuming = false;
    if (journalExists(path)) {
        const JournalScan scan = scanJournal(path);
        if (!scan.headerTorn) {
            requireMatchingHeader(scan.header, want, path);
            for (const JournalFrame &frame : scan.frames)
                journaled[frame.index] = true;
            run.resumedPoints = scan.frames.size();
            valid_bytes = scan.validBytes;
            resuming = true;
            if (options.progress && scan.tornBytes > 0) {
                std::fprintf(stderr,
                             "svc: dropping %llu torn byte(s) from "
                             "'%s'\n",
                             static_cast<unsigned long long>(
                                 scan.tornBytes),
                             path.c_str());
            }
        }
    }
    JournalWriter writer = resuming
                               ? JournalWriter::resume(path, valid_bytes)
                               : JournalWriter::create(path, want);

    std::vector<std::size_t> remaining;
    for (const std::size_t index : plan.shardIndices(plan.shard))
        if (!journaled[index])
            remaining.push_back(index);
    if (options.progress) {
        std::fprintf(stderr, "svc: '%s': %zu journaled, %zu to run\n",
                     path.c_str(), run.resumedPoints, remaining.size());
    }

    // The sink runs under the sweep engine's lock, so the plain
    // counters need no synchronization of their own.
    exp::SweepRunner(options).runIndices(
        plan.grid, remaining,
        [&](std::size_t index, const exp::JobResult &job) {
            writer.append(static_cast<std::uint32_t>(index),
                          exp::jobToJson(job).dump());
            ++run.completedPoints;
            if (!job.ok)
                ++run.failedJobs;
        });
    writer.close();
    return run;
}

} // namespace mcsim::svc

/**
 * @file
 * Determinism contract of the sweep engine (DESIGN.md section 9): the
 * same grid serializes to a byte-identical results document no matter
 * how many worker threads ran it, and re-running a point reproduces its
 * metrics bit-for-bit. These properties are what make exact-match golden
 * baselines (test_golden.cc) possible at all.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "exp/grid.hh"
#include "exp/json.hh"
#include "exp/sweep.hh"
#include "sim/random.hh"

using namespace mcsim;

namespace
{

/** A cross-model slice of the quick grid, small enough to run twice. */
exp::Grid
sliceGrid()
{
    const exp::Grid full = exp::namedGrid("quick", exp::Scale::Quick);
    exp::Grid slice{full.name, {}};
    // Every 3rd point: samples several models and workloads.
    for (std::size_t i = 0; i < full.points.size(); i += 3)
        slice.points.push_back(full.points[i]);
    return slice;
}

exp::SweepOutcomes
runWithThreads(const exp::Grid &grid, unsigned threads)
{
    exp::SweepOptions opts;
    opts.threads = threads;
    opts.progress = false;
    return exp::runGrid(grid, opts);
}

} // namespace

TEST(Determinism, JsonByteIdenticalAcrossThreadCounts)
{
    const exp::Grid grid = sliceGrid();
    const std::string serial = runWithThreads(grid, 1).toJson().dump();
    const std::string threaded = runWithThreads(grid, 4).toJson().dump();
    EXPECT_EQ(serial, threaded);

    const std::string csv1 = runWithThreads(grid, 1).toCsv();
    const std::string csv4 = runWithThreads(grid, 4).toCsv();
    EXPECT_EQ(csv1, csv4);
}

TEST(Determinism, TraceGridIsByteIdenticalAcrossThreadCounts)
{
    // The trace-replay benches hold the same contract as the paper
    // workloads: generators and replay are deterministic, so the grid
    // document is identical at any worker count.
    const exp::Grid full =
        exp::namedGrid("trace-quick", exp::Scale::Quick);
    exp::Grid slice{full.name, {}};
    for (std::size_t i = 0; i < full.points.size(); i += 5)
        slice.points.push_back(full.points[i]);

    const std::string serial = runWithThreads(slice, 1).toJson().dump();
    const std::string threaded =
        runWithThreads(slice, 4).toJson().dump();
    EXPECT_EQ(serial, threaded);
}

TEST(Determinism, RepeatedPointIsBitIdentical)
{
    exp::SweepPoint point;
    point.benchmark = "Qsort";
    point.model = core::Model::WO1;
    point.scale = exp::Scale::Quick;
    point.numProcs = 8;
    point.cacheBytes = 4096;
    point.seed = point.derivedSeed();

    const exp::JobResult a = exp::SweepRunner::runPoint(point);
    const exp::JobResult b = exp::SweepRunner::runPoint(point);
    ASSERT_TRUE(a.ok) << a.error;
    ASSERT_TRUE(b.ok) << b.error;

    const StatSet sa = a.metrics.toStatSet();
    const StatSet sb = b.metrics.toStatSet();
    for (const auto &[name, value] : sa)
        EXPECT_EQ(value, sb.get(name)) << name;
}

TEST(Determinism, SeedIsPureFunctionOfThePoint)
{
    const exp::Grid grid = exp::namedGrid("quick", exp::Scale::Quick);
    for (const exp::SweepPoint &p : grid.points) {
        // Stable: recomputing the derivation gives the assigned seed
        // back (derivedSeed() hashes the seedless id).
        EXPECT_EQ(p.seed, p.derivedSeed());
    }
    // And distinct points get distinct seeds.
    EXPECT_NE(grid.points[0].derivedSeed(), grid.points[1].derivedSeed());
}

namespace
{

std::vector<std::string>
splitCsvLine(const std::string &line)
{
    std::vector<std::string> cells;
    std::string cell;
    for (char c : line) {
        if (c == ',') {
            cells.push_back(std::move(cell));
            cell.clear();
        } else {
            cell += c;
        }
    }
    cells.push_back(std::move(cell));
    return cells;
}

} // namespace

// The CSV export is derived from RunMetrics::toStatSet, so every metric
// added there (MSHR occupancy from the sweep engine PR, the stall-cause
// breakdown and histogram quantiles from src/obs/) must appear as a
// column whose cell matches the StatSet value under the canonical JSON
// number formatting.
TEST(Determinism, CsvCarriesMshrAndObsColumns)
{
    exp::Grid grid{"quick", {sliceGrid().points.front()}};
    const exp::SweepOutcomes outcomes = runWithThreads(grid, 1);
    const std::string csv = outcomes.toCsv();

    const std::size_t eol = csv.find('\n');
    ASSERT_NE(eol, std::string::npos);
    const std::vector<std::string> header =
        splitCsvLine(csv.substr(0, eol));
    const std::size_t eol2 = csv.find('\n', eol + 1);
    ASSERT_NE(eol2, std::string::npos);
    const std::vector<std::string> row =
        splitCsvLine(csv.substr(eol + 1, eol2 - eol - 1));
    ASSERT_EQ(header.size(), row.size());

    const StatSet stats =
        outcomes.gridResults("quick").front().metrics.toStatSet();
    const char *required[] = {
        "mshrBusyCycles",     "avgMshrOccupancy",
        "busyCycles",         "idleCycles",
        "stallLoadMissCycles", "stallStoreMshrCycles",
        "stallBufferCycles",  "stallFenceSyncCycles",
        "stallAcquireCycles", "stallReleaseCycles",
        "missLatencyP50",     "missLatencyMax",
        "netTransitP99",      "memQueueP90",
    };
    for (const char *name : required) {
        std::size_t col = header.size();
        for (std::size_t i = 0; i < header.size(); ++i) {
            if (header[i] == name)
                col = i;
        }
        ASSERT_LT(col, header.size()) << name << " missing from header";
        // Cells reuse the canonical JSON number formatting.
        EXPECT_EQ(row[col], exp::Json(stats.get(name)).dump()) << name;
    }
}

TEST(Determinism, HashPrimitivesAreFixed)
{
    // The seed derivation must never drift: golden baselines embed the
    // seeds. Pin the reference vectors of both primitives.
    EXPECT_EQ(fnv1a(""), 0xcbf29ce484222325ull);
    EXPECT_EQ(fnv1a("a"), 0xaf63dc4c8601ec8cull);
    EXPECT_EQ(splitmix64(0), 0xe220a8397b1dcdafull);
}

/**
 * @file
 * The paper-table report (exp/report.hh), checked against the committed
 * results without running a simulation: results/bench_all.txt must be
 * the report rendered from results/BENCH_sweep.json plus sweep_runner's
 * summary line, and a grid with a missing or failed point must shrink to
 * one line without hiding the other grids. The ablation grid's points
 * are each one named variant of a plain paper point.
 *
 * After a change that moves the numbers, regenerate both files with the
 * command in EXPERIMENTS.md ("Regenerating results").
 */

#include <fstream>
#include <set>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "exp/json.hh"
#include "exp/report.hh"
#include "exp/sweep.hh"
#include "sim/logging.hh"

using namespace mcsim;

namespace
{

std::string
readResult(const std::string &name)
{
    std::ifstream in(std::string(MCSIM_RESULTS_DIR) + "/" + name);
    EXPECT_TRUE(in.good()) << "missing results/" << name;
    std::ostringstream text;
    text << in.rdbuf();
    return text.str();
}

/** The committed results document, parsed once. */
const exp::Json &
committed()
{
    static const exp::Json doc = [] {
        std::string error;
        exp::Json parsed =
            exp::Json::parse(readResult("BENCH_sweep.json"), &error);
        EXPECT_TRUE(error.empty()) << error;
        return parsed;
    }();
    return doc;
}

/** One grid's job array from the committed document. */
exp::Json
committedGrid(const std::string &name)
{
    const exp::Json *grids = committed().find("grids");
    const exp::Json *jobs = grids ? grids->find(name) : nullptr;
    EXPECT_NE(jobs, nullptr) << "results lack grid " << name;
    return jobs ? *jobs : exp::Json::array();
}

/** The MachineConfig fields a sweep point or a variant sets, and the
 *  feature set they build, as one comparable line. */
std::string
describe(const core::MachineConfig &c)
{
    const core::ModelParams m = c.modelParams();
    return strprintf(
        "procs=%u modules=%u model=%s mshrs=%u cache=%u/%u/%u delay=%u/%u "
        "radix=%u buffer=%u nlpf=%d max=%llu check=%d trace=%d fault=%d "
        "tracer=%d override=%d params=%s/%u/%d%d%d%d%d%d%d",
        c.numProcs, c.numModules, core::modelName(c.model), c.relaxedMshrs,
        c.cacheBytes, c.lineBytes, c.assoc, c.loadDelay, c.branchDelay,
        c.switchRadix, c.bufferEntries, c.nextLinePrefetch,
        static_cast<unsigned long long>(c.maxCycles),
        static_cast<int>(c.check.mode), c.trace.record, c.fault.enable,
        c.obs.tracer, c.modelOverride.has_value(), core::modelName(m.model),
        m.numMshrs, m.singleOutstanding, m.blockingLoads, m.prefetchOnStall,
        m.loadBypass, m.releaseConsistent, m.syncDrains,
        m.scStoreBufferRelease);
}

} // namespace

TEST(Report, CommittedResultsRenderBenchAll)
{
    const std::string report = exp::paperReport(committed());
    for (const char *title :
         {"Figure 2 reproduction", "Figure 4 reproduction",
          "Figure 5 reproduction", "Figure 6 reproduction",
          "Figure 7 reproduction", "Figure 8 reproduction",
          "Figure 9 reproduction", "Table 2 / 7 / 8 / 9 reproduction",
          "Tables 3-6 reproduction", "Ablation studies"})
        EXPECT_NE(report.find(title), std::string::npos) << title;
    EXPECT_EQ(report.find("not rendered"), std::string::npos) << report;
    std::size_t jobs = 0;
    for (const auto &[name, grid] : committed().find("grids")->pairs()) {
        (void)name;
        jobs += grid.size();
    }
    // sweep_runner's stdout: the report, a blank line, the summary.
    EXPECT_EQ(readResult("bench_all.txt"),
              report + strprintf("\nsweep_runner: %zu/%zu job(s) ok\n",
                                 jobs, jobs))
        << "results/bench_all.txt is not the report rendered from "
           "results/BENCH_sweep.json; regenerate both";
}

TEST(Report, AblationPointsArePaperPointsWithOneVariant)
{
    const exp::Scale scale = exp::Scale::Scaled;
    const exp::Grid grid = exp::namedGrid("ablation", scale);
    std::set<std::string> ids;
    for (const exp::SweepPoint &point : grid.points)
        ids.insert(point.id());
    EXPECT_EQ(grid.points.size(), 22u);
    EXPECT_EQ(ids.size(), 22u);

    for (const exp::SweepPoint &point : grid.points) {
        exp::SweepPoint plain = point;
        plain.variant.clear();
        EXPECT_EQ(plain.id(),
                  exp::paperPoint(point.benchmark, point.model, scale,
                                  /*big_cache=*/false, /*line_bytes=*/16)
                      .id());
        const std::string &v = point.variant;
        if (v.empty())
            continue;
        EXPECT_EQ(point.id(), plain.id() + "/V" + v);

        // The variant's machine is the plain one with the named field
        // changed; readown and the barrier kinds change the workload.
        core::MachineConfig expected = plain.machineConfig();
        bool machine_variant = true;
        if (v.rfind("mshrs", 0) == 0) {
            expected.relaxedMshrs = std::stoul(v.substr(5));
        } else if (v.rfind("buffer", 0) == 0) {
            expected.bufferEntries = std::stoul(v.substr(6));
        } else if (v.rfind("radix", 0) == 0) {
            expected.switchRadix = std::stoul(v.substr(5));
        } else if (v == "nlpf") {
            expected.nextLinePrefetch = true;
        } else if (v == "scsb") {
            core::ModelParams params = expected.modelParams();
            params.scStoreBufferRelease = true;
            expected.modelOverride = params;
        } else {
            EXPECT_TRUE(v == "readown" || v == "barrier-dissemination" ||
                        v == "barrier-central")
                << v;
            machine_variant = false;
        }
        EXPECT_EQ(describe(point.machineConfig()), describe(expected)) << v;
        if (machine_variant) {
            EXPECT_NE(describe(point.machineConfig()),
                      describe(plain.machineConfig()))
                << v;
        }
    }

    exp::SweepPoint bogus = grid.points.front();
    for (const char *name : {"turbo", "mshrs", "buffer4x", "radix-2"}) {
        bogus.variant = name;
        EXPECT_THROW(bogus.machineConfig(), FatalError) << name;
    }
}

TEST(Report, FailedOrMissingPointShrinksToOneLine)
{
    const exp::Json fig2 = committedGrid("fig2");
    exp::Json fig9 = committedGrid("fig9");
    ASSERT_GT(fig9.size(), 5u);
    exp::Json &job = fig9.elements()[5];
    const std::string id = job.find("id")->asString();
    job["status"] = exp::Json("failed");

    const std::string figure2 =
        exp::paperReport(exp::sweepDocument({{"fig2", fig2}}));
    ASSERT_NE(figure2.find("Figure 2 reproduction"), std::string::npos);
    std::string report;
    ASSERT_NO_THROW(report = exp::paperReport(
                        exp::sweepDocument({{"fig2", fig2}, {"fig9", fig9}})));
    EXPECT_EQ(report, figure2 + "\nfig9: tables not rendered: point " + id +
                          " failed\n");

    // A point the grid lacks (an override such as --procs changed its
    // id) names the point the same way.
    fig9.elements().erase(fig9.elements().begin() + 5);
    EXPECT_EQ(exp::paperReport(exp::sweepDocument({{"fig9", fig9}})),
              "fig9: tables not rendered: point " + id + " is missing\n");
}

TEST(Report, NonPaperGridsRenderNothing)
{
    EXPECT_EQ(exp::paperReport(exp::sweepDocument(
                  {{"quick", committedGrid("quick")}})),
              "");
}

TEST(Report, CacheLabelsFollowTheScale)
{
    EXPECT_EQ(exp::cacheLabel(exp::Scale::Quick, false), "4K (16K-eq)");
    EXPECT_EQ(exp::cacheLabel(exp::Scale::Quick, true), "8K (64K-eq)");
    EXPECT_EQ(exp::cacheLabel(exp::Scale::Scaled, false), "8K (16K-eq)");
    EXPECT_EQ(exp::cacheLabel(exp::Scale::Scaled, true), "32K (64K-eq)");
    EXPECT_EQ(exp::cacheLabel(exp::Scale::Full, false), "16K");
    EXPECT_EQ(exp::cacheLabel(exp::Scale::Full, true), "64K");
}

/**
 * @file
 * The paper-table report (exp/report.hh), checked against the committed
 * results without running a simulation: rendering
 * results/BENCH_sweep.json must reproduce every table in
 * results/bench_all.txt verbatim, and a grid with a missing or failed
 * point must shrink to one line without hiding the other grids.
 *
 * After a change that moves the numbers, regenerate both files with the
 * command in EXPERIMENTS.md ("Regenerating results").
 */

#include <fstream>
#include <sstream>

#include <gtest/gtest.h>

#include "exp/json.hh"
#include "exp/report.hh"
#include "exp/sweep.hh"

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

} // namespace

TEST(Report, CommittedResultsRenderBenchAll)
{
    const std::string report = exp::paperReport(committed());
    for (const char *title :
         {"Figure 2 reproduction", "Figure 4 reproduction",
          "Figure 5 reproduction", "Figure 6 reproduction",
          "Figure 7 reproduction", "Figure 8 reproduction",
          "Figure 9 reproduction", "Table 2 / 7 / 8 / 9 reproduction",
          "Tables 3-6 reproduction"})
        EXPECT_NE(report.find(title), std::string::npos) << title;
    EXPECT_EQ(report.find("not rendered"), std::string::npos) << report;
    EXPECT_NE(readResult("bench_all.txt").find(report), std::string::npos)
        << "results/bench_all.txt does not hold the tables rendered from "
           "results/BENCH_sweep.json; regenerate both";
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

/**
 * @file
 * Golden-baseline regression tests: the quick grid (all seven
 * consistency models x the four paper workloads at one small
 * configuration, per-point derived seeds) must reproduce the committed
 * tests/golden/quick.json cycle-for-cycle. The simulator is
 * deterministic, so integral counters match exactly; derived doubles get
 * 1e-9 relative slack only.
 *
 * Regenerate the baseline after an intentional behavior change with:
 *   sweep_runner --grid quick --golden-out tests/golden
 */

#include <fstream>
#include <sstream>

#include <gtest/gtest.h>

#include "exp/golden.hh"
#include "exp/grid.hh"
#include "exp/sweep.hh"

using namespace mcsim;

namespace
{

/** The quick sweep, run once and shared across tests. */
const exp::SweepOutcomes &
quickOutcomes()
{
    static const exp::SweepOutcomes out = [] {
        exp::SweepOptions opts;
        opts.progress = false;
        return exp::runGrid(exp::namedGrid("quick", exp::Scale::Quick),
                            opts);
    }();
    return out;
}

exp::Json
loadGolden()
{
    std::ifstream in(std::string(MCSIM_GOLDEN_DIR) + "/quick.json");
    EXPECT_TRUE(in.good()) << "missing golden file";
    std::ostringstream text;
    text << in.rdbuf();
    std::string error;
    exp::Json doc = exp::Json::parse(text.str(), &error);
    EXPECT_TRUE(error.empty()) << error;
    return doc;
}

} // namespace

TEST(Golden, QuickGridMatchesCommittedBaseline)
{
    const exp::GoldenDiff diff = exp::checkAgainstGoldenDir(
        quickOutcomes().toJson(), MCSIM_GOLDEN_DIR, "quick");
    EXPECT_TRUE(diff.ok) << diff.report;
    EXPECT_EQ(diff.divergences, 0u);
}

TEST(Golden, CycleCountsMatchExactly)
{
    // Belt-and-braces on top of the full diff: cycle counts under the
    // fixed per-point seeds are bitwise-reproducible, not just close.
    const exp::Json golden = loadGolden();
    const exp::Json *grids = golden.find("grids");
    ASSERT_NE(grids, nullptr);
    const exp::Json *jobs = grids->find("quick");
    ASSERT_NE(jobs, nullptr);
    ASSERT_EQ(jobs->size(), 28u);  // 7 models x 4 workloads

    const auto &results = quickOutcomes().gridResults("quick");
    ASSERT_EQ(results.size(), jobs->size());
    for (std::size_t i = 0; i < jobs->size(); ++i) {
        const exp::Json &job = jobs->at(i);
        ASSERT_NE(job.find("id"), nullptr);
        ASSERT_EQ(job.find("id")->asString(), results[i].point.id());
        EXPECT_TRUE(results[i].ok) << results[i].error;
        const exp::Json *metrics = job.find("metrics");
        ASSERT_NE(metrics, nullptr);
        ASSERT_NE(metrics->find("cycles"), nullptr);
        EXPECT_EQ(static_cast<double>(results[i].metrics.cycles),
                  metrics->find("cycles")->asNumber())
            << "cycle drift in " << results[i].point.id();
    }
}

TEST(Golden, TraceQuickGridMatchesCommittedBaseline)
{
    // The trace-replay counterpart of the quick baseline: all seven
    // models x the four synthetic generators. Regenerate after an
    // intentional change with:
    //   sweep_runner --grid trace-quick --golden-out tests/golden
    exp::SweepOptions opts;
    opts.progress = false;
    const exp::SweepOutcomes out = exp::runGrid(
        exp::namedGrid("trace-quick", exp::Scale::Quick), opts);
    ASSERT_EQ(out.gridResults("trace-quick").size(), 28u);
    const exp::GoldenDiff diff = exp::checkAgainstGoldenDir(
        out.toJson(), MCSIM_GOLDEN_DIR, "trace-quick");
    EXPECT_TRUE(diff.ok) << diff.report;
    EXPECT_EQ(diff.divergences, 0u);
}

TEST(Golden, PerturbedBaselineNamesFirstDivergentMetric)
{
    exp::Json golden = loadGolden();
    exp::Json &job = golden["grids"]["quick"].elements().at(0);
    const std::string id = job["id"].asString();
    job["metrics"]["cycles"] =
        exp::Json(job["metrics"]["cycles"].asNumber() + 1);

    const exp::GoldenDiff diff =
        exp::compareToGolden(quickOutcomes().toJson(), golden, "quick");
    EXPECT_FALSE(diff.ok);
    EXPECT_GE(diff.divergences, 1u);
    EXPECT_NE(diff.report.find("cycles"), std::string::npos)
        << diff.report;
    EXPECT_NE(diff.report.find(id), std::string::npos) << diff.report;
}

TEST(Golden, MetricMissingFromGoldenIsReported)
{
    // A metric the results report but the golden lacks is a divergence,
    // so the committed file cannot silently fall behind the metric set.
    exp::Json golden = loadGolden();
    exp::Json &job = golden["grids"]["quick"].elements().at(0);
    const std::string id = job["id"].asString();
    exp::Json trimmed = exp::Json::object();
    for (const auto &[metric, value] : job["metrics"].pairs())
        if (metric != "protocolNacks")
            trimmed[metric] = value;
    job["metrics"] = std::move(trimmed);

    const exp::GoldenDiff diff =
        exp::compareToGolden(quickOutcomes().toJson(), golden, "quick");
    EXPECT_FALSE(diff.ok);
    EXPECT_EQ(diff.divergences, 1u) << diff.report;
    EXPECT_NE(diff.report.find("protocolNacks: missing from the golden"),
              std::string::npos)
        << diff.report;
    EXPECT_NE(diff.report.find(id), std::string::npos) << diff.report;
}

TEST(Golden, TolerancePolicy)
{
    // Event counters are exact; derived doubles get 1e-9 relative.
    EXPECT_EQ(exp::metricTolerance("cycles"), 0.0);
    EXPECT_EQ(exp::metricTolerance("totalMisses"), 0.0);
    EXPECT_EQ(exp::metricTolerance("mshrBusyCycles"), 0.0);
    EXPECT_EQ(exp::metricTolerance("avgMissLatency"), 1e-9);
    EXPECT_EQ(exp::metricTolerance("hitRate"), 1e-9);
}

TEST(Golden, MissingGoldenFileFailsLoudly)
{
    const exp::GoldenDiff diff = exp::checkAgainstGoldenDir(
        quickOutcomes().toJson(), MCSIM_GOLDEN_DIR, "no_such_grid");
    EXPECT_FALSE(diff.ok);
    EXPECT_NE(diff.report.find("no_such_grid"), std::string::npos);
}

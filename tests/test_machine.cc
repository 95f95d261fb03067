/**
 * @file
 * Machine-level tests: configuration validation, model feature mapping,
 * runaway/deadlock guards, and stat aggregation.
 */

#include <gtest/gtest.h>

#include "core/consistency.hh"
#include "core/machine.hh"
#include "core/metrics.hh"
#include "sim/task.hh"

using namespace mcsim;
using core::Model;

TEST(ModelParams, PaperFeatureMatrix)
{
    const auto sc1 = core::modelParams(Model::SC1);
    EXPECT_TRUE(sc1.singleOutstanding);
    EXPECT_FALSE(sc1.blockingLoads);
    EXPECT_FALSE(sc1.prefetchOnStall);
    EXPECT_FALSE(sc1.loadBypass);
    EXPECT_FALSE(sc1.releaseConsistent);

    const auto sc2 = core::modelParams(Model::SC2);
    EXPECT_TRUE(sc2.prefetchOnStall);
    EXPECT_GT(sc2.numMshrs, sc1.numMshrs);

    const auto wo1 = core::modelParams(Model::WO1);
    EXPECT_FALSE(wo1.singleOutstanding);
    EXPECT_TRUE(wo1.syncDrains);
    EXPECT_EQ(wo1.numMshrs, 5u);  // paper: five MSHRs

    const auto wo2 = core::modelParams(Model::WO2);
    EXPECT_TRUE(wo2.loadBypass);
    EXPECT_TRUE(wo2.syncDrains);

    const auto rc = core::modelParams(Model::RC);
    EXPECT_TRUE(rc.releaseConsistent);
    EXPECT_FALSE(rc.syncDrains);
    EXPECT_EQ(rc.numMshrs, 5u);

    EXPECT_TRUE(core::modelParams(Model::BSC1).blockingLoads);
    EXPECT_TRUE(core::modelParams(Model::BWO1).blockingLoads);

    EXPECT_EQ(core::modelParams(Model::WO1, 8).numMshrs, 8u);
}

TEST(ModelParams, NamesRoundTrip)
{
    for (Model m : core::allModels)
        EXPECT_EQ(core::modelFromName(core::modelName(m)), m);
    EXPECT_THROW(core::modelFromName("SC3"), FatalError);
}

TEST(ModelParams, SequentialConsistencyClassification)
{
    EXPECT_TRUE(core::isSequentiallyConsistent(Model::SC1));
    EXPECT_TRUE(core::isSequentiallyConsistent(Model::SC2));
    EXPECT_TRUE(core::isSequentiallyConsistent(Model::BSC1));
    EXPECT_FALSE(core::isSequentiallyConsistent(Model::WO1));
    EXPECT_FALSE(core::isSequentiallyConsistent(Model::RC));
}

TEST(MachineConfig, Validation)
{
    core::MachineConfig cfg;
    cfg.numProcs = 0;
    EXPECT_THROW(cfg.validate(), FatalError);
    cfg = {};
    cfg.numModules = 12;  // not a power of two
    EXPECT_THROW(cfg.validate(), FatalError);
    cfg = {};
    cfg.switchRadix = 1;
    EXPECT_THROW(cfg.validate(), FatalError);
    cfg = {};
    cfg.loadDelay = 0;
    EXPECT_THROW(cfg.validate(), FatalError);
    cfg = {};
    EXPECT_NO_THROW(cfg.validate());
}

TEST(Machine, RunWithoutWorkloadsIsFatal)
{
    core::MachineConfig cfg;
    cfg.numProcs = 2;
    cfg.numModules = 2;
    core::Machine m(cfg);
    EXPECT_THROW(m.run(), FatalError);
}

TEST(Machine, StartWorkloadOutOfRangeIsFatal)
{
    core::MachineConfig cfg;
    cfg.numProcs = 2;
    cfg.numModules = 2;
    core::Machine m(cfg);
    auto task = [](cpu::Processor &p) -> SimTask { co_await p.exec(1); };
    EXPECT_THROW(m.startWorkload(5, task(m.proc(0))), FatalError);
}

TEST(Machine, MaxCyclesGuardsLivelock)
{
    core::MachineConfig cfg;
    cfg.numProcs = 1;
    cfg.numModules = 1;
    cfg.maxCycles = 5000;
    core::Machine m(cfg);
    // A spin loop that never terminates.
    m.startWorkload(0, [](cpu::Processor &p) -> SimTask {
        for (;;)
            co_await p.exec(10);
    }(m.proc(0)));
    EXPECT_THROW(m.run(), FatalError);
}

TEST(Machine, RunReturnsLastFinishTick)
{
    core::MachineConfig cfg;
    cfg.numProcs = 2;
    cfg.numModules = 2;
    core::Machine m(cfg);
    auto worker = [](cpu::Processor &p, unsigned n) -> SimTask {
        co_await p.exec(n);
    };
    m.startWorkload(0, worker(m.proc(0), 100));
    m.startWorkload(1, worker(m.proc(1), 500));
    EXPECT_EQ(m.run(), 500u);
}

TEST(Metrics, PercentGain)
{
    EXPECT_DOUBLE_EQ(core::percentGain(1000, 800), 20.0);
    EXPECT_DOUBLE_EQ(core::absoluteGainKCycles(1000, 800), 0.2);
    EXPECT_DOUBLE_EQ(core::percentGain(1000, 1100), -10.0);
    EXPECT_DOUBLE_EQ(core::percentGain(0, 800), 0.0);
}

TEST(Metrics, SummaryMentionsKeyNumbers)
{
    core::RunMetrics m;
    m.cycles = 1234;
    m.readsPerProc = 10;
    m.hitRate = 0.5;
    const std::string s = m.summary();
    EXPECT_NE(s.find("1234"), std::string::npos);
    EXPECT_NE(s.find("0.5"), std::string::npos);
}

TEST(Machine, WorkloadExceptionPropagates)
{
    core::MachineConfig cfg;
    cfg.numProcs = 1;
    cfg.numModules = 1;
    core::Machine m(cfg);
    m.startWorkload(0, [](cpu::Processor &p) -> SimTask {
        co_await p.exec(10);
        throw std::runtime_error("workload bug");
    }(m.proc(0)));
    EXPECT_THROW(m.run(), std::runtime_error);
}

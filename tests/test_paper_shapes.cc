/**
 * @file
 * Executable versions of the paper's headline qualitative findings, at
 * reduced sizes so they run in seconds. These are the regression tests
 * that keep the reproduction honest: if a change to the simulator breaks
 * one of the paper's shapes, it fails here before it reaches the paper
 * tables.
 */

#include <gtest/gtest.h>

#include "core/machine_config.hh"
#include "core/metrics.hh"
#include "workloads/gauss.hh"
#include "workloads/qsort.hh"
#include "workloads/relax.hh"
#include "workloads/workload.hh"

using namespace mcsim;
using core::Model;
using core::percentGain;

namespace
{

core::MachineConfig
paperConfig(Model m, unsigned line, unsigned cache = 4096)
{
    core::MachineConfig cfg;
    cfg.numProcs = 16;
    cfg.numModules = 16;
    cfg.model = m;
    cfg.cacheBytes = cache;
    cfg.lineBytes = line;
    cfg.maxCycles = 2'000'000'000ull;
    return cfg;
}

Tick
gaussCycles(Model m, unsigned line, unsigned n = 96, unsigned cache = 4096)
{
    workloads::GaussParams p;
    p.n = n;
    workloads::GaussWorkload w(p);
    return workloads::runWorkload(w, paperConfig(m, line, cache))
        .metrics.cycles;
}

} // namespace

TEST(PaperShapes, GaussGainsDecreaseWithLineSize)
{
    // Figure 4, Gauss: the smaller the line (the lower the hit rate),
    // the bigger the relaxed-model gain.
    const double g8 =
        percentGain(gaussCycles(Model::SC1, 8), gaussCycles(Model::WO1, 8));
    const double g16 = percentGain(gaussCycles(Model::SC1, 16),
                                   gaussCycles(Model::WO1, 16));
    const double g64 = percentGain(gaussCycles(Model::SC1, 64),
                                   gaussCycles(Model::WO1, 64));
    EXPECT_GT(g8, g16);
    EXPECT_GT(g16, g64);
    EXPECT_GT(g8, 15.0);  // substantial benefit at 8-byte lines
    EXPECT_GT(g64, 0.0);
}

TEST(PaperShapes, RcAndWo1AreEquivalent)
{
    // Section 4.2.2: "in all of the runs RC and WO1 performed in a
    // similar manner", RC at most slightly better.
    const Tick wo1 = gaussCycles(Model::WO1, 16);
    const Tick rc = gaussCycles(Model::RC, 16);
    const double diff = percentGain(wo1, rc);
    EXPECT_GT(diff, -2.0);
    EXPECT_LT(diff, 5.0);
}

TEST(PaperShapes, Wo2BypassingIsNotWorthwhile)
{
    // Section 4.2.3: bypassing produced "no difference in performance".
    const Tick wo1 = gaussCycles(Model::WO1, 16);
    const Tick wo2 = gaussCycles(Model::WO2, 16);
    const double diff =
        100.0 * std::abs(static_cast<double>(wo1) -
                         static_cast<double>(wo2)) /
        static_cast<double>(wo1);
    EXPECT_LT(diff, 4.0);
}

TEST(PaperShapes, Sc2PrefetchIsMarginalForGauss)
{
    // Section 4.2.4: "very little benefit in prefetching one line when a
    // processor is stalled" -- much less than the relaxed models buy.
    const Tick sc1 = gaussCycles(Model::SC1, 16);
    const Tick sc2 = gaussCycles(Model::SC2, 16);
    const Tick wo1 = gaussCycles(Model::WO1, 16);
    EXPECT_LT(percentGain(sc1, sc2), 0.6 * percentGain(sc1, wo1));
}

TEST(PaperShapes, GaussGainsCollapseWhenDataFitsCache)
{
    // Figure 5: with the large cache the hit rates are uniformly high
    // and "the benefits never reach 2%" (we allow a looser bound at the
    // reduced test size).
    const double small_gain =
        percentGain(gaussCycles(Model::SC1, 16, 96, 2048),
                    gaussCycles(Model::WO1, 16, 96, 2048));
    const double big_gain =
        percentGain(gaussCycles(Model::SC1, 16, 96, 64 * 1024),
                    gaussCycles(Model::WO1, 16, 96, 64 * 1024));
    EXPECT_LT(big_gain, 0.6 * small_gain);
}

TEST(PaperShapes, QsortSixtyFourByteLinesSlowest)
{
    // Figure 2: Qsort's 64-byte configuration is the slowest despite its
    // higher hit rate (sharing traffic + line-proportional occupancy).
    auto qsort_cycles = [&](unsigned line) {
        workloads::QsortParams p;
        p.n = 16384;
        p.parallelCutoff = 4096;
        workloads::QsortWorkload w(p);
        return workloads::runWorkload(w, paperConfig(Model::SC1, line))
            .metrics.cycles;
    };
    const Tick c16 = qsort_cycles(16);
    const Tick c64 = qsort_cycles(64);
    EXPECT_GT(c64, c16);
}

TEST(PaperShapes, RelaxGainsAreSmall)
{
    // Section 4.1.3: "Relax obtains very little benefit from the relaxed
    // models. The largest gain is 5%."
    auto relax_cycles = [&](Model m) {
        workloads::RelaxParams p;
        p.interior = 96;
        p.iterations = 2;
        workloads::RelaxWorkload w(p);
        return workloads::runWorkload(w, paperConfig(m, 16))
            .metrics.cycles;
    };
    const double g =
        percentGain(relax_cycles(Model::SC1), relax_cycles(Model::WO1));
    EXPECT_LT(g, 10.0);
    EXPECT_GT(g, -2.0);
}

TEST(PaperShapes, BlockingLoadsCaptureGaussWriteLatency)
{
    // Figure 7, Gauss at the small cache: part of WO1's gain survives
    // with blocking loads (write latency), but non-blocking loads add a
    // substantial further step.
    const Tick bsc1 = gaussCycles(Model::BSC1, 16);
    const Tick bwo1 = gaussCycles(Model::BWO1, 16);
    const Tick wo1 = gaussCycles(Model::WO1, 16);
    EXPECT_GT(percentGain(bsc1, bwo1), 0.0);
    EXPECT_GT(percentGain(bsc1, wo1), percentGain(bsc1, bwo1));
}

TEST(PaperShapes, ThirtyTwoProcessorsStillGain)
{
    // Figure 6: the relaxed models keep their benefit at 32 processors
    // (with one extra network stage).
    workloads::GaussParams p;
    p.n = 96;
    auto cfg = paperConfig(Model::SC1, 16);
    cfg.numProcs = 32;
    cfg.numModules = 32;
    workloads::GaussWorkload w1(p);
    const Tick sc1 = workloads::runWorkload(w1, cfg).metrics.cycles;
    cfg.model = Model::WO1;
    workloads::GaussWorkload w2(p);
    const Tick wo1 = workloads::runWorkload(w2, cfg).metrics.cycles;
    EXPECT_GT(percentGain(sc1, wo1), 10.0);
}

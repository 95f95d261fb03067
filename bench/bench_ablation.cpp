/**
 * @file
 * Ablation benches for the design choices DESIGN.md calls out. Each
 * section varies exactly one machine or model parameter around the paper
 * configuration and reports Gauss (or the named workload) run time:
 *
 *   1. MSHR count for the relaxed models (paper: 5)
 *   2. Interface buffer depth (paper: 4 entries)
 *   3. WO2 load bypassing on/off
 *   4. The SC store-buffer release reading (see ModelParams)
 *   5. SC2 prefetch permission mode is exercised implicitly (shared for
 *      loads, exclusive for stores) -- reported as prefetch utility
 *   6. Switch arity 2x2 vs 4x4 (stage count vs per-stage contention)
 *   7. Barrier implementation: dissemination vs central lock-based
 *
 * Usage: bench_ablation [--full]
 */

#include "bench_common.hh"

#include "exp/report.hh"
#include "workloads/gauss.hh"
#include "workloads/synthetic.hh"

using namespace mcsim;
using namespace mcsim::bench;

namespace
{

double
mcyc(const core::RunMetrics &m)
{
    return static_cast<double>(m.cycles) / 1e6;
}

} // namespace

int
main(int argc, char **argv)
{
    const BenchArgs args = parseBenchArgs(argc, argv);
    const bool full = isFull(args);

    std::printf("Ablation studies (Gauss, 16 procs, %s caches, 16B "
                "lines)\n",
                exp::cacheLabel(args.scale, false).c_str());
    printHeaderRule();

    // 1. MSHR count under WO1.
    std::printf("\n[1] WO1 MSHR count (paper: 5)\n%-8s %12s\n", "mshrs",
                "Mcycles");
    for (unsigned mshrs : {1u, 2u, 3u, 5u, 8u, 16u}) {
        auto cfg = baseConfig(args);
        cfg.model = core::Model::WO1;
        cfg.relaxedMshrs = mshrs;
        std::printf("%-8u %12.3f\n", mshrs, mcyc(run("Gauss", cfg, args)));
    }

    // 2. Interface buffer depth.
    std::printf("\n[2] Interface buffer depth (paper: 4)\n%-8s %12s\n",
                "entries", "Mcycles");
    for (unsigned depth : {1u, 2u, 4u, 8u, 16u}) {
        auto cfg = baseConfig(args);
        cfg.model = core::Model::WO1;
        cfg.bufferEntries = depth;
        std::printf("%-8u %12.3f\n", depth, mcyc(run("Gauss", cfg, args)));
    }

    // 3. Load bypassing (WO1 vs WO2) on a store-heavy stream.
    std::printf("\n[3] WO2 load bypassing (Qsort)\n%-10s %12s\n", "bypass",
                "Mcycles");
    for (bool bypass : {false, true}) {
        auto cfg = baseConfig(args);
        cfg.model = bypass ? core::Model::WO2 : core::Model::WO1;
        std::printf("%-10s %12.3f\n", bypass ? "on (WO2)" : "off (WO1)",
                    mcyc(run("Qsort", cfg, args)));
    }

    // 4. SC store-buffer release.
    std::printf("\n[4] SC1 store-buffer release (Relax)\n%-10s %12s\n",
                "buffered", "Mcycles");
    for (bool buffered : {true, false}) {
        auto cfg = baseConfig(args);
        cfg.model = core::Model::SC1;
        auto mp = core::modelParams(core::Model::SC1);
        mp.scStoreBufferRelease = buffered;
        cfg.modelOverride = mp;
        std::printf("%-10s %12.3f\n", buffered ? "on" : "off",
                    mcyc(run("Relax", cfg, args)));
    }

    // 5. SC2 prefetch utility.
    {
        auto cfg = baseConfig(args);
        cfg.model = core::Model::SC2;
        const auto m = run("Gauss", cfg, args);
        std::printf("\n[5] SC2 prefetches: issued=%llu useful=%llu "
                    "(%.0f%%)\n",
                    (unsigned long long)m.prefetchesIssued,
                    (unsigned long long)m.prefetchesUseful,
                    m.prefetchesIssued
                        ? 100.0 * static_cast<double>(m.prefetchesUseful) /
                              static_cast<double>(m.prefetchesIssued)
                        : 0.0);
    }

    // 6. Switch arity.
    std::printf("\n[6] Switch arity (paper: 4x4)\n%-8s %12s\n", "radix",
                "Mcycles");
    for (unsigned radix : {2u, 4u}) {
        auto cfg = baseConfig(args);
        cfg.model = core::Model::WO1;
        cfg.switchRadix = radix;
        std::printf("%ux%u      %12.3f\n", radix, radix,
                    mcyc(run("Gauss", cfg, args)));
    }

    // 7b. Sequential next-line prefetch (extension; paper conclusion
    // suggests combining relaxed consistency with better prefetching).
    std::printf("\n[8] Next-line prefetch (Gauss)\n%-14s %-8s %12s\n",
                "model", "nlpf", "Mcycles");
    for (core::Model model : {core::Model::SC1, core::Model::WO1}) {
        for (bool nlpf : {false, true}) {
            auto cfg = baseConfig(args);
            cfg.model = model;
            cfg.nextLinePrefetch = nlpf;
            std::printf("%-14s %-8s %12.3f\n", core::modelName(model),
                        nlpf ? "on" : "off",
                        mcyc(run("Gauss", cfg, args)));
        }
    }

    // 9. Read-with-ownership for Gauss's own-row loads (paper 3.3).
    std::printf("\n[9] Gauss read-with-ownership (WO1)\n%-8s %12s\n",
                "readOwn", "Mcycles");
    for (bool own : {false, true}) {
        workloads::GaussParams gp;
        gp.n = full ? 250 : 150;
        gp.readOwn = own;
        workloads::GaussWorkload w(gp);
        auto cfg = baseConfig(args);
        cfg.model = core::Model::WO1;
        const auto r = workloads::runWorkload(w, cfg);
        std::printf("%-8s %12.3f\n", own ? "on" : "off",
                    mcyc(r.metrics));
    }

    // 7. Barrier implementation (synthetic barrier-heavy stream).
    std::printf("\n[7] Barrier implementation (barrier-heavy synthetic)\n"
                "%-15s %12s\n",
                "barrier", "Mcycles");
    for (auto kind : {cpu::BarrierKind::Dissemination,
                      cpu::BarrierKind::Central}) {
        workloads::SyntheticParams p;
        p.refsPerProc = 4000;
        p.barrierEvery = 100;
        p.privateWords = 1024;
        p.barrierKind = kind;
        workloads::SyntheticWorkload w(p);
        auto cfg = baseConfig(args);
        cfg.model = core::Model::WO1;
        const auto r = workloads::runWorkload(w, cfg);
        std::printf("%-15s %12.3f\n",
                    kind == cpu::BarrierKind::Central ? "central"
                                                      : "dissemination",
                    mcyc(r.metrics));
    }
    return 0;
}

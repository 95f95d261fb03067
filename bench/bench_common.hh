/**
 * @file
 * Single-run helpers shared by bench_ablation and bench_micro: the
 * paper's baseline machine and its benchmarks at a chosen scale, for
 * runs that vary machine parameters (MSHR count, buffer depth, switch
 * radix, model overrides) the declarative grids deliberately do not
 * span. The paper's tables and figures are sweep grids instead,
 * printed by `sweep_runner --grid NAME` (src/exp/report.hh).
 *
 * Scaling (DESIGN.md / EXPERIMENTS.md): problem sizes and cache sizes
 * shrink together so every benchmark stays in the same fits/doesn't-fit
 * regime the paper analyses. "Small" cache means the paper's 16K (8K
 * scaled); "large" means 64K (32K scaled).
 */

#ifndef MCSIM_BENCH_COMMON_HH
#define MCSIM_BENCH_COMMON_HH

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>

#include "core/metrics.hh"
#include "exp/grid.hh"
#include "workloads/workload.hh"

namespace mcsim::bench
{

/** Bench command line: [--full]. */
struct BenchArgs
{
    exp::Scale scale = exp::Scale::Scaled;
};

inline BenchArgs
parseBenchArgs(int argc, char **argv)
{
    BenchArgs args;
    for (int i = 1; i < argc; ++i) {
        if (!std::strcmp(argv[i], "--full")) {
            args.scale = exp::Scale::Full;
        } else {
            std::fprintf(stderr, "usage: %s [--full]\n", argv[0]);
            std::exit(2);
        }
    }
    return args;
}

inline bool
isFull(const BenchArgs &args)
{
    return args.scale == exp::Scale::Full;
}

/** Baseline paper machine (16 processors, 4x4 switches). */
inline core::MachineConfig
baseConfig(const BenchArgs &args, unsigned procs = 16)
{
    core::MachineConfig cfg;
    cfg.numProcs = procs;
    cfg.numModules = procs;
    cfg.cacheBytes = exp::smallCache(args.scale);
    cfg.lineBytes = 16;
    // Ablation timings are reported; invariant checking stays off here
    // (tests and bench_micro run with it on).
    cfg.check.mode = check::CheckMode::Off;
    return cfg;
}

/** Build one of the paper's benchmarks at the chosen scale. */
inline std::unique_ptr<workloads::Workload>
makeWorkload(const std::string &name, exp::Scale scale)
{
    exp::SweepPoint point;
    point.benchmark = name;
    point.scale = scale;
    return point.makeWorkload();
}

/** Run one benchmark on one hand-built configuration. */
inline core::RunMetrics
run(const std::string &name, const core::MachineConfig &cfg,
    const BenchArgs &args)
{
    auto w = makeWorkload(name, args.scale);
    return workloads::runWorkload(*w, cfg).metrics;
}

inline void
printHeaderRule()
{
    std::printf("--------------------------------------------------------"
                "----------------------\n");
}

} // namespace mcsim::bench

#endif // MCSIM_BENCH_COMMON_HH

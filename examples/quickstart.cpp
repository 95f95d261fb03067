/**
 * @file
 * Quickstart: build a 16-processor machine, run the Gauss benchmark under
 * each consistency model, and print the relative performance gains --
 * a miniature of the paper's Figure 4.
 *
 * Usage: quickstart [matrix-n] [cache-bytes] [line-bytes]
 */

#include <cstdio>
#include <cstdlib>

#include "core/consistency.hh"
#include "core/machine_config.hh"
#include "core/metrics.hh"
#include "workloads/gauss.hh"
#include "workloads/workload.hh"

using namespace mcsim;

int
main(int argc, char **argv)
{
    unsigned n = argc > 1 ? std::atoi(argv[1]) : 64;
    unsigned cache_bytes = argc > 2 ? std::atoi(argv[2]) : 4 * 1024;
    unsigned line_bytes = argc > 3 ? std::atoi(argv[3]) : 16;

    core::MachineConfig cfg;
    cfg.numProcs = 16;
    cfg.numModules = 16;
    cfg.cacheBytes = cache_bytes;
    cfg.lineBytes = line_bytes;

    std::printf("Gauss %ux%u, %u procs, %uK cache, %uB lines\n", n, n,
                cfg.numProcs, cache_bytes / 1024, line_bytes);
    std::printf("%-6s %12s %8s %8s %8s %10s\n", "model", "cycles", "hit%",
                "rdhit%", "wrhit%", "gain/SC1");

    Tick base = 0;
    for (core::Model m : core::allModels) {
        cfg.model = m;
        workloads::GaussWorkload w(workloads::GaussParams{n, 12345});
        auto r = workloads::runWorkload(w, cfg);
        if (m == core::Model::SC1)
            base = r.metrics.cycles;
        std::printf("%-6s %12llu %8.1f %8.1f %8.1f %9.1f%%\n",
                    core::modelName(m),
                    static_cast<unsigned long long>(r.metrics.cycles),
                    100.0 * r.metrics.hitRate,
                    100.0 * r.metrics.readHitRate,
                    100.0 * r.metrics.writeHitRate,
                    core::percentGain(base, r.metrics.cycles));
    }
    return 0;
}

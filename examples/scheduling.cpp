/**
 * @file
 * Code-scheduling demo (paper sections 4.1.3 and 5.2): the same Relax
 * stencil, compiled five ways, on a consistency model of your choice.
 * Shows that the best load order depends on the memory model -- the
 * paper's observation that "programs may need to be written or compiled
 * differently to obtain the highest performance on machines with
 * different memory models."
 *
 * Usage: scheduling [model] [interior]   (defaults: WO1, 128)
 */

#include <cstdio>
#include <cstdlib>

#include "core/machine_config.hh"
#include "core/metrics.hh"
#include "workloads/relax.hh"
#include "workloads/workload.hh"

using namespace mcsim;
using workloads::RelaxSchedule;

int
main(int argc, char **argv)
{
    const core::Model model =
        argc > 1 ? core::modelFromName(argv[1]) : core::Model::WO1;
    const unsigned interior = argc > 2 ? std::atoi(argv[2]) : 128;

    core::MachineConfig cfg;
    cfg.model = model;
    cfg.cacheBytes = 8 * 1024;
    cfg.lineBytes = 8;  // every south-east load misses: scheduling matters

    std::printf("Relax (interior %u) under %s, 8-byte lines\n", interior,
                core::modelName(model));
    std::printf("%-12s %12s %10s\n", "schedule", "cycles", "vs default");

    const RelaxSchedule schedules[] = {
        RelaxSchedule::Default, RelaxSchedule::OptimalSC,
        RelaxSchedule::OptimalWO, RelaxSchedule::BadSC,
        RelaxSchedule::BadWO};

    Tick base = 0;
    for (RelaxSchedule s : schedules) {
        workloads::RelaxParams p;
        p.interior = interior;
        p.iterations = 2;
        p.schedule = s;
        workloads::RelaxWorkload w(p);
        const auto m = workloads::runWorkload(w, cfg).metrics;
        if (s == RelaxSchedule::Default)
            base = m.cycles;
        std::printf("%-12s %12llu %9.1f%%\n", relaxScheduleName(s),
                    (unsigned long long)m.cycles,
                    core::percentGain(base, m.cycles));
    }
    std::printf("\n(positive = faster than the compiler's default "
                "schedule; try SC1 vs WO1)\n");
    return 0;
}

/**
 * @file
 * Declarative sweep grids: the configuration points behind every paper
 * table and figure, named so the parallel sweep engine, the paper-table
 * report (exp/report.hh), and the golden-baseline tests all agree on
 * exactly the same jobs.
 *
 * A SweepPoint is one (benchmark, model, geometry, seed) tuple. Its
 * canonical id() string doubles as the job key in results documents and
 * as the input to the deterministic seed derivation (sim/random.hh
 * fnv1a): a job's seed is a pure function of its configuration, never of
 * wall clock or worker scheduling.
 */

#ifndef MCSIM_EXP_GRID_HH
#define MCSIM_EXP_GRID_HH

#include <memory>
#include <string>
#include <vector>

#include "core/machine_config.hh"
#include "workloads/relax.hh"
#include "workloads/workload.hh"

namespace mcsim::exp
{

/**
 * Problem/cache scale of a run (DESIGN.md scaling discipline: problem
 * and cache sizes shrink together so each benchmark stays in the same
 * fits/doesn't-fit regime the paper analyses).
 *
 * Quick is the CI scale: all seven models x four workloads complete in
 * seconds and are pinned by golden baselines (tests/golden/).
 */
enum class Scale { Quick, Scaled, Full };

const char *scaleName(Scale scale);
Scale scaleFromName(const std::string &name);

/** Paper cache sizes at a scale ("16K"-equivalent / "64K"-equivalent). */
unsigned smallCache(Scale scale);
unsigned largeCache(Scale scale);

/** Benchmark names in the paper's presentation order. */
const std::vector<std::string> &benchmarkNames();

/** Trace-replay benchmark names (one per synthetic generator). */
const std::vector<std::string> &traceBenchmarkNames();

/** One configuration point of a sweep. */
struct SweepPoint
{
    /** Workload: Gauss / Qsort / Relax / Psim / Synthetic, or a
     *  trace-replay point (TraceZipf / TraceBurst / TraceRing /
     *  TraceLock: the generator runs in-memory at makeWorkload time, so
     *  the point stays self-contained and reproducible in isolation). */
    std::string benchmark = "Gauss";
    core::Model model = core::Model::SC1;
    Scale scale = Scale::Scaled;
    unsigned numProcs = 16;
    unsigned cacheBytes = 8 * 1024;
    unsigned lineBytes = 16;
    /** Load and branch delay in cycles (Tables 3-6 vary this). */
    unsigned delay = 4;
    /** Relax stencil load schedule (Figure 9); Default elsewhere. */
    workloads::RelaxSchedule schedule = workloads::RelaxSchedule::Default;
    /** Workload data seed; 0 = the workload's canonical default seed
     *  (the paper grids use these so EXPERIMENTS.md numbers hold). */
    std::uint64_t seed = 0;
    /** Record an axiomatic trace and run the checker on it post-run. */
    bool recordTrace = false;
    /** Run the src/check/ invariant suite during the run. */
    bool runChecks = false;
    /** Simulated-cycle budget (job timeout); 0 = per-scale default. */
    Tick maxCycles = 0;
    /** Fault-injection preset name (src/fault/: "light", "standard",
     *  "heavy"); empty = perfect hardware. The fault seed derives from
     *  the point id, so chaos jobs reproduce in isolation. */
    std::string faultPreset;

    /** Canonical unique id, e.g. "Gauss/WO1/p16/c8192/l16/d4/default/s0";
     *  faulted points append "/F<preset>" so fault-free ids -- and the
     *  goldens keyed by them -- are untouched. */
    std::string id() const;

    /** Seed derived from the seedless id -- what grid builders assign
     *  when they want per-point (rather than canonical) seeding. */
    std::uint64_t derivedSeed() const;

    /** The machine this point describes. */
    core::MachineConfig machineConfig() const;

    /** The workload this point describes, at this scale and seed. */
    std::unique_ptr<workloads::Workload> makeWorkload() const;
};

/** A named list of points; the unit the sweep engine executes. */
struct Grid
{
    std::string name;
    std::vector<SweepPoint> points;
};

/**
 * Shared point factory for the paper grids, so the grid builders and the
 * paper-table report construct byte-identical ids for lookup.
 */
SweepPoint paperPoint(const std::string &benchmark, core::Model model,
                      Scale scale, bool big_cache, unsigned line_bytes,
                      unsigned procs = 16, unsigned delay = 4,
                      workloads::RelaxSchedule schedule =
                          workloads::RelaxSchedule::Default);

/** Grid names understood by namedGrid(), in catalog order. */
const std::vector<std::string> &gridNames();

/**
 * Build a named grid: fig2, fig4..fig9, table2, tables3_6 (the paper
 * experiments, at @p scale), quick (the CI grid: all 7 models x 4
 * workloads at one small configuration, always Quick scale, per-point
 * derived seeds), or trace-quick (quick's shape over the 4 synthetic
 * trace generators instead of the paper workloads). fatal() on unknown
 * names.
 */
Grid namedGrid(const std::string &name, Scale scale);

/**
 * Randomized consistency fuzz grid: @p count Synthetic points whose
 * workload parameters and seeds all derive from @p base_seed, run with
 * the axiomatic trace checker and the invariant suite enabled.
 */
Grid fuzzGrid(unsigned count, std::uint64_t base_seed);

} // namespace mcsim::exp

#endif // MCSIM_EXP_GRID_HH

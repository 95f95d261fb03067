#include "exp/grid.hh"

#include <charconv>

#include "fault/fault_config.hh"
#include "sim/logging.hh"
#include "sim/random.hh"
#include "trace/generators.hh"
#include "trace/reader.hh"
#include "trace/replay.hh"
#include "workloads/gauss.hh"
#include "workloads/psim.hh"
#include "workloads/qsort.hh"
#include "workloads/synthetic.hh"

namespace mcsim::exp
{

const char *
scaleName(Scale scale)
{
    switch (scale) {
      case Scale::Quick: return "quick";
      case Scale::Scaled: return "scaled";
      case Scale::Full: return "full";
    }
    return "?";
}

Scale
scaleFromName(const std::string &name)
{
    if (name == "quick")
        return Scale::Quick;
    if (name == "scaled")
        return Scale::Scaled;
    if (name == "full")
        return Scale::Full;
    fatal("unknown scale '%s' (quick/scaled/full)", name.c_str());
}

unsigned
smallCache(Scale scale)
{
    switch (scale) {
      case Scale::Quick: return 4 * 1024;
      case Scale::Scaled: return 8 * 1024;
      case Scale::Full: return 16 * 1024;
    }
    return 0;
}

unsigned
largeCache(Scale scale)
{
    switch (scale) {
      case Scale::Quick: return 8 * 1024;
      case Scale::Scaled: return 32 * 1024;
      case Scale::Full: return 64 * 1024;
    }
    return 0;
}

const std::vector<std::string> &
benchmarkNames()
{
    static const std::vector<std::string> names = {"Gauss", "Qsort",
                                                   "Relax", "Psim"};
    return names;
}

const std::vector<std::string> &
traceBenchmarkNames()
{
    static const std::vector<std::string> names = {
        "TraceZipf", "TraceBurst", "TraceRing", "TraceLock"};
    return names;
}

std::string
SweepPoint::id() const
{
    std::string base =
        strprintf("%s/%s/p%u/c%u/l%u/d%u/%s/s%llu", benchmark.c_str(),
                  core::modelName(model), numProcs, cacheBytes, lineBytes,
                  delay, workloads::relaxScheduleName(schedule),
                  static_cast<unsigned long long>(seed));
    if (!variant.empty())
        base += "/V" + variant;
    // The "off" preset is behaviorally identical to no preset at all;
    // keeping the ids (and hence the derived seeds) equal lets a
    // fault-off sweep be checked against the golden baseline point for
    // point, proving the fault plumbing causes zero drift when disabled.
    if (!faultPreset.empty() && faultPreset != "off")
        base += strprintf("/F%s", faultPreset.c_str());
    return base;
}

std::uint64_t
SweepPoint::derivedSeed() const
{
    SweepPoint seedless = *this;
    seedless.seed = 0;
    // splitmix64 spreads the hash so workloads that fold the seed with
    // small constants still see well-mixed high bits.
    return splitmix64(fnv1a(seedless.id()));
}

namespace
{

/** True when @p variant is @p prefix followed by a decimal count,
 *  which lands in @p n. */
bool
countedVariant(const std::string &variant, const std::string &prefix,
               unsigned &n)
{
    if (variant.size() <= prefix.size() || variant.rfind(prefix, 0) != 0)
        return false;
    const char *last = variant.data() + variant.size();
    unsigned value = 0;
    const auto [end, error] =
        std::from_chars(variant.data() + prefix.size(), last, value);
    if (error != std::errc() || end != last)
        return false;
    n = value;
    return true;
}

bool
barrierVariant(const std::string &variant)
{
    return variant == "barrier-dissemination" ||
           variant == "barrier-central";
}

/** The machine half of SweepPoint::variant; fatal() outside the set. */
void
applyVariant(const std::string &variant, core::MachineConfig &cfg)
{
    if (variant.empty() || variant == "readown" || barrierVariant(variant))
        return;  // the paper machine, or a workload variant
    if (variant == "nlpf") {
        cfg.nextLinePrefetch = true;
    } else if (variant == "scsb") {
        core::ModelParams params = cfg.modelParams();
        params.scStoreBufferRelease = true;
        cfg.modelOverride = params;
    } else if (!countedVariant(variant, "mshrs", cfg.relaxedMshrs) &&
               !countedVariant(variant, "buffer", cfg.bufferEntries) &&
               !countedVariant(variant, "radix", cfg.switchRadix)) {
        fatal("unknown variant '%s' (mshrsN, bufferN, radixN, nlpf, "
              "scsb, readown, barrier-dissemination, barrier-central)",
              variant.c_str());
    }
}

} // namespace

core::MachineConfig
SweepPoint::machineConfig() const
{
    core::MachineConfig cfg;
    cfg.numProcs = numProcs;
    cfg.numModules = numProcs;
    cfg.model = model;
    cfg.cacheBytes = cacheBytes;
    cfg.lineBytes = lineBytes;
    cfg.loadDelay = delay;
    cfg.branchDelay = delay;
    if (maxCycles) {
        cfg.maxCycles = maxCycles;
    } else if (scale == Scale::Quick) {
        // The per-job timeout: a diverging quick job fails fast instead
        // of eating the 4G-cycle global default.
        cfg.maxCycles = 100'000'000ull;
    }
    cfg.check.mode =
        runChecks ? check::CheckMode::Fatal : check::CheckMode::Off;
    cfg.trace.record = recordTrace;
    if (!faultPreset.empty()) {
        cfg.fault = fault::faultPreset(faultPreset);
        // A distinct chain from the workload seed, so fault decisions and
        // workload data never correlate.
        cfg.fault.seed = splitmix64(derivedSeed() ^ 0xFA171FA171FA171Full);
    }
    applyVariant(variant, cfg);
    return cfg;
}

namespace
{

/** Synthetic fuzz parameters, all derived from the point seed. */
workloads::SyntheticParams
syntheticParams(std::uint64_t seed)
{
    Rng rng(seed);
    workloads::SyntheticParams p;
    p.seed = seed;
    p.refsPerProc =
        static_cast<unsigned>(rng.between(600, 1200));
    p.storeFraction = 0.1 + 0.4 * rng.uniform();
    p.sharedFraction = 0.1 + 0.3 * rng.uniform();
    p.sharedWords = static_cast<unsigned>(rng.between(128, 512));
    p.execBetween = static_cast<unsigned>(rng.between(0, 8));
    p.lockEvery =
        rng.chance(0.5) ? static_cast<unsigned>(rng.between(16, 64)) : 0;
    p.barrierEvery =
        rng.chance(0.5) ? static_cast<unsigned>(rng.between(64, 256)) : 0;
    return p;
}

/**
 * Generator knobs for a trace-replay sweep point. Everything derives
 * from the point (benchmark, scale, procs, seed), so two makeWorkload
 * calls on equal points produce byte-identical traces -- which is what
 * lets the chaos harness compare a faulted twin's fingerprint against
 * its baseline's.
 */
trace::GeneratorParams
tracePointParams(const std::string &benchmark, Scale scale,
                 unsigned procs, std::uint64_t seed)
{
    trace::GeneratorParams p;
    if (benchmark == "TraceZipf")
        p.kind = trace::Generator::Zipfian;
    else if (benchmark == "TraceBurst")
        p.kind = trace::Generator::Bursty;
    else if (benchmark == "TraceRing")
        p.kind = trace::Generator::Ring;
    else if (benchmark == "TraceLock")
        p.kind = trace::Generator::LockStorm;
    else
        fatal("unknown trace benchmark '%s'", benchmark.c_str());
    p.procs = procs;
    p.opsPerProc = scale == Scale::Full ? 20000
                   : scale == Scale::Scaled ? 4000
                                            : 800;
    p.seed = seed ? seed : 1;
    return p;
}

} // namespace

std::unique_ptr<workloads::Workload>
SweepPoint::makeWorkload() const
{
    if (benchmark.rfind("Trace", 0) == 0) {
        auto bytes = trace::generateTraceBytes(
            tracePointParams(benchmark, scale, numProcs, seed));
        return std::make_unique<trace::TraceWorkload>(
            std::make_shared<trace::MemorySource>(std::move(bytes)),
            benchmark);
    }
    if (benchmark == "Gauss") {
        workloads::GaussParams p;
        p.n = scale == Scale::Full ? 250
              : scale == Scale::Scaled ? 150
                                       : 64;
        p.readOwn = variant == "readown";
        if (seed)
            p.seed = seed;
        return std::make_unique<workloads::GaussWorkload>(p);
    }
    if (benchmark == "Qsort") {
        workloads::QsortParams p;
        p.n = scale == Scale::Full ? 500000
              : scale == Scale::Scaled ? 65536
                                       : 8192;
        if (scale == Scale::Quick)
            p.parallelCutoff = 2048;
        if (seed)
            p.seed = seed;
        return std::make_unique<workloads::QsortWorkload>(p);
    }
    if (benchmark == "Relax") {
        workloads::RelaxParams p;
        p.interior = scale == Scale::Full ? 512
                     : scale == Scale::Scaled ? 192
                                              : 64;
        p.iterations = scale == Scale::Full ? 8
                       : scale == Scale::Scaled ? 3
                                                : 2;
        p.schedule = schedule;
        if (seed)
            p.seed = seed;
        return std::make_unique<workloads::RelaxWorkload>(p);
    }
    if (benchmark == "Psim") {
        workloads::PsimParams p;
        p.simProcs = scale == Scale::Quick ? 8 : 16;
        p.packetsPerProc = scale == Scale::Full ? 513
                           : scale == Scale::Scaled ? 96
                                                    : 24;
        if (seed)
            p.seed = seed;
        return std::make_unique<workloads::PsimWorkload>(p);
    }
    if (benchmark == "Synthetic" && barrierVariant(variant)) {
        // The barrier-heavy stream, the same at every scale.
        workloads::SyntheticParams p;
        p.refsPerProc = 4000;
        p.barrierEvery = 100;
        p.privateWords = 1024;
        p.barrierKind = variant == "barrier-central"
                            ? cpu::BarrierKind::Central
                            : cpu::BarrierKind::Dissemination;
        if (seed)
            p.seed = seed;
        return std::make_unique<workloads::SyntheticWorkload>(p);
    }
    if (benchmark == "Synthetic")
        return std::make_unique<workloads::SyntheticWorkload>(
            syntheticParams(seed ? seed : 99));
    fatal("unknown benchmark '%s'", benchmark.c_str());
}

SweepPoint
paperPoint(const std::string &benchmark, core::Model model, Scale scale,
           bool big_cache, unsigned line_bytes, unsigned procs,
           unsigned delay, workloads::RelaxSchedule schedule)
{
    SweepPoint p;
    p.benchmark = benchmark;
    p.model = model;
    p.scale = scale;
    p.numProcs = procs;
    p.cacheBytes = big_cache ? largeCache(scale) : smallCache(scale);
    p.lineBytes = line_bytes;
    p.delay = delay;
    p.schedule = schedule;
    return p;
}

namespace
{

const std::vector<unsigned> &
lineSizes()
{
    static const std::vector<unsigned> sizes = {8, 16, 64};
    return sizes;
}

/** benchmark x model x cache x line cross product. */
void
crossInto(Grid &grid, const std::vector<std::string> &benchmarks,
          const std::vector<core::Model> &models, Scale scale,
          const std::vector<bool> &caches, unsigned procs = 16,
          unsigned delay = 4)
{
    for (const auto &bench : benchmarks)
        for (core::Model model : models)
            for (bool big : caches)
                for (unsigned line : lineSizes())
                    grid.points.push_back(paperPoint(
                        bench, model, scale, big, line, procs, delay));
}

Grid
quickGrid()
{
    Grid grid{"quick", {}};
    for (const auto &bench : benchmarkNames()) {
        for (core::Model model : core::allModels) {
            SweepPoint p = paperPoint(bench, model, Scale::Quick,
                                      /*big_cache=*/false,
                                      /*line_bytes=*/16, /*procs=*/8);
            p.seed = p.derivedSeed();
            grid.points.push_back(std::move(p));
        }
    }
    return grid;
}

/** quick's shape over the 4 trace generators (golden-pinned like it). */
Grid
traceQuickGrid()
{
    Grid grid{"trace-quick", {}};
    for (const auto &bench : traceBenchmarkNames()) {
        for (core::Model model : core::allModels) {
            SweepPoint p = paperPoint(bench, model, Scale::Quick,
                                      /*big_cache=*/false,
                                      /*line_bytes=*/16, /*procs=*/8);
            p.seed = p.derivedSeed();
            grid.points.push_back(std::move(p));
        }
    }
    return grid;
}

/** Each one-variant change to the paper machine (16 procs, small cache,
 *  16-byte lines) that the ablation report reads, after the six plain
 *  points it compares them with; every configuration once. */
Grid
ablationGrid(Scale scale)
{
    using core::Model;
    Grid grid{"ablation", {}};
    auto add = [&](const char *benchmark, Model model,
                   const char *variant) {
        SweepPoint p = paperPoint(benchmark, model, scale,
                                  /*big_cache=*/false, /*line_bytes=*/16);
        p.variant = variant;
        grid.points.push_back(std::move(p));
    };
    add("Gauss", Model::WO1, "");
    add("Gauss", Model::SC1, "");
    add("Gauss", Model::SC2, "");
    add("Qsort", Model::WO1, "");
    add("Qsort", Model::WO2, "");
    add("Relax", Model::SC1, "");
    for (const char *variant :
         {"mshrs1", "mshrs2", "mshrs3", "mshrs8", "mshrs16", "buffer1",
          "buffer2", "buffer8", "buffer16", "radix2", "readown", "nlpf"})
        add("Gauss", Model::WO1, variant);
    add("Gauss", Model::SC1, "nlpf");
    add("Relax", Model::SC1, "scsb");
    add("Synthetic", Model::WO1, "barrier-dissemination");
    add("Synthetic", Model::WO1, "barrier-central");
    return grid;
}

} // namespace

const std::vector<std::string> &
gridNames()
{
    static const std::vector<std::string> names = {
        "quick", "trace-quick", "fig2", "fig4",      "fig5",    "fig6",
        "fig7",  "fig8",        "fig9", "tables3_6", "ablation"};
    return names;
}

Grid
namedGrid(const std::string &name, Scale scale)
{
    using core::Model;
    Grid grid{name, {}};
    if (name == "quick")
        return quickGrid();
    if (name == "trace-quick")
        return traceQuickGrid();
    if (name == "fig2") {
        crossInto(grid, benchmarkNames(), {Model::SC1}, scale,
                  {false, true});
        return grid;
    }
    if (name == "fig4" || name == "fig5") {
        crossInto(grid, benchmarkNames(),
                  {Model::SC1, Model::SC2, Model::WO1, Model::WO2,
                   Model::RC},
                  scale, {name == "fig5"});
        return grid;
    }
    if (name == "fig6") {
        crossInto(grid, {"Gauss"},
                  {Model::SC1, Model::SC2, Model::WO1, Model::RC}, scale,
                  {false, true}, /*procs=*/32);
        return grid;
    }
    if (name == "fig7" || name == "fig8") {
        crossInto(grid, benchmarkNames(),
                  {Model::BSC1, Model::SC1, Model::BWO1, Model::WO1},
                  scale, {name == "fig8"});
        return grid;
    }
    if (name == "fig9") {
        using workloads::RelaxSchedule;
        const struct
        {
            Model model;
            RelaxSchedule schedule;
        } variants[] = {
            {Model::SC1, RelaxSchedule::Default},
            {Model::SC1, RelaxSchedule::OptimalSC},
            {Model::SC1, RelaxSchedule::BadSC},
            {Model::WO1, RelaxSchedule::Default},
            {Model::WO1, RelaxSchedule::OptimalWO},
            {Model::WO1, RelaxSchedule::BadWO},
        };
        for (bool big : {false, true})
            for (const auto &v : variants)
                for (unsigned line : lineSizes())
                    grid.points.push_back(
                        paperPoint("Relax", v.model, scale, big, line, 16,
                                   4, v.schedule));
        return grid;
    }
    if (name == "tables3_6") {
        for (unsigned delay : {2u, 4u})
            crossInto(grid, benchmarkNames(), {Model::SC1, Model::WO1},
                      scale, {false, true}, 16, delay);
        return grid;
    }
    if (name == "ablation")
        return ablationGrid(scale);
    fatal("unknown grid '%s'", name.c_str());
}

Grid
fuzzGrid(unsigned count, std::uint64_t base_seed)
{
    Grid grid{"fuzz", {}};
    for (unsigned i = 0; i < count; ++i) {
        SweepPoint p;
        p.benchmark = "Synthetic";
        p.scale = Scale::Quick;
        p.numProcs = 4;
        p.cacheBytes = 2048;
        p.lineBytes = 16;
        p.seed = splitmix64(base_seed + i);
        // Vary the model with the seed so the fuzz sweep exercises every
        // implementation's ordering rules.
        p.model = core::allModels[p.seed % std::size(core::allModels)];
        p.recordTrace = true;
        p.runChecks = true;
        grid.points.push_back(std::move(p));
    }
    return grid;
}

} // namespace mcsim::exp

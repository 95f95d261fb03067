#include "exp/report.hh"

#include <map>
#include <utility>
#include <vector>

#include "core/metrics.hh"
#include "sim/logging.hh"

namespace mcsim::exp
{

namespace
{

using core::Model;
using workloads::RelaxSchedule;

const unsigned lineSizes[] = {8, 16, 64};

const char *const headerRule =
    "--------------------------------------------------------"
    "----------------------\n";

/** One grid's job records by point id, and the scale they ran at.
 *  Lookups fatal() on a missing or failed point, which paperReport
 *  turns into the grid's one-line note. */
class GridRecords
{
  public:
    explicit GridRecords(const Json &jobs)
    {
        for (const Json &job : jobs.elements()) {
            const Json *id = job.find("id");
            if (id != nullptr && id->isString())
                byId[id->asString()] = &job;
        }
        const Json *name = jobs.elements().empty()
                               ? nullptr
                               : jobs.elements().front().find("scale");
        if (name == nullptr || !name->isString())
            fatal("no job record names a scale");
        scale = scaleFromName(name->asString());
    }

    Scale scale = Scale::Scaled;

    /** paperPoint at this grid's scale. */
    SweepPoint
    point(const std::string &benchmark, Model model, bool big_cache,
          unsigned line_bytes, unsigned procs = 16, unsigned delay = 4,
          RelaxSchedule schedule = RelaxSchedule::Default) const
    {
        return paperPoint(benchmark, model, scale, big_cache, line_bytes,
                          procs, delay, schedule);
    }

    double
    metric(const SweepPoint &p, const char *name) const
    {
        const std::string id = p.id();
        const auto it = byId.find(id);
        if (it == byId.end())
            fatal("point %s is missing", id.c_str());
        const Json *status = it->second->find("status");
        if (status == nullptr || !status->isString() ||
            status->asString() != "ok")
            fatal("point %s failed", id.c_str());
        const Json *metrics = it->second->find("metrics");
        const Json *value =
            metrics != nullptr ? metrics->find(name) : nullptr;
        if (value == nullptr || !value->isNumber())
            fatal("point %s lacks metric '%s'", id.c_str(), name);
        return value->asNumber();
    }

    Tick
    cycles(const SweepPoint &p) const
    {
        return static_cast<Tick>(metric(p, "cycles"));
    }

  private:
    std::map<std::string, const Json *> byId;
};

/** The title's scale note: "paper-size", "scaled" or "quick". */
const char *
scaleNote(Scale scale)
{
    return scale == Scale::Full ? "paper-size" : scaleName(scale);
}

std::string
figure2(const GridRecords &r)
{
    std::string out = strprintf("Figure 2 reproduction: SC1 run-time "
                                "(Mcycles) by line size (%s)\n",
                                scaleNote(r.scale));
    out += headerRule;
    for (bool big : {false, true}) {
        out += strprintf("\n%s caches\n", cacheLabel(r.scale, big).c_str());
        out += strprintf("%-7s %10s %10s %10s\n", "Program", "8B", "16B",
                         "64B");
        for (const std::string &name : benchmarkNames()) {
            out += strprintf("%-7s", name.c_str());
            for (unsigned line : lineSizes)
                out += strprintf(
                    " %10.3f",
                    r.metric(r.point(name, Model::SC1, big, line),
                             "cycles") /
                        1e6);
            out += "\n";
        }
    }
    return out;
}

/** One block of a gain table: its heading line and the benchmark and
 *  cache its rows ran at. */
struct GainSection
{
    std::string heading;
    std::string benchmark;
    bool big = false;
};

/**
 * Figures 4-8: percent gain of each of @p models over @p base by line
 * size, one block per section. @p extras appends Figure 4's auxiliary
 * columns, the 16-byte-line WO2 bypass and SC2 prefetch counts.
 */
std::string
gainTable(const GridRecords &r, std::string title, Model base,
          const std::vector<Model> &models,
          const std::vector<GainSection> &sections, unsigned procs,
          bool extras)
{
    std::string out = std::move(title) + headerRule;
    for (const GainSection &s : sections) {
        out += "\n" + s.heading + "\n";
        out += strprintf("%-6s %10s %10s %10s", "model", "8B", "16B", "64B");
        out += extras ? strprintf(" %14s %12s\n", "bypasses/16B", "pref/16B")
                      : "\n";
        for (Model model : models) {
            out += strprintf("%-6s", core::modelName(model));
            for (unsigned line : lineSizes)
                out += strprintf(
                    " %9.1f%%",
                    core::percentGain(
                        r.cycles(r.point(s.benchmark, base, s.big, line,
                                         procs)),
                        r.cycles(r.point(s.benchmark, model, s.big, line,
                                         procs))));
            if (extras) {
                const SweepPoint at16 =
                    r.point(s.benchmark, model, s.big, 16, procs);
                out += strprintf(" %14.0f %12.0f",
                                 r.metric(at16, "bufferBypasses"),
                                 r.metric(at16, "prefetchesIssued"));
            }
            out += "\n";
        }
    }
    return out;
}

/** Figures 4, 5, 7 and 8 (grid @p grid): one gain block per benchmark
 *  at 16 processors; Figure 4 adds the auxiliary columns. */
std::string
modelFigure(const GridRecords &r, const std::string &grid, Model base,
            const std::vector<Model> &models, bool big)
{
    std::vector<GainSection> sections;
    for (const std::string &name : benchmarkNames())
        sections.push_back({name, name, big});
    return gainTable(
        r,
        strprintf("Figure %c reproduction: %% gain over %s, 16 procs, %s "
                  "caches%s\n",
                  grid.back(), core::modelName(base),
                  cacheLabel(r.scale, big).c_str(),
                  r.scale == Scale::Full ? " (paper-size)" : ""),
        base, models, sections, 16, grid == "fig4");
}

/** Figure 6: Gauss at 32 processors, one gain block per cache size. */
std::string
figure6(const GridRecords &r)
{
    std::vector<GainSection> sections;
    for (bool big : {false, true})
        sections.push_back(
            {cacheLabel(r.scale, big) + " caches", "Gauss", big});
    return gainTable(r,
                     strprintf("Figure 6 reproduction: Gauss, 32 "
                               "processors, %% gain over SC1 (%s)\n",
                               scaleNote(r.scale)),
                     Model::SC1, {Model::SC2, Model::WO1, Model::RC},
                     sections, 32, false);
}

/** Figure 9: Relax's optimal and bad schedules against its default. */
std::string
figure9(const GridRecords &r)
{
    std::string out = strprintf(
        "Figure 9 reproduction: Relax scheduling, %% run-time change vs "
        "default schedule (%s)\n",
        scaleNote(r.scale));
    out += "(positive = faster than the default schedule)\n";
    out += headerRule;
    const struct
    {
        Model model;
        RelaxSchedule optimal;
        RelaxSchedule bad;
    } variants[] = {
        {Model::SC1, RelaxSchedule::OptimalSC, RelaxSchedule::BadSC},
        {Model::WO1, RelaxSchedule::OptimalWO, RelaxSchedule::BadWO},
    };
    for (bool big : {false, true}) {
        for (const auto &v : variants) {
            out += strprintf("\n%s, %s caches\n", core::modelName(v.model),
                             cacheLabel(r.scale, big).c_str());
            out += strprintf("%-9s %10s %10s %10s\n", "schedule", "8B",
                             "16B", "64B");
            for (const auto &[label, schedule] :
                 {std::pair{"optimal", v.optimal}, std::pair{"bad", v.bad}}) {
                out += strprintf("%-9s", label);
                for (unsigned line : lineSizes) {
                    auto cycles = [&](RelaxSchedule s) {
                        return r.cycles(
                            r.point("Relax", v.model, big, line, 16, 4, s));
                    };
                    out += strprintf(
                        " %9.1f%%",
                        core::percentGain(cycles(RelaxSchedule::Default),
                                          cycles(schedule)));
                }
                out += "\n";
            }
        }
    }
    return out;
}

/** Tables 2, 7, 8 and 9 and the section 3.3 characteristics, all SC1 at
 *  16 processors. */
std::string
table2(const GridRecords &r)
{
    // The reference counts, Table 9 and section 3.3 read the
    // 16-byte-line, small-cache point.
    auto at = [&](const std::string &name, bool big, unsigned line,
                  const char *metric) {
        return r.metric(r.point(name, Model::SC1, big, line), metric);
    };
    auto hitRates = [&](const std::string &name, const char *metric) {
        std::string cells;
        for (bool big : {false, true}) {
            cells += " |";
            for (unsigned line : lineSizes)
                cells += strprintf(" %6.1f", 100.0 * at(name, big, line,
                                                        metric));
        }
        return cells + "\n";
    };
    const std::string hitHeader =
        strprintf(" | %6s %6s %6s | %6s %6s %6s\n", "s/8B", "s/16B",
                  "s/64B", "l/8B", "l/16B", "l/64B");

    std::string out = strprintf(
        "Table 2 / 7 / 8 / 9 reproduction (SC1, 16 processors, %s)\n",
        scaleNote(r.scale));
    out += headerRule;

    out += "\nTable 2: references (1,000s/proc) and hit rate (%)\n";
    out += strprintf("%-7s %7s %7s", "Program", "Reads", "Writes") +
           hitHeader;
    for (const std::string &name : benchmarkNames())
        out += strprintf("%-7s %7.0f %7.0f", name.c_str(),
                         at(name, false, 16, "readsPerProc") / 1000.0,
                         at(name, false, 16, "writesPerProc") / 1000.0) +
               hitRates(name, "hitRate");
    out += strprintf("(s = small cache %s, l = large cache %s)\n",
                     cacheLabel(r.scale, false).c_str(),
                     cacheLabel(r.scale, true).c_str());

    for (const auto &[title, metric] :
         {std::pair{"Table 7: read hit rates", "readHitRate"},
          std::pair{"Table 8: write hit rates", "writeHitRate"}}) {
        out += strprintf("\n%s (%%)\n%-7s", title, "Program") + hitHeader;
        for (const std::string &name : benchmarkNames())
            out += strprintf("%-7s", name.c_str()) + hitRates(name, metric);
    }

    out += "\nTable 9: cycles between references (16B lines, small "
           "cache)\n";
    out += strprintf("%-7s %12s %12s\n", "Program", "Reads", "Writes");
    for (const std::string &name : benchmarkNames()) {
        core::RunMetrics pacing;
        pacing.cycles = r.cycles(r.point(name, Model::SC1, false, 16));
        pacing.readsPerProc = at(name, false, 16, "readsPerProc");
        pacing.writesPerProc = at(name, false, 16, "writesPerProc");
        out += strprintf("%-7s %12.1f %12.1f\n", name.c_str(),
                         pacing.cyclesBetweenReads(),
                         pacing.cyclesBetweenWrites());
    }

    out += "\nSection 3.3 characteristics (16B lines, small cache)\n";
    out += strprintf("%-7s %18s %14s %16s\n", "Program", "inval-miss share",
                     "module skew", "avg miss lat");
    for (const std::string &name : benchmarkNames()) {
        const double misses = at(name, false, 16, "totalMisses");
        out += strprintf(
            "%-7s %17.0f%% %14.2f %15.1f\n", name.c_str(),
            misses > 0
                ? 100.0 * at(name, false, 16, "invalidationMisses") / misses
                : 0.0,
            at(name, false, 16, "moduleSkew"),
            at(name, false, 16, "avgMissLatency"));
    }
    return out;
}

/** Tables 3-6: WO1's absolute and relative benefit over SC1 at load and
 *  branch delays of 2 and 4 cycles. */
std::string
tables3to6(const GridRecords &r)
{
    std::string out =
        strprintf("Tables 3-6 reproduction: WO1 benefit over SC1 at 2- and "
                  "4-cycle delays (%s)\n",
                  scaleNote(r.scale));
    out += headerRule;
    for (const std::string &name : benchmarkNames()) {
        out += strprintf("\n%s: absolute (kcycles) / relative (%%)\n",
                         name.c_str());
        out += strprintf("%-6s %-7s | %16s | %16s | %16s\n", "cache",
                         "delay", "8B lines", "16B lines", "64B lines");
        for (bool big : {false, true}) {
            for (unsigned delay : {2u, 4u}) {
                out += strprintf("%-6s %-7u |", big ? "large" : "small",
                                 delay);
                for (unsigned line : lineSizes) {
                    const Tick sc1 = r.cycles(
                        r.point(name, Model::SC1, big, line, 16, delay));
                    const Tick wo1 = r.cycles(
                        r.point(name, Model::WO1, big, line, 16, delay));
                    out += strprintf(" %8.0f /%5.1f%% |",
                                     core::absoluteGainKCycles(sc1, wo1),
                                     core::percentGain(sc1, wo1));
                }
                out += "\n";
            }
        }
    }
    return out;
}

/** The ablation studies: each section changes one thing about the
 *  paper machine (16 procs, small cache, 16-byte lines) and reports run
 *  time; a paper value reads the plain point. The sections keep the
 *  committed numbering and order. */
std::string
ablation(const GridRecords &r)
{
    std::string out = strprintf("Ablation studies (Gauss, 16 procs, %s "
                                "caches, 16B lines)\n",
                                cacheLabel(r.scale, false).c_str());
    out += headerRule;
    int width = 0;  // of the current section's label column
    auto section = [&](const char *title, const std::string &column,
                       int column_width) {
        width = column_width;
        out += strprintf("\n%s\n%-*s %12s\n", title, width, column.c_str(),
                         "Mcycles");
    };
    auto row = [&](const std::string &label, const char *benchmark,
                   Model model, const std::string &variant) {
        SweepPoint p = r.point(benchmark, model, false, 16);
        p.variant = variant;
        out += strprintf("%-*s %12.3f\n", width, label.c_str(),
                         r.metric(p, "cycles") / 1e6);
    };

    section("[1] WO1 MSHR count (paper: 5)", "mshrs", 8);
    for (unsigned n : {1u, 2u, 3u, 5u, 8u, 16u})
        row(std::to_string(n), "Gauss", Model::WO1,
            n == 5 ? "" : strprintf("mshrs%u", n));
    section("[2] Interface buffer depth (paper: 4)", "entries", 8);
    for (unsigned n : {1u, 2u, 4u, 8u, 16u})
        row(std::to_string(n), "Gauss", Model::WO1,
            n == 4 ? "" : strprintf("buffer%u", n));
    section("[3] WO2 load bypassing (Qsort)", "bypass", 10);
    row("off (WO1)", "Qsort", Model::WO1, "");
    row("on (WO2)", "Qsort", Model::WO2, "");
    section("[4] SC1 store-buffer release (Relax)", "buffered", 10);
    row("on", "Relax", Model::SC1, "scsb");
    row("off", "Relax", Model::SC1, "");

    const SweepPoint sc2 = r.point("Gauss", Model::SC2, false, 16);
    const double issued = r.metric(sc2, "prefetchesIssued");
    const double useful = r.metric(sc2, "prefetchesUseful");
    out += strprintf("\n[5] SC2 prefetches: issued=%.0f useful=%.0f "
                     "(%.0f%%)\n",
                     issued, useful,
                     issued > 0 ? 100.0 * useful / issued : 0.0);

    section("[6] Switch arity (paper: 4x4)", "radix", 8);
    row("2x2", "Gauss", Model::WO1, "radix2");
    row("4x4", "Gauss", Model::WO1, "");
    section("[8] Next-line prefetch (Gauss)",
            strprintf("%-14s %-8s", "model", "nlpf"), 23);
    for (Model model : {Model::SC1, Model::WO1})
        for (bool nlpf : {false, true})
            row(strprintf("%-14s %-8s", core::modelName(model),
                          nlpf ? "on" : "off"),
                "Gauss", model, nlpf ? "nlpf" : "");
    section("[9] Gauss read-with-ownership (WO1)", "readOwn", 8);
    row("off", "Gauss", Model::WO1, "");
    row("on", "Gauss", Model::WO1, "readown");
    section("[7] Barrier implementation (barrier-heavy synthetic)",
            "barrier", 15);
    for (const char *kind : {"dissemination", "central"})
        row(kind, "Synthetic", Model::WO1, std::string("barrier-") + kind);
    return out;
}

/** The tables of paper grid @p grid. */
std::string
renderGrid(const std::string &grid, const GridRecords &r)
{
    const std::vector<Model> relaxed = {Model::SC2, Model::WO1, Model::WO2,
                                        Model::RC};
    const std::vector<Model> blocking = {Model::SC1, Model::BWO1,
                                         Model::WO1};
    if (grid == "fig2")
        return figure2(r) + "\n" + table2(r);
    if (grid == "fig4" || grid == "fig5")
        return modelFigure(r, grid, Model::SC1, relaxed, grid == "fig5");
    if (grid == "fig6")
        return figure6(r);
    if (grid == "fig7" || grid == "fig8")
        return modelFigure(r, grid, Model::BSC1, blocking, grid == "fig8");
    if (grid == "fig9")
        return figure9(r);
    if (grid == "tables3_6")
        return tables3to6(r);
    if (grid == "ablation")
        return ablation(r);
    fatal("no paper table for grid '%s'", grid.c_str());
}

} // namespace

std::string
cacheLabel(Scale scale, bool big_cache)
{
    auto kib = [&](Scale s) {
        return (big_cache ? largeCache(s) : smallCache(s)) / 1024;
    };
    if (scale == Scale::Full)
        return strprintf("%uK", kib(Scale::Full));
    return strprintf("%uK (%uK-eq)", kib(scale), kib(Scale::Full));
}

std::string
paperReport(const Json &doc)
{
    const Json *grids = doc.find("grids");
    if (grids == nullptr)
        return "";
    std::string out;
    for (const auto &[name, jobs] : grids->pairs()) {
        if (name == "quick" || name == "trace-quick")
            continue;  // CI grids: no paper table
        if (!out.empty())
            out += "\n";
        try {
            out += renderGrid(name, GridRecords(jobs));
        } catch (const FatalError &err) {
            out += strprintf("%s: tables not rendered: %s\n", name.c_str(),
                             err.what());
        }
    }
    return out;
}

} // namespace mcsim::exp

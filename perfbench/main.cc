/**
 * @file
 * perfbench: mcsim's host-speed benchmark program.
 *
 * Runs one workload single-threaded, repeatedly, for a wall-clock budget
 * and prints one JSON document on stdout: exact simulated counts, host
 * timings summarised over the repetitions, and what failed. Every layer is
 * timed from outside, around calls into its public functions
 * (SweepPoint::makeWorkload, the Machine constructor and run(),
 * Workload::setup/verify, RunMetrics::fromMachine, exp::jobToJson via
 * SweepOutcomes::toJson, exp::checkAgainstGoldenDir, mc::explore); nothing
 * inside Machine::run is instrumented.
 *
 * With --trace-out every other repetition records spans around those calls
 * (name, start, end, parent, and an id shared by the spans of one point or
 * pair), keeps them in memory, and writes them at exit as Chrome
 * trace-event JSON; the document then carries per-layer self times, the
 * tracing overhead and the isolated per-layer cases (micro.cc).
 *
 * perfbench/run.py builds this program and turns the document into the
 * benchmark's result line.
 *
 * Usage: perfbench --workload NAME --seed N --seconds S --golden-dir DIR
 *                  [--trace-out FILE]
 */

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iterator>
#include <map>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "axiom/litmus.hh"
#include "core/machine.hh"
#include "core/metrics.hh"
#include "exp/golden.hh"
#include "exp/grid.hh"
#include "exp/json.hh"
#include "exp/sweep.hh"
#include "mc/explorer.hh"
#include "perfbench.hh"
#include "sim/logging.hh"
#include "sim/random.hh"
#include "workloads/workload.hh"

using namespace mcsim;
using perfbench::Summary;
using perfbench::summarize;

namespace
{

using Clock = std::chrono::steady_clock;

double
seconds(Clock::duration d)
{
    return std::chrono::duration<double>(d).count();
}

// ---------------------------------------------------------------- spans

/** One timed call into a layer. */
struct Span
{
    const char *name;
    double start;  ///< seconds since the program started
    double end;
    int parent;    ///< index of the enclosing span; -1 for a repetition
    unsigned rep;
    std::string id;  ///< shared by every span of one point or pair
};

/** In-memory span store; records only while `on`. */
class SpanLog
{
  public:
    explicit SpanLog(Clock::time_point origin) : origin(origin) {}

    bool on = false;
    unsigned rep = 0;
    std::string id;
    std::vector<Span> spans;

    int
    open(const char *name, Clock::time_point t)
    {
        if (!on)
            return -1;
        const int parent = stack.empty() ? -1 : stack.back();
        spans.push_back(
            Span{name, seconds(t - origin), 0, parent, rep, id});
        stack.push_back(static_cast<int>(spans.size()) - 1);
        return stack.back();
    }

    void
    close(int index, Clock::time_point t)
    {
        if (index < 0)
            return;
        spans[static_cast<std::size_t>(index)].end = seconds(t - origin);
        stack.pop_back();
    }

  private:
    Clock::time_point origin;
    std::vector<int> stack;
};

/** Times one scope: adds its seconds to *slot (when given) and records a
 *  span nested in the innermost open one. */
class Section
{
  public:
    Section(SpanLog &log, const char *name, double *slot)
        : log(log), slot(slot), t0(Clock::now()), span(log.open(name, t0))
    {}

    ~Section()
    {
        const Clock::time_point t1 = Clock::now();
        if (slot)
            *slot += seconds(t1 - t0);
        log.close(span, t1);
    }

    Section(const Section &) = delete;
    Section &operator=(const Section &) = delete;

  private:
    SpanLog &log;
    double *slot;
    Clock::time_point t0;
    int span;
};

// ------------------------------------------------------- exact counts

/** Exact counts, summed over the items of a repetition. A simulated
 *  machine is deterministic, so every repetition must reproduce them. */
enum Count : unsigned
{
    SimCycles, SimEvents,
    ReqMessages, RespMessages, Flits, QueueCycles, BufEnqueued,
    BufFullRejects,
    CacheAccesses, DataRefs, DataHits, CacheBlocked, DirRequests, DirQueued,
    Instructions, BusyCycles, StallFirst,
    McSchedules = StallFirst + obs::numStallCauses, McChoicePoints, McBranchPoints, McSleepPruned, McSleepBlocked,
    NumCounts
};

using Counts = std::array<std::uint64_t, NumCounts>;

std::string
countName(unsigned c)
{
    static const char *names[] = {
        "sim_cycles", "sim_events",
        "req_messages", "resp_messages", "flits", "queue_cycles",
        "buf_enqueued", "buf_full_rejects",
        "cache_accesses", "data_refs", "data_hits", "cache_blocked",
        "dir_requests", "dir_queued",
        "instructions", "busy_cycles"};
    if (c < StallFirst)
        return names[c];
    if (c < McSchedules) {
        return std::string("stall_cycles.") +
               obs::stallCauseName(
                   static_cast<obs::StallCause>(c - StallFirst));
    }
    static const char *mc_names[] = {
        "mc_schedules", "mc_choice_points", "mc_branch_points", "mc_sleep_pruned", "mc_sleep_blocked"};
    return mc_names[c - McSchedules];
}

Counts
machineCounts(core::Machine &m, const core::RunMetrics &metrics)
{
    Counts c{};
    c[SimCycles] = metrics.cycles;
    c[SimEvents] = m.eventQueue().executed();
    for (const net::NetStats *s :
         {&m.requestNetStats(), &m.responseNetStats()}) {
        c[Flits] += s->flits;
        c[QueueCycles] += s->queueCycles;
    }
    c[ReqMessages] = m.requestNetStats().messages;
    c[RespMessages] = m.responseNetStats().messages;
    for (unsigned p = 0; p < m.numProcs(); ++p) {
        c[BufEnqueued] += m.procBufferStats(p).enqueued;
        c[BufFullRejects] += m.procBufferStats(p).fullRejects;
        const mem::CacheStats &cs = m.cache(p).stats();
        c[CacheAccesses] += cs.loads + cs.stores + cs.syncAccesses;
        c[DataRefs] += cs.loads + cs.stores;
        c[DataHits] += cs.loadHits + cs.storeHits;
        c[CacheBlocked] += cs.blockedAccesses;
        c[Instructions] += m.proc(p).stats().instructions;
    }
    for (unsigned i = 0; i < m.config().numModules; ++i) {
        c[DirRequests] += m.module(i).stats().requests;
        c[DirQueued] += m.module(i).stats().queuedRequests;
    }
    c[BusyCycles] = metrics.breakdown.busyCycles;
    for (unsigned i = 0; i < obs::numStallCauses; ++i)
        c[StallFirst + i] = metrics.breakdown.stallCycles[i];
    return c;
}

Counts
mcCounts(const mc::McStats &s)
{
    Counts c{};
    c[McSchedules] = s.schedulesRun;
    c[McChoicePoints] = s.choicePoints;
    c[McBranchPoints] = s.branchPoints;
    c[McSleepPruned] = s.sleepPruned;
    c[McSleepBlocked] = s.sleepBlockedRuns;
    return c;
}

// ----------------------------------------------------------- workloads

/** Layers timed from outside; the names are the metric stems. */
enum Layer : unsigned
{
    Make, Build, Setup, Run, Verify, Collect, Teardown, Serialize, Golden,
    Explore, NumLayers
};

const char *const layerNames[NumLayers] = {
    "workloads.make", "core.build",    "workloads.setup",
    "core.run",       "workloads.verify", "core.collect",
    "core.teardown",  "exp.serialize", "exp.golden",
    "mc.explore"};

/** One point (sweep) or one (model, litmus, seed) job (mc) in one
 *  repetition. */
struct Item
{
    bool ok = false;
    std::string error;
    double wall = 0;
    Counts counts{};
};

struct Rep
{
    bool traced = false;
    double wall = 0;
    /** Serialization of the repetition's results (sweep only); the golden
     *  check is the benchmark's own and stays out of wall_s. */
    double serialize = 0;
    std::vector<Item> items;
};

struct Options
{
    std::string workload;
    std::uint64_t seed = 0;
    double seconds = 0;
    std::string goldenDir;
    std::string traceOut;  ///< non-empty: a traced run
};

/** A workload: a list of items, run in the same order every repetition. */
class Workload
{
  public:
    virtual ~Workload() = default;
    virtual std::size_t items() const = 0;
    virtual Item runItem(std::size_t i, SpanLog &log) = 0;
    /** Work on the whole repetition after its items. */
    virtual void finishRep(Rep &, SpanLog &) {}
    /** Set item @p i up as its run would, without running it; seconds. */
    virtual double setupOnce(std::size_t i) const = 0;
};

/** Sweep points, each run exactly as exp::SweepRunner::runPoint runs it,
 *  then serialized (and, on quick at the canonical seed, checked against
 *  the committed golden document). */
class SweepWorkload : public Workload
{
  public:
    SweepWorkload(std::string grid_name, std::vector<exp::SweepPoint> pts,
                  std::string golden_dir)
        : grid{std::move(grid_name), std::move(pts)},
          goldenDir(std::move(golden_dir)), jobs(grid.points.size())
    {}

    std::size_t items() const override { return grid.points.size(); }

    Item
    runItem(std::size_t i, SpanLog &log) override
    {
        const exp::SweepPoint &point = grid.points[i];
        Item item;
        jobs[i] = exp::JobResult{};
        jobs[i].point = point;
        log.id = point.id();
        {
            Section whole(log, "point", &item.wall);
            runStages(point, jobs[i], item, log);
        }
        return item;
    }

    void
    finishRep(Rep &rep, SpanLog &log) override
    {
        exp::Json doc;
        {
            Section s(log, layerNames[Serialize], &rep.serialize);
            exp::SweepOutcomes outcomes;
            outcomes.add(grid, jobs);
            doc = outcomes.toJson();
            doc.dump();  // the text sweep_runner writes
        }
        if (!goldenDir.empty()) {
            exp::GoldenDiff diff;
            {
                Section s(log, layerNames[Golden], nullptr);
                diff = exp::checkAgainstGoldenDir(doc, goldenDir, grid.name);
            }
            if (!diff.ok)
                markGoldenDivergence(rep, diff);
        }
    }

    double
    setupOnce(std::size_t i) const override
    {
        const exp::SweepPoint &point = grid.points[i];
        const Clock::time_point t0 = Clock::now();
        const auto workload = point.makeWorkload();
        core::MachineConfig cfg = point.machineConfig();
        if (!workload->dataRaceFree())
            cfg.check.races = false;
        core::Machine machine(cfg);
        workload->setup(machine);
        return seconds(Clock::now() - t0);
    }

  private:
    static void
    runStages(const exp::SweepPoint &point, exp::JobResult &job, Item &item,
              SpanLog &log)
    {
        try {
            std::unique_ptr<workloads::Workload> workload;
            {
                Section s(log, layerNames[Make], nullptr);
                workload = point.makeWorkload();
            }
            core::MachineConfig cfg = point.machineConfig();
            if (!workload->dataRaceFree())
                cfg.check.races = false;
            std::optional<core::Machine> machine;
            {
                Section s(log, layerNames[Build], nullptr);
                machine.emplace(cfg);
            }
            {
                Section s(log, layerNames[Setup], nullptr);
                workload->setup(*machine);
            }
            Tick last = 0;
            {
                Section s(log, layerNames[Run], nullptr);
                last = machine->run();
            }
            {
                Section s(log, layerNames[Verify], nullptr);
                workload->verify(*machine);
            }
            {
                Section s(log, layerNames[Collect], nullptr);
                job.metrics = core::RunMetrics::fromMachine(*machine, last);
            }
            item.counts = machineCounts(*machine, job.metrics);
            {
                Section s(log, layerNames[Teardown], nullptr);
                machine.reset();
                workload.reset();
            }
            item.ok = job.ok = true;
        } catch (const std::exception &err) {
            item.error = job.error = point.id() + ": " + err.what();
        }
    }

    /** Attribute a failed golden comparison to the points that diverge
     *  (the failure path re-compares each point on its own). */
    void
    markGoldenDivergence(Rep &rep, const exp::GoldenDiff &whole)
    {
        std::ifstream in(goldenDir + "/" + grid.name + ".json");
        std::string text((std::istreambuf_iterator<char>(in)),
                         std::istreambuf_iterator<char>());
        std::string parse_error;
        const exp::Json golden = exp::Json::parse(text, &parse_error);
        const exp::Json *grids = golden.find("grids");
        const exp::Json *want = grids ? grids->find(grid.name) : nullptr;
        bool attributed = false;
        for (std::size_t i = 0; i < jobs.size() && want; ++i) {
            exp::Json one_golden = exp::Json::object();
            exp::Json one_actual = exp::Json::object();
            exp::Json golden_jobs = exp::Json::array();
            exp::Json actual_jobs = exp::Json::array();
            for (const exp::Json &job : want->elements()) {
                const exp::Json *id = job.find("id");
                if (id && id->isString() &&
                    id->asString() == jobs[i].point.id())
                    golden_jobs.push(job);
            }
            actual_jobs.push(exp::jobToJson(jobs[i]));
            one_golden["grids"] = exp::Json::object();
            one_golden["grids"][grid.name] = std::move(golden_jobs);
            one_actual["grids"] = exp::Json::object();
            one_actual["grids"][grid.name] = std::move(actual_jobs);
            const exp::GoldenDiff diff =
                exp::compareToGolden(one_actual, one_golden, grid.name);
            if (!diff.ok || one_golden["grids"][grid.name].size() == 0) {
                rep.items[i].ok = false;
                rep.items[i].error = "golden: " + diff.report;
                attributed = true;
            }
        }
        if (!attributed) {
            // Nothing per point explains it (unreadable golden file):
            // every point of the repetition is unverified.
            for (Item &item : rep.items) {
                item.ok = false;
                item.error = "golden: " + whole.report;
            }
        }
    }

    exp::Grid grid;
    std::string goldenDir;
    std::vector<exp::JobResult> jobs;  ///< the current repetition's results
};

/** mc::explore over every (model, litmus) pair at four padding seeds. */
class McWorkload : public Workload
{
  public:
    explicit McWorkload(std::uint64_t base_seed)
    {
        for (std::uint64_t k = 0; k < 4; ++k) {
            for (core::Model model : core::allModels) {
                for (const axiom::LitmusTest &test : axiom::litmusSuite()) {
                    mc::McOptions opt;
                    opt.model = model;
                    opt.litmus = test.name;
                    opt.seed = base_seed + k;
                    jobs.push_back(opt);
                }
            }
        }
    }

    std::size_t items() const override { return jobs.size(); }

    Item
    runItem(std::size_t i, SpanLog &log) override
    {
        const mc::McOptions &opt = jobs[i];
        Item item;
        log.id = strprintf("%s/%s/s%llu", core::modelName(opt.model),
                           opt.litmus.c_str(),
                           static_cast<unsigned long long>(opt.seed));
        {
            Section whole(log, "pair", &item.wall);
            explore(opt, item, log);
        }
        return item;
    }

    /** The machine every explored schedule builds afresh. */
    double
    setupOnce(std::size_t i) const override
    {
        const mc::McOptions &opt = jobs[i];
        const Clock::time_point t0 = Clock::now();
        const core::Machine machine(
            mc::mcConfig(opt, *mc::findLitmus(opt.litmus)));
        return seconds(Clock::now() - t0);
    }

  private:
    static void
    explore(const mc::McOptions &opt, Item &item, SpanLog &log)
    {
        try {
            mc::McResult result;
            {
                Section s(log, layerNames[Explore], nullptr);
                result = mc::explore(opt);
            }
            item.counts = mcCounts(result.stats);
            item.ok = result.complete && !result.violation;
            if (!item.ok) {
                item.error = log.id + (result.violation
                                           ? ": " + result.violation->report
                                           : ": search incomplete");
            }
        } catch (const std::exception &err) {
            item.error = log.id + ": " + err.what();
        }
    }

    std::vector<mc::McOptions> jobs;
};

std::unique_ptr<Workload>
makeWorkload(const Options &opt)
{
    if (opt.workload == "quick") {
        std::vector<exp::SweepPoint> points =
            exp::namedGrid("quick", exp::Scale::Quick).points;
        // The committed golden document pins the canonical seeds only.
        if (opt.seed == 0) {
            return std::make_unique<SweepWorkload>(
                opt.workload, std::move(points), opt.goldenDir);
        }
        // Each point draws its own data seed from the run seed, so a
        // seed's effect on the amount of work (Qsort's partitions, Psim's
        // traffic) averages over the points.
        for (exp::SweepPoint &p : points)
            p.seed = splitmix64(opt.seed ^ p.derivedSeed()) | 1;
        return std::make_unique<SweepWorkload>(opt.workload,
                                               std::move(points), "");
    }
    if (opt.workload == "mc-matrix") {
        // Seed 0 is the canonical base, McOptions' default padding seed.
        return std::make_unique<McWorkload>(
            opt.seed != 0 ? opt.seed : mc::McOptions{}.seed);
    }
    return nullptr;
}

// ----------------------------------------------------------- reporting

double
minimum(const std::vector<double> &samples)
{
    return samples.empty() ? 0.0
                           : *std::min_element(samples.begin(), samples.end());
}

/** Sum over items of each item's fastest wall time over @p reps. */
double
sumOfItemMinima(const std::vector<const Rep *> &reps, std::size_t n_items)
{
    double total = 0;
    for (std::size_t i = 0; i < n_items; ++i) {
        std::vector<double> samples;
        for (const Rep *rep : reps)
            if (rep->items[i].ok)
                samples.push_back(rep->items[i].wall);
        total += minimum(samples);
    }
    return total;
}

template <typename F>
Summary
acrossReps(const std::vector<const Rep *> &reps, F f)
{
    std::vector<double> samples;
    for (const Rep *rep : reps)
        samples.push_back(f(*rep));
    return summarize(std::move(samples));
}

double
ratio(double num, double den)
{
    return den != 0 ? num / den : 0.0;
}

class Report
{
  public:
    void
    add(const std::string &name, double value, const char *unit,
        const Summary *spread = nullptr)
    {
        exp::Json m = exp::Json::object();
        m["value"] = exp::Json(value);
        m["unit"] = exp::Json(unit);
        if (spread) {
            m["q1"] = exp::Json(spread->q1);
            m["q3"] = exp::Json(spread->q3);
            m["n"] = exp::Json(static_cast<std::uint64_t>(spread->n));
        }
        metrics[name] = std::move(m);
    }

    exp::Json metrics = exp::Json::object();
};

double
peakRssMb()
{
    // VmHWM belongs to this process image; getrusage's ru_maxrss would
    // carry over the peak of the process that exec'd us.
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line)) {
        if (line.rfind("VmHWM:", 0) == 0)
            return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB
    }
    throw std::runtime_error("no VmHWM in /proc/self/status");
}

/** Per-repetition self time of every span name over the traced reps. */
std::map<std::string, std::vector<double>>
selfTimes(const std::vector<Span> &spans, unsigned traced_reps)
{
    std::vector<double> self(spans.size());
    for (std::size_t i = 0; i < spans.size(); ++i)
        self[i] = spans[i].end - spans[i].start;
    for (const Span &s : spans)
        if (s.parent >= 0)
            self[static_cast<std::size_t>(s.parent)] -= s.end - s.start;
    std::map<std::string, std::map<unsigned, double>> by_rep;
    for (std::size_t i = 0; i < spans.size(); ++i)
        by_rep[spans[i].name][spans[i].rep] += self[i];
    std::map<std::string, std::vector<double>> out;
    for (const auto &[name, reps] : by_rep) {
        std::vector<double> v;
        for (const auto &[rep, secs] : reps)
            v.push_back(secs);
        // A layer absent from a traced rep spent no time in it.
        v.resize(traced_reps, 0.0);
        out[name] = std::move(v);
    }
    return out;
}

void
writeChromeTrace(const std::string &path, const std::vector<Span> &spans)
{
    exp::Json events = exp::Json::array();
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const Span &s = spans[i];
        exp::Json e = exp::Json::object();
        e["name"] = exp::Json(s.name);
        const std::string name = s.name;
        e["cat"] = exp::Json(name.substr(0, name.find('.')));
        e["ph"] = exp::Json("X");
        e["ts"] = exp::Json(s.start * 1e6);
        e["dur"] = exp::Json((s.end - s.start) * 1e6);
        e["pid"] = exp::Json(1);
        e["tid"] = exp::Json(1);
        exp::Json args = exp::Json::object();
        args["span"] = exp::Json(static_cast<std::uint64_t>(i));
        args["parent"] = exp::Json(s.parent);
        args["rep"] = exp::Json(s.rep);
        args["id"] = exp::Json(s.id);
        e["args"] = std::move(args);
        events.push(std::move(e));
    }
    exp::Json doc = exp::Json::object();
    doc["traceEvents"] = std::move(events);
    doc["displayTimeUnit"] = exp::Json("ms");
    std::ofstream out(path);
    out << doc.dump() << "\n";
    if (!out)
        throw std::runtime_error("cannot write trace file " + path);
}

[[noreturn]] void
usage(const std::string &message)
{
    std::fprintf(stderr,
                 "perfbench: %s\n"
                 "usage: perfbench --workload quick|mc-matrix "
                 "--seed N --seconds S\n"
                 "                 --golden-dir DIR [--trace-out FILE]\n",
                 message.c_str());
    std::exit(2);
}

Options
parseArgs(int argc, char **argv)
{
    Options opt;
    bool have_seconds = false;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (i + 1 >= argc)
            usage(arg + " expects a value");
        const std::string value = argv[++i];
        char *end = nullptr;
        if (arg == "--workload") {
            opt.workload = value;
        } else if (arg == "--seed") {
            opt.seed = std::strtoull(value.c_str(), &end, 10);
            if (value.empty() || *end != '\0' || value[0] == '-')
                usage("--seed expects a non-negative integer");
        } else if (arg == "--seconds") {
            opt.seconds = std::strtod(value.c_str(), &end);
            if (value.empty() || *end != '\0' || !(opt.seconds > 0))
                usage("--seconds expects a positive number");
            have_seconds = true;
        } else if (arg == "--golden-dir") {
            opt.goldenDir = value;
        } else if (arg == "--trace-out") {
            if (value.empty())
                usage("--trace-out expects a file name");
            opt.traceOut = value;
        } else {
            usage("unknown argument " + arg);
        }
    }
    if (opt.workload.empty() || !have_seconds || opt.goldenDir.empty())
        usage("--workload, --seconds and --golden-dir are required");
    return opt;
}

} // namespace

int
main(int argc, char **argv)
{
    const Clock::time_point origin = Clock::now();
    const Options opt = parseArgs(argc, argv);
    const bool trace = !opt.traceOut.empty();
    std::unique_ptr<Workload> workload = makeWorkload(opt);
    if (!workload)
        usage("unknown workload '" + opt.workload + "'");

    Report report;
    exp::Json errors = exp::Json::array();
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;

    // Isolated cases first (traced runs only), so the repetitions get
    // what remains of the budget. The suite counts as one operation.
    if (trace) {
        attempted += 1;
        try {
            for (const perfbench::MicroResult &m :
                 perfbench::runMicroCases(opt.seed, 5))
                report.add(m.name, m.ns.median, "ns", &m.ns);
        } catch (const std::exception &err) {
            failed += 1;
            errors.push(exp::Json(err.what()));
        }
    }

    // Repetitions until the budget is spent: a new one starts only when a
    // typical one still fits. A traced run alternates untraced and traced
    // repetitions so the tracing overhead compares like with like. After
    // each item, set-up alone runs a few times, so set-up samples are
    // spread over the whole run.
    const std::size_t n_items = workload->items();
    const unsigned setups_per_item = 20;
    std::vector<std::vector<double>> setup_samples(n_items);
    SpanLog log(origin);
    std::vector<Rep> reps;
    const unsigned min_reps = trace ? 2 : 3;
    const Clock::time_point start = Clock::now();
    for (;;) {
        const bool traced = trace && reps.size() % 2 == 1;
        log.on = traced;
        log.rep = static_cast<unsigned>(reps.size());
        Rep rep;
        {
            Section s(log, "rep", &rep.wall);
            for (std::size_t i = 0; i < n_items; ++i) {
                rep.items.push_back(workload->runItem(i, log));
                attempted += 1;  // this item's set-up samples
                try {
                    for (unsigned k = 0; k < setups_per_item; ++k)
                        setup_samples[i].push_back(workload->setupOnce(i));
                } catch (const std::exception &err) {
                    failed += 1;
                    errors.push(exp::Json(std::string("set-up: ") +
                                          err.what()));
                }
            }
            workload->finishRep(rep, log);
        }
        rep.traced = traced;
        std::fprintf(stderr, "perfbench: %s rep %zu%s %.3f s\n",
                     opt.workload.c_str(), reps.size(),
                     traced ? " (traced)" : "", rep.wall);
        reps.push_back(std::move(rep));

        std::vector<double> walls;
        for (const Rep &r : reps)
            walls.push_back(r.wall);
        const double typical = summarize(std::move(walls)).median;
        const double elapsed = seconds(Clock::now() - start);
        if (reps.size() >= min_reps && elapsed + typical > opt.seconds)
            break;
    }
    log.on = false;

    // Correctness: every item ok in every repetition, with the exact
    // counts of repetition 0.
    for (Rep &rep : reps) {
        for (std::size_t i = 0; i < n_items; ++i) {
            Item &item = rep.items[i];
            if (item.ok && item.counts != reps[0].items[i].counts) {
                item.ok = false;
                item.error = "exact counts differ from repetition 0";
            }
            attempted += 1;
            if (!item.ok) {
                failed += 1;
                if (errors.size() < 10)
                    errors.push(exp::Json(item.error));
            }
        }
    }

    Counts counts{};
    for (const Item &item : reps[0].items)
        for (unsigned c = 0; c < NumCounts; ++c)
            counts[c] += item.counts[c];

    std::vector<const Rep *> untraced, traced;
    for (const Rep &rep : reps)
        (rep.traced ? traced : untraced).push_back(&rep);

    // End to end, from untraced repetitions. Each timing is the sum over
    // items of the item's fastest sample: the host's slow phases come and
    // go within seconds, and the fastest sample of an item is the one
    // they disturbed least. The quartiles beside wall_s are those of
    // whole repetitions, and those beside setup_s those of set-up passes.
    std::vector<double> rep_serialize;
    for (const Rep *rep : untraced)
        rep_serialize.push_back(rep->serialize);
    const Summary rep_walls =
        acrossReps(untraced, [](const Rep &r) { return r.wall; });
    report.add("wall_s",
               sumOfItemMinima(untraced, n_items) + minimum(rep_serialize),
               "s", &rep_walls);
    double setup_s = 0;
    std::vector<double> pass_totals(setup_samples[0].size(), 0.0);
    for (const std::vector<double> &samples : setup_samples) {
        setup_s += minimum(samples);
        for (std::size_t k = 0; k < samples.size() && k < pass_totals.size();
             ++k)
            pass_totals[k] += samples[k];
    }
    const Summary setup_spread = summarize(pass_totals);
    report.add("setup_s", setup_s, "s", &setup_spread);
    report.add("peak_rss_mb", peakRssMb(), "MB");

    if (trace) {
        // Per layer, from the traced repetitions' spans: self time per
        // repetition (median over traced reps).
        const auto self = selfTimes(log.spans,
                                    static_cast<unsigned>(traced.size()));
        auto layer_s = [&](const std::string &name) {
            const auto it = self.find(name);
            return it == self.end() ? 0.0 : summarize(it->second).median;
        };
        for (const char *name : layerNames) {
            const auto it = self.find(name);
            const Summary s = summarize(
                it == self.end() ? std::vector<double>(traced.size(), 0.0)
                                 : it->second);
            report.add(std::string(name) + "_s", s.median, "s", &s);
        }
        report.add("bench.self_s",
                   layer_s("rep") + layer_s("point") + layer_s("pair"), "s");

        report.add("trace.overhead_s",
                   sumOfItemMinima(traced, n_items) -
                       sumOfItemMinima(untraced, n_items),
                   "s");
        report.add("trace.spans",
                   static_cast<double>(log.spans.size()), "count");

        const double run_s = layer_s("core.run");
        const double explore_s = layer_s("mc.explore");
        const auto count = [&](Count c) {
            return static_cast<double>(counts[c]);
        };
        report.add("sim.events", count(SimEvents), "count");
        report.add("sim.cycles", count(SimCycles), "count");
        report.add("sim.ns_per_event", ratio(run_s * 1e9, count(SimEvents)),
                   "ns");
        report.add("sim.cycles_per_s", ratio(count(SimCycles), run_s), "1/s");

        report.add("net.req_messages", count(ReqMessages), "count");
        report.add("net.resp_messages", count(RespMessages), "count");
        report.add("net.flits", count(Flits), "count");
        report.add("net.queue_cycles", count(QueueCycles), "count");
        report.add("net.buf_enqueued", count(BufEnqueued), "count");
        report.add("net.buf_full_rejects", count(BufFullRejects), "count");
        report.add("net.buf_reject_ratio",
                   ratio(count(BufFullRejects), count(BufEnqueued)), "ratio");
        report.add("net.messages_per_event",
                   ratio(count(ReqMessages) + count(RespMessages),
                         count(SimEvents)),
                   "ratio");

        report.add("mem.cache_accesses", count(CacheAccesses), "count");
        report.add("mem.hit_rate", ratio(count(DataHits), count(DataRefs)),
                   "ratio");
        report.add("mem.blocked_ratio",
                   ratio(count(CacheBlocked),
                         count(CacheAccesses) + count(CacheBlocked)),
                   "ratio");
        report.add("mem.dir_requests", count(DirRequests), "count");
        report.add("mem.dir_queued_ratio",
                   ratio(count(DirQueued), count(DirRequests)), "ratio");

        report.add("cpu.instructions", count(Instructions), "count");
        report.add("cpu.instr_per_event",
                   ratio(count(Instructions), count(SimEvents)), "ratio");
        report.add("cpu.events_per_instr",
                   ratio(count(SimEvents), count(Instructions)), "ratio");
        report.add("cpu.busy_cycles", count(BusyCycles), "count");
        for (unsigned i = 0; i < obs::numStallCauses; ++i) {
            report.add("cpu." + countName(StallFirst + i),
                       count(static_cast<Count>(StallFirst + i)), "count");
        }

        report.add("mc.schedules", count(McSchedules), "count");
        report.add("mc.choice_points", count(McChoicePoints), "count");
        report.add("mc.sleep_pruned", count(McSleepPruned), "count");
        report.add("mc.blocked_ratio",
                   ratio(count(McSleepBlocked), count(McSchedules)), "ratio");
        report.add("mc.us_per_schedule",
                   ratio(explore_s * 1e6, count(McSchedules)), "us");
        report.add("mc.schedules_per_s", ratio(count(McSchedules), explore_s),
                   "1/s");

        attempted += 1;
        try {
            writeChromeTrace(opt.traceOut, log.spans);
        } catch (const std::exception &err) {
            errors.push(exp::Json(err.what()));
            failed += 1;
        }
    }

    exp::Json doc = exp::Json::object();
    doc["workload"] = exp::Json(opt.workload);
    doc["seed"] = exp::Json(strprintf(
        "%llu", static_cast<unsigned long long>(opt.seed)));
    doc["items"] = exp::Json(static_cast<std::uint64_t>(n_items));
    doc["reps"] = exp::Json(static_cast<std::uint64_t>(untraced.size()));
    doc["traced_reps"] = exp::Json(static_cast<std::uint64_t>(traced.size()));
    doc["attempted"] = exp::Json(attempted);
    doc["failed"] = exp::Json(failed);
    doc["errors"] = std::move(errors);
    exp::Json counts_json = exp::Json::object();
    for (unsigned c = 0; c < NumCounts; ++c)
        counts_json[countName(c)] = exp::Json(counts[c]);
    doc["counts"] = std::move(counts_json);
    doc["metrics"] = std::move(report.metrics);
    std::printf("%s\n", doc.dump().c_str());
    return 0;
}

/**
 * @file
 * sweep_runner: run named configuration grids through the parallel
 * sweep engine (src/exp/), print the paper's tables for the paper grids,
 * and emit canonical JSON/CSV results, or check them against committed
 * golden baselines.
 *
 * Usage:
 *   sweep_runner [--grid NAME[,NAME...]]... [--scale quick|scaled|full]
 *                [--threads N] [--out FILE] [--csv FILE]
 *                [--check DIR] [--golden-out DIR]
 *                [--journal DIR [--shard K/M]]
 *                [--procs N] [--cache-bytes N] [--line-bytes N]
 *                [--faults PRESET] [--chaos]
 *                [--list] [--no-progress]
 *
 * Defaults: --grid quick, --threads hardware. Files are written only
 * when asked for: --out, --csv, --golden-out.
 *
 * Each paper grid (fig2, fig4..fig9, table2, tables3_6) prints its
 * figure's or table's rows on stdout (exp::paperReport, rendered from
 * the results document), so `sweep_runner --grid fig4 --scale full`
 * reproduces Figure 4 at the paper's sizes.
 *
 * The JSON document is byte-identical for a given grid list regardless
 * of --threads (results are serialized in grid order; nothing
 * wall-clock-derived is recorded). --check DIR compares each grid
 * against DIR/<grid>.json under the per-metric tolerance policy
 * (src/exp/golden.hh) and prints the first divergent metric by name.
 *
 * --journal DIR makes the run resumable (src/svc/, DESIGN.md section
 * 15): each grid's shard K of M (--shard, default 0/1) checkpoints every
 * completed point into DIR/<grid>.sKKK-of-MMM.mcsj, and re-running the
 * same command skips the journaled points. Once every shard's journal
 * covers its points, the outputs are built from the journals and are
 * byte-identical to a plain run's; until then the run only reports
 * coverage, so M processes (on any hosts sharing DIR) may run at once.
 *
 * --faults PRESET applies a fault-injection preset (src/fault/) to every
 * point; --chaos instead runs the chaos harness (src/exp/chaos.hh),
 * which pairs every point with a fault-free baseline and asserts fault
 * transparency. All configuration -- grid names, preset names, geometry
 * overrides, output paths, existing journals -- is validated before any
 * job runs, so a typo fails in milliseconds with one actionable line
 * instead of mid-sweep.
 *
 * Exit status: 0 all jobs ok (and all checks clean), 1 on any failed
 * job, golden divergence, chaos failure, or I/O error, 2 on usage/config
 * errors.
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <sys/stat.h>

#include "exp/chaos.hh"
#include "exp/golden.hh"
#include "exp/grid.hh"
#include "exp/report.hh"
#include "exp/sweep.hh"
#include "fault/fault_config.hh"
#include "mem/cache.hh"
#include "sim/logging.hh"
#include "svc/atomic_file.hh"
#include "svc/merge.hh"
#include "svc/shard.hh"

#include "../common/cli.hh"

using namespace mcsim;

namespace
{

struct Options
{
    std::vector<std::string> grids;
    exp::Scale scale = exp::Scale::Scaled;
    unsigned threads = 0;
    std::string out;
    std::string csv;
    std::string checkDir;
    std::string goldenOut;
    std::string journal;
    std::uint32_t shard = 0;
    std::uint32_t shards = 1;
    bool shardGiven = false;
    std::string faults;
    bool chaos = false;
    unsigned procs = 0;
    unsigned cacheBytes = 0;
    unsigned lineBytes = 0;
    bool list = false;
    bool progress = true;
};

void
usage(const char *argv0)
{
    std::string names;
    for (const std::string &name : exp::gridNames())
        names += (names.empty() ? "" : "|") + name;
    std::string presets;
    for (const std::string &name : fault::faultPresetNames())
        presets += (presets.empty() ? "" : "|") + name;
    std::fprintf(
        stderr,
        "usage: %s [--grid NAME[,NAME...]]... [--scale quick|scaled|full]\n"
        "          [--threads N] [--out FILE] [--csv FILE]\n"
        "          [--check DIR] [--golden-out DIR]\n"
        "          [--journal DIR [--shard K/M]]\n"
        "          [--procs N] [--cache-bytes N] [--line-bytes N]\n"
        "          [--faults PRESET] [--chaos] [--list] [--no-progress]\n"
        "  --grid        grid(s) to run: %s, or all (default: quick)\n"
        "  --scale       problem/cache scale for the paper grids\n"
        "                (default scaled; the quick grid is always quick)\n"
        "  --threads     worker threads (default: hardware concurrency)\n"
        "  --out         write the results JSON (the chaos report under\n"
        "                --chaos) to FILE\n"
        "  --csv         also write a flat CSV of every job\n"
        "  --check       diff each grid against DIR/<grid>.json golden\n"
        "                baselines; non-zero exit on divergence\n"
        "  --golden-out  write one per-grid golden document into DIR\n"
        "  --journal     checkpoint every point into DIR; re-running the\n"
        "                same command resumes where the journals end\n"
        "  --shard       run shard K of M of each grid into the journal\n"
        "                (default 0/1); outputs are written once every\n"
        "                shard's journal is complete\n"
        "  --procs       override processor/module count per point\n"
        "  --cache-bytes override per-processor cache size per point\n"
        "  --line-bytes  override cache line size per point\n"
        "  --faults      fault-injection preset: %s\n"
        "  --chaos       run the fault-transparency chaos harness instead\n"
        "                of a plain sweep (preset from --faults, default\n"
        "                standard)\n"
        "  --list        print the known grid names and exit\n",
        argv0, names.c_str(), presets.c_str());
}

/** Parse "K/M" with 0 <= K < M; false on anything else. */
bool
parseShard(const std::string &text, std::uint32_t &k, std::uint32_t &m)
{
    const std::size_t slash = text.find('/');
    if (slash == std::string::npos)
        return false;
    unsigned kv = 0;
    unsigned mv = 0;
    if (!tools::parseUnsigned(text.substr(0, slash).c_str(), kv) ||
        !tools::parseUnsigned(text.substr(slash + 1).c_str(), mv) ||
        kv >= mv)
        return false;
    k = kv;
    m = mv;
    return true;
}

void
splitGrids(const std::string &arg, std::vector<std::string> &out)
{
    std::size_t start = 0;
    while (start <= arg.size()) {
        const std::size_t comma = arg.find(',', start);
        const std::string name =
            arg.substr(start, comma == std::string::npos
                                  ? std::string::npos
                                  : comma - start);
        if (name == "all") {
            for (const std::string &g : exp::gridNames())
                out.push_back(g);
        } else if (!name.empty()) {
            out.push_back(name);
        }
        if (comma == std::string::npos)
            break;
        start = comma + 1;
    }
}

Options
parseArgs(int argc, char **argv)
{
    Options opt;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto next = [&]() -> const char * {
            if (i + 1 >= argc) {
                usage(argv[0]);
                std::exit(2);
            }
            return argv[++i];
        };
        auto argError = [&](const std::string &message) {
            std::fprintf(stderr, "sweep_runner: %s\n", message.c_str());
            usage(argv[0]);
            std::exit(2);
        };
        auto nextUnsigned = [&]() -> unsigned {
            unsigned value = 0;
            if (!tools::parseUnsigned(next(), value))
                argError(arg + " expects a non-negative integer, got '" +
                         argv[i] + "'");
            return value;
        };
        if (arg == "--grid") {
            splitGrids(next(), opt.grids);
        } else if (arg == "--scale") {
            try {
                opt.scale = exp::scaleFromName(next());
            } catch (const FatalError &err) {
                argError(err.what());
            }
        } else if (arg == "--threads") {
            opt.threads = nextUnsigned();
        } else if (arg == "--out") {
            opt.out = next();
        } else if (arg == "--csv") {
            opt.csv = next();
        } else if (arg == "--check") {
            opt.checkDir = next();
        } else if (arg == "--golden-out") {
            opt.goldenOut = next();
        } else if (arg == "--journal") {
            opt.journal = next();
        } else if (arg == "--shard") {
            const std::string text = next();
            if (!parseShard(text, opt.shard, opt.shards))
                argError("--shard expects K/M with 0 <= K < M, got '" +
                         text + "'");
            opt.shardGiven = true;
        } else if (arg == "--procs") {
            opt.procs = nextUnsigned();
        } else if (arg == "--cache-bytes") {
            opt.cacheBytes = nextUnsigned();
        } else if (arg == "--line-bytes") {
            opt.lineBytes = nextUnsigned();
        } else if (arg == "--faults") {
            opt.faults = next();
        } else if (arg == "--chaos") {
            opt.chaos = true;
        } else if (arg == "--list") {
            opt.list = true;
        } else if (arg == "--no-progress") {
            opt.progress = false;
        } else if (arg == "--help" || arg == "-h") {
            usage(argv[0]);
            std::exit(0);
        } else {
            std::fprintf(stderr, "unknown argument: %s\n", arg.c_str());
            usage(argv[0]);
            std::exit(2);
        }
    }
    if (opt.grids.empty())
        opt.grids.push_back("quick");
    return opt;
}

/** One-line config error + exit 2 (the up-front validation contract). */
[[noreturn]] void
configError(const std::string &message)
{
    std::fprintf(stderr, "sweep_runner: %s\n", message.c_str());
    std::exit(2);
}

/**
 * Name, flag and geometry validation: every grid name, the flag
 * combinations, the fault preset, and the geometry overrides. Runs
 * before the --list early exit too, so `--list --faults bogus` fails
 * the same way a real run would.
 */
void
validateConfig(const Options &opt)
{
    for (std::size_t i = 0; i < opt.grids.size(); ++i) {
        const std::string &name = opt.grids[i];
        bool known = false;
        for (const std::string &g : exp::gridNames())
            known = known || g == name;
        if (!known)
            configError(strprintf(
                "unknown grid '%s' (run --list for the catalog)",
                name.c_str()));
        for (std::size_t j = 0; j < i; ++j)
            if (opt.grids[j] == name)
                configError(strprintf("grid '%s' is listed twice",
                                      name.c_str()));
    }
    if (opt.shardGiven && opt.journal.empty())
        configError("--shard requires --journal DIR");
    if (opt.chaos) {
        // Chaos runs write one report document and nothing else.
        if (!opt.journal.empty())
            configError("--journal does not apply to --chaos");
        if (!opt.csv.empty())
            configError("--csv does not apply to --chaos");
        if (!opt.checkDir.empty())
            configError("--check does not apply to --chaos");
        if (!opt.goldenOut.empty())
            configError("--golden-out does not apply to --chaos");
    }
    if (!opt.faults.empty() || opt.chaos) {
        const std::string preset =
            opt.faults.empty() ? "standard" : opt.faults;
        bool known = false;
        for (const std::string &p : fault::faultPresetNames())
            known = known || p == preset;
        if (!known) {
            std::string presets;
            for (const std::string &p : fault::faultPresetNames())
                presets += (presets.empty() ? "" : "/") + p;
            configError(strprintf("unknown fault preset '%s' (try %s)",
                                  preset.c_str(), presets.c_str()));
        }
    }
    if (opt.procs && !isPowerOf2(opt.procs))
        configError(strprintf(
            "--procs %u: processor count must be a power of two "
            "(the Omega networks route by bit slices)",
            opt.procs));
    if (opt.lineBytes && (!isPowerOf2(opt.lineBytes) || opt.lineBytes < 8))
        configError(strprintf(
            "--line-bytes %u: line size must be a power of two >= 8",
            opt.lineBytes));
    const unsigned line = opt.lineBytes ? opt.lineBytes : 8;
    if (opt.cacheBytes && opt.cacheBytes < line)
        configError(strprintf(
            "--cache-bytes %u: cache would hold zero lines of %u bytes",
            opt.cacheBytes, line));
}

/**
 * Fail fast on bad configuration: after validateConfig, each resulting
 * per-point MachineConfig is dry-built and checked before a single job
 * is launched.
 */
std::vector<exp::Grid>
buildGrids(const Options &opt)
{
    std::vector<exp::Grid> grids;
    for (const std::string &name : opt.grids)
        grids.push_back(exp::namedGrid(name, opt.scale));
    for (exp::Grid &grid : grids) {
        for (exp::SweepPoint &point : grid.points) {
            if (opt.procs)
                point.numProcs = opt.procs;
            if (opt.cacheBytes)
                point.cacheBytes = opt.cacheBytes;
            if (opt.lineBytes)
                point.lineBytes = opt.lineBytes;
            if (!opt.faults.empty() && !opt.chaos)
                point.faultPreset = opt.faults;
            // Dry-build the full machine configuration so geometry that
            // only a component constructor would reject (set counts,
            // associativity divisibility, fault rates) fails here, named
            // after the point, and not mid-sweep in a worker thread.
            try {
                const core::MachineConfig cfg = point.machineConfig();
                cfg.validate();
                mem::CacheParams cache;
                cache.cacheBytes = cfg.cacheBytes;
                cache.lineBytes = cfg.lineBytes;
                cache.assoc = cfg.assoc;
                cache.validate();
            } catch (const FatalError &err) {
                configError(strprintf("point %s: %s",
                                      point.id().c_str(), err.what()));
            }
        }
    }
    return grids;
}

/** configError unless the directory @p path would be written into
 *  exists. */
void
requireParentDirectory(const char *flag, const std::string &path)
{
    const std::size_t slash = path.rfind('/');
    std::string parent = ".";
    if (slash != std::string::npos)
        parent = slash == 0 ? "/" : path.substr(0, slash);
    struct stat st = {};
    if (::stat(parent.c_str(), &st) != 0 || !S_ISDIR(st.st_mode))
        configError(strprintf("%s %s: directory '%s' does not exist", flag,
                              path.c_str(), parent.c_str()));
}

/**
 * Output validation, before any job runs: a golden to check against
 * must exist, --out and --csv must land in existing directories, and
 * the --golden-out and --journal directories are created now, so no
 * output problem surfaces only after hours of simulation.
 */
void
prepareOutputs(const Options &opt)
{
    if (!opt.checkDir.empty()) {
        for (const std::string &name : opt.grids) {
            const std::string golden =
                opt.checkDir + "/" + name + ".json";
            struct stat st = {};
            if (::stat(golden.c_str(), &st) != 0)
                configError(strprintf("--check %s: no golden file '%s'",
                                      opt.checkDir.c_str(),
                                      golden.c_str()));
        }
    }
    if (!opt.out.empty())
        requireParentDirectory("--out", opt.out);
    if (!opt.csv.empty())
        requireParentDirectory("--csv", opt.csv);
    try {
        svc::ensureDirectory(opt.goldenOut);
        svc::ensureDirectory(opt.journal);
    } catch (const FatalError &err) {
        configError(err.what());
    }
}

exp::SweepOptions
sweepOptions(const Options &opt)
{
    exp::SweepOptions sweep_opts;
    sweep_opts.threads = opt.threads;
    sweep_opts.progress = opt.progress;
    return sweep_opts;
}

unsigned
threadCount(const Options &opt)
{
    return opt.threads ? opt.threads : std::thread::hardware_concurrency();
}

int
runChaosMode(const Options &opt, const std::vector<exp::Grid> &grids)
{
    exp::ChaosOptions chaos_opts;
    chaos_opts.preset = opt.faults.empty() ? "standard" : opt.faults;
    chaos_opts.threads = opt.threads;
    chaos_opts.progress = opt.progress;

    bool all_ok = true;
    exp::Json docs = exp::Json::array();
    for (const exp::Grid &grid : grids) {
        std::fprintf(stderr,
                     "chaos grid %s: %zu point pair(s), preset %s\n",
                     grid.name.c_str(), grid.points.size(),
                     chaos_opts.preset.c_str());
        const exp::ChaosReport report = exp::runChaos(grid, chaos_opts);
        std::fputs(report.summary().c_str(), stdout);
        all_ok = all_ok && report.ok();
        docs.push(report.toJson());
    }
    if (!opt.out.empty()) {
        exp::Json doc = exp::Json::object();
        doc["schema"] = exp::Json("mcsim-chaos-v1");
        doc["reports"] = std::move(docs);
        svc::writeFileAtomic(opt.out, doc.dump() + "\n");
    }
    return all_ok ? 0 : 1;
}

/** A job record's string field, empty when absent. */
std::string
jobText(const exp::Json &job, const char *name)
{
    const exp::Json *value = job.find(name);
    return value != nullptr && value->isString() ? value->asString() : "";
}

/**
 * The output tail plain and journaled runs share: results document,
 * CSV, per-grid goldens, the paper's tables, golden check, and the
 * summary with its failure list. Exit status 0 only when every job is
 * ok and every check clean.
 */
int
writeResults(const Options &opt, const exp::Json &doc)
{
    if (!opt.out.empty())
        svc::writeFileAtomic(opt.out, doc.dump() + "\n");
    if (!opt.csv.empty())
        svc::writeFileAtomic(opt.csv, exp::documentCsv(doc));
    const exp::Json &grids = *doc.find("grids");
    if (!opt.goldenOut.empty()) {
        // One self-contained document per grid, the format --check
        // consumes.
        for (const auto &[name, jobs] : grids.pairs())
            svc::writeFileAtomic(
                opt.goldenOut + "/" + name + ".json",
                exp::sweepDocument({{name, jobs}}).dump() + "\n");
    }
    const std::string report = exp::paperReport(doc);
    if (!report.empty())
        std::printf("%s\n", report.c_str());

    bool check_ok = true;
    if (!opt.checkDir.empty()) {
        for (const auto &[name, jobs] : grids.pairs()) {
            (void)jobs;
            const exp::GoldenDiff diff =
                exp::checkAgainstGoldenDir(doc, opt.checkDir, name);
            std::fputs(diff.report.c_str(), stdout);
            check_ok = check_ok && diff.ok;
        }
    }

    std::size_t total = 0;
    std::vector<const exp::Json *> failed;
    for (const auto &[name, jobs] : grids.pairs()) {
        (void)name;
        for (const exp::Json &job : jobs.elements()) {
            ++total;
            if (jobText(job, "status") != "ok")
                failed.push_back(&job);
        }
    }
    std::printf("sweep_runner: %zu/%zu job(s) ok%s\n",
                total - failed.size(), total,
                check_ok ? "" : ", golden check FAILED");
    for (const exp::Json *job : failed)
        std::printf("  FAILED %s: %s\n", jobText(*job, "id").c_str(),
                    jobText(*job, "error").c_str());
    return failed.empty() && check_ok ? 0 : 1;
}

/**
 * Journaled run: each grid's shard K checkpoints into the journal
 * directory, then the journals of all M shards are merged. Once they
 * cover every point, the document built from them goes through the
 * same output tail as a plain run; until then nothing is written and
 * the exit status reflects only the jobs this process ran.
 */
int
runJournaled(const Options &opt, const std::vector<exp::Grid> &grids)
{
    std::vector<svc::ShardPlan> plans;
    for (const exp::Grid &grid : grids)
        plans.push_back({grid, opt.scale, opt.shard, opt.shards});
    // A journal another plan wrote is a configuration error, found
    // before any job runs and left untouched.
    try {
        for (const svc::ShardPlan &plan : plans)
            svc::checkJournals(plan, opt.journal);
    } catch (const FatalError &err) {
        configError(err.what());
    }

    std::size_t failed = 0;
    for (const svc::ShardPlan &plan : plans) {
        std::fprintf(stderr, "grid %s: shard %u/%u on %u thread(s)\n",
                     plan.grid.name.c_str(), plan.shard, plan.shardCount,
                     threadCount(opt));
        failed += svc::runShard(plan, opt.journal, sweepOptions(opt))
                      .failedJobs;
    }

    std::size_t covered = 0;
    std::size_t total = 0;
    std::vector<std::pair<std::string, exp::Json>> merged;
    for (const svc::ShardPlan &plan : plans) {
        svc::MergeResult result = svc::mergeJournals(plan, opt.journal);
        covered += result.coveredPoints;
        total += plan.grid.points.size();
        merged.emplace_back(plan.grid.name, std::move(result.jobs));
    }
    if (covered < total) {
        std::printf("sweep_runner: %zu/%zu point(s) journaled in %s; "
                    "outputs are written once every shard is done\n",
                    covered, total, opt.journal.c_str());
        return failed == 0 ? 0 : 1;
    }
    return writeResults(opt, exp::sweepDocument(std::move(merged)));
}

} // namespace

int
main(int argc, char **argv)
{
    const Options opt = parseArgs(argc, argv);
    validateConfig(opt);
    if (opt.list) {
        for (const std::string &name : exp::gridNames())
            std::printf("%s\n", name.c_str());
        return 0;
    }

    const std::vector<exp::Grid> grids = buildGrids(opt);
    prepareOutputs(opt);
    try {
        if (opt.chaos)
            return runChaosMode(opt, grids);
        if (!opt.journal.empty())
            return runJournaled(opt, grids);

        exp::SweepOutcomes outcomes;
        for (const exp::Grid &grid : grids) {
            std::fprintf(stderr, "grid %s: %zu jobs on %u thread(s)\n",
                         grid.name.c_str(), grid.points.size(),
                         threadCount(opt));
            outcomes.add(grid, exp::SweepRunner(sweepOptions(opt)).run(grid));
        }
        return writeResults(opt, outcomes.toJson());
    } catch (const std::exception &err) {
        // I/O failures (a full disk, a journal write cut short) end the
        // run with one line; the journal keeps every flushed point.
        std::fprintf(stderr, "sweep_runner: %s\n", err.what());
        return 1;
    }
}

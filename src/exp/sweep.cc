#include "exp/sweep.hh"

#include <atomic>
#include <chrono>
#include <exception>
#include <cstdio>
#include <mutex>
#include <thread>

#include "axiom/axiom_checker.hh"
#include "core/machine.hh"
#include "sim/logging.hh"

namespace mcsim::exp
{

SweepRunner::SweepRunner(SweepOptions options) : opts(options)
{
    if (opts.threads == 0) {
        opts.threads = std::thread::hardware_concurrency();
        if (opts.threads == 0)
            opts.threads = 1;
    }
}

JobResult
SweepRunner::runPoint(const SweepPoint &point)
{
    JobResult result;
    result.point = point;
    try {
        core::MachineConfig cfg = point.machineConfig();
        auto workload = point.makeWorkload();
        if (!workload->dataRaceFree())
            cfg.check.races = false;

        core::Machine machine(cfg);
        workload->setup(machine);
        const Tick last = machine.run();
        workload->verify(machine);
        result.metrics = core::RunMetrics::fromMachine(machine, last);

        if (axiom::TraceRecorder *rec = machine.traceRecorder()) {
            const axiom::Trace &trace = rec->finish();
            const axiom::AxiomResult verdict =
                axiom::checkTrace(trace, cfg.modelParams());
            result.traceChecked = true;
            result.traceAccepted = verdict.ok;
            result.traceEvents = trace.events.size();
            result.traceEdges = verdict.edgeCount;
            if (!verdict.ok) {
                result.error = "axiomatic trace rejected: " +
                               verdict.message;
                return result;
            }
        }
        result.ok = true;
    } catch (const std::exception &err) {
        result.error = err.what();
    }
    return result;
}

std::vector<JobResult>
SweepRunner::run(const Grid &grid) const
{
    std::vector<std::size_t> all(grid.points.size());
    for (std::size_t i = 0; i < all.size(); ++i)
        all[i] = i;
    return runIndices(grid, all);
}

std::vector<JobResult>
SweepRunner::runIndices(const Grid &grid,
                        const std::vector<std::size_t> &indices,
                        const JobSink &on_complete) const
{
    const std::size_t gridTotal = grid.points.size();
    const std::size_t total = indices.size();
    std::vector<JobResult> results(total);
    if (total == 0)
        return results;
    for (std::size_t index : indices) {
        if (index >= gridTotal) {
            fatal("sweep: index %zu out of range for grid '%s' (%zu "
                  "points)", index, grid.name.c_str(), gridTotal);
        }
    }

    // Wall-clock is display-only: it feeds the stderr progress line and
    // never any result. Canonical output stays a pure function of the
    // grid (test_determinism pins this).
    // mcsim-lint: no-entropy(stderr progress/ETA display only)
    const auto t0 = std::chrono::steady_clock::now();
    std::atomic<std::size_t> next{0};
    std::atomic<std::size_t> completed{0};
    std::atomic<bool> stop{false};
    std::mutex reportMutex;
    // The sink may throw (a journal append hitting a full or failing
    // disk): capture the first exception, stop the pool, and rethrow
    // from the calling thread -- an exception crossing a thread
    // boundary uncaught would terminate the whole process.
    std::exception_ptr sinkError;

    auto worker = [&]() {
        for (;;) {
            if (stop.load(std::memory_order_relaxed))
                return;
            const std::size_t i = next.fetch_add(1);
            if (i >= total)
                return;
            const std::size_t index = indices[i];
            results[i] = runPoint(grid.points[index]);
            if (!results[i].ok) {
                // Locate the failure for whoever reads the results
                // document: a timeout/watchdog message alone does not say
                // which job died (the machine knows nothing of the grid).
                // The annotation uses the grid-global index and total, so
                // a sharded run reports identically to a whole-grid run.
                results[i].error = strprintf(
                    "grid '%s' point %zu of %zu (%s, seed %llu): %s",
                    grid.name.c_str(), index, gridTotal,
                    grid.points[index].id().c_str(),
                    static_cast<unsigned long long>(
                        grid.points[index].seed),
                    results[i].error.c_str());
            }
            const std::size_t done = completed.fetch_add(1) + 1;
            if (on_complete) {
                // Serialized: journal-style sinks append without locking.
                std::lock_guard<std::mutex> lock(reportMutex);
                try {
                    on_complete(index, results[i]);
                } catch (...) {
                    if (!sinkError)
                        sinkError = std::current_exception();
                    stop.store(true, std::memory_order_relaxed);
                    return;
                }
            }
            if (!opts.progress)
                continue;
            const double elapsed =
                std::chrono::duration<double>(
                    // mcsim-lint: no-entropy(stderr progress display only)
                    std::chrono::steady_clock::now() - t0)
                    .count();
            const double eta =
                elapsed / static_cast<double>(done) *
                static_cast<double>(total - done);
            std::lock_guard<std::mutex> lock(reportMutex);
            std::fprintf(stderr,
                         "[%zu/%zu] %-44s %-6s %6.1fs elapsed, ETA "
                         "%.1fs\n",
                         done, total, grid.points[index].id().c_str(),
                         results[i].ok ? "ok" : "FAILED", elapsed, eta);
        }
    };

    const unsigned n =
        static_cast<unsigned>(std::min<std::size_t>(opts.threads, total));
    std::vector<std::thread> pool;
    pool.reserve(n);
    for (unsigned t = 0; t < n; ++t)
        pool.emplace_back(worker);
    for (auto &t : pool)
        t.join();
    if (sinkError)
        std::rethrow_exception(sinkError);
    return results;
}

void
SweepOutcomes::add(const Grid &grid, std::vector<JobResult> results)
{
    order.push_back(grid.name);
    perGrid.push_back(std::move(results));
}

const std::vector<JobResult> &
SweepOutcomes::gridResults(const std::string &g) const
{
    for (std::size_t i = 0; i < order.size(); ++i)
        if (order[i] == g)
            return perGrid[i];
    fatal("no results recorded for grid '%s'", g.c_str());
}

Json
jobToJson(const JobResult &job)
{
    const SweepPoint &p = job.point;
    Json out = Json::object();
    out["id"] = Json(p.id());
    out["benchmark"] = Json(p.benchmark);
    out["model"] = Json(core::modelName(p.model));
    out["scale"] = Json(scaleName(p.scale));
    out["procs"] = Json(p.numProcs);
    out["cacheBytes"] = Json(p.cacheBytes);
    out["lineBytes"] = Json(p.lineBytes);
    out["delay"] = Json(p.delay);
    out["schedule"] = Json(workloads::relaxScheduleName(p.schedule));
    // As a string: 64-bit seeds are not exactly representable in a JSON
    // number (IEEE double mantissa is 53 bits).
    out["seed"] = Json(
        strprintf("%llu", static_cast<unsigned long long>(p.seed)));
    out["status"] = Json(job.ok ? "ok" : "failed");
    if (!job.ok)
        out["error"] = Json(job.error);
    Json metrics = Json::object();
    for (const auto &[name, value] : job.metrics.toStatSet())
        metrics[name] = Json(value);
    if (job.traceChecked) {
        metrics["axiomAccepted"] = Json(job.traceAccepted ? 1.0 : 0.0);
        metrics["axiomEvents"] = Json(job.traceEvents);
        metrics["axiomEdges"] = Json(job.traceEdges);
    }
    out["metrics"] = std::move(metrics);
    return out;
}

Json
SweepOutcomes::toJson() const
{
    std::vector<std::pair<std::string, Json>> grids;
    grids.reserve(order.size());
    for (std::size_t i = 0; i < order.size(); ++i) {
        Json jobs = Json::array();
        for (const JobResult &job : perGrid[i])
            jobs.push(jobToJson(job));
        grids.emplace_back(order[i], std::move(jobs));
    }
    return sweepDocument(std::move(grids));
}

std::string
SweepOutcomes::toCsv() const
{
    return documentCsv(toJson());
}

Json
sweepDocument(std::vector<std::pair<std::string, Json>> grids)
{
    Json doc = Json::object();
    doc["schema"] = Json("mcsim-sweep-v1");
    Json members = Json::object();
    for (auto &[name, jobs] : grids)
        members[name] = std::move(jobs);
    doc["grids"] = std::move(members);
    return doc;
}

namespace
{

/** One CSV row (trailing newline included) from a job's canonical JSON;
 *  numbers reuse the canonical writer, so the bytes depend only on the
 *  JSON, never on whether it came from live results or a journal. */
std::string
csvRow(const std::string &grid_name, const Json &job,
       const StatSet &reference)
{
    auto field = [&](const char *name) -> const Json & {
        const Json *value = job.find(name);
        if (value == nullptr)
            fatal("csv: job record lacks field '%s'", name);
        return *value;
    };
    auto text = [&](const char *name) {
        const Json &value = field(name);
        return value.isString() ? value.asString() : value.dump();
    };
    std::string out;
    out += grid_name;
    for (const char *name :
         {"id", "benchmark", "model", "scale", "procs", "cacheBytes",
          "lineBytes", "delay", "schedule", "seed", "status"}) {
        out += ',';
        out += text(name);
    }
    const Json &metrics = field("metrics");
    for (const auto &[name, value] : reference) {
        (void)value;
        const Json *metric = metrics.find(name);
        if (metric == nullptr)
            fatal("csv: job '%s' lacks metric '%s'",
                  text("id").c_str(), name.c_str());
        out += ',';
        out += metric->dump();
    }
    out += "\n";
    return out;
}

} // namespace

std::string
documentCsv(const Json &doc)
{
    // Fixed column set: point identity, status, then the RunMetrics
    // export in its canonical (alphabetical) order, taken from a default
    // instance so failed jobs produce the same columns.
    const StatSet reference = core::RunMetrics().toStatSet();
    std::string out =
        "grid,id,benchmark,model,scale,procs,cacheBytes,lineBytes,delay,"
        "schedule,seed,status";
    for (const auto &[name, value] : reference) {
        (void)value;
        out += ',';
        out += name;
    }
    out += "\n";
    const Json *grids = doc.find("grids");
    if (grids == nullptr)
        fatal("csv: results document lacks 'grids'");
    for (const auto &[name, jobs] : grids->pairs())
        for (const Json &job : jobs.elements())
            out += csvRow(name, job, reference);
    return out;
}

SweepOutcomes
runGrid(const Grid &grid, SweepOptions options)
{
    SweepOutcomes outcomes;
    outcomes.add(grid, SweepRunner(options).run(grid));
    return outcomes;
}

} // namespace mcsim::exp

#include "exp/chaos.hh"

#include <atomic>
#include <cstdio>
#include <mutex>
#include <thread>

#include "axiom/axiom_checker.hh"
#include "core/machine.hh"
#include "fault/fault_config.hh"
#include "sim/logging.hh"

namespace mcsim::exp
{

namespace
{

/** Final-memory fingerprint of a completed, verified run of @p point. */
std::uint64_t
runToFingerprint(const SweepPoint &point, Tick &cycles_out)
{
    core::MachineConfig cfg = point.machineConfig();
    auto workload = point.makeWorkload();
    if (!workload->dataRaceFree())
        cfg.check.races = false;

    core::Machine machine(cfg);
    workload->setup(machine);
    cycles_out = machine.run();
    workload->verify(machine);
    return workload->resultFingerprint(machine);
}

/** Run one baseline/faulted pair (what each worker executes). */
ChaosPointResult
runChaosPoint(const SweepPoint &point, const std::string &preset)
{
    SweepPoint faulted = point;
    faulted.faultPreset = preset;
    // Transparency is only worth asserting under full scrutiny: the
    // invariant suite runs in Fatal mode (a violation aborts the run into
    // the error string) and the axiomatic checker replays the trace.
    faulted.runChecks = true;
    faulted.recordTrace = true;

    ChaosPointResult result;
    result.id = faulted.id();
    try {
        // Fault-free baseline: the ground truth the faulted twin must
        // reproduce byte for byte.
        SweepPoint baseline = point;
        baseline.faultPreset.clear();
        const std::uint64_t want =
            runToFingerprint(baseline, result.baselineCycles);

        core::MachineConfig cfg = faulted.machineConfig();
        auto workload = faulted.makeWorkload();
        if (!workload->dataRaceFree())
            cfg.check.races = false;

        core::Machine machine(cfg);
        workload->setup(machine);
        result.faultedCycles = machine.run();
        workload->verify(machine);

        if (const fault::FaultPlan *plan = machine.faultPlan())
            result.faultsInjected = plan->stats().total();
        for (unsigned p = 0; p < machine.numProcs(); ++p) {
            const auto &cs = machine.cache(p).stats();
            result.retries += cs.retries;
            result.nacks += cs.nacksReceived;
            result.staleMessages += cs.staleReplies;
        }
        for (unsigned i = 0; i < cfg.numModules; ++i)
            result.staleMessages +=
                machine.module(i).stats().staleMessages;

        if (axiom::TraceRecorder *rec = machine.traceRecorder()) {
            const axiom::Trace &trace = rec->finish();
            const axiom::AxiomResult verdict =
                axiom::checkTrace(trace, cfg.modelParams());
            if (!verdict.ok) {
                result.error =
                    "axiomatic trace rejected under faults: " +
                    verdict.message;
                return result;
            }
        }

        const std::uint64_t got = workload->resultFingerprint(machine);
        if (got != want) {
            result.error = strprintf(
                "final memory diverged: baseline fingerprint %016llx, "
                "faulted %016llx (%llu faults injected, %llu retries)",
                static_cast<unsigned long long>(want),
                static_cast<unsigned long long>(got),
                static_cast<unsigned long long>(result.faultsInjected),
                static_cast<unsigned long long>(result.retries));
            return result;
        }
        result.ok = true;
    } catch (const std::exception &err) {
        result.error = err.what();
    }
    return result;
}

/** One pair outcome, exactly the element of ChaosReport::toJson()'s
 *  "points" array. */
Json
chaosPointToJson(const ChaosPointResult &result)
{
    Json job = Json::object();
    job["id"] = Json(result.id);
    job["status"] = Json(result.ok ? "ok" : "failed");
    if (!result.ok)
        job["error"] = Json(result.error);
    job["faultsInjected"] = Json(result.faultsInjected);
    job["retries"] = Json(result.retries);
    job["nacks"] = Json(result.nacks);
    job["staleMessages"] = Json(result.staleMessages);
    job["baselineCycles"] = Json(result.baselineCycles);
    job["faultedCycles"] = Json(result.faultedCycles);
    return job;
}

} // namespace

ChaosReport
runChaos(const Grid &grid, const ChaosOptions &options)
{
    // Reject unknown presets before spending any simulation time.
    (void)fault::faultPreset(options.preset);

    ChaosReport report;
    report.grid = grid.name;
    report.preset = options.preset;
    const std::size_t total = grid.points.size();
    report.points.resize(total);
    if (total == 0)
        return report;

    unsigned threads = options.threads;
    if (threads == 0) {
        threads = std::thread::hardware_concurrency();
        if (threads == 0)
            threads = 1;
    }

    std::atomic<std::size_t> next{0};
    std::atomic<std::size_t> completed{0};
    std::mutex reportMutex;
    auto worker = [&]() {
        for (;;) {
            const std::size_t i = next.fetch_add(1);
            if (i >= total)
                return;
            report.points[i] =
                runChaosPoint(grid.points[i], options.preset);
            const std::size_t done = completed.fetch_add(1) + 1;
            if (!options.progress)
                continue;
            const ChaosPointResult &r = report.points[i];
            std::lock_guard<std::mutex> lock(reportMutex);
            std::fprintf(
                stderr,
                "[%zu/%zu] %-52s %-6s %llu faults, %llu retries\n", done,
                total, r.id.c_str(), r.ok ? "ok" : "FAILED",
                static_cast<unsigned long long>(r.faultsInjected),
                static_cast<unsigned long long>(r.retries));
        }
    };

    const unsigned n =
        static_cast<unsigned>(std::min<std::size_t>(threads, total));
    std::vector<std::thread> pool;
    pool.reserve(n);
    for (unsigned t = 0; t < n; ++t)
        pool.emplace_back(worker);
    for (auto &t : pool)
        t.join();
    return report;
}

bool
ChaosReport::ok() const
{
    for (const ChaosPointResult &r : points)
        if (!r.ok)
            return false;
    // A chaos sweep that never perturbed anything proves nothing; demand
    // evidence unless the operator explicitly asked for the off preset.
    if (preset != "off" && !points.empty() &&
        (totalInjected() == 0 || totalRetries() == 0))
        return false;
    return true;
}

std::size_t
ChaosReport::failures() const
{
    std::size_t n = 0;
    for (const ChaosPointResult &r : points)
        n += r.ok ? 0 : 1;
    return n;
}

std::uint64_t
ChaosReport::totalInjected() const
{
    std::uint64_t n = 0;
    for (const ChaosPointResult &r : points)
        n += r.faultsInjected;
    return n;
}

std::uint64_t
ChaosReport::totalRetries() const
{
    std::uint64_t n = 0;
    for (const ChaosPointResult &r : points)
        n += r.retries;
    return n;
}

std::string
ChaosReport::summary() const
{
    std::uint64_t nacks = 0;
    std::uint64_t stale = 0;
    for (const ChaosPointResult &r : points) {
        nacks += r.nacks;
        stale += r.staleMessages;
    }
    std::string out = strprintf(
        "chaos sweep: grid '%s', preset '%s': %zu point(s), %zu "
        "failure(s), %llu fault(s) injected, %llu retries, %llu NACKs, "
        "%llu stale messages\n",
        grid.c_str(), preset.c_str(), points.size(), failures(),
        static_cast<unsigned long long>(totalInjected()),
        static_cast<unsigned long long>(totalRetries()),
        static_cast<unsigned long long>(nacks),
        static_cast<unsigned long long>(stale));
    for (const ChaosPointResult &r : points)
        if (!r.ok)
            out += strprintf("  FAILED %s: %s\n", r.id.c_str(),
                             r.error.c_str());
    if (failures() == 0 && preset != "off" && !points.empty() &&
        (totalInjected() == 0 || totalRetries() == 0)) {
        out += "  FAILED: no faults landed (or no retries fired); the "
               "sweep exercised nothing\n";
    }
    return out;
}

Json
ChaosReport::toJson() const
{
    Json doc = Json::object();
    doc["schema"] = Json("mcsim-chaos-v1");
    doc["grid"] = Json(grid);
    doc["preset"] = Json(preset);
    doc["ok"] = Json(ok() ? 1.0 : 0.0);
    Json jobs = Json::array();
    for (const ChaosPointResult &r : points)
        jobs.push(chaosPointToJson(r));
    doc["points"] = std::move(jobs);
    return doc;
}

} // namespace mcsim::exp

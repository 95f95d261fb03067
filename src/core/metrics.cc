#include "core/metrics.hh"

#include <algorithm>

#include "sim/logging.hh"

namespace mcsim::core
{

RunMetrics
RunMetrics::fromMachine(const Machine &machine, Tick run_ticks)
{
    RunMetrics m;
    m.cycles = run_ticks;

    const unsigned procs = machine.numProcs();
    std::uint64_t read_hits = 0;
    std::uint64_t write_hits = 0;

    for (unsigned p = 0; p < procs; ++p) {
        const auto &cs = machine.cache(p).stats();
        m.totalReads += cs.loads;
        m.totalWrites += cs.stores;
        read_hits += cs.loadHits;
        write_hits += cs.storeHits;
        m.invalidationMisses += cs.invalidationMisses;
        m.prefetchesIssued += cs.prefetchesIssued;
        m.prefetchesUseful += cs.prefetchesUseful;

        const auto &ps = machine.proc(p).stats();
        m.totalSyncOps += ps.syncLoads + ps.syncRmws + ps.syncStores;
        m.releasesDeferred += ps.releasesDeferred;

        m.breakdown.merge(ps.breakdown);
        m.idleCycles += run_ticks - ps.finishedAt;
        m.missLatencyHist.merge(cs.missLatencyHist);

        m.bufferBypasses += machine.procBufferStats(p).bypasses;
    }

    m.netTransitHist.merge(machine.requestNetStats().transitHist);
    m.netTransitHist.merge(machine.responseNetStats().transitHist);
    for (unsigned i = 0; i < machine.config().numModules; ++i)
        m.memQueueHist.merge(machine.module(i).stats().queueHist);

    if (const check::Checker *checker = machine.checker()) {
        const auto &cs = checker->stats();
        m.checkViolations = cs.totalViolations();
        m.checkLineAudits = cs.lineAudits;
        m.checkAccessesChecked = cs.accessesChecked;
        m.checkOrderingChecked = cs.orderingChecked;
    }

    if (const fault::FaultPlan *plan = machine.faultPlan())
        m.faultsInjected = plan->stats().total();
    for (unsigned p = 0; p < procs; ++p) {
        const auto &cs = machine.cache(p).stats();
        m.protocolRetries += cs.retries;
        m.protocolNacks += cs.nacksReceived;
        m.staleProtocolMsgs += cs.staleReplies;
    }
    for (unsigned i = 0; i < machine.config().numModules; ++i)
        m.staleProtocolMsgs += machine.module(i).stats().staleMessages;

    m.readsPerProc = static_cast<double>(m.totalReads) / procs;
    m.writesPerProc = static_cast<double>(m.totalWrites) / procs;
    m.syncOpsPerProc = static_cast<double>(m.totalSyncOps) / procs;

    m.readHitRate = m.totalReads
                        ? static_cast<double>(read_hits) / m.totalReads
                        : 1.0;
    m.writeHitRate = m.totalWrites
                         ? static_cast<double>(write_hits) / m.totalWrites
                         : 1.0;
    const std::uint64_t refs = m.totalReads + m.totalWrites;
    m.hitRate = refs ? static_cast<double>(read_hits + write_hits) / refs
                     : 1.0;
    m.totalMisses = refs - read_hits - write_hits;

    std::uint64_t busy_max = 0;
    std::uint64_t busy_min = ~std::uint64_t(0);
    for (unsigned i = 0; i < machine.config().numModules; ++i) {
        const std::uint64_t busy = machine.module(i).stats().busyCycles;
        busy_max = std::max(busy_max, busy);
        busy_min = std::min(busy_min, busy);
    }
    m.moduleSkew = busy_min > 0 ? static_cast<double>(busy_max) /
                                      static_cast<double>(busy_min)
                                : static_cast<double>(busy_max);

    std::uint64_t lat_sum = 0;
    std::uint64_t lat_count = 0;
    for (unsigned p = 0; p < procs; ++p) {
        lat_sum += machine.cache(p).stats().missLatencySum;
        lat_count += machine.cache(p).stats().missLatencyCount;
        m.mshrBusyCycles += machine.cache(p).stats().mshrBusyCycles;
    }
    m.avgMshrOccupancy =
        run_ticks ? static_cast<double>(m.mshrBusyCycles) /
                        (static_cast<double>(run_ticks) * procs)
                  : 0.0;
    m.avgMissLatency =
        lat_count ? static_cast<double>(lat_sum) /
                        static_cast<double>(lat_count)
                  : 0.0;

    const auto &rs = machine.responseNetStats();
    m.avgRespLatency =
        rs.messages ? static_cast<double>(rs.latencyCycles) / rs.messages
                    : 0.0;
    return m;
}

std::string
RunMetrics::summary() const
{
    return strprintf(
        "cycles=%llu refs/proc=%.0f hit=%.3f (r=%.3f w=%.3f) syncs/proc=%.0f",
        static_cast<unsigned long long>(cycles),
        readsPerProc + writesPerProc, hitRate, readHitRate, writeHitRate,
        syncOpsPerProc);
}

StatSet
RunMetrics::toStatSet() const
{
    StatSet out;
    out.set("cycles", static_cast<double>(cycles));
    out.set("readsPerProc", readsPerProc);
    out.set("writesPerProc", writesPerProc);
    out.set("syncOpsPerProc", syncOpsPerProc);
    out.set("readHitRate", readHitRate);
    out.set("writeHitRate", writeHitRate);
    out.set("hitRate", hitRate);
    out.set("totalReads", static_cast<double>(totalReads));
    out.set("totalWrites", static_cast<double>(totalWrites));
    out.set("totalSyncOps", static_cast<double>(totalSyncOps));
    out.set("invalidationMisses", static_cast<double>(invalidationMisses));
    out.set("totalMisses", static_cast<double>(totalMisses));
    out.set("bufferBypasses", static_cast<double>(bufferBypasses));
    out.set("prefetchesIssued", static_cast<double>(prefetchesIssued));
    out.set("prefetchesUseful", static_cast<double>(prefetchesUseful));
    out.set("releasesDeferred", static_cast<double>(releasesDeferred));
    out.set("checkViolations", static_cast<double>(checkViolations));
    out.set("checkLineAudits", static_cast<double>(checkLineAudits));
    out.set("checkAccessesChecked",
            static_cast<double>(checkAccessesChecked));
    out.set("checkOrderingChecked",
            static_cast<double>(checkOrderingChecked));
    out.set("faultsInjected", static_cast<double>(faultsInjected));
    out.set("protocolRetries", static_cast<double>(protocolRetries));
    out.set("protocolNacks", static_cast<double>(protocolNacks));
    out.set("staleProtocolMsgs", static_cast<double>(staleProtocolMsgs));
    out.set("moduleSkew", moduleSkew);
    out.set("avgRespLatency", avgRespLatency);
    out.set("avgMissLatency", avgMissLatency);
    out.set("mshrBusyCycles", static_cast<double>(mshrBusyCycles));
    out.set("avgMshrOccupancy", avgMshrOccupancy);
    out.set("busyCycles", static_cast<double>(breakdown.busyCycles));
    out.set("idleCycles", static_cast<double>(idleCycles));
    out.set("stallLoadMissCycles",
            static_cast<double>(breakdown.cause(obs::StallCause::LoadMiss)));
    out.set("stallStoreMshrCycles",
            static_cast<double>(breakdown.cause(obs::StallCause::StoreMshr)));
    out.set("stallBufferCycles",
            static_cast<double>(breakdown.cause(obs::StallCause::Buffer)));
    out.set("stallFenceSyncCycles",
            static_cast<double>(breakdown.cause(obs::StallCause::FenceSync)));
    out.set("stallAcquireCycles",
            static_cast<double>(breakdown.cause(obs::StallCause::Acquire)));
    out.set("stallReleaseCycles",
            static_cast<double>(breakdown.cause(obs::StallCause::Release)));
    out.set("missLatencyP50", static_cast<double>(missLatencyHist.p50()));
    out.set("missLatencyP90", static_cast<double>(missLatencyHist.p90()));
    out.set("missLatencyP99", static_cast<double>(missLatencyHist.p99()));
    out.set("missLatencyMax", static_cast<double>(missLatencyHist.maxValue));
    out.set("netTransitP50", static_cast<double>(netTransitHist.p50()));
    out.set("netTransitP90", static_cast<double>(netTransitHist.p90()));
    out.set("netTransitP99", static_cast<double>(netTransitHist.p99()));
    out.set("netTransitMax", static_cast<double>(netTransitHist.maxValue));
    out.set("memQueueP50", static_cast<double>(memQueueHist.p50()));
    out.set("memQueueP90", static_cast<double>(memQueueHist.p90()));
    out.set("memQueueP99", static_cast<double>(memQueueHist.p99()));
    out.set("memQueueMax", static_cast<double>(memQueueHist.maxValue));
    return out;
}

double
percentGain(Tick base_cycles, Tick other_cycles)
{
    if (base_cycles == 0)
        return 0.0;
    return 100.0 *
           (static_cast<double>(base_cycles) -
            static_cast<double>(other_cycles)) /
           static_cast<double>(base_cycles);
}

double
absoluteGainKCycles(Tick base_cycles, Tick other_cycles)
{
    return (static_cast<double>(base_cycles) -
            static_cast<double>(other_cycles)) /
           1000.0;
}

} // namespace mcsim::core

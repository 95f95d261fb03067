/**
 * @file
 * google-benchmark microbenchmarks of the simulator's own hot paths:
 * event-queue throughput, topology routing, network injection, cache
 * access, and a small end-to-end machine run. These track simulator
 * (host) performance, not simulated performance.
 *
 * The end-to-end pair BM_EndToEndSyntheticRun / BM_EndToEndTracerDisarmed
 * is the observability overhead gate: the second compiles the tracer in
 * but leaves it disarmed, and must stay within ~2% of the first.
 */

#include <benchmark/benchmark.h>

#include <memory>

#include "bench_common.hh"
#include "check/check_config.hh"
#include "core/machine.hh"
#include "mem/cache.hh"
#include "mem/memory_module.hh"
#include "mem/outbox.hh"
#include "net/iface_buffer.hh"
#include "net/omega_network.hh"
#include "net/topology.hh"
#include "obs/tracer.hh"
#include "sim/event_queue.hh"
#include "workloads/workload.hh"

using namespace mcsim;

namespace
{

/** End-to-end machine for the micro runs: the shared bench config at 4
 *  processors with a deliberately small cache, and the invariant
 *  checkers restored (baseConfig turns them off for the ablation
 *  timings; bench_micro audits the hot path with them on). */
core::MachineConfig
microConfig()
{
    const bench::BenchArgs args;
    core::MachineConfig cfg = bench::baseConfig(args, 4);
    cfg.cacheBytes = 2048;
    cfg.check = check::CheckConfig{};
    return cfg;
}

core::RunMetrics
runMicro(const core::MachineConfig &cfg)
{
    const bench::BenchArgs args;
    const auto workload = bench::makeWorkload("Synthetic", args.scale);
    return workloads::runWorkload(*workload, cfg).metrics;
}

} // namespace

static void
BM_EventQueueScheduleRun(benchmark::State &state)
{
    for (auto _ : state) {
        EventQueue q;
        int sink = 0;
        for (int i = 0; i < 1000; ++i)
            q.schedule(static_cast<Tick>(i % 97), [&sink]() { ++sink; });
        q.run();
        benchmark::DoNotOptimize(sink);
    }
}
BENCHMARK(BM_EventQueueScheduleRun);

static void
BM_TopologyRoute(benchmark::State &state)
{
    const net::OmegaTopology topo(16, 4);
    unsigned src = 0, dst = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(topo.route(src, dst));
        src = (src + 1) % 16;
        dst = (dst + 5) % 16;
    }
}
BENCHMARK(BM_TopologyRoute);

static void
BM_NetworkInjectDeliver(benchmark::State &state)
{
    for (auto _ : state) {
        EventQueue q;
        std::uint64_t delivered = 0;
        net::OmegaNetwork<int> network(
            q, 16, 4, [&delivered](net::Msg<int> &&) { ++delivered; });
        for (unsigned i = 0; i < 256; ++i) {
            net::Msg<int> m;
            m.src = i % 16;
            m.dst = (i * 7) % 16;
            m.bytes = 8;
            q.schedule(i, [&network, m]() mutable {
                network.inject(std::move(m));
            });
        }
        q.run();
        benchmark::DoNotOptimize(delivered);
    }
}
BENCHMARK(BM_NetworkInjectDeliver);

static void
BM_CacheHitPath(benchmark::State &state)
{
    EventQueue q;
    net::OmegaNetwork<mem::CoherenceMsg> reqNet(
        q, 4, 4, [](mem::NetMsg &&) {});
    net::IfaceBuffer<mem::CoherenceMsg> buf(q, reqNet, 4, false);
    mem::Outbox out(buf, false);
    mem::CacheParams params;
    params.cacheBytes = 16 * 1024;
    mem::Cache cache(q, 0, params, out, 4);
    // Warm one line by hand: issue a miss, then drop the reply in.
    cache.access(0x100, mem::AccessType::Load, 1);
    mem::NetMsg reply;
    reply.payload =
        mem::CoherenceMsg{mem::MsgKind::DataReplyShared, 0x100, 0};
    cache.handleResponse(std::move(reply));
    q.run();

    std::uint64_t cookie = 100;
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            cache.access(0x108, mem::AccessType::Load, cookie++));
    }
}
BENCHMARK(BM_CacheHitPath);

// The disarmed tracer fast path in isolation: span() must reduce to one
// predictable branch when tracing is off at runtime.
static void
BM_TracerSpanDisarmed(benchmark::State &state)
{
    obs::Tracer tracer(1024);
    tracer.arm(false);
    Tick now = 0;
    for (auto _ : state) {
        tracer.span(obs::Track::Proc, 0, obs::SpanKind::Busy, now++, 1);
        benchmark::DoNotOptimize(tracer);
    }
    benchmark::DoNotOptimize(tracer.size());
}
BENCHMARK(BM_TracerSpanDisarmed);

static void
BM_EndToEndSyntheticRun(benchmark::State &state)
{
    const core::MachineConfig cfg = microConfig();
    for (auto _ : state) {
        const core::RunMetrics m = runMicro(cfg);
        benchmark::DoNotOptimize(m.cycles);
    }
}
BENCHMARK(BM_EndToEndSyntheticRun)->Unit(benchmark::kMillisecond);

// Same run with the tracer constructed but disarmed: every span() call
// site in the machine takes the early-out branch. The ~2% gate from the
// observability acceptance criteria compares this against the baseline
// above.
static void
BM_EndToEndTracerDisarmed(benchmark::State &state)
{
    core::MachineConfig cfg = microConfig();
    cfg.obs.tracer = true;
    cfg.obs.tracerArmed = false;
    for (auto _ : state) {
        const core::RunMetrics m = runMicro(cfg);
        benchmark::DoNotOptimize(m.cycles);
    }
}
BENCHMARK(BM_EndToEndTracerDisarmed)->Unit(benchmark::kMillisecond);

BENCHMARK_MAIN();

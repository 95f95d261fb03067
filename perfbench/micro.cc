/**
 * @file
 * Isolated per-layer cases: each drives one component through its public
 * interface on a private event queue and reports host nanoseconds per
 * operation. Every case checks its own output (all messages delivered,
 * every hit a hit), so a broken fast path cannot report a fast time.
 */

#include <chrono>
#include <functional>
#include <stdexcept>

#include "core/machine.hh"
#include "mem/cache.hh"
#include "mem/memory_module.hh"
#include "mem/outbox.hh"
#include "net/iface_buffer.hh"
#include "net/omega_network.hh"
#include "perfbench.hh"
#include "sim/event_queue.hh"
#include "sim/random.hh"
#include "workloads/synthetic.hh"

namespace perfbench
{

namespace
{

using namespace mcsim;
using Clock = std::chrono::steady_clock;
using Network = net::OmegaNetwork<mem::CoherenceMsg>;
using Buffer = net::IfaceBuffer<mem::CoherenceMsg>;

double
nsPerOp(Clock::time_point t0, Clock::time_point t1, std::uint64_t ops)
{
    return std::chrono::duration<double, std::nano>(t1 - t0).count() /
           static_cast<double>(ops);
}

void
expect(bool ok, const char *what)
{
    if (!ok)
        throw std::runtime_error(std::string("isolated case: ") + what);
}

/**
 * Event kernel at a steady queue depth: @p depth events are pending
 * throughout, each carrying a message-sized capture (as network and buffer
 * events do) and scheduling its successor a short random delay ahead.
 */
double
scheduleRunNs(unsigned depth, std::uint64_t seed)
{
    constexpr std::uint64_t events = 200000;
    EventQueue q;
    Rng rng(seed);
    std::vector<Tick> delays(1024);
    for (Tick &d : delays)
        d = 1 + rng.below(64);
    std::uint64_t budget = events;
    std::size_t next = 0;
    std::uint64_t sink = 0;
    std::function<void(const mem::NetMsg &)> step =
        [&](const mem::NetMsg &m) {
            sink += m.payload.lineAddr;
            if (budget == 0)
                return;
            --budget;
            q.scheduleIn(delays[next++ % delays.size()],
                         [&step, m]() { step(m); });
        };
    for (unsigned i = 0; i < depth; ++i) {
        mem::NetMsg m;
        m.payload.lineAddr = i;
        q.schedule(delays[i % delays.size()], [&step, m]() { step(m); });
    }
    const auto t0 = Clock::now();
    const std::uint64_t ran = q.run();
    const auto t1 = Clock::now();
    expect(ran == events + depth && sink > 0, "event kernel lost events");
    return nsPerOp(t0, t1, ran);
}

/** One message per cycle through a 16-port, 2-stage Omega network, from
 *  inject() to delivery; random source and destination ports. */
double
omegaHopNs(std::uint64_t seed)
{
    constexpr unsigned msgs = 100000;
    EventQueue q;
    std::uint64_t delivered = 0;
    Network network(q, 16, 4, [&](mem::NetMsg &&) { ++delivered; });
    Rng rng(seed);
    unsigned sent = 0;
    std::function<void()> inject = [&]() {
        mem::NetMsg m;
        m.src = static_cast<std::uint32_t>(rng.below(16));
        m.dst = static_cast<std::uint32_t>(rng.below(16));
        network.inject(std::move(m));
        if (++sent < msgs)
            q.scheduleIn(1, [&inject]() { inject(); });
    };
    q.schedule(0, [&inject]() { inject(); });
    const auto t0 = Clock::now();
    q.run();
    const auto t1 = Clock::now();
    expect(delivered == msgs, "Omega network lost messages");
    return nsPerOp(t0, t1, msgs);
}

/** IfaceBuffer::tryEnqueue -> pump -> drain -> inject, one message per
 *  cycle, into a single-stage (4-port) network whose delivery ends the
 *  case. */
double
bufferPumpNs(std::uint64_t seed)
{
    constexpr unsigned msgs = 100000;
    EventQueue q;
    std::uint64_t delivered = 0;
    Network network(q, 4, 4, [&](mem::NetMsg &&) { ++delivered; });
    Buffer buffer(q, network, 4, false);
    Rng rng(seed);
    unsigned sent = 0;
    std::function<void()> produce = [&]() {
        mem::NetMsg m;
        m.dst = static_cast<std::uint32_t>(rng.below(4));
        if (buffer.tryEnqueue(std::move(m)))
            ++sent;
        if (sent < msgs)
            q.scheduleIn(1, [&produce]() { produce(); });
    };
    q.schedule(0, [&produce]() { produce(); });
    const auto t0 = Clock::now();
    q.run();
    const auto t1 = Clock::now();
    expect(delivered == msgs, "interface buffer lost messages");
    return nsPerOp(t0, t1, msgs);
}

/** Cache::access on resident lines (the processor's hit path). */
double
cacheHitNs(std::uint64_t seed)
{
    constexpr unsigned lines = 64;
    constexpr unsigned accesses = 1000000;
    EventQueue q;
    Network net(q, 4, 4, [](mem::NetMsg &&) {});
    Buffer buf(q, net, 4, false);
    mem::Outbox out(buf, false);
    mem::CacheParams params;
    mem::Cache cache(q, 0, params, out, 4);
    // Warm each line by hand: issue the miss, then drop the reply in.
    for (unsigned i = 0; i < lines; ++i) {
        const Addr line = 0x1000 + Addr(i) * params.lineBytes;
        cache.access(line, mem::AccessType::Load, i);
        mem::NetMsg reply;
        reply.payload =
            mem::CoherenceMsg{mem::MsgKind::DataReplyShared, line, 0, 0};
        cache.handleResponse(std::move(reply));
        q.run();
    }
    Rng rng(seed);
    std::vector<Addr> addrs(4096);
    for (Addr &a : addrs)
        a = 0x1000 + rng.below(lines * params.lineBytes / 8) * 8;
    unsigned hits = 0;
    const auto t0 = Clock::now();
    for (unsigned i = 0; i < accesses; ++i) {
        hits += cache.access(addrs[i % addrs.size()], mem::AccessType::Load,
                             lines + i) == mem::AccessOutcome::Hit;
    }
    const auto t1 = Clock::now();
    expect(hits == accesses, "cache hit path missed");
    return nsPerOp(t0, t1, accesses);
}

/** MemoryModule::handleRequest(GetShared) on an uncached line, through
 *  the DRAM reservation, to the DataReplyShared leaving the response
 *  network. One request per 16 cycles, so the module never queues. */
double
dirTxnNs(std::uint64_t seed)
{
    constexpr unsigned txns = 50000;
    EventQueue q;
    std::uint64_t replies = 0;
    Network resp(q, 16, 4, [&](mem::NetMsg &&m) {
        replies += m.payload.kind == mem::MsgKind::DataReplyShared;
    });
    Buffer buf(q, resp, 4, false);
    mem::Outbox out(buf, false);
    mem::MemoryParams params;
    mem::MemoryModule module(q, 0, params, out);
    Rng rng(seed);
    unsigned sent = 0;
    std::function<void()> request = [&]() {
        mem::NetMsg m;
        m.src = static_cast<std::uint32_t>(rng.below(16));
        m.payload = mem::CoherenceMsg{mem::MsgKind::GetShared,
                                      Addr(sent) * params.lineBytes,
                                      static_cast<ProcId>(m.src), 0};
        module.handleRequest(std::move(m));
        if (++sent < txns)
            q.scheduleIn(16, [&request]() { request(); });
    };
    q.schedule(0, [&request]() { request(); });
    const auto t0 = Clock::now();
    q.run();
    const auto t1 = Clock::now();
    expect(replies == txns, "directory lost transactions");
    return nsPerOp(t0, t1, txns);
}

/** A 16-processor RC machine with no workload: processor 0's cache takes
 *  one load miss every 64 cycles and the case counts completions, so each
 *  operation is a full round trip (request buffer, request network,
 *  directory, response network, fill). */
double
missRoundtripNs(std::uint64_t seed)
{
    constexpr unsigned misses = 20000;
    core::MachineConfig cfg;
    cfg.model = core::Model::RC;
    cfg.check.mode = check::CheckMode::Off;
    core::Machine machine(cfg);
    mem::Cache &cache = machine.cache(0);
    EventQueue &q = machine.eventQueue();
    unsigned completed = 0;
    cache.setCompletionHandler([&](std::uint64_t) { ++completed; });
    // Lines walk the address space from a seed-chosen start, so every
    // access is a cold miss.
    Addr line = Rng(seed).below(1u << 20) * cfg.lineBytes;
    unsigned sent = 0;
    unsigned missed = 0;
    std::function<void()> access = [&]() {
        missed += cache.access(line, mem::AccessType::Load, sent) ==
                  mem::AccessOutcome::Miss;
        line += cfg.lineBytes;
        if (++sent < misses)
            q.scheduleIn(64, [&access]() { access(); });
    };
    q.schedule(q.now(), [&access]() { access(); });
    const auto t0 = Clock::now();
    q.run();
    const auto t1 = Clock::now();
    expect(missed == misses && completed == misses,
           "miss round trip lost a miss");
    return nsPerOp(t0, t1, misses);
}

/** Machine::run of a one-processor Synthetic program whose private data
 *  fits the cache: after the first touch of each line every reference
 *  hits, so the time is the processor's per-instruction path. */
double
cpuOpNs(std::uint64_t seed)
{
    core::MachineConfig cfg;
    cfg.numProcs = 1;
    cfg.numModules = 1;
    cfg.model = core::Model::RC;
    cfg.check.mode = check::CheckMode::Off;
    workloads::SyntheticParams params;
    params.refsPerProc = 100000;
    params.privateWords = 256;
    params.sharedFraction = 0;
    params.execBetween = 1;
    params.seed = seed;
    workloads::SyntheticWorkload workload(params);
    core::Machine machine(cfg);
    workload.setup(machine);
    const auto t0 = Clock::now();
    machine.run();
    const auto t1 = Clock::now();
    workload.verify(machine);
    const std::uint64_t instructions = machine.proc(0).stats().instructions;
    expect(instructions >= params.refsPerProc, "processor lost instructions");
    return nsPerOp(t0, t1, instructions);
}

} // namespace

std::vector<MicroResult>
runMicroCases(std::uint64_t seed, unsigned repetitions)
{
    const struct
    {
        const char *name;
        std::function<double(std::uint64_t)> run;
    } cases[] = {
        {"sim.schedule_run_ns.d64",
         [](std::uint64_t s) { return scheduleRunNs(64, s); }},
        {"sim.schedule_run_ns.d4096",
         [](std::uint64_t s) { return scheduleRunNs(4096, s); }},
        {"net.hop_ns", omegaHopNs},
        {"net.pump_ns", bufferPumpNs},
        {"mem.hit_ns", cacheHitNs},
        {"mem.dir_txn_ns", dirTxnNs},
        {"mem.miss_roundtrip_ns", missRoundtripNs},
        {"cpu.op_ns", cpuOpNs},
    };
    std::vector<MicroResult> results;
    for (const auto &c : cases) {
        std::vector<double> samples;
        for (unsigned r = 0; r < repetitions; ++r)
            samples.push_back(c.run(seed + r));
        results.push_back({c.name, summarize(std::move(samples))});
    }
    return results;
}

} // namespace perfbench

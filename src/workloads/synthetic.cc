#include "workloads/synthetic.hh"

#include "sim/logging.hh"
#include "sim/random.hh"
#include "workloads/layout.hh"

namespace mcsim::workloads
{

SyntheticWorkload::SyntheticWorkload(SyntheticParams params) : cfg(params)
{
    if (cfg.privateWords == 0 || cfg.sharedWords == 0)
        fatal("synthetic regions must be nonempty");
}

void
SyntheticWorkload::setup(core::Machine &machine)
{
    SharedLayout layout(machine.config().lineBytes);
    sharedBase = layout.allocWords(cfg.sharedWords);
    privateBase.clear();
    for (unsigned p = 0; p < machine.numProcs(); ++p)
        privateBase.push_back(layout.allocWords(cfg.privateWords));
    counterAddr = layout.allocWords(1);
    lock = layout.allocLock();
    barrier = layout.allocBarrierObj(cfg.barrierKind, machine.numProcs());
    machine.memory().ensure(layout.top());

    expectedCounter = 0;
    if (cfg.lockEvery > 0) {
        for (unsigned p = 0; p < machine.numProcs(); ++p)
            expectedCounter += cfg.refsPerProc / cfg.lockEvery;
    }

    barrierCtx.assign(machine.numProcs(), {});
    for (unsigned p = 0; p < machine.numProcs(); ++p) {
        machine.startWorkload(
            p, body(machine.proc(p), *this, p, machine.numProcs()));
    }
}

SimTask
SyntheticWorkload::body(cpu::Processor &proc, SyntheticWorkload &w,
                        unsigned pid, unsigned n_procs)
{
    Rng rng(w.cfg.seed + pid * 0x1234567ull);
    for (unsigned r = 1; r <= w.cfg.refsPerProc; ++r) {
        const bool shared = rng.chance(w.cfg.sharedFraction);
        const Addr base = shared ? w.sharedBase : w.privateBase[pid];
        const std::uint64_t words =
            shared ? w.cfg.sharedWords : w.cfg.privateWords;
        const Addr addr = base + rng.below(words) * 8;

        if (rng.chance(w.cfg.storeFraction)) {
            co_await proc.store(addr, rng.next());
        } else {
            const auto token = co_await proc.load(addr);
            co_await proc.exec(w.cfg.execBetween);
            (void)co_await proc.use(token);
        }
        if (w.cfg.execBetween > 0)
            co_await proc.exec(w.cfg.execBetween);

        if (w.cfg.lockEvery > 0 && r % w.cfg.lockEvery == 0) {
            co_await cpu::lockAcquire(proc, w.lock);
            const std::uint64_t v = co_await proc.loadUse(w.counterAddr);
            co_await proc.store(w.counterAddr, v + 1);
            co_await cpu::lockRelease(proc, w.lock);
        }
        if (w.cfg.barrierEvery > 0 && r % w.cfg.barrierEvery == 0) {
            co_await cpu::barrierWait(proc, w.barrier, n_procs, pid,
                                      w.barrierCtx[pid]);
        }
    }
    // Final barrier so every model ends with a quiesced machine.
    co_await cpu::barrierWait(proc, w.barrier, n_procs, pid,
                              w.barrierCtx[pid]);
}

std::uint64_t
SyntheticWorkload::resultFingerprint(core::Machine &machine) const
{
    return machine.memory().fingerprint(
        privateBase.front(), counterAddr + 8 - privateBase.front());
}

void
SyntheticWorkload::verify(core::Machine &machine) const
{
    if (expectedCounter > 0) {
        const std::uint64_t got = machine.memory().readU64(counterAddr);
        if (got != expectedCounter) {
            fatal("synthetic counter %llu != expected %llu",
                  static_cast<unsigned long long>(got),
                  static_cast<unsigned long long>(expectedCounter));
        }
    }
}

} // namespace mcsim::workloads

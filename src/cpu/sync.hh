/**
 * @file
 * Hardware-visible synchronization primitives used by the workloads:
 * a test-and-test&set spin lock and a sense-reversing centralized barrier.
 *
 * Under weak ordering every operation here is a synchronization point
 * (processor drains outstanding references, then blocks until the sync op
 * performs); under release consistency the lock acquire / spin reads are
 * acquires and the lock release / sense flip are releases; under the SC
 * systems they are ordinary strongly-ordered accesses. The Processor
 * applies the model-specific treatment -- workload code is identical
 * across models, exactly as in the paper.
 */

#ifndef MCSIM_CPU_SYNC_HH
#define MCSIM_CPU_SYNC_HH

#include "cpu/processor.hh"
#include "sim/task.hh"
#include "sim/types.hh"

namespace mcsim::cpu
{

/** Shared-memory addresses making up one lock (one 64-bit word). */
struct LockVar
{
    Addr addr = 0;
};

/** Shared-memory addresses making up one barrier. */
struct BarrierVar
{
    Addr lock = 0;   ///< protects the arrival counter
    Addr count = 0;  ///< arrivals this episode
    Addr sense = 0;  ///< episode parity flag
};

/**
 * Acquire @p lock with test-and-test&set: spin reading the (cached) lock
 * word, attempt the atomic only when it reads free. Losers of a
 * test-and-set race back off exponentially (Anderson-style) so a release
 * under contention is not immediately stormed by fifteen GetExclusive
 * requests -- without this, lock handoff cost dominates at large line
 * sizes and drowns the consistency-model differences under study.
 */
inline SubTask<>
lockAcquire(Processor &p, LockVar lock)
{
    std::uint32_t backoff = 8;
    for (;;) {
        const std::uint64_t v = co_await p.syncLoad(lock.addr);
        if (v == 0) {
            const std::uint64_t old = co_await p.testAndSet(lock.addr);
            if (old == 0)
                co_return;
            // Lost the race: idle before rejoining the fray.
            co_await p.exec(backoff);
            if (backoff < 512)
                backoff *= 2;
        }
        co_await p.branch();  // spin-loop back edge
    }
}

/** Release @p lock (a release operation under RC). */
inline SubTask<>
lockRelease(Processor &p, LockVar lock)
{
    co_await p.syncStore(lock.addr, 0);
}

/**
 * Sense-reversing centralized barrier across @p n_procs processors.
 * @p local_sense is the caller's private sense word (plain C++ state,
 * standing in for a private-memory variable).
 */
inline SubTask<>
barrierWait(Processor &p, BarrierVar b, std::uint64_t n_procs,
            std::uint64_t &local_sense)
{
    local_sense ^= 1;
    co_await lockAcquire(p, LockVar{b.lock});
    const std::uint64_t arrived = co_await p.loadUse(b.count) + 1;
    if (arrived == n_procs) {
        co_await p.store(b.count, 0);
        co_await lockRelease(p, LockVar{b.lock});
        // Releasing write: every prior reference must be performed before
        // other processors can observe the flipped sense.
        co_await p.syncStore(b.sense, local_sense);
        co_return;
    }
    co_await p.store(b.count, arrived);
    co_await lockRelease(p, LockVar{b.lock});
    for (;;) {
        const std::uint64_t s = co_await p.syncLoad(b.sense);
        if (s == local_sense)
            co_return;
        co_await p.branch();
    }
}

/**
 * Dissemination barrier (Hensgen, Finkel & Manber 1988): ceil(log2 P)
 * rounds; in round r each processor signals the peer 2^r ahead of it and
 * spins on its own flag. No lock, so arrival cost is O(log P) sync
 * operations instead of a serialized critical-section convoy. Under RC
 * the flag writes are releases and the spin reads acquires.
 */
struct DissBarrierVar
{
    Addr flagsBase = 0;  ///< rounds x nProcs 64-bit flag words
    std::uint32_t nProcs = 0;
    std::uint32_t rounds = 0;

    Addr
    flagAddr(unsigned round, unsigned proc) const
    {
        return flagsBase +
               (static_cast<Addr>(round) * nProcs + proc) * 8;
    }
};

/**
 * Pass the dissemination barrier. @p episode is the caller's private
 * episode counter (one per processor, monotonically increasing).
 */
inline SubTask<>
dissBarrierWait(Processor &p, DissBarrierVar b, unsigned pid,
                std::uint64_t &episode)
{
    episode += 1;
    for (unsigned r = 0; r < b.rounds; ++r) {
        const unsigned partner = (pid + (1u << r)) % b.nProcs;
        co_await p.syncStore(b.flagAddr(r, partner), episode);
        for (;;) {
            const std::uint64_t v = co_await p.syncLoad(b.flagAddr(r, pid));
            if (v >= episode)
                break;
            co_await p.branch();
        }
    }
}

/** Barrier implementation selector (the ablation grid's barrier-*
 *  variants). */
enum class BarrierKind
{
    Central,        ///< lock-protected counter + sense-reversing flag
    Dissemination,  ///< log-round flag exchange
};

/** A barrier of either kind plus the per-processor state it needs. */
struct BarrierObj
{
    BarrierKind kind = BarrierKind::Dissemination;
    BarrierVar central{};
    DissBarrierVar diss{};
};

/** Per-processor barrier context (private memory). */
struct BarrierCtx
{
    std::uint64_t sense = 0;
    std::uint64_t episode = 0;
};

/** Pass @p barrier, whichever kind it is. */
inline SubTask<>
barrierWait(Processor &p, const BarrierObj &barrier, unsigned n_procs,
            unsigned pid, BarrierCtx &ctx)
{
    if (barrier.kind == BarrierKind::Central) {
        co_await barrierWait(p, barrier.central, n_procs, ctx.sense);
    } else {
        co_await dissBarrierWait(p, barrier.diss, pid, ctx.episode);
    }
}

} // namespace mcsim::cpu

#endif // MCSIM_CPU_SYNC_HH

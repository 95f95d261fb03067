/**
 * @file
 * Synthetic microworkload: a parameterized reference stream used by the
 * unit/property tests, the fuzz grid and the ablation grid's barrier
 * points. Each processor walks a private region plus an optionally
 * shared region with a configurable store fraction, compute density,
 * and synchronization rate.
 */

#ifndef MCSIM_WORKLOADS_SYNTHETIC_HH
#define MCSIM_WORKLOADS_SYNTHETIC_HH

#include <vector>

#include "cpu/sync.hh"
#include "workloads/workload.hh"

namespace mcsim::workloads
{

/** Synthetic stream configuration. */
struct SyntheticParams
{
    /** Shared references each processor issues. */
    unsigned refsPerProc = 2000;
    /** Fraction of references that are stores. */
    double storeFraction = 0.3;
    /** Per-processor private-region size in 64-bit words. */
    unsigned privateWords = 2048;
    /** Fraction of references aimed at the common shared region. */
    double sharedFraction = 0.2;
    /** Shared-region size in 64-bit words. */
    unsigned sharedWords = 512;
    /** Compute cycles charged between references. */
    unsigned execBetween = 4;
    /** Take a lock-protected critical section every N refs (0 = never). */
    unsigned lockEvery = 0;
    /** Join a barrier every N refs (0 = never). */
    unsigned barrierEvery = 0;
    std::uint64_t seed = 99;
    /** Barrier implementation. */
    cpu::BarrierKind barrierKind = cpu::BarrierKind::Dissemination;
};

/** Configurable synthetic benchmark. */
class SyntheticWorkload : public Workload
{
  public:
    explicit SyntheticWorkload(SyntheticParams params = {});

    std::string name() const override { return "Synthetic"; }
    void setup(core::Machine &machine) override;
    void verify(core::Machine &machine) const override;
    /** The random streams hit shared words without locking by design. */
    bool dataRaceFree() const override { return false; }
    /** The private regions and the lock-protected counter: the racy
     *  shared words end with whichever store lands last, but each
     *  private region is written only by its processor, from its own
     *  seeded stream. */
    std::uint64_t resultFingerprint(core::Machine &machine) const override;

  private:
    static SimTask body(cpu::Processor &proc, SyntheticWorkload &w,
                        unsigned pid, unsigned n_procs);

    SyntheticParams cfg;
    Addr sharedBase = 0;
    std::vector<Addr> privateBase;
    Addr counterAddr = 0;  ///< lock-protected shared counter
    cpu::LockVar lock{};
    cpu::BarrierObj barrier{};
    std::vector<cpu::BarrierCtx> barrierCtx;
    std::uint64_t expectedCounter = 0;
};

} // namespace mcsim::workloads

#endif // MCSIM_WORKLOADS_SYNTHETIC_HH

/**
 * @file
 * Functional (value-holding) image of the shared address space.
 *
 * Timing and function are decoupled: workloads perform loads and stores
 * against this byte store at instruction issue time, while the caches,
 * directory and networks model only timing. Synchronization operations are
 * the exception -- they execute functionally at their timed completion so
 * that lock handoffs and barrier releases are serialized exactly as the
 * hardware would serialize them (see DESIGN.md).
 */

#ifndef MCSIM_MEM_FUNCTIONAL_MEMORY_HH
#define MCSIM_MEM_FUNCTIONAL_MEMORY_HH

#include <cstdint>
#include <cstring>
#include <vector>

#include "sim/types.hh"

namespace mcsim::mem
{

/**
 * A flat, growable byte store for the simulated shared segment. It starts
 * empty and backs [0, size()), where size() is the smallest power of two
 * at or above the highest address written or ensure()d, whatever the
 * order; a machine therefore pays only for what its run touches.
 */
class FunctionalMemory
{
  public:
    /**
     * The segment bound: no access may reach past it. 1 GiB is 128x the
     * largest layout (full-scale Relax, 8 MiB). write() and ensure() past
     * it are fatal(), so an outside address (an imported trace) can
     * neither wrap the store nor exhaust host memory.
     */
    static constexpr Addr segmentBytes = Addr(1) << 30;

    /** Currently backed size in bytes (0 until the first write). */
    std::size_t size() const { return bytes.size(); }

    /** Read @p n bytes at @p addr into @p out; unbacked bytes, including
     *  any past the segment bound, read as zero. */
    void read(Addr addr, void *out, std::size_t n) const;

    /** Write @p n bytes from @p in at @p addr; fatal() past the segment
     *  bound. */
    void write(Addr addr, const void *in, std::size_t n);

    /** Typed accessors. @{ */
    std::uint32_t readU32(Addr addr) const;
    void writeU32(Addr addr, std::uint32_t value);
    std::uint64_t readU64(Addr addr) const;
    void writeU64(Addr addr, std::uint64_t value);
    std::int64_t readI64(Addr addr) const;
    void writeI64(Addr addr, std::int64_t value);
    double readF64(Addr addr) const;
    void writeF64(Addr addr, double value);
    /** @} */

    /**
     * Atomic test-and-set used by lock acquisition: reads the 64-bit word
     * at @p addr and unconditionally writes 1. Returns the old value.
     */
    std::uint64_t testAndSet(Addr addr);

    /** Ensure addresses [0, limit) are backed; fatal() when @p limit is
     *  past the segment bound. */
    void ensure(Addr limit);

    /**
     * FNV-1a hash over the full backed image. The chaos harness compares
     * a faulted run's fingerprint against its fault-free twin to assert
     * fault transparency: injected faults may change timing, never the
     * final memory contents. Twins ensure() the same layout, so their
     * backed sizes match too.
     */
    std::uint64_t fingerprint() const;

    /** FNV-1a hash over [addr, addr + n): the range variant workloads
     *  use to fingerprint their output region when other parts of the
     *  image (scheduler stacks, scratch) legitimately vary with timing. */
    std::uint64_t fingerprint(Addr addr, std::size_t n) const;

  private:
    // Only write() and ensure() grow the store; a read of an unbacked
    // address returns zero without growing it, so read() stays const.
    std::vector<std::uint8_t> bytes;
};

} // namespace mcsim::mem

#endif // MCSIM_MEM_FUNCTIONAL_MEMORY_HH

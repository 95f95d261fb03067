#include "mem/functional_memory.hh"

#include <bit>

#include "sim/logging.hh"

namespace mcsim::mem
{

void
FunctionalMemory::ensure(Addr limit)
{
    if (limit > segmentBytes) {
        fatal("functional memory: address limit 0x%llx is past the "
              "segment bound 0x%llx",
              static_cast<unsigned long long>(limit),
              static_cast<unsigned long long>(segmentBytes));
    }
    if (limit > bytes.size())
        bytes.resize(std::bit_ceil(limit), 0);
}

std::uint64_t
FunctionalMemory::fingerprint() const
{
    std::uint64_t h = 0xcbf29ce484222325ull;  // FNV-1a offset basis
    for (std::uint8_t b : bytes) {
        h ^= b;
        h *= 0x100000001b3ull;
    }
    return h;
}

std::uint64_t
FunctionalMemory::fingerprint(Addr addr, std::size_t n) const
{
    std::uint64_t h = 0xcbf29ce484222325ull;  // FNV-1a offset basis
    for (std::size_t i = 0; i < n; ++i) {
        const Addr a = addr + i;
        // Unbacked bytes read as zero, matching read().
        const std::uint8_t b = a < bytes.size() ? bytes[a] : 0;
        h ^= b;
        h *= 0x100000001b3ull;
    }
    return h;
}

void
FunctionalMemory::read(Addr addr, void *out, std::size_t n) const
{
    // Neither branch forms addr + n, which could wrap near 2^64.
    const std::size_t backed = bytes.size();
    if (addr <= backed && n <= backed - addr) {
        std::memcpy(out, bytes.data() + addr, n);
    } else {
        // Unbacked reads return zero; workloads initialize their data so
        // this only happens for never-written padding.
        std::memset(out, 0, n);
        if (addr < backed)
            std::memcpy(out, bytes.data() + addr, backed - addr);
    }
}

void
FunctionalMemory::write(Addr addr, const void *in, std::size_t n)
{
    if (addr > segmentBytes || n > segmentBytes - addr) {
        fatal("functional memory: write of %zu byte(s) at 0x%llx is past "
              "the segment bound 0x%llx",
              n, static_cast<unsigned long long>(addr),
              static_cast<unsigned long long>(segmentBytes));
    }
    ensure(addr + n);
    std::memcpy(bytes.data() + addr, in, n);
}

std::uint32_t
FunctionalMemory::readU32(Addr addr) const
{
    std::uint32_t v;
    read(addr, &v, sizeof(v));
    return v;
}

void
FunctionalMemory::writeU32(Addr addr, std::uint32_t value)
{
    write(addr, &value, sizeof(value));
}

std::uint64_t
FunctionalMemory::readU64(Addr addr) const
{
    std::uint64_t v;
    read(addr, &v, sizeof(v));
    return v;
}

void
FunctionalMemory::writeU64(Addr addr, std::uint64_t value)
{
    write(addr, &value, sizeof(value));
}

std::int64_t
FunctionalMemory::readI64(Addr addr) const
{
    std::int64_t v;
    read(addr, &v, sizeof(v));
    return v;
}

void
FunctionalMemory::writeI64(Addr addr, std::int64_t value)
{
    write(addr, &value, sizeof(value));
}

double
FunctionalMemory::readF64(Addr addr) const
{
    double v;
    read(addr, &v, sizeof(v));
    return v;
}

void
FunctionalMemory::writeF64(Addr addr, double value)
{
    write(addr, &value, sizeof(value));
}

std::uint64_t
FunctionalMemory::testAndSet(Addr addr)
{
    const std::uint64_t old = readU64(addr);
    writeU64(addr, 1);
    return old;
}

} // namespace mcsim::mem

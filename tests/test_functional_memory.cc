/**
 * @file
 * Unit tests for the functional backing store.
 */

#include <gtest/gtest.h>

#include "mem/functional_memory.hh"
#include "sim/logging.hh"

using namespace mcsim;
using mem::FunctionalMemory;

TEST(FunctionalMemory, U64RoundTrip)
{
    FunctionalMemory m;
    m.writeU64(8, 0x1122334455667788ull);
    EXPECT_EQ(m.readU64(8), 0x1122334455667788ull);
}

TEST(FunctionalMemory, U32RoundTripAndOverlap)
{
    FunctionalMemory m;
    m.writeU64(0, ~0ull);
    m.writeU32(0, 5);
    EXPECT_EQ(m.readU32(0), 5u);
    EXPECT_EQ(m.readU32(4), 0xffffffffu);  // upper half untouched
}

TEST(FunctionalMemory, F64RoundTrip)
{
    FunctionalMemory m;
    m.writeF64(16, 3.25);
    EXPECT_DOUBLE_EQ(m.readF64(16), 3.25);
    m.writeF64(16, -0.0);
    EXPECT_EQ(m.readF64(16), 0.0);
}

TEST(FunctionalMemory, GrowsOnWrite)
{
    FunctionalMemory m;
    m.writeU64(1 << 20, 7);
    EXPECT_GE(m.size(), (1u << 20) + 8);
    EXPECT_EQ(m.readU64(1 << 20), 7u);
}

TEST(FunctionalMemory, UnbackedReadsAreZero)
{
    FunctionalMemory m;
    EXPECT_EQ(m.readU64(1 << 24), 0u);
    EXPECT_EQ(m.size(), 0u);  // const read does not grow
}

TEST(FunctionalMemory, EnsurePreallocates)
{
    FunctionalMemory m;
    m.ensure(1000);
    EXPECT_GE(m.size(), 1000u);
}

TEST(FunctionalMemory, StartsEmptyAndGrowsToTheNextPowerOfTwo)
{
    FunctionalMemory m;
    EXPECT_EQ(m.size(), 0u);
    EXPECT_EQ(m.readU64(0), 0u);
    EXPECT_EQ(m.readU64(0x1000), 0u);
    EXPECT_EQ(m.size(), 0u);

    m.writeU64(0x1038, 9);  // ends at 0x1040
    EXPECT_EQ(m.size(), 0x2000u);
    m.ensure(0x2000);  // already backed
    EXPECT_EQ(m.size(), 0x2000u);
    m.ensure(0x2001);
    EXPECT_EQ(m.size(), 0x4000u);
    m.ensure(16);  // never shrinks
    EXPECT_EQ(m.size(), 0x4000u);
    EXPECT_EQ(m.readU64(0x1038), 9u);

    // The size depends on the highest address, not the order.
    FunctionalMemory other;
    other.ensure(0x2001);
    other.writeU64(0x1038, 9);
    EXPECT_EQ(other.size(), m.size());
    EXPECT_EQ(other.fingerprint(), m.fingerprint());
}

TEST(FunctionalMemory, AccessesPastTheSegmentBoundAreRejected)
{
    constexpr Addr bound = FunctionalMemory::segmentBytes;
    FunctionalMemory m;
    m.writeU64(0, 0x5555555555555555ull);
    EXPECT_THROW(m.writeU64(bound - 4, 1), FatalError);
    EXPECT_THROW(m.writeU64(bound, 1), FatalError);
    EXPECT_THROW(m.writeU64(0xfffffffffffffff8ull, 1), FatalError);
    EXPECT_THROW(m.ensure(bound + 1), FatalError);
    // A limit past 2^63 must return, by throwing, not loop.
    EXPECT_THROW(m.ensure((Addr(1) << 63) + 1), FatalError);
    EXPECT_EQ(m.size(), 8u);

    // Reads never fault: unbacked bytes are zero, even where addr + n
    // would wrap into the backed store.
    EXPECT_EQ(m.readU64(0xfffffffffffffff8ull), 0u);
    EXPECT_EQ(m.readU64(0xfffffffffffffffcull), 0u);
    EXPECT_EQ(m.readU64(bound), 0u);
    EXPECT_EQ(m.readU64(0), 0x5555555555555555ull);
}

TEST(FunctionalMemory, TestAndSetSemantics)
{
    FunctionalMemory m;
    EXPECT_EQ(m.testAndSet(24), 0u);   // was free
    EXPECT_EQ(m.readU64(24), 1u);      // now held
    EXPECT_EQ(m.testAndSet(24), 1u);   // second attempt fails
    m.writeU64(24, 0);
    EXPECT_EQ(m.testAndSet(24), 0u);   // released, acquirable again
}

TEST(FunctionalMemory, ByteRangeAccess)
{
    FunctionalMemory m;
    const char data[] = "abcdef";
    m.write(3, data, 6);
    char out[6] = {};
    m.read(3, out, 6);
    EXPECT_EQ(std::string(out, 6), "abcdef");
}

/**
 * @file
 * Unit tests of ticks, Clocked, Random, SparseMemory, PagedArray and
 * csprintf.
 */

#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "sim/clocked.hh"
#include "sim/logging.hh"
#include "sim/paged_array.hh"
#include "sim/random.hh"
#include "sim/sparse_memory.hh"
#include "sim/ticks.hh"

namespace dramless
{
namespace
{

TEST(TicksTest, UnitConversionsRoundTrip)
{
    EXPECT_EQ(fromNs(2.5), 2500u);
    EXPECT_EQ(fromUs(10), 10'000'000u);
    EXPECT_EQ(fromMs(60), 60'000'000'000u);
    EXPECT_DOUBLE_EQ(toNs(fromNs(80)), 80.0);
    EXPECT_DOUBLE_EQ(toUs(fromUs(18)), 18.0);
    EXPECT_DOUBLE_EQ(toSec(tickPerSec), 1.0);
}

TEST(TicksTest, PeriodsFromFrequency)
{
    EXPECT_EQ(periodFromMhz(400.0), 2500u); // the PRAM PHY clock
    EXPECT_EQ(periodFromGhz(1.0), 1000u);   // the PE clock
}

TEST(ClockedTest, CycleTickConversions)
{
    EventQueue eq;
    Clocked c(eq, 2500);
    EXPECT_EQ(c.clockPeriod(), 2500u);
    EXPECT_DOUBLE_EQ(c.frequencyMhz(), 400.0);
    EXPECT_EQ(c.cyclesToTicks(6), 15000u);
    EXPECT_EQ(c.ticksToCycles(15000), 6u);
    EXPECT_EQ(c.ticksToCycles(15001), 7u); // rounds up
}

TEST(ClockedTest, ClockEdgeAligns)
{
    EventQueue eq;
    Clocked c(eq, 10);
    EventFunctionWrapper ev([] {}, "advance");
    eq.schedule(&ev, 13);
    eq.run();
    ASSERT_EQ(eq.curTick(), 13u);
    EXPECT_EQ(c.clockEdge(), 20u);      // next edge
    EXPECT_EQ(c.clockEdge(1), 20u);     // first edge >= 1 cycle away
    EXPECT_EQ(c.clockEdge(2), 30u);
}

TEST(ClockedTest, ClockEdgeOnEdgeIsNow)
{
    EventQueue eq;
    Clocked c(eq, 10);
    EXPECT_EQ(c.clockEdge(), 0u);
    EXPECT_EQ(c.clockEdge(3), 30u);
}

TEST(RandomTest, DeterministicFromSeed)
{
    Random a(42), b(42);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(RandomTest, DifferentSeedsDiverge)
{
    Random a(1), b(2);
    int same = 0;
    for (int i = 0; i < 64; ++i)
        same += (a.next() == b.next());
    EXPECT_LT(same, 2);
}

TEST(RandomTest, UniformInUnitInterval)
{
    Random r(7);
    for (int i = 0; i < 1000; ++i) {
        double u = r.uniform();
        EXPECT_GE(u, 0.0);
        EXPECT_LT(u, 1.0);
    }
}

TEST(RandomTest, BetweenStaysInClosedRange)
{
    Random r(9);
    std::set<std::uint64_t> seen;
    for (int i = 0; i < 1000; ++i) {
        std::uint64_t v = r.between(10, 13);
        EXPECT_GE(v, 10u);
        EXPECT_LE(v, 13u);
        seen.insert(v);
    }
    EXPECT_EQ(seen.size(), 4u); // all values reachable
}

TEST(RandomTest, ChanceExtremes)
{
    Random r(5);
    for (int i = 0; i < 50; ++i) {
        EXPECT_FALSE(r.chance(0.0));
        EXPECT_TRUE(r.chance(1.0));
    }
}

TEST(SparseMemoryTest, ReadsZerosWhenUntouched)
{
    SparseMemory mem(1 << 20);
    std::uint8_t buf[16];
    std::fill(std::begin(buf), std::end(buf), 0xFF);
    mem.read(4096, buf, sizeof(buf));
    for (auto b : buf)
        EXPECT_EQ(b, 0u);
    EXPECT_EQ(mem.allocatedBlocks(), 0u);
}

TEST(SparseMemoryTest, WriteReadRoundTrip)
{
    SparseMemory mem(1 << 20);
    std::vector<std::uint8_t> data(100);
    for (std::size_t i = 0; i < data.size(); ++i)
        data[i] = std::uint8_t(i * 3);
    mem.write(12345, data.data(), data.size());
    std::vector<std::uint8_t> out(100);
    mem.read(12345, out.data(), out.size());
    EXPECT_EQ(data, out);
}

TEST(SparseMemoryTest, CrossBlockAccesses)
{
    SparseMemory mem(1 << 20, 64);
    std::vector<std::uint8_t> data(200, 0xAB);
    mem.write(60, data.data(), data.size()); // spans 4+ blocks
    std::vector<std::uint8_t> out(200);
    mem.read(60, out.data(), out.size());
    EXPECT_EQ(data, out);
    EXPECT_GE(mem.allocatedBlocks(), 4u);
}

TEST(SparseMemoryDeathTest, OutOfRangePanics)
{
    SparseMemory mem(1024);
    std::uint8_t b = 0;
    EXPECT_DEATH(mem.read(1024, &b, 1), "out of range");
    EXPECT_DEATH(mem.write(1000, &b, 100), "out of range");
}

TEST(PagedArrayTest, UnwrittenEntriesReadTheFill)
{
    PagedArray<std::uint32_t, 4> zeros;
    EXPECT_EQ(zeros.get(0), 0u);
    EXPECT_EQ(zeros.get(1'000'000), 0u);

    // A non-zero fill, as the FTL's L2P marks unmapped pages.
    const std::uint64_t unmapped = ~std::uint64_t(0);
    PagedArray<std::uint64_t, 4> l2p(unmapped);
    EXPECT_EQ(l2p.get(123), unmapped);
    l2p.ref(17) = 5; // allocates the page of entries 16..31
    EXPECT_EQ(l2p.get(17), 5u);
    EXPECT_EQ(l2p.get(16), unmapped);
    EXPECT_EQ(l2p.get(31), unmapped);
    EXPECT_EQ(l2p.get(3), unmapped);  // earlier page, never written
    EXPECT_EQ(l2p.get(32), unmapped); // later page, never written
    l2p.ref(17) = unmapped;
    EXPECT_EQ(l2p.get(17), unmapped);
}

TEST(WordBitmapTest, BitsOnEitherSideOfThePageBoundary)
{
    constexpr std::uint64_t page = 32 * 1024; // words per 4 KiB page
    WordBitmap bits;
    bits.set(page - 1);
    EXPECT_TRUE(bits.test(page - 1));
    EXPECT_FALSE(bits.test(page - 2));
    EXPECT_FALSE(bits.test(page));
    bits.set(page);
    EXPECT_TRUE(bits.test(page));
    EXPECT_FALSE(bits.test(page + 1));
    bits.reset(page - 1);
    EXPECT_FALSE(bits.test(page - 1));
    EXPECT_TRUE(bits.test(page));
    bits.reset(page);
    EXPECT_FALSE(bits.test(page));
}

TEST(WordBitmapTest, ResetOfANeverSetWordLeavesItClear)
{
    WordBitmap bits;
    bits.reset(5); // no page allocated yet
    EXPECT_FALSE(bits.test(5));
    bits.set(70);
    bits.reset(71); // allocated page, word never set
    EXPECT_FALSE(bits.test(71));
    EXPECT_TRUE(bits.test(70));
    bits.reset(1'000'000); // beyond every allocated page
    EXPECT_FALSE(bits.test(1'000'000));
    EXPECT_TRUE(bits.test(70));
}

TEST(CsprintfTest, FormatsLikePrintf)
{
    EXPECT_EQ(csprintf("x=%d y=%s", 42, "hi"), "x=42 y=hi");
    EXPECT_EQ(csprintf("%05.1f", 2.25), "002.2");
    EXPECT_EQ(csprintf("plain"), "plain");
}

TEST(LoggingTest, QuietSuppresssesFlag)
{
    setQuiet(true);
    EXPECT_TRUE(quiet());
    setQuiet(false);
    EXPECT_FALSE(quiet());
}

} // namespace
} // namespace dramless

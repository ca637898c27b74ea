/**
 * @file
 * Unit tests of the MCU and the trace-driven processing element.
 */

#include <gtest/gtest.h>

#include <vector>

#include "accel/mcu.hh"
#include "accel/pe.hh"
#include "fake_backend.hh"

namespace dramless
{
namespace accel
{
namespace
{

class McuTest : public ::testing::Test
{
  protected:
    McuTest()
        : backend(eq, fromNs(100), fromUs(10)),
          mcu(eq, McuConfig{}, "mcu")
    {
        mcu.attachBackend(&backend);
    }

    EventQueue eq;
    FakeBackend backend;
    Mcu mcu;
};

TEST_F(McuTest, ReadCompletesAfterBackendLatency)
{
    Tick done = 0;
    mcu.read(0x1000, 512, [&](Tick when) { done = when; });
    eq.run();
    EXPECT_EQ(done, fromNs(100));
    EXPECT_EQ(backend.reads, 1u);
    EXPECT_EQ(backend.readBytes, 512u);
    EXPECT_TRUE(mcu.idle());
}

TEST_F(McuTest, PostedWriteNeedsNoCallback)
{
    mcu.write(0x2000, 32);
    eq.run();
    EXPECT_EQ(backend.writes, 1u);
    EXPECT_TRUE(mcu.idle());
}

TEST_F(McuTest, RequestOverheadSerializesAdmission)
{
    // Default overhead 20 ns: the second submit goes 20 ns later.
    std::vector<Tick> done;
    mcu.read(0, 32, [&](Tick w) { done.push_back(w); });
    mcu.read(64, 32, [&](Tick w) { done.push_back(w); });
    eq.run();
    ASSERT_EQ(done.size(), 2u);
    EXPECT_EQ(done[0], fromNs(100));
    EXPECT_EQ(done[1], fromNs(120));
}

TEST_F(McuTest, HintsForwardToBackend)
{
    mcu.hintFutureWrite(0x100, 4096);
    ASSERT_EQ(backend.hints.size(), 1u);
    EXPECT_EQ(backend.hints[0].first, 0x100u);
    EXPECT_EQ(backend.hints[0].second, 4096u);
}

TEST_F(McuTest, BackpressureDrainsOnCompletions)
{
    // A backend that admits only two requests at a time: the MCU
    // must queue the rest and drain as completions free slots.
    FakeBackend tight(eq, fromUs(1), fromUs(1), /*accept_limit=*/2);
    Mcu m2(eq, McuConfig{fromNs(0), 64}, "m2");
    m2.attachBackend(&tight);
    int done_count = 0;
    for (int i = 0; i < 10; ++i)
        m2.read(std::uint64_t(i) * 64, 32,
                [&](Tick) { ++done_count; });
    EXPECT_GT(m2.outstanding(), 0u);
    eq.run();
    EXPECT_EQ(done_count, 10);
    EXPECT_TRUE(m2.idle());
    EXPECT_EQ(tight.reads, 10u);
}

TEST_F(McuTest, LatencyStatsSampled)
{
    mcu.read(0, 32, [](Tick) {});
    mcu.write(0, 32, [](Tick) {});
    eq.run();
    EXPECT_EQ(mcu.mcuStats().readLatencyNs.count(), 1u);
    EXPECT_NEAR(mcu.mcuStats().readLatencyNs.mean(), 100.0, 1.0);
    EXPECT_EQ(mcu.mcuStats().writeLatencyNs.count(), 1u);
    EXPECT_NEAR(mcu.mcuStats().writeLatencyNs.mean(), 10000.0, 50.0);
}

// ------------------------------- PE -------------------------------

class PeTest : public ::testing::Test
{
  protected:
    PeTest()
        : backend(eq, fromNs(200), fromUs(10)),
          mcu(eq, McuConfig{fromNs(0), 128}, "mcu"),
          pe(eq, PeConfig{}, "pe")
    {
        mcu.attachBackend(&backend);
        pe.attachMcu(&mcu);
        pe.setOnDone([this] { doneAt = eq.curTick(); });
    }

    void
    run(std::vector<TraceItem> items)
    {
        trace = std::make_unique<VectorTrace>(std::move(items));
        pe.setTrace(trace.get());
        pe.start(0);
        eq.run();
    }

    EventQueue eq;
    FakeBackend backend;
    Mcu mcu;
    ProcessingElement pe;
    std::unique_ptr<VectorTrace> trace;
    Tick doneAt = 0;
};

TEST_F(PeTest, ComputeRetiresAtEffectiveIssue)
{
    // 4000 instructions at 4/cycle = 1000 cycles = 1 us at 1 GHz.
    run({TraceItem::computeOf(4000)});
    EXPECT_TRUE(pe.finished());
    EXPECT_EQ(pe.peStats().instructions, 4000u);
    EXPECT_EQ(pe.peStats().computeCycles, 1000u);
    EXPECT_GE(doneAt, fromUs(1));
    EXPECT_LE(doneAt, fromUs(1) + fromNs(10));
}

TEST_F(PeTest, ColdLoadStallsForBackend)
{
    run({TraceItem::loadOf(0x1000, 32)});
    EXPECT_EQ(pe.peStats().l2MissReads, 1u);
    EXPECT_EQ(backend.reads, 1u);
    // The MCU fetched a whole 1 KiB L2 block (512 B per channel).
    EXPECT_EQ(backend.readBytes, 1024u);
    EXPECT_GE(pe.peStats().loadStallTicks, fromNs(200));
}

TEST_F(PeTest, WarmLoadsHitCaches)
{
    run({TraceItem::loadOf(0x1000, 32), TraceItem::loadOf(0x1000, 32),
         TraceItem::loadOf(0x1020, 32)});
    // One L2 miss; the rest are cache hits.
    EXPECT_EQ(backend.reads, 1u);
    EXPECT_EQ(pe.l1Stats().hits, 2u);
}

TEST_F(PeTest, SpatialLocalityWithinL2Block)
{
    // 16 loads covering half of one 1 KiB L2 block: one fetch.
    std::vector<TraceItem> items;
    for (int i = 0; i < 16; ++i)
        items.push_back(TraceItem::loadOf(0x2000 + i * 32, 32));
    run(items);
    EXPECT_EQ(backend.reads, 1u);
}

TEST_F(PeTest, WriteAllocateStoreMissFetchesBlock)
{
    // Default policy: a store miss fetches the L2 block (RMW in the
    // cache) and dirties it; the dirty line is flushed at kernel end.
    run({TraceItem::storeOf(0x8000, 32)});
    EXPECT_EQ(backend.reads, 1u);
    EXPECT_EQ(pe.peStats().l2MissReads, 1u);
    EXPECT_GT(pe.peStats().loadStallTicks, 0u);
    // End-of-kernel flush pushed the dirty line(s) out.
    EXPECT_GE(backend.writes, 1u);
}

TEST_F(PeTest, DirtyBlocksWriteBackAtBlockGranularity)
{
    // Dirty enough L2 sets to force dirty evictions: stores marching
    // through many blocks that map to the same sets.
    std::vector<TraceItem> items;
    std::uint64_t l2_bytes = PeConfig{}.l2.capacityBytes;
    for (int i = 0; i < 3; ++i) // 3x the L2 capacity
        for (std::uint64_t a = 0; a < l2_bytes; a += 1024)
            items.push_back(
                TraceItem::storeOf(std::uint64_t(i) * l2_bytes + a,
                                   32));
    run(items);
    EXPECT_GT(pe.peStats().writebackWrites, 0u);
    EXPECT_GT(backend.writes, 0u);
    // Writebacks carry whole L2 blocks.
    EXPECT_EQ(backend.writtenBytes % 1024, 0u);
}

TEST_F(PeTest, WritebackBackpressureStallsTheCore)
{
    // A slow-write backend plus streaming dirty evictions must fill
    // the posted-write queue and pause the core.
    std::vector<TraceItem> items;
    std::uint64_t l2_bytes = PeConfig{}.l2.capacityBytes;
    for (int i = 0; i < 4; ++i)
        for (std::uint64_t a = 0; a < l2_bytes; a += 1024)
            items.push_back(
                TraceItem::storeOf(std::uint64_t(i) * l2_bytes + a,
                                   32));
    run(items);
    EXPECT_GT(pe.peStats().storeStallTicks, 0u);
}

TEST_F(PeTest, StoreHitsDirtyCacheThenFlushesAtKernelEnd)
{
    run({TraceItem::loadOf(0x3000, 32),
         TraceItem::storeOf(0x3000, 32)});
    // The dirtied line reached storage only via the final flush.
    EXPECT_GE(backend.writes, 1u);
    EXPECT_EQ(backend.reads, 1u);
}

TEST_F(PeTest, MixedTraceFinishesAndCountsCycles)
{
    run({TraceItem::computeOf(400), TraceItem::loadOf(0, 32),
         TraceItem::computeOf(400), TraceItem::storeOf(0, 32),
         TraceItem::computeOf(400)});
    EXPECT_TRUE(pe.finished());
    EXPECT_EQ(pe.peStats().instructions, 1200u);
    EXPECT_GT(pe.peStats().computeCycles, 0u);
    EXPECT_GT(pe.peStats().memAccessCycles, 0u);
}

TEST_F(PeTest, SampleDrainsAreIncremental)
{
    run({TraceItem::computeOf(4000)});
    EXPECT_EQ(pe.drainInstructionSample(), 4000u);
    EXPECT_EQ(pe.drainInstructionSample(), 0u);
}

TEST_F(PeTest, DeathOnMisuse)
{
    EXPECT_DEATH(pe.start(0), "without a trace");
    VectorTrace t({TraceItem::computeOf(10)});
    pe.setTrace(&t);
    pe.start(0);
    EXPECT_DEATH(pe.start(0), "double start");
    eq.run();
}

} // namespace
} // namespace accel
} // namespace dramless

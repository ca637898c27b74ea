/**
 * @file
 * Unit tests of the PRAM module state machine: three-phase protocol
 * timing, overlay-window programs, selective-erase classification and
 * partition busy accounting.
 */

#include <gtest/gtest.h>

#include <array>
#include <cstring>

#include "pram/overlay_window.hh"
#include "pram/pram_module.hh"
#include "sim/event_queue.hh"

namespace dramless
{
namespace pram
{
namespace
{

/** Harness owning a queue and a single module. */
class PramModuleTest : public ::testing::Test
{
  protected:
    PramModuleTest()
        : mod(eq, PramGeometry::paperDefault(),
              PramTiming::paperDefault(), "mod0")
    {}

    /** Advance simulated time to @p t. */
    void
    at(Tick t)
    {
        eq.runUntil(t);
    }

    /** Run a full three-phase read of module byte address @p addr. */
    std::array<std::uint8_t, 32>
    fullRead(std::uint32_t ba, std::uint64_t addr)
    {
        DecomposedAddress d = mod.decomposer().decompose(addr);
        Tick rab = mod.preActive(ba, d.upperRow, d.partition);
        at(rab);
        Tick rdb = mod.activate(ba, d.lowerRow);
        at(rdb);
        std::array<std::uint8_t, 32> out{};
        BurstTiming bt = mod.readBurst(ba, 0, 32, out.data());
        at(bt.lastData);
        return out;
    }

    /**
     * Run the full overlay-window program sequence for one 32-byte
     * word at @p word index, mimicking the controller's translator.
     * @return the tick the program completes.
     */
    Tick
    programWord(std::uint64_t word, const std::uint8_t *data)
    {
        const std::uint64_t base = mod.overlayWindow().base();
        auto ow_write = [&](std::uint32_t off, const void *src,
                            std::uint32_t len) {
            std::uint64_t addr = base + off;
            DecomposedAddress d = mod.decomposer().decompose(addr);
            at(mod.preActive(0, d.upperRow, d.partition));
            at(mod.activate(0, d.lowerRow));
            BurstTiming bt = mod.writeBurst(0, d.column, len, src);
            // Register effects land after tWRA.
            at(bt.lastData + mod.timing().tWRA);
        };
        std::uint32_t code = ow::cmdBufferProgram;
        ow_write(ow::codeReg, &code, 4);
        std::uint32_t w32 = std::uint32_t(word);
        ow_write(ow::addressReg, &w32, 4);
        std::uint32_t n = 32;
        ow_write(ow::multiPurposeReg, &n, 4);
        ow_write(ow::programBufferBase, data, 32);
        std::uint32_t go = 1;
        ow_write(ow::executeReg, &go, 4);
        return mod.programBusyUntil();
    }

    EventQueue eq;
    PramModule mod;
};

TEST_F(PramModuleTest, PreActiveTakesTrpAndLatchesRab)
{
    Tick done = mod.preActive(1, 0x1234, 5);
    EXPECT_EQ(done, fromNs(7.5)); // 3 cycles at 2.5 ns
    EXPECT_TRUE(mod.rabValid(1));
    EXPECT_EQ(mod.rabUpperRow(1), 0x1234u);
    EXPECT_EQ(mod.rabPartition(1), 5u);
    EXPECT_FALSE(mod.rabValid(0));
}

TEST_F(PramModuleTest, ActivateSensesRowAfterTrcd)
{
    DecomposedAddress d = mod.decomposer().decompose(0);
    Tick rab = mod.preActive(0, d.upperRow, d.partition);
    at(rab);
    Tick rdb = mod.activate(0, d.lowerRow);
    EXPECT_EQ(rdb - rab, mod.timing().tRCD);
    EXPECT_TRUE(mod.rdbValid(0));
    EXPECT_EQ(mod.rdbRow(0), d.row);
    EXPECT_EQ(mod.rdbPartition(0), d.partition);
    EXPECT_FALSE(mod.rdbIsOverlay(0));
    // The partition is busy for the duration of the sense.
    EXPECT_EQ(mod.partitionBusyUntil(d.partition), rdb);
}

TEST_F(PramModuleTest, ReadBurstTimingMatchesTableTwo)
{
    DecomposedAddress d = mod.decomposer().decompose(0);
    at(mod.preActive(0, d.upperRow, d.partition));
    at(mod.activate(0, d.lowerRow));
    Tick start = eq.curTick();
    BurstTiming bt = mod.readBurst(0, 0, 32);
    // RL (6 cyc) + tDQSCK then a BL16 burst.
    EXPECT_EQ(bt.firstData - start, fromNs(15 + 4));
    EXPECT_EQ(bt.lastData - bt.firstData, fromNs(40));
}

TEST_F(PramModuleTest, FunctionalReadBackThroughProtocol)
{
    std::array<std::uint8_t, 32> pattern;
    for (std::size_t i = 0; i < pattern.size(); ++i)
        pattern[i] = std::uint8_t(i + 1);
    mod.functionalWrite(7 * 32, pattern.data(), 32);
    auto out = fullRead(2, 7 * 32);
    EXPECT_EQ(std::memcmp(out.data(), pattern.data(), 32), 0);
}

TEST_F(PramModuleTest, OverlayActivateDoesNotTouchPartitions)
{
    std::uint64_t base = mod.overlayWindow().base();
    DecomposedAddress d = mod.decomposer().decompose(base);
    at(mod.preActive(0, d.upperRow, d.partition));
    Tick before = mod.partitionBusyUntil(d.partition);
    at(mod.activate(0, d.lowerRow));
    EXPECT_TRUE(mod.rdbIsOverlay(0));
    EXPECT_EQ(mod.partitionBusyUntil(d.partition), before);
    EXPECT_EQ(mod.moduleStats().numOverlayActivate, 1u);
}

TEST_F(PramModuleTest, ProgramPristineVersusOverwriteLatency)
{
    std::array<std::uint8_t, 32> data;
    data.fill(0x5A);

    // First program of an untouched (programmed-by-default) word: the
    // module treats unknown cells as programmed, so it is an
    // overwrite (RESET+SET, 18 us).
    Tick t0 = eq.curTick();
    Tick done = programWord(100, data.data());
    EXPECT_GE(done - t0, mod.timing().cellOverwrite);
    at(done);

    EXPECT_EQ(mod.moduleStats().numOverwrites, 1u);
    EXPECT_EQ(mod.moduleStats().numPrograms, 1u);

    // Functional content landed in the array.
    std::array<std::uint8_t, 32> out{};
    mod.functionalRead(100 * 32, out.data(), 32);
    EXPECT_EQ(std::memcmp(out.data(), data.data(), 32), 0);
}

TEST_F(PramModuleTest, AllZeroProgramIsResetOnlyAndMarksPristine)
{
    std::array<std::uint8_t, 32> zeros{};
    Tick before = eq.curTick();
    Tick done = programWord(200, zeros.data());
    at(done);
    // RESET-only pulse train: strictly shorter than a pristine SET
    // program and far shorter than an overwrite.
    EXPECT_LT(done - before,
              mod.timing().cellProgram + fromUs(2));
    EXPECT_TRUE(mod.wordIsPristine(200));
    EXPECT_EQ(mod.moduleStats().numResetOnlyPrograms, 1u);

    // A subsequent data program of the pristine word is SET-only.
    std::array<std::uint8_t, 32> data;
    data.fill(0x77);
    Tick t1 = eq.curTick();
    Tick done2 = programWord(200, data.data());
    at(done2);
    // The program itself takes cellProgram, not cellOverwrite; allow
    // the protocol overhead of the five register writes.
    EXPECT_LT(done2 - t1, mod.timing().cellProgram + fromUs(2));
    EXPECT_EQ(mod.moduleStats().numPristinePrograms, 1u);
    EXPECT_FALSE(mod.wordIsPristine(200));
}

TEST_F(PramModuleTest, FunctionalWriteEndsPristineState)
{
    std::array<std::uint8_t, 32> zeros{};
    at(programWord(300, zeros.data()));
    ASSERT_TRUE(mod.wordIsPristine(300));
    std::uint8_t b = 1;
    mod.functionalWrite(300 * 32 + 31, &b, 1);
    EXPECT_FALSE(mod.wordIsPristine(300));
    EXPECT_EQ(mod.classifyProgram(300, false), ProgramKind::overwrite);
}

TEST_F(PramModuleTest, ExecuteOfUnknownCommandDies)
{
    // The window executes the buffered program and nothing else.
    mod.overlayWindow().writeReg(ow::codeReg, 0x20);
    const std::uint64_t base = mod.overlayWindow().base();
    DecomposedAddress d =
        mod.decomposer().decompose(base + ow::executeReg);
    at(mod.preActive(0, d.upperRow, d.partition));
    at(mod.activate(0, d.lowerRow));
    std::uint32_t go = 1;
    EXPECT_DEATH(mod.writeBurst(0, d.column, 4, &go),
                 "unknown command code");
}

TEST_F(PramModuleTest, SelectiveErasingSavingMatchesPaper)
{
    // Section V-A: selective erasing reduces overwrite latency by
    // roughly half (44-55%); with Table II numbers, 18 us -> 10 us.
    PramTiming t = mod.timing();
    double saving =
        1.0 - double(t.cellProgram) / double(t.cellOverwrite);
    EXPECT_NEAR(saving, 0.44, 0.02);
}

TEST_F(PramModuleTest, ClassifyProgramMatrix)
{
    EXPECT_EQ(mod.classifyProgram(5, true), ProgramKind::resetOnly);
    EXPECT_EQ(mod.classifyProgram(5, false), ProgramKind::overwrite);
    std::array<std::uint8_t, 32> zeros{};
    at(programWord(5, zeros.data()));
    EXPECT_EQ(mod.classifyProgram(5, false),
              ProgramKind::pristineProgram);
}

TEST_F(PramModuleTest, ProgramOccupiesOnlyTargetPartition)
{
    std::array<std::uint8_t, 32> data;
    data.fill(1);
    DecomposedAddress d = mod.decomposer().decompose(0);
    Tick done = programWord(0, data.data());
    EXPECT_GT(mod.partitionBusyUntil(d.partition), eq.curTick());
    // Word 1 sits in partition 1: free during word 0's program.
    EXPECT_LE(mod.partitionBusyUntil(1), eq.curTick());
    at(done);
}

TEST_F(PramModuleTest, StatusRegisterReflectsProgramProgress)
{
    std::array<std::uint8_t, 32> data;
    data.fill(3);
    Tick done = programWord(42, data.data());
    // Re-read the status register through the protocol while busy.
    std::uint64_t base = mod.overlayWindow().base();
    DecomposedAddress d =
        mod.decomposer().decompose(base + ow::statusReg);
    at(mod.preActive(1, d.upperRow, d.partition));
    at(mod.activate(1, d.lowerRow));
    std::uint32_t status = 0xFFFF;
    BurstTiming bt = mod.readBurst(1, d.column, 4, &status);
    EXPECT_EQ(status, ow::statusBusy);
    at(std::max(bt.lastData, done));
    status = 0xFFFF;
    mod.readBurst(1, d.column, 4, &status);
    EXPECT_EQ(status, ow::statusReady);
}

TEST_F(PramModuleTest, EraseLatencyIsThousandsOfOverwrites)
{
    // Section V-A: erase ~60 ms is ~3000x an overwrite.
    PramTiming t = mod.timing();
    double ratio = double(t.eraseLatency) / double(t.cellOverwrite);
    EXPECT_GT(ratio, 3000.0);
    EXPECT_LT(ratio, 3500.0);
}

TEST_F(PramModuleTest, DeathOnProtocolViolations)
{
    DecomposedAddress d = mod.decomposer().decompose(0);
    // Activate without a valid RAB.
    EXPECT_DEATH(mod.activate(0, d.lowerRow), "invalid RAB");
    // Activate before the pre-active completes.
    mod.preActive(0, d.upperRow, d.partition);
    EXPECT_DEATH(mod.activate(0, d.lowerRow), "before pre-active");
    at(fromNs(7.5));
    at(mod.activate(0, d.lowerRow));
    // Direct array writes are illegal.
    std::uint32_t v = 1;
    EXPECT_DEATH(mod.writeBurst(0, 0, 4, &v), "illegal");
    // Reads beyond the row buffer.
    EXPECT_DEATH(mod.readBurst(0, 16, 32), "beyond row buffer");
}

TEST_F(PramModuleTest, WearCountersTrackPrograms)
{
    std::array<std::uint8_t, 32> data;
    data.fill(1);
    at(programWord(0, data.data()));
    at(programWord(16, data.data())); // same partition (0)
    at(programWord(1, data.data()));  // partition 1
    EXPECT_EQ(mod.partitionProgramCount(0), 2u);
    EXPECT_EQ(mod.partitionProgramCount(1), 1u);
    EXPECT_EQ(mod.partitionProgramCount(2), 0u);
}

TEST_F(PramModuleTest, ProgramInvalidatesStaleRowBuffers)
{
    // Sense a row into an RDB, program new data to that row, then
    // verify the RDB no longer claims to hold it: a phase-skipping
    // controller must not read the stale sensed copy.
    std::array<std::uint8_t, 32> before;
    before.fill(0x11);
    mod.functionalWrite(5 * 32, before.data(), 32); // word 5
    auto out = fullRead(1, 5 * 32);
    EXPECT_EQ(out[0], 0x11);
    EXPECT_TRUE(mod.rdbValid(1));

    std::array<std::uint8_t, 32> after;
    after.fill(0x22);
    at(programWord(5, after.data()));
    EXPECT_FALSE(mod.rdbValid(1)) << "stale RDB survived a program";

    auto out2 = fullRead(2, 5 * 32);
    EXPECT_EQ(out2[0], 0x22);
}

TEST(OverlayWindowTest, RegisterFileReadWrite)
{
    OverlayWindow w;
    w.writeReg(ow::codeReg, ow::cmdBufferProgram);
    w.writeReg(ow::addressReg, 0xABCD);
    w.writeReg(ow::multiPurposeReg, 32);
    EXPECT_EQ(w.readReg(ow::codeReg), ow::cmdBufferProgram);
    EXPECT_EQ(w.readReg(ow::addressReg), 0xABCDu);
    EXPECT_EQ(w.readReg(ow::multiPurposeReg), 32u);
    EXPECT_EQ(w.readReg(ow::statusReg), ow::statusReady);
}

TEST(OverlayWindowTest, ProgramBufferRoundTrip)
{
    OverlayWindow w(256);
    std::array<std::uint8_t, 64> data;
    for (std::size_t i = 0; i < data.size(); ++i)
        data[i] = std::uint8_t(i);
    w.writeProgramBuffer(32, data.data(), data.size());
    std::array<std::uint8_t, 64> out{};
    w.readProgramBuffer(32, out.data(), out.size());
    EXPECT_EQ(data, out);
}

TEST(OverlayWindowTest, ContainsRespectsBase)
{
    OverlayWindow w(256);
    w.setBase(0x10000);
    EXPECT_FALSE(w.contains(0xFFFF));
    EXPECT_TRUE(w.contains(0x10000));
    EXPECT_TRUE(w.contains(0x10000 + w.windowBytes() - 1));
    EXPECT_FALSE(w.contains(0x10000 + w.windowBytes()));
}

TEST(OverlayWindowDeathTest, GuardsInvalidAccess)
{
    OverlayWindow w(256);
    EXPECT_DEATH(w.writeReg(ow::statusReg, 1), "read-only");
    EXPECT_DEATH(w.writeReg(0x55, 1), "unknown overlay register");
    std::array<std::uint8_t, 16> b{};
    EXPECT_DEATH(w.writeProgramBuffer(250, b.data(), 16), "overflow");
}

} // namespace
} // namespace pram
} // namespace dramless

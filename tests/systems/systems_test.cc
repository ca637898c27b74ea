/**
 * @file
 * Integration tests of the full-system models: every Table I system
 * executes a small workload end-to-end, and the paper's qualitative
 * orderings hold.
 */

#include <gtest/gtest.h>

#include <map>

#include "accel/mcu.hh"
#include "ctrl/pram_subsystem.hh"
#include "systems/factory.hh"
#include "workload/polybench.hh"
#include "workload/workload_model.hh"

namespace dramless
{
namespace systems
{
namespace
{

/** Small scale so the whole matrix runs in seconds. */
constexpr double testScale = 0.08;

RunResult
runOne(SystemKind kind, const char *workload,
       double scale = testScale)
{
    setQuiet(true);
    auto sys = SystemFactory::create(kind, SystemOptions{});
    return sys->run(
        *workload::modelFor(workload::Polybench::byName(workload))
             ->scaled(scale));
}

TEST(SystemsTest, EverySystemCompletesGemver)
{
    for (SystemKind kind : SystemFactory::evaluationOrder()) {
        RunResult r = runOne(kind, "gemver");
        EXPECT_GT(r.execTime, 0u) << r.system;
        EXPECT_GT(r.bandwidthMBps, 0.0) << r.system;
        EXPECT_GT(r.energy.total(), 0.0) << r.system;
        EXPECT_GT(r.totalInstructions, 0u) << r.system;
        EXPECT_EQ(r.workload, "gemver");
    }
}

TEST(SystemsTest, DramLessBeatsHeteroOnMemoryIntensive)
{
    RunResult dl = runOne(SystemKind::dramLess, "gemver");
    RunResult h = runOne(SystemKind::hetero, "gemver");
    EXPECT_GT(dl.bandwidthMBps, h.bandwidthMBps);
}

TEST(SystemsTest, HeterodirectBeatsHetero)
{
    // Figure 15: the peer-to-peer DMA removes host copies.
    RunResult hd = runOne(SystemKind::heterodirect, "gemver");
    RunResult h = runOne(SystemKind::hetero, "gemver");
    EXPECT_GT(hd.bandwidthMBps, h.bandwidthMBps);
    EXPECT_LT(hd.hostStackTime, h.hostStackTime);
}

TEST(SystemsTest, IdealDominatesEverything)
{
    RunResult ideal = runOne(SystemKind::ideal, "gemver");
    for (SystemKind kind : SystemFactory::evaluationOrder()) {
        RunResult r = runOne(kind, "gemver");
        EXPECT_GT(ideal.bandwidthMBps, r.bandwidthMBps) << r.system;
    }
}

TEST(SystemsTest, FirmwareManagementDegradesDramLess)
{
    // Figure 7: traditional firmware vs the hardware automation.
    RunResult hw = runOne(SystemKind::dramLess, "gemver");
    RunResult fw = runOne(SystemKind::dramLessFirmware, "gemver");
    EXPECT_GT(hw.bandwidthMBps, fw.bandwidthMBps);
}

TEST(SystemsTest, IntegratedFlashOrdersByCellDensity)
{
    // SLC < MLC < TLC latencies => SLC fastest (Figure 15).
    RunResult slc = runOne(SystemKind::integratedSlc, "doitg");
    RunResult mlc = runOne(SystemKind::integratedMlc, "doitg");
    RunResult tlc = runOne(SystemKind::integratedTlc, "doitg");
    EXPECT_GT(slc.bandwidthMBps, mlc.bandwidthMBps);
    EXPECT_GT(mlc.bandwidthMBps, tlc.bandwidthMBps);
}

TEST(SystemsTest, HostFreeSystemsHaveNoHostStackTime)
{
    RunResult dl = runOne(SystemKind::dramLess, "trisolv");
    RunResult h = runOne(SystemKind::hetero, "trisolv");
    // The integrated systems only pay the one-off kernel push.
    EXPECT_LT(dl.hostStackTime, h.hostStackTime / 4);
}

TEST(SystemsTest, HeteroEnergyDominatedByHostStack)
{
    // Figure 17: Hetero spends most energy in the host-side stack.
    RunResult h = runOne(SystemKind::hetero, "gemver");
    EXPECT_GT(h.energy.hostStack, h.energy.storageMedia);
    EXPECT_GT(h.energy.hostStack, h.energy.pcie);
}

TEST(SystemsTest, DramLessUsesLessEnergyThanHetero)
{
    RunResult dl = runOne(SystemKind::dramLess, "gemver");
    RunResult h = runOne(SystemKind::hetero, "gemver");
    EXPECT_LT(dl.energy.total(), h.energy.total());
    // And no host/DRAM buffer energy to speak of.
    EXPECT_LT(dl.energy.dram, 1e-6);
}

TEST(SystemsTest, DecompositionSumsToExecTime)
{
    for (SystemKind kind :
         {SystemKind::dramLess, SystemKind::hetero,
          SystemKind::integratedSlc}) {
        RunResult r = runOne(kind, "trmm");
        EXPECT_LE(r.hostStackTime + r.transferTime +
                      r.storageStallTime + r.computeTime,
                  r.execTime + 1)
            << r.system;
        EXPECT_GT(r.computeTime, 0u) << r.system;
    }
}

TEST(SystemsTest, IpcSeriesRecordedAndBounded)
{
    RunResult r = runOne(SystemKind::dramLess, "gemver", 0.2);
    EXPECT_GE(r.ipc.size(), 3u);
    for (const auto &p : r.ipc.samples()) {
        EXPECT_GE(p.value, 0.0);
        EXPECT_LE(p.value, 7 * 4.0 + 1e-9); // agents x issue width
    }
}

TEST(SystemsTest, PowerSeriesAndCumulativeEnergyConsistent)
{
    RunResult r = runOne(SystemKind::dramLess, "gemver", 0.2);
    ASSERT_FALSE(r.corePower.empty());
    ASSERT_FALSE(r.cumulativeEnergy.empty());
    // Cumulative energy is non-decreasing and ends near the total.
    double prev = 0.0;
    for (const auto &p : r.cumulativeEnergy.samples()) {
        EXPECT_GE(p.value, prev - 1e-12);
        prev = p.value;
    }
    EXPECT_NEAR(prev, r.energy.total(), 0.25 * r.energy.total());
}

TEST(SystemsTest, SchedulerVariantsOrderOnWriteHeavy)
{
    // Figure 13: selective erasing lifts write-heavy workloads.
    setQuiet(true);
    SystemOptions opts;
    auto base = SystemFactory::createDramLessVariant(
        IntegratedKind::dramLessBareMetal, opts);
    auto sel = SystemFactory::createDramLessVariant(
        IntegratedKind::dramLessSelectiveErase, opts);
    auto final_cfg = SystemFactory::createDramLessVariant(
        IntegratedKind::dramLess, opts);
    const auto model =
        workload::modelFor(workload::Polybench::byName("doitg"))
            ->scaled(testScale);
    RunResult rb = base->run(*model);
    RunResult rs = sel->run(*model);
    RunResult rf = final_cfg->run(*model);
    EXPECT_GT(rs.bandwidthMBps, rb.bandwidthMBps);
    EXPECT_GE(rf.bandwidthMBps, rb.bandwidthMBps);
}

TEST(SystemsTest, McuAdmissionFollowsTheRequestChannel)
{
    // Default subsystem: two channels with 512 B stripes, so odd
    // stripes live on channel 1. Fill channel 1 until it refuses the
    // next odd stripe while channel 0 stays empty; an MCU read of
    // that stripe must then wait instead of overfilling channel 1.
    setQuiet(true);
    EventQueue eq;
    ctrl::PramSubsystem pram(eq, ctrl::SubsystemConfig{}, "pram");
    pram.initialize();
    ctrl::MemRequest req;
    req.size = 512;
    for (req.addr = 512; pram.canAccept(req); req.addr += 2 * 512)
        pram.enqueue(req);
    ASSERT_EQ(pram.channel(0).pendingRequests(), 0u);
    const std::size_t full = pram.channel(1).pendingRequests();
    ASSERT_GT(full, 0u);

    accel::Mcu mcu(eq, accel::McuConfig{}, "mcu");
    mcu.attachBackend(&pram);
    mcu.read(req.addr, 512, [](Tick) {});
    EXPECT_EQ(pram.channel(1).pendingRequests(), full);

    // The reads enqueued above would complete into the MCU as
    // unknown ids; drain them into a no-op callback instead.
    pram.setCallback([](const ctrl::MemResponse &) {});
    eq.run();
}

TEST(SystemsTest, TableOneInfoIsComplete)
{
    for (SystemKind kind : SystemFactory::evaluationOrder()) {
        SystemInfo info = SystemFactory::info(kind);
        EXPECT_NE(info.label, nullptr);
        EXPECT_NE(info.nvmRead, nullptr);
    }
    EXPECT_TRUE(SystemFactory::info(SystemKind::hetero).heterogeneous);
    EXPECT_FALSE(
        SystemFactory::info(SystemKind::dramLess).heterogeneous);
    EXPECT_FALSE(
        SystemFactory::info(SystemKind::dramLess).internalDram);
    EXPECT_TRUE(
        SystemFactory::info(SystemKind::pageBuffer).internalDram);
}

TEST(SystemsTest, RunsAreReproducible)
{
    RunResult a = runOne(SystemKind::dramLess, "floyd");
    RunResult b = runOne(SystemKind::dramLess, "floyd");
    EXPECT_EQ(a.execTime, b.execTime);
    EXPECT_EQ(a.totalInstructions, b.totalInstructions);
    EXPECT_DOUBLE_EQ(a.energy.total(), b.energy.total());
}

} // namespace
} // namespace systems
} // namespace dramless

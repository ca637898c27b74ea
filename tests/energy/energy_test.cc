/**
 * @file
 * Unit tests of the energy model: breakdown arithmetic, helper
 * conversions, and the system-level accounting functions.
 */

#include <gtest/gtest.h>

#include "accel/accelerator.hh"
#include "energy/energy_model.hh"
#include "systems/energy_accounting.hh"

namespace dramless
{
namespace energy
{
namespace
{

TEST(EnergyHelpersTest, UnitConversions)
{
    // 10 W over 1 ms = 10 mJ.
    EXPECT_NEAR(wattsOver(10.0, fromMs(1)), 0.010, 1e-12);
    // 2 pJ/bit over 1 Mbit = 2 uJ.
    EXPECT_NEAR(perBit(2.0, 1'000'000), 2e-6, 1e-15);
    // 45 pJ/B over 1 MB = 45 uJ.
    EXPECT_NEAR(perByte(45.0, 1'000'000), 45e-6, 1e-15);
}

TEST(EnergyBreakdownTest, TotalsAndAccumulation)
{
    EnergyBreakdown a;
    a.hostStack = 1.0;
    a.pcie = 0.5;
    a.accelCores = 2.0;
    EnergyBreakdown b;
    b.dram = 0.25;
    b.storageMedia = 0.125;
    b.controller = 0.0625;
    a += b;
    EXPECT_DOUBLE_EQ(a.total(), 3.9375);
    EXPECT_DOUBLE_EQ(a.dram, 0.25);
}

TEST(EnergyParamsTest, DefaultsAreOrdered)
{
    EnergyParams p = EnergyParams::paperDefault();
    // Active > stall > sleep for PE cores.
    EXPECT_GT(p.peActiveWatts, p.peStallWatts);
    EXPECT_GT(p.peStallWatts, p.peSleepWatts);
    // PRAM SET is the expensive pulse train.
    EXPECT_GT(p.pramSetPicojoulePerBit, p.pramReadPicojoulePerBit);
    // Flash programs cost more than reads, erases more than both.
    EXPECT_GT(p.flashProgramMicrojoulePerPage,
              p.flashReadMicrojoulePerPage);
    EXPECT_GT(p.flashEraseMicrojoulePerBlock,
              p.flashProgramMicrojoulePerPage);
    // Host active power dominates its idle/coordination power.
    EXPECT_GT(p.hostActiveWatts, p.hostIdleWatts);
    EXPECT_GT(p.hostIdleWatts, p.hostCoordinationWatts - 5.0);
}

TEST(PowerSeriesTest, CumulativeEnergyEndsAtTotal)
{
    stats::TimeSeries power("p");
    // Constant 4 W from 0 to 1 ms, sampled every 100 us.
    for (int i = 0; i <= 10; ++i)
        power.record(Tick(i) * fromUs(100), 4.0);
    double total = 0.010; // 10 mJ claimed total
    stats::TimeSeries cum = systems::cumulativeEnergySeries(
        power, total, 0, fromMs(1));
    ASSERT_FALSE(cum.empty());
    // Non-decreasing and final point equals the claimed total.
    double prev = -1.0;
    for (const auto &pt : cum.samples()) {
        EXPECT_GE(pt.value, prev);
        prev = pt.value;
    }
    EXPECT_NEAR(prev, total, total * 0.02);
}

TEST(PowerSeriesTest, CumulativeEnergyIntegratesTailToRunEnd)
{
    // Regression: the stretch from the last power sample to the end
    // of the run used to be dropped from the core integral, leaving
    // the final cumulative point short of the run total.
    stats::TimeSeries power("p");
    // Constant 4 W sampled only over the first half of a 1 ms run.
    for (int i = 0; i <= 5; ++i)
        power.record(Tick(i) * fromUs(100), 4.0);
    double total = 0.010; // core contributes 4 mJ of the 10 mJ
    stats::TimeSeries cum = systems::cumulativeEnergySeries(
        power, total, 0, fromMs(1));
    ASSERT_FALSE(cum.empty());
    // The series now closes the window: last point sits at the run
    // end and integrates exactly to the run's total joules.
    EXPECT_EQ(cum.samples().back().when, fromMs(1));
    EXPECT_NEAR(cum.samples().back().value, total, total * 1e-9);
    double prev = -1.0;
    for (const auto &pt : cum.samples()) {
        EXPECT_GE(pt.value, prev);
        prev = pt.value;
    }
}

TEST(PowerSeriesTest, CorePowerReflectsActivity)
{
    // Build a minimal accelerator, run a compute-only kernel, and
    // check the power series tracks activity between stall and
    // active levels.
    setQuiet(true);
    EventQueue eq;
    accel::AcceleratorConfig acfg;
    acfg.numPes = 3;
    acfg.sampleInterval = fromUs(5);
    accel::Accelerator accel(eq, acfg, "a");

    class Backend : public ctrl::MemoryBackend
    {
      public:
        explicit Backend(EventQueue &eq) : eq_(eq), ev_([this] {
            for (auto &[id, t] : pending_)
                cb_(ctrl::MemResponse{id, t});
            pending_.clear();
        }, "b") {}
        void
        setCallback(ctrl::CompletionCallback cb) override
        {
            cb_ = std::move(cb);
        }
        bool
        canAccept(const ctrl::MemRequest &) const override
        {
            return true;
        }
        std::uint64_t
        enqueue(const ctrl::MemRequest &) override
        {
            std::uint64_t id = next_++;
            pending_.emplace_back(id, eq_.curTick() + fromNs(200));
            eq_.reschedule(&ev_, eq_.curTick() + fromNs(200));
            return id;
        }
        std::uint64_t capacity() const override { return 1ull << 30; }

      private:
        EventQueue &eq_;
        ctrl::CompletionCallback cb_;
        std::uint64_t next_ = 1;
        std::vector<std::pair<std::uint64_t, Tick>> pending_;
        EventFunctionWrapper ev_;
    } backend(eq);
    accel.attachBackend(&backend);

    class Busy : public accel::TraceSource
    {
      public:
        bool
        next(accel::TraceItem &out) override
        {
            if (n_++ >= 40)
                return false;
            out = accel::TraceItem::computeOf(20000);
            return true;
        }

      private:
        int n_ = 0;
    } trace;

    accel::KernelLaunch launch;
    launch.agentTraces = {&trace};
    launch.imageResident = true;
    bool done = false;
    accel.launch(launch, [&](Tick) { done = true; });
    while (!done && eq.step()) {
    }
    eq.run();

    EnergyParams p;
    stats::TimeSeries power =
        systems::corePowerSeries(accel, 2, p);
    ASSERT_GE(power.size(), 3u);
    double floor = 2 * p.peStallWatts + p.uncoreWatts;
    double ceil = 2 * p.peActiveWatts + p.uncoreWatts;
    double peak = 0.0;
    for (const auto &pt : power.samples()) {
        EXPECT_GE(pt.value, floor - 1e-9);
        EXPECT_LE(pt.value, ceil + 1e-9);
        peak = std::max(peak, pt.value);
    }
    // A compute-bound agent drives the sample above the stall floor.
    EXPECT_GT(peak, floor + 0.2);
}

TEST(AccountingTest, CoreEnergySplitsByResidency)
{
    setQuiet(true);
    EventQueue eq;
    accel::AcceleratorConfig acfg;
    acfg.numPes = 2;
    accel::Accelerator accel(eq, acfg, "a");
    // No run at all: the lone agent sleeps from 0 to 1 ms.
    EnergyParams p;
    EnergyBreakdown e =
        systems::accelCoreEnergy(accel, 0, fromMs(1), 1, p);
    double expected = wattsOver(p.peSleepWatts, fromMs(1)) +
                      wattsOver(p.uncoreWatts, fromMs(1));
    EXPECT_NEAR(e.accelCores, expected, expected * 0.01);
}

} // namespace
} // namespace energy
} // namespace dramless

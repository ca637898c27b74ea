/**
 * @file
 * Tests of the accelerator's kernel offload and execution model
 * (Figure 9b): image download, PSC-staggered agent boot, completion,
 * IPC sampling, selective-erase hinting and trace events.
 */

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "accel/accelerator.hh"
#include "fake_backend.hh"
#include "sim/trace.hh"

namespace dramless
{
namespace accel
{
namespace
{

class AcceleratorTest : public ::testing::Test
{
  protected:
    AcceleratorTest() : backend(eq, fromNs(200), fromUs(10)) {}

    Accelerator &
    make(std::uint32_t num_pes = 8)
    {
        AcceleratorConfig cfg;
        cfg.numPes = num_pes;
        accel = std::make_unique<Accelerator>(eq, cfg, "accel");
        accel->attachBackend(&backend);
        return *accel;
    }

    /** Build a simple compute+load trace. */
    std::unique_ptr<VectorTrace>
    simpleTrace(std::uint64_t base)
    {
        std::vector<TraceItem> items;
        for (int i = 0; i < 8; ++i) {
            items.push_back(TraceItem::computeOf(1000));
            items.push_back(
                TraceItem::loadOf(base + std::uint64_t(i) * 512, 32));
        }
        return std::make_unique<VectorTrace>(std::move(items));
    }

    EventQueue eq;
    FakeBackend backend;
    std::unique_ptr<Accelerator> accel;
};

TEST_F(AcceleratorTest, SingleAgentLaunchCompletes)
{
    Accelerator &a = make();
    auto trace = simpleTrace(1 << 20);
    KernelLaunch launch;
    launch.agentTraces = {trace.get()};
    Tick completed = 0;
    a.launch(launch, [&](Tick when) { completed = when; });
    eq.run();
    EXPECT_GT(completed, 0u);
    EXPECT_FALSE(a.busy());
    EXPECT_TRUE(a.agent(0).finished());
    EXPECT_EQ(a.metrics().completedAt, completed);
    EXPECT_EQ(a.metrics().totalInstructions, 8000u);
}

TEST_F(AcceleratorTest, ImageDownloadPrecedesAgentBoot)
{
    Accelerator &a = make();
    auto trace = simpleTrace(1 << 20);
    KernelLaunch launch;
    launch.agentTraces = {trace.get()};
    launch.imageBytes = 4096;
    a.launch(launch, [](Tick) {});
    eq.run();
    const LaunchMetrics &m = a.metrics();
    EXPECT_GE(m.imageDownloadedAt, m.interruptAt);
    EXPECT_GT(m.firstAgentStartAt, m.imageDownloadedAt);
    // 4096/512 = 8 image chunk writes reached the backend.
    EXPECT_GE(backend.writes, 8u);
}

TEST_F(AcceleratorTest, ResidentImageSkipsDownload)
{
    Accelerator &a = make();
    auto trace = simpleTrace(1 << 20);
    KernelLaunch launch;
    launch.agentTraces = {trace.get()};
    launch.imageResident = true;
    a.launch(launch, [](Tick) {});
    eq.run();
    EXPECT_EQ(a.metrics().imageDownloadedAt, a.metrics().interruptAt);
}

TEST_F(AcceleratorTest, AgentsBootStaggeredByPsc)
{
    Accelerator &a = make();
    std::vector<std::unique_ptr<VectorTrace>> traces;
    KernelLaunch launch;
    for (int i = 0; i < 4; ++i) {
        traces.push_back(simpleTrace((1 + i) << 20));
        launch.agentTraces.push_back(traces.back().get());
    }
    launch.imageResident = true;
    Tick completed = 0;
    a.launch(launch, [&](Tick when) { completed = when; });
    eq.run();
    EXPECT_GT(completed, 0u);
    for (int i = 0; i < 4; ++i)
        EXPECT_TRUE(a.agent(std::uint32_t(i)).finished());
    // Unused agents never ran.
    EXPECT_FALSE(a.agent(4).finished());
    // The PSC saw every scheduled agent go active.
    for (std::uint32_t i = 1; i <= 4; ++i)
        EXPECT_GT(a.psc().residency(i, PowerState::active, completed),
                  0u);
}

TEST_F(AcceleratorTest, TracesAgentBootsAndTheLaunch)
{
    trace::Tracer tracer;
    trace::ScopedTracer scope(&tracer);
    Accelerator &a = make();
    auto t1 = simpleTrace(1 << 20);
    auto t2 = simpleTrace(2 << 20);
    KernelLaunch launch;
    launch.agentTraces = {t1.get(), t2.get()};
    a.launch(launch, [](Tick) {});
    eq.run();
    std::vector<trace::Event> boots;
    std::vector<trace::Event> launches;
    for (const trace::Event &e : tracer.events()) {
        if (e.track != a.name())
            continue;
        EXPECT_EQ(std::string(e.category), trace::catAccel);
        EXPECT_EQ(e.ph, trace::Event::Ph::complete);
        if (std::string(e.name) == "agent.boot")
            boots.push_back(e);
        else if (std::string(e.name) == "launch")
            launches.push_back(e);
    }
    ASSERT_EQ(boots.size(), 2u);
    // PSC suspend, boot-address store and resume, one agent at a time.
    const AcceleratorConfig &cfg = a.config();
    const Tick boot = cfg.agentSleepLatency +
                      cfg.bootAddressStoreLatency +
                      cfg.agentWakeLatency;
    EXPECT_EQ(boots[0].end - boots[0].start, boot);
    EXPECT_EQ(boots[1].start, boots[0].end);
    ASSERT_EQ(launches.size(), 1u);
    EXPECT_EQ(launches[0].start, a.metrics().interruptAt);
    EXPECT_EQ(launches[0].end, a.metrics().completedAt);
}

TEST_F(AcceleratorTest, OutputRegionHintsReachBackend)
{
    Accelerator &a = make();
    auto trace = simpleTrace(1 << 20);
    KernelLaunch launch;
    launch.agentTraces = {trace.get()};
    launch.outputRegions = {{0x100000, 65536}, {0x200000, 4096}};
    a.launch(launch, [](Tick) {});
    eq.run();
    ASSERT_EQ(backend.hints.size(), 2u);
    EXPECT_EQ(backend.hints[0].first, 0x100000u);
    EXPECT_EQ(backend.hints[1].second, 4096u);
}

TEST_F(AcceleratorTest, IpcSeriesIsRecorded)
{
    Accelerator &a = make();
    // A long compute gives several sample intervals.
    std::vector<TraceItem> items;
    for (int i = 0; i < 100; ++i)
        items.push_back(TraceItem::computeOf(100000));
    VectorTrace trace(std::move(items));
    KernelLaunch launch;
    launch.agentTraces = {&trace};
    launch.imageResident = true;
    a.launch(launch, [](Tick) {});
    eq.run();
    EXPECT_GE(a.ipcSeries().size(), 2u);
    // Sustained compute at 4 ops/cycle from one agent.
    EXPECT_NEAR(a.ipcSeries().samples().back().value, 0.0, 4.1);
    double peak = 0;
    for (const auto &p : a.ipcSeries().samples())
        peak = std::max(peak, p.value);
    EXPECT_GT(peak, 3.0);
}

TEST_F(AcceleratorTest, LaunchWhileBusyDies)
{
    Accelerator &a = make();
    auto trace = simpleTrace(1 << 20);
    KernelLaunch launch;
    launch.agentTraces = {trace.get()};
    a.launch(launch, [](Tick) {});
    EXPECT_DEATH(a.launch(launch, [](Tick) {}), "busy");
    eq.run();
}

TEST_F(AcceleratorTest, TooManyTracesDies)
{
    Accelerator &a = make(3); // server + 2 agents
    auto t1 = simpleTrace(1 << 20);
    auto t2 = simpleTrace(2 << 20);
    auto t3 = simpleTrace(3 << 20);
    KernelLaunch launch;
    launch.agentTraces = {t1.get(), t2.get(), t3.get()};
    EXPECT_DEATH(a.launch(launch, [](Tick) {}),
                 "more traces than agents");
}

} // namespace
} // namespace accel
} // namespace dramless

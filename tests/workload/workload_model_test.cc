/**
 * @file
 * Tests of the WorkloadModel abstraction: the PolybenchModel adapter
 * must be a faithful drop-in for direct PolybenchTraceSource use, the
 * Polybench descriptor helpers must stay total over their enums, and
 * AgentTraceSource's staging buffer must hand out exactly what its
 * producer's refills stage.
 */

#include <gtest/gtest.h>

#include <cstddef>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "workload/trace_gen.hh"
#include "workload/workload_model.hh"

namespace dramless
{
namespace workload
{
namespace
{

std::vector<accel::TraceItem>
drain(accel::TraceSource &src)
{
    std::vector<accel::TraceItem> items;
    accel::TraceItem it;
    while (src.next(it))
        items.push_back(it);
    return items;
}

/**
 * Stages scripted batches: the i-th refill stages batches[i] compute
 * items numbered 1, 2, ... across the stream, and every refill after
 * the last batch stages nothing.
 */
class BatchSource : public AgentTraceSource
{
  public:
    explicit BatchSource(std::vector<std::size_t> batches)
        : batches_(std::move(batches))
    {}

    void
    rewind() override
    {
        batch_ = 0;
        serial_ = 0;
        dropStaged();
    }

    std::pair<std::uint64_t, std::uint64_t>
    outputRegion() const override
    {
        return {0, 0};
    }

    std::size_t refills = 0;

  private:
    void
    refill() override
    {
        ++refills;
        EXPECT_EQ(staged(), 0u);
        if (batch_ == batches_.size())
            return;
        for (std::size_t i = 0; i < batches_[batch_]; ++i)
            stage(accel::TraceItem::computeOf(++serial_));
        ++batch_;
    }

    std::vector<std::size_t> batches_;
    std::size_t batch_ = 0;
    std::uint64_t serial_ = 0;
};

void
expectSerials(const std::vector<accel::TraceItem> &items,
              std::uint64_t count)
{
    ASSERT_EQ(items.size(), count);
    for (std::uint64_t i = 0; i < count; ++i)
        EXPECT_EQ(items[i].instructions, i + 1);
}

TEST(AgentTraceSourceTest, YieldsEveryStagedItemInOrder)
{
    // The 100-item batch outgrows the buffer's initial capacity.
    BatchSource src({1, 100, 3});
    expectSerials(drain(src), 104);
    // The fourth refill staged nothing and ended the trace.
    EXPECT_EQ(src.refills, 4u);
    accel::TraceItem it;
    EXPECT_FALSE(src.next(it));
    EXPECT_FALSE(src.next(it));
}

TEST(AgentTraceSourceTest, EmptyFirstRefillIsAnEmptyTrace)
{
    BatchSource src({});
    accel::TraceItem it;
    EXPECT_FALSE(src.next(it));
    EXPECT_EQ(src.refills, 1u);
}

TEST(AgentTraceSourceTest, RewindMidBatchRestartsTheStream)
{
    BatchSource src({1, 100, 3});
    accel::TraceItem it;
    for (int i = 0; i < 11; ++i)
        ASSERT_TRUE(src.next(it));
    EXPECT_EQ(it.instructions, 11u);
    src.rewind();
    expectSerials(drain(src), 104);
}

TEST(WorkloadModelTest, ModelForAdaptsTheSpec)
{
    const WorkloadSpec &spec = Polybench::byName("gemver");
    auto model = modelFor(spec);
    EXPECT_EQ(model->spec().name, spec.name);
    EXPECT_EQ(model->spec().inputBytes, spec.inputBytes);
    EXPECT_EQ(model->spec().outputBytes, spec.outputBytes);
}

TEST(WorkloadModelTest, ModelTraceMatchesDirectGenerator)
{
    const WorkloadSpec &spec = Polybench::byName("gemver");
    auto model = modelFor(spec);

    AgentTraceParams p;
    p.inputBase = 0x1000;
    p.agentIndex = 1;
    p.numAgents = 3;
    p.seed = 7;
    auto via_model = model->makeAgentTrace(p);

    TraceGenConfig tc;
    tc.spec = spec;
    tc.inputBase = p.inputBase;
    tc.agentIndex = p.agentIndex;
    tc.numAgents = p.numAgents;
    tc.seed = p.seed;
    PolybenchTraceSource direct(tc);

    auto a = drain(*via_model);
    auto b = drain(direct);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].kind, b[i].kind) << i;
        EXPECT_EQ(a[i].addr, b[i].addr) << i;
        EXPECT_EQ(a[i].size, b[i].size) << i;
        EXPECT_EQ(a[i].instructions, b[i].instructions) << i;
    }
    // And the AgentTraceSource surface works through the interface.
    via_model->rewind();
    EXPECT_EQ(drain(*via_model).size(), a.size());
    auto [out_base, out_size] = via_model->outputRegion();
    EXPECT_GT(out_size, 0u);
    EXPECT_GE(out_base, p.inputBase + spec.inputBytes);
}

TEST(WorkloadModelTest, ScaledAndDefaultChunkedScaleVolumes)
{
    auto model = modelFor(Polybench::byName("doitg"));
    auto half = model->scaled(0.5);
    EXPECT_EQ(half->spec().name, model->spec().name);
    EXPECT_LT(half->spec().inputBytes, model->spec().inputBytes);
    // Regular kernels chunk by plain volume division.
    auto chunk = model->chunked(4);
    EXPECT_EQ(chunk->spec().inputBytes,
              model->scaled(0.25)->spec().inputBytes);
}

TEST(PolybenchTablesTest, AllScaledScalesEveryKernel)
{
    auto scaled = Polybench::allScaled(0.5);
    const auto &full = Polybench::all();
    ASSERT_EQ(scaled.size(), full.size());
    for (std::size_t i = 0; i < full.size(); ++i) {
        EXPECT_EQ(scaled[i].name, full[i].name);
        EXPECT_LE(scaled[i].inputBytes, full[i].inputBytes);
    }
}

TEST(PolybenchTablesTest, EnumLabelsAreTotalAndDistinct)
{
    std::set<std::string> patterns;
    for (Pattern p :
         {Pattern::streaming, Pattern::strided, Pattern::stencil,
          Pattern::randomAccess, Pattern::triangular}) {
        std::string s = Polybench::patternName(p);
        EXPECT_NE(s, "?");
        patterns.insert(s);
    }
    EXPECT_EQ(patterns.size(), 5u);

    std::set<std::string> classes;
    for (WorkloadClass c :
         {WorkloadClass::readIntensive, WorkloadClass::writeIntensive,
          WorkloadClass::computeIntensive,
          WorkloadClass::memoryIntensive, WorkloadClass::balanced}) {
        std::string s = Polybench::className(c);
        EXPECT_NE(s, "?");
        classes.insert(s);
    }
    EXPECT_EQ(classes.size(), 5u);
}

} // namespace
} // namespace workload
} // namespace dramless

/**
 * @file
 * Unit tests of the Polybench workload descriptors and the trace
 * generator.
 */

#include <gtest/gtest.h>

#include <map>
#include <set>

#include "workload/polybench.hh"
#include "workload/trace_gen.hh"

namespace dramless
{
namespace workload
{
namespace
{

TEST(PolybenchTest, FifteenKernelsInFigureOrder)
{
    const auto &all = Polybench::all();
    ASSERT_EQ(all.size(), 15u);
    EXPECT_EQ(all.front().name, "adi");
    EXPECT_EQ(all.back().name, "trmm");
}

TEST(PolybenchTest, ClassificationsMatchPaper)
{
    // Section VI-A: read-intensive workloads.
    for (const char *name : {"durbin", "dynpro", "gemver", "trisolv"})
        EXPECT_EQ(Polybench::byName(name).klass,
                  WorkloadClass::readIntensive)
            << name;
    // Section VI-B: write-intensive workloads.
    for (const char *name : {"chol", "doitg", "lu", "seidel"}) {
        auto k = Polybench::byName(name).klass;
        EXPECT_TRUE(k == WorkloadClass::writeIntensive ||
                    k == WorkloadClass::computeIntensive)
            << name;
    }
}

TEST(PolybenchTest, WriteRatiosOrderSensibly)
{
    // doitg is the most write-intensive; durbin/trisolv the least.
    double doitg = Polybench::byName("doitg").writeRatio();
    for (const auto &spec : Polybench::all())
        EXPECT_LE(spec.writeRatio(), doitg + 1e-9) << spec.name;
    EXPECT_LT(Polybench::byName("durbin").writeRatio(), 0.1);
    EXPECT_LT(Polybench::byName("trisolv").writeRatio(), 0.1);
    EXPECT_GT(doitg, 0.4);
}

TEST(PolybenchTest, MemoryIntensiveKernelsCarryMostData)
{
    std::uint64_t max_other = 0;
    for (const auto &s : Polybench::all()) {
        if (s.klass != WorkloadClass::memoryIntensive)
            max_other = std::max(max_other, s.inputBytes);
    }
    for (const char *name : {"jaco1D", "jaco2D", "regd"})
        EXPECT_GE(Polybench::byName(name).inputBytes, max_other)
            << name;
}

TEST(PolybenchTest, ComputeIntensiveKernelsHaveHighOpsPerByte)
{
    for (const auto &s : Polybench::all()) {
        if (s.klass == WorkloadClass::computeIntensive) {
            EXPECT_GE(s.opsPerByte, 8.0) << s.name;
        }
        if (s.klass == WorkloadClass::readIntensive ||
            s.klass == WorkloadClass::memoryIntensive) {
            EXPECT_LE(s.opsPerByte, 4.0) << s.name;
        }
    }
}

TEST(PolybenchTest, ScalingKeepsAlignmentAndRatio)
{
    WorkloadSpec s = Polybench::byName("gemver");
    WorkloadSpec half = s.scaled(0.5);
    EXPECT_EQ(half.inputBytes % 32, 0u);
    EXPECT_EQ(half.outputBytes % 32, 0u);
    EXPECT_NEAR(half.writeRatio(), s.writeRatio(), 0.02);
    EXPECT_NEAR(double(half.inputBytes), double(s.inputBytes) / 2,
                64.0);
}

TEST(PolybenchDeathTest, UnknownNameAndBadScale)
{
    EXPECT_DEATH(Polybench::byName("nosuch"), "unknown");
    EXPECT_DEATH(Polybench::byName("gemver").scaled(0.0),
                 "positive");
}

// --------------------------- trace gen ----------------------------

/** Drain a trace and collect aggregate counts. */
struct TraceSummary
{
    std::uint64_t loadBytes = 0;
    std::uint64_t storeBytes = 0;
    std::uint64_t instructions = 0;
    std::set<std::uint64_t> loadAddrs;
    std::set<std::uint64_t> storeAddrs;
    std::uint64_t items = 0;
};

TraceSummary
drain(PolybenchTraceSource &src)
{
    TraceSummary s;
    accel::TraceItem it;
    while (src.next(it)) {
        ++s.items;
        switch (it.kind) {
          case accel::TraceItem::Kind::compute:
            s.instructions += it.instructions;
            break;
          case accel::TraceItem::Kind::load:
            s.loadBytes += it.size;
            s.loadAddrs.insert(it.addr);
            break;
          case accel::TraceItem::Kind::store:
            s.storeBytes += it.size;
            s.storeAddrs.insert(it.addr);
            break;
        }
    }
    return s;
}

TraceGenConfig
config(const char *name, double scale, std::uint32_t agent = 0,
       std::uint32_t agents = 1)
{
    TraceGenConfig tc;
    tc.spec = Polybench::byName(name).scaled(scale);
    tc.agentIndex = agent;
    tc.numAgents = agents;
    return tc;
}

TEST(TraceGenTest, StoreToLoadRatioMatchesSpec)
{
    for (const char *name : {"gemver", "doitg", "jaco1D", "adi"}) {
        TraceGenConfig tc = config(name, 0.05);
        PolybenchTraceSource src(tc);
        TraceSummary s = drain(src);
        EXPECT_EQ(s.loadBytes >= src.loadBytes(), true);
        double ratio = double(s.storeBytes) / double(s.loadBytes);
        double spec_ratio = double(tc.spec.outputBytes) /
                            double(tc.spec.inputBytes);
        // Stencils emit extra neighbour loads, lowering the ratio.
        if (tc.spec.pattern != Pattern::stencil) {
            EXPECT_NEAR(ratio, spec_ratio, 0.15 * spec_ratio + 0.02)
                << name;
        }
        EXPECT_GE(s.storeBytes, src.storeBytes()) << name;
    }
}

TEST(TraceGenTest, ComputeScalesWithOpsPerByte)
{
    TraceGenConfig lo = config("durbin", 0.05); // 2 ops/B
    TraceGenConfig hi = config("fdtdap", 0.05); // 11 ops/B
    PolybenchTraceSource src_lo(lo), src_hi(hi);
    TraceSummary a = drain(src_lo), b = drain(src_hi);
    double ia = double(a.instructions) / double(a.loadBytes);
    double ib = double(b.instructions) / double(b.loadBytes);
    EXPECT_NEAR(ia, 2.0, 0.3);
    EXPECT_NEAR(ib, 11.0, 1.5);
}

TEST(TraceGenTest, StreamingCoversWholeSlice)
{
    TraceGenConfig tc = config("trisolv", 0.05);
    PolybenchTraceSource src(tc);
    TraceSummary s = drain(src);
    // Every 32-byte input word is touched exactly once.
    EXPECT_EQ(s.loadAddrs.size(), src.loadBytes() / 32);
}

TEST(TraceGenTest, AgentsPartitionTheInput)
{
    constexpr std::uint32_t agents = 4;
    std::set<std::uint64_t> all_addrs;
    std::uint64_t total = 0;
    for (std::uint32_t a = 0; a < agents; ++a) {
        TraceGenConfig tc = config("trisolv", 0.05, a, agents);
        PolybenchTraceSource src(tc);
        TraceSummary s = drain(src);
        for (auto addr : s.loadAddrs) {
            EXPECT_TRUE(all_addrs.insert(addr).second)
                << "overlap at " << addr;
        }
        total += s.loadBytes;
    }
    EXPECT_NEAR(double(total),
                double(Polybench::byName("trisolv")
                           .scaled(0.05)
                           .inputBytes),
                4.0 * 32 * agents);
}

TEST(TraceGenTest, StridedWalksJumpRows)
{
    TraceGenConfig tc = config("trmm", 0.2);
    PolybenchTraceSource src(tc);
    accel::TraceItem a, b;
    // First two loads sit one row apart (column-major).
    while (src.next(a) && a.kind != accel::TraceItem::Kind::load) {
    }
    while (src.next(b) && b.kind != accel::TraceItem::Kind::load) {
    }
    EXPECT_EQ(b.addr - a.addr, tc.rowBytes);
}

TEST(TraceGenTest, StencilEmitsNeighbourRows)
{
    TraceGenConfig tc = config("jaco2D", 0.05);
    PolybenchTraceSource src(tc);
    TraceSummary s = drain(src);
    // 3 loads per 2 elements on average => load bytes ~2x slice.
    EXPECT_GT(s.loadBytes, src.loadBytes() * 3 / 2);
}

TEST(TraceGenTest, OutputRegionSeparateFromInput)
{
    TraceGenConfig tc = config("doitg", 0.05);
    PolybenchTraceSource src(tc);
    auto [out_base, out_size] = src.outputRegion();
    EXPECT_GE(out_base, tc.spec.inputBytes);
    TraceSummary s = drain(src);
    for (auto addr : s.storeAddrs) {
        EXPECT_GE(addr, out_base);
        EXPECT_LT(addr, out_base + out_size);
    }
    for (auto addr : s.loadAddrs)
        EXPECT_LT(addr, tc.spec.inputBytes);
}

TEST(TraceGenTest, RewindReproducesTheTrace)
{
    TraceGenConfig tc = config("dynpro", 0.02);
    PolybenchTraceSource src(tc);
    TraceSummary a = drain(src);
    src.rewind();
    TraceSummary b = drain(src);
    EXPECT_EQ(a.items, b.items);
    EXPECT_EQ(a.loadAddrs, b.loadAddrs);
    EXPECT_EQ(a.instructions, b.instructions);
}

TEST(TraceGenTest, DeterministicAcrossInstances)
{
    TraceGenConfig tc = config("floyd", 0.02);
    PolybenchTraceSource s1(tc), s2(tc);
    TraceSummary a = drain(s1), b = drain(s2);
    EXPECT_EQ(a.loadAddrs, b.loadAddrs);
    EXPECT_EQ(a.storeAddrs, b.storeAddrs);
}

TEST(TraceGenTest, RemainderUnitsSpreadAcrossAgents)
{
    // 13 input units and 5 output units over 4 agents: every whole
    // 32 B unit is owned by exactly one agent and none is dropped.
    // (The old flooring slice math left up to numAgents-1 tail units
    // of each region unread and unwritten.)
    WorkloadSpec s;
    s.name = "slice13";
    s.pattern = Pattern::streaming;
    s.klass = WorkloadClass::memoryIntensive;
    s.inputBytes = 13 * 32;
    s.outputBytes = 5 * 32;
    s.opsPerByte = 1.0;

    constexpr std::uint32_t agents = 4;
    std::set<std::uint64_t> in_addrs, out_addrs;
    std::uint64_t in_total = 0, out_total = 0;
    for (std::uint32_t a = 0; a < agents; ++a) {
        TraceGenConfig tc;
        tc.spec = s;
        tc.agentIndex = a;
        tc.numAgents = agents;
        PolybenchTraceSource src(tc);
        in_total += src.loadBytes();
        out_total += src.storeBytes();
        TraceSummary sum = drain(src);
        for (auto addr : sum.loadAddrs) {
            EXPECT_TRUE(in_addrs.insert(addr).second)
                << "input overlap at " << addr;
        }
        for (auto addr : sum.storeAddrs) {
            EXPECT_TRUE(out_addrs.insert(addr).second)
                << "output overlap at " << addr;
        }
    }
    EXPECT_EQ(in_total, s.inputBytes);
    EXPECT_EQ(out_total, s.outputBytes);
    EXPECT_EQ(in_addrs.size(), 13u);
    EXPECT_EQ(out_addrs.size(), 5u);
}

TEST(TraceGenTest, DegenerateVolumeAliasesLastUnit)
{
    // Fewer units than agents: every agent still gets (the same)
    // one unit of work rather than an empty trace.
    WorkloadSpec s;
    s.name = "tiny";
    s.pattern = Pattern::streaming;
    s.klass = WorkloadClass::memoryIntensive;
    s.inputBytes = 2 * 32;
    s.outputBytes = 32;
    s.opsPerByte = 1.0;
    for (std::uint32_t a = 0; a < 4; ++a) {
        TraceGenConfig tc;
        tc.spec = s;
        tc.agentIndex = a;
        tc.numAgents = 4;
        PolybenchTraceSource src(tc);
        EXPECT_EQ(src.loadBytes(), 32u) << "agent " << a;
        EXPECT_EQ(src.storeBytes(), 32u) << "agent " << a;
        TraceSummary sum = drain(src);
        EXPECT_GT(sum.items, 0u) << "agent " << a;
    }
}

TEST(TraceGenDeathTest, RejectsBadSlices)
{
    TraceGenConfig tc = config("gemver", 0.05);
    tc.agentIndex = 3;
    tc.numAgents = 2;
    EXPECT_DEATH(PolybenchTraceSource src(tc), "bad agent slice");
}

} // namespace
} // namespace workload
} // namespace dramless

/**
 * @file
 * Unit and differential tests of the burst coalescer.
 *
 * The differential oracle pins the coalescer's correctness contract:
 * for the Polybench generator and all three graph kernels, the
 * coalesced stream covers exactly the same byte set as the wrapped
 * stream with identical per-kind word and instruction totals. The
 * rewind tests pin that a partially consumed source restarts from a
 * clean slate (staging buffer dropped, RNG reseeded).
 */

#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <vector>

#include "workload/coalesce.hh"
#include "workload/graph.hh"
#include "workload/trace_gen.hh"

namespace dramless
{
namespace workload
{
namespace
{

using accel::TraceItem;

/** Scripted source: replays a fixed item vector. */
class ScriptedSource : public AgentTraceSource
{
  public:
    explicit ScriptedSource(std::vector<TraceItem> items)
        : items_(std::move(items))
    {}

    void
    rewind() override
    {
        pos_ = 0;
        dropStaged();
    }

    std::pair<std::uint64_t, std::uint64_t>
    outputRegion() const override
    {
        return {0, 0};
    }

  private:
    void
    refill() override
    {
        while (staged() < kRefillBatch && pos_ < items_.size())
            stage(items_[pos_++]);
    }

    std::vector<TraceItem> items_;
    std::size_t pos_ = 0;
};

/** Per-kind word totals and byte coverage of a trace. */
struct WordSummary
{
    std::uint64_t loadWords = 0, storeWords = 0, instructions = 0;
    std::uint64_t items = 0;
    std::set<std::uint64_t> loadAddrs, storeAddrs;
};

WordSummary
drainWords(accel::TraceSource &src)
{
    WordSummary s;
    TraceItem it;
    while (src.next(it)) {
        ++s.items;
        if (it.kind == TraceItem::Kind::compute) {
            s.instructions += it.instructions;
            continue;
        }
        bool load = it.kind == TraceItem::Kind::load;
        (load ? s.loadWords : s.storeWords) += it.burst;
        for (std::uint32_t w = 0; w < it.burst; ++w) {
            (load ? s.loadAddrs : s.storeAddrs)
                .insert(it.addr + std::uint64_t(w) * it.size);
        }
    }
    return s;
}

std::vector<TraceItem>
drainItems(accel::TraceSource &src)
{
    std::vector<TraceItem> v;
    TraceItem it;
    while (src.next(it))
        v.push_back(it);
    return v;
}

/** @return the items of @p v of kind @p kind. */
std::uint64_t
countKind(const std::vector<TraceItem> &v, TraceItem::Kind kind)
{
    std::uint64_t n = 0;
    for (const auto &it : v)
        n += it.kind == kind;
    return n;
}

bool
sameItems(const std::vector<TraceItem> &a,
          const std::vector<TraceItem> &b)
{
    if (a.size() != b.size())
        return false;
    for (std::size_t i = 0; i < a.size(); ++i) {
        if (a[i].kind != b[i].kind || a[i].addr != b[i].addr ||
            a[i].size != b[i].size || a[i].burst != b[i].burst ||
            a[i].instructions != b[i].instructions) {
            return false;
        }
    }
    return true;
}

// ------------------------------ unit -------------------------------

TEST(CoalesceTest, ContiguousRunMergesToOneBurst)
{
    std::vector<TraceItem> in;
    for (std::uint64_t i = 0; i < 8; ++i)
        in.push_back(TraceItem::loadOf(i * 32, 32));
    CoalescingTraceSource c(
        std::make_unique<ScriptedSource>(in), 512);
    auto out = drainItems(c);
    ASSERT_EQ(out.size(), 1u);
    EXPECT_EQ(out[0].kind, TraceItem::Kind::load);
    EXPECT_EQ(out[0].addr, 0u);
    EXPECT_EQ(out[0].size, 32u);
    EXPECT_EQ(out[0].burst, 8u);
    EXPECT_EQ(out[0].bytes(), 256u);
    EXPECT_EQ(countKind(out, TraceItem::Kind::load), 1u);
}

TEST(CoalesceTest, RunsNeverCrossAlignedBoundary)
{
    // 32 words spanning [448, 1472): the 512-aligned windows split
    // the run at 512 and 1024 even though the words are contiguous.
    std::vector<TraceItem> in;
    for (std::uint64_t i = 0; i < 32; ++i)
        in.push_back(TraceItem::loadOf(448 + i * 32, 32));
    CoalescingTraceSource c(
        std::make_unique<ScriptedSource>(in), 512);
    auto out = drainItems(c);
    ASSERT_EQ(out.size(), 3u);
    for (const auto &it : out) {
        EXPECT_LE(it.bytes(), 512u);
        EXPECT_EQ(it.addr / 512,
                  (it.addr + it.bytes() - 1) / 512);
    }
    EXPECT_EQ(out[0].addr, 448u);
    EXPECT_EQ(out[0].burst, 2u);
    EXPECT_EQ(out[1].addr, 512u);
    EXPECT_EQ(out[1].burst, 16u);
    EXPECT_EQ(out[2].addr, 1024u);
    EXPECT_EQ(out[2].burst, 14u);
}

TEST(CoalesceTest, WideWordRunsNeverCrossAlignedBoundary)
{
    // 96 B words from 0 against 512 B windows: a word that would end
    // past its run's window opens a new run, so a multi-word burst
    // stays inside one window. A single word may still straddle one.
    std::vector<TraceItem> in;
    for (std::uint64_t i = 0; i < 16; ++i)
        in.push_back(TraceItem::loadOf(i * 96, 96));
    CoalescingTraceSource c(
        std::make_unique<ScriptedSource>(in), 512);
    auto out = drainItems(c);
    const std::vector<std::pair<std::uint64_t, std::uint32_t>>
        expected = {{0, 5}, {480, 1}, {576, 4}, {960, 1}, {1056, 5}};
    ASSERT_EQ(out.size(), expected.size());
    for (std::size_t i = 0; i < out.size(); ++i) {
        SCOPED_TRACE(i);
        EXPECT_EQ(out[i].addr, expected[i].first);
        EXPECT_EQ(out[i].burst, expected[i].second);
        EXPECT_EQ(out[i].size, 96u);
        if (out[i].burst > 1) {
            EXPECT_EQ(out[i].addr / 512,
                      (out[i].addr + out[i].bytes() - 1) / 512);
        }
    }
}

TEST(CoalesceTest, InterleavedStreamsEachCoalesce)
{
    // A load stream and a store stream interleaved word by word:
    // separate ways keep both runs open.
    std::vector<TraceItem> in;
    for (std::uint64_t i = 0; i < 8; ++i) {
        in.push_back(TraceItem::loadOf(i * 32, 32));
        in.push_back(TraceItem::storeOf(4096 + i * 32, 32));
    }
    CoalescingTraceSource c(
        std::make_unique<ScriptedSource>(in), 512);
    auto out = drainItems(c);
    ASSERT_EQ(out.size(), 2u);
    EXPECT_EQ(out[0].burst, 8u);
    EXPECT_EQ(out[1].burst, 8u);
    EXPECT_NE(out[0].kind, out[1].kind);
}

TEST(CoalesceTest, ComputeAccumulatesAndIssuesAheadOfItsRun)
{
    std::vector<TraceItem> in;
    in.push_back(TraceItem::computeOf(3));
    in.push_back(TraceItem::computeOf(4));
    in.push_back(TraceItem::loadOf(0, 32));
    in.push_back(TraceItem::loadOf(32, 32));
    CoalescingTraceSource c(
        std::make_unique<ScriptedSource>(in), 512);
    auto out = drainItems(c);
    ASSERT_EQ(out.size(), 2u);
    EXPECT_EQ(out[0].kind, TraceItem::Kind::compute);
    EXPECT_EQ(out[0].instructions, 7u);
    EXPECT_EQ(out[1].kind, TraceItem::Kind::load);
    EXPECT_EQ(out[1].burst, 2u);
    EXPECT_EQ(countKind(in, TraceItem::Kind::compute), 2u);
    EXPECT_EQ(countKind(out, TraceItem::Kind::compute), 1u);
}

TEST(CoalesceTest, OversizedItemsPassThroughInOrder)
{
    std::vector<TraceItem> in;
    in.push_back(TraceItem::loadOf(0, 32));
    in.push_back(TraceItem::loadOf(8192, 1024)); // >= maxBurst
    in.push_back(TraceItem::loadOf(32, 32));
    CoalescingTraceSource c(
        std::make_unique<ScriptedSource>(in), 512);
    auto out = drainItems(c);
    ASSERT_EQ(out.size(), 3u);
    // The open run flushes before the oversized item to preserve
    // stream order.
    EXPECT_EQ(out[0].addr, 0u);
    EXPECT_EQ(out[1].addr, 8192u);
    EXPECT_EQ(out[1].size, 1024u);
    EXPECT_EQ(out[2].addr, 32u);
}

TEST(CoalesceTest, OverlappingWordFlushesTheOpenRun)
{
    // The second load of word 0 cannot merge behind the open run
    // that already contains it; the run must flush first.
    std::vector<TraceItem> in;
    in.push_back(TraceItem::loadOf(0, 32));
    in.push_back(TraceItem::loadOf(32, 32));
    in.push_back(TraceItem::loadOf(0, 32));
    CoalescingTraceSource c(
        std::make_unique<ScriptedSource>(in), 512);
    auto out = drainItems(c);
    ASSERT_EQ(out.size(), 2u);
    EXPECT_EQ(out[0].addr, 0u);
    EXPECT_EQ(out[0].burst, 2u);
    EXPECT_EQ(out[1].addr, 0u);
    EXPECT_EQ(out[1].burst, 1u);
}

TEST(CoalesceTest, LruRunEvictsWhenWaysExhaust)
{
    // One more disjoint single-word stream than there are ways: the
    // oldest run is evicted (flushed) to make room.
    constexpr std::uint64_t streams = CoalescingTraceSource::kWays + 1;
    std::vector<TraceItem> in;
    for (std::uint64_t s = 0; s < streams; ++s)
        in.push_back(TraceItem::loadOf(s * 4096, 32));
    CoalescingTraceSource c(std::make_unique<ScriptedSource>(in), 512);
    auto out = drainItems(c);
    ASSERT_EQ(out.size(), streams);
    // The evicted (oldest) run emerges first.
    EXPECT_EQ(out[0].addr, 0u);
    std::uint64_t words = 0;
    for (const auto &it : out)
        words += it.burst;
    EXPECT_EQ(words, streams);
}

TEST(CoalesceTest, WrapCoalescingDisablesAtWordGranularity)
{
    auto inner = std::make_unique<ScriptedSource>(
        std::vector<TraceItem>{});
    auto wrapped = wrapCoalescing(std::move(inner), 32);
    EXPECT_EQ(dynamic_cast<CoalescingTraceSource *>(wrapped.get()),
              nullptr);
    auto inner2 = std::make_unique<ScriptedSource>(
        std::vector<TraceItem>{});
    auto wrapped2 = wrapCoalescing(std::move(inner2), 512);
    EXPECT_NE(dynamic_cast<CoalescingTraceSource *>(wrapped2.get()),
              nullptr);
}

// --------------------------- differential --------------------------

TraceGenConfig
genConfig(const char *kernel, double scale = 0.002)
{
    TraceGenConfig cfg;
    cfg.spec = Polybench::byName(kernel).scaled(scale);
    cfg.seed = 11;
    return cfg;
}

void
expectEquivalentStreams(AgentTraceSource &plain,
                        CoalescingTraceSource &coalesced)
{
    WordSummary a = drainWords(plain);
    WordSummary b = drainWords(coalesced);
    EXPECT_EQ(a.loadWords, b.loadWords);
    EXPECT_EQ(a.storeWords, b.storeWords);
    EXPECT_EQ(a.instructions, b.instructions);
    EXPECT_EQ(a.loadAddrs, b.loadAddrs);
    EXPECT_EQ(a.storeAddrs, b.storeAddrs);
    // The whole point: materially fewer items downstream.
    EXPECT_LT(b.items, a.items);
}

TEST(CoalesceDifferentialTest, PolybenchStreamsAreEquivalent)
{
    // One kernel per access pattern: streaming, strided, random,
    // triangular, stencil.
    for (const char *kernel :
         {"gemver", "doitg", "durbin", "lu", "seidel"}) {
        SCOPED_TRACE(kernel);
        PolybenchTraceSource plain(genConfig(kernel));
        CoalescingTraceSource coalesced(
            std::make_unique<PolybenchTraceSource>(
                genConfig(kernel)),
            512);
        expectEquivalentStreams(plain, coalesced);
    }
}

GraphWorkloadConfig
graphConfig(GraphKernel kernel)
{
    GraphWorkloadConfig cfg;
    cfg.kernel = kernel;
    cfg.graph.numVertices = 2048;
    cfg.graph.edgeFactor = 8.0;
    cfg.graph.seed = 7;
    cfg.iterations = 2;
    return cfg;
}

TEST(CoalesceDifferentialTest, GraphKernelStreamsAreEquivalent)
{
    for (GraphKernel kernel : {GraphKernel::bfs, GraphKernel::pagerank,
                               GraphKernel::spmv}) {
        SCOPED_TRACE(int(kernel));
        GraphWorkload w(graphConfig(kernel));
        AgentTraceParams p;
        p.numAgents = 2;
        auto plain = w.makeAgentTrace(p);
        CoalescingTraceSource coalesced(w.makeAgentTrace(p), 512);
        expectEquivalentStreams(*plain, coalesced);
    }
}

// ----------------------------- rewind ------------------------------

/** Drain k items, rewind, and expect a full drain to match a fresh
 *  full drain. */
void
expectRewindDeterminism(AgentTraceSource &src, std::size_t k)
{
    std::vector<TraceItem> full = drainItems(src);
    ASSERT_GT(full.size(), k);
    src.rewind();
    TraceItem it;
    for (std::size_t i = 0; i < k; ++i)
        ASSERT_TRUE(src.next(it));
    src.rewind();
    std::vector<TraceItem> again = drainItems(src);
    EXPECT_TRUE(sameItems(full, again));
}

TEST(RewindTest, PolybenchMidStreamRewindIsDeterministic)
{
    // Random and triangular patterns exercise the RNG reseed; the
    // streaming kernel exercises the staging-queue clear.
    for (const char *kernel : {"durbin", "lu", "gemver"}) {
        SCOPED_TRACE(kernel);
        PolybenchTraceSource src(genConfig(kernel));
        expectRewindDeterminism(src, 17);
    }
}

TEST(RewindTest, GraphMidStreamRewindIsDeterministic)
{
    for (GraphKernel kernel : {GraphKernel::bfs, GraphKernel::pagerank,
                               GraphKernel::spmv}) {
        SCOPED_TRACE(int(kernel));
        GraphWorkload w(graphConfig(kernel));
        AgentTraceParams p;
        p.numAgents = 2;
        auto src = w.makeAgentTrace(p);
        expectRewindDeterminism(*src, 23);
    }
}

TEST(RewindTest, CoalescerMidStreamRewindIsDeterministic)
{
    CoalescingTraceSource src(
        std::make_unique<PolybenchTraceSource>(genConfig("doitg")),
        512);
    expectRewindDeterminism(src, 9);
}

} // anonymous namespace
} // namespace workload
} // namespace dramless

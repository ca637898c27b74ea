/**
 * @file
 * Unit tests of the graph-analytics workload engine: generator and
 * CSR invariants, BFS-tree correctness, kernel trace semantics,
 * per-agent partitioning, determinism, the chunking model, and the
 * table that shares one graph per live config.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <map>
#include <memory>
#include <set>
#include <thread>
#include <vector>

#include "workload/graph.hh"

namespace dramless
{
namespace workload
{
namespace
{

GraphConfig
smallGraph(std::uint64_t seed = 7)
{
    GraphConfig g;
    g.numVertices = 2048;
    g.edgeFactor = 8.0;
    g.seed = seed;
    return g;
}

/** Drain a trace into per-kind aggregates. */
struct TraceSummary
{
    std::vector<accel::TraceItem> items;
    std::uint64_t loads = 0, stores = 0, instructions = 0;
    std::set<std::uint64_t> loadAddrs, storeAddrs;
};

TraceSummary
drain(accel::TraceSource &src)
{
    TraceSummary s;
    accel::TraceItem it;
    while (src.next(it)) {
        s.items.push_back(it);
        switch (it.kind) {
          case accel::TraceItem::Kind::compute:
            s.instructions += it.instructions;
            break;
          case accel::TraceItem::Kind::load:
            ++s.loads;
            s.loadAddrs.insert(it.addr);
            break;
          case accel::TraceItem::Kind::store:
            ++s.stores;
            s.storeAddrs.insert(it.addr);
            break;
        }
    }
    return s;
}

bool
sameItems(const std::vector<accel::TraceItem> &a,
          const std::vector<accel::TraceItem> &b)
{
    if (a.size() != b.size())
        return false;
    for (std::size_t i = 0; i < a.size(); ++i) {
        if (a[i].kind != b[i].kind || a[i].addr != b[i].addr ||
            a[i].size != b[i].size ||
            a[i].instructions != b[i].instructions) {
            return false;
        }
    }
    return true;
}

// ----------------------------- model -------------------------------

TEST(GraphModelTest, CsrInvariantsHold)
{
    GraphModel g(smallGraph());
    const auto &rp = g.rowPtr();
    ASSERT_EQ(rp.size(), g.numVertices() + 1);
    EXPECT_EQ(rp.front(), 0u);
    EXPECT_EQ(rp.back(), g.numEdges());
    for (std::size_t i = 0; i + 1 < rp.size(); ++i)
        EXPECT_LE(rp[i], rp[i + 1]);
    for (std::uint32_t v : g.colIdx())
        EXPECT_LT(v, g.numVertices());
    EXPECT_EQ(g.numEdges(),
              std::uint64_t(2048 * 8.0 + 0.5));
}

TEST(GraphModelTest, RmatIsSkewedUniformIsNot)
{
    GraphConfig cfg = smallGraph();
    GraphModel rmat(cfg);
    cfg.rmat = false;
    GraphModel uniform(cfg);
    // R-MAT concentrates edges on hub vertices; uniform does not.
    EXPECT_GT(rmat.maxOutDegree(), 4 * uniform.maxOutDegree());
}

TEST(GraphModelTest, BfsTreeIsConsistent)
{
    GraphModel g(smallGraph());
    const auto &depth = g.bfsDepth();
    const auto &parent = g.bfsParent();
    ASSERT_EQ(depth[0], 0u);
    ASSERT_EQ(parent[0], 0u);
    std::uint64_t reached = 0;
    std::uint32_t max_depth = 0;
    for (std::uint64_t v = 0; v < g.numVertices(); ++v) {
        if (depth[v] == UINT32_MAX) {
            EXPECT_EQ(parent[v], UINT32_MAX);
            continue;
        }
        ++reached;
        max_depth = std::max(max_depth, depth[v]);
        if (v == 0)
            continue;
        std::uint32_t p = parent[v];
        ASSERT_LT(p, g.numVertices());
        EXPECT_EQ(depth[p] + 1, depth[v]) << "vertex " << v;
        // The discovery edge (p -> v) must exist in the CSR.
        bool found = false;
        for (std::uint64_t e = g.rowPtr()[p];
             e < g.rowPtr()[p + 1] && !found; ++e) {
            found = g.colIdx()[e] == v;
        }
        EXPECT_TRUE(found) << "no edge " << p << "->" << v;
    }
    EXPECT_EQ(reached, g.bfsReached());
    EXPECT_EQ(max_depth, g.bfsMaxDepth());
    // An R-MAT graph at edge factor 8 is overwhelmingly connected
    // from the hub-heavy origin.
    EXPECT_GT(g.bfsReached(), g.numVertices() / 2);
}

TEST(GraphModelTest, SameSeedSameGraphDifferentSeedDifferent)
{
    GraphModel a(smallGraph(7)), b(smallGraph(7)),
        c(smallGraph(8));
    EXPECT_EQ(a.rowPtr(), b.rowPtr());
    EXPECT_EQ(a.colIdx(), b.colIdx());
    EXPECT_NE(a.colIdx(), c.colIdx());
}

/** FNV-1a over the little-endian bytes of @p v's values, each
 *  widened to 64 bits. */
template <typename T>
std::uint64_t
fnv1a(const std::vector<T> &v)
{
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (T x : v) {
        for (int byte = 0; byte < 8; ++byte) {
            h ^= (std::uint64_t(x) >> (8 * byte)) & 0xff;
            h *= 0x100000001b3ull;
        }
    }
    return h;
}

TEST(GraphModelTest, GeneratedGraphsArePinned)
{
    // The SplitMix64 draw stream defines every graph, and through
    // the graphs every graph trace, golden and perfbench digest. A
    // faster generator must reproduce these hashes exactly.
    struct Pin
    {
        GraphConfig cfg;
        std::uint64_t rowPtr, colIdx, bfsDepth, bfsParent;
    };
    GraphConfig tiny = smallGraph();
    // serving_cosim's scaled graphs have 44 vertices: six bits per
    // endpoint, so the s >= v / d >= v rejection loop runs.
    tiny.numVertices = 44;
    GraphConfig uniform = smallGraph();
    uniform.rmat = false;
    const Pin pins[] = {
        {smallGraph(), 0xf2fb4e32a8f12c5aull, 0xf66ad509841b3960ull,
         0xd1cb252364c323eaull, 0x90f403ae523cc5a6ull},
        {tiny, 0x5401a6adf09038a1ull, 0x8dac74975c3efe2aull,
         0xa287630c89ab583aull, 0xef01202cddd556d1ull},
        {uniform, 0x9092a208a83e357full, 0xe49996d7133f7e95ull,
         0xdac672bee7398858ull, 0x25a1bb651794d79aull},
    };
    for (const Pin &p : pins) {
        GraphModel g(p.cfg);
        SCOPED_TRACE(testing::Message()
                     << (p.cfg.rmat ? "rmat" : "uniform") << " v="
                     << p.cfg.numVertices);
        EXPECT_EQ(fnv1a(g.rowPtr()), p.rowPtr);
        EXPECT_EQ(fnv1a(g.colIdx()), p.colIdx);
        EXPECT_EQ(fnv1a(g.bfsDepth()), p.bfsDepth);
        EXPECT_EQ(fnv1a(g.bfsParent()), p.bfsParent);
    }
}

// ---------------------------- shared graph -------------------------

TEST(GraphModelSharedTest, EqualConfigsShareTheLiveGraph)
{
    auto a = GraphModel::shared(smallGraph());
    auto b = GraphModel::shared(smallGraph());
    EXPECT_EQ(a, b);
    // Every kernel over one config runs on one graph.
    GraphWorkloadConfig bfs, spmv;
    bfs.graph = spmv.graph = smallGraph();
    spmv.kernel = GraphKernel::spmv;
    GraphWorkload wb(bfs), ws(spmv);
    EXPECT_EQ(&wb.graph(), a.get());
    EXPECT_EQ(&ws.graph(), a.get());
}

TEST(GraphModelSharedTest, DifferentConfigsGetDistinctGraphs)
{
    auto base = GraphModel::shared(smallGraph());
    GraphConfig seed = smallGraph(8);
    GraphConfig edges = smallGraph();
    edges.edgeFactor = 4.0;
    GraphConfig uniform = smallGraph();
    uniform.rmat = false;
    for (const GraphConfig &cfg : {seed, edges, uniform}) {
        auto g = GraphModel::shared(cfg);
        EXPECT_NE(g, base);
        EXPECT_EQ(g->config(), cfg);
    }
}

TEST(GraphModelSharedTest, HoldsNoGraphPastItsLastUser)
{
    auto a = GraphModel::shared(smallGraph());
    std::weak_ptr<const GraphModel> old = a;
    const std::vector<std::uint32_t> colIdx = a->colIdx();
    a.reset();
    EXPECT_TRUE(old.expired());
    auto b = GraphModel::shared(smallGraph());
    EXPECT_EQ(b.use_count(), 1);
    EXPECT_EQ(b->colIdx(), colIdx);
}

TEST(GraphModelSharedTest, ConcurrentRequestsGetOneGraph)
{
    constexpr int kThreads = 4;
    std::vector<std::shared_ptr<const GraphModel>> got(kThreads);
    std::atomic<int> ready{0};
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t] {
            ++ready;
            while (ready.load() < kThreads)
                std::this_thread::yield();
            got[t] = GraphModel::shared(smallGraph(11));
        });
    }
    for (std::thread &t : threads)
        t.join();
    for (const auto &g : got)
        EXPECT_EQ(g, got.front());
}

// ----------------------------- layout ------------------------------

TEST(GraphLayoutTest, RegionsAreContiguousAndDisjoint)
{
    GraphModel g(smallGraph());
    for (GraphKernel k : {GraphKernel::bfs, GraphKernel::pagerank,
                          GraphKernel::spmv}) {
        GraphLayout l = GraphLayout::of(g, k, 32, 0, 0);
        EXPECT_EQ(l.rowPtrBase, 0u);
        EXPECT_EQ(l.colIdxBase, l.rowPtrBase + l.rowPtrBytes);
        EXPECT_EQ(l.valBase, l.colIdxBase + l.colIdxBytes);
        EXPECT_EQ(l.vtxBase, l.valBase + l.valBytes);
        EXPECT_EQ(l.inputBytes, l.vtxBase + l.vtxBytes);
        EXPECT_EQ(l.outBase, l.inputBytes);
        EXPECT_EQ(l.inputBytes % 32, 0u);
        EXPECT_EQ(l.outBytes % 32, 0u);
        if (k == GraphKernel::spmv)
            EXPECT_GT(l.valBytes, 0u);
        else
            EXPECT_EQ(l.valBytes, 0u);
    }
}

// --------------------------- workload ------------------------------

TEST(GraphWorkloadTest, SpecMatchesLayoutAndKernel)
{
    GraphWorkloadConfig cfg;
    cfg.kernel = GraphKernel::spmv;
    cfg.graph = smallGraph();
    GraphWorkload w(cfg);
    EXPECT_EQ(w.spec().name, "spmv_v2048_e8");
    EXPECT_EQ(w.spec().pattern, Pattern::randomAccess);
    GraphLayout l = GraphLayout::of(w.graph(), cfg.kernel, 32, 0, 0);
    EXPECT_EQ(w.spec().inputBytes, l.inputBytes);
    EXPECT_EQ(w.spec().outputBytes, l.outBytes);
}

TEST(GraphWorkloadTest, ScaledRegeneratesAndKeepsName)
{
    GraphWorkloadConfig cfg;
    cfg.graph = smallGraph();
    GraphWorkload w(cfg);
    auto half = w.scaled(0.5);
    EXPECT_EQ(half->spec().name, w.spec().name);
    EXPECT_LT(half->spec().inputBytes, w.spec().inputBytes);
    EXPECT_GT(half->spec().inputBytes, w.spec().inputBytes / 4);
}

TEST(GraphWorkloadTest, ChunkingKeepsTheVertexRegion)
{
    GraphWorkloadConfig cfg;
    cfg.graph = smallGraph();
    GraphWorkload w(cfg);
    auto chunk = w.chunked(8);
    // A chunk owns ~1/8 of the edges but must still stage the whole
    // vertex-data region — so it is strictly bigger than a naive
    // 1/8 volume split. This is the mechanism that penalizes
    // chunked (heterogeneous) execution on irregular workloads.
    GraphLayout l = GraphLayout::of(w.graph(), cfg.kernel, 32, 0, 0);
    EXPECT_GT(chunk->spec().inputBytes, w.spec().inputBytes / 8);
    EXPECT_GE(chunk->spec().inputBytes, l.vtxBytes);
    auto [begin, end] =
        static_cast<const GraphWorkload &>(*chunk).ownedRange();
    EXPECT_EQ(begin, 0u);
    EXPECT_NEAR(double(end), 2048.0 / 8, 1.0);
}

// ------------------------- trace semantics -------------------------

std::unique_ptr<AgentTraceSource>
makeTrace(GraphKernel kernel, std::uint32_t agent,
          std::uint32_t agents, std::uint32_t iterations = 1)
{
    GraphWorkloadConfig cfg;
    cfg.kernel = kernel;
    cfg.graph = smallGraph();
    cfg.iterations = iterations;
    GraphWorkload w(cfg);
    AgentTraceParams p;
    p.agentIndex = agent;
    p.numAgents = agents;
    return w.makeAgentTrace(p);
}

TEST(GraphTraceTest, BfsDiscoversEveryReachedVertexOnce)
{
    GraphWorkloadConfig cfg;
    cfg.graph = smallGraph();
    GraphWorkload w(cfg);
    GraphLayout l = GraphLayout::of(w.graph(), cfg.kernel, 32, 0, 0);
    // Across all agents, one discovery store per reached non-root
    // vertex: count store *words* hit at least once and compare to
    // the distinct depth words of reached vertices.
    std::set<std::uint64_t> store_words;
    std::uint64_t stores = 0;
    for (std::uint32_t a = 0; a < 4; ++a) {
        AgentTraceParams p;
        p.agentIndex = a;
        p.numAgents = 4;
        auto t = w.makeAgentTrace(p);
        TraceSummary s = drain(*t);
        stores += s.stores;
        store_words.insert(s.storeAddrs.begin(),
                           s.storeAddrs.end());
        for (auto addr : s.storeAddrs) {
            EXPECT_GE(addr, l.outBase);
            EXPECT_LT(addr, l.outBase + l.outBytes);
        }
    }
    EXPECT_EQ(stores, w.graph().bfsReached() - 1);
    std::set<std::uint64_t> expected_words;
    for (std::uint64_t v = 0; v < w.graph().numVertices(); ++v) {
        if (v != 0 && w.graph().bfsDepth()[v] != UINT32_MAX)
            expected_words.insert(l.outBase + v * 8 / 32 * 32);
    }
    EXPECT_EQ(store_words, expected_words);
}

TEST(GraphTraceTest, PagerankEmitsRmwPerOwnedVertex)
{
    auto t = makeTrace(GraphKernel::pagerank, 0, 1);
    GraphWorkloadConfig cfg;
    cfg.kernel = GraphKernel::pagerank;
    cfg.graph = smallGraph();
    GraphWorkload w(cfg);
    GraphLayout l = GraphLayout::of(w.graph(), cfg.kernel, 32, 0, 0);
    TraceSummary s = drain(*t);
    // One rank read-modify-write per vertex: stores == vertices, and
    // every rank word is both loaded and stored.
    EXPECT_EQ(s.stores, w.graph().numVertices());
    for (auto addr : s.storeAddrs) {
        EXPECT_GE(addr, l.outBase);
        EXPECT_TRUE(s.loadAddrs.count(addr));
    }
}

TEST(GraphTraceTest, PagerankIterationsMultiplyTheTrace)
{
    auto one = makeTrace(GraphKernel::pagerank, 0, 2, 1);
    auto two = makeTrace(GraphKernel::pagerank, 0, 2, 2);
    TraceSummary a = drain(*one), b = drain(*two);
    EXPECT_EQ(b.items.size(), 2 * a.items.size());
    EXPECT_EQ(b.instructions, 2 * a.instructions);
}

TEST(GraphTraceTest, SpmvTouchesValuesAndPacksOutput)
{
    GraphWorkloadConfig cfg;
    cfg.kernel = GraphKernel::spmv;
    cfg.graph = smallGraph();
    GraphWorkload w(cfg);
    GraphLayout l = GraphLayout::of(w.graph(), cfg.kernel, 32, 0, 0);
    AgentTraceParams p;
    auto t = w.makeAgentTrace(p);
    TraceSummary s = drain(*t);
    bool touched_values = false;
    for (auto addr : s.loadAddrs) {
        touched_values |=
            addr >= l.valBase && addr < l.valBase + l.valBytes;
    }
    EXPECT_TRUE(touched_values);
    // Four 8 B results pack per 32 B store word.
    EXPECT_EQ(s.stores, (w.graph().numVertices() + 3) / 4);
}

TEST(GraphTraceTest, GathersStayInsideTheVertexRegion)
{
    GraphWorkloadConfig cfg;
    cfg.kernel = GraphKernel::pagerank;
    cfg.graph = smallGraph();
    GraphWorkload w(cfg);
    GraphLayout l = GraphLayout::of(w.graph(), cfg.kernel, 32, 0, 0);
    AgentTraceParams p;
    auto t = w.makeAgentTrace(p);
    accel::TraceItem it;
    while (t->next(it)) {
        if (it.kind != accel::TraceItem::Kind::load)
            continue;
        EXPECT_LT(it.addr, l.outBase + l.outBytes);
        EXPECT_EQ(it.addr % 32, 0u);
        EXPECT_EQ(it.size, 32u);
    }
}

TEST(GraphTraceTest, AgentsPartitionVertices)
{
    GraphWorkloadConfig cfg;
    cfg.graph = smallGraph();
    GraphWorkload w(cfg);
    constexpr std::uint32_t agents = 7; // does not divide 2048
    std::uint64_t covered = 0, prev_end = 0;
    for (std::uint32_t a = 0; a < agents; ++a) {
        AgentTraceParams p;
        p.agentIndex = a;
        p.numAgents = agents;
        auto t = w.makeAgentTrace(p);
        auto [b, e] =
            static_cast<GraphTraceSource &>(*t).vertexRange();
        EXPECT_EQ(b, prev_end);
        prev_end = e;
        covered += e - b;
    }
    EXPECT_EQ(prev_end, w.graph().numVertices());
    EXPECT_EQ(covered, w.graph().numVertices());
}

// --------------------------- determinism ---------------------------

TEST(GraphTraceTest, SameConfigGivesBitIdenticalTraces)
{
    auto a = makeTrace(GraphKernel::bfs, 1, 4);
    auto b = makeTrace(GraphKernel::bfs, 1, 4);
    TraceSummary sa = drain(*a), sb = drain(*b);
    EXPECT_TRUE(sameItems(sa.items, sb.items));
    ASSERT_GT(sa.items.size(), 1000u);
}

TEST(GraphTraceTest, RewindReproducesTheTrace)
{
    for (GraphKernel k : {GraphKernel::bfs, GraphKernel::pagerank,
                          GraphKernel::spmv}) {
        auto t = makeTrace(k, 0, 3);
        TraceSummary a = drain(*t);
        t->rewind();
        TraceSummary b = drain(*t);
        EXPECT_TRUE(sameItems(a.items, b.items))
            << graphKernelName(k);
    }
}

TEST(GraphTraceDeathTest, RejectsBadParams)
{
    GraphWorkloadConfig cfg;
    cfg.graph = smallGraph();
    GraphWorkload w(cfg);
    AgentTraceParams p;
    p.agentIndex = 4;
    p.numAgents = 2;
    EXPECT_DEATH(w.makeAgentTrace(p), "bad agent slice");
    EXPECT_DEATH(w.scaled(0.0), "positive");
}

} // namespace
} // namespace workload
} // namespace dramless

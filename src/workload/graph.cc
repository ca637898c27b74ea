#include "workload/graph.hh"

#include <algorithm>
#include <cmath>
#include <limits>
#include <mutex>
#include <queue>
#include <utility>

#include "sim/logging.hh"
#include "sim/random.hh"

namespace dramless
{
namespace workload
{

namespace
{

constexpr std::uint32_t kUnreached =
    std::numeric_limits<std::uint32_t>::max();
/** Bytes per modeled CSR entry / vertex slot (64-bit ids+values). */
constexpr std::uint64_t kSlot = 8;

/** @return the least 53-bit draw x with x * 2^-53 >= @p t. A draw
 *  compared with it decides exactly what Random::uniform() compared
 *  with @p t decides: the scaling is exact, and x is an integer. */
std::uint64_t
drawThreshold(double t)
{
    if (!(t > 0.0))
        return 0;
    return std::uint64_t(std::min(std::ceil(std::ldexp(t, 53)), 0x1p53));
}

std::uint64_t
roundUp(std::uint64_t v, std::uint64_t unit)
{
    return (v + unit - 1) / unit * unit;
}

} // anonymous namespace

// ------------------------------ model ------------------------------

GraphModel::GraphModel(const GraphConfig &cfg) : config_(cfg)
{
    const std::uint64_t v = cfg.numVertices;
    fatal_if(v < 2, "graph needs at least two vertices");
    fatal_if(cfg.edgeFactor <= 0.0, "edge factor must be positive");
    const std::uint64_t e =
        std::max<std::uint64_t>(1, std::uint64_t(
            double(v) * cfg.edgeFactor + 0.5));

    Random rng(cfg.seed);
    std::vector<std::uint32_t> src(e), dst(e);
    if (cfg.rmat) {
        std::uint32_t bits = 0;
        while ((std::uint64_t(1) << bits) < v)
            ++bits;
        const double ab = cfg.a + cfg.b;
        const std::uint64_t tA = drawThreshold(cfg.a);
        const std::uint64_t tAb = drawThreshold(ab);
        const std::uint64_t tAbc = drawThreshold(ab + cfg.c);
        for (std::uint64_t i = 0; i < e; ++i) {
            std::uint64_t s, d;
            do {
                s = 0;
                d = 0;
                for (std::uint32_t bit = 0; bit < bits; ++bit) {
                    const std::uint64_t r = rng.bits53();
                    // Quadrants: a=(0,0) b=(0,1) c=(1,0) d=(1,1).
                    // Each comparison is a coin flip, so combine
                    // them with bitwise ops instead of branching.
                    const std::uint64_t sb = r >= tAb;
                    const std::uint64_t db =
                        ((r >= tA) & (r < tAb)) | (r >= tAbc);
                    s = (s << 1) | sb;
                    d = (d << 1) | db;
                }
            } while (s >= v || d >= v);
            src[i] = std::uint32_t(s);
            dst[i] = std::uint32_t(d);
        }
    } else {
        for (std::uint64_t i = 0; i < e; ++i) {
            src[i] = std::uint32_t(rng.below(v));
            dst[i] = std::uint32_t(rng.below(v));
        }
    }

    // Counting sort into CSR; per-vertex edge order follows the
    // generation order (stable).
    rowPtr_.assign(v + 1, 0);
    for (std::uint64_t i = 0; i < e; ++i)
        ++rowPtr_[src[i] + 1];
    for (std::uint64_t u = 0; u < v; ++u)
        rowPtr_[u + 1] += rowPtr_[u];
    colIdx_.resize(e);
    std::vector<std::uint64_t> fill(rowPtr_.begin(),
                                    rowPtr_.end() - 1);
    for (std::uint64_t i = 0; i < e; ++i)
        colIdx_[fill[src[i]]++] = dst[i];

    // BFS tree from vertex 0 (directed edges), replayed by the BFS
    // trace source: depth gives the frontier schedule, parent marks
    // which edge performs each discovery store.
    bfsDepth_.assign(v, kUnreached);
    bfsParent_.assign(v, kUnreached);
    std::queue<std::uint32_t> frontier;
    bfsDepth_[0] = 0;
    bfsParent_[0] = 0;
    bfsReached_ = 1;
    frontier.push(0);
    while (!frontier.empty()) {
        std::uint32_t u = frontier.front();
        frontier.pop();
        for (std::uint64_t i = rowPtr_[u]; i < rowPtr_[u + 1]; ++i) {
            std::uint32_t w = colIdx_[i];
            if (bfsDepth_[w] != kUnreached)
                continue;
            bfsDepth_[w] = bfsDepth_[u] + 1;
            bfsParent_[w] = u;
            bfsMaxDepth_ = std::max(bfsMaxDepth_, bfsDepth_[w]);
            ++bfsReached_;
            frontier.push(w);
        }
    }
}

std::shared_ptr<const GraphModel>
GraphModel::shared(const GraphConfig &cfg)
{
    static std::mutex mutex;
    static std::vector<
        std::pair<GraphConfig, std::weak_ptr<const GraphModel>>>
        live;
    std::lock_guard<std::mutex> lock(mutex);
    std::erase_if(live, [](const auto &entry) {
        return entry.second.expired();
    });
    for (const auto &[key, graph] : live) {
        if (key == cfg) {
            if (auto g = graph.lock())
                return g;
        }
    }
    auto g = std::make_shared<const GraphModel>(cfg);
    live.emplace_back(cfg, g);
    return g;
}

std::uint64_t
GraphModel::maxOutDegree() const
{
    std::uint64_t best = 0;
    for (std::uint64_t u = 0; u + 1 < rowPtr_.size(); ++u)
        best = std::max(best, rowPtr_[u + 1] - rowPtr_[u]);
    return best;
}

const char *
graphKernelName(GraphKernel k)
{
    switch (k) {
      case GraphKernel::bfs:
        return "bfs";
      case GraphKernel::pagerank:
        return "pagerank";
      case GraphKernel::spmv:
        return "spmv";
    }
    return "?";
}

// ------------------------------ layout -----------------------------

GraphLayout
GraphLayout::of(const GraphModel &g, GraphKernel kernel,
                std::uint32_t unit, std::uint64_t input_base,
                std::uint64_t output_base)
{
    GraphLayout l;
    l.unit = unit;
    const std::uint64_t v = g.numVertices();
    const std::uint64_t e = g.numEdges();
    l.rowPtrBase = input_base;
    l.rowPtrBytes = roundUp((v + 1) * kSlot, unit);
    l.colIdxBase = l.rowPtrBase + l.rowPtrBytes;
    l.colIdxBytes = roundUp(e * kSlot, unit);
    l.valBase = l.colIdxBase + l.colIdxBytes;
    l.valBytes =
        kernel == GraphKernel::spmv ? roundUp(e * kSlot, unit) : 0;
    l.vtxBase = l.valBase + l.valBytes;
    l.vtxBytes = roundUp(v * kSlot, unit);
    l.inputBytes = l.rowPtrBytes + l.colIdxBytes + l.valBytes +
                   l.vtxBytes;
    l.outBase = output_base != 0 ? output_base
                                 : input_base + l.inputBytes;
    l.outBytes = roundUp(v * kSlot, unit);
    return l;
}

// ----------------------------- workload ----------------------------

GraphWorkload::GraphWorkload(const GraphWorkloadConfig &cfg)
    : GraphWorkload(cfg, GraphModel::shared(cfg.graph), 0,
                    cfg.graph.numVertices)
{}

GraphWorkload::GraphWorkload(const GraphWorkloadConfig &cfg,
                             std::shared_ptr<const GraphModel> graph,
                             std::uint64_t owned_begin,
                             std::uint64_t owned_end)
    : config_(cfg), graph_(std::move(graph)),
      ownedBegin_(owned_begin), ownedEnd_(owned_end)
{
    fatal_if(ownedBegin_ >= ownedEnd_ ||
                 ownedEnd_ > graph_->numVertices(),
             "bad owned vertex range");
    buildSpec();
}

void
GraphWorkload::buildSpec()
{
    const std::uint32_t unit = 32;
    const GraphModel &g = *graph_;
    const std::uint64_t owned_v = ownedEnd_ - ownedBegin_;
    const std::uint64_t owned_e =
        g.rowPtr()[ownedEnd_] - g.rowPtr()[ownedBegin_];
    const bool full =
        ownedBegin_ == 0 && ownedEnd_ == g.numVertices();

    spec_.name = csprintf("%s_v%llu_e%g",
                          graphKernelName(config_.kernel),
                          (unsigned long long)g.numVertices(),
                          g.config().edgeFactor);
    spec_.pattern = Pattern::randomAccess;
    spec_.klass = WorkloadClass::memoryIntensive;
    if (full) {
        GraphLayout l =
            GraphLayout::of(g, config_.kernel, unit, 0, 0);
        spec_.inputBytes = l.inputBytes;
    } else {
        // A chunk stages its own row pointers and edges, but the
        // vertex-data region its gathers roam is the whole graph's.
        std::uint64_t edge_slots =
            config_.kernel == GraphKernel::spmv ? 2 * owned_e
                                                : owned_e;
        spec_.inputBytes =
            roundUp((owned_v + 1) * kSlot, unit) +
            roundUp(edge_slots * kSlot, unit) +
            roundUp(g.numVertices() * kSlot, unit);
    }
    spec_.outputBytes =
        std::max<std::uint64_t>(unit, roundUp(owned_v * kSlot, unit));
    // Descriptive compute intensity: a couple of functional-unit ops
    // per traversed edge plus per-vertex bookkeeping.
    double iters = config_.kernel == GraphKernel::pagerank
                       ? double(std::max<std::uint32_t>(
                             1, config_.iterations))
                       : 1.0;
    spec_.opsPerByte =
        iters * double(2 * owned_e + 4 * owned_v) /
        double(spec_.inputBytes + spec_.outputBytes);
}

std::shared_ptr<const WorkloadModel>
GraphWorkload::scaled(double factor) const
{
    fatal_if(factor <= 0.0, "scale factor must be positive");
    GraphWorkloadConfig cfg = config_;
    std::uint64_t v = std::max<std::uint64_t>(
        16, std::uint64_t(double(cfg.graph.numVertices) * factor +
                          0.5));
    cfg.graph.numVertices = roundUp(v, 4);
    auto copy = std::shared_ptr<GraphWorkload>(
        new GraphWorkload(cfg));
    // Scaling is a volume knob, not a new workload: keep the name so
    // result matrices key the same row before and after scaling.
    copy->spec_.name = spec_.name;
    return copy;
}

std::shared_ptr<const WorkloadModel>
GraphWorkload::chunked(std::uint32_t chunks) const
{
    fatal_if(chunks == 0, "chunks must be positive");
    if (chunks == 1 && ownedBegin_ == 0 &&
        ownedEnd_ == graph_->numVertices()) {
        return std::shared_ptr<const WorkloadModel>(
            new GraphWorkload(config_, graph_, ownedBegin_,
                              ownedEnd_));
    }
    auto [begin, end] =
        agentSlice(ownedBegin_, ownedEnd_, 0, chunks);
    if (begin >= end)
        end = begin + 1;
    auto copy = std::shared_ptr<GraphWorkload>(
        new GraphWorkload(config_, graph_, begin, end));
    copy->spec_.name = spec_.name;
    return copy;
}

std::unique_ptr<AgentTraceSource>
GraphWorkload::makeAgentTrace(const AgentTraceParams &p) const
{
    fatal_if(p.numAgents == 0 || p.agentIndex >= p.numAgents,
             "bad agent slice");
    fatal_if(p.accessBytes == 0 || p.accessBytes % 32 != 0,
             "access size must be a positive multiple of 32");
    GraphLayout layout = GraphLayout::of(
        *graph_, config_.kernel, p.accessBytes, p.inputBase,
        p.outputBase);
    auto [begin, end] = agentSlice(ownedBegin_, ownedEnd_,
                                   p.agentIndex, p.numAgents);
    return std::make_unique<GraphTraceSource>(
        graph_, config_.kernel,
        std::max<std::uint32_t>(1, config_.iterations), layout,
        begin, end);
}

// --------------------------- trace source --------------------------

GraphTraceSource::GraphTraceSource(
    std::shared_ptr<const GraphModel> graph, GraphKernel kernel,
    std::uint32_t iterations, const GraphLayout &layout,
    std::uint64_t v_begin, std::uint64_t v_end)
    : graph_(std::move(graph)), kernel_(kernel),
      iterations_(iterations), layout_(layout), vBegin_(v_begin),
      vEnd_(v_end)
{
    if (kernel_ == GraphKernel::bfs) {
        ownedByLevel_.resize(graph_->bfsMaxDepth() + 1);
        const auto &depth = graph_->bfsDepth();
        for (std::uint64_t u = vBegin_; u < vEnd_; ++u) {
            if (depth[u] != kUnreached)
                ownedByLevel_[depth[u]].push_back(
                    std::uint32_t(u));
        }
    }
    rewind();
}

void
GraphTraceSource::rewind()
{
    iter_ = 0;
    level_ = 0;
    cursor_ = kernel_ == GraphKernel::bfs ? 0 : vBegin_;
    done_ = false;
    dropStaged();
}

std::pair<std::uint64_t, std::uint64_t>
GraphTraceSource::outputRegion() const
{
    if (kernel_ == GraphKernel::bfs) {
        // Discovery stores scatter across the whole depth array.
        return {layout_.outBase, layout_.outBytes};
    }
    std::uint64_t first = vBegin_ * kSlot / layout_.unit *
                          layout_.unit;
    std::uint64_t end = roundUp(vEnd_ * kSlot, layout_.unit);
    return {layout_.outBase + first, end - first};
}

void
GraphTraceSource::load(std::uint64_t base, std::uint64_t off)
{
    stage(accel::TraceItem::loadOf(
        base + off / layout_.unit * layout_.unit, layout_.unit));
}

void
GraphTraceSource::store(std::uint64_t base, std::uint64_t off)
{
    stage(accel::TraceItem::storeOf(
        base + off / layout_.unit * layout_.unit, layout_.unit));
}

void
GraphTraceSource::emitVertex(std::uint64_t u)
{
    const std::uint32_t unit = layout_.unit;
    const auto &rp = graph_->rowPtr();
    const auto &ci = graph_->colIdx();
    const std::uint64_t e0 = rp[u], e1 = rp[u + 1];

    // Row-pointer walk: rowPtr[u] and rowPtr[u+1] (usually the same
    // access word).
    load(layout_.rowPtrBase, u * kSlot);
    if ((u * kSlot) / unit != ((u + 1) * kSlot) / unit)
        load(layout_.rowPtrBase, (u + 1) * kSlot);

    std::uint64_t ops = 4; // frontier pop / row bookkeeping
    std::vector<accel::TraceItem> stores;
    /** Vertices already discovered from this row: the generator may
     *  produce duplicate edges, and only the first occurrence of
     *  (u, v) discovers v — the second finds it visited. */
    std::vector<std::uint32_t> kids;

    std::uint64_t prev_word = ~std::uint64_t(0);
    for (std::uint64_t e = e0; e < e1; ++e) {
        // Stream the index (and, for SpMV, value) arrays word by
        // word: several consecutive edges share one access.
        std::uint64_t word = e * kSlot / unit;
        if (word != prev_word) {
            load(layout_.colIdxBase, e * kSlot);
            if (kernel_ == GraphKernel::spmv)
                load(layout_.valBase, e * kSlot);
            prev_word = word;
        }
        // The gather: a data-dependent read of the neighbour's slot
        // (visited flag / previous rank / x element).
        std::uint32_t v = ci[e];
        load(layout_.vtxBase, std::uint64_t(v) * kSlot);
        ops += 2;

        if (kernel_ == GraphKernel::bfs &&
            graph_->bfsParent()[v] == u &&
            graph_->bfsDepth()[v] == level_ + 1 &&
            std::find(kids.begin(), kids.end(), v) == kids.end()) {
            // This edge discovers v: scattered store of its depth.
            kids.push_back(v);
            stores.push_back(accel::TraceItem::storeOf(
                layout_.outBase +
                    std::uint64_t(v) * kSlot / unit * unit,
                unit));
            ops += 1;
        }
    }

    stage(accel::TraceItem::computeOf(ops));
    for (const auto &s : stores)
        stage(s);

    switch (kernel_) {
      case GraphKernel::bfs:
        break;
      case GraphKernel::pagerank:
        // Rank read-modify-write burst: accumulate into rank[u]
        // (neighbouring vertices hit the same word back to back).
        load(layout_.outBase, u * kSlot);
        store(layout_.outBase, u * kSlot);
        break;
      case GraphKernel::spmv:
        // y[u] packs four results per word; store on word boundary.
        if ((u + 1) * kSlot % unit == 0 || u + 1 == vEnd_)
            store(layout_.outBase, u * kSlot);
        break;
    }
}

void
GraphTraceSource::refill()
{
    while (staged() < kRefillBatch && !done_) {
        if (vBegin_ >= vEnd_) {
            // Empty partition (more agents than owned vertices):
            // emit a sentinel so the PE still boots and retires.
            stage(accel::TraceItem::computeOf(1));
            done_ = true;
            return;
        }
        if (kernel_ == GraphKernel::bfs) {
            if (level_ >= ownedByLevel_.size()) {
                done_ = true;
                return;
            }
            const auto &frontier = ownedByLevel_[level_];
            if (cursor_ >= frontier.size()) {
                ++level_;
                cursor_ = 0;
                continue;
            }
            emitVertex(frontier[cursor_++]);
            continue;
        }
        if (cursor_ >= vEnd_) {
            ++iter_;
            std::uint32_t total_iters =
                kernel_ == GraphKernel::pagerank ? iterations_ : 1;
            if (iter_ >= total_iters) {
                done_ = true;
                return;
            }
            cursor_ = vBegin_;
            continue;
        }
        emitVertex(cursor_++);
    }
}

} // namespace workload
} // namespace dramless

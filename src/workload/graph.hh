/**
 * @file
 * Graph-analytics workload engine.
 *
 * The paper evaluates DRAM-less only on Polybench's regular kernels;
 * irregular, data-dependent access is exactly where PRAM's long
 * writes and partition contention should bite hardest (Dann et al.,
 * arXiv:2010.13619 / 2104.07776). This engine materializes a seeded
 * synthetic graph (R-MAT or uniform) into a CSR image laid out over
 * the simulated address space and emits the access streams of three
 * canonical kernels — BFS (frontier-driven reads, scattered
 * discovery stores), PageRank (neighbour gathers plus rank
 * read-modify-write bursts) and SpMV (row-pointer walks over
 * indices+values) — with per-PE vertex partitioning, behind the same
 * WorkloadModel interface Polybench uses.
 */

#ifndef DRAMLESS_WORKLOAD_GRAPH_HH
#define DRAMLESS_WORKLOAD_GRAPH_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "workload/workload_model.hh"

namespace dramless
{
namespace workload
{

/** Synthetic graph generator parameters. */
struct GraphConfig
{
    /** Vertex count (any value >= 2; no power-of-two requirement). */
    std::uint64_t numVertices = 32768;
    /** Average out-degree: edges = numVertices * edgeFactor. */
    double edgeFactor = 8.0;
    /** R-MAT (skewed, Graph500-style) vs uniform edge endpoints. */
    bool rmat = true;
    /** R-MAT quadrant probabilities (d = 1 - a - b - c). */
    double a = 0.57, b = 0.19, c = 0.19;
    std::uint64_t seed = 42;

    bool operator==(const GraphConfig &) const = default;
};

/**
 * A materialized directed graph in CSR form plus the precomputed
 * BFS tree the trace sources replay. Immutable after construction,
 * so one instance is safely shared across agents and sweep jobs.
 */
class GraphModel
{
  public:
    explicit GraphModel(const GraphConfig &cfg);

    /**
     * @return the live graph of a config equal to @p cfg, building it
     * when none is alive. The process-wide table holds only weak
     * references, so a graph lives exactly as long as its users and
     * a config asked for after its last user is gone builds afresh.
     * Thread-safe; a build holds the table's lock.
     */
    static std::shared_ptr<const GraphModel>
    shared(const GraphConfig &cfg);

    std::uint64_t numVertices() const { return config_.numVertices; }
    std::uint64_t numEdges() const { return colIdx_.size(); }
    const GraphConfig &config() const { return config_; }

    /** CSR row pointers (numVertices + 1 entries). */
    const std::vector<std::uint64_t> &rowPtr() const
    {
        return rowPtr_;
    }
    /** CSR column indices (edge targets). */
    const std::vector<std::uint32_t> &colIdx() const
    {
        return colIdx_;
    }

    /** BFS depth from vertex 0 (UINT32_MAX when unreached). */
    const std::vector<std::uint32_t> &bfsDepth() const
    {
        return bfsDepth_;
    }
    /** BFS parent of each reached vertex (self for the root,
     *  UINT32_MAX when unreached). */
    const std::vector<std::uint32_t> &bfsParent() const
    {
        return bfsParent_;
    }
    /** Deepest BFS level with any vertex. */
    std::uint32_t bfsMaxDepth() const { return bfsMaxDepth_; }
    /** Vertices reached by the BFS. */
    std::uint64_t bfsReached() const { return bfsReached_; }

    /** Highest out-degree (R-MAT skew diagnostics). */
    std::uint64_t maxOutDegree() const;

  private:
    GraphConfig config_;
    std::vector<std::uint64_t> rowPtr_;
    std::vector<std::uint32_t> colIdx_;
    std::vector<std::uint32_t> bfsDepth_;
    std::vector<std::uint32_t> bfsParent_;
    std::uint32_t bfsMaxDepth_ = 0;
    std::uint64_t bfsReached_ = 0;
};

/** The three modeled graph kernels. */
enum class GraphKernel
{
    bfs,
    pagerank,
    spmv,
};

/** @return a short lowercase label of @p k. */
const char *graphKernelName(GraphKernel k);

/** One graph workload: a kernel over a generated graph. */
struct GraphWorkloadConfig
{
    GraphKernel kernel = GraphKernel::bfs;
    GraphConfig graph;
    /** Sweep iterations (PageRank power iterations; BFS and SpMV
     *  run once regardless). */
    std::uint32_t iterations = 1;
};

/**
 * CSR image layout over the simulated address space. All regions are
 * rounded up to whole PE access units; the value region exists only
 * for SpMV.
 *
 *   input:  [rowPtr | colIdx | (values) | vertexData]
 *   output: one 8-byte slot per vertex (depth / rank / y)
 */
struct GraphLayout
{
    std::uint32_t unit = 32;
    std::uint64_t rowPtrBase = 0, rowPtrBytes = 0;
    std::uint64_t colIdxBase = 0, colIdxBytes = 0;
    std::uint64_t valBase = 0, valBytes = 0;
    std::uint64_t vtxBase = 0, vtxBytes = 0;
    std::uint64_t inputBytes = 0;
    std::uint64_t outBase = 0, outBytes = 0;

    /** Compute the layout of @p g for @p kernel at @p unit. */
    static GraphLayout of(const GraphModel &g, GraphKernel kernel,
                          std::uint32_t unit,
                          std::uint64_t input_base,
                          std::uint64_t output_base);
};

/**
 * Graph workload behind the WorkloadModel interface. The graph is
 * materialized at construction and shared (read-only) by every trace
 * source and by chunked() copies.
 */
class GraphWorkload : public WorkloadModel
{
  public:
    explicit GraphWorkload(const GraphWorkloadConfig &cfg);

    const WorkloadSpec &spec() const override { return spec_; }

    /** Volume scaling regenerates the graph at a scaled vertex
     *  count (same seed, same edge factor). */
    std::shared_ptr<const WorkloadModel>
    scaled(double factor) const override;

    /**
     * Chunking a graph does NOT shrink the shared vertex state: each
     * chunk owns edges of numVertices/chunks vertices but its
     * neighbour set spans the whole graph, so every chunk re-stages
     * the full vertex-data region (the irregular-access penalty a
     * heterogeneous platform cannot chunk away).
     */
    std::shared_ptr<const WorkloadModel>
    chunked(std::uint32_t chunks) const override;

    std::unique_ptr<AgentTraceSource>
    makeAgentTrace(const AgentTraceParams &p) const override;

    const GraphModel &graph() const { return *graph_; }
    const GraphWorkloadConfig &config() const { return config_; }
    /** Vertices this model's traces process (full range unless this
     *  is a chunked() copy). */
    std::pair<std::uint64_t, std::uint64_t> ownedRange() const
    {
        return {ownedBegin_, ownedEnd_};
    }

  private:
    GraphWorkload(const GraphWorkloadConfig &cfg,
                  std::shared_ptr<const GraphModel> graph,
                  std::uint64_t owned_begin, std::uint64_t owned_end);

    /** Derive the WorkloadSpec from the graph and owned range. */
    void buildSpec();

    GraphWorkloadConfig config_;
    std::shared_ptr<const GraphModel> graph_;
    std::uint64_t ownedBegin_ = 0, ownedEnd_ = 0;
    WorkloadSpec spec_;
};

/**
 * Per-agent trace of one graph kernel over a contiguous vertex
 * partition. Emission is purely data-dependent (graph + BFS tree),
 * so equal seeds and configs give bit-identical streams.
 */
class GraphTraceSource : public AgentTraceSource
{
  public:
    GraphTraceSource(std::shared_ptr<const GraphModel> graph,
                     GraphKernel kernel, std::uint32_t iterations,
                     const GraphLayout &layout,
                     std::uint64_t v_begin, std::uint64_t v_end);

    void rewind() override;

    std::pair<std::uint64_t, std::uint64_t>
    outputRegion() const override;

    /** This agent's vertex partition. */
    std::pair<std::uint64_t, std::uint64_t> vertexRange() const
    {
        return {vBegin_, vEnd_};
    }

  private:
    /** Stage whole vertices until a batch is staged or the kernel
     *  ends. */
    void refill() override;
    /** Emit one vertex's accesses for the current kernel. */
    void emitVertex(std::uint64_t u);
    /** Emit a 32B-word load covering byte offset @p off of a
     *  region. */
    void load(std::uint64_t base, std::uint64_t off);
    void store(std::uint64_t base, std::uint64_t off);

    std::shared_ptr<const GraphModel> graph_;
    GraphKernel kernel_;
    std::uint32_t iterations_;
    GraphLayout layout_;
    std::uint64_t vBegin_ = 0, vEnd_ = 0;

    /** Owned frontier per BFS level (level -> owned vertices). */
    std::vector<std::vector<std::uint32_t>> ownedByLevel_;

    std::uint32_t iter_ = 0;
    std::uint32_t level_ = 0;
    std::uint64_t cursor_ = 0;
    bool done_ = false;
};

} // namespace workload
} // namespace dramless

#endif // DRAMLESS_WORKLOAD_GRAPH_HH

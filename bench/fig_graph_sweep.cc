/**
 * @file
 * Graph-analytics evaluation driver: runs every Table I organization
 * over the three graph kernels (BFS, PageRank, SpMV) across a
 * vertex-count x edge-factor grid, plus a volume-matched streaming
 * Polybench-style comparator, on the SweepRunner thread pool.
 *
 * The headline metric is the accelerated-vs-baseline gap
 * (DRAM-less bandwidth / Hetero bandwidth) on the graph kernels
 * versus the same gap on the matched streaming workload: irregular,
 * data-dependent access is where eliminating the chunked
 * host-shepherded pipeline should pay the most.
 *
 * Environment knobs:
 *   DRAMLESS_GRAPH_QUICK  shrink the grid to one small point (CI)
 *   DRAMLESS_SCALE        workload volume scale (default 0.25)
 *   DRAMLESS_JOBS         worker threads (default: hardware threads)
 *   DRAMLESS_OUT_JSON     write the full result set as JSON ("-"=stdout)
 *   DRAMLESS_OUT_CSV      write the per-run scalar table as CSV
 */

#include <cstdio>
#include <cstdlib>

#include "harness.hh"

using namespace dramless;

namespace
{

/** The evaluated grid: kernels x vertex counts x edge factors. */
struct Grid
{
    std::vector<std::uint64_t> vertices;
    std::vector<double> edgeFactors;
};

Grid
gridFromEnv()
{
    if (std::getenv("DRAMLESS_GRAPH_QUICK"))
        return {{16384}, {8.0}};
    return {{16384, 32768}, {8.0, 16.0}};
}

} // anonymous namespace

int
main()
{
    const double scale = bench::scaleFromEnv();
    auto opts = bench::defaultOptions();
    Grid grid = gridFromEnv();
    const std::vector<workload::GraphKernel> kernels = {
        workload::GraphKernel::bfs,
        workload::GraphKernel::pagerank,
        workload::GraphKernel::spmv,
    };

    // ---------------------- workload models ------------------------
    std::vector<std::shared_ptr<const workload::WorkloadModel>>
        models;
    std::vector<std::string> graphNames;
    for (workload::GraphKernel kernel : kernels) {
        for (std::uint64_t v : grid.vertices) {
            for (double ef : grid.edgeFactors) {
                workload::GraphWorkloadConfig cfg;
                cfg.kernel = kernel;
                cfg.graph.numVertices = v;
                cfg.graph.edgeFactor = ef;
                cfg.iterations =
                    kernel == workload::GraphKernel::pagerank ? 2 : 1;
                models.push_back(
                    std::make_shared<workload::GraphWorkload>(cfg));
                graphNames.push_back(models.back()->spec().name);
            }
        }
    }

    // Volume-matched streaming comparator: same bytes and compute
    // intensity as the first BFS grid point, but a regular streaming
    // sweep — the access pattern is the only difference.
    workload::WorkloadSpec stream;
    stream.name = "stream_matched";
    stream.pattern = workload::Pattern::streaming;
    stream.klass = workload::WorkloadClass::memoryIntensive;
    stream.inputBytes = models.front()->spec().inputBytes;
    stream.outputBytes = models.front()->spec().outputBytes;
    stream.opsPerByte = models.front()->spec().opsPerByte;
    models.push_back(workload::modelFor(stream));

    auto kinds = systems::SystemFactory::evaluationOrder();
    auto jobs = runner::makeMatrixJobs(
        kinds, bench::scaled(models, scale), opts);
    runner::SweepRunner pool(runner::jobsFromEnv());
    std::printf("graph sweep: %zu runs (%zu systems x %zu workloads),"
                " %u worker%s, scale %.2f\n\n",
                jobs.size(), kinds.size(), models.size(),
                pool.numWorkers(), pool.numWorkers() == 1 ? "" : "s",
                scale);

    std::vector<systems::RunResult> results =
        pool.run(jobs, runner::stderrProgress());

    auto sink = bench::makeSink(
        "fig_graph_sweep",
        "Graph kernels (BFS/PageRank/SpMV) across all organizations",
        scale);
    for (const auto &r : results)
        sink.add(r);
    runner::ResultMatrix m = sink.matrix();

    // --------------------------- tables ----------------------------
    std::vector<std::string> cols = graphNames;
    cols.push_back(stream.name);
    bench::printHeader("bandwidth vs Hetero", cols, 16);
    const auto &hetero = m.at("Hetero");
    for (auto kind : kinds) {
        const char *label = systems::SystemFactory::label(kind);
        const auto &row = m.at(label);
        std::printf("%-22s", label);
        for (const auto &name : cols) {
            std::printf("%16.2f", row.at(name).bandwidthMBps /
                                      hetero.at(name).bandwidthMBps);
        }
        std::printf("\n");
    }

    // ------------------------ gap metrics --------------------------
    // The accelerated-vs-baseline gap per workload, and the headline
    // ratio of the graph-kernel gap to the matched streaming gap.
    const auto &dless = m.at("DRAM-less");
    std::vector<double> graph_gaps;
    for (const auto &name : graphNames) {
        double gap = dless.at(name).bandwidthMBps /
                     hetero.at(name).bandwidthMBps;
        graph_gaps.push_back(gap);
        sink.metric("gap_vs_hetero/" + name, gap);
    }
    double stream_gap = dless.at(stream.name).bandwidthMBps /
                        hetero.at(stream.name).bandwidthMBps;
    sink.metric("gap_vs_hetero/" + stream.name, stream_gap);
    double graph_gap_gm = stats::geomean(graph_gaps);
    sink.metric("graph_gap_gm", graph_gap_gm);
    sink.metric("graph_vs_stream_gap_ratio",
                graph_gap_gm / stream_gap);
    std::printf("\nDRAM-less vs Hetero gap: graph gm %.2fx, "
                "matched stream %.2fx (ratio %.2f)\n",
                graph_gap_gm, stream_gap, graph_gap_gm / stream_gap);

    sink.exportFromEnv();
    return 0;
}

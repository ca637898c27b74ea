/**
 * @file
 * Golden-file regression test pinning the graph-analytics matrix: a
 * small fixed R-MAT graph run through BFS, PageRank and SpMV on the
 * three headline organizations. Graph traces are pure functions of
 * (graph seed, kernel, partition), so any drift here means either the
 * generator, the kernel access models, or a system model changed —
 * review it, then bless intended changes by regenerating.
 *
 * Regenerate with:
 *   DRAMLESS_UPDATE_GOLDEN=1 build/tests/runner/runner_tests \
 *       --gtest_filter='GraphGoldenTest.*'
 */

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "golden_file.hh"
#include "runner/sweep_runner.hh"
#include "sim/json.hh"
#include "sim/logging.hh"
#include "workload/graph.hh"

#ifndef DRAMLESS_GOLDEN_DIR
#error "DRAMLESS_GOLDEN_DIR must point at tests/runner/golden"
#endif

namespace dramless
{
namespace
{

const std::vector<systems::SystemKind> kGoldenKinds = {
    systems::SystemKind::dramLess,
    systems::SystemKind::integratedSlc,
    systems::SystemKind::hetero,
};

/** Render one run as stable "system/workload key value" lines. */
void
emitRun(std::ostringstream &os, const systems::RunResult &r)
{
    const std::string id = r.system + "/" + r.workload;
    auto tick = [&](const char *key, Tick t) {
        os << id << " " << key << " " << t << "\n";
    };
    auto num = [&](const char *key, double v) {
        os << id << " " << key << " " << json::number(v) << "\n";
    };
    tick("exec_time_ticks", r.execTime);
    tick("host_stack_ticks", r.hostStackTime);
    tick("transfer_ticks", r.transferTime);
    tick("storage_stall_ticks", r.storageStallTime);
    tick("compute_ticks", r.computeTime);
    num("energy_total_j", r.energy.total());
    num("bandwidth_mbps", r.bandwidthMBps);
    os << id << " total_instructions " << r.totalInstructions << "\n";
    os << id << " bytes_processed " << r.bytesProcessed << "\n";
}

std::string
currentSnapshot()
{
    setQuiet(true);
    systems::SystemOptions opts; // scale 1.0: the graph is tiny

    std::vector<std::shared_ptr<const workload::WorkloadModel>>
        models;
    for (workload::GraphKernel k :
         {workload::GraphKernel::bfs, workload::GraphKernel::pagerank,
          workload::GraphKernel::spmv}) {
        workload::GraphWorkloadConfig cfg;
        cfg.kernel = k;
        cfg.graph.numVertices = 1024;
        cfg.graph.edgeFactor = 8.0;
        cfg.graph.seed = 42;
        models.push_back(
            std::make_shared<workload::GraphWorkload>(cfg));
    }

    auto jobs = runner::makeMatrixJobs(kGoldenKinds, models, opts);
    auto results = runner::SweepRunner(2).run(jobs);

    std::ostringstream os;
    os << "# Golden graph-analytics metrics, v=1024 ef=8 seed=42. "
          "Regenerate with DRAMLESS_UPDATE_GOLDEN=1.\n";
    for (const auto &r : results)
        emitRun(os, r);
    return os.str();
}

std::string
goldenPath()
{
    return std::string(DRAMLESS_GOLDEN_DIR) + "/graph_metrics.txt";
}

TEST(GraphGoldenTest, GraphMatrixMatchesGoldenFile)
{
    expectMatchesGolden(goldenPath(), currentSnapshot());
}

TEST(GraphGoldenTest, SnapshotIsStableAcrossRepeatedRuns)
{
    EXPECT_EQ(currentSnapshot(), currentSnapshot());
}

} // namespace
} // namespace dramless

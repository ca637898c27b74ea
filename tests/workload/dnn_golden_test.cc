/**
 * @file
 * Golden-file regression test pinning the DNN inference matrix: the
 * three named networks (lenet / mlp / ffn, batch 1) run through the
 * three headline organizations. DNN traces are pure functions of
 * (network, partition, layout) — no RNG at all — so any drift here
 * means either the trace schedule, the layout, or a system model
 * changed: review it, then bless intended changes by regenerating.
 *
 * Regenerate with:
 *   DRAMLESS_UPDATE_GOLDEN=1 build/tests/workload/dnn_tests \
 *       --gtest_filter='DnnGoldenTest.*'
 */

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "golden_file.hh"
#include "runner/sweep_runner.hh"
#include "sim/json.hh"
#include "sim/logging.hh"
#include "workload/dnn.hh"

#ifndef DRAMLESS_GOLDEN_DIR
#error "DRAMLESS_GOLDEN_DIR must point at tests/workload/golden"
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
    systems::SystemOptions opts; // scale 1.0: the networks are tiny

    std::vector<std::shared_ptr<const workload::WorkloadModel>>
        models;
    for (const char *net : {"lenet", "mlp", "ffn"})
        models.push_back(workload::dnnModelFor(net, 1));

    auto jobs = runner::makeMatrixJobs(kGoldenKinds, models, opts);
    auto results = runner::SweepRunner(2).run(jobs);

    std::ostringstream os;
    os << "# Golden DNN inference metrics, lenet/mlp/ffn batch 1. "
          "Regenerate with DRAMLESS_UPDATE_GOLDEN=1.\n";
    for (const auto &r : results)
        emitRun(os, r);
    return os.str();
}

std::string
goldenPath()
{
    return std::string(DRAMLESS_GOLDEN_DIR) + "/dnn_metrics.txt";
}

TEST(DnnGoldenTest, DnnMatrixMatchesGoldenFile)
{
    expectMatchesGolden(goldenPath(), currentSnapshot());
}

TEST(DnnGoldenTest, SnapshotIsStableAcrossRepeatedRuns)
{
    EXPECT_EQ(currentSnapshot(), currentSnapshot());
}

} // namespace
} // namespace dramless

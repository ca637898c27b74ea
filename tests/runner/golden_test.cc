/**
 * @file
 * Golden-file regression test pinning the key Figure 16 (execution
 * time decomposition) and Figure 17 (energy decomposition) metrics at
 * a fixed small workload scale. The simulator is deterministic, so
 * any drift in these numbers is a behavioral change that must be
 * reviewed — and, if intended, blessed by regenerating the golden
 * file with DRAMLESS_UPDATE_GOLDEN=1.
 *
 * Regenerate with:
 *   DRAMLESS_UPDATE_GOLDEN=1 build/tests/runner/runner_tests \
 *       --gtest_filter='GoldenTest.*'
 */

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "golden_file.hh"
#include "runner/sweep_runner.hh"
#include "sim/json.hh"
#include "sim/logging.hh"

#ifndef DRAMLESS_GOLDEN_DIR
#error "DRAMLESS_GOLDEN_DIR must point at tests/runner/golden"
#endif

namespace dramless
{
namespace
{

/** The pinned configuration: small, fast, and covers both figures. */
constexpr double kGoldenScale = 0.05;

const std::vector<systems::SystemKind> kGoldenKinds = {
    systems::SystemKind::dramLess,
    systems::SystemKind::integratedSlc,
    systems::SystemKind::hetero,
    // Appended after the original three so their rows stay in place:
    // every other integrated organization, then the Figure 13
    // scheduler variants below.
    systems::SystemKind::norIntf,
    systems::SystemKind::integratedMlc,
    systems::SystemKind::integratedTlc,
    systems::SystemKind::pageBuffer,
    systems::SystemKind::dramLessFirmware,
    systems::SystemKind::ideal,
};

const std::vector<systems::IntegratedKind> kGoldenVariants = {
    systems::IntegratedKind::dramLessBareMetal,
    systems::IntegratedKind::dramLessInterleaving,
    systems::IntegratedKind::dramLessSelectiveErase,
};

const std::vector<const char *> kGoldenWorkloads = {"gemver",
                                                    "doitg"};

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
    // Figure 16: execution time and its decomposition.
    tick("exec_time_ticks", r.execTime);
    tick("host_stack_ticks", r.hostStackTime);
    tick("transfer_ticks", r.transferTime);
    tick("storage_stall_ticks", r.storageStallTime);
    tick("compute_ticks", r.computeTime);
    // Figure 17: energy by architectural category.
    num("energy_host_stack_j", r.energy.hostStack);
    num("energy_pcie_j", r.energy.pcie);
    num("energy_accel_cores_j", r.energy.accelCores);
    num("energy_dram_j", r.energy.dram);
    num("energy_storage_media_j", r.energy.storageMedia);
    num("energy_controller_j", r.energy.controller);
    num("energy_total_j", r.energy.total());
    // Headline throughput.
    num("bandwidth_mbps", r.bandwidthMBps);
    os << id << " total_instructions " << r.totalInstructions << "\n";
    os << id << " bytes_processed " << r.bytesProcessed << "\n";
}

std::string
currentSnapshot()
{
    setQuiet(true);
    const systems::SystemOptions opts;

    std::vector<std::shared_ptr<const workload::WorkloadModel>> models;
    for (const char *name : kGoldenWorkloads) {
        models.push_back(
            workload::modelFor(workload::Polybench::byName(name))
                ->scaled(kGoldenScale));
    }

    auto jobs = runner::makeMatrixJobs(kGoldenKinds, models, opts);
    for (systems::IntegratedKind v : kGoldenVariants) {
        for (const auto &model : models) {
            jobs.push_back(runner::SweepJob{
                systems::integratedKindName(v), model->spec().name,
                [v, model, opts] {
                    return systems::SystemFactory::
                        createDramLessVariant(v, opts)
                            ->run(*model);
                }});
        }
    }
    auto results = runner::SweepRunner(2).run(jobs);

    std::ostringstream os;
    os << "# Golden Fig16/Fig17 metrics, scale " << kGoldenScale
       << ". Regenerate with DRAMLESS_UPDATE_GOLDEN=1.\n";
    for (const auto &r : results)
        emitRun(os, r);
    return os.str();
}

std::string
goldenPath()
{
    return std::string(DRAMLESS_GOLDEN_DIR) +
           "/fig16_fig17_metrics.txt";
}

TEST(GoldenTest, Fig16Fig17MetricsMatchGoldenFile)
{
    expectMatchesGolden(goldenPath(), currentSnapshot());
}

TEST(GoldenTest, SnapshotIsStableAcrossRepeatedRuns)
{
    // Guards the golden test itself: the snapshot must be a pure
    // function of the configuration.
    EXPECT_EQ(currentSnapshot(), currentSnapshot());
}

} // namespace
} // namespace dramless

/**
 * @file
 * Determinism guarantees of the parallel experiment runner: running
 * the same (system, workload) configurations through SweepRunner
 * with any worker count must produce stats snapshots bit-identical
 * to a serial run. Each job owns a private EventQueue and system
 * instance, so this holds by construction — these tests lock it in.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <sstream>

#include "runner/sweep_runner.hh"
#include "runner/trace_export.hh"
#include "sim/logging.hh"
#include "workload/graph.hh"

namespace dramless
{
namespace
{

using runner::SweepJob;
using runner::SweepRunner;
using systems::RunResult;
using systems::SystemKind;

/** Default options, with the simulator's log quieted. */
systems::SystemOptions
quietOptions()
{
    setQuiet(true);
    return systems::SystemOptions{};
}

/** Scale of the tiny but non-trivial runs. */
constexpr double kTinyScale = 0.02;

/** Polybench kernel @p name at kTinyScale. */
std::shared_ptr<const workload::WorkloadModel>
tinyModel(const char *name)
{
    return workload::modelFor(workload::Polybench::byName(name))
        ->scaled(kTinyScale);
}

/** A small mixed job list covering three organizations. */
std::vector<SweepJob>
sampleJobs()
{
    const std::vector<SystemKind> kinds = {
        SystemKind::dramLess,
        SystemKind::integratedSlc,
        SystemKind::hetero,
    };
    return runner::makeMatrixJobs(
        kinds,
        {tinyModel("gemver"), tinyModel("doitg"), tinyModel("trmm")},
        quietOptions());
}

void
expectSeriesIdentical(const stats::TimeSeries &a,
                      const stats::TimeSeries &b)
{
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        // Bit-identical: exact tick and exact double equality.
        EXPECT_EQ(a.samples()[i].when, b.samples()[i].when);
        EXPECT_EQ(a.samples()[i].value, b.samples()[i].value);
    }
}

void
expectResultIdentical(const RunResult &a, const RunResult &b)
{
    EXPECT_EQ(a.system, b.system);
    EXPECT_EQ(a.workload, b.workload);
    EXPECT_EQ(a.execTime, b.execTime);
    EXPECT_EQ(a.hostStackTime, b.hostStackTime);
    EXPECT_EQ(a.transferTime, b.transferTime);
    EXPECT_EQ(a.storageStallTime, b.storageStallTime);
    EXPECT_EQ(a.computeTime, b.computeTime);
    EXPECT_EQ(a.bandwidthMBps, b.bandwidthMBps);
    EXPECT_EQ(a.totalInstructions, b.totalInstructions);
    EXPECT_EQ(a.bytesProcessed, b.bytesProcessed);
    EXPECT_EQ(a.energy.hostStack, b.energy.hostStack);
    EXPECT_EQ(a.energy.pcie, b.energy.pcie);
    EXPECT_EQ(a.energy.accelCores, b.energy.accelCores);
    EXPECT_EQ(a.energy.dram, b.energy.dram);
    EXPECT_EQ(a.energy.storageMedia, b.energy.storageMedia);
    EXPECT_EQ(a.energy.controller, b.energy.controller);
    EXPECT_EQ(a.reliability.verifyRetries, b.reliability.verifyRetries);
    EXPECT_EQ(a.reliability.failedWrites, b.reliability.failedWrites);
    EXPECT_EQ(a.reliability.badLineRemaps, b.reliability.badLineRemaps);
    EXPECT_EQ(a.reliability.spareLinesUsed,
              b.reliability.spareLinesUsed);
    EXPECT_EQ(a.reliability.gapMoveWrites, b.reliability.gapMoveWrites);
    EXPECT_EQ(a.reliability.firmwareTimeouts,
              b.reliability.firmwareTimeouts);
    EXPECT_EQ(a.reliability.firmwareGiveUps,
              b.reliability.firmwareGiveUps);
    EXPECT_EQ(a.reliability.maxLineWear, b.reliability.maxLineWear);
    EXPECT_EQ(a.reliability.writesBeforeFirstRemap,
              b.reliability.writesBeforeFirstRemap);
    expectSeriesIdentical(a.ipc, b.ipc);
    expectSeriesIdentical(a.corePower, b.corePower);
    expectSeriesIdentical(a.cumulativeEnergy, b.cumulativeEnergy);
}

TEST(DeterminismTest, RepeatedSerialRunsAreBitIdentical)
{
    auto opts = quietOptions();
    const auto model = tinyModel("gemver");
    auto a = systems::SystemFactory::create(SystemKind::dramLess,
                                            opts)
                 ->run(*model);
    auto b = systems::SystemFactory::create(SystemKind::dramLess,
                                            opts)
                 ->run(*model);
    expectResultIdentical(a, b);
}

TEST(DeterminismTest, FaultInjectionIsSeedDeterministic)
{
    // A fixed fault seed with a nonzero error rate must reproduce
    // bit-identically — including every reliability counter — and
    // must actually exercise the retry machinery.
    auto opts = quietOptions();
    opts.wearLeveling = true;
    opts.gapMovePeriod = 50;
    opts.reliability.enabled = true;
    opts.reliability.seed = 42;
    opts.reliability.writeFailProb = 0.05;
    const auto model = tinyModel("gemver");
    auto a = systems::SystemFactory::create(SystemKind::dramLess,
                                            opts)
                 ->run(*model);
    auto b = systems::SystemFactory::create(SystemKind::dramLess,
                                            opts)
                 ->run(*model);
    expectResultIdentical(a, b);
    EXPECT_GT(a.reliability.verifyRetries, 0u);
    EXPECT_GT(a.reliability.maxLineWear, 0u);
    EXPECT_GT(a.reliability.gapMoveWrites, 0u);
}

TEST(DeterminismTest, InjectionDisabledReportsAllZeroOutcome)
{
    auto opts = quietOptions();
    auto r = systems::SystemFactory::create(SystemKind::dramLess,
                                            opts)
                 ->run(*tinyModel("doitg"));
    EXPECT_EQ(r.reliability.verifyRetries, 0u);
    EXPECT_EQ(r.reliability.failedWrites, 0u);
    EXPECT_EQ(r.reliability.badLineRemaps, 0u);
    EXPECT_EQ(r.reliability.gapMoveWrites, 0u);
    EXPECT_EQ(r.reliability.firmwareTimeouts, 0u);
    EXPECT_EQ(r.reliability.maxLineWear, 0u);
}

TEST(DeterminismTest, ParallelSweepMatchesSerialSweep)
{
    auto jobs = sampleJobs();

    SweepRunner serial(1);
    std::vector<RunResult> ref = serial.run(jobs);
    ASSERT_EQ(ref.size(), jobs.size());

    SweepRunner parallel(4);
    ASSERT_EQ(parallel.numWorkers(), 4u);
    std::vector<RunResult> par = parallel.run(jobs);
    ASSERT_EQ(par.size(), ref.size());

    for (std::size_t i = 0; i < ref.size(); ++i) {
        SCOPED_TRACE(jobs[i].system + "/" + jobs[i].workload);
        expectResultIdentical(ref[i], par[i]);
    }
}

/**
 * Forwards to a wrapped model and counts scaled() calls, on it and on
 * every copy scaled from it: the copies share one counter.
 */
class ScaleCountingModel : public workload::WorkloadModel
{
  public:
    explicit ScaleCountingModel(
        std::shared_ptr<const workload::WorkloadModel> inner,
        std::shared_ptr<std::atomic<int>> calls =
            std::make_shared<std::atomic<int>>(0))
        : inner_(std::move(inner)), calls_(std::move(calls))
    {}

    const workload::WorkloadSpec &
    spec() const override
    {
        return inner_->spec();
    }

    std::shared_ptr<const workload::WorkloadModel>
    scaled(double factor) const override
    {
        ++*calls_;
        return std::make_shared<ScaleCountingModel>(
            inner_->scaled(factor), calls_);
    }

    std::shared_ptr<const workload::WorkloadModel>
    chunked(std::uint32_t chunks) const override
    {
        return inner_->chunked(chunks);
    }

    std::unique_ptr<workload::AgentTraceSource>
    makeAgentTrace(const workload::AgentTraceParams &p) const override
    {
        return inner_->makeAgentTrace(p);
    }

    int scaledCalls() const { return calls_->load(); }

  private:
    std::shared_ptr<const workload::WorkloadModel> inner_;
    std::shared_ptr<std::atomic<int>> calls_;
};

TEST(DeterminismTest, ModelMatrixScalesEachModelOnce)
{
    // The caller scales each model once; neither the matrix nor the
    // runs scale it again, and each job equals makeJob() on its pair.
    const auto opts = quietOptions();
    const std::vector<SystemKind> kinds = {
        SystemKind::dramLess,
        SystemKind::integratedSlc,
        SystemKind::hetero,
    };
    workload::GraphWorkloadConfig graph;
    graph.kernel = workload::GraphKernel::pagerank;
    graph.graph.numVertices = 4096;
    const std::vector<std::shared_ptr<ScaleCountingModel>> counted = {
        std::make_shared<ScaleCountingModel>(
            std::make_shared<workload::GraphWorkload>(graph)),
        std::make_shared<ScaleCountingModel>(workload::modelFor(
            workload::Polybench::byName("gemver"))),
    };
    std::vector<std::shared_ptr<const workload::WorkloadModel>> models;
    for (const auto &m : counted)
        models.push_back(m->scaled(kTinyScale));

    auto jobs = runner::makeMatrixJobs(kinds, models, opts);
    auto results = SweepRunner(2).run(jobs);
    std::size_t i = 0;
    for (SystemKind kind : kinds) {
        for (const auto &m : models) {
            SCOPED_TRACE(jobs[i].system + "/" + jobs[i].workload);
            EXPECT_EQ(jobs[i].workload, m->spec().name);
            expectResultIdentical(runner::makeJob(kind, m, opts).run(),
                                  results[i]);
            ++i;
        }
    }
    for (const auto &m : counted)
        EXPECT_EQ(m->scaledCalls(), 1) << m->spec().name;
}

TEST(DeterminismTest, DramlessJobsEnvSelectsWorkerCount)
{
    ASSERT_EQ(setenv("DRAMLESS_JOBS", "3", 1), 0);
    EXPECT_EQ(runner::jobsFromEnv(), 3u);
    SweepRunner pool(runner::jobsFromEnv());
    EXPECT_EQ(pool.numWorkers(), 3u);

    // A run through the env-selected pool is still bit-identical
    // to a serial run.
    auto jobs = sampleJobs();
    jobs.resize(3);
    auto par = pool.run(jobs);
    auto ref = SweepRunner(1).run(jobs);
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        SCOPED_TRACE(jobs[i].system + "/" + jobs[i].workload);
        expectResultIdentical(ref[i], par[i]);
    }

    ASSERT_EQ(unsetenv("DRAMLESS_JOBS"), 0);
    EXPECT_EQ(runner::jobsFromEnv(), 0u);
}

TEST(DeterminismTest, TracingOnDoesNotPerturbResults)
{
    // Tracing only observes the simulation; results with
    // DRAMLESS_TRACE set must stay bit-identical to an untraced
    // serial run, and the merged session file must be produced.
    auto jobs = sampleJobs();

    std::vector<RunResult> ref = SweepRunner(1).run(jobs);

    std::string tracePath = std::string(::testing::TempDir()) +
                            "/dramless_determinism_trace.json";
    ASSERT_EQ(setenv("DRAMLESS_TRACE", tracePath.c_str(), 1), 0);
    std::vector<RunResult> par = SweepRunner(4).run(jobs);
    runner::flushTraceSessions();
    ASSERT_EQ(unsetenv("DRAMLESS_TRACE"), 0);

    ASSERT_EQ(par.size(), ref.size());
    for (std::size_t i = 0; i < ref.size(); ++i) {
        SCOPED_TRACE(jobs[i].system + "/" + jobs[i].workload);
        expectResultIdentical(ref[i], par[i]);
    }

    std::ifstream trace(tracePath);
    ASSERT_TRUE(trace.good()) << tracePath;
    std::stringstream buf;
    buf << trace.rdbuf();
    EXPECT_NE(buf.str().find("\"traceEvents\""), std::string::npos);
    EXPECT_NE(buf.str().find("\"ph\":\"X\""), std::string::npos);

    std::remove(tracePath.c_str());
    for (const auto &job : jobs) {
        std::remove(runner::jobTracePath(tracePath, job.system,
                                         job.workload)
                        .c_str());
    }
}

TEST(DeterminismTest, ResultsKeepJobOrderRegardlessOfFinishOrder)
{
    // Mix fast and slow jobs so completion order differs from
    // submission order under parallel execution.
    auto opts = quietOptions();
    std::vector<SweepJob> jobs;
    jobs.push_back(runner::makeJob(SystemKind::norIntf,
                                   tinyModel("durbin"),
                                   opts)); // slowest organization
    jobs.push_back(runner::makeJob(SystemKind::ideal,
                                   tinyModel("trisolv"),
                                   opts)); // fastest
    jobs.push_back(
        runner::makeJob(SystemKind::dramLess, tinyModel("jaco1D"), opts));

    auto results = SweepRunner(3).run(jobs);
    ASSERT_EQ(results.size(), 3u);
    EXPECT_EQ(results[0].system, "NOR-intf");
    EXPECT_EQ(results[0].workload, "durbin");
    EXPECT_EQ(results[1].system, "Ideal");
    EXPECT_EQ(results[1].workload, "trisolv");
    EXPECT_EQ(results[2].system, "DRAM-less");
    EXPECT_EQ(results[2].workload, "jaco1D");
}

TEST(DeterminismTest, ProgressReportsEveryCompletion)
{
    auto jobs = sampleJobs();
    jobs.resize(4);
    std::vector<std::size_t> seen;
    std::size_t total = 0;
    SweepRunner pool(2);
    pool.run(jobs, [&](std::size_t done, std::size_t n,
                       const SweepJob &) {
        seen.push_back(done);
        total = n;
    });
    EXPECT_EQ(total, jobs.size());
    // Every completion count 1..N observed exactly once (the
    // callback runs under a mutex, but order may vary).
    std::sort(seen.begin(), seen.end());
    ASSERT_EQ(seen.size(), jobs.size());
    for (std::size_t i = 0; i < seen.size(); ++i)
        EXPECT_EQ(seen[i], i + 1);
}

} // namespace
} // namespace dramless

/**
 * @file
 * Tests of the SweepRunner job-exception path: a throwing job must
 * keep its result slot, leave sibling rows untouched, and either
 * abort the sweep (default) or surface the failure in its row when
 * continue-on-error is requested.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <cstdlib>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "runner/sweep_runner.hh"
#include "sim/logging.hh"
#include "systems/metrics.hh"

namespace dramless
{
namespace
{

using runner::SweepJob;
using runner::SweepRunner;
using systems::RunResult;

/**
 * A matrix of trivial jobs where job @p throw_at throws mid-sweep.
 * Successful jobs stamp their index into bandwidthMBps so slot
 * alignment is checkable from the outside.
 */
std::vector<SweepJob>
makeMarkedJobs(std::size_t count, std::size_t throw_at)
{
    std::vector<SweepJob> jobs;
    jobs.reserve(count);
    for (std::size_t i = 0; i < count; ++i) {
        SweepJob job;
        job.system = "sys" + std::to_string(i);
        job.workload = "wl" + std::to_string(i);
        job.run = [i, throw_at]() {
            if (i == throw_at)
                throw std::runtime_error("injected fault");
            RunResult r;
            r.system = "sys" + std::to_string(i);
            r.workload = "wl" + std::to_string(i);
            r.bandwidthMBps = double(i) + 1.0;
            r.execTime = Tick(i + 1) * 1000;
            return r;
        };
        jobs.push_back(std::move(job));
    }
    return jobs;
}

void
expectMatrixIntact(const std::vector<RunResult> &results,
                   std::size_t count, std::size_t throw_at)
{
    ASSERT_EQ(results.size(), count);
    for (std::size_t i = 0; i < count; ++i) {
        // Every row keeps its labels, failed or not: indexing into
        // the (system, workload) matrix never skews.
        EXPECT_EQ(results[i].system, "sys" + std::to_string(i));
        EXPECT_EQ(results[i].workload, "wl" + std::to_string(i));
        if (i == throw_at) {
            EXPECT_TRUE(results[i].failed());
            EXPECT_EQ(results[i].error, "injected fault");
            EXPECT_DOUBLE_EQ(results[i].bandwidthMBps, 0.0);
        } else {
            EXPECT_FALSE(results[i].failed());
            EXPECT_DOUBLE_EQ(results[i].bandwidthMBps,
                             double(i) + 1.0);
            EXPECT_EQ(results[i].execTime, Tick(i + 1) * 1000);
        }
    }
}

TEST(SweepRunnerTest, AllJobsSucceedInOrder)
{
    // throw_at past the end: nothing throws.
    auto jobs = makeMarkedJobs(6, 99);
    SweepRunner runner(3);
    auto results = runner.run(jobs);
    ASSERT_EQ(results.size(), 6u);
    for (std::size_t i = 0; i < results.size(); ++i) {
        EXPECT_FALSE(results[i].failed());
        EXPECT_DOUBLE_EQ(results[i].bandwidthMBps, double(i) + 1.0);
    }
    // An explicit worker count is honored even past the core count.
    EXPECT_EQ(SweepRunner(64).numWorkers(), 64u);
}

TEST(SweepRunnerTest, ThrowingJobKeepsSlotWithContinueOnError)
{
    auto jobs = makeMarkedJobs(7, 3);
    SweepRunner runner(4);
    runner.setContinueOnError(true);
    auto results = runner.run(jobs);
    expectMatrixIntact(results, 7, 3);
}

TEST(SweepRunnerTest, SerialRunnerSurvivesMidSweepThrow)
{
    // One worker degenerates to a serial loop on the calling
    // thread: jobs after the throwing one must still run.
    auto jobs = makeMarkedJobs(5, 1);
    SweepRunner runner(1);
    runner.setContinueOnError(true);
    auto results = runner.run(jobs);
    expectMatrixIntact(results, 5, 1);
}

TEST(SweepRunnerTest, FailedJobStillCountsTowardProgress)
{
    auto jobs = makeMarkedJobs(6, 2);
    SweepRunner runner(2);
    runner.setContinueOnError(true);
    std::atomic<std::size_t> calls{0};
    std::size_t max_done = 0;
    auto results = runner.run(
        jobs, [&](std::size_t done, std::size_t total,
                  const SweepJob &) {
            ++calls;
            EXPECT_EQ(total, 6u);
            if (done > max_done)
                max_done = done;
        });
    expectMatrixIntact(results, 6, 2);
    // The failed job is reported like any other completion, so the
    // progress line always reaches total.
    EXPECT_EQ(calls.load(), 6u);
    EXPECT_EQ(max_done, 6u);
}

TEST(SweepRunnerDeathTest, DefaultPolicyAbortsOnFailure)
{
    // Without continue-on-error a failed row must never escape into
    // golden exports: the sweep fatal()s after the pool drains.
    auto jobs = makeMarkedJobs(4, 2);
    SweepRunner runner(2);
    EXPECT_EXIT(runner.run(jobs),
                ::testing::ExitedWithCode(1),
                "sweep job 'sys2/wl2' failed: injected fault");
}

/**
 * jobsFromEnv must reject anything that is not a fully-formed
 * non-negative integer with a warn() and fall back to the default,
 * instead of the old atol() behavior that silently turned "abc"
 * into 0 workers-per-thread and truncated "4x" to 4.
 */
class JobsFromEnvTest : public ::testing::Test
{
  protected:
    void SetUp() override
    {
        if (const char *old = std::getenv("DRAMLESS_JOBS")) {
            saved_ = old;
            had_ = true;
        }
        // warn() prints only when not quiet; other tests flip the
        // global, so pin it for stderr capture.
        setQuiet(false);
    }

    void TearDown() override
    {
        if (had_)
            setenv("DRAMLESS_JOBS", saved_.c_str(), 1);
        else
            unsetenv("DRAMLESS_JOBS");
        setQuiet(true);
    }

    /** @return (parsed value, captured stderr) for @p env. */
    std::pair<unsigned, std::string> parse(const char *env)
    {
        if (env == nullptr)
            unsetenv("DRAMLESS_JOBS");
        else
            setenv("DRAMLESS_JOBS", env, 1);
        ::testing::internal::CaptureStderr();
        unsigned v = runner::jobsFromEnv();
        return {v, ::testing::internal::GetCapturedStderr()};
    }

  private:
    std::string saved_;
    bool had_ = false;
};

TEST_F(JobsFromEnvTest, UnsetAndValidValuesParseSilently)
{
    auto [unset, unset_err] = parse(nullptr);
    EXPECT_EQ(unset, 0u);
    EXPECT_EQ(unset_err, "");

    auto [three, three_err] = parse("3");
    EXPECT_EQ(three, 3u);
    EXPECT_EQ(three_err, "");

    // Explicit 0 is valid: it means one worker per hardware thread.
    auto [zero, zero_err] = parse("0");
    EXPECT_EQ(zero, 0u);
    EXPECT_EQ(zero_err, "");
}

TEST_F(JobsFromEnvTest, GarbageFallsBackWithWarning)
{
    // atol("abc") was silently 0; now the typo is called out.
    auto [abc, abc_err] = parse("abc");
    EXPECT_EQ(abc, 0u);
    EXPECT_NE(abc_err.find("DRAMLESS_JOBS"), std::string::npos);
    EXPECT_NE(abc_err.find("abc"), std::string::npos);
}

TEST_F(JobsFromEnvTest, TrailingGarbageIsNotTruncated)
{
    // atol("4x") silently took the prefix and ran 4 workers.
    auto [v, err] = parse("4x");
    EXPECT_EQ(v, 0u);
    EXPECT_NE(err.find("DRAMLESS_JOBS"), std::string::npos);
}

TEST_F(JobsFromEnvTest, NegativeCountIsRejected)
{
    // atol("-2") wrapped through unsigned into ~4 billion workers.
    auto [v, err] = parse("-2");
    EXPECT_EQ(v, 0u);
    EXPECT_NE(err.find("DRAMLESS_JOBS"), std::string::npos);
}

TEST_F(JobsFromEnvTest, EmptyStringIsRejected)
{
    auto [v, err] = parse("");
    EXPECT_EQ(v, 0u);
    EXPECT_NE(err.find("DRAMLESS_JOBS"), std::string::npos);
}

/** Same strict-parsing contract for the DRAMLESS_SHARDS knob, with
 *  the serial kernel (1) as the fallback instead of all-cores. */
class ShardsFromEnvTest : public ::testing::Test
{
  protected:
    void SetUp() override
    {
        if (const char *old = std::getenv("DRAMLESS_SHARDS")) {
            saved_ = old;
            had_ = true;
        }
        setQuiet(false);
    }

    void TearDown() override
    {
        if (had_)
            setenv("DRAMLESS_SHARDS", saved_.c_str(), 1);
        else
            unsetenv("DRAMLESS_SHARDS");
        setQuiet(true);
    }

    /** @return (parsed value, captured stderr) for @p env. */
    std::pair<unsigned, std::string> parse(const char *env)
    {
        if (env == nullptr)
            unsetenv("DRAMLESS_SHARDS");
        else
            setenv("DRAMLESS_SHARDS", env, 1);
        ::testing::internal::CaptureStderr();
        unsigned v = runner::shardsFromEnv();
        return {v, ::testing::internal::GetCapturedStderr()};
    }

  private:
    std::string saved_;
    bool had_ = false;
};

TEST_F(ShardsFromEnvTest, UnsetMeansSerialKernel)
{
    auto [v, err] = parse(nullptr);
    EXPECT_EQ(v, 1u);
    EXPECT_EQ(err, "");
}

TEST_F(ShardsFromEnvTest, ExplicitValuesParse)
{
    EXPECT_EQ(parse("4").first, 4u);
    // 0 is valid: one kernel worker per hardware thread.
    EXPECT_EQ(parse("0").first, 0u);
}

TEST_F(ShardsFromEnvTest, GarbageFallsBackToSerial)
{
    for (const char *bad : {"abc", "4x", "-2", ""}) {
        auto [v, err] = parse(bad);
        EXPECT_EQ(v, 1u) << "input '" << bad << "'";
        EXPECT_NE(err.find("DRAMLESS_SHARDS"), std::string::npos);
    }
}

/** Same strict-parsing contract for the DRAMLESS_SCALE knob: one
 *  positive number, with the caller's default as the fallback. */
class ScaleFromEnvTest : public ::testing::Test
{
  protected:
    void SetUp() override
    {
        if (const char *old = std::getenv("DRAMLESS_SCALE")) {
            saved_ = old;
            had_ = true;
        }
        setQuiet(false);
    }

    void TearDown() override
    {
        if (had_)
            setenv("DRAMLESS_SCALE", saved_.c_str(), 1);
        else
            unsetenv("DRAMLESS_SCALE");
        setQuiet(true);
    }

    /** @return (parsed value, captured stderr) for @p env with a
     *  0.25 fallback. */
    std::pair<double, std::string> parse(const char *env)
    {
        if (env == nullptr)
            unsetenv("DRAMLESS_SCALE");
        else
            setenv("DRAMLESS_SCALE", env, 1);
        ::testing::internal::CaptureStderr();
        double v = runner::scaleFromEnv(0.25);
        return {v, ::testing::internal::GetCapturedStderr()};
    }

  private:
    std::string saved_;
    bool had_ = false;
};

TEST_F(ScaleFromEnvTest, UnsetMeansTheFallback)
{
    auto [v, err] = parse(nullptr);
    EXPECT_EQ(v, 0.25);
    EXPECT_EQ(err, "");
}

TEST_F(ScaleFromEnvTest, ExplicitValuesParse)
{
    for (auto [text, want] :
         {std::pair<const char *, double>{"0.05", 0.05},
          {"1", 1.0},
          {"2.5e-1", 0.25}}) {
        auto [v, err] = parse(text);
        EXPECT_EQ(v, want) << "input '" << text << "'";
        EXPECT_EQ(err, "") << "input '" << text << "'";
    }
}

TEST_F(ScaleFromEnvTest, GarbageFallsBackWithWarning)
{
    // atof took "0.5x" as 0.5 and "abc" as the fallback, silently.
    for (const char *bad : {"abc", "0.5x", "0", "-1", "", "inf", "nan"}) {
        auto [v, err] = parse(bad);
        EXPECT_EQ(v, 0.25) << "input '" << bad << "'";
        EXPECT_NE(err.find("DRAMLESS_SCALE"), std::string::npos)
            << "input '" << bad << "'";
    }
}

} // namespace
} // namespace dramless

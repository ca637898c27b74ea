#include "runner/sweep_runner.hh"

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <limits>
#include <mutex>
#include <thread>

#include "runner/trace_export.hh"
#include "sim/logging.hh"

namespace dramless
{
namespace runner
{

SweepJob
makeJob(systems::SystemKind kind,
        std::shared_ptr<const workload::WorkloadModel> model,
        const systems::SystemOptions &opts)
{
    fatal_if(!model, "makeJob: null workload model");
    return SweepJob{
        systems::SystemFactory::label(kind), model->spec().name,
        [kind, model, opts]() {
            auto sys = systems::SystemFactory::create(kind, opts);
            return sys->run(*model);
        }};
}

std::vector<SweepJob>
makeMatrixJobs(
    const std::vector<systems::SystemKind> &kinds,
    const std::vector<std::shared_ptr<const workload::WorkloadModel>>
        &models,
    const systems::SystemOptions &opts)
{
    std::vector<SweepJob> jobs;
    jobs.reserve(kinds.size() * models.size());
    for (systems::SystemKind kind : kinds)
        for (const auto &model : models)
            jobs.push_back(makeJob(kind, model, opts));
    return jobs;
}

unsigned
jobsFromEnv()
{
    const char *env = std::getenv("DRAMLESS_JOBS");
    if (env == nullptr)
        return 0;
    // atol-style prefix parsing silently turned "abc" into 0 (= all
    // cores) and "4x" into 4; require the whole string to be one
    // in-range non-negative integer and fall back loudly otherwise.
    char *end = nullptr;
    errno = 0;
    long v = std::strtol(env, &end, 10);
    bool parsed = end != env && *end == '\0' && errno != ERANGE &&
                  v >= 0 &&
                  v <= long(std::numeric_limits<unsigned>::max());
    if (!parsed) {
        warn("ignoring DRAMLESS_JOBS='%s' (not a non-negative "
             "integer); using one worker per hardware thread",
             env);
        return 0;
    }
    return unsigned(v);
}

unsigned
shardsFromEnv()
{
    const char *env = std::getenv("DRAMLESS_SHARDS");
    if (env == nullptr)
        return 1;
    char *end = nullptr;
    errno = 0;
    long v = std::strtol(env, &end, 10);
    bool parsed = end != env && *end == '\0' && errno != ERANGE &&
                  v >= 0 &&
                  v <= long(std::numeric_limits<unsigned>::max());
    if (!parsed) {
        warn("ignoring DRAMLESS_SHARDS='%s' (not a non-negative "
             "integer); using the serial event kernel",
             env);
        return 1;
    }
    return unsigned(v);
}

double
scaleFromEnv(double fallback)
{
    const char *env = std::getenv("DRAMLESS_SCALE");
    if (env == nullptr)
        return fallback;
    // A typo must not run at some other scale: require the whole
    // string to be one finite positive number.
    char *end = nullptr;
    errno = 0;
    double v = std::strtod(env, &end);
    bool parsed = end != env && *end == '\0' && errno != ERANGE &&
                  std::isfinite(v) && v > 0.0;
    if (!parsed) {
        warn("ignoring DRAMLESS_SCALE='%s' (not a positive number); "
             "using %g",
             env, fallback);
        return fallback;
    }
    return v;
}

SweepRunner::SweepRunner(unsigned num_workers) : numWorkers_(num_workers)
{
    if (numWorkers_ == 0)
        numWorkers_ = std::max(1u, std::thread::hardware_concurrency());
}

std::vector<systems::RunResult>
SweepRunner::run(const std::vector<SweepJob> &jobs,
                 const Progress &progress) const
{
    std::vector<systems::RunResult> results(jobs.size());
    if (jobs.empty())
        return results;

    std::atomic<std::size_t> next{0};
    std::atomic<std::size_t> done{0};
    std::mutex progressMutex;
    std::atomic<bool> failed{false};
    std::string failMessage;

    auto worker = [&]() {
        for (;;) {
            std::size_t i =
                next.fetch_add(1, std::memory_order_relaxed);
            if (i >= jobs.size())
                return;
            try {
                JobTraceScope traceScope(jobs[i].system,
                                         jobs[i].workload);
                results[i] = jobs[i].run();
            } catch (const std::exception &e) {
                // The job keeps its slot: labels stay valid, the
                // error message marks the row, and the pool moves on
                // so sibling jobs never lose their results or their
                // index in the matrix.
                results[i].system = jobs[i].system;
                results[i].workload = jobs[i].workload;
                results[i].error =
                    e.what() != nullptr && *e.what() != '\0'
                        ? e.what()
                        : "unknown std::exception";
                std::lock_guard<std::mutex> lock(progressMutex);
                if (!failed.exchange(true,
                                     std::memory_order_relaxed)) {
                    failMessage = csprintf(
                        "sweep job '%s/%s' failed: %s",
                        jobs[i].system.c_str(),
                        jobs[i].workload.c_str(),
                        results[i].error.c_str());
                }
            }
            std::size_t d =
                done.fetch_add(1, std::memory_order_relaxed) + 1;
            if (progress) {
                std::lock_guard<std::mutex> lock(progressMutex);
                progress(d, jobs.size(), jobs[i]);
            }
        }
    };

    unsigned workers =
        unsigned(std::min<std::size_t>(numWorkers_, jobs.size()));
    if (workers <= 1) {
        worker();
    } else {
        std::vector<std::thread> pool;
        pool.reserve(workers);
        for (unsigned w = 0; w < workers; ++w)
            pool.emplace_back(worker);
        for (auto &t : pool)
            t.join();
    }

    // Default policy: a partially-failed matrix must never be
    // silently exported — results feed golden files and figures.
    if (failed.load(std::memory_order_relaxed) && !continueOnError_)
        fatal("%s", failMessage.c_str());
    return results;
}

SweepRunner::Progress
stderrProgress()
{
    return [](std::size_t done, std::size_t total,
              const SweepJob &job) {
        if (done == total) {
            std::fprintf(stderr, "%-60s\r", "");
        } else {
            std::fprintf(stderr, "  [%3zu/%3zu] %-24s %-12s\r", done,
                         total, job.system.c_str(),
                         job.workload.c_str());
        }
        std::fflush(stderr);
    };
}

} // namespace runner
} // namespace dramless

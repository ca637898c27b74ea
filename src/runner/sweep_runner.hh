/**
 * @file
 * Parallel experiment runner.
 *
 * Every evaluation in the reproduction is a matrix of independent
 * (system, workload) simulations: each job builds a private system
 * instance with its own EventQueue, runs one workload, and returns a
 * RunResult. Nothing is shared between jobs, so the matrix is
 * embarrassingly parallel and per-run determinism is untouched —
 * SweepRunner executes jobs on a thread pool and stores results by
 * job index, so the output is bit-identical to a serial run of the
 * same job list regardless of worker count or scheduling order.
 */

#ifndef DRAMLESS_RUNNER_SWEEP_RUNNER_HH
#define DRAMLESS_RUNNER_SWEEP_RUNNER_HH

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "systems/factory.hh"
#include "systems/metrics.hh"
#include "systems/system.hh"
#include "workload/polybench.hh"
#include "workload/workload_model.hh"

namespace dramless
{
namespace runner
{

/**
 * One independent simulation. @c run constructs everything the job
 * needs (system instance, event queue) and must not touch shared
 * mutable state; the labels only name the job for progress output and
 * result keying.
 */
struct SweepJob
{
    /** System label (result matrix row). */
    std::string system;
    /** Workload label (result matrix column). */
    std::string workload;
    /** Build a fresh system and run the workload. */
    std::function<systems::RunResult()> run;
};

/**
 * Build the job running @p model (shared, immutable) on @p kind. The
 * job runs the model at the volume it has: a caller that wants a
 * smaller run scales the model (WorkloadModel::scaled) once, first.
 */
SweepJob
makeJob(systems::SystemKind kind,
        std::shared_ptr<const workload::WorkloadModel> model,
        const systems::SystemOptions &opts);

/**
 * Cross product @p kinds x @p models (Polybench, graphs, ...) in
 * row-major (kind-major) order: makeJob() on every pair.
 */
std::vector<SweepJob>
makeMatrixJobs(
    const std::vector<systems::SystemKind> &kinds,
    const std::vector<std::shared_ptr<const workload::WorkloadModel>>
        &models,
    const systems::SystemOptions &opts);

/**
 * Worker count taken from the DRAMLESS_JOBS environment variable;
 * 0 or unset means one worker per hardware thread. The value must
 * be a fully-formed non-negative integer: anything else ("abc",
 * "4x", "-2", "") is rejected with a warn() and falls back to the
 * default rather than silently becoming 0 or a truncated prefix.
 */
unsigned jobsFromEnv();

/**
 * Per-job event-kernel shard count taken from the DRAMLESS_SHARDS
 * environment variable (see SystemOptions::shards): unset means 1
 * (serial kernel), 0 means one worker per hardware thread. Same
 * strict parsing as jobsFromEnv(): malformed values are rejected
 * with a warn() and fall back to the serial kernel.
 */
unsigned shardsFromEnv();

/**
 * Workload volume scale taken from the DRAMLESS_SCALE environment
 * variable; unset means @p fallback. The value must be one fully
 * formed positive number: anything else ("abc", "0.5x", "0", "-1",
 * "") is rejected with a warn() and falls back to @p fallback.
 */
double scaleFromEnv(double fallback);

/** Thread-pool executor for SweepJob lists. */
class SweepRunner
{
  public:
    /** Called after each job completes: (done, total, finished job). */
    using Progress =
        std::function<void(std::size_t, std::size_t, const SweepJob &)>;

    /**
     * @param num_workers worker threads; 0 means one per hardware
     *        thread (and at least one)
     */
    explicit SweepRunner(unsigned num_workers = 0);

    /** @return the resolved worker count. */
    unsigned numWorkers() const { return numWorkers_; }

    /**
     * Run every job and return results in job order. Jobs are handed
     * to workers in index order; with one worker this degenerates to
     * a plain serial loop on the calling thread.
     *
     * A job that throws std::exception never loses its result slot
     * or skews the matrix indexing: the exception is caught on the
     * worker, the job's row keeps its labels, and the message lands
     * in RunResult::error while the remaining jobs run to
     * completion. After the pool drains, any failed row aborts via
     * fatal() by default — results feed golden-file comparisons, so
     * a partially-failed matrix must never be silently exported.
     * Call setContinueOnError(true) to instead get the full result
     * vector back with failures marked (callers must then check
     * RunResult::failed() before exporting).
     *
     * @param progress optional completion callback, invoked from
     *        worker threads under an internal mutex (safe to print);
     *        failed jobs still count toward @c done.
     */
    std::vector<systems::RunResult>
    run(const std::vector<SweepJob> &jobs,
        const Progress &progress = nullptr) const;

    /**
     * Keep the sweep alive past job failures: when set, run()
     * returns every row (failed ones flagged via RunResult::failed())
     * instead of fatal()ing on the first recorded failure.
     */
    void setContinueOnError(bool keep) { continueOnError_ = keep; }

    /** @return whether failed jobs abort the sweep (default) or not. */
    bool continueOnError() const { return continueOnError_; }

  private:
    unsigned numWorkers_;
    bool continueOnError_ = false;
};

/**
 * Progress callback that repaints one stderr status line
 * ("[done/total] system workload") and clears it when done.
 */
SweepRunner::Progress stderrProgress();

} // namespace runner
} // namespace dramless

#endif // DRAMLESS_RUNNER_SWEEP_RUNNER_HH

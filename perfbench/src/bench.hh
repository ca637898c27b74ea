/**
 * @file
 * Shared pieces of the repository benchmark: the workload interface,
 * the per-pass result record, output checks, the digest of simulated
 * statistics, and the benchmark-side span recorder used by traced
 * runs.
 *
 * Every span is recorded here, around calls into the simulator's
 * public functions; the simulator itself is not instrumented.
 */

#ifndef PERFBENCH_BENCH_HH
#define PERFBENCH_BENCH_HH

#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "serve/fleet.hh"
#include "systems/factory.hh"
#include "workload/workload_model.hh"

namespace perfbench
{

namespace dl = dramless;

using Clock = std::chrono::steady_clock;

/** @return seconds elapsed since @p start. */
inline double
secondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

/** Median of @p v (0 when empty). */
double median(std::vector<double> v);

/** FNV-1a digest over simulated statistics. */
class Digest
{
  public:
    void add(std::uint64_t v);
    void add(double v);
    void add(const std::string &s);
    void add(const dl::systems::RunResult &r);
    void add(const dl::serve::ServingResult &r);
    std::uint64_t value() const { return h_; }

  private:
    std::uint64_t h_ = 1469598103934665603ull;
};

/** Output checks: every expectation counts as one attempted unit. */
struct Checks
{
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<std::string> failures;

    /** Count one unit; record @p what when @p ok is false. */
    bool expect(bool ok, const std::string &what);
    void merge(const Checks &o);
};

/**
 * Spans kept in memory and written out when the benchmark ends. A
 * span's parent is the innermost span open when it started.
 */
class Tracer
{
  public:
    struct Span
    {
        std::string layer;
        std::string name;
        double start = 0.0;
        double end = 0.0;
        int parent = -1;
    };

    int open(const std::string &layer, const std::string &name);
    void close(int id);

    const std::vector<Span> &spans() const { return spans_; }

    /** Write every span as a JSON array; @return false on I/O error. */
    bool writeJson(const std::string &path) const;

  private:
    Clock::time_point origin_ = Clock::now();
    std::vector<Span> spans_;
    std::vector<int> stack_;
};

/** RAII span; does nothing when the tracer is null. */
class SpanScope
{
  public:
    SpanScope(Tracer *t, const std::string &layer,
              const std::string &name)
        : t_(t), id_(t ? t->open(layer, name) : -1)
    {}
    ~SpanScope()
    {
        if (t_)
            t_->close(id_);
    }
    SpanScope(const SpanScope &) = delete;
    SpanScope &operator=(const SpanScope &) = delete;

  private:
    Tracer *t_;
    int id_;
};

using ModelPtr = std::shared_ptr<const dl::workload::WorkloadModel>;

/** One (organization, model) simulation of a batch workload. */
struct BatchJob
{
    /** Organization id used in metric names ("dramless", ...). */
    std::string org;
    std::function<std::unique_ptr<dl::systems::AcceleratedSystem>()>
        make;
    ModelPtr model;
};

/** One executed BatchJob with its host time. */
struct RunRecord
{
    std::string org;
    double wallS = 0.0;
    dl::systems::RunResult result;
};

/** Host-time split of a serving pass (serving_cosim only). */
struct ServingTimes
{
    double probeS = 0.0;
    double fleetS = 0.0;
    std::uint64_t fleetRequests = 0;
    double cosimS = 0.0;
    std::uint64_t cosimEvents = 0;
    /** The below-knee co-sim run alone, and its PDES counters. */
    double cosimLowS = 0.0;
    std::uint64_t windows = 0;
    std::uint64_t messages = 0;
    std::uint64_t lowEvents = 0;
    std::uint64_t lowDigest = 0;
};

/** Everything one timed pass over a workload produced. */
struct PassResult
{
    double wallS = 0.0;
    /**
     * The pass split into timed units, in the same order on every
     * pass: one per simulation call, plus the remainder of wallS.
     */
    std::vector<double> unitS;
    std::uint64_t digest = 0;
    Checks checks;
    /** Simulation-kernel events across every run of the pass. */
    std::uint64_t events = 0;

    /** @name End-to-end simulated metrics @{ */
    double bwGmMBps = 0.0;
    double energyGmMj = 0.0;
    double p99Us = 0.0;
    std::uint64_t p99Samples = 0;
    double goodputRatio = 0.0;
    /** @} */

    std::vector<RunRecord> runs;
    ServingTimes serving;
};

/**
 * Run @p job once: time it, fold it into @p d, and check it: not
 * failed(), every byte processed, and the Figure 16 split summing to
 * execTime.
 */
RunRecord runJob(const BatchJob &job, Tracer *tracer, Checks &checks,
                 Digest &d);

/** One benchmark workload: seeded inputs plus a timed pass. */
class Workload
{
  public:
    virtual ~Workload() = default;

    /**
     * Build every input from @p seed: workload models, scaled copies,
     * options and request schedules. @p build_s receives the time
     * spent in model constructors alone.
     */
    virtual void setup(std::uint64_t seed, double &build_s) = 0;

    /** Run every simulation of the workload once and check it. */
    virtual PassResult pass(Tracer *tracer) = 0;

    /** @return the distinct models the pass simulates. */
    virtual std::vector<ModelPtr> models() const = 0;

    /** @return the options the pass's organizations run with. */
    virtual dl::systems::SystemOptions options() const = 0;

    /**
     * @return the pass's DRAM-less simulations, with Start-Gap wear
     * leveling and fault injection on or off.
     */
    virtual std::vector<BatchJob> dramlessJobs(bool reliability) const
        = 0;

    /**
     * Timed passes of an untraced run: about 25 s of them on the
     * reference host (RelWithDebInfo, shared 4-vCPU VM). The count is
     * fixed, so every build compared takes the same number of samples
     * of each simulation call.
     */
    virtual int passes() const = 0;

    /**
     * Set-ups per set-up sample: at least ~20 ms of set-up on the
     * reference host. A sample is the fastest of them.
     */
    virtual int setupsPerSample() const = 0;
};

/** serving_cosim, which can also re-run its below-knee co-sim. */
class ServingWorkload : public Workload
{
  public:
    /**
     * Re-run the below-knee co-simulation on @p shards event kernel
     * workers. @return host seconds; @p digest receives the result's
     * digest.
     */
    virtual double cosimBelowKnee(unsigned shards,
                                  std::uint64_t &digest) const = 0;
};

/** @return the workload named @p name, or null when unknown. */
std::unique_ptr<Workload> makeWorkload(const std::string &name);

/** @return the serving_cosim workload. */
std::unique_ptr<ServingWorkload> makeServingCosim();

/** Short organization id of @p kind used in metric names. */
const char *orgId(dl::systems::SystemKind kind);

/** The 11 organizations of polybench_matrix, Table I order. */
std::vector<dl::systems::SystemKind> matrixOrgs();

/** A job that runs @p model on @p kind with @p opts. */
BatchJob factoryJob(dl::systems::SystemKind kind, ModelPtr model,
                    const dl::systems::SystemOptions &opts);

/** Metric printed in the result line. */
struct Metric
{
    std::string name;
    double value;
    std::string unit;
};

/**
 * The traced run: every per-layer metric, measured from the
 * benchmark's side around calls into each module.
 */
std::vector<Metric> tracedRun(const std::string &workload,
                              std::uint64_t seed, Checks &checks,
                              Tracer &tracer);

} // namespace perfbench

#endif // PERFBENCH_BENCH_HH

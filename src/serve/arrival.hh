/**
 * @file
 * Open-loop request arrival processes.
 *
 * The serving layer drives a fleet of accelerator nodes with a
 * stream of *requests*, each naming one workload out of a mix
 * (a Polybench kernel, a BFS/PageRank/SpMV query, ...). An
 * ArrivalProcess turns a seeded configuration into a fully
 * deterministic request schedule up front: the same config always
 * produces bit-identical schedules, independent of how many worker
 * threads later execute anything, so serving results are exactly
 * reproducible (the property the determinism suite pins).
 *
 * Two processes cover the evaluation space: Poisson (memoryless
 * open-loop traffic) and a two-state MMPP (bursty traffic
 * alternating between a quiet and a burst rate, the standard
 * bursty-arrival model).
 */

#ifndef DRAMLESS_SERVE_ARRIVAL_HH
#define DRAMLESS_SERVE_ARRIVAL_HH

#include <cstdint>
#include <vector>

#include "sim/ticks.hh"

namespace dramless
{
namespace serve
{

/** One request: an instance of workload @c workloadIndex arriving at
 *  @c arrival. Requests are identified by their schedule position. */
struct Request
{
    std::uint64_t id = 0;
    Tick arrival = 0;
    /** Index into the caller's workload mix (and into the fleet's
     *  per-workload service-time table). */
    std::uint32_t workloadIndex = 0;
    /** Scheduling priority; higher runs first where the fleet's
     *  dispatch is priority-aware. */
    std::uint32_t priority = 0;
};

/** Shared knobs of the generated arrival processes. */
struct ArrivalConfig
{
    /** Mean arrival rate in requests per second. */
    double ratePerSec = 1000.0;
    /** Schedule length in requests. */
    std::uint64_t numRequests = 1000;
    /** RNG seed; same seed => identical schedule. */
    std::uint64_t seed = 1;
    /** Relative weight of each workload in the mix; request
     *  workloadIndex is sampled proportionally. Must be non-empty
     *  with non-negative weights summing > 0. */
    std::vector<double> mixWeights = {1.0};
    /** Optional per-mix-entry priority (parallel to mixWeights);
     *  empty means every request has priority 0. */
    std::vector<std::uint32_t> mixPriorities = {};
};

/** A deterministic request-schedule generator. */
class ArrivalProcess
{
  public:
    virtual ~ArrivalProcess() = default;

    /** @return a short label ("poisson", "mmpp", "trace"). */
    virtual const char *name() const = 0;

    /**
     * @return the full schedule, sorted by non-decreasing arrival
     * tick with ids 0..n-1 in order. Pure: every call returns the
     * same schedule.
     */
    virtual std::vector<Request> generate() const = 0;
};

/** Memoryless open-loop traffic: exponential inter-arrival times. */
class PoissonArrivals : public ArrivalProcess
{
  public:
    explicit PoissonArrivals(ArrivalConfig cfg);

    const char *name() const override { return "poisson"; }
    std::vector<Request> generate() const override;

    const ArrivalConfig &config() const { return config_; }

  private:
    ArrivalConfig config_;
};

/**
 * Two-state Markov-modulated Poisson process: the arrival rate
 * alternates between the quiet base rate and base * burstMultiplier,
 * with exponentially distributed dwell times in each state. The mean
 * rate therefore exceeds ratePerSec; what MMPP adds over Poisson is
 * variance — bursts that pile queues up far beyond what the average
 * rate predicts.
 */
class MmppArrivals : public ArrivalProcess
{
  public:
    /** MMPP-specific knobs on top of the shared config. */
    struct Burst
    {
        /** Burst-state rate = ratePerSec * burstMultiplier. */
        double burstMultiplier = 8.0;
        /** Mean dwell in the quiet state, seconds. */
        double meanQuietSec = 0.02;
        /** Mean dwell in the burst state, seconds. */
        double meanBurstSec = 0.005;
    };

    MmppArrivals(ArrivalConfig cfg, Burst burst);

    const char *name() const override { return "mmpp"; }
    std::vector<Request> generate() const override;

    const ArrivalConfig &config() const { return config_; }
    const Burst &burst() const { return burst_; }

  private:
    ArrivalConfig config_;
    Burst burst_;
};

} // namespace serve
} // namespace dramless

#endif // DRAMLESS_SERVE_ARRIVAL_HH

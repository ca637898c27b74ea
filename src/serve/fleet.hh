/**
 * @file
 * Request-level serving: a fleet of accelerator+PRAM nodes behind an
 * admission/dispatch layer.
 *
 * The paper (and every bench binary before this layer) runs one
 * workload to completion per system instance. A production fleet
 * instead serves an open-loop arrival stream, and the interesting
 * metrics — queueing delay, tail latency, the saturation knee —
 * exist only at that level. Fleet is a deterministic discrete-event
 * queueing simulation over a request schedule: N identical nodes,
 * each a bounded FIFO (optionally priority-ordered) queue in front
 * of one server whose per-workload service time comes from a probe
 * run of the underlying cycle-level system model. Keeping the
 * request level separate from the cycle level makes a load sweep
 * cheap: the expensive system simulation runs once per (node
 * organization, workload) to calibrate service times, then the
 * queueing layer replays millions of requests in microseconds.
 */

#ifndef DRAMLESS_SERVE_FLEET_HH
#define DRAMLESS_SERVE_FLEET_HH

#include <cstdint>
#include <string>
#include <vector>

#include "serve/arrival.hh"
#include "sim/json.hh"
#include "sim/stats.hh"
#include "sim/ticks.hh"

namespace dramless
{
namespace serve
{

/** How an admitted request picks its node. */
enum class DispatchPolicy
{
    /** Rotate over nodes, skipping full queues. */
    roundRobin,
    /** Join the node with the fewest requests in flight + waiting
     *  (ties broken toward the lowest node id). */
    joinShortestQueue,
};

/** @return a short label of @p p ("rr", "jsq"). */
const char *dispatchPolicyName(DispatchPolicy p);

/** Fleet shape and admission bounds. */
struct FleetConfig
{
    /** Independent accelerator+PRAM system instances. */
    std::uint32_t numNodes = 4;
    /** Waiting slots per node (excludes the request in service);
     *  arrivals beyond the bound are rejected. */
    std::uint32_t queueCapacity = 16;
    DispatchPolicy policy = DispatchPolicy::joinShortestQueue;
    /** Order node queues by Request::priority (FIFO within equal
     *  priority) instead of pure FIFO. */
    bool priorityScheduling = false;
};

/** The four timestamps (plus outcome) of one request's life. */
struct RequestRecord
{
    std::uint64_t id = 0;
    std::uint32_t workloadIndex = 0;
    std::uint32_t priority = 0;
    /** Serving node, -1 when rejected. */
    std::int32_t node = -1;
    bool rejected = false;
    /** Generated arrival tick. */
    Tick arrival = 0;
    /** Admission to a node queue (equals arrival in this model). */
    Tick dispatch = 0;
    /** Service start. */
    Tick start = 0;
    /** Service completion. */
    Tick completion = 0;

    /** @return time spent waiting in the node queue. */
    Tick queueingTicks() const { return start - dispatch; }
    /** @return arrival-to-completion latency. */
    Tick endToEndTicks() const { return completion - arrival; }
};

/** Roll-up of one serving run (one fleet, one schedule). */
struct ServingResult
{
    /** Node organization label (Table I). */
    std::string system;
    /** Arrival process label. */
    std::string arrival;
    /** Dispatch policy label. */
    std::string policy;
    std::uint32_t numNodes = 0;
    std::uint32_t queueCapacity = 0;

    /** Per-request timestamps in schedule order. */
    std::vector<RequestRecord> records;

    std::uint64_t offered = 0;
    std::uint64_t completed = 0;
    std::uint64_t rejected = 0;
    /** Last arrival tick of the schedule. */
    Tick lastArrival = 0;
    /** Last service completion (the drain point). */
    Tick lastCompletion = 0;

    /** Offered load measured over the arrival span, requests/s. */
    double offeredRatePerSec = 0.0;
    /** Completed requests over the full span including the drain
     *  tail, requests/s. */
    double goodputPerSec = 0.0;

    /** Queueing / end-to-end latency distributions (microseconds). */
    stats::Histogram queueLatencyUs;
    stats::Histogram e2eLatencyUs;
    /** Total waiting requests across all node queues over time. */
    stats::TimeSeries queueDepth;

    /** @name Exact (sorted-sample) latency percentiles, us.
     *  NaN when no request completed. @{ */
    double p50QueueUs = 0.0, p99QueueUs = 0.0, p999QueueUs = 0.0;
    double p50E2eUs = 0.0, p99E2eUs = 0.0, p999E2eUs = 0.0;
    /** @} */

    /** @return completed / offered (0 when nothing was offered). */
    double
    completionRatio() const
    {
        return offered ? double(completed) / double(offered) : 0.0;
    }

    /**
     * Serialize as one JSON object. @p series_points caps the
     * queue-depth series (0 = full); @p with_records additionally
     * emits the full per-request timestamp table (off by default —
     * it dwarfs the aggregates at production request counts).
     */
    void writeJson(json::JsonWriter &w, std::size_t series_points,
                   bool with_records = false) const;
};

/**
 * The dispatch rule every serving fleet (Fleet, CoSimFleet) admits
 * requests by. @p occupancy(n) is node n's requests in service plus
 * waiting, as the dispatcher sees them; a node has room while that
 * is at most cfg.queueCapacity (an idle server, or a wait queue
 * below its bound). Round robin tries nodes from @p rr_next on,
 * skips full ones and moves @p rr_next past its pick; join the
 * shortest queue takes the least-occupied node (ties to the lowest
 * id) and rejects when even that one is full.
 *
 * @return the chosen node, or -1 to reject the request
 */
template <typename Occupancy>
std::int32_t
pickNode(const FleetConfig &cfg, std::uint32_t &rr_next,
         Occupancy occupancy)
{
    auto has_room = [&](std::uint32_t n) {
        return occupancy(n) <= cfg.queueCapacity;
    };
    if (cfg.policy == DispatchPolicy::roundRobin) {
        for (std::uint32_t k = 0; k < cfg.numNodes; ++k) {
            std::uint32_t cand = (rr_next + k) % cfg.numNodes;
            if (has_room(cand)) {
                rr_next = (cand + 1) % cfg.numNodes;
                return std::int32_t(cand);
            }
        }
        return -1;
    }
    std::uint32_t best = 0;
    for (std::uint32_t n = 1; n < cfg.numNodes; ++n) {
        if (occupancy(n) < occupancy(best))
            best = n;
    }
    return has_room(best) ? std::int32_t(best) : -1;
}

/**
 * The queue-pick rule of every serving node (Fleet's nodes and
 * SimNode): remove and @return the next request to serve from
 * @p waiting (admission order, not empty), the oldest one or, with
 * @p by_priority, the oldest of the highest @p priority(entry).
 * Queues are bounded small, so a linear scan beats maintaining an
 * ordered structure.
 */
template <typename Queue, typename Priority>
typename Queue::value_type
popWaiting(Queue &waiting, bool by_priority, Priority priority)
{
    std::size_t best = 0;
    if (by_priority) {
        for (std::size_t i = 1; i < waiting.size(); ++i) {
            if (priority(waiting[i]) > priority(waiting[best]))
                best = i;
        }
    }
    typename Queue::value_type next = waiting[best];
    waiting.erase(waiting.begin() + std::ptrdiff_t(best));
    return next;
}

/**
 * Fill the aggregate fields of @p res — completed/rejected counts,
 * arrival/completion span, offered/goodput rates, latency histograms
 * and exact percentiles — from its per-request @c records (which must
 * be fully populated, in schedule order). Shared by every serving
 * backend (analytic Fleet, co-simulated CoSimFleet) so the roll-up
 * semantics cannot drift apart.
 */
void rollUpServingResult(ServingResult &res);

/**
 * A fleet of identical nodes serving one request schedule.
 *
 * Service times are a per-workload-index table (ticks), calibrated
 * by running each workload of the mix once on the node's system
 * organization. run() is const and deterministic: the same schedule
 * and table produce bit-identical results on every call.
 */
class Fleet
{
  public:
    /**
     * @param cfg fleet shape
     * @param service_ticks service time of mix entry i on one node;
     *        every entry must be positive
     */
    Fleet(FleetConfig cfg, std::vector<Tick> service_ticks);

    const FleetConfig &config() const { return config_; }
    const std::vector<Tick> &serviceTicks() const
    {
        return serviceTicks_;
    }

    /**
     * Serve @p schedule (sorted by arrival) to completion — every
     * admitted request runs to its service end (open-loop arrivals,
     * drained tail) — and roll up the metrics.
     */
    ServingResult run(const std::vector<Request> &schedule) const;

  private:
    FleetConfig config_;
    std::vector<Tick> serviceTicks_;
};

} // namespace serve
} // namespace dramless

#endif // DRAMLESS_SERVE_FLEET_HH

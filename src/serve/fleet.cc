#include "serve/fleet.hh"

#include <algorithm>
#include <queue>
#include <utility>

#include "sim/logging.hh"

namespace dramless
{
namespace serve
{

const char *
dispatchPolicyName(DispatchPolicy p)
{
    switch (p) {
      case DispatchPolicy::roundRobin:
        return "rr";
      case DispatchPolicy::joinShortestQueue:
        return "jsq";
    }
    panic("unknown dispatch policy");
}

Fleet::Fleet(FleetConfig cfg, std::vector<Tick> service_ticks)
    : config_(cfg), serviceTicks_(std::move(service_ticks))
{
    fatal_if(config_.numNodes == 0, "fleet needs at least one node");
    fatal_if(serviceTicks_.empty(),
             "fleet needs at least one service time");
    for (Tick t : serviceTicks_)
        fatal_if(t == 0, "fleet service times must be positive");
}

namespace
{

/** One node: the request in service plus its bounded wait queue. */
struct NodeState
{
    bool busy = false;
    /** Indices into the schedule, admission order. */
    std::vector<std::size_t> waiting;
};

} // anonymous namespace

ServingResult
Fleet::run(const std::vector<Request> &schedule) const
{
    ServingResult res;
    res.policy = dispatchPolicyName(config_.policy);
    res.numNodes = config_.numNodes;
    res.queueCapacity = config_.queueCapacity;
    res.offered = schedule.size();
    res.queueDepth = stats::TimeSeries(
        "queue_depth", "waiting requests across all node queues");
    res.records.resize(schedule.size());

    std::vector<NodeState> nodes(config_.numNodes);
    // (completion tick, node) — each node serves one request at a
    // time, so the heap never exceeds numNodes entries.
    using Completion = std::pair<Tick, std::uint32_t>;
    std::priority_queue<Completion, std::vector<Completion>,
                        std::greater<Completion>>
        completions;
    std::size_t totalWaiting = 0;

    auto startService = [&](std::uint32_t node_idx, std::size_t req,
                            Tick now) {
        const Request &r = schedule[req];
        RequestRecord &rec = res.records[req];
        rec.start = now;
        rec.completion = now + serviceTicks_[r.workloadIndex];
        rec.node = std::int32_t(node_idx);
        nodes[node_idx].busy = true;
        completions.push({rec.completion, node_idx});
    };

    auto priorityOf = [&](std::size_t req) {
        return schedule[req].priority;
    };
    auto finishOne = [&]() {
        auto [when, node_idx] = completions.top();
        completions.pop();
        NodeState &n = nodes[node_idx];
        n.busy = false;
        if (!n.waiting.empty()) {
            --totalWaiting;
            std::size_t req = popWaiting(
                n.waiting, config_.priorityScheduling, priorityOf);
            startService(node_idx, req, when);
        }
        res.queueDepth.record(when, double(totalWaiting));
    };

    std::uint32_t rrNext = 0;
    Tick prevArrival = 0;
    for (std::size_t i = 0; i < schedule.size(); ++i) {
        const Request &r = schedule[i];
        fatal_if(r.arrival < prevArrival,
                 "request schedule not sorted at index %zu", i);
        fatal_if(r.workloadIndex >= serviceTicks_.size(),
                 "request %zu names workload %u outside the "
                 "service-time table (%zu entries)",
                 i, r.workloadIndex, serviceTicks_.size());
        prevArrival = r.arrival;

        // A completion at exactly the arrival tick frees its slot
        // before admission is decided.
        while (!completions.empty() &&
               completions.top().first <= r.arrival) {
            finishOne();
        }

        RequestRecord &rec = res.records[i];
        rec.id = r.id;
        rec.workloadIndex = r.workloadIndex;
        rec.priority = r.priority;
        rec.arrival = r.arrival;
        rec.dispatch = r.arrival;

        // A node only waits while busy, so busy + waiting is its
        // occupancy.
        const std::int32_t pick =
            pickNode(config_, rrNext, [&](std::uint32_t n) {
                return nodes[n].waiting.size() + (nodes[n].busy ? 1 : 0);
            });

        if (pick < 0) {
            rec.rejected = true;
            // Keep the remaining timestamps at the arrival tick so
            // the latency accessors stay benign on rejected rows.
            rec.start = r.arrival;
            rec.completion = r.arrival;
        } else {
            NodeState &n = nodes[std::size_t(pick)];
            if (!n.busy) {
                startService(std::uint32_t(pick), i, r.arrival);
            } else {
                n.waiting.push_back(i);
                ++totalWaiting;
            }
        }
        res.queueDepth.record(r.arrival, double(totalWaiting));
    }
    while (!completions.empty())
        finishOne();

    rollUpServingResult(res);
    return res;
}

void
rollUpServingResult(ServingResult &res)
{
    res.offered = res.records.size();
    res.completed = 0;
    res.rejected = 0;
    res.lastCompletion = 0;
    std::vector<double> queue_us, e2e_us;
    queue_us.reserve(res.records.size());
    e2e_us.reserve(res.records.size());
    for (const RequestRecord &rec : res.records) {
        if (rec.rejected) {
            ++res.rejected;
            continue;
        }
        ++res.completed;
        res.lastCompletion =
            std::max(res.lastCompletion, rec.completion);
        queue_us.push_back(toUs(rec.queueingTicks()));
        e2e_us.push_back(toUs(rec.endToEndTicks()));
    }
    if (!res.records.empty())
        res.lastArrival = res.records.back().arrival;
    if (res.offered > 0 && res.lastArrival > 0) {
        res.offeredRatePerSec =
            double(res.offered) / toSec(res.lastArrival);
    }
    if (res.completed > 0 && res.lastCompletion > 0) {
        res.goodputPerSec =
            double(res.completed) / toSec(res.lastCompletion);
    }

    auto buildHist = [](const char *hist_name, const char *desc,
                        const std::vector<double> &vals) {
        double hi = 1.0;
        for (double v : vals)
            hi = std::max(hi, v);
        stats::Histogram h(hist_name, 0.0, hi, 256, desc);
        for (double v : vals)
            h.sample(v);
        return h;
    };
    res.queueLatencyUs = buildHist(
        "queue_latency_us", "time waiting in node queues", queue_us);
    res.e2eLatencyUs = buildHist(
        "e2e_latency_us", "arrival-to-completion latency", e2e_us);

    res.p50QueueUs = stats::percentileExact(queue_us, 0.50);
    res.p99QueueUs = stats::percentileExact(queue_us, 0.99);
    res.p999QueueUs = stats::percentileExact(queue_us, 0.999);
    res.p50E2eUs = stats::percentileExact(e2e_us, 0.50);
    res.p99E2eUs = stats::percentileExact(e2e_us, 0.99);
    res.p999E2eUs = stats::percentileExact(e2e_us, 0.999);
}

void
ServingResult::writeJson(json::JsonWriter &w,
                         std::size_t series_points,
                         bool with_records) const
{
    w.beginObject();
    w.keyValue("system", system);
    w.keyValue("arrival", arrival);
    w.keyValue("policy", policy);
    w.keyValue("num_nodes", numNodes);
    w.keyValue("queue_capacity", queueCapacity);
    w.keyValue("offered", offered);
    w.keyValue("completed", completed);
    w.keyValue("rejected", rejected);
    w.keyValue("completion_ratio", completionRatio());
    w.keyValue("last_arrival_ticks", lastArrival);
    w.keyValue("last_completion_ticks", lastCompletion);
    w.keyValue("offered_rate_rps", offeredRatePerSec);
    w.keyValue("goodput_rps", goodputPerSec);

    w.key("latency_us").beginObject();
    w.keyValue("p50_queue", p50QueueUs);
    w.keyValue("p99_queue", p99QueueUs);
    w.keyValue("p999_queue", p999QueueUs);
    w.keyValue("p50_e2e", p50E2eUs);
    w.keyValue("p99_e2e", p99E2eUs);
    w.keyValue("p999_e2e", p999E2eUs);
    w.endObject();

    w.key("queue_latency_us");
    json::write(w, queueLatencyUs);
    w.key("e2e_latency_us");
    json::write(w, e2eLatencyUs);
    w.key("queue_depth");
    json::write(w, queueDepth, series_points);

    if (with_records) {
        w.key("requests").beginArray();
        for (const RequestRecord &r : records) {
            w.beginObject();
            w.keyValue("id", r.id);
            w.keyValue("workload_index", r.workloadIndex);
            w.keyValue("priority", r.priority);
            w.keyValue("node", std::int64_t(r.node));
            w.keyValue("rejected", r.rejected);
            w.keyValue("arrival", r.arrival);
            w.keyValue("dispatch", r.dispatch);
            w.keyValue("start", r.start);
            w.keyValue("completion", r.completion);
            w.endObject();
        }
        w.endArray();
    }
    w.endObject();
}

} // namespace serve
} // namespace dramless

#include "serve/cosim.hh"

#include <algorithm>
#include <utility>

#include "host/pcie.hh"
#include "serve/node_sim.hh"
#include "sim/event_pool.hh"
#include "sim/logging.hh"

namespace dramless
{
namespace serve
{

namespace
{

/** Request descriptor / completion message size on the wire. */
constexpr std::uint64_t kDescriptorBytes = 64;

/** @return the dispatcher<->node hop latency: the PCIe per-transfer
 *  latency plus the wire time of a request descriptor. */
Tick
cosimHopLatency()
{
    host::PcieConfig pcie;
    return pcie.perTransferLatency +
           serializationTicks(kDescriptorBytes, pcie.bytesPerSec);
}

} // anonymous namespace

CoSimFleet::CoSimFleet(
    CoSimConfig cfg,
    std::vector<std::shared_ptr<const workload::WorkloadModel>> mix)
    : config_(std::move(cfg)), mix_(std::move(mix)),
      hop_(cosimHopLatency())
{
    fatal_if(config_.fleet.numNodes == 0,
             "cosim fleet needs at least one node");
    fatal_if(mix_.empty(), "cosim fleet needs a workload mix");
}

ServingResult
CoSimFleet::run(const std::vector<Request> &schedule)
{
    const FleetConfig &fc = config_.fleet;
    ServingResult res;
    res.policy = dispatchPolicyName(fc.policy);
    res.numNodes = fc.numNodes;
    res.queueCapacity = fc.queueCapacity;
    res.queueDepth = stats::TimeSeries(
        "queue_depth",
        "dispatcher's (hop-delayed) view of waiting requests");
    res.records.resize(schedule.size());

    // ------------------------- partitioning -------------------------
    // One cluster per node plus the dispatch frontend; the PCIe hop
    // between them is the lookahead. Everything below the frontend's
    // admission state runs on the owning cluster only.
    pdes::ShardedKernel kernel(hop_);
    pdes::Cluster &front = kernel.addCluster("frontend");
    std::vector<pdes::Cluster *> node_clusters;
    std::vector<std::unique_ptr<SimNode>> nodes;
    for (std::uint32_t n = 0; n < fc.numNodes; ++n) {
        std::string nm = csprintf("node%u", n);
        pdes::Cluster &c = kernel.addCluster(nm);
        node_clusters.push_back(&c);
        nodes.push_back(std::make_unique<SimNode>(
            c.eq(), config_.node, mix_, fc.priorityScheduling, nm));
    }

    // Frontend admission state. occView[n] counts requests dispatched
    // to node n whose completion notice has not yet arrived — the
    // distributed-dispatcher analogue of Fleet's instantaneous
    // busy+waiting occupancy, stale by up to one hop each way.
    std::vector<std::size_t> occ_view(fc.numNodes, 0);
    std::uint32_t rr_next = 0;
    std::uint64_t notified = 0;

    auto viewWaiting = [&] {
        std::size_t w = 0;
        for (std::size_t o : occ_view)
            w += o > 0 ? o - 1 : 0;
        return w;
    };

    // Completion path: node cluster -> frontend, one hop later.
    for (std::uint32_t n = 0; n < fc.numNodes; ++n) {
        nodes[n]->setCompletion(
            [&, n](std::uint64_t req, Tick start, Tick done) {
                kernel.send(
                    *node_clusters[n], front, done + hop_,
                    [&, n, req, start, done] {
                        RequestRecord &rec = res.records[req];
                        rec.start = start;
                        rec.completion = done;
                        occ_view[n]--;
                        ++notified;
                        res.queueDepth.record(front.eq().curTick(),
                                              double(viewWaiting()));
                    });
            });
    }

    // Arrival path: every request is an event on the frontend at its
    // arrival tick. Priority 1 orders same-tick completion notices
    // (priority 0) ahead of arrivals: as in Fleet, a completion at
    // exactly the arrival tick frees its slot first.
    EventPool arrivals(front.eq(), "frontend.arrivals");
    Tick prev_arrival = 0;
    for (std::size_t i = 0; i < schedule.size(); ++i) {
        const Request &r = schedule[i];
        fatal_if(r.arrival < prev_arrival,
                 "request schedule not sorted at index %zu", i);
        fatal_if(r.workloadIndex >= mix_.size(),
                 "request %zu names workload %u outside the mix "
                 "(%zu entries)",
                 i, r.workloadIndex, mix_.size());
        prev_arrival = r.arrival;

        arrivals.schedule(
            r.arrival,
            [&, i] {
                const Request &req = schedule[i];
                RequestRecord &rec = res.records[i];
                rec.id = req.id;
                rec.workloadIndex = req.workloadIndex;
                rec.priority = req.priority;
                rec.arrival = req.arrival;
                rec.dispatch = req.arrival;

                const std::int32_t pick = pickNode(
                    fc, rr_next,
                    [&](std::uint32_t n) { return occ_view[n]; });

                if (pick < 0) {
                    rec.rejected = true;
                    rec.start = req.arrival;
                    rec.completion = req.arrival;
                } else {
                    rec.node = pick;
                    occ_view[std::size_t(pick)]++;
                    kernel.send(
                        front, *node_clusters[std::size_t(pick)],
                        req.arrival + hop_,
                        [node = nodes[std::size_t(pick)].get(), i,
                         widx = req.workloadIndex,
                         prio = req.priority] {
                            node->submit(i, widx, prio);
                        });
                }
                res.queueDepth.record(req.arrival,
                                      double(viewWaiting()));
            },
            /*priority=*/1);
    }

    kernel.run(config_.node.shards);
    kernelStats_ = kernel.kernelStats();

    std::uint64_t admitted = 0;
    for (const RequestRecord &rec : res.records)
        admitted += rec.rejected ? 0 : 1;
    panic_if(notified != admitted,
             "cosim fleet lost requests: %llu admitted, %llu "
             "completion notices",
             (unsigned long long)admitted,
             (unsigned long long)notified);

    rollUpServingResult(res);
    return res;
}

} // namespace serve
} // namespace dramless

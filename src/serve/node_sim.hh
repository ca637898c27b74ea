/**
 * @file
 * A persistent cycle-level accelerator node for co-simulated serving.
 *
 * The Fleet queueing layer (serve/fleet.hh) replays requests against
 * calibrated service-time constants. SimNode is the other end of the
 * fidelity spectrum: one DRAM-less accelerator+PRAM component graph
 * (the same Accelerator, Mcu, PramSubsystem models every bench uses)
 * kept alive across requests, executing each request as a real
 * kernel launch on its own event queue. Service times emerge from
 * the device models — including cross-request contention effects the
 * constant-service-time model cannot express (wear-leveling gap
 * moves, verify retries, scheduler state) — instead of being looked
 * up.
 *
 * A SimNode schedules only on the EventQueue it was constructed
 * with, so it drops directly into a pdes::Cluster: one node per
 * cluster is the conservative-PDES partition of the multi-node
 * serving simulation (sim/pdes.hh).
 */

#ifndef DRAMLESS_SERVE_NODE_SIM_HH
#define DRAMLESS_SERVE_NODE_SIM_HH

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "accel/accelerator.hh"
#include "ctrl/pram_subsystem.hh"
#include "sim/event_pool.hh"
#include "sim/event_queue.hh"
#include "systems/system.hh"
#include "workload/workload_model.hh"

namespace dramless
{
namespace serve
{

/** Counters of one node's serving history. */
struct SimNodeStats
{
    std::uint64_t submitted = 0;
    std::uint64_t completed = 0;
    /** Ticks with a request in service. */
    Tick busyTicks = 0;
};

/**
 * One accelerator+PRAM node serving a stream of requests. Requests
 * queue FIFO (optionally priority-ordered) in front of the
 * accelerator; each one runs as a full kernel launch over the
 * request's workload model.
 */
class SimNode
{
  public:
    /** (request id, service start, completion) — fires on the node's
     *  event queue at the completion tick. */
    using Completion =
        std::function<void(std::uint64_t, Tick, Tick)>;

    /**
     * @param eq the node's private event queue (its cluster's queue
     *        under PDES)
     * @param opts system knobs (PEs, scheduler/geometry overrides,
     *        reliability, coalescing); the node is always the
     *        DRAM-less organization
     * @param mix workload models requests index into
     * @param priority_scheduling pop the highest-priority waiting
     *        request first (FIFO within a level) instead of FIFO
     */
    SimNode(EventQueue &eq, const systems::SystemOptions &opts,
            std::vector<std::shared_ptr<const workload::WorkloadModel>>
                mix,
            bool priority_scheduling, std::string name);
    ~SimNode();

    /** Register the completion callback. */
    void setCompletion(Completion cb) { completion_ = std::move(cb); }

    /**
     * Accept a request naming mix entry @p mix_index at the current
     * tick (call from an event at the request's node-arrival time).
     * Starts service immediately when the accelerator is idle.
     */
    void submit(std::uint64_t id, std::uint32_t mix_index,
                std::uint32_t priority);

    /** @return requests waiting plus in service. */
    std::size_t occupancy() const
    {
        return waiting_.size() + (inService_ ? 1 : 0);
    }

    /** @return tick at which the PRAM subsystem finished booting. */
    Tick storageReady() const { return storageReady_; }

    const SimNodeStats &nodeStats() const { return stats_; }
    const std::string &name() const { return name_; }

  private:
    struct Queued
    {
        std::uint64_t id;
        std::uint32_t mixIndex;
        std::uint32_t priority;
    };

    /** Start the next waiting request when the accelerator is idle. */
    void tryLaunch();

    EventQueue &eventq_;
    systems::SystemOptions opts_;
    std::vector<std::shared_ptr<const workload::WorkloadModel>> mix_;
    bool priorityScheduling_;
    std::string name_;

    std::unique_ptr<ctrl::PramSubsystem> pram_;
    std::unique_ptr<accel::Accelerator> accel_;
    Tick storageReady_ = 0;

    Completion completion_;
    std::deque<Queued> waiting_;
    bool inService_ = false;
    /** Traces of the launch in flight (alive until completion). */
    std::vector<std::unique_ptr<workload::AgentTraceSource>> traces_;
    /** Defers the first launch past PRAM boot. */
    EventPool kick_;
    SimNodeStats stats_;
};

} // namespace serve
} // namespace dramless

#endif // DRAMLESS_SERVE_NODE_SIM_HH

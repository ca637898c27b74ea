/**
 * @file
 * Co-simulated multi-node serving on the sharded PDES kernel.
 *
 * Fleet (serve/fleet.hh) serves a request schedule against a
 * calibrated service-time table — one number per workload, an
 * omniscient dispatcher, zero dispatch latency. CoSimFleet serves the
 * same schedule against N live cycle-level nodes (serve/node_sim.hh):
 * every request is a real kernel launch, and the dispatcher talks to
 * the nodes over a modeled PCIe hop.
 *
 * This is also the simulator's conservative-PDES partition
 * (sim/pdes.hh). The component graphs of distinct nodes never touch:
 * they couple only through the dispatcher, across a link whose
 * latency is fixed and known. So the cluster cut falls on the PCIe
 * boundary — one frontend cluster (arrivals, admission, dispatch)
 * plus one cluster per node — and the synchronization lookahead is
 * exactly the hop latency: PcieLink per-transfer latency plus the
 * serialization time of a request descriptor. `shards` (from
 * SystemOptions::shards) picks the worker-thread count; shards=1 is
 * the serial reference, and every other value is bit-identical to it.
 *
 * Two deliberate semantic differences from Fleet, both physical:
 *  - the dispatcher's occupancy view is *delayed* by the hop (it
 *    learns of a completion one hop after it happens), where Fleet's
 *    is instantaneous;
 *  - service times emerge from the device models, including
 *    cross-request state (wear maps, scheduler state), instead of
 *    being constants.
 */

#ifndef DRAMLESS_SERVE_COSIM_HH
#define DRAMLESS_SERVE_COSIM_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "serve/arrival.hh"
#include "serve/fleet.hh"
#include "sim/pdes.hh"
#include "sim/ticks.hh"
#include "systems/system.hh"
#include "workload/workload_model.hh"

namespace dramless
{
namespace serve
{

/** Co-simulated fleet shape. */
struct CoSimConfig
{
    /** Fleet shape and admission bounds (same meaning as Fleet). */
    FleetConfig fleet;
    /** Per-node system knobs; `node.shards` selects the PDES worker
     *  count for run() (0 = one per host core, 1 = serial). */
    systems::SystemOptions node;
};

/**
 * N cycle-level SimNodes behind an admission/dispatch frontend,
 * executed on a ShardedKernel with one cluster per node.
 */
class CoSimFleet
{
  public:
    CoSimFleet(CoSimConfig cfg,
               std::vector<std::shared_ptr<const workload::WorkloadModel>>
                   mix);

    const CoSimConfig &config() const { return config_; }

    /** @return the dispatcher<->node hop latency, which is also the
     *  PDES lookahead: the default PcieConfig's per-transfer latency
     *  plus the wire time of a 64-byte request descriptor. */
    Tick hopLatency() const { return hop_; }

    /**
     * Serve @p schedule (sorted by arrival) to completion on
     * config().node.shards workers and roll up the metrics.
     * Bit-identical for every shard count.
     */
    ServingResult run(const std::vector<Request> &schedule);

    /** @return PDES counters of the last run() (windows, messages,
     *  events across all clusters). */
    const pdes::KernelStats &kernelStats() const
    {
        return kernelStats_;
    }

  private:
    CoSimConfig config_;
    std::vector<std::shared_ptr<const workload::WorkloadModel>> mix_;
    Tick hop_;
    pdes::KernelStats kernelStats_;
};

} // namespace serve
} // namespace dramless

#endif // DRAMLESS_SERVE_COSIM_HH

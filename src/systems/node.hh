/**
 * @file
 * Node wiring: how SystemOptions become the configuration of an
 * integrated accelerator node's components (Figure 5b), and where a
 * kernel's regions sit in the node's memory.
 *
 * Every entry point that builds such a node uses these functions:
 * the system models (IntegratedSystem, and HeteroSystem for its
 * accelerator), the serving node (serve::SimNode) and the public
 * facade (core::DramLessAccelerator). Each caller still owns its
 * components, since their lifetimes differ: per-run locals, members
 * kept across requests, or a facade with its own event queue.
 */

#ifndef DRAMLESS_SYSTEMS_NODE_HH
#define DRAMLESS_SYSTEMS_NODE_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "accel/accelerator.hh"
#include "ctrl/pram_subsystem.hh"
#include "systems/system.hh"
#include "workload/workload_model.hh"

namespace dramless
{
namespace systems
{

/**
 * @return the PRAM subsystem of an organization that runs
 * @p scheduler, with the geometry override, functional stores, wear
 * leveling and reliability knobs @p opts asks for.
 */
ctrl::SubsystemConfig pramConfig(const SystemOptions &opts,
                                 const ctrl::SchedulerConfig &scheduler);

/** @return the compute fabric @p opts asks for (PEs, sampling). */
accel::AcceleratorConfig acceleratorConfig(const SystemOptions &opts);

/** Where one kernel's regions sit in node memory. */
struct AddressMap
{
    std::uint64_t input = 0;
    std::uint64_t output = 0;
    std::uint64_t image = 0;
};

/**
 * @return the map of @p spec with its input at @p input_base, then
 * its output, then (past 1 MiB of scratch) the kernel image. Each
 * region after the input starts on a 4 KiB boundary, so distinct
 * regions never share an L2 block (1 KiB) and a boundary block's
 * writeback cannot touch the neighbouring region.
 */
AddressMap addressMap(const workload::WorkloadSpec &spec,
                      std::uint64_t input_base = 0);

/**
 * Build one trace of @p model per agent (numPes - 1) over @p map,
 * each behind the coalescing layer at opts.coalesceBytes, into
 * @p traces (replacing its contents), and @return the launch that
 * runs them with a kernelImageBytes image at map.image and each
 * agent's output region as a selective-erasing hint. The launch
 * points into @p traces, which must outlive it.
 */
accel::KernelLaunch
agentLaunch(const workload::WorkloadModel &model,
            const SystemOptions &opts, const AddressMap &map,
            std::vector<std::unique_ptr<workload::AgentTraceSource>>
                &traces);

} // namespace systems
} // namespace dramless

#endif // DRAMLESS_SYSTEMS_NODE_HH

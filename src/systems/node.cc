#include "systems/node.hh"

#include "workload/coalesce.hh"

namespace dramless
{
namespace systems
{

namespace
{

std::uint64_t
alignRegion(std::uint64_t v)
{
    return (v + 4095) / 4096 * 4096;
}

} // anonymous namespace

ctrl::SubsystemConfig
pramConfig(const SystemOptions &opts,
           const ctrl::SchedulerConfig &scheduler)
{
    ctrl::SubsystemConfig cfg;
    cfg.scheduler = scheduler;
    if (opts.geometryOverride)
        cfg.geometry = *opts.geometryOverride;
    cfg.functional = opts.functional;
    cfg.wearLeveling = opts.wearLeveling;
    cfg.gapMovePeriod = opts.gapMovePeriod;
    cfg.reliability = opts.reliability;
    return cfg;
}

accel::AcceleratorConfig
acceleratorConfig(const SystemOptions &opts)
{
    accel::AcceleratorConfig cfg;
    cfg.numPes = opts.numPes;
    cfg.sampleInterval = opts.sampleInterval;
    return cfg;
}

AddressMap
addressMap(const workload::WorkloadSpec &spec, std::uint64_t input_base)
{
    AddressMap map;
    map.input = input_base;
    map.output = alignRegion(input_base + spec.inputBytes);
    map.image = alignRegion(map.output + spec.outputBytes + (1 << 20));
    return map;
}

accel::KernelLaunch
agentLaunch(const workload::WorkloadModel &model,
            const SystemOptions &opts, const AddressMap &map,
            std::vector<std::unique_ptr<workload::AgentTraceSource>>
                &traces)
{
    const std::uint32_t agents = opts.numPes - 1;
    traces.clear();
    accel::KernelLaunch launch;
    launch.imageBytes = kernelImageBytes;
    launch.imageBase = map.image;
    for (std::uint32_t i = 0; i < agents; ++i) {
        workload::AgentTraceParams tp;
        tp.inputBase = map.input;
        tp.outputBase = map.output;
        tp.agentIndex = i;
        tp.numAgents = agents;
        tp.seed = opts.seed;
        traces.push_back(workload::wrapCoalescing(
            model.makeAgentTrace(tp), opts.coalesceBytes));
        launch.agentTraces.push_back(traces.back().get());
        launch.outputRegions.push_back(traces.back()->outputRegion());
    }
    return launch;
}

} // namespace systems
} // namespace dramless

/**
 * @file
 * Base class and options for the evaluated accelerated systems
 * (Table I).
 */

#ifndef DRAMLESS_SYSTEMS_SYSTEM_HH
#define DRAMLESS_SYSTEMS_SYSTEM_HH

#include <optional>
#include <string>

#include "accel/accelerator.hh"
#include "pram/geometry.hh"
#include "reliability/fault_model.hh"
#include "sim/event_queue.hh"
#include "sim/trace.hh"
#include "systems/metrics.hh"
#include "workload/polybench.hh"
#include "workload/workload_model.hh"

namespace dramless
{
namespace systems
{

/** Kernel image size shipped per launch (TI C66x kernel code
 *  segments are compact). */
constexpr std::uint64_t kernelImageBytes = 16 * 1024;

/**
 * Options shared by every system model. The workload is not one of
 * them: a caller scales the model it runs (WorkloadModel::scaled)
 * once, before handing it to run().
 */
struct SystemOptions
{
    /** PEs including the server. */
    std::uint32_t numPes = 8;
    /** RNG seed for workload traces. */
    std::uint64_t seed = 1;
    /** IPC/power sampling period. */
    Tick sampleInterval = fromUs(20);
    /** Override the PRAM geometry (ablation studies). */
    std::optional<pram::PramGeometry> geometryOverride;
    /** Keep functional backing stores (slower, data-checked). */
    bool functional = false;
    /** Enable Start-Gap wear leveling in PRAM subsystems. */
    bool wearLeveling = false;
    /** Gap move period in writes when wear leveling. */
    std::uint64_t gapMovePeriod = 100;
    /** Fault injection / endurance knobs (default: disabled). */
    reliability::ReliabilityConfig reliability{};
    /**
     * Maximum burst (bytes) the trace coalescing layer may merge
     * contiguous same-kind 32B word accesses into before they enter
     * the event kernel. Values at or below one word (<= 32) disable
     * coalescing and restore per-word issue.
     */
    std::uint32_t coalesceBytes = 512;
    /**
     * Event-kernel shards (worker threads) for simulations that run
     * on the conservative PDES kernel (sim/pdes.hh) — today the
     * multi-node co-simulated serving fleet, whose clusters are one
     * dispatch frontend plus one per node. 1 = serial reference
     * kernel; 0 = one worker per host core; every value produces
     * bit-identical results. Single-node systems (AcceleratedSystem
     * subclasses) are one cluster and always run serial: their
     * MCU<->backend boundary is synchronous (zero lookahead), so the
     * knob is a no-op there by design, not an oversight.
     */
    std::uint32_t shards = 1;
};

/**
 * One accelerated system. Each instance owns a private event queue
 * and component graph; run one workload per instance for isolated,
 * reproducible measurements.
 */
class AcceleratedSystem
{
  public:
    AcceleratedSystem(std::string name, const SystemOptions &opts)
        : name_(std::move(name)), opts_(opts)
    {}

    virtual ~AcceleratedSystem() = default;

    /** Execute @p model, at the volume it has, end-to-end and
     *  return the run's metrics. */
    RunResult
    run(const workload::WorkloadModel &model)
    {
        trace::Span runSpan(trace::catSystem, name_, "run",
                            eq_.curTick());
        RunResult result = doRun(model);
        runSpan.finish(eq_.curTick());
        result.system = name_;
        result.workload = model.spec().name;
        result.bytesProcessed = model.spec().totalBytes();
        result.eventsProcessed = eq_.numProcessed();
        if (result.execTime > 0) {
            result.bandwidthMBps =
                double(model.spec().totalBytes()) /
                (double(result.execTime) / double(tickPerSec)) /
                1e6;
        }
        return result;
    }

    const std::string &name() const { return name_; }

  protected:
    virtual RunResult doRun(const workload::WorkloadModel &model) = 0;

    std::string name_;
    SystemOptions opts_;
    EventQueue eq_;
};

} // namespace systems
} // namespace dramless

#endif // DRAMLESS_SYSTEMS_SYSTEM_HH

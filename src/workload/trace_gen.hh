/**
 * @file
 * Trace generator turning a WorkloadSpec into a per-agent stream of
 * compute bursts, loads and stores with the kernel's access pattern.
 */

#ifndef DRAMLESS_WORKLOAD_TRACE_GEN_HH
#define DRAMLESS_WORKLOAD_TRACE_GEN_HH

#include <cstdint>

#include "accel/trace.hh"
#include "sim/random.hh"
#include "workload/polybench.hh"
#include "workload/workload_model.hh"

namespace dramless
{
namespace workload
{

/** Generator parameters. */
struct TraceGenConfig
{
    WorkloadSpec spec;
    /** Base address of the input dataset. */
    std::uint64_t inputBase = 0;
    /** Base address of the output region; defaults to the end of the
     *  input when zero. */
    std::uint64_t outputBase = 0;
    /** This agent's index and the number of agents sharing the
     *  kernel (the suite is split into per-PE compute kernels). */
    std::uint32_t agentIndex = 0;
    std::uint32_t numAgents = 1;
    /** PE operand size (256-bit SIMD loads/stores). */
    std::uint32_t accessBytes = 32;
    /** Row length for stencil neighbourhoods and strided columns. */
    std::uint64_t rowBytes = 8192;
    std::uint64_t seed = 1;
};

/**
 * Lazy per-agent trace. The agent sweeps its input slice in the
 * spec's pattern, retires opsPerByte work per byte loaded, and emits
 * stores to its output slice paced so the store/load byte ratio
 * equals the spec's output/input ratio.
 */
class PolybenchTraceSource : public AgentTraceSource
{
  public:
    explicit PolybenchTraceSource(const TraceGenConfig &config);

    /** Restart the trace (for repeated launches). */
    void rewind() override;

    /** @return input bytes this agent will load (slice size). */
    std::uint64_t loadBytes() const { return inSize_; }
    /** @return output bytes this agent will store. */
    std::uint64_t storeBytes() const { return outSize_; }
    /** @return [base, base+size) of this agent's output slice (for
     *  selective-erasing hints). */
    std::pair<std::uint64_t, std::uint64_t>
    outputRegion() const override
    {
        return {outBase_, outSize_};
    }

  private:
    void refill() override;
    /** Stage element @p k's loads, compute and paced stores. */
    void stageElement(std::uint64_t k);
    /** Load address of element @p k under the spec's pattern. */
    std::uint64_t loadAddr(std::uint64_t k);

    TraceGenConfig cfg_;
    Random rng_;
    std::uint64_t inBase_ = 0;
    std::uint64_t inSize_ = 0;
    std::uint64_t outBase_ = 0;
    std::uint64_t outSize_ = 0;
    /** Instructions per element with one and with three loads. */
    std::uint64_t ops1_ = 0;
    std::uint64_t ops3_ = 0;
    /** Store bytes owed per element loaded (output/input pacing). */
    double storeStep_ = 0.0;
    /** Elements (access units) in the input slice. */
    std::uint64_t elements_ = 0;
    /** Next element to stage. */
    std::uint64_t element_ = 0;
    std::uint64_t storeOffset_ = 0;
    double storeDebt_ = 0.0;
};

} // namespace workload
} // namespace dramless

#endif // DRAMLESS_WORKLOAD_TRACE_GEN_HH

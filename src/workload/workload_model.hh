/**
 * @file
 * The workload abstraction the system models run.
 *
 * Historically every consumer held a raw WorkloadSpec and constructed
 * PolybenchTraceSource instances directly, hard-wiring the synthetic
 * Polybench generator into the systems layer. WorkloadModel turns a
 * workload into a first-class object: a descriptor (the WorkloadSpec,
 * for layout and billing) plus a factory of per-agent trace sources.
 * Polybench and the graph-analytics engine (workload/graph.hh) both
 * implement it, so every place that consumes a workload — the systems,
 * the sweep runner, the bench harness — works with either.
 */

#ifndef DRAMLESS_WORKLOAD_WORKLOAD_MODEL_HH
#define DRAMLESS_WORKLOAD_WORKLOAD_MODEL_HH

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "accel/trace.hh"
#include "workload/polybench.hh"

namespace dramless
{
namespace workload
{

/** Placement and identity of one agent's trace within a run. */
struct AgentTraceParams
{
    /** Base address of the input dataset. */
    std::uint64_t inputBase = 0;
    /** Base address of the output region; 0 means "directly after
     *  the input" (generator-defined). */
    std::uint64_t outputBase = 0;
    /** This agent's index and the number of agents sharing the
     *  kernel. */
    std::uint32_t agentIndex = 0;
    std::uint32_t numAgents = 1;
    /** PE operand size (256-bit SIMD loads/stores). */
    std::uint32_t accessBytes = 32;
    std::uint64_t seed = 1;
};

/**
 * Split [begin, end) into @p agents contiguous pieces, spreading the
 * remainder over the first agents, so the pieces cover every element
 * exactly once. A piece is empty when there are more agents than
 * elements.
 *
 * @return agent @p agent's piece [first, last).
 */
inline std::pair<std::uint64_t, std::uint64_t>
agentSlice(std::uint64_t begin, std::uint64_t end, std::uint32_t agent,
           std::uint32_t agents)
{
    const std::uint64_t total = end - begin;
    const std::uint64_t per = total / agents;
    const std::uint64_t extra = total % agents;
    const std::uint64_t first =
        begin + agent * per + std::min<std::uint64_t>(agent, extra);
    return {first, first + per + (agent < extra ? 1 : 0)};
}

/**
 * A per-agent trace stream with the extra surface the system models
 * need beyond accel::TraceSource: restartability and the agent's
 * output footprint (for selective-erasing hints).
 *
 * The base owns one staging buffer. A producer implements refill(),
 * which stages the next batch of items; next() pops them one by one
 * and calls refill() again only once the buffer is empty. A refill
 * that stages nothing ends the trace. A stream is a pure function of
 * its input, so the batch size never changes what a trace yields.
 */
class AgentTraceSource : public accel::TraceSource
{
  public:
    bool
    next(accel::TraceItem &out) final
    {
        if (head_ == tail_) {
            head_ = tail_ = 0;
            refill();
            if (tail_ == 0)
                return false;
        }
        out = buf_[head_++];
        return true;
    }

    /** Restart the trace (for repeated launches). */
    virtual void rewind() = 0;

    /** @return [base, size) of this agent's output region. */
    virtual std::pair<std::uint64_t, std::uint64_t>
    outputRegion() const = 0;

  protected:
    /** Items a producer stages per refill, unless its stream ends
     *  first. */
    static constexpr std::size_t kRefillBatch = 64;

    /** Stage the next batch; staging nothing ends the trace. Called
     *  only when the buffer is empty. */
    virtual void refill() = 0;

    /** Append @p it to the staging buffer. */
    void
    stage(const accel::TraceItem &it)
    {
        if (tail_ == buf_.size())
            buf_.resize(2 * buf_.size());
        buf_[tail_++] = it;
    }

    /** @return items staged and not yet popped. */
    std::size_t staged() const { return tail_ - head_; }

    /** Drop every staged item (on rewind). */
    void dropStaged() { head_ = tail_ = 0; }

  private:
    std::vector<accel::TraceItem> buf_ =
        std::vector<accel::TraceItem>(kRefillBatch);
    std::size_t head_ = 0;
    std::size_t tail_ = 0;
};

/**
 * One runnable workload: a descriptor plus a trace factory.
 *
 * Implementations must be immutable after construction so a single
 * model can be shared across SweepRunner jobs running on different
 * threads.
 */
class WorkloadModel
{
  public:
    virtual ~WorkloadModel() = default;

    /** @return the descriptor (name, volumes, pattern, class). The
     *  generated traces stay inside [inputBase, inputBase +
     *  spec().inputBytes) / the matching output window. */
    virtual const WorkloadSpec &spec() const = 0;

    /** @return a copy with data volumes scaled by @p factor. The
     *  copy keeps spec().name: scaling is a volume knob, not a new
     *  workload, so result matrices key the same row either way. */
    virtual std::shared_ptr<const WorkloadModel>
    scaled(double factor) const = 0;

    /**
     * @return the model of one chunk when a heterogeneous run splits
     * the workload into @p chunks sequential pieces. Regular kernels
     * chunk cleanly (scaled(1/chunks)); data-dependent workloads
     * override this to keep the shared state every chunk re-touches.
     */
    virtual std::shared_ptr<const WorkloadModel>
    chunked(std::uint32_t chunks) const
    {
        return scaled(1.0 / double(chunks));
    }

    /** Build agent @p p.agentIndex's trace over this workload. */
    virtual std::unique_ptr<AgentTraceSource>
    makeAgentTrace(const AgentTraceParams &p) const = 0;
};

/**
 * Spec-backed model: the synthetic Polybench pattern generator
 * (workload/trace_gen.hh) behind the WorkloadModel interface.
 */
class PolybenchModel : public WorkloadModel
{
  public:
    explicit PolybenchModel(WorkloadSpec spec)
        : spec_(std::move(spec))
    {}

    const WorkloadSpec &spec() const override { return spec_; }

    std::shared_ptr<const WorkloadModel>
    scaled(double factor) const override
    {
        return std::make_shared<PolybenchModel>(
            spec_.scaled(factor));
    }

    std::unique_ptr<AgentTraceSource>
    makeAgentTrace(const AgentTraceParams &p) const override;

  private:
    WorkloadSpec spec_;
};

/** Wrap @p spec in a shared PolybenchModel. */
std::shared_ptr<const WorkloadModel> modelFor(const WorkloadSpec &spec);

} // namespace workload
} // namespace dramless

#endif // DRAMLESS_WORKLOAD_WORKLOAD_MODEL_HH

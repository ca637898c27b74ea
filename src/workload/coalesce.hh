/**
 * @file
 * Burst coalescing of per-word trace items (ROADMAP item 2a).
 *
 * The Polybench and graph generators emit every access at PE operand
 * granularity (32B words), so the event kernel pays one heap event
 * per word. CoalescingTraceSource sits between a generator and the
 * PE and merges contiguous same-kind word runs into burst TraceItems
 * (TraceItem::burst > 1) up to a configurable maximum burst size.
 *
 * Workloads interleave several address streams (e.g. a strided load
 * stream, a sequential load stream and a store stream), so a single
 * pending run would never grow: the coalescer keeps a small number of
 * concurrently open runs ("ways") and extends whichever one the next
 * word continues. Compute items accumulate into one pending sum that
 * is flushed ahead of the next emitted memory run, preserving the
 * total instruction count and the coarse compute/memory interleave.
 *
 * Correctness contract (pinned by the differential oracle test): the
 * coalesced stream covers exactly the same byte set as the wrapped
 * stream, with identical per-kind word and instruction totals. Words
 * may locally reorder across ways; trace items carry timing, not
 * data, so this only shifts issue ticks.
 */

#ifndef DRAMLESS_WORKLOAD_COALESCE_HH
#define DRAMLESS_WORKLOAD_COALESCE_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "workload/workload_model.hh"

namespace dramless
{
namespace workload
{

/** Merges contiguous same-kind word accesses into burst items. */
class CoalescingTraceSource : public AgentTraceSource
{
  public:
    /**
     * @param inner wrapped per-word source (owned).
     * @param maxBurstBytes largest burst emitted; a multi-word run
     *        never crosses a maxBurstBytes-aligned boundary, so
     *        aligned consumers (L2 blocks, channel stripes) see
     *        aligned bursts.
     */
    CoalescingTraceSource(std::unique_ptr<AgentTraceSource> inner,
                          std::uint32_t maxBurstBytes);

    /** Concurrently open runs before LRU eviction. */
    static constexpr std::uint32_t kWays = 4;

    void rewind() override;

    std::pair<std::uint64_t, std::uint64_t>
    outputRegion() const override
    {
        return inner_->outputRegion();
    }

  private:
    /** One open run of contiguous same-kind words. */
    struct Run
    {
        accel::TraceItem::Kind kind = accel::TraceItem::Kind::load;
        std::uint64_t base = 0;
        /** One past the run's last byte. */
        std::uint64_t end = 0;
        /** The maxBurst-aligned boundary above base: no word that
         *  ends past it joins the run. */
        std::uint64_t limit = 0;
        /** Word size (bytes) — uniform within a run. */
        std::uint32_t wordBytes = 0;
        std::uint32_t words = 0;
        /** Monotone age for LRU eviction. */
        std::uint64_t lastTouch = 0;

        bool open() const { return words > 0; }
    };

    /** Consume input until a batch is staged or the inner trace
     *  ends. */
    void refill() override;
    /** Stage pending compute, then run @p r. */
    void flushRun(Run &r);
    /** Stage the accumulated compute sum. */
    void flushCompute();
    /** Stage every open run (oldest first) and pending compute. */
    void flushAll();
    /** True when @p it extends open run @p r without ending past its
     *  aligned limit. */
    static bool extends(const Run &r, const accel::TraceItem &it);

    std::unique_ptr<AgentTraceSource> inner_;
    std::uint32_t maxBurstBytes_;
    std::vector<Run> ways_;
    std::uint64_t pendingInstructions_ = 0;
    std::uint64_t touchClock_ = 0;
    bool innerDone_ = false;
};

/**
 * Wrap @p inner in a coalescer when @p maxBurstBytes allows more
 * than one word per burst; otherwise return @p inner unchanged.
 */
std::unique_ptr<AgentTraceSource>
wrapCoalescing(std::unique_ptr<AgentTraceSource> inner,
               std::uint32_t maxBurstBytes);

} // namespace workload
} // namespace dramless

#endif // DRAMLESS_WORKLOAD_COALESCE_HH

/**
 * @file
 * Processing element model (Figure 6b).
 *
 * A PE is a 1 GHz eight-functional-unit VLIW/SIMD core (2x .M, .L,
 * .S, .D) with private L1 and L2 caches. Agents are trace-driven:
 * compute bursts retire at the configured effective issue rate,
 * loads walk L1/L2 and stall the core on an L2 miss until the server
 * MCU returns the 512-byte block, and stores allocate in the caches
 * like loads; dirty blocks drain through a posted-write queue whose
 * backpressure exposes the backend's write latency.
 */

#ifndef DRAMLESS_ACCEL_PE_HH
#define DRAMLESS_ACCEL_PE_HH

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <utility>

#include "accel/cache.hh"
#include "accel/mcu.hh"
#include "accel/trace.hh"
#include "sim/clocked.hh"
#include "sim/event_queue.hh"

namespace dramless
{
namespace accel
{

/** PE parameters. */
struct PeConfig
{
    /** Core clock (TI C6678-class: 1 GHz). */
    Tick clockPeriod = periodFromGhz(1.0);
    /** Sustained functional-unit operations per cycle with the DSP
     *  intrinsics the paper embeds (peak is 8). */
    double effectiveIssue = 4.0;
    CacheConfig l1 = CacheConfig::l1Default();
    CacheConfig l2 = CacheConfig::l2Default();
    /** Outstanding posted writebacks before the core stalls. */
    std::uint32_t storeQueueDepth = 16;
};

/** PE execution counters. */
struct PeStats
{
    std::uint64_t instructions = 0;
    std::uint64_t computeCycles = 0;
    std::uint64_t memAccessCycles = 0;
    std::uint64_t loadStallTicks = 0;
    std::uint64_t storeStallTicks = 0;
    std::uint64_t loads = 0;
    std::uint64_t stores = 0;
    std::uint64_t l2MissReads = 0;
    std::uint64_t writebackWrites = 0;
};

/**
 * One trace-driven processing element. The owner wires it to the
 * server's MCU, hands it a TraceSource and starts it (after the PSC
 * wake sequence); `onDone` fires when the trace is exhausted and all
 * of the PE's stores have drained.
 */
class ProcessingElement : public Clocked
{
  public:
    ProcessingElement(EventQueue &eq, const PeConfig &config,
                      std::string name);

    /** Wire the server MCU this PE's L2 misses flow through. */
    void attachMcu(Mcu *mcu) { mcu_ = mcu; }

    /** Hand the PE its kernel trace (before start()). */
    void setTrace(TraceSource *trace);

    /** Completion hook. */
    void setOnDone(std::function<void()> cb) { onDone_ = std::move(cb); }

    /** Begin execution at tick @p when (>= now). */
    void start(Tick when);

    /** @return true while executing a trace. */
    bool running() const { return running_; }
    /** @return true when the trace has fully retired. */
    bool finished() const { return finished_; }

    /** Drop cache contents (between kernels). */
    void invalidateCaches();

    const PeStats &peStats() const { return stats_; }
    const CacheStats &l1Stats() const { return l1_.cacheStats(); }
    const CacheStats &l2Stats() const { return l2_.cacheStats(); }
    const PeConfig &config() const { return config_; }
    const std::string &name() const { return name_; }

    /**
     * Instantaneous activity fraction in [0,1] since the last call:
     * used by the power model's sampling.
     */
    double drainActivitySample();

    /** Instructions retired since the last IPC sample. */
    std::uint64_t drainInstructionSample();

  private:
    /** Advance the trace until the core blocks or time must pass. */
    void step();
    /** Resume after an L2 miss fill arrives. */
    void loadReturned(Tick when);
    /** Post a write to the backend with store-queue accounting. */
    void postWrite(std::uint64_t addr, std::uint32_t size);
    /** Resume after a posted write drains from the queue. */
    void storeDrained(Tick when);
    /** Trace exhausted: wait for stores, then report. */
    void maybeFinish();

    PeConfig config_;
    std::string name_;
    SetAssocCache l1_;
    SetAssocCache l2_;
    Mcu *mcu_ = nullptr;
    TraceSource *trace_ = nullptr;
    std::function<void()> onDone_;

    bool running_ = false;
    bool finished_ = false;
    bool waitingLoad_ = false;
    bool waitingStore_ = false;
    bool traceExhausted_ = false;
    TraceItem item_;
    bool haveItem_ = false;
    /** Words of the current memory item already issued; a burst item
     *  retires once burstDone_ == item_.burst. */
    std::uint32_t burstDone_ = 0;
    /** Dirty blocks awaiting the end-of-kernel flush to storage. */
    std::deque<std::pair<std::uint64_t, std::uint32_t>> flushQueue_;
    std::uint32_t storeQueueUsed_ = 0;
    bool pendingWbValid_ = false;
    std::uint64_t pendingWbAddr_ = 0;
    Tick stallStart_ = 0;
    Tick lastSampleTick_ = 0;
    Tick busySinceSample_ = 0;
    Tick runStart_ = 0;
    std::uint64_t instrAtSample_ = 0;
    PeStats stats_;
    MemberEvent<ProcessingElement, &ProcessingElement::step>
        stepEvent_;
};

} // namespace accel
} // namespace dramless

#endif // DRAMLESS_ACCEL_PE_HH

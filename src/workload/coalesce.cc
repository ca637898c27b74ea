#include "workload/coalesce.hh"

#include "sim/logging.hh"

namespace dramless
{
namespace workload
{

CoalescingTraceSource::CoalescingTraceSource(
    std::unique_ptr<AgentTraceSource> inner,
    std::uint32_t maxBurstBytes)
    : inner_(std::move(inner)), maxBurstBytes_(maxBurstBytes),
      ways_(kWays)
{
    fatal_if(inner_ == nullptr, "coalescer: null inner source");
    fatal_if(maxBurstBytes_ == 0, "coalescer: zero burst size");
}

bool
CoalescingTraceSource::extends(const Run &r, const accel::TraceItem &it)
{
    // Never grow past a maxBurst-aligned boundary: downstream
    // block/stripe consumers then see naturally aligned bursts, and
    // run length is implicitly capped at maxBurstBytes.
    return r.open() && it.addr == r.end && it.kind == r.kind &&
           it.size == r.wordBytes && it.addr + it.size <= r.limit;
}

void
CoalescingTraceSource::flushCompute()
{
    if (pendingInstructions_ == 0)
        return;
    stage(accel::TraceItem::computeOf(pendingInstructions_));
    pendingInstructions_ = 0;
}

void
CoalescingTraceSource::flushRun(Run &r)
{
    if (!r.open())
        return;
    // Compute accumulated ahead of this run issues first so the
    // burst's words stay behind the work that preceded them.
    flushCompute();
    stage(r.kind == accel::TraceItem::Kind::load
              ? accel::TraceItem::loadOf(r.base, r.wordBytes, r.words)
              : accel::TraceItem::storeOf(r.base, r.wordBytes,
                                          r.words));
    r.words = 0;
}

void
CoalescingTraceSource::flushAll()
{
    for (;;) {
        Run *oldest = nullptr;
        for (Run &r : ways_)
            if (r.open() &&
                (oldest == nullptr || r.lastTouch < oldest->lastTouch))
                oldest = &r;
        if (oldest == nullptr)
            break;
        flushRun(*oldest);
    }
    flushCompute();
}

void
CoalescingTraceSource::refill()
{
    accel::TraceItem it;
    while (staged() < kRefillBatch && !innerDone_) {
        if (!inner_->next(it)) {
            innerDone_ = true;
            flushAll();
            return;
        }
        if (it.kind == accel::TraceItem::Kind::compute) {
            pendingInstructions_ += it.instructions;
            continue;
        }
        // Oversized or misaligned-word items pass through untouched.
        if (it.size == 0 || it.burst != 1 ||
            it.size >= maxBurstBytes_) {
            flushAll();
            stage(it);
            continue;
        }
        // One pass finds the first run the word extends and flushes,
        // in way order, every other run it overlaps (a word of a
        // different stream must not pass an open run holding its
        // address).
        Run *hit = nullptr;
        for (Run &r : ways_) {
            if (extends(r, it)) {
                if (hit == nullptr)
                    hit = &r;
            } else if (r.open() && it.addr < r.end &&
                       it.addr + it.size > r.base) {
                flushRun(r);
            }
        }
        if (hit == nullptr) {
            // Claim the first empty way, else evict the least
            // recently extended run.
            hit = &ways_.front();
            for (Run &r : ways_) {
                if (!r.open()) {
                    hit = &r;
                    break;
                }
                if (r.lastTouch < hit->lastTouch)
                    hit = &r;
            }
            flushRun(*hit);
            hit->kind = it.kind;
            hit->base = it.addr;
            hit->end = it.addr;
            hit->limit =
                it.addr - it.addr % maxBurstBytes_ + maxBurstBytes_;
            hit->wordBytes = it.size;
        }
        ++hit->words;
        hit->end += it.size;
        hit->lastTouch = ++touchClock_;
    }
}

void
CoalescingTraceSource::rewind()
{
    for (Run &r : ways_)
        r = Run{};
    pendingInstructions_ = 0;
    touchClock_ = 0;
    innerDone_ = false;
    dropStaged();
    inner_->rewind();
}

std::unique_ptr<AgentTraceSource>
wrapCoalescing(std::unique_ptr<AgentTraceSource> inner,
               std::uint32_t maxBurstBytes)
{
    if (inner == nullptr || maxBurstBytes <= 32)
        return inner;
    return std::make_unique<CoalescingTraceSource>(
        std::move(inner), maxBurstBytes);
}

} // namespace workload
} // namespace dramless

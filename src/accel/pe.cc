#include "accel/pe.hh"

#include <algorithm>
#include <cmath>

#include "sim/trace.hh"

namespace dramless
{
namespace accel
{

ProcessingElement::ProcessingElement(EventQueue &eq,
                                     const PeConfig &config,
                                     std::string name)
    : Clocked(eq, config.clockPeriod),
      config_(config),
      name_(std::move(name)),
      l1_(config.l1, name_ + ".l1"),
      l2_(config.l2, name_ + ".l2"),
      stepEvent_(this, name_ + ".step")
{
    fatal_if(config.effectiveIssue <= 0.0,
             "%s: issue rate must be positive", name_.c_str());
}

void
ProcessingElement::setTrace(TraceSource *trace)
{
    panic_if(running_, "%s: trace swapped while running",
             name_.c_str());
    trace_ = trace;
    finished_ = false;
    traceExhausted_ = false;
    haveItem_ = false;
}

void
ProcessingElement::start(Tick when)
{
    panic_if(trace_ == nullptr, "%s: started without a trace",
             name_.c_str());
    panic_if(mcu_ == nullptr, "%s: started without an MCU",
             name_.c_str());
    panic_if(running_, "%s: double start", name_.c_str());
    running_ = true;
    runStart_ = when;
    eventQueue().reschedule(&stepEvent_,
                            std::max(when, eventQueue().curTick()));
}

void
ProcessingElement::invalidateCaches()
{
    l1_.invalidateAll();
    l2_.invalidateAll();
}

void
ProcessingElement::step()
{
    if (!running_ || waitingLoad_ || waitingStore_)
        return;

    if (storeQueueUsed_ >= config_.storeQueueDepth) {
        waitingStore_ = true;
        stallStart_ = curTick();
        return; // resumes when a posted write drains
    }

    if (!haveItem_) {
        if (!trace_->next(item_)) {
            if (!traceExhausted_) {
                // Kernel complete: results dirty in the caches must
                // reach persistent storage before completion is
                // signalled to the server.
                traceExhausted_ = true;
                // Dirty L1 lines merge into their L2 copies; only
                // lines without an L2 home flush separately.
                for (std::uint64_t a : l1_.dirtyBlocks()) {
                    CacheAccessResult wr = l2_.access(a, true, false);
                    if (!wr.hit)
                        flushQueue_.emplace_back(
                            a, config_.l1.blockBytes);
                }
                for (std::uint64_t a : l2_.dirtyBlocks())
                    flushQueue_.emplace_back(a,
                                             config_.l2.blockBytes);
                l1_.cleanAll();
                l2_.cleanAll();
            }
            if (!flushQueue_.empty()) {
                auto [addr, size] = flushQueue_.front();
                flushQueue_.pop_front();
                postWrite(addr, size);
                eventQueue().reschedule(&stepEvent_, clockEdge(1));
                return;
            }
            maybeFinish();
            return;
        }
        haveItem_ = true;
        burstDone_ = 0;
    }

    switch (item_.kind) {
      case TraceItem::Kind::compute: {
        Cycles c = Cycles(std::max<double>(
            1.0, std::ceil(double(item_.instructions) /
                           config_.effectiveIssue)));
        stats_.instructions += item_.instructions;
        stats_.computeCycles += c;
        busySinceSample_ += cyclesToTicks(c);
        haveItem_ = false;
        eventQueue().reschedule(&stepEvent_, clockEdge(c));
        return;
      }
      case TraceItem::Kind::load:
      case TraceItem::Kind::store: {
        bool is_store = item_.kind == TraceItem::Kind::store;
        // Walk the burst's words inside this one heap event,
        // accumulating cache-hit cycles; the walk pauses at the word
        // that needs a blocking action (L2 miss fill, store-queue
        // backpressure) and resumes there afterwards.
        Cycles acc = 0;
        while (true) {
            std::uint64_t addr =
                item_.addr + std::uint64_t(burstDone_) * item_.size;
            if (is_store)
                ++stats_.stores;
            else
                ++stats_.loads;
            CacheAccessResult r1 = l1_.access(addr, is_store);
            if (!r1.hit) {
                // L1 fill happens on the miss; its dirty victim
                // drains into L2.
                if (r1.writeback) {
                    CacheAccessResult wr =
                        l2_.access(r1.writebackAddr, true, false);
                    if (!wr.hit) {
                        postWrite(r1.writebackAddr,
                                  config_.l1.blockBytes);
                    }
                }
                CacheAccessResult r2 = l2_.access(addr, is_store);
                if (!r2.hit) {
                    // L2 miss: the server MCU fetches one L2 block
                    // (512 B per channel request shape); store
                    // misses fetch-then-merge (write allocate). The
                    // dirty victim, if any, is posted when the fill
                    // returns. Hit cycles banked so far overlap the
                    // stall.
                    ++stats_.l2MissReads;
                    if (auto *t = trace::current()) {
                        t->instant(trace::catAccel, name_, "l2.miss",
                                   curTick());
                    }
                    stats_.memAccessCycles += acc;
                    busySinceSample_ += cyclesToTicks(acc);
                    waitingLoad_ = true;
                    stallStart_ = curTick();
                    pendingWbValid_ = r2.writeback;
                    pendingWbAddr_ = r2.writebackAddr;
                    ++burstDone_; // retired when the fill returns
                    mcu_->read(l2_.blockBase(addr),
                               config_.l2.blockBytes,
                               [this](Tick when) {
                                   loadReturned(when);
                               });
                    return;
                }
                acc += config_.l2.latencyCycles;
            } else {
                acc += config_.l1.latencyCycles;
            }
            if (++burstDone_ >= item_.burst)
                break;
            if (storeQueueUsed_ >= config_.storeQueueDepth) {
                // A victim writeback filled the queue mid-burst: let
                // the banked hit cycles elapse, then re-enter; the
                // entry check stalls if it is still full.
                stats_.memAccessCycles += acc;
                busySinceSample_ += cyclesToTicks(acc);
                eventQueue().reschedule(&stepEvent_, clockEdge(acc));
                return;
            }
        }
        stats_.memAccessCycles += acc;
        busySinceSample_ += cyclesToTicks(acc);
        haveItem_ = false;
        eventQueue().reschedule(&stepEvent_, clockEdge(acc));
        return;
      }
    }
    panic("%s: unreachable trace item kind", name_.c_str());
}

void
ProcessingElement::postWrite(std::uint64_t addr, std::uint32_t size)
{
    // Writebacks are posted but bounded: the core pauses at the next
    // step when the queue is full, exposing the backend's write
    // bandwidth as backpressure.
    ++storeQueueUsed_;
    ++stats_.writebackWrites;
    if (auto *t = trace::current()) {
        t->counter(trace::catAccel, name_, "storeQueueUsed",
                   curTick(), double(storeQueueUsed_));
    }
    mcu_->write(addr, size,
                [this](Tick when) { storeDrained(when); });
}

void
ProcessingElement::loadReturned(Tick when)
{
    panic_if(!waitingLoad_, "%s: spurious load return",
             name_.c_str());
    waitingLoad_ = false;
    stats_.loadStallTicks += when - stallStart_;
    if (auto *t = trace::current())
        t->complete(trace::catAccel, name_, "stall.load", stallStart_,
                    when);
    if (pendingWbValid_) {
        postWrite(pendingWbAddr_, config_.l2.blockBytes);
        pendingWbValid_ = false;
    }
    // The L1/L2 tag state was updated when the miss was detected; the
    // returning fill only costs the L2 access latency here. A
    // mid-burst miss keeps the item live so the walk resumes at the
    // next word.
    Cycles c = config_.l2.latencyCycles;
    stats_.memAccessCycles += c;
    busySinceSample_ += cyclesToTicks(c);
    haveItem_ = burstDone_ < item_.burst;
    eventQueue().reschedule(&stepEvent_, clockEdge(c));
}

void
ProcessingElement::storeDrained(Tick when)
{
    panic_if(storeQueueUsed_ == 0, "%s: store queue underflow",
             name_.c_str());
    --storeQueueUsed_;
    if (auto *t = trace::current()) {
        t->counter(trace::catAccel, name_, "storeQueueUsed", when,
                   double(storeQueueUsed_));
    }
    if (waitingStore_) {
        waitingStore_ = false;
        stats_.storeStallTicks += when - stallStart_;
        if (auto *t = trace::current())
            t->complete(trace::catAccel, name_, "stall.store",
                        stallStart_, when);
        eventQueue().reschedule(&stepEvent_, clockEdge());
    }
    if (traceExhausted_)
        maybeFinish();
}

void
ProcessingElement::maybeFinish()
{
    if (!traceExhausted_ || !flushQueue_.empty() ||
        storeQueueUsed_ > 0 || waitingLoad_ || finished_) {
        return;
    }
    running_ = false;
    finished_ = true;
    if (auto *t = trace::current()) {
        t->complete(trace::catAccel, name_, "kernel", runStart_,
                    curTick());
    }
    if (onDone_)
        onDone_();
}

double
ProcessingElement::drainActivitySample()
{
    Tick now = curTick();
    Tick span = now - lastSampleTick_;
    double frac =
        span == 0 ? 0.0
                  : std::min(1.0, double(busySinceSample_) /
                                      double(span));
    busySinceSample_ = 0;
    lastSampleTick_ = now;
    return frac;
}

std::uint64_t
ProcessingElement::drainInstructionSample()
{
    std::uint64_t delta = stats_.instructions - instrAtSample_;
    instrAtSample_ = stats_.instructions;
    return delta;
}

} // namespace accel
} // namespace dramless

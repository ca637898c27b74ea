#include "sim/event_queue.hh"

#include <cassert>

#include "sim/logging.hh"

namespace dramless
{

std::atomic<std::uint64_t> EventFunctionWrapper::numConstructed_{0};

Event::~Event()
{
    panic_if(_scheduled, "event destroyed while scheduled");
}

void
EventQueue::siftUp(std::size_t i)
{
    Slot s = heap_[i];
    while (i > 0) {
        std::size_t parent = (i - 1) / arity;
        if (!before(s, heap_[parent]))
            break;
        place(i, heap_[parent]);
        i = parent;
    }
    place(i, s);
}

void
EventQueue::siftDown(std::size_t i)
{
    Slot s = heap_[i];
    const std::size_t n = heap_.size();
    while (true) {
        std::size_t first = i * arity + 1;
        if (first >= n)
            break;
        std::size_t best = first;
        std::size_t last = std::min(first + arity, n);
        for (std::size_t c = first + 1; c < last; ++c) {
            if (before(heap_[c], heap_[best]))
                best = c;
        }
        if (!before(heap_[best], s))
            break;
        place(i, heap_[best]);
        i = best;
    }
    place(i, s);
}

void
EventQueue::removeAt(std::size_t i)
{
    assert(i < heap_.size());
    Slot tail = heap_.back();
    heap_.pop_back();
    if (i == heap_.size())
        return;
    place(i, tail);
    // The tail element may belong above or below the vacated slot
    // (root pops only ever sift down).
    siftDown(i);
    if (i > 0 && tail.ev->_heapIdx == i)
        siftUp(i);
}

void
EventQueue::schedule(Event *ev, Tick when, int priority)
{
    panic_if(ev == nullptr, "scheduling null event");
    panic_if(ev->_scheduled, "event '%s' double-scheduled",
             ev->name().c_str());
    panic_if(when < _curTick,
             "event '%s' scheduled in the past (%llu < %llu)",
             ev->name().c_str(),
             (unsigned long long)when, (unsigned long long)_curTick);

    ev->_when = when;
    ev->_priority = priority;
    ev->_seq = nextSeq_++;
    ev->_scheduled = true;
    ev->_queue = this;
    const Slot slot{when, priority, ev->_seq, ev};
    if (deadRoot_) {
        // Reuse the popped event's slot: one sift down, no tail move.
        deadRoot_ = false;
        place(0, slot);
        siftDown(0);
        return;
    }
    heap_.push_back(slot);
    siftUp(heap_.size() - 1);
}

void
EventQueue::deschedule(Event *ev)
{
    panic_if(ev == nullptr, "descheduling null event");
    panic_if(!ev->_scheduled, "event '%s' not scheduled",
             ev->name().c_str());
    panic_if(ev->_queue != this,
             "event '%s' descheduled from a queue it is not on",
             ev->name().c_str());
    // Eager removal: unlink the heap slot now. The event may be
    // destroyed (or rescheduled on another queue) immediately.
    settle();
    removeAt(ev->_heapIdx);
    ev->_scheduled = false;
    ev->_queue = nullptr;
}

void
EventQueue::reschedule(Event *ev, Tick when, int priority)
{
    panic_if(ev == nullptr, "rescheduling null event");
    // Check the precondition up front: a failed reschedule must not
    // leave the event descheduled as a side effect.
    panic_if(when < _curTick,
             "event '%s' rescheduled into the past (%llu < %llu)",
             ev->name().c_str(),
             (unsigned long long)when, (unsigned long long)_curTick);
    if (!ev->_scheduled) {
        schedule(ev, when, priority);
        return;
    }
    panic_if(ev->_queue != this,
             "event '%s' descheduled from a queue it is not on",
             ev->name().c_str());
    settle();
    // Re-key in place. The sequence number is refreshed exactly as the
    // historical deschedule+schedule pair did, preserving the global
    // pop order bit for bit.
    ev->_when = when;
    ev->_priority = priority;
    ev->_seq = nextSeq_++;
    std::size_t i = ev->_heapIdx;
    heap_[i] = Slot{when, priority, ev->_seq, ev};
    siftDown(i);
    if (ev->_heapIdx == i)
        siftUp(i);
}

bool
EventQueue::step()
{
    settle();
    if (heap_.empty())
        return false;

    Event *ev = heap_.front().ev;
    panic_if(heap_.front().when < _curTick, "time went backwards");
    _curTick = heap_.front().when;
    // The slot stays put until the next mutation: a schedule() from
    // the handler takes it over.
    deadRoot_ = true;
    ev->_scheduled = false;
    ev->_queue = nullptr;
    ++numProcessed_;
    ev->process();
    return true;
}

void
EventQueue::runUntil(Tick t)
{
    while (nextTick() <= t)
        step();
    if (_curTick < t)
        _curTick = t;
}

void
EventQueue::run()
{
    while (step()) {
    }
}

std::uint64_t
EventQueue::run(std::uint64_t limit)
{
    std::uint64_t n = 0;
    while (n < limit && step())
        ++n;
    return n;
}

bool
EventQueue::selfCheck() const
{
    for (std::size_t i = deadRoot_ ? 1 : 0; i < heap_.size(); ++i) {
        const Slot &s = heap_[i];
        if (s.ev == nullptr || s.ev->_heapIdx != i)
            return false;
        if (!s.ev->_scheduled || s.ev->_queue != this)
            return false;
        if (s.when != s.ev->_when || s.priority != s.ev->_priority ||
            s.seq != s.ev->_seq)
            return false;
        if (i > 0 && before(s, heap_[(i - 1) / arity]))
            return false;
    }
    return true;
}

} // namespace dramless
